//! CRC-32 integrity and an LZ77-style byte compressor.
//!
//! Every trace block — in a DJVB file or a store record — carries a
//! [`crc32`] of its raw bytes, so a single flipped or missing byte is
//! caught at decode time whatever the compressed stream says; every pack
//! and unpack pays for it, so it runs eight bytes a step. The entropy
//! coder blocks are packed with is [`crate::rans`]. [`compress`] /
//! [`decompress`] are the workspace's LZ77, kept as the benchmark probe's
//! point of comparison: no block format uses them.
//!
//! ## Wire format of a compressed stream
//!
//! A sequence of *groups*; each group is
//!
//! ```text
//! varint(literal_len)  literal bytes…  [ varint(match_len) varint(offset) ]
//! ```
//!
//! The trailing match is omitted in the final group. Decompression stops
//! when exactly `raw_len` bytes have been produced; anything else — a
//! short stream, an overlong stream, an offset pointing before the start
//! — is corruption. Matches may overlap their own output (`offset == 1`
//! encodes a run).

use crate::bin::{get_varint, put_varint};

/// Minimum match length worth encoding (shorter matches cost more than
/// their literals).
const MIN_MATCH: usize = 4;
/// Longest match we will emit (bounds decompress work per group).
const MAX_MATCH: usize = 1 << 16;
/// Hash-chain search depth: how many previous positions with the same
/// 4-byte hash are tried per position. Small = fast, large = tighter.
const MAX_CHAIN: usize = 32;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing by
/// eight: eight table lookups fold eight bytes at once.
pub fn crc32(data: &[u8]) -> u32 {
    const T: [[u32; 256]; 8] = crc32_tables();
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = T[7][lo as usize & 0xFF]
            ^ T[6][(lo >> 8) as usize & 0xFF]
            ^ T[5][(lo >> 16) as usize & 0xFF]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][hi as usize & 0xFF]
            ^ T[2][(hi >> 8) as usize & 0xFF]
            ^ T[1][(hi >> 16) as usize & 0xFF]
            ^ T[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// `T[0]` is the byte-at-a-time table; `T[k][i]` is the CRC of byte `i`
/// followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

#[inline]
fn hash4(src: &[u8], i: usize) -> usize {
    // 4-byte Fibonacci hash into the table's index space.
    let v = u32::from_le_bytes([src[i], src[i + 1], src[i + 2], src[i + 3]]);
    (v.wrapping_mul(0x9E37_79B1) >> 18) as usize
}

const HASH_BITS: usize = 14;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Compress `src`. The output is self-delimiting only together with the
/// raw length, which callers must store alongside (the block header
/// does). Returns a stream that [`decompress`] inverts exactly.
pub fn compress(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 2 + 16);
    if src.is_empty() {
        put_varint(&mut out, 0); // one empty literal group
        return out;
    }
    // head[h] = most recent position with hash h; prev[i] = previous
    // position in i's chain. usize::MAX = empty.
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; src.len()];
    let mut lit_start = 0usize;
    let mut i = 0usize;
    while i < src.len() {
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + MIN_MATCH <= src.len() {
            let h = hash4(src, i) & (HASH_SIZE - 1);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != usize::MAX && chain < MAX_CHAIN {
                // candidate must genuinely precede us
                debug_assert!(cand < i);
                let limit = (src.len() - i).min(MAX_MATCH);
                let mut l = 0;
                while l < limit && src[cand + l] == src[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_off = i - cand;
                    if l >= limit {
                        break;
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
            prev[i] = head[h];
            head[h] = i;
        }
        if best_len >= MIN_MATCH {
            // flush pending literals, then the match
            put_varint(&mut out, (i - lit_start) as u64);
            out.extend_from_slice(&src[lit_start..i]);
            put_varint(&mut out, best_len as u64);
            put_varint(&mut out, best_off as u64);
            // index the matched region (sparsely: every position keeps
            // chains exact; the cost is linear and small)
            let end = i + best_len;
            i += 1;
            while i < end && i + MIN_MATCH <= src.len() {
                let h = hash4(src, i) & (HASH_SIZE - 1);
                prev[i] = head[h];
                head[h] = i;
                i += 1;
            }
            i = end;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    // final literal group (possibly empty), no trailing match
    put_varint(&mut out, (src.len() - lit_start) as u64);
    out.extend_from_slice(&src[lit_start..]);
    out
}

/// Decompress a [`compress`] stream into exactly `raw_len` bytes.
/// `None` on any corruption: truncated varints, bad offsets, or a stream
/// that produces the wrong number of bytes.
pub fn decompress(src: &[u8], raw_len: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(raw_len);
    let mut pos = 0usize;
    loop {
        let lit_len = get_varint(src, &mut pos)? as usize;
        if lit_len > src.len().saturating_sub(pos) || out.len() + lit_len > raw_len {
            return None;
        }
        out.extend_from_slice(&src[pos..pos + lit_len]);
        pos += lit_len;
        if out.len() == raw_len && pos == src.len() {
            return Some(out);
        }
        if pos == src.len() {
            // stream ended before producing raw_len bytes
            return None;
        }
        let match_len = get_varint(src, &mut pos)? as usize;
        let offset = get_varint(src, &mut pos)? as usize;
        if match_len < MIN_MATCH
            || match_len > MAX_MATCH
            || offset == 0
            || offset > out.len()
            || out.len() + match_len > raw_len
        {
            return None;
        }
        // byte-at-a-time copy: overlapping matches (offset < len) are
        // the run-length case and must self-reference the fresh output
        let start = out.len() - offset;
        for k in 0..match_len {
            let b = out[start + k];
            out.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c, data.len()).expect("decompress");
        assert_eq!(d, data);
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn roundtrip_runs_compress_hard() {
        let data = vec![7u8; 10_000];
        let c = compress(&data);
        assert!(
            c.len() < 64,
            "run of 10k bytes must collapse, got {}",
            c.len()
        );
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn roundtrip_periodic_pattern() {
        let mut data = Vec::new();
        for i in 0..5_000u32 {
            data.extend_from_slice(&[(i % 7) as u8, 3, 1, (i % 5) as u8]);
        }
        let c = compress(&data);
        assert!(c.len() < data.len() / 4, "{} vs {}", c.len(), data.len());
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn roundtrip_incompressible() {
        // A SplitMix-ish stream: no long matches; output may exceed input
        // only by the group headers.
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut data = Vec::new();
        for _ in 0..4_096 {
            x ^= x >> 27;
            x = x.wrapping_mul(0x2545F4914F6CDD1D);
            data.push((x >> 32) as u8);
        }
        let c = compress(&data);
        assert!(c.len() <= data.len() + 16);
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn decompress_rejects_wrong_raw_len() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let c = compress(data);
        assert!(decompress(&c, data.len() + 1).is_none());
        assert!(decompress(&c, data.len() - 1).is_none());
    }

    #[test]
    fn decompress_rejects_truncation() {
        let data = vec![9u8; 300];
        let c = compress(&data);
        for cut in 1..c.len() {
            assert!(
                decompress(&c[..cut], data.len()).is_none(),
                "accepted a {cut}-byte prefix of a {}-byte stream",
                c.len()
            );
        }
    }

    #[test]
    fn decompress_rejects_bad_offset() {
        // group: 1 literal, then a match reaching before the start
        let mut bad = Vec::new();
        put_varint(&mut bad, 1);
        bad.push(b'x');
        put_varint(&mut bad, 4); // match_len
        put_varint(&mut bad, 9); // offset > produced
        assert!(decompress(&bad, 5).is_none());
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn crc32_catches_single_bit_flip() {
        let data = vec![0x5Au8; 1024];
        let base = crc32(&data);
        let mut mutated = data.clone();
        mutated[517] ^= 0x10;
        assert_ne!(crc32(&mutated), base);
    }

    #[test]
    fn compression_is_deterministic() {
        let mut data = Vec::new();
        for i in 0..2_000u32 {
            data.push((i % 11) as u8);
        }
        assert_eq!(compress(&data), compress(&data));
    }

    /// The byte-at-a-time loop slicing-by-8 replaced: the reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let t = crc32_tables();
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_alignment() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4_200)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..9 {
            for len in (0..70).chain([511, 512, 513, 4_000]) {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let start = (x % 4_096) as usize;
            let len = (x >> 32) as usize % (data.len() - start);
            let slice = &data[start..start + len];
            assert_eq!(
                crc32(slice),
                crc32_bytewise(slice),
                "start {start} len {len}"
            );
        }
    }
}
