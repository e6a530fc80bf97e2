//! The on-disk backend: block record files and catalog files, both
//! written atomically (unique temp file + rename) so readers — including
//! concurrent fleet sessions and a compactor mid-pass — only ever observe
//! a complete old or complete new file.
//!
//! ## Store layout
//!
//! ```text
//! <root>/blocks/<2-hex-prefix>/<32-hex-digest>.blk   block records
//! <root>/catalog/<32-hex-entry-id>.json              run manifests
//! <root>/catalog/<32-hex-entry-id>.puts              put logs, one byte a put
//! ```
//!
//! A put log is the one file not written by rename: it is only ever
//! appended to, one byte per put, so its length is the entry's put count.
//! An entry without a log counts the `puts` key of a manifest written
//! before logs existed, or 0.
//!
//! ## Block record format (`DJSB` v2)
//!
//! ```text
//! "DJSB" ver=2 method_byte(0=stored 3=rans)
//! varint(raw_len) varint(comp_len) varint(crc32 of raw)
//! digest[16]                                (echo of the filename key)
//! payload[comp_len]                         (raw, or the coder's stream)
//! ```
//!
//! Version 1 records (LZ77 and range-coder payloads) are refused with a
//! typed error naming their version; there is no second decoder.
//!
//! A record is a header around a [`dejavu::Packed`] — the value a DJVB
//! block frame wraps — written from it and read back into it, stream
//! verbatim. It is self-validating: decode unpacks the payload
//! (decompress, length, CRC) **and recomputes the content digest against
//! the echo** — so even a digest collision or a renamed file surfaces as
//! a typed [`StoreError::Corrupt`], never as silently wrong replay data.

use crate::error::StoreError;
use codec::{digest128, get_varint, put_varint, Digest128};
use dejavu::{BlockMethod, Packed};
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const RECORD_MAGIC: &[u8; 4] = b"DJSB";
const RECORD_VERSION: u8 = 2;
/// Decoder allocation cap, mirroring the DJVB block payload bound.
const MAX_RAW_LEN: u64 = 1 << 26;

/// Process-wide uniquifier for temp-file names (pid alone is not enough
/// with many store threads in one process).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Encode one block record around `packed`, stream verbatim.
pub fn encode_record(digest: Digest128, packed: &Packed) -> Vec<u8> {
    let mut out = Vec::with_capacity(packed.stream.len() + 40);
    out.extend_from_slice(RECORD_MAGIC);
    out.push(RECORD_VERSION);
    out.push(packed.method.code());
    put_varint(&mut out, packed.raw_len as u64);
    put_varint(&mut out, packed.stream.len() as u64);
    put_varint(&mut out, packed.crc as u64);
    out.extend_from_slice(&digest.0);
    out.extend_from_slice(&packed.stream);
    out
}

/// A record's method, from its first six bytes.
fn record_method(expect: Digest128, head: &[u8]) -> Result<BlockMethod, StoreError> {
    let corrupt = |what: String| StoreError::Corrupt(format!("block {expect}: {what}"));
    if head.len() < 6 || &head[..4] != RECORD_MAGIC {
        return Err(corrupt("bad record magic".into()));
    }
    if head[4] != RECORD_VERSION {
        return Err(corrupt(format!("unsupported record version {}", head[4])));
    }
    BlockMethod::from_code(head[5]).ok_or_else(|| corrupt("unknown record method".into()))
}

/// Decode and fully validate one block record: framing, method, CRC, and
/// the content digest against `expect`. Returns the payload as the
/// record holds it and the raw bytes it unpacks to.
pub fn decode_record(expect: Digest128, buf: &[u8]) -> Result<(Packed, Vec<u8>), StoreError> {
    let corrupt = |what: &str| StoreError::Corrupt(format!("block {expect}: {what}"));
    let method = record_method(expect, buf)?;
    let mut pos = 6usize;
    let raw_len = get_varint(buf, &mut pos).ok_or_else(|| corrupt("short record header"))?;
    let comp_len = get_varint(buf, &mut pos).ok_or_else(|| corrupt("short record header"))?;
    let crc = get_varint(buf, &mut pos).ok_or_else(|| corrupt("short record header"))?;
    // A stream decodes to at most `codec::max_raw_len` of its length:
    // a larger claim is refused before anything is allocated for it.
    let undecodable = method != BlockMethod::Stored
        && raw_len > codec::max_raw_len(comp_len.try_into().unwrap_or(usize::MAX)) as u64;
    if raw_len > MAX_RAW_LEN || crc > u32::MAX as u64 || undecodable {
        return Err(corrupt("implausible record header"));
    }
    if method == BlockMethod::Stored && comp_len != raw_len {
        return Err(corrupt("stored record with mismatched lengths"));
    }
    if comp_len > raw_len.max(1) {
        return Err(corrupt("compressed payload larger than raw"));
    }
    let echo_end = pos
        .checked_add(16)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| corrupt("short digest echo"))?;
    let echo = Digest128(buf[pos..echo_end].try_into().unwrap());
    if echo != expect {
        return Err(corrupt("digest echo names a different block"));
    }
    pos = echo_end;
    let end = pos
        .checked_add(comp_len as usize)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| corrupt("truncated payload"))?;
    if end != buf.len() {
        return Err(corrupt("trailing bytes after payload"));
    }
    let packed = Packed {
        method,
        stream: buf[pos..end].to_vec(),
        raw_len: raw_len as u32,
        crc: crc as u32,
    };
    let raw = packed
        .unpack()
        .ok_or_else(|| corrupt("payload does not unpack to its length and CRC"))?;
    if digest128(&raw) != expect {
        return Err(corrupt("content does not match its digest"));
    }
    Ok((packed, raw))
}

fn not_found_or_io(path: &Path, digest: Digest128, e: std::io::Error) -> StoreError {
    if e.kind() == std::io::ErrorKind::NotFound {
        StoreError::NotFound(format!("block {digest}"))
    } else {
        StoreError::io(path, e)
    }
}

/// Filesystem operations under one store root.
#[derive(Debug)]
pub struct Backend {
    root: PathBuf,
}

impl Backend {
    /// Open (creating directories as needed).
    pub fn open(root: &Path) -> Result<Backend, StoreError> {
        for sub in ["blocks", "catalog"] {
            let dir = root.join(sub);
            fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;
        }
        Ok(Backend {
            root: root.to_path_buf(),
        })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    pub fn block_path(&self, digest: Digest128) -> PathBuf {
        let hex = digest.hex();
        self.root.join("blocks").join(&hex[..2]).join(format!("{hex}.blk"))
    }

    pub fn catalog_path(&self, id: &str) -> PathBuf {
        self.root.join("catalog").join(format!("{id}.json"))
    }

    /// An entry's put log.
    pub fn puts_path(&self, id: &str) -> PathBuf {
        self.root.join("catalog").join(format!("{id}.puts"))
    }

    /// Count `n` puts of an entry: append `n` bytes to its log in one
    /// write.
    pub fn append_puts(&self, id: &str, n: u64) -> Result<(), StoreError> {
        let path = self.puts_path(id);
        fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(&vec![b'+'; n as usize]))
            .map_err(|e| StoreError::io(&path, e))
    }

    /// An entry's put count: the length of its log, `None` if it has none.
    pub fn puts(&self, id: &str) -> Result<Option<u64>, StoreError> {
        let path = self.puts_path(id);
        match fs::metadata(&path) {
            Ok(m) => Ok(Some(m.len())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError::io(&path, e)),
        }
    }

    /// Atomic write: unique temp file in the target's directory, then
    /// rename over the destination. Concurrent writers of the same path
    /// race benignly — for content-addressed paths both bodies are
    /// byte-identical, and rename is atomic either way. The directory must
    /// exist: a write under a root that has been removed is a typed I/O
    /// error, never the root coming back.
    pub fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let dir = path
            .parent()
            .ok_or_else(|| StoreError::Corrupt(format!("{}: no parent dir", path.display())))?;
        let tmp = dir.join(format!(
            "tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, bytes).map_err(|e| StoreError::io(&tmp, e))?;
        fs::rename(&tmp, path).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            StoreError::io(path, e)
        })
    }

    /// Write one block record if absent. Returns `(bytes_written,
    /// was_new)` — `bytes_written == 0` on a dedup hit, which keeps the
    /// record (and so the stream) the store already has.
    pub fn write_block(&self, digest: Digest128, packed: &Packed) -> Result<(u64, bool), StoreError> {
        let path = self.block_path(digest);
        if path.exists() {
            return Ok((0, false));
        }
        let bytes = encode_record(digest, packed);
        // The one directory not made at `open`: the block's shard.
        if let Some(shard) = path.parent() {
            fs::create_dir(shard)
                .or_else(|e| if shard.is_dir() { Ok(()) } else { Err(e) })
                .map_err(|e| StoreError::io(shard, e))?;
        }
        self.write_atomic(&path, &bytes)?;
        Ok((bytes.len() as u64, true))
    }

    /// Read + fully validate one block record.
    pub fn read_block(&self, digest: Digest128) -> Result<(Packed, Vec<u8>), StoreError> {
        let path = self.block_path(digest);
        let buf = fs::read(&path).map_err(|e| not_found_or_io(&path, digest, e))?;
        decode_record(digest, &buf)
    }

    /// One block record's method, read from its header alone.
    pub fn read_method(&self, digest: Digest128) -> Result<BlockMethod, StoreError> {
        let path = self.block_path(digest);
        let mut head = Vec::with_capacity(6);
        fs::File::open(&path)
            .and_then(|f| f.take(6).read_to_end(&mut head))
            .map_err(|e| not_found_or_io(&path, digest, e))?;
        record_method(digest, &head)
    }

    /// Every block digest on disk with its record-file size, sorted by
    /// digest (deterministic iteration order for compaction and stats).
    pub fn list_blocks(&self) -> Result<Vec<(Digest128, u64)>, StoreError> {
        let mut out = Vec::new();
        let blocks = self.root.join("blocks");
        let shards = fs::read_dir(&blocks).map_err(|e| StoreError::io(&blocks, e))?;
        for shard in shards {
            let shard = shard.map_err(|e| StoreError::io(&blocks, e))?.path();
            if !shard.is_dir() {
                continue;
            }
            let entries = fs::read_dir(&shard).map_err(|e| StoreError::io(&shard, e))?;
            for entry in entries {
                let entry = entry.map_err(|e| StoreError::io(&shard, e))?;
                let name = entry.file_name().to_string_lossy().into_owned();
                let Some(stem) = name.strip_suffix(".blk") else {
                    continue;
                };
                let Some(digest) = Digest128::parse(stem) else {
                    continue;
                };
                let len = entry
                    .metadata()
                    .map_err(|e| StoreError::io(&entry.path(), e))?
                    .len();
                out.push((digest, len));
            }
        }
        out.sort_by_key(|&(d, _)| d);
        Ok(out)
    }

    /// Every catalog entry id on disk with its file size, sorted.
    pub fn list_catalog(&self) -> Result<Vec<(String, u64)>, StoreError> {
        let dir = self.root.join("catalog");
        let mut out = Vec::new();
        let entries = fs::read_dir(&dir).map_err(|e| StoreError::io(&dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io(&dir, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(stem) = name.strip_suffix(".json") else {
                continue;
            };
            if Digest128::parse(stem).is_none() {
                continue;
            }
            let len = entry
                .metadata()
                .map_err(|e| StoreError::io(&entry.path(), e))?
                .len();
            out.push((stem.to_owned(), len));
        }
        out.sort();
        Ok(out)
    }

    /// Delete leftover `tmp-*` files from interrupted writes. Returns
    /// how many were removed.
    pub fn sweep_tmp(&self) -> Result<u64, StoreError> {
        let mut removed = 0;
        let mut dirs: Vec<PathBuf> = vec![self.root.join("catalog")];
        let blocks = self.root.join("blocks");
        let shards = fs::read_dir(&blocks).map_err(|e| StoreError::io(&blocks, e))?;
        for shard in shards {
            let p = shard.map_err(|e| StoreError::io(&blocks, e))?.path();
            if p.is_dir() {
                dirs.push(p);
            }
        }
        for dir in dirs {
            let entries = fs::read_dir(&dir).map_err(|e| StoreError::io(&dir, e))?;
            for entry in entries {
                let entry = entry.map_err(|e| StoreError::io(&dir, e))?;
                if entry
                    .file_name()
                    .to_string_lossy()
                    .starts_with("tmp-")
                {
                    fs::remove_file(entry.path())
                        .map_err(|e| StoreError::io(&entry.path(), e))?;
                    removed += 1;
                }
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A payload the coder packs: one bit or so per byte.
    fn compressible() -> Vec<u8> {
        (0..120u32).map(|i| (i % 3 == 0) as u8).collect()
    }

    fn stored(raw: &[u8]) -> Packed {
        Packed {
            method: BlockMethod::Stored,
            stream: raw.to_vec(),
            raw_len: raw.len() as u32,
            crc: codec::crc32(raw),
        }
    }

    #[test]
    fn record_roundtrip_both_methods() {
        // Each method survives a round trip and comes back with the
        // stream it was handed and the raw bytes.
        let raw = compressible();
        let digest = digest128(&raw);
        let packed = Packed::pack(&raw);
        assert_eq!(packed.method, BlockMethod::Rans);
        for packed in [packed, stored(&raw)] {
            let bytes = encode_record(digest, &packed);
            assert_eq!(decode_record(digest, &bytes).unwrap(), (packed, raw.clone()));
        }
    }

    #[test]
    fn record_incompressible_degrades_to_stored() {
        // A short high-entropy payload the coder cannot shrink.
        let raw: Vec<u8> = (0..64u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let digest = digest128(&raw);
        let packed = Packed::pack(&raw);
        assert_eq!(packed.method, BlockMethod::Stored);
        let bytes = encode_record(digest, &packed);
        assert_eq!(decode_record(digest, &bytes).unwrap(), (packed, raw));
    }

    #[test]
    fn record_rejects_wrong_digest_and_damage() {
        let raw = b"payload payload payload payload".to_vec();
        let digest = digest128(&raw);
        let bytes = encode_record(digest, &stored(&raw));
        // Wrong expected digest: echo check fires.
        let other = digest128(b"other");
        assert!(matches!(
            decode_record(other, &bytes),
            Err(StoreError::Corrupt(_))
        ));
        // Any single-byte truncation is a typed error.
        for cut in 1..bytes.len() {
            assert!(
                decode_record(digest, &bytes[..bytes.len() - cut]).is_err(),
                "accepted a {cut}-byte truncation"
            );
        }
        // Flip the last payload byte: CRC or digest check fires.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(decode_record(digest, &bad).is_err());
    }

    /// A coded record claiming more raw bytes than its stream can decode
    /// to is refused from its header, before the payload is decoded.
    #[test]
    fn record_refuses_a_raw_len_its_stream_cannot_produce() {
        let raw = compressible();
        let digest = digest128(&raw);
        let packed = Packed::pack(&raw);
        let claim = codec::max_raw_len(packed.stream.len()) as u32 + 1;
        let bytes = encode_record(
            digest,
            &Packed {
                raw_len: claim,
                ..packed
            },
        );
        let err = decode_record(digest, &bytes).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("corrupt store: block {digest}: implausible record header")
        );
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// `DJSB` v2 is frozen: one record per method, byte for byte as this
    /// format writes it, decodes to the same raw bytes and re-encodes to
    /// itself.
    #[test]
    fn version_2_records_are_frozen() {
        let raw = compressible();
        let digest = digest128(&raw);
        // magic, version 2, method, raw_len 120, comp_len, crc, digest echo
        let head = |method: &str, comp_len: &str| {
            format!("444a534202{method}78{comp_len}f98ffbb00b52b68602197ab9b93c30f5688a02534e")
        };
        let stored: String = raw.iter().map(|b| format!("{b:02x}")).collect();
        for (method, record) in [
            (BlockMethod::Stored, head("00", "78") + &stored),
            (
                BlockMethod::Rans,
                head("03", "1d") + "d8807fc015eb10ed1e97804400eb10ed1e97804400667bc85c667bc85c",
            ),
        ] {
            let record = unhex(&record);
            let (packed, got) = decode_record(digest, &record).unwrap();
            assert_eq!((packed.method, &got), (method, &raw));
            assert_eq!(encode_record(digest, &packed), record, "{method:?}");
        }
        assert_eq!(Packed::pack(&raw).method, BlockMethod::Rans);
    }

    /// Version 1 records — here one per v1 method, as the build before
    /// this format wrote them — are refused with their version named.
    #[test]
    fn version_1_records_are_refused() {
        let raw = b"abcabcabcabcabcabcabcabcabcabcabcabc".to_vec();
        let digest = digest128(&raw);
        let header = "eaad84880fa5b613559dfc3b4f7c253f51d970c5d2"; // crc, digest echo
        for (tier, lens, stream) in [
            (0, "2424", "616263".repeat(12)),
            (1, "2407", "03616263210300".into()),
            (2, "2411", "0061625b6169c3be18c22267b4ae4c58c1".into()),
        ] {
            let record = unhex(&format!("444a534201{tier:02x}{lens}{header}{stream}"));
            let err = decode_record(digest, &record).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("corrupt store: block {digest}: unsupported record version 1")
            );
        }
    }
}
