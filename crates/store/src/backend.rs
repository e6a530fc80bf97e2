//! The on-disk backend: one append-only log, and the index `open`
//! rebuilds from it.
//!
//! ```text
//! <root>/LOCK         empty; held by the one open Store (File::try_lock)
//! <root>/log/<n>.seg  segments, numbered up; puts append to the highest
//!
//! frame  tag:u8 len:u32-LE payload[len]
//! 'B'    a block record (DJSB v2, below), indexed by its digest echo
//! 'E'    an entry record: one catalog manifest's canonical JSON
//! 'C'    a commit: entry id[16] puts:u64-LE put_len:u32-LE crc:u32-LE
//! ```
//!
//! A put is one append: its new block records, an entry record when the
//! entry's bytes change, and a commit, whose CRC-32 covers the `put_len`
//! bytes since the previous commit and its own fields before the CRC.
//! `puts` is the entry's count after the put — absolute, so a commit that
//! a pass copies and `open` meets twice (a crash between copy and unlink)
//! counts once. Only committed records enter the index. At `open`, bytes
//! after the highest segment's last commit that are a prefix of a put —
//! all a write cut short leaves — are a torn tail and are truncated;
//! anything else that does not scan is `Corrupt`. A maintenance pass
//! rewrites the live log into the next segment and unlinks the rest, so
//! more than one segment stands only after a pass cut short. A [`Handle`]
//! reads with `read_at` on the segment's open file, which a pass that
//! unlinks the segment leaves readable.
//!
//! ## Block record format (`DJSB` v2)
//!
//! ```text
//! "DJSB" ver=2 method_byte(0=stored 3=rans)
//! varint(raw_len) varint(comp_len) varint(crc32 of raw)
//! digest[16]                                (echo of the index key)
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
//! the echo** — so even a digest collision or a misplaced record surfaces
//! as a typed [`StoreError::Corrupt`], never as silently wrong replay data.

use crate::error::StoreError;
use codec::{crc32, digest128, get_varint, put_varint, Digest128};
use dejavu::{BlockMethod, Packed};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::Arc;

const RECORD_MAGIC: &[u8; 4] = b"DJSB";
const RECORD_VERSION: u8 = 2;
/// Decoder allocation cap, mirroring the DJVB block payload bound.
const MAX_RAW_LEN: u64 = 1 << 26;

pub(crate) const BLOCK: u8 = b'B';
pub(crate) const ENTRY: u8 = b'E';
const COMMIT: u8 = b'C';
/// A frame's tag and payload length.
const HEAD: u64 = 5;
/// A commit's payload: entry id, put count, put length, CRC.
const COMMIT_LEN: usize = 32;
/// What one commit frame takes; `disk_stats` counts one per put.
pub(crate) const COMMIT_BYTES: u64 = HEAD + COMMIT_LEN as u64;

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

/// A block record's digest echo and method byte, read from its header
/// alone; `decode_record` validates the rest on every read.
fn record_key(buf: &[u8]) -> Option<(Digest128, u8)> {
    if buf.get(..4)? != RECORD_MAGIC {
        return None;
    }
    let mut pos = 6;
    for _ in 0..3 {
        get_varint(buf, &mut pos)?;
    }
    let echo = buf.get(pos..pos + 16)?.try_into().ok()?;
    Some((Digest128(echo), buf[5]))
}

/// Where a record's payload sits in the log.
#[derive(Clone, Copy)]
pub(crate) struct Loc {
    pub seg: u64,
    pub off: u64,
    pub len: u32,
}

impl Loc {
    /// The bytes its frame takes.
    pub fn frame(&self) -> u64 {
        HEAD + self.len as u64
    }
}

/// An indexed block record and its method byte.
pub(crate) struct BlockAt {
    pub at: Loc,
    pub method: u8,
}

/// An indexed entry: its latest record and its put count.
pub(crate) struct EntryAt {
    pub at: Loc,
    pub puts: u64,
}

/// One segment file and what it holds up to its last commit.
pub(crate) struct Segment {
    file: Arc<File>,
    pub len: u64,
    pub blocks: u64,
    pub commits: u64,
}

/// One record's bytes, readable without the log's lock.
pub(crate) struct Handle(Arc<File>, Loc);

impl Handle {
    pub fn read(&self) -> Result<Vec<u8>, StoreError> {
        let mut buf = vec![0; self.1.len as usize];
        self.0
            .read_exact_at(&mut buf, self.1.off)
            .map_err(|e| StoreError::Io(format!("segment {}: {e}", self.1.seg)))?;
        Ok(buf)
    }
}

/// A put's frames, sealed by its commit into the bytes of one append.
#[derive(Default)]
pub(crate) struct Frames(Vec<u8>);

impl Frames {
    pub fn push(&mut self, tag: u8, payload: &[u8]) -> Result<(), StoreError> {
        let len = u32::try_from(payload.len())
            .map_err(|_| StoreError::Corrupt("a record past 4 GiB".into()))?;
        self.0.push(tag);
        self.0.extend_from_slice(&len.to_le_bytes());
        self.0.extend_from_slice(payload);
        Ok(())
    }

    /// Commit the frames as put number `puts` of `id`.
    pub fn seal(mut self, id: Digest128, puts: u64) -> Result<Vec<u8>, StoreError> {
        let put_len = u32::try_from(self.0.len())
            .map_err(|_| StoreError::Corrupt("a put past 4 GiB".into()))?;
        let fields = [&id.0[..], &puts.to_le_bytes(), &put_len.to_le_bytes()].concat();
        self.push(COMMIT, &[&fields[..], &[0; 4]].concat())?;
        let crc_at = self.0.len() - 4;
        let crc = crc32(&self.0[..crc_at]);
        self.0[crc_at..].copy_from_slice(&crc.to_le_bytes());
        Ok(self.0)
    }
}

/// The log under one root, and its index: every committed block record
/// by digest, and every entry by id.
#[derive(Default)]
pub(crate) struct Log {
    dir: PathBuf,
    pub segments: BTreeMap<u64, Segment>,
    pub blocks: BTreeMap<Digest128, BlockAt>,
    pub entries: BTreeMap<Digest128, EntryAt>,
}

impl Log {
    /// Scan every segment under `dir` into the index, truncating a torn
    /// tail off the highest.
    pub fn open(dir: PathBuf) -> Result<Log, StoreError> {
        fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;
        let mut numbers = Vec::new();
        for f in fs::read_dir(&dir).map_err(|e| StoreError::io(&dir, e))? {
            let name = f.map_err(|e| StoreError::io(&dir, e))?.file_name();
            let stem = name.to_str().and_then(|s| s.strip_suffix(".seg"));
            numbers.extend(stem.and_then(|s| s.parse::<u64>().ok()));
        }
        numbers.sort_unstable();
        let mut log = Log {
            dir,
            ..Log::default()
        };
        for (i, &n) in numbers.iter().enumerate() {
            let path = log.path(n);
            let bytes = fs::read(&path).map_err(|e| StoreError::io(&path, e))?;
            log.open_segment(n, false)?;
            let end = log.scan(n, &bytes)?;
            if end < bytes.len() {
                if i + 1 < numbers.len() {
                    let torn = bytes.len() - end;
                    return Err(StoreError::Corrupt(format!(
                        "segment {n}: {torn} bytes after its last commit"
                    )));
                }
                let file = &log.segments[&n].file;
                file.set_len(end as u64).map_err(|e| StoreError::io(&path, e))?;
            }
        }
        Ok(log)
    }

    fn path(&self, n: u64) -> PathBuf {
        self.dir.join(format!("{n:010}.seg"))
    }

    /// Open segment `n`, or start it empty.
    fn open_segment(&mut self, n: u64, create: bool) -> Result<(), StoreError> {
        let path = self.path(n);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(create)
            .open(&path)
            .map_err(|e| StoreError::io(&path, e))?;
        let segment = Segment {
            file: Arc::new(file),
            len: 0,
            blocks: 0,
            commits: 0,
        };
        self.segments.insert(n, segment);
        Ok(())
    }

    /// Unlink segment `n`; a [`Handle`] into it stays readable.
    pub fn remove(&mut self, n: u64) -> Result<(), StoreError> {
        self.segments.remove(&n);
        let path = self.path(n);
        fs::remove_file(&path).map_err(|e| StoreError::io(&path, e))
    }

    pub fn handle(&self, at: Loc) -> Handle {
        Handle(Arc::clone(&self.segments[&at.seg].file), at)
    }

    /// Append a sealed put to the highest segment.
    pub fn put(&mut self, put: &[u8]) -> Result<(), StoreError> {
        let n = self.segments.last_key_value().map_or(1, |(&n, _)| n);
        self.append(n, put)
    }

    /// Write sealed `puts` at the end of segment `n`, started if new, in
    /// one write, then index them. A failed write is cut back off, so the
    /// segment still ends at its last commit.
    pub fn append(&mut self, n: u64, puts: &[u8]) -> Result<(), StoreError> {
        if !self.segments.contains_key(&n) {
            self.open_segment(n, true)?;
        }
        let seg = &self.segments[&n];
        if let Err(e) = seg.file.write_all_at(puts, seg.len) {
            let _ = seg.file.set_len(seg.len);
            return Err(StoreError::io(&self.path(n), e));
        }
        self.scan(n, puts).map(|_| ())
    }

    /// Index the committed puts of `bytes`, which begin at segment `n`'s
    /// end. Returns how many bytes they take; the rest is a torn tail.
    fn scan(&mut self, n: u64, bytes: &[u8]) -> Result<usize, StoreError> {
        let base = self.segments[&n].len;
        let corrupt = |pos: usize, what: &str| {
            StoreError::Corrupt(format!("segment {n} at byte {}: {what}", base + pos as u64))
        };
        let word = |b: &[u8], i: usize| u32::from_le_bytes(b[i..i + 4].try_into().unwrap());
        let (mut pos, mut start) = (0, 0);
        let (mut blocks, mut entry) = (Vec::new(), None);
        while let Some(head) = bytes.get(pos..pos + HEAD as usize) {
            let len = word(head, 1);
            let end = pos + HEAD as usize + len as usize;
            let Some(payload) = bytes.get(pos + HEAD as usize..end) else {
                break;
            };
            let at = Loc {
                seg: n,
                off: base + pos as u64 + HEAD,
                len,
            };
            match head[0] {
                BLOCK => match record_key(payload) {
                    Some(key) => blocks.push((key, at)),
                    None => return Err(corrupt(pos, "unreadable block record")),
                },
                ENTRY if entry.is_none() => entry = Some(at),
                COMMIT if payload.len() == COMMIT_LEN => {
                    let id = Digest128(payload[..16].try_into().unwrap());
                    let puts = u64::from_le_bytes(payload[16..24].try_into().unwrap());
                    let sealed = pos + HEAD as usize + 28;
                    if word(payload, 24) as usize != pos - start
                        || word(payload, 28) != crc32(&bytes[start..sealed])
                    {
                        return Err(corrupt(pos, "commit does not match its put"));
                    }
                    let record = match (entry.take(), self.entries.get(&id)) {
                        (Some(record), _) => record,
                        (None, Some(known)) => known.at,
                        (None, None) => return Err(corrupt(pos, "commit names no entry")),
                    };
                    self.entries.insert(id, EntryAt { at: record, puts });
                    let seg = self.segments.get_mut(&n).expect("scanned segments are open");
                    seg.blocks += blocks.len() as u64;
                    seg.commits += 1;
                    for ((digest, method), at) in blocks.drain(..) {
                        self.blocks.insert(digest, BlockAt { at, method });
                    }
                    start = end;
                }
                _ => return Err(corrupt(pos, "unexpected frame")),
            }
            pos = end;
        }
        let seg = self.segments.get_mut(&n).expect("scanned segments are open");
        seg.len += start as u64;
        Ok(start)
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
