//! The one maintenance pass, which `gc` and `compact` both run. The log
//! holds dead bytes once the index points past some of its records: an
//! entry record a later put superseded, a re-packed block record, a copy
//! left by a pass cut short. When it does — or when a record stored raw
//! is one [`Packed::pack`] now compresses — the pass re-puts every entry,
//! in id order, into one new segment: the blocks it names that no earlier
//! entry of the pass brought (re-packed where the coder now wins), its
//! entry record and a commit of its put count, one append an entry. Then
//! it unlinks every older segment, highest first. The new segment holds
//! the whole live log, so what a pass cut short leaves — a prefix of the
//! old log, then committed copies — scans in order to the same index,
//! and the next pass copies it again. A superseded commit alone is not
//! worth a copy, so a pass that finds nothing to do writes nothing. A put
//! commits its blocks with its entry, so no pass can take blocks a put is
//! about to name; re-packing keeps the raw bytes, all replay reads.

use crate::backend::{decode_record, encode_record, Frames, Log, BLOCK, COMMIT_BYTES, ENTRY};
use crate::catalog::CatalogEntry;
use crate::error::StoreError;
use codec::Json;
use dejavu::{BlockMethod, Packed};
use std::collections::{BTreeMap, BTreeSet};

/// What one pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Block records the store holds after the pass.
    pub live_blocks: u64,
    /// Block records the copied segments held that nothing reads any more.
    pub removed_blocks: u64,
    /// Records stored raw that the pass re-packed onto the coder.
    pub migrated: u64,
    /// Segments copied and unlinked.
    pub segments: u64,
    pub bytes_before: u64,
    pub bytes_after: u64,
}

/// `gc` runs the same pass as `compact`.
pub type GcReport = CompactReport;

impl CompactReport {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bytes_after", Json::UInt(self.bytes_after)),
            ("bytes_before", Json::UInt(self.bytes_before)),
            ("live_blocks", Json::UInt(self.live_blocks)),
            ("migrated", Json::UInt(self.migrated)),
            ("removed_blocks", Json::UInt(self.removed_blocks)),
            ("segments", Json::UInt(self.segments)),
        ])
    }
}

pub(crate) fn pass(log: &mut Log) -> Result<CompactReport, StoreError> {
    let bytes = |log: &Log| log.segments.values().map(|s| s.len).sum::<u64>();
    let mut report = CompactReport {
        live_blocks: log.blocks.len() as u64,
        bytes_before: bytes(log),
        bytes_after: bytes(log),
        ..CompactReport::default()
    };
    // Live bytes: the records the index points into, and every commit.
    let records = log.blocks.values().map(|b| b.at.frame()).sum::<u64>()
        + log.entries.values().map(|e| e.at.frame()).sum::<u64>();
    let commits: u64 = log.segments.values().map(|s| s.commits).sum();
    let mut repacked = BTreeMap::new();
    for (&digest, b) in &log.blocks {
        if b.method == BlockMethod::Stored.code() {
            let (_, raw) = decode_record(digest, &log.handle(b.at).read()?)?;
            let packed = Packed::pack(&raw);
            if packed.method != BlockMethod::Stored {
                repacked.insert(digest, encode_record(digest, &packed));
            }
        }
    }
    if records + commits * COMMIT_BYTES == report.bytes_before && repacked.is_empty() {
        return Ok(report);
    }

    let old: Vec<u64> = log.segments.keys().copied().collect();
    let n = old.last().map_or(1, |last| last + 1);
    let entries: Vec<_> = log.entries.iter().map(|(&id, e)| (id, e.at, e.puts)).collect();
    let mut copied = BTreeSet::new();
    for (id, at, puts) in entries {
        let record = log.handle(at).read()?;
        let mut put = Frames::default();
        for b in CatalogEntry::parse(&id.hex(), &record)?.blocks {
            let Some(block) = log.blocks.get(&b.digest) else {
                continue;
            };
            if copied.insert(b.digest) {
                match repacked.get(&b.digest) {
                    Some(packed) => put.push(BLOCK, packed)?,
                    None => put.push(BLOCK, &log.handle(block.at).read()?)?,
                }
            }
        }
        put.push(ENTRY, &record)?;
        log.append(n, &put.seal(id, puts)?)?;
    }
    // A block no entry names is read by nothing: it goes with its segment.
    let held: u64 = old.iter().map(|s| log.segments[s].blocks).sum();
    log.blocks.retain(|digest, _| copied.contains(digest));
    for &s in old.iter().rev() {
        log.remove(s)?;
    }
    report.live_blocks = copied.len() as u64;
    report.removed_blocks = held - report.live_blocks;
    report.migrated = repacked.keys().filter(|d| copied.contains(*d)).count() as u64;
    report.segments = old.len() as u64;
    report.bytes_after = bytes(log);
    Ok(report)
}
