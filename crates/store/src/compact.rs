//! Garbage collection and background compaction.
//!
//! **GC** removes block records no catalog entry references (plus
//! leftover temp files from interrupted writes) and prunes dead heat
//! counters. **Compaction** migrates blocks between storage tiers by
//! access heat: cold blocks (fewer than `cold_threshold` client reads)
//! go through the order-1 range coder, hot blocks stay on the cheaper
//! LZ77 tier, and either degrades to `Stored` when compression does not
//! pay ([`Packed::pack`], the same call and the same rule a fresh encode
//! uses). A block already on its target tier is **skipped without a
//! write or a compression** and keeps the stream it has — which makes a
//! second compaction pass a byte-level no-op (the idempotence verify.sh
//! gates on).
//!
//! Both passes read raw block bytes only through the validating decoder
//! and never touch catalog entries or fingerprints: store maintenance
//! is perturbation-free by construction — replay output is a function
//! of raw block bytes, which tier migration preserves exactly.

use crate::backend::{encode_record, Backend};
use crate::error::StoreError;
use codec::{Digest128, Json};
use dejavu::{BlockMethod, Packed};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;

/// What one GC pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    pub live_blocks: u64,
    pub removed_blocks: u64,
    pub removed_tmp: u64,
    pub pruned_heat: u64,
    pub freed_bytes: u64,
}

impl GcReport {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("freed_bytes", Json::UInt(self.freed_bytes)),
            ("live_blocks", Json::UInt(self.live_blocks)),
            ("pruned_heat", Json::UInt(self.pruned_heat)),
            ("removed_blocks", Json::UInt(self.removed_blocks)),
            ("removed_tmp", Json::UInt(self.removed_tmp)),
        ])
    }
}

/// What one compaction pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactReport {
    pub examined: u64,
    /// Blocks rewritten onto a different tier.
    pub migrated: u64,
    pub to_range: u64,
    pub to_lz77: u64,
    pub to_stored: u64,
    /// Blocks already on their target tier (no write issued).
    pub unchanged: u64,
    pub bytes_before: u64,
    pub bytes_after: u64,
}

impl CompactReport {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bytes_after", Json::UInt(self.bytes_after)),
            ("bytes_before", Json::UInt(self.bytes_before)),
            ("examined", Json::UInt(self.examined)),
            ("migrated", Json::UInt(self.migrated)),
            ("to_lz77", Json::UInt(self.to_lz77)),
            ("to_range", Json::UInt(self.to_range)),
            ("to_stored", Json::UInt(self.to_stored)),
            ("unchanged", Json::UInt(self.unchanged)),
        ])
    }
}

/// Remove unreferenced blocks, stale temp files, and dead heat
/// counters. `referenced` is the union of every catalog entry's digest
/// list; `heat` is pruned in place (the caller persists it).
pub fn gc_pass(
    backend: &Backend,
    referenced: &BTreeSet<Digest128>,
    heat: &mut BTreeMap<Digest128, u64>,
) -> Result<GcReport, StoreError> {
    let mut report = GcReport {
        removed_tmp: backend.sweep_tmp()?,
        ..GcReport::default()
    };
    for (digest, len) in backend.list_blocks()? {
        if referenced.contains(&digest) {
            report.live_blocks += 1;
        } else {
            let path = backend.block_path(digest);
            fs::remove_file(&path).map_err(|e| StoreError::io(&path, e))?;
            report.removed_blocks += 1;
            report.freed_bytes += len;
        }
    }
    let before = heat.len();
    heat.retain(|d, _| referenced.contains(d));
    report.pruned_heat = (before - heat.len()) as u64;
    Ok(report)
}

/// Re-tier every block by heat. Deterministic given (block contents,
/// heat map, threshold); see the module docs for the idempotence
/// argument.
pub fn compact_pass(
    backend: &Backend,
    heat: &BTreeMap<Digest128, u64>,
    cold_threshold: u64,
) -> Result<CompactReport, StoreError> {
    let mut report = CompactReport::default();
    for (digest, len) in backend.list_blocks()? {
        report.examined += 1;
        report.bytes_before += len;
        let (current, raw) = backend.read_block(digest)?;
        let reads = heat.get(&digest).copied().unwrap_or(0);
        let desired = if reads < cold_threshold {
            BlockMethod::Range
        } else {
            BlockMethod::Lz77
        };
        // A record already on its tier is not compressed again to learn
        // that; one the compressors declined (`Stored`) is retried, since
        // only packing says whether `desired` pays this time.
        let packed = (current.method != desired).then(|| Packed::pack(&raw, desired));
        let Some(packed) = packed.filter(|p| p.method != current.method) else {
            report.unchanged += 1;
            report.bytes_after += len;
            continue;
        };
        let bytes = encode_record(digest, &packed);
        backend.write_atomic(&backend.block_path(digest), &bytes)?;
        report.migrated += 1;
        report.bytes_after += bytes.len() as u64;
        match packed.method {
            BlockMethod::Range => report.to_range += 1,
            BlockMethod::Lz77 => report.to_lz77 += 1,
            BlockMethod::Stored => report.to_stored += 1,
        }
    }
    Ok(report)
}
