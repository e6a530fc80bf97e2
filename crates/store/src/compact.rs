//! Garbage collection and compaction.
//!
//! **GC** removes block records no catalog entry references, plus
//! leftover temp files from interrupted writes. **Compaction** moves a
//! record onto the packer's method: a record holding its bytes `Stored`
//! — an upload whose encoder did not compress them — is re-packed with
//! [`Packed::pack`], the call and the rule a fresh encode uses, and
//! rewritten if that compresses. A record already on the coder is not
//! read past its header, and one the coder still does not pay for is not
//! rewritten, which makes a second pass a byte-level no-op (the
//! idempotence verify.sh gates on).
//!
//! Neither pass touches catalog entries or fingerprints, and compaction
//! reads raw bytes only through the validating decoder: store
//! maintenance is perturbation-free by construction — replay output is a
//! function of raw block bytes, which re-packing preserves exactly.

use crate::backend::{encode_record, Backend};
use crate::error::StoreError;
use codec::{Digest128, Json};
use dejavu::{BlockMethod, Packed};
use std::collections::BTreeSet;
use std::fs;

/// What one GC pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    pub live_blocks: u64,
    pub removed_blocks: u64,
    pub removed_tmp: u64,
    pub freed_bytes: u64,
}

impl GcReport {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("freed_bytes", Json::UInt(self.freed_bytes)),
            ("live_blocks", Json::UInt(self.live_blocks)),
            ("removed_blocks", Json::UInt(self.removed_blocks)),
            ("removed_tmp", Json::UInt(self.removed_tmp)),
        ])
    }
}

/// What one compaction pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactReport {
    pub examined: u64,
    /// Stored records rewritten onto the coder.
    pub migrated: u64,
    /// Records left as they were (no write issued).
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
            ("unchanged", Json::UInt(self.unchanged)),
        ])
    }
}

/// Remove unreferenced blocks and stale temp files. `referenced` is the
/// union of every catalog entry's digest list.
pub fn gc_pass(
    backend: &Backend,
    referenced: &BTreeSet<Digest128>,
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
    Ok(report)
}

/// Move every record onto the packer's method. Deterministic given the
/// block contents; see the module docs for the idempotence argument.
pub fn compact_pass(backend: &Backend) -> Result<CompactReport, StoreError> {
    let mut report = CompactReport::default();
    for (digest, len) in backend.list_blocks()? {
        report.examined += 1;
        report.bytes_before += len;
        let packed = match backend.read_method(digest)? {
            BlockMethod::Rans => None,
            BlockMethod::Stored => {
                let (_, raw) = backend.read_block(digest)?;
                Some(Packed::pack(&raw)).filter(|p| p.method != BlockMethod::Stored)
            }
        };
        let Some(packed) = packed else {
            report.unchanged += 1;
            report.bytes_after += len;
            continue;
        };
        let bytes = encode_record(digest, &packed);
        backend.write_atomic(&backend.block_path(digest), &bytes)?;
        report.migrated += 1;
        report.bytes_after += bytes.len() as u64;
    }
    Ok(report)
}
