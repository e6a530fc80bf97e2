//! # store — content-addressed block database for DJVB traces
//!
//! DJVB files are write-once single-run artifacts; a fleet serving many
//! runs of the same workload family pays full price in bytes and cold
//! decode for every run. This crate turns the block layer into a
//! storage engine (mirroring the ethrex store/backend/snapshot split):
//!
//! * [`backend`] — the persistence layer: self-validating block record
//!   files keyed by content digest ([`codec::digest128`] of the raw,
//!   pre-compression payload), atomic tmp+rename writes, catalog files.
//! * [`catalog`] — one canonical-JSON manifest per run: workload, seed,
//!   format, block-digest list, fingerprint, policy pointer. A run is a
//!   *view* over shared blocks; identical blocks across runs store once.
//! * [`snapshot`] — the checkpoint tier: a bounded decoded-block cache
//!   plus per-block logical-time boundaries, so `TimeTravel` seeks
//!   served from the store keep the ≤-one-block-span guarantee.
//! * [`compact`] — GC of unreferenced blocks, and compaction, which moves
//!   a record stored raw onto the packer's coder; deterministic and
//!   idempotent.
//!
//! There is one packer ([`dejavu::Packed::pack`]), so there are no
//! storage tiers to choose between, no read heat to choose by, and
//! nothing for a store to write back when it is dropped.
//!
//! ## Byte fidelity
//!
//! A block is packed once, by whoever encoded the file, and the store
//! keeps the stream it was handed. `put` takes each block's
//! [`dejavu::Packed`] out of the file, unpacks it once — for its CRC and
//! the content digest that keys dedup — and writes the stream verbatim
//! into a block record. `get` validates every record it reads and hands
//! the streams to [`dejavu::write_block_file`], the writer that emitted
//! the upload; it re-packs only a block whose record is on another
//! method than the catalog entry names (another run brought the same
//! bytes packed otherwise, or compaction moved a raw record onto the
//! coder), and checks the result against the recorded file length. A
//! DJVB file has one spelling ([`dejavu::BlockFile::parse`]), so the
//! framing around the streams comes back by construction; and a put
//! that lands on an existing entry is a dedup hit — the entry goes on
//! describing the first file put under it — so no upload changes what an
//! earlier one gets back.
//!
//! **The limit that remains.** Blocks are keyed by their raw bytes, a
//! record holds one stream — the first put for those bytes — and an
//! entry names a method, not a stream. This build packs the same bytes
//! to the same stream every time, so for files it encoded none of that
//! shows. A block packed by a *foreign* encoder — a valid stream this
//! build's coder would not emit for those bytes — comes back byte-exact
//! as long as the record holds that stream; a run that shares the block
//! but coded it otherwise is served the record's stream, not its own.
//! The length check turns a stream of another size into a typed error;
//! one of the same size goes unseen, though the content — all that
//! replay reads — is the same either way. `put` does not refuse the second spelling of a block:
//! that would let whoever uploads a foreign spelling first block every
//! honest put that shares the block. Closing the limit takes a
//! whole-upload digest in the catalog (ROADMAP item 3).
//!
//! ## Perturbation-freedom
//!
//! Store maintenance (dedup, compaction, GC, caching) only ever rewrites
//! *representations* of raw block bytes, never the bytes themselves, and
//! replay output is a pure function of those bytes. The integration tests
//! replay store-served traces under concurrent compaction and assert
//! bit-identical fingerprints.

pub mod backend;
pub mod catalog;
pub mod compact;
pub mod error;
pub mod snapshot;

pub use backend::Backend;
pub use catalog::{BlockRef, CatalogEntry};
pub use compact::{CompactReport, GcReport};
pub use error::StoreError;
pub use snapshot::{BlockCache, BlockKey, StoredTrace, DEFAULT_CACHE_BLOCKS};

use codec::{digest128, Digest128, Json};
use dejavu::{
    decode_block_events, write_block_file, BlockFile, BlockMethod, Packed, Trace, TraceError,
};
use snapshot::DecodedBlock;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::{Arc, Mutex};
use telemetry::Registry;

/// What the benchmark passes [`Store::compact`], which ignores it. Kept
/// only because `benchmark/src/corpus.rs` names it (ROADMAP 5(d)).
pub const DEFAULT_COLD_THRESHOLD: u64 = 2;

/// What one `put` did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutOutcome {
    /// Catalog entry id (the content identity of the run).
    pub entry: String,
    /// False when an identical run was already cataloged.
    pub new_entry: bool,
    pub blocks_total: u64,
    /// Blocks actually written (the rest deduped against the store).
    pub blocks_new: u64,
    /// The entry's fingerprint after merge (0 = still unverified).
    pub fingerprint: u64,
}

impl PutOutcome {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("blocks_new", Json::UInt(self.blocks_new)),
            ("blocks_total", Json::UInt(self.blocks_total)),
            ("entry", Json::Str(self.entry.clone())),
            ("fingerprint", Json::UInt(self.fingerprint)),
            ("new_entry", Json::Bool(self.new_entry)),
        ])
    }
}

/// Mutable store state behind one lock: the decoded-block cache and the
/// observer counters. Filesystem writes happen outside the lock (they are
/// atomic per file); the lock only guards in-process bookkeeping, so
/// concurrent fleet sessions share one `Store` cheaply.
struct State {
    cache: BlockCache,
    metrics: Registry,
}

/// A content-addressed trace store rooted at one directory. All methods
/// take `&self`; share it as `Arc<Store>` across threads.
pub struct Store {
    backend: Backend,
    state: Mutex<State>,
    /// Held across a catalog manifest's read-modify-write, so two puts of
    /// one run in this process merge (`puts` counts both, a verified
    /// fingerprint survives an unverified put) instead of the later write
    /// winning. Block writes stay outside it. A second *process* on the
    /// same root is still unserialised (ROADMAP item 8).
    manifests: Mutex<()>,
}

impl Store {
    /// Open (and create if absent) a store at `root`.
    pub fn open(root: &Path) -> Result<Store, StoreError> {
        Ok(Store {
            backend: Backend::open(root)?,
            state: Mutex::new(State {
                cache: BlockCache::new(DEFAULT_CACHE_BLOCKS),
                metrics: Registry::new(),
            }),
            manifests: Mutex::new(()),
        })
    }

    pub fn root(&self) -> &Path {
        self.backend.root()
    }

    /// Ingest one serialized DJVB trace file. Blocks dedup against
    /// everything already stored; the catalog entry converges
    /// across repeated puts of the same run, with `fingerprint`
    /// upgrading 0 → verified in place. Two *verified* puts that
    /// disagree are a [`StoreError::FingerprintMismatch`].
    pub fn put_bytes(
        &self,
        workload: &str,
        seed: u64,
        bytes: &[u8],
        fingerprint: u64,
        policy: &str,
    ) -> Result<PutOutcome, StoreError> {
        let bf = BlockFile::parse(bytes.to_vec())?;

        let mut blocks = Vec::with_capacity(bf.index.len());
        let mut blocks_new = 0u64;
        let mut bytes_written = 0u64;
        for (i, info) in bf.index.iter().enumerate() {
            let packed = bf.packed(i)?;
            let raw = packed.unpack().ok_or(TraceError::BadCrc { block: i })?;
            let digest = digest128(&raw);
            let (written, was_new) = self.backend.write_block(digest, &packed)?;
            if was_new {
                blocks_new += 1;
                bytes_written += written;
            }
            blocks.push(BlockRef {
                digest,
                event_count: info.event_count,
                switch_count: info.switch_count,
                first_logical_time: info.first_logical_time,
                method: packed.method,
                raw_len: packed.raw_len,
            });
        }
        let blocks_total = blocks.len() as u64;

        let mut entry = CatalogEntry {
            workload: workload.to_owned(),
            seed,
            paranoid: bf.paranoid,
            budget: bf.budget,
            file_bytes: bytes.len() as u64,
            fingerprint,
            policy: policy.to_owned(),
            puts: 1,
            blocks,
        };
        let id = entry.identity();

        let path = self.backend.catalog_path(&id);
        let mut new_entry = true;
        // (Poison: a put that panicked here wrote its manifest atomically
        // or not at all.)
        let merging = self.manifests.lock().unwrap_or_else(|p| p.into_inner());
        if path.exists() {
            let existing = self.read_entry(&id)?;
            if existing.fingerprint != 0 && fingerprint != 0 && existing.fingerprint != fingerprint
            {
                return Err(StoreError::FingerprintMismatch {
                    entry: id,
                    have: existing.fingerprint,
                    got: fingerprint,
                });
            }
            new_entry = false;
            if entry.fingerprint == 0 {
                entry.fingerprint = existing.fingerprint;
            }
            if entry.policy.is_empty() {
                entry.policy = existing.policy.clone();
            }
            entry.puts = existing.puts.saturating_add(1);
            // Same identity, so the same raw blocks in the same order;
            // how they were packed may still differ. The entry describes
            // one file, the first put under it — as each block record
            // holds the first stream put for it — so a later put is a
            // dedup hit and changes nothing `get` returns.
            entry.blocks = existing.blocks;
            entry.file_bytes = existing.file_bytes;
        }
        self.backend
            .write_atomic(&path, entry.to_json().to_string().as_bytes())?;
        drop(merging);

        let mut st = self.lock();
        if new_entry {
            st.metrics.incr("store.entries_put");
        } else {
            st.metrics.incr("store.entries_deduped");
        }
        st.metrics.add("store.blocks_stored", blocks_new);
        st.metrics
            .add("store.blocks_deduped", blocks_total - blocks_new);
        st.metrics.add("store.bytes_written", bytes_written);
        Ok(PutOutcome {
            fingerprint: entry.fingerprint,
            entry: id,
            new_entry,
            blocks_total,
            blocks_new,
        })
    }

    /// Reconstruct the exact original file bytes of an entry: every
    /// record validated, its stream framed as it was handed in, and only
    /// a block whose record is on another method than the entry names
    /// re-packed (the crate docs say what that can and cannot promise).
    pub fn get_bytes(&self, id: &str) -> Result<Vec<u8>, StoreError> {
        let entry = self.read_entry(id)?;
        let mut blocks = Vec::with_capacity(entry.blocks.len());
        let mut bytes_read = 0u64;
        for bref in &entry.blocks {
            let (mut packed, raw) = self.read_block(bref)?;
            bytes_read += raw.len() as u64;
            if packed.method != bref.method {
                packed = match bref.method {
                    BlockMethod::Stored => Packed {
                        method: BlockMethod::Stored,
                        stream: raw,
                        ..packed
                    },
                    BlockMethod::Rans => Packed::pack(&raw),
                };
            }
            blocks.push((
                bref.first_logical_time,
                bref.event_count,
                bref.switch_count,
                packed,
            ));
        }
        let bytes = write_block_file(entry.paranoid, entry.budget, blocks);
        if bytes.len() as u64 != entry.file_bytes {
            return Err(StoreError::Corrupt(format!(
                "entry {id}: reconstruction is {} bytes, catalog says {}",
                bytes.len(),
                entry.file_bytes
            )));
        }
        self.lock().metrics.add("store.bytes_read", bytes_read);
        Ok(bytes)
    }

    /// Open an entry for replay: decoded trace + checkpoint boundaries,
    /// served through the snapshot tier (shared blocks decode once per
    /// process, counted as checkpoint hits/misses).
    pub fn open_trace(&self, id: &str) -> Result<StoredTrace, StoreError> {
        let entry = self.read_entry(id)?;
        let mut decoded: Vec<DecodedBlock> = Vec::with_capacity(entry.blocks.len());
        for bref in &entry.blocks {
            let key = BlockKey {
                digest: bref.digest,
                paranoid: entry.paranoid,
                event_count: bref.event_count,
                switch_count: bref.switch_count,
            };
            let cached = {
                let mut st = self.lock();
                let hit = st.cache.get(&key);
                if hit.is_some() {
                    st.metrics.incr("store.checkpoint_hits");
                } else {
                    st.metrics.incr("store.checkpoint_misses");
                }
                hit
            };
            let block = match cached {
                Some(b) => b,
                None => {
                    let (_, raw) = self.read_block(bref)?;
                    let events = decode_block_events(
                        &raw,
                        bref.event_count,
                        bref.switch_count,
                        entry.paranoid,
                    )?;
                    let arc: DecodedBlock = Arc::new(events);
                    let mut st = self.lock();
                    st.metrics.add("store.bytes_read", raw.len() as u64);
                    st.cache.insert(key, arc.clone());
                    arc
                }
            };
            decoded.push(block);
        }
        let mut trace = Trace {
            paranoid: entry.paranoid,
            ..Trace::default()
        };
        for block in &decoded {
            trace.append_block(block.0.iter().cloned(), block.1.iter().cloned())?;
        }
        let boundaries = entry.boundaries();
        Ok(StoredTrace {
            entry,
            trace,
            boundaries,
        })
    }

    /// One catalog entry.
    pub fn entry(&self, id: &str) -> Result<CatalogEntry, StoreError> {
        self.read_entry(id)
    }

    /// All catalog entries, sorted by id.
    pub fn entries(&self) -> Result<Vec<CatalogEntry>, StoreError> {
        self.backend
            .list_catalog()?
            .into_iter()
            .map(|(id, _)| self.read_entry(&id))
            .collect()
    }

    /// Remove unreferenced blocks and stale temp files.
    pub fn gc(&self) -> Result<GcReport, StoreError> {
        let referenced: BTreeSet<Digest128> = self
            .entries()?
            .iter()
            .flat_map(|e| e.blocks.iter().map(|b| b.digest))
            .collect();
        let report = compact::gc_pass(&self.backend, &referenced)?;
        self.lock()
            .metrics
            .add("store.gc_removed", report.removed_blocks);
        Ok(report)
    }

    /// Move every record onto the packer's method: a record stored raw
    /// that the coder now compresses is rewritten. Idempotent: a second
    /// pass issues zero writes. The argument is ignored; it is kept for
    /// the benchmark, which passes [`DEFAULT_COLD_THRESHOLD`].
    pub fn compact(&self, _ignored: u64) -> Result<CompactReport, StoreError> {
        let report = compact::compact_pass(&self.backend)?;
        self.lock()
            .metrics
            .add("store.blocks_compacted", report.migrated);
        Ok(report)
    }

    /// Deterministic disk-shape statistics: a pure function of store
    /// *content* (catalog + blocks), so byte-stable across gc/compact
    /// idempotence checks. A record's method is read from its header; no
    /// payload is decoded.
    pub fn disk_stats(&self) -> Result<Json, StoreError> {
        let entries = self.entries()?;
        // Naive cost = one file per *put run* (repeated puts of the same
        // run converge on one entry but would each have been a file).
        let naive_bytes: u64 = entries.iter().map(|e| e.file_bytes * e.puts).sum();
        let runs: u64 = entries.iter().map(|e| e.puts).sum();
        let total_refs: u64 = entries.iter().map(|e| e.blocks.len() as u64).sum();
        let blocks = self.backend.list_blocks()?;
        let block_bytes: u64 = blocks.iter().map(|&(_, len)| len).sum();
        let catalog_bytes: u64 = self
            .backend
            .list_catalog()?
            .iter()
            .map(|&(_, len)| len)
            .sum();
        let mut blocks_stored = 0;
        for &(digest, _) in &blocks {
            blocks_stored += (self.backend.read_method(digest)? == BlockMethod::Stored) as u64;
        }
        let store_bytes = block_bytes + catalog_bytes;
        let dedup_ratio_milli = if store_bytes == 0 {
            0
        } else {
            naive_bytes * 1000 / store_bytes
        };
        let bytes_per_run = if runs == 0 { 0 } else { store_bytes / runs };
        let naive_bytes_per_run = if runs == 0 { 0 } else { naive_bytes / runs };
        Ok(Json::obj(vec![
            ("block_bytes", Json::UInt(block_bytes)),
            ("blocks", Json::UInt(blocks.len() as u64)),
            (
                "blocks_rans",
                Json::UInt(blocks.len() as u64 - blocks_stored),
            ),
            ("blocks_stored", Json::UInt(blocks_stored)),
            ("bytes_per_run", Json::UInt(bytes_per_run)),
            ("catalog_bytes", Json::UInt(catalog_bytes)),
            ("dedup_ratio_milli", Json::UInt(dedup_ratio_milli)),
            ("entries", Json::UInt(entries.len() as u64)),
            ("naive_bytes", Json::UInt(naive_bytes)),
            ("naive_bytes_per_run", Json::UInt(naive_bytes_per_run)),
            ("runs", Json::UInt(runs)),
            ("store_bytes", Json::UInt(store_bytes)),
            ("total_block_refs", Json::UInt(total_refs)),
        ]))
    }

    /// The observer counters (blocks stored/deduped/compacted,
    /// checkpoint tier hits/misses, byte totals) as canonical JSON —
    /// the "store" section of fleet `stats --fleet`.
    pub fn counters_json(&self) -> Json {
        let mut j = self.lock().metrics.to_json();
        j.canonicalize();
        j
    }

    /// One referenced block, validated against its record and against
    /// the length the catalog recorded for it.
    fn read_block(&self, bref: &BlockRef) -> Result<(Packed, Vec<u8>), StoreError> {
        let (packed, raw) = self.backend.read_block(bref.digest)?;
        if raw.len() as u64 != bref.raw_len as u64 {
            return Err(StoreError::Corrupt(format!(
                "block {}: raw length disagrees with catalog",
                bref.digest
            )));
        }
        Ok((packed, raw))
    }

    fn read_entry(&self, id: &str) -> Result<CatalogEntry, StoreError> {
        if Digest128::parse(id).is_none() {
            return Err(StoreError::Corrupt(format!("not a valid entry id: {id:?}")));
        }
        let path = self.backend.catalog_path(id);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StoreError::NotFound(format!("entry {id}"))
            } else {
                StoreError::io(&path, e)
            }
        })?;
        let json = Json::parse(&text)
            .map_err(|e| StoreError::Corrupt(format!("entry {id}: bad JSON: {e:?}")))?;
        let entry = CatalogEntry::from_json(&json)?;
        if entry.identity() != id {
            return Err(StoreError::Corrupt(format!(
                "entry {id}: file content identifies as {}",
                entry.identity()
            )));
        }
        Ok(entry)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // A poisoned lock means another thread panicked mid-bookkeeping;
        // the bookkeeping is observer-only, so continue with its state.
        match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("root", &self.backend.root())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavu::trace::{DataRec, SwitchRec};
    use dejavu::{encode_trace, TraceFormat};

    /// A scratch store root, removed when the test ends.
    struct Scratch(std::path::PathBuf);

    impl std::ops::Deref for Scratch {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn scratch(tag: &str) -> Scratch {
        // CARGO_TARGET_TMPDIR is only set for integration tests, so unit
        // tests use the OS temp dir, pid-scoped against parallel runs.
        let dir = std::env::temp_dir().join(format!("djv-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn sample(paranoid: bool, n: usize, salt: u64) -> Trace {
        let mut t = Trace {
            paranoid,
            ..Trace::default()
        };
        for i in 0..n {
            t.switches.push(SwitchRec {
                nyp: 200 + ((i as u64 + salt) % 17),
                check_tid: if paranoid { (i % 3) as u32 } else { u32::MAX },
            });
        }
        for i in 0..n {
            t.data.push(DataRec::Clock(1_000_000 + salt as i64 + 2 * i as i64));
        }
        t
    }

    #[test]
    fn put_get_roundtrip() {
        let root = scratch("roundtrip");
        let store = Store::open(&root).unwrap();
        for paranoid in [false, true] {
            let bytes = encode_trace(&sample(paranoid, 400, 0), TraceFormat::Block, 64);
            let put = store.put_bytes("w", paranoid as u64, &bytes, 0, "").unwrap();
            assert!(put.new_entry);
            assert!(put.blocks_total > 0);
            let back = store.get_bytes(&put.entry).unwrap();
            assert_eq!(back, bytes, "byte-identical reconstruction");
        }
    }

    #[test]
    fn identical_runs_dedup_to_one_copy() {
        let root = scratch("dedup");
        let store = Store::open(&root).unwrap();
        let bytes = encode_trace(&sample(false, 500, 3), TraceFormat::Block, 64);
        let a = store.put_bytes("w", 1, &bytes, 0, "").unwrap();
        let b = store.put_bytes("w", 1, &bytes, 0, "").unwrap();
        assert_eq!(a.entry, b.entry);
        assert!(a.new_entry && !b.new_entry);
        assert_eq!(b.blocks_new, 0, "second put writes no blocks");
        // A different seed under the same workload still shares every
        // block (same trace content), but catalogs separately.
        let c = store.put_bytes("w", 2, &bytes, 0, "").unwrap();
        assert_ne!(c.entry, a.entry);
        assert_eq!(c.blocks_new, 0);
        assert_eq!(store.entries().unwrap().len(), 2);
    }

    #[test]
    fn fingerprint_upgrades_but_never_flips() {
        let root = scratch("fingerprint");
        let store = Store::open(&root).unwrap();
        let bytes = encode_trace(&sample(false, 100, 0), TraceFormat::Block, 32);
        let a = store.put_bytes("w", 1, &bytes, 0, "").unwrap();
        assert_eq!(a.fingerprint, 0);
        let b = store.put_bytes("w", 1, &bytes, 0xabc, "p.json").unwrap();
        assert_eq!(b.entry, a.entry);
        assert_eq!(b.fingerprint, 0xabc);
        let e = store.entry(&a.entry).unwrap();
        assert_eq!(e.fingerprint, 0xabc);
        assert_eq!(e.policy, "p.json");
        // Unverified re-put keeps the verified fingerprint.
        let c = store.put_bytes("w", 1, &bytes, 0, "").unwrap();
        assert_eq!(c.fingerprint, 0xabc);
        // A conflicting verified fingerprint is divergence-class.
        let err = store.put_bytes("w", 1, &bytes, 0xdef, "").unwrap_err();
        assert!(matches!(err, StoreError::FingerprintMismatch { .. }));
        assert_eq!(err.code(), 2);
    }

    #[test]
    fn open_trace_matches_decode_and_counts_cache() {
        let root = scratch("open");
        let store = Store::open(&root).unwrap();
        let t = sample(true, 600, 9);
        let bytes = encode_trace(&t, TraceFormat::Block, 64);
        let put = store.put_bytes("w", 1, &bytes, 0, "").unwrap();
        let first = store.open_trace(&put.entry).unwrap();
        assert_eq!(first.trace, t);
        assert!(!first.boundaries.is_empty());
        let second = store.open_trace(&put.entry).unwrap();
        assert_eq!(second.trace, t);
        let j = store.counters_json();
        let counters = j.field("counters").unwrap();
        let hits = counters.field("store.checkpoint_hits").unwrap().as_u64().unwrap();
        let misses = counters
            .field("store.checkpoint_misses")
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(misses, first.boundaries.len() as u64, "first open all misses");
        assert_eq!(hits, first.boundaries.len() as u64, "second open all hits");
    }

    #[test]
    fn gc_and_compact_preserve_bytes_and_are_idempotent() {
        let root = scratch("gc-compact");
        let store = Store::open(&root).unwrap();
        let keep = encode_trace(&sample(false, 400, 1), TraceFormat::Block, 64);
        let dead = encode_trace(&sample(false, 400, 2), TraceFormat::Block, 64);
        let kept = store.put_bytes("w", 1, &keep, 0, "").unwrap();
        let doomed = store.put_bytes("w", 2, &dead, 0, "").unwrap();
        // Remove the doomed entry's catalog file; its unshared blocks
        // become garbage.
        std::fs::remove_file(store.backend.catalog_path(&doomed.entry)).unwrap();
        let gc1 = store.gc().unwrap();
        assert!(gc1.removed_blocks > 0);
        let gc2 = store.gc().unwrap();
        assert_eq!(gc2.removed_blocks, 0, "gc idempotent");
        // This build's own records are already on the packer's method.
        let c1 = store.compact(0).unwrap();
        assert_eq!((c1.examined, c1.migrated), (gc1.live_blocks, 0));
        assert_eq!(store.get_bytes(&kept.entry).unwrap(), keep);
        // Stats JSON is canonical, carries the dedup ratio, and counts
        // each record's method from its header.
        let stats = store.disk_stats().unwrap();
        assert_eq!(stats.to_string(), stats.to_canonical_string());
        assert!(stats.field("dedup_ratio_milli").unwrap().as_u64().is_ok());
        let count = |k| stats.field(k).unwrap().as_u64().unwrap();
        assert_eq!(
            count("blocks_rans") + count("blocks_stored"),
            count("blocks")
        );
        assert!(count("blocks_rans") > 0);
    }

    /// 40 identical switches: the raw payload is `28 07` then 41 zeros.
    fn forty_switches() -> (Trace, Vec<u8>, BlockFile) {
        let trace = Trace {
            paranoid: false,
            switches: vec![SwitchRec { nyp: 7, check_tid: u32::MAX }; 40],
            data: Vec::new(),
        };
        let file = encode_trace(&trace, TraceFormat::Block, 4096);
        let parsed = BlockFile::parse(file.clone()).unwrap();
        (trace, file, parsed)
    }

    /// An upload whose encoder stored a block raw where this build codes
    /// it comes back byte-exact, and so does every honest run sharing the
    /// block, before and after compaction moves the record onto the
    /// coder: `get` re-packs to whichever method each entry names.
    #[test]
    fn a_block_stored_raw_by_another_encoder_serves_every_entry() {
        let root = scratch("foreign-method");
        let store = Store::open(&root).unwrap();
        let (trace, honest_file, honest) = forty_switches();
        let raw = honest.block_raw(0).unwrap();
        assert_eq!(honest.block_method(0).unwrap(), BlockMethod::Rans);
        let stored = Packed {
            method: BlockMethod::Stored,
            stream: raw.clone(),
            ..honest.packed(0).unwrap()
        };
        let file = write_block_file(false, 4096, [(0, 40, 40, stored)]);

        let put = store.put_bytes("w", 1, &file, 0, "").unwrap();
        assert_eq!(store.get_bytes(&put.entry).unwrap(), file);
        // The honest spelling of the same run has the same identity: a
        // dedup hit, not a refusal — the fingerprint still upgrades —
        // and the entry goes on serving the first upload.
        let again = store.put_bytes("w", 1, &honest_file, 0xabc, "").unwrap();
        assert_eq!((&again.entry, again.new_entry, again.blocks_new), (&put.entry, false, 0));
        assert_eq!(store.entry(&put.entry).unwrap().fingerprint, 0xabc);
        assert_eq!(store.get_bytes(&put.entry).unwrap(), file);
        // An honest run under another seed shares the raw record.
        let shared = store.put_bytes("w", 2, &honest_file, 0, "").unwrap();
        assert!(shared.new_entry && shared.blocks_new == 0);
        // The first compaction moves the raw record onto the coder, the
        // second finds nothing to do; every entry is served throughout.
        for migrated in [1, 0] {
            assert_eq!(store.get_bytes(&shared.entry).unwrap(), honest_file);
            assert_eq!(store.get_bytes(&put.entry).unwrap(), file);
            assert_eq!(store.open_trace(&shared.entry).unwrap().trace, trace);
            assert_eq!(store.compact(0).unwrap().migrated, migrated);
        }
        assert_eq!(
            store.backend.read_method(digest128(&raw)).unwrap(),
            BlockMethod::Rans
        );
        assert_eq!(store.get_bytes(&put.entry).unwrap(), file);
        assert_eq!(store.get_bytes(&shared.entry).unwrap(), honest_file);
    }

    /// The store keeps the stream it was handed: a block coded by a
    /// foreign encoder — a valid rANS stream of other tables than this
    /// build would write for those bytes — comes back byte-exact. The
    /// limit that remains (crate docs): an honest run sharing the block
    /// is served the record's stream, here a file of another length,
    /// which the length check turns into a typed error rather than wrong
    /// bytes; compaction leaves a coded record alone.
    #[test]
    fn a_foreign_stream_is_kept_not_respelled() {
        let root = scratch("foreign-stream");
        let store = Store::open(&root).unwrap();
        let (trace, honest_file, honest) = forty_switches();
        let raw = honest.block_raw(0).unwrap();
        let ours = honest.packed(0).unwrap();
        // Frequencies 104/12/12 of 128 where this build writes 124/2/2.
        let foreign = Packed {
            stream: FOREIGN_STREAM.to_vec(),
            ..ours.clone()
        };
        assert_ne!(foreign.stream, ours.stream);
        assert_eq!(foreign.unpack().as_ref(), Some(&raw));
        let file = write_block_file(false, 4096, [(0, 40, 40, foreign)]);
        assert_ne!(file.len(), honest_file.len());

        let put = store.put_bytes("w", 1, &file, 0, "").unwrap();
        assert_eq!(store.get_bytes(&put.entry).unwrap(), file);
        assert_eq!(store.open_trace(&put.entry).unwrap().trace, trace);
        let shared = store.put_bytes("w", 2, &honest_file, 0, "").unwrap();
        assert!(shared.new_entry && shared.blocks_new == 0);
        assert_eq!(store.open_trace(&shared.entry).unwrap().trace, trace);
        for _ in 0..2 {
            let err = store.get_bytes(&shared.entry).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
            assert_eq!(store.get_bytes(&put.entry).unwrap(), file);
            assert_eq!(store.compact(0).unwrap().migrated, 0);
        }
    }

    const FOREIGN_STREAM: [u8; 25] = [
        0x57, 0x5c, 0x60, 0x10, 0x20, 0x16, 0x88, 0x22, 0x01, 0xe8, 0x69, 0x86,
        0x3e, 0x7c, 0x0b, 0x00, 0x00, 0x20, 0xe9, 0xc4, 0x2d, 0x30, 0x00, 0x00,
        0x00,
    ];

    #[test]
    fn missing_and_malformed_ids_are_typed() {
        let root = scratch("errors");
        let store = Store::open(&root).unwrap();
        assert!(matches!(
            store.get_bytes(&"0".repeat(32)),
            Err(StoreError::NotFound(_))
        ));
        let err = store.get_bytes("../../etc/passwd").unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)));
        assert_eq!(err.code(), 1);
        assert!(store
            .put_bytes("w", 1, b"not a trace", 0, "")
            .is_err());
    }
}
