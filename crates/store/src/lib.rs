//! # store — content-addressed block database for DJVB traces
//!
//! DJVB files are write-once single-run artifacts; a fleet serving many
//! runs of the same workload family pays full price in bytes and cold
//! decode for every run. This crate turns the block layer into a
//! storage engine:
//!
//! * [`backend`] — one append-only log of self-validating block records,
//!   keyed by content digest ([`codec::digest128`] of the raw,
//!   pre-compression payload), entry records and commit records, and the
//!   index `open` rebuilds from it. A put is one append; one `Store`
//!   holds a root at a time.
//! * [`catalog`] — one canonical-JSON manifest per run: workload, seed,
//!   format, block-digest list, fingerprint, policy pointer. A run is a
//!   *view* over shared blocks; identical blocks across runs store once.
//! * [`snapshot`] — the checkpoint tier: a bounded decoded-block cache
//!   plus per-block logical-time boundaries, so `TimeTravel` seeks
//!   served from the store keep the ≤-one-block-span guarantee.
//! * [`compact`] — the one maintenance pass: copy the live records of
//!   segments holding dead bytes into a new one, moving a record stored
//!   raw onto the packer's coder; deterministic and idempotent.
//!
//! ## Byte fidelity
//!
//! A block is packed once, by whoever encoded the file, and the store
//! keeps the stream it was handed. `get` validates every record it reads,
//! frames the streams with [`dejavu::write_block_file`], the writer that
//! emitted the upload, re-packing only a block whose record is on another
//! method than the entry names, and checks the file length. A put that
//! lands on an existing entry is a dedup hit, so no upload changes what an
//! earlier one gets back; DESIGN §11.3 states the limit a foreign encoder's
//! stream leaves. Maintenance rewrites only *representations* of raw block
//! bytes, all replay reads: the integration tests replay store-served
//! traces under concurrent maintenance and assert identical fingerprints.

pub mod backend;
pub mod catalog;
pub mod compact;
pub mod error;
pub mod snapshot;

pub use catalog::{BlockRef, CatalogEntry};
pub use compact::{CompactReport, GcReport};
pub use error::StoreError;
pub use snapshot::{BlockCache, BlockKey, StoredTrace, DEFAULT_CACHE_BLOCKS};

use backend::{decode_record, encode_record, Frames, Log, BLOCK, COMMIT_BYTES, ENTRY};
use codec::{digest128, Digest128, Json};
use dejavu::{
    decode_block_events, write_block_file, BlockFile, BlockMethod, Packed, Trace, TraceError,
};
use snapshot::DecodedBlock;
use std::collections::BTreeSet;
use std::fs::{File, OpenOptions, TryLockError};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use telemetry::Registry;

/// What the benchmark passes [`Store::compact`], which ignores it (ROADMAP 5(d)).
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

/// The decoded-block cache and the observer counters.
struct State {
    cache: BlockCache,
    metrics: Registry,
}

/// A content-addressed trace store rooted at one directory. All methods
/// take `&self`; share it as `Arc<Store>` across threads. One `Store`
/// holds a root at a time: a second `open`, in this process or another,
/// is [`StoreError::Locked`].
pub struct Store {
    root: PathBuf,
    /// The one writer mutex: held across a put's merge and append, a
    /// maintenance pass, and each index lookup. Record bytes are read
    /// outside it, through a [`backend::Handle`].
    log: Mutex<Log>,
    state: Mutex<State>,
    /// `<root>/LOCK`, locked for the store's life.
    _lock: File,
}

impl Store {
    /// Open (and create if absent) a store at `root`: lock it and scan its
    /// log. A root in the layout before the log is refused, not imported.
    pub fn open(root: &Path) -> Result<Store, StoreError> {
        let log = root.join("log");
        if !log.exists() && ["blocks", "catalog"].iter().any(|d| root.join(d).exists()) {
            return Err(StoreError::OldLayout(root.display().to_string()));
        }
        std::fs::create_dir_all(root).map_err(|e| StoreError::io(root, e))?;
        let path = root.join("LOCK");
        let lock = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&path)
            .map_err(|e| StoreError::io(&path, e))?;
        lock.try_lock().map_err(|e| match e {
            TryLockError::WouldBlock => StoreError::Locked(root.display().to_string()),
            TryLockError::Error(e) => StoreError::io(&path, e),
        })?;
        Ok(Store {
            root: root.to_path_buf(),
            log: Mutex::new(Log::open(log)?),
            state: Mutex::new(State {
                cache: BlockCache::new(DEFAULT_CACHE_BLOCKS),
                metrics: Registry::new(),
            }),
            _lock: lock,
        })
    }

    /// Ingest one serialized DJVB trace file as one append: the blocks the
    /// store lacks, the entry record if its bytes change, and a commit.
    /// The entry converges across repeated puts of the same run, with
    /// `fingerprint` upgrading 0 → verified in place; two *verified* puts
    /// that disagree are a [`StoreError::FingerprintMismatch`].
    pub fn put_bytes(
        &self,
        workload: &str,
        seed: u64,
        bytes: &[u8],
        fingerprint: u64,
        policy: &str,
    ) -> Result<PutOutcome, StoreError> {
        let bf = BlockFile::parse(bytes.to_vec())?;
        let mut packs = Vec::with_capacity(bf.index.len());
        let mut blocks = Vec::with_capacity(bf.index.len());
        for (i, info) in bf.index.iter().enumerate() {
            let packed = bf.packed(i)?;
            let raw = packed.unpack().ok_or(TraceError::BadCrc { block: i })?;
            let digest = digest128(&raw);
            blocks.push(BlockRef {
                digest,
                event_count: info.event_count,
                switch_count: info.switch_count,
                first_logical_time: info.first_logical_time,
                method: packed.method,
                raw_len: packed.raw_len,
            });
            packs.push((digest, packed));
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
            puts: 0,
            blocks,
        };
        let id = entry.identity();
        let key = Digest128::parse(&id).expect("an identity is a digest's hex");

        let mut put = Frames::default();
        let mut bytes_written = 0u64;
        let mut log = self.log();
        let mut fresh = BTreeSet::new();
        for (digest, packed) in &packs {
            if !log.blocks.contains_key(digest) && fresh.insert(*digest) {
                let record = encode_record(*digest, packed);
                bytes_written += record.len() as u64;
                put.push(BLOCK, &record)?;
            }
        }
        let (new_entry, puts, unchanged) = match log.entries.get(&key) {
            None => (true, 0, false),
            Some(slot) => {
                let existing = CatalogEntry::parse(&id, &log.handle(slot.at).read()?)?;
                let (have, got) = (existing.fingerprint, fingerprint);
                if have != 0 && got != 0 && have != got {
                    return Err(StoreError::FingerprintMismatch { entry: id, have, got });
                }
                if entry.fingerprint == 0 {
                    entry.fingerprint = existing.fingerprint;
                }
                if entry.policy.is_empty() {
                    entry.policy = existing.policy.clone();
                }
                // Same identity, same raw blocks; the entry goes on
                // describing the first file put under it, as each block
                // record holds the first stream put for it.
                let unchanged =
                    entry.fingerprint == existing.fingerprint && entry.policy == existing.policy;
                entry.blocks = existing.blocks;
                entry.file_bytes = existing.file_bytes;
                (false, slot.puts, unchanged)
            }
        };
        if !unchanged {
            put.push(ENTRY, entry.to_json().to_string().as_bytes())?;
        }
        log.put(&put.seal(key, puts + 1)?)?;
        drop(log);

        let blocks_new = fresh.len() as u64;
        let mut st = self.lock();
        let entries = if new_entry { "store.entries_put" } else { "store.entries_deduped" };
        st.metrics.incr(entries);
        st.metrics.add("store.blocks_stored", blocks_new);
        st.metrics.add("store.blocks_deduped", blocks_total - blocks_new);
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
        let entry = self.entry(id)?;
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
        let entry = self.entry(id)?;
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

    /// All catalog entries, sorted by id.
    pub fn entries(&self) -> Result<Vec<CatalogEntry>, StoreError> {
        let ids: Vec<String> = self.log().entries.keys().map(|k| k.hex()).collect();
        ids.iter().map(|id| self.entry(id)).collect()
    }

    /// Run the maintenance pass ([`compact`]).
    pub fn gc(&self) -> Result<GcReport, StoreError> {
        self.maintain("store.gc_removed", |r| r.removed_blocks)
    }

    /// Run the maintenance pass ([`compact`]). The argument is ignored; it
    /// is kept for the benchmark, which passes [`DEFAULT_COLD_THRESHOLD`].
    pub fn compact(&self, _ignored: u64) -> Result<CompactReport, StoreError> {
        self.maintain("store.blocks_compacted", |r| r.migrated)
    }

    fn maintain(
        &self,
        counter: &'static str,
        count: fn(&CompactReport) -> u64,
    ) -> Result<CompactReport, StoreError> {
        let report = compact::pass(&mut self.log())?;
        self.lock().metrics.add(counter, count(&report));
        Ok(report)
    }

    /// Deterministic disk-shape statistics: a pure function of store
    /// *content* (entries, put counts and block records), so byte-stable
    /// across maintenance passes. Each block and entry record counts with
    /// its frame, and each put with one commit record. A record's method
    /// is read from the index; no payload is decoded.
    pub fn disk_stats(&self) -> Result<Json, StoreError> {
        let entries = self.entries()?;
        // Naive cost = one file per *put run* (repeated puts of the same
        // run converge on one entry but would each have been a file).
        let naive_bytes: u64 = entries.iter().map(|e| e.file_bytes * e.puts).sum();
        let runs: u64 = entries.iter().map(|e| e.puts).sum();
        let total_refs: u64 = entries.iter().map(|e| e.blocks.len() as u64).sum();
        let (blocks, block_bytes, blocks_stored, entry_bytes) = {
            let log = self.log();
            let stored = BlockMethod::Stored.code();
            (
                log.blocks.len() as u64,
                log.blocks.values().map(|b| b.at.frame()).sum::<u64>(),
                log.blocks.values().filter(|b| b.method == stored).count() as u64,
                log.entries.values().map(|e| e.at.frame()).sum::<u64>(),
            )
        };
        let catalog_bytes = entry_bytes + runs * COMMIT_BYTES;
        let store_bytes = block_bytes + catalog_bytes;
        let dedup_ratio_milli = (naive_bytes * 1000).checked_div(store_bytes).unwrap_or(0);
        let bytes_per_run = store_bytes.checked_div(runs).unwrap_or(0);
        let naive_bytes_per_run = naive_bytes.checked_div(runs).unwrap_or(0);
        Ok(Json::obj(vec![
            ("block_bytes", Json::UInt(block_bytes)),
            ("blocks", Json::UInt(blocks)),
            ("blocks_rans", Json::UInt(blocks - blocks_stored)),
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
        let handle = {
            let log = self.log();
            let at = log.blocks.get(&bref.digest).map(|b| b.at);
            at.map(|at| log.handle(at))
        };
        let handle = handle.ok_or_else(|| StoreError::NotFound(format!("block {}", bref.digest)))?;
        let (packed, raw) = decode_record(bref.digest, &handle.read()?)?;
        if raw.len() as u64 != bref.raw_len as u64 {
            return Err(StoreError::Corrupt(format!(
                "block {}: raw length disagrees with catalog",
                bref.digest
            )));
        }
        Ok((packed, raw))
    }

    /// One catalog entry.
    pub fn entry(&self, id: &str) -> Result<CatalogEntry, StoreError> {
        let key = Digest128::parse(id)
            .ok_or_else(|| StoreError::Corrupt(format!("not a valid entry id: {id:?}")))?;
        let (handle, puts) = {
            let log = self.log();
            let e = log.entries.get(&key);
            let e = e.ok_or_else(|| StoreError::NotFound(format!("entry {id}")))?;
            (log.handle(e.at), e.puts)
        };
        let mut entry = CatalogEntry::parse(id, &handle.read()?)?;
        entry.puts = puts;
        Ok(entry)
    }

    fn log(&self) -> MutexGuard<'_, Log> {
        // A poisoned lock means a thread panicked holding it; the index
        // changes only in one scan after a write lands, so it is whole.
        self.log.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // A poisoned lock means another thread panicked mid-bookkeeping;
        // the bookkeeping is observer-only, so continue with its state.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store").field("root", &self.root).finish()
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
        let other = encode_trace(&sample(false, 400, 2), TraceFormat::Block, 64);
        let kept = store.put_bytes("w", 1, &keep, 0, "").unwrap();
        store.put_bytes("w", 2, &other, 0, "").unwrap();
        // Nothing is dead yet: the pass writes nothing.
        let idle = store.gc().unwrap();
        assert_eq!((idle.segments, idle.bytes_after), (0, idle.bytes_before));
        // A fingerprint upgrade supersedes the first entry record.
        store.put_bytes("w", 1, &keep, 0xabc, "").unwrap();
        let stats = store.disk_stats().unwrap();
        let gc1 = store.gc().unwrap();
        assert_eq!((gc1.segments, gc1.removed_blocks, gc1.migrated), (1, 0, 0));
        assert!(gc1.bytes_after < gc1.bytes_before);
        // This build's own records are already on the packer's method,
        // and a second pass finds nothing to do.
        let c2 = store.compact(0).unwrap();
        assert_eq!((c2.segments, c2.migrated), (0, 0));
        assert_eq!((c2.live_blocks, c2.bytes_before), (gc1.live_blocks, gc1.bytes_after));
        assert_eq!(store.get_bytes(&kept.entry).unwrap(), keep);
        assert_eq!(store.entry(&kept.entry).unwrap().puts, 2);
        // Stats JSON is canonical, a function of content alone, carries
        // the dedup ratio, and counts each record's method.
        assert_eq!(store.disk_stats().unwrap(), stats);
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
        let method = store.log().blocks[&digest128(&raw)].method;
        assert_eq!(method, BlockMethod::Rans.code());
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
