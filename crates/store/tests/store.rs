//! Store integration against real recorded workloads: dedup across the
//! fig1 family, byte-identical reconstruction, store-served time-travel
//! seeks with the ≤-one-block-span guarantee, and fingerprint
//! neutrality under compaction and concurrent ingest.

use dejavu::blocktrace::encode_block;
use dejavu::{
    record_run, replay_run, BlockFile, ExecSpec, SymmetryConfig, TimeTravel, Trace,
    DEFAULT_BLOCK_BUDGET,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use store::{Store, StoreError};

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("store-it-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The store's segment files, in log order.
fn segments(root: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(root.join("log"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segs.sort();
    segs
}

/// Deterministic spec for a named workload (timer base/jitter mirror the
/// corpus/fleet environment so fingerprints are family-stable).
fn spec_for(name: &str, seed: u64) -> (ExecSpec, fn(&mut djvm::Vm)) {
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("workload {name}"));
    let mut spec = ExecSpec::new((w.build)()).with_seed(seed);
    spec.timer_base = 211;
    spec.timer_jitter = 60;
    (spec, w.natives)
}

fn record(name: &str, seed: u64) -> (u64, Trace, Vec<u8>) {
    let (spec, natives) = spec_for(name, seed);
    let (rec, trace) = record_run(&spec, natives, SymmetryConfig::full(), true);
    let bytes = encode_block(&trace, DEFAULT_BLOCK_BUDGET);
    (rec.fingerprint, trace, bytes)
}

#[test]
fn fig1_family_dedups_and_replays_bit_identical() {
    let root = scratch("family");
    let store = Store::open(&root).unwrap();
    let mut entries = Vec::new();
    for name in ["fig1_ab", "fig1_cd", "fig1_hot"] {
        for seed in [1u64, 2] {
            let (fp, _, bytes) = record(name, seed);
            // First put: unverified (the fleet-ingest path).
            let a = store.put_bytes(name, seed, &bytes, 0, "").unwrap();
            // Second record of the same (workload, seed) is byte-identical
            // (record is deterministic), so the whole run dedups.
            let (fp2, _, bytes2) = record(name, seed);
            assert_eq!(fp, fp2, "record determinism");
            assert_eq!(bytes, bytes2);
            let b = store.put_bytes(name, seed, &bytes2, fp2, "").unwrap();
            assert_eq!(a.entry, b.entry, "same run converges to one entry");
            assert_eq!(b.blocks_new, 0, "re-put writes no blocks");
            assert_eq!(b.fingerprint, fp, "fingerprint upgraded in place");
            entries.push((name, seed, a.entry.clone(), fp, bytes));
        }
    }
    // Reconstruction is byte-identical, and a replay served out of the
    // store reproduces the recorded fingerprint exactly.
    for (name, seed, id, fp, bytes) in &entries {
        assert_eq!(&store.get_bytes(id).unwrap(), bytes);
        let stored = store.open_trace(id).unwrap();
        assert_eq!(stored.entry.fingerprint, *fp);
        let (spec, _) = spec_for(name, *seed);
        let (rep, desyncs) = replay_run(&spec, stored.trace, SymmetryConfig::full());
        assert!(desyncs.is_empty(), "{name}/{seed}: clean replay");
        assert_eq!(rep.fingerprint, *fp, "{name}/{seed}: fingerprint");
    }
    // The dedup claim: 12 puts of 6 distinct runs → naive bytes at least
    // 2× the stored bytes is not guaranteed at this tiny scale, but the
    // entry/blocks shape is.
    assert_eq!(store.entries().unwrap().len(), 6);
}

#[test]
fn store_served_seek_is_one_block_span_and_matches_file_backed() {
    let root = scratch("seek");
    let store = Store::open(&root).unwrap();
    let (fp, trace, bytes) = record("fig1_hot", 5);
    let id = store.put_bytes("fig1_hot", 5, &bytes, fp, "").unwrap().entry;

    let bf = BlockFile::parse(bytes.clone()).unwrap();
    let file_bounds = bf.boundaries();
    let stored = store.open_trace(&id).unwrap();
    assert_eq!(stored.boundaries, file_bounds, "store serves the same checkpoint keys");
    assert_eq!(stored.trace, trace);

    let (spec, _) = spec_for("fig1_hot", 5);
    let run = |t: Trace, bounds: Vec<u64>| {
        let mut tt = TimeTravel::new_indexed(
            spec.replay_vm(),
            t,
            SymmetryConfig::full(),
            u64::MAX, // boundary checkpoints only
            bounds,
        );
        let last = *file_bounds.last().unwrap();
        tt.seek_logical(last);
        let mid = file_bounds[file_bounds.len() / 2];
        tt.seek_logical(mid + 1)
    };
    assert!(file_bounds.len() >= 2, "need multiple blocks to seek across");
    let from_store = run(stored.trace.clone(), stored.boundaries.clone());
    let from_file = run(bf.to_trace().unwrap(), file_bounds.clone());
    assert_eq!(
        from_store.events_replayed, from_file.events_replayed,
        "store- and file-served seeks replay identically"
    );
    // ≤ one block span: never more than the largest block's event count.
    let max_span = bf
        .index
        .iter()
        .map(|b| b.event_count as u64)
        .max()
        .unwrap();
    assert!(
        from_store.events_replayed <= max_span,
        "replayed {} events, block span is {max_span}",
        from_store.events_replayed
    );
}

#[test]
fn compaction_under_concurrent_ingest_preserves_fingerprints() {
    let root = scratch("concurrent");
    let store = Arc::new(Store::open(&root).unwrap());
    // Pre-record serially (record_run itself is timed; keep the
    // concurrency on the store, which is the system under test).
    // fig1_hot: every run has real blocks, so compaction and ingest
    // genuinely contend for the same record files.
    let runs: Vec<(String, u64, u64, Vec<u8>)> = (10u64..18)
        .map(|seed| {
            let (fp, _, bytes) = record("fig1_hot", seed);
            ("fig1_hot".to_string(), seed, fp, bytes)
        })
        .collect();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let compactor = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut passes = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                store.gc().unwrap();
                store.compact(0).unwrap();
                passes += 1;
            }
            passes
        })
    };

    let mut handles = Vec::new();
    for chunk in runs.chunks(2) {
        let store = Arc::clone(&store);
        let chunk = chunk.to_vec();
        handles.push(std::thread::spawn(move || {
            chunk
                .into_iter()
                .map(|(name, seed, fp, bytes)| {
                    let out = store.put_bytes(&name, seed, &bytes, fp, "").unwrap();
                    (name, seed, fp, bytes, out.entry)
                })
                .collect::<Vec<_>>()
        }));
    }
    let ingested: Vec<_> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let passes = compactor.join().unwrap();
    assert!(passes > 0, "compactor ran against live ingest");

    // Every run: byte-identical get, fingerprint-identical replay —
    // with compaction racing the whole time and one more pass after.
    store.compact(0).unwrap();
    let replays_as_recorded = |name: &str, seed: u64, fp: u64, id: &str| {
        let stored = store.open_trace(id).unwrap();
        let (spec, _) = spec_for(name, seed);
        let (rep, desyncs) = replay_run(&spec, stored.trace, SymmetryConfig::full());
        assert!(desyncs.is_empty());
        assert_eq!(rep.fingerprint, fp, "{name}/{seed}: fingerprint under compaction");
    };
    for (name, seed, fp, bytes, id) in &ingested {
        assert_eq!(&store.get_bytes(id).unwrap(), bytes, "{name}/{seed}");
        replays_as_recorded(name, *seed, *fp, id);
    }

    // gc after everything: nothing is unreferenced, and reads move
    // nothing, so compaction has nothing left to do.
    let gc = store.gc().unwrap();
    assert_eq!(gc.removed_blocks, 0);
    let c = store.compact(0).unwrap();
    assert_eq!(c.migrated, 0, "every record is on the packer's method");
    // A replay served after the full maintenance cycle (gc + compact)
    // still reproduces the record.
    let (name, seed, fp, _, id) = &ingested[0];
    replays_as_recorded(name, *seed, *fp, id);
}

/// Four sessions sealing one run at once — one that recorded it and knows
/// its fingerprint, three uploads that do not — merge into one entry: no
/// put is lost, and the verified fingerprint is never overwritten by 0.
#[test]
fn four_writers_of_one_run_merge_into_one_entry() {
    let (fingerprint, _, bytes) = record("fig1_cd", 3);
    let bytes = Arc::new(bytes);
    for round in 0..40 {
        let store = Arc::new(Store::open(&scratch("four-writers")).unwrap());
        let gate = Arc::new(std::sync::Barrier::new(4));
        let writers: Vec<_> = [fingerprint, 0, 0, 0]
            .into_iter()
            .map(|fp| {
                let (store, gate, bytes) = (store.clone(), gate.clone(), bytes.clone());
                std::thread::spawn(move || {
                    gate.wait();
                    store.put_bytes("fig1_cd", 3, &bytes, fp, "").unwrap();
                })
            })
            .collect();
        writers.into_iter().for_each(|w| w.join().unwrap());
        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 1, "round {round}");
        assert_eq!((entries[0].puts, entries[0].fingerprint), (4, fingerprint), "round {round}");
    }
}


#[test]
fn corrupt_block_file_is_typed_not_panic() {
    let root = scratch("corrupt");
    let store = Store::open(&root).unwrap();
    // fig1_hot: the block-rich family member (fig1_ab records an empty
    // trace at these timer settings — zero blocks to damage).
    let (fp, _, bytes) = record("fig1_hot", 77);
    let id = store.put_bytes("fig1_hot", 77, &bytes, fp, "").unwrap().entry;
    // Damage one block record in its segment, under the open store.
    let seg = &segments(&root)[0];
    let mut buf = std::fs::read(seg).unwrap();
    let at = buf.windows(4).position(|w| w == b"DJSB").unwrap();
    let len = u32::from_le_bytes(buf[at - 4..at].try_into().unwrap()) as usize;
    buf[at + len / 2] ^= 0xff;
    std::fs::write(seg, &buf).unwrap();
    let err = store.get_bytes(&id).unwrap_err();
    assert_eq!(err.code(), 1);
    assert!(matches!(err, StoreError::Corrupt(_) | StoreError::Trace(_)));
    // Reopened, the put no longer matches its commit.
    drop(store);
    let err = Store::open(&root).unwrap_err();
    assert_eq!(err.code(), 1);
    assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
}

/// A repeat put of a verified run appends one commit record — a 5-byte
/// frame head and a 32-byte commit — and nothing else; a fingerprint
/// upgrade appends the entry record too.
#[test]
fn a_repeat_put_appends_one_commit() {
    const COMMIT: u64 = 37;
    let root = scratch("repeat");
    let store = Store::open(&root).unwrap();
    let (fp, _, bytes) = record("racy_counter", 4);
    let id = store.put_bytes("racy_counter", 4, &bytes, 0, "").unwrap().entry;
    let log_len = || segments(&root).iter().map(|s| s.metadata().unwrap().len()).sum::<u64>();
    let unverified = log_len();
    store.put_bytes("racy_counter", 4, &bytes, fp, "").unwrap();
    let manifest = store.entry(&id).unwrap().to_json().to_string().len() as u64;
    let verified = log_len();
    assert_eq!(verified, unverified + 5 + manifest + COMMIT, "the fingerprint upgrade");
    for puts in 3..=5 {
        store.put_bytes("racy_counter", 4, &bytes, fp, "").unwrap();
        assert_eq!(log_len(), verified + (puts - 2) * COMMIT, "put {puts}");
    }
    let e = store.entry(&id).unwrap();
    assert_eq!((e.puts, e.fingerprint), (5, fp));
    let stats = store.disk_stats().unwrap();
    let catalog_bytes = stats.field("catalog_bytes").unwrap().as_u64().unwrap();
    assert_eq!(catalog_bytes, 5 + manifest + 5 * COMMIT, "one entry record, a commit a put");
}

/// A put cut short at any byte — a crash mid-append — leaves the store
/// as it was before the put: `open` truncates the torn tail, and every
/// entry comes back byte for byte. Cut after its last byte, the put is
/// whole. Both for a put that brings blocks and an entry, and for a
/// repeat put that appends only a commit.
#[test]
fn a_put_cut_short_at_any_byte_leaves_the_old_state() {
    let root = scratch("torn");
    let (fp_a, _, a) = record("racy_counter", 8);
    let (fp_b, _, b) = record("fig1_hot", 9);
    let store = Store::open(&root).unwrap();
    let id_a = store.put_bytes("racy_counter", 8, &a, fp_a, "").unwrap().entry;
    drop(store);
    let seg = segments(&root).pop().unwrap();
    for (name, seed, bytes, fp) in [("fig1_hot", 9, &b, fp_b), ("racy_counter", 8, &a, fp_a)] {
        let store = Store::open(&root).unwrap();
        let before = (store.entries().unwrap(), store.disk_stats().unwrap());
        let old_len = seg.metadata().unwrap().len();
        let id = store.put_bytes(name, seed, bytes, fp, "").unwrap().entry;
        let after = (store.entries().unwrap(), store.disk_stats().unwrap());
        drop(store);
        let whole = std::fs::read(&seg).unwrap();
        for cut in old_len as usize..=whole.len() {
            std::fs::write(&seg, &whole[..cut]).unwrap();
            let store = Store::open(&root).unwrap();
            let now = (store.entries().unwrap(), store.disk_stats().unwrap());
            if cut == whole.len() {
                assert_eq!(now, after, "{name}: the whole put");
                assert_eq!(&store.get_bytes(&id).unwrap(), bytes);
            } else {
                assert_eq!(now, before, "{name}: cut at {cut}");
                assert_eq!(seg.metadata().unwrap().len(), old_len, "{name}: torn tail left");
            }
            assert_eq!(store.get_bytes(&id_a).unwrap(), a, "{name}: cut at {cut}");
            drop(store);
        }
    }
}

/// A root in the layout before the log — `blocks/` and `catalog/`, no
/// `log/` — is refused with a typed error naming the layout, and `open`
/// writes nothing into it.
#[test]
fn an_old_layout_root_is_refused() {
    let root = scratch("old-layout");
    for dir in ["blocks/c8", "catalog"] {
        std::fs::create_dir_all(root.join(dir)).unwrap();
    }
    let err = Store::open(&root).unwrap_err();
    assert!(matches!(err, StoreError::OldLayout(_)), "{err}");
    assert_eq!(err.code(), 1);
    assert!(err.to_string().contains("old layout (blocks/ and catalog/"), "{err}");
    assert!(!root.join("log").exists() && !root.join("LOCK").exists());
}

/// One `Store` per root: a second `open` while the first lives is a typed
/// error, and dropping the holder frees the root.
#[test]
fn a_root_is_held_by_one_store() {
    let root = scratch("lock");
    let store = Store::open(&root).unwrap();
    let (fp, _, bytes) = record("racy_counter", 2);
    store.put_bytes("racy_counter", 2, &bytes, fp, "").unwrap();
    let err = Store::open(&root).unwrap_err();
    assert!(matches!(err, StoreError::Locked(_)), "{err}");
    assert_eq!(err.code(), 1);
    assert_eq!(store.entries().unwrap().len(), 1);
    drop(store);
    assert_eq!(Store::open(&root).unwrap().entries().unwrap().len(), 1);
}

/// A maintenance pass cut short at any byte of the segment it writes — a
/// crash before it unlinks the old log, the one way two segments come to
/// stand — loses nothing: the store opens to the same entries and stats.
/// Puts then land beside the two segments (commits naming entries only
/// the old segment holds, and entry records), and the next pass, cut
/// short after its first unlink or whole, leaves a log that opens again
/// to the same answers with every entry byte-exact.
#[test]
fn a_pass_cut_short_at_any_byte_loses_nothing() {
    let root = scratch("torn-pass");
    let runs = [("racy_counter", 3), ("racy_counter", 5), ("fig1_ab", 2)].map(|(name, seed)| {
        let (fp, _, bytes) = record(name, seed);
        (name, seed, fp, bytes)
    });
    let store = Store::open(&root).unwrap();
    let mut ids = Vec::new();
    for (name, seed, _, bytes) in &runs {
        ids.push(store.put_bytes(name, *seed, bytes, 0, "").unwrap().entry);
    }
    // A fingerprint upgrade supersedes the first run's entry record.
    let (name, seed, fp, bytes) = &runs[0];
    store.put_bytes(name, *seed, bytes, *fp, "").unwrap();
    let before = (store.entries().unwrap(), store.disk_stats().unwrap());
    drop(store);
    let old_seg = segments(&root).pop().unwrap();
    let old = std::fs::read(&old_seg).unwrap();
    let store = Store::open(&root).unwrap();
    assert_eq!(store.gc().unwrap().segments, 1);
    drop(store);
    let new_seg = segments(&root).pop().unwrap();
    let copy = std::fs::read(&new_seg).unwrap();
    for cut in 0..=copy.len() {
        std::fs::write(&old_seg, &old).unwrap();
        std::fs::write(&new_seg, &copy[..cut]).unwrap();
        let store = Store::open(&root).unwrap();
        let now = (store.entries().unwrap(), store.disk_stats().unwrap());
        assert_eq!(now, before, "cut at {cut}");
        // A verified put of every run: a commit alone for the first, an
        // upgraded entry record for the others.
        for (name, seed, fp, bytes) in &runs {
            store.put_bytes(name, *seed, bytes, *fp, "").unwrap();
        }
        let after = (store.entries().unwrap(), store.disk_stats().unwrap());
        assert_eq!(store.gc().unwrap().segments, 2, "cut at {cut}");
        drop(store);
        for restore in [true, false] {
            if restore {
                std::fs::write(&old_seg, &old).unwrap();
            }
            let store = Store::open(&root).unwrap();
            let now = (store.entries().unwrap(), store.disk_stats().unwrap());
            assert_eq!(now, after, "cut at {cut}, old segment back: {restore}");
            for (id, (.., bytes)) in ids.iter().zip(&runs) {
                assert_eq!(&store.get_bytes(id).unwrap(), bytes, "cut at {cut}");
            }
            // The next pass copies both segments, and then finds nothing.
            let copied = store.gc().unwrap().segments;
            assert_eq!(copied, if restore { 2 } else { 0 }, "cut at {cut}");
            assert_eq!(segments(&root).len(), 1);
        }
        std::fs::remove_file(segments(&root).pop().unwrap()).unwrap();
    }
}
