//! Store integration against real recorded workloads: dedup across the
//! fig1 family, byte-identical reconstruction, store-served time-travel
//! seeks with the ≤-one-block-span guarantee, and fingerprint
//! neutrality under compaction and concurrent ingest.

use dejavu::blocktrace::encode_block;
use dejavu::{
    record_run, replay_run, BlockFile, ExecSpec, SymmetryConfig, TimeTravel, Trace,
    DEFAULT_BLOCK_BUDGET,
};
use std::path::PathBuf;
use std::sync::Arc;
use store::{Store, StoreError};

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("store-it-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
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
    // Damage one block record on disk.
    let entry = store.entry(&id).unwrap();
    let victim = entry.blocks[0].digest;
    let path = root
        .join("blocks")
        .join(&victim.hex()[..2])
        .join(format!("{}.blk", victim.hex()));
    let mut buf = std::fs::read(&path).unwrap();
    let mid = buf.len() / 2;
    buf[mid] ^= 0xff;
    std::fs::write(&path, &buf).unwrap();
    let err = store.get_bytes(&id).unwrap_err();
    assert_eq!(err.code(), 1);
    assert!(matches!(err, StoreError::Corrupt(_) | StoreError::Trace(_)));
}
