//! Content-addressed trace store: bytes/run vs naive per-run files,
//! dedup ratio over a 150+-run fig1-family corpus, and store-served vs
//! file-served seek latency, reported in `BENCH_STORE.json`.
//!
//! The corpus is the fig1 family (fig1_ab, fig1_cd, fig1_hot) across 17
//! seeds, each run put 3 times — the fleet-ingest pattern where the same
//! recording arrives from several sessions. `meta` carries the measured
//! shape: `naive_bytes` is what per-run files would cost (`file_bytes ×
//! puts`), `store_bytes` is blocks + catalog on disk, and
//! `dedup_ratio_milli` their ratio ×1000 (the E20 acceptance line is
//! ≥ 2000, asserted here so a dedup regression fails the bench, not
//! just the verify script).
//!
//! Fingerprint discipline: one run is replayed straight out of the
//! store after a full compaction pass and its fingerprint compared to
//! the recording — `fingerprint_match` in `meta` must be true, because
//! a store that perturbs replays has no dedup ratio worth reporting.

use baselines::TimeTravel;
use bench::bench_spec;
use bench::harness::Group;
use codec::Json;
use dejavu::{
    encode_trace, record_run, replay_run, BlockFile, SymmetryConfig, TraceFormat,
    DEFAULT_BLOCK_BUDGET,
};
use store::{Store, DEFAULT_COLD_THRESHOLD};

const FAMILY: &[&str] = &["fig1_ab", "fig1_cd", "fig1_hot"];
const SEEDS: u64 = 17;
/// Puts per distinct run — the repeated-ingest pattern the store dedups.
const PUTS_PER_RUN: u64 = 3;

fn main() {
    let root = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bench-store");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("bench scratch dir");
    let store = Store::open(&root).expect("open store");

    // Build the corpus: record each (workload, seed) once — records are
    // deterministic, so repeated puts carry identical bytes — and put it
    // PUTS_PER_RUN times with the recorded (verified) fingerprint.
    let mut sample = None; // (spec, fingerprint, bytes, entry) for fig1_hot/1
    for name in FAMILY {
        for seed in 1..=SEEDS {
            let (spec, natives) = bench_spec(name, seed);
            let (rec, trace) = record_run(&spec, natives, SymmetryConfig::full(), true);
            let bytes = encode_trace(&trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET);
            let mut entry = String::new();
            for _ in 0..PUTS_PER_RUN {
                entry = store
                    .put_bytes(name, seed, &bytes, rec.fingerprint, "")
                    .expect("put")
                    .entry;
            }
            if *name == "fig1_hot" && seed == 1 {
                sample = Some((spec, rec.fingerprint, bytes, entry));
            }
        }
    }
    let (sample_spec, sample_fp, sample_bytes, sample_entry) = sample.expect("fig1_hot/1 put");

    // A full maintenance cycle before measuring: nothing is hot yet, so
    // everything migrates to the cold (range-coder) tier — the steady
    // state a long-lived corpus store sits in.
    store.gc().expect("gc");
    store.compact(DEFAULT_COLD_THRESHOLD).expect("compact");

    // The measured disk shape, snapshotted *before* the timed rows run:
    // the repeated-put row below keeps bumping the sample entry's put
    // counter, which would inflate `runs`/`dedup_ratio_milli` past what
    // the corpus actually contains. Stats are a pure function of store
    // content, so these numbers are reproducible run to run.
    let stats = store.disk_stats().expect("disk stats");
    let stat = |k: &str| stats.field(k).unwrap().as_u64().unwrap();
    assert!(
        stat("dedup_ratio_milli") >= 2000,
        "dedup ratio {} below the 2x acceptance line",
        stat("dedup_ratio_milli")
    );

    let mut g = Group::new("STORE");

    g.bench("put/dedup_repeat/fig1_hot", || {
        store
            .put_bytes("fig1_hot", 1, &sample_bytes, sample_fp, "")
            .expect("repeat put");
    });
    g.bench("get/reconstruct/fig1_hot", || {
        let back = store.get_bytes(&sample_entry).expect("get");
        assert_eq!(back.len(), sample_bytes.len());
    });
    g.bench("open/snapshot_tier/fig1_hot", || {
        let stored = store.open_trace(&sample_entry).expect("open");
        assert!(!stored.boundaries.is_empty());
    });

    // Seek latency, store-served vs file-served: same trace, same
    // boundary checkpoints, the only difference is where the blocks came
    // from. Each iteration seeks to the far edge then back inside the
    // middle block — the ≤-one-block-span pattern TimeTravel guarantees.
    let stored = store.open_trace(&sample_entry).expect("open for seek");
    let last = *stored.boundaries.last().expect("multi-block trace");
    let mid = stored.boundaries[stored.boundaries.len() / 2];
    let mut tt_store = TimeTravel::new_indexed(
        sample_spec.replay_vm(),
        stored.trace.clone(),
        SymmetryConfig::full(),
        u64::MAX, // boundary checkpoints only
        stored.boundaries.clone(),
    );
    g.bench("seek/from_store/fig1_hot", || {
        tt_store.seek_logical(last);
        tt_store.seek_logical(mid + 1);
    });
    let bf = BlockFile::parse(sample_bytes.clone()).expect("parse sample");
    let bounds = bf.boundaries();
    let mut tt_file = TimeTravel::new_indexed(
        sample_spec.replay_vm(),
        bf.to_trace().expect("decode sample"),
        SymmetryConfig::full(),
        u64::MAX,
        bounds,
    );
    g.bench("seek/from_file/fig1_hot", || {
        tt_file.seek_logical(last);
        tt_file.seek_logical(mid + 1);
    });

    // Fingerprint neutrality through the whole machinery (dedup + gc +
    // compaction + snapshot cache): replay out of the store, compare.
    let (rep, desyncs) = replay_run(
        &sample_spec,
        store.open_trace(&sample_entry).expect("open").trace,
        SymmetryConfig::full(),
    );
    let fingerprint_match = desyncs.is_empty() && rep.fingerprint == sample_fp;
    assert!(fingerprint_match, "store-served replay diverged");

    g.meta("runs", Json::UInt(stat("runs")));
    g.meta("entries", Json::UInt(stat("entries")));
    g.meta("naive_bytes", Json::UInt(stat("naive_bytes")));
    g.meta("store_bytes", Json::UInt(stat("store_bytes")));
    g.meta("bytes_per_run", Json::UInt(stat("bytes_per_run")));
    g.meta(
        "naive_bytes_per_run",
        Json::UInt(stat("naive_bytes_per_run")),
    );
    g.meta("dedup_ratio_milli", Json::UInt(stat("dedup_ratio_milli")));
    g.meta("unique_blocks", Json::UInt(stat("blocks")));
    g.meta("total_block_refs", Json::UInt(stat("total_block_refs")));
    g.meta("tier_range", Json::UInt(stat("tier_range")));
    g.meta("tier_lz77", Json::UInt(stat("tier_lz77")));
    g.meta("tier_stored", Json::UInt(stat("tier_stored")));
    g.meta("fingerprint_match", Json::Bool(fingerprint_match));
    g.attach_telemetry("store_counters", store.counters_json());
    g.finish();
}
