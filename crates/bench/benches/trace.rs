//! E16 — the block-structured trace pipeline.
//!
//! Three questions, all against the fig1 workload family under the
//! standard bench spec (the same preemption quantum every other bench
//! uses, so the traces here are the traces those benches record):
//!
//! 1. **bytes/event** — how much smaller is the block format than the
//!    flat format? (Acceptance bar: ≥3× on the family aggregate.) A
//!    side-note row repeats the size accounting under `sized_spec`'s
//!    long quantum, where switches are ~12× rarer and carry ~7 bits of
//!    timer jitter each — the honest worst case for any trace codec.
//! 2. **codec latency** — what do block encode/decode cost next to the
//!    flat codec?
//! 3. **seek latency** — how does checkpoint-indexed
//!    `TimeTravel::seek_logical` over a block trace compare to a
//!    full-replay seek (single checkpoint at step 0), and how many trace
//!    events does each actually replay?
//!
//! The telemetry sidecar carries the size accounting (per-workload and
//! family aggregate, with per-block compression permille) and the
//! `SeekStats` of both seek strategies, so EXPERIMENTS.md E16 is
//! regenerated from machine-readable output.

use baselines::TimeTravel;
use bench::harness::{black_box, Group};
use bench::{bench_spec, sized_spec};
use codec::Json;
use dejavu::{
    encode_trace, record_run, BlockFile, SymmetryConfig, Trace, TraceFormat, DEFAULT_BLOCK_BUDGET,
};

/// The fig1 workload family (ROADMAP figure-1 reproductions).
const FIG1_FAMILY: &[&str] = &["fig1_ab", "fig1_hot", "fig1_cd"];

/// Flat/block size accounting for one recorded trace.
fn size_row(trace: &Trace) -> (u64, u64, u64, Json) {
    let flat = trace.encoded();
    let block = encode_trace(trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET);
    let bf = BlockFile::parse(block.clone()).expect("own encoding parses");
    let events = bf.event_count();
    let doc = Json::obj(vec![
        ("block", bf.stats().to_json()),
        ("block_bytes", Json::UInt(block.len() as u64)),
        ("events", Json::UInt(events)),
        ("flat_bytes", Json::UInt(flat.len() as u64)),
        (
            "flat_milli_bytes_per_event",
            Json::UInt(if events == 0 {
                0
            } else {
                flat.len() as u64 * 1000 / events
            }),
        ),
    ]);
    (flat.len() as u64, block.len() as u64, events, doc)
}

fn main() {
    let mut g = Group::new("trace");
    g.sample_size(10);

    let mut family_flat = 0u64;
    let mut family_block = 0u64;
    let mut family_events = 0u64;
    let mut per_workload: Vec<(String, Json)> = Vec::new();

    for name in FIG1_FAMILY {
        let (spec, natives) = bench_spec(name, 1);
        let (_rec, trace) = record_run(&spec, natives, SymmetryConfig::full(), true);
        let flat = trace.encoded();
        let block = encode_trace(&trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET);
        let (flat_bytes, block_bytes, events, doc) = size_row(&trace);

        g.bench_units(&format!("encode_flat/{name}"), events, || {
            black_box(trace.encoded());
        });
        g.bench_units(&format!("encode_block/{name}"), events, || {
            black_box(encode_trace(
                &trace,
                TraceFormat::Block,
                DEFAULT_BLOCK_BUDGET,
            ));
        });
        g.bench_units(&format!("decode_flat/{name}"), events, || {
            black_box(Trace::decode(&flat).expect("valid flat trace"));
        });
        g.bench_units(&format!("decode_block/{name}"), events, || {
            black_box(
                BlockFile::parse(block.clone())
                    .expect("valid block trace")
                    .to_trace()
                    .expect("all blocks decode"),
            );
        });

        family_flat += flat_bytes;
        family_block += block_bytes;
        family_events += events;
        per_workload.push((name.to_string(), doc));
    }

    // Family aggregate: the ≥3× bytes/event acceptance bar is on this
    // number (ratio ×1000, exact integer arithmetic).
    let ratio_permille = family_flat * 1000 / family_block.max(1);
    println!(
        "trace/family: flat {family_flat} B, block {family_block} B, \
         {family_events} events, ratio {}.{:03}x",
        ratio_permille / 1000,
        ratio_permille % 1000
    );

    // Side-note: the same accounting under the long `sized_spec` quantum.
    // Not part of the acceptance aggregate (459-event traces cannot
    // amortize per-block overhead), reported so the dependence on switch
    // density is visible rather than hidden.
    {
        let (spec, natives) = sized_spec("fig1_hot", 1);
        let (_rec, trace) = record_run(&spec, natives, SymmetryConfig::full(), true);
        let (f, b, e, doc) = size_row(&trace);
        let rp = f * 1000 / b.max(1);
        println!(
            "trace/sized fig1_hot: flat {f} B, block {b} B, {e} events, ratio {}.{:03}x",
            rp / 1000,
            rp % 1000
        );
        per_workload.push(("fig1_hot_sized".to_string(), doc));
    }

    // Seek latency: checkpoint-indexed block seek vs full-replay seek on
    // the longest family member. Both TimeTravels replay the same trace
    // to the end, then each bench iteration travels back to a logical
    // time near the end and forward to the end again (position-invariant
    // across iterations). The indexed session restores the checkpoint at
    // the nearest block boundary and replays one block span; the legacy
    // session restores its only checkpoint (step 0) and replays the
    // whole prefix. A finer budget than the size-oriented default keeps
    // many boundaries in a ~5.6k-event trace — the granularity knob a
    // debugging-oriented recording would pick.
    const SEEK_BUDGET: u32 = 512;
    let (spec, natives) = bench_spec("fig1_hot", 1);
    let (_rec, trace) = record_run(&spec, natives, SymmetryConfig::full(), true);
    let block = encode_trace(&trace, TraceFormat::Block, SEEK_BUDGET);
    let bf = BlockFile::parse(block).expect("valid block trace");
    let boundaries = bf.boundaries();
    let end_logical = trace.switches.iter().map(|s| s.nyp).sum::<u64>();
    let t_back = end_logical.saturating_sub(8);

    // Replay regenerates native outcomes from the trace, so the replay
    // VMs need no native bindings.
    // Indexed: interval effectively off so block boundaries are the only
    // checkpoint keys; legacy: neither interval nor boundaries, i.e. the
    // single step-0 checkpoint of a flat, unindexed trace.
    let mut indexed = TimeTravel::new_indexed(
        spec.replay_vm(),
        bf.to_trace().expect("all blocks decode"),
        SymmetryConfig::full(),
        u64::MAX,
        boundaries.clone(),
    );
    let mut full = TimeTravel::new(
        spec.replay_vm(),
        trace.clone(),
        SymmetryConfig::full(),
        u64::MAX,
    );
    indexed.advance(u64::MAX);
    full.advance(u64::MAX);

    let indexed_stats = indexed.seek_logical(t_back);
    let full_stats = full.seek_logical(t_back);
    println!(
        "trace/seek to {t_back} of {end_logical} ({} blocks): indexed replayed {} events \
         ({} steps), full replayed {} events ({} steps)",
        boundaries.len(),
        indexed_stats.events_replayed,
        indexed_stats.steps_replayed,
        full_stats.events_replayed,
        full_stats.steps_replayed
    );

    g.bench("seek_indexed/fig1_hot", || {
        indexed.seek_logical(end_logical);
        black_box(indexed.seek_logical(t_back));
    });
    g.bench("seek_full_replay/fig1_hot", || {
        full.seek_logical(end_logical);
        black_box(full.seek_logical(t_back));
    });

    let seek_json = |s: &baselines::SeekStats| {
        Json::obj(vec![
            ("checkpoint_logical", Json::UInt(s.checkpoint_logical)),
            ("events_replayed", Json::UInt(s.events_replayed)),
            ("final_logical", Json::UInt(s.final_logical)),
            ("steps_replayed", Json::UInt(s.steps_replayed)),
            ("target_logical", Json::UInt(s.target_logical)),
        ])
    };
    g.attach_telemetry(
        "family",
        Json::obj(vec![
            ("block_bytes", Json::UInt(family_block)),
            (
                "block_milli_bytes_per_event",
                Json::UInt(family_block * 1000 / family_events.max(1)),
            ),
            ("events", Json::UInt(family_events)),
            ("flat_bytes", Json::UInt(family_flat)),
            (
                "flat_milli_bytes_per_event",
                Json::UInt(family_flat * 1000 / family_events.max(1)),
            ),
            ("ratio_permille", Json::UInt(ratio_permille)),
        ]),
    );
    g.attach_telemetry(
        "seek",
        Json::obj(vec![
            ("blocks", Json::UInt(boundaries.len() as u64)),
            ("end_logical", Json::UInt(end_logical)),
            ("full_replay", seek_json(&full_stats)),
            ("indexed", seek_json(&indexed_stats)),
        ]),
    );
    for (name, doc) in per_workload {
        g.attach_telemetry(&name, doc);
    }
    g.finish();
}
