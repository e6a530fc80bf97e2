//! The profiler's tentpole invariant: the flight recorder is a **pure
//! observer**. Arming it on a replay must leave every guest-visible
//! quantity — fingerprint, state digest, output, status — bit-identical
//! to the unprofiled replay, across the whole workload registry. Its
//! artifacts (Chrome trace, folded stacks, summary) must be
//! byte-deterministic functions of the trace, and on the fig1 hot-loop
//! family the attribution must name the known-hot method at the top.

use dejavu::{profile_replay, record_run, replay_run, ExecSpec, SymmetryConfig};

fn spec_for(w: &workloads::Workload, seed: u64) -> ExecSpec {
    let mut s = ExecSpec::new((w.build)()).with_seed(seed);
    s.timer_base = 101;
    s.timer_jitter = 37;
    s
}

/// Profiler on vs. off is bit-identical for every registered workload.
#[test]
fn profiler_neutral_across_the_registry() {
    for w in workloads::registry() {
        let seed = 3;
        let spec = spec_for(&w, seed);
        let (rec, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
        let (plain, d_off) = replay_run(&spec, trace.clone(), SymmetryConfig::full());
        let (prof, rep, d_on) = profile_replay(&spec, trace, SymmetryConfig::full());
        assert_eq!(
            d_off.len(),
            d_on.len(),
            "{}: desync count changed by the profiler",
            w.name
        );
        assert!(
            rep.matches(&plain),
            "{}: profiled replay differs from unprofiled",
            w.name
        );
        assert_eq!(
            rep.fingerprint, rec.fingerprint,
            "{}: profiled replay differs from the record",
            w.name
        );
        assert_eq!(
            prof.fingerprint, rep.fingerprint,
            "{}: report identity",
            w.name
        );
        // Every profiled run accounts its full logical length.
        assert_eq!(
            prof.final_cycles, rep.cycles,
            "{}: cycle accounting",
            w.name
        );
    }
}

/// The three artifacts are byte-identical across repeated replays of the
/// same trace, and the JSON ones are in canonical form.
#[test]
fn artifacts_are_deterministic_and_canonical() {
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == "fig1_hot")
        .expect("fig1_hot registered");
    let spec = spec_for(&w, 7);
    let (_, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
    let (p1, _, _) = profile_replay(&spec, trace.clone(), SymmetryConfig::full());
    let (p2, _, _) = profile_replay(&spec, trace, SymmetryConfig::full());
    let (c1, c2) = (p1.chrome_json().to_string(), p2.chrome_json().to_string());
    assert_eq!(c1, c2, "chrome artifact bytes");
    assert_eq!(p1.folded(), p2.folded(), "folded artifact bytes");
    let (s1, s2) = (
        p1.summary_json(10).to_string(),
        p2.summary_json(10).to_string(),
    );
    assert_eq!(s1, s2, "summary bytes");
    for doc in [&c1, &s1] {
        let j = codec::Json::parse(doc).expect("valid JSON");
        assert_eq!(doc, &j.to_canonical_string(), "canonical form");
    }
    // The Chrome trace uses the logical timebase, never wall time.
    assert!(c1.contains("\"timebase\":\"logical-cycles\""), "{c1}");
}

/// On the fig1 hot-loop family the profiler names the known-hot method:
/// the spin loops live in `main` and `t2`, which must own the top of the
/// folded output (and the exclusive-cycle ranking) — not the tiny
/// trace-filling callee.
#[test]
fn fig1_hot_attributes_the_hot_loop() {
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == "fig1_hot")
        .expect("fig1_hot registered");
    let spec = spec_for(&w, 5);
    let (_, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
    let (prof, _, desyncs) = profile_replay(&spec, trace, SymmetryConfig::full());
    assert!(desyncs.is_empty());
    let hot = prof.hottest_method().expect("cycles attributed");
    assert!(
        hot == "main" || hot == "t2",
        "expected a fig1 spin loop at the top, got {hot}"
    );
    // The folded output's heaviest line agrees with the ranking.
    let heaviest = prof
        .folded()
        .lines()
        .max_by_key(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .unwrap()
        .to_string();
    let stack = heaviest.rsplit_once(' ').unwrap().0;
    let leaf = stack.rsplit(';').next().unwrap();
    assert!(
        leaf == "main" || leaf == "t2",
        "heaviest folded line should be a spin loop: {heaviest}"
    );
}

/// Phase spans cannot leak cycles: per-thread attribution sums to the
/// run's total, and the interp+sched split is exact.
#[test]
fn cycle_attribution_is_complete() {
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == "producer_consumer")
        .expect("producer_consumer registered");
    let spec = spec_for(&w, 2);
    let (_, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
    let (prof, rep, _) = profile_replay(&spec, trace, SymmetryConfig::full());
    let m = &prof.model;
    assert_eq!(m.total_cycles, rep.cycles);
    let by_thread: u64 = m.thread_cycles.values().sum();
    let sched = m.phases[telemetry::profile::PHASE_SCHED as usize].cycles;
    let interp = m.phases[telemetry::profile::PHASE_INTERP as usize].cycles;
    assert_eq!(
        by_thread, m.total_cycles,
        "per-thread attribution covers the run"
    );
    assert_eq!(interp + sched, m.total_cycles, "interp + sched = total");
}

/// Tier 2 stands aside under the profiler, which attributes every
/// dispatched op and tier 2 dispatches none: profiling the same trace with
/// tier 2 on and off yields byte-identical artifacts and a complete
/// attribution. Loops still tier up (their `compile.mega` events are part
/// of the run), they are just never entered.
#[test]
fn tier_2_stands_aside_for_the_profiler() {
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == "fig1_hot")
        .expect("fig1_hot registered");
    let spec = spec_for(&w, 4);
    let (_, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
    let off = spec.clone().with_mega(false);
    let (p_off, rep_off, d_off) = profile_replay(&off, trace.clone(), SymmetryConfig::full());
    let (p_on, rep_on, d_on) = profile_replay(&spec, trace, SymmetryConfig::full());
    assert!(d_off.is_empty() && d_on.is_empty());
    assert!(
        rep_on.mega.tier_ups > 0 && rep_on.mega.entries == 0,
        "profiled replay must tier up and never enter: {:?}",
        rep_on.mega
    );
    assert!(rep_on.matches(&rep_off), "tier-2 visible to the profiler");
    assert_eq!(p_on.final_cycles, rep_on.cycles, "tier-2 cycle accounting");
    assert_eq!(
        p_on.chrome_json().to_string(),
        p_off.chrome_json().to_string(),
        "chrome artifact differs across tiers"
    );
    assert_eq!(p_on.folded(), p_off.folded(), "folded artifact differs");
    assert_eq!(
        p_on.summary_json(10).to_string(),
        p_off.summary_json(10).to_string(),
        "summary differs across tiers"
    );
}
