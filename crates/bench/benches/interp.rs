//! Interpreter dispatch bench: the full three-tier matrix — generic
//! dispatch, quickened (superinstruction / devirtualized QOp stream), and
//! tier-2 megablock execution of hot loops — side by side on the Figure-1
//! hot-loop workload. Reports steps/sec via the `work_units` hint plus
//! record and replay overhead per tier, so `BENCH_interp.json` captures
//! the whole tiering story in one file; the `meta` block records the
//! tier-up counts and tier-over-tier speedups so a silent failure to
//! promote shows up in CI.
//!
//! The `steps_*` rows measure raw dispatch speed under
//! [`FingerprintMode::Coarse`] (the cheap production setting): in `Full`
//! mode every tier is bound by the same serially-dependent per-pc hash
//! chain, which caps any dispatch win at ~1.1×. The `steps_fullfp_*` rows
//! document that hash-bound regime; record/replay rows keep the default
//! `Full` mode, as the accuracy machinery does.
//!
//! The attached TELEMETRY document comes from a default-quickening
//! record with tier-2 pinned off, so the `compile.mega` ring event —
//! itself an observer artifact — does not appear in it. (Tier neutrality
//! is gated by `scripts/verify.sh`'s `tier2` stage through the CLI's
//! `--no-quicken` / `--no-mega`.)

use bench::bench_spec;
use bench::harness::{black_box, Group};
use dejavu::SymmetryConfig;
use djvm::FingerprintMode;

const WORKLOAD: &str = "fig1_hot";

fn main() {
    let mut g = Group::new("interp");
    g.sample_size(10);

    let (spec, natives) = bench_spec(WORKLOAD, 1);
    let spec_m = spec.clone().with_quicken(true).with_mega(true);
    let spec_q = spec.clone().with_quicken(true).with_mega(false);
    let spec_g = spec.clone().with_quicken(false).with_mega(false);

    // The step count is deterministic and tier-independent (the
    // cycle-accounting invariant); it is the work_units hint that turns
    // median ns into steps/sec.
    let rep_m = dejavu::passthrough_run(&spec_m, natives);
    let steps_m = rep_m.counters.steps;
    let steps_q = dejavu::passthrough_run(&spec_q, natives).counters.steps;
    let steps_g = dejavu::passthrough_run(&spec_g, natives).counters.steps;
    assert_eq!(
        steps_q, steps_g,
        "quickening changed the step count — the invariant is broken"
    );
    assert_eq!(
        steps_m, steps_q,
        "megablocks changed the step count — the invariant is broken"
    );
    assert!(
        rep_m.mega.tier_ups > 0,
        "fig1_hot never tiered up — the mega bench rows would measure tier 1"
    );

    // Raw dispatch speed (Coarse fingerprint), then the hash-bound Full
    // regime for comparison.
    for (mode, tag) in [
        (FingerprintMode::Coarse, ""),
        (FingerprintMode::Full, "fullfp_"),
    ] {
        for (tier, s, steps) in [
            ("mega", &spec_m, steps_m),
            ("quickened", &spec_q, steps_q),
            ("generic", &spec_g, steps_g),
        ] {
            let s = s.clone().with_fingerprint(mode);
            g.bench_units(&format!("steps_{tag}{tier}/{WORKLOAD}"), steps, || {
                black_box(dejavu::passthrough_run(&s, natives));
            });
        }
    }

    // Record overhead, all tiers (Full fingerprint — the real pipeline).
    for (tier, s, steps) in [
        ("mega", &spec_m, steps_m),
        ("quickened", &spec_q, steps_q),
        ("generic", &spec_g, steps_g),
    ] {
        g.bench_units(&format!("record_{tier}/{WORKLOAD}"), steps, || {
            black_box(dejavu::record_run(
                s,
                natives,
                SymmetryConfig::full(),
                false,
            ));
        });
    }

    // Replay overhead, all tiers (trace decode + forced switches). Each
    // tier replays its own recording; the traces are byte-identical anyway.
    let (_, trace_m) = dejavu::record_run(&spec_m, natives, SymmetryConfig::full(), true);
    let (_, trace_q) = dejavu::record_run(&spec_q, natives, SymmetryConfig::full(), true);
    let (_, trace_g) = dejavu::record_run(&spec_g, natives, SymmetryConfig::full(), true);
    for (tier, s, steps, trace) in [
        ("mega", &spec_m, steps_m, &trace_m),
        ("quickened", &spec_q, steps_q, &trace_q),
        ("generic", &spec_g, steps_g, &trace_g),
    ] {
        g.bench_units(&format!("replay_{tier}/{WORKLOAD}"), steps, || {
            black_box(dejavu::replay_run(s, trace.clone(), SymmetryConfig::full()));
        });
    }

    // Tier-up evidence plus derived speedups for the sidecar. The mega
    // speedup is the ISSUE's bar (≥2× over quickened on fig1_hot, raw
    // dispatch); milli-x fixed point keeps the JSON integer-only.
    let ratio_mx = |a: &str, b: &str| match (
        g.median_ns(&format!("{a}/{WORKLOAD}")),
        g.median_ns(&format!("{b}/{WORKLOAD}")),
    ) {
        (Some(x), Some(y)) if y > 0 => codec::Json::UInt(x * 1000 / y),
        _ => codec::Json::UInt(0),
    };
    let speedups = codec::Json::obj(vec![
        (
            "mega_over_quickened_mx",
            ratio_mx("steps_quickened", "steps_mega"),
        ),
        (
            "quickened_over_generic_mx",
            ratio_mx("steps_generic", "steps_quickened"),
        ),
        (
            "fullfp_mega_over_quickened_mx",
            ratio_mx("steps_fullfp_quickened", "steps_fullfp_mega"),
        ),
    ]);
    g.meta(&format!("mega_{WORKLOAD}"), rep_m.mega.to_json());
    // Under Coarse (what the steps_mega row times) the closed-form stepper
    // carries the batches — capture its stats so the sidecar proves the
    // fast path ran rather than the step-by-step fallback.
    let rep_mc = dejavu::passthrough_run(
        &spec_m.clone().with_fingerprint(FingerprintMode::Coarse),
        natives,
    );
    assert!(
        rep_mc.mega.closed_iters > 0,
        "coarse-mode bench never hit the closed form: {:?}",
        rep_mc.mega
    );
    g.meta(&format!("mega_{WORKLOAD}_coarse"), rep_mc.mega.to_json());
    g.meta("speedups", speedups);

    // Telemetry from a default-quickening record with tier-2 pinned off.
    let tspec = spec.clone().with_telemetry().with_mega(false);
    let (rec, trace) = dejavu::record_run(&tspec, natives, SymmetryConfig::full(), true);
    g.attach_telemetry(
        WORKLOAD,
        dejavu::run_metrics_json(&rec, Some(&trace.stats())),
    );

    g.finish();
}
