//! Tier-2 megablock execution must be **invisible**: like quickening, a
//! pure speed setting. This suite proves it five ways:
//!
//! 1. a qc-style property — random loop-heavy programs × random timer
//!    intervals × forced-deopt injection, asserting fingerprints, trace
//!    bytes, and heap/state digests are identical across all three tiers
//!    (generic, quickened, megablock);
//! 2. the whole workload registry under the `with_mega(false)` ablation,
//!    including cross-tier replay (a trace recorded under one tier
//!    replays accurately under another);
//! 3. a deopt-at-every-guard sweep on `fig1_hot` and forced-deopt stress
//!    on the `recursion_storm` / `lock_convoy` schedulers' worst cases;
//! 4. the same matrix under `Coarse` fingerprints;
//! 5. every megablock's fingerprint fold — how the closed form advances
//!    the default `Full` hash — against the pc mixes it replaces.

use dejavu::{record_run, replay_run, ExecSpec, SymmetryConfig};
use djvm::compile::{compile_loop, loop_heads};
use djvm::fingerprint::Fingerprint;
use djvm::{MethodId, Program, ProgramBuilder, SplitMix64, Ty};

// ---------------------------------------------------------------------------
// Random loop-heavy guest programs
// ---------------------------------------------------------------------------

/// Generate a verifier-clean program dominated by one hot loop whose body
/// is a random mix of fusible arithmetic, guarded `div`/`rem`, interior
/// forward branches (real deopt sources when taken), devirtualized calls,
/// and — occasionally — an untraceable op that forces the loop to stay
/// tier-1. Optionally races a spawned worker on a shared static.
fn random_program(seed: u64) -> Program {
    let mut rng = SplitMix64::new(seed);
    let mut pb = ProgramBuilder::new();
    let g = pb.class("G").static_field("x", Ty::Int).build();
    let cls = pb.class("Scaler").build();
    pb.virtual_method(cls, "scale", vec![Ty::Int], 2, Some(Ty::Int))
        .code(|a| {
            a.load(1).iconst(3).mul().ret_val();
        });
    let slot = pb.vslot(cls, "scale");

    let iters = 80 + (rng.next_u64() % 300) as i64; // always past the threshold
    let with_worker = rng.next_u64() % 2 == 0;
    let nfrags = 1 + (rng.next_u64() % 5) as usize;
    // Pre-draw the fragment plan so the borrow inside `code` is clean.
    let frags: Vec<(u64, u64, u64, u64)> = (0..nfrags)
        .map(|_| {
            (
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
            )
        })
        .collect();

    let worker = with_worker.then(|| {
        pb.method("worker", 0, 1).code(|a| {
            a.iconst(0).store(0);
            a.label("top");
            a.load(0).iconst(150).ge().if_nz("done");
            a.get_static(g, 0).iconst(1).add().put_static(g, 0);
            a.load(0).iconst(1).add().store(0);
            a.goto("top");
            a.label("done");
            a.ret();
        })
    });

    // Locals: 0 = loop counter, 1..=3 = int scratch, 4 = receiver ref.
    let m = pb.method("main", 0, 5).code(|a| {
        if let Some(w) = worker {
            a.spawn(w, 0).pop();
        }
        a.new(cls).store(4);
        a.iconst(0).store(0);
        a.iconst(1).store(1);
        a.iconst(2).store(2);
        a.iconst(3).store(3);
        a.label("top");
        a.load(0).iconst(iters).ge().if_nz("done");
        for (i, &(r0, r1, r2, r3)) in frags.iter().enumerate() {
            let src = 1 + (r1 % 3) as u16; // scratch local to read
            let dst = 1 + (r2 % 3) as u16; // scratch local to write
            match r0 % 8 {
                0 => {
                    // fused load+const+alu
                    a.load(src).iconst((r3 % 100) as i64 + 1).add().store(dst);
                }
                1 => {
                    // load+load+alu (wrapping mul keeps values bounded-ish)
                    a.load(src).load(dst).add().store(dst);
                }
                2 => {
                    // guarded rem with a nonzero constant divisor
                    a.load(src).iconst((r3 % 7) as i64 + 1).rem().store(dst);
                }
                3 => {
                    // guarded div with a nonzero constant divisor
                    a.load(src).iconst((r3 % 5) as i64 + 2).div().store(dst);
                }
                4 => {
                    // interior forward branch: taken for part of the run,
                    // so the fallthrough-traced guard really deopts
                    let skip = format!("skip{i}");
                    a.load(0).iconst((iters / 2).max(1)).ge().if_nz(&skip);
                    a.load(dst).iconst(1).add().store(dst);
                    a.label(&skip);
                }
                5 => {
                    // devirtualized call inlined through the trace
                    a.load(4).load(src).call_virtual(cls, slot).store(dst);
                }
                6 => {
                    // neg / dup shuffles
                    a.load(src).neg().store(dst);
                    a.load(src).dup().add().store(dst);
                }
                _ => {
                    // untraceable poison (statics): loop stays tier-1 —
                    // neutrality must hold regardless
                    a.get_static(g, 0).iconst(1).add().put_static(g, 0);
                }
            }
        }
        a.load(0).iconst(1).add().store(0);
        a.goto("top");
        a.label("done");
        if with_worker {
            // No handle was kept: worker joins via program exit ordering
            // being irrelevant — just read the shared static.
        }
        a.load(1).print();
        a.load(2).print();
        a.load(3).print();
        a.get_static(g, 0).print();
        a.halt();
    });
    pb.finish(m).unwrap()
}

fn spec_for(p: Program, seed: u64, interval: u64) -> ExecSpec {
    let mut s = ExecSpec::new(p).with_seed(seed);
    s.timer_base = interval;
    s.timer_jitter = (interval / 4).min(23);
    s.max_steps = 2_000_000;
    s
}

/// The three-tier matrix for one spec: record generic, quickened, and
/// megablock runs and assert every guest observable — fingerprint, state
/// digest, output, status, step/cycle counts, trace — is identical.
fn assert_three_tier_equal(
    s: &ExecSpec,
    natives: fn(&mut djvm::Vm),
    what: &str,
) -> dejavu::RunReport {
    let gen = s.clone().with_quicken(false);
    let quick = s.clone().with_quicken(true).with_mega(false);
    let mega = s.clone().with_quicken(true).with_mega(true);
    let (rec_g, trace_g) = record_run(&gen, natives, SymmetryConfig::full(), true);
    let (rec_q, trace_q) = record_run(&quick, natives, SymmetryConfig::full(), true);
    let (rec_m, trace_m) = record_run(&mega, natives, SymmetryConfig::full(), true);
    assert!(
        rec_g.matches(&rec_q),
        "{what}: generic vs quickened observables"
    );
    assert!(
        rec_q.matches(&rec_m),
        "{what}: quickened vs megablock observables"
    );
    assert_eq!(rec_g.counters.steps, rec_m.counters.steps, "{what}: steps");
    assert_eq!(rec_g.cycles, rec_m.cycles, "{what}: cycles");
    assert_eq!(
        rec_g.counters.yield_points, rec_m.counters.yield_points,
        "{what}: yield points"
    );
    assert_eq!(trace_g, trace_q, "{what}: traces g/q");
    assert_eq!(trace_q, trace_m, "{what}: traces q/m");
    rec_m
}

// ---------------------------------------------------------------------------
// 1. The qc property
// ---------------------------------------------------------------------------

#[test]
fn random_programs_are_tier_neutral_across_timers_and_forced_deopts() {
    let mut any_tiered_up = false;
    for seed in 0..10u64 {
        let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9);
        let intervals = [1 + rng.next_u64() % 7, 31 + rng.next_u64() % 200, 10_000];
        for &interval in &intervals {
            let s = spec_for(random_program(seed), seed.wrapping_mul(3) + 1, interval);
            let rec_m =
                assert_three_tier_equal(&s, |_| {}, &format!("seed {seed} interval {interval}"));
            any_tiered_up |= rec_m.mega.tier_ups > 0;

            // Forced-deopt injection on the megablock tier only: still
            // bit-identical to the quickened tier.
            let quick = s.clone().with_quicken(true).with_mega(false);
            let (rec_q, trace_q) = record_run(&quick, |_| {}, SymmetryConfig::full(), true);
            let stride = 1 + rng.next_u64() % 7;
            let inj = s
                .clone()
                .with_quicken(true)
                .with_mega(true)
                .with_mega_deopt_stride(stride)
                .with_mega_deopt_guard(Some((rng.next_u64() % 3) as u32));
            let (rec_i, trace_i) = record_run(&inj, |_| {}, SymmetryConfig::full(), true);
            assert!(
                rec_q.matches(&rec_i),
                "seed {seed} interval {interval}: stride-{stride} injection visible"
            );
            assert_eq!(
                trace_q, trace_i,
                "seed {seed} interval {interval}: injected traces differ"
            );
        }
    }
    assert!(
        any_tiered_up,
        "property is vacuous: no random program ever tiered up"
    );
}

// ---------------------------------------------------------------------------
// 2. The whole registry, including cross-tier replay
// ---------------------------------------------------------------------------

#[test]
fn megablocks_are_neutral_across_the_workload_suite() {
    for w in workloads::registry() {
        let mut s = ExecSpec::new((w.build)()).with_seed(11);
        s.timer_base = 97;
        s.timer_jitter = 23;
        s.max_steps = 3_000_000;
        let rec_m = assert_three_tier_equal(&s, w.natives, w.name);
        if w.name == "fig1_hot" {
            assert!(
                rec_m.mega.tier_ups >= 2 && rec_m.mega.iters > 1_000,
                "fig1_hot must genuinely run tier-2: {:?}",
                rec_m.mega
            );
            assert!(
                rec_m.mega.closed_iters > 0,
                "closed form must fire on fig1_hot under the default Full fingerprint: {:?}",
                rec_m.mega
            );
        }
    }
}

#[test]
fn traces_replay_accurately_across_tiers() {
    for name in ["fig1_hot", "racy_counter", "recursion_storm", "lock_convoy"] {
        let w = workloads::registry()
            .into_iter()
            .find(|w| w.name == name)
            .unwrap();
        let mut s = ExecSpec::new((w.build)()).with_seed(7);
        s.timer_base = 97;
        s.timer_jitter = 23;
        s.max_steps = 3_000_000;
        let quick = s.clone().with_quicken(true).with_mega(false);
        let mega = s.clone().with_quicken(true).with_mega(true);
        // Record tier-1, replay tier-2 — and the reverse.
        let (rec_q, trace_q) = record_run(&quick, w.natives, SymmetryConfig::full(), true);
        let (rep_m, de_m) = replay_run(&mega, trace_q, SymmetryConfig::full());
        assert!(
            de_m.is_empty(),
            "{name}: desyncs replaying tier-1 trace on tier-2"
        );
        assert!(
            rec_q.matches(&rep_m),
            "{name}: tier-1 record vs tier-2 replay"
        );
        let (rec_m, trace_m) = record_run(&mega, w.natives, SymmetryConfig::full(), true);
        let (rep_q, de_q) = replay_run(&quick, trace_m, SymmetryConfig::full());
        assert!(
            de_q.is_empty(),
            "{name}: desyncs replaying tier-2 trace on tier-1"
        );
        assert!(
            rec_m.matches(&rep_q),
            "{name}: tier-2 record vs tier-1 replay"
        );
        if name == "fig1_hot" {
            assert!(
                rep_m.mega.iters > 0,
                "fig1_hot replay must batch iterations too: {:?}",
                rep_m.mega
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Deopt-at-every-guard sweep and stress injection
// ---------------------------------------------------------------------------

#[test]
fn fig1_hot_survives_deopt_at_every_guard() {
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == "fig1_hot")
        .unwrap();
    let mut s = ExecSpec::new((w.build)()).with_seed(5);
    s.timer_base = 97;
    s.timer_jitter = 23;
    s.max_steps = 3_000_000;
    let quick = s.clone().with_quicken(true).with_mega(false);
    let (rec_q, trace_q) = record_run(&quick, w.natives, SymmetryConfig::full(), true);
    // fig1_hot's delay-loop block has 1 guard; sweep past it to cover
    // the every-guard and the no-such-guard cases uniformly.
    for g in 0..4u32 {
        let inj = s
            .clone()
            .with_quicken(true)
            .with_mega(true)
            .with_mega_deopt_guard(Some(g));
        let (rec_i, trace_i) = record_run(&inj, w.natives, SymmetryConfig::full(), true);
        assert!(rec_q.matches(&rec_i), "deopt at guard {g} visible");
        assert_eq!(trace_q, trace_i, "guard {g} traces");
        if g == 0 {
            assert!(
                rec_i.mega.forced_deopts > 0,
                "guard-0 injection must actually fire: {:?}",
                rec_i.mega
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Coarse fingerprinting
// ---------------------------------------------------------------------------

/// Every test above runs under `FingerprintMode::Full`, the default
/// (`VmConfig::default()`), where the closed form folds each batch's pc
/// mixes. `Coarse` mixes no pcs at all, so the closed form runs there
/// without a fold; it gets its own neutrality proof — traces,
/// cross-tier replay, and a witness that the fast path fired.
#[test]
fn coarse_fingerprint_arms_the_closed_form_and_stays_neutral() {
    for (seed, interval) in [(3u64, 97u64), (5, 211), (8, 10_000)] {
        let s = spec_for(random_program(seed), seed + 1, interval)
            .with_fingerprint(djvm::FingerprintMode::Coarse);
        assert_three_tier_equal(
            &s,
            |_| {},
            &format!("coarse seed {seed} interval {interval}"),
        );
    }

    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == "fig1_hot")
        .unwrap();
    let mut s = ExecSpec::new((w.build)()).with_seed(9);
    s.timer_base = 211;
    s.timer_jitter = 23;
    s.max_steps = 3_000_000;
    let s = s.with_fingerprint(djvm::FingerprintMode::Coarse);
    let rec_m = assert_three_tier_equal(&s, w.natives, "fig1_hot coarse");
    assert!(
        rec_m.mega.closed_iters > 0,
        "closed form must fire on fig1_hot under coarse fingerprints: {:?}",
        rec_m.mega
    );

    // Cross-tier replay in the coarse regime: a tier-1 trace drives a
    // closed-form tier-2 replay and vice versa, desync-free.
    let quick = s.clone().with_quicken(true).with_mega(false);
    let mega = s.clone().with_quicken(true).with_mega(true);
    let (rec_q, trace_q) = record_run(&quick, w.natives, SymmetryConfig::full(), true);
    let (rep_m, de_m) = replay_run(&mega, trace_q, SymmetryConfig::full());
    assert!(
        de_m.is_empty(),
        "coarse: desyncs replaying tier-1 trace on tier-2"
    );
    assert!(
        rec_q.matches(&rep_m),
        "coarse: tier-1 record vs tier-2 replay"
    );
    let (rec_m2, trace_m) = record_run(&mega, w.natives, SymmetryConfig::full(), true);
    let (rep_q, de_q) = replay_run(&quick, trace_m, SymmetryConfig::full());
    assert!(
        de_q.is_empty(),
        "coarse: desyncs replaying tier-2 trace on tier-1"
    );
    assert!(
        rec_m2.matches(&rep_q),
        "coarse: tier-2 record vs tier-1 replay"
    );
}

#[test]
fn stress_workloads_survive_forced_deopt_strides() {
    for name in ["recursion_storm", "lock_convoy"] {
        let w = workloads::registry()
            .into_iter()
            .find(|w| w.name == name)
            .unwrap();
        let mut s = ExecSpec::new((w.build)()).with_seed(13);
        s.timer_base = 61;
        s.timer_jitter = 17;
        s.max_steps = 3_000_000;
        let quick = s.clone().with_quicken(true).with_mega(false);
        let (rec_q, trace_q) = record_run(&quick, w.natives, SymmetryConfig::full(), true);
        for stride in [1u64, 3, 17] {
            let inj = s
                .clone()
                .with_quicken(true)
                .with_mega(true)
                .with_mega_deopt_stride(stride);
            let (rec_i, trace_i) = record_run(&inj, w.natives, SymmetryConfig::full(), true);
            assert!(rec_q.matches(&rec_i), "{name}: stride {stride} visible");
            assert_eq!(trace_q, trace_i, "{name}: stride {stride} traces");
        }
    }
}

// ---------------------------------------------------------------------------
// 5. The closed form's fingerprint fold is exact
// ---------------------------------------------------------------------------

/// For every loop head of every registry workload and of the random
/// programs above (walked the way `dis --mega` walks them), a megablock's
/// `fold` applied `n` times to a drawn `h` and `tid` equals stepping each
/// `(s.method, s.pc + i)` of `n` iterations through `mix_step`.
#[test]
fn every_megablock_fold_equals_its_stepped_pc_mixes() {
    let programs = workloads::registry()
        .into_iter()
        .map(|w| (w.name.to_string(), (w.build)()))
        .chain((0..10).map(|seed| (format!("random {seed}"), random_program(seed))));
    let mut rng = SplitMix64::new(0xF01D);
    let (mut blocks, mut closed) = (0, 0);
    for (name, p) in programs {
        for method in 0..p.methods.len() as MethodId {
            for head in loop_heads(p.compiled(method)) {
                let Some(b) = compile_loop(&p, method, head) else {
                    continue;
                };
                blocks += 1;
                closed += b.closed.is_some() as u32;
                for _ in 0..8 {
                    let (h, tid, n) = (rng.next_u64(), rng.next_u64() as u32, rng.next_u64() % 4);
                    let stepped = (0..n).fold(h, |h, _| {
                        b.steps.iter().fold(h, |h, s| {
                            (s.pc..s.pc + s.width)
                                .fold(h, |h, pc| Fingerprint::mix_step(h, tid, s.method, pc))
                        })
                    });
                    assert_eq!(
                        b.fold.apply(h, tid, n),
                        stepped,
                        "{name}: method {method} loop @{head}, {n} iterations on t{tid}"
                    );
                }
            }
        }
    }
    assert!(
        blocks >= 10 && closed >= 1,
        "vacuous: {blocks} megablocks, {closed} closed-form"
    );
}
