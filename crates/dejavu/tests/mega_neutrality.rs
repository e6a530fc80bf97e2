//! Tier 2 must be **invisible**: like quickening, a pure speed setting.
//! It retires the passes of closed counting loops in closed form and
//! hands every other pass to tier 1. This suite proves it four ways:
//!
//! 1. a qc-style property — random closed and not-closed counting loops ×
//!    random timer intervals × both fingerprint modes, asserting
//!    fingerprints, trace bytes, and heap/state digests are identical
//!    across all three tiers (generic, quickened, tier 2);
//! 2. the whole workload registry under the `with_mega(false)` ablation,
//!    including cross-tier replay (a trace recorded under one tier
//!    replays accurately under another) and a short-quantum sweep of the
//!    schedulers' worst cases;
//! 3. the same matrix under `Coarse` fingerprints;
//! 4. every closed loop's fingerprint fold — how the closed form advances
//!    the default `Full` hash — against the pc mixes it replaces.

use dejavu::{passthrough_run, record_run, replay_run, ExecSpec, SymmetryConfig};
use djvm::builder::Asm;
use djvm::compile::{compile_loop, loop_heads};
use djvm::fingerprint::Fingerprint;
use djvm::{FingerprintMode, MethodId, Program, ProgramBuilder, SplitMix64, Ty};

// ---------------------------------------------------------------------------
// Random counting loops
// ---------------------------------------------------------------------------

/// A drawn program: one counting loop in `main`, optionally raced by a
/// spawned worker on a shared static, and whether the loop is closed.
struct Drawn {
    program: Program,
    /// `main`'s loop has a closed form (no poison fragment in its body).
    closed: bool,
}

/// Generate a verifier-clean program around one counting loop. The draw
/// covers every shape tier 2 can close and the ones it must not:
///
/// * the guard at the head or the tail, under `Lt`/`Le`/`Gt`/`Ge`, with
///   either branch sense;
/// * positive, negative and zero steps (a zero step loops until the step
///   budget, or not at all);
/// * bounds near `i64::MAX`/`MIN`, so the guarded value reaches the wrap
///   horizon, and loops that only exit by wrapping;
/// * 0–3 accumulator locals, some with increments that wrap;
/// * a poison fragment — `div`, an interior branch or a devirtualized
///   call — that keeps the loop in tier 1.
fn random_program(seed: u64) -> Drawn {
    let mut rng = SplitMix64::new(seed);
    let mut draw = |n: u64| rng.next_u64() % n;
    let mut pb = ProgramBuilder::new();
    let g = pb.class("G").static_field("x", Ty::Int).build();
    let cls = pb.class("Scaler").build();
    pb.virtual_method(cls, "scale", vec![Ty::Int], 2, Some(Ty::Int))
        .code(|a| {
            a.load(1).iconst(3).mul().ret_val();
        });
    let slot = pb.vslot(cls, "scale");

    // The induction: `n` passes to the bound (always past the threshold).
    let n = 80 + draw(300) as i64;
    let step = match draw(5) {
        0 => 0,
        1 | 2 => 1 + draw(5) as i64,
        _ => -1 - draw(5) as i64,
    };
    let up = step >= 0;
    let edge = draw(3) == 0;
    let wrap_exit = edge && step != 0 && draw(2) == 0;
    // The continue condition `x <op> bound`, as (op, bound, x0).
    let (op, bound, x0) = if wrap_exit {
        // Counts towards the edge and leaves only once the value wraps.
        let (op, bound) = if up { (">=", 0) } else { ("<=", 0) };
        let x0 = if up {
            i64::MAX - n * step + draw(3) as i64
        } else {
            i64::MIN - n * step - draw(3) as i64
        };
        (op, bound, x0)
    } else {
        let bound = match (edge, up) {
            (true, true) => i64::MAX - draw(8) as i64,
            (true, false) => i64::MIN + draw(8) as i64,
            _ => draw(2_000) as i64 - 1_000,
        };
        let op = match (up, draw(2)) {
            (true, 0) => "<",
            (true, _) => "<=",
            (false, 0) => ">",
            (false, _) => ">=",
        };
        let x0 = if step == 0 {
            bound.wrapping_add(draw(3) as i64 - 1)
        } else {
            bound.wrapping_sub(n.wrapping_mul(step))
        };
        (op, bound, x0)
    };
    // Spell the condition directly or negated: (cmp, sense that continues).
    let negate = draw(2) == 0;
    let cont = !negate;
    let cmp: fn(&mut Asm) -> &mut Asm = match (op, negate) {
        ("<", false) | (">=", true) => |a| a.lt(),
        ("<=", false) | (">", true) => |a| a.le(),
        (">", false) | ("<=", true) => |a| a.gt(),
        _ => |a| a.ge(),
    };
    let tail = draw(2) == 0;

    // Accumulators in locals 1..=3; local 4 holds a receiver.
    let accs: Vec<(u16, i64, i64)> = (0..draw(4))
        .map(|i| {
            let inc = match draw(3) {
                0 => draw(100) as i64 - 50,
                1 => i64::MAX - draw(4) as i64,
                _ => i64::MIN / 3,
            };
            (1 + i as u16, draw(1_000) as i64, inc)
        })
        .collect();
    let poison = (draw(4) == 0).then(|| draw(3));
    // Where the induction's increment and the poison sit among the pairs.
    let (ind_at, poison_at) = (
        draw(accs.len() as u64 + 1) as usize,
        draw(accs.len() as u64 + 1) as usize,
    );
    let with_worker = draw(2) == 0;

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

    let m = pb.method("main", 0, 5).code(|a| {
        if let Some(w) = worker {
            a.spawn(w, 0).pop();
        }
        a.new(cls).store(4);
        a.iconst(x0).store(0);
        for l in 1..=3u16 {
            let init = accs
                .iter()
                .find(|&&(al, ..)| al == l)
                .map_or(0, |&(_, v, _)| v);
            a.iconst(init).store(l);
        }
        a.label("top");
        let test = |a: &mut Asm, target: &str, jump_if: bool| {
            cmp(a.load(0).iconst(bound));
            if jump_if {
                a.if_nz(target);
            } else {
                a.if_z(target);
            }
        };
        if !tail {
            test(a, "done", !cont);
        }
        let mut pairs: Vec<(u16, i64)> = accs.iter().map(|&(l, _, c)| (l, c)).collect();
        pairs.insert(ind_at, (0, step));
        for (i, (l, c)) in pairs.into_iter().enumerate() {
            if i == poison_at {
                match poison {
                    Some(0) => {
                        a.load(1).iconst(7).div().store(2);
                    }
                    Some(1) => {
                        a.load(2).if_nz("skip");
                        a.load(3).iconst(1).add().store(3);
                        a.label("skip");
                    }
                    Some(_) => {
                        a.load(4).load(1).call_virtual(cls, slot).store(3);
                    }
                    None => {}
                }
            }
            a.load(l).iconst(c).add().store(l);
        }
        if tail {
            test(a, "top", cont);
        } else {
            a.goto("top");
        }
        a.label("done");
        for l in 0..=3u16 {
            a.load(l).print();
        }
        a.get_static(g, 0).print();
        a.halt();
    });
    Drawn {
        program: pb.finish(m).unwrap(),
        closed: poison.is_none(),
    }
}

fn spec_for(p: Program, seed: u64, interval: u64) -> ExecSpec {
    let mut s = ExecSpec::new(p).with_seed(seed);
    s.timer_base = interval;
    s.timer_jitter = (interval / 4).min(23);
    // A zero-step or wrapped loop that never exits runs to this budget.
    s.max_steps = 60_000;
    s
}

/// The three-tier matrix for one spec: record generic, quickened, and
/// tier-2 runs and assert every guest observable — fingerprint, state
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
        "{what}: quickened vs tier-2 observables"
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
fn random_counting_loops_are_tier_neutral_across_timers_and_fingerprints() {
    let (mut closed_ran, mut poisoned) = (0, 0);
    for seed in 0..32u64 {
        let drawn = random_program(seed);
        // Statically: the loop compiles to a closed form iff it is closed.
        let p = &drawn.program;
        let main = p.entry;
        let heads = loop_heads(p.compiled(main));
        assert_eq!(heads.len(), 1, "seed {seed}");
        assert_eq!(
            compile_loop(p, main, heads[0]).is_some(),
            drawn.closed,
            "seed {seed}: closed form detection"
        );
        let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9);
        let intervals = [1 + rng.next_u64() % 7, 31 + rng.next_u64() % 200, 10_000];
        for mode in [FingerprintMode::Full, FingerprintMode::Coarse] {
            for &interval in &intervals {
                let s = spec_for(drawn.program.clone(), seed.wrapping_mul(3) + 1, interval)
                    .with_fingerprint(mode);
                let what = format!("seed {seed} {mode:?} interval {interval}");
                assert_three_tier_equal(&s, |_| {}, &what);
                // At run time too: a loop with a poison fragment never
                // tiers up (the worker's loop reads a static, so it never
                // does either, and passthrough runs no helper).
                let pass = passthrough_run(&s, |_| {});
                if drawn.closed {
                    closed_ran += (pass.mega.closed_iters > 0) as u32;
                } else {
                    assert_eq!(pass.mega.tier_ups, 0, "{what}: a poisoned loop tiered up");
                    poisoned += 1;
                }
            }
        }
    }
    assert!(
        closed_ran > 0 && poisoned > 0,
        "property is vacuous: {closed_ran} runs retired closed passes, {poisoned} were poisoned"
    );
}

// ---------------------------------------------------------------------------
// 2. The whole registry, including cross-tier replay
// ---------------------------------------------------------------------------

#[test]
fn tier_2_is_neutral_across_the_workload_suite() {
    for w in workloads::registry() {
        let mut s = ExecSpec::new((w.build)()).with_seed(11);
        s.timer_base = 97;
        s.timer_jitter = 23;
        s.max_steps = 3_000_000;
        let rec_m = assert_three_tier_equal(&s, w.natives, w.name);
        if w.name == "fig1_hot" {
            assert!(
                rec_m.mega.tier_ups >= 2 && rec_m.mega.closed_iters > 1_000,
                "fig1_hot must genuinely run tier 2 under the default Full fingerprint: {:?}",
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
                rep_m.mega.closed_iters > 0,
                "fig1_hot replay must retire closed passes too: {:?}",
                rep_m.mega
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Coarse fingerprinting
// ---------------------------------------------------------------------------

/// Every test above runs under `FingerprintMode::Full`, the default
/// (`VmConfig::default()`), where the closed form folds each batch's pc
/// mixes. `Coarse` mixes no pcs at all, so the closed form runs there
/// without a fold; it gets its own neutrality proof — traces,
/// cross-tier replay, and a witness that the fast path fired.
#[test]
fn coarse_fingerprint_arms_the_closed_form_and_stays_neutral() {
    for (seed, interval) in [(3u64, 97u64), (5, 211), (8, 10_000)] {
        let s = spec_for(random_program(seed).program, seed + 1, interval)
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

/// The schedulers' worst cases at a short quantum: `lock_convoy`'s
/// closed loop enters and hands back around a preemption every few passes.
#[test]
fn stress_workloads_are_tier_neutral_at_a_short_quantum() {
    for name in ["recursion_storm", "lock_convoy"] {
        let w = workloads::registry()
            .into_iter()
            .find(|w| w.name == name)
            .unwrap();
        let mut s = ExecSpec::new((w.build)()).with_seed(13);
        s.timer_base = 61;
        s.timer_jitter = 17;
        s.max_steps = 3_000_000;
        assert_three_tier_equal(&s, w.natives, &format!("{name} at timer 61"));
    }
}

/// Ticks inside a closed pass. Two threads race closed loops of width `w`
/// under fixed timer intervals of `w − 1`, `w`, `w + 1` and 1: a tick
/// lands in the pass whose closing yield point switches, and some passes
/// take two ticks (every pass takes `w` at interval 1). Tier 2 retires
/// those passes and performs their switching yield points itself, so
/// every tier must agree — in passthrough, record and replay, under both
/// fingerprint modes — on the fingerprint, the state, the yield points,
/// the trace and the timer-interval histogram.
#[test]
fn ticks_inside_a_closed_pass_are_tier_neutral() {
    let program = workloads::fig1::fig1_ab_scaled(2_000);
    let main = program.entry;
    let width = loop_heads(program.compiled(main))
        .into_iter()
        .find_map(|head| compile_loop(&program, main, head))
        .expect("fig1_ab_scaled's delay loop is closed")
        .width;
    let observe = |r: &dejavu::RunReport| {
        let t = r.telemetry.as_ref().expect("telemetry is on");
        (
            r.fingerprint,
            r.state_digest,
            r.output.clone(),
            r.counters.steps,
            r.counters.yield_points,
            r.counters.preemptive_switches,
            t.histograms.timer_intervals.to_json().to_string(),
        )
    };
    for mode in [FingerprintMode::Full, FingerprintMode::Coarse] {
        for interval in [width - 1, width, width + 1, 1] {
            let mut s = ExecSpec::new(program.clone()).with_seed(5);
            s.timer_base = interval;
            s.timer_jitter = 0;
            let s = s.with_fingerprint(mode).with_telemetry();
            let what = format!("{mode:?} interval {interval} (pass width {width})");
            let tiers = [
                s.clone().with_quicken(false),
                s.clone().with_quicken(true).with_mega(false),
                s.clone().with_quicken(true).with_mega(true),
            ];
            let runs: Vec<_> = tiers
                .iter()
                .map(|t| {
                    let pass = passthrough_run(t, |_| {});
                    let (rec, trace) = record_run(t, |_| {}, SymmetryConfig::full(), true);
                    let (rep, desyncs) = replay_run(t, trace.clone(), SymmetryConfig::full());
                    assert!(desyncs.is_empty(), "{what}: replay desynced");
                    assert!(rec.matches(&rep), "{what}: record vs replay");
                    let closed = pass.mega.closed_iters;
                    let seen = [observe(&pass), observe(&rec), observe(&rep)];
                    (seen, trace, closed)
                })
                .collect();
            for tier in 1..3 {
                assert_eq!(runs[0].0, runs[tier].0, "{what}: tier {tier} observables");
                assert_eq!(runs[0].1, runs[tier].1, "{what}: tier {tier} trace");
            }
            assert!(runs[2].2 > 0, "{what}: tier 2 retired no pass");
        }
    }
}

// ---------------------------------------------------------------------------
// 4. The closed form's fingerprint fold is exact
// ---------------------------------------------------------------------------

/// For every loop head of every registry workload and of the random
/// programs above (walked the way `dis --mega` walks them), a closed
/// loop's `fold` applied `n` times to a drawn `h` and `tid` equals stepping
/// each pc of `n` passes, head through backedge, through `mix_step`.
#[test]
fn every_closed_loop_fold_equals_its_stepped_pc_mixes() {
    let programs = workloads::registry()
        .into_iter()
        .map(|w| (w.name.to_string(), (w.build)()))
        .chain((0..10).map(|seed| (format!("random {seed}"), random_program(seed).program)));
    let mut rng = SplitMix64::new(0xF01D);
    let mut closed = 0;
    for (name, p) in programs {
        for method in 0..p.methods.len() as MethodId {
            for head in loop_heads(p.compiled(method)) {
                let Some(cl) = compile_loop(&p, method, head) else {
                    continue;
                };
                closed += 1;
                for _ in 0..8 {
                    let (h, tid, n) = (rng.next_u64(), rng.next_u64() as u32, rng.next_u64() % 4);
                    let pass = head..head + cl.width as u32;
                    let stepped = (0..n).fold(h, |h, _| {
                        pass.clone()
                            .fold(h, |h, pc| Fingerprint::mix_step(h, tid, method, pc))
                    });
                    assert_eq!(
                        cl.fold.apply(h, tid, n),
                        stepped,
                        "{name}: method {method} loop @{head}, {n} passes on t{tid}"
                    );
                }
            }
        }
    }
    assert!(closed >= 10, "vacuous: {closed} closed loops");
}
