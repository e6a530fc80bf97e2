//! Property-based tests on the core invariants, driven by the in-repo
//! [`dejavu_repro::qc`] harness (deterministic SplitMix64 generation +
//! shrinking-lite — no proptest; the build is hermetic).

use dejavu::{passthrough_run, record_replay, record_run, replay_run, ExecSpec, SymmetryConfig};
use dejavu_repro::qc::{self, Gen};
use dejavu_repro::{qc_assert, qc_assert_eq};
use djvm::{FingerprintMode, ProgramBuilder, Ty};

// ---------------------------------------------------------------------
// 1. The interpreter computes arithmetic exactly like a host-side model.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Expr {
    Const(i32),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
}

/// Recursive generator, depth-bounded like the old
/// `prop_recursive(4, ..)` strategy.
fn gen_expr(g: &mut Gen, depth: u32) -> Expr {
    // Draw-order stability: the shape draw happens before the subtree
    // draws, so shrinking the shape raw toward 0 collapses to a leaf.
    let choice = if depth == 0 { 0 } else { g.u64_in(0, 4) };
    match choice {
        0 => Expr::Const(g.any_i32()),
        1 => Expr::Add(gen_expr(g, depth - 1).into(), gen_expr(g, depth - 1).into()),
        2 => Expr::Sub(gen_expr(g, depth - 1).into(), gen_expr(g, depth - 1).into()),
        3 => Expr::Mul(gen_expr(g, depth - 1).into(), gen_expr(g, depth - 1).into()),
        _ => Expr::Xor(gen_expr(g, depth - 1).into(), gen_expr(g, depth - 1).into()),
    }
}

fn eval(e: &Expr) -> i64 {
    match e {
        Expr::Const(v) => *v as i64,
        Expr::Add(a, b) => eval(a).wrapping_add(eval(b)),
        Expr::Sub(a, b) => eval(a).wrapping_sub(eval(b)),
        Expr::Mul(a, b) => eval(a).wrapping_mul(eval(b)),
        Expr::Xor(a, b) => eval(a) ^ eval(b),
    }
}

fn emit(e: &Expr, a: &mut djvm::builder::Asm) {
    match e {
        Expr::Const(v) => {
            a.iconst(*v as i64);
        }
        Expr::Add(x, y) => {
            emit(x, a);
            emit(y, a);
            a.add();
        }
        Expr::Sub(x, y) => {
            emit(x, a);
            emit(y, a);
            a.sub();
        }
        Expr::Mul(x, y) => {
            emit(x, a);
            emit(y, a);
            a.mul();
        }
        Expr::Xor(x, y) => {
            emit(x, a);
            emit(y, a);
            a.bxor();
        }
    }
}

#[test]
fn interpreter_matches_host_arithmetic() {
    qc::check("interpreter_matches_host_arithmetic", 64, |g| {
        let e = gen_expr(g, 4);
        let mut pb = ProgramBuilder::new();
        let m = pb.method("main", 0, 0).code(|a| {
            emit(&e, a);
            a.print();
            a.halt();
        });
        let spec = ExecSpec::new(pb.finish(m).unwrap());
        let r = passthrough_run(&spec, |_| {});
        qc_assert_eq!(
            r.output.trim().parse::<i64>().unwrap(),
            eval(&e),
            "expr {e:?}"
        );
        Ok(())
    });
}

// ---------------------------------------------------------------------
// 2. Executions are pure functions of the seed: bit-identical twice.
// ---------------------------------------------------------------------

#[test]
fn execution_is_deterministic_given_the_seed() {
    qc::check("execution_is_deterministic_given_the_seed", 64, |g| {
        let seed = g.u64_in(0, 999);
        let base = g.u64_in(11, 199);
        let w = workloads::suite::racy_counter(60);
        let mut s1 = ExecSpec::new(w.clone()).with_seed(seed);
        s1.timer_base = base;
        s1.timer_jitter = base / 3;
        let mut s2 = ExecSpec::new(w).with_seed(seed);
        s2.timer_base = base;
        s2.timer_jitter = base / 3;
        let a = passthrough_run(&s1, |_| {});
        let b = passthrough_run(&s2, |_| {});
        qc_assert_eq!(a.fingerprint, b.fingerprint);
        qc_assert_eq!(a.state_digest, b.state_digest);
        Ok(())
    });
}

// ---------------------------------------------------------------------
// 3. Replay accuracy holds for arbitrary seeds and timer shapes.
// ---------------------------------------------------------------------

#[test]
fn replay_is_accurate_for_any_seed() {
    qc::check("replay_is_accurate_for_any_seed", 64, |g| {
        let seed = g.u64_in(0, 9_999);
        let base = g.u64_in(13, 149);
        let w = workloads::suite::racy_counter(80);
        let mut s = ExecSpec::new(w).with_seed(seed);
        s.timer_base = base;
        s.timer_jitter = base / 4;
        let (rec, rep, ok) = record_replay(&s, |_| {}, SymmetryConfig::full());
        qc_assert!(ok, "rec {:?} rep {:?}", rec.output, rep.output);
        Ok(())
    });
}

// ---------------------------------------------------------------------
// 3b. The telemetry sink is perturbation-free for arbitrary seeds and
//     timer shapes: every guest-visible quantity is bit-identical with
//     the observer on vs. off, on both sides of the record/replay pair.
// ---------------------------------------------------------------------

#[test]
fn telemetry_is_neutral_for_any_seed() {
    qc::check("telemetry_is_neutral_for_any_seed", 32, |g| {
        let seed = g.u64_in(0, 9_999);
        let base = g.u64_in(13, 149);
        let w = workloads::suite::racy_counter(60);
        let mut off = ExecSpec::new(w).with_seed(seed);
        off.timer_base = base;
        off.timer_jitter = base / 4;
        let on = off.clone().with_telemetry();
        let (rec_off, rep_off, ok_off) = record_replay(&off, |_| {}, SymmetryConfig::full());
        let (rec_on, rep_on, ok_on) = record_replay(&on, |_| {}, SymmetryConfig::full());
        qc_assert_eq!(
            rec_off.fingerprint,
            rec_on.fingerprint,
            "record fingerprint"
        );
        qc_assert_eq!(rec_off.state_digest, rec_on.state_digest, "record digest");
        qc_assert_eq!(
            rep_off.fingerprint,
            rep_on.fingerprint,
            "replay fingerprint"
        );
        qc_assert_eq!(rep_off.state_digest, rep_on.state_digest, "replay digest");
        qc_assert_eq!(rec_off.output, rec_on.output, "record output");
        qc_assert_eq!(ok_off, ok_on, "accuracy verdict");
        Ok(())
    });
}

// ---------------------------------------------------------------------
// 3c. The replay-time profiler is perturbation-free and deterministic
//     for arbitrary seeds and timer shapes: a profiled replay has the
//     same guest-visible identity as an unprofiled one, and two profiled
//     replays of the same trace produce byte-identical artifacts.
// ---------------------------------------------------------------------

#[test]
fn profiler_is_neutral_and_deterministic_for_any_seed() {
    qc::check(
        "profiler_is_neutral_and_deterministic_for_any_seed",
        24,
        |g| {
            let seed = g.u64_in(0, 9_999);
            let base = g.u64_in(13, 149);
            let w = workloads::suite::racy_counter(60);
            let mut spec = ExecSpec::new(w).with_seed(seed);
            spec.timer_base = base;
            spec.timer_jitter = base / 4;
            let (rec, trace) = dejavu::record_run(&spec, |_| {}, SymmetryConfig::full(), true);
            let (plain, d0) = dejavu::replay_run(&spec, trace.clone(), SymmetryConfig::full());
            let (p1, rep, d1) =
                dejavu::profile_replay(&spec, trace.clone(), SymmetryConfig::full());
            qc_assert_eq!(d0.is_empty(), d1.is_empty(), "desync verdict");
            qc_assert_eq!(
                rep.fingerprint,
                plain.fingerprint,
                "replay fingerprint on vs off"
            );
            qc_assert_eq!(
                rep.state_digest,
                plain.state_digest,
                "replay digest on vs off"
            );
            qc_assert_eq!(rep.output, plain.output, "replay output on vs off");
            qc_assert_eq!(
                rep.fingerprint,
                rec.fingerprint,
                "profiled replay vs record"
            );
            let (p2, _, _) = dejavu::profile_replay(&spec, trace, SymmetryConfig::full());
            qc_assert_eq!(
                p1.chrome_json().to_string(),
                p2.chrome_json().to_string(),
                "chrome artifact bytes"
            );
            qc_assert_eq!(p1.folded(), p2.folded(), "folded artifact bytes");
            qc_assert_eq!(
                p1.summary_json(10).to_string(),
                p2.summary_json(10).to_string(),
                "summary bytes"
            );
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// 5. Guest data structures survive GC: random linked-list contents
//    are intact after heavy churn, under both collectors.
// ---------------------------------------------------------------------

#[test]
fn gc_preserves_linked_list() {
    qc::check("gc_preserves_linked_list", 24, |g| {
        let values = g.vec_of(1, 30, |g| g.i64_in(0, 999));
        let expected: i64 = values.iter().sum();
        for gc in [djvm::GcKind::MarkSweep, djvm::GcKind::Copying] {
            let mut pb = ProgramBuilder::new();
            let node = pb
                .class("Node")
                .field("v", Ty::Int)
                .field("next", Ty::Ref)
                .build();
            let m = pb.method("main", 0, 4).code(|a| {
                a.null().store(0);
                // build the list with the literal values
                for &v in &values {
                    a.new(node).store(1);
                    a.load(1).iconst(v).put_field(0);
                    a.load(1).load(0).put_field_ref(1);
                    a.load(1).store(0);
                }
                // churn garbage to force collections
                a.iconst(0).store(2);
                a.label("churn");
                a.load(2).iconst(400).ge().if_nz("sum");
                a.iconst(16).new_array_int().pop();
                a.load(2).iconst(1).add().store(2);
                a.goto("churn");
                // sum the list
                a.label("sum");
                a.iconst(0).store(3);
                a.label("walk");
                a.load(0).null().ref_eq().if_nz("done");
                a.load(3).load(0).get_field(0).add().store(3);
                a.load(0).get_field_ref(1).store(0);
                a.goto("walk");
                a.label("done");
                a.load(3).print();
                a.halt();
            });
            let mut s = ExecSpec::new(pb.finish(m).unwrap());
            s.vm.heap_words = 8 * 1024;
            s.vm.gc = gc;
            let r = passthrough_run(&s, |_| {});
            qc_assert_eq!(
                r.output.trim().parse::<i64>().unwrap(),
                expected,
                "gc {gc:?}"
            );
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------
// 6. Quickened dispatch is a pure speed optimisation. For random
//    programs built from the exact shapes the quickener fuses (and a
//    few it must refuse to fuse) and random timer shapes — always
//    including interval 1, the worst case for mid-fusion splits — the
//    fingerprint, the trace, and the final heap digest
//    are byte-identical with quickening on vs. off, and a trace
//    recorded in one mode replays accurately under the other.
// ---------------------------------------------------------------------

/// One random loop-body statement. Variants map one-to-one onto the
/// quickener's superinstruction patterns (`Const+Store`,
/// `Load+Load+Alu`, `Load+Const+Alu`, compare+branch) plus the ops tier 1
/// runs in its cursor but that can trap or reach the hook: `div`/`rem`
/// (a zero divisor), statics, fields (a null reference), arrays (an index
/// out of bounds), clock reads and native calls with callbacks. Every
/// trap must land at the same pc in every tier.
#[derive(Debug, Clone)]
enum QStmt {
    ConstStore {
        v: i64,
        d: u16,
    },
    LoadLoadAlu {
        x: u16,
        y: u16,
        f: u8,
        d: u16,
    },
    LoadConstAlu {
        x: u16,
        v: i64,
        f: u8,
        d: u16,
    },
    CmpSkip {
        x: u16,
        y: u16,
        f: u8,
        nz: bool,
        v: i64,
        d: u16,
    },
    DivRem {
        x: u16,
        y: u16,
        rem: bool,
        d: u16,
    },
    NegStore {
        x: u16,
        d: u16,
    },
    /// `shared += x; d = shared`, over the static both threads race on.
    Static {
        x: u16,
        d: u16,
    },
    /// `rec.v = x; d = rec.v` on the thread's own object, or the store
    /// through null (a `NullDeref`) if `null`.
    Field {
        x: u16,
        d: u16,
        null: bool,
    },
    /// `arr[i] = x; d = arr[i] + arr.length` on the thread's 4-element
    /// array, at index `i & 3`, or at `i` itself if `wild` (out of bounds
    /// unless it lands in range).
    Array {
        i: u16,
        x: u16,
        d: u16,
        wild: bool,
    },
    /// `d = now() rem 1000`: a clock read, logged.
    Now {
        d: u16,
    },
    /// `d = probe(x)`: a native call, logged; it sometimes asks for a
    /// callback that runs before the caller continues.
    Native {
        x: u16,
        d: u16,
    },
}

fn gen_stmt(g: &mut Gen, ndata: u16) -> QStmt {
    // Data locals are 1..=ndata; local 0 is the loop counter and only
    // the loop head writes it, so every drawn program terminates.
    let l = |g: &mut Gen| g.usize_in(1, ndata as usize) as u16;
    match g.u64_in(0, 15) {
        0 | 1 => QStmt::ConstStore {
            v: g.i64_in(-99, 99),
            d: l(g),
        },
        2 | 3 => QStmt::LoadLoadAlu {
            x: l(g),
            y: l(g),
            f: g.u64_in(0, 7) as u8,
            d: l(g),
        },
        4 | 5 => QStmt::LoadConstAlu {
            x: l(g),
            v: g.i64_in(-9, 9),
            f: g.u64_in(0, 7) as u8,
            d: l(g),
        },
        6 | 7 => QStmt::CmpSkip {
            x: l(g),
            y: l(g),
            f: g.u64_in(0, 5) as u8,
            nz: g.bool(),
            v: g.i64_in(0, 9),
            d: l(g),
        },
        8 => QStmt::DivRem {
            x: l(g),
            y: l(g),
            rem: g.bool(),
            d: l(g),
        },
        9 => QStmt::NegStore { x: l(g), d: l(g) },
        10 => QStmt::Static { x: l(g), d: l(g) },
        11 => QStmt::Field {
            x: l(g),
            d: l(g),
            null: g.u64_in(0, 15) == 0,
        },
        12 | 13 => QStmt::Array {
            i: l(g),
            x: l(g),
            d: l(g),
            wild: g.u64_in(0, 7) == 0,
        },
        14 => QStmt::Now { d: l(g) },
        _ => QStmt::Native { x: l(g), d: l(g) },
    }
}

fn emit_alu(f: u8, a: &mut djvm::builder::Asm) {
    match f % 8 {
        0 => a.add(),
        1 => a.sub(),
        2 => a.mul(),
        3 => a.band(),
        4 => a.bor(),
        5 => a.bxor(),
        6 => a.shl(),
        _ => a.shr(),
    };
}

fn emit_cmp(f: u8, a: &mut djvm::builder::Asm) {
    match f % 6 {
        0 => a.eq(),
        1 => a.ne(),
        2 => a.lt(),
        3 => a.le(),
        4 => a.gt(),
        _ => a.ge(),
    };
}

/// The classes, natives and per-thread locals a statement can use.
struct QEnv {
    shared: djvm::ClassId,
    probe: djvm::NativeId,
    /// The thread's own `C` object and 4-element int array.
    rec: u16,
    arr: u16,
}

fn emit_stmt(s: &QStmt, env: &QEnv, tag: &str, i: usize, a: &mut djvm::builder::Asm) {
    match s {
        QStmt::ConstStore { v, d } => {
            a.iconst(*v).store(*d);
        }
        QStmt::LoadLoadAlu { x, y, f, d } => {
            a.load(*x).load(*y);
            emit_alu(*f, a);
            a.store(*d);
        }
        QStmt::LoadConstAlu { x, v, f, d } => {
            a.load(*x).iconst(*v);
            emit_alu(*f, a);
            a.store(*d);
        }
        QStmt::CmpSkip { x, y, f, nz, v, d } => {
            let skip = format!("{tag}_skip{i}");
            a.load(*x).load(*y);
            emit_cmp(*f, a);
            if *nz {
                a.if_nz(&skip);
            } else {
                a.if_z(&skip);
            }
            a.iconst(*v).store(*d);
            a.label(&skip);
        }
        QStmt::DivRem { x, y, rem, d } => {
            a.load(*x).load(*y);
            if *rem {
                a.rem();
            } else {
                a.div();
            }
            a.store(*d);
        }
        QStmt::NegStore { x, d } => {
            a.load(*x);
            a.neg();
            a.store(*d);
        }
        QStmt::Static { x, d } => {
            a.get_static(env.shared, 0)
                .load(*x)
                .add()
                .put_static(env.shared, 0);
            a.get_static(env.shared, 0).store(*d);
        }
        QStmt::Field { x, d, null } => {
            if *null {
                a.null();
            } else {
                a.load(env.rec);
            }
            a.load(*x).put_field(0);
            a.load(env.rec).get_field(0).store(*d);
        }
        QStmt::Array { i, x, d, wild } => {
            let index = |a: &mut djvm::builder::Asm| {
                a.load(*i);
                if !*wild {
                    a.iconst(3).band();
                }
            };
            a.load(env.arr);
            index(a);
            a.load(*x).astore();
            a.load(env.arr);
            index(a);
            a.aload().load(env.arr).array_len().add().store(*d);
        }
        QStmt::Now { d } => {
            a.now().iconst(1000).rem().store(*d);
        }
        QStmt::Native { x, d } => {
            a.load(*x).native_call(env.probe, 1).store(*d);
        }
    }
}

/// Register `probe`, the native [`build_quick_program`] declares: its
/// result salts the argument with the clock, and every fourth result asks
/// for an `onCb` callback.
fn quick_natives(vm: &mut djvm::Vm) {
    let probe = vm.program.native_id_by_name("probe").unwrap();
    let on_cb = vm.program.method_id_by_name("onCb").unwrap();
    vm.natives.register(
        probe,
        Box::new(move |ctx| {
            let v = ctx.args[0].wrapping_mul(7).wrapping_add(ctx.now_millis) & 0xFF;
            let mut out = djvm::NativeOutcome::value(v);
            if v % 4 == 0 {
                out.callbacks.push(djvm::CallbackReq {
                    method: on_cb,
                    args: vec![v],
                });
            }
            out
        }),
    );
}

/// Two threads race random loop bodies over a shared static; the worker
/// additionally makes a statically-monomorphic virtual call each iteration
/// so devirtualized dispatch runs under random timer shapes.
fn build_quick_program(
    ndata: u16,
    init: &[i64],
    w_iters: i64,
    w_stmts: &[QStmt],
    m_iters: i64,
    m_stmts: &[QStmt],
) -> djvm::Program {
    let mut pb = ProgramBuilder::new();
    let shared = pb.class("G").static_field("x", Ty::Int).build();
    let c = pb.class("C").field("v", Ty::Int).build();
    let _mix = pb
        .virtual_method(c, "mix", vec![Ty::Int], 2, Some(Ty::Int))
        .code(|a| {
            a.load(0).dup().get_field(0).load(1).add().put_field(0);
            a.load(0).get_field(0).ret_val();
        });
    let mix_slot = pb.vslot(c, "mix");
    let _on_cb = pb.method("onCb", 1, 1).code(|a| {
        a.get_static(shared, 0).load(0).add().put_static(shared, 0);
        a.ret();
    });
    let obj = ndata + 1; // worker's receiver local / main's tid local
    let env = QEnv {
        shared,
        probe: pb.native("probe", 1, true),
        rec: ndata + 2,
        arr: ndata + 3,
    };
    let own = |a: &mut djvm::builder::Asm| {
        a.new(c).store(env.rec);
        a.iconst(4).new_array_int().store(env.arr);
    };
    let worker = pb.method("worker", 0, ndata + 4).code(|a| {
        for (i, v) in init.iter().enumerate() {
            a.iconst(*v).store(1 + i as u16);
        }
        own(a);
        a.new(c).store(obj);
        a.iconst(0).store(0);
        a.label("w_top");
        a.load(0).iconst(w_iters).ge().if_nz("w_done");
        a.get_static(shared, 0).load(1).add().put_static(shared, 0);
        a.load(obj).load(1).call_virtual(c, mix_slot).store(1);
        for (i, s) in w_stmts.iter().enumerate() {
            emit_stmt(s, &env, "w", i, a);
        }
        a.load(0).iconst(1).add().store(0);
        a.goto("w_top");
        a.label("w_done");
        a.ret();
    });
    let m = pb.method("main", 0, ndata + 4).code(|a| {
        a.iconst(0).put_static(shared, 0);
        a.spawn(worker, 0).store(obj);
        for (i, v) in init.iter().enumerate() {
            a.iconst(*v).store(1 + i as u16);
        }
        own(a);
        a.iconst(0).store(0);
        a.label("m_top");
        a.load(0).iconst(m_iters).ge().if_nz("m_done");
        a.get_static(shared, 0).load(1).add().put_static(shared, 0);
        for (i, s) in m_stmts.iter().enumerate() {
            emit_stmt(s, &env, "m", i, a);
        }
        a.load(0).iconst(1).add().store(0);
        a.goto("m_top");
        a.label("m_done");
        a.load(obj).join();
        a.get_static(shared, 0).print();
        a.load(1).print();
        a.halt();
    });
    pb.finish(m).unwrap()
}

/// Record under every tier — generic, quickened, and quickened with tier
/// 2 — and both fingerprint modes, and demand byte-identical observables
/// per mode; then cross-replay the generic and the default trace under
/// each other's tier.
fn quicken_modes_agree(spec: &ExecSpec) -> Result<(), String> {
    for mode in [FingerprintMode::Full, FingerprintMode::Coarse] {
        let spec = spec.clone().with_fingerprint(mode);
        let u = spec.clone().with_quicken(false);
        let q = spec.clone().with_mega(false);
        let (rec_u, trace_u) = record_run(&u, quick_natives, SymmetryConfig::full(), true);
        for (tier, s) in [("quickened", &q), ("tier 2", &spec)] {
            let (rec, trace) = record_run(s, quick_natives, SymmetryConfig::full(), true);
            qc_assert_eq!(
                rec.fingerprint,
                rec_u.fingerprint,
                "{} under {:?}, {} against generic",
                "fingerprint",
                mode,
                tier
            );
            qc_assert_eq!(
                rec.state_digest,
                rec_u.state_digest,
                "{} under {:?}, {} against generic",
                "final heap digest",
                mode,
                tier
            );
            qc_assert_eq!(
                &rec.output,
                &rec_u.output,
                "{} under {:?}, {} against generic",
                "console output",
                mode,
                tier
            );
            qc_assert_eq!(
                rec.status,
                rec_u.status,
                "{} under {:?}, {} against generic",
                "termination status",
                mode,
                tier
            );
            qc_assert_eq!(
                rec.counters.steps,
                rec_u.counters.steps,
                "{} under {:?}, {} against generic",
                "step count",
                mode,
                tier
            );
            qc_assert_eq!(
                rec.cycles,
                rec_u.cycles,
                "{} under {:?}, {} against generic",
                "cycle count",
                mode,
                tier
            );
            qc_assert_eq!(
                &trace,
                &trace_u,
                "{} under {:?}, {} against generic",
                "trace",
                mode,
                tier
            );
        }
        let (rec_d, trace_d) = record_run(&spec, quick_natives, SymmetryConfig::full(), true);
        let (rep_d, de_d) = replay_run(&spec, trace_u, SymmetryConfig::full());
        qc_assert!(
            de_d.is_empty(),
            "desyncs replaying the generic trace in tier 2"
        );
        qc_assert!(rec_u.matches(&rep_d), "generic trace under a tier-2 replay");
        let (rep_u, de_u) = replay_run(&u, trace_d, SymmetryConfig::full());
        qc_assert!(de_u.is_empty(), "desyncs replaying a tier-2 trace generic");
        qc_assert!(rec_d.matches(&rep_u), "tier-2 trace under a generic replay");
    }
    Ok(())
}

#[test]
fn quickening_is_neutral_for_random_programs() {
    qc::check("quickening_is_neutral_for_random_programs", 24, |g| {
        let ndata = g.usize_in(2, 4) as u16;
        let init: Vec<i64> = (0..ndata).map(|_| g.i64_in(-50, 50)).collect();
        let w_iters = g.i64_in(2, 30);
        let m_iters = g.i64_in(2, 30);
        let w_stmts = g.vec_of(1, 8, |g| gen_stmt(g, ndata));
        let m_stmts = g.vec_of(1, 8, |g| gen_stmt(g, ndata));
        let program = build_quick_program(ndata, &init, w_iters, &w_stmts, m_iters, &m_stmts);
        let seed = g.u64_in(0, 9_999);
        let base = g.u64_in(2, 33);
        let jitter = g.u64_in(0, base / 2);
        // The drawn timer shape, plus the interval-1 worst case: a timer
        // that can expire inside every superinstruction window, forcing
        // the split rule on every fused op.
        for (b, j) in [(base, jitter), (1, 0)] {
            let mut s = ExecSpec::new(program.clone()).with_seed(seed);
            s.timer_base = b;
            s.timer_jitter = j;
            quicken_modes_agree(&s)?;
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------
// 6b. The fusion law: a superinstruction is its constituents in order.
// ---------------------------------------------------------------------

/// A fused form the quickener can emit.
#[derive(Debug)]
enum Fused {
    Op(djvm::compile::Pure),
    Branch(djvm::compile::Test),
}

/// Directly on `Pure::exec` / `Test::eval` (no program, no VM): for a
/// random frame and every fused micro-op, the fused form leaves the same
/// locals, live operand stack, `sp` and branch sense as its constituents'
/// single forms run in order. Whole-program fingerprints check this only
/// indirectly.
#[test]
fn fused_micro_ops_equal_their_constituents_in_order() {
    use djvm::compile::{Pure, Test};
    use djvm::{AluFn, CmpFn, Op};
    const NLOCALS: u64 = 4;
    let alus = [
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::BitAnd,
        Op::BitOr,
        Op::BitXor,
        Op::Shl,
        Op::Shr,
    ];
    let cmps = [Op::Eq, Op::Ne, Op::Lt, Op::Le, Op::Gt, Op::Ge];
    qc::check(
        "fused_micro_ops_equal_their_constituents_in_order",
        512,
        |g| {
            // Small values half the time, so comparisons tie and shifts
            // stay in range often enough to matter.
            let word = |g: &mut Gen| {
                if g.bool() {
                    g.any_i64()
                } else {
                    g.i64_in(-3, 66)
                }
            };
            // The frame: four locals, then an operand stack with 2..=4
            // live words and dead words above them.
            let frame: Vec<u64> = (0..NLOCALS + 8).map(|_| word(g) as u64).collect();
            let sp = NLOCALS + g.u64_in(2, 4);
            let (a, b) = (g.u64_in(0, 3) as u16, g.u64_in(0, 3) as u16);
            let v = word(g);
            let alu = alus[g.usize_in(0, alus.len() - 1)];
            let cmp = cmps[g.usize_in(0, cmps.len() - 1)];
            let (fa, fc) = (AluFn::of(alu).unwrap(), CmpFn::of(cmp).unwrap());
            // Each pattern of `try_fuse`, with the source ops it replaces
            // (a fused test also replaces the If/IfZ that follows them).
            let (fused, parts) = match g.u64_in(0, 4) {
                0 => (
                    Fused::Op(Pure::ConstStore { v, local: a }),
                    vec![Op::Const(v), Op::Store(a)],
                ),
                1 => (
                    Fused::Op(Pure::LoadLoadAlu { a, b, f: fa }),
                    vec![Op::Load(a), Op::Load(b), alu],
                ),
                2 => (
                    Fused::Op(Pure::LoadConstAlu { a, v, f: fa }),
                    vec![Op::Load(a), Op::Const(v), alu],
                ),
                3 => (Fused::Branch(Test::Cmp(fc)), vec![cmp]),
                _ => (
                    Fused::Branch(Test::LoadConstCmp { a, v, f: fc }),
                    vec![Op::Load(a), Op::Const(v), cmp],
                ),
            };

            let mut singles = frame.clone();
            let mut sp1 = sp;
            for &op in &parts {
                let p = Pure::of(op).expect("constituents are total");
                qc_assert_eq!(p.width(), 1);
                sp1 = p.exec(&mut singles, sp1, 0);
            }
            let mut batched = frame.clone();
            let sp2 = match fused {
                Fused::Op(p) => {
                    qc_assert_eq!(p.width() as usize, parts.len());
                    p.exec(&mut batched, sp, 0)
                }
                Fused::Branch(t) => {
                    qc_assert_eq!(t.width() as usize, parts.len() + 1);
                    let (sense1, pops1) = Test::Top.eval(&singles, sp1, 0);
                    sp1 -= pops1;
                    let (sense2, pops2) = t.eval(&batched, sp, 0);
                    qc_assert_eq!(sense1, sense2, "branch sense of {fused:?}");
                    sp - pops2
                }
            };
            qc_assert_eq!(sp1, sp2, "sp after {fused:?}");
            qc_assert_eq!(
                &singles[..sp1 as usize],
                &batched[..sp2 as usize],
                "locals and live stack after {fused:?}"
            );
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// 7. Clock implementations are monotone for arbitrary cycle inputs.
// ---------------------------------------------------------------------

#[test]
fn clocks_are_monotone() {
    qc::check("clocks_are_monotone", 256, |g| {
        use djvm::clock::WallClock;
        let seed = g.any_u64();
        let mut cycles = g.vec_of(1, 50, |g| g.u64_in(0, 999_999));
        let warp = g.i64_in(0, 999_999);
        cycles.sort_unstable();
        let mut c = djvm::JitteredClock::new(seed, 0, 10, 25);
        let mut last = i64::MIN;
        for (i, &cy) in cycles.iter().enumerate() {
            if i == cycles.len() / 2 {
                c.warp_to(warp);
            }
            let t = c.now(cy);
            qc_assert!(t >= last, "cycle {cy}: {t} < {last}");
            last = t;
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------
// 8. The block trace format is lossless and tamper-evident: random
//    event streams × random block budgets roundtrip exactly (including
//    empty traces and single-event blocks), re-encoding is
//    byte-deterministic, and a truncated tail is always detected.
// ---------------------------------------------------------------------

fn gen_trace(g: &mut Gen) -> dejavu::Trace {
    use dejavu::{DataRec, SwitchRec};
    let paranoid = g.bool();
    let mut t = dejavu::Trace {
        paranoid,
        ..dejavu::Trace::default()
    };
    // Mostly realistic narrow-band values, occasionally adversarial
    // extremes (u64::MAX nyp, i64::MIN clocks) to stress the
    // frame-of-reference columns and saturating logical-time index.
    t.switches = g.vec_of(0, 120, |g| SwitchRec {
        nyp: if g.u64_in(0, 19) == 0 {
            g.any_u64().max(1)
        } else {
            g.u64_in(1, 400)
        },
        check_tid: if paranoid {
            g.u64_in(0, 3) as u32
        } else {
            u32::MAX
        },
    });
    t.data = g.vec_of(0, 120, |g| {
        if g.bool() {
            DataRec::Clock(if g.u64_in(0, 19) == 0 {
                g.any_i64()
            } else {
                1_000_000 + g.i64_in(0, 5_000)
            })
        } else {
            DataRec::Native {
                ret: g.any_i64(),
                callbacks: g.vec_of(0, 3, |g| {
                    (g.u64_in(0, 90) as u32, g.vec_of(0, 4, |g| g.any_i64()))
                }),
            }
        }
    });
    t
}

#[test]
fn block_trace_roundtrips_and_detects_truncation() {
    qc::check("block_trace_roundtrips_and_detects_truncation", 128, |g| {
        let t = gen_trace(g);
        let budget = g.u64_in(1, 200) as u32;
        let enc = dejavu::encode_trace(&t, dejavu::TraceFormat::Block, budget);
        qc_assert_eq!(
            dejavu::encode_trace(&t, dejavu::TraceFormat::Block, budget),
            enc.clone(),
            "encoding must be byte-deterministic"
        );
        let bf = dejavu::BlockFile::parse(enc.clone())
            .map_err(|e| format!("own encoding rejected: {e}"))?;
        let back = bf.to_trace().map_err(|e| format!("decode failed: {e}"))?;
        qc_assert_eq!(back, t.clone(), "budget {budget}");
        let t2 = dejavu::ingest_bytes(enc.clone()).map_err(|e| format!("ingest_bytes: {e}"))?;
        qc_assert_eq!(t2.trace, t.clone(), "ingest_bytes roundtrip");

        // Any truncation of the tail must surface as a typed error —
        // between the footer checks and the per-block CRC there is no
        // cut point that yields a silently different trace.
        let cut = g.usize_in(1, enc.len());
        let short = enc[..enc.len() - cut].to_vec();
        let r = dejavu::BlockFile::parse(short).and_then(|bf| bf.to_trace());
        qc_assert!(r.is_err(), "accepted a {cut}-byte truncation");
        Ok(())
    });
}

// ---------------------------------------------------------------------
// 9. Time travel lands on the same state in every dispatch tier: it is
//    `interp::run_until` paused at checkpoint keys, so the generic,
//    quickened and tier-2 loops must take the same checkpoints and
//    stop every move on the same step — the step a plain budgeted replay
//    stops on.
// ---------------------------------------------------------------------

/// One drawn motion of a [`dejavu::TimeTravel`], targets already concrete.
#[derive(Debug, Clone, Copy)]
enum Move {
    Seek(u64),
    SeekLogical(u64),
    Advance(u64),
    StepOnce,
}

/// A target from {0, mid, end, past the end, one before / on / after a
/// checkpoint key, anywhere}.
fn gen_target(g: &mut Gen, end: u64, keys: &[u64]) -> u64 {
    let key = |g: &mut Gen| match keys.len() {
        0 => end / 3,
        n => keys[g.usize_in(0, n - 1)],
    };
    match g.u64_in(0, 9) {
        0 => 0,
        1 => end / 2,
        2 => end,
        3 => end + g.u64_in(1, 5),
        4 => key(g).saturating_sub(1),
        5 => key(g),
        6 => key(g).saturating_add(1),
        _ => g.u64_in(0, end),
    }
}

#[test]
fn time_travel_lands_on_the_same_state_in_every_tier() {
    use dejavu::{DejaVuReplayer, TimeTravel};
    use djvm::hook::ExecHook;
    use std::sync::Arc;
    let registry = workloads::registry();
    let sym = SymmetryConfig::full();
    qc::check(
        "time_travel_lands_on_the_same_state_in_every_tier",
        64,
        |g| {
            let w = &registry[g.usize_in(0, registry.len() - 1)];
            let spec = ExecSpec::new((w.build)()).with_seed(g.u64_in(0, 99));
            let (rec, trace) = record_run(&spec, w.natives, sym, true);
            let trace = Arc::new(trace);
            let (end, end_logical) = (rec.counters.steps, rec.counters.yield_points);

            // Checkpoint keys: a step cadence (possibly none) and a subset of
            // the run's block boundaries.
            let cadence = match g.u64_in(0, 3) {
                0 => u64::MAX,
                1 => end / 2 + 1,
                2 => end / 4 + 1,
                _ => g.u64_in(end / 6 + 1, end + 1),
            };
            let all_bounds =
                dejavu::ingest_bytes(dejavu::encode_trace(&trace, dejavu::TraceFormat::Block, 96))
                    .map_err(|e| format!("own encoding rejected: {e}"))?
                    .boundaries;
            // (An event-free run has no blocks to draw from.)
            let most = all_bounds.len().min(4);
            let mut bounds = g.vec_of(0, most, |g| all_bounds[g.usize_in(0, all_bounds.len() - 1)]);
            bounds.sort_unstable();
            let cadence_keys: Vec<u64> = (1..=6).map(|k| cadence.saturating_mul(k)).collect();

            let moves = g.vec_of(1, 8, |g| match g.u64_in(0, 3) {
                0 => Move::Seek(gen_target(g, end, &cadence_keys)),
                1 => Move::SeekLogical(gen_target(g, end_logical, &bounds)),
                2 => Move::Advance(match g.u64_in(0, 3) {
                    0 => 0,
                    1 => g.u64_in(1, 40),
                    2 => g.u64_in(0, end / 2),
                    _ => u64::MAX,
                }),
                _ => Move::StepOnce,
            });

            // Everything a client can see after each move, one tier at a time
            // (three tiers' checkpoints at once are not needed to compare
            // them).
            let drive = |spec: &ExecSpec| {
                let mut tt = TimeTravel::new_indexed(
                    spec.replay_vm(),
                    Arc::clone(&trace),
                    sym,
                    cadence,
                    bounds.clone(),
                );
                let mut seen = Vec::new();
                for &m in &moves {
                    let stats = match m {
                        Move::Seek(s) => {
                            tt.seek(s);
                            None
                        }
                        Move::SeekLogical(t) => Some(tt.seek_logical(t)),
                        Move::Advance(n) => {
                            tt.seek(tt.step.saturating_add(n));
                            None
                        }
                        Move::StepOnce => {
                            tt.seek(tt.step.saturating_add(1));
                            None
                        }
                    };
                    let keys: Vec<(u64, u64)> = tt
                        .checkpoints
                        .iter()
                        .map(|c| (c.at_step, c.at_logical))
                        .collect();
                    seen.push((
                        (tt.step, tt.logical_time(), tt.status()),
                        (tt.vm().state_digest(), tt.vm().fingerprint.digest()),
                        (tt.desyncs().len(), tt.restores, tt.reexecuted),
                        stats,
                        keys,
                    ));
                }
                seen
            };
            let seen = drive(&spec);
            qc_assert_eq!(
                drive(&spec.clone().with_mega(false)),
                seen.clone(),
                "{} without tier 2, cadence {cadence}, bounds {bounds:?}, {moves:?}",
                w.name
            );
            qc_assert_eq!(
                drive(&spec.clone().with_quicken(false)),
                seen.clone(),
                "{} unquickened, cadence {cadence}, bounds {bounds:?}, {moves:?}",
                w.name
            );

            // ...and each landing is where a plain replay with that step
            // budget stands.
            for (m, ((step, logical, status), (state, fp), ..)) in moves.iter().zip(&seen) {
                let mut vm = spec.replay_vm();
                let mut hook = DejaVuReplayer::new(Arc::clone(&trace), sym);
                hook.on_init(&mut vm);
                djvm::interp::run(&mut vm, &mut hook, *step);
                qc_assert_eq!(
                    (
                        vm.counters.yield_points,
                        vm.status,
                        vm.state_digest(),
                        vm.fingerprint.digest()
                    ),
                    (*logical, *status, *state, *fp),
                    "{} after {m:?} at step {step}",
                    w.name
                );
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// 10. One definition of a reference read: a reference bytecode gives the
//     same value, or the same guest error, in the application VM and
//     through the remote reflector over live and snapshot memory, for any
//     receiver word a client could name, object or not.
// ---------------------------------------------------------------------

/// A read-only method running one reference bytecode, and a guest wrapper
/// that calls it and halts with its result on the operand stack.
struct Probe {
    name: &'static str,
    method: djvm::MethodId,
    wrapper: djvm::MethodId,
    /// Takes an index after the receiver.
    index: bool,
}

/// `program` with a [`Probe`] per reference bytecode added (class ids are
/// unchanged, so the builtin classes keep theirs).
fn with_probes(program: &djvm::Program) -> (djvm::Program, Vec<Probe>) {
    use djvm::builder::Asm;
    let b = program.builtins;
    let slot = program.class(b.vm_method_class).vslots["getLineNumberAt"];
    let mut pb = ProgramBuilder::reopen(program);
    let mut probe = |name, index: bool, ret, op: &dyn Fn(&mut Asm)| {
        let args = if index {
            vec![Ty::Ref, Ty::Int]
        } else {
            vec![Ty::Ref]
        };
        let n = args.len() as u16;
        let push_args = |a: &mut Asm| {
            (0..n).for_each(|i| {
                a.load(i);
            })
        };
        let method = pb.method_typed(name, args.clone(), n, Some(ret)).code(|a| {
            push_args(a);
            op(a);
            a.ret_val();
        });
        let wrapper = pb.method_typed("probe", args, n, None).code(|a| {
            push_args(a);
            a.call(method).halt();
        });
        Probe {
            name,
            method,
            wrapper,
            index,
        }
    };
    let probes = vec![
        probe("getfield #0:int", false, Ty::Int, &|a| {
            a.get_field(0);
        }),
        probe("getfield #1:ref", false, Ty::Ref, &|a| {
            a.get_field_ref(1);
        }),
        probe("getfield #2:ref", false, Ty::Ref, &|a| {
            a.get_field_ref(2);
        }),
        probe("aload int", true, Ty::Int, &|a| {
            a.aload();
        }),
        probe("aload ref", true, Ty::Ref, &|a| {
            a.aload_ref();
        }),
        probe("arraylen", false, Ty::Int, &|a| {
            a.array_len();
        }),
        probe("identityhash", false, Ty::Int, &|a| {
            a.identity_hash();
        }),
        probe("instanceof VM_Method", false, Ty::Int, &|a| {
            a.instance_of(b.vm_method_class);
        }),
        probe("instanceof Thread", false, Ty::Int, &|a| {
            a.instance_of(b.thread_class);
        }),
        probe("callvirtual getLineNumberAt", false, Ty::Int, &|a| {
            a.iconst(1).call_virtual(b.vm_method_class, slot);
        }),
    ];
    (pb.finish(program.entry).unwrap(), probes)
}

/// A receiver word: a live object, an array, a class object, a stack
/// array, an address off by one, `u64::MAX`, or any word of the heap.
fn gen_receiver(g: &mut Gen, vm: &djvm::Vm) -> u64 {
    use djvm::{objref, ProcessMemory};
    let heap = &vm.heap;
    let table = vm.boot_image.method_table;
    let methods = objref::array(heap, table).unwrap().1;
    let vm_method = heap
        .read_word(methods.first + g.u64_in(0, methods.count as u64 - 1))
        .unwrap();
    let t = &vm.threads[g.usize_in(0, vm.threads.len() - 1)];
    let class_objects: Vec<u64> = vm.class_objects.iter().flatten().copied().collect();
    let object = match g.u64_in(0, 6) {
        0 => t.thread_obj,
        1 => vm_method,
        2 => table,
        3 => heap
            .read_word(objref::field_slot(heap, &vm.program, vm_method, 2, Ty::Ref).unwrap())
            .unwrap(),
        4 => t.stack_obj,
        5 if !class_objects.is_empty() => class_objects[g.usize_in(0, class_objects.len() - 1)],
        _ => vm.string_objects.first().copied().unwrap_or(table),
    };
    match g.u64_in(0, 9) {
        0..=4 => object,
        5 => object.wrapping_add(1),
        6 => object.wrapping_sub(1),
        7 => u64::MAX,
        _ => heap.read_word(g.u64_in(0, heap.extent() as u64)).unwrap(),
    }
}

/// The guest that runs only what it is handed: it never switches, and the
/// probes read no clock and call no native.
struct Still;

impl djvm::ExecHook for Still {
    fn on_yield_point(&mut self, _: &mut djvm::Vm) -> djvm::YieldAction {
        djvm::YieldAction::NONE
    }
    fn on_clock_read(&mut self, _: &mut djvm::Vm) -> i64 {
        0
    }
    fn on_native_call(
        &mut self,
        _: &mut djvm::Vm,
        _: djvm::NativeId,
        _: &[i64],
    ) -> djvm::NativeOutcome {
        djvm::NativeOutcome::default()
    }
}

#[test]
fn reference_reads_answer_alike_in_the_guest_and_the_reflector() {
    use djvm::objref::Fault;
    use djvm::{ErrKind, ProcessMemory, ThreadStatus, VmStatus};
    use reflect::{LocalVmMemory, ReflectError, RemoteReflector, SnapshotMemory, TVal};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    type Answer = Result<u64, ErrKind>;
    let registry = workloads::registry();
    qc::check(
        "reference_reads_answer_alike_in_the_guest_and_the_reflector",
        48,
        |g| {
            let w = &registry[g.usize_in(0, registry.len() - 1)];
            let (program, probes) = with_probes(&(w.build)());
            let spec = ExecSpec::new(program).with_seed(g.u64_in(0, 99));
            let mut vm = spec.live_vm();
            (w.natives)(&mut vm);
            djvm::interp::run(&mut vm, &mut djvm::Passthrough, g.u64_in(0, 4_000));
            let cur = vm.sched.current as usize;
            if !vm.status.is_running() || vm.threads[cur].status != ThreadStatus::Running {
                return Ok(());
            }
            // Compile everything and make stack room now, so the guest's
            // probe allocates nothing: the state it reads is the state the
            // reflector reads, and no collection traces a wild receiver.
            for m in 0..spec.program.methods.len() as djvm::MethodId {
                vm.ensure_method_compiled(m).map_err(|e| e.to_string())?;
            }
            vm.ensure_stack_headroom(256).map_err(|e| e.to_string())?;

            let cases = g.vec_of(1, 6, |g| {
                let p = &probes[g.usize_in(0, probes.len() - 1)];
                let index = match g.u64_in(0, 3) {
                    0 => g.any_i64(),
                    _ => g.i64_in(-1, 6),
                };
                (p, gen_receiver(g, &vm), index)
            });

            // Through the reflector, over the paused VM and over a copy.
            let local = LocalVmMemory::new(&vm);
            let snapshot = SnapshotMemory::from_vm(&vm);
            let mut remote: Vec<[Answer; 2]> = Vec::new();
            for &(p, recv, index) in &cases {
                let recv_val = if recv == 0 {
                    TVal::Null
                } else {
                    TVal::Remote(recv)
                };
                let args = [recv_val, TVal::Int(index)];
                let args = &args[..1 + p.index as usize];
                let mut answers = [Ok(0), Ok(0)];
                for (mem, answer) in [&local as &dyn ProcessMemory, &snapshot]
                    .iter()
                    .zip(&mut answers)
                {
                    let mut refl = RemoteReflector::new(Arc::clone(&spec.program), *mem);
                    let got = catch_unwind(AssertUnwindSafe(|| refl.invoke(p.method, args)))
                        .map_err(|_| format!("the reflector panicked: {} on {recv}", p.name))?;
                    *answer = match got {
                        Ok(Some(TVal::Int(v))) => Ok(v as u64),
                        Ok(Some(TVal::Null)) => Ok(0),
                        Ok(Some(TVal::Remote(a))) => Ok(a),
                        // The tool reports the word it could not read; the
                        // guest, the fault an unreadable word is.
                        Err(ReflectError::BadAddress(a)) => Err(Fault::Unreadable(a).kind()),
                        Err(ReflectError::Fault(kind)) => Err(kind),
                        other => return Err(format!("{} on {recv}: {other:?}", p.name)),
                    };
                }
                remote.push(answers);
            }

            // In the guest, each on a scratch copy of the paused VM.
            let paused = vm.snapshot();
            for (&(p, recv, index), answers) in cases.iter().zip(&remote) {
                vm.restore(&paused);
                let args = [recv as i64, index];
                vm.push_frame_public(p.wrapper, &args[..1 + p.index as usize])
                    .map_err(|e| e.to_string())?;
                catch_unwind(AssertUnwindSafe(|| {
                    djvm::interp::run(&mut vm, &mut Still, 10_000)
                }))
                .map_err(|_| format!("the guest panicked: {} on {recv}", p.name))?;
                let guest: Answer = match vm.status {
                    VmStatus::Halted => Ok(vm.heap.read_word(vm.threads[cur].sp - 1).unwrap()),
                    VmStatus::Error(e) => Err(e.kind),
                    s => return Err(format!("{} on {recv}: the guest stopped {s:?}", p.name)),
                };
                qc_assert_eq!(
                    answers.clone(),
                    [guest, guest],
                    "{} on {recv} (index {index}) in {}",
                    p.name,
                    w.name
                );
            }
            Ok(())
        },
    );
}
