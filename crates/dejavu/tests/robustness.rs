//! Robustness: replay with wrong, truncated, or foreign traces must fail
//! *detectably* (desyncs or report mismatch), never silently claim
//! accuracy — the flip side of the paper's absolute-accuracy requirement.

use dejavu::{record_run, replay_run, DataRec, Desync, ExecSpec, SymmetryConfig, Trace};
use djvm::{Program, ProgramBuilder, Ty};

fn racy(iters: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let g = pb.class("G").static_field("count", Ty::Int).build();
    let worker = pb.method("worker", 0, 3).code(|a| {
        a.iconst(0).store(0);
        a.label("top");
        a.load(0).iconst(iters).ge().if_nz("done");
        a.get_static(g, 0).store(1);
        a.iconst(0).store(2);
        a.label("d");
        a.load(2).iconst(3).ge().if_nz("dd");
        a.load(2).iconst(1).add().store(2);
        a.goto("d");
        a.label("dd");
        a.load(1).iconst(1).add().put_static(g, 0);
        a.load(0).iconst(1).add().store(0);
        a.goto("top");
        a.label("done");
        a.ret();
    });
    let m = pb.method("main", 0, 2).code(|a| {
        a.iconst(0).put_static(g, 0);
        a.spawn(worker, 0).store(0);
        a.spawn(worker, 0).store(1);
        a.load(0).join();
        a.load(1).join();
        a.get_static(g, 0).print();
        a.now().pop(); // a clock read, to exercise the data stream
        a.halt();
    });
    pb.finish(m).unwrap()
}

fn spec(seed: u64) -> ExecSpec {
    let mut s = ExecSpec::new(racy(200)).with_seed(seed);
    s.timer_base = 37;
    s.timer_jitter = 13;
    s
}

#[test]
fn replaying_another_executions_trace_is_detected() {
    let (rec_a, trace_a) = record_run(&spec(1), |_| {}, SymmetryConfig::full(), true);
    let (rec_b, trace_b) = record_run(&spec(2), |_| {}, SymmetryConfig::full(), true);
    // Make sure the two executions genuinely differ.
    assert_ne!(rec_a.fingerprint, rec_b.fingerprint);
    // Replay B's trace against A's spec: the run must not match A's record.
    let (rep, desyncs) = replay_run(&spec(1), trace_b, SymmetryConfig::full());
    let silently_accurate = rep.matches(&rec_a) && desyncs.is_empty();
    assert!(!silently_accurate, "cross-trace replay must be detectable");
    // And A's own trace still works.
    let (rep_a, d) = replay_run(&spec(1), trace_a, SymmetryConfig::full());
    assert!(d.is_empty() && rep_a.matches(&rec_a));
}

#[test]
fn truncated_switch_stream_changes_the_execution() {
    let (rec, mut trace) = record_run(&spec(3), |_| {}, SymmetryConfig::full(), true);
    let n = trace.switches.len();
    assert!(n > 4, "need some switches to truncate");
    trace.switches.truncate(n / 2);
    let (rep, _desyncs) = replay_run(&spec(3), trace, SymmetryConfig::full());
    // With half the preemptive switches missing, the execution differs.
    assert!(!rep.matches(&rec), "truncation must not replay accurately");
}

#[test]
fn exhausted_data_stream_reports_desyncs() {
    let (_rec, mut trace) = record_run(&spec(4), |_| {}, SymmetryConfig::full(), true);
    assert!(!trace.data.is_empty());
    trace.data.clear();
    let (_rep, desyncs) = replay_run(&spec(4), trace, SymmetryConfig::full());
    assert!(
        !desyncs.is_empty(),
        "missing clock records must surface as desyncs"
    );

    // A clock read that finds a native record reports the desync and
    // leaves the record for the native call that follows it.
    let mut pb = ProgramBuilder::new();
    let n = pb.native("n", 0, true);
    let m = pb.method("main", 0, 0).code(|a| {
        a.now().pop();
        a.native_call(n, 0).print();
        a.halt();
    });
    let s = ExecSpec::new(pb.finish(m).unwrap());
    let native = DataRec::Native {
        ret: 7,
        callbacks: Vec::new(),
    };
    let trace = Trace {
        data: vec![native],
        ..Trace::default()
    };
    let (rep, desyncs) = replay_run(&s, trace, SymmetryConfig::full());
    assert_eq!(desyncs, [Desync::ClockStream { reads_so_far: 1 }]);
    assert_eq!(rep.output, "7\n");
}

#[test]
fn corrupted_switch_deltas_are_detected() {
    let (rec, mut trace) = record_run(&spec(5), |_| {}, SymmetryConfig::full(), true);
    assert!(trace.paranoid);
    // Corrupt several switch deltas: the forced switches land at the wrong
    // yield points (often on the wrong thread — which paranoid records
    // localize — and always producing a different execution).
    let n = trace.switches.len();
    for i in (n / 3)..(n / 3 + 5).min(n) {
        trace.switches[i].nyp = trace.switches[i].nyp.saturating_add(7).max(1);
    }
    let (rep, desyncs) = replay_run(&spec(5), trace, SymmetryConfig::full());
    assert!(
        !rep.matches(&rec) || !desyncs.is_empty(),
        "corruption must never replay silently as the original"
    );
}

#[test]
fn a_program_with_no_preemption_needs_no_switch_records() {
    // Single-threaded program: no preemptive switch matters, the trace's
    // switch stream may still have entries (the timer fires) but replay is
    // exact either way.
    let mut pb = ProgramBuilder::new();
    let m = pb.method("main", 0, 1).code(|a| {
        a.iconst(0).store(0);
        a.label("t");
        a.load(0).iconst(500).ge().if_nz("d");
        a.load(0).iconst(1).add().store(0);
        a.goto("t");
        a.label("d");
        a.load(0).print();
        a.halt();
    });
    let mut s = ExecSpec::new(pb.finish(m).unwrap()).with_seed(6);
    s.timer_base = 37;
    s.timer_jitter = 13;
    let (rec, trace) = record_run(&s, |_| {}, SymmetryConfig::full(), true);
    let (rep, desyncs) = replay_run(&s, trace, SymmetryConfig::full());
    assert!(desyncs.is_empty());
    assert!(rec.matches(&rep));
    assert_eq!(rec.output, "500\n");
}

#[test]
fn empty_trace_replays_an_unpreempted_prefix() {
    // Replaying an empty trace = "no preemptions, no data": fine for a
    // program that needs neither.
    let mut pb = ProgramBuilder::new();
    let m = pb.method("main", 0, 0).code(|a| {
        a.iconst(21).iconst(2).mul().print();
        a.halt();
    });
    let s = ExecSpec::new(pb.finish(m).unwrap());
    let (rep, desyncs) = replay_run(&s, Trace::default(), SymmetryConfig::full());
    assert!(desyncs.is_empty());
    assert_eq!(rep.output, "42\n");
}
