//! Baseline-scheme experiments: the E5 trace-size ordering, E7 replay
//! costs, and E14 checkpoint time travel — the quantified versions of the
//! paper's §5 qualitative claims.

use baselines::{
    ir_record, ir_replay, rc_record, rc_replay, readlog_record, readlog_replay,
    trace_size_comparison, TimeTravel,
};
use baselines::{IrRecorder, IrReplayer, ReadLogRecorder, ReadLogReplayer};
use dejavu::{ExecSpec, SymmetryConfig};
use djvm::hook::{AccessDecision, ExecHook, YieldAction};
use djvm::{interp, NativeId, NativeOutcome, Tid, Vm, VmStatus, Word};

fn spec(name: &str, seed: u64) -> (ExecSpec, fn(&mut Vm)) {
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("no workload {name}"));
    let mut s = ExecSpec::new((w.build)()).with_seed(seed);
    s.timer_base = 53;
    s.timer_jitter = 19;
    (s, w.natives)
}

#[test]
fn e5_trace_size_ordering_holds_across_workloads() {
    // The paper's claim: DejaVu's switch-only trace is far smaller than
    // schemes that capture critical events; content logging is the worst.
    // A realistic preemption quantum (thousands of instructions, vs the
    // paper's ~10ms timer) — the stress tests elsewhere use absurdly short
    // quanta to exercise replay, which would skew a size comparison.
    for name in [
        "racy_counter",
        "producer_consumer",
        "gc_churn",
        "bank_transfer",
    ] {
        let (mut s, natives) = spec(name, 5);
        s.timer_base = 2001;
        s.timer_jitter = 500;
        let row = trace_size_comparison(name, &s, natives);
        assert!(
            row.dejavu_bytes < row.rc_bytes,
            "{name}: dejavu {} !< rc {}",
            row.dejavu_bytes,
            row.rc_bytes
        );
        assert!(
            row.rc_bytes < row.ir_bytes,
            "{name}: rc {} !< ir {}",
            row.rc_bytes,
            row.ir_bytes
        );
        // Content logging and access logging are both an order of magnitude
        // beyond DejaVu's switch-only trace. (Their order relative to each
        // other depends on the read/write mix; IR additionally logs every
        // write and synchronization operation, so its *event count* always
        // dominates the read log's.)
        assert!(row.readlog_bytes > row.dejavu_bytes * 10, "{name}: {row:?}");
        assert!(row.ir_bytes > row.dejavu_bytes * 10, "{name}: {row:?}");
        assert!(
            row.ir_accesses > row.readlog_reads,
            "{name}: accesses {} !> reads {}",
            row.ir_accesses,
            row.readlog_reads
        );
    }
}

#[test]
fn e5_dejavu_logs_no_deterministic_switches() {
    // RC logs every dispatch; DejaVu logs only preemptive ones. On a
    // synchronization-heavy workload the difference is dramatic.
    let (mut s, natives) = spec("producer_consumer", 3);
    s.timer_base = 2001;
    s.timer_jitter = 500;
    let row = trace_size_comparison("producer_consumer", &s, natives);
    assert!(
        row.rc_dispatches > row.dejavu_switches,
        "dispatches {} vs preemptive switches {}",
        row.rc_dispatches,
        row.dejavu_switches
    );
    assert!(
        row.rc_bytes as f64 > row.dejavu_bytes as f64 * 1.5,
        "rc {} vs dejavu {} bytes",
        row.rc_bytes,
        row.dejavu_bytes
    );
}

#[test]
fn e7_rc_replay_reproduces_output_but_pays_mapping_lookups() {
    for seed in [1u64, 9] {
        let (s, natives) = spec("racy_counter", seed);
        let (rec, trace) = rc_record(&s, natives);
        let dispatches = trace.dispatches.len() as u64;
        let (rep, lookups, mismatches) = rc_replay(&s, trace);
        assert_eq!(rec.output, rep.output, "seed {seed}");
        assert_eq!(rec.status, rep.status);
        assert_eq!(mismatches, 0, "seed {seed}");
        // the cost DejaVu avoids: one map lookup per dispatch
        assert!(lookups >= dispatches, "lookups {lookups} < {dispatches}");
    }
}

#[test]
fn e7_instant_replay_reproduces_shared_data_via_access_order() {
    for seed in [2u64, 8] {
        let (s, natives) = spec("racy_counter", seed);
        let (rec, trace) = ir_record(&s, natives);
        assert!(!trace.accesses.is_empty());
        let (rep, _delays, violations) = ir_replay(&s, trace);
        assert_eq!(
            rec.output, rep.output,
            "seed {seed}: CREW order must reproduce the racy result"
        );
        assert_eq!(rep.status, VmStatus::Halted);
        assert_eq!(violations, 0, "seed {seed}");
    }
}

#[test]
fn e7_instant_replay_handles_monitor_workloads() {
    let (s, natives) = spec("producer_consumer", 4);
    let (rec, trace) = ir_record(&s, natives);
    let (rep, delays, violations) = ir_replay(&s, trace);
    assert_eq!(rec.output, rep.output);
    assert_eq!(violations, 0);
    // enforcement usually has to delay someone at least once
    let _ = delays;
}

#[test]
fn e7_readlog_reproduces_thread_dataflow() {
    let (s, natives) = spec("racy_counter", 6);
    let (rec, trace) = readlog_record(&s, natives);
    assert!(trace.total_reads() > 100);
    let (rep, substituted, _underruns) = readlog_replay(&s, trace);
    assert!(substituted > 0);
    // Per-thread dataflow determinism: the racy final value is pinned by
    // the substituted reads even though scheduling differs.
    assert_eq!(rec.output, rep.output);
}

#[test]
fn e14_time_travel_seeks_backward_and_forward() {
    let (s, natives) = spec("racy_counter", 11);
    let (rec, trace) = dejavu::record_run(&s, natives, SymmetryConfig::full(), true);

    let mut tt = TimeTravel::new_indexed(
        s.replay_vm(),
        trace,
        SymmetryConfig::full(),
        2_000,
        Vec::new(),
    );

    // Forward to the middle.
    tt.seek(10_000);
    assert_eq!(tt.step, 10_000);
    let digest_mid = tt.vm().state_digest();

    // Onward to completion.
    while tt.status().is_running() {
        tt.seek(tt.step.saturating_add(5_000));
    }
    assert_eq!(tt.vm().output, rec.output, "time-travel replay is accurate");

    // Backward to the very same middle step: state must be identical.
    tt.seek(10_000);
    assert_eq!(tt.step, 10_000);
    assert_eq!(
        tt.vm().state_digest(),
        digest_mid,
        "reverse execution lands on the same state"
    );
    assert!(tt.restores >= 1);
    assert!(tt.storage_bytes() > 0);

    // And forward again to completion with identical output.
    while tt.status().is_running() {
        tt.seek(tt.step.saturating_add(5_000));
    }
    assert_eq!(tt.vm().output, rec.output);
}

#[test]
fn e14_checkpoint_interval_tradeoff() {
    let (s, natives) = spec("racy_counter", 13);
    let (_rec, trace) = dejavu::record_run(&s, natives, SymmetryConfig::full(), false);
    // Denser checkpoints => more storage, less re-execution on seek.
    let mut dense = TimeTravel::new_indexed(
        s.replay_vm(),
        trace.clone(),
        SymmetryConfig::full(),
        1_000,
        Vec::new(),
    );
    dense.seek(20_000);
    dense.seek(10_500);
    let dense_storage = dense.storage_bytes();
    let dense_reexec = dense.reexecuted;

    let mut sparse = TimeTravel::new_indexed(
        s.replay_vm(),
        trace,
        SymmetryConfig::full(),
        10_000,
        Vec::new(),
    );
    sparse.seek(20_000);
    sparse.seek(10_500);
    assert!(dense_storage > sparse.storage_bytes());
    assert!(dense_reexec <= sparse.reexecuted);
}

/// Counts the heap-access callbacks a hook receives and passes every call
/// on, its answer to `observes_shared_accesses` included.
struct Counting<H> {
    inner: H,
    accesses: u64,
    reads: u64,
}

impl<H: ExecHook> ExecHook for Counting<H> {
    fn on_init(&mut self, vm: &mut Vm) {
        self.inner.on_init(vm)
    }
    fn on_yield_point(&mut self, vm: &mut Vm) -> YieldAction {
        self.inner.on_yield_point(vm)
    }
    fn on_instr_yield_point(&mut self, vm: &mut Vm) -> YieldAction {
        self.inner.on_instr_yield_point(vm)
    }
    fn on_clock_read(&mut self, vm: &mut Vm) -> i64 {
        self.inner.on_clock_read(vm)
    }
    fn on_native_call(&mut self, vm: &mut Vm, native: NativeId, args: &[i64]) -> NativeOutcome {
        self.inner.on_native_call(vm, native, args)
    }
    fn on_thread_switch(&mut self, vm: &mut Vm, to: Tid) {
        self.inner.on_thread_switch(vm, to)
    }
    fn on_shared_access(&mut self, vm: &mut Vm, serial: u64, write: bool) -> AccessDecision {
        self.accesses += 1;
        self.inner.on_shared_access(vm, serial, write)
    }
    fn on_shared_read_value(&mut self, vm: &mut Vm, v: Word, is_ref: bool) -> Word {
        self.reads += 1;
        self.inner.on_shared_read_value(vm, v, is_ref)
    }
    fn observes_shared_accesses(&self) -> bool {
        self.inner.observes_shared_accesses()
    }
}

/// Run `hook` on `vm` and return its access and read callback counts with
/// the run's output.
fn counted<H: ExecHook>(mut vm: Vm, inner: H, max_steps: u64) -> (u64, u64, String) {
    let mut hook = Counting {
        inner,
        accesses: 0,
        reads: 0,
    };
    hook.on_init(&mut vm);
    interp::run(&mut vm, &mut hook, max_steps);
    (hook.accesses, hook.reads, vm.output)
}

/// Tier 1 runs heap accesses in its cursor only for hooks that do not
/// observe them: the access-logging baselines still see every one, so
/// their callbacks are the same whether the quickened tier runs or not.
#[test]
fn access_logging_baselines_see_every_access_in_every_tier() {
    for name in ["racy_counter", "bank_transfer", "server_loop"] {
        let (s, natives) = spec(name, 3);
        let runs: Vec<_> = [false, true]
            .into_iter()
            .map(|quicken| {
                let s = s.clone().with_quicken(quicken);
                let live = || {
                    let mut vm = s.live_vm();
                    natives(&mut vm);
                    vm
                };
                let (_, ir) = ir_record(&s, natives);
                let (_, reads) = readlog_record(&s, natives);
                [
                    counted(live(), IrRecorder::new(), s.max_steps),
                    counted(live(), ReadLogRecorder::new(), s.max_steps),
                    counted(s.replay_vm(), IrReplayer::new(ir), s.max_steps),
                    counted(s.replay_vm(), ReadLogReplayer::new(reads), s.max_steps),
                ]
            })
            .collect();
        assert_eq!(runs[0], runs[1], "{name}: callbacks differ across tiers");
        assert!(
            runs[1].iter().all(|r| r.0 > 0 && r.1 > 0),
            "{name}: {:?}",
            runs[1]
        );
    }
}
