//! Orchestration: build VMs, record executions, replay traces, and verify
//! accuracy by the paper's own criterion (identical event sequences and
//! identical program states — checked via execution fingerprints and
//! reachable-state digests).

use crate::observe::{DivergenceReport, PhaseSpan, RunTelemetry};
use crate::record::DejaVuRecorder;
use crate::replay::{DejaVuReplayer, Desync};
use crate::symmetry::SymmetryConfig;
use crate::trace::{Trace, TraceStats};
use djvm::clock::{CycleClock, JitteredClock, JitteredTimer, WallClock};
use djvm::hook::{ExecHook, Passthrough};
use djvm::vm::VmCounters;
use djvm::{interp, FingerprintMode, Program, Vm, VmConfig, VmStatus};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything needed to (re)construct an execution environment. The `seed`
/// selects one "physical machine behaviour": a timer-interrupt jitter
/// sequence and a wall-clock noise sequence. Different seeds model the
/// different executions a non-deterministic program exhibits in the wild.
#[derive(Debug, Clone)]
pub struct ExecSpec {
    pub program: Arc<Program>,
    pub vm: VmConfig,
    pub seed: u64,
    /// Mean cycles between preemption-timer interrupts.
    pub timer_base: u64,
    /// Max deviation from `timer_base`.
    pub timer_jitter: u64,
    /// Wall-clock origin (ms) and rate.
    pub clock_origin: i64,
    pub cycles_per_ms: u64,
    /// Max per-read wall-clock noise (ms).
    pub clock_noise: i64,
    /// Execution step budget (guards against runaway guests).
    pub max_steps: u64,
    /// Enable the observer-only telemetry sink on every VM this spec
    /// builds. Guaranteed perturbation-free: the sink lives outside the
    /// guest heap, the logical clock, the fingerprint, and the state
    /// digest (and the neutrality test suite proves it).
    pub telemetry: bool,
    /// Arm the replay-time profiler (`telemetry::profile`) on every VM
    /// this spec builds. Like `telemetry`, a pure observer: fingerprints
    /// and state digests are bit-identical with it on or off.
    pub profile: bool,
}

impl ExecSpec {
    pub fn new(program: Program) -> Self {
        Self {
            program: Arc::new(program),
            vm: VmConfig::default(),
            seed: 1,
            timer_base: 200,
            timer_jitter: 60,
            clock_origin: 1_000_000,
            cycles_per_ms: 50,
            clock_noise: 3,
            max_steps: 200_000_000,
            telemetry: false,
            profile: false,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Turn telemetry on for every VM built from this spec.
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Force quickened dispatch on or off for every VM built from this
    /// spec (the CLI's `--no-quicken` ablation). Purely a speed setting:
    /// runs are bit-identical either way.
    pub fn with_quicken(mut self, quicken: bool) -> Self {
        self.vm.quicken = quicken;
        self
    }

    /// Arm the profiler for every VM built from this spec.
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Select the fingerprint mode (default [`FingerprintMode::Full`],
    /// the strongest accuracy check; `Coarse` hashes scheduling and
    /// output only and is the cheap production setting the benchmark's
    /// tier-over-tier ratios are measured under).
    pub fn with_fingerprint(mut self, mode: FingerprintMode) -> Self {
        self.vm.fingerprint = mode;
        self
    }

    /// Force tier 2 (closed-form counting loops) on or off for every VM
    /// built from this spec (the CLI's `--no-mega` ablation). Like
    /// quickening, purely a speed setting: runs are bit-identical either
    /// way. Tier 2 additionally requires quickening.
    pub fn with_mega(mut self, mega: bool) -> Self {
        self.vm.mega = mega;
        self
    }

    fn boot(&self, clock: Box<dyn WallClock>) -> Vm {
        let timer = JitteredTimer::new(self.seed, self.timer_base, self.timer_jitter);
        let mut vm = Vm::boot(
            Arc::clone(&self.program),
            self.vm.clone(),
            Box::new(timer),
            clock,
        )
        .expect("boot failed");
        if self.telemetry {
            vm.enable_telemetry();
        }
        if self.profile {
            vm.enable_profiler();
        }
        vm
    }

    /// The machine a live (passthrough or record) run boots on: this
    /// spec's jittered preemption timer and noisy wall clock.
    pub fn live_vm(&self) -> Vm {
        self.boot(Box::new(JitteredClock::new(
            self.seed,
            self.clock_origin,
            self.cycles_per_ms,
            self.clock_noise,
        )))
    }

    /// The machine every replay of a run recorded under this spec boots
    /// on. Replay takes switches and clock values from the trace, so the
    /// clock is a deterministic stand-in; everything else is `live_vm`'s.
    pub fn replay_vm(&self) -> Vm {
        self.boot(Box::new(CycleClock::new(
            self.clock_origin,
            self.cycles_per_ms,
        )))
    }
}

/// The observable outcome of one run — everything the paper's definition
/// of "identical execution behaviour" quantifies over.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub status: VmStatus,
    pub output: String,
    /// Rolling event-sequence fingerprint.
    pub fingerprint: u64,
    /// Final reachable-program-state digest.
    pub state_digest: u64,
    pub counters: VmCounters,
    pub gc_collections: u64,
    pub cycles: u64,
    pub wall_time: Duration,
    /// Observer-side capture (`None` unless [`ExecSpec::telemetry`] was
    /// set). Deliberately excluded from [`RunReport::matches`]: the
    /// telemetry of a record run and its replay legitimately differ
    /// (different modes, clocks), while the guest-visible fields must not.
    pub telemetry: Option<Box<RunTelemetry>>,
    /// The profiler's flight-recorder log (`None` unless
    /// [`ExecSpec::profile`] was set). Excluded from [`RunReport::matches`]
    /// for the same reason as `telemetry`.
    pub profile: Option<Box<telemetry::Profiler>>,
    /// Tier-2 runtime statistics. Observer state: entry and closed-pass
    /// counts legitimately differ between a record run and its
    /// replay (hook horizons differ), so — like `telemetry` — this is
    /// excluded from [`RunReport::matches`]. Tier-*up* counts, by
    /// contrast, are deterministic and surface in the event ring.
    pub mega: djvm::MegaStats,
}

impl RunReport {
    fn from_vm(
        vm: &mut Vm,
        wall_time: Duration,
        mode: &'static str,
        phases: Vec<PhaseSpan>,
    ) -> Self {
        Self {
            status: vm.status,
            output: vm.output.clone(),
            fingerprint: vm.fingerprint.digest(),
            state_digest: vm.state_digest(),
            counters: vm.counters,
            gc_collections: vm.heap.stats.collections,
            cycles: vm.cycles,
            wall_time,
            telemetry: RunTelemetry::capture(vm, mode, phases),
            profile: vm.telem.profile.take(),
            mega: vm.mega.stats,
        }
    }

    /// The paper's accuracy criterion: identical event sequence and
    /// identical program states (plus identical console output and
    /// termination status, which follow from those but are checked
    /// independently for diagnosability).
    pub fn matches(&self, other: &RunReport) -> bool {
        self.fingerprint == other.fingerprint
            && self.state_digest == other.state_digest
            && self.output == other.output
            && self.status == other.status
    }

    /// The accuracy verdict on a replay of this record: the replay
    /// [`matches`](Self::matches) it and the replayer raised no desync.
    pub fn accurate(&self, replay: &RunReport, desyncs: &[Desync]) -> bool {
        self.matches(replay) && desyncs.is_empty()
    }
}

/// Run `vm` under `hook` to its end or `spec.max_steps`: the one straight
/// run of every mode and every §5 scheme. Natives, then `on_init`; only the
/// interpreter is timed, and the report is built after it, its telemetry
/// labelled `mode`.
pub fn drive(
    spec: &ExecSpec,
    mut vm: Vm,
    natives: impl FnOnce(&mut Vm),
    hook: &mut dyn ExecHook,
    mode: &'static str,
) -> RunReport {
    let boot = PhaseSpan::mark("boot", &vm);
    natives(&mut vm);
    hook.on_init(&mut vm);
    let warmup = PhaseSpan::mark("warmup", &vm);
    let t0 = Instant::now();
    interp::run(&mut vm, hook, spec.max_steps);
    let run = PhaseSpan::mark(mode, &vm);
    RunReport::from_vm(&mut vm, t0.elapsed(), mode, vec![boot, warmup, run])
}

/// Run uninstrumented (the precision baseline).
pub fn passthrough_run(spec: &ExecSpec, natives: impl FnOnce(&mut Vm)) -> RunReport {
    drive(
        spec,
        spec.live_vm(),
        natives,
        &mut Passthrough,
        "passthrough",
    )
}

/// Record an execution: returns the report and the DejaVu trace.
pub fn record_run(
    spec: &ExecSpec,
    natives: impl FnOnce(&mut Vm),
    sym: SymmetryConfig,
    paranoid: bool,
) -> (RunReport, Trace) {
    let mut hook = DejaVuRecorder::new(sym, paranoid);
    let report = drive(spec, spec.live_vm(), natives, &mut hook, "record");
    (report, hook.into_trace())
}

/// Replay a trace: natives are *not* registered — replay never calls them,
/// which is itself part of the determinism story (§2.5).
pub fn replay_run(
    spec: &ExecSpec,
    trace: impl Into<Arc<Trace>>,
    sym: SymmetryConfig,
) -> (RunReport, Vec<Desync>) {
    let mut hook = DejaVuReplayer::new(trace, sym);
    let report = drive(spec, spec.replay_vm(), |_| {}, &mut hook, "replay");
    (report, hook.into_desyncs())
}

/// Record then replay, returning both reports and whether replay was
/// accurate (the verdict of [`record_replay_forensic`]).
pub fn record_replay(
    spec: &ExecSpec,
    natives: impl FnOnce(&mut Vm),
    sym: SymmetryConfig,
) -> (RunReport, RunReport, bool) {
    let out = record_replay_forensic(spec, natives, sym);
    (out.record, out.replay, out.accurate)
}

/// Everything [`record_replay_forensic`] produces: both reports, the
/// verdict, the replayer's own desyncs, trace-size accounting, and — when
/// the verdict is "diverged" — the aligned divergence report.
#[derive(Debug, Clone)]
pub struct ForensicOutcome {
    pub record: RunReport,
    pub replay: RunReport,
    pub accurate: bool,
    pub desyncs: Vec<Desync>,
    pub trace_stats: TraceStats,
    /// `Some` exactly when `!accurate`.
    pub report: Option<DivergenceReport>,
}

/// Record then replay with full diagnosis: on any inaccuracy the
/// record-side and replay-side event rings and counter snapshots are
/// aligned into a [`DivergenceReport`] localizing the first mismatched
/// event (its index and kind) and the per-thread logical-clock deltas.
pub fn record_replay_forensic(
    spec: &ExecSpec,
    natives: impl FnOnce(&mut Vm),
    sym: SymmetryConfig,
) -> ForensicOutcome {
    let (rec, trace) = record_run(spec, natives, sym, true);
    let trace_stats = trace.stats();
    let (rep, desyncs) = replay_run(spec, trace, sym);
    let accurate = rec.accurate(&rep, &desyncs);
    let report = (!accurate).then(|| DivergenceReport::build(&rec, &rep, desyncs.clone()));
    ForensicOutcome {
        record: rec,
        replay: rep,
        accurate,
        desyncs,
        trace_stats,
        report,
    }
}
