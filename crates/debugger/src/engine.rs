//! The debugger engine (paper §3-§4).
//!
//! The session drives a **replaying** application VM (so execution is the
//! recorded one, exactly), supports breakpoints, single-stepping, and —
//! thanks to checkpoints — *reverse* stepping. Every motion (step,
//! continue, reverse step, seek) is a [`TimeTravel`] seek, so each one
//! replays from the VM's position or from the newest checkpoint at or
//! before where it lands, whichever is nearer. All inspection goes
//! through **remote reflection** against the paused VM's address space:
//! "the execution must not be perturbed by normal debugger operations such
//! as stopping and continuing, querying objects and program states,
//! setting breakpoints."

use dejavu::{ExecSpec, SeekStats, SymmetryConfig, TimeTravel, Trace};
use djvm::heap::Addr;
use djvm::thread::ThreadStatus;
use djvm::{MethodId, Program, Tid, Vm, VmStatus};
use reflect::{mirror, LocalVmMemory, RemoteReflector};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Why the session stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    Breakpoint { method: u32, pc: u32, tid: u32 },
    StepDone,
    Halted,
    Deadlocked,
    Error(String),
}

/// One frame of a stack trace, resolved via remote reflection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameInfo {
    pub method: u32,
    pub method_name: String,
    pub pc: u32,
    /// Source line, obtained by the Figure-3 reflective query against the
    /// application VM's address space.
    pub line: i64,
    pub op: String,
}

/// Thread-viewer row (paper §4: "A thread viewer is useful for finding
/// subtle bugs in multithreaded applications").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadInfo {
    pub tid: u32,
    pub name: String,
    pub status: String,
    pub method_name: String,
    pub pc: u32,
    pub yield_points: u64,
}

/// Steps between the checkpoints a session takes for reverse execution: a
/// seek replays at most this many past the checkpoints taken so far.
const CHECKPOINT_INTERVAL: u64 = 5_000;

/// A perturbation-free debug session over a recorded execution.
pub struct DebugSession {
    tt: TimeTravel,
    /// The recorded run's environment, with the observer-only telemetry
    /// sink switched on: the `Metrics`/`Divergence` protocol commands read
    /// it, and since it lives outside the guest state it cannot perturb
    /// the replay.
    spec: ExecSpec,
    breakpoints: BTreeSet<(MethodId, u32)>,
    /// The loaded trace, shared with `tt`'s replay cursor and with the
    /// whole-run analyses (profiling) that replay it in a scratch VM
    /// without disturbing the session's own time-travel position.
    trace: Arc<Trace>,
}

impl DebugSession {
    /// Start a session replaying `trace`, recorded under `spec`.
    /// Checkpoints every `CHECKPOINT_INTERVAL` steps enable reverse
    /// execution; checkpoints at the logical-time `boundaries` (a block
    /// trace's footer index, as [`dejavu::ingest_bytes`] returns it; empty
    /// for none) are kept too.
    pub fn new(spec: &ExecSpec, trace: Trace, boundaries: Vec<u64>) -> Self {
        let spec = spec.clone().with_telemetry();
        let trace = Arc::new(trace);
        let tt = TimeTravel::new_indexed(
            spec.replay_vm(),
            Arc::clone(&trace),
            SymmetryConfig::full(),
            CHECKPOINT_INTERVAL,
            boundaries,
        );
        Self {
            tt,
            spec,
            breakpoints: BTreeSet::new(),
            trace,
        }
    }

    pub fn vm(&self) -> &Vm {
        &self.tt.vm()
    }

    pub fn program(&self) -> &Arc<Program> {
        &self.spec.program
    }

    pub fn step_index(&self) -> u64 {
        self.tt.step
    }

    pub fn add_breakpoint(&mut self, method: MethodId, pc: u32) {
        self.breakpoints.insert((method, pc));
    }

    pub fn remove_breakpoint(&mut self, method: MethodId, pc: u32) {
        self.breakpoints.remove(&(method, pc));
    }

    pub fn breakpoints(&self) -> Vec<(MethodId, u32)> {
        self.breakpoints.iter().copied().collect()
    }

    /// Find a breakpoint location by method name + source line.
    pub fn resolve_line(&self, method_name: &str, line: u32) -> Option<(MethodId, u32)> {
        let mid = self.spec.program.method_id_by_name(method_name)?;
        let lines = &self.spec.program.method(mid).lines;
        let pc = lines.iter().position(|&l| l == line)? as u32;
        Some((mid, pc))
    }

    fn status_reason(&self) -> Option<StopReason> {
        match self.vm().status {
            VmStatus::Running => None,
            VmStatus::Halted => Some(StopReason::Halted),
            VmStatus::Deadlocked => Some(StopReason::Deadlocked),
            VmStatus::Error(e) => Some(StopReason::Error(e.to_string())),
        }
    }

    fn at_breakpoint(&self) -> Option<StopReason> {
        let vm = self.vm();
        let t = vm.current_thread();
        if self.breakpoints.contains(&(t.method, t.pc)) {
            Some(StopReason::Breakpoint {
                method: t.method,
                pc: t.pc,
                tid: t.tid,
            })
        } else {
            None
        }
    }

    /// Continue until a breakpoint (checked before each instruction) or
    /// termination. With no breakpoint set there is nothing to check: the
    /// run is a seek to the end of the trace, which starts from the newest
    /// checkpoint already taken when that lies ahead of the VM.
    pub fn cont(&mut self) -> StopReason {
        if self.breakpoints.is_empty() {
            self.tt.seek(u64::MAX);
        }
        // `step` always makes progress, so `cont` at a breakpoint moves
        // past it.
        loop {
            match self.step() {
                StopReason::StepDone => {}
                stop => return stop,
            }
        }
    }

    /// Execute exactly one instruction (a seek one step ahead).
    pub fn step(&mut self) -> StopReason {
        if let Some(r) = self.status_reason() {
            return r;
        }
        self.tt.seek(self.tt.step + 1);
        self.status_reason()
            .or_else(|| self.at_breakpoint())
            .unwrap_or(StopReason::StepDone)
    }

    /// Step *backwards* one instruction (checkpoint restore + forward
    /// replay — the Igor/Boothe "reverse execution" on top of DejaVu).
    pub fn step_back(&mut self) -> StopReason {
        let target = self.tt.step.saturating_sub(1);
        self.tt.seek(target);
        StopReason::StepDone
    }

    /// Travel to an absolute step index.
    pub fn seek(&mut self, step: u64) {
        self.tt.seek(step);
    }

    /// Travel to an absolute logical time (counted yield points), the
    /// block-index seek path. Returns what the seek cost.
    pub fn seek_time(&mut self, logical: u64) -> SeekStats {
        self.tt.seek_logical(logical)
    }

    /// Current logical time of the replayed VM.
    pub fn logical_time(&self) -> u64 {
        self.tt.logical_time()
    }

    /// Stack trace of a thread, lines resolved by remote reflection.
    pub fn stack_trace(&mut self, tid: Tid) -> Vec<FrameInfo> {
        let frames = self.vm().frames(tid);
        let vm = self.tt.vm();
        let mem = LocalVmMemory::new(vm);
        let mut refl = RemoteReflector::new(Arc::clone(&self.spec.program), &mem);
        refl.map_boot_method_table(vm.boot_image.method_table);
        frames
            .iter()
            .map(|f| {
                let line = refl.line_number_of(f.method, f.pc).unwrap_or(-1);
                let m = self.spec.program.method(f.method);
                FrameInfo {
                    method: f.method,
                    method_name: m.qualified_name(&self.spec.program),
                    pc: f.pc,
                    line,
                    op: format!("{:?}", m.ops[f.pc as usize]),
                }
            })
            .collect()
    }

    /// The thread viewer.
    pub fn threads(&self) -> Vec<ThreadInfo> {
        let program = &self.spec.program;
        self.vm()
            .threads
            .iter()
            .map(|t| ThreadInfo {
                tid: t.tid,
                name: t.name.clone(),
                status: match t.status {
                    ThreadStatus::Ready => "ready".into(),
                    ThreadStatus::Running => "running".into(),
                    ThreadStatus::BlockedMonitor(a) => format!("blocked(monitor@{a})"),
                    ThreadStatus::Waiting(a) => format!("waiting(monitor@{a})"),
                    ThreadStatus::TimedWaiting(a) => format!("timed-waiting(monitor@{a})"),
                    ThreadStatus::Sleeping => "sleeping".into(),
                    ThreadStatus::JoinWaiting(x) => format!("joining(t{x})"),
                    ThreadStatus::Terminated => "terminated".into(),
                },
                method_name: program.method(t.method).qualified_name(program),
                pc: t.pc,
                yield_points: t.yield_points,
            })
            .collect()
    }

    /// Inspect an object via remote reflection mirrors.
    pub fn inspect(&self, addr: Addr) -> String {
        let mem = LocalVmMemory::new(self.vm());
        mirror::describe(&mem, &self.spec.program, addr)
    }

    /// Console output so far.
    pub fn output(&self) -> String {
        self.vm().output.clone()
    }

    /// Instruction listing of a method (paper §4: the machine-instruction
    /// view), with yield points marked and source lines inline.
    pub fn disassemble(&self, method: MethodId) -> String {
        djvm::dis::disassemble(&self.spec.program, method)
    }

    /// Canonical-JSON metrics snapshot: the replayed VM's event counters,
    /// its telemetry sink (event ring + histograms), and the session's own
    /// time-travel accounting. Purely observational — reading it executes
    /// nothing and perturbs nothing.
    pub fn metrics_json(&self) -> String {
        use codec::Json;
        let mut session = telemetry::Registry::new();
        session.add("breakpoints", self.breakpoints.len() as u64);
        session.add("checkpoint_bytes", self.tt.storage_bytes() as u64);
        session.add("checkpoints", self.tt.checkpoints.len() as u64);
        session.add("reexecuted_steps", self.tt.reexecuted);
        session.add("restores", self.tt.restores);
        session.add("step", self.tt.step);
        let vm = self.tt.vm();
        let mut j = Json::obj(vec![
            ("counters", dejavu::counters_json(&vm.counters)),
            ("cycles", Json::UInt(vm.cycles)),
            ("ring", vm.telem.ring.to_json()),
            ("session", session.to_json()),
            ("histograms", vm.telem.histograms.to_json()),
        ]);
        j.canonicalize();
        j.to_string()
    }

    /// Desyncs the replayer has flagged so far (empty while the replay is
    /// accurate).
    pub fn desyncs(&self) -> &[dejavu::Desync] {
        self.tt.desyncs()
    }

    /// Canonical-JSON array of the flagged desyncs.
    pub fn divergence_json(&self) -> String {
        use codec::Json;
        let mut j = Json::Arr(self.desyncs().iter().map(|d| d.to_json()).collect());
        j.canonicalize();
        j.to_string()
    }

    /// Canonical-JSON profile summary (top-`top` hot methods, phase table,
    /// QOp attribution) of the *whole* recorded run.
    ///
    /// Profiling wants cycle attribution over the full execution, so this
    /// replays the loaded trace start-to-finish in a scratch VM with the
    /// flight recorder armed — the session's own time-travel position,
    /// checkpoints, and breakpoints are untouched, and the profiler is a
    /// pure observer, so the scratch replay's fingerprint equals the
    /// debugged one's. Errors (instead of panicking) when the session has
    /// no trace loaded.
    pub fn profile_json(&self, top: u64) -> Result<String, String> {
        if self.trace.switches.is_empty() && self.trace.data.is_empty() {
            return Err("no trace loaded: profiling needs a recorded run".into());
        }
        let (prof, _, _) =
            dejavu::profile_replay(&self.spec, Arc::clone(&self.trace), SymmetryConfig::full());
        Ok(prof.summary_json(top as usize).to_string())
    }
}
