//! Replay mode: Figure 2-(B) of the paper.
//!
//! The replayer ignores the hardware preempt bit entirely. It counts down
//! the recorded yield-point delta and forces a thread switch when it
//! reaches zero; wall-clock reads and native calls are *not* performed —
//! their recorded out-states are regenerated (§2.1). Synchronization
//! switches, GC, allocation, class loading and the scheduler's queue
//! rotations need nothing at all: replaying the non-deterministic inputs
//! replays the whole thread package (§2.2).

use crate::record::InstrCommon;
use crate::symmetry::SymmetryConfig;
use crate::trace::{DataRec, SwitchRec, Trace};
use djvm::hook::{ExecHook, YieldAction};
use djvm::vm::Vm;
use djvm::{CallbackReq, NativeId, NativeOutcome};
use std::sync::Arc;

/// A detected record/replay desynchronization (diagnostics; an accurate
/// replay produces none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Desync {
    /// A forced switch fired while a different thread was running than
    /// during record (paranoid traces only).
    SwitchTidMismatch {
        switch_index: u64,
        recorded: u32,
        observed: u32,
    },
    /// Replay asked for a clock value but the data stream was exhausted or
    /// held a different event kind.
    ClockStream { reads_so_far: u64 },
    /// Replay reached a native call whose record is missing or mismatched.
    NativeStream { calls_so_far: u64 },
}

impl Desync {
    /// One-line human rendering naming the variant and every field.
    pub fn describe(&self) -> String {
        match self {
            Desync::SwitchTidMismatch {
                switch_index,
                recorded,
                observed,
            } => format!(
                "SwitchTidMismatch {{ switch_index: {switch_index}, recorded: {recorded}, observed: {observed} }}"
            ),
            Desync::ClockStream { reads_so_far } => {
                format!("ClockStream {{ reads_so_far: {reads_so_far} }}")
            }
            Desync::NativeStream { calls_so_far } => {
                format!("NativeStream {{ calls_so_far: {calls_so_far} }}")
            }
        }
    }

    /// Deterministic JSON (keys pre-sorted within each shape).
    pub fn to_json(&self) -> codec::Json {
        use codec::Json;
        match *self {
            Desync::SwitchTidMismatch {
                switch_index,
                recorded,
                observed,
            } => Json::obj(vec![
                ("kind", Json::Str("switch_tid_mismatch".into())),
                ("observed", Json::UInt(observed as u64)),
                ("recorded", Json::UInt(recorded as u64)),
                ("switch_index", Json::UInt(switch_index)),
            ]),
            Desync::ClockStream { reads_so_far } => Json::obj(vec![
                ("kind", Json::Str("clock_stream".into())),
                ("reads_so_far", Json::UInt(reads_so_far)),
            ]),
            Desync::NativeStream { calls_so_far } => Json::obj(vec![
                ("calls_so_far", Json::UInt(calls_so_far)),
                ("kind", Json::Str("native_stream".into())),
            ]),
        }
    }
}

/// The current countdown: remaining yield points plus the tid recorded for
/// validation.
#[derive(Debug, Clone, Copy)]
struct Pending {
    remaining: u64,
    check_tid: u32,
}

impl Pending {
    fn of(s: &SwitchRec) -> Pending {
        Pending {
            remaining: s.nyp,
            check_tid: s.check_tid,
        }
    }
}

/// The replay-mode hook (Fig. 2-B): a cursor into a shared, immutable
/// trace, so cloning it (a time-travel checkpoint) copies no events.
#[derive(Clone)]
pub struct DejaVuReplayer {
    common: InstrCommon,
    trace: Arc<Trace>,
    /// Countdown to the next forced switch (`None` = switch stream done).
    pending: Option<Pending>,
    /// Switch records consumed, `pending` excluded: it is
    /// `trace.switches[switch_index]`.
    switch_index: u64,
    /// Data records consumed: the next one is `trace.data[data_index]`.
    data_index: usize,
    clock_reads: u64,
    native_calls: u64,
    desyncs: Vec<Desync>,
}

impl DejaVuReplayer {
    pub fn new(trace: impl Into<Arc<Trace>>, sym: SymmetryConfig) -> Self {
        let trace = trace.into();
        Self {
            common: InstrCommon::new(sym),
            pending: trace.switches.first().map(Pending::of),
            trace,
            switch_index: 0,
            data_index: 0,
            clock_reads: 0,
            native_calls: 0,
            desyncs: Vec::new(),
        }
    }

    /// Desyncs observed so far (empty for an accurate replay).
    pub fn desyncs(&self) -> &[Desync] {
        &self.desyncs
    }

    pub fn into_desyncs(self) -> Vec<Desync> {
        self.desyncs
    }

    /// Total trace events this replayer has consumed so far (switch
    /// records + clock reads + native calls). The time-travel layer uses
    /// the delta across a seek to report how much of the trace a seek
    /// actually replayed.
    pub fn events_consumed(&self) -> u64 {
        self.switch_index + self.clock_reads + self.native_calls
    }
}

impl ExecHook for DejaVuReplayer {
    fn on_init(&mut self, vm: &mut Vm) {
        self.common.init(vm);
    }

    fn on_yield_point(&mut self, vm: &mut Vm) -> YieldAction {
        // Fig. 2-(B): the preempt bit is ignored during replay.
        let Some(p) = self.pending.as_mut() else {
            return YieldAction::NONE;
        };
        p.remaining -= 1;
        if p.remaining > 0 {
            return YieldAction::NONE;
        }
        // The recorded delta expired: this is the yield point at which the
        // recorded execution performed its preemptive switch.
        if self.trace.paranoid && p.check_tid != u32::MAX && p.check_tid != vm.sched.current {
            self.desyncs.push(Desync::SwitchTidMismatch {
                switch_index: self.switch_index,
                recorded: p.check_tid,
                observed: vm.sched.current,
            });
        }
        self.common.touch_buffer(vm, self.switch_index, 0, false);
        self.switch_index += 1;
        let next = self.trace.switches.get(self.switch_index as usize);
        self.pending = next.map(Pending::of);
        let run_helper = self.common.helper_due(vm, false);
        YieldAction {
            switch_now: true,
            run_helper,
        }
    }

    fn on_instr_yield_point(&mut self, _vm: &mut Vm) -> YieldAction {
        if !self.common.sym.live_clock {
            // Ablated liveClock: instrumentation yield points erroneously
            // tick the logical clock, desynchronizing it from the record
            // (the fill helper executes a different number of yield points
            // than the flush helper did).
            if let Some(p) = self.pending.as_mut() {
                p.remaining = p.remaining.saturating_sub(1).max(1);
            }
        }
        YieldAction::NONE
    }

    fn quiet_yield_horizon(&self, _vm: &Vm) -> u64 {
        // The consult that brings `remaining` to zero forces the recorded
        // switch, so exactly `remaining - 1` consults ahead are quiet. With
        // the switch stream exhausted, every remaining consult is a no-op.
        match self.pending.as_ref() {
            Some(p) => p.remaining.saturating_sub(1),
            None => u64::MAX,
        }
    }

    fn on_yield_points_skipped(&mut self, k: u64) {
        // Count down the recorded delta for yield points the tier-2 engine
        // batched; `k` is bounded by the horizon, so this never crosses 0.
        if let Some(p) = self.pending.as_mut() {
            p.remaining -= k;
        }
    }

    fn quiet_instr_yield_horizon(&self, _vm: &Vm) -> u64 {
        self.common.instr_horizon()
    }

    fn observes_shared_accesses(&self) -> bool {
        false
    }

    fn on_clock_read(&mut self, _vm: &mut Vm) -> i64 {
        self.clock_reads += 1;
        // A record of the other kind is left for the call it belongs to.
        match self.trace.data.get(self.data_index) {
            Some(&DataRec::Clock(v)) => {
                self.data_index += 1;
                v
            }
            _ => {
                self.desyncs.push(Desync::ClockStream {
                    reads_so_far: self.clock_reads,
                });
                0
            }
        }
    }

    fn on_native_call(&mut self, _vm: &mut Vm, _native: NativeId, _args: &[i64]) -> NativeOutcome {
        // The native is NOT executed: its recorded out-state is
        // regenerated (§2.5).
        self.native_calls += 1;
        match self.trace.data.get(self.data_index) {
            Some(DataRec::Native { ret, callbacks }) => {
                self.data_index += 1;
                let request = |(method, args)| CallbackReq { method, args };
                NativeOutcome {
                    ret: *ret,
                    callbacks: callbacks.iter().cloned().map(request).collect(),
                }
            }
            _ => {
                self.desyncs.push(Desync::NativeStream {
                    calls_so_far: self.native_calls,
                });
                NativeOutcome::value(0)
            }
        }
    }
}
