//! Russinovich & Cogswell's scheme (paper §5): log **every** thread switch
//! and steer the scheduler during replay through a record→replay thread-id
//! mapping.
//!
//! Because this scheme does *not* replay the thread package, it cannot rely
//! on deterministic switches falling out for free: the OS notifies it on
//! each dispatch, every one goes in the trace, and replay must translate
//! recorded thread ids to replay-run ids (threads may be created by a
//! different numbering authority) and tell the scheduler whom to run.
//! "This is a significant execution cost that DejaVu does not incur because
//! it replays the entire Jalapeño thread package."
//!
//! We reproduce the cost model faithfully: the trace carries one record per
//! dispatch (tid + yield-delta for preemptive ones), and the replayer
//! performs a map lookup + validation on every dispatch. Our preemptive
//! switch points reuse the yield-point counter (their implementation used a
//! Mach kernel hook; the identification mechanism is orthogonal).

use codec::varint_len;
use dejavu::trace::DataRec;
use djvm::hook::{ExecHook, YieldAction};
use djvm::vm::Vm;
use djvm::{NativeId, NativeOutcome, Tid};
use std::collections::{BTreeMap, VecDeque};

/// One dispatch record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchRec {
    /// Thread granted the processor.
    pub to: Tid,
    /// Yield points since the previous *preemptive* switch if this dispatch
    /// was caused by preemption; `None` for deterministic dispatches
    /// (blocking operations) which this scheme logs but need not force.
    pub preempt_after: Option<u64>,
}

/// The full RC trace: every dispatch + the same data stream DejaVu needs
/// (footnote 7: data logging is required in all replay schemes).
#[derive(Debug, Clone, Default)]
pub struct RcTrace {
    pub dispatches: Vec<DispatchRec>,
    pub data: Vec<DataRec>,
}

impl RcTrace {
    /// Encoded size in bytes (the varint model of the DejaVu trace, for a
    /// fair E5 comparison): a tid and a flag byte per dispatch, plus the
    /// yield-point delta of a preemptive one.
    pub fn encoded_len(&self) -> usize {
        let own = self
            .dispatches
            .iter()
            .map(|d| varint_len(d.to as u64) + 1 + d.preempt_after.map_or(0, varint_len))
            .sum();
        crate::framed_len(own, &self.data)
    }
}

/// Record mode: like DejaVu's recorder for preemption, plus a dispatch
/// record for *every* switch.
pub struct RcRecorder {
    nyp: u64,
    preempt_pending: bool,
    pub trace: RcTrace,
}

impl RcRecorder {
    pub fn new() -> Self {
        Self {
            nyp: 0,
            preempt_pending: false,
            trace: RcTrace::default(),
        }
    }

    pub fn into_trace(self) -> RcTrace {
        self.trace
    }
}

impl Default for RcRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecHook for RcRecorder {
    fn on_yield_point(&mut self, vm: &mut Vm) -> YieldAction {
        self.nyp += 1;
        if vm.preempt_bit {
            vm.preempt_bit = false;
            self.preempt_pending = true;
            YieldAction::switch()
        } else {
            YieldAction::NONE
        }
    }

    fn on_thread_switch(&mut self, _vm: &mut Vm, to: Tid) {
        let preempt_after = if self.preempt_pending {
            self.preempt_pending = false;
            let d = self.nyp;
            self.nyp = 0;
            Some(d)
        } else {
            None
        };
        self.trace
            .dispatches
            .push(DispatchRec { to, preempt_after });
    }

    fn on_clock_read(&mut self, vm: &mut Vm) -> i64 {
        let v = vm.read_live_clock();
        self.trace.data.push(DataRec::Clock(v));
        v
    }

    fn on_native_call(&mut self, vm: &mut Vm, native: NativeId, args: &[i64]) -> NativeOutcome {
        let out = vm.call_native_live(native, args);
        self.trace.data.push(DataRec::Native {
            ret: out.ret,
            callbacks: out
                .callbacks
                .iter()
                .map(|c| (c.method, c.args.clone()))
                .collect(),
        });
        out
    }
}

/// Replay mode: forces preemptive switches from the log and, on *every*
/// dispatch, performs the record→replay thread-id translation + check that
/// RC's design requires (the mapping cost DejaVu avoids).
pub struct RcReplayer {
    dispatches: VecDeque<DispatchRec>,
    data: VecDeque<DataRec>,
    /// Remaining yield points until the next forced preemptive switch.
    pending: Option<u64>,
    /// record-tid -> replay-tid. In our setup the identity map, but RC must
    /// maintain and consult it per dispatch; we measure its lookups.
    map: BTreeMap<Tid, Tid>,
    pub lookups: u64,
    pub mismatches: u64,
}

impl RcReplayer {
    pub fn new(trace: RcTrace) -> Self {
        let mut dispatches: VecDeque<DispatchRec> = trace.dispatches.into();
        // Pre-scan to the first preemptive record.
        let pending = Self::next_preempt(&mut dispatches);
        Self {
            dispatches,
            data: trace.data.into(),
            pending,
            map: BTreeMap::new(),
            lookups: 0,
            mismatches: 0,
        }
    }

    fn next_preempt(d: &mut VecDeque<DispatchRec>) -> Option<u64> {
        // Find the yield-delta of the next preemptive dispatch without
        // consuming the deterministic ones in between (they are validated
        // as they happen).
        d.iter().find_map(|r| r.preempt_after)
    }
}

impl ExecHook for RcReplayer {
    fn on_yield_point(&mut self, _vm: &mut Vm) -> YieldAction {
        let Some(n) = self.pending.as_mut() else {
            return YieldAction::NONE;
        };
        *n -= 1;
        if *n > 0 {
            return YieldAction::NONE;
        }
        YieldAction::switch()
    }

    fn on_thread_switch(&mut self, vm: &mut Vm, to: Tid) {
        // The mapping maintenance + lookup RC pays on every dispatch.
        let mapped = *self.map.entry(to).or_insert(to);
        self.lookups += 1;
        if mapped != vm.sched.current {
            // (vm.sched.current == to at this point; a mismatch means the
            // map disagrees with reality.)
        }
        match self.dispatches.pop_front() {
            Some(rec) => {
                if rec.to != mapped {
                    self.mismatches += 1;
                }
                if rec.preempt_after.is_some() {
                    // consumed the preemptive record; arm the next one
                    self.pending = RcReplayer::next_preempt(&mut self.dispatches);
                }
            }
            None => {
                self.mismatches += 1;
            }
        }
    }

    fn on_clock_read(&mut self, _vm: &mut Vm) -> i64 {
        match self.data.pop_front() {
            Some(DataRec::Clock(v)) => v,
            _ => 0,
        }
    }

    fn on_native_call(&mut self, _vm: &mut Vm, _native: NativeId, _args: &[i64]) -> NativeOutcome {
        match self.data.pop_front() {
            Some(DataRec::Native { ret, callbacks }) => NativeOutcome {
                ret,
                callbacks: callbacks
                    .into_iter()
                    .map(|(method, args)| djvm::CallbackReq { method, args })
                    .collect(),
            },
            _ => NativeOutcome::value(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoded_len_counts_dispatches() {
        let t = RcTrace {
            dispatches: vec![
                DispatchRec {
                    to: 1,
                    preempt_after: Some(300),
                },
                DispatchRec {
                    to: 2,
                    preempt_after: None,
                },
            ],
            data: vec![DataRec::Clock(5)],
        };
        let small = RcTrace::default().encoded_len();
        assert!(t.encoded_len() > small);
    }
}
