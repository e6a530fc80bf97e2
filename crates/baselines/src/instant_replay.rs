//! Instant Replay (LeBlanc & Mellor-Crummey, paper §5): CREW
//! version-number logging on shared-object accesses.
//!
//! Instead of logging thread switches, Instant Replay logs the *order of
//! accesses to shared objects*: each object carries a version that writers
//! bump; every access appends a `(object, version)` record. During replay,
//! a thread may perform an access only when the object's current version
//! matches the recorded one — otherwise it relinquishes the processor and
//! retries. "A major drawback of such approaches is the overhead, in time
//! and particularly in space, of capturing critical events" — which is
//! exactly what the E5 trace-size experiment quantifies against DejaVu's
//! switch-only trace.
//!
//! The guarantee is also *weaker* than DejaVu's: the recorded access order
//! pins down shared-data values, not the instruction-level interleaving
//! (and the paper notes it "fails when critical events within CREW are
//! non-deterministic"). Accordingly, accuracy for this scheme is judged on
//! program output, not on the full execution fingerprint.

use codec::varint_len;
use dejavu::trace::DataRec;
use djvm::hook::{AccessDecision, ExecHook, YieldAction};
use djvm::vm::Vm;
use djvm::{NativeId, NativeOutcome};
use std::collections::{BTreeMap, VecDeque};

/// One shared access record: which thread accessed which object (by
/// allocation serial), at which version, and whether it wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRec {
    pub tid: u32,
    pub serial: u64,
    pub version: u64,
    pub write: bool,
}

/// The Instant Replay trace: per-access records plus the data stream every
/// replay scheme needs (paper footnote 7).
#[derive(Debug, Clone, Default)]
pub struct IrTrace {
    pub accesses: Vec<AccessRec>,
    pub data: Vec<DataRec>,
}

impl IrTrace {
    /// Encoded size (varint model shared with the other traces).
    pub fn encoded_len(&self) -> usize {
        let mut own = 0;
        let mut last_serial = 0u64;
        for a in &self.accesses {
            // delta-encode serials (favourable to IR, for fairness)
            let delta = a.serial.abs_diff(last_serial);
            own += varint_len(delta << 1) + varint_len(a.version) + varint_len(a.tid as u64) + 1;
            last_serial = a.serial;
        }
        crate::framed_len(own, &self.data)
    }
}

/// Record mode: passthrough scheduling + per-access version logging.
pub struct IrRecorder {
    versions: BTreeMap<u64, u64>,
    pub trace: IrTrace,
}

impl IrRecorder {
    pub fn new() -> Self {
        Self {
            versions: BTreeMap::new(),
            trace: IrTrace::default(),
        }
    }

    pub fn into_trace(self) -> IrTrace {
        self.trace
    }
}

impl Default for IrRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecHook for IrRecorder {
    fn on_yield_point(&mut self, vm: &mut Vm) -> YieldAction {
        if vm.preempt_bit {
            vm.preempt_bit = false;
            YieldAction::switch()
        } else {
            YieldAction::NONE
        }
    }

    fn on_shared_access(&mut self, vm: &mut Vm, serial: u64, write: bool) -> AccessDecision {
        let v = self.versions.entry(serial).or_insert(0);
        self.trace.accesses.push(AccessRec {
            tid: vm.sched.current,
            serial,
            version: *v,
            write,
        });
        if write {
            *v += 1;
        }
        AccessDecision::Proceed
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

/// Replay mode: enforce the per-object access order; a thread whose access
/// is premature yields and retries.
pub struct IrReplayer {
    /// Per-object queues of (tid, version, write) in recorded order.
    queues: BTreeMap<u64, VecDeque<(u32, u64, bool)>>,
    versions: BTreeMap<u64, u64>,
    data: VecDeque<DataRec>,
    /// Accesses delayed at least once (the scheme's enforcement overhead).
    pub delays: u64,
    pub order_violations: u64,
}

impl IrReplayer {
    pub fn new(trace: IrTrace) -> Self {
        let mut queues: BTreeMap<u64, VecDeque<(u32, u64, bool)>> = BTreeMap::new();
        for a in &trace.accesses {
            queues
                .entry(a.serial)
                .or_default()
                .push_back((a.tid, a.version, a.write));
        }
        Self {
            queues,
            versions: BTreeMap::new(),
            data: trace.data.into(),
            delays: 0,
            order_violations: 0,
        }
    }
}

impl ExecHook for IrReplayer {
    fn on_yield_point(&mut self, _vm: &mut Vm) -> YieldAction {
        // No preemption log: scheduling is driven entirely by access-order
        // enforcement (and natural blocking).
        YieldAction::NONE
    }

    fn on_shared_access(&mut self, vm: &mut Vm, serial: u64, write: bool) -> AccessDecision {
        let me = vm.sched.current;
        let cur = self.versions.entry(serial).or_insert(0);
        let Some(q) = self.queues.get_mut(&serial) else {
            self.order_violations += 1;
            return AccessDecision::Proceed;
        };
        match q.front() {
            Some(&(tid, ver, w)) if tid == me && ver == *cur && w == write => {
                q.pop_front();
                if write {
                    *cur += 1;
                }
                AccessDecision::Proceed
            }
            Some(_) => {
                self.delays += 1;
                AccessDecision::SwitchAndRetry
            }
            None => {
                self.order_violations += 1;
                AccessDecision::Proceed
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
    fn access_trace_grows_per_access() {
        let mut t = IrTrace::default();
        let base = t.encoded_len();
        t.accesses.push(AccessRec {
            tid: 0,
            serial: 10,
            version: 0,
            write: true,
        });
        assert!(t.encoded_len() > base);
    }
}
