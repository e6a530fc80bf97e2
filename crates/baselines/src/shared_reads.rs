//! Recap / PPD-style content logging (paper §5): capture "the effect of
//! every read of shared memory locations, which is quite expensive."
//!
//! Record logs, per thread, the value of every heap read (fields, statics,
//! array elements). Replay substitutes the logged values back, making each
//! thread's dataflow deterministic regardless of how the scheduler
//! interleaves them — the per-process replay model of Recap. The price is
//! the largest trace of any scheme in the comparison (E5), typically an
//! order of magnitude beyond even Instant Replay's per-access records.

use codec::varint_len;
use dejavu::trace::DataRec;
use djvm::hook::{ExecHook, YieldAction};
use djvm::vm::Vm;
use djvm::{NativeId, NativeOutcome, Tid, Word};
use std::collections::{BTreeMap, VecDeque};

/// Per-thread read-value logs plus the shared data stream.
#[derive(Debug, Clone, Default)]
pub struct ReadTrace {
    pub reads: BTreeMap<Tid, Vec<i64>>,
    pub data: Vec<DataRec>,
}

impl ReadTrace {
    pub fn total_reads(&self) -> usize {
        self.reads.values().map(Vec::len).sum()
    }

    /// Encoded size. Content logs store raw word values (Recap captured
    /// "the effect of every read" at memory-word granularity; arbitrary
    /// word values do not varint-compress in general), so each read costs a
    /// full 8-byte word.
    pub fn encoded_len(&self) -> usize {
        let own = self
            .reads
            .iter()
            .map(|(tid, vals)| {
                varint_len(*tid as u64) + varint_len(vals.len() as u64) + vals.len() * 8
            })
            .sum();
        crate::framed_len(own, &self.data)
    }
}

/// Record mode: passthrough scheduling, log every read's value.
pub struct ReadLogRecorder {
    pub trace: ReadTrace,
}

impl ReadLogRecorder {
    pub fn new() -> Self {
        Self {
            trace: ReadTrace::default(),
        }
    }

    pub fn into_trace(self) -> ReadTrace {
        self.trace
    }
}

impl Default for ReadLogRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecHook for ReadLogRecorder {
    fn on_yield_point(&mut self, vm: &mut Vm) -> YieldAction {
        if vm.preempt_bit {
            vm.preempt_bit = false;
            YieldAction::switch()
        } else {
            YieldAction::NONE
        }
    }

    fn on_shared_read_value(&mut self, vm: &mut Vm, v: Word, is_ref: bool) -> Word {
        if !is_ref {
            self.trace
                .reads
                .entry(vm.sched.current)
                .or_default()
                .push(v as i64);
        }
        v
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

/// Replay mode: substitute each thread's logged read values, overriding
/// whatever the heap currently holds.
///
/// **Caution**: substituted reads only pin down *values*, not object
/// identity — so this scheme (like Recap) only replays workloads whose
/// control flow depends on read values, and reference reads are passed
/// through untouched (references are addresses, which the scheme cannot
/// substitute safely across runs).
pub struct ReadLogReplayer {
    reads: BTreeMap<Tid, VecDeque<i64>>,
    data: VecDeque<DataRec>,
    pub substituted: u64,
    pub underruns: u64,
}

impl ReadLogReplayer {
    pub fn new(trace: ReadTrace) -> Self {
        Self {
            reads: trace
                .reads
                .into_iter()
                .map(|(t, v)| (t, v.into()))
                .collect(),
            data: trace.data.into(),
            substituted: 0,
            underruns: 0,
        }
    }
}

impl ExecHook for ReadLogReplayer {
    fn on_yield_point(&mut self, _vm: &mut Vm) -> YieldAction {
        YieldAction::NONE // scheduling is irrelevant to per-thread dataflow
    }

    fn on_shared_read_value(&mut self, vm: &mut Vm, v: Word, is_ref: bool) -> Word {
        if is_ref {
            // Reference reads pass through: addresses cannot be substituted
            // across runs (see type docs).
            return v;
        }
        match self
            .reads
            .get_mut(&vm.sched.current)
            .and_then(VecDeque::pop_front)
        {
            Some(logged) => {
                self.substituted += 1;
                logged as Word
            }
            None => {
                self.underruns += 1;
                v
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
    fn encoded_len_scales_with_reads() {
        let mut t = ReadTrace::default();
        let base = t.encoded_len();
        t.reads.entry(0).or_default().extend([1i64; 100]);
        let with = t.encoded_len();
        assert!(with >= base + 800, "eight bytes per read");
    }
}
