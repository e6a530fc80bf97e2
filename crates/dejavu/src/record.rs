//! Record mode: Figure 2-(A) of the paper.
//!
//! At every counted yield point the recorder increments `nyp`; when the
//! hardware preempt bit is set it records the delta, resets the counter,
//! and requests the thread switch. Wall-clock reads and native-call
//! outcomes are captured into the data stream. Periodically the recorder
//! "flushes" its buffer by running the interpreted `sys$flushTrace` helper
//! inside the guest — whose side effects (yield points, stack use, lazy
//! compilation, I/O-path touches) are exactly what the symmetry machinery
//! must mirror in replay mode.

use crate::symmetry::{SymmetryConfig, FLUSH_PERIOD, HELPER_HEADROOM, TRACE_BUFFER_WORDS};
use crate::trace::{DataRec, SwitchRec, Trace};
use djvm::hook::{ExecHook, YieldAction};
use djvm::vm::{RootHandle, Vm, VmStatus};
use djvm::{ArrKind, NativeId, NativeOutcome};

/// State shared by the record and replay hooks: the instrumentation's own
/// guest-visible footprint (buffer, helper cadence, symmetric init).
#[derive(Clone)]
pub(crate) struct InstrCommon {
    pub sym: SymmetryConfig,
    pub buffer: Option<RootHandle>,
    pub switches_since_flush: u32,
}

impl InstrCommon {
    pub fn new(sym: SymmetryConfig) -> Self {
        Self {
            sym,
            buffer: None,
            switches_since_flush: 0,
        }
    }

    /// Symmetric initialization (§2.4): identical in record and replay.
    pub fn init(&mut self, vm: &mut Vm) {
        if self.sym.preallocate_buffer {
            let buf = vm
                .alloc_array_public(ArrKind::Int, TRACE_BUFFER_WORDS)
                .expect("heap too small for instrumentation buffer");
            self.buffer = Some(vm.register_root(buf));
        }
        if self.sym.preload_compile {
            let b = vm.program.builtins;
            let flush_low = vm.program.method_id_by_name("sys$flushLow");
            vm.ensure_method_compiled(b.flush_method).expect("preload");
            if let Some(fl) = flush_low {
                vm.ensure_method_compiled(fl).expect("preload");
            }
            vm.ensure_method_compiled(b.fill_method).expect("preload");
        }
        if self.sym.warmup_io {
            // The write-then-read warm-up file: forces both the output and
            // the input path to be initialized in both modes.
            vm.io_write_touch().expect("warmup");
            vm.io_read_touch().expect("warmup");
        }
    }

    /// Decide whether this preemptive switch also runs the flush/fill
    /// helper, performing the eager-stack-growth symmetry first.
    pub fn helper_due(&mut self, vm: &mut Vm, is_record: bool) -> Option<(djvm::MethodId, i64)> {
        self.switches_since_flush += 1;
        if self.switches_since_flush < FLUSH_PERIOD {
            return None;
        }
        self.switches_since_flush = 0;
        if self.sym.eager_stack_growth {
            if let Err(e) = vm.ensure_stack_headroom(HELPER_HEADROOM) {
                vm.status = VmStatus::Error(e);
                return None;
            }
        }
        let b = vm.program.builtins;
        if is_record {
            // A naive recorder allocates its buffer lazily, on first use —
            // an allocation replay will never perform (the ablation).
            if self.buffer.is_none() && !self.sym.preallocate_buffer {
                match vm.alloc_array_public(ArrKind::Int, TRACE_BUFFER_WORDS) {
                    Ok(buf) => self.buffer = Some(vm.register_root(buf)),
                    Err(e) => {
                        vm.status = VmStatus::Error(e);
                        return None;
                    }
                }
            }
            if let Err(e) = vm.io_write_touch() {
                vm.status = VmStatus::Error(e);
                return None;
            }
            Some((b.flush_method, 1))
        } else {
            if let Err(e) = vm.io_read_touch() {
                vm.status = VmStatus::Error(e);
                return None;
            }
            Some((b.fill_method, 1))
        }
    }

    /// Both hooks' [`ExecHook::quiet_instr_yield_horizon`]: with liveClock
    /// paused their instrumentation yield points do nothing; the ablation
    /// counts every one, so tier 2 never batches them.
    pub fn instr_horizon(&self) -> u64 {
        if self.sym.live_clock {
            u64::MAX
        } else {
            0
        }
    }

    /// Guest-visible buffer write/read at a switch (contents are
    /// instrumentation state and excluded from the state digest).
    pub fn touch_buffer(&self, vm: &mut Vm, idx: u64, value: u64, write: bool) {
        if let Some(h) = self.buffer {
            let buf = vm.root(h);
            let len = vm.heap.array_len(buf) as u64;
            let i = (idx % len) as usize;
            if write {
                vm.heap.set_elem(buf, i, value);
            } else {
                let _ = vm.heap.get_elem(buf, i);
            }
        }
    }
}

/// The record-mode hook (Fig. 2-A).
pub struct DejaVuRecorder {
    common: InstrCommon,
    /// Yield points since the last preemptive switch (the logical clock
    /// delta of Fig. 2).
    nyp: u64,
    total_switch_index: u64,
    paranoid: bool,
    trace: Trace,
}

impl DejaVuRecorder {
    pub fn new(sym: SymmetryConfig, paranoid: bool) -> Self {
        Self {
            common: InstrCommon::new(sym),
            nyp: 0,
            total_switch_index: 0,
            paranoid,
            trace: Trace {
                paranoid,
                ..Trace::default()
            },
        }
    }

    /// Extract the finished trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

impl ExecHook for DejaVuRecorder {
    fn on_init(&mut self, vm: &mut Vm) {
        self.common.init(vm);
    }

    fn on_yield_point(&mut self, vm: &mut Vm) -> YieldAction {
        // Fig. 2-(A): liveClock is implicitly true here (instrumentation
        // yield points arrive via on_instr_yield_point instead).
        self.nyp += 1;
        if !vm.preempt_bit {
            return YieldAction::NONE;
        }
        vm.preempt_bit = false; // cleared by performThreadSwitch during record
        self.trace.switches.push(SwitchRec {
            nyp: self.nyp,
            check_tid: if self.paranoid {
                vm.sched.current
            } else {
                u32::MAX
            },
        });
        self.common
            .touch_buffer(vm, self.total_switch_index, self.nyp, true);
        self.total_switch_index += 1;
        self.nyp = 0;
        let run_helper = self.common.helper_due(vm, true);
        YieldAction {
            switch_now: true,
            run_helper,
        }
    }

    fn on_instr_yield_point(&mut self, _vm: &mut Vm) -> YieldAction {
        // liveClock == false: the yield point is not counted. The ablated
        // variant (live_clock off) counts it — breaking replay, since the
        // replay-side helper executes a different number of yield points.
        if !self.common.sym.live_clock {
            self.nyp += 1;
        }
        YieldAction::NONE
    }

    fn quiet_yield_horizon(&self, vm: &Vm) -> u64 {
        // Like passthrough, recording switches only on the hardware preempt
        // bit; in a tick-free window every consult just advances `nyp`.
        if vm.preempt_bit {
            0
        } else {
            u64::MAX
        }
    }

    fn on_yield_points_skipped(&mut self, k: u64) {
        // Batched yield points still tick the logical clock (Fig. 2's
        // delta): the recorded trace must not depend on the execution tier.
        self.nyp += k;
    }

    fn quiet_instr_yield_horizon(&self, _vm: &Vm) -> u64 {
        self.common.instr_horizon()
    }

    fn observes_shared_accesses(&self) -> bool {
        false // the paper's point: DejaVu logs no shared access
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
