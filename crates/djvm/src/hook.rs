//! The instrumentation seam: where DejaVu is "cross-optimized" into the VM.
//!
//! In Jalapeño, DejaVu's instrumentation is compiled *into* the unified
//! machine code of application + VM (paper §1). Our analogue is an
//! [`ExecHook`] invoked synchronously from the interpreter's hot path at
//! exactly the paper's interception points:
//!
//! * **yield points** (method prologues and taken loop backedges) — the
//!   only places a preemptive switch may happen, and the ticks of the
//!   logical clock (Fig. 2);
//! * **wall-clock reads** — `Now` bytecodes and the scheduler's periodic
//!   reads that drive `sleep`/timed-`wait` expiry (§2.2);
//! * **native calls** — return values and callback parameters (§2.5).
//!
//! A hook may also ask the VM to run an interpreted *helper method*
//! (buffer flush/fill): those frames are flagged as instrumentation, their
//! yield points reach [`ExecHook::on_instr_yield_point`] instead (the
//! `liveClock` distinction), and any thread switch the hook requested is
//! deferred until the helper returns.

use crate::bytecode::{MethodId, NativeId};
use crate::heap::Word;
use crate::native::NativeOutcome;
use crate::thread::Tid;
use crate::vm::Vm;

/// Decision returned by [`ExecHook::on_shared_access`] *before* a heap
/// access executes. Used by baseline replay schemes (Instant Replay's CREW
/// enforcement) to delay a thread until the recorded access order allows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessDecision {
    /// Execute the access now.
    Proceed,
    /// Do not execute; switch threads and retry this instruction later.
    SwitchAndRetry,
}

/// What the hook wants done at a yield point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct YieldAction {
    /// Perform a thread switch (immediately, or after the helper if one is
    /// also requested).
    pub switch_now: bool,
    /// Run this interpreted instrumentation helper first: `(method, arg)`.
    pub run_helper: Option<(MethodId, i64)>,
}

impl YieldAction {
    pub const NONE: YieldAction = YieldAction {
        switch_now: false,
        run_helper: None,
    };

    pub fn switch() -> YieldAction {
        YieldAction {
            switch_now: true,
            run_helper: None,
        }
    }
}

/// The instrumentation interface. `Vm` is passed in full: like
/// cross-optimized instrumentation, hooks may allocate in the guest heap,
/// load guest classes, and read scheduler state — which is precisely why
/// the symmetry discipline of §2.4 exists.
pub trait ExecHook {
    /// Called once after boot, before the entry thread executes. Symmetric
    /// hooks do their pre-allocation / pre-loading / warm-up I/O here.
    fn on_init(&mut self, _vm: &mut Vm) {}

    /// A yield point in application/runtime code (liveClock running).
    fn on_yield_point(&mut self, vm: &mut Vm) -> YieldAction;

    /// A yield point inside an instrumentation helper frame (liveClock
    /// paused). Symmetric hooks ignore these entirely.
    fn on_instr_yield_point(&mut self, _vm: &mut Vm) -> YieldAction {
        YieldAction::NONE
    }

    /// How many upcoming [`ExecHook::on_yield_point`] consults are
    /// guaranteed *quiet* — they would return [`YieldAction::NONE`] and
    /// have no effect beyond advancing the hook's yield-point arithmetic —
    /// assuming no timer tick fires before they happen. Tier 2's closed
    /// form batches that many consults away (crediting them back via
    /// [`ExecHook::on_yield_points_skipped`]), so the answer must
    /// be exact: passthrough and record switch only when the preempt bit
    /// is set (which a tick-free window cannot set), replay switches when
    /// the recorded delta expires. After each tick it crosses, tier 2
    /// credits the consults it has passed and asks again: passthrough and
    /// record then answer 0, replay's answer does not move. The consult
    /// just past the horizon tier 2 performs through
    /// [`ExecHook::on_yield_point`] itself, as tier 1 would. The
    /// conservative default of 0 keeps custom hooks correct: every consult
    /// reaches them.
    fn quiet_yield_horizon(&self, _vm: &Vm) -> u64 {
        0
    }

    /// `k` quiet yield points were batched by tier-2 execution instead of
    /// consulting [`ExecHook::on_yield_point`] one by one. Hooks that
    /// count yield points (the logical clock) must advance their counters
    /// by `k` here; `k` never exceeds the horizon they last reported.
    fn on_yield_points_skipped(&mut self, _k: u64) {}

    /// [`ExecHook::quiet_yield_horizon`] for yield points inside
    /// instrumentation helper frames: how many upcoming
    /// [`ExecHook::on_instr_yield_point`] consults are guaranteed to return
    /// [`YieldAction::NONE`] with no effect at all. Tier 2 skips at most
    /// that many of a helper's closed-loop consults and credits nothing
    /// back, so a hook whose instrumentation yield points count anything
    /// must answer 0, as the default does: each such consult then reaches
    /// [`ExecHook::on_instr_yield_point`].
    fn quiet_instr_yield_horizon(&self, _vm: &Vm) -> u64 {
        0
    }

    /// A wall-clock read. Passthrough/record return (and record) the live
    /// value; replay returns the recorded one.
    fn on_clock_read(&mut self, vm: &mut Vm) -> i64;

    /// A native call. Passthrough/record execute the native (recording its
    /// outcome); replay regenerates the recorded outcome without executing.
    fn on_native_call(&mut self, vm: &mut Vm, native: NativeId, args: &[i64]) -> NativeOutcome;

    /// Every thread dispatch (preemptive *and* deterministic). DejaVu
    /// ignores this — its whole point is that deterministic switches need
    /// no logging — but baseline schemes that do not replay the thread
    /// package (Russinovich-Cogswell) must log and re-steer every switch.
    fn on_thread_switch(&mut self, _vm: &mut Vm, _to: Tid) {}

    /// Called before a heap access (field/static/array load or store) with
    /// the target object's allocation serial. Baseline schemes use this for
    /// CREW version logging (Instant Replay) and order enforcement; the
    /// default (and DejaVu) does nothing — another of the paper's points:
    /// capturing critical events is the expensive road not taken.
    fn on_shared_access(&mut self, _vm: &mut Vm, _serial: u64, _write: bool) -> AccessDecision {
        AccessDecision::Proceed
    }

    /// Filter the value produced by a heap read (Recap/PPD-style content
    /// logging substitutes recorded values here); the read has already
    /// pushed `v`, and the answer replaces it. `is_ref` distinguishes
    /// reference reads — addresses, which content-logging schemes cannot
    /// safely substitute across runs — from plain values.
    fn on_shared_read_value(&mut self, _vm: &mut Vm, v: Word, _is_ref: bool) -> Word {
        v
    }

    /// Whether [`ExecHook::on_shared_access`] and
    /// [`ExecHook::on_shared_read_value`] must see every heap access. A hook
    /// that keeps both defaults may answer `false`: tier 1 then runs field,
    /// static and array-element accesses inside its cursor without calling
    /// either. The conservative default keeps custom hooks exact: every
    /// such access goes through the generic path, which calls both.
    fn observes_shared_accesses(&self) -> bool {
        true
    }
}

/// The no-instrumentation hook: live clock, live natives, preempt on the
/// hardware timer bit. This is "the code with instrumentation turned off" —
/// the baseline that record mode's overhead is measured against.
#[derive(Debug, Default)]
pub struct Passthrough;

impl ExecHook for Passthrough {
    fn on_yield_point(&mut self, vm: &mut Vm) -> YieldAction {
        if vm.preempt_bit {
            vm.preempt_bit = false;
            YieldAction::switch()
        } else {
            YieldAction::NONE
        }
    }

    fn quiet_yield_horizon(&self, vm: &Vm) -> u64 {
        // Without the preempt bit, every consult is a no-op; with it, the
        // very next one switches.
        if vm.preempt_bit {
            0
        } else {
            u64::MAX
        }
    }

    fn on_clock_read(&mut self, vm: &mut Vm) -> i64 {
        vm.read_live_clock()
    }

    fn on_native_call(&mut self, vm: &mut Vm, native: NativeId, args: &[i64]) -> NativeOutcome {
        vm.call_native_live(native, args)
    }

    fn observes_shared_accesses(&self) -> bool {
        false
    }
}
