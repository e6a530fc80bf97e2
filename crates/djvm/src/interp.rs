//! The interpreter: executes guest bytecode one instruction per "cycle",
//! driving the timer, the yield-point discipline, and the hook.
//!
//! Thread switches happen at exactly two kinds of places:
//!
//! * **Deterministic switches** — a synchronization operation blocks the
//!   current thread (`monitorenter` on a held monitor, `wait`, `join`,
//!   `sleep`). These need no logging: the thread package itself is
//!   replayed (paper §2.2).
//! * **Yield points** — method prologues and taken loop backedges, where
//!   the hook decides (Fig. 2): passthrough switches iff the hardware
//!   preempt bit is set; record logs the yield-point delta; replay forces
//!   the switch when the recorded delta expires.
//!
//! # One semantics, three tiers
//!
//! What an instruction *does* is written once: total ops in
//! [`Pure::exec`], branch conditions in [`Test::eval`], the ops that can
//! fault but only move words (`Div`/`Rem` and the field, static and array
//! ops) in [`Partial::exec`] over [`crate::compile::div_rem`] and
//! [`crate::objref`] (the remote reflector calls these too), clock reads
//! and native calls in [`now`] and [`native_call`], everything else in
//! [`exec_op`]. How its cycle is *accounted* is written once too, in
//! [`Cursor::retire`]. The two dispatch tiers — [`step`] (generic) and
//! [`run_quick`] (quickened) — are sequencing policies over those
//! definitions: they differ in how many instructions they retire between
//! write-backs, never in what an instruction means. Tier 1 keeps heap,
//! clock and native ops in its cursor, flushing only around a hook call;
//! the hook's access gate and read filter stay on the generic path, which
//! a hook that observes shared accesses keeps them on. Tier 2,
//! [`run_mega`], executes no instruction at all: at the head of a counting
//! loop it writes the closed form of the passes tier 1 would have run
//! ([`ClosedLoop`]) and hands every other pass back to tier 1. It owns the
//! preemption window too: its batches cross timer ticks, and it performs
//! the yield point that closes the pass a tick or a recorded switch lands
//! in, so a preemption costs no tier-1 pass.

use crate::bytecode::{MethodId, Op, Ty};
use crate::compile::{ClosedLoop, Partial, Pure, QOp, Test};
use crate::fingerprint::{Fingerprint, FingerprintMode};
use crate::heap::{Addr, Word, NULL};
use crate::hook::{AccessDecision, ExecHook};
use crate::objref;
use crate::sched::{EntryWaiter, Sleeper, WaitEntry};
use crate::thread::{SavedPc, ThreadStatus, Tid};
use crate::vm::{ArgSource, ErrKind, Vm, VmError, VmStatus};
use telemetry::VmEvent;

/// How the executed instruction affected the pc.
enum Flow {
    /// Fall through to pc+1.
    Next,
    /// Taken branch to an absolute pc (a yield point if the instruction
    /// is a backedge).
    Jump(u32),
    /// The handler updated thread state itself (call, return, block, halt).
    Managed,
}

/// Execute instructions until the VM stops or `max_steps` elapse.
/// Returns the final (or current) status. `u64::MAX` means no budget:
/// guest programs that do not terminate will spin forever, as real ones
/// do. [`run_until`] with no logical-time bound.
pub fn run(vm: &mut Vm, hook: &mut dyn ExecHook, max_steps: u64) -> VmStatus {
    run_until(vm, hook, max_steps, u64::MAX)
}

/// The one forward loop over a VM, with its two pause bounds (`u64::MAX`
/// switches either off), both honoured identically by every tier:
///
/// * **steps** — at most `max_steps` more instructions retire; a fused
///   superinstruction counts as its constituent instructions and splits
///   at the edge, and tier 2 retires only whole passes that fit.
/// * **logical time** — the run pauses right after the instruction that
///   brings `counters.yield_points` to `until` (at once if it is already
///   there): tiers 0–1 re-test it after every yield point, tier 2 folds it
///   into its quiet-yield horizon.
///
/// Time travel's checkpoint keys (`dejavu::timetravel`) are these bounds:
/// a step-cadence key is a step budget, a block boundary a logical time.
pub fn run_until(vm: &mut Vm, hook: &mut dyn ExecHook, max_steps: u64, until: u64) -> VmStatus {
    let limit = vm.counters.steps.saturating_add(max_steps);
    if vm.config.quicken {
        return run_quick(vm, hook, limit, until);
    }
    while vm.status.is_running() && vm.counters.steps < limit && vm.counters.yield_points < until {
        step(vm, hook);
    }
    vm.status
}

/// The accounting state every tier advances per retired instruction,
/// held in locals by the batching tiers and written back at flush points.
///
/// # The cycle-accounting invariant (DESIGN §5)
///
/// Retiring `k` source instructions starting at `pc` advances
/// `counters.steps` and `cycles` by `k`, mixes each `(tid, method, pc+i)`
/// into the `Full` fingerprint in order, and moves the timer `k` cycles
/// closer to its tick — in every tier, because [`Cursor::retire`] is the
/// only code that does any of it (tier 2's closed form applies whole
/// passes' mixes as their exact composition, [`ClosedLoop::fold`]). A
/// tier may batch (`k > 1`, or [`Cursor::mix`] now and [`Cursor::count`]
/// later) only over total ops, for which "account for k, then run k" is
/// observationally identical to interleaving, and only where no tick can
/// fire inside the batch — or, in tier 2, by splitting the count at each
/// tick ([`Cursor::count_across`]): a tick touches VM-global state only,
/// and no hook consult lies inside a closed pass.
struct Cursor {
    cycles: u64,
    steps: u64,
    to_tick: u64,
    fph: u64,
    fpsteps: u64,
    /// `Full` fingerprinting, outside instrumentation frames. Constant
    /// between loads: `instr_depth` only moves at calls, returns and
    /// yield points, all of which store the cursor first.
    fp_on: bool,
}

impl Cursor {
    #[inline(always)]
    fn load(vm: &Vm) -> Cursor {
        let (fph, fpsteps) = vm.fingerprint.step_state();
        Cursor {
            cycles: vm.cycles,
            steps: vm.counters.steps,
            to_tick: vm.cycles_to_tick,
            fph,
            fpsteps,
            fp_on: vm.fingerprint.mode() == FingerprintMode::Full && vm.instr_depth == 0,
        }
    }

    /// Write back. Required before anything that can switch threads,
    /// push/pop frames, fail, allocate, consult the hook, or mix a
    /// fingerprint event (events must mix in program order).
    #[inline(always)]
    fn store(&self, vm: &mut Vm) {
        vm.cycles = self.cycles;
        vm.counters.steps = self.steps;
        vm.cycles_to_tick = self.to_tick;
        vm.fingerprint.set_step_state(self.fph, self.fpsteps);
    }

    /// The `Full`-mode pc mixes of `k` instructions starting at `pc`, one
    /// multiply-add each. The chain is affine, so a tier that retires whole
    /// passes folds it instead (`run_mega` applies the loop's
    /// [`ClosedLoop::fold`]); per fused op there is nothing to win.
    #[inline(always)]
    fn mix(&mut self, tid: Tid, method: MethodId, pc: u32, k: u32) {
        if self.fp_on {
            for i in 0..k {
                self.fph = Fingerprint::mix_step(self.fph, tid, method, pc + i);
            }
        }
    }

    /// The counters and the timer for `k` retired instructions, the last
    /// of which may land on the tick (the asynchronous, non-deterministic
    /// event of §2.3; it touches VM-global state only). None may land past
    /// it: tier 1 batches (`k > 1`) only where `to_tick > k`, and tier 2
    /// splits a batch at each tick ([`Cursor::count_across`]).
    #[inline(always)]
    fn count(&mut self, vm: &mut Vm, k: u64) {
        self.steps += k;
        self.cycles += k;
        if self.fp_on {
            self.fpsteps += k;
        }
        debug_assert!(k <= self.to_tick, "a batch crossed a timer tick");
        self.to_tick -= k;
        if self.to_tick == 0 {
            vm.preempt_bit = true;
            self.to_tick = vm.timer.next_interval();
            vm.note(VmEvent::TimerTick {
                interval: self.to_tick,
            });
        }
    }

    /// [`Cursor::count`] for `k` instructions that may cross any number of
    /// ticks: split at each tick's exact instruction, so the timer draws
    /// happen in tier 1's order. Returns whether a tick fired.
    fn count_across(&mut self, vm: &mut Vm, mut k: u64) -> bool {
        let ticked = k >= self.to_tick;
        while k >= self.to_tick {
            let at = self.to_tick;
            self.count(vm, at);
            k -= at;
        }
        self.count(vm, k);
        ticked
    }

    #[inline(always)]
    fn retire(&mut self, vm: &mut Vm, tid: Tid, method: MethodId, pc: u32, k: u32) {
        self.mix(tid, method, pc, k);
        self.count(vm, k as u64);
    }
}

/// Attribute `k` cycles to a quickened-op kind. Keyed by the quickened
/// stream, so only the tiers that dispatch through it call this (the
/// generic path has no QOps to key by).
#[inline(always)]
fn profile_qop(vm: &mut Vm, kind: usize, k: u32) {
    if let Some(p) = vm.telem.profile.as_deref_mut() {
        p.qop(kind, k as u64);
    }
}

/// Tier 1: dispatch the `QOp` stream with a cached frame cursor (`pc`,
/// `sp`, frame base and the accounting [`Cursor`] held in locals, flushed
/// only at switches, calls, returns, yield points, faults and around hook
/// and generic calls).
///
/// A width-`k` superinstruction retires as one batch only if
/// `to_tick > k` (no tick inside the batch) and `steps + k <= limit`
/// (budget-limited runs pause on identical instruction boundaries).
/// Otherwise the generic path executes just its first constituent with
/// full semantics; the interior pcs keep their single-op `QOp` forms, so
/// execution resumes mid-pattern with no pc remapping.
///
/// An op that leaves the same thread running in the same frame — every
/// [`Partial`] op, a clock read, a native call without callbacks, an
/// uncontended monitor op — continues in the cursor; anything else
/// re-enters the outer loop, which reloads it. So tier 2 is probed only
/// where the outer loop is entered: at taken backedges, call targets and
/// thread switches.
// Kept its own function: folded into `run` it shares a register allocation
// with the generic loop and dispatches slower (E21).
#[inline(never)]
fn run_quick(vm: &mut Vm, hook: &mut dyn ExecHook, limit: u64, until: u64) -> VmStatus {
    // The program Arc never changes identity during a run; clone it once
    // so per-method qops slices can be borrowed while `vm` is mutated.
    let program = vm.program.clone();
    // One hoisted bool keeps the profiler-off cost to a predicted branch.
    let prof_on = vm.telem.profile.is_some();
    // Whether heap accesses must reach the hook (then they go generic).
    let watched = hook.observes_shared_accesses();
    // Every yield point and call re-enters here with the cursor flushed, so
    // this is where the logical-time bound is tested: once per yield point.
    'outer: while vm.status.is_running()
        && vm.counters.steps < limit
        && vm.counters.yield_points < until
    {
        // ---- refresh the cached frame cursor ----
        let tid = vm.sched.current;
        let cur = tid as usize;
        let (method, mut pc, mut sp, base) = {
            let t = &vm.threads[cur];
            (t.method, t.pc, t.sp, t.fp + 3)
        };
        // ---- tier 2: closed loops retire whole passes at their heads ----
        // A profiled run stays here: the profiler attributes every
        // dispatched op, and tier 2 dispatches none. Whatever tier 2 left
        // (a pass it does not run, or none at all) tier 1 takes from the
        // head, so nothing here can spin.
        if vm.mega.enabled && !prof_on {
            if let Some(cl) = vm.closed_loop(method, pc) {
                if run_mega(vm, hook, &cl, limit, until) || vm.counters.yield_points >= until {
                    continue 'outer;
                }
            }
        }
        let qops = &program.compiled(method).qops;
        let mut c = Cursor::load(vm);

        macro_rules! flush {
            () => {{
                let t = &mut vm.threads[cur];
                t.pc = pc;
                t.sp = sp;
                c.store(vm);
            }};
        }
        macro_rules! retire {
            ($k:expr) => {{
                c.retire(vm, tid, method, pc, $k);
                if prof_on {
                    profile_qop(vm, qops[pc as usize].kind_index(), $k);
                }
            }};
        }
        // After a flushed op: stay in the cursor if the same thread still
        // runs in the same frame, else re-enter the outer loop. The frame
        // is its `fp`: a call, a return, a callback frame or a collection
        // that moves the stack all change it.
        macro_rules! resume {
            () => {{
                let t = &vm.threads[cur];
                if vm.status.is_running() && vm.sched.current == tid && t.fp + 3 == base {
                    pc = t.pc;
                    sp = t.sp;
                    c = Cursor::load(vm);
                    continue; // the dispatch loop below
                }
                continue 'outer;
            }};
        }
        // Fall back to the generic interpreter for one instruction: the
        // timer may expire here, the op may fail, switch, or allocate.
        macro_rules! generic {
            () => {{
                if prof_on {
                    // One source instruction executes (a split fusion runs
                    // only its first constituent); attribute its cycle to
                    // the quickened kind that dispatched it.
                    profile_qop(vm, qops[pc as usize].kind_index(), 1);
                }
                flush!();
                step(vm, hook);
                resume!();
            }};
        }
        // Retire a width-`k` op as one batch, or split it at a tick or
        // budget edge.
        macro_rules! retire_fused {
            ($k:expr) => {{
                let k: u32 = $k;
                if k > 1 && !(c.to_tick > k as u64 && c.steps + k as u64 <= limit) {
                    generic!();
                }
                retire!(k);
                k
            }};
        }
        // A taken branch; a taken backedge is a yield point.
        macro_rules! jump {
            ($target:expr, $backedge:expr) => {{
                pc = $target;
                if $backedge && vm.status.is_running() {
                    vm.mega_note_backedge(method, pc);
                    flush!();
                    yield_point(vm, hook);
                    continue 'outer;
                }
            }};
        }

        loop {
            if c.steps >= limit {
                flush!();
                break 'outer;
            }
            debug_assert!(
                (pc as usize) < qops.len(),
                "pc {pc} out of range in method {method}"
            );
            match qops[pc as usize] {
                QOp::Pure(p) => {
                    let k = retire_fused!(p.width());
                    sp = p.exec(&mut vm.heap.mem, sp, base);
                    pc += k;
                }
                QOp::Goto { target, backedge } => {
                    retire!(1);
                    jump!(target, backedge);
                }
                QOp::Branch {
                    test,
                    jump_if,
                    target,
                    backedge,
                } => {
                    let k = retire_fused!(test.width());
                    let (sense, pops) = test.eval(&vm.heap.mem, sp, base);
                    sp -= pops;
                    if sense == jump_if {
                        jump!(target, backedge);
                    } else {
                        pc += k;
                    }
                }
                QOp::Partial(p) => {
                    // A static's first touch loads its class (an allocation),
                    // and a watched access consults the hook: both generic.
                    let statics = match p.class() {
                        Some(class) => match vm.class_objects[class as usize] {
                            Some(a) => a,
                            None => generic!(),
                        },
                        None => NULL,
                    };
                    if watched && p.gate(&vm.heap.mem, sp, statics).is_some() {
                        generic!();
                    }
                    retire!(1);
                    if let Err(f) = p.exec(&mut vm.heap, &program, &mut sp, statics) {
                        flush!();
                        let e = vm.fail(f.kind());
                        raise_err(vm, e);
                        continue 'outer;
                    }
                    pc += 1;
                }
                QOp::Now => {
                    retire!(1);
                    flush!();
                    now(vm, hook);
                    vm.threads[cur].pc = pc + 1;
                    resume!();
                }
                QOp::NativeCall { native, nargs } => {
                    retire!(1);
                    flush!();
                    if let Err(e) = native_call(vm, hook, native, nargs, pc) {
                        raise_err(vm, e);
                    }
                    resume!();
                }
                // Devirtualized call: both vtable probes pre-resolved.
                QOp::CallMono {
                    class,
                    callee,
                    nargs,
                } => {
                    retire!(1);
                    let recv = vm.heap.mem[(sp - nargs as u64) as usize];
                    flush!();
                    let called = match objref::receiver(&vm.heap, &vm.program, recv, class) {
                        Ok(_) => invoke(vm, hook, callee),
                        Err(f) => Err(vm.fail(f.kind())),
                    };
                    if let Err(e) = called {
                        raise_err(vm, e);
                    }
                    continue 'outer;
                }
                // Everything else: full-semantics generic step.
                QOp::Gen(_) => generic!(),
            }
        }
    }
    vm.status
}

/// Tier 2: retire whole passes of a closed loop at its head, in closed
/// form (DESIGN §10). Nothing runs step by step here: the stepper only
/// decides how many passes tier 1 would have run before a pause, a guard
/// failure or a yield point that is not quiet, and writes their combined
/// effect. Returns whether it also performed that last pass's closing
/// yield point; the thread may then have switched or entered a helper, so
/// the caller re-enters its outer loop.
///
/// # Extending the cycle-accounting invariant
///
/// Each batch retires at most `cap` passes (`width` source instructions
/// and one closing yield point each), the least of four bounds re-taken
/// after each batch:
///
/// * `⌈to_tick / width⌉` — up to and including the pass the next timer
///   tick lands in. A tick only sets the preempt bit, draws the next
///   interval and reports itself, and inside a pass only the closing
///   backedge consults the hook, so the batch may cross it:
///   [`Cursor::count_across`] splits the count at each tick's exact
///   instruction, however many land in that last pass;
/// * `(limit − steps) / width` — budget-limited runs pause on identical
///   instruction boundaries in every tier;
/// * `until − yield_points` — the logical-time bound: no batch runs a
///   yield point past it;
/// * `h + 1` — the hook has guaranteed that `h` upcoming consults are
///   *quiet* (no switch, no helper), assuming no tick fires first, so
///   skipping them and crediting the counts is observationally identical.
///   Within a tick-free window the horizon cannot shrink for any other
///   reason (passthrough/record horizons depend only on the preempt bit;
///   replay's recorded delta decreases by exactly the yield points
///   credited).
///
/// After a batch whose last pass took a tick, or ran consult `h + 1`, the
/// passes before it are credited and the horizon is re-read: passthrough
/// and record answer 0 once the preempt bit is set, replay's answer does
/// not move with a tick. If the last consult is still quiet it is credited
/// too and stepping goes on. Otherwise tier 2 closes that pass exactly as
/// tier 1's taken backedge does — `mega_note_backedge`, flush, then
/// [`yield_point`] — so a switch costs no tier-1 pass.
///
/// Inside an instrumentation helper's frames (`instr_depth > 0`) the
/// backedges are instrumentation yield points: `h` is the hook's
/// [`ExecHook::quiet_instr_yield_horizon`], and nothing is credited —
/// those yield points tick no logical clock, and the fingerprint is off.
///
/// Of those, [`ClosedLoop::passes`] retires the ones whose guard holds and
/// whose guarded value stays inside `i64`. Everything else — the pass whose
/// guard fails, the pass that wraps — is tier 1's: the first batch that
/// retires nothing returns, and tier 1 takes the head.
// Kept out of the tier-1 dispatch loop: inlining it bloats `run_quick`'s
// icache footprint for a call taken only at hot loop heads.
#[inline(never)]
fn run_mega(vm: &mut Vm, hook: &mut dyn ExecHook, cl: &ClosedLoop, limit: u64, until: u64) -> bool {
    let tid = vm.sched.current;
    let cur = tid as usize;
    debug_assert_eq!(vm.threads[cur].pc, cl.head);
    let base = vm.threads[cur].fp + 3;
    let instr = vm.instr_depth > 0;
    let horizon = |vm: &Vm, hook: &dyn ExecHook| {
        if instr {
            hook.quiet_instr_yield_horizon(vm)
        } else {
            hook.quiet_yield_horizon(vm)
        }
    };
    // Credit quiet consults skipped over; instrumentation yield points
    // count nothing.
    let credit = |vm: &mut Vm, hook: &mut dyn ExecHook, k: u64| {
        if k > 0 && !instr {
            vm.counters.yield_points += k;
            vm.threads[cur].yield_points += k;
            hook.on_yield_points_skipped(k);
        }
    };
    let mut c = Cursor::load(vm);
    let mut room = if instr {
        u64::MAX
    } else {
        until.saturating_sub(vm.counters.yield_points)
    };
    let mut h = horizon(vm, hook);
    let mut quiet = 0u64; // consults skipped and not yet credited
    let mut retired = 0u64;
    let consult = loop {
        let by_tick = c.to_tick.div_ceil(cl.width);
        let by_budget = limit.saturating_sub(c.steps) / cl.width;
        let cap = by_tick.min(by_budget).min(room).min(h.saturating_add(1));
        if cap == 0 {
            vm.mega.stats.gate_misses += 1;
            break false;
        }
        if retired == 0 {
            vm.mega.stats.entries += 1;
        }
        let locals = &mut vm.heap.mem[base as usize..];
        let kk = cl.passes(locals[cl.local as usize] as i64, cap);
        if kk == 0 {
            break false;
        }
        // `kk` passes: their locals in closed form, their pc mixes as `kk`
        // applications of the pass's exact fold.
        cl.advance(locals, kk);
        if c.fp_on {
            c.fph = cl.fold.apply(c.fph, tid, kk);
        }
        let ticked = c.count_across(vm, kk * cl.width);
        room -= kk;
        retired += kk;
        vm.mega.stats.closed_iters += kk;
        if kk <= h && !ticked {
            h -= kk;
            quiet += kk;
            continue;
        }
        // The last pass's consult follows a tick or is past the horizon:
        // settle the ones before it, then ask again.
        c.store(vm);
        credit(vm, hook, quiet + kk - 1);
        quiet = 0;
        h = horizon(vm, hook);
        if h == 0 {
            break true;
        }
        h -= 1;
        quiet = 1;
    };
    c.store(vm);
    credit(vm, hook, quiet);
    if consult {
        let method = vm.threads[cur].method;
        vm.mega_note_backedge(method, cl.head);
        yield_point(vm, hook);
    }
    consult
}

/// The generic tier: execute one instruction of the current thread (plus
/// any switch / instrumentation processing it triggers), writing the
/// cursor straight back.
fn step(vm: &mut Vm, hook: &mut dyn ExecHook) {
    if !vm.status.is_running() {
        return;
    }
    let tid = vm.sched.current;
    let cur = tid as usize;
    let (method, pc) = {
        let t = &vm.threads[cur];
        (t.method, t.pc)
    };
    let op = vm.program.method(method).ops[pc as usize];

    let mut c = Cursor::load(vm);
    c.retire(vm, tid, method, pc, 1);
    c.store(vm);

    let was_backedge = vm.program.compiled(method).backedge.get(pc as usize);

    match exec_op(vm, hook, op, pc) {
        Ok(Flow::Next) => {
            vm.threads[cur].pc = pc + 1;
        }
        Ok(Flow::Jump(target)) => {
            vm.threads[cur].pc = target;
            if was_backedge && vm.status.is_running() {
                yield_point(vm, hook);
            }
        }
        Ok(Flow::Managed) => {}
        Err(e) => raise_err(vm, e),
    }
}

/// Shared error epilogue: both the generic dispatch loop and the quickened
/// loop must produce the same status transition and the same `0xE44`
/// fingerprint event sequence (note `vm.fail` already fired one `0xE44`;
/// this second one is part of the observable record and must be kept).
fn raise_err(vm: &mut Vm, e: VmError) {
    if vm.status.is_running() {
        vm.status = VmStatus::Error(e);
    }
    vm.note(VmEvent::Error {
        kind: e.kind as u32,
        pc: e.pc,
    });
}

/// Pop the monitor object of a synchronization op: `NullDeref` if it is
/// null, `IllegalMonitorState` if `must_own` and the current thread does
/// not hold its monitor.
fn monitor_operand(vm: &mut Vm, must_own: bool) -> Result<Addr, VmError> {
    let obj = vm.pop_word();
    if obj == NULL {
        return Err(vm.fail(ErrKind::NullDeref));
    }
    let owner = |vm: &Vm| vm.sched.monitors.get(&obj).and_then(|m| m.owner);
    if must_own && owner(vm) != Some(vm.sched.current) {
        return Err(vm.fail(ErrKind::IllegalMonitorState));
    }
    Ok(obj)
}

fn exec_op(vm: &mut Vm, hook: &mut dyn ExecHook, op: Op, pc: u32) -> Result<Flow, VmError> {
    match op {
        // ---- constants the heap backs ----
        Op::Null => {
            vm.push_word(NULL);
            Ok(Flow::Next)
        }
        Op::Str(id) => {
            let a = vm.string_objects[id as usize];
            vm.push_word(a);
            Ok(Flow::Next)
        }

        // ---- control flow ----
        Op::Goto(t) => Ok(Flow::Jump(t)),
        Op::If(target) | Op::IfZ(target) => {
            let t = &mut vm.threads[vm.sched.current as usize];
            let (sense, pops) = Test::Top.eval(&vm.heap.mem, t.sp, t.fp + 3);
            t.sp -= pops;
            Ok(if sense == matches!(op, Op::If(_)) {
                Flow::Jump(target)
            } else {
                Flow::Next
            })
        }

        // ---- objects / arrays ----
        Op::New(class) => {
            vm.ensure_class_loaded(class)?;
            let nfields = vm.program.field_layouts[class as usize].len();
            let a = vm.alloc_scalar(class, nfields)?;
            vm.push_word(a);
            Ok(Flow::Next)
        }
        Op::NewArray(ty) => {
            let len = vm.pop_word() as i64;
            if len < 0 {
                return Err(vm.fail(ErrKind::IndexOutOfBounds));
            }
            let kind = match ty {
                Ty::Int => crate::heap::ArrKind::Int,
                Ty::Ref => crate::heap::ArrKind::Ref,
            };
            let a = vm.alloc_array(kind, len as usize)?;
            vm.push_word(a);
            Ok(Flow::Next)
        }
        Op::IdentityHash | Op::InstanceOf(_) => {
            let obj = vm.pop_word();
            let v = match op {
                Op::InstanceOf(class) => {
                    objref::instance_of(&vm.heap, &vm.program, obj, class).map(Word::from)
                }
                _ => objref::identity_hash(&vm.heap, obj),
            };
            let v = v.map_err(|f| vm.fail(f.kind()))?;
            vm.push_word(v);
            Ok(Flow::Next)
        }

        // ---- calls ----
        Op::Call(callee) => {
            invoke(vm, hook, callee)?;
            Ok(Flow::Managed)
        }
        Op::CallVirtual { class, slot } => {
            let peek = |nargs: u16| vm.peek_word(nargs as u64 - 1);
            let callee = objref::virtual_target(&vm.heap, &vm.program, class, slot, peek)
                .map_err(|f| vm.fail(f.kind()))?;
            invoke(vm, hook, callee)?;
            Ok(Flow::Managed)
        }
        Op::Ret | Op::RetVal => {
            let retv = if op == Op::RetVal {
                Some(vm.pop_word())
            } else {
                None
            };
            do_return(vm, hook, retv);
            Ok(Flow::Managed)
        }

        // ---- synchronization ----
        Op::MonitorEnter => {
            let obj = vm.peek_word(0);
            if obj != NULL && access_gate(vm, hook, obj, true)? {
                return Ok(Flow::Managed); // CREW-ordered lock acquisition
            }
            let obj = monitor_operand(vm, false)?;
            let cur = vm.sched.current;
            let mon = vm.sched.monitor_mut(obj);
            match mon.owner {
                None => {
                    mon.owner = Some(cur);
                    mon.recursion = 1;
                    Ok(Flow::Next)
                }
                Some(o) if o == cur => {
                    mon.recursion += 1;
                    Ok(Flow::Next)
                }
                Some(_) => {
                    // Deterministic switch: block until handed the monitor.
                    mon.entry_queue.push_back(EntryWaiter {
                        tid: cur,
                        recursion: 1,
                        push_status: None,
                    });
                    vm.threads[cur as usize].pc = pc + 1;
                    vm.threads[cur as usize].status = ThreadStatus::BlockedMonitor(obj);
                    schedule_next(vm, hook);
                    Ok(Flow::Managed)
                }
            }
        }
        Op::MonitorExit => {
            let obj = vm.peek_word(0);
            if obj != NULL && access_gate(vm, hook, obj, true)? {
                return Ok(Flow::Managed);
            }
            let obj = monitor_operand(vm, true)?;
            let mon = vm.sched.monitor_mut(obj);
            mon.recursion -= 1;
            if mon.recursion == 0 {
                mon.owner = None;
                try_handoff(vm, obj);
                vm.sched.prune_monitor(obj);
            }
            Ok(Flow::Next)
        }
        Op::Wait | Op::TimedWait => {
            let obj_peek = vm.peek_word(if op == Op::TimedWait { 1 } else { 0 });
            if obj_peek != NULL && access_gate(vm, hook, obj_peek, true)? {
                return Ok(Flow::Managed);
            }
            let millis = if op == Op::TimedWait {
                vm.pop_word() as i64
            } else {
                0
            };
            let obj = monitor_operand(vm, true)?;
            let cur = vm.sched.current;
            if vm.threads[cur as usize].interrupted {
                vm.threads[cur as usize].interrupted = false;
                vm.push_word(1); // interrupted status
                return Ok(Flow::Next);
            }
            // Timed waits compute their deadline from a (recorded) clock
            // read, so timer expiry replays deterministically (§2.2).
            let timed = op == Op::TimedWait && millis > 0;
            let wake_at = if timed {
                let now = clock_read(vm, hook);
                Some(now.saturating_add(millis))
            } else {
                None
            };
            let mon = vm.sched.monitor_mut(obj);
            let saved_recursion = mon.recursion;
            mon.owner = None;
            mon.recursion = 0;
            mon.wait_queue.push_back(WaitEntry {
                tid: cur,
                recursion: saved_recursion,
            });
            if let Some(at) = wake_at {
                vm.sched.add_sleeper(Sleeper {
                    wake_at: at,
                    tid: cur,
                    monitor: Some(obj),
                });
                vm.threads[cur as usize].status = ThreadStatus::TimedWaiting(obj);
            } else {
                vm.threads[cur as usize].status = ThreadStatus::Waiting(obj);
            }
            vm.threads[cur as usize].pc = pc + 1;
            try_handoff(vm, obj);
            schedule_next(vm, hook);
            Ok(Flow::Managed)
        }
        Op::Notify | Op::NotifyAll => {
            let obj = vm.peek_word(0);
            if obj != NULL && access_gate(vm, hook, obj, true)? {
                return Ok(Flow::Managed);
            }
            let obj = monitor_operand(vm, true)?;
            let count = if op == Op::Notify { 1 } else { usize::MAX };
            let mut moved = 0;
            while moved < count {
                let mon = vm.sched.monitor_mut(obj);
                let Some(w) = mon.wait_queue.pop_front() else {
                    break;
                };
                mon.entry_queue.push_back(EntryWaiter {
                    tid: w.tid,
                    recursion: w.recursion,
                    push_status: Some(0), // notified
                });
                vm.sched.remove_sleeper(w.tid); // cancel a pending timeout
                vm.threads[w.tid as usize].status = ThreadStatus::BlockedMonitor(obj);
                moved += 1;
            }
            // The notifier still owns the monitor; waiters acquire on exit.
            Ok(Flow::Next)
        }

        // ---- threading ----
        Op::Spawn { method, nargs } => {
            let name = format!("t{}", vm.threads.len());
            let tid = vm.create_thread(method, ArgSource::CallerStack(nargs as u16), &name)?;
            let tobj = vm.threads[tid as usize].thread_obj;
            vm.push_word(tobj);
            Ok(Flow::Next)
        }
        Op::Join => {
            let tref = vm.pop_word();
            let target = thread_of(vm, tref)?;
            if vm.threads[target as usize].status == ThreadStatus::Terminated {
                return Ok(Flow::Next);
            }
            let cur = vm.sched.current;
            vm.sched.join_waiters.entry(target).or_default().push(cur);
            vm.threads[cur as usize].status = ThreadStatus::JoinWaiting(target);
            vm.threads[cur as usize].pc = pc + 1;
            schedule_next(vm, hook);
            Ok(Flow::Managed)
        }
        Op::Interrupt => {
            let tref = vm.pop_word();
            let target = thread_of(vm, tref)?;
            interrupt_thread(vm, target);
            Ok(Flow::Next)
        }
        Op::YieldNow => {
            let cur = vm.sched.current as usize;
            vm.threads[cur].pc = pc + 1;
            perform_switch(vm, hook);
            Ok(Flow::Managed)
        }
        Op::Sleep => {
            let millis = vm.pop_word() as i64;
            let cur = vm.sched.current;
            if vm.threads[cur as usize].interrupted {
                vm.threads[cur as usize].interrupted = false;
                vm.push_word(1);
                return Ok(Flow::Next);
            }
            if millis <= 0 {
                vm.push_word(0);
                return Ok(Flow::Next);
            }
            let now = clock_read(vm, hook);
            vm.sched.add_sleeper(Sleeper {
                wake_at: now.saturating_add(millis),
                tid: cur,
                monitor: None,
            });
            vm.threads[cur as usize].status = ThreadStatus::Sleeping;
            vm.threads[cur as usize].pc = pc + 1;
            schedule_next(vm, hook);
            Ok(Flow::Managed)
        }
        Op::CurrentThread => {
            let cur = vm.sched.current as usize;
            let tobj = vm.threads[cur].thread_obj;
            vm.push_word(tobj);
            Ok(Flow::Next)
        }

        // ---- environment ----
        Op::Now => {
            now(vm, hook);
            Ok(Flow::Next)
        }
        Op::NativeCall { native, nargs } => {
            native_call(vm, hook, native, nargs, pc)?;
            Ok(Flow::Managed)
        }

        // ---- output / halt ----
        Op::Print => {
            let v = vm.pop_word() as i64;
            vm.write_output(&format!("{v}\n"));
            Ok(Flow::Next)
        }
        Op::PrintStr(id) => {
            let s = vm.program.strings[id as usize].clone();
            vm.write_output(&s);
            Ok(Flow::Next)
        }
        Op::Halt => {
            vm.status = VmStatus::Halted;
            vm.note(VmEvent::Halt {
                all_terminated: false,
            });
            Ok(Flow::Managed)
        }

        // ---- total ops, then the partial ones: ALU, locals, heap slots ----
        _ => {
            if let Some(p) = Partial::of(op) {
                return exec_partial(vm, hook, p);
            }
            let p = Pure::of(op).expect("every op without an arm above is total or partial");
            let t = &mut vm.threads[vm.sched.current as usize];
            t.sp = p.exec(&mut vm.heap.mem, t.sp, t.fp + 3);
            Ok(Flow::Next)
        }
    }
}

/// The generic tier's [`Partial`] op: [`Partial::exec`] between the
/// hook's access gate and its read filter. A static's first touch loads
/// its class here.
fn exec_partial(vm: &mut Vm, hook: &mut dyn ExecHook, p: Partial) -> Result<Flow, VmError> {
    let statics = match p.class() {
        Some(class) => vm.ensure_class_loaded(class)?,
        None => NULL,
    };
    let cur = vm.sched.current as usize;
    let gate = p.gate(&vm.heap.mem, vm.threads[cur].sp, statics);
    if let Some((obj, write)) = gate.filter(|&(obj, _)| obj != NULL) {
        if access_gate(vm, hook, obj, write)? {
            return Ok(Flow::Managed); // retry after a switch
        }
    }
    let mut sp = vm.threads[cur].sp;
    let done = p.exec(&mut vm.heap, &vm.program, &mut sp, statics);
    vm.threads[cur].sp = sp;
    done.map_err(|f| vm.fail(f.kind()))?;
    if let Some(ty) = p.read_ty(&vm.program) {
        let top = sp as usize - 1;
        vm.heap.mem[top] = hook.on_shared_read_value(vm, vm.heap.mem[top], ty == Ty::Ref);
    }
    Ok(Flow::Next)
}

/// `Now`: one hook-mediated clock read, pushed.
fn now(vm: &mut Vm, hook: &mut dyn ExecHook) {
    let v = clock_read(vm, hook);
    vm.push_word(v as Word);
}

/// `NativeCall` at `pc`: pop the arguments, let the hook run (or replay)
/// the native, push its result, advance the pc, and queue the frames of
/// any callbacks it requested.
fn native_call(
    vm: &mut Vm,
    hook: &mut dyn ExecHook,
    native: crate::bytecode::NativeId,
    nargs: u8,
    pc: u32,
) -> Result<(), VmError> {
    let mut args = vec![0i64; nargs as usize];
    for i in (0..nargs as usize).rev() {
        args[i] = vm.pop_word() as i64;
    }
    vm.note(VmEvent::NativeBegin { method: native });
    let outcome = hook.on_native_call(vm, native, &args);
    vm.note(VmEvent::NativeEnd { method: native });
    if vm.program.natives[native as usize].returns {
        vm.push_word(outcome.ret as Word);
    }
    // Callbacks run before the caller continues (§2.5): queue their
    // frames so the first callback executes first.
    let cur = vm.sched.current as usize;
    vm.threads[cur].pc = pc + 1;
    for cb in outcome.callbacks.iter().rev() {
        vm.push_frame(cb.method, false, &cb.args, true, false)?;
    }
    Ok(())
}

/// Push `callee`'s frame (arguments from the operand stack) and take its
/// method-prologue yield point.
fn invoke(vm: &mut Vm, hook: &mut dyn ExecHook, callee: MethodId) -> Result<(), VmError> {
    vm.push_frame(callee, true, &[], false, false)?;
    if vm.status.is_running() {
        yield_point(vm, hook);
    }
    Ok(())
}

/// One hook-mediated wall-clock read: every clock read in the interpreter
/// funnels through here so counting and event-ring tracing stay uniform.
/// (On replay the hook returns the recorded value, so the traced value is
/// exactly what the guest observed.)
fn clock_read(vm: &mut Vm, hook: &mut dyn ExecHook) -> i64 {
    let v = hook.on_clock_read(vm);
    vm.note(VmEvent::ClockRead { value: v });
    v
}

/// Consult the hook before a heap access; `Ok(true)` means the access was
/// deferred (a switch was performed and the instruction must be retried).
/// A word that is no object proceeds, and the access itself faults.
fn access_gate(
    vm: &mut Vm,
    hook: &mut dyn ExecHook,
    obj: Addr,
    write: bool,
) -> Result<bool, VmError> {
    let Ok(serial) = objref::identity_hash(&vm.heap, obj) else {
        return Ok(false);
    };
    match hook.on_shared_access(vm, serial, write) {
        AccessDecision::Proceed => Ok(false),
        AccessDecision::SwitchAndRetry => {
            // Leave pc untouched: the op re-executes when rescheduled.
            perform_switch(vm, hook);
            Ok(true)
        }
    }
}

/// Resolve a guest Thread-object reference to its tid.
fn thread_of(vm: &mut Vm, tref: Addr) -> Result<Tid, VmError> {
    let thread = vm.program.builtins.thread_class;
    match objref::receiver(&vm.heap, &vm.program, tref, thread) {
        Ok(_) => Ok(vm.heap.get_field(tref, 0) as Tid),
        Err(objref::Fault::Null) => Err(vm.fail(ErrKind::NullDeref)),
        Err(_) => Err(vm.fail(ErrKind::NotAThread)),
    }
}

/// Pop the current frame; terminate the thread if it was the root frame.
fn do_return(vm: &mut Vm, hook: &mut dyn ExecHook, retv: Option<Word>) {
    let cur = vm.sched.current as usize;
    let fp = vm.threads[cur].fp;
    let saved_fp = vm.heap.mem[fp as usize];
    if saved_fp == 0 {
        terminate_current(vm, hook);
        return;
    }
    let saved = SavedPc::decode(vm.heap.mem[fp as usize + 2]);
    let caller_method = vm.heap.mem[saved_fp as usize + 1] as MethodId;
    let exiting = vm.threads[cur].method;
    {
        let t = &mut vm.threads[cur];
        t.sp = t.fp;
        t.fp = saved_fp;
        t.method = caller_method;
        t.pc = saved.caller_pc.wrapping_add(1);
    }
    vm.note(VmEvent::Exit { method: exiting });
    if let Some(v) = retv {
        if !saved.discard_result {
            vm.push_word(v);
        }
    }
    if saved.instrumentation {
        vm.instr_depth -= 1;
        if vm.instr_depth == 0 && vm.pending_switch {
            vm.pending_switch = false;
            perform_switch(vm, hook);
        }
    }
}

/// Terminate the current thread: release its stack, wake joiners, pick the
/// next thread (or halt if it was the last).
fn terminate_current(vm: &mut Vm, hook: &mut dyn ExecHook) {
    let cur = vm.sched.current;
    {
        let t = &mut vm.threads[cur as usize];
        t.status = ThreadStatus::Terminated;
        t.stack_obj = NULL;
        t.fp = 0;
        t.sp = 0;
    }
    vm.note(VmEvent::ThreadEnd);
    if let Some(waiters) = vm.sched.join_waiters.remove(&cur) {
        for w in waiters {
            vm.threads[w as usize].status = ThreadStatus::Ready;
            vm.sched.ready.push_back(w);
        }
    }
    schedule_next(vm, hook);
}

/// Voluntary or preemptive thread switch: requeue the current thread and
/// dispatch the next.
pub(crate) fn perform_switch(vm: &mut Vm, hook: &mut dyn ExecHook) {
    let cur = vm.sched.current;
    vm.threads[cur as usize].status = ThreadStatus::Ready;
    vm.sched.ready.push_back(cur);
    schedule_next(vm, hook);
}

/// Hand an un-owned monitor to the head of its entry queue, if any.
fn try_handoff(vm: &mut Vm, obj: Addr) {
    let Some(mon) = vm.sched.monitors.get_mut(&obj) else {
        return;
    };
    if mon.owner.is_some() {
        return;
    }
    let Some(e) = mon.entry_queue.pop_front() else {
        return;
    };
    mon.owner = Some(e.tid);
    mon.recursion = e.recursion;
    if let Some(v) = e.push_status {
        if v == 1 {
            vm.threads[e.tid as usize].interrupted = false;
        }
        push_word_onto(vm, e.tid, v as Word);
    }
    vm.threads[e.tid as usize].status = ThreadStatus::Ready;
    vm.sched.ready.push_back(e.tid);
}

/// Push a value onto a (non-running) thread's operand stack — delivery of
/// wait/sleep status codes at wake time.
fn push_word_onto(vm: &mut Vm, tid: Tid, v: Word) {
    let sp = vm.threads[tid as usize].sp;
    vm.heap.mem[sp as usize] = v;
    vm.threads[tid as usize].sp = sp + 1;
}

/// Interrupt `target` (paper: interrupt is one of the wake-up operations
/// whose effect on the thread package replays deterministically).
fn interrupt_thread(vm: &mut Vm, target: Tid) {
    vm.threads[target as usize].interrupted = true;
    match vm.threads[target as usize].status {
        ThreadStatus::Waiting(obj) | ThreadStatus::TimedWaiting(obj) => {
            let mon = vm.sched.monitor_mut(obj);
            if let Some(pos) = mon.wait_queue.iter().position(|w| w.tid == target) {
                let w = mon.wait_queue.remove(pos).unwrap();
                mon.entry_queue.push_back(EntryWaiter {
                    tid: target,
                    recursion: w.recursion,
                    push_status: Some(1), // interrupted
                });
                vm.sched.remove_sleeper(target);
                vm.threads[target as usize].status = ThreadStatus::BlockedMonitor(obj);
                try_handoff(vm, obj);
            }
        }
        ThreadStatus::Sleeping => {
            vm.sched.remove_sleeper(target);
            vm.threads[target as usize].interrupted = false;
            push_word_onto(vm, target, 1);
            vm.threads[target as usize].status = ThreadStatus::Ready;
            vm.sched.ready.push_back(target);
        }
        _ => {} // flag stays set; a future wait/sleep sees it
    }
}

/// Wake every sleeper whose deadline has passed.
fn wake_due(vm: &mut Vm, now: i64) {
    for s in vm.sched.take_due(now) {
        match s.monitor {
            None => {
                // sleep finished normally
                push_word_onto(vm, s.tid, 0);
                vm.threads[s.tid as usize].status = ThreadStatus::Ready;
                vm.sched.ready.push_back(s.tid);
            }
            Some(obj) => {
                // timed wait expired: move to the entry queue with status 2
                let mon = vm.sched.monitor_mut(obj);
                if let Some(pos) = mon.wait_queue.iter().position(|w| w.tid == s.tid) {
                    let w = mon.wait_queue.remove(pos).unwrap();
                    mon.entry_queue.push_back(EntryWaiter {
                        tid: s.tid,
                        recursion: w.recursion,
                        push_status: Some(2), // timeout
                    });
                    vm.threads[s.tid as usize].status = ThreadStatus::BlockedMonitor(obj);
                    try_handoff(vm, obj);
                }
            }
        }
    }
}

/// Dispatch the next ready thread; wake sleepers (reading the — recorded —
/// wall clock) or declare deadlock/halt if nothing can run.
fn schedule_next(vm: &mut Vm, hook: &mut dyn ExecHook) {
    loop {
        if let Some(tid) = vm.sched.ready.pop_front() {
            vm.sched.current = tid;
            vm.threads[tid as usize].status = ThreadStatus::Running;
            let nyp = vm.threads[tid as usize].yield_points;
            vm.note(VmEvent::Switch { to: tid, nyp });
            hook.on_thread_switch(vm, tid);
            return;
        }
        if !vm.sched.sleepers.is_empty() {
            // "Jalapeño reads the wall clock periodically" (§2.2): these
            // reads are the recorded events that make timed wakeups replay.
            let now = clock_read(vm, hook);
            wake_due(vm, now);
            if !vm.sched.ready.is_empty() {
                continue;
            }
            if vm.sched.sleepers.is_empty() {
                continue; // timed-waiters moved to entry queues; re-examine
            }
            // Idle: warp the live clock to the next deadline and read again.
            let target = vm.sched.next_deadline().unwrap();
            vm.wall.warp_to(target);
            let now = clock_read(vm, hook);
            wake_due(vm, now);
            if vm.sched.ready.is_empty() && !vm.sched.sleepers.is_empty() {
                // A replay desync (recorded clock never reaches the
                // deadline) — fail deterministically rather than spin.
                vm.status = VmStatus::Deadlocked;
                vm.note(VmEvent::Deadlock {
                    clock_stalled: true,
                });
                return;
            }
            continue;
        }
        // No ready threads, no sleepers.
        if vm
            .threads
            .iter()
            .all(|t| t.status == ThreadStatus::Terminated)
        {
            vm.status = VmStatus::Halted;
            vm.note(VmEvent::Halt {
                all_terminated: true,
            });
        } else {
            vm.status = VmStatus::Deadlocked;
            vm.note(VmEvent::Deadlock {
                clock_stalled: false,
            });
        }
        return;
    }
}

/// Process a yield point: consult the hook (Fig. 2) and act.
// On every taken backedge and call: keep it inside the dispatch loops.
#[inline]
fn yield_point(vm: &mut Vm, hook: &mut dyn ExecHook) {
    if vm.instr_depth > 0 {
        // Instrumentation-internal yield point: invisible to the logical
        // clock in symmetric hooks (`liveClock == false`).
        let act = hook.on_instr_yield_point(vm);
        if act.switch_now {
            perform_switch(vm, hook);
        }
        return;
    }
    vm.counters.yield_points += 1;
    let cur = vm.sched.current as usize;
    vm.threads[cur].yield_points += 1;
    let act = hook.on_yield_point(vm);
    if let Some((method, arg)) = act.run_helper {
        if act.switch_now {
            vm.pending_switch = true;
            vm.counters.preemptive_switches += 1;
        }
        vm.instr_depth += 1;
        if let Err(e) = vm.push_frame(method, false, &[arg], true, true) {
            vm.status = VmStatus::Error(e);
        }
    } else if act.switch_now {
        vm.counters.preemptive_switches += 1;
        perform_switch(vm, hook);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::clock::{CycleClock, FixedTimer};
    use crate::hook::Passthrough;
    use crate::vm::VmConfig;
    use std::sync::Arc;

    fn boot(p: crate::program::Program) -> Vm {
        Vm::boot(
            Arc::new(p),
            VmConfig::default(),
            Box::new(FixedTimer::new(10_000)),
            Box::new(CycleClock::new(0, 100)),
        )
        .unwrap()
    }

    fn run_program(p: crate::program::Program) -> Vm {
        let mut vm = boot(p);
        let mut hook = Passthrough;
        let st = run(&mut vm, &mut hook, 10_000_000);
        assert!(!st.is_running(), "program did not finish");
        vm
    }

    #[test]
    fn arithmetic_and_print() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("main", 0, 0).code(|a| {
            a.iconst(6).iconst(7).mul().print();
            a.iconst(10).iconst(3).div().print();
            a.iconst(10).iconst(3).rem().print();
            a.iconst(1).iconst(2).sub().print();
            a.halt();
        });
        let vm = run_program(pb.finish(m).unwrap());
        assert_eq!(vm.output, "42\n3\n1\n-1\n");
        assert_eq!(vm.status, VmStatus::Halted);
    }

    #[test]
    fn comparison_operand_order() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("main", 0, 0).code(|a| {
            a.iconst(3).iconst(5).lt().print(); // 3 < 5 => 1
            a.iconst(5).iconst(3).lt().print(); // 5 < 3 => 0
            a.iconst(5).iconst(5).ge().print(); // 1
            a.halt();
        });
        let vm = run_program(pb.finish(m).unwrap());
        assert_eq!(vm.output, "1\n0\n1\n");
    }

    #[test]
    fn loops_and_locals() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("main", 0, 2).code(|a| {
            a.iconst(0).store(0); // i = 0
            a.iconst(0).store(1); // sum = 0
            a.label("top");
            a.load(0).iconst(10).ge().if_nz("done");
            a.load(1).load(0).add().store(1);
            a.load(0).iconst(1).add().store(0);
            a.goto("top");
            a.label("done");
            a.load(1).print();
            a.halt();
        });
        let vm = run_program(pb.finish(m).unwrap());
        assert_eq!(vm.output, "45\n");
        assert!(vm.counters.yield_points >= 10, "backedges are yield points");
    }

    #[test]
    fn objects_fields_arrays() {
        let mut pb = ProgramBuilder::new();
        let cls = pb
            .class("Pair")
            .field("a", Ty::Int)
            .field("b", Ty::Ref)
            .build();
        let m = pb.method("main", 0, 2).code(|a| {
            a.new(cls).store(0);
            a.load(0).iconst(11).put_field(0);
            a.iconst(4).new_array_int().store(1);
            a.load(1).iconst(2).iconst(99).astore();
            a.load(0).load(1).put_field_ref(1);
            a.load(0).get_field(0).print();
            a.load(0).get_field_ref(1).iconst(2).aload().print();
            a.load(0).get_field_ref(1).array_len().print();
            a.halt();
        });
        let vm = run_program(pb.finish(m).unwrap());
        assert_eq!(vm.output, "11\n99\n4\n");
    }

    #[test]
    fn statics_load_lazily() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("G").static_field("x", Ty::Int).build();
        let m = pb.method("main", 0, 0).code(|a| {
            a.iconst(5).put_static(cls, 0);
            a.get_static(cls, 0).iconst(2).mul().print();
            a.halt();
        });
        let vm = run_program(pb.finish(m).unwrap());
        assert_eq!(vm.output, "10\n");
        assert!(vm.counters.class_loads >= 1);
    }

    #[test]
    fn calls_and_returns() {
        let mut pb = ProgramBuilder::new();
        let sq = pb.func("square", 1, 1).code(|a| {
            a.load(0).load(0).mul().ret_val();
        });
        let m = pb.method("main", 0, 0).code(|a| {
            a.iconst(9).call(sq).print();
            a.halt();
        });
        let vm = run_program(pb.finish(m).unwrap());
        assert_eq!(vm.output, "81\n");
    }

    #[test]
    fn recursion_grows_stack() {
        let mut pb = ProgramBuilder::new();
        // fib-ish deep recursion to force stack growth
        let f = pb.func("down", 1, 1).code(|a| {
            a.load(0).if_z("base");
            a.load(0).iconst(1).sub();
            // placeholder for recursive call patched below
            a.call(0); // method id 0 == this method (first defined)
            a.iconst(1).add().ret_val();
            a.label("base");
            a.iconst(0).ret_val();
        });
        assert_eq!(f, 0);
        let m = pb.method("main", 0, 0).code(|a| {
            a.iconst(200).call(f).print();
            a.halt();
        });
        let mut p = pb.finish(m).unwrap();
        // keep initial stack tiny to force growth
        let vm = {
            let mut vm = Vm::boot(
                Arc::new(std::mem::take(&mut p)),
                VmConfig {
                    initial_stack: 64,
                    ..VmConfig::default()
                },
                Box::new(FixedTimer::new(10_000)),
                Box::new(CycleClock::new(0, 100)),
            )
            .unwrap();
            let mut hook = Passthrough;
            run(&mut vm, &mut hook, 10_000_000);
            vm
        };
        assert_eq!(vm.output, "200\n");
        assert!(vm.counters.stack_growths >= 1, "stack must have grown");
    }

    #[test]
    fn virtual_dispatch_picks_override() {
        let mut pb = ProgramBuilder::new();
        let base = pb.class("Base").build();
        pb.virtual_method(base, "f", vec![], 1, Some(Ty::Int))
            .code(|a| {
                a.iconst(1).ret_val();
            });
        let derived = pb.class_extends("Derived", Some(base)).build();
        pb.virtual_method(derived, "f", vec![], 1, Some(Ty::Int))
            .code(|a| {
                a.iconst(2).ret_val();
            });
        let slot = pb.vslot(base, "f");
        let m = pb.method("main", 0, 1).code(|a| {
            a.new(base).call_virtual(base, slot).print();
            a.new(derived).store(0);
            a.load(0).call_virtual(base, slot).print();
            a.halt();
        });
        let vm = run_program(pb.finish(m).unwrap());
        assert_eq!(vm.output, "1\n2\n");
    }

    #[test]
    fn spawn_join_and_shared_static() {
        let mut pb = ProgramBuilder::new();
        let g = pb.class("G").static_field("x", Ty::Int).build();
        let worker = pb.method("worker", 1, 1).code(|a| {
            a.get_static(g, 0).load(0).add().put_static(g, 0);
            a.ret();
        });
        let m = pb.method("main", 0, 1).code(|a| {
            a.iconst(0).put_static(g, 0);
            a.iconst(40).spawn(worker, 1).store(0);
            a.load(0).join();
            a.get_static(g, 0).iconst(2).add().print();
            a.halt();
        });
        let vm = run_program(pb.finish(m).unwrap());
        assert_eq!(vm.output, "42\n");
    }

    #[test]
    fn monitors_provide_mutual_exclusion() {
        let mut pb = ProgramBuilder::new();
        let g = pb
            .class("G")
            .static_field("lock", Ty::Ref)
            .static_field("count", Ty::Int)
            .build();
        // Each worker increments count 100 times under the lock with a
        // deliberate re-read (to be racy without the lock).
        let worker = pb.method("worker", 0, 1).code(|a| {
            a.iconst(0).store(0);
            a.label("top");
            a.load(0).iconst(100).ge().if_nz("done");
            a.get_static(g, 0).monitor_enter();
            a.get_static(g, 1).iconst(1).add().put_static(g, 1);
            a.get_static(g, 0).monitor_exit();
            a.load(0).iconst(1).add().store(0);
            a.goto("top");
            a.label("done");
            a.ret();
        });
        let lock_cls = pb.class("Lock").build();
        let m = pb.method("main", 0, 2).code(|a| {
            a.new(lock_cls).put_static(g, 0);
            a.iconst(0).put_static(g, 1);
            a.spawn(worker, 0).store(0);
            a.spawn(worker, 0).store(1);
            a.load(0).join();
            a.load(1).join();
            a.get_static(g, 1).print();
            a.halt();
        });
        // Use a small timer period so preemption interleaves the workers.
        let p = pb.finish(m).unwrap();
        let mut vm = Vm::boot(
            Arc::new(p),
            VmConfig::default(),
            Box::new(FixedTimer::new(7)),
            Box::new(CycleClock::new(0, 100)),
        )
        .unwrap();
        let mut hook = Passthrough;
        let st = run(&mut vm, &mut hook, 10_000_000);
        assert_eq!(st, VmStatus::Halted);
        assert_eq!(vm.output, "200\n");
        assert!(vm.counters.preemptive_switches > 0);
    }

    #[test]
    fn wait_notify_roundtrip() {
        let mut pb = ProgramBuilder::new();
        let g = pb
            .class("G")
            .static_field("lock", Ty::Ref)
            .static_field("flag", Ty::Int)
            .build();
        let waiter = pb.method("waiter", 0, 0).code(|a| {
            a.get_static(g, 0).monitor_enter();
            a.label("check");
            a.get_static(g, 1).if_nz("go");
            a.get_static(g, 0).wait().pop();
            a.goto("check");
            a.label("go");
            a.iconst(77).print();
            a.get_static(g, 0).monitor_exit();
            a.ret();
        });
        let lock_cls = pb.class("Lock").build();
        let m = pb.method("main", 0, 1).code(|a| {
            a.new(lock_cls).put_static(g, 0);
            a.iconst(0).put_static(g, 1);
            a.spawn(waiter, 0).store(0);
            a.yield_now(); // let the waiter block
            a.get_static(g, 0).monitor_enter();
            a.iconst(1).put_static(g, 1);
            a.get_static(g, 0).notify();
            a.get_static(g, 0).monitor_exit();
            a.load(0).join();
            a.iconst(88).print();
            a.halt();
        });
        let vm = run_program(pb.finish(m).unwrap());
        assert_eq!(vm.output, "77\n88\n");
    }

    #[test]
    fn sleep_wakes_by_clock() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("main", 0, 0).code(|a| {
            a.iconst(50).sleep().print(); // status 0
            a.iconst(123).print();
            a.halt();
        });
        let vm = run_program(pb.finish(m).unwrap());
        assert_eq!(vm.output, "0\n123\n");
        assert!(vm.counters.clock_reads >= 1);
    }

    #[test]
    fn timed_wait_times_out_with_status_2() {
        let mut pb = ProgramBuilder::new();
        let g = pb.class("G").static_field("lock", Ty::Ref).build();
        let lock_cls = pb.class("Lock").build();
        let m = pb.method("main", 0, 0).code(|a| {
            a.new(lock_cls).put_static(g, 0);
            a.get_static(g, 0).monitor_enter();
            a.get_static(g, 0).iconst(30).timed_wait().print(); // 2 = timeout
            a.get_static(g, 0).monitor_exit();
            a.halt();
        });
        let vm = run_program(pb.finish(m).unwrap());
        assert_eq!(vm.output, "2\n");
    }

    #[test]
    fn interrupt_wakes_sleeper_with_status_1() {
        let mut pb = ProgramBuilder::new();
        let sleeper = pb.method("sleeper", 0, 0).code(|a| {
            a.iconst(1_000_000).sleep().print(); // 1 = interrupted
            a.ret();
        });
        let m = pb.method("main", 0, 1).code(|a| {
            a.spawn(sleeper, 0).store(0);
            a.yield_now(); // let it sleep
            a.load(0).interrupt();
            a.load(0).join();
            a.halt();
        });
        let vm = run_program(pb.finish(m).unwrap());
        assert_eq!(vm.output, "1\n");
    }

    #[test]
    fn deadlock_detected() {
        let mut pb = ProgramBuilder::new();
        let g = pb.class("G").static_field("lock", Ty::Ref).build();
        let lock_cls = pb.class("Lock").build();
        let m = pb.method("main", 0, 0).code(|a| {
            a.new(lock_cls).put_static(g, 0);
            a.get_static(g, 0).monitor_enter();
            a.get_static(g, 0).wait().pop(); // nobody will ever notify
            a.halt();
        });
        let vm = run_program(pb.finish(m).unwrap());
        assert_eq!(vm.status, VmStatus::Deadlocked);
    }

    #[test]
    fn division_by_zero_is_a_deterministic_error() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("main", 0, 0).code(|a| {
            a.iconst(1).iconst(0).div().print();
            a.halt();
        });
        let vm = run_program(pb.finish(m).unwrap());
        assert!(matches!(
            vm.status,
            VmStatus::Error(VmError {
                kind: ErrKind::DivideByZero,
                ..
            })
        ));
    }

    #[test]
    fn null_deref_detected() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("main", 0, 1).code(|a| {
            a.null().store(0);
            a.load(0).get_field(0).print();
            a.halt();
        });
        let vm = run_program(pb.finish(m).unwrap());
        assert!(matches!(
            vm.status,
            VmStatus::Error(VmError {
                kind: ErrKind::NullDeref,
                ..
            })
        ));
    }

    #[test]
    fn array_bounds_checked() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("main", 0, 1).code(|a| {
            a.iconst(3).new_array_int().store(0);
            a.load(0).iconst(3).aload().print();
            a.halt();
        });
        let vm = run_program(pb.finish(m).unwrap());
        assert!(matches!(
            vm.status,
            VmStatus::Error(VmError {
                kind: ErrKind::IndexOutOfBounds,
                ..
            })
        ));
    }

    #[test]
    fn identity_hash_is_allocation_order() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("O").build();
        let m = pb.method("main", 0, 2).code(|a| {
            a.new(cls).store(0);
            a.new(cls).store(1);
            a.load(1)
                .identity_hash()
                .load(0)
                .identity_hash()
                .sub()
                .print();
            a.halt();
        });
        let vm = run_program(pb.finish(m).unwrap());
        assert_eq!(vm.output, "1\n", "consecutive allocations differ by 1");
    }

    #[test]
    fn native_calls_and_callbacks() {
        let mut pb = ProgramBuilder::new();
        let n = pb.native("host_add", 2, true);
        let ncb = pb.native("host_cb", 0, false);
        let cb = pb.method("cb", 1, 1).code(|a| {
            a.load(0).print();
            a.ret();
        });
        let m = pb.method("main", 0, 0).code(|a| {
            a.iconst(20).iconst(22).native_call(n, 2).print();
            a.native_call(ncb, 0);
            a.iconst(5).print();
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        let mut vm = boot(p);
        vm.natives.register(
            n,
            Box::new(|ctx| crate::native::NativeOutcome::value(ctx.args[0] + ctx.args[1])),
        );
        vm.natives.register(
            ncb,
            Box::new(move |_| crate::native::NativeOutcome {
                ret: 0,
                callbacks: vec![
                    crate::native::CallbackReq {
                        method: cb,
                        args: vec![111],
                    },
                    crate::native::CallbackReq {
                        method: cb,
                        args: vec![222],
                    },
                ],
            }),
        );
        let mut hook = Passthrough;
        run(&mut vm, &mut hook, 10_000_000);
        assert_eq!(vm.output, "42\n111\n222\n5\n");
    }

    #[test]
    fn strings_and_current_thread() {
        let mut pb = ProgramBuilder::new();
        let s = pb.intern("hello ");
        let m = pb.method("main", 0, 0).code(|a| {
            a.print_str(s);
            a.current_thread().identity_hash().pop();
            a.iconst(1).print();
            a.halt();
        });
        let vm = run_program(pb.finish(m).unwrap());
        assert_eq!(vm.output, "hello 1\n");
    }

    #[test]
    fn instance_of_and_ref_eq() {
        let mut pb = ProgramBuilder::new();
        let base = pb.class("Base").build();
        let derived = pb.class_extends("Derived", Some(base)).build();
        let m = pb.method("main", 0, 2).code(|a| {
            a.new(derived).store(0);
            a.load(0).instance_of(base).print(); // 1
            a.new(base).store(1);
            a.load(1).instance_of(derived).print(); // 0
            a.load(0).load(0).ref_eq().print(); // 1
            a.load(0).load(1).ref_eq().print(); // 0
            a.halt();
        });
        let vm = run_program(pb.finish(m).unwrap());
        assert_eq!(vm.output, "1\n0\n1\n0\n");
    }

    // ---- quickening neutrality (the cycle-accounting invariant) ----

    /// A program hitting every fusion pattern, devirtualized calls,
    /// preemptive switches across two threads, and shared statics.
    fn quicken_workout() -> crate::program::Program {
        let mut pb = ProgramBuilder::new();
        let g = pb.class("G").static_field("x", Ty::Int).build();
        let counter = pb.class("Counter").field("v", Ty::Int).build();
        let bump = pb
            .virtual_method(counter, "bump", vec![], 1, Some(Ty::Int))
            .code(|a| {
                a.load(0).dup().get_field(0).iconst(1).add().put_field(0);
                a.load(0).get_field(0).ret_val();
            });
        let _ = bump;
        let bump_slot = pb.vslot(counter, "bump");
        let worker = pb.method("worker", 0, 3).code(|a| {
            a.iconst(0).store(0);
            a.new(counter).store(2);
            a.label("top");
            a.load(0).iconst(40).ge().if_nz("done");
            a.get_static(g, 0).iconst(1).add().put_static(g, 0);
            a.load(2).call_virtual(counter, bump_slot).store(1);
            a.load(1).load(0).add().pop();
            a.load(0).iconst(1).add().store(0);
            a.goto("top");
            a.label("done");
            a.load(0).print();
            a.ret();
        });
        let m = pb.method("main", 0, 2).code(|a| {
            a.spawn(worker, 0);
            a.iconst(0).store(0);
            a.label("top");
            a.load(0).iconst(60).ge().if_nz("done");
            a.get_static(g, 0).iconst(3).add().put_static(g, 0);
            a.load(0).iconst(1).add().store(0);
            a.goto("top");
            a.label("done");
            a.join();
            a.get_static(g, 0).print();
            a.halt();
        });
        pb.finish(m).unwrap()
    }

    fn boot_q(p: crate::program::Program, quicken: bool, interval: u64) -> Vm {
        let cfg = VmConfig {
            quicken,
            ..VmConfig::default()
        };
        Vm::boot(
            Arc::new(p),
            cfg,
            Box::new(FixedTimer::new(interval)),
            Box::new(CycleClock::new(0, 100)),
        )
        .unwrap()
    }

    /// Everything observable about a finished (or paused) run.
    fn observe(vm: &Vm) -> (u64, u64, String, VmStatus, u64, u64, u64, u64) {
        (
            vm.fingerprint.digest(),
            vm.state_digest(),
            vm.output.clone(),
            vm.status,
            vm.counters.steps,
            vm.cycles,
            vm.counters.yield_points,
            vm.counters.thread_switches,
        )
    }

    #[test]
    fn quickening_is_neutral_across_timer_shapes() {
        // Interval 1 is the worst case: every fused op must split.
        for interval in [1, 2, 3, 7, 64, 10_000] {
            let mut on = boot_q(quicken_workout(), true, interval);
            let mut off = boot_q(quicken_workout(), false, interval);
            let mut h1 = Passthrough;
            let mut h2 = Passthrough;
            run(&mut on, &mut h1, 10_000_000);
            run(&mut off, &mut h2, 10_000_000);
            assert!(!on.status.is_running() && !off.status.is_running());
            assert_eq!(
                observe(&on),
                observe(&off),
                "quickening must be invisible at timer interval {interval}"
            );
        }
    }

    /// Logical-time bounds to cross with the step budgets: early ones, a
    /// comb over the whole run (so some fall inside every hot loop), the
    /// run's last yield point (found by running `full` out), and none.
    fn logical_bounds(mut full: Vm) -> Vec<u64> {
        run(&mut full, &mut Passthrough, u64::MAX);
        let last = full.counters.yield_points;
        let mut bounds = vec![1, 2, 3, 17, 101, last, u64::MAX];
        bounds.extend((0..last).step_by(37));
        bounds
    }

    /// Pause every VM at (`budget`, `until`): all must observe identically,
    /// none past the logical bound and exactly on it when it is what
    /// stopped the run.
    fn assert_pause_agrees(vms: &mut [Vm], budget: u64, until: u64) {
        for vm in vms.iter_mut() {
            run_until(vm, &mut Passthrough, budget, until);
            let (steps, lt) = (vm.counters.steps, vm.counters.yield_points);
            assert!(
                steps <= budget && lt <= until,
                "overshot ({budget}, {until})"
            );
            if vm.status.is_running() && steps < budget {
                assert_eq!(lt, until, "stopped early at ({budget}, {until})");
            }
        }
        for vm in &vms[1..] {
            assert_eq!(
                observe(&vms[0]),
                observe(vm),
                "paused state must match at budget {budget}, logical bound {until}"
            );
        }
    }

    #[test]
    fn quickening_pauses_on_identical_budget_boundaries() {
        // A bounded run must stop at the same instruction count (fused ops
        // split at the budget edge, never overshoot) and on the same yield
        // point.
        for until in logical_bounds(boot_q(quicken_workout(), false, 13)) {
            for budget in [1u64, 2, 3, 5, 17, 50, 101, 500, u64::MAX] {
                let mut vms = [
                    boot_q(quicken_workout(), true, 13),
                    boot_q(quicken_workout(), false, 13),
                ];
                assert_pause_agrees(&mut vms, budget, until);
            }
        }
    }

    #[test]
    fn quickening_is_neutral_on_error_paths() {
        // Divide by zero inside fusible-looking code.
        let build_div = || {
            let mut pb = ProgramBuilder::new();
            let m = pb.method("main", 0, 2).code(|a| {
                a.iconst(10).store(0);
                a.iconst(0).store(1);
                a.load(0).load(1).div().print();
                a.halt();
            });
            pb.finish(m).unwrap()
        };
        // Null receiver on a devirtualized (monomorphic) call.
        let build_null = || {
            let mut pb = ProgramBuilder::new();
            let c = pb.class("C").build();
            pb.virtual_method(c, "f", vec![], 1, Some(Ty::Int))
                .code(|a| {
                    a.iconst(1).ret_val();
                });
            let slot = pb.vslot(c, "f");
            let m = pb.method("main", 0, 1).code(|a| {
                a.null().store(0);
                a.load(0).call_virtual(c, slot).print();
                a.halt();
            });
            pb.finish(m).unwrap()
        };
        for (build, what) in [
            (&build_div as &dyn Fn() -> crate::program::Program, "div0"),
            (&build_null, "null receiver"),
        ] {
            let mut on = boot_q(build(), true, 10_000);
            let mut off = boot_q(build(), false, 10_000);
            let mut h1 = Passthrough;
            let mut h2 = Passthrough;
            run(&mut on, &mut h1, 10_000_000);
            run(&mut off, &mut h2, 10_000_000);
            assert!(matches!(on.status, VmStatus::Error(_)), "{what} must fail");
            assert_eq!(
                observe(&on),
                observe(&off),
                "{what} error must be identical"
            );
        }
    }

    #[test]
    fn devirtualized_call_runs_the_right_override() {
        // CallMono on a receiver whose dynamic class is a subclass: the
        // monomorphic proof covers subclasses, so behavior matches.
        let mut pb = ProgramBuilder::new();
        let base = pb.class("Base").build();
        pb.virtual_method(base, "f", vec![], 1, Some(Ty::Int))
            .code(|a| {
                a.iconst(10).ret_val();
            });
        let derived = pb.class_extends("Derived", Some(base)).build();
        let slot = pb.vslot(base, "f");
        let m = pb.method("main", 0, 1).code(|a| {
            a.new(derived).store(0);
            a.load(0).call_virtual(base, slot).print();
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        // Sanity: the call really did devirtualize (no override exists).
        let cm = p.compiled(p.entry);
        assert!(cm.qops.iter().any(|q| matches!(q, QOp::CallMono { .. })));
        let vm = run_program(p);
        assert_eq!(vm.output, "10\n");
    }

    // ---- tier-2 closed-form neutrality ----

    /// Three hot loops (all far past `MEGA_HOT_THRESHOLD`) racing on
    /// preemptive switches — the three-tier equality workout. The worker's
    /// head-guarded loop carries two accumulators (one wrapping), main's
    /// tail-guarded loop counts down; both tier up. Main's other loop has
    /// a devirtualized call and a `rem` in its body, so it stays tier 1.
    fn mega_workout() -> crate::program::Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("Scaler").build();
        pb.virtual_method(c, "twice", vec![Ty::Int], 2, Some(Ty::Int))
            .code(|a| {
                a.load(1).iconst(2).mul().ret_val();
            });
        let slot = pb.vslot(c, "twice");
        let worker = pb.method("worker", 0, 3).code(|a| {
            a.iconst(0).store(0);
            a.iconst(5).store(1);
            a.iconst(i64::MAX - 700).store(2);
            a.label("top");
            a.load(0).iconst(300).ge().if_nz("done");
            a.load(1).iconst(-7).add().store(1);
            a.load(0).iconst(1).add().store(0);
            a.load(2).iconst(3).add().store(2);
            a.goto("top");
            a.label("done");
            a.load(0).print();
            a.load(1).print();
            a.load(2).print();
            a.ret();
        });
        let m = pb.method("main", 0, 4).code(|a| {
            a.spawn(worker, 0);
            a.new(c).store(2);
            a.iconst(0).store(0);
            a.iconst(0).store(1);
            a.label("top");
            a.load(0).iconst(250).ge().if_nz("done");
            a.load(2).load(0).call_virtual(c, slot).store(1);
            a.load(1).iconst(3).rem().pop();
            a.load(0).iconst(1).add().store(0);
            a.goto("top");
            a.label("done");
            a.iconst(400).store(3);
            a.label("down");
            a.load(3).iconst(-1).add().store(3);
            a.load(3).iconst(0).gt().if_nz("down");
            a.join();
            a.load(1).print();
            a.load(3).print();
            a.halt();
        });
        pb.finish(m).unwrap()
    }

    fn boot_mega(p: crate::program::Program, mega: bool, interval: u64) -> Vm {
        let cfg = VmConfig {
            quicken: true,
            mega,
            ..VmConfig::default()
        };
        Vm::boot(
            Arc::new(p),
            cfg,
            Box::new(FixedTimer::new(interval)),
            Box::new(CycleClock::new(0, 100)),
        )
        .unwrap()
    }

    #[test]
    fn closed_loops_tier_up_and_retire_passes() {
        let mut vm = boot_mega(mega_workout(), true, 10_000);
        vm.enable_telemetry();
        let mut h = Passthrough;
        run(&mut vm, &mut h, 10_000_000);
        assert!(!vm.status.is_running());
        let st = vm.mega.stats;
        assert_eq!(
            st.tier_ups, 2,
            "the two closed loops, not the call loop: {st:?}"
        );
        assert!(st.entries >= 2, "both closed loops entered: {st:?}");
        assert!(
            st.closed_iters > 200,
            "passes retired in closed form: {st:?}"
        );
        // Tier-up surfaces in the event ring as compile.mega, carrying
        // the trip count at the threshold crossing.
        let megas: Vec<_> = vm
            .telem
            .ring
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, telemetry::VmEvent::MegaCompile { .. }))
            .collect();
        assert_eq!(megas.len() as u64, st.tier_ups);
        for e in &megas {
            if let telemetry::VmEvent::MegaCompile {
                trip_count,
                block_width,
                ..
            } = e.kind
            {
                assert_eq!(trip_count, crate::compile::MEGA_HOT_THRESHOLD as u64);
                assert!(block_width > 0);
            }
        }
    }

    #[test]
    fn closed_loops_are_neutral_across_timer_shapes() {
        // Interval 1 can never pass the entry gate (everything runs
        // tier-1); large intervals retire almost every pass in closed form.
        // All must observe identically, across all three tiers.
        for interval in [1, 2, 3, 7, 64, 10_000] {
            let mut gen = boot_q(mega_workout(), false, interval);
            let mut quick = boot_mega(mega_workout(), false, interval);
            let mut mega = boot_mega(mega_workout(), true, interval);
            let (mut h1, mut h2, mut h3) = (Passthrough, Passthrough, Passthrough);
            run(&mut gen, &mut h1, 10_000_000);
            run(&mut quick, &mut h2, 10_000_000);
            run(&mut mega, &mut h3, 10_000_000);
            assert!(!mega.status.is_running());
            assert_eq!(
                observe(&gen),
                observe(&quick),
                "quickening must be invisible at interval {interval}"
            );
            assert_eq!(
                observe(&quick),
                observe(&mega),
                "tier 2 must be invisible at interval {interval}"
            );
        }
    }

    #[test]
    fn closed_loops_pause_on_identical_budget_boundaries() {
        // The steps + passes · width <= max_steps gate and the logical-time
        // horizon: bounded runs stop at the same instruction in every tier,
        // even mid-hot-loop.
        for until in logical_bounds(boot_q(mega_workout(), false, 97)) {
            for budget in [1u64, 2, 3, 5, 17, 50, 101, 500, 1_000, 2_317, u64::MAX] {
                let mut vms = [
                    boot_q(mega_workout(), false, 97),
                    boot_mega(mega_workout(), false, 97),
                    boot_mega(mega_workout(), true, 97),
                ];
                assert_pause_agrees(&mut vms, budget, until);
            }
        }
    }

    #[test]
    fn closed_loops_hand_error_paths_to_tier_1() {
        // A division whose divisor decays to zero mid-hot-loop: the loop
        // is not closed (its body divides), so it stays tier 1 and raises
        // the real DivByZero at the identical instruction; the closed loop
        // before it tiers up and runs in closed form.
        let build = || {
            let mut pb = ProgramBuilder::new();
            let m = pb.method("main", 0, 1).code(|a| {
                a.iconst(0).store(0);
                a.label("warm");
                a.load(0).iconst(500).ge().if_nz("go");
                a.load(0).iconst(1).add().store(0);
                a.goto("warm");
                a.label("go");
                a.iconst(0).store(0);
                a.label("top");
                a.load(0).iconst(200).ge().if_nz("done");
                a.iconst(100).iconst(150).load(0).sub().div().pop();
                a.load(0).iconst(1).add().store(0);
                a.goto("top");
                a.label("done");
                a.halt();
            });
            pb.finish(m).unwrap()
        };
        let mut gen = boot_q(build(), false, 10_000);
        let mut quick = boot_mega(build(), false, 10_000);
        let mut mega = boot_mega(build(), true, 10_000);
        let (mut h1, mut h2, mut h3) = (Passthrough, Passthrough, Passthrough);
        run(&mut gen, &mut h1, 10_000_000);
        run(&mut quick, &mut h2, 10_000_000);
        run(&mut mega, &mut h3, 10_000_000);
        assert!(matches!(mega.status, VmStatus::Error(_)), "div0 must fail");
        assert_eq!(mega.mega.stats.tier_ups, 1, "{:?}", mega.mega.stats);
        assert!(mega.mega.stats.closed_iters > 0, "{:?}", mega.mega.stats);
        assert_eq!(observe(&gen), observe(&quick));
        assert_eq!(observe(&quick), observe(&mega), "error must be identical");
    }

    /// Like [`boot_mega`] but with the fingerprint mode chosen. Tier 2 runs
    /// under both: `Coarse` mixes nothing per step, and `Full` (the
    /// default) folds each batch's pc mixes.
    fn boot_fp(
        p: crate::program::Program,
        quicken: bool,
        mega: bool,
        interval: u64,
        fingerprint: FingerprintMode,
    ) -> Vm {
        let cfg = VmConfig {
            quicken,
            mega,
            fingerprint,
            ..VmConfig::default()
        };
        Vm::boot(
            Arc::new(p),
            cfg,
            Box::new(FixedTimer::new(interval)),
            Box::new(CycleClock::new(0, 100)),
        )
        .unwrap()
    }

    #[test]
    fn closed_form_is_neutral_under_both_fingerprint_modes() {
        // The closed-form stepper retires whole batches of passes with one
        // multiply (and, under `Full`, one fold per pass); every
        // observable, the fingerprint included, must still match both lower
        // tiers at every timer shape.
        for (mode, interval) in [FingerprintMode::Full, FingerprintMode::Coarse]
            .into_iter()
            .flat_map(|m| [3u64, 29, 97, 211, 10_000].map(|i| (m, i)))
        {
            let mut gen = boot_fp(mega_workout(), false, false, interval, mode);
            let mut quick = boot_fp(mega_workout(), true, false, interval, mode);
            let mut mega = boot_fp(mega_workout(), true, true, interval, mode);
            let (mut h1, mut h2, mut h3) = (Passthrough, Passthrough, Passthrough);
            run(&mut gen, &mut h1, 10_000_000);
            run(&mut quick, &mut h2, 10_000_000);
            run(&mut mega, &mut h3, 10_000_000);
            assert!(!gen.status.is_running());
            assert_eq!(
                observe(&gen),
                observe(&quick),
                "quickening must be invisible: {mode:?} at interval {interval}"
            );
            assert_eq!(
                observe(&quick),
                observe(&mega),
                "tier 2 must be invisible: {mode:?} at interval {interval}"
            );
            if interval >= 97 {
                assert!(
                    mega.mega.stats.closed_iters > 0,
                    "fast path must actually run: {mode:?} at interval {interval} \
                     (stats: {:?})",
                    mega.mega.stats
                );
            }
        }
    }

    /// Counting loop whose induction variable crosses the i64 wrap: starts
    /// near `i64::MAX`, steps by +3, and only exits once the wrap makes it
    /// negative. Exercises the closed form's no-wrap horizon — tier 1 runs
    /// the pass whose guarded value wraps, with the interpreter's exact
    /// wrapping-add semantics.
    fn wrap_workout() -> crate::program::Program {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("main", 0, 1).code(|a| {
            a.iconst(i64::MAX - 1000).store(0);
            a.label("top");
            a.load(0).iconst(0).lt().if_nz("done");
            a.load(0).iconst(3).add().store(0);
            a.goto("top");
            a.label("done");
            a.load(0).print();
            a.halt();
        });
        pb.finish(m).unwrap()
    }

    #[test]
    fn closed_form_wraps_like_the_interpreter() {
        for (mode, interval) in [FingerprintMode::Full, FingerprintMode::Coarse]
            .into_iter()
            .flat_map(|m| [7u64, 211, 10_000].map(|i| (m, i)))
        {
            let mut quick = boot_fp(wrap_workout(), true, false, interval, mode);
            let mut mega = boot_fp(wrap_workout(), true, true, interval, mode);
            let (mut h1, mut h2) = (Passthrough, Passthrough);
            run(&mut quick, &mut h1, 10_000_000);
            run(&mut mega, &mut h2, 10_000_000);
            assert!(!quick.status.is_running());
            assert_eq!(
                observe(&quick),
                observe(&mega),
                "wrap boundary must be bit-identical: {mode:?} at interval {interval}"
            );
            // At tight intervals the tick gate keeps the loop from ever
            // entering (that is the perturbation-freedom contract), so only
            // roomy quanta must show closed-form batches.
            if interval >= 211 {
                assert!(mega.mega.stats.closed_iters > 0);
            }
            // The printed value is the post-wrap negative induction value —
            // identical output is already asserted above; sanity-check the
            // wrap actually happened.
            assert!(quick.output.trim().parse::<i64>().unwrap() < 0);
        }
    }
}
