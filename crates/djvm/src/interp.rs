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

use crate::bytecode::{MethodId, Op, Ty};
use crate::compile::QOp;
use crate::heap::{Addr, Word, NULL};
use crate::hook::{AccessDecision, ExecHook};
use crate::sched::{EntryWaiter, Sleeper, WaitEntry};
use crate::thread::{SavedPc, ThreadStatus, Tid};
use crate::vm::{ArgSource, ErrKind, Vm, VmError, VmStatus};

/// How the executed instruction affected the pc.
enum Flow {
    /// Fall through to pc+1.
    Next,
    /// Jump to an absolute pc; `backedge` says the branch was a taken
    /// backward branch (a yield point).
    Jump(u32, bool),
    /// The handler updated thread state itself (call, return, block, halt).
    Managed,
}

/// Execute instructions until the VM stops or `max_steps` elapse.
/// Returns the final (or current) status.
///
/// Dispatches through the quickened `QOp` stream when
/// `vm.config.quicken` is set; a fused superinstruction counts as its
/// constituent instructions against the budget, so a budget-limited run
/// pauses at exactly the same instruction boundary either way (the
/// debugger's checkpoint seek depends on this).
pub fn run(vm: &mut Vm, hook: &mut dyn ExecHook, max_steps: u64) -> VmStatus {
    if vm.config.quicken {
        return run_quick(vm, hook, max_steps);
    }
    let mut n = 0;
    while vm.status.is_running() && n < max_steps {
        step(vm, hook);
        n += 1;
    }
    vm.status
}

/// Execute until the VM stops (no budget). Guest programs that do not
/// terminate will spin forever, as real ones do; tests use [`run`].
pub fn run_to_completion(vm: &mut Vm, hook: &mut dyn ExecHook) -> VmStatus {
    if vm.config.quicken {
        return run_quick(vm, hook, u64::MAX);
    }
    while vm.status.is_running() {
        step(vm, hook);
    }
    vm.status
}

/// The quickened dispatch core: executes the `QOp` stream with a cached
/// frame cursor (`pc`, `sp`, frame base held in locals, flushed to the
/// thread only at switches, calls, yield points, and generic fallbacks).
///
/// # The cycle-accounting invariant (DESIGN §5)
///
/// Every constituent instruction of a fused superinstruction advances
/// `counters.steps`, `cycles`, the fingerprint, and `cycles_to_tick`
/// exactly as the generic [`step`] loop would. Fused execution batches
/// that accounting *only* when it is provably equivalent:
///
/// * a width-`k` superinstruction runs fused only if `cycles_to_tick > k`,
///   so no timer tick can fire inside the batch — otherwise we fall back
///   to the generic single-instruction path, which splits the fusion at
///   the tick (executing just the first constituent with full semantics;
///   the interior pcs keep their single-op `QOp` forms, so execution
///   resumes mid-pattern with no pc remapping);
/// * a fused op runs only if `n + k <= max_steps`, so budget-limited runs
///   pause on identical instruction boundaries;
/// * only *total* constituents are fused (no allocation, no failure, no
///   hook consultation), so "accounting for k, then effects of k" is
///   observationally identical to the interleaved generic order.
fn run_quick(vm: &mut Vm, hook: &mut dyn ExecHook, max_steps: u64) -> VmStatus {
    let mut n: u64 = 0;
    // The program Arc never changes identity during a run; clone it once
    // so per-method qops slices can be borrowed while `vm` is mutated.
    let program = vm.program.clone();
    // Per-QOp cycle attribution is keyed by the quickened stream, so it
    // lives here and only here (the generic path has no QOps to key by).
    // One hoisted bool keeps the profiler-off cost to a predicted branch.
    let prof_on = vm.telem.profile.is_some();
    'outer: while vm.status.is_running() && n < max_steps {
        // ---- refresh the cached frame cursor ----
        let tid = vm.sched.current;
        let cur = tid as usize;
        let (method, mut pc, mut sp, base) = {
            let t = &vm.threads[cur];
            (t.method, t.pc, t.sp, t.fp + 3)
        };
        // ---- tier-2: megablocks execute at compiled loop heads ----
        if vm.mega.enabled && vm.instr_depth == 0 {
            if let Some(block) = vm.mega_block(method, pc) {
                let before = n;
                run_mega(vm, hook, &block, &mut n, max_steps, prof_on);
                if n != before {
                    continue 'outer;
                }
                // Zero progress (entry-gate miss, or a deopt at the very
                // first step): the VM is bit-identical to entry, so fall
                // through into quickened dispatch below, which always
                // advances — the block is only re-tried at the next taken
                // backedge, so this cannot spin.
            }
        }
        let qops = &program.compiled(method).qops;
        // Cached accounting state: the hot loop advances these in
        // registers and writes them back only at flush points.
        let mut cycles = vm.cycles;
        let mut steps = vm.counters.steps;
        let mut to_tick = vm.cycles_to_tick;
        let fp_full = vm.fingerprint.mode() == crate::fingerprint::FingerprintMode::Full;
        let (mut fph, mut fpsteps) = vm.fingerprint.step_state();

        // Write the cursor and accounting state back. Required before
        // anything that can switch threads, push/pop frames, fail (error
        // pcs come from the thread), allocate (GC walks frames; the
        // copying collector moves the stack), consult the hook, or touch
        // the fingerprint (events must mix in program order).
        macro_rules! flush {
            () => {{
                let t = &mut vm.threads[cur];
                t.pc = pc;
                t.sp = sp;
                vm.cycles = cycles;
                vm.counters.steps = steps;
                vm.cycles_to_tick = to_tick;
                vm.fingerprint.set_step_state(fph, fpsteps);
            }};
        }
        // Per-instruction accounting, bit-identical to [`step`]'s prelude
        // (including the timer tick, which only touches VM-global state).
        macro_rules! account1 {
            () => {{
                steps += 1;
                cycles += 1;
                if fp_full && vm.instr_depth == 0 {
                    fpsteps += 1;
                    fph = crate::fingerprint::Fingerprint::mix_step(fph, tid, method, pc);
                }
                to_tick -= 1;
                if to_tick == 0 {
                    vm.preempt_bit = true;
                    to_tick = vm.timer.next_interval();
                    vm.telem.timer_interval(to_tick);
                }
                n += 1;
                if prof_on {
                    if let Some(p) = vm.telem.profile.as_deref_mut() {
                        p.qop(qops[pc as usize].kind_index(), 1);
                    }
                }
            }};
        }
        // Batched accounting for a width-`k` fusion. Caller must have
        // checked `fusible!(k)`: no tick fires inside the batch, so the
        // tick block is statically absent here.
        macro_rules! account_fused {
            ($k:expr) => {{
                let k: u64 = $k;
                steps += k;
                cycles += k;
                if fp_full && vm.instr_depth == 0 {
                    fpsteps += k;
                    for i in 0..k as u32 {
                        fph = crate::fingerprint::Fingerprint::mix_step(fph, tid, method, pc + i);
                    }
                }
                to_tick -= k;
                n += k;
                if prof_on {
                    if let Some(p) = vm.telem.profile.as_deref_mut() {
                        p.qop(qops[pc as usize].kind_index(), k);
                    }
                }
            }};
        }
        macro_rules! fusible {
            ($k:expr) => {
                to_tick > $k && n + $k <= max_steps
            };
        }
        // Fall back to the generic interpreter for one instruction: the
        // timer may expire here, the op may fail, switch, or allocate.
        macro_rules! generic {
            () => {{
                if prof_on {
                    if let Some(p) = vm.telem.profile.as_deref_mut() {
                        // One source instruction executes (a split fusion
                        // runs only its first constituent); attribute its
                        // cycle to the quickened kind that dispatched it.
                        p.qop(qops[pc as usize].kind_index(), 1);
                    }
                }
                flush!();
                step(vm, hook);
                n += 1;
                continue 'outer;
            }};
        }

        loop {
            if n >= max_steps {
                flush!();
                break 'outer;
            }
            debug_assert!(
                (pc as usize) < qops.len(),
                "pc {pc} out of range in method {method}"
            );
            match qops[pc as usize] {
                // ---- pure single ops: inline, cursor stays cached ----
                QOp::Const(v) => {
                    account1!();
                    vm.heap.mem[sp as usize] = v as Word;
                    sp += 1;
                    pc += 1;
                }
                QOp::Load(i) => {
                    account1!();
                    vm.heap.mem[sp as usize] = vm.heap.mem[(base + i as u64) as usize];
                    sp += 1;
                    pc += 1;
                }
                QOp::Store(i) => {
                    account1!();
                    sp -= 1;
                    vm.heap.mem[(base + i as u64) as usize] = vm.heap.mem[sp as usize];
                    pc += 1;
                }
                QOp::Dup => {
                    account1!();
                    vm.heap.mem[sp as usize] = vm.heap.mem[sp as usize - 1];
                    sp += 1;
                    pc += 1;
                }
                QOp::Pop => {
                    account1!();
                    sp -= 1;
                    pc += 1;
                }
                QOp::Swap => {
                    account1!();
                    vm.heap.mem.swap(sp as usize - 1, sp as usize - 2);
                    pc += 1;
                }
                QOp::Neg => {
                    account1!();
                    let i = sp as usize - 1;
                    vm.heap.mem[i] = (vm.heap.mem[i] as i64).wrapping_neg() as Word;
                    pc += 1;
                }
                QOp::RefEq => {
                    account1!();
                    sp -= 1;
                    let b = vm.heap.mem[sp as usize];
                    let i = sp as usize - 1;
                    vm.heap.mem[i] = (vm.heap.mem[i] == b) as Word;
                    pc += 1;
                }
                QOp::Alu(f) => {
                    account1!();
                    sp -= 1;
                    let b = vm.heap.mem[sp as usize] as i64;
                    let i = sp as usize - 1;
                    let a = vm.heap.mem[i] as i64;
                    vm.heap.mem[i] = f.apply(a, b) as Word;
                    pc += 1;
                }
                QOp::Cmp(f) => {
                    account1!();
                    sp -= 1;
                    let b = vm.heap.mem[sp as usize] as i64;
                    let i = sp as usize - 1;
                    let a = vm.heap.mem[i] as i64;
                    vm.heap.mem[i] = f.apply(a, b) as Word;
                    pc += 1;
                }

                // ---- branches: pre-decoded target + backedge flag ----
                QOp::Goto { target, backedge } => {
                    account1!();
                    pc = target;
                    if backedge && vm.status.is_running() {
                        vm.mega_note_backedge(method, target);
                        flush!();
                        yield_point(vm, hook);
                        continue 'outer;
                    }
                }
                QOp::If { target, backedge } => {
                    account1!();
                    sp -= 1;
                    let c = vm.heap.mem[sp as usize] as i64;
                    if c != 0 {
                        pc = target;
                        if backedge && vm.status.is_running() {
                            vm.mega_note_backedge(method, target);
                            flush!();
                            yield_point(vm, hook);
                            continue 'outer;
                        }
                    } else {
                        pc += 1;
                    }
                }
                QOp::IfZ { target, backedge } => {
                    account1!();
                    sp -= 1;
                    let c = vm.heap.mem[sp as usize] as i64;
                    if c == 0 {
                        pc = target;
                        if backedge && vm.status.is_running() {
                            vm.mega_note_backedge(method, target);
                            flush!();
                            yield_point(vm, hook);
                            continue 'outer;
                        }
                    } else {
                        pc += 1;
                    }
                }

                // ---- devirtualized call: both vtable probes pre-resolved ----
                QOp::CallMono {
                    class,
                    callee,
                    nargs,
                } => {
                    account1!();
                    let recv = vm.heap.mem[(sp - nargs as u64) as usize];
                    flush!();
                    if recv == NULL {
                        let e = vm.fail(ErrKind::NullDeref);
                        raise_err(vm, hook, e);
                        continue 'outer;
                    }
                    let h = vm.heap.header(recv);
                    if h.is_array || h.is_classobj || !program.is_subclass(h.class_id, class) {
                        let e = vm.fail(ErrKind::BadVirtualDispatch);
                        raise_err(vm, hook, e);
                        continue 'outer;
                    }
                    match vm.push_frame(callee, true, &[], false, false) {
                        Ok(()) => {
                            if vm.status.is_running() {
                                yield_point(vm, hook);
                            }
                        }
                        Err(e) => raise_err(vm, hook, e),
                    }
                    continue 'outer;
                }

                // ---- superinstructions: split at ticks and budget edges ----
                QOp::ConstStore { v, local } => {
                    if !fusible!(2) {
                        generic!();
                    }
                    account_fused!(2);
                    vm.heap.mem[(base + local as u64) as usize] = v as Word;
                    pc += 2;
                }
                QOp::LoadLoadAlu { a, b, f } => {
                    if !fusible!(3) {
                        generic!();
                    }
                    account_fused!(3);
                    let x = vm.heap.mem[(base + a as u64) as usize] as i64;
                    let y = vm.heap.mem[(base + b as u64) as usize] as i64;
                    vm.heap.mem[sp as usize] = f.apply(x, y) as Word;
                    sp += 1;
                    pc += 3;
                }
                QOp::LoadConstAlu { a, v, f } => {
                    if !fusible!(3) {
                        generic!();
                    }
                    account_fused!(3);
                    let x = vm.heap.mem[(base + a as u64) as usize] as i64;
                    vm.heap.mem[sp as usize] = f.apply(x, v) as Word;
                    sp += 1;
                    pc += 3;
                }
                QOp::CmpIf {
                    f,
                    target,
                    backedge,
                    jump_if,
                } => {
                    if !fusible!(2) {
                        generic!();
                    }
                    account_fused!(2);
                    sp -= 2;
                    let a = vm.heap.mem[sp as usize] as i64;
                    let b = vm.heap.mem[sp as usize + 1] as i64;
                    if f.apply(a, b) == jump_if {
                        pc = target;
                        if backedge && vm.status.is_running() {
                            vm.mega_note_backedge(method, target);
                            flush!();
                            yield_point(vm, hook);
                            continue 'outer;
                        }
                    } else {
                        pc += 2;
                    }
                }
                QOp::LoadConstCmpIf {
                    a,
                    v,
                    f,
                    target,
                    backedge,
                    jump_if,
                } => {
                    if !fusible!(4) {
                        generic!();
                    }
                    account_fused!(4);
                    let x = vm.heap.mem[(base + a as u64) as usize] as i64;
                    if f.apply(x, v) == jump_if {
                        pc = target;
                        if backedge && vm.status.is_running() {
                            vm.mega_note_backedge(method, target);
                            flush!();
                            yield_point(vm, hook);
                            continue 'outer;
                        }
                    } else {
                        pc += 4;
                    }
                }

                // ---- everything else: full-semantics generic step ----
                QOp::Gen(_) => generic!(),
            }
        }
    }
    vm.status
}

/// Tier-2 dispatch: execute whole iterations of a compiled megablock.
///
/// # Extending the cycle-accounting invariant (DESIGN §10)
///
/// A full iteration (`width` source instructions, `yields` yield points)
/// runs batched only when three gates all pass at the head:
///
/// * `cycles_to_tick > width` — no timer tick can fire inside the batch,
///   so the preempt bit cannot newly set and per-step accounting needs no
///   tick check (the fused-superinstruction gate, applied per iteration);
/// * `n + width <= max_steps` — budget-limited runs pause on identical
///   instruction boundaries in every tier;
/// * `h >= yields` — the hook has guaranteed that many upcoming
///   yield-point consults are *quiet* (no switch, no helper), so skipping
///   them and crediting the counts at exit is observationally identical.
///   `h` is consulted once at entry: within a tick-free window the horizon
///   cannot shrink for any other reason (passthrough/record horizons
///   depend only on the preempt bit; replay's recorded delta decreases by
///   exactly the yield points we credit).
///
/// Every guard failure — real or injected — exits *before* the offending
/// step, with the thread cursor flushed to that step's exact
/// (method, pc, sp) and all prefix accounting written back: the quickened
/// tier then re-executes the step with full semantics (error events, hook
/// consults), so a deopt is never observable. Inlined calls push and pop
/// *real* frames (`push_frame`/`do_return`), keeping physical stack writes
/// identical to the quickened tier; fingerprint state is synced around
/// them so their events (stack growth, profiler spans) interleave in
/// program order.
// Kept out of the tier-1 dispatch loop: inlining this large body bloats
// `run_quick`'s icache footprint for a call taken only at hot loop heads.
#[inline(never)]
fn run_mega(
    vm: &mut Vm,
    hook: &mut dyn ExecHook,
    block: &crate::compile::MegaBlock,
    n: &mut u64,
    max_steps: u64,
    prof_on: bool,
) {
    use crate::compile::MegaOp;
    let width = block.width;
    let yields = block.yields;
    let stride = vm.config.mega_deopt_stride;
    let forced_guard = vm.config.mega_deopt_guard;

    // One horizon consult covers the whole entry (see above).
    let mut h = hook.quiet_yield_horizon(vm);

    let tid = vm.sched.current;
    let cur = tid as usize;
    let (mut sp, mut base) = {
        let t = &vm.threads[cur];
        (t.sp, t.fp + 3)
    };
    let mut cycles = vm.cycles;
    let mut steps = vm.counters.steps;
    let mut to_tick = vm.cycles_to_tick;
    let fp_full = vm.fingerprint.mode() == crate::fingerprint::FingerprintMode::Full;
    let (mut fph, mut fpsteps) = vm.fingerprint.step_state();
    // Yield points batched away so far; credited (to the counters and the
    // hook) on every exit path, before any real hook consult can happen.
    let mut skipped: u64 = 0;
    let mut entered = false;
    // Deopt injection is config-gated; keep the per-guard bookkeeping off
    // the fast path entirely when both knobs are cold.
    let inject = stride != 0 || forced_guard.is_some();
    // Accounting is *lazy*: completed clean iterations only bump
    // `full_iters`, the current (partial) iteration accumulates retired
    // widths in `done_w`, and everything is settled in one multiply at the
    // next batch boundary (or any flush). This is where tier 2 beats
    // tier 1 — the quickened loop pays the full per-step accounting (plus
    // a tick check and a hook consult per yield point) that the megablock
    // amortizes over a whole batch of iterations.
    let mut full_iters: u64 = 0;
    let mut done_w: u64 = 0;
    // An iteration is "dirty" once a mid-iteration flush (Call/Ret) has
    // already committed its prefix; its completion is then credited
    // individually instead of through `full_iters`. (Assigned at each
    // iteration start and by every flush, before any read.)
    let mut dirty;
    // The backedge's own yield-point share of `block.yields` (the rest
    // belongs to inlined call prologues, credited at each Call step).
    let call_yields = block
        .steps
        .iter()
        .filter(|s| matches!(s.op, crate::compile::MegaOp::Call { .. }))
        .count() as u64;
    let back_yield = yields.saturating_sub(call_yields);

    // Settle the lazily-batched work into the cached counters.
    macro_rules! commit {
        () => {{
            let dw = full_iters * width + done_w;
            if dw != 0 {
                steps += dw;
                cycles += dw;
                to_tick -= dw;
                *n += dw;
                if fp_full {
                    fpsteps += dw;
                }
            }
            if full_iters != 0 {
                h = h.saturating_sub(full_iters * yields);
                skipped += full_iters * back_yield;
                vm.mega.stats.iters += full_iters;
                full_iters = 0;
            }
            done_w = 0;
        }};
    }
    // Write the cursor and accounting back at an exact step boundary.
    macro_rules! flush_at {
        ($method:expr, $pc:expr) => {{
            commit!();
            dirty = true;
            let t = &mut vm.threads[cur];
            debug_assert_eq!(t.method, $method);
            t.pc = $pc;
            t.sp = sp;
            vm.cycles = cycles;
            vm.counters.steps = steps;
            vm.cycles_to_tick = to_tick;
            vm.fingerprint.set_step_state(fph, fpsteps);
        }};
    }
    // Batched accounting for one micro-op of `width` source instructions —
    // bit-identical to `account_fused!` once committed, with the tick block
    // statically absent (the entry gate guarantees no tick fires in the
    // iteration). The fingerprint chain cannot be deferred (each mix feeds
    // the next), so in `Full` mode it stays per-pc.
    macro_rules! account {
        ($s:expr) => {{
            if fp_full {
                for i in 0..$s.width {
                    fph = crate::fingerprint::Fingerprint::mix_step(fph, tid, $s.method, $s.pc + i);
                }
            }
            if prof_on {
                if let Some(p) = vm.telem.profile.as_deref_mut() {
                    // Unfold into the same per-QOp counters the quickened
                    // tier feeds (ProfileModel completeness holds tier-up).
                    p.qop($s.kind, $s.width as u64);
                }
            }
            done_w += $s.width as u64;
        }};
    }

    'outer: loop {
        commit!();
        // How many whole iterations fit before the next tick, the step
        // budget, or the hook's quiet-yield horizon could interrupt. Each
        // bound reproduces the per-iteration gate it replaces (`to_tick >
        // width`, `*n + width <= max_steps`, `h >= yields`) exactly, so
        // ticks/preemptions/pauses land on identical step boundaries.
        let by_tick = to_tick.saturating_sub(1) / width;
        let by_budget = max_steps.saturating_sub(*n) / width;
        let by_horizon = if yields == 0 { u64::MAX } else { h / yields };
        let avail = by_tick.min(by_budget).min(by_horizon);
        if avail == 0 {
            vm.mega.stats.gate_misses += 1;
            flush_at!(block.method, block.head);
            break 'outer;
        }
        if !entered {
            entered = true;
            vm.mega.stats.entries += 1;
        }
        // Closed-form fast path: a canonical counting loop retires a whole
        // batch of passing iterations with one multiply, provided no
        // per-step observer needs the iterations replayed step-by-step
        // (full-fingerprint pc mixes, profiler attribution, or forced
        // deopt injection). The final memory image is bit-identical: the
        // only per-iteration effects are the induction local (written with
        // its closed-form value) and operand-stack traffic below a
        // restored sp, which nothing live can observe. When the next
        // iteration would fail its guard (`kk == 0`), fall through to the
        // step loop so the deopt happens at the exact guard pc.
        if !fp_full && !prof_on && !inject {
            if let Some(cl) = block.closed {
                let slot = (base + cl.local as u64) as usize;
                let x0 = vm.heap.mem[slot] as i64;
                let kk = cl.passes(x0, avail);
                if kk > 0 {
                    vm.heap.mem[slot] = (x0 as i128 + kk as i128 * cl.step as i128) as i64 as Word;
                    full_iters += kk;
                    vm.mega.stats.closed_iters += kk;
                    continue 'outer;
                }
            }
        }
        let mut k = avail;
        'batch: while k > 0 {
            k -= 1;
            dirty = false;
            let mut guard_ix: u32 = 0;
            for s in &block.steps {
                let s = *s;
                // Evaluate one guard's forced-deopt injection knobs (predicted
                // false; the bookkeeping only runs when a knob is set).
                macro_rules! guard_forced {
                    () => {{
                        if inject {
                            let g = guard_ix;
                            guard_ix += 1;
                            vm.mega.guard_evals += 1;
                            (stride != 0 && vm.mega.guard_evals % stride == 0)
                                || forced_guard == Some(g)
                        } else {
                            false
                        }
                    }};
                }
                // Side exit *before* this step: quickened re-executes it.
                macro_rules! deopt {
                    ($forced:expr) => {{
                        flush_at!(s.method, s.pc);
                        vm.mega.stats.deopts += 1;
                        if $forced {
                            vm.mega.stats.forced_deopts += 1;
                        }
                        break 'outer;
                    }};
                }
                // A taken backedge terminator: iteration complete. Clean
                // iterations fold into `full_iters` (settled in one multiply
                // at the batch boundary); an iteration whose prefix a
                // mid-iteration flush already committed is credited here.
                macro_rules! iter_done {
                    () => {{
                        let _ = guard_ix; // terminators end the per-iteration count
                        if dirty {
                            steps += done_w;
                            cycles += done_w;
                            to_tick -= done_w;
                            *n += done_w;
                            if fp_full {
                                fpsteps += done_w;
                            }
                            done_w = 0;
                            h = h.saturating_sub(yields);
                            skipped += back_yield; // the backedge's yield point
                            vm.mega.stats.iters += 1;
                        } else {
                            debug_assert_eq!(done_w, width);
                            full_iters += 1;
                            done_w = 0;
                        }
                        continue 'batch;
                    }};
                }
                match s.op {
                    // ---- totals: same bodies as the quickened inline arms ----
                    MegaOp::Const(v) => {
                        account!(s);
                        vm.heap.mem[sp as usize] = v as Word;
                        sp += 1;
                    }
                    MegaOp::Load(i) => {
                        account!(s);
                        vm.heap.mem[sp as usize] = vm.heap.mem[(base + i as u64) as usize];
                        sp += 1;
                    }
                    MegaOp::Store(i) => {
                        account!(s);
                        sp -= 1;
                        vm.heap.mem[(base + i as u64) as usize] = vm.heap.mem[sp as usize];
                    }
                    MegaOp::Dup => {
                        account!(s);
                        vm.heap.mem[sp as usize] = vm.heap.mem[sp as usize - 1];
                        sp += 1;
                    }
                    MegaOp::Pop => {
                        account!(s);
                        sp -= 1;
                    }
                    MegaOp::Swap => {
                        account!(s);
                        vm.heap.mem.swap(sp as usize - 1, sp as usize - 2);
                    }
                    MegaOp::Neg => {
                        account!(s);
                        let i = sp as usize - 1;
                        vm.heap.mem[i] = (vm.heap.mem[i] as i64).wrapping_neg() as Word;
                    }
                    MegaOp::RefEq => {
                        account!(s);
                        sp -= 1;
                        let b = vm.heap.mem[sp as usize];
                        let i = sp as usize - 1;
                        vm.heap.mem[i] = (vm.heap.mem[i] == b) as Word;
                    }
                    MegaOp::Alu(f) => {
                        account!(s);
                        sp -= 1;
                        let b = vm.heap.mem[sp as usize] as i64;
                        let i = sp as usize - 1;
                        let a = vm.heap.mem[i] as i64;
                        vm.heap.mem[i] = f.apply(a, b) as Word;
                    }
                    MegaOp::Cmp(f) => {
                        account!(s);
                        sp -= 1;
                        let b = vm.heap.mem[sp as usize] as i64;
                        let i = sp as usize - 1;
                        let a = vm.heap.mem[i] as i64;
                        vm.heap.mem[i] = f.apply(a, b) as Word;
                    }
                    MegaOp::ConstStore { v, local } => {
                        account!(s);
                        vm.heap.mem[(base + local as u64) as usize] = v as Word;
                    }
                    MegaOp::LoadLoadAlu { a, b, f } => {
                        account!(s);
                        let x = vm.heap.mem[(base + a as u64) as usize] as i64;
                        let y = vm.heap.mem[(base + b as u64) as usize] as i64;
                        vm.heap.mem[sp as usize] = f.apply(x, y) as Word;
                        sp += 1;
                    }
                    MegaOp::LoadConstAlu { a, v, f } => {
                        account!(s);
                        let x = vm.heap.mem[(base + a as u64) as usize] as i64;
                        vm.heap.mem[sp as usize] = f.apply(x, v) as Word;
                        sp += 1;
                    }
                    MegaOp::Jump => {
                        // Interior forward Goto: transfer is implicit in step
                        // order; only the accounting remains.
                        account!(s);
                    }

                    // ---- guarded micro-ops ----
                    MegaOp::Div | MegaOp::Rem => {
                        let forced = guard_forced!();
                        let b = vm.heap.mem[sp as usize - 1] as i64;
                        if forced || b == 0 {
                            deopt!(forced);
                        }
                        account!(s);
                        sp -= 1;
                        let i = sp as usize - 1;
                        let a = vm.heap.mem[i] as i64;
                        let r = if s.op == MegaOp::Div {
                            a.wrapping_div(b)
                        } else {
                            a.wrapping_rem(b)
                        };
                        vm.heap.mem[i] = r as Word;
                    }
                    MegaOp::GuardIf { jump_if } => {
                        let forced = guard_forced!();
                        let c = vm.heap.mem[sp as usize - 1] as i64;
                        if forced || (c != 0) == jump_if {
                            deopt!(forced);
                        }
                        account!(s);
                        sp -= 1;
                    }
                    MegaOp::GuardCmpIf { f, jump_if } => {
                        let forced = guard_forced!();
                        let a = vm.heap.mem[sp as usize - 2] as i64;
                        let b = vm.heap.mem[sp as usize - 1] as i64;
                        if forced || f.apply(a, b) == jump_if {
                            deopt!(forced);
                        }
                        account!(s);
                        sp -= 2;
                    }
                    MegaOp::GuardLoadConstCmpIf { a, v, f, jump_if } => {
                        let forced = guard_forced!();
                        let x = vm.heap.mem[(base + a as u64) as usize] as i64;
                        if forced || f.apply(x, v) == jump_if {
                            deopt!(forced);
                        }
                        account!(s);
                    }
                    MegaOp::Call {
                        class,
                        callee,
                        nargs,
                    } => {
                        let forced = guard_forced!();
                        let bad = {
                            let recv = vm.heap.mem[(sp - nargs as u64) as usize];
                            recv == NULL || {
                                let hd = vm.heap.header(recv);
                                hd.is_array
                                    || hd.is_classobj
                                    || !vm.program.is_subclass(hd.class_id, class)
                            }
                        };
                        if forced || bad {
                            deopt!(forced);
                        }
                        account!(s);
                        flush_at!(s.method, s.pc); // push_frame reads t.pc/t.sp
                        if let Err(e) = vm.push_frame(callee, true, &[], false, false) {
                            if skipped > 0 {
                                vm.counters.yield_points += skipped;
                                vm.threads[cur].yield_points += skipped;
                                hook.on_yield_points_skipped(skipped);
                            }
                            raise_err(vm, hook, e);
                            return;
                        }
                        // New frame; the stack may have grown (and moved), and
                        // push_frame may have mixed fingerprint events.
                        {
                            let t = &vm.threads[cur];
                            sp = t.sp;
                            base = t.fp + 3;
                        }
                        let st = vm.fingerprint.step_state();
                        fph = st.0;
                        fpsteps = st.1;
                        skipped += 1; // the callee's prologue yield point, batched
                    }
                    MegaOp::Ret { has_val } => {
                        account!(s);
                        flush_at!(s.method, s.pc);
                        let retv = if has_val { Some(vm.pop_word()) } else { None };
                        do_return(vm, hook, retv);
                        {
                            let t = &vm.threads[cur];
                            sp = t.sp;
                            base = t.fp + 3;
                        }
                        let st = vm.fingerprint.step_state();
                        fph = st.0;
                        fpsteps = st.1;
                    }

                    // ---- backedge terminators ----
                    MegaOp::BackGoto => {
                        account!(s);
                        iter_done!();
                    }
                    MegaOp::BackIf { jump_if } => {
                        let forced = guard_forced!();
                        let c = vm.heap.mem[sp as usize - 1] as i64;
                        if forced || (c != 0) != jump_if {
                            deopt!(forced);
                        }
                        account!(s);
                        sp -= 1;
                        iter_done!();
                    }
                    MegaOp::BackCmpIf { f, jump_if } => {
                        let forced = guard_forced!();
                        let a = vm.heap.mem[sp as usize - 2] as i64;
                        let b = vm.heap.mem[sp as usize - 1] as i64;
                        if forced || f.apply(a, b) != jump_if {
                            deopt!(forced);
                        }
                        account!(s);
                        sp -= 2;
                        iter_done!();
                    }
                    MegaOp::BackLoadConstCmpIf { a, v, f, jump_if } => {
                        let forced = guard_forced!();
                        let x = vm.heap.mem[(base + a as u64) as usize] as i64;
                        if forced || f.apply(x, v) != jump_if {
                            deopt!(forced);
                        }
                        account!(s);
                        iter_done!();
                    }
                }
            }
            unreachable!("megablock has no backedge terminator");
        }
    }
    // The batching state is dead on every exit path (each flushes first).
    let _ = (dirty, done_w, full_iters, h);

    if skipped > 0 {
        vm.counters.yield_points += skipped;
        vm.threads[cur].yield_points += skipped;
        hook.on_yield_points_skipped(skipped);
    }
}

/// Execute one instruction of the current thread (plus any switch /
/// instrumentation processing it triggers).
pub fn step(vm: &mut Vm, hook: &mut dyn ExecHook) {
    if !vm.status.is_running() {
        return;
    }
    let cur = vm.sched.current as usize;
    let (method, pc) = {
        let t = &vm.threads[cur];
        (t.method, t.pc)
    };
    let op = vm.program.method(method).ops[pc as usize];

    vm.counters.steps += 1;
    vm.cycles += 1;
    if vm.instr_depth == 0 {
        vm.fingerprint.step(vm.sched.current, method, pc);
    }

    // Timer interrupt (the asynchronous, non-deterministic event of §2.3).
    vm.cycles_to_tick -= 1;
    if vm.cycles_to_tick == 0 {
        vm.preempt_bit = true;
        vm.cycles_to_tick = vm.timer.next_interval();
        let interval = vm.cycles_to_tick;
        vm.telem.timer_interval(interval);
    }

    let compiled = vm.program.compiled(method);
    debug_assert!(
        (pc as usize) < vm.program.method(method).ops.len(),
        "pc {pc} out of range in method {method}"
    );
    let was_backedge = compiled.backedge.get(pc as usize);

    match exec_op(vm, hook, op, pc) {
        Ok(Flow::Next) => {
            vm.threads[cur].pc = pc + 1;
        }
        Ok(Flow::Jump(target, taken_back)) => {
            vm.threads[cur].pc = target;
            if taken_back && was_backedge && vm.status.is_running() {
                yield_point(vm, hook);
            }
        }
        Ok(Flow::Managed) => {}
        Err(e) => raise_err(vm, hook, e),
    }
}

/// Shared error epilogue: both the generic dispatch loop and the quickened
/// loop must produce the same status transition and the same `0xE44`
/// fingerprint event sequence (note `vm.fail` already fired one `0xE44`;
/// this second one is part of the observable record and must be kept).
fn raise_err(vm: &mut Vm, hook: &mut dyn ExecHook, e: VmError) {
    if vm.status.is_running() {
        vm.status = VmStatus::Error(e);
    }
    vm.fingerprint.event(0xE44, e.kind as u64, e.pc as u64);
    hook.on_halt(vm);
}

fn exec_op(vm: &mut Vm, hook: &mut dyn ExecHook, op: Op, pc: u32) -> Result<Flow, VmError> {
    match op {
        // ---- constants / locals / shuffling ----
        Op::Const(v) => {
            vm.push_word(v as Word);
            Ok(Flow::Next)
        }
        Op::Null => {
            vm.push_word(NULL);
            Ok(Flow::Next)
        }
        Op::Str(id) => {
            let a = vm.string_objects[id as usize];
            vm.push_word(a);
            Ok(Flow::Next)
        }
        Op::Load(i) => {
            let cur = vm.sched.current as usize;
            let base = vm.threads[cur].fp + 3;
            let v = vm.heap.mem[(base + i as u64) as usize];
            vm.push_word(v);
            Ok(Flow::Next)
        }
        Op::Store(i) => {
            let v = vm.pop_word();
            let cur = vm.sched.current as usize;
            let base = vm.threads[cur].fp + 3;
            vm.heap.mem[(base + i as u64) as usize] = v;
            Ok(Flow::Next)
        }
        Op::Dup => {
            let v = vm.peek_word(0);
            vm.push_word(v);
            Ok(Flow::Next)
        }
        Op::Pop => {
            vm.pop_word();
            Ok(Flow::Next)
        }
        Op::Swap => {
            let a = vm.pop_word();
            let b = vm.pop_word();
            vm.push_word(a);
            vm.push_word(b);
            Ok(Flow::Next)
        }

        // ---- arithmetic ----
        Op::Add
        | Op::Sub
        | Op::Mul
        | Op::Div
        | Op::Rem
        | Op::BitAnd
        | Op::BitOr
        | Op::BitXor
        | Op::Shl
        | Op::Shr => {
            let b = vm.pop_word() as i64;
            let a = vm.pop_word() as i64;
            let r = match op {
                Op::Add => a.wrapping_add(b),
                Op::Sub => a.wrapping_sub(b),
                Op::Mul => a.wrapping_mul(b),
                Op::Div => {
                    if b == 0 {
                        return Err(vm.fail(ErrKind::DivideByZero));
                    }
                    a.wrapping_div(b)
                }
                Op::Rem => {
                    if b == 0 {
                        return Err(vm.fail(ErrKind::DivideByZero));
                    }
                    a.wrapping_rem(b)
                }
                Op::BitAnd => a & b,
                Op::BitOr => a | b,
                Op::BitXor => a ^ b,
                Op::Shl => a.wrapping_shl(b as u32 & 63),
                Op::Shr => a.wrapping_shr(b as u32 & 63),
                _ => unreachable!(),
            };
            vm.push_word(r as Word);
            Ok(Flow::Next)
        }
        Op::Neg => {
            let a = vm.pop_word() as i64;
            vm.push_word(a.wrapping_neg() as Word);
            Ok(Flow::Next)
        }

        // ---- comparisons ----
        Op::Eq | Op::Ne | Op::Lt | Op::Le | Op::Gt | Op::Ge => {
            let b = vm.pop_word() as i64;
            let a = vm.pop_word() as i64;
            let r = match op {
                Op::Eq => a == b,
                Op::Ne => a != b,
                Op::Lt => a < b,
                Op::Le => a <= b,
                Op::Gt => a > b,
                Op::Ge => a >= b,
                _ => unreachable!(),
            };
            vm.push_word(r as Word);
            Ok(Flow::Next)
        }
        Op::RefEq => {
            let b = vm.pop_word();
            let a = vm.pop_word();
            vm.push_word((a == b) as Word);
            Ok(Flow::Next)
        }

        // ---- control flow ----
        Op::Goto(t) => Ok(Flow::Jump(t, true)),
        Op::If(t) => {
            let c = vm.pop_word() as i64;
            if c != 0 {
                Ok(Flow::Jump(t, true))
            } else {
                Ok(Flow::Next)
            }
        }
        Op::IfZ(t) => {
            let c = vm.pop_word() as i64;
            if c == 0 {
                Ok(Flow::Jump(t, true))
            } else {
                Ok(Flow::Next)
            }
        }

        // ---- objects / arrays ----
        Op::New(class) => {
            vm.ensure_class_loaded(class)?;
            let nfields = vm.program.field_layouts[class as usize].len();
            let a = vm.alloc_scalar(class, nfields)?;
            vm.push_word(a);
            Ok(Flow::Next)
        }
        Op::GetField { idx, ty } => {
            let obj = vm.peek_word(0);
            if obj != NULL && access_gate(vm, hook, obj, false)? {
                return Ok(Flow::Managed); // retry after a switch
            }
            let obj = vm.pop_word();
            check_scalar(vm, obj, idx, ty)?;
            let v = vm.heap.get_field(obj, idx as usize);
            let v = hook.on_shared_read_value(vm, v, ty == Ty::Ref);
            vm.push_word(v);
            Ok(Flow::Next)
        }
        Op::PutField { idx, ty } => {
            let obj = vm.peek_word(1);
            if obj != NULL && access_gate(vm, hook, obj, true)? {
                return Ok(Flow::Managed);
            }
            let v = vm.pop_word();
            let obj = vm.pop_word();
            check_scalar(vm, obj, idx, ty)?;
            vm.heap.set_field(obj, idx as usize, v);
            Ok(Flow::Next)
        }
        Op::GetStatic(class, i) => {
            let cobj = vm.ensure_class_loaded(class)?;
            if access_gate(vm, hook, cobj, false)? {
                return Ok(Flow::Managed);
            }
            let v = vm.heap.get_field(cobj, i as usize);
            let is_ref = vm.program.static_layouts[class as usize][i as usize] == Ty::Ref;
            let v = hook.on_shared_read_value(vm, v, is_ref);
            vm.push_word(v);
            Ok(Flow::Next)
        }
        Op::PutStatic(class, i) => {
            let cobj = vm.ensure_class_loaded(class)?;
            if access_gate(vm, hook, cobj, true)? {
                return Ok(Flow::Managed);
            }
            let v = vm.pop_word();
            vm.heap.set_field(cobj, i as usize, v);
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
        Op::ALoad(ty) => {
            let arr = vm.peek_word(1);
            if arr != NULL && access_gate(vm, hook, arr, false)? {
                return Ok(Flow::Managed);
            }
            let i = vm.pop_word() as i64;
            let arr = vm.pop_word();
            check_array(vm, arr, i, ty)?;
            let v = vm.heap.get_elem(arr, i as usize);
            let v = hook.on_shared_read_value(vm, v, ty == Ty::Ref);
            vm.push_word(v);
            Ok(Flow::Next)
        }
        Op::AStore(ty) => {
            let arr = vm.peek_word(2);
            if arr != NULL && access_gate(vm, hook, arr, true)? {
                return Ok(Flow::Managed);
            }
            let v = vm.pop_word();
            let i = vm.pop_word() as i64;
            let arr = vm.pop_word();
            check_array(vm, arr, i, ty)?;
            vm.heap.set_elem(arr, i as usize, v);
            Ok(Flow::Next)
        }
        Op::ArrayLen => {
            let arr = vm.pop_word();
            if arr == NULL {
                return Err(vm.fail(ErrKind::NullDeref));
            }
            let h = vm.heap.header(arr);
            if !h.is_array {
                return Err(vm.fail(ErrKind::TypeConfusion));
            }
            vm.push_word(vm.heap.array_len(arr) as Word);
            Ok(Flow::Next)
        }
        Op::IdentityHash => {
            let obj = vm.pop_word();
            if obj == NULL {
                return Err(vm.fail(ErrKind::NullDeref));
            }
            vm.push_word(vm.heap.header(obj).serial);
            Ok(Flow::Next)
        }
        Op::InstanceOf(class) => {
            let obj = vm.pop_word();
            let r = if obj == NULL {
                false
            } else {
                let h = vm.heap.header(obj);
                !h.is_array && !h.is_classobj && vm.program.is_subclass(h.class_id, class)
            };
            vm.push_word(r as Word);
            Ok(Flow::Next)
        }

        // ---- calls ----
        Op::Call(callee) => {
            vm.push_frame(callee, true, &[], false, false)?;
            // Method-prologue yield point.
            if vm.status.is_running() {
                yield_point(vm, hook);
            }
            Ok(Flow::Managed)
        }
        Op::CallVirtual { class, slot } => {
            let static_callee = vm.program.class(class).vtable[slot as usize];
            let nargs = vm.program.method(static_callee).nargs;
            let recv = vm.peek_word(nargs as u64 - 1);
            if recv == NULL {
                return Err(vm.fail(ErrKind::NullDeref));
            }
            let h = vm.heap.header(recv);
            if h.is_array || h.is_classobj || !vm.program.is_subclass(h.class_id, class) {
                return Err(vm.fail(ErrKind::BadVirtualDispatch));
            }
            let callee = vm.program.class(h.class_id).vtable[slot as usize];
            vm.push_frame(callee, true, &[], false, false)?;
            if vm.status.is_running() {
                yield_point(vm, hook);
            }
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
            let obj = vm.pop_word();
            if obj == NULL {
                return Err(vm.fail(ErrKind::NullDeref));
            }
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
                    schedule_next(vm, hook, false);
                    Ok(Flow::Managed)
                }
            }
        }
        Op::MonitorExit => {
            let obj = vm.peek_word(0);
            if obj != NULL && access_gate(vm, hook, obj, true)? {
                return Ok(Flow::Managed);
            }
            let obj = vm.pop_word();
            if obj == NULL {
                return Err(vm.fail(ErrKind::NullDeref));
            }
            let cur = vm.sched.current;
            let owned = vm
                .sched
                .monitors
                .get(&obj)
                .is_some_and(|m| m.owner == Some(cur));
            if !owned {
                return Err(vm.fail(ErrKind::IllegalMonitorState));
            }
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
            let obj = vm.pop_word();
            if obj == NULL {
                return Err(vm.fail(ErrKind::NullDeref));
            }
            let cur = vm.sched.current;
            let owned = vm
                .sched
                .monitors
                .get(&obj)
                .is_some_and(|m| m.owner == Some(cur));
            if !owned {
                return Err(vm.fail(ErrKind::IllegalMonitorState));
            }
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
            schedule_next(vm, hook, false);
            Ok(Flow::Managed)
        }
        Op::Notify | Op::NotifyAll => {
            let obj = vm.peek_word(0);
            if obj != NULL && access_gate(vm, hook, obj, true)? {
                return Ok(Flow::Managed);
            }
            let obj = vm.pop_word();
            if obj == NULL {
                return Err(vm.fail(ErrKind::NullDeref));
            }
            let cur = vm.sched.current;
            let owned = vm
                .sched
                .monitors
                .get(&obj)
                .is_some_and(|m| m.owner == Some(cur));
            if !owned {
                return Err(vm.fail(ErrKind::IllegalMonitorState));
            }
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
            schedule_next(vm, hook, false);
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
            schedule_next(vm, hook, false);
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
            let v = clock_read(vm, hook);
            vm.push_word(v as Word);
            Ok(Flow::Next)
        }
        Op::NativeCall { native, nargs } => {
            let mut args = vec![0i64; nargs as usize];
            for i in (0..nargs as usize).rev() {
                args[i] = vm.pop_word() as i64;
            }
            if let Some(p) = vm.telem.profile.as_deref_mut() {
                p.phase_begin(
                    vm.sched.current,
                    telemetry::profile::PHASE_NATIVE,
                    native as u64,
                    vm.cycles,
                );
            }
            let outcome = hook.on_native_call(vm, native, &args);
            vm.counters.native_calls += 1;
            let tid = vm.sched.current;
            vm.telem
                .event(tid, telemetry::EventKind::NativeCall { method: native });
            if let Some(p) = vm.telem.profile.as_deref_mut() {
                p.phase_end(
                    tid,
                    telemetry::profile::PHASE_NATIVE,
                    native as u64,
                    vm.cycles,
                );
            }
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
            vm.fingerprint.event(0x4A17, 0, 0);
            hook.on_halt(vm);
            Ok(Flow::Managed)
        }
    }
}

/// One hook-mediated wall-clock read: every clock read in the interpreter
/// funnels through here so counting and event-ring tracing stay uniform.
/// (On replay the hook returns the recorded value, so the traced value is
/// exactly what the guest observed.)
fn clock_read(vm: &mut Vm, hook: &mut dyn ExecHook) -> i64 {
    let v = hook.on_clock_read(vm);
    vm.counters.clock_reads += 1;
    let tid = vm.sched.current;
    vm.telem
        .event(tid, telemetry::EventKind::ClockRead { value: v });
    v
}

/// Consult the hook before a heap access; `Ok(true)` means the access was
/// deferred (a switch was performed and the instruction must be retried).
fn access_gate(
    vm: &mut Vm,
    hook: &mut dyn ExecHook,
    obj: Addr,
    write: bool,
) -> Result<bool, VmError> {
    let serial = vm.heap.header(obj).serial;
    match hook.on_shared_access(vm, serial, write) {
        AccessDecision::Proceed => Ok(false),
        AccessDecision::SwitchAndRetry => {
            // Leave pc untouched: the op re-executes when rescheduled.
            perform_switch(vm, hook);
            Ok(true)
        }
    }
}

/// Validate a scalar field access.
fn check_scalar(vm: &mut Vm, obj: Addr, idx: u16, ty: Ty) -> Result<(), VmError> {
    if obj == NULL {
        return Err(vm.fail(ErrKind::NullDeref));
    }
    let h = vm.heap.header(obj);
    if h.is_array || h.is_classobj {
        return Err(vm.fail(ErrKind::TypeConfusion));
    }
    let layout = &vm.program.field_layouts[h.class_id as usize];
    if layout.get(idx as usize) != Some(&ty) {
        return Err(vm.fail(ErrKind::TypeConfusion));
    }
    Ok(())
}

/// Validate an array element access.
fn check_array(vm: &mut Vm, arr: Addr, i: i64, ty: Ty) -> Result<(), VmError> {
    if arr == NULL {
        return Err(vm.fail(ErrKind::NullDeref));
    }
    let h = vm.heap.header(arr);
    if !h.is_array || h.is_stack {
        return Err(vm.fail(ErrKind::TypeConfusion));
    }
    let want_ref = ty == Ty::Ref;
    if h.ref_elems != want_ref {
        return Err(vm.fail(ErrKind::TypeConfusion));
    }
    if i < 0 || i as usize >= vm.heap.array_len(arr) {
        return Err(vm.fail(ErrKind::IndexOutOfBounds));
    }
    Ok(())
}

/// Resolve a guest Thread-object reference to its tid.
fn thread_of(vm: &mut Vm, tref: Addr) -> Result<Tid, VmError> {
    if tref == NULL {
        return Err(vm.fail(ErrKind::NullDeref));
    }
    let h = vm.heap.header(tref);
    if h.is_array || h.is_classobj || h.class_id != vm.program.builtins.thread_class {
        return Err(vm.fail(ErrKind::NotAThread));
    }
    Ok(vm.heap.get_field(tref, 0) as Tid)
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
    if let Some(p) = vm.telem.profile.as_deref_mut() {
        p.exit(cur as Tid, exiting, vm.cycles);
    }
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
    vm.fingerprint.event(0x7E43, cur as u64, 0);
    if let Some(p) = vm.telem.profile.as_deref_mut() {
        p.thread_end(cur, vm.cycles);
    }
    if let Some(waiters) = vm.sched.join_waiters.remove(&cur) {
        for w in waiters {
            vm.threads[w as usize].status = ThreadStatus::Ready;
            vm.sched.ready.push_back(w);
        }
    }
    schedule_next(vm, hook, false);
}

/// Voluntary or preemptive thread switch: requeue the current thread and
/// dispatch the next.
pub(crate) fn perform_switch(vm: &mut Vm, hook: &mut dyn ExecHook) {
    let cur = vm.sched.current;
    vm.threads[cur as usize].status = ThreadStatus::Ready;
    vm.sched.ready.push_back(cur);
    schedule_next(vm, hook, false);
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
fn schedule_next(vm: &mut Vm, hook: &mut dyn ExecHook, requeue_current: bool) {
    if requeue_current {
        let cur = vm.sched.current;
        vm.threads[cur as usize].status = ThreadStatus::Ready;
        vm.sched.ready.push_back(cur);
    }
    loop {
        if let Some(tid) = vm.sched.ready.pop_front() {
            vm.sched.current = tid;
            vm.threads[tid as usize].status = ThreadStatus::Running;
            vm.counters.thread_switches += 1;
            let yp = vm.threads[tid as usize].yield_points;
            vm.fingerprint.thread_switch(tid, yp);
            vm.telem
                .event(tid, telemetry::EventKind::Switch { to: tid, nyp: yp });
            if let Some(p) = vm.telem.profile.as_deref_mut() {
                p.switch_to(tid, yp, vm.cycles);
            }
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
                vm.fingerprint.event(0xDEAD, 1, 0);
                hook.on_halt(vm);
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
            vm.fingerprint.event(0x4A17, 1, 0);
        } else {
            vm.status = VmStatus::Deadlocked;
            vm.fingerprint.event(0xDEAD, 0, 0);
        }
        hook.on_halt(vm);
        return;
    }
}

/// Process a yield point: consult the hook (Fig. 2) and act.
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
            hook.on_halt(vm);
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

    #[test]
    fn quickening_pauses_on_identical_budget_boundaries() {
        // A budget-limited run must stop at the same instruction count
        // (fused ops split at the budget edge, never overshoot).
        for budget in [1u64, 2, 3, 5, 17, 50, 101, 500] {
            let mut on = boot_q(quicken_workout(), true, 13);
            let mut off = boot_q(quicken_workout(), false, 13);
            let mut h1 = Passthrough;
            let mut h2 = Passthrough;
            run(&mut on, &mut h1, budget);
            run(&mut off, &mut h2, budget);
            assert_eq!(
                observe(&on),
                observe(&off),
                "paused state must match at budget {budget}"
            );
            assert_eq!(on.counters.steps, budget.min(on.counters.steps));
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

    // ---- tier-2 megablock neutrality ----

    /// Two hot loops (both far past `MEGA_HOT_THRESHOLD`), one with a
    /// devirtualized call and a `rem` in the body, racing on preemptive
    /// switches — the three-tier equality workout.
    fn mega_workout() -> crate::program::Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("Scaler").build();
        pb.virtual_method(c, "twice", vec![Ty::Int], 2, Some(Ty::Int))
            .code(|a| {
                a.load(1).iconst(2).mul().ret_val();
            });
        let slot = pb.vslot(c, "twice");
        let worker = pb.method("worker", 0, 1).code(|a| {
            a.iconst(0).store(0);
            a.label("top");
            a.load(0).iconst(300).ge().if_nz("done");
            a.load(0).iconst(1).add().store(0);
            a.goto("top");
            a.label("done");
            a.load(0).print();
            a.ret();
        });
        let m = pb.method("main", 0, 3).code(|a| {
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
            a.join();
            a.load(1).print();
            a.halt();
        });
        pb.finish(m).unwrap()
    }

    fn boot_mega(
        p: crate::program::Program,
        mega: bool,
        interval: u64,
        stride: u64,
        guard: Option<u32>,
    ) -> Vm {
        let cfg = VmConfig {
            quicken: true,
            mega,
            mega_deopt_stride: stride,
            mega_deopt_guard: guard,
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
    fn megablocks_tier_up_and_batch_iterations() {
        let mut vm = boot_mega(mega_workout(), true, 10_000, 0, None);
        vm.enable_telemetry(256);
        let mut h = Passthrough;
        run(&mut vm, &mut h, 10_000_000);
        assert!(!vm.status.is_running());
        let st = vm.mega.stats;
        assert!(st.tier_ups >= 2, "both hot loops tier up: {st:?}");
        assert!(st.entries >= 2, "blocks actually dispatched: {st:?}");
        assert!(st.iters > 200, "iterations run batched: {st:?}");
        assert_eq!(st.forced_deopts, 0, "{st:?}");
        // Tier-up surfaces in the event ring as compile.mega, carrying
        // the trip count at the threshold crossing.
        let megas: Vec<_> = vm
            .telem
            .ring
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, telemetry::EventKind::MegaCompile { .. }))
            .collect();
        assert_eq!(megas.len() as u64, st.tier_ups);
        for e in &megas {
            if let telemetry::EventKind::MegaCompile {
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
    fn megablocks_are_neutral_across_timer_shapes() {
        // Interval 1 can never pass the entry gate (everything runs
        // tier-1); large intervals batch almost every iteration. All must
        // observe identically, across all three tiers.
        for interval in [1, 2, 3, 7, 64, 10_000] {
            let mut gen = boot_q(mega_workout(), false, interval);
            let mut quick = boot_mega(mega_workout(), false, interval, 0, None);
            let mut mega = boot_mega(mega_workout(), true, interval, 0, None);
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
                "megablocks must be invisible at interval {interval}"
            );
        }
    }

    #[test]
    fn megablocks_pause_on_identical_budget_boundaries() {
        // The n + width <= max_steps gate: budget-limited runs stop at
        // the same instruction in every tier, even mid-hot-loop.
        for budget in [1u64, 2, 3, 5, 17, 50, 101, 500, 1_000, 2_317] {
            let mut quick = boot_mega(mega_workout(), false, 97, 0, None);
            let mut mega = boot_mega(mega_workout(), true, 97, 0, None);
            let (mut h1, mut h2) = (Passthrough, Passthrough);
            run(&mut quick, &mut h1, budget);
            run(&mut mega, &mut h2, budget);
            assert_eq!(
                observe(&quick),
                observe(&mega),
                "paused state must match at budget {budget}"
            );
        }
    }

    #[test]
    fn forced_deopt_is_invisible_at_every_stride() {
        let baseline = {
            let mut vm = boot_mega(mega_workout(), false, 10_000, 0, None);
            let mut h = Passthrough;
            run(&mut vm, &mut h, 10_000_000);
            observe(&vm)
        };
        for stride in [1u64, 2, 3, 7, 64] {
            let mut vm = boot_mega(mega_workout(), true, 10_000, stride, None);
            let mut h = Passthrough;
            run(&mut vm, &mut h, 10_000_000);
            assert_eq!(
                observe(&vm),
                baseline,
                "stride-{stride} forced deopts must be invisible"
            );
            if stride == 1 {
                // Every guard evaluation deopts: blocks enter, never
                // complete an iteration, and the run still matches.
                assert!(vm.mega.stats.forced_deopts > 0, "{:?}", vm.mega.stats);
                assert_eq!(vm.mega.stats.iters, 0, "{:?}", vm.mega.stats);
            }
        }
    }

    #[test]
    fn forced_deopt_is_invisible_at_every_guard_ordinal() {
        let baseline = {
            let mut vm = boot_mega(mega_workout(), false, 10_000, 0, None);
            let mut h = Passthrough;
            run(&mut vm, &mut h, 10_000_000);
            observe(&vm)
        };
        // Cover every guard ordinal of every block in the workout (the
        // widest block has 3 guards; ordinal 7 exercises the no-op case).
        for g in [0u32, 1, 2, 7] {
            let mut vm = boot_mega(mega_workout(), true, 10_000, 0, Some(g));
            let mut h = Passthrough;
            run(&mut vm, &mut h, 10_000_000);
            assert_eq!(
                observe(&vm),
                baseline,
                "deopt at guard ordinal {g} must be invisible"
            );
            if g == 0 {
                assert!(vm.mega.stats.forced_deopts > 0, "{:?}", vm.mega.stats);
            }
        }
    }

    #[test]
    fn megablocks_are_neutral_on_error_paths() {
        // A division whose divisor decays to zero mid-hot-loop: the block
        // tiers up around trip 64, then the Div guard catches the zero at
        // trip 150 and deopts; the quickened re-execution raises the real
        // DivByZero at the identical instruction.
        let build = || {
            let mut pb = ProgramBuilder::new();
            let m = pb.method("main", 0, 1).code(|a| {
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
        let mut quick = boot_mega(build(), false, 10_000, 0, None);
        let mut mega = boot_mega(build(), true, 10_000, 0, None);
        let (mut h1, mut h2, mut h3) = (Passthrough, Passthrough, Passthrough);
        run(&mut gen, &mut h1, 10_000_000);
        run(&mut quick, &mut h2, 10_000_000);
        run(&mut mega, &mut h3, 10_000_000);
        assert!(matches!(mega.status, VmStatus::Error(_)), "div0 must fail");
        assert!(mega.mega.stats.tier_ups >= 1, "{:?}", mega.mega.stats);
        assert_eq!(observe(&gen), observe(&quick));
        assert_eq!(observe(&quick), observe(&mega), "error must be identical");
    }

    /// Like [`boot_mega`] but with coarse fingerprinting — the production
    /// setting, and the one that arms the closed-form fast path (full
    /// per-pc hashing forces the step-by-step loop).
    fn boot_coarse(p: crate::program::Program, quicken: bool, mega: bool, interval: u64) -> Vm {
        let cfg = VmConfig {
            quicken,
            mega,
            fingerprint: crate::fingerprint::FingerprintMode::Coarse,
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
    fn closed_form_is_neutral_under_coarse_fingerprint() {
        // Under coarse fingerprinting the closed-form stepper retires whole
        // iteration batches with one multiply; every observable (including
        // the coarse fingerprint, which hashes scheduling + output) must
        // still match both lower tiers at every timer shape.
        for interval in [3u64, 29, 97, 211, 10_000] {
            let mut gen = boot_coarse(mega_workout(), false, false, interval);
            let mut quick = boot_coarse(mega_workout(), true, false, interval);
            let mut mega = boot_coarse(mega_workout(), true, true, interval);
            let (mut h1, mut h2, mut h3) = (Passthrough, Passthrough, Passthrough);
            run(&mut gen, &mut h1, 10_000_000);
            run(&mut quick, &mut h2, 10_000_000);
            run(&mut mega, &mut h3, 10_000_000);
            assert!(!gen.status.is_running());
            assert_eq!(
                observe(&gen),
                observe(&quick),
                "quickening must be invisible at interval {interval}"
            );
            assert_eq!(
                observe(&quick),
                observe(&mega),
                "closed-form megablocks must be invisible at interval {interval}"
            );
            if interval >= 97 {
                assert!(
                    mega.mega.stats.closed_iters > 0,
                    "fast path must actually run at interval {interval} \
                     (stats: {:?})",
                    mega.mega.stats
                );
            }
        }
    }

    /// Counting loop whose induction variable crosses the i64 wrap: starts
    /// near `i64::MAX`, steps by +3, and only exits once the wrap makes it
    /// negative. Exercises the closed form's no-wrap horizon — the final
    /// wrapping iteration must be executed step-by-step with the
    /// interpreter's exact wrapping-add semantics.
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
        for interval in [7u64, 211, 10_000] {
            let mut quick = boot_coarse(wrap_workout(), true, false, interval);
            let mut mega = boot_coarse(wrap_workout(), true, true, interval);
            let (mut h1, mut h2) = (Passthrough, Passthrough);
            run(&mut quick, &mut h1, 10_000_000);
            run(&mut mega, &mut h2, 10_000_000);
            assert!(!quick.status.is_running());
            assert_eq!(
                observe(&quick),
                observe(&mega),
                "wrap boundary must be bit-identical at interval {interval}"
            );
            // At tight intervals the tick gate keeps the block from ever
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
