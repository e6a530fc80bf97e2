//! Type-accurate garbage collection (paper §1).
//!
//! "To avoid memory leaks associated with conservative garbage collection
//! and to allow copying garbage collection, all of Jalapeño's garbage
//! collectors are type-accurate. This means that every reference to a live
//! object must be identified during garbage collection. Identifying such
//! references in the frames of a thread's activation stack is particularly
//! problematic" — which the per-pc **reference maps** of [`crate::compile`]
//! solve. GC can only trigger at allocation sites, and every thread that is
//! not running is stopped at a safe point (a yield point, a blocked
//! operation, or a call site), so a valid reference map exists for every
//! frame of every thread.
//!
//! Two collectors are provided, selected by [`crate::heap::GcKind`]:
//!
//! * **mark-sweep**: non-moving, address-ordered first-fit free list;
//! * **semispace copying**: moves objects (Cheney scan). Frame slots inside
//!   activation-stack arrays are forwarded precisely via reference maps,
//!   and the frame-pointer chain is rebased. Identity hashes survive moves
//!   because they are allocation serials.
//!
//! Both collectors are fully deterministic, which is load-bearing for the
//! paper's replay strategy: "the archetypical Java runtime service —
//! automatic memory management — is completely deterministic in Jalapeño."

use crate::heap::{
    forward_target, forward_word, is_forwarded, Addr, GcKind, Header, Heap, NULL, RESERVED,
};
use crate::objref;
use crate::program::Program;
use crate::thread::Tid;
use crate::vm::{frame_slots, Vm};
use std::sync::Arc;
use telemetry::VmEvent;

/// Collect garbage. Called by the VM when an allocation fails.
pub fn collect(vm: &mut Vm) {
    // Occupancy peaks immediately before a collection; sample it here.
    vm.heap.note_peak();
    if vm.heap.committed_words() < vm.heap.total_words() {
        vm.heap.stats.partial_commit_collections += 1;
    }
    let words_before = vm.heap.stats.words_copied_or_swept;
    let collection = vm.heap.stats.collections + 1;
    vm.note(VmEvent::GcBegin { collection });
    match vm.heap.kind() {
        GcKind::MarkSweep => mark_sweep(vm),
        GcKind::Copying => copying(vm),
    }
    vm.heap.stats.collections = collection;
    // Zero-width in logical time (GC runs between guest instructions);
    // the work done is carried in the event instead.
    let words = vm.heap.stats.words_copied_or_swept - words_before;
    vm.note(VmEvent::GcEnd { collection, words });
}

/// Address of every reference slot in every frame of every thread.
fn frame_ref_slots(vm: &Vm) -> Vec<Addr> {
    (0..vm.threads.len() as Tid)
        .flat_map(|tid| vm.frames(tid))
        .flat_map(|f| frame_slots(&vm.program, &f))
        .filter_map(|(slot, is_ref)| is_ref.then_some(slot))
        .collect()
}

// ---------------------------------------------------------------------
// Mark-sweep
// ---------------------------------------------------------------------

/// Push the non-null reference held in each of `slots`.
fn push_targets(heap: &Heap, slots: impl IntoIterator<Item = Addr>, out: &mut Vec<Addr>) {
    let targets = slots.into_iter().map(|slot| heap.mem[slot as usize]);
    out.extend(targets.filter(|&a| a != NULL));
}

fn mark_sweep(vm: &mut Vm) {
    let mut worklist = Vec::new();
    vm.each_root(|_, slot| worklist.push(*slot));
    push_targets(&vm.heap, frame_ref_slots(vm), &mut worklist);

    // Mark.
    while let Some(a) = worklist.pop() {
        let h = objref::header(&vm.heap, a).expect("a reference to an object");
        if h.marked {
            continue;
        }
        vm.heap
            .set_raw_header(a, Header { marked: true, ..h }.encode());
        let children = vm.heap.payload(a, &vm.program).ref_slots();
        push_targets(&vm.heap, children, &mut worklist);
    }

    // Sweep: linear heap parse, skipping known-free blocks.
    let total = vm.heap.total_words();
    let old_free = std::mem::take(&mut vm.heap.free);
    let mut new_free: Vec<(usize, usize)> = Vec::new();
    let mut fi = 0;
    let mut pos = RESERVED;
    let mut swept = 0u64;
    let add_free = |new_free: &mut Vec<(usize, usize)>, start: usize, len: usize| {
        if let Some(last) = new_free.last_mut() {
            if last.0 + last.1 == start {
                last.1 += len;
                return;
            }
        }
        new_free.push((start, len));
    };
    while pos < total {
        if fi < old_free.len() && old_free[fi].0 == pos {
            add_free(&mut new_free, pos, old_free[fi].1);
            pos += old_free[fi].1;
            fi += 1;
            continue;
        }
        let h = objref::header(&vm.heap, pos as Addr).expect("an object or a free block");
        let words = vm.heap.object_words(pos as Addr, &vm.program);
        if h.marked {
            vm.heap
                .set_raw_header(pos as Addr, Header { marked: false, ..h }.encode());
        } else {
            add_free(&mut new_free, pos, words);
            swept += words as u64;
        }
        pos += words;
    }
    vm.heap.free = new_free;
    vm.heap.stats.words_copied_or_swept += swept;
}

// ---------------------------------------------------------------------
// Semispace copying
// ---------------------------------------------------------------------

/// Forward one reference: copy its target to to-space (at the heap's bump
/// pointer, which is to-space's for the length of a collection) unless it
/// already was, and return where it lives now.
fn forward(heap: &mut Heap, program: &Program, a: Addr) -> Addr {
    if a == NULL {
        return NULL;
    }
    let raw = heap.raw_header(a);
    if is_forwarded(raw) {
        return forward_target(raw);
    }
    let words = heap.object_words(a, program);
    let new = heap.bump as Addr;
    heap.mem
        .copy_within(a as usize..a as usize + words, heap.bump);
    heap.bump += words;
    heap.set_raw_header(a, forward_word(new));
    heap.stats.words_copied_or_swept += words as u64;
    new
}

/// [`forward`] the reference held in heap word `slot`.
fn forward_slot(heap: &mut Heap, program: &Program, slot: Addr) {
    heap.mem[slot as usize] = forward(heap, program, heap.mem[slot as usize]);
}

fn copying(vm: &mut Vm) {
    let program = Arc::clone(&vm.program);
    let half = vm.heap.half;
    let from_base = vm.heap.active_base;
    let to_base = if from_base == RESERVED {
        RESERVED + half
    } else {
        RESERVED
    };
    vm.heap.bump = to_base;
    // To-space is written and, in debug builds, from-space scrubbed.
    vm.heap.extent = vm.heap.total_words();
    vm.heap.commit(vm.heap.extent);

    // Roots, rewritten in place. Only this collector moves an activation
    // stack, so the rebase of each thread's registers is its own.
    let old_stacks: Vec<Addr> = vm.threads.iter().map(|t| t.stack_obj).collect();
    vm.each_root(|heap, slot| *slot = forward(heap, &program, *slot));
    for (t, old) in vm.threads.iter_mut().zip(old_stacks) {
        if old != NULL {
            t.rebase_stack(&mut vm.heap, t.stack_obj.wrapping_sub(old));
        }
    }

    // Frames (the stacks themselves have been copied; their payload still
    // holds from-space references), then the Cheney scan of to-space.
    for slot in frame_ref_slots(vm) {
        forward_slot(&mut vm.heap, &program, slot);
    }
    let mut scan = to_base;
    while scan < vm.heap.bump {
        let p = vm.heap.payload(scan as Addr, &program);
        for slot in p.ref_slots() {
            forward_slot(&mut vm.heap, &program, slot);
        }
        scan = p.first as usize + p.count;
    }

    // Flip.
    vm.heap.active_base = to_base;
    // Scrub the old semispace in debug builds to catch stale pointers.
    if cfg!(debug_assertions) {
        vm.heap.mem[from_base..from_base + half].fill(0xDEAD_DEAD_DEAD_DEAD);
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;
    use crate::bytecode::Ty;
    use crate::clock::{CycleClock, FixedTimer};
    use crate::heap::GcKind;
    use crate::hook::Passthrough;
    use crate::interp::run;
    use crate::vm::{Vm, VmConfig, VmStatus};
    use std::sync::Arc;

    /// A program that allocates garbage in a loop while keeping a linked
    /// list alive, then checks the list — exercising the collector hard.
    fn churn_program() -> crate::program::Program {
        let mut pb = ProgramBuilder::new();
        let node = pb
            .class("Node")
            .field("v", Ty::Int)
            .field("next", Ty::Ref)
            .build();
        let m = pb.method("main", 0, 4).code(|a| {
            // Build a 50-node list: local0 = head.
            a.null().store(0);
            a.iconst(0).store(1);
            a.label("build");
            a.load(1).iconst(50).ge().if_nz("churn_init");
            a.new(node).store(2);
            a.load(2).load(1).put_field(0);
            a.load(2).load(0).put_field_ref(1);
            a.load(2).store(0);
            a.load(1).iconst(1).add().store(1);
            a.goto("build");
            // Allocate 2000 garbage arrays.
            a.label("churn_init");
            a.iconst(0).store(1);
            a.label("churn");
            a.load(1).iconst(2000).ge().if_nz("check");
            a.iconst(20).new_array_int().pop();
            a.load(1).iconst(1).add().store(1);
            a.goto("churn");
            // Sum the list: should be 0+1+...+49 = 1225.
            a.label("check");
            a.iconst(0).store(3);
            a.load(0).store(2);
            a.label("sum");
            a.load(2).null().ref_eq().if_nz("done");
            a.load(3).load(2).get_field(0).add().store(3);
            a.load(2).get_field_ref(1).store(2);
            a.goto("sum");
            a.label("done");
            a.load(3).print();
            a.halt();
        });
        pb.finish(m).unwrap()
    }

    fn run_churn(gc: GcKind) -> Vm {
        let p = churn_program();
        let mut vm = Vm::boot(
            Arc::new(p),
            VmConfig {
                heap_words: 16 * 1024, // small: forces many collections
                gc,
                ..VmConfig::default()
            },
            Box::new(FixedTimer::new(1000)),
            Box::new(CycleClock::new(0, 100)),
        )
        .unwrap();
        let mut hook = Passthrough;
        let st = run(&mut vm, &mut hook, 50_000_000);
        assert_eq!(st, VmStatus::Halted, "status: {:?}", vm.status);
        vm
    }

    #[test]
    fn mark_sweep_collects_and_preserves_liveness() {
        let vm = run_churn(GcKind::MarkSweep);
        assert_eq!(vm.output, "1225\n");
        assert!(vm.heap.stats.collections > 0, "GC must have run");
    }

    #[test]
    fn copying_collects_and_preserves_liveness() {
        let vm = run_churn(GcKind::Copying);
        assert_eq!(vm.output, "1225\n");
        assert!(vm.heap.stats.collections > 0, "GC must have run");
    }

    #[test]
    fn both_collectors_agree_on_program_behaviour() {
        let a = run_churn(GcKind::MarkSweep);
        let b = run_churn(GcKind::Copying);
        assert_eq!(a.output, b.output);
        // Identity (serial) based digests agree even though addresses moved.
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn identity_hash_stable_under_copying() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("O").field("x", Ty::Int).build();
        let m = pb.method("main", 0, 2).code(|a| {
            a.new(cls).store(0);
            a.load(0).identity_hash().store(1);
            // churn to force at least one copy
            a.iconst(0).put_static(cls, 0); // hmm no statics; use loop below
            a.halt();
        });
        // simpler: build program with statics-free churn
        let _ = m;
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("O").field("x", Ty::Int).build();
        let m = pb.method("main", 0, 3).code(|a| {
            a.new(cls).store(0);
            a.load(0).identity_hash().store(1);
            a.iconst(0).store(2);
            a.label("churn");
            a.load(2).iconst(500).ge().if_nz("check");
            a.iconst(30).new_array_int().pop();
            a.load(2).iconst(1).add().store(2);
            a.goto("churn");
            a.label("check");
            a.load(0).identity_hash().load(1).sub().print(); // 0 if stable
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        let mut vm = Vm::boot(
            Arc::new(p),
            VmConfig {
                heap_words: 8 * 1024,
                gc: GcKind::Copying,
                ..VmConfig::default()
            },
            Box::new(FixedTimer::new(1000)),
            Box::new(CycleClock::new(0, 100)),
        )
        .unwrap();
        let mut hook = Passthrough;
        run(&mut vm, &mut hook, 10_000_000);
        assert!(vm.heap.stats.collections > 0);
        assert_eq!(vm.output, "0\n");
        let _ = cls;
    }

    #[test]
    fn oom_is_a_clean_error() {
        let mut pb = ProgramBuilder::new();
        let node = pb
            .class("Node")
            .field("v", Ty::Int)
            .field("next", Ty::Ref)
            .build();
        // Endless live list: must eventually OOM.
        let m = pb.method("main", 0, 2).code(|a| {
            a.null().store(0);
            a.label("top");
            a.new(node).store(1);
            a.load(1).load(0).put_field_ref(1);
            a.load(1).store(0);
            a.goto("top");
        });
        let p = pb.finish(m).unwrap();
        let mut vm = Vm::boot(
            Arc::new(p),
            VmConfig {
                heap_words: 4096,
                ..VmConfig::default()
            },
            Box::new(FixedTimer::new(1000)),
            Box::new(CycleClock::new(0, 100)),
        )
        .unwrap();
        let mut hook = Passthrough;
        let st = run(&mut vm, &mut hook, 10_000_000);
        assert!(
            matches!(st, VmStatus::Error(e) if e.kind == crate::vm::ErrKind::OutOfMemory),
            "got {st:?}"
        );
        let _ = node;
    }

    #[test]
    fn gc_with_multiple_threads_and_monitors() {
        let mut pb = ProgramBuilder::new();
        let g = pb
            .class("G")
            .static_field("lock", Ty::Ref)
            .static_field("sum", Ty::Int)
            .build();
        let lock_cls = pb.class("Lock").build();
        let worker = pb.method("worker", 0, 2).code(|a| {
            a.iconst(0).store(0);
            a.label("top");
            a.load(0).iconst(200).ge().if_nz("done");
            a.iconst(40).new_array_int().store(1); // garbage
            a.get_static(g, 0).monitor_enter();
            a.get_static(g, 1).iconst(1).add().put_static(g, 1);
            a.get_static(g, 0).monitor_exit();
            a.load(0).iconst(1).add().store(0);
            a.goto("top");
            a.label("done");
            a.ret();
        });
        let m = pb.method("main", 0, 2).code(|a| {
            a.new(lock_cls).put_static(g, 0);
            a.spawn(worker, 0).store(0);
            a.spawn(worker, 0).store(1);
            a.load(0).join();
            a.load(1).join();
            a.get_static(g, 1).print();
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        for gc in [GcKind::MarkSweep, GcKind::Copying] {
            let mut vm = Vm::boot(
                Arc::new(p.clone()),
                VmConfig {
                    heap_words: 16 * 1024,
                    gc,
                    ..VmConfig::default()
                },
                Box::new(FixedTimer::new(13)),
                Box::new(CycleClock::new(0, 100)),
            )
            .unwrap();
            let mut hook = Passthrough;
            let st = run(&mut vm, &mut hook, 50_000_000);
            assert_eq!(st, VmStatus::Halted);
            assert_eq!(vm.output, "400\n");
            assert!(vm.heap.stats.collections > 0);
        }
    }
}
