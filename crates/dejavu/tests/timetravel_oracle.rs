//! Time travel against the whole heap image. `Vm::state_digest` walks only
//! what is reachable, so it cannot see a restore that left a stale word
//! behind or a write above the heap's extent (the bound below which a
//! checkpoint copies words). This suite compares every word instead:
//! every registry workload under both collectors, on a heap small enough
//! that the allocation-heavy ones collect, driven through drawn seek tapes
//! with a small checkpoint interval; every landing must hold, word for
//! word, the heap a straight replay holds at the same step.
//!
//! It runs the generic tier, where one step is one instruction. A fused
//! op of the quickened tier, or tier 2's closed form, need not write the operand
//! slots its constituents would have, so there the dead words above a
//! stack pointer depend on where a run paused; those tiers' landings are
//! pinned by fingerprint and state digest in `tests/proptests.rs`.

use dejavu::{
    encode_trace, ingest_bytes, record_run, DejaVuReplayer, ExecSpec, SymmetryConfig, TimeTravel,
    TraceFormat,
};
use djvm::hook::ExecHook;
use djvm::{GcKind, SplitMix64, Vm, VmStatus, Word};
use std::sync::Arc;

/// One drawn motion of a [`TimeTravel`].
#[derive(Debug, Clone, Copy)]
enum Move {
    Seek(u64),
    SeekLogical(u64),
    Advance(u64),
    StepOnce,
}

/// A seek tape: backward and forward, by step and by logical time.
fn draw_tape(rng: &mut SplitMix64, end: u64, end_logical: u64) -> Vec<Move> {
    (0..12)
        .map(|_| match rng.gen_range_u64(0, 4) {
            0 => Move::Seek(rng.gen_range_u64(0, end)),
            1 => Move::SeekLogical(rng.gen_range_u64(0, end_logical + 1)),
            2 => Move::Seek([0, end, end + 1][rng.gen_range_u64(0, 2) as usize]),
            3 => Move::Advance(rng.gen_range_u64(0, end / 4 + 1)),
            _ => Move::StepOnce,
        })
        .collect()
}

/// Where a VM stands and what it has seen, then every word of its heap.
fn observe(vm: &Vm) -> ((u64, u64, VmStatus, u64, u64), Vec<Word>) {
    let at = (
        vm.counters.steps,
        vm.counters.yield_points,
        vm.status,
        vm.fingerprint.digest(),
        vm.state_digest(),
    );
    (at, vm.heap.mem_snapshot())
}

#[test]
fn every_landing_holds_the_straight_replays_whole_heap() {
    let sym = SymmetryConfig::full();
    let mut collected = Vec::new();
    let mut restores = 0;
    for (i, w) in workloads::registry().into_iter().enumerate() {
        for (gc, heap_words) in [(GcKind::MarkSweep, 4096), (GcKind::Copying, 8192)] {
            let mut spec = ExecSpec::new((w.build)()).with_seed(7).with_quicken(false);
            spec.timer_base = 53;
            spec.timer_jitter = 19;
            spec.vm.gc = gc;
            spec.vm.heap_words = heap_words;
            let (rec, trace) = record_run(&spec, w.natives, sym, true);
            let trace = Arc::new(trace);
            let (end, end_logical) = (rec.counters.steps, rec.counters.yield_points);
            if rec.gc_collections > 0 {
                collected.push((w.name, gc));
            }
            let bounds = ingest_bytes(encode_trace(&trace, TraceFormat::Block, 96))
                .expect("own encoding")
                .boundaries;
            let mut tt = TimeTravel::new_indexed(
                spec.replay_vm(),
                Arc::clone(&trace),
                sym,
                end / 32 + 1,
                bounds,
            );
            let mut rng = SplitMix64::new(2 * i as u64 + (gc == GcKind::Copying) as u64);
            for m in draw_tape(&mut rng, end, end_logical) {
                match m {
                    Move::Seek(s) => tt.seek(s),
                    Move::SeekLogical(t) => drop(tt.seek_logical(t)),
                    Move::Advance(n) => tt.seek(tt.step.saturating_add(n)),
                    Move::StepOnce => tt.seek(tt.step.saturating_add(1)),
                }
                let (at, mem) = observe(tt.vm());
                let extent = tt.vm().heap.extent();
                assert!(
                    mem[extent..].iter().all(|&w| w == 0),
                    "{} {gc:?} after {m:?}: a word at or above the extent {extent} is written",
                    w.name
                );
                let mut vm = spec.replay_vm();
                let mut hook = DejaVuReplayer::new(Arc::clone(&trace), sym);
                hook.on_init(&mut vm);
                djvm::interp::run(&mut vm, &mut hook, tt.step);
                let (want_at, want_mem) = observe(&vm);
                assert_eq!(at, want_at, "{} {gc:?} after {m:?}", w.name);
                assert!(
                    mem == want_mem,
                    "{} {gc:?} after {m:?}: heap word {:?} differs from a straight replay's",
                    w.name,
                    mem.iter().zip(&want_mem).position(|(a, b)| a != b)
                );
            }
            restores += tt.restores;
        }
    }
    assert!(restores > 0, "no tape went backward");
    for name in [
        "gc_churn",
        "gc_pressure",
        "deep_recursion",
        "recursion_storm",
    ] {
        for gc in [GcKind::MarkSweep, GcKind::Copying] {
            assert!(
                collected.contains(&(name, gc)),
                "{name} never collected under {gc:?}"
            );
        }
    }
}
