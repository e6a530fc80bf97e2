//! The heap's storage is a committed prefix of its address space
//! (`djvm::heap`), grown as the guest's extent rises. The small-heap
//! collector suites collect with part of the space never backed, and
//! every address reads the same through `read_word` as in the whole
//! image, committed or not.

use dejavu_repro::dejavu::{record_run, ExecSpec, SymmetryConfig, TimeTravel};
use dejavu_repro::djvm::heap::Heap;
use dejavu_repro::djvm::{interp, Addr, GcKind, Passthrough, ProcessMemory};
use dejavu_repro::qc;
use dejavu_repro::workloads;
use dejavu_repro::{qc_assert, qc_assert_eq};

/// The registry under the configurations of the small-heap collector
/// suites (`replay_accuracy.rs`, `timetravel_oracle.rs`): mark-sweep at
/// 2, 4 and 8 Ki words, copying at twice that.
#[test]
fn the_small_heap_suites_collect_under_a_partial_commit() {
    let mut partial = Vec::new();
    for w in workloads::registry() {
        for (gc, words) in [
            (GcKind::MarkSweep, 2048),
            (GcKind::MarkSweep, 4096),
            (GcKind::MarkSweep, 8192),
            (GcKind::Copying, 4096),
            (GcKind::Copying, 8192),
            (GcKind::Copying, 16384),
        ] {
            let mut s = ExecSpec::new((w.build)()).with_seed(7);
            s.timer_base = 53;
            s.timer_jitter = 19;
            s.vm.gc = gc;
            s.vm.heap_words = words;
            let mut vm = s.live_vm();
            (w.natives)(&mut vm);
            interp::run(&mut vm, &mut Passthrough, s.max_steps);
            if vm.heap.stats.partial_commit_collections > 0 {
                partial.push(gc);
            }
        }
    }
    for gc in [GcKind::MarkSweep, GcKind::Copying] {
        assert!(
            partial.contains(&gc),
            "no {gc:?} collection ran under a partial commit"
        );
    }
}

/// `read_word` answers every address the way the whole image
/// (`mem_snapshot`) does: the guest's words below the extent, zeros in
/// the committed words above it and in the uncommitted rest of the space,
/// and nothing past the space. Drawn over the registry under both
/// collectors, after a straight replay and after a time-travel restore
/// that lowered the extent below what it had committed.
#[test]
fn read_word_agrees_with_the_whole_image() {
    let registry = workloads::registry();
    let sym = SymmetryConfig::full();
    qc::check("read_word_agrees_with_the_whole_image", 24, |g| {
        let w = &registry[g.usize_in(0, registry.len() - 1)];
        let (gc, words) = [(GcKind::MarkSweep, 4096), (GcKind::Copying, 8192)][g.usize_in(0, 1)];
        let mut spec = ExecSpec::new((w.build)()).with_seed(g.u64_in(0, 99));
        spec.timer_base = 53;
        spec.timer_jitter = 19;
        spec.vm.gc = gc;
        spec.vm.heap_words = words;
        let (rec, trace) = record_run(&spec, w.natives, sym, true);
        let end = rec.counters.steps;
        let mut tt = TimeTravel::new_indexed(spec.replay_vm(), trace, sym, end / 4 + 1, Vec::new());
        tt.seek(end);
        read_words_agree(&tt.vm().heap, w.name, "straight")?;
        let high = tt.vm().heap.extent();
        // Back to the boot image, below every block the run handed out.
        tt.seek(0);
        qc_assert!(tt.restores == 1);
        qc_assert!(
            tt.vm().heap.extent() < high,
            "{} {gc:?}: the restore left the extent at {high}",
            w.name
        );
        read_words_agree(&tt.vm().heap, w.name, "restored")
    });
}

fn read_words_agree(heap: &Heap, name: &str, when: &str) -> Result<(), String> {
    let image = heap.mem_snapshot();
    let (extent, committed, total) = (heap.extent(), heap.committed_words(), heap.total_words());
    qc_assert_eq!(image.len(), total);
    qc_assert!(extent <= committed && committed <= total);
    let [e, c, t] = [extent, committed, total].map(|n| n as Addr);
    for a in [0, e - 1, e, c - 1, c, t - 1, t, Addr::MAX] {
        qc_assert_eq!(
            heap.read_word(a),
            image.get(a as usize).copied(),
            "{name} {when}: address {a} (extent {e}, committed {c}, total {t})"
        );
    }
    Ok(())
}
