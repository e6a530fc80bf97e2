//! A boot's cost is a count. The heap's storage is a committed prefix of
//! its address space (`djvm::heap`), so booting a registry guest under the
//! platform's one execution environment allocates what its boot image
//! needs, not the 8 MiB of the default address space, and a whole
//! recording stays within a mebibyte.

use dejavu_repro::dejavu::{record_run, SymmetryConfig};
use dejavu_repro::djvm::VmConfig;
use dejavu_repro::fleet::spec_for;
use dejavu_repro::workloads;

mod counting;

/// What booting a registry guest may allocate: its boot image is under a
/// thousand words, the program tables and thread state a few kilobytes.
const BOOT_BYTES: usize = 64 << 10;
/// What a whole recording may allocate: the heap its guest touches, the
/// trace and the run's bookkeeping.
const RECORD_BYTES: usize = 1 << 20;

#[test]
fn a_boot_and_a_recording_allocate_what_the_guest_uses() {
    for w in workloads::registry() {
        let spec = spec_for(&w, 7);
        let (vm, boot) = counting::counted(|| spec.replay_vm());
        assert_eq!(vm.heap.total_words(), VmConfig::default().heap_words);
        assert!(
            boot <= BOOT_BYTES,
            "{}: a boot allocates {boot} bytes, want at most {BOOT_BYTES}",
            w.name
        );
        drop(vm);
        let (_, record) =
            counting::counted(|| record_run(&spec, w.natives, SymmetryConfig::full(), true));
        assert!(
            record <= RECORD_BYTES,
            "{}: a recording allocates {record} bytes, want at most {RECORD_BYTES}",
            w.name
        );
    }
}
