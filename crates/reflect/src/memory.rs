//! Cross-address-space word reads: the `ptrace` analogue.
//!
//! Remote reflection's whole operating-system requirement is "access across
//! processes ... typically provided by the system debugging interface,
//! which in the Jalapeño implementation is the Unix ptrace facility" (§3.2)
//! — i.e., the ability to read a word at an address in the remote process
//! **without the remote process executing any code**. [`ProcessMemory`]
//! captures exactly that contract; it is `djvm`'s, whose heap is one too.
//! The implementations here cover in-process inspection of a paused VM and
//! snapshot files, and `fleet::client::FleetMemory` reads a fleet-hosted
//! replay from the client process.

use djvm::heap::{Addr, Word};
pub use djvm::ProcessMemory;
use djvm::Vm;

/// Direct reads of a (paused) VM in the same process — what a debugger gets
/// from ptrace after stopping the target. Holding `&Vm` guarantees at the
/// type level that the application cannot run (and hence cannot be
/// perturbed) while the tool inspects it.
pub struct LocalVmMemory<'a> {
    vm: &'a Vm,
}

impl<'a> LocalVmMemory<'a> {
    pub fn new(vm: &'a Vm) -> Self {
        Self { vm }
    }
}

impl ProcessMemory for LocalVmMemory<'_> {
    fn read_word(&self, addr: Addr) -> Option<Word> {
        self.vm.heap.read_word(addr)
    }
}

/// Reads from a captured heap image (core-dump style debugging).
pub struct SnapshotMemory {
    words: Vec<Word>,
}

impl SnapshotMemory {
    pub fn from_vm(vm: &Vm) -> Self {
        Self {
            words: vm.heap.mem_snapshot(),
        }
    }
}

impl ProcessMemory for SnapshotMemory {
    fn read_word(&self, addr: Addr) -> Option<Word> {
        self.words.get(addr as usize).copied()
    }
}

/// Counts reads (experiment instrumentation: reflection query cost in
/// remote-read operations).
pub struct CountingMemory<M> {
    inner: M,
    reads: std::cell::Cell<u64>,
}

impl<M: ProcessMemory> CountingMemory<M> {
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            reads: std::cell::Cell::new(0),
        }
    }

    pub fn reads(&self) -> u64 {
        self.reads.get()
    }
}

impl<M: ProcessMemory> ProcessMemory for CountingMemory<M> {
    fn read_word(&self, addr: Addr) -> Option<Word> {
        self.reads.set(self.reads.get() + 1);
        self.inner.read_word(addr)
    }
}
