//! The word-addressed guest heap.
//!
//! Everything the guest can observe lives here: scalar objects, arrays,
//! interned strings, lazily loaded class objects (statics), reflection
//! metadata — and, as in Jalapeño, the threads' **activation stacks**
//! (growable arrays flagged opaque so the GC scans them precisely through
//! frame reference maps rather than as ordinary arrays).
//!
//! Addresses are indices into a flat `Vec<u64>`; address 0 is null. This
//! flat representation is what makes **remote reflection** possible: a tool
//! process can interpret the application VM's state purely by reading words
//! at addresses (the `ptrace` analogue), without the application executing
//! any code. The `Vec` holds only a committed prefix of the address space,
//! grown as the guest's extent rises; every word past it reads as zero.
//!
//! ## Object layout
//!
//! ```text
//! scalar:      [ header ][ field 0 ][ field 1 ] ...
//! array:       [ header ][ length ][ elem 0 ] ...
//! class object:[ header ][ static 0 ] ...          (classobj flag set)
//! ```
//!
//! ## Header encoding (one word)
//!
//! ```text
//! bit 63    forwarded      (copying GC: bits 0..62 hold the new address)
//! bit 62    mark           (mark-sweep GC)
//! bit 61    array
//! bit 60    stack          (activation-stack array: opaque to scanning)
//! bit 59    ref-elements   (array of references)
//! bit 58    class object   (layout = the class's statics)
//! bits 22..57  allocation serial  (identityHashCode; stable under copying
//!              GC but sensitive to allocation order — the perturbation
//!              channel that §2.4's "symmetry in allocation" exists for)
//! bits 0..21   class id
//! ```

use crate::bytecode::{ClassId, Ty};
use crate::objref;
use crate::program::Program;

/// A raw 64-bit guest word.
pub type Word = u64;
/// A heap address (word index). 0 is null.
pub type Addr = u64;

pub const NULL: Addr = 0;
/// Low words are reserved so that small integers never alias valid objects.
pub const RESERVED: usize = 16;
/// The heap's storage is committed in multiples of this many words, so a
/// VM pays for the words its guest touches, not for its address space.
const COMMIT_GRANULE: usize = 64;

const FORWARD_BIT: u64 = 1 << 63;
const MARK_BIT: u64 = 1 << 62;
const ARRAY_BIT: u64 = 1 << 61;
const STACK_BIT: u64 = 1 << 60;
const REF_ELEM_BIT: u64 = 1 << 59;
const CLASSOBJ_BIT: u64 = 1 << 58;
const SERIAL_SHIFT: u32 = 22;
const SERIAL_MASK: u64 = (1 << 36) - 1;
const CLASS_MASK: u64 = (1 << 22) - 1;

/// Decoded object header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub class_id: ClassId,
    pub serial: u64,
    pub is_array: bool,
    pub is_stack: bool,
    pub ref_elems: bool,
    pub is_classobj: bool,
    pub marked: bool,
}

impl Header {
    pub fn encode(self) -> Word {
        let mut w =
            (self.class_id as u64 & CLASS_MASK) | ((self.serial & SERIAL_MASK) << SERIAL_SHIFT);
        if self.is_array {
            w |= ARRAY_BIT;
        }
        if self.is_stack {
            w |= STACK_BIT;
        }
        if self.ref_elems {
            w |= REF_ELEM_BIT;
        }
        if self.is_classobj {
            w |= CLASSOBJ_BIT;
        }
        if self.marked {
            w |= MARK_BIT;
        }
        w
    }

    pub fn decode(w: Word) -> Header {
        debug_assert!(w & FORWARD_BIT == 0, "decoding a forwarding pointer");
        Header {
            class_id: (w & CLASS_MASK) as ClassId,
            serial: (w >> SERIAL_SHIFT) & SERIAL_MASK,
            is_array: w & ARRAY_BIT != 0,
            is_stack: w & STACK_BIT != 0,
            ref_elems: w & REF_ELEM_BIT != 0,
            is_classobj: w & CLASSOBJ_BIT != 0,
            marked: w & MARK_BIT != 0,
        }
    }
}

/// Is the raw header word a forwarding pointer (mid-copying-GC state)?
pub fn is_forwarded(w: Word) -> bool {
    w & FORWARD_BIT != 0
}

/// Encode/decode a forwarding pointer.
pub fn forward_word(to: Addr) -> Word {
    FORWARD_BIT | to
}

pub fn forward_target(w: Word) -> Addr {
    w & !FORWARD_BIT
}

/// The slots of one object ([`objref::payload`]): `count` words from `first`,
/// each a reference or not. It borrows the program, not the heap, so a
/// collector can rewrite the slots it enumerates.
#[derive(Debug, Clone, Copy)]
pub struct Payload<'p> {
    pub first: Addr,
    pub count: usize,
    pub(crate) refs: Refs<'p>,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Refs<'p> {
    /// An array: every element is a reference, or none is.
    Uniform(bool),
    Typed(&'p [Ty]),
}

impl<'p> Payload<'p> {
    pub fn is_ref(&self, i: usize) -> bool {
        match self.refs {
            Refs::Uniform(all) => all,
            Refs::Typed(layout) => layout[i] == Ty::Ref,
        }
    }

    /// `(slot address, is_ref)` of every slot, in address order.
    pub fn slots(self) -> impl Iterator<Item = (Addr, bool)> + 'p {
        (0..self.count).map(move |i| (self.first + i as Addr, self.is_ref(i)))
    }

    /// Addresses of the reference slots, in address order.
    pub fn ref_slots(self) -> impl Iterator<Item = Addr> + 'p {
        let scanned = match self.refs {
            Refs::Uniform(false) => 0,
            _ => self.count,
        };
        self.slots()
            .take(scanned)
            .filter_map(|(slot, is_ref)| is_ref.then_some(slot))
    }
}

/// Which collector manages the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GcKind {
    /// Non-moving mark-sweep with an address-ordered first-fit free list.
    #[default]
    MarkSweep,
    /// Semispace copying collector (moves objects; identity hash remains
    /// stable because it is the allocation serial, as in type-accurate
    /// copying collectors).
    Copying,
}

/// Array element kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrKind {
    Int,
    Ref,
    /// Activation stack: raw words, scanned via frame maps only.
    Stack,
}

/// Allocation/GC counters, part of the experiment reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapStats {
    pub allocations: u64,
    pub words_allocated: u64,
    pub collections: u64,
    pub words_copied_or_swept: u64,
    /// High-water mark of live occupancy ([`Heap::words_in_use`]),
    /// sampled at [`Heap::note_peak`] call sites (GC entry and run end —
    /// occupancy only grows between collections, so that is exact).
    pub peak_words_in_use: u64,
    /// Collections that began with part of the address space still
    /// uncommitted. An observer count: no trace, fingerprint, digest or
    /// metrics document reads it.
    pub partial_commit_collections: u64,
}

/// The guest heap.
#[derive(Debug)]
pub struct Heap {
    /// The committed prefix of the address space: it covers the extent,
    /// and every word past it is zero without being stored. Index it only
    /// below the extent; [`ProcessMemory::read_word`] reads any address.
    /// Grown by [`Heap::commit`] alone.
    pub(crate) mem: Vec<Word>,
    /// The size of the address space in words.
    total: usize,
    /// Every word at or above this address is zero, so a snapshot is the
    /// prefix below it. Advanced by `alloc_block` to the end of each
    /// block it hands out and raised to the heap's end by a copying
    /// collection; only a restore lowers it.
    pub(crate) extent: usize,
    kind: GcKind,
    /// Semispace: size of each half.
    pub(crate) half: usize,
    /// Semispace: base of the active (from-) space.
    pub(crate) active_base: usize,
    /// Semispace: bump pointer.
    pub(crate) bump: usize,
    /// Mark-sweep: address-ordered free blocks (addr, len).
    pub(crate) free: Vec<(usize, usize)>,
    serial: u64,
    pub stats: HeapStats,
}

/// A copy of heap state, for checkpoint/restore (Igor/Boothe-style time
/// travel): the words below the heap's extent and the allocator's state.
#[derive(Debug, Clone)]
pub struct HeapSnapshot {
    /// `mem[..extent]`; its length is the extent at the snapshot.
    mem: Vec<Word>,
    half: usize,
    active_base: usize,
    bump: usize,
    free: Vec<(usize, usize)>,
    serial: u64,
    stats: HeapStats,
}

impl Heap {
    /// Create a heap with `words` total words of storage (the copying
    /// collector can only hand out half of it at a time).
    pub fn new(kind: GcKind, words: usize) -> Heap {
        assert!(words > RESERVED * 4, "heap too small");
        let (half, active_base, bump, free) = match kind {
            GcKind::Copying => {
                let usable = words - RESERVED;
                let half = usable / 2;
                (half, RESERVED, RESERVED, Vec::new())
            }
            GcKind::MarkSweep => (0, 0, 0, vec![(RESERVED, words - RESERVED)]),
        };
        let mut heap = Heap {
            mem: Vec::new(),
            total: words,
            extent: RESERVED,
            kind,
            half,
            active_base,
            bump,
            free,
            serial: 0,
            stats: HeapStats::default(),
        };
        heap.commit(RESERVED);
        heap
    }

    /// Back the address space below `end` with zeroed storage. The one
    /// place the storage grows: where the extent is set or rises (`new`,
    /// `alloc_block`, a copying flip) and where a restore copies a
    /// snapshot back. The committed length rounds up to a
    /// [`COMMIT_GRANULE`]; the allocation under it at least doubles,
    /// capped at the heap's size, so a guest that fills its heap pays
    /// amortised O(1) per word.
    pub(crate) fn commit(&mut self, end: usize) {
        if end <= self.mem.len() {
            return;
        }
        debug_assert!(end <= self.total, "commit past the heap's end");
        let len = end.next_multiple_of(COMMIT_GRANULE).min(self.total);
        if len > self.mem.capacity() {
            let cap = (2 * self.mem.capacity()).clamp(len, self.total);
            self.mem.reserve_exact(cap - self.mem.len());
        }
        self.mem.resize(len, 0);
    }

    /// Words of the address space backed by storage (at least the extent).
    pub fn committed_words(&self) -> usize {
        self.mem.len()
    }

    pub fn kind(&self) -> GcKind {
        self.kind
    }

    pub fn total_words(&self) -> usize {
        self.total
    }

    /// Words still allocatable without a collection.
    pub fn free_words(&self) -> usize {
        match self.kind {
            GcKind::Copying => self.active_base + self.half - self.bump,
            GcKind::MarkSweep => self.free.iter().map(|&(_, l)| l).sum(),
        }
    }

    /// Words currently occupied by objects (the allocatable region minus
    /// what is still free; excludes the reserve and, for the copying
    /// collector, the idle semispace).
    pub fn words_in_use(&self) -> usize {
        match self.kind {
            GcKind::Copying => self.bump - self.active_base,
            GcKind::MarkSweep => self.total - RESERVED - self.free_words(),
        }
    }

    /// Fold the current occupancy into the peak statistic. Called at GC
    /// entry and at end-of-run; occupancy is monotone between
    /// collections, so those samples capture the true high-water mark.
    pub fn note_peak(&mut self) {
        let used = self.words_in_use() as u64;
        if used > self.stats.peak_words_in_use {
            self.stats.peak_words_in_use = used;
        }
    }

    fn next_serial(&mut self) -> u64 {
        self.serial += 1;
        self.serial
    }

    /// Every word at or above this address is zero.
    pub fn extent(&self) -> usize {
        self.extent
    }

    /// Raw block allocation; `None` means a GC (or OOM) is needed.
    fn alloc_block(&mut self, words: usize) -> Option<Addr> {
        debug_assert!(words >= 1);
        let addr = match self.kind {
            GcKind::Copying => {
                if self.bump + words > self.active_base + self.half {
                    return None;
                }
                let addr = self.bump;
                self.bump += words;
                addr
            }
            GcKind::MarkSweep => {
                // Address-ordered first fit keeps allocation deterministic.
                let i = self.free.iter().position(|&(_, len)| len >= words)?;
                let (addr, len) = self.free[i];
                if len == words {
                    self.free.remove(i);
                } else {
                    self.free[i] = (addr + words, len - words);
                }
                addr
            }
        };
        let end = addr + words;
        if end > self.extent {
            self.extent = end;
            self.commit(end);
        }
        Some(addr as Addr)
    }

    /// Allocate a zeroed scalar object. Returns `None` if a GC is needed.
    pub fn alloc_scalar(&mut self, class_id: ClassId, nfields: usize) -> Option<Addr> {
        let words = 1 + nfields;
        let addr = self.alloc_block(words)?;
        let serial = self.next_serial();
        let h = Header {
            class_id,
            serial,
            is_array: false,
            is_stack: false,
            ref_elems: false,
            is_classobj: false,
            marked: false,
        };
        self.write_block(addr, words, h);
        Some(addr)
    }

    /// Allocate a class object (statics holder) for `class_id`.
    pub fn alloc_classobj(&mut self, class_id: ClassId, nstatics: usize) -> Option<Addr> {
        let words = 1 + nstatics;
        let addr = self.alloc_block(words)?;
        let serial = self.next_serial();
        let h = Header {
            class_id,
            serial,
            is_array: false,
            is_stack: false,
            ref_elems: false,
            is_classobj: true,
            marked: false,
        };
        self.write_block(addr, words, h);
        Some(addr)
    }

    /// Allocate a zeroed array. Returns `None` if a GC is needed.
    pub fn alloc_array(&mut self, kind: ArrKind, len: usize) -> Option<Addr> {
        let words = 2 + len;
        let addr = self.alloc_block(words)?;
        let serial = self.next_serial();
        let h = Header {
            class_id: 0,
            serial,
            is_array: true,
            is_stack: kind == ArrKind::Stack,
            ref_elems: kind == ArrKind::Ref,
            is_classobj: false,
            marked: false,
        };
        self.write_block(addr, words, h);
        self.mem[addr as usize + 1] = len as Word;
        Some(addr)
    }

    fn write_block(&mut self, addr: Addr, words: usize, h: Header) {
        let a = addr as usize;
        self.mem[a] = h.encode();
        for w in &mut self.mem[a + 1..a + words] {
            *w = 0;
        }
        self.stats.allocations += 1;
        self.stats.words_allocated += words as u64;
    }

    // ---- accessors ----

    pub fn raw_header(&self, addr: Addr) -> Word {
        self.mem[addr as usize]
    }

    pub fn set_raw_header(&mut self, addr: Addr, w: Word) {
        self.mem[addr as usize] = w;
    }

    pub fn array_len(&self, addr: Addr) -> usize {
        self.mem[addr as usize + 1] as usize
    }

    pub fn get_elem(&self, addr: Addr, i: usize) -> Word {
        self.mem[addr as usize + 2 + i]
    }

    pub fn set_elem(&mut self, addr: Addr, i: usize, v: Word) {
        self.mem[addr as usize + 2 + i] = v;
    }

    pub fn get_field(&self, addr: Addr, i: usize) -> Word {
        self.mem[addr as usize + 1 + i]
    }

    pub fn set_field(&mut self, addr: Addr, i: usize, v: Word) {
        self.mem[addr as usize + 1 + i] = v;
    }

    /// The payload ([`objref::payload`]) of an object this heap holds.
    pub fn payload<'p>(&self, addr: Addr, program: &'p Program) -> Payload<'p> {
        objref::payload(self, program, addr).expect("a payload of a word that is no object")
    }

    /// Total size in words of the object at `addr`, header included.
    pub fn object_words(&self, addr: Addr, program: &Program) -> usize {
        let p = self.payload(addr, program);
        (p.first - addr) as usize + p.count
    }

    /// Copy of the whole raw word image (snapshot-based remote
    /// reflection): the committed prefix, zero-extended to the heap's size.
    pub fn mem_snapshot(&self) -> Vec<Word> {
        let mut image = self.mem.to_vec();
        image.resize(self.total, 0);
        image
    }

    /// Capture the complete heap state: the words below the extent (the
    /// rest are zero) and the allocator's bookkeeping.
    pub fn snapshot(&self) -> HeapSnapshot {
        debug_assert!(
            self.mem[self.extent..].iter().all(|&w| w == 0),
            "a word at or above the extent {} is written",
            self.extent
        );
        HeapSnapshot {
            mem: self.mem[..self.extent].to_vec(),
            half: self.half,
            active_base: self.active_base,
            bump: self.bump,
            free: self.free.clone(),
            serial: self.serial,
            stats: self.stats,
        }
    }

    /// Restore a previously captured heap state (collector kind and size
    /// must not have changed): copy its prefix back and zero what this heap
    /// wrote above it. The committed prefix never shrinks.
    pub fn restore(&mut self, s: &HeapSnapshot) {
        let extent = s.mem.len();
        self.commit(extent);
        self.mem[..extent].copy_from_slice(&s.mem);
        if let Some(tail) = self.mem.get_mut(extent..self.extent) {
            tail.fill(0);
        }
        self.extent = extent;
        self.half = s.half;
        self.active_base = s.active_base;
        self.bump = s.bump;
        self.free.clone_from(&s.free);
        self.serial = s.serial;
        self.stats = s.stats;
    }

    /// Size in bytes of a snapshot taken now (checkpoint-cost experiments).
    pub fn snapshot_bytes(&self) -> usize {
        self.extent * 8 + self.free.len() * 16 + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objref::ProcessMemory;

    #[test]
    fn header_roundtrip() {
        let h = Header {
            class_id: 123,
            serial: 99_999,
            is_array: true,
            is_stack: false,
            ref_elems: true,
            is_classobj: false,
            marked: true,
        };
        assert_eq!(Header::decode(h.encode()), h);
    }

    #[test]
    fn forwarding_pointer_roundtrip() {
        let w = forward_word(0xABCD);
        assert!(is_forwarded(w));
        assert_eq!(forward_target(w), 0xABCD);
        assert!(!is_forwarded(Header::decode(0).encode()));
    }

    #[test]
    fn scalar_alloc_and_fields() {
        let mut h = Heap::new(GcKind::MarkSweep, 1024);
        let a = h.alloc_scalar(5, 3).unwrap();
        assert!(a as usize >= RESERVED);
        let hd = objref::header(&h, a).unwrap();
        assert_eq!(hd.class_id, 5);
        assert!(!hd.is_array);
        h.set_field(a, 1, 42);
        assert_eq!(h.get_field(a, 1), 42);
        assert_eq!(h.get_field(a, 0), 0); // zeroed
    }

    #[test]
    fn array_alloc_and_elems() {
        let mut h = Heap::new(GcKind::MarkSweep, 1024);
        let a = h.alloc_array(ArrKind::Int, 10).unwrap();
        assert_eq!(h.array_len(a), 10);
        h.set_elem(a, 9, 7);
        assert_eq!(h.get_elem(a, 9), 7);
        let r = h.alloc_array(ArrKind::Ref, 4).unwrap();
        assert!(objref::header(&h, r).unwrap().ref_elems);
        let s = h.alloc_array(ArrKind::Stack, 4).unwrap();
        assert!(objref::header(&h, s).unwrap().is_stack);
    }

    #[test]
    fn serials_are_sequential_identity_hashes() {
        let mut h = Heap::new(GcKind::MarkSweep, 1024);
        let a = h.alloc_scalar(0, 1).unwrap();
        let b = h.alloc_scalar(0, 1).unwrap();
        assert_eq!(
            objref::header(&h, a).unwrap().serial + 1,
            objref::header(&h, b).unwrap().serial
        );
    }

    #[test]
    fn marksweep_exhaustion_returns_none() {
        let mut h = Heap::new(GcKind::MarkSweep, 128);
        let mut n = 0;
        while h.alloc_scalar(0, 9).is_some() {
            n += 1;
        }
        assert!(n > 0);
        assert!(h.free_words() < 10);
    }

    #[test]
    fn copying_uses_only_half() {
        let h = Heap::new(GcKind::Copying, 1000);
        assert!(h.free_words() <= 500);
        let mut h2 = Heap::new(GcKind::Copying, 1000);
        let free_before = h2.free_words();
        h2.alloc_scalar(0, 9).unwrap();
        assert_eq!(h2.free_words(), free_before - 10);
    }

    #[test]
    fn first_fit_reuses_address_order() {
        let mut h = Heap::new(GcKind::MarkSweep, 1024);
        let a = h.alloc_scalar(0, 3).unwrap();
        let _b = h.alloc_scalar(0, 3).unwrap();
        // Simulate a sweep freeing `a`: push its block back.
        h.free.insert(0, (a as usize, 4));
        let c = h.alloc_scalar(0, 3).unwrap();
        assert_eq!(c, a, "first-fit must reuse the earliest free block");
    }

    const KINDS: [GcKind; 2] = [GcKind::MarkSweep, GcKind::Copying];

    #[test]
    fn extent_is_monotone_and_covers_every_allocated_word() {
        for kind in KINDS {
            let mut h = Heap::new(kind, 1024);
            assert_eq!(h.extent(), RESERVED);
            for i in 1..30 {
                let before = h.extent();
                // Allocate, then write the block's last word.
                let last = match i % 3 {
                    0 => {
                        let a = h.alloc_scalar(1, 2).unwrap();
                        h.set_field(a, 1, 7);
                        a + 2
                    }
                    1 => {
                        let a = h.alloc_array(ArrKind::Int, i).unwrap();
                        h.set_elem(a, i - 1, 7);
                        a + 1 + i as Addr
                    }
                    _ => {
                        let a = h.alloc_classobj(2, 1).unwrap();
                        h.set_field(a, 0, 7);
                        a + 1
                    }
                };
                assert!(h.extent() >= before, "{kind:?}: extent went down");
                assert!(
                    (last as usize) < h.extent(),
                    "{kind:?}: {last} above the extent"
                );
                assert!(h.extent() <= h.committed_words(), "{kind:?}");
                assert!(h.mem[h.extent()..].iter().all(|&w| w == 0), "{kind:?}");
                assert_eq!(h.snapshot().mem.len(), h.extent());
            }
        }
        // First-fit reuse below the extent leaves it where it was.
        let mut h = Heap::new(GcKind::MarkSweep, 1024);
        let a = h.alloc_scalar(0, 3).unwrap();
        h.alloc_scalar(0, 3).unwrap();
        h.free.insert(0, (a as usize, 4));
        let extent = h.extent();
        assert_eq!(h.alloc_scalar(0, 3), Some(a));
        assert_eq!(h.extent(), extent);
    }

    #[test]
    fn restoring_a_smaller_extent_zeroes_the_tail() {
        for kind in KINDS {
            let mut h = Heap::new(kind, 1024);
            let a = h.alloc_scalar(1, 3).unwrap();
            h.set_field(a, 2, 5);
            let snap = h.snapshot();
            let want = (h.extent(), h.mem_snapshot(), h.free_words());
            let b = h.alloc_array(ArrKind::Int, 40).unwrap();
            h.set_elem(b, 39, 9);
            h.set_field(a, 0, 6);
            assert!(h.extent() > want.0);
            h.restore(&snap);
            assert_eq!(
                (h.extent(), h.mem_snapshot(), h.free_words()),
                want,
                "{kind:?}"
            );
            // Allocation resumes where it stood.
            assert_eq!(h.alloc_array(ArrKind::Int, 40), Some(b), "{kind:?}");
        }
    }

    #[test]
    fn restoring_onto_a_heap_with_a_smaller_extent() {
        for kind in KINDS {
            let mut h = Heap::new(kind, 1024);
            let a = h.alloc_array(ArrKind::Ref, 50).unwrap();
            h.set_elem(a, 49, a);
            let snap = h.snapshot();
            let want = (h.extent(), h.mem_snapshot(), h.free_words());
            let mut fresh = Heap::new(kind, 1024);
            assert!(fresh.committed_words() < want.0, "{kind:?}");
            fresh.restore(&snap);
            assert_eq!(
                (fresh.extent(), fresh.mem_snapshot(), fresh.free_words()),
                want,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn storage_is_committed_as_the_extent_rises() {
        for kind in KINDS {
            let mut h = Heap::new(kind, 1024);
            assert_eq!(h.committed_words(), COMMIT_GRANULE, "{kind:?}");
            let a = h.alloc_array(ArrKind::Int, 100).unwrap();
            assert_eq!(h.committed_words(), 2 * COMMIT_GRANULE, "{kind:?}");
            // Past the committed prefix the space reads as zeros, then ends.
            let past = h.committed_words() as Addr;
            assert_eq!(h.read_word(a + 1), Some(100));
            assert_eq!(h.read_word(past), Some(0));
            assert_eq!(h.read_word(1023), Some(0));
            assert_eq!(h.read_word(1024), None);
            let image = h.mem_snapshot();
            assert_eq!(image.len(), 1024);
            assert_eq!(image[..past as usize], h.mem[..]);
        }
    }

    #[test]
    fn class_object_flag() {
        let mut h = Heap::new(GcKind::MarkSweep, 1024);
        let a = h.alloc_classobj(7, 2).unwrap();
        let hd = objref::header(&h, a).unwrap();
        assert!(hd.is_classobj);
        assert_eq!(hd.class_id, 7);
    }
}
