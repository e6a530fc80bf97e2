//! One definition of each reference read (paper §3.4): what the bytecodes
//! that touch a reference find, in every dispatch tier and in the remote
//! reflector, which changes only how a word is fetched — the guest reads
//! its [`Heap`], the tool the application's space. Each function is generic
//! over that [`ProcessMemory`], so the guest pays no dynamic dispatch.
//!
//! A word handed in need not be an object (a client may name any address):
//! such a word is a typed [`Fault`], and no program table is indexed with
//! an unchecked class id. A well-formed heap only meets the guest's own.

use crate::bytecode::{ClassId, MethodId, Ty};
use crate::heap::{is_forwarded, Addr, Header, Heap, Payload, Refs, Word, NULL};
use crate::program::Program;
use crate::vm::ErrKind;

/// Read-only access to an address space: the `ptrace` contract of §3.2,
/// a word read at an address without the owner executing anything.
pub trait ProcessMemory {
    /// Read one word; `None` if the address is outside the space.
    fn read_word(&self, addr: Addr) -> Option<Word>;
}

impl ProcessMemory for Heap {
    #[inline]
    fn read_word(&self, addr: Addr) -> Option<Word> {
        match self.mem.get(addr as usize) {
            Some(&w) => Some(w),
            // Past the committed prefix every word of the space is zero.
            None => (addr < self.total_words() as Addr).then_some(0),
        }
    }
}

/// Why a reference read has no answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    Null,
    /// The word source has no word at this address.
    Unreadable(Addr),
    /// The header word here is a copying collector's forwarding pointer.
    Forwarded(Addr),
    /// The header names a class the program does not define.
    UndefinedClass(ClassId),
    /// The object is not what the op needs: the guest's own error.
    Guest(ErrKind),
}

impl Fault {
    /// The error the application VM raises: a word that is no object at
    /// all is a type confusion.
    pub fn kind(self) -> ErrKind {
        match self {
            Fault::Null => ErrKind::NullDeref,
            Fault::Guest(kind) => kind,
            _ => ErrKind::TypeConfusion,
        }
    }
}

const TYPE_CONFUSION: Fault = Fault::Guest(ErrKind::TypeConfusion);

/// The word at `addr`.
pub fn read<M: ProcessMemory + ?Sized>(mem: &M, addr: Addr) -> Result<Word, Fault> {
    mem.read_word(addr).ok_or(Fault::Unreadable(addr))
}

/// The header of the object `addr` references.
pub fn header<M: ProcessMemory + ?Sized>(mem: &M, addr: Addr) -> Result<Header, Fault> {
    if addr == NULL {
        return Err(Fault::Null);
    }
    let w = read(mem, addr)?;
    if is_forwarded(w) {
        return Err(Fault::Forwarded(addr));
    }
    Ok(Header::decode(w))
}

/// [`header`], and a scalar's or class object's class is one `program`
/// defines: the precondition of every program table indexed by it.
pub fn object<M: ProcessMemory + ?Sized>(
    mem: &M,
    program: &Program,
    addr: Addr,
) -> Result<Header, Fault> {
    let h = header(mem, addr)?;
    if !h.is_array && h.class_id as usize >= program.classes.len() {
        return Err(Fault::UndefinedClass(h.class_id));
    }
    Ok(h)
}

/// The payload of the object at `addr`: the one place that knows an array
/// keeps its length word ahead of uniformly typed elements and a scalar or
/// class object lays its slots out by [`Program::layout_of`]. An activation
/// stack is an array of non-references here; its references are found
/// through its frames ([`crate::vm::frame_slots`]).
pub fn payload<'p, M: ProcessMemory + ?Sized>(
    mem: &M,
    program: &'p Program,
    addr: Addr,
) -> Result<Payload<'p>, Fault> {
    let h = object(mem, program, addr)?;
    if h.is_array {
        return elements(mem, addr, &h);
    }
    Ok(slots(program, addr, &h))
}

fn slots<'p>(program: &'p Program, addr: Addr, h: &Header) -> Payload<'p> {
    let layout = program.layout_of(h);
    Payload {
        first: addr + 1,
        count: layout.len(),
        refs: Refs::Typed(layout),
    }
}

fn elements<M: ProcessMemory + ?Sized>(
    mem: &M,
    arr: Addr,
    h: &Header,
) -> Result<Payload<'static>, Fault> {
    Ok(Payload {
        first: arr + 2,
        count: read(mem, arr + 1)? as usize,
        refs: Refs::Uniform(h.ref_elems),
    })
}

/// The array `arr` references (activation stacks included) and its
/// elements.
pub fn array<M: ProcessMemory + ?Sized>(
    mem: &M,
    arr: Addr,
) -> Result<(Header, Payload<'static>), Fault> {
    let h = header(mem, arr)?;
    if !h.is_array {
        return Err(TYPE_CONFUSION);
    }
    Ok((h, elements(mem, arr, &h)?))
}

/// The slot `GetField`/`PutField { idx, ty }` reads or writes: `obj` is a
/// scalar instance whose layout has a `ty` at `idx`.
pub fn field_slot<M: ProcessMemory + ?Sized>(
    mem: &M,
    program: &Program,
    obj: Addr,
    idx: u16,
    ty: Ty,
) -> Result<Addr, Fault> {
    let h = object(mem, program, obj)?;
    if h.is_array || h.is_classobj || program.layout_of(&h).get(idx as usize) != Some(&ty) {
        return Err(TYPE_CONFUSION);
    }
    Ok(slots(program, obj, &h).first + idx as Addr)
}

/// The slot `ALoad`/`AStore(ty)` reads or writes: `arr` is a `ty` array,
/// not an activation stack, with an element `i`.
pub fn elem_slot<M: ProcessMemory + ?Sized>(
    mem: &M,
    arr: Addr,
    i: i64,
    ty: Ty,
) -> Result<Addr, Fault> {
    let (h, elems) = array(mem, arr)?;
    if h.is_stack || h.ref_elems != (ty == Ty::Ref) {
        return Err(TYPE_CONFUSION);
    }
    if i < 0 || i as usize >= elems.count {
        return Err(Fault::Guest(ErrKind::IndexOutOfBounds));
    }
    Ok(elems.first + i as Addr)
}

/// `ArrayLen`.
pub fn array_len<M: ProcessMemory + ?Sized>(mem: &M, arr: Addr) -> Result<Word, Fault> {
    Ok(array(mem, arr)?.1.count as Word)
}

/// `IdentityHash`: the allocation serial, of any object.
pub fn identity_hash<M: ProcessMemory + ?Sized>(mem: &M, obj: Addr) -> Result<Word, Fault> {
    Ok(header(mem, obj)?.serial)
}

/// The receiver check behind every virtual dispatch (`CallVirtual`, the
/// quickened `CallMono`, tier 2's inlined call guard) and `instanceof`: a
/// scalar instance of `class` or a subclass. Returns its class.
pub fn receiver<M: ProcessMemory + ?Sized>(
    mem: &M,
    program: &Program,
    recv: Addr,
    class: ClassId,
) -> Result<ClassId, Fault> {
    let h = object(mem, program, recv)?;
    if h.is_array || h.is_classobj || !program.is_subclass(h.class_id, class) {
        return Err(Fault::Guest(ErrKind::BadVirtualDispatch));
    }
    Ok(h.class_id)
}

/// `InstanceOf(class)`: whether [`receiver`] accepts `obj`. Null and every
/// other object answer `false`; a word that is no object faults.
pub fn instance_of<M: ProcessMemory + ?Sized>(
    mem: &M,
    program: &Program,
    obj: Addr,
    class: ClassId,
) -> Result<bool, Fault> {
    match receiver(mem, program, obj, class) {
        Ok(_) => Ok(true),
        Err(Fault::Null | Fault::Guest(_)) => Ok(false),
        Err(f) => Err(f),
    }
}

/// The method `CallVirtual { class, slot }` runs: slot `slot` of the
/// receiver's class, after the [`receiver`] check. `recv(nargs)` reads the
/// receiver, the first of the declared callee's `nargs` arguments.
pub fn virtual_target<M: ProcessMemory + ?Sized>(
    mem: &M,
    program: &Program,
    class: ClassId,
    slot: u16,
    recv: impl FnOnce(u16) -> Addr,
) -> Result<MethodId, Fault> {
    let vtable = |c: ClassId| program.class(c).vtable[slot as usize];
    let nargs = program.method(vtable(class)).nargs;
    Ok(vtable(receiver(mem, program, recv(nargs), class)?))
}
