//! # reflect — remote reflection (paper §3)
//!
//! A perturbation-free way for an out-of-process tool to run the
//! application VM's *own* reflection methods, with its own reference reads
//! (`djvm::objref`), against the application VM's *address space*:
//!
//! * [`memory`] — the `ptrace` contract: read a word at an address without
//!   the remote VM executing anything (in-process, snapshot, or — from a
//!   client process, over the fleet frame — `fleet::client::FleetMemory`);
//! * [`remote`] — the tool-side interpreter with remote objects and mapped
//!   methods (§3.4);
//! * [`mirror`] — cloned typed views (strings, arrays, field maps) for
//!   display, per §3.3.
//!
//! The flagship demonstration is the paper's Figure-3 query,
//! [`remote::RemoteReflector::line_number_of`]: `Debugger.lineNumberOf`
//! invokes the mapped `VM_Dictionary.getMethods()`, indexes the remote
//! `VM_Method[]`, and virtually dispatches `getLineNumberAt` — all in the
//! tool, all against remote data, with the application VM never running a
//! single instruction.

pub mod memory;
pub mod mirror;
pub mod remote;

pub use memory::{CountingMemory, LocalVmMemory, ProcessMemory, SnapshotMemory};
pub use remote::RemoteReflector;

use djvm::heap::{Addr, Word, NULL};
use djvm::objref::Fault;
use djvm::{ErrKind, MethodId, Ty};

/// A tool-side value: a primitive, or a proxy for an object in the remote
/// JVM. "To implement the remote object, it was sufficient to record the
/// type of the object and its real address" (§3.3) — we defer the type to
/// the remote header word, read on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TVal {
    Int(i64),
    Null,
    Remote(Addr),
}

impl TVal {
    /// The word this value is.
    pub(crate) fn raw(self) -> Word {
        match self {
            TVal::Int(v) => v as Word,
            TVal::Null => NULL,
            TVal::Remote(a) => a,
        }
    }

    /// The value a word stands for in a `ty` slot.
    pub(crate) fn lift(w: Word, ty: Ty) -> TVal {
        match ty {
            Ty::Int => TVal::Int(w as i64),
            Ty::Ref if w == NULL => TVal::Null,
            Ty::Ref => TVal::Remote(w),
        }
    }
}

/// Reflection-interpretation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReflectError {
    /// Bytecode that would perturb the remote JVM (mutation, allocation,
    /// threading, I/O).
    Unsupported(&'static str),
    /// A remote read fell outside the application's address space.
    BadAddress(Addr),
    /// The guest error the application VM raises on the same words.
    Fault(ErrKind),
    /// `invoke` of an undefined method, with `got` arguments for `want`, or
    /// with an int for a reference (or the reverse) at this index.
    NoSuchMethod(MethodId),
    Arity {
        want: u16,
        got: usize,
    },
    ArgType(usize),
    StackUnderflow,
    CallDepthExceeded,
}

impl From<Fault> for ReflectError {
    fn from(f: Fault) -> Self {
        match f {
            Fault::Unreadable(addr) => ReflectError::BadAddress(addr),
            f => ReflectError::Fault(f.kind()),
        }
    }
}
