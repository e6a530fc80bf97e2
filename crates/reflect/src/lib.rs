//! # reflect — remote reflection (paper §3)
//!
//! A perturbation-free way for an out-of-process tool to run the
//! application VM's *own* reflection methods against the application VM's
//! *address space*:
//!
//! * [`memory`] — the `ptrace` contract: read a word at an address without
//!   the remote VM executing anything (in-process, snapshot, or — from a
//!   client process, over the fleet frame — `fleet::client::FleetMemory`);
//! * [`remote`] — the tool-side interpreter with remote objects and mapped
//!   methods (the 23-bytecode extension of §3.4);
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
pub use remote::{ReflectError, RemoteReflector, TVal};
