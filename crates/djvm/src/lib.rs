//! # djvm — a Jalapeño-like managed-runtime substrate
//!
//! The execution substrate for the DejaVu reproduction (*"A
//! Perturbation-Free Replay Platform for Cross-Optimized Multithreaded
//! Applications"*, IPDPS 2001): a uniprocessor bytecode VM whose design
//! mirrors the Jalapeño properties the paper's replay strategy depends on.
//!
//! * **Quasi-preemptive green threads** — thread switches only at *yield
//!   points* (method prologues and taken loop backedges), preempted at the
//!   first yield point after a jittered timer interrupt ([`clock`]).
//! * **A thread package that is ordinary guest state** ([`sched`]) — FIFO
//!   ready queue, monitor entry/wait queues, sleeper list — so replaying
//!   the VM replays the scheduler, making synchronization-induced switches
//!   deterministic and log-free.
//! * **Type-accurate GC** ([`gc`]) over a word-addressed heap ([`heap`]),
//!   with per-pc reference maps computed by the baseline compiler
//!   ([`compile`]); both mark-sweep and copying collectors.
//! * **Heap-resident growable activation stacks** ([`thread`]) — stack
//!   overflow allocates, which is why instrumentation must be symmetric.
//! * **Observable allocation order** — `identityHashCode` is the
//!   allocation serial, so any extra allocation perturbs the guest.
//! * **An instrumentation seam** ([`hook`]) invoked at yield points, clock
//!   reads and native calls — where DejaVu (crate `dejavu`) plugs in.
//! * **Execution fingerprinting** ([`fingerprint`]) implementing the
//!   paper's definition of identical behaviour, used to *verify* replay.
//!
//! Programs are built with the assembler DSL in [`builder`] (see the
//! `workloads` crate for full applications).

pub mod builder;
pub mod bytecode;
pub mod clock;
pub mod compile;
pub mod dis;
pub mod fingerprint;
pub mod gc;
pub mod heap;
pub mod hook;
pub mod interp;
pub mod native;
pub mod objref;
pub mod program;
pub mod rng;
pub mod sched;
pub mod thread;
pub mod vm;

pub use builder::ProgramBuilder;
pub use bytecode::{ClassId, MethodId, NativeId, Op, StrId, Ty};
pub use clock::{CycleClock, FixedTimer, JitteredClock, JitteredTimer, TimerSource, WallClock};
pub use compile::{AluFn, ClosedLoop, CmpFn, QOp};
pub use fingerprint::FingerprintMode;
pub use heap::{Addr, ArrKind, GcKind, Word};
pub use hook::{ExecHook, Passthrough, YieldAction};
pub use native::{CallbackReq, NativeCtx, NativeOutcome, NativeRegistry};
pub use objref::ProcessMemory;
pub use program::Program;
pub use rng::SplitMix64;
pub use sched::SchedPressure;
pub use thread::{ThreadStatus, Tid};
pub use vm::{ErrKind, MegaStats, Vm, VmConfig, VmError, VmStatus};
