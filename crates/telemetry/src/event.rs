//! The VM's events, each named once.
//!
//! Every event site in the VM makes one call, `Vm::note(ev)`. That call
//! bumps the event's counter and folds it into the fingerprint (guest
//! identity the VM owns), then hands it to [`crate::VmTelemetry::note`],
//! which forwards it to each sink that is on. Each sink keeps the
//! variants its view needs and ignores the rest: [`crate::EventRing::note`],
//! [`crate::Histograms::note`] and [`crate::Profiler::note`] are the
//! table (DESIGN §4b spells it out).

/// One VM event with its payload. Every payload value is deterministic,
/// so an event compares equal across record and replay exactly when the
/// two executions agreed at that point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmEvent {
    /// The scheduler dispatched thread `to`; `nyp` is that thread's
    /// logical clock (yield points executed) at dispatch.
    Switch { to: u32, nyp: u64 },
    /// A wall-clock read returned `value` (the recorded value on replay).
    ClockRead { value: i64 },
    /// A native call to method id `method` is about to run.
    NativeBegin { method: u32 },
    /// The native call to `method` returned.
    NativeEnd { method: u32 },
    /// Collection number `collection` is about to run.
    GcBegin { collection: u64 },
    /// Collection number `collection` ran, copying or sweeping `words`.
    GcEnd { collection: u64, words: u64 },
    /// A thread stack grew to `new_words` words.
    StackGrowth { new_words: u64 },
    /// Method id `method` was (lazily) compiled to `words` code words.
    Compile { method: u32, words: u64 },
    /// Class id `class` was (lazily) loaded.
    ClassLoad { class: u32 },
    /// The loop headed at `loop_pc` in `method` crossed the tier-2 hotness
    /// threshold (`trip_count` taken backedges) and was compiled to its
    /// closed form, `block_width` accounted cycles per pass. The crossing
    /// happens at the same logical instant in every mode — tier-up is
    /// deterministic even though per-loop entry counts are not.
    MegaCompile {
        method: u32,
        loop_pc: u32,
        trip_count: u64,
        block_width: u64,
    },
    /// Thread `tid` was created running `method` (its root frame).
    ThreadStart { tid: u32, method: u32 },
    /// The current thread terminated; all of its open frames close.
    ThreadEnd,
    /// A frame for `method` was pushed on the current thread.
    Enter { method: u32 },
    /// The current thread's frame for `method` returned (not its root).
    Exit { method: u32 },
    /// The machine halted: a `halt` op, or every thread terminated.
    Halt { all_terminated: bool },
    /// No thread can run again; `clock_stalled` when sleepers wait on a
    /// recorded clock that never reaches their deadline.
    Deadlock { clock_stalled: bool },
    /// A guest error of kind `kind` (the VM's `ErrKind` as an integer)
    /// at `pc`.
    Error { kind: u32, pc: u32 },
    /// An allocation took `words` heap words.
    Alloc { words: u64 },
    /// A timer interrupt fired; the next one is `interval` cycles away.
    TimerTick { interval: u64 },
}

impl VmEvent {
    /// Stable lowercase name, used in the ring's JSON and in forensic
    /// reports (the ring holds the end of a native call or a collection,
    /// so those carry the event's plain name).
    pub fn name(&self) -> &'static str {
        match self {
            VmEvent::Switch { .. } => "switch",
            VmEvent::ClockRead { .. } => "clock_read",
            VmEvent::NativeBegin { .. } => "native_begin",
            VmEvent::NativeEnd { .. } => "native_call",
            VmEvent::GcBegin { .. } => "gc_begin",
            VmEvent::GcEnd { .. } => "gc",
            VmEvent::StackGrowth { .. } => "stack_growth",
            VmEvent::Compile { .. } => "compile",
            VmEvent::ClassLoad { .. } => "class_load",
            VmEvent::MegaCompile { .. } => "compile.mega",
            VmEvent::ThreadStart { .. } => "thread_start",
            VmEvent::ThreadEnd => "thread_end",
            VmEvent::Enter { .. } => "enter",
            VmEvent::Exit { .. } => "exit",
            VmEvent::Halt { .. } => "halt",
            VmEvent::Deadlock { .. } => "deadlock",
            VmEvent::Error { .. } => "error",
            VmEvent::Alloc { .. } => "alloc",
            VmEvent::TimerTick { .. } => "timer_tick",
        }
    }
}
