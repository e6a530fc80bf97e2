//! The virtual machine: heap + threads + scheduler + clocks + boot image.
//!
//! A `Vm` is a *pure function* of its program, configuration, and the three
//! injected non-determinism sources (timer, wall clock, natives). Every
//! other mechanism — allocation, lazy class loading, lazy method
//! compilation, GC, stack growth, monitor queues — is deterministic guest
//! state. That is the property DejaVu's replay strategy rests on: replay
//! the non-deterministic inputs, and the whole runtime (including the
//! thread package) replays itself (paper §2.2).

use crate::bytecode::{ClassId, MethodId, NativeId};
use crate::clock::{TimerSource, WallClock};
use crate::compile::ClosedLoop;
use crate::fingerprint::{Digest, Fingerprint, FingerprintMode};
use crate::heap::{Addr, ArrKind, GcKind, Heap, Word, NULL};
use crate::native::{NativeCtx, NativeOutcome, NativeRegistry};
use crate::program::Program;
use crate::sched::Scheduler;
use crate::thread::{SavedPc, ThreadState, ThreadStatus, Tid};
use std::collections::BTreeSet;
use std::sync::Arc;
use telemetry::VmEvent;

/// Fatal guest error kinds. All are deterministic: the same program with
/// the same replayed inputs fails identically (and the fingerprint captures
/// it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrKind {
    NullDeref,
    OutOfMemory,
    DivideByZero,
    IndexOutOfBounds,
    TypeConfusion,
    IllegalMonitorState,
    NotAThread,
    BadVirtualDispatch,
    UnreachableCode,
    EntryArity,
}

/// A fatal guest error with its location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmError {
    pub kind: ErrKind,
    pub tid: Tid,
    pub method: MethodId,
    pub pc: u32,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} in thread {} at method {} pc {}",
            self.kind, self.tid, self.method, self.pc
        )
    }
}

impl std::error::Error for VmError {}

/// Overall machine status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmStatus {
    Running,
    /// `Halt` executed or every thread terminated.
    Halted,
    /// No thread can ever run again (and none is sleeping).
    Deadlocked,
    Error(VmError),
}

impl VmStatus {
    pub fn is_running(self) -> bool {
        self == VmStatus::Running
    }
}

/// VM construction parameters.
#[derive(Debug, Clone)]
pub struct VmConfig {
    pub heap_words: usize,
    pub gc: GcKind,
    /// Initial activation-stack array length (words).
    pub initial_stack: usize,
    pub fingerprint: FingerprintMode,
    /// Dispatch through the quickened `QOp` stream (superinstructions,
    /// devirtualized calls). Purely an interpreter-speed knob: the
    /// fingerprint, yield-point deltas, logical clock and trace are
    /// bit-identical either way (the cycle-accounting invariant, DESIGN §5).
    /// Defaults to on.
    pub quicken: bool,
    /// Tier-2 execution: retire the passes of hot counting loops in closed
    /// form (DESIGN §10). Like `quicken`, purely a speed knob — the
    /// cycle-accounting invariant makes fingerprints, traces and digests
    /// bit-identical with it on or off, and switching it off is how that
    /// is shown. Requires `quicken` (tier 2 reads its loops off the
    /// quickened stream). Defaults to on.
    pub mega: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        Self {
            heap_words: 1 << 20,
            gc: GcKind::MarkSweep,
            initial_stack: 256,
            fingerprint: FingerprintMode::Full,
            quicken: true,
            mega: true,
        }
    }
}

/// Addresses of boot-image reflection metadata — what a remote-reflection
/// tool knows a priori (the paper's "address is provided to the interpreter
/// through the process of building the Jalapeño boot image", §3.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct BootImage {
    /// Ref array of `VM_Method` objects, indexed by method id.
    pub method_table: Addr,
}

/// Counters reported by the experiment harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct VmCounters {
    pub steps: u64,
    pub yield_points: u64,
    pub thread_switches: u64,
    pub preemptive_switches: u64,
    pub class_loads: u64,
    pub methods_compiled: u64,
    pub stack_growths: u64,
    pub io_writes: u64,
    pub io_reads: u64,
    pub clock_reads: u64,
    pub native_calls: u64,
}

/// Tier-2 runtime counters. Pure observer state: how often tier 2 ran is
/// *mode-dependent* (record and replay legitimately batch different
/// spans, because their quiet-yield horizons differ), so these counters are
/// excluded from [`VmCounters`], the fingerprint, [`Vm::state_digest`] and
/// [`VmSnapshot`] — only the tier-up count is deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MegaStats {
    /// Loops compiled to their closed form (deterministic across modes).
    pub tier_ups: u64,
    /// Entries past the gate at a closed loop's head.
    pub entries: u64,
    /// Passes retired in closed form, each with its closing yield point;
    /// tier 1 runs every other pass.
    pub closed_iters: u64,
    /// Exits on a pause bound: the step budget has no room for a whole
    /// pass, or the logical-time bound is reached. Ticks and switches no
    /// longer close the gate (tier 2 retires the pass they land in).
    pub gate_misses: u64,
}

impl MegaStats {
    /// Deterministic JSON (keys pre-sorted).
    pub fn to_json(&self) -> codec::Json {
        use codec::Json;
        Json::obj(vec![
            ("closed_iters", Json::UInt(self.closed_iters)),
            ("entries", Json::UInt(self.entries)),
            ("gate_misses", Json::UInt(self.gate_misses)),
            ("tier_ups", Json::UInt(self.tier_ups)),
        ])
    }
}

/// Per-method tier-2 state: a hotness counter and a compiled-loop slot per
/// qop index (only loop heads ever become non-zero / non-`None`).
struct MethodMega {
    hot: Vec<u32>,
    loops: Vec<Option<Arc<ClosedLoop>>>,
}

/// Tier-2 state hanging off the [`Vm`]. Not guest-visible: the compiled
/// loops are a pure cache over the (immutable) quickened streams, and the
/// stats are observer counters.
pub struct MegaState {
    /// Master switch (`VmConfig::mega && VmConfig::quicken`).
    pub enabled: bool,
    pub stats: MegaStats,
    methods: Vec<Option<Box<MethodMega>>>,
}

impl MegaState {
    fn new(nmethods: usize, enabled: bool) -> Self {
        Self {
            enabled,
            stats: MegaStats::default(),
            methods: (0..nmethods).map(|_| None).collect(),
        }
    }
}

/// Where a new thread's arguments come from.
pub(crate) enum ArgSource {
    /// No arguments (boot thread).
    None,
    /// Top `n` words of the *current* thread's operand stack (popped after
    /// the new thread's allocations succeed, so a GC can still see them).
    CallerStack(u16),
}

/// The virtual machine.
pub struct Vm {
    pub program: Arc<Program>,
    pub heap: Heap,
    pub threads: Vec<ThreadState>,
    pub sched: Scheduler,
    pub natives: NativeRegistry,
    pub timer: Box<dyn TimerSource>,
    pub wall: Box<dyn WallClock>,

    /// Executed instruction count ("cycles"); drives the timer and clock.
    pub cycles: u64,
    /// Countdown to the next timer interrupt.
    pub cycles_to_tick: u64,
    /// `preemptiveHardwareBit` (Fig. 2): set by the timer interrupt,
    /// consumed at the next counted yield point.
    pub preempt_bit: bool,
    /// A switch requested while instrumentation code was running; performed
    /// when the outermost instrumentation frame returns.
    pub pending_switch: bool,
    /// Nesting depth of instrumentation helper frames (liveClock is
    /// conceptually paused while > 0).
    pub instr_depth: u32,

    pub status: VmStatus,
    pub output: String,
    pub fingerprint: Fingerprint,
    pub counters: VmCounters,
    /// Observer-only telemetry sink (event ring + histograms). Lives
    /// outside everything guest-visible: not in the heap, not hashed by
    /// the fingerprint or [`Vm::state_digest`], not captured by
    /// [`VmSnapshot`] — so enabling it cannot perturb the execution
    /// (the §2.4 discipline, applied to observability).
    pub telem: telemetry::VmTelemetry,
    /// Tier-2 state (hotness counters, compiled closed loops,
    /// observer stats). Like `telem`, deliberately outside guest state.
    pub mega: MegaState,
    pub config: VmConfig,
    pub boot_image: BootImage,

    /// Lazily allocated class objects (statics), indexed by class id.
    pub class_objects: Vec<Option<Addr>>,
    /// Lazily allocated "compiled code" objects, indexed by method id.
    pub code_objects: Vec<Option<Addr>>,
    /// Interned String objects (boot image), indexed by string id.
    pub string_objects: Vec<Addr>,
    /// Lazily allocated I/O buffers (the write and read paths that the
    /// symmetric warm-up of §2.4 touches at init). The read path allocates
    /// *two* objects (buffer + decode scratch), the write path one — so
    /// record-mode (writes) and replay-mode (reads) I/O initialization have
    /// observably different allocation footprints unless warmed up
    /// symmetrically, exactly the hazard of "Symmetry in Loading and
    /// Compilation" (§2.4).
    pub io_write_buf: Option<Addr>,
    pub io_read_buf: Option<Addr>,
    pub io_read_scratch: Option<Addr>,

    /// Registered root slots (instrumentation buffers etc.); updated by the
    /// copying collector.
    pub extra_roots: Vec<Addr>,
    /// Transient roots protecting multi-allocation sequences.
    pub(crate) temp_roots: Vec<Addr>,
}

/// Handle to a registered root slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootHandle(pub usize);

impl Vm {
    /// Boot a VM: build the boot image (strings, reflection metadata) and
    /// the main thread running the program's entry method.
    pub fn boot(
        program: Arc<Program>,
        config: VmConfig,
        timer: Box<dyn TimerSource>,
        wall: Box<dyn WallClock>,
    ) -> Result<Vm, VmError> {
        let heap = Heap::new(config.gc, config.heap_words);
        let nclasses = program.classes.len();
        let nmethods = program.methods.len();
        let fingerprint = Fingerprint::new(config.fingerprint);
        let mega = MegaState::new(nmethods, config.mega && config.quicken);
        let mut vm = Vm {
            program,
            heap,
            threads: Vec::new(),
            sched: Scheduler::new(),
            natives: NativeRegistry::new(),
            timer,
            wall,
            cycles: 0,
            cycles_to_tick: 0,
            preempt_bit: false,
            pending_switch: false,
            instr_depth: 0,
            status: VmStatus::Running,
            output: String::new(),
            fingerprint,
            counters: VmCounters::default(),
            telem: telemetry::VmTelemetry::default(),
            mega,
            config,
            boot_image: BootImage::default(),
            class_objects: vec![None; nclasses],
            code_objects: vec![None; nmethods],
            string_objects: Vec::new(),
            io_write_buf: None,
            io_read_buf: None,
            io_read_scratch: None,
            extra_roots: Vec::new(),
            temp_roots: Vec::new(),
        };
        vm.cycles_to_tick = vm.timer.next_interval();
        vm.build_boot_image()?;
        let entry = vm.program.entry;
        if vm.program.method(entry).nargs != 0 {
            return Err(VmError {
                kind: ErrKind::EntryArity,
                tid: 0,
                method: entry,
                pc: 0,
            });
        }
        let tid = vm.create_thread(entry, ArgSource::None, "main")?;
        debug_assert_eq!(tid, 0);
        // Thread 0 starts running (it is not queued).
        let pos = vm.sched.ready.iter().position(|&t| t == tid).unwrap();
        vm.sched.ready.remove(pos);
        vm.threads[0].status = ThreadStatus::Running;
        vm.sched.current = 0;
        Ok(vm)
    }

    /// Turn on the observer-only event ring and histograms (an armed
    /// profiler stays armed). Safe at any point; neutrality is guaranteed
    /// because nothing in the sink is guest-visible.
    pub fn enable_telemetry(&mut self) {
        self.telem.enable();
    }

    /// Arm the replay-time profiler (see `telemetry::profile`). Safe at
    /// any point: the profiler seeds itself from the live frame chains so
    /// spans opened before arming still close correctly, and like the
    /// rest of the sink it is pure observer state (never guest-visible,
    /// never fingerprinted, never snapshotted into guest state).
    pub fn enable_profiler(&mut self) {
        let mut p = telemetry::Profiler::new(crate::compile::QOP_KIND_COUNT);
        for t in &self.threads {
            p.thread_name(t.tid, &t.name);
            if t.status == ThreadStatus::Terminated || t.fp == 0 {
                continue;
            }
            // Walk the saved-fp chain to recover the open frames
            // (innermost first), then enter them outermost-first so the
            // profiler's span stack mirrors the activation stack.
            let mut chain = Vec::new();
            let mut fp = t.fp;
            loop {
                chain.push(self.heap.mem[fp as usize + 1] as MethodId);
                let sfp = self.heap.mem[fp as usize];
                if sfp == 0 {
                    break;
                }
                fp = sfp;
            }
            for &m in chain.iter().rev() {
                p.note(self.cycles, t.tid, VmEvent::Enter { method: m });
            }
        }
        let to = self.sched.current;
        let nyp = self.threads[to as usize].yield_points;
        p.note(self.cycles, to, VmEvent::Switch { to, nyp });
        self.telem.profile = Some(Box::new(p));
    }

    /// Report one VM event: the one call at every event site. It bumps
    /// the event's counter and folds it into the fingerprint (the tags
    /// below are frozen: recorded fingerprints are compared for
    /// equality), then hands it to the observer sinks, which keep the
    /// variants their views need (`telemetry::event`). Inlined, so a site
    /// keeps only its own arm and, with every sink off, one branch per
    /// sink its event could reach.
    #[inline(always)]
    pub(crate) fn note(&mut self, ev: VmEvent) {
        let tid = self.sched.current;
        match ev {
            VmEvent::Switch { to, nyp } => {
                self.counters.thread_switches += 1;
                self.fingerprint.thread_switch(to, nyp);
            }
            VmEvent::ClockRead { .. } => self.counters.clock_reads += 1,
            VmEvent::NativeEnd { .. } => self.counters.native_calls += 1,
            VmEvent::GcEnd { collection, .. } => self.fingerprint.event(0x6C, collection, 0),
            VmEvent::StackGrowth { new_words } => {
                self.counters.stack_growths += 1;
                self.fingerprint.event(0x57AC, new_words, 0);
            }
            VmEvent::Compile { method, .. } => {
                self.counters.methods_compiled += 1;
                self.fingerprint.event(0xC0DE, method as u64, 0);
            }
            VmEvent::ClassLoad { class } => {
                self.counters.class_loads += 1;
                self.fingerprint.event(0xC1A55, class as u64, 0);
            }
            VmEvent::MegaCompile { .. } => self.mega.stats.tier_ups += 1,
            VmEvent::ThreadStart { tid, method } => {
                self.fingerprint.event(0x59A3, tid as u64, method as u64);
                if let Some(p) = self.telem.profile.as_deref_mut() {
                    p.thread_name(tid, &self.threads[tid as usize].name);
                }
            }
            VmEvent::ThreadEnd => self.fingerprint.event(0x7E43, tid as u64, 0),
            VmEvent::Halt { all_terminated } => {
                self.fingerprint.event(0x4A17, all_terminated as u64, 0)
            }
            VmEvent::Deadlock { clock_stalled } => {
                self.fingerprint.event(0xDEAD, clock_stalled as u64, 0)
            }
            VmEvent::Error { kind, pc } => self.fingerprint.event(0xE44, kind as u64, pc as u64),
            _ => {}
        }
        self.telem.note(tid, self.cycles, ev);
    }

    fn err(&self, kind: ErrKind) -> VmError {
        let t = &self.threads[self.sched.current as usize];
        VmError {
            kind,
            tid: t.tid,
            method: t.method,
            pc: t.pc,
        }
    }

    pub(crate) fn fail(&mut self, kind: ErrKind) -> VmError {
        let e = self.err(kind);
        self.status = VmStatus::Error(e);
        self.note(VmEvent::Error {
            kind: kind as u32,
            pc: e.pc,
        });
        e
    }

    // ------------------------------------------------------------------
    // Tier 2: closed loops (hotness, compilation, lookup)
    // ------------------------------------------------------------------

    /// Count one taken backedge to `head` in `method`; at exactly
    /// [`crate::compile::MEGA_HOT_THRESHOLD`] takes, try to compile the
    /// loop to its closed form. Pre-tier-up execution is bit-identical in
    /// every mode, so the threshold crossing — and the `compile.mega`
    /// telemetry event it emits — lands at the same logical instant
    /// everywhere, even though post-tier-up *entry* counts are
    /// mode-dependent. A loop whose compile fails stays saturated at the
    /// threshold and is never retried.
    #[inline]
    pub(crate) fn mega_note_backedge(&mut self, method: MethodId, head: u32) {
        if !self.mega.enabled {
            return;
        }
        self.mega_note_backedge_slow(method, head);
    }

    fn mega_note_backedge_slow(&mut self, method: MethodId, head: u32) {
        let nq = self.program.compiled(method).qops.len();
        let mm = self.mega.methods[method as usize].get_or_insert_with(|| {
            Box::new(MethodMega {
                hot: vec![0; nq],
                loops: vec![None; nq],
            })
        });
        let h = &mut mm.hot[head as usize];
        if *h >= crate::compile::MEGA_HOT_THRESHOLD {
            return; // saturated: compiled, or gave up on this loop
        }
        *h += 1;
        if *h < crate::compile::MEGA_HOT_THRESHOLD {
            return;
        }
        let trip = *h as u64;
        if let Some(cl) = crate::compile::compile_loop(&self.program, method, head) {
            self.note(VmEvent::MegaCompile {
                method,
                loop_pc: head,
                trip_count: trip,
                block_width: cl.width,
            });
            let mm = self.mega.methods[method as usize].as_mut().unwrap();
            mm.loops[head as usize] = Some(Arc::new(cl));
        }
    }

    /// The closed loop headed at (`method`, `pc`), if one was compiled.
    #[inline]
    pub(crate) fn closed_loop(&self, method: MethodId, pc: u32) -> Option<Arc<ClosedLoop>> {
        let mm = self.mega.methods[method as usize].as_deref()?;
        mm.loops.get(pc as usize)?.clone()
    }

    // ------------------------------------------------------------------
    // Allocation (with GC retry)
    // ------------------------------------------------------------------

    /// Allocate through `alloc`, collecting and retrying once when the
    /// heap is full, and report the words taken.
    fn alloc_with(&mut self, alloc: impl Fn(&mut Heap) -> Option<Addr>) -> Result<Addr, VmError> {
        let before = self.heap.stats.words_allocated;
        let a = if let Some(a) = alloc(&mut self.heap) {
            Ok(a)
        } else {
            crate::gc::collect(self);
            alloc(&mut self.heap).ok_or_else(|| self.err(ErrKind::OutOfMemory))
        };
        let words = self.heap.stats.words_allocated - before;
        self.note(VmEvent::Alloc { words });
        a
    }

    pub(crate) fn alloc_scalar(&mut self, class: ClassId, nfields: usize) -> Result<Addr, VmError> {
        self.alloc_with(|heap| heap.alloc_scalar(class, nfields))
    }

    pub(crate) fn alloc_classobj(&mut self, class: ClassId, n: usize) -> Result<Addr, VmError> {
        self.alloc_with(|heap| heap.alloc_classobj(class, n))
    }

    pub(crate) fn alloc_array(&mut self, kind: ArrKind, len: usize) -> Result<Addr, VmError> {
        self.alloc_with(|heap| heap.alloc_array(kind, len))
    }

    /// Allocate a guest array from host code (hooks/tools), protected
    /// against GC by nothing — callers must register the result as a root
    /// if they keep it.
    pub fn alloc_array_public(&mut self, kind: ArrKind, len: usize) -> Result<Addr, VmError> {
        self.alloc_array(kind, len)
    }

    // ------------------------------------------------------------------
    // Boot image
    // ------------------------------------------------------------------

    fn intern_string_object(&mut self, s: &str) -> Result<Addr, VmError> {
        let chars = self.alloc_array(ArrKind::Int, s.len())?;
        for (i, b) in s.bytes().enumerate() {
            self.heap.set_elem(chars, i, b as Word);
        }
        self.temp_roots.push(chars);
        let string_class = self.program.builtins.string_class;
        let obj = self.alloc_scalar(string_class, 1);
        let chars = self.temp_roots.pop().unwrap(); // may have moved
        let obj = obj?;
        self.heap.set_field(obj, 0, chars);
        Ok(obj)
    }

    fn build_boot_image(&mut self) -> Result<(), VmError> {
        // Interned strings.
        let strings: Vec<String> = self.program.strings.clone();
        for s in &strings {
            let a = self.intern_string_object(s)?;
            self.string_objects.push(a);
        }
        // Reflection metadata: VM_Method[] with per-method name + lineTable
        // (the data structures of the paper's Figure 3).
        let nmethods = self.program.methods.len();
        let table = self.alloc_array(ArrKind::Ref, nmethods)?;
        self.boot_image.method_table = table;
        let vm_method_class = self.program.builtins.vm_method_class;
        for m in 0..nmethods {
            let (name, lines) = {
                let meth = &self.program.methods[m];
                (meth.qualified_name(&self.program), meth.lines.clone())
            };
            let name_obj = self.intern_string_object(&name)?;
            self.temp_roots.push(name_obj);
            let lt = self.alloc_array(ArrKind::Int, lines.len())?;
            for (i, &l) in lines.iter().enumerate() {
                self.heap.set_elem(lt, i, l as Word);
            }
            self.temp_roots.push(lt);
            let mobj = self.alloc_scalar(vm_method_class, 3)?;
            let lt = self.temp_roots.pop().unwrap();
            let name_obj = self.temp_roots.pop().unwrap();
            self.heap.set_field(mobj, 0, m as Word); // methodId
            self.heap.set_field(mobj, 1, name_obj); // name
            self.heap.set_field(mobj, 2, lt); // lineTable
            let table = self.boot_image.method_table; // may have moved
            self.heap.set_elem(table, m, mobj);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Lazy loading / compilation / I-O paths (the symmetry channels)
    // ------------------------------------------------------------------

    /// Class object (statics holder) for `class`, allocating it on first
    /// touch — the "class loading allocates heap objects" channel of §2.4.
    pub fn ensure_class_loaded(&mut self, class: ClassId) -> Result<Addr, VmError> {
        if let Some(a) = self.class_objects[class as usize] {
            return Ok(a);
        }
        let n = self.program.static_layouts[class as usize].len();
        let a = self.alloc_classobj(class, n)?;
        self.class_objects[class as usize] = Some(a);
        self.note(VmEvent::ClassLoad { class });
        Ok(a)
    }

    /// "Compile" a method on first invocation: allocates its code object.
    pub fn ensure_method_compiled(&mut self, m: MethodId) -> Result<(), VmError> {
        if self.code_objects[m as usize].is_some() {
            return Ok(());
        }
        let len = self.program.compiled(m).code_words();
        let a = self.alloc_array(ArrKind::Int, len)?;
        self.code_objects[m as usize] = Some(a);
        // Costs no logical cycles: the triggering call's cycle stays with
        // its method.
        self.note(VmEvent::Compile {
            method: m,
            words: len as u64,
        });
        Ok(())
    }

    /// Touch the output path (allocates the write buffer on first use).
    pub fn io_write_touch(&mut self) -> Result<(), VmError> {
        if self.io_write_buf.is_none() {
            let a = self.alloc_array(ArrKind::Int, 64)?;
            self.io_write_buf = Some(a);
        }
        self.counters.io_writes += 1;
        Ok(())
    }

    /// Touch the input path (allocates the read buffer and its decode
    /// scratch on first use — two allocations, vs. the write path's one).
    pub fn io_read_touch(&mut self) -> Result<(), VmError> {
        if self.io_read_buf.is_none() {
            let a = self.alloc_array(ArrKind::Int, 64)?;
            self.io_read_buf = Some(a);
            let s = self.alloc_array(ArrKind::Int, 32)?;
            self.io_read_scratch = Some(s);
        }
        self.counters.io_reads += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Roots
    // ------------------------------------------------------------------

    /// Register an address as a GC root (instrumentation buffers). The
    /// handle stays valid; the copying collector updates the slot.
    pub fn register_root(&mut self, addr: Addr) -> RootHandle {
        self.extra_roots.push(addr);
        RootHandle(self.extra_roots.len() - 1)
    }

    pub fn root(&self, h: RootHandle) -> Addr {
        self.extra_roots[h.0]
    }

    /// The root set: every non-null reference the VM holds outside the
    /// heap, visited in place, in the order the copying collector forwards
    /// them — which is to-space order, so it is part of bit-identical
    /// replay; a new root kind goes at the end. Mark reads through the
    /// slots, copy rewrites them; `f` is handed the heap because a root's
    /// home is never in it, so the two borrows split. (References *inside*
    /// the heap are [`frame_slots`] and [`Heap::payload`].)
    pub(crate) fn each_root(&mut self, mut f: impl FnMut(&mut Heap, &mut Addr)) {
        let heap = &mut self.heap;
        let mut visit = |slot: &mut Addr| {
            if *slot != NULL {
                f(heap, slot)
            }
        };
        for t in &mut self.threads {
            visit(&mut t.thread_obj);
            visit(&mut t.stack_obj);
            if let ThreadStatus::BlockedMonitor(a)
            | ThreadStatus::Waiting(a)
            | ThreadStatus::TimedWaiting(a) = &mut t.status
            {
                visit(a);
            }
        }
        (self.class_objects.iter_mut().flatten())
            .chain(&mut self.string_objects)
            .chain(self.code_objects.iter_mut().flatten())
            .chain(&mut self.io_write_buf)
            .chain(&mut self.io_read_buf)
            .chain(&mut self.io_read_scratch)
            .chain([&mut self.boot_image.method_table])
            .chain(&mut self.extra_roots)
            .chain(&mut self.temp_roots)
            .for_each(&mut visit);
        // A monitor is keyed by its object's address: re-key the map.
        self.sched.monitors = std::mem::take(&mut self.sched.monitors)
            .into_iter()
            .map(|(mut a, m)| {
                visit(&mut a);
                (a, m)
            })
            .collect();
        self.sched
            .sleepers
            .iter_mut()
            .filter_map(|s| s.monitor.as_mut())
            .for_each(visit);
    }

    // ------------------------------------------------------------------
    // Live non-determinism sources
    // ------------------------------------------------------------------

    /// Read the live wall clock (record/passthrough paths only — replay
    /// hooks never call this).
    pub fn read_live_clock(&mut self) -> i64 {
        self.wall.now(self.cycles)
    }

    /// Execute a live native call (record/passthrough only).
    pub fn call_native_live(&mut self, id: NativeId, args: &[i64]) -> NativeOutcome {
        let now = self.wall.now(self.cycles);
        let mut reg = std::mem::take(&mut self.natives);
        let out = reg.call(
            id,
            &NativeCtx {
                args,
                now_millis: now,
            },
        );
        self.natives = reg;
        out
    }

    // ------------------------------------------------------------------
    // Threads, frames, stacks
    // ------------------------------------------------------------------

    pub fn current_thread(&self) -> &ThreadState {
        &self.threads[self.sched.current as usize]
    }

    /// Create a thread running `method`; returns its tid. The new thread is
    /// appended to the ready queue.
    pub(crate) fn create_thread(
        &mut self,
        method: MethodId,
        args: ArgSource,
        name: &str,
    ) -> Result<Tid, VmError> {
        self.ensure_method_compiled(method)?;
        let thread_class = self.program.builtins.thread_class;
        let tobj = self.alloc_scalar(thread_class, 1)?;
        self.temp_roots.push(tobj);
        let stack = self.alloc_array(ArrKind::Stack, self.config.initial_stack);
        let tobj = self.temp_roots.pop().unwrap();
        let stack = stack?;

        let tid = self.threads.len() as Tid;
        self.heap.set_field(tobj, 0, tid as Word);

        let m = self.program.method(method);
        let nlocals = m.nlocals;
        let nargs = m.nargs;
        let fp = stack + 2;
        self.heap.mem[fp as usize] = 0;
        self.heap.mem[fp as usize + 1] = method as Word;
        self.heap.mem[fp as usize + 2] = SavedPc {
            caller_pc: 0,
            discard_result: false,
            instrumentation: false,
        }
        .encode();
        // Copy arguments from the spawning thread's stack, then pop them.
        match args {
            ArgSource::None => {
                debug_assert_eq!(nargs, 0);
            }
            ArgSource::CallerStack(n) => {
                debug_assert_eq!(n, nargs);
                let cur = self.sched.current as usize;
                let src = self.threads[cur].sp - n as u64;
                for i in 0..n as u64 {
                    let v = self.heap.mem[(src + i) as usize];
                    self.heap.mem[(fp + 3 + i) as usize] = v;
                }
                self.threads[cur].sp = src;
            }
        }
        for i in nargs..nlocals {
            self.heap.mem[(fp + 3 + i as u64) as usize] = 0;
        }

        self.threads.push(ThreadState {
            tid,
            thread_obj: tobj,
            stack_obj: stack,
            fp,
            sp: fp + 3 + nlocals as u64,
            pc: 0,
            method,
            status: ThreadStatus::Ready,
            pending_push: None,
            interrupted: false,
            yield_points: 0,
            name: name.to_string(),
        });
        self.sched.ready.push_back(tid);
        self.note(VmEvent::ThreadStart { tid, method });
        Ok(tid)
    }

    /// Grow the current thread's activation stack so at least `need` more
    /// words fit above `sp`. Allocates a larger array, copies, and rebases
    /// every frame pointer — Jalapeño's stack-overflow mechanism, and the
    /// reason §2.4 needs "symmetry in stack overflow".
    pub(crate) fn grow_stack(&mut self, need: u64) -> Result<(), VmError> {
        let cur = self.sched.current as usize;
        let old_obj = self.threads[cur].stack_obj;
        let old_len = self.heap.array_len(old_obj);
        let used = (self.threads[cur].sp - (old_obj + 2)) as usize;
        let new_len = (old_len * 2).max(used + need as usize + 64);
        let new_obj = self.alloc_array(ArrKind::Stack, new_len)?;
        // A copying GC during that allocation may have moved the old stack.
        let old_obj = self.threads[cur].stack_obj;
        let used = (self.threads[cur].sp - (old_obj + 2)) as usize;
        for i in 0..used {
            self.heap.mem[(new_obj + 2) as usize + i] = self.heap.mem[(old_obj + 2) as usize + i];
        }
        let t = &mut self.threads[cur];
        t.stack_obj = new_obj;
        t.rebase_stack(&mut self.heap, new_obj.wrapping_sub(old_obj));
        self.note(VmEvent::StackGrowth {
            new_words: new_len as u64,
        });
        Ok(())
    }

    /// Ensure the current thread has `words` of stack headroom, growing
    /// eagerly if not (used by symmetric instrumentation before helper
    /// calls, §2.4).
    pub fn ensure_stack_headroom(&mut self, words: u64) -> Result<(), VmError> {
        let t = self.current_thread();
        let limit = t.stack_obj + 2 + self.heap.array_len(t.stack_obj) as u64;
        if t.sp + words > limit {
            self.grow_stack(words)?;
        }
        Ok(())
    }

    /// Push a frame for `callee` on the current thread. If
    /// `args_from_stack`, the callee's arguments are the top `nargs` words
    /// of the current operand stack (a real call); otherwise `inline_args`
    /// (integers only) are written directly (injected helper/callback
    /// frames, which resume at the *current* pc).
    pub(crate) fn push_frame(
        &mut self,
        callee: MethodId,
        args_from_stack: bool,
        inline_args: &[i64],
        discard_result: bool,
        instrumentation: bool,
    ) -> Result<(), VmError> {
        self.ensure_method_compiled(callee)?;
        let (nargs, nlocals, frame_words) = {
            let m = self.program.method(callee);
            let cm = self.program.compiled(callee);
            (m.nargs, m.nlocals, cm.frame_words)
        };
        {
            let t = self.current_thread();
            let limit = t.stack_obj + 2 + self.heap.array_len(t.stack_obj) as u64;
            if t.sp + frame_words as u64 > limit {
                self.grow_stack(frame_words as u64)?;
            }
        }
        let cur = self.sched.current as usize;
        let t = &mut self.threads[cur];
        let caller_pc = if args_from_stack {
            t.pc
        } else {
            t.pc.wrapping_sub(1) // injected frames resume *at* the saved pc+1 == current pc
        };
        if args_from_stack {
            t.sp -= nargs as u64;
        }
        let fp_new = t.sp;
        let heap = &mut self.heap;
        if args_from_stack {
            // The arguments sit at [fp_new .. fp_new+nargs] (they were the
            // stack top before sp was lowered); locals start at fp_new+3.
            // Copy them up *before* the frame header overwrites the first
            // three words; backwards, since the regions overlap (dest>src).
            for i in (0..nargs as u64).rev() {
                let v = heap.mem[(fp_new + i) as usize];
                heap.mem[(fp_new + 3 + i) as usize] = v;
            }
        } else {
            debug_assert_eq!(inline_args.len(), nargs as usize);
            for (i, &v) in inline_args.iter().enumerate() {
                heap.mem[fp_new as usize + 3 + i] = v as Word;
            }
        }
        heap.mem[fp_new as usize] = t.fp;
        heap.mem[fp_new as usize + 1] = callee as Word;
        heap.mem[fp_new as usize + 2] = SavedPc {
            caller_pc,
            discard_result,
            instrumentation,
        }
        .encode();
        for i in nargs..nlocals {
            heap.mem[(fp_new + 3 + i as u64) as usize] = 0;
        }
        t.fp = fp_new;
        t.sp = fp_new + 3 + nlocals as u64;
        t.method = callee;
        t.pc = 0;
        self.note(VmEvent::Enter { method: callee });
        Ok(())
    }

    /// Push a frame invoking `method` with inline integer arguments on the
    /// current thread, discarding its result. This is the *in-process*
    /// tool-invocation path — the very thing remote reflection exists to
    /// avoid (§3): running it during a replay perturbs the application VM.
    /// Exposed for the E8 ablation and for native-callback style tooling.
    pub fn push_frame_public(&mut self, method: MethodId, args: &[i64]) -> Result<(), VmError> {
        self.push_frame(method, false, args, true, false)
    }

    /// Operand-stack push/pop for the current thread.
    #[inline]
    pub(crate) fn push_word(&mut self, v: Word) {
        let cur = self.sched.current as usize;
        let sp = self.threads[cur].sp;
        self.heap.mem[sp as usize] = v;
        self.threads[cur].sp = sp + 1;
    }

    #[inline]
    pub(crate) fn pop_word(&mut self) -> Word {
        let cur = self.sched.current as usize;
        let sp = self.threads[cur].sp - 1;
        self.threads[cur].sp = sp;
        self.heap.mem[sp as usize]
    }

    #[inline]
    pub(crate) fn peek_word(&self, depth_from_top: u64) -> Word {
        let t = self.current_thread();
        self.heap.mem[(t.sp - 1 - depth_from_top) as usize]
    }

    /// Append to console output (and the fingerprint).
    pub fn write_output(&mut self, s: &str) {
        self.output.push_str(s);
        self.fingerprint.output(s.as_bytes());
    }

    // ------------------------------------------------------------------
    // Frame walking (GC, state digest, debugger)
    // ------------------------------------------------------------------

    /// A view of one activation frame.
    pub fn frames(&self, tid: Tid) -> Vec<FrameView> {
        let t = &self.threads[tid as usize];
        if t.status == ThreadStatus::Terminated || t.stack_obj == NULL {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut fp = t.fp;
        let mut sp = t.sp;
        let mut method = t.method;
        let mut pc = t.pc;
        loop {
            let nlocals = self.program.method(method).nlocals;
            let depth = (sp - (fp + 3 + nlocals as u64)) as usize;
            out.push(FrameView {
                fp,
                method,
                pc,
                nlocals,
                depth,
            });
            let saved_fp = self.heap.mem[fp as usize];
            if saved_fp == 0 {
                break;
            }
            let saved = SavedPc::decode(self.heap.mem[fp as usize + 2]);
            sp = fp;
            fp = saved_fp;
            // A real call's caller stands on its call instruction; an
            // injected frame's caller on the one it resumes at.
            pc = saved.caller_pc.wrapping_add(saved.discard_result as u32);
            method = self.heap.mem[fp as usize + 1] as MethodId;
        }
        out
    }

    // ------------------------------------------------------------------
    // State digest (the paper's "identical program states")
    // ------------------------------------------------------------------

    /// Digest of the *application-visible* program state: thread states and
    /// frames (reference slots by target allocation-serial), every object
    /// reachable from them and from loaded class statics, monitor and
    /// sleeper state, console output, and VM status. Instrumentation
    /// buffers (registered extra roots) are deliberately excluded: DejaVu's
    /// own state differs between record and replay by definition (§2.4).
    ///
    /// It is the collectors' walk under a third policy — [`frame_slots`]
    /// and [`Heap::payload`] with every object named by its serial instead
    /// of its address — and its visit order is frozen: recorded digests
    /// (`tests/corpus/*.policy.json`) are compared for equality.
    pub fn state_digest(&self) -> u64 {
        let mut d = Digest::new();
        let mut worklist: Vec<Addr> = Vec::new();

        d.add(0x7EAD5).add(self.threads.len() as u64);
        for t in &self.threads {
            d.add(t.tid as u64);
            let (sd, sa) = match t.status {
                ThreadStatus::Ready => (1, 0),
                ThreadStatus::Running => (2, 0),
                ThreadStatus::BlockedMonitor(a) => (3, self.obj_serial(a)),
                ThreadStatus::Waiting(a) => (4, self.obj_serial(a)),
                ThreadStatus::TimedWaiting(a) => (5, self.obj_serial(a)),
                ThreadStatus::Sleeping => (6, 0),
                ThreadStatus::JoinWaiting(x) => (7, x as u64),
                ThreadStatus::Terminated => (8, 0),
            };
            d.add(sd).add(sa);
            d.add(t.interrupted as u64);
            d.add(t.pending_push.map(|v| v as u64 ^ 0xFFFF).unwrap_or(0));
            for f in self.frames(t.tid) {
                d.add(f.method as u64).add(f.pc as u64).add(f.depth as u64);
                let mut slots = frame_slots(&self.program, &f);
                let locals = slots.by_ref().take(f.nlocals as usize);
                self.digest_slots(&mut d, &mut worklist, 0xF0, locals);
                self.digest_slots(&mut d, &mut worklist, 0xF1, slots);
            }
        }

        // Loaded class statics.
        for (c, slot) in self.class_objects.iter().enumerate() {
            if let Some(a) = slot {
                d.add(0xC0 ^ c as u64);
                let statics = self.heap.payload(*a, &self.program).slots();
                self.digest_slots(&mut d, &mut worklist, 0xF2, statics);
            }
        }

        // Reachable object graph, deterministic BFS.
        let mut visited: BTreeSet<u64> = BTreeSet::new();
        while let Some(a) = worklist.pop() {
            let h = crate::objref::header(&self.heap, a).expect("a reachable object");
            if !visited.insert(h.serial) {
                continue;
            }
            d.add(0x0B1 ^ h.serial).add(h.class_id as u64);
            if h.is_stack {
                continue; // activation stacks digested via frames above
            }
            let p = self.heap.payload(a, &self.program);
            let tag = if h.is_array {
                d.add(p.count as u64);
                0xF3
            } else {
                0xF4
            };
            self.digest_slots(&mut d, &mut worklist, tag, p.slots());
        }

        // Scheduler: monitors, sleepers, queues.
        d.add(0x5C4ED);
        for (&addr, m) in &self.sched.monitors {
            d.add(self.obj_serial(addr));
            d.add(m.owner.map(|t| t as u64 + 1).unwrap_or(0));
            d.add(m.recursion as u64);
            for e in &m.entry_queue {
                d.add(e.tid as u64)
                    .add(e.recursion as u64)
                    .add(e.push_status.map(|v| v as u64 + 1).unwrap_or(0));
            }
            for w in &m.wait_queue {
                d.add(w.tid as u64).add(w.recursion as u64);
            }
        }
        for s in &self.sched.sleepers {
            d.add(s.wake_at as u64).add(s.tid as u64);
        }
        for &t in &self.sched.ready {
            d.add(0x4EAD1 ^ t as u64);
        }

        // Output and status.
        for chunk in self.output.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            d.add(u64::from_le_bytes(w));
        }
        d.add(match self.status {
            VmStatus::Running => 1,
            VmStatus::Halted => 2,
            VmStatus::Deadlocked => 3,
            VmStatus::Error(e) => 0xE000 + e.kind as u64,
        });
        d.value()
    }

    /// Digest a run of slots: an integer by value; a reference by `tag` and
    /// its target's serial, and the target joins the walk.
    fn digest_slots(
        &self,
        d: &mut Digest,
        worklist: &mut Vec<Addr>,
        tag: u64,
        slots: impl Iterator<Item = (Addr, bool)>,
    ) {
        for (slot, is_ref) in slots {
            let v = self.heap.mem[slot as usize];
            if !is_ref {
                d.add(v);
                continue;
            }
            d.add(tag ^ self.obj_serial(v));
            if v != NULL {
                worklist.push(v);
            }
        }
    }

    /// Allocation serial of an object (0 for null) — the address-stable
    /// identity used in digests.
    fn obj_serial(&self, addr: Addr) -> u64 {
        crate::objref::identity_hash(&self.heap, addr).unwrap_or(0)
    }
}

/// `(slot address, is_ref)` of every local, then every operand-stack word,
/// of one frame — the only reader of the per-pc reference maps (paper §1)
/// outside the compiler and disassembler. Mark and copy take the `is_ref`
/// slots, the state digest all of them. The operand-stack bound is the
/// frame's own depth, not the map's: a caller paused on its call has
/// already handed the argument words to the callee's frame.
///
/// A frame only ever pauses at a pc the verifier reached, so a missing map
/// is a VM bug; outside debug builds the frame is skipped rather than
/// taking down a process that hosts other sessions.
pub(crate) fn frame_slots<'p>(
    program: &'p Program,
    f: &FrameView,
) -> impl Iterator<Item = (Addr, bool)> + 'p {
    let map = program.compiled(f.method).ref_maps[f.pc as usize].as_ref();
    debug_assert!(map.is_some(), "frame paused at an unreachable pc");
    let (base, nlocals, words) = (f.fp + 3, f.nlocals as usize, f.nlocals as usize + f.depth);
    map.into_iter().flat_map(move |map| {
        (0..words).map(move |i| {
            let is_ref = match i.checked_sub(nlocals) {
                None => map.locals.get(i),
                Some(s) => map.stack.get(s),
            };
            (base + i as Addr, is_ref)
        })
    })
}

/// A complete copy of guest-visible VM state: everything needed to resume
/// execution from this point (the non-determinism sources — timer, wall
/// clock, natives — are exempt because a replayed VM never consults them).
/// This is the Igor/Boothe checkpoint object (paper §5).
#[derive(Clone)]
pub struct VmSnapshot {
    heap: crate::heap::HeapSnapshot,
    threads: Vec<ThreadState>,
    sched: Scheduler,
    cycles: u64,
    cycles_to_tick: u64,
    preempt_bit: bool,
    pending_switch: bool,
    instr_depth: u32,
    status: VmStatus,
    output: String,
    fingerprint: Fingerprint,
    counters: VmCounters,
    boot_image: BootImage,
    class_objects: Vec<Option<Addr>>,
    code_objects: Vec<Option<Addr>>,
    string_objects: Vec<Addr>,
    io_write_buf: Option<Addr>,
    io_read_buf: Option<Addr>,
    io_read_scratch: Option<Addr>,
    extra_roots: Vec<Addr>,
}

impl Vm {
    /// Capture a checkpoint of all guest-visible state.
    pub fn snapshot(&self) -> VmSnapshot {
        VmSnapshot {
            heap: self.heap.snapshot(),
            threads: self.threads.clone(),
            sched: self.sched.clone(),
            cycles: self.cycles,
            cycles_to_tick: self.cycles_to_tick,
            preempt_bit: self.preempt_bit,
            pending_switch: self.pending_switch,
            instr_depth: self.instr_depth,
            status: self.status,
            output: self.output.clone(),
            fingerprint: self.fingerprint.clone(),
            counters: self.counters,
            boot_image: self.boot_image,
            class_objects: self.class_objects.clone(),
            code_objects: self.code_objects.clone(),
            string_objects: self.string_objects.clone(),
            io_write_buf: self.io_write_buf,
            io_read_buf: self.io_read_buf,
            io_read_scratch: self.io_read_scratch,
            extra_roots: self.extra_roots.clone(),
        }
    }

    /// Restore a checkpoint taken from this VM (same program/config).
    pub fn restore(&mut self, s: &VmSnapshot) {
        self.heap.restore(&s.heap);
        self.threads.clone_from(&s.threads);
        self.sched.clone_from(&s.sched);
        self.cycles = s.cycles;
        self.cycles_to_tick = s.cycles_to_tick;
        self.preempt_bit = s.preempt_bit;
        self.pending_switch = s.pending_switch;
        self.instr_depth = s.instr_depth;
        self.status = s.status;
        self.output.clone_from(&s.output);
        self.fingerprint = s.fingerprint.clone();
        self.counters = s.counters;
        self.boot_image = s.boot_image;
        self.class_objects.clone_from(&s.class_objects);
        self.code_objects.clone_from(&s.code_objects);
        self.string_objects.clone_from(&s.string_objects);
        self.io_write_buf = s.io_write_buf;
        self.io_read_buf = s.io_read_buf;
        self.io_read_scratch = s.io_read_scratch;
        self.extra_roots.clone_from(&s.extra_roots);
        // Telemetry is observer state, not guest state: a snapshot never
        // captures it, and a restore clears the ring so it only ever
        // describes the current timeline (histograms keep accumulating).
        self.telem.on_restore();
    }

    /// Approximate checkpoint size in bytes (heap image dominates).
    pub fn snapshot_size_bytes(&self) -> usize {
        self.heap.snapshot_bytes() + self.threads.len() * 96 + self.output.len()
    }
}

/// One activation frame, as seen by the GC / debugger / digest.
#[derive(Debug, Clone, Copy)]
pub struct FrameView {
    pub fp: Addr,
    pub method: MethodId,
    pub pc: u32,
    pub nlocals: u16,
    /// Operand-stack depth.
    pub depth: usize,
}
