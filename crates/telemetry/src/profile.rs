//! The replay-time profiler: a deterministic flight recorder attributing
//! logical cycles to per-thread span stacks.
//!
//! The paper's posture is "record lightly, analyze heavily during replay":
//! since a replayed execution is bit-identical to the recorded one, any
//! analysis too expensive for the recorder can be paid for at replay time
//! instead. This module is that analysis layer. [`Profiler::note`] logs
//! the [`VmEvent`]s that `Vm::note` hands it — frame enters and exits,
//! thread starts and ends, switches, and the gc/compile/native events
//! that bound zero-width phase spans — as [`ProfEvent`]s, and the
//! quickened dispatch loop feeds per-QOp cycle counters. Everything
//! downstream (exclusive/inclusive attribution, folded stacks, Chrome
//! trace events) is derived offline by [`ProfileModel::build`].
//!
//! Two disciplines, inherited from the rest of this crate:
//!
//! * **Neutrality** — the profiler is plain observer state owned by
//!   [`crate::VmTelemetry`]: never reachable from the guest heap, never
//!   hashed into the fingerprint or state digest, never snapshotted.
//!   Fingerprints are bit-identical with profiling on or off.
//! * **Determinism** — every quantity is an exact integer in *logical*
//!   units (cycles, yield points, words); wall time never enters. Two
//!   replays of the same trace emit byte-identical artifacts on any host.

use crate::event::VmEvent;
use codec::Json;
use std::collections::BTreeMap;

/// Phase indices for the runtime-service spans and the summary's table.
pub const PHASE_INTERP: u8 = 0;
pub const PHASE_SCHED: u8 = 1;
pub const PHASE_GC: u8 = 2;
pub const PHASE_COMPILE: u8 = 3;
pub const PHASE_NATIVE: u8 = 4;
/// Number of phases.
pub const PHASES: usize = 5;
/// Phase names, indexed by the `PHASE_*` constants.
pub const PHASE_NAMES: [&str; PHASES] = ["interp", "sched", "gc", "compile", "native"];

/// One profiler event, stamped with the logical cycle it occurred at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfEvent {
    /// Logical time (executed-instruction count) of the event.
    pub cycles: u64,
    /// Thread the event belongs to.
    pub tid: u32,
    pub kind: VmEvent,
}

/// The runtime-service span boundaries an event stands for, as
/// `(phase, begins, arg)`: `arg` is the phase's input at a begin (gc:
/// collection number, compile/native: method id) and its output at an
/// end (gc: words copied or swept, compile: code words, native: method
/// id). A compile is a zero-width span, so both; frame, thread and switch
/// events are none.
fn phase_marks(ev: &VmEvent) -> [Option<(u8, bool, u64)>; 2] {
    match *ev {
        VmEvent::NativeBegin { method } => [Some((PHASE_NATIVE, true, method as u64)), None],
        VmEvent::NativeEnd { method } => [Some((PHASE_NATIVE, false, method as u64)), None],
        VmEvent::GcBegin { collection } => [Some((PHASE_GC, true, collection)), None],
        VmEvent::GcEnd { words, .. } => [Some((PHASE_GC, false, words)), None],
        VmEvent::Compile { method, words } => [
            Some((PHASE_COMPILE, true, method as u64)),
            Some((PHASE_COMPILE, false, words)),
        ],
        _ => [None, None],
    }
}

/// The in-VM flight recorder: an append-only event log plus per-QOp-kind
/// cycle counters. Runtime work per event is one `Vec::push`; per
/// quickened dispatch, one indexed add. All aggregation happens offline.
#[derive(Debug, Clone)]
pub struct Profiler {
    pub events: Vec<ProfEvent>,
    /// Cycles attributed to each quickened-op kind (indexed by the VM's
    /// QOp attribution table). Populated only under quickened dispatch.
    pub qop_cycles: Vec<u64>,
    /// Dispatch counts per quickened-op kind.
    pub qop_dispatches: Vec<u64>,
    /// `(tid, name)` for every thread the profiler saw, in creation order.
    pub threads: Vec<(u32, String)>,
}

impl Profiler {
    pub fn new(qop_kinds: usize) -> Self {
        Self {
            events: Vec::new(),
            qop_cycles: vec![0; qop_kinds],
            qop_dispatches: vec![0; qop_kinds],
            threads: Vec::new(),
        }
    }

    /// Record a thread's name (once, at creation/seeding).
    pub fn thread_name(&mut self, tid: u32, name: &str) {
        if !self.threads.iter().any(|(t, _)| *t == tid) {
            self.threads.push((tid, name.to_string()));
        }
    }

    /// Log `ev` on thread `tid` at `cycles` if it is one of the events the
    /// profiler keeps; ignore it otherwise. A thread's start belongs to
    /// the new thread.
    #[inline(always)]
    pub fn note(&mut self, cycles: u64, tid: u32, ev: VmEvent) {
        let tid = match ev {
            VmEvent::ThreadStart { tid, .. } => tid,
            VmEvent::Switch { .. }
            | VmEvent::NativeBegin { .. }
            | VmEvent::NativeEnd { .. }
            | VmEvent::GcBegin { .. }
            | VmEvent::GcEnd { .. }
            | VmEvent::Compile { .. }
            | VmEvent::ThreadEnd
            | VmEvent::Enter { .. }
            | VmEvent::Exit { .. } => tid,
            _ => return,
        };
        self.events.push(ProfEvent {
            cycles,
            tid,
            kind: ev,
        });
    }

    /// Attribute `k` cycles to quickened-op kind `kind` (one dispatch).
    #[inline]
    pub fn qop(&mut self, kind: usize, k: u64) {
        self.qop_cycles[kind] += k;
        self.qop_dispatches[kind] += 1;
    }
}

/// Aggregates for one method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MethodStat {
    /// Frame pushes observed (calls), including seeded boot frames.
    pub calls: u64,
    /// Cycles attributed while this method was the stack top.
    pub cycles_excl: u64,
    /// Cycles between the outermost enter and exit (recursion counted
    /// once).
    pub cycles_incl: u64,
}

/// Aggregates for one runtime-service phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    pub count: u64,
    pub cycles: u64,
    /// Sum of the phase-end `arg` values (gc: words copied or swept,
    /// compile: code words).
    pub arg_total: u64,
}

#[derive(Debug, Clone)]
struct OpenFrame {
    method: u32,
    entered: u64,
}

/// The offline aggregation of a [`Profiler`] log.
///
/// # Cycle-attribution rules (DESIGN §4c)
///
/// * The event log divides logical time into intervals; each interval is
///   charged to the *running* thread's current stack (exclusive time to
///   the stack top) — the running thread is established by `Switch`
///   events, starting from tid 0.
/// * Cycles charged while the running thread has no open frame (between
///   `ThreadEnd` and the next `Switch`) belong to the `sched` phase.
/// * `gc`/`compile`/`native` phase spans are zero-width in logical time
///   (the triggering instruction's single cycle stays with its method);
///   their cost is reported via `count` and `arg_total`.
/// * Open frames at the end of the log are closed at `final_cycles`.
#[derive(Debug, Clone)]
pub struct ProfileModel {
    /// Logical-time window the log covers (first event → `final_cycles`).
    pub total_cycles: u64,
    pub methods: BTreeMap<u32, MethodStat>,
    /// `(tid, stack of method ids)` → exclusive cycles.
    pub folded: BTreeMap<(u32, Vec<u32>), u64>,
    pub phases: [PhaseStat; PHASES],
    /// Exclusive cycles charged per thread.
    pub thread_cycles: BTreeMap<u32, u64>,
    pub switches: u64,
}

impl ProfileModel {
    pub fn build(p: &Profiler, final_cycles: u64) -> Self {
        let mut stacks: BTreeMap<u32, Vec<OpenFrame>> = BTreeMap::new();
        let mut active: BTreeMap<u32, u64> = BTreeMap::new(); // method → open frames
        let mut methods: BTreeMap<u32, MethodStat> = BTreeMap::new();
        let mut folded: BTreeMap<(u32, Vec<u32>), u64> = BTreeMap::new();
        let mut thread_cycles: BTreeMap<u32, u64> = BTreeMap::new();
        let mut phases = [PhaseStat::default(); PHASES];
        let mut switches = 0u64;
        let mut cur: u32 = 0;
        let first = p.events.first().map(|e| e.cycles).unwrap_or(final_cycles);
        let mut last = first;

        let charge = |stacks: &BTreeMap<u32, Vec<OpenFrame>>,
                      folded: &mut BTreeMap<(u32, Vec<u32>), u64>,
                      methods: &mut BTreeMap<u32, MethodStat>,
                      thread_cycles: &mut BTreeMap<u32, u64>,
                      phases: &mut [PhaseStat; PHASES],
                      cur: u32,
                      delta: u64| {
            if delta == 0 {
                return;
            }
            let stack = stacks.get(&cur).map(|s| s.as_slice()).unwrap_or(&[]);
            let key: Vec<u32> = stack.iter().map(|f| f.method).collect();
            if let Some(top) = key.last() {
                methods.entry(*top).or_default().cycles_excl += delta;
            } else {
                // No frame open on the running thread: scheduler time.
                phases[PHASE_SCHED as usize].cycles += delta;
            }
            *folded.entry((cur, key)).or_insert(0) += delta;
            *thread_cycles.entry(cur).or_insert(0) += delta;
        };

        let close_frame = |active: &mut BTreeMap<u32, u64>,
                           methods: &mut BTreeMap<u32, MethodStat>,
                           f: &OpenFrame,
                           now: u64| {
            let n = active.entry(f.method).or_insert(0);
            *n = n.saturating_sub(1);
            if *n == 0 {
                methods.entry(f.method).or_default().cycles_incl += now.saturating_sub(f.entered);
            }
        };

        for e in &p.events {
            charge(
                &stacks,
                &mut folded,
                &mut methods,
                &mut thread_cycles,
                &mut phases,
                cur,
                e.cycles.saturating_sub(last),
            );
            last = last.max(e.cycles);
            for (phase, begins, arg) in phase_marks(&e.kind).into_iter().flatten() {
                let stat = &mut phases[phase as usize];
                if begins {
                    stat.count += 1;
                } else {
                    stat.arg_total += arg;
                }
            }
            match e.kind {
                VmEvent::Enter { method } | VmEvent::ThreadStart { method, .. } => {
                    stacks.entry(e.tid).or_default().push(OpenFrame {
                        method,
                        entered: e.cycles,
                    });
                    *active.entry(method).or_insert(0) += 1;
                    methods.entry(method).or_default().calls += 1;
                }
                // Tolerant unwind: an exit pops until the named frame
                // closes (exits always match in practice; this keeps the
                // model total even on a truncated log), a thread's end
                // pops them all.
                VmEvent::Exit { .. } | VmEvent::ThreadEnd => {
                    let stack = stacks.entry(e.tid).or_default();
                    while let Some(f) = stack.pop() {
                        close_frame(&mut active, &mut methods, &f, e.cycles);
                        if e.kind == (VmEvent::Exit { method: f.method }) {
                            break;
                        }
                    }
                }
                VmEvent::Switch { to, .. } => {
                    switches += 1;
                    cur = to;
                }
                _ => {}
            }
        }
        // Tail: charge the remaining window and close surviving frames.
        charge(
            &stacks,
            &mut folded,
            &mut methods,
            &mut thread_cycles,
            &mut phases,
            cur,
            final_cycles.saturating_sub(last),
        );
        for (_, stack) in stacks.iter_mut() {
            while let Some(f) = stack.pop() {
                close_frame(&mut active, &mut methods, &f, final_cycles);
            }
        }
        let total_cycles = final_cycles.saturating_sub(first);
        // Every cycle not charged to scheduler idle time ran interpreter
        // work (gc/compile/native spans are zero-width in logical time).
        phases[PHASE_INTERP as usize].cycles =
            total_cycles.saturating_sub(phases[PHASE_SCHED as usize].cycles);
        phases[PHASE_SCHED as usize].count = switches;
        Self {
            total_cycles,
            methods,
            folded,
            phases,
            thread_cycles,
            switches,
        }
    }

    /// The `n` hottest methods by exclusive cycles (ties broken by method
    /// id, so the order is deterministic).
    pub fn top_methods(&self, n: usize) -> Vec<(u32, MethodStat)> {
        let mut v: Vec<(u32, MethodStat)> = self.methods.iter().map(|(&m, &s)| (m, s)).collect();
        v.sort_by(|a, b| b.1.cycles_excl.cmp(&a.1.cycles_excl).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }
}

fn name_of(method_names: &[String], m: u32) -> String {
    method_names
        .get(m as usize)
        .cloned()
        .unwrap_or_else(|| format!("m{m}"))
}

/// Export the event log as Chrome trace-event JSON (the format Perfetto
/// and `chrome://tracing` load). The timebase is *logical cycles* reported
/// as microseconds, so the artifact is byte-deterministic across hosts.
/// Open spans are closed at `final_cycles` so every `B` has its `E`.
pub fn chrome_trace(p: &Profiler, final_cycles: u64, method_names: &[String]) -> Json {
    let mut events: Vec<Json> = Vec::new();
    let dur_event = |ph: &str, tid: u32, ts: u64, name: String, cat: &str, args: Option<Json>| {
        let mut pairs = vec![
            ("cat", Json::Str(cat.into())),
            ("name", Json::Str(name)),
            ("ph", Json::Str(ph.into())),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(tid as u64)),
            ("ts", Json::UInt(ts)),
        ];
        if let Some(a) = args {
            pairs.push(("args", a));
        }
        Json::obj(pairs)
    };
    let method_end = |tid: u32, ts: u64, m: u32| {
        dur_event("E", tid, ts, name_of(method_names, m), "method", None)
    };
    for (tid, name) in &p.threads {
        events.push(dur_event(
            "M",
            *tid,
            0,
            "thread_name".into(),
            "__metadata",
            Some(Json::obj(vec![("name", Json::Str(name.clone()))])),
        ));
    }
    // Track open spans so the export can close them at the end (halt or
    // deadlock leaves frames open; Perfetto requires balanced B/E).
    let mut open: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for e in &p.events {
        for (phase, begins, arg) in phase_marks(&e.kind).into_iter().flatten() {
            events.push(dur_event(
                if begins { "B" } else { "E" },
                e.tid,
                e.cycles,
                PHASE_NAMES[phase as usize].into(),
                "phase",
                Some(Json::obj(vec![("arg", Json::UInt(arg))])),
            ));
        }
        match e.kind {
            VmEvent::Enter { method } | VmEvent::ThreadStart { method, .. } => {
                open.entry(e.tid).or_default().push(method);
                events.push(dur_event(
                    "B",
                    e.tid,
                    e.cycles,
                    name_of(method_names, method),
                    "method",
                    None,
                ));
            }
            // An exit closes frames down to its own, a thread's end all.
            VmEvent::Exit { .. } | VmEvent::ThreadEnd => {
                let stack = open.entry(e.tid).or_default();
                while let Some(m) = stack.pop() {
                    events.push(method_end(e.tid, e.cycles, m));
                    if e.kind == (VmEvent::Exit { method: m }) {
                        break;
                    }
                }
            }
            VmEvent::Switch { to, nyp } => {
                events.push(dur_event(
                    "i",
                    e.tid,
                    e.cycles,
                    "switch".into(),
                    "sched",
                    Some(Json::obj(vec![
                        ("nyp", Json::UInt(nyp)),
                        ("to", Json::UInt(to as u64)),
                    ])),
                ));
            }
            _ => {}
        }
    }
    for (tid, stack) in open.iter_mut() {
        while let Some(m) = stack.pop() {
            events.push(method_end(*tid, final_cycles, m));
        }
    }
    let mut j = Json::obj(vec![
        ("displayTimeUnit", Json::Str("ms".into())),
        (
            "otherData",
            Json::obj(vec![
                ("timebase", Json::Str("logical-cycles".into())),
                ("final_cycles", Json::UInt(final_cycles)),
            ]),
        ),
        ("traceEvents", Json::Arr(events)),
    ]);
    j.canonicalize();
    j
}

/// Export the exclusive-cycle attribution as folded-stacks flamegraph
/// text: one `t<tid>;outer;...;inner <cycles>` line per distinct stack,
/// in deterministic (tid, stack) order.
pub fn folded_stacks(model: &ProfileModel, method_names: &[String]) -> String {
    let mut out = String::new();
    for ((tid, stack), cycles) in &model.folded {
        out.push_str(&format!("t{tid}"));
        for m in stack {
            out.push(';');
            out.push_str(&name_of(method_names, *m));
        }
        out.push(' ');
        out.push_str(&cycles.to_string());
        out.push('\n');
    }
    out
}

/// Canonical-JSON profile summary: top-`top` hot methods, phase table,
/// per-QOp cycle counters (`qop_names` indexes the VM's attribution
/// table), per-thread cycles.
pub fn summary_json(
    p: &Profiler,
    model: &ProfileModel,
    method_names: &[String],
    qop_names: &[&str],
    top: usize,
) -> Json {
    let hot = Json::Arr(
        model
            .top_methods(top)
            .iter()
            .map(|(m, s)| {
                Json::obj(vec![
                    ("calls", Json::UInt(s.calls)),
                    ("cycles_excl", Json::UInt(s.cycles_excl)),
                    ("cycles_incl", Json::UInt(s.cycles_incl)),
                    ("method", Json::UInt(*m as u64)),
                    ("name", Json::Str(name_of(method_names, *m))),
                ])
            })
            .collect(),
    );
    let phases = Json::Obj(
        (0..PHASES)
            .map(|i| {
                (
                    PHASE_NAMES[i].to_string(),
                    Json::obj(vec![
                        ("arg_total", Json::UInt(model.phases[i].arg_total)),
                        ("count", Json::UInt(model.phases[i].count)),
                        ("cycles", Json::UInt(model.phases[i].cycles)),
                    ]),
                )
            })
            .collect(),
    );
    let qops = Json::Obj(
        p.qop_cycles
            .iter()
            .zip(p.qop_dispatches.iter())
            .enumerate()
            .filter(|(_, (&c, &d))| c > 0 || d > 0)
            .map(|(i, (&c, &d))| {
                let name = qop_names.get(i).copied().unwrap_or("unknown").to_string();
                (
                    name,
                    Json::obj(vec![
                        ("cycles", Json::UInt(c)),
                        ("dispatches", Json::UInt(d)),
                    ]),
                )
            })
            .collect(),
    );
    let threads = Json::Arr(
        model
            .thread_cycles
            .iter()
            .map(|(&tid, &c)| {
                Json::obj(vec![
                    ("cycles", Json::UInt(c)),
                    ("tid", Json::UInt(tid as u64)),
                ])
            })
            .collect(),
    );
    // Span boundaries and marks: a compile, logged once, is two.
    let compiles = p
        .events
        .iter()
        .filter(|e| matches!(e.kind, VmEvent::Compile { .. }));
    let events = (p.events.len() + compiles.count()) as u64;
    let mut j = Json::obj(vec![
        ("events", Json::UInt(events)),
        ("hot_methods", hot),
        ("phases", phases),
        ("qops", qops),
        ("switches", Json::UInt(model.switches)),
        ("threads", threads),
        ("total_cycles", Json::UInt(model.total_cycles)),
    ]);
    j.canonicalize();
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<String> {
        vec!["main".into(), "foo".into(), "bar".into()]
    }

    /// main enters at 0, calls foo at 10 (runs to 30), main resumes to 40.
    fn simple_log() -> Profiler {
        let mut p = Profiler::new(4);
        p.thread_name(0, "main");
        p.note(0, 0, VmEvent::Enter { method: 0 });
        p.note(0, 0, VmEvent::Switch { to: 0, nyp: 0 });
        p.note(10, 0, VmEvent::Enter { method: 1 });
        p.note(30, 0, VmEvent::Exit { method: 1 });
        p.note(40, 0, VmEvent::ThreadEnd);
        p
    }

    #[test]
    fn exclusive_and_inclusive_attribution() {
        let p = simple_log();
        let m = ProfileModel::build(&p, 40);
        assert_eq!(m.total_cycles, 40);
        let main = m.methods[&0];
        let foo = m.methods[&1];
        // main: [0,10) + [30,40) exclusive; inclusive the whole window.
        assert_eq!(main.cycles_excl, 20);
        assert_eq!(main.cycles_incl, 40);
        assert_eq!(main.calls, 1);
        // foo: [10,30) both ways.
        assert_eq!(foo.cycles_excl, 20);
        assert_eq!(foo.cycles_incl, 20);
        // Folded stacks cover every charged cycle.
        let total: u64 = m.folded.values().sum();
        assert_eq!(total, 40);
        assert_eq!(m.folded[&(0, vec![0])], 20);
        assert_eq!(m.folded[&(0, vec![0, 1])], 20);
    }

    #[test]
    fn recursion_counts_inclusive_once() {
        let mut p = Profiler::new(4);
        p.note(0, 0, VmEvent::Enter { method: 1 });
        p.note(0, 0, VmEvent::Switch { to: 0, nyp: 0 });
        p.note(5, 0, VmEvent::Enter { method: 1 }); // foo calls itself
        p.note(15, 0, VmEvent::Exit { method: 1 });
        p.note(20, 0, VmEvent::Exit { method: 1 });
        let m = ProfileModel::build(&p, 20);
        let foo = m.methods[&1];
        assert_eq!(foo.calls, 2);
        assert_eq!(foo.cycles_excl, 20, "all cycles are foo's");
        assert_eq!(foo.cycles_incl, 20, "recursion not double-counted");
    }

    #[test]
    fn switch_changes_charging_thread() {
        let mut p = Profiler::new(4);
        p.note(0, 0, VmEvent::Enter { method: 0 });
        p.note(0, 1, VmEvent::Enter { method: 2 }); // spawned, not yet running
        p.note(0, 0, VmEvent::Switch { to: 0, nyp: 0 });
        p.note(10, 1, VmEvent::Switch { to: 1, nyp: 1 }); // t1 runs [10,25)
        p.note(25, 0, VmEvent::Switch { to: 0, nyp: 1 }); // t0 runs [25,30)
        let m = ProfileModel::build(&p, 30);
        assert_eq!(m.thread_cycles[&0], 15);
        assert_eq!(m.thread_cycles[&1], 15);
        assert_eq!(m.switches, 3);
        assert_eq!(m.methods[&0].cycles_excl, 15);
        assert_eq!(m.methods[&2].cycles_excl, 15);
    }

    #[test]
    fn idle_running_thread_charges_sched_phase() {
        let mut p = Profiler::new(4);
        p.note(0, 0, VmEvent::Enter { method: 0 });
        p.note(0, 0, VmEvent::Switch { to: 0, nyp: 0 });
        p.note(10, 0, VmEvent::ThreadEnd);
        p.note(16, 1, VmEvent::Switch { to: 1, nyp: 0 }); // 6 cycles with no open frame on t0
        p.note(16, 1, VmEvent::Enter { method: 2 });
        let m = ProfileModel::build(&p, 20);
        assert_eq!(m.phases[PHASE_SCHED as usize].cycles, 6);
        assert_eq!(m.phases[PHASE_INTERP as usize].cycles, m.total_cycles - 6);
    }

    #[test]
    fn phase_spans_count_and_accumulate_args() {
        let mut p = Profiler::new(4);
        p.note(0, 0, VmEvent::Enter { method: 0 });
        p.note(7, 0, VmEvent::GcBegin { collection: 1 });
        p.note(
            7,
            0,
            VmEvent::GcEnd {
                collection: 1,
                words: 128,
            },
        );
        p.note(
            9,
            0,
            VmEvent::Compile {
                method: 2,
                words: 33,
            },
        );
        let m = ProfileModel::build(&p, 10);
        assert_eq!(m.phases[PHASE_GC as usize].count, 1);
        assert_eq!(m.phases[PHASE_GC as usize].arg_total, 128);
        assert_eq!(m.phases[PHASE_GC as usize].cycles, 0, "zero-width");
        assert_eq!(m.phases[PHASE_COMPILE as usize].arg_total, 33);
    }

    #[test]
    fn chrome_trace_is_balanced_and_canonical() {
        let p = simple_log();
        let j = chrome_trace(&p, 40, &names());
        let s = j.to_string();
        assert_eq!(s, j.to_canonical_string(), "already canonical");
        let parsed = Json::parse(&s).unwrap();
        let evs = parsed.field("traceEvents").unwrap().as_arr().unwrap();
        let b = evs
            .iter()
            .filter(|e| e.field("ph").unwrap().as_str().unwrap() == "B")
            .count();
        let e = evs
            .iter()
            .filter(|e| e.field("ph").unwrap().as_str().unwrap() == "E")
            .count();
        assert_eq!(b, e, "every B has its E");
        assert!(s.contains("\"thread_name\""));
        assert!(s.contains("\"timebase\":\"logical-cycles\""));
    }

    #[test]
    fn chrome_trace_closes_open_spans_at_final_cycles() {
        let mut p = Profiler::new(4);
        p.note(0, 0, VmEvent::Enter { method: 0 });
        p.note(5, 0, VmEvent::Enter { method: 1 }); // never exits (deadlock/halt mid-frame)
        let j = chrome_trace(&p, 77, &names());
        let s = j.to_string();
        let evs = Json::parse(&s)
            .unwrap()
            .field("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .len();
        // 2 B + 2 synthesized E (no metadata: no thread_name calls).
        assert_eq!(evs, 4);
        assert!(s.contains("\"ts\":77"));
    }

    #[test]
    fn folded_stacks_deterministic_lines() {
        let p = simple_log();
        let m = ProfileModel::build(&p, 40);
        let f = folded_stacks(&m, &names());
        assert_eq!(f, "t0;main 20\nt0;main;foo 20\n");
    }

    #[test]
    fn summary_json_shape() {
        let mut p = simple_log();
        p.qop(1, 5);
        p.qop(1, 2);
        let m = ProfileModel::build(&p, 40);
        let j = summary_json(&p, &m, &names(), &["gen", "const"], 10);
        let s = j.to_string();
        assert_eq!(s, j.to_canonical_string());
        assert!(s.contains("\"hot_methods\""));
        assert!(s.contains("\"const\":{\"cycles\":7,\"dispatches\":2}"));
        assert!(s.contains("\"total_cycles\":40"));
        // Hottest first; main and foo tie at 20 excl, id breaks the tie.
        let hot = j.field("hot_methods").unwrap().as_arr().unwrap();
        assert_eq!(hot[0].field("method").unwrap().as_u64().unwrap(), 0);
    }

    #[test]
    fn top_methods_orders_by_exclusive_desc() {
        let mut p = Profiler::new(2);
        p.note(0, 0, VmEvent::Enter { method: 2 });
        p.note(0, 0, VmEvent::Switch { to: 0, nyp: 0 });
        p.note(30, 0, VmEvent::Exit { method: 2 });
        p.note(30, 0, VmEvent::Enter { method: 1 });
        p.note(40, 0, VmEvent::Exit { method: 1 });
        let m = ProfileModel::build(&p, 40);
        let top = m.top_methods(5);
        assert_eq!(top[0].0, 2);
        assert_eq!(top[1].0, 1);
        let one = m.top_methods(1);
        assert_eq!(one.len(), 1);
    }
}
