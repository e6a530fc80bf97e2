//! Observer-side telemetry: per-run capture, deterministic metrics JSON,
//! and divergence forensics.
//!
//! Everything in this module reads VM state *after* (or outside of) guest
//! execution — it can never perturb a run. Two disciplines keep the
//! output byte-deterministic across identical runs:
//!
//! * every quantity is an exact integer in deterministic units (VM steps,
//!   cycles, words, logical-clock values) — wall time never enters the
//!   payload;
//! * every JSON object is emitted through [`codec::Json::canonicalize`],
//!   so keys are sorted regardless of assembly order.

use crate::driver::RunReport;
use crate::replay::Desync;
use crate::trace::TraceStats;
use codec::Json;
use djvm::sched::SchedPressure;
use djvm::vm::VmCounters;
use djvm::{Vm, VmStatus};
use telemetry::{first_mismatch, EventRing, Histograms, RingMismatch};

/// End-of-phase cumulative marks, in deterministic units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    pub name: &'static str,
    /// Interpreter steps executed by the end of this phase.
    pub steps: u64,
    /// VM cycles elapsed by the end of this phase.
    pub cycles: u64,
    /// Heap allocations performed by the end of this phase.
    pub allocations: u64,
}

impl PhaseSpan {
    /// Snapshot the phase boundary "now".
    pub fn mark(name: &'static str, vm: &Vm) -> Self {
        Self {
            name,
            steps: vm.counters.steps,
            cycles: vm.cycles,
            allocations: vm.heap.stats.allocations,
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("allocations", Json::UInt(self.allocations)),
            ("cycles", Json::UInt(self.cycles)),
            ("name", Json::Str(self.name.into())),
            ("steps", Json::UInt(self.steps)),
        ])
    }
}

/// Everything the telemetry layer captured from one finished run: the
/// event-ring window, the hot-path histograms, heap and scheduler
/// occupancy, per-thread logical clocks, and the phase spans.
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    /// "record" | "replay" | "passthrough".
    pub mode: &'static str,
    pub timer: &'static str,
    pub wall: &'static str,
    pub ring: EventRing,
    pub histograms: Histograms,
    pub heap: djvm::heap::HeapStats,
    pub pressure: SchedPressure,
    /// `(tid, yield_points)` — each thread's final logical clock.
    pub thread_clocks: Vec<(u32, u64)>,
    pub phases: Vec<PhaseSpan>,
}

impl RunTelemetry {
    /// Capture the observer state of a finished run. Returns `None` when
    /// telemetry was not enabled on the VM.
    pub fn capture(vm: &mut Vm, mode: &'static str, phases: Vec<PhaseSpan>) -> Option<Box<Self>> {
        if !vm.telem.is_enabled() {
            return None;
        }
        // End-of-run occupancy sample (GC entry took the others).
        vm.heap.note_peak();
        Some(Box::new(Self {
            mode,
            timer: vm.timer.describe(),
            wall: vm.wall.describe(),
            ring: vm.telem.ring.clone(),
            histograms: vm.telem.histograms.clone(),
            heap: vm.heap.stats,
            pressure: vm.sched.pressure(),
            thread_clocks: vm.threads.iter().map(|t| (t.tid, t.yield_points)).collect(),
            phases,
        }))
    }

    pub fn to_json(&self) -> Json {
        let heap = Json::obj(vec![
            ("allocations", Json::UInt(self.heap.allocations)),
            ("collections", Json::UInt(self.heap.collections)),
            ("peak_words_in_use", Json::UInt(self.heap.peak_words_in_use)),
            ("words_allocated", Json::UInt(self.heap.words_allocated)),
            (
                "words_copied_or_swept",
                Json::UInt(self.heap.words_copied_or_swept),
            ),
        ]);
        let sched = Json::obj(vec![
            (
                "entry_blocked",
                Json::UInt(self.pressure.entry_blocked as u64),
            ),
            (
                "join_waiters",
                Json::UInt(self.pressure.join_waiters as u64),
            ),
            ("monitors", Json::UInt(self.pressure.monitors as u64)),
            ("ready", Json::UInt(self.pressure.ready as u64)),
            ("sleepers", Json::UInt(self.pressure.sleepers as u64)),
            ("waiting", Json::UInt(self.pressure.waiting as u64)),
        ]);
        let threads = Json::Arr(
            self.thread_clocks
                .iter()
                .map(|&(tid, yp)| {
                    Json::obj(vec![
                        ("tid", Json::UInt(tid as u64)),
                        ("yield_points", Json::UInt(yp)),
                    ])
                })
                .collect(),
        );
        Json::obj(vec![
            ("heap", heap),
            ("histograms", self.histograms.to_json()),
            (
                "meta",
                Json::obj(vec![
                    ("mode", Json::Str(self.mode.into())),
                    ("timer", Json::Str(self.timer.into())),
                    ("wall", Json::Str(self.wall.into())),
                ]),
            ),
            (
                "phases",
                Json::Arr(self.phases.iter().map(|p| p.to_json()).collect()),
            ),
            ("ring", self.ring.to_json()),
            ("sched", sched),
            ("threads", threads),
        ])
    }
}

fn status_name(s: &VmStatus) -> &'static str {
    match s {
        VmStatus::Running => "running",
        VmStatus::Halted => "halted",
        VmStatus::Deadlocked => "deadlocked",
        VmStatus::Error(_) => "error",
    }
}

/// Every [`VmCounters`] field by name, alphabetically.
fn counter_pairs(c: &VmCounters) -> [(&'static str, u64); 11] {
    [
        ("class_loads", c.class_loads),
        ("clock_reads", c.clock_reads),
        ("io_reads", c.io_reads),
        ("io_writes", c.io_writes),
        ("methods_compiled", c.methods_compiled),
        ("native_calls", c.native_calls),
        ("preemptive_switches", c.preemptive_switches),
        ("stack_growths", c.stack_growths),
        ("steps", c.steps),
        ("thread_switches", c.thread_switches),
        ("yield_points", c.yield_points),
    ]
}

/// Deterministic JSON view of the VM's event counters (alphabetical keys).
pub fn counters_json(c: &VmCounters) -> Json {
    let pairs = counter_pairs(c).map(|(name, v)| (name, Json::UInt(v)));
    Json::obj(pairs.to_vec())
}

/// The canonical metrics document for one run. Byte-deterministic: no
/// wall time, no host state, keys sorted. `trace` is included when the
/// run produced (or consumed) a DejaVu trace.
pub fn run_metrics_json(report: &RunReport, trace: Option<&TraceStats>) -> Json {
    let mut pairs: Vec<(&str, Json)> = vec![
        ("counters", counters_json(&report.counters)),
        ("cycles", Json::UInt(report.cycles)),
        ("fingerprint", Json::UInt(report.fingerprint)),
        ("gc_collections", Json::UInt(report.gc_collections)),
        ("state_digest", Json::UInt(report.state_digest)),
        ("status", Json::Str(status_name(&report.status).into())),
        (
            "telemetry",
            report
                .telemetry
                .as_ref()
                .map(|t| t.to_json())
                .unwrap_or(Json::Null),
        ),
    ];
    if let Some(ts) = trace {
        pairs.push(("trace", ts.to_json()));
    }
    let mut j = Json::obj(pairs);
    j.canonicalize();
    j
}

// ---------------------------------------------------------------------
// Divergence forensics
// ---------------------------------------------------------------------

/// A thread whose final logical clock differs between record and replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadClockDelta {
    pub tid: u32,
    pub record_nyp: u64,
    pub replay_nyp: u64,
}

/// The structured first-divergence localization the tentpole promises:
/// built whenever replay was not accurate, from the two sides' event
/// rings, per-thread logical clocks, and counter snapshots.
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    /// Desyncs the replayer itself detected (stream exhaustion/mismatch).
    pub desyncs: Vec<Desync>,
    /// First event-ring position where the sides disagree.
    pub first: Option<RingMismatch>,
    /// Threads whose final logical clocks differ.
    pub thread_clock_deltas: Vec<ThreadClockDelta>,
    /// `(counter, record value, replay value)` for differing counters.
    pub counter_deltas: Vec<(&'static str, u64, u64)>,
    pub fingerprint_match: bool,
    pub state_digest_match: bool,
    pub output_match: bool,
    /// Events the record-side bounded ring discarded (ring wrapped). When
    /// nonzero, `first_divergence` localizes only within the retained
    /// window — the true first mismatch may predate it.
    pub record_ring_dropped: u64,
    /// Same, for the replay side.
    pub replay_ring_dropped: u64,
}

impl DivergenceReport {
    /// Align the two sides of a diverged record/replay pair.
    pub fn build(record: &RunReport, replay: &RunReport, desyncs: Vec<Desync>) -> Self {
        let first = match (&record.telemetry, &replay.telemetry) {
            (Some(a), Some(b)) => first_mismatch(&a.ring.events(), &b.ring.events()),
            _ => None,
        };
        let thread_clock_deltas = match (&record.telemetry, &replay.telemetry) {
            (Some(a), Some(b)) => {
                let mut out = Vec::new();
                let max = a.thread_clocks.len().max(b.thread_clocks.len());
                for i in 0..max {
                    let rec = a.thread_clocks.get(i).copied();
                    let rep = b.thread_clocks.get(i).copied();
                    let tid = rec.or(rep).map(|(t, _)| t).unwrap_or(i as u32);
                    let rec_nyp = rec.map(|(_, y)| y).unwrap_or(0);
                    let rep_nyp = rep.map(|(_, y)| y).unwrap_or(0);
                    if rec_nyp != rep_nyp {
                        out.push(ThreadClockDelta {
                            tid,
                            record_nyp: rec_nyp,
                            replay_nyp: rep_nyp,
                        });
                    }
                }
                out
            }
            _ => Vec::new(),
        };
        let counter_deltas = counter_pairs(&record.counters)
            .iter()
            .zip(counter_pairs(&replay.counters).iter())
            .filter(|((_, a), (_, b))| a != b)
            .map(|(&(name, a), &(_, b))| (name, a, b))
            .collect();
        Self {
            desyncs,
            first,
            thread_clock_deltas,
            counter_deltas,
            fingerprint_match: record.fingerprint == replay.fingerprint,
            state_digest_match: record.state_digest == replay.state_digest,
            output_match: record.output == replay.output,
            record_ring_dropped: record
                .telemetry
                .as_ref()
                .map(|t| t.ring.dropped())
                .unwrap_or(0),
            replay_ring_dropped: replay
                .telemetry
                .as_ref()
                .map(|t| t.ring.dropped())
                .unwrap_or(0),
        }
    }

    pub fn to_json(&self) -> Json {
        let deltas = Json::Arr(
            self.thread_clock_deltas
                .iter()
                .map(|d| {
                    Json::obj(vec![
                        ("record_nyp", Json::UInt(d.record_nyp)),
                        ("replay_nyp", Json::UInt(d.replay_nyp)),
                        ("tid", Json::UInt(d.tid as u64)),
                    ])
                })
                .collect(),
        );
        let counters = Json::Arr(
            self.counter_deltas
                .iter()
                .map(|&(name, a, b)| {
                    Json::obj(vec![
                        ("counter", Json::Str(name.into())),
                        ("record", Json::UInt(a)),
                        ("replay", Json::UInt(b)),
                    ])
                })
                .collect(),
        );
        let mut j = Json::obj(vec![
            ("counter_deltas", counters),
            (
                "desyncs",
                Json::Arr(self.desyncs.iter().map(|d| d.to_json()).collect()),
            ),
            ("fingerprint_match", Json::Bool(self.fingerprint_match)),
            (
                "first_divergence",
                self.first
                    .as_ref()
                    .map(|m| m.to_json())
                    .unwrap_or(Json::Null),
            ),
            ("output_match", Json::Bool(self.output_match)),
            ("record_ring_dropped", Json::UInt(self.record_ring_dropped)),
            ("replay_ring_dropped", Json::UInt(self.replay_ring_dropped)),
            ("state_digest_match", Json::Bool(self.state_digest_match)),
            ("thread_clock_deltas", deltas),
        ]);
        j.canonicalize();
        j
    }

    /// Multi-line human rendering: names the first mismatched event's
    /// index and kind, then the supporting deltas.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        match &self.first {
            Some(m) => {
                out.push_str(&m.describe());
                out.push('\n');
            }
            None => out.push_str("first divergence: not localized (enable telemetry on both sides for ring alignment)\n"),
        }
        if self.record_ring_dropped > 0 || self.replay_ring_dropped > 0 {
            out.push_str(&format!(
                "event ring wrapped: record dropped {} event(s), replay dropped {} — \
                 localization covers only the retained window; the true first \
                 mismatch may be earlier (raise telemetry::DEFAULT_RING_CAP to widen it)\n",
                self.record_ring_dropped, self.replay_ring_dropped,
            ));
        }
        for d in &self.desyncs {
            out.push_str(&format!("desync: {}\n", d.describe()));
        }
        for d in &self.thread_clock_deltas {
            out.push_str(&format!(
                "thread {} logical clock: record nyp={} replay nyp={} (delta {})\n",
                d.tid,
                d.record_nyp,
                d.replay_nyp,
                d.record_nyp.abs_diff(d.replay_nyp),
            ));
        }
        for &(name, a, b) in &self.counter_deltas {
            out.push_str(&format!("counter {name}: record {a} replay {b}\n"));
        }
        out.push_str(&format!(
            "fingerprint match: {}; state digest match: {}; output match: {}",
            self.fingerprint_match, self.state_digest_match, self.output_match,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report(fingerprint: u64, ring_dropped: u64) -> RunReport {
        // A ring that holds nothing counts every event it is handed as dropped.
        let mut ring = EventRing::new(0);
        for collection in 0..ring_dropped {
            ring.push(
                0,
                telemetry::VmEvent::GcEnd {
                    collection,
                    words: 0,
                },
            );
        }
        RunReport {
            status: VmStatus::Halted,
            output: String::new(),
            fingerprint,
            state_digest: 0,
            counters: VmCounters::default(),
            gc_collections: 0,
            cycles: 0,
            wall_time: std::time::Duration::ZERO,
            telemetry: Some(Box::new(RunTelemetry {
                mode: "record",
                timer: "fixed",
                wall: "cycle",
                ring,
                histograms: Histograms::default(),
                heap: Default::default(),
                pressure: Default::default(),
                thread_clocks: Vec::new(),
                phases: Vec::new(),
            })),
            profile: None,
            mega: Default::default(),
        }
    }

    #[test]
    fn divergence_report_states_when_ring_wrapped() {
        let rec = fake_report(1, 9);
        let rep = fake_report(2, 0);
        let r = DivergenceReport::build(&rec, &rep, Vec::new());
        assert_eq!(r.record_ring_dropped, 9);
        assert_eq!(r.replay_ring_dropped, 0);
        let text = r.describe();
        assert!(
            text.contains("event ring wrapped: record dropped 9"),
            "{text}"
        );
        let json = r.to_json().to_string();
        assert!(json.contains("\"record_ring_dropped\":9"), "{json}");
        assert!(json.contains("\"replay_ring_dropped\":0"), "{json}");
        // No wrap, no warning.
        let quiet = DivergenceReport::build(&fake_report(1, 0), &fake_report(2, 0), Vec::new());
        assert!(!quiet.describe().contains("ring wrapped"));
    }

    #[test]
    fn phase_span_json_shape() {
        let p = PhaseSpan {
            name: "boot",
            steps: 0,
            cycles: 0,
            allocations: 12,
        };
        let s = p.to_json().to_string();
        assert!(codec::Json::parse(&s).is_ok());
        assert!(s.contains("\"name\":\"boot\""));
    }
}
