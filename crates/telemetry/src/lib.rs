//! Perturbation-free observability for the replay platform.
//!
//! The paper's defining constraint (§2.4) is that *observing* an execution
//! must not *change* it: record and replay stay symmetric only if every
//! byte the observer touches lives outside the guest-visible machine —
//! outside the logical clock (yield-point counting), outside the guest
//! heap and allocator, and outside the execution fingerprint. This crate
//! is that observer. It owns:
//!
//! * [`event`] — [`VmEvent`], every VM event named once with its payload.
//!   The VM reports each one through one call, `Vm::note`, which hands it
//!   to [`VmTelemetry::note`]; each sink below keeps the variants its view
//!   needs,
//! * [`metrics`] — a registry of counters and log2-bucketed histograms
//!   with stable (sorted) ordering and deterministic JSON
//!   export through `codec`,
//! * [`ring`] — a bounded event ring recording the last N scheduler /
//!   instrumentation events (thread switches with their logical-clock
//!   value, clock reads, native calls, GCs, stack growths, compiles,
//!   class loads, closed-loop compiles) with absolute sequence numbers,
//! * [`profile`] — the replay-time profiler's event log and its offline
//!   aggregation and exports,
//! * [`forensics`] — ring alignment: given the record-side and
//!   replay-side rings, find the first sequence number at which they
//!   disagree, which localizes a divergence to an event index and kind.
//!
//! Neutrality is enforced two ways: by construction (nothing here is
//! reachable from the guest heap, the scheduler, or the fingerprint),
//! and by test (`dejavu`'s telemetry-neutrality suite proves fingerprints
//! are bit-identical with telemetry on vs. off for every symmetry
//! ablation).

pub mod event;
pub mod forensics;
pub mod metrics;
pub mod profile;
pub mod ring;

pub use event::VmEvent;
pub use forensics::{first_mismatch, RingMismatch};
pub use metrics::{Histogram, Registry};
pub use profile::{ProfEvent, ProfileModel, Profiler};
pub use ring::{Event, EventRing};

use codec::Json;

/// Ring capacity: enough to hold the tail of any divergence window
/// without growing per-run memory unboundedly.
pub const DEFAULT_RING_CAP: usize = 64;

/// The distributions fed from hot paths.
#[derive(Debug, Clone, Default)]
pub struct Histograms {
    /// Timer interrupt intervals (cycles between ticks).
    pub timer_intervals: Histogram,
    /// Allocation sizes in words.
    pub alloc_words: Histogram,
    /// Compiled method sizes in code words.
    pub compile_words: Histogram,
}

impl Histograms {
    /// Observe `ev` if it is one a histogram keeps; ignore it otherwise.
    #[inline(always)]
    pub fn note(&mut self, ev: VmEvent) {
        match ev {
            VmEvent::TimerTick { interval } => self.timer_intervals.observe(interval),
            VmEvent::Alloc { words } => self.alloc_words.observe(words),
            VmEvent::Compile { words, .. } => self.compile_words.observe(words),
            _ => {}
        }
    }

    /// Deterministic JSON, one object per histogram (keys sorted).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("alloc_words", self.alloc_words.to_json()),
            ("compile_words", self.compile_words.to_json()),
            ("timer_intervals", self.timer_intervals.to_json()),
        ])
    }
}

/// The per-VM telemetry sink: an event ring plus the histograms fed from
/// hot paths, and the profiler when armed. Owned by the VM as plain
/// observer state — never reachable from the guest heap, never hashed
/// into the fingerprint or the state digest, never part of a snapshot.
/// Off by default: then each event costs one branch per sink it could
/// reach.
#[derive(Debug, Clone, Default)]
pub struct VmTelemetry {
    enabled: bool,
    /// Bounded trace of the most recent events.
    pub ring: EventRing,
    pub histograms: Histograms,
    /// The replay-time profiler, when armed (see [`profile`]). Like the
    /// rest of this struct it is pure observer state: the VM appends
    /// span/switch events and QOp cycle counts here, and nothing here is
    /// ever read back by execution, fingerprinting, or snapshots.
    pub profile: Option<Box<Profiler>>,
}

impl VmTelemetry {
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turn the ring and the histograms on, empty, with a ring of
    /// [`DEFAULT_RING_CAP`] events. An armed profiler stays armed.
    pub fn enable(&mut self) {
        self.enabled = true;
        self.ring = EventRing::new(DEFAULT_RING_CAP);
        self.histograms = Histograms::default();
    }

    /// Hand one event on thread `tid` at logical time `cycles` to every
    /// sink that is on. Each sink keeps only its own variants, so at a
    /// site whose event no sink keeps, the branch folds away.
    #[inline(always)]
    pub fn note(&mut self, tid: u32, cycles: u64, ev: VmEvent) {
        if self.enabled {
            self.ring.note(tid, ev);
            self.histograms.note(ev);
        }
        if let Some(p) = self.profile.as_deref_mut() {
            p.note(cycles, tid, ev);
        }
    }

    /// Called when the VM is restored from a snapshot (time-travel seek):
    /// the ring would otherwise mix events from abandoned timelines, so
    /// it is cleared — after a restore the ring holds "events since the
    /// last restore". Histograms keep accumulating; they describe the
    /// whole session, not one timeline.
    pub fn on_restore(&mut self) {
        self.ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let mut t = VmTelemetry::default();
        t.note(
            0,
            0,
            VmEvent::GcEnd {
                collection: 1,
                words: 8,
            },
        );
        t.note(0, 0, VmEvent::TimerTick { interval: 100 });
        t.note(0, 0, VmEvent::Alloc { words: 8 });
        t.note(
            0,
            0,
            VmEvent::Compile {
                method: 0,
                words: 32,
            },
        );
        assert!(!t.is_enabled());
        assert_eq!(t.ring.len(), 0);
        assert_eq!(t.ring.next_seq(), 0);
        assert_eq!(t.histograms.timer_intervals.count(), 0);
        assert_eq!(t.histograms.alloc_words.count(), 0);
        assert_eq!(t.histograms.compile_words.count(), 0);
    }

    #[test]
    fn enabled_sink_records_and_restore_clears_ring_only() {
        let mut t = VmTelemetry::default();
        t.enable();
        t.note(1, 0, VmEvent::ClockRead { value: 7 });
        t.note(
            2,
            0,
            VmEvent::GcEnd {
                collection: 1,
                words: 8,
            },
        );
        t.note(2, 0, VmEvent::Alloc { words: 16 });
        t.note(2, 0, VmEvent::Enter { method: 3 });
        assert_eq!(
            t.ring.len(),
            2,
            "allocations and frames stay out of the ring"
        );
        t.on_restore();
        assert_eq!(t.ring.len(), 0, "restore clears the ring");
        assert_eq!(t.ring.next_seq(), 2, "sequence numbers keep advancing");
        assert_eq!(
            t.histograms.alloc_words.count(),
            1,
            "histograms survive restore"
        );
    }
}
