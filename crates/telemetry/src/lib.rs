//! Perturbation-free observability for the replay platform.
//!
//! The paper's defining constraint (§2.4) is that *observing* an execution
//! must not *change* it: record and replay stay symmetric only if every
//! byte the observer touches lives outside the guest-visible machine —
//! outside the logical clock (yield-point counting), outside the guest
//! heap and allocator, and outside the execution fingerprint. This crate
//! is that observer. It owns three pieces:
//!
//! * [`metrics`] — a registry of counters and log2-bucketed histograms
//!   with stable (sorted) ordering and deterministic JSON
//!   export through `codec`,
//! * [`ring`] — a bounded event ring recording the last N scheduler /
//!   instrumentation events (thread switches with their logical-clock
//!   value, clock reads, native calls, GCs, stack growths, compiles,
//!   class loads) with absolute sequence numbers,
//! * [`forensics`] — ring alignment: given the record-side and
//!   replay-side rings, find the first sequence number at which they
//!   disagree, which localizes a divergence to an event index and kind.
//!
//! Neutrality is enforced two ways: by construction (nothing here is
//! reachable from the guest heap, the scheduler, or the fingerprint),
//! and by test (`dejavu`'s telemetry-neutrality suite proves fingerprints
//! are bit-identical with telemetry on vs. off for every symmetry
//! ablation).

pub mod forensics;
pub mod metrics;
pub mod profile;
pub mod ring;

pub use forensics::{first_mismatch, RingMismatch};
pub use metrics::{Histogram, Registry};
pub use profile::{ProfEvent, ProfKind, ProfileModel, Profiler};
pub use ring::{Event, EventKind, EventRing};

/// Default ring capacity: enough to hold the tail of any divergence
/// window without growing per-run memory unboundedly.
pub const DEFAULT_RING_CAP: usize = 64;

/// The per-VM telemetry sink: an event ring plus the histograms fed from
/// hot paths. Owned by the VM as plain observer state — never reachable
/// from the guest heap, never hashed into the fingerprint or the state
/// digest, never part of a snapshot.
#[derive(Debug, Clone)]
pub struct VmTelemetry {
    enabled: bool,
    /// Bounded trace of the most recent instrumentation events.
    pub ring: EventRing,
    /// Distribution of timer interrupt intervals (cycles between ticks).
    pub timer_intervals: Histogram,
    /// Distribution of allocation sizes in words.
    pub alloc_words: Histogram,
    /// Distribution of compiled method sizes in code words.
    pub compile_words: Histogram,
    /// The replay-time profiler, when armed (see [`profile`]). Like the
    /// rest of this struct it is pure observer state: the VM appends
    /// span/switch events and QOp cycle counts here, and nothing here is
    /// ever read back by execution, fingerprinting, or snapshots.
    pub profile: Option<Box<Profiler>>,
}

impl VmTelemetry {
    /// The default state: telemetry off, zero-capacity ring, no overhead
    /// beyond one branch per instrumentation site.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ring: EventRing::new(0),
            timer_intervals: Histogram::new(),
            alloc_words: Histogram::new(),
            compile_words: Histogram::new(),
            profile: None,
        }
    }

    /// Telemetry on, with a ring of the given capacity.
    pub fn enabled(ring_cap: usize) -> Self {
        Self {
            enabled: true,
            ring: EventRing::new(ring_cap),
            timer_intervals: Histogram::new(),
            alloc_words: Histogram::new(),
            compile_words: Histogram::new(),
            profile: None,
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one event on thread `tid`. No-op when disabled.
    #[inline]
    pub fn event(&mut self, tid: u32, kind: EventKind) {
        if self.enabled {
            self.ring.push(tid, kind);
        }
    }

    /// Observe one timer interrupt interval. No-op when disabled.
    #[inline]
    pub fn timer_interval(&mut self, cycles: u64) {
        if self.enabled {
            self.timer_intervals.observe(cycles);
        }
    }

    /// Observe one allocation of `words` words. No-op when disabled.
    #[inline]
    pub fn alloc(&mut self, words: u64) {
        if self.enabled {
            self.alloc_words.observe(words);
        }
    }

    /// Observe one method compilation of `words` code words. No-op when
    /// disabled.
    #[inline]
    pub fn compile(&mut self, words: u64) {
        if self.enabled {
            self.compile_words.observe(words);
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

impl Default for VmTelemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let mut t = VmTelemetry::disabled();
        t.event(0, EventKind::Gc { collection: 1 });
        t.timer_interval(100);
        t.alloc(8);
        t.compile(32);
        assert!(!t.is_enabled());
        assert_eq!(t.ring.len(), 0);
        assert_eq!(t.ring.next_seq(), 0);
        assert_eq!(t.timer_intervals.count(), 0);
        assert_eq!(t.alloc_words.count(), 0);
        assert_eq!(t.compile_words.count(), 0);
    }

    #[test]
    fn enabled_sink_records_and_restore_clears_ring_only() {
        let mut t = VmTelemetry::enabled(4);
        t.event(1, EventKind::ClockRead { value: 7 });
        t.event(2, EventKind::Gc { collection: 1 });
        t.alloc(16);
        assert_eq!(t.ring.len(), 2);
        t.on_restore();
        assert_eq!(t.ring.len(), 0, "restore clears the ring");
        assert_eq!(t.ring.next_seq(), 2, "sequence numbers keep advancing");
        assert_eq!(t.alloc_words.count(), 1, "histograms survive restore");
    }
}
