//! The bounded event ring: a trace of the last N scheduler and
//! instrumentation events, stamped with absolute sequence numbers.
//!
//! Sequence numbers are the alignment key for divergence forensics: the
//! record-side and replay-side VMs both number their events from zero in
//! logical order, so event `seq=k` on one side corresponds to event
//! `seq=k` on the other — in an accurate replay they are *equal*, and the
//! first `seq` where they differ localizes the divergence. The ring is
//! bounded (old events are dropped, counted in [`EventRing::dropped`])
//! so tracing never grows per-run memory unboundedly.

use codec::Json;
use std::collections::VecDeque;

/// One kind of instrumented event. Every variant carries the values the
/// deterministic replay contract depends on, so an event compares equal
/// across record/replay exactly when the execution agreed at that point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The scheduler dispatched thread `to`; `nyp` is that thread's
    /// logical clock (yield points executed) at dispatch.
    Switch { to: u32, nyp: u64 },
    /// A wall-clock read returned `value` (recorded value on replay).
    ClockRead { value: i64 },
    /// A native call to method id `method`.
    NativeCall { method: u32 },
    /// Garbage collection number `collection` ran.
    Gc { collection: u64 },
    /// A thread stack grew to `new_words` words.
    StackGrowth { new_words: u64 },
    /// Method id `method` was (lazily) compiled.
    Compile { method: u32 },
    /// Class id `class` was (lazily) loaded.
    ClassLoad { class: u32 },
    /// The loop headed at `loop_pc` in `method` crossed the tier-2 hotness
    /// threshold (`trip_count` taken backedges) and was compiled to its
    /// closed form, `block_width` accounted cycles per pass. Emitted at the
    /// threshold crossing, which happens at the same logical instant in
    /// every mode — tier-up is deterministic even though per-loop entry
    /// counts are not.
    MegaCompile {
        method: u32,
        loop_pc: u32,
        trip_count: u64,
        block_width: u64,
    },
}

impl EventKind {
    /// Stable lowercase name, used in JSON and forensic reports.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Switch { .. } => "switch",
            EventKind::ClockRead { .. } => "clock_read",
            EventKind::NativeCall { .. } => "native_call",
            EventKind::Gc { .. } => "gc",
            EventKind::StackGrowth { .. } => "stack_growth",
            EventKind::Compile { .. } => "compile",
            EventKind::ClassLoad { .. } => "class_load",
            EventKind::MegaCompile { .. } => "compile.mega",
        }
    }
}

/// One ring entry: an event kind, the thread it happened on, and its
/// absolute sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub seq: u64,
    pub tid: u32,
    pub kind: EventKind,
}

impl Event {
    /// Deterministic JSON (keys pre-sorted within each shape).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = Vec::with_capacity(7);
        match self.kind {
            EventKind::MegaCompile { block_width, .. } => {
                pairs.push(("block_width", Json::UInt(block_width)));
            }
            EventKind::ClassLoad { class } => {
                pairs.push(("class", Json::UInt(class as u64)));
            }
            EventKind::Gc { collection } => {
                pairs.push(("collection", Json::UInt(collection)));
            }
            _ => {}
        }
        pairs.push(("kind", Json::Str(self.kind.name().into())));
        match self.kind {
            EventKind::MegaCompile {
                loop_pc, method, ..
            } => {
                pairs.push(("loop_pc", Json::UInt(loop_pc as u64)));
                pairs.push(("method", Json::UInt(method as u64)));
            }
            EventKind::NativeCall { method } | EventKind::Compile { method } => {
                pairs.push(("method", Json::UInt(method as u64)));
            }
            EventKind::StackGrowth { new_words } => {
                pairs.push(("new_words", Json::UInt(new_words)));
            }
            EventKind::Switch { nyp, .. } => {
                pairs.push(("nyp", Json::UInt(nyp)));
            }
            _ => {}
        }
        pairs.push(("seq", Json::UInt(self.seq)));
        pairs.push(("tid", Json::UInt(self.tid as u64)));
        match self.kind {
            EventKind::Switch { to, .. } => pairs.push(("to", Json::UInt(to as u64))),
            EventKind::MegaCompile { trip_count, .. } => {
                pairs.push(("trip_count", Json::UInt(trip_count)));
            }
            EventKind::ClockRead { value } => pairs.push(("value", Json::Int(value))),
            _ => {}
        }
        Json::obj(pairs)
    }

    /// Human-oriented one-line rendering for CLI / debugger output.
    pub fn describe(&self) -> String {
        match self.kind {
            EventKind::Switch { to, nyp } => {
                format!(
                    "#{} tid {} switch to={} nyp={}",
                    self.seq, self.tid, to, nyp
                )
            }
            EventKind::ClockRead { value } => {
                format!("#{} tid {} clock_read value={}", self.seq, self.tid, value)
            }
            EventKind::NativeCall { method } => {
                format!(
                    "#{} tid {} native_call method={}",
                    self.seq, self.tid, method
                )
            }
            EventKind::Gc { collection } => {
                format!(
                    "#{} tid {} gc collection={}",
                    self.seq, self.tid, collection
                )
            }
            EventKind::StackGrowth { new_words } => format!(
                "#{} tid {} stack_growth new_words={}",
                self.seq, self.tid, new_words
            ),
            EventKind::Compile { method } => {
                format!("#{} tid {} compile method={}", self.seq, self.tid, method)
            }
            EventKind::ClassLoad { class } => {
                format!("#{} tid {} class_load class={}", self.seq, self.tid, class)
            }
            EventKind::MegaCompile {
                method,
                loop_pc,
                trip_count,
                block_width,
            } => format!(
                "#{} tid {} compile.mega method={} loop_pc={} trip_count={} block_width={}",
                self.seq, self.tid, method, loop_pc, trip_count, block_width
            ),
        }
    }
}

/// A bounded ring of [`Event`]s. Pushing past capacity drops the oldest
/// event (and counts it); sequence numbers are absolute, so the ring
/// always holds the contiguous window `[next_seq - len, next_seq)`.
#[derive(Debug, Clone, Default)]
pub struct EventRing {
    cap: usize,
    next_seq: u64,
    dropped: u64,
    buf: VecDeque<Event>,
}

impl EventRing {
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            next_seq: 0,
            dropped: 0,
            buf: VecDeque::with_capacity(cap),
        }
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever pushed (== the next event's sequence number).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted to respect the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Append one event, evicting the oldest if the ring is full.
    pub fn push(&mut self, tid: u32, kind: EventKind) {
        let ev = Event {
            seq: self.next_seq,
            tid,
            kind,
        };
        self.next_seq += 1;
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Drop all buffered events (sequence numbering continues).
    pub fn clear(&mut self) {
        self.dropped += self.buf.len() as u64;
        self.buf.clear();
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.buf.iter().copied().collect()
    }

    /// Deterministic JSON: the retained window plus its bookkeeping.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("capacity", Json::UInt(self.cap as u64)),
            ("dropped", Json::UInt(self.dropped)),
            (
                "events",
                Json::Arr(self.buf.iter().map(|e| e.to_json()).collect()),
            ),
            ("next_seq", Json::UInt(self.next_seq)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_last_n_with_absolute_seqs() {
        let mut r = EventRing::new(3);
        for i in 0..5u64 {
            r.push(0, EventKind::Gc { collection: i });
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.next_seq(), 5);
        let evs = r.events();
        assert_eq!(evs[0].seq, 2, "oldest retained event");
        assert_eq!(evs[2].seq, 4, "newest retained event");
    }

    #[test]
    fn zero_capacity_ring_counts_but_stores_nothing() {
        let mut r = EventRing::new(0);
        r.push(1, EventKind::ClockRead { value: -3 });
        assert_eq!(r.len(), 0);
        assert_eq!(r.next_seq(), 1);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn event_json_is_valid_and_distinct_per_kind() {
        let kinds = [
            EventKind::Switch { to: 2, nyp: 40 },
            EventKind::ClockRead { value: -7 },
            EventKind::NativeCall { method: 9 },
            EventKind::Gc { collection: 3 },
            EventKind::StackGrowth { new_words: 512 },
            EventKind::Compile { method: 4 },
            EventKind::ClassLoad { class: 1 },
            EventKind::MegaCompile {
                method: 6,
                loop_pc: 11,
                trip_count: 64,
                block_width: 9,
            },
        ];
        for (i, k) in kinds.iter().enumerate() {
            let ev = Event {
                seq: i as u64,
                tid: 7,
                kind: *k,
            };
            let s = ev.to_json().to_string();
            assert!(codec::Json::parse(&s).is_ok(), "invalid json: {s}");
            assert!(s.contains(k.name()), "{s} missing kind name");
            assert!(!ev.describe().is_empty());
        }
    }

    #[test]
    fn clear_preserves_sequence_numbering() {
        let mut r = EventRing::new(8);
        r.push(0, EventKind::ClassLoad { class: 0 });
        r.push(0, EventKind::Compile { method: 0 });
        r.clear();
        assert_eq!(r.len(), 0);
        r.push(0, EventKind::Gc { collection: 0 });
        assert_eq!(r.events()[0].seq, 2);
    }
}
