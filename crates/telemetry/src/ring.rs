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

use crate::event::VmEvent;
use codec::Json;
use std::collections::VecDeque;

/// One ring entry: an event, the thread it happened on, and its absolute
/// sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub seq: u64,
    pub tid: u32,
    pub kind: VmEvent,
}

impl Event {
    /// Deterministic JSON (keys pre-sorted within each shape).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = Vec::with_capacity(7);
        match self.kind {
            VmEvent::MegaCompile { block_width, .. } => {
                pairs.push(("block_width", Json::UInt(block_width)));
            }
            VmEvent::ClassLoad { class } => {
                pairs.push(("class", Json::UInt(class as u64)));
            }
            VmEvent::GcEnd { collection, .. } => {
                pairs.push(("collection", Json::UInt(collection)));
            }
            _ => {}
        }
        pairs.push(("kind", Json::Str(self.kind.name().into())));
        match self.kind {
            VmEvent::MegaCompile {
                loop_pc, method, ..
            } => {
                pairs.push(("loop_pc", Json::UInt(loop_pc as u64)));
                pairs.push(("method", Json::UInt(method as u64)));
            }
            VmEvent::NativeEnd { method } | VmEvent::Compile { method, .. } => {
                pairs.push(("method", Json::UInt(method as u64)));
            }
            VmEvent::StackGrowth { new_words } => {
                pairs.push(("new_words", Json::UInt(new_words)));
            }
            VmEvent::Switch { nyp, .. } => {
                pairs.push(("nyp", Json::UInt(nyp)));
            }
            _ => {}
        }
        pairs.push(("seq", Json::UInt(self.seq)));
        pairs.push(("tid", Json::UInt(self.tid as u64)));
        match self.kind {
            VmEvent::Switch { to, .. } => pairs.push(("to", Json::UInt(to as u64))),
            VmEvent::MegaCompile { trip_count, .. } => {
                pairs.push(("trip_count", Json::UInt(trip_count)));
            }
            VmEvent::ClockRead { value } => pairs.push(("value", Json::Int(value))),
            _ => {}
        }
        Json::obj(pairs)
    }

    /// Human-oriented one-line rendering for CLI / debugger output.
    pub fn describe(&self) -> String {
        match self.kind {
            VmEvent::Switch { to, nyp } => {
                format!(
                    "#{} tid {} switch to={} nyp={}",
                    self.seq, self.tid, to, nyp
                )
            }
            VmEvent::ClockRead { value } => {
                format!("#{} tid {} clock_read value={}", self.seq, self.tid, value)
            }
            VmEvent::NativeEnd { method } => {
                format!(
                    "#{} tid {} native_call method={}",
                    self.seq, self.tid, method
                )
            }
            VmEvent::GcEnd { collection, .. } => {
                format!(
                    "#{} tid {} gc collection={}",
                    self.seq, self.tid, collection
                )
            }
            VmEvent::StackGrowth { new_words } => format!(
                "#{} tid {} stack_growth new_words={}",
                self.seq, self.tid, new_words
            ),
            VmEvent::Compile { method, .. } => {
                format!("#{} tid {} compile method={}", self.seq, self.tid, method)
            }
            VmEvent::ClassLoad { class } => {
                format!("#{} tid {} class_load class={}", self.seq, self.tid, class)
            }
            VmEvent::MegaCompile {
                method,
                loop_pc,
                trip_count,
                block_width,
            } => format!(
                "#{} tid {} compile.mega method={} loop_pc={} trip_count={} block_width={}",
                self.seq, self.tid, method, loop_pc, trip_count, block_width
            ),
            _ => format!("#{} tid {} {}", self.seq, self.tid, self.kind.name()),
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

    /// Append `ev` if it is one of the events the ring holds; ignore it
    /// otherwise.
    #[inline(always)]
    pub fn note(&mut self, tid: u32, ev: VmEvent) {
        if let VmEvent::Switch { .. }
        | VmEvent::ClockRead { .. }
        | VmEvent::NativeEnd { .. }
        | VmEvent::GcEnd { .. }
        | VmEvent::StackGrowth { .. }
        | VmEvent::Compile { .. }
        | VmEvent::ClassLoad { .. }
        | VmEvent::MegaCompile { .. } = ev
        {
            self.push(tid, ev);
        }
    }

    /// Append one event, evicting the oldest if the ring is full.
    pub fn push(&mut self, tid: u32, kind: VmEvent) {
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
            r.push(
                0,
                VmEvent::GcEnd {
                    words: 0,
                    collection: i,
                },
            );
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
        r.push(1, VmEvent::ClockRead { value: -3 });
        assert_eq!(r.len(), 0);
        assert_eq!(r.next_seq(), 1);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn event_json_is_valid_and_distinct_per_kind() {
        let kinds = [
            VmEvent::Switch { to: 2, nyp: 40 },
            VmEvent::ClockRead { value: -7 },
            VmEvent::NativeEnd { method: 9 },
            VmEvent::GcEnd {
                words: 0,
                collection: 3,
            },
            VmEvent::StackGrowth { new_words: 512 },
            VmEvent::Compile {
                method: 4,
                words: 12,
            },
            VmEvent::ClassLoad { class: 1 },
            VmEvent::MegaCompile {
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
        r.push(0, VmEvent::ClassLoad { class: 0 });
        r.push(
            0,
            VmEvent::Compile {
                method: 0,
                words: 12,
            },
        );
        r.clear();
        assert_eq!(r.len(), 0);
        r.push(
            0,
            VmEvent::GcEnd {
                words: 0,
                collection: 0,
            },
        );
        assert_eq!(r.events()[0].seq, 2);
    }
}
