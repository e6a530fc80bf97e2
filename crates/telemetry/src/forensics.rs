//! Ring alignment: localize the first divergence between the record-side
//! and replay-side event rings.
//!
//! Both rings number events absolutely from zero, so each holds one
//! contiguous window of the logical event sequence. Alignment compares
//! the overlapping part of the two windows event-by-event; the first
//! sequence number where the sides disagree — different kind, thread, or
//! payload (e.g. a switch at a different `nyp`) — is where the replayed
//! execution left the recorded one. If the overlap agrees but one side
//! ran longer, the first event past the shorter side's end is reported
//! with the missing side as `None`.

use crate::ring::Event;
use codec::Json;

/// The first aligned position where the two rings disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingMismatch {
    /// The event index (absolute sequence number) of the divergence.
    pub seq: u64,
    /// The record side's event at `seq`, if its ring retained it.
    pub record: Option<Event>,
    /// The replay side's event at `seq`, if its ring retained it.
    pub replay: Option<Event>,
}

impl RingMismatch {
    /// The divergent event's kind name, preferring the replay side (the
    /// side that went wrong), falling back to the record side.
    pub fn kind_name(&self) -> &'static str {
        self.replay
            .or(self.record)
            .map(|e| e.kind.name())
            .unwrap_or("unknown")
    }

    pub fn to_json(&self) -> Json {
        let side = |e: &Option<Event>| e.map(|e| e.to_json()).unwrap_or(Json::Null);
        Json::obj(vec![
            ("kind", Json::Str(self.kind_name().into())),
            ("record", side(&self.record)),
            ("replay", side(&self.replay)),
            ("seq", Json::UInt(self.seq)),
        ])
    }

    pub fn describe(&self) -> String {
        let side = |e: &Option<Event>| {
            e.map(|e| e.describe())
                .unwrap_or_else(|| "<not present>".into())
        };
        format!(
            "first divergence at event #{} ({}):\n  record: {}\n  replay: {}",
            self.seq,
            self.kind_name(),
            side(&self.record),
            side(&self.replay),
        )
    }
}

/// Seq window `[first, last+1)` of a contiguous event slice.
fn window(events: &[Event]) -> Option<(u64, u64)> {
    let first = events.first()?.seq;
    let last = events.last()?.seq;
    debug_assert_eq!(last - first + 1, events.len() as u64, "ring not contiguous");
    Some((first, last + 1))
}

/// Event at absolute sequence `seq` within a contiguous slice.
fn at(events: &[Event], seq: u64) -> Option<Event> {
    let (lo, hi) = window(events)?;
    if seq < lo || seq >= hi {
        return None;
    }
    Some(events[(seq - lo) as usize])
}

/// Align two contiguous event windows and return the first position
/// where they disagree, or `None` if they are indistinguishable (equal
/// over the overlap and ending at the same sequence number).
pub fn first_mismatch(record: &[Event], replay: &[Event]) -> Option<RingMismatch> {
    let (rec_w, rep_w) = match (window(record), window(replay)) {
        (Some(a), Some(b)) => (a, b),
        (None, None) => return None,
        // One side has events, the other has none at all: diverged at the
        // non-empty side's first retained event.
        (Some((lo, _)), None) => {
            return Some(RingMismatch {
                seq: lo,
                record: at(record, lo),
                replay: None,
            })
        }
        (None, Some((lo, _))) => {
            return Some(RingMismatch {
                seq: lo,
                record: None,
                replay: at(replay, lo),
            })
        }
    };
    let start = rec_w.0.max(rep_w.0);
    let end = rec_w.1.min(rep_w.1);
    for seq in start..end.max(start) {
        let r = at(record, seq);
        let p = at(replay, seq);
        if r != p {
            return Some(RingMismatch {
                seq,
                record: r,
                replay: p,
            });
        }
    }
    // Overlap (possibly empty) agrees; a tail-length difference is still
    // a divergence — one side saw events the other never produced.
    if rec_w.1 != rep_w.1 {
        let seq = rec_w.1.min(rep_w.1);
        return Some(RingMismatch {
            seq,
            record: at(record, seq),
            replay: at(replay, seq),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::VmEvent;
    use crate::ring::EventRing;

    fn ring_of(kinds: &[(u32, VmEvent)], cap: usize) -> EventRing {
        let mut r = EventRing::new(cap);
        for &(tid, k) in kinds {
            r.push(tid, k);
        }
        r
    }

    #[test]
    fn identical_rings_have_no_mismatch() {
        let evs = [
            (0, VmEvent::Switch { to: 1, nyp: 10 }),
            (1, VmEvent::ClockRead { value: 5 }),
            (
                1,
                VmEvent::GcEnd {
                    words: 0,
                    collection: 1,
                },
            ),
        ];
        let a = ring_of(&evs, 8);
        let b = ring_of(&evs, 8);
        assert_eq!(first_mismatch(&a.events(), &b.events()), None);
    }

    #[test]
    fn payload_difference_is_localized() {
        let a = ring_of(
            &[
                (0, VmEvent::Switch { to: 1, nyp: 10 }),
                (1, VmEvent::Switch { to: 0, nyp: 20 }),
            ],
            8,
        );
        let b = ring_of(
            &[
                (0, VmEvent::Switch { to: 1, nyp: 10 }),
                (1, VmEvent::Switch { to: 0, nyp: 21 }),
            ],
            8,
        );
        let m = first_mismatch(&a.events(), &b.events()).unwrap();
        assert_eq!(m.seq, 1);
        assert_eq!(m.kind_name(), "switch");
        assert!(m.record.is_some() && m.replay.is_some());
        assert!(m.describe().contains("event #1"));
    }

    #[test]
    fn different_capacities_still_align_on_overlap() {
        // Record ring kept everything; replay ring dropped its oldest.
        let evs: Vec<(u32, VmEvent)> = (0..6)
            .map(|i| {
                (
                    0,
                    VmEvent::GcEnd {
                        words: 0,
                        collection: i,
                    },
                )
            })
            .collect();
        let mut bad = evs.clone();
        bad[4] = (
            0,
            VmEvent::GcEnd {
                words: 0,
                collection: 99,
            },
        );
        let a = ring_of(&evs, 16);
        let b = ring_of(&bad, 3); // retains seqs 3..6
        let m = first_mismatch(&a.events(), &b.events()).unwrap();
        assert_eq!(m.seq, 4);
    }

    #[test]
    fn tail_length_difference_is_a_divergence() {
        let evs = [
            (0, VmEvent::ClockRead { value: 1 }),
            (0, VmEvent::ClockRead { value: 2 }),
        ];
        let a = ring_of(&evs, 8);
        let mut b = ring_of(&evs, 8);
        b.push(0, VmEvent::ClockRead { value: 3 });
        let m = first_mismatch(&a.events(), &b.events()).unwrap();
        assert_eq!(m.seq, 2);
        assert_eq!(m.record, None);
        assert!(m.replay.is_some());
        assert_eq!(m.kind_name(), "clock_read");
    }

    #[test]
    fn one_empty_side_diverges_at_first_event() {
        let a = ring_of(
            &[(
                0,
                VmEvent::GcEnd {
                    words: 0,
                    collection: 0,
                },
            )],
            8,
        );
        let b = EventRing::new(8);
        let m = first_mismatch(&a.events(), &b.events()).unwrap();
        assert_eq!(m.seq, 0);
        assert!(m.replay.is_none());
        assert_eq!(first_mismatch(&b.events(), &b.events()), None);
    }

    #[test]
    fn mismatch_json_is_valid() {
        let a = ring_of(
            &[(
                0,
                VmEvent::Compile {
                    method: 1,
                    words: 8,
                },
            )],
            4,
        );
        let b = ring_of(
            &[(
                0,
                VmEvent::Compile {
                    method: 2,
                    words: 8,
                },
            )],
            4,
        );
        let m = first_mismatch(&a.events(), &b.events()).unwrap();
        assert!(codec::Json::parse(&m.to_json().to_string()).is_ok());
    }
}
