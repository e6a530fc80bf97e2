//! The DejaVu trace: what record captures and replay consumes.
//!
//! A trace has two logical streams, matching the paper's design:
//!
//! * the **switch stream** — one record per *preemptive* thread switch,
//!   carrying only the yield-point delta `nyp` since the previous switch
//!   (Fig. 2). Deterministic switches (synchronization) are *not* logged;
//!   that is DejaVu's headline trace-size advantage over schemes that log
//!   every critical event (§5).
//! * the **data stream** — the out-states of non-deterministic operations
//!   in execution order: wall-clock reads (§2.2) and native-call outcomes
//!   including callback parameters (§2.5).
//!
//! [`Trace::stats`] sizes a trace under the one model the trace-size
//! experiment (E5) uses for DejaVu and every baseline: a 5-byte header
//! (a 4-byte magic and the paranoid flag), a varint count per stream, and
//! each record's fields as LEB128 varints ([`codec::varint_len`]). The
//! model counts bytes; nothing writes them. What is written and read back
//! is DJVB ([`crate::blocktrace`]).
//!
//! In *paranoid* mode each switch record additionally carries the thread
//! id observed during record, used purely as a replay-desync detector —
//! the paper's minimal trace does not need it.

use codec::{varint_len, zigzag};
use djvm::MethodId;

/// One preemptive thread switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchRec {
    /// Yield points executed (on the logical clock) since the last
    /// preemptive switch.
    pub nyp: u64,
    /// Thread that was running when the switch happened (paranoid mode
    /// only; `u32::MAX` when absent).
    pub check_tid: u32,
}

/// One non-deterministic data event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataRec {
    /// A wall-clock read (an `Op::Now`, a timed-wait/sleep deadline
    /// computation, or a scheduler idle-wake read).
    Clock(i64),
    /// A native call's observable outcome.
    Native {
        ret: i64,
        callbacks: Vec<(MethodId, Vec<i64>)>,
    },
}

impl DataRec {
    /// Bytes this record takes in the E5 size model: a tag byte, then its
    /// integers as varints (signed ones zigzagged). The one definition of a
    /// data stream's size: [`Trace::stats`] and the §5 baselines, which log
    /// the same data stream, all add these up.
    pub fn encoded_len(&self) -> usize {
        let signed = |v: i64| varint_len(zigzag(v));
        1 + match self {
            DataRec::Clock(v) => signed(*v),
            DataRec::Native { ret, callbacks } => {
                signed(*ret)
                    + varint_len(callbacks.len() as u64)
                    + callbacks
                        .iter()
                        .map(|(m, args)| {
                            varint_len(*m as u64)
                                + varint_len(args.len() as u64)
                                + args.iter().map(|&a| signed(a)).sum::<usize>()
                        })
                        .sum::<usize>()
            }
        }
    }
}

/// The size model's fixed header: a 4-byte magic and the paranoid flag.
pub const HEADER_BYTES: usize = 5;

/// A complete recording of one execution's non-determinism.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    pub paranoid: bool,
    pub switches: Vec<SwitchRec>,
    pub data: Vec<DataRec>,
}

/// Byte-level size breakdown (experiment E5) under the varint model, with
/// per-event-kind accounting: how many bytes each stream kind contributes,
/// and the model's compression ratio against a fixed-width equivalent of
/// the same records (8-byte integers, 4-byte ids/counts).
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceStats {
    pub switch_count: usize,
    pub clock_count: usize,
    pub native_count: usize,
    pub switch_bytes: usize,
    /// Encoded bytes of the clock-read portion of the data stream
    /// (including each record's tag byte).
    pub clock_bytes: usize,
    /// Encoded bytes of the native-call portion of the data stream
    /// (including tags and callback payloads).
    pub native_bytes: usize,
    pub data_bytes: usize,
    pub total_bytes: usize,
    /// Size of the same records at fixed width: 8 bytes per integer,
    /// 4 bytes per id/count, 1 byte per tag — the naive encoding a
    /// log-everything recorder would write.
    pub raw_bytes: usize,
}

impl TraceStats {
    /// Varint compression ratio in permille: `encoded / raw * 1000`.
    /// Integer (not float) so telemetry JSON stays byte-deterministic.
    pub fn compression_permille(&self) -> u64 {
        if self.raw_bytes == 0 {
            return 1000;
        }
        (self.total_bytes as u64 * 1000) / self.raw_bytes as u64
    }

    /// Deterministic JSON (keys pre-sorted).
    pub fn to_json(&self) -> codec::Json {
        codec::Json::obj(vec![
            ("clock_bytes", codec::Json::UInt(self.clock_bytes as u64)),
            ("clock_count", codec::Json::UInt(self.clock_count as u64)),
            (
                "compression_permille",
                codec::Json::UInt(self.compression_permille()),
            ),
            ("data_bytes", codec::Json::UInt(self.data_bytes as u64)),
            ("native_bytes", codec::Json::UInt(self.native_bytes as u64)),
            ("native_count", codec::Json::UInt(self.native_count as u64)),
            ("raw_bytes", codec::Json::UInt(self.raw_bytes as u64)),
            ("switch_bytes", codec::Json::UInt(self.switch_bytes as u64)),
            ("switch_count", codec::Json::UInt(self.switch_count as u64)),
            ("total_bytes", codec::Json::UInt(self.total_bytes as u64)),
        ])
    }
}

impl Trace {
    /// Size breakdown of the trace under the E5 model, per event kind:
    /// the header, the switch count and switch records, then the data
    /// count and data records.
    pub fn stats(&self) -> TraceStats {
        // Fixed-width equivalent: every switch is 8 bytes of nyp (+4 of
        // check tid in paranoid mode); every data record is a tag byte
        // plus 8-byte integers and 4-byte ids/counts.
        let mut st = TraceStats {
            switch_count: self.switches.len(),
            raw_bytes: self.switches.len() * if self.paranoid { 12 } else { 8 },
            ..TraceStats::default()
        };
        for s in &self.switches {
            st.switch_bytes += varint_len(s.nyp);
            if self.paranoid {
                st.switch_bytes += varint_len(s.check_tid as u64);
            }
        }
        for d in &self.data {
            match d {
                DataRec::Clock(_) => {
                    st.clock_count += 1;
                    st.clock_bytes += d.encoded_len();
                    st.raw_bytes += 1 + 8;
                }
                DataRec::Native { callbacks, .. } => {
                    st.native_count += 1;
                    st.native_bytes += d.encoded_len();
                    st.raw_bytes += 1 + 8 + 4;
                    for (_, args) in callbacks {
                        st.raw_bytes += 4 + 4 + 8 * args.len();
                    }
                }
            }
        }
        // Everything past the header and the switch payload: the two
        // stream-length varints plus the data records.
        st.data_bytes = varint_len(self.switches.len() as u64)
            + varint_len(self.data.len() as u64)
            + st.clock_bytes
            + st.native_bytes;
        st.total_bytes = HEADER_BYTES + st.switch_bytes + st.data_bytes;
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(paranoid: bool) -> Trace {
        Trace {
            paranoid,
            switches: vec![
                SwitchRec {
                    nyp: 1,
                    check_tid: if paranoid { 0 } else { u32::MAX },
                },
                SwitchRec {
                    nyp: 100_000,
                    check_tid: if paranoid { 3 } else { u32::MAX },
                },
            ],
            data: vec![
                DataRec::Clock(0),
                DataRec::Clock(-5),
                DataRec::Clock(i64::MAX),
                DataRec::Native {
                    ret: -42,
                    callbacks: vec![(7, vec![1, -2, 3]), (9, vec![])],
                },
            ],
        }
    }

    #[test]
    fn empty_trace_is_its_header() {
        // Magic, flags byte and two zero-length stream counts.
        assert_eq!(Trace::default().stats().total_bytes, 7);
    }

    #[test]
    fn stats_count_streams() {
        let t = sample(false);
        let s = t.stats();
        assert_eq!(s.switch_count, 2);
        assert_eq!(s.clock_count, 3);
        assert_eq!(s.native_count, 1);
        // Header, switch varints of 1 and 3 bytes, clock records of 2, 2
        // and 11 bytes, a 10-byte native record and the two count varints.
        assert_eq!(s.switch_bytes, 1 + 3);
        assert_eq!(s.clock_bytes, 2 + 2 + 11);
        assert_eq!(s.native_bytes, 10);
        assert_eq!(s.total_bytes, HEADER_BYTES + 4 + 2 + 15 + 10);
    }

    #[test]
    fn per_kind_bytes_partition_the_data_stream() {
        let t = sample(false);
        let s = t.stats();
        assert!(s.clock_bytes > 0 && s.native_bytes > 0);
        // `data_bytes` is everything past the header and switch payload:
        // the two stream-length varints plus the per-kind record bytes
        // (tags included in the kind that owns them).
        assert_eq!(s.clock_bytes + s.native_bytes + 2, s.data_bytes);
    }

    #[test]
    fn varints_beat_fixed_width() {
        let s = sample(false).stats();
        assert!(s.raw_bytes > s.total_bytes);
        assert!(s.compression_permille() < 1000);
        // Empty trace: ratio defined as 1000 (no compression to speak of).
        assert_eq!(Trace::default().stats().compression_permille(), 1000);
    }

    #[test]
    fn stats_json_is_valid_and_deterministic() {
        let s = sample(true).stats();
        let a = s.to_json().to_string();
        let b = sample(true).stats().to_json().to_string();
        assert_eq!(a, b);
        assert!(codec::Json::parse(&a).is_ok());
        assert_eq!(a, s.to_json().to_canonical_string(), "keys pre-sorted");
    }

    #[test]
    fn paranoid_mode_costs_bytes() {
        let plain = sample(false).stats().total_bytes;
        let paranoid = sample(true).stats().total_bytes;
        assert!(paranoid > plain);
    }

    #[test]
    fn switch_stream_is_tiny() {
        // A million-yield-point delta still fits in 3 bytes: the essence of
        // the nyp-delta encoding.
        let t = Trace {
            paranoid: false,
            switches: vec![SwitchRec {
                nyp: 1_000_000,
                check_tid: u32::MAX,
            }],
            data: vec![],
        };
        assert!(t.stats().switch_bytes <= 3);
    }
}
