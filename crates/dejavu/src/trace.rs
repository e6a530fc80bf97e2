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
//! The flat binary encoding is varint-based (the shared [`codec::bin`]
//! primitives) and write-only: [`Trace::encoded`] exists for
//! byte-equality checks and for [`TraceStats`], the sizes the trace-size
//! experiment (E5) compares against the baselines. What is read back is
//! DJVB ([`crate::blocktrace`]).
//!
//! In *paranoid* mode each switch record additionally carries the thread
//! id observed during record, used purely as a replay-desync detector —
//! the paper's minimal trace does not need it.

use codec::{put_varint, zigzag};
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

/// A complete recording of one execution's non-determinism.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    pub paranoid: bool,
    pub switches: Vec<SwitchRec>,
    pub data: Vec<DataRec>,
}

/// Byte-level size breakdown (experiment E5), now with per-event-kind
/// accounting: how many encoded bytes each stream kind contributes, and
/// the varint encoding's compression ratio against a fixed-width
/// equivalent of the same records (8-byte integers, 4-byte ids/counts).
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

const MAGIC: &[u8; 4] = b"DJV1";

impl Trace {
    /// Encode to the canonical flat byte form (`DJV1`). An in-memory
    /// encoding — size accounting and byte-equality checks — not a file
    /// format: files are DJVB ([`crate::blocktrace`]).
    pub fn encoded(&self) -> Vec<u8> {
        self.measured().0
    }

    /// Size breakdown of the encoded trace, per event kind.
    pub fn stats(&self) -> TraceStats {
        self.measured().1
    }

    /// The one walk over the records: the flat bytes, and where they
    /// went. Sizes are read off the output as it grows, so the layout is
    /// written once and `total_bytes == encoded().len()` by construction.
    fn measured(&self) -> (Vec<u8>, TraceStats) {
        // Fixed-width equivalent: every switch is 8 bytes of nyp (+4 of
        // check tid in paranoid mode); every data record is a tag byte
        // plus 8-byte integers and 4-byte ids/counts.
        let mut st = TraceStats {
            switch_count: self.switches.len(),
            raw_bytes: self.switches.len() * if self.paranoid { 12 } else { 8 },
            ..TraceStats::default()
        };
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(self.paranoid as u8);
        put_varint(&mut out, self.switches.len() as u64);
        let switches_at = out.len();
        for s in &self.switches {
            put_varint(&mut out, s.nyp);
            if self.paranoid {
                put_varint(&mut out, s.check_tid as u64);
            }
        }
        st.switch_bytes = out.len() - switches_at;
        put_varint(&mut out, self.data.len() as u64);
        for d in &self.data {
            let record_at = out.len();
            match d {
                DataRec::Clock(v) => {
                    out.push(0);
                    put_varint(&mut out, zigzag(*v));
                    st.clock_count += 1;
                    st.clock_bytes += out.len() - record_at;
                    st.raw_bytes += 1 + 8;
                }
                DataRec::Native { ret, callbacks } => {
                    out.push(1);
                    put_varint(&mut out, zigzag(*ret));
                    put_varint(&mut out, callbacks.len() as u64);
                    st.raw_bytes += 1 + 8 + 4;
                    for (m, args) in callbacks {
                        put_varint(&mut out, *m as u64);
                        put_varint(&mut out, args.len() as u64);
                        st.raw_bytes += 4 + 4 + 8 * args.len();
                        for &a in args {
                            put_varint(&mut out, zigzag(a));
                        }
                    }
                    st.native_count += 1;
                    st.native_bytes += out.len() - record_at;
                }
            }
        }
        // Everything past the 5-byte header and the switch payload: the
        // two stream-length varints plus the data records.
        st.data_bytes = out.len() - st.switch_bytes - 5;
        st.total_bytes = out.len();
        (out, st)
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
        assert_eq!(Trace::default().encoded().len(), 7);
    }

    #[test]
    fn stats_count_streams() {
        let t = sample(false);
        let s = t.stats();
        assert_eq!(s.switch_count, 2);
        assert_eq!(s.clock_count, 3);
        assert_eq!(s.native_count, 1);
        assert_eq!(s.total_bytes, t.encoded().len());
        assert!(s.switch_bytes < s.total_bytes);
    }

    #[test]
    fn per_kind_bytes_partition_the_data_stream() {
        let t = sample(false);
        let s = t.stats();
        assert!(s.clock_bytes > 0 && s.native_bytes > 0);
        // `data_bytes` is everything past the header and switch payload:
        // the two stream-length varints plus the per-kind record bytes
        // (tags included in the kind that owns them).
        let mut lenbuf = Vec::new();
        put_varint(&mut lenbuf, t.switches.len() as u64);
        put_varint(&mut lenbuf, t.data.len() as u64);
        assert_eq!(s.clock_bytes + s.native_bytes + lenbuf.len(), s.data_bytes);
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
