//! Property tests and fuzz loops for the fleet RPC layer: every request
//! and response — a debugger command and its answer included — round
//! trips, and truncated, extended or mutated payloads and hellos are
//! typed errors, never panics (the seeded-mutation loop of
//! djvb_fuzz.rs). The bytes of every message the benchmark exchanges are
//! pinned.

use dejavu_repro::debugger::{
    Command, FrameInfo, Response as DebugResponse, StopReason, ThreadInfo,
};
use dejavu_repro::fleet::{self, Request, Response, WireError};
use dejavu_repro::qc::{check, Gen};
use dejavu_repro::qc_assert;
use std::panic::{catch_unwind, AssertUnwindSafe};

mod counting;

/// A short string, mostly printable ASCII with the odd multi-byte char.
fn string(g: &mut Gen) -> String {
    let n = g.usize_in(0, 12);
    (0..n)
        .map(|_| match g.usize_in(0, 15) {
            0 => 'é',
            _ => char::from(g.u64_in(32, 126) as u8),
        })
        .collect()
}

fn any_u32(g: &mut Gen) -> u32 {
    g.u64_in(0, u32::MAX as u64) as u32
}

/// A random debugger command, any variant.
fn gen_command(g: &mut Gen) -> Command {
    match g.usize_in(0, 15) {
        0 => Command::Break {
            method: any_u32(g),
            pc: any_u32(g),
        },
        1 => Command::BreakLine {
            method: string(g),
            line: any_u32(g),
        },
        2 => Command::ClearBreak {
            method: any_u32(g),
            pc: any_u32(g),
        },
        3 => Command::Continue,
        4 => Command::Step,
        5 => Command::StepBack,
        6 => Command::Seek { step: g.any_u64() },
        7 => Command::Stack { tid: any_u32(g) },
        8 => Command::Threads,
        9 => Command::Inspect { addr: g.any_u64() },
        10 => Command::Disassemble { method: any_u32(g) },
        11 => Command::Output,
        12 => Command::Where,
        13 => Command::Metrics,
        14 => Command::Profile { top: g.any_u64() },
        _ => Command::Read {
            addr: g.any_u64(),
            n: g.any_u64(),
        },
    }
}

fn gen_stop_reason(g: &mut Gen) -> StopReason {
    match g.usize_in(0, 4) {
        0 => StopReason::Breakpoint {
            method: any_u32(g),
            pc: any_u32(g),
            tid: any_u32(g),
        },
        1 => StopReason::StepDone,
        2 => StopReason::Halted,
        3 => StopReason::Deadlocked,
        _ => StopReason::Error(string(g)),
    }
}

/// A random debugger response, any variant.
fn gen_debug_response(g: &mut Gen) -> DebugResponse {
    match g.usize_in(0, 11) {
        0 => DebugResponse::Ok,
        1 => DebugResponse::Stopped {
            reason: gen_stop_reason(g),
            step: g.any_u64(),
        },
        2 => DebugResponse::Stack {
            frames: g.vec_of(0, 3, |g| FrameInfo {
                method: any_u32(g),
                method_name: string(g),
                pc: any_u32(g),
                line: g.any_i64(),
                op: string(g),
            }),
        },
        3 => DebugResponse::Threads {
            threads: g.vec_of(0, 3, |g| ThreadInfo {
                tid: any_u32(g),
                name: string(g),
                status: string(g),
                method_name: string(g),
                pc: any_u32(g),
                yield_points: g.any_u64(),
            }),
        },
        4 => DebugResponse::Object {
            description: string(g),
        },
        5 => DebugResponse::Listing { text: string(g) },
        6 => DebugResponse::Output { text: string(g) },
        7 => DebugResponse::Location {
            method: string(g),
            pc: any_u32(g),
            line: g.any_i64(),
            step: g.any_u64(),
        },
        8 => DebugResponse::Metrics { json: string(g) },
        9 => DebugResponse::Profile { json: string(g) },
        10 => DebugResponse::Words {
            words: g.vec_of(0, 8, |g| g.any_u64()),
        },
        _ => DebugResponse::Error { message: string(g) },
    }
}

/// A random syntactically valid request.
fn gen_request(g: &mut Gen) -> Request {
    match g.usize_in(0, 10) {
        0 => Request::Open {
            workload: string(g),
            seed: g.any_u64(),
        },
        1 => Request::IngestBlocks {
            session: g.any_u64(),
            chunk: g.vec_of(0, 64, |g| g.u64_in(0, 255) as u8),
            done: g.bool(),
        },
        2 => Request::Record {
            session: g.any_u64(),
        },
        3 => Request::Replay {
            session: g.any_u64(),
        },
        4 => Request::SeekLogical {
            session: g.any_u64(),
            logical: g.any_u64(),
        },
        5 => Request::DivergenceCheck {
            session: g.any_u64(),
        },
        6 => Request::Close {
            session: g.any_u64(),
        },
        7 => Request::Debug {
            session: g.any_u64(),
            command: gen_command(g),
        },
        8 => Request::Stats,
        9 => Request::OpenStored { entry: string(g) },
        _ => Request::Shutdown { token: string(g) },
    }
}

/// A random syntactically valid response.
fn gen_response(g: &mut Gen) -> Response {
    match g.usize_in(0, 10) {
        0 => Response::Opened {
            session: g.any_u64(),
        },
        1 => Response::Ingested {
            session: g.any_u64(),
            bytes: g.any_u64(),
        },
        2 => Response::Recorded {
            session: g.any_u64(),
            fingerprint: g.any_u64(),
            state_digest: g.any_u64(),
            events: g.any_u64(),
            trace_bytes: g.any_u64(),
        },
        3 => Response::Replayed {
            session: g.any_u64(),
            fingerprint: g.any_u64(),
            state_digest: g.any_u64(),
            clean: g.bool(),
        },
        4 => Response::Sought {
            session: g.any_u64(),
            target_logical: g.any_u64(),
            final_step: g.any_u64(),
            final_logical: g.any_u64(),
            steps_replayed: g.any_u64(),
        },
        5 => Response::Divergence {
            session: g.any_u64(),
            clean: g.bool(),
            json: string(g),
        },
        6 => Response::Closed {
            session: g.any_u64(),
        },
        7 => Response::Debug {
            response: gen_debug_response(g),
        },
        8 => Response::Stats { json: string(g) },
        9 => Response::ShuttingDown,
        _ => Response::Error {
            code: g.u64_in(0, 255) as u8,
            message: string(g),
        },
    }
}

#[test]
fn request_and_response_encodings_round_trip() {
    check("fleet_rpc_round_trip", 400, |g| {
        let req = gen_request(g);
        let decoded = Request::decode(&req.encode()).map_err(|e| e.to_string())?;
        qc_assert!(decoded == req, "request round-trip changed {req:?}");
        let resp = gen_response(g);
        let decoded = Response::decode(&resp.encode()).map_err(|e| e.to_string())?;
        qc_assert!(decoded == resp, "response round-trip changed {resp:?}");
        Ok(())
    });
}

#[test]
fn truncated_payloads_are_typed_errors_never_panics() {
    check("fleet_rpc_truncation", 400, |g| {
        let is_request = g.bool();
        let bytes = if is_request {
            gen_request(g).encode()
        } else {
            gen_response(g).encode()
        };
        // Every strict prefix must fail with a typed error (a shorter
        // encoding of the same variant cannot also be valid — varint
        // fields make prefixes either Truncated or TrailingBytes-free
        // shorter values, which decode must reject by length check).
        let keep = g.usize_in(0, bytes.len().saturating_sub(1));
        let prefix = &bytes[..keep];
        let ok = catch_unwind(AssertUnwindSafe(|| {
            let _ = Request::decode(prefix);
            let _ = Response::decode(prefix);
        }))
        .is_ok();
        qc_assert!(ok, "decoder panicked on a {keep}-byte prefix");
        // Appending garbage to an encoding must be rejected by the
        // decoder of the *same* type (strict whole-buffer consumption;
        // cross-type, an extension can legitimately parse — e.g.
        // Request::Stats [10] + 0x00 is Response::Stats{json:""}).
        let mut extended = bytes.clone();
        extended.extend((0..g.usize_in(1, 4)).map(|_| g.u64_in(0, 255) as u8));
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            if is_request {
                Request::decode(&extended).is_err()
            } else {
                Response::decode(&extended).is_err()
            }
        }));
        match verdict {
            Ok(rejected) => {
                qc_assert!(rejected, "trailing bytes accepted by the same-type decoder");
            }
            Err(_) => qc_assert!(false, "decoder panicked on extended payload"),
        }
        Ok(())
    });
}

#[test]
fn mutated_frames_and_headers_never_panic() {
    // The djvb_fuzz.rs idiom pointed at the RPC layer: seeded mutations
    // of valid encodings (bit flips, overwrites, truncations, inserts)
    // through every decode entry point.
    check("fleet_rpc_fuzz", 600, |g| {
        let mut bytes = if g.bool() {
            gen_request(g).encode()
        } else {
            gen_response(g).encode()
        };
        for _ in 0..g.usize_in(1, 8) {
            if bytes.is_empty() {
                break;
            }
            match g.usize_in(0, 3) {
                0 => {
                    let i = g.usize_in(0, bytes.len() - 1);
                    bytes[i] ^= 1 << g.usize_in(0, 7);
                }
                1 => {
                    let i = g.usize_in(0, bytes.len() - 1);
                    bytes[i] = [0x00, 0xFF, 0x7F, 0x80][g.usize_in(0, 3)];
                }
                2 => {
                    let keep = g.usize_in(0, bytes.len() - 1);
                    bytes.truncate(keep);
                }
                _ => {
                    let i = g.usize_in(0, bytes.len());
                    bytes.insert(i, g.u64_in(0, 255) as u8);
                }
            }
        }
        let ok = catch_unwind(AssertUnwindSafe(|| {
            let _ = Request::decode(&bytes);
            let _ = Response::decode(&bytes);
        }))
        .is_ok();
        qc_assert!(ok, "decoder panicked on mutated {} bytes", bytes.len());
        Ok(())
    });
}

/// Tag 7 was `Profile` / `Profiled`; `Debug { Profile }` is the one road
/// there, and the tag stays reserved.
#[test]
fn the_deleted_profile_tag_is_a_bad_tag() {
    let profile = [7, 1, 10]; // tag, session 1, top 10
    assert_eq!(Request::decode(&profile), Err(WireError::BadTag(7)));
    let profiled = [7, 1, 2, b'{', b'}']; // tag, session 1, json "{}"
    assert_eq!(Response::decode(&profiled), Err(WireError::BadTag(7)));
}

/// The bytes of every message the benchmark exchanges, pinned from the
/// codec before its layouts became tables. A layout change is a protocol
/// change, which `wire::VERSION` must announce.
#[test]
fn the_benchmarks_messages_keep_their_bytes() {
    let requests = [
        (
            Request::Open {
                workload: "fig1_ab".into(),
                seed: 7,
            },
            "0107666967315f616207",
        ),
        (
            Request::OpenStored {
                entry: "e0f1".into(),
            },
            "0c0465306631",
        ),
        (
            Request::IngestBlocks {
                session: 3,
                chunk: vec![0xde, 0xad, 0xbe, 0xef],
                done: true,
            },
            "020304deadbeef01",
        ),
        (Request::Record { session: 300 }, "03ac02"),
        (Request::Replay { session: 3 }, "0403"),
        (
            Request::SeekLogical {
                session: 3,
                logical: u64::MAX,
            },
            "0503ffffffffffffffffff01",
        ),
        (Request::DivergenceCheck { session: 3 }, "0603"),
        (Request::Close { session: 3 }, "0803"),
        (Request::Stats, "0a"),
        (
            Request::Shutdown {
                token: "tok".into(),
            },
            "0b03746f6b",
        ),
    ];
    let fingerprint = 0x0123_4567_89ab_cdef;
    let responses = [
        (Response::Opened { session: 1 }, "0101"),
        (
            Response::Ingested {
                session: 1,
                bytes: 65536,
            },
            "0201808004",
        ),
        (
            Response::Recorded {
                session: 1,
                fingerprint,
                state_digest: u64::MAX,
                events: 12,
                trace_bytes: 300,
            },
            "0301ef9bafcdf8acd19101ffffffffffffffffff010cac02",
        ),
        (
            Response::Replayed {
                session: 1,
                fingerprint,
                state_digest: 5,
                clean: true,
            },
            "0401ef9bafcdf8acd191010501",
        ),
        (
            Response::Sought {
                session: 1,
                target_logical: 40,
                final_step: 4977,
                final_logical: 41,
                steps_replayed: 977,
            },
            "050128f12629d107",
        ),
        (
            Response::Divergence {
                session: 1,
                clean: false,
                json: "[]".into(),
            },
            "060100025b5d",
        ),
        (Response::Closed { session: 1 }, "0801"),
        (Response::Stats { json: "{}".into() }, "0a027b7d"),
        (Response::ShuttingDown, "0b"),
        (
            Response::Error {
                code: 2,
                message: "no such session 9".into(),
            },
            "0c02116e6f20737563682073657373696f6e2039",
        ),
    ];
    let hex = |b: Vec<u8>| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
    for (req, pinned) in requests {
        assert_eq!(hex(req.encode()), pinned, "{req:?}");
    }
    for (resp, pinned) in responses {
        assert_eq!(hex(resp.encode()), pinned, "{resp:?}");
    }
}

#[test]
fn a_seek_past_64_bits_is_refused_not_wrapped() {
    // `SeekLogical { session: 1, logical: 2^64 }`: the tenth varint byte
    // holds bit 63 alone, so this used to decode as a seek to 0.
    let mut frame = vec![5, 1];
    frame.extend([0x80; 9]);
    frame.push(0x02);
    assert_eq!(Request::decode(&frame), Err(WireError::OutOfRange));
    *frame.last_mut().unwrap() = 0x01;
    let max = Request::SeekLogical {
        session: 1,
        logical: 1 << 63,
    };
    assert_eq!(Request::decode(&frame), Ok(max));
}

#[test]
fn a_field_that_does_not_fit_its_type_is_a_typed_error() {
    // A workload name that is not UTF-8.
    let open = [1, 1, 0xff, 7];
    assert_eq!(Request::decode(&open), Err(WireError::BadUtf8));
    // `Stack { tid: 2^32 }` in a `Debug` frame: not truncated to tid 0.
    let stack = Request::Debug {
        session: 1,
        command: Command::Stack { tid: 0 },
    };
    let mut frame = stack.encode();
    frame.pop();
    codec::put_varint(&mut frame, 1 << 32);
    assert_eq!(Request::decode(&frame), Err(WireError::OutOfRange));
}

#[test]
fn a_count_past_the_frame_is_refused_before_allocation() {
    let words = Response::Debug {
        response: DebugResponse::Words { words: vec![] },
    };
    for claim in [u64::MAX, 1 << 32, 9, 8] {
        // The tags, a count of `claim`, then eight one-byte words.
        let mut frame = words.encode();
        frame.pop();
        codec::put_varint(&mut frame, claim);
        frame.extend([0; 8]);
        let (decoded, allocated) = counting::counted(|| Response::decode(&frame));
        let want = match claim {
            8 => Ok(Response::Debug {
                response: DebugResponse::Words { words: vec![0; 8] },
            }),
            _ => Err(WireError::Truncated),
        };
        assert_eq!(decoded, want, "claim {claim}");
        assert!(
            allocated <= 16 * frame.len(),
            "allocated {allocated} for a claim of {claim}"
        );
    }
}

#[test]
fn malformed_hellos_are_typed_errors() {
    // Header fuzz: 5-byte hellos drawn adversarially close to the real
    // one must either validate (exact match) or produce the right error.
    check("fleet_hello_fuzz", 300, |g| {
        let mut h = fleet::wire::hello_bytes();
        let flips = g.usize_in(0, 2);
        for _ in 0..flips {
            let i = g.usize_in(0, 4);
            h[i] = g.u64_in(0, 255) as u8;
        }
        match fleet::wire::check_hello(&h) {
            Ok(()) => qc_assert!(
                h == fleet::wire::hello_bytes(),
                "non-canonical hello accepted: {h:?}"
            ),
            Err(WireError::BadMagic) => qc_assert!(
                h[..4] != fleet::wire::MAGIC,
                "BadMagic with a good magic: {h:?}"
            ),
            Err(WireError::BadVersion(v)) => {
                qc_assert!(h[..4] == fleet::wire::MAGIC);
                qc_assert!(v == h[4] && v != fleet::wire::VERSION);
            }
            Err(other) => qc_assert!(false, "unexpected error {other:?}"),
        }
        Ok(())
    });
}

/// A version 1 peer sent a debugger command as a JSON string; version 2
/// would read those bytes as binary command fields, so the hello refuses
/// it before any frame is parsed.
#[test]
fn a_version_1_hello_is_refused() {
    assert_eq!(fleet::wire::VERSION, 2);
    let mut v1 = fleet::wire::hello_bytes();
    v1[4] = 1;
    assert_eq!(fleet::wire::check_hello(&v1), Err(WireError::BadVersion(1)));
}

#[test]
fn oversize_frames_are_refused_without_allocation() {
    // A length prefix past MAX_FRAME must be rejected before the payload
    // is allocated or read (allocation-bomb guard).
    let mut stream: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF];
    match fleet::wire::read_frame(&mut stream) {
        Err(WireError::Oversize(n)) => assert_eq!(n, u32::MAX as usize),
        other => panic!("expected Oversize, got {other:?}"),
    }
    // And the boundary itself is accepted (cap is inclusive).
    let mut ok_header = (fleet::MAX_FRAME as u32).to_le_bytes().to_vec();
    ok_header.extend(std::iter::repeat(0u8).take(8)); // far too short
    let mut stream: &[u8] = &ok_header;
    match fleet::wire::read_frame(&mut stream) {
        Err(WireError::Truncated) => {} // accepted the length, hit EOF
        other => panic!("expected Truncated, got {other:?}"),
    }
}
