//! Property tests and fuzz loops for the fleet RPC layer (satellite:
//! "frame-codec round-trip property test in the qc harness, plus a
//! malformed-header fuzz loop mirroring djvb_fuzz.rs").

use codec::{FromJson, ToJson};
use dejavu_repro::debugger::{Command, Response as DebugResponse};
use dejavu_repro::fleet::{self, Request, Response, WireError};
use dejavu_repro::qc::{check, Gen};
use dejavu_repro::qc_assert;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A random syntactically valid request.
fn gen_request(g: &mut Gen) -> Request {
    let s = |g: &mut Gen| {
        let n = g.usize_in(0, 12);
        (0..n)
            .map(|_| char::from(g.u64_in(32, 126) as u8))
            .collect::<String>()
    };
    match g.usize_in(0, 10) {
        0 => Request::Open {
            workload: s(g),
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
        // Half of the `Debug` frames carry a command — the word read — so
        // the round trip and the mutations below reach inside one.
        7 if g.bool() => Request::Debug {
            session: g.any_u64(),
            command: Command::Read {
                addr: g.any_u64(),
                n: g.any_u64(),
            }
            .to_json_string(),
        },
        7 => Request::Debug {
            session: g.any_u64(),
            command: s(g),
        },
        8 => Request::Stats,
        9 => Request::OpenStored { entry: s(g) },
        _ => Request::Shutdown { token: s(g) },
    }
}

/// A random syntactically valid response.
fn gen_response(g: &mut Gen) -> Response {
    let s = |g: &mut Gen| {
        let n = g.usize_in(0, 12);
        (0..n)
            .map(|_| char::from(g.u64_in(32, 126) as u8))
            .collect::<String>()
    };
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
            json: s(g),
        },
        6 => Response::Closed {
            session: g.any_u64(),
        },
        7 if g.bool() => Response::Debug {
            json: DebugResponse::Words {
                words: g.vec_of(0, 8, |g| g.any_u64()),
            }
            .to_json_string(),
        },
        7 => Response::Debug { json: s(g) },
        8 => Response::Stats { json: s(g) },
        9 => Response::ShuttingDown,
        _ => Response::Error {
            code: g.u64_in(0, 255) as u8,
            message: s(g),
        },
    }
}

#[test]
fn request_and_response_encodings_round_trip() {
    check("fleet_rpc_round_trip", 400, |g| {
        let req = gen_request(g);
        let decoded = Request::decode(&req.encode()).map_err(|e| e.to_string())?;
        qc_assert!(decoded == req, "request round-trip changed the value");
        if let Request::Debug { command, .. } = &decoded {
            if let Ok(cmd) = Command::from_json_str(command) {
                qc_assert!(cmd.to_json_string() == *command, "command changed: {command}");
            }
        }
        let resp = gen_response(g);
        let decoded = Response::decode(&resp.encode()).map_err(|e| e.to_string())?;
        qc_assert!(decoded == resp, "response round-trip changed the value");
        if let Response::Debug { json } = &decoded {
            if let Ok(r) = DebugResponse::from_json_str(json) {
                qc_assert!(r.to_json_string() == *json, "debug response changed: {json}");
            }
        }
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
            if let Ok(Request::Debug { command, .. }) = Request::decode(&bytes) {
                let _ = Command::from_json_str(&command);
            }
            if let Ok(Response::Debug { json }) = Response::decode(&bytes) {
                let _ = DebugResponse::from_json_str(&json);
            }
        }))
        .is_ok();
        qc_assert!(ok, "decoder panicked on mutated {} bytes", bytes.len());
        Ok(())
    });
}

/// Tag 7 was `Profile` / `Profiled`; `Debug {"cmd":"profile"}` is the one
/// road there, and the tag stays reserved.
#[test]
fn the_deleted_profile_tag_is_a_bad_tag() {
    let profile = [7, 1, 10]; // tag, session 1, top 10
    assert_eq!(Request::decode(&profile), Err(WireError::BadTag(7)));
    let profiled = [7, 1, 2, b'{', b'}']; // tag, session 1, json "{}"
    assert_eq!(Response::decode(&profiled), Err(WireError::BadTag(7)));
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
