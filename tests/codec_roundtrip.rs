//! Round-trip coverage for the hermetic codec layer, through the public
//! API: binary `Trace` edge cases, and the debugger's JSON door for
//! *every* `Command`/`Response` variant — each command parses from its
//! pinned CLI spelling to its pinned latency key, each response prints
//! as its pinned JSON line.

use debugger::protocol::{Command, Response};
use debugger::{FrameInfo, StopReason, ThreadInfo};
use dejavu::{encode_trace, ingest_bytes, DataRec, SwitchRec, Trace, TraceFormat};
use fleet::{ParseJson, PrintJson, Request};

// ---------------------------------------------------------------------
// Binary trace format
// ---------------------------------------------------------------------

fn bin_roundtrip(t: &Trace) {
    let bytes = encode_trace(t, TraceFormat::Block, 2);
    let back = ingest_bytes(bytes).expect("decode").trace;
    assert_eq!(&back, t);
}

#[test]
fn empty_trace_roundtrips() {
    bin_roundtrip(&Trace::default());
    // Header only: magic + flags byte + two zero-length varint counts.
    assert_eq!(Trace::default().stats().total_bytes, 7);
}

#[test]
fn paranoid_trace_roundtrips() {
    bin_roundtrip(&Trace {
        paranoid: true,
        switches: vec![
            SwitchRec {
                nyp: 1,
                check_tid: 0,
            },
            SwitchRec {
                nyp: 2,
                check_tid: 3,
            },
            SwitchRec {
                nyp: 1 << 40,
                check_tid: u32::MAX - 1,
            },
        ],
        data: vec![DataRec::Clock(-1), DataRec::Clock(0)],
    });
}

#[test]
fn extreme_values_roundtrip() {
    // u64::MAX nyp deltas exercise the full 10-byte varint path; i64
    // extremes exercise zigzag at both ends.
    bin_roundtrip(&Trace {
        paranoid: false,
        switches: vec![
            SwitchRec {
                nyp: u64::MAX,
                check_tid: u32::MAX,
            },
            SwitchRec {
                nyp: u64::MAX - 1,
                check_tid: u32::MAX,
            },
        ],
        data: vec![
            DataRec::Clock(i64::MIN),
            DataRec::Clock(i64::MAX),
            DataRec::Native {
                ret: i64::MIN,
                callbacks: vec![(7, vec![i64::MAX, 0, -1])],
            },
        ],
    });
}

#[test]
fn truncated_trace_rejected() {
    let trace = Trace {
        paranoid: true,
        switches: vec![SwitchRec {
            nyp: 500_000,
            check_tid: 2,
        }],
        data: vec![DataRec::Clock(123_456_789)],
    };
    let full = encode_trace(&trace, TraceFormat::Block, 2);
    for cut in 0..full.len() {
        assert!(
            ingest_bytes(full[..cut].to_vec()).is_err(),
            "prefix of {cut} bytes decoded"
        );
    }
    assert!(ingest_bytes(b"NOPE".to_vec()).is_err());
}

// ---------------------------------------------------------------------
// The debugger's JSON door: a command as the CLI's `debug` argument
// spells it, a response as the CLI prints it. On the wire both are
// binary fleet messages (tests/fleet_rpc.rs).
// ---------------------------------------------------------------------

/// Every command beside its documented CLI spelling and the latency key
/// the fleet times it under.
fn every_spelled_command() -> Vec<(&'static str, Command, &'static str)> {
    vec![
        (
            r#"{"cmd":"break","method":0,"pc":4294967295}"#,
            Command::Break {
                method: 0,
                pc: u32::MAX,
            },
            "rpc.debug.break",
        ),
        (
            r#"{"cmd":"break_line","method":"Worker.run \"q\"","line":42}"#,
            Command::BreakLine {
                method: "Worker.run \"q\"".into(),
                line: 42,
            },
            "rpc.debug.break_line",
        ),
        (
            r#"{"cmd":"clear_break","method":3,"pc":7}"#,
            Command::ClearBreak { method: 3, pc: 7 },
            "rpc.debug.clear_break",
        ),
        (
            r#"{"cmd":"continue"}"#,
            Command::Continue,
            "rpc.debug.continue",
        ),
        (r#"{"cmd":"step"}"#, Command::Step, "rpc.debug.step"),
        (
            r#"{"cmd":"step_back"}"#,
            Command::StepBack,
            "rpc.debug.step_back",
        ),
        (
            r#"{"cmd":"seek","step":18446744073709551615}"#,
            Command::Seek { step: u64::MAX },
            "rpc.debug.seek",
        ),
        (
            r#"{"cmd":"stack","tid":1}"#,
            Command::Stack { tid: 1 },
            "rpc.debug.stack",
        ),
        (
            r#"{"cmd":"threads"}"#,
            Command::Threads,
            "rpc.debug.threads",
        ),
        (
            r#"{"cmd":"inspect","addr":18446744073709551614}"#,
            Command::Inspect { addr: u64::MAX - 1 },
            "rpc.debug.inspect",
        ),
        (
            r#"{"cmd":"disassemble","method":9}"#,
            Command::Disassemble { method: 9 },
            "rpc.debug.disassemble",
        ),
        (r#"{"cmd":"output"}"#, Command::Output, "rpc.debug.output"),
        (r#"{"cmd":"where"}"#, Command::Where, "rpc.debug.where"),
        (
            r#"{"cmd":"metrics"}"#,
            Command::Metrics,
            "rpc.debug.metrics",
        ),
        (
            r#"{"cmd":"profile","top":10}"#,
            Command::Profile { top: 10 },
            "rpc.debug.profile",
        ),
        (
            r#"{"cmd":"read","addr":18446744073709551615,"n":4096}"#,
            Command::Read {
                addr: u64::MAX,
                n: 4096,
            },
            "rpc.debug.read",
        ),
        // Fields in any order, with whitespace between tokens.
        (
            r#" { "pc" : 7 , "method" : 3 , "cmd" : "break" } "#,
            Command::Break { method: 3, pc: 7 },
            "rpc.debug.break",
        ),
    ]
}

/// Every response beside the exact line the CLI prints for it.
fn every_response() -> Vec<(Response, &'static str)> {
    vec![
        (Response::Ok, r#"{"resp":"ok"}"#),
        (
            Response::Stopped {
                reason: StopReason::StepDone,
                step: 0,
            },
            r#"{"resp":"stopped","reason":"step_done","step":0}"#,
        ),
        (
            Response::Stopped {
                reason: StopReason::Halted,
                step: u64::MAX,
            },
            r#"{"resp":"stopped","reason":"halted","step":18446744073709551615}"#,
        ),
        (
            Response::Stopped {
                reason: StopReason::Deadlocked,
                step: 17,
            },
            r#"{"resp":"stopped","reason":"deadlocked","step":17}"#,
        ),
        (
            Response::Stopped {
                reason: StopReason::Breakpoint {
                    method: 1,
                    pc: 2,
                    tid: 3,
                },
                step: 9,
            },
            r#"{"resp":"stopped","reason":{"breakpoint":{"method":1,"pc":2,"tid":3}},"step":9}"#,
        ),
        (
            Response::Stopped {
                reason: StopReason::Error("stack overflow — \"deep\"".into()),
                step: 4,
            },
            r#"{"resp":"stopped","reason":{"error":"stack overflow — \"deep\""},"step":4}"#,
        ),
        (
            Response::Stack {
                frames: vec![FrameInfo {
                    method: 2,
                    method_name: "main".into(),
                    pc: 11,
                    line: -1,
                    op: "Add".into(),
                }],
            },
            r#"{"resp":"stack","frames":[{"method":2,"method_name":"main","pc":11,"line":-1,"op":"Add"}]}"#,
        ),
        (
            Response::Stack { frames: vec![] },
            r#"{"resp":"stack","frames":[]}"#,
        ),
        (
            Response::Threads {
                threads: vec![ThreadInfo {
                    tid: 0,
                    name: "t-ünïcode".into(),
                    status: "Runnable".into(),
                    method_name: "Worker.run".into(),
                    pc: 5,
                    yield_points: u64::MAX,
                }],
            },
            r#"{"resp":"threads","threads":[{"tid":0,"name":"t-ünïcode","status":"Runnable","method_name":"Worker.run","pc":5,"yield_points":18446744073709551615}]}"#,
        ),
        (
            Response::Object {
                description: "Node { v: 1, next: null }".into(),
            },
            r#"{"resp":"object","description":"Node { v: 1, next: null }"}"#,
        ),
        (
            Response::Listing {
                text: "0000  Iconst 1\n0001  Halt\n".into(),
            },
            r#"{"resp":"listing","text":"0000  Iconst 1\n0001  Halt\n"}"#,
        ),
        (
            Response::Output {
                text: "line1\nline2\\with\\backslashes".into(),
            },
            r#"{"resp":"output","text":"line1\nline2\\with\\backslashes"}"#,
        ),
        (
            Response::Location {
                method: "main".into(),
                pc: 0,
                line: 1,
                step: 2,
            },
            r#"{"resp":"location","method":"main","pc":0,"line":1,"step":2}"#,
        ),
        (
            Response::Metrics {
                json: r#"{"counters":{"clock_reads":3}}"#.into(),
            },
            r#"{"resp":"metrics","json":"{\"counters\":{\"clock_reads\":3}}"}"#,
        ),
        (
            Response::Profile {
                json: r#"{"hot_methods":[],"total_cycles":0}"#.into(),
            },
            r#"{"resp":"profile","json":"{\"hot_methods\":[],\"total_cycles\":0}"}"#,
        ),
        (
            Response::Error {
                message: "no such method \u{7}".into(),
            },
            r#"{"resp":"error","message":"no such method \u0007"}"#,
        ),
        (
            Response::Words {
                words: vec![0, u64::MAX],
            },
            r#"{"resp":"words","words":[0,18446744073709551615]}"#,
        ),
    ]
}

#[test]
fn every_command_parses_from_its_cli_spelling() {
    for (line, cmd, key) in every_spelled_command() {
        let parsed =
            Command::from_json_str(line).unwrap_or_else(|e| panic!("{cmd:?}: {e} in {line}"));
        assert_eq!(parsed, cmd, "spelling {line}");
        let debug = Request::Debug {
            session: 1,
            command: cmd,
        };
        assert_eq!(debug.latency_key(), key, "spelling {line}");
    }
}

#[test]
fn every_response_prints_as_one_json_line() {
    for (resp, line) in every_response() {
        assert_eq!(resp.to_json_string(), line, "{resp:?}");
    }
}

#[test]
fn protocol_rejects_malformed_lines() {
    for junk in [
        "",
        "not json",
        "{}",
        r#"{"cmd":"no_such_command"}"#,
        r#"{"resp":"stopped"}"#,
        r#"{"cmd":"break","method":3}"#,
        r#"{"cmd":"seek","step":-1}"#,
        r#"{"cmd":"read","addr":0,"n":-1}"#,
        r#"{"cmd":"stack","tid":4294967296}"#,
        r#"{"cmd":"quit"}"#,
        // The fleet's `SeekLogical` and `DivergenceCheck` are the one road.
        "{\"cmd\":\"seek_time\",\"time\":40}",
        r#"{"cmd":"divergence"}"#,
    ] {
        assert!(Command::from_json_str(junk).is_err(), "accepted {junk:?}");
    }
}

#[test]
fn a_command_that_is_not_an_object_or_lacks_a_field_is_refused() {
    for junk in [
        "[1,2,3]",
        r#"{"cmd":3}"#,
        r#"{"cmd":"break"}"#,
        r#"{"cmd":"profile"}"#,
        r#"{"cmd":"read","addr":0}"#,
        r#"{"cmd":"break_line","method":7,"line":1}"#,
    ] {
        assert!(Command::from_json_str(junk).is_err(), "accepted {junk:?}");
    }
    let e = Command::from_json_str(r#"{"cmd":"quit"}"#).unwrap_err();
    assert_eq!(
        e.to_string(),
        r#"json error at byte 0: unknown command "quit""#
    );
}
