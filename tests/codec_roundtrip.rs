//! Round-trip coverage for the hermetic codec layer, through the public
//! API: binary `Trace` edge cases, and the debugger's JSON door for
//! *every* `Command`/`Response` variant — each command parses from its
//! CLI spelling, each response prints as one JSON line.

use codec::{FromJson, Json, ToJson};
use debugger::protocol::{Command, Response};
use debugger::{FrameInfo, StopReason, ThreadInfo};
use dejavu::{encode_trace, ingest_bytes, DataRec, SwitchRec, Trace, TraceFormat};
use fleet::Request;

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

/// Every command beside its documented CLI spelling.
fn every_spelled_command() -> Vec<(&'static str, Command)> {
    vec![
        (
            r#"{"cmd":"break","method":0,"pc":4294967295}"#,
            Command::Break {
                method: 0,
                pc: u32::MAX,
            },
        ),
        (
            r#"{"cmd":"break_line","method":"Worker.run \"q\"","line":42}"#,
            Command::BreakLine {
                method: "Worker.run \"q\"".into(),
                line: 42,
            },
        ),
        (
            r#"{"cmd":"clear_break","method":3,"pc":7}"#,
            Command::ClearBreak { method: 3, pc: 7 },
        ),
        (r#"{"cmd":"continue"}"#, Command::Continue),
        (r#"{"cmd":"step"}"#, Command::Step),
        (r#"{"cmd":"step_back"}"#, Command::StepBack),
        (
            r#"{"cmd":"seek","step":18446744073709551615}"#,
            Command::Seek { step: u64::MAX },
        ),
        (r#"{"cmd":"stack","tid":1}"#, Command::Stack { tid: 1 }),
        (r#"{"cmd":"threads"}"#, Command::Threads),
        (
            r#"{"cmd":"inspect","addr":18446744073709551614}"#,
            Command::Inspect { addr: u64::MAX - 1 },
        ),
        (
            r#"{"cmd":"disassemble","method":9}"#,
            Command::Disassemble { method: 9 },
        ),
        (r#"{"cmd":"output"}"#, Command::Output),
        (r#"{"cmd":"where"}"#, Command::Where),
        (r#"{"cmd":"metrics"}"#, Command::Metrics),
        (
            r#"{"cmd":"profile","top":10}"#,
            Command::Profile { top: 10 },
        ),
        (
            r#"{"cmd":"read","addr":18446744073709551615,"n":4096}"#,
            Command::Read {
                addr: u64::MAX,
                n: 4096,
            },
        ),
    ]
}

fn every_response() -> Vec<Response> {
    vec![
        Response::Ok,
        Response::Stopped {
            reason: StopReason::StepDone,
            step: 0,
        },
        Response::Stopped {
            reason: StopReason::Halted,
            step: u64::MAX,
        },
        Response::Stopped {
            reason: StopReason::Deadlocked,
            step: 17,
        },
        Response::Stopped {
            reason: StopReason::Breakpoint {
                method: 1,
                pc: 2,
                tid: 3,
            },
            step: 9,
        },
        Response::Stopped {
            reason: StopReason::Error("stack overflow — \"deep\"".into()),
            step: 4,
        },
        Response::Stack {
            frames: vec![FrameInfo {
                method: 2,
                method_name: "main".into(),
                pc: 11,
                line: -1,
                op: "Add".into(),
            }],
        },
        Response::Stack { frames: vec![] },
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
        Response::Object {
            description: "Node { v: 1, next: null }".into(),
        },
        Response::Listing {
            text: "0000  Iconst 1\n0001  Halt\n".into(),
        },
        Response::Output {
            text: "line1\nline2\\with\\backslashes".into(),
        },
        Response::Location {
            method: "main".into(),
            pc: 0,
            line: 1,
            step: 2,
        },
        Response::Metrics {
            json: r#"{"counters":{"clock_reads":3}}"#.into(),
        },
        Response::Profile {
            json: r#"{"hot_methods":[],"total_cycles":0}"#.into(),
        },
        Response::Error {
            message: "no such method \u{7}".into(),
        },
        Response::Words {
            words: vec![0, u64::MAX],
        },
    ]
}

#[test]
fn every_command_parses_from_its_cli_spelling() {
    for (line, cmd) in every_spelled_command() {
        let parsed =
            Command::from_json_str(line).unwrap_or_else(|e| panic!("{cmd:?}: {e} in {line}"));
        assert_eq!(parsed, cmd, "spelling {line}");
        // The fleet times each command under the name the CLI parses.
        let name = Json::parse(line)
            .unwrap()
            .field("cmd")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();
        let debug = Request::Debug {
            session: 1,
            command: cmd,
        };
        assert_eq!(debug.name(), format!("debug.{name}"));
    }
}

#[test]
fn every_response_prints_as_one_json_line() {
    for resp in every_response() {
        let line = resp.to_json_string();
        assert!(!line.contains('\n'), "multi-line output: {line}");
        let doc = Json::parse(&line).unwrap_or_else(|e| panic!("{resp:?}: {e} in {line}"));
        assert!(
            doc.field("resp").unwrap().as_str().is_ok(),
            "untagged: {line}"
        );
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
