//! The tool↔GUI wire protocol (paper §4).
//!
//! The GUI "is designed to run on yet a third JVM, communicating with the
//! debugger JVM through TCP. (Bandwidth is minimized by transmitting small
//! packets of data rather than large images.)" Our protocol is JSON lines:
//! one request and one response object per line, each a small structured
//! packet (carried over TCP inside a fleet `Debug` frame). Serialization is hand-rolled over the workspace's own
//! [`codec::json`] layer (hermetic build — no serde):
//!
//! * a [`Command`] is `{"cmd": "<snake_case name>", ...fields}`,
//! * a [`Response`] is `{"resp": "<snake_case name>", ...fields}`,
//! * a [`StopReason`] is externally tagged: a bare string for unit
//!   variants (`"step_done"`), `{"breakpoint": {...}}` for the rest.

use crate::engine::{FrameInfo, StopReason, ThreadInfo};
use codec::{FromJson, Json, JsonError, ToJson};

/// Requests the client (GUI tier) sends.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Set a breakpoint at (method id, pc).
    Break {
        method: u32,
        pc: u32,
    },
    /// Set a breakpoint by method name + source line.
    BreakLine {
        method: String,
        line: u32,
    },
    ClearBreak {
        method: u32,
        pc: u32,
    },
    Continue,
    Step,
    StepBack,
    Seek {
        step: u64,
    },
    /// Seek to an absolute logical time (counted yield points); a
    /// block-trace session resolves it through the block index.
    SeekTime {
        time: u64,
    },
    Stack {
        tid: u32,
    },
    Threads,
    Inspect {
        addr: u64,
    },
    Disassemble {
        method: u32,
    },
    Output,
    Where,
    /// Fetch the session's metrics snapshot (counters, telemetry ring,
    /// histograms, time-travel accounting) as canonical JSON.
    Metrics,
    /// Fetch the divergence forensics for the replay so far.
    Divergence,
    /// Profile the session's trace: replay it to completion with the
    /// flight recorder armed and return the top-`top` hot methods plus
    /// phase/QOp attribution as canonical JSON.
    Profile {
        top: u64,
    },
    /// Read up to `n` words of the paused replay's address space starting
    /// at `addr` — the `ptrace` word read of §3.2: the server copies words
    /// out and runs no guest code. `n` is capped at
    /// [`MAX_READ_WORDS`](crate::server::MAX_READ_WORDS).
    Read {
        addr: u64,
        n: u64,
    },
}

/// Responses the debugger tier returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Ok,
    Stopped {
        reason: StopReason,
        step: u64,
    },
    Stack {
        frames: Vec<FrameInfo>,
    },
    Threads {
        threads: Vec<ThreadInfo>,
    },
    Object {
        description: String,
    },
    Listing {
        text: String,
    },
    Output {
        text: String,
    },
    Location {
        method: String,
        pc: u32,
        line: i64,
        step: u64,
    },
    /// What a `seek_time` actually did: where it restored from and how
    /// much trace it had to replay (the O(block) evidence).
    SeekStats {
        target_logical: u64,
        restored: bool,
        checkpoint_step: u64,
        checkpoint_logical: u64,
        steps_replayed: u64,
        events_replayed: u64,
        final_step: u64,
        final_logical: u64,
    },
    /// Canonical-JSON metrics snapshot, transported as a string so the
    /// packet stays byte-deterministic end to end.
    Metrics {
        json: String,
    },
    /// Replay-divergence forensics: `clean` iff no desync was flagged,
    /// each desync rendered human-readably, plus the canonical JSON array.
    Divergence {
        clean: bool,
        desyncs: Vec<String>,
        json: String,
    },
    /// Canonical-JSON profile summary (top-N hot methods, phase table,
    /// QOp cycle attribution, fingerprint), transported as a string like
    /// `Metrics` so the packet stays byte-deterministic end to end.
    Profile {
        json: String,
    },
    /// The words a `Read` found. Fewer than asked for means the range ran
    /// off the end of the address space.
    Words {
        words: Vec<u64>,
    },
    Error {
        message: String,
    },
}

/// `{"<tag>": "<name>", ...fields}`.
fn tagged(tag: &str, name: &str, fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![(tag, Json::Str(name.into()))];
    pairs.extend(fields);
    Json::obj(pairs)
}

impl ToJson for Command {
    fn to_json(&self) -> Json {
        match self {
            Command::Break { method, pc } => tagged(
                "cmd",
                "break",
                vec![("method", method.to_json()), ("pc", pc.to_json())],
            ),
            Command::BreakLine { method, line } => tagged(
                "cmd",
                "break_line",
                vec![("method", method.to_json()), ("line", line.to_json())],
            ),
            Command::ClearBreak { method, pc } => tagged(
                "cmd",
                "clear_break",
                vec![("method", method.to_json()), ("pc", pc.to_json())],
            ),
            Command::Continue => tagged("cmd", "continue", vec![]),
            Command::Step => tagged("cmd", "step", vec![]),
            Command::StepBack => tagged("cmd", "step_back", vec![]),
            Command::Seek { step } => tagged("cmd", "seek", vec![("step", step.to_json())]),
            Command::SeekTime { time } => {
                tagged("cmd", "seek_time", vec![("time", time.to_json())])
            }
            Command::Stack { tid } => tagged("cmd", "stack", vec![("tid", tid.to_json())]),
            Command::Threads => tagged("cmd", "threads", vec![]),
            Command::Inspect { addr } => tagged("cmd", "inspect", vec![("addr", addr.to_json())]),
            Command::Disassemble { method } => {
                tagged("cmd", "disassemble", vec![("method", method.to_json())])
            }
            Command::Output => tagged("cmd", "output", vec![]),
            Command::Where => tagged("cmd", "where", vec![]),
            Command::Metrics => tagged("cmd", "metrics", vec![]),
            Command::Divergence => tagged("cmd", "divergence", vec![]),
            Command::Profile { top } => tagged("cmd", "profile", vec![("top", top.to_json())]),
            Command::Read { addr, n } => tagged(
                "cmd",
                "read",
                vec![("addr", addr.to_json()), ("n", n.to_json())],
            ),
        }
    }
}

impl FromJson for Command {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let cmd = match j.field("cmd")?.as_str()? {
            "break" => Command::Break {
                method: u32::from_json(j.field("method")?)?,
                pc: u32::from_json(j.field("pc")?)?,
            },
            "break_line" => Command::BreakLine {
                method: String::from_json(j.field("method")?)?,
                line: u32::from_json(j.field("line")?)?,
            },
            "clear_break" => Command::ClearBreak {
                method: u32::from_json(j.field("method")?)?,
                pc: u32::from_json(j.field("pc")?)?,
            },
            "continue" => Command::Continue,
            "step" => Command::Step,
            "step_back" => Command::StepBack,
            "seek" => Command::Seek {
                step: u64::from_json(j.field("step")?)?,
            },
            "seek_time" => Command::SeekTime {
                time: u64::from_json(j.field("time")?)?,
            },
            "stack" => Command::Stack {
                tid: u32::from_json(j.field("tid")?)?,
            },
            "threads" => Command::Threads,
            "inspect" => Command::Inspect {
                addr: u64::from_json(j.field("addr")?)?,
            },
            "disassemble" => Command::Disassemble {
                method: u32::from_json(j.field("method")?)?,
            },
            "output" => Command::Output,
            "where" => Command::Where,
            "metrics" => Command::Metrics,
            "divergence" => Command::Divergence,
            "profile" => Command::Profile {
                top: u64::from_json(j.field("top")?)?,
            },
            "read" => Command::Read {
                addr: u64::from_json(j.field("addr")?)?,
                n: u64::from_json(j.field("n")?)?,
            },
            other => return Err(JsonError::new(format!("unknown command \"{other}\""))),
        };
        Ok(cmd)
    }
}

impl ToJson for StopReason {
    fn to_json(&self) -> Json {
        match self {
            StopReason::Breakpoint { method, pc, tid } => Json::obj(vec![(
                "breakpoint",
                Json::obj(vec![
                    ("method", method.to_json()),
                    ("pc", pc.to_json()),
                    ("tid", tid.to_json()),
                ]),
            )]),
            StopReason::StepDone => Json::Str("step_done".into()),
            StopReason::Halted => Json::Str("halted".into()),
            StopReason::Deadlocked => Json::Str("deadlocked".into()),
            StopReason::Error(msg) => Json::obj(vec![("error", msg.to_json())]),
        }
    }
}

impl FromJson for StopReason {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        if let Ok(name) = j.as_str() {
            return match name {
                "step_done" => Ok(StopReason::StepDone),
                "halted" => Ok(StopReason::Halted),
                "deadlocked" => Ok(StopReason::Deadlocked),
                other => Err(JsonError::new(format!("unknown stop reason \"{other}\""))),
            };
        }
        if let Some(bp) = j.get("breakpoint") {
            return Ok(StopReason::Breakpoint {
                method: u32::from_json(bp.field("method")?)?,
                pc: u32::from_json(bp.field("pc")?)?,
                tid: u32::from_json(bp.field("tid")?)?,
            });
        }
        if let Some(msg) = j.get("error") {
            return Ok(StopReason::Error(String::from_json(msg)?));
        }
        Err(JsonError::new("unrecognized stop reason"))
    }
}

impl ToJson for FrameInfo {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("method", self.method.to_json()),
            ("method_name", self.method_name.to_json()),
            ("pc", self.pc.to_json()),
            ("line", self.line.to_json()),
            ("op", self.op.to_json()),
        ])
    }
}

impl FromJson for FrameInfo {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(FrameInfo {
            method: u32::from_json(j.field("method")?)?,
            method_name: String::from_json(j.field("method_name")?)?,
            pc: u32::from_json(j.field("pc")?)?,
            line: i64::from_json(j.field("line")?)?,
            op: String::from_json(j.field("op")?)?,
        })
    }
}

impl ToJson for ThreadInfo {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tid", self.tid.to_json()),
            ("name", self.name.to_json()),
            ("status", self.status.to_json()),
            ("method_name", self.method_name.to_json()),
            ("pc", self.pc.to_json()),
            ("yield_points", self.yield_points.to_json()),
        ])
    }
}

impl FromJson for ThreadInfo {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(ThreadInfo {
            tid: u32::from_json(j.field("tid")?)?,
            name: String::from_json(j.field("name")?)?,
            status: String::from_json(j.field("status")?)?,
            method_name: String::from_json(j.field("method_name")?)?,
            pc: u32::from_json(j.field("pc")?)?,
            yield_points: u64::from_json(j.field("yield_points")?)?,
        })
    }
}

impl ToJson for Response {
    fn to_json(&self) -> Json {
        match self {
            Response::Ok => tagged("resp", "ok", vec![]),
            Response::Stopped { reason, step } => tagged(
                "resp",
                "stopped",
                vec![("reason", reason.to_json()), ("step", step.to_json())],
            ),
            Response::Stack { frames } => {
                tagged("resp", "stack", vec![("frames", frames.to_json())])
            }
            Response::Threads { threads } => {
                tagged("resp", "threads", vec![("threads", threads.to_json())])
            }
            Response::Object { description } => tagged(
                "resp",
                "object",
                vec![("description", description.to_json())],
            ),
            Response::Listing { text } => tagged("resp", "listing", vec![("text", text.to_json())]),
            Response::Output { text } => tagged("resp", "output", vec![("text", text.to_json())]),
            Response::Location {
                method,
                pc,
                line,
                step,
            } => tagged(
                "resp",
                "location",
                vec![
                    ("method", method.to_json()),
                    ("pc", pc.to_json()),
                    ("line", line.to_json()),
                    ("step", step.to_json()),
                ],
            ),
            Response::SeekStats {
                target_logical,
                restored,
                checkpoint_step,
                checkpoint_logical,
                steps_replayed,
                events_replayed,
                final_step,
                final_logical,
            } => tagged(
                "resp",
                "seek_stats",
                vec![
                    ("target_logical", target_logical.to_json()),
                    ("restored", restored.to_json()),
                    ("checkpoint_step", checkpoint_step.to_json()),
                    ("checkpoint_logical", checkpoint_logical.to_json()),
                    ("steps_replayed", steps_replayed.to_json()),
                    ("events_replayed", events_replayed.to_json()),
                    ("final_step", final_step.to_json()),
                    ("final_logical", final_logical.to_json()),
                ],
            ),
            Response::Metrics { json } => tagged("resp", "metrics", vec![("json", json.to_json())]),
            Response::Divergence {
                clean,
                desyncs,
                json,
            } => tagged(
                "resp",
                "divergence",
                vec![
                    ("clean", clean.to_json()),
                    ("desyncs", desyncs.to_json()),
                    ("json", json.to_json()),
                ],
            ),
            Response::Profile { json } => tagged("resp", "profile", vec![("json", json.to_json())]),
            Response::Words { words } => tagged("resp", "words", vec![("words", words.to_json())]),
            Response::Error { message } => {
                tagged("resp", "error", vec![("message", message.to_json())])
            }
        }
    }
}

impl FromJson for Response {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let resp = match j.field("resp")?.as_str()? {
            "ok" => Response::Ok,
            "stopped" => Response::Stopped {
                reason: StopReason::from_json(j.field("reason")?)?,
                step: u64::from_json(j.field("step")?)?,
            },
            "stack" => Response::Stack {
                frames: Vec::from_json(j.field("frames")?)?,
            },
            "threads" => Response::Threads {
                threads: Vec::from_json(j.field("threads")?)?,
            },
            "object" => Response::Object {
                description: String::from_json(j.field("description")?)?,
            },
            "listing" => Response::Listing {
                text: String::from_json(j.field("text")?)?,
            },
            "output" => Response::Output {
                text: String::from_json(j.field("text")?)?,
            },
            "location" => Response::Location {
                method: String::from_json(j.field("method")?)?,
                pc: u32::from_json(j.field("pc")?)?,
                line: i64::from_json(j.field("line")?)?,
                step: u64::from_json(j.field("step")?)?,
            },
            "seek_stats" => Response::SeekStats {
                target_logical: u64::from_json(j.field("target_logical")?)?,
                restored: bool::from_json(j.field("restored")?)?,
                checkpoint_step: u64::from_json(j.field("checkpoint_step")?)?,
                checkpoint_logical: u64::from_json(j.field("checkpoint_logical")?)?,
                steps_replayed: u64::from_json(j.field("steps_replayed")?)?,
                events_replayed: u64::from_json(j.field("events_replayed")?)?,
                final_step: u64::from_json(j.field("final_step")?)?,
                final_logical: u64::from_json(j.field("final_logical")?)?,
            },
            "metrics" => Response::Metrics {
                json: String::from_json(j.field("json")?)?,
            },
            "divergence" => Response::Divergence {
                clean: bool::from_json(j.field("clean")?)?,
                desyncs: Vec::from_json(j.field("desyncs")?)?,
                json: String::from_json(j.field("json")?)?,
            },
            "profile" => Response::Profile {
                json: String::from_json(j.field("json")?)?,
            },
            "error" => Response::Error {
                message: String::from_json(j.field("message")?)?,
            },
            "words" => Response::Words {
                words: Vec::from_json(j.field("words")?)?,
            },
            other => return Err(JsonError::new(format!("unknown response \"{other}\""))),
        };
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `Command` variant, payload edges included.
    pub(crate) fn all_commands() -> Vec<Command> {
        vec![
            Command::Break { method: 3, pc: 7 },
            Command::BreakLine {
                method: "Main.run \"quoted\"\n".into(),
                line: 5,
            },
            Command::ClearBreak {
                method: u32::MAX,
                pc: 0,
            },
            Command::Continue,
            Command::Step,
            Command::StepBack,
            Command::Seek { step: u64::MAX },
            Command::SeekTime { time: u64::MAX },
            Command::Stack { tid: 2 },
            Command::Threads,
            Command::Inspect { addr: u64::MAX },
            Command::Disassemble { method: 0 },
            Command::Output,
            Command::Where,
            Command::Metrics,
            Command::Divergence,
            Command::Profile { top: 10 },
            Command::Profile { top: u64::MAX },
            Command::Read { addr: 0, n: 1 },
            Command::Read {
                addr: u64::MAX,
                n: u64::MAX,
            },
        ]
    }

    /// Every `Response` variant, including every `StopReason`.
    pub(crate) fn all_responses() -> Vec<Response> {
        vec![
            Response::Ok,
            Response::Stopped {
                reason: StopReason::Breakpoint {
                    method: 1,
                    pc: 2,
                    tid: 3,
                },
                step: 0,
            },
            Response::Stopped {
                reason: StopReason::StepDone,
                step: 1,
            },
            Response::Stopped {
                reason: StopReason::Halted,
                step: 10,
            },
            Response::Stopped {
                reason: StopReason::Deadlocked,
                step: u64::MAX,
            },
            Response::Stopped {
                reason: StopReason::Error("thread 1: DivByZero".into()),
                step: 99,
            },
            Response::Stack {
                frames: vec![FrameInfo {
                    method: 4,
                    method_name: "Worker.run".into(),
                    pc: 12,
                    line: -1,
                    op: "GetField { idx: 0, ty: Int }".into(),
                }],
            },
            Response::Stack { frames: vec![] },
            Response::Threads {
                threads: vec![ThreadInfo {
                    tid: 0,
                    name: "main".into(),
                    status: "blocked(monitor@128)".into(),
                    method_name: "main".into(),
                    pc: 3,
                    yield_points: 1 << 40,
                }],
            },
            Response::Object {
                description: "Node@64 {v: 41, next: null}".into(),
            },
            Response::Listing {
                text: "  0: Const(1)\n* 1: Goto(0)\n".into(),
            },
            Response::Output {
                text: "déjà vu\n".into(),
            },
            Response::Location {
                method: "Main.main".into(),
                pc: 9,
                line: 42,
                step: 1234,
            },
            Response::SeekStats {
                target_logical: 1 << 33,
                restored: true,
                checkpoint_step: 4_000,
                checkpoint_logical: 512,
                steps_replayed: 977,
                events_replayed: 13,
                final_step: 4_977,
                final_logical: 1 << 33,
            },
            Response::SeekStats {
                target_logical: 0,
                restored: false,
                checkpoint_step: 0,
                checkpoint_logical: 0,
                steps_replayed: 0,
                events_replayed: 0,
                final_step: 0,
                final_logical: 0,
            },
            Response::Metrics {
                json: r#"{"counters":{"clock_reads":3}}"#.into(),
            },
            Response::Divergence {
                clean: true,
                desyncs: vec![],
                json: "[]".into(),
            },
            Response::Divergence {
                clean: false,
                desyncs: vec![
                    "ClockStream { reads_so_far: 2 }".into(),
                    "SwitchTidMismatch { switch_index: 0, recorded: 1, observed: 2 }".into(),
                ],
                json: r#"[{"kind":"clock_stream","reads_so_far":2}]"#.into(),
            },
            Response::Profile {
                json: r#"{"hot_methods":[{"calls":1,"cycles_excl":9,"cycles_incl":9,"method":0,"name":"main"}],"total_cycles":9}"#.into(),
            },
            Response::Error {
                message: "no such location".into(),
            },
            Response::Words {
                words: vec![0, 1, u64::MAX],
            },
            Response::Words { words: vec![] },
        ]
    }

    #[test]
    fn commands_roundtrip_json() {
        for c in all_commands() {
            let s = c.to_json_string();
            let back = Command::from_json_str(&s).unwrap();
            assert_eq!(back, c, "wire form: {s}");
        }
    }

    #[test]
    fn responses_roundtrip_json() {
        for r in all_responses() {
            let s = r.to_json_string();
            let back = Response::from_json_str(&s).unwrap();
            assert_eq!(back, r, "wire form: {s}");
        }
    }

    #[test]
    fn wire_shape_is_tagged_snake_case() {
        assert_eq!(
            Command::Break { method: 3, pc: 7 }.to_json_string(),
            r#"{"cmd":"break","method":3,"pc":7}"#
        );
        assert_eq!(
            Response::Stopped {
                reason: StopReason::StepDone,
                step: 5
            }
            .to_json_string(),
            r#"{"resp":"stopped","reason":"step_done","step":5}"#
        );
    }

    #[test]
    fn wire_form_is_one_line() {
        for r in all_responses() {
            assert!(
                !r.to_json_string().contains('\n'),
                "line-delimited protocol"
            );
        }
        for c in all_commands() {
            assert!(!c.to_json_string().contains('\n'));
        }
    }

    #[test]
    fn garbage_rejected_not_panicking() {
        for bad in [
            "",
            "{}",
            "{\"cmd\":\"no_such\"}",
            "{\"cmd\":\"break\"}",
            "{\"resp\":\"stopped\",\"reason\":\"bogus\",\"step\":1}",
            "{\"cmd\":\"seek\",\"step\":-1}",
            "{\"cmd\":\"profile\"}",
            "{\"cmd\":\"read\",\"addr\":0}",
            "{\"cmd\":\"quit\"}",
            "{\"resp\":\"bye\"}",
            "[1,2,3]",
        ] {
            assert!(Command::from_json_str(bad).is_err(), "accepted {bad:?}");
            assert!(Response::from_json_str(bad).is_err(), "accepted {bad:?}");
        }
    }
}
