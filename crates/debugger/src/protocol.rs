//! The tool↔GUI protocol (paper §4).
//!
//! The GUI "is designed to run on yet a third JVM, communicating with the
//! debugger JVM through TCP. (Bandwidth is minimized by transmitting small
//! packets of data rather than large images.)" A [`Command`] and the
//! [`Response`] it gets are typed messages: they ride the fleet's one
//! binary frame (`fleet::Request::Debug` / `fleet::Response::Debug`,
//! laid out in `fleet::rpc`), a few bytes each.
//!
//! JSON is only where a person types or reads a message: the CLI's
//! `debug` subcommand parses a typed command with [`FromJson`] and prints
//! the response with [`ToJson`], over the workspace's own [`codec::json`]
//! layer (hermetic build — no serde):
//!
//! * a [`Command`] is spelled `{"cmd": "<snake_case name>", ...fields}`,
//! * a [`Response`] prints as `{"resp": "<snake_case name>", ...fields}`,
//! * a [`StopReason`] prints externally tagged: a bare string for unit
//!   variants (`"step_done"`), `{"breakpoint": {...}}` for the rest.

use crate::engine::{FrameInfo, StopReason, ThreadInfo};
use codec::{FromJson, Json, JsonError, ToJson};

/// Requests the client (GUI tier) sends.
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Canonical-JSON metrics snapshot, transported as a string so the
    /// packet stays byte-deterministic end to end.
    Metrics {
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

/// `{"resp": "<name>", ...fields}`.
fn tagged(name: &str, fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("resp", Json::Str(name.into()))];
    pairs.extend(fields);
    Json::obj(pairs)
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

impl ToJson for Response {
    fn to_json(&self) -> Json {
        match self {
            Response::Ok => tagged("ok", vec![]),
            Response::Stopped { reason, step } => tagged(
                "stopped",
                vec![("reason", reason.to_json()), ("step", step.to_json())],
            ),
            Response::Stack { frames } => tagged("stack", vec![("frames", frames.to_json())]),
            Response::Threads { threads } => {
                tagged("threads", vec![("threads", threads.to_json())])
            }
            Response::Object { description } => {
                tagged("object", vec![("description", description.to_json())])
            }
            Response::Listing { text } => tagged("listing", vec![("text", text.to_json())]),
            Response::Output { text } => tagged("output", vec![("text", text.to_json())]),
            Response::Location {
                method,
                pc,
                line,
                step,
            } => tagged(
                "location",
                vec![
                    ("method", method.to_json()),
                    ("pc", pc.to_json()),
                    ("line", line.to_json()),
                    ("step", step.to_json()),
                ],
            ),
            Response::Metrics { json } => tagged("metrics", vec![("json", json.to_json())]),
            Response::Profile { json } => tagged("profile", vec![("json", json.to_json())]),
            Response::Words { words } => tagged("words", vec![("words", words.to_json())]),
            Response::Error { message } => tagged("error", vec![("message", message.to_json())]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_tagged_snake_case() {
        assert_eq!(
            Command::from_json_str(r#"{"cmd":"break","method":3,"pc":7}"#).unwrap(),
            Command::Break { method: 3, pc: 7 }
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
    fn garbage_rejected_not_panicking() {
        for bad in [
            "",
            "{}",
            "{\"cmd\":\"no_such\"}",
            "{\"cmd\":\"break\"}",
            "{\"cmd\":\"seek\",\"step\":-1}",
            "{\"cmd\":\"profile\"}",
            "{\"cmd\":\"read\",\"addr\":0}",
            "{\"cmd\":\"quit\"}",
            "{\"cmd\":\"seek_time\",\"time\":4}",
            "{\"cmd\":\"divergence\"}",
            "[1,2,3]",
        ] {
            assert!(Command::from_json_str(bad).is_err(), "accepted {bad:?}");
        }
    }
}
