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
//! `debug` subcommand parses a command and prints its response. Each
//! message's JSON name is on its layout line in `fleet::rpc` beside its
//! wire tag, and the JSON door is derived from that line:
//!
//! * a [`Command`] is spelled `{"cmd": "<snake_case name>", ...fields}`,
//! * a [`Response`] prints as `{"resp": "<snake_case name>", ...fields}`,
//! * a [`StopReason`] prints externally tagged: a bare string for unit
//!   variants (`"step_done"`), `{"breakpoint": {...}}` for the rest.

use crate::engine::{FrameInfo, StopReason, ThreadInfo};

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
