//! The fleet RPC surface: typed requests and responses, and the one line
//! per message that lays each out on the wire ([`wire_layout`]: a tag
//! byte, then each field's [`Wire`] encoding in order). A debugger
//! [`Command`] and its [`DebugResponse`] are messages of the same codec,
//! carried inside `Debug` frames. Their lines are also their only CLI
//! spelling: each variant's JSON name sits between its Rust name and its
//! fields, and a command's `rpc.debug.<name>` latency key is read off the
//! same line. Decoding is strict — a payload must parse exactly and
//! consume every byte, or it is a typed [`WireError`].
//! Tag 7 (the deleted `Profile` / `Profiled`; `Debug { Profile }` is the
//! one road) stays reserved in both directions.

use crate::wire::{self, wire_layout, Elem, Timed, WireError};
use debugger::protocol::{Command, Response as DebugResponse};
use debugger::{FrameInfo, StopReason, ThreadInfo};

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Create a session for `workload` (registry name) at `seed`.
    Open { workload: String, seed: u64 },
    /// Stream a chunk of an externally recorded DJVB trace into a
    /// `Recording` session; `done` seals it.
    IngestBlocks {
        session: u64,
        chunk: Vec<u8>,
        done: bool,
    },
    /// Record the session's workload on the server, sealing the trace.
    Record { session: u64 },
    /// Replay the sealed trace to completion (session becomes resident).
    Replay { session: u64 },
    /// Seek the resident replay to a logical time.
    SeekLogical { session: u64, logical: u64 },
    /// Report desyncs between the trace and the resident replay.
    DivergenceCheck { session: u64 },
    /// Discard the session.
    Close { session: u64 },
    /// One debugger command, run against the session's resident replay.
    Debug { session: u64, command: Command },
    /// Fleet-wide metrics snapshot (canonical JSON).
    Stats,
    /// Graceful shutdown, gated on the server's ctrl token.
    Shutdown { token: String },
    /// Open a session over a catalog entry of the server's trace store:
    /// the trace is served out of shared deduped blocks (no upload),
    /// already sealed with the store's checkpoint boundaries.
    OpenStored { entry: String },
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Opened {
        session: u64,
    },
    Ingested {
        session: u64,
        bytes: u64,
    },
    Recorded {
        session: u64,
        fingerprint: u64,
        state_digest: u64,
        /// Logged events: preemptive switches, clock reads and native
        /// outcomes.
        events: u64,
        /// The trace's size under the E5 varint model
        /// (`TraceStats::total_bytes`), not the length of the DJVB file
        /// the server stores, which the block coder packs smaller.
        trace_bytes: u64,
    },
    Replayed {
        session: u64,
        fingerprint: u64,
        state_digest: u64,
        clean: bool,
    },
    Sought {
        session: u64,
        target_logical: u64,
        final_step: u64,
        final_logical: u64,
        steps_replayed: u64,
    },
    Divergence {
        session: u64,
        clean: bool,
        json: String,
    },
    Closed {
        session: u64,
    },
    /// What a `Debug` request's command answered.
    Debug {
        response: DebugResponse,
    },
    Stats {
        json: String,
    },
    ShuttingDown,
    /// `code` follows the CLI exit-code contract: 1 = usage/corrupt
    /// input/unknown session, 2 = divergence or policy violation.
    Error {
        code: u8,
        message: String,
    },
}

wire_layout!(enum Request {
    1 => Open { workload, seed },
    2 => IngestBlocks { session, chunk, done },
    3 => Record { session },
    4 => Replay { session },
    5 => SeekLogical { session, logical },
    6 => DivergenceCheck { session },
    8 => Close { session },
    9 => Debug { session, command },
    10 => Stats,
    11 => Shutdown { token },
    12 => OpenStored { entry },
});

wire_layout!(enum Response {
    1 => Opened { session },
    2 => Ingested { session, bytes },
    3 => Recorded { session, fingerprint, state_digest, events, trace_bytes },
    4 => Replayed { session, fingerprint, state_digest, clean },
    5 => Sought { session, target_logical, final_step, final_logical, steps_replayed },
    6 => Divergence { session, clean, json },
    8 => Closed { session },
    9 => Debug { response },
    10 => Stats { json },
    11 => ShuttingDown,
    12 => Error { code, message },
});

// A debugger message's line also names it as the CLI's `debug` spells it.
wire_layout!(enum Command parse "cmd" timed "rpc.debug." {
    1 => Break "break" { method, pc },
    2 => BreakLine "break_line" { method, line },
    3 => ClearBreak "clear_break" { method, pc },
    4 => Continue "continue",
    5 => Step "step",
    6 => StepBack "step_back",
    7 => Seek "seek" { step },
    8 => Stack "stack" { tid },
    9 => Threads "threads",
    10 => Inspect "inspect" { addr },
    11 => Disassemble "disassemble" { method },
    12 => Output "output",
    13 => Where "where",
    14 => Metrics "metrics",
    15 => Profile "profile" { top },
    16 => Read "read" { addr, n },
});

wire_layout!(enum DebugResponse print "resp" {
    1 => Ok "ok",
    2 => Stopped "stopped" { reason, step },
    3 => Stack "stack" { frames },
    4 => Threads "threads" { threads },
    5 => Object "object" { description },
    6 => Listing "listing" { text },
    7 => Output "output" { text },
    8 => Location "location" { method, pc, line, step },
    9 => Metrics "metrics" { json },
    10 => Profile "profile" { json },
    11 => Words "words" { words },
    12 => Error "error" { message },
});

wire_layout!(enum StopReason print {
    1 => Breakpoint "breakpoint" { method, pc, tid },
    2 => StepDone "step_done",
    3 => Halted "halted",
    4 => Deadlocked "deadlocked",
    5 => Error "error" (message),
});

wire_layout!(struct FrameInfo print { method, method_name, pc, line, op });
wire_layout!(struct ThreadInfo print { tid, name, status, method_name, pc, yield_points });
impl Elem for FrameInfo {}
impl Elem for ThreadInfo {}

impl Request {
    /// The request's latency-histogram key, `rpc.<name>` — the one table
    /// of RPC names. A debugger command is timed under the key its layout
    /// line gives it, `rpc.debug.<cmd>` with the name the CLI spells.
    pub fn latency_key(&self) -> &'static str {
        match self {
            Request::Open { .. } => "rpc.open",
            Request::IngestBlocks { .. } => "rpc.ingest",
            Request::Record { .. } => "rpc.record",
            Request::Replay { .. } => "rpc.replay",
            Request::SeekLogical { .. } => "rpc.seek",
            Request::DivergenceCheck { .. } => "rpc.divergence",
            Request::Close { .. } => "rpc.close",
            Request::Debug { command, .. } => command.latency_key(),
            Request::Stats => "rpc.stats",
            Request::Shutdown { .. } => "rpc.shutdown",
            Request::OpenStored { .. } => "rpc.open_stored",
        }
    }

    /// Stable name of the RPC.
    pub fn name(&self) -> &'static str {
        &self.latency_key()["rpc.".len()..]
    }

    pub fn encode(&self) -> Vec<u8> {
        wire::encode(self)
    }

    pub fn decode(buf: &[u8]) -> Result<Request, WireError> {
        wire::decode(buf)
    }
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        wire::encode(self)
    }

    pub fn decode(buf: &[u8]) -> Result<Response, WireError> {
        wire::decode(buf)
    }
}
