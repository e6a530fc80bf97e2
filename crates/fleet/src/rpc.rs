//! The fleet RPC surface: typed requests and responses with a hand-rolled
//! binary codec (tag byte + varint fields, strings and blobs length-
//! prefixed). Decoding is strict — a payload must parse exactly and
//! consume every byte, or it is a typed [`WireError`]. Tag 7 (the deleted
//! `Profile` / `Profiled`; `Debug {"cmd":"profile"}` is the one road) stays
//! reserved in both directions.

use crate::wire::{get_bool, get_bytes, get_str, get_u64, put_bool, put_bytes, put_str, WireError};
use codec::put_varint;

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
    /// One debugger [`Command`] as a JSON line, dispatched against the
    /// session's resident replay.
    ///
    /// [`Command`]: debugger::protocol::Command
    Debug { session: u64, command: String },
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
        events: u64,
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
    Debug {
        json: String,
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

impl Request {
    /// The request's latency-histogram key, `rpc.<name>` — the one table
    /// of RPC names.
    pub fn latency_key(&self) -> &'static str {
        match self {
            Request::Open { .. } => "rpc.open",
            Request::IngestBlocks { .. } => "rpc.ingest",
            Request::Record { .. } => "rpc.record",
            Request::Replay { .. } => "rpc.replay",
            Request::SeekLogical { .. } => "rpc.seek",
            Request::DivergenceCheck { .. } => "rpc.divergence",
            Request::Close { .. } => "rpc.close",
            Request::Debug { .. } => "rpc.debug",
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
        let mut b = Vec::new();
        match self {
            Request::Open { workload, seed } => {
                b.push(1);
                put_str(&mut b, workload);
                put_varint(&mut b, *seed);
            }
            Request::IngestBlocks {
                session,
                chunk,
                done,
            } => {
                b.push(2);
                put_varint(&mut b, *session);
                put_bytes(&mut b, chunk);
                put_bool(&mut b, *done);
            }
            Request::Record { session } => {
                b.push(3);
                put_varint(&mut b, *session);
            }
            Request::Replay { session } => {
                b.push(4);
                put_varint(&mut b, *session);
            }
            Request::SeekLogical { session, logical } => {
                b.push(5);
                put_varint(&mut b, *session);
                put_varint(&mut b, *logical);
            }
            Request::DivergenceCheck { session } => {
                b.push(6);
                put_varint(&mut b, *session);
            }
            Request::Close { session } => {
                b.push(8);
                put_varint(&mut b, *session);
            }
            Request::Debug { session, command } => {
                b.push(9);
                put_varint(&mut b, *session);
                put_str(&mut b, command);
            }
            Request::Stats => b.push(10),
            Request::Shutdown { token } => {
                b.push(11);
                put_str(&mut b, token);
            }
            Request::OpenStored { entry } => {
                b.push(12);
                put_str(&mut b, entry);
            }
        }
        b
    }

    pub fn decode(buf: &[u8]) -> Result<Request, WireError> {
        let mut pos = 1usize;
        let tag = *buf.first().ok_or(WireError::Truncated)?;
        let req = match tag {
            1 => Request::Open {
                workload: get_str(buf, &mut pos)?,
                seed: get_u64(buf, &mut pos)?,
            },
            2 => Request::IngestBlocks {
                session: get_u64(buf, &mut pos)?,
                chunk: get_bytes(buf, &mut pos)?,
                done: get_bool(buf, &mut pos)?,
            },
            3 => Request::Record {
                session: get_u64(buf, &mut pos)?,
            },
            4 => Request::Replay {
                session: get_u64(buf, &mut pos)?,
            },
            5 => Request::SeekLogical {
                session: get_u64(buf, &mut pos)?,
                logical: get_u64(buf, &mut pos)?,
            },
            6 => Request::DivergenceCheck {
                session: get_u64(buf, &mut pos)?,
            },
            8 => Request::Close {
                session: get_u64(buf, &mut pos)?,
            },
            9 => Request::Debug {
                session: get_u64(buf, &mut pos)?,
                command: get_str(buf, &mut pos)?,
            },
            10 => Request::Stats,
            11 => Request::Shutdown {
                token: get_str(buf, &mut pos)?,
            },
            12 => Request::OpenStored {
                entry: get_str(buf, &mut pos)?,
            },
            t => return Err(WireError::BadTag(t)),
        };
        if pos != buf.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(req)
    }
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            Response::Opened { session } => {
                b.push(1);
                put_varint(&mut b, *session);
            }
            Response::Ingested { session, bytes } => {
                b.push(2);
                put_varint(&mut b, *session);
                put_varint(&mut b, *bytes);
            }
            Response::Recorded {
                session,
                fingerprint,
                state_digest,
                events,
                trace_bytes,
            } => {
                b.push(3);
                put_varint(&mut b, *session);
                put_varint(&mut b, *fingerprint);
                put_varint(&mut b, *state_digest);
                put_varint(&mut b, *events);
                put_varint(&mut b, *trace_bytes);
            }
            Response::Replayed {
                session,
                fingerprint,
                state_digest,
                clean,
            } => {
                b.push(4);
                put_varint(&mut b, *session);
                put_varint(&mut b, *fingerprint);
                put_varint(&mut b, *state_digest);
                put_bool(&mut b, *clean);
            }
            Response::Sought {
                session,
                target_logical,
                final_step,
                final_logical,
                steps_replayed,
            } => {
                b.push(5);
                put_varint(&mut b, *session);
                put_varint(&mut b, *target_logical);
                put_varint(&mut b, *final_step);
                put_varint(&mut b, *final_logical);
                put_varint(&mut b, *steps_replayed);
            }
            Response::Divergence {
                session,
                clean,
                json,
            } => {
                b.push(6);
                put_varint(&mut b, *session);
                put_bool(&mut b, *clean);
                put_str(&mut b, json);
            }
            Response::Closed { session } => {
                b.push(8);
                put_varint(&mut b, *session);
            }
            Response::Debug { json } => {
                b.push(9);
                put_str(&mut b, json);
            }
            Response::Stats { json } => {
                b.push(10);
                put_str(&mut b, json);
            }
            Response::ShuttingDown => b.push(11),
            Response::Error { code, message } => {
                b.push(12);
                b.push(*code);
                put_str(&mut b, message);
            }
        }
        b
    }

    pub fn decode(buf: &[u8]) -> Result<Response, WireError> {
        let mut pos = 1usize;
        let tag = *buf.first().ok_or(WireError::Truncated)?;
        let resp = match tag {
            1 => Response::Opened {
                session: get_u64(buf, &mut pos)?,
            },
            2 => Response::Ingested {
                session: get_u64(buf, &mut pos)?,
                bytes: get_u64(buf, &mut pos)?,
            },
            3 => Response::Recorded {
                session: get_u64(buf, &mut pos)?,
                fingerprint: get_u64(buf, &mut pos)?,
                state_digest: get_u64(buf, &mut pos)?,
                events: get_u64(buf, &mut pos)?,
                trace_bytes: get_u64(buf, &mut pos)?,
            },
            4 => Response::Replayed {
                session: get_u64(buf, &mut pos)?,
                fingerprint: get_u64(buf, &mut pos)?,
                state_digest: get_u64(buf, &mut pos)?,
                clean: get_bool(buf, &mut pos)?,
            },
            5 => Response::Sought {
                session: get_u64(buf, &mut pos)?,
                target_logical: get_u64(buf, &mut pos)?,
                final_step: get_u64(buf, &mut pos)?,
                final_logical: get_u64(buf, &mut pos)?,
                steps_replayed: get_u64(buf, &mut pos)?,
            },
            6 => Response::Divergence {
                session: get_u64(buf, &mut pos)?,
                clean: get_bool(buf, &mut pos)?,
                json: get_str(buf, &mut pos)?,
            },
            8 => Response::Closed {
                session: get_u64(buf, &mut pos)?,
            },
            9 => Response::Debug {
                json: get_str(buf, &mut pos)?,
            },
            10 => Response::Stats {
                json: get_str(buf, &mut pos)?,
            },
            11 => Response::ShuttingDown,
            12 => {
                let code = *buf.get(pos).ok_or(WireError::Truncated)?;
                pos += 1;
                Response::Error {
                    code,
                    message: get_str(buf, &mut pos)?,
                }
            }
            t => return Err(WireError::BadTag(t)),
        };
        if pos != buf.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(resp)
    }
}
