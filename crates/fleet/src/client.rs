//! A typed fleet client: one TCP connection, blocking request/response.
//! Sessions outlive connections — a client may connect, open sessions,
//! disconnect, and drive the same sessions later from a new connection
//! (`tests/fleet_service.rs`'s 64-session waves do exactly this).

use crate::rpc::{Request, Response};
use crate::wire::{self, WireError};
use debugger::protocol::{Command, Response as DebugResponse};
use reflect::ProcessMemory;
use std::cell::RefCell;
use std::io::{Read, Write};
use std::net::TcpStream;

/// Upload chunk size for [`FleetClient::ingest_trace`]. Small enough to
/// exercise the chunking path, large enough to not matter.
pub const INGEST_CHUNK: usize = 64 * 1024;

pub struct FleetClient {
    stream: TcpStream,
}

impl FleetClient {
    /// Connect and perform the hello exchange.
    pub fn connect(addr: &str) -> Result<FleetClient, WireError> {
        let mut stream = TcpStream::connect(addr).map_err(WireError::from)?;
        stream.set_nodelay(true).map_err(WireError::from)?;
        stream
            .write_all(&wire::hello_bytes())
            .map_err(WireError::from)?;
        let mut echo = [0u8; 5];
        match stream.read_exact(&mut echo) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Err(WireError::PeerClosed)
            }
            Err(e) => return Err(e.into()),
        }
        wire::check_hello(&echo)?;
        Ok(FleetClient { stream })
    }

    /// One round trip.
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        wire::write_frame(&mut self.stream, &req.encode())?;
        let frame = wire::read_frame(&mut self.stream)?;
        Response::decode(&frame)
    }

    pub fn open(&mut self, workload: &str, seed: u64) -> Result<u64, WireError> {
        match self.call(&Request::Open {
            workload: workload.to_string(),
            seed,
        })? {
            Response::Opened { session } => Ok(session),
            other => Err(unexpected(other)),
        }
    }

    /// Stream a DJVB-encoded trace into a session, sealing it with the
    /// final chunk.
    pub fn ingest_trace(&mut self, session: u64, bytes: &[u8]) -> Result<u64, WireError> {
        let mut sent = 0u64;
        let chunks: Vec<&[u8]> = if bytes.is_empty() {
            vec![&[]]
        } else {
            bytes.chunks(INGEST_CHUNK).collect()
        };
        let last = chunks.len() - 1;
        for (i, chunk) in chunks.into_iter().enumerate() {
            match self.call(&Request::IngestBlocks {
                session,
                chunk: chunk.to_vec(),
                done: i == last,
            })? {
                Response::Ingested { bytes, .. } => sent = bytes,
                other => return Err(unexpected(other)),
            }
        }
        Ok(sent)
    }

    /// Open a session over a trace-store catalog entry: no upload, the
    /// server serves the run out of its shared deduped blocks.
    pub fn open_stored(&mut self, entry: &str) -> Result<u64, WireError> {
        match self.call(&Request::OpenStored {
            entry: entry.to_string(),
        })? {
            Response::Opened { session } => Ok(session),
            other => Err(unexpected(other)),
        }
    }

    /// Run one debugger command against a session's resident replay.
    /// Sessions outlive connections, so a debugging dialogue may span
    /// any number of short-lived clients.
    pub fn debug(&mut self, session: u64, cmd: &Command) -> Result<DebugResponse, WireError> {
        match self.call(&Request::Debug {
            session,
            command: cmd.clone(),
        })? {
            Response::Debug { response } => Ok(response),
            other => Err(unexpected(other)),
        }
    }

    pub fn stats(&mut self) -> Result<String, WireError> {
        match self.call(&Request::Stats)? {
            Response::Stats { json } => Ok(json),
            other => Err(unexpected(other)),
        }
    }

    /// Request a graceful shutdown; `Ok(true)` iff the token was accepted.
    pub fn shutdown(&mut self, token: &str) -> Result<bool, WireError> {
        match self.call(&Request::Shutdown {
            token: token.to_string(),
        })? {
            Response::ShuttingDown => Ok(true),
            Response::Error { .. } => Ok(false),
            other => Err(unexpected(other)),
        }
    }
}

/// A fleet-hosted replay's address space, read from the *client* process:
/// the paper's tool JVM reading the paused application JVM through the
/// debug interface (§3.2). Each word is one `read` command on the fleet
/// frame, answered by copying a word out — the server runs no guest code
/// for it — so a `reflect::RemoteReflector` over this runs the reflection
/// methods here, against data there. The boot-image addresses it needs a
/// priori come from booting the same [`spec_for`](crate::spec_for) locally
/// (§3.3).
pub struct FleetMemory {
    client: RefCell<FleetClient>,
    session: u64,
}

impl FleetMemory {
    pub fn new(client: FleetClient, session: u64) -> Self {
        FleetMemory {
            client: RefCell::new(client),
            session,
        }
    }
}

impl ProcessMemory for FleetMemory {
    fn read_word(&self, addr: u64) -> Option<u64> {
        let read = Command::Read { addr, n: 1 };
        match self.client.borrow_mut().debug(self.session, &read) {
            Ok(DebugResponse::Words { words }) => words.first().copied(),
            _ => None,
        }
    }
}

fn unexpected(resp: Response) -> WireError {
    match resp {
        Response::Error { message, .. } => WireError::Io(format!("server error: {message}")),
        other => WireError::Io(format!("unexpected response {other:?}")),
    }
}
