//! The fleet TCP server: a blocking acceptor feeding a bounded queue of
//! connections to N worker threads, plus a housekeeper sweeping idle
//! sessions. Shutdown is graceful and gated on a ctrl token: a
//! `Shutdown{token}` RPC with the configured token flips the stop flag,
//! wakes the acceptor with a loopback connect, and every thread joins.
//!
//! Workers read with a short socket timeout so they can notice the stop
//! flag between frames; an in-flight frame is always finished and
//! answered before the connection is dropped. A peer that vanishes
//! mid-frame is a typed [`WireError`] logged and swallowed — never a
//! panic (satellite: "a dropped peer must never panic the server").
//!
//! This module only moves bytes: what a frame means — decode, shutdown
//! gate, dispatch, encode — is [`SessionManager::answer`], and this is the
//! only `accept` loop in the workspace.

use crate::manager::{SessionManager, DEFAULT_IDLE_TTL};
use crate::rpc::Response;
use crate::wire::{self, WireError};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for a fleet server.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Ctrl token required by the `Shutdown` RPC.
    pub shutdown_token: String,
    /// Root of a content-addressed trace store to attach (`None` = no
    /// store: ingests stay session-local and `OpenStored` is refused).
    pub store_root: Option<std::path::PathBuf>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 8,
            shutdown_token: "dejavu".to_string(),
            store_root: None,
        }
    }
}

/// Bounded connection queue between acceptor and workers; a full queue
/// sheds load by dropping the new connection.
const QUEUE: usize = 128;
/// Socket read timeout: the granularity at which idle workers notice the
/// stop flag.
const POLL: Duration = Duration::from_millis(200);
/// Housekeeper sweep cadence.
const SWEEP: Duration = Duration::from_millis(500);

/// A running fleet server. Threads live until [`FleetServer::join`].
pub struct FleetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    manager: Arc<SessionManager>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    housekeeper: Option<JoinHandle<()>>,
}

impl FleetServer {
    /// Bind-and-run: `addr` may use port 0 for an ephemeral port.
    pub fn start(addr: &str, config: FleetConfig) -> std::io::Result<FleetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let mut manager = SessionManager::new();
        if let Some(root) = &config.store_root {
            let store = store::Store::open(root)
                .map_err(|e| std::io::Error::other(format!("open store {root:?}: {e}")))?;
            manager.set_store(Arc::new(store));
        }
        let manager = Arc::new(manager);
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = sync_channel::<TcpStream>(QUEUE);
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::new();
        for _ in 0..config.workers.max(1) {
            let rx = Arc::clone(&rx);
            let manager = Arc::clone(&manager);
            let stop = Arc::clone(&stop);
            let token = config.shutdown_token.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(&rx, &manager, &stop, &token, addr)
            }));
        }

        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || acceptor_loop(listener, tx, &stop))
        };

        let housekeeper = {
            let stop = Arc::clone(&stop);
            let manager = Arc::clone(&manager);
            std::thread::spawn(move || {
                let mut slept = Duration::ZERO;
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(50));
                    slept += Duration::from_millis(50);
                    if slept >= SWEEP {
                        slept = Duration::ZERO;
                        manager.evict_idle(DEFAULT_IDLE_TTL);
                    }
                }
            })
        };

        Ok(FleetServer {
            addr,
            stop,
            manager,
            acceptor: Some(acceptor),
            workers,
            housekeeper: Some(housekeeper),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.manager
    }

    /// Flip the stop flag and wake every blocked thread (used by the
    /// in-process owner; remote peers use the `Shutdown` RPC).
    pub fn trigger_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // One loopback connect per potentially-blocked accept() call.
        let _ = TcpStream::connect(self.addr);
    }

    /// Block until every thread exits. Call [`trigger_shutdown`] first
    /// (or let a `Shutdown` RPC do it) or this blocks forever.
    ///
    /// [`trigger_shutdown`]: FleetServer::trigger_shutdown
    pub fn join(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(h) = self.housekeeper.take() {
            let _ = h.join();
        }
    }
}

fn acceptor_loop(listener: TcpListener, tx: SyncSender<TcpStream>, stop: &AtomicBool) {
    loop {
        let conn = match listener.accept() {
            Ok((c, _)) => c,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            break; // the wake-up connect (or a late client) — drop it
        }
        match tx.try_send(conn) {
            Ok(()) => {}
            // Queue full: shed the connection. The client sees a clean
            // close before the hello and can retry.
            Err(TrySendError::Full(c)) => drop(c),
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // tx drops here; idle workers' recv() fails and they exit.
}

fn worker_loop(
    rx: &Mutex<Receiver<TcpStream>>,
    manager: &SessionManager,
    stop: &AtomicBool,
    token: &str,
    addr: SocketAddr,
) {
    loop {
        // Hold the receiver lock only for the dequeue itself.
        let conn = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv_timeout(Duration::from_millis(200))
        };
        match conn {
            Ok(conn) => {
                // Errors are per-connection: log and move on.
                if let Err(e) = serve_conn(conn, manager, stop, token, addr) {
                    match e {
                        WireError::PeerClosed => {}
                        other => eprintln!("fleet: connection error: {other}"),
                    }
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// What one blocking-with-timeout read attempt produced.
enum Gulp {
    Bytes(usize),
    Eof,
    TimedOut,
}

fn gulp(conn: &mut TcpStream, buf: &mut [u8]) -> Result<Gulp, WireError> {
    match conn.read(buf) {
        Ok(0) => Ok(Gulp::Eof),
        Ok(n) => Ok(Gulp::Bytes(n)),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            Ok(Gulp::TimedOut)
        }
        Err(e) => Err(e.into()),
    }
}

/// Fill `buf` completely, retrying timeouts. Returns `Ok(false)` if the
/// stop flag was raised while *no* bytes of `buf` had arrived yet (clean
/// stopping point) — once a byte arrives the read runs to completion so
/// an in-flight frame is never torn.
fn read_full_stoppable(
    conn: &mut TcpStream,
    buf: &mut [u8],
    stop: &AtomicBool,
    eof_ok: bool,
) -> Result<Option<bool>, WireError> {
    let mut got = 0;
    while got < buf.len() {
        if got == 0 && stop.load(Ordering::SeqCst) {
            return Ok(Some(false));
        }
        match gulp(conn, &mut buf[got..])? {
            Gulp::Bytes(n) => got += n,
            Gulp::TimedOut => continue,
            Gulp::Eof => {
                if got == 0 && eof_ok {
                    return Ok(None);
                }
                return Err(if got == 0 {
                    WireError::PeerClosed
                } else {
                    WireError::Truncated
                });
            }
        }
    }
    Ok(Some(true))
}

fn serve_conn(
    mut conn: TcpStream,
    manager: &SessionManager,
    stop: &AtomicBool,
    token: &str,
    addr: SocketAddr,
) -> Result<(), WireError> {
    conn.set_nodelay(true).map_err(WireError::from)?;
    conn.set_read_timeout(Some(POLL)).map_err(WireError::from)?;

    // Hello exchange: validate, echo.
    let mut hello = [0u8; 5];
    match read_full_stoppable(&mut conn, &mut hello, stop, false)? {
        Some(true) => {}
        _ => return Ok(()), // stop raised before the hello — just drop
    }
    wire::check_hello(&hello)?;
    conn.write_all(&hello).map_err(WireError::from)?;

    loop {
        // Frame header.
        let mut len = [0u8; 4];
        let n = match read_full_stoppable(&mut conn, &mut len, stop, true)? {
            None => return Ok(()),        // peer hung up at a boundary
            Some(false) => return Ok(()), // graceful stop between frames
            Some(true) => u32::from_le_bytes(len) as usize,
        };
        if n > wire::MAX_FRAME {
            // Unrecoverable: we cannot resync a stream after refusing to
            // read its payload. Answer with a typed error and drop.
            let resp = Response::Error {
                code: 1,
                message: WireError::Oversize(n).to_string(),
            };
            let _ = wire::write_frame(&mut conn, &resp.encode());
            return Ok(());
        }
        let mut payload = vec![0u8; n];
        match read_full_stoppable(&mut conn, &mut payload, stop, false)? {
            Some(true) => {}
            _ => return Ok(()),
        }

        let (resp, granted_shutdown) = manager.answer(&payload, token);
        wire::write_frame(&mut conn, &resp)?;
        if granted_shutdown {
            stop.store(true, Ordering::SeqCst);
            // Wake the acceptor so it notices the flag.
            let _ = TcpStream::connect(addr);
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::FleetClient;
    use crate::rpc::Request;
    use crate::session::Session;

    /// A request that panics costs its session, not its worker: the one
    /// worker of this server answers the panic as a typed error and then
    /// the next frames on the same connection.
    #[test]
    fn the_worker_that_ran_a_panicking_request_answers_the_next_frame() {
        let config = FleetConfig {
            workers: 1,
            ..FleetConfig::default()
        };
        let server = FleetServer::start("127.0.0.1:0", config).unwrap();
        fn bomb() -> djvm::Program {
            panic!("planted in the guest builder");
        }
        let planted = workloads::Workload {
            build: bomb,
            ..crate::manager::workload_named("fig1_ab").unwrap()
        };
        let victim = server.manager().install(Session::new(planted, 1));

        let mut client = FleetClient::connect(&server.addr().to_string()).unwrap();
        for told in ["record request panicked", "poisoned"] {
            match client.call(&Request::Record { session: victim }).unwrap() {
                Response::Error { code: 1, message } => assert!(message.contains(told), "{message}"),
                other => panic!("expected a typed error, got {other:?}"),
            }
        }
        let neighbour = client.open("fig1_ab", 2).unwrap();
        let recorded = client.call(&Request::Record { session: neighbour }).unwrap();
        assert!(matches!(recorded, Response::Recorded { .. }), "{recorded:?}");

        server.trigger_shutdown();
        server.join();
    }
}
