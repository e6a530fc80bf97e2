//! # fleet — a concurrent multi-session record/replay server
//!
//! The paper's platform is one VM, one trace, one process. This crate is
//! the refactor that turns it into a *service* (DESIGN.md §9): N replay
//! sessions hosted concurrently behind one long-lived TCP server, each
//! session owning its own VM and `TimeTravel` checkpoints so fingerprint
//! determinism is exactly the single-session story.
//!
//! Layering (nothing below knows about anything above):
//!
//! ```text
//!  client: [`FleetClient`] (binary RPC; a typed debugger command
//!      │   rides a `Debug` frame like any other message) and
//!      │   [`client::FleetMemory`], the hosted replay's address space as
//!      │   a tool in the client process reads it
//!  [`server`] thread-pool acceptor — moves bytes
//!      │
//!  [`manager::SessionManager`] — answers a frame: session map,
//!      │   dispatch, telemetry (the single semantic core)
//!  [`session::Session`] — Recording → Sealed → Replaying
//!      │
//!  debugger::DebugSession → dejavu replay → djvm
//! ```
//!
//! The wire protocol ([`wire`], [`rpc`]) is a magic+version hello
//! followed by length-prefixed binary frames; every malformed input is a
//! typed [`WireError`], fuzzed the same way the DJVB decoder is. It is
//! the only way to talk to a resident replay. A debugger message's layout
//! line is also its CLI spelling: the `debug` subcommand parses a command
//! with [`ParseJson`] and prints its response with [`PrintJson`], both
//! derived from that line.
//!
//! The accuracy rule holds across the service: every fingerprint a hosted
//! session computes equals a single-session record/replay of the same
//! workload and seed (`tests/fleet_service.rs` drives 64 sessions at once
//! to check it). The manager's `rpc.*` latency histograms are the crate's
//! one timing site; the numbers come from `benchmark/`'s `fleet_mix`.

pub mod client;
pub mod manager;
pub mod rpc;
pub mod server;
pub mod session;
pub mod wire;

pub use client::{FleetClient, FleetMemory};
pub use manager::{SessionManager, DEFAULT_IDLE_TTL};
pub use rpc::{Request, Response};
pub use server::{FleetConfig, FleetServer};
pub use session::{spec_for, FleetError, Phase, Session};
pub use wire::{ParseJson, PrintJson, WireError, MAGIC, MAX_FRAME, VERSION};
