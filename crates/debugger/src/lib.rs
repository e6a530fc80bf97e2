//! # debugger — the DejaVu-based perturbation-free debugger (paper §3-§4)
//!
//! Architecture (the paper's Figure 4, three tiers):
//!
//! ```text
//!  application VM ──(replayed deterministically by DejaVu)
//!        ▲
//!        │ remote reflection (word reads only — never executes app code)
//!  debugger tier: [`engine::DebugSession`] — breakpoints, step,
//!        │         reverse-step (checkpoints), stack/thread views;
//!        │         hosted by the fleet server, one per session
//!        │ TCP: a typed [`protocol`] command inside a fleet `Debug`
//!        │      frame, executed by [`server::handle`]
//!  GUI tier: `fleet::FleetClient::debug` / `dejavu-cli debug`
//!            (CLI stand-in for the Swing GUI)
//! ```
//!
//! Because the application runs under DejaVu replay and every query goes
//! through remote reflection, debugging is *perturbation-free*: stop,
//! inspect, resume — the execution remains exactly the recorded one.

pub mod engine;
pub mod protocol;
pub mod server;

pub use engine::{DebugSession, FrameInfo, StopReason, ThreadInfo};
pub use protocol::{Command, Response};
