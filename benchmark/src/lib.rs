//! The repo's benchmark: four workloads from guest record to fleet
//! session, measured from outside through the crates' public functions
//! with their public defaults, with a traced per-layer ledger. See
//! `README.md` for the workloads, the metrics and how they interact.

pub mod compare;
pub mod corpus;
pub mod env;
pub mod fleetmix;
pub mod guests;
pub mod metrics;
pub mod pipeline;
pub mod probe;
pub mod run;
pub mod spans;
pub mod storeops;
pub mod suite;
pub mod window;

use metrics::Values;
use spans::Span;
use window::JobLog;

/// What one workload's measured window produced.
pub struct Outcome {
    pub log: JobLog,
    /// The end-to-end metrics only this workload has.
    pub e2e: Values,
    /// Per-layer metrics (traced runs only).
    pub layer: Values,
    pub spans: Vec<Span>,
}
