//! Igor / Recap / Boothe-style checkpointing (paper §5). Combined with a
//! DejaVu trace, checkpoints buy time travel, and that is the product's own
//! [`dejavu::timetravel`] — until checkpoints are page deltas (ROADMAP
//! item 1(b)) the comparator *is* the same full-image checkpoint, so this
//! module is only the name `benchmark/` imports.
pub use dejavu::timetravel::{Checkpoint, SeekStats, TimeTravel};
