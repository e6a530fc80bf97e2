//! Igor / Recap / Boothe-style checkpointing (paper §5). Combined with a
//! DejaVu trace, checkpoints buy time travel, and that is the product's own
//! [`dejavu::timetravel`], whose checkpoint is an image of the heap up to
//! what the guest has written. Until checkpoints are page deltas (ROADMAP
//! item 1(b)) the comparator *is* that image, so this module is only the
//! name `benchmark/` imports.
pub use dejavu::timetravel::{Checkpoint, SeekStats, TimeTravel};
