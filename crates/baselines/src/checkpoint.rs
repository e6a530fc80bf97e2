//! Igor / Recap / Boothe-style checkpointing (paper §5): periodic full
//! program-state snapshots enabling "reverse execution" by restoring a
//! checkpoint and re-executing forward.
//!
//! The paper's critique is the space/time cost of snapshots; combined with
//! a DejaVu trace, checkpoints buy *time travel*: restore the latest
//! snapshot at or before the target, then deterministically replay forward.
//! The debugger uses this for reverse-step.

use dejavu::{DejaVuReplayer, SymmetryConfig, Trace};
use djvm::hook::ExecHook;
use djvm::vm::VmSnapshot;
use djvm::{interp, Vm, VmStatus};
use std::sync::Arc;

/// One checkpoint: guest state plus the replay cursor that goes with it.
pub struct Checkpoint {
    /// Steps executed when the snapshot was taken.
    pub at_step: u64,
    /// Logical time (counted yield points) when the snapshot was taken.
    pub at_logical: u64,
    snapshot: VmSnapshot,
    replayer: DejaVuReplayer,
    /// Approximate serialized size (bytes).
    pub bytes: usize,
}

/// What one [`TimeTravel::seek_logical`] actually did — the evidence that
/// a checkpoint-indexed seek replays O(block), not O(run).
#[derive(Debug, Clone, Copy, Default)]
pub struct SeekStats {
    /// Logical time the caller asked for.
    pub target_logical: u64,
    /// Whether a checkpoint restore happened (backward seeks only).
    pub restored: bool,
    /// Step / logical time of the checkpoint the seek started from
    /// (current position when no restore happened).
    pub checkpoint_step: u64,
    pub checkpoint_logical: u64,
    /// Interpreter steps executed to reach the target.
    pub steps_replayed: u64,
    /// Trace events (switches + clock reads + native calls) consumed
    /// while catching up — the "events in the target block span" number.
    pub events_replayed: u64,
    /// Where the seek landed (== target unless the program halted first).
    pub final_step: u64,
    pub final_logical: u64,
}

/// A replaying VM with periodic checkpoints and random access by step
/// index (forward and backward).
pub struct TimeTravel {
    vm: Vm,
    replayer: DejaVuReplayer,
    pub checkpoints: Vec<Checkpoint>,
    interval: u64,
    /// Extra checkpoint keys in logical time — block boundaries from a
    /// block-trace footer index ([`dejavu::BlockFile::boundaries`]). A
    /// snapshot is taken on the first step that enters each boundary, so
    /// a logical-time seek decodes/replays a single block span.
    boundaries: Vec<u64>,
    /// Cursor into `boundaries`: first boundary not yet checkpointed.
    next_boundary: usize,
    /// Steps executed since replay start.
    pub step: u64,
    /// Restores performed (experiment counter).
    pub restores: u64,
    /// Steps re-executed due to restores (experiment counter).
    pub reexecuted: u64,
}

impl TimeTravel {
    /// Wrap a freshly booted replay VM. `interval` = steps between
    /// checkpoints (the space/time knob the paper discusses).
    pub fn new(vm: Vm, trace: impl Into<Arc<Trace>>, sym: SymmetryConfig, interval: u64) -> Self {
        Self::new_indexed(vm, trace, sym, interval, Vec::new())
    }

    /// Like [`TimeTravel::new`], additionally checkpointing at each given
    /// logical-time boundary (must be sorted ascending; block boundaries
    /// from a block-structured trace are).
    pub fn new_indexed(
        mut vm: Vm,
        trace: impl Into<Arc<Trace>>,
        sym: SymmetryConfig,
        interval: u64,
        boundaries: Vec<u64>,
    ) -> Self {
        assert!(interval > 0);
        debug_assert!(boundaries.windows(2).all(|w| w[0] <= w[1]));
        let mut replayer = DejaVuReplayer::new(trace, sym);
        replayer.on_init(&mut vm);
        let mut tt = Self {
            vm,
            replayer,
            checkpoints: Vec::new(),
            interval,
            // the t=0 boundary is covered by the construction checkpoint
            next_boundary: boundaries.partition_point(|&b| b == 0),
            boundaries,
            step: 0,
            restores: 0,
            reexecuted: 0,
        };
        tt.take_checkpoint();
        tt
    }

    /// Logical time = counted yield points, the clock the trace's block
    /// index is keyed by (survives snapshot/restore with the counters).
    pub fn logical_time(&self) -> u64 {
        self.vm.counters.yield_points
    }

    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    pub fn status(&self) -> VmStatus {
        self.vm.status
    }

    fn take_checkpoint(&mut self) {
        let snapshot = self.vm.snapshot();
        let bytes = self.vm.snapshot_size_bytes();
        self.checkpoints.push(Checkpoint {
            at_step: self.step,
            at_logical: self.logical_time(),
            snapshot,
            replayer: self.replayer.clone(),
            bytes,
        });
    }

    /// Execute exactly one replayed instruction (checkpointing on the
    /// configured step cadence and at block boundaries).
    pub fn step_once(&mut self) {
        if !self.vm.status.is_running() {
            return;
        }
        interp::step(&mut self.vm, &mut self.replayer);
        self.step += 1;
        let lt = self.logical_time();
        let mut checkpoint = self.step % self.interval == 0;
        // First step at or past a block boundary anchors that block.
        while self.next_boundary < self.boundaries.len()
            && self.boundaries[self.next_boundary] <= lt
        {
            self.next_boundary += 1;
            checkpoint = true;
        }
        if checkpoint {
            self.take_checkpoint();
        }
    }

    /// Run forward `n` steps (or until the VM stops).
    pub fn advance(&mut self, n: u64) {
        for _ in 0..n {
            if !self.vm.status.is_running() {
                break;
            }
            self.step_once();
        }
    }

    /// Travel to an absolute step index — backward via checkpoint restore
    /// plus deterministic forward re-execution ("reverse execution" per
    /// Igor/Boothe).
    pub fn seek(&mut self, target: u64) {
        let mut restored = false;
        if target < self.step {
            let idx = self
                .checkpoints
                .partition_point(|c| c.at_step <= target)
                .saturating_sub(1);
            self.restore_checkpoint(idx);
            restored = true;
        }
        let before = self.step;
        while self.step < target && self.vm.status.is_running() {
            self.step_once();
        }
        if restored {
            // only restore-induced catch-up counts as re-execution
            self.reexecuted += self.step - before;
        }
    }

    /// Restore checkpoint `idx`, dropping checkpoints from its future and
    /// re-arming the boundary cursor so re-execution re-takes them.
    fn restore_checkpoint(&mut self, idx: usize) {
        let cp = &self.checkpoints[idx];
        self.vm.restore(&cp.snapshot);
        self.replayer = cp.replayer.clone();
        self.step = cp.at_step;
        self.restores += 1;
        self.checkpoints.truncate(idx + 1);
        let lt = self.logical_time();
        self.next_boundary = self.boundaries.partition_point(|&b| b <= lt);
    }

    /// Travel to an absolute *logical time* (counted yield points) — the
    /// block-trace seek path. Restores the newest checkpoint at or before
    /// `target` when seeking backward, then replays forward until the
    /// VM's logical clock reaches `target` (or the program stops).
    /// Returns what the seek cost; with block-boundary checkpoints
    /// ([`TimeTravel::new_indexed`]) `events_replayed` is bounded by one
    /// block span regardless of run length.
    pub fn seek_logical(&mut self, target: u64) -> SeekStats {
        let mut stats = SeekStats {
            target_logical: target,
            ..SeekStats::default()
        };
        if target < self.logical_time() {
            let idx = self
                .checkpoints
                .partition_point(|c| c.at_logical <= target)
                .saturating_sub(1);
            self.restore_checkpoint(idx);
            stats.restored = true;
        }
        stats.checkpoint_step = self.step;
        stats.checkpoint_logical = self.logical_time();
        let events_before = self.replayer.events_consumed();
        let before = self.step;
        while self.logical_time() < target && self.vm.status.is_running() {
            self.step_once();
        }
        if stats.restored {
            self.reexecuted += self.step - before;
        }
        stats.steps_replayed = self.step - before;
        stats.events_replayed = self.replayer.events_consumed() - events_before;
        stats.final_step = self.step;
        stats.final_logical = self.logical_time();
        stats
    }

    /// Desyncs the underlying replayer has observed so far (empty while
    /// the replay is tracking the recorded execution accurately).
    pub fn desyncs(&self) -> &[dejavu::Desync] {
        self.replayer.desyncs()
    }

    /// Total checkpoint storage (bytes) currently held.
    pub fn storage_bytes(&self) -> usize {
        self.checkpoints.iter().map(|c| c.bytes).sum()
    }
}
