//! Time travel over a replayed run: checkpoints plus the one replay loop.
//!
//! The paper's §5 case against Igor/Boothe-style checkpointing is that
//! DejaVu needs no second execution mechanism: replay regenerates
//! everything between two checkpoints, so "reverse execution" is a restore
//! plus ordinary replay. Every motion is a seek — [`TimeTravel::seek`] by
//! step, [`TimeTravel::seek_logical`] by logical time — and a forward run
//! is a seek to a later step (`seek(u64::MAX)` runs to the end). The
//! replay itself is [`interp::run_until`], in whatever dispatch tier the
//! VM runs, paused at the nearest of the caller's target and the next
//! checkpoint key. The debugger's step, continue and reverse-step and the
//! fleet's `Replay`/`SeekLogical` RPCs sit on top.
//!
//! The same determinism means a checkpoint, once taken, is the state at
//! its step for as long as the trace exists, so none is ever dropped. A
//! seek in either direction has one rule: restore the newest checkpoint at
//! or before where the seek lands when the target is behind the VM or that
//! checkpoint is ahead of it, then replay forward. A seek therefore
//! replays at most one checkpoint interval past the checkpoints taken so
//! far.

use crate::{DejaVuReplayer, Desync, SymmetryConfig, Trace};
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

/// What one [`TimeTravel::seek_logical`] actually did: where it restored
/// from and how much it replayed to land. With block-boundary keys only, a
/// seek replays from the last boundary below the target, which is
/// O(block) only where the boundaries spread over the run's logical time:
/// DJVB stores a block's switches before its data, so on an event-dense
/// trace the data-only blocks share one boundary. A step cadence bounds it
/// whatever the boundaries are.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeekStats {
    /// Logical time the caller asked for.
    pub target_logical: u64,
    /// Whether a checkpoint restore happened: the target lay behind the
    /// VM, or a kept checkpoint lay between the VM and the target.
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
/// index or logical time (forward and backward).
pub struct TimeTravel {
    vm: Vm,
    replayer: DejaVuReplayer,
    pub checkpoints: Vec<Checkpoint>,
    interval: u64,
    /// Extra checkpoint keys in logical time — block boundaries from a
    /// block-trace footer index ([`crate::BlockFile::boundaries`]). A
    /// snapshot is taken on the first step that enters each boundary, so
    /// a logical-time seek decodes/replays a single block span.
    boundaries: Vec<u64>,
    /// Steps executed since replay start.
    pub step: u64,
    /// Seeks that restored a checkpoint, backward or forward (experiment
    /// counter).
    pub restores: u64,
    /// Steps those seeks replayed from the checkpoint they restored
    /// (experiment counter).
    pub reexecuted: u64,
}

impl TimeTravel {
    /// Wrap a freshly booted replay VM. Checkpoints go every `interval`
    /// steps (`u64::MAX`: none past step 0) and at the first step that
    /// enters each logical-time `boundary` (sorted ascending, as a block
    /// trace's footer index is; empty for none).
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

    /// Keep the state at the current step, in step order; a step already
    /// held is held once.
    fn take_checkpoint(&mut self) {
        let Err(at) = self
            .checkpoints
            .binary_search_by_key(&self.step, |c| c.at_step)
        else {
            return;
        };
        let snapshot = self.vm.snapshot();
        let bytes = self.vm.snapshot_size_bytes();
        self.checkpoints.insert(
            at,
            Checkpoint {
                at_step: self.step,
                at_logical: self.logical_time(),
                snapshot,
                replayer: self.replayer.clone(),
                bytes,
            },
        );
    }

    /// Replay forward until `to_step`, `to_logical` or the end of the run,
    /// whichever comes first. Each leg runs the interpreter to the nearest
    /// of {the target, the next step-cadence key, the next block boundary}
    /// — a step bound and a logical-time bound — and takes the checkpoint
    /// the key it stopped on calls for.
    fn forward(&mut self, to_step: u64, to_logical: u64) {
        while self.step < to_step && self.logical_time() < to_logical && self.vm.status.is_running()
        {
            let (now, lt) = (self.vm.counters.steps, self.logical_time());
            let cadence_key = (self.step / self.interval + 1).saturating_mul(self.interval);
            // First boundary in the logical future (t=0 is the construction
            // checkpoint's; a restore re-arms the ones it rewinds past).
            let next = self.boundaries.partition_point(|&b| b <= lt);
            let boundary_key = self.boundaries.get(next).copied().unwrap_or(u64::MAX);
            interp::run_until(
                &mut self.vm,
                &mut self.replayer,
                to_step.min(cadence_key) - self.step,
                to_logical.min(boundary_key),
            );
            self.step += self.vm.counters.steps - now;
            // The step that reaches a block boundary anchors that block.
            if self.step == cadence_key || self.logical_time() >= boundary_key {
                self.take_checkpoint();
            }
        }
    }

    /// Travel to whichever of `to_step` / `to_logical` comes first. The
    /// newest checkpoint at or before the landing — `at_step ≤ to_step`,
    /// `at_logical < to_logical`, since a cadence checkpoint whose clock
    /// already reads the target can sit past the first step that did — is
    /// restored when the target lies behind the VM or the checkpoint ahead
    /// of it; then it is ordinary replay ("reverse execution" per
    /// Igor/Boothe). A logical seek thus lands where a straight replay
    /// first reaches the target, unless the VM's clock reads it already.
    fn travel(&mut self, to_step: u64, to_logical: u64) -> SeekStats {
        let mut stats = SeekStats {
            target_logical: to_logical,
            ..SeekStats::default()
        };
        let idx = self
            .checkpoints
            .partition_point(|c| c.at_step <= to_step && c.at_logical < to_logical)
            .saturating_sub(1);
        let cp = &self.checkpoints[idx];
        if to_step < self.step || to_logical < self.logical_time() || cp.at_step > self.step {
            self.vm.restore(&cp.snapshot);
            self.replayer = cp.replayer.clone();
            self.step = cp.at_step;
            self.restores += 1;
            stats.restored = true;
        }
        stats.checkpoint_step = self.step;
        stats.checkpoint_logical = self.logical_time();
        let events_before = self.replayer.events_consumed();
        self.forward(to_step, to_logical);
        stats.steps_replayed = self.step - stats.checkpoint_step;
        if stats.restored {
            self.reexecuted += stats.steps_replayed;
        }
        stats.events_replayed = self.replayer.events_consumed() - events_before;
        stats.final_step = self.step;
        stats.final_logical = self.logical_time();
        stats
    }

    /// Travel to an absolute step index, forward or backward.
    pub fn seek(&mut self, target: u64) {
        self.travel(target, u64::MAX);
    }

    /// Travel to an absolute *logical time* (counted yield points) — the
    /// block-trace seek path. Returns what the seek cost (see
    /// [`SeekStats`]).
    pub fn seek_logical(&mut self, target: u64) -> SeekStats {
        self.travel(u64::MAX, target)
    }

    /// Desyncs the underlying replayer has observed so far (empty while
    /// the replay is tracking the recorded execution accurately).
    pub fn desyncs(&self) -> &[Desync] {
        self.replayer.desyncs()
    }

    /// Total checkpoint storage (bytes) currently held.
    pub fn storage_bytes(&self) -> usize {
        self.checkpoints.iter().map(|c| c.bytes).sum()
    }
}
