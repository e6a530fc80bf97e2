//! Green threads with heap-resident activation stacks.
//!
//! As in Jalapeño, each thread's activation stack is an ordinary (but
//! specially flagged) heap array that the VM **grows by allocating a larger
//! array and rebasing** when a frame no longer fits — which is why
//! instrumentation-induced stack growth is a perturbation channel the
//! paper's "symmetry in stack overflow" must close (§2.4).
//!
//! ## Frame layout (absolute heap addresses)
//!
//! ```text
//! fp+0  saved fp of caller (0 for a thread's root frame)
//! fp+1  method id
//! fp+2  saved caller pc | flags   (see [`SavedPc`])
//! fp+3 .. fp+3+nlocals-1          locals
//! fp+3+nlocals ..                 operand stack; sp = one past the top
//! ```

use crate::bytecode::MethodId;
use crate::heap::{Addr, Heap};

/// Thread identifier (index into the VM's thread table).
pub type Tid = u32;

/// What a thread is doing, scheduler-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadStatus {
    /// In the ready queue (or current).
    Ready,
    /// The (single) running thread — we are a uniprocessor.
    Running,
    /// Blocked entering the monitor of the object at the address.
    BlockedMonitor(Addr),
    /// In the wait set of the monitor (untimed `wait`).
    Waiting(Addr),
    /// In the wait set with a timeout pending.
    TimedWaiting(Addr),
    /// In `sleep`.
    Sleeping,
    /// Blocked in `join` on the given thread.
    JoinWaiting(Tid),
    /// Finished.
    Terminated,
}

/// Decoded `fp+2` word: the caller's pc at its call instruction, plus frame
/// flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SavedPc {
    /// The pc of the `Call`/`CallVirtual` in the caller (resume at +1).
    pub caller_pc: u32,
    /// Discard this frame's return value: set on exactly the *injected*
    /// frames (helper, native-callback and tool frames). Their caller has
    /// not executed the instruction it resumes at, so `caller_pc` is that
    /// pc − 1 — `u32::MAX` under a frame injected at a method prologue.
    pub discard_result: bool,
    /// This frame belongs to interpreted *instrumentation* (a DejaVu helper
    /// method): when it pops, the VM leaves instrumentation mode and a
    /// deferred thread switch may fire. Yield points inside such frames are
    /// invisible to the logical clock (the `liveClock` rule of §2.4).
    pub instrumentation: bool,
}

const DISCARD_BIT: u64 = 1 << 62;
const INSTR_BIT: u64 = 1 << 61;

impl SavedPc {
    pub fn encode(self) -> u64 {
        let mut w = self.caller_pc as u64;
        if self.discard_result {
            w |= DISCARD_BIT;
        }
        if self.instrumentation {
            w |= INSTR_BIT;
        }
        w
    }

    pub fn decode(w: u64) -> SavedPc {
        SavedPc {
            caller_pc: (w & 0xFFFF_FFFF) as u32,
            discard_result: w & DISCARD_BIT != 0,
            instrumentation: w & INSTR_BIT != 0,
        }
    }
}

/// Per-thread state. The register file (`fp`, `sp`, `pc`, `method`) is
/// authoritative here at all times, so the GC and the debugger can walk any
/// thread's frames without cooperation from the interpreter.
#[derive(Debug, Clone)]
pub struct ThreadState {
    pub tid: Tid,
    /// The guest-visible Thread object.
    pub thread_obj: Addr,
    /// The activation-stack array (0 once terminated).
    pub stack_obj: Addr,
    /// Current frame base (absolute heap address).
    pub fp: Addr,
    /// One past the top of the operand stack (absolute heap address).
    pub sp: Addr,
    /// Next instruction to execute in `method`.
    pub pc: u32,
    pub method: MethodId,
    pub status: ThreadStatus,
    /// Value to push on the operand stack when next resumed (wait/sleep
    /// status codes).
    pub pending_push: Option<i64>,
    /// Java-style interrupt flag.
    pub interrupted: bool,
    /// Yield points executed by this thread while *not* in instrumentation:
    /// the thread's logical clock (diagnostics; DejaVu keeps its own).
    pub yield_points: u64,
    pub name: String,
}

impl ThreadState {
    /// Operand-stack depth of the current frame, given its locals count.
    pub fn stack_depth(&self, nlocals: u16) -> usize {
        (self.sp - (self.fp + 3 + nlocals as u64)) as usize
    }

    /// The activation stack now lives `delta` words further on (grown into
    /// a larger array, or copied by the collector): move the registers and
    /// the saved-fp chain, which hold absolute addresses, inside the new
    /// copy.
    pub(crate) fn rebase_stack(&mut self, heap: &mut Heap, delta: u64) {
        self.fp = self.fp.wrapping_add(delta);
        self.sp = self.sp.wrapping_add(delta);
        let mut fp = self.fp;
        loop {
            let sfp = heap.mem[fp as usize];
            if sfp == 0 {
                break;
            }
            let moved = sfp.wrapping_add(delta);
            heap.mem[fp as usize] = moved;
            fp = moved;
        }
    }

    pub fn is_blocked(&self) -> bool {
        matches!(
            self.status,
            ThreadStatus::BlockedMonitor(_)
                | ThreadStatus::Waiting(_)
                | ThreadStatus::TimedWaiting(_)
                | ThreadStatus::Sleeping
                | ThreadStatus::JoinWaiting(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saved_pc_roundtrip() {
        for pc in [0u32, 1, 12345, u32::MAX] {
            for discard in [false, true] {
                for instr in [false, true] {
                    let s = SavedPc {
                        caller_pc: pc,
                        discard_result: discard,
                        instrumentation: instr,
                    };
                    assert_eq!(SavedPc::decode(s.encode()), s);
                }
            }
        }
    }

    #[test]
    fn blocked_predicate() {
        let mut t = ThreadState {
            tid: 0,
            thread_obj: 0,
            stack_obj: 0,
            fp: 0,
            sp: 0,
            pc: 0,
            method: 0,
            status: ThreadStatus::Running,
            pending_push: None,
            interrupted: false,
            yield_points: 0,
            name: "t".into(),
        };
        assert!(!t.is_blocked());
        t.status = ThreadStatus::Sleeping;
        assert!(t.is_blocked());
        t.status = ThreadStatus::Terminated;
        assert!(!t.is_blocked());
    }

    #[test]
    fn stack_depth_computation() {
        let t = ThreadState {
            tid: 0,
            thread_obj: 0,
            stack_obj: 0,
            fp: 100,
            sp: 110,
            pc: 0,
            method: 0,
            status: ThreadStatus::Running,
            pending_push: None,
            interrupted: false,
            yield_points: 0,
            name: "t".into(),
        };
        // header 3 + 4 locals => operand base 107; sp 110 => depth 3.
        assert_eq!(t.stack_depth(4), 3);
    }
}
