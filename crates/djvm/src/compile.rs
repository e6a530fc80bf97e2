//! The baseline compiler: verification, reference maps, yield points.
//!
//! DejaVu runs on Jalapeño's *baseline* compiler (paper §1, footnote 2).
//! Our analogue performs, per method:
//!
//! 1. **Verification** — an abstract interpretation over slot types
//!    (`Int` / `Ref` / dead) that rejects stack underflow, type confusion,
//!    bad branch targets, signature mismatches and any operand that
//!    indexes a program table (locals, classes, static fields, methods,
//!    vtable slots, natives, strings) out of range — the interpreter
//!    indexes those tables unchecked. Ops typed by the op alone are rows
//!    of `stack_effect`; every rejection is a [`CompileError`].
//! 2. **Reference maps** (paper §1: "Jalapeño reference maps specify these
//!    locations for predefined safe-points") — for *every* pc, which locals
//!    and operand-stack slots hold references. The type-accurate GC walks
//!    paused frames with these maps.
//! 3. **Yield-point identification** — method prologues plus loop
//!    backedges, the only program points where a preemptive thread switch
//!    may occur, and hence the ticks of DejaVu's logical clock.
//! 4. **Frame sizing** — max operand-stack depth, so activation-stack
//!    overflow checks (and the eager-growth symmetry of §2.4) are exact.
//! 5. **Quickening** — every method is rewritten into an internal [`QOp`]
//!    stream with pre-decoded operands (jump targets carry their backedge
//!    bit, monomorphic virtual calls are devirtualized) and fused
//!    superinstructions for common pairs/triples. The quickened stream is
//!    *derived* metadata and the interpreter's quickened dispatch loop
//!    is proven bit-identical to the unfused one (see `interp`).
//!
//! The VM's builtin classes and interpreted instrumentation helpers (the
//! boot-image analogue) are guest code like any other: the builder adds
//! them in [`crate::builder::ProgramBuilder::finish`] before this pass.

use crate::bytecode::{ClassId, MethodId, NativeId, Op, Ty};
use crate::fingerprint::{Fingerprint, StepFold};
use crate::heap::{Addr, Heap, Word};
use crate::objref;
use crate::program::{Method, Program};
use crate::vm::ErrKind;
use std::collections::VecDeque;

/// Verifier slot type: `Dead` slots are unusable (uninitialized or merge of
/// incompatible types); they are treated as non-references by the GC, which
/// is sound because the verifier rejects any *use* of a dead slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsTy {
    Dead,
    Int,
    Ref,
}

impl AbsTy {
    fn merge(self, other: AbsTy) -> AbsTy {
        if self == other {
            self
        } else {
            AbsTy::Dead
        }
    }

    fn of(ty: Ty) -> AbsTy {
        match ty {
            Ty::Int => AbsTy::Int,
            Ty::Ref => AbsTy::Ref,
        }
    }
}

/// Which slots of a frame hold references at a given pc (state *before*
/// executing the instruction at that pc).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefMap {
    /// Operand stack depth at this pc.
    pub stack_depth: u16,
    /// Bit i set => local slot i holds a reference.
    pub locals: BitSet,
    /// Bit i set => operand-stack slot i (from the bottom) holds a reference.
    pub stack: BitSet,
}

/// A compact bitset over frame slots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    pub fn set(&mut self, i: usize, v: bool) {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        if v {
            self.words[w] |= 1 << (i % 64);
        } else {
            self.words[w] &= !(1 << (i % 64));
        }
    }

    pub fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |b| (w & (1 << b) != 0).then_some(wi * 64 + b))
        })
    }

    /// Build from a slice of booleans (index i set iff `bits[i]`).
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut s = Self::with_capacity(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                s.set(i, true);
            }
        }
        s
    }
}

/// Pre-decoded integer ALU function for the *total* binary ops. `Div`
/// and `Rem` are deliberately absent: they can fail (divide by zero), and
/// superinstruction constituents must be total so the quickened loop can
/// batch its cycle accounting ahead of the effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluFn {
    Add,
    Sub,
    Mul,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

impl AluFn {
    pub fn of(op: Op) -> Option<AluFn> {
        Some(match op {
            Op::Add => AluFn::Add,
            Op::Sub => AluFn::Sub,
            Op::Mul => AluFn::Mul,
            Op::BitAnd => AluFn::BitAnd,
            Op::BitOr => AluFn::BitOr,
            Op::BitXor => AluFn::BitXor,
            Op::Shl => AluFn::Shl,
            Op::Shr => AluFn::Shr,
            _ => return None,
        })
    }

    /// The guest's integer arithmetic, in every tier (via [`Pure::exec`]).
    #[inline]
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            AluFn::Add => a.wrapping_add(b),
            AluFn::Sub => a.wrapping_sub(b),
            AluFn::Mul => a.wrapping_mul(b),
            AluFn::BitAnd => a & b,
            AluFn::BitOr => a | b,
            AluFn::BitXor => a ^ b,
            AluFn::Shl => a.wrapping_shl(b as u32 & 63),
            AluFn::Shr => a.wrapping_shr(b as u32 & 63),
        }
    }
}

/// Pre-decoded integer comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpFn {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpFn {
    pub fn of(op: Op) -> Option<CmpFn> {
        Some(match op {
            Op::Eq => CmpFn::Eq,
            Op::Ne => CmpFn::Ne,
            Op::Lt => CmpFn::Lt,
            Op::Le => CmpFn::Le,
            Op::Gt => CmpFn::Gt,
            Op::Ge => CmpFn::Ge,
            _ => return None,
        })
    }

    #[inline]
    pub fn apply(self, a: i64, b: i64) -> bool {
        match self {
            CmpFn::Eq => a == b,
            CmpFn::Ne => a != b,
            CmpFn::Lt => a < b,
            CmpFn::Le => a <= b,
            CmpFn::Gt => a > b,
            CmpFn::Ge => a >= b,
        }
    }
}

/// `Div` (or `Rem` if `rem`), the two partial ALU ops, for every tier and
/// the remote reflector: a zero divisor is the guest's `DivideByZero`.
pub fn div_rem(a: i64, b: i64, rem: bool) -> Result<i64, ErrKind> {
    match (b, rem) {
        (0, _) => Err(ErrKind::DivideByZero),
        (_, false) => Ok(a.wrapping_div(b)),
        (_, true) => Ok(a.wrapping_rem(b)),
    }
}

/// A *total* micro-op: it cannot fail, block, allocate, emit telemetry or
/// consult the hook, so its whole meaning is a function of the frame's
/// words. [`Pure::exec`] is the one definition of that meaning — the
/// generic tier reaches it through [`Pure::of`], the quickened tier
/// through [`QOp::Pure`]. A tier decides only *when* an op runs and how its
/// cycles are accounted (tier 2 runs none: it reads a loop's closed form
/// off the quickened stream, [`compile_loop`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pure {
    // ---- single source instructions (width 1) ----
    Const(i64),
    Load(u16),
    Store(u16),
    Dup,
    Pop,
    Swap,
    Neg,
    RefEq,
    Alu(AluFn),
    Cmp(CmpFn),
    // ---- superinstructions (emitted by the quickener only) ----
    /// `Const v; Store local` (width 2).
    ConstStore {
        v: i64,
        local: u16,
    },
    /// `Load a; Load b; <alu>` (width 3).
    LoadLoadAlu {
        a: u16,
        b: u16,
        f: AluFn,
    },
    /// `Load a; Const v; <alu>` (width 3).
    LoadConstAlu {
        a: u16,
        v: i64,
        f: AluFn,
    },
}

impl Pure {
    /// The micro-op of one source instruction, if that instruction is
    /// total. `Div`/`Rem` (divide by zero) and everything that touches the
    /// heap, the scheduler or the hook are not.
    pub fn of(op: Op) -> Option<Pure> {
        if let Some(f) = AluFn::of(op) {
            return Some(Pure::Alu(f));
        }
        if let Some(f) = CmpFn::of(op) {
            return Some(Pure::Cmp(f));
        }
        Some(match op {
            Op::Const(v) => Pure::Const(v),
            Op::Load(i) => Pure::Load(i),
            Op::Store(i) => Pure::Store(i),
            Op::Dup => Pure::Dup,
            Op::Pop => Pure::Pop,
            Op::Swap => Pure::Swap,
            Op::Neg => Pure::Neg,
            Op::RefEq => Pure::RefEq,
            _ => return None,
        })
    }

    /// Number of source instructions (= cycles) this micro-op retires.
    #[inline]
    pub fn width(self) -> u32 {
        match self {
            Pure::ConstStore { .. } => 2,
            Pure::LoadLoadAlu { .. } | Pure::LoadConstAlu { .. } => 3,
            _ => 1,
        }
    }

    /// Apply the op to a frame whose locals start at `mem[base]` and whose
    /// operand stack top is `sp`; returns the new `sp`. A superinstruction
    /// leaves the same locals and live stack as its constituents run in
    /// order (only dead words above `sp` may differ).
    #[inline(always)]
    pub fn exec(self, mem: &mut [Word], sp: u64, base: u64) -> u64 {
        let s = sp as usize;
        let local = |i: u16| (base + i as u64) as usize;
        match self {
            Pure::Const(v) => {
                mem[s] = v as Word;
                sp + 1
            }
            Pure::Load(i) => {
                mem[s] = mem[local(i)];
                sp + 1
            }
            Pure::Store(i) => {
                mem[local(i)] = mem[s - 1];
                sp - 1
            }
            Pure::Dup => {
                mem[s] = mem[s - 1];
                sp + 1
            }
            Pure::Pop => sp - 1,
            Pure::Swap => {
                mem.swap(s - 1, s - 2);
                sp
            }
            Pure::Neg => {
                mem[s - 1] = (mem[s - 1] as i64).wrapping_neg() as Word;
                sp
            }
            Pure::RefEq => {
                mem[s - 2] = (mem[s - 2] == mem[s - 1]) as Word;
                sp - 1
            }
            Pure::Alu(f) => {
                mem[s - 2] = f.apply(mem[s - 2] as i64, mem[s - 1] as i64) as Word;
                sp - 1
            }
            Pure::Cmp(f) => {
                mem[s - 2] = f.apply(mem[s - 2] as i64, mem[s - 1] as i64) as Word;
                sp - 1
            }
            Pure::ConstStore { v, local: l } => {
                mem[local(l)] = v as Word;
                sp
            }
            Pure::LoadLoadAlu { a, b, f } => {
                mem[s] = f.apply(mem[local(a)] as i64, mem[local(b)] as i64) as Word;
                sp + 1
            }
            Pure::LoadConstAlu { a, v, f } => {
                mem[s] = f.apply(mem[local(a)] as i64, v) as Word;
                sp + 1
            }
        }
    }
}

/// The condition of a conditional branch. Like [`Pure`] it is total, and
/// [`Test::eval`] is its one definition: `If`/`IfZ` in the generic tier
/// and [`QOp::Branch`] in the quickened tier ask it the same question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Test {
    /// The word on top of the operand stack is non-zero (width 1: the
    /// `If`/`IfZ` itself).
    Top,
    /// `<cmp>; If/IfZ` over the two top words (width 2).
    Cmp(CmpFn),
    /// `Load a; Const v; <cmp>; If/IfZ` (width 4) — the canonical loop
    /// test; touches no operand-stack word.
    LoadConstCmp { a: u16, v: i64, f: CmpFn },
}

impl Test {
    /// Number of source instructions (= cycles) the test plus its branch
    /// retire.
    #[inline]
    pub fn width(self) -> u32 {
        match self {
            Test::Top => 1,
            Test::Cmp(_) => 2,
            Test::LoadConstCmp { .. } => 4,
        }
    }

    /// Evaluate against a frame (see [`Pure::exec`]): returns the
    /// condition's sense and how many operand-stack words the test
    /// consumes whichever way the branch goes. A branch with `jump_if`
    /// (`If` => true, `IfZ` => false) is taken iff `sense == jump_if`.
    #[inline(always)]
    pub fn eval(self, mem: &[Word], sp: u64, base: u64) -> (bool, u64) {
        let s = sp as usize;
        match self {
            Test::Top => (mem[s - 1] != 0, 1),
            Test::Cmp(f) => (f.apply(mem[s - 2] as i64, mem[s - 1] as i64), 2),
            Test::LoadConstCmp { a, v, f } => {
                (f.apply(mem[(base + a as u64) as usize] as i64, v), 0)
            }
        }
    }
}

/// A *partial* op: like [`Pure`] it cannot block, allocate, switch or
/// emit telemetry, but it reads or writes heap words beyond the frame and
/// it can fault — `Div`/`Rem` on a zero divisor, a heap access on a null,
/// on a word that is no object or out of bounds. [`Partial::exec`] is its
/// one definition: the generic tier runs it between the hook's access gate
/// and read filter, the quickened tier ([`QOp::Partial`]) inside its cursor
/// whenever that gate and filter are known to be no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partial {
    Div,
    Rem,
    GetField { idx: u16, ty: Ty },
    PutField { idx: u16, ty: Ty },
    GetStatic { class: ClassId, i: u16 },
    PutStatic { class: ClassId, i: u16 },
    ALoad(Ty),
    AStore(Ty),
    ArrayLen,
}

impl Partial {
    /// The partial op of one source instruction, if it is one.
    pub fn of(op: Op) -> Option<Partial> {
        Some(match op {
            Op::Div => Partial::Div,
            Op::Rem => Partial::Rem,
            Op::GetField { idx, ty } => Partial::GetField { idx, ty },
            Op::PutField { idx, ty } => Partial::PutField { idx, ty },
            Op::GetStatic(class, i) => Partial::GetStatic { class, i },
            Op::PutStatic(class, i) => Partial::PutStatic { class, i },
            Op::ALoad(ty) => Partial::ALoad(ty),
            Op::AStore(ty) => Partial::AStore(ty),
            Op::ArrayLen => Partial::ArrayLen,
            _ => return None,
        })
    }

    /// The source instruction: the inverse of [`Partial::of`].
    pub fn op(self) -> Op {
        match self {
            Partial::Div => Op::Div,
            Partial::Rem => Op::Rem,
            Partial::GetField { idx, ty } => Op::GetField { idx, ty },
            Partial::PutField { idx, ty } => Op::PutField { idx, ty },
            Partial::GetStatic { class, i } => Op::GetStatic(class, i),
            Partial::PutStatic { class, i } => Op::PutStatic(class, i),
            Partial::ALoad(ty) => Op::ALoad(ty),
            Partial::AStore(ty) => Op::AStore(ty),
            Partial::ArrayLen => Op::ArrayLen,
        }
    }

    /// The class whose statics the op touches: [`Partial::exec`] takes its
    /// class object, which loading the class allocates.
    #[inline]
    pub fn class(self) -> Option<ClassId> {
        match self {
            Partial::GetStatic { class, .. } | Partial::PutStatic { class, .. } => Some(class),
            _ => None,
        }
    }

    /// For a field, static or array-element access, the object the hook's
    /// access gate is consulted on (the class object `statics` for a static)
    /// and whether the op writes it. `Div`, `Rem` and `ArrayLen` are no
    /// shared access.
    #[inline]
    pub fn gate(self, mem: &[Word], sp: u64, statics: Addr) -> Option<(Addr, bool)> {
        let operand = |depth: u64| mem[(sp - 1 - depth) as usize];
        Some(match self {
            Partial::GetField { .. } => (operand(0), false),
            Partial::PutField { .. } => (operand(1), true),
            Partial::GetStatic { .. } => (statics, false),
            Partial::PutStatic { .. } => (statics, true),
            Partial::ALoad(_) => (operand(1), false),
            Partial::AStore(_) => (operand(2), true),
            Partial::Div | Partial::Rem | Partial::ArrayLen => return None,
        })
    }

    /// For a shared read, whether the word it reads is a reference (the
    /// hook's read filter is told); `None` for every other op.
    #[inline]
    pub fn read_ty(self, program: &Program) -> Option<Ty> {
        match self {
            Partial::GetField { ty, .. } | Partial::ALoad(ty) => Some(ty),
            Partial::GetStatic { class, i } => {
                Some(program.static_layouts[class as usize][i as usize])
            }
            _ => None,
        }
    }

    /// Pop the op's operands off the stack whose top is `*sp`, then run it:
    /// push the value it produces, or write the slot it stores to. A fault
    /// leaves the operands popped and nothing written. `statics` is the
    /// class object of [`Partial::class`] (ignored by the other ops).
    #[inline(always)]
    pub fn exec(
        self,
        heap: &mut Heap,
        program: &Program,
        sp: &mut u64,
        statics: Addr,
    ) -> Result<(), objref::Fault> {
        let s = *sp as usize;
        let mem = &heap.mem;
        let (pops, v) = match self {
            Partial::Div | Partial::Rem => {
                *sp -= 2;
                let (a, b) = (mem[s - 2] as i64, mem[s - 1] as i64);
                let r = div_rem(a, b, self == Partial::Rem).map_err(objref::Fault::Guest)?;
                (2, r as Word)
            }
            Partial::GetField { idx, ty } => {
                *sp -= 1;
                let slot = objref::field_slot(heap, program, mem[s - 1], idx, ty)?;
                (1, objref::read(heap, slot)?)
            }
            Partial::PutField { idx, ty } => {
                *sp -= 2;
                let (obj, v) = (mem[s - 2], mem[s - 1]);
                let slot = objref::field_slot(heap, program, obj, idx, ty)?;
                heap.mem[slot as usize] = v;
                return Ok(());
            }
            Partial::GetStatic { i, .. } => (0, heap.get_field(statics, i as usize)),
            Partial::PutStatic { i, .. } => {
                *sp -= 1;
                heap.set_field(statics, i as usize, mem[s - 1]);
                return Ok(());
            }
            Partial::ALoad(ty) => {
                *sp -= 2;
                let slot = objref::elem_slot(heap, mem[s - 2], mem[s - 1] as i64, ty)?;
                (2, objref::read(heap, slot)?)
            }
            Partial::AStore(ty) => {
                *sp -= 3;
                let (arr, i, v) = (mem[s - 3], mem[s - 2] as i64, mem[s - 1]);
                let slot = objref::elem_slot(heap, arr, i, ty)?;
                heap.mem[slot as usize] = v;
                return Ok(());
            }
            Partial::ArrayLen => {
                *sp -= 1;
                (1, objref::array_len(heap, mem[s - 1])?)
            }
        };
        heap.mem[s - pops] = v;
        *sp = (s - pops + 1) as u64;
        Ok(())
    }
}

/// A quickened instruction. The quickened stream is a *parallel* array
/// with exactly one entry per source pc: a fused superinstruction lives at
/// its head pc, while every interior pc keeps its own single-op quickened
/// form. Jumps into the middle of a fusion therefore need no pc remapping,
/// and the interpreter can resume mid-pattern after a timer split, an
/// access-gate retry, or a thread switch.
///
/// [`Pure`] and [`Partial`] ops, branches over a [`Test`], devirtualized
/// calls, clock reads and native calls get quickened forms. Everything
/// else is `Gen` and runs through the generic one-instruction path, which
/// keeps the block / switch / allocation / instrumentation semantics in
/// exactly one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QOp {
    /// Not quickened: execute via the generic interpreter path.
    Gen(Op),
    Pure(Pure),
    /// Runs in the cursor unless the hook observes shared accesses (then
    /// a gated access goes generic) or a static's class is not loaded yet.
    Partial(Partial),
    /// `Now`: the cursor is flushed around the hook's clock read only.
    Now,
    /// `NativeCall`: the cursor is flushed around the hook's call only.
    NativeCall {
        native: NativeId,
        nargs: u8,
    },
    /// Branches carry their backedge bit so the dispatch loop needs no
    /// side-table probe.
    Goto {
        target: u32,
        backedge: bool,
    },
    /// `If`/`IfZ`, alone (`Test::Top`) or fused with the comparison that
    /// feeds it. `jump_if` is the test sense that takes the branch.
    Branch {
        test: Test,
        jump_if: bool,
        target: u32,
        backedge: bool,
    },
    /// `CallVirtual` whose receiver class is statically unique (no loaded
    /// subclass overrides the slot): dispatches directly to `callee` after
    /// the same receiver check, skipping both vtable probes.
    CallMono {
        class: ClassId,
        callee: MethodId,
        nargs: u16,
    },
}

impl QOp {
    /// Number of source instructions this quickened op executes.
    #[inline]
    pub fn width(self) -> u32 {
        match self {
            QOp::Pure(p) => p.width(),
            QOp::Branch { test, .. } => test.width(),
            _ => 1,
        }
    }

    /// Index into the profiler's QOp attribution table (parallel to
    /// [`QOP_KIND_NAMES`], whose order predates [`Pure`]/[`Test`] and is
    /// pinned: profile exports are compared byte for byte, so new kinds
    /// are appended). The counters are keyed by the *kind* of quickened
    /// op, not its operands.
    #[inline]
    pub fn kind_index(self) -> usize {
        match self {
            QOp::Gen(_) => 0,
            QOp::Pure(p) => match p {
                Pure::Const(_) => 1,
                Pure::Load(_) => 2,
                Pure::Store(_) => 3,
                Pure::Dup => 4,
                Pure::Pop => 5,
                Pure::Swap => 6,
                Pure::Neg => 7,
                Pure::RefEq => 8,
                Pure::Alu(_) => 9,
                Pure::Cmp(_) => 10,
                Pure::ConstStore { .. } => 15,
                Pure::LoadLoadAlu { .. } => 16,
                Pure::LoadConstAlu { .. } => 17,
            },
            QOp::Goto { .. } => 11,
            QOp::Branch { test, jump_if, .. } => match test {
                Test::Top if jump_if => 12,
                Test::Top => 13,
                Test::Cmp(_) => 18,
                Test::LoadConstCmp { .. } => 19,
            },
            QOp::CallMono { .. } => 14,
            QOp::Partial(p) => match p {
                Partial::Div => 20,
                Partial::Rem => 21,
                Partial::GetField { .. } => 22,
                Partial::PutField { .. } => 23,
                Partial::GetStatic { .. } => 24,
                Partial::PutStatic { .. } => 25,
                Partial::ALoad(_) => 26,
                Partial::AStore(_) => 27,
                Partial::ArrayLen => 28,
            },
            QOp::Now => 29,
            QOp::NativeCall { .. } => 30,
        }
    }
}

/// Number of [`QOp`] kinds ([`QOp::kind_index`] domain).
pub const QOP_KIND_COUNT: usize = 31;

/// Display names for the profiler's QOp attribution table, indexed by
/// [`QOp::kind_index`].
pub const QOP_KIND_NAMES: [&str; QOP_KIND_COUNT] = [
    "gen",
    "const",
    "load",
    "store",
    "dup",
    "pop",
    "swap",
    "neg",
    "ref_eq",
    "alu",
    "cmp",
    "goto",
    "if",
    "if_z",
    "call_mono",
    "const_store",
    "load_load_alu",
    "load_const_alu",
    "cmp_if",
    "load_const_cmp_if",
    "div",
    "rem",
    "get_field",
    "put_field",
    "get_static",
    "put_static",
    "aload",
    "astore",
    "array_len",
    "now",
    "native_call",
];

/// Baseline-compiler output attached to each method.
#[derive(Debug, Clone, Default)]
pub struct CompiledMethod {
    /// Maximum operand-stack depth over all pcs.
    pub max_stack: u16,
    /// Words needed for a frame: header (3) + locals + max_stack.
    pub frame_words: u32,
    /// Bit `pc` set — instruction at `pc` is a branch whose target is
    /// not after it. Taking it is a yield point.
    pub backedge: BitSet,
    /// Per-pc reference maps (None for unreachable code).
    pub ref_maps: Vec<Option<RefMap>>,
    /// Quickened instruction stream, parallel to the source ops (one entry
    /// per pc; fusion heads carry the superinstruction, interior pcs keep
    /// their single-op form). Derived metadata — never serialized.
    pub qops: Vec<QOp>,
}

impl CompiledMethod {
    /// Size of the method's "compiled code" object in words: one word per
    /// instruction plus a 4-word header. This is the guest-visible
    /// allocation the lazy compiler performs on first invocation, so it
    /// must stay a pure function of the method body (`ref_maps` is per-pc,
    /// hence exactly the instruction count — quickening must NOT change
    /// this, or it would perturb guest allocation order).
    pub fn code_words(&self) -> usize {
        self.ref_maps.len() + 4
    }
}

/// Words of frame header: saved fp, method id, saved pc/flags.
pub const FRAME_HEADER_WORDS: u32 = 3;

/// Verification / compilation failure: which method, at which pc (absent
/// for whole-method faults), and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    pub method: String,
    pub pc: Option<usize>,
    pub fault: Fault,
}

/// What the verifier found wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    StackUnderflow,
    StackOverflowStatic,
    TypeMismatch {
        expected: &'static str,
        found: &'static str,
    },
    BadLocal(u16),
    DeadSlotUse(u16),
    BadBranchTarget(u32),
    FallsOffEnd,
    /// A class, method, vtable slot or native that does not exist.
    BadCallee,
    BadString,
    SignatureMismatch(String),
    InconsistentStackDepth,
    BadStaticField,
    ReturnMismatch,
    EmptyMethod,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.method)?;
        if let Some(pc) = self.pc {
            write!(f, "@{pc}")?;
        }
        f.write_str(": ")?;
        match &self.fault {
            Fault::StackUnderflow => f.write_str("operand stack underflow"),
            Fault::StackOverflowStatic => f.write_str("operand stack exceeds limit"),
            Fault::TypeMismatch { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            Fault::BadLocal(local) => write!(f, "local {local} out of range"),
            Fault::DeadSlotUse(local) => write!(f, "use of dead/uninitialized local {local}"),
            Fault::BadBranchTarget(target) => write!(f, "branch target {target} out of range"),
            Fault::FallsOffEnd => f.write_str("control falls off the end of the method"),
            Fault::BadCallee => f.write_str("callee does not exist"),
            Fault::BadString => f.write_str("string id out of range"),
            Fault::SignatureMismatch(detail) => write!(f, "signature mismatch: {detail}"),
            Fault::InconsistentStackDepth => f.write_str("inconsistent stack depth at merge point"),
            Fault::BadStaticField => f.write_str("static field out of range"),
            Fault::ReturnMismatch => f.write_str("return does not match method signature"),
            Fault::EmptyMethod => f.write_str("empty body"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Hard cap on operand-stack depth per frame (catches runaway codegen).
const MAX_OPERAND_STACK: usize = 4096;

/// Compute layouts, verify and compile every method. The one caller is
/// [`crate::builder::ProgramBuilder::finish`], which has already added
/// the builtins.
pub(crate) fn compile_program(program: &mut Program) -> Result<(), CompileError> {
    let layouts = |p: &Program, statics: bool| -> Vec<Vec<Ty>> {
        (0..p.classes.len() as ClassId)
            .map(|c| p.slot_decls(c, statics).iter().map(|f| f.ty).collect())
            .collect()
    };
    program.field_layouts = layouts(program, false);
    program.static_layouts = layouts(program, true);

    for id in 0..program.methods.len() {
        let method = &program.methods[id];
        let name = method.qualified_name(program);
        let verifier = Verifier {
            program,
            method,
            name,
        };
        program.methods[id].compiled = Some(verifier.run()?);
    }
    Ok(())
}

/// A popped operand: the type it must have and the name a mismatch reports.
type Pop = (AbsTy, &'static str);

/// The operand-stack signature of every op whose effect depends on nothing
/// but the op itself: what it pops (top of stack first) and what it pushes.
/// `None` for the ops that need the locals, a program table or the method
/// signature to type — those have an arm in [`Verifier::run`].
fn stack_effect(op: Op) -> Option<(&'static [Pop], Option<AbsTy>)> {
    use AbsTy::{Int, Ref};
    const INT: Pop = (Int, "int");
    const REF: Pop = (Ref, "ref");
    const MONITOR: Pop = (Ref, "monitor ref");
    const MILLIS: Pop = (Int, "millis");
    const INDEX: Pop = (Int, "int index");
    const ARRAY: Pop = (Ref, "array ref");
    Some(match op {
        Op::Const(_) | Op::Now => (&[], Some(Int)),
        Op::Null | Op::CurrentThread => (&[], Some(Ref)),
        Op::Add
        | Op::Sub
        | Op::Mul
        | Op::Div
        | Op::Rem
        | Op::BitAnd
        | Op::BitOr
        | Op::BitXor
        | Op::Shl
        | Op::Shr
        | Op::Eq
        | Op::Ne
        | Op::Lt
        | Op::Le
        | Op::Gt
        | Op::Ge => (&[INT, INT], Some(Int)),
        Op::Neg => (&[INT], Some(Int)),
        Op::RefEq => (&[REF, REF], Some(Int)),
        Op::Goto(_) | Op::YieldNow | Op::Halt => (&[], None),
        Op::If(_) | Op::IfZ(_) | Op::Print => (&[INT], None),
        Op::GetField { ty, .. } => (&[REF], Some(AbsTy::of(ty))),
        Op::PutField { ty: Ty::Int, .. } => (&[(Int, "field value"), REF], None),
        Op::PutField { ty: Ty::Ref, .. } => (&[(Ref, "field value"), REF], None),
        Op::NewArray(_) => (&[(Int, "int length")], Some(Ref)),
        Op::ALoad(ty) => (&[INDEX, ARRAY], Some(AbsTy::of(ty))),
        Op::AStore(Ty::Int) => (&[(Int, "element value"), INDEX, ARRAY], None),
        Op::AStore(Ty::Ref) => (&[(Ref, "element value"), INDEX, ARRAY], None),
        Op::ArrayLen | Op::IdentityHash => (&[REF], Some(Int)),
        Op::MonitorEnter | Op::MonitorExit | Op::Notify | Op::NotifyAll => (&[MONITOR], None),
        Op::Wait => (&[MONITOR], Some(Int)), // status
        Op::TimedWait => (&[MILLIS, MONITOR], Some(Int)),
        Op::Join | Op::Interrupt => (&[(Ref, "thread ref")], None),
        Op::Sleep => (&[MILLIS], Some(Int)), // status
        Op::Str(_)
        | Op::Load(_)
        | Op::Store(_)
        | Op::Dup
        | Op::Pop
        | Op::Swap
        | Op::New(_)
        | Op::GetStatic(..)
        | Op::PutStatic(..)
        | Op::InstanceOf(_)
        | Op::Call(_)
        | Op::CallVirtual { .. }
        | Op::Ret
        | Op::RetVal
        | Op::Spawn { .. }
        | Op::NativeCall { .. }
        | Op::PrintStr(_) => return None,
    })
}

struct Verifier<'p> {
    program: &'p Program,
    method: &'p Method,
    name: String,
}

type State = (Vec<AbsTy>, Vec<AbsTy>); // (locals, stack)

impl<'p> Verifier<'p> {
    fn fail(&self, pc: impl Into<Option<usize>>, fault: Fault) -> CompileError {
        CompileError {
            method: self.name.clone(),
            pc: pc.into(),
            fault,
        }
    }

    fn err_ty(&self, pc: usize, expected: &'static str, found: AbsTy) -> CompileError {
        let found = match found {
            AbsTy::Dead => "dead",
            AbsTy::Int => "int",
            AbsTy::Ref => "ref",
        };
        self.fail(pc, Fault::TypeMismatch { expected, found })
    }

    fn pop(&self, pc: usize, stack: &mut Vec<AbsTy>) -> Result<AbsTy, CompileError> {
        stack
            .pop()
            .ok_or_else(|| self.fail(pc, Fault::StackUnderflow))
    }

    fn pop_expect(
        &self,
        pc: usize,
        stack: &mut Vec<AbsTy>,
        (want, what): Pop,
    ) -> Result<(), CompileError> {
        let got = self.pop(pc, stack)?;
        if got != want {
            return Err(self.err_ty(pc, what, got));
        }
        Ok(())
    }

    /// The declared type of static field `i` of `class`.
    fn static_ty(&self, pc: usize, class: ClassId, i: u16) -> Result<AbsTy, CompileError> {
        let class = self.program.classes.get(class as usize);
        class
            .and_then(|c| c.statics.get(i as usize))
            .map(|decl| AbsTy::of(decl.ty))
            .ok_or_else(|| self.fail(pc, Fault::BadStaticField))
    }

    /// Pop the callee's arguments and push what the instruction leaves
    /// behind: the callee's result for a call, the new Thread object for a
    /// `Spawn` (`spawn` is its `nargs` operand, which must agree with the
    /// callee).
    fn call(
        &self,
        pc: usize,
        stack: &mut Vec<AbsTy>,
        callee: MethodId,
        spawn: Option<u8>,
    ) -> Result<(), CompileError> {
        let methods = &self.program.methods;
        let callee = methods
            .get(callee as usize)
            .ok_or_else(|| self.fail(pc, Fault::BadCallee))?;
        if let Some(nargs) = spawn.filter(|&n| n as u16 != callee.nargs) {
            let detail = format!("Spawn nargs {} != {}", nargs, callee.nargs);
            return Err(self.fail(pc, Fault::SignatureMismatch(detail)));
        }
        // Args were pushed left to right: rightmost on top.
        for (i, &want) in callee.arg_types.iter().enumerate().rev() {
            if self.pop(pc, stack)? != AbsTy::of(want) {
                let detail = format!("argument {i} of {}", callee.name);
                return Err(self.fail(pc, Fault::SignatureMismatch(detail)));
            }
        }
        stack.extend(match spawn {
            Some(_) => Some(AbsTy::Ref),
            None => callee.ret.map(AbsTy::of),
        });
        Ok(())
    }

    fn run(&self) -> Result<CompiledMethod, CompileError> {
        let m = self.method;
        let n = m.ops.len();
        if n == 0 {
            return Err(self.fail(None, Fault::EmptyMethod));
        }
        // Entry state: args in locals 0..nargs, rest dead, empty stack.
        let mut entry_locals: Vec<AbsTy> = m.arg_types.iter().map(|&t| AbsTy::of(t)).collect();
        entry_locals.resize(m.nlocals as usize, AbsTy::Dead);
        let mut states: Vec<Option<State>> = vec![None; n];
        states[0] = Some((entry_locals, Vec::new()));
        let mut work: VecDeque<usize> = VecDeque::from([0]);

        let flow_to = |states: &mut Vec<Option<State>>,
                       work: &mut VecDeque<usize>,
                       pc: usize,
                       to: usize,
                       st: &State|
         -> Result<(), CompileError> {
            if to >= n {
                return Err(self.fail(pc, Fault::BadBranchTarget(to as u32)));
            }
            let Some((locals, stack)) = &mut states[to] else {
                states[to] = Some(st.clone());
                work.push_back(to);
                return Ok(());
            };
            if stack.len() != st.1.len() {
                return Err(self.fail(to, Fault::InconsistentStackDepth));
            }
            let mut changed = false;
            let incoming = st.0.iter().chain(&st.1);
            for (e, &v) in locals.iter_mut().chain(stack).zip(incoming) {
                let merged = e.merge(v);
                changed |= merged != *e;
                *e = merged;
            }
            if changed {
                work.push_back(to);
            }
            Ok(())
        };

        while let Some(pc) = work.pop_front() {
            let (mut locals, mut stack) = states[pc].clone().expect("state present");
            let op = m.ops[pc];

            // Each arm range-checks its operand where it resolves it.
            match op {
                Op::Load(i) | Op::Store(i) => {
                    let slot = locals
                        .get_mut(i as usize)
                        .ok_or_else(|| self.fail(pc, Fault::BadLocal(i)))?;
                    if op == Op::Load(i) {
                        if *slot == AbsTy::Dead {
                            return Err(self.fail(pc, Fault::DeadSlotUse(i)));
                        }
                        stack.push(*slot);
                    } else {
                        let v = self.pop(pc, &mut stack)?;
                        if v == AbsTy::Dead {
                            return Err(self.err_ty(pc, "live value", v));
                        }
                        *slot = v;
                    }
                }
                Op::Dup => {
                    let v = self.pop(pc, &mut stack)?;
                    stack.extend([v, v]);
                }
                Op::Pop => {
                    self.pop(pc, &mut stack)?;
                }
                Op::Swap => {
                    let a = self.pop(pc, &mut stack)?;
                    let b = self.pop(pc, &mut stack)?;
                    stack.extend([a, b]);
                }
                Op::Str(id) | Op::PrintStr(id) => {
                    if id as usize >= self.program.strings.len() {
                        return Err(self.fail(pc, Fault::BadString));
                    }
                    if op == Op::Str(id) {
                        stack.push(AbsTy::Ref);
                    }
                }
                Op::New(c) | Op::InstanceOf(c) => {
                    if c as usize >= self.program.classes.len() {
                        return Err(self.fail(pc, Fault::BadCallee));
                    }
                    if op == Op::New(c) {
                        stack.push(AbsTy::Ref);
                    } else {
                        self.pop_expect(pc, &mut stack, (AbsTy::Ref, "ref"))?;
                        stack.push(AbsTy::Int);
                    }
                }
                Op::GetStatic(c, i) => stack.push(self.static_ty(pc, c, i)?),
                Op::PutStatic(c, i) => {
                    let want = self.static_ty(pc, c, i)?;
                    self.pop_expect(pc, &mut stack, (want, "static value"))?;
                }
                Op::Call(callee) => self.call(pc, &mut stack, callee, None)?,
                Op::CallVirtual { class, slot } => {
                    let class = self.program.classes.get(class as usize);
                    let &callee = class
                        .and_then(|c| c.vtable.get(slot as usize))
                        .ok_or_else(|| self.fail(pc, Fault::BadCallee))?;
                    self.call(pc, &mut stack, callee, None)?;
                }
                Op::Spawn { method, nargs } => self.call(pc, &mut stack, method, Some(nargs))?,
                Op::Ret | Op::RetVal => match (op, m.ret) {
                    (Op::Ret, None) => {}
                    (Op::RetVal, Some(want)) => {
                        self.pop_expect(pc, &mut stack, (AbsTy::of(want), "return value"))?
                    }
                    _ => return Err(self.fail(pc, Fault::ReturnMismatch)),
                },
                Op::NativeCall { native, nargs } => {
                    let natives = &self.program.natives;
                    let decl = natives
                        .get(native as usize)
                        .ok_or_else(|| self.fail(pc, Fault::BadCallee))?;
                    if decl.nargs != nargs {
                        let detail = format!("native {} expects {} args", decl.name, decl.nargs);
                        return Err(self.fail(pc, Fault::SignatureMismatch(detail)));
                    }
                    for _ in 0..nargs {
                        self.pop_expect(pc, &mut stack, (AbsTy::Int, "native arg"))?;
                    }
                    stack.extend(decl.returns.then_some(AbsTy::Int));
                }
                _ => {
                    let (pops, push) = stack_effect(op).expect("every other op has a fixed effect");
                    for &pop in pops {
                        self.pop_expect(pc, &mut stack, pop)?;
                    }
                    stack.extend(push);
                }
            }

            if stack.len() > MAX_OPERAND_STACK {
                return Err(self.fail(pc, Fault::StackOverflowStatic));
            }

            let falls_through = !matches!(op, Op::Goto(_) | Op::Ret | Op::RetVal | Op::Halt);
            if falls_through && pc + 1 >= n {
                return Err(self.fail(None, Fault::FallsOffEnd));
            }
            let st = (locals, stack);
            let target = op.branch_target().map(|t| t as usize);
            for to in target.into_iter().chain(falls_through.then_some(pc + 1)) {
                flow_to(&mut states, &mut work, pc, to, &st)?;
            }
        }

        // Build the compiled artifact from the fixed point.
        let refs = |slots: &[AbsTy]| {
            BitSet::from_bools(&slots.iter().map(|&t| t == AbsTy::Ref).collect::<Vec<_>>())
        };
        let ref_maps: Vec<Option<RefMap>> = states
            .iter()
            .map(|st| {
                st.as_ref().map(|(locals, stack)| RefMap {
                    stack_depth: stack.len() as u16,
                    locals: refs(locals),
                    stack: refs(stack),
                })
            })
            .collect();
        let max_stack = ref_maps.iter().flatten().map(|r| r.stack_depth).max();
        let max_stack = max_stack.unwrap_or(0);

        let backedge_bools: Vec<bool> = m
            .ops
            .iter()
            .enumerate()
            .map(|(pc, op)| op.branch_target().is_some_and(|t| t as usize <= pc))
            .collect();
        let qops = quicken(self.program, &m.ops, &backedge_bools);
        let backedge = BitSet::from_bools(&backedge_bools);

        Ok(CompiledMethod {
            max_stack,
            frame_words: FRAME_HEADER_WORDS + m.nlocals as u32 + max_stack as u32,
            backedge,
            ref_maps,
            qops,
        })
    }
}

/// The unique callee a `CallVirtual { class, slot }` can ever dispatch to,
/// if the program's class hierarchy makes the site monomorphic: every
/// class that `is_subclass` of the static receiver type resolves the slot
/// to the same method. The class set is closed at compile time (there is
/// no dynamic class loading of *new* classes, only lazy initialization),
/// so the answer is stable for the life of the program.
fn monomorphic_target(program: &Program, class: ClassId, slot: u16) -> Option<MethodId> {
    let mut target: Option<MethodId> = None;
    for (cid, c) in program.classes.iter().enumerate() {
        if !program.is_subclass(cid as ClassId, class) {
            continue;
        }
        let &m = c.vtable.get(slot as usize)?;
        match target {
            None => target = Some(m),
            Some(t) if t == m => {}
            Some(_) => return None,
        }
    }
    target
}

/// `If`/`IfZ` at a pc with the given backedge bit, as a quickened branch
/// over `test` (`Test::Top` for the bare instruction, a fused test when
/// the comparison feeding it was folded in).
fn branch(op: Op, backedge: bool, test: Test) -> Option<QOp> {
    let (target, jump_if) = match op {
        Op::If(t) => (t, true),
        Op::IfZ(t) => (t, false),
        _ => return None,
    };
    Some(QOp::Branch {
        test,
        jump_if,
        target,
        backedge,
    })
}

/// The single-op quickened form of one source instruction.
fn quicken_single(program: &Program, op: Op, pc: usize, backedge: &[bool]) -> QOp {
    if let Some(p) = Pure::of(op) {
        return QOp::Pure(p);
    }
    if let Some(p) = Partial::of(op) {
        return QOp::Partial(p);
    }
    if let Some(b) = branch(op, backedge[pc], Test::Top) {
        return b;
    }
    match op {
        Op::Goto(target) => QOp::Goto {
            target,
            backedge: backedge[pc],
        },
        Op::CallVirtual { class, slot } => match monomorphic_target(program, class, slot) {
            Some(callee) => QOp::CallMono {
                class,
                callee,
                nargs: program.methods[callee as usize].nargs,
            },
            None => QOp::Gen(op),
        },
        Op::Now => QOp::Now,
        Op::NativeCall { native, nargs } => QOp::NativeCall { native, nargs },
        _ => QOp::Gen(op),
    }
}

/// Try to fuse a superinstruction headed at `pc` (longest pattern first).
/// Constituents are all total (no failure / block / alloc / hook path), so
/// the dispatch loop may batch their cycle accounting before the combined
/// effect — and the loop splits the fusion at run time whenever the timer
/// would expire mid-pattern, so tick boundaries stay cycle-exact.
fn try_fuse(ops: &[Op], pc: usize, backedge: &[bool]) -> Option<QOp> {
    let rest = &ops[pc..];
    // Load a; Const v; <cmp>; If/IfZ  (width 4)
    if let [Op::Load(a), Op::Const(v), cmp, br, ..] = *rest {
        if let Some(f) = CmpFn::of(cmp) {
            if let Some(q) = branch(br, backedge[pc + 3], Test::LoadConstCmp { a, v, f }) {
                return Some(q);
            }
        }
    }
    // Load a; Load b; <alu>  and  Load a; Const v; <alu>  (width 3)
    if let [Op::Load(a), second, alu, ..] = *rest {
        if let Some(f) = AluFn::of(alu) {
            match second {
                Op::Load(b) => return Some(QOp::Pure(Pure::LoadLoadAlu { a, b, f })),
                Op::Const(v) => return Some(QOp::Pure(Pure::LoadConstAlu { a, v, f })),
                _ => {}
            }
        }
    }
    match *rest {
        // Const v; Store local  (width 2)
        [Op::Const(v), Op::Store(local), ..] => Some(QOp::Pure(Pure::ConstStore { v, local })),
        // <cmp>; If/IfZ  (width 2)
        [cmp, br, ..] => branch(br, backedge[pc + 1], Test::Cmp(CmpFn::of(cmp)?)),
        _ => None,
    }
}

/// The quickening pass: one [`QOp`] per source pc. Pure function of the
/// (verified) method body and the program's class hierarchy — re-running
/// it reproduces the same stream.
fn quicken(program: &Program, ops: &[Op], backedge: &[bool]) -> Vec<QOp> {
    let mut q: Vec<QOp> = ops
        .iter()
        .enumerate()
        .map(|(pc, &op)| quicken_single(program, op, pc, backedge))
        .collect();
    for pc in 0..ops.len() {
        if let Some(fused) = try_fuse(ops, pc, backedge) {
            q[pc] = fused;
        }
    }
    q
}

// ---------------------------------------------------------------------------
// Tier 2: closed-form counting loops
// ---------------------------------------------------------------------------

/// Taken-backedge count at which a loop head tiers up: the threshold-th
/// taken backedge of a loop triggers one `compile_loop` attempt. The
/// crossing is a pure function of the deterministic execution, so it fires
/// at the identical instruction in passthrough, record, and replay.
pub const MEGA_HOT_THRESHOLD: u32 = 64;

/// A hot loop that tier 2 runs in closed form: a counting loop whose every
/// pass advances one induction local by `step` (wrapping add), runs while
/// a single order comparison of it against `bound` holds, and adds a
/// constant to each of its other locals. Everything else in a pass is
/// transient operand-stack traffic, dead words above the head's stack
/// pointer (the operand stack grows upward), which nothing live observes
/// (the state digest and the GC walk the live stack only), so `k` passes
/// are the induction value `x0 + k·step`, each other local plus `k·c`,
/// and the fingerprint `fold` applied `k` times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedLoop {
    /// Loop-head pc (the backedge target).
    pub head: u32,
    /// Source instructions (= cycles) per pass, head through backedge.
    pub width: u64,
    /// The induction local (frame-relative).
    pub local: u16,
    /// Per-pass increment of the induction local.
    pub step: i64,
    /// Guard comparison bound.
    pub bound: i64,
    /// Guard comparison (order comparisons only).
    pub f: CmpFn,
    /// The loop exits when `f.apply(x, bound) == exit_if`.
    pub exit_if: bool,
    /// Index offset of the guarded evaluation: 0 when the guard reads the
    /// induction variable before the increment (head-guarded loop), 1 when
    /// it reads the incremented value (tail-guarded / do-while).
    pub eval_offset: u32,
    /// The other locals the body advances, each with its per-pass
    /// increment, in order of first write.
    pub accs: Vec<(u16, i64)>,
    /// One pass's `Full`-fingerprint pc mixes, composed: what the stepper
    /// applies once per pass it retires.
    pub fold: StepFold,
}

/// All loop-head pcs of a compiled method: targets of its backedge
/// branches, ascending. Shared by the runtime tier-up path and `dis
/// --mega` (which compiles hotness-independently).
pub fn loop_heads(c: &CompiledMethod) -> Vec<u32> {
    let mut heads: Vec<u32> = c
        .qops
        .iter()
        .filter_map(|q| match *q {
            QOp::Goto {
                target,
                backedge: true,
            }
            | QOp::Branch {
                target,
                backedge: true,
                ..
            } => Some(target),
            _ => None,
        })
        .collect();
    heads.sort_unstable();
    heads.dedup();
    heads
}

/// Recognize the loop headed at `head` as a [`ClosedLoop`] straight off the
/// quickened ops from the head to its backedge, or `None`: the loop stays
/// tier 1. A pass must be, in pc order,
///
/// * head-guarded: `Branch(LoadConstCmp)` at the head (the exit), then
///   `LoadConstAlu(Add) + Store` pairs, then `Goto head`;
/// * tail-guarded (do-while): the pairs, then `Branch(LoadConstCmp) head`;
///
/// where each pair adds a constant to one local, and the tested local is
/// one of them. Only order comparisons qualify: with a monotone trajectory
/// they make the per-pass predicate prefix-monotone, which is what lets
/// [`ClosedLoop::passes`] binary-search the exit (`Eq`/`Ne` guards can pass
/// again *after* failing once).
///
/// Pure function of the compiled program: compiling allocates nothing
/// guest-visible, so tier-up does not perturb the execution it speeds up.
pub fn compile_loop(program: &Program, method: MethodId, head: u32) -> Option<ClosedLoop> {
    let qops = &program.methods[method as usize].compiled.as_ref()?.qops;
    let mut pc = head as usize;
    let mut guard = None; // (test, exit_if, eval_offset)
    let mut incs: Vec<(u16, i64)> = Vec::new();
    let end = loop {
        let q = *qops.get(pc)?;
        match q {
            QOp::Branch {
                test,
                jump_if,
                backedge: false,
                ..
            } if pc == head as usize => guard = Some((test, jump_if, 0)),
            QOp::Pure(Pure::LoadConstAlu {
                a,
                v,
                f: AluFn::Add,
            }) if qops.get(pc + 3) == Some(&QOp::Pure(Pure::Store(a))) => {
                match incs.iter_mut().find(|(l, _)| *l == a) {
                    Some((_, c)) => *c = c.wrapping_add(v),
                    None => incs.push((a, v)),
                }
                pc += 1; // the Store
            }
            QOp::Goto {
                target,
                backedge: true,
            } if target == head && guard.is_some() => break pc + 1,
            QOp::Branch {
                test,
                jump_if,
                target,
                backedge: true,
            } if target == head && guard.is_none() => {
                guard = Some((test, !jump_if, 1));
                break pc + test.width() as usize;
            }
            _ => return None,
        }
        pc += q.width() as usize;
    };
    let (Test::LoadConstCmp { a, v: bound, f }, exit_if, eval_offset) = guard? else {
        return None;
    };
    if !matches!(f, CmpFn::Lt | CmpFn::Le | CmpFn::Gt | CmpFn::Ge) {
        return None;
    }
    let at = incs.iter().position(|&(l, _)| l == a)?;
    let (_, step) = incs.remove(at);
    let width = (end - head as usize) as u64;
    let fold = StepFold::of(|h, tid| {
        (head..head + width as u32).fold(h, |h, pc| Fingerprint::mix_step(h, tid, method, pc))
    });
    Some(ClosedLoop {
        head,
        width,
        local: a,
        step,
        bound,
        f,
        exit_if,
        eval_offset,
        accs: incs,
        fold,
    })
}

impl CmpFn {
    /// [`CmpFn::apply`] lifted to `i128`: agrees with the `i64` version on
    /// every pair of in-range values (the closed-form stepper only ever
    /// evaluates trajectories it has proven stay inside `i64`).
    #[inline]
    pub fn apply_i128(self, a: i128, b: i128) -> bool {
        match self {
            CmpFn::Eq => a == b,
            CmpFn::Ne => a != b,
            CmpFn::Lt => a < b,
            CmpFn::Le => a <= b,
            CmpFn::Gt => a > b,
            CmpFn::Ge => a >= b,
        }
    }
}

impl ClosedLoop {
    /// Write `k` passes' effect into a frame whose locals start at
    /// `locals[0]`: the induction local advances `k·step` and each other
    /// local `k·c`, with the wrapping arithmetic of `k` single passes.
    pub fn advance(&self, locals: &mut [Word], k: u64) {
        for &(local, c) in std::iter::once(&(self.local, self.step)).chain(&self.accs) {
            let w = &mut locals[local as usize];
            *w = (*w as i64).wrapping_add((k as i64).wrapping_mul(c)) as Word;
        }
    }

    /// How many consecutive passes run their guard successfully starting
    /// from induction value `x0`, capped at `cap`. Exact by construction:
    /// the predicate is evaluated in `i128` (no overflow), and the count
    /// never crosses an `i64` wrap of a guarded evaluation — tier 1 runs
    /// that pass with true wrapping semantics.
    pub fn passes(&self, x0: i64, cap: u64) -> u64 {
        let x0 = x0 as i128;
        let step = self.step as i128;
        let off = self.eval_offset as i128;
        // Highest pass count whose last evaluated index keeps the
        // trajectory inside i64 (division operands kept non-negative so
        // truncation == floor).
        let idx_max = if step > 0 {
            (i64::MAX as i128 - x0) / step
        } else if step < 0 {
            (x0 - i64::MIN as i128) / -step
        } else {
            i128::MAX
        };
        // Saturating: `step == 0` makes `idx_max` unbounded (i128::MAX).
        let cap = (cap as i128)
            .min(idx_max.saturating_sub(off).saturating_add(1))
            .max(0);
        let pass =
            |i: i128| self.f.apply_i128(x0 + (i + off) * step, self.bound as i128) != self.exit_if;
        if cap == 0 || !pass(0) {
            return 0;
        }
        // First failing pass in [1, cap); pass() is prefix-monotone (order
        // comparison × monotone trajectory), so binary search.
        let (mut lo, mut hi) = (1i128, cap);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pass(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Asm, ProgramBuilder};

    #[test]
    fn bitset_roundtrip() {
        let mut b = BitSet::with_capacity(130);
        b.set(0, true);
        b.set(63, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 63, 129]);
    }

    #[test]
    fn simple_loop_compiles_with_backedge() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("m", 0, 1).code(|a| {
            a.iconst(0).store(0);
            a.label("top");
            a.load(0).iconst(1).add().store(0);
            a.load(0).iconst(5).lt().if_nz("top");
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        let c = p.compiled(m);
        // Exactly one backedge: the conditional branch back to "top".
        assert_eq!(c.backedge.iter_ones().count(), 1);
        assert!(c.max_stack >= 2);
        assert_eq!(c.frame_words, 3 + 1 + c.max_stack as u32);
    }

    #[test]
    fn refmap_tracks_reference_local() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("Box").field("v", Ty::Int).build();
        let m = pb.method("m", 0, 2).code(|a| {
            a.iconst(7).store(0); // local 0: int
            a.new(cls).store(1); // local 1: ref
            a.load(1).get_field(0).print();
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        let c = p.compiled(m);
        // After both stores (pc 4 = Load(1)), local 1 is a ref, local 0 not.
        let rm = c.ref_maps[4].as_ref().unwrap();
        assert!(rm.locals.get(1));
        assert!(!rm.locals.get(0));
    }

    #[test]
    fn refmap_tracks_stack_slots() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("Box").field("v", Ty::Int).build();
        let m = pb.method("m", 0, 1).code(|a| {
            a.new(cls); // stack: [ref]
            a.iconst(3); // stack: [ref, int]
            a.pop().pop();
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        let c = p.compiled(m);
        let rm = c.ref_maps[2].as_ref().unwrap(); // before first Pop
        assert_eq!(rm.stack_depth, 2);
        assert!(rm.stack.get(0));
        assert!(!rm.stack.get(1));
    }

    #[test]
    fn merge_of_int_and_ref_is_dead_and_unusable() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("Box").field("v", Ty::Int).build();
        // local 0 is int on one path, ref on the other; using it after the
        // merge must be rejected.
        let m = pb.method("m", 1, 2).code(|a| {
            a.load(0).if_nz("refpath");
            a.iconst(1).store(1);
            a.goto("merge");
            a.label("refpath");
            a.new(cls).store(1);
            a.label("merge");
            a.load(1).pop();
            a.halt();
        });
        let err = pb.finish(m).unwrap_err();
        assert!(matches!(err.fault, Fault::DeadSlotUse(_)));
    }

    #[test]
    fn dead_merge_slot_is_not_in_refmap() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("Box").field("v", Ty::Int).build();
        let m = pb.method("m", 1, 2).code(|a| {
            a.load(0).if_nz("refpath");
            a.iconst(1).store(1);
            a.goto("merge");
            a.label("refpath");
            a.new(cls).store(1);
            a.label("merge");
            a.halt(); // never uses local 1
        });
        let p = pb.finish(m).unwrap();
        let c = p.compiled(m);
        let halt_pc = p.methods[m as usize].ops.len() - 1;
        let rm = c.ref_maps[halt_pc].as_ref().unwrap();
        assert!(!rm.locals.get(1), "dead merged slot must not be marked ref");
    }

    /// `finish` rejects `body` — the code of `m(int)`, two locals, no
    /// result, beside class 0 (one static int), method 0 (`f(int) -> int`),
    /// native 0 (`n`, one argument) and no strings — with exactly this
    /// error and this text.
    fn rejects(text: &str, pc: Option<usize>, fault: Fault, body: fn(&mut Asm) -> &mut Asm) {
        let mut pb = ProgramBuilder::new();
        let class = pb.class("C").static_field("s", Ty::Int).build();
        let f = pb.func("f", 1, 1).code(|a| {
            a.load(0).ret_val();
        });
        let native = pb.native("n", 1, true);
        assert_eq!((class, f, native), (0, 0, 0));
        let m = pb.method("m", 1, 2).code(|a| {
            body(a);
        });
        let err = pb.finish(m).expect_err(text);
        assert_eq!(err.to_string(), text);
        let method = "m".to_string();
        assert_eq!(err, CompileError { method, pc, fault });
    }

    /// One minimal rejected program per fault, several for the faults more
    /// than one kind of operand can raise.
    #[test]
    fn rejections_are_typed_and_their_text_is_pinned() {
        use Fault::*;
        let sig = |detail: &str| SignatureMismatch(detail.to_string());
        rejects(
            "m@0: operand stack underflow",
            Some(0),
            StackUnderflow,
            |a| a.add().halt(),
        );
        rejects(
            "m@4096: operand stack exceeds limit",
            Some(4096),
            StackOverflowStatic,
            |a| {
                for _ in 0..=MAX_OPERAND_STACK {
                    a.iconst(0);
                }
                a.halt()
            },
        );
        let int_for_ref = TypeMismatch {
            expected: "int",
            found: "ref",
        };
        rejects("m@2: expected int, found ref", Some(2), int_for_ref, |a| {
            a.null().iconst(1).add().pop().halt()
        });
        rejects("m@0: local 2 out of range", Some(0), BadLocal(2), |a| {
            a.load(2).pop().halt()
        });
        rejects("m@1: local 2 out of range", Some(1), BadLocal(2), |a| {
            a.iconst(1).store(2).halt()
        });
        rejects(
            "m@0: use of dead/uninitialized local 1",
            Some(0),
            DeadSlotUse(1),
            |a| a.load(1).pop().halt(),
        );
        rejects(
            "m@0: branch target 1 out of range",
            Some(0),
            BadBranchTarget(1),
            |a| a.goto("end").label("end"),
        );
        rejects(
            "m: control falls off the end of the method",
            None,
            FallsOffEnd,
            |a| a.iconst(1).pop(),
        );
        rejects("m@0: callee does not exist", Some(0), BadCallee, |a| {
            a.call(9).halt()
        });
        rejects("m@0: callee does not exist", Some(0), BadCallee, |a| {
            a.new(9).pop().halt()
        });
        rejects("m@0: callee does not exist", Some(0), BadCallee, |a| {
            a.native_call(9, 0).halt()
        });
        rejects("m@1: callee does not exist", Some(1), BadCallee, |a| {
            a.null().call_virtual(0, 3).halt()
        });
        rejects("m@1: callee does not exist", Some(1), BadCallee, |a| {
            a.null().instance_of(9).pop().halt()
        });
        rejects("m@0: string id out of range", Some(0), BadString, |a| {
            a.strref(999).pop().halt()
        });
        rejects("m@0: string id out of range", Some(0), BadString, |a| {
            a.print_str(999).halt()
        });
        rejects(
            "m@1: signature mismatch: argument 0 of f",
            Some(1),
            sig("argument 0 of f"),
            |a| a.null().call(0).pop().halt(), // a ref where `f` takes an int
        );
        rejects(
            "m@0: signature mismatch: Spawn nargs 0 != 1",
            Some(0),
            sig("Spawn nargs 0 != 1"),
            |a| a.spawn(0, 0).pop().halt(),
        );
        rejects(
            "m@0: signature mismatch: native n expects 1 args",
            Some(0),
            sig("native n expects 1 args"),
            |a| a.native_call(0, 0).pop().halt(),
        );
        rejects(
            "m@6: inconsistent stack depth at merge point",
            Some(6),
            InconsistentStackDepth,
            |a| {
                a.load(0).if_nz("push2");
                a.iconst(1);
                a.goto("merge");
                a.label("push2");
                a.iconst(1).iconst(2);
                a.label("merge");
                a.pop().halt()
            },
        );
        rejects(
            "m@0: static field out of range",
            Some(0),
            BadStaticField,
            |a| a.get_static(0, 1).pop().halt(),
        );
        rejects(
            "m@1: static field out of range",
            Some(1),
            BadStaticField,
            |a| a.iconst(0).put_static(9, 0).halt(),
        );
        rejects(
            "m@1: return does not match method signature",
            Some(1),
            ReturnMismatch,
            |a| a.iconst(1).ret_val(), // `m` declares no result
        );
        rejects("m: empty body", None, EmptyMethod, |a| a);
    }

    #[test]
    fn builtins_are_injected_and_helper_methods_verify() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("main", 0, 0).code(|a| {
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        let b = p.builtins;
        assert_eq!(p.class(b.thread_class).name, "Thread");
        assert_eq!(p.class(b.string_class).name, "String");
        assert_eq!(p.class(b.vm_method_class).name, "VM_Method");
        // The instrumentation helpers verified (they have compiled forms)
        // and contain at least one backedge each (a yield point inside
        // instrumentation — the liveClock hazard).
        for helper in [b.flush_method, b.fill_method] {
            let c = p.compiled(helper);
            assert!(c.backedge.iter_ones().next().is_some());
        }
        // getLineNumberAt sits in VM_Method's vtable.
        assert_eq!(
            p.class(b.vm_method_class).vtable
                [p.class(b.vm_method_class).vslots["getLineNumberAt"] as usize],
            b.get_line_number_at
        );

        // Classes and methods follow the last user-defined one (`main`, no
        // classes) in a fixed order with fixed bodies.
        assert_eq!(
            [b.thread_class, b.string_class, b.vm_method_class],
            [0, 1, 2]
        );
        let pinned: [(MethodId, &str, &str, Vec<u32>); 6] = [
            (
                b.get_line_number_at,
                "getLineNumberAt",
                "load l0; getfield #2:ref; store l2; load l1; load l2; arraylen; cmplt; \
                 ifnz @10; const 0; retval; load l2; load l1; aload int; retval",
                vec![1; 14],
            ),
            (
                m + 2,
                "sys$flushLow",
                "const 0; store l1; load l1; const 2; cmpge; ifnz @11; \
                 load l1; const 1; add; store l1; goto @2; load l0; retval",
                vec![1; 13],
            ),
            (
                b.flush_method,
                "sys$flushTrace",
                "const 0; store l1; const 2; call sys$flushLow; pop; \
                 load l1; const 8; cmpge; ifnz @26; \
                 load l0; const 3; add; store l0; load l0; const 3; add; store l0; \
                 load l0; const 3; add; store l0; \
                 load l1; const 1; add; store l1; goto @5; load l0; retval",
                vec![1; 28],
            ),
            (
                b.fill_method,
                "sys$fillTrace",
                "const 0; store l1; load l1; const 5; cmpge; ifnz @15; \
                 load l0; const 3; add; store l0; \
                 load l1; const 1; add; store l1; goto @2; load l0; retval",
                vec![1; 17],
            ),
            (b.get_methods, "sys$getMethods", "null; retval", vec![1; 2]),
            (
                b.line_number_of,
                "sys$lineNumberOf",
                "call sys$getMethods; load l0; aload ref; store l2; load l2; load l1; \
                 callvirtual VM_Method.getLineNumberAt [slot 0]; retval",
                vec![2, 3, 3, 3, 4, 4, 4, 4],
            ),
        ];
        for (i, (id, name, text, lines)) in pinned.into_iter().enumerate() {
            assert_eq!(id, m + 1 + i as MethodId, "{name}");
            let method = p.method(id);
            assert_eq!(method.name, name);
            let ops: Vec<String> = method
                .ops
                .iter()
                .map(|&op| crate::dis::render_op(&p, op))
                .collect();
            assert_eq!(ops.join("; "), text, "{name}");
            assert_eq!(method.lines, lines, "{name}");
        }
    }

    #[test]
    fn quickening_covers_every_pc_and_fuses_patterns() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("m", 0, 2).code(|a| {
            a.iconst(0).store(0); // ConstStore head at pc 0
            a.iconst(0).store(1); // ConstStore head at pc 2
            a.label("top");
            a.load(0).iconst(10).ge().if_nz("done"); // Branch(LoadConstCmp) head at pc 4
            a.load(1).load(0).add().store(1); // LoadLoadAlu head at pc 8
            a.load(0).iconst(1).add().store(0); // LoadConstAlu head at pc 12
            a.goto("top");
            a.label("done");
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        let c = p.compiled(m);
        let n = p.method(m).ops.len();
        assert_eq!(c.qops.len(), n, "one QOp per source pc");
        assert!(matches!(
            c.qops[0],
            QOp::Pure(Pure::ConstStore { v: 0, local: 0 })
        ));
        // Interior pc of the fusion keeps its own single-op form.
        assert!(matches!(c.qops[1], QOp::Pure(Pure::Store(0))));
        assert!(matches!(
            c.qops[4],
            QOp::Branch {
                test: Test::LoadConstCmp {
                    a: 0,
                    v: 10,
                    f: CmpFn::Ge
                },
                jump_if: true,
                ..
            }
        ));
        assert!(matches!(
            c.qops[8],
            QOp::Pure(Pure::LoadLoadAlu {
                a: 1,
                b: 0,
                f: AluFn::Add
            })
        ));
        assert!(matches!(
            c.qops[12],
            QOp::Pure(Pure::LoadConstAlu {
                a: 0,
                v: 1,
                f: AluFn::Add
            })
        ));
        // The goto back to "top" bakes its backedge bit.
        let goto_pc = (0..n)
            .find(|&pc| matches!(p.method(m).ops[pc], Op::Goto(_)))
            .unwrap();
        assert!(matches!(c.qops[goto_pc], QOp::Goto { backedge: true, .. }));
        // Widths cover the stream without gaps when walked from the entry.
        let mut pc = 0usize;
        let mut seen = 0;
        while pc < 4 {
            pc += c.qops[pc].width() as usize;
            seen += 1;
        }
        assert!(seen <= 2, "entry block is fused into at most 2 dispatches");
    }

    /// The profiler's attribution table is an export format (Chrome trace,
    /// flamegraph, JSON — all compared byte for byte): one `QOp` per name,
    /// in table order, pins both the names and the index each kind maps to.
    #[test]
    fn profiler_kinds_are_pinned() {
        let (f, c) = (AluFn::Add, CmpFn::Lt);
        let branch = |test, jump_if| QOp::Branch {
            test,
            jump_if,
            target: 0,
            backedge: false,
        };
        let table = [
            (QOp::Gen(Op::Halt), "gen"),
            (QOp::Pure(Pure::Const(0)), "const"),
            (QOp::Pure(Pure::Load(0)), "load"),
            (QOp::Pure(Pure::Store(0)), "store"),
            (QOp::Pure(Pure::Dup), "dup"),
            (QOp::Pure(Pure::Pop), "pop"),
            (QOp::Pure(Pure::Swap), "swap"),
            (QOp::Pure(Pure::Neg), "neg"),
            (QOp::Pure(Pure::RefEq), "ref_eq"),
            (QOp::Pure(Pure::Alu(f)), "alu"),
            (QOp::Pure(Pure::Cmp(c)), "cmp"),
            (
                QOp::Goto {
                    target: 0,
                    backedge: true,
                },
                "goto",
            ),
            (branch(Test::Top, true), "if"),
            (branch(Test::Top, false), "if_z"),
            (
                QOp::CallMono {
                    class: 0,
                    callee: 0,
                    nargs: 1,
                },
                "call_mono",
            ),
            (
                QOp::Pure(Pure::ConstStore { v: 0, local: 0 }),
                "const_store",
            ),
            (
                QOp::Pure(Pure::LoadLoadAlu { a: 0, b: 0, f }),
                "load_load_alu",
            ),
            (
                QOp::Pure(Pure::LoadConstAlu { a: 0, v: 0, f }),
                "load_const_alu",
            ),
            (branch(Test::Cmp(c), true), "cmp_if"),
            (
                branch(Test::LoadConstCmp { a: 0, v: 0, f: c }, false),
                "load_const_cmp_if",
            ),
            (QOp::Partial(Partial::Div), "div"),
            (QOp::Partial(Partial::Rem), "rem"),
            (
                QOp::Partial(Partial::GetField {
                    idx: 0,
                    ty: Ty::Int,
                }),
                "get_field",
            ),
            (
                QOp::Partial(Partial::PutField {
                    idx: 0,
                    ty: Ty::Ref,
                }),
                "put_field",
            ),
            (
                QOp::Partial(Partial::GetStatic { class: 0, i: 0 }),
                "get_static",
            ),
            (
                QOp::Partial(Partial::PutStatic { class: 0, i: 0 }),
                "put_static",
            ),
            (QOp::Partial(Partial::ALoad(Ty::Int)), "aload"),
            (QOp::Partial(Partial::AStore(Ty::Ref)), "astore"),
            (QOp::Partial(Partial::ArrayLen), "array_len"),
            (QOp::Now, "now"),
            (
                QOp::NativeCall {
                    native: 0,
                    nargs: 1,
                },
                "native_call",
            ),
        ];
        assert_eq!(QOP_KIND_COUNT, 31);
        assert_eq!(table.len(), QOP_KIND_COUNT);
        for (i, (q, name)) in table.iter().enumerate() {
            assert_eq!(q.kind_index(), i, "{q:?}");
            assert_eq!(QOP_KIND_NAMES[i], *name);
        }
    }

    /// `Pure::of` (with `AluFn::of` / `CmpFn::of` behind it) claims exactly
    /// the ops the quickener keeps inline as `QOp::Pure`; every other op
    /// becomes a `Partial`, `Goto`, a `Test::Top` branch, `CallMono`, `Now`,
    /// `NativeCall` or `Gen` — and so has its own arm in the generic
    /// interpreter. One sample per `Op`
    /// variant; keep in step with `bytecode::Op`.
    #[test]
    fn pure_of_claims_exactly_the_ops_quickening_keeps_inline() {
        let total = [
            Op::Const(7),
            Op::Load(0),
            Op::Store(0),
            Op::Dup,
            Op::Pop,
            Op::Swap,
            Op::Neg,
            Op::RefEq,
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::BitAnd,
            Op::BitOr,
            Op::BitXor,
            Op::Shl,
            Op::Shr,
            Op::Eq,
            Op::Ne,
            Op::Lt,
            Op::Le,
            Op::Gt,
            Op::Ge,
        ];
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("C").build();
        pb.virtual_method(cls, "f", vec![], 1, None).code(|a| {
            a.ret();
        });
        let slot = pb.vslot(cls, "f");
        let m = pb.method("main", 0, 0).code(|a| {
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        let partial = [
            Op::Null,
            Op::Str(0),
            Op::Div,
            Op::Rem,
            Op::Goto(0),
            Op::If(0),
            Op::IfZ(0),
            Op::New(cls),
            Op::GetField {
                idx: 0,
                ty: Ty::Int,
            },
            Op::PutField {
                idx: 0,
                ty: Ty::Int,
            },
            Op::GetStatic(cls, 0),
            Op::PutStatic(cls, 0),
            Op::NewArray(Ty::Int),
            Op::ALoad(Ty::Int),
            Op::AStore(Ty::Int),
            Op::ArrayLen,
            Op::IdentityHash,
            Op::InstanceOf(cls),
            Op::Call(m),
            Op::CallVirtual { class: cls, slot },
            Op::Ret,
            Op::RetVal,
            Op::MonitorEnter,
            Op::MonitorExit,
            Op::Wait,
            Op::TimedWait,
            Op::Notify,
            Op::NotifyAll,
            Op::Spawn {
                method: m,
                nargs: 0,
            },
            Op::Join,
            Op::Interrupt,
            Op::YieldNow,
            Op::Sleep,
            Op::CurrentThread,
            Op::Now,
            Op::NativeCall {
                native: 0,
                nargs: 0,
            },
            Op::Print,
            Op::PrintStr(0),
            Op::Halt,
        ];
        for op in total {
            let pure = Pure::of(op).unwrap_or_else(|| panic!("{op:?} is total"));
            assert_eq!(pure.width(), 1);
            assert_eq!(quicken_single(&p, op, 0, &[false]), QOp::Pure(pure));
            // ALU and compare ops arrive through their pre-decoded fns.
            let via_fn = AluFn::of(op)
                .map(Pure::Alu)
                .or(CmpFn::of(op).map(Pure::Cmp));
            assert!(via_fn.is_none() || via_fn == Some(pure), "{op:?}");
        }
        assert_eq!(total.iter().filter(|&&o| AluFn::of(o).is_some()).count(), 8);
        assert_eq!(total.iter().filter(|&&o| CmpFn::of(o).is_some()).count(), 6);
        for op in partial {
            assert_eq!(Pure::of(op), None, "{op:?}");
            assert!(AluFn::of(op).is_none() && CmpFn::of(op).is_none(), "{op:?}");
            let q = quicken_single(&p, op, 0, &[false]);
            let expected = match op {
                Op::Goto(_) => matches!(q, QOp::Goto { .. }),
                Op::If(_) => matches!(
                    q,
                    QOp::Branch {
                        test: Test::Top,
                        jump_if: true,
                        ..
                    }
                ),
                Op::IfZ(_) => matches!(
                    q,
                    QOp::Branch {
                        test: Test::Top,
                        jump_if: false,
                        ..
                    }
                ),
                Op::CallVirtual { .. } => matches!(q, QOp::CallMono { .. }),
                Op::Now => q == QOp::Now,
                Op::NativeCall { native, nargs } => q == QOp::NativeCall { native, nargs },
                _ => match Partial::of(op) {
                    Some(p) => p.op() == op && q == QOp::Partial(p),
                    None => q == QOp::Gen(op),
                },
            };
            assert!(expected, "{op:?} quickened to {q:?}");
        }
    }

    #[test]
    fn div_and_rem_are_never_fused() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("m", 0, 2).code(|a| {
            a.iconst(7).store(0);
            a.load(0).load(0).div().pop(); // Load;Load;Div must NOT fuse
            a.load(0).iconst(2).rem().pop(); // Load;Const;Rem must NOT fuse
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        let c = p.compiled(m);
        assert!(c.qops.iter().all(|q| !matches!(
            q,
            QOp::Pure(Pure::LoadLoadAlu { .. } | Pure::LoadConstAlu { .. })
        )));
        assert!(c
            .qops
            .iter()
            .any(|q| matches!(q, QOp::Partial(Partial::Div | Partial::Rem))));
    }

    #[test]
    fn monomorphic_virtual_calls_devirtualize_overridden_ones_do_not() {
        let mut pb = ProgramBuilder::new();
        let base = pb.class("Base").build();
        pb.virtual_method(base, "f", vec![], 1, Some(Ty::Int))
            .code(|a| {
                a.iconst(1).ret_val();
            });
        pb.virtual_method(base, "g", vec![], 1, Some(Ty::Int))
            .code(|a| {
                a.iconst(3).ret_val();
            });
        let derived = pb.class_extends("Derived", Some(base)).build();
        pb.virtual_method(derived, "f", vec![], 1, Some(Ty::Int))
            .code(|a| {
                a.iconst(2).ret_val();
            });
        let f_slot = pb.vslot(base, "f");
        let g_slot = pb.vslot(base, "g");
        let m = pb.method("main", 0, 1).code(|a| {
            a.new(derived).store(0);
            a.load(0).call_virtual(base, f_slot).print(); // polymorphic
            a.load(0).call_virtual(base, g_slot).print(); // monomorphic
            a.load(0).call_virtual(derived, f_slot).print(); // mono via Derived
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        let c = p.compiled(m);
        let virtual_qops: Vec<&QOp> = p
            .method(m)
            .ops
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, Op::CallVirtual { .. }))
            .map(|(pc, _)| &c.qops[pc])
            .collect();
        assert!(matches!(virtual_qops[0], QOp::Gen(Op::CallVirtual { .. })));
        assert!(matches!(virtual_qops[1], QOp::CallMono { nargs: 1, .. }));
        assert!(matches!(virtual_qops[2], QOp::CallMono { nargs: 1, .. }));
    }

    #[test]
    fn quickening_is_deterministic() {
        let build = || {
            let mut pb = ProgramBuilder::new();
            let m = pb.method("m", 0, 2).code(|a| {
                a.iconst(0).store(0);
                a.label("top");
                a.load(0).iconst(100).ge().if_nz("done");
                a.load(0).iconst(1).add().store(0);
                a.goto("top");
                a.label("done");
                a.halt();
            });
            pb.finish(m).unwrap()
        };
        let (a, b) = (build(), build());
        for (ma, mb) in a.methods.iter().zip(b.methods.iter()) {
            assert_eq!(
                ma.compiled.as_ref().unwrap().qops,
                mb.compiled.as_ref().unwrap().qops
            );
        }
    }

    #[test]
    fn virtual_call_types_its_result() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("C").build();
        pb.virtual_method(cls, "f", vec![], 1, Some(Ty::Int))
            .code(|a| {
                a.iconst(42).ret_val();
            });
        let slot = pb.vslot(cls, "f");
        let m = pb.method("m", 0, 1).code(|a| {
            a.new(cls).store(0);
            a.load(0).call_virtual(cls, slot).print();
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        assert!(p.compiled(m).max_stack >= 1);
    }

    /// The closed form of the sole loop of a one-method program, if any.
    /// The body may use class `C`, whose `twice` (vtable slot 0) no
    /// subclass overrides.
    fn sole_loop(nlocals: u16, body: impl FnOnce(&mut Asm, ClassId)) -> Option<ClosedLoop> {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("C").build();
        pb.virtual_method(cls, "twice", vec![Ty::Int], 2, Some(Ty::Int))
            .code(|a| {
                a.load(1).iconst(2).mul().ret_val();
            });
        let m = pb.method("m", 0, nlocals).code(|a| {
            for l in 0..nlocals {
                a.iconst(0).store(l);
            }
            body(a, cls)
        });
        let p = pb.finish(m).unwrap();
        let heads = loop_heads(p.compiled(m));
        assert_eq!(heads.len(), 1);
        compile_loop(&p, m, heads[0])
    }

    /// A counting loop `l0 < 100` around `pad` (head-guarded).
    fn counting(pad: impl FnOnce(&mut Asm, ClassId)) -> impl FnOnce(&mut Asm, ClassId) {
        |a: &mut Asm, cls| {
            a.iconst(0).store(0);
            a.label("top");
            a.load(0).iconst(100).ge().if_nz("done");
            pad(a, cls);
            a.load(0).iconst(1).add().store(0);
            a.goto("top");
            a.label("done");
            a.halt();
        }
    }

    /// `(local, step, bound, f, exit_if, eval_offset, accs, width)`.
    type Form = (u16, i64, i64, CmpFn, bool, u32, Vec<(u16, i64)>, u64);

    fn form(cl: &ClosedLoop) -> Form {
        let ClosedLoop {
            local,
            step,
            bound,
            f,
            exit_if,
            eval_offset,
            ref accs,
            width,
            ..
        } = *cl;
        (
            local,
            step,
            bound,
            f,
            exit_if,
            eval_offset,
            accs.clone(),
            width,
        )
    }

    #[test]
    fn closed_loop_shapes_are_recognized_and_others_stay_tier_1() {
        use CmpFn::*;
        type Body = Box<dyn FnOnce(&mut Asm, ClassId)>;
        let closed: Vec<(&str, Body, Form)> = vec![
            (
                // fig1_hot's delay loops (`t2`, `main`) and `sys$flushLow`.
                "head-guarded Ge, +1",
                Box::new(|a: &mut Asm, _| {
                    a.iconst(0).store(1);
                    a.label("top");
                    a.load(1).iconst(50_000).ge().if_nz("done");
                    a.load(1).iconst(1).add().store(1);
                    a.goto("top");
                    a.label("done");
                    a.halt();
                }),
                (1, 1, 50_000, Ge, true, 0, vec![], 9),
            ),
            (
                // `sys$flushTrace`: one local advanced three times a pass.
                "head-guarded with a local written three times",
                Box::new(counting(|a, _| {
                    for _ in 0..3 {
                        a.load(2).iconst(3).add().store(2);
                    }
                })),
                (0, 1, 100, Ge, true, 0, vec![(2, 9)], 21),
            ),
            (
                "head-guarded Le, counting down, wrapping accumulators",
                Box::new(|a: &mut Asm, _| {
                    a.label("top");
                    a.load(0).iconst(-30).le().if_nz("done");
                    a.load(1).iconst(i64::MAX).add().store(1);
                    a.load(0).iconst(-2).add().store(0);
                    a.load(2).iconst(0).add().store(2);
                    a.goto("top");
                    a.label("done");
                    a.halt();
                }),
                (0, -2, -30, Le, true, 0, vec![(1, i64::MAX), (2, 0)], 17),
            ),
            (
                "tail-guarded Lt (do-while)",
                Box::new(|a: &mut Asm, _| {
                    a.label("top");
                    a.load(0).iconst(1).add().store(0);
                    a.load(0).iconst(64).lt().if_nz("top");
                    a.halt();
                }),
                (0, 1, 64, Lt, false, 1, vec![], 8),
            ),
            (
                "tail-guarded Gt, zero step, the induction written last",
                Box::new(|a: &mut Asm, _| {
                    a.label("top");
                    a.load(1).iconst(5).add().store(1);
                    a.load(0).iconst(0).add().store(0);
                    a.load(0).iconst(0).gt().if_z("top");
                    a.halt();
                }),
                (0, 0, 0, Gt, true, 1, vec![(1, 5)], 12),
            ),
        ];
        for (name, body, want) in closed {
            let cl = sole_loop(3, body).unwrap_or_else(|| panic!("{name}: not closed"));
            assert_eq!(form(&cl), want, "{name}");
        }

        let open: Vec<(&str, Body)> = vec![
            ("Eq guard (not prefix-monotone)", {
                Box::new(|a: &mut Asm, _| {
                    a.label("top");
                    a.load(0).iconst(100).eq().if_nz("done");
                    a.load(0).iconst(3).add().store(0);
                    a.goto("top");
                    a.label("done");
                    a.halt();
                })
            }),
            ("Ne guard", {
                Box::new(|a: &mut Asm, _| {
                    a.label("top");
                    a.load(0).iconst(1).add().store(0);
                    a.load(0).iconst(9).ne().if_nz("top");
                    a.halt();
                })
            }),
            ("a guard over two locals", {
                Box::new(|a: &mut Asm, _| {
                    a.label("top");
                    a.load(0).load(1).ge().if_nz("done");
                    a.load(0).iconst(1).add().store(0);
                    a.goto("top");
                    a.label("done");
                    a.halt();
                })
            }),
            ("the guarded local never advances", {
                Box::new(|a: &mut Asm, _| {
                    a.label("top");
                    a.load(1).iconst(100).ge().if_nz("done");
                    a.load(0).iconst(1).add().store(0);
                    a.goto("top");
                    a.label("done");
                    a.halt();
                })
            }),
            ("guarded at both head and tail", {
                Box::new(|a: &mut Asm, _| {
                    a.label("top");
                    a.load(0).iconst(100).ge().if_nz("done");
                    a.load(0).iconst(1).add().store(0);
                    a.load(0).iconst(50).lt().if_nz("top");
                    a.label("done");
                    a.halt();
                })
            }),
            ("a subtracting step", {
                Box::new(|a: &mut Asm, _| {
                    a.label("top");
                    a.load(0).iconst(-100).le().if_nz("done");
                    a.load(0).iconst(1).sub().store(0);
                    a.goto("top");
                    a.label("done");
                    a.halt();
                })
            }),
            ("a local set from another", {
                Box::new(counting(|a, _| {
                    a.load(0).iconst(1).add().store(1);
                }))
            }),
            ("a non-increment ALU op", {
                Box::new(counting(|a, _| {
                    a.load(0).iconst(7).mul().store(1);
                }))
            }),
            ("div", {
                Box::new(counting(|a, _| {
                    a.load(0).load(1).div().pop();
                }))
            }),
            ("an interior branch", {
                Box::new(counting(|a, _| {
                    a.load(1).if_nz("skip");
                    a.label("skip");
                }))
            }),
            ("an interior forward goto", {
                Box::new(counting(|a, _| {
                    a.goto("skip");
                    a.label("skip");
                }))
            }),
            ("a monomorphic call", {
                Box::new(counting(|a, cls| {
                    a.new(cls).load(0).call_virtual(cls, 0).store(2);
                }))
            }),
            ("an allocation", {
                Box::new(counting(|a, cls| {
                    a.new(cls).pop();
                }))
            }),
            ("output", {
                Box::new(counting(|a, _| {
                    a.load(0).print();
                }))
            }),
        ];
        for (name, body) in open {
            assert_eq!(sole_loop(3, body), None, "{name} must stay tier 1");
        }

        // The instrumentation helpers every program carries are closed too:
        // fig1_hot tiers them up in record and replay.
        let mut pb = ProgramBuilder::new();
        let m = pb.method("m", 0, 0).code(|a| {
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        for (name, want) in [
            ("sys$flushLow", (1, 1, 2, Ge, true, 0, vec![], 9)),
            ("sys$flushTrace", (1, 1, 8, Ge, true, 0, vec![(0, 9)], 21)),
            ("sys$fillTrace", (1, 1, 5, Ge, true, 0, vec![(0, 3)], 13)),
        ] {
            let h = p.method_id_by_name(name).unwrap();
            let heads = loop_heads(p.compiled(h));
            assert_eq!(heads.len(), 1, "{name}");
            let cl = compile_loop(&p, h, heads[0]).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(form(&cl), want, "{name}");
        }
    }

    #[test]
    fn closed_loop_compilation_is_deterministic() {
        let body = || {
            counting(|a, _| {
                a.load(1).iconst(3).add().store(1);
            })
        };
        let (a, b) = (sole_loop(2, body()), sole_loop(2, body()));
        assert!(a.is_some(), "the loop compiles");
        assert_eq!(a, b);
    }

    #[test]
    fn closed_loop_passes_matches_brute_force() {
        // Sweep step signs, offsets and comparison kinds, with accumulator
        // locals (one wrapping), against a literal pass-by-pass run of the
        // same loop: every local's final value and the pass count agree.
        let cases = [
            (1i64, 50i64, CmpFn::Ge, true, 0u32),
            (3, 49, CmpFn::Ge, true, 0),
            (-2, -30, CmpFn::Le, true, 0),
            (5, 64, CmpFn::Lt, false, 1),
            (-1, 0, CmpFn::Gt, false, 1),
            (0, 10, CmpFn::Lt, false, 0),
        ];
        let accs = vec![(1u16, 7i64), (2, i64::MAX / 3), (3, -1)];
        for (step, bound, f, exit_if, eval_offset) in cases {
            let cl = ClosedLoop {
                head: 0,
                width: 1,
                local: 0,
                step,
                bound,
                f,
                exit_if,
                eval_offset,
                accs: accs.clone(),
                fold: StepFold::of(|h, _| h),
            };
            for x0 in [-40i64, -1, 0, 1, 17] {
                for cap in [0u64, 1, 2, 13, 200] {
                    let start = [x0 as Word, 5, 11, 0];
                    let mut stepped = start;
                    let mut brute = 0u64;
                    while brute < cap {
                        let mut next = stepped;
                        for &(l, c) in std::iter::once(&(0, step)).chain(&accs) {
                            let w = &mut next[l as usize];
                            *w = (*w as i64).wrapping_add(c) as Word;
                        }
                        // The guard reads the value before (head) or after
                        // (tail) this pass's increments; a guarded value
                        // past i64 is tier 1's pass.
                        let x = x0 as i128 + (brute as i128 + eval_offset as i128) * step as i128;
                        if x != x as i64 as i128 || f.apply_i128(x, bound as i128) == exit_if {
                            break;
                        }
                        stepped = next;
                        brute += 1;
                    }
                    let what = format!(
                        "step={step} bound={bound} f={f:?} exit_if={exit_if} \
                         off={eval_offset} x0={x0} cap={cap}"
                    );
                    assert_eq!(cl.passes(x0, cap), brute, "{what}");
                    let mut closed = start;
                    cl.advance(&mut closed, brute);
                    assert_eq!(closed, stepped, "{what}");
                }
            }
        }
    }

    #[test]
    fn closed_loop_passes_stops_at_the_i64_wrap_horizon() {
        // Counting up from near i64::MAX: the closed form may retire the
        // last in-range guard evaluations, but the write-back wraps exactly
        // like the interpreter's wrapping add.
        let counter = |step, bound, exit_if| ClosedLoop {
            head: 0,
            width: 1,
            local: 0,
            step,
            bound,
            f: CmpFn::Lt,
            exit_if,
            eval_offset: 0,
            accs: vec![],
            fold: StepFold::of(|h, _| h),
        };
        let cl = counter(3, 0, true);
        let x0 = i64::MAX - 5;
        // Guard evaluations at MAX-5 and MAX-2 stay in range; the next
        // index would cross the wrap, so the batch stops there even though
        // the predicate (x >= 0) would keep passing.
        assert_eq!(cl.passes(x0, 1_000), 2);

        // Zero step: unbounded horizon must not overflow; the predicate is
        // constant, so every requested iteration passes.
        let idle = counter(0, 10, false);
        assert_eq!(idle.passes(3, 1_000), 1_000);
        assert_eq!(idle.passes(30, 1_000), 0, "constant-false exits at once");

        // Counting down toward i64::MIN mirrors the cap.
        let down = counter(-4, 0, false);
        assert_eq!(down.passes(i64::MIN + 9, 1_000), 3);
    }
}
