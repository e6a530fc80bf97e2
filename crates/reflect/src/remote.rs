//! The tool-side reflection interpreter with **remote objects** (§3).
//!
//! "Remote reflection solves this problem by decoupling the data and its
//! reflection code, thus allowing a program in one JVM to execute a
//! reflection method that operates directly on an object residing in
//! another JVM."
//!
//! The tool loads the *same* program (classes, methods, vtables — the boot
//! image) as the application and interprets reflection methods as
//! bytecode. Two extensions, exactly as §3.4 describes:
//!
//! 1. **Mapped methods** — `invokestatic`/`invokevirtual` of a method on
//!    the mapping list is intercepted: the actual invocation is not made;
//!    a *remote object* (type + address in the remote space) is returned.
//! 2. **Reference-touching bytecodes** — field loads, array loads, array
//!    length, virtual dispatch, identity hash, `instanceof`, reference
//!    equality — operate on remote objects by reading words from the
//!    remote address space ([`crate::memory::ProcessMemory`]) and pushing
//!    either a primitive value or a new remote object.
//!
//! The interpreter is read-only: bytecodes that would *mutate* the remote
//! space (stores, allocation, synchronization) are rejected — "the
//! debugger only makes queries and does not modify the state of the
//! application JVM" (§3.2).

use crate::memory::ProcessMemory;
use djvm::heap::{Addr, Header};
use djvm::{AluFn, CmpFn, MethodId, Op, Program, Ty};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A tool-side value: a primitive, or a proxy for an object in the remote
/// JVM. "To implement the remote object, it was sufficient to record the
/// type of the object and its real address" (§3.3) — we defer the type to
/// the remote header word, read on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TVal {
    Int(i64),
    Null,
    Remote(Addr),
}

impl TVal {
    pub fn as_int(self) -> Option<i64> {
        match self {
            TVal::Int(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_remote(self) -> Option<Addr> {
        match self {
            TVal::Remote(a) => Some(a),
            _ => None,
        }
    }
}

/// Reflection-interpretation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReflectError {
    /// Bytecode that cannot be executed against a remote space (mutation,
    /// allocation, threading, I/O).
    Unsupported(&'static str),
    /// A remote read fell outside the application's address space.
    BadAddress(Addr),
    NullDeref,
    TypeConfusion,
    IndexOutOfBounds,
    StackUnderflow,
    CallDepthExceeded,
    /// The interpreted method misbehaved (verifier should prevent this).
    Internal(&'static str),
}

const MAX_DEPTH: usize = 64;

/// The remote-reflection interpreter.
pub struct RemoteReflector<'m> {
    program: Arc<Program>,
    mem: &'m dyn ProcessMemory,
    mapped: BTreeMap<MethodId, TVal>,
    /// Interpreted bytecodes (experiment counter).
    pub steps: u64,
}

impl<'m> RemoteReflector<'m> {
    /// `program` must be the same program the remote VM booted (the shared
    /// boot image); `mem` is the remote address space.
    pub fn new(program: Arc<Program>, mem: &'m dyn ProcessMemory) -> Self {
        Self {
            program,
            mem,
            mapped: BTreeMap::new(),
            steps: 0,
        }
    }

    /// Register a mapped method: invoking it returns `root` instead of
    /// executing its body (§3.1 "the user specifies a list of reflection
    /// methods that are said to be mapped").
    pub fn map_method(&mut self, method: MethodId, root: TVal) {
        self.mapped.insert(method, root);
    }

    /// Convenience: map the builtin `sys$getMethods` to the remote boot
    /// image's method table.
    pub fn map_boot_method_table(&mut self, remote_method_table: Addr) {
        let m = self.program.builtins.get_methods;
        self.map_method(m, TVal::Remote(remote_method_table));
    }

    fn read(&self, addr: Addr) -> Result<u64, ReflectError> {
        self.mem
            .read_word(addr)
            .ok_or(ReflectError::BadAddress(addr))
    }

    fn remote_header(&self, addr: Addr) -> Result<Header, ReflectError> {
        Ok(Header::decode(self.read(addr)?))
    }

    /// Invoke a method of the shared program against the remote space.
    pub fn invoke(
        &mut self,
        method: MethodId,
        args: &[TVal],
    ) -> Result<Option<TVal>, ReflectError> {
        self.invoke_depth(method, args, 0)
    }

    fn invoke_depth(
        &mut self,
        method: MethodId,
        args: &[TVal],
        depth: usize,
    ) -> Result<Option<TVal>, ReflectError> {
        if depth > MAX_DEPTH {
            return Err(ReflectError::CallDepthExceeded);
        }
        if let Some(&root) = self.mapped.get(&method) {
            // Mapped: "intercepted so that the actual invocation is not
            // made" (§3.4).
            return Ok(Some(root));
        }
        let program = Arc::clone(&self.program);
        let m = program.method(method);
        if args.len() != m.nargs as usize {
            return Err(ReflectError::Internal("arity"));
        }
        let mut locals = vec![TVal::Null; m.nlocals as usize];
        locals[..args.len()].copy_from_slice(args);
        let mut stack: Vec<TVal> = Vec::with_capacity(16);
        let mut pc = 0usize;

        macro_rules! pop {
            () => {
                stack.pop().ok_or(ReflectError::StackUnderflow)?
            };
        }
        macro_rules! pop_int {
            () => {
                pop!().as_int().ok_or(ReflectError::TypeConfusion)?
            };
        }

        loop {
            let op = m.ops[pc];
            self.steps += 1;
            match op {
                Op::Const(v) => stack.push(TVal::Int(v)),
                Op::Null => stack.push(TVal::Null),
                Op::Load(i) => stack.push(locals[i as usize]),
                Op::Store(i) => locals[i as usize] = pop!(),
                Op::Dup => {
                    let v = *stack.last().ok_or(ReflectError::StackUnderflow)?;
                    stack.push(v);
                }
                Op::Pop => {
                    pop!();
                }
                Op::Swap => {
                    let a = pop!();
                    let b = pop!();
                    stack.push(a);
                    stack.push(b);
                }
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
                | Op::Ge => {
                    let b = pop_int!();
                    let a = pop_int!();
                    // The application VM's own arithmetic; only the
                    // two ops that can fail are spelled here.
                    let r = match (AluFn::of(op), CmpFn::of(op)) {
                        (Some(f), _) => f.apply(a, b),
                        (_, Some(f)) => f.apply(a, b) as i64,
                        _ if b == 0 && op == Op::Div => return Err(ReflectError::Internal("div0")),
                        _ if b == 0 => return Err(ReflectError::Internal("rem0")),
                        _ if op == Op::Div => a.wrapping_div(b),
                        _ => a.wrapping_rem(b),
                    };
                    stack.push(TVal::Int(r));
                }
                Op::Neg => {
                    let a = pop_int!();
                    stack.push(TVal::Int(a.wrapping_neg()));
                }
                Op::RefEq => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(TVal::Int((a == b) as i64));
                }
                Op::Goto(t) => {
                    pc = t as usize;
                    continue;
                }
                Op::If(t) => {
                    if pop_int!() != 0 {
                        pc = t as usize;
                        continue;
                    }
                }
                Op::IfZ(t) => {
                    if pop_int!() == 0 {
                        pc = t as usize;
                        continue;
                    }
                }
                // ---- the extended reference bytecodes (§3.4) ----
                Op::GetField { idx, ty } => {
                    let obj = pop!();
                    let addr = match obj {
                        TVal::Remote(a) => a,
                        TVal::Null => return Err(ReflectError::NullDeref),
                        TVal::Int(_) => return Err(ReflectError::TypeConfusion),
                    };
                    let v = self.read(addr + 1 + idx as u64)?;
                    stack.push(lift(v, ty));
                }
                Op::ALoad(ty) => {
                    let i = pop_int!();
                    let arr = pop!().as_remote().ok_or(ReflectError::NullDeref)?;
                    let len = self.read(arr + 1)? as i64;
                    if i < 0 || i >= len {
                        return Err(ReflectError::IndexOutOfBounds);
                    }
                    let v = self.read(arr + 2 + i as u64)?;
                    stack.push(lift(v, ty));
                }
                Op::ArrayLen => {
                    let arr = pop!().as_remote().ok_or(ReflectError::NullDeref)?;
                    stack.push(TVal::Int(self.read(arr + 1)? as i64));
                }
                Op::IdentityHash => {
                    let obj = pop!().as_remote().ok_or(ReflectError::NullDeref)?;
                    let h = self.remote_header(obj)?;
                    stack.push(TVal::Int(h.serial as i64));
                }
                Op::InstanceOf(class) => {
                    let v = pop!();
                    let r = match v {
                        TVal::Remote(a) => {
                            let h = self.remote_header(a)?;
                            !h.is_array
                                && !h.is_classobj
                                && self.program.is_subclass(h.class_id, class)
                        }
                        _ => false,
                    };
                    stack.push(TVal::Int(r as i64));
                }
                Op::Call(callee) => {
                    let n = self.program.method(callee).nargs as usize;
                    if stack.len() < n {
                        return Err(ReflectError::StackUnderflow);
                    }
                    let a: Vec<TVal> = stack.split_off(stack.len() - n);
                    let ret = self.invoke_depth(callee, &a, depth + 1)?;
                    if let Some(v) = ret {
                        stack.push(v);
                    }
                }
                Op::CallVirtual { class, slot } => {
                    // Dispatch through the *remote* object's header: read
                    // its class id from the remote space, then use the
                    // locally loaded vtable (same boot image).
                    let static_callee = self.program.class(class).vtable[slot as usize];
                    let n = self.program.method(static_callee).nargs as usize;
                    if stack.len() < n {
                        return Err(ReflectError::StackUnderflow);
                    }
                    let a: Vec<TVal> = stack.split_off(stack.len() - n);
                    let recv = a[0].as_remote().ok_or(ReflectError::NullDeref)?;
                    let h = self.remote_header(recv)?;
                    if h.is_array || h.is_classobj || !self.program.is_subclass(h.class_id, class) {
                        return Err(ReflectError::TypeConfusion);
                    }
                    let callee = self.program.class(h.class_id).vtable[slot as usize];
                    let ret = self.invoke_depth(callee, &a, depth + 1)?;
                    if let Some(v) = ret {
                        stack.push(v);
                    }
                }
                Op::Ret => return Ok(None),
                Op::RetVal => return Ok(Some(pop!())),
                // ---- everything that would perturb the remote JVM ----
                Op::PutField { .. } | Op::PutStatic(..) | Op::AStore(_) => {
                    return Err(ReflectError::Unsupported("mutation"))
                }
                Op::New(_) | Op::NewArray(_) | Op::Str(_) => {
                    return Err(ReflectError::Unsupported("allocation"))
                }
                Op::GetStatic(..) => {
                    // Statics live in lazily loaded class objects whose
                    // addresses the tool does not know a priori; expose them
                    // via mapped methods instead.
                    return Err(ReflectError::Unsupported("static (use a mapped method)"));
                }
                Op::MonitorEnter
                | Op::MonitorExit
                | Op::Wait
                | Op::TimedWait
                | Op::Notify
                | Op::NotifyAll
                | Op::Spawn { .. }
                | Op::Join
                | Op::Interrupt
                | Op::YieldNow
                | Op::Sleep
                | Op::CurrentThread => return Err(ReflectError::Unsupported("threading")),
                Op::Now | Op::NativeCall { .. } | Op::Print | Op::PrintStr(_) | Op::Halt => {
                    return Err(ReflectError::Unsupported("environment"))
                }
            }
            pc += 1;
        }
    }

    /// Execute the paper's Figure-3 query end to end: the line number of
    /// `method` at bytecode offset `offset`, resolved entirely from the
    /// remote address space.
    pub fn line_number_of(&mut self, method: MethodId, offset: u32) -> Result<i64, ReflectError> {
        let q = self.program.builtins.line_number_of;
        let r = self.invoke(q, &[TVal::Int(method as i64), TVal::Int(offset as i64)])?;
        r.and_then(TVal::as_int)
            .ok_or(ReflectError::Internal("no result"))
    }
}

fn lift(raw: u64, ty: Ty) -> TVal {
    match ty {
        Ty::Int => TVal::Int(raw as i64),
        Ty::Ref => {
            if raw == 0 {
                TVal::Null
            } else {
                TVal::Remote(raw)
            }
        }
    }
}
