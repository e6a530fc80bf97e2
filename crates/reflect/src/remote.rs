//! The tool-side reflection interpreter with **remote objects** (§3).
//!
//! "Remote reflection solves this problem by decoupling the data and its
//! reflection code, thus allowing a program in one JVM to execute a
//! reflection method that operates directly on an object residing in
//! another JVM."
//!
//! The tool loads the *same* program (classes, methods, vtables — the boot
//! image) as the application and runs its methods with the application's
//! own definitions (`Pure::exec`, `Test::eval`, `div_rem`, the
//! `djvm::objref` reference reads) over a frame of words, reading the
//! remote space where the guest reads its heap: a query gets the value, or
//! the guest error, the application would get. All that §3.4 adds is
//! written here: **mapped methods**, intercepted to return a remote object,
//! and **refusing mutation** — "the debugger only makes queries and does
//! not modify the state of the application JVM" (§3.2).

use crate::{ReflectError, TVal};
use djvm::compile::{div_rem, Pure, Test};
use djvm::heap::{Addr, Word, NULL};
use djvm::{objref, MethodId, Op, ProcessMemory, Program};
use std::collections::BTreeMap;
use std::sync::Arc;

type Answer<T> = Result<T, ReflectError>;

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

    /// Invoke a method of the shared program against the remote space:
    /// the arguments must fit its signature, and its declared return type
    /// types the result.
    pub fn invoke(&mut self, method: MethodId, args: &[TVal]) -> Answer<Option<TVal>> {
        let program = Arc::clone(&self.program);
        let m = (program.methods.get(method as usize)).ok_or(ReflectError::NoSuchMethod(method))?;
        if args.len() != m.nargs as usize {
            let (want, got) = (m.nargs, args.len());
            return Err(ReflectError::Arity { want, got });
        }
        let words = (args.iter().zip(&m.arg_types).enumerate())
            .map(|(i, (&a, &ty))| {
                let fits = TVal::lift(a.raw(), ty) == a;
                fits.then(|| a.raw()).ok_or(ReflectError::ArgType(i))
            })
            .collect::<Result<Vec<Word>, _>>()?;
        let ret = self.run(method, &words, 0)?;
        Ok(ret.zip(m.ret).map(|(w, ty)| TVal::lift(w, ty)))
    }

    /// Run `method` over a frame of words, its locals then its operand
    /// stack: the layout `Pure::exec` and `Test::eval` read in the guest.
    fn run(&mut self, method: MethodId, args: &[Word], depth: usize) -> Answer<Option<Word>> {
        if depth > MAX_DEPTH {
            return Err(ReflectError::CallDepthExceeded);
        }
        if let Some(root) = self.mapped.get(&method) {
            // "Intercepted so that the actual invocation is not made" (§3.4).
            return Ok(Some(root.raw()));
        }
        let (program, mem) = (Arc::clone(&self.program), self.mem);
        let m = program.method(method);
        let base = m.nlocals as usize;
        let mut frame = vec![0; base + program.compiled(method).max_stack as usize];
        frame[..args.len()].copy_from_slice(args);
        let (mut sp, mut pc) = (base, 0);
        loop {
            let op = m.ops[pc];
            self.steps += 1;
            pc += 1;
            if let Some(p) = Pure::of(op) {
                sp = p.exec(&mut frame, sp as u64, 0) as usize;
                continue;
            }
            // The `k`th word from the top of the operand stack.
            let arg = |k: usize| frame[sp - k];
            let (pops, push) = match op {
                Op::Null => (0, Some(NULL)),
                Op::Goto(t) => {
                    pc = t as usize;
                    (0, None)
                }
                Op::If(t) | Op::IfZ(t) => {
                    let (sense, pops) = Test::Top.eval(&frame, sp as u64, 0);
                    if sense == matches!(op, Op::If(_)) {
                        pc = t as usize;
                    }
                    (pops as usize, None)
                }
                Op::Div | Op::Rem => {
                    let r = div_rem(arg(2) as i64, arg(1) as i64, op == Op::Rem);
                    (2, Some(r.map_err(ReflectError::Fault)? as Word))
                }
                // ---- the reference bytecodes, read remotely ----
                Op::GetField { idx, ty } => {
                    let slot = objref::field_slot(mem, &program, arg(1), idx, ty)?;
                    (1, Some(objref::read(mem, slot)?))
                }
                Op::ALoad(ty) => {
                    let slot = objref::elem_slot(mem, arg(2), arg(1) as i64, ty)?;
                    (2, Some(objref::read(mem, slot)?))
                }
                Op::ArrayLen => (1, Some(objref::array_len(mem, arg(1))?)),
                Op::IdentityHash => (1, Some(objref::identity_hash(mem, arg(1))?)),
                Op::InstanceOf(c) => (
                    1,
                    Some(objref::instance_of(mem, &program, arg(1), c)? as Word),
                ),
                Op::Call(callee) => self.call(callee, &frame[base..sp], depth)?,
                Op::CallVirtual { class, slot } => {
                    let recv = |nargs: u16| arg(nargs as usize);
                    let callee = objref::virtual_target(mem, &program, class, slot, recv)?;
                    self.call(callee, &frame[base..sp], depth)?
                }
                Op::Ret => return Ok(None),
                Op::RetVal => return Ok(Some(arg(1))),
                op => {
                    return Err(ReflectError::Unsupported(match op {
                        Op::PutField { .. } | Op::PutStatic(..) | Op::AStore(_) => "mutation",
                        Op::New(_) | Op::NewArray(_) | Op::Str(_) => "allocation",
                        // A class object's address is not known a priori.
                        Op::GetStatic(..) => "static (use a mapped method)",
                        _ => "threading or environment",
                    }));
                }
            };
            sp -= pops;
            if let Some(v) = push {
                frame[sp] = v;
                sp += 1;
            }
        }
    }

    /// Run method `m` on the arguments atop the operand stack `stack`: how
    /// many words it pops, and what it pushes.
    fn call(&mut self, m: MethodId, stack: &[Word], depth: usize) -> Answer<(usize, Option<Word>)> {
        let n = self.program.method(m).nargs as usize;
        let first = (stack.len().checked_sub(n)).ok_or(ReflectError::StackUnderflow)?;
        Ok((n, self.run(m, &stack[first..], depth + 1)?))
    }

    /// Execute the paper's Figure-3 query end to end: the line number of
    /// `method` at bytecode offset `offset`, resolved entirely from the
    /// remote address space.
    pub fn line_number_of(&mut self, method: MethodId, offset: u32) -> Answer<i64> {
        let q = self.program.builtins.line_number_of;
        match self.invoke(q, &[TVal::Int(method as i64), TVal::Int(offset as i64)])? {
            Some(TVal::Int(line)) => Ok(line),
            _ => Err(ReflectError::Unsupported("a mapped lineNumberOf")),
        }
    }
}
