//! Assembler-style builder DSL for constructing guest programs.
//!
//! Workloads and tests use this instead of a textual assembler. Labels are
//! symbolic and resolved when the method is finished; the builder tracks a
//! current source line so the paper's line-number reflection example
//! (Fig. 3) has real data to chew on.
//!
//! ```
//! use djvm::builder::ProgramBuilder;
//!
//! let mut pb = ProgramBuilder::new();
//! let entry = pb.method("main", 0, 1).code(|a| {
//!     a.iconst(0).store(0);
//!     a.label("loop");
//!     a.load(0).iconst(1).add().store(0);
//!     a.load(0).iconst(10).lt().if_nz("loop");
//!     a.load(0).print();
//!     a.halt();
//! });
//! let program = pb.finish(entry).unwrap();
//! // user method + injected builtin helper methods
//! assert!(program.methods.len() >= 1);
//! assert_eq!(program.entry, entry);
//! ```

use crate::bytecode::{ClassId, MethodId, NativeId, Op, StrId, Ty};
use crate::compile::{compile_program, CompileError};
use crate::program::{Builtins, Class, FieldDecl, Method, NativeDecl, Program};
use std::collections::HashMap;

/// Builds a [`Program`], verifying and baseline-compiling it in
/// [`ProgramBuilder::finish`].
#[derive(Default)]
pub struct ProgramBuilder {
    classes: Vec<Class>,
    methods: Vec<Method>,
    strings: Vec<String>,
    string_ids: HashMap<String, StrId>,
    natives: Vec<NativeDecl>,
}

impl ProgramBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder holding what `program` was finished from — its own
    /// classes, methods, strings and natives, under the same ids — to add
    /// to and finish again, which injects the builtins afresh.
    pub fn reopen(program: &Program) -> Self {
        let b = &program.builtins;
        Self {
            classes: program.classes[..b.thread_class as usize].to_vec(),
            methods: program.methods[..b.get_line_number_at as usize].to_vec(),
            string_ids: program.strings.iter().cloned().zip(0..).collect(),
            strings: program.strings.clone(),
            natives: program.natives.clone(),
        }
    }

    /// Start a class with no superclass.
    pub fn class(&mut self, name: &str) -> ClassBuilder<'_> {
        self.class_extends(name, None)
    }

    /// Start a class extending `super_class`.
    pub fn class_extends(&mut self, name: &str, super_class: Option<ClassId>) -> ClassBuilder<'_> {
        let (vtable, vslots) = match super_class {
            Some(s) => {
                let sc = &self.classes[s as usize];
                (sc.vtable.clone(), sc.vslots.clone())
            }
            None => (Vec::new(), HashMap::new()),
        };
        self.classes.push(Class {
            name: name.to_string(),
            super_class,
            fields: vec![],
            statics: vec![],
            vtable,
            vslots,
        });
        let id = (self.classes.len() - 1) as ClassId;
        ClassBuilder { pb: self, id }
    }

    /// Intern a string, returning its pool id.
    pub fn intern(&mut self, s: &str) -> StrId {
        if let Some(&id) = self.string_ids.get(s) {
            return id;
        }
        let id = self.strings.len() as StrId;
        self.strings.push(s.to_string());
        self.string_ids.insert(s.to_string(), id);
        id
    }

    /// Declare a native function (its Rust implementation is registered on
    /// the VM via [`crate::native::NativeRegistry`]).
    pub fn native(&mut self, name: &str, nargs: u8, returns: bool) -> NativeId {
        self.natives.push(NativeDecl {
            name: name.to_string(),
            nargs,
            returns,
        });
        (self.natives.len() - 1) as NativeId
    }

    /// Start a free (static) method with `nargs` int arguments.
    pub fn method(&mut self, name: &str, nargs: u16, nlocals: u16) -> MethodBuilder<'_> {
        self.method_typed(name, vec![Ty::Int; nargs as usize], nlocals, None)
    }

    /// Start a free method returning an int.
    pub fn func(&mut self, name: &str, nargs: u16, nlocals: u16) -> MethodBuilder<'_> {
        self.method_typed(name, vec![Ty::Int; nargs as usize], nlocals, Some(Ty::Int))
    }

    /// Start a free method with explicit argument types and return type.
    pub fn method_typed(
        &mut self,
        name: &str,
        arg_types: Vec<Ty>,
        nlocals: u16,
        ret: Option<Ty>,
    ) -> MethodBuilder<'_> {
        let nargs = arg_types.len() as u16;
        assert!(nlocals >= nargs, "nlocals must cover the arguments");
        self.methods.push(Method {
            name: name.to_string(),
            owner: None,
            nargs,
            nlocals,
            arg_types,
            ret,
            ops: vec![],
            lines: vec![],
            compiled: None,
        });
        let id = (self.methods.len() - 1) as MethodId;
        MethodBuilder {
            pb: self,
            id,
            asm: Asm::empty(),
        }
    }

    /// Start a virtual method on `owner`; the receiver is argument 0 (a
    /// Ref). Installs/overrides the vtable slot named `name`.
    pub fn virtual_method(
        &mut self,
        owner: ClassId,
        name: &str,
        extra_args: Vec<Ty>,
        nlocals: u16,
        ret: Option<Ty>,
    ) -> MethodBuilder<'_> {
        let mut arg_types = vec![Ty::Ref];
        arg_types.extend(extra_args);
        let nargs = arg_types.len() as u16;
        assert!(nlocals >= nargs);
        self.methods.push(Method {
            name: name.to_string(),
            owner: Some(owner),
            nargs,
            nlocals,
            arg_types,
            ret,
            ops: vec![],
            lines: vec![],
            compiled: None,
        });
        let id = (self.methods.len() - 1) as MethodId;
        let class = &mut self.classes[owner as usize];
        if let Some(&slot) = class.vslots.get(name) {
            class.vtable[slot as usize] = id;
        } else {
            let slot = class.vtable.len() as u16;
            class.vtable.push(id);
            class.vslots.insert(name.to_string(), slot);
        }
        MethodBuilder {
            pb: self,
            id,
            asm: Asm::empty(),
        }
    }

    /// The vtable slot of a named virtual method on a class.
    pub fn vslot(&self, class: ClassId, name: &str) -> u16 {
        *self.classes[class as usize]
            .vslots
            .get(name)
            .unwrap_or_else(|| panic!("no virtual method {name}"))
    }

    /// Add the builtins, then verify and baseline-compile the program with
    /// entry method `entry`. This is the only way to a [`Program`] that
    /// can run.
    pub fn finish(mut self, entry: MethodId) -> Result<Program, CompileError> {
        let builtins = self.inject_builtins();
        let mut program = Program {
            classes: self.classes,
            methods: self.methods,
            strings: self.strings,
            natives: self.natives,
            entry,
            builtins,
            ..Default::default()
        };
        compile_program(&mut program)?;
        Ok(program)
    }

    /// The boot-image analogue: the VM's builtin classes and interpreted
    /// instrumentation helpers, appended after everything the user
    /// defined, in a fixed order (a `compile` test pins it; `reopen` cuts there).
    fn inject_builtins(&mut self) -> Builtins {
        let thread_class = self.class("Thread").field("tid", Ty::Int).build();
        let string_class = self.class("String").field("chars", Ty::Ref).build();
        let vm_method = self
            .class("VM_Method")
            .field("methodId", Ty::Int)
            .field("name", Ty::Ref)
            .field("lineTable", Ty::Ref);
        let line_table = vm_method.field_index("lineTable");
        let vm_method_class = vm_method.build();

        // VM_Method.getLineNumberAt(offset): the reflective query of Fig. 3.
        //   if (offset >= lineTable.length) return 0; return lineTable[offset];
        let get_line_number_at = self
            .virtual_method(
                vm_method_class,
                "getLineNumberAt",
                vec![Ty::Int],
                3,
                Some(Ty::Int),
            )
            .code(|a| {
                a.load(0).get_field_ref(line_table).store(2);
                a.load(1).load(2).array_len().lt().if_nz("in_range");
                a.iconst(0).ret_val();
                a.label("in_range");
                a.load(2).load(1).aload().ret_val();
            });

        // Interpreted instrumentation helpers. Both loop (so they execute yield
        // points), but with *different* trip counts, frame sizes and call
        // depth: record's flush is deliberately heavier than replay's fill.
        // These asymmetries are what §2.4's symmetry machinery must hide — the
        // logical clock (liveClock) hides the differing yield-point counts,
        // pre-compilation hides the differing lazy-compilation footprints, and
        // eager stack growth hides the differing frame sizes.
        let mut helper = |name, iters, body_pad, nlocals, nested: Option<MethodId>| {
            self.func(name, 1, nlocals).code(|a| {
                a.iconst(0).store(1);
                if let Some(callee) = nested {
                    a.iconst(2).call(callee).pop();
                }
                a.label("top");
                a.load(1).iconst(iters).ge().if_nz("done");
                for _ in 0..body_pad {
                    a.load(0).iconst(3).add().store(0);
                }
                a.load(1).iconst(1).add().store(1);
                a.goto("top");
                a.label("done");
                a.load(0).ret_val();
            })
        };
        // Leaf helper used only by the record-side flush: lazily compiling it
        // is an extra allocation that replay would never perform.
        let flush_low = helper("sys$flushLow", 2, 0, 2, None);
        let flush_method = helper("sys$flushTrace", 8, 3, 10, Some(flush_low));
        let fill_method = helper("sys$fillTrace", 5, 1, 2, None);

        // sys$getMethods: the VM_Dictionary.getMethods() analogue. Stub body —
        // a tool JVM *maps* this method (intercepting its invocation to return
        // a remote object); it is never meant to execute.
        let get_methods = self
            .method_typed("sys$getMethods", vec![], 0, Some(Ty::Ref))
            .code(|a| {
                a.null().ret_val();
            });

        // sys$lineNumberOf(methodNumber, offset): the paper's Figure 3 query:
        //   VM_Method[] mtable = VM_Dictionary.getMethods();
        //   VM_Method candidate = mtable[methodNumber];
        //   return candidate.getLineNumberAt(offset);
        let slot = self.vslot(vm_method_class, "getLineNumberAt");
        let line_number_of = self.func("sys$lineNumberOf", 2, 3).code(|a| {
            a.line(2).call(get_methods);
            a.line(3).load(0).aload_ref().store(2);
            a.line(4).load(2).load(1);
            a.call_virtual(vm_method_class, slot).ret_val();
        });

        Builtins {
            thread_class,
            string_class,
            vm_method_class,
            flush_method,
            fill_method,
            get_methods,
            line_number_of,
            get_line_number_at,
        }
    }
}

/// Fluent class-definition helper returned by [`ProgramBuilder::class`].
pub struct ClassBuilder<'a> {
    pb: &'a mut ProgramBuilder,
    id: ClassId,
}

impl ClassBuilder<'_> {
    pub fn field(self, name: &str, ty: Ty) -> Self {
        self.pb.classes[self.id as usize].fields.push(FieldDecl {
            name: name.to_string(),
            ty,
        });
        self
    }

    pub fn static_field(self, name: &str, ty: Ty) -> Self {
        self.pb.classes[self.id as usize].statics.push(FieldDecl {
            name: name.to_string(),
            ty,
        });
        self
    }

    /// Flattened index of a declared instance field (for GetField/PutField).
    pub fn field_index(&self, name: &str) -> u16 {
        field_index_of(&self.pb.classes, self.id, name)
    }

    pub fn id(&self) -> ClassId {
        self.id
    }

    pub fn build(self) -> ClassId {
        self.id
    }
}

/// Flattened instance-field index for `name` on `class` (inherited fields
/// come first).
pub fn field_index_of(classes: &[Class], class: ClassId, name: &str) -> u16 {
    fn flatten(classes: &[Class], class: ClassId, out: &mut Vec<String>) {
        let c = &classes[class as usize];
        if let Some(s) = c.super_class {
            flatten(classes, s, out);
        }
        out.extend(c.fields.iter().map(|f| f.name.clone()));
    }
    let mut names = Vec::new();
    flatten(classes, class, &mut names);
    names
        .iter()
        .position(|n| n == name)
        .unwrap_or_else(|| panic!("no field {name}")) as u16
}

/// Method-body assembler with symbolic labels.
pub struct MethodBuilder<'a> {
    pb: &'a mut ProgramBuilder,
    id: MethodId,
    asm: Asm,
}

impl MethodBuilder<'_> {
    /// Assemble the body with closure `f` and finish the method, returning
    /// its id.
    pub fn code(mut self, f: impl FnOnce(&mut Asm)) -> MethodId {
        f(&mut self.asm);
        let (ops, lines) = self.asm.finish();
        let m = &mut self.pb.methods[self.id as usize];
        m.ops = ops;
        m.lines = lines;
        self.id
    }

    pub fn id(&self) -> MethodId {
        self.id
    }
}

/// The instruction assembler. Every emit method returns `&mut Self` so
/// straight-line sequences chain fluently.
pub struct Asm {
    ops: Vec<Op>,
    lines: Vec<u32>,
    line: u32,
    labels: HashMap<String, u32>,
    fixups: Vec<(usize, String)>,
}

impl Asm {
    fn empty() -> Self {
        Self {
            ops: vec![],
            lines: vec![],
            line: 1,
            labels: HashMap::new(),
            fixups: vec![],
        }
    }

    fn emit(&mut self, op: Op) -> &mut Self {
        self.ops.push(op);
        self.lines.push(self.line);
        self
    }

    /// Set the current source line for subsequently emitted instructions.
    pub fn line(&mut self, line: u32) -> &mut Self {
        self.line = line;
        self
    }

    /// Define a label at the current pc.
    pub fn label(&mut self, name: &str) -> &mut Self {
        let prev = self.labels.insert(name.to_string(), self.ops.len() as u32);
        assert!(prev.is_none(), "duplicate label {name}");
        self
    }

    fn branch(&mut self, make: fn(u32) -> Op, target: &str) -> &mut Self {
        self.fixups.push((self.ops.len(), target.to_string()));
        self.emit(make(u32::MAX))
    }

    // -- constants / locals / stack --
    pub fn iconst(&mut self, v: i64) -> &mut Self {
        self.emit(Op::Const(v))
    }
    pub fn null(&mut self) -> &mut Self {
        self.emit(Op::Null)
    }
    pub fn strref(&mut self, s: StrId) -> &mut Self {
        self.emit(Op::Str(s))
    }
    pub fn load(&mut self, n: u16) -> &mut Self {
        self.emit(Op::Load(n))
    }
    pub fn store(&mut self, n: u16) -> &mut Self {
        self.emit(Op::Store(n))
    }
    pub fn dup(&mut self) -> &mut Self {
        self.emit(Op::Dup)
    }
    pub fn pop(&mut self) -> &mut Self {
        self.emit(Op::Pop)
    }
    pub fn swap(&mut self) -> &mut Self {
        self.emit(Op::Swap)
    }

    // -- arithmetic --
    pub fn add(&mut self) -> &mut Self {
        self.emit(Op::Add)
    }
    pub fn sub(&mut self) -> &mut Self {
        self.emit(Op::Sub)
    }
    pub fn mul(&mut self) -> &mut Self {
        self.emit(Op::Mul)
    }
    pub fn div(&mut self) -> &mut Self {
        self.emit(Op::Div)
    }
    pub fn rem(&mut self) -> &mut Self {
        self.emit(Op::Rem)
    }
    pub fn neg(&mut self) -> &mut Self {
        self.emit(Op::Neg)
    }
    pub fn band(&mut self) -> &mut Self {
        self.emit(Op::BitAnd)
    }
    pub fn bor(&mut self) -> &mut Self {
        self.emit(Op::BitOr)
    }
    pub fn bxor(&mut self) -> &mut Self {
        self.emit(Op::BitXor)
    }
    pub fn shl(&mut self) -> &mut Self {
        self.emit(Op::Shl)
    }
    pub fn shr(&mut self) -> &mut Self {
        self.emit(Op::Shr)
    }

    // -- comparisons --
    pub fn eq(&mut self) -> &mut Self {
        self.emit(Op::Eq)
    }
    pub fn ne(&mut self) -> &mut Self {
        self.emit(Op::Ne)
    }
    pub fn lt(&mut self) -> &mut Self {
        self.emit(Op::Lt)
    }
    pub fn le(&mut self) -> &mut Self {
        self.emit(Op::Le)
    }
    pub fn gt(&mut self) -> &mut Self {
        self.emit(Op::Gt)
    }
    pub fn ge(&mut self) -> &mut Self {
        self.emit(Op::Ge)
    }
    pub fn ref_eq(&mut self) -> &mut Self {
        self.emit(Op::RefEq)
    }

    // -- control flow --
    pub fn goto(&mut self, target: &str) -> &mut Self {
        self.branch(Op::Goto, target)
    }
    /// Pop; branch if non-zero.
    pub fn if_nz(&mut self, target: &str) -> &mut Self {
        self.branch(Op::If, target)
    }
    /// Pop; branch if zero.
    pub fn if_z(&mut self, target: &str) -> &mut Self {
        self.branch(Op::IfZ, target)
    }

    // -- objects --
    pub fn new(&mut self, class: ClassId) -> &mut Self {
        self.emit(Op::New(class))
    }
    /// Load an Int instance field.
    pub fn get_field(&mut self, idx: u16) -> &mut Self {
        self.emit(Op::GetField { idx, ty: Ty::Int })
    }
    /// Load a Ref instance field.
    pub fn get_field_ref(&mut self, idx: u16) -> &mut Self {
        self.emit(Op::GetField { idx, ty: Ty::Ref })
    }
    /// Store an Int instance field.
    pub fn put_field(&mut self, idx: u16) -> &mut Self {
        self.emit(Op::PutField { idx, ty: Ty::Int })
    }
    /// Store a Ref instance field.
    pub fn put_field_ref(&mut self, idx: u16) -> &mut Self {
        self.emit(Op::PutField { idx, ty: Ty::Ref })
    }
    pub fn get_static(&mut self, class: ClassId, n: u16) -> &mut Self {
        self.emit(Op::GetStatic(class, n))
    }
    pub fn put_static(&mut self, class: ClassId, n: u16) -> &mut Self {
        self.emit(Op::PutStatic(class, n))
    }
    pub fn new_array_int(&mut self) -> &mut Self {
        self.emit(Op::NewArray(Ty::Int))
    }
    pub fn new_array_ref(&mut self) -> &mut Self {
        self.emit(Op::NewArray(Ty::Ref))
    }
    /// Load from an int array.
    pub fn aload(&mut self) -> &mut Self {
        self.emit(Op::ALoad(Ty::Int))
    }
    /// Load from a ref array.
    pub fn aload_ref(&mut self) -> &mut Self {
        self.emit(Op::ALoad(Ty::Ref))
    }
    /// Store into an int array.
    pub fn astore(&mut self) -> &mut Self {
        self.emit(Op::AStore(Ty::Int))
    }
    /// Store into a ref array.
    pub fn astore_ref(&mut self) -> &mut Self {
        self.emit(Op::AStore(Ty::Ref))
    }
    pub fn array_len(&mut self) -> &mut Self {
        self.emit(Op::ArrayLen)
    }
    pub fn identity_hash(&mut self) -> &mut Self {
        self.emit(Op::IdentityHash)
    }
    pub fn instance_of(&mut self, class: ClassId) -> &mut Self {
        self.emit(Op::InstanceOf(class))
    }

    // -- calls --
    pub fn call(&mut self, m: MethodId) -> &mut Self {
        self.emit(Op::Call(m))
    }
    pub fn call_virtual(&mut self, class: ClassId, slot: u16) -> &mut Self {
        self.emit(Op::CallVirtual { class, slot })
    }
    pub fn ret(&mut self) -> &mut Self {
        self.emit(Op::Ret)
    }
    pub fn ret_val(&mut self) -> &mut Self {
        self.emit(Op::RetVal)
    }

    // -- synchronization --
    pub fn monitor_enter(&mut self) -> &mut Self {
        self.emit(Op::MonitorEnter)
    }
    pub fn monitor_exit(&mut self) -> &mut Self {
        self.emit(Op::MonitorExit)
    }
    pub fn wait(&mut self) -> &mut Self {
        self.emit(Op::Wait)
    }
    pub fn timed_wait(&mut self) -> &mut Self {
        self.emit(Op::TimedWait)
    }
    pub fn notify(&mut self) -> &mut Self {
        self.emit(Op::Notify)
    }
    pub fn notify_all(&mut self) -> &mut Self {
        self.emit(Op::NotifyAll)
    }

    // -- threads --
    pub fn spawn(&mut self, method: MethodId, nargs: u8) -> &mut Self {
        self.emit(Op::Spawn { method, nargs })
    }
    pub fn join(&mut self) -> &mut Self {
        self.emit(Op::Join)
    }
    pub fn interrupt(&mut self) -> &mut Self {
        self.emit(Op::Interrupt)
    }
    pub fn yield_now(&mut self) -> &mut Self {
        self.emit(Op::YieldNow)
    }
    pub fn sleep(&mut self) -> &mut Self {
        self.emit(Op::Sleep)
    }
    pub fn current_thread(&mut self) -> &mut Self {
        self.emit(Op::CurrentThread)
    }

    // -- environment / misc --
    pub fn now(&mut self) -> &mut Self {
        self.emit(Op::Now)
    }
    pub fn native_call(&mut self, native: NativeId, nargs: u8) -> &mut Self {
        self.emit(Op::NativeCall { native, nargs })
    }
    pub fn print(&mut self) -> &mut Self {
        self.emit(Op::Print)
    }
    pub fn print_str(&mut self, s: StrId) -> &mut Self {
        self.emit(Op::PrintStr(s))
    }
    pub fn halt(&mut self) -> &mut Self {
        self.emit(Op::Halt)
    }

    fn finish(mut self) -> (Vec<Op>, Vec<u32>) {
        for (pc, label) in std::mem::take(&mut self.fixups) {
            let target = *self
                .labels
                .get(&label)
                .unwrap_or_else(|| panic!("undefined label {label}"));
            self.ops[pc] = match self.ops[pc] {
                Op::Goto(_) => Op::Goto(target),
                Op::If(_) => Op::If(target),
                Op::IfZ(_) => Op::IfZ(target),
                other => other,
            };
        }
        (self.ops, self.lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_resolve_backward_and_forward() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("m", 0, 1).code(|a| {
            a.iconst(0).store(0);
            a.label("top");
            a.load(0).iconst(3).ge().if_nz("done");
            a.load(0).iconst(1).add().store(0);
            a.goto("top");
            a.label("done");
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        let ops = &p.methods[0].ops;
        // the goto must point back at "top" (pc 2) and the if forward.
        assert_eq!(ops[ops.len() - 2], Op::Goto(2));
        assert!(matches!(ops[5], Op::If(t) if t as usize == ops.len() - 1));
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn duplicate_label_panics() {
        let mut pb = ProgramBuilder::new();
        pb.method("m", 0, 0).code(|a| {
            a.label("x");
            a.label("x");
        });
    }

    #[test]
    #[should_panic(expected = "undefined label")]
    fn undefined_label_panics() {
        let mut pb = ProgramBuilder::new();
        pb.method("m", 0, 0).code(|a| {
            a.goto("nowhere");
        });
    }

    #[test]
    fn interning_deduplicates() {
        let mut pb = ProgramBuilder::new();
        let a = pb.intern("hello");
        let b = pb.intern("hello");
        let c = pb.intern("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn vtable_inheritance_and_override() {
        let mut pb = ProgramBuilder::new();
        let base = pb.class("Base").build();
        let m1 = pb
            .virtual_method(base, "f", vec![], 1, Some(Ty::Int))
            .code(|a| {
                a.iconst(1).ret_val();
            });
        let derived = pb.class_extends("Derived", Some(base)).build();
        let m2 = pb
            .virtual_method(derived, "f", vec![], 1, Some(Ty::Int))
            .code(|a| {
                a.iconst(2).ret_val();
            });
        assert_eq!(pb.vslot(base, "f"), pb.vslot(derived, "f"));
        let main = pb.method("main", 0, 0).code(|a| {
            a.halt();
        });
        let p = pb.finish(main).unwrap();
        assert_eq!(p.classes[base as usize].vtable[0], m1);
        assert_eq!(p.classes[derived as usize].vtable[0], m2);
    }

    #[test]
    fn line_numbers_recorded() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("m", 0, 0).code(|a| {
            a.line(10).iconst(1).pop();
            a.line(20).halt();
        });
        let p = pb.finish(m).unwrap();
        assert_eq!(p.methods[0].lines, vec![10, 10, 20]);
    }

    #[test]
    fn a_reopened_program_keeps_its_ids_and_gains_what_is_added() {
        let mut pb = ProgramBuilder::new();
        let base = pb.class("Base").field("x", Ty::Int).build();
        let f = pb
            .virtual_method(base, "f", vec![], 1, Some(Ty::Int))
            .code(|a| {
                a.load(0).get_field(0).ret_val();
            });
        let hi = pb.intern("hi");
        let main = pb.method("main", 0, 0).code(|a| {
            a.print_str(hi).halt();
        });
        let p = pb.finish(main).unwrap();

        let mut pb = ProgramBuilder::reopen(&p);
        assert_eq!(pb.intern("hi"), hi);
        let g = pb.func("g", 1, 1).code(|a| {
            a.load(0).ret_val();
        });
        let q = pb.finish(p.entry).unwrap();
        for id in [f, main] {
            assert_eq!(q.method(id).ops, p.method(id).ops);
        }
        assert_eq!(
            q.classes[base as usize].vtable,
            p.classes[base as usize].vtable
        );
        assert_eq!(q.strings, p.strings);
        // The builtins follow the addition: classes keep their ids.
        assert_eq!(g, p.builtins.get_line_number_at);
        assert_eq!(q.builtins.vm_method_class, p.builtins.vm_method_class);
        assert_eq!(q.methods.len(), p.methods.len() + 1);
        assert!(q.methods.iter().all(|m| m.compiled.is_some()));
    }
}
