//! Disassembler: human-readable listings of guest methods, annotated with
//! the baseline compiler's metadata (yield points, reference maps, source
//! lines). Used by the debugger's source/instruction view (paper §4: "a
//! view of the executing method's Java source and machine instructions").

use crate::bytecode::{Op, Ty};
use crate::compile::{Pure, QOp, Test};
use crate::program::Program;
use crate::MethodId;
use std::fmt::Write;

/// Render one instruction with resolved names.
pub fn render_op(program: &Program, op: Op) -> String {
    match op {
        Op::Const(v) => format!("const {v}"),
        Op::Null => "null".into(),
        Op::Str(s) => format!("str {:?}", program.strings[s as usize]),
        Op::Load(i) => format!("load l{i}"),
        Op::Store(i) => format!("store l{i}"),
        Op::Dup => "dup".into(),
        Op::Pop => "pop".into(),
        Op::Swap => "swap".into(),
        Op::Add => "add".into(),
        Op::Sub => "sub".into(),
        Op::Mul => "mul".into(),
        Op::Div => "div".into(),
        Op::Rem => "rem".into(),
        Op::Neg => "neg".into(),
        Op::BitAnd => "and".into(),
        Op::BitOr => "or".into(),
        Op::BitXor => "xor".into(),
        Op::Shl => "shl".into(),
        Op::Shr => "shr".into(),
        Op::Eq => "cmpeq".into(),
        Op::Ne => "cmpne".into(),
        Op::Lt => "cmplt".into(),
        Op::Le => "cmple".into(),
        Op::Gt => "cmpgt".into(),
        Op::Ge => "cmpge".into(),
        Op::RefEq => "refeq".into(),
        Op::Goto(t) => format!("goto @{t}"),
        Op::If(t) => format!("ifnz @{t}"),
        Op::IfZ(t) => format!("ifz @{t}"),
        Op::New(c) => format!("new {}", program.class(c).name),
        Op::GetField { idx, ty } => format!("getfield #{idx}:{}", ty_str(ty)),
        Op::PutField { idx, ty } => format!("putfield #{idx}:{}", ty_str(ty)),
        Op::GetStatic(c, i) => format!(
            "getstatic {}.{}",
            program.class(c).name,
            program.class(c).statics[i as usize].name
        ),
        Op::PutStatic(c, i) => format!(
            "putstatic {}.{}",
            program.class(c).name,
            program.class(c).statics[i as usize].name
        ),
        Op::NewArray(ty) => format!("newarray {}", ty_str(ty)),
        Op::ALoad(ty) => format!("aload {}", ty_str(ty)),
        Op::AStore(ty) => format!("astore {}", ty_str(ty)),
        Op::ArrayLen => "arraylen".into(),
        Op::IdentityHash => "identityhash".into(),
        Op::InstanceOf(c) => format!("instanceof {}", program.class(c).name),
        Op::Call(m) => format!("call {}", program.method(m).qualified_name(program)),
        Op::CallVirtual { class, slot } => {
            let m = program.class(class).vtable[slot as usize];
            format!(
                "callvirtual {}.{} [slot {slot}]",
                program.class(class).name,
                program.method(m).name
            )
        }
        Op::Ret => "ret".into(),
        Op::RetVal => "retval".into(),
        Op::MonitorEnter => "monitorenter".into(),
        Op::MonitorExit => "monitorexit".into(),
        Op::Wait => "wait".into(),
        Op::TimedWait => "timedwait".into(),
        Op::Notify => "notify".into(),
        Op::NotifyAll => "notifyall".into(),
        Op::Spawn { method, nargs } => format!(
            "spawn {} ({nargs} args)",
            program.method(method).qualified_name(program)
        ),
        Op::Join => "join".into(),
        Op::Interrupt => "interrupt".into(),
        Op::YieldNow => "yield".into(),
        Op::Sleep => "sleep".into(),
        Op::CurrentThread => "currentthread".into(),
        Op::Now => "now".into(),
        Op::NativeCall { native, nargs } => format!(
            "nativecall {} ({nargs} args)",
            program.natives[native as usize].name
        ),
        Op::Print => "print".into(),
        Op::PrintStr(s) => format!("printstr {:?}", program.strings[s as usize]),
        Op::Halt => "halt".into(),
    }
}

fn ty_str(ty: Ty) -> &'static str {
    match ty {
        Ty::Int => "int",
        Ty::Ref => "ref",
    }
}

/// Disassemble a whole method. Yield points (backedges) are marked `*`,
/// and each line shows `pc | source line | instruction`.
pub fn disassemble(program: &Program, method: MethodId) -> String {
    let m = program.method(method);
    let cm = program.compiled(method);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "method {} (args {}, locals {}, max stack {}, frame {} words)",
        m.qualified_name(program),
        m.nargs,
        m.nlocals,
        cm.max_stack,
        cm.frame_words
    );
    for (pc, &op) in m.ops.iter().enumerate() {
        let marker = if cm.backedge.get(pc) { "*" } else { " " };
        let depth = cm.ref_maps[pc]
            .as_ref()
            .map(|r| r.stack_depth.to_string())
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "  {marker}{pc:4}  L{:<4} [{depth:>2}]  {}",
            m.lines[pc],
            render_op(program, op)
        );
    }
    out
}

/// Disassemble every method of the program.
pub fn disassemble_all(program: &Program) -> String {
    (0..program.methods.len() as MethodId)
        .map(|m| disassemble(program, m))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Render a total micro-op of the quickened stream.
fn render_pure(p: Pure) -> String {
    match p {
        Pure::Const(v) => format!("q.const {v}"),
        Pure::Load(i) => format!("q.load l{i}"),
        Pure::Store(i) => format!("q.store l{i}"),
        Pure::Dup => "q.dup".into(),
        Pure::Pop => "q.pop".into(),
        Pure::Swap => "q.swap".into(),
        Pure::Neg => "q.neg".into(),
        Pure::RefEq => "q.refeq".into(),
        Pure::Alu(f) => format!("q.alu {f:?}"),
        Pure::Cmp(f) => format!("q.cmp {f:?}"),
        Pure::ConstStore { v, local } => format!("q.const+store {v} -> l{local}"),
        Pure::LoadLoadAlu { a, b, f } => format!("q.load+load+alu l{a}, l{b}, {f:?}"),
        Pure::LoadConstAlu { a, v, f } => format!("q.load+const+alu l{a}, {v}, {f:?}"),
    }
}

/// Render a branch test with the direction of the branch it feeds.
fn render_test(test: Test, jump_if: bool) -> String {
    let dir = if jump_if { "ifnz" } else { "ifz" };
    match test {
        Test::Top => dir.to_string(),
        Test::Cmp(f) => format!("cmp+{dir} {f:?}"),
        Test::LoadConstCmp { a, v, f } => format!("load+const+cmp+{dir} l{a}, {v}, {f:?}"),
    }
}

/// Render one quickened op. Superinstructions show their mnemonic and the
/// constituent source ops they replace come from the caller (see
/// [`disassemble_quickened`]).
pub fn render_qop(program: &Program, q: QOp) -> String {
    let be = |backedge: bool| if backedge { " [backedge]" } else { "" };
    match q {
        QOp::Gen(op) => render_op(program, op),
        QOp::Pure(p) => render_pure(p),
        QOp::Goto { target, backedge } => format!("q.goto @{target}{}", be(backedge)),
        QOp::Branch {
            test,
            jump_if,
            target,
            backedge,
        } => format!("q.{} @{target}{}", render_test(test, jump_if), be(backedge)),
        QOp::CallMono {
            class,
            callee,
            nargs,
        } => format!(
            "q.callmono {}.{} ({nargs} args)",
            program.class(class).name,
            program.method(callee).name
        ),
        QOp::Partial(p) => format!("q.{}", render_op(program, p.op())),
        QOp::Now => format!("q.{}", render_op(program, Op::Now)),
        QOp::NativeCall { native, nargs } => {
            format!("q.{}", render_op(program, Op::NativeCall { native, nargs }))
        }
    }
}

/// Disassemble a method's *quickened* stream. Fusion heads print their pc
/// range and the constituent source ops they replace; interior pcs of a
/// fusion are indented under the head (they remain valid resume points —
/// the interpreter may land on them after a mid-fusion timer split).
pub fn disassemble_quickened(program: &Program, method: MethodId) -> String {
    let m = program.method(method);
    let cm = program.compiled(method);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "method {} (quickened, {} qops)",
        m.qualified_name(program),
        cm.qops.len()
    );
    let mut fused_until = 0usize;
    for (pc, &q) in cm.qops.iter().enumerate() {
        let w = q.width() as usize;
        if w > 1 {
            let last = pc + w - 1;
            let constituents = m.ops[pc..=last]
                .iter()
                .map(|&op| render_op(program, op))
                .collect::<Vec<_>>()
                .join("; ");
            let _ = writeln!(
                out,
                "  {pc:4}..{last:<4}  {:40} <= {constituents}",
                render_qop(program, q)
            );
            fused_until = last;
        } else if pc <= fused_until && pc > 0 {
            // Interior resume point of the fusion above.
            let _ = writeln!(out, "       .{pc:<4}  {}", render_qop(program, q));
        } else {
            let _ = writeln!(out, "  {pc:4}        {}", render_qop(program, q));
        }
    }
    out
}

/// Quickened disassembly of every method.
pub fn disassemble_quickened_all(program: &Program) -> String {
    (0..program.methods.len() as MethodId)
        .map(|m| disassemble_quickened(program, m))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Disassemble the tier-2 closed forms a method's loops *would* compile
/// to. The listing is static (closed forms are read off the quickened
/// stream, not from runtime state), so it shows every loop head: a closed
/// one with its induction, guard, other locals and width; any other with
/// `stays tier 1`.
pub fn disassemble_mega(program: &Program, method: MethodId) -> String {
    let m = program.method(method);
    let cm = program.compiled(method);
    let heads = crate::compile::loop_heads(cm);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "method {} (tier-2, {} loop head{})",
        m.qualified_name(program),
        heads.len(),
        if heads.len() == 1 { "" } else { "s" }
    );
    for head in heads {
        let Some(cl) = crate::compile::compile_loop(program, method, head) else {
            let _ = writeln!(out, "  loop @{head}: stays tier 1");
            continue;
        };
        let accs: String = cl
            .accs
            .iter()
            .map(|(l, c)| format!(", l{l} += {c}"))
            .collect();
        let _ = writeln!(
            out,
            "  loop @{head}: closed form: l{} += {} while {:?}(l{}, {}) != {}{accs} \
             [guard at {}, {} cycles a pass]",
            cl.local,
            cl.step,
            cl.f,
            cl.local,
            cl.bound,
            cl.exit_if,
            if cl.eval_offset == 0 { "head" } else { "tail" },
            cl.width
        );
    }
    out
}

/// Tier-2 disassembly of every method that has at least one loop head.
pub fn disassemble_mega_all(program: &Program) -> String {
    (0..program.methods.len() as MethodId)
        .filter(|&m| !crate::compile::loop_heads(program.compiled(m)).is_empty())
        .map(|m| disassemble_mega(program, m))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn sample() -> Program {
        let mut pb = ProgramBuilder::new();
        let g = pb.class("G").static_field("x", Ty::Int).build();
        let cls = pb.class("Box").field("v", Ty::Ref).build();
        let s = pb.intern("hi");
        let f = pb.func("f", 1, 1).code(|a| {
            a.load(0).ret_val();
        });
        let m = pb.method("main", 0, 2).code(|a| {
            a.line(5).iconst(1).put_static(g, 0);
            a.label("top");
            a.get_static(g, 0).iconst(10).ge().if_nz("done");
            a.new(cls).store(0);
            a.get_static(g, 0).call(f).put_static(g, 0);
            a.print_str(s);
            a.goto("top");
            a.label("done");
            a.halt();
        });
        pb.finish(m).unwrap()
    }

    #[test]
    fn disassembly_resolves_names() {
        let p = sample();
        let text = disassemble(&p, p.entry);
        assert!(text.contains("putstatic G.x"), "{text}");
        assert!(text.contains("new Box"), "{text}");
        assert!(text.contains("call f"), "{text}");
        assert!(text.contains("printstr \"hi\""), "{text}");
        assert!(text.contains("halt"), "{text}");
    }

    #[test]
    fn yield_points_are_marked() {
        let p = sample();
        let text = disassemble(&p, p.entry);
        // the goto back to "top" is a backedge => a line starting with '*'
        assert!(
            text.lines().any(|l| l.trim_start().starts_with('*')),
            "{text}"
        );
    }

    #[test]
    fn source_lines_shown() {
        let p = sample();
        let text = disassemble(&p, p.entry);
        assert!(text.contains("L5"), "{text}");
    }

    #[test]
    fn disassemble_all_covers_builtins() {
        let p = sample();
        let text = disassemble_all(&p);
        assert!(text.contains("sys$flushTrace"));
        assert!(text.contains("VM_Method.getLineNumberAt"));
        assert!(text.contains("sys$lineNumberOf"));
    }

    #[test]
    fn quickened_listing_shows_fusions_with_pc_ranges() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("hot", 0, 1).code(|a| {
            a.iconst(0).store(0);
            a.label("top");
            a.load(0).iconst(5).ge().if_nz("done");
            a.load(0).iconst(1).add().store(0);
            a.goto("top");
            a.label("done");
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        let text = disassemble_quickened(&p, m);
        // Superinstruction heads print their pc range and constituents.
        assert!(text.contains("q.const+store"), "{text}");
        assert!(text.contains("q.load+const+cmp+ifnz"), "{text}");
        assert!(text.contains("<="), "constituents shown: {text}");
        assert!(text.contains("2..5"), "pc range shown: {text}");
        // The backedge goto carries its pre-decoded flag.
        assert!(text.contains("[backedge]"), "{text}");
        assert!(text.contains("(quickened,"), "{text}");
    }

    #[test]
    fn mega_listing_shows_each_loops_closed_form() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("hot", 0, 2).code(|a| {
            a.iconst(0).store(0);
            a.iconst(0).store(1);
            a.label("top");
            a.load(0).iconst(5).ge().if_nz("done");
            a.load(1).iconst(-3).add().store(1);
            a.load(0).iconst(1).add().store(0);
            a.goto("top");
            a.label("done");
            a.label("down");
            a.load(0).iconst(-1).add().store(0);
            a.load(0).iconst(0).gt().if_nz("down");
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        let text = disassemble_mega(&p, m);
        assert_eq!(
            text,
            "method hot (tier-2, 2 loop heads)\n\
             \x20 loop @4: closed form: l0 += 1 while Ge(l0, 5) != true, l1 += -3 \
             [guard at head, 13 cycles a pass]\n\
             \x20 loop @17: closed form: l0 += -1 while Gt(l0, 0) != false \
             [guard at tail, 8 cycles a pass]\n"
        );
    }

    #[test]
    fn mega_listing_flags_loops_that_stay_tier_1() {
        let mut pb = ProgramBuilder::new();
        // The loop body allocates, so it has no closed form.
        let cls = pb.class("Box").field("v", Ty::Int).build();
        let m = pb.method("alloc_loop", 0, 1).code(|a| {
            a.iconst(0).store(0);
            a.label("top");
            a.load(0).iconst(5).ge().if_nz("done");
            a.new(cls).pop();
            a.load(0).iconst(1).add().store(0);
            a.goto("top");
            a.label("done");
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        let text = disassemble_mega(&p, m);
        assert!(text.contains("loop @2: stays tier 1"), "{text}");
    }

    #[test]
    fn quickened_all_renders_every_method() {
        let p = sample();
        let text = disassemble_quickened_all(&p);
        for m in &p.methods {
            assert!(text.contains(&m.name), "missing {}", m.name);
        }
    }

    #[test]
    fn every_op_renders() {
        // smoke: render_op must not panic for the ops reachable in builtins
        let p = sample();
        for m in &p.methods {
            for &op in &m.ops {
                let s = render_op(&p, op);
                assert!(!s.is_empty());
            }
        }
        // Every shared micro-op renders, and no two of them render alike.
        let (f, c) = (crate::compile::AluFn::Add, crate::compile::CmpFn::Lt);
        let pures = [
            Pure::Const(1),
            Pure::Load(1),
            Pure::Store(1),
            Pure::Dup,
            Pure::Pop,
            Pure::Swap,
            Pure::Neg,
            Pure::RefEq,
            Pure::Alu(f),
            Pure::Cmp(c),
            Pure::ConstStore { v: 1, local: 1 },
            Pure::LoadLoadAlu { a: 1, b: 2, f },
            Pure::LoadConstAlu { a: 1, v: 2, f },
        ];
        let mut seen = std::collections::BTreeSet::new();
        for pure in pures {
            let q = render_qop(&p, QOp::Pure(pure));
            assert!(q.starts_with("q.") && q.len() > 2);
            assert!(seen.insert(q), "{pure:?} renders like another op");
        }
        // Every test renders, spelled as before the tiers shared one `Test`.
        let lcc = Test::LoadConstCmp { a: 0, v: 5, f: c };
        let branch = |test, jump_if, backedge| {
            let q = QOp::Branch {
                test,
                jump_if,
                target: 7,
                backedge,
            };
            render_qop(&p, q)
        };
        for (got, want) in [
            (branch(Test::Top, true, true), "q.ifnz @7 [backedge]"),
            (branch(Test::Cmp(c), false, false), "q.cmp+ifz Lt @7"),
            (
                branch(lcc, true, true),
                "q.load+const+cmp+ifnz l0, 5, Lt @7 [backedge]",
            ),
        ] {
            assert_eq!(got, want);
        }
    }
}
