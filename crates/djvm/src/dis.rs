//! Disassembler: human-readable listings of guest methods, annotated with
//! the baseline compiler's metadata (yield points, reference maps, source
//! lines). Used by the debugger's source/instruction view (paper §4: "a
//! view of the executing method's Java source and machine instructions").

use crate::bytecode::{Op, Ty};
use crate::compile::{MegaOp, Pure, QOp, Test};
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

/// Render a total micro-op behind its tier prefix (`q.` / `m.`): the
/// quickened and tier-2 listings spell the shared ops identically.
fn render_pure(tier: &str, p: Pure) -> String {
    match p {
        Pure::Const(v) => format!("{tier}const {v}"),
        Pure::Load(i) => format!("{tier}load l{i}"),
        Pure::Store(i) => format!("{tier}store l{i}"),
        Pure::Dup => format!("{tier}dup"),
        Pure::Pop => format!("{tier}pop"),
        Pure::Swap => format!("{tier}swap"),
        Pure::Neg => format!("{tier}neg"),
        Pure::RefEq => format!("{tier}refeq"),
        Pure::Alu(f) => format!("{tier}alu {f:?}"),
        Pure::Cmp(f) => format!("{tier}cmp {f:?}"),
        Pure::ConstStore { v, local } => format!("{tier}const+store {v} -> l{local}"),
        Pure::LoadLoadAlu { a, b, f } => format!("{tier}load+load+alu l{a}, l{b}, {f:?}"),
        Pure::LoadConstAlu { a, v, f } => format!("{tier}load+const+alu l{a}, {v}, {f:?}"),
    }
}

/// Render a branch test with the direction of the branch it feeds. A bare
/// `Test::Top` is padded to `pad` columns so the tier-2 guard annotations
/// line up.
fn render_test(test: Test, jump_if: bool, pad: usize) -> String {
    let dir = if jump_if { "ifnz" } else { "ifz" };
    match test {
        Test::Top => format!("{dir:pad$}"),
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
        QOp::Pure(p) => render_pure("q.", p),
        QOp::Goto { target, backedge } => format!("q.goto @{target}{}", be(backedge)),
        QOp::Branch {
            test,
            jump_if,
            target,
            backedge,
        } => format!(
            "q.{} @{target}{}",
            render_test(test, jump_if, 0),
            be(backedge)
        ),
        QOp::CallMono {
            class,
            callee,
            nargs,
        } => format!(
            "q.callmono {}.{} ({nargs} args)",
            program.class(class).name,
            program.method(callee).name
        ),
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

/// Render one megablock micro-op. Guarded ops state the condition that
/// side-exits to the quickened tier; the `^` marks how far the call
/// inliner descended.
pub fn render_mega_op(program: &Program, op: MegaOp) -> String {
    match op {
        MegaOp::Pure(p) => render_pure("m.", p),
        MegaOp::Jump => "m.jump (forward goto, folded into step order)".into(),
        MegaOp::Div => "m.div                      [guard: divisor != 0]".into(),
        MegaOp::Rem => "m.rem                      [guard: divisor != 0]".into(),
        MegaOp::Guard { test, jump_if } => format!(
            "m.fallthrough.{} [guard: branch not taken]",
            render_test(test, jump_if, 18)
        ),
        MegaOp::Call {
            class,
            callee,
            nargs,
        } => format!(
            "m.call.inlined {}.{} ({nargs} args) [guard: receiver is {}]",
            program.class(class).name,
            program.method(callee).name,
            program.class(class).name
        ),
        MegaOp::Ret { has_val } => {
            format!("m.ret{} (inlined return)", if has_val { "val" } else { "" })
        }
        MegaOp::BackGoto => "m.backedge goto -> head".into(),
        MegaOp::Back { test, jump_if } => format!(
            "m.backedge.{} [guard: branch taken]",
            render_test(test, jump_if, 21)
        ),
    }
}

/// Disassemble the tier-2 megablocks a method's loops *would* compile to.
/// The listing is static (blocks are built from the quickened stream, not
/// from runtime state), so it shows every candidate loop head: compiled
/// ones with their guard list, constituent pc ranges and side-exit table;
/// rejected ones with a `not traceable` note.
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
        match crate::compile::compile_loop(program, method, head) {
            None => {
                let _ = writeln!(out, "  loop @{head}: not traceable (stays quickened)");
            }
            Some(b) => {
                let _ = writeln!(
                    out,
                    "  loop @{head}: megablock — {} steps, width {} cycles, {} yield point{}, {} guard{}",
                    b.steps.len(),
                    b.width,
                    b.yields,
                    if b.yields == 1 { "" } else { "s" },
                    b.guards,
                    if b.guards == 1 { "" } else { "s" }
                );
                if let Some(cl) = b.closed {
                    let _ = writeln!(
                        out,
                        "    closed form: l{} += {} while {:?}(l{}, {}) != {}",
                        cl.local, cl.step, cl.f, cl.local, cl.bound, cl.exit_if
                    );
                }
                let mut guard_ix = 0u32;
                let mut exits: Vec<(u32, u32, MethodId)> = Vec::new();
                for s in &b.steps {
                    let caret = "^".repeat(s.depth as usize + 1);
                    let range = if s.width > 1 {
                        format!("{}..{}", s.pc, s.pc + s.width - 1)
                    } else {
                        format!("{}", s.pc)
                    };
                    let gtag = if s.op.is_guard() {
                        exits.push((guard_ix, s.pc, s.method));
                        let t = format!("g{guard_ix} ");
                        guard_ix += 1;
                        t
                    } else {
                        "   ".into()
                    };
                    let _ = writeln!(
                        out,
                        "    {gtag}{caret:>3} {range:>9}  {}",
                        render_mega_op(program, s.op)
                    );
                }
                if exits.is_empty() {
                    let _ = writeln!(out, "    side exits: none");
                } else {
                    let _ = writeln!(out, "    side exits (deopt to quickened, pre-step):");
                    for (g, pc, meth) in exits {
                        let _ = writeln!(
                            out,
                            "      g{g} -> {}@{pc}",
                            program.method(meth).qualified_name(program)
                        );
                    }
                }
            }
        }
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
    fn mega_listing_shows_guards_and_side_exits() {
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
        let text = disassemble_mega(&p, m);
        assert!(text.contains("megablock"), "{text}");
        assert!(text.contains("g0"), "guard ordinals shown: {text}");
        assert!(text.contains("side exits"), "{text}");
        assert!(text.contains("m.backedge goto"), "{text}");
        assert!(
            text.contains("[guard: branch not taken]"),
            "exit condition shown: {text}"
        );
        assert!(text.contains("2..5"), "constituent pc ranges shown: {text}");
        // The canonical counting loop also prints its closed form.
        assert!(
            text.contains("closed form: l0 += 1 while Ge(l0, 5) != true"),
            "closed form shown: {text}"
        );
    }

    #[test]
    fn mega_listing_flags_untraceable_loops() {
        let mut pb = ProgramBuilder::new();
        // The loop body allocates — New is not traceable, so the loop
        // head must be listed as rejected.
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
        assert!(text.contains("not traceable"), "{text}");
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
        // Every shared micro-op renders, identically behind either tier
        // prefix, and no two of them render alike.
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
            let (q, m) = (
                render_qop(&p, QOp::Pure(pure)),
                render_mega_op(&p, MegaOp::Pure(pure)),
            );
            assert!(q.starts_with("q.") && m.starts_with("m.") && q.len() > 2);
            assert_eq!(q[2..], m[2..]);
            assert!(seen.insert(q), "{pure:?} renders like another op");
        }
        // Every test renders in all three positions, spelled as before the
        // tiers shared one `Test` (bare tests pad to the guard column).
        let lcc = Test::LoadConstCmp { a: 0, v: 5, f: c };
        let guard = |test, jump_if| render_mega_op(&p, MegaOp::Guard { test, jump_if });
        let back = |test, jump_if| render_mega_op(&p, MegaOp::Back { test, jump_if });
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
            (
                guard(Test::Top, true),
                "m.fallthrough.ifnz               [guard: branch not taken]",
            ),
            (
                back(Test::Top, false),
                "m.backedge.ifz                   [guard: branch taken]",
            ),
            (
                guard(Test::Cmp(c), true),
                "m.fallthrough.cmp+ifnz Lt [guard: branch not taken]",
            ),
            (
                back(lcc, false),
                "m.backedge.load+const+cmp+ifz l0, 5, Lt [guard: branch taken]",
            ),
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
