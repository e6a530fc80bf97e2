//! The four execution examples of the paper's **Figure 1**.
//!
//! * (A)/(B): the *same* program whose printed value depends purely on
//!   where the preemptive thread switch lands — `print y` yields **8**
//!   when T1's writes complete before T2 reads (A), and **0** when T2 runs
//!   first (B).
//! * (C)/(D): `y = Date()` steers a branch; the true branch executes
//!   `o1.wait()` (causing a deterministic thread switch to T2, which
//!   notifies), the false branch does not — so the wall clock decides the
//!   whole downstream switch structure.

use djvm::{Program, ProgramBuilder, Ty};

/// Figure 1 (A)/(B): switch-timing non-determinism.
///
/// Shared statics `x = 0, y = 0`. The main thread (T1) spawns T2 and then
/// executes `y = 1; x = y * 2` with yield points interleaved; T2 executes
/// `y = x * 2; y = y * 2; print y`. Depending on preemption, the program
/// prints `8` (T1 first — case A) or `0` (T2 first — case B), exactly the
/// two outcomes of the figure (intermediate interleavings can also print
/// `2` or `4`, which the figure's prose elides).
pub fn fig1_ab() -> Program {
    let mut pb = ProgramBuilder::new();
    let g = pb
        .class("G")
        .static_field("x", Ty::Int)
        .static_field("y", Ty::Int)
        .build();
    // T2: y = x * 2; y = y * 2; print y;
    let t2 = pb.method("t2", 0, 1).code(|a| {
        a.line(10).get_static(g, 0).iconst(2).mul().put_static(g, 1);
        // a delay loop so T2's two statements can be separated by a switch
        a.iconst(0).store(0);
        a.label("d");
        a.load(0).iconst(2).ge().if_nz("dd");
        a.load(0).iconst(1).add().store(0);
        a.goto("d");
        a.label("dd");
        a.line(11).get_static(g, 1).iconst(2).mul().put_static(g, 1);
        a.line(12).get_static(g, 1).print();
        a.ret();
    });
    // T1 (main): spawn T2, then y = 1; x = y * 2; join.
    let m = pb.method("main", 0, 2).code(|a| {
        a.line(1).iconst(0).put_static(g, 0);
        a.line(2).iconst(0).put_static(g, 1);
        a.line(3).spawn(t2, 0).store(0);
        // delay loop: gives the timer a chance to preempt T1 mid-sequence
        a.iconst(0).store(1);
        a.label("d");
        a.load(1).iconst(2).ge().if_nz("dd");
        a.load(1).iconst(1).add().store(1);
        a.goto("d");
        a.label("dd");
        a.line(4).iconst(1).put_static(g, 1); // y = 1
        a.line(5).get_static(g, 1).iconst(2).mul().put_static(g, 0); // x = y*2
        a.line(6).load(0).join();
        a.halt();
    });
    pb.finish(m).unwrap()
}

/// Figure 1 (A)/(B) scaled up: the same two-thread shared-static shape,
/// with the delay loops' trip count raised from 2 to `delay` so the
/// interpreter hot loop dominates. This is the steps/sec body of the
/// dispatch-tier comparisons (the benchmark's `compute_hot`): the loop
/// is exactly the fusible pattern mix (`Load+Const+Cmp+If`,
/// `Load+Const+Alu`, `Const+Store`, `Goto`) the quickening pass targets.
pub fn fig1_ab_scaled(delay: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let g = pb
        .class("G")
        .static_field("x", Ty::Int)
        .static_field("y", Ty::Int)
        .build();
    let t2 = pb.method("t2", 0, 1).code(|a| {
        a.line(10).get_static(g, 0).iconst(2).mul().put_static(g, 1);
        a.iconst(0).store(0);
        a.label("d");
        a.load(0).iconst(delay).ge().if_nz("dd");
        a.load(0).iconst(1).add().store(0);
        a.goto("d");
        a.label("dd");
        a.line(11).get_static(g, 1).iconst(2).mul().put_static(g, 1);
        a.line(12).get_static(g, 1).print();
        a.ret();
    });
    let m = pb.method("main", 0, 2).code(|a| {
        a.line(1).iconst(0).put_static(g, 0);
        a.line(2).iconst(0).put_static(g, 1);
        a.line(3).spawn(t2, 0).store(0);
        a.iconst(0).store(1);
        a.label("d");
        a.load(1).iconst(delay).ge().if_nz("dd");
        a.load(1).iconst(1).add().store(1);
        a.goto("d");
        a.label("dd");
        a.line(4).iconst(1).put_static(g, 1);
        a.line(5).get_static(g, 1).iconst(2).mul().put_static(g, 0);
        a.line(6).load(0).join();
        a.halt();
    });
    pb.finish(m).unwrap()
}

/// Figure 1 (C)/(D): wall-clock-dependent branch deciding a wait/notify
/// switch.
///
/// `y = Date() % 30; if (y < 15) o1.wait();` — T2 sets `y = x + 100` and
/// notifies. Afterwards `y = y * 2; print y`. The program prints whether
/// the wait branch was taken (1 = case C, 0 = case D) and then `y` — the
/// clock value decides the entire downstream switch structure.
pub fn fig1_cd() -> Program {
    let mut pb = ProgramBuilder::new();
    let g = pb
        .class("G")
        .static_field("o1", Ty::Ref)
        .static_field("x", Ty::Int)
        .static_field("y", Ty::Int)
        .static_field("tookWait", Ty::Int)
        .build();
    let lock_cls = pb.class("Object").build();
    // T2: y = x + 100; o1.notify();
    let t2 = pb.method("t2", 0, 0).code(|a| {
        a.line(20).get_static(g, 0).monitor_enter();
        a.line(21)
            .get_static(g, 1)
            .iconst(100)
            .add()
            .put_static(g, 2);
        a.line(22).get_static(g, 0).notify();
        a.get_static(g, 0).monitor_exit();
        a.ret();
    });
    let m = pb.method("main", 0, 1).code(|a| {
        a.line(1).new(lock_cls).put_static(g, 0);
        a.line(2).iconst(3).put_static(g, 1); // x = 3
        a.line(3).now().iconst(30).rem().put_static(g, 2); // y = Date() % 30
        a.line(4).spawn(t2, 0).store(0);
        a.line(5).get_static(g, 0).monitor_enter();
        a.get_static(g, 2).iconst(15).lt().if_z("no_wait");
        a.iconst(1).put_static(g, 3); // record: the wait branch was taken
        a.line(6).get_static(g, 0).wait().pop(); // o1.wait()
        a.label("no_wait");
        a.get_static(g, 0).monitor_exit();
        a.line(7).load(0).join();
        a.line(8).get_static(g, 2).iconst(2).mul().put_static(g, 2); // y = y*2
        a.line(9).get_static(g, 3).print(); // 1 = case (C), 0 = case (D)
        a.get_static(g, 2).print();
        a.halt();
    });
    pb.finish(m).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_programs_verify() {
        let a = fig1_ab();
        let c = fig1_cd();
        assert!(a.methods.iter().all(|m| m.compiled.is_some()));
        assert!(c.methods.iter().all(|m| m.compiled.is_some()));
    }

    #[test]
    fn fig1_ab_has_line_numbers_for_reflection() {
        let p = fig1_ab();
        let main = p.method(p.entry);
        assert!(main.lines.contains(&4) && main.lines.contains(&5));
    }
}
