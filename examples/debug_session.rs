//! A full perturbation-free debugging session (paper §4 / Fig. 4): record
//! a racy execution, then debug the *recording* — breakpoints, stepping
//! (forward and backward), stack traces with reflective line numbers, the
//! thread viewer — through the three-tier TCP architecture (application
//! VM / fleet server / fleet client).
//!
//! ```sh
//! cargo run --example debug_session
//! ```

use debugger::{Command, Response};
use dejavu::{record_run, SymmetryConfig};
use fleet::{spec_for, FleetClient, FleetConfig, FleetServer, Request};

fn main() {
    // Tier 0: the application, recorded locally as the ground truth.
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name == "producer_consumer")
        .unwrap();
    let spec = spec_for(&w, 6);
    let (rec, _) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
    println!("recorded execution: output {:?}\n", rec.output.trim());
    let consumer = spec.program.method_id_by_name("consumer").unwrap();

    // Tier 1: the fleet server hosts the replaying debugger session.
    let server = FleetServer::start("127.0.0.1:0", FleetConfig::default()).unwrap();

    // Tier 2: the "GUI" (a fleet client) connects over TCP, has the
    // server record the same run, and debugs the recording.
    let mut client = FleetClient::connect(&server.addr().to_string()).unwrap();
    let id = client.open("producer_consumer", 6).unwrap();
    client.call(&Request::Record { session: id }).unwrap();
    let mut ask = |cmd: Command| client.debug(id, &cmd).unwrap();

    println!("== set a breakpoint at consumer:0 and continue ==");
    ask(Command::Break {
        method: consumer,
        pc: 0,
    });
    let r = ask(Command::Continue);
    println!("  {r:?}");

    println!("\n== thread viewer ==");
    if let Response::Threads { threads } = ask(Command::Threads) {
        for t in &threads {
            println!(
                "  t{} {:12} {:18} pc={} yp={}",
                t.tid, t.name, t.status, t.pc, t.yield_points
            );
        }
        let running = threads.iter().find(|t| t.status == "running").unwrap().tid;
        println!("\n== stack trace of the running thread (lines via remote reflection) ==");
        if let Response::Stack { frames } = ask(Command::Stack { tid: running }) {
            for f in &frames {
                println!("  {}:{} (pc {}) {}", f.method_name, f.line, f.pc, f.op);
            }
        }
    }

    println!("\n== step forward 3, then step BACK 2 (checkpoint time travel) ==");
    for _ in 0..3 {
        let r = ask(Command::Step);
        if let Response::Stopped { step, .. } = r {
            print!(" -> {step}");
        }
    }
    for _ in 0..2 {
        let r = ask(Command::StepBack);
        if let Response::Stopped { step, .. } = r {
            print!(" <- {step}");
        }
    }
    println!();

    println!("\n== clear the breakpoint, run to completion ==");
    ask(Command::ClearBreak {
        method: consumer,
        pc: 0,
    });
    let r = ask(Command::Continue);
    println!("  {r:?}");
    if let Response::Output { text } = ask(Command::Output) {
        println!("  replayed output: {:?}", text.trim());
        assert_eq!(text, rec.output, "debugging did not perturb the replay");
        println!("  identical to the recorded output ✓");
    }
    server.trigger_shutdown();
    server.join();
}
