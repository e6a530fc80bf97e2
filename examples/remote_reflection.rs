//! The paper's Figure 3, live: `Debugger.lineNumberOf` executed by a tool
//! against the application VM's address space — in process, then over
//! TCP against a replay a fleet server hosts, across processes' worth of
//! separation — while the application VM executes nothing.
//!
//! ```sh
//! cargo run --example remote_reflection
//! ```

use debugger::{Command, Response};
use djvm::{interp, CycleClock, FixedTimer, Passthrough, ProgramBuilder, Ty, Vm, VmConfig};
use fleet::{spec_for, FleetClient, FleetConfig, FleetMemory, FleetServer, Request};
use reflect::{mirror, CountingMemory, LocalVmMemory, ProcessMemory, RemoteReflector};
use std::sync::Arc;

fn main() {
    // The "application": builds a little object graph, then halts.
    let mut pb = ProgramBuilder::new();
    let g = pb.class("G").static_field("head", Ty::Ref).build();
    let node = pb
        .class("Node")
        .field("value", Ty::Int)
        .field("next", Ty::Ref)
        .build();
    let m = pb.method("main", 0, 2).code(|a| {
        a.line(10).null().store(0);
        a.line(11).iconst(0).store(1);
        a.label("top");
        a.line(12).load(1).iconst(4).ge().if_nz("done");
        a.line(13).new(node).dup().load(1).put_field(0);
        a.line(14).dup().load(0).put_field_ref(1).store(0);
        a.line(15).load(1).iconst(1).add().store(1);
        a.goto("top");
        a.label("done");
        a.line(16).load(0).put_static(g, 0);
        a.line(17).halt();
    });
    let program = Arc::new(pb.finish(m).unwrap());

    let mut vm = Vm::boot(
        Arc::clone(&program),
        VmConfig::default(),
        Box::new(FixedTimer::new(1 << 20)),
        Box::new(CycleClock::new(0, 100)),
    )
    .unwrap();
    let mut hook = Passthrough;
    interp::run(&mut vm, &mut hook, 1_000_000);
    println!("application VM halted; heap holds a 4-node list\n");

    // -- In-process "ptrace": the Figure-3 query --------------------------
    println!("== Figure 3: lineNumberOf over LocalVmMemory ==");
    {
        let mem = LocalVmMemory::new(&vm);
        let mut refl = RemoteReflector::new(Arc::clone(&program), &mem);
        refl.map_boot_method_table(vm.boot_image.method_table);
        for offset in [0u32, 5, 9, 14] {
            let line = refl.line_number_of(program.entry, offset).unwrap();
            println!("  main @ bytecode {offset} -> source line {line}");
        }

        // Walk the remote object graph with mirrors.
        let gobj = vm.class_objects[program.class_id_by_name("G").unwrap() as usize].unwrap();
        let mut cur = mem.read_word(gobj + 1).unwrap();
        println!("\n  remote list walk:");
        while cur != 0 {
            println!("    {}", mirror::describe(&mem, &program, cur));
            cur = mem.read_word(cur + 2).unwrap(); // .next
        }
    }

    // -- The same query over TCP: a fleet server (the remote process)
    //    hosts a replay paused mid-run; the tool here reads its memory
    //    word by word over the fleet frame and runs the reflection methods
    //    itself. The server executes nothing on the tool's behalf. -------
    println!("\n== the same query against a fleet-hosted replay, over TCP ==");
    let server = FleetServer::start("127.0.0.1:0", FleetConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let mut gui = FleetClient::connect(&addr).unwrap();
    let session = gui.open("racy_counter", 7).unwrap();
    gui.call(&Request::Record { session }).unwrap();
    gui.debug(session, &Command::Seek { step: 400 }).unwrap();
    // The tool loads the same boot image as the application (§3.3): the
    // program, and the one address it must know a priori.
    let racy_counter = workloads::registry().into_iter().find(|w| w.name == "racy_counter");
    let spec = spec_for(&racy_counter.unwrap(), 7);
    let tool = FleetClient::connect(&addr).unwrap();
    let mem = CountingMemory::new(FleetMemory::new(tool, session));
    let mut refl = RemoteReflector::new(Arc::clone(&spec.program), &mem);
    refl.map_boot_method_table(spec.replay_vm().boot_image.method_table);
    let Response::Stack { frames } = gui.debug(session, &Command::Stack { tid: 0 }).unwrap() else {
        panic!("expected a stack");
    };
    for f in &frames {
        let line = refl.line_number_of(f.method, f.pc).unwrap();
        println!("  {} @ bytecode {} -> source line {line}", f.method_name, f.pc);
        assert_eq!(line, f.line, "the server's own stack command disagrees");
    }
    println!("  word reads over the wire: {}", mem.reads());
    server.trigger_shutdown();
    server.join();
    println!("\nno application code executed on the tool's behalf. ✓");
}
