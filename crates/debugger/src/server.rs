//! The debugger tier's command semantics: [`handle`] is the one
//! definition of what each [`Command`] does to a [`DebugSession`].
//! Transport lives in the fleet tier (`fleet::Request::Debug` carries a
//! typed command in the fleet's binary frame; `fleet::FleetClient::debug`
//! is the client).

use crate::engine::DebugSession;
use crate::protocol::{Command, Response};
use djvm::ProcessMemory;

/// The most words one [`Command::Read`] may ask for: bounds the response
/// packet (§4, "small packets of data rather than large images").
pub const MAX_READ_WORDS: u64 = 4096;

/// Execute one command against the session.
pub fn handle(session: &mut DebugSession, cmd: Command) -> Response {
    match cmd {
        Command::Break { method, pc } => {
            session.add_breakpoint(method, pc);
            Response::Ok
        }
        Command::BreakLine { method, line } => match session.resolve_line(&method, line) {
            Some((m, pc)) => {
                session.add_breakpoint(m, pc);
                Response::Ok
            }
            None => Response::Error {
                message: format!("no such location {method}:{line}"),
            },
        },
        Command::ClearBreak { method, pc } => {
            session.remove_breakpoint(method, pc);
            Response::Ok
        }
        Command::Continue => {
            let reason = session.cont();
            Response::Stopped {
                reason,
                step: session.step_index(),
            }
        }
        Command::Step => {
            let reason = session.step();
            Response::Stopped {
                reason,
                step: session.step_index(),
            }
        }
        Command::StepBack => {
            let reason = session.step_back();
            Response::Stopped {
                reason,
                step: session.step_index(),
            }
        }
        Command::Seek { step } => {
            session.seek(step);
            Response::Stopped {
                reason: crate::engine::StopReason::StepDone,
                step: session.step_index(),
            }
        }
        Command::Stack { tid } if tid as usize >= session.vm().threads.len() => Response::Error {
            message: format!("no such thread {tid}"),
        },
        Command::Stack { tid } => Response::Stack {
            frames: session.stack_trace(tid),
        },
        Command::Threads => Response::Threads {
            threads: session.threads(),
        },
        Command::Inspect { addr } => Response::Object {
            description: session.inspect(addr),
        },
        Command::Disassemble { method } if method as usize >= session.program().methods.len() => {
            Response::Error {
                message: format!("no such method {method}"),
            }
        }
        Command::Disassemble { method } => Response::Listing {
            text: session.disassemble(method),
        },
        Command::Output => Response::Output {
            text: session.output(),
        },
        Command::Where => {
            let vm = session.vm();
            let t = vm.current_thread();
            let (method, pc) = (t.method, t.pc);
            let name = session
                .program()
                .method(method)
                .qualified_name(session.program());
            let frames = session.stack_trace(vm.sched.current);
            let line = frames.first().map(|f| f.line).unwrap_or(-1);
            Response::Location {
                method: name,
                pc,
                line,
                step: session.step_index(),
            }
        }
        Command::Metrics => Response::Metrics {
            json: session.metrics_json(),
        },
        Command::Profile { top } => match session.profile_json(top) {
            Ok(json) => Response::Profile { json },
            Err(message) => Response::Error { message },
        },
        Command::Read { n, .. } if n > MAX_READ_WORDS => Response::Error {
            message: format!("read of {n} words is past the cap of {MAX_READ_WORDS}"),
        },
        Command::Read { addr, n } => {
            let heap = &session.vm().heap;
            Response::Words {
                words: (0..n)
                    .map_while(|i| heap.read_word(addr.checked_add(i)?))
                    .collect(),
            }
        }
    }
}
