//! Typed convenience mirrors over the remote space.
//!
//! §3.3: "For our debugger, however, it proved sufficient to clone the
//! remote objects and the remote arrays of primitives." These helpers do
//! exactly that — materialize tool-local copies of remote strings, arrays,
//! and object field maps for display.
//!
//! A remote reflector reads untrusted memory: any `addr` may be handed in
//! (the debugger's `inspect` takes one off the wire), and the word there
//! need not be a header at all. Every function here answers "not an
//! object" for such a word — `None`, or `<bad address N>` from
//! [`describe`] — and never indexes a program table with what it decoded.

use crate::memory::ProcessMemory;
use djvm::heap::{is_forwarded, Addr, Header};
use djvm::{Program, Ty};

/// Read the remote object's decoded header; `None` if `addr` is outside
/// the space or holds a forwarding pointer.
pub fn header_of(mem: &dyn ProcessMemory, addr: Addr) -> Option<Header> {
    let w = mem.read_word(addr)?;
    (!is_forwarded(w)).then(|| Header::decode(w))
}

/// [`header_of`], and the class id it names is one `program` defines — the
/// precondition of `Program::class` / `flattened_fields`, which index.
fn object_header(mem: &dyn ProcessMemory, program: &Program, addr: Addr) -> Option<Header> {
    header_of(mem, addr).filter(|h| (h.class_id as usize) < program.classes.len())
}

/// Class name of a remote object (arrays and class objects included).
pub fn class_name(mem: &dyn ProcessMemory, program: &Program, addr: Addr) -> Option<String> {
    let h = object_header(mem, program, addr)?;
    if h.is_stack {
        return Some("[stack]".into());
    }
    if h.is_array {
        return Some(if h.ref_elems { "Object[]" } else { "int[]" }.into());
    }
    let name = &program.class(h.class_id).name;
    Some(if h.is_classobj {
        format!("<class {name}>")
    } else {
        name.clone()
    })
}

/// Clone a remote int array.
pub fn read_int_array(mem: &dyn ProcessMemory, addr: Addr) -> Option<Vec<i64>> {
    let h = header_of(mem, addr)?;
    if !h.is_array || h.ref_elems || h.is_stack {
        return None;
    }
    let len = mem.read_word(addr + 1)? as usize;
    (0..len)
        .map(|i| mem.read_word(addr + 2 + i as u64).map(|w| w as i64))
        .collect()
}

/// Clone a remote String object (builtin `String { chars }` layout).
pub fn read_string(mem: &dyn ProcessMemory, program: &Program, addr: Addr) -> Option<String> {
    let h = header_of(mem, addr)?;
    if h.is_array || h.class_id != program.builtins.string_class {
        return None;
    }
    let chars = mem.read_word(addr + 1)?;
    let bytes: Vec<u8> = read_int_array(mem, chars)?
        .into_iter()
        .map(|v| v as u8)
        .collect();
    String::from_utf8(bytes).ok()
}

/// A cloned view of one remote scalar object: `(field name, rendered value)`.
pub fn read_fields(
    mem: &dyn ProcessMemory,
    program: &Program,
    addr: Addr,
) -> Option<Vec<(String, String)>> {
    let h = object_header(mem, program, addr)?;
    if h.is_array || h.is_stack {
        return None;
    }
    let decls = program.slot_decls(h.class_id, h.is_classobj);
    let mut out = Vec::with_capacity(decls.len());
    for (i, d) in decls.iter().enumerate() {
        let raw = mem.read_word(addr + 1 + i as u64)?;
        let rendered = match d.ty {
            Ty::Int => format!("{}", raw as i64),
            Ty::Ref => {
                if raw == 0 {
                    "null".to_string()
                } else {
                    let cname = class_name(mem, program, raw).unwrap_or_else(|| "?".into());
                    format!("{cname}@{raw}")
                }
            }
        };
        out.push((d.name.clone(), rendered));
    }
    Some(out)
}

/// Render a one-line description of any remote object.
pub fn describe(mem: &dyn ProcessMemory, program: &Program, addr: Addr) -> String {
    if addr == 0 {
        return "null".into();
    }
    let Some(h) = object_header(mem, program, addr) else {
        return format!("<bad address {addr}>");
    };
    let name = class_name(mem, program, addr).unwrap_or_else(|| "?".into());
    if h.is_array {
        let len = mem.read_word(addr + 1).unwrap_or(0);
        format!("{name}(len={len})@{addr} #{}", h.serial)
    } else if let Some(s) = read_string(mem, program, addr) {
        format!("String({s:?})@{addr} #{}", h.serial)
    } else {
        let fields = read_fields(mem, program, addr)
            .map(|fs| {
                fs.iter()
                    .map(|(n, v)| format!("{n}={v}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            })
            .unwrap_or_default();
        format!("{name}{{{fields}}}@{addr} #{}", h.serial)
    }
}
