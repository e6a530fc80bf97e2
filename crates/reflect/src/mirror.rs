//! Typed convenience mirrors over the remote space.
//!
//! §3.3: "For our debugger, however, it proved sufficient to clone the
//! remote objects and the remote arrays of primitives." These helpers do
//! exactly that — materialize tool-local copies of remote strings, arrays,
//! and object field maps for display.
//!
//! A remote reflector reads untrusted memory: any `addr` may be handed in
//! (the debugger's `inspect` takes one off the wire), and the word there
//! need not be a header at all. Every function here reads through
//! `djvm::objref`, the reference reads the application VM itself uses, and
//! answers "not an object" for such a word — `None`, or `<bad address N>`
//! from [`describe`].

use djvm::heap::Addr;
use djvm::objref::{self, ProcessMemory};
use djvm::{Program, Ty};

/// Class name of a remote object (arrays and class objects included).
pub fn class_name(mem: &dyn ProcessMemory, program: &Program, addr: Addr) -> Option<String> {
    let h = objref::object(mem, program, addr).ok()?;
    let name = || program.class(h.class_id).name.clone();
    Some(match h {
        _ if h.is_stack => "[stack]".into(),
        _ if h.is_array && h.ref_elems => "Object[]".into(),
        _ if h.is_array => "int[]".into(),
        _ if h.is_classobj => format!("<class {}>", name()),
        _ => name(),
    })
}

/// Clone a remote int array.
pub fn read_int_array(mem: &dyn ProcessMemory, addr: Addr) -> Option<Vec<i64>> {
    let (h, elems) = objref::array(mem, addr).ok()?;
    if h.ref_elems || h.is_stack {
        return None;
    }
    (elems.slots())
        .map(|(slot, _)| mem.read_word(slot).map(|w| w as i64))
        .collect()
}

/// Clone a remote String object (builtin `String { chars }` layout).
pub fn read_string(mem: &dyn ProcessMemory, program: &Program, addr: Addr) -> Option<String> {
    if objref::header(mem, addr).ok()?.class_id != program.builtins.string_class {
        return None;
    }
    let chars = mem.read_word(objref::field_slot(mem, program, addr, 0, Ty::Ref).ok()?)?;
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
    let h = objref::object(mem, program, addr).ok()?;
    if h.is_array {
        return None;
    }
    let slots = objref::payload(mem, program, addr).ok()?.slots();
    let decls = program.slot_decls(h.class_id, h.is_classobj);
    (decls.iter().zip(slots))
        .map(|(d, (slot, _))| {
            let raw = mem.read_word(slot)?;
            let rendered = match (d.ty, raw) {
                (Ty::Int, _) => format!("{}", raw as i64),
                (Ty::Ref, 0) => "null".to_string(),
                (Ty::Ref, _) => {
                    let cname = class_name(mem, program, raw).unwrap_or_else(|| "?".into());
                    format!("{cname}@{raw}")
                }
            };
            Some((d.name.clone(), rendered))
        })
        .collect()
}

/// Render a one-line description of any remote object.
pub fn describe(mem: &dyn ProcessMemory, program: &Program, addr: Addr) -> String {
    if addr == 0 {
        return "null".into();
    }
    let Ok(h) = objref::object(mem, program, addr) else {
        return format!("<bad address {addr}>");
    };
    let name = class_name(mem, program, addr).unwrap_or_else(|| "?".into());
    if h.is_array {
        let len = objref::array_len(mem, addr).unwrap_or(0);
        format!("{name}(len={len})@{addr} #{}", h.serial)
    } else if let Some(s) = read_string(mem, program, addr) {
        format!("String({s:?})@{addr} #{}", h.serial)
    } else {
        let fields = read_fields(mem, program, addr).unwrap_or_default();
        let fields: Vec<_> = fields.iter().map(|(n, v)| format!("{n}={v}")).collect();
        let fields = fields.join(", ");
        format!("{name}{{{fields}}}@{addr} #{}", h.serial)
    }
}
