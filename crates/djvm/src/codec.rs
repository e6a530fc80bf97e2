//! Hand-rolled JSON codec for the static program model.
//!
//! Replaces the serde derives the seed carried on [`crate::bytecode`] and
//! [`crate::program`]: the workspace owns its serialization end to end
//! (hermetic build; see the `codec` crate). The format is a direct
//! transliteration of the structs:
//!
//! * [`Ty`] is its variant name (`"Int"` / `"Ref"`),
//! * an [`Op`] with no payload is its variant name (`"Add"`); one with a
//!   payload is an array `[name, field...]` with fields in declaration
//!   order (`["GetField", 2, "Int"]`),
//! * [`Program`] and friends are objects keyed by field name. The
//!   `compiled` output of the baseline compiler — ref maps, backedge
//!   bits, *and the quickened `QOp` stream* — is *not* serialized: a
//!   decoded program must be passed through [`crate::compile`] again,
//!   mirroring how a class file carries no JIT state. Quickening is
//!   deterministic, so recompilation reproduces the exact same stream
//!   (and therefore the exact same execution) on every machine.
//!
//! Encoding is deterministic: map-like fields (`vslots`) are emitted in
//! sorted key order.

use crate::bytecode::{Op, Ty};
use crate::program::{Builtins, Class, FieldDecl, Method, NativeDecl, Program};
use codec::{FromJson, Json, JsonError, ToJson};
use std::collections::HashMap;

impl ToJson for Ty {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                Ty::Int => "Int",
                Ty::Ref => "Ref",
            }
            .into(),
        )
    }
}

impl FromJson for Ty {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.as_str()? {
            "Int" => Ok(Ty::Int),
            "Ref" => Ok(Ty::Ref),
            other => Err(JsonError::new(format!("unknown type \"{other}\""))),
        }
    }
}

/// `[name, field...]` for payload-carrying ops.
fn op_arr(name: &str, fields: Vec<Json>) -> Json {
    let mut items = vec![Json::Str(name.into())];
    items.extend(fields);
    Json::Arr(items)
}

impl ToJson for Op {
    fn to_json(&self) -> Json {
        use Json::Str;
        match *self {
            Op::Const(v) => op_arr("Const", vec![v.to_json()]),
            Op::Str(s) => op_arr("Str", vec![s.to_json()]),
            Op::Load(n) => op_arr("Load", vec![n.to_json()]),
            Op::Store(n) => op_arr("Store", vec![n.to_json()]),
            Op::Goto(t) => op_arr("Goto", vec![t.to_json()]),
            Op::If(t) => op_arr("If", vec![t.to_json()]),
            Op::IfZ(t) => op_arr("IfZ", vec![t.to_json()]),
            Op::New(c) => op_arr("New", vec![c.to_json()]),
            Op::GetField { idx, ty } => op_arr("GetField", vec![idx.to_json(), ty.to_json()]),
            Op::PutField { idx, ty } => op_arr("PutField", vec![idx.to_json(), ty.to_json()]),
            Op::GetStatic(c, n) => op_arr("GetStatic", vec![c.to_json(), n.to_json()]),
            Op::PutStatic(c, n) => op_arr("PutStatic", vec![c.to_json(), n.to_json()]),
            Op::NewArray(ty) => op_arr("NewArray", vec![ty.to_json()]),
            Op::ALoad(ty) => op_arr("ALoad", vec![ty.to_json()]),
            Op::AStore(ty) => op_arr("AStore", vec![ty.to_json()]),
            Op::InstanceOf(c) => op_arr("InstanceOf", vec![c.to_json()]),
            Op::Call(m) => op_arr("Call", vec![m.to_json()]),
            Op::CallVirtual { class, slot } => {
                op_arr("CallVirtual", vec![class.to_json(), slot.to_json()])
            }
            Op::Spawn { method, nargs } => op_arr("Spawn", vec![method.to_json(), nargs.to_json()]),
            Op::NativeCall { native, nargs } => {
                op_arr("NativeCall", vec![native.to_json(), nargs.to_json()])
            }
            Op::PrintStr(s) => op_arr("PrintStr", vec![s.to_json()]),
            // Payload-free ops are bare strings; `unit_op_name` is the
            // single source of truth for the name set.
            op => Str(unit_op_name(op).into()),
        }
    }
}

/// Variant name of a payload-free op (panics on payload ops — those are
/// handled above).
fn unit_op_name(op: Op) -> &'static str {
    match op {
        Op::Null => "Null",
        Op::Dup => "Dup",
        Op::Pop => "Pop",
        Op::Swap => "Swap",
        Op::Add => "Add",
        Op::Sub => "Sub",
        Op::Mul => "Mul",
        Op::Div => "Div",
        Op::Rem => "Rem",
        Op::Neg => "Neg",
        Op::BitAnd => "BitAnd",
        Op::BitOr => "BitOr",
        Op::BitXor => "BitXor",
        Op::Shl => "Shl",
        Op::Shr => "Shr",
        Op::Eq => "Eq",
        Op::Ne => "Ne",
        Op::Lt => "Lt",
        Op::Le => "Le",
        Op::Gt => "Gt",
        Op::Ge => "Ge",
        Op::RefEq => "RefEq",
        Op::ArrayLen => "ArrayLen",
        Op::IdentityHash => "IdentityHash",
        Op::Ret => "Ret",
        Op::RetVal => "RetVal",
        Op::MonitorEnter => "MonitorEnter",
        Op::MonitorExit => "MonitorExit",
        Op::Wait => "Wait",
        Op::TimedWait => "TimedWait",
        Op::Notify => "Notify",
        Op::NotifyAll => "NotifyAll",
        Op::Join => "Join",
        Op::Interrupt => "Interrupt",
        Op::YieldNow => "YieldNow",
        Op::Sleep => "Sleep",
        Op::CurrentThread => "CurrentThread",
        Op::Now => "Now",
        Op::Print => "Print",
        Op::Halt => "Halt",
        other => unreachable!("op {other:?} carries a payload"),
    }
}

fn unit_op_from_name(name: &str) -> Option<Op> {
    Some(match name {
        "Null" => Op::Null,
        "Dup" => Op::Dup,
        "Pop" => Op::Pop,
        "Swap" => Op::Swap,
        "Add" => Op::Add,
        "Sub" => Op::Sub,
        "Mul" => Op::Mul,
        "Div" => Op::Div,
        "Rem" => Op::Rem,
        "Neg" => Op::Neg,
        "BitAnd" => Op::BitAnd,
        "BitOr" => Op::BitOr,
        "BitXor" => Op::BitXor,
        "Shl" => Op::Shl,
        "Shr" => Op::Shr,
        "Eq" => Op::Eq,
        "Ne" => Op::Ne,
        "Lt" => Op::Lt,
        "Le" => Op::Le,
        "Gt" => Op::Gt,
        "Ge" => Op::Ge,
        "RefEq" => Op::RefEq,
        "ArrayLen" => Op::ArrayLen,
        "IdentityHash" => Op::IdentityHash,
        "Ret" => Op::Ret,
        "RetVal" => Op::RetVal,
        "MonitorEnter" => Op::MonitorEnter,
        "MonitorExit" => Op::MonitorExit,
        "Wait" => Op::Wait,
        "TimedWait" => Op::TimedWait,
        "Notify" => Op::Notify,
        "NotifyAll" => Op::NotifyAll,
        "Join" => Op::Join,
        "Interrupt" => Op::Interrupt,
        "YieldNow" => Op::YieldNow,
        "Sleep" => Op::Sleep,
        "CurrentThread" => Op::CurrentThread,
        "Now" => Op::Now,
        "Print" => Op::Print,
        "Halt" => Op::Halt,
        _ => return None,
    })
}

impl FromJson for Op {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        if let Ok(name) = j.as_str() {
            return unit_op_from_name(name)
                .ok_or_else(|| JsonError::new(format!("unknown op \"{name}\"")));
        }
        let items = j.as_arr()?;
        let name = items
            .first()
            .ok_or_else(|| JsonError::new("empty op array"))?
            .as_str()?;
        let args = &items[1..];
        let want = |n: usize| -> Result<(), JsonError> {
            if args.len() == n {
                Ok(())
            } else {
                Err(JsonError::new(format!(
                    "op {name} wants {n} fields, got {}",
                    args.len()
                )))
            }
        };
        let op = match name {
            "Const" => {
                want(1)?;
                Op::Const(i64::from_json(&args[0])?)
            }
            "Str" => {
                want(1)?;
                Op::Str(u32::from_json(&args[0])?)
            }
            "Load" => {
                want(1)?;
                Op::Load(u16::from_json(&args[0])?)
            }
            "Store" => {
                want(1)?;
                Op::Store(u16::from_json(&args[0])?)
            }
            "Goto" => {
                want(1)?;
                Op::Goto(u32::from_json(&args[0])?)
            }
            "If" => {
                want(1)?;
                Op::If(u32::from_json(&args[0])?)
            }
            "IfZ" => {
                want(1)?;
                Op::IfZ(u32::from_json(&args[0])?)
            }
            "New" => {
                want(1)?;
                Op::New(u32::from_json(&args[0])?)
            }
            "GetField" => {
                want(2)?;
                Op::GetField {
                    idx: u16::from_json(&args[0])?,
                    ty: Ty::from_json(&args[1])?,
                }
            }
            "PutField" => {
                want(2)?;
                Op::PutField {
                    idx: u16::from_json(&args[0])?,
                    ty: Ty::from_json(&args[1])?,
                }
            }
            "GetStatic" => {
                want(2)?;
                Op::GetStatic(u32::from_json(&args[0])?, u16::from_json(&args[1])?)
            }
            "PutStatic" => {
                want(2)?;
                Op::PutStatic(u32::from_json(&args[0])?, u16::from_json(&args[1])?)
            }
            "NewArray" => {
                want(1)?;
                Op::NewArray(Ty::from_json(&args[0])?)
            }
            "ALoad" => {
                want(1)?;
                Op::ALoad(Ty::from_json(&args[0])?)
            }
            "AStore" => {
                want(1)?;
                Op::AStore(Ty::from_json(&args[0])?)
            }
            "InstanceOf" => {
                want(1)?;
                Op::InstanceOf(u32::from_json(&args[0])?)
            }
            "Call" => {
                want(1)?;
                Op::Call(u32::from_json(&args[0])?)
            }
            "CallVirtual" => {
                want(2)?;
                Op::CallVirtual {
                    class: u32::from_json(&args[0])?,
                    slot: u16::from_json(&args[1])?,
                }
            }
            "Spawn" => {
                want(2)?;
                Op::Spawn {
                    method: u32::from_json(&args[0])?,
                    nargs: u8::from_json(&args[1])?,
                }
            }
            "NativeCall" => {
                want(2)?;
                Op::NativeCall {
                    native: u32::from_json(&args[0])?,
                    nargs: u8::from_json(&args[1])?,
                }
            }
            "PrintStr" => {
                want(1)?;
                Op::PrintStr(u32::from_json(&args[0])?)
            }
            other => return Err(JsonError::new(format!("unknown op \"{other}\""))),
        };
        Ok(op)
    }
}

impl ToJson for FieldDecl {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("ty", self.ty.to_json()),
        ])
    }
}

impl FromJson for FieldDecl {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(FieldDecl {
            name: String::from_json(j.field("name")?)?,
            ty: Ty::from_json(j.field("ty")?)?,
        })
    }
}

impl ToJson for Class {
    fn to_json(&self) -> Json {
        // Deterministic output: vslots is a HashMap, so sort its keys.
        let mut slots: Vec<(&String, &u16)> = self.vslots.iter().collect();
        slots.sort();
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("super_class", self.super_class.to_json()),
            ("fields", self.fields.to_json()),
            ("statics", self.statics.to_json()),
            ("vtable", self.vtable.to_json()),
            (
                "vslots",
                Json::Obj(
                    slots
                        .into_iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for Class {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let mut vslots = HashMap::new();
        for (k, v) in j.field("vslots")?.as_obj()? {
            vslots.insert(k.clone(), u16::from_json(v)?);
        }
        Ok(Class {
            name: String::from_json(j.field("name")?)?,
            super_class: Option::from_json(j.field("super_class")?)?,
            fields: Vec::from_json(j.field("fields")?)?,
            statics: Vec::from_json(j.field("statics")?)?,
            vtable: Vec::from_json(j.field("vtable")?)?,
            vslots,
        })
    }
}

impl ToJson for Method {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("owner", self.owner.to_json()),
            ("nargs", self.nargs.to_json()),
            ("nlocals", self.nlocals.to_json()),
            ("arg_types", self.arg_types.to_json()),
            ("ret", self.ret.to_json()),
            ("ops", self.ops.to_json()),
            ("lines", self.lines.to_json()),
        ])
    }
}

impl FromJson for Method {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Method {
            name: String::from_json(j.field("name")?)?,
            owner: Option::from_json(j.field("owner")?)?,
            nargs: u16::from_json(j.field("nargs")?)?,
            nlocals: u16::from_json(j.field("nlocals")?)?,
            arg_types: Vec::from_json(j.field("arg_types")?)?,
            ret: Option::from_json(j.field("ret")?)?,
            ops: Vec::from_json(j.field("ops")?)?,
            lines: Vec::from_json(j.field("lines")?)?,
            compiled: None,
        })
    }
}

impl ToJson for NativeDecl {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("nargs", self.nargs.to_json()),
            ("returns", self.returns.to_json()),
        ])
    }
}

impl FromJson for NativeDecl {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(NativeDecl {
            name: String::from_json(j.field("name")?)?,
            nargs: u8::from_json(j.field("nargs")?)?,
            returns: bool::from_json(j.field("returns")?)?,
        })
    }
}

impl ToJson for Builtins {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("thread_class", self.thread_class.to_json()),
            ("string_class", self.string_class.to_json()),
            ("vm_method_class", self.vm_method_class.to_json()),
            ("flush_method", self.flush_method.to_json()),
            ("fill_method", self.fill_method.to_json()),
            ("get_line_number_at", self.get_line_number_at.to_json()),
            ("get_methods", self.get_methods.to_json()),
            ("line_number_of", self.line_number_of.to_json()),
        ])
    }
}

impl FromJson for Builtins {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Builtins {
            thread_class: u32::from_json(j.field("thread_class")?)?,
            string_class: u32::from_json(j.field("string_class")?)?,
            vm_method_class: u32::from_json(j.field("vm_method_class")?)?,
            flush_method: u32::from_json(j.field("flush_method")?)?,
            fill_method: u32::from_json(j.field("fill_method")?)?,
            get_line_number_at: u32::from_json(j.field("get_line_number_at")?)?,
            get_methods: u32::from_json(j.field("get_methods")?)?,
            line_number_of: u32::from_json(j.field("line_number_of")?)?,
        })
    }
}

impl ToJson for Program {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("classes", self.classes.to_json()),
            ("methods", self.methods.to_json()),
            ("strings", self.strings.to_json()),
            ("natives", self.natives.to_json()),
            ("entry", self.entry.to_json()),
            ("builtins", self.builtins.to_json()),
            (
                "field_layouts",
                Json::Arr(self.field_layouts.iter().map(ToJson::to_json).collect()),
            ),
            (
                "static_layouts",
                Json::Arr(self.static_layouts.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for Program {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let layouts = |key: &str| -> Result<Vec<Vec<Ty>>, JsonError> {
            j.field(key)?.as_arr()?.iter().map(Vec::from_json).collect()
        };
        Ok(Program {
            classes: Vec::from_json(j.field("classes")?)?,
            methods: Vec::from_json(j.field("methods")?)?,
            strings: Vec::from_json(j.field("strings")?)?,
            natives: Vec::from_json(j.field("natives")?)?,
            entry: u32::from_json(j.field("entry")?)?,
            builtins: Builtins::from_json(j.field("builtins")?)?,
            field_layouts: layouts("field_layouts")?,
            static_layouts: layouts("static_layouts")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::compile::{Pure, QOp};

    /// All ops round-trip through JSON, including every payload shape.
    #[test]
    fn ops_roundtrip() {
        let ops = [
            Op::Const(i64::MIN),
            Op::Const(-1),
            Op::Null,
            Op::Str(7),
            Op::Load(65535),
            Op::Store(0),
            Op::Dup,
            Op::Pop,
            Op::Swap,
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Div,
            Op::Rem,
            Op::Neg,
            Op::BitAnd,
            Op::BitOr,
            Op::BitXor,
            Op::Shl,
            Op::Shr,
            Op::Eq,
            Op::Ne,
            Op::Lt,
            Op::Le,
            Op::Gt,
            Op::Ge,
            Op::RefEq,
            Op::Goto(u32::MAX),
            Op::If(3),
            Op::IfZ(0),
            Op::New(1),
            Op::GetField {
                idx: 2,
                ty: Ty::Int,
            },
            Op::PutField {
                idx: 3,
                ty: Ty::Ref,
            },
            Op::GetStatic(1, 2),
            Op::PutStatic(3, 4),
            Op::NewArray(Ty::Ref),
            Op::ALoad(Ty::Int),
            Op::AStore(Ty::Ref),
            Op::ArrayLen,
            Op::IdentityHash,
            Op::InstanceOf(9),
            Op::Call(11),
            Op::CallVirtual { class: 1, slot: 2 },
            Op::Ret,
            Op::RetVal,
            Op::MonitorEnter,
            Op::MonitorExit,
            Op::Wait,
            Op::TimedWait,
            Op::Notify,
            Op::NotifyAll,
            Op::Spawn {
                method: 5,
                nargs: 2,
            },
            Op::Join,
            Op::Interrupt,
            Op::YieldNow,
            Op::Sleep,
            Op::CurrentThread,
            Op::Now,
            Op::NativeCall {
                native: 1,
                nargs: 255,
            },
            Op::Print,
            Op::PrintStr(0),
            Op::Halt,
        ];
        for op in ops {
            let back = Op::from_json_str(&op.to_json_string()).unwrap();
            assert_eq!(back, op);
        }
    }

    #[test]
    fn unknown_op_rejected() {
        assert!(Op::from_json_str("\"Frobnicate\"").is_err());
        assert!(Op::from_json_str("[\"Const\"]").is_err());
        assert!(Op::from_json_str("[\"Load\",-1]").is_err());
    }

    /// A real compiled program round-trips (minus the compiled method
    /// bodies, which are regenerated by re-compilation).
    #[test]
    fn program_roundtrips_and_recompiles() {
        let mut pb = ProgramBuilder::new();
        let node = pb
            .class("Node")
            .field("v", Ty::Int)
            .field("next", Ty::Ref)
            .build();
        let m = pb.method("main", 0, 2).code(|a| {
            a.line(1).new(node).store(0);
            a.load(0).iconst(41).put_field(0);
            a.load(0).get_field(0).iconst(1).add().print();
            a.halt();
        });
        let program = pb.finish(m).unwrap();

        let text = program.to_json_string();
        let decoded = Program::from_json_str(&text).unwrap();

        assert_eq!(decoded.classes.len(), program.classes.len());
        assert_eq!(decoded.strings, program.strings);
        assert_eq!(decoded.entry, program.entry);
        for (a, b) in decoded.methods.iter().zip(&program.methods) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.ops, b.ops);
            assert_eq!(a.lines, b.lines);
            assert!(a.compiled.is_none(), "compiled state must not travel");
        }

        // Re-encoding the decoded program is byte-identical: the codec is
        // a pure function of the logical program.
        assert_eq!(decoded.to_json_string(), text);

        // And the decoded program passes the verifier/compiler again.
        let mut decoded = decoded;
        crate::compile::compile_program(&mut decoded).unwrap();
        assert!(decoded.methods[m as usize].compiled.is_some());
    }

    /// The quickened stream never travels with the program, and
    /// recompiling a decoded program regenerates it exactly — so a
    /// serialized program replays identically wherever it is decoded.
    #[test]
    fn roundtrip_requickens_identically() {
        let mut pb = ProgramBuilder::new();
        let m = pb.method("main", 0, 2).code(|a| {
            a.iconst(0).store(0);
            a.iconst(0).store(1);
            a.label("top");
            a.load(0).iconst(25).ge().if_nz("done");
            a.load(1).load(0).add().store(1);
            a.load(0).iconst(1).add().store(0);
            a.goto("top");
            a.label("done");
            a.load(1).print();
            a.halt();
        });
        let program = pb.finish(m).unwrap();

        let mut decoded = Program::from_json_str(&program.to_json_string()).unwrap();
        assert!(
            decoded.methods.iter().all(|m| m.compiled.is_none()),
            "quickened state must not travel"
        );
        crate::compile::compile_program(&mut decoded).unwrap();

        for (a, b) in decoded.methods.iter().zip(&program.methods) {
            let (ca, cb) = (a.compiled.as_ref().unwrap(), b.compiled.as_ref().unwrap());
            assert_eq!(ca.qops, cb.qops, "method {}", a.name);
            assert_eq!(ca.backedge, cb.backedge, "method {}", a.name);
        }
        // The main method actually got superinstructions (the test is not
        // vacuous).
        let main = decoded.methods[m as usize].compiled.as_ref().unwrap();
        assert!(main
            .qops
            .iter()
            .any(|q| matches!(q, QOp::Pure(Pure::ConstStore { .. }))));
    }
}
