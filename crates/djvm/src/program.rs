//! Static program model: classes, methods, vtables, string pool.
//!
//! A [`Program`] is the immutable "class file" input to the VM. The
//! baseline compiler ([`crate::compile`]) verifies each method and attaches
//! a [`CompiledMethod`] carrying frame sizes, backedge (yield-point)
//! metadata and per-pc reference maps.

use crate::bytecode::{ClassId, MethodId, NativeId, Op, Ty};
use crate::compile::CompiledMethod;
use crate::heap::Header;
use std::collections::HashMap;

/// A guest class: a named record type with single inheritance and a vtable.
#[derive(Debug, Clone)]
pub struct Class {
    /// Class name (used by reflection and the debugger).
    pub name: String,
    /// Superclass, if any. Fields of the superclass are inherited and
    /// occupy the lowest field indices.
    pub super_class: Option<ClassId>,
    /// Declared instance fields (this class only; see [`Class::nfields`]
    /// via [`Program::total_fields`] for the full object size).
    pub fields: Vec<FieldDecl>,
    /// Declared static fields, stored in the lazily allocated class object.
    pub statics: Vec<FieldDecl>,
    /// Virtual method table: slot -> implementing method. Built by the
    /// program builder; subclasses start from a copy of the parent's table.
    pub vtable: Vec<MethodId>,
    /// Name -> vtable slot, for the builder and for reflection.
    pub vslots: HashMap<String, u16>,
}

/// An instance or static field declaration.
#[derive(Debug, Clone)]
pub struct FieldDecl {
    pub name: String,
    pub ty: Ty,
}

/// A guest method.
#[derive(Debug, Clone)]
pub struct Method {
    /// Method name, qualified for display as `Class.name` when owned.
    pub name: String,
    /// Owning class for virtual methods; `None` for static/free methods.
    pub owner: Option<ClassId>,
    /// Number of arguments (including the receiver for virtual methods).
    /// Arguments arrive in locals `0..nargs`.
    pub nargs: u16,
    /// Total local slots (>= nargs).
    pub nlocals: u16,
    /// Declared types of the argument slots (length == nargs); needed by
    /// the verifier to seed its dataflow.
    pub arg_types: Vec<Ty>,
    /// Whether the method returns a value, and its type.
    pub ret: Option<Ty>,
    /// Instruction stream.
    pub ops: Vec<Op>,
    /// Source line number for each pc (parallel to `ops`); consumed by the
    /// remote-reflection line-number example (paper Fig. 3) and debugger.
    pub lines: Vec<u32>,
    /// Output of the baseline compiler; populated by [`crate::compile`].
    pub compiled: Option<CompiledMethod>,
}

impl Method {
    /// Fully qualified display name.
    pub fn qualified_name(&self, program: &Program) -> String {
        match self.owner {
            Some(c) => format!("{}.{}", program.classes[c as usize].name, self.name),
            None => self.name.clone(),
        }
    }
}

/// Declared signature of a native (JNI-like) function: how many arguments
/// it pops and whether it pushes a result.
#[derive(Debug, Clone)]
pub struct NativeDecl {
    pub name: String,
    pub nargs: u8,
    pub returns: bool,
}

/// Ids of the classes and methods the VM itself relies on. These are
/// injected by the baseline compiler if the program does not define them —
/// the analogue of Jalapeño's boot-image classes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Builtins {
    /// `Thread { tid: Int }` — the object returned by `Spawn`.
    pub thread_class: ClassId,
    /// `String { chars: Ref }` — interned string objects.
    pub string_class: ClassId,
    /// `VM_Method { methodId: Int, name: Ref, lineTable: Ref }` — the
    /// reflection metadata objects of the paper's Figure 3.
    pub vm_method_class: ClassId,
    /// Interpreted instrumentation helper executed by the record-mode hook
    /// (its yield points must be excluded by the logical clock, §2.4).
    pub flush_method: MethodId,
    /// Interpreted instrumentation helper executed by the replay-mode hook.
    pub fill_method: MethodId,
    /// Virtual `VM_Method.getLineNumberAt(offset)` (paper Fig. 3).
    pub get_line_number_at: MethodId,
    /// `VM_Dictionary.getMethods()` analogue — a *mapped* method: the tool
    /// JVM intercepts its invocation and returns a remote object for the
    /// boot image's method table; the application JVM never runs it
    /// (its body is a stub).
    pub get_methods: MethodId,
    /// `Debugger.lineNumberOf(methodNumber, offset)` — the reflective query
    /// of the paper's Figure 3, verbatim in structure.
    pub line_number_of: MethodId,
}

/// An immutable, verified guest program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub classes: Vec<Class>,
    pub methods: Vec<Method>,
    /// Interned strings; materialized as String objects in the boot image.
    pub strings: Vec<String>,
    /// Declared natives (implementations are registered on the VM).
    pub natives: Vec<NativeDecl>,
    /// Entry method (thread 0's bottom frame).
    pub entry: MethodId,
    /// VM-internal classes/methods (populated by the compiler).
    pub builtins: Builtins,
    /// Per-class flattened instance-field types (inherited first), the
    /// runtime object layout. Populated by the compiler.
    pub field_layouts: Vec<Vec<Ty>>,
    /// Per-class static-field types: the layout of each class object.
    pub static_layouts: Vec<Vec<Ty>>,
}

impl Program {
    /// Total instance-field count of a class including inherited fields.
    /// Field index `i` in bytecode refers to this flattened layout.
    pub fn total_fields(&self, class: ClassId) -> u16 {
        let c = &self.classes[class as usize];
        let inherited = c.super_class.map_or(0, |s| self.total_fields(s));
        inherited + c.fields.len() as u16
    }

    /// Flattened field declarations (inherited first), matching the object
    /// layout in the heap.
    pub fn flattened_fields(&self, class: ClassId) -> Vec<FieldDecl> {
        let c = &self.classes[class as usize];
        let mut out = c
            .super_class
            .map_or_else(Vec::new, |s| self.flattened_fields(s));
        out.extend(c.fields.iter().cloned());
        out
    }

    /// Declarations behind the payload slots of a non-array object, in slot
    /// order: a class object holds its class's statics, an instance the
    /// flattened fields. `field_layouts` / `static_layouts` cache the type
    /// column of this, and [`Program::layout_of`] picks between the caches.
    pub fn slot_decls(&self, class: ClassId, is_classobj: bool) -> Vec<FieldDecl> {
        if is_classobj {
            self.class(class).statics.clone()
        } else {
            self.flattened_fields(class)
        }
    }

    /// Slot types of the non-array object behind header `h`.
    pub fn layout_of(&self, h: &Header) -> &[Ty] {
        let layouts = if h.is_classobj {
            &self.static_layouts
        } else {
            &self.field_layouts
        };
        &layouts[h.class_id as usize]
    }

    /// True if `class` is `ancestor` or a subclass of it.
    pub fn is_subclass(&self, class: ClassId, ancestor: ClassId) -> bool {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if c == ancestor {
                return true;
            }
            cur = self.classes[c as usize].super_class;
        }
        false
    }

    pub fn class_id_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .map(|i| i as ClassId)
    }

    pub fn method_id_by_name(&self, name: &str) -> Option<MethodId> {
        self.methods
            .iter()
            .position(|m| m.name == name)
            .map(|i| i as MethodId)
    }

    pub fn native_id_by_name(&self, name: &str) -> Option<NativeId> {
        self.natives
            .iter()
            .position(|n| n.name == name)
            .map(|i| i as NativeId)
    }

    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id as usize]
    }

    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id as usize]
    }

    /// The compiled form of a method. Every `Program` that came out of
    /// [`crate::builder::ProgramBuilder::finish`] — the only producer —
    /// has one per method; panics on a hand-assembled `Program`.
    pub fn compiled(&self, id: MethodId) -> &CompiledMethod {
        self.methods[id as usize]
            .compiled
            .as_ref()
            .expect("program not compiled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> Program {
        let base = Class {
            name: "Base".into(),
            super_class: None,
            fields: vec![FieldDecl {
                name: "a".into(),
                ty: Ty::Int,
            }],
            statics: vec![],
            vtable: vec![],
            vslots: HashMap::new(),
        };
        let derived = Class {
            name: "Derived".into(),
            super_class: Some(0),
            fields: vec![FieldDecl {
                name: "b".into(),
                ty: Ty::Ref,
            }],
            statics: vec![],
            vtable: vec![],
            vslots: HashMap::new(),
        };
        Program {
            classes: vec![base, derived],
            ..Default::default()
        }
    }

    #[test]
    fn flattened_field_layout_puts_inherited_first() {
        let p = tiny_program();
        assert_eq!(p.total_fields(0), 1);
        assert_eq!(p.total_fields(1), 2);
        let f = p.flattened_fields(1);
        assert_eq!(f[0].name, "a");
        assert_eq!(f[1].name, "b");
        assert_eq!(f[1].ty, Ty::Ref);
    }

    #[test]
    fn subclass_relation() {
        let p = tiny_program();
        assert!(p.is_subclass(1, 0));
        assert!(p.is_subclass(0, 0));
        assert!(!p.is_subclass(0, 1));
    }

    #[test]
    fn lookup_by_name() {
        let p = tiny_program();
        assert_eq!(p.class_id_by_name("Derived"), Some(1));
        assert_eq!(p.class_id_by_name("Missing"), None);
    }
}
