//! Abstract syntax for `.jir` modules.
//!
//! The AST is flat: declarations and statements live in a few module-wide
//! vectors and refer to each other by [`Span`]s, and every name is a
//! [`Sym`] into the module's shared symbol table.
//!
//! It is also deliberately unresolved: call receivers are plain identifiers
//! whose classification (local variable vs. class name, i.e. virtual vs.
//! static call) happens during lowering, once all classes are known.

use std::sync::Arc;

use crate::error::Location;
use crate::symbols::{Sym, Symbols};

/// A whole source module.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// The identifiers every [`Sym`] below refers to.
    pub symbols: Arc<Symbols>,
    /// Class declarations, in source order.
    pub classes: Vec<ClassDecl>,
    /// Method declarations, in source order (each class's are contiguous).
    pub methods: Vec<MethodDecl>,
    /// Statements, in source order (each method's are contiguous).
    pub stmts: Vec<Stmt>,
    /// Field declarations as `(name, is_static)`, in source order.
    pub fields: Vec<(Sym, bool)>,
    /// Name lists: parameters, catch clauses and call arguments.
    pub names: Vec<Sym>,
    /// `entry Class.method;` directives, as `(class, method)`.
    pub entries: Vec<(Sym, Sym)>,
}

/// A run of consecutive entries in one of a [`Module`]'s vectors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// First index.
    pub start: u32,
    /// One past the last index.
    pub end: u32,
}

impl Span {
    /// The span from `start` to `end`.
    pub fn new(start: usize, end: usize) -> Span {
        let at = |n: usize| u32::try_from(n).expect("fewer than 2^32 AST nodes");
        Span {
            start: at(start),
            end: at(end),
        }
    }

    /// The entries of `items` the span covers.
    pub fn of<T>(self, items: &[T]) -> &[T] {
        &items[self.start as usize..self.end as usize]
    }
}

impl Module {
    /// The identifier `sym` stands for.
    pub fn name(&self, sym: Sym) -> &str {
        self.symbols.name(sym)
    }
}

/// `class Name : Parent { ... }`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDecl {
    /// The class name.
    pub name: Sym,
    /// The superclass name, or `None` for a root class.
    pub parent: Option<Sym>,
    /// Field declarations (`field f;` and `static field f;`), in
    /// [`Module::fields`].
    pub fields: Span,
    /// Method declarations, in [`Module::methods`].
    pub methods: Span,
}

/// `method name(params) { ... }` or `static name(params) { ... }`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodDecl {
    /// The method name.
    pub name: Sym,
    /// Formal parameter names, in [`Module::names`].
    pub params: Span,
    /// `true` for `static` methods.
    pub is_static: bool,
    /// Catch clauses from the optional `catch (T e, U f)` header suffix,
    /// as `type, binder` pairs in [`Module::names`].
    pub catches: Span,
    /// Statements, in [`Module::stmts`].
    pub body: Span,
    /// Source location of the declaration.
    pub location: Location,
}

/// One statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stmt {
    /// The statement's payload.
    pub kind: StmtKind,
    /// Source location.
    pub location: Location,
}

/// Statement kinds, mirroring the intermediate language one-to-one (plus
/// `Return`, which lowers to a move into the method's return variable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtKind {
    /// `to = new class;`
    Alloc { to: Sym, class: Sym },
    /// `to = from;`
    Move { to: Sym, from: Sym },
    /// `to = (class) from;`
    Cast { to: Sym, class: Sym, from: Sym },
    /// `to = base.field;`
    Load { to: Sym, base: Sym, field: Sym },
    /// `base.field = from;`
    Store { base: Sym, field: Sym, from: Sym },
    /// `[to =] recv.method(args);` — virtual if `recv` is a local, static
    /// if it names a class (resolved during lowering); `args` are in
    /// [`Module::names`].
    Call {
        to: Option<Sym>,
        recv: Sym,
        method: Sym,
        args: Span,
    },
    /// `return var;`
    Return { var: Sym },
    /// `throw var;`
    Throw { var: Sym },
}
