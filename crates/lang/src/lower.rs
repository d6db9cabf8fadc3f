//! AST → IR lowering: name resolution and program construction.
//!
//! Lowering resolves class names (with forward references), builds the
//! field and method tables, classifies each call as virtual or static (a
//! receiver that names a class is a static call; a receiver that names a
//! local is a virtual call — locals shadow classes), and lowers bodies to
//! the intermediate language. `return x;` statements lower to moves into a
//! synthetic `$ret` variable when a method has several returns, which is
//! equivalent under flow-insensitive analysis.
//!
//! Field names must be unique program-wide (diagnosed otherwise); prefix
//! with the class name (`box_value`) when two classes need a same-named
//! field. This keeps field uses resolvable without local type annotations.
//!
//! Names resolve through one table indexed by [`Sym`], so resolution never
//! hashes a string. It holds the current method's locals too; they are
//! cleared between methods by undoing exactly the entries the method bound.

use std::fmt::{self, Write as _};
use std::sync::Arc;

use pta_ir::hash::FxHashMap;
use pta_ir::{FieldId, MethodId, Program, ProgramBuilder, TypeId, VarId};

use crate::ast::{ClassDecl, Module, StmtKind};
use crate::error::LangError;
use crate::symbols::{Sym, Symbols};

/// Lowers a parsed module into a validated [`Program`].
///
/// # Errors
///
/// Returns [`LangError::Lower`] for unresolved or ambiguous names and
/// [`LangError::Validate`] if the resulting IR is ill-formed.
pub fn lower(module: &Module) -> Result<Program, LangError> {
    Lowerer::default().run(module)
}

/// What one symbol names: a class, a field, a local of the current method.
#[derive(Debug, Clone, Copy, Default)]
struct Named {
    class: Option<TypeId>,
    field: Option<FieldId>,
    local: Option<VarId>,
}

/// A declared method: its ID, arity and staticness.
type Declared = (MethodId, usize, bool);

const UNASSIGNED: &str = " is used but never assigned";
const NEITHER: &str = " is neither a local variable nor a class";

#[derive(Default)]
struct Lowerer {
    symbols: Arc<Symbols>,
    builder: ProgramBuilder,
    named: Vec<Named>,
    /// (class, method name) -> the method it declares.
    methods: FxHashMap<(TypeId, Sym), Declared>,
    /// Superclass links by type index, for static-method resolution.
    parents: Vec<Option<TypeId>>,
    /// Symbols with a local bound in the current method (the undo list).
    bound: Vec<Sym>,
    /// Argument buffer for the call being lowered.
    args: Vec<VarId>,
    /// `Class.method` of the current method, then the site label being built.
    label: String,
    qualified_len: usize,
}

fn err(message: impl Into<String>) -> LangError {
    LangError::Lower {
        message: message.into(),
    }
}

impl Lowerer {
    fn run(mut self, module: &Module) -> Result<Program, LangError> {
        self.symbols = Arc::clone(&module.symbols);
        self.named = vec![Named::default(); module.symbols.len()];
        self.declare_classes(module)?;
        self.declare_members(module)?;
        for class in &module.classes {
            for index in class.methods.start as usize..class.methods.end as usize {
                self.lower_body(module, class.name, index)?;
            }
        }
        for &(class_sym, method_sym) in &module.entries {
            let (class, method) = (module.name(class_sym), module.name(method_sym));
            let ty = self.named[class_sym.index()]
                .class
                .ok_or_else(|| err(format!("entry names unknown class `{class}`")))?;
            let (meth, _, is_static) = self
                .resolve_method(ty, method_sym)
                .ok_or_else(|| err(format!("entry names unknown method `{class}.{method}`")))?;
            if !is_static {
                return Err(err(format!("entry `{class}.{method}` must be static")));
            }
            self.builder.entry_point(meth);
        }
        Ok(self.builder.finish()?)
    }

    /// Declares all classes, tolerating forward references to superclasses
    /// by iterating to a fixpoint. Remaining unresolved classes indicate an
    /// unknown parent or an inheritance cycle.
    fn declare_classes(&mut self, module: &Module) -> Result<(), LangError> {
        // Duplicate check first for a clearer message.
        let mut seen = vec![false; self.named.len()];
        for c in &module.classes {
            if std::mem::replace(&mut seen[c.name.index()], true) {
                let name = module.name(c.name);
                return Err(err(format!("class `{name}` declared twice")));
            }
        }
        let mut pending: Vec<&ClassDecl> = module.classes.iter().collect();
        while !pending.is_empty() {
            let before = pending.len();
            pending.retain(|class| {
                let parent = match class.parent.map(|p| self.named[p.index()].class) {
                    Some(None) => return true, // try again next round
                    resolved => resolved.flatten(),
                };
                // Names are unique, so each class gets the next type ID.
                let ty = self.builder.class(module.name(class.name), parent);
                self.named[class.name.index()].class = Some(ty);
                self.parents.push(parent);
                false
            });
            if pending.len() == before {
                let names: Vec<&str> = pending.iter().map(|c| module.name(c.name)).collect();
                return Err(err(format!(
                    "unresolved superclass or inheritance cycle involving: {}",
                    names.join(", ")
                )));
            }
        }
        Ok(())
    }

    /// Declares fields and methods. Methods are declared in module order,
    /// so `module.methods[i]` becomes `MethodId` `i`.
    fn declare_members(&mut self, module: &Module) -> Result<(), LangError> {
        let mut params: Vec<&str> = Vec::new();
        for class in &module.classes {
            let ty = self.named[class.name.index()].class.expect("declared");
            // Instance fields first, then static ones.
            let fields = class.fields.of(&module.fields);
            let instance = fields.iter().filter(|f| !f.1);
            for &(field, is_static) in instance.chain(fields.iter().filter(|f| f.1)) {
                let name = module.name(field);
                if self.named[field.index()].field.is_some() {
                    return Err(err(format!(
                        "field `{name}` declared in more than one class; field names must be \
                         unique program-wide (prefix with the class name)"
                    )));
                }
                let id = if is_static {
                    self.builder.static_field(ty, name)
                } else {
                    self.builder.field(ty, name)
                };
                self.named[field.index()].field = Some(id);
            }
            for method in class.methods.of(&module.methods) {
                let (cname, mname) = (module.name(class.name), module.name(method.name));
                if self.methods.contains_key(&(ty, method.name)) {
                    return Err(err(format!("method `{cname}.{mname}` declared twice")));
                }
                params.clear();
                let names = method.params.of(&module.names);
                params.extend(names.iter().map(|&p| module.name(p)));
                let id = self.builder.method(ty, mname, &params, method.is_static);
                let declared = (id, params.len(), method.is_static);
                self.methods.insert((ty, method.name), declared);
            }
        }
        Ok(())
    }

    /// Resolves `name` on `ty` or the nearest ancestor declaring it. The
    /// chain is finite because `declare_classes` rejected cycles.
    fn resolve_method(&self, ty: TypeId, name: Sym) -> Option<Declared> {
        let mut cur = Some(ty);
        while let Some(t) = cur {
            if let Some(&found) = self.methods.get(&(t, name)) {
                return Some(found);
            }
            cur = self.parents[t.index()];
        }
        None
    }

    fn bind(&mut self, name: Sym, var: VarId) {
        if self.named[name.index()].local.replace(var).is_none() {
            self.bound.push(name);
        }
    }

    /// The local a statement assigns (pass 1 bound every one).
    fn target(&self, name: Sym) -> VarId {
        self.named[name.index()].local.expect("bound in pass 1")
    }

    /// An error inside the current method.
    fn fail(&self, message: fmt::Arguments<'_>) -> LangError {
        let qualified = &self.label[..self.qualified_len];
        err(format!("in {qualified}: {message}"))
    }

    /// `found`, or the error "{pre}`name`{post}".
    fn or_fail<T>(&self, found: Option<T>, pre: &str, n: Sym, post: &str) -> Result<T, LangError> {
        let name = self.symbols.name(n);
        found.ok_or_else(|| self.fail(format_args!("{pre}`{name}`{post}")))
    }

    fn use_var(&self, name: Sym) -> Result<VarId, LangError> {
        let local = self.named[name.index()].local;
        self.or_fail(local, "variable ", name, UNASSIGNED)
    }

    fn class(&self, name: Sym, post: &str) -> Result<TypeId, LangError> {
        let class = self.named[name.index()].class;
        self.or_fail(class, "unknown class ", name, post)
    }

    fn field(&self, name: Sym) -> Result<FieldId, LangError> {
        let field = self.named[name.index()].field;
        self.or_fail(field, "unknown field ", name, "")
    }

    /// The local `name` names, else the class (locals shadow classes).
    fn local_or_class(&self, name: Sym) -> Result<Result<VarId, TypeId>, LangError> {
        let Named { class, local, .. } = self.named[name.index()];
        self.or_fail(local.map(Ok).or(class.map(Err)), "", name, NEITHER)
    }

    /// The method a static call `recv.method(args)` on class `cty` targets.
    fn static_target(&self, cty: TypeId, recv: Sym, method: Sym) -> Result<MethodId, LangError> {
        let (r, m) = (self.symbols.name(recv), self.symbols.name(method));
        let Some((target, arity, is_static)) = self.resolve_method(cty, method) else {
            return Err(self.fail(format_args!("unknown static method `{r}.{m}`")));
        };
        if !is_static {
            let why = "is an instance method; call it on a variable";
            return Err(self.fail(format_args!("`{r}.{m}` {why}")));
        }
        let got = self.args.len();
        if arity != got {
            let why = format!("expects {arity} arguments, got {got}");
            return Err(self.fail(format_args!("`{r}.{m}` {why}")));
        }
        Ok(target)
    }

    /// Sets `label` to `Class.method/{kind}{name}#{n}`.
    fn site_label(&mut self, kind: &str, name: &str, n: usize) {
        self.label.truncate(self.qualified_len);
        let _ = write!(self.label, "/{kind}{name}#{n}");
    }

    fn lower_body(&mut self, module: &Module, class: Sym, index: usize) -> Result<(), LangError> {
        let decl = &module.methods[index];
        let meth = MethodId::from_index(index);
        self.builder.set_method_loc(meth, decl.location);
        let (cname, mname) = (module.name(class), module.name(decl.name));
        self.label.clear();
        let _ = write!(self.label, "{cname}.{mname}");
        self.qualified_len = self.label.len();
        for name in self.bound.drain(..) {
            self.named[name.index()].local = None;
        }

        // Pass 1: names assigned somewhere in the body (flow-insensitive
        // definition set). A later parameter of the same name wins.
        if let (Some(this), Some(var)) = (self.symbols.get("this"), self.builder.this(meth)) {
            self.bind(this, var);
        }
        for (i, &p) in decl.params.of(&module.names).iter().enumerate() {
            self.bind(p, self.builder.formals(meth)[i]);
        }
        let body = decl.body.of(&module.stmts);
        for stmt in body {
            let (StmtKind::Alloc { to, .. }
            | StmtKind::Move { to, .. }
            | StmtKind::Cast { to, .. }
            | StmtKind::Load { to, .. }
            | StmtKind::Call { to: Some(to), .. }) = stmt.kind
            else {
                continue;
            };
            if self.named[to.index()].local.is_none() {
                let var = self.builder.var(meth, module.name(to));
                self.bind(to, var);
            }
        }

        // Catch binders are implicit definitions.
        for clause in decl.catches.of(&module.names).chunks_exact(2) {
            let (ty, binder) = (clause[0], clause[1]);
            let cty = self.or_fail(self.named[ty.index()].class, "unknown catch type ", ty, "")?;
            if self.named[binder.index()].local.is_some() {
                let name = module.name(binder);
                return Err(self.fail(format_args!(
                    "catch binder `{name}` shadows another variable"
                )));
            }
            let var = self.builder.catch_clause(meth, cty, module.name(binder));
            self.bind(binder, var);
        }

        // Return handling: a single `return v;` sets the return variable
        // directly; multiple returns move into a synthetic `$ret`.
        let returns = body
            .iter()
            .filter(|s| matches!(s.kind, StmtKind::Return { .. }));
        let ret_var = (returns.count() > 1).then(|| {
            let v = self.builder.var(meth, "$ret");
            self.builder.set_return(meth, v);
            v
        });

        // Pass 2: lower statements.
        let (mut allocs, mut invos) = (0usize, 0usize);
        for stmt in body {
            let emitted_before = self.builder.instrs(meth).len();
            match stmt.kind {
                StmtKind::Alloc { to, class } => {
                    let cty = self.class(class, " in `new`")?;
                    self.site_label("new ", module.name(class), allocs);
                    allocs += 1;
                    self.builder.alloc(meth, self.target(to), cty, &self.label);
                }
                StmtKind::Move { to, from } => {
                    let from = self.use_var(from)?;
                    self.builder.move_(meth, self.target(to), from);
                }
                StmtKind::Cast { to, class, from } => {
                    let from = self.use_var(from)?;
                    let cty = self.class(class, " in cast")?;
                    self.builder.cast(meth, self.target(to), from, cty);
                }
                StmtKind::Load { to, base, field } => {
                    let (f, to) = (self.field(field)?, self.target(to));
                    match self.local_or_class(base)? {
                        Ok(base) => self.builder.load(meth, to, base, f),
                        Err(_) => self.builder.sload(meth, to, f), // `x = Class.field`
                    }
                }
                StmtKind::Store { base, field, from } => {
                    let (from, f) = (self.use_var(from)?, self.field(field)?);
                    match self.local_or_class(base)? {
                        Ok(base) => self.builder.store(meth, base, f, from),
                        Err(_) => self.builder.sstore(meth, f, from), // `Class.field = x`
                    }
                }
                StmtKind::Call {
                    to,
                    recv,
                    method,
                    args,
                } => {
                    let ret = to.map(|to| self.target(to));
                    self.args.clear();
                    for &a in args.of(&module.names) {
                        self.args.push(self.use_var(a)?);
                    }
                    let name = module.name(method);
                    self.site_label("", name, invos);
                    invos += 1;
                    let (args, label) = (&self.args, &self.label);
                    match self.local_or_class(recv)? {
                        Ok(base) => self.builder.vcall(meth, base, name, args, ret, label),
                        Err(cty) => {
                            let target = self.static_target(cty, recv, method)?;
                            self.builder.scall(meth, target, args, ret, label)
                        }
                    };
                }
                StmtKind::Throw { var } => {
                    let v = self.use_var(var)?;
                    self.builder.throw(meth, v);
                }
                StmtKind::Return { var } => {
                    let v = self.use_var(var)?;
                    match ret_var {
                        Some(synthetic) => self.builder.move_(meth, synthetic, v),
                        None => self.builder.set_return(meth, v),
                    }
                }
            }
            // Statements lower to at most one instruction; tag it with the
            // statement's source position (a bare `return` emits none).
            if self.builder.instrs(meth).len() > emitted_before {
                self.builder.set_last_instr_loc(meth, stmt.location);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::parse_program;
    use crate::LangError;

    fn lower_err(src: &str) -> String {
        match parse_program(src) {
            Err(LangError::Lower { message }) => message,
            other => panic!("expected lowering error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_class_in_new_is_reported() {
        let msg = lower_err(
            "class Object {} class Main : Object { static main() { x = new Ghost; } } entry Main.main;",
        );
        assert!(msg.contains("Ghost"), "{msg}");
        assert!(msg.contains("Main.main"), "{msg}");
    }

    #[test]
    fn use_of_unassigned_variable_is_reported() {
        let msg = lower_err(
            "class Object {} class Main : Object { static main() { x = y; } } entry Main.main;",
        );
        assert!(msg.contains("`y`"), "{msg}");
        assert!(msg.contains("never assigned"), "{msg}");
    }

    #[test]
    fn unknown_field_is_reported() {
        let msg = lower_err(
            "class Object {} class Main : Object { static main() { x = new Object; x.ghost = x; } } entry Main.main;",
        );
        assert!(msg.contains("ghost"), "{msg}");
    }

    #[test]
    fn duplicate_field_names_across_classes_are_rejected_with_hint() {
        let msg = lower_err(
            "class Object {} class A : Object { field v; } class B : Object { field v; }
             class Main : Object { static main() {} } entry Main.main;",
        );
        assert!(msg.contains("unique program-wide"), "{msg}");
    }

    #[test]
    fn unknown_superclass_is_reported() {
        let msg = lower_err("class A : Nowhere {}");
        assert!(
            msg.contains("Nowhere") || msg.contains("unresolved"),
            "{msg}"
        );
    }

    #[test]
    fn inheritance_cycle_is_reported() {
        let msg = lower_err("class A : B {} class B : A {}");
        assert!(msg.contains("cycle") || msg.contains("unresolved"), "{msg}");
    }

    #[test]
    fn static_call_resolves_up_the_superclass_chain() {
        let p = parse_program(
            "class Object {}
             class Base : Object { static helper(x) { return x; } }
             class Derived : Base {}
             class Main : Object {
                 static main() { v = new Object; r = Derived.helper(v); }
             }
             entry Main.main;",
        )
        .unwrap();
        // The call resolved: one static call site exists and targets
        // Base.helper.
        assert_eq!(p.invo_count(), 1);
    }

    #[test]
    fn calling_instance_method_statically_is_reported() {
        let msg = lower_err(
            "class Object {}
             class C : Object { method m() {} }
             class Main : Object { static main() { C.m(); } }
             entry Main.main;",
        );
        assert!(msg.contains("instance method"), "{msg}");
    }

    #[test]
    fn static_call_arity_mismatch_is_reported() {
        let msg = lower_err(
            "class Object {}
             class C : Object { static m(a, b) {} }
             class Main : Object { static main() { x = new Object; C.m(x); } }
             entry Main.main;",
        );
        assert!(msg.contains("expects 2 arguments"), "{msg}");
    }

    #[test]
    fn unknown_receiver_is_reported() {
        let msg = lower_err(
            "class Object {} class Main : Object { static main() { Ghost.m(); } } entry Main.main;",
        );
        assert!(
            msg.contains("neither a local variable nor a class"),
            "{msg}"
        );
    }

    #[test]
    fn multiple_returns_lower_through_synthetic_ret() {
        let p = parse_program(
            "class Object {}
             class Main : Object {
                 static pick(a, b) { return a; return b; }
                 static main() { x = new Object; y = new Object; r = Main.pick(x, y); }
             }
             entry Main.main;",
        )
        .unwrap();
        // pick has a formal return and both returns feed it.
        let pick = p
            .methods()
            .find(|&m| p.method_name(m) == "pick")
            .expect("pick exists");
        assert!(p.formal_return(pick).is_some());
        assert_eq!(p.var_name(p.formal_return(pick).unwrap()), "$ret");
    }

    #[test]
    fn entry_must_be_static_and_known() {
        let msg =
            lower_err("class Object {} class Main : Object { method main() {} } entry Main.main;");
        assert!(msg.contains("must be static"), "{msg}");
        let msg = lower_err("class Object {} entry Object.nothing;");
        assert!(msg.contains("unknown method"), "{msg}");
        let msg = lower_err("class Object {} entry Ghost.main;");
        assert!(msg.contains("unknown class"), "{msg}");
    }

    #[test]
    fn locals_shadow_classes_in_call_position() {
        // A local named like a class: the call must be virtual on the local.
        let p = parse_program(
            "class Object {}
             class Box : Object { method get() { return this; } }
             class Main : Object {
                 static main() {
                     Box = new Box;      // local named Box
                     r = Box.get();      // virtual call on the local
                 }
             }
             entry Main.main;",
        )
        .unwrap();
        use pta_ir::InvoKind;
        let invo = p.invos().next().unwrap();
        assert_eq!(p.invo_kind(invo), InvoKind::Virtual);
    }

    #[test]
    fn duplicate_method_in_class_is_reported() {
        let msg = lower_err("class Object {} class C : Object { static m() {} static m() {} }");
        assert!(msg.contains("declared twice"), "{msg}");
    }

    #[test]
    fn duplicate_class_is_reported() {
        let msg = lower_err("class A {} class A {}");
        assert!(msg.contains("declared twice"), "{msg}");
    }
}

#[cfg(test)]
mod static_field_tests {
    use crate::parse_program;
    use pta_ir::{Instr, ProgramStats};

    const SOURCE: &str = r#"
        class Object {}
        class Registry : Object {
            static field current;
            static publish(x) { Registry.current = x; }
            static consume() { r = Registry.current; return r; }
        }
        class Main : Object {
            static main() {
                v = new Object;
                Registry.publish(v);
                got = Registry.consume();
            }
        }
        entry Main.main;
    "#;

    #[test]
    fn static_fields_parse_and_lower() {
        let p = parse_program(SOURCE).unwrap();
        let s = ProgramStats::of(&p);
        assert_eq!(s.sloads, 1);
        assert_eq!(s.sstores, 1);
        let f = (0..p.field_count())
            .map(pta_ir::FieldId::from_index)
            .find(|&f| p.field_name(f) == "current")
            .unwrap();
        assert!(p.field_is_static(f));
    }

    #[test]
    fn class_receiver_selects_static_access() {
        let p = parse_program(SOURCE).unwrap();
        let publish = p
            .methods()
            .find(|&m| p.method_name(m) == "publish")
            .unwrap();
        assert!(matches!(p.instrs(publish)[0], Instr::SStore { .. }));
        let consume = p
            .methods()
            .find(|&m| p.method_name(m) == "consume")
            .unwrap();
        assert!(matches!(p.instrs(consume)[0], Instr::SLoad { .. }));
    }

    #[test]
    fn instance_access_to_static_field_is_rejected() {
        let err = parse_program(
            r#"
            class Object {}
            class R : Object { static field cell; }
            class Main : Object {
                static main() { r = new R; x = r.cell; }
            }
            entry Main.main;
        "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("static"), "{err}");
    }
}
