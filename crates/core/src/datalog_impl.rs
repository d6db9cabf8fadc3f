//! The paper's Figure 2 rule set, encoded literally on the generic
//! [`pta_datalog`] engine.
//!
//! This back end exists for fidelity and cross-validation: the paper *is* a
//! Datalog specification, and this module is a one-to-one transcription of
//! it. Each input relation of Figure 1 is materialized from the program,
//! the three context constructors are registered as engine *functors*
//! (closures that intern context tuples and return dense IDs), and the nine
//! rules are built with the engine's rule DSL. The module-level constants
//! in the source show each rule next to the paper's text.
//!
//! Differences from the specialized solver ([`crate::solver`]): none in
//! results — the test suites assert identical context-insensitive
//! projections *and* identical context-sensitive tuple counts on every
//! workload. The Datalog back end is typically 10-50x slower, which is
//! exactly the gap between an interpreted join engine and Doop's
//! compiled/indexed rules; the benchmarks in `pta-bench` measure the
//! specialized solver.
//!
//! One extension mirrors the solver: `cast` instructions (absent from the
//! paper's model, but needed for the may-fail-casts client) propagate
//! through a `CompatibleHeap(type, heap)` input relation, matching Doop's
//! `AssignCast` semantics.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use pta_datalog::{Engine, RelId, Term, VerifyReport};
use pta_govern::{Budget, CancelToken};
use pta_ir::hash::{FxHashMap, FxHashSet};
use pta_ir::{FieldId, HeapId, Instr, InvoId, MethodId, Program, TypeId, VarId};

use crate::context::{CtxId, CtxInterner, HCtxId, HCtxInterner};
use crate::policy::ContextPolicy;
use crate::results::{PointsToResult, Projections};

fn v(name: &str) -> Term {
    Term::var(name)
}

/// The Datalog back end behind [`crate::AnalysisSession`]: evaluates
/// Figure 2 under a [`Budget`] checked once per engine round, with
/// optional cooperative cancellation.
///
/// On exhaustion the result is tagged with the tripped
/// [`pta_govern::Termination`] and holds the sound fixpoint prefix the
/// engine had derived (every projection is a subset of the complete
/// run's). This back end does not degrade — graceful degradation is a
/// solver-side strategy — so `PointsToResult::demoted_sites` is always
/// empty here.
///
/// `profile` opts into a per-rule evaluation profile: when set the
/// engine runs through
/// [`pta_datalog::Engine::run_profiled`] and the result carries a
/// [`pta_obs::Profile`] whose rule rows are the Figure 2 rule labels
/// (`alloc`, `move`, `vcall`, …) rather than the dense solver's fixed
/// rule slots.
pub(crate) fn run_datalog_opt<P>(
    program: &Program,
    policy: &P,
    budget: &Budget,
    cancel: Option<&CancelToken>,
    profile: bool,
) -> PointsToResult
where
    P: ContextPolicy + Clone + 'static,
{
    let Fig2Engine {
        mut e,
        vpt,
        call_graph,
        reachable,
        throw_pts,
        fld_pts,
        static_fld_pts,
        ctxs,
        hctxs,
    } = build_figure2(program, policy);

    // ----- verify, run, extract ------------------------------------------
    // The rule-program verifier is the engine's pre-flight check: safety
    // or schema errors mean the encoding above is broken, and evaluating
    // it would silently produce garbage. Warnings (dead rules, unused
    // relations) are tolerated — small programs legitimately leave parts
    // of Figure 2 inert (e.g. no static calls anywhere).
    let report = e.verify();
    assert!(
        !report.has_errors(),
        "datalog rule program failed verification:\n{report}"
    );
    let (stats, rule_prof) = if profile {
        let (stats, prof) = e.run_profiled(budget, cancel);
        (stats, Some(prof))
    } else {
        (e.run_governed(budget, cancel), None)
    };

    let mut var_points_to: FxHashMap<VarId, Vec<HeapId>> = FxHashMap::default();
    {
        let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
        for row in e.rows(vpt) {
            let (var, heap) = (row.get(0), row.get(2));
            if seen.insert((var, heap)) {
                var_points_to
                    .entry(VarId::from_raw(var))
                    .or_default()
                    .push(HeapId::from_raw(heap));
            }
        }
    }
    for vals in var_points_to.values_mut() {
        vals.sort_unstable();
    }

    let mut call_targets: FxHashMap<InvoId, Vec<MethodId>> = FxHashMap::default();
    let mut cg_insens: FxHashSet<(InvoId, MethodId)> = FxHashSet::default();
    for row in e.rows(call_graph) {
        let (invo, meth) = (InvoId::from_raw(row.get(0)), MethodId::from_raw(row.get(2)));
        if cg_insens.insert((invo, meth)) {
            call_targets.entry(invo).or_default().push(meth);
        }
    }
    for vals in call_targets.values_mut() {
        vals.sort_unstable();
    }

    let mut reachable_set: FxHashSet<MethodId> = FxHashSet::default();
    for row in e.rows(reachable) {
        reachable_set.insert(MethodId::from_raw(row.get(0)));
    }

    let ctx_interner = Rc::try_unwrap(ctxs)
        .map(RefCell::into_inner)
        .unwrap_or_else(|rc| {
            // Functors still hold clones of the Rc (they live in the
            // engine, dropped above — but `e` is still alive here), so fall
            // back to reconstructing by cloning the contents.
            clone_ctx_interner(&rc.borrow())
        });
    let hctx_interner = Rc::try_unwrap(hctxs)
        .map(RefCell::into_inner)
        .unwrap_or_else(|rc| clone_hctx_interner(&rc.borrow()));

    let mut uncaught: Vec<HeapId> = {
        let entries: FxHashSet<u32> = program.entry_points().iter().map(|m| m.raw()).collect();
        let mut set: FxHashSet<HeapId> = FxHashSet::default();
        for row in e.rows(throw_pts) {
            if entries.contains(&row.get(0)) {
                set.insert(HeapId::from_raw(row.get(2)));
            }
        }
        set.into_iter().collect()
    };
    uncaught.sort_unstable();

    // Context-insensitive heap-graph projections, matching the dense
    // solver's field/static views byte for byte.
    let mut field_points_to: FxHashMap<(HeapId, FieldId), Vec<HeapId>> = FxHashMap::default();
    {
        let mut seen: FxHashSet<(u32, u32, u32)> = FxHashSet::default();
        for row in e.rows(fld_pts) {
            let (base, fld, heap) = (row.get(0), row.get(2), row.get(3));
            if seen.insert((base, fld, heap)) {
                field_points_to
                    .entry((HeapId::from_raw(base), FieldId::from_raw(fld)))
                    .or_default()
                    .push(HeapId::from_raw(heap));
            }
        }
    }
    for vals in field_points_to.values_mut() {
        vals.sort_unstable();
    }
    let mut static_points_to: FxHashMap<FieldId, Vec<HeapId>> = FxHashMap::default();
    {
        let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
        for row in e.rows(static_fld_pts) {
            let (fld, heap) = (row.get(0), row.get(1));
            if seen.insert((fld, heap)) {
                static_points_to
                    .entry(FieldId::from_raw(fld))
                    .or_default()
                    .push(HeapId::from_raw(heap));
            }
        }
    }
    for vals in static_points_to.values_mut() {
        vals.sort_unstable();
    }

    let profile_box = rule_prof.map(|prof| {
        let rules = prof
            .into_iter()
            .map(|r| pta_obs::RuleStat {
                name: r.label,
                fires: r.fires,
                derived: r.derived,
                ns: r.ns,
            })
            .collect();
        let mut sizes: Vec<(usize, VarId)> = var_points_to
            .iter()
            .map(|(&v, heaps)| (heaps.len(), v))
            .collect();
        sizes.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let hot_vars = sizes
            .into_iter()
            .take(10)
            .map(|(len, v)| pta_obs::HotVar {
                name: format!(
                    "{}::{}",
                    program.method_qualified_name(program.var_method(v)),
                    program.var_name(v)
                ),
                size: len as u64,
            })
            .collect();
        Box::new(pta_obs::Profile {
            rules,
            hot_vars,
            // `PtsSet` stage promotions are a dense-solver concept; the
            // generic engine's relations have no staged representation.
            set_promotions: 0,
        })
    });

    // The generic engine's evaluation shape (fixpoint rounds, strata,
    // total rows) folds into the uniform counter block; the dense
    // solver's own counters stay zero for this back end.
    let solver_stats = crate::results::SolverStats {
        engine_rounds: stats.rounds as u64,
        engine_strata: stats.strata as u64,
        engine_rows: stats.total_rows as u64,
        ..crate::results::SolverStats::default()
    };

    PointsToResult {
        proj: Arc::new(Projections {
            var_points_to,
            call_targets,
            reachable: reachable_set,
            field_points_to,
            static_points_to,
        }),
        call_graph_edges: cg_insens.len(),
        ctx_vpt_count: e.len(vpt) as u64,
        ctx_call_graph_edges: e.len(call_graph) as u64,
        ctx_reachable_count: e.len(reachable) as u64,
        ctx_count: ctx_interner.len(),
        hctx_count: hctx_interner.len(),
        tuples: None,
        provenance: None,
        fld_provenance: None,
        static_fld_provenance: None,
        uncaught,
        ctx_interner,
        hctx_interner,
        stats: solver_stats,
        shard_stats: Vec::new(),
        termination: stats.termination,
        // This back end never degrades contexts mid-run.
        demoted: Vec::new(),
        profile: profile_box,
    }
}

/// Runs only the pre-flight verifier over the literal Figure 2 rule set as
/// assembled for `program` — no evaluation. Exposed so tests (and curious
/// operators) can inspect the safety/strata report for the exact rule
/// program the Datalog back end would execute.
pub fn verify_figure2<P>(program: &Program, policy: &P) -> VerifyReport
where
    P: ContextPolicy + Clone + 'static,
{
    build_figure2(program, policy).e.verify()
}

/// The assembled Figure 2 engine plus the handles result extraction needs.
struct Fig2Engine {
    e: Engine,
    vpt: RelId,
    call_graph: RelId,
    reachable: RelId,
    throw_pts: RelId,
    fld_pts: RelId,
    static_fld_pts: RelId,
    ctxs: Rc<RefCell<CtxInterner>>,
    hctxs: Rc<RefCell<HCtxInterner>>,
}

/// Registers the Figure 1 relations and context functors, materializes the
/// input facts from `program`, and builds the nine rules of Figure 2 —
/// everything short of evaluating.
fn build_figure2<P>(program: &Program, policy: &P) -> Fig2Engine
where
    P: ContextPolicy + Clone + 'static,
{
    let mut e = Engine::new();

    // ----- input relations (Figure 1) -----------------------------------
    let alloc = e.relation("Alloc", 3); // (var, heap, inMeth)
    let mov = e.relation("Move", 2); // (to, from)
    let cast_move = e.relation("CastMove", 3); // (to, from, ty)
    let compatible = e.relation("CompatibleHeap", 2); // (ty, heap)
    let load = e.relation("Load", 3); // (to, base, fld)
    let store = e.relation("Store", 3); // (base, fld, from)
    let throw_stmt = e.relation("ThrowStmt", 2); // (meth, var)
    let catches_into = e.relation("CatchesInto", 3); // (meth, heap, binder)
    let uncaught_by = e.relation("UncaughtBy", 2); // (meth, heap) for meths WITH clauses
    let no_catches = e.relation("NoCatches", 1); // (meth)
    let invo_meth = e.relation("InvoMeth", 2); // (invo, meth)
    let sload = e.relation("SLoad", 3); // (to, fld, inMeth)
    let sstore = e.relation("SStore", 2); // (fld, from)
    let vcall = e.relation("VCall", 4); // (base, sig, invo, inMeth)
    let scall = e.relation("SCall", 3); // (meth, invo, inMeth)
    let formal_arg = e.relation("FormalArg", 3); // (meth, i, arg)
    let actual_arg = e.relation("ActualArg", 3); // (invo, i, arg)
    let formal_ret = e.relation("FormalReturn", 2); // (meth, ret)
    let actual_ret = e.relation("ActualReturn", 2); // (invo, var)
    let this_var = e.relation("ThisVar", 2); // (meth, this)
    let heap_type = e.relation("HeapType", 2); // (heap, type)
    let lookup = e.relation("Lookup", 3); // (type, sig, meth)

    // ----- output / intermediate relations (Figure 1) --------------------
    let vpt = e.relation("VarPointsTo", 4); // (var, ctx, heap, hctx)
    let call_graph = e.relation("CallGraph", 4); // (invo, callerCtx, meth, calleeCtx)
    let fld_pts = e.relation("FldPointsTo", 5); // (baseH, baseHCtx, fld, heap, hctx)
    let static_fld_pts = e.relation("StaticFldPointsTo", 3); // (fld, heap, hctx)
    let incoming_exc = e.relation("IncomingException", 4); // (meth, ctx, heap, hctx)
    let throw_pts = e.relation("ThrowPointsTo", 4); // (meth, ctx, heap, hctx)
    let ipa = e.relation("InterProcAssign", 4); // (to, toCtx, from, fromCtx)
    let reachable = e.relation("Reachable", 2); // (meth, ctx)

    // ----- context constructor functors ----------------------------------
    let ctxs = Rc::new(RefCell::new(CtxInterner::new()));
    let hctxs = Rc::new(RefCell::new(HCtxInterner::new()));
    let shared_program = Rc::new(program.clone());

    let record = {
        let ctxs = Rc::clone(&ctxs);
        let hctxs = Rc::clone(&hctxs);
        let program = Rc::clone(&shared_program);
        let policy = policy.clone();
        e.functor(
            "Record",
            Box::new(move |args: &[u32]| {
                let heap = HeapId::from_raw(args[0]);
                let ctx = ctxs.borrow().resolve(CtxId::from_raw(args[1]));
                let elem = policy.record(heap, ctx, &program);
                hctxs.borrow_mut().intern(elem).raw()
            }),
        )
    };
    let merge = {
        let ctxs = Rc::clone(&ctxs);
        let hctxs = Rc::clone(&hctxs);
        let program = Rc::clone(&shared_program);
        let policy = policy.clone();
        e.functor(
            "Merge",
            Box::new(move |args: &[u32]| {
                let heap = HeapId::from_raw(args[0]);
                let hctx = hctxs.borrow().resolve(HCtxId::from_raw(args[1]));
                let invo = InvoId::from_raw(args[2]);
                let ctx = ctxs.borrow().resolve(CtxId::from_raw(args[3]));
                let out = policy.merge(heap, hctx, invo, ctx, &program);
                ctxs.borrow_mut().intern(out).raw()
            }),
        )
    };
    let merge_static = {
        let ctxs = Rc::clone(&ctxs);
        let program = Rc::clone(&shared_program);
        let policy = policy.clone();
        e.functor(
            "MergeStatic",
            Box::new(move |args: &[u32]| {
                let invo = InvoId::from_raw(args[0]);
                let ctx = ctxs.borrow().resolve(CtxId::from_raw(args[1]));
                let out = policy.merge_static(invo, ctx, &program);
                ctxs.borrow_mut().intern(out).raw()
            }),
        )
    };

    // ----- materialize input facts ---------------------------------------
    let mut cast_types: FxHashSet<TypeId> = FxHashSet::default();
    for m in program.methods() {
        let mid = m.raw();
        for (i, &formal) in program.formals(m).iter().enumerate() {
            e.fact(formal_arg, &[mid, i as u32, formal.raw()]);
        }
        if let Some(t) = program.this_var(m) {
            e.fact(this_var, &[mid, t.raw()]);
        }
        if let Some(r) = program.formal_return(m) {
            e.fact(formal_ret, &[mid, r.raw()]);
        }
        for instr in program.instrs(m) {
            match *instr {
                Instr::Alloc { var, heap } => {
                    e.fact(alloc, &[var.raw(), heap.raw(), mid]);
                }
                Instr::Move { to, from } => {
                    e.fact(mov, &[to.raw(), from.raw()]);
                }
                Instr::Cast { to, from, ty } => {
                    e.fact(cast_move, &[to.raw(), from.raw(), ty.raw()]);
                    cast_types.insert(ty);
                }
                Instr::Load { to, base, field } => {
                    e.fact(load, &[to.raw(), base.raw(), field.raw()]);
                }
                Instr::Store { base, field, from } => {
                    e.fact(store, &[base.raw(), field.raw(), from.raw()]);
                }
                Instr::SLoad { to, field } => {
                    e.fact(sload, &[to.raw(), field.raw(), mid]);
                }
                Instr::SStore { field, from } => {
                    e.fact(sstore, &[field.raw(), from.raw()]);
                }
                Instr::VCall { base, sig, invo } => {
                    e.fact(vcall, &[base.raw(), sig.raw(), invo.raw(), mid]);
                }
                Instr::SCall { target, invo } => {
                    e.fact(scall, &[target.raw(), invo.raw(), mid]);
                }
                Instr::Throw { var } => {
                    e.fact(throw_stmt, &[mid, var.raw()]);
                }
            }
        }
        // Exception catchability tables (precomputed, standing in for
        // negation: `UncaughtBy` is the complement of the clause matches
        // for methods that have clauses; `NoCatches` covers the rest).
        if program.catches(m).is_empty() {
            e.fact(no_catches, &[mid]);
        } else {
            for h in program.heaps() {
                let ht = program.heap_type(h);
                let mut any = false;
                for &(ty, binder) in program.catches(m) {
                    if program.is_subtype(ht, ty) {
                        e.fact(catches_into, &[mid, h.raw(), binder.raw()]);
                        any = true;
                    }
                }
                if !any {
                    e.fact(uncaught_by, &[mid, h.raw()]);
                }
            }
        }
    }
    for i in program.invos() {
        e.fact(invo_meth, &[i.raw(), program.invo_method(i).raw()]);
        for (k, &arg) in program.actual_args(i).iter().enumerate() {
            e.fact(actual_arg, &[i.raw(), k as u32, arg.raw()]);
        }
        if let Some(r) = program.actual_return(i) {
            e.fact(actual_ret, &[i.raw(), r.raw()]);
        }
    }
    for h in program.heaps() {
        e.fact(heap_type, &[h.raw(), program.heap_type(h).raw()]);
        for &ty in &cast_types {
            if program.is_subtype(program.heap_type(h), ty) {
                e.fact(compatible, &[ty.raw(), h.raw()]);
            }
        }
    }
    for t in program.types() {
        for (sig, meth) in program.hierarchy().dispatch_entries(t) {
            e.fact(lookup, &[t.raw(), sig.raw(), meth.raw()]);
        }
    }
    for &entry in program.entry_points() {
        e.fact(reachable, &[entry.raw(), CtxId::INITIAL.raw()]);
    }

    // ----- the nine rules of Figure 2 ------------------------------------

    // InterProcAssign(to, calleeCtx, from, callerCtx) <-
    //     CallGraph(invo, callerCtx, meth, calleeCtx),
    //     FormalArg(meth, i, to), ActualArg(invo, i, from).
    e.rule()
        .label("ipa-args")
        .head(ipa, &[v("to"), v("calleeCtx"), v("from"), v("callerCtx")])
        .atom(
            call_graph,
            &[v("invo"), v("callerCtx"), v("meth"), v("calleeCtx")],
        )
        .atom(formal_arg, &[v("meth"), v("i"), v("to")])
        .atom(actual_arg, &[v("invo"), v("i"), v("from")])
        .build()
        .expect("ipa-args rule");

    // InterProcAssign(to, callerCtx, from, calleeCtx) <-
    //     CallGraph(invo, callerCtx, meth, calleeCtx),
    //     FormalReturn(meth, from), ActualReturn(invo, to).
    e.rule()
        .label("ipa-return")
        .head(ipa, &[v("to"), v("callerCtx"), v("from"), v("calleeCtx")])
        .atom(
            call_graph,
            &[v("invo"), v("callerCtx"), v("meth"), v("calleeCtx")],
        )
        .atom(formal_ret, &[v("meth"), v("from")])
        .atom(actual_ret, &[v("invo"), v("to")])
        .build()
        .expect("ipa-return rule");

    // Record(heap, ctx) = hctx,
    // VarPointsTo(var, ctx, heap, hctx) <-
    //     Reachable(meth, ctx), Alloc(var, heap, meth).
    e.rule()
        .label("alloc")
        .head(vpt, &[v("var"), v("ctx"), v("heap"), v("hctx")])
        .atom(reachable, &[v("meth"), v("ctx")])
        .atom(alloc, &[v("var"), v("heap"), v("meth")])
        .bind(record, &[v("heap"), v("ctx")], "hctx")
        .build()
        .expect("alloc rule");

    // VarPointsTo(to, ctx, heap, hctx) <-
    //     Move(to, from), VarPointsTo(from, ctx, heap, hctx).
    e.rule()
        .label("move")
        .head(vpt, &[v("to"), v("ctx"), v("heap"), v("hctx")])
        .atom(mov, &[v("to"), v("from")])
        .atom(vpt, &[v("from"), v("ctx"), v("heap"), v("hctx")])
        .build()
        .expect("move rule");

    // Cast extension (Doop's AssignCast): propagate only compatible heaps.
    e.rule()
        .label("cast")
        .head(vpt, &[v("to"), v("ctx"), v("heap"), v("hctx")])
        .atom(cast_move, &[v("to"), v("from"), v("ty")])
        .atom(vpt, &[v("from"), v("ctx"), v("heap"), v("hctx")])
        .atom(compatible, &[v("ty"), v("heap")])
        .build()
        .expect("cast rule");

    // VarPointsTo(to, toCtx, heap, hctx) <-
    //     InterProcAssign(to, toCtx, from, fromCtx),
    //     VarPointsTo(from, fromCtx, heap, hctx).
    e.rule()
        .label("interproc")
        .head(vpt, &[v("to"), v("toCtx"), v("heap"), v("hctx")])
        .atom(ipa, &[v("to"), v("toCtx"), v("from"), v("fromCtx")])
        .atom(vpt, &[v("from"), v("fromCtx"), v("heap"), v("hctx")])
        .build()
        .expect("interproc rule");

    // VarPointsTo(to, ctx, heap, hctx) <-
    //     Load(to, base, fld), VarPointsTo(base, ctx, baseH, baseHCtx),
    //     FldPointsTo(baseH, baseHCtx, fld, heap, hctx).
    e.rule()
        .label("load")
        .head(vpt, &[v("to"), v("ctx"), v("heap"), v("hctx")])
        .atom(load, &[v("to"), v("base"), v("fld")])
        .atom(vpt, &[v("base"), v("ctx"), v("baseH"), v("baseHCtx")])
        .atom(
            fld_pts,
            &[v("baseH"), v("baseHCtx"), v("fld"), v("heap"), v("hctx")],
        )
        .build()
        .expect("load rule");

    // FldPointsTo(baseH, baseHCtx, fld, heap, hctx) <-
    //     Store(base, fld, from), VarPointsTo(from, ctx, heap, hctx),
    //     VarPointsTo(base, ctx, baseH, baseHCtx).
    e.rule()
        .label("store")
        .head(
            fld_pts,
            &[v("baseH"), v("baseHCtx"), v("fld"), v("heap"), v("hctx")],
        )
        .atom(store, &[v("base"), v("fld"), v("from")])
        .atom(vpt, &[v("from"), v("ctx"), v("heap"), v("hctx")])
        .atom(vpt, &[v("base"), v("ctx"), v("baseH"), v("baseHCtx")])
        .build()
        .expect("store rule");

    // Static fields (full-Doop extension; global cells):
    // StaticFldPointsTo(fld, heap, hctx) <-
    //     SStore(fld, from), VarPointsTo(from, ctx, heap, hctx).
    e.rule()
        .label("sstore")
        .head(static_fld_pts, &[v("fld"), v("heap"), v("hctx")])
        .atom(sstore, &[v("fld"), v("from")])
        .atom(vpt, &[v("from"), v("ctx"), v("heap"), v("hctx")])
        .build()
        .expect("sstore rule");

    // VarPointsTo(to, ctx, heap, hctx) <-
    //     SLoad(to, fld, inMeth), Reachable(inMeth, ctx),
    //     StaticFldPointsTo(fld, heap, hctx).
    e.rule()
        .label("sload")
        .head(vpt, &[v("to"), v("ctx"), v("heap"), v("hctx")])
        .atom(sload, &[v("to"), v("fld"), v("inMeth")])
        .atom(reachable, &[v("inMeth"), v("ctx")])
        .atom(static_fld_pts, &[v("fld"), v("heap"), v("hctx")])
        .build()
        .expect("sload rule");

    // Merge(heap, hctx, invo, callerCtx) = calleeCtx,
    // Reachable(toMeth, calleeCtx),
    // VarPointsTo(this, calleeCtx, heap, hctx),
    // CallGraph(invo, callerCtx, toMeth, calleeCtx) <-
    //     VCall(base, sig, invo, inMeth), Reachable(inMeth, callerCtx),
    //     VarPointsTo(base, callerCtx, heap, hctx),
    //     HeapType(heap, heapT), Lookup(heapT, sig, toMeth),
    //     ThisVar(toMeth, this).
    e.rule()
        .label("vcall")
        .head(reachable, &[v("toMeth"), v("calleeCtx")])
        .head(vpt, &[v("this"), v("calleeCtx"), v("heap"), v("hctx")])
        .head(
            call_graph,
            &[v("invo"), v("callerCtx"), v("toMeth"), v("calleeCtx")],
        )
        .atom(vcall, &[v("base"), v("sig"), v("invo"), v("inMeth")])
        .atom(reachable, &[v("inMeth"), v("callerCtx")])
        .atom(vpt, &[v("base"), v("callerCtx"), v("heap"), v("hctx")])
        .atom(heap_type, &[v("heap"), v("heapT")])
        .atom(lookup, &[v("heapT"), v("sig"), v("toMeth")])
        .atom(this_var, &[v("toMeth"), v("this")])
        .bind(
            merge,
            &[v("heap"), v("hctx"), v("invo"), v("callerCtx")],
            "calleeCtx",
        )
        .build()
        .expect("vcall rule");

    // MergeStatic(invo, callerCtx) = calleeCtx,
    // Reachable(toMeth, calleeCtx),
    // CallGraph(invo, callerCtx, toMeth, calleeCtx) <-
    //     SCall(toMeth, invo, inMeth), Reachable(inMeth, callerCtx).
    e.rule()
        .label("scall")
        .head(reachable, &[v("toMeth"), v("calleeCtx")])
        .head(
            call_graph,
            &[v("invo"), v("callerCtx"), v("toMeth"), v("calleeCtx")],
        )
        .atom(scall, &[v("toMeth"), v("invo"), v("inMeth")])
        .atom(reachable, &[v("inMeth"), v("callerCtx")])
        .bind(merge_static, &[v("invo"), v("callerCtx")], "calleeCtx")
        .build()
        .expect("scall rule");

    // Exceptions (full-Doop extension):
    // IncomingException(m, ctx, h, hc) <-
    //     ThrowStmt(m, var), VarPointsTo(var, ctx, h, hc).
    e.rule()
        .label("throw-own")
        .head(incoming_exc, &[v("m"), v("ctx"), v("h"), v("hc")])
        .atom(throw_stmt, &[v("m"), v("var")])
        .atom(vpt, &[v("var"), v("ctx"), v("h"), v("hc")])
        .build()
        .expect("throw-own rule");
    // IncomingException(caller, callerCtx, h, hc) <-
    //     CallGraph(invo, callerCtx, callee, calleeCtx), InvoMeth(invo, caller),
    //     ThrowPointsTo(callee, calleeCtx, h, hc).
    e.rule()
        .label("throw-propagate")
        .head(
            incoming_exc,
            &[v("caller"), v("callerCtx"), v("h"), v("hc")],
        )
        .atom(
            call_graph,
            &[v("invo"), v("callerCtx"), v("callee"), v("calleeCtx")],
        )
        .atom(invo_meth, &[v("invo"), v("caller")])
        .atom(throw_pts, &[v("callee"), v("calleeCtx"), v("h"), v("hc")])
        .build()
        .expect("throw-propagate rule");
    // VarPointsTo(binder, ctx, h, hc) <-
    //     IncomingException(m, ctx, h, hc), CatchesInto(m, h, binder).
    e.rule()
        .label("catch")
        .head(vpt, &[v("binder"), v("ctx"), v("h"), v("hc")])
        .atom(incoming_exc, &[v("m"), v("ctx"), v("h"), v("hc")])
        .atom(catches_into, &[v("m"), v("h"), v("binder")])
        .build()
        .expect("catch rule");
    // ThrowPointsTo(m, ctx, h, hc) <-
    //     IncomingException(m, ctx, h, hc), UncaughtBy(m, h).
    e.rule()
        .label("escape-with-clauses")
        .head(throw_pts, &[v("m"), v("ctx"), v("h"), v("hc")])
        .atom(incoming_exc, &[v("m"), v("ctx"), v("h"), v("hc")])
        .atom(uncaught_by, &[v("m"), v("h")])
        .build()
        .expect("escape rule");
    // ThrowPointsTo(m, ctx, h, hc) <-
    //     IncomingException(m, ctx, h, hc), NoCatches(m).
    e.rule()
        .label("escape-no-clauses")
        .head(throw_pts, &[v("m"), v("ctx"), v("h"), v("hc")])
        .atom(incoming_exc, &[v("m"), v("ctx"), v("h"), v("hc")])
        .atom(no_catches, &[v("m")])
        .build()
        .expect("escape-no-clauses rule");

    Fig2Engine {
        e,
        vpt,
        call_graph,
        reachable,
        throw_pts,
        fld_pts,
        static_fld_pts,
        ctxs,
        hctxs,
    }
}

fn clone_ctx_interner(src: &CtxInterner) -> CtxInterner {
    let mut out = CtxInterner::new();
    for i in 0..src.len() {
        out.intern(src.resolve(CtxId::from_raw(i as u32)));
    }
    out
}

fn clone_hctx_interner(src: &HCtxInterner) -> HCtxInterner {
    let mut out = HCtxInterner::new();
    for i in 0..src.len() {
        out.intern(src.resolve(HCtxId::from_raw(i as u32)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Analysis;
    use crate::session::{AnalysisSession, Backend};
    use pta_ir::ProgramBuilder;

    /// Box container program: two boxes, two payloads, store/load.
    fn box_program() -> (Program, [VarId; 2]) {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let boxc = b.class("Box", Some(object));
        let f = b.field(boxc, "value");
        let set = b.method(boxc, "set", &["v"], false);
        let set_this = b.this(set).unwrap();
        let set_v = b.formals(set)[0];
        b.store(set, set_this, f, set_v);
        let get = b.method(boxc, "get", &[], false);
        let get_this = b.this(get).unwrap();
        let get_r = b.var(get, "r");
        b.load(get, get_r, get_this, f);
        b.set_return(get, get_r);
        let main = b.method(boxc, "main", &[], true);
        let (b1, b2) = (b.var(main, "b1"), b.var(main, "b2"));
        let (p1, p2) = (b.var(main, "p1"), b.var(main, "p2"));
        let (r1, r2) = (b.var(main, "r1"), b.var(main, "r2"));
        b.alloc(main, b1, boxc, "box1");
        b.alloc(main, b2, boxc, "box2");
        b.alloc(main, p1, object, "payload1");
        b.alloc(main, p2, object, "payload2");
        b.vcall(main, b1, "set", &[p1], None, "b1.set");
        b.vcall(main, b2, "set", &[p2], None, "b2.set");
        b.vcall(main, b1, "get", &[], Some(r1), "b1.get");
        b.vcall(main, b2, "get", &[], Some(r2), "b2.get");
        b.entry_point(main);
        (b.finish().unwrap(), [r1, r2])
    }

    #[test]
    fn datalog_matches_solver_on_box_program() {
        let (p, [r1, r2]) = box_program();
        for analysis in [Analysis::Insens, Analysis::OneObj, Analysis::STwoObjH] {
            let fast = AnalysisSession::open(p.clone()).policy(analysis).solve();
            let slow = AnalysisSession::open(p.clone())
                .policy(analysis)
                .backend(Backend::Datalog)
                .solve();
            for var in p.vars() {
                assert_eq!(
                    fast.points_to(var),
                    slow.points_to(var),
                    "{analysis}: mismatch at {var:?}"
                );
            }
            assert_eq!(fast.call_graph_edge_count(), slow.call_graph_edge_count());
            assert_eq!(
                fast.ctx_var_points_to_count(),
                slow.ctx_var_points_to_count()
            );
            assert_eq!(fast.reachable_method_count(), slow.reachable_method_count());
        }
        // And the object-sensitive analysis is actually precise here.
        let obj = AnalysisSession::open(p.clone())
            .policy(Analysis::OneObj)
            .backend(Backend::Datalog)
            .solve();
        assert_eq!(obj.points_to(r1).len(), 1);
        assert_eq!(obj.points_to(r2).len(), 1);
        let insens = AnalysisSession::open(p).backend(Backend::Datalog).solve();
        assert_eq!(insens.points_to(r1).len(), 2);
    }
}
