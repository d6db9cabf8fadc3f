//! Analysis results: the `VarPointsTo` and `CallGraph` output relations of
//! the paper's Figure 1, plus the counters its evaluation reports.
//!
//! Results store the *context-insensitive projections* (variable → heap
//! abstractions, invocation site → callees, reachable methods) that the
//! paper's precision metrics are defined over, together with the
//! context-sensitive cardinalities that are its performance metrics — most
//! importantly the total size of context-sensitive var-points-to, "the
//! foremost internal complexity metric of a points-to analysis" (§4.2).
//! The full context-sensitive tuple set can optionally be retained
//! (see `SolverConfig::keep_tuples`) for clients that inspect per-context
//! facts, such as the `quickstart` example.

use std::sync::Arc;

use pta_govern::Termination;
use pta_ir::hash::{FxHashMap, FxHashSet};
use pta_ir::{FieldId, HeapId, InvoId, MethodId, Program, VarId};

use crate::context::{Ctx, CtxId, CtxInterner, HCtxId, HCtxInterner, HeapCtx};

/// One method demoted to its policy's context-insensitive fallback by
/// graceful degradation (`SolverConfig::degrade`): its context fan-out
/// crossed the budget watermark, so every later call edge into it reuses
/// the demoted context instead of minting fresh ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemotedSite {
    /// The demoted method.
    pub method: MethodId,
    /// The context fan-out the method had reached when it was demoted.
    pub fanout: u32,
}

/// One retained context-sensitive points-to tuple.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct CtxVarPointsTo {
    /// The variable.
    pub var: VarId,
    /// The variable's qualifying context.
    pub ctx: CtxId,
    /// The heap abstraction pointed to.
    pub heap: HeapId,
    /// The heap abstraction's qualifying heap context.
    pub hctx: HCtxId,
}

/// How a context-sensitive points-to tuple was first derived, for
/// [`PointsToResult::explain`]. Recorded only under
/// `SolverConfig::track_provenance`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Derivation {
    /// The allocation rule: the variable is directly assigned the `new`.
    Alloc,
    /// Copied by a `move`/`cast` from another tuple.
    Assign {
        /// The source tuple.
        from: CtxVarPointsTo,
    },
    /// Propagated across a call boundary (parameter or return passing).
    InterProc {
        /// The source tuple.
        from: CtxVarPointsTo,
    },
    /// Loaded from a field of a base object.
    Load {
        /// The tuple through which the base object was reached.
        base: CtxVarPointsTo,
        /// The field read.
        field: FieldId,
    },
    /// The receiver (`this`) binding performed by the virtual-call rule.
    ThisBinding {
        /// The invocation site that bound the receiver.
        invo: InvoId,
    },
    /// Loaded from a static field (a global, context-insensitive cell).
    StaticLoad {
        /// The static field read.
        field: FieldId,
    },
    /// Bound by a catch clause (the object arrived as a thrown exception).
    Caught,
}

/// Key of an instance-field provenance entry:
/// `(baseHeap, baseHeapCtx, field, valueHeap, valueHeapCtx)`.
type FldProvKey = (HeapId, HCtxId, FieldId, HeapId, HCtxId);

/// Cheap, always-on solver counters: rule firings per Figure 2 rule,
/// insertion/deduplication traffic, worklist shape, and interner sizes.
///
/// Every counter is a plain `u64` increment on the solver hot path (no
/// branching on a "stats enabled" flag), so the numbers are available for
/// every run: `pta analyze --stats` prints them and `pta-bench --json`
/// writes them into each experiment row. Firing counters count *attempted*
/// derivations (the tuple may already exist); `vpt_inserted` /
/// `vpt_dup` split those attempts into new tuples and dedup hits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// `VarPointsTo` tuples actually inserted (equals the final
    /// context-sensitive tuple count).
    pub vpt_inserted: u64,
    /// `VarPointsTo` derivation attempts that hit an existing tuple.
    pub vpt_dup: u64,
    /// Alloc-rule firings (`VarPointsTo <- Reachable, Alloc`).
    pub fire_alloc: u64,
    /// Move/Cast firings (`VarPointsTo <- Move, VarPointsTo`).
    pub fire_assign: u64,
    /// Inter-procedural firings (`VarPointsTo <- InterProcAssign, VarPointsTo`).
    pub fire_interproc: u64,
    /// Load firings (`VarPointsTo <- Load, VarPointsTo, FldPointsTo`).
    pub fire_load: u64,
    /// Store firings (`FldPointsTo <- Store, VarPointsTo, VarPointsTo`).
    pub fire_store: u64,
    /// Static-load firings (`VarPointsTo <- Reachable, SLoad, StaticFld`).
    pub fire_static_load: u64,
    /// Static-store firings (`StaticFldPointsTo <- SStore, VarPointsTo`).
    pub fire_static_store: u64,
    /// Receiver (`this`) bindings at virtual call sites.
    pub fire_this_binding: u64,
    /// Virtual-dispatch attempts (one per new receiver object per site).
    pub fire_vcall_dispatch: u64,
    /// Exception tuples bound by catch clauses.
    pub fire_caught: u64,
    /// `ThrowPointsTo` tuples (exceptions escaping a method+context).
    pub throw_tuples: u64,
    /// `FldPointsTo` tuples actually inserted.
    pub fld_inserted: u64,
    /// Context-sensitive call-graph edges added.
    pub call_edges: u64,
    /// `InterProcAssign` edges installed.
    pub ipa_edges: u64,
    /// `(key, delta)` batches drained from the worklist.
    pub batches: u64,
    /// Maximum depth the key worklist reached.
    pub peak_worklist: u64,
    /// Distinct calling contexts interned.
    pub contexts: u64,
    /// Distinct heap contexts interned.
    pub heap_contexts: u64,
    /// Distinct `(heap, heap-context)` objects interned.
    pub objects: u64,
    /// Fixpoint steps executed (worklist pops; the unit `--max-steps`
    /// budgets are measured in).
    pub steps: u64,
    /// Methods demoted to the context-insensitive fallback by graceful
    /// degradation.
    pub demoted_methods: u64,
    /// Bulk-synchronous rounds executed by the parallel solver (0 for
    /// sequential runs).
    pub par_rounds: u64,
    /// Cross-shard messages sent by the parallel solver (0 for
    /// sequential runs).
    pub par_msgs: u64,
    /// Distinct large-set representations interned by the hash-consing
    /// store (0 under `--no-share`).
    pub sets_interned: u64,
    /// Intern probes that unified with an existing representation — each
    /// one is a set now sharing storage instead of duplicating it.
    pub sets_shared: u64,
    /// Bytes of duplicate set representations avoided by unification.
    pub bytes_saved: u64,
    /// Superseded shared representations evicted from the hash-consing
    /// store after an overlay flush replaced them (0 under `--no-share`).
    pub sets_evicted: u64,
    /// Fixpoint rounds executed by the Datalog engine (0 for dense runs).
    pub engine_rounds: u64,
    /// Strata executed by the Datalog engine (0 for dense runs).
    pub engine_strata: u64,
    /// Total rows derived by the Datalog engine, including input facts
    /// (0 for dense runs).
    pub engine_rows: u64,
}

impl SolverStats {
    /// Fraction of `VarPointsTo` derivation attempts that hit an existing
    /// tuple (0.0 when nothing was attempted).
    #[must_use]
    pub fn dedup_hit_rate(&self) -> f64 {
        let attempts = self.vpt_inserted + self.vpt_dup;
        if attempts == 0 {
            0.0
        } else {
            self.vpt_dup as f64 / attempts as f64
        }
    }

    /// `(name, value)` view over every counter, in a stable order — the
    /// single source of truth for both the text and JSON renderings.
    #[must_use]
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("vpt_inserted", self.vpt_inserted),
            ("vpt_dup", self.vpt_dup),
            ("fire_alloc", self.fire_alloc),
            ("fire_assign", self.fire_assign),
            ("fire_interproc", self.fire_interproc),
            ("fire_load", self.fire_load),
            ("fire_store", self.fire_store),
            ("fire_static_load", self.fire_static_load),
            ("fire_static_store", self.fire_static_store),
            ("fire_this_binding", self.fire_this_binding),
            ("fire_vcall_dispatch", self.fire_vcall_dispatch),
            ("fire_caught", self.fire_caught),
            ("throw_tuples", self.throw_tuples),
            ("fld_inserted", self.fld_inserted),
            ("call_edges", self.call_edges),
            ("ipa_edges", self.ipa_edges),
            ("batches", self.batches),
            ("peak_worklist", self.peak_worklist),
            ("contexts", self.contexts),
            ("heap_contexts", self.heap_contexts),
            ("objects", self.objects),
            ("steps", self.steps),
            ("demoted_methods", self.demoted_methods),
            ("par_rounds", self.par_rounds),
            ("par_msgs", self.par_msgs),
            ("sets_interned", self.sets_interned),
            ("sets_shared", self.sets_shared),
            ("bytes_saved", self.bytes_saved),
            ("sets_evicted", self.sets_evicted),
            ("engine_rounds", self.engine_rounds),
            ("engine_strata", self.engine_strata),
            ("engine_rows", self.engine_rows),
        ]
    }

    /// Accumulates another shard's counters into `self`: sums everywhere
    /// except `peak_worklist`, which takes the maximum (queue depths on
    /// different shards overlap in time and cannot be added).
    pub(crate) fn absorb(&mut self, other: &SolverStats) {
        let peak = self.peak_worklist.max(other.peak_worklist);
        for (mine, theirs) in [
            (&mut self.vpt_inserted, other.vpt_inserted),
            (&mut self.vpt_dup, other.vpt_dup),
            (&mut self.fire_alloc, other.fire_alloc),
            (&mut self.fire_assign, other.fire_assign),
            (&mut self.fire_interproc, other.fire_interproc),
            (&mut self.fire_load, other.fire_load),
            (&mut self.fire_store, other.fire_store),
            (&mut self.fire_static_load, other.fire_static_load),
            (&mut self.fire_static_store, other.fire_static_store),
            (&mut self.fire_this_binding, other.fire_this_binding),
            (&mut self.fire_vcall_dispatch, other.fire_vcall_dispatch),
            (&mut self.fire_caught, other.fire_caught),
            (&mut self.throw_tuples, other.throw_tuples),
            (&mut self.fld_inserted, other.fld_inserted),
            (&mut self.call_edges, other.call_edges),
            (&mut self.ipa_edges, other.ipa_edges),
            (&mut self.batches, other.batches),
            (&mut self.steps, other.steps),
            (&mut self.demoted_methods, other.demoted_methods),
            (&mut self.par_msgs, other.par_msgs),
            (&mut self.sets_interned, other.sets_interned),
            (&mut self.sets_shared, other.sets_shared),
            (&mut self.bytes_saved, other.bytes_saved),
            (&mut self.sets_evicted, other.sets_evicted),
            (&mut self.engine_rounds, other.engine_rounds),
            (&mut self.engine_strata, other.engine_strata),
            (&mut self.engine_rows, other.engine_rows),
        ] {
            *mine += theirs;
        }
        self.peak_worklist = peak;
    }

    /// Serializes the counters as a single-line JSON object (the repo is
    /// offline; hand-rolled rather than serde-derived). The dedup hit rate
    /// is included as a derived field.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (name, value) in self.fields() {
            out.push_str(&format!("\"{name}\":{value},"));
        }
        out.push_str(&format!(
            "\"dedup_hit_rate\":{:.6}}}",
            self.dedup_hit_rate()
        ));
        out
    }
}

impl std::fmt::Display for SolverStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, value) in self.fields() {
            writeln!(f, "  {name:<20} {value}")?;
        }
        write!(f, "  {:<20} {:.3}", "dedup_hit_rate", self.dedup_hit_rate())
    }
}

/// The context-insensitive projections of a fixpoint: every per-entity
/// view the public accessors of [`PointsToResult`] answer from, each set
/// sorted by ID.
///
/// A result holds them behind an [`Arc`] so a retained solver can keep the
/// same maps as its projection cache and patch them copy-on-write at the
/// next incremental build (`Arc::make_mut`): a caller that already dropped
/// the previous result costs no copy, one that still holds it gets one.
#[derive(Debug, Clone)]
pub(crate) struct Projections {
    /// Variable → heap abstractions it may point to.
    pub(crate) var_points_to: FxHashMap<VarId, Vec<HeapId>>,
    /// Invocation site → possible callees.
    pub(crate) call_targets: FxHashMap<InvoId, Vec<MethodId>>,
    /// Methods reachable under some context.
    pub(crate) reachable: FxHashSet<MethodId>,
    /// Instance-field view: `(base heap, field)` → heap abstractions
    /// stored there under some context.
    pub(crate) field_points_to: FxHashMap<(HeapId, FieldId), Vec<HeapId>>,
    /// Static-field view: field → heap abstractions stored there.
    pub(crate) static_points_to: FxHashMap<FieldId, Vec<HeapId>>,
}

/// The result of running a points-to analysis over a program.
#[derive(Debug)]
pub struct PointsToResult {
    pub(crate) proj: Arc<Projections>,
    pub(crate) call_graph_edges: usize,
    pub(crate) ctx_vpt_count: u64,
    pub(crate) ctx_call_graph_edges: u64,
    pub(crate) ctx_reachable_count: u64,
    pub(crate) ctx_count: usize,
    pub(crate) hctx_count: usize,
    pub(crate) tuples: Option<Vec<CtxVarPointsTo>>,
    pub(crate) provenance: Option<FxHashMap<CtxVarPointsTo, Derivation>>,
    pub(crate) fld_provenance: Option<FxHashMap<FldProvKey, CtxVarPointsTo>>,
    pub(crate) static_fld_provenance: Option<FxHashMap<(FieldId, HeapId, HCtxId), CtxVarPointsTo>>,
    pub(crate) uncaught: Vec<HeapId>,
    pub(crate) ctx_interner: CtxInterner,
    pub(crate) hctx_interner: HCtxInterner,
    pub(crate) stats: SolverStats,
    /// Per-shard counters when the parallel solver ran (empty for
    /// sequential and Datalog runs); `stats` holds their aggregate.
    pub(crate) shard_stats: Vec<SolverStats>,
    pub(crate) termination: Termination,
    pub(crate) demoted: Vec<DemotedSite>,
    /// Per-rule evaluation profile, populated when the run was traced or
    /// profiled (`SolverConfig::profile` / an enabled `SolverConfig::trace`);
    /// boxed so the common unprofiled result stays lean.
    pub(crate) profile: Option<Box<pta_obs::Profile>>,
}

impl PointsToResult {
    /// The (context-insensitive) points-to set of `var`, sorted by heap ID.
    ///
    /// Empty for variables the analysis never reached.
    pub fn points_to(&self, var: VarId) -> &[HeapId] {
        self.proj
            .var_points_to
            .get(&var)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The possible callees of invocation site `invo`, sorted.
    ///
    /// For static call sites this is the single static target (if reached).
    pub fn call_targets(&self, invo: InvoId) -> &[MethodId] {
        self.proj
            .call_targets
            .get(&invo)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of edges in the context-insensitive call graph — the paper's
    /// "edges" precision metric.
    pub fn call_graph_edge_count(&self) -> usize {
        self.call_graph_edges
    }

    /// `true` if the analysis found `meth` reachable in some context.
    pub fn is_reachable(&self, meth: MethodId) -> bool {
        self.proj.reachable.contains(&meth)
    }

    /// The set of reachable methods.
    pub fn reachable_methods(&self) -> impl Iterator<Item = MethodId> + '_ {
        self.proj.reachable.iter().copied()
    }

    /// Number of reachable methods.
    pub fn reachable_method_count(&self) -> usize {
        self.proj.reachable.len()
    }

    /// Total number of context-sensitive `VarPointsTo` tuples — the paper's
    /// platform-independent performance metric ("sensitive var-points-to").
    pub fn ctx_var_points_to_count(&self) -> u64 {
        self.ctx_vpt_count
    }

    /// Number of context-sensitive call-graph edges.
    pub fn ctx_call_graph_edge_count(&self) -> u64 {
        self.ctx_call_graph_edges
    }

    /// Number of (method, context) reachability pairs.
    pub fn ctx_reachable_count(&self) -> u64 {
        self.ctx_reachable_count
    }

    /// Number of distinct calling contexts created.
    pub fn context_count(&self) -> usize {
        self.ctx_count
    }

    /// Number of distinct heap contexts created.
    pub fn heap_context_count(&self) -> usize {
        self.hctx_count
    }

    /// The solver's always-on performance counters (rule firings, dedup
    /// traffic, worklist shape). All-zero for the Datalog back end, which
    /// reports its own evaluation statistics instead.
    pub fn solver_stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Per-shard solver counters from a parallel run
    /// (`AnalysisSession::threads` > 1), in shard order. Empty for
    /// sequential and Datalog runs; [`PointsToResult::solver_stats`] is
    /// always the aggregate view.
    pub fn shard_stats(&self) -> &[SolverStats] {
        &self.shard_stats
    }

    /// How the run ended. [`Termination::Complete`] means the result is
    /// the full fixpoint (possibly coarsened by graceful degradation —
    /// see [`PointsToResult::demoted_sites`]); any other variant tags a
    /// *partial* result, a sound prefix of the fixpoint whose facts are
    /// all valid derivations but whose sets may still be missing members.
    pub fn termination(&self) -> Termination {
        self.termination
    }

    /// The per-rule evaluation profile (fire counts, derived-tuple counts,
    /// cumulative nanoseconds) plus hottest variables by final set size.
    /// `None` unless the run was profiled or traced.
    pub fn profile(&self) -> Option<&pta_obs::Profile> {
        self.profile.as_deref()
    }

    /// The methods graceful degradation demoted to the
    /// context-insensitive fallback, sorted by method ID. Empty when the
    /// run never degraded (or for the Datalog back end, which does not
    /// degrade).
    pub fn demoted_sites(&self) -> &[DemotedSite] {
        &self.demoted
    }

    /// The retained context-sensitive tuples, if the solver was configured
    /// with `keep_tuples` (otherwise `None`).
    pub fn context_sensitive_tuples(&self) -> Option<&[CtxVarPointsTo]> {
        self.tuples.as_deref()
    }

    /// Resolves an interned context to its element tuple.
    pub fn resolve_ctx(&self, ctx: CtxId) -> Ctx {
        self.ctx_interner.resolve(ctx)
    }

    /// Resolves an interned heap context to its elements.
    pub fn resolve_hctx(&self, hctx: HCtxId) -> HeapCtx {
        self.hctx_interner.resolve(hctx)
    }

    /// Renders a context with names resolved against `program`.
    pub fn display_ctx(&self, ctx: CtxId, program: &Program) -> String {
        let elems = self.resolve_ctx(ctx);
        let parts: Vec<String> = elems.iter().map(|e| e.display(program)).collect();
        format!("({})", parts.join(", "))
    }

    /// Explains why `var` may point to `heap`: a human-readable derivation
    /// chain from the tuple back to the allocation that introduced the
    /// object, following assignments, call boundaries, and field loads
    /// (continuing through the store that populated each loaded field).
    ///
    /// Returns `None` when the fact does not hold, or when the solver ran
    /// without `SolverConfig::track_provenance`.
    ///
    /// Intended for interactive debugging of analysis precision (the `pta`
    /// CLI exposes it as `--explain VAR`); lookup scans the tuple set for a
    /// matching starting tuple, so this is not a hot-path API.
    pub fn explain(&self, program: &Program, var: VarId, heap: HeapId) -> Option<Vec<String>> {
        let provenance = self.provenance.as_ref()?;
        // Any tuple for (var, heap) serves as a starting point.
        let start = *provenance.keys().find(|t| t.var == var && t.heap == heap)?;
        let mut lines = Vec::new();
        let mut cur = start;
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > 256 {
                lines.push("... (chain truncated)".to_owned());
                break;
            }
            let describe_var = |t: &CtxVarPointsTo| {
                format!(
                    "{}::{} @ {}",
                    program.method_qualified_name(program.var_method(t.var)),
                    program.var_name(t.var),
                    self.display_ctx(t.ctx, program),
                )
            };
            match provenance.get(&cur) {
                None => {
                    lines.push(format!("{} (derivation not recorded)", describe_var(&cur)));
                    break;
                }
                Some(Derivation::Alloc) => {
                    lines.push(format!(
                        "{} = new {} [allocation site {}]",
                        describe_var(&cur),
                        program.type_name(program.heap_type(cur.heap)),
                        program.heap_label(cur.heap),
                    ));
                    break;
                }
                Some(Derivation::Assign { from }) => {
                    lines.push(format!(
                        "{} copied from {}",
                        describe_var(&cur),
                        program.var_name(from.var)
                    ));
                    cur = *from;
                }
                Some(Derivation::InterProc { from }) => {
                    lines.push(format!(
                        "{} received across a call boundary from {}",
                        describe_var(&cur),
                        describe_var(from),
                    ));
                    cur = *from;
                }
                Some(Derivation::Load { base, field }) => {
                    lines.push(format!(
                        "{} loaded from field {} of {} [{}]",
                        describe_var(&cur),
                        program.field_name(*field),
                        program.heap_label(base.heap),
                        describe_var(base),
                    ));
                    // Continue with the value that was stored into that
                    // field, if recorded.
                    let key = (base.heap, base.hctx, *field, cur.heap, cur.hctx);
                    match self.fld_provenance.as_ref().and_then(|m| m.get(&key)) {
                        Some(&value) => cur = value,
                        None => {
                            lines.push("... (store origin not recorded)".to_owned());
                            break;
                        }
                    }
                }
                Some(Derivation::ThisBinding { invo }) => {
                    lines.push(format!(
                        "{} bound as receiver at call site {}",
                        describe_var(&cur),
                        program.invo_label(*invo),
                    ));
                    break;
                }
                Some(Derivation::Caught) => {
                    lines.push(format!(
                        "{} bound by a catch clause (thrown object {})",
                        describe_var(&cur),
                        program.heap_label(cur.heap),
                    ));
                    break;
                }
                Some(Derivation::StaticLoad { field }) => {
                    lines.push(format!(
                        "{} loaded from static field {}.{}",
                        describe_var(&cur),
                        program.type_name(program.field_owner(*field)),
                        program.field_name(*field),
                    ));
                    let key = (*field, cur.heap, cur.hctx);
                    match self
                        .static_fld_provenance
                        .as_ref()
                        .and_then(|m| m.get(&key))
                    {
                        Some(&value) => cur = value,
                        None => {
                            lines.push("... (store origin not recorded)".to_owned());
                            break;
                        }
                    }
                }
            }
        }
        Some(lines)
    }

    /// Allocation sites of exception objects that may escape the entry
    /// points uncaught (sorted).
    pub fn uncaught_exceptions(&self) -> &[HeapId] {
        &self.uncaught
    }

    /// The (context-insensitive) points-to set of instance field `field`
    /// on objects allocated at `base`, sorted by heap ID. Empty if the
    /// analysis never stored into that cell.
    ///
    /// This is the `FldPointsTo` relation of the paper's Figure 1
    /// projected down to allocation sites — the heap-graph view client
    /// analyses (taint reachability, escape) traverse.
    pub fn field_points_to(&self, base: HeapId, field: FieldId) -> &[HeapId] {
        self.proj
            .field_points_to
            .get(&(base, field))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterates every populated `(base heap, field)` cell with its sorted
    /// points-to set, in unspecified order.
    pub fn field_points_to_iter(
        &self,
    ) -> impl Iterator<Item = ((HeapId, FieldId), &[HeapId])> + '_ {
        self.proj
            .field_points_to
            .iter()
            .map(|(&k, v)| (k, v.as_slice()))
    }

    /// The (context-insensitive) points-to set of static field `field`,
    /// sorted by heap ID. Empty if nothing was ever stored there.
    pub fn static_points_to(&self, field: FieldId) -> &[HeapId] {
        self.proj
            .static_points_to
            .get(&field)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterates every populated static field with its sorted points-to
    /// set, in unspecified order.
    pub fn static_points_to_iter(&self) -> impl Iterator<Item = (FieldId, &[HeapId])> + '_ {
        self.proj
            .static_points_to
            .iter()
            .map(|(&k, v)| (k, v.as_slice()))
    }

    /// `true` if `a` and `b` may point to a common heap object — the
    /// classic may-alias query derived from points-to sets, the paper's
    /// "close relative" of points-to analysis (§1).
    ///
    /// Sound but conservative: a `true` answer may be a false positive; a
    /// `false` answer guarantees the variables never alias (under the
    /// analyzed entry points).
    pub fn may_alias(&self, a: VarId, b: VarId) -> bool {
        let (sa, sb) = (self.points_to(a), self.points_to(b));
        // Both sets are sorted; merge-step intersection test.
        let (mut i, mut j) = (0, 0);
        while i < sa.len() && j < sb.len() {
            match sa[i].cmp(&sb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// The average points-to set size over variables of reachable methods
    /// with non-empty sets — the paper's "avg objs per var" metric.
    pub fn average_points_to_size(&self) -> f64 {
        if self.proj.var_points_to.is_empty() {
            return 0.0;
        }
        let total: u64 = self
            .proj
            .var_points_to
            .values()
            .map(|v| v.len() as u64)
            .sum();
        total as f64 / self.proj.var_points_to.len() as f64
    }

    /// The median points-to set size over variables with non-empty sets.
    /// (The paper notes this is 1 for all analyses and benchmarks.)
    pub fn median_points_to_size(&self) -> usize {
        if self.proj.var_points_to.is_empty() {
            return 0;
        }
        let mut sizes: Vec<usize> = self.proj.var_points_to.values().map(Vec::len).collect();
        sizes.sort_unstable();
        sizes[sizes.len() / 2]
    }
}
