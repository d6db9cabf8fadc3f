//! The specialized semi-naive solver for the paper's nine rules (Figure 2).
//!
//! This is the performance-oriented implementation — the analogue of the
//! compiled, indexed LogicBlox program Doop generates. It is an explicit
//! worklist algorithm whose indices correspond one-to-one to the joins in
//! Figure 2:
//!
//! | Figure 2 rule | here |
//! |---|---|
//! | `InterProcAssign <- CallGraph, FormalArg, ActualArg` | `Solver::add_call_edge` installs parameter edges |
//! | `InterProcAssign <- CallGraph, FormalReturn, ActualReturn` | `Solver::add_call_edge` installs the return edge |
//! | `VarPointsTo <- Reachable, Alloc` (+ `Record`) | `Solver::process_reachable` |
//! | `VarPointsTo <- Move, VarPointsTo` | assignment edges in `Solver::process_key` (casts are filtered moves) |
//! | `VarPointsTo <- InterProcAssign, VarPointsTo` | inter-procedural edges in `Solver::process_key` |
//! | `VarPointsTo <- Load, VarPointsTo, FldPointsTo` | load witnesses in `Solver::process_key` / `Solver::insert_fld_batch` |
//! | `FldPointsTo <- Store, VarPointsTo, VarPointsTo` | store handling in `Solver::process_key` |
//! | virtual-call rule (+ `Merge`) | `Solver::process_key` receiver dispatch |
//! | static-call rule (+ `MergeStatic`) | `Solver::process_reachable` |
//!
//! ## Hot-path representation
//!
//! Facts are stored *dense*, not hashed:
//!
//! - every `(heap, heap-context)` pair is interned once to a dense **object
//!   ID** (with its dynamic type cached), so a points-to element is a
//!   single `u32`;
//! - every `(variable, context)` pair is interned to a dense **key ID**
//!   whose [`PtsSet`] holds its objects — the inner "is this tuple new?"
//!   check is a key-local binary search or bit test instead of a global
//!   5-tuple hash probe, and iterating a variable's points-to set is a
//!   linear scan;
//! - the static input relations live in CSR-style per-variable tables
//!   ([`VarTable`]), one flat allocation per relation.
//!
//! ## Batched semi-naive evaluation
//!
//! The worklist carries *keys with pending deltas*, not individual tuples:
//! `process_key` drains a key's whole delta batch and fires each of
//! Figure 2's joins once per `(edge, batch)` instead of once per tuple, so
//! per-join overhead (index lookup, target-set location) is amortized over
//! the batch. Inserts are idempotent and every new tuple eventually gets
//! its own delta processing, which is precisely semi-naive evaluation with
//! the rule set unrolled.
//!
//! Always-on [`SolverStats`] counters record rule firings, dedup traffic
//! and worklist shape; they are plain `u64` increments and are surfaced
//! through [`PointsToResult::solver_stats`].

use std::collections::VecDeque;
use std::sync::Arc;

use pta_govern::{Budget, BudgetMeter, CancelToken, Termination};
use pta_ir::hash::{FxHashMap, FxHashSet};
use pta_ir::{
    FieldId, HeapId, Instr, InvoId, MethodId, Program, ProgramDelta, SigId, SizeHints, TypeId,
    VarId,
};

use crate::context::{CtxId, CtxInterner, DenseMap, HCtxId, HCtxInterner};
use crate::fault::FaultPlan;
use crate::policy::ContextPolicy;
use crate::pts::PtsSet;
use crate::pts_store::PtsStore;
use crate::results::{
    CtxVarPointsTo, DemotedSite, Derivation, PointsToResult, Projections, SolverStats,
};

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Retain the full context-sensitive tuple set in the result (memory
    /// proportional to the sensitive var-points-to metric). Off by default.
    pub keep_tuples: bool,
    /// Record one derivation per tuple so `PointsToResult::explain` can
    /// reconstruct why a variable points to an object. Off by default
    /// (costs one map entry per tuple).
    pub track_provenance: bool,
    /// Resource limits checked cooperatively once per fixpoint step.
    /// Unlimited by default (the governance checks are skipped entirely).
    pub budget: Budget,
    /// On budget exhaustion, demote high-fan-out methods to the policy's
    /// context-insensitive fallback and keep going (coarser but complete
    /// and sound) instead of returning a partial result. Off by default.
    pub degrade: bool,
    /// Cooperative cancellation (ctrl-c, bench cell deadlines). A
    /// cancelled run returns a partial result tagged
    /// [`Termination::DeadlineExceeded`]; cancellation is never degraded
    /// away.
    pub cancel: Option<CancelToken>,
    /// Deterministic fault injection for testing the exhaustion paths
    /// (see [`crate::fault`]). `None` in production.
    pub fault: Option<FaultPlan>,
    /// Span/event recorder (see [`pta_obs::Trace`]). Disabled by default —
    /// a disabled handle is a compiled-in no-op on every hot path.
    pub trace: pta_obs::Trace,
    /// Collect a rule-level [`pta_obs::Profile`] (per-rule fires, derived
    /// tuples, cumulative ns; hottest variables) into the result. Off by
    /// default; enabling it adds two clock reads per rule batch.
    pub profile: bool,
    /// Hash-cons large points-to sets in a solver-owned
    /// [`crate::pts_store::PtsStore`]. **On by default**; `--no-share`
    /// turns it off for differential debugging. Results are byte-identical
    /// either way — only memory (and the `sets_*` stats) change.
    pub share: bool,
    /// Keep the solver state alive after the fixpoint so a later
    /// [`ProgramDelta`](pta_ir::ProgramDelta) can be applied incrementally
    /// (see [`crate::AnalysisSession::apply`]). Off by default: retention
    /// clones the context interners into the result instead of moving
    /// them, and maintains derivation-support counts on the
    /// inter-procedural edge set.
    pub retain: bool,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            keep_tuples: false,
            track_provenance: false,
            budget: Budget::default(),
            degrade: false,
            cancel: None,
            fault: None,
            trace: pta_obs::Trace::default(),
            profile: false,
            share: true,
            retain: false,
        }
    }
}

/// Stable rule order for solver profiles and per-rule trace spans: the
/// paper's nine Figure 2 rule groups plus the exception extension.
pub(crate) const RULE_NAMES: [&str; 10] = [
    "alloc",
    "move",
    "interproc",
    "load",
    "store",
    "sload",
    "sstore",
    "vcall",
    "scall",
    "exception",
];
pub(crate) const R_ALLOC: usize = 0;
pub(crate) const R_MOVE: usize = 1;
pub(crate) const R_INTERPROC: usize = 2;
pub(crate) const R_LOAD: usize = 3;
pub(crate) const R_STORE: usize = 4;
pub(crate) const R_SLOAD: usize = 5;
pub(crate) const R_SSTORE: usize = 6;
pub(crate) const R_VCALL: usize = 7;
pub(crate) const R_SCALL: usize = 8;
pub(crate) const R_EXC: usize = 9;

/// Per-rule profile accumulators (fixed arrays, allocated once behind the
/// `profile`/`trace` opt-in — `None` keeps the hot loop allocation-free
/// and clock-free).
#[derive(Default)]
pub(crate) struct RuleProf {
    pub(crate) fires: [u64; RULE_NAMES.len()],
    pub(crate) derived: [u64; RULE_NAMES.len()],
    pub(crate) ns: [u64; RULE_NAMES.len()],
    pub(crate) set_promotions: u64,
}

impl RuleProf {
    /// Converts the accumulators into the shared profile type, attaching
    /// the hottest variables (computed by the caller).
    pub(crate) fn into_profile(self, hot_vars: Vec<pta_obs::HotVar>) -> pta_obs::Profile {
        pta_obs::Profile {
            rules: RULE_NAMES
                .iter()
                .enumerate()
                .map(|(i, &name)| pta_obs::RuleStat {
                    name: name.to_owned(),
                    fires: self.fires[i],
                    derived: self.derived[i],
                    ns: self.ns[i],
                })
                .collect(),
            hot_vars,
            set_promotions: self.set_promotions,
        }
    }
}

/// Sentinel in `Solver::demote_ctx` for a method that is not demoted.
pub(crate) const NOT_DEMOTED: u32 = u32::MAX;

/// Degradation watermark used when `SolverConfig::degrade` is set but the
/// budget does not name one.
pub(crate) const DEFAULT_WATERMARK: u32 = 16;

/// The sequential dense back end behind [`crate::AnalysisSession`].
pub(crate) fn solve_sequential<P: ContextPolicy + Clone>(
    program: &Arc<Program>,
    policy: &P,
    config: SolverConfig,
) -> PointsToResult {
    Solver::new(Arc::clone(program), policy.clone(), config).solve()
}

/// Incremental fixpoint maintenance (delta application, invalidation-cone
/// retraction, reseeding) — a child module so it can reach the solver's
/// private state without widening any visibility.
#[path = "incremental.rs"]
pub(crate) mod incremental;

/// Builds one CSR-style `variable -> [items]` table from unsorted
/// `(var, item)` pairs: a flat, sorted, deduplicated item array plus
/// per-variable segment offsets. Replaces the previous `Vec<Vec<T>>` (one
/// heap allocation and one unconditional sort per variable, even for the
/// empty/singleton common case) with a single pre-sized allocation and one
/// global sort, which orders every per-var segment as a side effect. Tables
/// whose collection pass already visits instructions in variable order
/// arrive sorted and skip the sort outright.
fn build_csr<T: Copy + Ord>(n_vars: usize, mut pairs: Vec<(u32, T)>) -> (Vec<u32>, Vec<T>) {
    if !pairs.is_sorted() {
        pairs.sort_unstable();
    }
    pairs.dedup();
    let mut starts = vec![0u32; n_vars + 1];
    for &(v, _) in &pairs {
        starts[v as usize + 1] += 1;
    }
    for i in 0..n_vars {
        starts[i + 1] += starts[i];
    }
    (starts, pairs.into_iter().map(|(_, item)| item).collect())
}

/// Row layout of [`StaticIndex::rows`]: segment starts of the six item
/// tables, plus the thrown flag in the last slot.
pub(crate) const ROW_ASSIGN: usize = 0;
pub(crate) const ROW_LOAD_ON: usize = 1;
pub(crate) const ROW_STORE_ON: usize = 2;
pub(crate) const ROW_STORE_OF: usize = 3;
pub(crate) const ROW_SSTORE_OF: usize = 4;
pub(crate) const ROW_VCALL_ON: usize = 5;
pub(crate) const ROW_THROWN: usize = 6;

/// Precomputed, context-independent instruction indices keyed by variable.
/// These are the static input relations of Figure 1, organized by the
/// variable each rule joins on.
///
/// All six per-variable segment-offset arrays are interleaved into one
/// `rows` array so that `process_key` touches one or two cache lines per
/// variable instead of twelve scattered ones: `rows[v][t]..rows[v + 1][t]`
/// is variable `v`'s segment in item table `t`.
pub(crate) struct StaticIndex {
    pub(crate) rows: Vec<[u32; 7]>,
    /// `from -> [(to, cast filter)]` for `Move` and `Cast`.
    pub(crate) assigns: Vec<(VarId, Option<TypeId>)>,
    /// `base -> [(to, field)]` for `Load`.
    pub(crate) loads_on: Vec<(VarId, FieldId)>,
    /// `base -> [(field, from)]` for `Store`.
    pub(crate) stores_on: Vec<(FieldId, VarId)>,
    /// `from -> [(base, field)]` for `Store`.
    pub(crate) stores_of: Vec<(VarId, FieldId)>,
    /// `from -> [field]` for `SStore` (static-field writes).
    pub(crate) sstores_of: Vec<FieldId>,
    /// `base -> [(sig, invo)]` for `VCall`.
    pub(crate) vcalls_on: Vec<(SigId, InvoId)>,
}

impl StaticIndex {
    pub(crate) fn build(program: &Program) -> StaticIndex {
        let n = program.var_count();
        let instrs = program.instr_count();
        // Pre-size the pair collections from the total instruction count;
        // each instruction contributes at most two pairs (stores).
        let mut assigns = Vec::with_capacity(instrs / 4);
        let mut loads_on = Vec::with_capacity(instrs / 4);
        let mut stores_on = Vec::with_capacity(instrs / 8);
        let mut stores_of = Vec::with_capacity(instrs / 8);
        let mut sstores_of = Vec::with_capacity(instrs / 16);
        let mut vcalls_on = Vec::with_capacity(instrs / 4);
        let mut thrown = vec![false; n];
        for m in program.methods() {
            for instr in program.instrs(m) {
                match *instr {
                    Instr::Move { to, from } => assigns.push((from.raw(), (to, None))),
                    Instr::Cast { to, from, ty } => assigns.push((from.raw(), (to, Some(ty)))),
                    Instr::Load { to, base, field } => loads_on.push((base.raw(), (to, field))),
                    Instr::Store { base, field, from } => {
                        stores_on.push((base.raw(), (field, from)));
                        stores_of.push((from.raw(), (base, field)));
                    }
                    Instr::VCall { base, sig, invo } => vcalls_on.push((base.raw(), (sig, invo))),
                    Instr::SStore { field, from } => sstores_of.push((from.raw(), field)),
                    Instr::Throw { var } => thrown[var.index()] = true,
                    // SLoad fires on reachability, handled by the solver.
                    Instr::Alloc { .. } | Instr::SCall { .. } | Instr::SLoad { .. } => {}
                }
            }
        }
        let (s_assign, assigns) = build_csr(n, assigns);
        let (s_load, loads_on) = build_csr(n, loads_on);
        let (s_store_on, stores_on) = build_csr(n, stores_on);
        let (s_store_of, stores_of) = build_csr(n, stores_of);
        let (s_sstore, sstores_of) = build_csr(n, sstores_of);
        let (s_vcall, vcalls_on) = build_csr(n, vcalls_on);
        let mut rows = vec![[0u32; 7]; n + 1];
        for (v, row) in rows.iter_mut().enumerate() {
            *row = [
                s_assign[v],
                s_load[v],
                s_store_on[v],
                s_store_of[v],
                s_sstore[v],
                s_vcall[v],
                u32::from(v < n && thrown[v]),
            ];
        }
        StaticIndex {
            rows,
            assigns,
            loads_on,
            stores_on,
            stores_of,
            sstores_of,
            vcalls_on,
        }
    }

    /// Extends the index with a purely additive delta's instructions —
    /// the base-method appends plus the bodies of methods the delta
    /// declares. Each CSR table is rebuilt by a linear merge of its old
    /// (already sorted) flat array with the few sorted new pairs, so the
    /// cost is one pass over the index instead of a re-scan and re-sort
    /// of every instruction in the program. Retracting deltas must use
    /// [`StaticIndex::build`] on the new program instead.
    pub(crate) fn append_additive(&mut self, program: &Program, delta: &ProgramDelta) {
        let n_new = program.var_count();
        let n_old = self.rows.len() - 1;

        let mut assigns_new: Vec<(u32, (VarId, Option<TypeId>))> = Vec::new();
        let mut loads_new: Vec<(u32, (VarId, FieldId))> = Vec::new();
        let mut stores_on_new: Vec<(u32, (FieldId, VarId))> = Vec::new();
        let mut stores_of_new: Vec<(u32, (VarId, FieldId))> = Vec::new();
        let mut sstores_new: Vec<(u32, FieldId)> = Vec::new();
        let mut vcalls_new: Vec<(u32, (SigId, InvoId))> = Vec::new();
        let mut thrown_new: FxHashSet<u32> = FxHashSet::default();
        let new_method_instrs = (delta.base_method_count()..program.method_count())
            .flat_map(|i| program.instrs(MethodId::from_index(i)).iter().copied());
        for instr in delta
            .appended_instrs()
            .iter()
            .map(|&(_, i)| i)
            .chain(new_method_instrs)
        {
            match instr {
                Instr::Move { to, from } => assigns_new.push((from.raw(), (to, None))),
                Instr::Cast { to, from, ty } => assigns_new.push((from.raw(), (to, Some(ty)))),
                Instr::Load { to, base, field } => loads_new.push((base.raw(), (to, field))),
                Instr::Store { base, field, from } => {
                    stores_on_new.push((base.raw(), (field, from)));
                    stores_of_new.push((from.raw(), (base, field)));
                }
                Instr::VCall { base, sig, invo } => vcalls_new.push((base.raw(), (sig, invo))),
                Instr::SStore { field, from } => sstores_new.push((from.raw(), field)),
                Instr::Throw { var } => {
                    thrown_new.insert(var.raw());
                }
                Instr::Alloc { .. } | Instr::SCall { .. } | Instr::SLoad { .. } => {}
            }
        }

        // Merges one table's old per-var segments (sorted by construction)
        // with the sorted new pairs, deduplicating like `build_csr`.
        // `None` means the table had no new pairs and its old flat array
        // (and old starts column, extended for new vars) stands as-is.
        fn merged<T: Copy + Ord>(
            rows: &[[u32; 7]],
            t: usize,
            old: &[T],
            n_new: usize,
            mut newp: Vec<(u32, T)>,
        ) -> Option<(Vec<u32>, Vec<T>)> {
            if newp.is_empty() {
                return None;
            }
            newp.sort_unstable();
            newp.dedup();
            let n_old = rows.len() - 1;
            let mut starts = vec![0u32; n_new + 1];
            let mut out: Vec<T> = Vec::with_capacity(old.len() + newp.len());
            let mut ni = 0;
            for v in 0..n_new {
                let seg: &[T] = if v < n_old {
                    &old[rows[v][t] as usize..rows[v + 1][t] as usize]
                } else {
                    &[]
                };
                let run_start = ni;
                while ni < newp.len() && newp[ni].0 == v as u32 {
                    ni += 1;
                }
                let run = &newp[run_start..ni];
                if run.is_empty() {
                    out.extend_from_slice(seg);
                } else {
                    let (mut a, mut b) = (0, 0);
                    while a < seg.len() && b < run.len() {
                        match seg[a].cmp(&run[b].1) {
                            std::cmp::Ordering::Less => {
                                out.push(seg[a]);
                                a += 1;
                            }
                            std::cmp::Ordering::Equal => {
                                out.push(seg[a]);
                                a += 1;
                                b += 1;
                            }
                            std::cmp::Ordering::Greater => {
                                out.push(run[b].1);
                                b += 1;
                            }
                        }
                    }
                    out.extend_from_slice(&seg[a..]);
                    out.extend(run[b..].iter().map(|&(_, item)| item));
                }
                starts[v + 1] = out.len() as u32;
            }
            Some((starts, out))
        }

        let m_assign = merged(&self.rows, ROW_ASSIGN, &self.assigns, n_new, assigns_new);
        let m_load = merged(&self.rows, ROW_LOAD_ON, &self.loads_on, n_new, loads_new);
        let m_store_on = merged(
            &self.rows,
            ROW_STORE_ON,
            &self.stores_on,
            n_new,
            stores_on_new,
        );
        let m_store_of = merged(
            &self.rows,
            ROW_STORE_OF,
            &self.stores_of,
            n_new,
            stores_of_new,
        );
        let m_sstore = merged(
            &self.rows,
            ROW_SSTORE_OF,
            &self.sstores_of,
            n_new,
            sstores_new,
        );
        let m_vcall = merged(&self.rows, ROW_VCALL_ON, &self.vcalls_on, n_new, vcalls_new);

        // Start value for variable `v` in table `t`: the rebuilt starts
        // column when the table changed, else the old column (new vars
        // get the old total — their segments are empty).
        fn col(starts: Option<&[u32]>, old_rows: &[[u32; 7]], t: usize, v: usize) -> u32 {
            match starts {
                Some(s) => s[v],
                None => old_rows[v.min(old_rows.len() - 1)][t],
            }
        }
        let (sa, sl, son, sof, ss, sv) = (
            m_assign.as_ref().map(|(s, _)| s.as_slice()),
            m_load.as_ref().map(|(s, _)| s.as_slice()),
            m_store_on.as_ref().map(|(s, _)| s.as_slice()),
            m_store_of.as_ref().map(|(s, _)| s.as_slice()),
            m_sstore.as_ref().map(|(s, _)| s.as_slice()),
            m_vcall.as_ref().map(|(s, _)| s.as_slice()),
        );
        let mut rows = vec![[0u32; 7]; n_new + 1];
        for (v, row) in rows.iter_mut().enumerate() {
            let thrown = v < n_new
                && ((v < n_old && self.rows[v][ROW_THROWN] != 0)
                    || thrown_new.contains(&(v as u32)));
            *row = [
                col(sa, &self.rows, ROW_ASSIGN, v),
                col(sl, &self.rows, ROW_LOAD_ON, v),
                col(son, &self.rows, ROW_STORE_ON, v),
                col(sof, &self.rows, ROW_STORE_OF, v),
                col(ss, &self.rows, ROW_SSTORE_OF, v),
                col(sv, &self.rows, ROW_VCALL_ON, v),
                u32::from(thrown),
            ];
        }
        self.rows = rows;
        if let Some((_, items)) = m_assign {
            self.assigns = items;
        }
        if let Some((_, items)) = m_load {
            self.loads_on = items;
        }
        if let Some((_, items)) = m_store_on {
            self.stores_on = items;
        }
        if let Some((_, items)) = m_store_of {
            self.stores_of = items;
        }
        if let Some((_, items)) = m_sstore {
            self.sstores_of = items;
        }
        if let Some((_, items)) = m_vcall {
            self.vcalls_on = items;
        }
    }
}

/// How a `VarPointsTo` tuple was first derived (recorded only under
/// `SolverConfig::track_provenance`). Mirrors `results::Derivation` with
/// dense solver IDs; the pointed-to object is implicit (it is the tuple's
/// own object).
#[derive(Debug, Clone, Copy)]
enum Reason {
    /// The allocation rule.
    Alloc,
    /// A `Move`/`Cast`; the source holds the same object under `src_key`.
    Assign { src_key: u32 },
    /// An `InterProcAssign` edge; same object under `src_key`.
    InterProc { src_key: u32 },
    /// A `Load` through `base_obj`'s `field`, reached via `base_key`.
    Load {
        base_key: u32,
        base_obj: u32,
        field: u32,
    },
    /// The receiver (`this`) binding at a virtual call site.
    ThisBinding { invo: u32 },
    /// A static-field load.
    StaticLoad { field: u32 },
    /// Bound by a catch clause.
    Caught,
}

/// Per-(var, ctx) points-to state: the full set plus the pending delta.
#[derive(Default)]
struct VarEntry {
    set: PtsSet,
    /// Objects inserted since this key was last processed.
    delta: Vec<u32>,
    /// `true` while the key sits in the dirty queue.
    queued: bool,
}

/// Per-(base object, field) state: the field's points-to set plus the load
/// destinations waiting for new facts (`(to_key, base_key)`; the base key
/// is kept for provenance).
#[derive(Default)]
struct FldEntry {
    set: PtsSet,
    witnesses: Vec<(u32, u32)>,
}

/// Per static field: the global cell plus pending load destinations.
#[derive(Default)]
struct StaticEntry {
    set: PtsSet,
    witnesses: Vec<u32>,
}

pub(crate) struct Solver<P: ContextPolicy> {
    program: Arc<Program>,
    policy: P,
    config: SolverConfig,
    index: StaticIndex,
    ctxs: CtxInterner,
    hctxs: HCtxInterner,

    /// `(heap, hctx) -> object ID`.
    objs: DenseMap<(u32, u32)>,
    /// Object ID -> raw dynamic type (cached `heap_type`).
    obj_type: Vec<u32>,
    /// `(var, ctx) -> key ID`.
    vkeys: DenseMap<(u32, u32)>,
    /// Key ID -> points-to state.
    entries: Vec<VarEntry>,
    /// Key ID -> `InterProcAssign` successor keys. Deduplication scans the
    /// list directly: per-key fan-out is small (one entry per distinct
    /// callee binding of the variable), so a linear probe beats a global
    /// edge hash set.
    ipa_out: Vec<Vec<u32>>,
    /// `(base object, field) -> field entry ID`.
    fkeys: DenseMap<(u32, u32)>,
    fentries: Vec<FldEntry>,
    /// Static-field cells, indexed by raw field ID.
    statics: Vec<StaticEntry>,

    /// `CallGraph(invo, callerCtx, meth, calleeCtx)`, factored through a
    /// dense `(invo, callerCtx)` site interner: per site the distinct
    /// `(callee, calleeCtx)` targets are a short list (virtual sites are
    /// overwhelmingly monomorphic), so edge dedup is a linear scan instead
    /// of a 4-tuple hash probe.
    cg_sites: DenseMap<(u32, u32)>,
    cg_targets: Vec<Vec<(u32, u32)>>,
    ctx_cg_edges: u64,
    /// Context-insensitive call-graph projection.
    cg_insens: FxHashSet<(InvoId, MethodId)>,
    /// `Reachable(meth, ctx)`, as a dense interner (IDs unused; newness is
    /// detected by length growth).
    reachable: DenseMap<(u32, u32)>,
    /// Tombstoned reachability-pair IDs. The dense interner is
    /// append-only, so incremental retraction marks pairs dead instead of
    /// removing them; [`Solver::mark_reachable`] resurrects a tombstoned
    /// pair exactly like a fresh one. Always empty outside retained
    /// sessions.
    reach_dead: FxHashSet<u32>,
    /// `(from_key, to_key) -> derivation count` for `InterProcAssign`
    /// edges — how many call-graph edges installed this edge. Maintained
    /// only under `config.retain`; retraction decrements and removes the
    /// edge when its last support disappears (the counting layer of
    /// incremental maintenance; edge supports are acyclic, unlike
    /// points-to derivations, so counting is exact here).
    ipa_support: FxHashMap<(u32, u32), u32>,
    /// `true` once any exception fact (escape or catch binding) has been
    /// derived. Retraction under live exception flow falls back to a full
    /// re-solve: throw propagation is recursive across the call graph and
    /// its derivations are not tracked at key granularity.
    exc_seen: bool,

    /// Keys with non-empty deltas, FIFO.
    dirty: VecDeque<u32>,
    reach_queue: VecDeque<(u32, u32)>,

    /// `ThrowPointsTo(meth, ctx) -> objects` — exceptions escaping a
    /// method under a context.
    throw_pts: FxHashMap<(u32, u32), PtsSet>,
    /// `(callee, calleeCtx) -> [(callerMeth, callerCtx)]` — who to notify
    /// when an exception escapes the callee.
    throw_listeners: FxHashMap<(u32, u32), Vec<(u32, u32)>>,
    throw_listener_set: FxHashSet<(u32, u32, u32, u32)>,

    /// First derivation of each `(key, object)` tuple (provenance mode).
    provenance: FxHashMap<(u32, u32), Reason>,
    /// `(field entry, value object) -> source key` of the store that first
    /// populated it (provenance mode).
    fld_provenance: FxHashMap<(u32, u32), u32>,
    /// `(static field, value object) -> source key` (provenance mode).
    static_fld_provenance: FxHashMap<(u32, u32), u32>,

    /// Scratch buffers (taken/restored around batch joins so the hot path
    /// never allocates). `buf` serves the `process_key` joins, `buf2` the
    /// field-insert paths nested inside them, `ipa_buf` edge installation.
    buf: Vec<u32>,
    buf2: Vec<u32>,
    ipa_buf: Vec<u32>,

    /// Intern store for the `Shared` points-to stage (disabled under
    /// `--no-share`; insert paths are uniform either way).
    store: PtsStore,

    stats: SolverStats,

    /// Per-rule profile accumulators; `None` unless profiling or tracing
    /// was requested (the hot loop then skips all clock reads).
    prof: Option<Box<RuleProf>>,
    /// Recorder scope for this solve (tid derived from the shard id, 0
    /// for sequential runs). A no-op when the trace is disabled.
    ts: pta_obs::TraceScope,

    // ----- resource governance ---------------------------------------------
    /// Running budget checker (strided wall-clock reads).
    meter: BudgetMeter,
    /// `true` when any budget limit, cancel token or fault plan is set;
    /// ungoverned runs skip every per-step governance check.
    governed: bool,
    /// Fixpoint steps executed (worklist pops).
    steps: u64,
    /// Current degradation watermark (halved after each degrade round).
    watermark: u32,
    /// Whether the one-time 10% deadline grace window has been spent.
    grace_used: bool,
    /// Per-method count of distinct reachable contexts.
    method_fanout: Vec<u32>,
    /// Per-method demoted context ID, or [`NOT_DEMOTED`].
    demote_ctx: Vec<u32>,
    /// Demotion log, in demotion order (sorted for the result).
    demoted_sites: Vec<DemotedSite>,

    /// Cached context-insensitive projections, carried across retained
    /// incremental applies so [`Solver::build_result`] only patches what
    /// changed. Built on the first retained build (sharing the maps it
    /// hands to the result), patched additively, and dropped on any
    /// retracting apply (retraction can shrink sets, which the dirty
    /// tracking does not observe).
    proj_cache: Option<Box<ProjCache>>,
}

/// See [`Solver::proj_cache`].
struct ProjCache {
    /// The projections as of the last build, shared with the result that
    /// build returned. The next build patches them through
    /// `Arc::make_mut`, which copies only while that result is alive.
    proj: Arc<Projections>,
    /// Reverse index: variable -> its interned `(var, ctx)` key IDs.
    /// Appended by [`Solver::key_id`] while the cache is live.
    var_keys: Vec<Vec<u32>>,
    /// Variables whose context-sensitive sets grew since the last build.
    dirty_vars: FxHashSet<u32>,
    /// Insens call-graph edges inserted since the last build.
    cg_new: Vec<(InvoId, MethodId)>,
    /// Insens instance-field facts inserted since the last build.
    fld_new: Vec<((HeapId, FieldId), HeapId)>,
    /// Insens static-field facts inserted since the last build.
    static_new: Vec<(FieldId, HeapId)>,
    /// Methods that gained a reachable context since the last build.
    reach_new: Vec<MethodId>,
    /// Running context-sensitive tuple count (matches the sum of all
    /// entry set sizes; valid because additive applies never remove).
    ctx_vpt: u64,
}

impl ProjCache {
    /// Seeds a cache that shares `proj`, indexing every interned key.
    fn seed(
        proj: Arc<Projections>,
        vkeys: &DenseMap<(u32, u32)>,
        n_vars: usize,
        ctx_vpt: u64,
    ) -> ProjCache {
        let mut var_keys: Vec<Vec<u32>> = Vec::new();
        var_keys.resize_with(n_vars, Vec::new);
        for (key, &(var, _ctx)) in vkeys.keys().iter().enumerate() {
            var_keys[var as usize].push(key as u32);
        }
        ProjCache {
            proj,
            var_keys,
            dirty_vars: FxHashSet::default(),
            cg_new: Vec::new(),
            fld_new: Vec::new(),
            static_new: Vec::new(),
            reach_new: Vec::new(),
            ctx_vpt,
        }
    }

    /// Folds everything recorded since the last build into the shared
    /// projections: dirty variables are re-derived from their keys, the
    /// other views absorb their logged insertions.
    fn patch(&mut self, entries: &[VarEntry], objs: &DenseMap<(u32, u32)>) {
        let proj = Arc::make_mut(&mut self.proj);
        for var in self.dirty_vars.drain() {
            let mut heaps: Vec<HeapId> = Vec::new();
            if let Some(keys) = self.var_keys.get(var as usize) {
                for &key in keys {
                    for obj in entries[key as usize].set.iter() {
                        heaps.push(HeapId::from_raw(objs.resolve(obj).0));
                    }
                }
            }
            heaps.sort_unstable();
            heaps.dedup();
            if heaps.is_empty() {
                proj.var_points_to.remove(&VarId::from_raw(var));
            } else {
                proj.var_points_to.insert(VarId::from_raw(var), heaps);
            }
        }
        fold_sorted(&mut proj.call_targets, &mut self.cg_new);
        fold_sorted(&mut proj.field_points_to, &mut self.fld_new);
        fold_sorted(&mut proj.static_points_to, &mut self.static_new);
        proj.reachable.extend(self.reach_new.drain(..));
    }
}

/// Drains `(key, value)` insertions into a map of sorted, deduplicated
/// sets, re-sorting only the cells they touched.
fn fold_sorted<K: Copy + Ord + std::hash::Hash, V: Ord>(
    map: &mut FxHashMap<K, Vec<V>>,
    new: &mut Vec<(K, V)>,
) {
    let mut touched: Vec<K> = Vec::with_capacity(new.len());
    for (key, value) in new.drain(..) {
        map.entry(key).or_default().push(value);
        touched.push(key);
    }
    touched.sort_unstable();
    touched.dedup();
    for key in touched {
        let cell = map.get_mut(&key).expect("touched cell was just inserted");
        cell.sort_unstable();
        cell.dedup();
    }
}

impl<P: ContextPolicy> Solver<P> {
    pub(crate) fn new(program: Arc<Program>, policy: P, config: SolverConfig) -> Solver<P> {
        let hints = SizeHints::of_program(&program);
        let meter = BudgetMeter::new(&config.budget);
        let governed =
            !config.budget.is_unlimited() || config.cancel.is_some() || config.fault.is_some();
        let watermark = config.budget.watermark.unwrap_or(DEFAULT_WATERMARK).max(1);
        let n_methods = program.method_count();
        let n_fields = program.field_count();
        let prof = (config.profile || config.trace.is_enabled()).then(Box::<RuleProf>::default);
        let ts = config.trace.scope(0);
        let share = config.share;
        let index = StaticIndex::build(&program);
        Solver {
            prof,
            ts,
            meter,
            governed,
            steps: 0,
            watermark,
            grace_used: false,
            method_fanout: vec![0; n_methods],
            demote_ctx: vec![NOT_DEMOTED; n_methods],
            demoted_sites: Vec::new(),
            proj_cache: None,
            program,
            policy,
            config,
            index,
            ctxs: CtxInterner::with_capacity(hints.contexts),
            hctxs: HCtxInterner::with_capacity(hints.heap_contexts),
            objs: DenseMap::with_capacity(hints.objects),
            obj_type: Vec::with_capacity(hints.objects),
            vkeys: DenseMap::with_capacity(hints.var_ctx_keys),
            entries: Vec::with_capacity(hints.var_ctx_keys),
            ipa_out: Vec::with_capacity(hints.var_ctx_keys),
            fkeys: DenseMap::with_capacity(hints.objects),
            fentries: Vec::new(),
            statics: (0..n_fields).map(|_| StaticEntry::default()).collect(),
            cg_sites: DenseMap::with_capacity(hints.contexts),
            cg_targets: Vec::with_capacity(hints.contexts),
            ctx_cg_edges: 0,
            cg_insens: FxHashSet::default(),
            reachable: DenseMap::with_capacity(hints.contexts),
            reach_dead: FxHashSet::default(),
            ipa_support: FxHashMap::default(),
            exc_seen: false,
            dirty: VecDeque::new(),
            reach_queue: VecDeque::new(),
            throw_pts: FxHashMap::default(),
            throw_listeners: FxHashMap::default(),
            throw_listener_set: FxHashSet::default(),
            provenance: FxHashMap::default(),
            fld_provenance: FxHashMap::default(),
            static_fld_provenance: FxHashMap::default(),
            buf: Vec::new(),
            buf2: Vec::new(),
            ipa_buf: Vec::new(),
            store: if share {
                PtsStore::new()
            } else {
                PtsStore::disabled()
            },
            stats: SolverStats::default(),
        }
    }

    pub(crate) fn solve(mut self) -> PointsToResult {
        let termination = self.solve_fix();
        self.build_result(termination, false)
    }

    /// Runs the fixpoint (entry-point seeding plus worklist drain) without
    /// consuming the solver, so retained sessions can keep the state for
    /// later incremental applies.
    pub(crate) fn solve_fix(&mut self) -> Termination {
        let t0 = self.ts.now_ns();
        // Entry points are reachable under the initial context.
        let entries: Vec<u32> = self
            .program
            .entry_points()
            .iter()
            .map(|m| m.raw())
            .collect();
        for entry in entries {
            self.mark_reachable(entry, CtxId::INITIAL.raw());
        }
        let termination = self.run_loop();
        if self.ts.is_enabled() {
            self.ts.complete(
                "solve",
                "solver",
                t0,
                self.ts.now_ns().saturating_sub(t0),
                &[
                    ("steps", self.steps),
                    ("peak_worklist", self.stats.peak_worklist),
                    ("flushes", self.stats.batches),
                ],
            );
            self.emit_rule_spans(t0);
        }
        termination
    }

    /// `true` when graceful degradation demoted at least one method —
    /// demoted state mixes context granularities, so it is never retained
    /// for incremental maintenance.
    pub(crate) fn has_demotions(&self) -> bool {
        !self.demoted_sites.is_empty()
    }

    /// Replaces the solver's program handle without touching any derived
    /// state. The session uses this to recall the handle before an
    /// in-place program edit (see `AnalysisSession::apply`); the next
    /// incremental apply installs the edited program via `swap_program`.
    pub(crate) fn set_program(&mut self, program: Arc<Program>) {
        self.program = program;
    }

    /// Renders the cumulative per-rule cost as a ladder of complete spans
    /// (stacked end-to-end from the solve start so trace viewers show one
    /// non-overlapping bar per rule; the *widths* are the real cumulative
    /// nanoseconds, the offsets are synthetic).
    fn emit_rule_spans(&mut self, base_ns: u64) {
        let Some(prof) = self.prof.as_deref() else {
            return;
        };
        let mut at = base_ns;
        for (i, &name) in RULE_NAMES.iter().enumerate() {
            if prof.fires[i] == 0 && prof.ns[i] == 0 {
                continue;
            }
            self.ts.complete(
                name,
                "rule",
                at,
                prof.ns[i],
                &[("fires", prof.fires[i]), ("derived", prof.derived[i])],
            );
            at += prof.ns[i];
        }
        if prof.set_promotions > 0 {
            self.ts.instant(
                "set_promotions",
                "solver",
                &[("count", prof.set_promotions)],
            );
        }
    }

    /// Starts a rule timer — a clock read only when profiling is on.
    #[inline]
    fn tick(&self) -> Option<std::time::Instant> {
        if self.prof.is_some() {
            Some(std::time::Instant::now())
        } else {
            None
        }
    }

    /// Stops a [`Solver::tick`] timer, attributing the elapsed time to
    /// `rule`.
    #[inline]
    fn tock(&mut self, rule: usize, t: Option<std::time::Instant>) {
        if let (Some(p), Some(t)) = (self.prof.as_deref_mut(), t) {
            p.ns[rule] += t.elapsed().as_nanos() as u64;
        }
    }

    /// Counts `n` firings of `rule` (profiling only).
    #[inline]
    fn prof_fire(&mut self, rule: usize, n: u64) {
        if let Some(p) = self.prof.as_deref_mut() {
            p.fires[rule] += n;
        }
    }

    /// Counts `n` newly derived tuples for `rule` (profiling only).
    #[inline]
    fn prof_derive(&mut self, rule: usize, n: u64) {
        if n > 0 {
            if let Some(p) = self.prof.as_deref_mut() {
                p.derived[rule] += n;
            }
        }
    }

    /// Maps a provenance reason to its rule slot (for derived counts).
    #[inline]
    fn rule_of(reason: Reason) -> usize {
        match reason {
            Reason::Alloc => R_ALLOC,
            Reason::Assign { .. } => R_MOVE,
            Reason::InterProc { .. } => R_INTERPROC,
            Reason::Load { .. } => R_LOAD,
            Reason::ThisBinding { .. } => R_VCALL,
            Reason::StaticLoad { .. } => R_SLOAD,
            Reason::Caught => R_EXC,
        }
    }

    /// Drains both worklists to fixpoint, or until the budget trips.
    /// Reachability events are processed eagerly because they seed
    /// allocations and static calls.
    fn run_loop(&mut self) -> Termination {
        loop {
            if let Some((m, ctx)) = self.reach_queue.pop_front() {
                self.process_reachable(m, ctx);
            } else if let Some(key) = self.dirty.pop_front() {
                self.process_key(key);
            } else {
                return Termination::Complete;
            }
            self.steps += 1;
            // Sampled queue-depth counter (every 4096 pops); disabled
            // traces skip this with a single branch.
            if self.ts.is_enabled() && self.steps & 0xFFF == 0 {
                let depth = self.dirty.len() as u64;
                self.ts.counter("worklist_depth", "solver", depth);
            }
            if !self.governed {
                continue;
            }
            // Fault injection first: a forced trip takes the same
            // degrade-or-stop path as a real one.
            if let Some(plan) = self.config.fault {
                plan.apply_stall(self.steps);
                if let Some(t) = plan.forced_trip(self.steps) {
                    match self.handle_trip(t) {
                        Some(t) => return t,
                        None => continue,
                    }
                }
            }
            let mem = self.mem_estimate();
            if let Some(t) = self
                .meter
                .check(self.steps, mem, self.config.cancel.as_ref())
            {
                if let Some(t) = self.handle_trip(t) {
                    return t;
                }
            }
        }
    }

    /// A budget limit tripped. Returns `Some(t)` to stop with a partial
    /// result, `None` to continue after graceful degradation.
    fn handle_trip(&mut self, t: Termination) -> Option<Termination> {
        let cancelled = self
            .config
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled);
        // Cancellation is an order, not a resource problem: never
        // degraded away.
        if cancelled || !self.config.degrade {
            return Some(t);
        }
        if self.try_degrade(t) {
            None
        } else {
            Some(t)
        }
    }

    /// One graceful-degradation round: demote every method whose context
    /// fan-out reached the watermark (lowering the watermark until
    /// victims exist, floor 1), then grant headroom on the tripped limit
    /// so the now-coarser run can finish. Returns `false` when no more
    /// headroom may be granted (deadline grace already spent).
    fn try_degrade(&mut self, t: Termination) -> bool {
        match t {
            Termination::Complete => return true,
            Termination::DeadlineExceeded => {
                // One grace window of 10% of the original deadline keeps
                // the "never exceeds the deadline by >10%" contract; a
                // second deadline trip means degradation was too slow.
                if self.grace_used {
                    return false;
                }
                self.grace_used = true;
                if let Some(d) = self.config.budget.deadline {
                    self.meter.extend_deadline(d / 10);
                }
            }
            Termination::StepLimit => {
                self.meter
                    .extend_steps(self.config.budget.max_steps.unwrap_or(1024).max(1));
            }
            Termination::MemoryCap => {
                // Demotion cannot shrink what is already interned, so
                // grant half the original cap per round; the watermark
                // halving below guarantees the rounds bottom out in a
                // finite context-insensitive fixpoint.
                let cap = self.config.budget.max_memory_bytes.unwrap_or(0);
                self.meter.extend_memory((cap / 2).max(1 << 20));
            }
        }
        loop {
            let w = self.watermark;
            let mut any = false;
            for m in 0..self.method_fanout.len() {
                if self.demote_ctx[m] == NOT_DEMOTED && self.method_fanout[m] >= w {
                    self.demote_method(m as u32);
                    any = true;
                }
            }
            self.watermark = (w / 2).max(1);
            if any || w == 1 {
                break;
            }
        }
        true
    }

    /// Demotes `meth`: every future call edge into it reuses the
    /// policy's fallback context, and the method is re-queued under that
    /// context so its allocations and static calls are seeded coarsely.
    /// Existing fine-context facts stay — demotion only merges contexts
    /// (a monotone over-approximation), it never retracts derivations.
    ///
    /// Soundness hinges on the bridge edges installed below. Demotion
    /// re-records the method's allocation sites under the demoted
    /// context, so a site can yield twin abstract objects — a
    /// fine-context one wired into pre-demotion call edges and a
    /// demoted-context one receiving post-demotion field stores. Left
    /// apart, each twin sees only half the flows and facts are lost.
    /// Bridging every existing fine-context key of the method into its
    /// demoted key makes the coarse pipeline subsume the fine ones:
    /// pre-existing inter-procedural edges keep feeding fine keys, the
    /// bridges forward those facts coarsely, and all *new* external
    /// inflows are already intercepted into the demoted context.
    fn demote_method(&mut self, meth: u32) {
        debug_assert_eq!(self.demote_ctx[meth as usize], NOT_DEMOTED);
        let meth_id = MethodId::from_raw(meth);
        let ctx_val = self.policy.demote(meth_id, &self.program);
        let dctx = self.ctxs.intern(ctx_val).raw();
        self.demote_ctx[meth as usize] = dctx;
        self.demoted_sites.push(DemotedSite {
            method: meth_id,
            fanout: self.method_fanout[meth as usize],
        });
        self.mark_reachable(meth, dctx);
        // One linear scan over the interned keys per demotion; a method
        // is demoted at most once, so this stays O(methods × keys) even
        // under full degradation. The scan bound is taken before the
        // loop on purpose: the bridge targets it interns are (var, dctx)
        // keys, which need no bridging themselves. Bridges run BOTH ways
        // — demotion declares the method's contexts one equivalence
        // class. Fine→coarse feeds the demoted pipeline; coarse→fine
        // keeps pre-demotion call edges live (their return edges read
        // fine keys, which would otherwise go stale while new facts
        // accrue only under the demoted context).
        for k in 0..self.vkeys.len() as u32 {
            let (var, c) = self.vkeys.resolve(k);
            if c != dctx && self.program.var_method(VarId::from_raw(var)) == meth_id {
                self.add_ipa_edge(var, c, var, dctx);
                self.add_ipa_edge(var, dctx, var, c);
            }
        }
    }

    /// Coarse bytes held by the dense stores the budget memory cap
    /// governs: interned keys (objects, var keys, field keys, call
    /// sites, reachability pairs, contexts) plus the points-to tuples.
    fn mem_estimate(&self) -> u64 {
        self.objs.mem_bytes()
            + self.vkeys.mem_bytes()
            + self.fkeys.mem_bytes()
            + self.cg_sites.mem_bytes()
            + self.reachable.mem_bytes()
            + self.ctxs.mem_bytes()
            + self.hctxs.mem_bytes()
            + (self.stats.vpt_inserted + self.stats.fld_inserted) * 4
            + self.store.heap_bytes()
    }

    // ----- dense ID management ---------------------------------------------

    /// Interns a `(heap, hctx)` pair, caching its dynamic type.
    fn obj_id(&mut self, heap: u32, hctx: u32) -> u32 {
        let id = self.objs.intern((heap, hctx));
        if id as usize == self.obj_type.len() {
            self.obj_type
                .push(self.program.heap_type(HeapId::from_raw(heap)).raw());
        }
        id
    }

    /// Interns a `(var, ctx)` pair, materializing its entry.
    ///
    /// A key minted under a fine context for an already-demoted method is
    /// bridged into the method's demoted key on the spot (see
    /// [`Solver::demote_method`]): fine keys can keep appearing after
    /// demotion — a queued reachability event firing its allocations, a
    /// return edge landing at a fine caller context — and every one of
    /// them must forward into the coarse pipeline or its facts split off.
    fn key_id(&mut self, var: u32, ctx: u32) -> u32 {
        let id = self.vkeys.intern((var, ctx));
        if id as usize == self.entries.len() {
            self.entries.push(VarEntry::default());
            self.ipa_out.push(Vec::new());
            if let Some(cache) = self.proj_cache.as_deref_mut() {
                if cache.var_keys.len() <= var as usize {
                    cache.var_keys.resize_with(var as usize + 1, Vec::new);
                }
                cache.var_keys[var as usize].push(id);
            }
            if self.config.degrade {
                let m = self.program.var_method(VarId::from_raw(var)).index();
                let d = self.demote_ctx[m];
                if d != NOT_DEMOTED && ctx != d {
                    // Recursion bottoms out immediately: the bridge target
                    // is the (var, d) key itself.
                    self.add_ipa_edge(var, ctx, var, d);
                    self.add_ipa_edge(var, d, var, ctx);
                }
            }
        }
        id
    }

    /// Interns a `(base object, field)` pair, materializing its entry.
    fn fld_id(&mut self, base_obj: u32, field: u32) -> u32 {
        let id = self.fkeys.intern((base_obj, field));
        if id as usize == self.fentries.len() {
            self.fentries.push(FldEntry::default());
        }
        id
    }

    // ----- tuple insertion -------------------------------------------------

    /// Inserts a batch of objects into `key`'s points-to set; new objects
    /// join the key's delta and the key is (re)queued. `reason` applies to
    /// every object in the batch (batch joins are object-invariant).
    fn insert_batch(&mut self, key: u32, objs: &[u32], reason: Reason) {
        if objs.is_empty() {
            return;
        }
        let profiling = self.prof.is_some();
        let entry = &mut self.entries[key as usize];
        let store = &mut self.store;
        let was_promoted = profiling && entry.set.is_promoted();
        let mut newly = 0u64;
        for &obj in objs {
            if entry.set.insert_in(store, obj) {
                entry.delta.push(obj);
                self.stats.vpt_inserted += 1;
                newly += 1;
                if self.config.track_provenance {
                    self.provenance.insert((key, obj), reason);
                }
            } else {
                self.stats.vpt_dup += 1;
            }
        }
        if profiling {
            let promoted = !was_promoted && entry.set.is_promoted();
            let p = self.prof.as_deref_mut().expect("profiling implies prof");
            p.derived[Self::rule_of(reason)] += newly;
            p.set_promotions += u64::from(promoted);
        }
        if newly > 0 {
            if let Some(cache) = self.proj_cache.as_deref_mut() {
                cache.ctx_vpt += newly;
                cache.dirty_vars.insert(self.vkeys.resolve(key).0);
            }
        }
        let entry = &mut self.entries[key as usize];
        if !entry.queued && !entry.delta.is_empty() {
            entry.queued = true;
            self.dirty.push_back(key);
            self.stats.peak_worklist = self.stats.peak_worklist.max(self.dirty.len() as u64);
        }
    }

    /// Inserts a batch of values into `(base_obj, field)`; fresh values
    /// wake every pending load witness. `src_key` is the store source (for
    /// provenance).
    fn insert_fld_batch(&mut self, base_obj: u32, field: u32, vals: &[u32], src_key: u32) {
        if vals.is_empty() {
            return;
        }
        self.stats.fire_store += vals.len() as u64;
        self.prof_fire(R_STORE, vals.len() as u64);
        let fe = self.fld_id(base_obj, field);
        let mut fresh = std::mem::take(&mut self.buf2);
        fresh.clear();
        {
            let entry = &mut self.fentries[fe as usize];
            let store = &mut self.store;
            for &v in vals {
                if entry.set.insert_in(store, v) {
                    fresh.push(v);
                }
            }
        }
        if !fresh.is_empty() {
            self.stats.fld_inserted += fresh.len() as u64;
            self.prof_derive(R_STORE, fresh.len() as u64);
            if let Some(cache) = self.proj_cache.as_deref_mut() {
                let cell = (
                    HeapId::from_raw(self.objs.resolve(base_obj).0),
                    FieldId::from_raw(field),
                );
                for &v in &fresh {
                    let heap = HeapId::from_raw(self.objs.resolve(v).0);
                    cache.fld_new.push((cell, heap));
                }
            }
            if self.config.track_provenance {
                for &v in &fresh {
                    self.fld_provenance.insert((fe, v), src_key);
                }
            }
            for wi in 0..self.fentries[fe as usize].witnesses.len() {
                let (to_key, base_key) = self.fentries[fe as usize].witnesses[wi];
                self.stats.fire_load += fresh.len() as u64;
                self.prof_fire(R_LOAD, fresh.len() as u64);
                self.insert_batch(
                    to_key,
                    &fresh,
                    Reason::Load {
                        base_key,
                        base_obj,
                        field,
                    },
                );
            }
        }
        self.buf2 = fresh;
    }

    /// Inserts a batch of values into static field `field`; fresh values
    /// wake every pending static-load witness.
    fn insert_static_batch(&mut self, field: u32, vals: &[u32], src_key: u32) {
        if vals.is_empty() {
            return;
        }
        self.stats.fire_static_store += vals.len() as u64;
        self.prof_fire(R_SSTORE, vals.len() as u64);
        let mut fresh = std::mem::take(&mut self.buf2);
        fresh.clear();
        {
            let entry = &mut self.statics[field as usize];
            let store = &mut self.store;
            for &v in vals {
                if entry.set.insert_in(store, v) {
                    fresh.push(v);
                }
            }
        }
        if !fresh.is_empty() {
            self.prof_derive(R_SSTORE, fresh.len() as u64);
            if let Some(cache) = self.proj_cache.as_deref_mut() {
                for &v in &fresh {
                    let heap = HeapId::from_raw(self.objs.resolve(v).0);
                    cache.static_new.push((FieldId::from_raw(field), heap));
                }
            }
            if self.config.track_provenance {
                for &v in &fresh {
                    self.static_fld_provenance.insert((field, v), src_key);
                }
            }
            for wi in 0..self.statics[field as usize].witnesses.len() {
                let to_key = self.statics[field as usize].witnesses[wi];
                self.stats.fire_static_load += fresh.len() as u64;
                self.prof_fire(R_SLOAD, fresh.len() as u64);
                self.insert_batch(to_key, &fresh, Reason::StaticLoad { field });
            }
        }
        self.buf2 = fresh;
    }

    /// Marks `(meth, ctx)` reachable; enqueues its body processing if new.
    /// New pairs grow the method's context fan-out; in degrade mode a
    /// method crossing the watermark is demoted proactively, before any
    /// budget limit trips.
    fn mark_reachable(&mut self, meth: u32, ctx: u32) {
        let before = self.reachable.len();
        let id = self.reachable.intern((meth, ctx));
        // A pair tombstoned by retraction resurrects exactly like a fresh
        // one: un-tombstone, re-enqueue, and re-count the fan-out.
        let fresh = self.reachable.len() > before || self.reach_dead.remove(&id);
        if fresh {
            if let Some(cache) = self.proj_cache.as_deref_mut() {
                cache.reach_new.push(MethodId::from_raw(meth));
            }
            self.reach_queue.push_back((meth, ctx));
            self.method_fanout[meth as usize] += 1;
            if self.config.degrade
                && self.demote_ctx[meth as usize] == NOT_DEMOTED
                && self.method_fanout[meth as usize] >= self.watermark
            {
                self.demote_method(meth);
            }
        }
    }

    /// Installs a call-graph edge with its parameter/return
    /// `InterProcAssign` edges (first two rules of Figure 2) and marks the
    /// callee reachable.
    fn add_call_edge(
        &mut self,
        invo: InvoId,
        caller_ctx: u32,
        callee: MethodId,
        mut callee_ctx: u32,
    ) {
        // Demoted callees take their fallback context regardless of what
        // the policy's constructors produced (the single interception
        // point through which every call edge flows).
        let demoted = self.demote_ctx[callee.index()];
        if demoted != NOT_DEMOTED {
            callee_ctx = demoted;
        }
        let site = self.cg_sites.intern((invo.raw(), caller_ctx));
        if site as usize == self.cg_targets.len() {
            self.cg_targets.push(Vec::new());
        }
        let targets = &mut self.cg_targets[site as usize];
        if targets.contains(&(callee.raw(), callee_ctx)) {
            return;
        }
        targets.push((callee.raw(), callee_ctx));
        self.ctx_cg_edges += 1;
        self.stats.call_edges += 1;
        if self.cg_insens.insert((invo, callee)) {
            if let Some(cache) = self.proj_cache.as_deref_mut() {
                cache.cg_new.push((invo, callee));
            }
        }
        self.mark_reachable(callee.raw(), callee_ctx);
        let program = Arc::clone(&self.program);
        let formals = program.formals(callee);
        let actuals = program.actual_args(invo);
        for (&formal, &actual) in formals.iter().zip(actuals.iter()) {
            self.add_ipa_edge(actual.raw(), caller_ctx, formal.raw(), callee_ctx);
        }
        if let (Some(fret), Some(aret)) =
            (program.formal_return(callee), program.actual_return(invo))
        {
            self.add_ipa_edge(fret.raw(), callee_ctx, aret.raw(), caller_ctx);
        }

        // Exceptions escaping the callee propagate to the caller.
        let caller_meth = program.invo_method(invo).raw();
        if self
            .throw_listener_set
            .insert((callee.raw(), callee_ctx, caller_meth, caller_ctx))
        {
            self.throw_listeners
                .entry((callee.raw(), callee_ctx))
                .or_default()
                .push((caller_meth, caller_ctx));
            if let Some(existing) = self.throw_pts.get(&(callee.raw(), callee_ctx)) {
                let mut objs = Vec::with_capacity(existing.len());
                existing.extend_into(&mut objs);
                for obj in objs {
                    self.handle_incoming_exception(caller_meth, caller_ctx, obj);
                }
            }
        }
    }

    /// An exception object has arrived at `(meth, ctx)` — from the
    /// method's own `throw` or from a callee. Any matching catch clause
    /// binds it; if none matches it escapes to `ThrowPointsTo` and
    /// propagates to registered callers.
    fn handle_incoming_exception(&mut self, meth: u32, ctx: u32, obj: u32) {
        self.exc_seen = true;
        let program = Arc::clone(&self.program);
        let meth_id = MethodId::from_raw(meth);
        let heap_ty = TypeId::from_raw(self.obj_type[obj as usize]);
        let mut caught = false;
        for &(ty, binder) in program.catches(meth_id) {
            if program.is_subtype(heap_ty, ty) {
                let bkey = self.key_id(binder.raw(), ctx);
                self.stats.fire_caught += 1;
                self.prof_fire(R_EXC, 1);
                self.insert_batch(bkey, &[obj], Reason::Caught);
                caught = true;
            }
        }
        if !caught && self.throw_pts.entry((meth, ctx)).or_default().insert(obj) {
            self.stats.throw_tuples += 1;
            self.prof_derive(R_EXC, 1);
            if let Some(listeners) = self.throw_listeners.get(&(meth, ctx)) {
                let listeners = listeners.clone();
                for (caller, caller_ctx) in listeners {
                    self.handle_incoming_exception(caller, caller_ctx, obj);
                }
            }
        }
    }

    /// Installs an `InterProcAssign` edge and propagates existing facts
    /// across it.
    fn add_ipa_edge(&mut self, from: u32, from_ctx: u32, to: u32, to_ctx: u32) {
        let from_key = self.key_id(from, from_ctx);
        let to_key = self.key_id(to, to_ctx);
        if self.config.retain {
            // Count every derivation, including duplicates the dedup scan
            // below swallows: retraction decrements per removed call edge
            // and drops the edge only when its support reaches zero.
            *self.ipa_support.entry((from_key, to_key)).or_insert(0) += 1;
        }
        if self.ipa_out[from_key as usize].contains(&to_key) {
            return;
        }
        self.stats.ipa_edges += 1;
        self.ipa_out[from_key as usize].push(to_key);
        if !self.entries[from_key as usize].set.is_empty() {
            let mut existing = std::mem::take(&mut self.ipa_buf);
            existing.clear();
            self.entries[from_key as usize]
                .set
                .extend_into(&mut existing);
            self.stats.fire_interproc += existing.len() as u64;
            self.prof_fire(R_INTERPROC, existing.len() as u64);
            self.insert_batch(to_key, &existing, Reason::InterProc { src_key: from_key });
            self.ipa_buf = existing;
        }
    }

    // ----- rule firing ------------------------------------------------------

    /// Fires the allocation and static-call rules for a newly reachable
    /// `(meth, ctx)` pair.
    fn process_reachable(&mut self, meth: u32, ctx: u32) {
        let program = Arc::clone(&self.program);
        let meth_id = MethodId::from_raw(meth);
        let ctx_val = self.ctxs.resolve(CtxId::from_raw(ctx));
        for instr in program.instrs(meth_id) {
            match *instr {
                Instr::Alloc { var, heap } => {
                    // VarPointsTo(var, ctx, heap, Record(heap, ctx)).
                    let t = self.tick();
                    self.stats.fire_alloc += 1;
                    self.prof_fire(R_ALLOC, 1);
                    let elem = self.policy.record(heap, ctx_val, &program);
                    let hctx = self.hctxs.intern(elem);
                    let obj = self.obj_id(heap.raw(), hctx.raw());
                    let vkey = self.key_id(var.raw(), ctx);
                    self.insert_batch(vkey, &[obj], Reason::Alloc);
                    self.tock(R_ALLOC, t);
                }
                Instr::SCall { target, invo } => {
                    // CallGraph(invo, ctx, target, MergeStatic(invo, ctx)).
                    // Demoted targets skip the constructor so no unused
                    // context is interned on their behalf.
                    let t = self.tick();
                    self.prof_fire(R_SCALL, 1);
                    let callee_ctx = match self.demote_ctx[target.index()] {
                        NOT_DEMOTED => {
                            let v = self.policy.merge_static(invo, ctx_val, &program);
                            self.ctxs.intern(v).raw()
                        }
                        demoted => demoted,
                    };
                    self.add_call_edge(invo, ctx, target, callee_ctx);
                    self.tock(R_SCALL, t);
                }
                Instr::SLoad { to, field } => {
                    // Static loads fire once the enclosing (method, ctx) is
                    // reachable: register a witness and pull current facts.
                    let t = self.tick();
                    let to_key = self.key_id(to.raw(), ctx);
                    let fld = field.raw() as usize;
                    self.statics[fld].witnesses.push(to_key);
                    if !self.statics[fld].set.is_empty() {
                        let mut existing = std::mem::take(&mut self.buf);
                        existing.clear();
                        self.statics[fld].set.extend_into(&mut existing);
                        self.stats.fire_static_load += existing.len() as u64;
                        self.prof_fire(R_SLOAD, existing.len() as u64);
                        self.insert_batch(
                            to_key,
                            &existing,
                            Reason::StaticLoad { field: field.raw() },
                        );
                        self.buf = existing;
                    }
                    self.tock(R_SLOAD, t);
                }
                _ => {}
            }
        }
    }

    /// Drains a key's pending delta and fires every rule that joins on it,
    /// once per `(edge, batch)`.
    fn process_key(&mut self, key: u32) {
        let (var, ctx) = self.vkeys.resolve(key);
        let delta = std::mem::take(&mut self.entries[key as usize].delta);
        self.entries[key as usize].queued = false;
        self.stats.batches += 1;
        let v = var as usize;
        let row = self.index.rows[v];
        let next = self.index.rows[v + 1];

        // Move / Cast: VarPointsTo(to, ctx, obj) <- Move(to, var).
        // Casts filter by subtyping (Doop's AssignCast).
        let t = self.tick();
        for i in row[ROW_ASSIGN] as usize..next[ROW_ASSIGN] as usize {
            let (to, filter) = self.index.assigns[i];
            let to_key = self.key_id(to.raw(), ctx);
            match filter {
                None => {
                    self.stats.fire_assign += delta.len() as u64;
                    self.prof_fire(R_MOVE, delta.len() as u64);
                    self.insert_batch(to_key, &delta, Reason::Assign { src_key: key });
                }
                Some(ty) => {
                    let mut buf = std::mem::take(&mut self.buf);
                    buf.clear();
                    for &obj in &delta {
                        if self
                            .program
                            .is_subtype(TypeId::from_raw(self.obj_type[obj as usize]), ty)
                        {
                            buf.push(obj);
                        }
                    }
                    self.stats.fire_assign += buf.len() as u64;
                    self.prof_fire(R_MOVE, buf.len() as u64);
                    self.insert_batch(to_key, &buf, Reason::Assign { src_key: key });
                    self.buf = buf;
                }
            }
        }
        self.tock(R_MOVE, t);

        // InterProcAssign propagation.
        let t = self.tick();
        for i in 0..self.ipa_out[key as usize].len() {
            let to_key = self.ipa_out[key as usize][i];
            self.stats.fire_interproc += delta.len() as u64;
            self.prof_fire(R_INTERPROC, delta.len() as u64);
            self.insert_batch(to_key, &delta, Reason::InterProc { src_key: key });
        }
        self.tock(R_INTERPROC, t);

        // Loads where `var` is the base: register a witness per new base
        // object and pull existing field facts.
        let t = self.tick();
        for i in row[ROW_LOAD_ON] as usize..next[ROW_LOAD_ON] as usize {
            let (to, field) = self.index.loads_on[i];
            let to_key = self.key_id(to.raw(), ctx);
            for &base_obj in &delta {
                let fe = self.fld_id(base_obj, field.raw());
                self.fentries[fe as usize].witnesses.push((to_key, key));
                if !self.fentries[fe as usize].set.is_empty() {
                    let mut buf = std::mem::take(&mut self.buf);
                    buf.clear();
                    self.fentries[fe as usize].set.extend_into(&mut buf);
                    self.stats.fire_load += buf.len() as u64;
                    self.prof_fire(R_LOAD, buf.len() as u64);
                    self.insert_batch(
                        to_key,
                        &buf,
                        Reason::Load {
                            base_key: key,
                            base_obj,
                            field: field.raw(),
                        },
                    );
                    self.buf = buf;
                }
            }
        }
        self.tock(R_LOAD, t);

        // Stores where `var` is the base:
        // FldPointsTo(baseObj, fld, *pts(from, ctx)).
        let t = self.tick();
        for i in row[ROW_STORE_ON] as usize..next[ROW_STORE_ON] as usize {
            let (field, from) = self.index.stores_on[i];
            let Some(from_key) = self.vkeys.get((from.raw(), ctx)) else {
                continue;
            };
            if self.entries[from_key as usize].set.is_empty() {
                continue;
            }
            let mut buf = std::mem::take(&mut self.buf);
            buf.clear();
            self.entries[from_key as usize].set.extend_into(&mut buf);
            for &base_obj in &delta {
                self.insert_fld_batch(base_obj, field.raw(), &buf, from_key);
            }
            self.buf = buf;
        }

        // Stores where `var` is the source:
        // FldPointsTo(*pts(base, ctx), fld, delta).
        for i in row[ROW_STORE_OF] as usize..next[ROW_STORE_OF] as usize {
            let (base, field) = self.index.stores_of[i];
            let Some(base_key) = self.vkeys.get((base.raw(), ctx)) else {
                continue;
            };
            if self.entries[base_key as usize].set.is_empty() {
                continue;
            }
            let mut bases = std::mem::take(&mut self.buf);
            bases.clear();
            self.entries[base_key as usize].set.extend_into(&mut bases);
            for &base_obj in &bases {
                self.insert_fld_batch(base_obj, field.raw(), &delta, key);
            }
            self.buf = bases;
        }
        self.tock(R_STORE, t);

        // Throws of `var`: the exception arrives at the enclosing method.
        if row[ROW_THROWN] != 0 {
            let t = self.tick();
            let meth = self.program.var_method(VarId::from_raw(var)).raw();
            for &obj in &delta {
                self.prof_fire(R_EXC, 1);
                self.handle_incoming_exception(meth, ctx, obj);
            }
            self.tock(R_EXC, t);
        }

        // Static-field stores where `var` is the source.
        let t = self.tick();
        for i in row[ROW_SSTORE_OF] as usize..next[ROW_SSTORE_OF] as usize {
            let field = self.index.sstores_of[i];
            self.insert_static_batch(field.raw(), &delta, key);
        }
        self.tock(R_SSTORE, t);

        // Virtual calls where `var` is the receiver: dispatch, Merge, and
        // derive CallGraph + this-points-to + Reachable.
        let vcall_rng = row[ROW_VCALL_ON] as usize..next[ROW_VCALL_ON] as usize;
        if !vcall_rng.is_empty() {
            let t = self.tick();
            let ctx_val = self.ctxs.resolve(CtxId::from_raw(ctx));
            for i in vcall_rng {
                let (sig, invo) = self.index.vcalls_on[i];
                for &obj in &delta {
                    self.stats.fire_vcall_dispatch += 1;
                    self.prof_fire(R_VCALL, 1);
                    let heap_ty = TypeId::from_raw(self.obj_type[obj as usize]);
                    if let Some(callee) = self.program.lookup(heap_ty, sig) {
                        let (heap, hctx) = self.objs.resolve(obj);
                        let hctx_val = self.hctxs.resolve(HCtxId::from_raw(hctx));
                        // Demoted callees skip Merge so no unused context
                        // is interned on their behalf.
                        let callee_ctx = match self.demote_ctx[callee.index()] {
                            NOT_DEMOTED => {
                                let v = self.policy.merge(
                                    HeapId::from_raw(heap),
                                    hctx_val,
                                    invo,
                                    ctx_val,
                                    &self.program,
                                );
                                self.ctxs.intern(v).raw()
                            }
                            demoted => demoted,
                        };
                        self.add_call_edge(invo, ctx, callee, callee_ctx);
                        if let Some(this) = self.program.this_var(callee) {
                            // VarPointsTo(this, calleeCtx, obj) — per
                            // receiver object, even when the call-graph
                            // edge existed.
                            let tkey = self.key_id(this.raw(), callee_ctx);
                            self.stats.fire_this_binding += 1;
                            self.insert_batch(
                                tkey,
                                &[obj],
                                Reason::ThisBinding { invo: invo.raw() },
                            );
                        }
                    }
                }
            }
            self.tock(R_VCALL, t);
        }
    }

    // ----- result construction ----------------------------------------------

    /// Projects the solver state into a [`PointsToResult`]. With
    /// `retain`, the state survives (interners are cloned into the result
    /// instead of moved) so the caller can keep the solver for later
    /// incremental delta application; without it, heavy members are moved
    /// out and the solver should be dropped.
    pub(crate) fn build_result(
        &mut self,
        termination: Termination,
        retain: bool,
    ) -> PointsToResult {
        self.stats.contexts = self.ctxs.len() as u64;
        self.stats.heap_contexts = self.hctxs.len() as u64;
        self.stats.objects = self.objs.len() as u64;
        self.stats.steps = self.steps;
        self.stats.demoted_methods = self.demoted_sites.len() as u64;
        self.stats.sets_interned = self.store.sets_interned();
        self.stats.sets_shared = self.store.sets_shared();
        self.stats.bytes_saved = self.store.bytes_saved();
        self.stats.sets_evicted = self.store.sets_evicted();
        self.demoted_sites.sort_unstable_by_key(|d| d.method);

        // Resolves a dense (key, object) pair to the public tuple form.
        let tuple =
            |vkeys: &DenseMap<(u32, u32)>, objs: &DenseMap<(u32, u32)>, key: u32, obj: u32| {
                let (var, ctx) = vkeys.resolve(key);
                let (heap, hctx) = objs.resolve(obj);
                CtxVarPointsTo {
                    var: VarId::from_raw(var),
                    ctx: CtxId::from_raw(ctx),
                    heap: HeapId::from_raw(heap),
                    hctx: HCtxId::from_raw(hctx),
                }
            };

        let (proj, ctx_vpt_count) = match self.proj_cache.as_deref_mut().filter(|_| retain) {
            // Incremental build: patch the shared projections with what
            // changed since the last build.
            Some(cache) => {
                cache.patch(&self.entries, &self.objs);
                (Arc::clone(&cache.proj), cache.ctx_vpt)
            }
            None => {
                let (proj, ctx_vpt) = self.project();
                let proj = Arc::new(proj);
                if retain {
                    // First retained build (or first after a retracting
                    // apply): the cache shares the maps just built.
                    self.proj_cache = Some(Box::new(ProjCache::seed(
                        Arc::clone(&proj),
                        &self.vkeys,
                        self.program.var_count(),
                        ctx_vpt,
                    )));
                }
                (proj, ctx_vpt)
            }
        };

        // Rule-level profile plus the hottest variables by final
        // context-projected set size (top 10, deterministic tie-break on
        // the variable id).
        let profile = self.prof.take().map(|p| {
            // A bounded insertion keeps only the ten best, ordered by
            // size descending, then variable ascending.
            let mut top: Vec<(usize, VarId)> = Vec::with_capacity(11);
            for (&v, heaps) in &proj.var_points_to {
                let n = heaps.len();
                let at = top.partition_point(|&(m, w)| m > n || (m == n && w < v));
                if at < 10 {
                    top.insert(at, (n, v));
                    top.truncate(10);
                }
            }
            let hot = top
                .into_iter()
                .map(|(len, v)| pta_obs::HotVar {
                    name: format!(
                        "{}::{}",
                        self.program
                            .method_qualified_name(self.program.var_method(v)),
                        self.program.var_name(v)
                    ),
                    size: len as u64,
                })
                .collect();
            Box::new(p.into_profile(hot))
        });

        let tuples = if self.config.keep_tuples {
            let mut out = Vec::with_capacity(ctx_vpt_count as usize);
            for (key, entry) in self.entries.iter().enumerate() {
                for obj in entry.set.iter() {
                    out.push(tuple(&self.vkeys, &self.objs, key as u32, obj));
                }
            }
            Some(out)
        } else {
            None
        };

        let provenance = if self.config.track_provenance {
            Some(
                self.provenance
                    .iter()
                    .map(|(&(key, obj), &r)| {
                        let d = match r {
                            Reason::Alloc => Derivation::Alloc,
                            Reason::Assign { src_key } => Derivation::Assign {
                                from: tuple(&self.vkeys, &self.objs, src_key, obj),
                            },
                            Reason::InterProc { src_key } => Derivation::InterProc {
                                from: tuple(&self.vkeys, &self.objs, src_key, obj),
                            },
                            Reason::Load {
                                base_key,
                                base_obj,
                                field,
                            } => Derivation::Load {
                                base: tuple(&self.vkeys, &self.objs, base_key, base_obj),
                                field: FieldId::from_raw(field),
                            },
                            Reason::ThisBinding { invo } => Derivation::ThisBinding {
                                invo: InvoId::from_raw(invo),
                            },
                            Reason::StaticLoad { field } => Derivation::StaticLoad {
                                field: FieldId::from_raw(field),
                            },
                            Reason::Caught => Derivation::Caught,
                        };
                        (tuple(&self.vkeys, &self.objs, key, obj), d)
                    })
                    .collect(),
            )
        } else {
            None
        };

        let mut uncaught: Vec<HeapId> = {
            let entries: FxHashSet<u32> = self
                .program
                .entry_points()
                .iter()
                .map(|m| m.raw())
                .collect();
            let mut set: FxHashSet<HeapId> = FxHashSet::default();
            for (&(m, _ctx), escaping) in &self.throw_pts {
                if entries.contains(&m) {
                    for obj in escaping.iter() {
                        set.insert(HeapId::from_raw(self.objs.resolve(obj).0));
                    }
                }
            }
            set.into_iter().collect()
        };
        uncaught.sort_unstable();

        let fld_provenance = if self.config.track_provenance {
            Some(
                self.fld_provenance
                    .iter()
                    .map(|(&(fe, val_obj), &src_key)| {
                        let (base_obj, field) = self.fkeys.resolve(fe);
                        let (bh, bhc) = self.objs.resolve(base_obj);
                        let (h, hc) = self.objs.resolve(val_obj);
                        (
                            (
                                HeapId::from_raw(bh),
                                HCtxId::from_raw(bhc),
                                FieldId::from_raw(field),
                                HeapId::from_raw(h),
                                HCtxId::from_raw(hc),
                            ),
                            tuple(&self.vkeys, &self.objs, src_key, val_obj),
                        )
                    })
                    .collect(),
            )
        } else {
            None
        };
        let static_fld_provenance = if self.config.track_provenance {
            Some(
                self.static_fld_provenance
                    .iter()
                    .map(|(&(fld, val_obj), &src_key)| {
                        let (h, hc) = self.objs.resolve(val_obj);
                        (
                            (
                                FieldId::from_raw(fld),
                                HeapId::from_raw(h),
                                HCtxId::from_raw(hc),
                            ),
                            tuple(&self.vkeys, &self.objs, src_key, val_obj),
                        )
                    })
                    .collect(),
            )
        } else {
            None
        };

        let (ctx_interner, hctx_interner, demoted) = if retain {
            (
                self.ctxs.clone(),
                self.hctxs.clone(),
                self.demoted_sites.clone(),
            )
        } else {
            (
                std::mem::replace(&mut self.ctxs, CtxInterner::with_capacity(0)),
                std::mem::replace(&mut self.hctxs, HCtxInterner::with_capacity(0)),
                std::mem::take(&mut self.demoted_sites),
            )
        };

        PointsToResult {
            proj,
            call_graph_edges: self.cg_insens.len(),
            ctx_vpt_count,
            ctx_call_graph_edges: self.ctx_cg_edges,
            ctx_reachable_count: (self.reachable.len() - self.reach_dead.len()) as u64,
            ctx_count: ctx_interner.len(),
            hctx_count: hctx_interner.len(),
            tuples,
            provenance,
            fld_provenance,
            static_fld_provenance,
            uncaught,
            ctx_interner,
            hctx_interner,
            stats: self.stats,
            shard_stats: Vec::new(),
            termination,
            demoted,
            profile,
        }
    }

    /// Computes every context-insensitive projection from scratch, plus
    /// the context-sensitive tuple count. Every set is sorted and
    /// deduplicated so both back ends (and all thread counts) produce
    /// byte-identical views.
    fn project(&self) -> (Projections, u64) {
        // Variables via counting sort: scatter every tuple's heap into one
        // flat per-var-segmented array, then sort/dedup each segment — no
        // per-tuple hashing. Scoped so the scratch arrays are freed before
        // the other views are built.
        let (var_points_to, vpt_total) = {
            let mut vpt_total = 0u64;
            let n_vars = self.program.var_count();
            let mut starts = vec![0u32; n_vars + 1];
            for (key, entry) in self.entries.iter().enumerate() {
                vpt_total += entry.set.len() as u64;
                let (var, _ctx) = self.vkeys.resolve(key as u32);
                starts[var as usize + 1] += entry.set.len() as u32;
            }
            for i in 0..n_vars {
                starts[i + 1] += starts[i];
            }
            let mut flat = vec![0u32; vpt_total as usize];
            let mut cursor = starts.clone();
            for (key, entry) in self.entries.iter().enumerate() {
                if entry.set.is_empty() {
                    continue;
                }
                let (var, _ctx) = self.vkeys.resolve(key as u32);
                let c = &mut cursor[var as usize];
                for obj in entry.set.iter() {
                    flat[*c as usize] = self.objs.resolve(obj).0;
                    *c += 1;
                }
            }
            let mut var_points_to: FxHashMap<VarId, Vec<HeapId>> = FxHashMap::default();
            for var in 0..n_vars {
                let seg = &mut flat[starts[var] as usize..starts[var + 1] as usize];
                if seg.is_empty() {
                    continue;
                }
                seg.sort_unstable();
                let mut heaps: Vec<HeapId> = Vec::with_capacity(seg.len());
                let mut last = u32::MAX;
                for &h in seg.iter() {
                    if h != last {
                        heaps.push(HeapId::from_raw(h));
                        last = h;
                    }
                }
                var_points_to.insert(VarId::from_raw(var as u32), heaps);
            }
            (var_points_to, vpt_total)
        };

        let mut call_targets: FxHashMap<InvoId, Vec<MethodId>> = FxHashMap::default();
        for &(invo, meth) in &self.cg_insens {
            call_targets.entry(invo).or_default().push(meth);
        }
        for v in call_targets.values_mut() {
            v.sort_unstable();
            v.dedup();
        }

        let mut reachable: FxHashSet<MethodId> = FxHashSet::default();
        for (id, &(m, _ctx)) in self.reachable.keys().iter().enumerate() {
            if !self.reach_dead.contains(&(id as u32)) {
                reachable.insert(MethodId::from_raw(m));
            }
        }

        let mut field_points_to: FxHashMap<(HeapId, FieldId), Vec<HeapId>> = FxHashMap::default();
        for (fe, entry) in self.fentries.iter().enumerate() {
            if entry.set.is_empty() {
                continue;
            }
            let (base_obj, field) = self.fkeys.resolve(fe as u32);
            let base = HeapId::from_raw(self.objs.resolve(base_obj).0);
            let cell = field_points_to
                .entry((base, FieldId::from_raw(field)))
                .or_default();
            for obj in entry.set.iter() {
                cell.push(HeapId::from_raw(self.objs.resolve(obj).0));
            }
        }
        for v in field_points_to.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        let mut static_points_to: FxHashMap<FieldId, Vec<HeapId>> = FxHashMap::default();
        for (fld, entry) in self.statics.iter().enumerate() {
            if entry.set.is_empty() {
                continue;
            }
            let cell = static_points_to
                .entry(FieldId::from_raw(fld as u32))
                .or_default();
            for obj in entry.set.iter() {
                cell.push(HeapId::from_raw(self.objs.resolve(obj).0));
            }
        }
        for v in static_points_to.values_mut() {
            v.sort_unstable();
            v.dedup();
        }

        let proj = Projections {
            var_points_to,
            call_targets,
            reachable,
            field_points_to,
            static_points_to,
        };
        (proj, vpt_total)
    }
}
