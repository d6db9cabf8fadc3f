//! The sharded parallel fixpoint solver (`AnalysisSession::threads` > 1).
//!
//! The dense `(var, ctx)` key space of [`crate::solver`] is partitioned
//! across `std::thread::scope` workers and evaluated in bulk-synchronous
//! rounds. Work is sharded **by method** (`shard(m) = m % n`, variables
//! follow their enclosing method) because every intra-method join in
//! `process_key` — move/cast targets, the sibling variable reads of the
//! store rules, receiver dispatch at a call site — then stays shard-local;
//! only the inter-procedural rules (parameter/return edges, field cells
//! reached through foreign base objects, static fields, exceptions,
//! reachability) cross shards, and those cross as explicit messages.
//! Field cells are sharded by allocation site (`heap % n`), static fields
//! by field ID (`field % n`).
//!
//! ## Execution model
//!
//! Each worker owns a private FIFO dirty queue, its shard of the
//! [`PtsSet`]s, and *private interners* for contexts, heap contexts and
//! objects — messages carry context **values** (a [`Ctx`] is three packed
//! `u32`s), so no interner is ever shared or locked. A round is:
//!
//! 1. **drain** — run the sequential solver loop over local work to a
//!    local fixpoint, depositing cross-shard facts into per-destination
//!    outboxes;
//! 2. **deposit** — publish each outbox into the `mailbox[dest][src]`
//!    cell (uncontended: one writer per cell per round) and add the
//!    message count to the round's quiescence counter;
//! 3. **barrier; decide** — the leader reads the counter: zero messages
//!    and no stopped shard means global quiescence (every queue is empty
//!    and nothing is in flight — termination detection is exact, not
//!    heuristic), otherwise the round count advances or a budget trip is
//!    resolved (degrade / stop);
//! 4. **collect** — every worker applies its inbox in sender order and
//!    loops back to 1.
//!
//! ## Determinism
//!
//! For a fixed thread count the schedule is deterministic: message
//! delivery is ordered (sender-major, FIFO within a sender) and each
//! drain is the sequential FIFO loop. *Across* thread counts the result
//! is identical because the rule set is monotone Datalog whose least
//! fixpoint does not depend on derivation order; DESIGN.md §10 spells out
//! the argument and the execution-shape counters (`batches`, `steps`,
//! `peak_worklist`, …) that deliberately remain per-schedule.
//!
//! ## Governance
//!
//! Budgets stay cooperative per shard: workers publish step/memory totals
//! and test the shared deadline/cancel flag on a stride inside the drain
//! loop, setting a global stop flag on the first trip. The leader resolves
//! the trip at the next barrier — graceful degradation extends the tripped
//! limit and runs a lock-step demotion round (watermark halving in unison),
//! while a hard stop lets every worker drain its inbox once more (so no
//! deposited fact is lost) and return a sound partial prefix.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use pta_govern::{CancelToken, Termination};
use pta_ir::hash::{FxHashMap, FxHashSet};
use pta_ir::{FieldId, HeapId, Instr, InvoId, MethodId, Program, SizeHints, TypeId, VarId};

use crate::context::{Ctx, CtxId, CtxInterner, DenseMap, HCtxId, HCtxInterner, HeapCtx};
use crate::policy::ContextPolicy;
use crate::pts::PtsSet;
use crate::pts_store::PtsStore;
use crate::results::{DemotedSite, PointsToResult, Projections, SolverStats};
use crate::solver::{
    SolverConfig, StaticIndex, DEFAULT_WATERMARK, NOT_DEMOTED, ROW_ASSIGN, ROW_LOAD_ON,
    ROW_SSTORE_OF, ROW_STORE_OF, ROW_STORE_ON, ROW_THROWN, ROW_VCALL_ON,
};

/// An object crossing a shard boundary: its allocation site plus the heap
/// context *value* (local object IDs are meaningless in another shard).
type ObjVal = (u32, HeapCtx);

/// Cross-shard facts. Each variant is addressed to the unique owner of
/// the state it mutates, so applying a message never needs further
/// coordination.
enum Msg {
    /// `VarPointsTo(var, ctx) ∪= objs` — to the owner of `var`.
    Insert {
        var: u32,
        ctx: Ctx,
        objs: Vec<ObjVal>,
    },
    /// Install an `InterProcAssign` edge — to the owner of `from`
    /// (edges live with their source so delta propagation is local).
    Edge {
        from: u32,
        from_ctx: Ctx,
        to: u32,
        to_ctx: Ctx,
    },
    /// `Reachable(meth, ctx)` — to the owner of `meth`.
    Reach { meth: u32, ctx: Ctx },
    /// Register a load destination on `(heap, hctx).field` — to the
    /// owner of the field cell (`heap % n`).
    Witness {
        heap: u32,
        hctx: HeapCtx,
        field: u32,
        to: u32,
        to_ctx: Ctx,
    },
    /// `FldPointsTo((heap, hctx), field) ∪= vals` — to the field-cell owner.
    FldInsert {
        heap: u32,
        hctx: HeapCtx,
        field: u32,
        vals: Vec<ObjVal>,
    },
    /// Register a static-load destination — to the owner of `field`
    /// (`field % n`).
    SWitness { field: u32, to: u32, to_ctx: Ctx },
    /// `StaticFldPointsTo(field) ∪= vals` — to the owner of `field`.
    SInsert { field: u32, vals: Vec<ObjVal> },
    /// An exception object arriving at `(meth, ctx)` — to the owner of
    /// `meth` (catch clauses and escape sets live with the method).
    Throw { meth: u32, ctx: Ctx, obj: ObjVal },
    /// Register `(caller, caller_ctx)` for exceptions escaping
    /// `(callee, callee_ctx)` — to the owner of `callee`.
    ThrowListen {
        callee: u32,
        callee_ctx: Ctx,
        caller: u32,
        caller_ctx: Ctx,
    },
    /// Broadcast: `meth` was demoted by its owner; mirror the fallback
    /// context so future call edges from this shard are intercepted.
    Demote { meth: u32 },
}

/// High bit of a propagation target: set for an index into
/// `Shard::remote_refs`, clear for a local key ID. Key/ref counts stay far
/// below 2^31 (the sequential solver already packs them in `u32`s).
const REMOTE_BIT: u32 = 1 << 31;

/// Governance stride inside `drain` (worklist pops between checks).
const GOV_STRIDE: u32 = 64;

/// Leader decision, published between the two round barriers.
const DECIDE_CONTINUE: u32 = 0;
const DECIDE_COMPLETE: u32 = 1;
const DECIDE_DEGRADE: u32 = 2;
const DECIDE_STOP_BASE: u32 = 3; // + Termination discriminant

/// Stop-flag values (also the `DECIDE_STOP_BASE` offsets).
const TRIP_NONE: u32 = 0;
const TRIP_DEADLINE: u32 = 1;
const TRIP_STEPS: u32 = 2;
const TRIP_MEMORY: u32 = 3;
const TRIP_CANCEL: u32 = 4;

fn trip_termination(trip: u32) -> Termination {
    match trip {
        TRIP_STEPS => Termination::StepLimit,
        TRIP_MEMORY => Termination::MemoryCap,
        // Cancellation reports as DeadlineExceeded, like the meter.
        _ => Termination::DeadlineExceeded,
    }
}

/// Shared governance state: the mutable budget limits (the leader extends
/// them when graceful degradation buys headroom), the published per-shard
/// step/memory totals, and the first-trip latch.
struct Gov {
    start: Instant,
    /// Deadline in nanoseconds since `start`; `u64::MAX` when unlimited.
    deadline_nanos: AtomicU64,
    max_steps: AtomicU64,
    max_mem: AtomicU64,
    /// First tripped limit (`TRIP_*`); 0 while within budget.
    stop: AtomicU32,
    steps: AtomicU64,
    mem: Vec<AtomicU64>,
}

impl Gov {
    fn new(config: &SolverConfig, n: usize) -> Gov {
        Gov {
            start: Instant::now(),
            deadline_nanos: AtomicU64::new(
                config
                    .budget
                    .deadline
                    .map_or(u64::MAX, |d| d.as_nanos() as u64),
            ),
            max_steps: AtomicU64::new(config.budget.max_steps.unwrap_or(u64::MAX)),
            max_mem: AtomicU64::new(config.budget.max_memory_bytes.unwrap_or(u64::MAX)),
            stop: AtomicU32::new(TRIP_NONE),
            steps: AtomicU64::new(0),
            mem: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Latches the first trip (later trips keep the original cause).
    fn trip(&self, kind: u32) {
        let _ = self
            .stop
            .compare_exchange(TRIP_NONE, kind, Ordering::SeqCst, Ordering::SeqCst);
    }
}

/// Round-shared coordination cells. The per-round counters come in pairs
/// indexed by round parity: the leader clears the *other* slot while every
/// worker is parked between the barriers, so clears never race with the
/// adds of the next round.
struct Coord {
    barrier: Barrier,
    msgs: [AtomicU64; 2],
    pending: [AtomicU64; 2],
    decision: AtomicU32,
    /// Shards that demoted a method in the current degrade iteration
    /// (cleared between iterations under a barrier of its own — degrade
    /// rounds are rare enough that the extra barrier beats parity
    /// bookkeeping).
    demoted: AtomicU64,
}

type Mailboxes = Vec<Vec<Mutex<Vec<Msg>>>>;

/// Entry point: runs `policy` over `program` on `threads` worker shards.
/// `threads` ≥ 2 (the session routes 0/1 to the sequential solver).
pub(crate) fn solve_parallel<P: ContextPolicy>(
    program: &Program,
    policy: &P,
    config: SolverConfig,
    threads: usize,
) -> PointsToResult {
    // More shards than methods would leave workers idle forever.
    let n = threads.clamp(1, program.method_count().max(1));
    debug_assert!(
        config.fault.is_none() && !config.keep_tuples && !config.track_provenance,
        "session routes fault/tuples/provenance configs to the sequential solver"
    );
    let mut ts = config.trace.scope(0);
    let t_solve = ts.now_ns();
    let index = StaticIndex::build(program);
    let gov = Gov::new(&config, n);
    let governed = !config.budget.is_unlimited() || config.cancel.is_some();
    let coord = Coord {
        barrier: Barrier::new(n),
        msgs: [AtomicU64::new(0), AtomicU64::new(0)],
        pending: [AtomicU64::new(0), AtomicU64::new(0)],
        decision: AtomicU32::new(DECIDE_CONTINUE),
        demoted: AtomicU64::new(0),
    };
    let mailboxes: Mailboxes = (0..n)
        .map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect())
        .collect();
    let var_owner: Vec<u32> = (0..program.var_count())
        .map(|v| program.var_method(VarId::from_raw(v as u32)).raw() % n as u32)
        .collect();

    let mut shards: Vec<(Shard<'_, P>, Termination)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|id| {
                let index = &index;
                let gov = &gov;
                let coord = &coord;
                let mailboxes = &mailboxes;
                let var_owner = &var_owner;
                let config = config.clone();
                scope.spawn(move || {
                    let mut shard = Shard::new(
                        id as u32, n as u32, program, policy, config, index, var_owner,
                    );
                    let termination = shard.run(gov, coord, mailboxes, governed);
                    // Flush trace events while still on the worker thread;
                    // the shard itself is merged (and dropped) on the main
                    // thread later.
                    shard.ts.flush();
                    (shard, termination)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });

    let termination = shards[0].1;
    let rounds = shards[0].0.rounds;
    let t_merge = ts.now_ns();
    let result = merge_results(
        program,
        shards.drain(..).map(|(s, _)| s).collect(),
        termination,
        rounds,
    );
    if ts.is_enabled() {
        let t_end = ts.now_ns();
        ts.complete(
            "merge",
            "parallel",
            t_merge,
            t_end - t_merge,
            &[("shards", n as u64), ("rounds", rounds)],
        );
        // The same top-level span the sequential solver emits, so trace
        // consumers always find one "solve" regardless of thread count.
        ts.complete(
            "solve",
            "solver",
            t_solve,
            t_end - t_solve,
            &[("shards", n as u64), ("rounds", rounds)],
        );
    }
    result
}

/// One worker's slice of the solver state. Mirrors `solver::Solver` field
/// for field, with three changes: interners are shard-private (IDs in this
/// struct are meaningless elsewhere), propagation targets are `u32` refs
/// that may carry [`REMOTE_BIT`], and every piece of non-owned state is
/// reached through an outbox instead of a direct mutation.
struct Shard<'a, P: ContextPolicy> {
    id: u32,
    n: u32,
    program: &'a Program,
    policy: &'a P,
    config: SolverConfig,
    index: &'a StaticIndex,
    var_owner: &'a [u32],

    ctxs: CtxInterner,
    hctxs: HCtxInterner,
    objs: DenseMap<(u32, u32)>,
    obj_type: Vec<u32>,
    vkeys: DenseMap<(u32, u32)>,
    entries: Vec<VarEntry>,
    /// Key -> propagation targets (local keys or remote refs).
    ipa_out: Vec<Vec<u32>>,
    /// Interned `(var, local ctx ID)` pairs for foreign destinations.
    remote_refs: DenseMap<(u32, u32)>,
    fkeys: DenseMap<(u32, u32)>,
    fentries: Vec<FldEntry>,
    statics: Vec<StaticEntry>,

    cg_sites: DenseMap<(u32, u32)>,
    cg_targets: Vec<Vec<(u32, u32)>>,
    ctx_cg_edges: u64,
    cg_insens: FxHashSet<(InvoId, MethodId)>,
    reachable: DenseMap<(u32, u32)>,

    dirty: std::collections::VecDeque<u32>,
    reach_queue: std::collections::VecDeque<(u32, u32)>,

    throw_pts: FxHashMap<(u32, u32), PtsSet>,
    throw_listeners: FxHashMap<(u32, u32), Vec<(u32, u32)>>,
    throw_listener_set: FxHashSet<(u32, u32, u32, u32)>,

    buf: Vec<u32>,
    buf2: Vec<u32>,
    ipa_buf: Vec<u32>,

    /// Shard-private intern store for the `Shared` points-to stage — no
    /// locks, no cross-shard rendezvous; counters are merged in shard-ID
    /// order so reported stats stay deterministic.
    store: PtsStore,

    stats: SolverStats,
    steps: u64,
    /// Steps not yet published to `Gov::steps`.
    unpublished_steps: u64,
    until_check: u32,
    watermark: u32,
    method_fanout: Vec<u32>,
    /// Owner-written for owned methods, mirror-written on `Demote`
    /// broadcasts for foreign ones; either way the single interception
    /// point every local call edge consults.
    demote_ctx: Vec<u32>,
    demoted_sites: Vec<DemotedSite>,

    /// Outboxes, one per destination shard.
    out: Vec<Vec<Msg>>,
    rounds: u64,

    /// Per-shard trace recorder (tid = shard ID + 1; tid 0 is the main
    /// thread). A disabled trace makes every call here a no-op.
    ts: pta_obs::TraceScope,
}

/// Per-(var, ctx) points-to state (see `solver::VarEntry`).
#[derive(Default)]
struct VarEntry {
    set: PtsSet,
    delta: Vec<u32>,
    queued: bool,
}

/// Per-(base object, field) state; witnesses are target refs.
#[derive(Default)]
struct FldEntry {
    set: PtsSet,
    witnesses: Vec<u32>,
}

/// Per owned static field.
#[derive(Default)]
struct StaticEntry {
    set: PtsSet,
    witnesses: Vec<u32>,
}

impl<'a, P: ContextPolicy> Shard<'a, P> {
    fn new(
        id: u32,
        n: u32,
        program: &'a Program,
        policy: &'a P,
        config: SolverConfig,
        index: &'a StaticIndex,
        var_owner: &'a [u32],
    ) -> Shard<'a, P> {
        let hints = SizeHints::of_program(program);
        let per = |x: usize| x / n as usize + 8;
        let watermark = config.budget.watermark.unwrap_or(DEFAULT_WATERMARK).max(1);
        let n_methods = program.method_count();
        let ts = config.trace.scope_named(id + 1, &format!("shard-{id}"));
        let share = config.share;
        Shard {
            id,
            n,
            program,
            policy,
            config,
            index,
            var_owner,
            ctxs: CtxInterner::with_capacity(per(hints.contexts)),
            hctxs: HCtxInterner::with_capacity(per(hints.heap_contexts)),
            objs: DenseMap::with_capacity(per(hints.objects)),
            obj_type: Vec::with_capacity(per(hints.objects)),
            vkeys: DenseMap::with_capacity(per(hints.var_ctx_keys)),
            entries: Vec::with_capacity(per(hints.var_ctx_keys)),
            ipa_out: Vec::with_capacity(per(hints.var_ctx_keys)),
            remote_refs: DenseMap::with_capacity(per(hints.var_ctx_keys)),
            fkeys: DenseMap::with_capacity(per(hints.objects)),
            fentries: Vec::new(),
            statics: (0..program.field_count())
                .map(|_| StaticEntry::default())
                .collect(),
            cg_sites: DenseMap::with_capacity(per(hints.contexts)),
            cg_targets: Vec::with_capacity(per(hints.contexts)),
            ctx_cg_edges: 0,
            cg_insens: FxHashSet::default(),
            reachable: DenseMap::with_capacity(per(hints.contexts)),
            dirty: std::collections::VecDeque::new(),
            reach_queue: std::collections::VecDeque::new(),
            throw_pts: FxHashMap::default(),
            throw_listeners: FxHashMap::default(),
            throw_listener_set: FxHashSet::default(),
            buf: Vec::new(),
            buf2: Vec::new(),
            ipa_buf: Vec::new(),
            store: if share {
                PtsStore::new()
            } else {
                PtsStore::disabled()
            },
            stats: SolverStats::default(),
            steps: 0,
            unpublished_steps: 0,
            until_check: GOV_STRIDE,
            watermark,
            method_fanout: vec![0; n_methods],
            demote_ctx: vec![NOT_DEMOTED; n_methods],
            demoted_sites: Vec::new(),
            out: (0..n).map(|_| Vec::new()).collect(),
            rounds: 0,
            ts,
        }
    }

    #[inline]
    fn owner_of_method(&self, meth: u32) -> u32 {
        meth % self.n
    }

    #[inline]
    fn owner_of_heap(&self, heap: u32) -> u32 {
        heap % self.n
    }

    #[inline]
    fn owner_of_static(&self, field: u32) -> u32 {
        field % self.n
    }

    // ----- round loop ------------------------------------------------------

    fn run(
        &mut self,
        gov: &Gov,
        coord: &Coord,
        mailboxes: &Mailboxes,
        governed: bool,
    ) -> Termination {
        // Seed: entry points owned by this shard are reachable under the
        // initial context.
        for &entry in self.program.entry_points() {
            if self.owner_of_method(entry.raw()) == self.id {
                self.mark_reachable(entry.raw(), CtxId::INITIAL.raw());
            }
        }
        let leader = self.id == 0;
        let mut grace_used = false;
        loop {
            let parity = (self.rounds % 2) as usize;
            let t_busy = self.ts.now_ns();
            self.drain(gov, governed);
            let deposited = self.deposit(mailboxes);
            let t_sync = self.ts.now_ns();
            if self.ts.is_enabled() {
                // Busy half of the round: local fixpoint + outbox publish.
                self.ts.complete(
                    "drain",
                    "shard",
                    t_busy,
                    t_sync - t_busy,
                    &[("round", self.rounds), ("deposited", deposited)],
                );
            }
            coord.msgs[parity].fetch_add(deposited, Ordering::SeqCst);
            if !self.dirty.is_empty() || !self.reach_queue.is_empty() {
                coord.pending[parity].fetch_add(1, Ordering::SeqCst);
            }
            coord.barrier.wait();
            if leader {
                let decision = self.decide(gov, coord, parity, &mut grace_used);
                // Clear the other parity's slots for the round after next;
                // every worker is parked between the barriers, so nothing
                // is adding to them now.
                coord.msgs[parity ^ 1].store(0, Ordering::SeqCst);
                coord.pending[parity ^ 1].store(0, Ordering::SeqCst);
                coord.decision.store(decision, Ordering::SeqCst);
            }
            coord.barrier.wait();
            self.rounds += 1;
            if self.ts.is_enabled() {
                // Idle half: parked at the two round barriers while the
                // leader decides. Attributing it separately from "drain"
                // makes load imbalance visible as long "sync" spans.
                let t_end = self.ts.now_ns();
                self.ts.complete(
                    "sync",
                    "shard",
                    t_sync,
                    t_end - t_sync,
                    &[("round", self.rounds - 1)],
                );
            }
            match coord.decision.load(Ordering::SeqCst) {
                DECIDE_CONTINUE => self.collect(mailboxes),
                DECIDE_COMPLETE => return Termination::Complete,
                DECIDE_DEGRADE => {
                    self.degrade_round(coord);
                    self.collect(mailboxes);
                }
                stop => {
                    // Drain the inbox one final time so every deposited
                    // fact lands in the partial result, then discard the
                    // replies this generates (nobody will read them).
                    self.collect(mailboxes);
                    for o in &mut self.out {
                        o.clear();
                    }
                    return trip_termination(stop - DECIDE_STOP_BASE);
                }
            }
        }
    }

    /// Leader-only: resolve the round at the barrier.
    fn decide(&mut self, gov: &Gov, coord: &Coord, parity: usize, grace_used: &mut bool) -> u32 {
        let trip = gov.stop.load(Ordering::SeqCst);
        if trip != TRIP_NONE {
            // Mirror `Solver::handle_trip`: cancellation is an order and
            // is never degraded away; other trips may buy headroom.
            if trip != TRIP_CANCEL
                && self.config.degrade
                && self.grant_headroom(gov, trip, grace_used)
            {
                gov.stop.store(TRIP_NONE, Ordering::SeqCst);
                return DECIDE_DEGRADE;
            }
            return DECIDE_STOP_BASE + trip;
        }
        if coord.msgs[parity].load(Ordering::SeqCst) == 0
            && coord.pending[parity].load(Ordering::SeqCst) == 0
        {
            return DECIDE_COMPLETE;
        }
        DECIDE_CONTINUE
    }

    /// Leader-only: extend the tripped limit (the degrade half of
    /// `Solver::try_degrade`; the demotion scan runs lock-step in
    /// `degrade_round`). Returns `false` when no headroom may be granted.
    fn grant_headroom(&self, gov: &Gov, trip: u32, grace_used: &mut bool) -> bool {
        match trip {
            TRIP_DEADLINE => {
                if *grace_used {
                    return false;
                }
                *grace_used = true;
                if let Some(d) = self.config.budget.deadline {
                    gov.deadline_nanos
                        .fetch_add(d.as_nanos() as u64 / 10, Ordering::SeqCst);
                }
            }
            TRIP_STEPS => {
                let extra = self.config.budget.max_steps.unwrap_or(1024).max(1);
                gov.max_steps.fetch_add(extra, Ordering::SeqCst);
            }
            TRIP_MEMORY => {
                let cap = self.config.budget.max_memory_bytes.unwrap_or(0);
                gov.max_mem
                    .fetch_add((cap / 2).max(1 << 20), Ordering::SeqCst);
            }
            _ => return false,
        }
        true
    }

    /// Lock-step demotion scan after the leader granted headroom: every
    /// shard demotes its owned methods at the current watermark, the
    /// watermark halves in unison until some shard found a victim (or the
    /// floor is reached) — the parallel form of `Solver::try_degrade`'s
    /// victim loop.
    fn degrade_round(&mut self, coord: &Coord) {
        loop {
            let w = self.watermark;
            let mut any = false;
            for m in 0..self.method_fanout.len() as u32 {
                if self.owner_of_method(m) == self.id
                    && self.demote_ctx[m as usize] == NOT_DEMOTED
                    && self.method_fanout[m as usize] >= w
                {
                    self.demote_method(m);
                    any = true;
                }
            }
            if any {
                coord.demoted.fetch_add(1, Ordering::SeqCst);
            }
            coord.barrier.wait();
            let done = coord.demoted.load(Ordering::SeqCst) > 0 || w == 1;
            coord.barrier.wait(); // every shard has read `demoted`
            if self.id == 0 {
                coord.demoted.store(0, Ordering::SeqCst);
            }
            coord.barrier.wait(); // the clear is visible before the next adds
            self.watermark = (w / 2).max(1);
            if done {
                break;
            }
        }
    }

    /// Local fixpoint over the shard's own worklists; the sequential
    /// `run_loop` with governance rewired to the shared stop flag.
    fn drain(&mut self, gov: &Gov, governed: bool) {
        loop {
            if let Some((m, ctx)) = self.reach_queue.pop_front() {
                self.process_reachable(m, ctx);
            } else if let Some(key) = self.dirty.pop_front() {
                self.process_key(key);
            } else {
                return;
            }
            self.steps += 1;
            if !governed {
                continue;
            }
            // Cancellation is latency-sensitive (a serve request deadline
            // or ctrl-c wants the worker back *now*), so the token is
            // consulted on every pop — one `Option` test plus a relaxed
            // atomic load — rather than on the heavier GOV_STRIDE cadence
            // of the clock/step/memory checks below. This bounds observed
            // cancellation latency to a single worklist step per shard.
            if self
                .config
                .cancel
                .as_ref()
                .is_some_and(CancelToken::is_cancelled)
            {
                gov.trip(TRIP_CANCEL);
                return;
            }
            self.unpublished_steps += 1;
            self.until_check -= 1;
            if self.until_check != 0 {
                continue;
            }
            self.until_check = GOV_STRIDE;
            if gov.stop.load(Ordering::SeqCst) != TRIP_NONE {
                return;
            }
            let total_steps = gov
                .steps
                .fetch_add(self.unpublished_steps, Ordering::SeqCst)
                + self.unpublished_steps;
            self.unpublished_steps = 0;
            if total_steps >= gov.max_steps.load(Ordering::SeqCst) {
                gov.trip(TRIP_STEPS);
                return;
            }
            gov.mem[self.id as usize].store(self.mem_estimate(), Ordering::SeqCst);
            let mem_total: u64 = gov.mem.iter().map(|m| m.load(Ordering::SeqCst)).sum();
            if mem_total > gov.max_mem.load(Ordering::SeqCst) {
                gov.trip(TRIP_MEMORY);
                return;
            }
            let deadline = gov.deadline_nanos.load(Ordering::SeqCst);
            if deadline != u64::MAX && gov.start.elapsed().as_nanos() as u64 >= deadline {
                gov.trip(TRIP_DEADLINE);
                return;
            }
        }
    }

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

    /// Publishes every outbox into its mailbox cell; returns the number
    /// of messages deposited (the quiescence count).
    fn deposit(&mut self, mailboxes: &Mailboxes) -> u64 {
        let mut total = 0u64;
        for (dest, row) in mailboxes.iter().enumerate().take(self.n as usize) {
            if self.out[dest].is_empty() {
                continue;
            }
            debug_assert_ne!(
                dest as u32, self.id,
                "local facts never go through a mailbox"
            );
            let batch = std::mem::take(&mut self.out[dest]);
            total += batch.len() as u64;
            let mut cell = row[self.id as usize].lock().expect("mailbox poisoned");
            if cell.is_empty() {
                *cell = batch;
            } else {
                // Only reachable when a Stop round left a cell undrained
                // and the run somehow continued — keep FIFO order anyway.
                cell.extend(batch);
            }
        }
        self.stats.par_msgs += total;
        total
    }

    /// Applies the inbox in sender order (FIFO within each sender): the
    /// deterministic delivery schedule.
    fn collect(&mut self, mailboxes: &Mailboxes) {
        for slot in mailboxes[self.id as usize].iter().take(self.n as usize) {
            let batch = {
                let mut cell = slot.lock().expect("mailbox poisoned");
                std::mem::take(&mut *cell)
            };
            for msg in batch {
                self.apply(msg);
            }
        }
    }

    // ----- message application ---------------------------------------------

    fn apply(&mut self, msg: Msg) {
        match msg {
            Msg::Insert { var, ctx, objs } => {
                debug_assert_eq!(self.var_owner[var as usize], self.id);
                let ctx = self.ctxs.intern(ctx).raw();
                let key = self.key_id(var, ctx);
                let mut locals = std::mem::take(&mut self.ipa_buf);
                locals.clear();
                for (heap, hctx) in objs {
                    locals.push(self.obj_id_val(heap, hctx));
                }
                self.insert_batch(key, &locals);
                self.ipa_buf = locals;
            }
            Msg::Edge {
                from,
                from_ctx,
                to,
                to_ctx,
            } => {
                debug_assert_eq!(self.var_owner[from as usize], self.id);
                let from_ctx = self.ctxs.intern(from_ctx).raw();
                let to_ctx = self.ctxs.intern(to_ctx).raw();
                self.add_ipa_edge(from, from_ctx, to, to_ctx);
            }
            Msg::Reach { meth, ctx } => {
                debug_assert_eq!(self.owner_of_method(meth), self.id);
                let mut ctx = self.ctxs.intern(ctx).raw();
                // The owner is the authority on demotion: callers with a
                // stale mirror may still request fine contexts.
                let d = self.demote_ctx[meth as usize];
                if d != NOT_DEMOTED {
                    ctx = d;
                }
                self.mark_reachable(meth, ctx);
            }
            Msg::Witness {
                heap,
                hctx,
                field,
                to,
                to_ctx,
            } => {
                debug_assert_eq!(self.owner_of_heap(heap), self.id);
                let base_obj = self.obj_id_val(heap, hctx);
                let to_ctx = self.ctxs.intern(to_ctx).raw();
                let target = self.target_ref(to, to_ctx);
                let fe = self.fld_id(base_obj, field);
                self.fentries[fe as usize].witnesses.push(target);
                self.replay_fld(fe, target);
            }
            Msg::FldInsert {
                heap,
                hctx,
                field,
                vals,
            } => {
                debug_assert_eq!(self.owner_of_heap(heap), self.id);
                let base_obj = self.obj_id_val(heap, hctx);
                let mut locals = std::mem::take(&mut self.ipa_buf);
                locals.clear();
                for (h, hc) in vals {
                    locals.push(self.obj_id_val(h, hc));
                }
                self.insert_fld_batch(base_obj, field, &locals);
                self.ipa_buf = locals;
            }
            Msg::SWitness { field, to, to_ctx } => {
                debug_assert_eq!(self.owner_of_static(field), self.id);
                let to_ctx = self.ctxs.intern(to_ctx).raw();
                let target = self.target_ref(to, to_ctx);
                self.statics[field as usize].witnesses.push(target);
                self.replay_static(field, target);
            }
            Msg::SInsert { field, vals } => {
                debug_assert_eq!(self.owner_of_static(field), self.id);
                let mut locals = std::mem::take(&mut self.ipa_buf);
                locals.clear();
                for (h, hc) in vals {
                    locals.push(self.obj_id_val(h, hc));
                }
                self.insert_static_batch(field, &locals);
                self.ipa_buf = locals;
            }
            Msg::Throw { meth, ctx, obj } => {
                debug_assert_eq!(self.owner_of_method(meth), self.id);
                let ctx = self.ctxs.intern(ctx).raw();
                let obj = self.obj_id_val(obj.0, obj.1);
                self.handle_incoming_exception(meth, ctx, obj);
            }
            Msg::ThrowListen {
                callee,
                callee_ctx,
                caller,
                caller_ctx,
            } => {
                debug_assert_eq!(self.owner_of_method(callee), self.id);
                let callee_ctx = self.ctxs.intern(callee_ctx).raw();
                let caller_ctx = self.ctxs.intern(caller_ctx).raw();
                self.register_throw_listener(callee, callee_ctx, caller, caller_ctx);
            }
            Msg::Demote { meth } => {
                if self.demote_ctx[meth as usize] == NOT_DEMOTED {
                    let v = self.policy.demote(MethodId::from_raw(meth), self.program);
                    self.demote_ctx[meth as usize] = self.ctxs.intern(v).raw();
                }
            }
        }
    }

    // ----- dense ID management ---------------------------------------------

    /// Interns a `(heap, hctx value)` object arriving from another shard.
    fn obj_id_val(&mut self, heap: u32, hctx: HeapCtx) -> u32 {
        let hctx = self.hctxs.intern(hctx).raw();
        self.obj_id(heap, hctx)
    }

    fn obj_id(&mut self, heap: u32, hctx: u32) -> u32 {
        let id = self.objs.intern((heap, hctx));
        if id as usize == self.obj_type.len() {
            self.obj_type
                .push(self.program.heap_type(HeapId::from_raw(heap)).raw());
        }
        id
    }

    /// Interns a local `(var, ctx)` key; bridges fine keys of demoted
    /// owned methods exactly like `Solver::key_id`.
    fn key_id(&mut self, var: u32, ctx: u32) -> u32 {
        debug_assert_eq!(self.var_owner[var as usize], self.id);
        let id = self.vkeys.intern((var, ctx));
        if id as usize == self.entries.len() {
            self.entries.push(VarEntry::default());
            self.ipa_out.push(Vec::new());
            if self.config.degrade {
                let m = self.program.var_method(VarId::from_raw(var)).index();
                let d = self.demote_ctx[m];
                if d != NOT_DEMOTED && ctx != d {
                    self.add_ipa_edge(var, ctx, var, d);
                    self.add_ipa_edge(var, d, var, ctx);
                }
            }
        }
        id
    }

    fn fld_id(&mut self, base_obj: u32, field: u32) -> u32 {
        let id = self.fkeys.intern((base_obj, field));
        if id as usize == self.fentries.len() {
            self.fentries.push(FldEntry::default());
        }
        id
    }

    /// A propagation target for `(var, ctx)`: a local key ID, or a
    /// remote-ref index when another shard owns `var`.
    fn target_ref(&mut self, var: u32, ctx: u32) -> u32 {
        if self.var_owner[var as usize] == self.id {
            self.key_id(var, ctx)
        } else {
            REMOTE_BIT | self.remote_refs.intern((var, ctx))
        }
    }

    /// Resolves local object IDs into shard-independent values.
    fn resolve_vals(&self, objs: &[u32]) -> Vec<ObjVal> {
        objs.iter()
            .map(|&o| {
                let (heap, hctx) = self.objs.resolve(o);
                (heap, self.hctxs.resolve(HCtxId::from_raw(hctx)))
            })
            .collect()
    }

    /// Sends a batch of local objects to a propagation target (the one
    /// primitive every rule uses for its `VarPointsTo` derivations).
    fn send_to_ref(&mut self, target: u32, objs: &[u32]) {
        if objs.is_empty() {
            return;
        }
        if target & REMOTE_BIT == 0 {
            self.insert_batch(target, objs);
        } else {
            let (var, ctx) = self.remote_refs.resolve(target & !REMOTE_BIT);
            let msg = Msg::Insert {
                var,
                ctx: self.ctxs.resolve(CtxId::from_raw(ctx)),
                objs: self.resolve_vals(objs),
            };
            self.out[self.var_owner[var as usize] as usize].push(msg);
        }
    }

    // ----- tuple insertion -------------------------------------------------

    fn insert_batch(&mut self, key: u32, objs: &[u32]) {
        if objs.is_empty() {
            return;
        }
        let entry = &mut self.entries[key as usize];
        let store = &mut self.store;
        for &obj in objs {
            if entry.set.insert_in(store, obj) {
                entry.delta.push(obj);
                self.stats.vpt_inserted += 1;
            } else {
                self.stats.vpt_dup += 1;
            }
        }
        if !entry.queued && !entry.delta.is_empty() {
            entry.queued = true;
            self.dirty.push_back(key);
            self.stats.peak_worklist = self.stats.peak_worklist.max(self.dirty.len() as u64);
        }
    }

    /// Wakes the witnesses of a field entry with its current set (used
    /// when a witness registers against a non-empty cell).
    fn replay_fld(&mut self, fe: u32, target: u32) {
        if self.fentries[fe as usize].set.is_empty() {
            return;
        }
        let mut existing = std::mem::take(&mut self.buf);
        existing.clear();
        self.fentries[fe as usize].set.extend_into(&mut existing);
        self.stats.fire_load += existing.len() as u64;
        self.send_to_ref(target, &existing);
        self.buf = existing;
    }

    fn replay_static(&mut self, field: u32, target: u32) {
        if self.statics[field as usize].set.is_empty() {
            return;
        }
        let mut existing = std::mem::take(&mut self.buf);
        existing.clear();
        self.statics[field as usize].set.extend_into(&mut existing);
        self.stats.fire_static_load += existing.len() as u64;
        self.send_to_ref(target, &existing);
        self.buf = existing;
    }

    /// Inserts values (local object IDs) into an owned field cell and
    /// wakes its witnesses.
    fn insert_fld_batch(&mut self, base_obj: u32, field: u32, vals: &[u32]) {
        if vals.is_empty() {
            return;
        }
        self.stats.fire_store += vals.len() as u64;
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
            for wi in 0..self.fentries[fe as usize].witnesses.len() {
                let target = self.fentries[fe as usize].witnesses[wi];
                self.stats.fire_load += fresh.len() as u64;
                self.send_to_ref(target, &fresh);
            }
        }
        self.buf2 = fresh;
    }

    fn insert_static_batch(&mut self, field: u32, vals: &[u32]) {
        if vals.is_empty() {
            return;
        }
        self.stats.fire_static_store += vals.len() as u64;
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
            for wi in 0..self.statics[field as usize].witnesses.len() {
                let target = self.statics[field as usize].witnesses[wi];
                self.stats.fire_static_load += fresh.len() as u64;
                self.send_to_ref(target, &fresh);
            }
        }
        self.buf2 = fresh;
    }

    /// Marks an owned `(meth, ctx)` reachable (with the sequential
    /// solver's proactive watermark demotion in degrade mode).
    fn mark_reachable(&mut self, meth: u32, ctx: u32) {
        debug_assert_eq!(self.owner_of_method(meth), self.id);
        let before = self.reachable.len();
        self.reachable.intern((meth, ctx));
        if self.reachable.len() > before {
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

    /// Owner-side demotion: the sequential `Solver::demote_method` plus a
    /// broadcast so other shards intercept their future call edges. The
    /// bridge edges are local by construction — both endpoints are keys of
    /// the demoted method's own variables.
    fn demote_method(&mut self, meth: u32) {
        debug_assert_eq!(self.demote_ctx[meth as usize], NOT_DEMOTED);
        let meth_id = MethodId::from_raw(meth);
        let ctx_val = self.policy.demote(meth_id, self.program);
        let dctx = self.ctxs.intern(ctx_val).raw();
        self.demote_ctx[meth as usize] = dctx;
        self.demoted_sites.push(DemotedSite {
            method: meth_id,
            fanout: self.method_fanout[meth as usize],
        });
        for dest in 0..self.n {
            if dest != self.id {
                self.out[dest as usize].push(Msg::Demote { meth });
            }
        }
        self.mark_reachable(meth, dctx);
        for k in 0..self.vkeys.len() as u32 {
            let (var, c) = self.vkeys.resolve(k);
            if c != dctx && self.program.var_method(VarId::from_raw(var)) == meth_id {
                self.add_ipa_edge(var, c, var, dctx);
                self.add_ipa_edge(var, dctx, var, c);
            }
        }
    }

    /// Installs an `InterProcAssign` edge whose source is a local key and
    /// propagates existing facts across it. The destination may be remote.
    fn add_ipa_edge(&mut self, from: u32, from_ctx: u32, to: u32, to_ctx: u32) {
        let from_key = self.key_id(from, from_ctx);
        let target = self.target_ref(to, to_ctx);
        if self.ipa_out[from_key as usize].contains(&target) {
            return;
        }
        self.stats.ipa_edges += 1;
        self.ipa_out[from_key as usize].push(target);
        if !self.entries[from_key as usize].set.is_empty() {
            let mut existing = std::mem::take(&mut self.ipa_buf);
            existing.clear();
            self.entries[from_key as usize]
                .set
                .extend_into(&mut existing);
            self.stats.fire_interproc += existing.len() as u64;
            self.send_to_ref(target, &existing);
            self.ipa_buf = existing;
        }
    }

    /// Installs a call-graph edge (caller side owns the site). Parameter
    /// edges start at local actuals; the return edge starts at the callee
    /// and is forwarded to its owner when foreign.
    fn add_call_edge(
        &mut self,
        invo: InvoId,
        caller_ctx: u32,
        callee: MethodId,
        mut callee_ctx: u32,
    ) {
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
        self.cg_insens.insert((invo, callee));
        let callee_owner = self.owner_of_method(callee.raw());
        if callee_owner == self.id {
            self.mark_reachable(callee.raw(), callee_ctx);
        } else {
            let msg = Msg::Reach {
                meth: callee.raw(),
                ctx: self.ctxs.resolve(CtxId::from_raw(callee_ctx)),
            };
            self.out[callee_owner as usize].push(msg);
        }
        let formals = self.program.formals(callee);
        let actuals = self.program.actual_args(invo);
        for (&formal, &actual) in formals.iter().zip(actuals.iter()) {
            self.add_ipa_edge(actual.raw(), caller_ctx, formal.raw(), callee_ctx);
        }
        if let (Some(fret), Some(aret)) = (
            self.program.formal_return(callee),
            self.program.actual_return(invo),
        ) {
            if callee_owner == self.id {
                self.add_ipa_edge(fret.raw(), callee_ctx, aret.raw(), caller_ctx);
            } else {
                let msg = Msg::Edge {
                    from: fret.raw(),
                    from_ctx: self.ctxs.resolve(CtxId::from_raw(callee_ctx)),
                    to: aret.raw(),
                    to_ctx: self.ctxs.resolve(CtxId::from_raw(caller_ctx)),
                };
                self.out[callee_owner as usize].push(msg);
            }
        }

        let caller_meth = self.program.invo_method(invo).raw();
        if callee_owner == self.id {
            self.register_throw_listener(callee.raw(), callee_ctx, caller_meth, caller_ctx);
        } else {
            let msg = Msg::ThrowListen {
                callee: callee.raw(),
                callee_ctx: self.ctxs.resolve(CtxId::from_raw(callee_ctx)),
                caller: caller_meth,
                caller_ctx: self.ctxs.resolve(CtxId::from_raw(caller_ctx)),
            };
            self.out[callee_owner as usize].push(msg);
        }
    }

    /// Registers an exception listener on an owned callee and replays the
    /// already-escaped objects to the caller.
    fn register_throw_listener(
        &mut self,
        callee: u32,
        callee_ctx: u32,
        caller: u32,
        caller_ctx: u32,
    ) {
        debug_assert_eq!(self.owner_of_method(callee), self.id);
        if self
            .throw_listener_set
            .insert((callee, callee_ctx, caller, caller_ctx))
        {
            self.throw_listeners
                .entry((callee, callee_ctx))
                .or_default()
                .push((caller, caller_ctx));
            if let Some(existing) = self.throw_pts.get(&(callee, callee_ctx)) {
                let mut objs = Vec::with_capacity(existing.len());
                existing.extend_into(&mut objs);
                for obj in objs {
                    self.notify_thrower(caller, caller_ctx, obj);
                }
            }
        }
    }

    /// Routes an escaping exception object to `(meth, ctx)`, local or not.
    fn notify_thrower(&mut self, meth: u32, ctx: u32, obj: u32) {
        let owner = self.owner_of_method(meth);
        if owner == self.id {
            self.handle_incoming_exception(meth, ctx, obj);
        } else {
            let (heap, hctx) = self.objs.resolve(obj);
            let msg = Msg::Throw {
                meth,
                ctx: self.ctxs.resolve(CtxId::from_raw(ctx)),
                obj: (heap, self.hctxs.resolve(HCtxId::from_raw(hctx))),
            };
            self.out[owner as usize].push(msg);
        }
    }

    /// An exception object arrived at an owned `(meth, ctx)`.
    fn handle_incoming_exception(&mut self, meth: u32, ctx: u32, obj: u32) {
        debug_assert_eq!(self.owner_of_method(meth), self.id);
        let meth_id = MethodId::from_raw(meth);
        let heap_ty = TypeId::from_raw(self.obj_type[obj as usize]);
        let mut caught = false;
        for &(ty, binder) in self.program.catches(meth_id) {
            if self.program.is_subtype(heap_ty, ty) {
                let bkey = self.key_id(binder.raw(), ctx);
                self.stats.fire_caught += 1;
                self.insert_batch(bkey, &[obj]);
                caught = true;
            }
        }
        if !caught && self.throw_pts.entry((meth, ctx)).or_default().insert(obj) {
            self.stats.throw_tuples += 1;
            if let Some(listeners) = self.throw_listeners.get(&(meth, ctx)) {
                let listeners = listeners.clone();
                for (caller, caller_ctx) in listeners {
                    self.notify_thrower(caller, caller_ctx, obj);
                }
            }
        }
    }

    // ----- rule firing ------------------------------------------------------

    /// Fires the allocation and static-call rules for a newly reachable
    /// owned `(meth, ctx)` pair.
    fn process_reachable(&mut self, meth: u32, ctx: u32) {
        let meth_id = MethodId::from_raw(meth);
        let ctx_val = self.ctxs.resolve(CtxId::from_raw(ctx));
        for instr in self.program.instrs(meth_id) {
            match *instr {
                Instr::Alloc { var, heap } => {
                    self.stats.fire_alloc += 1;
                    let elem = self.policy.record(heap, ctx_val, self.program);
                    let hctx = self.hctxs.intern(elem);
                    let obj = self.obj_id(heap.raw(), hctx.raw());
                    let vkey = self.key_id(var.raw(), ctx);
                    self.insert_batch(vkey, &[obj]);
                }
                Instr::SCall { target, invo } => {
                    let callee_ctx = match self.demote_ctx[target.index()] {
                        NOT_DEMOTED => {
                            let v = self.policy.merge_static(invo, ctx_val, self.program);
                            self.ctxs.intern(v).raw()
                        }
                        demoted => demoted,
                    };
                    self.add_call_edge(invo, ctx, target, callee_ctx);
                }
                Instr::SLoad { to, field } => {
                    let to_key = self.key_id(to.raw(), ctx);
                    let owner = self.owner_of_static(field.raw());
                    if owner == self.id {
                        self.statics[field.raw() as usize].witnesses.push(to_key);
                        self.replay_static(field.raw(), to_key);
                    } else {
                        let msg = Msg::SWitness {
                            field: field.raw(),
                            to: to.raw(),
                            to_ctx: ctx_val,
                        };
                        self.out[owner as usize].push(msg);
                    }
                }
                _ => {}
            }
        }
    }

    /// Drains a key's pending delta — the sequential `process_key` with
    /// every non-owned derivation routed through an outbox.
    fn process_key(&mut self, key: u32) {
        let (var, ctx) = self.vkeys.resolve(key);
        let delta = std::mem::take(&mut self.entries[key as usize].delta);
        self.entries[key as usize].queued = false;
        self.stats.batches += 1;
        let v = var as usize;
        let row = self.index.rows[v];
        let next = self.index.rows[v + 1];

        // Move / Cast (targets are same-method, hence local).
        for i in row[ROW_ASSIGN] as usize..next[ROW_ASSIGN] as usize {
            let (to, filter) = self.index.assigns[i];
            let to_key = self.key_id(to.raw(), ctx);
            match filter {
                None => {
                    self.stats.fire_assign += delta.len() as u64;
                    self.insert_batch(to_key, &delta);
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
                    self.insert_batch(to_key, &buf);
                    self.buf = buf;
                }
            }
        }

        // InterProcAssign propagation (targets may be remote refs).
        for i in 0..self.ipa_out[key as usize].len() {
            let target = self.ipa_out[key as usize][i];
            self.stats.fire_interproc += delta.len() as u64;
            self.send_to_ref(target, &delta);
        }

        // Loads where `var` is the base: the field cell's owner keeps the
        // witness; `to` is local to this shard either way.
        for i in row[ROW_LOAD_ON] as usize..next[ROW_LOAD_ON] as usize {
            let (to, field) = self.index.loads_on[i];
            let to_key = self.key_id(to.raw(), ctx);
            for &base_obj in &delta {
                let (heap, hctx) = self.objs.resolve(base_obj);
                let owner = self.owner_of_heap(heap);
                if owner == self.id {
                    let fe = self.fld_id(base_obj, field.raw());
                    self.fentries[fe as usize].witnesses.push(to_key);
                    self.replay_fld(fe, to_key);
                } else {
                    let msg = Msg::Witness {
                        heap,
                        hctx: self.hctxs.resolve(HCtxId::from_raw(hctx)),
                        field: field.raw(),
                        to: to.raw(),
                        to_ctx: self.ctxs.resolve(CtxId::from_raw(ctx)),
                    };
                    self.out[owner as usize].push(msg);
                }
            }
        }

        // Stores where `var` is the base (the source is a sibling
        // variable of the same method — always local).
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
                self.route_fld_insert(base_obj, field.raw(), &buf);
            }
            self.buf = buf;
        }

        // Stores where `var` is the source.
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
                self.route_fld_insert(base_obj, field.raw(), &delta);
            }
            self.buf = bases;
        }

        // Throws of `var` (its method is local by ownership).
        if row[ROW_THROWN] != 0 {
            let meth = self.program.var_method(VarId::from_raw(var)).raw();
            for &obj in &delta {
                self.handle_incoming_exception(meth, ctx, obj);
            }
        }

        // Static-field stores where `var` is the source.
        for i in row[ROW_SSTORE_OF] as usize..next[ROW_SSTORE_OF] as usize {
            let field = self.index.sstores_of[i];
            let owner = self.owner_of_static(field.raw());
            if owner == self.id {
                self.insert_static_batch(field.raw(), &delta);
            } else {
                let msg = Msg::SInsert {
                    field: field.raw(),
                    vals: self.resolve_vals(&delta),
                };
                self.out[owner as usize].push(msg);
            }
        }

        // Virtual calls where `var` is the receiver (dispatch and Merge
        // happen caller-side; the `this` binding travels to the callee's
        // owner when foreign).
        let vcall_rng = row[ROW_VCALL_ON] as usize..next[ROW_VCALL_ON] as usize;
        if !vcall_rng.is_empty() {
            let ctx_val = self.ctxs.resolve(CtxId::from_raw(ctx));
            for i in vcall_rng {
                let (sig, invo) = self.index.vcalls_on[i];
                for &obj in &delta {
                    self.stats.fire_vcall_dispatch += 1;
                    let heap_ty = TypeId::from_raw(self.obj_type[obj as usize]);
                    if let Some(callee) = self.program.lookup(heap_ty, sig) {
                        let (heap, hctx) = self.objs.resolve(obj);
                        let hctx_val = self.hctxs.resolve(HCtxId::from_raw(hctx));
                        let callee_ctx = match self.demote_ctx[callee.index()] {
                            NOT_DEMOTED => {
                                let v = self.policy.merge(
                                    HeapId::from_raw(heap),
                                    hctx_val,
                                    invo,
                                    ctx_val,
                                    self.program,
                                );
                                self.ctxs.intern(v).raw()
                            }
                            demoted => demoted,
                        };
                        self.add_call_edge(invo, ctx, callee, callee_ctx);
                        if let Some(this) = self.program.this_var(callee) {
                            self.stats.fire_this_binding += 1;
                            let target = self.target_ref(this.raw(), callee_ctx);
                            self.send_to_ref(target, &[obj]);
                        }
                    }
                }
            }
        }
    }

    /// Routes a field insert to the cell's owner (local objects IDs are
    /// resolved to values at the boundary).
    fn route_fld_insert(&mut self, base_obj: u32, field: u32, vals: &[u32]) {
        let (heap, hctx) = self.objs.resolve(base_obj);
        let owner = self.owner_of_heap(heap);
        if owner == self.id {
            self.insert_fld_batch(base_obj, field, vals);
        } else {
            let msg = Msg::FldInsert {
                heap,
                hctx: self.hctxs.resolve(HCtxId::from_raw(hctx)),
                field,
                vals: self.resolve_vals(vals),
            };
            self.out[owner as usize].push(msg);
        }
    }
}

// ----- result assembly -----------------------------------------------------

/// Merges shard states into one [`PointsToResult`]. Ownership makes most
/// relations disjoint (variables, methods, call sites and field cells each
/// live on exactly one shard), so the context-insensitive projections
/// concatenate; only the context/heap-context/object *counts* need a
/// union-by-value pass over the private interners.
fn merge_results<P: ContextPolicy>(
    program: &Program,
    shards: Vec<Shard<'_, P>>,
    termination: Termination,
    rounds: u64,
) -> PointsToResult {
    let hints = SizeHints::of_program(program);
    let mut ctxs = CtxInterner::with_capacity(hints.contexts);
    let mut hctxs = HCtxInterner::with_capacity(hints.heap_contexts);
    let mut objs: DenseMap<(u32, u32)> = DenseMap::with_capacity(hints.objects);
    let mut ctx_reach: DenseMap<(u32, u32)> = DenseMap::with_capacity(hints.contexts);

    let mut var_points_to: FxHashMap<VarId, Vec<HeapId>> = FxHashMap::default();
    let mut call_targets: FxHashMap<InvoId, Vec<MethodId>> = FxHashMap::default();
    let mut cg_insens_total = 0usize;
    let mut reachable: FxHashSet<MethodId> = FxHashSet::default();
    let mut ctx_vpt_count = 0u64;
    let mut ctx_cg_edges = 0u64;
    let mut uncaught_set: FxHashSet<HeapId> = FxHashSet::default();
    let mut field_points_to: FxHashMap<(HeapId, FieldId), Vec<HeapId>> = FxHashMap::default();
    let mut static_points_to: FxHashMap<FieldId, Vec<HeapId>> = FxHashMap::default();
    let mut demoted: Vec<DemotedSite> = Vec::new();
    let mut stats = SolverStats::default();
    let mut shard_stats = Vec::with_capacity(shards.len());

    let entry_meths: FxHashSet<u32> = program.entry_points().iter().map(|m| m.raw()).collect();
    let n_vars = program.var_count();
    let mut starts = vec![0u32; n_vars + 1];

    for shard in &shards {
        // Union interners by value (insertion order per shard, shards in
        // ID order — deterministic).
        for &c in shard.ctxs_keys() {
            ctxs.intern(c);
        }
        for &h in shard.hctxs_keys() {
            hctxs.intern(h);
        }
        for (i, &(heap, hctx)) in shard.objs.keys().iter().enumerate() {
            debug_assert!(i < shard.obj_type.len());
            let hv = shard.hctxs.resolve(HCtxId::from_raw(hctx));
            let hid = hctxs.intern(hv).raw();
            objs.intern((heap, hid));
        }
        for &(meth, ctx) in shard.reachable.keys() {
            reachable.insert(MethodId::from_raw(meth));
            let cv = shard.ctxs.resolve(CtxId::from_raw(ctx));
            let cid = ctxs.intern(cv).raw();
            ctx_reach.intern((meth, cid));
        }
        for (key, entry) in shard.entries.iter().enumerate() {
            ctx_vpt_count += entry.set.len() as u64;
            let (var, _ctx) = shard.vkeys.resolve(key as u32);
            starts[var as usize + 1] += entry.set.len() as u32;
        }
        ctx_cg_edges += shard.ctx_cg_edges;
        cg_insens_total += shard.cg_insens.len();
        for &(invo, meth) in &shard.cg_insens {
            call_targets.entry(invo).or_default().push(meth);
        }
        for (&(meth, _ctx), escaping) in &shard.throw_pts {
            if entry_meths.contains(&meth) {
                for obj in escaping.iter() {
                    uncaught_set.insert(HeapId::from_raw(shard.objs.resolve(obj).0));
                }
            }
        }
        // Heap-graph projections: field cells and static fields are each
        // owned by one shard, so the maps concatenate (sorted below).
        for (fe, entry) in shard.fentries.iter().enumerate() {
            if entry.set.is_empty() {
                continue;
            }
            let (base_obj, field) = shard.fkeys.resolve(fe as u32);
            let base = HeapId::from_raw(shard.objs.resolve(base_obj).0);
            let cell = field_points_to
                .entry((base, FieldId::from_raw(field)))
                .or_default();
            for obj in entry.set.iter() {
                cell.push(HeapId::from_raw(shard.objs.resolve(obj).0));
            }
        }
        for (fld, entry) in shard.statics.iter().enumerate() {
            if entry.set.is_empty() {
                continue;
            }
            let cell = static_points_to
                .entry(FieldId::from_raw(fld as u32))
                .or_default();
            for obj in entry.set.iter() {
                cell.push(HeapId::from_raw(shard.objs.resolve(obj).0));
            }
        }
        demoted.extend_from_slice(&shard.demoted_sites);
        let mut s = shard.stats;
        s.steps = shard.steps;
        s.demoted_methods = shard.demoted_sites.len() as u64;
        s.contexts = shard.ctxs.len() as u64;
        s.heap_contexts = shard.hctxs.len() as u64;
        s.objects = shard.objs.len() as u64;
        s.par_rounds = rounds;
        s.sets_interned = shard.store.sets_interned();
        s.sets_shared = shard.store.sets_shared();
        s.bytes_saved = shard.store.bytes_saved();
        s.sets_evicted = shard.store.sets_evicted();
        shard_stats.push(s);
        stats.absorb(&s);
    }

    // Context-insensitive projection: same counting sort as the
    // sequential solver, with keys scattered across shards. Variables are
    // shard-disjoint, so per-var segments fill from exactly one shard.
    for i in 0..n_vars {
        starts[i + 1] += starts[i];
    }
    let mut flat = vec![0u32; ctx_vpt_count as usize];
    let mut cursor = starts.clone();
    for shard in &shards {
        for (key, entry) in shard.entries.iter().enumerate() {
            if entry.set.is_empty() {
                continue;
            }
            let (var, _ctx) = shard.vkeys.resolve(key as u32);
            let c = &mut cursor[var as usize];
            for obj in entry.set.iter() {
                flat[*c as usize] = shard.objs.resolve(obj).0;
                *c += 1;
            }
        }
    }
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

    for v in call_targets.values_mut() {
        v.sort_unstable();
        v.dedup();
    }
    let mut uncaught: Vec<HeapId> = uncaught_set.into_iter().collect();
    uncaught.sort_unstable();
    for v in field_points_to.values_mut() {
        v.sort_unstable();
        v.dedup();
    }
    for v in static_points_to.values_mut() {
        v.sort_unstable();
        v.dedup();
    }
    demoted.sort_unstable_by_key(|d| d.method);

    stats.contexts = ctxs.len() as u64;
    stats.heap_contexts = hctxs.len() as u64;
    stats.objects = objs.len() as u64;
    stats.par_rounds = rounds;

    PointsToResult {
        proj: Arc::new(Projections {
            var_points_to,
            call_targets,
            reachable,
            field_points_to,
            static_points_to,
        }),
        call_graph_edges: cg_insens_total,
        ctx_vpt_count,
        ctx_call_graph_edges: ctx_cg_edges,
        ctx_reachable_count: ctx_reach.len() as u64,
        ctx_count: ctxs.len(),
        hctx_count: hctxs.len(),
        tuples: None,
        provenance: None,
        fld_provenance: None,
        static_fld_provenance: None,
        uncaught,
        ctx_interner: ctxs,
        hctx_interner: hctxs,
        stats,
        shard_stats,
        termination,
        demoted,
        profile: None,
    }
}

impl<P: ContextPolicy> Shard<'_, P> {
    /// The shard's interned context values, in local ID order.
    fn ctxs_keys(&self) -> &[Ctx] {
        self.ctxs.keys()
    }

    /// The shard's interned heap-context values, in local ID order.
    fn hctxs_keys(&self) -> &[HeapCtx] {
        self.hctxs.keys()
    }
}
