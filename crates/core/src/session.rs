//! The unified entry point: one owned, versioned session per program.
//!
//! [`AnalysisSession`] owns its program (behind an [`Arc`], so opening a
//! session from a shared program is free) and is the single way to run an
//! analysis — every (back end × configuration) corner dispatches through
//! [`AnalysisSession::solve`]:
//!
//! ```
//! use pta_core::{Analysis, AnalysisSession, Backend};
//! use pta_ir::ProgramBuilder;
//!
//! let mut b = ProgramBuilder::new();
//! let object = b.class("Object", None);
//! let c = b.class("C", Some(object));
//! let main = b.method(c, "main", &[], true);
//! let v = b.var(main, "v");
//! b.alloc(main, v, c, "new C");
//! b.entry_point(main);
//! let program = b.finish()?;
//!
//! let mut session = AnalysisSession::open(program)
//!     .policy(Analysis::STwoObjH)
//!     .backend(Backend::Dense)
//!     .threads(4);
//! let result = session.solve();
//! assert_eq!(result.points_to(v).len(), 1);
//! # Ok::<(), pta_ir::ValidateError>(())
//! ```
//!
//! ## Incremental maintenance
//!
//! A session is long-lived: after a solve it can absorb a
//! [`ProgramDelta`] through [`AnalysisSession::apply`], which advances
//! the owned program to the next [`AnalysisSession::version`] and returns
//! the updated result. With [`AnalysisSession::incremental`] enabled (and
//! an eligible configuration — sequential dense back end, no budget, no
//! degradation, no observability capture), the solver state from the
//! previous solve is *retained* and the fixpoint is maintained in place
//! (see [`crate::solver::incremental`]): additive edits resume semi-naive
//! evaluation, retractions run delete-and-rederive over the invalidation
//! cone, and anything the maintenance layer cannot handle exactly
//! (exception-flow retraction, dispatch-changing overrides, excessive
//! churn) transparently falls back to a from-scratch solve of the new
//! program. Either way the result is byte-identical to a fresh solve;
//! [`AnalysisSession::last_apply_was_incremental`] reports which path ran.
//!
//! ## Back-end and thread dispatch
//!
//! `threads(1)` (the default) runs the sequential dense solver;
//! `threads(n)` for `n > 1` runs the sharded parallel solver of
//! [`crate::parallel`], which produces the same result; `threads(0)` asks
//! the OS for the available parallelism. The Datalog back end is a
//! single-threaded reference implementation and ignores the thread count.
//!
//! Configurations only the sequential solver supports — provenance
//! tracking, retained tuple sets, and fault injection — fall back to one
//! thread silently: they are observability/testing features where the
//! result, not wall-clock, is the point.

use std::fmt;
use std::sync::Arc;

use pta_govern::{Budget, CancelToken, Termination};
use pta_ir::{DeltaError, Program, ProgramBuilder, ProgramDelta};

use crate::datalog_impl;
use crate::fault::FaultPlan;
use crate::parallel::solve_parallel;
use crate::policy::{Analysis, ContextPolicy};
use crate::results::PointsToResult;
use crate::solver::incremental::{ApplyOutcome, ApplyStats};
use crate::solver::{solve_sequential, Solver, SolverConfig};

/// A tiny well-formed program parked in the session's (and retained
/// solver's) program slot while [`AnalysisSession::apply`] edits the real
/// one in place — recalling those handles is what makes the current
/// version uniquely owned. Shared process-wide; building it is a one-time
/// cost.
fn placeholder_program() -> Arc<Program> {
    static PLACEHOLDER: std::sync::OnceLock<Arc<Program>> = std::sync::OnceLock::new();
    Arc::clone(PLACEHOLDER.get_or_init(|| {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let main = b.method(object, "placeholder", &[], true);
        b.entry_point(main);
        Arc::new(b.finish().expect("placeholder program is well-formed"))
    }))
}

/// Which evaluation engine a session runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The specialized dense worklist solver ([`crate::solver`]) — the
    /// fast path, and the only back end with parallel execution, graceful
    /// degradation, provenance, fault injection, and incremental
    /// maintenance.
    #[default]
    Dense,
    /// The literal Figure 2 rule set on the generic Datalog engine
    /// ([`crate::datalog_impl`]) — the executable specification, used for
    /// cross-validation.
    Datalog,
}

/// An owned, versioned analysis session: program, policy, back end,
/// thread count and resource governance, assembled fluently, executed
/// with [`AnalysisSession::solve`], and kept alive across
/// [`AnalysisSession::apply`] edits.
pub struct AnalysisSession<P: ContextPolicy = Analysis> {
    program: Arc<Program>,
    version: u64,
    policy: P,
    backend: Backend,
    threads: usize,
    config: SolverConfig,
    incremental: bool,
    /// Solver state retained by the last eligible solve, consumed (and
    /// usually re-retained) by the next `apply`.
    retained: Option<Solver<P>>,
    last_apply_was_incremental: bool,
    last_fallback: Option<&'static str>,
    last_apply_stats: Option<ApplyStats>,
    /// Telemetry registry (disabled by default); solves and applies
    /// export their outcome counters into it.
    metrics: pta_obs::Metrics,
}

impl AnalysisSession<Analysis> {
    /// Opens a session owning `program`, with the default configuration:
    /// context-insensitive policy, dense back end, one thread, no budget.
    pub fn open(program: Program) -> AnalysisSession<Analysis> {
        AnalysisSession::from_arc(Arc::new(program))
    }

    /// Opens a session over an already-shared program (no copy).
    pub fn from_arc(program: Arc<Program>) -> AnalysisSession<Analysis> {
        AnalysisSession {
            program,
            version: 1,
            policy: Analysis::Insens,
            backend: Backend::Dense,
            threads: 1,
            config: SolverConfig::default(),
            incremental: false,
            retained: None,
            last_apply_was_incremental: false,
            last_fallback: None,
            last_apply_stats: None,
            metrics: pta_obs::Metrics::disabled(),
        }
    }
}

impl<P: ContextPolicy> AnalysisSession<P> {
    /// Selects the context policy (any [`Analysis`] variant or a custom
    /// [`ContextPolicy`] implementation). Drops any retained solver state.
    pub fn policy<Q: ContextPolicy>(self, policy: Q) -> AnalysisSession<Q> {
        AnalysisSession {
            program: self.program,
            version: self.version,
            policy,
            backend: self.backend,
            threads: self.threads,
            config: self.config,
            incremental: self.incremental,
            retained: None,
            last_apply_was_incremental: false,
            last_fallback: None,
            last_apply_stats: None,
            metrics: self.metrics,
        }
    }

    /// Selects the evaluation back end (default [`Backend::Dense`]).
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self.retained = None;
        self
    }

    /// Sets the dense solver's worker count (default 1 = sequential).
    /// `0` uses the machine's available parallelism. The Datalog back end
    /// ignores this.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self.retained = None;
        self
    }

    /// Attaches a resource [`Budget`] (checked cooperatively; see
    /// `SolverConfig::budget`).
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.config.budget = budget;
        self.retained = None;
        self
    }

    /// Enables graceful degradation on budget exhaustion (dense back end
    /// only; see `SolverConfig::degrade`).
    #[must_use]
    pub fn degrade(mut self, degrade: bool) -> Self {
        self.config.degrade = degrade;
        self.retained = None;
        self
    }

    /// Attaches a cooperative cancellation token.
    #[must_use]
    pub fn cancel(mut self, cancel: CancelToken) -> Self {
        self.config.cancel = Some(cancel);
        self.retained = None;
        self
    }

    /// Retains the full context-sensitive tuple set in the result
    /// (sequential dense runs only; forces one thread).
    #[must_use]
    pub fn keep_tuples(mut self, keep: bool) -> Self {
        self.config.keep_tuples = keep;
        self.retained = None;
        self
    }

    /// Toggles hash-consing of large points-to sets (`--no-share` passes
    /// `false`). On by default; results are byte-identical either way.
    #[must_use]
    pub fn share(mut self, share: bool) -> Self {
        self.config.share = share;
        self.retained = None;
        self
    }

    /// Records one derivation per tuple for `PointsToResult::explain`
    /// (sequential dense runs only; forces one thread).
    #[must_use]
    pub fn track_provenance(mut self, track: bool) -> Self {
        self.config.track_provenance = track;
        self.retained = None;
        self
    }

    /// Installs a deterministic fault plan for exhaustion-path testing
    /// (sequential dense runs only; forces one thread).
    #[must_use]
    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.config.fault = Some(fault);
        self.retained = None;
        self
    }

    /// Attaches a [`pta_obs::Trace`] recorder: when enabled, the dense
    /// solver emits span/counter events (session phases, per-rule timing
    /// ladder, per-shard BSP rounds) suitable for Chrome trace-event JSON
    /// export. A disabled trace (the default) is a true no-op on the hot
    /// path. Tracing does *not* force a thread count — parallel runs
    /// produce per-shard timelines.
    #[must_use]
    pub fn trace(mut self, trace: pta_obs::Trace) -> Self {
        self.config.trace = trace;
        self.retained = None;
        self
    }

    /// Collects a per-rule evaluation profile (fire counts, derived
    /// tuples, cumulative nanoseconds) plus hottest-variable ranking into
    /// `PointsToResult::profile` (sequential dense runs only; forces one
    /// thread so per-rule clocks are not interleaved across workers).
    #[must_use]
    pub fn profile(mut self, profile: bool) -> Self {
        self.config.profile = profile;
        self.retained = None;
        self
    }

    /// Replaces the whole [`SolverConfig`] at once (for callers that
    /// already assemble one).
    #[must_use]
    pub fn config(mut self, config: SolverConfig) -> Self {
        self.config = config;
        self.retained = None;
        self
    }

    /// Attaches a [`pta_obs::Metrics`] registry: every
    /// [`AnalysisSession::solve`] exports its solver counters
    /// (`pta_solver_*`, per-shard `pta_shard_*`) and every
    /// [`AnalysisSession::apply`] its outcome
    /// (`pta_apply_total{mode=...}`, fallback reasons, cone sizes) into
    /// it. A disabled registry (the default) is a true no-op. Pure
    /// observability: unlike the other builders this does *not* drop
    /// retained solver state, so a resident session can be instrumented
    /// without losing its incremental eligibility.
    #[must_use]
    pub fn metrics(mut self, metrics: pta_obs::Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Opts the session into incremental fixpoint maintenance: eligible
    /// solves retain their solver state so a later
    /// [`AnalysisSession::apply`] can maintain the fixpoint in place
    /// instead of re-solving. Off by default (retention keeps the full
    /// solver state alive between calls).
    #[must_use]
    pub fn incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        if !incremental {
            self.retained = None;
        }
        self
    }

    /// The program this session currently analyzes.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The program version: 1 for the program the session was opened
    /// with, bumped by every successful [`AnalysisSession::apply`].
    pub fn version(&self) -> u64 {
        self.version
    }

    /// `true` if the last [`AnalysisSession::apply`] maintained the
    /// fixpoint incrementally; `false` if it re-solved from scratch (or
    /// no `apply` has happened yet).
    pub fn last_apply_was_incremental(&self) -> bool {
        self.last_apply_was_incremental
    }

    /// Why the last [`AnalysisSession::apply`] fell back to a full
    /// re-solve, if it did.
    pub fn last_fallback(&self) -> Option<&'static str> {
        self.last_fallback
    }

    /// Maintenance counters from the last incremental
    /// [`AnalysisSession::apply`] (cone sizes, maintained tuples), or
    /// `None` if the last apply re-solved from scratch (or no apply has
    /// happened yet).
    pub fn last_apply_stats(&self) -> Option<ApplyStats> {
        self.last_apply_stats
    }

    /// `true` while solver state is retained for incremental maintenance.
    pub fn is_retained(&self) -> bool {
        self.retained.is_some()
    }

    /// The effective dense worker count after resolving `0` = auto and
    /// the sequential-only feature fallbacks. The Datalog back end always
    /// runs single-threaded regardless of this value. Public so reporting
    /// layers can label a run with the worker count it actually used.
    pub fn effective_threads(&self) -> usize {
        let requested = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.threads
        };
        if self.config.keep_tuples
            || self.config.track_provenance
            || self.config.fault.is_some()
            || self.config.profile
        {
            1
        } else {
            requested
        }
    }

    /// An incremental-eligible configuration: the maintenance layer is
    /// exact only for the sequential dense solver with no resource
    /// governance or degradation and no per-run capture state.
    fn retention_eligible(&self) -> bool {
        self.incremental
            && self.backend == Backend::Dense
            && self.effective_threads() == 1
            && self.config.budget.is_unlimited()
            && !self.config.degrade
            && !self.config.keep_tuples
            && !self.config.track_provenance
            && !self.config.profile
            && self.config.fault.is_none()
    }

    /// Solves the current program version from scratch. With
    /// [`AnalysisSession::incremental`] enabled and an eligible
    /// configuration, the solver state is retained for later
    /// [`AnalysisSession::apply`] calls. `Clone + 'static` is required
    /// because the Datalog back end registers the policy's context
    /// constructors as boxed engine functors; every policy in the crate
    /// is a copyable value, so the bound is free in practice.
    pub fn solve(&mut self) -> PointsToResult
    where
        P: Clone + 'static,
    {
        let result = self.solve_inner();
        self.export_solve_metrics(&result);
        result
    }

    fn solve_inner(&mut self) -> PointsToResult
    where
        P: Clone + 'static,
    {
        self.retained = None;
        self.last_apply_stats = None;
        match self.backend {
            Backend::Dense => {
                let threads = self.effective_threads();
                if threads > 1 {
                    solve_parallel(&self.program, &self.policy, self.config.clone(), threads)
                } else if self.retention_eligible() {
                    let mut config = self.config.clone();
                    config.retain = true;
                    let mut solver =
                        Solver::new(Arc::clone(&self.program), self.policy.clone(), config);
                    let termination = solver.solve_fix();
                    let keep = termination == Termination::Complete && !solver.has_demotions();
                    let result = solver.build_result(termination, keep);
                    if keep {
                        self.retained = Some(solver);
                    }
                    result
                } else {
                    solve_sequential(&self.program, &self.policy, self.config.clone())
                }
            }
            Backend::Datalog => datalog_impl::run_datalog_opt(
                &self.program,
                &self.policy,
                &self.config.budget,
                self.config.cancel.as_ref(),
                self.config.profile,
            ),
        }
    }

    /// Applies `delta` to the session's program (validating it against
    /// the current version) and returns the analysis result for the new
    /// version. When solver state was retained and the delta is within
    /// the maintenance layer's exact fragment, the existing fixpoint is
    /// updated in place; otherwise the new program is solved from
    /// scratch. The result is byte-identical either way.
    pub fn apply(&mut self, delta: &ProgramDelta) -> Result<PointsToResult, DeltaError>
    where
        P: Clone + 'static,
    {
        // Fallbacks decidable from the delta alone are settled before the
        // program advances: a solver that cannot maintain the edit has no
        // use for the old version, so the edit can go in place.
        let early = self.retained.as_ref().and_then(|s| s.early_fallback(delta));
        let maintain = self.retained.is_some() && early.is_none();
        let new_program = self.advance_program(delta, maintain)?;
        self.last_apply_was_incremental = false;
        self.last_fallback = early;
        self.last_apply_stats = None;
        if let Some(mut solver) = self.retained.take().filter(|_| maintain) {
            match solver.apply_delta(&new_program, delta) {
                ApplyOutcome::Done(termination, apply_stats) => {
                    self.program = new_program;
                    self.version += 1;
                    let keep = termination == Termination::Complete && !solver.has_demotions();
                    let result = solver.build_result(termination, keep);
                    if keep {
                        self.retained = Some(solver);
                    }
                    self.last_apply_was_incremental = true;
                    self.last_apply_stats = Some(apply_stats);
                    self.export_apply_metrics();
                    return Ok(result);
                }
                ApplyOutcome::Fallback(reason) => {
                    self.last_fallback = Some(reason);
                }
            }
        }
        self.program = new_program;
        self.version += 1;
        let result = self.solve();
        self.export_apply_metrics();
        Ok(result)
    }

    /// Exports one solve's counters into the attached metrics registry.
    /// Solver stats are exported only for from-scratch solves: a retained
    /// solver's stats are cumulative across applies, so re-adding them
    /// after each maintenance run would double-count (incremental applies
    /// export their own deltas in [`AnalysisSession::export_apply_metrics`]).
    fn export_solve_metrics(&self, result: &PointsToResult) {
        if !self.metrics.is_enabled() {
            return;
        }
        let m = &self.metrics;
        m.counter("pta_solve_total", &[]).inc();
        for (name, value) in result.solver_stats().fields() {
            if name == "peak_worklist" {
                m.gauge("pta_solver_peak_worklist", &[]).fetch_max(value);
            } else {
                m.counter(&format!("pta_solver_{name}_total"), &[])
                    .add(value);
            }
        }
        for (i, s) in result.shard_stats().iter().enumerate() {
            let shard = i.to_string();
            let labels: &[(&str, &str)] = &[("shard", &shard)];
            m.counter("pta_shard_rounds_total", labels)
                .add(s.par_rounds);
            m.counter("pta_shard_msgs_total", labels).add(s.par_msgs);
            m.counter("pta_shard_steps_total", labels).add(s.steps);
        }
    }

    /// Exports one apply's outcome: which path ran, the fallback reason
    /// if any, and (for incremental applies) the invalidation-cone sizes
    /// and maintained-tuple count.
    fn export_apply_metrics(&self) {
        if !self.metrics.is_enabled() {
            return;
        }
        let m = &self.metrics;
        if let Some(s) = self.last_apply_stats {
            m.counter("pta_apply_total", &[("mode", "incremental")])
                .inc();
            m.counter("pta_apply_maintained_tuples_total", &[])
                .add(s.maintained_tuples);
            m.gauge("pta_apply_cone_keys", &[]).set(s.cone_keys);
            m.gauge("pta_apply_cone_flds", &[]).set(s.cone_flds);
            m.gauge("pta_apply_cone_statics", &[]).set(s.cone_statics);
            m.gauge("pta_apply_cone_sites", &[]).set(s.cone_sites);
            m.gauge("pta_apply_cone_reach", &[]).set(s.cone_reach);
        } else {
            m.counter("pta_apply_total", &[("mode", "full")]).inc();
            let reason = self.last_fallback.unwrap_or("no retained solver");
            m.counter("pta_apply_fallback_total", &[("reason", reason)])
                .inc();
        }
    }

    /// Produces the next program version from `delta`. `maintain` says
    /// whether the retained solver will try to maintain the fixpoint
    /// under it.
    ///
    /// The session first recalls the retained solver's program handle; if
    /// that leaves this session as the sole owner of the current version,
    /// the edit mutates the program in place — no arena clones. Any
    /// caller that kept an `Arc` to the current version defeats
    /// uniqueness and gets the cloning path, so old versions handed out
    /// through [`AnalysisSession::program`] are never disturbed. A
    /// retracting delta that will be maintained also clones: the
    /// maintenance layer's cone collection reads the *old* program.
    ///
    /// On `Err` the session (program and retained solver) is unchanged.
    /// On `Ok` the session's program slot holds a placeholder until the
    /// caller installs the returned version.
    fn advance_program(
        &mut self,
        delta: &ProgramDelta,
        maintain: bool,
    ) -> Result<Arc<Program>, DeltaError> {
        if maintain && delta.has_retractions() {
            return Ok(Arc::new(self.program.apply_delta(delta)?));
        }
        if let Some(s) = self.retained.as_mut() {
            s.set_program(placeholder_program());
        }
        let held = std::mem::replace(&mut self.program, placeholder_program());
        let outcome = match Arc::try_unwrap(held) {
            // In-place validation runs before the first mutation, so the
            // program is unchanged whenever it errors.
            Ok(mut p) => match p.apply_delta_in_place(delta) {
                Ok(()) => Ok(Arc::new(p)),
                Err(e) => Err((Arc::new(p), e)),
            },
            Err(held) => match held.apply_delta(delta) {
                Ok(p) => Ok(Arc::new(p)),
                Err(e) => Err((held, e)),
            },
        };
        match outcome {
            Ok(next) => Ok(next),
            Err((old, e)) => {
                if let Some(s) = self.retained.as_mut() {
                    s.set_program(Arc::clone(&old));
                }
                self.program = old;
                Err(e)
            }
        }
    }
}

impl<P: ContextPolicy + fmt::Debug> fmt::Debug for AnalysisSession<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnalysisSession")
            .field("version", &self.version)
            .field("policy", &self.policy)
            .field("backend", &self.backend)
            .field("threads", &self.threads)
            .field("incremental", &self.incremental)
            .field("retained", &self.retained.is_some())
            .finish_non_exhaustive()
    }
}
