//! Incremental maintenance vs. from-scratch solving: after every edit an
//! incremental session applies, its result must be *semantically
//! identical* to a fresh solve of the edited program.
//!
//! This is the correctness bar of the incremental subsystem (DESIGN.md
//! §15): whether `apply` took the counted-retraction path, the additive
//! resume path, or fell back to a full re-solve is an implementation
//! detail the caller must never be able to observe in the analysis
//! results. Edit sequences come from the deterministic
//! [`pta_workload::EditStream`] generator; a failure is shrunk to a
//! locally-minimal edit subsequence with [`pta_workload::shrink_steps`]
//! before the panic message is built, so the reproduction in the test log
//! is small enough to debug.
//!
//! The fingerprint compares semantic projections only — points-to sets,
//! call graph, reachable methods, the instance- and static-field views,
//! context-sensitive tuple counts, uncaught exceptions. Interner sizes
//! (`SolverStats::contexts` etc.) are deliberately excluded: a retained
//! session keeps interned contexts for retracted facts, and that slack is
//! specified behavior, not a leak of analysis meaning.

use pta_core::{Analysis, AnalysisSession, Backend, PointsToResult};
use pta_ir::{Program, ProgramBuilder, ProgramDelta};
use pta_workload::{dacapo_workload, materialize, shrink_steps, Edit, EditStream};

/// Everything the analysis *means* about `program`, as one string.
fn fingerprint(program: &Program, r: &PointsToResult) -> String {
    let mut out = String::new();
    for var in program.vars() {
        if !r.points_to(var).is_empty() {
            out.push_str(&format!("v{:?}={:?};", var, r.points_to(var)));
        }
    }
    for invo in program.invos() {
        if !r.call_targets(invo).is_empty() {
            out.push_str(&format!("c{:?}={:?};", invo, r.call_targets(invo)));
        }
    }
    let mut fields: Vec<_> = r.field_points_to_iter().collect();
    fields.sort_unstable();
    out.push_str(&format!("f={fields:?};"));
    let mut statics: Vec<_> = r.static_points_to_iter().collect();
    statics.sort_unstable();
    out.push_str(&format!("s={statics:?};"));
    let mut reachable: Vec<_> = r.reachable_methods().collect();
    reachable.sort_unstable();
    out.push_str(&format!(
        "reach={reachable:?};n_reach={};edges={};ctx_vpt={};ctx_edges={};uncaught={:?}",
        r.reachable_method_count(),
        r.call_graph_edge_count(),
        r.ctx_var_points_to_count(),
        r.ctx_call_graph_edge_count(),
        r.uncaught_exceptions(),
    ));
    out
}

fn scratch(program: &Program, analysis: Analysis, backend: Backend, threads: usize) -> String {
    let r = AnalysisSession::open(program.clone())
        .policy(analysis)
        .backend(backend)
        .threads(threads)
        .solve();
    fingerprint(program, &r)
}

/// Replays `edits` (skipping unmaterializable steps) against a fresh
/// incremental session; returns `Some(step)` of the first edit after
/// which the incremental result diverged from a from-scratch solve.
fn first_divergence(
    base: &Program,
    edits: &[Edit],
    analysis: Analysis,
    backend: Backend,
    threads: usize,
) -> Option<usize> {
    let mut session = AnalysisSession::open(base.clone())
        .policy(analysis)
        .backend(backend)
        .threads(threads)
        .incremental(true);
    session.solve();
    let mut program = base.clone();
    for (step, edit) in edits.iter().enumerate() {
        let Some(delta) = materialize(&program, edit) else {
            continue;
        };
        program = program
            .apply_delta(&delta)
            .expect("materialized delta applies");
        let inc = session
            .apply(&delta)
            .expect("session accepts its own version's delta");
        if fingerprint(&program, &inc) != scratch(&program, analysis, backend, threads) {
            return Some(step);
        }
    }
    None
}

/// Drives `session` through `stream` for `n` edits, comparing against a
/// from-scratch solve after every single one; on divergence, shrinks the
/// edit log and panics with the minimal reproduction. Returns how many
/// applies took an incremental path (vs. internal full re-solve).
fn assert_stream_equivalence(
    base: &Program,
    seed: u64,
    n: usize,
    analysis: Analysis,
    backend: Backend,
    threads: usize,
) -> usize {
    let mut stream = EditStream::new(base.clone(), seed);
    let mut session = AnalysisSession::open(base.clone())
        .policy(analysis)
        .backend(backend)
        .threads(threads)
        .incremental(true);
    session.solve();
    let mut incremental_applies = 0;
    for step in 0..n {
        let delta = stream.next_delta();
        let inc = session
            .apply(&delta)
            .expect("stream deltas are built against the session's version");
        if session.last_apply_was_incremental() {
            incremental_applies += 1;
        }
        let program = stream.program();
        let want = scratch(program, analysis, backend, threads);
        if fingerprint(program, &inc) != want {
            // Shrink before reporting: find a locally-minimal subsequence
            // of the log that still diverges somewhere.
            let log = stream.log().to_vec();
            let minimal = shrink_steps(log.len(), |steps| {
                let subset: Vec<Edit> = steps.iter().map(|&i| log[i].clone()).collect();
                first_divergence(base, &subset, analysis, backend, threads).is_some()
            });
            let subset: Vec<&Edit> = minimal.iter().map(|&i| &log[i]).collect();
            panic!(
                "{analysis}/{backend:?}/threads={threads}: incremental diverged from \
                 scratch at step {step} (seed {seed}); minimal reproduction \
                 ({} of {} edits): {subset:#?}",
                minimal.len(),
                log.len(),
            );
        }
    }
    incremental_applies
}

/// The headline property: every policy, a stream of mixed edits
/// (additive and retracting), byte-identical semantics after each one.
#[test]
fn edit_streams_match_scratch_for_every_policy() {
    let base = dacapo_workload("luindex", 0.1);
    for (i, &analysis) in Analysis::ALL.iter().enumerate() {
        assert_stream_equivalence(&base, 1000 + i as u64, 8, analysis, Backend::Dense, 1);
    }
}

/// A second base program and seed band, for the policies the paper's
/// claims lean on hardest.
#[test]
fn edit_streams_match_scratch_on_a_second_workload() {
    let base = dacapo_workload("antlr", 0.1);
    for (i, &analysis) in [
        Analysis::Insens,
        Analysis::OneCall,
        Analysis::OneObj,
        Analysis::TwoObjH,
        Analysis::SBOneObj,
        Analysis::STwoObjH,
        Analysis::UTwoObjH,
        Analysis::STwoTypeH,
    ]
    .iter()
    .enumerate()
    {
        assert_stream_equivalence(&base, 7000 + i as u64, 8, analysis, Backend::Dense, 1);
    }
}

/// The Datalog back end and multi-threaded dense runs never retain solver
/// state, so `apply` re-solves internally — but the API contract (results
/// identical to scratch after every edit) is back-end and thread-count
/// independent.
#[test]
fn edit_streams_match_scratch_on_datalog_and_threads() {
    let base = dacapo_workload("hsqldb", 0.1);
    for &analysis in &[Analysis::Insens, Analysis::OneCall, Analysis::STwoObjH] {
        for &(backend, threads) in &[(Backend::Datalog, 1), (Backend::Dense, 4)] {
            let inc = assert_stream_equivalence(&base, 42, 5, analysis, backend, threads);
            assert_eq!(
                inc, 0,
                "{analysis}/{backend:?}/threads={threads}: non-retaining configs \
                 must report apply() as a fallback, not an incremental pass"
            );
        }
    }
}

/// A small program with no exception traffic, so the incremental engine's
/// exception guard never forces a fallback and both the additive-resume
/// and counted-retraction paths genuinely run.
fn throw_free_base() -> Program {
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let node = b.class("Node", Some(object));
    let leaf = b.class("Leaf", Some(node));
    let next = b.field(node, "next");

    // Node.attach(n) { this.next = n; }  (overridden in Leaf)
    let attach = b.method(node, "attach", &["n"], false);
    let t = b.this(attach).unwrap();
    let n = b.formals(attach)[0];
    b.store(attach, t, next, n);
    let attach2 = b.method(leaf, "attach", &["n"], false);
    let t2 = b.this(attach2).unwrap();
    let n2 = b.formals(attach2)[0];
    b.store(attach2, t2, next, n2);

    // Node.follow() { return this.next; }
    let follow = b.method(node, "follow", &[], false);
    let ft = b.this(follow).unwrap();
    let fr = b.var(follow, "r");
    b.load(follow, fr, ft, next);
    b.set_return(follow, fr);

    // static id(x) { return x; }
    let id = b.method(node, "id", &["x"], true);
    let x = b.formals(id)[0];
    b.set_return(id, x);

    // static main() { a = new Node; l = new Leaf; a.attach(l); got = a.follow(); e = id(got); }
    let main = b.method(node, "main", &[], true);
    let a = b.var(main, "a");
    let l = b.var(main, "l");
    let got = b.var(main, "got");
    let e = b.var(main, "e");
    b.alloc(main, a, node, "node A");
    b.alloc(main, l, leaf, "leaf L");
    b.vcall(main, a, "attach", &[l], None, "a.attach(l)");
    b.vcall(main, a, "follow", &[], Some(got), "a.follow()");
    b.scall(main, id, &[got], Some(e), "id(got)");
    b.entry_point(main);
    b.finish().unwrap()
}

/// Purely additive edits on a throw-free base must take the incremental
/// path (no fallback) under every policy, and still match scratch.
#[test]
fn additive_edits_take_the_incremental_path() {
    let base = throw_free_base();
    for analysis in Analysis::ALL {
        let mut session = AnalysisSession::open(base.clone())
            .policy(analysis)
            .incremental(true);
        session.solve();
        assert!(
            session.is_retained(),
            "{analysis}: session should retain state"
        );

        // Edit 1: a new allocation flowing into the existing attach chain.
        let main = base
            .methods()
            .find(|&m| base.method_name(m) == "main")
            .unwrap();
        let node_ty = base.types().find(|&t| base.type_name(t) == "Node").unwrap();
        let mut d1 = ProgramDelta::new(&base);
        let fresh = d1.var(main, "fresh");
        d1.alloc(main, fresh, node_ty, "node FRESH");
        let a_var = base
            .vars()
            .find(|&v| base.var_method(v) == main && base.var_name(v) == "a")
            .unwrap();
        d1.vcall(main, a_var, "attach", &[fresh], None, "a.attach(fresh)");
        let v2 = base.apply_delta(&d1).unwrap();
        let r1 = session.apply(&d1).unwrap();
        assert!(
            session.last_apply_was_incremental(),
            "{analysis}: additive delta fell back: {:?}",
            session.last_fallback()
        );
        assert_eq!(
            fingerprint(&v2, &r1),
            scratch(&v2, analysis, Backend::Dense, 1),
            "{analysis}"
        );

        // Edit 2: a new static call through the identity helper.
        let id = v2.methods().find(|&m| v2.method_name(m) == "id").unwrap();
        let main2 = v2.methods().find(|&m| v2.method_name(m) == "main").unwrap();
        let fresh2 = v2
            .vars()
            .find(|&v| v2.var_method(v) == main2 && v2.var_name(v) == "fresh")
            .unwrap();
        let mut d2 = ProgramDelta::new(&v2);
        let out = d2.var(main2, "out");
        d2.scall(main2, id, &[fresh2], Some(out), "id(fresh)");
        let v3 = v2.apply_delta(&d2).unwrap();
        let r2 = session.apply(&d2).unwrap();
        assert!(
            session.last_apply_was_incremental(),
            "{analysis}: second additive delta fell back: {:?}",
            session.last_fallback()
        );
        assert_eq!(
            fingerprint(&v3, &r2),
            scratch(&v3, analysis, Backend::Dense, 1),
            "{analysis}"
        );
    }
}

/// Retractions on a throw-free base take the counted-retraction path (no
/// fallback) and still match scratch — including deleting the allocation
/// an entire points-to chain hangs off.
#[test]
fn retracting_edits_take_the_incremental_path() {
    let base = throw_free_base();
    for analysis in Analysis::ALL {
        let mut session = AnalysisSession::open(base.clone())
            .policy(analysis)
            .incremental(true);
        session.solve();

        let main = base
            .methods()
            .find(|&m| base.method_name(m) == "main")
            .unwrap();
        // Remove `l = new Leaf` (instruction 1): the attach argument, the
        // field contents, and the follow/load result all lose `leaf L`.
        let mut d1 = ProgramDelta::new(&base);
        d1.remove_instr(main, 1);
        let v2 = base.apply_delta(&d1).unwrap();
        let r1 = session.apply(&d1).unwrap();
        assert!(
            session.last_apply_was_incremental(),
            "{analysis}: retraction fell back: {:?}",
            session.last_fallback()
        );
        assert_eq!(
            fingerprint(&v2, &r1),
            scratch(&v2, analysis, Backend::Dense, 1),
            "{analysis}"
        );

        // Clear the whole attach override in Leaf — dispatch target loses
        // its body, stores disappear.
        let leaf_attach = v2
            .methods()
            .find(|&m| {
                v2.method_name(m) == "attach" && v2.type_name(v2.method_declaring(m)) == "Leaf"
            })
            .unwrap();
        let mut d2 = ProgramDelta::new(&v2);
        d2.clear_method(leaf_attach);
        let v3 = v2.apply_delta(&d2).unwrap();
        let r2 = session.apply(&d2).unwrap();
        assert!(
            session.last_apply_was_incremental(),
            "{analysis}: clear_method fell back: {:?}",
            session.last_fallback()
        );
        assert_eq!(
            fingerprint(&v3, &r2),
            scratch(&v3, analysis, Backend::Dense, 1),
            "{analysis}"
        );
    }
}

/// Version discipline: a delta built against a stale version is rejected
/// with `StaleBase`, and the session's retained state survives the error.
#[test]
fn stale_deltas_are_rejected_without_corrupting_the_session() {
    let base = throw_free_base();
    let mut session = AnalysisSession::open(base.clone())
        .policy(Analysis::OneObj)
        .incremental(true);
    session.solve();

    let main = base
        .methods()
        .find(|&m| base.method_name(m) == "main")
        .unwrap();
    let node_ty = base.types().find(|&t| base.type_name(t) == "Node").unwrap();
    let mut d1 = ProgramDelta::new(&base);
    let f1 = d1.var(main, "f1");
    d1.alloc(main, f1, node_ty, "F1");
    session.apply(&d1).unwrap();
    assert_eq!(session.version(), 2);

    // d2 is built against version 1, but the session is at version 2.
    let mut d2 = ProgramDelta::new(&base);
    let f2 = d2.var(main, "f2");
    d2.alloc(main, f2, node_ty, "F2");
    session.apply(&d2).unwrap_err();
    assert_eq!(
        session.version(),
        2,
        "failed apply must not advance the version"
    );

    // The session still works incrementally afterwards.
    let current = std::sync::Arc::clone(session.program());
    let main2 = current
        .methods()
        .find(|&m| current.method_name(m) == "main")
        .unwrap();
    let mut d3 = ProgramDelta::new(&current);
    let f3 = d3.var(main2, "f3");
    d3.alloc(main2, f3, node_ty, "F3");
    let r = session.apply(&d3).unwrap();
    assert!(session.last_apply_was_incremental());
    let v = current.apply_delta(&d3).unwrap();
    assert_eq!(
        fingerprint(&v, &r),
        scratch(&v, Analysis::OneObj, Backend::Dense, 1)
    );
}

/// Mixed streams on an exception-bearing workload: retracting edits are
/// expected to fall back (the exception guard), but results must still be
/// exact, and purely additive steps must still take the fast path.
#[test]
fn fallbacks_on_exception_traffic_are_exact() {
    let base = dacapo_workload("xalan", 0.1);
    let incremental_applies =
        assert_stream_equivalence(&base, 99, 10, Analysis::SBOneObj, Backend::Dense, 1);
    // The stream's weights guarantee a majority of additive edits; at
    // least one of them must have avoided the fallback.
    assert!(
        incremental_applies > 0,
        "no apply took the incremental path on a 10-edit stream"
    );
}

/// Shared-set hygiene across `apply`: retraction clears dead keys through
/// `PtsSet::clear_in`, which releases last-holder representations back to
/// the store instead of leaking them, and the cumulative `bytes_saved`
/// counter never moves backwards across applies.
#[test]
fn retraction_path_keeps_shared_store_counters_monotone() {
    // A copy chain over a >SHARE_MIN points-to set, so the shared
    // representation stage actually engages.
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let thing = b.class("Thing", Some(object));
    let main = b.method(thing, "main", &[], true);
    let a = b.var(main, "a");
    for i in 0..150 {
        b.alloc(main, a, thing, &format!("obj {i}"));
    }
    let c = b.var(main, "c");
    b.move_(main, c, a);
    let d = b.var(main, "d");
    b.move_(main, d, a);
    b.entry_point(main);
    let base = b.finish().unwrap();

    let mut session = AnalysisSession::open(base.clone())
        .policy(Analysis::Insens)
        .incremental(true);
    let r0 = session.solve();
    assert!(
        r0.solver_stats().sets_shared > 0,
        "copy chain must produce intern hits"
    );
    let mut saved = r0.solver_stats().bytes_saved;
    assert!(saved > 0);

    // Retract the copies one at a time; each apply clears the dead key
    // (releasing its shared base) and must stay exact.
    let mut program = base.clone();
    for _ in 0..2 {
        let last = program.instrs(main).len() - 1;
        let mut delta = ProgramDelta::new(&program);
        delta.remove_instr(main, last);
        let next = program.apply_delta(&delta).unwrap();
        let r = session.apply(&delta).unwrap();
        assert!(
            session.last_apply_was_incremental(),
            "retraction fell back: {:?}",
            session.last_fallback()
        );
        assert_eq!(
            fingerprint(&next, &r),
            scratch(&next, Analysis::Insens, Backend::Dense, 1)
        );
        let now = r.solver_stats().bytes_saved;
        assert!(now >= saved, "bytes_saved went backwards: {now} < {saved}");
        saved = now;
        program = next;
    }
}

/// A delta that declares `Leaf.follow()`, overriding the inherited
/// `Node.follow` for receivers that already exist: additive in the
/// program, retracting in the derived call graph, so `apply` falls back.
fn override_follow(program: &Program) -> ProgramDelta {
    let leaf = program
        .types()
        .find(|&t| program.type_name(t) == "Leaf")
        .unwrap();
    let mut d = ProgramDelta::new(program);
    let follow = d.method(leaf, "follow", &[], false);
    let r = d.var(follow, "r");
    d.alloc(follow, r, leaf, "leaf FOLLOW");
    d.set_return(follow, r);
    d
}

/// Results share their projections with the retained solver, which
/// patches them copy-on-write at the next build. A caller holding any
/// earlier result must never see it change, whichever path the later
/// applies take (additive, retracting or fallback), and every new result
/// must still match a from-scratch solve.
#[test]
fn held_results_survive_later_applies() {
    // `(program, result, fingerprint)` for every version handed out.
    fn hold(
        held: &mut Vec<(Program, PointsToResult, String)>,
        program: &Program,
        r: PointsToResult,
    ) {
        let print = fingerprint(program, &r);
        held.push((program.clone(), r, print));
    }
    fn check(held: &[(Program, PointsToResult, String)], what: &str) {
        for (k, (program, r, print)) in held.iter().enumerate() {
            assert_eq!(
                &fingerprint(program, r),
                print,
                "{what}: result of version {k} changed after later applies"
            );
        }
    }

    // Streams: luindex mixes additive, retracting and churn-fallback
    // applies; hsqldb adds exception-guard fallbacks.
    for (workload, seed, n) in [("luindex", 1, 20), ("hsqldb", 1, 10)] {
        let base = dacapo_workload(workload, 0.1);
        let mut stream = EditStream::new(base.clone(), seed);
        let mut session = AnalysisSession::open(base.clone())
            .policy(Analysis::TwoObjH)
            .incremental(true);
        let mut held = Vec::new();
        hold(&mut held, &base, session.solve());
        for _ in 0..n {
            let delta = stream.next_delta();
            let r = session.apply(&delta).unwrap();
            let program = stream.program();
            assert_eq!(
                fingerprint(program, &r),
                scratch(program, Analysis::TwoObjH, Backend::Dense, 1),
                "{workload}: new result diverged from scratch"
            );
            hold(&mut held, program, r);
        }
        check(&held, workload);
    }

    // Hand-built: additive, retracting, then a dispatch-override
    // fallback, then additive again on the re-solved state.
    let base = throw_free_base();
    let mut session = AnalysisSession::open(base.clone())
        .policy(Analysis::OneObj)
        .incremental(true);
    let mut held = Vec::new();
    hold(&mut held, &base, session.solve());
    let main = base
        .methods()
        .find(|&m| base.method_name(m) == "main")
        .unwrap();
    let node_ty = base.types().find(|&t| base.type_name(t) == "Node").unwrap();
    let mut program = base.clone();
    for what in [
        "additive",
        "retracting",
        "fallback",
        "additive after fallback",
    ] {
        let delta = match what {
            "retracting" => {
                let mut d = ProgramDelta::new(&program);
                d.remove_instr(main, 1);
                d
            }
            "fallback" => override_follow(&program),
            _ => {
                let mut d = ProgramDelta::new(&program);
                let v = d.var(main, what);
                d.alloc(main, v, node_ty, what);
                d
            }
        };
        program = program.apply_delta(&delta).unwrap();
        let r = session.apply(&delta).unwrap();
        assert_eq!(
            session.last_apply_was_incremental(),
            what != "fallback",
            "{what}: unexpected path ({:?})",
            session.last_fallback()
        );
        assert_eq!(
            fingerprint(&program, &r),
            scratch(&program, Analysis::OneObj, Backend::Dense, 1),
            "{what}"
        );
        hold(&mut held, &program, r);
        check(&held, what);
    }
}

/// One letter per apply: `I` additive and maintained, `R` retracting and
/// maintained, `X`/`D`/`C` the fallback reasons (exception flow,
/// dispatch override, churn).
fn outcome(session: &AnalysisSession) -> char {
    if session.last_apply_was_incremental() {
        let stats = session
            .last_apply_stats()
            .expect("incremental applies report stats");
        return if stats.retraction { 'R' } else { 'I' };
    }
    match session.last_fallback() {
        Some("retraction under live exception flow") => 'X',
        Some("delta may override existing dispatch") => 'D',
        Some("retraction cone exceeds churn threshold") => 'C',
        other => panic!("unexpected fallback {other:?}"),
    }
}

/// Which applies fall back, and why, is part of the maintenance layer's
/// behavior: deciding the up-front guards before the program advances
/// must not move a single outcome. The sequences below were recorded
/// before that change, on fixed `EditStream` seeds under 2obj+H.
#[test]
fn fallback_decisions_are_pinned() {
    for (workload, seed, want) in [
        ("luindex", 1, "IIIIIRIIRIIIIIIICIICIIIRIIIIIRIIRIICIRII"),
        ("hsqldb", 1, "IIXIIXIIXXXIIXIIIIIXXIIIXIIIIIXIIXIIIIXI"),
    ] {
        let base = dacapo_workload(workload, 0.1);
        let mut stream = EditStream::new(base.clone(), seed);
        let mut session = AnalysisSession::open(base)
            .policy(Analysis::TwoObjH)
            .incremental(true);
        session.solve();
        let mut got = String::new();
        for _ in 0..want.len() {
            session.apply(&stream.next_delta()).unwrap();
            got.push(outcome(&session));
        }
        assert_eq!(got, want, "{workload} seed {seed}");
    }

    let base = throw_free_base();
    let mut session = AnalysisSession::open(base.clone())
        .policy(Analysis::TwoObjH)
        .incremental(true);
    session.solve();
    session.apply(&override_follow(&base)).unwrap();
    assert_eq!(outcome(&session), 'D');
}
