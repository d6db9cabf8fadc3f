//! `cold-analyze`: the `pta analyze --analysis 2obj+H --analysis
//! S-2obj+H` user path on `luindex` at scale 64, from the `.jir` file on
//! disk to the last drop.
//!
//! This is the only workload that goes through the front end, and it
//! carries the paper's 2obj+H vs. S-2obj+H pair. Its input is fixed (the
//! seed does not change it) so that its answers can be checked against
//! values recorded once by an independent solver (`expected.txt`,
//! written by `perfbench record`).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pta_clients::precision_metrics;
use pta_core::{Analysis, AnalysisSession, Backend, SolverStats};
use pta_govern::memtrack;
use pta_ir::Program;
use pta_lang::{lexer, lower, parser, print_program};
use pta_workload::dacapo_workload;

use crate::digest::Expected;
use crate::spans::{median_of, Spans};
use crate::stats::{median, quantile};
use crate::{Opts, Report};

const WORKLOAD: &str = "luindex";
const SCALE: f64 = 64.0;
/// The policies one op solves, in order, with their metric-name tags
/// (`+` is not allowed in metric names).
pub const POLICY_TAGS: [&str; 2] = ["2objH", "S-2objH"];
const POLICIES: [(Analysis, &str); 2] = [
    (Analysis::TwoObjH, POLICY_TAGS[0]),
    (Analysis::STwoObjH, POLICY_TAGS[1]),
];
/// The solver's per-rule span names.
pub const RULES: [&str; 10] = [
    "alloc",
    "move",
    "vcall",
    "scall",
    "interproc",
    "load",
    "store",
    "sload",
    "sstore",
    "exception",
];
/// Reference answers for luindex at scale 64 (see [`record`]).
const EXPECTED: &str = include_str!("../expected.txt");
/// A run times at least this many ops even past `--seconds`.
const MIN_OPS: usize = 3;

/// What one op measured beyond its wall time.
struct OpOutcome {
    wall: Duration,
    tokens: usize,
    source_bytes: usize,
    lang_peak: u64,
    core_peak: u64,
    stats: Vec<SolverStats>,
}

/// Writes the input file; returns (set-up time, generation time).
fn set_up(path: &std::path::Path) -> (Duration, Duration) {
    let t0 = Instant::now();
    let program = dacapo_workload(WORKLOAD, SCALE);
    let gen = t0.elapsed();
    std::fs::write(path, print_program(&program)).expect("the work directory is writable");
    (t0.elapsed(), gen)
}

/// One op: read, lex, parse, lower, then solve and measure each policy
/// on one session, then drop everything. The answer checks run with the
/// clock stopped.
fn op(
    path: &std::path::Path,
    id: u64,
    spans: &mut Spans,
    expected: &[Expected; 2],
    report: &mut Report,
) -> Option<OpOutcome> {
    let traced = spans.enabled();
    let t0 = Instant::now();
    let mut paused = Duration::ZERO;
    if traced {
        memtrack::reset_peak();
    }
    spans.tag = "lang";
    let s = spans.begin("read", id);
    let source = std::fs::read_to_string(path).expect("the input file was written at set-up");
    spans.end(s);
    let s = spans.begin("lex", id);
    let tokens = lexer::lex(&source);
    spans.end(s);
    let tokens = match tokens {
        Ok(t) => t,
        Err(e) => {
            report.fail(format!("op {id}: lex: {e}"));
            return None;
        }
    };
    let s = spans.begin("parse", id);
    let module = parser::parse(&tokens);
    spans.end(s);
    let module = match module {
        Ok(m) => m,
        Err(e) => {
            report.fail(format!("op {id}: parse: {e}"));
            return None;
        }
    };
    let s = spans.begin("lower", id);
    let program = lower::lower(&module);
    spans.end(s);
    let program = match program {
        Ok(p) => p,
        Err(e) => {
            report.fail(format!("op {id}: lower: {e}"));
            return None;
        }
    };
    let lang_peak = memtrack::peak_bytes();
    let (n_tokens, source_bytes) = (tokens.len(), source.len());
    let s = spans.begin("drop", id);
    drop((tokens, module, source));
    spans.end(s);

    if traced {
        memtrack::reset_peak();
    }
    let mut session = AnalysisSession::open(program).threads(1);
    let mut stats = Vec::new();
    for (i, &(policy, tag)) in POLICIES.iter().enumerate() {
        spans.tag = tag;
        let (trace, base) = spans.solver_trace();
        session = session.policy(policy).trace(trace.clone());
        let s = spans.begin("analysis", id);
        let result = session.solve();
        spans.end(s);
        spans.import(&trace, base);
        let s = spans.begin("precision", id);
        let m = precision_metrics(session.program(), &result);
        spans.end(s);

        let check = Instant::now();
        let got = Expected::of(session.program(), &result, &m);
        if !result.termination().is_complete() {
            report.fail(format!("op {id}: {policy}: {:?}", result.termination()));
        } else if got != expected[i] {
            report.fail(format!(
                "op {id}: {policy}: wrong answer: got [{}], reference [{}]",
                got.render(policy.name()),
                expected[i].render(policy.name())
            ));
        }
        stats.push(*result.solver_stats());
        paused += check.elapsed();

        let s = spans.begin("drop", id);
        drop(result);
        spans.end(s);
    }
    let core_peak = memtrack::peak_bytes();
    spans.tag = "core";
    let s = spans.begin("drop", id);
    drop(session);
    spans.end(s);
    Some(OpOutcome {
        wall: t0.elapsed() - paused,
        tokens: n_tokens,
        source_bytes,
        lang_peak,
        core_peak,
        stats,
    })
}

fn load_expected() -> Result<[Expected; 2], String> {
    let get = |p: Analysis| {
        Expected::parse(EXPECTED, p.name())
            .ok_or_else(|| format!("expected.txt has no line for {p}; run `perfbench record`"))
    };
    Ok([get(POLICIES[0].0)?, get(POLICIES[1].0)?])
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let expected = match load_expected() {
        Ok(e) => e,
        Err(e) => {
            report.attempted = 1;
            report.fail(e);
            return report;
        }
    };
    let path = crate::work_dir().join(format!("{WORKLOAD}-{SCALE}-{}.jir", std::process::id()));
    let (setups, gens): (Vec<Duration>, Vec<Duration>) =
        (0..crate::SETUP_REPEATS).map(|_| set_up(&path)).unzip();

    // In the traced run every other op is traced, so the untraced ones
    // between them give the tracing overhead on the same inputs.
    let mut spans = Spans::new(opts.trace);
    let mut quiet = Spans::new(false);
    let mut walls: Vec<f64> = Vec::new();
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut outcomes = Vec::new(); // of the traced ops
    memtrack::reset_peak();
    let t0 = Instant::now();
    let mut id = 0u64;
    while id < MIN_OPS as u64 || t0.elapsed() < opts.budget() {
        id += 1;
        report.attempted += 1;
        let traced = opts.trace && id.is_multiple_of(2);
        let log = if traced { &mut spans } else { &mut quiet };
        if let Some(o) = op(&path, id, log, &expected, &mut report) {
            let ms = o.wall.as_secs_f64() * 1e3;
            if traced {
                traced_walls.push(ms);
                outcomes.push(o);
            } else {
                walls.push(ms);
            }
        }
    }
    let peak = crate::peak_heap_mb();
    let _ = std::fs::remove_file(&path);

    let setup = crate::setup_median(&setups);
    report.note(format!(
        "setup_s {setup:.3} (median of {} set-ups)",
        setups.len()
    ));
    if !opts.trace {
        report.metric("setup_s", setup);
        let p50 = median(&walls);
        let max = quantile(&walls, 1.0);
        let total: f64 = walls.iter().sum();
        report.note(format!(
            "analyze op: p50 {p50:.1} ms, max {max:.1} ms over {} ops: {:.0?}",
            walls.len(),
            walls
        ));
        report.metric("op_p50_ms", p50);
        report.metric("op_tail_ms", max);
        report.metric("ops_per_s", walls.len() as f64 / (total / 1e3));
        report.metric("peak_heap_mb", peak);
        return report;
    }

    // Per-layer metrics, from the traced ops.
    let path = crate::write_spans("cold-analyze", opts.seed, &spans);
    report.note(format!("spans written to {}", path.display()));
    let self_ms = spans.self_ms();
    let total_ms = spans.total_ms();
    let n = traced_walls.len();
    report.note(format!("layer times: medians over {n} traced ops"));
    for layer in ["read", "lex", "parse", "lower", "drop"] {
        report.metric(
            &format!("lang.{layer}_ms"),
            median_of(&self_ms, layer, "lang"),
        );
    }
    let last = outcomes.last();
    report.metric("lang.tokens", last.map_or(0, |o| o.tokens) as f64);
    let front_ms: f64 = ["read", "lex", "parse", "lower"]
        .iter()
        .map(|l| median_of(&self_ms, l, "lang"))
        .sum();
    let bytes = last.map_or(0, |o| o.source_bytes) as f64;
    report.metric("lang.mb_per_s", bytes / 1e6 / (front_ms / 1e3));
    let peak_of = |f: fn(&OpOutcome) -> u64| outcomes.iter().map(f).max().unwrap_or(0) as f64 / 1e6;
    report.metric("lang.peak_heap_mb", peak_of(|o| o.lang_peak));
    report.metric("core.peak_heap_mb", peak_of(|o| o.core_peak));
    for (i, &(_, tag)) in POLICIES.iter().enumerate() {
        report.metric(
            &format!("core.solve_ms.{tag}"),
            median_of(&total_ms, "analysis", tag),
        );
        report.metric(
            &format!("core.outside_solve_ms.{tag}"),
            median_of(&self_ms, "analysis", tag),
        );
        report.metric(
            &format!("core.unattributed_ms.{tag}"),
            median_of(&self_ms, "solve", tag),
        );
        for rule in RULES {
            report.metric(
                &format!("core.rule.{rule}_ms.{tag}"),
                median_of(&self_ms, rule, tag),
            );
        }
        let st = last.map(|o| o.stats[i]).unwrap_or_default();
        report.metric(&format!("core.steps.{tag}"), st.steps as f64);
        report.metric(&format!("core.vpt_inserted.{tag}"), st.vpt_inserted as f64);
        report.metric(&format!("core.dedup_hit_rate.{tag}"), st.dedup_hit_rate());
        report.metric(&format!("core.batches.{tag}"), st.batches as f64);
        report.metric(
            &format!("core.peak_worklist.{tag}"),
            st.peak_worklist as f64,
        );
        report.metric(&format!("core.sets_shared.{tag}"), st.sets_shared as f64);
        report.metric(
            &format!("clients.precision_ms.{tag}"),
            median_of(&self_ms, "precision", tag),
        );
    }
    let untraced = median(&walls);
    report.note(format!(
        "trace overhead: traced op p50 {:.1} ms over {n} ops vs untraced {untraced:.1} ms over {} ops",
        median(&traced_walls),
        walls.len()
    ));
    report.metric(
        "obs.trace_overhead_pct",
        (median(&traced_walls) / untraced - 1.0) * 100.0,
    );
    report.metric("workload.gen_s", crate::setup_median(&gens));
    report
}

/// The workload at `scale`, printed and read back as the ops read it.
fn lowered(scale: f64) -> Result<Arc<Program>, String> {
    let text = print_program(&dacapo_workload(WORKLOAD, scale));
    pta_lang::parse_program(&text)
        .map(Arc::new)
        .map_err(|e| format!("the printed workload does not parse: {e}"))
}

fn reference(
    program: &Arc<Program>,
    policy: Analysis,
    backend: Backend,
    threads: usize,
) -> Result<Expected, String> {
    let t0 = Instant::now();
    let result = AnalysisSession::from_arc(Arc::clone(program))
        .policy(policy)
        .backend(backend)
        .threads(threads)
        .solve();
    if !result.termination().is_complete() {
        return Err(format!(
            "{policy} on {backend:?}: {:?}",
            result.termination()
        ));
    }
    let m = precision_metrics(program, &result);
    eprintln!(
        "{policy} on {backend:?} x{threads}: {:.1} s",
        t0.elapsed().as_secs_f64()
    );
    Ok(Expected::of(program, &result, &m))
}

/// `perfbench record`: recomputes the reference answers and prints the
/// contents of `expected.txt`.
///
/// The Datalog back end needs about 15 GB at scale 64 (0.36 GB at scale
/// 8 and 1.24 GB at scale 16, growing 3.5x per doubling), so the answers
/// at scale 64 come from the sharded parallel solver (`threads(2)`),
/// after it has matched the Datalog back end on both policies at scale
/// 16. The solver under test is the sequential one.
pub fn record() -> ExitCode {
    let run = || -> Result<Vec<String>, String> {
        let small = lowered(16.0)?;
        for (policy, _) in POLICIES {
            let datalog = reference(&small, policy, Backend::Datalog, 1)?;
            let parallel = reference(&small, policy, Backend::Dense, 2)?;
            if datalog != parallel {
                return Err(format!(
                    "{policy} at scale 16: parallel [{}] differs from Datalog [{}]",
                    parallel.render(policy.name()),
                    datalog.render(policy.name())
                ));
            }
        }
        let program = lowered(SCALE)?;
        let mut lines = vec![
            format!("# {WORKLOAD} at scale {SCALE}: POLICY DIGEST MAY_FAIL_CASTS CALL_GRAPH_EDGES REACHABLE_METHODS"),
            "# Written by `perfbench record`: from the parallel solver (threads 2), which".into(),
            "# matched the Datalog back end on both policies at scale 16.".into(),
        ];
        for (policy, _) in POLICIES {
            lines.push(reference(&program, policy, Backend::Dense, 2)?.render(policy.name()));
        }
        Ok(lines)
    };
    match run() {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench record: {e}");
            ExitCode::FAILURE
        }
    }
}
