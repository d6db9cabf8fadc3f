//! `edit-stream`: a seeded stream of program edits applied to one
//! long-lived incremental 2obj+H session on `luindex` at scale 16.
//!
//! This uses the solver for writes. The stream mixes additions with
//! retractions, so some applies stay incremental and the rest fall back
//! to a full re-solve; maintenance gains show at p50, fallback and
//! re-solve gains at p95 and in throughput. The front end and the daemon
//! are not used.
//!
//! The run applies a series of short streams, each drawn from its own
//! seed (derived from the run's seed) and applied to a fresh session on
//! the generated program, so that the mix of edits, not the drift of one
//! long stream, sets the numbers. It applies at least `MIN_STREAMS`
//! streams and keeps going until `--seconds` have passed; the counts
//! come from the first `MIN_STREAMS` and repeat exactly for one seed.

use std::time::{Duration, Instant};

use pta_core::{Analysis, AnalysisSession, Trace};
use pta_govern::memtrack;
use pta_ir::{Program, ProgramDelta};
use pta_workload::{dacapo_workload, EditStream};

use crate::digest::{digest, text_digest};
use crate::spans::{median_of, Spans};
use crate::stats::{mean, median, quantile};
use crate::{Opts, Report};

const WORKLOAD: &str = "luindex";
const SCALE: f64 = 16.0;
/// The policy's metric-name tag.
const TAG: &str = crate::cold::POLICY_TAGS[0];
/// Deltas in one stream.
const STREAM: usize = 50;
/// A run applies at least this many streams, 800 deltas: enough that
/// the share of fallbacks, which sets the throughput, varies little from
/// seed to seed.
const MIN_STREAMS: u64 = 16;
/// Fallback reasons with a metric of their own; any other counts as
/// `other`.
pub const REASONS: [&str; 3] = [
    "retraction under live exception flow",
    "delta may override existing dispatch",
    "retraction cone exceeds churn threshold",
];

/// One set-up: generate the program and solve it incrementally;
/// returns the program, the session, and the generation time.
fn set_up() -> (Program, AnalysisSession, Duration) {
    let t0 = Instant::now();
    let base = dacapo_workload(WORKLOAD, SCALE);
    let gen = t0.elapsed();
    let session = fresh_session(&base, Trace::disabled());
    (base, session, gen)
}

fn fresh_session(base: &Program, trace: Trace) -> AnalysisSession {
    let mut session = AnalysisSession::open(base.clone())
        .policy(Analysis::TwoObjH)
        .threads(1)
        .incremental(true)
        .trace(trace);
    session.solve();
    session
}

/// One stream's deltas, and the digest a from-scratch solve gives
/// after the last: the session's result must match it.
struct Stream {
    deltas: Vec<ProgramDelta>,
    expected: u64,
    log_digest: u64,
}

impl Stream {
    fn new(base: &Program, seed: u64) -> Stream {
        let mut stream = EditStream::new(base.clone(), seed);
        let deltas = (0..STREAM).map(|_| stream.next_delta()).collect();
        let program = stream.program();
        let result = AnalysisSession::open(program.clone())
            .policy(Analysis::TwoObjH)
            .threads(1)
            .solve();
        Stream {
            deltas,
            expected: digest(program, &result),
            log_digest: text_digest(&format!("{:?}", stream.log())),
        }
    }
}

/// What one apply did.
struct Apply {
    ms: f64,
    fallback: Option<&'static str>,
    retraction: bool,
    cone_keys: u64,
    maintained: u64,
}

/// The seed of the run's `k`th stream.
fn stream_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x1_0000).wrapping_add(k)
}

/// Applies a stream's deltas to `session`; returns what each did and
/// the heap high-water mark during applies.
fn replay(
    mut session: AnalysisSession,
    stream: &Stream,
    k: u64,
    spans: &mut Spans,
    report: &mut Report,
) -> (Vec<Apply>, u64) {
    let mut applies = Vec::with_capacity(STREAM);
    let mut peak = 0;
    for (i, delta) in stream.deltas.iter().enumerate() {
        let step = i + 1;
        report.attempted += 1;
        memtrack::reset_peak();
        let s = spans.begin("apply", k * STREAM as u64 + step as u64);
        let t0 = Instant::now();
        let outcome = session.apply(delta);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        spans.end(s);
        peak = peak.max(memtrack::peak_bytes());
        let result = match outcome {
            Ok(r) => r,
            Err(e) => {
                report.fail(format!("stream {k} apply {step}: {e}"));
                continue;
            }
        };
        let stats = session.last_apply_stats().unwrap_or_default();
        applies.push(Apply {
            ms,
            fallback: session.last_fallback(),
            retraction: delta.has_retractions(),
            cone_keys: stats.cone_keys,
            maintained: stats.maintained_tuples,
        });
        if !result.termination().is_complete() {
            report.fail(format!(
                "stream {k} apply {step}: {:?}",
                result.termination()
            ));
        } else if step == STREAM && digest(session.program(), &result) != stream.expected {
            report.fail(format!(
                "stream {k}: maintained result differs from a from-scratch solve"
            ));
        }
    }
    (applies, peak)
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let mut spans = Spans::new(opts.trace);
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut fixture = None;
    for _ in 0..crate::SETUP_REPEATS {
        let t0 = Instant::now();
        let (base, session, gen) = set_up();
        setups.push(t0.elapsed());
        gens.push(gen);
        fixture = Some((base, session));
    }
    let (base, session) = fixture.expect("set-up ran");

    // The traced run replays every stream twice, untraced and then with
    // a solver trace attached, whose spans land under the applies.
    let mut session = Some(session);
    let mut untraced: Vec<Apply> = Vec::new();
    let mut traced: Vec<Apply> = Vec::new();
    let mut counted = 0; // applies in the first MIN_STREAMS streams
    let mut logs = String::new();
    let mut peak = 0;
    let t0 = Instant::now();
    let mut k = 0u64;
    while k < MIN_STREAMS || t0.elapsed() < opts.budget() {
        let stream = Stream::new(&base, stream_seed(opts.seed, k));
        let fresh = session
            .take()
            .unwrap_or_else(|| fresh_session(&base, Trace::disabled()));
        let (applies, stream_peak) = replay(fresh, &stream, k, &mut Spans::new(false), &mut report);
        peak = peak.max(stream_peak);
        untraced.extend(applies);
        if opts.trace {
            let (trace, base_ns) = spans.solver_trace();
            let fresh = fresh_session(&base, trace.clone());
            traced.extend(replay(fresh, &stream, k, &mut spans, &mut report).0);
            spans.tag = TAG;
            spans.import(&trace, base_ns);
        }
        k += 1;
        if k <= MIN_STREAMS {
            counted = untraced.len();
            logs.push_str(&format!("{:016x}", stream.log_digest));
        }
    }
    report.note(format!("inputs {:016x}", text_digest(&logs)));
    let first = &untraced[..counted];
    let ms: Vec<f64> = untraced.iter().map(|a| a.ms).collect();

    let setup = crate::setup_median(&setups);
    report.note(format!(
        "setup_s {setup:.3} (median of {} set-ups)",
        setups.len()
    ));
    let (p50, p95) = (median(&ms), quantile(&ms, 0.95));
    report.note(format!(
        "apply: p50 {p50:.2} ms, p95 {p95:.2} ms over {} applies in {k} streams of {STREAM}",
        ms.len()
    ));
    if !opts.trace {
        report.metric("setup_s", setup);
        report.metric("op_p50_ms", p50);
        report.metric("op_tail_ms", p95);
        report.metric(
            "ops_per_s",
            ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3),
        );
        report.metric("peak_heap_mb", peak as f64 / 1e6);
        return report;
    }

    let path = crate::write_spans("edit-stream", opts.seed, &spans);
    report.note(format!("spans written to {}", path.display()));
    let by_path = |incremental: bool| -> Vec<f64> {
        untraced
            .iter()
            .filter(|a| a.fallback.is_none() == incremental)
            .map(|a| a.ms)
            .collect()
    };
    let (inc, fall) = (by_path(true), by_path(false));
    report.note(format!(
        "incremental p50 over {} applies, fallback p50 over {}",
        inc.len(),
        fall.len()
    ));
    report.metric("incr.incremental_ms_p50", median(&inc));
    report.metric("incr.fallback_ms_p50", median(&fall));
    // Counts from the first MIN_STREAMS streams: they repeat exactly.
    let n = first.len().max(1) as f64;
    let count = |f: &dyn Fn(&Apply) -> bool| first.iter().filter(|a| f(a)).count() as f64;
    report.metric(
        "incr.incremental_share",
        count(&|a| a.fallback.is_none()) / n,
    );
    for reason in REASONS {
        report.metric(
            &format!("incr.fallback.{}", reason.replace(' ', "_")),
            count(&|a| a.fallback == Some(reason)),
        );
    }
    report.metric(
        "incr.fallback.other",
        count(&|a| a.fallback.is_some_and(|r| !REASONS.contains(&r))),
    );
    report.metric("incr.retraction_share", count(&|a| a.retraction) / n);
    report.metric(
        "incr.cone_keys",
        first.iter().map(|a| a.cone_keys).sum::<u64>() as f64,
    );
    report.metric(
        "incr.maintained_tuples",
        first.iter().map(|a| a.maintained).sum::<u64>() as f64,
    );
    let traced_ms: Vec<f64> = traced.iter().map(|a| a.ms).collect();
    report.note(format!(
        "trace overhead: traced apply mean over {} applies vs the same applies untraced, over {}",
        traced_ms.len(),
        ms.len()
    ));
    report.metric(
        "obs.trace_overhead_pct",
        (mean(&traced_ms) / mean(&ms) - 1.0) * 100.0,
    );
    // The solver spans of the traced replays' fallback re-solves.
    let self_ms = spans.self_ms();
    report.metric(
        &format!("core.unattributed_ms.{TAG}"),
        median_of(&self_ms, "solve", TAG),
    );
    for rule in crate::cold::RULES {
        report.metric(
            &format!("core.rule.{rule}_ms.{TAG}"),
            median_of(&self_ms, rule, TAG),
        );
    }
    report.metric("workload.gen_s", crate::setup_median(&gens));
    report
}
