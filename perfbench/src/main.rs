//! `perfbench` — the repository's benchmark: one command that runs one
//! named workload for a given seed and prints every end-to-end metric
//! (untraced run) or every per-layer metric (`--trace 1`) by name, with
//! its unit, after checking every output against an independent
//! reference.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-analyze --seed 1 --seconds 25 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- record
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! give each timing with its sample count. The exit code is 1 when any
//! operation failed or answered wrongly, 2 on a usage error. `record`
//! recomputes `expected.txt`, the cold-analyze reference answers; it is
//! never part of a benchmark run. `METRICS.md` lists every metric and
//! what it should move.

mod cold;
mod digest;
mod edit;
mod serve;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Peak-heap metrics read this allocator's high-water mark.
#[global_allocator]
static ALLOC: pta_govern::memtrack::CountingAlloc = pta_govern::memtrack::CountingAlloc;

/// Set-up runs this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// What one run was asked to do.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Opts {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Every end-to-end metric an untraced run prints, with its unit. Each
/// workload reads them off its own operation: an analysis on
/// cold-analyze, an apply on edit-stream, a query on serve-mixed.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// Every per-layer metric a traced run prints, with its unit. A layer a
/// workload does not go through did no work there and reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit| all.push((name, unit));
    for layer in ["read", "lex", "parse", "lower", "drop"] {
        add(format!("lang.{layer}_ms"), "ms");
    }
    add("lang.tokens".into(), "count");
    add("lang.mb_per_s".into(), "MB/s");
    add("lang.peak_heap_mb".into(), "MB");
    add("core.peak_heap_mb".into(), "MB");
    for tag in cold::POLICY_TAGS {
        add(format!("core.solve_ms.{tag}"), "ms");
        add(format!("core.outside_solve_ms.{tag}"), "ms");
        add(format!("core.unattributed_ms.{tag}"), "ms");
        for rule in cold::RULES {
            add(format!("core.rule.{rule}_ms.{tag}"), "ms");
        }
        for count in [
            "steps",
            "vpt_inserted",
            "batches",
            "peak_worklist",
            "sets_shared",
        ] {
            add(format!("core.{count}.{tag}"), "count");
        }
        add(format!("core.dedup_hit_rate.{tag}"), "ratio");
        add(format!("clients.precision_ms.{tag}"), "ms");
    }
    add("incr.incremental_ms_p50".into(), "ms");
    add("incr.fallback_ms_p50".into(), "ms");
    add("incr.incremental_share".into(), "ratio");
    for reason in edit::REASONS.iter().chain(&["other"]) {
        add(
            format!("incr.fallback.{}", reason.replace(' ', "_")),
            "count",
        );
    }
    add("incr.retraction_share".into(), "ratio");
    add("incr.cone_keys".into(), "count");
    add("incr.maintained_tuples".into(), "count");
    add("serve.answer_us_p50".into(), "us");
    add("serve.transport_ms_p50".into(), "ms");
    add("serve.transport_ms_p99".into(), "ms");
    add("serve.response_bytes_mean".into(), "bytes");
    add("serve.update_p50_ms".into(), "ms");
    add("serve.update_apply_ms".into(), "ms");
    add("serve.shed".into(), "count");
    add("serve.errors".into(), "count");
    add("serve.deadline_miss".into(), "count");
    add("obs.trace_overhead_pct".into(), "%");
    add("workload.gen_s".into(), "s");
    all
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64)>,
    notes: Vec<String>,
}

impl Report {
    /// Records a metric of [`END_TO_END`] or [`per_layer`].
    pub fn metric(&mut self, name: &str, value: f64) {
        debug_assert!(!self.metrics.iter().any(|(n, _)| n == name), "{name}");
        self.metrics.push((name.to_owned(), value));
    }

    /// A human-readable line printed before the result, e.g. a timing
    /// with its sample count.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one failed operation and says why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.iter().filter(|n| n.starts_with("FAIL")).count() < 20 {
            self.notes.push(format!("FAIL {why}"));
        }
    }

    /// The result line: every metric of the run's list, in list order.
    fn to_json(&self, traced: bool) -> String {
        let list: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
        };
        for (name, _) in &self.metrics {
            assert!(
                list.iter().any(|(n, _)| n == name),
                "unlisted metric {name}"
            );
        }
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in list.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |&(_, v)| v);
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of repeated set-ups, in seconds.
pub fn setup_median(times: &[Duration]) -> f64 {
    stats::median(&times.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// Heap high-water mark since the last reset, in MB.
pub fn peak_heap_mb() -> f64 {
    pta_govern::memtrack::peak_bytes() as f64 / 1e6
}

/// Scratch space for inputs and span logs, inside the benchmark's own
/// directory (ignored by git).
pub fn work_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work");
    std::fs::create_dir_all(&dir).expect("the benchmark directory is writable");
    dir
}

/// Writes the traced run's span log beside the inputs.
pub fn write_spans(workload: &str, seed: u64, spans: &spans::Spans) -> PathBuf {
    let path = work_dir().join(format!("spans-{workload}-{seed}.json"));
    std::fs::write(&path, spans.to_json()).expect("the work directory is writable");
    path
}

const USAGE: &str = "usage: perfbench --workload cold-analyze|edit-stream|serve-mixed \
--seed N --seconds S --trace 0|1\n       perfbench record";

fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("record") {
        return cold::record();
    }
    let (workload, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let report = match workload.as_str() {
        "cold-analyze" => cold::run(&opts),
        "edit-stream" => edit::run(&opts),
        "serve-mixed" => serve::run(&opts),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for note in &report.notes {
        println!("{note}");
    }
    println!(
        "{workload} seed {} trace {}: {} ops, {} failed, {:.1} s wall",
        opts.seed,
        u8::from(opts.trace),
        report.attempted,
        report.failed,
        started.elapsed().as_secs_f64()
    );
    println!("{}", report.to_json(opts.trace));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
