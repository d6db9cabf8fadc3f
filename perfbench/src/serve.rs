//! `serve-mixed`: two closed-loop clients against the resident daemon
//! over TCP loopback.
//!
//! Set-up launches `pta_serve` in process (TCP only, OS-assigned port,
//! the default two workers) with `luindex:8` resident under `insens` and
//! `2obj+H`, and ends when `health` answers. Each client owns one
//! connection and sends a seeded mix of `points_to`, `devirt`,
//! `cast_check` and `findings` over both policies, plus about 2%
//! additive `update` requests, waiting for each reply: IDEs and CI tools
//! wait for their answers, so the loop is closed. `insens` `points_to`
//! answers run to thousands of labels, `2obj+H` `devirt` answers to a
//! few bytes, and updates take the write lock beside the reads.
//!
//! Every reply is compared byte for byte with `pta_serve::answer` on an
//! oracle `Resident` that replays the same updates; a query that
//! overlapped an update may match any version it could have seen.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pta_govern::memtrack;
use pta_ir::rng::Rng;
use pta_ir::{Instr, Program};
use pta_serve::{
    answer, launch, parse_request, Op, ProgramSource, ReqCtx, Resident, ServeConfig, ServerHandle,
    SolveConfig,
};

use crate::digest::text_digest;
use crate::spans::Spans;
use crate::stats::{mean, median, quantile};
use crate::{Opts, Report};

const PROGRAM: &str = "luindex:8";
const POLICIES: [&str; 2] = ["insens", "2obj+H"];
/// Client connections, one thread each.
const CLIENTS: usize = 2;
const UPDATE_SHARE: f64 = 0.02;
/// A run sends at least this many queries, so even p99 has ten beyond it.
const MIN_QUERIES: usize = 1000;
/// A reply slower than this counts as a failure.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

fn config() -> ServeConfig {
    ServeConfig {
        sources: vec![ProgramSource::parse_workload(PROGRAM).expect("a valid workload spec")],
        policies: POLICIES.iter().map(|p| (*p).to_owned()).collect(),
        port: Some(0),
        use_stdin: false,
        ..ServeConfig::default()
    }
}

/// Sends one line on `conn` and reads the reply line.
fn round_trip(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> std::io::Result<String> {
    writer.write_all(format!("{line}\n").as_bytes())?;
    let mut reply = String::new();
    if reader.read_line(&mut reply)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    reply.truncate(reply.trim_end().len());
    Ok(reply)
}

fn connect(port: u16) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(("127.0.0.1", port))?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// One set-up: launch the daemon and wait until `health` answers.
fn set_up() -> Result<(ServerHandle, u16, Duration), String> {
    let t0 = Instant::now();
    let handle = launch(config())?;
    let port = handle.port.ok_or("the daemon bound no port")?;
    let (mut w, mut r) = connect(port).map_err(|e| format!("connect: {e}"))?;
    let reply = round_trip(&mut w, &mut r, "{\"id\":0,\"op\":\"health\"}")
        .map_err(|e| format!("health: {e}"))?;
    if !reply.contains("\"ok\":true") {
        return Err(format!("health answered {reply}"));
    }
    Ok((handle, port, t0.elapsed()))
}

fn shut_down(handle: ServerHandle) {
    handle.request_shutdown();
    let _ = handle.wait();
}

/// Valid request targets, drawn from the program as launched.
struct Targets {
    var_names: Vec<String>,
    invos: u64,
    casts: Vec<(String, usize)>,
    /// Methods with at least two locals, with those locals' names.
    methods: Vec<(String, Vec<String>)>,
    classes: Vec<String>,
}

impl Targets {
    fn of(program: &Program) -> Targets {
        let mut var_names: Vec<String> = Vec::new();
        for v in program.vars() {
            let name = program.var_name(v);
            if !var_names.iter().any(|n| n == name) {
                var_names.push(name.to_owned());
            }
        }
        let mut casts = Vec::new();
        let mut locals: Vec<Vec<String>> = vec![Vec::new(); program.method_count()];
        for v in program.vars() {
            locals[program.var_method(v).index()].push(program.var_name(v).to_owned());
        }
        let mut methods = Vec::new();
        for m in program.methods() {
            for (idx, instr) in program.instrs(m).iter().enumerate() {
                if matches!(instr, Instr::Cast { .. }) {
                    casts.push((program.method_qualified_name(m), idx));
                }
            }
            if locals[m.index()].len() >= 2 {
                methods.push((program.method_qualified_name(m), locals[m.index()].clone()));
            }
        }
        let mut classes: Vec<String> = program
            .heaps()
            .map(|h| program.type_name(program.heap_type(h)).to_owned())
            .collect();
        classes.sort();
        classes.dedup();
        Targets {
            var_names,
            invos: program.invo_count() as u64,
            casts,
            methods,
            classes,
        }
    }
}

/// One client's seeded request stream.
struct Planner<'t> {
    rng: Rng,
    client: usize,
    next: u64,
    targets: &'t Targets,
}

impl Planner<'_> {
    fn new(targets: &Targets, seed: u64, client: usize) -> Planner<'_> {
        Planner {
            rng: Rng::seed_from_u64(seed ^ (0x5e4e_0000 + client as u64)),
            client,
            next: 0,
            targets,
        }
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.rng.gen_range(0..items.len() as u64) as usize]
    }

    /// The next request line and whether it is an update.
    fn next(&mut self) -> (String, bool) {
        self.next += 1;
        let id = (self.next - 1) * CLIENTS as u64 + self.client as u64 + 1;
        let t = self.targets;
        if self.rng.gen_bool(UPDATE_SHARE) {
            let (method, locals) = self.pick(&t.methods).clone();
            let to = self.pick(&locals).clone();
            let edit = if self.rng.gen_bool(0.5) {
                let class = self.pick(&t.classes).clone();
                format!(
                    "{{\"edit\":\"alloc\",\"method\":\"{method}\",\"to\":\"{to}\",\"class\":\"{class}\",\"label\":\"bench_{id}\"}}"
                )
            } else {
                let from = self.pick(&locals).clone();
                format!("{{\"edit\":\"move\",\"method\":\"{method}\",\"to\":\"{to}\",\"from\":\"{from}\"}}")
            };
            return (
                format!("{{\"id\":{id},\"op\":\"update\",\"edits\":[{edit}]}}"),
                true,
            );
        }
        let policy = *self.pick(&POLICIES);
        let body = match self.rng.gen_range(0..4u64) {
            0 => format!("\"points_to\",\"var\":\"{}\"", self.pick(&t.var_names)),
            1 => format!("\"devirt\",\"invo\":{}", self.rng.gen_range(0..t.invos)),
            2 => {
                let (m, idx) = self.pick(&t.casts).clone();
                format!("\"cast_check\",\"method\":\"{m}\",\"instr\":{idx}")
            }
            _ => format!("\"findings\",\"var\":\"{}\"", self.pick(&t.var_names)),
        };
        (
            format!("{{\"id\":{id},\"op\":{body},\"policy\":\"{policy}\"}}"),
            false,
        )
    }
}

/// One request as the client saw it.
struct Sent {
    line: String,
    update: bool,
    sent: Instant,
    done: Instant,
    reply: Result<String, String>,
}

/// A client: send, wait for the reply, repeat until the run is over.
fn client(
    port: u16,
    mut planner: Planner<'_>,
    stop: &dyn Fn() -> bool,
    queries: &AtomicUsize,
    spans: &mut Spans,
) -> Vec<Sent> {
    let mut out = Vec::new();
    let (mut w, mut r) = match connect(port) {
        Ok(c) => c,
        Err(e) => {
            let now = Instant::now();
            out.push(Sent {
                line: String::new(),
                update: false,
                sent: now,
                done: now,
                reply: Err(format!("connect: {e}")),
            });
            return out;
        }
    };
    while !stop() {
        let (line, update) = planner.next();
        // Every other request is traced, for the tracing overhead.
        let traced = planner.next.is_multiple_of(2);
        let s = if traced {
            spans.begin("request", planner.next)
        } else {
            0
        };
        let sent = Instant::now();
        let reply = round_trip(&mut w, &mut r, &line).map_err(|e| e.to_string());
        let done = Instant::now();
        if traced {
            spans.end(s);
        }
        if !update {
            queries.fetch_add(1, Ordering::Relaxed);
        }
        let failed = reply.is_err();
        out.push(Sent {
            line,
            update,
            sent,
            done,
            reply,
        });
        if failed {
            break;
        }
    }
    out
}

/// `"solve_ms":N` carries a time, so update replies are compared with
/// its digits removed.
fn mask_solve_ms(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find("\"solve_ms\":") {
        let after = at + "\"solve_ms\":".len();
        out.push_str(&rest[..after]);
        rest = rest[after..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// The update reply the daemon renders, from the oracle's outcome.
fn update_line(id: u64, outcome: &pta_serve::resident::UpdateOutcome) -> String {
    let mut out = format!(
        "{{\"id\":{id},\"ok\":true,\"op\":\"update\",\"program\":\"{}\",\"version\":{},\"policies\":[",
        outcome.program, outcome.version
    );
    for (i, (policy, incremental, solve_ms, fallback)) in outcome.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"policy\":\"{}\",\"incremental\":{incremental},\"solve_ms\":{solve_ms}",
            policy.name()
        ));
        if let Some(reason) = fallback {
            out.push_str(&format!(",\"fallback\":\"{reason}\""));
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn reply_version(reply: &str) -> Option<u64> {
    let at = reply.find("\"version\":")? + "\"version\":".len();
    let digits: String = reply[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The sum of every series of `name` in a Prometheus exposition.
fn prom_sum(prom: &str, name: &str) -> f64 {
    prom.lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// What checking the replies found, per query.
struct Checked {
    /// Oracle `answer` time (µs) of each matched query.
    answer_us: Vec<f64>,
    /// Client latency minus answer time (ms) of each matched query.
    transport_ms: Vec<f64>,
    response_bytes: Vec<f64>,
    /// Oracle `Resident::update` time (ms) of each update.
    update_apply_ms: Vec<f64>,
}

/// Replays the run on the oracle: updates in the order the daemon
/// applied them (their reply versions), each query checked against
/// every version it could have seen.
fn check(oracle: &mut Resident, sent: &[&Sent], report: &mut Report, spans: &mut Spans) -> Checked {
    let mut checked = Checked {
        answer_us: Vec::new(),
        transport_ms: Vec::new(),
        response_bytes: Vec::new(),
        update_apply_ms: Vec::new(),
    };
    let mut updates: Vec<(u64, &Sent)> = Vec::new();
    for s in sent {
        match &s.reply {
            Err(e) => report.fail(format!("{}: {e}", s.line)),
            Ok(r) if !r.contains("\"ok\":true") => report.fail(format!("{}: {r}", s.line)),
            Ok(r) if s.update => match reply_version(r) {
                Some(v) => updates.push((v, s)),
                None => report.fail(format!("update reply without a version: {r}")),
            },
            Ok(_) => {}
        }
    }
    updates.sort_by_key(|&(v, _)| v);
    if updates
        .iter()
        .enumerate()
        .any(|(i, &(v, _))| v != i as u64 + 2)
    {
        report.fail("update versions are not 2, 3, ... in order".into());
        return checked;
    }
    // The versions a query may have seen: at least that of the last
    // update acknowledged before it was sent; at most one per update
    // sent before its reply arrived, since the daemon applies updates
    // one at a time in version order.
    let queries: Vec<(&Sent, u64, u64)> = sent
        .iter()
        .filter(|s| !s.update && s.reply.as_ref().is_ok_and(|r| r.contains("\"ok\":true")))
        .map(|s| {
            let lo = updates
                .iter()
                .filter(|(_, u)| u.done <= s.sent)
                .map(|&(v, _)| v)
                .max()
                .unwrap_or(1);
            let hi = updates.iter().filter(|(_, u)| u.sent < s.done).count() as u64 + 1;
            (*s, lo, hi)
        })
        .collect();
    let mut matched = vec![false; queries.len()];
    let solve = SolveConfig::default();
    let last = updates.len() as u64 + 1;
    for version in 1..=last {
        for (i, &(s, lo, hi)) in queries.iter().enumerate() {
            if matched[i] || version < lo || version > hi {
                continue;
            }
            let req = parse_request(&s.line).expect("planned lines parse");
            let op = spans.begin("answer", req.id);
            let t0 = Instant::now();
            let expected = answer(&req, oracle, &mut ReqCtx::unlimited());
            let us = t0.elapsed().as_secs_f64() * 1e6;
            spans.end(op);
            if s.reply.as_deref() == Ok(expected.as_str()) {
                matched[i] = true;
                checked.answer_us.push(us);
                let latency_ms = (s.done - s.sent).as_secs_f64() * 1e3;
                checked.transport_ms.push(latency_ms - us / 1e3);
                checked.response_bytes.push(expected.len() as f64 + 1.0);
            }
        }
        if version == last {
            break;
        }
        let (_, u) = updates[version as usize - 1];
        let req = parse_request(&u.line).expect("planned lines parse");
        let Op::Update { edits } = &req.op else {
            unreachable!("updates are planned as update ops")
        };
        let op = spans.begin("update", req.id);
        let t0 = Instant::now();
        let outcome = oracle.update(req.program.as_deref(), edits, &solve);
        checked
            .update_apply_ms
            .push(t0.elapsed().as_secs_f64() * 1e3);
        spans.end(op);
        match outcome {
            Ok(outcome) => {
                let want = mask_solve_ms(&update_line(req.id, &outcome));
                if u.reply.as_deref().map(mask_solve_ms) != Ok(want.clone()) {
                    report.fail(format!("update reply differs from the oracle's {want}"));
                }
            }
            Err(e) => report.fail(format!("oracle rejected {}: {e}", u.line)),
        }
    }
    for (i, &(s, lo, hi)) in queries.iter().enumerate() {
        if !matched[i] {
            report.fail(format!(
                "{}: reply matches the oracle at no version in {lo}..={hi}",
                s.line
            ));
        }
    }
    checked
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..crate::SETUP_REPEATS {
        if let Some((handle, _)) = daemon.take() {
            shut_down(handle);
        }
        match set_up() {
            Ok((handle, port, took)) => {
                setups.push(took);
                daemon = Some((handle, port));
            }
            Err(e) => {
                report.attempted = 1;
                report.fail(format!("set-up: {e}"));
                return report;
            }
        }
    }
    let (handle, port) = daemon.expect("set-up ran");

    let t_gen = Instant::now();
    let program = pta_workload::dacapo_workload("luindex", 8.0);
    let gen_s = t_gen.elapsed().as_secs_f64();
    let targets = Targets::of(&program);
    drop(program);
    let inputs: String = (0..CLIENTS)
        .flat_map(|c| {
            let mut p = Planner::new(&targets, opts.seed, c);
            (0..64).map(move |_| p.next().0)
        })
        .collect();
    report.note(format!("inputs {:016x}", text_digest(&inputs)));

    let mut spans = Spans::new(opts.trace);
    let queries = AtomicUsize::new(0);
    memtrack::reset_peak();
    let t0 = Instant::now();
    let budget = opts.budget();
    let stop = || t0.elapsed() >= budget && queries.load(Ordering::Relaxed) >= MIN_QUERIES;
    let logs: Vec<(Vec<Sent>, Spans)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let planner = Planner::new(&targets, opts.seed, c);
                let mut log = spans.fork();
                let (stop, queries) = (&stop, &queries);
                scope.spawn(move || (client(port, planner, stop, queries, &mut log), log))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client threads do not panic"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let peak = crate::peak_heap_mb();
    let prom = handle.metrics().to_prometheus();
    shut_down(handle);

    let mut sent: Vec<&Sent> = Vec::new();
    for (log, fork) in &logs {
        sent.extend(log);
        spans.absorb(fork);
    }
    report.attempted = sent.len() as u64;
    let latency = |update: bool| -> Vec<f64> {
        sent.iter()
            .filter(|s| s.update == update && s.reply.is_ok())
            .map(|s| (s.done - s.sent).as_secs_f64() * 1e3)
            .collect()
    };
    let (query_ms, update_ms) = (latency(false), latency(true));

    let mut oracle = match Resident::build(
        &config().sources,
        &config().policies,
        &SolveConfig::default(),
    ) {
        Ok(r) => r,
        Err(e) => {
            report.fail(format!("oracle: {e}"));
            return report;
        }
    };
    let checked = check(&mut oracle, &sent, &mut report, &mut spans);

    let setup = crate::setup_median(&setups);
    report.note(format!(
        "setup_s {setup:.3} (median of {} set-ups)",
        setups.len()
    ));
    // The tail is p95, not p99: about 1% of queries wait behind an
    // update's write lock, so p99 sits on the knee between that band and
    // the rest and jumps from run to run.
    let (p50, p95, p99) = (
        median(&query_ms),
        quantile(&query_ms, 0.95),
        quantile(&query_ms, 0.99),
    );
    report.note(format!(
        "query: p50 {p50:.2} ms, p95 {p95:.2} ms, p99 {p99:.2} ms over {} queries; {} requests in {wall:.1} s from {CLIENTS} clients",
        query_ms.len(),
        sent.len()
    ));
    let mut slowest = query_ms.clone();
    slowest.sort_by(|a, b| b.total_cmp(a));
    slowest.truncate(30);
    report.note(format!("slowest queries, ms: {slowest:.1?}"));
    if !opts.trace {
        report.metric("setup_s", setup);
        report.metric("op_p50_ms", p50);
        report.metric("op_tail_ms", p95);
        report.metric("ops_per_s", sent.len() as f64 / wall);
        report.metric("peak_heap_mb", peak);
        return report;
    }

    let path = crate::write_spans("serve-mixed", opts.seed, &spans);
    report.note(format!("spans written to {}", path.display()));
    report.note(format!(
        "answer and transport over {} matched queries; {} updates",
        checked.answer_us.len(),
        update_ms.len()
    ));
    report.metric("serve.answer_us_p50", median(&checked.answer_us));
    report.metric("serve.transport_ms_p50", median(&checked.transport_ms));
    report.metric(
        "serve.transport_ms_p99",
        quantile(&checked.transport_ms, 0.99),
    );
    report.metric("serve.response_bytes_mean", mean(&checked.response_bytes));
    report.metric("serve.update_p50_ms", median(&update_ms));
    report.metric("serve.update_apply_ms", median(&checked.update_apply_ms));
    report.metric("serve.shed", prom_sum(&prom, "pta_requests_shed_total"));
    report.metric("serve.errors", prom_sum(&prom, "pta_request_errors_total"));
    report.metric(
        "serve.deadline_miss",
        prom_sum(&prom, "pta_deadline_miss_total"),
    );
    let by_trace = |traced: bool| -> Vec<f64> {
        logs.iter()
            .flat_map(|(log, _)| log.iter().enumerate())
            .filter(|(i, s)| !s.update && s.reply.is_ok() && (i % 2 == 1) == traced)
            .map(|(_, s)| (s.done - s.sent).as_secs_f64() * 1e3)
            .collect()
    };
    let (traced_ms, untraced_ms) = (by_trace(true), by_trace(false));
    report.metric(
        "obs.trace_overhead_pct",
        (median(&traced_ms) / median(&untraced_ms) - 1.0) * 100.0,
    );
    report.metric("workload.gen_s", gen_s);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_every_solve_time() {
        assert_eq!(
            mask_solve_ms(r#"[{"solve_ms":12,"x":1},{"solve_ms":0}]"#),
            r#"[{"solve_ms":,"x":1},{"solve_ms":}]"#
        );
    }

    #[test]
    fn sums_labelled_series() {
        let prom = "# TYPE a counter\na{code=\"x\"} 2\na{code=\"y\"} 3\nab 7\n";
        assert_eq!(prom_sum(prom, "a"), 5.0);
        assert_eq!(prom_sum(prom, "ab"), 7.0);
    }
}
