//! The benchmark's own checks: exact counts repeat for one seed, a
//! second seed changes the generated inputs, and every run prints
//! exactly the metrics `BENCHMARK.json` lists, with its units.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

/// The repository root, where the benchmark runs.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

struct Run {
    notes: Vec<String>,
    /// `(name, value as printed, unit)`, in printed order.
    metrics: Vec<(String, String, String)>,
}

impl Run {
    fn value(&self, name: &str) -> &str {
        &self
            .metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .1
    }

    fn inputs(&self) -> &str {
        self.notes
            .iter()
            .find(|n| n.starts_with("inputs "))
            .expect("the run prints an input digest")
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .current_dir(ROOT)
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let mut notes: Vec<String> = stdout.lines().map(str::to_owned).collect();
    let last = notes.pop().expect("a result line");
    assert!(last.starts_with("{\"correct\":true,"), "{last}");
    let run = Run {
        notes,
        metrics: parse_metrics(&last),
    };
    assert_eq!(
        run.metrics
            .iter()
            .map(|(n, _, u)| (n.clone(), u.clone()))
            .collect::<Vec<_>>(),
        listed(if trace { "per_layer" } else { "end_to_end" }),
        "{workload} prints other metrics than BENCHMARK.json lists"
    );
    run
}

/// The `"metrics"` object of a result line, as printed.
fn parse_metrics(line: &str) -> Vec<(String, String, String)> {
    let body = &line[line.find("\"metrics\":{").expect("a metrics object") + 11..];
    body.split("},\"")
        .map(|entry| {
            let entry = entry.trim_start_matches('"');
            let (name, rest) = entry.split_once("\":{\"value\":").expect("name and value");
            let (value, unit) = rest.split_once(",\"unit\":\"").expect("value and unit");
            let unit = unit.split('"').next().expect("a unit");
            (name.to_owned(), value.to_owned(), unit.to_owned())
        })
        .collect()
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(format!("{ROOT}/BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{list}\"")).expect("the list exists");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("the list ends")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("the field exists") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("a string value") + 1;
        rest[open..open + rest[open..].find('"').expect("a closing quote")].to_owned()
    };
    section
        .split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn cold_analyze_counts_and_peak_heap_repeat() {
    let (a, b) = (run("cold-analyze", 1, false), run("cold-analyze", 1, false));
    assert_eq!(a.value("peak_heap_mb"), b.value("peak_heap_mb"));
    let (a, b) = (run("cold-analyze", 1, true), run("cold-analyze", 1, true));
    let counts = a
        .metrics
        .iter()
        .filter(|(n, _, u)| u == "count" || n.starts_with("core.dedup_hit_rate"));
    for (name, value, _) in counts {
        assert_eq!(value, b.value(name), "{name} differs between two runs");
    }
    assert_ne!(a.value("lang.tokens"), "0.0");
    assert_ne!(a.value("core.steps.S-2objH"), "0.0");
}

#[test]
fn edit_stream_counts_repeat_and_follow_the_seed() {
    let (a, b) = (run("edit-stream", 1, true), run("edit-stream", 1, true));
    assert_eq!(a.inputs(), b.inputs());
    for (name, value, _) in a.metrics.iter().filter(|(n, _, _)| {
        n.starts_with("incr.fallback.")
            || [
                "incr.incremental_share",
                "incr.retraction_share",
                "incr.cone_keys",
                "incr.maintained_tuples",
            ]
            .contains(&n.as_str())
    }) {
        assert_eq!(value, b.value(name), "{name} differs between two runs");
    }
    assert_ne!(a.value("incr.incremental_share"), "0.0");
    assert_ne!(run("edit-stream", 2, false).inputs(), a.inputs());
}

#[test]
fn serve_mixed_inputs_follow_the_seed() {
    let a = run("serve-mixed", 1, false);
    assert_eq!(run("serve-mixed", 1, true).inputs(), a.inputs());
    assert_ne!(run("serve-mixed", 2, false).inputs(), a.inputs());
}
