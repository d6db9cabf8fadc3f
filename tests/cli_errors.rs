//! The driver's error contract: every usage, I/O, and frontend problem is
//! a *structured* diagnostic (E030/E031/E007/E008) on stderr with exit
//! code 2 — never a panic, never a free-form message. The three cases
//! here are the top user-controlled inputs that previously bypassed the
//! diagnostic model (including a `Duration::from_secs_f64` overflow panic
//! on absurd `--timeout` values).

use std::process::{Command, Output};

fn pta(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pta"))
        .args(args)
        .output()
        .expect("spawn pta")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_flags_are_e030_usage_errors() {
    for args in [
        &["analyze", "x.jir", "--frobnicate"] as &[&str],
        &["check", "x.jir", "--frobnicate"],
        &["workload", "antlr", "--frobnicate"],
        &["serve", "--frobnicate"],
    ] {
        let out = pta(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains("error[E030]"), "{args:?}: {err}");
        assert!(err.contains("unknown flag --frobnicate"), "{err}");
    }
}

#[test]
fn absurd_timeout_values_are_rejected_not_panicked() {
    // 1e300 seconds overflows Duration::from_secs_f64; before the E030
    // audit this aborted with a panic backtrace.
    for sub in ["analyze", "check"] {
        let out = pta(&[sub, "x.jir", "--timeout", "1e300"]);
        assert_eq!(out.status.code(), Some(2), "{sub}");
        let err = stderr(&out);
        assert!(!err.contains("panicked"), "{sub}: {err}");
        assert!(err.contains("error[E030]"), "{sub}: {err}");
    }
    // Same audit: non-finite workload scales.
    let out = pta(&["workload", "antlr", "--scale", "inf"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("error[E030]"));
}

#[test]
fn unreadable_inputs_are_e031_io_errors() {
    for args in [
        &["analyze", "/nonexistent/prog.jir"] as &[&str],
        &["lint", "/nonexistent/prog.jir"],
        &["check", "/nonexistent/prog.jir"],
    ] {
        let out = pta(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("error[E031]"), "{args:?}");
    }
}

#[test]
fn frontend_errors_reuse_the_lint_codes_with_the_path_as_context() {
    let path = std::env::temp_dir().join(format!("pta-cli-errors-{}.jir", std::process::id()));
    std::fs::write(&path, "class {").unwrap();
    let out = pta(&["analyze", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("error[E007]"), "{err}");
    assert!(err.contains(path.to_str().unwrap()), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn non_ascii_input_names_the_whole_character() {
    let path = std::env::temp_dir().join(format!("pta-cli-non-ascii-{}.jir", std::process::id()));
    std::fs::write(&path, "x = new Object; é = x;").unwrap();
    let out = pta(&["lint", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let report = format!("{}{}", stderr(&out), String::from_utf8_lossy(&out.stdout));
    assert!(report.contains("error[E007]"), "{report}");
    assert!(
        report.contains("unexpected character 'é' (at 1:17)"),
        "{report}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn e030_and_e031_are_documented_codes() {
    for code in ["E030", "E031"] {
        let out = pta(&["lint", "--explain", code]);
        assert_eq!(out.status.code(), Some(0), "{code}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains(code),
            "{code}"
        );
    }
}
