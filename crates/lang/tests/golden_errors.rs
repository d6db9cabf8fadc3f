//! Golden front-end diagnostics: every distinct lex, parse, lowering and
//! validation message, one `tests/errors/NN_name.jir` input each, with
//! the exact `LangError` text it must produce in the matching `.err`.

use std::path::{Path, PathBuf};

use pta_lang::parse_program;

fn corpus() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/errors");
    let mut inputs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/errors exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "jir"))
        .collect();
    inputs.sort();
    inputs
}

#[test]
fn every_error_input_reproduces_its_golden_message() {
    let inputs = corpus();
    assert!(inputs.len() >= 60, "corpus shrank to {}", inputs.len());
    let mut diffs = Vec::new();
    for input in &inputs {
        let source = std::fs::read_to_string(input).expect("readable input");
        let want = std::fs::read_to_string(input.with_extension("err"))
            .unwrap_or_else(|e| panic!("{}: no .err file: {e}", input.display()));
        let got = match parse_program(&source) {
            Ok(_) => "(no error)\n".to_owned(),
            Err(e) => format!("{e}\n"),
        };
        if got != want {
            let name = input.file_name().unwrap().to_string_lossy();
            diffs.push(format!("{name}:\n  want {want}  got  {got}"));
        }
    }
    assert!(diffs.is_empty(), "{}", diffs.join(""));
}
