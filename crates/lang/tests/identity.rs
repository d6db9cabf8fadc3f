//! The front end's output, pinned byte for byte.
//!
//! Each input is lowered and digested (FNV-1a, 64-bit) over the printed
//! program plus every name, label and source location in ID order: the
//! printer alone does not show variable IDs, site labels or locations, so
//! equal statistics or an equal printout would not catch a renumbering.
//! The digests were recorded with the front end that predates symbol
//! interning; any change to them means the `Program` itself changed.

use pta_ir::{Program, SrcLoc};
use pta_lang::{parse_program, print_program};
use pta_workload::{dacapo_workload, generate, WorkloadConfig};

/// Corner cases the generator never writes: forward superclass
/// references (type IDs follow resolution rounds), repeated parameter
/// names, a parameter named `this`, locals named like classes, catch
/// binders, several returns, a user local named `$ret`, static fields,
/// static calls resolved up the superclass chain, and comments.
const EDGE_CASES: &str = r#"
// Declared before its superclass.
class Leaf : Mid { method get() { return this; } }
class Mid : Object {
    field mid_f;
    static field shared;
    static make(a, a) { r = new Leaf; $ret = r; return a; return $ret; }
    method set(this, v) { this.mid_f = v; }
}
class Object {}
class Err : Object {}
class Main : Object {
    static main() catch (Err e, Object o) {
        /* Mid is a class here ... */
        x = new Mid;
        y = Leaf.make(x, x);
        Mid = new Leaf;
        z = Mid.get();
        $ret = (Object) z;
        Mid.set(y, $ret);
        w = Mid.mid_f;
        Main.shared = w;
        q = Main.shared;
        throw q;
    }
}
entry Main.main;
"#;

/// `(input, digest)` as recorded.
const EXPECTED: &[(&str, u64)] = &[
    ("edge-cases", 0x78f7a7fcb72ee762),
    ("luindex@1", 0xe3709e37ab3ada70),
    ("luindex@4", 0x4f7636cbf611d8e3),
    ("antlr@1", 0x44ce0f6e09b653e7),
    ("chart@2", 0xf39ebe4d76a6c878),
    ("pmd@2", 0x861daa074530dfbc),
    ("xalan@3", 0xcd9269cf63559cea),
    ("tiny-0", 0xb258de7ba361488c),
    ("tiny-77", 0x750bf3df133f8e2c),
    ("tiny-1234", 0x97d27800cf67ace0),
    ("tiny-2718", 0x4dbebaf029b4f930),
    ("tiny-4242", 0x8f3cffe58cc525c4),
    ("tiny-6021", 0x18e6db5b19c41c14),
    ("tiny-8191", 0xc3ab2a6396740f14),
    ("tiny-9999", 0x50d34bbbebdd513b),
];

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A string and a terminator, so adjacent strings cannot run together.
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    fn loc(&mut self, loc: SrcLoc) {
        self.bytes(&loc.line.to_le_bytes());
        self.bytes(&loc.column.to_le_bytes());
    }
}

fn digest(p: &Program) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.str(&print_program(p));
    for v in p.vars() {
        h.str(p.var_name(v));
    }
    for heap in p.heaps() {
        h.str(p.heap_label(heap));
    }
    for invo in p.invos() {
        h.str(p.invo_label(invo));
    }
    for m in p.methods() {
        h.loc(p.method_loc(m));
        for i in 0..p.instrs(m).len() {
            h.loc(p.instr_loc(m, i));
        }
    }
    h.0
}

/// Every input, named, as the front end sees it.
fn inputs() -> Vec<(String, String)> {
    let mut out = vec![("edge-cases".to_owned(), EDGE_CASES.to_owned())];
    for (name, scale) in [
        ("luindex", 1.0),
        ("luindex", 4.0),
        ("antlr", 1.0),
        ("chart", 2.0),
        ("pmd", 2.0),
        ("xalan", 3.0),
    ] {
        let text = print_program(&dacapo_workload(name, scale));
        out.push((format!("{name}@{scale}"), text));
    }
    for seed in [0, 77, 1234, 2718, 4242, 6021, 8191, 9999] {
        let text = print_program(&generate(&WorkloadConfig::tiny(seed)));
        out.push((format!("tiny-{seed}"), text));
    }
    out
}

#[test]
fn lowered_programs_match_the_recorded_digests() {
    let mut got = Vec::new();
    for (name, text) in inputs() {
        let p = parse_program(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        got.push((name, digest(&p)));
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),"))
        .collect();
    let want: Vec<(String, u64)> = EXPECTED.iter().map(|&(n, d)| (n.to_owned(), d)).collect();
    assert_eq!(got, want, "digests now:\n{}", rendered.join("\n"));
}
