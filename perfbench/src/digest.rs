//! A canonical digest of an analysis result, for comparing the solver
//! under test with answers recorded from the Datalog back end.

use pta_clients::ExperimentMetrics;
use pta_core::PointsToResult;
use pta_ir::Program;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// A tagged, sorted list of indices.
    fn list(&mut self, tag: u8, mut items: Vec<u64>) {
        items.sort_unstable();
        self.bytes(&[tag]);
        self.u64(items.len() as u64);
        for x in items {
            self.u64(x);
        }
    }
}

/// FNV-1a of `text`, for showing which inputs a run generated.
pub fn text_digest(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(text.as_bytes());
    h.0
}

/// Folds `result` (a result over `program`) into one number: every
/// per-variable points-to set, call-target set, the reachable set, the
/// uncaught exceptions and the context-sensitive counts, in the manner
/// of the CLI's result fingerprint.
pub fn digest(program: &Program, result: &PointsToResult) -> u64 {
    let mut h = Fnv::new();
    for v in program.vars() {
        h.list(
            b'v',
            result
                .points_to(v)
                .iter()
                .map(|x| x.index() as u64)
                .collect(),
        );
    }
    for i in program.invos() {
        h.list(
            b'i',
            result
                .call_targets(i)
                .iter()
                .map(|m| m.index() as u64)
                .collect(),
        );
    }
    h.list(
        b'r',
        result
            .reachable_methods()
            .map(|m| m.index() as u64)
            .collect(),
    );
    h.list(
        b'u',
        result
            .uncaught_exceptions()
            .iter()
            .map(|x| x.index() as u64)
            .collect(),
    );
    h.u64(result.ctx_var_points_to_count());
    h.u64(result.ctx_call_graph_edge_count());
    h.u64(result.ctx_reachable_count());
    h.0
}

/// What one policy's result must match: its [`digest`] plus three
/// client numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub digest: u64,
    pub may_fail_casts: usize,
    pub call_graph_edges: usize,
    pub reachable_methods: usize,
}

impl Expected {
    /// `result`'s digest (a result over `program`) with the client
    /// metrics `m` computed from it.
    pub fn of(program: &Program, result: &PointsToResult, m: &ExperimentMetrics) -> Expected {
        Expected {
            digest: digest(program, result),
            may_fail_casts: m.may_fail_casts,
            call_graph_edges: m.call_graph_edges,
            reachable_methods: m.reachable_methods,
        }
    }

    /// One line of `expected.txt`: `POLICY DIGEST CASTS EDGES REACHABLE`.
    pub fn render(&self, policy: &str) -> String {
        format!(
            "{policy} {:016x} {} {} {}",
            self.digest, self.may_fail_casts, self.call_graph_edges, self.reachable_methods
        )
    }

    /// Finds `policy`'s line in `text` (the format of [`Expected::render`]).
    pub fn parse(text: &str, policy: &str) -> Option<Expected> {
        let line = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(policy))?;
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 5 {
            return None;
        }
        Some(Expected {
            digest: u64::from_str_radix(f[1], 16).ok()?,
            may_fail_casts: f[2].parse().ok()?,
            call_graph_edges: f[3].parse().ok()?,
            reachable_methods: f[4].parse().ok()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_round_trips() {
        let e = Expected {
            digest: 0xdead_beef,
            may_fail_casts: 3,
            call_graph_edges: 40,
            reachable_methods: 12,
        };
        let text = format!("# comment\n{}\n", e.render("2obj+H"));
        assert_eq!(Expected::parse(&text, "2obj+H"), Some(e));
        assert_eq!(Expected::parse(&text, "S-2obj+H"), None);
    }
}
