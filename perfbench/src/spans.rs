//! The traced run's span recorder.
//!
//! The benchmark records one span around each call it makes into a layer
//! (name, start, end, parent span, op id), keeps them in memory, and
//! writes them out once the run ends. Spans the solver records into a
//! `pta_obs::Trace` (`solve` and the per-rule spans) are imported under
//! the benchmark span whose interval contains them. Per-layer times are
//! self times: a span's duration minus the durations of its children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use pta_obs::{Phase, Trace};

#[derive(Clone)]
struct Span {
    name: String,
    /// What the span belongs to beyond its op, e.g. the policy a
    /// `solve` ran; empty when the name says it all.
    tag: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Span durations in milliseconds, listed per `(name, tag)`.
pub type ByLayer = BTreeMap<(String, &'static str), Vec<f64>>;

/// The median of one layer's samples; 0 when it recorded none.
pub fn median_of(by_layer: &ByLayer, name: &str, tag: &'static str) -> f64 {
    by_layer
        .get(&(name.to_owned(), tag))
        .map_or(0.0, |v| crate::stats::median(v))
}

/// An in-memory span log. A disabled log records nothing, so the
/// untraced run pays one branch per call.
pub struct Spans {
    enabled: bool,
    /// Tag given to spans recorded from now on.
    pub tag: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            tag: "",
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty log on the same clock, for another thread; merge it
    /// back with [`Spans::absorb`].
    pub fn fork(&self) -> Spans {
        Spans {
            enabled: self.enabled,
            tag: self.tag,
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Appends the spans of a [`Spans::fork`].
    pub fn absorb(&mut self, other: &Spans) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            ..s.clone()
        }));
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for op `op`, nested in the innermost
    /// open span; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &str, op: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            tag: self.tag,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the span [`Spans::begin`] returned, which must be the
    /// innermost open one.
    pub fn end(&mut self, idx: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Opens a `pta_obs` trace whose timestamps [`Spans::import`] can map
    /// onto this log, or a disabled one when this log is disabled.
    pub fn solver_trace(&self) -> (Trace, u64) {
        if self.enabled {
            let trace = Trace::enabled();
            (trace, self.now_ns())
        } else {
            (Trace::disabled(), 0)
        }
    }

    /// Imports the complete spans of a flushed `trace` opened at
    /// `base_ns`, each under the innermost recorded span containing it
    /// and in that span's op. Spans outside every recorded span, such as
    /// a set-up solve, are left out.
    pub fn import(&mut self, trace: &Trace, base_ns: u64) {
        let mut events: Vec<(u64, u64, String)> = trace
            .drain()
            .into_iter()
            .filter_map(|e| match e.phase {
                Phase::Complete { dur_ns } => {
                    Some((base_ns + e.ts_ns, base_ns + e.ts_ns + dur_ns, e.name))
                }
                _ => None,
            })
            .collect();
        // Outer spans first, so a child finds its imported parent.
        events.sort_by_key(|&(start, end, _)| (start, std::cmp::Reverse(end)));
        for (start_ns, end_ns, name) in events {
            let Some(parent) = self.innermost_containing(start_ns, end_ns) else {
                continue;
            };
            self.spans.push(Span {
                name,
                tag: self.tag,
                start_ns,
                end_ns,
                parent: Some(parent),
                op: self.spans[parent].op,
            });
        }
    }

    fn innermost_containing(&self, start: u64, end: u64) -> Option<usize> {
        self.spans
            .iter()
            .enumerate()
            .rev()
            .filter(|(_, s)| s.start_ns <= start && end <= s.end_ns)
            .max_by_key(|(_, s)| s.start_ns)
            .map(|(i, _)| i)
    }

    /// Self time of every span, in nanoseconds.
    fn self_ns(&self) -> Vec<u64> {
        let mut child: Vec<u64> = vec![0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Self time in milliseconds of every span, summed per
    /// `(name, tag, op)` and listed per `(name, tag)`: one sample per op.
    pub fn self_ms(&self) -> ByLayer {
        let mut per_op: BTreeMap<(String, &'static str, u64), u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *per_op.entry((s.name.clone(), s.tag, s.op)).or_default() += ns;
        }
        let mut out = ByLayer::new();
        for ((name, tag, _), ns) in per_op {
            out.entry((name, tag)).or_default().push(ns as f64 / 1e6);
        }
        out
    }

    /// Total duration in milliseconds of every span, listed per
    /// `(name, tag)`.
    pub fn total_ms(&self) -> ByLayer {
        let mut out = ByLayer::new();
        for s in &self.spans {
            out.entry((s.name.clone(), s.tag))
                .or_default()
                .push((s.end_ns - s.start_ns) as f64 / 1e6);
        }
        out
    }

    /// The log as JSON: one object per span, parents by index.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.tag, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(true);
        spans.spans.push(Span {
            name: "outer".into(),
            tag: "",
            start_ns: 0,
            end_ns: 100,
            parent: None,
            op: 1,
        });
        spans.spans.push(Span {
            name: "inner".into(),
            tag: "",
            start_ns: 10,
            end_ns: 40,
            parent: Some(0),
            op: 1,
        });
        assert_eq!(spans.self_ns(), vec![70, 30]);
        assert_eq!(spans.innermost_containing(20, 30), Some(1));
        assert_eq!(spans.innermost_containing(50, 60), Some(0));
        let by_op = spans.self_ms();
        assert_eq!(by_op[&("outer".to_string(), "")], vec![70.0 / 1e6]);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut spans = Spans::new(false);
        let id = spans.begin("x", 0);
        spans.end(id);
        assert!(spans.spans.is_empty());
    }
}
