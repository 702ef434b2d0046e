//! Span recorder for the traced run.
//!
//! A span names one call the benchmark made into a layer's public entry
//! point: its start and end, the span it belongs to, and the operation it
//! served. Spans are kept in memory and summarized when the run ends.
//!
//! The traced run executes each operation on the client path (the root
//! span) and then replays it through the layers' own entry points; those
//! layer spans name the root (or the enclosing layer call) as parent
//! although they run after it. A span's self time is therefore its
//! duration minus the durations of the spans that name it as parent, and
//! a root's self time is the client-path time no replayed layer accounts
//! for (`trace.unattributed_us`).

use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = usize;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    /// Starts a new operation; later spans carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Runs `f` inside a span and returns its result and the span id.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, parent, start, Instant::now());
        (out, id)
    }

    /// Records a span timed by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let start_ns = start.saturating_duration_since(self.t0).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            op: self.op,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Self time of every span, in ns, grouped by span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = (s.end_ns - s.start_ns) as f64;
            out.entry(s.name)
                .or_default()
                .push(dur - child_ns[i] as f64);
        }
        out
    }

    /// Durations (not self times) of the spans called `name`, in ns.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Writes the recorded spans out as one line per span name: how many
    /// spans, over how many operations, and their p50 self time and p50
    /// duration in µs.
    pub fn summary(&self) -> String {
        let selfs = self.self_times();
        let mut out =
            String::from("span                          spans    ops  p50 self us  p50 dur us\n");
        for (name, st) in &selfs {
            let mut ops: Vec<u64> = self
                .spans
                .iter()
                .filter(|s| s.name == *name)
                .map(|s| s.op)
                .collect();
            ops.dedup();
            out.push_str(&format!(
                "{name:<28} {:>7} {:>6} {:>12.3} {:>11.3}\n",
                st.len(),
                ops.len(),
                p50(st) / 1e3,
                p50(&self.durations(name)) / 1e3
            ));
        }
        out
    }
}

/// Median of unsorted values (0 when empty).
pub fn p50(values: &[f64]) -> f64 {
    crate::measure::median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_named_as_parent() {
        let mut t = Tracer::default();
        t.next_op();
        let ((), root) = t.span("root", None, || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        let ((), child) = t.span("child", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let st = t.self_times();
        let root_dur = t.durations("root")[0];
        let child_dur = t.durations("child")[0];
        assert_eq!(st["root"][0], root_dur - child_dur);
        assert_eq!(st["child"][0], child_dur);
        assert_eq!(t.spans[child].parent, Some(root));
        assert!(t.summary().contains("child"));
    }
}
