//! Metric names, units, and the one-line JSON result.

use std::collections::BTreeMap;

use crate::measure::{median, Samples};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("write_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer a workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rdbms.parse_us", "us"),
    ("rdbms.featurize_us", "us"),
    ("flow.propagate_us", "us"),
    ("flow.deltas_per_write", "count"),
    ("core.epoch_rebuild_us", "us"),
    ("core.engine_write_us", "us"),
    ("core.tuples_reclassified_per_write", "count"),
    ("core.reorgs", "count"),
    ("core.epoch_publish_us", "us"),
    ("core.epoch_rebases", "count"),
    ("core.epoch_pin_read_ns", "ns"),
    ("core.view_bytes_per_entity", "B"),
    ("core.virtual_ns_per_op", "ns"),
    ("learn.sgd_step_us", "us"),
    ("linalg.margin_ns", "ns"),
    ("storage.wal_syncs_per_write", "count"),
    ("storage.wal_bytes_per_write", "B"),
    ("storage.checkpoint_bytes_per_write", "B"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.pool_accesses_per_write", "count"),
    ("storage.pool_hit_ratio", "ratio"),
    ("serve.update_batch_us", "us"),
    ("serve.classify_ns", "ns"),
    ("front.call_read_us", "us"),
    ("front.call_write_us", "us"),
    ("front.tcp_read_overhead_us", "us"),
    ("front.read_batch_mean", "count"),
    ("front.write_batch_mean", "count"),
    ("trace.unattributed_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// What one untraced round measured.
pub struct RoundOut {
    /// Workload start to the first measured operation.
    pub setup_s: f64,
    /// Wall time of the measured phase.
    pub wall_ns: u64,
    /// Process CPU time over the measured phase.
    pub cpu_us: f64,
    /// Operations completed in the measured phase.
    pub ops: u64,
    pub reads: Samples,
    pub writes: Samples,
    /// Measured operations plus the oracle's checks.
    pub attempted: u64,
    pub failed: u64,
    /// `CostModel` clock advanced over the measured phase, where the
    /// client path exposes the view's clock.
    pub virtual_ns: Option<u64>,
    /// Process peak resident set at the end of the measured phase.
    pub peak_rss_mb: f64,
}

/// Per-layer figures of one traced run, by metric name.
#[derive(Default)]
pub struct LayerReport {
    values: BTreeMap<&'static str, f64>,
}

impl LayerReport {
    /// Records `name`, which must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.values.insert(key, value);
    }

    pub fn values(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }
}

/// The result line: every metric of `table`, a layer never recorded as 0.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// End-to-end metrics from a run's rounds: the median of each per-round
/// figure, so one disturbed round does not move the result.
pub fn end_to_end(rounds: &[RoundOut]) -> BTreeMap<&'static str, f64> {
    let per = |f: &dyn Fn(&RoundOut) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let mut m = BTreeMap::new();
    m.insert("setup_s", per(&|r| r.setup_s));
    m.insert(
        "ops_per_s",
        per(&|r| r.ops as f64 / (r.wall_ns as f64 / 1e9)),
    );
    m.insert("read_p50_us", per(&|r| r.reads.quantile(0.5) / 1e3));
    m.insert("write_p50_us", per(&|r| r.writes.quantile(0.5) / 1e3));
    m.insert("cpu_us_per_op", per(&|r| r.cpu_us / r.ops as f64));
    // the first round's reading: later rounds' peaks include the oracle
    // checks of the rounds before them
    m.insert("peak_rss_mb", rounds[0].peak_rss_mb);
    m
}

/// Reference figures for the README, on standard error: tails with their
/// sample counts, and the virtual clock beside wall time.
pub fn reference(workload: &str, rounds: &[RoundOut]) -> String {
    let mut reads = Samples::default();
    let mut writes = Samples::default();
    for r in rounds {
        reads.extend(&r.reads);
        writes.extend(&r.writes);
    }
    let tails = |s: &Samples| {
        format!(
            "p50 {:.1} us, p99 {:.1} us, p999 {:.1} us (n = {})",
            s.quantile(0.5) / 1e3,
            s.quantile(0.99) / 1e3,
            s.quantile(0.999) / 1e3,
            s.len()
        )
    };
    let ops: u64 = rounds.iter().map(|r| r.ops).sum();
    let wall: u64 = rounds.iter().map(|r| r.wall_ns).sum();
    let virt = match rounds.iter().map(|r| r.virtual_ns).sum::<Option<u64>>() {
        Some(ns) => format!("{:.0} ns/op", ns as f64 / ops as f64),
        None => "not exposed on this path (see core.virtual_ns_per_op)".to_string(),
    };
    format!(
        "{workload}: {} rounds\n  reads:  {}\n  writes: {}\n  wall {:.0} ns/op, virtual (CostModel) {virt}",
        rounds.len(),
        tails(&reads),
        tails(&writes),
        wall as f64 / ops as f64,
    )
}
