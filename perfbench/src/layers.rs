//! Per-layer attribution of the traced run and its reconciliation with
//! the traced end-to-end time.

use crate::run::{metric, Metric};
use crate::stamp::THREADS;
use crate::stats::median;
use crate::workload::Workload;

/// Nanoseconds per layer summed over traced calls. The layers and the
/// residue add up to `e2e_ns` exactly (see [`LayerSplit::residue_ns`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerSplit {
    pub calls: u64,
    /// Wall time of the traced search calls.
    pub e2e_ns: u64,
    /// `block::norms` of references and queries, timed as direct calls
    /// outside the search (the search repeats this work inside).
    pub norms_ns: u64,
    pub fill_ns: u64,
    pub select_ns: u64,
    pub merge_ns: u64,
    pub merge_pushed: u64,
    pub merge_rejected: u64,
}

impl LayerSplit {
    pub fn add(&mut self, call: &LayerSplit) {
        self.calls += call.calls;
        self.e2e_ns += call.e2e_ns;
        self.norms_ns += call.norms_ns;
        self.fill_ns += call.fill_ns;
        self.select_ns += call.select_ns;
        self.merge_ns += call.merge_ns;
        self.merge_pushed += call.merge_pushed;
        self.merge_rejected += call.merge_rejected;
    }

    /// End-to-end time no layer accounts for: the pipeline's own
    /// allocation, tile walk and hook overhead.
    pub fn residue_ns(&self) -> i64 {
        let layers = self.norms_ns + self.fill_ns + self.select_ns + self.merge_ns;
        self.e2e_ns as i64 - layers as i64
    }
}

/// Seconds per call of the untraced and instrumented passes the layer
/// metrics are compared against, and the instrumented pass's timeline
/// figures per call.
pub struct Passes<'a> {
    /// Untraced, `THREADS` workers.
    pub parallel: &'a [f64],
    /// Untraced, 1 worker (the traced pass's configuration).
    pub serial: &'a [f64],
    /// Traced, 1 worker.
    pub traced: &'a [f64],
    /// Registry, journal and timeline on, `THREADS` workers.
    pub instrumented: &'a [f64],
    pub utilization: &'a [f64],
    pub imbalance: &'a [f64],
}

/// The per-layer metrics of one workload.
pub fn layer_metrics(w: &Workload, split: &LayerSplit, p: &Passes) -> Vec<Metric> {
    let calls = split.calls as f64;
    let per_call_ms = |ns: f64| ns / calls / 1e6;
    let share = |ns: u64| ns as f64 / split.e2e_ns as f64;
    let fill_s = split.fill_ns as f64 / 1e9;
    // Every (query, reference) pair of every call: one distance and one
    // selection candidate.
    let pairs = calls * (w.per_request * w.refs) as f64;
    let flops = pairs * (2 * w.dim + 3) as f64;
    // Bytes the fill reads and writes per pair, ignoring caches: the
    // reference row, its norm and the distance written.
    let bytes = pairs * (4 * w.dim + 8) as f64;
    vec![
        metric("trace.e2e_ms", per_call_ms(split.e2e_ns as f64), "ms"),
        metric(
            "distance.norms_ms",
            per_call_ms(split.norms_ns as f64),
            "ms",
        ),
        metric("distance.norms_share", share(split.norms_ns), "ratio"),
        metric("distance.fill_ms", per_call_ms(split.fill_ns as f64), "ms"),
        metric("distance.fill_gflops", flops / fill_s / 1e9, "GFLOP/s"),
        metric("distance.fill_gbps_computed", bytes / fill_s / 1e9, "GB/s"),
        metric("distance.fill_share", share(split.fill_ns), "ratio"),
        metric("select.ms", per_call_ms(split.select_ns as f64), "ms"),
        metric(
            "select.melems_per_s",
            pairs / (split.select_ns as f64 / 1e9) / 1e6,
            "Melem/s",
        ),
        metric("select.share", share(split.select_ns), "ratio"),
        metric("merge.ms", per_call_ms(split.merge_ns as f64), "ms"),
        metric(
            "merge.reject_ratio",
            split.merge_rejected as f64 / split.merge_pushed as f64,
            "ratio",
        ),
        metric(
            "pipeline.residue_ms",
            per_call_ms(split.residue_ns() as f64),
            "ms",
        ),
        metric(
            "pipeline.scaling_eff",
            median(p.serial) / (THREADS as f64 * median(p.parallel)),
            "ratio",
        ),
        metric("pipeline.utilization", median(p.utilization), "ratio"),
        metric("pipeline.imbalance", median(p.imbalance), "ratio"),
        metric(
            "trace.on_cost_pct",
            (median(p.instrumented) / median(p.parallel) - 1.0) * 100.0,
            "%",
        ),
        metric(
            "trace.overhead_pct",
            (median(p.traced) / median(p.serial) - 1.0) * 100.0,
            "%",
        ),
    ]
}
