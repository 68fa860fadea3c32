//! The traced run's layers add up to its end-to-end time, its overhead
//! figures follow from the pass timings, and every run prints exactly
//! the metrics `BENCHMARK.json` declares.

use perfbench::adapter;
use perfbench::compare::BENCHMARK_JSON;
use perfbench::layers::{layer_metrics, LayerSplit, Passes};
use perfbench::run::{Bench, Metric};
use perfbench::workload::Workload;
use serde::Value;

/// Small enough that a whole run takes well under a second.
const TINY: Workload = Workload {
    name: "tiny",
    refs: 5000,
    per_request: 40,
    pool: 40,
    dim: 16,
    k: 32,
};

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

fn declared(list: &str) -> Vec<String> {
    let doc = serde_json::parse_value(BENCHMARK_JSON).unwrap();
    doc.get(list)
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn traced_layers_reconcile_to_the_traced_end_to_end_time() {
    let out = Bench::new(TINY, 7).per_layer(0.2);
    assert_eq!(out.failed, 0);
    assert!(out.attempted > 0);
    let m = &out.metrics;
    let e2e = value(m, "trace.e2e_ms");
    let sum: f64 = [
        "distance.norms_ms",
        "distance.fill_ms",
        "select.ms",
        "merge.ms",
        "pipeline.residue_ms",
    ]
    .iter()
    .map(|name| value(m, name))
    .sum();
    assert!(e2e > 0.0);
    assert!((sum - e2e).abs() <= 1e-9 * e2e, "{sum} != {e2e}");
    let shares: f64 = [
        "distance.norms_share",
        "distance.fill_share",
        "select.share",
    ]
    .iter()
    .map(|name| value(m, name))
    .sum();
    assert!(shares > 0.0 && shares <= 1.0, "{shares}");
}

#[test]
fn residue_and_overheads_follow_from_the_passes() {
    let split = LayerSplit {
        calls: 2,
        e2e_ns: 2_000_000,
        norms_ns: 100_000,
        fill_ns: 600_000,
        select_ns: 800_000,
        merge_ns: 200_000,
        merge_pushed: 40,
        merge_rejected: 30,
    };
    assert_eq!(split.residue_ns(), 300_000);
    let m = layer_metrics(
        &TINY,
        &split,
        &Passes {
            parallel: &[0.4, 0.5, 0.6],
            serial: &[0.8, 1.0, 1.2],
            traced: &[1.1, 1.25, 1.3],
            instrumented: &[0.55, 0.6, 0.7],
            utilization: &[0.9, 0.8, 1.0],
            imbalance: &[1.1, 1.0, 1.2],
        },
    );
    let close = |name: &str, want: f64| {
        let got = value(&m, name);
        assert!((got - want).abs() < 1e-9, "{name}: {got} != {want}");
    };
    close("trace.e2e_ms", 1.0);
    close("pipeline.residue_ms", 0.15);
    close("select.share", 0.4);
    close("merge.reject_ratio", 0.75);
    close("trace.overhead_pct", 25.0);
    close("trace.on_cost_pct", 20.0);
    close("pipeline.scaling_eff", 1.0);
    close("pipeline.utilization", 0.9);
    close("pipeline.imbalance", 1.1);
}

#[test]
fn traced_search_returns_the_untraced_neighbours() {
    let inputs = TINY.inputs(3);
    for threads in [1, 2] {
        let plain = adapter::search(&inputs.queries, &inputs.refs, TINY.k, threads);
        let (traced, split) =
            adapter::search_traced(&inputs.queries, &inputs.refs, TINY.k, threads);
        assert_eq!(plain, traced);
        assert_eq!(
            split.merge_pushed,
            (TINY.pool * TINY.k * TINY.refs.div_ceil(adapter::TILE)) as u64
        );
    }
}

#[test]
fn runs_print_exactly_the_declared_metrics() {
    let names = |metrics: &[Metric]| -> Vec<String> {
        metrics.iter().map(|m| m.name.to_string()).collect()
    };
    let e2e = Bench::new(TINY, 1).end_to_end(0.05);
    assert_eq!(e2e.failed, 0);
    assert_eq!(names(&e2e.metrics), declared("end_to_end"));
    assert!(e2e.metrics.iter().all(|m| m.value > 0.0));
    let layers = Bench::new(TINY, 1).per_layer(0.05);
    assert_eq!(layers.failed, 0);
    assert_eq!(names(&layers.metrics), declared("per_layer"));
}
