//! Sensitivity of the comparison, on two recorded sets of ten untraced
//! runs per workload of identical code (`fixtures/`, recorded as
//! `perfbench/README.md` describes): it stays quiet between them, flags
//! a slowdown seeded into one workload beyond the bounds, and refuses
//! runs whose stamps differ.

use perfbench::compare::{compare, parse_runs, specs, Run, BENCHMARK_JSON};
use serde::Value;

/// The workloads `BENCHMARK.json` declares.
fn workloads() -> Vec<String> {
    let doc = serde_json::parse_value(BENCHMARK_JSON).unwrap();
    let list = doc.get("workloads").and_then(Value::as_array).unwrap();
    list.iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

fn sets() -> (Vec<Run>, Vec<Run>) {
    let base = parse_runs(include_str!("fixtures/base.jsonl")).unwrap();
    let head = parse_runs(include_str!("fixtures/head.jsonl")).unwrap();
    (base, head)
}

/// `runs` with `workload` made `factor` times slower: every call takes
/// `factor` times as long, so rates divide and latencies multiply.
fn slowed(runs: &[Run], workload: &str, factor: f64) -> Vec<Run> {
    let mut runs = runs.to_vec();
    for r in runs.iter_mut().filter(|r| r.workload == workload) {
        for (name, value) in &mut r.metrics {
            match name.as_str() {
                "qps" | "instrumented_qps" => *value /= factor,
                "latency_p50_ms" => *value *= factor,
                _ => {}
            }
        }
    }
    runs
}

#[test]
fn fixtures_hold_ten_runs_of_every_workload_per_set() {
    let (base, head) = sets();
    for set in [&base, &head] {
        for w in workloads() {
            let runs = set.iter().filter(|r| r.workload == w && !r.traced).count();
            assert_eq!(runs, 10, "{w}");
        }
    }
}

#[test]
fn identical_code_stays_quiet() {
    let (base, head) = sets();
    let specs = specs(BENCHMARK_JSON).unwrap();
    for (a, b) in [(&base, &head), (&head, &base)] {
        let rows = compare(a, b, &specs).unwrap();
        assert_eq!(rows.len(), workloads().len() * specs.len());
        let flagged: Vec<_> = rows.iter().filter(|r| r.regressed).collect();
        assert!(flagged.is_empty(), "{flagged:#?}");
    }
}

#[test]
fn a_seeded_slowdown_on_one_workload_is_flagged() {
    let (base, head) = sets();
    let specs = specs(BENCHMARK_JSON).unwrap();
    for w in &workloads() {
        // Each call takes 1.5 times as long: a 33% throughput loss,
        // past the 25% bound.
        let rows = compare(&base, &slowed(&head, w, 1.5), &specs).unwrap();
        for r in &rows {
            let timed = matches!(
                r.metric.as_str(),
                "qps" | "instrumented_qps" | "latency_p50_ms"
            );
            if r.workload == *w && timed {
                assert!(r.regressed, "{w} {} not flagged: {r:?}", r.metric);
            } else if r.workload != *w {
                assert!(!r.regressed, "{} {} flagged", r.workload, r.metric);
            }
        }
    }
}

#[test]
fn runs_with_different_stamps_are_refused() {
    let (base, mut head) = sets();
    let specs = specs(BENCHMARK_JSON).unwrap();
    let field = head[0]
        .stamp
        .iter_mut()
        .find(|(f, _)| f == "threads")
        .unwrap();
    field.1 = "1".into();
    let err = compare(&base, &head, &specs).unwrap_err();
    assert!(err.contains("threads"), "{err}");
}

#[test]
fn incorrect_runs_are_refused() {
    let (base, mut head) = sets();
    head[0].correct = false;
    assert!(compare(&base, &head, &specs(BENCHMARK_JSON).unwrap()).is_err());
}
