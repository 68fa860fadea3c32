//! Comparison of two sets of runs (a base and a head) against the
//! bounds in `BENCHMARK.json`.
//!
//! A metric regresses on a workload when the head's median is worse
//! than the base's by more than the metric's bound *and* the two sets'
//! quartile intervals do not overlap, so run-to-run noise alone does
//! not flag it. Runs whose stamps differ (seed aside) are refused.

use serde::Value;
use serde_json::parse_value;

use crate::stats::{median, quartiles};

/// The benchmark definition the bounds come from.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One run as read back from its output.
#[derive(Clone, Debug)]
pub struct Run {
    pub workload: String,
    /// The stamp without its seed, as `(field, JSON value)` pairs.
    pub stamp: Vec<(String, String)>,
    pub traced: bool,
    pub correct: bool,
    pub metrics: Vec<(String, f64)>,
}

/// An end-to-end metric's direction and bound.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may get worse.
    pub bound: f64,
}

/// Median and quartiles of one metric over one set of runs.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

/// The verdict on one metric of one workload.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: Summary,
    pub head: Summary,
    /// How much worse the head's median is, as a share of the base's
    /// (negative when better).
    pub worse_by: f64,
    pub bound: f64,
    pub regressed: bool,
}

fn text(v: &Value) -> String {
    serde_json::to_string(v).expect("a parsed value serializes")
}

/// The runs in `output`: each is the `{"perfbench": ...}` detail line
/// a run prints, followed by its result line. Other lines are skipped.
pub fn parse_runs(output: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    let mut detail: Option<Value> = None;
    for (no, line) in output.lines().enumerate() {
        let Ok(v) = parse_value(line.trim()) else {
            continue;
        };
        if let Some(d) = v.get("perfbench") {
            detail = Some(d.clone());
            continue;
        }
        let Some(d) = detail.take() else { continue };
        let bad = |what: &str| format!("line {}: {what}", no + 1);
        let Some(Value::Object(stamp)) = d.get("stamp") else {
            return Err(bad("detail without a stamp"));
        };
        let workload = d
            .get("stamp")
            .and_then(|s| s.get("workload"))
            .and_then(Value::as_str)
            .ok_or_else(|| bad("stamp without a workload"))?;
        let Some(Value::Object(metrics)) = v.get("metrics") else {
            return Err(bad("result without metrics"));
        };
        let metrics = metrics
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                value
                    .map(|x| (name.clone(), x))
                    .ok_or_else(|| bad("metric without a value"))
            })
            .collect::<Result<_, _>>()?;
        runs.push(Run {
            workload: workload.to_string(),
            stamp: stamp
                .iter()
                .filter(|(field, _)| field != "seed")
                .map(|(field, x)| (field.clone(), text(x)))
                .collect(),
            traced: d.get("trace").and_then(Value::as_f64) == Some(1.0),
            correct: v.get("correct") == Some(&Value::Bool(true)),
            metrics,
        });
    }
    Ok(runs)
}

/// The end-to-end metrics of a benchmark definition.
pub fn specs(benchmark_json: &str) -> Result<Vec<Spec>, String> {
    let doc = parse_value(benchmark_json).map_err(|e| e.to_string())?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(b @ ("lower" | "higher")), Some(bound)) => Ok(Spec {
                    name: name.to_string(),
                    lower_is_better: b == "lower",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry {}", text(m))),
            }
        })
        .collect()
}

fn summarize(values: &[f64]) -> Summary {
    let (q1, q3) = quartiles(values);
    Summary {
        median: median(values),
        q1,
        q3,
    }
}

/// Compare the untraced runs of `base` and `head`, workload by
/// workload. Refuses (`Err`) when a run is incorrect, a workload has
/// fewer than two runs on either side, a metric is missing, or two
/// runs' stamps differ in anything but the seed.
pub fn compare(base: &[Run], head: &[Run], specs: &[Spec]) -> Result<Vec<Row>, String> {
    let pick = |runs: &[Run]| -> Vec<Run> { runs.iter().filter(|r| !r.traced).cloned().collect() };
    let (base, head) = (pick(base), pick(head));
    if let Some(r) = base.iter().chain(&head).find(|r| !r.correct) {
        return Err(format!(
            "an incorrect run of `{}` cannot be compared",
            r.workload
        ));
    }
    let mut workloads: Vec<&str> = base
        .iter()
        .chain(&head)
        .map(|r| r.workload.as_str())
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut rows = Vec::new();
    for w in workloads {
        let of = |runs: &[Run]| -> Vec<Run> {
            runs.iter().filter(|r| r.workload == w).cloned().collect()
        };
        let (b, h) = (of(&base), of(&head));
        if b.len() < 2 || h.len() < 2 {
            return Err(format!(
                "`{w}` needs two runs on each side ({} vs {})",
                b.len(),
                h.len()
            ));
        }
        let stamp = &b[0].stamp;
        if let Some(other) = b.iter().chain(&h).find(|r| &r.stamp != stamp) {
            let diff: Vec<String> = stamp
                .iter()
                .zip(&other.stamp)
                .filter(|(x, y)| x != y)
                .map(|((field, x), (_, y))| format!("{field}: {x} vs {y}"))
                .collect();
            return Err(format!(
                "`{w}` runs have different stamps ({})",
                diff.join(", ")
            ));
        }
        for spec in specs {
            let values = |runs: &[Run]| -> Result<Vec<f64>, String> {
                runs.iter()
                    .map(|r| {
                        r.metrics
                            .iter()
                            .find(|(name, _)| name == &spec.name)
                            .map(|&(_, x)| x)
                            .ok_or_else(|| format!("`{w}` run lacks `{}`", spec.name))
                    })
                    .collect()
            };
            let (base, head) = (summarize(&values(&b)?), summarize(&values(&h)?));
            let (worse_by, separated) = if spec.lower_is_better {
                ((head.median - base.median) / base.median, head.q1 > base.q3)
            } else {
                ((base.median - head.median) / base.median, head.q3 < base.q1)
            };
            rows.push(Row {
                workload: w.to_string(),
                metric: spec.name.clone(),
                base,
                head,
                worse_by,
                bound: spec.bound,
                regressed: worse_by > spec.bound && separated,
            });
        }
    }
    Ok(rows)
}

/// The rows as a table, one per workload and metric.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<10} {:<18} {:>12} {:>12} {:>8} {:>6}  verdict\n",
        "workload", "metric", "base median", "head median", "worse", "bound"
    );
    for r in rows {
        out += &format!(
            "{:<10} {:<18} {:>12.5} {:>12.5} {:>7.1}% {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.base.median,
            r.head.median,
            r.worse_by * 100.0,
            r.bound * 100.0,
            if r.regressed { "REGRESSED" } else { "ok" }
        );
    }
    out
}
