//! End-to-end `knn-cli search --json` under every metric: one and two
//! worker threads both run the block-claim executor and return the ids
//! of the independent full-sort oracle (`knn::ground_truth`).

use std::path::Path;
use std::process::{Command, Output};

use knn::{ground_truth, Metric, PointSet};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_knn-cli"))
        .args(args)
        .output()
        .expect("knn-cli runs")
}

fn search(refs: &Path, queries: &Path, metric: &str, threads: usize) -> Output {
    let threads = threads.to_string();
    cli(&[
        "search",
        "--refs",
        refs.to_str().unwrap(),
        "--queries",
        queries.to_str().unwrap(),
        "--dim",
        "8",
        "--k",
        "6",
        "--metric",
        metric,
        "--queue",
        "insertion",
        "--threads",
        &threads,
        "--json",
    ])
}

#[test]
fn every_metric_returns_ground_truth_ids_at_one_and_two_threads() {
    let dir = std::env::temp_dir().join("knn_cli_search_metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let refs_path = dir.join("refs.f32");
    let queries_path = dir.join("queries.f32");
    // One reference coordinate at f32::MAX: a finite input whose
    // squared norms and dot products overflow, so the clamp policy is
    // exercised end to end.
    let mut flat = PointSet::uniform(300, 8, 11).as_flat().to_vec();
    flat[17 * 8] = f32::MAX;
    let refs = PointSet::from_flat(flat, 8);
    // 70 queries: three 32-query blocks, so two workers both claim work.
    let queries = PointSet::uniform(70, 8, 12);
    knn_cli::io::save_points(&refs_path, &refs).unwrap();
    knn_cli::io::save_points(&queries_path, &queries).unwrap();

    for (name, metric) in [
        ("euclidean", Metric::SquaredEuclidean),
        ("manhattan", Metric::Manhattan),
        ("cosine", Metric::Cosine),
        ("dot", Metric::NegativeDot),
    ] {
        let truth: Vec<Vec<u64>> = ground_truth(&queries, &refs, 6, metric)
            .iter()
            .map(|row| row.iter().map(|nb| nb.id as u64).collect())
            .collect();
        for threads in [1, 2] {
            let out = search(&refs_path, &queries_path, name, threads);
            assert_eq!(
                out.status.code(),
                Some(0),
                "{name} threads {threads}: {out:?}"
            );
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert!(!stderr.contains("sequentially"), "{name}: {stderr}");
            let doc = serde_json::parse_value(&String::from_utf8(out.stdout).unwrap()).unwrap();
            let ids: Vec<Vec<u64>> = doc
                .as_array()
                .expect("one row per query")
                .iter()
                .map(|row| {
                    row.as_array()
                        .unwrap()
                        .iter()
                        .map(|pair| pair.as_array().unwrap()[0].as_f64().unwrap() as u64)
                        .collect()
                })
                .collect();
            assert_eq!(ids, truth, "{name} threads {threads}");
        }
    }
}
