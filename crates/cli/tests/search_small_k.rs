//! End-to-end `knn-cli search` with a k below the merge queue's
//! capacity unit (m = 8): the binary pads k for the queue, trims the
//! answer back to k, and reports a padded k larger than the reference
//! set as a typed error instead of panicking.

use std::path::Path;
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_knn-cli"))
        .args(args)
        .output()
        .expect("knn-cli runs")
}

fn generate(path: &Path, count: usize, seed: u64) {
    let out = cli(&[
        "generate",
        "--count",
        &count.to_string(),
        "--dim",
        "8",
        "--seed",
        &seed.to_string(),
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "generate failed: {out:?}");
}

fn search(refs: &Path, queries: &Path, k: usize, threads: usize, json: bool) -> Output {
    let k = k.to_string();
    let threads = threads.to_string();
    let mut args = vec![
        "search",
        "--refs",
        refs.to_str().unwrap(),
        "--queries",
        queries.to_str().unwrap(),
        "--dim",
        "8",
        "--k",
        &k,
        "--queue",
        "merge",
        "--threads",
        &threads,
    ];
    if json {
        args.push("--json");
    }
    cli(&args)
}

#[test]
fn merge_queue_search_with_k_below_eight_prints_k_neighbours() {
    let dir = std::env::temp_dir().join("knn_cli_search_small_k");
    std::fs::create_dir_all(&dir).unwrap();
    let refs = dir.join("refs.f32");
    let queries = dir.join("queries.f32");
    generate(&refs, 200, 1);
    generate(&queries, 3, 2);

    // The human-readable listing: one line of k ids per query.
    let out = search(&refs, &queries, 4, 1, false);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let rows: Vec<&str> = stdout.lines().filter(|l| l.starts_with("query ")).collect();
    assert_eq!(rows.len(), 3, "{stdout}");
    for row in rows {
        let ids = row.split_once(": ").unwrap().1;
        assert_eq!(ids.split(',').count(), 4, "{row}");
    }

    // Every k below the capacity unit, at one and two threads: k
    // (id, distance) pairs per query.
    for k in 1..=4 {
        for threads in [1, 2] {
            let out = search(&refs, &queries, k, threads, true);
            assert_eq!(
                out.status.code(),
                Some(0),
                "k {k} threads {threads}: {out:?}"
            );
            let doc = serde_json::parse_value(&String::from_utf8(out.stdout).unwrap()).unwrap();
            let rows = doc.as_array().expect("one row per query");
            assert_eq!(rows.len(), 3);
            for row in rows {
                assert_eq!(row.as_array().unwrap().len(), k, "k {k} threads {threads}");
            }
        }
    }
}

#[test]
fn padded_k_beyond_the_references_is_a_typed_error() {
    let dir = std::env::temp_dir().join("knn_cli_search_padded_k");
    std::fs::create_dir_all(&dir).unwrap();
    let refs = dir.join("refs.f32");
    let queries = dir.join("queries.f32");
    // k = 4 pads to 8 for the merge queue, more than 5 references.
    generate(&refs, 5, 3);
    generate(&queries, 2, 4);
    let out = search(&refs, &queries, 4, 1, false);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("invalid-k"), "{stderr}");
}
