//! Every call the benchmark makes into `knn` and `kselect` lives here,
//! so a change to the library's search API has one place to touch.
//!
//! The search is the one `knn-cli search` runs: the block-claim
//! streamed pipeline with `SelectConfig::optimized(QueueKind::Merge, k)`
//! over `DEFAULT_STREAM_TILE`-long reference tiles.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::layers::LayerSplit;
use knn::metered::{knn_search_streamed_parallel_instrumented, TimelineObserver};
use knn::{Metric, Phase, PhaseObserver};
use kselect::{QueueKind, SelectConfig};
use trace::{EventJournal, JournalConfig, MetricsRegistry, TimelineRecorder};

pub use knn::PointSet;
pub use kselect::types::Neighbor;

/// Reference-tile length of the streamed search.
pub const TILE: usize = knn::DEFAULT_STREAM_TILE;

/// Queries per ground-truth chunk: bounds the oracle's distance matrix
/// (Q×N floats) so it does not set the process's peak memory.
const TRUTH_CHUNK: usize = 16;

fn config(k: usize) -> SelectConfig {
    SelectConfig::optimized(QueueKind::Merge, k)
}

/// The selection configuration's label, for the result stamp.
pub fn config_label(k: usize) -> String {
    config(k).label()
}

/// The SIMD distance kernel the library dispatched to.
pub fn dispatch_name() -> &'static str {
    knn::dispatch_name()
}

/// `count` uniform-[0, 1] points of dimension `dim`.
pub fn points(count: usize, dim: usize, seed: u64) -> PointSet {
    PointSet::uniform(count, dim, seed)
}

/// Rows `lo..hi` of `set` as a point set of their own.
pub fn rows(set: &PointSet, lo: usize, hi: usize) -> PointSet {
    let d = set.dim();
    PointSet::from_flat(set.as_flat()[lo * d..hi * d].to_vec(), d)
}

/// Exact k nearest neighbours by full sort (`knn::ground_truth`), the
/// rows of all queries concatenated, computed a few queries at a time.
pub fn ground_truth(queries: &PointSet, refs: &PointSet, k: usize) -> Vec<Neighbor> {
    // Copied into one buffer allocated up front: each row comes back
    // with the capacity of a whole distance row, and keeping those
    // would set the process's peak memory.
    let mut flat = Vec::with_capacity(queries.len() * k);
    for lo in (0..queries.len()).step_by(TRUTH_CHUNK) {
        let hi = (lo + TRUTH_CHUNK).min(queries.len());
        let chunk = knn::ground_truth(&rows(queries, lo, hi), refs, k, Metric::SquaredEuclidean);
        chunk.iter().for_each(|row| flat.extend_from_slice(row));
    }
    flat
}

/// The untraced search on `threads` workers.
pub fn search(queries: &PointSet, refs: &PointSet, k: usize, threads: usize) -> Vec<Vec<Neighbor>> {
    knn::knn_search_streamed_parallel(queries, refs, &config(k), TILE, threads)
}

/// The search with the library's registry, journal and timeline all on
/// (what `knn-cli search --metrics-out --journal-out --timeline-out`
/// runs), returning the timeline's pool utilization and imbalance.
pub fn search_instrumented(
    queries: &PointSet,
    refs: &PointSet,
    k: usize,
    threads: usize,
) -> (Vec<Vec<Neighbor>>, f64, f64) {
    let journal = EventJournal::new(JournalConfig::default());
    let registry = MetricsRegistry::new();
    let recorder = TimelineRecorder::new(threads);
    let timeline = TimelineObserver::new(&recorder);
    let out = knn_search_streamed_parallel_instrumented(
        queries,
        refs,
        &config(k),
        TILE,
        threads,
        &journal,
        Some(&registry),
        "perfbench",
        &timeline,
    );
    let report = timeline.report();
    (out, report.utilization, report.imbalance)
}

/// The search at `threads` workers with every fill, select and merge
/// call the pipeline makes timed, plus the norm pass it starts with
/// (`block::norms` over references and queries, timed as a direct call
/// after the search: the pipeline offers no hook around it).
pub fn search_traced(
    queries: &PointSet,
    refs: &PointSet,
    k: usize,
    threads: usize,
) -> (Vec<Vec<Neighbor>>, LayerSplit) {
    let clock = LayerClock::default();
    let t = Instant::now();
    let out = knn::knn_search_streamed_parallel_observed(
        queries,
        refs,
        &config(k),
        TILE,
        threads,
        &clock,
    );
    let e2e_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    std::hint::black_box(knn::block::norms(refs));
    std::hint::black_box(knn::block::norms(queries));
    let norms_ns = t.elapsed().as_nanos() as u64;
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let split = LayerSplit {
        calls: 1,
        e2e_ns,
        norms_ns,
        fill_ns: load(&clock.fill_ns),
        select_ns: load(&clock.select_ns),
        merge_ns: load(&clock.merge_ns),
        merge_pushed: load(&clock.merge_pushed),
        merge_rejected: load(&clock.merge_rejected),
    };
    (out, split)
}

/// Nanoseconds spent in each layer the pipeline calls into, plus the
/// stream-merge counts.
#[derive(Default)]
struct LayerClock {
    fill_ns: AtomicU64,
    select_ns: AtomicU64,
    merge_ns: AtomicU64,
    merge_pushed: AtomicU64,
    merge_rejected: AtomicU64,
}

impl PhaseObserver for LayerClock {
    fn timed<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let slot = match phase {
            Phase::TileFill | Phase::RowFill => &self.fill_ns,
            Phase::TileSelect | Phase::RowSelect => &self.select_ns,
            Phase::TileMerge => &self.merge_ns,
            // Wraps a fill and a select that are timed on their own.
            Phase::Query => return f(),
        };
        let t = Instant::now();
        let out = f();
        slot.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn merger_stats(&self, pushed: u64, rejected: u64) {
        self.merge_pushed.fetch_add(pushed, Ordering::Relaxed);
        self.merge_rejected.fetch_add(rejected, Ordering::Relaxed);
    }
}
