//! Registry-backed instrumentation of the native pipeline (`metrics`
//! cargo feature).
//!
//! This is the bridge between the pipeline's [`PhaseObserver`] hooks
//! and `trace::metrics::MetricsRegistry`: every phase gets a wall-clock
//! latency histogram, the executor reports its scratch high-water mark
//! and its per-query queues' admission/eviction totals, and the
//! blocked distance kernel gets a timed wrapper. Only this module reads
//! the host clock on knn's behalf — the default-feature pipeline
//! monomorphizes the hooks away entirely.
//!
//! Metric names (`trace::openmetrics` sanitizes the dots for
//! OpenMetrics output):
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `knn.tile.fill_ns` / `knn.tile.select_ns` | histogram | per query × tile fill and threshold scan of the executor |
//! | `knn.tile.merge_ns` / `knn.query.latency_ns` / `knn.row.fill_ns` / `knn.row.select_ns` | histogram | names of [`Phase::TileMerge`] / [`Phase::Query`] / [`Phase::RowFill`] / [`Phase::RowSelect`]; no native search fires them |
//! | `knn.distance.blocked_ns` | histogram | one full blocked-kernel invocation |
//! | `knn.scratch.peak_bytes` | peak | distance-scratch high-water mark |
//! | `knn.stream.merge_push` / `knn.stream.merge_reject` | counter | queue admissions / admissions later evicted; push − reject = neighbors kept |
//! | `knn.queries` | counter | queries answered by metered searches |
//!
//! One entry point, [`knn_search_instrumented`], runs the executor under
//! any metric, tile and thread count with an optional journal, an
//! optional registry and a [`TimelineHooks`] implementation
//! ([`TimelineObserver`], or [`trace::NullTimeline`] for none);
//! [`knn_search_streamed_parallel_instrumented`] is its squared
//! Euclidean form. A live journal gets one [`trace::QueryRecord`] per
//! query via a [`JournalObserver`] — the same clock reads feed both the
//! aggregate histograms and the per-query records — and a disabled
//! journal falls straight back to the metered (or plain) observer.

use std::sync::Mutex;
use std::time::Instant;

use kselect::types::Neighbor;
use kselect::SelectConfig;
use trace::journal::{phases, Journal, QueryRecord};
use trace::metrics::MetricsRegistry;
use trace::timeline::{SpanKind, TimelineHooks, TimelineRecorder, TimelineReport};

use crate::dataset::PointSet;
use crate::distance::block::{self, FlatMatrix};
use crate::metric::Metric;
use crate::pipeline::{queue_tag, search_uncancelled, NullObserver, Phase, PhaseObserver};

/// Histogram name a [`Phase`] records under.
pub fn phase_metric(phase: Phase) -> &'static str {
    match phase {
        Phase::Query => "knn.query.latency_ns",
        Phase::RowFill => "knn.row.fill_ns",
        Phase::RowSelect => "knn.row.select_ns",
        Phase::TileFill => "knn.tile.fill_ns",
        Phase::TileSelect => "knn.tile.select_ns",
        Phase::TileMerge => "knn.tile.merge_ns",
    }
}

/// Peak distance-scratch bytes.
pub const SCRATCH_PEAK_BYTES: &str = "knn.scratch.peak_bytes";
/// Candidates the per-query queues admitted.
pub const MERGE_PUSH: &str = "knn.stream.merge_push";
/// Admissions a later candidate evicted from its queue.
pub const MERGE_REJECT: &str = "knn.stream.merge_reject";
/// Queries answered by metered searches.
pub const QUERIES: &str = "knn.queries";
/// One blocked distance-kernel invocation.
pub const DISTANCE_BLOCKED_NS: &str = "knn.distance.blocked_ns";

/// A [`PhaseObserver`] that records every hook into a
/// [`MetricsRegistry`].
pub struct RegistryObserver<'a> {
    registry: &'a MetricsRegistry,
}

impl<'a> RegistryObserver<'a> {
    pub fn new(registry: &'a MetricsRegistry) -> Self {
        RegistryObserver { registry }
    }
}

impl PhaseObserver for RegistryObserver<'_> {
    fn timed<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.registry
            .observe_ns(phase_metric(phase), t0.elapsed().as_nanos() as u64);
        out
    }

    fn scratch_bytes(&self, bytes: u64) {
        self.registry.record_peak(SCRATCH_PEAK_BYTES, bytes);
    }

    fn merger_stats(&self, pushed: u64, rejected: u64) {
        self.registry.inc(MERGE_PUSH, pushed);
        self.registry.inc(MERGE_REJECT, rejected);
    }
}

/// One query's accumulating measurements (tile phases sum across
/// tiles).
#[derive(Clone, Copy, Default)]
struct Draft {
    tile_fill_ns: u64,
    tile_select_ns: u64,
    merge_push: u64,
    merge_reject: u64,
    worker: u32,
}

impl Draft {
    fn add(&mut self, phase: Phase, ns: u64) {
        match phase {
            Phase::TileFill => self.tile_fill_ns += ns,
            Phase::TileSelect => self.tile_select_ns += ns,
            _ => {}
        }
    }
}

/// A [`PhaseObserver`] that accumulates per-query drafts for the
/// journal, optionally forwarding every hook to a [`MetricsRegistry`]
/// as well (so one instrumented run feeds both the aggregate histograms
/// and the per-query records from a single set of clock reads).
pub struct JournalObserver<'a> {
    registry: Option<&'a MetricsRegistry>,
    drafts: Vec<Mutex<Draft>>,
    scratch: Mutex<u64>,
}

impl<'a> JournalObserver<'a> {
    pub fn new(n_queries: usize, registry: Option<&'a MetricsRegistry>) -> Self {
        JournalObserver {
            registry,
            drafts: (0..n_queries)
                .map(|_| Mutex::new(Draft::default()))
                .collect(),
            scratch: Mutex::new(0),
        }
    }

    fn draft(&self, qi: usize) -> std::sync::MutexGuard<'_, Draft> {
        self.drafts[qi].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Emit one [`QueryRecord`] per query into `journal`; `blocks` counts
    /// reference tiles crossed per query.
    fn flush<J: Journal>(
        &self,
        journal: &J,
        cfg: &SelectConfig,
        tag: &str,
        tile: u64,
        blocks: u32,
    ) {
        let scratch_bytes = *self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        for (qi, slot) in self.drafts.iter().enumerate() {
            let d = *slot.lock().unwrap_or_else(|e| e.into_inner());
            let mut phase_ns = Vec::new();
            for (key, ns) in [
                (phases::TILE_FILL, d.tile_fill_ns),
                (phases::TILE_SELECT, d.tile_select_ns),
            ] {
                if ns > 0 {
                    phase_ns.push((key.to_string(), ns));
                }
            }
            journal.record(QueryRecord {
                query: qi as u64,
                queue: queue_tag(cfg),
                tag: tag.to_string(),
                tile,
                // No per-query envelope exists: the total is the sum of
                // the query's tile phases.
                total_ns: d.tile_fill_ns + d.tile_select_ns,
                phase_ns,
                scratch_bytes,
                merge_push: d.merge_push,
                merge_reject: d.merge_reject,
                blocks,
                status: "ok".to_string(),
                attempts: 1,
                worker: d.worker,
                ..QueryRecord::default()
            });
        }
    }
}

impl PhaseObserver for JournalObserver<'_> {
    fn timed<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        if let Some(reg) = self.registry {
            reg.observe_ns(phase_metric(phase), t0.elapsed().as_nanos() as u64);
        }
        out
    }

    fn timed_q<R>(&self, phase: Phase, qi: usize, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(reg) = self.registry {
            reg.observe_ns(phase_metric(phase), ns);
        }
        self.draft(qi).add(phase, ns);
        out
    }

    fn scratch_bytes(&self, bytes: u64) {
        let mut peak = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        *peak = (*peak).max(bytes);
        if let Some(reg) = self.registry {
            reg.record_peak(SCRATCH_PEAK_BYTES, bytes);
        }
    }

    fn merger_stats(&self, pushed: u64, rejected: u64) {
        if let Some(reg) = self.registry {
            reg.inc(MERGE_PUSH, pushed);
            reg.inc(MERGE_REJECT, rejected);
        }
    }

    fn query_merger_stats(&self, qi: usize, pushed: u64, rejected: u64) {
        let mut d = self.draft(qi);
        d.merge_push = pushed;
        d.merge_reject = rejected;
    }

    fn query_worker(&self, qi: usize, worker: usize) {
        self.draft(qi).worker = worker as u32;
    }
}

/// Bridges the pipeline's clock-free [`TimelineHooks`] to a
/// [`trace::TimelineRecorder`]: this module owns the host clock on
/// knn's behalf, so hook arrivals are stamped here as nanoseconds
/// since the observer's construction epoch. One observer covers one
/// instrumented run (or several back-to-back runs sharing an epoch,
/// as `knn-cli stats` does across its sweep).
pub struct TimelineObserver<'a> {
    rec: &'a TimelineRecorder,
    epoch: Instant,
}

impl<'a> TimelineObserver<'a> {
    pub fn new(rec: &'a TimelineRecorder) -> Self {
        TimelineObserver {
            rec,
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since this observer's construction — the
    /// zero point of every track it stamps.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorder this observer stamps into.
    pub fn recorder(&self) -> &'a TimelineRecorder {
        self.rec
    }

    /// Fold the recorder's shards into a report whose wall-clock span
    /// ends "now" on this observer's epoch.
    pub fn report(&self) -> TimelineReport {
        self.rec.report(self.now_ns())
    }

    /// Run `f` as one `Service` span on `worker`'s track. Work outside
    /// the executor (the CLI's selection microbenchmark) has no block
    /// claims to record, so this is how it gets an honest busy lane;
    /// `detail` disambiguates repeated services (the CLI uses the run
    /// index).
    pub fn service<R>(&self, worker: usize, detail: u64, f: impl FnOnce() -> R) -> R {
        let t0 = self.now_ns();
        let out = f();
        self.rec
            .span(worker, SpanKind::Service, detail, t0, self.now_ns());
        out
    }
}

impl TimelineHooks for TimelineObserver<'_> {
    fn worker_started(&self, worker: usize) {
        self.rec.worker_started(worker, self.now_ns());
    }
    fn scratch_reserved(&self, worker: usize, bytes: u64) {
        self.rec.scratch_peak(worker, bytes);
    }
    fn block_claimed(&self, worker: usize, block: usize) {
        self.rec.block_claimed(worker, block as u64, self.now_ns());
    }
    fn tile_walked(&self, worker: usize, _block: usize, tile: usize) {
        self.rec.tile_walked(worker, tile as u64, self.now_ns());
    }
    fn block_finished(&self, worker: usize, block: usize, _tiles: usize) {
        self.rec.block_finished(worker, block as u64, self.now_ns());
    }
    fn worker_finished(&self, worker: usize) {
        self.rec.worker_finished(worker, self.now_ns());
    }
}

/// The fully instrumented search under any `metric`: per-worker
/// timeline hooks via `tl` ([`TimelineObserver`], or
/// [`trace::NullTimeline`] for none), an optional journal (one
/// [`QueryRecord`] per query: tile phases summed across tiles, per-query
/// queue admission/eviction counts as `merge_push`/`merge_reject`, tiles
/// crossed as `blocks`, the owning worker) and an optional registry. Dispatches on the
/// journal/registry combination so one entry point serves every caller;
/// results are identical to [`crate::knn_search_with`] in all cases. The
/// [`JournalObserver`]'s per-query drafts accumulate from whichever
/// worker owns each query's block and are flushed into records once,
/// after the pool joins, so per-query phase sums and queue counters are
/// exact at any thread count.
#[allow(clippy::too_many_arguments)]
pub fn knn_search_instrumented<J: Journal, T: TimelineHooks>(
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    metric: Metric,
    tile: usize,
    threads: usize,
    journal: &J,
    registry: Option<&MetricsRegistry>,
    tag: &str,
    tl: &T,
) -> Vec<Vec<Neighbor>> {
    if let Some(reg) = registry {
        reg.inc(QUERIES, queries.len() as u64);
    }
    if journal.enabled() {
        let obs = JournalObserver::new(queries.len(), registry);
        let out = search_uncancelled(queries, refs, cfg, metric, tile, threads, &obs, tl);
        let eff_tile = tile.min(refs.len().max(1));
        let blocks = refs.len().div_ceil(eff_tile) as u32;
        obs.flush(journal, cfg, tag, eff_tile as u64, blocks);
        out
    } else if let Some(reg) = registry {
        let obs = &RegistryObserver::new(reg);
        search_uncancelled(queries, refs, cfg, metric, tile, threads, obs, tl)
    } else {
        search_uncancelled(queries, refs, cfg, metric, tile, threads, &NullObserver, tl)
    }
}

/// [`knn_search_instrumented`] by squared Euclidean distance.
#[allow(clippy::too_many_arguments)]
pub fn knn_search_streamed_parallel_instrumented<J: Journal, T: TimelineHooks>(
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    tile: usize,
    threads: usize,
    journal: &J,
    registry: Option<&MetricsRegistry>,
    tag: &str,
    tl: &T,
) -> Vec<Vec<Neighbor>> {
    knn_search_instrumented(
        queries,
        refs,
        cfg,
        Metric::SquaredEuclidean,
        tile,
        threads,
        journal,
        registry,
        tag,
        tl,
    )
}

/// [`block::squared_distances`] with the kernel invocation timed into
/// [`DISTANCE_BLOCKED_NS`] and the materialized matrix counted against
/// the scratch peak.
pub fn squared_distances_metered(
    queries: &PointSet,
    refs: &PointSet,
    registry: &MetricsRegistry,
) -> FlatMatrix {
    let t0 = Instant::now();
    let m = block::squared_distances(queries, refs);
    registry.observe_ns(DISTANCE_BLOCKED_NS, t0.elapsed().as_nanos() as u64);
    registry.record_peak(SCRATCH_PEAK_BYTES, m.bytes());
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::distance_matrix_flat_with;
    use crate::pipeline::{knn_search_streamed_parallel, knn_search_with};
    use kselect::queues::AnyQueue;
    use kselect::QueueKind;
    use trace::{NullJournal, NullTimeline};

    /// Per query, the admissions one plain scan of its full distance
    /// row makes — what the executor's persistent queue admits across
    /// the row's tiles.
    fn row_admissions(
        queries: &PointSet,
        refs: &PointSet,
        cfg: &SelectConfig,
        metric: Metric,
    ) -> Vec<u64> {
        let rows = distance_matrix_flat_with(queries, refs, metric);
        (0..rows.q())
            .map(|qi| AnyQueue::new(cfg.queue, cfg.k, cfg.m).select(rows.row(qi), 0))
            .collect()
    }

    #[test]
    fn metered_searches_match_unmetered_and_populate_the_registry() {
        let queries = PointSet::uniform(24, 12, 131);
        let refs = PointSet::uniform(400, 12, 132);
        let cfg = SelectConfig::plain(QueueKind::Merge, 16);
        let reg = MetricsRegistry::new();

        let plain = knn_search_streamed_parallel(&queries, &refs, &cfg, 100, 1);
        let metered = knn_search_streamed_parallel_instrumented(
            &queries,
            &refs,
            &cfg,
            100,
            1,
            &NullJournal,
            Some(&reg),
            "",
            &NullTimeline,
        );
        assert_eq!(metered, plain, "metering must not change results");

        let snap = reg.snapshot();
        let hist = |name: &str| {
            snap.histograms
                .iter()
                .find(|h| h.name == name)
                .unwrap_or_else(|| panic!("missing histogram {name}"))
        };
        // 400 refs / tile 100 = 4 tiles × 24 queries.
        assert_eq!(hist("knn.tile.fill_ns").count, 96);
        assert_eq!(hist("knn.tile.select_ns").count, 96);
        assert!(
            snap.histograms
                .iter()
                .all(|h| !h.name.starts_with("knn.row") && h.name != "knn.tile.merge_ns"),
            "no native search fires the row or merge phases"
        );
        assert_eq!(reg.counter(QUERIES), 24);
        // One queue per query across its tiles admits what one scan of
        // the full row admits.
        let admitted: u64 = row_admissions(&queries, &refs, &cfg, Metric::SquaredEuclidean)
            .iter()
            .sum();
        assert_eq!(reg.counter(MERGE_PUSH), admitted);
        assert_eq!(
            reg.counter(MERGE_PUSH) - reg.counter(MERGE_REJECT),
            (24 * 16) as u64,
            "kept candidates must equal Q × k"
        );
        // one 24-query block × tile × 4 bytes
        assert_eq!(reg.peak(SCRATCH_PEAK_BYTES), 24 * 100 * 4);
    }

    #[test]
    fn journaled_searches_match_plain_and_emit_one_record_per_query() {
        use trace::{EventJournal, JournalConfig};

        let queries = PointSet::uniform(16, 10, 135);
        let refs = PointSet::uniform(300, 10, 136);
        let cfg = SelectConfig::plain(QueueKind::Merge, 8);
        for metric in [Metric::SquaredEuclidean, Metric::Cosine] {
            let plain = knn_search_with(&queries, &refs, &cfg, metric);
            let admitted = row_admissions(&queries, &refs, &cfg, metric);
            // disabled journal, no registry: plain path, nothing recorded
            let out = knn_search_instrumented(
                &queries,
                &refs,
                &cfg,
                metric,
                100,
                1,
                &NullJournal,
                None,
                "",
                &NullTimeline,
            );
            assert_eq!(out, plain, "{metric:?}");

            // live journal + registry: tile phases sum, per-query queue
            // admissions, tiles crossed as blocks
            let journal = EventJournal::new(JournalConfig::default());
            let reg = MetricsRegistry::new();
            let out = knn_search_instrumented(
                &queries,
                &refs,
                &cfg,
                metric,
                100,
                1,
                &journal,
                Some(&reg),
                "stream-run",
                &NullTimeline,
            );
            assert_eq!(out, plain, "{metric:?}");
            assert_eq!(reg.counter(QUERIES), 16, "registry forwarding stays on");
            let snap = journal.snapshot();
            assert_eq!(snap.len(), 16);
            for r in &snap {
                assert_eq!(r.tile, 100);
                assert_eq!(r.blocks, 3, "300 refs / tile 100");
                assert_eq!(r.tag, "stream-run");
                assert_eq!(r.merge_push, admitted[r.query as usize], "{metric:?}");
                assert_eq!(r.merge_push - r.merge_reject, 8, "kept = k");
                assert_eq!(r.scratch_bytes, 16 * 100 * 4);
                assert!(r.phase_ns.iter().any(|(k, _)| k == "tile_select"));
                assert!(r.total_ns > 0);
            }
        }
    }

    #[test]
    fn metered_streamed_totals_are_exact_at_any_thread_count() {
        let queries = PointSet::uniform(70, 12, 137);
        let refs = PointSet::uniform(400, 12, 138);
        let cfg = SelectConfig::plain(QueueKind::Merge, 16);
        let one = knn_search_streamed_parallel(&queries, &refs, &cfg, 100, 1);
        let admitted: u64 = row_admissions(&queries, &refs, &cfg, Metric::SquaredEuclidean)
            .iter()
            .sum();
        for threads in [1usize, 2, 8] {
            let reg = MetricsRegistry::new();
            let parallel = knn_search_streamed_parallel_instrumented(
                &queries,
                &refs,
                &cfg,
                100,
                threads,
                &NullJournal,
                Some(&reg),
                "",
                &NullTimeline,
            );
            assert_eq!(parallel, one, "threads {threads}");
            let snap = reg.snapshot();
            let hist = |name: &str| {
                snap.histograms
                    .iter()
                    .find(|h| h.name == name)
                    .unwrap_or_else(|| panic!("missing histogram {name}"))
            };
            // 400 refs / tile 100 = 4 tiles × 70 queries, regardless of
            // how blocks were distributed across workers.
            assert_eq!(hist("knn.tile.fill_ns").count, 280, "threads {threads}");
            assert_eq!(hist("knn.tile.select_ns").count, 280);
            assert!(snap
                .histograms
                .iter()
                .all(|h| h.name != "knn.tile.merge_ns"));
            assert_eq!(reg.counter(QUERIES), 70);
            assert_eq!(reg.counter(MERGE_PUSH), admitted, "threads {threads}");
            assert_eq!(
                reg.counter(MERGE_PUSH) - reg.counter(MERGE_REJECT),
                70 * 16,
                "kept candidates must equal Q × k"
            );
        }
    }

    #[test]
    fn journaled_streamed_records_are_exact_at_any_thread_count() {
        use trace::{EventJournal, JournalConfig};

        let queries = PointSet::uniform(40, 10, 139);
        let refs = PointSet::uniform(300, 10, 140);
        let cfg = SelectConfig::plain(QueueKind::Merge, 8);
        let one = knn_search_streamed_parallel(&queries, &refs, &cfg, 100, 1);
        let admitted = row_admissions(&queries, &refs, &cfg, Metric::SquaredEuclidean);
        for threads in [1usize, 2, 8] {
            let journal = EventJournal::new(JournalConfig::default());
            let out = knn_search_streamed_parallel_instrumented(
                &queries,
                &refs,
                &cfg,
                100,
                threads,
                &journal,
                None,
                "par-run",
                &NullTimeline,
            );
            assert_eq!(out, one, "threads {threads}");
            let snap = journal.snapshot();
            assert_eq!(snap.len(), 40, "one record per query");
            for r in &snap {
                assert_eq!(r.tile, 100);
                assert_eq!(r.blocks, 3, "300 refs / tile 100");
                // Deterministic per-query queue counts: the admissions of
                // one full-row scan, and kept = k.
                assert_eq!(
                    r.merge_push, admitted[r.query as usize],
                    "threads {threads}"
                );
                assert_eq!(r.merge_push - r.merge_reject, 8);
                assert_eq!(r.status, "ok");
                assert!(r.total_ns > 0, "tile phases must be timed");
                let phase_sum: u64 = r.phase_ns.iter().map(|(_, ns)| ns).sum();
                assert_eq!(
                    phase_sum, r.total_ns,
                    "streamed total is the sum of its tile phases"
                );
            }
        }
    }

    #[test]
    fn instrumented_matches_plain_and_accounts_every_block_exactly_once() {
        // 130 queries / QUERY_BLOCK(32) = 5 blocks -> all 4 workers run.
        let queries = PointSet::uniform(130, 12, 141);
        let refs = PointSet::uniform(400, 12, 142);
        let cfg = SelectConfig::plain(QueueKind::Merge, 16);
        let plain = knn_search_streamed_parallel(&queries, &refs, &cfg, 100, 4);

        let rec = TimelineRecorder::new(4);
        let tl = TimelineObserver::new(&rec);
        let out = knn_search_streamed_parallel_instrumented(
            &queries,
            &refs,
            &cfg,
            100,
            4,
            &NullJournal,
            None,
            "",
            &tl,
        );
        assert_eq!(out, plain, "timeline recording must not change results");

        let report = tl.report();
        assert_eq!(report.lanes.len(), 4);
        assert_eq!(report.blocks_total, 5, "130 queries / 32-query blocks");
        // Every claimed block lands on exactly one worker's track.
        let mut blocks: Vec<u64> = report
            .lanes
            .iter()
            .flat_map(|l| l.spans.iter())
            .filter(|s| s.kind == SpanKind::Block)
            .map(|s| s.detail)
            .collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![0, 1, 2, 3, 4]);
        // Busy + idle conservation per worker against the common wall.
        for lane in &report.lanes {
            assert_eq!(
                lane.busy_ns + lane.idle_ns,
                report.wall_ns,
                "worker {} must account its whole wall span",
                lane.worker
            );
            assert!(lane.utilization <= 1.0 + f64::EPSILON);
        }
        assert!(report.imbalance >= 1.0);
        // Scratch reservations were reported per worker.
        assert!(report
            .lanes
            .iter()
            .any(|l| l.scratch_peak_bytes == 32 * 100 * 4));
    }

    #[test]
    fn instrumented_single_worker_runs_every_block_on_one_lane() {
        let queries = PointSet::uniform(20, 10, 143);
        let refs = PointSet::uniform(200, 10, 144);
        let cfg = SelectConfig::plain(QueueKind::Merge, 8);
        let plain = knn_search_with(&queries, &refs, &cfg, Metric::SquaredEuclidean);
        let rec = TimelineRecorder::new(1);
        let tl = TimelineObserver::new(&rec);
        let out = knn_search_streamed_parallel_instrumented(
            &queries,
            &refs,
            &cfg,
            64,
            1,
            &NullJournal,
            None,
            "",
            &tl,
        );
        assert_eq!(out, plain);
        let report = tl.report();
        assert_eq!(report.lanes.len(), 1);
        let lane = &report.lanes[0];
        // 20 queries fit one QUERY_BLOCK.
        assert_eq!(report.blocks_total, 1);
        assert_eq!(
            lane.blocks, report.blocks_total,
            "every block on the one lane"
        );
        let blocks = lane
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Block)
            .count();
        assert_eq!(blocks, 1);
        // 200 refs / tile 64 = 4 tiles walked.
        assert_eq!(lane.tiles, 4);
        assert_eq!(lane.busy_ns + lane.idle_ns, report.wall_ns);
        assert!(lane.busy_ns > 0);
        assert_eq!(
            lane.scratch_peak_bytes,
            20 * 64 * 4,
            "one block × tile floats"
        );
    }

    #[test]
    fn journal_records_carry_the_owning_worker() {
        use trace::{EventJournal, JournalConfig};

        let queries = PointSet::uniform(130, 10, 145);
        let refs = PointSet::uniform(300, 10, 146);
        let cfg = SelectConfig::plain(QueueKind::Merge, 8);
        let journal = EventJournal::new(JournalConfig::default());
        let rec = TimelineRecorder::new(4);
        let tl = TimelineObserver::new(&rec);
        knn_search_streamed_parallel_instrumented(
            &queries, &refs, &cfg, 100, 4, &journal, None, "tl-run", &tl,
        );
        let snap = journal.snapshot();
        assert_eq!(snap.len(), 130);
        assert!(snap.iter().all(|r| (r.worker as usize) < 4));
        // Queries of one 32-query block share one worker.
        for block in snap.chunks(32) {
            let w = block[0].worker;
            assert!(block.iter().all(|r| r.worker == w));
        }
        // The journal's worker attribution agrees with the timeline: a
        // worker that owns journal records also owns block spans.
        let report = tl.report();
        for w in snap.iter().map(|r| r.worker as usize) {
            assert!(report.lanes[w].blocks > 0);
        }
    }

    #[test]
    fn metered_distance_kernel_matches_and_records() {
        let queries = PointSet::uniform(8, 16, 133);
        let refs = PointSet::uniform(64, 16, 134);
        let reg = MetricsRegistry::new();
        let plain = block::squared_distances(&queries, &refs);
        let metered = squared_distances_metered(&queries, &refs, &reg);
        assert_eq!(metered, plain);
        let snap = reg.snapshot();
        assert_eq!(snap.histograms[0].name, DISTANCE_BLOCKED_NS);
        assert_eq!(snap.histograms[0].count, 1);
        assert_eq!(reg.peak(SCRATCH_PEAK_BYTES), 8 * 64 * 4);
    }
}
