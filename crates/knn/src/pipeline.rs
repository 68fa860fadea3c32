//! End-to-end k-NN search: distance phase + k-selection phase.
//!
//! * [`knn_search_streamed_parallel_timelined`] — the crate's one native
//!   search executor. Workers claim [`block::QUERY_BLOCK`]-query
//!   *blocks* from a shared cursor and walk every reference tile of
//!   their block in ascending order, filling a reused block×tile
//!   distance scratch under the search's [`Metric`] and scanning each
//!   tile into the query's one persistent k-queue, whose head is the
//!   running threshold. The full Q×N matrix is never materialised, and
//!   each query's offer sequence — and therefore its neighbors — is
//!   that of one [`kselect::select_k`] over its whole row, at any tile
//!   size and thread count. One worker runs inline on the calling
//!   thread.
//! * [`knn_search`] / [`knn_search_with`] — the library entry points: the
//!   executor at [`block::DEFAULT_STREAM_TILE`] on every available core.
//!   [`knn_search_streamed_parallel`] and its `_observed` form pick the
//!   tile and thread count for squared Euclidean search.
//! * [`gpu_knn`] — the simulated pipeline the experiments use: distances
//!   are computed natively (they are *data*), the distance kernel's cost
//!   is charged analytically, and k-selection runs for real on the SIMT
//!   simulator. Returns the per-phase simulated times the paper's Table I
//!   reports.
//! * [`gpu_knn_traced`] — the same pipeline recording its phases as
//!   spans on a [`trace::Tracer`]'s simulated clock, plus the kernel
//!   event counters when the `trace` feature is on.
//! * [`gpu_knn_resilient`] — the checked, fault-tolerant pipeline:
//!   typed input validation ([`KnnError`]), PCIe transfers that survive
//!   stalls and detected corruption, and per-warp retry with degraded
//!   host fallback via [`kselect::gpu::gpu_select_k_resilient`].

use kselect::gpu::{
    gpu_select_k, gpu_select_k_resilient, gpu_select_k_resilient_gated, DistanceMatrix,
    GpuResilience, GpuResilientSelect, KernelCounters, SearchReport,
};
use kselect::queues::AnyQueue;
use kselect::types::{Neighbor, INF};
use kselect::{KQueue, KnnError, SelectConfig};
use simt::{Metrics, TimingModel};
use trace::{NullTimeline, TimelineHooks};

use crate::dataset::PointSet;
use crate::distance::{block, gpu_distance_metrics};
use crate::metric::{Metric, RowFill};
use crate::pcie::{self, PcieReport};

/// A phase of the native (wall-clock) pipeline, named for observers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// One query end to end. Fired by no native search since the
    /// materialized row path was removed; kept so observers that match
    /// on it (and its journal and metric names) stay valid.
    Query,
    /// Distance-row fill of one query. Fired by no native search (see
    /// [`Phase::Query`]).
    RowFill,
    /// k-selection over one query's full row. Fired by no native search
    /// (see [`Phase::Query`]).
    RowSelect,
    /// Distance fill of one query × one reference tile in the executor.
    TileFill,
    /// Threshold scan of one query × one reference tile into the
    /// query's persistent queue in the executor.
    TileSelect,
    /// Merge of one query's per-tile survivors. Fired by no native
    /// search since the executor keeps one queue per query across
    /// tiles (see [`Phase::Query`]).
    TileMerge,
}

/// Observation hooks for the native pipeline.
///
/// The default methods are no-ops, and the pipelines are generic over
/// the observer, so [`NullObserver`] monomorphizes to *exactly* the
/// uninstrumented code — no wall-clock reads, no bookkeeping. The
/// `metrics` cargo feature ships a registry-backed implementation
/// (the `knn::metered` module); library users can plug their own.
///
/// Hooks must not change observable behaviour: `timed` runs `f` exactly
/// once and returns its result unchanged.
pub trait PhaseObserver: Sync {
    /// Run `f`, optionally measuring its duration under `phase`.
    #[inline]
    fn timed<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let _ = phase;
        f()
    }
    /// [`PhaseObserver::timed`] that also identifies which query the
    /// phase belongs to. Defaults to the query-blind `timed`, so
    /// aggregate-only observers keep working unchanged; the per-query
    /// journal overrides this to attribute latency to individual
    /// queries.
    #[inline]
    fn timed_q<R>(&self, phase: Phase, qi: usize, f: impl FnOnce() -> R) -> R {
        let _ = qi;
        self.timed(phase, f)
    }
    /// Peak bytes of the distance scratch a pipeline holds.
    #[inline]
    fn scratch_bytes(&self, _bytes: u64) {}
    /// Final queue totals of a search: `pushed` candidates the per-query
    /// queues admitted (`offer` returned true) and `rejected` admissions
    /// a later, smaller candidate evicted, so `pushed − rejected` is the
    /// neighbors the queues kept.
    #[inline]
    fn merger_stats(&self, _pushed: u64, _rejected: u64) {}
    /// One query's queue totals (the per-query refinement of
    /// [`PhaseObserver::merger_stats`]).
    #[inline]
    fn query_merger_stats(&self, _qi: usize, _pushed: u64, _rejected: u64) {}
    /// Which pool worker serviced query `qi`. Fired once per query by
    /// the executor; the journal records it on the query's record.
    #[inline]
    fn query_worker(&self, _qi: usize, _worker: usize) {}
}

/// The zero-cost default observer.
pub struct NullObserver;

impl PhaseObserver for NullObserver {}

/// Cooperative cancellation for the streamed pipeline, polled at tile
/// boundaries.
///
/// The serving layer propagates per-request deadlines through this
/// hook: once a request's budget is spent, the next poll returns
/// `true` and the search stops consuming work instead of finishing
/// late. Implementations must be deterministic functions of
/// `tiles_done` (and their own construction) — the streamed pipeline
/// replays byte-identically, and a token that consulted a wall clock
/// would break that.
pub trait CancelToken: Sync {
    /// Polled before each tile with the number of tiles already
    /// completed; return `true` to stop before the next tile starts.
    fn is_cancelled(&self, tiles_done: usize) -> bool;
}

/// The zero-cost default token: never cancels. Monomorphizes
/// [`knn_search_streamed_parallel_timelined`] to exactly the
/// uncancellable code.
pub struct NeverCancel;

impl CancelToken for NeverCancel {
    #[inline]
    fn is_cancelled(&self, _tiles_done: usize) -> bool {
        false
    }
}

/// Token that admits exactly `max_tiles` tiles — how a caller with a
/// precomputed per-tile cost model (the serving layer) expresses "this
/// request's deadline affords N tiles".
pub struct TileBudget(pub usize);

impl CancelToken for TileBudget {
    #[inline]
    fn is_cancelled(&self, tiles_done: usize) -> bool {
        tiles_done >= self.0
    }
}

/// A streamed search stopped at a tile boundary by its [`CancelToken`].
///
/// Partial results are deliberately not returned: a top-k over a
/// prefix of the references is not the exact answer, and delivering it
/// silently would violate the pipeline's never-wrong contract. The
/// caller knows how many tiles were completed and can report the
/// consumed work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled {
    /// Tiles fully processed before the token tripped.
    pub tiles_done: usize,
    /// Tiles the full search would have processed.
    pub tiles_total: usize,
}

/// Native k-NN search: for each query, the k nearest references by
/// squared Euclidean distance, sorted ascending.
pub fn knn_search(queries: &PointSet, refs: &PointSet, cfg: &SelectConfig) -> Vec<Vec<Neighbor>> {
    knn_search_with(queries, refs, cfg, Metric::SquaredEuclidean)
}

/// [`knn_search`] under an arbitrary [`crate::metric::Metric`]: the
/// executor at [`block::DEFAULT_STREAM_TILE`] with the thread count
/// resolved automatically ([`resolve_threads`]`(0)`).
///
/// # Panics
/// When `cfg.k` exceeds the number of references, or the point sets
/// disagree on dimensionality.
pub fn knn_search_with(
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    metric: Metric,
) -> Vec<Vec<Neighbor>> {
    search_uncancelled(
        queries,
        refs,
        cfg,
        metric,
        block::DEFAULT_STREAM_TILE,
        0,
        &NullObserver,
        &NullTimeline,
    )
}

/// The executor under [`NeverCancel`], which never trips.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search_uncancelled<O: PhaseObserver, T: TimelineHooks>(
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    metric: Metric,
    tile: usize,
    threads: usize,
    obs: &O,
    tl: &T,
) -> Vec<Vec<Neighbor>> {
    knn_search_streamed_parallel_timelined(
        queries,
        refs,
        cfg,
        metric,
        tile,
        threads,
        obs,
        &NeverCancel,
        tl,
    )
    .unwrap_or_else(|c| unreachable!("NeverCancel cancelled at tile {}", c.tiles_done))
}

/// Resolve a caller-facing thread-count request: `0` means "auto"
/// (`RAYON_NUM_THREADS`, else the host's available parallelism), any
/// positive value is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        rayon::current_num_threads()
    } else {
        threads
    }
}

/// How the executor splits one search over `q` queries and `n`
/// references: the worker count, the queries per block, the clamped
/// tile length and the block and tile counts.
struct Schedule {
    workers: usize,
    block_len: usize,
    blocks_total: usize,
    tile: usize,
    tiles_total: usize,
}

impl Schedule {
    fn new(q: usize, n: usize, tile: usize, threads: usize) -> Self {
        let block_len = block::QUERY_BLOCK.min(q).max(1);
        let blocks_total = q.div_ceil(block_len);
        let tile = tile.min(n.max(1));
        Schedule {
            workers: resolve_threads(threads).min(blocks_total.max(1)),
            block_len,
            blocks_total,
            tile,
            tiles_total: n.div_ceil(tile),
        }
    }

    /// Distance-scratch bytes across the pool: one block×tile buffer
    /// per worker.
    fn scratch_bytes(&self) -> u64 {
        (self.workers * self.block_len * self.tile * core::mem::size_of::<f32>()) as u64
    }
}

/// Peak distance-scratch bytes of a streamed search over `q` queries
/// and `n` references at `tile` and `threads`:
/// `workers × min(QUERY_BLOCK, Q) × min(tile, N) × 4`, one
/// [`block::QUERY_BLOCK`]-query block per worker at every worker count.
pub fn streamed_scratch_bytes(q: usize, n: usize, tile: usize, threads: usize) -> u64 {
    Schedule::new(q, n, tile, threads).scratch_bytes()
}

/// Tile-streamed native k-NN search by squared Euclidean distance on
/// `threads` OS threads (`0` = auto, see [`resolve_threads`]), identical
/// at any thread count. See [`knn_search_streamed_parallel_timelined`]
/// for the schedule. Use [`block::DEFAULT_STREAM_TILE`] for `tile` when
/// in doubt.
pub fn knn_search_streamed_parallel(
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    tile: usize,
    threads: usize,
) -> Vec<Vec<Neighbor>> {
    knn_search_streamed_parallel_observed(queries, refs, cfg, tile, threads, &NullObserver)
}

/// [`knn_search_streamed_parallel`] with [`PhaseObserver`] hooks: per
/// query × tile fill ([`Phase::TileFill`]) and threshold scan
/// ([`Phase::TileSelect`]), the scratch working-set bytes and the
/// queues' admission/eviction totals ([`PhaseObserver::merger_stats`]).
/// The observer must be thread-safe (the trait already requires
/// `Sync`); per-query hooks fire from whichever worker owns the query's
/// block, and the aggregate totals are folded once after the pool
/// joins, so counters and per-query attributions are exact at any
/// thread count. Results are identical to the unobserved search.
pub fn knn_search_streamed_parallel_observed<O: PhaseObserver>(
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    tile: usize,
    threads: usize,
    obs: &O,
) -> Vec<Vec<Neighbor>> {
    search_uncancelled(
        queries,
        refs,
        cfg,
        Metric::SquaredEuclidean,
        tile,
        threads,
        obs,
        &NullTimeline,
    )
}

/// The executor. Workers claim [`block::QUERY_BLOCK`]-query blocks from
/// a shared atomic cursor (dynamic scheduling — a fast worker steals the
/// next block as soon as it finishes one) and walk *every* reference
/// tile of their block in ascending order into a per-worker block×tile
/// scratch: per query, the tile's distances are filled under `metric`
/// (squared Euclidean through the blocked row primitive with the sets'
/// cached norms, any other metric pair by pair, both under the non-finite
/// clamp) and scanned into the query's one queue, built from `cfg.queue`,
/// `cfg.k` and `cfg.m` and kept across all its tiles. The scan is
/// [`kselect::queues::select_into`]: a strict `d < max()` test behind an
/// eight-lane pre-filter, so most candidates die against the running
/// threshold eight at a time. `cfg.buffer`, `cfg.hp` and `cfg.aligned`
/// are GPU techniques and are not read here. One worker (after
/// [`resolve_threads`]) runs inline, on the calling thread. The scratch
/// is [`streamed_scratch_bytes`].
///
/// Each query's queue sees exactly the offers one scan of its whole
/// distance row would make, so for every queue kind, tile size and
/// thread count the result equals [`kselect::select_k`] over that row
/// under `SelectConfig::plain(cfg.queue, cfg.k)` — ids and distance
/// bits — whenever the row has at least k finite distances. Against
/// [`crate::ground_truth`] the distances are equal, and so are the ids
/// with the insertion queue; the heap and merge queues may keep other,
/// equally near, ids among exact ties at the k-th distance.
///
/// A `+∞` distance (a clamped overflow or NaN) never enters a queue,
/// whose empty slots are `+∞` sentinels. While a query's queue still
/// holds a sentinel, the executor records the ids of its `+∞`
/// references, and a row with fewer than k finite distances is padded
/// with them, lowest id first — exactly the order of
/// [`crate::ground_truth`].
///
/// `token` is polled per block and tile with that block's completed-tile
/// count; when it returns `true` the block stops there and the search
/// returns [`Cancelled`] — no further distance rows are filled, no
/// further selection runs, and the partial queues are dropped (see
/// [`Cancelled`] for why). [`CancelToken`]s are deterministic functions
/// of `tiles_done` (the trait contract), so every block trips at the
/// same tile index and the report does not depend on the thread count;
/// when workers race past a trip, the earliest boundary wins.
///
/// `tl` receives per-worker [`TimelineHooks`]: each worker announces
/// itself, every block claim / tile walk / block completion fires on
/// that worker's track, and the per-worker scratch reservation is
/// reported once per worker. The hooks carry **no timestamps** — a
/// clock-owning implementation (such as `knn::metered`'s recorder
/// adapter) stamps them on arrival, so this module stays clock-free and
/// [`NullTimeline`] monomorphizes to exactly the untimelined code.
///
/// # Panics
/// When `tile` is zero, `cfg.k` exceeds the number of references, or
/// the point sets disagree on dimensionality.
#[allow(clippy::too_many_arguments)]
pub fn knn_search_streamed_parallel_timelined<
    O: PhaseObserver,
    C: CancelToken,
    T: TimelineHooks,
>(
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    metric: Metric,
    tile: usize,
    threads: usize,
    obs: &O,
    token: &C,
    tl: &T,
) -> Result<Vec<Vec<Neighbor>>, Cancelled> {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;

    assert!(tile > 0, "tile size must be positive");
    assert!(cfg.k <= refs.len(), "k exceeds the number of references");
    assert_eq!(queries.dim(), refs.dim(), "dimension mismatch");
    let q = queries.len();
    let n = refs.len();
    let schedule = Schedule::new(q, n, tile, threads);
    obs.scratch_bytes(schedule.scratch_bytes());
    let Schedule {
        workers,
        block_len,
        blocks_total,
        tile,
        tiles_total,
    } = schedule;
    let fill = RowFill::new(metric, queries, refs);
    // Every query's queue is a clone of this one, sharing its read-only
    // parts (the Merge Queue's bitonic schedules).
    let empty_queue = AnyQueue::new(cfg.queue, cfg.k, cfg.m);

    let next_block = AtomicUsize::new(0);
    // Earliest tile boundary any block's token tripped at; usize::MAX =
    // not cancelled.
    let cancel_at = AtomicUsize::new(usize::MAX);
    let pushed_total = AtomicU64::new(0);
    let rejected_total = AtomicU64::new(0);
    let done: Mutex<Vec<(usize, Vec<Vec<Neighbor>>)>> =
        Mutex::new(Vec::with_capacity(blocks_total));

    rayon::scope_broadcast(workers, |worker| {
        tl.worker_started(worker);
        tl.scratch_reserved(
            worker,
            (block_len * tile * core::mem::size_of::<f32>()) as u64,
        );
        let mut scratch = vec![0.0f32; block_len * tile];
        'work: loop {
            if cancel_at.load(Ordering::Relaxed) != usize::MAX {
                break 'work;
            }
            let b = next_block.fetch_add(1, Ordering::Relaxed);
            if b >= blocks_total {
                break 'work;
            }
            tl.block_claimed(worker, b);
            let q0 = b * block_len;
            let q1 = (q0 + block_len).min(q);
            let mut topk: Vec<QueryTopK> = (q0..q1).map(|_| QueryTopK::new(&empty_queue)).collect();
            for (tiles_done, r0) in (0..n).step_by(tile).enumerate() {
                if token.is_cancelled(tiles_done) {
                    cancel_at.fetch_min(tiles_done, Ordering::Relaxed);
                    tl.block_finished(worker, b, tiles_done);
                    break 'work;
                }
                // Another block already tripped: this block's remaining
                // work would be discarded anyway.
                if cancel_at.load(Ordering::Relaxed) != usize::MAX {
                    tl.block_finished(worker, b, tiles_done);
                    break 'work;
                }
                let t_len = tile.min(n - r0);
                let rows = scratch[..(q1 - q0) * t_len].chunks_mut(t_len);
                for ((i, row), query) in rows.enumerate().zip(&mut topk) {
                    let qi = q0 + i;
                    obs.timed_q(Phase::TileFill, qi, || fill.fill(qi, r0, &mut *row));
                    obs.timed_q(Phase::TileSelect, qi, || query.scan(row, r0));
                }
                tl.tile_walked(worker, b, tiles_done);
            }
            let (mut pushed, mut rejected) = (0u64, 0u64);
            let out: Vec<Vec<Neighbor>> = topk
                .into_iter()
                .enumerate()
                .map(|(i, query)| {
                    let (neighbors, admitted, evicted) = query.finish();
                    obs.query_merger_stats(q0 + i, admitted, evicted);
                    obs.query_worker(q0 + i, worker);
                    pushed += admitted;
                    rejected += evicted;
                    neighbors
                })
                .collect();
            pushed_total.fetch_add(pushed, Ordering::Relaxed);
            rejected_total.fetch_add(rejected, Ordering::Relaxed);
            done.lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((b, out));
            // Finish *after* the results push so the block span absorbs
            // any contention on the results mutex.
            tl.block_finished(worker, b, tiles_total);
        }
        tl.worker_finished(worker);
    });

    let tripped = cancel_at.load(Ordering::Relaxed);
    if tripped != usize::MAX {
        return Err(Cancelled {
            tiles_done: tripped,
            tiles_total,
        });
    }
    obs.merger_stats(
        pushed_total.load(Ordering::Relaxed),
        rejected_total.load(Ordering::Relaxed),
    );
    let mut blocks = done.into_inner().unwrap_or_else(|e| e.into_inner());
    blocks.sort_unstable_by_key(|&(b, _)| b);
    Ok(blocks.into_iter().flat_map(|(_, v)| v).collect())
}

/// One query's running selection in the executor: its persistent queue,
/// the admissions that queue has made, and the `+∞` ids that pad a row
/// with fewer than k finite distances.
struct QueryTopK {
    queue: AnyQueue,
    admitted: u64,
    /// Ids of `+∞` distances in ascending order, at most k, recorded
    /// only while the queue still holds a sentinel.
    inf_ids: Vec<u32>,
}

impl QueryTopK {
    fn new(empty_queue: &AnyQueue) -> Self {
        QueryTopK {
            queue: empty_queue.clone(),
            admitted: 0,
            inf_ids: Vec::new(),
        }
    }

    /// Offer one tile of distances, references `r0..r0 + row.len()`.
    fn scan(&mut self, row: &[f32], r0: usize) {
        self.admitted += self.queue.select(row, r0 as u32);
        // The head only falls, so a head still at +inf after the tile was
        // +inf for all of it: the row may yet end with fewer than k
        // finite distances.
        if self.queue.max() == INF {
            let room = self.queue.k() - self.inf_ids.len();
            let ids = (r0 as u32..).zip(row).filter(|&(_, &d)| d == INF);
            self.inf_ids.extend(ids.map(|(id, _)| id).take(room));
        }
    }

    /// The neighbors, the admissions, and the admissions evicted since.
    fn finish(self) -> (Vec<Neighbor>, u64, u64) {
        let k = self.queue.k();
        let mut out = self.queue.into_sorted();
        let evicted = self.admitted - out.len() as u64;
        let pad = k - out.len();
        out.extend(
            self.inf_ids
                .into_iter()
                .take(pad)
                .map(|id| Neighbor::new(INF, id)),
        );
        (out, self.admitted, evicted)
    }
}

/// Result of the simulated GPU k-NN pipeline.
pub struct GpuKnnResult {
    /// Per-query neighbors from the simulated selection kernel.
    pub neighbors: Vec<Vec<Neighbor>>,
    /// Metrics of the k-selection kernel (measured on the simulator).
    pub select_metrics: Metrics,
    /// Metrics of the distance kernel (analytic model).
    pub distance_metrics: Metrics,
    /// Simulated seconds for the selection kernel.
    pub select_time: f64,
    /// Simulated seconds for the distance kernel.
    pub distance_time: f64,
    /// Technique-level event counters from the selection kernel
    /// (all-zero unless built with the `trace` feature).
    pub counters: KernelCounters,
}

/// Run the full simulated pipeline for `queries` × `refs`.
///
/// The distance matrix is computed natively and uploaded into simulated
/// global memory; the distance kernel's execution cost comes from
/// [`gpu_distance_metrics`] (see that function for the calibration
/// rationale), while k-selection executes instruction-by-instruction on
/// the simulator.
pub fn gpu_knn(
    tm: &TimingModel,
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
) -> GpuKnnResult {
    let mut scratch = trace::Tracer::new();
    gpu_knn_traced(tm, queries, refs, cfg, &mut scratch)
}

/// [`gpu_knn`], recording the pipeline onto `tracer`'s simulated clock.
///
/// The trace lays out as: a `gpu_knn` phase containing the `distance`
/// phase (analytic distance kernel), a `transfer.upload` phase (PCIe
/// cost of the distance matrix — informational; not part of the
/// returned kernel times, matching the paper's timing breakdown), and
/// the `select` phase whose `gpu_select_k` kernel span nests an
/// `hp_build` span (when Hierarchical Partition is on) and one
/// concurrent per-warp span per launched warp. Kernel event counters
/// are folded into the tracer at the end of the selection phase.
pub fn gpu_knn_traced(
    tm: &TimingModel,
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    tracer: &mut trace::Tracer,
) -> GpuKnnResult {
    use trace::Category;

    let pipeline = tracer.open_span(Category::Phase, "gpu_knn");

    // Distance phase: computed natively, costed analytically.
    let dist_m = gpu_distance_metrics(queries.len(), refs.len(), queries.dim());
    let distance_time = tracer.scoped(Category::Phase, "distance", |t| {
        simt::tracing::kernel_span(t, "distance_kernel", tm, &dist_m)
    });
    let fm = block::squared_distances(queries, refs);
    let dm = DistanceMatrix::from_row_major(fm.as_slice(), fm.q(), fm.n());

    // The distance matrix never leaves the device in the real pipeline;
    // this span records what uploading the *inputs* would cost.
    let input_bytes = ((queries.len() + refs.len()) * queries.dim() * 4) as u64;
    simt::tracing::transfer_span(tracer, "transfer.upload", tm, input_bytes);

    // Selection phase: executed instruction-by-instruction.
    let sel = gpu_select_k(&tm.spec, &dm, cfg);
    let select_time = tm.kernel_time(&sel.metrics);
    let select_phase = tracer.open_span(Category::Phase, "select");
    let kernel = tracer.open_span(Category::Kernel, "gpu_select_k");
    // HP construction is a prefix of the kernel's metrics, and the
    // timing model is monotone, so its share fits inside the kernel span.
    let build_time = tm.kernel_time(&sel.build_metrics);
    if sel.build_metrics.issued > 0 {
        tracer.span(Category::Build, "hp_build", build_time);
    }
    simt::tracing::warp_spans(tracer, "select", sel.n_warps, select_time - build_time);
    tracer.close_span(kernel);
    tracer.merge_counters(&sel.counters.to_counter_set());
    tracer.close_span(select_phase);

    tracer.close_span(pipeline);

    GpuKnnResult {
        neighbors: sel.neighbors,
        select_time,
        distance_time,
        select_metrics: sel.metrics,
        distance_metrics: dist_m,
        counters: sel.counters,
    }
}

/// Typed validation of one point set: a zero-dimensional or empty set,
/// or any non-finite coordinate, is a named error instead of a panic or
/// a silently wrong answer downstream. `kind` labels the set in the
/// error ("query" / "reference").
pub fn validate_points(points: &PointSet, kind: &'static str) -> Result<(), KnnError> {
    if points.is_empty() {
        return Err(KnnError::EmptyInput { what: kind });
    }
    if points.dim() == 0 {
        return Err(KnnError::ZeroDim);
    }
    if let Some(flat_idx) = points.as_flat().iter().position(|v| !v.is_finite()) {
        return Err(KnnError::NonFiniteInput {
            kind,
            index: flat_idx / points.dim(),
        });
    }
    Ok(())
}

/// Result of the resilient simulated pipeline.
#[derive(Debug)]
pub struct ResilientKnnResult {
    /// Per-query neighbors; `None` only for queries whose status is
    /// [`kselect::gpu::QueryStatus::Failed`].
    pub neighbors: Vec<Option<Vec<Neighbor>>>,
    /// Per-query outcomes and recovery totals. PCIe stall/corruption
    /// counts from the input upload are folded in.
    pub report: SearchReport,
    /// Metrics of the accepted selection attempts.
    pub select_metrics: Metrics,
    /// Metrics of rejected selection attempts — simulated work that was
    /// retried away.
    pub wasted_metrics: Metrics,
    /// Metrics of the distance kernel (analytic model).
    pub distance_metrics: Metrics,
    /// Simulated seconds for the accepted selection work.
    pub select_time: f64,
    /// Simulated seconds for the distance kernel.
    pub distance_time: f64,
    /// The (possibly faulted, possibly retried) input upload.
    pub upload: PcieReport,
    /// Technique-level event counters from accepted attempts.
    pub counters: KernelCounters,
}

impl ResilientKnnResult {
    /// Total modelled simulated seconds this request consumed end to
    /// end: the input upload (including stall and retry time), the
    /// analytic distance kernel, accepted *and* wasted selection work,
    /// retry backoff, and the host-fallback row transfers. A selection
    /// phase that never launched (every warp gated out by a deadline)
    /// costs zero rather than a phantom launch overhead.
    pub fn modeled_seconds(&self, tm: &TimingModel) -> f64 {
        let kernel_s = |m: &Metrics| {
            if m.issued == 0 {
                0.0
            } else {
                tm.kernel_time(m)
            }
        };
        self.upload.seconds
            + self.distance_time
            + kernel_s(&self.select_metrics)
            + kernel_s(&self.wasted_metrics)
            + self.report.backoff_s
            + self.report.fallback_transfer_s
    }
}

/// The part both resilient pipelines share before selection: validated
/// inputs, the analytic distance kernel, the uploaded distance matrix and
/// the (possibly faulted) input transfer.
struct ResilientInput {
    dm: DistanceMatrix,
    distance_metrics: Metrics,
    distance_time: f64,
    upload: PcieReport,
}

impl ResilientInput {
    fn prepare(
        tm: &TimingModel,
        queries: &PointSet,
        refs: &PointSet,
        res: &GpuResilience,
    ) -> Result<Self, KnnError> {
        validate_points(queries, "query")?;
        validate_points(refs, "reference")?;
        if queries.dim() != refs.dim() {
            return Err(KnnError::DimMismatch {
                query: queries.dim(),
                reference: refs.dim(),
            });
        }
        let distance_metrics = gpu_distance_metrics(queries.len(), refs.len(), queries.dim());
        let fm = block::squared_distances(queries, refs);
        // Upload the input points across the (possibly faulted) link. A
        // corrupt payload is detected and retried; only persistent
        // corruption escalates to `TransferFailed`.
        let input_bytes = ((queries.len() + refs.len()) * queries.dim() * 4) as u64;
        let upload = match &res.faults {
            Some(plan) => {
                pcie::transfer_with_faults(&tm.spec, input_bytes, plan, 0, res.max_attempts)?
            }
            None => PcieReport {
                attempts: 1,
                seconds: pcie::transfer_time(&tm.spec, input_bytes),
                ..PcieReport::default()
            },
        };
        Ok(ResilientInput {
            dm: DistanceMatrix::from_row_major(fm.as_slice(), fm.q(), fm.n()),
            distance_time: tm.kernel_time(&distance_metrics),
            distance_metrics,
            upload,
        })
    }

    /// Fold a finished selection and the upload's PCIe counters into the
    /// pipeline result.
    fn finish(self, tm: &TimingModel, sel: GpuResilientSelect) -> ResilientKnnResult {
        let mut report = sel.report;
        report.counters.pcie_stalls += self.upload.stalls;
        report.counters.pcie_corruptions += self.upload.corruptions;
        ResilientKnnResult {
            neighbors: sel.neighbors,
            report,
            select_time: tm.kernel_time(&sel.metrics),
            distance_time: self.distance_time,
            select_metrics: sel.metrics,
            wasted_metrics: sel.wasted,
            distance_metrics: self.distance_metrics,
            upload: self.upload,
            counters: sel.counters,
        }
    }
}

/// [`gpu_knn`] hardened end to end. Inputs are validated up front
/// ([`validate_points`], a dimension check, plus the selection-request
/// checks), the input upload runs through the faultable PCIe model
/// ([`pcie::transfer_with_faults`]), and k-selection runs under
/// `res`'s retry/validation/fallback policy. Everything — including an
/// injected fault campaign — is deterministic, so the whole
/// [`ResilientKnnResult`] replays byte for byte.
pub fn gpu_knn_resilient(
    tm: &TimingModel,
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    res: &GpuResilience,
) -> Result<ResilientKnnResult, KnnError> {
    let input = ResilientInput::prepare(tm, queries, refs, res)?;
    let sel = gpu_select_k_resilient(&tm.spec, &input.dm, cfg, res)?;
    Ok(input.finish(tm, sel))
}

/// [`gpu_knn_resilient`] under a simulated-time deadline, with
/// cooperative cancellation at warp-launch boundaries.
///
/// `budget_s` is the request's remaining deadline budget in simulated
/// seconds, measured from the start of the input upload. The upload
/// and the analytic distance kernel are single device-side operations
/// and always complete (a launch in flight is not preempted); the
/// selection kernel then consults a gate before *every* warp launch —
/// once `upload + distance + selection work so far (accepted and
/// wasted) + backoff` reaches the budget, no further warp launches,
/// and the remaining queries report
/// [`kselect::gpu::QueryStatus::DeadlineExceeded`] with no result:
/// past-deadline queries stop consuming work instead of finishing
/// late. Gated selection runs warps sequentially in warp-id order (see
/// [`simt::launch_resilient_gated`]), so with a generous budget the
/// output is byte-identical to [`gpu_knn_resilient`].
pub fn gpu_knn_resilient_deadline(
    tm: &TimingModel,
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    res: &GpuResilience,
    budget_s: f64,
) -> Result<ResilientKnnResult, KnnError> {
    let input = ResilientInput::prepare(tm, queries, refs, res)?;
    let spent_before_select = input.upload.seconds + input.distance_time;
    let sel =
        gpu_select_k_resilient_gated(&tm.spec, &input.dm, cfg, res, |_, consumed, backoff_s| {
            let select_s = if consumed.issued == 0 {
                0.0
            } else {
                tm.kernel_time(consumed)
            };
            spent_before_select + select_s + backoff_s < budget_s
        })?;
    Ok(input.finish(tm, sel))
}

/// Lowercase queue-kind tag journal records carry (`merge`, `heap`,
/// `insertion`).
pub fn queue_tag(cfg: &SelectConfig) -> String {
    format!("{:?}", cfg.queue).to_lowercase()
}

/// [`gpu_knn_resilient`] that additionally emits one
/// [`trace::QueryRecord`] per query into `journal`, correlating each
/// query's retry/fallback outcome with its latency share.
///
/// The simulated pipeline has no per-query wall clock, so the record's
/// nanoseconds are **simulated-time attribution**: the distance
/// kernel's time is shared evenly across queries, the accepted
/// selection time is split proportionally to each query's kernel
/// attempts (a query that needed 3 attempts carries 3 shares), retry
/// backoff is split across the *extra* attempts, and the host-fallback
/// transfer across the fallback queries. The attribution sums back to
/// the report's totals, and — by construction — the slowest-query
/// exemplars are exactly the queries the resilience layer struggled
/// with, which is what a tail investigation needs surfaced.
///
/// `tag` labels the run in every record (e.g. the fault-campaign seed).
/// With a [`trace::NullJournal`] this is `gpu_knn_resilient` plus one
/// dead branch.
pub fn gpu_knn_resilient_journaled<J: trace::Journal>(
    tm: &TimingModel,
    queries: &PointSet,
    refs: &PointSet,
    cfg: &SelectConfig,
    res: &GpuResilience,
    journal: &J,
    tag: &str,
) -> Result<ResilientKnnResult, KnnError> {
    use kselect::gpu::QueryStatus;

    let out = gpu_knn_resilient(tm, queries, refs, cfg, res)?;
    if !journal.enabled() {
        return Ok(out);
    }
    let q = out.report.statuses.len().max(1) as f64;
    let attempts: Vec<u32> = out
        .report
        .statuses
        .iter()
        .map(|s| match s {
            QueryStatus::Ok => 1,
            QueryStatus::Recovered { attempts } | QueryStatus::Fallback { attempts } => *attempts,
            QueryStatus::Failed { after_attempts, .. } => *after_attempts,
            // A gated-out warp never launched, so its queries carry no
            // attempt share of the selection time.
            QueryStatus::DeadlineExceeded => 0,
        })
        .collect();
    let total_attempts: u64 = attempts.iter().map(|&a| a as u64).sum();
    let extra_attempts: u64 = attempts.iter().map(|&a| a.saturating_sub(1) as u64).sum();
    let fallbacks = out.report.fallback_count().max(1) as f64;
    let distance_ns = out.distance_time * 1e9 / q;
    let select_ns_per_attempt = out.select_time * 1e9 / total_attempts.max(1) as f64;
    let backoff_ns_per_extra = out.report.backoff_s * 1e9 / extra_attempts.max(1) as f64;
    let fallback_ns_each = out.report.fallback_transfer_s * 1e9 / fallbacks;
    for (qi, status) in out.report.statuses.iter().enumerate() {
        let a = attempts[qi];
        let select_ns = select_ns_per_attempt * a as f64;
        let backoff_ns = backoff_ns_per_extra * a.saturating_sub(1) as f64;
        let fallback_ns = if matches!(status, QueryStatus::Fallback { .. }) {
            fallback_ns_each
        } else {
            0.0
        };
        let mut phase_ns = vec![
            (
                trace::journal::phases::DISTANCE.to_string(),
                distance_ns as u64,
            ),
            (trace::journal::phases::SELECT.to_string(), select_ns as u64),
        ];
        if backoff_ns > 0.0 {
            phase_ns.push((
                trace::journal::phases::BACKOFF.to_string(),
                backoff_ns as u64,
            ));
        }
        if fallback_ns > 0.0 {
            phase_ns.push((
                trace::journal::phases::FALLBACK.to_string(),
                fallback_ns as u64,
            ));
        }
        journal.record(trace::QueryRecord {
            query: qi as u64,
            queue: queue_tag(cfg),
            tag: tag.to_string(),
            total_ns: phase_ns.iter().map(|(_, ns)| ns).sum(),
            phase_ns,
            blocks: 1,
            status: status.name().to_string(),
            attempts: a,
            ..trace::QueryRecord::default()
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kselect::QueueKind;

    #[test]
    fn native_and_simulated_pipelines_agree() {
        let queries = PointSet::uniform(40, 16, 101);
        let refs = PointSet::uniform(300, 16, 102);
        let cfg = SelectConfig::optimized(QueueKind::Merge, 8);
        let native = knn_search(&queries, &refs, &cfg);
        let tm = TimingModel::tesla_c2075();
        let sim = gpu_knn(&tm, &queries, &refs, &cfg);
        assert_eq!(native.len(), sim.neighbors.len());
        for (a, b) in native.iter().zip(&sim.neighbors) {
            let ad: Vec<f32> = a.iter().map(|n| n.dist).collect();
            let bd: Vec<f32> = b.iter().map(|n| n.dist).collect();
            assert_eq!(ad, bd);
        }
    }

    #[test]
    fn streamed_matches_ground_truth_across_tiles_and_threads() {
        // 70 queries = 3 query blocks (QUERY_BLOCK = 32): more blocks
        // than workers at 1 and 2 threads, fewer at 8.
        let queries = PointSet::uniform(70, 12, 118);
        let refs = PointSet::uniform(500, 12, 119);
        let truth = crate::ground_truth(&queries, &refs, 16, Metric::SquaredEuclidean);
        for kind in [QueueKind::Insertion, QueueKind::Merge, QueueKind::Heap] {
            let cfg = SelectConfig::plain(kind, 16);
            // Tiles straddling k, tile-edge remainders, and tile > N.
            for tile in [7usize, 16, 100, 499, 500, 4096] {
                for threads in [1usize, 2, 8] {
                    let streamed =
                        knn_search_streamed_parallel(&queries, &refs, &cfg, tile, threads);
                    assert_eq!(
                        streamed, truth,
                        "kind {kind:?} tile {tile} threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_streamed_handles_small_query_counts() {
        // Fewer queries than one block, and exactly one block.
        let refs = PointSet::uniform(300, 8, 220);
        let cfg = SelectConfig::plain(QueueKind::Merge, 8);
        for q in [1usize, 5, 32] {
            let queries = PointSet::uniform(q, 8, 221);
            let one = knn_search_streamed_parallel(&queries, &refs, &cfg, 64, 1);
            let pool = knn_search_streamed_parallel(&queries, &refs, &cfg, 64, 8);
            assert_eq!(pool, one, "q {q}");
        }
    }

    #[test]
    fn scratch_is_one_block_per_worker() {
        // One worker: one QUERY_BLOCK×tile buffer, whatever Q is.
        assert_eq!(
            streamed_scratch_bytes(1024, 1 << 14, 2048, 1),
            32 * 2048 * 4
        );
        // A pool: one QUERY_BLOCK×tile buffer per worker.
        assert_eq!(
            streamed_scratch_bytes(1024, 1 << 14, 2048, 2),
            2 * 32 * 2048 * 4
        );
        // Tiles clamp to N; workers clamp to the block count.
        assert_eq!(streamed_scratch_bytes(20, 300, 4096, 8), 20 * 300 * 4);
    }

    #[test]
    fn resolve_threads_zero_is_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(6), 6);
    }

    #[test]
    fn tile_budget_stops_at_the_boundary_without_partial_results() {
        let queries = PointSet::uniform(70, 8, 222);
        let refs = PointSet::uniform(400, 8, 223);
        let cfg = SelectConfig::plain(QueueKind::Heap, 4);
        let run = |threads: usize, budget: usize| {
            knn_search_streamed_parallel_timelined(
                &queries,
                &refs,
                &cfg,
                Metric::SquaredEuclidean,
                64,
                threads,
                &NullObserver,
                &TileBudget(budget),
                &NullTimeline,
            )
        };
        let full = knn_search(&queries, &refs, &cfg);
        // 400 refs / 64-tile = 7 tiles. Every block trips at the same
        // boundary, so the report does not depend on the thread count.
        for threads in [1usize, 2, 8] {
            for budget in [0usize, 3] {
                assert_eq!(
                    run(threads, budget),
                    Err(Cancelled {
                        tiles_done: budget,
                        tiles_total: 7
                    }),
                    "threads {threads} budget {budget}"
                );
            }
            // A budget covering every tile completes with exact results.
            assert_eq!(run(threads, 7), Ok(full.clone()), "threads {threads}");
        }
    }

    #[test]
    fn deadline_pipeline_with_generous_budget_matches_resilient() {
        let queries = PointSet::uniform(64, 12, 214);
        let refs = PointSet::uniform(300, 12, 215);
        let cfg = SelectConfig::optimized(QueueKind::Merge, 16);
        let tm = TimingModel::tesla_c2075();
        let res = GpuResilience::default();
        let plain = gpu_knn_resilient(&tm, &queries, &refs, &cfg, &res).unwrap();
        let bounded = gpu_knn_resilient_deadline(&tm, &queries, &refs, &cfg, &res, 1e9).unwrap();
        assert_eq!(plain.neighbors, bounded.neighbors);
        assert_eq!(plain.report, bounded.report);
        assert_eq!(plain.select_metrics, bounded.select_metrics);
        assert!(bounded.modeled_seconds(&tm) > 0.0);
    }

    #[test]
    fn deadline_pipeline_sheds_work_past_the_budget() {
        let queries = PointSet::uniform(96, 12, 216); // 3 warps
        let refs = PointSet::uniform(300, 12, 217);
        let cfg = SelectConfig::optimized(QueueKind::Merge, 16);
        let tm = TimingModel::tesla_c2075();
        let res = GpuResilience::default();
        let full = gpu_knn_resilient_deadline(&tm, &queries, &refs, &cfg, &res, 1e9).unwrap();
        let full_s = full.modeled_seconds(&tm);

        // A budget below even the upload+distance cost launches nothing.
        let starved = gpu_knn_resilient_deadline(&tm, &queries, &refs, &cfg, &res, 0.0).unwrap();
        assert_eq!(starved.report.deadline_exceeded_count(), 96);
        assert!(starved.neighbors.iter().all(Option::is_none));
        assert_eq!(starved.select_metrics.issued, 0);
        assert!(starved.modeled_seconds(&tm) < full_s);

        // A budget that barely clears upload+distance admits warp 0's
        // launch (a launch in flight completes), then the gate closes:
        // warps 1 and 2 never start, and their 64 queries report
        // deadline-exceeded.
        let partial_budget = starved.upload.seconds + starved.distance_time + 1e-9;
        let partial =
            gpu_knn_resilient_deadline(&tm, &queries, &refs, &cfg, &res, partial_budget).unwrap();
        assert_eq!(partial.report.deadline_exceeded_count(), 64);
        assert_eq!(partial.report.counters.deadline_skips, 2);
        // The served prefix is bit-identical to the unbounded run.
        for (a, b) in partial.neighbors.iter().zip(&full.neighbors) {
            if let Some(a) = a {
                assert_eq!(Some(a), b.as_ref());
            }
        }
        assert!(partial.modeled_seconds(&tm) < full_s);
    }

    #[test]
    #[should_panic]
    fn streamed_zero_tile_rejected() {
        let p = PointSet::uniform(2, 4, 120);
        knn_search_streamed_parallel(&p, &p, &SelectConfig::plain(QueueKind::Heap, 1), 0, 1);
    }

    #[test]
    fn knn_of_identical_point_is_itself() {
        let refs = PointSet::uniform(50, 8, 103);
        // Query = reference 17 exactly.
        let q = PointSet::from_flat(refs.point(17).to_vec(), 8);
        let cfg = SelectConfig::plain(QueueKind::Insertion, 3);
        let res = knn_search(&q, &refs, &cfg);
        assert_eq!(res[0][0].id, 17);
        assert_eq!(res[0][0].dist, 0.0);
    }

    #[test]
    fn traced_pipeline_emits_balanced_monotonic_spans() {
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(40, 8, 106);
        let refs = PointSet::uniform(512, 8, 107);
        let cfg = SelectConfig::optimized(QueueKind::Merge, 16);
        let mut tracer = trace::Tracer::new();
        let res = gpu_knn_traced(&tm, &queries, &refs, &cfg, &mut tracer);
        assert_eq!(res.neighbors.len(), 40);
        assert!(tracer.is_balanced(), "every opened span must close");
        let ts: Vec<f64> = tracer.events().iter().map(|e| e.ts_us).collect();
        assert!(
            ts.windows(2).all(|w| w[0] <= w[1]),
            "simulated timestamps must be monotonic"
        );
        // the pipeline covers the full modelled duration
        assert!(tracer.clock_s() >= res.distance_time + res.select_time);
        let names: Vec<&str> = tracer.events().iter().map(|e| e.name.as_str()).collect();
        for expected in [
            "gpu_knn",
            "distance",
            "transfer.upload",
            "select",
            "gpu_select_k",
        ] {
            assert!(names.contains(&expected), "missing span {expected}");
        }
        // optimized config uses HP ⇒ build span + per-warp lanes appear
        assert!(names.contains(&"hp_build"));
        assert!(names.iter().any(|n| n.starts_with("select.warp")));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn traced_pipeline_collects_kernel_counters() {
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(32, 8, 108);
        let refs = PointSet::uniform(400, 8, 109);
        let cfg = SelectConfig::optimized(QueueKind::Merge, 16);
        let mut tracer = trace::Tracer::new();
        let res = gpu_knn_traced(&tm, &queries, &refs, &cfg, &mut tracer);
        assert!(res.counters.queue_inserts > 0);
        assert_eq!(
            tracer.counters().get(trace::names::QUEUE_INSERT),
            res.counters.queue_inserts
        );
    }

    #[test]
    fn resilient_pipeline_validates_inputs() {
        let tm = TimingModel::tesla_c2075();
        let refs = PointSet::uniform(64, 8, 110);
        let good = PointSet::uniform(4, 8, 111);
        let res = GpuResilience::default();
        let cfg = SelectConfig::plain(QueueKind::Heap, 8);

        let empty = PointSet::from_flat(vec![], 8);
        let err = gpu_knn_resilient(&tm, &empty, &refs, &cfg, &res).unwrap_err();
        assert_eq!(err.name(), "empty-input");

        let mut bad = good.as_flat().to_vec();
        bad[2 * 8 + 3] = f32::NAN;
        let nan_query = PointSet::from_flat(bad, 8);
        let err = gpu_knn_resilient(&tm, &nan_query, &refs, &cfg, &res).unwrap_err();
        assert_eq!(
            err,
            KnnError::NonFiniteInput {
                kind: "query",
                index: 2
            }
        );

        let mut bad = refs.as_flat().to_vec();
        bad[7 * 8] = f32::INFINITY;
        let inf_refs = PointSet::from_flat(bad, 8);
        let err = gpu_knn_resilient(&tm, &good, &inf_refs, &cfg, &res).unwrap_err();
        assert_eq!(
            err,
            KnnError::NonFiniteInput {
                kind: "reference",
                index: 7
            }
        );

        let err = gpu_knn_resilient(
            &tm,
            &good,
            &refs,
            &SelectConfig::plain(QueueKind::Heap, 0),
            &res,
        )
        .unwrap_err();
        assert_eq!(err.name(), "invalid-k");
        let err = gpu_knn_resilient(
            &tm,
            &good,
            &refs,
            &SelectConfig::plain(QueueKind::Heap, 65),
            &res,
        )
        .unwrap_err();
        assert_eq!(err, KnnError::InvalidK { k: 65, n: 64 });
    }

    #[test]
    fn resilient_pipelines_reject_a_dimension_mismatch() {
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(4, 4, 125);
        let refs = PointSet::uniform(64, 8, 126);
        let cfg = SelectConfig::plain(QueueKind::Heap, 8);
        let res = GpuResilience::default();
        let expect = KnnError::DimMismatch {
            query: 4,
            reference: 8,
        };
        let err = gpu_knn_resilient(&tm, &queries, &refs, &cfg, &res).unwrap_err();
        assert_eq!(err, expect);
        let err = gpu_knn_resilient_deadline(&tm, &queries, &refs, &cfg, &res, 1e9).unwrap_err();
        assert_eq!(err, expect);
        assert_eq!(err.name(), "dim-mismatch");
    }

    #[test]
    fn resilient_pipeline_matches_plain_when_fault_free() {
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(40, 16, 112);
        let refs = PointSet::uniform(300, 16, 113);
        let cfg = SelectConfig::optimized(QueueKind::Merge, 8);
        let plain = gpu_knn(&tm, &queries, &refs, &cfg);
        let out = gpu_knn_resilient(&tm, &queries, &refs, &cfg, &GpuResilience::default()).unwrap();
        assert_eq!(out.select_metrics, plain.select_metrics);
        assert_eq!(out.select_time, plain.select_time);
        assert_eq!(out.distance_time, plain.distance_time);
        assert_eq!(out.wasted_metrics, Metrics::new());
        for (qi, got) in out.neighbors.iter().enumerate() {
            assert_eq!(got.as_deref(), Some(&plain.neighbors[qi][..]));
        }
        assert_eq!(out.report.ok_count(), 40);
        assert_eq!(out.upload.attempts, 1);
        assert!(out.upload.seconds > 0.0);
    }

    #[test]
    fn pcie_stalls_surface_in_the_report_without_kernel_hooks() {
        // A PCIe-only plan needs no kernel instrumentation, so this runs
        // (and must behave identically) with or without the `fault`
        // feature: the upload stalls, costs extra simulated time, and the
        // stall is counted — but every query still gets the exact result.
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(8, 8, 114);
        let refs = PointSet::uniform(128, 8, 115);
        let cfg = SelectConfig::plain(QueueKind::Merge, 8);
        let res =
            GpuResilience::default().with_faults(simt::FaultPlan::seeded(9).with_pcie(1.0, 0.0));
        let out = gpu_knn_resilient(&tm, &queries, &refs, &cfg, &res).unwrap();
        assert_eq!(out.report.counters.pcie_stalls, 1);
        assert_eq!(out.report.counters.pcie_corruptions, 0);
        let clean = gpu_knn_resilient(&tm, &queries, &refs, &cfg, &GpuResilience::default())
            .unwrap()
            .upload
            .seconds;
        assert!(out.upload.seconds > clean, "a stall costs link time");
        assert_eq!(out.report.ok_count(), 8);
    }

    #[test]
    fn persistent_pcie_corruption_is_a_typed_error() {
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(4, 8, 116);
        let refs = PointSet::uniform(64, 8, 117);
        let cfg = SelectConfig::plain(QueueKind::Heap, 8);
        let res = GpuResilience {
            max_attempts: 3,
            ..GpuResilience::default()
        }
        .with_faults(simt::FaultPlan::seeded(10).with_pcie(0.0, 1.0));
        let err = gpu_knn_resilient(&tm, &queries, &refs, &cfg, &res).unwrap_err();
        assert_eq!(err, KnnError::TransferFailed { attempts: 3 });
    }

    #[test]
    fn journaled_resilient_pipeline_is_transparent_and_attributes_time() {
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(24, 8, 121);
        let refs = PointSet::uniform(200, 8, 122);
        let cfg = SelectConfig::plain(QueueKind::Merge, 8);
        let res = GpuResilience::default();
        // NullJournal: identical result, nothing recorded
        let plain = gpu_knn_resilient(&tm, &queries, &refs, &cfg, &res).unwrap();
        let nulled =
            gpu_knn_resilient_journaled(&tm, &queries, &refs, &cfg, &res, &trace::NullJournal, "x")
                .unwrap();
        assert_eq!(nulled.select_time, plain.select_time);
        assert_eq!(nulled.neighbors.len(), plain.neighbors.len());
        // EventJournal: one record per query, simulated time attributed
        let journal = trace::EventJournal::new(trace::JournalConfig::default());
        let out =
            gpu_knn_resilient_journaled(&tm, &queries, &refs, &cfg, &res, &journal, "campaign")
                .unwrap();
        let snap = journal.snapshot();
        assert_eq!(snap.len(), 24);
        let attributed: u64 = snap.iter().map(|r| r.total_ns).sum();
        let modelled = ((out.distance_time + out.select_time) * 1e9) as u64;
        let drift = attributed.abs_diff(modelled);
        assert!(
            drift <= 24 * 2, // one truncated ns per phase per query
            "attribution must sum back to the modelled total: {attributed} vs {modelled}"
        );
        let expected_dominant = if out.select_time >= out.distance_time {
            "select"
        } else {
            "distance"
        };
        for r in &snap {
            assert_eq!(r.status, "ok");
            assert_eq!(r.attempts, 1);
            assert_eq!(r.queue, "merge");
            assert_eq!(r.tag, "campaign");
            assert_eq!(r.dominant_phase().map(|(p, _)| p), Some(expected_dominant));
        }
    }

    #[cfg(feature = "fault")]
    #[test]
    fn journaled_fault_campaign_surfaces_retries_as_exemplars() {
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(96, 8, 123);
        let refs = PointSet::uniform(256, 8, 124);
        let cfg = SelectConfig::plain(QueueKind::Merge, 8);
        let res =
            GpuResilience::default().with_faults(simt::FaultPlan::seeded(102).with_aborts(0.9));
        let journal = trace::EventJournal::new(trace::JournalConfig {
            exemplars: 4,
            ..trace::JournalConfig::default()
        });
        gpu_knn_resilient_journaled(&tm, &queries, &refs, &cfg, &res, &journal, "seed41").unwrap();
        let snap = journal.snapshot();
        let retried: Vec<&trace::QueryRecord> = snap.iter().filter(|r| r.attempts > 1).collect();
        assert!(!retried.is_empty(), "a 30% abort rate must retry something");
        for r in &retried {
            assert_ne!(r.status, "ok");
            assert!(
                r.phase_ns
                    .iter()
                    .any(|(p, _)| p == "backoff" || p == "fallback"),
                "retried query must carry recovery phases: {r:?}"
            );
        }
        // exemplars (slowest queries) are exactly where the retries are
        let exemplar_min = snap
            .iter()
            .filter(|r| r.exemplar)
            .map(|r| r.total_ns)
            .min()
            .unwrap();
        let clean_max = snap
            .iter()
            .filter(|r| r.attempts == 1)
            .map(|r| r.total_ns)
            .max()
            .unwrap();
        assert!(
            exemplar_min >= clean_max,
            "retried queries must dominate the exemplar set"
        );
    }

    #[test]
    fn simulated_times_are_positive_and_split() {
        let tm = TimingModel::tesla_c2075();
        let queries = PointSet::uniform(32, 8, 104);
        let refs = PointSet::uniform(256, 8, 105);
        let r = gpu_knn(
            &tm,
            &queries,
            &refs,
            &SelectConfig::plain(QueueKind::Heap, 8),
        );
        assert!(r.select_time > 0.0);
        assert!(r.distance_time > 0.0);
        assert!(r.select_metrics.issued > 0);
        assert!(r.distance_metrics.issued > 0);
    }
}
