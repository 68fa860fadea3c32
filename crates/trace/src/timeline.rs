//! Per-worker execution timelines for the parallel pipelines and the
//! serving engine: who claimed which block, when, how long each tile
//! walk took, and how much of the wall-clock span each worker spent
//! busy vs idle.
//!
//! Three layers, mirroring the journal's design:
//!
//! * [`TimelineHooks`] — the zero-cost observation trait the parallel
//!   pipeline is generic over. Every method is a no-op default, so
//!   [`NullTimeline`] monomorphizes the pipeline to exactly the
//!   unobserved code: no clock reads, no bookkeeping, no branches.
//! * [`TimelineRecorder`] — per-worker shards ([`WorkerTimeline`])
//!   collecting [`TrackSpan`]s. **Clock-free by design**: every
//!   nanosecond it stores arrives pre-measured relative to the run's
//!   epoch. The wall-clock-reading implementation of the hooks lives in
//!   `knn::metered` (the one sanctioned clock-reading module of the
//!   native pipelines); the serving engine feeds *simulated* time. This
//!   file is scanned by the `no-wall-clock` lint with no allowlist
//!   entry.
//! * [`TimelineReport`] — the fold: per-worker busy/idle nanoseconds,
//!   blocks claimed, tiles walked, scratch peaks, utilization, and an
//!   imbalance score `max_busy / mean_busy`. Serializes to versioned
//!   JSON (and parses back), embeds as the `timeline` section of a
//!   [`crate::MetricsSnapshot`], and exports as Chrome trace JSON with
//!   one `tid` per worker via [`crate::chrome::timeline_to_chrome_json`].
//!
//! Per-worker idle time is defined as `wall - busy`, so
//! `busy + idle == wall` holds *exactly* for every lane — the
//! conservation property the CI timeline validation asserts.

use std::sync::Mutex;

use serde::{Serialize, Value};

use crate::schema;

/// Version stamped on timeline-report JSON (`schema_version`); see
/// [`crate::schema`] for the compatibility rule applied when parsing.
pub const SCHEMA_VERSION: &str = "1.0";

/// Observation hooks the parallel tile pipeline calls from its worker
/// loop. All defaults are no-ops; implementations (which may read a
/// clock — this trait deliberately carries no timestamps) must be
/// cheap: the hooks fire per block claim and per tile, never per
/// element.
pub trait TimelineHooks: Sync {
    /// Worker `worker` entered the pool and is about to claim blocks.
    #[inline]
    fn worker_started(&self, _worker: usize) {}
    /// Worker `worker` reserved `bytes` of distance scratch for the
    /// run (its per-worker high-water mark).
    #[inline]
    fn scratch_reserved(&self, _worker: usize, _bytes: u64) {}
    /// Worker `worker` won block `block` from the shared cursor.
    #[inline]
    fn block_claimed(&self, _worker: usize, _block: usize) {}
    /// Worker `worker` finished walking tile index `tile` of `block`.
    #[inline]
    fn tile_walked(&self, _worker: usize, _block: usize, _tile: usize) {}
    /// Worker `worker` finished (or abandoned, on cancellation) block
    /// `block` after completing `tiles` tiles.
    #[inline]
    fn block_finished(&self, _worker: usize, _block: usize, _tiles: usize) {}
    /// Worker `worker` ran out of blocks and left the pool.
    #[inline]
    fn worker_finished(&self, _worker: usize) {}
}

/// The zero-cost default: a pipeline generic over [`TimelineHooks`]
/// monomorphizes with `NullTimeline` to exactly the untimed code.
pub struct NullTimeline;

impl TimelineHooks for NullTimeline {}

/// An optional timeline: `None` behaves as [`NullTimeline`].
impl<T: TimelineHooks> TimelineHooks for Option<&T> {
    fn worker_started(&self, worker: usize) {
        if let Some(t) = self {
            t.worker_started(worker);
        }
    }
    fn scratch_reserved(&self, worker: usize, bytes: u64) {
        if let Some(t) = self {
            t.scratch_reserved(worker, bytes);
        }
    }
    fn block_claimed(&self, worker: usize, block: usize) {
        if let Some(t) = self {
            t.block_claimed(worker, block);
        }
    }
    fn tile_walked(&self, worker: usize, block: usize, tile: usize) {
        if let Some(t) = self {
            t.tile_walked(worker, block, tile);
        }
    }
    fn block_finished(&self, worker: usize, block: usize, tiles: usize) {
        if let Some(t) = self {
            t.block_finished(worker, block, tiles);
        }
    }
    fn worker_finished(&self, worker: usize) {
        if let Some(t) = self {
            t.worker_finished(worker);
        }
    }
}

/// What a [`TrackSpan`] covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One claimed query block, claim to finish (the busy unit of the
    /// parallel pipeline; tile spans nest inside it).
    Block,
    /// One reference-tile walk inside a block (fill + select + merge).
    Tile,
    /// One serviced unit outside the block scheduler: a request in the
    /// serving engine, or one configuration of the selection
    /// microbenchmark.
    Service,
    /// Time a request spent waiting in the admission queue.
    QueueWait,
}

impl SpanKind {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Block => "block",
            SpanKind::Tile => "tile",
            SpanKind::Service => "service",
            SpanKind::QueueWait => "queue_wait",
        }
    }

    pub fn parse(s: &str) -> Option<SpanKind> {
        match s {
            "block" => Some(SpanKind::Block),
            "tile" => Some(SpanKind::Tile),
            "service" => Some(SpanKind::Service),
            "queue_wait" => Some(SpanKind::QueueWait),
            _ => None,
        }
    }

    /// Whether spans of this kind count toward a lane's busy time.
    /// Tile spans nest inside their block span (counting both would
    /// double-charge), and queue-wait is the definition of *not* being
    /// served.
    fn is_busy(self) -> bool {
        matches!(self, SpanKind::Block | SpanKind::Service)
    }
}

/// One closed interval on a worker's track, in pre-measured nanoseconds
/// since the run's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrackSpan {
    pub kind: SpanKind,
    /// Kind-specific identifier: block id, tile index, request seq.
    pub detail: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl TrackSpan {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One worker's raw event track — the shard a single worker appends to
/// without contending with its peers.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerTimeline {
    pub worker: usize,
    /// Track name shown in exports (`worker 3`, `server`, `queue`).
    pub name: String,
    pub spans: Vec<TrackSpan>,
    /// Instantaneous annotations (`(ns, label)`): brownout decisions,
    /// breaker trips.
    pub marks: Vec<(u64, String)>,
    pub blocks_claimed: u64,
    pub tiles_walked: u64,
    pub scratch_peak_bytes: u64,
    /// `worker_started` / `worker_finished` stamps, when observed.
    pub started_ns: Option<u64>,
    pub finished_ns: Option<u64>,
    /// End of the most recent event, from which the next tile span
    /// starts.
    last_mark_ns: u64,
    /// Claimed-but-unfinished block: `(block id, claim ns)`.
    open_block: Option<(u64, u64)>,
}

impl WorkerTimeline {
    fn new(worker: usize, name: String) -> Self {
        WorkerTimeline {
            worker,
            name,
            spans: Vec::new(),
            marks: Vec::new(),
            blocks_claimed: 0,
            tiles_walked: 0,
            scratch_peak_bytes: 0,
            started_ns: None,
            finished_ns: None,
            last_mark_ns: 0,
            open_block: None,
        }
    }

    /// Sum of busy-kind span durations: [`SpanKind::Block`] and
    /// [`SpanKind::Service`] (tile spans nest inside blocks; queue-wait
    /// is not service).
    pub fn busy_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind.is_busy())
            .map(TrackSpan::duration_ns)
            .sum()
    }

    /// Largest `end_ns` on this track (0 when empty).
    fn span_end_ns(&self) -> u64 {
        self.spans
            .iter()
            .map(|s| s.end_ns)
            .chain(self.finished_ns)
            .max()
            .unwrap_or(0)
    }
}

/// Thread-safe collector of per-worker tracks. One mutex per worker, so
/// workers appending to their own shard never contend; the fold
/// ([`TimelineRecorder::report`]) is the only cross-shard reader.
pub struct TimelineRecorder {
    shards: Vec<Mutex<WorkerTimeline>>,
}

impl TimelineRecorder {
    /// `workers` anonymous lanes named `worker 0..`.
    pub fn new(workers: usize) -> Self {
        TimelineRecorder {
            shards: (0..workers.max(1))
                .map(|w| Mutex::new(WorkerTimeline::new(w, format!("worker {w}"))))
                .collect(),
        }
    }

    /// Explicitly named lanes (the serving engine uses
    /// `["server", "queue"]`).
    pub fn with_names(names: &[&str]) -> Self {
        TimelineRecorder {
            shards: names
                .iter()
                .enumerate()
                .map(|(w, n)| Mutex::new(WorkerTimeline::new(w, n.to_string())))
                .collect(),
        }
    }

    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, worker: usize) -> std::sync::MutexGuard<'_, WorkerTimeline> {
        // A poisoned shard only means a worker panicked mid-record; the
        // recorded spans are still coherent.
        self.shards[worker]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    pub fn worker_started(&self, worker: usize, ns: u64) {
        let mut s = self.shard(worker);
        s.started_ns = Some(ns);
        s.last_mark_ns = ns;
    }

    pub fn worker_finished(&self, worker: usize, ns: u64) {
        self.shard(worker).finished_ns = Some(ns);
    }

    pub fn scratch_peak(&self, worker: usize, bytes: u64) {
        let mut s = self.shard(worker);
        s.scratch_peak_bytes = s.scratch_peak_bytes.max(bytes);
    }

    pub fn block_claimed(&self, worker: usize, block: u64, ns: u64) {
        let mut s = self.shard(worker);
        s.blocks_claimed += 1;
        s.open_block = Some((block, ns));
        s.last_mark_ns = ns;
    }

    /// Close the tile that just finished: the span runs from the end of
    /// the previous event on this track (block claim or prior tile).
    pub fn tile_walked(&self, worker: usize, tile: u64, ns: u64) {
        let mut s = self.shard(worker);
        s.tiles_walked += 1;
        let start = s.last_mark_ns.min(ns);
        s.spans.push(TrackSpan {
            kind: SpanKind::Tile,
            detail: tile,
            start_ns: start,
            end_ns: ns,
        });
        s.last_mark_ns = ns;
    }

    pub fn block_finished(&self, worker: usize, block: u64, ns: u64) {
        let mut s = self.shard(worker);
        if let Some((open, claimed_ns)) = s.open_block.take() {
            debug_assert_eq!(open, block, "blocks finish in claim order per worker");
            s.spans.push(TrackSpan {
                kind: SpanKind::Block,
                detail: block,
                start_ns: claimed_ns.min(ns),
                end_ns: ns,
            });
        }
        s.last_mark_ns = ns;
    }

    /// Record an arbitrary pre-measured span (the serving engine's
    /// service and queue-wait intervals).
    pub fn span(&self, worker: usize, kind: SpanKind, detail: u64, start_ns: u64, end_ns: u64) {
        let mut s = self.shard(worker);
        s.spans.push(TrackSpan {
            kind,
            detail,
            start_ns: start_ns.min(end_ns),
            end_ns,
        });
        s.last_mark_ns = s.last_mark_ns.max(end_ns);
    }

    /// Record an instantaneous annotation (brownout step, breaker
    /// trip).
    pub fn mark(&self, worker: usize, ns: u64, label: &str) {
        self.shard(worker).marks.push((ns, label.to_string()));
    }

    /// Fold every shard into a [`TimelineReport`] over a wall-clock
    /// span of `wall_ns` (stretched to cover every recorded span, so
    /// per-lane `busy + idle == wall` holds exactly).
    pub fn report(&self, wall_ns: u64) -> TimelineReport {
        let shards: Vec<WorkerTimeline> = self
            .shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
        fold(&shards, wall_ns)
    }
}

/// Merge per-worker shards into the report. `wall_ns` is raised to the
/// latest recorded event so idle time (`wall - busy`) is never forced
/// negative by a caller snapshotting early.
pub fn fold(shards: &[WorkerTimeline], wall_ns: u64) -> TimelineReport {
    let wall_ns = shards
        .iter()
        .map(WorkerTimeline::span_end_ns)
        .fold(wall_ns, u64::max);
    let lanes: Vec<WorkerLane> = shards
        .iter()
        .map(|s| {
            let busy_ns = s.busy_ns().min(wall_ns);
            WorkerLane {
                worker: s.worker,
                name: s.name.clone(),
                busy_ns,
                idle_ns: wall_ns - busy_ns,
                blocks: s.blocks_claimed,
                tiles: s.tiles_walked,
                scratch_peak_bytes: s.scratch_peak_bytes,
                utilization: if wall_ns == 0 {
                    0.0
                } else {
                    busy_ns as f64 / wall_ns as f64
                },
                spans: s.spans.clone(),
                marks: s.marks.clone(),
            }
        })
        .collect();
    let busy_total: u64 = lanes.iter().map(|l| l.busy_ns).sum();
    let max_busy = lanes.iter().map(|l| l.busy_ns).max().unwrap_or(0);
    let mean_busy = if lanes.is_empty() {
        0.0
    } else {
        busy_total as f64 / lanes.len() as f64
    };
    TimelineReport {
        wall_ns,
        blocks_total: lanes.iter().map(|l| l.blocks).sum(),
        busy_ns_total: busy_total,
        utilization: if wall_ns == 0 || lanes.is_empty() {
            0.0
        } else {
            busy_total as f64 / (wall_ns as f64 * lanes.len() as f64)
        },
        imbalance: if mean_busy == 0.0 {
            1.0
        } else {
            max_busy as f64 / mean_busy
        },
        lanes,
    }
}

/// One worker's folded lane in a [`TimelineReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerLane {
    pub worker: usize,
    pub name: String,
    pub busy_ns: u64,
    /// `wall_ns - busy_ns`, exactly — the conservation invariant.
    pub idle_ns: u64,
    pub blocks: u64,
    pub tiles: u64,
    pub scratch_peak_bytes: u64,
    /// `busy_ns / wall_ns`.
    pub utilization: f64,
    pub spans: Vec<TrackSpan>,
    pub marks: Vec<(u64, String)>,
}

/// The merged per-worker timeline: the artifact `--timeline-out`
/// writes, the `timeline` section of a metrics snapshot, and the input
/// of the Chrome-trace export.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimelineReport {
    /// The run's wall-clock span (ns since the epoch), shared by every
    /// lane.
    pub wall_ns: u64,
    /// Blocks claimed across all lanes — each claimed block lands on
    /// exactly one worker's track.
    pub blocks_total: u64,
    pub busy_ns_total: u64,
    /// `busy_ns_total / (wall_ns * lanes)` — pool-wide utilization.
    pub utilization: f64,
    /// `max_busy / mean_busy` across lanes; 1.0 is perfectly balanced.
    pub imbalance: f64,
    pub lanes: Vec<WorkerLane>,
}

impl Serialize for TrackSpan {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("kind".into(), Value::Str(self.kind.as_str().to_string())),
            ("detail".into(), Value::U64(self.detail)),
            ("start_ns".into(), Value::U64(self.start_ns)),
            ("end_ns".into(), Value::U64(self.end_ns)),
        ])
    }
}

impl Serialize for WorkerLane {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("worker".into(), Value::U64(self.worker as u64)),
            ("name".into(), Value::Str(self.name.clone())),
            ("busy_ns".into(), Value::U64(self.busy_ns)),
            ("idle_ns".into(), Value::U64(self.idle_ns)),
            ("blocks".into(), Value::U64(self.blocks)),
            ("tiles".into(), Value::U64(self.tiles)),
            (
                "scratch_peak_bytes".into(),
                Value::U64(self.scratch_peak_bytes),
            ),
            ("utilization".into(), Value::F64(self.utilization)),
            (
                "spans".into(),
                Value::Array(self.spans.iter().map(Serialize::to_value).collect()),
            ),
            (
                "marks".into(),
                Value::Array(
                    self.marks
                        .iter()
                        .map(|(ns, label)| {
                            Value::Object(vec![
                                ("ns".into(), Value::U64(*ns)),
                                ("label".into(), Value::Str(label.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl Serialize for TimelineReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "schema_version".into(),
                Value::Str(SCHEMA_VERSION.to_string()),
            ),
            ("wall_ns".into(), Value::U64(self.wall_ns)),
            ("blocks_total".into(), Value::U64(self.blocks_total)),
            ("busy_ns_total".into(), Value::U64(self.busy_ns_total)),
            ("utilization".into(), Value::F64(self.utilization)),
            ("imbalance".into(), Value::F64(self.imbalance)),
            (
                "workers".into(),
                Value::Array(self.lanes.iter().map(Serialize::to_value).collect()),
            ),
        ])
    }
}

fn field_u64(v: &Value, key: &str, what: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .map(|f| f as u64)
        .ok_or_else(|| format!("{what} missing numeric '{key}'"))
}

fn field_f64(v: &Value, key: &str, what: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{what} missing numeric '{key}'"))
}

impl TimelineReport {
    /// Serialize as a JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("timeline report serialization cannot fail")
    }

    /// Parse back from [`TimelineReport::to_json`] output. A missing
    /// `schema_version` is accepted as legacy; an unknown major version
    /// is rejected (see [`crate::schema`]).
    pub fn from_json(text: &str) -> Result<TimelineReport, String> {
        let doc = serde_json::parse_value(text).map_err(|e| e.to_string())?;
        Self::from_value(&doc)
    }

    /// Reconstruct from a parsed [`Value`] tree.
    pub fn from_value(doc: &Value) -> Result<TimelineReport, String> {
        if let Some(v) = doc.get("schema_version") {
            let found = v
                .as_str()
                .ok_or("'schema_version' must be a string".to_string())?;
            schema::ensure_compatible(found, SCHEMA_VERSION, "timeline report")?;
        }
        let lanes_doc = match doc.get("workers") {
            Some(Value::Array(items)) => items,
            _ => return Err("missing or non-array 'workers' field".into()),
        };
        let mut lanes = Vec::with_capacity(lanes_doc.len());
        for l in lanes_doc {
            let mut spans = Vec::new();
            if let Some(Value::Array(ss)) = l.get("spans") {
                for s in ss {
                    let kind = s
                        .get("kind")
                        .and_then(Value::as_str)
                        .and_then(SpanKind::parse)
                        .ok_or("span has no valid 'kind'")?;
                    spans.push(TrackSpan {
                        kind,
                        detail: field_u64(s, "detail", "span")?,
                        start_ns: field_u64(s, "start_ns", "span")?,
                        end_ns: field_u64(s, "end_ns", "span")?,
                    });
                }
            }
            let mut marks = Vec::new();
            if let Some(Value::Array(ms)) = l.get("marks") {
                for m in ms {
                    marks.push((
                        field_u64(m, "ns", "mark")?,
                        m.get("label")
                            .and_then(Value::as_str)
                            .ok_or("mark has no 'label'")?
                            .to_string(),
                    ));
                }
            }
            lanes.push(WorkerLane {
                worker: field_u64(l, "worker", "lane")? as usize,
                name: l
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("lane has no 'name'")?
                    .to_string(),
                busy_ns: field_u64(l, "busy_ns", "lane")?,
                idle_ns: field_u64(l, "idle_ns", "lane")?,
                blocks: field_u64(l, "blocks", "lane")?,
                tiles: field_u64(l, "tiles", "lane")?,
                scratch_peak_bytes: field_u64(l, "scratch_peak_bytes", "lane")?,
                utilization: field_f64(l, "utilization", "lane")?,
                spans,
                marks,
            });
        }
        Ok(TimelineReport {
            wall_ns: field_u64(doc, "wall_ns", "report")?,
            blocks_total: field_u64(doc, "blocks_total", "report")?,
            busy_ns_total: field_u64(doc, "busy_ns_total", "report")?,
            utilization: field_f64(doc, "utilization", "report")?,
            imbalance: field_f64(doc, "imbalance", "report")?,
            lanes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the canonical two-worker recorder used across tests:
    /// worker 0 claims blocks 0 and 2, worker 1 claims block 1.
    fn sample_recorder() -> TimelineRecorder {
        let rec = TimelineRecorder::new(2);
        rec.worker_started(0, 10);
        rec.worker_started(1, 12);
        rec.scratch_peak(0, 4096);
        rec.scratch_peak(1, 4096);
        rec.block_claimed(0, 0, 20);
        rec.tile_walked(0, 0, 50);
        rec.tile_walked(0, 1, 90);
        rec.block_finished(0, 0, 100);
        rec.block_claimed(1, 1, 30);
        rec.tile_walked(1, 0, 60);
        rec.tile_walked(1, 1, 110);
        rec.block_finished(1, 1, 130);
        rec.block_claimed(0, 2, 120);
        rec.tile_walked(0, 0, 150);
        rec.tile_walked(0, 1, 190);
        rec.block_finished(0, 2, 200);
        rec.worker_finished(0, 210);
        rec.worker_finished(1, 140);
        rec
    }

    #[test]
    fn fold_accounts_busy_idle_blocks_and_imbalance() {
        let report = sample_recorder().report(250);
        assert_eq!(report.wall_ns, 250);
        assert_eq!(report.blocks_total, 3);
        assert_eq!(report.lanes.len(), 2);
        let w0 = &report.lanes[0];
        let w1 = &report.lanes[1];
        // worker 0: blocks [20,100] and [120,200] = 160 ns busy
        assert_eq!(w0.busy_ns, 160);
        assert_eq!(w0.idle_ns, 90);
        assert_eq!(w0.blocks, 2);
        assert_eq!(w0.tiles, 4);
        // worker 1: block [30,130] = 100 ns busy
        assert_eq!(w1.busy_ns, 100);
        assert_eq!(w1.idle_ns, 150);
        assert_eq!(w1.blocks, 1);
        assert_eq!(w1.tiles, 2);
        assert_eq!(report.busy_ns_total, 260);
        // utilization = 260 / (250 * 2)
        assert!((report.utilization - 0.52).abs() < 1e-12);
        // imbalance = 160 / 130
        assert!((report.imbalance - 160.0 / 130.0).abs() < 1e-12);
        assert_eq!(w0.scratch_peak_bytes, 4096);
    }

    #[test]
    fn an_absent_timeline_is_silent_and_a_present_one_forwards() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        #[derive(Default)]
        struct Count(AtomicUsize);
        impl TimelineHooks for Count {
            fn block_claimed(&self, _worker: usize, _block: usize) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let hooks = Count::default();
        None::<&Count>.block_claimed(0, 0);
        Some(&hooks).block_claimed(0, 0);
        assert_eq!(hooks.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn every_claimed_block_lands_on_exactly_one_lane() {
        let report = sample_recorder().report(250);
        let mut seen: Vec<u64> = report
            .lanes
            .iter()
            .flat_map(|l| l.spans.iter())
            .filter(|s| s.kind == SpanKind::Block)
            .map(|s| s.detail)
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
        let claimed: u64 = report.lanes.iter().map(|l| l.blocks).sum();
        assert_eq!(claimed, report.blocks_total);
        assert_eq!(claimed, 3);
    }

    #[test]
    fn busy_plus_idle_is_wall_even_when_wall_lags_the_spans() {
        // Caller snapshots with a stale wall: the fold stretches it to
        // the latest event instead of going negative.
        let report = sample_recorder().report(0);
        assert_eq!(report.wall_ns, 210);
        for lane in &report.lanes {
            assert_eq!(lane.busy_ns + lane.idle_ns, report.wall_ns, "{}", lane.name);
        }
    }

    #[test]
    fn tile_spans_nest_inside_their_block_and_do_not_double_charge() {
        let rec = TimelineRecorder::new(1);
        rec.block_claimed(0, 0, 100);
        rec.tile_walked(0, 0, 150);
        rec.tile_walked(0, 1, 220);
        rec.block_finished(0, 0, 230);
        let report = rec.report(230);
        let lane = &report.lanes[0];
        // busy counts only the block span [100, 230], not the tiles
        assert_eq!(lane.busy_ns, 130);
        let tiles: Vec<&TrackSpan> = lane
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Tile)
            .collect();
        assert_eq!(tiles.len(), 2);
        assert_eq!((tiles[0].start_ns, tiles[0].end_ns), (100, 150));
        assert_eq!((tiles[1].start_ns, tiles[1].end_ns), (150, 220));
        let block = lane
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Block)
            .unwrap();
        for t in tiles {
            assert!(t.start_ns >= block.start_ns && t.end_ns <= block.end_ns);
        }
    }

    #[test]
    fn named_lanes_and_explicit_spans_serve_the_engine() {
        let rec = TimelineRecorder::with_names(&["server", "queue"]);
        rec.span(0, SpanKind::Service, 7, 100, 400);
        rec.span(1, SpanKind::QueueWait, 7, 50, 100);
        rec.mark(0, 250, "degrade:large-tile");
        let report = rec.report(500);
        assert_eq!(report.lanes[0].name, "server");
        assert_eq!(report.lanes[0].busy_ns, 300);
        // queue-wait is not busy time
        assert_eq!(report.lanes[1].busy_ns, 0);
        assert_eq!(report.lanes[1].spans[0].kind, SpanKind::QueueWait);
        assert_eq!(
            report.lanes[0].marks,
            vec![(250, "degrade:large-tile".into())]
        );
    }

    #[test]
    fn empty_recorder_reports_balanced_idle() {
        let report = TimelineRecorder::new(3).report(1000);
        assert_eq!(report.blocks_total, 0);
        assert_eq!(report.busy_ns_total, 0);
        assert_eq!(report.utilization, 0.0);
        assert_eq!(report.imbalance, 1.0);
        for lane in &report.lanes {
            assert_eq!(lane.idle_ns, 1000);
        }
    }

    #[test]
    fn report_json_round_trips() {
        let report = sample_recorder().report(250);
        let json = report.to_json();
        let back = TimelineReport::from_json(&json).expect("report must parse back");
        assert_eq!(back, report);
        assert!(TimelineReport::from_json("{}").is_err());
        assert!(TimelineReport::from_json("not json").is_err());
    }

    #[test]
    fn report_json_is_versioned_and_rejects_unknown_majors() {
        let json = sample_recorder().report(250).to_json();
        assert!(json.contains("\"schema_version\": \"1.0\""), "{json}");
        let future = json.replace("\"schema_version\": \"1.0\"", "\"schema_version\": \"2.0\"");
        let err = TimelineReport::from_json(&future).unwrap_err();
        assert!(err.contains("major version"), "{err}");
        let minor = json.replace("\"schema_version\": \"1.0\"", "\"schema_version\": \"1.9\"");
        assert!(TimelineReport::from_json(&minor).is_ok());
        let legacy = json.replace("\"schema_version\": \"1.0\",", "");
        assert!(TimelineReport::from_json(&legacy).is_ok());
    }

    #[test]
    fn null_timeline_hooks_are_callable_no_ops() {
        let t = NullTimeline;
        t.worker_started(0);
        t.scratch_reserved(0, 1024);
        t.block_claimed(0, 0);
        t.tile_walked(0, 0, 0);
        t.block_finished(0, 0, 1);
        t.worker_finished(0);
    }

    #[test]
    fn recorder_is_usable_from_parallel_workers() {
        let rec = TimelineRecorder::new(4);
        rayon::scope_broadcast(4, |w| {
            rec.worker_started(w, w as u64);
            for b in 0..8u64 {
                let t0 = (w as u64) * 1000 + b * 100;
                rec.block_claimed(w, b * 4 + w as u64, t0);
                rec.tile_walked(w, 0, t0 + 40);
                rec.block_finished(w, b * 4 + w as u64, t0 + 80);
            }
            rec.worker_finished(w, (w as u64) * 1000 + 900);
        });
        let report = rec.report(5000);
        assert_eq!(report.blocks_total, 32);
        let mut blocks: Vec<u64> = report
            .lanes
            .iter()
            .flat_map(|l| l.spans.iter())
            .filter(|s| s.kind == SpanKind::Block)
            .map(|s| s.detail)
            .collect();
        blocks.sort_unstable();
        assert_eq!(blocks, (0..32).collect::<Vec<u64>>());
        for lane in &report.lanes {
            assert_eq!(lane.busy_ns + lane.idle_ns, report.wall_ns);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Per-lane `busy + idle == wall` for arbitrary span soups,
            /// including walls that lag the recorded spans.
            #[test]
            fn busy_plus_idle_always_sums_to_wall(
                spans in proptest::collection::vec(
                    (0u64..3, 0u64..10_000, 0u64..10_000), 0..40),
                wall in 0u64..20_000,
                workers in 1usize..5,
            ) {
                let rec = TimelineRecorder::new(workers);
                for (i, (kind, a, b)) in spans.iter().enumerate() {
                    let kind = match kind {
                        0 => SpanKind::Block,
                        1 => SpanKind::Service,
                        _ => SpanKind::Tile,
                    };
                    let (start, end) = (*a.min(b), *a.max(b));
                    rec.span(i % workers, kind, i as u64, start, end);
                }
                let report = rec.report(wall);
                for lane in &report.lanes {
                    prop_assert_eq!(lane.busy_ns + lane.idle_ns, report.wall_ns);
                    prop_assert!(lane.utilization >= 0.0 && lane.utilization <= 1.0);
                }
                prop_assert!(report.imbalance >= 1.0 - 1e-9);
            }
        }
    }
}
