//! One benchmark run: set up a workload, time closed-loop requests,
//! check every answer, and reduce the timings to metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::adapter::{self, Neighbor, PointSet};
use crate::layers::{layer_metrics, LayerSplit, Passes};
use crate::stamp::{peak_rss_mib, THREADS};
use crate::stats::{median, p99};
use crate::workload::{matches, Inputs, Workload};

/// Times the inputs are built to measure `setup_s`.
const SETUP_REPEATS: usize = 9;
/// Fewest rounds a timed loop makes, however long they take: enough for
/// a median in end-to-end runs, fewer in traced runs, whose figures
/// have no bound.
const MIN_ROUNDS: usize = 5;
const MIN_TRACED_ROUNDS: usize = 3;
/// One-query requests the latency loop needs for a p99 with ten
/// samples beyond it.
const MIN_LATENCY_SAMPLES: usize = 1000;

/// A measured value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and how many of its calls were checked.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Sample counts behind the metrics, by name.
    pub samples: Vec<(&'static str, u64)>,
    /// Figures reported beside the metrics but not gated by a bound.
    pub ungated: Vec<Metric>,
}

/// A search call: queries and references in, neighbours out.
type SearchCall<'a> = Box<dyn FnMut(&PointSet, &PointSet) -> Vec<Vec<Neighbor>> + 'a>;

/// One timed series: a search call, the shape of the requests it
/// serves and how many calls it makes per round.
struct Series<'a> {
    shape: Workload,
    burst: usize,
    call: SearchCall<'a>,
}

impl<'a> Series<'a> {
    fn new(
        shape: Workload,
        burst: usize,
        call: impl FnMut(&PointSet, &PointSet) -> Vec<Vec<Neighbor>> + 'a,
    ) -> Self {
        Series {
            shape,
            burst,
            call: Box::new(call),
        }
    }
}

/// A workload with its inputs and their exact answers, plus the tally
/// of checked calls.
pub struct Bench {
    workload: Workload,
    inputs: Inputs,
    /// The exact answers for the whole query pool.
    truth: Vec<Neighbor>,
    /// Wall seconds of each input build.
    setup_secs: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Bench {
    /// Build the inputs `SETUP_REPEATS` times (keeping the last), then
    /// compute the exact answers and make one warm-up search, outside
    /// any timed region.
    pub fn new(workload: Workload, seed: u64) -> Bench {
        let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
        let mut inputs = None;
        for _ in 0..SETUP_REPEATS {
            drop(inputs.take());
            let t = Instant::now();
            inputs = Some(workload.inputs(seed));
            setup_secs.push(t.elapsed().as_secs_f64());
        }
        let inputs = inputs.expect("SETUP_REPEATS is positive");
        let truth = adapter::ground_truth(&inputs.queries, &inputs.refs, workload.k);
        adapter::search(
            workload.request(&inputs, 0),
            &inputs.refs,
            workload.k,
            THREADS,
        );
        Bench {
            workload,
            inputs,
            truth,
            setup_secs,
            attempted: 0,
            failed: 0,
        }
    }

    /// Time `series` in turns, round after round, until `budget` has
    /// passed and `min_rounds` rounds are done. In each round a series
    /// makes `burst` calls on the next requests of its shape. Taking
    /// turns spreads every series over the whole loop, so all of them
    /// go through the same swings in the shared host's speed. Each
    /// answer is checked after its clock stops; a wrong answer or a
    /// panic counts as failed. Returns each series' call times in
    /// seconds.
    fn timed(
        &mut self,
        budget: Duration,
        min_rounds: usize,
        series: &mut [Series],
    ) -> Vec<Vec<f64>> {
        let mut secs = vec![Vec::new(); series.len()];
        let start = Instant::now();
        for round in 0.. {
            if round >= min_rounds && start.elapsed() >= budget {
                break;
            }
            for (s, secs) in series.iter_mut().zip(&mut secs) {
                for i in round * s.burst..(round + 1) * s.burst {
                    let queries = s.shape.request(&self.inputs, i);
                    let t = Instant::now();
                    let got =
                        catch_unwind(AssertUnwindSafe(|| (s.call)(queries, &self.inputs.refs)));
                    secs.push(t.elapsed().as_secs_f64());
                    self.attempted += 1;
                    let want = s.shape.truth(&self.truth, i);
                    self.failed += u64::from(!got.is_ok_and(|got| matches(&got, want, s.shape.k)));
                }
            }
        }
        secs
    }

    /// Queries per second at the median call time.
    fn qps(&self, secs: &[f64]) -> f64 {
        self.workload.per_request as f64 / median(secs)
    }

    /// The end-to-end metrics (`--trace 0`): throughput of the
    /// workload's requests untraced and with the library's
    /// instrumentation on, latency of one-query requests (all three in
    /// turns), set-up time and peak memory.
    pub fn end_to_end(mut self, seconds: f64) -> Outcome {
        let w = self.workload;
        let k = w.k;
        let budget = Duration::from_secs_f64(seconds);
        let plain = |q: &PointSet, r: &PointSet| adapter::search(q, r, k, THREADS);
        let instrumented =
            |q: &PointSet, r: &PointSet| adapter::search_instrumented(q, r, k, THREADS).0;
        let (main, instrumented, latency) = if w.per_request == 1 {
            let [main, instrumented] = self
                .timed(
                    budget,
                    MIN_LATENCY_SAMPLES,
                    &mut [Series::new(w, 1, plain), Series::new(w, 1, instrumented)],
                )
                .try_into()
                .expect("two series");
            (main.clone(), instrumented, main)
        } else {
            let burst = MIN_LATENCY_SAMPLES.div_ceil(MIN_ROUNDS);
            let [main, instrumented, latency] = self
                .timed(
                    budget,
                    MIN_ROUNDS,
                    &mut [
                        Series::new(w, 1, plain),
                        Series::new(w, 1, instrumented),
                        Series::new(w.single(), burst, plain),
                    ],
                )
                .try_into()
                .expect("three series");
            (main, instrumented, latency)
        };
        let ms: Vec<f64> = latency.iter().map(|t| t * 1e3).collect();
        let (p99_ms, beyond) = p99(&ms).expect("the latency loop takes enough samples for a p99");
        let metrics = vec![
            metric("qps", self.qps(&main), "1/s"),
            metric("latency_p50_ms", median(&ms), "ms"),
            metric("instrumented_qps", self.qps(&instrumented), "1/s"),
            metric("peak_rss_mb", peak_rss_mib(), "MiB"),
            metric("setup_s", median(&self.setup_secs), "s"),
        ];
        let samples = vec![
            ("calls", main.len() as u64),
            ("latency_samples", ms.len() as u64),
            ("latency_beyond_p99", beyond as u64),
            ("instrumented_calls", instrumented.len() as u64),
            ("setup_repeats", self.setup_secs.len() as u64),
        ];
        let ungated = vec![metric("latency_p99_ms", p99_ms, "ms")];
        Outcome {
            metrics,
            attempted: self.attempted,
            failed: self.failed,
            samples,
            ungated,
        }
    }

    /// The per-layer metrics (`--trace 1`), from two loops of paired
    /// calls: untraced against instrumented at `THREADS` workers, and
    /// untraced against traced at 1 worker (the layers are timed
    /// without contention between workers).
    pub fn per_layer(mut self, seconds: f64) -> Outcome {
        let w = self.workload;
        let k = w.k;
        let half = Duration::from_secs_f64(seconds / 2.0);
        let mut timeline = Vec::new();
        let [parallel, instrumented] = self
            .timed(
                half,
                MIN_TRACED_ROUNDS,
                &mut [
                    Series::new(w, 1, |q, r| adapter::search(q, r, k, THREADS)),
                    Series::new(w, 1, |q, r| {
                        let (out, utilization, imbalance) =
                            adapter::search_instrumented(q, r, k, THREADS);
                        timeline.push((utilization, imbalance));
                        out
                    }),
                ],
            )
            .try_into()
            .expect("two series");
        let mut traced = Vec::new();
        let [serial, _] = self
            .timed(
                half,
                MIN_TRACED_ROUNDS,
                &mut [
                    Series::new(w, 1, |q, r| adapter::search(q, r, k, 1)),
                    Series::new(w, 1, |q, r| {
                        let (out, split) = adapter::search_traced(q, r, k, 1);
                        traced.push(split);
                        out
                    }),
                ],
            )
            .try_into()
            .expect("two series");
        let mut split = LayerSplit::default();
        traced.iter().for_each(|c| split.add(c));
        let traced_secs: Vec<f64> = traced.iter().map(|c| c.e2e_ns as f64 / 1e9).collect();
        let (utilization, imbalance): (Vec<f64>, Vec<f64>) = timeline.into_iter().unzip();
        let metrics = layer_metrics(
            &w,
            &split,
            &Passes {
                parallel: &parallel,
                serial: &serial,
                traced: &traced_secs,
                instrumented: &instrumented,
                utilization: &utilization,
                imbalance: &imbalance,
            },
        );
        let samples = vec![
            ("parallel_calls", parallel.len() as u64),
            ("instrumented_calls", instrumented.len() as u64),
            ("serial_calls", serial.len() as u64),
            ("traced_calls", split.calls),
        ];
        Outcome {
            metrics,
            attempted: self.attempted,
            failed: self.failed,
            samples,
            ungated: Vec::new(),
        }
    }
}

pub(crate) fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}
