//! Native queue micro-benchmarks: cost of maintaining the running k-best
//! under a realistic accept/reject stream (the Fig. 5 workload measured
//! in wall-clock instead of update counts).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use kselect::queues::{select_into, HeapQueue, InsertionQueue, KQueue, MergeQueue};
use rand::{Rng, SeedableRng};

fn dists(n: usize) -> Vec<f32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    (0..n).map(|_| rng.gen()).collect()
}

fn bench_queues(c: &mut Criterion) {
    let n = 1 << 15;
    let data = dists(n);
    let mut g = c.benchmark_group("queue_kselect_n32768");
    g.sample_size(20);
    for &k in &[32usize, 256, 1024] {
        g.bench_with_input(BenchmarkId::new("insertion", k), &k, |b, &k| {
            b.iter(|| {
                let mut q = InsertionQueue::new(k);
                select_into(&mut q, black_box(&data), 0);
                black_box(q.max())
            })
        });
        g.bench_with_input(BenchmarkId::new("heap", k), &k, |b, &k| {
            b.iter(|| {
                let mut q = HeapQueue::new(k);
                select_into(&mut q, black_box(&data), 0);
                black_box(q.max())
            })
        });
        g.bench_with_input(BenchmarkId::new("merge", k), &k, |b, &k| {
            b.iter(|| {
                let mut q = MergeQueue::new(k, 8);
                select_into(&mut q, black_box(&data), 0);
                black_box(q.max())
            })
        });
    }
    g.finish();

    // m sweep for the merge queue (the paper fixes m = 8 experimentally).
    let mut g = c.benchmark_group("merge_queue_m_sweep_k256");
    g.sample_size(20);
    for &m in &[1usize, 2, 4, 8, 16, 32] {
        g.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, &m| {
            b.iter(|| {
                let mut q = MergeQueue::new(256, m);
                select_into(&mut q, black_box(&data), 0);
                black_box(q.max())
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_queues
}
criterion_main!(benches);
