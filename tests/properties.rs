//! Property-based tests over the core invariants, spanning crates.
//!
//! Strategy notes: distance values are generated positive and finite
//! (k-NN distances are sums of squares); sizes are kept small because
//! each case runs a full simulated warp where the GPU path is involved.

use gpu_kselect::kselect::bitonic;
use gpu_kselect::kselect::buffered::{buffered_select_into, BufferConfig};
use gpu_kselect::kselect::gpu::{gpu_select_k, DistanceMatrix};
use gpu_kselect::kselect::hierarchical::{select_top_down, Hierarchy, HpConfig};
use gpu_kselect::kselect::queues::{select_into, KQueue};
use gpu_kselect::prelude::*;
use proptest::prelude::*;

fn dm_from(rows: &[Vec<f32>]) -> DistanceMatrix {
    DistanceMatrix::from_row_major(&rows.concat(), rows.len(), rows[0].len())
}

fn oracle(dists: &[f32], k: usize) -> Vec<f32> {
    let mut v = dists.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v.truncate(k);
    v
}

/// Positive finite distances, possibly with heavy duplication (the
/// `dup_mod` shrinks the value space to force ties).
fn dist_vec(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    (1usize..=max_len, 1u32..=1000).prop_flat_map(|(len, dup_mod)| {
        proptest::collection::vec(0u32..dup_mod, len)
            .prop_map(|v| v.into_iter().map(|x| x as f32 * 0.125).collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn native_queues_select_k_smallest(dists in dist_vec(800), k in 1usize..64) {
        let expect = oracle(&dists, k.min(dists.len()));
        for kind in QueueKind::ALL {
            let kk = if kind == QueueKind::Merge { k.next_power_of_two().max(8) } else { k };
            let expect_k = oracle(&dists, kk.min(dists.len()));
            let got: Vec<f32> = select_k(&dists, &SelectConfig::plain(kind, kk))
                .iter().map(|n| n.dist).collect();
            prop_assert_eq!(&got, &expect_k, "{}", kind);
        }
        // Insertion queue with the raw k as well (no power-of-two need).
        let got: Vec<f32> = select_k(&dists, &SelectConfig::plain(QueueKind::Insertion, k))
            .iter().map(|n| n.dist).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn merge_queue_invariant_always_holds(dists in dist_vec(400), m_exp in 0u32..4, j in 1u32..4) {
        let m = 1usize << m_exp;
        let k = m << j;
        let mut q = MergeQueue::new(k, m);
        for (i, &d) in dists.iter().enumerate() {
            if d < q.max() {
                q.offer(d, i as u32);
            }
            prop_assert!(q.invariant_holds(), "broken after offering {d}");
        }
        let got: Vec<f32> = q.into_sorted().iter().map(|n| n.dist).collect();
        prop_assert_eq!(got, oracle(&dists, k.min(dists.len())));
    }

    #[test]
    fn buffered_matches_direct(dists in dist_vec(600), k in 1usize..48,
                               size in 1usize..64, sorted in any::<bool>()) {
        let cfg = BufferConfig { size, sorted, intra_warp: true };
        let mut direct = HeapQueue::new(k);
        select_into(&mut direct, &dists, 0);
        let mut buffered = HeapQueue::new(k);
        buffered_select_into(&mut buffered, &dists, &cfg);
        let a: Vec<f32> = direct.into_sorted().iter().map(|n| n.dist).collect();
        let b: Vec<f32> = buffered.into_sorted().iter().map(|n| n.dist).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn hierarchy_is_exact(dists in dist_vec(1000), k in 1usize..32, g in 2usize..9) {
        let h = Hierarchy::build(&dists, g, k);
        let got: Vec<f32> = select_top_down(&dists, &h, k).iter().map(|n| n.dist).collect();
        prop_assert_eq!(got, oracle(&dists, k.min(dists.len())));
        // Space bound from the paper: ≤ N/(G-1) + per-level rounding.
        prop_assert!(h.extra_space() <= dists.len() / (g - 1) + h.depth() * 2 + 1);
    }

    #[test]
    fn reverse_bitonic_merge_sorts_same_order_runs(
        mut half_a in proptest::collection::vec(0u32..64, 1usize..=32),
        seed in any::<u64>(),
    ) {
        // Build two equal-length descending runs (power-of-two total).
        let len = half_a.len().next_power_of_two();
        half_a.resize(len, 0);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut a: Vec<f32> = half_a.iter().map(|&x| x as f32).collect();
        let mut b: Vec<f32> = (0..len).map(|_| rng.gen_range(0u32..64) as f32).collect();
        a.sort_by(|x, y| y.partial_cmp(x).unwrap());
        b.sort_by(|x, y| y.partial_cmp(x).unwrap());
        let mut v = a;
        v.extend(b);
        let mut expect = v.clone();
        expect.sort_by(|x, y| y.partial_cmp(x).unwrap());
        let mut ids = vec![0u32; v.len()];
        bitonic::reverse_bitonic_merge(&mut v, &mut ids);
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn baselines_match_oracle(dists in dist_vec(700), k in 1usize..40) {
        let expect = oracle(&dists, k.min(dists.len()));
        let tbs: Vec<f32> = tbs_select(&dists, k).iter().map(|n| n.dist).collect();
        prop_assert_eq!(&tbs, &expect);
        let qms: Vec<f32> = qms_select(&dists, k).iter().map(|n| n.dist).collect();
        prop_assert_eq!(&qms, &expect);
        let bucket: Vec<f32> = baselines::bucket_select(&dists, k).iter().map(|n| n.dist).collect();
        prop_assert_eq!(&bucket, &expect);
        let radix: Vec<f32> = baselines::radix_select(&dists, k).iter().map(|n| n.dist).collect();
        prop_assert_eq!(&radix, &expect);
    }
}

proptest! {
    // The simulated-GPU cases run whole warps; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn gpu_kernels_match_oracle(seed in any::<u64>(), k_exp in 3u32..6,
                                 aligned in any::<bool>(), buffered in any::<bool>(),
                                 hp in any::<bool>(), kind_sel in 0usize..3) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 300;
        let k = 1usize << k_exp;
        let rows: Vec<Vec<f32>> = (0..32)
            .map(|_| (0..n).map(|_| (rng.gen_range(0u32..256)) as f32).collect())
            .collect();
        let dm = dm_from(&rows);
        let kind = QueueKind::ALL[kind_sel];
        let mut cfg = SelectConfig::plain(kind, k).with_aligned(aligned);
        if buffered {
            cfg.buffer = Some(BufferConfig::default());
        }
        if hp {
            cfg.hp = Some(HpConfig { g: 4 });
        }
        let res = gpu_select_k(&GpuSpec::tesla_c2075(), &dm, &cfg);
        for (qi, row) in rows.iter().enumerate() {
            let got: Vec<f32> = res.neighbors[qi].iter().map(|nb| nb.dist).collect();
            prop_assert_eq!(&got, &oracle(row, k), "query {} cfg {}", qi, cfg.label());
        }
    }

    #[test]
    fn simulator_metrics_are_consistent(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..32)
            .map(|_| (0..200).map(|_| rng.gen::<f32>()).collect())
            .collect();
        let dm = dm_from(&rows);
        let res = gpu_select_k(
            &GpuSpec::tesla_c2075(),
            &dm,
            &SelectConfig::plain(QueueKind::Heap, 16),
        );
        let m = res.metrics;
        prop_assert!(m.lane_work <= m.issued * 32);
        prop_assert!(m.divergent_branches <= m.branches);
        prop_assert!(m.simt_efficiency() <= 1.0 && m.simt_efficiency() > 0.0);
        prop_assert!(m.coalescing_efficiency(128) <= 1.0);
        // Rerunning is bit-identical (determinism).
        let res2 = gpu_select_k(
            &GpuSpec::tesla_c2075(),
            &dm,
            &SelectConfig::plain(QueueKind::Heap, 16),
        );
        prop_assert_eq!(m, res2.metrics);
    }
}
