//! Property tests for the blocked distance kernel and the block-claim
//! executor.
//!
//! Eight contracts are exercised here:
//!
//! 1. `block::squared_distances` must equal the scalar
//!    `squared_distance` **bit-for-bit** for every pair — the blocked
//!    kernel changes the iteration order over pairs, never the
//!    accumulation order within a pair. Dimensions and sizes straddle
//!    the LANES / QUERY_BLOCK / REF_TILE edges on purpose.
//! 2. `knn_search_streamed_parallel` on one worker must return the
//!    neighbors of the independent full-sort oracle `ground_truth` for
//!    arbitrary Q/N/k/tile, including tiles smaller than k, tiles
//!    larger than N, duplicated distances (tie-breaking), and
//!    non-finite coordinates (overflow to +inf).
//! 3. The runtime-dispatched SIMD row kernel (`simd::fill_rows`) must
//!    reproduce both the portable 8-accumulator kernel and the scalar
//!    reference bit-for-bit at the edge dimensions {1, 7, 8, 9, 127,
//!    128} — the dims where the vector main loop, its 4-reference
//!    register block and the scalar tail all change shape — for row
//!    ranges straddling the REF_TILE edge, and under the non-finite
//!    clamp policy.
//! 4. `knn_search_streamed_parallel` must return exactly the same
//!    neighbors at 2 and 8 threads as on one worker — the work-stealing
//!    schedule moves blocks between workers, never the per-query merge
//!    order.
//! 5. A `TileBudget` cancels the executor at exactly its boundary, and
//!    a budget covering every tile returns the uncancelled result, at
//!    every thread count.
//! 6. Every `Metric` at threads {1, 2, 8} and tiles {1, < k, > N}
//!    matches `ground_truth`, non-finite inputs included, with rows of
//!    fewer than k finite distances padded by their +inf references.
//! 7. For every queue kind, tiles {1, < k, N, > N} and threads
//!    {1, 2, 8}, the executor returns exactly — ids and distance bits —
//!    what plain `select_k` returns over each query's full row.
//! 8. A point set's cached norms change no result: a search on sets
//!    whose norms an earlier search filled equals the same search on
//!    fresh copies and `ground_truth`, one set on both sides included.

use knn::{
    block, clamp_non_finite, ground_truth, knn_search_streamed_parallel, simd, squared_distance,
    squared_norm, Metric, PointSet,
};
use kselect::{QueueKind, SelectConfig};
use proptest::prelude::*;

/// The dimensions the SIMD contract is pinned at: 1 and 7 exercise the
/// pure-tail path, 8 the single full LANES chunk, 9 a chunk plus tail,
/// 127/128 the register-blocked main loop with and without a tail.
const EDGE_DIMS: [usize; 6] = [1, 7, 8, 9, 127, 128];

/// Each query's distance bits, in rank order.
fn dist_bits(rows: &[Vec<kselect::Neighbor>]) -> Vec<Vec<u32>> {
    rows.iter()
        .map(|r| r.iter().map(|nb| nb.dist.to_bits()).collect())
        .collect()
}

/// The largest power of two not above `n` (`n ≥ 1`).
fn prev_power_of_two(n: usize) -> usize {
    1 << (usize::BITS - 1 - n.leading_zeros())
}

/// A random point set with the given shape; coordinates in [-4, 4).
fn points(count: usize, dim: usize) -> impl Strategy<Value = PointSet> {
    proptest::collection::vec(0u32..4096, count * dim).prop_map(move |raw| {
        let flat: Vec<f32> = raw.iter().map(|&x| x as f32 / 512.0 - 4.0).collect();
        PointSet::from_flat(flat, dim)
    })
}

/// The exact k nearest by full sort over the scalar per-pair distance,
/// with no norm cache anywhere on the path: ascending by distance, ties
/// by id.
fn scalar_truth(queries: &PointSet, refs: &PointSet, k: usize) -> Vec<Vec<kselect::Neighbor>> {
    (0..queries.len())
        .map(|qi| {
            let mut row: Vec<kselect::Neighbor> = (0..refs.len())
                .map(|ri| {
                    let d = clamp_non_finite(squared_distance(queries.point(qi), refs.point(ri)));
                    kselect::Neighbor::new(d, ri as u32)
                })
                .collect();
            kselect::types::sort_neighbors(&mut row);
            row.truncate(k);
            row
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Blocked kernel == scalar kernel, bit for bit, across odd dims
    /// (straddling LANES = 8) and sizes straddling the query-block and
    /// reference-tile boundaries.
    #[test]
    fn blocked_matches_scalar_bitwise(
        q in 1usize..40,     // QUERY_BLOCK = 32 sits inside this range
        n in 1usize..300,    // REF_TILE = 256 sits inside this range
        dim in 1usize..20,   // straddles LANES = 8 and its multiples
        seed in 0u64..1000,
    ) {
        let queries = PointSet::uniform(q, dim, seed);
        let refs = PointSet::uniform(n, dim, seed ^ 0xD15);
        let m = block::squared_distances(&queries, &refs);
        prop_assert_eq!(m.q(), q);
        prop_assert_eq!(m.n(), n);
        for qi in 0..q {
            for ri in 0..n {
                let scalar = squared_distance(queries.point(qi), refs.point(ri));
                prop_assert_eq!(
                    m.at(qi, ri).to_bits(),
                    scalar.to_bits(),
                    "({}, {}): blocked {} vs scalar {}",
                    qi, ri, m.at(qi, ri), scalar
                );
            }
        }
    }

    /// One-worker streamed search == the full-sort oracle, exactly
    /// (distances AND ids where the queue fixes them), for arbitrary
    /// tile sizes including tile < k and tile > N, with heavily
    /// duplicated coordinates to force ties.
    #[test]
    fn streamed_matches_ground_truth(
        qs in points(7, 5),
        n in 1usize..200,
        k_raw in 1usize..32,
        tile in 1usize..256,
        dup_mod in 1u32..8,
    ) {
        let refs = {
            // Quantize coordinates so many reference points collide,
            // exercising the (dist, id) tie-break in the merge path.
            let base = PointSet::uniform(n, 5, 99);
            let flat: Vec<f32> = base
                .as_flat()
                .iter()
                .map(|&x| ((x * dup_mod as f32) as i32) as f32)
                .collect();
            PointSet::from_flat(flat, 5)
        };
        let k = k_raw.min(n);
        // Tie semantics: the insertion queue keeps the first-seen
        // (lowest-id) candidate among equals at the cut, and the
        // streamed merge and the oracle's sort resolve ties by
        // (dist, id) — so the two agree on ids exactly. The heap and
        // merge queues evict id-arbitrarily among equal distances
        // (whichever tied element reached the root / survived the
        // bitonic repair), so for them the invariant is the distance
        // sequence: the multiset of the k smallest distances is unique.
        for kind in [QueueKind::Insertion, QueueKind::Heap, QueueKind::Merge] {
            // The merge queue wants a power-of-two k; skip it when that
            // rounds past the reference count.
            let kk = if kind == QueueKind::Merge { k.next_power_of_two().max(8) } else { k };
            if kk > n {
                continue;
            }
            let cfg = SelectConfig::plain(kind, kk);
            let truth = ground_truth(&qs, &refs, kk, Metric::SquaredEuclidean);
            let streamed = knn_search_streamed_parallel(&qs, &refs, &cfg, tile, 1);
            if kind == QueueKind::Insertion {
                prop_assert_eq!(&streamed, &truth, "tile {}", tile);
            } else {
                prop_assert_eq!(dist_bits(&streamed), dist_bits(&truth), "kind {:?} tile {}", kind, tile);
            }
        }
    }

    /// The executor's one-queue-per-query scan makes the offers of one
    /// scan over the whole row, so for every queue kind, with the forced
    /// ties of `streamed_matches_ground_truth`, at tiles {1, < k, N, > N}
    /// and threads {1, 2, 8}, each query's neighbors equal plain
    /// `select_k` over its full distance row: ids and distance bits.
    #[test]
    fn streamed_matches_full_row_select_k_for_every_queue(
        q in 1usize..40,
        n in 8usize..200,
        k_raw in 1usize..32,
        dup_mod in 1u32..8,
    ) {
        let queries = PointSet::uniform(q, 5, 98);
        let refs = {
            let base = PointSet::uniform(n, 5, 99);
            let flat: Vec<f32> = base
                .as_flat()
                .iter()
                .map(|&x| ((x * dup_mod as f32) as i32) as f32)
                .collect();
            PointSet::from_flat(flat, 5)
        };
        let rows = block::squared_distances(&queries, &refs);
        for kind in QueueKind::ALL {
            let k = if kind == QueueKind::Merge {
                (k_raw.next_power_of_two().max(8)).min(prev_power_of_two(n))
            } else {
                k_raw.min(n)
            };
            let cfg = SelectConfig::plain(kind, k);
            let full: Vec<Vec<kselect::Neighbor>> =
                (0..q).map(|qi| kselect::select_k(rows.row(qi), &cfg)).collect();
            for tile in [1, (k - 1).max(1), n, n + 1] {
                for threads in [1usize, 2, 8] {
                    let got = knn_search_streamed_parallel(&queries, &refs, &cfg, tile, threads);
                    prop_assert_eq!(
                        got.iter().map(|r| r.iter().map(|nb| nb.id).collect()).collect::<Vec<Vec<u32>>>(),
                        full.iter().map(|r| r.iter().map(|nb| nb.id).collect()).collect::<Vec<Vec<u32>>>(),
                        "{:?} k {} tile {} threads {}", kind, k, tile, threads
                    );
                    prop_assert_eq!(
                        dist_bits(&got), dist_bits(&full),
                        "{:?} k {} tile {} threads {}", kind, k, tile, threads
                    );
                }
            }
        }
    }

    /// Non-finite inputs: coordinates at f32::MAX overflow the squared
    /// norm to +inf; the clamp_non_finite policy must apply identically
    /// on the one-worker streamed path and the oracle.
    #[test]
    fn streamed_matches_ground_truth_non_finite(
        poison in proptest::collection::vec(0usize..64, 4),
        tile in 1usize..80,
    ) {
        let qs = PointSet::uniform(5, 4, 7);
        let mut flat = PointSet::uniform(64, 4, 8).as_flat().to_vec();
        for &p in &poison {
            flat[p * 4] = f32::MAX; // squared -> +inf -> clamped policy
        }
        let refs = PointSet::from_flat(flat, 4);
        let cfg = SelectConfig::optimized(QueueKind::Merge, 8);
        let truth = ground_truth(&qs, &refs, 8, Metric::SquaredEuclidean);
        let streamed = knn_search_streamed_parallel(&qs, &refs, &cfg, tile, 1);
        prop_assert_eq!(streamed, truth);
    }

    /// Every metric runs on the executor: at threads {1, 2, 8} and
    /// tiles of 1, below k and past N, the neighbors equal the oracle's
    /// — ids included, since the insertion queue and the oracle both
    /// break ties by lowest id — with overflowing and NaN coordinates
    /// clamped to +inf on both sides. A row with fewer than k finite
    /// distances is padded with its +inf references, lowest id first,
    /// as the oracle's sort orders them.
    #[test]
    fn every_metric_matches_ground_truth(
        q in 1usize..40,
        n in 1usize..120,
        k_raw in 2usize..12,
        poison in proptest::collection::vec((0usize..120, 0usize..3), 0..4),
        seed in 0u64..1000,
    ) {
        let queries = PointSet::uniform(q, 3, seed);
        let mut flat = PointSet::uniform(n, 3, seed ^ 0xAB).as_flat().to_vec();
        for &(p, kind) in &poison {
            flat[(p % n) * 3] = [f32::MAX, -f32::MAX, f32::NAN][kind];
        }
        let refs = PointSet::from_flat(flat, 3);
        let k = k_raw.min(n);
        let cfg = SelectConfig::plain(QueueKind::Insertion, k);
        for metric in [
            Metric::SquaredEuclidean,
            Metric::Manhattan,
            Metric::Cosine,
            Metric::NegativeDot,
        ] {
            let truth = ground_truth(&queries, &refs, k, metric);
            for tile in [1, (k - 1).max(1), n + 1] {
                for threads in [1usize, 2, 8] {
                    let got = knn::knn_search_streamed_parallel_timelined(
                        &queries, &refs, &cfg, metric, tile, threads,
                        &knn::NullObserver, &knn::NeverCancel, &trace::NullTimeline,
                    ).expect("NeverCancel cannot trip");
                    prop_assert_eq!(
                        &got, &truth,
                        "{:?} tile {} threads {}", metric, tile, threads
                    );
                }
            }
        }
    }

    /// The dispatched SIMD row kernel, the portable kernel and the
    /// scalar reference agree bit-for-bit at every edge dimension, for
    /// row ranges of arbitrary offset and length (straddling the
    /// REF_TILE = 256 edge when `n` allows).
    #[test]
    fn simd_rows_match_scalar_bitwise_at_edge_dims(
        n in 1usize..300,
        r0_frac in 0u32..1000,
        len_raw in 1usize..300,
        seed in 0u64..1000,
    ) {
        for dim in EDGE_DIMS {
            let queries = PointSet::uniform(1, dim, seed);
            let refs = PointSet::uniform(n, dim, seed ^ 0x51D);
            let qp = queries.point(0);
            let norm_q = squared_norm(qp);
            let ref_norms = block::norms(&refs);
            let r0 = (r0_frac as usize * n / 1000).min(n - 1);
            let len = len_raw.min(n - r0);
            let mut dispatched = vec![0.0f32; len];
            let mut portable = vec![0.0f32; len];
            simd::fill_rows(qp, norm_q, &refs, ref_norms, r0, &mut dispatched);
            simd::fill_rows_portable(qp, norm_q, &refs, ref_norms, r0, &mut portable);
            for j in 0..len {
                let scalar = clamp_non_finite(squared_distance(qp, refs.point(r0 + j)));
                prop_assert_eq!(
                    dispatched[j].to_bits(),
                    scalar.to_bits(),
                    "dim {} row {}: {} ({}) vs scalar {}",
                    dim, r0 + j, dispatched[j], simd::dispatch_name(), scalar
                );
                prop_assert_eq!(
                    portable[j].to_bits(),
                    scalar.to_bits(),
                    "dim {} row {}: portable {} vs scalar {}",
                    dim, r0 + j, portable[j], scalar
                );
            }
        }
    }

    /// Non-finite coordinates clamp identically on every kernel: a
    /// poisoned reference overflows its squared norm to +inf, and both
    /// the dispatched and portable kernels must emit the same clamped
    /// bits as the scalar policy at every edge dimension.
    #[test]
    fn simd_rows_clamp_non_finite_identically(
        poison in proptest::collection::vec(0usize..48, 1..5),
        seed in 0u64..200,
    ) {
        for dim in EDGE_DIMS {
            let queries = PointSet::uniform(1, dim, seed);
            let mut flat = PointSet::uniform(48, dim, seed ^ 0xF1F).as_flat().to_vec();
            for &p in &poison {
                flat[p * dim] = f32::MAX; // squared -> +inf -> clamp policy
            }
            let refs = PointSet::from_flat(flat, dim);
            let qp = queries.point(0);
            let norm_q = squared_norm(qp);
            let ref_norms = block::norms(&refs);
            let mut dispatched = vec![0.0f32; 48];
            let mut portable = vec![0.0f32; 48];
            simd::fill_rows(qp, norm_q, &refs, ref_norms, 0, &mut dispatched);
            simd::fill_rows_portable(qp, norm_q, &refs, ref_norms, 0, &mut portable);
            for j in 0..48 {
                let scalar = clamp_non_finite(squared_distance(qp, refs.point(j)));
                prop_assert_eq!(dispatched[j].to_bits(), scalar.to_bits(), "dim {} row {}", dim, j);
                prop_assert_eq!(portable[j].to_bits(), scalar.to_bits(), "dim {} row {}", dim, j);
            }
        }
    }

    /// The streamed executor returns *identical* neighbors — distances
    /// and ids — at thread counts 2 and 8 as on one worker, for query
    /// counts straddling the QUERY_BLOCK = 32 scheduling unit, tiles
    /// straddling REF_TILE, and every queue kind. Heavily quantized
    /// coordinates force distance ties, so this also proves the merge
    /// order (not just the value set) is thread-count-invariant.
    #[test]
    fn parallel_streamed_identical_at_any_thread_count(
        q in 1usize..70,      // 1–2 blocks plus a partial third
        n in 1usize..300,
        k_raw in 1usize..16,
        tile in 1usize..300,
        dup_mod in 1u32..8,
        seed in 0u64..1000,
    ) {
        let queries = PointSet::uniform(q, 6, seed);
        let refs = {
            let base = PointSet::uniform(n, 6, seed ^ 0x9A7);
            let flat: Vec<f32> = base
                .as_flat()
                .iter()
                .map(|&x| ((x * dup_mod as f32) as i32) as f32)
                .collect();
            PointSet::from_flat(flat, 6)
        };
        for kind in [QueueKind::Insertion, QueueKind::Heap, QueueKind::Merge] {
            let k = if kind == QueueKind::Merge {
                k_raw.min(n).next_power_of_two().max(8)
            } else {
                k_raw.min(n)
            };
            if k > n {
                continue;
            }
            let cfg = SelectConfig::plain(kind, k);
            let one = knn_search_streamed_parallel(&queries, &refs, &cfg, tile, 1);
            for threads in [2usize, 8] {
                let parallel =
                    knn_search_streamed_parallel(&queries, &refs, &cfg, tile, threads);
                prop_assert_eq!(
                    &parallel, &one,
                    "kind {:?} tile {} threads {}", kind, tile, threads
                );
            }
        }
    }

    /// With the timeline disabled ([`NullTimeline`]), the timelined
    /// entry point is byte-identical to the plain parallel pipeline —
    /// same neighbors, same distances, same order — at every thread
    /// count. This is the zero-cost-observer contract for the timeline
    /// layer: hooks that monomorphize to no-ops cannot perturb results.
    #[test]
    fn timeline_disabled_is_byte_identical_to_plain_parallel(
        q in 1usize..70,
        n in 1usize..300,
        k_raw in 1usize..16,
        tile in 1usize..300,
        threads in 1usize..9,
        seed in 0u64..1000,
    ) {
        use knn::{knn_search_streamed_parallel_timelined, NeverCancel, NullObserver};
        use trace::NullTimeline;
        let k = k_raw.min(n);
        let queries = PointSet::uniform(q, 6, seed);
        let refs = PointSet::uniform(n, 6, seed ^ 0x51D);
        let cfg = SelectConfig::plain(QueueKind::Heap, k);
        let plain = knn_search_streamed_parallel(&queries, &refs, &cfg, tile, threads);
        let timelined = knn_search_streamed_parallel_timelined(
            &queries, &refs, &cfg, Metric::SquaredEuclidean, tile, threads,
            &NullObserver, &NeverCancel, &NullTimeline,
        ).expect("NeverCancel cannot trip");
        prop_assert_eq!(timelined, plain);
    }

    /// Non-finite inputs flow through a worker pool exactly as through
    /// one worker: poisoned references clamp to the same bits and land
    /// in the same merge positions at 2 and 8 threads.
    #[test]
    fn parallel_streamed_non_finite_identical(
        poison in proptest::collection::vec(0usize..64, 4),
        tile in 1usize..80,
    ) {
        let qs = PointSet::uniform(37, 4, 7); // straddles QUERY_BLOCK
        let mut flat = PointSet::uniform(64, 4, 8).as_flat().to_vec();
        for &p in &poison {
            flat[p * 4] = f32::MAX;
        }
        let refs = PointSet::from_flat(flat, 4);
        let cfg = SelectConfig::optimized(QueueKind::Merge, 8);
        let one = knn_search_streamed_parallel(&qs, &refs, &cfg, tile, 1);
        for threads in [2usize, 8] {
            let parallel = knn_search_streamed_parallel(&qs, &refs, &cfg, tile, threads);
            prop_assert_eq!(&parallel, &one, "threads {}", threads);
        }
    }

    /// The norm cache is invisible in results. A search against a set
    /// whose norms an earlier search cached returns exactly — ids and
    /// distance bits — what the same search returns on fresh copies of
    /// the sets (cold caches), and both equal `ground_truth` on its own
    /// fresh copies (itself checked against a cache-free scalar sort),
    /// for every queue kind at threads {1, 2, 8}, with overflowing and
    /// NaN coordinates. The same holds when one set is both queries and
    /// references, as in `KnnGraph::build`, and for `KnnGraph::build`
    /// itself.
    #[test]
    fn warm_norm_cache_matches_cold_and_ground_truth(
        q in 1usize..40,
        n in 8usize..120,
        k_raw in 1usize..12,
        poison in proptest::collection::vec((0usize..120, 0usize..3), 0..4),
        seed in 0u64..1000,
    ) {
        const DIM: usize = 5;
        let query_flat = PointSet::uniform(q, DIM, seed).as_flat().to_vec();
        let mut ref_flat = PointSet::uniform(n, DIM, seed ^ 0xCD).as_flat().to_vec();
        for &(p, kind) in &poison {
            ref_flat[(p % n) * DIM] = [f32::MAX, -f32::MAX, f32::NAN][kind];
        }
        let fresh = |flat: &[f32]| PointSet::from_flat(flat.to_vec(), DIM);
        let queries = fresh(&query_flat);
        let refs = fresh(&ref_flat);
        // Warm both caches with an unrelated search.
        let warm_up = SelectConfig::plain(QueueKind::Insertion, 1);
        knn_search_streamed_parallel(&queries, &refs, &warm_up, n + 1, 1);
        knn_search_streamed_parallel(&refs, &refs, &warm_up, n + 1, 1);
        for kind in QueueKind::ALL {
            let k = if kind == QueueKind::Merge {
                (k_raw.next_power_of_two().max(8)).min(prev_power_of_two(n))
            } else {
                k_raw.min(n)
            };
            let cfg = SelectConfig::plain(kind, k);
            let truth = ground_truth(&fresh(&query_flat), &fresh(&ref_flat), k, Metric::SquaredEuclidean);
            let self_truth = ground_truth(&fresh(&ref_flat), &fresh(&ref_flat), k, Metric::SquaredEuclidean);
            // The oracle itself fills norm caches; pin it to the
            // cache-free scalar sort so a cache wrong everywhere at once
            // cannot pass.
            prop_assert_eq!(&truth, &scalar_truth(&queries, &refs, k));
            prop_assert_eq!(&self_truth, &scalar_truth(&refs, &refs, k));
            for threads in [1usize, 2, 8] {
                let warm = knn_search_streamed_parallel(&queries, &refs, &cfg, 7, threads);
                let cold = knn_search_streamed_parallel(
                    &fresh(&query_flat), &fresh(&ref_flat), &cfg, 7, threads,
                );
                prop_assert_eq!(&warm, &cold, "{:?} threads {}", kind, threads);
                prop_assert_eq!(dist_bits(&warm), dist_bits(&truth), "{:?} threads {}", kind, threads);
                prop_assert_eq!(&warm, &truth, "{:?} threads {}", kind, threads);

                let warm_self = knn_search_streamed_parallel(&refs, &refs, &cfg, 7, threads);
                let cold_self = {
                    let both = fresh(&ref_flat);
                    knn_search_streamed_parallel(&both, &both, &cfg, 7, threads)
                };
                prop_assert_eq!(&warm_self, &cold_self, "self {:?} threads {}", kind, threads);
                prop_assert_eq!(dist_bits(&warm_self), dist_bits(&self_truth), "self {:?} threads {}", kind, threads);
                prop_assert_eq!(&warm_self, &self_truth, "self {:?} threads {}", kind, threads);
            }
            if k < n {
                let warm_graph = knn::KnnGraph::build(&refs, k, Metric::SquaredEuclidean, &cfg);
                let cold_graph = knn::KnnGraph::build(&fresh(&ref_flat), k, Metric::SquaredEuclidean, &cfg);
                for i in 0..n {
                    prop_assert_eq!(warm_graph.neighbors(i), cold_graph.neighbors(i), "graph {:?} point {}", kind, i);
                }
            }
        }
    }

    /// `TileBudget(b)` stops the executor before tile `b`: every block
    /// trips at the same boundary, so below the tile count the search
    /// reports exactly `Cancelled { tiles_done: b, tiles_total }` and
    /// returns no partial results, and from the tile count up it
    /// returns the uncancelled neighbors — at every thread count.
    #[test]
    fn tile_budget_cancels_at_its_boundary_at_any_thread_count(
        q in 1usize..70,
        n in 1usize..300,
        tile in 1usize..120,
        budget_raw in 0usize..400,
        seed in 0u64..1000,
    ) {
        use knn::{knn_search_streamed_parallel_timelined, Cancelled, NullObserver, TileBudget};
        use trace::NullTimeline;
        let queries = PointSet::uniform(q, 4, seed);
        let refs = PointSet::uniform(n, 4, seed ^ 0xCA7);
        let cfg = SelectConfig::plain(QueueKind::Heap, 4.min(n));
        let tiles_total = n.div_ceil(tile);
        // Half the cases land below the tile count, half at or above it.
        let budget = budget_raw % (2 * tiles_total + 1);
        let full = knn_search_streamed_parallel(&queries, &refs, &cfg, tile, 1);
        for threads in [1usize, 2, 8] {
            let out = knn_search_streamed_parallel_timelined(
                &queries, &refs, &cfg, Metric::SquaredEuclidean, tile, threads,
                &NullObserver, &TileBudget(budget), &NullTimeline,
            );
            if budget < tiles_total {
                prop_assert_eq!(
                    out,
                    Err(Cancelled { tiles_done: budget, tiles_total }),
                    "threads {}", threads
                );
            } else {
                prop_assert_eq!(out.as_ref(), Ok(&full), "threads {}", threads);
            }
        }
    }
}

/// Journal invariants under the parallel scheduler. Gated on the
/// `metrics` feature because the journaled entry points live behind it.
/// Wall-clock nanoseconds legitimately differ between runs, so the
/// cross-thread-count comparison covers only the deterministic record
/// structure; the timing invariant checked per record is internal
/// consistency (phase sum == total).
#[cfg(feature = "metrics")]
mod journaled {
    use super::*;
    use knn::metered::knn_search_streamed_parallel_instrumented;
    use trace::{EventJournal, JournalConfig, NullTimeline, QueryRecord};

    /// The deterministic projection of a record: everything except the
    /// measured nanoseconds and the admission sequence number.
    fn structure(r: &QueryRecord) -> (u64, String, u64, u64, u64, u32, String, u32) {
        (
            r.query,
            r.queue.clone(),
            r.tile,
            r.merge_push,
            r.merge_reject,
            r.blocks,
            r.status.clone(),
            r.attempts,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every thread count journals the same records: one per query,
        /// identical structural fields in identical order, phase names
        /// in identical order, and each record's phase nanoseconds
        /// summing exactly to its total.
        #[test]
        fn parallel_journal_structure_invariant_across_thread_counts(
            q in 1usize..70,
            n in 1usize..300,
            tile in 1usize..300,
            seed in 0u64..1000,
        ) {
            let queries = PointSet::uniform(q, 6, seed);
            let refs = PointSet::uniform(n, 6, seed ^ 0x10E);
            let k = 8usize;
            if k > n {
                // Merge queue needs k <= n; shrink the workload instead
                // of skipping so tiny n still exercises the journal.
                let cfg = SelectConfig::plain(QueueKind::Insertion, n);
                let journal = EventJournal::new(JournalConfig::default());
                knn_search_streamed_parallel_instrumented(
                    &queries, &refs, &cfg, tile, 2, &journal, None, "prop", &NullTimeline,
                );
                prop_assert_eq!(journal.snapshot().len(), q);
                return Ok(());
            }
            let cfg = SelectConfig::plain(QueueKind::Merge, k);
            let mut baseline: Option<Vec<_>> = None;
            for threads in [1usize, 2, 8] {
                let journal = EventJournal::new(JournalConfig::default());
                knn_search_streamed_parallel_instrumented(
                    &queries, &refs, &cfg, tile, threads, &journal, None, "prop", &NullTimeline,
                );
                let snap = journal.snapshot();
                prop_assert_eq!(snap.len(), q, "one record per query at {} threads", threads);
                for r in &snap {
                    let phase_sum: u64 = r.phase_ns.iter().map(|(_, ns)| ns).sum();
                    prop_assert_eq!(
                        phase_sum, r.total_ns,
                        "threads {}: query {} total must equal its phase sum",
                        threads, r.query
                    );
                }
                let shape: Vec<_> = snap
                    .iter()
                    .map(|r| {
                        let phases: Vec<String> =
                            r.phase_ns.iter().map(|(name, _)| name.clone()).collect();
                        (structure(r), phases)
                    })
                    .collect();
                match &baseline {
                    None => baseline = Some(shape),
                    Some(b) => prop_assert_eq!(
                        &shape, b,
                        "journal structure must not depend on thread count ({} threads)",
                        threads
                    ),
                }
            }
        }
    }
}
