//! Evaluation utilities: exact ground truth and recall@k.
//!
//! Everything in this workspace is exact k-NN, so recall against ground
//! truth is 1.0 by construction — these helpers exist for downstream
//! users who build *approximate* pipelines on top (e.g. subsampled or
//! filtered search, as in the authors' related HPDC'14 data-filtering
//! work) and for the integration tests that assert exactness.

use kselect::types::Neighbor;

use crate::dataset::PointSet;
use crate::metric::{distance_matrix_flat_with, Metric};

/// Exact k-NN ground truth by full sort, for every query: ascending by
/// distance, ties by id. Every query sorts in one reused row buffer, and
/// each returned row holds only its k neighbors.
pub fn ground_truth(
    queries: &PointSet,
    refs: &PointSet,
    k: usize,
    metric: Metric,
) -> Vec<Vec<Neighbor>> {
    let m = distance_matrix_flat_with(queries, refs, metric);
    let mut row: Vec<Neighbor> = Vec::with_capacity(m.n());
    (0..m.q())
        .map(|qi| {
            row.clear();
            row.extend(
                m.row(qi)
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| Neighbor::new(d, i as u32)),
            );
            kselect::types::sort_neighbors(&mut row);
            row[..k.min(row.len())].to_vec()
        })
        .collect()
}

/// Fraction of the true k nearest ids found by `result` (order ignored;
/// ties at the boundary mean several id sets are equally correct, so
/// recall is computed on ids *and* credited for distance-ties).
pub fn recall_at_k(result: &[Neighbor], truth: &[Neighbor], k: usize) -> f64 {
    assert!(k > 0);
    let k = k.min(truth.len());
    if k == 0 {
        return 1.0;
    }
    let boundary = truth[k - 1].dist;
    let hits = result
        .iter()
        .take(k)
        .filter(|r| truth[..k].iter().any(|t| t.id == r.id) || r.dist <= boundary)
        .count();
    hits as f64 / k as f64
}

/// Mean recall@k across queries.
pub fn mean_recall(results: &[Vec<Neighbor>], truths: &[Vec<Neighbor>], k: usize) -> f64 {
    assert_eq!(results.len(), truths.len());
    if results.is_empty() {
        return 1.0;
    }
    results
        .iter()
        .zip(truths)
        .map(|(r, t)| recall_at_k(r, t, k))
        .sum::<f64>()
        / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use kselect::{QueueKind, SelectConfig};

    #[test]
    fn ground_truth_rows_hold_k_not_n() {
        let queries = PointSet::uniform(4, 8, 61);
        let refs = PointSet::uniform(1000, 8, 62);
        let truth = ground_truth(&queries, &refs, 10, Metric::SquaredEuclidean);
        for row in &truth {
            assert_eq!(row.len(), 10);
            assert!(row.capacity() < refs.len(), "capacity {}", row.capacity());
        }
        // Still the exact k smallest, ascending.
        let full = ground_truth(&queries, &refs, refs.len(), Metric::SquaredEuclidean);
        for (row, all) in truth.iter().zip(&full) {
            assert_eq!(row[..], all[..10]);
        }
    }

    #[test]
    fn exact_search_has_unit_recall() {
        let refs = PointSet::uniform(300, 16, 1);
        let queries = PointSet::uniform(10, 16, 2);
        let truth = ground_truth(&queries, &refs, 8, Metric::SquaredEuclidean);
        let res = crate::knn_search(
            &queries,
            &refs,
            &SelectConfig::optimized(QueueKind::Merge, 8),
        );
        assert_eq!(mean_recall(&res, &truth, 8), 1.0);
    }

    #[test]
    fn partial_recall_detected() {
        let truth = vec![
            Neighbor::new(0.1, 0),
            Neighbor::new(0.2, 1),
            Neighbor::new(0.3, 2),
        ];
        let result = vec![
            Neighbor::new(0.1, 0),
            Neighbor::new(0.9, 9),
            Neighbor::new(1.0, 8),
        ];
        assert!((recall_at_k(&result, &truth, 3) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ties_at_boundary_credited() {
        // True 2-NN = {0, 1} with dist 0.5 each; returning {0, 2} where
        // item 2 also has dist 0.5 is an equally-correct answer.
        let truth = vec![Neighbor::new(0.5, 0), Neighbor::new(0.5, 1)];
        let result = vec![Neighbor::new(0.5, 0), Neighbor::new(0.5, 2)];
        assert_eq!(recall_at_k(&result, &truth, 2), 1.0);
    }

    #[test]
    fn ground_truth_ordering() {
        let refs = PointSet::uniform(50, 4, 3);
        let queries = PointSet::uniform(2, 4, 4);
        for metric in [
            Metric::SquaredEuclidean,
            Metric::Cosine,
            Metric::NegativeDot,
        ] {
            let t = ground_truth(&queries, &refs, 10, metric);
            for row in &t {
                assert!(row.windows(2).all(|w| w[0].dist <= w[1].dist), "{metric:?}");
            }
        }
    }

    #[test]
    fn empty_result_zero_recall() {
        let truth = vec![Neighbor::new(0.5, 0)];
        assert_eq!(recall_at_k(&[], &truth, 1), 0.0);
    }
}
