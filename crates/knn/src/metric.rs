//! Distance metrics beyond the paper's squared Euclidean.
//!
//! k-selection is metric-agnostic (it sees only a list of scores to
//! minimise), so the library supports the metrics common in the paper's
//! motivating domains: Euclidean for SIFT-style descriptors, cosine and
//! (negated) dot product for embedding retrieval, Manhattan for robust
//! matching. All metrics are oriented so that **smaller = closer**.

use serde::{Deserialize, Serialize};

use crate::dataset::PointSet;
use crate::distance::block::{self, FlatMatrix};
use crate::distance::clamp_non_finite;

/// A dissimilarity measure; smaller values mean closer points.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Metric {
    /// Σ (aᵢ − bᵢ)² — the paper's metric (monotone in Euclidean).
    SquaredEuclidean,
    /// Σ |aᵢ − bᵢ| (L1).
    Manhattan,
    /// 1 − cos(a, b) ∈ [0, 2]; zero vectors are treated as maximally far.
    Cosine,
    /// −⟨a, b⟩ — maximum inner product search as a minimisation.
    NegativeDot,
}

impl Metric {
    /// Dissimilarity between two equal-length vectors.
    pub fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Metric::SquaredEuclidean => crate::distance::squared_distance(a, b),
            Metric::Manhattan => a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum(),
            Metric::Cosine => {
                let mut dot = 0.0f32;
                let mut na = 0.0f32;
                let mut nb = 0.0f32;
                for (x, y) in a.iter().zip(b) {
                    dot += x * y;
                    na += x * x;
                    nb += y * y;
                }
                let denom = (na * nb).sqrt();
                if denom == 0.0 {
                    2.0
                } else {
                    1.0 - dot / denom
                }
            }
            Metric::NegativeDot => -a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>(),
        }
    }

    /// True when the metric never produces negative values (radix-select
    /// style bit tricks require this).
    pub fn is_non_negative(&self) -> bool {
        !matches!(self, Metric::NegativeDot)
    }
}

/// The one distance fill of every native search path: a metric over a
/// query set × reference set, with the hoisted terms that metric needs.
/// Squared Euclidean borrows both sides' squared norms from the sets'
/// caches ([`block::norms`]: computed on a set's first use, reused by
/// every later call) and fills through the GEMM-decomposed row primitive
/// ([`block::fill_row_range`]); every other metric hoists nothing and
/// fills `clamp_non_finite(metric.distance(q, r))` per pair. Either way
/// every value is clamped to the crate's non-finite policy, so the
/// streamed executor, [`crate::KnnGraph::build`] and
/// [`distance_matrix_flat_with`] agree bit for bit.
pub(crate) struct RowFill<'a> {
    metric: Metric,
    queries: &'a PointSet,
    refs: &'a PointSet,
    q_norms: &'a [f32],
    ref_norms: &'a [f32],
}

impl<'a> RowFill<'a> {
    pub(crate) fn new(metric: Metric, queries: &'a PointSet, refs: &'a PointSet) -> Self {
        let (q_norms, ref_norms) = match metric {
            Metric::SquaredEuclidean => (block::norms(queries), block::norms(refs)),
            _ => (&[][..], &[][..]),
        };
        RowFill {
            metric,
            queries,
            refs,
            q_norms,
            ref_norms,
        }
    }

    /// Fill `out[j]` with the clamped distance between query `qi` and
    /// reference `r0 + j`.
    #[inline]
    pub(crate) fn fill(&self, qi: usize, r0: usize, out: &mut [f32]) {
        let qp = self.queries.point(qi);
        match self.metric {
            Metric::SquaredEuclidean => {
                block::fill_row_range(qp, self.q_norms[qi], self.refs, self.ref_norms, r0, out)
            }
            metric => {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = clamp_non_finite(metric.distance(qp, self.refs.point(r0 + j)));
                }
            }
        }
    }
}

/// Full distance matrix under an arbitrary metric, in one flat row-major
/// allocation: `m.at(q, r)` is the dissimilarity between query `q` and
/// reference `r`, with non-finite values clamped to `+∞`.
///
/// Squared Euclidean routes through the blocked GEMM-style kernel
/// ([`block::squared_distances`]); the other metrics fill the flat
/// buffer row by row through the same per-pair fill the streamed
/// executor uses, with no per-query allocation either way.
pub fn distance_matrix_flat_with(
    queries: &PointSet,
    refs: &PointSet,
    metric: Metric,
) -> FlatMatrix {
    assert_eq!(queries.dim(), refs.dim(), "dimension mismatch");
    if metric == Metric::SquaredEuclidean {
        return block::squared_distances(queries, refs);
    }
    let q = queries.len();
    let n = refs.len();
    let mut data = vec![0.0f32; q * n];
    let fill = RowFill::new(metric, queries, refs);
    for (qi, row) in data.chunks_exact_mut(n.max(1)).enumerate() {
        fill.fill(qi, 0, row);
    }
    FlatMatrix::from_flat(data, q, n)
}

/// Full distance matrix under an arbitrary metric as per-query rows.
///
/// Legacy interface over [`distance_matrix_flat_with`]: the heap-of-rows
/// return type costs one allocation per query on top of the flat kernel
/// output.
pub fn distance_matrix_with(queries: &PointSet, refs: &PointSet, metric: Metric) -> Vec<Vec<f32>> {
    distance_matrix_flat_with(queries, refs, metric).to_rows()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_matches_dedicated_impl() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 6.0, 3.0];
        assert_eq!(Metric::SquaredEuclidean.distance(&a, &b), 25.0);
    }

    #[test]
    fn manhattan() {
        assert_eq!(Metric::Manhattan.distance(&[0.0, 0.0], &[3.0, -4.0]), 7.0);
    }

    #[test]
    fn cosine_identical_and_orthogonal() {
        let a = [1.0, 0.0];
        assert!((Metric::Cosine.distance(&a, &[2.0, 0.0])).abs() < 1e-6);
        assert!((Metric::Cosine.distance(&a, &[0.0, 5.0]) - 1.0).abs() < 1e-6);
        assert!((Metric::Cosine.distance(&a, &[-1.0, 0.0]) - 2.0).abs() < 1e-6);
        // zero vector: maximally far, not NaN
        assert_eq!(Metric::Cosine.distance(&a, &[0.0, 0.0]), 2.0);
    }

    #[test]
    fn negative_dot_orders_by_similarity() {
        let q = [1.0, 1.0];
        let close = Metric::NegativeDot.distance(&q, &[3.0, 3.0]);
        let far = Metric::NegativeDot.distance(&q, &[0.1, 0.0]);
        assert!(close < far, "more similar must score lower");
        assert!(!Metric::NegativeDot.is_non_negative());
        assert!(Metric::Cosine.is_non_negative());
    }

    #[test]
    fn matrix_with_metric() {
        let q = PointSet::uniform(3, 8, 1);
        let r = PointSet::uniform(5, 8, 2);
        for metric in [
            Metric::SquaredEuclidean,
            Metric::Manhattan,
            Metric::Cosine,
            Metric::NegativeDot,
        ] {
            let m = distance_matrix_with(&q, &r, metric);
            assert_eq!(m.len(), 3);
            assert_eq!(m[0].len(), 5);
            assert_eq!(m[1][2], metric.distance(q.point(1), r.point(2)));
        }
    }

    #[test]
    fn only_squared_euclidean_fills_the_norm_cache() {
        let q = PointSet::uniform(3, 8, 5);
        let r = PointSet::uniform(9, 8, 6);
        for metric in [Metric::Manhattan, Metric::Cosine, Metric::NegativeDot] {
            distance_matrix_flat_with(&q, &r, metric);
        }
        assert!(q.norm_cache().get().is_none() && r.norm_cache().get().is_none());
        distance_matrix_flat_with(&q, &r, Metric::SquaredEuclidean);
        assert!(q.norm_cache().get().is_some() && r.norm_cache().get().is_some());
    }

    #[test]
    fn flat_and_rows_agree_bitwise() {
        // Sizes straddling the query-block edge so the blocked fill path
        // is exercised for every metric.
        let q = PointSet::uniform(block::QUERY_BLOCK + 2, 8, 3);
        let r = PointSet::uniform(37, 8, 4);
        for metric in [
            Metric::SquaredEuclidean,
            Metric::Manhattan,
            Metric::Cosine,
            Metric::NegativeDot,
        ] {
            let flat = distance_matrix_flat_with(&q, &r, metric);
            let rows = distance_matrix_with(&q, &r, metric);
            assert_eq!(flat.q(), rows.len());
            for (qi, row) in rows.iter().enumerate() {
                for (ri, &v) in row.iter().enumerate() {
                    assert_eq!(flat.at(qi, ri).to_bits(), v.to_bits(), "{metric:?}");
                }
            }
        }
    }
}
