//! k-NN graph construction (k-NNG) — the workload Quick Multi-Select was
//! built for (Komarov et al.: "Fast k-NNG construction with GPU-based
//! quick multi-select") and a staple of the paper's motivating domains
//! (3D reconstruction match graphs, manifold learning).
//!
//! A k-NNG connects every point of a set to its k nearest *other* points.
//! Construction is all-pairs k-NN with self-exclusion, one reused
//! distance row per point.

use kselect::types::Neighbor;
use kselect::{select_k, SelectConfig};

use crate::dataset::PointSet;
use crate::metric::{Metric, RowFill};

/// A directed k-NN graph: `edges[i]` are point `i`'s k nearest others,
/// ascending by distance.
#[derive(Clone, Debug)]
pub struct KnnGraph {
    edges: Vec<Vec<Neighbor>>,
    k: usize,
}

impl KnnGraph {
    /// Build the k-NNG of `points` under `metric` using the configured
    /// selection variant. Self-edges are excluded.
    ///
    /// # Panics
    /// When `k >= points.len()` (a point cannot have more neighbors than
    /// there are other points).
    pub fn build(points: &PointSet, k: usize, metric: Metric, cfg: &SelectConfig) -> Self {
        assert!(k > 0 && k < points.len(), "need 0 < k < number of points");
        // The executor's fill: distances clamp to the crate's
        // non-finite policy under every metric.
        let fill = RowFill::new(metric, points, points);
        let mut dists = vec![0.0f32; points.len()];
        let edges: Vec<Vec<Neighbor>> = (0..points.len())
            .map(|i| {
                fill.fill(i, 0, &mut dists);
                dists[i] = f32::INFINITY; // self-exclusion
                let mut nbs = select_k(&dists, cfg);
                nbs.truncate(k);
                nbs
            })
            .collect();
        KnnGraph { edges, k }
    }

    /// Neighbors of point `i` (ascending by distance).
    pub fn neighbors(&self, i: usize) -> &[Neighbor] {
        &self.edges[i]
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Edges per vertex.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Fraction of edges that are reciprocated (`j ∈ knn(i)` and
    /// `i ∈ knn(j)`) — a standard k-NNG quality statistic: high symmetry
    /// indicates well-clustered data.
    pub fn symmetry(&self) -> f64 {
        let mut mutual = 0usize;
        let mut total = 0usize;
        for (i, nbs) in self.edges.iter().enumerate() {
            for nb in nbs {
                total += 1;
                if self.edges[nb.id as usize]
                    .iter()
                    .any(|back| back.id as usize == i)
                {
                    mutual += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            mutual as f64 / total as f64
        }
    }

    /// Connected components of the *undirected* version of the graph
    /// (union-find) — e.g. to count clusters in a match graph.
    pub fn connected_components(&self) -> usize {
        let n = self.edges.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (i, nbs) in self.edges.iter().enumerate() {
            for nb in nbs {
                let (a, b) = (find(&mut parent, i), find(&mut parent, nb.id as usize));
                if a != b {
                    parent[a] = b;
                }
            }
        }
        (0..n).filter(|&i| find(&mut parent, i) == i).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kselect::QueueKind;

    fn cfg(k: usize) -> SelectConfig {
        SelectConfig::optimized(QueueKind::Merge, k.next_power_of_two().max(8))
    }

    #[test]
    fn no_self_edges_and_sorted() {
        let pts = PointSet::uniform(120, 8, 401);
        let g = KnnGraph::build(&pts, 5, Metric::SquaredEuclidean, &cfg(5));
        assert_eq!(g.len(), 120);
        for i in 0..g.len() {
            let nbs = g.neighbors(i);
            assert_eq!(nbs.len(), 5);
            assert!(nbs.iter().all(|nb| nb.id as usize != i), "self edge at {i}");
            assert!(nbs.windows(2).all(|w| w[0].dist <= w[1].dist));
        }
    }

    #[test]
    fn matches_brute_force() {
        let pts = PointSet::uniform(60, 4, 402);
        let g = KnnGraph::build(&pts, 3, Metric::SquaredEuclidean, &cfg(3));
        for i in 0..pts.len() {
            let mut all: Vec<(f32, usize)> = (0..pts.len())
                .filter(|&j| j != i)
                .map(|j| (crate::squared_distance(pts.point(i), pts.point(j)), j))
                .collect();
            all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let expect: Vec<f32> = all[..3].iter().map(|e| e.0).collect();
            let got: Vec<f32> = g.neighbors(i).iter().map(|nb| nb.dist).collect();
            assert_eq!(got, expect, "vertex {i}");
        }
    }

    #[test]
    fn two_tight_clusters_have_two_components_and_high_symmetry() {
        // Two far-apart clusters: 1-NN graph splits into ≥ 2 components
        // and nearest-neighbor edges are largely mutual.
        let mut flat = Vec::new();
        for i in 0..40 {
            let base = if i < 20 { 0.0 } else { 100.0 };
            flat.extend([base + (i % 20) as f32 * 0.01, base]);
        }
        let pts = PointSet::from_flat(flat, 2);
        let g = KnnGraph::build(&pts, 2, Metric::SquaredEuclidean, &cfg(2));
        assert!(g.connected_components() >= 2);
        assert!(g.symmetry() > 0.5, "symmetry {}", g.symmetry());
    }

    #[test]
    fn fully_connected_single_component() {
        let pts = PointSet::uniform(30, 3, 403);
        let g = KnnGraph::build(&pts, 10, Metric::SquaredEuclidean, &cfg(10));
        assert_eq!(g.connected_components(), 1);
        assert_eq!(g.k(), 10);
    }

    #[test]
    fn non_finite_distances_follow_the_search_policy() {
        // Point 0 overflows every dot product and norm it enters: under
        // NegativeDot its distances would be -inf (nearest to everyone)
        // without the clamp; the search ranks them +inf (farthest).
        let mut flat = PointSet::uniform(40, 4, 405).as_flat().to_vec();
        flat[0] = f32::MAX;
        flat[1] = f32::MAX;
        flat[7 * 4 + 2] = f32::MAX;
        let pts = PointSet::from_flat(flat, 4);
        let k = 5;
        let cfg = SelectConfig::plain(QueueKind::Insertion, k);
        let wide = SelectConfig::plain(QueueKind::Insertion, k + 1);
        for metric in [Metric::NegativeDot, Metric::Cosine] {
            let g = KnnGraph::build(&pts, k, metric, &cfg);
            let search = crate::knn_search_with(&pts, &pts, &wide, metric);
            for (i, row) in search.iter().enumerate() {
                let expect: Vec<Neighbor> = row
                    .iter()
                    .filter(|nb| nb.id as usize != i)
                    .take(k)
                    .copied()
                    .collect();
                let got = g.neighbors(i);
                let bits =
                    |v: &[Neighbor]| v.iter().map(|nb| nb.dist.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got), bits(&expect), "{metric:?} vertex {i}");
                // Ids are fixed wherever the distance is; +inf ties may
                // resolve to self on the graph side.
                for (a, b) in got.iter().zip(&expect) {
                    if a.dist.is_finite() {
                        assert_eq!(a.id, b.id, "{metric:?} vertex {i}");
                    }
                }
            }
            assert!(
                g.neighbors(5).iter().all(|nb| nb.dist > f32::NEG_INFINITY),
                "{metric:?}: no -inf edge"
            );
        }
    }

    #[test]
    #[should_panic]
    fn k_equal_to_n_rejected() {
        let pts = PointSet::uniform(5, 2, 404);
        KnnGraph::build(&pts, 5, Metric::SquaredEuclidean, &cfg(5));
    }
}
