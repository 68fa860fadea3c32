//! Blocked, flat, GEMM-style distance kernel.
//!
//! The paper treats k-selection as the GPU bottleneck; on the host side
//! of this reproduction the distance phase is the dominant *real*
//! computation, and the seed implementation — a scalar per-pair loop
//! into a heap of per-query rows — was both latency-bound (one
//! loop-carried f32 add chain) and allocation-heavy. This module applies
//! the standard GEMM decomposition (Johnson et al., *Billion-scale
//! similarity search with GPUs*): ‖q−r‖² = ‖q‖² + ‖r‖² − 2·q·r, so the
//! pair loop reduces to an inner product with one multiply-add per
//! dimension, norms are hoisted out of the pair loop and computed once
//! per point set ([`norms`] caches them on the [`PointSet`]), and the
//! whole matrix is written into a single flat row-major buffer.
//!
//! Blocking: references are walked in [`REF_TILE`]-sized tiles in the
//! outer loop, so one tile of reference rows stays cache-resident while
//! every query row streams over it — the reference set is read once per
//! call instead of once per query. (The streamed executor deals workers
//! [`QUERY_BLOCK`]-query blocks; only this materialising kernel is
//! tile-outer.) The inner reduction is [`crate::distance::dot`] —
//! [`crate::distance::LANES`] independent accumulators over
//! `chunks_exact`, which autovectorizes — and is *the same function* the
//! scalar [`crate::squared_distance`] uses, so blocked output equals the
//! scalar reference bit for bit (property-tested).
//!
//! The tile-streamed executor
//! ([`crate::pipeline::knn_search_streamed_parallel`]) reuses the row
//! primitives here to compute one reference tile at a time into a
//! reused scratch buffer, never materialising the Q×N matrix.

use crate::dataset::PointSet;
use crate::distance::{simd, squared_norm};

/// Queries per streamed block, the executor's unit of work at every
/// worker count. 32 rows of dim ≤ 512 stay within L1/L2 alongside one
/// reference tile.
pub const QUERY_BLOCK: usize = 32;

/// References per cache tile of the materialising kernel: 256 rows × 128
/// dims × 4 B = 128 KiB, sized for a typical L2.
pub const REF_TILE: usize = 256;

/// Default reference-tile length (elements per query per chunk) of the
/// streamed executor. Each worker's scratch is `QUERY_BLOCK ×
/// DEFAULT_STREAM_TILE` floats; 2048 keeps it at 256 KiB.
///
/// Chosen empirically: `wallclock --sweep-tiles` (Q=1024, N=2^14,
/// dim=128, k=32) measures streamed QPS across {1024, 2048, 4096,
/// 8192}, and 2048 won — ~21% over 4096 on the reference machine (see
/// `tile_sweep` in `BENCH_native.json`, measured when each tile still
/// had its own selection and merge); larger tiles thrash L2.
pub const DEFAULT_STREAM_TILE: usize = 2048;

/// A dense Q×N matrix in one flat row-major allocation:
/// `at(q, r) == data[q * n + r]`.
#[derive(Clone, Debug, PartialEq)]
pub struct FlatMatrix {
    data: Vec<f32>,
    q: usize,
    n: usize,
}

impl FlatMatrix {
    /// Wrap an existing flat row-major buffer.
    ///
    /// # Panics
    /// When `data.len() != q * n`.
    pub fn from_flat(data: Vec<f32>, q: usize, n: usize) -> Self {
        assert_eq!(data.len(), q * n, "flat buffer does not match q × n");
        FlatMatrix { data, q, n }
    }

    /// Number of rows (queries).
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of columns (references) per row.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Row `q` as a contiguous slice of length [`Self::n`].
    pub fn row(&self, q: usize) -> &[f32] {
        &self.data[q * self.n..(q + 1) * self.n]
    }

    /// Element access.
    pub fn at(&self, q: usize, r: usize) -> f32 {
        self.data[q * self.n + r]
    }

    /// The whole matrix, row-major.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Iterate over the rows.
    pub fn rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.n.max(1))
    }

    /// Consume into the flat row-major buffer.
    pub fn into_inner(self) -> Vec<f32> {
        self.data
    }

    /// Copy out as per-query row vectors — the legacy heap-of-rows shape
    /// (one allocation per query; kept only for `distance_matrix`
    /// compatibility).
    pub fn to_rows(&self) -> Vec<Vec<f32>> {
        self.rows().map(<[f32]>::to_vec).collect()
    }

    /// Bytes held by the distance values.
    pub fn bytes(&self) -> u64 {
        (self.data.len() * core::mem::size_of::<f32>()) as u64
    }
}

/// Squared norms of every point: the hoisted ‖·‖² terms of the
/// decomposition, `squared_norm(points.point(i))` at index `i`.
///
/// Computed once per point set, on the first call, and cached on the
/// set itself (4 B per point); every later call — from any search,
/// [`squared_distances`] or [`crate::KnnGraph::build`] — returns the same
/// slice. The cache cannot go stale because a [`PointSet`] is immutable
/// after construction. Sets that never meet a squared Euclidean fill
/// never pay for their norms.
pub fn norms(points: &PointSet) -> &[f32] {
    points.norm_cache().get_or_init(|| {
        (0..points.len())
            .map(|i| squared_norm(points.point(i)))
            .collect()
    })
}

/// Fill `out[j] = clamp_non_finite(‖q − refs[r0 + j]‖²)` for one query
/// against the reference range starting at `r0`. `norm_q` and
/// `ref_norms` are the precomputed squared norms (`ref_norms` indexed by
/// absolute reference id). This is the inner row primitive shared by the
/// materialising kernel and the executor's squared Euclidean fill — one
/// call site for the arithmetic keeps them bit-equal.
/// The arithmetic itself lives in [`crate::distance::simd`], which
/// dispatches at runtime between the AVX2 vector kernel and the
/// portable scalar kernel; both reproduce the scalar reference bit for
/// bit, so every caller of this function is unaffected by the dispatch.
#[inline]
pub fn fill_row_range(
    qp: &[f32],
    norm_q: f32,
    refs: &PointSet,
    ref_norms: &[f32],
    r0: usize,
    out: &mut [f32],
) {
    debug_assert!(r0 + out.len() <= refs.len());
    simd::fill_rows(qp, norm_q, refs, ref_norms, r0, out);
}

/// The blocked kernel: the full Q×N squared-distance matrix as a flat
/// row-major [`FlatMatrix`], tile-outer over [`REF_TILE`]-sized
/// reference tiles (each tile is read once, not once per query).
///
/// Output is bit-identical to calling
/// `clamp_non_finite(squared_distance(q, r))` per pair.
///
/// # Panics
/// When the point sets disagree on dimensionality.
pub fn squared_distances(queries: &PointSet, refs: &PointSet) -> FlatMatrix {
    assert_eq!(queries.dim(), refs.dim(), "dimension mismatch");
    let q = queries.len();
    let n = refs.len();
    let ref_norms = norms(refs);
    let q_norms = norms(queries);
    let mut data = vec![0.0f32; q * n];
    // Tile-outer: each REF_TILE-sized slice of the reference set is
    // pulled into cache once and reused across every query row. Fill
    // order changes; per-pair bits do not.
    for r0 in (0..n).step_by(REF_TILE) {
        let t_len = REF_TILE.min(n - r0);
        for (qi, row) in data.chunks_exact_mut(n.max(1)).enumerate() {
            fill_row_range(
                queries.point(qi),
                q_norms[qi],
                refs,
                ref_norms,
                r0,
                &mut row[r0..r0 + t_len],
            );
        }
    }
    FlatMatrix::from_flat(data, q, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{clamp_non_finite, squared_distance};

    #[test]
    fn blocked_equals_scalar_bitwise() {
        // Dimensions straddling the LANES boundary and sizes straddling
        // both block edges.
        for dim in [1, 7, 8, 9, 16, 33] {
            let qs = PointSet::uniform(QUERY_BLOCK + 3, dim, 11);
            let rs = PointSet::uniform(REF_TILE + 5, dim, 12);
            let m = squared_distances(&qs, &rs);
            assert_eq!(m.q(), qs.len());
            assert_eq!(m.n(), rs.len());
            for qi in 0..qs.len() {
                for ri in 0..rs.len() {
                    let expect = clamp_non_finite(squared_distance(qs.point(qi), rs.point(ri)));
                    assert_eq!(
                        m.at(qi, ri).to_bits(),
                        expect.to_bits(),
                        "dim {dim} pair ({qi}, {ri})"
                    );
                }
            }
        }
    }

    #[test]
    fn self_distance_is_exactly_zero() {
        let p = PointSet::uniform(40, 33, 13);
        let m = squared_distances(&p, &p);
        for i in 0..p.len() {
            assert_eq!(m.at(i, i).to_bits(), 0.0f32.to_bits(), "point {i}");
        }
    }

    #[test]
    fn row_primitive_matches_matrix() {
        let qs = PointSet::uniform(3, 19, 14);
        let rs = PointSet::uniform(57, 19, 15);
        let ref_norms = norms(&rs);
        let m = squared_distances(&qs, &rs);
        let mut out = vec![0.0f32; 10];
        fill_row_range(
            qs.point(1),
            squared_norm(qs.point(1)),
            &rs,
            ref_norms,
            20,
            &mut out,
        );
        assert_eq!(&m.row(1)[20..30], &out[..]);
    }

    #[test]
    fn norms_are_computed_once_per_set() {
        let p = PointSet::uniform(50, 9, 16);
        assert!(p.norm_cache().get().is_none(), "constructors stay lazy");
        let first = norms(&p);
        let second = norms(&p);
        assert!(
            core::ptr::eq(first, second),
            "second call must hit the cache"
        );
        // A search on the set reuses the same slice too.
        squared_distances(&p, &p);
        assert!(core::ptr::eq(first, norms(&p)));
    }

    #[test]
    fn cached_norms_equal_squared_norm_bitwise() {
        for dim in [1, 7, 8, 9, 127, 128] {
            let p = PointSet::uniform(REF_TILE + 3, dim, 17);
            let cached = norms(&p);
            assert_eq!(cached.len(), p.len());
            for (i, &v) in cached.iter().enumerate() {
                assert_eq!(
                    v.to_bits(),
                    squared_norm(p.point(i)).to_bits(),
                    "dim {dim} point {i}"
                );
            }
        }
    }

    #[test]
    fn clone_carries_equal_norms() {
        let p = PointSet::uniform(20, 7, 18);
        let filled = norms(&p).to_vec();
        let c = p.clone();
        assert!(
            c.norm_cache().get().is_some(),
            "a clone keeps the filled cache"
        );
        assert_eq!(norms(&c), &filled[..]);
        // Cloning before the cache is filled leaves both sides lazy.
        let cold = PointSet::uniform(20, 7, 18);
        let cold_clone = cold.clone();
        assert!(cold_clone.norm_cache().get().is_none());
        assert_eq!(norms(&cold_clone), &filled[..]);
    }

    #[test]
    fn empty_set_has_empty_norms() {
        let p = PointSet::from_flat(Vec::new(), 4);
        assert!(norms(&p).is_empty());
    }

    #[test]
    fn overflowing_coordinate_caches_infinity() {
        let mut flat = PointSet::uniform(3, 8, 19).as_flat().to_vec();
        flat[8] = f32::MAX; // point 1
        let p = PointSet::from_flat(flat, 8);
        assert_eq!(norms(&p)[1], f32::INFINITY);
        assert_eq!(norms(&p)[1], squared_norm(p.point(1)));
        assert!(norms(&p)[0].is_finite() && norms(&p)[2].is_finite());
    }

    #[test]
    fn flat_matrix_accessors() {
        let m = FlatMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.at(0, 2), 3.0);
        assert_eq!(m.rows().count(), 2);
        assert_eq!(m.bytes(), 24);
        assert_eq!(m.to_rows(), vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.into_inner().len(), 6);
    }

    #[test]
    #[should_panic]
    fn ragged_flat_rejected() {
        FlatMatrix::from_flat(vec![0.0; 5], 2, 3);
    }
}
