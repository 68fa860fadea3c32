//! Runtime-dispatched SIMD microkernels for the distance row primitive.
//!
//! The tile inner loop — ‖q‖² + ‖r‖² − 2·q·r per (query, reference)
//! pair — spends all of its time in [`crate::distance::dot`]. That
//! function's contract fixes the accumulation order: [`LANES`]
//! independent partial sums (`acc[l] += a[l] * b[l]` per 8-wide chunk),
//! a sequential scalar tail, and a fixed-shape pairwise reduce tree.
//! This module provides two implementations of the *row* primitive that
//! reproduce those bits exactly and picks between them at runtime:
//!
//! * **`avx2+fma`** — an AVX2 vector kernel register-blocked over four
//!   reference rows per pass. Each accumulator lane *is* one of the
//!   scalar kernel's eight partial sums, the horizontal reduce performs
//!   the same pairwise tree, and the `dim % 8` tail is the same scalar
//!   loop — so every pair's distance is bit-identical to the scalar
//!   path. The blocking exists for throughput, not numerics: one query
//!   chunk load feeds four independent add chains, which covers the
//!   f32-add latency that a single-accumulator port would stall on.
//! * **`scalar8`** — the portable fallback: the existing 8-accumulator
//!   scalar kernel (which autovectorizes), one reference row at a time.
//!
//! # Why not `_mm256_fmadd_ps`?
//!
//! The dispatch gate requires the `fma` CPUID flag (every AVX2 part
//! ships it, and enabling it lets LLVM schedule the loop for FMA-class
//! ports), but the kernel deliberately issues separate `mul` + `add`:
//! a fused multiply-add rounds once where the scalar contract rounds
//! twice, so an FMA kernel would *not* be bit-identical — and the fig5
//! experiment artifacts, the property tests, and the streamed-vs-
//! materialized equivalence all hang off that identity. Rust never
//! contracts a separate `mul`/`add` pair on its own (no fast-math), so
//! the explicit intrinsics pin the arithmetic.
//!
//! Dispatch is decided once per process ([`active_kernel`]) from CPUID
//! via `is_x86_feature_detected!`; setting `KNN_SIMD=scalar` in the
//! environment forces the portable kernel (used by tests and benches to
//! compare the two paths on the same machine).

use super::{clamp_non_finite, dot, squared_distance_from_parts, LANES};
use crate::dataset::PointSet;

/// One of the row-kernel implementations this module can dispatch to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// 256-bit AVX2 kernel, register-blocked over four reference rows.
    Avx2,
    /// Portable 8-accumulator scalar kernel.
    Scalar8,
}

impl Kernel {
    /// Stable name reported by the CLI and recorded in
    /// `BENCH_native.json` (`simd_dispatch`).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Avx2 => "avx2+fma",
            Kernel::Scalar8 => "scalar8",
        }
    }
}

/// Whether the host CPU supports the AVX2 kernel (requires both the
/// `avx2` and `fma` CPUID flags — see the module docs for why `fma` is
/// gated on but never used for the accumulation itself).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The kernel every dispatched row fill in this process uses, decided
/// once: `KNN_SIMD=scalar` forces [`Kernel::Scalar8`], otherwise the
/// CPUID probe picks the fastest supported implementation.
pub fn active_kernel() -> Kernel {
    static ACTIVE: std::sync::OnceLock<Kernel> = std::sync::OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let forced_scalar =
            std::env::var_os("KNN_SIMD").is_some_and(|v| v == "scalar" || v == "scalar8");
        if !forced_scalar && avx2_available() {
            Kernel::Avx2
        } else {
            Kernel::Scalar8
        }
    })
}

/// Name of the dispatched kernel (`"avx2+fma"` / `"scalar8"`).
pub fn dispatch_name() -> &'static str {
    active_kernel().name()
}

/// The dispatched row primitive: `out[j] = clamp_non_finite(‖q −
/// refs[r0 + j]‖²)` with hoisted norms, bit-identical on every kernel.
/// This is the single arithmetic entry point
/// [`crate::distance::block::fill_row_range`] routes through.
#[inline]
pub fn fill_rows(
    qp: &[f32],
    norm_q: f32,
    refs: &PointSet,
    ref_norms: &[f32],
    r0: usize,
    out: &mut [f32],
) {
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_kernel` only returns `Avx2` when
        // `avx2_available()` confirmed both CPUID flags.
        Kernel::Avx2 => unsafe { fill_rows_avx2(qp, norm_q, refs, ref_norms, r0, out) },
        _ => fill_rows_portable(qp, norm_q, refs, ref_norms, r0, out),
    }
}

/// The portable row kernel: the 8-accumulator scalar [`dot`] per
/// reference. This is byte-for-byte the pre-SIMD `fill_row_range` body
/// and the bit-identity reference the vector kernel is tested against.
pub fn fill_rows_portable(
    qp: &[f32],
    norm_q: f32,
    refs: &PointSet,
    ref_norms: &[f32],
    r0: usize,
    out: &mut [f32],
) {
    for (j, o) in out.iter_mut().enumerate() {
        let r = r0 + j;
        let d = squared_distance_from_parts(norm_q, ref_norms[r], dot(qp, refs.point(r)));
        *o = clamp_non_finite(d);
    }
}

/// The AVX2 row kernel: four reference rows per pass, one 256-bit
/// accumulator chain each, exact scalar tail and reduce tree.
///
/// # Safety
/// The host must support `avx2` and `fma` (check [`avx2_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn fill_rows_avx2(
    qp: &[f32],
    norm_q: f32,
    refs: &PointSet,
    ref_norms: &[f32],
    r0: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;

    let dim = qp.len();
    let chunks = dim / LANES;
    let tail0 = chunks * LANES;
    let qptr = qp.as_ptr();

    let mut j = 0;
    // Register-blocked main loop: one query row against four reference
    // rows. The four accumulator chains are independent, so the f32-add
    // latency of one chain overlaps the other three, and each query
    // chunk is loaded once instead of four times. Within a chain the
    // operation order is exactly `dot`'s: mul, then add, chunk by chunk
    // (two roundings — never a fused multiply-add).
    while j + 4 <= out.len() {
        let r = r0 + j;
        let p0 = refs.point(r).as_ptr();
        let p1 = refs.point(r + 1).as_ptr();
        let p2 = refs.point(r + 2).as_ptr();
        let p3 = refs.point(r + 3).as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        for c in 0..chunks {
            let o = c * LANES;
            let vq = _mm256_loadu_ps(qptr.add(o));
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(vq, _mm256_loadu_ps(p0.add(o))));
            acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(vq, _mm256_loadu_ps(p1.add(o))));
            acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(vq, _mm256_loadu_ps(p2.add(o))));
            acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(vq, _mm256_loadu_ps(p3.add(o))));
        }
        // Transposed reduce of all four accumulators at once, each lane
        // following `dot`'s exact pairwise tree. `hadd` pairs adjacent
        // lanes, which *is* the tree's level: l_i = [a01, a23, a45,
        // a67] for ref i, then x = [b01_0, b23_0, b01_1, b23_1] (and y
        // likewise for refs 2/3) where b01 = a01 + a23, b23 = a45 +
        // a67, so `even + odd` performs the root add per ref.
        let l0 = _mm_hadd_ps(_mm256_castps256_ps128(acc0), _mm256_extractf128_ps(acc0, 1));
        let l1 = _mm_hadd_ps(_mm256_castps256_ps128(acc1), _mm256_extractf128_ps(acc1, 1));
        let l2 = _mm_hadd_ps(_mm256_castps256_ps128(acc2), _mm256_extractf128_ps(acc2, 1));
        let l3 = _mm_hadd_ps(_mm256_castps256_ps128(acc3), _mm256_extractf128_ps(acc3, 1));
        let x = _mm_hadd_ps(l0, l1);
        let y = _mm_hadd_ps(l2, l3);
        let even = _mm_shuffle_ps::<0b10_00_10_00>(x, y); // [b01_0..3]
        let odd = _mm_shuffle_ps::<0b11_01_11_01>(x, y); // [b23_0..3]
        let dots = _mm_add_ps(even, odd);
        if tail0 == dim {
            // No scalar tail: finish all four pairs in vector registers
            // with the scalar path's exact expression shape —
            // `(norm_q + norm_r) - 2·dot`, negative-clamp, then the
            // non-finite map. `max(0, raw)` matches `if raw < 0.0 { 0.0 }`
            // bitwise: maxps returns the second operand on NaN and on
            // ±0 equality, i.e. `raw` itself in both cases, exactly like
            // the scalar branch. The ordered `d < ∞` compare is false
            // for NaN and +∞, selecting the scalar clamp's `+∞` arm.
            let sums = _mm_add_ps(_mm_set1_ps(norm_q), _mm_loadu_ps(ref_norms.as_ptr().add(r)));
            let raw = _mm_sub_ps(sums, _mm_mul_ps(_mm_set1_ps(2.0), dots));
            let d = _mm_max_ps(_mm_setzero_ps(), raw);
            let inf = _mm_set1_ps(f32::INFINITY);
            let finite = _mm_cmp_ps::<_CMP_LT_OQ>(d, inf);
            let clamped = _mm_blendv_ps(inf, d, finite);
            _mm_storeu_ps(out.as_mut_ptr().add(j), clamped);
        } else {
            let mut dot4 = [0.0f32; 4];
            _mm_storeu_ps(dot4.as_mut_ptr(), dots);
            let ptrs = [p0, p1, p2, p3];
            for (i, (tree_sum, p)) in dot4.into_iter().zip(ptrs).enumerate() {
                let mut tail = 0.0f32;
                for t in tail0..dim {
                    tail += *qptr.add(t) * *p.add(t);
                }
                let d = squared_distance_from_parts(norm_q, ref_norms[r + i], tree_sum + tail);
                out[j + i] = clamp_non_finite(d);
            }
        }
        j += 4;
    }
    // Remaining references (fewer than four): one chain each — the
    // per-pair arithmetic is the same either way.
    while j < out.len() {
        let r = r0 + j;
        let p = refs.point(r).as_ptr();
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let o = c * LANES;
            acc = _mm256_add_ps(
                acc,
                _mm256_mul_ps(_mm256_loadu_ps(qptr.add(o)), _mm256_loadu_ps(p.add(o))),
            );
        }
        let mut tail = 0.0f32;
        for t in tail0..dim {
            tail += *qptr.add(t) * *p.add(t);
        }
        let d = squared_distance_from_parts(norm_q, ref_norms[r], hsum8(acc) + tail);
        out[j] = clamp_non_finite(d);
        j += 1;
    }
}

/// Horizontal sum of an 8-lane accumulator with `dot`'s exact pairwise
/// tree: `b = [a0+a1, a2+a3, a4+a5, a6+a7]`, then `(b0+b1) + (b2+b3)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn hsum8(v: std::arch::x86_64::__m256) -> f32 {
    use std::arch::x86_64::*;
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps(v, 1);
    // hadd pairs adjacent lanes: exactly the tree's first level.
    let b = _mm_hadd_ps(lo, hi);
    // second level: [b0+b1, b2+b3, b0+b1, b2+b3]
    let c = _mm_hadd_ps(b, b);
    // root: (b0+b1) + (b2+b3)
    _mm_cvtss_f32(_mm_add_ss(c, _mm_movehdup_ps(c)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::block;
    use crate::distance::squared_distance;

    fn expected(qp: &[f32], refs: &PointSet, r0: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|j| clamp_non_finite(squared_distance(qp, refs.point(r0 + j))))
            .collect()
    }

    #[test]
    fn dispatch_name_is_stable() {
        let k = active_kernel();
        assert!(matches!(k, Kernel::Avx2 | Kernel::Scalar8));
        assert_eq!(dispatch_name(), k.name());
        assert_eq!(Kernel::Avx2.name(), "avx2+fma");
        assert_eq!(Kernel::Scalar8.name(), "scalar8");
        if k == Kernel::Avx2 {
            assert!(avx2_available());
        }
    }

    #[test]
    fn portable_rows_equal_scalar_reference_bitwise() {
        for dim in [1usize, 7, 8, 9, 127, 128] {
            let qs = PointSet::uniform(3, dim, 21);
            let rs = PointSet::uniform(41, dim, 22);
            let ref_norms = block::norms(&rs);
            for (r0, len) in [(0usize, 41usize), (5, 13), (40, 1)] {
                let qp = qs.point(1);
                let mut out = vec![0.0f32; len];
                fill_rows_portable(
                    qp,
                    super::super::squared_norm(qp),
                    &rs,
                    ref_norms,
                    r0,
                    &mut out,
                );
                let want = expected(qp, &rs, r0, len);
                for (got, want) in out.iter().zip(&want) {
                    assert_eq!(got.to_bits(), want.to_bits(), "dim {dim} r0 {r0} len {len}");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_rows_equal_scalar_reference_bitwise() {
        if !avx2_available() {
            eprintln!("skipping: host lacks avx2+fma");
            return;
        }
        // Dims straddling the 8-lane chunk edge, row lengths straddling
        // the 4-reference register block (remainders 0..3).
        for dim in [1usize, 7, 8, 9, 127, 128] {
            let qs = PointSet::uniform(2, dim, 31);
            let rs = PointSet::uniform(23, dim, 32);
            let ref_norms = block::norms(&rs);
            for len in [1usize, 2, 3, 4, 5, 7, 8, 23] {
                let qp = qs.point(0);
                let mut out = vec![0.0f32; len];
                // SAFETY: gated on avx2_available above.
                unsafe {
                    fill_rows_avx2(
                        qp,
                        super::super::squared_norm(qp),
                        &rs,
                        ref_norms,
                        0,
                        &mut out,
                    );
                }
                let want = expected(qp, &rs, 0, len);
                for (ri, (got, want)) in out.iter().zip(&want).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "dim {dim} len {len} ref {ri}: avx2 {got} vs scalar {want}"
                    );
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_clamps_non_finite_like_the_scalar_path() {
        if !avx2_available() {
            eprintln!("skipping: host lacks avx2+fma");
            return;
        }
        let dim = 16;
        let qs = PointSet::uniform(1, dim, 33);
        let mut flat = PointSet::uniform(9, dim, 34).as_flat().to_vec();
        flat[3 * dim] = f32::MAX; // ‖r‖² overflows → +inf → clamp
        flat[6 * dim + 2] = f32::MAX;
        let rs = PointSet::from_flat(flat, dim);
        let ref_norms = block::norms(&rs);
        let qp = qs.point(0);
        let mut out = vec![0.0f32; rs.len()];
        // SAFETY: gated on avx2_available above.
        unsafe {
            fill_rows_avx2(
                qp,
                super::super::squared_norm(qp),
                &rs,
                ref_norms,
                0,
                &mut out,
            );
        }
        let want = expected(qp, &rs, 0, rs.len());
        assert_eq!(out[3], f32::INFINITY);
        assert_eq!(out[6], f32::INFINITY);
        for (got, want) in out.iter().zip(&want) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn dispatched_rows_equal_scalar_reference_bitwise() {
        for dim in [1usize, 7, 8, 9, 127, 128] {
            let qs = PointSet::uniform(1, dim, 35);
            let rs = PointSet::uniform(19, dim, 36);
            let ref_norms = block::norms(&rs);
            let qp = qs.point(0);
            let mut out = vec![0.0f32; rs.len()];
            fill_rows(
                qp,
                super::super::squared_norm(qp),
                &rs,
                ref_norms,
                0,
                &mut out,
            );
            let want = expected(qp, &rs, 0, rs.len());
            for (got, want) in out.iter().zip(&want) {
                assert_eq!(got.to_bits(), want.to_bits(), "dim {dim}");
            }
        }
    }
}
