//! Kernel launch machinery: fan a kernel out over many warps.
//!
//! Warps are independent in every kernel in this workspace (one k-NN query
//! per lane, 32 queries per warp). Each warp owns a private [`WarpCtx`];
//! metrics are reduced at the end in warp-id order, which keeps the
//! simulation deterministic.

use crate::{GpuSpec, Metrics, WarpCtx};

/// Execute `kernel` for `n_warps` warps on the host.
///
/// Returns each warp's result (ordered by warp id) and the summed metrics.
/// All simulated mutable state should live inside the kernel invocation (e.g.
/// [`crate::mem::LaneLocal`] buffers created per warp) or be returned.
pub fn launch<R, K>(spec: &GpuSpec, n_warps: usize, kernel: K) -> (Vec<R>, Metrics)
where
    K: Fn(usize, &mut WarpCtx) -> R + Sync,
    R: Send,
{
    let per_warp: Vec<(R, Metrics)> = (0..n_warps)
        .map(|w| {
            let mut ctx = WarpCtx::for_spec(spec);
            let r = kernel(w, &mut ctx);
            (r, ctx.into_metrics())
        })
        .collect();

    let mut results = Vec::with_capacity(n_warps);
    let mut total = Metrics::new();
    for (r, m) in per_warp {
        results.push(r);
        total.add(&m);
    }
    (results, total)
}

/// Sequential variant of [`launch`] — identical semantics, single-threaded.
/// Useful under `proptest` (avoids nested thread pools) and when
/// debugging a kernel warp by warp.
pub fn launch_seq<R, K>(spec: &GpuSpec, n_warps: usize, mut kernel: K) -> (Vec<R>, Metrics)
where
    K: FnMut(usize, &mut WarpCtx) -> R,
{
    let mut results = Vec::with_capacity(n_warps);
    let mut total = Metrics::new();
    for w in 0..n_warps {
        let mut ctx = WarpCtx::for_spec(spec);
        results.push(kernel(w, &mut ctx));
        total.add(&ctx.into_metrics());
    }
    (results, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mask, WARP_SIZE};

    #[test]
    fn parallel_and_sequential_agree() {
        let spec = GpuSpec::tesla_c2075();
        let kernel = |w: usize, ctx: &mut WarpCtx| {
            ctx.op(Mask::full(), (w as u64 % 7) + 1);
            w * 2
        };
        let (r1, m1) = launch(&spec, 64, kernel);
        let (r2, m2) = launch_seq(&spec, 64, kernel);
        assert_eq!(r1, r2);
        assert_eq!(m1, m2);
    }

    #[test]
    fn results_ordered_by_warp_id() {
        let spec = GpuSpec::tesla_c2075();
        let (r, _) = launch(&spec, 100, |w, _| w);
        assert_eq!(r, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn metrics_sum_over_warps() {
        let spec = GpuSpec::tesla_c2075();
        let (_, m) = launch(&spec, 10, |_, ctx| ctx.op(Mask::full(), 3));
        assert_eq!(m.issued, 30);
        assert_eq!(m.lane_work, 30 * WARP_SIZE as u64);
    }

    #[test]
    fn zero_warps() {
        let spec = GpuSpec::tesla_c2075();
        let (r, m) = launch(&spec, 0, |w, _| w);
        assert!(r.is_empty());
        assert_eq!(m, Metrics::new());
    }
}
