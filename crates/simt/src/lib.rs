//! # simt — a software SIMT GPU simulator
//!
//! This crate is the execution substrate for the IPDPS 2015 paper
//! *"Efficient Selection Algorithm for Fast k-NN Search on GPU"* (Tang,
//! Huang, Eyers, Mills, Guo). The paper's techniques are architectural:
//! they win (or lose) through **branch divergence**, **memory coalescing**
//! and **intra-warp communication**. This simulator models exactly those
//! three effects so that GPU kernels can be written, validated and measured
//! in pure Rust.
//!
//! ## Execution model
//!
//! A *warp* is 32 lanes executing in lockstep. Kernels are written
//! warp-wide: per-lane registers are `[T; 32]` arrays ([`Lanes`]), and every
//! operation takes an active-lane [`Mask`] and charges a [`Metrics`]
//! accumulator through the [`WarpCtx`]:
//!
//! * **ALU work** — [`WarpCtx::op`] charges one warp issue slot regardless
//!   of how many lanes are active; active lanes additionally count towards
//!   `lane_work`. SIMT efficiency = `lane_work / (issued × 32)`.
//! * **Divergence** — a data-dependent branch splits the mask. The kernel
//!   executes *both* live paths under their sub-masks (charging both), and
//!   records the split with [`WarpCtx::diverge`]. A divergent loop keeps the
//!   whole warp in the loop until *no* lane needs another iteration
//!   ([`WarpCtx::loop_head`] per iteration).
//! * **Memory** — [`mem::GlobalBuf`] (device global memory) counts one DRAM
//!   transaction per distinct 128-byte segment touched by the warp;
//!   [`mem::LaneLocal`] (per-thread "local memory") is physically
//!   interleaved with stride 32 like CUDA local memory, so lockstep
//!   same-index access coalesces to a single transaction while divergent
//!   access scatters; [`mem::SharedBuf`] models shared memory with
//!   bank-conflict replays.
//!
//! ## Timing model
//!
//! [`timing::TimingModel`] converts aggregated [`Metrics`] into simulated
//! seconds with a deliberately simple analytic model (issue throughput
//! across SMs vs. DRAM bandwidth, whichever binds). The Tesla C2075 preset
//! matches the paper's testbed. Absolute seconds are *not* the point —
//! relative shape is; every constant lives in one struct.
//!
//! ## Fidelity and limitations
//!
//! The simulator models exactly the three effects the reproduced paper's
//! techniques target, and deliberately nothing more:
//!
//! * **No cache hierarchy.** Lane-local (per-thread) traffic is charged
//!   straight to DRAM. On the modelled Fermi part this is close to the
//!   truth for k-NN queues: with tens of resident warps per SM the
//!   aggregate queue footprint (k × 8 B × 32 lanes × warps) is megabytes
//!   against 16 KB of L1 and 768 KB of L2, so hit rates are negligible.
//!   Workloads with genuinely cache-resident state would be over-charged.
//! * **No occupancy model.** Warps are costed independently and the SM
//!   count divides total cycles; shared-memory pressure reducing resident
//!   warps (and therefore latency hiding) is not modelled — which is why
//!   the buffer-size ablation in the parent workspace grows monotonically
//!   where real hardware would eventually turn down.
//! * **Effective, not cycle-accurate, latency.** A DRAM transaction costs
//!   a fixed post-hiding stall plus bandwidth time; there is no MSHR,
//!   row-buffer, or interconnect model.
//! * **Warp-synchronous programming model.** Kernels express reconvergence
//!   manually through masks; there is no PC-based reconvergence-stack
//!   divergence model. For the reproduced algorithms (structured control
//!   flow only) the two coincide.
//!
//! ## Correctness tooling
//!
//! The warp-synchronous style relies on implicit lockstep ordering that
//! is easy to break silently. Building with the **`sanitize`** feature
//! turns on the `sanitize` module's intra-warp race detector: every
//! [`mem`]-buffer access is logged into epochs delimited by
//! [`WarpCtx::sync`], [`WarpCtx::loop_head`] and the free lockstep
//! marker [`WarpCtx::warp_fence`], and cross-lane same-word conflicts
//! within an epoch fail with a report naming the span, lanes and
//! address. Without the feature every hook compiles to nothing — the
//! hot paths and metrics are bit-for-bit identical to an
//! unsanitized build.
//!
//! ## Writing a kernel
//!
//! ```
//! use simt::{launch, GpuSpec, Lanes, Mask, WARP_SIZE};
//! use simt::mem::GlobalBuf;
//!
//! // Sum 4 values per lane from global memory.
//! let spec = GpuSpec::tesla_c2075();
//! let data = GlobalBuf::<f32>::from_vec((0..128).map(|i| i as f32).collect());
//! let (sums, metrics) = launch(&spec, 1, |warp_id, ctx| {
//!     let mask = Mask::full();
//!     let mut acc: Lanes<f32> = [0.0; WARP_SIZE];
//!     for step in 0..4 {
//!         let idx: Lanes<usize> =
//!             core::array::from_fn(|l| step * WARP_SIZE + (warp_id * WARP_SIZE + l));
//!         let v = data.read(ctx, mask, &idx);
//!         ctx.op(mask, 1); // the add
//!         for l in mask.lanes() { acc[l] += v[l]; }
//!     }
//!     acc
//! });
//! assert_eq!(sums[0][0], 0.0 + 32.0 + 64.0 + 96.0);
//! assert_eq!(metrics.global_transactions, 4); // fully coalesced
//! ```

pub mod fault;
pub mod launch;
pub mod mask;
pub mod mem;
pub mod metrics;
pub mod report;
pub mod resilient;
#[cfg(feature = "sanitize")]
pub mod sanitize;
pub mod spec;
pub mod timing;
#[cfg(feature = "trace")]
pub mod tracing;
pub mod warp;

pub use fault::{FaultKind, FaultPlan, FaultSignal};
pub use launch::{launch, launch_seq};
pub use mask::Mask;
pub use metrics::Metrics;
pub use report::{comparison_table, KernelReport};
pub use resilient::{
    launch_resilient, launch_resilient_gated, ResilienceError, ResilientLaunch, RetryPolicy,
    WarpFailure,
};
pub use spec::GpuSpec;
pub use timing::TimingModel;
pub use warp::WarpCtx;

/// Number of lanes in a warp. Fixed at 32 to match NVIDIA hardware
/// (the paper's Tesla C2075) and to let [`Mask`] be a `u32` bitset.
pub const WARP_SIZE: usize = 32;

/// One register's worth of per-lane values: index `l` belongs to lane `l`.
pub type Lanes<T> = [T; WARP_SIZE];

/// Build a [`Lanes`] array by evaluating `f` for each lane index.
#[inline]
pub fn lanes_from_fn<T, F: FnMut(usize) -> T>(f: F) -> Lanes<T> {
    core::array::from_fn(f)
}

/// Broadcast a single value to all lanes.
#[inline]
pub fn splat<T: Copy>(v: T) -> Lanes<T> {
    [v; WARP_SIZE]
}
