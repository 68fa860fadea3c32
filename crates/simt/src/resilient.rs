//! Resilient kernel launch: watchdog, bounded retry, validation,
//! and honest accounting of the recovery cost.
//!
//! [`launch_resilient`] wraps [`crate::launch`]'s fan-out with the
//! machinery a production system puts around a GPU kernel:
//!
//! * **Warp isolation** — each warp attempt runs under `catch_unwind`,
//!   so one killed warp (an injected [`crate::fault::FaultSignal`], a
//!   `sanitize` race panic, a genuine kernel bug) cannot take the batch
//!   down. The failed attempt's metrics survive and are accounted as
//!   wasted work.
//! * **Watchdog** — a simulated-cycle deadline expressed as a per-warp
//!   issue-slot limit. Injected hangs are killed *at* their trigger
//!   point (the fault layer panics on the crossing issue); a kernel
//!   that genuinely overruns the limit is failed after the fact, which
//!   is the closest a deterministic simulator can get to pre-emption.
//! * **Bounded retry with exponential backoff** — on *simulated* time:
//!   attempt `i` adds `backoff_base_s · 2^(i-1)` seconds before
//!   re-launching, mirroring how a driver paces resubmission. Fault
//!   draws are keyed on `(warp, attempt)`, so a retry faces fresh,
//!   equally deterministic luck.
//! * **Validation** — a caller-supplied check runs on every produced
//!   result before it is accepted; a bit-flipped result that still
//!   "completes" is caught here and retried rather than delivered.
//!
//! The launcher never invents results: a warp that exhausts its
//! attempts reports `result: None` plus the full failure history, and
//! the caller (see `kselect`'s resilient selection) decides whether to
//! degrade to an exact host path or surface a per-query error.

use crate::fault::{FaultPlan, FaultSignal};
use crate::{GpuSpec, Metrics, WarpCtx};

/// Retry/watchdog configuration for [`launch_resilient`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Maximum kernel attempts per warp (≥ 1).
    pub max_attempts: u32,
    /// Simulated watchdog deadline as an issue-slot budget per warp
    /// attempt. `None` disables the post-hoc overrun check (injected
    /// hangs still kill at their trigger).
    pub watchdog_issue_limit: Option<u64>,
    /// First-retry backoff in simulated seconds; doubles per attempt.
    pub backoff_base_s: f64,
    /// Fault campaign to inject, if any. Kernel-level plans require the
    /// `fault` feature — [`launch_resilient`] refuses to run one in a
    /// build without the hooks rather than silently injecting nothing.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            watchdog_issue_limit: None,
            backoff_base_s: 1e-6,
            fault_plan: None,
        }
    }
}

impl RetryPolicy {
    /// Policy with a fault plan attached.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// Why one warp attempt was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WarpFailure {
    /// The kernel was killed mid-flight (injected abort or ECC-style trap).
    Abort { at_issued: u64 },
    /// The watchdog deadline expired (injected hang, or a genuine
    /// overrun of [`RetryPolicy::watchdog_issue_limit`]).
    WatchdogTimeout { at_issued: u64 },
    /// The kernel panicked for a non-injected reason (kernel bug,
    /// `sanitize` race report, out-of-bounds access).
    Panic { message: String },
    /// The kernel completed but its output failed the caller's check.
    Validation { detail: String },
}

impl WarpFailure {
    /// Stable kebab-case name for counters and reports.
    pub fn name(&self) -> &'static str {
        match self {
            WarpFailure::Abort { .. } => "abort",
            WarpFailure::WatchdogTimeout { .. } => "watchdog-timeout",
            WarpFailure::Panic { .. } => "panic",
            WarpFailure::Validation { .. } => "validation",
        }
    }
}

impl core::fmt::Display for WarpFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WarpFailure::Abort { at_issued } => write!(f, "kernel abort at issue {at_issued}"),
            WarpFailure::WatchdogTimeout { at_issued } => {
                write!(f, "watchdog timeout at issue {at_issued}")
            }
            WarpFailure::Panic { message } => write!(f, "kernel panic: {message}"),
            WarpFailure::Validation { detail } => write!(f, "output validation failed: {detail}"),
        }
    }
}

/// The outcome of one warp across all its attempts.
#[derive(Clone, Debug)]
pub struct WarpRun<R> {
    /// The accepted result, or `None` when every attempt failed.
    pub result: Option<R>,
    /// Attempts consumed (1 = clean first run).
    pub attempts: u32,
    /// Failure per rejected attempt, in order.
    pub failures: Vec<WarpFailure>,
    /// Bit flips injected across all attempts of this warp.
    pub bitflips_injected: u64,
    /// Simulated backoff seconds this warp spent between attempts.
    pub backoff_s: f64,
}

/// Aggregate outcome of a resilient launch.
#[derive(Clone, Debug)]
pub struct ResilientLaunch<R> {
    /// Per-warp outcomes, ordered by warp id.
    pub runs: Vec<WarpRun<R>>,
    /// Metrics of the *accepted* attempts — the work that produced
    /// delivered results. With no faults this equals what
    /// [`crate::launch`] would have reported.
    pub metrics: Metrics,
    /// Metrics of rejected attempts: real simulated work, thrown away.
    pub wasted: Metrics,
    /// Total simulated backoff seconds across all warps.
    pub backoff_s: f64,
}

impl<R> ResilientLaunch<R> {
    /// Retries consumed beyond each warp's first attempt.
    pub fn total_retries(&self) -> u64 {
        self.runs.iter().map(|r| (r.attempts - 1) as u64).sum()
    }

    /// Warp ids whose every attempt failed.
    pub fn failed_warps(&self) -> Vec<usize> {
        self.runs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.result.is_none())
            .map(|(w, _)| w)
            .collect()
    }

    /// Total bit flips injected across the launch.
    pub fn total_bitflips(&self) -> u64 {
        self.runs.iter().map(|r| r.bitflips_injected).sum()
    }
}

/// A resilient launch could not even start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResilienceError {
    /// The policy carries a kernel-fault plan but the crate was built
    /// without the `fault` feature, so the hooks do not exist. Refusing
    /// is deliberate: silently running fault-free would make a fault
    /// campaign report false confidence.
    FaultsNotCompiled,
    /// `max_attempts` was zero.
    ZeroAttempts,
}

impl core::fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ResilienceError::FaultsNotCompiled => f.write_str(
                "fault plan requires the `fault` feature (rebuild with --features fault)",
            ),
            ResilienceError::ZeroAttempts => f.write_str("RetryPolicy.max_attempts must be >= 1"),
        }
    }
}

impl std::error::Error for ResilienceError {}

/// Suppress the default panic-hook chatter for *injected* faults only.
/// Fault campaigns kill thousands of warps on purpose; printing a
/// backtrace per kill would bury real diagnostics. Genuine panics still
/// reach the previous hook untouched. Installed once per process.
fn silence_fault_signals() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<FaultSignal>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Execute `kernel` for `n_warps` warps with per-warp isolation, retry,
/// watchdog and output validation. See the module docs for semantics.
///
/// `validate` receives `(warp_id, &result)` for every completed attempt
/// and rejects it by returning `Err(detail)`; rejected attempts are
/// retried like any other failure. Results and fault draws depend only
/// on `(warp, attempt)`, never on host scheduling, so two runs with the
/// same policy are identical.
pub fn launch_resilient<R, K, V>(
    spec: &GpuSpec,
    n_warps: usize,
    policy: &RetryPolicy,
    kernel: K,
    validate: V,
) -> Result<ResilientLaunch<R>, ResilienceError>
where
    K: Fn(usize, &mut WarpCtx) -> R + Sync,
    V: Fn(usize, &R) -> Result<(), String> + Sync,
    R: Send,
{
    if policy.max_attempts == 0 {
        return Err(ResilienceError::ZeroAttempts);
    }
    let plan = policy.fault_plan.filter(|p| p.is_active());
    if plan.is_some_and(|p| p.wants_kernel_faults()) && !crate::fault::compiled() {
        return Err(ResilienceError::FaultsNotCompiled);
    }
    if plan.is_some() {
        silence_fault_signals();
    }

    let per_warp: Vec<(WarpRun<R>, Metrics, Metrics)> = (0..n_warps)
        .map(|w| run_warp(spec, w, policy, plan.as_ref(), &kernel, &validate))
        .collect();

    let mut runs = Vec::with_capacity(n_warps);
    let mut metrics = Metrics::new();
    let mut wasted = Metrics::new();
    let mut backoff_s = 0.0;
    for (run, good, bad) in per_warp {
        backoff_s += run.backoff_s;
        metrics.add(&good);
        wasted.add(&bad);
        runs.push(run);
    }
    Ok(ResilientLaunch {
        runs,
        metrics,
        wasted,
        backoff_s,
    })
}

/// [`launch_resilient`] with a launch gate: before each warp is
/// launched, `gate(warp_id, consumed, backoff_s)` is consulted with the
/// metrics of all work already executed (accepted *and* wasted
/// attempts) plus the simulated backoff spent so far. A `false` gate
/// skips the warp entirely — it consumes no issue slots and is recorded
/// as `WarpRun { result: None, attempts: 0, failures: [] }`; an
/// `attempts` count of zero is the stable marker for "never launched"
/// (real runs always consume at least one attempt).
///
/// Gating imposes an order on launches, so warps run **sequentially in
/// warp-id order** — the deterministic wave-sequential model a
/// deadline check needs ("work already consumed" must be well defined
/// at every boundary). Per-warp results, metrics and fault draws depend
/// only on `(warp, attempt)` exactly as in [`launch_resilient`], so
/// with an always-true gate the outcome is identical to the ungated
/// launcher, byte for byte.
pub fn launch_resilient_gated<R, K, V, G>(
    spec: &GpuSpec,
    n_warps: usize,
    policy: &RetryPolicy,
    kernel: K,
    validate: V,
    mut gate: G,
) -> Result<ResilientLaunch<R>, ResilienceError>
where
    K: Fn(usize, &mut WarpCtx) -> R + Sync,
    V: Fn(usize, &R) -> Result<(), String> + Sync,
    R: Send,
    G: FnMut(usize, &Metrics, f64) -> bool,
{
    if policy.max_attempts == 0 {
        return Err(ResilienceError::ZeroAttempts);
    }
    let plan = policy.fault_plan.filter(|p| p.is_active());
    if plan.is_some_and(|p| p.wants_kernel_faults()) && !crate::fault::compiled() {
        return Err(ResilienceError::FaultsNotCompiled);
    }
    if plan.is_some() {
        silence_fault_signals();
    }

    let mut runs = Vec::with_capacity(n_warps);
    let mut metrics = Metrics::new();
    let mut wasted = Metrics::new();
    let mut consumed = Metrics::new();
    let mut backoff_s = 0.0;
    for w in 0..n_warps {
        if !gate(w, &consumed, backoff_s) {
            runs.push(WarpRun {
                result: None,
                attempts: 0,
                failures: Vec::new(),
                bitflips_injected: 0,
                backoff_s: 0.0,
            });
            continue;
        }
        let (run, good, bad) = run_warp(spec, w, policy, plan.as_ref(), &kernel, &validate);
        consumed.add(&good);
        consumed.add(&bad);
        backoff_s += run.backoff_s;
        metrics.add(&good);
        wasted.add(&bad);
        runs.push(run);
    }
    Ok(ResilientLaunch {
        runs,
        metrics,
        wasted,
        backoff_s,
    })
}

/// All attempts of a single warp. Returns the run plus (accepted,
/// wasted) metrics.
fn run_warp<R, K, V>(
    spec: &GpuSpec,
    warp: usize,
    policy: &RetryPolicy,
    plan: Option<&FaultPlan>,
    kernel: &K,
    validate: &V,
) -> (WarpRun<R>, Metrics, Metrics)
where
    K: Fn(usize, &mut WarpCtx) -> R + Sync,
    V: Fn(usize, &R) -> Result<(), String> + Sync,
{
    let mut failures = Vec::new();
    #[cfg_attr(not(feature = "fault"), allow(unused_mut))]
    let mut bitflips = 0u64;
    let mut backoff_s = 0.0;
    let mut good = Metrics::new();
    let mut wasted = Metrics::new();

    for attempt in 0..policy.max_attempts {
        if attempt > 0 {
            backoff_s += policy.backoff_base_s * f64::from(1u32 << (attempt - 1).min(30));
        }
        let mut ctx = WarpCtx::for_spec(spec);
        #[cfg(feature = "fault")]
        if let Some(p) = plan {
            ctx.arm_faults(p.warp_faults(warp, attempt));
        }
        #[cfg(not(feature = "fault"))]
        let _ = plan;

        // The context lives outside the unwind boundary so a killed
        // attempt still surrenders its metrics (the simulated machine
        // did issue those slots before dying).
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| kernel(warp, &mut ctx)));

        #[cfg(feature = "fault")]
        {
            bitflips += ctx.bitflips_injected();
        }
        let issued = ctx.metrics().issued;

        let (result, failure) = match outcome {
            Err(payload) => (None, Some(classify_panic(payload))),
            Ok(r) => {
                if policy.watchdog_issue_limit.is_some_and(|lim| issued > lim) {
                    (
                        None,
                        Some(WarpFailure::WatchdogTimeout { at_issued: issued }),
                    )
                } else if let Err(detail) = validate(warp, &r) {
                    (None, Some(WarpFailure::Validation { detail }))
                } else {
                    (Some(r), None)
                }
            }
        };

        match failure {
            None => {
                good.add(&ctx.into_metrics());
                return (
                    WarpRun {
                        result,
                        attempts: attempt + 1,
                        failures,
                        bitflips_injected: bitflips,
                        backoff_s,
                    },
                    good,
                    wasted,
                );
            }
            Some(f) => {
                wasted.add(&ctx.into_metrics());
                failures.push(f);
            }
        }
    }

    (
        WarpRun {
            result: None,
            attempts: policy.max_attempts,
            failures,
            bitflips_injected: bitflips,
            backoff_s,
        },
        good,
        wasted,
    )
}

/// Turn a caught panic payload into a [`WarpFailure`].
fn classify_panic(payload: Box<dyn std::any::Any + Send>) -> WarpFailure {
    if let Some(sig) = payload.downcast_ref::<FaultSignal>() {
        return match sig.kind {
            crate::fault::FaultKind::Hang => WarpFailure::WatchdogTimeout {
                at_issued: sig.at_issued,
            },
            _ => WarpFailure::Abort {
                at_issued: sig.at_issued,
            },
        };
    }
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string());
    WarpFailure::Panic { message }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mask;

    fn spec() -> GpuSpec {
        GpuSpec::tesla_c2075()
    }

    fn ok_validate(_: usize, _: &u64) -> Result<(), String> {
        Ok(())
    }

    #[test]
    fn fault_free_matches_plain_launch() {
        let kernel = |w: usize, ctx: &mut WarpCtx| {
            ctx.op(Mask::full(), (w as u64 % 5) + 1);
            w as u64
        };
        let (plain, pm) = crate::launch(&spec(), 24, kernel);
        let res = launch_resilient(&spec(), 24, &RetryPolicy::default(), kernel, ok_validate)
            .expect("policy is valid");
        let results: Vec<u64> = res.runs.iter().map(|r| r.result.unwrap()).collect();
        assert_eq!(results, plain);
        assert_eq!(res.metrics, pm);
        assert_eq!(res.wasted, Metrics::new());
        assert_eq!(res.total_retries(), 0);
        assert_eq!(res.backoff_s, 0.0);
    }

    #[test]
    fn gated_with_open_gate_matches_parallel_launcher() {
        let kernel = |w: usize, ctx: &mut WarpCtx| {
            ctx.op(Mask::full(), (w as u64 % 5) + 1);
            w as u64
        };
        let par = launch_resilient(&spec(), 24, &RetryPolicy::default(), kernel, ok_validate)
            .expect("policy is valid");
        let gated = launch_resilient_gated(
            &spec(),
            24,
            &RetryPolicy::default(),
            kernel,
            ok_validate,
            |_, _, _| true,
        )
        .expect("policy is valid");
        let pr: Vec<Option<u64>> = par.runs.iter().map(|r| r.result).collect();
        let gr: Vec<Option<u64>> = gated.runs.iter().map(|r| r.result).collect();
        assert_eq!(pr, gr);
        assert_eq!(par.metrics, gated.metrics);
        assert_eq!(par.wasted, gated.wasted);
        assert_eq!(par.backoff_s, gated.backoff_s);
    }

    #[test]
    fn closed_gate_skips_remaining_warps_without_consuming_work() {
        let kernel = |w: usize, ctx: &mut WarpCtx| {
            ctx.op(Mask::full(), 3);
            w as u64
        };
        // Stop launching once two warps' worth of work has been issued.
        let mut seen = Vec::new();
        let res = launch_resilient_gated(
            &spec(),
            8,
            &RetryPolicy::default(),
            kernel,
            ok_validate,
            |w, consumed, _| {
                seen.push((w, consumed.issued));
                w < 2
            },
        )
        .expect("policy is valid");
        for (w, run) in res.runs.iter().enumerate() {
            if w < 2 {
                assert_eq!(run.result, Some(w as u64));
                assert_eq!(run.attempts, 1);
            } else {
                assert!(run.result.is_none());
                assert_eq!(run.attempts, 0, "gated-out warp marked by attempts == 0");
                assert!(run.failures.is_empty());
            }
        }
        // The gate saw monotonically accumulated consumption, frozen
        // once launches stopped.
        assert_eq!(seen.len(), 8);
        assert!(seen.windows(2).all(|p| p[0].1 <= p[1].1));
        assert_eq!(seen[2].1, seen[7].1);
        // Only the two launched warps' work is accounted.
        let (two, m) = crate::launch(&spec(), 2, kernel);
        assert_eq!(two.len(), 2);
        assert_eq!(res.metrics, m);
    }

    #[test]
    fn genuine_panic_is_isolated_and_reported() {
        let kernel = |w: usize, ctx: &mut WarpCtx| {
            ctx.op(Mask::full(), 2);
            assert!(w != 3, "warp 3 exploded");
            w as u64
        };
        let policy = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let res = launch_resilient(&spec(), 6, &policy, kernel, ok_validate).unwrap();
        assert_eq!(res.failed_warps(), vec![3]);
        assert_eq!(res.runs[3].attempts, 2);
        assert!(matches!(
            &res.runs[3].failures[0],
            WarpFailure::Panic { message } if message.contains("warp 3 exploded")
        ));
        // The other warps delivered, and the dead warp's issue slots are
        // accounted as waste (2 attempts × 2 ops).
        assert!(res
            .runs
            .iter()
            .enumerate()
            .all(|(w, r)| w == 3 || r.result.is_some()));
        assert_eq!(res.wasted.issued, 4);
    }

    #[test]
    fn validation_rejects_and_retries() {
        // Kernel result depends only on (warp); validation rejects odd
        // warps every time → they exhaust attempts with a Validation
        // failure history, never a silent wrong answer.
        let kernel = |w: usize, ctx: &mut WarpCtx| {
            ctx.op(Mask::full(), 1);
            w as u64
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff_base_s: 1e-3,
            ..RetryPolicy::default()
        };
        let res = launch_resilient(&spec(), 4, &policy, kernel, |_, r| {
            if r % 2 == 1 {
                Err(format!("odd result {r}"))
            } else {
                Ok(())
            }
        })
        .unwrap();
        assert_eq!(res.failed_warps(), vec![1, 3]);
        assert_eq!(res.runs[1].failures.len(), 3);
        assert!(res.runs[1]
            .failures
            .iter()
            .all(|f| f.name() == "validation"));
        // Exponential backoff: 1e-3 + 2e-3 per failing warp.
        let expect = 2.0 * (1e-3 + 2e-3);
        assert!((res.backoff_s - expect).abs() < 1e-12, "{}", res.backoff_s);
    }

    #[test]
    fn watchdog_flags_overrun() {
        let kernel = |w: usize, ctx: &mut WarpCtx| {
            // Warp 2 issues far more than the deadline allows.
            let n = if w == 2 { 100 } else { 5 };
            ctx.op(Mask::full(), n);
            w
        };
        let policy = RetryPolicy {
            max_attempts: 2,
            watchdog_issue_limit: Some(50),
            ..RetryPolicy::default()
        };
        let res = launch_resilient(&spec(), 4, &policy, kernel, |_, _| Ok(())).unwrap();
        assert_eq!(res.failed_warps(), vec![2]);
        assert!(matches!(
            res.runs[2].failures[0],
            WarpFailure::WatchdogTimeout { at_issued: 100 }
        ));
    }

    #[test]
    fn zero_attempts_rejected() {
        let policy = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        let err = launch_resilient(&spec(), 1, &policy, |w, _| w, |_, _| Ok(()))
            .expect_err("zero attempts is invalid");
        assert_eq!(err, ResilienceError::ZeroAttempts);
    }

    #[test]
    fn kernel_fault_plan_requires_feature_or_runs() {
        let policy = RetryPolicy::default().with_faults(FaultPlan::seeded(1).with_aborts(1.0));
        let out = launch_resilient(
            &spec(),
            2,
            &policy,
            |w, ctx: &mut WarpCtx| {
                ctx.op(Mask::full(), 4096);
                w
            },
            |_, _| Ok(()),
        );
        if crate::fault::compiled() {
            // Hooks live: every warp aborts on every attempt.
            let res = out.unwrap();
            assert_eq!(res.failed_warps(), vec![0, 1]);
            assert!(res
                .runs
                .iter()
                .flat_map(|r| &r.failures)
                .all(|f| f.name() == "abort"));
        } else {
            assert_eq!(out.unwrap_err(), ResilienceError::FaultsNotCompiled);
        }
    }

    #[test]
    fn pcie_only_plan_runs_without_feature() {
        // PCIe faults are injected by the transfer model, not by kernel
        // hooks, so a PCIe-only plan is valid in any build.
        let policy = RetryPolicy::default().with_faults(FaultPlan::seeded(1).with_pcie(0.5, 0.5));
        let res = launch_resilient(
            &spec(),
            2,
            &policy,
            |w, _ctx: &mut WarpCtx| w,
            |_, _| Ok(()),
        )
        .unwrap();
        assert_eq!(res.failed_warps(), Vec::<usize>::new());
    }

    #[cfg(feature = "fault")]
    mod injected {
        use super::*;

        #[test]
        fn aborted_warps_recover_on_retry() {
            // 30% abort rate, 6 attempts (P[warp exhausts] ≈ 0.07%): the
            // plan is deterministic, so these exact assertions replay.
            let plan = FaultPlan::seeded(42).with_aborts(0.3);
            let policy = RetryPolicy {
                max_attempts: 6,
                ..RetryPolicy::default()
            }
            .with_faults(plan);
            let kernel = |w: usize, ctx: &mut WarpCtx| {
                for _ in 0..64 {
                    ctx.op(Mask::full(), 64);
                }
                w as u64
            };
            let res = launch_resilient(&spec(), 32, &policy, kernel, ok_validate).unwrap();
            assert!(res.total_retries() > 0, "campaign must actually inject");
            for (w, run) in res.runs.iter().enumerate() {
                assert_eq!(run.result, Some(w as u64), "warp {w} must recover");
            }
            // A recovered warp aborted first, so its killed attempt cost
            // real issue slots now accounted as waste.
            assert!(res.wasted.issued > 0, "killed attempts cost real work");
        }

        #[test]
        fn hangs_classify_as_watchdog() {
            let plan = FaultPlan::seeded(9).with_hangs(1.0);
            let policy = RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            }
            .with_faults(plan);
            let kernel = |w: usize, ctx: &mut WarpCtx| {
                for _ in 0..128 {
                    ctx.op(Mask::full(), 64);
                }
                w
            };
            let res = launch_resilient(&spec(), 4, &policy, kernel, |_, _| Ok(())).unwrap();
            assert_eq!(res.failed_warps().len(), 4);
            assert!(res
                .runs
                .iter()
                .flat_map(|r| &r.failures)
                .all(|f| f.name() == "watchdog-timeout"));
        }

        #[test]
        fn identical_policies_replay_identically() {
            let policy = RetryPolicy {
                max_attempts: 4,
                ..RetryPolicy::default()
            }
            .with_faults(FaultPlan::seeded(7).with_aborts(0.4).with_bitflips(0.01));
            let kernel = |w: usize, ctx: &mut WarpCtx| {
                let buf =
                    crate::mem::GlobalBuf::<u32>::from_vec((0..64).map(|i| i as u32).collect());
                let mut acc = 0u64;
                for i in 0..32 {
                    let v = buf.read_broadcast(ctx, Mask::full(), i);
                    ctx.op(Mask::full(), 1);
                    acc += u64::from(v);
                }
                acc + w as u64
            };
            let a = launch_resilient(&spec(), 16, &policy, kernel, |_, _| Ok(())).unwrap();
            let b = launch_resilient(&spec(), 16, &policy, kernel, |_, _| Ok(())).unwrap();
            assert_eq!(format!("{:?}", a.runs), format!("{:?}", b.runs));
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.wasted, b.wasted);
        }

        #[test]
        fn bitflips_surface_via_validation_not_silent_delivery() {
            // The kernel sums a buffer whose true sum is known. Bit flips
            // perturb loaded values; validation rejects any wrong sum. The
            // launcher must never deliver a wrong sum as a success.
            let data: Vec<u32> = (0..256).map(|i| i % 97).collect();
            let truth: u64 = data.iter().map(|&v| u64::from(v)).sum();
            let plan = FaultPlan::seeded(21).with_bitflips(0.02);
            let policy = RetryPolicy {
                max_attempts: 6,
                ..RetryPolicy::default()
            }
            .with_faults(plan);
            let kernel = |_w: usize, ctx: &mut WarpCtx| {
                let buf = crate::mem::GlobalBuf::<u32>::from_vec(data.clone());
                let mut acc = 0u64;
                for i in 0..256 {
                    acc += u64::from(buf.read_broadcast(ctx, Mask::full(), i));
                }
                acc
            };
            let res = launch_resilient(&spec(), 8, &policy, kernel, |_, &sum: &u64| {
                if sum == truth {
                    Ok(())
                } else {
                    Err(format!("sum {sum} != {truth}"))
                }
            })
            .unwrap();
            assert!(res.total_bitflips() > 0, "campaign must actually flip bits");
            for run in &res.runs {
                match run.result {
                    Some(sum) => assert_eq!(sum, truth, "delivered results are exact"),
                    None => assert!(!run.failures.is_empty(), "failures are named"),
                }
            }
        }
    }
}
