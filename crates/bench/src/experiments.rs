//! Reproductions of every figure and table in the paper's evaluation
//! (§IV). Each function regenerates one artefact and returns it as
//! renderable data; the `repro` binary drives them.
//!
//! | id | paper artefact | function |
//! |----|----------------|----------|
//! | fig5a/b | queue update counts | [`fig5`] |
//! | fig6a–c | Buffered Search improvement | [`fig6`] |
//! | fig7a–c | Hierarchical Partition vs k | [`fig7`] |
//! | fig8a–c | Hierarchical Partition vs N | [`fig8`] |
//! | fig9a/b | combined buf+hp improvement | [`fig9`] |
//! | table1  | execution-time grid | [`table1`] |

use std::time::Instant;

use kselect::buffered::BufferConfig;
use kselect::hierarchical::HpConfig;
use kselect::queues::UpdateCounter;
use kselect::{HeapQueue, InsertionQueue, MergeQueue, QueueKind, SelectConfig};

use crate::table::{Figure, Series, TimeTable};
use crate::workload::{device_matrix, distance_row, distance_rows};
use crate::Harness;

/// The paper's k sweep: 2^5 … 2^10 (quick mode: two points).
pub fn k_points(quick: bool) -> Vec<usize> {
    if quick {
        vec![32, 256]
    } else {
        (5..=10).map(|e| 1 << e).collect()
    }
}

/// The paper's N sweep: 2^13 … 2^16 (quick mode: two points).
pub fn n_points(quick: bool) -> Vec<usize> {
    if quick {
        vec![1 << 13, 1 << 14]
    } else {
        (13..=16).map(|e| 1 << e).collect()
    }
}

/// N used by the k sweeps (the paper fixes N = 2^15).
pub const SWEEP_N: usize = 1 << 15;
/// k used by the N sweeps (the paper fixes k = 2^8).
pub const SWEEP_K: usize = 1 << 8;

// ---------------------------------------------------------------------
// Fig. 5 — update counts of the three queues (native, instrumented)
// ---------------------------------------------------------------------

/// Run one instrumented k-selection and return the per-position counter.
fn count_updates(kind: QueueKind, dists: &[f32], k: usize) -> UpdateCounter {
    match kind {
        QueueKind::Insertion => {
            let mut q = InsertionQueue::with_stats(k, UpdateCounter::new(k));
            kselect::queues::select_into(&mut q, dists, 0);
            q.into_parts().1
        }
        QueueKind::Heap => {
            let mut q = HeapQueue::with_stats(k, UpdateCounter::new(k));
            kselect::queues::select_into(&mut q, dists, 0);
            q.into_parts().1
        }
        QueueKind::Merge => {
            let mut q = MergeQueue::with_stats(k, 8, UpdateCounter::new(k));
            kselect::queues::select_into(&mut q, dists, 0);
            q.into_parts().1
        }
    }
}

/// Fig. 5: (a) updates per queue position at k = 2^6; (b) total updates
/// vs k. N = 2^15, averaged over a batch of queries.
pub fn fig5(h: &Harness, quick: bool) -> Vec<Figure> {
    let n = SWEEP_N;
    let queries = if quick { 4 } else { 32 };
    // (a) per-position histogram at k = 64
    let k_a = 1 << 6;
    let mut per_pos = Vec::new();
    for kind in QueueKind::ALL {
        let mut acc = UpdateCounter::new(k_a);
        for qi in 0..queries {
            let row = distance_row(n, h.seed.wrapping_add(qi as u64));
            acc.merge(&count_updates(kind, &row, k_a));
        }
        let pts: Vec<(f64, f64)> = acc
            .per_position()
            .iter()
            .enumerate()
            .map(|(p, &c)| (p as f64, c as f64 / queries as f64))
            .collect();
        per_pos.push(Series {
            label: kind.name().to_string(),
            points: pts,
        });
    }
    // (b) totals vs k
    let mut totals: Vec<Series> = QueueKind::ALL
        .iter()
        .map(|kind| Series {
            label: kind.name().to_string(),
            points: Vec::new(),
        })
        .collect();
    for &k in &k_points(quick) {
        for (si, kind) in QueueKind::ALL.iter().enumerate() {
            let mut total = 0u64;
            for qi in 0..queries {
                let row = distance_row(n, h.seed.wrapping_add(qi as u64));
                total += count_updates(*kind, &row, k).total();
            }
            totals[si]
                .points
                .push(((k as f64).log2(), total as f64 / queries as f64));
        }
    }
    vec![
        Figure {
            id: "fig5a".into(),
            title: format!("Updates per queue position (N=2^15, k=2^6, avg of {queries} queries)"),
            x_label: "position".into(),
            y_label: "updates".into(),
            series: per_pos,
        },
        Figure {
            id: "fig5b".into(),
            title: "Total queue updates vs k (N=2^15)".into(),
            x_label: "log2 k".into(),
            y_label: "updates".into(),
            series: totals,
        },
    ]
}

// ---------------------------------------------------------------------
// Simulated-time helpers shared by Figs. 6–9 and Table I
// ---------------------------------------------------------------------

/// Simulated, workload-scaled seconds for one variant at (n, k).
fn sim_time(h: &Harness, cfg: &SelectConfig, n: usize) -> f64 {
    let dm = device_matrix(h.q_sim, n, h.seed ^ (n as u64) << 1);
    h.gpu_select_time(&dm, cfg)
}

/// The three buffered-search variants of Fig. 6, in paper order.
fn buffer_variants() -> Vec<(&'static str, BufferConfig)> {
    vec![
        (
            "buffer",
            BufferConfig {
                size: 16,
                sorted: false,
                intra_warp: false,
            },
        ),
        (
            "full",
            BufferConfig {
                size: 16,
                sorted: false,
                intra_warp: true,
            },
        ),
        (
            "full+sorted",
            BufferConfig {
                size: 16,
                sorted: true,
                intra_warp: true,
            },
        ),
    ]
}

fn fig_letter(i: usize) -> char {
    (b'a' + i as u8) as char
}

// ---------------------------------------------------------------------
// Fig. 6 — Buffered Search improvement vs k
// ---------------------------------------------------------------------

/// Fig. 6: improvement (base time / variant time) of the three buffered
/// variants per queue, k sweep at N = 2^15.
pub fn fig6(h: &Harness, quick: bool) -> Vec<Figure> {
    let n = SWEEP_N;
    QueueKind::ALL
        .iter()
        .enumerate()
        .map(|(qi, &kind)| {
            let mut series: Vec<Series> = buffer_variants()
                .iter()
                .map(|(label, _)| Series {
                    label: (*label).to_string(),
                    points: Vec::new(),
                })
                .collect();
            for &k in &k_points(quick) {
                let base_cfg = SelectConfig::plain(kind, k);
                let base = sim_time(h, &base_cfg, n);
                for (vi, (_, bcfg)) in buffer_variants().iter().enumerate() {
                    let t = sim_time(h, &base_cfg.with_buffer(*bcfg), n);
                    series[vi].points.push(((k as f64).log2(), base / t));
                }
            }
            Figure {
                id: format!("fig6{}", fig_letter(qi)),
                title: format!("Buffered Search improvement — {} (N=2^15)", kind.name()),
                x_label: "log2 k".into(),
                y_label: "improvement ×".into(),
                series,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figs. 7 & 8 — Hierarchical Partition scalability
// ---------------------------------------------------------------------

fn hp_figure(h: &Harness, id: String, kind: QueueKind, sweep: &[(f64, usize, usize)]) -> Figure {
    // sweep: (x, n, k) triples
    let gs = [2usize, 4, 6, 8];
    let mut series: Vec<Series> = gs
        .iter()
        .map(|g| Series {
            label: format!("G={g}"),
            points: Vec::new(),
        })
        .collect();
    for &(x, n, k) in sweep {
        let base_cfg = SelectConfig::plain(kind, k);
        let base = sim_time(h, &base_cfg, n);
        for (gi, &g) in gs.iter().enumerate() {
            let t = sim_time(h, &base_cfg.with_hp(HpConfig { g }), n);
            series[gi].points.push((x, base / t));
        }
    }
    Figure {
        id,
        title: format!("Hierarchical Partition improvement — {}", kind.name()),
        x_label: "sweep".into(),
        y_label: "improvement ×".into(),
        series,
    }
}

/// Fig. 7: HP improvement vs k (N = 2^15) for G ∈ {2,4,6,8}.
pub fn fig7(h: &Harness, quick: bool) -> Vec<Figure> {
    let sweep: Vec<(f64, usize, usize)> = k_points(quick)
        .iter()
        .map(|&k| ((k as f64).log2(), SWEEP_N, k))
        .collect();
    QueueKind::ALL
        .iter()
        .enumerate()
        .map(|(qi, &kind)| {
            let mut f = hp_figure(h, format!("fig7{}", fig_letter(qi)), kind, &sweep);
            f.x_label = "log2 k".into();
            f.title = format!("{} (N=2^15, k sweep)", f.title);
            f
        })
        .collect()
}

/// Fig. 8: HP improvement vs N (k = 2^8) for G ∈ {2,4,6,8}.
pub fn fig8(h: &Harness, quick: bool) -> Vec<Figure> {
    let sweep: Vec<(f64, usize, usize)> = n_points(quick)
        .iter()
        .map(|&n| ((n as f64).log2(), n, SWEEP_K))
        .collect();
    QueueKind::ALL
        .iter()
        .enumerate()
        .map(|(qi, &kind)| {
            let mut f = hp_figure(h, format!("fig8{}", fig_letter(qi)), kind, &sweep);
            f.x_label = "log2 N".into();
            f.title = format!("{} (k=2^8, N sweep)", f.title);
            f
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 9 — combined Buffered Search + Hierarchical Partition
// ---------------------------------------------------------------------

fn buf_hp(kind: QueueKind, k: usize) -> SelectConfig {
    SelectConfig::plain(kind, k)
        .with_buffer(BufferConfig::default())
        .with_hp(HpConfig::default())
}

/// Fig. 9: improvement of buf+hp over the plain queue — (a) k sweep at
/// N = 2^15, (b) N sweep at k = 2^8.
pub fn fig9(h: &Harness, quick: bool) -> Vec<Figure> {
    let mut k_series: Vec<Series> = Vec::new();
    let mut n_series: Vec<Series> = Vec::new();
    for kind in QueueKind::ALL {
        let mut s = Series {
            label: format!("{}_buf+hp", kind.name()),
            points: Vec::new(),
        };
        for &k in &k_points(quick) {
            let base = sim_time(h, &SelectConfig::plain(kind, k), SWEEP_N);
            let t = sim_time(h, &buf_hp(kind, k), SWEEP_N);
            s.points.push(((k as f64).log2(), base / t));
        }
        k_series.push(s);
        let mut s = Series {
            label: format!("{}_buf+hp", kind.name()),
            points: Vec::new(),
        };
        for &n in &n_points(quick) {
            let base = sim_time(h, &SelectConfig::plain(kind, SWEEP_K), n);
            let t = sim_time(h, &buf_hp(kind, SWEEP_K), n);
            s.points.push(((n as f64).log2(), base / t));
        }
        n_series.push(s);
    }
    vec![
        Figure {
            id: "fig9a".into(),
            title: "Combined buf+hp improvement vs k (N=2^15)".into(),
            x_label: "log2 k".into(),
            y_label: "improvement ×".into(),
            series: k_series,
        },
        Figure {
            id: "fig9b".into(),
            title: "Combined buf+hp improvement vs N (k=2^8)".into(),
            x_label: "log2 N".into(),
            y_label: "improvement ×".into(),
            series: n_series,
        },
    ]
}

// ---------------------------------------------------------------------
// Table I — execution times of all k-selection algorithms
// ---------------------------------------------------------------------

/// Measure the native CPU heap baseline over a query sample, scaled to
/// the full workload; returns (serial_seconds, parallel_seconds).
fn cpu_times(h: &Harness, n: usize, k: usize, quick: bool) -> (f64, f64) {
    let q_cpu = if quick { 32 } else { 256 };
    let rows = distance_rows(q_cpu, n, h.seed ^ 0xC0FFEE);
    let scale = h.q_full as f64 / q_cpu as f64;
    // Warm-up pass: fault the rows in so the first measured
    // configuration isn't penalised by page faults.
    std::hint::black_box(knn::cpu_select_serial(&rows[..q_cpu.min(8)], k));
    let t0 = Instant::now();
    let r1 = knn::cpu_select_serial(&rows, k);
    let serial = t0.elapsed().as_secs_f64() * scale;
    std::hint::black_box(&r1);
    let t0 = Instant::now();
    let r2 = knn::cpu_select_parallel(&rows, k);
    let parallel = t0.elapsed().as_secs_f64() * scale;
    std::hint::black_box(&r2);
    (serial, parallel)
}

/// Simulated TBS time — block-cooperative mapping, as the published
/// implementation (None above its k ≤ 512 limit, matching the paper's
/// "-" cells).
fn tbs_time(h: &Harness, n: usize, k: usize) -> Option<f64> {
    if k > 512 {
        return None;
    }
    let dm = device_matrix(h.q_sim, n, h.seed ^ 0x7B5);
    let (_, m) = baselines::gpu_tbs_block_select(&h.tm.spec, &dm, k);
    Some(h.tm.kernel_time_scaled(&m, h.replication()))
}

/// Lane-per-query TBS mapping (kept as a mapping ablation row).
fn tbs_lane_time(h: &Harness, n: usize, k: usize) -> Option<f64> {
    if k > 512 {
        return None;
    }
    let dm = device_matrix(h.q_sim, n, h.seed ^ 0x7B5);
    let (_, m) = baselines::gpu_tbs_select(&h.tm.spec, &dm, k);
    Some(h.tm.kernel_time_scaled(&m, h.replication()))
}

/// Simulated QMS time.
fn qms_time(h: &Harness, n: usize, k: usize) -> f64 {
    let dm = device_matrix(h.q_sim, n, h.seed ^ 0x915);
    let (_, m) = baselines::gpu_qms_select(&h.tm.spec, &dm, k);
    h.tm.kernel_time_scaled(&m, h.replication())
}

/// Table I: execution times (seconds) of every k-selection algorithm over
/// the k sweep (N = 2^15) and the N sweep (k = 2^8).
pub fn table1(h: &Harness, quick: bool) -> TimeTable {
    let dim = 128;
    let cells: Vec<(String, usize, usize)> = k_points(quick)
        .iter()
        .map(|&k| (format!("k=2^{}", (k as f64).log2() as u32), SWEEP_N, k))
        .chain(
            n_points(quick)
                .iter()
                .map(|&n| (format!("N=2^{}", (n as f64).log2() as u32), n, SWEEP_K)),
        )
        .collect();
    let columns: Vec<String> = cells.iter().map(|(c, _, _)| c.clone()).collect();

    let mut rows: Vec<(String, Vec<Option<f64>>)> = Vec::new();
    let mut push_row = |label: &str, f: &mut dyn FnMut(usize, usize) -> Option<f64>| {
        let vals = cells.iter().map(|&(_, n, k)| f(n, k)).collect();
        rows.push((label.to_string(), vals));
    };

    push_row("Distance Calculation on GPU", &mut |n, _| {
        Some(h.tm.kernel_time(&knn::gpu_distance_metrics(h.q_full, n, dim)))
    });
    push_row("Data Copy", &mut |n, _| {
        Some(knn::data_copy_time(&h.tm.spec, h.q_full, n))
    });
    let mut cpu_cache: Vec<((usize, usize), (f64, f64))> = Vec::new();
    let mut cpu = |h: &Harness, n: usize, k: usize| -> (f64, f64) {
        if let Some(&(_, v)) = cpu_cache.iter().find(|&&(key, _)| key == (n, k)) {
            return v;
        }
        let v = cpu_times(h, n, k, quick);
        cpu_cache.push(((n, k), v));
        v
    };
    push_row("CPU 1 (measured)", &mut |n, k| Some(cpu(h, n, k).0));
    push_row("CPU par (measured)", &mut |n, k| Some(cpu(h, n, k).1));
    push_row("CPU 16 (modeled = serial/16)", &mut |n, k| {
        Some(cpu(h, n, k).0 / 16.0)
    });

    // GPU-based, original
    push_row("Insertion Queue", &mut |n, k| {
        Some(sim_time(
            h,
            &SelectConfig::plain(QueueKind::Insertion, k),
            n,
        ))
    });
    push_row("Heap Queue", &mut |n, k| {
        Some(sim_time(h, &SelectConfig::plain(QueueKind::Heap, k), n))
    });
    push_row("Merge Queue", &mut |n, k| {
        Some(sim_time(h, &SelectConfig::plain(QueueKind::Merge, k), n))
    });
    push_row("Merge Queue aligned", &mut |n, k| {
        Some(sim_time(
            h,
            &SelectConfig::plain(QueueKind::Merge, k).with_aligned(true),
            n,
        ))
    });

    // GPU-based, optimized (buf + hp)
    push_row("Insertion Queue buf+hp", &mut |n, k| {
        Some(sim_time(h, &buf_hp(QueueKind::Insertion, k), n))
    });
    push_row("Heap Queue buf+hp", &mut |n, k| {
        Some(sim_time(h, &buf_hp(QueueKind::Heap, k), n))
    });
    push_row("Merge Queue buf+hp", &mut |n, k| {
        Some(sim_time(h, &buf_hp(QueueKind::Merge, k), n))
    });
    push_row("Merge Queue aligned+buf+hp", &mut |n, k| {
        Some(sim_time(
            h,
            &buf_hp(QueueKind::Merge, k).with_aligned(true),
            n,
        ))
    });

    // State of the art
    push_row("Truncated Bitonic Sort", &mut |n, k| tbs_time(h, n, k));
    push_row("WarpSelect (FAISS-style, 2017)", &mut |n, k| {
        let dm = device_matrix(h.q_sim, n, h.seed ^ 0xFA155);
        let (_, m) = baselines::gpu_warp_select(&h.tm.spec, &dm, k);
        Some(h.tm.kernel_time_scaled(&m, h.replication()))
    });
    push_row("TBS (lane-per-query mapping)", &mut |n, k| {
        tbs_lane_time(h, n, k)
    });
    push_row("Quick Multi-Select", &mut |n, k| Some(qms_time(h, n, k)));

    TimeTable {
        id: "table1".into(),
        title: format!(
            "Execution time (sec.) of k-selection algorithms — Q=2^13, \
             simulated Tesla C2075 ({} queries sampled per config)",
            h.q_sim
        ),
        columns,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_harness() -> Harness {
        Harness {
            q_sim: 32,
            ..Harness::new()
        }
    }

    #[test]
    fn fig5_shapes() {
        let h = quick_harness();
        let figs = fig5(&h, true);
        assert_eq!(figs.len(), 2);
        // 5a: insertion updates fall towards the tail; heap/merge do not
        // exceed insertion near the head.
        let fa = &figs[0];
        let ins = &fa.series[0].points;
        let head = ins[..8].iter().map(|p| p.1).sum::<f64>();
        let tail = ins[ins.len() - 8..].iter().map(|p| p.1).sum::<f64>();
        assert!(head > tail, "insertion updates must concentrate at head");
        // 5b: at the largest k, insertion total >> merge total.
        let fb = &figs[1];
        let last = fb.series[0].points.len() - 1;
        let ins_total = fb.series[0].points[last].1;
        let merge_total = fb.series[2].points[last].1;
        assert!(ins_total > 2.0 * merge_total);
    }

    #[test]
    #[ignore = "several minutes of simulation; run explicitly or via the repro binary"]
    fn full_table1_smoke() {
        let t = table1(&Harness::new(), false);
        assert_eq!(t.columns.len(), 10);
    }

    #[test]
    fn table1_quick_shape() {
        let mut h = quick_harness();
        // Shrink further for test speed: tiny sample is fine for shape.
        h.q_sim = 32;
        let t = table1(&h, true);
        assert_eq!(t.columns.len(), 4);
        // k-selection (insertion queue at large k) dwarfs distance calc.
        let ins_k256 = t.cell("Insertion Queue", 1).unwrap();
        let dist = t.cell("Distance Calculation on GPU", 1).unwrap();
        assert!(ins_k256 > dist, "ins {ins_k256} dist {dist}");
        // The optimized merge queue beats the plain one.
        let mq = t.cell("Merge Queue", 1).unwrap();
        let mq_opt = t.cell("Merge Queue aligned+buf+hp", 1).unwrap();
        assert!(mq_opt < mq);
        // TBS exists at k ≤ 512 here.
        assert!(t.cell("Truncated Bitonic Sort", 0).is_some());
    }
}

// ---------------------------------------------------------------------
// Ablations beyond the paper (DESIGN.md §8)
// ---------------------------------------------------------------------

/// A custom warp scan used by ablations that need direct access to
/// [`kselect::gpu::WarpQueues`] knobs (e.g. the eager-repair switch).
fn scan_with_queues(
    h: &Harness,
    n: usize,
    k: usize,
    m: usize,
    aligned: bool,
    eager: bool,
    repair: kselect::gpu::queues::RepairKind,
) -> f64 {
    use kselect::gpu::WarpQueues;
    use simt::{lanes_from_fn, launch, splat, Mask, WARP_SIZE};
    let dm = device_matrix(h.q_sim, n, h.seed ^ 0xAB1A);
    let n_warps = h.q_sim.div_ceil(WARP_SIZE);
    let (_, metrics) = launch(&h.tm.spec, n_warps, |warp_id, ctx| {
        let warp = Mask::full();
        let mut q = WarpQueues::new(QueueKind::Merge, k, m, aligned);
        q.eager = eager;
        q.repair = repair;
        let q_base = warp_id * WARP_SIZE;
        for e in 0..n {
            let idx = lanes_from_fn(|l| e * dm.q() + q_base + l);
            let d = dm.buf().read(ctx, warp, &idx);
            let pred = lanes_from_fn(|l| d[l] < q.qmax[l]);
            let (ins, _) = ctx.diverge(warp, pred);
            q.insert(ctx, warp, ins, &d, &splat(e as u32));
        }
    });
    h.tm.kernel_time_scaled(&metrics, h.replication())
}

/// Ablation studies: m sweep, buffer-size sweep, aligned-merge isolation,
/// lazy-vs-eager repair, HP construction share, and the small-k regime.
pub fn ablations(h: &Harness, quick: bool) -> Vec<Figure> {
    let n = SWEEP_N;
    let mut figs = Vec::new();

    // (1) Merge Queue m sweep — the paper fixes m = 8 "experimentally";
    // this is the sweep that justifies it. Simulated time vs m, k = 2^8.
    let ms: &[usize] = if quick {
        &[2, 8, 32]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };
    let mut s = Series {
        label: "aligned merge queue".into(),
        points: Vec::new(),
    };
    for &m in ms {
        let mut cfg = SelectConfig::plain(QueueKind::Merge, SWEEP_K).with_aligned(true);
        cfg.m = m;
        s.points.push((m as f64, sim_time(h, &cfg, n)));
    }
    figs.push(Figure {
        id: "abl_m_sweep".into(),
        title: "Merge Queue level-0 size m (N=2^15, k=2^8) — simulated seconds".into(),
        x_label: "m".into(),
        y_label: "seconds".into(),
        series: vec![s],
    });

    // (2) Buffer-size sweep for Buffered Search (full+sorted), merge queue.
    let sizes: &[usize] = if quick {
        &[8, 32]
    } else {
        &[2, 4, 8, 16, 32, 64]
    };
    let mut s = Series {
        label: "full+sorted".into(),
        points: Vec::new(),
    };
    let base = sim_time(h, &SelectConfig::plain(QueueKind::Merge, SWEEP_K), n);
    for &size in sizes {
        let cfg = SelectConfig::plain(QueueKind::Merge, SWEEP_K).with_buffer(BufferConfig {
            size,
            sorted: true,
            intra_warp: true,
        });
        s.points.push((size as f64, base / sim_time(h, &cfg, n)));
    }
    figs.push(Figure {
        id: "abl_buffer_size".into(),
        title: "Buffered Search buffer-size sweep (merge queue, N=2^15, k=2^8) — improvement"
            .into(),
        x_label: "buffer size".into(),
        y_label: "improvement ×".into(),
        series: vec![s],
    });

    // (3) Aligned Merge isolation: unaligned / aligned ratio across k
    // (Table I hints at up to 10.51×).
    let mut s = Series {
        label: "unaligned / aligned".into(),
        points: Vec::new(),
    };
    for &k in &k_points(quick) {
        let un = sim_time(h, &SelectConfig::plain(QueueKind::Merge, k), n);
        let al = sim_time(
            h,
            &SelectConfig::plain(QueueKind::Merge, k).with_aligned(true),
            n,
        );
        s.points.push(((k as f64).log2(), un / al));
    }
    figs.push(Figure {
        id: "abl_aligned".into(),
        title: "Aligned Merge speedup over unaligned (N=2^15)".into(),
        x_label: "log2 k".into(),
        y_label: "speedup ×".into(),
        series: vec![s],
    });

    // (4) Lazy Update isolation: eager full-cascade repair vs lazy.
    let mut s = Series {
        label: "eager / lazy".into(),
        points: Vec::new(),
    };
    use kselect::gpu::queues::RepairKind;
    for &k in &k_points(quick) {
        let lazy = scan_with_queues(h, n, k, 8, true, false, RepairKind::BitonicNetwork);
        let eager = scan_with_queues(h, n, k, 8, true, true, RepairKind::BitonicNetwork);
        s.points.push(((k as f64).log2(), eager / lazy));
    }
    figs.push(Figure {
        id: "abl_lazy".into(),
        title: "Lazy Update benefit: eager-repair cost relative to lazy (aligned merge, N=2^15)"
            .into(),
        x_label: "log2 k".into(),
        y_label: "slowdown ×".into(),
        series: vec![s],
    });

    // (4b) Merge-repair algorithm (paper §V future work): the paper's
    // Reverse Bitonic network vs a work-optimal two-pointer merge
    // (Merge-Path core). Ratio > 1 means the bitonic network wins.
    let mut s = Series {
        label: "linear-merge / bitonic".into(),
        points: Vec::new(),
    };
    for &k in &k_points(quick) {
        let bitonic = scan_with_queues(h, n, k, 8, true, false, RepairKind::BitonicNetwork);
        let linear = scan_with_queues(h, n, k, 8, true, false, RepairKind::LinearMerge);
        s.points.push(((k as f64).log2(), linear / bitonic));
    }
    figs.push(Figure {
        id: "abl_merge_repair".into(),
        title: "Merge-repair algorithm: Merge-Path-style linear merge vs Reverse Bitonic network (aligned merge queue, N=2^15)".into(),
        x_label: "log2 k".into(),
        y_label: "relative cost ×".into(),
        series: vec![s],
    });

    // (5) HP construction share of total HP time across N.
    let mut s = Series {
        label: "construction share".into(),
        points: Vec::new(),
    };
    for &nn in &n_points(quick) {
        let dm = device_matrix(h.q_sim, nn, h.seed ^ 0x4B);
        let cfg = SelectConfig::plain(QueueKind::Merge, SWEEP_K)
            .with_aligned(true)
            .with_hp(kselect::hierarchical::HpConfig { g: 4 });
        let res = kselect::gpu::gpu_select_k(&h.tm.spec, &dm, &cfg);
        let share = h.tm.kernel_time(&res.build_metrics) / h.tm.kernel_time(&res.metrics);
        s.points.push(((nn as f64).log2(), share));
    }
    figs.push(Figure {
        id: "abl_hp_build_share".into(),
        title: "Hierarchical Partition: construction share of total time (k=2^8)".into(),
        x_label: "log2 N".into(),
        y_label: "fraction".into(),
        series: vec![s],
    });

    // (6) Small-k regime (k < 2^5): the paper calls it "less challenging
    // than distance calculation" — verify selection < distance there.
    let dist_t =
        h.tm.kernel_time(&knn::gpu_distance_metrics(h.q_full, n, 128));
    let mut sel = Series {
        label: "merge aligned+buf+hp".into(),
        points: Vec::new(),
    };
    let mut dist = Series {
        label: "distance calculation".into(),
        points: Vec::new(),
    };
    let small_ks: &[usize] = if quick { &[8, 32] } else { &[4, 8, 16, 32] };
    for &k in small_ks {
        let mut cfg = SelectConfig::optimized(QueueKind::Merge, k);
        cfg.m = cfg.m.min(k); // k = m·2^j needs m ≤ k at tiny k
        sel.points.push(((k as f64).log2(), sim_time(h, &cfg, n)));
        dist.points.push(((k as f64).log2(), dist_t));
    }
    figs.push(Figure {
        id: "abl_small_k".into(),
        title: "Small-k regime (N=2^15): optimized selection vs distance calculation — seconds"
            .into(),
        x_label: "log2 k".into(),
        y_label: "seconds".into(),
        series: vec![sel, dist],
    });

    figs
}

#[cfg(test)]
mod ablation_tests {
    use super::*;

    #[test]
    fn ablations_quick_shapes() {
        let h = Harness {
            q_sim: 32,
            ..Harness::new()
        };
        let figs = ablations(&h, true);
        assert_eq!(figs.len(), 7);
        let by_id = |id: &str| figs.iter().find(|f| f.id == id).unwrap();
        // Lazy update must be a genuine win: eager repair costs more.
        for &(_, slowdown) in &by_id("abl_lazy").series[0].points {
            assert!(slowdown > 1.0, "eager should be slower, got {slowdown}");
        }
        // Aligned merge must win at every k.
        for &(_, speedup) in &by_id("abl_aligned").series[0].points {
            assert!(speedup > 1.0);
        }
        // Construction is a minority share of HP time.
        for &(_, share) in &by_id("abl_hp_build_share").series[0].points {
            assert!(share < 0.5, "construction share {share}");
        }
        // Small-k: selection cheaper than distance calculation.
        let small = by_id("abl_small_k");
        for (sel, dist) in small.series[0].points.iter().zip(&small.series[1].points) {
            assert!(sel.1 < dist.1, "selection {} vs distance {}", sel.1, dist.1);
        }
    }
}

// ---------------------------------------------------------------------
// Occupancy-adjusted buffer sweep (fidelity extension)
// ---------------------------------------------------------------------

/// Buffer-size sweep with the occupancy correction: each buffered warp
/// occupies `padded_size × 32 × 8 B + 4` of shared memory, so large
/// buffers crowd out resident warps and forfeit latency hiding. With the
/// raw model the improvement grows monotonically in buffer size; with
/// the correction it turns over — the realistic trade-off the paper's
/// bsize choice reflects.
pub fn occupancy(h: &Harness, quick: bool) -> Vec<Figure> {
    use simt::WARP_SIZE;
    let n = SWEEP_N;
    let sizes: &[usize] = if quick {
        &[8, 64]
    } else {
        &[2, 4, 8, 16, 32, 64, 128]
    };
    let base_cfg = SelectConfig::plain(QueueKind::Merge, SWEEP_K).with_aligned(true);
    let dm = device_matrix(h.q_sim, n, h.seed ^ 0x0CC);
    let base_res = kselect::gpu::gpu_select_k(&h.tm.spec, &dm, &base_cfg);
    let base_raw = h.tm.kernel_time_scaled(&base_res.metrics, h.replication());
    let mut raw = Series {
        label: "raw model".into(),
        points: Vec::new(),
    };
    let mut adj = Series {
        label: "occupancy-adjusted".into(),
        points: Vec::new(),
    };
    for &size in sizes {
        let cfg = base_cfg.with_buffer(BufferConfig {
            size,
            sorted: true,
            intra_warp: true,
        });
        let res = kselect::gpu::gpu_select_k(&h.tm.spec, &dm, &cfg);
        let shared_bytes = (size.next_power_of_two() * WARP_SIZE * 8 + 4) as u64;
        let t_raw = h.tm.kernel_time_scaled(&res.metrics, h.replication());
        // Scale the occupancy-adjusted body the same way as the raw one.
        let t_adj_once = h.tm.kernel_time_occupancy(&res.metrics, shared_bytes);
        let t_adj =
            (t_adj_once - h.tm.launch_overhead_s) * h.replication() + h.tm.launch_overhead_s;
        raw.points.push((size as f64, base_raw / t_raw));
        adj.points.push((size as f64, base_raw / t_adj));
    }
    vec![Figure {
        id: "occupancy_buffer".into(),
        title: "Buffer size under the occupancy model (aligned merge queue, N=2^15, k=2^8)".into(),
        x_label: "buffer size".into(),
        y_label: "improvement ×".into(),
        series: vec![raw, adj],
    }]
}

#[cfg(test)]
mod occupancy_tests {
    use super::*;

    #[test]
    fn occupancy_turns_the_curve_over() {
        let h = Harness {
            q_sim: 32,
            ..Harness::new()
        };
        let figs = occupancy(&h, false);
        let adj = &figs[0].series[1].points;
        let raw = &figs[0].series[0].points;
        // Raw model: monotone growth to the largest buffer.
        assert!(raw.last().unwrap().1 >= raw.first().unwrap().1);
        // Adjusted: the largest buffer is worse than the best point.
        let best = adj.iter().map(|p| p.1).fold(f64::MIN, f64::max);
        assert!(
            adj.last().unwrap().1 < best,
            "adjusted curve should turn over: {adj:?}"
        );
    }
}
