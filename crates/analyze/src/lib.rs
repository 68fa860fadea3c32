//! Static CFG analyzer for the simulated GPU kernels.
//!
//! The dynamic `sanitize` race detector (PR 2) proves the absence of
//! warp-synchronization bugs *on the schedules the tests execute*. This
//! crate proves three properties over **all** control-flow paths, at
//! build time, with zero runtime cost:
//!
//! * **barrier-divergence** ([`barrier`]) — no `ctx.warp_fence()` /
//!   `ctx.sync(..)` is reachable under lane-divergent control flow;
//! * **shared-alias** ([`alias`]) — per-lane `SharedBuf` writes are
//!   lane-partitioned (word ≡ `lane_id` mod `WARP_SIZE`) and the
//!   broadcast flag protocol is fence-bracketed on every path;
//! * **time-charge** / **charge-divergence** ([`cfg`](mod@cfg)) — every loop
//!   cycle and every derived divergence charges simulated time, so the
//!   paper's figures cannot silently undercount work. These are the
//!   path-sensitive successors of the old token-level `loop-head` and
//!   `charge-divergence` lint rules.
//!
//! The pipeline: [`lex`] tokenizes (dropping comments/strings),
//! [`parse`] builds per-function statement trees and extracts kernel
//! functions — those with a `&mut WarpCtx` parameter — plus buffer-
//! typed struct fields, [`taint`] classifies variables and builds
//! cross-file charge/fence summaries to a fixpoint, and the passes run
//! per kernel. Entry points: [`analyze_sources`] for in-memory sources,
//! [`analyze_tree`] to scan directories. Used by `cargo xtask analyze`
//! (and `cargo xtask lint`, which delegates the migrated charge rules).

pub mod alias;
pub mod barrier;
pub mod cfg;
pub mod lex;
pub mod parse;
pub mod report;
pub mod taint;

use std::collections::HashMap;
use std::path::Path;

pub use report::{to_json, Analysis, Finding};

pub const RULE_BARRIER: &str = "barrier-divergence";
pub const RULE_ALIAS: &str = "shared-alias";
pub const RULE_TIME: &str = "time-charge";
pub const RULE_CHARGE: &str = "charge-divergence";

/// Every rule this analyzer can emit (allowlist entries are validated
/// against the union of these and the token lint's rules).
pub const RULES: [&str; 4] = [RULE_BARRIER, RULE_ALIAS, RULE_TIME, RULE_CHARGE];

/// Analyze a set of `(path-label, source)` pairs as one program: struct
/// fields and function summaries are shared across files, so a kernel
/// in `queues.rs` calling a fencing helper defined in `mem.rs` is
/// resolved interprocedurally.
pub fn analyze_sources(files: &[(String, String)]) -> Analysis {
    let parsed: Vec<(usize, parse::FileFacts)> = files
        .iter()
        .enumerate()
        .map(|(i, (_, src))| (i, parse::parse_file(src)))
        .collect();

    // Cross-file facts: buffer fields (later definitions never shadow a
    // Shared marking — collisions resolve toward Shared, the strict
    // direction) and charge/fence/lanes summaries.
    let mut shared_fields: HashMap<String, parse::Space> = HashMap::new();
    for (_, facts) in &parsed {
        for (name, space) in &facts.buffer_fields {
            match shared_fields.get(name) {
                Some(parse::Space::Shared) => {}
                _ => {
                    shared_fields.insert(name.clone(), *space);
                }
            }
        }
    }
    let all_fns: Vec<&parse::FnDef> = parsed.iter().flat_map(|(_, f)| &f.fns).collect();
    let sums = taint::build_summaries(&all_fns);

    let mut analysis = Analysis {
        files_scanned: files.len(),
        ..Analysis::default()
    };
    for (file_idx, facts) in &parsed {
        let (label, src) = &files[*file_idx];
        let lines: Vec<&str> = src.lines().collect();
        for f in facts.fns.iter().filter(|f| f.is_kernel()) {
            analysis.kernels += 1;
            let env = taint::build_env(f);
            let graph = cfg::build_cfg(f, &env, &sums);
            let mut findings = barrier::barrier_findings(f, &env, &sums, label);
            findings.extend(alias::alias_findings(f, &env, &sums, &shared_fields, label));
            findings.extend(cfg::time_charge_findings(f, &graph, label));
            findings.extend(cfg::charge_divergence_findings(f, &env, &graph, label));
            for mut finding in findings {
                finding.line_text = lines
                    .get(finding.line.saturating_sub(1))
                    .map(|l| l.to_string())
                    .unwrap_or_default();
                analysis.findings.push(finding);
            }
        }
    }
    analysis
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    analysis
}

/// Collect `.rs` files under each root (a root may itself be a file),
/// sorted for deterministic reports.
pub fn collect_rs_files(roots: &[&Path]) -> std::io::Result<Vec<std::path::PathBuf>> {
    let mut out = Vec::new();
    for root in roots {
        if root.is_file() {
            out.push(root.to_path_buf());
        } else {
            walk(root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyze every `.rs` file under the given roots.
pub fn analyze_tree(roots: &[&Path]) -> std::io::Result<Analysis> {
    let mut files = Vec::new();
    for path in collect_rs_files(roots)? {
        let src = std::fs::read_to_string(&path)?;
        files.push((path.display().to_string(), src));
    }
    Ok(analyze_sources(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        analyze_sources(&[("test.rs".into(), src.into())]).findings
    }

    #[test]
    fn clean_vote_protocol_passes() {
        let findings = run(r#"
            pub struct B { flag: SharedBuf<u32> }
            impl B {
                pub fn push(&mut self, ctx: &mut WarpCtx, warp: Mask) {
                    let raisers = ctx.ballot(warp, full);
                    if raisers.any_lane() {
                        ctx.warp_fence();
                        self.flag.write_broadcast(ctx, raisers, 0, 1);
                        ctx.warp_fence();
                    }
                    let flag = self.flag.read_broadcast(ctx, warp, 0);
                    if flag == 1 { self.flush(ctx, warp); }
                }
                fn flush(&mut self, ctx: &mut WarpCtx, warp: Mask) {
                    ctx.op(warp, 1);
                }
            }
        "#);
        assert!(findings.is_empty(), "unexpected: {findings:?}");
    }

    #[test]
    fn fence_under_tainted_branch_is_flagged() {
        let findings = run(r#"
            pub fn k(ctx: &mut WarpCtx, warp: Mask) {
                let full = lanes_from_fn(|l| l % 2 == 0);
                if full[0] { ctx.warp_fence(); }
            }
        "#);
        // The same kernel also trips charge-divergence (tainted branch,
        // no charge) — check the barrier finding specifically.
        let barrier: Vec<&Finding> = findings.iter().filter(|f| f.rule == RULE_BARRIER).collect();
        assert_eq!(barrier.len(), 1, "got: {findings:?}");
        assert_eq!(barrier[0].line, 4);
        assert!(!barrier[0].witness.is_empty());
    }

    #[test]
    fn lane_partitioned_write_passes_and_scatter_fails() {
        let clean = run(r#"
            pub struct Q { db: SharedBuf<f32> }
            impl Q {
                fn slot_idx(&self, slot: Lanes<usize>) -> Lanes<usize> {
                    lanes_from_fn(|l| slot[l] * WARP_SIZE + l)
                }
                pub fn put(&mut self, ctx: &mut WarpCtx, m: Mask, d: Lanes<f32>) {
                    let idx = self.slot_idx(self.cur);
                    self.db.write(ctx, m, &idx, d);
                }
            }
        "#);
        assert!(clean.is_empty(), "unexpected: {clean:?}");
        let bad = run(r#"
            pub struct Q { db: SharedBuf<f32> }
            impl Q {
                pub fn put(&mut self, ctx: &mut WarpCtx, m: Mask, d: Lanes<f32>) {
                    let idx = lanes_from_fn(|l| l / 2);
                    self.db.write(ctx, m, &idx, d);
                }
            }
        "#);
        assert_eq!(bad.len(), 1, "got: {bad:?}");
        assert_eq!(bad[0].rule, RULE_ALIAS);
    }

    #[test]
    fn uncharged_divergent_loop_is_flagged_with_path() {
        let findings = run(r#"
            pub fn k(ctx: &mut WarpCtx, live: Mask) {
                let mut flip = false;
                while live.any_lane() {
                    if flip { ctx.loop_head(live); }
                    flip = !flip;
                }
            }
        "#);
        assert_eq!(findings.len(), 1, "got: {findings:?}");
        assert_eq!(findings[0].rule, RULE_TIME);
        assert_eq!(findings[0].line, 4);
        assert!(findings[0].witness.len() >= 2, "want a path witness");
    }

    #[test]
    fn charged_divergent_loop_passes() {
        let findings = run(r#"
            pub fn k(ctx: &mut WarpCtx, live: Mask) {
                let mut live = live;
                while live.any_lane() {
                    ctx.loop_head(live);
                    let (cont, _done) = ctx.diverge(live, lanes_from_fn(|l| l > 0));
                    live = cont;
                }
            }
        "#);
        assert!(findings.is_empty(), "unexpected: {findings:?}");
    }

    #[test]
    fn host_shape_loop_is_exempt() {
        let findings = run(r#"
            pub fn build(ctx: &mut WarpCtx, warp: Mask, sizes: &[usize]) {
                let mut acc = 0;
                let mut offsets = Vec::new();
                for s in sizes {
                    offsets.push(acc);
                    acc += s;
                }
                ctx.op(warp, 1);
            }
        "#);
        assert!(findings.is_empty(), "unexpected: {findings:?}");
    }

    #[test]
    fn divergence_without_charge_is_flagged() {
        let findings = run(r#"
            pub fn k(ctx: &mut WarpCtx, warp: Mask, x: Lanes<u32>) {
                let picked = warp.filter(|l| x[l] > 0);
                let n = picked.count();
            }
        "#);
        assert_eq!(findings.len(), 1, "got: {findings:?}");
        assert_eq!(findings[0].rule, RULE_CHARGE);
    }
}
