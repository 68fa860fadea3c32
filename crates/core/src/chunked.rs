//! Divide-and-merge k-selection for very large N.
//!
//! The paper evaluates N ∈ [2^13, 2^16] and notes (§IV) that "a
//! divide-and-merge method [Arefin et al., GPU-FS-kNN] can be applied to
//! support N larger than the range without hurting the performance". This
//! module is that extension: split the list into chunks, run any
//! configured k-selection variant per chunk, and merge the per-chunk
//! top-k sets with one final selection over ≤ k·⌈N/chunk⌉ candidates.
//!
//! Chunking is exact for any chunk size: an element in the global top-k
//! is necessarily in its own chunk's top-k.

use crate::select::{select_k, SelectConfig};
use crate::types::{sort_neighbors, Neighbor};

/// Incremental top-k merge over per-chunk selections — the host-side
/// "global merge" state of the divide-and-merge literature. Only
/// [`select_k_chunked`] uses it, since there chunks really do arrive as
/// top-k lists; the `knn` executor instead keeps one queue per query
/// across its tiles (see [`crate::queues::select_into`]).
///
/// Feed it each chunk's top-k (with the chunk's global id offset); it
/// keeps at most `k + chunk_topk` candidates alive, so memory stays
/// O(k) regardless of how many chunks stream through. Ties resolve by
/// `(dist, id)` — identical to a single [`select_k`] over the
/// concatenated list.
#[derive(Clone, Debug)]
struct StreamMerger {
    k: usize,
    acc: Vec<Neighbor>,
}

impl StreamMerger {
    /// A merger retaining the `k` smallest candidates seen.
    ///
    /// # Panics
    /// When `k` is zero.
    fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        StreamMerger {
            k,
            acc: Vec::with_capacity(2 * k),
        }
    }

    /// Merge one chunk's survivors, rebasing their chunk-local ids by
    /// `id_offset`.
    fn push_chunk(&mut self, chunk: Vec<Neighbor>, id_offset: u32) {
        for mut nb in chunk {
            nb.id += id_offset;
            self.acc.push(nb);
        }
        // The running set is ≤ k + |chunk| entries; sorting it is exact
        // and cheap, and truncation is lossless: an element of the
        // global top-k is necessarily in the running top-k of every
        // prefix of chunks.
        sort_neighbors(&mut self.acc);
        self.acc.truncate(self.k);
    }

    /// Finish: the global top-k, sorted ascending by `(dist, id)`.
    fn finish(self) -> Vec<Neighbor> {
        self.acc
    }
}

/// k smallest of `dists` computed chunk-by-chunk. `chunk_size` bounds the
/// working set of each inner selection (e.g. what fits device memory).
///
/// # Panics
/// When `chunk_size` is zero.
pub fn select_k_chunked(dists: &[f32], cfg: &SelectConfig, chunk_size: usize) -> Vec<Neighbor> {
    assert!(chunk_size > 0, "chunk size must be positive");
    if dists.len() <= chunk_size {
        return select_k(dists, cfg);
    }
    let mut merger = StreamMerger::new(cfg.k);
    for (ci, chunk) in dists.chunks(chunk_size).enumerate() {
        merger.push_chunk(select_k(chunk, cfg), (ci * chunk_size) as u32);
    }
    merger.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::QueueKind;
    use rand::{Rng, SeedableRng};

    fn oracle(dists: &[f32], k: usize) -> Vec<f32> {
        let mut v = dists.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v.truncate(k);
        v
    }

    #[test]
    fn matches_oracle_across_chunk_sizes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(301);
        let dists: Vec<f32> = (0..10_000).map(|_| rng.gen()).collect();
        let cfg = SelectConfig::optimized(QueueKind::Merge, 32);
        let expect = oracle(&dists, 32);
        for chunk in [17usize, 100, 1024, 9_999, 100_000] {
            let got: Vec<f32> = select_k_chunked(&dists, &cfg, chunk)
                .iter()
                .map(|n| n.dist)
                .collect();
            assert_eq!(got, expect, "chunk = {chunk}");
        }
    }

    #[test]
    fn merger_keeps_the_running_top_k_with_global_ids() {
        let mut m = StreamMerger::new(2);
        m.push_chunk(vec![Neighbor::new(3.0, 0), Neighbor::new(1.0, 1)], 0);
        m.push_chunk(vec![Neighbor::new(0.5, 0), Neighbor::new(9.0, 1)], 10);
        let out = m.finish();
        assert_eq!(out, vec![Neighbor::new(0.5, 10), Neighbor::new(1.0, 1)]);
    }

    #[test]
    fn chunk_smaller_than_k_still_exact() {
        // Each chunk yields fewer than k survivors; the merge must still
        // recover the global top-k.
        let mut rng = rand::rngs::StdRng::seed_from_u64(302);
        let dists: Vec<f32> = (0..500).map(|_| rng.gen()).collect();
        let cfg = SelectConfig::plain(QueueKind::Insertion, 64);
        let got: Vec<f32> = select_k_chunked(&dists, &cfg, 16)
            .iter()
            .map(|n| n.dist)
            .collect();
        assert_eq!(got, oracle(&dists, 64));
    }

    #[test]
    fn ids_are_globally_offset() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(303);
        let dists: Vec<f32> = (0..3_000).map(|_| rng.gen()).collect();
        let cfg = SelectConfig::plain(QueueKind::Heap, 16);
        for nb in select_k_chunked(&dists, &cfg, 250) {
            assert_eq!(dists[nb.id as usize], nb.dist);
        }
    }

    #[test]
    fn very_large_synthetic_n() {
        // Beyond the paper's 2^16 range — the reason this module exists.
        let n = 1 << 20;
        let dists: Vec<f32> = (0..n)
            .map(|i| ((i as u64 * 2654435761) % 1_000_003) as f32)
            .collect();
        let cfg = SelectConfig::optimized(QueueKind::Merge, 16);
        let got: Vec<f32> = select_k_chunked(&dists, &cfg, 1 << 16)
            .iter()
            .map(|n| n.dist)
            .collect();
        assert_eq!(got, oracle(&dists, 16));
    }

    #[test]
    #[should_panic]
    fn zero_chunk_rejected() {
        select_k_chunked(&[1.0], &SelectConfig::plain(QueueKind::Heap, 1), 0);
    }
}
