//! Native (scalar) queue structures for k-selection.
//!
//! These are the CPU-side reference implementations of the three queues the
//! paper compares (Fig. 1): the classic **insertion queue** and **heap
//! queue**, and the paper's **Merge Queue**. They serve three roles:
//!
//! 1. correctness oracles for the simulated GPU kernels;
//! 2. the building block of the native k-NN search executor in the `knn`
//!    crate;
//! 3. the instrumented subjects of Fig. 5 (update counts per position) via
//!    the [`UpdateSink`] hook.
//!
//! All queues share the same contract, captured by [`KQueue`]: they are
//! pre-filled with `(INF, NO_ID)` sentinels, expose the current maximum
//! (the element a new candidate must beat), and accept candidates through
//! [`KQueue::offer`].

mod heap;
mod insertion;
pub mod merge;
pub mod stats;

pub use heap::HeapQueue;
pub use insertion::InsertionQueue;
pub use merge::MergeQueue;
pub use stats::{NoStats, UpdateCounter, UpdateSink};

use crate::types::{sort_neighbors, Neighbor, QueueKind};

/// A bounded priority structure retaining the `k` smallest offered values.
pub trait KQueue {
    /// Capacity `k` of the queue.
    fn k(&self) -> usize;

    /// Current maximum (the "queue head" in the paper — the value a new
    /// candidate must be smaller than to enter). `INF` until `k` real
    /// values have been offered.
    fn max(&self) -> f32;

    /// Offer a candidate; returns true if it entered the queue.
    fn offer(&mut self, dist: f32, id: u32) -> bool;

    /// Snapshot the current contents in arbitrary internal order
    /// (sentinels included when fewer than `k` candidates entered).
    fn contents(&self) -> Vec<Neighbor>;

    /// Extract the retained neighbors sorted ascending by distance,
    /// sentinels stripped.
    fn into_sorted(self) -> Vec<Neighbor>
    where
        Self: Sized,
    {
        let mut v: Vec<Neighbor> = self
            .contents()
            .into_iter()
            .filter(|n| !n.is_sentinel())
            .collect();
        sort_neighbors(&mut v);
        v
    }
}

/// Run plain sequential k-selection (Algorithm 1 of the paper) over a
/// distance list with the given queue.
pub fn select_into<Q: KQueue + ?Sized>(queue: &mut Q, dists: &[f32]) {
    for (id, &d) in dists.iter().enumerate() {
        if d < queue.max() {
            queue.offer(d, id as u32);
        }
    }
}

/// Construct a queue of the requested kind. `m` is the Merge Queue's
/// level-0 size (ignored by the other kinds).
///
/// # Panics
/// For `QueueKind::Merge` when `k` is not `m · 2^j` (see [`MergeQueue`]).
pub fn make_queue(kind: QueueKind, k: usize, m: usize) -> Box<dyn KQueue> {
    match kind {
        QueueKind::Insertion => Box::new(InsertionQueue::new(k)),
        QueueKind::Heap => Box::new(HeapQueue::new(k)),
        QueueKind::Merge => Box::new(MergeQueue::new(k, m)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_into_matches_sort_for_all_kinds() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let dists: Vec<f32> = (0..500).map(|_| rng.gen::<f32>()).collect();
        let mut expect = dists.clone();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for kind in QueueKind::ALL {
            let mut q = make_queue(kind, 32, 8);
            select_into(q.as_mut(), &dists);
            let mut got = q.contents();
            got.retain(|n| !n.is_sentinel());
            sort_neighbors(&mut got);
            let got_d: Vec<f32> = got.iter().map(|n| n.dist).collect();
            assert_eq!(got_d, &expect[..32], "{kind}");
            for n in &got {
                assert_eq!(dists[n.id as usize], n.dist, "{kind}: id must match value");
            }
        }
    }

    #[test]
    fn fewer_candidates_than_k() {
        for kind in QueueKind::ALL {
            let mut q = make_queue(kind, 16, 8);
            select_into(q.as_mut(), &[3.0, 1.0, 2.0]);
            let mut got = q.contents();
            got.retain(|n| !n.is_sentinel());
            sort_neighbors(&mut got);
            assert_eq!(
                got.iter().map(|n| n.dist).collect::<Vec<_>>(),
                vec![1.0, 2.0, 3.0],
                "{kind}"
            );
        }
    }
}
