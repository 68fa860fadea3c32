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

/// Candidates the pre-filter of [`select_into`] tests at once.
const LANES: usize = 8;

/// Plain sequential k-selection (Algorithm 1 of the paper): offer each
/// `dists[j]` that beats the queue head, as reference `id_offset + j`, in
/// ascending `j`. Returns the admissions (`offer` calls that returned
/// true).
///
/// Eight candidates at a time are first compared against the current
/// head; a group with no candidate below it is skipped whole. The head
/// only falls, and nothing in a skipped group would have beaten it, so
/// the offer sequence — and every queue write the [`UpdateSink`] sees —
/// is exactly that of the scalar `d < max()` loop. Calling this on
/// consecutive slices of a row with their id offsets therefore leaves
/// the queue in the same state as one call over the whole row.
pub fn select_into<Q: KQueue + ?Sized>(queue: &mut Q, dists: &[f32], id_offset: u32) -> u64 {
    fn offer_each<Q: KQueue + ?Sized>(queue: &mut Q, dists: &[f32], base: u32) -> u64 {
        let mut admitted = 0;
        for (j, &d) in dists.iter().enumerate() {
            if d < queue.max() {
                admitted += u64::from(queue.offer(d, base + j as u32));
            }
        }
        admitted
    }
    let mut admitted = 0;
    let mut base = id_offset;
    let mut groups = dists.chunks_exact(LANES);
    for group in &mut groups {
        if any_below(group.try_into().expect("exact chunk"), queue.max()) {
            admitted += offer_each(queue, group, base);
        }
        base += LANES as u32;
    }
    admitted + offer_each(queue, groups.remainder(), base)
}

/// Whether any lane is `< max`. A non-short-circuiting `|` over a fixed
/// eight lanes, so the compiler emits vector compares and one mask test
/// instead of eight branches.
#[inline]
fn any_below(lanes: &[f32; LANES], max: f32) -> bool {
    lanes.iter().fold(false, |any, &d| any | (d < max))
}

/// One queue of any [`QueueKind`], dispatched by `match` rather than
/// through a vtable. [`AnyQueue::select`] matches once per call and
/// runs the scan monomorphized for the concrete queue.
#[derive(Clone, Debug)]
pub enum AnyQueue {
    /// An [`InsertionQueue`].
    Insertion(InsertionQueue),
    /// A [`HeapQueue`].
    Heap(HeapQueue),
    /// A [`MergeQueue`].
    Merge(MergeQueue),
}

impl AnyQueue {
    /// A queue of `kind` and capacity `k`; `m` is the Merge Queue's
    /// level-0 size (ignored by the other kinds).
    ///
    /// # Panics
    /// For `QueueKind::Merge` when `k` is not `m · 2^j` (see
    /// [`MergeQueue`]).
    pub fn new(kind: QueueKind, k: usize, m: usize) -> Self {
        match kind {
            QueueKind::Insertion => AnyQueue::Insertion(InsertionQueue::new(k)),
            QueueKind::Heap => AnyQueue::Heap(HeapQueue::new(k)),
            QueueKind::Merge => AnyQueue::Merge(MergeQueue::new(k, m)),
        }
    }

    /// [`select_into`] on the concrete queue.
    pub fn select(&mut self, dists: &[f32], id_offset: u32) -> u64 {
        match self {
            AnyQueue::Insertion(q) => select_into(q, dists, id_offset),
            AnyQueue::Heap(q) => select_into(q, dists, id_offset),
            AnyQueue::Merge(q) => select_into(q, dists, id_offset),
        }
    }
}

impl KQueue for AnyQueue {
    fn k(&self) -> usize {
        match self {
            AnyQueue::Insertion(q) => q.k(),
            AnyQueue::Heap(q) => q.k(),
            AnyQueue::Merge(q) => q.k(),
        }
    }

    #[inline]
    fn max(&self) -> f32 {
        match self {
            AnyQueue::Insertion(q) => q.max(),
            AnyQueue::Heap(q) => q.max(),
            AnyQueue::Merge(q) => q.max(),
        }
    }

    fn offer(&mut self, dist: f32, id: u32) -> bool {
        match self {
            AnyQueue::Insertion(q) => q.offer(dist, id),
            AnyQueue::Heap(q) => q.offer(dist, id),
            AnyQueue::Merge(q) => q.offer(dist, id),
        }
    }

    fn contents(&self) -> Vec<Neighbor> {
        match self {
            AnyQueue::Insertion(q) => q.contents(),
            AnyQueue::Heap(q) => q.contents(),
            AnyQueue::Merge(q) => q.contents(),
        }
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
            let mut q = AnyQueue::new(kind, 32, 8);
            select_into(&mut q, &dists, 0);
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

    /// Distances with many exact ties, so a queue's tie handling shows.
    fn tied_dists(n: usize, seed: u64) -> Vec<f32> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0u32..40) as f32).collect()
    }

    #[test]
    fn tiled_scan_equals_one_scan() {
        let dists = tied_dists(1000, 8);
        for kind in QueueKind::ALL {
            let mut whole = AnyQueue::new(kind, 16, 8);
            let admitted = whole.select(&dists, 0);
            for tile in [1usize, 3, 7, 8, 9, 100, 1000] {
                let mut tiled = AnyQueue::new(kind, 16, 8);
                let mut tiled_admitted = 0;
                for (i, part) in dists.chunks(tile).enumerate() {
                    tiled_admitted += tiled.select(part, (i * tile) as u32);
                }
                assert_eq!(tiled_admitted, admitted, "{kind} tile {tile}");
                let (a, b) = (whole.contents(), tiled.contents());
                assert!(
                    a.iter()
                        .zip(&b)
                        .all(|(x, y)| x.dist.to_bits() == y.dist.to_bits() && x.id == y.id),
                    "{kind} tile {tile}"
                );
            }
        }
    }

    #[test]
    fn prefilter_keeps_every_queue_write() {
        // The scalar Algorithm 1 loop the pre-filter must reproduce, write
        // for write.
        fn scalar<Q: KQueue>(q: &mut Q, dists: &[f32]) {
            for (id, &d) in dists.iter().enumerate() {
                if d < q.max() {
                    q.offer(d, id as u32);
                }
            }
        }
        let dists = tied_dists(3001, 9);
        let k = 64;
        let counts = |a: UpdateCounter, b: UpdateCounter| {
            (a.per_position().to_vec(), b.per_position().to_vec())
        };

        let (mut a, mut b) = (
            InsertionQueue::with_stats(k, UpdateCounter::new(k)),
            InsertionQueue::with_stats(k, UpdateCounter::new(k)),
        );
        select_into(&mut a, &dists, 0);
        scalar(&mut b, &dists);
        let (x, y) = counts(a.into_parts().1, b.into_parts().1);
        assert_eq!(x, y, "insertion");

        let (mut a, mut b) = (
            HeapQueue::with_stats(k, UpdateCounter::new(k)),
            HeapQueue::with_stats(k, UpdateCounter::new(k)),
        );
        select_into(&mut a, &dists, 0);
        scalar(&mut b, &dists);
        let (x, y) = counts(a.into_parts().1, b.into_parts().1);
        assert_eq!(x, y, "heap");

        let (mut a, mut b) = (
            MergeQueue::with_stats(k, 8, UpdateCounter::new(k)),
            MergeQueue::with_stats(k, 8, UpdateCounter::new(k)),
        );
        select_into(&mut a, &dists, 0);
        scalar(&mut b, &dists);
        let (x, y) = counts(a.into_parts().1, b.into_parts().1);
        assert_eq!(x, y, "merge");
    }

    #[test]
    fn fewer_candidates_than_k() {
        for kind in QueueKind::ALL {
            let mut q = AnyQueue::new(kind, 16, 8);
            select_into(&mut q, &[3.0, 1.0, 2.0], 0);
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
