//! The workloads and the inputs they generate from a seed.
//!
//! All data is uniform in [0, 1], as in the paper's evaluation. Why
//! each workload exists is in `perfbench/README.md`.

use crate::adapter::{self, Neighbor, PointSet};

/// One workload: a resident reference set and the requests a single
/// closed-loop client sends against it.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Reference points N.
    pub refs: usize,
    /// Queries per request.
    pub per_request: usize,
    /// Distinct queries generated; requests cycle through them.
    pub pool: usize,
    pub dim: usize,
    pub k: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    // Q = 1024 against N = 2^14: the committed `BENCH_native.json` shape.
    Workload {
        name: "batch",
        refs: 1 << 14,
        per_request: 1024,
        pool: 1024,
        dim: 128,
        k: 32,
    },
    // One query per request against the same 8 MiB reference set as
    // `batch`. A 32 MiB set (N = 2^16) streams from memory, whose speed
    // on a shared host swings too far between runs to gate.
    Workload {
        name: "online",
        refs: 1 << 14,
        per_request: 1,
        pool: 256,
        dim: 128,
        k: 32,
    },
    // The paper's large-k regime: selection and merge dominate.
    Workload {
        name: "large_k",
        refs: 1 << 16,
        per_request: 128,
        pool: 128,
        dim: 16,
        k: 512,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// A workload's generated inputs.
pub struct Inputs {
    pub refs: PointSet,
    /// All `pool` queries as one set (the request of batch workloads).
    pub queries: PointSet,
    /// Each query of the pool as a one-query request.
    pub singles: Vec<PointSet>,
}

impl Workload {
    /// Generate the inputs of run `seed`: what a user builds before the
    /// first request.
    pub fn inputs(&self, seed: u64) -> Inputs {
        let refs = adapter::points(self.refs, self.dim, seed.wrapping_mul(2));
        let queries = adapter::points(self.pool, self.dim, seed.wrapping_mul(2) + 1);
        let singles = (0..self.pool)
            .map(|i| adapter::rows(&queries, i, i + 1))
            .collect();
        Inputs {
            refs,
            queries,
            singles,
        }
    }

    /// The same workload sending one-query requests.
    pub fn single(&self) -> Workload {
        Workload {
            per_request: 1,
            ..*self
        }
    }

    /// The request with index `i`: the whole pool for batch workloads,
    /// one query of the pool otherwise.
    pub fn request<'a>(&self, inputs: &'a Inputs, i: usize) -> &'a PointSet {
        if self.per_request == 1 {
            &inputs.singles[i % self.pool]
        } else {
            &inputs.queries
        }
    }

    /// The exact answers to the request with index `i`, given those of
    /// the whole pool (`k` neighbours per query, concatenated).
    pub fn truth<'a>(&self, truth: &'a [Neighbor], i: usize) -> &'a [Neighbor] {
        if self.per_request == 1 {
            let q = i % self.pool;
            &truth[q * self.k..(q + 1) * self.k]
        } else {
            truth
        }
    }
}

/// True when `got` is a correct k-NN answer given the exact one (`k`
/// neighbours per query, concatenated): the distances agree bit for
/// bit, and the ids agree except among exact ties at the k-th distance,
/// where any distinct ids not already below it are equally correct.
pub fn matches(got: &[Vec<Neighbor>], want: &[Neighbor], k: usize) -> bool {
    got.len() * k == want.len()
        && got
            .iter()
            .zip(want.chunks(k))
            .all(|(g, w)| row_matches(g, w))
}

fn row_matches(got: &[Neighbor], want: &[Neighbor]) -> bool {
    if got.len() != want.len() {
        return false;
    }
    if got
        .iter()
        .zip(want)
        .any(|(g, w)| g.dist.to_bits() != w.dist.to_bits())
    {
        return false;
    }
    let Some(kth) = want.last().map(|n| n.dist.to_bits()) else {
        return true;
    };
    let ids = |row: &[Neighbor], at_kth: bool| {
        let mut v: Vec<u32> = row
            .iter()
            .filter(|n| (n.dist.to_bits() == kth) == at_kth)
            .map(|n| n.id)
            .collect();
        v.sort_unstable();
        v
    };
    let below = ids(got, false);
    let mut tied = ids(got, true);
    let tied_len = tied.len();
    tied.dedup();
    below == ids(want, false)
        && tied.len() == tied_len
        && tied.iter().all(|id| below.binary_search(id).is_err())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(pairs: &[(f32, u32)]) -> Vec<Neighbor> {
        pairs.iter().map(|&(d, i)| Neighbor::new(d, i)).collect()
    }

    #[test]
    fn ties_at_kth_distance_may_swap_ids() {
        let want = row(&[(0.1, 4), (0.5, 1), (0.5, 2)]);
        assert!(row_matches(&row(&[(0.1, 4), (0.5, 2), (0.5, 9)]), &want));
        // A duplicated id or an id repeated from below the k-th distance
        // is not a valid answer.
        assert!(!row_matches(&row(&[(0.1, 4), (0.5, 2), (0.5, 2)]), &want));
        assert!(!row_matches(&row(&[(0.1, 4), (0.5, 4), (0.5, 2)]), &want));
    }

    #[test]
    fn wrong_ids_or_distance_bits_fail() {
        let want = row(&[(0.1, 4), (0.2, 1), (0.5, 2)]);
        assert!(!row_matches(&row(&[(0.1, 3), (0.2, 1), (0.5, 2)]), &want));
        assert!(!row_matches(
            &row(&[
                (0.1, 4),
                (f32::from_bits(0.2f32.to_bits() + 1), 1),
                (0.5, 2)
            ]),
            &want
        ));
        assert!(matches(std::slice::from_ref(&want), &want, 3));
        assert!(!matches(
            std::slice::from_ref(&want),
            &[want.clone(), want.clone()].concat(),
            3
        ));
    }
}
