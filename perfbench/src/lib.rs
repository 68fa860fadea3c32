//! Wall-clock benchmark of the native k-NN search.
//!
//! A run builds one workload's inputs from a seed, times closed-loop
//! search requests for a fixed time, checks every answer against exact
//! ground truth, and prints its metrics as JSON. `README.md` in this
//! directory describes the workloads, the metrics and how to compare
//! two sets of runs.

pub mod adapter;
pub mod compare;
pub mod layers;
pub mod run;
pub mod stamp;
pub mod stats;
pub mod workload;
