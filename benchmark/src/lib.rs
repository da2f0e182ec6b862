//! The repository benchmark: two workloads driven through the crates'
//! public APIs from one process, each printing its end-to-end metrics
//! (tracing off) or, with `--trace 1`, the per-layer split.
//!
//! * [`tune`] — the paper's tuning sweep over the four focus variables;
//! * [`archive`] — slice fetches from `cc-arch/1` archives stored in an
//!   in-process `cc-serve`, between the steps of an archiving job that
//!   replaces them.
//!
//! See `benchmark/README.md` for every metric, its unit and direction.

pub mod archive;
pub mod common;
pub mod layers;
pub mod tune;

pub use common::{Report, RunOpts, Scale};

#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["tune", "archive"];

/// Run one named workload; `None` for an unknown name.
pub fn run(workload: &str, opts: &RunOpts) -> Option<Report> {
    match workload {
        "tune" => Some(tune::run(opts)),
        "archive" => Some(archive::run(opts)),
        _ => None,
    }
}
