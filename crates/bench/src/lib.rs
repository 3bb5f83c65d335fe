//! # sprwl-bench — the measurement pipeline
//!
//! Every number the reproduction reports comes out of one pipeline: the
//! `bench-sweep` binary runs a grid of points through one worker loop per
//! run mode ([`sweep::run_workers`]), digests each into a [`BenchPoint`]
//! and writes one schema-versioned `BENCH_<category>_<date>.json`
//! document ([`results`]); `bench-compare` diffs two of them.
//!
//! The grids:
//!
//! * [`sweep`] — thread sweeps over the hashmap micro-benchmark, on the
//!   deterministic scheduler (the committed baselines) or wall-clock;
//! * [`figures`] — the paper's Figs. 3–7 and the design-choice ablations
//!   (`bench-sweep --figure fig3` … `fig7`, `ablation`), wall-clock;
//! * [`capacity_sweep`] — big-footprint writers across capacity profiles
//!   (`--capacity`);
//! * [`server_sweep`] — the sharded async KV service (`--server`).
//!
//! The `micro` criterion bench (`cargo bench -p sprwl-bench --bench
//! micro`) measures primitive costs.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod capacity_sweep;
pub mod figures;
pub mod results;
pub mod server_sweep;
pub mod sweep;

pub use capacity_sweep::{capacity_tpcc_scale, run_capacity_sweep, CapacitySweepConfig};
pub use figures::{figure_points, run_figure, FIGURES};
pub use results::{
    compare, BenchPoint, BenchResults, CompareReport, Hardware, LatencySummary, Regression,
    ShardStat, Thresholds, SCHEMA_MINOR, SCHEMA_VERSION,
};
pub use server_sweep::{run_server_sweep, tracking_label, ServerSweepConfig};
pub use sweep::{
    point_htm, run_hashmap_point, run_sweep, run_tpcc_point, run_workers, LockKind, Measured,
    SweepConfig, SweepMode, WorkerCtx, UNIFORM_KEYS,
};
