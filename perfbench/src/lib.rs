//! # perfbench — host-time benchmark of the TintMalloc simulator
//!
//! Runs two named workloads cold through the crates' public functions,
//! checks every simulated output bit for bit, and reports end-to-end host
//! metrics (untraced runs) or per-layer metrics (traced runs). README.md
//! documents the workloads, the metrics and the measured spread.
//!
//! The cell cache and the journal are process globals, so one process runs
//! one workload at a time.

pub mod digest;
pub mod host;
pub mod replay;
pub mod report;
pub mod run;
pub mod trace;
pub mod workload;
