//! # tint-bench — the experiment harness
//!
//! Regenerates every results figure of the TintMalloc paper (Figures 10–14
//! plus the latency claims of §V and the ablations listed in DESIGN.md).
//! The `repro` binary prints each figure's rows. Host cost, end to end
//! and per layer, is measured from outside the crates by the separate
//! `perfbench` package (`perfbench --trace 1` for the layer breakdown).
//!
//! EXPERIMENTS.md records the paper-vs-measured comparison produced by
//! `cargo run --release -p tint-bench --bin repro -- all`.
//!
//! All simulation flows through three shared layers: the content-addressed
//! cell cache ([`simcache`], dedup across figures within one process), the
//! multi-process cell farm ([`journal`], sharded crash-safe on-disk store:
//! exact resume of a killed run, lock-free concurrent writers, generation
//! GC), and the flattened matrix executor ([`runner::run_cells`],
//! `--jobs`-way work queue with panic-isolated workers). Figure output is
//! byte-identical with the cache/journal on or off and at any job count.

pub mod benchjson;
pub mod figures;
pub mod hostfault;
pub mod journal;
pub mod lockfile;
pub mod runner;
pub mod simcache;
pub mod table;

pub use runner::{run_cells, run_once, run_reps, CellSpec, ExpResult, Summary};
pub use table::Table;
