//! Cell-level differential of the engine against its test oracle.
//!
//! Each cell of Fig. 10 and of `probe:lbm` is booted twice with the
//! harness's own [`boot_cell`]. One copy runs [`Program::run`] (the production
//! engine loop); the other runs [`Program::run_reference`] (the
//! one-op-at-a-time heap loops of `tint_spmd::oracle`). The two must
//! agree bit for bit on the run metrics and on every memory-system
//! counter: per-core access stats, cache-hierarchy stats and DRAM stats.
//! The unit tests in `tint-spmd` check single sections; this exercises
//! the whole stack (boot, allocator, TLB, caches, DRAM) on real workloads.

use tint_bench::figures::{matrix_schemes, FIG10_SCHEMES};
use tint_bench::runner::boot_cell;
use tint_cache::HierarchyStats;
use tint_dram::DramStats;
use tint_mem::MemStats;
use tint_spmd::RunMetrics;
use tint_workloads::traits::Scale;
use tint_workloads::{all_benchmarks, PinConfig, Synthetic, Workload};
use tintmalloc::colors::ColorScheme;

/// What one cell run leaves behind.
type Outcome = (RunMetrics, MemStats, HierarchyStats, DramStats);

/// Boot and run one cell as the harness does, on the engine or the oracle.
fn run_cell(w: &dyn Workload, scheme: ColorScheme, pin: PinConfig, oracle: bool) -> Outcome {
    let (mut sys, mut threads, program) = boot_cell(w, scheme, pin, 1);
    let metrics = if oracle {
        program.run_reference(&mut sys, &mut threads)
    } else {
        program.run(&mut sys, &mut threads)
    }
    .expect("program runs");
    let mem = sys.mem();
    (
        metrics,
        mem.stats().clone(),
        mem.hierarchy().stats().clone(),
        mem.dram().stats().clone(),
    )
}

fn assert_cell_matches(w: &dyn Workload, scheme: ColorScheme, pin: PinConfig) {
    let engine = run_cell(w, scheme, pin, false);
    let oracle = run_cell(w, scheme, pin, true);
    let cell = format!("{} / {} / {pin}", w.name(), scheme.label());
    assert!(engine.0.runtime > 0, "{cell}: the cell simulates work");
    assert_eq!(engine.0, oracle.0, "{cell}: RunMetrics");
    assert_eq!(engine.1, oracle.1, "{cell}: MemStats");
    assert_eq!(engine.2, oracle.2, "{cell}: cache-hierarchy stats");
    assert_eq!(engine.3, oracle.3, "{cell}: DRAM stats");
}

#[test]
fn batched_and_reference_pipelines_agree_bit_for_bit() {
    let synthetic = Synthetic::new(Scale(1.0));
    for scheme in FIG10_SCHEMES {
        assert_cell_matches(&synthetic, scheme, PinConfig::T16N4);
    }
    let benches = all_benchmarks(Scale(1.0));
    let lbm = benches.iter().find(|w| w.name() == "lbm").expect("lbm");
    for scheme in matrix_schemes() {
        assert_cell_matches(lbm.as_ref(), scheme, PinConfig::T16N4);
    }
}
