//! Metric names and units, medians, and the result line.

use std::collections::BTreeMap;

/// One reported metric: name and unit, as in `BENCHMARK.json`.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: [MetricDef; 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). Host-time
/// metrics of one call are medians per call; `spmd.run_ms`,
/// `spmd.self_ms` and every count are totals over one round.
pub const PER_LAYER: [MetricDef; 44] = [
    ("core.boot_ms", "ms"),
    ("kernel.boot_ms", "ms"),
    ("mem.new_ms", "ms"),
    ("core.boot_noise_ms", "ms"),
    ("core.spawn_color_ms", "ms"),
    ("workloads.build_ms", "ms"),
    ("spmd.run_ms", "ms"),
    ("spmd.ns_per_access", "ns"),
    ("spmd.self_ms", "ms"),
    ("spmd.replayed_share", "frac"),
    ("core.access_warm_ns", "ns"),
    ("mem.access_ns", "ns"),
    ("cache.access_ns", "ns"),
    ("dram.access_ns", "ns"),
    ("kernel.fault_ns.buddy", "ns"),
    ("kernel.fault_ns.mem_llc", "ns"),
    ("core.malloc_ns", "ns"),
    ("core.free_ns", "ns"),
    ("kernel.exit_us", "us"),
    ("kernel.check_invariants_ms", "ms"),
    ("bench.cell_ms_p50", "ms"),
    ("bench.cell_ms_max", "ms"),
    ("bench.executor_tail_ms", "ms"),
    ("bench.journal_append_us", "us"),
    ("bench.journal_replay_ms", "ms"),
    ("bench.trace_overhead_ms", "ms"),
    ("mem.accesses", "count"),
    ("mem.remote_frac", "frac"),
    ("cache.l1_hits", "count"),
    ("cache.l2_hits", "count"),
    ("cache.l3_hits", "count"),
    ("cache.l3_misses", "count"),
    ("cache.llc_interference", "count"),
    ("dram.row_hits", "count"),
    ("dram.row_misses", "count"),
    ("dram.row_conflicts", "count"),
    ("dram.bank_wait_cycles", "cycles"),
    ("kernel.page_faults", "count"),
    ("kernel.pages_moved", "count"),
    ("kernel.color_list_calls", "count"),
    ("kernel.fault_cycles", "cycles"),
    ("kernel.off_color_allocs", "count"),
    ("spmd.sim_cycles", "cycles"),
    ("spmd.idle_cycles", "cycles"),
];

/// Median of a non-empty sample.
pub(crate) fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the metrics in `defs` order. Every name in `defs` must have
/// a finite value in `values`, and `values` must hold nothing else.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    assert_eq!(values.len(), defs.len(), "one value per declared metric");
    let metrics: Vec<String> = defs
        .iter()
        .map(|&(name, unit)| {
            let v = values[name];
            assert!(v.is_finite(), "{name} = {v} is not a finite number");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
