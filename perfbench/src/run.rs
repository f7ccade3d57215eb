//! One benchmark run: rounds for `--seconds`, the output check, and the
//! metrics of an untraced or a traced run.

use crate::host;
use crate::replay;
use crate::report::median;
use crate::trace::{traced_round, Span, TracedRound};
use crate::workload::{judge, run_round, Round, Workload};
use std::collections::BTreeMap;
use std::io::BufRead as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Rounds an untraced run makes at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Set-up probes an untraced run launches before each of its rounds;
/// `setup_s` is the median over all of them.
const PROBES_PER_ROUND: usize = 3;
/// The first argument of a set-up probe process.
pub const SETUP_PROBE: &str = "--setup-probe";
/// Untraced and traced rounds a traced run makes at least, each.
const MIN_TRACED_ROUNDS: usize = 2;

/// What a run measured and whether its outputs were correct.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every unit matched its check and nothing was served.
    pub correct: bool,
    /// Cells attempted, over all rounds.
    pub attempted: u64,
    /// Cells that failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// The untraced rounds, in order.
    pub rounds: Vec<Round>,
}

/// Whether to start iteration `done + 1` of a loop that began at
/// `started`: always until `min` are done, then only while one more
/// iteration of the mean length so far still ends by `until`.
fn another(done: usize, min: usize, started: Instant, until: Instant) -> bool {
    if done < min {
        return true;
    }
    let now = Instant::now();
    now + (now - started) / done as u32 <= until
}

/// Host seconds from the launch of a fresh benchmark process until its
/// round 0 is about to begin its first cell, for [`PROBES_PER_ROUND`]
/// probes. Each probe process takes the real path of a run (process
/// start, argument parsing, journal arm and replay, cache reset, program
/// and cell-list construction) and reports `ready` on standard output
/// where `run_cells` would be called.
fn setup_probes(w: Workload, seed: u64) -> Vec<f64> {
    let exe = std::env::current_exe().expect("the benchmark knows its own executable");
    let seed = seed.to_string();
    let args = [
        SETUP_PROBE,
        "--workload",
        w.name(),
        "--seed",
        &seed,
        "--seconds",
        "1",
        "--trace",
        "0",
    ];
    (0..PROBES_PER_ROUND)
        .map(|_| {
            let t0 = Instant::now();
            let mut child = Command::new(&exe)
                .args(args)
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .expect("launch a set-up probe");
            let mut line = String::new();
            let stdout = child.stdout.take().expect("probe stdout is piped");
            std::io::BufReader::new(stdout)
                .read_line(&mut line)
                .expect("read the probe's ready line");
            let setup = t0.elapsed().as_secs_f64();
            let status = child.wait().expect("wait for the set-up probe");
            assert!(
                status.success() && line == "ready\n",
                "set-up probe failed: {status}, {line:?}"
            );
            setup
        })
        .collect()
}

/// An untraced run: the end-to-end metrics.
pub fn untraced(w: Workload, seed: u64, budget: Duration, work: &Path) -> Outcome {
    let started = Instant::now();
    let until = started + budget;
    // Probes between rounds see the same host as the rounds do.
    let (mut rounds, mut setups) = (Vec::new(), Vec::new());
    while another(rounds.len(), MIN_ROUNDS, started, until) {
        setups.extend(setup_probes(w, seed));
        rounds.push(run_round(w, seed, work, rounds.len()));
    }
    let (attempted, failed, problems) = judge(w, seed, &rounds);
    let per_round = |f: &dyn Fn(&Round) -> f64| median(rounds.iter().map(f).collect());
    let values = BTreeMap::from([
        ("wall_s", per_round(&|r| r.wall.as_secs_f64())),
        ("setup_s", median(setups)),
        (
            "sim_mcycles_per_s",
            per_round(&|r| r.sim_cycles() as f64 / 1e6 / r.wall.as_secs_f64()),
        ),
        (
            "peak_rss_mb",
            host::peak_rss_mb().expect("/proc/self/status reports VmHWM"),
        ),
    ]);
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        values,
        problems,
        rounds,
    }
}

/// A traced run: alternating untraced and traced rounds for most of the
/// budget, then the per-layer fixtures. Spans are collected in memory and
/// returned with the outcome.
pub fn traced(w: Workload, seed: u64, budget: Duration, work: &Path) -> (Outcome, Vec<Span>) {
    // Untraced and traced rounds alternate, so a drift in host speed
    // does not land on one side of the tracing overhead.
    let epoch = Instant::now();
    let until = epoch + budget.mul_f64(0.8);
    let (mut rounds, mut traced, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    while another(traced.len(), MIN_TRACED_ROUNDS, epoch, until) {
        let idx = rounds.len() + traced.len();
        rounds.push(run_round(w, seed, work, idx));
        traced.push(traced_round(w, seed, work, idx + 1, epoch, &mut spans));
    }
    // Traced rounds must reproduce the untraced outputs exactly.
    let mut all = rounds.clone();
    all.extend(traced.iter().map(|t| Round {
        wall: t.wall,
        units: t.units.clone(),
        served: t.served,
    }));
    let (attempted, failed, problems) = judge(w, seed, &all);

    let path = replay::access_path(seed);
    let kern = replay::kernel_side(seed);
    let (kernel_boot_ms, mem_new_ms) = replay::boot_parts();
    let (append_us, replay_ms) = replay::journal_costs(work);

    // Each untraced round is paired with the traced round right after it.
    let overhead_ms = median(
        rounds
            .iter()
            .zip(&traced)
            .map(|(r, t)| (t.wall.as_secs_f64() - r.wall.as_secs_f64()) * 1e3)
            .collect(),
    );
    let per_call = |layer: &str| -> f64 {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(v)
        }
    };
    // Traced round `i` has the round index `2i + 1`.
    let per_round = |f: &dyn Fn(&TracedRound, u32) -> f64| -> f64 {
        median(
            traced
                .iter()
                .enumerate()
                .map(|(i, t)| f(t, 2 * i as u32 + 1))
                .collect(),
        )
    };
    let run_ms = per_round(&|_, round| {
        spans
            .iter()
            .filter(|s| s.round == round && s.layer == "spmd.run")
            .map(|s| s.dur_ns as f64 / 1e6)
            .sum()
    });
    let c = traced[0].counts;
    let accesses = c.accesses as f64;
    let replayed_ms = accesses * path.core_ns / 1e6;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let cell_ms: Vec<f64> = traced.iter().flat_map(|t| t.unit_ms.clone()).collect();
    let values = BTreeMap::from([
        ("core.boot_ms", per_call("core.boot")),
        ("kernel.boot_ms", kernel_boot_ms),
        ("mem.new_ms", mem_new_ms),
        ("core.boot_noise_ms", per_call("core.boot_noise")),
        ("core.spawn_color_ms", per_call("core.spawn_color")),
        ("workloads.build_ms", per_call("workloads.build")),
        ("spmd.run_ms", run_ms),
        ("spmd.ns_per_access", ratio(run_ms * 1e6, accesses)),
        ("spmd.self_ms", run_ms - replayed_ms),
        ("spmd.replayed_share", ratio(replayed_ms, run_ms)),
        ("core.access_warm_ns", path.core_ns),
        ("mem.access_ns", path.mem_ns),
        ("cache.access_ns", path.cache_ns),
        ("dram.access_ns", path.dram_ns),
        ("kernel.fault_ns.buddy", kern.fault_ns_buddy),
        ("kernel.fault_ns.mem_llc", kern.fault_ns_mem_llc),
        ("core.malloc_ns", kern.malloc_ns),
        ("core.free_ns", kern.free_ns),
        ("kernel.exit_us", kern.exit_us),
        ("kernel.check_invariants_ms", kern.check_invariants_ms),
        ("bench.cell_ms_p50", median(cell_ms)),
        (
            "bench.cell_ms_max",
            per_round(&|t, _| t.unit_ms.iter().copied().fold(0.0, f64::max)),
        ),
        (
            "bench.executor_tail_ms",
            per_round(&|t, _| {
                t.wall.as_secs_f64() * 1e3 * w.workers() as f64 - t.unit_ms.iter().sum::<f64>()
            }),
        ),
        ("bench.journal_append_us", append_us),
        ("bench.journal_replay_ms", replay_ms),
        ("bench.trace_overhead_ms", overhead_ms),
        ("mem.accesses", accesses),
        (
            "mem.remote_frac",
            ratio(c.dram_remote as f64, c.dram as f64),
        ),
        ("cache.l1_hits", c.l1_hits as f64),
        ("cache.l2_hits", c.l2_hits as f64),
        ("cache.l3_hits", c.l3_hits as f64),
        ("cache.l3_misses", c.l3_misses as f64),
        ("cache.llc_interference", c.llc_interference as f64),
        ("dram.row_hits", c.row_hits as f64),
        ("dram.row_misses", c.row_misses as f64),
        ("dram.row_conflicts", c.row_conflicts as f64),
        ("dram.bank_wait_cycles", c.bank_wait_cycles as f64),
        ("kernel.page_faults", c.page_faults as f64),
        ("kernel.pages_moved", c.pages_moved as f64),
        ("kernel.color_list_calls", c.color_list_calls as f64),
        ("kernel.fault_cycles", c.fault_cycles as f64),
        ("kernel.off_color_allocs", kern.off_color_allocs as f64),
        ("spmd.sim_cycles", c.sim_cycles as f64),
        ("spmd.idle_cycles", c.idle_cycles as f64),
    ]);
    // Counts are exact: every traced round must read the same.
    let mut problems = problems;
    let mut failed = failed;
    for (i, t) in traced.iter().enumerate().filter(|(_, t)| t.counts != c) {
        failed += t.units.len() as u64;
        problems.push(format!(
            "traced round {i}: per-layer counts differ from traced round 0"
        ));
    }
    let outcome = Outcome {
        correct: failed == 0,
        attempted,
        failed,
        values,
        problems,
        rounds,
    };
    (outcome, spans)
}
