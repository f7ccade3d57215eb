//! `repro` — regenerate every results figure of the TintMalloc paper.
//!
//! ```text
//! repro [--reps N] [--scale F] [--csv] [--jobs N]
//!       [--configs 16t4n,8t4n,...] <command>...
//!
//! commands:
//!   fig10              synthetic benchmark by coloring policy
//!   fig11              normalized benchmark runtimes (6 benchmarks × configs)
//!   fig12              normalized total idle times
//!   fig13              per-thread runtimes at 16_threads_4_nodes
//!   fig14              per-thread idle times at 16_threads_4_nodes
//!   latency            local/remote + bank + LLC latency measurements
//!   bandwidth          bank/controller parallelism (achieved bandwidth)
//!   ablate-part        full vs partial coloring
//!   ablate-firsttouch  legacy buddy vs NUMA buddy vs MEM coloring
//!   ablate-migrate     dynamic recoloring via page migration (extension)
//!   ablate-dynamic     static vs dynamic scheduling (extension)
//!   ablate-pagepolicy  open- vs closed-page DRAM controllers (extension)
//!   ablate-colorlist   colored-free-list population overhead
//!   ablate-pressure    exhaustion-policy degradation under color pressure (extension)
//!   churn              multi-tenant task churn: throughput, off-color fraction,
//!                      pool-population skew vs task count and uptime (extension)
//!   soak               sustained over-committed pressure: watermarks, backoff,
//!                      OOM kills, incremental auditing, per-window trace (extension)
//!   probe:<bench>      per-scheme diagnostics for one benchmark cell
//!   gc-journal         compact the cell-farm journal into a fresh generation
//!   all                everything above (except probe and gc-journal)
//! ```
//!
//! Every number comes from the one exact SPMD engine (`tint_spmd::engine`);
//! there is no estimated mode. An unknown flag, command or `probe:<bench>`
//! name is rejected before any work starts: one `repro: ...` line on
//! stderr, exit code 2.
//!
//! Multiple commands run in sequence within one process. Two layers keep
//! the sequence from repeating work: the `BenchMatrix` behind fig11/fig12
//! and the fig13/fig14 sweep are each computed at most once per invocation,
//! and underneath, every simulation cell flows through the content-addressed
//! cell cache (`tint_bench::simcache`), so any command whose cells were
//! already simulated — `fig13 fig14` after the fig11 matrix, `probe:<b>`
//! after `all` — serves them from memory. `TINT_SIM_CACHE=0` disables the
//! cache; figure output is byte-identical either way.
//!
//! `--jobs N` sets the simulation worker-thread count for the flattened
//! cell executor. Precedence: the `--jobs` flag wins over the `TINT_JOBS`
//! env var, which wins over the host's available parallelism; both the
//! flag and the env var must be a positive decimal integer — values like
//! `0`, `0x4`, `-2`, or an empty string are rejected with an error, never
//! silently clamped. Output is byte-identical at any job count — cells are
//! merged in canonical order.
//!
//! ## Crash safety, resume, and the cell farm
//!
//! Every completed simulation cell is appended to a crash-safe on-disk
//! journal (`.tint-journal/` by default; `TINT_JOURNAL=<dir>` relocates
//! it, `TINT_JOURNAL=0` disables it) and replayed into the cell cache at
//! startup, so re-running the same command after a crash, OOM kill, or
//! Ctrl-C simulates only the missing cells. Figure output is byte-identical
//! with the journal on, off, or after a kill-and-resume.
//!
//! The journal is a multi-process *cell farm* (see `tint_bench::journal`):
//! each `repro` process appends to its own `O_EXCL`-created shard inside
//! the current store generation, so any number of concurrent processes can
//! share one journal directory with no locks on the append path; replay
//! merges every shard. `repro gc-journal` compacts the store — live
//! deduped cells are rewritten into a fresh generation and committed with
//! one atomic rename (guarded by an advisory file lock that the kernel
//! drops when its holder exits), so a crash mid-GC leaves the old or new
//! generation fully intact. On persistent I/O failure (disk full, I/O errors — or the
//! seeded `TINT_HOST_FAULT=io:<permille>:<seed>` harness) the journal
//! warns once, disarms itself, and the run completes journal-less with
//! byte-identical figures.
//!
//! Workers are panic-isolated: a panicking cell is retried up to
//! `TINT_CELL_RETRIES` times (default 2), then recorded as a poisoned cell
//! that renders as `ERR` and makes the run exit 1 instead of aborting the
//! matrix. `TINT_CELL_TIMEOUT_S=<secs>` arms a watchdog that warns once
//! about each overdue cell and never stops it; per-layer host cost is
//! measured from outside the crates by `perfbench --trace 1`.
//! SIGINT/SIGTERM drain workers at the next cell boundary,
//! flush the journal, and exit 130 with a resume notice.
//! `TINT_HOST_FAULT=panic:<permille>:<seed>` arms the deterministic
//! host-fault harness (worker panics on schedule) that exercises all of
//! the above in tests.
//!
//! After the run, a machine-readable `BENCH_repro.json` is written to the
//! working directory with per-command wall-clock milliseconds, simulated
//! cycles, and cell-cache hit/miss counts. The write is atomic (temp
//! file plus rename), and a truncated/corrupt existing file is quarantined to
//! `BENCH_repro.json.corrupt` and treated as empty rather than trusted.
//! An intact existing file is *merged into*, not clobbered: command
//! records are upserted by name, so `repro probe:lbm` after `repro all`
//! keeps the figure records. The `invocation` block describes only the
//! commands this run executed; the `total` block sums over every merged
//! record.

use tint_bench::benchjson::{write_bench_json, CmdRecord, InvocationMeta};
use tint_bench::figures::{
    ablate_colorlist, ablate_dynamic, ablate_firsttouch, ablate_migrate, ablate_pagepolicy,
    ablate_part, ablate_pressure, bandwidth, churn, fig10, fig13_14, latency, probe, run_matrix,
    soak, BenchMatrix, FigOpts,
};
use tint_bench::hostfault::{self, HostFaultPlan};
use tint_bench::journal;
use tint_bench::runner::{
    available_jobs, install_cancel_handlers, parse_jobs, poisoned_cells, pressure_stats,
    retries_used, set_jobs, simulated_cycles, validate_env,
};
use tint_bench::simcache;
use tint_bench::table::Table;
use tint_workloads::traits::Scale;
use tint_workloads::{all_benchmarks, PinConfig};

/// Every command [`run_cmd`] dispatches, besides `probe:<bench>`.
const COMMANDS: [&str; 18] = [
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "latency",
    "bandwidth",
    "ablate-part",
    "ablate-firsttouch",
    "ablate-migrate",
    "ablate-dynamic",
    "ablate-pagepolicy",
    "ablate-colorlist",
    "ablate-pressure",
    "churn",
    "soak",
    "gc-journal",
    "all",
];

/// Exit with a one-line usage/config error (exit code 2: bad invocation).
fn fail(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

fn parse_config(s: &str) -> Option<PinConfig> {
    match s {
        "16t4n" => Some(PinConfig::T16N4),
        "8t4n" => Some(PinConfig::T8N4),
        "8t2n" => Some(PinConfig::T8N2),
        "4t4n" => Some(PinConfig::T4N4),
        "4t1n" => Some(PinConfig::T4N1),
        _ => None,
    }
}

/// Per-invocation state shared across commands: the fig11/fig12 matrix is
/// expensive (6 benchmarks × configs × schemes × reps), so one invocation
/// computes it at most once. Each repetition boots a fresh machine, so the
/// cached result is identical to what a standalone `repro fig12` prints.
struct Ctx {
    opts: FigOpts,
    configs: Vec<PinConfig>,
    matrix: Option<BenchMatrix>,
    /// The fig13/fig14 `(summary, lbm detail)` tables — one sweep serves
    /// both commands, so `repro fig13 fig14` computes it once.
    fig13_14: Option<(Table, Table)>,
    /// The pressure-ablation table, kept for `BENCH_repro.json` (the sweep
    /// is the one result downstream tooling consumes cell-by-cell).
    pressure: Option<Table>,
    /// The churn-figure table, likewise recorded in `BENCH_repro.json`.
    churn: Option<Table>,
    /// The soak-figure table (per-window pressure trace), likewise recorded.
    soak: Option<Table>,
    /// Set when `gc-journal` failed (lock held, io fault before commit);
    /// the store is unchanged and the run exits 1.
    gc_failed: bool,
}

impl Ctx {
    fn matrix(&mut self) -> &BenchMatrix {
        if self.matrix.is_none() {
            self.matrix = Some(run_matrix(&self.opts, &self.configs));
        }
        self.matrix.as_ref().unwrap()
    }

    fn fig13_14(&mut self) -> &(Table, Table) {
        if self.fig13_14.is_none() {
            self.fig13_14 = Some(fig13_14(&self.opts));
        }
        self.fig13_14.as_ref().unwrap()
    }
}

fn header(s: &str) {
    println!("\n=== {s} ===");
}

/// Run one command by name, printing exactly what a single-command
/// invocation prints.
fn run_cmd(ctx: &mut Ctx, cmd: &str) {
    let all = cmd == "all";
    if let Some(bench) = cmd.strip_prefix("probe:") {
        header(&format!("Probe: {bench} at {}", ctx.configs[0]));
        print!(
            "{}",
            ctx.opts.render(&probe(&ctx.opts, bench, ctx.configs[0]))
        );
        return;
    }
    if cmd == "gc-journal" {
        header("Journal GC: compact the cell farm into a fresh generation");
        match journal::gc() {
            Ok(g) => {
                let mut t = Table::new(vec!["metric", "value"]);
                let mut row = |name: &str, v: String| t.row(vec![name.to_string(), v]);
                row("live cells", g.live_cells.to_string());
                row("shards merged", g.shards_merged.to_string());
                row("shards quarantined", g.quarantined.to_string());
                row("foreign records dropped", g.foreign_dropped.to_string());
                row("bytes before", g.bytes_before.to_string());
                row("bytes after", g.bytes_after.to_string());
                row(
                    "compaction ratio",
                    if g.bytes_after > 0 {
                        format!("{:.2}x", g.bytes_before as f64 / g.bytes_after as f64)
                    } else {
                        "-".to_string()
                    },
                );
                row("committed generation", g.generation.to_string());
                print!("{}", ctx.opts.render(&t));
            }
            Err(e) => {
                eprintln!("repro: gc-journal: {e}");
                ctx.gc_failed = true;
            }
        }
        return;
    }
    if all || cmd == "fig10" {
        header("Figure 10: synthetic benchmark by coloring policy (16 threads, 4 nodes)");
        print!("{}", ctx.opts.render(&fig10(&ctx.opts)));
    }
    if all || cmd == "fig11" || cmd == "fig12" {
        let opts = ctx.opts;
        let m = ctx.matrix();
        if all || cmd == "fig11" {
            header("Figure 11: normalized benchmark runtime (lower is better)");
            for (t, pin) in m.fig11().iter().zip(&m.configs) {
                println!("-- {pin} --");
                print!("{}", opts.render(t));
            }
        }
        if all || cmd == "fig12" {
            header("Figure 12: normalized total idle time (lower is better)");
            for (t, pin) in m.fig12().iter().zip(&m.configs) {
                println!("-- {pin} --");
                print!("{}", opts.render(t));
            }
        }
    }
    if all || cmd == "fig13" || cmd == "fig14" {
        header("Figures 13/14: per-thread runtime and idle, 16_threads_4_nodes");
        let opts = ctx.opts;
        let (summary, lbm) = ctx.fig13_14();
        print!("{}", opts.render(summary));
        println!("-- lbm per-thread detail --");
        print!("{}", opts.render(lbm));
    }
    if all || cmd == "latency" {
        header("§V latency claims: controller locality, bank sharing, LLC interference");
        print!("{}", ctx.opts.render(&latency(&ctx.opts)));
    }
    if all || cmd == "bandwidth" {
        header("§II.B: bank/controller parallelism (achieved bandwidth)");
        print!("{}", ctx.opts.render(&bandwidth(&ctx.opts)));
    }
    if all || cmd == "ablate-part" {
        header("Ablation: full vs partial coloring (normalized runtime vs buddy)");
        print!("{}", ctx.opts.render(&ablate_part(&ctx.opts)));
    }
    if all || cmd == "ablate-firsttouch" {
        header("Ablation: legacy global buddy vs NUMA buddy vs MEM coloring (synthetic)");
        print!("{}", ctx.opts.render(&ablate_firsttouch(&ctx.opts)));
    }
    if all || cmd == "ablate-migrate" {
        header("Ablation (extension): dynamic recoloring via page migration");
        print!("{}", ctx.opts.render(&ablate_migrate(&ctx.opts)));
    }
    if all || cmd == "ablate-dynamic" {
        header("Ablation (extension): static vs dynamic scheduling, buddy vs MEM+LLC");
        print!("{}", ctx.opts.render(&ablate_dynamic(&ctx.opts)));
    }
    if all || cmd == "ablate-pagepolicy" {
        header("Ablation (extension): DRAM page policy (open vs closed) x coloring");
        print!("{}", ctx.opts.render(&ablate_pagepolicy(&ctx.opts)));
    }
    if all || cmd == "ablate-colorlist" {
        header("Ablation: colored free-list population overhead (§III.C)");
        print!("{}", ctx.opts.render(&ablate_colorlist(&ctx.opts)));
    }
    if all || cmd == "ablate-pressure" {
        header("Ablation (extension): exhaustion policies under color pressure");
        let t = ablate_pressure(&ctx.opts);
        print!("{}", ctx.opts.render(&t));
        ctx.pressure = Some(t);
    }
    if all || cmd == "churn" {
        header("Extension: multi-tenant churn (round-robin scheduling, full task reclamation)");
        let t = churn(&ctx.opts);
        print!("{}", ctx.opts.render(&t));
        ctx.churn = Some(t);
    }
    if all || cmd == "soak" {
        header("Extension: sustained-pressure soak (watermarks, backoff, OOM kill, auditing)");
        let t = soak(&ctx.opts);
        print!("{}", ctx.opts.render(&t));
        ctx.soak = Some(t);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = FigOpts::default();
    let mut configs: Vec<PinConfig> = PinConfig::ALL.to_vec();
    let mut cmds: Vec<String> = Vec::new();
    let mut it = args.iter();
    // A missing or malformed flag argument is a usage error with a one-line
    // message and exit code 2 — never a panic.
    fn arg<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> &'a String {
        it.next()
            .unwrap_or_else(|| fail(&format!("{flag} requires a value")))
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reps" => {
                opts.reps = arg(&mut it, "--reps")
                    .parse()
                    .unwrap_or_else(|_| fail("--reps wants a positive integer"));
            }
            "--scale" => {
                opts.scale = arg(&mut it, "--scale")
                    .parse()
                    .unwrap_or_else(|_| fail("--scale wants a number"));
            }
            "--csv" => opts.csv = true,
            "--jobs" => match parse_jobs(arg(&mut it, "--jobs")) {
                Ok(n) => set_jobs(n),
                Err(e) => fail(&format!("invalid --jobs: {e}")),
            },
            "--configs" => {
                configs = arg(&mut it, "--configs")
                    .split(',')
                    .map(|s| {
                        parse_config(s).unwrap_or_else(|| fail(&format!("unknown config {s:?}")))
                    })
                    .collect();
            }
            c if !c.starts_with('-') => cmds.push(c.to_string()),
            other => fail(&format!("unknown flag {other}")),
        }
    }
    if cmds.is_empty() {
        cmds.push("all".to_string());
    }
    if let Some(c) = cmds
        .iter()
        .find(|c| !c.starts_with("probe:") && !COMMANDS.contains(&c.as_str()))
    {
        fail(&format!(
            "unknown command {c:?} (commands: {}, probe:<bench>)",
            COMMANDS.join(", ")
        ));
    }
    let benches = all_benchmarks(Scale(1.0));
    if let Some(c) = cmds.iter().find(|c| {
        c.strip_prefix("probe:")
            .is_some_and(|b| !benches.iter().any(|w| w.name() == b))
    }) {
        let names: Vec<&str> = benches.iter().map(|w| w.name()).collect();
        fail(&format!(
            "unknown benchmark {c:?} (benchmarks: {})",
            names.join(", ")
        ));
    }
    if opts.reps < 1 {
        fail("--reps must be at least 1");
    }
    if opts.scale.is_nan() || opts.scale < 0.0 {
        fail("--scale must be non-negative");
    }
    // Environment knobs are validated up front: a typo'd TINT_JOBS,
    // TINT_CELL_RETRIES, TINT_CELL_TIMEOUT_S or TINT_HOST_FAULT must stop
    // the run before 20 minutes of simulation.
    if let Err(e) = validate_env() {
        fail(&e);
    }
    if let Ok(v) = std::env::var("TINT_HOST_FAULT") {
        match HostFaultPlan::parse(&v) {
            Ok(plan) => hostfault::set_plan(Some(plan)),
            Err(e) => fail(&format!("invalid TINT_HOST_FAULT: {e}")),
        }
    }

    // Durability and graceful shutdown: arm the journal (TINT_JOURNAL=0
    // disables, TINT_JOURNAL=<dir> relocates), replay prior completed
    // cells into the cell cache, and convert SIGINT/SIGTERM into a
    // cooperative drain + journal flush + resume notice.
    install_cancel_handlers();
    journal::configure_default();
    let replay = journal::replay();
    if replay.replayed > 0 || replay.quarantined > 0 {
        eprintln!(
            "journal: replayed {} completed cells from {} shard(s){}{}",
            replay.replayed,
            replay.shards,
            if replay.torn_dropped > 0 {
                " (dropped a torn final write)"
            } else {
                ""
            },
            if replay.quarantined > 0 {
                format!(" ({} corrupt journal(s) quarantined)", replay.quarantined)
            } else {
                String::new()
            },
        );
    }

    let mut ctx = Ctx {
        opts,
        configs,
        matrix: None,
        fig13_14: None,
        pressure: None,
        churn: None,
        soak: None,
        gc_failed: false,
    };
    let mut records = Vec::with_capacity(cmds.len());
    for cmd in &cmds {
        let cycles_before = simulated_cycles();
        let (hits_before, misses_before) = simcache::stats();
        let start = std::time::Instant::now();
        run_cmd(&mut ctx, cmd);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let (hits_after, misses_after) = simcache::stats();
        let (cache_hits, cache_misses) = (hits_after - hits_before, misses_after - misses_before);
        records.push(CmdRecord {
            name: cmd.clone(),
            wall_ms,
            sim_cycles: simulated_cycles() - cycles_before,
            reps: ctx.opts.reps,
            scale: ctx.opts.scale,
            cache_hits,
            cache_misses,
        });
    }
    journal::flush();
    let (journal_hits, journal_appends, journal_replayed) = journal::counters();
    let (oom_kills, admission_rejects, alloc_retries) = pressure_stats();
    let meta = InvocationMeta {
        jobs: available_jobs(),
        cache_enabled: simcache::enabled(),
        journal_enabled: journal::enabled(),
        journal_replayed,
        journal_hits,
        journal_appends,
        journal_io_disarmed: journal::io_disarmed(),
        poisoned_cells: poisoned_cells(),
        host_faults_injected: hostfault::injected(),
        retries_used: retries_used(),
        oom_kills,
        admission_rejects,
        alloc_retries,
    };
    let config_names: Vec<String> = ctx.configs.iter().map(|c| c.to_string()).collect();
    if let Err(e) = write_bench_json(
        "BENCH_repro.json",
        &records,
        ctx.opts.reps,
        ctx.opts.scale,
        &config_names,
        ctx.pressure.as_ref(),
        ctx.churn.as_ref(),
        ctx.soak.as_ref(),
        &meta,
    ) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    if ctx.gc_failed {
        std::process::exit(1);
    }
    if poisoned_cells() > 0 {
        eprintln!(
            "error: {} cell(s) failed after {} retr{} and render as ERR above \
             ({} host fault(s) injected); rerun to retry them",
            poisoned_cells(),
            retries_used(),
            if retries_used() == 1 { "y" } else { "ies" },
            hostfault::injected(),
        );
        std::process::exit(1);
    }
}
