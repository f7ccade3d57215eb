//! Figure regeneration: one function per results figure of the paper.

use crate::runner::{
    any_poisoned, available_jobs, run_cells, run_cells_with_progress, run_once, run_reps, CellSpec,
    ExpResult, Summary,
};
use crate::table::{norm, norm_err, Table};
use std::collections::HashMap;
use tint_kernel::VictimPolicy;
use tint_spmd::{ChurnOutcome, PressureWindow, RoundRobin, SimThread};
use tint_workloads::traits::Scale;
use tint_workloads::{all_benchmarks, ChurnConfig, PinConfig, SoakConfig, Synthetic, Workload};
use tintmalloc::prelude::*;

/// Common experiment options.
#[derive(Debug, Clone, Copy)]
pub struct FigOpts {
    /// Seeded repetitions per cell (paper: 10).
    pub reps: u32,
    /// Workload scale factor (1.0 = DESIGN.md defaults).
    pub scale: f64,
    /// Emit CSV instead of aligned tables.
    pub csv: bool,
}

impl Default for FigOpts {
    fn default() -> Self {
        Self {
            reps: 3,
            scale: 1.0,
            csv: false,
        }
    }
}

impl FigOpts {
    fn scale_(&self) -> Scale {
        Scale(self.scale)
    }

    /// Render a table per the CSV flag.
    pub fn render(&self, t: &Table) -> String {
        if self.csv {
            t.to_csv()
        } else {
            t.render()
        }
    }
}

/// The coloring solutions Fig. 10 compares on the synthetic benchmark.
pub const FIG10_SCHEMES: [ColorScheme; 4] = [
    ColorScheme::Buddy,
    ColorScheme::LlcOnly,
    ColorScheme::MemOnly,
    ColorScheme::MemLlc,
];

/// The "other" coloring solutions Fig. 11 picks the best of.
const OTHER_SCHEMES: [ColorScheme; 4] = [
    ColorScheme::LlcOnly,
    ColorScheme::MemOnly,
    ColorScheme::MemLlcPart,
    ColorScheme::LlcMemPart,
];

/// Flatten `schemes × seeds 1..=reps` on one workload into a cell list.
fn cells_for<'a>(
    workload: &'a dyn Workload,
    schemes: &[ColorScheme],
    pin: PinConfig,
    reps: u32,
) -> Vec<CellSpec<'a>> {
    schemes
        .iter()
        .flat_map(|&scheme| {
            (1..=reps as u64).map(move |seed| CellSpec {
                workload,
                scheme,
                pin,
                seed,
            })
        })
        .collect()
}

/// **Figure 10** — synthetic benchmark execution time per coloring policy.
pub fn fig10(opts: &FigOpts) -> Table {
    let w = Synthetic::new(opts.scale_());
    let pin = PinConfig::T16N4;
    let mut t = Table::new(vec![
        "policy",
        "runtime_cycles",
        "normalized",
        "remote_frac",
        "row_hit_rate",
    ]);
    // One flattened batch over all four schemes' repetitions.
    let cells = cells_for(&w, &FIG10_SCHEMES, pin, opts.reps);
    let results = run_cells(&cells, available_jobs());
    let per_scheme: Vec<&[ExpResult]> = results.chunks(opts.reps as usize).collect();
    let base_bad = any_poisoned(per_scheme[0]);
    let base = Summary::runtime(per_scheme[0]).mean;
    for (i, scheme) in FIG10_SCHEMES.into_iter().enumerate() {
        let rs = per_scheme[i];
        let bad = any_poisoned(rs);
        let s = Summary::runtime(rs);
        let remote = Summary::of(rs, |r| r.remote_fraction).mean;
        let hit = Summary::of(rs, |r| r.row_hit_rate).mean;
        let val = |v: String| if bad { "ERR".to_string() } else { v };
        t.row(vec![
            scheme.label().to_string(),
            val(format!("{:.0}", s.mean)),
            if bad || base_bad {
                "ERR".to_string()
            } else {
                norm_err(s.mean / base, s.min / base, s.max / base)
            },
            val(format!("{remote:.3}")),
            val(format!("{hit:.3}")),
        ]);
    }
    t
}

/// Key for one cell of the benchmark matrix.
type Cell = (&'static str, PinConfig, ColorScheme);

/// The full benchmark sweep shared by Figures 11 and 12.
pub struct BenchMatrix {
    /// Repetition results per (benchmark, config, scheme).
    pub cells: HashMap<Cell, Vec<ExpResult>>,
    /// Benchmark names in figure order.
    pub benchmarks: Vec<&'static str>,
    /// Configs included.
    pub configs: Vec<PinConfig>,
}

/// All schemes the benchmark figures need.
pub fn matrix_schemes() -> Vec<ColorScheme> {
    let mut v = vec![ColorScheme::Buddy, ColorScheme::Bpm, ColorScheme::MemLlc];
    v.extend(OTHER_SCHEMES);
    v
}

/// Run the full (benchmark × config × scheme × reps) sweep as **one**
/// flattened work queue over every cell, drained by `--jobs`/`TINT_JOBS`
/// host threads. Cells differ ~100× in cost (lbm vs blackscholes), so the
/// queue — not a per-cell reps-way fan-out — is what load-balances the
/// sweep; the canonical-order merge keeps the assembled matrix independent
/// of job count.
pub fn run_matrix(opts: &FigOpts, configs: &[PinConfig]) -> BenchMatrix {
    let benches = all_benchmarks(opts.scale_());
    let schemes = matrix_schemes();
    let mut specs: Vec<CellSpec> = Vec::new();
    for w in &benches {
        for &pin in configs {
            for &scheme in &schemes {
                for seed in 1..=opts.reps as u64 {
                    specs.push(CellSpec {
                        workload: w.as_ref(),
                        scheme,
                        pin,
                        seed,
                    });
                }
            }
        }
    }
    let listed = specs.len();
    let results = run_cells_with_progress(&specs, available_jobs(), &move |done, total| {
        eprint!("\r[matrix] simulated {done}/{total} cells ({listed} listed)          ");
    });
    eprintln!();
    let mut cells = HashMap::new();
    let mut it = results.into_iter();
    for w in &benches {
        for &pin in configs {
            for &scheme in &schemes {
                let rs: Vec<ExpResult> = it.by_ref().take(opts.reps as usize).collect();
                cells.insert((w.name(), pin, scheme), rs);
            }
        }
    }
    BenchMatrix {
        cells,
        benchmarks: benches.iter().map(|w| w.name()).collect(),
        configs: configs.to_vec(),
    }
}

impl BenchMatrix {
    fn get(&self, b: &'static str, p: PinConfig, s: ColorScheme) -> &[ExpResult] {
        &self.cells[&(b, p, s)]
    }

    /// Best "other" scheme by mean of `metric` for a (benchmark, config).
    fn best_other(
        &self,
        b: &'static str,
        p: PinConfig,
        metric: impl Fn(&ExpResult) -> f64 + Copy,
    ) -> (ColorScheme, Summary) {
        OTHER_SCHEMES
            .iter()
            .map(|&s| (s, Summary::of(self.get(b, p, s), metric)))
            .min_by(|a, b| a.1.mean.total_cmp(&b.1.mean))
            .unwrap()
    }

    /// One figure table (normalized to buddy) for a metric: Fig. 11 uses
    /// runtime, Fig. 12 uses total idle.
    pub fn figure(&self, metric: impl Fn(&ExpResult) -> f64 + Copy, what: &str) -> Vec<Table> {
        let mut tables = Vec::new();
        for &pin in &self.configs {
            let mut t = Table::new(vec![
                "benchmark".to_string(),
                format!("buddy_{what}"),
                "BPM".to_string(),
                "MEM+LLC".to_string(),
                "best_other".to_string(),
                "best_other_scheme".to_string(),
            ]);
            for &b in &self.benchmarks {
                let base_rs = self.get(b, pin, ColorScheme::Buddy);
                let base_bad = any_poisoned(base_rs);
                let base = Summary::of(base_rs, metric);
                let nz = |v: f64| if base.mean > 0.0 { v / base.mean } else { 0.0 };
                let bpm = Summary::of(self.get(b, pin, ColorScheme::Bpm), metric);
                let ml = Summary::of(self.get(b, pin, ColorScheme::MemLlc), metric);
                let (bs, bsum) = self.best_other(b, pin, metric);
                // A poisoned repetition set renders as ERR; normalized
                // columns also depend on the buddy base being clean.
                let cell = |rs_bad: bool, v: String| {
                    if rs_bad || base_bad {
                        "ERR".to_string()
                    } else {
                        v
                    }
                };
                let bpm_bad = any_poisoned(self.get(b, pin, ColorScheme::Bpm));
                let ml_bad = any_poisoned(self.get(b, pin, ColorScheme::MemLlc));
                let other_bad = OTHER_SCHEMES
                    .iter()
                    .any(|&s| any_poisoned(self.get(b, pin, s)));
                t.row(vec![
                    b.to_string(),
                    cell(false, norm_err(1.0, nz(base.min), nz(base.max))),
                    cell(bpm_bad, norm_err(nz(bpm.mean), nz(bpm.min), nz(bpm.max))),
                    cell(ml_bad, norm_err(nz(ml.mean), nz(ml.min), nz(ml.max))),
                    cell(other_bad, norm(nz(bsum.mean))),
                    if other_bad {
                        "ERR".to_string()
                    } else {
                        bs.label().to_string()
                    },
                ]);
            }
            tables.push(t);
        }
        tables
    }

    /// **Figure 11** — normalized benchmark runtime per config.
    pub fn fig11(&self) -> Vec<Table> {
        self.figure(|r| r.metrics.runtime as f64, "runtime")
    }

    /// **Figure 12** — normalized total idle time per config.
    pub fn fig12(&self) -> Vec<Table> {
        self.figure(|r| r.metrics.total_idle() as f64, "idle")
    }
}

/// The schemes Figures 13/14 compare.
const FIG13_SCHEMES: [ColorScheme; 3] = [ColorScheme::Buddy, ColorScheme::Bpm, ColorScheme::MemLlc];

/// **Figures 13 & 14** — per-thread runtime and idle at 16_threads_4_nodes.
/// Returns (per-benchmark summary table, lbm per-thread detail table).
///
/// The whole `benchmark × scheme × rep` sweep is one flattened cell batch;
/// every cell is a strict subset of the fig11 matrix, so in an invocation
/// that already ran the matrix this function performs zero new simulations
/// (asserted by scripts/ci.sh against the cache counters).
pub fn fig13_14(opts: &FigOpts) -> (Table, Table) {
    let pin = PinConfig::T16N4;
    let benches = all_benchmarks(opts.scale_());
    let mut summary = Table::new(vec![
        "benchmark",
        "scheme",
        "max_thr_runtime",
        "min_thr_runtime",
        "spread",
        "max_thr_idle",
    ]);
    let mut lbm_detail = Table::new(vec![
        "thread",
        "buddy_runtime",
        "memllc_runtime",
        "buddy_idle",
        "memllc_idle",
    ]);
    let mut specs: Vec<CellSpec> = Vec::new();
    for w in &benches {
        specs.extend(cells_for(w.as_ref(), &FIG13_SCHEMES, pin, opts.reps));
    }
    let results = run_cells(&specs, available_jobs());
    let mut chunks = results.chunks(opts.reps as usize);
    for w in &benches {
        // Per-benchmark chunk layout follows FIG13_SCHEMES order; the
        // MemLlc chunk's first repetition (seed 1) doubles as the lbm
        // per-thread detail column, the same cell `run_once(.., 1)` used
        // to re-simulate.
        let mut lbm_memllc_first: Option<&ExpResult> = None;
        let mut lbm_buddy_first: Option<&ExpResult> = None;
        for scheme in FIG13_SCHEMES {
            let rs = chunks.next().expect("chunk per (benchmark, scheme)");
            let bad = any_poisoned(rs);
            let maxr = Summary::of(rs, |r| r.metrics.max_thread_runtime() as f64).mean;
            let minr = Summary::of(rs, |r| r.metrics.min_thread_runtime() as f64).mean;
            let spread = Summary::of(rs, |r| r.metrics.runtime_spread() as f64).mean;
            let maxi = Summary::of(rs, |r| r.metrics.max_thread_idle() as f64).mean;
            let val = |v: String| if bad { "ERR".to_string() } else { v };
            summary.row(vec![
                w.name().to_string(),
                scheme.label().to_string(),
                val(format!("{maxr:.0}")),
                val(format!("{minr:.0}")),
                val(format!("{spread:.0}")),
                val(format!("{maxi:.0}")),
            ]);
            if w.name() == "lbm" {
                match scheme {
                    ColorScheme::Buddy => lbm_buddy_first = Some(&rs[0]),
                    ColorScheme::MemLlc => lbm_memllc_first = Some(&rs[0]),
                    _ => {}
                }
            }
        }
        if let (Some(buddy), Some(ml)) = (lbm_buddy_first, lbm_memllc_first) {
            let bad = buddy.poisoned || ml.poisoned;
            let (m, ml) = (&buddy.metrics, &ml.metrics);
            let val = |v: u64| {
                if bad {
                    "ERR".to_string()
                } else {
                    format!("{v}")
                }
            };
            for i in 0..m.threads {
                lbm_detail.row(vec![
                    format!("{i}"),
                    val(m.thread_runtime[i]),
                    val(ml.thread_runtime[i]),
                    val(m.thread_idle[i]),
                    val(ml.thread_idle[i]),
                ]);
            }
        }
    }
    (summary, lbm_detail)
}

/// **§V claims (1)–(2)** — pointed latency measurements on the memory
/// system: local vs remote controller, bank sharing, LLC interference.
pub fn latency(_opts: &FigOpts) -> Table {
    use tint_hw::types::{BankColor, FrameNumber, LlcColor, PhysAddr};
    use tint_mem::MemorySystem;

    let machine = MachineConfig::opteron_6128();
    let mut t = Table::new(vec!["experiment", "cycles_or_rate", "note"]);
    let frame = |m: &MachineConfig, bc: u16, llc: u16, row: u64| -> FrameNumber {
        m.mapping.compose_frame(BankColor(bc), LlcColor(llc), row)
    };

    // 1. Unloaded DRAM latency by hop count (fresh rows → row misses).
    {
        let mut sys = MemorySystem::new(machine.clone());
        let cases = [
            ("local (0 hops)", 0u16),
            ("same socket (1 hop)", 32),
            ("cross socket (2 hops)", 96),
        ];
        for (i, (label, bc)) in cases.iter().enumerate() {
            let a = frame(&machine, *bc, 0, i as u64 + 1).base();
            let r = sys.access(CoreId(0), PhysAddr(a.0), Rw::Read, (i as u64) * 100_000);
            t.row(vec![
                format!("DRAM read, {label}"),
                format!("{}", r.latency),
                "unloaded, row miss".to_string(),
            ]);
        }
    }

    // 2. Bank sharing (Fig. 8's scenario): two cores each stream their own
    //    page (their own row). Same bank → the row buffer thrashes between
    //    the two rows; disjoint banks → each keeps its row open.
    {
        for (label, bc1) in [("same bank", 0u16), ("disjoint banks", 1u16)] {
            let mut sys = MemorySystem::new(machine.clone());
            let mut now = [0u64; 2];
            let n = 512u64;
            for i in 0..n {
                // Fresh lines (no cache reuse); each thread walks its own
                // rows sequentially. Interleaved, a shared bank ping-pongs
                // between the two open rows.
                let off = (i * 128) % 4096;
                let row = 1 + i / 32;
                let pa = frame(&machine, 0, 0, 2 * row);
                let pb = frame(&machine, bc1, 0, 2 * row + 1);
                let r0 = sys.access(CoreId(0), pa.at(off), Rw::Write, now[0]);
                now[0] += r0.latency;
                let r1 = sys.access(CoreId(1), pb.at(off), Rw::Write, now[1]);
                now[1] += r1.latency;
            }
            t.row(vec![
                format!("2-thread stream, {label}"),
                format!("{:.1}", (now[0] + now[1]) as f64 / (2 * n) as f64),
                "mean DRAM-bound access latency".to_string(),
            ]);
        }
    }

    // 3. LLC interference (Fig. 9's scenario): the victim rescans a working
    //    set larger than its private L2 but inside a 2-color LLC slice; the
    //    intruder streams pages of the same vs disjoint LLC colors.
    {
        for (label, intruder_colors) in [
            ("shared LLC colors", [0u16, 1, 2, 3]),
            ("disjoint LLC colors", [4u16, 5, 6, 7]),
        ] {
            let mut sys = MemorySystem::new(machine.clone());
            // Victim: 160 pages (640 KiB) over LLC colors {0..3} — bigger
            // than the private L2 (so rescans reach L3), comfortably inside
            // the 4-color slice (1.5 MiB).
            let vic: Vec<_> = (0..160u64)
                .map(|i| frame(&machine, (i % 4) as u16, (i % 4) as u16, 4 + i / 4))
                .collect();
            let mut clock = 0u64;
            let rescan = |sys: &mut MemorySystem, clock: &mut u64| {
                for f in &vic {
                    for off in (0..4096).step_by(128) {
                        let r = sys.access(CoreId(0), f.at(off), Rw::Read, *clock);
                        *clock += r.latency;
                    }
                }
            };
            rescan(&mut sys, &mut clock); // warm
            let misses0 = sys.hierarchy().stats().core(CoreId(0)).l3_misses;
            for round in 0..4u64 {
                // Intruder: 800 fresh pages (3.1 MiB) of its colors — enough
                // to overflow the 6-way sets it shares with the victim.
                for p in 0..800u64 {
                    let f = frame(
                        &machine,
                        8 + (p % 4) as u16,
                        intruder_colors[(p % 4) as usize],
                        (round * 800 + p) % 1024,
                    );
                    for off in (0..4096).step_by(128) {
                        let r = sys.access(CoreId(8), f.at(off), Rw::Read, clock);
                        clock += r.latency;
                    }
                }
                rescan(&mut sys, &mut clock);
            }
            let misses = sys.hierarchy().stats().core(CoreId(0)).l3_misses - misses0;
            t.row(vec![
                format!("victim L3 misses, {label}"),
                format!("{misses}"),
                "4 rescans of 640 KiB under intrusion".to_string(),
            ]);
        }
    }
    t
}

/// Diagnostic: one benchmark at one config, every scheme, with the latency /
/// locality / fault breakdown. Not a paper figure — a calibration tool.
pub fn probe(opts: &FigOpts, bench_name: &str, pin: PinConfig) -> Table {
    let benches = all_benchmarks(opts.scale_());
    let w = benches
        .iter()
        .find(|w| w.name() == bench_name)
        .unwrap_or_else(|| panic!("unknown benchmark {bench_name}"));
    let mut t = Table::new(vec![
        "scheme",
        "runtime",
        "idle",
        "mean_lat",
        "remote",
        "rowhit",
        "l3miss",
        "faults",
        "fault_cyc",
        "moves",
    ]);
    for &scheme in &matrix_schemes() {
        let r = run_once(w.as_ref(), scheme, pin, 1);
        let val = |v: String| if r.poisoned { "ERR".to_string() } else { v };
        t.row(vec![
            scheme.label().to_string(),
            val(format!("{}", r.metrics.runtime)),
            val(format!("{}", r.metrics.total_idle())),
            val(format!("{:.1}", r.mean_latency)),
            val(format!("{:.3}", r.remote_fraction)),
            val(format!("{:.3}", r.row_hit_rate)),
            val(format!("{:.3}", r.l3_miss_rate)),
            val(format!("{}", r.page_faults)),
            val(format!("{}", r.fault_cycles)),
            val(format!("{}", r.color_list_moves)),
        ]);
    }
    t
}

/// Ablation: full vs partial coloring as LLC pressure grows (the freqmine
/// exception, §V.B).
pub fn ablate_part(opts: &FigOpts) -> Table {
    let pin = PinConfig::T16N4;
    let benches = all_benchmarks(opts.scale_());
    let mut t = Table::new(vec![
        "benchmark",
        "MEM+LLC",
        "MEM+LLC(part)",
        "LLC+MEM(part)",
    ]);
    // Buddy first per benchmark (the normalization base), then the three
    // partial-coloring variants — all benchmarks in one flattened batch.
    let schemes = [
        ColorScheme::Buddy,
        ColorScheme::MemLlc,
        ColorScheme::MemLlcPart,
        ColorScheme::LlcMemPart,
    ];
    let mut specs: Vec<CellSpec> = Vec::new();
    for w in &benches {
        specs.extend(cells_for(w.as_ref(), &schemes, pin, opts.reps));
    }
    let results = run_cells(&specs, available_jobs());
    let mut chunks = results.chunks(opts.reps as usize);
    for w in &benches {
        let base_rs = chunks.next().expect("buddy chunk");
        let base_bad = any_poisoned(base_rs);
        let base = Summary::runtime(base_rs).mean;
        let cells: Vec<String> = (0..3)
            .map(|_| {
                let rs = chunks.next().expect("variant chunk");
                if base_bad || any_poisoned(rs) {
                    "ERR".to_string()
                } else {
                    norm(Summary::runtime(rs).mean / base)
                }
            })
            .collect();
        t.row(vec![
            w.name().to_string(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
        ]);
    }
    t
}

/// Ablation: legacy global buddy vs NUMA first-touch vs MEM coloring.
pub fn ablate_firsttouch(opts: &FigOpts) -> Table {
    let pin = PinConfig::T16N4;
    let w = Synthetic::new(opts.scale_());
    let mut t = Table::new(vec!["policy", "runtime_norm", "remote_frac"]);
    let base = Summary::runtime(&run_reps(&w, ColorScheme::Buddy, pin, opts.reps)).mean;
    for scheme in [
        ColorScheme::LegacyGlobal,
        ColorScheme::Buddy,
        ColorScheme::MemOnly,
        ColorScheme::MemLlc,
    ] {
        let rs = run_reps(&w, scheme, pin, opts.reps);
        let bad = any_poisoned(&rs);
        let s = Summary::runtime(&rs);
        let remote = Summary::of(&rs, |r| r.remote_fraction).mean;
        let val = |v: String| if bad { "ERR".to_string() } else { v };
        t.row(vec![
            scheme.label().to_string(),
            val(norm(s.mean / base)),
            val(format!("{remote:.3}")),
        ]);
    }
    t
}

/// Ablation (extension): dynamic recoloring. A team first-touches its data
/// uncolored (buddy), then adopts MEM+LLC colors and migrates — the second
/// pass should approach natively-colored speed, at a visible one-time cost.
pub fn ablate_migrate(opts: &FigOpts) -> Table {
    use tint_spmd::{Program, SectionBody, SimThread};
    use tint_workloads::patterns::Seq;

    let pin = PinConfig::T16N4;
    let bytes = Scale(opts.scale).bytes(1 << 20);
    let mut t = Table::new(vec!["measurement", "cycles", "note"]);

    fn stream_pass(
        sys: &mut System,
        threads: &mut [SimThread],
        regions: &[VirtAddr],
        bytes: u64,
    ) -> u64 {
        let line = sys.machine().mapping.line_size();
        let bodies: Vec<Box<dyn SectionBody>> = regions
            .iter()
            .map(|&r| Box::new(Seq::new(r, bytes, line, 1, 4, 2)) as Box<dyn SectionBody>)
            .collect();
        Program::new()
            .parallel(bodies)
            .run(sys, threads)
            .expect("pass runs")
            .runtime
    }

    fn team_with_policy(
        cores: &[CoreId],
        plan: Option<&[tintmalloc::colors::ThreadColors]>,
        bytes: u64,
    ) -> (System, Vec<SimThread>, Vec<VirtAddr>) {
        let mut sys = System::boot(MachineConfig::opteron_6128());
        let threads = SimThread::spawn_all(&mut sys, cores);
        for (i, th) in threads.iter().enumerate() {
            match plan {
                Some(p) => sys.apply_colors(th.tid, &p[i]).unwrap(),
                None => sys
                    .set_policy(th.tid, tint_kernel::HeapPolicy::FirstTouch)
                    .unwrap(),
            }
        }
        let regions = threads
            .iter()
            .map(|th| sys.malloc(th.tid, bytes).unwrap())
            .collect();
        (sys, threads, regions)
    }

    let cores = pin.cores();

    // Scenario A: buddy throughout (control).
    let (mut sys, mut threads, regions) = team_with_policy(&cores, None, bytes);
    let pass1 = stream_pass(&mut sys, &mut threads, &regions, bytes);
    let pass2_buddy = stream_pass(&mut sys, &mut threads, &regions, bytes);
    t.row(vec![
        "pass 1, buddy (cold)".to_string(),
        format!("{pass1}"),
        "first touch included".to_string(),
    ]);
    t.row(vec![
        "pass 2, buddy (control)".to_string(),
        format!("{pass2_buddy}"),
        "no migration".to_string(),
    ]);

    // Scenario B: same start, then adopt colors + migrate before pass 2.
    let (mut sys, mut threads, regions) = team_with_policy(&cores, None, bytes);
    let _ = stream_pass(&mut sys, &mut threads, &regions, bytes);
    let plan = ColorScheme::MemLlc.plan(sys.machine(), &cores);
    let mut migrate_cycles = 0u64;
    let mut migrated = 0u64;
    for ((th, p), &region) in threads.iter().zip(&plan).zip(&regions) {
        sys.apply_colors(th.tid, p).unwrap();
        // Range-scoped: each thread migrates only its own region (the
        // address space is shared across the team).
        let (pages, cyc) = sys.recolor_range(th.tid, region, bytes).unwrap();
        migrated += pages;
        migrate_cycles += cyc;
    }
    let pass2_recolored = stream_pass(&mut sys, &mut threads, &regions, bytes);
    t.row(vec![
        "migration cost".to_string(),
        format!("{migrate_cycles}"),
        format!("{migrated} pages moved"),
    ]);
    t.row(vec![
        "pass 2, after recolor".to_string(),
        format!("{pass2_recolored}"),
        "pages now MEM+LLC".to_string(),
    ]);

    // Scenario C: natively colored from the start (the target).
    let (mut sys, mut threads, regions) = team_with_policy(&cores, Some(&plan), bytes);
    let _ = stream_pass(&mut sys, &mut threads, &regions, bytes);
    let pass2_native = stream_pass(&mut sys, &mut threads, &regions, bytes);
    t.row(vec![
        "pass 2, natively colored".to_string(),
        format!("{pass2_native}"),
        "lower bound".to_string(),
    ]);
    t
}

/// §II.B bandwidth claim: "accesses to different banks and channels may
/// proceed in parallel ... improving memory bandwidth". 1/2/4 write streams
/// run over a shared bank, banks of one controller, and banks of different
/// controllers, reporting achieved lines/kilocycle. (Stream sizes are fixed;
/// `--scale` does not apply here.)
pub fn bandwidth(_opts: &FigOpts) -> Table {
    use tint_hw::types::{BankColor, FrameNumber, LlcColor, PhysAddr};
    use tint_mem::MemorySystem;

    let machine = MachineConfig::opteron_6128();
    let mut t = Table::new(vec!["streams", "banks", "lines_per_kcycle", "note"]);
    let frame = |bc: u16, llc: u16, row: u64| -> FrameNumber {
        machine
            .mapping
            .compose_frame(BankColor(bc), LlcColor(llc), row)
    };

    for (label, bank_of) in [
        ("same bank", (|_s: u64| 0u16) as fn(u64) -> u16),
        ("banks of one controller", |s| s as u16),
        ("banks of different controllers", |s| (s * 32) as u16),
    ] {
        for streams in [1u64, 2, 4] {
            let mut sys = MemorySystem::new(machine.clone());
            // One core per stream, each *local to its bank's node* so hop
            // latency never pollutes the bank-parallelism measurement.
            let mut clocks = vec![0u64; streams as usize];
            let lines_per_stream = 512u64;
            for l in 0..lines_per_stream {
                for s in 0..streams {
                    let bank = bank_of(s);
                    let node = bank as usize / 32;
                    let core = CoreId(node * 4 + (s as usize % 4));
                    let f = frame(bank, 0, (l / 32) * 8 + s);
                    let r = sys.access(
                        core,
                        PhysAddr(f.at((l % 32) * 128).0),
                        Rw::Write,
                        clocks[s as usize],
                    );
                    clocks[s as usize] += r.latency;
                }
            }
            let elapsed = clocks.iter().max().copied().unwrap_or(1).max(1);
            let total_lines = streams * lines_per_stream;
            t.row(vec![
                format!("{streams}"),
                label.to_string(),
                format!("{:.1}", total_lines as f64 * 1000.0 / elapsed as f64),
                "back-to-back writes".to_string(),
            ]);
        }
    }
    t
}

/// Ablation (extension): DRAM page policy. Under a closed-page controller
/// every access pays `tRCD + tCAS` regardless of sharing, so bank coloring
/// loses most of its row-buffer rationale — open-page is the regime the
/// paper's analysis assumes.
pub fn ablate_pagepolicy(opts: &FigOpts) -> Table {
    use tint_hw::machine::PagePolicy;
    use tint_spmd::SimThread;

    let mut t = Table::new(vec![
        "page_policy",
        "scheme",
        "runtime",
        "MEM_gain_vs_buddy",
    ]);
    for policy in [PagePolicy::Open, PagePolicy::Closed] {
        let mut runtimes = Vec::new();
        for scheme in [ColorScheme::Buddy, ColorScheme::MemOnly] {
            let mut machine = MachineConfig::opteron_6128();
            machine.dram.page_policy = policy;
            let mut sys = System::boot(machine);
            let cores = PinConfig::T16N4.cores();
            let mut threads = SimThread::spawn_all(&mut sys, &cores);
            for (th, p) in threads.iter().zip(&scheme.plan(sys.machine(), &cores)) {
                sys.apply_colors(th.tid, p).unwrap();
            }
            let w = Synthetic::new(opts.scale_());
            let program = w.build(&mut sys, &threads, 1).unwrap();
            let m = program.run(&mut sys, &mut threads).unwrap();
            runtimes.push(m.runtime);
            t.row(vec![
                format!("{policy:?}"),
                scheme.label().to_string(),
                format!("{}", m.runtime),
                if scheme == ColorScheme::MemOnly {
                    format!(
                        "{:.1}%",
                        100.0 * (1.0 - runtimes[1] as f64 / runtimes[0] as f64)
                    )
                } else {
                    "-".to_string()
                },
            ]);
        }
    }
    t
}

/// Ablation (extension): static vs dynamic scheduling under an imbalanced
/// chunk distribution — coloring attacks *memory-induced* divergence while
/// dynamic scheduling attacks *work-induced* divergence; they compose.
pub fn ablate_dynamic(opts: &FigOpts) -> Table {
    use tint_spmd::{Program, SectionBody, SimThread};
    use tint_workloads::patterns::Seq;

    let pin = PinConfig::T16N4;
    let chunk_base = Scale(opts.scale).bytes(64 << 10);
    let mut t = Table::new(vec!["scheduling", "scheme", "runtime", "total_idle"]);

    for scheme in [ColorScheme::Buddy, ColorScheme::MemLlc] {
        for dynamic in [false, true] {
            let cores = pin.cores();
            let mut sys = System::boot(MachineConfig::opteron_6128());
            let mut threads = SimThread::spawn_all(&mut sys, &cores);
            for (th, p) in threads.iter().zip(&scheme.plan(sys.machine(), &cores)) {
                sys.apply_colors(th.tid, p).unwrap();
            }
            // 256 fine-grained chunks; every fourth thread's static block
            // holds double-size chunks (work imbalance a static `omp for`
            // cannot fix), while the dynamic queue's tail stays one small
            // chunk.
            let line = sys.machine().mapping.line_size();
            let chunks: Vec<(VirtAddr, u64)> = (0..256u64)
                .map(|i| {
                    let len = if (i / 16) % 4 == 0 {
                        2 * chunk_base
                    } else {
                        chunk_base
                    };
                    let owner = threads[(i as usize) % threads.len()].tid;
                    (sys.malloc(owner, len).unwrap(), len)
                })
                .collect();
            let mk = |&(base, len): &(VirtAddr, u64)| {
                Box::new(Seq::new(base, len, line, 1, 4, 2)) as Box<dyn SectionBody>
            };
            let program = if dynamic {
                Program::new().parallel_dynamic(chunks.iter().map(mk).collect())
            } else {
                // Static: contiguous groups of 16 chunks per thread.
                let bodies: Vec<Box<dyn SectionBody>> = (0..threads.len())
                    .map(|i| {
                        let mine: Vec<_> = chunks[i * 16..(i + 1) * 16].iter().map(mk).collect();
                        Box::new(ChainBodies(mine, 0)) as Box<dyn SectionBody>
                    })
                    .collect();
                Program::new().parallel(bodies)
            };
            let m = program.run(&mut sys, &mut threads).unwrap();
            t.row(vec![
                if dynamic { "dynamic" } else { "static" }.to_string(),
                scheme.label().to_string(),
                format!("{}", m.runtime),
                format!("{}", m.total_idle()),
            ]);
        }
    }
    t
}

/// Run several bodies back to back as one section body.
struct ChainBodies<'a>(Vec<Box<dyn tint_spmd::SectionBody + 'a>>, usize);

impl tint_spmd::SectionBody for ChainBodies<'_> {
    fn next_op(&mut self) -> Option<tint_spmd::Op> {
        while self.1 < self.0.len() {
            if let Some(op) = self.0[self.1].next_op() {
                return Some(op);
            }
            self.1 += 1;
        }
        None
    }

    // Delegate to the inner bodies' (monomorphized) bulk fills rather than
    // taking the outer one-op-at-a-time default. A short inner fill means
    // that body is exhausted, so the next one continues filling the same
    // buffer; only when all bodies are drained does the outer fill come up
    // short.
    fn fill(&mut self, buf: &mut [tint_spmd::Op]) -> usize {
        let mut n = 0;
        while n < buf.len() && self.1 < self.0.len() {
            n += self.0[self.1].fill(&mut buf[n..]);
            if n < buf.len() {
                self.1 += 1;
            }
        }
        n
    }
}

/// Ablation (extension): graceful degradation under color-list pressure.
///
/// A hog thread pins down a growing fraction of the (bank 0, LLC 0)
/// color-pair supply; a victim colored the same way then tries to place a
/// fixed working set (a quarter of the pair) under each
/// [`ExhaustionPolicy`]. `Strict` reproduces the paper's contract — error
/// once the color runs dry; `NearestColor` borrows neighbouring colors;
/// `LocalUncolored` degrades to node-local uncolored pages, the behaviour
/// §III.C describes for tasks that outgrow their colors. The off-color
/// fraction is the price of survival: pages that no longer enjoy the
/// victim's bank/LLC isolation.
pub fn ablate_pressure(_opts: &FigOpts) -> Table {
    let mut t = Table::new(vec![
        "occupancy",
        "policy",
        "outcome",
        "pages_placed",
        "off_color_frac",
        "fault_cycles",
    ]);
    let occupancies = [0.0, 0.5, 0.8, 0.9, 0.95, 0.99];
    let policies = [
        (ExhaustionPolicy::Strict, "strict"),
        (ExhaustionPolicy::NearestColor, "nearest-color"),
        (ExhaustionPolicy::LocalUncolored, "local-uncolored"),
    ];
    for &occ in &occupancies {
        for (policy, label) in policies {
            let mut sys = System::boot(MachineConfig::tiny());
            let pair = sys.machine().mapping.frames_per_color_pair();
            let hog = sys.spawn(CoreId(0));
            sys.set_mem_color(hog, BankColor(0)).unwrap();
            sys.set_llc_color(hog, LlcColor(0)).unwrap();
            let hog_pages = (pair as f64 * occ) as u64;
            if hog_pages > 0 {
                let a = sys.malloc(hog, hog_pages * 4096).unwrap();
                sys.prefault(hog, a, hog_pages * 4096).unwrap();
            }
            let victim = sys.spawn(CoreId(1));
            sys.set_mem_color(victim, BankColor(0)).unwrap();
            sys.set_llc_color(victim, LlcColor(0)).unwrap();
            sys.set_exhaustion_policy(victim, policy).unwrap();
            let want = pair / 4;
            let st0 = *sys.kernel().stats();
            let mut placed = 0u64;
            let mut outcome = "ok".to_string();
            match sys.malloc(victim, want * 4096) {
                Err(e) => outcome = e.name().to_string(),
                Ok(base) => {
                    for p in 0..want {
                        match sys.access(victim, base.offset(p * 4096), Rw::Write, 0) {
                            Ok(_) => placed += 1,
                            Err(e) => {
                                outcome = e.name().to_string();
                                break;
                            }
                        }
                    }
                }
            }
            let st = sys.kernel().stats();
            let off = (st.off_color_allocs - st0.off_color_allocs)
                + (st.exhaustion_fallbacks - st0.exhaustion_fallbacks);
            let total = off + (st.colored_allocs - st0.colored_allocs);
            t.row(vec![
                format!("{occ:.2}"),
                label.to_string(),
                outcome,
                format!("{placed}"),
                norm(if total == 0 {
                    0.0
                } else {
                    off as f64 / total as f64
                }),
                format!("{}", st.fault_cycles - st0.fault_cycles),
            ]);
            sys.check_invariants();
        }
    }
    t
}

/// Ablation: the colored-free-list population overhead (§III.C): cost of the
/// first colored allocations vs steady state.
pub fn ablate_colorlist(_opts: &FigOpts) -> Table {
    let machine = MachineConfig::opteron_6128();
    let mut t = Table::new(vec!["phase", "mean_fault_cycles", "pages_moved"]);
    let mut sys = System::boot(machine);
    let cores = PinConfig::T4N4.cores();
    let threads = SimThread::spawn_all(&mut sys, &cores);
    let plan = ColorScheme::MemLlc.plan(sys.machine(), &cores);
    for (th, p) in threads.iter().zip(&plan) {
        sys.apply_colors(th.tid, p).unwrap();
    }
    let pages = 512u64;
    // Cold: first allocations must populate the color lists from the buddy
    // free list. Then free everything (pages return to the colored lists)
    // and allocate again: the steady state the paper describes for balanced
    // allocation/deallocation.
    let mut regions: Vec<(tint_kernel::Tid, tint_hw::types::VirtAddr)> = Vec::new();
    for phase in ["cold (populating)", "warm (balanced alloc/free)"] {
        let moved0 = sys.kernel().stats().pages_moved;
        let faults0 = sys.kernel().stats().page_faults;
        let cyc0 = sys.kernel().stats().fault_cycles;
        for th in &threads {
            let a = sys.malloc(th.tid, pages * 4096).unwrap();
            sys.prefault(th.tid, a, pages * 4096).unwrap();
            regions.push((th.tid, a));
        }
        let st = sys.kernel().stats();
        let faults = st.page_faults - faults0;
        t.row(vec![
            phase.to_string(),
            format!("{:.0}", (st.fault_cycles - cyc0) as f64 / faults as f64),
            format!("{}", st.pages_moved - moved0),
        ]);
        // Balanced deallocation: freed pages land in the colored free lists.
        for (tid, a) in regions.drain(..) {
            sys.free(tid, a).unwrap();
        }
    }
    t
}

/// Figure (extension): multi-tenant churn — throughput, off-color fraction,
/// and pool-population skew vs. task count and simulated uptime.
///
/// Tasks arrive as a seeded Poisson process ([`ChurnConfig`]), color
/// themselves, live a mixed read/write lifetime over a private region, and
/// exit through the kernel's full reclamation path, time-sliced by the
/// round-robin scheduler. Each cell asserts the reclamation contract
/// directly: after the last exit the buddy and color-list free populations
/// equal the post-boot baseline — zero leaked frames, zero pool skew —
/// with `check_invariants` running throughout the run. At `--scale 1.0`
/// every exhaustion policy sees ≥ 1,000 arrivals per load level; the
/// `mixed` rows cycle all three policies across one tenancy.
pub fn churn(opts: &FigOpts) -> Table {
    let mut t = Table::new(vec![
        "policy",
        "tasks",
        "completed",
        "failed",
        "uptime_mcycles",
        "tasks_per_mcycle",
        "off_color_frac",
        "leaked_frames",
        "pool_skew",
    ]);
    let base = ((1_000.0 * opts.scale).ceil() as u64).max(4);
    let mixes: [(&str, &[ExhaustionPolicy]); 4] = [
        ("strict", &[ExhaustionPolicy::Strict]),
        ("nearest-color", &[ExhaustionPolicy::NearestColor]),
        ("local-uncolored", &[ExhaustionPolicy::LocalUncolored]),
        (
            "mixed",
            &[
                ExhaustionPolicy::Strict,
                ExhaustionPolicy::NearestColor,
                ExhaustionPolicy::LocalUncolored,
            ],
        ),
    ];
    for (mi, (label, policies)) in mixes.iter().enumerate() {
        for (li, level) in [1u64, 2].into_iter().enumerate() {
            let machine = MachineConfig::tiny();
            let mut sys = System::boot(machine.clone());
            let baseline = sys.kernel().pool_snapshot();
            let st0 = *sys.kernel().stats();
            let arrivals = base * level;
            let mut cfg = ChurnConfig::new(0x9E37 + (mi as u64) * 16 + li as u64, arrivals);
            cfg.policies = policies.to_vec();
            let rr = RoundRobin {
                quantum: 5_000,
                check_every: 4_096,
                ..RoundRobin::default()
            };
            let out = rr.run(&mut sys, cfg.build_jobs(&machine));
            let (buddy, colors) = sys.kernel().pool_snapshot();
            let leaked = (baseline.0 + baseline.1) as i64 - (buddy + colors) as i64;
            let skew = colors as i64 - baseline.1 as i64;
            assert_eq!(leaked, 0, "{label}/{arrivals}: frames leaked across churn");
            assert_eq!(skew, 0, "{label}/{arrivals}: color-list population skew");
            assert_eq!(
                out.completed + out.failed(),
                arrivals,
                "{label}/{arrivals}: every arrival must exit"
            );
            sys.check_invariants();
            let st = sys.kernel().stats();
            let off = (st.off_color_allocs - st0.off_color_allocs)
                + (st.exhaustion_fallbacks - st0.exhaustion_fallbacks);
            let total = off + (st.colored_allocs - st0.colored_allocs);
            let uptime = out.makespan as f64 / 1e6;
            t.row(vec![
                label.to_string(),
                format!("{arrivals}"),
                format!("{}", out.completed),
                format!("{}", out.failed()),
                format!("{uptime:.2}"),
                format!(
                    "{:.1}",
                    if uptime > 0.0 {
                        (out.completed + out.failed()) as f64 / uptime
                    } else {
                        0.0
                    }
                ),
                norm(if total == 0 {
                    0.0
                } else {
                    off as f64 / total as f64
                }),
                format!("{leaked}"),
                format!("{skew}"),
            ]);
        }
    }
    t
}

/// The soak machine: the tiny preset shrunk to 2,048 frames (`row_bits`
/// 7), so a few hundred mid-size tenants genuinely over-commit it. The
/// L3 set-index coverage of the LLC color bits is unchanged (row bits are
/// the top bits); `validate()` holds.
pub fn soak_machine() -> MachineConfig {
    let mut m = MachineConfig::tiny();
    m.name = "tiny-soak".to_string();
    m.mapping.row_bits = 7;
    m.validate();
    m
}

/// One soak cell's results: the run outcome, its per-window trace, and
/// the kernel's pressure counters.
struct SoakCell {
    label: &'static str,
    out: ChurnOutcome,
    windows: Vec<PressureWindow>,
    oom_kills: u64,
    admission_rejects: u64,
    alloc_retries: u64,
}

/// Run one soak cell to completion and hard-assert its survival contract.
fn run_soak_cell(label: &'static str, guarded: bool, arrivals: u64) -> SoakCell {
    let machine = soak_machine();
    let mut sys = System::boot(machine.clone());
    let baseline = sys.kernel().pool_snapshot();
    let cfg = SoakConfig::new(0x50AC + guarded as u64, arrivals);
    sys.set_fault_plan(Some(cfg.fault_plan()));
    let rr = if guarded {
        RoundRobin {
            quantum: 5_000,
            audit_frames: 256,
            admission_control: true,
            oom: Some(VictimPolicy::LargestFootprint),
            ..RoundRobin::default()
        }
    } else {
        // The pre-pressure scheduler: no gate, no killer, no retries, and
        // only stop-the-world invariant checks.
        RoundRobin {
            quantum: 5_000,
            max_retries: 0,
            check_every: 16_384,
            ..RoundRobin::default()
        }
    };
    let window = (arrivals * cfg.mean_gap / 8).max(1);
    let (out, windows) = rr.run_with_windows(&mut sys, cfg.build_jobs(&machine), window);
    // The survival contract, asserted per cell: every arrival reaches a
    // terminal fate, and sustained pressure + faults + kills + rejects
    // leak nothing and skew no pool.
    assert!(
        !out.budget_exceeded,
        "{label}: soak must not hit the backstop"
    );
    assert_eq!(
        out.completed + out.failed(),
        arrivals,
        "{label}: every arrival must reach a terminal fate: {out:?}"
    );
    assert_eq!(out.exit_errors, 0, "{label}: no task exited twice");
    let (buddy, colors) = sys.kernel().pool_snapshot();
    assert_eq!(
        baseline.0 + baseline.1,
        buddy + colors,
        "{label}: frames leaked across the soak"
    );
    assert_eq!(colors, baseline.1, "{label}: color-list population skew");
    sys.check_invariants();
    let st = sys.kernel().stats();
    assert_eq!(st.oom_kills, out.killed_oom, "{label}: kill books disagree");
    SoakCell {
        label,
        out,
        windows,
        oom_kills: st.oom_kills,
        admission_rejects: st.admission_rejects,
        alloc_retries: st.alloc_retries,
    }
}

/// Figure (extension): the sustained-pressure soak — survival and its
/// price over simulated hours of over-committed churn.
///
/// Two cells run the same heavy-tailed, fault-injected [`SoakConfig`]
/// stream on the 2,048-frame [`soak_machine`]: **guarded** (watermark
/// admission control, `EAGAIN` backoff, the largest-footprint OOM killer,
/// and the incremental auditor) and **unguarded** (the pre-pressure
/// scheduler: every transient failure is terminal). Each row is one
/// uptime window: cumulative completions/kills/rejections/retries, live
/// tenants, the two pool populations, the largest free buddy order (the
/// fragmentation signal), the off-color fraction, and the frames the
/// incremental auditor has swept. Cells run on separate host threads when
/// `--jobs` allows; each simulation is single-threaded and deterministic,
/// so the table is byte-identical at any job count.
pub fn soak(opts: &FigOpts) -> Table {
    let mut t = Table::new(vec![
        "cell",
        "window",
        "end_kcycles",
        "completed",
        "killed_oom",
        "rejected",
        "retries",
        "live",
        "buddy_free",
        "color_pages",
        "largest_order",
        "off_color_frac",
        "audited_frames",
    ]);
    let arrivals = ((5_000.0 * opts.scale).ceil() as u64).max(40);
    let specs: [(&'static str, bool); 2] = [("guarded", true), ("unguarded", false)];
    let cells: Vec<SoakCell> = if available_jobs() > 1 {
        std::thread::scope(|s| {
            let handles: Vec<_> = specs
                .iter()
                .map(|&(label, guarded)| s.spawn(move || run_soak_cell(label, guarded, arrivals)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("soak cell panicked"))
                .collect()
        })
    } else {
        specs
            .iter()
            .map(|&(label, guarded)| run_soak_cell(label, guarded, arrivals))
            .collect()
    };
    // At figure scale the offered load is ~20× the service rate: the
    // guarded run must actually have exercised the machinery it exists to
    // prove out.
    if arrivals >= 1_000 {
        let g = &cells[0].out;
        assert!(g.killed_oom >= 1, "guarded soak never OOM-killed: {g:?}");
        assert!(
            g.rejected_admission >= 1,
            "guarded soak never rejected an admission: {g:?}"
        );
        assert!(g.alloc_retries >= 1, "guarded soak never retried: {g:?}");
    }
    for cell in &cells {
        crate::runner::note_pressure_stats(
            cell.oom_kills,
            cell.admission_rejects,
            cell.alloc_retries,
        );
        for (wi, w) in cell.windows.iter().enumerate() {
            let off_total = w.off_color_allocs + w.colored_allocs;
            t.row(vec![
                cell.label.to_string(),
                format!("{wi}"),
                format!("{}", w.end / 1_000),
                format!("{}", w.completed),
                format!("{}", w.killed_oom),
                format!("{}", w.rejected_admission),
                format!("{}", w.alloc_retries),
                format!("{}", w.live_tasks),
                format!("{}", w.buddy_free),
                format!("{}", w.color_pages),
                format!("{}", w.largest_free_order),
                norm(if off_total == 0 {
                    0.0
                } else {
                    w.off_color_allocs as f64 / off_total as f64
                }),
                format!("{}", w.audited_frames),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> FigOpts {
        FigOpts {
            reps: 1,
            scale: 0.05,
            csv: false,
        }
    }

    #[test]
    fn fig10_has_four_policies() {
        let t = fig10(&quick());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn latency_table_has_all_experiments() {
        let t = latency(&quick());
        assert_eq!(t.len(), 3 + 2 + 2);
    }

    #[test]
    fn colorlist_ablation_cold_vs_warm() {
        let t = ablate_colorlist(&quick());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn churn_figure_reclaims_every_frame_in_every_cell() {
        let t = churn(&quick());
        assert_eq!(t.len(), 4 * 2, "policy mixes × load levels");
        for row in t.rows() {
            // The figure itself asserts reclamation per cell; the rendered
            // columns must agree: zero leaked frames, zero pool skew, and
            // every arrival accounted for as completed or failed.
            assert_eq!(row[7], "0", "leaked_frames column");
            assert_eq!(row[8], "0", "pool_skew column");
            let tasks: u64 = row[1].parse().unwrap();
            let done: u64 = row[2].parse().unwrap();
            let failed: u64 = row[3].parse().unwrap();
            assert_eq!(done + failed, tasks);
        }
    }

    #[test]
    fn soak_figure_is_identical_at_any_job_count() {
        // One test covers both properties (set_jobs is process-global): the
        // quick-scale soak emits window rows for both cells, and the table
        // — backoff and OOM schedules included — is byte-identical whether
        // the cells share one host thread or fan out across four.
        crate::runner::set_jobs(1);
        let serial = soak(&quick());
        crate::runner::set_jobs(4);
        let parallel = soak(&quick());
        crate::runner::set_jobs(0);
        assert_eq!(serial.rows(), parallel.rows());
        let cells: std::collections::HashSet<_> =
            serial.rows().iter().map(|r| r[0].clone()).collect();
        assert_eq!(cells.len(), 2, "guarded and unguarded cells present");
        for row in serial.rows() {
            let done: u64 = row[3].parse().unwrap();
            let killed: u64 = row[4].parse().unwrap();
            let rejected: u64 = row[5].parse().unwrap();
            assert!(done + killed + rejected <= 250, "cumulative counters");
        }
    }

    #[test]
    fn pressure_ablation_covers_grid_and_degrades_gracefully() {
        let t = ablate_pressure(&quick());
        assert_eq!(t.len(), 6 * 3, "occupancies × policies");
        let cell = |occ: &str, policy: &str, col: usize| {
            t.rows()
                .iter()
                .find(|r| r[0] == occ && r[1] == policy)
                .map(|r| r[col].clone())
                .unwrap()
        };
        // Under heavy pressure the paper's strict contract fails...
        assert_eq!(cell("0.99", "strict", 2), "ENOMEM");
        // ...while both graceful policies keep serving pages, paying with
        // an off-color fraction.
        for policy in ["nearest-color", "local-uncolored"] {
            assert_eq!(cell("0.99", policy, 2), "ok");
            assert!(cell("0.99", policy, 4).parse::<f64>().unwrap() > 0.5);
            // And with no pressure they are indistinguishable from strict.
            assert_eq!(cell("0.00", policy, 4), "0.000");
        }
    }
}
