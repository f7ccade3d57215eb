//! The traced run: spans around the benchmark's own calls into the crates'
//! public functions, kept in memory and written out when the run ends.
//!
//! A traced round runs the same cells as an untraced round, but drives
//! each cell through the public calls `run_cells` makes internally
//! (`System::boot`, `boot_noise`, thread spawn + coloring,
//! `Workload::build`, `Program::run`), timing each one. Its digest must
//! equal the untraced rounds' digest. No span sits inside the simulator,
//! and `tint_hw::profile` stays off.

use crate::digest;
use crate::workload::{cell_list, disarm, served_since_arm, set_up, Unit, Workload};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tint_bench::simcache::{self, CellKey};
use tint_bench::{journal, CellSpec, ExpResult};
use tint_spmd::{RunMetrics, SimThread};
use tintmalloc::prelude::*;

/// One timed call. Spans of one cell share `(round, unit)`; the cell's
/// `bench.unit` span is the parent of its layer spans.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Traced round index.
    pub round: u32,
    /// Cell index within the round.
    pub unit: u32,
    /// Host worker that ran the cell.
    pub worker: u32,
    /// Layer boundary crossed, `crate.function`.
    pub layer: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// An in-memory span recorder for one worker.
pub(crate) struct Spans {
    epoch: Instant,
    round: u32,
    unit: u32,
    worker: u32,
    /// Recorded spans, in call order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// A recorder whose timestamps count from `epoch`.
    pub(crate) fn new(epoch: Instant, round: u32, worker: u32) -> Self {
        Self {
            epoch,
            round,
            unit: 0,
            worker,
            spans: Vec::new(),
        }
    }

    /// Record a span of the current cell that began at `start`.
    fn record(&mut self, layer: &'static str, start: Instant, dur: Duration) {
        self.spans.push(Span {
            round: self.round,
            unit: self.unit,
            worker: self.worker,
            layer,
            start_ns: (start - self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    /// Run `f`, attributing its host time to `layer`.
    pub(crate) fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record(layer, start, start.elapsed());
        r
    }
}

/// Exact per-cell statistics from the crates' public stats. Each field is
/// the machine-wide total of the like-named counter; `dram` counts
/// accesses that reached DRAM and `dram_remote` those served by another
/// node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Counts {
    pub accesses: u64,
    pub dram: u64,
    pub dram_remote: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub l3_hits: u64,
    pub l3_misses: u64,
    pub llc_interference: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub row_conflicts: u64,
    pub bank_wait_cycles: u64,
    pub page_faults: u64,
    pub pages_moved: u64,
    pub color_list_calls: u64,
    pub fault_cycles: u64,
    pub sim_cycles: u64,
    pub idle_cycles: u64,
}

impl Counts {
    /// Read every counter of a system after its cell ran.
    pub(crate) fn of(sys: &System, sim_cycles: u64, idle_cycles: u64) -> Self {
        let mut c = Counts {
            sim_cycles,
            idle_cycles,
            ..Counts::default()
        };
        for m in &sys.mem().stats().cores {
            c.accesses += m.accesses;
            c.dram += m.dram_total();
            c.dram_remote += m.dram_same_socket + m.dram_cross_socket;
        }
        let hier = sys.mem().hierarchy().stats();
        for h in &hier.cores {
            c.l1_hits += h.l1_hits;
            c.l2_hits += h.l2_hits;
            c.l3_hits += h.l3_hits;
            c.l3_misses += h.l3_misses;
        }
        c.llc_interference = hier.total_llc_interference();
        for b in &sys.mem().dram().stats().banks {
            c.row_hits += b.row_hits;
            c.row_misses += b.row_misses;
            c.row_conflicts += b.row_conflicts;
            c.bank_wait_cycles += b.bank_wait_cycles;
        }
        let k = sys.kernel().stats();
        c.page_faults = k.page_faults;
        c.pages_moved = k.pages_moved;
        c.color_list_calls = k.create_color_list_calls;
        c.fault_cycles = k.fault_cycles;
        c
    }

    /// Field-wise sum.
    pub(crate) fn add(&mut self, o: &Counts) {
        self.accesses += o.accesses;
        self.dram += o.dram;
        self.dram_remote += o.dram_remote;
        self.l1_hits += o.l1_hits;
        self.l2_hits += o.l2_hits;
        self.l3_hits += o.l3_hits;
        self.l3_misses += o.l3_misses;
        self.llc_interference += o.llc_interference;
        self.row_hits += o.row_hits;
        self.row_misses += o.row_misses;
        self.row_conflicts += o.row_conflicts;
        self.bank_wait_cycles += o.bank_wait_cycles;
        self.page_faults += o.page_faults;
        self.pages_moved += o.pages_moved;
        self.color_list_calls += o.color_list_calls;
        self.fault_cycles += o.fault_cycles;
        self.sim_cycles += o.sim_cycles;
        self.idle_cycles += o.idle_cycles;
    }
}

/// The `ExpResult` the harness records for a finished cell (the same
/// derivation as `tint_bench::runner`'s cell simulation).
fn exp_result(sys: &System, metrics: RunMetrics) -> ExpResult {
    let kstats = *sys.kernel().stats();
    let hier = sys.mem().hierarchy().stats();
    let (l3_hits, l3_misses) = hier
        .cores
        .iter()
        .fold((0u64, 0u64), |(h, m), c| (h + c.l3_hits, m + c.l3_misses));
    let mem = sys.mem().stats();
    let (acc, lat) = mem.cores.iter().fold((0u64, 0u64), |(a, l), c| {
        (a + c.accesses, l + c.total_latency)
    });
    ExpResult {
        metrics,
        remote_fraction: mem.remote_fraction(),
        llc_interference: hier.total_llc_interference(),
        row_hit_rate: sys.mem().dram().stats().hit_rate(),
        pages_moved: kstats.pages_moved,
        page_faults: kstats.page_faults,
        fault_cycles: kstats.fault_cycles,
        l3_miss_rate: if l3_hits + l3_misses == 0 {
            0.0
        } else {
            l3_misses as f64 / (l3_hits + l3_misses) as f64
        },
        mean_latency: if acc == 0 {
            0.0
        } else {
            lat as f64 / acc as f64
        },
        color_list_moves: kstats.create_color_list_calls,
        poisoned: false,
    }
}

/// Simulate one cell through the public calls the harness makes, with a
/// span around each, then record it in the cache and journal as the
/// harness does.
pub(crate) fn traced_cell(c: &CellSpec<'_>, tr: &mut Spans) -> (Unit, Counts) {
    let mut sys = tr.span("core.boot", || System::boot(MachineConfig::opteron_6128()));
    // The harness's boot-noise rule: a seeded number of low frames consumed.
    let noise = (c.seed.wrapping_mul(2654435761) % 2048) * 4;
    tr.span("core.boot_noise", || sys.boot_noise(noise));
    let cores = c.pin.cores();
    let mut threads = tr.span("core.spawn_color", || {
        let threads = SimThread::spawn_all(&mut sys, &cores);
        let plan = c.scheme.plan(sys.machine(), &cores);
        for (t, p) in threads.iter().zip(&plan) {
            sys.apply_colors(t.tid, p).expect("color plan applies");
        }
        threads
    });
    let program = tr.span("workloads.build", || {
        c.workload
            .build(&mut sys, &threads, c.seed)
            .expect("workload builds")
    });
    let metrics = tr.span("spmd.run", || {
        program.run(&mut sys, &mut threads).expect("program runs")
    });
    let r = exp_result(&sys, metrics);
    let counts = Counts::of(&sys, r.metrics.runtime, r.metrics.total_idle());
    let key = CellKey::of(c.workload, c.scheme, c.pin, c.seed);
    tr.span("bench.journal_append", || {
        simcache::insert(key, &r);
        journal::append(&key, &r);
    });
    let unit = Unit {
        digest: digest::exp_result(&r),
        sim_cycles: r.metrics.runtime,
        ok: true,
    };
    (unit, counts)
}

/// One traced round.
#[derive(Debug, Clone)]
pub(crate) struct TracedRound {
    /// Host time of the fixed work, spans included.
    pub wall: Duration,
    /// Units in canonical order.
    pub units: Vec<Unit>,
    /// Host ms of each unit, in canonical order.
    pub unit_ms: Vec<f64>,
    /// Counters summed over the round's units.
    pub counts: Counts,
    /// Results served by the cell cache or the journal (must be 0).
    pub served: u64,
}

/// Per-unit outcome of a traced round, before merging.
type Done = (usize, Unit, Counts, f64);

/// Run one traced round; its spans are appended to `spans`.
pub(crate) fn traced_round(
    w: Workload,
    seed: u64,
    work: &Path,
    round: usize,
    epoch: Instant,
    spans: &mut Vec<Span>,
) -> TracedRound {
    let (dir, programs) = set_up(w, work, round);
    let cells = cell_list(&programs, seed);
    let n = cells.len();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<Done>> = Mutex::new(Vec::with_capacity(n));
    let recorded: Mutex<Vec<Span>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for worker in 0..w.workers() {
            let (next, done, recorded, cells) = (&next, &done, &recorded, &cells);
            s.spawn(move || {
                let mut tr = Spans::new(epoch, round as u32, worker as u32);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    tr.unit = i as u32;
                    let t = Instant::now();
                    let out = catch_unwind(AssertUnwindSafe(|| traced_cell(&cells[i], &mut tr)));
                    // The unit's own span: the parent of its layer spans.
                    let dur = t.elapsed();
                    tr.record("bench.unit", t, dur);
                    let ms = dur.as_secs_f64() * 1e3;
                    let (unit, counts) =
                        out.unwrap_or_else(|_| (Unit::panicked(), Counts::default()));
                    done.lock()
                        .expect("no worker panics while holding the result lock")
                        .push((i, unit, counts, ms));
                }
                recorded
                    .lock()
                    .expect("no worker panics while holding the span lock")
                    .append(&mut tr.spans);
            });
        }
    });
    let wall = t0.elapsed();
    let mut done = done.into_inner().expect("workers joined");
    done.sort_by_key(|d| d.0);
    let mut counts = Counts::default();
    for d in &done {
        counts.add(&d.2);
    }
    spans.append(&mut recorded.into_inner().expect("workers joined"));
    let served = served_since_arm();
    disarm(&dir);
    TracedRound {
        wall,
        units: done.iter().map(|d| d.1).collect(),
        unit_ms: done.iter().map(|d| d.3).collect(),
        counts,
        served,
    }
}

/// Write the spans as tab-separated lines (`round unit worker layer
/// start_ns dur_ns`).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "round\tunit\tworker\tlayer\tstart_ns\tdur_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.round, s.unit, s.worker, s.layer, s.start_ns, s.dur_ns
        )?;
    }
    out.flush()
}
