//! Per-layer fixtures of the traced run: each times one public entry of
//! one crate on fixed, seeded inputs the benchmark builds itself.
//!
//! The access path is captured once through `System::access` on a stream
//! built from `tint_workloads::patterns` and translated with
//! `System::peek_translate`, then replayed through each lower entry on a
//! fresh instance of that layer. Every timed pass follows one untimed
//! warm-up pass of the same stream, and each figure is the median of
//! [`PASSES`] timed passes.

use crate::report::median;
use crate::workload::MATRIX_SCHEMES;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use tint_bench::simcache::{self, CellKey};
use tint_bench::{journal, ExpResult};
use tint_cache::{CacheHierarchy, HitLevel};
use tint_dram::DramSystem;
use tint_hw::pci::PciConfigSpace;
use tint_hw::rng::SplitMix64;
use tint_hw::types::PhysAddr;
use tint_kernel::{Kernel, KernelCosts};
use tint_mem::MemorySystem;
use tint_spmd::{Op, RunMetrics, SimThread};
use tint_workloads::patterns::{RandomTaps, Seq};
use tint_workloads::traits::Scale;
use tint_workloads::{all_benchmarks, PinConfig};
use tintmalloc::prelude::*;

/// Timed passes per replay (the median is reported).
const PASSES: usize = 3;
/// Per-thread region of the access stream: 1 MiB, so the 16 regions
/// (16 MiB) overflow the 12 MiB L3 and the stream reaches DRAM.
const STREAM_REGION: u64 = 1 << 20;
/// Random taps per thread after its two sequential sweeps.
const STREAM_TAPS: u64 = 4_096;
/// Cache-line stride of the sequential sweeps (the machine's line size).
const LINE: u64 = 128;
/// Per-thread region prefaulted by the fault fixture (512 pages).
const FAULT_REGION: u64 = 2 << 20;
/// Allocations in the malloc/free fixture.
const MALLOCS: usize = 20_000;
/// Tasks created and exited in the exit fixture.
const EXITS: usize = 64;
/// Pages past its color pair's supply that the exhaustion fixture's task
/// touches under `ExhaustionPolicy::NearestColor`.
const BORROWED_PAGES: u64 = 64;
/// Journal cells appended and replayed: the fig11 matrix (6 programs × 7
/// schemes) at 10 repetitions.
const JOURNAL_CELLS: u64 = 6 * 7 * 10;

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Median over `PASSES` timed passes of `pass`, after one untimed pass.
fn timed_passes(mut pass: impl FnMut() -> Duration) -> Duration {
    pass();
    let v = (0..PASSES).map(|_| ns(pass())).collect();
    Duration::from_nanos(median(v) as u64)
}

/// A booted opteron system with a 16t4n team colored under `scheme`.
fn team(scheme: ColorScheme) -> (System, Vec<SimThread>) {
    let mut sys = System::boot(MachineConfig::opteron_6128());
    let cores = PinConfig::T16N4.cores();
    let threads = SimThread::spawn_all(&mut sys, &cores);
    let plan = scheme.plan(sys.machine(), &cores);
    for (t, p) in threads.iter().zip(&plan) {
        sys.apply_colors(t.tid, p).expect("color plan applies");
    }
    (sys, threads)
}

/// Host ns per access of each access-path layer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AccessPath {
    /// `System::access` on resident pages, ns per access.
    pub core_ns: f64,
    /// `MemorySystem::access`, ns per access.
    pub mem_ns: f64,
    /// `CacheHierarchy::access`, ns per access.
    pub cache_ns: f64,
    /// `DramSystem::access` on the L3-miss substream, ns per access.
    pub dram_ns: f64,
}

/// Capture the access stream and replay it through each layer.
pub(crate) fn access_path(seed: u64) -> AccessPath {
    let (mut sys, threads) = team(ColorScheme::Buddy);
    let machine = sys.machine().clone();
    let mut streams: Vec<_> = threads
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let base = sys.malloc(t.tid, STREAM_REGION).expect("stream region");
            let seq = Seq::new(base, STREAM_REGION, LINE, 2, 0, 4);
            let taps = RandomTaps::new(
                base,
                STREAM_REGION,
                LINE,
                STREAM_TAPS,
                0,
                3,
                seed ^ i as u64,
            );
            seq.chain(taps)
        })
        .collect();
    // Interleave the threads one access at a time, as concurrent cores.
    let mut virt = Vec::new();
    loop {
        let before = virt.len();
        for (t, s) in threads.iter().zip(streams.iter_mut()) {
            if let Some(Op::Access { addr, rw }) =
                s.by_ref().find(|op| matches!(op, Op::Access { .. }))
            {
                virt.push((*t, addr, rw));
            }
        }
        if virt.len() == before {
            break;
        }
    }
    // Capture: the first pass faults every page in and fills the TLB.
    let cores = machine.topology.core_count();
    let mut clock = vec![0u64; cores];
    let mut phys = Vec::with_capacity(virt.len());
    for &(t, addr, rw) in &virt {
        let c = t.core.index();
        let r = sys
            .access(t.tid, addr, rw, clock[c])
            .expect("stream access");
        clock[c] += r.latency;
        let (core, pa) = sys
            .peek_translate(t.tid, addr)
            .expect("translation is TLB-resident after access");
        phys.push((core, pa, rw));
    }
    let ops = virt.len() as f64;
    let core = timed_passes(|| {
        let t0 = Instant::now();
        for &(t, addr, rw) in &virt {
            let c = t.core.index();
            let r = sys
                .access(t.tid, addr, rw, clock[c])
                .expect("resident access");
            clock[c] += black_box(r.latency);
        }
        t0.elapsed()
    });
    let mut mem = MemorySystem::new(machine.clone());
    let mut clock = vec![0u64; cores];
    let mem_t = timed_passes(|| {
        let t0 = Instant::now();
        for &(core, pa, rw) in &phys {
            let r = mem.access(core, pa, rw, clock[core.index()]);
            clock[core.index()] += black_box(r.latency);
        }
        t0.elapsed()
    });
    let mut hier = CacheHierarchy::new(&machine);
    let mut misses: Vec<(CoreId, PhysAddr, Rw)> = Vec::new();
    let cache_t = timed_passes(|| {
        misses.clear();
        let t0 = Instant::now();
        for &(core, pa, rw) in &phys {
            if black_box(hier.access(core, pa)).0 == HitLevel::Memory {
                misses.push((core, pa, rw));
            }
        }
        t0.elapsed()
    });
    let mut dram = DramSystem::new(machine.mapping, machine.dram);
    let mut clock = vec![0u64; cores];
    let dram_t = timed_passes(|| {
        let t0 = Instant::now();
        for &(core, pa, rw) in &misses {
            let r = dram.access(pa, rw, clock[core.index()]);
            clock[core.index()] += black_box(r.latency);
        }
        t0.elapsed()
    });
    assert!(!misses.is_empty(), "the stream overflows the L3");
    AccessPath {
        core_ns: ns(core) / ops,
        mem_ns: ns(mem_t) / ops,
        cache_ns: ns(cache_t) / ops,
        dram_ns: ns(dram_t) / misses.len() as f64,
    }
}

/// Host costs of the kernel side.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KernelSide {
    /// `System::prefault` per page, buddy allocation.
    pub fault_ns_buddy: f64,
    /// `System::prefault` per page, MEM+LLC coloring (Alg. 1/2).
    pub fault_ns_mem_llc: f64,
    /// `System::malloc` per call.
    pub malloc_ns: f64,
    /// `System::free` per call.
    pub free_ns: f64,
    /// `System::exit` per task, median.
    pub exit_us: f64,
    /// `System::check_invariants` on the faulted MEM+LLC system, median.
    pub check_invariants_ms: f64,
    /// Pages the exhaustion fixture's task got off its colors: an exact
    /// count (no matrix cell sets a borrowing exhaustion policy).
    pub off_color_allocs: u64,
}

/// Prefault a 2 MiB region per thread; returns ns per page.
fn prefault_team(sys: &mut System, threads: &[SimThread]) -> f64 {
    let regions: Vec<_> = threads
        .iter()
        .map(|t| {
            (
                t.tid,
                sys.malloc(t.tid, FAULT_REGION).expect("fault region"),
            )
        })
        .collect();
    let t0 = Instant::now();
    for &(tid, base) in &regions {
        sys.prefault(tid, base, FAULT_REGION).expect("prefault");
    }
    let pages = regions.len() as u64 * FAULT_REGION / tint_hw::types::PAGE_SIZE;
    ns(t0.elapsed()) / pages as f64
}

/// Time the kernel-side fixtures.
pub(crate) fn kernel_side(seed: u64) -> KernelSide {
    let (mut sys, threads) = team(ColorScheme::Buddy);
    let fault_ns_buddy = prefault_team(&mut sys, &threads);

    let tid = threads[0].tid;
    let mut rng = SplitMix64::new(seed);
    let sizes: Vec<u64> = (0..MALLOCS).map(|_| rng.gen_range_in(16, 16_385)).collect();
    let t0 = Instant::now();
    let mut addrs: Vec<VirtAddr> = sizes
        .iter()
        .map(|&s| sys.malloc(tid, s).expect("malloc"))
        .collect();
    let malloc_ns = ns(t0.elapsed()) / MALLOCS as f64;
    for i in (1..addrs.len()).rev() {
        addrs.swap(i, rng.gen_range(i as u64 + 1) as usize);
    }
    let t0 = Instant::now();
    for &a in &addrs {
        sys.free(tid, a).expect("free");
    }
    let free_ns = ns(t0.elapsed()) / MALLOCS as f64;

    let (mut sys, threads) = team(ColorScheme::MemLlc);
    let fault_ns_mem_llc = prefault_team(&mut sys, &threads);
    let checks = (0..PASSES)
        .map(|_| {
            let t0 = Instant::now();
            sys.check_invariants();
            ns(t0.elapsed()) / 1e6
        })
        .collect();
    let check_invariants_ms = median(checks);

    let exits = (0..EXITS)
        .map(|k| {
            let core = CoreId(k % 16);
            let tid = sys.spawn(core);
            let plan = ColorScheme::MemLlc.plan(sys.machine(), &[core]);
            sys.apply_colors(tid, &plan[0]).expect("color plan applies");
            let base = sys.malloc(tid, 256 << 10).expect("task region");
            sys.prefault(tid, base, 256 << 10).expect("prefault");
            let t0 = Instant::now();
            sys.exit(tid).expect("exit");
            ns(t0.elapsed()) / 1e3
        })
        .collect();

    // Exhaustion: a task colored to one (bank, LLC) pair of the tiny
    // machine faults in more pages than the pair holds, and borrows the
    // rest from the nearest colors.
    let mut sys = System::boot(MachineConfig::tiny());
    let len = (sys.machine().mapping.frames_per_color_pair() + BORROWED_PAGES)
        * tint_hw::types::PAGE_SIZE;
    let tid = sys.spawn(CoreId(0));
    sys.set_mem_color(tid, BankColor(0)).expect("bank color 0");
    sys.set_llc_color(tid, LlcColor(0)).expect("LLC color 0");
    sys.set_exhaustion_policy(tid, ExhaustionPolicy::NearestColor)
        .expect("exhaustion policy");
    let base = sys.malloc(tid, len).expect("exhaustion region");
    sys.prefault(tid, base, len)
        .expect("borrowing never fails here");
    let off_color_allocs = sys.kernel().stats().off_color_allocs;
    assert!(off_color_allocs > 0, "the fixture exhausts its color pair");

    KernelSide {
        fault_ns_buddy,
        fault_ns_mem_llc,
        malloc_ns,
        free_ns,
        exit_us: median(exits),
        check_invariants_ms,
        off_color_allocs,
    }
}

/// Median ms of `Kernel::boot_from_pci` and `MemorySystem::new` for the
/// machine every cell boots.
pub(crate) fn boot_parts() -> (f64, f64) {
    let machine = MachineConfig::opteron_6128();
    let pci = PciConfigSpace::programmed_by_bios(&machine.mapping);
    let kernel = (0..PASSES)
        .map(|_| {
            let t0 = Instant::now();
            let k = Kernel::boot_from_pci(&pci, machine.topology.clone(), KernelCosts::default())
                .expect("BIOS-programmed PCI space derives");
            let ms = ns(t0.elapsed()) / 1e6;
            drop(black_box(k));
            ms
        })
        .collect();
    let mem = (0..PASSES)
        .map(|_| {
            let t0 = Instant::now();
            let m = MemorySystem::new(machine.clone());
            let ms = ns(t0.elapsed()) / 1e6;
            drop(black_box(m));
            ms
        })
        .collect();
    (median(kernel), median(mem))
}

/// `(µs per journal::append, ms per journal::replay)` on a full matrix
/// store in a fresh directory under `work`.
pub(crate) fn journal_costs(work: &Path) -> (f64, f64) {
    let programs = all_benchmarks(Scale(1.0));
    let mut keys = Vec::new();
    for p in &programs {
        for scheme in MATRIX_SCHEMES {
            for seed in 1..=10 {
                keys.push(CellKey::of(p.as_ref(), scheme, PinConfig::T16N4, seed));
            }
        }
    }
    assert_eq!(keys.len() as u64, JOURNAL_CELLS);
    let mut metrics = RunMetrics::new(16);
    metrics.runtime = 1;
    let r = ExpResult {
        metrics,
        remote_fraction: 0.5,
        llc_interference: 1,
        row_hit_rate: 0.5,
        pages_moved: 1,
        page_faults: 1,
        fault_cycles: 1,
        l3_miss_rate: 0.5,
        mean_latency: 1.0,
        color_list_moves: 1,
        poisoned: false,
    };
    let (mut append, mut replay) = (Vec::new(), Vec::new());
    for pass in 0..PASSES {
        let dir = work.join(format!("journal-fixture-{pass}"));
        std::fs::create_dir_all(&dir).expect("benchmark work directory is writable");
        journal::set_dir(Some(&dir));
        journal::replay();
        let t0 = Instant::now();
        for k in &keys {
            journal::append(k, &r);
        }
        append.push(ns(t0.elapsed()) / 1e3 / JOURNAL_CELLS as f64);
        // Re-arming the same directory is what a fresh process sees.
        journal::set_dir(Some(&dir));
        simcache::clear();
        let t0 = Instant::now();
        let replayed = journal::replay().replayed;
        replay.push(ns(t0.elapsed()) / 1e6);
        assert_eq!(replayed, JOURNAL_CELLS, "replay finds every appended cell");
        journal::set_dir(None);
        simcache::clear();
        // Best effort, as for round directories.
        let _ = std::fs::remove_dir_all(&dir);
    }
    (median(append), median(replay))
}
