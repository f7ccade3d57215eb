//! The workloads, their fixed cell lists, and one untraced round.
//!
//! A *round* is a workload's whole fixed work, run cold: every round arms
//! the journal in a fresh empty directory and clears the cell cache, so no
//! result can be served from either. Rounds run through the public
//! harness entry [`tint_bench::run_cells`]. README.md says why each
//! workload was chosen.

use crate::digest;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tint_bench::{journal, run_cells, simcache, CellSpec};
use tint_workloads::lbm::Lbm;
use tint_workloads::traits::Scale;
use tint_workloads::{all_benchmarks, PinConfig};
use tintmalloc::prelude::*;

/// Simulated cycles of the seven lbm-stream cells at seed 1: the pinned
/// `probe:lbm` witness.
pub const LBM_SEED1_CYCLES: u64 = 25_652_874;

/// The matrix schemes in figure order (buddy, BPM, MEM+LLC, then the four
/// "other" schemes Fig. 11 picks the best of).
pub(crate) const MATRIX_SCHEMES: [ColorScheme; 7] = [
    ColorScheme::Buddy,
    ColorScheme::Bpm,
    ColorScheme::MemLlc,
    ColorScheme::LlcOnly,
    ColorScheme::MemOnly,
    ColorScheme::MemLlcPart,
    ColorScheme::LlcMemPart,
];

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// lbm at 16t4n under the seven matrix schemes, one worker.
    LbmStream,
    /// The fig11/fig12 matrix at 16t4n (one repetition), two workers.
    FigMatrix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::LbmStream, Workload::FigMatrix];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LbmStream => "lbm-stream",
            Workload::FigMatrix => "fig-matrix",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host worker threads the workload's executor uses.
    pub fn workers(self) -> usize {
        match self {
            Workload::LbmStream => 1,
            Workload::FigMatrix => 2,
        }
    }

    /// The simulated programs.
    pub fn programs(self) -> Vec<Box<dyn tint_workloads::Workload>> {
        match self {
            Workload::LbmStream => vec![Box::new(Lbm::new(Scale(1.0)))],
            Workload::FigMatrix => all_benchmarks(Scale(1.0)),
        }
    }
}

/// The flattened cell list, in figure order (program → scheme), all at
/// 16t4n with repetition seed `seed`.
pub(crate) fn cell_list(
    programs: &[Box<dyn tint_workloads::Workload>],
    seed: u64,
) -> Vec<CellSpec<'_>> {
    programs
        .iter()
        .flat_map(|p| {
            MATRIX_SCHEMES.map(|scheme| CellSpec {
                workload: p.as_ref(),
                scheme,
                pin: PinConfig::T16N4,
                seed,
            })
        })
        .collect()
}

/// One cell's checked output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unit {
    /// Bit-exact digest of every output field.
    pub digest: u64,
    /// Simulated cycles (the cell's runtime).
    pub sim_cycles: u64,
    /// False when the cell panicked or came back poisoned.
    pub ok: bool,
}

impl Unit {
    /// The sentinel for a cell that panicked.
    pub(crate) fn panicked() -> Self {
        Self {
            digest: 0,
            sim_cycles: 0,
            ok: false,
        }
    }
}

/// One untraced round.
#[derive(Debug, Clone)]
pub struct Round {
    /// Host time of the fixed work, set-up excluded.
    pub wall: Duration,
    /// Cells in canonical order.
    pub units: Vec<Unit>,
    /// Results served by the cell cache or the journal (must be 0).
    pub served: u64,
}

impl Round {
    /// Digest of the whole round.
    pub fn digest(&self) -> u64 {
        digest::combine(self.units.iter().map(|u| u.digest))
    }

    /// Simulated cycles of the whole round.
    pub fn sim_cycles(&self) -> u64 {
        self.units.iter().map(|u| u.sim_cycles).sum()
    }
}

/// Results the cell cache or the journal served since [`set_up`].
pub(crate) fn served_since_arm() -> u64 {
    let (cache_hits, _) = simcache::stats();
    let (journal_hits, _, replayed) = journal::counters();
    cache_hits + journal_hits + replayed
}

/// Disarm the journal and delete the round's directory.
pub(crate) fn disarm(dir: &Path) {
    journal::set_dir(None);
    simcache::clear();
    // Best effort: a leftover directory only costs disk space in the
    // benchmark's own work area, which the run removes as a whole.
    let _ = std::fs::remove_dir_all(dir);
}

/// A round's set-up, its cold start: a fresh empty journal directory
/// (`work/round-<round>`) armed and replayed, an empty cell cache, and the
/// programs its cells borrow. Returns the journal directory and the
/// programs.
pub(crate) fn set_up(
    w: Workload,
    work: &Path,
    round: usize,
) -> (PathBuf, Vec<Box<dyn tint_workloads::Workload>>) {
    let dir = work.join(format!("round-{round}"));
    std::fs::create_dir_all(&dir).expect("benchmark work directory is writable");
    journal::set_dir(Some(&dir));
    let replayed = journal::replay().replayed;
    assert_eq!(replayed, 0, "a fresh journal directory replays nothing");
    simcache::clear();
    simcache::set_enabled(true);
    (dir, w.programs())
}

/// Set up round 0 exactly as [`run_round`] does, stop where its first
/// cell would begin, and call `ready`; then disarm. A set-up probe
/// process runs this and nothing else (see `run::setup_seconds`).
pub fn probe_setup(w: Workload, seed: u64, work: &Path, ready: impl FnOnce()) {
    let (dir, programs) = set_up(w, work, 0);
    let cells = cell_list(&programs, seed);
    std::hint::black_box(&cells);
    ready();
    disarm(&dir);
}

/// Run one untraced round of `w`.
pub fn run_round(w: Workload, seed: u64, work: &Path, round: usize) -> Round {
    let (dir, programs) = set_up(w, work, round);
    let cells = cell_list(&programs, seed);
    let t0 = Instant::now();
    let results = run_cells(&cells, w.workers());
    let wall = t0.elapsed();
    let units = results
        .iter()
        .map(|r| Unit {
            digest: digest::exp_result(r),
            sim_cycles: r.metrics.runtime,
            ok: !r.poisoned,
        })
        .collect();
    let served = served_since_arm();
    disarm(&dir);
    Round {
        wall,
        units,
        served,
    }
}

/// A round's pinned output: its digest and simulated cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinned {
    /// Round digest.
    pub digest: u64,
    /// Round simulated cycles.
    pub sim_cycles: u64,
}

/// The pinned outputs in `pinned.txt` (`workload seed digest cycles`).
pub fn pinned(w: Workload, seed: u64) -> Option<Pinned> {
    include_str!("../pinned.txt")
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .find_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
            [name, s, digest, cycles] if name == w.name() && s.parse() == Ok(seed) => {
                Some(Pinned {
                    digest: digest
                        .strip_prefix("0x")
                        .and_then(|h| u64::from_str_radix(h, 16).ok())
                        .expect("pinned digest is 0x-prefixed hex"),
                    sim_cycles: cycles.parse().expect("pinned cycles are a whole number"),
                })
            }
            _ => None,
        })
}

/// Cells attempted and failed over `rounds`, with one line per problem.
///
/// A cell fails when it panicked or was poisoned, when its digest differs
/// from the same cell in the first round, or when its round was served by
/// the cache or journal, misses the pinned digest or cycles of this seed,
/// or (lbm-stream, seed 1) misses the `probe:lbm` cycle witness.
pub fn judge(w: Workload, seed: u64, rounds: &[Round]) -> (u64, u64, Vec<String>) {
    let pin = pinned(w, seed);
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let first = rounds.first().map(|r| r.units.clone()).unwrap_or_default();
    for (i, r) in rounds.iter().enumerate() {
        attempted += r.units.len() as u64;
        let mut whole_round = None;
        if r.served > 0 {
            whole_round = Some(format!("{} results served by cache/journal", r.served));
        } else if let Some(p) = pin.filter(|p| *p != pinned_of(r)) {
            whole_round = Some(format!(
                "digest {:#018x} / {} cycles, pinned {:#018x} / {}",
                r.digest(),
                r.sim_cycles(),
                p.digest,
                p.sim_cycles
            ));
        } else if w == Workload::LbmStream && seed == 1 && r.sim_cycles() != LBM_SEED1_CYCLES {
            whole_round = Some(format!(
                "{} cycles, probe:lbm witness {LBM_SEED1_CYCLES}",
                r.sim_cycles()
            ));
        }
        if let Some(why) = whole_round {
            failed += r.units.len() as u64;
            problems.push(format!("round {i}: {why}"));
            continue;
        }
        for (j, u) in r.units.iter().enumerate() {
            if !u.ok || first.get(j) != Some(u) {
                failed += 1;
                problems.push(format!(
                    "round {i} unit {j}: failed or differs from round 0"
                ));
            }
        }
    }
    (attempted, failed, problems)
}

fn pinned_of(r: &Round) -> Pinned {
    Pinned {
        digest: r.digest(),
        sim_cycles: r.sim_cycles(),
    }
}
