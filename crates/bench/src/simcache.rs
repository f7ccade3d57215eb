//! Content-addressed simulation cell cache.
//!
//! Every figure in the reproduction is assembled from deterministic
//! *cells*: one `(workload, scheme, pinning, seed)` simulation on a fresh
//! machine. The same cells recur across figures — the fig13/fig14 sweep is
//! a strict subset of the fig11 matrix, `probe` re-runs matrix cells,
//! `repro fig13 fig14` used to run the whole sweep twice — so the runner
//! memoizes [`ExpResult`]s here, keyed by the *content* of the cell:
//!
//! * the workload's parameter fingerprint
//!   ([`tint_workloads::Workload::fingerprint`]), which covers the
//!   benchmark identity and every size/iteration parameter — `--scale` is
//!   folded in through the scaled parameter values themselves;
//! * the [`ColorScheme`] and [`PinConfig`];
//! * the repetition seed (each of the paper's repetitions is a distinct
//!   cell: the seed jitters the boot-time physical layout and the
//!   workloads' random streams, so seeds must never alias).
//!
//! Correctness rests on one invariant, asserted end-to-end by
//! `tests/cell_cache.rs`: cells are bit-deterministic, so serving a cached
//! result is indistinguishable from re-simulating. Figure output is
//! byte-identical with the cache on or off.
//!
//! The cache is process-global (figures within one `repro` invocation share
//! it; nothing persists across processes) and thread-safe (the matrix
//! executor fills it from worker threads). `TINT_SIM_CACHE=0` disables it;
//! tests can flip it programmatically via [`set_enabled`].

use crate::runner::ExpResult;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use tint_workloads::{PinConfig, Workload};
use tintmalloc::colors::ColorScheme;

/// Content-address of one simulation cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Workload parameter fingerprint (benchmark identity + all sizes).
    pub fingerprint: u64,
    /// Coloring policy applied to the thread team.
    pub scheme: ColorScheme,
    /// Thread→core pinning configuration.
    pub pin: PinConfig,
    /// Repetition seed (boot noise + workload random streams).
    pub seed: u64,
}

impl CellKey {
    /// The key for running `workload` under `(scheme, pin, seed)`.
    pub fn of(workload: &dyn Workload, scheme: ColorScheme, pin: PinConfig, seed: u64) -> Self {
        Self {
            fingerprint: workload.fingerprint(),
            scheme,
            pin,
            seed,
        }
    }
}

static CACHE: OnceLock<Mutex<HashMap<CellKey, ExpResult>>> = OnceLock::new();
static ENABLED: OnceLock<AtomicBool> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

// Every lock below absorbs poisoning: a worker panic caught by the
// executor's `catch_unwind` while this mutex is held must not cascade
// panics into the surviving workers — the map holds plain completed
// results, valid regardless of where the panicking worker stopped.
fn cache() -> &'static Mutex<HashMap<CellKey, ExpResult>> {
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn enabled_flag() -> &'static AtomicBool {
    ENABLED.get_or_init(|| {
        let off = std::env::var_os("TINT_SIM_CACHE").is_some_and(|v| v == "0");
        AtomicBool::new(!off)
    })
}

/// Is the cell cache on? Defaults to on; `TINT_SIM_CACHE=0` (read once, at
/// first use) or [`set_enabled`] turn it off.
pub fn enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Programmatically enable/disable the cache (tests; overrides the env).
pub fn set_enabled(on: bool) {
    enabled_flag().store(on, Ordering::Relaxed);
}

/// Look up a cell. `None` when the cache is disabled or the cell has not
/// been simulated yet. Does **not** touch the hit/miss counters — the
/// executor accounts for served-vs-simulated cells itself (an in-batch
/// duplicate is a hit even though this probe missed).
pub fn lookup(key: &CellKey) -> Option<ExpResult> {
    if !enabled() {
        return None;
    }
    cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(key)
        .cloned()
}

/// Store a freshly simulated cell (no-op when disabled).
pub fn insert(key: CellKey, result: &ExpResult) {
    if enabled() {
        cache()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, result.clone());
    }
}

/// Store a batch of cells under one lock acquisition (no-op when
/// disabled). The journal replay path uses this: a farm replay can carry
/// thousands of cells, and taking the cache lock per cell would contend
/// with worker threads already simulating.
pub fn insert_many<'a, I>(items: I)
where
    I: IntoIterator<Item = (CellKey, &'a ExpResult)>,
{
    if !enabled() {
        return;
    }
    let mut map = cache().lock().unwrap_or_else(|e| e.into_inner());
    for (k, v) in items {
        map.insert(k, v.clone());
    }
}

/// Count `n` cells served without simulation (cache or in-batch dedup).
pub fn note_hits(n: u64) {
    HITS.fetch_add(n, Ordering::Relaxed);
}

/// Count `n` cells that had to be simulated.
pub fn note_misses(n: u64) {
    MISSES.fetch_add(n, Ordering::Relaxed);
}

/// Process-lifetime `(hits, misses)` counters. `repro` snapshots these
/// around each command to report per-command cache traffic.
pub fn stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

/// Number of cached cells (tests/diagnostics).
pub fn len() -> usize {
    cache().lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// Drop every cached cell and zero the counters (tests).
pub fn clear() {
    cache().lock().unwrap_or_else(|e| e.into_inner()).clear();
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}
