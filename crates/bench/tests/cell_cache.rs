//! Differential tests for the content-addressed cell cache and the
//! flattened matrix executor.
//!
//! The load-bearing invariant: **figure output is byte-identical** with the
//! cache on or off and at any `--jobs` count. Cells are bit-deterministic
//! per `(workload fingerprint, scheme, pin, seed)`, so serving a cached
//! result must be indistinguishable from re-simulating it — these tests
//! render whole figure tables both ways and compare the strings.
//!
//! The cache and its hit/miss counters are process-global, and Rust runs
//! the `#[test]`s of one binary concurrently, so every test serializes on
//! [`LOCK`] and restores the cache state it found.

use std::sync::Mutex;
use tint_bench::figures::{fig10, fig13_14, run_matrix, FigOpts};
use tint_bench::runner::{run_cells, set_jobs, CellSpec};
use tint_bench::simcache::{self, CellKey};
use tint_workloads::traits::Scale;
use tint_workloads::{all_benchmarks, PinConfig, Synthetic, Workload};
use tintmalloc::colors::ColorScheme;

/// Serializes tests that touch the process-global cache/counters/jobs.
static LOCK: Mutex<()> = Mutex::new(());

/// Small-but-nontrivial options: 2 seeds so rep merging is exercised, a
/// scale large enough that workloads don't degenerate to empty loops.
fn quick() -> FigOpts {
    FigOpts {
        reps: 2,
        scale: 0.02,
        csv: false,
    }
}

/// Run `f` with the cache forced to `on`, starting from an empty cache,
/// restoring the previous enabled state afterwards.
fn with_cache<T>(on: bool, f: impl FnOnce() -> T) -> T {
    let was = simcache::enabled();
    simcache::clear();
    simcache::set_enabled(on);
    let out = f();
    simcache::set_enabled(was);
    simcache::clear();
    out
}

// ---------------------------------------------------------------------------
// Byte-identity: cache on vs cache off
// ---------------------------------------------------------------------------

#[test]
fn figures_byte_identical_cache_on_vs_off() {
    let _g = LOCK.lock().unwrap();
    let opts = quick();
    let render = || {
        let mut s = String::new();
        s.push_str(&opts.render(&fig10(&opts)));
        let m = run_matrix(&opts, &[PinConfig::T16N4, PinConfig::T4N4]);
        for t in m.fig11().iter().chain(m.fig12().iter()) {
            s.push_str(&opts.render(t));
        }
        let (summary, lbm) = fig13_14(&opts);
        s.push_str(&opts.render(&summary));
        s.push_str(&opts.render(&lbm));
        s
    };
    let cached = with_cache(true, render);
    let uncached = with_cache(false, render);
    assert_eq!(
        cached, uncached,
        "rendered figures must be byte-identical with the cell cache on and off"
    );
}

// ---------------------------------------------------------------------------
// Byte-identity: jobs 1 vs jobs 4
// ---------------------------------------------------------------------------

#[test]
fn figures_byte_identical_jobs_1_vs_4() {
    let _g = LOCK.lock().unwrap();
    let opts = quick();
    // Cache off so both runs actually execute every cell through the
    // executor rather than the second run being served from memory.
    let render = |jobs: usize| {
        set_jobs(jobs);
        let mut s = String::new();
        s.push_str(&opts.render(&fig10(&opts)));
        let (summary, lbm) = fig13_14(&opts);
        s.push_str(&opts.render(&summary));
        s.push_str(&opts.render(&lbm));
        s
    };
    let (serial, fanned) = with_cache(false, || {
        let serial = render(1);
        let fanned = render(4);
        (serial, fanned)
    });
    set_jobs(0);
    assert_eq!(
        serial, fanned,
        "rendered figures must be byte-identical at --jobs 1 and --jobs 4"
    );
}

// ---------------------------------------------------------------------------
// Fingerprints and cell keys
// ---------------------------------------------------------------------------

#[test]
fn same_params_same_fingerprint() {
    let a = Synthetic::new(Scale(0.5));
    let b = Synthetic::new(Scale(0.5));
    assert_eq!(a.fingerprint(), b.fingerprint());
}

#[test]
fn different_params_different_fingerprint() {
    let a = Synthetic::new(Scale(0.5));
    let b = Synthetic::new(Scale(0.25));
    assert_ne!(
        a.fingerprint(),
        b.fingerprint(),
        "scale changes the parameter set, so the fingerprint must change"
    );
}

#[test]
fn all_benchmarks_have_distinct_fingerprints() {
    let benches = all_benchmarks(Scale(0.1));
    for (i, a) in benches.iter().enumerate() {
        for b in &benches[i + 1..] {
            assert_ne!(
                a.fingerprint(),
                b.fingerprint(),
                "{} and {} must not collide",
                a.name(),
                b.name()
            );
        }
    }
    // And the same benchmark at a different scale is a different cell.
    let rescaled = all_benchmarks(Scale(0.2));
    for (a, b) in benches.iter().zip(&rescaled) {
        assert_ne!(a.fingerprint(), b.fingerprint(), "{}", a.name());
    }
}

#[test]
fn seed_is_part_of_the_cell_key() {
    let w = Synthetic::new(Scale(0.1));
    let k1 = CellKey::of(&w, ColorScheme::Buddy, PinConfig::T16N4, 1);
    let k2 = CellKey::of(&w, ColorScheme::Buddy, PinConfig::T16N4, 2);
    assert_ne!(k1, k2, "each repetition seed must be a distinct cell");
    let k1_again = CellKey::of(&w, ColorScheme::Buddy, PinConfig::T16N4, 1);
    assert_eq!(k1, k1_again);
}

// ---------------------------------------------------------------------------
// Cross-figure reuse: fig13/fig14 after the fig11 matrix is all hits
// ---------------------------------------------------------------------------

#[test]
fn fig13_14_after_matrix_is_all_cache_hits() {
    let _g = LOCK.lock().unwrap();
    let opts = quick();
    with_cache(true, || {
        run_matrix(&opts, &[PinConfig::T16N4]);
        let (_, misses_before) = simcache::stats();
        fig13_14(&opts);
        let (hits, misses_after) = simcache::stats();
        assert_eq!(
            misses_after - misses_before,
            0,
            "every fig13/fig14 cell is in the fig11 matrix, so the sweep \
             must simulate nothing new"
        );
        assert!(hits > 0, "the sweep must have been served from the cache");
    });
}

// ---------------------------------------------------------------------------
// Executor accounting: in-batch duplicates are simulated once
// ---------------------------------------------------------------------------

#[test]
fn duplicate_cells_in_one_batch_simulate_once() {
    let _g = LOCK.lock().unwrap();
    let w = Synthetic::new(Scale(0.05));
    let spec = CellSpec {
        workload: &w,
        scheme: ColorScheme::Buddy,
        pin: PinConfig::T16N4,
        seed: 1,
    };
    with_cache(true, || {
        let results = run_cells(&[spec, spec, spec], 1);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        let (hits, misses) = simcache::stats();
        assert_eq!(misses, 1, "one unique cell content, one simulation");
        assert_eq!(hits, 2, "the two duplicates are served, not re-run");
    });
}
