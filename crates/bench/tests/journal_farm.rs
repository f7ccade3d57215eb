//! Cell-farm differential tests: concurrent-writer shards, io-fault
//! degradation, and generation GC atomicity.
//!
//! The load-bearing invariants:
//!
//! 1. **Merge**: writers append to private shards; replay merges every
//!    shard of the current generation and dedupes by key, so a fleet of
//!    processes collectively only ever simulates new cells.
//! 2. **Degradation**: under injected io faults the journal disarms
//!    itself; the run completes with byte-identical figures and the
//!    surviving on-disk prefix stays replayable — never quarantined.
//! 3. **GC atomicity**: `gc` commits a compacted generation with one
//!    atomic rename; killed at *any* io operation it leaves a store that
//!    replays the full live set, and the `gc.lock` is never left held.
//! 4. **Foreign records**: records of removed engine modes are skipped,
//!    never served, never mistaken for corruption, and dropped by GC.
//!
//! Journal/cache/fault state is process-global: tests serialize on
//! [`LOCK`]; "process death" is [`journal::set_dir`] + [`simcache::clear`]
//! (a re-armed journal opens a fresh shard, exactly like a new process).

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use tint_bench::figures::{fig10, FigOpts};
use tint_bench::hostfault::{self, FaultMode, HostFaultPlan, IO_ABORT_MARKER};
use tint_bench::journal;
use tint_bench::lockfile::Lockfile;
use tint_bench::runner::{reset_fault_counters, set_cell_retries, set_jobs, ExpResult};
use tint_bench::simcache::{self, CellKey};
use tint_spmd::RunMetrics;
use tint_workloads::PinConfig;
use tintmalloc::colors::ColorScheme;

/// Serializes tests that touch the process-global journal/cache/counters.
static LOCK: Mutex<()> = Mutex::new(());

fn quick(scale: f64) -> FigOpts {
    FigOpts {
        reps: 2,
        scale,
        csv: false,
    }
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tint-farm-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn isolated<T>(f: impl FnOnce() -> T) -> T {
    let cache_was = simcache::enabled();
    simcache::clear();
    simcache::set_enabled(true);
    journal::set_dir(None);
    hostfault::set_plan(None);
    hostfault::set_io_abort_at(None);
    reset_fault_counters();
    set_cell_retries(None);
    set_jobs(1);
    let out = f();
    set_jobs(0);
    set_cell_retries(None);
    hostfault::set_plan(None);
    hostfault::set_io_abort_at(None);
    reset_fault_counters();
    journal::set_dir(None);
    simcache::set_enabled(cache_was);
    simcache::clear();
    out
}

/// A synthetic, decodable cell for direct-append tests.
fn cell(i: u64) -> (CellKey, ExpResult) {
    let key = CellKey {
        fingerprint: 0xFA43_0000 + i,
        scheme: ColorScheme::MemLlc,
        pin: PinConfig::T8N2,
        seed: i,
    };
    let r = ExpResult {
        metrics: RunMetrics {
            threads: 2,
            runtime: 1000 + i,
            thread_runtime: vec![500 + i, 500],
            thread_idle: vec![1, 2],
            serial_cycles: 7,
            parallel_sections: 1,
        },
        remote_fraction: 0.5,
        llc_interference: i,
        row_hit_rate: 0.75,
        pages_moved: 0,
        page_faults: 3,
        fault_cycles: 4,
        l3_miss_rate: 0.1,
        mean_latency: 100.0,
        color_list_moves: 2,
        poisoned: false,
    };
    (key, r)
}

/// Every shard file in `dir`'s current store generation, sorted.
fn shard_paths(dir: &Path) -> Vec<PathBuf> {
    let Some((_, gen_dir)) = journal::current_generation(dir) else {
        return Vec::new();
    };
    let mut v: Vec<PathBuf> = std::fs::read_dir(gen_dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "jnl"))
        .collect();
    v.sort();
    v
}

/// "Process death" + fresh arm at `dir`.
fn rebirth(dir: &Path) {
    journal::set_dir(Some(dir));
    simcache::clear();
}

// ---------------------------------------------------------------------------
// 1. Concurrent-writer shards merge; the farm only simulates new cells
// ---------------------------------------------------------------------------

#[test]
fn two_writers_merge_and_a_third_run_simulates_nothing() {
    let _g = LOCK.lock().unwrap();
    let dir = scratch("merge");
    isolated(|| {
        // Writer A: fig10 at scale 0.02.
        let opts_a = quick(0.02);
        journal::set_dir(Some(&dir));
        journal::replay();
        let out_a = opts_a.render(&fig10(&opts_a));
        journal::flush();
        let (_, appended_a, _) = journal::counters();
        assert!(appended_a > 0);

        // Writer B: a different cell population (scale 0.03) lands in its
        // own shard — B never rewrites A's shard.
        let opts_b = quick(0.03);
        rebirth(&dir);
        journal::replay();
        let out_b = opts_b.render(&fig10(&opts_b));
        journal::flush();
        let (_, appended_b, _) = journal::counters();
        assert!(appended_b > 0, "scale 0.03 cells are new");
        assert_eq!(shard_paths(&dir).len(), 2, "two writers, two shards");

        // "Third process": the merged farm serves every cell of both
        // writers; nothing is re-simulated.
        rebirth(&dir);
        let stats = journal::replay();
        assert_eq!(stats.shards, 2);
        assert_eq!(stats.replayed, appended_a + appended_b);
        assert_eq!(stats.quarantined, 0);
        let misses_before = simcache::stats().1;
        let again_a = opts_a.render(&fig10(&opts_a));
        let again_b = opts_b.render(&fig10(&opts_b));
        assert_eq!(
            simcache::stats().1 - misses_before,
            0,
            "the merged farm must serve every cell"
        );
        assert_eq!(again_a, out_a, "byte-identical across the farm");
        assert_eq!(again_b, out_b, "byte-identical across the farm");
        let (_, appended_c, _) = journal::counters();
        assert_eq!(appended_c, 0, "nothing new to journal");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// 2. io-fault degradation: disarm, never corrupt
// ---------------------------------------------------------------------------

#[test]
fn full_io_fault_rate_disarms_and_the_run_completes_identically() {
    let _g = LOCK.lock().unwrap();
    let dir = scratch("io1000");
    let opts = quick(0.02);
    isolated(|| {
        // Clean reference with no journal at all.
        let clean = opts.render(&fig10(&opts));
        simcache::clear();

        // io:1000 — every journal filesystem op fails. Arming the journal
        // must not panic anything; it disarms and the figure is identical.
        hostfault::set_plan(Some(HostFaultPlan {
            mode: FaultMode::Io,
            per_mille: 1000,
            seed: 42,
        }));
        journal::set_dir(Some(&dir));
        let stats = journal::replay();
        assert_eq!(stats.replayed, 0);
        assert!(!journal::enabled(), "the journal disarmed itself");
        assert!(journal::io_disarmed());
        let faulted = opts.render(&fig10(&opts));
        assert_eq!(faulted, clean, "figures are unaffected by journal loss");
        assert!(
            hostfault::io_injected() > 0,
            "the io schedule must actually fire"
        );
        // Worker panics are a different mode entirely.
        assert_eq!(hostfault::injected(), 0, "io mode never panics workers");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn low_rate_io_faults_never_corrupt_the_good_prefix() {
    let _g = LOCK.lock().unwrap();
    let dir = scratch("iolow");
    let opts = quick(0.02);
    isolated(|| {
        let clean = opts.render(&fig10(&opts));
        simcache::clear();

        // Arm the journal on a healthy disk first (store creation
        // succeeds), then inject faults into the append stream.
        journal::set_dir(Some(&dir));
        journal::replay();
        hostfault::set_plan(Some(HostFaultPlan {
            mode: FaultMode::Io,
            per_mille: 300,
            seed: 7,
        }));
        let faulted = opts.render(&fig10(&opts));
        journal::flush();
        assert_eq!(faulted, clean, "io faults never reach the figures");
        assert!(hostfault::io_injected() > 0, "the schedule must fire");

        // Whatever survived on disk is a *good prefix*: a healthy process
        // replays it without quarantine and completes the figure exactly.
        hostfault::set_plan(None);
        rebirth(&dir);
        let stats = journal::replay();
        assert_eq!(
            stats.quarantined, 0,
            "failed appends must never corrupt a shard mid-stream"
        );
        let resumed = opts.render(&fig10(&opts));
        assert_eq!(resumed, clean);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// 3. Generation GC: compaction, atomicity under kill, locking
// ---------------------------------------------------------------------------

#[test]
fn gc_compacts_duplicates_across_shards_and_preserves_every_cell() {
    let _g = LOCK.lock().unwrap();
    let dir = scratch("gc");
    isolated(|| {
        // Writer A: keys 0..10.
        journal::set_dir(Some(&dir));
        for i in 0..10 {
            let (k, r) = cell(i);
            journal::append(&k, &r);
        }
        journal::flush();
        // Writer B: keys 0..15 — 10 duplicates land in a second shard
        // (direct appends model a writer that raced A and re-simulated).
        rebirth(&dir);
        for i in 0..15 {
            let (k, r) = cell(i);
            journal::append(&k, &r);
        }
        journal::flush();
        assert_eq!(shard_paths(&dir).len(), 2);

        let stats = journal::gc().expect("gc succeeds");
        assert_eq!(stats.live_cells, 15);
        assert_eq!(stats.shards_merged, 2);
        assert_eq!(stats.quarantined, 0);
        assert_eq!(stats.generation, 2);
        assert!(
            stats.bytes_after < stats.bytes_before,
            "dropping 10 duplicate records must shrink the store \
             ({} -> {})",
            stats.bytes_before,
            stats.bytes_after
        );
        // The old generation is gone; one compacted shard remains.
        let root = journal::v2_root(&dir);
        assert!(!root.join("gen-00000001").exists());
        Lockfile::acquire(&root.join(journal::GC_LOCK)).expect("lock released");
        assert_eq!(shard_paths(&dir).len(), 1);

        // The compacted store serves everything.
        rebirth(&dir);
        let replayed = journal::replay();
        assert_eq!(replayed.replayed, 15);
        assert_eq!(replayed.shards, 1);
        assert_eq!(replayed.quarantined, 0);
        for i in 0..15 {
            assert!(simcache::lookup(&cell(i).0).is_some(), "key {i} survives");
        }

        // Post-GC appends open a shard in the *new* generation.
        let (k, r) = cell(99);
        journal::append(&k, &r);
        journal::flush();
        assert_eq!(shard_paths(&dir).len(), 2, "fresh shard in generation 2");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_killed_at_every_io_op_leaves_old_or_new_generation_intact() {
    let _g = LOCK.lock().unwrap();
    let dir = scratch("gckill");
    isolated(|| {
        journal::set_dir(Some(&dir));
        for i in 0..20 {
            let (k, r) = cell(i);
            journal::append(&k, &r);
        }
        journal::flush();
        let root = journal::v2_root(&dir);

        // Sweep the kill point over every io operation of the compaction:
        // op k panics (simulated SIGKILL at that filesystem step). After
        // each kill the store must still replay the full live set — the
        // commit is a single atomic rename, so there is no in-between.
        let mut kill_points = 0u64;
        let mut committed_at = None;
        for k in 1..=200u64 {
            journal::set_dir(Some(&dir)); // fresh "process" runs the GC
            hostfault::set_io_abort_at(Some(k));
            let res = std::panic::catch_unwind(journal::gc);
            hostfault::set_io_abort_at(None);
            match res {
                Ok(Ok(stats)) => {
                    // The kill point lies beyond the compaction's op
                    // count: GC ran to completion.
                    assert_eq!(stats.live_cells, 20);
                    committed_at = Some(k);
                    break;
                }
                Ok(Err(e)) => panic!("gc must only die by kill, got: {e}"),
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default();
                    assert!(
                        msg.contains(IO_ABORT_MARKER),
                        "only the injected kill may panic, got: {msg}"
                    );
                    kill_points += 1;
                }
            }
            if let Err(e) = Lockfile::acquire(&root.join(journal::GC_LOCK)) {
                panic!("kill point {k}: the gc lock must never stay held: {e}");
            }
            rebirth(&dir);
            let stats = journal::replay();
            assert_eq!(
                stats.replayed, 20,
                "kill point {k}: the store must replay the full live set"
            );
            assert_eq!(stats.quarantined, 0, "kill point {k}: no corruption");
        }
        let committed_at = committed_at.expect("gc eventually runs clean");
        assert!(
            kill_points >= 20,
            "the sweep must cover >= 20 kill points (got {kill_points}, \
             committed at {committed_at})"
        );

        // After the clean commit: exactly one generation, fully intact,
        // and no stray tmp build dirs from the killed attempts.
        let names: Vec<String> = std::fs::read_dir(&root)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().all(|n| !n.contains(".tmp.")),
            "stray GC build dirs must be cleaned up: {names:?}"
        );
        rebirth(&dir);
        let final_stats = journal::replay();
        assert_eq!(final_stats.replayed, 20);
        assert_eq!(final_stats.shards, 1, "compacted into one shard");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_refuses_a_live_lock_and_takes_over_a_stale_one() {
    let _g = LOCK.lock().unwrap();
    let dir = scratch("gclock");
    isolated(|| {
        journal::set_dir(Some(&dir));
        for i in 0..3 {
            let (k, r) = cell(i);
            journal::append(&k, &r);
        }
        journal::flush();
        let lock = journal::v2_root(&dir).join(journal::GC_LOCK);

        // A live holder makes gc fail fast, store untouched.
        let held = Lockfile::acquire(&lock).unwrap();
        let err = journal::gc().expect_err("live lock must refuse");
        assert!(err.contains("held by another holder"), "{err}");
        assert!(journal::v2_root(&dir).join("gen-00000001").exists());
        drop(held);

        // A leftover lock file naming a dead holder does not block.
        let dead_pid = std::process::Command::new("true")
            .spawn()
            .map(|mut c| {
                let pid = c.id();
                let _ = c.wait();
                pid
            })
            .unwrap();
        std::fs::write(&lock, format!("{dead_pid}\n")).unwrap();
        let stats = journal::gc().expect("a dead holder's lock file does not block");
        assert_eq!(stats.live_cells, 3);
        Lockfile::acquire(&lock).expect("lock released after gc");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// 4. Records of removed engine modes are foreign, not corrupt
// ---------------------------------------------------------------------------

/// Byte offset of the mode byte in a record payload: it follows the
/// fingerprint (u64), the scheme code (u8) and the pin code (u8).
const MODE_BYTE: usize = 10;

/// Split a shard into its framed `(len | crc | payload)` payloads.
fn payloads(shard: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut at = 8; // past the shard magic
    while at < shard.len() {
        let len = u32::from_le_bytes(shard[at..at + 4].try_into().unwrap()) as usize;
        out.push(shard[at + 8..at + 8 + len].to_vec());
        at += 8 + len;
    }
    out
}

/// Frame `payload` with its mode byte set to `mode`, as a journal that
/// still had the reference (1) and sampled (2) engine modes wrote it.
fn framed_with_mode(mut payload: Vec<u8>, mode: u8) -> Vec<u8> {
    payload[MODE_BYTE] = mode;
    let mut e = (payload.len() as u32).to_le_bytes().to_vec();
    e.extend_from_slice(&journal::crc32(&payload).to_le_bytes());
    e.extend_from_slice(&payload);
    e
}

#[test]
fn removed_engine_mode_records_are_foreign_not_corrupt() {
    let _g = LOCK.lock().unwrap();
    let dir = scratch("foreign");
    isolated(|| {
        // Current-format records: cell 0, cells 1 and 2, and a cell-0 key
        // carrying a different result (the decoy a foreign record must
        // never shadow the real cell with).
        let mut decoy = cell(0).1;
        decoy.metrics.runtime += 1;
        journal::set_dir(Some(&dir));
        for (k, r) in [cell(0), cell(1), cell(2), (cell(0).0, decoy)] {
            journal::append(&k, &r);
        }
        journal::flush();
        let shard = shard_paths(&dir).pop().expect("one shard");
        let p = payloads(&std::fs::read(&shard).unwrap());
        assert_eq!(p.len(), 4);
        assert!(
            p.iter().all(|x| x[MODE_BYTE] == 0),
            "the engine writes mode 0"
        );

        // Rewrite the shard in the parent format: cell 0 in mode 0,
        // cell 1 in mode 1, cell 2 and the decoy in mode 2.
        let mut bytes = b"TINTJNL2".to_vec();
        for (payload, mode) in p.into_iter().zip([0u8, 1, 2, 2]) {
            bytes.extend(framed_with_mode(payload, mode));
        }
        std::fs::write(&shard, &bytes).unwrap();

        rebirth(&dir);
        let stats = journal::replay();
        assert_eq!(stats.replayed, 1, "only the mode-0 cell is replayed");
        assert_eq!(stats.foreign, 3);
        assert_eq!(stats.quarantined, 0, "a foreign record is not corruption");
        assert_eq!(stats.shards, 1);
        assert!(shard.exists(), "the shard stays in place");
        assert_eq!(simcache::lookup(&cell(0).0), Some(cell(0).1));
        assert_eq!(simcache::lookup(&cell(1).0), None);
        assert_eq!(simcache::lookup(&cell(2).0), None);

        let gc = journal::gc().expect("gc succeeds");
        assert_eq!(gc.live_cells, 1);
        assert_eq!(gc.foreign_dropped, 3);
        assert_eq!(gc.quarantined, 0);
        rebirth(&dir);
        let stats = journal::replay();
        assert_eq!(
            (stats.replayed, stats.foreign),
            (1, 0),
            "GC kept only cell 0"
        );
        assert_eq!(simcache::lookup(&cell(0).0), Some(cell(0).1));
        let corrupt = std::fs::read_dir(journal::v2_root(&dir))
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".corrupt"))
            .count();
        assert_eq!(corrupt, 0, "nothing was quarantined");
    });
    let _ = std::fs::remove_dir_all(&dir);
}
