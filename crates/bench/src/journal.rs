//! Persistent, crash-safe, multi-process **cell farm**.
//!
//! The simcache ([`crate::simcache`]) makes cells free to reuse *within* a
//! process; this module makes completed cells survive the process — and,
//! since v2, survive *concurrent* processes. Every simulated cell is
//! appended to an on-disk journal as a self-delimiting, CRC-protected
//! record of its content key ([`CellKey`]) plus the full [`ExpResult`]. On
//! startup the store is replayed into the simcache, so a killed `repro`
//! run resumes by simulating only the cells it never finished, and a fleet
//! of `repro` processes sharing one journal directory collectively only
//! ever simulates new cells — cells are bit-deterministic per content key,
//! which is what makes serving a journaled result indistinguishable from
//! re-simulating.
//!
//! ## On-disk layout (version 2)
//!
//! ```text
//! <journal dir>/
//!   cells.v2/                 the store root
//!     gc.lock                 GC lock file (locked only while GC runs)
//!     gen-00000001/           a *generation*: a directory of shards
//!       <pid>-<nonce>.jnl     one append-only shard per writer process
//!     gen-00000002.tmp.<pid>  an uncommitted GC build (ignored by replay)
//!     <shard>.corrupt.<n>     quarantined corrupt shards (kept as evidence)
//! ```
//!
//! Each **shard** is owned by exactly one writer process: it is created
//! `O_CREAT|O_EXCL` under a pid+seeded-nonce name, so concurrent writers
//! never share a file and the append path needs no locks. A shard starts
//! with the magic `TINTJNL2` followed by framed entries:
//!
//! ```text
//! entry*:
//!   len:   u32 LE   payload length in bytes
//!   crc:   u32 LE   CRC-32 (IEEE) of the payload
//!   payload: len bytes — CellKey then ExpResult, little-endian fields
//! ```
//!
//! Replay scans every shard of the **current generation** (the
//! highest-numbered `gen-*` directory), merges them, and dedupes by
//! [`CellKey`]. Failure isolation is per shard, so one bad shard never
//! poisons its siblings:
//!
//! * **torn final write** — a shard ends before the last entry's declared
//!   length: the fragment is dropped *in memory only*. Foreign shards are
//!   never truncated or rewritten — a "torn tail" may be a live sibling's
//!   in-flight append. Dead tails are compacted away by GC.
//! * **mid-stream corruption** — a CRC mismatch, an insane length, or an
//!   undecodable payload with more data after it: that shard is
//!   quarantined (renamed to a unique `<name>.corrupt.<n>` in the store
//!   root, never clobbering a previous quarantine), its good prefix is
//!   rescued into this process's own shard, and replay continues with the
//!   other shards; the journal never panics the harness.
//! * **foreign record** — a well-formed record whose mode byte names an
//!   engine mode that has since been removed (1 = reference pipeline,
//!   2 = sampled engine): skipped and counted, never served. Its shard
//!   stays healthy; GC drops the record.
//!
//! ## Generations and GC
//!
//! Appends accumulate dead weight: superseded duplicates, dead torn
//! tails, shards of exited writers. [`gc`] (the `repro gc-journal`
//! command) compacts the store: it merges the current generation exactly
//! like replay, writes the live deduped cells into one fresh shard inside
//! a `gen-<N+1>.tmp.<pid>` build directory, fsyncs, and commits with a
//! **single atomic rename** to `gen-<N+1>` — so a crash at any point
//! leaves either the old or the new generation fully intact, and
//! concurrent readers of the old generation are unaffected. An advisory
//! lock on `gc.lock` (see [`crate::lockfile`]) keeps two GCs from racing;
//! the kernel drops it when its holder exits, so a killed GC never blocks
//! the next one. Old generations are removed only after the
//! commit rename.
//!
//! ## Fault tolerance (degradation contract)
//!
//! All journal write-path filesystem operations run under the seeded
//! [`crate::hostfault`] io shim (`TINT_HOST_FAULT=io:<permille>:<seed>`).
//! The journal **degrades gracefully**: a failed append repairs the entry
//! boundary (truncating its *own* shard back to the last good entry);
//! persistent failure (or an unusable journal directory) warns **once**,
//! disarms journaling, and the run completes correctly journal-less —
//! never a panic, never a corrupted good prefix. Figures are computed
//! from in-memory results and are unaffected.
//!
//! ## Activation
//!
//! The journal is inert until armed. The `repro` binary arms it at startup
//! ([`configure_default`]): `TINT_JOURNAL=0` (or empty) disables it,
//! `TINT_JOURNAL=<dir>` overrides the location, unset means
//! `.tint-journal/` in the working directory. Library tests arm a private
//! directory with [`set_dir`]. Replay requires the simcache (that is the
//! serving path): with `TINT_SIM_CACHE=0` the journal still records
//! completed cells but cannot serve them.
//!
//! Poisoned cells (worker panics — see [`crate::runner`]) are never
//! journaled: a resume retries them.

use crate::hostfault::{self, IoFault};
use crate::lockfile::Lockfile;
use crate::runner::ExpResult;
use crate::simcache::{self, CellKey};
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use tint_hw::rng::SplitMix64;
use tint_spmd::RunMetrics;
use tint_workloads::PinConfig;
use tintmalloc::colors::ColorScheme;

/// The v2 store root inside the journal directory.
pub const STORE_DIR: &str = "cells.v2";

/// The GC lockfile name inside the store root.
pub const GC_LOCK: &str = "gc.lock";

/// 8-byte v2 shard magic.
const SHARD_MAGIC: &[u8; 8] = b"TINTJNL2";

/// Upper bound on one entry's payload (a cell record is ~200 bytes; a
/// length beyond this is corruption, not a big record).
const MAX_ENTRY: u32 = 1 << 20;

/// Consecutive append failures before the journal disarms itself.
const MAX_IO_FAILURES: u8 = 3;

/// Record mode byte of every cell this engine writes.
const MODE_ENGINE: u8 = 0;

/// Mode byte of cells from the removed reference-pipeline mode. Replay
/// skips such records as foreign; they are well-formed, not corrupt.
const MODE_REFERENCE: u8 = 1;

/// Mode byte of cells from the removed sampled engine (estimates, never
/// exact results). Skipped as foreign, like [`MODE_REFERENCE`].
const MODE_SAMPLED: u8 = 2;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, in-tree (offline build: no crates)
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `data` — the per-entry integrity check.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Payload encoding (hand-rolled little-endian; no serde in the tree)
// ---------------------------------------------------------------------------

/// Stable wire code for a [`ColorScheme`] (declaration order; the wire
/// format must not depend on `ColorScheme::ALL`'s presentation order).
fn scheme_code(s: ColorScheme) -> u8 {
    match s {
        ColorScheme::Buddy => 0,
        ColorScheme::LegacyGlobal => 1,
        ColorScheme::LlcOnly => 2,
        ColorScheme::MemOnly => 3,
        ColorScheme::MemLlc => 4,
        ColorScheme::MemLlcPart => 5,
        ColorScheme::LlcMemPart => 6,
        ColorScheme::Bpm => 7,
        ColorScheme::Palloc => 8,
    }
}

fn scheme_from(code: u8) -> Option<ColorScheme> {
    Some(match code {
        0 => ColorScheme::Buddy,
        1 => ColorScheme::LegacyGlobal,
        2 => ColorScheme::LlcOnly,
        3 => ColorScheme::MemOnly,
        4 => ColorScheme::MemLlc,
        5 => ColorScheme::MemLlcPart,
        6 => ColorScheme::LlcMemPart,
        7 => ColorScheme::Bpm,
        8 => ColorScheme::Palloc,
        _ => return None,
    })
}

fn pin_code(p: PinConfig) -> u8 {
    match p {
        PinConfig::T16N4 => 0,
        PinConfig::T8N4 => 1,
        PinConfig::T8N2 => 2,
        PinConfig::T4N4 => 3,
        PinConfig::T4N1 => 4,
    }
}

fn pin_from(code: u8) -> Option<PinConfig> {
    Some(match code {
        0 => PinConfig::T16N4,
        1 => PinConfig::T8N4,
        2 => PinConfig::T8N2,
        3 => PinConfig::T4N4,
        4 => PinConfig::T4N1,
        _ => return None,
    })
}

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn vec_u64(&mut self, v: &[u64]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u64(x);
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.at..self.at + n)?;
        self.at += n;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }
    fn vec_u64(&mut self) -> Option<Vec<u64>> {
        let n = self.u32()? as usize;
        if n > 4096 {
            return None; // larger than any thread team: corruption
        }
        (0..n).map(|_| self.u64()).collect()
    }
}

/// Serialize one `(key, result)` cell record.
fn encode(key: &CellKey, r: &ExpResult) -> Vec<u8> {
    let mut e = Enc(Vec::with_capacity(192));
    e.u64(key.fingerprint);
    e.u8(scheme_code(key.scheme));
    e.u8(pin_code(key.pin));
    e.u8(MODE_ENGINE);
    e.u64(key.seed);
    let m = &r.metrics;
    e.u32(m.threads as u32);
    e.u64(m.runtime);
    e.vec_u64(&m.thread_runtime);
    e.vec_u64(&m.thread_idle);
    e.u64(m.serial_cycles);
    e.u32(m.parallel_sections as u32);
    e.f64(r.remote_fraction);
    e.u64(r.llc_interference);
    e.f64(r.row_hit_rate);
    e.u64(r.pages_moved);
    e.u64(r.page_faults);
    e.u64(r.fault_cycles);
    e.f64(r.l3_miss_rate);
    e.f64(r.mean_latency);
    e.u64(r.color_list_moves);
    e.0
}

/// One well-formed journal record.
#[derive(Debug)]
enum Record {
    /// A cell the current engine would compute.
    Cell(CellKey, ExpResult),
    /// A cell from an engine mode that no longer exists (reference
    /// pipeline or sampled engine): never served, dropped by GC.
    Foreign,
}

/// Decode one cell record; `None` means the payload is not a well-formed
/// record (treated as corruption by the replayer).
fn decode(payload: &[u8]) -> Option<Record> {
    let mut d = Dec {
        buf: payload,
        at: 0,
    };
    let (fingerprint, scheme, pin) = (d.u64()?, scheme_from(d.u8()?)?, pin_from(d.u8()?)?);
    let foreign = match d.u8()? {
        MODE_ENGINE => false,
        MODE_REFERENCE | MODE_SAMPLED => true,
        _ => return None,
    };
    let key = CellKey {
        fingerprint,
        scheme,
        pin,
        seed: d.u64()?,
    };
    let threads = d.u32()? as usize;
    let runtime = d.u64()?;
    let thread_runtime = d.vec_u64()?;
    let thread_idle = d.vec_u64()?;
    if thread_runtime.len() != threads || thread_idle.len() != threads {
        return None;
    }
    let metrics = RunMetrics {
        threads,
        runtime,
        thread_runtime,
        thread_idle,
        serial_cycles: d.u64()?,
        parallel_sections: d.u32()? as usize,
    };
    let r = ExpResult {
        metrics,
        remote_fraction: d.f64()?,
        llc_interference: d.u64()?,
        row_hit_rate: d.f64()?,
        pages_moved: d.u64()?,
        page_faults: d.u64()?,
        fault_cycles: d.u64()?,
        l3_miss_rate: d.f64()?,
        mean_latency: d.f64()?,
        color_list_moves: d.u64()?,
        poisoned: false,
    };
    if d.at != payload.len() {
        return None; // trailing bytes: not a record this version wrote
    }
    Some(if foreign {
        Record::Foreign
    } else {
        Record::Cell(key, r)
    })
}

/// One framed entry: `len | crc | payload`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

// ---------------------------------------------------------------------------
// Fault-shimmed filesystem primitives (write path only)
// ---------------------------------------------------------------------------
//
// Every state-changing filesystem operation the journal performs goes
// through one of these, which first consults the host-fault io schedule
// ([`hostfault::io_fault`]). Read-side operations are deliberately
// unshimmed: the degradation contract is about never *writing* badly.

fn fio_gate() -> std::io::Result<()> {
    match hostfault::io_fault() {
        Some(f) => Err(f.as_error()),
        None => Ok(()),
    }
}

fn fio_create_dir_all(p: &Path) -> std::io::Result<()> {
    fio_gate()?;
    std::fs::create_dir_all(p)
}

fn fio_open_excl(p: &Path) -> std::io::Result<File> {
    fio_gate()?;
    std::fs::OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(p)
}

/// Shimmed `write_all`. An injected [`IoFault::ShortWrite`] writes the
/// first half of `buf` for real and then reports failure — the torn-entry
/// shape a crash mid-`write` leaves behind.
fn fio_write_all(f: &mut File, buf: &[u8]) -> std::io::Result<()> {
    match hostfault::io_fault() {
        Some(IoFault::ShortWrite) => {
            let _ = f.write_all(&buf[..buf.len() / 2]);
            Err(IoFault::ShortWrite.as_error())
        }
        Some(fault) => Err(fault.as_error()),
        None => f.write_all(buf),
    }
}

fn fio_set_len(f: &File, len: u64) -> std::io::Result<()> {
    fio_gate()?;
    f.set_len(len)
}

fn fio_sync(f: &File) -> std::io::Result<()> {
    fio_gate()?;
    f.sync_data()
}

fn fio_rename(from: &Path, to: &Path) -> std::io::Result<()> {
    fio_gate()?;
    std::fs::rename(from, to)
}

// ---------------------------------------------------------------------------
// Store geometry
// ---------------------------------------------------------------------------

/// The v2 store root under a journal directory.
pub fn v2_root(dir: &Path) -> PathBuf {
    dir.join(STORE_DIR)
}

/// Directory name of generation `n`.
fn gen_name(n: u64) -> String {
    format!("gen-{n:08}")
}

/// The current (highest-numbered, committed) generation under `dir`'s
/// store root, if any. Uncommitted GC builds (`gen-*.tmp.<pid>`) and any
/// other stray names are ignored: only `gen-` followed by pure digits
/// counts, which is exactly what the atomic commit rename produces.
pub fn current_generation(dir: &Path) -> Option<(u64, PathBuf)> {
    let root = v2_root(dir);
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(&root).ok()?.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(digits) = name.strip_prefix("gen-") else {
            continue;
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let Ok(n) = digits.parse::<u64>() else {
            continue;
        };
        if best.as_ref().is_none_or(|(b, _)| n > *b) {
            best = Some((n, entry.path()));
        }
    }
    best
}

/// First free `<file>.corrupt.<n>` (n = 1, 2, …) next to `root` for the
/// quarantine rename — never clobbers an earlier quarantine.
fn unique_corrupt_path(root: &Path, original: &Path) -> PathBuf {
    let base = original
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("shard.jnl")
        .to_string();
    for n in 1u64.. {
        let candidate = root.join(format!("{base}.corrupt.{n}"));
        if !candidate.exists() {
            return candidate;
        }
    }
    unreachable!("u64 quarantine slots exhausted");
}

// ---------------------------------------------------------------------------
// Journal state
// ---------------------------------------------------------------------------

/// What replay found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Distinct cell records replayed into the simcache.
    pub replayed: u64,
    /// Trailing bytes dropped (in memory) as torn final writes.
    pub torn_dropped: u64,
    /// Corrupt shards quarantined this replay.
    pub quarantined: u64,
    /// Healthy v2 shards merged.
    pub shards: u64,
    /// Well-formed records of removed engine modes, skipped unserved.
    pub foreign: u64,
}

/// What a GC compaction did (the `repro gc-journal` report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Live deduped cells written into the new generation.
    pub live_cells: u64,
    /// Shards merged from the old generation.
    pub shards_merged: u64,
    /// Corrupt shards quarantined during the merge.
    pub quarantined: u64,
    /// Records of removed engine modes dropped from the new generation.
    pub foreign_dropped: u64,
    /// Store bytes before compaction (the old generation).
    pub bytes_before: u64,
    /// Store bytes after compaction (the new generation).
    pub bytes_after: u64,
    /// The committed generation number.
    pub generation: u64,
}

struct State {
    /// `None` = disabled/unarmed; `Some(dir)` = armed.
    dir: Option<PathBuf>,
    /// This process's own append shard, positioned at `shard_len`.
    shard: Option<File>,
    /// Validated length of the own shard (the repair boundary).
    shard_len: u64,
    /// Keys loaded from disk this process — the set behind the
    /// journal-hit counter that proves a resume reused prior work.
    replayed: HashSet<CellKey>,
    /// Replay already ran for the current `dir`.
    replay_done: bool,
    /// The journal disarmed itself after persistent io failure.
    io_disarmed: bool,
    /// Consecutive failed appends (reset by any success).
    io_fail_streak: u8,
    stats: ReplayStats,
}

static STATE: Mutex<Option<State>> = Mutex::new(None);
static HITS: AtomicU64 = AtomicU64::new(0);
static APPENDS: AtomicU64 = AtomicU64::new(0);
/// Mirror of `State::io_disarmed` readable without the lock (repro's
/// invocation JSON reads it after the run).
static IO_DISARMED: AtomicBool = AtomicBool::new(false);
/// Per-process shard-name nonce counter (mixed with pid + clock).
static NONCE: AtomicU64 = AtomicU64::new(0);

fn with_state<T>(f: impl FnOnce(&mut State) -> T) -> T {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    let state = guard.get_or_insert_with(|| State {
        dir: None,
        shard: None,
        shard_len: 0,
        replayed: HashSet::new(),
        replay_done: false,
        io_disarmed: false,
        io_fail_streak: 0,
        stats: ReplayStats::default(),
    });
    f(state)
}

/// Arm the journal the way the `repro` binary does: `TINT_JOURNAL=0`/empty
/// disables it, `TINT_JOURNAL=<dir>` relocates it, unset means
/// `.tint-journal/` in the working directory. Library code (tests) never
/// arms the journal implicitly — use [`set_dir`].
pub fn configure_default() {
    match std::env::var_os("TINT_JOURNAL") {
        Some(v) if v.is_empty() || v == *"0" => set_dir(None),
        Some(v) => set_dir(Some(Path::new(&v))),
        None => set_dir(Some(Path::new(".tint-journal"))),
    }
}

/// Arm the journal at `dir` (or disarm with `None`), resetting all journal
/// state: the open shard, the replayed-key set, the disarm latch, and the
/// counters. Tests use this to simulate process death — `set_dir` to the
/// same directory again behaves exactly like a fresh process finding the
/// store on disk (including opening a *new* own shard, as a fresh process
/// would).
pub fn set_dir(dir: Option<&Path>) {
    with_state(|s| {
        s.dir = dir.map(Path::to_path_buf);
        s.shard = None;
        s.shard_len = 0;
        s.replayed.clear();
        s.replay_done = false;
        s.io_disarmed = false;
        s.io_fail_streak = 0;
        s.stats = ReplayStats::default();
    });
    HITS.store(0, Ordering::Relaxed);
    APPENDS.store(0, Ordering::Relaxed);
    IO_DISARMED.store(false, Ordering::Relaxed);
}

/// Is the journal armed (a directory configured)?
pub fn enabled() -> bool {
    with_state(|s| s.dir.is_some())
}

/// Did the journal disarm itself after persistent io failure? (The run
/// still completes correctly; its new cells just aren't persisted.)
pub fn io_disarmed() -> bool {
    IO_DISARMED.load(Ordering::Relaxed)
}

/// `(journal hits, cells appended, cells replayed)` so far. A *journal
/// hit* is a cell served from the simcache whose value was loaded from
/// disk — the counter a resumed run uses to prove the completed prefix was
/// not re-simulated.
pub fn counters() -> (u64, u64, u64) {
    (
        HITS.load(Ordering::Relaxed),
        APPENDS.load(Ordering::Relaxed),
        with_state(|s| s.stats.replayed),
    )
}

/// Count a simcache hit as a journal hit when the key came from disk.
/// Called by the runner on every cache hit; cheap no-op when unarmed.
pub fn note_replayed_hit(key: &CellKey) {
    let replayed = with_state(|s| s.replay_done && s.replayed.contains(key));
    if replayed {
        HITS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Replay the store into the simcache (idempotent; also called lazily by
/// [`append`]). Returns what was found. Disabled/unarmed → all-zero stats.
pub fn replay() -> ReplayStats {
    with_state(|s| {
        if s.replay_done || s.dir.is_none() {
            return s.stats;
        }
        s.replay_done = true;
        s.stats = replay_locked(s);
        s.stats
    })
}

/// One scanned shard.
struct Scan {
    cells: Vec<(CellKey, ExpResult)>,
    /// Well-formed records of removed engine modes (not in `cells`).
    foreign: u64,
    /// Trailing bytes after the last whole good entry (torn write).
    torn: u64,
    /// Mid-stream corruption: bad magic, bad CRC, insane length, or an
    /// undecodable payload. `cells` still holds the good prefix.
    corrupt: bool,
}

/// Validate `bytes` against the shard framing format. Never
/// touches the filesystem — callers decide what to do about tears and
/// corruption (the per-shard isolation policy lives in the callers).
fn scan_bytes(bytes: &[u8]) -> Scan {
    let mut scan = Scan {
        cells: Vec::new(),
        foreign: 0,
        torn: 0,
        corrupt: false,
    };
    if bytes.len() < SHARD_MAGIC.len() {
        // Sub-magic fragment: a torn first write, not corruption.
        scan.torn = bytes.len() as u64;
        return scan;
    }
    if &bytes[..SHARD_MAGIC.len()] != SHARD_MAGIC {
        scan.corrupt = true;
        return scan;
    }
    let mut at = SHARD_MAGIC.len();
    loop {
        let remaining = bytes.len() - at;
        if remaining == 0 {
            break;
        }
        if remaining < 8 {
            scan.torn = remaining as u64; // torn header
            break;
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        if len > MAX_ENTRY {
            scan.corrupt = true; // insane length: corruption, not a tear
            break;
        }
        if remaining < 8 + len as usize {
            scan.torn = remaining as u64; // torn payload
            break;
        }
        let payload = &bytes[at + 8..at + 8 + len as usize];
        if crc32(payload) != crc {
            scan.corrupt = true;
            break;
        }
        match decode(payload) {
            Some(Record::Cell(k, v)) => scan.cells.push((k, v)),
            Some(Record::Foreign) => scan.foreign += 1,
            None => {
                scan.corrupt = true;
                break;
            }
        }
        at += 8 + len as usize;
    }
    scan
}

/// The merged content of one generation directory.
struct GenScan {
    /// Deduped live cells across all shards (healthy + salvaged).
    merged: HashMap<CellKey, ExpResult>,
    /// Keys durably held by a *healthy* shard (no need to re-persist).
    healthy_keys: HashSet<CellKey>,
    shards: u64,
    foreign: u64,
    torn: u64,
    quarantined: u64,
    /// Total bytes of the shards scanned (GC's before-size).
    bytes: u64,
}

/// Scan every `*.jnl` shard in `gen_dir`, merging healthy shards and
/// quarantining corrupt ones to `root` (the store root, so a later GC's
/// old-generation removal keeps the evidence). Corrupt shards' good
/// prefixes land in `merged` but not `healthy_keys` — the caller rescues
/// them into durable storage. Foreign torn tails are dropped in memory
/// only (they may be a live sibling's in-flight append).
fn scan_generation(root: &Path, gen_dir: &Path) -> GenScan {
    let mut g = GenScan {
        merged: HashMap::new(),
        healthy_keys: HashSet::new(),
        shards: 0,
        foreign: 0,
        torn: 0,
        quarantined: 0,
        bytes: 0,
    };
    let mut shard_paths: Vec<PathBuf> = match std::fs::read_dir(gen_dir) {
        Ok(rd) => rd
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "jnl"))
            .collect(),
        Err(_) => return g,
    };
    shard_paths.sort(); // deterministic merge order
    for path in shard_paths {
        let bytes = std::fs::read(&path).unwrap_or_default();
        g.bytes += bytes.len() as u64;
        let scan = scan_bytes(&bytes);
        g.torn += scan.torn;
        g.foreign += scan.foreign;
        if scan.corrupt {
            g.quarantined += 1;
            let q = unique_corrupt_path(root, &path);
            match fio_rename(&path, &q) {
                Ok(()) => eprintln!(
                    "journal: shard {} is corrupt mid-stream; quarantined to {} \
                     ({} good cells rescued)",
                    path.display(),
                    q.display(),
                    scan.cells.len()
                ),
                Err(e) => eprintln!(
                    "journal: shard {} is corrupt and could not be quarantined ({e}); \
                     {} good cells rescued, shard left in place",
                    path.display(),
                    scan.cells.len()
                ),
            }
            for (k, v) in scan.cells {
                g.merged.insert(k, v);
            }
        } else {
            g.shards += 1;
            for (k, v) in scan.cells {
                g.healthy_keys.insert(k);
                g.merged.insert(k, v);
            }
        }
    }
    g
}

/// The replay body; `s.dir` is `Some`. Merges the current generation's
/// shards into the simcache and rescues the good prefixes of corrupt
/// shards into this process's own shard.
fn replay_locked(s: &mut State) -> ReplayStats {
    let dir = s.dir.clone().expect("replay_locked requires an armed dir");
    let mut stats = ReplayStats::default();
    let root = v2_root(&dir);
    if let Err(e) = fio_create_dir_all(&root) {
        eprintln!(
            "journal: cannot create {} ({e}); journaling disabled for this run",
            root.display()
        );
        s.dir = None;
        s.io_disarmed = true; // the single warning for this run
        IO_DISARMED.store(true, Ordering::Relaxed);
        return stats;
    }

    let gen = current_generation(&dir).map(|(_, p)| scan_generation(&root, &p));

    let mut merged: HashMap<CellKey, ExpResult> = HashMap::new();
    let mut healthy_keys: HashSet<CellKey> = HashSet::new();
    if let Some(g) = gen {
        stats.shards = g.shards;
        stats.foreign += g.foreign;
        stats.torn_dropped += g.torn;
        stats.quarantined += g.quarantined;
        merged.extend(g.merged);
        healthy_keys.extend(g.healthy_keys);
    }

    stats.replayed = merged.len() as u64;
    if simcache::enabled() {
        simcache::insert_many(merged.iter().map(|(k, v)| (*k, v)));
    }
    s.replayed.extend(merged.keys().copied());

    // Rescue cells that no healthy shard holds (corrupt-shard salvage)
    // into our own shard so they stay durable. These are not *new* work,
    // so they do not count toward the append counter.
    for (k, v) in merged.iter().filter(|(k, _)| !healthy_keys.contains(k)) {
        append_locked(s, k, v, false);
    }
    stats
}

/// A fresh shard file name: `<pid>-<nonce>.jnl`. The nonce mixes a
/// process-local counter, the pid, and the clock through SplitMix64, so
/// concurrent writers (and successive `set_dir` "processes" in one test
/// binary) get distinct names; `O_EXCL` turns any residual collision into
/// a retry instead of silent sharing.
fn shard_file_name() -> String {
    let count = NONCE.fetch_add(1, Ordering::Relaxed);
    let clock = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0);
    let pid = std::process::id() as u64;
    let nonce = SplitMix64::new(count ^ clock.rotate_left(17) ^ pid.rotate_left(43)).next_u64();
    format!("{}-{nonce:016x}.jnl", std::process::id())
}

/// Create this process's own append shard in the current generation
/// (creating `gen-00000001` on a virgin store). `false` = the journal
/// disarmed itself.
fn open_own_shard(s: &mut State) -> bool {
    let Some(dir) = s.dir.clone() else {
        return false;
    };
    let gen_dir = match current_generation(&dir) {
        Some((_, p)) => p,
        None => {
            let p = v2_root(&dir).join(gen_name(1));
            if let Err(e) = fio_create_dir_all(&p) {
                disarm_io(s, "create generation", &e);
                return false;
            }
            p
        }
    };
    for _ in 0..16 {
        let path = gen_dir.join(shard_file_name());
        match fio_open_excl(&path) {
            Ok(mut f) => {
                if let Err(e) = fio_write_all(&mut f, SHARD_MAGIC) {
                    // A magic-less fragment replays as a torn first write;
                    // harmless, and GC compacts it away.
                    disarm_io(s, "initialize shard", &e);
                    return false;
                }
                s.shard = Some(f);
                s.shard_len = SHARD_MAGIC.len() as u64;
                return true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => {
                disarm_io(s, "create shard", &e);
                return false;
            }
        }
    }
    disarm_io(
        s,
        "create shard",
        &std::io::Error::other("16 O_EXCL name collisions"),
    );
    false
}

/// Disarm journaling for the rest of the run, warning exactly once. The
/// run itself is unaffected — figures come from in-memory results; only
/// persistence of *new* cells stops.
fn disarm_io(s: &mut State, ctx: &str, e: &std::io::Error) {
    if !s.io_disarmed {
        eprintln!(
            "journal: {ctx} failed ({e}); journaling disabled for the rest of this run \
             (figures are unaffected; unjournaled cells will be re-simulated next time)"
        );
        s.io_disarmed = true;
        IO_DISARMED.store(true, Ordering::Relaxed);
    }
}

/// Append one `(key, result)` record to the own shard. On write failure
/// the entry boundary is repaired (own-shard truncate back to the last
/// good entry — never a foreign shard); persistent failure disarms.
/// `count` is false for rescue re-persists, which are not new work.
fn append_locked(s: &mut State, key: &CellKey, r: &ExpResult, count: bool) {
    if s.dir.is_none() || s.io_disarmed {
        return;
    }
    if s.shard.is_none() && !open_own_shard(s) {
        return;
    }
    let entry = frame(&encode(key, r));
    let pre = s.shard_len;
    let f = s.shard.as_mut().expect("own shard is open");
    match fio_write_all(f, &entry) {
        Ok(()) => {
            s.shard_len = pre + entry.len() as u64;
            s.io_fail_streak = 0;
            if count {
                APPENDS.fetch_add(1, Ordering::Relaxed);
            }
        }
        Err(e) => {
            s.io_fail_streak = s.io_fail_streak.saturating_add(1);
            let repaired = fio_set_len(f, pre).is_ok();
            if !repaired || s.io_fail_streak >= MAX_IO_FAILURES {
                // Unrepairable boundary (the shard now ends in a torn
                // fragment — which replay tolerates) or a persistent
                // failure streak: stop writing.
                disarm_io(s, "append", &e);
            }
        }
    }
}

/// Append one completed cell. Lazily replays first (so tests that only
/// append still find prior runs' cells). Poisoned results must not reach
/// the journal — the runner filters them; this is a debug-build backstop.
pub fn append(key: &CellKey, r: &ExpResult) {
    debug_assert!(!r.poisoned, "poisoned cells are never journaled");
    if !enabled() {
        return;
    }
    replay();
    with_state(|s| append_locked(s, key, r, true));
}

/// Flush shard appends to the OS (graceful-shutdown path). Appends are
/// unbuffered single `write_all`s, so this is a best-effort `sync_data`
/// for the power-loss case; a SIGKILL already cannot tear more than the
/// final entry.
pub fn flush() {
    with_state(|s| {
        if s.io_disarmed {
            return;
        }
        if let Some(f) = s.shard.take() {
            if let Err(e) = fio_sync(&f) {
                disarm_io(s, "sync", &e);
            } else {
                s.shard = Some(f);
            }
        }
    });
}

/// Compact the store: merge the current generation exactly like replay,
/// write the live deduped cells into one fresh shard in a new generation,
/// and commit it with a single atomic rename. Guarded by an advisory lock
/// on `gc.lock`; a second live GC fails fast. A crash at *any* point
/// leaves either the old or the new generation fully intact (the commit
/// is one rename), and concurrent readers of the old generation are
/// unaffected. Old generations and stray GC build directories are
/// removed only after the commit.
pub fn gc() -> Result<GcStats, String> {
    with_state(gc_locked)
}

fn gc_locked(s: &mut State) -> Result<GcStats, String> {
    let dir = s
        .dir
        .clone()
        .ok_or_else(|| "journal is disabled (TINT_JOURNAL=0?)".to_string())?;
    if s.io_disarmed {
        return Err("journal is disarmed after io failures; not compacting".to_string());
    }
    let root = v2_root(&dir);
    fio_create_dir_all(&root).map_err(|e| format!("cannot create {}: {e}", root.display()))?;
    let _lock = Lockfile::acquire(&root.join(GC_LOCK))
        .map_err(|e| format!("gc lock: {e} (is another gc-journal running?)"))?;

    let old = current_generation(&dir);
    let old_n = old.as_ref().map(|(n, _)| *n).unwrap_or(0);
    let mut stats = GcStats::default();
    let mut merged: HashMap<CellKey, ExpResult> = HashMap::new();
    if let Some((_, gen_dir)) = &old {
        let g = scan_generation(&root, gen_dir);
        stats.shards_merged = g.shards;
        stats.foreign_dropped += g.foreign;
        stats.quarantined += g.quarantined;
        stats.bytes_before += g.bytes;
        merged.extend(g.merged);
    }
    stats.live_cells = merged.len() as u64;

    // Deterministic shard content: sort by encoded key fields.
    let mut cells: Vec<(&CellKey, &ExpResult)> = merged.iter().collect();
    cells.sort_by_key(|(k, _)| {
        (
            k.fingerprint,
            scheme_code(k.scheme),
            pin_code(k.pin),
            k.seed,
        )
    });

    let new_n = old_n + 1;
    let tmp = root.join(format!("{}.tmp.{}", gen_name(new_n), std::process::id()));
    let committed = root.join(gen_name(new_n));
    // A previous killed attempt may have left this very tmp dir (same
    // pid is possible across boots); a stale partial shard must not ride
    // into the committed generation.
    let _ = std::fs::remove_dir_all(&tmp);
    let build = |tmp: &Path| -> std::io::Result<u64> {
        fio_create_dir_all(tmp)?;
        let mut f = fio_open_excl(&tmp.join(shard_file_name()))?;
        fio_write_all(&mut f, SHARD_MAGIC)?;
        let mut bytes = SHARD_MAGIC.len() as u64;
        for (k, v) in &cells {
            let entry = frame(&encode(k, v));
            fio_write_all(&mut f, &entry)?;
            bytes += entry.len() as u64;
        }
        fio_sync(&f)?;
        fio_rename(tmp, &committed)?; // the commit point: one atomic rename
        Ok(bytes)
    };
    match build(&tmp) {
        Err(e) => {
            let _ = std::fs::remove_dir_all(&tmp);
            Err(format!("gc failed before commit: {e} (store unchanged)"))
        }
        Ok(bytes_after) => {
            stats.bytes_after = bytes_after;
            stats.generation = new_n;
            // Post-commit, best-effort cleanup: the new generation is
            // durable regardless of anything below.
            if let Ok(rd) = std::fs::read_dir(&root) {
                for entry in rd.flatten() {
                    let name = entry.file_name();
                    let Some(name) = name.to_str() else { continue };
                    let is_old_gen = name
                        .strip_prefix("gen-")
                        .filter(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
                        .and_then(|d| d.parse::<u64>().ok())
                        .is_some_and(|n| n <= old_n);
                    let is_stale_tmp = name.starts_with("gen-") && name.contains(".tmp.");
                    if is_old_gen || is_stale_tmp {
                        let _ = std::fs::remove_dir_all(entry.path());
                    }
                }
            }
            // Our own shard (if any) lived in the old generation; future
            // appends must open a fresh shard in the new one.
            s.shard = None;
            s.shard_len = 0;
            Ok(stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard CRC-32 (IEEE) check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let key = CellKey {
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            scheme: ColorScheme::MemLlcPart,
            pin: PinConfig::T8N2,
            seed: 7,
        };
        let r = ExpResult {
            metrics: RunMetrics {
                threads: 3,
                runtime: 123,
                thread_runtime: vec![1, 2, 3],
                thread_idle: vec![4, 5, 6],
                serial_cycles: 9,
                parallel_sections: 2,
            },
            remote_fraction: 0.25,
            llc_interference: 11,
            row_hit_rate: 0.5,
            pages_moved: 13,
            page_faults: 17,
            fault_cycles: 19,
            l3_miss_rate: 0.125,
            mean_latency: 42.5,
            color_list_moves: 23,
            poisoned: false,
        };
        let mut payload = encode(&key, &r);
        match decode(&payload) {
            Some(Record::Cell(k2, r2)) => assert_eq!((k2, r2), (key, r)),
            other => panic!("roundtrip must decode as a cell, got {other:?}"),
        }

        // The mode byte follows fingerprint, scheme and pin. Removed
        // engine modes decode as foreign records, unknown modes as
        // corruption.
        for (mode, foreign) in [(MODE_REFERENCE, true), (MODE_SAMPLED, true), (3, false)] {
            payload[10] = mode;
            match decode(&payload) {
                Some(Record::Foreign) => assert!(foreign, "mode {mode}"),
                None => assert!(!foreign, "mode {mode}"),
                Some(Record::Cell(..)) => panic!("mode {mode} must never decode as a cell"),
            }
        }
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_garbage() {
        let key = CellKey {
            fingerprint: 1,
            scheme: ColorScheme::Buddy,
            pin: PinConfig::T4N1,
            seed: 1,
        };
        let r = ExpResult {
            metrics: RunMetrics::new(2),
            remote_fraction: 0.0,
            llc_interference: 0,
            row_hit_rate: 0.0,
            pages_moved: 0,
            page_faults: 0,
            fault_cycles: 0,
            l3_miss_rate: 0.0,
            mean_latency: 0.0,
            color_list_moves: 0,
            poisoned: false,
        };
        let full = encode(&key, &r);
        assert!(decode(&full[..full.len() - 1]).is_none());
        let mut extended = full.clone();
        extended.push(0);
        assert!(decode(&extended).is_none());
    }

    #[test]
    fn scheme_and_pin_codes_roundtrip() {
        for s in ColorScheme::ALL {
            assert_eq!(scheme_from(scheme_code(s)), Some(s));
        }
        for p in PinConfig::ALL {
            assert_eq!(pin_from(pin_code(p)), Some(p));
        }
        assert_eq!(scheme_from(200), None);
        assert_eq!(pin_from(200), None);
    }

    #[test]
    fn unique_corrupt_paths_never_clobber() {
        let root = std::env::temp_dir().join(format!("tint-jnl-ucp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let victim = root.join("a.jnl");
        let q1 = unique_corrupt_path(&root, &victim);
        assert_eq!(q1, root.join("a.jnl.corrupt.1"));
        std::fs::write(&q1, b"x").unwrap();
        let q2 = unique_corrupt_path(&root, &victim);
        assert_eq!(q2, root.join("a.jnl.corrupt.2"));
        assert_ne!(q1, q2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn generation_names_parse_and_tmp_dirs_are_ignored() {
        let dir = std::env::temp_dir().join(format!("tint-jnl-gen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let root = v2_root(&dir);
        std::fs::create_dir_all(root.join("gen-00000001")).unwrap();
        std::fs::create_dir_all(root.join("gen-00000003")).unwrap();
        std::fs::create_dir_all(root.join("gen-00000004.tmp.1234")).unwrap();
        std::fs::create_dir_all(root.join("gen-bogus")).unwrap();
        let (n, p) = current_generation(&dir).expect("a committed generation exists");
        assert_eq!(n, 3);
        assert_eq!(p, root.join("gen-00000003"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
