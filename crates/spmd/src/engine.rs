//! The conservative discrete-event SPMD scheduler.
//!
//! One loop executes every section kind. It is a flat min-scan over the
//! thread array: the runnable thread with the smallest `(clock, index)`
//! key executes next, exactly as a min-heap would pick it. Three
//! refinements keep it fast without changing that order:
//!
//! * **Op batching**: section bodies hand the engine runs of operations
//!   through [`SectionBody::fill`], one virtual call per [`BATCH_OPS`] ops
//!   instead of one per op.
//! * **Still-minimum fast path**: after thread *i* executes an operation,
//!   a heap loop would push `(clock_i, i)` back and immediately pop the
//!   global minimum. If that key is still smaller than every other
//!   runnable thread's key, the pop returns *i* again, so the loop keeps
//!   draining thread *i* and only rescans when its key rises past the
//!   runner-up's.
//! * **Compute fusion**: `Compute` ops touch nothing but the local clock,
//!   and the memory system observes only `(access order, issue cycle)`
//!   pairs, which depend on clock values alone. A run of consecutive
//!   compute ops is therefore one clock add.
//!
//! The section kinds differ only in which body a thread runs next, the
//! `BodyPolicy`: a static section gives each thread its own body once,
//! a dynamic section pops chunks from a shared queue, and a serial section
//! gives thread 0 its body and the other threads nothing.
//!
//! The original one-op-at-a-time heap loops live on in [`crate::oracle`]
//! as the test oracle this loop is checked against bit for bit. Nothing
//! in production selects them.

use std::collections::VecDeque;
use tint_hw::types::{CoreId, Rw, VirtAddr};
use tint_kernel::{Errno, Tid};
use tintmalloc::System;

/// A simulated thread: a kernel task pinned to a core plus a local clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimThread {
    /// Kernel task id.
    pub tid: Tid,
    /// Core the thread is pinned to.
    pub core: CoreId,
    /// Local clock in cycles.
    pub clock: u64,
}

impl SimThread {
    /// Spawn an OpenMP-style team: the first core gets the group leader (a
    /// fresh address space); the rest are threads sharing that space.
    pub fn spawn_all(sys: &mut System, cores: &[CoreId]) -> Vec<SimThread> {
        assert!(!cores.is_empty());
        let leader = sys.spawn(cores[0]);
        let mut team = vec![SimThread {
            tid: leader,
            core: cores[0],
            clock: 0,
        }];
        for &core in &cores[1..] {
            team.push(SimThread {
                tid: sys.spawn_thread(core, leader).expect("leader exists"),
                core,
                clock: 0,
            });
        }
        team
    }
}

/// One operation of a thread's instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Pure computation: advance the thread clock by `cycles`.
    Compute(u64),
    /// One memory reference.
    Access {
        /// Virtual address touched.
        addr: VirtAddr,
        /// Load or store.
        rw: Rw,
    },
}

/// Ops the engine requests per [`SectionBody::fill`] call. Large enough to
/// amortize the virtual call, small enough to stay in L1 (64 × 24 B).
pub const BATCH_OPS: usize = 64;

/// A thread's work within one parallel (or serial) section, pulled in
/// batches (or operation-by-operation) so huge traces never materialize.
pub trait SectionBody {
    /// The next operation, or `None` when the thread reaches the barrier.
    fn next_op(&mut self) -> Option<Op>;

    /// Bulk variant: write upcoming ops into `buf` and return how many were
    /// written. **Contract:** a return value shorter than `buf.len()`
    /// (including 0) means the body is exhausted — the engine will not call
    /// again. The default implementation delegates to [`Self::next_op`]
    /// (stopping at its first `None`), which upholds the contract and, for
    /// concrete body types behind `Box<dyn SectionBody>`, monomorphizes the
    /// whole batch loop into one virtual call.
    fn fill(&mut self, buf: &mut [Op]) -> usize {
        let mut n = 0;
        while n < buf.len() {
            match self.next_op() {
                Some(op) => {
                    buf[n] = op;
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

/// Blanket impl so closures/iterators can be used as bodies in tests.
impl<I: Iterator<Item = Op>> SectionBody for I {
    fn next_op(&mut self) -> Option<Op> {
        self.next()
    }
}

/// Per-thread batch cursor over the thread's current body.
struct BodyCursor {
    buf: [Op; BATCH_OPS],
    /// Valid ops in `buf`.
    len: usize,
    /// Next op to execute.
    cur: usize,
    /// The thread holds a body (its policy handed one out and it has not
    /// been retired yet).
    active: bool,
    /// The last `fill` came back short: the body is exhausted once `cur`
    /// reaches `len`.
    exhausted: bool,
}

impl BodyCursor {
    fn new() -> Self {
        Self {
            buf: [Op::Compute(0); BATCH_OPS],
            len: 0,
            cur: 0,
            active: false,
            exhausted: false,
        }
    }
}

/// Which body thread *i* runs next: the only thing that differs between
/// static, dynamic and serial sections.
trait BodyPolicy {
    /// Hand thread `i` its next body; `false` when it has no more work.
    fn advance(&mut self, i: usize) -> bool;
    /// Fill `buf` from thread `i`'s current body (the [`SectionBody::fill`]
    /// contract: a short count means the body is exhausted).
    fn fill(&mut self, i: usize, buf: &mut [Op]) -> usize;
    /// The clock every thread resumes at once the section ends.
    fn barrier(&self, end: &[u64]) -> u64 {
        end.iter().copied().max().unwrap_or(0)
    }
}

/// Static sections: thread *i* runs `bodies[i]`, once.
struct StaticBodies<'s, 'b> {
    bodies: &'s mut [Box<dyn SectionBody + 'b>],
    started: Vec<bool>,
}

impl BodyPolicy for StaticBodies<'_, '_> {
    fn advance(&mut self, i: usize) -> bool {
        !std::mem::replace(&mut self.started[i], true)
    }
    fn fill(&mut self, i: usize, buf: &mut [Op]) -> usize {
        self.bodies[i].fill(buf)
    }
}

/// Dynamic sections: threads pop chunks from a shared queue in queue
/// order.
struct ChunkQueue<'b> {
    queue: VecDeque<Box<dyn SectionBody + 'b>>,
    current: Vec<Option<Box<dyn SectionBody + 'b>>>,
}

impl BodyPolicy for ChunkQueue<'_> {
    fn advance(&mut self, i: usize) -> bool {
        self.current[i] = self.queue.pop_front();
        self.current[i].is_some()
    }
    fn fill(&mut self, i: usize, buf: &mut [Op]) -> usize {
        self.current[i]
            .as_mut()
            .expect("fill follows a successful advance")
            .fill(buf)
    }
}

/// Serial sections: thread 0 runs the body; the others have none and wait
/// for it.
struct SerialBody<'s, 'b> {
    body: &'s mut (dyn SectionBody + 'b),
    started: bool,
}

impl BodyPolicy for SerialBody<'_, '_> {
    fn advance(&mut self, i: usize) -> bool {
        i == 0 && !std::mem::replace(&mut self.started, true)
    }
    fn fill(&mut self, _: usize, buf: &mut [Op]) -> usize {
        self.body.fill(buf)
    }
    fn barrier(&self, end: &[u64]) -> u64 {
        end[0]
    }
}

/// Bits of the packed scheduling key that hold the thread index.
const INDEX_BITS: u32 = 8;

/// Largest team the engine runs: every thread index must fit the packed
/// key's index field.
pub const MAX_THREADS: usize = 1 << INDEX_BITS;

/// Pack a thread's scheduling key: `(clock, index)` lexicographic order
/// becomes plain `u64` order. Clocks stay far below 2^56 (simulations run
/// ~10^10 cycles), asserted in debug builds.
#[inline(always)]
fn pack_key(clock: u64, i: usize) -> u64 {
    debug_assert!(clock < 1 << (64 - INDEX_BITS));
    (clock << INDEX_BITS) | i as u64
}

/// One pass over the packed keys: the global minimum and the runner-up.
/// Dead threads hold `u64::MAX`. Branch-free compares — keys are unique
/// (the index lives in the low bits), so strict `<` is exact.
#[inline]
fn min2_scan(keys: &[u64]) -> (u64, u64) {
    let mut m1 = u64::MAX;
    let mut m2 = u64::MAX;
    for &k in keys {
        let lo = m1.min(k);
        m2 = m2.min(m1.max(k));
        m1 = lo;
    }
    (m1, m2)
}

/// The engine loop: run `threads` over the bodies `policy` hands out until
/// every thread is out of work, then move every clock to the policy's
/// barrier. Returns each thread's end time.
///
/// Determinism: the runnable thread with the smallest clock executes its
/// next operation; ties break by thread index.
///
/// Op budget: each executed op and each body exhaustion costs one op, for
/// every section kind (a thread that finds no body costs nothing).
/// Exceeding `ops_budget` panics as a runaway-body guard.
fn run_loop<P: BodyPolicy>(
    sys: &mut System,
    threads: &mut [SimThread],
    policy: &mut P,
    ops_budget: u64,
) -> Result<Vec<u64>, Errno> {
    let n = threads.len();
    assert!(
        n <= MAX_THREADS,
        "team of {n} threads exceeds the engine's limit of {MAX_THREADS} (MAX_THREADS)"
    );
    let mut end = vec![0u64; n];
    let mut keys: Vec<u64> = (0..n).map(|i| pack_key(threads[i].clock, i)).collect();
    let mut cursors: Vec<BodyCursor> = (0..n).map(|_| BodyCursor::new()).collect();
    let mut live = n;
    let mut ops = 0u64;
    'threads: while live > 0 {
        let (m1, runner_up) = min2_scan(&keys);
        let i = (m1 & (MAX_THREADS as u64 - 1)) as usize;
        let tid = threads[i].tid;
        let mut clock = threads[i].clock;
        let cur = &mut cursors[i];
        // Drain thread i while it remains the min-clock thread. Retiring
        // a body and taking the next keeps the clock, so the thread stays
        // the minimum throughout, as a heap loop's re-push/re-pop does.
        loop {
            while cur.cur == cur.len {
                if cur.exhausted {
                    // The body's final `None`: one op.
                    cur.exhausted = false;
                    cur.active = false;
                    ops += 1;
                    assert!(
                        ops <= ops_budget,
                        "section exceeded its operation budget ({ops_budget}); runaway body?"
                    );
                }
                if !cur.active {
                    if !policy.advance(i) {
                        threads[i].clock = clock;
                        end[i] = clock;
                        keys[i] = u64::MAX;
                        live -= 1;
                        continue 'threads;
                    }
                    cur.active = true;
                }
                cur.len = policy.fill(i, &mut cur.buf);
                cur.cur = 0;
                cur.exhausted = cur.len < BATCH_OPS;
            }
            let batch = &cur.buf[..cur.len];
            match batch[cur.cur] {
                Op::Compute(c) => {
                    // Fuse the run of consecutive Compute ops: no memory
                    // side effects, so one clock add covers them all.
                    cur.cur += 1;
                    ops += 1;
                    let mut add = c;
                    while cur.cur < cur.len {
                        let Op::Compute(c2) = batch[cur.cur] else {
                            break;
                        };
                        add += c2;
                        cur.cur += 1;
                        ops += 1;
                    }
                    clock += add;
                }
                Op::Access { addr, rw } => {
                    cur.cur += 1;
                    ops += 1;
                    let acc = match sys.access(tid, addr, rw, clock) {
                        Ok(a) => a,
                        Err(e) => {
                            threads[i].clock = clock;
                            return Err(e);
                        }
                    };
                    clock += acc.latency;
                }
            }
            assert!(
                ops <= ops_budget,
                "section exceeded its operation budget ({ops_budget}); runaway body?"
            );
            // Still-minimum fast path: one compare against the runner-up.
            let key = pack_key(clock, i);
            if key >= runner_up {
                keys[i] = key;
                break;
            }
        }
        threads[i].clock = clock;
    }
    // The implicit barrier: every thread resumes at the barrier time.
    let barrier = policy.barrier(&end);
    for t in threads.iter_mut() {
        t.clock = barrier;
    }
    Ok(end)
}

/// Run one parallel section: each thread executes its body to completion;
/// the section ends at the implicit barrier. Returns each thread's end time
/// (the engine caller computes idle per Algorithm 3).
pub fn run_section(
    sys: &mut System,
    threads: &mut [SimThread],
    bodies: &mut [Box<dyn SectionBody + '_>],
    ops_budget: u64,
) -> Result<Vec<u64>, Errno> {
    assert_eq!(threads.len(), bodies.len(), "one body per thread");
    let started = vec![false; bodies.len()];
    run_loop(
        sys,
        threads,
        &mut StaticBodies { bodies, started },
        ops_budget,
    )
}

/// Run a parallel section with **dynamic scheduling** (OpenMP
/// `schedule(dynamic)`): `chunks` is a shared work queue; every thread pulls
/// the next chunk when it finishes its current one, and the section ends
/// when the queue drains and every thread reaches the barrier. Determinism:
/// chunks are handed out in queue order to whichever thread asks first under
/// the min-clock rule (ties by thread index).
pub fn run_section_dynamic(
    sys: &mut System,
    threads: &mut [SimThread],
    chunks: VecDeque<Box<dyn SectionBody + '_>>,
    ops_budget: u64,
) -> Result<Vec<u64>, Errno> {
    let current = (0..threads.len()).map(|_| None).collect();
    run_loop(
        sys,
        threads,
        &mut ChunkQueue {
            queue: chunks,
            current,
        },
        ops_budget,
    )
}

/// Run a serial section on the master (index 0); the other threads simply
/// wait (their clocks move to the master's end — serial time is excluded
/// from idle accounting, as in the paper's Algorithm 3 instrumentation).
/// Returns the master's end time. The body's exhaustion costs one op of
/// `ops_budget`, as in parallel sections: one op more than the oracle's
/// [`crate::oracle::run_serial_reference`] charges.
pub fn run_serial(
    sys: &mut System,
    threads: &mut [SimThread],
    body: &mut (dyn SectionBody + '_),
    ops_budget: u64,
) -> Result<u64, Errno> {
    let end = run_loop(
        sys,
        threads,
        &mut SerialBody {
            body,
            started: false,
        },
        ops_budget,
    )?;
    Ok(end[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{
        run_section_dynamic_reference, run_section_reference, run_serial_reference,
    };
    use tint_hw::machine::MachineConfig;

    /// Boot the tiny machine and spawn an `n`-thread team; teams wider
    /// than the machine share cores round-robin.
    fn setup(n: usize) -> (System, Vec<SimThread>) {
        let mut sys = System::boot(MachineConfig::tiny());
        let ncores = sys.machine().topology.core_count();
        let cores: Vec<_> = (0..n).map(|i| CoreId(i % ncores)).collect();
        let threads = SimThread::spawn_all(&mut sys, &cores);
        (sys, threads)
    }

    fn compute_body(steps: u64, each: u64) -> Box<dyn SectionBody + 'static> {
        Box::new((0..steps).map(move |_| Op::Compute(each)))
    }

    #[test]
    fn pure_compute_section_ends_deterministically() {
        let (mut sys, mut threads) = setup(2);
        let mut bodies = vec![compute_body(10, 100), compute_body(5, 100)];
        let end = run_section(&mut sys, &mut threads, &mut bodies, 1_000).unwrap();
        assert_eq!(end, vec![1000, 500]);
        // Barrier: both clocks jump to the max.
        assert!(threads.iter().all(|t| t.clock == 1000));
    }

    #[test]
    fn idle_is_max_minus_end() {
        let (mut sys, mut threads) = setup(2);
        let mut bodies = vec![compute_body(4, 100), compute_body(1, 100)];
        let end = run_section(&mut sys, &mut threads, &mut bodies, 1_000).unwrap();
        let max = *end.iter().max().unwrap();
        let idle: Vec<u64> = end.iter().map(|e| max - e).collect();
        assert_eq!(idle, vec![0, 300], "Algorithm 3");
    }

    #[test]
    fn access_ops_advance_by_latency() {
        let (mut sys, mut threads) = setup(1);
        let t = threads[0].tid;
        let a = sys.malloc(t, 4096).unwrap();
        let mut bodies: Vec<Box<dyn SectionBody>> = vec![Box::new(
            [
                Op::Access {
                    addr: a,
                    rw: Rw::Write,
                },
                Op::Access {
                    addr: a,
                    rw: Rw::Read,
                },
            ]
            .into_iter(),
        )];
        let end = run_section(&mut sys, &mut threads, &mut bodies, 100).unwrap();
        assert!(end[0] > 0);
        let st = sys.mem().stats().core(CoreId(0));
        assert_eq!(st.accesses, 2);
    }

    #[test]
    fn interleaving_is_clock_ordered() {
        // A fast thread issues many cheap ops while a slow one issues few
        // expensive ones; both make progress and end at their own times.
        let (mut sys, mut threads) = setup(2);
        let mut bodies = vec![compute_body(100, 1), compute_body(2, 500)];
        let end = run_section(&mut sys, &mut threads, &mut bodies, 10_000).unwrap();
        assert_eq!(end, vec![100, 1000]);
    }

    #[test]
    fn serial_section_runs_on_master_only() {
        let (mut sys, mut threads) = setup(2);
        let mut body = (0..3).map(|_| Op::Compute(100));
        let end = run_serial(&mut sys, &mut threads, &mut body, 100).unwrap();
        assert_eq!(end, 300);
        assert!(threads.iter().all(|t| t.clock == 300));
    }

    #[test]
    fn sections_resume_from_barrier_time() {
        let (mut sys, mut threads) = setup(2);
        let mut b1 = vec![compute_body(1, 700), compute_body(1, 100)];
        run_section(&mut sys, &mut threads, &mut b1, 100).unwrap();
        let mut b2 = vec![compute_body(1, 50), compute_body(1, 50)];
        let end = run_section(&mut sys, &mut threads, &mut b2, 100).unwrap();
        assert_eq!(end, vec![750, 750]);
    }

    #[test]
    #[should_panic(expected = "operation budget")]
    fn runaway_body_trips_budget() {
        let (mut sys, mut threads) = setup(1);
        let mut bodies: Vec<Box<dyn SectionBody>> =
            vec![Box::new(std::iter::repeat(Op::Compute(1)))];
        let _ = run_section(&mut sys, &mut threads, &mut bodies, 10);
    }

    #[test]
    #[should_panic(expected = "operation budget")]
    fn runaway_body_trips_budget_reference() {
        let (mut sys, mut threads) = setup(1);
        let mut bodies: Vec<Box<dyn SectionBody>> =
            vec![Box::new(std::iter::repeat(Op::Compute(1)))];
        let _ = run_section_reference(&mut sys, &mut threads, &mut bodies, 10);
    }

    #[test]
    fn empty_bodies_end_immediately() {
        let (mut sys, mut threads) = setup(2);
        let mut bodies: Vec<Box<dyn SectionBody>> =
            vec![Box::new(std::iter::empty()), Box::new(std::iter::empty())];
        let end = run_section(&mut sys, &mut threads, &mut bodies, 10).unwrap();
        assert_eq!(end, vec![0, 0]);
    }

    #[test]
    fn dynamic_scheduling_balances_imbalanced_chunks() {
        // 8 chunks of very different sizes over 2 threads. Static pairing
        // (0..4 vs 4..8) would idle one thread heavily; dynamic pulls from
        // the queue and ends nearly balanced.
        let sizes = [800u64, 100, 100, 100, 100, 100, 100, 100];
        let mk =
            |s: u64| -> Box<dyn SectionBody + 'static> { Box::new((0..s).map(|_| Op::Compute(1))) };
        let (mut sys, mut threads) = setup(2);
        let chunks: VecDeque<_> = sizes.iter().map(|&s| mk(s)).collect();
        let end = run_section_dynamic(&mut sys, &mut threads, chunks, 100_000).unwrap();
        let max = *end.iter().max().unwrap();
        let min = *end.iter().min().unwrap();
        // Thread 0 takes the 800-chunk; thread 1 drains the seven
        // 100-chunks (700) in the meantime: 800 vs 700 — near-balanced,
        // where a static 4+4 split would be 1100 vs 300.
        assert_eq!(max, 800);
        assert_eq!(min, 700);
    }

    #[test]
    fn dynamic_with_fewer_chunks_than_threads() {
        let (mut sys, mut threads) = setup(4);
        let chunks: VecDeque<Box<dyn SectionBody>> = vec![compute_body(3, 10), compute_body(1, 10)]
            .into_iter()
            .collect();
        let end = run_section_dynamic(&mut sys, &mut threads, chunks, 1000).unwrap();
        assert_eq!(
            end.iter().filter(|&&e| e > 0).count(),
            2,
            "2 threads worked"
        );
        assert!(threads.iter().all(|t| t.clock == 30), "barrier at max end");
    }

    #[test]
    fn dynamic_empty_queue_ends_immediately() {
        let (mut sys, mut threads) = setup(2);
        let end = run_section_dynamic(&mut sys, &mut threads, VecDeque::new(), 10).unwrap();
        assert_eq!(end, vec![0, 0]);
    }

    #[test]
    fn dynamic_is_deterministic() {
        let run = || {
            let (mut sys, mut threads) = setup(3);
            let chunks: VecDeque<Box<dyn SectionBody>> =
                (0..9).map(|i| compute_body(i % 4 + 1, 50)).collect();
            run_section_dynamic(&mut sys, &mut threads, chunks, 10_000).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn determinism_two_identical_runs() {
        let run = || {
            let (mut sys, mut threads) = setup(4);
            // Each thread writes its own array: contention at the controller.
            let mut bodies: Vec<Box<dyn SectionBody>> = Vec::new();
            let addrs: Vec<_> = threads
                .iter()
                .map(|t| sys.malloc(t.tid, 16 * 4096).unwrap())
                .collect();
            for a in addrs {
                bodies.push(Box::new((0..64u64).map(move |i| Op::Access {
                    addr: a.offset(i * 1024 % (16 * 4096)),
                    rw: Rw::Write,
                })));
            }
            run_section(&mut sys, &mut threads, &mut bodies, 100_000).unwrap()
        };
        assert_eq!(run(), run(), "bit-identical repeat runs");
    }

    /// A seeded mixed op stream over `[base, base + len)`: irregular
    /// compute runs (consecutive computes exercise fusion, zero-cycle
    /// computes exercise tie-breaking) interleaved with loads and stores.
    fn mixed_ops(rng: &mut tint_hw::rng::SplitMix64, base: VirtAddr, len: u64, n: u64) -> Vec<Op> {
        (0..n)
            .map(|_| match rng.gen_range(5) {
                0 => Op::Compute(rng.gen_range(200)),
                1 => Op::Compute(0),
                2 => Op::Compute(rng.gen_range(7)),
                _ => Op::Access {
                    addr: base.offset(rng.gen_range(len / 64) * 64),
                    rw: if rng.gen_range(3) == 0 {
                        Rw::Write
                    } else {
                        Rw::Read
                    },
                },
            })
            .collect()
    }

    /// Everything one section run leaves behind: end times, barrier
    /// clocks, and the memory system's per-core and DRAM counters.
    type Outcome = (
        Vec<u64>,
        Vec<SimThread>,
        tint_mem::MemStats,
        tint_cache::HierarchyStats,
        tint_dram::DramStats,
    );

    /// Run one seeded serial → static → dynamic sequence on a fresh
    /// `n`-thread team, through the engine or through the oracle.
    fn run_mixed(n: usize, seed: u64, oracle: bool) -> Outcome {
        use tint_hw::rng::SplitMix64;
        const LEN: u64 = 32 * 4096;
        let (mut sys, mut threads) = setup(n);
        let mut rng = SplitMix64::new(seed);
        let shared = sys.malloc(threads[0].tid, 2 * LEN).unwrap();
        let own: Vec<VirtAddr> = threads
            .iter()
            .map(|t| sys.malloc(t.tid, LEN).unwrap())
            .collect();
        let mut end = Vec::new();

        let mut serial = mixed_ops(&mut rng, shared, 2 * LEN, 150).into_iter();
        end.push(if oracle {
            run_serial_reference(&mut sys, &mut threads, &mut serial, 1_000_000).unwrap()
        } else {
            run_serial(&mut sys, &mut threads, &mut serial, 1_000_000).unwrap()
        });

        let mut bodies: Vec<Box<dyn SectionBody>> = own
            .iter()
            .map(|&a| {
                let len = rng.gen_range(300);
                Box::new(mixed_ops(&mut rng, a, LEN, len).into_iter()) as Box<dyn SectionBody>
            })
            .collect();
        end.extend(if oracle {
            run_section_reference(&mut sys, &mut threads, &mut bodies, 1_000_000).unwrap()
        } else {
            run_section(&mut sys, &mut threads, &mut bodies, 1_000_000).unwrap()
        });

        let chunks: VecDeque<Box<dyn SectionBody>> = (0..2 * n + 3)
            .map(|_| {
                let len = rng.gen_range(120) + 1;
                Box::new(mixed_ops(&mut rng, shared, 2 * LEN, len).into_iter())
                    as Box<dyn SectionBody>
            })
            .collect();
        end.extend(if oracle {
            run_section_dynamic_reference(&mut sys, &mut threads, chunks, 1_000_000).unwrap()
        } else {
            run_section_dynamic(&mut sys, &mut threads, chunks, 1_000_000).unwrap()
        });

        let mem = sys.mem();
        (
            end,
            threads,
            mem.stats().clone(),
            mem.hierarchy().stats().clone(),
            mem.dram().stats().clone(),
        )
    }

    /// The engine loop reproduces the oracle's heap loops bit for bit on
    /// serial, static and dynamic sections, for teams up to and past the
    /// 16 threads of the evaluation machine.
    #[test]
    fn batched_section_matches_reference_bit_for_bit() {
        for n in [1, 4, 16, 17] {
            for seed in 0..3u64 {
                let engine = run_mixed(n, seed, false);
                let oracle = run_mixed(n, seed, true);
                assert_eq!(engine.0, oracle.0, "{n} threads, seed {seed}: end times");
                assert_eq!(engine.1, oracle.1, "{n} threads, seed {seed}: clocks");
                assert_eq!(engine.2, oracle.2, "{n} threads, seed {seed}: MemStats");
                assert_eq!(engine.3, oracle.3, "{n} threads, seed {seed}: caches");
                assert_eq!(engine.4, oracle.4, "{n} threads, seed {seed}: DRAM");
            }
        }
    }

    /// Dynamic scheduling alone, with chunk lengths drawn down to a single
    /// op and stores racing over one shared array.
    #[test]
    fn batched_dynamic_matches_reference_bit_for_bit() {
        use tint_hw::rng::SplitMix64;
        let build_chunks = |sys: &mut System,
                            threads: &[SimThread],
                            seed: u64|
         -> VecDeque<Box<dyn SectionBody + 'static>> {
            let a = sys.malloc(threads[0].tid, 64 * 4096).unwrap();
            let mut rng = SplitMix64::new(seed);
            (0..13)
                .map(|ci| {
                    let ops: Vec<Op> = (0..rng.gen_range(120) + 1)
                        .map(|_| match rng.gen_range(4) {
                            0 => Op::Compute(rng.gen_range(90)),
                            1 => Op::Compute(0),
                            _ => Op::Access {
                                addr: a.offset(
                                    (rng.gen_range(64 * 4096 / 64) * 64 + ci * 64) % (64 * 4096),
                                ),
                                rw: Rw::Write,
                            },
                        })
                        .collect();
                    Box::new(ops.into_iter()) as Box<dyn SectionBody>
                })
                .collect()
        };
        for seed in 0..4u64 {
            let (mut sys_a, mut thr_a) = setup(3);
            let chunks_a = build_chunks(&mut sys_a, &thr_a, seed);
            let end_a = run_section_dynamic(&mut sys_a, &mut thr_a, chunks_a, 1_000_000).unwrap();

            let (mut sys_b, mut thr_b) = setup(3);
            let chunks_b = build_chunks(&mut sys_b, &thr_b, seed);
            let end_b =
                run_section_dynamic_reference(&mut sys_b, &mut thr_b, chunks_b, 1_000_000).unwrap();

            assert_eq!(end_a, end_b, "seed {seed}: end times diverge");
            assert_eq!(thr_a, thr_b, "seed {seed}: barrier clocks diverge");
            assert_eq!(
                sys_a.mem().stats(),
                sys_b.mem().stats(),
                "seed {seed}: MemStats"
            );
            assert_eq!(
                sys_a.mem().dram().stats(),
                sys_b.mem().dram().stats(),
                "seed {seed}: DRAM"
            );
        }
    }

    /// A serial section alone, with a regular compute/store pattern.
    #[test]
    fn batched_serial_matches_reference() {
        let run = |oracle: bool| {
            let (mut sys, mut threads) = setup(2);
            let a = sys.malloc(threads[0].tid, 8 * 4096).unwrap();
            let ops: Vec<Op> = (0..200)
                .map(|i| {
                    if i % 3 == 0 {
                        Op::Compute(i)
                    } else {
                        Op::Access {
                            addr: a.offset((i * 64) % (8 * 4096)),
                            rw: Rw::Write,
                        }
                    }
                })
                .collect();
            let mut body = ops.into_iter();
            let end = if oracle {
                run_serial_reference(&mut sys, &mut threads, &mut body, 10_000).unwrap()
            } else {
                run_serial(&mut sys, &mut threads, &mut body, 10_000).unwrap()
            };
            (
                end,
                threads,
                sys.mem().stats().clone(),
                sys.mem().dram().stats().clone(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "exceeds the engine's limit of 256 (MAX_THREADS)")]
    fn team_above_index_limit_panics() {
        let mut sys = System::boot(MachineConfig::tiny());
        let t = SimThread {
            tid: Tid(0),
            core: CoreId(0),
            clock: 0,
        };
        let mut threads = vec![t; MAX_THREADS + 1];
        let mut bodies: Vec<Box<dyn SectionBody>> = (0..MAX_THREADS + 1)
            .map(|_| Box::new(std::iter::empty()) as Box<dyn SectionBody>)
            .collect();
        let _ = run_section(&mut sys, &mut threads, &mut bodies, 10_000);
    }

    #[test]
    fn fill_default_impl_respects_short_fill_contract() {
        let mut it = (0..10u64).map(Op::Compute);
        let mut buf = [Op::Compute(0); BATCH_OPS];
        let n = SectionBody::fill(&mut it, &mut buf);
        assert_eq!(n, 10, "short fill signals exhaustion");
        assert_eq!(buf[9], Op::Compute(9));
        let mut small = [Op::Compute(0); 4];
        let mut it2 = (0..10u64).map(Op::Compute);
        assert_eq!(SectionBody::fill(&mut it2, &mut small), 4, "full buffer");
        assert_eq!(SectionBody::fill(&mut it2, &mut small), 4);
        assert_eq!(SectionBody::fill(&mut it2, &mut small), 2, "then short");
    }
}
