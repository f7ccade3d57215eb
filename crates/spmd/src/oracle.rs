//! The engine's test oracle: the original one-op-at-a-time heap loops.
//!
//! Each function here pops the runnable thread with the smallest
//! `(clock, index)` from a `BinaryHeap`, executes exactly one operation
//! and pushes the thread back. This is the scheduling rule written down
//! as plainly as possible. [`crate::engine`]'s single batched loop must
//! reproduce it bit for bit, and the differential tests check that.
//!
//! Nothing in production runs these loops. Tests reach them only by an
//! explicit call, directly or through [`crate::Program::run_reference`].
//! They charge the op budget as the reference loops always have: one op
//! per executed op and per parallel body exhaustion, none for a serial
//! body's final `None`.

use crate::engine::{Op, SectionBody, SimThread};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use tint_kernel::Errno;
use tintmalloc::System;

/// The reference parallel-section loop (one op at a time, min-heap).
pub fn run_section_reference(
    sys: &mut System,
    threads: &mut [SimThread],
    bodies: &mut [Box<dyn SectionBody + '_>],
    ops_budget: u64,
) -> Result<Vec<u64>, Errno> {
    assert_eq!(threads.len(), bodies.len(), "one body per thread");
    let n = threads.len();
    let mut end = vec![0u64; n];
    // Min-heap of (clock, thread index).
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..n).map(|i| Reverse((threads[i].clock, i))).collect();
    let mut ops = 0u64;
    while let Some(Reverse((clock, i))) = heap.pop() {
        debug_assert_eq!(clock, threads[i].clock);
        match bodies[i].next_op() {
            Some(Op::Compute(c)) => {
                threads[i].clock += c;
                heap.push(Reverse((threads[i].clock, i)));
            }
            Some(Op::Access { addr, rw }) => {
                let acc = sys.access(threads[i].tid, addr, rw, threads[i].clock)?;
                threads[i].clock += acc.latency;
                heap.push(Reverse((threads[i].clock, i)));
            }
            None => {
                end[i] = threads[i].clock;
            }
        }
        ops += 1;
        assert!(
            ops <= ops_budget,
            "section exceeded its operation budget ({ops_budget}); runaway body?"
        );
    }
    // The implicit barrier: every thread resumes at the latest end time.
    let barrier = end.iter().copied().max().unwrap_or(0);
    for t in threads.iter_mut() {
        t.clock = barrier;
    }
    Ok(end)
}

/// The reference dynamic-section loop (one op at a time, min-heap).
pub fn run_section_dynamic_reference(
    sys: &mut System,
    threads: &mut [SimThread],
    mut chunks: VecDeque<Box<dyn SectionBody + '_>>,
    ops_budget: u64,
) -> Result<Vec<u64>, Errno> {
    let n = threads.len();
    let mut end = vec![0u64; n];
    let mut current: Vec<Option<Box<dyn SectionBody + '_>>> = (0..n).map(|_| None).collect();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..n).map(|i| Reverse((threads[i].clock, i))).collect();
    let mut ops = 0u64;
    while let Some(Reverse((_, i))) = heap.pop() {
        // Ensure the thread has a chunk; pull the next one if needed.
        if current[i].is_none() {
            current[i] = chunks.pop_front();
        }
        let Some(body) = current[i].as_mut() else {
            end[i] = threads[i].clock; // queue drained: this thread is done
            continue;
        };
        match body.next_op() {
            Some(Op::Compute(c)) => threads[i].clock += c,
            Some(Op::Access { addr, rw }) => {
                let acc = sys.access(threads[i].tid, addr, rw, threads[i].clock)?;
                threads[i].clock += acc.latency;
            }
            None => {
                current[i] = None; // chunk finished; try the queue next turn
            }
        }
        heap.push(Reverse((threads[i].clock, i)));
        ops += 1;
        assert!(
            ops <= ops_budget,
            "dynamic section exceeded its operation budget ({ops_budget})"
        );
    }
    let barrier = end.iter().copied().max().unwrap_or(0);
    for t in threads.iter_mut() {
        t.clock = barrier;
    }
    Ok(end)
}

/// The reference serial-section loop (one op at a time on thread 0).
pub fn run_serial_reference(
    sys: &mut System,
    threads: &mut [SimThread],
    body: &mut (dyn SectionBody + '_),
    ops_budget: u64,
) -> Result<u64, Errno> {
    let master = &mut threads[0];
    let mut ops = 0u64;
    while let Some(op) = body.next_op() {
        match op {
            Op::Compute(c) => master.clock += c,
            Op::Access { addr, rw } => {
                let acc = sys.access(master.tid, addr, rw, master.clock)?;
                master.clock += acc.latency;
            }
        }
        ops += 1;
        assert!(ops <= ops_budget, "serial section exceeded its budget");
    }
    let end = threads[0].clock;
    for t in threads.iter_mut() {
        t.clock = end;
    }
    Ok(end)
}
