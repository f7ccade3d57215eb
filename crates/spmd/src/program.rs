//! Fork-join program structure and the program runner.
//!
//! A [`Program`] is a sequence of sections; running it produces
//! [`crate::metrics::RunMetrics`]. Workload crates build
//! programs by allocating their data on the simulated heap and returning
//! section bodies that walk it.

use crate::engine::{run_section, run_section_dynamic, run_serial, SectionBody, SimThread};
use crate::metrics::{RunMetrics, SectionOutcome};
use crate::oracle::{run_section_dynamic_reference, run_section_reference, run_serial_reference};
use tint_kernel::Errno;
use tintmalloc::System;

/// One program section.
pub enum Section<'a> {
    /// Serial work on the master thread.
    Serial(Box<dyn SectionBody + 'a>),
    /// A parallel section: one body per thread, implicit barrier at the end.
    Parallel(Vec<Box<dyn SectionBody + 'a>>),
    /// A dynamically-scheduled parallel section (OpenMP `schedule(dynamic)`):
    /// a queue of chunks; threads pull the next chunk as they finish.
    ParallelDynamic(Vec<Box<dyn SectionBody + 'a>>),
}

/// A fork-join program over a fixed thread team.
pub struct Program<'a> {
    sections: Vec<Section<'a>>,
    /// Per-section operation budget (runaway-body guard).
    pub ops_budget: u64,
}

impl<'a> Program<'a> {
    /// Empty program with a default per-section budget.
    pub fn new() -> Self {
        Self {
            sections: Vec::new(),
            ops_budget: 500_000_000,
        }
    }

    /// Append a serial section.
    pub fn serial(mut self, body: Box<dyn SectionBody + 'a>) -> Self {
        self.sections.push(Section::Serial(body));
        self
    }

    /// Append a parallel section (one body per thread).
    pub fn parallel(mut self, bodies: Vec<Box<dyn SectionBody + 'a>>) -> Self {
        self.sections.push(Section::Parallel(bodies));
        self
    }

    /// Append a dynamically-scheduled parallel section (a chunk queue).
    pub fn parallel_dynamic(mut self, chunks: Vec<Box<dyn SectionBody + 'a>>) -> Self {
        self.sections.push(Section::ParallelDynamic(chunks));
        self
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True when no sections were added.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Execute the program on `threads`, folding parallel-section outcomes
    /// into [`RunMetrics`] per Algorithm 3.
    pub fn run(self, sys: &mut System, threads: &mut [SimThread]) -> Result<RunMetrics, Errno> {
        self.fold(sys, threads, false)
    }

    /// [`Self::run`] on the test oracle: every section goes through the
    /// one-op-at-a-time heap loops of [`crate::oracle`], with the same
    /// section/metrics fold. Differential tests compare the two.
    pub fn run_reference(
        self,
        sys: &mut System,
        threads: &mut [SimThread],
    ) -> Result<RunMetrics, Errno> {
        self.fold(sys, threads, true)
    }

    fn fold(
        self,
        sys: &mut System,
        threads: &mut [SimThread],
        oracle: bool,
    ) -> Result<RunMetrics, Errno> {
        let start = threads.iter().map(|t| t.clock).max().unwrap_or(0);
        for t in threads.iter_mut() {
            t.clock = start;
        }
        let mut metrics = RunMetrics::new(threads.len());
        for section in self.sections {
            let sec_start = threads[0].clock;
            match section {
                Section::Serial(mut body) => {
                    let body = body.as_mut();
                    let end = if oracle {
                        run_serial_reference(sys, threads, body, self.ops_budget)?
                    } else {
                        run_serial(sys, threads, body, self.ops_budget)?
                    };
                    metrics.serial_cycles += end - sec_start;
                }
                Section::Parallel(mut bodies) => {
                    let end = if oracle {
                        run_section_reference(sys, threads, &mut bodies, self.ops_budget)?
                    } else {
                        run_section(sys, threads, &mut bodies, self.ops_budget)?
                    };
                    metrics.add_section(&SectionOutcome::new(sec_start, end));
                }
                Section::ParallelDynamic(chunks) => {
                    let chunks = chunks.into_iter().collect();
                    let end = if oracle {
                        run_section_dynamic_reference(sys, threads, chunks, self.ops_budget)?
                    } else {
                        run_section_dynamic(sys, threads, chunks, self.ops_budget)?
                    };
                    metrics.add_section(&SectionOutcome::new(sec_start, end));
                }
            }
        }
        let finish = threads.iter().map(|t| t.clock).max().unwrap_or(start);
        metrics.runtime = finish - start;
        Ok(metrics)
    }
}

impl Default for Program<'_> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Op;
    use tint_hw::machine::MachineConfig;
    use tint_hw::types::CoreId;

    fn setup(n: usize) -> (System, Vec<SimThread>) {
        let mut sys = System::boot(MachineConfig::tiny());
        let cores: Vec<_> = (0..n).map(CoreId).collect();
        let threads = SimThread::spawn_all(&mut sys, &cores);
        (sys, threads)
    }

    fn compute(steps: u64, each: u64) -> Box<dyn SectionBody + 'static> {
        Box::new((0..steps).map(move |_| Op::Compute(each)))
    }

    #[test]
    fn serial_parallel_serial_program() {
        let (mut sys, mut threads) = setup(2);
        let m = Program::new()
            .serial(compute(2, 50)) // 100 cycles serial
            .parallel(vec![compute(3, 100), compute(1, 100)]) // barrier at +300
            .serial(compute(1, 25)) // 25 cycles serial
            .run(&mut sys, &mut threads)
            .unwrap();
        assert_eq!(m.runtime, 425);
        assert_eq!(m.serial_cycles, 125);
        assert_eq!(m.thread_runtime, vec![300, 100]);
        assert_eq!(m.thread_idle, vec![0, 200]);
        assert_eq!(m.parallel_sections, 1);
    }

    #[test]
    fn multiple_parallel_sections_accumulate_idle() {
        let (mut sys, mut threads) = setup(2);
        let m = Program::new()
            .parallel(vec![compute(2, 100), compute(1, 100)])
            .parallel(vec![compute(1, 100), compute(4, 100)])
            .run(&mut sys, &mut threads)
            .unwrap();
        assert_eq!(m.thread_idle, vec![300, 100]);
        assert_eq!(m.total_idle(), 400);
        assert_eq!(m.runtime, 600);
    }

    #[test]
    fn empty_program_runs() {
        let (mut sys, mut threads) = setup(1);
        let m = Program::new().run(&mut sys, &mut threads).unwrap();
        assert_eq!(m.runtime, 0);
        assert!(Program::new().is_empty());
    }

    #[test]
    fn program_len_counts_sections() {
        let p = Program::new()
            .serial(compute(1, 1))
            .parallel(vec![compute(1, 1)]);
        assert_eq!(p.len(), 2);
    }
}
