//! The paper's synthetic benchmark (§V.A, Fig. 10).
//!
//! Each thread allocates a large private region and writes it with the
//! alternating-stride pattern (M, M+1C, M−1C, M+2C, …) so every cache line
//! is touched exactly once: references punch through L1/L2/L3 and resolve
//! in DRAM, measuring DRAM write latency under the allocation policy —
//! including the page-fault placement behaviour, since the pattern also
//! first-touches every page.

use crate::traits::{Scale, Workload};
use tint_spmd::{Program, SimThread};
use tintmalloc::System;

/// The Fig. 10 synthetic benchmark.
#[derive(Debug, Clone)]
pub struct Synthetic {
    /// Region size per thread, in bytes.
    pub bytes_per_thread: u64,
}

impl Synthetic {
    /// Default size (2 MiB/thread) at the given scale.
    pub fn new(scale: Scale) -> Self {
        Self {
            bytes_per_thread: scale.bytes(2 << 20),
        }
    }
}

impl Workload for Synthetic {
    fn name(&self) -> &'static str {
        "synthetic"
    }

    fn fingerprint(&self) -> u64 {
        crate::fingerprint::Fingerprint::new(self.name())
            .u64(self.bytes_per_thread)
            .finish()
    }

    fn build(
        &self,
        sys: &mut System,
        threads: &[SimThread],
        _seed: u64,
    ) -> Result<Program<'static>, tint_kernel::Errno> {
        let line = sys.machine().mapping.line_size();
        let mut bodies: Vec<Box<dyn tint_spmd::SectionBody>> = Vec::new();
        for t in threads {
            let base = sys.malloc(t.tid, self.bytes_per_thread)?;
            bodies.push(Box::new(crate::patterns::AlternatingStride::new(
                base,
                self.bytes_per_thread,
                line,
            )));
        }
        Ok(Program::new().parallel(bodies))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tint_hw::machine::MachineConfig;
    use tint_hw::types::CoreId;

    #[test]
    fn runs_and_hits_dram() {
        let mut sys = System::boot(MachineConfig::tiny());
        let mut threads = SimThread::spawn_all(&mut sys, &[CoreId(0), CoreId(2)]);
        let w = Synthetic {
            bytes_per_thread: 64 * 4096,
        };
        let program = w.build(&mut sys, &threads, 0).unwrap();
        let m = program.run(&mut sys, &mut threads).unwrap();
        assert!(m.runtime > 0);
        // Every access should miss the caches (one touch per line).
        let st = sys.mem().stats().core(CoreId(0));
        assert_eq!(st.cache_resolved, 0, "no line is touched twice");
        assert!(st.dram_total() > 0);
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut sys = System::boot(MachineConfig::tiny());
            let mut threads = SimThread::spawn_all(&mut sys, &[CoreId(0), CoreId(1)]);
            let w = Synthetic {
                bytes_per_thread: 32 * 4096,
            };
            let program = w.build(&mut sys, &threads, 0).unwrap();
            program.run(&mut sys, &mut threads).unwrap().runtime
        };
        assert_eq!(run(), run());
    }
}
