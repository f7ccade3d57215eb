//! Per-core memory-system counters: locality, latency, breakdown.

use tint_hw::types::CoreId;

/// Counters for one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreMemStats {
    /// Total accesses issued.
    pub accesses: u64,
    /// Accesses resolved in the cache hierarchy (no DRAM).
    pub cache_resolved: u64,
    /// DRAM accesses served by the core's local node.
    pub dram_local: u64,
    /// DRAM accesses served by the other node on the same socket (1 hop).
    pub dram_same_socket: u64,
    /// DRAM accesses served across sockets (2 hops).
    pub dram_cross_socket: u64,
    /// Sum of end-to-end latencies.
    pub total_latency: u64,
    /// Latency spent in the cache-lookup chain.
    pub hierarchy_cycles: u64,
    /// Latency spent on the interconnect (hop + link wait).
    pub interconnect_cycles: u64,
    /// Latency spent in DRAM (queueing + device + bus).
    pub dram_cycles: u64,
}

impl CoreMemStats {
    /// DRAM accesses of any locality.
    pub fn dram_total(&self) -> u64 {
        self.dram_local + self.dram_same_socket + self.dram_cross_socket
    }

    /// Fraction of DRAM accesses that were remote; `0` when no DRAM traffic.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.dram_total();
        if total == 0 {
            0.0
        } else {
            (self.dram_same_socket + self.dram_cross_socket) as f64 / total as f64
        }
    }

    /// Mean end-to-end access latency; `0` when idle.
    pub fn mean_latency(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.accesses as f64
        }
    }
}

/// Machine-wide memory-system counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// One entry per core.
    pub cores: Vec<CoreMemStats>,
}

impl MemStats {
    /// Zeroed stats for `n` cores.
    pub fn new(n: usize) -> Self {
        Self {
            cores: vec![CoreMemStats::default(); n],
        }
    }

    /// Stats for one core.
    pub fn core(&self, c: CoreId) -> &CoreMemStats {
        &self.cores[c.index()]
    }

    /// Machine-wide remote DRAM fraction.
    pub fn remote_fraction(&self) -> f64 {
        let (remote, total) = self.cores.iter().fold((0u64, 0u64), |(r, t), c| {
            (
                r + c.dram_same_socket + c.dram_cross_socket,
                t + c.dram_total(),
            )
        });
        if total == 0 {
            0.0
        } else {
            remote as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions() {
        let s = CoreMemStats {
            dram_local: 6,
            dram_same_socket: 3,
            dram_cross_socket: 1,
            ..Default::default()
        };
        assert_eq!(s.dram_total(), 10);
        assert!((s.remote_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(CoreMemStats::default().remote_fraction(), 0.0);
    }

    #[test]
    fn mean_latency() {
        let s = CoreMemStats {
            accesses: 4,
            total_latency: 100,
            ..Default::default()
        };
        assert_eq!(s.mean_latency(), 25.0);
    }

    #[test]
    fn machine_wide_fraction() {
        let mut m = MemStats::new(2);
        m.cores[0].dram_local = 1;
        m.cores[1].dram_cross_socket = 1;
        assert_eq!(m.remote_fraction(), 0.5);
    }
}
