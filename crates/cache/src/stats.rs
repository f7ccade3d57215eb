//! Per-core, per-level cache counters.

use tint_hw::types::CoreId;

/// Counters for one core's view of the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCacheStats {
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L3 (LLC) hits.
    pub l3_hits: u64,
    /// L3 misses — these go to DRAM.
    pub l3_misses: u64,
    /// Lines this core had resident in L3 that *another* core evicted.
    /// The paper's LLC-interference phenomenon (Fig. 9), made countable.
    pub l3_evicted_by_others: u64,
}

impl CoreCacheStats {
    /// Total accesses issued by the core.
    pub fn accesses(&self) -> u64 {
        self.l1_hits + self.l1_misses
    }

    /// L3 miss rate relative to L3 lookups; `0` when no L3 lookups.
    pub fn l3_miss_rate(&self) -> f64 {
        let lookups = self.l3_hits + self.l3_misses;
        if lookups == 0 {
            0.0
        } else {
            self.l3_misses as f64 / lookups as f64
        }
    }
}

/// Whole-hierarchy counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// One entry per core.
    pub cores: Vec<CoreCacheStats>,
}

impl HierarchyStats {
    /// Zeroed stats for `cores` cores.
    pub fn new(cores: usize) -> Self {
        Self {
            cores: vec![CoreCacheStats::default(); cores],
        }
    }

    /// Stats for one core.
    pub fn core(&self, c: CoreId) -> &CoreCacheStats {
        &self.cores[c.index()]
    }

    /// Total cross-core LLC evictions suffered machine-wide.
    pub fn total_llc_interference(&self) -> u64 {
        self.cores.iter().map(|c| c.l3_evicted_by_others).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let s = CoreCacheStats {
            l1_hits: 6,
            l1_misses: 4,
            l3_hits: 1,
            l3_misses: 3,
            ..Default::default()
        };
        assert_eq!(s.accesses(), 10);
        assert_eq!(s.l3_miss_rate(), 0.75);
        assert_eq!(CoreCacheStats::default().l3_miss_rate(), 0.0);
    }

    #[test]
    fn interference_totals() {
        let mut h = HierarchyStats::new(2);
        h.cores[0].l3_evicted_by_others = 5;
        h.cores[1].l3_evicted_by_others = 2;
        assert_eq!(h.total_llc_interference(), 7);
        assert_eq!(h.core(CoreId(0)).l3_evicted_by_others, 5);
    }
}
