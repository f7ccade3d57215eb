//! Counters collected by the DRAM simulator.

use crate::bank::RowOutcome;
use tint_hw::types::{BankColor, NodeId};

/// Per-bank counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row misses (activate on a closed bank).
    pub row_misses: u64,
    /// Row conflicts (precharge + activate).
    pub row_conflicts: u64,
    /// Cycles requests spent waiting for this bank to become free.
    pub bank_wait_cycles: u64,
}

impl BankStats {
    /// Total accesses to the bank.
    pub fn accesses(&self) -> u64 {
        self.row_hits + self.row_misses + self.row_conflicts
    }

    /// Row-buffer hit rate in `[0, 1]`; `0` when idle.
    pub fn hit_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.row_hits as f64 / n as f64
        }
    }

    pub(crate) fn record(&mut self, outcome: RowOutcome, waited: u64) {
        match outcome {
            RowOutcome::Hit => self.row_hits += 1,
            RowOutcome::Miss => self.row_misses += 1,
            RowOutcome::Conflict => self.row_conflicts += 1,
        }
        self.bank_wait_cycles += waited;
    }
}

/// Machine-wide DRAM counters, indexable per bank and per node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramStats {
    /// One entry per bank color (global flattened bank coordinate).
    pub banks: Vec<BankStats>,
    /// Requests served per node (controller).
    pub node_requests: Vec<u64>,
    /// Cycles spent waiting at controller front-ends, total.
    pub ctrl_wait_cycles: u64,
    /// Cycles spent waiting for channel data buses, total.
    pub channel_wait_cycles: u64,
    /// Total requests.
    pub requests: u64,
    /// Sum of end-to-end DRAM latencies (excludes cache/interconnect).
    pub total_latency: u64,
}

impl DramStats {
    /// Zeroed stats for `banks` bank colors over `nodes` nodes.
    pub fn new(banks: usize, nodes: usize) -> Self {
        Self {
            banks: vec![BankStats::default(); banks],
            node_requests: vec![0; nodes],
            ..Default::default()
        }
    }

    /// Stats for one bank color.
    pub fn bank(&self, bc: BankColor) -> &BankStats {
        &self.banks[bc.index()]
    }

    /// Requests served by one node's controller.
    pub fn node(&self, n: NodeId) -> u64 {
        self.node_requests[n.index()]
    }

    /// Mean end-to-end DRAM latency per request; `0` when idle.
    pub fn mean_latency(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.requests as f64
        }
    }

    /// Aggregate row-buffer hit rate.
    pub fn hit_rate(&self) -> f64 {
        let (hits, total) = self
            .banks
            .iter()
            .fold((0u64, 0u64), |(h, t), b| (h + b.row_hits, t + b.accesses()));
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_stats_record_and_rate() {
        let mut s = BankStats::default();
        s.record(RowOutcome::Hit, 2);
        s.record(RowOutcome::Hit, 0);
        s.record(RowOutcome::Conflict, 5);
        s.record(RowOutcome::Miss, 0);
        assert_eq!(s.accesses(), 4);
        assert_eq!(s.hit_rate(), 0.5);
        assert_eq!(s.bank_wait_cycles, 7);
    }

    #[test]
    fn empty_rates_are_zero() {
        let s = BankStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        let d = DramStats::new(4, 2);
        assert_eq!(d.mean_latency(), 0.0);
        assert_eq!(d.hit_rate(), 0.0);
    }

    #[test]
    fn dram_stats_aggregate_hit_rate() {
        let mut d = DramStats::new(2, 1);
        d.banks[0].record(RowOutcome::Hit, 0);
        d.banks[1].record(RowOutcome::Conflict, 0);
        assert_eq!(d.hit_rate(), 0.5);
    }
}
