//! Bit-exact digests of simulated outputs.
//!
//! A digest folds every output field as raw bits (floats through
//! `to_bits`), so any change to a simulated statistic changes it. The
//! fields are named explicitly rather than hashed through `Debug`, so a
//! field later added to a result type does not invalidate the pinned
//! digests while the existing outputs stay identical.

use tint_bench::ExpResult;

/// FNV-1a (64-bit) over little-endian words.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word.
    fn word(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Fold a float by its bit pattern.
    fn float(&mut self, v: f64) -> &mut Self {
        self.word(v.to_bits())
    }

    /// The digest so far.
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one experiment cell: every `ExpResult` field.
pub fn exp_result(r: &ExpResult) -> u64 {
    let m = &r.metrics;
    let mut d = Digest::default();
    d.word(m.threads as u64)
        .word(m.runtime)
        .word(m.serial_cycles)
        .word(m.parallel_sections as u64);
    for (&run, &idle) in m.thread_runtime.iter().zip(&m.thread_idle) {
        d.word(run).word(idle);
    }
    d.float(r.remote_fraction)
        .word(r.llc_interference)
        .float(r.row_hit_rate)
        .word(r.pages_moved)
        .word(r.page_faults)
        .word(r.fault_cycles)
        .float(r.l3_miss_rate)
        .float(r.mean_latency)
        .word(r.color_list_moves)
        .word(r.poisoned as u64);
    d.finish()
}

/// Digest of a whole workload round: the ordered unit digests.
pub(crate) fn combine(units: impl IntoIterator<Item = u64>) -> u64 {
    let mut d = Digest::default();
    for u in units {
        d.word(u);
    }
    d.finish()
}
