//! A generic set-associative cache with true-LRU replacement.
//!
//! Lines are identified by *line address* (`addr >> line_shift`). Each line
//! optionally records an owner tag (the core that filled it) so the shared
//! LLC can attribute evictions to inter-task interference.

use tint_hw::types::{CoreId, PhysAddr};

/// Fibonacci multiplicative spread: mixes all input bits into the high
/// output bits (take the top `k` bits for a `k`-bit hash index).
#[inline]
fn fibonacci_spread(v: u64) -> u64 {
    v.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Bits a line address may occupy (55-bit physical space / 64 B lines);
/// bounds-checked in debug builds so a tag word is always a pure line
/// address.
const ADDR_BITS: u32 = 56;
/// Mask a line address must fit under.
const ADDR_MASK: u64 = (1 << ADDR_BITS) - 1;

/// Result of a cache fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line address that was evicted.
    pub line_addr: u64,
    /// Core that owned the evicted line.
    pub owner: CoreId,
}

/// How a physical address maps to a set index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexMode {
    /// Plain modulo indexing: `(addr >> line_shift) & (sets - 1)`.
    Modulo,
    /// XOR-fold every address bit above the line offset into the index
    /// (a hash-indexed cache). Used for the private L1/L2, whose modulo
    /// index would otherwise be restricted by the bank-select bits of
    /// bank-colored pages — an interaction page coloring does not have on
    /// real parts, where sub-page interleave bits feed the private indices.
    Hash,
    /// Color-preserving hashed indexing, as shared LLCs use: the color bit
    /// field `[color_low, color_low + color_bits)` becomes the *top* bits of
    /// the set index (so page colors partition the cache into contiguous
    /// slices, the property page coloring needs), while every remaining
    /// address bit above the line offset is XOR-folded into the low index
    /// bits (so pages spread over the whole slice regardless of which bank/
    /// rank/node/row they live in).
    ColorHash {
        /// Lowest bit of the color field.
        color_low: u32,
        /// Width of the color field.
        color_bits: u32,
    },
}

/// A set-associative cache with LRU replacement.
///
/// Storage is struct-of-arrays: a flat `tags` array of `sets × assoc` line
/// addresses (set `i` owns `tags[i*assoc .. (i+1)*assoc]`), a parallel
/// `owners` byte array, and a per-set occupancy count — no per-set
/// allocations, so a lookup touches exactly one contiguous tag stride.
/// Splitting the owner byte out of the tag word keeps the hot scan a pure
/// `u64 == u64` compare over a dense stride (no mask, trivially
/// vectorizable); the cold owner bytes are only touched on hits and
/// evictions. Each occupied stride is kept in LRU
/// order (most recent last); with the associativities in play (2–16) a
/// rotate within the stride beats fancier structures.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Flat line-address storage, `set_count * assoc` slots.
    tags: Vec<u64>,
    /// Owning core per slot, parallel to `tags` (core ≤ 255 asserted).
    owners: Vec<u8>,
    /// Occupied slots per set (0..=assoc; assoc ≤ 255 asserted).
    lens: Vec<u8>,
    set_count: usize,
    assoc: usize,
    line_shift: u32,
    set_mask: u64,
    index_mode: IndexMode,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Build a cache with `sets` sets (power of two), `assoc` ways, and
    /// `line_shift` log2-line-size, using plain modulo indexing.
    pub fn new(sets: usize, assoc: usize, line_shift: u32) -> Self {
        Self::with_index_mode(sets, assoc, line_shift, IndexMode::Modulo)
    }

    /// Build a cache with an explicit [`IndexMode`].
    pub fn with_index_mode(
        sets: usize,
        assoc: usize,
        line_shift: u32,
        index_mode: IndexMode,
    ) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(assoc > 0 && assoc <= u8::MAX as usize);
        match index_mode {
            IndexMode::ColorHash {
                color_low,
                color_bits,
            } => {
                let idx_bits = sets.trailing_zeros();
                assert!(
                    color_bits < idx_bits,
                    "color field must leave hash bits in the index"
                );
                assert!(color_low >= line_shift, "color field below the line offset");
            }
            IndexMode::Hash => {
                // `set_index` shifts by `64 - idx_bits`; a 1-set cache would
                // shift by 64 (overflow). A 1-set cache is fully associative
                // anyway — use Modulo for it.
                assert!(sets >= 2, "hash indexing needs at least 2 sets");
            }
            IndexMode::Modulo => {}
        }
        Self {
            tags: vec![0; sets * assoc],
            owners: vec![0; sets * assoc],
            lens: vec![0; sets],
            set_count: sets,
            assoc,
            line_shift,
            set_mask: (sets - 1) as u64,
            index_mode,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.set_count
    }

    /// Associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.tags.len() as u64 * (1u64 << self.line_shift)
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Count a hit that the hierarchy's hot-line filter short-circuited.
    ///
    /// The filter only fires when a full [`Self::access`] would hit the MRU
    /// way with the owner already set to the accessing core — the rotate is
    /// a no-op and the owner write is idempotent — so the lookup can be
    /// skipped entirely as long as this counter still moves.
    #[inline]
    pub fn record_filter_hit(&mut self) {
        self.hits += 1;
    }

    /// Set index of an address.
    #[inline]
    pub fn set_index(&self, addr: PhysAddr) -> usize {
        match self.index_mode {
            IndexMode::Modulo => ((addr.0 >> self.line_shift) & self.set_mask) as usize,
            IndexMode::Hash => {
                let idx_bits = self.set_mask.count_ones();
                let v = addr.0 >> self.line_shift;
                (fibonacci_spread(v) >> (64 - idx_bits)) as usize
            }
            IndexMode::ColorHash {
                color_low,
                color_bits,
            } => {
                let idx_bits = self.set_mask.count_ones();
                let non_color = idx_bits - color_bits;
                let color = (addr.0 >> color_low) & ((1u64 << color_bits) - 1);
                // Every address bit above the line offset except the color
                // field, concatenated and spread multiplicatively.
                let low_bits = color_low - self.line_shift;
                let low = (addr.0 >> self.line_shift) & ((1u64 << low_bits) - 1);
                let high = addr.0 >> (color_low + color_bits);
                let v = (high << low_bits) | low;
                let spread = fibonacci_spread(v) >> (64 - non_color);
                ((color << non_color) | spread) as usize
            }
        }
    }

    #[inline]
    fn line_addr(&self, addr: PhysAddr) -> u64 {
        let la = addr.0 >> self.line_shift;
        debug_assert!(la <= ADDR_MASK, "line address must fit the packed field");
        la
    }

    /// Look up and touch `addr` for `core`. On a hit the line moves to MRU;
    /// on a miss the line is filled (evicting LRU if the set is full) and
    /// the eviction, if any, is returned.
    ///
    /// Returns `(hit, eviction)`.
    pub fn access(&mut self, core: CoreId, addr: PhysAddr) -> (bool, Option<Eviction>) {
        debug_assert!(core.index() < 256, "owner must fit a byte");
        let la = self.line_addr(addr);
        let idx = self.set_index(addr);
        let base = idx * self.assoc;
        let len = self.lens[idx] as usize;
        let tags = &mut self.tags[base..base + len];
        if let Some(pos) = tags.iter().position(|&t| t == la) {
            // Hit: move to MRU (end), refresh owner.
            tags[pos..].rotate_left(1);
            let owners = &mut self.owners[base..base + len];
            owners[pos..].rotate_left(1);
            owners[len - 1] = core.index() as u8;
            self.hits += 1;
            return (true, None);
        }
        self.misses += 1;
        if len == self.assoc {
            // Evict LRU (front), shift the rest down, fill the MRU slot.
            let victim = tags[0];
            tags.rotate_left(1);
            tags[len - 1] = la;
            let owners = &mut self.owners[base..base + len];
            let victim_owner = owners[0];
            owners.rotate_left(1);
            owners[len - 1] = core.index() as u8;
            (
                false,
                Some(Eviction {
                    line_addr: victim,
                    owner: CoreId(victim_owner as usize),
                }),
            )
        } else {
            self.tags[base + len] = la;
            self.owners[base + len] = core.index() as u8;
            self.lens[idx] = (len + 1) as u8;
            (false, None)
        }
    }

    /// Non-mutating lookup: does the cache currently hold `addr`?
    pub fn probe(&self, addr: PhysAddr) -> bool {
        let la = self.line_addr(addr);
        let idx = self.set_index(addr);
        let base = idx * self.assoc;
        self.tags[base..base + self.lens[idx] as usize].contains(&la)
    }

    /// Drop a line if present (used for invalidation tests).
    pub fn invalidate(&mut self, addr: PhysAddr) -> bool {
        let la = self.line_addr(addr);
        let idx = self.set_index(addr);
        let base = idx * self.assoc;
        let len = self.lens[idx] as usize;
        let tags = &mut self.tags[base..base + len];
        if let Some(pos) = tags.iter().position(|&t| t == la) {
            tags[pos..].rotate_left(1);
            self.owners[base..base + len][pos..].rotate_left(1);
            self.lens[idx] = (len - 1) as u8;
            true
        } else {
            false
        }
    }

    /// Number of resident lines (for occupancy assertions).
    pub fn resident_lines(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// Number of resident lines owned by `core`.
    pub fn resident_lines_of(&self, core: CoreId) -> usize {
        self.lens
            .iter()
            .enumerate()
            .flat_map(|(i, &len)| self.owners[i * self.assoc..i * self.assoc + len as usize].iter())
            .filter(|&&o| o as usize == core.index())
            .count()
    }

    /// Zero the hit/miss counters (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Empty the cache and reset stats.
    pub fn flush(&mut self) {
        self.lens.fill(0);
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);

    fn cache() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B = 512 B.
        SetAssocCache::new(4, 2, 6)
    }

    #[test]
    fn geometry() {
        let c = cache();
        assert_eq!(c.set_count(), 4);
        assert_eq!(c.assoc(), 2);
        assert_eq!(c.capacity_bytes(), 512);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache();
        let a = PhysAddr(0x1000);
        assert_eq!(c.access(C0, a), (false, None));
        assert!(c.access(C0, a).0);
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn same_line_different_offset_hits() {
        let mut c = cache();
        c.access(C0, PhysAddr(0x1000));
        assert!(c.access(C0, PhysAddr(0x103f)).0, "same 64B line");
        assert!(!c.access(C0, PhysAddr(0x1040)).0, "next line");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = cache();
        // Three lines mapping to set 0: line addresses 0, 4, 8 (set = la & 3).
        let a = PhysAddr(0 << 6);
        let b = PhysAddr(4 << 6);
        let d = PhysAddr(8 << 6);
        c.access(C0, a);
        c.access(C0, b);
        // Touch a so b becomes LRU.
        c.access(C0, a);
        let (_, ev) = c.access(C0, d);
        assert_eq!(ev.unwrap().line_addr, 4, "b was LRU");
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn eviction_reports_owner() {
        let mut c = cache();
        let a = PhysAddr(0 << 6);
        let b = PhysAddr(4 << 6);
        let d = PhysAddr(8 << 6);
        c.access(C1, a);
        c.access(C0, b);
        let (_, ev) = c.access(C0, d);
        let ev = ev.unwrap();
        assert_eq!(ev.owner, C1, "victim was core 1's line");
    }

    #[test]
    fn hit_refreshes_owner() {
        let mut c = cache();
        let a = PhysAddr(0x40);
        c.access(C0, a);
        c.access(C1, a);
        assert_eq!(c.resident_lines_of(C1), 1);
        assert_eq!(c.resident_lines_of(C0), 0);
    }

    #[test]
    fn disjoint_sets_no_eviction() {
        let mut c = cache();
        // 8 lines across 4 sets, 2 per set: fits exactly.
        for la in 0..8u64 {
            let (_, ev) = c.access(C0, PhysAddr(la << 6));
            assert!(ev.is_none());
        }
        assert_eq!(c.resident_lines(), 8);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = cache();
        let a = PhysAddr(0x1000);
        c.access(C0, a);
        assert!(c.invalidate(a));
        assert!(!c.probe(a));
        assert!(!c.invalidate(a));
    }

    #[test]
    fn flush_empties() {
        let mut c = cache();
        c.access(C0, PhysAddr(0x1000));
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!((c.hits(), c.misses()), (0, 0));
    }

    #[test]
    fn probe_does_not_count() {
        let mut c = cache();
        c.access(C0, PhysAddr(0));
        let before = (c.hits(), c.misses());
        c.probe(PhysAddr(0));
        c.probe(PhysAddr(0x4000));
        assert_eq!((c.hits(), c.misses()), before);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        SetAssocCache::new(3, 2, 6);
    }

    /// The SoA storage must be state-identical to the obvious per-set
    /// `Vec<(line, owner)>` LRU model: same hit/miss/eviction result on
    /// every step and the same resident contents afterwards, across random
    /// access/probe/invalidate streams (≥4 seeds × 20k steps).
    #[test]
    fn soa_matches_naive_model_bit_for_bit() {
        use tint_hw::rng::SplitMix64;

        struct Naive {
            sets: Vec<Vec<(u64, CoreId)>>,
            assoc: usize,
        }
        impl Naive {
            fn access(&mut self, idx: usize, la: u64, core: CoreId) -> (bool, Option<Eviction>) {
                let set = &mut self.sets[idx];
                if let Some(pos) = set.iter().position(|&(l, _)| l == la) {
                    set.remove(pos);
                    set.push((la, core));
                    return (true, None);
                }
                let ev = if set.len() == self.assoc {
                    let (l, o) = set.remove(0);
                    Some(Eviction {
                        line_addr: l,
                        owner: o,
                    })
                } else {
                    None
                };
                set.push((la, core));
                (false, ev)
            }
        }

        for seed in 0..4u64 {
            let mut rng = SplitMix64::new(0x50A ^ seed);
            // 16 sets × 4 ways, hash-indexed like the private levels.
            let mut c = SetAssocCache::with_index_mode(16, 4, 6, IndexMode::Hash);
            let mut n = Naive {
                sets: vec![Vec::new(); 16],
                assoc: 4,
            };
            for step in 0..20_000u64 {
                let addr = PhysAddr(rng.gen_range(1 << 16) & !0x3F);
                let core = CoreId(rng.gen_range(4) as usize);
                match rng.gen_range(10) {
                    0 => {
                        let idx = c.set_index(addr);
                        let la = addr.0 >> 6;
                        let got = c.invalidate(addr);
                        let set = &mut n.sets[idx];
                        let want = set.iter().position(|&(l, _)| l == la).map(|p| {
                            set.remove(p);
                        });
                        assert_eq!(got, want.is_some(), "invalidate step {step}");
                    }
                    1 => {
                        let idx = c.set_index(addr);
                        let la = addr.0 >> 6;
                        let want = n.sets[idx].iter().any(|&(l, _)| l == la);
                        assert_eq!(c.probe(addr), want, "probe step {step}");
                    }
                    _ => {
                        let idx = c.set_index(addr);
                        let la = addr.0 >> 6;
                        let want = n.access(idx, la, core);
                        assert_eq!(c.access(core, addr), want, "access step {step}");
                    }
                }
            }
            // Final state identity: every resident line, per owner.
            assert_eq!(
                c.resident_lines(),
                n.sets.iter().map(Vec::len).sum::<usize>()
            );
            for core in 0..4 {
                let want = n
                    .sets
                    .iter()
                    .flatten()
                    .filter(|&&(_, o)| o == CoreId(core))
                    .count();
                assert_eq!(c.resident_lines_of(CoreId(core)), want, "owner {core}");
            }
            for (idx, set) in n.sets.iter().enumerate() {
                for &(la, _) in set {
                    assert!(c.probe(PhysAddr(la << 6)), "line {la:#x} in set {idx}");
                }
            }
        }
    }
}
