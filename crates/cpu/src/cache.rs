//! Set-associative write-back cache with true-LRU replacement.
//!
//! Used for the L1D, the shared LLC, and (in `secddr-core`) the 128 KB
//! security-metadata cache of Table I.

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Associativity.
    pub ways: u32,
}

impl CacheConfig {
    /// 32 KB, 64 B lines, 4-way (Table I L1D).
    pub fn l1d() -> Self {
        Self {
            size_bytes: 32 << 10,
            line_bytes: 64,
            ways: 4,
        }
    }

    /// 4 MB, 64 B lines, 16-way (Table I shared LLC).
    pub fn llc() -> Self {
        Self {
            size_bytes: 4 << 20,
            line_bytes: 64,
            ways: 16,
        }
    }

    /// 128 KB, 64 B lines, 8-way (Table I metadata cache).
    pub fn metadata() -> Self {
        Self {
            size_bytes: 128 << 10,
            line_bytes: 64,
            ways: 8,
        }
    }

    fn sets(&self) -> usize {
        (self.size_bytes / u64::from(self.line_bytes) / u64::from(self.ways)) as usize
    }
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
    /// Dirty lines evicted (writebacks generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate over demand accesses.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Accumulates `other` into `self` (all counters sum), so per-shard
    /// or per-core cache statistics aggregate into one view.
    pub fn merge(&mut self, other: &Self) {
        // Exhaustive destructuring: a new field must pick a merge rule.
        let Self {
            hits,
            misses,
            writebacks,
        } = other;
        self.hits += hits;
        self.misses += misses;
        self.writebacks += writebacks;
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// A set-associative write-back cache.
///
/// The cache is a tag store only (no data payload): `access` classifies a
/// reference, `fill` installs a line after a miss returns, and dirty
/// evictions are surfaced to the caller for writeback traffic.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Every set's ways back to back (`sets × ways` lines in one block);
    /// set `s` is `lines[s * ways..(s + 1) * ways]`.
    lines: Vec<Line>,
    ways: usize,
    stamp: u64,
    stats: CacheStats,
    set_mask: u64,
    line_shift: u32,
}

impl Cache {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two number of sets.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            sets.is_power_of_two(),
            "cache must have a power-of-two set count"
        );
        let ways = cfg.ways as usize;
        let empty = Line {
            tag: 0,
            valid: false,
            dirty: false,
            lru: 0,
        };
        Self {
            lines: vec![empty; sets * ways],
            ways,
            stamp: 0,
            stats: CacheStats::default(),
            set_mask: sets as u64 - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            cfg,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        (
            (line & self.set_mask) as usize,
            line >> self.set_mask.count_ones(),
        )
    }

    /// The ways of set `set`, in way order.
    #[inline]
    fn set(&self, set: usize) -> &[Line] {
        &self.lines[set * self.ways..(set + 1) * self.ways]
    }

    #[inline]
    fn set_mut(&mut self, set: usize) -> &mut [Line] {
        &mut self.lines[set * self.ways..(set + 1) * self.ways]
    }

    /// Looks up `addr`; on a hit updates recency (and the dirty bit when
    /// `is_write`). Returns `true` on hit. Misses are *not* auto-filled —
    /// call [`Self::fill`] when the miss returns.
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        self.stamp += 1;
        let (set, tag) = self.index(addr);
        let stamp = self.stamp;
        for line in self.set_mut(set) {
            if line.valid && line.tag == tag {
                line.lru = stamp;
                line.dirty |= is_write;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Checks residency without touching recency or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.set(set).iter().any(|l| l.valid && l.tag == tag)
    }

    /// Installs the line holding `addr`, returning the evicted dirty line's
    /// address if a writeback is needed. `is_write` marks the new line
    /// dirty on install (write-allocate).
    pub fn fill(&mut self, addr: u64, is_write: bool) -> Option<u64> {
        self.stamp += 1;
        let (set, tag) = self.index(addr);
        // Already present (e.g. a racing fill): just update.
        let stamp = self.stamp;
        if let Some(line) = self
            .set_mut(set)
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
        {
            line.lru = stamp;
            line.dirty |= is_write;
            return None;
        }
        let set_bits = self.set_mask.count_ones();
        let line_shift = self.line_shift;
        // The first least-recent way in way order (invalid ways first).
        let victim = self
            .set_mut(set)
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("ways >= 1");
        let evicted = if victim.valid && victim.dirty {
            Some((victim.tag << set_bits | set as u64) << line_shift)
        } else {
            None
        };
        *victim = Line {
            tag,
            valid: true,
            dirty: is_write,
            lru: stamp,
        };
        if evicted.is_some() {
            self.stats.writebacks += 1;
        }
        evicted
    }

    /// Removes the most recent demand-miss count. Used by retry paths
    /// (e.g. a backend-busy stall) that will re-issue the same access and
    /// count it again — without this, stalled accesses inflate miss
    /// statistics.
    pub fn forget_demand_miss(&mut self) {
        debug_assert!(self.stats.misses > 0, "no miss to forget");
        self.stats.misses = self.stats.misses.saturating_sub(1);
    }

    /// Invalidates the line holding `addr`, returning whether it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        for line in self.set_mut(set) {
            if line.valid && line.tag == tag {
                line.valid = false;
                return line.dirty;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000, false));
        assert_eq!(c.fill(0x1000, false), None);
        assert!(c.access(0x1000, false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0: line addresses stride 4*64.
        let a = 0u64;
        let b = 4 * 64;
        let d = 8 * 64;
        c.fill(a, false);
        c.fill(b, false);
        c.access(a, false); // a most recent
        c.fill(d, false); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = tiny();
        let a = 0u64;
        c.fill(a, true); // dirty
        c.fill(4 * 64, false);
        let evicted = c.fill(8 * 64, false); // evicts a
        assert_eq!(evicted, Some(a));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut c = tiny();
        c.fill(0, false);
        c.fill(4 * 64, false);
        assert_eq!(c.fill(8 * 64, false), None);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut c = tiny();
        c.fill(0, false);
        assert!(c.access(0, true));
        c.fill(4 * 64, false);
        let evicted = c.fill(8 * 64, false);
        assert_eq!(evicted, Some(0));
    }

    #[test]
    fn fill_existing_line_does_not_evict() {
        let mut c = tiny();
        c.fill(0, false);
        c.fill(4 * 64, true);
        assert_eq!(c.fill(0, false), None);
        assert!(c.probe(4 * 64));
    }

    #[test]
    fn invalidate_removes_and_reports_dirty() {
        let mut c = tiny();
        c.fill(0, true);
        assert!(c.invalidate(0));
        assert!(!c.probe(0));
        assert!(!c.invalidate(0));
    }

    #[test]
    fn geometry_of_standard_configs() {
        assert_eq!(CacheConfig::l1d().sets(), 128);
        assert_eq!(CacheConfig::llc().sets(), 4096);
        assert_eq!(CacheConfig::metadata().sets(), 256);
        // And they all construct.
        let _ = Cache::new(CacheConfig::l1d());
        let _ = Cache::new(CacheConfig::llc());
        let _ = Cache::new(CacheConfig::metadata());
    }

    #[test]
    fn working_set_within_capacity_has_no_capacity_misses() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 4096,
            line_bytes: 64,
            ways: 4,
        });
        let lines = 4096 / 64;
        for pass in 0..3 {
            for i in 0..lines {
                let addr = i * 64;
                if !c.access(addr, false) {
                    assert_eq!(pass, 0, "only cold misses expected");
                    c.fill(addr, false);
                }
            }
        }
        assert_eq!(c.stats().misses, lines);
    }
}
