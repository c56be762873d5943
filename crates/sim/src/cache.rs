//! Cache hierarchy timing model.
//!
//! Mirrors Table 3: a 32 KB 4-way L1 data cache (1-cycle hit), a 2 MB
//! 16-way shared L2 (13-cycle hit — only 1 MB enabled in the paper's
//! single-core runs), and DDR3 main memory. The instruction cache is not
//! simulated per-access (the kernels fit trivially in 32 KB); its energy
//! is folded into the per-instruction fetch cost.
//!
//! The L2 supports *way partitioning*: `reserve_ways(n)` removes `n` of
//! the 16 ways from normal caching, modelling the L2 LUT partition
//! (§3.3: "we assign a fixed number of ways in the last-level cache to
//! the L2 LUT").

/// Latency (cycles) and event counts for one level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// One set-associative cache level (LRU, write-allocate, timing-only —
/// data lives in the `Machine`'s memory).
#[derive(Debug, Clone)]
struct Level {
    sets: usize,
    ways: usize,
    /// `log2(line_bytes)` — set indexing is a shift + mask on the hot
    /// path, not a division.
    line_shift: u32,
    /// tags[set * ways + way] = line address; only meaningful when the
    /// matching `epochs` entry equals the current `epoch`.
    tags: Vec<u64>,
    /// Flush generation each way was last filled in. A way is valid
    /// iff its epoch matches the level's, which makes [`Self::flush`]
    /// a single counter bump instead of a multi-hundred-KB memset per
    /// simulated run.
    epochs: Vec<u64>,
    epoch: u64,
    lru: Vec<u64>,
    clock: u64,
    stats: CacheStats,
}

impl Level {
    fn new(capacity: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "cache line size must be a power of two, got {line_bytes}"
        );
        let sets = (capacity / (ways * line_bytes)).max(1).next_power_of_two();
        let sets = if sets * ways * line_bytes > capacity && sets > 1 {
            sets / 2
        } else {
            sets
        };
        Self {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            tags: vec![0; sets * ways],
            epochs: vec![0; sets * ways],
            epoch: 1,
            lru: vec![0; sets * ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Access `addr`; returns true on hit. Allocates on miss.
    fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.ways;
        self.clock += 1;
        for w in 0..self.ways {
            if self.epochs[base + w] == self.epoch && self.tags[base + w] == line {
                self.lru[base + w] = self.clock;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        // Allocate: prefer invalid way, else LRU.
        let mut victim = 0;
        let mut best = u64::MAX;
        for w in 0..self.ways {
            if self.epochs[base + w] != self.epoch {
                victim = w;
                break;
            }
            if self.lru[base + w] < best {
                best = self.lru[base + w];
                victim = w;
            }
        }
        self.tags[base + victim] = line;
        self.epochs[base + victim] = self.epoch;
        self.lru[base + victim] = self.clock;
        false
    }

    fn flush(&mut self) {
        // O(1): invalidate every way by advancing the generation. The
        // clock keeps running, so replacement order after a refill is
        // identical to the memset implementation's.
        self.epoch += 1;
    }
}

/// Configuration for the hierarchy (Table 3 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// L1 data capacity in bytes.
    pub l1d_bytes: usize,
    /// L1 associativity.
    pub l1d_ways: usize,
    /// L1 hit latency (cycles).
    pub l1d_latency: u64,
    /// L2 capacity in bytes (caching portion before partitioning).
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 hit latency.
    pub l2_latency: u64,
    /// Main-memory access latency (cycles at 2 GHz over DDR3-1600).
    pub dram_latency: u64,
    /// Cache line size.
    pub line_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            l1d_bytes: 32 * 1024,
            l1d_ways: 4,
            l1d_latency: 1,
            // Only 1 MB of the 2 MB L2 is enabled in single-core system
            // emulation (Table 3 note).
            l2_bytes: 1024 * 1024,
            l2_ways: 16,
            l2_latency: 13,
            dram_latency: 110,
            line_bytes: 64,
        }
    }
}

/// Which level of the hierarchy served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// L1 data cache hit.
    L1,
    /// L1 miss, L2 hit.
    L2,
    /// Missed both caches; main memory.
    Dram,
}

/// The data-side cache hierarchy.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    config: CacheConfig,
    l1d: Level,
    l2: Level,
}

impl CacheHierarchy {
    /// Build with `config`, carving `reserved_l2_ways` ways out of the
    /// L2 for the L2 LUT partition (0 = no partition).
    pub fn new(config: CacheConfig, reserved_l2_ways: usize) -> Self {
        assert!(
            reserved_l2_ways < config.l2_ways,
            "cannot reserve all L2 ways"
        );
        let usable_ways = config.l2_ways - reserved_l2_ways;
        let usable_bytes = config.l2_bytes / config.l2_ways * usable_ways;
        Self {
            config,
            l1d: Level::new(config.l1d_bytes, config.l1d_ways, config.line_bytes),
            l2: Level::new_with_ways(usable_bytes, usable_ways, config.line_bytes),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Simulate a data access at `addr`; returns its latency in cycles.
    pub fn access(&mut self, addr: u64) -> u64 {
        self.access_served(addr).0
    }

    /// Like [`Self::access`] but also reports which level served it (for
    /// the energy breakdown).
    pub fn access_served(&mut self, addr: u64) -> (u64, ServedBy) {
        if self.l1d.access(addr) {
            (self.config.l1d_latency, ServedBy::L1)
        } else if self.l2.access(addr) {
            (self.config.l2_latency, ServedBy::L2)
        } else {
            (self.config.dram_latency, ServedBy::Dram)
        }
    }

    /// L1D statistics.
    pub fn l1d_stats(&self) -> CacheStats {
        self.l1d.stats
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats
    }

    /// Drop all cached lines (between runs), keeping statistics.
    pub fn flush(&mut self) {
        self.l1d.flush();
        self.l2.flush();
    }
}

impl Level {
    /// Like `new` but the caller fixed the way count after partitioning.
    fn new_with_ways(capacity: usize, ways: usize, line_bytes: usize) -> Self {
        Self::new(capacity.max(ways * line_bytes), ways, line_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_then_hits() {
        let mut h = CacheHierarchy::new(CacheConfig::default(), 0);
        let cold = h.access(0x1000);
        assert_eq!(cold, 110); // DRAM
        let warm = h.access(0x1000);
        assert_eq!(warm, 1); // L1 hit
        let same_line = h.access(0x1030);
        assert_eq!(same_line, 1); // same 64B line
    }

    #[test]
    fn l2_serves_l1_evictions() {
        let cfg = CacheConfig {
            l1d_bytes: 4 * 64, // 1 set × 4 ways
            l1d_ways: 4,
            ..CacheConfig::default()
        };
        let mut h = CacheHierarchy::new(cfg, 0);
        // Fill 5 distinct lines mapping to the single L1 set.
        for i in 0..5u64 {
            h.access(i * 64);
        }
        // Line 0 fell out of L1 but sits in L2.
        assert_eq!(h.access(0), 13);
    }

    #[test]
    fn way_partitioning_shrinks_l2() {
        let mut full = CacheHierarchy::new(CacheConfig::default(), 0);
        let mut partitioned = CacheHierarchy::new(CacheConfig::default(), 8);
        // Stream more lines than the partitioned L2 holds but fewer than
        // the full one: the partitioned hierarchy must miss more.
        let lines = 12 * 1024; // 768 KB of distinct lines
        for pass in 0..2 {
            for i in 0..lines {
                let addr = i * 64;
                full.access(addr);
                partitioned.access(addr);
            }
            let _ = pass;
        }
        assert!(
            partitioned.l2_stats().misses > full.l2_stats().misses,
            "partitioned {} vs full {}",
            partitioned.l2_stats().misses,
            full.l2_stats().misses
        );
    }

    #[test]
    #[should_panic(expected = "cannot reserve all")]
    fn rejects_reserving_every_way() {
        CacheHierarchy::new(CacheConfig::default(), 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_line_size() {
        let cfg = CacheConfig {
            line_bytes: 48,
            ..CacheConfig::default()
        };
        CacheHierarchy::new(cfg, 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut h = CacheHierarchy::new(CacheConfig::default(), 0);
        h.access(0);
        h.access(0);
        let s = h.l1d_stats();
        assert_eq!(s.accesses(), 2);
        assert_eq!(s.hits, 1);
    }

    /// The obvious per-way LRU model: each way holds an optional line
    /// and its last-use time; a miss fills the lowest empty way, else the
    /// first least recently used one; a flush empties every way.
    struct NaiveLevel {
        sets: usize,
        line_shift: u32,
        ways: Vec<Vec<Option<(u64, u64)>>>,
        clock: u64,
        stats: CacheStats,
    }

    impl NaiveLevel {
        fn new(sets: usize, ways: usize, line_bytes: usize) -> Self {
            Self {
                sets,
                line_shift: line_bytes.trailing_zeros(),
                ways: vec![vec![None; ways]; sets],
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            let line = addr >> self.line_shift;
            let set = &mut self.ways[line as usize % self.sets];
            self.clock += 1;
            if let Some(way) = set.iter_mut().flatten().find(|(tag, _)| *tag == line) {
                way.1 = self.clock;
                self.stats.hits += 1;
                return true;
            }
            self.stats.misses += 1;
            let victim = set.iter().position(Option::is_none).unwrap_or_else(|| {
                let oldest = set.iter().flatten().map(|&(_, used)| used).min().unwrap();
                set.iter().position(|w| w.unwrap().1 == oldest).unwrap()
            });
            set[victim] = Some((line, self.clock));
            false
        }

        fn flush(&mut self) {
            for set in &mut self.ways {
                set.fill(None);
            }
        }
    }

    #[test]
    fn level_matches_naive_model_across_flushes() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            // xorshift64*
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for ways in [1, 2, 4, 13, 16] {
            let (sets, line_bytes) = (8, 64);
            let mut level = Level::new(sets * ways * line_bytes, ways, line_bytes);
            assert_eq!((level.sets, level.ways), (sets, ways));
            let mut naive = NaiveLevel::new(sets, ways, line_bytes);
            // Three sets' worth of lines per set: hits, conflict
            // evictions and refills after a flush all occur.
            let span = (3 * sets * ways * line_bytes) as u64;
            for i in 0..20_000 {
                if next() % 1000 == 0 {
                    level.flush();
                    naive.flush();
                }
                let addr = next() % span;
                assert_eq!(
                    level.access(addr),
                    naive.access(addr),
                    "{ways}-way, access {i} at {addr:#x}"
                );
            }
            assert_eq!(level.stats, naive.stats, "{ways}-way");
            assert!(level.stats.hits > 0 && level.stats.misses > 0);
        }
    }

    #[test]
    fn flush_forces_cold_misses() {
        let mut h = CacheHierarchy::new(CacheConfig::default(), 0);
        h.access(0x40);
        h.flush();
        assert_eq!(h.access(0x40), 110);
    }
}
