//! Deterministic fault injection and ECC protection for the LUT arrays.
//!
//! A production memoization unit must survive SRAM bit flips without
//! silently violating the "same tag → same data" invariant (§3.4). This
//! module models that fault class — bit flips in the tag or data SRAM of
//! the L1 LUT and the L2 way partition, struck into the accessed set on
//! each lookup/insert — drawn from a seeded SplitMix64 stream so every
//! run is exactly reproducible.
//!
//! With [`Protection::EccProtected`], tags carry parity (a single flip
//! is detected and the entry invalidated — a miss instead of silent
//! corruption; a double flip escapes parity) and data words carry SECDED
//! (single flips corrected, double flips detected-uncorrectable and
//! invalidated). Protection costs energy per access and cycles per
//! lookup; those constants live in `axmemo-sim`: `memo::ECC_CHECK_CYCLES`
//! beside Table 4's latencies, and the energy model.
//!
//! The default [`FaultConfig`] injects nothing, and a zero-rate config
//! installs no injectors at all, so the fault-free path is bit-identical
//! to a build without this module.

/// Parts-per-million denominator used by every fault-rate field.
pub const PPM: u32 = 1_000_000;

/// Protection scheme for LUT entry storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Protection {
    /// Raw SRAM: every injected flip lands silently.
    #[default]
    Unprotected,
    /// Parity on tags, SECDED on data words.
    EccProtected,
}

/// Fault-injection configuration. All rates are in parts per million per
/// access (integer, so [`crate::config::MemoConfig`] stays `Eq`). The
/// default is all-off.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultConfig {
    /// Seed for the injection streams (each injection site derives its
    /// own stream from this with a fixed salt).
    pub seed: u64,
    /// Tag-array flip probability per L1 access, in ppm.
    pub l1_tag_flip_ppm: u32,
    /// Data-array flip probability per L1 access, in ppm.
    pub l1_data_flip_ppm: u32,
    /// Tag-array flip probability per L2 access, in ppm.
    pub l2_tag_flip_ppm: u32,
    /// Data-array flip probability per L2 access, in ppm.
    pub l2_data_flip_ppm: u32,
    /// Percentage (0–100) of flip events that strike *two* bits of the
    /// same field — the case parity cannot detect and SECDED cannot
    /// correct.
    pub double_flip_pct: u32,
    /// Storage protection scheme.
    pub protection: Protection,
}

/// The derived rendering plus three fields earlier versions carried,
/// at the values every configuration had (dropped updates and memory
/// latency spikes, both off). `format!("{memo:?}")` is the `config`
/// string of every benchmark result, which `ledger/` (the benchmark)
/// digests, so the string keeps its shape.
impl std::fmt::Debug for FaultConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultConfig")
            .field("seed", &self.seed)
            .field("l1_tag_flip_ppm", &self.l1_tag_flip_ppm)
            .field("l1_data_flip_ppm", &self.l1_data_flip_ppm)
            .field("l2_tag_flip_ppm", &self.l2_tag_flip_ppm)
            .field("l2_data_flip_ppm", &self.l2_data_flip_ppm)
            .field("dropped_update_ppm", &0u32)
            .field("latency_spike_ppm", &0u32)
            .field("latency_spike_cycles", &200u64)
            .field("double_flip_pct", &self.double_flip_pct)
            .field("protection", &self.protection)
            .finish()
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            l1_tag_flip_ppm: 0,
            l1_data_flip_ppm: 0,
            l2_tag_flip_ppm: 0,
            l2_data_flip_ppm: 0,
            double_flip_pct: 10,
            protection: Protection::Unprotected,
        }
    }
}

/// Which LUT level(s) a flip-rate configuration strikes. The fault
/// sweep exercises all three so L2-only corruption (plumbed since the
/// fault subsystem landed, but unexercised by the original sweep
/// binary) gets its own curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultDomain {
    /// Flips strike the L1 LUT arrays only.
    L1Only,
    /// Flips strike the L2 way-partition arrays only.
    L2Only,
    /// Flips strike both levels at the same rate.
    L1AndL2,
}

impl FaultDomain {
    /// All three domains, in sweep order.
    pub const ALL: [FaultDomain; 3] = [
        FaultDomain::L1Only,
        FaultDomain::L2Only,
        FaultDomain::L1AndL2,
    ];

    /// Short label used in sweep tables (`L1`, `L2`, `L1+L2`).
    pub fn label(self) -> &'static str {
        match self {
            FaultDomain::L1Only => "L1",
            FaultDomain::L2Only => "L2",
            FaultDomain::L1AndL2 => "L1+L2",
        }
    }
}

impl FaultConfig {
    /// A uniform fault environment: the same `flip_ppm` on every tag and
    /// data array, with `protection`.
    ///
    /// ```
    /// use axmemo_core::faults::{FaultConfig, Protection};
    ///
    /// let cfg = FaultConfig::uniform(7, 500, Protection::EccProtected);
    /// assert_eq!(cfg.l1_tag_flip_ppm, 500);
    /// assert_eq!(cfg.l2_data_flip_ppm, 500);
    /// assert!(cfg.any_lut_faults());
    /// // Rate zero means no injector is ever installed.
    /// assert!(!FaultConfig::uniform(7, 0, Protection::Unprotected).any_lut_faults());
    /// ```
    pub fn uniform(seed: u64, flip_ppm: u32, protection: Protection) -> Self {
        Self {
            seed,
            l1_tag_flip_ppm: flip_ppm,
            l1_data_flip_ppm: flip_ppm,
            l2_tag_flip_ppm: flip_ppm,
            l2_data_flip_ppm: flip_ppm,
            protection,
            ..Self::default()
        }
    }

    /// Like [`FaultConfig::uniform`], but restricted to one LUT level
    /// (or both): `domain` selects which tag/data arrays carry
    /// `flip_ppm`; the other level's rates stay zero.
    ///
    /// ```
    /// use axmemo_core::faults::{FaultConfig, FaultDomain, Protection};
    ///
    /// let l2 = FaultConfig::domain(7, 500, FaultDomain::L2Only, Protection::Unprotected);
    /// assert_eq!(l2.l1_tag_flip_ppm, 0);
    /// assert_eq!(l2.l2_tag_flip_ppm, 500);
    /// let both = FaultConfig::domain(7, 500, FaultDomain::L1AndL2, Protection::Unprotected);
    /// assert_eq!(both, FaultConfig::uniform(7, 500, Protection::Unprotected));
    /// ```
    pub fn domain(seed: u64, flip_ppm: u32, domain: FaultDomain, protection: Protection) -> Self {
        let (l1, l2) = match domain {
            FaultDomain::L1Only => (flip_ppm, 0),
            FaultDomain::L2Only => (0, flip_ppm),
            FaultDomain::L1AndL2 => (flip_ppm, flip_ppm),
        };
        Self {
            seed,
            l1_tag_flip_ppm: l1,
            l1_data_flip_ppm: l1,
            l2_tag_flip_ppm: l2,
            l2_data_flip_ppm: l2,
            protection,
            ..Self::default()
        }
    }

    /// Whether any LUT-array fault can fire.
    pub fn any_lut_faults(&self) -> bool {
        self.l1_tag_flip_ppm | self.l1_data_flip_ppm | self.l2_tag_flip_ppm | self.l2_data_flip_ppm
            > 0
    }
}

/// Counters for injected faults and protection outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Tag-array flip events injected (single- or double-bit).
    pub tag_flips: u64,
    /// Data-array flip events injected (single- or double-bit).
    pub data_flips: u64,
    /// Of the above, events that struck two bits.
    pub double_flips: u64,
    /// Tag flips caught by parity (entry invalidated → clean miss).
    pub parity_detected: u64,
    /// Double tag flips that escaped parity (silent corruption).
    pub parity_escapes: u64,
    /// Single data flips corrected by SECDED (no visible effect).
    pub secded_corrected: u64,
    /// Double data flips detected but uncorrectable (entry invalidated).
    pub secded_uncorrectable: u64,
}

impl FaultStats {
    /// Field-wise accumulation of another site's counters.
    pub fn merge(&mut self, other: &FaultStats) {
        self.tag_flips += other.tag_flips;
        self.data_flips += other.data_flips;
        self.double_flips += other.double_flips;
        self.parity_detected += other.parity_detected;
        self.parity_escapes += other.parity_escapes;
        self.secded_corrected += other.secded_corrected;
        self.secded_uncorrectable += other.secded_uncorrectable;
    }

    /// Total flip events injected.
    pub fn total_flips(&self) -> u64 {
        self.tag_flips + self.data_flips
    }
}

/// Which SRAM field a strike lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrikeKind {
    /// The tag field of an entry.
    Tag,
    /// The data field of an entry.
    Data,
}

/// What the strike does to the entry, after protection is accounted for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrikeEffect {
    /// XOR `mask` into the struck field (unprotected flip, or a double
    /// flip that escaped parity).
    Corrupt {
        /// Bit mask to XOR into the field.
        mask: u64,
    },
    /// Protection detected the flip; the entry is invalidated (parity
    /// hit on a tag, or an uncorrectable double data flip).
    Invalidate,
    /// SECDED corrected a single data flip; no visible effect.
    Corrected,
}

/// One resolved fault event against a LUT set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strike {
    /// Way within the accessed set that was struck.
    pub way: usize,
    /// Field that was struck.
    pub kind: StrikeKind,
    /// Effect after protection.
    pub effect: StrikeEffect,
}

/// Tag and data strikes resolved for one access (either may be absent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrikePair {
    /// Strike against the tag array, if any.
    pub tag: Option<Strike>,
    /// Strike against the data array, if any.
    pub data: Option<Strike>,
}

/// SplitMix64 — the same generator the workload crate uses, duplicated
/// here because `axmemo-core` sits below `axmemo-workloads` in the
/// dependency order. ~20 lines, zero dependencies, exactly reproducible.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (bound > 0).
    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A seeded fault-injection site. Each LUT level owns one, derived from
/// the same [`FaultConfig`] with distinct stream salts.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: SplitMix64,
    seed: u64,
    tag_ppm: u32,
    data_ppm: u32,
    double_pct: u32,
    protection: Protection,
    stats: FaultStats,
}

const SALT_L1: u64 = 0x4C31_5F41_584D_454D; // "L1_AXMEM"
const SALT_L2: u64 = 0x4C32_5F41_584D_454D;

impl FaultInjector {
    fn with_salt(cfg: &FaultConfig, salt: u64, tag_ppm: u32, data_ppm: u32) -> Self {
        let seed = cfg.seed ^ salt;
        Self {
            rng: SplitMix64::new(seed),
            seed,
            tag_ppm,
            data_ppm,
            double_pct: cfg.double_flip_pct,
            protection: cfg.protection,
            stats: FaultStats::default(),
        }
    }

    /// Injector for the L1 LUT array; `None` when both L1 rates are zero
    /// (the fault-free path carries no injector at all).
    pub fn for_l1(cfg: &FaultConfig) -> Option<Self> {
        (cfg.l1_tag_flip_ppm | cfg.l1_data_flip_ppm > 0)
            .then(|| Self::with_salt(cfg, SALT_L1, cfg.l1_tag_flip_ppm, cfg.l1_data_flip_ppm))
    }

    /// Injector for the L2 LUT array; `None` when both L2 rates are zero.
    pub fn for_l2(cfg: &FaultConfig) -> Option<Self> {
        (cfg.l2_tag_flip_ppm | cfg.l2_data_flip_ppm > 0)
            .then(|| Self::with_salt(cfg, SALT_L2, cfg.l2_tag_flip_ppm, cfg.l2_data_flip_ppm))
    }

    /// Counters accumulated by this site.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Re-seed the stream and clear counters (between runs, so the same
    /// seed reproduces the same fault sites).
    pub fn reset(&mut self) {
        self.rng = SplitMix64::new(self.seed);
        self.stats = FaultStats::default();
    }

    fn draw(&mut self, ppm: u32) -> bool {
        ppm > 0 && self.rng.below(u64::from(PPM)) < u64::from(ppm)
    }

    /// One- or two-bit XOR mask over `bits` positions.
    fn flip_mask(&mut self, bits: u32, double: bool) -> u64 {
        let bits = bits.max(1);
        let first = 1u64 << self.rng.below(u64::from(bits));
        if !double {
            return first;
        }
        // Pick a second, distinct bit (distinct so the event really is a
        // two-bit upset; with one usable bit it degenerates to one).
        let mut second = 1u64 << self.rng.below(u64::from(bits));
        if second == first && bits > 1 {
            second = if first == 1 << (bits - 1) {
                first >> 1
            } else {
                first << 1
            };
        }
        first | second
    }

    fn resolve_tag(&mut self, mask: u64, double: bool) -> StrikeEffect {
        match self.protection {
            Protection::Unprotected => StrikeEffect::Corrupt { mask },
            Protection::EccProtected if double => {
                // An even number of flips leaves parity unchanged: the
                // corruption escapes detection.
                self.stats.parity_escapes += 1;
                StrikeEffect::Corrupt { mask }
            }
            Protection::EccProtected => {
                self.stats.parity_detected += 1;
                StrikeEffect::Invalidate
            }
        }
    }

    fn resolve_data(&mut self, mask: u64, double: bool) -> StrikeEffect {
        match self.protection {
            Protection::Unprotected => StrikeEffect::Corrupt { mask },
            Protection::EccProtected if double => {
                self.stats.secded_uncorrectable += 1;
                StrikeEffect::Invalidate
            }
            Protection::EccProtected => {
                self.stats.secded_corrected += 1;
                StrikeEffect::Corrected
            }
        }
    }

    /// Resolve the faults striking one set access. `ways` is the set
    /// associativity; `tag_bits`/`data_bits` the stored field widths.
    /// Counters count strike *events* on the SRAM; a strike landing in an
    /// invalid entry is harmless and the caller applies no effect.
    pub fn strike_set(&mut self, ways: usize, tag_bits: u32, data_bits: u32) -> StrikePair {
        let mut pair = StrikePair::default();
        if self.draw(self.tag_ppm) {
            let way = self.rng.below(ways as u64) as usize;
            let double = self.rng.below(100) < u64::from(self.double_pct);
            let mask = self.flip_mask(tag_bits, double);
            self.stats.tag_flips += 1;
            if double {
                self.stats.double_flips += 1;
            }
            pair.tag = Some(Strike {
                way,
                kind: StrikeKind::Tag,
                effect: self.resolve_tag(mask, double),
            });
        }
        if self.draw(self.data_ppm) {
            let way = self.rng.below(ways as u64) as usize;
            let double = self.rng.below(100) < u64::from(self.double_pct);
            let mask = self.flip_mask(data_bits, double);
            self.stats.data_flips += 1;
            if double {
                self.stats.double_flips += 1;
            }
            pair.data = Some(Strike {
                way,
                kind: StrikeKind::Data,
                effect: self.resolve_data(mask, double),
            });
        }
        pair
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flipping(ppm: u32, protection: Protection) -> FaultConfig {
        FaultConfig::uniform(7, ppm, protection)
    }

    #[test]
    fn default_config_is_all_off() {
        let cfg = FaultConfig::default();
        assert!(!cfg.any_lut_faults());
        assert!(FaultInjector::for_l1(&cfg).is_none());
        assert!(FaultInjector::for_l2(&cfg).is_none());
    }

    #[test]
    fn debug_rendering_keeps_its_shape() {
        let cfg = FaultConfig::uniform(7, 500, Protection::EccProtected);
        assert_eq!(
            format!("{cfg:?}"),
            "FaultConfig { seed: 7, l1_tag_flip_ppm: 500, l1_data_flip_ppm: 500, \
             l2_tag_flip_ppm: 500, l2_data_flip_ppm: 500, dropped_update_ppm: 0, \
             latency_spike_ppm: 0, latency_spike_cycles: 200, double_flip_pct: 10, \
             protection: EccProtected }"
        );
    }

    #[test]
    fn same_seed_reproduces_identical_strikes() {
        let cfg = flipping(100_000, Protection::Unprotected);
        let mut a = FaultInjector::for_l1(&cfg).unwrap();
        let mut b = FaultInjector::for_l1(&cfg).unwrap();
        for _ in 0..10_000 {
            assert_eq!(a.strike_set(8, 26, 32), b.strike_set(8, 26, 32));
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().total_flips() > 0, "rate high enough to fire");
    }

    #[test]
    fn reset_replays_the_same_stream() {
        let cfg = flipping(50_000, Protection::Unprotected);
        let mut inj = FaultInjector::for_l1(&cfg).unwrap();
        let first: Vec<StrikePair> = (0..1000).map(|_| inj.strike_set(8, 26, 32)).collect();
        inj.reset();
        assert_eq!(inj.stats(), FaultStats::default());
        let second: Vec<StrikePair> = (0..1000).map(|_| inj.strike_set(8, 26, 32)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn levels_use_distinct_streams() {
        let cfg = flipping(500_000, Protection::Unprotected);
        let mut l1 = FaultInjector::for_l1(&cfg).unwrap();
        let mut l2 = FaultInjector::for_l2(&cfg).unwrap();
        let a: Vec<StrikePair> = (0..200).map(|_| l1.strike_set(8, 26, 32)).collect();
        let b: Vec<StrikePair> = (0..200).map(|_| l2.strike_set(8, 26, 32)).collect();
        assert_ne!(a, b, "L1 and L2 must not share a fault stream");
    }

    #[test]
    fn flip_rate_tracks_configured_ppm() {
        // 10% per access over 100k accesses: expect ~10k ± noise.
        let cfg = flipping(100_000, Protection::Unprotected);
        let mut inj = FaultInjector::for_l1(&cfg).unwrap();
        for _ in 0..100_000 {
            inj.strike_set(8, 26, 32);
        }
        let tag = inj.stats().tag_flips;
        assert!((9_000..11_000).contains(&tag), "tag flips {tag}");
    }

    #[test]
    fn unprotected_strikes_always_corrupt() {
        let cfg = flipping(PPM, Protection::Unprotected);
        let mut inj = FaultInjector::for_l1(&cfg).unwrap();
        for _ in 0..1000 {
            let p = inj.strike_set(8, 26, 32);
            for s in [p.tag, p.data].into_iter().flatten() {
                assert!(matches!(s.effect, StrikeEffect::Corrupt { .. }));
            }
        }
        let st = inj.stats();
        assert_eq!(st.parity_detected + st.secded_corrected, 0);
    }

    #[test]
    fn ecc_resolves_single_and_double_flips_differently() {
        let cfg = FaultConfig {
            double_flip_pct: 50,
            ..flipping(PPM, Protection::EccProtected)
        };
        let mut inj = FaultInjector::for_l1(&cfg).unwrap();
        for _ in 0..2000 {
            let p = inj.strike_set(8, 26, 32);
            let tag = p.tag.unwrap();
            match tag.effect {
                // Single tag flip: parity catches it.
                StrikeEffect::Invalidate | StrikeEffect::Corrupt { .. } => {}
                StrikeEffect::Corrected => panic!("tags have parity, not SECDED"),
            }
            let data = p.data.unwrap();
            match data.effect {
                StrikeEffect::Corrected | StrikeEffect::Invalidate => {}
                StrikeEffect::Corrupt { .. } => panic!("SECDED data never corrupts silently"),
            }
        }
        let st = inj.stats();
        assert!(st.parity_detected > 0, "single tag flips detected");
        assert!(st.parity_escapes > 0, "double tag flips escape");
        assert!(st.secded_corrected > 0, "single data flips corrected");
        assert!(st.secded_uncorrectable > 0, "double data flips detected");
    }

    #[test]
    fn double_flip_masks_have_two_bits() {
        let cfg = FaultConfig {
            double_flip_pct: 100,
            ..flipping(PPM, Protection::Unprotected)
        };
        let mut inj = FaultInjector::for_l1(&cfg).unwrap();
        for _ in 0..500 {
            let p = inj.strike_set(8, 26, 32);
            if let Some(Strike {
                effect: StrikeEffect::Corrupt { mask },
                ..
            }) = p.tag
            {
                assert_eq!(mask.count_ones(), 2, "mask {mask:#x}");
                assert!(mask < 1 << 26, "mask within tag width");
            }
        }
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = FaultStats {
            tag_flips: 1,
            secded_corrected: 2,
            ..FaultStats::default()
        };
        let b = FaultStats {
            tag_flips: 3,
            data_flips: 4,
            parity_detected: 5,
            ..FaultStats::default()
        };
        a.merge(&b);
        assert_eq!(a.tag_flips, 4);
        assert_eq!(a.data_flips, 4);
        assert_eq!(a.secded_corrected, 2);
        assert_eq!(a.parity_detected, 5);
        assert_eq!(a.total_flips(), 8);
    }
}
