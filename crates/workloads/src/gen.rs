//! Synthetic input generators.
//!
//! The paper uses each suite's shipped datasets (Table 2 column 4); those
//! are not redistributable, so each benchmark draws from a generator
//! whose *redundancy structure* mimics the real data — the property that
//! determines LUT hit rate:
//!
//! * [`QuantizedGrid`] — values drawn from a small grid with optional
//!   sub-truncation jitter. Models quantitative-finance option tables
//!   (blackscholes) and robot-arm target grids (inversek2j): many exact
//!   or near-exact repeats.
//! * [`SmoothField`] — 2-D fields that vary slowly (low-frequency
//!   cosines) plus small noise. Models natural images (sobel, kmeans,
//!   jpeg, srad) and physical fields (hotspot): *similar* but unequal
//!   neighbourhoods that only collapse under truncation.
//! * [`uniform`] — i.i.d. uniform values with no redundancy. Models
//!   jmeint's random triangle soup (the paper's no-reuse outlier).
//!
//! All generators are deterministic in their seed (xorshift64*), keeping
//! experiments reproducible without the `rand` crate in the hot path.

pub mod rng {
    //! Deterministic SplitMix64 PRNG.
    //!
    //! The workspace builds with no network access, so there is no
    //! `rand` crate anywhere; tests and generators that want arbitrary
    //! but reproducible values use this instead. SplitMix64 passes
    //! BigCrush, has a full 2^64 period over its counter, and — unlike
    //! the xorshift64* [`Rng`](super::Rng) above — accepts *any* seed
    //! including 0 without degenerating.

    /// SplitMix64 generator state.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SplitMix64 {
        state: u64,
    }

    impl SplitMix64 {
        /// Seeded generator; every seed (including 0) is valid.
        pub fn new(seed: u64) -> Self {
            Self { state: seed }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Next value as u32.
        pub fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        /// Uniform u64 in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }

        /// Uniform usize in `[0, n)`; `n` must be nonzero.
        pub fn index(&mut self, n: usize) -> usize {
            self.below(n as u64) as usize
        }

        /// Uniform bool.
        pub fn bool(&mut self) -> bool {
            self.next_u64() & 1 == 1
        }

        /// Uniform f64 in `[0, 1)`.
        pub fn f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform f32 in `[0, 1)`.
        pub fn f32(&mut self) -> f32 {
            (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
        }

        /// `n` raw bytes.
        pub fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.next_u64() as u8).collect()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn splitmix_matches_reference_vector() {
            // Reference outputs for seed 1234567 from the canonical
            // Java/C SplitMix64 implementation.
            let mut r = SplitMix64::new(1234567);
            assert_eq!(r.next_u64(), 0x599E_D017_FB08_FC85);
        }

        #[test]
        fn splitmix_is_deterministic_and_accepts_zero_seed() {
            let mut a = SplitMix64::new(0);
            let mut b = SplitMix64::new(0);
            for _ in 0..100 {
                assert_eq!(a.next_u64(), b.next_u64());
            }
            assert_ne!(SplitMix64::new(0).next_u64(), 0);
        }

        #[test]
        fn splitmix_helpers_stay_in_range() {
            let mut r = SplitMix64::new(99);
            for _ in 0..1000 {
                assert!(r.f64() < 1.0);
                assert!(r.f32() < 1.0);
                assert!(r.index(7) < 7);
                assert!(r.below(13) < 13);
            }
            assert_eq!(r.bytes(5).len(), 5);
        }
    }
}

pub use rng::SplitMix64;

/// Deterministic 64-bit PRNG (xorshift64*), adequate for dataset
/// synthesis and fully reproducible.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded generator; `seed` must be nonzero (0 is remapped).
    pub fn new(seed: u64) -> Self {
        Self(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform f32 in `[0, 1)`.
    pub fn f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform f32 in `[lo, hi)`.
    pub fn range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.f32()
    }

    /// Uniform usize in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Values drawn from an `levels`-point grid over `[lo, hi]`, with
/// relative jitter `jitter_rel` (set below the truncation step so
/// truncated hashing collapses the jitter; set 0 for exact repeats).
#[derive(Debug, Clone)]
pub struct QuantizedGrid {
    /// Lower bound of the value range.
    pub lo: f32,
    /// Upper bound.
    pub hi: f32,
    /// Number of distinct grid levels.
    pub levels: usize,
    /// Relative jitter magnitude added on top of the grid value.
    pub jitter_rel: f32,
}

impl QuantizedGrid {
    /// Draw one value.
    pub fn sample(&self, rng: &mut Rng) -> f32 {
        let level = rng.index(self.levels);
        let base = self.lo + (self.hi - self.lo) * level as f32 / self.levels.max(1) as f32;
        if self.jitter_rel > 0.0 {
            let jitter = base.abs().max(1e-3) * self.jitter_rel * rng.f32();
            base + jitter
        } else {
            base
        }
    }
}

/// Smooth 2-D field: a sum of low-frequency cosines plus white noise,
/// sampled on a `w × h` grid. `noise` is the additive noise amplitude
/// relative to the field's unit amplitude.
#[derive(Debug, Clone)]
pub struct SmoothField {
    /// Field width.
    pub w: usize,
    /// Field height.
    pub h: usize,
    /// Spatial frequency (cycles across the field); lower = smoother.
    pub cycles: f32,
    /// Additive noise amplitude.
    pub noise: f32,
    /// Output offset (fields are `offset + amplitude * pattern`).
    pub offset: f32,
    /// Output amplitude.
    pub amplitude: f32,
}

impl SmoothField {
    /// Generate the field in row-major order. One cosine term varies
    /// only along x and the other only along y, so each is evaluated
    /// once per column and once per row.
    pub fn generate(&self, rng: &mut Rng) -> Vec<f32> {
        let (fx, fy) = (
            self.cycles * std::f32::consts::TAU / self.w.max(1) as f32,
            self.cycles * std::f32::consts::TAU / self.h.max(1) as f32,
        );
        let phase = rng.f32() * std::f32::consts::TAU;
        let cols: Vec<f32> = (0..self.w).map(|x| (x as f32 * fx + phase).cos()).collect();
        let mut out = Vec::with_capacity(self.w * self.h);
        for y in 0..self.h {
            let row = (y as f32 * fy).cos();
            for &col in &cols {
                let v = (col + row) * 0.25 + 0.5;
                let n = (rng.f32() - 0.5) * 2.0 * self.noise;
                out.push(self.offset + self.amplitude * (v + n));
            }
        }
        out
    }
}

/// `n` i.i.d. uniform samples in `[lo, hi)` — the no-redundancy case.
pub fn uniform(rng: &mut Rng, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..n).map(|_| rng.range(lo, hi)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_zero_seed_is_remapped() {
        let mut r = Rng::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn f32_stays_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            let v = r.f32();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn quantized_grid_has_limited_support_without_jitter() {
        let g = QuantizedGrid {
            lo: 10.0,
            hi: 20.0,
            levels: 8,
            jitter_rel: 0.0,
        };
        let mut rng = Rng::new(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(g.sample(&mut rng).to_bits());
        }
        assert!(seen.len() <= 8, "distinct {}", seen.len());
    }

    #[test]
    fn jitter_spreads_values_slightly() {
        let g = QuantizedGrid {
            lo: 10.0,
            hi: 20.0,
            levels: 4,
            jitter_rel: 1e-5,
        };
        let mut rng = Rng::new(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(g.sample(&mut rng).to_bits());
        }
        assert!(seen.len() > 4);
        // But all values stay within a tiny band of the 4 grid levels.
        let mut rng = Rng::new(3);
        for _ in 0..1000 {
            let v = g.sample(&mut rng);
            let nearest = (0..4)
                .map(|l| 10.0 + 10.0 * l as f32 / 4.0)
                .fold(f32::MAX, |acc, b| {
                    if (v - b).abs() < (v - acc).abs() {
                        b
                    } else {
                        acc
                    }
                });
            assert!((v - nearest).abs() / nearest < 1e-3);
        }
    }

    #[test]
    fn smooth_field_is_smooth() {
        let f = SmoothField {
            w: 64,
            h: 64,
            cycles: 2.0,
            noise: 0.0,
            offset: 0.0,
            amplitude: 1.0,
        };
        let img = f.generate(&mut Rng::new(9));
        assert_eq!(img.len(), 64 * 64);
        // Neighbouring pixels differ by less than 10% of the range.
        for y in 0..64 {
            for x in 1..64 {
                let d = (img[y * 64 + x] - img[y * 64 + x - 1]).abs();
                assert!(d < 0.1, "rough at ({x},{y}): {d}");
            }
        }
    }

    #[test]
    fn uniform_fills_the_range() {
        let mut r = Rng::new(11);
        let v = uniform(&mut r, 4000, -1.0, 1.0);
        assert!(v.iter().any(|&x| x < -0.9));
        assert!(v.iter().any(|&x| x > 0.9));
    }
}
