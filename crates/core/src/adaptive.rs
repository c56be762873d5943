//! Dynamic truncation adjustment — §3.1's alternative to compile-time
//! profiling:
//!
//! > "Alternatively, we can use a dynamic approach. A certain
//! > percentage of the execution time can be allocated for profiling at
//! > runtime periodically. During the profiling phase, the memoization
//! > unit always returns miss to the processor even if there is a hit
//! > so we can use the computation results and the LUT output to
//! > calculate error and adjust the approximation level accordingly
//! > during the execution."
//!
//! [`AdaptiveTruncation`] is that controller: it alternates *normal*
//! windows with short *profiling* windows. During profiling every
//! lookup is forced to miss; the recomputed value is compared with the
//! LUT output and an error statistic is accumulated. At the end of the
//! window the truncation level is nudged: up (more approximation, more
//! hits) when the error is comfortably below the target, down when it
//! exceeds it. The controlled variable is exposed as the
//! `current_bits()` the program should pass in its `ld_crc`/`reg_crc`
//! `n` fields.

use crate::quality::relative_error;
use axmemo_telemetry::{Telemetry, Value};

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Target output error (relative) the controller steers to.
    pub target_error: f64,
    /// Hysteresis: raise truncation only while error < `target/raise_margin`.
    pub raise_margin: f64,
    /// Invocations per normal window (no profiling).
    pub normal_window: u64,
    /// Invocations per profiling window (forced misses).
    pub profile_window: u64,
    /// Truncation bounds.
    pub min_bits: u32,
    /// Upper bound on truncated bits.
    pub max_bits: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            target_error: 0.001, // the paper's 0.1% numeric bound
            raise_margin: 4.0,
            normal_window: 900,
            profile_window: 100, // ~10% of execution profiled
            min_bits: 0,
            max_bits: 24,
        }
    }
}

/// Controller phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Normal execution: lookups behave normally.
    Normal,
    /// Profiling: report every lookup as a miss and compare.
    Profiling,
}

/// Serializable controller state, captured by [`crate::snapshot`] so a
/// restarted run resumes at the truncation level the controller had
/// converged to instead of re-learning it from `initial_bits`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveState {
    /// Controller configuration at capture time.
    pub config: AdaptiveConfig,
    /// Truncation bits in effect.
    pub bits: u32,
    /// Whether the controller was inside a profiling window.
    pub profiling: bool,
    /// Invocations left in the current window.
    pub remaining: u64,
    /// Error accumulator of the in-flight profiling window.
    pub err_sum: f64,
    /// Samples in the in-flight profiling window.
    pub err_count: u64,
    /// Completed windows as `(bits, mean_error)`.
    pub history: Vec<(u32, f64)>,
}

/// The runtime truncation controller.
///
/// # Examples
///
/// ```
/// use axmemo_core::adaptive::{AdaptiveConfig, AdaptiveTruncation, Phase};
///
/// let mut ctl = AdaptiveTruncation::new(AdaptiveConfig::default(), 8);
/// // Drive a few windows of an error-free kernel: truncation grows.
/// for _ in 0..10_000 {
///     if ctl.begin_invocation() == Phase::Profiling {
///         ctl.record_comparison(1.0, 1.0); // recomputed == memoized
///     }
/// }
/// assert!(ctl.current_bits() > 8);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveTruncation {
    config: AdaptiveConfig,
    bits: u32,
    phase: Phase,
    /// Invocations left in the current window.
    remaining: u64,
    /// Error accumulator for the current profiling window.
    err_sum: f64,
    err_count: u64,
    /// History of (bits, mean_error) per completed profiling window.
    history: Vec<(u32, f64)>,
}

impl AdaptiveTruncation {
    /// New controller starting at `initial_bits`.
    pub fn new(config: AdaptiveConfig, initial_bits: u32) -> Self {
        Self {
            bits: initial_bits.clamp(config.min_bits, config.max_bits),
            phase: Phase::Normal,
            remaining: config.normal_window,
            err_sum: 0.0,
            err_count: 0,
            config,
            history: Vec::new(),
        }
    }

    /// Truncation bits the program should currently use.
    pub fn current_bits(&self) -> u32 {
        self.bits
    }

    /// The controller's phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Completed profiling windows as (bits, mean error).
    pub fn history(&self) -> &[(u32, f64)] {
        &self.history
    }

    /// Capture the controller's full state for persistence.
    pub fn export_state(&self) -> AdaptiveState {
        AdaptiveState {
            config: self.config,
            bits: self.bits,
            profiling: self.phase == Phase::Profiling,
            remaining: self.remaining,
            err_sum: self.err_sum,
            err_count: self.err_count,
            history: self.history.clone(),
        }
    }

    /// Rebuild a controller from a captured state, sanitizing fields
    /// that a decoded snapshot cannot be trusted to keep in range:
    /// `bits` is clamped to the configured bounds, `remaining` to the
    /// longest window, and a non-finite error accumulator is discarded
    /// (the in-flight window restarts).
    pub fn from_state(state: AdaptiveState) -> Self {
        let config = state.config;
        let max_window = config.normal_window.max(config.profile_window).max(1);
        let (err_sum, err_count) = if state.err_sum.is_finite() {
            (state.err_sum, state.err_count)
        } else {
            (0.0, 0)
        };
        Self {
            bits: state.bits.clamp(config.min_bits, config.max_bits),
            phase: if state.profiling {
                Phase::Profiling
            } else {
                Phase::Normal
            },
            remaining: state.remaining.min(max_window),
            err_sum,
            err_count,
            config,
            history: state.history,
        }
    }

    /// Call once per kernel invocation *before* the lookup; returns the
    /// phase so the caller knows whether to force a miss.
    pub fn begin_invocation(&mut self) -> Phase {
        self.begin_invocation_tel(&mut Telemetry::off())
    }

    /// [`Self::begin_invocation`] with telemetry: each completed
    /// profiling window emits an `adaptive.decision` event recording the
    /// window's mean error and the truncation-bits change it caused.
    pub fn begin_invocation_tel(&mut self, tel: &mut Telemetry) -> Phase {
        if self.remaining == 0 {
            self.advance_phase(tel);
        }
        self.remaining -= 1;
        self.phase
    }

    /// During profiling, record the comparison between the recomputed
    /// `exact` value and the `approx` value the LUT would have served.
    /// (No-op outside profiling; misses during profiling — where the
    /// LUT had nothing to serve — are simply not recorded.)
    pub fn record_comparison(&mut self, exact: f64, approx: f64) {
        if self.phase != Phase::Profiling {
            return;
        }
        self.err_sum += relative_error(exact, approx);
        self.err_count += 1;
    }

    fn advance_phase(&mut self, tel: &mut Telemetry) {
        match self.phase {
            Phase::Normal => {
                self.phase = Phase::Profiling;
                self.remaining = self.config.profile_window;
                self.err_sum = 0.0;
                self.err_count = 0;
                tel.count("adaptive.profile_windows", 1);
            }
            Phase::Profiling => {
                let mean = if self.err_count == 0 {
                    0.0
                } else {
                    self.err_sum / self.err_count as f64
                };
                self.history.push((self.bits, mean));
                let before = self.bits;
                if mean > self.config.target_error {
                    // Too much error: back off.
                    self.bits = self.bits.saturating_sub(2).max(self.config.min_bits);
                } else if mean < self.config.target_error / self.config.raise_margin {
                    // Comfortably accurate: be more aggressive.
                    self.bits = (self.bits + 1).min(self.config.max_bits);
                }
                tel.count("adaptive.decisions", 1);
                tel.gauge("adaptive.trunc_bits", f64::from(self.bits));
                tel.event(
                    "adaptive.decision",
                    &[
                        ("mean_error", Value::F64(mean)),
                        ("samples", Value::U64(self.err_count)),
                        ("bits_before", Value::U64(u64::from(before))),
                        ("bits_after", Value::U64(u64::from(self.bits))),
                    ],
                );
                self.phase = Phase::Normal;
                self.remaining = self.config.normal_window;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<F: FnMut(u32) -> (f64, f64)>(
        ctl: &mut AdaptiveTruncation,
        invocations: u64,
        mut kernel: F,
    ) {
        for _ in 0..invocations {
            if ctl.begin_invocation() == Phase::Profiling {
                let (exact, approx) = kernel(ctl.current_bits());
                ctl.record_comparison(exact, approx);
            }
        }
    }

    #[test]
    fn error_free_kernel_ramps_truncation_up() {
        let mut ctl = AdaptiveTruncation::new(AdaptiveConfig::default(), 4);
        drive(&mut ctl, 30_000, |_| (2.0, 2.0));
        assert!(ctl.current_bits() > 10, "bits {}", ctl.current_bits());
    }

    #[test]
    fn error_scales_with_bits_converges_near_target() {
        // Model: relative error ≈ 2^(bits-23) (float truncation) — the
        // controller should settle where that crosses ~0.1%.
        let cfg = AdaptiveConfig::default();
        let mut ctl = AdaptiveTruncation::new(cfg, 0);
        drive(&mut ctl, 400_000, |bits| {
            let err = 2f64.powi(bits as i32 - 23);
            (1.0, 1.0 + err)
        });
        let bits = ctl.current_bits();
        // err(13) = 2^-10 ≈ 1e-3: the boundary sits near 12-14 bits.
        assert!((10..=15).contains(&bits), "converged to {bits}");
    }

    #[test]
    fn noisy_kernel_backs_off() {
        let mut ctl = AdaptiveTruncation::new(AdaptiveConfig::default(), 20);
        drive(&mut ctl, 50_000, |_| (1.0, 1.5)); // 50% error always
        assert_eq!(ctl.current_bits(), 0);
    }

    #[test]
    fn profiling_occupies_configured_fraction() {
        let cfg = AdaptiveConfig {
            normal_window: 90,
            profile_window: 10,
            ..AdaptiveConfig::default()
        };
        let mut ctl = AdaptiveTruncation::new(cfg, 8);
        let mut profiled = 0u64;
        for _ in 0..10_000 {
            if ctl.begin_invocation() == Phase::Profiling {
                profiled += 1;
                ctl.record_comparison(1.0, 1.0);
            }
        }
        let frac = profiled as f64 / 10_000.0;
        assert!((frac - 0.10).abs() < 0.02, "profiled fraction {frac}");
    }

    #[test]
    fn history_records_every_window() {
        let cfg = AdaptiveConfig {
            normal_window: 50,
            profile_window: 10,
            ..AdaptiveConfig::default()
        };
        let mut ctl = AdaptiveTruncation::new(cfg, 8);
        drive(&mut ctl, 600, |_| (1.0, 1.0));
        assert!(!ctl.history().is_empty());
    }

    #[test]
    fn comparisons_outside_profiling_are_ignored() {
        let mut ctl = AdaptiveTruncation::new(AdaptiveConfig::default(), 8);
        assert_eq!(ctl.phase(), Phase::Normal);
        ctl.record_comparison(1.0, 100.0);
        assert!(ctl.history().is_empty());
        assert_eq!(ctl.current_bits(), 8);
    }

    #[test]
    fn export_state_roundtrips_and_resumes() {
        let mut ctl = AdaptiveTruncation::new(AdaptiveConfig::default(), 4);
        drive(&mut ctl, 12_345, |_| (2.0, 2.0));
        let state = ctl.export_state();
        let mut restored = AdaptiveTruncation::from_state(state.clone());
        assert_eq!(restored.export_state(), state);
        // Both copies continue identically from the restored point.
        drive(&mut ctl, 5_000, |_| (2.0, 2.0));
        drive(&mut restored, 5_000, |_| (2.0, 2.0));
        assert_eq!(restored.current_bits(), ctl.current_bits());
        assert_eq!(restored.history(), ctl.history());
    }

    #[test]
    fn from_state_sanitizes_out_of_range_fields() {
        let cfg = AdaptiveConfig {
            min_bits: 4,
            max_bits: 8,
            ..AdaptiveConfig::default()
        };
        let state = AdaptiveState {
            config: cfg,
            bits: 31,
            profiling: false,
            remaining: u64::MAX,
            err_sum: f64::NAN,
            err_count: 9,
            history: Vec::new(),
        };
        let ctl = AdaptiveTruncation::from_state(state);
        assert_eq!(ctl.current_bits(), 8);
        let s = ctl.export_state();
        assert!(s.remaining <= cfg.normal_window.max(cfg.profile_window));
        assert_eq!((s.err_sum, s.err_count), (0.0, 0));
    }

    #[test]
    fn bits_respect_bounds() {
        let cfg = AdaptiveConfig {
            min_bits: 4,
            max_bits: 6,
            normal_window: 10,
            profile_window: 5,
            ..AdaptiveConfig::default()
        };
        let mut up = AdaptiveTruncation::new(cfg, 5);
        drive(&mut up, 5_000, |_| (1.0, 1.0));
        assert_eq!(up.current_bits(), 6);
        let mut down = AdaptiveTruncation::new(cfg, 5);
        drive(&mut down, 5_000, |_| (1.0, 9.0));
        assert_eq!(down.current_bits(), 4);
    }
}
