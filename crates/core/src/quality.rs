//! Quality monitoring with graceful degradation (§6, "Quality metric and
//! monitoring", extended).
//!
//! During execution, 1 out of every 100 LUT hits is sampled: the lookup
//! proceeds normally but the unit reports a *miss* to the processor, so
//! the original computation runs. The recomputed result is then compared
//! with the LUT output and a relative error recorded. After every 100
//! comparisons the window is checked against the 10%/10% rule.
//!
//! Where the paper's monitor kills memoization permanently on the first
//! bad window, this monitor walks a **degradation ladder** instead:
//!
//! 1. [`DegradationStage::ReducedTruncation`] — back off input
//!    truncation (fewer merged inputs → fewer collision-induced errors)
//!    and flush the LUT, whose entries were keyed under the old
//!    truncation.
//! 2. [`DegradationStage::Rewarmed`] — flush the LUT and re-warm it from
//!    scratch (collision bursts and injected corruption wash out).
//! 3. [`DegradationStage::Disabled`] — stop memoizing, but probe
//!    periodically: after [`PROBE_PERIOD_INITIAL`] disabled lookups
//!    (doubling after each failed probe, capped at
//!    [`PROBE_PERIOD_MAX`]), re-enable into the `Rewarmed` stage and let
//!    the next window decide.
//!
//! Two consecutive clean windows de-escalate one rung, so a transient
//! fault burst does not permanently cost speedup.

/// Default sampling period (1 forced miss per `100` hits).
pub const SAMPLE_PERIOD: u64 = 100;
/// Comparisons per check window.
pub const WINDOW: usize = 100;
/// Relative-error threshold for a "large error" sample.
pub const ERROR_THRESHOLD: f64 = 0.10;
/// Fraction of large-error samples in a window that degrades quality.
pub const DISABLE_FRACTION: f64 = 0.10;
/// Truncation bits removed while the ladder is in a degraded stage.
pub const TRUNC_BACKOFF_BITS: u32 = 4;
/// Consecutive clean windows required to climb back one rung.
pub const RECOVER_WINDOWS: u32 = 2;
/// Disabled lookups before the first re-enable probe.
pub const PROBE_PERIOD_INITIAL: u64 = 1_000;
/// Ceiling on the probe back-off period.
pub const PROBE_PERIOD_MAX: u64 = 64_000;

/// Relative error between a memoized output and the recomputed value,
/// `|approx - exact| / max(|exact|, ε)`. A non-finite operand (NaN or
/// infinity from the recomputation or a corrupted LUT word) is never
/// silently propagated: the comparison reports `f64::MAX`, i.e. a
/// maximally-large error that the window logic counts against quality.
pub fn relative_error(exact: f64, approx: f64) -> f64 {
    if !exact.is_finite() || !approx.is_finite() {
        // NaN == NaN bit patterns (or matching infinities) mean the
        // memoized value reproduces the recomputation exactly.
        let same_bits = exact.to_bits() == approx.to_bits();
        return if same_bits { 0.0 } else { f64::MAX };
    }
    let denom = exact.abs().max(f64::MIN_POSITIVE);
    let err = (approx - exact).abs() / denom;
    if err.is_finite() {
        err
    } else {
        f64::MAX
    }
}

/// Rung of the graceful-degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationStage {
    /// Full-quality memoization.
    Healthy,
    /// Truncation backed off by [`TRUNC_BACKOFF_BITS`]; LUT flushed.
    ReducedTruncation,
    /// LUT flushed and re-warming (truncation still backed off).
    Rewarmed,
    /// Memoization disabled, probing for re-enable.
    Disabled,
}

impl DegradationStage {
    /// Short lower-case label for telemetry events.
    pub fn label(self) -> &'static str {
        match self {
            DegradationStage::Healthy => "healthy",
            DegradationStage::ReducedTruncation => "reduced_truncation",
            DegradationStage::Rewarmed => "rewarmed",
            DegradationStage::Disabled => "disabled",
        }
    }

    /// Whether the unit should feed with backed-off truncation.
    pub fn truncation_backed_off(self) -> bool {
        matches!(
            self,
            DegradationStage::ReducedTruncation | DegradationStage::Rewarmed
        )
    }

    fn down(self) -> Self {
        match self {
            DegradationStage::Healthy => DegradationStage::ReducedTruncation,
            DegradationStage::ReducedTruncation => DegradationStage::Rewarmed,
            _ => DegradationStage::Disabled,
        }
    }

    fn up(self) -> Self {
        match self {
            DegradationStage::Disabled => DegradationStage::Rewarmed,
            DegradationStage::Rewarmed => DegradationStage::ReducedTruncation,
            _ => DegradationStage::Healthy,
        }
    }
}

/// What the memoization unit must do after a recorded comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QualityAction {
    /// Nothing to do.
    None,
    /// Entered [`DegradationStage::ReducedTruncation`]: the truncation
    /// keys changed, so flush the LUT.
    BackOffTruncation,
    /// Entered [`DegradationStage::Rewarmed`]: flush and re-warm.
    FlushAndRewarm,
    /// Entered [`DegradationStage::Disabled`].
    Disable,
    /// Climbed one rung after clean windows. `flush` is true when the
    /// truncation keys changed (re-entering `Healthy`), requiring a
    /// flush.
    Recover {
        /// Whether the LUT must be flushed (truncation keys changed).
        flush: bool,
    },
}

/// Serializable monitor state, captured by [`crate::snapshot`]. A
/// monitor restored mid-`ReducedTruncation` resumes its clean-window
/// recovery (stage + `clean_windows` survive) instead of restarting
/// `Healthy` — restarting would forget that the workload recently
/// degraded and skip the remaining de-escalation discipline.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityState {
    /// Ladder rung at capture time.
    pub stage: DegradationStage,
    /// Hits seen since the last sample (sampling phase).
    pub hits_seen: u64,
    /// Consecutive clean windows at the current stage.
    pub clean_windows: u32,
    /// Disabled lookups since entering `Disabled`.
    pub probe_wait: u64,
    /// Current probe back-off period.
    pub probe_period: u64,
    /// Total comparisons performed.
    pub comparisons: u64,
    /// Comparisons exceeding [`ERROR_THRESHOLD`].
    pub large_errors: u64,
    /// Ladder escalations so far.
    pub escalations: u64,
    /// Re-enable probes fired so far.
    pub probes: u64,
    /// The in-flight comparison window's errors.
    pub window: Vec<f64>,
}

/// The quality-monitoring unit attached to a memoization unit.
///
/// # Examples
///
/// ```
/// use axmemo_core::quality::{DegradationStage, QualityMonitor};
///
/// let mut qm = QualityMonitor::new();
/// // 99 hits pass through; the 100th is sampled (forced miss).
/// for _ in 0..99 {
///     assert!(!qm.should_sample_hit());
/// }
/// assert!(qm.should_sample_hit());
/// qm.record_comparison(1.0, 1.0005); // small error
/// assert!(qm.enabled());
/// assert_eq!(qm.stage(), DegradationStage::Healthy);
/// ```
#[derive(Debug, Clone)]
pub struct QualityMonitor {
    hits_seen: u64,
    window: Vec<f64>,
    stage: DegradationStage,
    /// Consecutive clean windows at the current stage.
    clean_windows: u32,
    /// Disabled lookups since entering `Disabled` (probe countdown).
    probe_wait: u64,
    /// Current probe back-off period.
    probe_period: u64,
    /// Total comparisons performed (across windows).
    comparisons: u64,
    /// Comparisons whose relative error exceeded the threshold.
    large_errors: u64,
    /// Ladder escalations (stage moved down).
    escalations: u64,
    /// Re-enable probes fired from `Disabled`.
    probes: u64,
}

impl QualityMonitor {
    /// A fresh, healthy monitor.
    pub fn new() -> Self {
        Self {
            hits_seen: 0,
            window: Vec::with_capacity(WINDOW),
            stage: DegradationStage::Healthy,
            clean_windows: 0,
            probe_wait: 0,
            probe_period: PROBE_PERIOD_INITIAL,
            comparisons: 0,
            large_errors: 0,
            escalations: 0,
            probes: 0,
        }
    }

    /// Capture the monitor's full state for persistence.
    pub fn export_state(&self) -> QualityState {
        QualityState {
            stage: self.stage,
            hits_seen: self.hits_seen,
            clean_windows: self.clean_windows,
            probe_wait: self.probe_wait,
            probe_period: self.probe_period,
            comparisons: self.comparisons,
            large_errors: self.large_errors,
            escalations: self.escalations,
            probes: self.probes,
            window: self.window.clone(),
        }
    }

    /// Rebuild a monitor from a captured state, sanitizing fields a
    /// decoded snapshot cannot be trusted to keep in range: the window
    /// is truncated below [`WINDOW`] (a full window would have been
    /// evaluated before capture), non-finite errors are clamped to
    /// `f64::MAX` (the convention of [`relative_error`]), the probe
    /// period to `1..=`[`PROBE_PERIOD_MAX`], and `clean_windows` below
    /// [`RECOVER_WINDOWS`].
    pub fn from_state(state: QualityState) -> Self {
        let mut window: Vec<f64> = state
            .window
            .into_iter()
            .map(|e| if e.is_finite() { e } else { f64::MAX })
            .collect();
        window.truncate(WINDOW - 1);
        Self {
            hits_seen: state.hits_seen,
            window,
            stage: state.stage,
            clean_windows: state.clean_windows.min(RECOVER_WINDOWS - 1),
            probe_wait: state.probe_wait,
            probe_period: state.probe_period.clamp(1, PROBE_PERIOD_MAX),
            comparisons: state.comparisons,
            large_errors: state.large_errors,
            escalations: state.escalations,
            probes: state.probes,
        }
    }

    /// Whether memoization is currently enabled (any stage but
    /// [`DegradationStage::Disabled`]).
    pub fn enabled(&self) -> bool {
        self.stage != DegradationStage::Disabled
    }

    /// Current ladder rung.
    pub fn stage(&self) -> DegradationStage {
        self.stage
    }

    /// Total comparisons performed.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Comparisons that exceeded [`ERROR_THRESHOLD`].
    pub fn large_errors(&self) -> u64 {
        self.large_errors
    }

    /// Ladder escalations so far.
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Re-enable probes fired so far.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Called on every LUT hit; returns `true` when this hit must be
    /// converted into a forced miss for sampling (every
    /// [`SAMPLE_PERIOD`]-th hit).
    pub fn should_sample_hit(&mut self) -> bool {
        if !self.enabled() {
            return false;
        }
        self.hits_seen += 1;
        self.hits_seen.is_multiple_of(SAMPLE_PERIOD)
    }

    /// Called on every lookup while disabled. Returns `true` when the
    /// probe period has elapsed: the monitor re-enables into
    /// [`DegradationStage::Rewarmed`] and the caller must flush the LUT
    /// before resuming.
    pub fn note_disabled_lookup(&mut self) -> bool {
        if self.enabled() {
            return false;
        }
        self.probe_wait += 1;
        if self.probe_wait < self.probe_period {
            return false;
        }
        self.probe_wait = 0;
        self.probe_period = (self.probe_period * 2).min(PROBE_PERIOD_MAX);
        self.probes += 1;
        self.stage = DegradationStage::Rewarmed;
        self.clean_windows = 0;
        self.window.clear();
        true
    }

    /// Record a sampled comparison between the recomputed `exact` value
    /// and the LUT's `approx` value, and return the ladder action the
    /// unit must apply.
    pub fn record_comparison(&mut self, exact: f64, approx: f64) -> QualityAction {
        if !self.enabled() {
            return QualityAction::None;
        }
        let err = relative_error(exact, approx);
        self.comparisons += 1;
        if err > ERROR_THRESHOLD {
            self.large_errors += 1;
        }
        self.window.push(err);
        if self.window.len() < WINDOW {
            return QualityAction::None;
        }
        let large = self.window.iter().filter(|&&e| e > ERROR_THRESHOLD).count();
        let bad = (large as f64) > DISABLE_FRACTION * self.window.len() as f64;
        self.window.clear();
        if bad {
            self.clean_windows = 0;
            self.escalations += 1;
            self.stage = self.stage.down();
            match self.stage {
                DegradationStage::ReducedTruncation => QualityAction::BackOffTruncation,
                DegradationStage::Rewarmed => QualityAction::FlushAndRewarm,
                DegradationStage::Disabled => {
                    self.probe_wait = 0;
                    QualityAction::Disable
                }
                DegradationStage::Healthy => unreachable!("down() never reaches Healthy"),
            }
        } else if self.stage != DegradationStage::Healthy {
            self.clean_windows += 1;
            if self.clean_windows < RECOVER_WINDOWS {
                return QualityAction::None;
            }
            self.clean_windows = 0;
            let was_backed_off = self.stage.truncation_backed_off();
            self.stage = self.stage.up();
            QualityAction::Recover {
                flush: was_backed_off && !self.stage.truncation_backed_off(),
            }
        } else {
            QualityAction::None
        }
    }
}

impl Default for QualityMonitor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Push one whole window of comparisons with `bad_fraction` of the
    /// samples exceeding the threshold; returns the last action.
    fn push_window(qm: &mut QualityMonitor, bad_per_window: usize) -> QualityAction {
        let mut last = QualityAction::None;
        for i in 0..WINDOW {
            last = if i < bad_per_window {
                qm.record_comparison(1.0, 2.0)
            } else {
                qm.record_comparison(1.0, 1.0)
            };
        }
        last
    }

    #[test]
    fn samples_every_hundredth_hit() {
        let mut qm = QualityMonitor::new();
        let mut sampled = 0;
        for _ in 0..1000 {
            if qm.should_sample_hit() {
                sampled += 1;
            }
        }
        assert_eq!(sampled, 10);
    }

    #[test]
    fn small_errors_keep_memoization_healthy() {
        let mut qm = QualityMonitor::new();
        for _ in 0..500 {
            qm.record_comparison(100.0, 100.5); // 0.5% error
        }
        assert!(qm.enabled());
        assert_eq!(qm.stage(), DegradationStage::Healthy);
        assert_eq!(qm.large_errors(), 0);
    }

    #[test]
    fn ladder_walks_truncation_then_rewarm_then_disable() {
        let mut qm = QualityMonitor::new();
        assert_eq!(push_window(&mut qm, 20), QualityAction::BackOffTruncation);
        assert_eq!(qm.stage(), DegradationStage::ReducedTruncation);
        assert!(qm.enabled(), "one bad window no longer kills memoization");
        assert_eq!(push_window(&mut qm, 20), QualityAction::FlushAndRewarm);
        assert_eq!(qm.stage(), DegradationStage::Rewarmed);
        assert_eq!(push_window(&mut qm, 20), QualityAction::Disable);
        assert_eq!(qm.stage(), DegradationStage::Disabled);
        assert!(!qm.enabled());
        assert_eq!(qm.escalations(), 3);
    }

    #[test]
    fn boundary_exactly_ten_percent_stays_healthy() {
        let mut qm = QualityMonitor::new();
        // Exactly 10 large errors in 100: "more than 10%" is required to
        // degrade, so this stays healthy.
        assert_eq!(push_window(&mut qm, 10), QualityAction::None);
        assert_eq!(qm.stage(), DegradationStage::Healthy);
    }

    #[test]
    fn disabled_monitor_stops_sampling_and_recording() {
        let mut qm = QualityMonitor::new();
        for _ in 0..3 {
            push_window(&mut qm, 100);
        }
        assert!(!qm.enabled());
        let before = qm.comparisons();
        assert_eq!(qm.record_comparison(1.0, 10.0), QualityAction::None);
        assert_eq!(qm.comparisons(), before);
        assert!(!qm.should_sample_hit());
    }

    #[test]
    fn clean_windows_climb_back_up() {
        let mut qm = QualityMonitor::new();
        push_window(&mut qm, 20);
        push_window(&mut qm, 20);
        assert_eq!(qm.stage(), DegradationStage::Rewarmed);
        // First clean window: no action yet (RECOVER_WINDOWS = 2).
        assert_eq!(push_window(&mut qm, 0), QualityAction::None);
        // Second: climb to ReducedTruncation; truncation still backed
        // off, no flush needed.
        assert_eq!(
            push_window(&mut qm, 0),
            QualityAction::Recover { flush: false }
        );
        assert_eq!(qm.stage(), DegradationStage::ReducedTruncation);
        push_window(&mut qm, 0);
        // Climbing back to Healthy restores truncation → flush.
        assert_eq!(
            push_window(&mut qm, 0),
            QualityAction::Recover { flush: true }
        );
        assert_eq!(qm.stage(), DegradationStage::Healthy);
    }

    #[test]
    fn disabled_probing_reenables_with_backoff() {
        let mut qm = QualityMonitor::new();
        for _ in 0..3 {
            push_window(&mut qm, 100);
        }
        assert!(!qm.enabled());
        // The first probe fires after PROBE_PERIOD_INITIAL lookups.
        for _ in 0..PROBE_PERIOD_INITIAL - 1 {
            assert!(!qm.note_disabled_lookup());
        }
        assert!(qm.note_disabled_lookup(), "probe must fire");
        assert_eq!(qm.stage(), DegradationStage::Rewarmed);
        assert!(qm.enabled());
        assert_eq!(qm.probes(), 1);
        // Fail again: the next probe takes twice as long.
        push_window(&mut qm, 100);
        assert!(!qm.enabled());
        for _ in 0..2 * PROBE_PERIOD_INITIAL - 1 {
            assert!(!qm.note_disabled_lookup());
        }
        assert!(qm.note_disabled_lookup());
        assert_eq!(qm.probes(), 2);
    }

    #[test]
    fn probe_schedule_doubles_from_the_thousandth_disabled_lookup() {
        // Walk the ladder to Disabled, then fail every probe: the first
        // probe fires on the 1,000th disabled lookup, each failed probe
        // doubles the wait, and the wait stops growing at 64,000.
        let mut qm = QualityMonitor::new();
        for _ in 0..3 {
            push_window(&mut qm, 100);
        }
        let mut waits = Vec::new();
        for _ in 0..8 {
            assert_eq!(qm.stage(), DegradationStage::Disabled);
            let mut lookups = 1u64;
            while !qm.note_disabled_lookup() {
                lookups += 1;
            }
            waits.push(lookups);
            assert_eq!(qm.stage(), DegradationStage::Rewarmed);
            assert_eq!(push_window(&mut qm, 100), QualityAction::Disable);
        }
        assert_eq!(
            waits,
            [1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 64_000]
        );
        assert_eq!(qm.probes(), 8);
    }

    #[test]
    fn export_state_roundtrips() {
        let mut qm = QualityMonitor::new();
        push_window(&mut qm, 20);
        for _ in 0..37 {
            qm.record_comparison(1.0, 1.0);
        }
        let state = qm.export_state();
        let restored = QualityMonitor::from_state(state.clone());
        assert_eq!(restored.export_state(), state);
        assert_eq!(restored.stage(), DegradationStage::ReducedTruncation);
    }

    #[test]
    fn restored_ladder_resumes_clean_window_recovery() {
        // Degrade to ReducedTruncation, then complete one of the two
        // clean windows required to climb back.
        let mut qm = QualityMonitor::new();
        push_window(&mut qm, 20);
        assert_eq!(push_window(&mut qm, 0), QualityAction::None);

        // Snapshot / restore mid-recovery: one more clean window must
        // finish the climb. A monitor that restarted Healthy (or lost
        // clean_windows) would behave differently.
        let mut restored = QualityMonitor::from_state(qm.export_state());
        assert_eq!(restored.stage(), DegradationStage::ReducedTruncation);
        assert_eq!(
            push_window(&mut restored, 0),
            QualityAction::Recover { flush: true }
        );
        assert_eq!(restored.stage(), DegradationStage::Healthy);
    }

    #[test]
    fn from_state_sanitizes_window_and_probe_period() {
        let state = QualityState {
            stage: DegradationStage::Disabled,
            hits_seen: 5,
            clean_windows: 99,
            probe_wait: 3,
            probe_period: 0,
            comparisons: 1,
            large_errors: 1,
            escalations: 3,
            probes: 0,
            window: vec![f64::NAN; WINDOW * 2],
        };
        let qm = QualityMonitor::from_state(state);
        let s = qm.export_state();
        assert!(s.window.len() < WINDOW);
        assert!(s.window.iter().all(|e| *e == f64::MAX));
        assert!(s.probe_period >= 1);
        assert!(s.clean_windows < RECOVER_WINDOWS);
    }

    #[test]
    fn relative_error_handles_zero_exact() {
        assert!(relative_error(0.0, 0.0).abs() < 1e-12);
        assert!(relative_error(0.0, 1.0).is_finite());
        assert!((relative_error(2.0, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn relative_error_clamps_non_finite_inputs() {
        // NaN and infinities never flow silently into the window: a
        // mismatch is a maximal error, a bit-identical non-finite pair
        // is a perfect reproduction.
        assert_eq!(relative_error(f64::NAN, 1.0), f64::MAX);
        assert_eq!(relative_error(1.0, f64::NAN), f64::MAX);
        assert_eq!(relative_error(f64::INFINITY, 1.0), f64::MAX);
        assert_eq!(relative_error(f64::NAN, f64::NAN), 0.0);
        assert_eq!(relative_error(f64::INFINITY, f64::INFINITY), 0.0);
        assert_eq!(relative_error(f64::INFINITY, f64::NEG_INFINITY), f64::MAX);
        // The overflow path: a denormal denominator must not yield inf.
        assert!(relative_error(f64::MIN_POSITIVE, f64::MAX).is_finite());
    }

    #[test]
    fn nan_comparisons_count_as_large_errors() {
        let mut qm = QualityMonitor::new();
        for _ in 0..WINDOW {
            qm.record_comparison(1.0, f64::NAN);
        }
        assert_eq!(qm.large_errors(), WINDOW as u64);
        assert_eq!(qm.stage(), DegradationStage::ReducedTruncation);
    }
}
