//! The per-core memoization unit (§3, Fig. 2).
//!
//! This is the façade the processor talks to. It owns the CRC hashing
//! unit, the Hash Value Registers, the (two-level) LUT, an input queue,
//! and the quality monitor. The interface mirrors the five ISA
//! extensions:
//!
//! | ISA instruction | Unit operation |
//! |---|---|
//! | `ld_crc` / `reg_crc` | [`MemoizationUnit::feed`] (after truncation) |
//! | `lookup` | [`MemoizationUnit::lookup`] |
//! | `update` | [`MemoizationUnit::update`] |
//! | `invalidate` | [`MemoizationUnit::invalidate`] |
//!
//! The unit is a functional model: it decides hits, misses, what the
//! LUT holds and what the quality monitor does, never how long an
//! operation takes. The simulator's `axmemo_sim::memo` module times
//! every operation from Table 4 and charges the profiler's cycle
//! leaves; the unit only counts its zero-cycle decisions (quality
//! sampling, comparisons and probes; LUT evictions).

use crate::config::MemoConfig;
use crate::crc::TableCrc;
use crate::faults::FaultStats;
use crate::hvr::HashValueRegisters;
use crate::ids::{LutId, ThreadId};
use crate::quality::{
    relative_error, DegradationStage, QualityAction, QualityMonitor, ERROR_THRESHOLD,
    TRUNC_BACKOFF_BITS,
};
use crate::truncate::InputValue;
use crate::two_level::{HitLevel, RestorePolicy, TwoLevelLut, TwoLevelOutcome};
use axmemo_telemetry::{PhaseId, Telemetry, Value};

/// What `lookup` reports back to the CPU (sets the condition code).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// Hit: data is written to the destination register; the block is
    /// skipped. Records which level answered, for timing.
    Hit {
        /// Output data for the destination register.
        data: u64,
        /// Level that served the hit.
        level: HitLevel,
    },
    /// Miss: the CPU executes the original block and will send `update`.
    Miss,
    /// A real hit converted to a miss by the quality monitor's sampling;
    /// the CPU recomputes, and the unit compares on `update`.
    SampledMiss {
        /// The data the LUT would have returned (kept for comparison).
        data: u64,
    },
    /// Memoization is currently disabled by the quality monitor's
    /// degradation ladder; behaves as a miss and no updates are stored.
    /// The monitor periodically probes for re-enabling (see
    /// [`crate::quality`]).
    Disabled,
}

impl LookupResult {
    /// Whether the CPU may skip the computation.
    pub fn skips_computation(&self) -> bool {
        matches!(self, LookupResult::Hit { .. })
    }
}

/// Aggregate statistics for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UnitStats {
    /// `lookup` requests received.
    pub lookups: u64,
    /// Hits reported to the CPU (excludes sampled misses).
    pub reported_hits: u64,
    /// Hits served by L1.
    pub l1_hits: u64,
    /// Hits served by L2.
    pub l2_hits: u64,
    /// Quality-monitor forced misses.
    pub sampled_misses: u64,
    /// `update` requests that wrote an entry.
    pub updates: u64,
    /// Input bytes streamed through the CRC unit.
    pub input_bytes: u64,
    /// `invalidate` operations.
    pub invalidates: u64,
}

impl UnitStats {
    /// Effective hit rate observed by the program (reported hits over
    /// lookups).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.reported_hits as f64 / self.lookups as f64
        }
    }
}

/// Pending state between a missed `lookup` and its `update`.
#[derive(Debug, Clone, Copy)]
struct PendingUpdate {
    crc: u64,
    /// Data the LUT would have returned (sampled miss only).
    sampled_data: Option<u64>,
    /// Index into the event log awaiting `computed_data` (when logging).
    event: Option<usize>,
}

/// One recorded lookup, for offline replay by alternative memoization
/// schemes (the software-LUT and ATM baselines of §6.2).
#[derive(Debug, Clone, PartialEq)]
pub struct LookupEvent {
    /// Logical LUT addressed.
    pub lut: LutId,
    /// The CRC value used as the tag.
    pub crc: u64,
    /// The (truncated) input bytes that were hashed, in feed order.
    pub input_bytes: Vec<u8>,
    /// Whether the hardware LUT hit.
    pub hit: bool,
    /// Output data: the LUT's on a hit, the recomputed value written by
    /// `update` on a miss (None if the program never updated).
    pub data: Option<u64>,
}

/// The memoization unit attached to one core.
///
/// The unit owns its [`TwoLevelLut`] outright: the LUT is private to
/// the core, so multi-core configurations need no LUT coherence
/// (§3.4).
///
/// # Examples
///
/// ```
/// use axmemo_core::config::MemoConfig;
/// use axmemo_core::ids::{LutId, ThreadId};
/// use axmemo_core::truncate::InputValue;
/// use axmemo_core::unit::{LookupResult, MemoizationUnit};
///
/// let mut unit = MemoizationUnit::new(MemoConfig::l1_only(4096)).unwrap();
/// let (lut, tid) = (LutId::new(0).unwrap(), ThreadId(0));
///
/// // First invocation: miss, compute, update.
/// unit.feed(lut, tid, InputValue::F32(1.5), 8);
/// assert_eq!(unit.lookup(lut, tid), LookupResult::Miss);
/// unit.update(lut, tid, 1234);
///
/// // Same (truncated) inputs: hit, computation skipped.
/// unit.feed(lut, tid, InputValue::F32(1.5), 8);
/// assert!(unit.lookup(lut, tid).skips_computation());
/// ```
#[derive(Debug)]
pub struct MemoizationUnit {
    config: MemoConfig,
    crc: TableCrc,
    hvr: HashValueRegisters,
    lut: TwoLevelLut,
    quality: QualityMonitor,
    pending: Vec<Option<PendingUpdate>>,
    stats: UnitStats,
    /// Optional lookup-event log (see [`LookupEvent`]).
    event_log: Option<Vec<LookupEvent>>,
    /// Staged input bytes per `{lut, tid}` slot while logging.
    staged_bytes: Vec<Vec<u8>>,
    /// Capture a warm image at the first end-of-program `invalidate`
    /// (see [`Self::arm_warm_capture`]).
    capture_armed: bool,
    /// The captured warm image awaiting [`Self::take_warm_image`].
    warm_image: Option<crate::snapshot::MemoSnapshot>,
}

impl MemoizationUnit {
    /// Build a unit for `config`.
    ///
    /// # Errors
    ///
    /// Returns the [`crate::config::ConfigError`] from
    /// [`MemoConfig::validate`] if the configuration is structurally
    /// invalid.
    pub fn new(config: MemoConfig) -> Result<Self, crate::config::ConfigError> {
        config.validate()?;
        let lut = TwoLevelLut::new(&config);
        let crc = TableCrc::new(config.crc_width);
        let hvr = HashValueRegisters::new(&crc, config.smt_threads);
        let config_threads = config.smt_threads;
        let pending = vec![None; crate::ids::MAX_LUTS * config.smt_threads];
        Ok(Self {
            config,
            crc,
            hvr,
            lut,
            quality: QualityMonitor::new(),
            pending,
            stats: UnitStats::default(),
            event_log: None,
            staged_bytes: vec![Vec::new(); crate::ids::MAX_LUTS * config_threads],
            capture_armed: false,
            warm_image: None,
        })
    }

    /// The unit's configuration.
    pub fn config(&self) -> &MemoConfig {
        &self.config
    }

    /// Run statistics.
    pub fn stats(&self) -> UnitStats {
        self.stats
    }

    /// The LUT hierarchy (for hit-rate reporting, Fig. 9).
    pub fn lut(&self) -> &TwoLevelLut {
        &self.lut
    }

    /// Whether the quality monitor has disabled memoization.
    pub fn memoization_disabled(&self) -> bool {
        !self.quality.enabled()
    }

    /// Current rung of the quality-degradation ladder.
    pub fn quality_stage(&self) -> DegradationStage {
        self.quality.stage()
    }

    /// The quality monitor (escalation/probe counters for reporting).
    pub fn quality(&self) -> &QualityMonitor {
        &self.quality
    }

    /// Aggregate fault statistics across the LUT hierarchy.
    pub fn fault_stats(&self) -> FaultStats {
        self.lut.fault_stats()
    }

    fn pending_slot(&self, lut: LutId, tid: ThreadId) -> usize {
        tid.index() * crate::ids::MAX_LUTS + lut.index()
    }

    /// Stream one memoization input into the hash for `{lut, tid}`,
    /// truncating `trunc_bits` LSBs first (`ld_crc` / `reg_crc`).
    ///
    /// Hashing costs no cycles here: the timing simulator queues the
    /// bytes for the CRC unit at `axmemo_sim::memo::CRC_BYTES_PER_CYCLE`
    /// and charges only the issue delays that queue causes.
    pub fn feed(&mut self, lut: LutId, tid: ThreadId, value: InputValue, trunc_bits: u32) {
        self.feed_tel(lut, tid, value, trunc_bits, &mut Telemetry::off());
    }

    /// [`Self::feed`] with telemetry (counts input bytes streamed).
    pub fn feed_tel(
        &mut self,
        lut: LutId,
        tid: ThreadId,
        value: InputValue,
        trunc_bits: u32,
        tel: &mut Telemetry,
    ) {
        // In a degraded stage the ladder backs off truncation: fewer
        // merged inputs, fewer collision-induced errors (§6 extension).
        let trunc = if self.quality.stage().truncation_backed_off() {
            trunc_bits.saturating_sub(TRUNC_BACKOFF_BITS)
        } else {
            trunc_bits
        };
        let (bytes, len) = value.truncated_bytes(trunc);
        self.hvr.accumulate(&self.crc, lut, tid, &bytes[..len]);
        if self.event_log.is_some() {
            let slot = self.pending_slot(lut, tid);
            self.staged_bytes[slot].extend_from_slice(&bytes[..len]);
        }
        self.stats.input_bytes += len as u64;
        tel.count("unit.input_bytes", len as u64);
    }

    /// Raw-byte variant of [`Self::feed`] for callers that already hold a
    /// byte stream (e.g. the software-LUT baseline's trace replay).
    pub fn feed_bytes(&mut self, lut: LutId, tid: ThreadId, bytes: &[u8]) {
        self.hvr.accumulate(&self.crc, lut, tid, bytes);
        if self.event_log.is_some() {
            let slot = self.pending_slot(lut, tid);
            self.staged_bytes[slot].extend_from_slice(bytes);
        }
        self.stats.input_bytes += bytes.len() as u64;
    }

    /// Perform the LUT lookup for `{lut, tid}` (the `lookup`
    /// instruction). Consumes the accumulated hash.
    pub fn lookup(&mut self, lut: LutId, tid: ThreadId) -> LookupResult {
        self.lookup_tel(lut, tid, &mut Telemetry::off())
    }

    /// [`Self::lookup`] with telemetry: the LUT hierarchy emits one
    /// `lut.hit`/`lut.miss` event per probe; this layer adds
    /// quality-monitor sampling/disable events.
    pub fn lookup_tel(&mut self, lut: LutId, tid: ThreadId, tel: &mut Telemetry) -> LookupResult {
        let crc = self.hvr.take(&self.crc, lut, tid);
        self.stats.lookups += 1;
        let slot = self.pending_slot(lut, tid);

        if self.config.quality_monitoring && !self.quality.enabled() {
            if self.quality.note_disabled_lookup() {
                // Probe period elapsed: re-enable into the re-warm stage
                // with a cold LUT and fall through to a normal lookup.
                self.lut.invalidate_all();
                tel.count("quality.reenable_probes", 1);
                tel.event(
                    "quality.reenable_probe",
                    &[("probes", Value::U64(self.quality.probes()))],
                );
                tel.profiler_mut().leaf(PhaseId::Quality, 0);
            } else {
                // Memoization disabled: recompute; no updates stored.
                self.pending[slot] = None;
                self.staged_bytes[slot].clear();
                tel.count("quality.disabled_lookups", 1);
                return LookupResult::Disabled;
            }
        }

        match self.lut.lookup_tel(lut, crc, tel) {
            TwoLevelOutcome::Hit(level, data) => {
                if self.config.quality_monitoring && self.quality.should_sample_hit() {
                    self.stats.sampled_misses += 1;
                    tel.count("quality.sampled_misses", 1);
                    tel.profiler_mut().leaf(PhaseId::Quality, 0);
                    tel.event(
                        "quality.sample",
                        &[
                            ("lut", Value::U64(u64::from(lut.raw()))),
                            ("crc", Value::U64(crc)),
                        ],
                    );
                    let event = self.log_event(slot, lut, crc, false);
                    self.pending[slot] = Some(PendingUpdate {
                        crc,
                        sampled_data: Some(data),
                        event,
                    });
                    LookupResult::SampledMiss { data }
                } else {
                    self.stats.reported_hits += 1;
                    match level {
                        HitLevel::L1 => self.stats.l1_hits += 1,
                        HitLevel::L2 => self.stats.l2_hits += 1,
                    }
                    if let Some(ev) = self.log_event(slot, lut, crc, true) {
                        if let Some(log) = self.event_log.as_mut() {
                            log[ev].data = Some(data);
                        }
                    }
                    self.pending[slot] = None;
                    LookupResult::Hit { data, level }
                }
            }
            TwoLevelOutcome::Miss => {
                // Entry allocation begins in parallel with the original
                // computation (§3.4); we record the CRC for the update.
                let event = self.log_event(slot, lut, crc, false);
                self.pending[slot] = Some(PendingUpdate {
                    crc,
                    sampled_data: None,
                    event,
                });
                LookupResult::Miss
            }
        }
    }

    /// Store the recomputed output for the preceding missed lookup (the
    /// `update` instruction). For sampled misses this also performs the
    /// quality comparison instead of a (redundant) write.
    ///
    /// Values compared by the quality monitor are interpreted through
    /// `as_quality_value` when provided; by default the raw bits of the
    /// low 32 bits are compared as `f32`s when finite, else as integers.
    ///
    /// Returns whether a pending miss was consumed: an `update` with no
    /// preceding missed lookup changes nothing.
    pub fn update(&mut self, lut: LutId, tid: ThreadId, data: u64) -> bool {
        self.update_tel(lut, tid, data, &mut Telemetry::off())
    }

    /// [`Self::update`] with telemetry: emits `quality.compare` for
    /// sampled-miss comparisons, `quality.reject` when the comparison
    /// exceeds the error threshold, and `quality.tripped` on the
    /// transition that disables memoization for the rest of the run.
    pub fn update_tel(
        &mut self,
        lut: LutId,
        tid: ThreadId,
        data: u64,
        tel: &mut Telemetry,
    ) -> bool {
        let slot = self.pending_slot(lut, tid);
        let Some(p) = self.pending[slot].take() else {
            // update without a preceding missed lookup: ignore (program
            // bug or disabled memoization).
            return false;
        };
        if let Some(lut_data) = p.sampled_data {
            // Quality comparison path: compare recomputed vs LUT output.
            let exact = value_for_quality(data);
            let approx = value_for_quality(lut_data);
            let err = relative_error(exact, approx);
            tel.count("quality.comparisons", 1);
            tel.profiler_mut().leaf(PhaseId::Quality, 0);
            tel.event(
                "quality.compare",
                &[
                    ("lut", Value::U64(u64::from(lut.raw()))),
                    ("exact", Value::F64(exact)),
                    ("approx", Value::F64(approx)),
                    ("error", Value::F64(err)),
                ],
            );
            if err > ERROR_THRESHOLD {
                tel.count("quality.rejections", 1);
                tel.event(
                    "quality.reject",
                    &[
                        ("lut", Value::U64(u64::from(lut.raw()))),
                        ("error", Value::F64(err)),
                    ],
                );
            }
            let action = self.quality.record_comparison(exact, approx);
            let suppressed = self.apply_quality_action(action, tel);
            // The entry already exists (it hit); refresh its data with
            // the exact recomputation — unless the ladder just flushed
            // the LUT (the entry is keyed under stale truncation).
            if !suppressed {
                self.lut.update_tel(lut, p.crc, data, tel);
            }
        } else {
            self.lut.update_tel(lut, p.crc, data, tel);
        }
        if let (Some(ev), Some(log)) = (p.event, self.event_log.as_mut()) {
            log[ev].data = Some(data);
        }
        self.stats.updates += 1;
        true
    }

    /// Apply a degradation-ladder transition. Returns `true` when the
    /// pending LUT write must be suppressed (the LUT was flushed or
    /// memoization disabled).
    fn apply_quality_action(&mut self, action: QualityAction, tel: &mut Telemetry) -> bool {
        match action {
            QualityAction::None => false,
            QualityAction::BackOffTruncation | QualityAction::FlushAndRewarm => {
                // Either transition re-keys or re-warms: flush the LUT.
                self.lut.invalidate_all();
                tel.count("quality.degradations", 1);
                tel.event(
                    "quality.degrade",
                    &[
                        ("stage", Value::Str(self.quality.stage().label().into())),
                        ("comparisons", Value::U64(self.quality.comparisons())),
                    ],
                );
                true
            }
            QualityAction::Disable => {
                tel.count("quality.trips", 1);
                tel.event(
                    "quality.tripped",
                    &[("comparisons", Value::U64(self.quality.comparisons()))],
                );
                true
            }
            QualityAction::Recover { flush } => {
                if flush {
                    self.lut.invalidate_all();
                }
                tel.count("quality.recoveries", 1);
                tel.event(
                    "quality.recover",
                    &[
                        ("stage", Value::Str(self.quality.stage().label().into())),
                        ("flush", Value::Bool(flush)),
                    ],
                );
                flush
            }
        }
    }

    /// Invalidate all entries of logical LUT `lut` (the `invalidate`
    /// instruction).
    pub fn invalidate(&mut self, lut: LutId) {
        self.invalidate_tel(lut, &mut Telemetry::off())
    }

    /// [`Self::invalidate`] with telemetry: counts the invalidation and,
    /// as `lut.invalidated_entries`, the entries it wiped at both levels.
    pub fn invalidate_tel(&mut self, lut: LutId, tel: &mut Telemetry) {
        // Compiled programs emit `invalidate` for every LUT right
        // before `halt`, so an armed warm-image capture must grab the
        // contents here, before the wipe. Only the first invalidate
        // captures — subsequent ones (multi-LUT programs) see a
        // partially-wiped array.
        if self.capture_armed && self.warm_image.is_none() {
            self.warm_image = Some(crate::snapshot::MemoSnapshot::capture_tel(
                &self.lut,
                Some(&self.quality),
                tel,
            ));
            tel.count("snapshot.captures", 1);
        }
        let wiped = self.lut.invalidate(lut);
        self.stats.invalidates += 1;
        tel.count("lut.invalidations", 1);
        tel.count("lut.invalidated_entries", wiped);
        tel.event(
            "lut.invalidate",
            &[("lut", Value::U64(u64::from(lut.raw())))],
        );
    }

    /// Clear all state between runs (LUT contents, HVRs, pending slots,
    /// statistics, quality monitor).
    pub fn reset(&mut self) {
        self.lut.invalidate_all();
        self.lut.reset_stats();
        self.lut.reset_faults();
        self.hvr = HashValueRegisters::new(&self.crc, self.config.smt_threads);
        self.quality = QualityMonitor::new();
        for p in &mut self.pending {
            *p = None;
        }
        for sbuf in &mut self.staged_bytes {
            sbuf.clear();
        }
        if let Some(log) = self.event_log.as_mut() {
            log.clear();
        }
        self.stats = UnitStats::default();
        self.capture_armed = false;
        self.warm_image = None;
    }

    /// Arm end-of-run warm-image capture. Compiled programs invalidate
    /// every LUT just before halting (§4's end-of-program `invalidate`),
    /// so a snapshot taken *after* the run would always see an empty
    /// array; arming instead captures the contents at the first
    /// `invalidate`, immediately before the wipe.
    pub fn arm_warm_capture(&mut self) {
        self.capture_armed = true;
        self.warm_image = None;
    }

    /// Take the warm image captured since [`Self::arm_warm_capture`].
    /// If the program never invalidated (no capture fired), the current
    /// LUT contents are captured instead, so an armed unit always
    /// yields an image. Returns `None` when capture was never armed.
    pub fn take_warm_image(&mut self) -> Option<crate::snapshot::MemoSnapshot> {
        if !self.capture_armed {
            return None;
        }
        self.capture_armed = false;
        self.warm_image.take().or_else(|| {
            Some(crate::snapshot::MemoSnapshot::capture(
                &self.lut,
                Some(&self.quality),
            ))
        })
    }

    /// Warm-start the unit from a recovered snapshot: reinstall the LUT
    /// entries in `policy`'s order (stats-neutral and fault-free —
    /// restored entries never count as this run's inserts, lookups or
    /// hits) and, under [`RestorePolicy::OldestFirst`], resume the
    /// quality-monitor ladder where the donor left it.
    /// [`RestorePolicy::MruFirst`] bounds restore pollution for
    /// scan-dominated workloads (see `EXPERIMENTS.md`). Run statistics
    /// and pending state are untouched; call [`Self::reset`] first for
    /// a clean run.
    pub fn restore_warm(
        &mut self,
        snapshot: &crate::snapshot::MemoSnapshot,
        policy: RestorePolicy,
    ) -> crate::snapshot::RestoreSummary {
        let (l1_restored, l1_dropped) = self.lut.restore_l1(&snapshot.l1_entries, policy);
        let (l2_restored, l2_dropped) = self.lut.restore_l2(&snapshot.l2_entries, policy);
        // MruFirst is the fresh-biased policy: the warm run keeps the
        // donor's hottest entries but re-earns any quality degradation
        // from its own sampled comparisons. Resuming a donor ladder
        // that ended degraded (sobel walks to `reduced_truncation`
        // near the end of a run) locks the whole warm run into the
        // conservative rung and is the dominant term in the measured
        // warm-restore hit-rate collapse — see EXPERIMENTS.md.
        let quality_restored = match &snapshot.quality {
            Some(q) if self.config.quality_monitoring && policy == RestorePolicy::OldestFirst => {
                self.quality = QualityMonitor::from_state(q.clone());
                true
            }
            _ => false,
        };
        crate::snapshot::RestoreSummary {
            l1_restored,
            l1_dropped,
            l2_restored,
            l2_dropped,
            quality_restored,
        }
    }

    /// Start recording a [`LookupEvent`] per lookup (for the §6.2
    /// software-LUT and ATM replays). Costs memory proportional to the
    /// number of lookups; disabled by default.
    pub fn enable_event_log(&mut self) {
        self.event_log = Some(Vec::new());
    }

    /// Take the recorded events, leaving logging enabled with an empty
    /// log. Returns an empty vector if logging was never enabled.
    pub fn take_event_log(&mut self) -> Vec<LookupEvent> {
        match self.event_log.as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Append an event if logging; consumes the staged bytes. The event
    /// gets an exact-size copy and the staging buffer keeps its capacity
    /// for the next instance.
    fn log_event(&mut self, slot: usize, lut: LutId, crc: u64, hit: bool) -> Option<usize> {
        let log = self.event_log.as_mut()?;
        let staged = &mut self.staged_bytes[slot];
        let input_bytes = staged.to_vec();
        staged.clear();
        log.push(LookupEvent {
            lut,
            crc,
            input_bytes,
            hit,
            data: None,
        });
        Some(log.len() - 1)
    }
}

/// Interpret LUT data for quality comparison: finite `f32` in the low 32
/// bits when plausible, otherwise the integer value.
fn value_for_quality(data: u64) -> f64 {
    let f = f32::from_bits(data as u32);
    if f.is_finite() && f.abs() > 1e-30 {
        f64::from(f)
    } else {
        data as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> MemoizationUnit {
        MemoizationUnit::new(MemoConfig::l1_only(4096)).unwrap()
    }

    fn ids() -> (LutId, ThreadId) {
        (LutId::new(0).unwrap(), ThreadId(0))
    }

    #[test]
    fn miss_then_update_then_hit() {
        let mut u = unit();
        let (lut, tid) = ids();
        u.feed(lut, tid, InputValue::F32(2.0), 0);
        u.feed(lut, tid, InputValue::F32(3.0), 0);
        assert_eq!(u.lookup(lut, tid), LookupResult::Miss);
        u.update(lut, tid, 6);
        u.feed(lut, tid, InputValue::F32(2.0), 0);
        u.feed(lut, tid, InputValue::F32(3.0), 0);
        match u.lookup(lut, tid) {
            LookupResult::Hit { data, level } => {
                assert_eq!(data, 6);
                assert_eq!(level, HitLevel::L1);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(u.stats().reported_hits, 1);
        assert_eq!(u.stats().updates, 1);
    }

    #[test]
    fn truncation_merges_similar_inputs() {
        let mut u = unit();
        let (lut, tid) = ids();
        u.feed(lut, tid, InputValue::F32(1.000_001), 12);
        assert_eq!(u.lookup(lut, tid), LookupResult::Miss);
        u.update(lut, tid, 10);
        u.feed(lut, tid, InputValue::F32(1.000_002), 12);
        assert!(u.lookup(lut, tid).skips_computation());
    }

    #[test]
    fn different_inputs_miss() {
        let mut u = unit();
        let (lut, tid) = ids();
        u.feed(lut, tid, InputValue::I32(1), 0);
        assert_eq!(u.lookup(lut, tid), LookupResult::Miss);
        u.update(lut, tid, 1);
        u.feed(lut, tid, InputValue::I32(2), 0);
        assert_eq!(u.lookup(lut, tid), LookupResult::Miss);
    }

    #[test]
    fn input_order_matters() {
        // CRC is order-sensitive: (a, b) != (b, a).
        let mut u = unit();
        let (lut, tid) = ids();
        u.feed(lut, tid, InputValue::I32(1), 0);
        u.feed(lut, tid, InputValue::I32(2), 0);
        assert_eq!(u.lookup(lut, tid), LookupResult::Miss);
        u.update(lut, tid, 12);
        u.feed(lut, tid, InputValue::I32(2), 0);
        u.feed(lut, tid, InputValue::I32(1), 0);
        assert_eq!(u.lookup(lut, tid), LookupResult::Miss);
    }

    #[test]
    fn quality_sampling_every_hundredth_hit() {
        let mut u = unit();
        let (lut, tid) = ids();
        u.feed(lut, tid, InputValue::I32(7), 0);
        assert_eq!(u.lookup(lut, tid), LookupResult::Miss);
        u.update(lut, tid, 7);
        let mut sampled = 0;
        for _ in 0..200 {
            u.feed(lut, tid, InputValue::I32(7), 0);
            match u.lookup(lut, tid) {
                LookupResult::SampledMiss { data } => {
                    sampled += 1;
                    assert_eq!(data, 7);
                    u.update(lut, tid, 7);
                }
                LookupResult::Hit { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(sampled, 2);
        assert_eq!(u.stats().sampled_misses, 2);
    }

    #[test]
    fn quality_monitoring_can_be_disabled_in_config() {
        let cfg = MemoConfig {
            quality_monitoring: false,
            ..MemoConfig::l1_only(4096)
        };
        let mut u = MemoizationUnit::new(cfg).unwrap();
        let (lut, tid) = ids();
        u.feed(lut, tid, InputValue::I32(7), 0);
        assert_eq!(u.lookup(lut, tid), LookupResult::Miss);
        u.update(lut, tid, 7);
        for _ in 0..500 {
            u.feed(lut, tid, InputValue::I32(7), 0);
            assert!(u.lookup(lut, tid).skips_computation());
        }
        assert_eq!(u.stats().sampled_misses, 0);
    }

    #[test]
    fn bad_memoization_walks_the_ladder_to_disabled() {
        // Model a workload whose "recomputed" value drifts between
        // invocations (alternating 1.0 / 100.0): every sampled comparison
        // sees a huge relative error. One bad window (100 comparisons =
        // 10,000 hits) per rung: ReducedTruncation → Rewarmed → Disabled,
        // so after three bad windows the unit must disable itself.
        let mut u = unit();
        let (lut, tid) = ids();
        let mut flip = false;
        let mut disabled = false;
        let mut stages = Vec::new();
        for _ in 0..60_000u64 {
            u.feed(lut, tid, InputValue::I32(1), 0);
            match u.lookup(lut, tid) {
                LookupResult::SampledMiss { .. } | LookupResult::Miss => {
                    // "Recompute" a value far from whatever is stored
                    // (misses also re-warm the LUT after ladder flushes).
                    let v = if flip { 100.0f32 } else { 1.0f32 };
                    flip = !flip;
                    u.update(lut, tid, u64::from(v.to_bits()));
                }
                LookupResult::Disabled => {
                    disabled = true;
                    break;
                }
                _ => {}
            }
            if stages.last() != Some(&u.quality_stage()) {
                stages.push(u.quality_stage());
            }
        }
        assert!(disabled, "quality monitor never tripped");
        assert!(u.memoization_disabled());
        assert_eq!(
            stages,
            vec![
                DegradationStage::Healthy,
                DegradationStage::ReducedTruncation,
                DegradationStage::Rewarmed,
                DegradationStage::Disabled,
            ],
            "ladder must walk every rung in order"
        );
        assert_eq!(u.quality().escalations(), 3);
    }

    #[test]
    fn disabled_unit_probes_and_reenables() {
        use crate::quality::PROBE_PERIOD_INITIAL;
        let mut u = unit();
        let (lut, tid) = ids();
        let mut flip = false;
        // Drive the unit all the way to Disabled (as above).
        for _ in 0..60_000u64 {
            if u.memoization_disabled() {
                break;
            }
            u.feed(lut, tid, InputValue::I32(1), 0);
            if matches!(
                u.lookup(lut, tid),
                LookupResult::SampledMiss { .. } | LookupResult::Miss
            ) {
                let v = if flip { 100.0f32 } else { 1.0f32 };
                flip = !flip;
                u.update(lut, tid, u64::from(v.to_bits()));
            }
        }
        assert!(u.memoization_disabled());
        // The next PROBE_PERIOD_INITIAL lookups stay disabled; then the
        // probe fires and the unit resumes memoizing (Rewarmed stage).
        let mut reenabled_at = None;
        for i in 0..2 * PROBE_PERIOD_INITIAL {
            u.feed(lut, tid, InputValue::I32(1), 0);
            let r = u.lookup(lut, tid);
            if r != LookupResult::Disabled {
                reenabled_at = Some(i);
                if matches!(r, LookupResult::Miss) {
                    u.update(lut, tid, u64::from(1.0f32.to_bits()));
                }
                break;
            }
        }
        assert_eq!(reenabled_at, Some(PROBE_PERIOD_INITIAL - 1));
        assert_eq!(u.quality_stage(), DegradationStage::Rewarmed);
        // Stable values now: the unit hits again after re-warming.
        u.feed(lut, tid, InputValue::I32(1), 0);
        assert!(u.lookup(lut, tid).skips_computation());
    }

    #[test]
    fn invalidate_clears_logical_lut() {
        let mut u = unit();
        let (lut, tid) = ids();
        u.feed(lut, tid, InputValue::I32(5), 0);
        assert_eq!(u.lookup(lut, tid), LookupResult::Miss);
        u.update(lut, tid, 5);
        u.invalidate(lut);
        u.feed(lut, tid, InputValue::I32(5), 0);
        assert_eq!(u.lookup(lut, tid), LookupResult::Miss);
    }

    #[test]
    fn invalidate_counts_the_entries_it_wipes() {
        let filled = || {
            let mut u = MemoizationUnit::new(MemoConfig::l1_l2(1024, 8 * 1024)).unwrap();
            let (lut, tid) = ids();
            for i in 0..200i32 {
                u.feed(lut, tid, InputValue::I32(i), 0);
                assert_eq!(u.lookup(lut, tid), LookupResult::Miss);
                u.update(lut, tid, i as u64);
            }
            u
        };
        let wiped = |u: &MemoizationUnit| {
            u.lut().l1_stats().invalidations + u.lut().l2_stats().invalidations
        };
        let (lut, _) = ids();

        let mut u = filled();
        let l2 = u.lut().l2().expect("L1+L2 unit");
        let live = (u.lut().l1().occupancy() + l2.occupancy()) as u64;
        assert!(live > 0 && l2.occupancy() > 0);
        let before = wiped(&u);
        let mut tel = Telemetry::enabled();
        u.invalidate_tel(lut, &mut tel);
        let counted = tel.registry().counter("lut.invalidated_entries");
        assert_eq!(counted, live);
        assert_eq!(counted, wiped(&u) - before);

        let mut u = filled();
        let mut off = Telemetry::off();
        u.invalidate_tel(lut, &mut off);
        assert_eq!(off.registry().counter("lut.invalidated_entries"), 0);
    }

    #[test]
    fn event_log_records_each_instance_bytes() {
        // Staging reuses one buffer per slot: every event must still get
        // exactly its own instance's bytes, whatever the earlier
        // instances left behind.
        let mut u = unit();
        let (lut, tid) = ids();
        u.enable_event_log();
        let instances: [&[InputValue]; 3] = [
            &[InputValue::F64(2.5), InputValue::U8(9), InputValue::I32(-3)],
            &[InputValue::U8(1)],
            &[InputValue::F64(2.5), InputValue::U8(9), InputValue::I32(-3)],
        ];
        let crc = TableCrc::new(MemoConfig::default().crc_width);
        let mut expected = Vec::new();
        for inputs in instances {
            let mut bytes = Vec::new();
            for &v in inputs {
                u.feed(lut, tid, v, 0);
                let (b, n) = v.truncated_bytes(0);
                bytes.extend_from_slice(&b[..n]);
            }
            let hit = u.lookup(lut, tid).skips_computation();
            if !hit {
                u.update(lut, tid, bytes.len() as u64);
            }
            expected.push(LookupEvent {
                lut,
                crc: crc.checksum(&bytes),
                input_bytes: bytes,
                hit,
                data: Some(13),
            });
        }
        expected[1].data = Some(1);
        assert_eq!(
            expected.iter().map(|e| e.hit).collect::<Vec<_>>(),
            [false, false, true]
        );
        assert_eq!(u.take_event_log(), expected);
    }

    #[test]
    fn feed_counts_input_bytes() {
        let mut u = unit();
        let (lut, tid) = ids();
        u.feed(lut, tid, InputValue::F64(1.0), 0);
        assert_eq!(u.stats().input_bytes, 8);
        u.feed(lut, tid, InputValue::F32(1.0), 0);
        u.feed(lut, tid, InputValue::U8(1), 0);
        assert_eq!(u.stats().input_bytes, 13);
    }

    #[test]
    fn reset_restores_pristine_state() {
        let mut u = unit();
        let (lut, tid) = ids();
        u.feed(lut, tid, InputValue::I32(1), 0);
        u.lookup(lut, tid);
        u.update(lut, tid, 1);
        u.reset();
        assert_eq!(u.stats(), UnitStats::default());
        u.feed(lut, tid, InputValue::I32(1), 0);
        assert_eq!(u.lookup(lut, tid), LookupResult::Miss);
    }

    #[test]
    fn armed_capture_grabs_contents_before_invalidate() {
        let mut u = unit();
        let (lut, tid) = ids();
        u.arm_warm_capture();
        u.feed(lut, tid, InputValue::I32(7), 0);
        assert_eq!(u.lookup(lut, tid), LookupResult::Miss);
        u.update(lut, tid, 99);
        // End-of-program invalidate: the LUT empties, but the armed
        // capture saw the warm contents first.
        u.invalidate(lut);
        assert_eq!(u.lut().l1().occupancy(), 0);
        let image = u.take_warm_image().expect("armed unit yields image");
        assert_eq!(image.l1_entries.len(), 1);
        assert_eq!(image.l1_entries[0].data, 99);
        // Taking the image disarms.
        assert!(u.take_warm_image().is_none());
    }

    #[test]
    fn armed_capture_without_invalidate_captures_at_take() {
        let mut u = unit();
        let (lut, tid) = ids();
        u.arm_warm_capture();
        u.feed(lut, tid, InputValue::I32(7), 0);
        assert_eq!(u.lookup(lut, tid), LookupResult::Miss);
        u.update(lut, tid, 5);
        let image = u.take_warm_image().expect("falls back to live contents");
        assert_eq!(image.l1_entries.len(), 1);
    }

    #[test]
    fn restore_warm_serves_hits_without_counting_donor_activity() {
        let mut donor = unit();
        let (lut, tid) = ids();
        donor.arm_warm_capture();
        for i in 0..50i32 {
            donor.feed(lut, tid, InputValue::I32(i), 0);
            if donor.lookup(lut, tid) == LookupResult::Miss {
                donor.update(lut, tid, i as u64);
            }
        }
        donor.invalidate(lut);
        let image = donor.take_warm_image().unwrap();

        let mut fresh = unit();
        let summary = fresh.restore_warm(&image, RestorePolicy::OldestFirst);
        assert_eq!(summary.l1_restored, 50);
        assert_eq!(summary.l1_dropped, 0);
        assert!(summary.quality_restored);
        // Restored entries are not this run's activity (double-count
        // pin): all counters start at zero...
        assert_eq!(fresh.stats(), UnitStats::default());
        assert_eq!(fresh.lut().l1_stats().inserts, 0);
        assert_eq!(fresh.lut().l1_stats().lookups(), 0);
        // ...and the very first lookup is a warm hit, so the observed
        // hit rate reflects only post-restore traffic.
        fresh.feed(lut, tid, InputValue::I32(17), 0);
        assert!(fresh.lookup(lut, tid).skips_computation());
        assert!((fresh.stats().hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_disarms_capture() {
        let mut u = unit();
        u.arm_warm_capture();
        u.reset();
        assert!(u.take_warm_image().is_none());
    }

    #[test]
    fn update_without_pending_is_harmless() {
        let mut u = unit();
        let (lut, tid) = ids();
        assert!(!u.update(lut, tid, 1));
        assert_eq!(u.stats().updates, 0);
    }
}
