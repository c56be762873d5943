//! Two-level memoization lookup (§3.3–3.4).
//!
//! The L1 LUT is a small dedicated SRAM (≤ 16 KB) private to the core; the
//! *optional* L2 LUT is inclusive and lives in ways partitioned from the
//! last-level cache. On an L1 miss the L2 is probed; an L2 hit refills the
//! L1 (displacing an L1 victim back to L2 — inclusive, so it is already
//! there unless itself evicted). LUT entries are never written back to
//! main memory: an entry evicted from L2 is simply invalidated.

use crate::config::MemoConfig;
use crate::faults::{FaultInjector, FaultStats};
use crate::ids::LutId;
use crate::lut::{ExportedEntry, LookupOutcome, LutArray, LutStats};
use crate::snapshot::SnapshotGeometry;
use axmemo_telemetry::{PhaseId, Telemetry, Value};

/// Order in which previously-exported entries are re-installed by a
/// warm restore (see `EXPERIMENTS.md`, "Warm start").
///
/// Entries are exported in LRU order, oldest first. Restoring them in
/// that same order reproduces the donor's relative recency exactly —
/// the right default, and byte-identical to the pre-policy behaviour.
/// But for scan-dominated workloads whose working set exceeds the LUT
/// (sobel, jmeint), a full restore is pollution: the image holds the
/// donor's tail-end entries, the run probes from the start of the
/// stream, and every restored way must be evicted one miss at a time.
/// [`RestorePolicy::MruFirst`] bounds that pollution: entries are
/// admitted newest-first (the donor's hottest state wins) and each set
/// accepts restored entries into at most half its ways, leaving the
/// other half invalid for the live run's working set. Entries past the
/// cap are counted as dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RestorePolicy {
    /// Replay the export stream oldest-first, displacing the least
    /// recently restored entry when a set overflows. The default;
    /// reproduces pre-policy restores byte-for-byte.
    #[default]
    OldestFirst,
    /// Fresh-biased warm start: admit entries newest-first, never
    /// displace, cap restored occupancy at half of each set's ways,
    /// and start the quality ladder fresh instead of resuming the
    /// donor's rung (the warm run re-earns any degradation from its
    /// own sampled comparisons).
    MruFirst,
}

impl RestorePolicy {
    /// Parse a command-line spelling (`oldest` / `mru`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "oldest" => Some(Self::OldestFirst),
            "mru" => Some(Self::MruFirst),
            _ => None,
        }
    }
}

/// Which level served a hit — the levels have different access latencies
/// (Table 4; `axmemo_sim::memo` charges them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Served from the dedicated L1 LUT SRAM.
    L1,
    /// Served from the LLC-partition L2 LUT (and refilled into L1).
    L2,
}

/// Result of a two-level lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoLevelOutcome {
    /// Hit: which level answered and the output data.
    Hit(HitLevel, u64),
    /// Missed in every level present.
    Miss,
}

impl TwoLevelOutcome {
    /// `true` for any hit.
    pub fn is_hit(self) -> bool {
        matches!(self, TwoLevelOutcome::Hit(..))
    }

    /// The data payload on a hit.
    pub fn data(self) -> Option<u64> {
        match self {
            TwoLevelOutcome::Hit(_, d) => Some(d),
            TwoLevelOutcome::Miss => None,
        }
    }
}

/// The L1 + optional inclusive L2 LUT hierarchy.
///
/// # Examples
///
/// ```
/// use axmemo_core::config::MemoConfig;
/// use axmemo_core::ids::LutId;
/// use axmemo_core::two_level::{TwoLevelLut, TwoLevelOutcome, HitLevel};
///
/// let mut lut = TwoLevelLut::new(&MemoConfig::l1_l2(8 * 1024, 256 * 1024));
/// let id = LutId::new(0).unwrap();
/// lut.update(id, 0xFEED, 7);
/// assert_eq!(lut.lookup(id, 0xFEED), TwoLevelOutcome::Hit(HitLevel::L1, 7));
/// ```
#[derive(Debug, Clone)]
pub struct TwoLevelLut {
    l1: LutArray,
    l2: Option<LutArray>,
}

impl TwoLevelLut {
    /// Build the hierarchy described by `config`, installing fault
    /// injectors on each level when the fault configuration enables them.
    pub fn new(config: &MemoConfig) -> Self {
        let mut l1 = LutArray::new(config.l1_geometry());
        l1.set_fault_injector(FaultInjector::for_l1(&config.faults));
        let l2 = config.l2_geometry().map(|g| {
            let mut a = LutArray::new(g);
            a.set_fault_injector(FaultInjector::for_l2(&config.faults));
            a
        });
        Self { l1, l2 }
    }

    /// Injected-fault counters summed across both levels.
    pub fn fault_stats(&self) -> FaultStats {
        let mut fs = self.l1.fault_stats();
        if let Some(l2) = self.l2.as_ref() {
            fs.merge(&l2.fault_stats());
        }
        fs
    }

    /// Re-seed both levels' fault streams (between runs).
    pub fn reset_faults(&mut self) {
        self.l1.reset_faults();
        if let Some(l2) = self.l2.as_mut() {
            l2.reset_faults();
        }
    }

    /// Whether an L2 LUT is present.
    pub fn has_l2(&self) -> bool {
        self.l2.is_some()
    }

    /// Look up `{lut_id, crc}` across both levels.
    ///
    /// An L2 hit refills L1; the L1 victim (if any) is inserted into L2,
    /// keeping L2 inclusive of L1.
    pub fn lookup(&mut self, lut_id: LutId, crc: u64) -> TwoLevelOutcome {
        self.lookup_tel(lut_id, crc, &mut Telemetry::off())
    }

    /// [`Self::lookup`] with telemetry: emits exactly one `lut.hit` or
    /// `lut.miss` event per probe (so event totals reconcile with
    /// [`Self::total_hit_rate`]), plus `lut.promote`/`lut.evict` events
    /// for inter-level traffic.
    pub fn lookup_tel(&mut self, lut_id: LutId, crc: u64, tel: &mut Telemetry) -> TwoLevelOutcome {
        tel.count("lut.probes", 1);
        if let LookupOutcome::Hit(d) = self.l1.lookup(lut_id, crc) {
            tel.count("lut.l1.hits", 1);
            tel.event(
                "lut.hit",
                &[
                    ("level", Value::Str("L1".into())),
                    ("lut", Value::U64(u64::from(lut_id.raw()))),
                    ("crc", Value::U64(crc)),
                ],
            );
            return TwoLevelOutcome::Hit(HitLevel::L1, d);
        }
        let Some(l2) = self.l2.as_mut() else {
            tel.count("lut.misses", 1);
            tel.event(
                "lut.miss",
                &[
                    ("lut", Value::U64(u64::from(lut_id.raw()))),
                    ("crc", Value::U64(crc)),
                ],
            );
            return TwoLevelOutcome::Miss;
        };
        match l2.lookup(lut_id, crc) {
            LookupOutcome::Hit(d) => {
                tel.count("lut.l2.hits", 1);
                tel.count("lut.promotions", 1);
                tel.event(
                    "lut.hit",
                    &[
                        ("level", Value::Str("L2".into())),
                        ("lut", Value::U64(u64::from(lut_id.raw()))),
                        ("crc", Value::U64(crc)),
                    ],
                );
                tel.event(
                    "lut.promote",
                    &[
                        ("lut", Value::U64(u64::from(lut_id.raw()))),
                        ("crc", Value::U64(crc)),
                    ],
                );
                // Refill L1; victim goes (back) to L2 to preserve
                // inclusion. (It is usually already present.)
                if let Some(victim) = self.l1.insert(lut_id, crc, d) {
                    tel.count("lut.l1.evictions", 1);
                    tel.profiler_mut().leaf(PhaseId::LutEvict, 0);
                    insert_l2(l2, victim.lut_id, victim.crc, victim.data, tel);
                }
                TwoLevelOutcome::Hit(HitLevel::L2, d)
            }
            LookupOutcome::Miss => {
                tel.count("lut.misses", 1);
                tel.event(
                    "lut.miss",
                    &[
                        ("lut", Value::U64(u64::from(lut_id.raw()))),
                        ("crc", Value::U64(crc)),
                    ],
                );
                TwoLevelOutcome::Miss
            }
        }
    }

    /// Update after a miss (the `update` instruction): write the entry
    /// into L1 and, when present, into the inclusive L2.
    pub fn update(&mut self, lut_id: LutId, crc: u64, data: u64) {
        self.update_tel(lut_id, crc, data, &mut Telemetry::off());
    }

    /// [`Self::update`] with telemetry: counts insertions and emits
    /// `lut.evict` events for entries truly lost at the last level.
    pub fn update_tel(&mut self, lut_id: LutId, crc: u64, data: u64, tel: &mut Telemetry) {
        tel.count("lut.updates", 1);
        let victim = self.l1.insert(lut_id, crc, data);
        if victim.is_some() {
            tel.count("lut.l1.evictions", 1);
            tel.profiler_mut().leaf(PhaseId::LutEvict, 0);
        }
        match self.l2.as_mut() {
            Some(l2) => {
                // Inclusive L2 also receives the new entry.
                insert_l2(l2, lut_id, crc, data, tel);
                // L1 victims spill to L2 ("evicted to L2 LUT ... using the
                // least recently used policy").
                if let Some(v) = victim {
                    insert_l2(l2, v.lut_id, v.crc, v.data, tel);
                }
            }
            None => {
                // Single-level: an L1 victim is gone for good.
                if victim.is_some() {
                    tel.event("lut.evict", &[("level", Value::Str("L1".into()))]);
                }
            }
        }
    }

    /// Invalidate a whole logical LUT at every level.
    pub fn invalidate(&mut self, lut_id: LutId) -> u64 {
        let mut n = self.l1.invalidate(lut_id);
        if let Some(l2) = self.l2.as_mut() {
            n += l2.invalidate(lut_id);
        }
        n
    }

    /// Clear everything (between runs).
    pub fn invalidate_all(&mut self) {
        self.l1.invalidate_all();
        if let Some(l2) = self.l2.as_mut() {
            l2.invalidate_all();
        }
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> LutStats {
        self.l1.stats()
    }

    /// L2 statistics (zero when absent).
    pub fn l2_stats(&self) -> LutStats {
        self.l2.as_ref().map(|l| l.stats()).unwrap_or_default()
    }

    /// Total hit rate across both levels, as plotted in Fig. 9
    /// ("we calculate the total lookup hit rate across both levels").
    pub fn total_hit_rate(&self) -> f64 {
        let l1 = self.l1.stats();
        let l2 = self.l2_stats();
        let lookups = l1.lookups();
        if lookups == 0 {
            return 0.0;
        }
        (l1.hits + l2.hits) as f64 / lookups as f64
    }

    /// Reset statistics at both levels.
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        if let Some(l2) = self.l2.as_mut() {
            l2.reset_stats();
        }
    }

    /// Geometry of both levels, recorded in a snapshot for reporting.
    pub fn snapshot_geometry(&self) -> SnapshotGeometry {
        let l1 = self.l1.geometry();
        SnapshotGeometry {
            l1_sets: l1.sets as u64,
            l1_ways: l1.ways as u64,
            data_width_bytes: l1.data_width.bytes() as u32,
            l2: self
                .l2
                .as_ref()
                .map(|l2| (l2.geometry().sets as u64, l2.geometry().ways as u64)),
        }
    }

    /// Export the L1's valid entries in LRU order (oldest first) for
    /// persistence ([`crate::snapshot`]), plus the count of corrupt
    /// stored records skipped (see [`LutArray::export_entries`]).
    pub fn export_l1(&self) -> (Vec<ExportedEntry>, u64) {
        self.l1.export_entries()
    }

    /// [`Self::export_l1`] for the L2; `(vec![], 0)` when no L2 is
    /// configured.
    pub fn export_l2(&self) -> (Vec<ExportedEntry>, u64) {
        self.l2
            .as_ref()
            .map(|l2| l2.export_entries())
            .unwrap_or_default()
    }

    /// Restore previously-exported entries into the L1 under `policy`.
    /// [`RestorePolicy::OldestFirst`] replays them in order (oldest
    /// first, so relative recency survives). Restores are stats-neutral
    /// and fault-free (see [`LutArray::restore_entry`]). Returns
    /// `(restored, dropped)` where `dropped` counts entries displaced or
    /// refused because the target L1 is smaller than the source.
    pub fn restore_l1(&mut self, entries: &[ExportedEntry], policy: RestorePolicy) -> (u64, u64) {
        Self::restore_into(&mut self.l1, entries, policy)
    }

    /// [`Self::restore_l1`] for the L2. When no L2 is configured every
    /// entry is dropped (returns `(0, len)`): the L1 section alone still
    /// warm-starts the hierarchy.
    pub fn restore_l2(&mut self, entries: &[ExportedEntry], policy: RestorePolicy) -> (u64, u64) {
        match self.l2.as_mut() {
            Some(l2) => Self::restore_into(l2, entries, policy),
            None => (0, entries.len() as u64),
        }
    }

    /// Restore `entries` into one array under `policy`; returns
    /// `(restored, dropped)`.
    fn restore_into(
        array: &mut LutArray,
        entries: &[ExportedEntry],
        policy: RestorePolicy,
    ) -> (u64, u64) {
        match policy {
            RestorePolicy::OldestFirst => {
                let mut dropped = 0u64;
                for e in entries {
                    if !array.restore_entry(e.lut_id, e.crc, e.data) {
                        dropped += 1;
                    }
                }
                (entries.len() as u64 - dropped, dropped)
            }
            RestorePolicy::MruFirst => Self::restore_mru_first(array, entries),
        }
    }

    /// MRU-first restore into one array: admit the export stream
    /// newest-first with per-set occupancy capped at half the ways
    /// (never displacing), so each set keeps the donor's hottest
    /// entries while leaving invalid ways for the live run's working
    /// set. A second oldest-first pass re-touches the admitted entries
    /// so their relative LRU recency matches the donor's (the
    /// admission pass necessarily stamps them in reverse).
    fn restore_mru_first(array: &mut LutArray, entries: &[ExportedEntry]) -> (u64, u64) {
        let cap = (array.geometry().ways / 2).max(1);
        let mut restored = 0u64;
        for e in entries.iter().rev() {
            if array.restore_entry_capped(e.lut_id, e.crc, e.data, cap) {
                restored += 1;
            }
        }
        // Recency repair: only already-admitted entries can match, and
        // sets that rejected an entry are at the cap, so this pass
        // admits nothing new.
        for e in entries {
            let _ = array.restore_entry_capped(e.lut_id, e.crc, e.data, cap);
        }
        (restored, entries.len() as u64 - restored)
    }

    /// Direct read access to the L1 array (ablation experiments).
    pub fn l1(&self) -> &LutArray {
        &self.l1
    }

    /// Direct mutable access to the L1 array — the fault-model hook
    /// used by the export-under-corruption regression tests (e.g.
    /// [`LutArray::corrupt_stored_lut_id`]).
    pub fn l1_mut(&mut self) -> &mut LutArray {
        &mut self.l1
    }

    /// Direct read access to the L2 array, if present.
    pub fn l2(&self) -> Option<&LutArray> {
        self.l2.as_ref()
    }
}

/// Insert into the last-level L2. An entry displaced there is a plain
/// invalidation: LUT entries never propagate to memory.
fn insert_l2(l2: &mut LutArray, lut_id: LutId, crc: u64, data: u64, tel: &mut Telemetry) {
    if l2.insert(lut_id, crc, data).is_some() {
        tel.count("lut.l2.evictions", 1);
        tel.profiler_mut().leaf(PhaseId::LutEvict, 0);
        tel.event("lut.evict", &[("level", Value::Str("L2".into()))]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmemo_telemetry::RingBufferSink;

    fn id(i: u8) -> LutId {
        LutId::new(i).unwrap()
    }

    fn tiny_two_level() -> TwoLevelLut {
        // L1 of one set (8 entries), L2 of 16 sets.
        let cfg = MemoConfig {
            l1_bytes: 64,
            l2_bytes: Some(1024),
            ..MemoConfig::default()
        };
        TwoLevelLut::new(&cfg)
    }

    #[test]
    fn l1_hit_path() {
        let mut lut = tiny_two_level();
        lut.update(id(0), 42, 7);
        assert_eq!(lut.lookup(id(0), 42), TwoLevelOutcome::Hit(HitLevel::L1, 7));
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let mut lut = tiny_two_level();
        // Overflow the 8-entry L1.
        for i in 0..16u64 {
            lut.update(id(0), i, i * 2);
        }
        // Entry 0 left L1 but must still hit in the inclusive L2.
        let out = lut.lookup(id(0), 0);
        assert_eq!(out, TwoLevelOutcome::Hit(HitLevel::L2, 0));
        // And the refill makes the *next* access an L1 hit.
        assert_eq!(lut.lookup(id(0), 0), TwoLevelOutcome::Hit(HitLevel::L1, 0));
    }

    #[test]
    fn miss_without_l2() {
        let mut lut = TwoLevelLut::new(&MemoConfig::l1_only(64));
        for i in 0..16u64 {
            lut.update(id(0), i, i);
        }
        // Without L2, evicted entries are gone.
        assert_eq!(lut.lookup(id(0), 0), TwoLevelOutcome::Miss);
        assert!(!lut.has_l2());
    }

    #[test]
    fn inclusive_update_populates_both_levels() {
        let mut lut = tiny_two_level();
        lut.update(id(1), 99, 5);
        assert!(lut.l1().peek(id(1), 99).is_some());
        assert!(lut.l2().unwrap().peek(id(1), 99).is_some());
    }

    #[test]
    fn total_hit_rate_combines_levels() {
        let mut lut = tiny_two_level();
        for i in 0..16u64 {
            lut.update(id(0), i, i);
        }
        // 8 L1 hits + up to 8 L2 hits out of 16 lookups.
        for i in 0..16u64 {
            assert!(lut.lookup(id(0), i).is_hit(), "i={i}");
        }
        assert!((lut.total_hit_rate() - 1.0).abs() < 1e-12);
        // Denominator is L1 lookups: 16.
        assert_eq!(lut.l1_stats().lookups(), 16);
    }

    #[test]
    fn invalidate_spans_levels() {
        let mut lut = tiny_two_level();
        for i in 0..16u64 {
            lut.update(id(0), i, i);
        }
        let n = lut.invalidate(id(0));
        assert!(n >= 16, "cleared {n}");
        assert_eq!(lut.lookup(id(0), 3), TwoLevelOutcome::Miss);
    }

    #[test]
    fn export_restore_spans_levels_and_stays_stats_neutral() {
        let mut src = tiny_two_level();
        for i in 0..16u64 {
            src.update(id(0), i, i * 3);
        }
        let (l1e, _) = src.export_l1();
        let (l2e, _) = src.export_l2();
        assert!(!l1e.is_empty());
        assert!(!l2e.is_empty());

        let cfg = MemoConfig {
            l1_bytes: 64,
            l2_bytes: Some(1024),
            ..MemoConfig::default()
        };
        let mut dst = TwoLevelLut::new(&cfg);
        let (r1, d1) = dst.restore_l1(&l1e, RestorePolicy::OldestFirst);
        let (r2, _) = dst.restore_l2(&l2e, RestorePolicy::OldestFirst);
        assert_eq!(r1 + d1, l1e.len() as u64);
        assert!(r2 > 0);
        // Restored state serves hits without any prior lookups/inserts
        // being counted (the double-count pin).
        assert_eq!(dst.l1_stats().inserts, 0);
        assert_eq!(dst.l1_stats().lookups(), 0);
        assert!(dst.lookup(id(0), 15).is_hit());
        assert!((dst.total_hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn restore_l2_without_l2_drops_everything() {
        let mut src = tiny_two_level();
        for i in 0..16u64 {
            src.update(id(0), i, i);
        }
        let (l2e, _) = src.export_l2();
        let mut dst = TwoLevelLut::new(&MemoConfig::l1_only(64));
        assert_eq!(
            dst.restore_l2(&l2e, RestorePolicy::OldestFirst),
            (0, l2e.len() as u64)
        );
    }

    /// The `level` field of every `kind` event the sink saw, in order.
    fn levels(sink: &RingBufferSink, kind: &str) -> Vec<String> {
        sink.events()
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| match e.field("level") {
                Some(Value::Str(s)) => s.to_string(),
                other => panic!("{kind} without a string level: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn hit_and_evict_events_carry_their_level() {
        let sink = RingBufferSink::new(4096);
        let mut tel = Telemetry::enabled();
        tel.add_sink(Box::new(sink.clone()));

        let mut lut = tiny_two_level();
        // Far more entries than L1 + L2 hold: L2 must evict.
        for i in 0..512u64 {
            lut.update_tel(id(0), i, i, &mut tel);
        }
        assert!(lut.lookup_tel(id(0), 511, &mut tel).is_hit());
        let l2_resident = (0..512u64)
            .find(|&i| {
                lut.l1().peek(id(0), i).is_none() && lut.l2().unwrap().peek(id(0), i).is_some()
            })
            .expect("an entry only L2 holds");
        assert_eq!(
            lut.lookup_tel(id(0), l2_resident, &mut tel),
            TwoLevelOutcome::Hit(HitLevel::L2, l2_resident)
        );
        assert_eq!(levels(&sink, "lut.hit"), ["L1", "L2"]);
        let evicts = levels(&sink, "lut.evict");
        assert!(!evicts.is_empty());
        assert!(evicts.iter().all(|l| l == "L2"), "{evicts:?}");

        // Single level: the L1 victim is the one lost.
        let sink = RingBufferSink::new(4096);
        let mut tel = Telemetry::enabled();
        tel.add_sink(Box::new(sink.clone()));
        let mut lut = TwoLevelLut::new(&MemoConfig::l1_only(64));
        for i in 0..16u64 {
            lut.update_tel(id(0), i, i, &mut tel);
        }
        assert_eq!(levels(&sink, "lut.evict"), vec!["L1"; 8]);
    }

    #[test]
    fn outcome_helpers() {
        assert!(TwoLevelOutcome::Hit(HitLevel::L1, 1).is_hit());
        assert!(!TwoLevelOutcome::Miss.is_hit());
        assert_eq!(TwoLevelOutcome::Hit(HitLevel::L2, 9).data(), Some(9));
        assert_eq!(TwoLevelOutcome::Miss.data(), None);
    }

    #[test]
    fn snapshot_geometry_reports_both_levels() {
        let lut = TwoLevelLut::new(&MemoConfig::l1_l2(1024, 8 * 1024));
        let geo = lut.snapshot_geometry();
        assert_eq!(geo.l1_sets, 16);
        assert!(geo.l2.is_some());
    }

    #[test]
    fn restore_policy_parses_cli_spellings() {
        assert_eq!(
            RestorePolicy::parse("oldest"),
            Some(RestorePolicy::OldestFirst)
        );
        assert_eq!(RestorePolicy::parse("mru"), Some(RestorePolicy::MruFirst));
        assert_eq!(RestorePolicy::parse("bogus"), None);
        assert_eq!(RestorePolicy::default(), RestorePolicy::OldestFirst);
        for unlisted in ["oldest-first", "mru-first", "MRU"] {
            assert_eq!(RestorePolicy::parse(unlisted), None, "{unlisted}");
        }
    }
}
