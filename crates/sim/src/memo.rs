//! Timing rules of the five AxMemo instructions, shared by both
//! dispatch tiers.
//!
//! This module is the one owner of memo-op cycles: Table 4's latencies
//! are its constants, and the memoization unit it drives
//! ([`MemoizationUnit`]) is purely functional. The tiers decode and
//! dispatch a memo op their own way, then call one function here per
//! op. That function owns everything the op does to the pipeline, the
//! memoization unit, the profiler's cycle leaves and the
//! runtime-dependent counters, so the tiers cannot drift apart. Counters
//! fixed by the instruction alone (instruction classes, CRC beats, HVR
//! and L1-LUT accesses) stay with the tiers: the legacy loop counts them
//! per arm, and the threaded tier adds the same counts per block through
//! `decoded::BlockCounts`.
//!
//! The model (§4, §6.1): `ld_crc` and `reg_crc` queue their input for the
//! CRC unit, which hashes [`CRC_BYTES_PER_CYCLE`] bytes per cycle in the
//! background. A feed stalls issue only when the input queue is full,
//! and `lookup` waits until the CRC has drained its LUT's queue. The
//! profiler's `crc.beat` leaf is charged exactly those issue delays.
//! `update` and `invalidate` each take one memo-port issue slot and
//! write no register, so no later instruction can wait on them: their
//! leaves count the op and charge 0 cycles.
//!
//! Every op is `#[inline(always)]`: left to the heuristics, the threaded
//! loop calls out to them, which cost about 4 % of ledger `fig7` wall
//! time on a 2-vCPU Xeon host.

use crate::cpu::{Machine, SimError, Simulator};
use crate::ir::MemWidth;
use crate::pipeline::{FuClass, Pipeline};
use crate::stats::RunStats;
use axmemo_core::faults::Protection;
use axmemo_core::ids::{LutId, ThreadId, MAX_LUTS};
use axmemo_core::truncate::InputValue;
use axmemo_core::two_level::HitLevel;
use axmemo_core::unit::{LookupResult, MemoizationUnit};
use axmemo_telemetry::{PhaseId, Profiler, Telemetry};

/// Bytes the CRC unit absorbs per cycle: the synthesised unit is
/// unrolled 4× and pipelined (§6.1). Table 4's text gives `ld_crc` /
/// `reg_crc` as 1 cycle per byte; the simulator follows §6.1's
/// synthesised design.
pub const CRC_BYTES_PER_CYCLE: u64 = 4;

/// Table 4: `lookup` latency when the L1 LUT answers. Like every
/// Table 4 figure it includes the 1-cycle dummy-register overhead that
/// orders `ld_crc`/`reg_crc`/`lookup` (§4, §6.1).
pub const LOOKUP_L1_CYCLES: u64 = 2;

/// Table 4: `lookup` latency when the L2 LUT answers; a miss that
/// probed an L2 pays it too.
pub const LOOKUP_L2_CYCLES: u64 = 13;

/// Table 4: `update` latency. Display-only: `table4_5` prints it and
/// no simulated cycle reads it, because an `update` writes no register
/// on a pipelined memo port, so no instruction can wait on it.
pub const UPDATE_CYCLES: u64 = 2;

/// Table 4: `invalidate` latency per way in a set (§4: "one cycle for
/// each way in a set"). Display-only, for the same reason as
/// [`UPDATE_CYCLES`].
pub const INVALIDATE_CYCLES_PER_WAY: u64 = 1;

/// Extra latency of a lookup whose arrays are ECC-protected (parity
/// check on tags, SECDED syndrome on data), charged only under
/// [`Protection::EccProtected`]. An `update` pays the check's energy
/// but, off the critical path, none of its cycles.
pub const ECC_CHECK_CYCLES: u64 = 1;

/// The simulated core runs one hardware thread.
const TID: ThreadId = ThreadId(0);

/// CRC beats (cycles of CRC-unit work) for one input of `width` bytes.
#[inline(always)]
pub(crate) fn crc_beats(width: MemWidth) -> u64 {
    (width.bytes() as u64).div_ceil(CRC_BYTES_PER_CYCLE)
}

/// One `ld_crc` / `reg_crc` input: the raw register or memory value and
/// where it is hashed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CrcInput {
    pub(crate) lut: LutId,
    pub(crate) width: MemWidth,
    pub(crate) raw: u64,
    pub(crate) trunc: u8,
}

/// What one memo op touches besides [`MemoTiming`], borrowed for the op.
#[derive(Debug)]
pub(crate) struct MemoPort<'a> {
    pub(crate) unit: &'a mut MemoizationUnit,
    pub(crate) pipe: &'a mut Pipeline,
    pub(crate) tel: &'a mut Telemetry,
    pub(crate) stats: &'a mut RunStats,
}

/// Per-run CRC state plus the unit's configuration flags that decide
/// the ops' latencies and energy charges.
#[derive(Debug)]
pub(crate) struct MemoTiming {
    /// Per-LUT cycle at which the CRC unit finishes its queued beats.
    crc_ready: [u64; MAX_LUTS],
    /// How far `crc_ready` may run ahead of a feed before the feed
    /// stalls, in cycles: `input_queue_depth × 8`, one 8-byte slot at
    /// Table 4's 1 cycle per byte. At the simulated
    /// [`CRC_BYTES_PER_CYCLE`] that admits four times the queue's
    /// bytes; it stays as first written because every golden and ledger
    /// digest pins the cycle counts it produces.
    queue_capacity: u64,
    /// An L2 LUT exists: lookups that miss L1, and every update, also
    /// access it.
    has_l2_lut: bool,
    /// Every LUT access pays an ECC check.
    ecc: bool,
}

impl MemoTiming {
    /// Fresh state for one run on `unit` (none: no memo op can execute).
    pub(crate) fn new(unit: Option<&MemoizationUnit>) -> Self {
        let config = unit.map(MemoizationUnit::config);
        Self {
            crc_ready: [0; MAX_LUTS],
            queue_capacity: config.map_or(0, |c| c.input_queue_depth as u64 * 8),
            has_l2_lut: config.is_some_and(|c| c.l2_bytes.is_some()),
            ecc: config.is_some_and(|c| c.faults.protection == Protection::EccProtected),
        }
    }

    /// Cycles of the ECC check one LUT access pays.
    #[inline(always)]
    fn ecc_cycles(&self) -> u64 {
        if self.ecc {
            ECC_CHECK_CYCLES
        } else {
            0
        }
    }

    /// Table 4 latency of one lookup outcome, charged to the profiler's
    /// leaves as it is computed, so the leaves sum to the latency. Every
    /// probe pays the L1 set search (`lut.l1.search`). An outcome that
    /// reached the L2 (an L2 hit, or any miss when an L2 exists) also
    /// pays the rest of the L2 latency (`lut.l2.probe`), and the ECC
    /// check rides the access that completes the lookup. A disabled
    /// lookup never touches the arrays: its residual L1 check is
    /// quality-monitor overhead (`quality.monitor`), with no ECC check.
    #[inline(always)]
    fn lookup_latency(&self, result: &LookupResult, prof: &mut Profiler) -> u64 {
        let reached_l2 = match result {
            LookupResult::Disabled => {
                prof.leaf(PhaseId::Quality, LOOKUP_L1_CYCLES);
                return LOOKUP_L1_CYCLES;
            }
            LookupResult::Hit { level, .. } => *level == HitLevel::L2,
            LookupResult::Miss | LookupResult::SampledMiss { .. } => self.has_l2_lut,
        };
        if !reached_l2 {
            let search = LOOKUP_L1_CYCLES + self.ecc_cycles();
            prof.leaf(PhaseId::LutL1Search, search);
            return search;
        }
        let probe = LOOKUP_L2_CYCLES - LOOKUP_L1_CYCLES + self.ecc_cycles();
        prof.leaf(PhaseId::LutL1Search, LOOKUP_L1_CYCLES);
        prof.leaf(PhaseId::LutL2Probe, probe);
        LOOKUP_L1_CYCLES + probe
    }

    /// `ld_crc`: the load issues on the load/store port (its `latency`
    /// comes from the cache model) and queues its value for the CRC.
    #[inline(always)]
    pub(crate) fn ld_crc(
        &mut self,
        port: MemoPort<'_>,
        base: u8,
        rd: u8,
        latency: u64,
        input: CrcInput,
    ) {
        self.feed(port, base, Some(rd), FuClass::LdSt, latency, input);
    }

    /// `reg_crc`: queues a register's value for the CRC.
    #[inline(always)]
    pub(crate) fn reg_crc(&mut self, port: MemoPort<'_>, src: u8, input: CrcInput) {
        self.feed(port, src, None, FuClass::Memo, 1, input);
    }

    /// The feed step both CRC instructions share: issue once the input
    /// queue has room, hash the value, and queue its beats behind the
    /// value's arrival.
    #[inline(always)]
    fn feed(
        &mut self,
        port: MemoPort<'_>,
        src: u8,
        dst: Option<u8>,
        fu: FuClass,
        latency: u64,
        input: CrcInput,
    ) {
        let ready = &mut self.crc_ready[input.lut.index()];
        let not_before = ready.saturating_sub(self.queue_capacity);
        // Back-pressure: the delay a full queue adds beyond the other
        // scoreboard constraints.
        let free = port.pipe.next_issue(&[src], fu);
        let at = port.pipe.issue(&[src], dst, fu, latency, not_before);
        port.tel.set_cycle(at);
        port.tel.profiler_mut().leaf(PhaseId::CrcBeat, at - free);
        port.unit.feed_tel(
            input.lut,
            TID,
            input_value(input.width, input.raw),
            u32::from(input.trunc),
            port.tel,
        );
        *ready = (*ready).max(at + latency) + crc_beats(input.width);
    }

    /// `lookup`: waits for the CRC to drain the LUT's queue (§3.4), then
    /// probes the LUT and sets `rd` and the condition code on a hit.
    /// Returns the hit's data.
    #[inline(always)]
    pub(crate) fn lookup(
        &mut self,
        port: MemoPort<'_>,
        machine: &mut Machine,
        rd: u8,
        lut: LutId,
    ) -> Option<u64> {
        let not_before = self.crc_ready[lut.index()];
        let before = port.pipe.now();
        port.tel.set_cycle(before.max(not_before));
        let result = port.unit.lookup_tel(lut, TID, port.tel);
        let latency = self.lookup_latency(&result, port.tel.profiler_mut());
        let free = port.pipe.next_issue(&[], FuClass::Memo);
        let at = port
            .pipe
            .issue(&[], Some(rd), FuClass::Memo, latency, not_before);
        port.tel.profiler_mut().leaf(PhaseId::CrcBeat, at - free);
        // `memo_stall_cycles` reports half of `not_before - before`,
        // counted from cycle 1 at the earliest, and no back-pressure.
        // Goldens and ledger digests pin this figure, so it stays as
        // first written; `crc.beat` is the exact measure.
        port.stats.memo_stall_cycles += not_before.saturating_sub(before.max(1)) / 2;
        // A disabled lookup touches no array, so it pays no LUT energy.
        match result {
            LookupResult::Disabled => {}
            LookupResult::Hit {
                level: HitLevel::L1,
                ..
            } => self.charge_lut(port.stats, false),
            _ => self.charge_lut(port.stats, true),
        }
        let data = match result {
            LookupResult::Hit { data, .. } => Some(data),
            _ => None,
        };
        machine.memo_hit = data.is_some();
        if let Some(data) = data {
            machine.regs[rd as usize] = data;
        }
        data
    }

    /// `update`: writes the recomputed output for the preceding miss,
    /// off the critical path. Only a write that consumed a pending miss
    /// pays the LUT and ECC-check energy.
    #[inline(always)]
    pub(crate) fn update(&mut self, port: MemoPort<'_>, src: u8, lut: LutId, data: u64) {
        port.tel.set_cycle(port.pipe.now());
        let wrote = port.unit.update_tel(lut, TID, data, port.tel);
        port.tel.profiler_mut().leaf(PhaseId::LutUpdate, 0);
        port.pipe.issue(&[src], None, FuClass::Memo, 0, 0);
        if wrote {
            self.charge_lut(port.stats, true);
        }
    }

    /// `invalidate`: clears the LUT at the end of a region, off the
    /// critical path.
    #[inline(always)]
    pub(crate) fn invalidate(&mut self, port: MemoPort<'_>, lut: LutId) {
        port.tel.set_cycle(port.pipe.now());
        port.unit.invalidate_tel(lut, port.tel);
        port.tel.profiler_mut().leaf(PhaseId::LutInvalidate, 0);
        port.pipe.issue(&[], None, FuClass::Memo, 0, 0);
    }

    /// Energy of one L1 LUT access (counted by the tiers) plus, when an
    /// L2 LUT exists and was touched, its L2 access; each access pays
    /// an ECC check under ECC protection.
    #[inline(always)]
    fn charge_lut(&self, stats: &mut RunStats, l2_touched: bool) {
        let mut accesses = 1;
        if self.has_l2_lut && l2_touched {
            stats.energy.l2_lut_accesses += 1;
            accesses += 1;
        }
        if self.ecc {
            stats.energy.ecc_checks += accesses;
        }
    }
}

/// The hashed form of a `width`-byte raw value (upper bits ignored).
fn input_value(width: MemWidth, raw: u64) -> InputValue {
    match width {
        MemWidth::B1 => InputValue::U8(raw as u8),
        MemWidth::B4 => InputValue::I32(raw as u32 as i32),
        MemWidth::B8 => InputValue::I64(raw as i64),
    }
}

impl Simulator {
    /// Borrow what one memo op at `pc` touches, or fault when the
    /// simulator has no memoization unit.
    #[inline(always)]
    pub(crate) fn memo_port<'a>(
        &'a mut self,
        pipe: &'a mut Pipeline,
        stats: &'a mut RunStats,
        pc: usize,
    ) -> Result<MemoPort<'a>, SimError> {
        let unit = self.memo.as_mut().ok_or(SimError::NoMemoUnit { pc })?;
        Ok(MemoPort {
            unit,
            pipe,
            tel: &mut self.telemetry,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmemo_core::config::{DataWidth, MemoConfig};
    use axmemo_core::faults::FaultConfig;

    fn unit(l2: bool, ecc: bool, data_width: DataWidth) -> MemoizationUnit {
        let base = if l2 {
            MemoConfig::l1_l2(8 * 1024, 256 * 1024)
        } else {
            MemoConfig::l1_only(4096)
        };
        let protection = if ecc {
            Protection::EccProtected
        } else {
            Protection::Unprotected
        };
        MemoizationUnit::new(MemoConfig {
            data_width,
            faults: FaultConfig {
                protection,
                ..FaultConfig::default()
            },
            ..base
        })
        .unwrap()
    }

    /// Cycles charged to `phase`'s top-level leaf.
    fn leaf_cycles(prof: &Profiler, phase: PhaseId) -> u64 {
        prof.snapshot()
            .phases
            .get(phase.name())
            .map_or(0, |s| s.cycles)
    }

    /// Run one op on `unit` with a fresh pipeline and profiler; return
    /// them with the stats it counted.
    fn run_op(
        unit: &mut MemoizationUnit,
        op: impl FnOnce(&mut MemoTiming, MemoPort<'_>),
    ) -> (Telemetry, RunStats, Pipeline) {
        let mut timing = MemoTiming::new(Some(unit));
        let (mut pipe, mut stats) = (Pipeline::new(), RunStats::default());
        let mut tel = Telemetry::off();
        tel.profiler_mut().enable();
        let port = MemoPort {
            unit,
            pipe: &mut pipe,
            tel: &mut tel,
            stats: &mut stats,
        };
        op(&mut timing, port);
        (tel, stats, pipe)
    }

    /// The L2 LUT accesses and ECC checks one op billed.
    fn billed(
        unit: &mut MemoizationUnit,
        op: impl FnOnce(&mut MemoTiming, MemoPort<'_>),
    ) -> (u64, u64) {
        let energy = run_op(unit, op).1.energy;
        (energy.l2_lut_accesses, energy.ecc_checks)
    }

    /// The cycles at which a memo op and an ALU op reading its result
    /// issue on `pipe`, and the cycle `pipe` then drains at.
    fn next_issues(mut pipe: Pipeline) -> (u64, u64, u64) {
        let memo = pipe.issue(&[], Some(3), FuClass::Memo, 1, 0);
        let alu = pipe.issue(&[3], Some(4), FuClass::IntAlu, 1, 0);
        (memo, alu, pipe.drain())
    }

    /// Assert `op` enters its `phase` leaf once with 0 cycles and leaves
    /// the pipeline where any other memo-port issue would.
    fn assert_off_critical_path(
        unit: &mut MemoizationUnit,
        phase: PhaseId,
        what: &str,
        op: impl FnOnce(&mut MemoTiming, MemoPort<'_>),
    ) {
        let (tel, _, pipe) = run_op(unit, op);
        let leaf = tel.profiler().snapshot().phases[phase.name()];
        assert_eq!((leaf.count, leaf.cycles), (1, 0), "{what}: leaf");
        let mut slot = Pipeline::new();
        slot.issue(&[0], None, FuClass::Memo, 1, 0);
        assert_eq!(next_issues(pipe), next_issues(slot), "{what}: next issue");
    }

    #[test]
    fn memo_ops_follow_table4() {
        let l1_hit = LookupResult::Hit {
            data: 0,
            level: HitLevel::L1,
        };
        let l2_hit = LookupResult::Hit {
            data: 0,
            level: HitLevel::L2,
        };
        let sampled = LookupResult::SampledMiss { data: 0 };
        let lut = LutId::new(0).unwrap();
        for (l2, ecc) in [(false, false), (false, true), (true, false), (true, true)] {
            let ecc_check = if ecc { ECC_CHECK_CYCLES } else { 0 };
            let timing = MemoTiming::new(Some(&unit(l2, ecc, DataWidth::W4)));
            // An L1-only unit never reports an L2 hit.
            let probe = if l2 {
                LOOKUP_L2_CYCLES
            } else {
                LOOKUP_L1_CYCLES
            };
            let mut cases = vec![
                (l1_hit, LOOKUP_L1_CYCLES + ecc_check),
                (LookupResult::Miss, probe + ecc_check),
                (sampled, probe + ecc_check),
                // No array access, so no ECC check.
                (LookupResult::Disabled, LOOKUP_L1_CYCLES),
            ];
            if l2 {
                cases.push((l2_hit, LOOKUP_L2_CYCLES + ecc_check));
            }
            for (result, latency) in cases {
                let mut prof = Profiler::enabled();
                let cycles = timing.lookup_latency(&result, &mut prof);
                let what = format!("{result:?} with l2={l2} ecc={ecc}");
                assert_eq!(cycles, latency, "latency of {what}");
                let leaves: u64 = prof.snapshot().phases.values().map(|s| s.cycles).sum();
                assert_eq!(leaves, latency, "leaves of {what}");
                if result == LookupResult::Disabled {
                    assert_eq!(leaf_cycles(&prof, PhaseId::Quality), LOOKUP_L1_CYCLES);
                }
            }

            // `update` and `invalidate` write no register, so nothing
            // waits on them: whether or not the update writes, and for
            // either data width (ways per set), each is one memo-port
            // issue slot and charges its leaf nothing.
            for data_width in [DataWidth::W4, DataWidth::W8] {
                let at = format!("{data_width:?} data with l2={l2} ecc={ecc}");
                let mut u = unit(l2, ecc, data_width);
                let update = |u: &mut MemoizationUnit, when: &str| {
                    let what = format!("update {when}, {at}");
                    assert_off_critical_path(u, PhaseId::LutUpdate, &what, |t, port| {
                        t.update(port, 0, lut, 7)
                    });
                };
                update(&mut u, "without a pending miss");
                u.feed(lut, TID, InputValue::I32(5), 0);
                assert_eq!(u.lookup(lut, TID), LookupResult::Miss);
                update(&mut u, "after a miss");
                let what = format!("invalidate, {at}");
                assert_off_critical_path(&mut u, PhaseId::LutInvalidate, &what, |t, port| {
                    t.invalidate(port, lut)
                });
            }
        }
    }

    #[test]
    fn ops_that_touch_no_array_bill_no_lut_energy() {
        // An L2 LUT and ECC: every billed access shows in both counters.
        let mut u = unit(true, true, DataWidth::W4);
        let lut = LutId::new(0).unwrap();
        let mut machine = Machine::new(64);
        let update = |u: &mut MemoizationUnit| billed(u, |t, port| t.update(port, 0, lut, 7));
        assert_eq!(update(&mut u), (0, 0), "update without a pending miss");
        u.feed(lut, TID, InputValue::I32(5), 0);
        assert_eq!(u.lookup(lut, TID), LookupResult::Miss);
        assert_eq!(update(&mut u), (1, 2), "update after a miss");

        // Recomputed values that alternate far apart fail every sampled
        // comparison, so the quality monitor walks its ladder to
        // `Disabled`.
        let mut flip = false;
        for _ in 0..60_000 {
            if u.memoization_disabled() {
                break;
            }
            u.feed(lut, TID, InputValue::I32(1), 0);
            if matches!(
                u.lookup(lut, TID),
                LookupResult::Miss | LookupResult::SampledMiss { .. }
            ) {
                let v = if flip { 100.0f32 } else { 1.0f32 };
                flip = !flip;
                u.update(lut, TID, u64::from(v.to_bits()));
            }
        }
        assert!(u.memoization_disabled(), "quality monitor never tripped");
        u.feed(lut, TID, InputValue::I32(1), 0);
        let lookup = billed(&mut u, |t, port| {
            assert_eq!(t.lookup(port, &mut machine, 1, lut), None);
        });
        assert_eq!(lookup, (0, 0), "disabled lookup");
        assert!(u.memoization_disabled());
        assert_eq!(update(&mut u), (0, 0), "update after a disabled lookup");
    }
}
