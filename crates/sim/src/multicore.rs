//! Multi-core execution with private, coherence-free memoization units
//! (§3.4):
//!
//! > "For multi-core processors, there is no coherence required for the
//! > LUTs, because the same LUT tag should always have the same LUT
//! > data without hash collision, which makes coherence unnecessary."
//!
//! [`MultiCore`] runs one program per core, each with a private
//! [`axmemo_core::MemoizationUnit`] and private machine state, and
//! reports per-core plus aggregate statistics. Cores never exchange LUT
//! entries; each warms its own tables — the cost of the coherence-free
//! design is duplicated warm-up misses, which
//! [`MulticoreStats::duplicate_miss_estimate`] quantifies.

use crate::cpu::{Machine, SimConfig, SimError, Simulator};
use crate::ir::Program;
use crate::stats::RunStats;
use axmemo_core::unit::UnitStats;
use std::fmt;

/// One core's simulator fault, tagged with the core that raised it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreFailure {
    /// Index of the failing core.
    pub core: usize,
    /// The underlying simulator error.
    pub error: SimError,
}

impl fmt::Display for CoreFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core {}: {}", self.core, self.error)
    }
}

/// Failure of a multi-core run. Every core is driven to completion
/// before this is returned, so `failures` lists *all* faulting cores —
/// not just the first — each with its index for attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MulticoreError {
    /// Per-core failures, in core order (non-empty).
    pub failures: Vec<CoreFailure>,
}

impl fmt::Display for MulticoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} of the cores failed: ", self.failures.len())?;
        for (i, failure) in self.failures.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{failure}")?;
        }
        Ok(())
    }
}

impl std::error::Error for MulticoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.failures
            .first()
            .map(|f| &f.error as &(dyn std::error::Error + 'static))
    }
}

/// Aggregate statistics of a multi-core run.
#[derive(Debug, Clone)]
pub struct MulticoreStats {
    /// Per-core run statistics.
    pub per_core: Vec<RunStats>,
    /// Per-core memoization-unit statistics.
    pub per_unit: Vec<UnitStats>,
    /// Wall-clock cycles (max across cores: they run concurrently).
    pub makespan: u64,
}

impl MulticoreStats {
    /// All cores' statistics folded into one [`RunStats`] via
    /// [`RunStats::merge`]: work counters sum, `cycles` is the makespan.
    pub fn merged(&self) -> RunStats {
        let mut total = RunStats::default();
        for s in &self.per_core {
            total.merge(s);
        }
        total
    }

    /// Total dynamic instructions across cores.
    pub fn total_insts(&self) -> u64 {
        self.merged().dynamic_insts
    }

    /// Aggregate hit rate across all cores' units.
    pub fn aggregate_hit_rate(&self) -> f64 {
        let lookups: u64 = self.per_unit.iter().map(|u| u.lookups).sum();
        let hits: u64 = self.per_unit.iter().map(|u| u.reported_hits).sum();
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }

    /// Updates beyond the first core's — an upper bound on the misses a
    /// (hypothetical) shared/coherent LUT could have avoided. The paper
    /// accepts this cost to avoid coherence traffic entirely.
    pub fn duplicate_miss_estimate(&self) -> u64 {
        let min_updates = self.per_unit.iter().map(|u| u.updates).min().unwrap_or(0);
        let total: u64 = self.per_unit.iter().map(|u| u.updates).sum();
        total.saturating_sub(min_updates)
    }
}

/// A fixed pool of cores, each with a private simulator instance.
#[derive(Debug)]
pub struct MultiCore {
    cores: Vec<Simulator>,
}

impl MultiCore {
    /// Build `n` cores with identical configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn new(n: usize, config: &SimConfig) -> Result<Self, axmemo_core::config::ConfigError> {
        assert!(n > 0, "at least one core");
        let mut cores = Vec::with_capacity(n);
        for _ in 0..n {
            cores.push(Simulator::new(config.clone())?);
        }
        Ok(Self { cores })
    }

    /// Run `jobs` — one (program, machine) pair per core, e.g. data-
    /// parallel shards of one workload.
    ///
    /// # Errors
    ///
    /// Every core runs to completion regardless of other cores' faults
    /// (they are independent hardware); if any failed, the returned
    /// [`MulticoreError`] lists each faulting core with its index.
    ///
    /// # Panics
    ///
    /// Panics if `jobs.len()` differs from the core count.
    pub fn run(
        &mut self,
        jobs: &mut [(Program, Machine)],
    ) -> Result<MulticoreStats, MulticoreError> {
        assert_eq!(jobs.len(), self.cores.len(), "one job per core");
        let mut per_core = Vec::with_capacity(jobs.len());
        let mut per_unit = Vec::with_capacity(jobs.len());
        let mut failures = Vec::new();
        for (idx, (core, (program, machine))) in
            self.cores.iter_mut().zip(jobs.iter_mut()).enumerate()
        {
            match core.run(program, machine) {
                Ok(stats) => {
                    per_unit.push(core.memo_unit().map(|u| u.stats()).unwrap_or_default());
                    per_core.push(stats);
                }
                Err(error) => failures.push(CoreFailure { core: idx, error }),
            }
        }
        if !failures.is_empty() {
            return Err(MulticoreError { failures });
        }
        let makespan = per_core.iter().map(|s| s.cycles).max().unwrap_or(0);
        Ok(MulticoreStats {
            per_core,
            per_unit,
            makespan,
        })
    }

    /// Reset every core (caches + memoization state).
    pub fn reset(&mut self) {
        for core in &mut self.cores {
            core.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::ir::{Cond, FBinOp, IAluOp, MemWidth, Operand};
    use axmemo_core::config::MemoConfig;
    use axmemo_core::ids::LutId;

    /// A memoized square-like kernel over 128 inputs.
    fn shard_program() -> Program {
        let lut = LutId::new(0).unwrap();
        let mut b = ProgramBuilder::new();
        b.movi(1, 0).movi(2, 128).movi(3, 0x1000);
        let top = b.label("top");
        let hit = b.label("hit");
        b.bind(top);
        b.alu(IAluOp::Shl, 4, 1, Operand::Imm(2));
        b.alu(IAluOp::Add, 4, 4, Operand::Reg(3));
        b.memo_ld_crc(MemWidth::B4, 10, 4, 0, lut, 0);
        b.memo_lookup(11, lut);
        b.branch_memo_hit(hit);
        b.fbin(FBinOp::Mul, 11, 10, 10);
        b.fbin(FBinOp::Div, 11, 11, 10);
        b.fbin(FBinOp::Mul, 11, 11, 10);
        b.memo_update(11, lut);
        b.bind(hit);
        b.st(MemWidth::B4, 11, 4, 0x1000);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Reg(2), top);
        b.halt();
        b.build().unwrap()
    }

    fn shard_machine(seed: u64) -> Machine {
        let mut m = Machine::new(64 * 1024);
        for i in 0..128u64 {
            m.store_f32(0x1000 + 4 * i, ((i + seed) % 8 + 1) as f32);
        }
        m
    }

    #[test]
    fn cores_run_independently_and_correctly() {
        let cfg = SimConfig::with_memo(MemoConfig::l1_only(4096));
        let mut mc = MultiCore::new(2, &cfg).unwrap();
        let mut jobs = vec![
            (shard_program(), shard_machine(0)),
            (shard_program(), shard_machine(4)),
        ];
        let stats = mc.run(&mut jobs).unwrap();
        assert_eq!(stats.per_core.len(), 2);
        let merged = stats.merged();
        assert_eq!(merged.dynamic_insts, stats.total_insts());
        assert_eq!(merged.cycles, stats.makespan);
        // Both cores computed the right outputs.
        for (k, (_, machine)) in jobs.iter().enumerate() {
            for i in 0..128u64 {
                let x = ((i + 4 * k as u64) % 8 + 1) as f32;
                assert_eq!(machine.load_f32(0x2000 + 4 * i), x * x, "core {k} slot {i}");
            }
        }
        assert!(stats.aggregate_hit_rate() > 0.8);
        assert_eq!(
            stats.makespan,
            stats.per_core.iter().map(|s| s.cycles).max().unwrap()
        );
    }

    #[test]
    fn private_luts_pay_duplicate_warmup() {
        let cfg = SimConfig::with_memo(MemoConfig::l1_only(4096));
        let mut mc = MultiCore::new(2, &cfg).unwrap();
        // Identical shards: each core independently warms the same 8
        // distinct inputs — the coherence-free cost.
        let mut jobs = vec![
            (shard_program(), shard_machine(0)),
            (shard_program(), shard_machine(0)),
        ];
        let stats = mc.run(&mut jobs).unwrap();
        assert!(
            stats.duplicate_miss_estimate() >= 8,
            "duplicates {}",
            stats.duplicate_miss_estimate()
        );
    }

    #[test]
    fn reset_clears_all_cores() {
        let cfg = SimConfig::with_memo(MemoConfig::l1_only(4096));
        let mut mc = MultiCore::new(2, &cfg).unwrap();
        let mut jobs = vec![
            (shard_program(), shard_machine(0)),
            (shard_program(), shard_machine(0)),
        ];
        mc.run(&mut jobs).unwrap();
        mc.reset();
        let mut jobs2 = vec![
            (shard_program(), shard_machine(0)),
            (shard_program(), shard_machine(0)),
        ];
        let stats = mc.run(&mut jobs2).unwrap();
        // After reset, compulsory misses return: updates > 0 again.
        assert!(stats.per_unit.iter().all(|u| u.updates >= 8));
    }

    #[test]
    fn all_core_failures_are_reported_with_indices() {
        // Core 1 and core 3 run a program that loads out of bounds;
        // cores 0 and 2 are healthy. Both failures must surface, each
        // attributed to its core, not just the first.
        let cfg = SimConfig::with_memo(MemoConfig::l1_only(4096));
        let mut mc = MultiCore::new(4, &cfg).unwrap();
        let bad_program = {
            let mut b = ProgramBuilder::new();
            b.movi(1, u64::MAX - 16);
            b.ld(MemWidth::B4, 2, 1, 0);
            b.halt();
            b.build().unwrap()
        };
        let mut jobs = vec![
            (shard_program(), shard_machine(0)),
            (bad_program.clone(), Machine::new(1024)),
            (shard_program(), shard_machine(4)),
            (bad_program, Machine::new(1024)),
        ];
        let err = mc.run(&mut jobs).unwrap_err();
        assert_eq!(err.failures.len(), 2);
        assert_eq!(err.failures[0].core, 1);
        assert_eq!(err.failures[1].core, 3);
        for f in &err.failures {
            assert!(matches!(f.error, SimError::MemOutOfBounds { .. }));
        }
        let msg = err.to_string();
        assert!(msg.contains("2 of the cores failed"), "{msg}");
        assert!(msg.contains("core 1"), "{msg}");
        assert!(msg.contains("core 3"), "{msg}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    #[should_panic(expected = "one job per core")]
    fn job_count_must_match_cores() {
        let cfg = SimConfig::baseline();
        let mut mc = MultiCore::new(2, &cfg).unwrap();
        let mut jobs = vec![(shard_program(), shard_machine(0))];
        let _ = mc.run(&mut jobs);
    }
}
