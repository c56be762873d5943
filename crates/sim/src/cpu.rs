//! The simulator: functional execution + cycle-approximate timing +
//! energy accounting + memoization-unit integration.
//!
//! One [`Simulator::run`] call executes a [`Program`] on a [`Machine`]
//! (registers + sparse paged memory) and returns [`RunStats`]. When a
//! [`MemoConfig`] is supplied, a per-core [`MemoizationUnit`] services
//! the AxMemo instructions, and the configured L2 LUT capacity is carved
//! out of the L2 cache's ways (shrinking the caching capacity exactly as
//! §3.3 describes).

use crate::cache::{CacheConfig, CacheHierarchy, CacheStats, ServedBy};
use crate::decoded::DecodedProgram;
use crate::ir::{Cond, FBinOp, FUnOp, IAluOp, Inst, MemWidth, Operand, Program, NUM_REGS};
use crate::memo::{crc_beats, CrcInput, MemoTiming};
use crate::pipeline::{FuClass, LatencyModel, Pipeline};
use crate::predictor::{BranchPredictor, PredictorConfig, PredictorStats};
use crate::stats::{InstClassCounts, RunStats};
use crate::threaded::ThreadedProgram;
use axmemo_core::config::MemoConfig;
use axmemo_core::unit::MemoizationUnit;
use axmemo_telemetry::{PhaseId, Telemetry};
use core::fmt;

/// Bytes per page of simulated memory: the unit a [`Machine`] allocates
/// on the first write to it.
pub const PAGE_BYTES: usize = 4096;

/// One page of simulated memory.
type Page = [u8; PAGE_BYTES];

/// Architectural machine state: 32 × 64-bit registers, a
/// byte-addressable memory and the memoization condition code.
///
/// Memory is sparse. It is held in [`PAGE_BYTES`] pages, each allocated
/// on its first write; a page never written reads as zero. Creating,
/// cloning and dropping a machine therefore cost in proportion to the
/// pages written, not to the memory's length, while every access is
/// still bounds-checked against the exact byte length given to
/// [`Machine::new`]. Two machines are equal when their registers,
/// condition code, length and bytes are, whichever pages they hold.
#[derive(Clone)]
pub struct Machine {
    /// General registers x0..x31 (raw bits; f32 live in the low word).
    pub regs: [u64; NUM_REGS],
    /// Condition code set by `lookup` (§3.4).
    pub memo_hit: bool,
    /// Memory length in bytes.
    len: usize,
    /// `len.div_ceil(PAGE_BYTES)` slots; `None` reads as zeros.
    pages: Vec<Option<Box<Page>>>,
}

impl Machine {
    /// Machine with `mem_bytes` of zeroed memory.
    pub fn new(mem_bytes: usize) -> Self {
        Self {
            regs: [0; NUM_REGS],
            memo_hit: false,
            len: mem_bytes,
            pages: vec![None; mem_bytes.div_ceil(PAGE_BYTES)],
        }
    }

    /// Read an f32 from a register's low word.
    pub fn f32(&self, r: u8) -> f32 {
        f32::from_bits(self.regs[r as usize] as u32)
    }

    /// Write an f32 into a register (upper word zeroed).
    pub fn set_f32(&mut self, r: u8, v: f32) {
        self.regs[r as usize] = u64::from(v.to_bits());
    }

    /// Masked register read for the decoded fast path: the decoder has
    /// already validated every index against [`NUM_REGS`], so the mask
    /// is a no-op that lets the compiler drop the bounds check.
    #[inline(always)]
    pub(crate) fn reg(&self, r: u8) -> u64 {
        self.regs[r as usize & (NUM_REGS - 1)]
    }

    /// Masked register write (see [`Self::reg`]).
    #[inline(always)]
    pub(crate) fn set_reg(&mut self, r: u8, v: u64) {
        self.regs[r as usize & (NUM_REGS - 1)] = v;
    }

    /// Masked f32 register read (see [`Self::reg`]).
    #[inline(always)]
    pub(crate) fn reg_f32(&self, r: u8) -> f32 {
        f32::from_bits(self.reg(r) as u32)
    }

    /// Masked f32 register write (see [`Self::reg`]).
    #[inline(always)]
    pub(crate) fn set_reg_f32(&mut self, r: u8, v: f32) {
        self.set_reg(r, u64::from(v.to_bits()));
    }

    /// Read `width` bytes at `addr` (little-endian, zero-extended).
    #[inline]
    pub fn load(&self, addr: u64, width: MemWidth) -> Result<u64, SimError> {
        let a = self.check(addr, width)?;
        // Fixed-size reads per width: a variable-length copy would call
        // libc `memcpy` on every simulated access.
        Ok(match width {
            MemWidth::B1 => u64::from(self.read::<1>(a)[0]),
            MemWidth::B4 => u64::from(u32::from_le_bytes(self.read(a))),
            MemWidth::B8 => u64::from_le_bytes(self.read(a)),
        })
    }

    /// Write the low `width` bytes of `value` at `addr`.
    #[inline]
    pub fn store(&mut self, addr: u64, width: MemWidth, value: u64) -> Result<(), SimError> {
        let a = self.check(addr, width)?;
        match width {
            MemWidth::B1 => self.write(a, [value as u8]),
            MemWidth::B4 => self.write(a, (value as u32).to_le_bytes()),
            MemWidth::B8 => self.write(a, value.to_le_bytes()),
        }
        Ok(())
    }

    /// Convenience: write an f32 at `addr`.
    pub fn store_f32(&mut self, addr: u64, v: f32) {
        self.store(addr, MemWidth::B4, u64::from(v.to_bits()))
            .expect("store_f32 in bounds");
    }

    /// Convenience: read an f32 at `addr`.
    pub fn load_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.load(addr, MemWidth::B4).expect("load_f32 in bounds") as u32)
    }

    /// `addr` as a byte index, when all `width` bytes from it lie in
    /// memory. `addr + n` can overflow for near-`u64::MAX` addresses;
    /// the checked add keeps that a structured fault, not a panic.
    #[inline(always)]
    fn check(&self, addr: u64, width: MemWidth) -> Result<usize, SimError> {
        match usize::try_from(addr).map(|a| (a, a.checked_add(width.bytes()))) {
            Ok((a, Some(end))) if end <= self.len => Ok(a),
            _ => Err(SimError::MemOutOfBounds { addr, width }),
        }
    }

    /// The `N` bytes at the checked index `a`.
    #[inline(always)]
    fn read<const N: usize>(&self, a: usize) -> [u8; N] {
        let off = a % PAGE_BYTES;
        if off > PAGE_BYTES - N {
            return self.read_straddling(a);
        }
        match &self.pages[a / PAGE_BYTES] {
            Some(page) => fixed(&page[off..]),
            None => [0; N],
        }
    }

    /// Write `bytes` at the checked index `a`.
    #[inline(always)]
    fn write<const N: usize>(&mut self, a: usize, bytes: [u8; N]) {
        let off = a % PAGE_BYTES;
        if off > PAGE_BYTES - N {
            return self.write_straddling(a, bytes);
        }
        *fixed_mut(&mut self.page_mut(a / PAGE_BYTES)[off..]) = bytes;
    }

    /// [`Self::read`] of an access that crosses a page boundary.
    #[cold]
    #[inline(never)]
    fn read_straddling<const N: usize>(&self, a: usize) -> [u8; N] {
        std::array::from_fn(|i| {
            let a = a + i;
            self.pages[a / PAGE_BYTES]
                .as_ref()
                .map_or(0, |page| page[a % PAGE_BYTES])
        })
    }

    /// [`Self::write`] of an access that crosses a page boundary.
    #[cold]
    #[inline(never)]
    fn write_straddling<const N: usize>(&mut self, a: usize, bytes: [u8; N]) {
        for (i, byte) in bytes.into_iter().enumerate() {
            let a = a + i;
            self.page_mut(a / PAGE_BYTES)[a % PAGE_BYTES] = byte;
        }
    }

    /// Page `index`, allocated zeroed if it was never written.
    #[inline(always)]
    fn page_mut(&mut self, index: usize) -> &mut Page {
        match &mut self.pages[index] {
            Some(page) => page,
            slot => zero_page(slot),
        }
    }
}

/// Allocate the zeroed page an absent `slot` stands for.
#[cold]
#[inline(never)]
fn zero_page(slot: &mut Option<Box<Page>>) -> &mut Page {
    slot.insert(Box::new([0; PAGE_BYTES]))
}

impl PartialEq for Machine {
    /// Byte-wise equality: an absent page equals an all-zero one.
    fn eq(&self, other: &Self) -> bool {
        let zero = |page: &Page| page.iter().all(|&b| b == 0);
        self.regs == other.regs
            && self.memo_hit == other.memo_hit
            && self.len == other.len
            && self.pages.iter().zip(&other.pages).all(|pair| match pair {
                (Some(a), Some(b)) => a == b,
                (Some(page), None) | (None, Some(page)) => zero(page),
                (None, None) => true,
            })
    }
}

impl Eq for Machine {}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("regs", &self.regs)
            .field("memo_hit", &self.memo_hit)
            .field("mem_bytes", &self.len)
            .field("pages_allocated", &self.pages.iter().flatten().count())
            .finish()
    }
}

/// The `N` bytes at the front of `bytes`, which holds at least `N`.
#[inline(always)]
fn fixed<const N: usize>(bytes: &[u8]) -> [u8; N] {
    *bytes
        .first_chunk()
        .expect("access range checked to its width")
}

/// Mutable [`fixed`].
#[inline(always)]
fn fixed_mut<const N: usize>(bytes: &mut [u8]) -> &mut [u8; N] {
    bytes
        .first_chunk_mut()
        .expect("access range checked to its width")
}

/// Execution failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// Memory access outside the machine's memory.
    MemOutOfBounds {
        /// Faulting address.
        addr: u64,
        /// Access width.
        width: MemWidth,
    },
    /// Integer division by zero.
    DivByZero {
        /// Program counter of the divide.
        pc: usize,
    },
    /// PC ran off the end without `Halt`.
    PcOutOfRange {
        /// The out-of-range program counter.
        pc: usize,
    },
    /// Dynamic instruction budget exhausted (runaway-loop guard).
    InstLimit {
        /// The limit that was hit.
        limit: u64,
    },
    /// A memoization instruction was executed but no memoization unit is
    /// configured.
    NoMemoUnit {
        /// Program counter of the instruction.
        pc: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MemOutOfBounds { addr, width } => {
                write!(f, "memory access at {addr:#x} ({width:?}) out of bounds")
            }
            SimError::DivByZero { pc } => write!(f, "division by zero at pc {pc}"),
            SimError::PcOutOfRange { pc } => write!(f, "pc {pc} out of range"),
            SimError::InstLimit { limit } => {
                write!(f, "dynamic instruction limit {limit} exceeded")
            }
            SimError::NoMemoUnit { pc } => {
                write!(
                    f,
                    "memoization instruction at pc {pc} without a memoization unit"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Observer of the dynamic instruction stream (used by the compiler's
/// trace capture; see `axmemo-compiler`).
pub trait TraceSink {
    /// Called after each instruction commits.
    ///
    /// * `pc` — static instruction index.
    /// * `inst` — the instruction.
    /// * `wrote` — destination register and the value written, if any.
    /// * `addr` — effective address for memory operations.
    fn record(&mut self, pc: usize, inst: &Inst, wrote: Option<(u8, u64)>, addr: Option<u64>);
}

/// The one execution tier the simulator runs in production: threaded
/// code over fused superblocks ([`Simulator::run`]). The legacy
/// instruction-at-a-time loop is not a tier to select; it is the
/// executable spec tests reach through [`Simulator::run_reference`].
/// The type remains because the benchmark ledger passes
/// `DispatchTier::default()` to `BaselineCache::get_or_compute`, which
/// ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchTier {
    /// Threaded-code dispatch over fused superblocks.
    #[default]
    Threaded,
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Memoization hardware; `None` = the unmodified baseline core.
    pub memo: Option<MemoConfig>,
    /// Cache hierarchy parameters (Table 3 defaults).
    pub cache: CacheConfig,
    /// Latency classes.
    pub latency: LatencyModel,
    /// Optional branch predictor. `None` (the default) charges the
    /// fixed taken-branch bubble of [`LatencyModel`]; `Some` replaces it
    /// with predicted-direction stalls (gem5-HPI-like refinement).
    pub predictor: Option<PredictorConfig>,
    /// Dynamic-instruction budget: the run aborts with
    /// [`SimError::InstLimit`] once this many instructions have
    /// executed. It is the simulator's only runaway guard, and it
    /// bounds cycles too, since every instruction's pipeline delay is
    /// bounded. The supervised benchmark runner tightens it into a
    /// per-job watchdog derived from the baseline's instruction count.
    pub max_insts: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            memo: None,
            cache: CacheConfig::default(),
            latency: LatencyModel::default(),
            predictor: None,
            max_insts: 2_000_000_000,
        }
    }
}

impl SimConfig {
    /// Baseline core without memoization hardware.
    pub fn baseline() -> Self {
        Self::default()
    }

    /// Core with an AxMemo unit in configuration `memo`.
    pub fn with_memo(memo: MemoConfig) -> Self {
        Self {
            memo: Some(memo),
            ..Self::default()
        }
    }

    /// Number of L2 cache ways the configured L2 LUT occupies.
    pub fn reserved_l2_ways(&self) -> usize {
        match &self.memo {
            Some(m) => match m.l2_bytes {
                Some(l2_lut) => {
                    let way_bytes = self.cache.l2_bytes / self.cache.l2_ways;
                    l2_lut.div_ceil(way_bytes).min(self.cache.l2_ways - 1)
                }
                None => 0,
            },
            None => 0,
        }
    }
}

/// The simulator. Create once per configuration, [`Self::run`] per
/// program; memoization-unit state (LUT contents) persists across runs
/// unless [`Self::reset`] is called.
#[derive(Debug)]
pub struct Simulator {
    pub(crate) config: SimConfig,
    pub(crate) cache: CacheHierarchy,
    pub(crate) memo: Option<MemoizationUnit>,
    pub(crate) telemetry: Telemetry,
}

impl Simulator {
    /// Build a simulator for `config`.
    ///
    /// # Errors
    ///
    /// Propagates [`axmemo_core::config::ConfigError`] for an invalid
    /// memoization configuration.
    pub fn new(config: SimConfig) -> Result<Self, axmemo_core::config::ConfigError> {
        let reserved = config.reserved_l2_ways();
        let memo = match &config.memo {
            Some(m) => Some(MemoizationUnit::new(m.clone())?),
            None => None,
        };
        Ok(Self {
            cache: CacheHierarchy::new(config.cache, reserved),
            config,
            memo,
            telemetry: Telemetry::off(),
        })
    }

    /// Install a telemetry handle. An enabled handle makes every
    /// subsequent run emit per-run metrics (instruction classes, stall
    /// attribution, cache/predictor outcomes) plus the memoization
    /// unit's LUT and quality events; the default handle is off and
    /// costs nothing on the hot path.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.telemetry = tel;
    }

    /// The telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Take the telemetry handle out (e.g. to render a report), leaving
    /// a disabled one in place.
    pub fn take_telemetry(&mut self) -> Telemetry {
        std::mem::take(&mut self.telemetry)
    }

    /// The memoization unit, when configured.
    pub fn memo_unit(&self) -> Option<&MemoizationUnit> {
        self.memo.as_ref()
    }

    /// Mutable access to the memoization unit (e.g. to enable the
    /// lookup-event log consumed by the baseline replays of the paper's
    /// evaluation section).
    pub fn memo_unit_mut(&mut self) -> Option<&mut MemoizationUnit> {
        self.memo.as_mut()
    }

    /// The cache hierarchy (statistics inspection).
    pub fn cache(&self) -> &CacheHierarchy {
        &self.cache
    }

    /// Clear caches and memoization state between independent runs
    /// (fault injectors re-seed, so every run replays the same faults).
    pub fn reset(&mut self) {
        self.cache.flush();
        if let Some(m) = self.memo.as_mut() {
            m.reset();
        }
    }

    /// Execute `program` to `Halt` on the threaded tier, lowering it
    /// once per call ([`DecodedProgram::compile`], then
    /// [`ThreadedProgram::compile`]). Callers that run one program many
    /// times lower it once and call [`Self::run_prepared_threaded`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on the first fault (out-of-bounds access,
    /// division by zero, runaway loop, missing memoization unit).
    pub fn run(&mut self, program: &Program, machine: &mut Machine) -> Result<RunStats, SimError> {
        let decoded = DecodedProgram::compile(program, &self.config.latency);
        let threaded = ThreadedProgram::compile(&decoded);
        self.run_threaded(&threaded, machine)
    }

    /// Execute an already-lowered threaded program (see
    /// [`ThreadedProgram`]), skipping both the decode and the
    /// superblock-lowering steps. Sweep cells share one
    /// `Arc<ThreadedProgram>`.
    ///
    /// # Panics
    ///
    /// Panics if `threaded` was lowered against a different
    /// [`LatencyModel`] than this simulator's configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on the first fault, exactly as [`Self::run`].
    pub fn run_prepared_threaded(
        &mut self,
        threaded: &ThreadedProgram,
        machine: &mut Machine,
    ) -> Result<RunStats, SimError> {
        assert_eq!(
            *threaded.latency(),
            self.config.latency,
            "ThreadedProgram latency model does not match the simulator config"
        );
        self.run_threaded(threaded, machine)
    }

    /// Execute `program` on the legacy instruction-at-a-time loop, with
    /// an optional trace sink receiving every committed instruction.
    /// This is the executable spec: tests check the threaded tier
    /// against it, and compiler trace capture uses it for the sink.
    /// Its observables (`RunStats`, machine state, errors, unit state,
    /// telemetry events) equal [`Self::run`]'s bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on the first fault, exactly as [`Self::run`].
    pub fn run_reference(
        &mut self,
        program: &Program,
        machine: &mut Machine,
        mut trace: Option<&mut dyn TraceSink>,
    ) -> Result<RunStats, SimError> {
        let lat = self.config.latency;
        let mut pipe = Pipeline::new();
        let mut predictor = self.config.predictor.map(BranchPredictor::new);
        let mut stats = RunStats::default();
        let mut classes = InstClassCounts::default();
        // Cache statistics accumulate across runs; snapshot for deltas.
        let l1d_before = self.cache.l1d_stats();
        let l2_before = self.cache.l2_stats();
        let mut memo = MemoTiming::new(self.memo.as_ref());
        let mut pc = 0usize;
        // Interpreter dispatch phase: exclusive cycles are whatever the
        // LUT leaves (CRC stalls, lookups, updates) don't claim. Early
        // error returns leave the frame open; the runner's recovery path
        // (`close_open_spans`) drains it.
        self.telemetry.profiler_mut().enter(PhaseId::Dispatch);

        loop {
            let inst = *program.insts.get(pc).ok_or(SimError::PcOutOfRange { pc })?;
            if stats.dynamic_insts >= self.config.max_insts {
                return Err(SimError::InstLimit {
                    limit: self.config.max_insts,
                });
            }

            let mut next_pc = pc + 1;
            let mut wrote: Option<(u8, u64)> = None;
            let mut mem_addr: Option<u64> = None;

            match inst {
                Inst::RegionBegin { .. } | Inst::RegionEnd { .. } => {
                    if let Some(t) = trace.as_deref_mut() {
                        t.record(pc, &inst, None, None);
                    }
                    pc = next_pc;
                    continue; // zero-cost markers
                }
                Inst::Halt => {
                    stats.dynamic_insts += 1;
                    stats.energy.instructions += 1;
                    if let Some(t) = trace.as_deref_mut() {
                        t.record(pc, &inst, None, None);
                    }
                    break;
                }
                Inst::IAlu { op, rd, ra, rb } => {
                    let a = machine.regs[ra as usize];
                    let b = operand(machine, rb);
                    let v = ialu(op, a, b).ok_or(SimError::DivByZero { pc })?;
                    machine.regs[rd as usize] = v;
                    wrote = Some((rd, v));
                    let (latency, fu) = lat.ialu(op);
                    let srcs = [ra, operand_reg(rb).unwrap_or(ra)];
                    pipe.issue(&srcs, Some(rd), fu, latency, 0);
                    match fu {
                        FuClass::IntMul => stats.energy.int_mul_ops += 1,
                        FuClass::IntDiv => stats.energy.int_div_ops += 1,
                        _ => stats.energy.int_alu_ops += 1,
                    }
                    classes.ialu += 1;
                }
                Inst::FBin { op, rd, ra, rb } => {
                    let v = fbin(op, machine.f32(ra), machine.f32(rb));
                    machine.set_f32(rd, v);
                    wrote = Some((rd, machine.regs[rd as usize]));
                    let (latency, fu) = lat.fbin(op);
                    pipe.issue(&[ra, rb], Some(rd), fu, latency, 0);
                    if fu == FuClass::FpLong {
                        stats.energy.fp_div_ops += 1;
                    } else {
                        stats.energy.fp_ops += 1;
                    }
                    classes.fbin += 1;
                }
                Inst::FUn { op, rd, ra } => {
                    let v = funop(op, machine.regs[ra as usize]);
                    machine.regs[rd as usize] = v;
                    wrote = Some((rd, v));
                    let (latency, fu) = lat.fun(op);
                    pipe.issue(&[ra], Some(rd), fu, latency, 0);
                    match op {
                        FUnOp::Exp | FUnOp::Log | FUnOp::Sin | FUnOp::Cos | FUnOp::Atan => {
                            stats.energy.fp_libm_ops += 1
                        }
                        FUnOp::Sqrt => stats.energy.fp_div_ops += 1,
                        _ => stats.energy.fp_ops += 1,
                    }
                    classes.fun += 1;
                }
                Inst::Ld {
                    width,
                    rd,
                    base,
                    offset,
                } => {
                    let addr = machine.regs[base as usize].wrapping_add_signed(offset.into());
                    let v = machine.load(addr, width)?;
                    machine.regs[rd as usize] = v;
                    wrote = Some((rd, v));
                    mem_addr = Some(addr);
                    let (latency, served) = self.cache.access_served(addr);
                    charge_mem(&mut stats, served);
                    pipe.issue(&[base], Some(rd), FuClass::LdSt, latency, 0);
                    classes.load += 1;
                }
                Inst::St {
                    width,
                    rs,
                    base,
                    offset,
                } => {
                    let addr = machine.regs[base as usize].wrapping_add_signed(offset.into());
                    machine.store(addr, width, machine.regs[rs as usize])?;
                    mem_addr = Some(addr);
                    let (_, served) = self.cache.access_served(addr);
                    charge_mem(&mut stats, served);
                    // No destination register, so no latency is read.
                    pipe.issue(&[rs, base], None, FuClass::LdSt, 0, 0);
                    classes.store += 1;
                }
                Inst::MovImm { rd, imm } => {
                    machine.regs[rd as usize] = imm;
                    wrote = Some((rd, imm));
                    pipe.issue(&[], Some(rd), FuClass::IntAlu, 1, 0);
                    stats.energy.int_alu_ops += 1;
                    classes.mov += 1;
                }
                Inst::Mov { rd, ra } => {
                    let v = machine.regs[ra as usize];
                    machine.regs[rd as usize] = v;
                    wrote = Some((rd, v));
                    pipe.issue(&[ra], Some(rd), FuClass::IntAlu, 1, 0);
                    stats.energy.int_alu_ops += 1;
                    classes.mov += 1;
                }
                Inst::Branch {
                    cond,
                    ra,
                    rb,
                    target,
                } => {
                    let taken = branch_taken(cond, machine, ra, rb);
                    let srcs = [ra, operand_reg(rb).unwrap_or(ra)];
                    pipe.issue(&srcs, None, FuClass::Branch, 1, 0);
                    if taken {
                        next_pc = target;
                    }
                    match predictor.as_mut() {
                        Some(bp) => {
                            let stall = bp.resolve(pc, taken);
                            if stall > 0 {
                                pipe.branch_bubble(stall);
                                stats.branch_bubbles += 1;
                            }
                        }
                        None if taken => {
                            pipe.branch_bubble(lat.taken_branch_bubble);
                            stats.branch_bubbles += 1;
                        }
                        None => {}
                    }
                    stats.energy.int_alu_ops += 1;
                    classes.branch += 1;
                }
                Inst::Jump { target } => {
                    next_pc = target;
                    pipe.issue(&[], None, FuClass::Branch, 1, 0);
                    pipe.branch_bubble(lat.taken_branch_bubble);
                    stats.branch_bubbles += 1;
                    stats.energy.int_alu_ops += 1;
                    classes.jump += 1;
                }
                Inst::BranchMemoHit { target } => {
                    pipe.issue(&[], None, FuClass::Branch, 1, 0);
                    if machine.memo_hit {
                        next_pc = target;
                        pipe.branch_bubble(lat.taken_branch_bubble);
                        stats.branch_bubbles += 1;
                    }
                    stats.memo_insts += 1;
                    stats.energy.int_alu_ops += 1;
                    classes.memo += 1;
                }
                Inst::MemoLdCrc {
                    width,
                    rd,
                    base,
                    offset,
                    lut,
                    trunc,
                } => {
                    // A missing unit faults before the load can.
                    self.memo.as_ref().ok_or(SimError::NoMemoUnit { pc })?;
                    let addr = machine.regs[base as usize].wrapping_add_signed(offset.into());
                    let raw = machine.load(addr, width)?;
                    machine.regs[rd as usize] = raw;
                    wrote = Some((rd, raw));
                    mem_addr = Some(addr);
                    let (latency, served) = self.cache.access_served(addr);
                    charge_mem(&mut stats, served);
                    let port = self.memo_port(&mut pipe, &mut stats, pc)?;
                    let input = CrcInput {
                        lut,
                        width,
                        raw,
                        trunc,
                    };
                    memo.ld_crc(port, base, rd, latency, input);
                    stats.energy.crc_beats += crc_beats(width);
                    stats.energy.hvr_accesses += 1;
                    classes.memo += 1;
                }
                Inst::MemoRegCrc {
                    width,
                    src,
                    lut,
                    trunc,
                } => {
                    let port = self.memo_port(&mut pipe, &mut stats, pc)?;
                    let input = CrcInput {
                        lut,
                        width,
                        raw: machine.regs[src as usize],
                        trunc,
                    };
                    memo.reg_crc(port, src, input);
                    stats.energy.crc_beats += crc_beats(width);
                    stats.energy.hvr_accesses += 1;
                    stats.memo_insts += 1;
                    classes.memo += 1;
                }
                Inst::MemoLookup { rd, lut } => {
                    let port = self.memo_port(&mut pipe, &mut stats, pc)?;
                    if let Some(data) = memo.lookup(port, machine, rd, lut) {
                        wrote = Some((rd, data));
                    }
                    stats.energy.hvr_accesses += 1;
                    stats.energy.l1_lut_accesses += 1;
                    stats.memo_insts += 1;
                    classes.memo += 1;
                }
                Inst::MemoUpdate { src, lut } => {
                    let data = machine.regs[src as usize];
                    let port = self.memo_port(&mut pipe, &mut stats, pc)?;
                    memo.update(port, src, lut, data);
                    stats.energy.l1_lut_accesses += 1;
                    stats.memo_insts += 1;
                    classes.memo += 1;
                }
                Inst::MemoInvalidate { lut } => {
                    let port = self.memo_port(&mut pipe, &mut stats, pc)?;
                    memo.invalidate(port, lut);
                    stats.memo_insts += 1;
                    classes.memo += 1;
                }
            }

            stats.dynamic_insts += 1;
            stats.energy.instructions += 1;
            if let Some(t) = trace.as_deref_mut() {
                t.record(pc, &inst, wrote, mem_addr);
            }
            pc = next_pc;
        }

        stats.cycles = pipe.drain();
        self.telemetry.profiler_mut().exit_cycles(stats.cycles);
        if let Some(unit) = self.memo.as_ref() {
            stats.energy.quality_compares = unit.stats().sampled_misses;
        }
        let predictor_stats = predictor.as_ref().map(|bp| bp.stats());
        self.flush_run_telemetry(&stats, &classes, predictor_stats, l1d_before, l2_before);
        Ok(stats)
    }

    /// Flush per-run counters into the telemetry registry. Instruction
    /// classes and stalls accumulate in locals during the run; cache
    /// statistics are counted as deltas against the run-start snapshot
    /// (the hierarchy's counters persist across runs).
    pub(crate) fn flush_run_telemetry(
        &mut self,
        stats: &RunStats,
        classes: &InstClassCounts,
        predictor: Option<PredictorStats>,
        l1d_before: CacheStats,
        l2_before: CacheStats,
    ) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let tel = &mut self.telemetry;
        tel.set_cycle(stats.cycles);
        tel.count("inst.total", stats.dynamic_insts);
        tel.count("inst.ialu", classes.ialu);
        tel.count("inst.fbin", classes.fbin);
        tel.count("inst.fun", classes.fun);
        tel.count("inst.load", classes.load);
        tel.count("inst.store", classes.store);
        tel.count("inst.mov", classes.mov);
        tel.count("inst.branch", classes.branch);
        tel.count("inst.jump", classes.jump);
        tel.count("inst.memo", classes.memo);
        tel.count("cycles.total", stats.cycles);
        tel.count("stall.memo_queue_cycles", stats.memo_stall_cycles);
        tel.count("stall.branch_bubbles", stats.branch_bubbles);
        let l1d = self.cache.l1d_stats();
        let l2 = self.cache.l2_stats();
        tel.count("cache.l1d.hits", l1d.hits.saturating_sub(l1d_before.hits));
        tel.count(
            "cache.l1d.misses",
            l1d.misses.saturating_sub(l1d_before.misses),
        );
        tel.count("cache.l2.hits", l2.hits.saturating_sub(l2_before.hits));
        tel.count(
            "cache.l2.misses",
            l2.misses.saturating_sub(l2_before.misses),
        );
        if let Some(ps) = predictor {
            tel.count("predictor.predictions", ps.predictions);
            tel.count("predictor.mispredictions", ps.mispredictions);
        }
    }
}

fn operand(machine: &Machine, op: Operand) -> u64 {
    match op {
        Operand::Reg(r) => machine.regs[r as usize],
        Operand::Imm(i) => i as u64,
    }
}

fn operand_reg(op: Operand) -> Option<u8> {
    match op {
        Operand::Reg(r) => Some(r),
        Operand::Imm(_) => None,
    }
}

fn charge_mem(stats: &mut RunStats, served: ServedBy) {
    stats.energy.l1d_accesses += 1;
    charge_mem_levels(stats, served);
}

/// The runtime-dependent half of [`charge_mem`]: which level served the
/// access. The fast paths batch the (static) `l1d_accesses` count per
/// basic block and charge only this part per instruction.
pub(crate) fn charge_mem_levels(stats: &mut RunStats, served: ServedBy) {
    match served {
        ServedBy::L1 => {}
        ServedBy::L2 => stats.energy.l2_accesses += 1,
        ServedBy::Dram => {
            stats.energy.l2_accesses += 1;
            stats.energy.dram_accesses += 1;
        }
    }
}

pub(crate) fn ialu(op: IAluOp, a: u64, b: u64) -> Option<u64> {
    Some(match op {
        IAluOp::Add => a.wrapping_add(b),
        IAluOp::Sub => a.wrapping_sub(b),
        IAluOp::Mul => a.wrapping_mul(b),
        IAluOp::Div => {
            if b == 0 {
                return None;
            }
            ((a as i64).wrapping_div(b as i64)) as u64
        }
        IAluOp::Rem => {
            if b == 0 {
                return None;
            }
            ((a as i64).wrapping_rem(b as i64)) as u64
        }
        IAluOp::And => a & b,
        IAluOp::Or => a | b,
        IAluOp::Xor => a ^ b,
        IAluOp::Shl => a.wrapping_shl(b as u32),
        IAluOp::Shr => a.wrapping_shr(b as u32),
        IAluOp::Sar => ((a as i64).wrapping_shr(b as u32)) as u64,
        IAluOp::SltS => u64::from((a as i64) < (b as i64)),
        IAluOp::SltU => u64::from(a < b),
        IAluOp::PackLo32 => (b << 32) | (a & 0xFFFF_FFFF),
    })
}

/// [`ialu`] restricted to the simple ops [`FuClass::IntAlu`] carries
/// (no multiply, no divide): infallible, so the threaded tier's fused
/// ALU handlers have no error branch.
#[inline(always)]
pub(crate) fn ialu_simple(op: IAluOp, a: u64, b: u64) -> u64 {
    match op {
        IAluOp::Add => a.wrapping_add(b),
        IAluOp::Sub => a.wrapping_sub(b),
        IAluOp::And => a & b,
        IAluOp::Or => a | b,
        IAluOp::Xor => a ^ b,
        IAluOp::Shl => a.wrapping_shl(b as u32),
        IAluOp::Shr => a.wrapping_shr(b as u32),
        IAluOp::Sar => ((a as i64).wrapping_shr(b as u32)) as u64,
        IAluOp::SltS => u64::from((a as i64) < (b as i64)),
        IAluOp::SltU => u64::from(a < b),
        IAluOp::PackLo32 => (b << 32) | (a & 0xFFFF_FFFF),
        IAluOp::Mul | IAluOp::Div | IAluOp::Rem => {
            unreachable!("lowered to dedicated Mul/Div fused ops")
        }
    }
}

pub(crate) fn fbin(op: FBinOp, a: f32, b: f32) -> f32 {
    match op {
        FBinOp::Add => a + b,
        FBinOp::Sub => a - b,
        FBinOp::Mul => a * b,
        FBinOp::Div => a / b,
        FBinOp::Min => a.min(b),
        FBinOp::Max => a.max(b),
        FBinOp::CmpLt => {
            if a < b {
                1.0
            } else {
                0.0
            }
        }
    }
}

pub(crate) fn funop(op: FUnOp, raw: u64) -> u64 {
    let a = f32::from_bits(raw as u32);
    match op {
        FUnOp::Sqrt => u64::from(a.sqrt().to_bits()),
        FUnOp::Exp => u64::from(a.exp().to_bits()),
        FUnOp::Log => u64::from(a.ln().to_bits()),
        FUnOp::Sin => u64::from(a.sin().to_bits()),
        FUnOp::Cos => u64::from(a.cos().to_bits()),
        FUnOp::Atan => u64::from(a.atan().to_bits()),
        FUnOp::Neg => u64::from((-a).to_bits()),
        FUnOp::Abs => u64::from(a.abs().to_bits()),
        FUnOp::Floor => u64::from(a.floor().to_bits()),
        FUnOp::ToInt => (a as i64) as u64,
        FUnOp::FromInt => u64::from(((raw as i64) as f32).to_bits()),
    }
}

fn branch_taken(cond: Cond, machine: &Machine, ra: u8, rb: Operand) -> bool {
    let a = machine.regs[ra as usize];
    let b = operand(machine, rb);
    cond_taken(cond, a, b)
}

/// Branch condition over pre-resolved operand values.
pub(crate) fn cond_taken(cond: Cond, a: u64, b: u64) -> bool {
    match cond {
        Cond::Eq => a == b,
        Cond::Ne => a != b,
        Cond::LtS => (a as i64) < (b as i64),
        Cond::GeS => (a as i64) >= (b as i64),
        Cond::LtU => a < b,
        Cond::GeU => a >= b,
        Cond::FLt => f32::from_bits(a as u32) < f32::from_bits(b as u32),
        Cond::FGe => f32::from_bits(a as u32) >= f32::from_bits(b as u32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::memo::CRC_BYTES_PER_CYCLE;
    use axmemo_core::ids::LutId;

    #[test]
    fn straight_line_arithmetic() {
        let mut b = ProgramBuilder::new();
        b.movi(1, 6).movi(2, 7);
        b.alu(IAluOp::Mul, 3, 1, Operand::Reg(2));
        b.halt();
        let p = b.build().unwrap();
        let mut sim = Simulator::new(SimConfig::baseline()).unwrap();
        let mut m = Machine::new(64);
        let stats = sim.run(&p, &mut m).unwrap();
        assert_eq!(m.regs[3], 42);
        assert_eq!(stats.dynamic_insts, 4);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn loop_executes_correct_count() {
        let mut b = ProgramBuilder::new();
        b.movi(1, 0).movi(2, 100);
        let top = b.label("top");
        b.bind(top);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Reg(2), top);
        b.halt();
        let p = b.build().unwrap();
        let mut sim = Simulator::new(SimConfig::baseline()).unwrap();
        let mut m = Machine::new(64);
        let stats = sim.run(&p, &mut m).unwrap();
        assert_eq!(m.regs[1], 100);
        // 2 movi + 200 loop insts + halt
        assert_eq!(stats.dynamic_insts, 203);
        assert!(stats.branch_bubbles >= 99);
    }

    #[test]
    fn memory_roundtrip_and_floats() {
        let mut b = ProgramBuilder::new();
        b.movi(1, 0x100);
        b.movf(2, 2.5);
        b.st(MemWidth::B4, 2, 1, 0);
        b.ld(MemWidth::B4, 3, 1, 0);
        b.fbin(FBinOp::Mul, 4, 3, 3);
        b.halt();
        let p = b.build().unwrap();
        let mut sim = Simulator::new(SimConfig::baseline()).unwrap();
        let mut m = Machine::new(1024);
        sim.run(&p, &mut m).unwrap();
        assert_eq!(m.f32(4), 6.25);
    }

    #[test]
    fn div_by_zero_faults() {
        let mut b = ProgramBuilder::new();
        b.movi(1, 1).movi(2, 0);
        b.alu(IAluOp::Div, 3, 1, Operand::Reg(2));
        b.halt();
        let p = b.build().unwrap();
        let mut sim = Simulator::new(SimConfig::baseline()).unwrap();
        let mut m = Machine::new(64);
        assert_eq!(sim.run(&p, &mut m), Err(SimError::DivByZero { pc: 2 }));
    }

    #[test]
    fn out_of_bounds_faults() {
        let mut b = ProgramBuilder::new();
        b.movi(1, 1 << 40);
        b.ld(MemWidth::B8, 2, 1, 0);
        b.halt();
        let p = b.build().unwrap();
        let mut sim = Simulator::new(SimConfig::baseline()).unwrap();
        let mut m = Machine::new(64);
        assert!(matches!(
            sim.run(&p, &mut m),
            Err(SimError::MemOutOfBounds { .. })
        ));
    }

    #[test]
    fn inst_limit_guards_runaway() {
        // The instruction budget is the only runaway guard: it stops a
        // non-terminating program on both interpreters, after exactly
        // `max_insts` instructions.
        let mut b = ProgramBuilder::new();
        let top = b.label("spin");
        b.bind(top);
        b.jump(top);
        let p = b.build().unwrap();
        for reference in [false, true] {
            let cfg = SimConfig {
                max_insts: 1000,
                ..SimConfig::baseline()
            };
            let mut sim = Simulator::new(cfg).unwrap();
            let mut m = Machine::new(64);
            assert_eq!(
                run_tier(&mut sim, reference, &p, &mut m),
                Err(SimError::InstLimit { limit: 1000 }),
                "reference {reference}"
            );
        }
    }

    #[test]
    fn ecc_protection_charges_energy_checks() {
        use axmemo_core::faults::{FaultConfig, Protection};
        let p = memo_square_program();
        let run = |protection: Protection| {
            let cfg = SimConfig::with_memo(MemoConfig {
                faults: FaultConfig {
                    protection,
                    ..FaultConfig::default()
                },
                ..MemoConfig::l1_only(4096)
            });
            let mut sim = Simulator::new(cfg).unwrap();
            let mut m = Machine::new(64 * 1024);
            for i in 0..256 {
                m.store_f32(0x1000 + 4 * i, (i % 8) as f32 + 1.0);
            }
            sim.run(&p, &mut m).unwrap()
        };
        let plain = run(Protection::Unprotected);
        let protected = run(Protection::EccProtected);
        assert_eq!(plain.energy.ecc_checks, 0);
        assert!(protected.energy.ecc_checks > 0);
        // One check per charged LUT access (L1-only config).
        assert_eq!(
            protected.energy.ecc_checks,
            protected.energy.l1_lut_accesses
        );
        // ECC adds a cycle per lookup/update; the pipeline may hide it
        // behind other work, but it can never make the run faster.
        assert!(protected.cycles >= plain.cycles);
    }

    #[test]
    fn near_max_address_faults_instead_of_overflowing() {
        // `addr + width` overflows u64/usize here; the bounds check must
        // report MemOutOfBounds, not panic (debug builds) or wrap.
        let m = Machine::new(64);
        let addr = u64::MAX - 1;
        assert_eq!(
            m.load(addr, MemWidth::B8),
            Err(SimError::MemOutOfBounds {
                addr,
                width: MemWidth::B8
            })
        );
        let mut m = Machine::new(64);
        assert_eq!(
            m.store(addr, MemWidth::B8, 7),
            Err(SimError::MemOutOfBounds {
                addr,
                width: MemWidth::B8
            })
        );
        // Same through both interpreters.
        let mut b = ProgramBuilder::new();
        b.movi(1, u64::MAX - 1);
        b.ld(MemWidth::B8, 2, 1, 0);
        b.halt();
        let p = b.build().unwrap();
        for reference in [true, false] {
            let mut sim = Simulator::new(SimConfig::baseline()).unwrap();
            assert_eq!(
                run_tier(&mut sim, reference, &p, &mut Machine::new(64)),
                Err(SimError::MemOutOfBounds {
                    addr: u64::MAX - 1,
                    width: MemWidth::B8
                }),
                "reference={reference}"
            );
        }
    }

    #[test]
    fn store_writes_exactly_its_width_and_load_zero_extends() {
        // Every byte of `value` has its top bit set, so a sign-extending
        // load at any width would show.
        let value = 0x8899_AABB_CCDD_EEFFu64;
        for (width, n) in [(MemWidth::B1, 1), (MemWidth::B4, 4), (MemWidth::B8, 8)] {
            // The start, the middle and the last slot of memory.
            for a in [0, 8, 32 - n] {
                let mut m = Machine::new(32);
                for i in 0..32 {
                    m.store(i, MemWidth::B1, 0x5A).unwrap();
                }
                let addr = a as u64;
                m.store(addr, width, value).unwrap();
                let bytes: Vec<u64> = (0..32).map(|i| m.load(i, MemWidth::B1).unwrap()).collect();
                assert!(
                    (a..a + n).all(|i| bytes[i] == value >> (8 * (i - a)) & 0xFF),
                    "{width:?} at {a}"
                );
                assert!(
                    bytes[..a].iter().chain(&bytes[a + n..]).all(|&b| b == 0x5A),
                    "{width:?} at {a} wrote outside its width"
                );
                let mask = u64::MAX >> (64 - 8 * n);
                assert_eq!(m.load(addr, width), Ok(value & mask), "{width:?} at {a}");
            }
            // One byte past the end is out of bounds at every width.
            let m = Machine::new(32);
            let addr = 33 - n as u64;
            assert_eq!(
                m.load(addr, width),
                Err(SimError::MemOutOfBounds { addr, width })
            );
        }
    }

    /// Every B4/B8 access that crosses a page boundary, at each in-page
    /// start offset, reads and writes the bytes a flat little-endian
    /// memory would, whether the pages it touches were written before
    /// or not.
    #[test]
    fn page_straddling_accesses_match_a_flat_reference() {
        let len = 3 * PAGE_BYTES;
        let boundary = PAGE_BYTES;
        let value = 0x8877_6655_4433_2211u64;
        for (width, n) in [(MemWidth::B4, 4), (MemWidth::B8, 8)] {
            for a in boundary - n + 1..boundary {
                for prefilled in [false, true] {
                    let mut m = Machine::new(len);
                    let mut flat = vec![0u8; len];
                    if prefilled {
                        for (i, b) in flat.iter_mut().enumerate().skip(boundary - 16).take(32) {
                            *b = (i * 7 + 3) as u8;
                            m.store(i as u64, MemWidth::B1, u64::from(*b)).unwrap();
                        }
                    }
                    let flat_load = |flat: &[u8]| {
                        (0..n).fold(0u64, |v, i| v | u64::from(flat[a + i]) << (8 * i))
                    };
                    let case = format!("{width:?} at {a}, prefilled {prefilled}");
                    assert_eq!(m.load(a as u64, width), Ok(flat_load(&flat)), "{case}");
                    m.store(a as u64, width, value).unwrap();
                    flat[a..a + n].copy_from_slice(&value.to_le_bytes()[..n]);
                    assert_eq!(m.load(a as u64, width), Ok(flat_load(&flat)), "{case}");
                    for (i, &b) in flat.iter().enumerate().skip(boundary - 16).take(32) {
                        assert_eq!(m.load(i as u64, MemWidth::B1), Ok(u64::from(b)), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn memory_never_written_reads_zero() {
        let len = 10 * PAGE_BYTES + 5;
        let mut m = Machine::new(len);
        m.store(3 * PAGE_BYTES as u64 + 8, MemWidth::B8, u64::MAX)
            .unwrap();
        for addr in [
            0,
            PAGE_BYTES - 4,
            2 * PAGE_BYTES + 4092,
            4 * PAGE_BYTES,
            len - 8,
        ] {
            for width in [MemWidth::B1, MemWidth::B4, MemWidth::B8] {
                assert_eq!(m.load(addr as u64, width), Ok(0), "{width:?} at {addr}");
            }
        }
    }

    /// With a length that is not a page multiple, the last access of
    /// each width ends exactly at the length, and one byte further is
    /// out of bounds for loads and stores alike.
    #[test]
    fn out_of_bounds_trips_at_the_exact_length() {
        let len = PAGE_BYTES + 100;
        for width in [MemWidth::B1, MemWidth::B4, MemWidth::B8] {
            let n = width.bytes();
            let mut m = Machine::new(len);
            let last = (len - n) as u64;
            m.store(last, width, u64::MAX).unwrap();
            assert_eq!(m.load(last, width), Ok(u64::MAX >> (64 - 8 * n)));
            let before = m.clone();
            let addr = last + 1;
            let err = Err(SimError::MemOutOfBounds { addr, width });
            assert_eq!(m.load(addr, width), err);
            assert_eq!(m.store(addr, width, 0), err.map(|_| ()));
            assert_eq!(m, before, "a faulting store writes nothing");
        }
    }

    #[test]
    fn clone_writes_do_not_reach_the_original() {
        let mut m = Machine::new(4 * PAGE_BYTES);
        m.store(16, MemWidth::B8, 7).unwrap();
        let mut c = m.clone();
        c.store(16, MemWidth::B8, 9).unwrap();
        c.store(2 * PAGE_BYTES as u64, MemWidth::B4, 5).unwrap();
        c.regs[1] = 3;
        assert_eq!(m.load(16, MemWidth::B8), Ok(7));
        assert_eq!(m.load(2 * PAGE_BYTES as u64, MemWidth::B4), Ok(0));
        assert_eq!(m.regs[1], 0);
        assert_eq!(c.load(16, MemWidth::B8), Ok(9));
        assert_ne!(m, c);
    }

    #[test]
    fn equality_ignores_all_zero_allocated_pages() {
        let a = Machine::new(2 * PAGE_BYTES + 1);
        let mut b = a.clone();
        // Writing zeros allocates a page that still reads as zeros.
        b.store(PAGE_BYTES as u64 + 8, MemWidth::B8, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, a);
        b.store(PAGE_BYTES as u64 + 9, MemWidth::B1, 1).unwrap();
        assert_ne!(a, b);
        assert_ne!(b, a);
        assert_ne!(a, Machine::new(2 * PAGE_BYTES + 2), "lengths differ");
        let mut c = a.clone();
        c.memo_hit = true;
        assert_ne!(a, c);
    }

    /// Run `p` on `sim`: on the legacy loop when `reference`, else on
    /// the threaded tier.
    fn run_tier(
        sim: &mut Simulator,
        reference: bool,
        p: &Program,
        m: &mut Machine,
    ) -> Result<RunStats, SimError> {
        if reference {
            sim.run_reference(p, m, None)
        } else {
            sim.run(p, m)
        }
    }

    #[test]
    fn all_dispatch_tiers_agree_exactly() {
        let p = memo_square_program();
        let run = |reference: bool| {
            let cfg = SimConfig::with_memo(MemoConfig::l1_only(4096));
            let mut sim = Simulator::new(cfg).unwrap();
            let mut m = Machine::new(64 * 1024);
            for i in 0..256 {
                m.store_f32(0x1000 + 4 * i, (i % 8) as f32 + 1.0);
            }
            let stats = run_tier(&mut sim, reference, &p, &mut m).unwrap();
            (stats, m)
        };
        assert_eq!(run(false), run(true));
    }

    /// §4's dummy-register rule: `lookup` waits for every `reg_crc`
    /// feeding the same LUT, and only those. The wait is charged as
    /// `memo_stall_cycles` and grows with the number of inputs in
    /// flight; a lookup on another LUT does not wait at all. The
    /// profiler's `crc.beat` leaf holds the exact issue delay the CRC
    /// causes, identical on both tiers.
    #[test]
    fn lookup_orders_only_after_crc_on_its_own_lut() {
        let (lut_a, lut_b) = (LutId::new(0).unwrap(), LutId::new(1).unwrap());
        let run = |reference: bool, inputs: u64, lookup_lut: LutId, queue_depth: usize| {
            let mut b = ProgramBuilder::new();
            b.movi(1, 0x1234_5678);
            for _ in 0..inputs {
                b.memo_reg_crc(MemWidth::B8, 1, lut_a, 0);
            }
            b.memo_lookup(2, lookup_lut);
            b.halt();
            let memo = MemoConfig {
                input_queue_depth: queue_depth,
                ..MemoConfig::l1_only(4096)
            };
            let mut sim = Simulator::new(SimConfig::with_memo(memo)).unwrap();
            let mut tel = Telemetry::off();
            tel.profiler_mut().enable();
            sim.set_telemetry(tel);
            let p = b.build().unwrap();
            let stats = run_tier(&mut sim, reference, &p, &mut Machine::new(64)).unwrap();
            let profile = sim.telemetry().take_profile().unwrap();
            (stats, profile.phases["dispatch;crc.beat"].cycles)
        };
        // `movi` makes r1 ready at cycle 1 and the one memo port issues
        // the k-th `reg_crc` at cycle k; each value reaches the CRC a
        // cycle later and costs `beats` CRC cycles, back to back. The
        // CRC drains at 2 + n·beats, while the lookup alone would issue
        // at n + 1. Queue back-pressure moves part of that delay from
        // the lookup to the feeds but leaves the sum unchanged.
        let beats = 8u64.div_ceil(CRC_BYTES_PER_CYCLE);
        let crc_delay = |n: u64| 2 + n * beats - (n + 1);
        let default_depth = MemoConfig::default().input_queue_depth;
        let mut last_leaf = None;
        for reference in [true, false] {
            let mut last_stall = 0;
            let mut leaves = Vec::new();
            for inputs in [1, 2, 4, 8, 12] {
                let (same, leaf) = run(reference, inputs, lut_a, default_depth);
                let (other, other_leaf) = run(reference, inputs, lut_b, default_depth);
                assert!(
                    same.memo_stall_cycles > last_stall,
                    "reference={reference}, {inputs} inputs: stall {} after {last_stall}",
                    same.memo_stall_cycles
                );
                last_stall = same.memo_stall_cycles;
                assert_eq!(
                    leaf,
                    crc_delay(inputs),
                    "reference={reference}, {inputs} inputs"
                );
                assert_eq!(
                    other.memo_stall_cycles, 0,
                    "reference={reference}, {inputs} inputs"
                );
                assert_eq!(other_leaf, 0, "reference={reference}, {inputs} inputs");
                assert!(
                    other.cycles < same.cycles,
                    "reference={reference}, {inputs} inputs: {} vs {}",
                    other.cycles,
                    same.cycles
                );
                leaves.push(leaf);
            }
            // A one-slot queue holds 8 cycles of CRC backlog, so 32
            // inputs stall their own issue.
            let (full, leaf) = run(reference, 32, lut_a, 1);
            assert_eq!(leaf, crc_delay(32), "reference={reference}, full queue");
            assert!(
                2 * full.memo_stall_cycles < leaf,
                "reference={reference}: stall {} counts back-pressure (leaf {leaf})",
                full.memo_stall_cycles
            );
            leaves.push(leaf);
            if let Some(last) = &last_leaf {
                assert_eq!(&leaves, last, "reference={reference}: tiers disagree");
            }
            last_leaf = Some(leaves);
        }
    }

    #[test]
    fn run_prepared_threaded_matches_run() {
        use crate::decoded::DecodedProgram;
        let p = memo_square_program();
        let cfg = SimConfig::with_memo(MemoConfig::l1_only(4096));
        let decoded = DecodedProgram::compile(&p, &cfg.latency);
        let threaded = ThreadedProgram::compile(&decoded);
        let setup = || {
            let mut m = Machine::new(64 * 1024);
            for i in 0..256 {
                m.store_f32(0x1000 + 4 * i, (i % 8) as f32 + 1.0);
            }
            m
        };
        let mut sim = Simulator::new(cfg.clone()).unwrap();
        let mut m1 = setup();
        let direct = sim.run(&p, &mut m1).unwrap();
        let mut sim = Simulator::new(cfg).unwrap();
        let mut m2 = setup();
        let prepared = sim.run_prepared_threaded(&threaded, &mut m2).unwrap();
        assert_eq!(direct, prepared);
        assert_eq!(m1, m2);
    }

    #[test]
    #[should_panic(expected = "latency model")]
    fn run_prepared_threaded_rejects_mismatched_latency_model() {
        use crate::decoded::DecodedProgram;
        use crate::pipeline::LatencyModel;
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build().unwrap();
        let other = LatencyModel {
            int_div: 99,
            ..LatencyModel::default()
        };
        let threaded = ThreadedProgram::compile(&DecodedProgram::compile(&p, &other));
        let mut sim = Simulator::new(SimConfig::baseline()).unwrap();
        let mut m = Machine::new(64);
        let _ = sim.run_prepared_threaded(&threaded, &mut m);
    }

    #[test]
    fn watchdog_trip_points_identical_across_tiers() {
        // Sweep max_insts over every value from 0 to one past the
        // program's exact dynamic count (trips in the first superblock
        // traversals, where the threaded tier switches between guarded
        // and unguarded superblocks, later where the memo lookups hit,
        // and at the very end) plus the default budget: every tier must
        // return the identical Result at every point.
        let p = memo_square_program();
        let run = |reference: bool, max_insts: u64| {
            let cfg = SimConfig {
                max_insts,
                ..SimConfig::with_memo(MemoConfig::l1_only(4096))
            };
            let mut sim = Simulator::new(cfg).unwrap();
            let mut m = Machine::new(64 * 1024);
            for i in 0..256 {
                m.store_f32(0x1000 + 4 * i, (i % 8) as f32 + 1.0);
            }
            run_tier(&mut sim, reference, &p, &mut m).map(|stats| (stats, m.regs))
        };
        let total = run(true, u64::MAX).unwrap().0.dynamic_insts;
        let insts_limits = (0..=total + 1).chain([SimConfig::default().max_insts]);
        for max_insts in insts_limits {
            let reference = run(true, max_insts);
            assert_eq!(run(false, max_insts), reference, "max_insts {max_insts}");
        }
    }

    #[test]
    fn memo_inst_without_unit_faults() {
        let mut b = ProgramBuilder::new();
        b.memo_lookup(1, LutId::new(0).unwrap());
        b.halt();
        let p = b.build().unwrap();
        let mut sim = Simulator::new(SimConfig::baseline()).unwrap();
        let mut m = Machine::new(64);
        assert_eq!(sim.run(&p, &mut m), Err(SimError::NoMemoUnit { pc: 0 }));
    }

    /// A memoized square kernel: lookup; on hit skip; else compute x*x
    /// (expensively) and update.
    fn memo_square_program() -> Program {
        let lut = LutId::new(0).unwrap();
        let mut b = ProgramBuilder::new();
        // r1 = loop counter; r2 = input base; r10 = x
        b.movi(1, 0).movi(2, 0x1000).movi(3, 256);
        let top = b.label("top");
        let hit = b.label("hit");
        let done = b.label("done");
        b.bind(top);
        // x = mem[r2 + 4*i], also CRC beat
        b.alu(IAluOp::Shl, 4, 1, Operand::Imm(2));
        b.alu(IAluOp::Add, 4, 4, Operand::Reg(2));
        b.memo_ld_crc(MemWidth::B4, 10, 4, 0, lut, 0);
        b.memo_lookup(11, lut);
        b.branch_memo_hit(hit);
        // miss: compute expensively (fdiv chain) then update
        b.fbin(FBinOp::Mul, 11, 10, 10);
        b.fbin(FBinOp::Div, 11, 11, 10);
        b.fbin(FBinOp::Mul, 11, 11, 10);
        b.memo_update(11, lut);
        b.bind(hit);
        // store result
        b.st(MemWidth::B4, 11, 4, 0x1000);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Reg(3), top);
        b.jump(done);
        b.bind(done);
        b.memo_invalidate(lut);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn memoized_kernel_hits_on_repeated_inputs() {
        let p = memo_square_program();
        let mut sim = Simulator::new(SimConfig::with_memo(MemoConfig::l1_only(4096))).unwrap();
        let mut m = Machine::new(64 * 1024);
        // 256 inputs drawn from only 8 distinct values.
        for i in 0..256 {
            m.store_f32(0x1000 + 4 * i, (i % 8) as f32 + 1.0);
        }
        let stats = sim.run(&p, &mut m).unwrap();
        let unit = sim.memo_unit().unwrap().stats();
        assert_eq!(unit.lookups, 256);
        // 8 compulsory misses; everything else hits (some sampled).
        assert!(unit.reported_hits >= 240, "hits {}", unit.reported_hits);
        assert!(stats.memo_insts > 0);
        // Outputs must be correct: x^2 for each slot.
        for i in 0..256u64 {
            let x = (i % 8) as f32 + 1.0;
            assert_eq!(m.load_f32(0x2000 + 4 * i), x * x, "slot {i}");
        }
    }

    /// A new simulator is already in its reset state. Running a
    /// memoized program with L1 and L2 faults on gives the same
    /// run, unit, LUT and fault statistics, telemetry events and final
    /// machine whether or not the simulator is reset first, on both
    /// tiers. The runner relies on this to skip the reset, which would
    /// rewrite every LUT entry the constructor just built.
    #[test]
    fn fresh_simulator_equals_fresh_then_reset() {
        use axmemo_core::faults::FaultConfig;
        use axmemo_telemetry::{event_to_json, RingBufferSink};
        let p = memo_square_program();
        let memo = MemoConfig {
            faults: FaultConfig {
                seed: 11,
                l1_tag_flip_ppm: 30_000,
                l1_data_flip_ppm: 30_000,
                l2_tag_flip_ppm: 30_000,
                l2_data_flip_ppm: 30_000,
                ..FaultConfig::default()
            },
            // One 64-byte L1 set in front of the L2: 32 distinct inputs
            // keep evicting into the L2 and hitting there.
            ..MemoConfig::l1_l2(64, 4096)
        };
        let run = |reference: bool, reset: bool| {
            let mut sim = Simulator::new(SimConfig::with_memo(memo.clone())).unwrap();
            let sink = RingBufferSink::new(1 << 20);
            let mut tel = Telemetry::enabled();
            tel.add_sink(Box::new(sink.clone()));
            sim.set_telemetry(tel);
            if reset {
                sim.reset();
            }
            let mut m = Machine::new(64 * 1024);
            for i in 0..256 {
                m.store_f32(0x1000 + 4 * i, (i % 32) as f32 + 1.0);
            }
            let stats = run_tier(&mut sim, reference, &p, &mut m).unwrap();
            let mut tel = sim.take_telemetry();
            tel.flush();
            assert_eq!(sink.dropped(), 0);
            let unit = sim.memo_unit().unwrap();
            let events: Vec<String> = sink.events().iter().map(event_to_json).collect();
            let luts = (unit.lut().l1_stats(), unit.lut().l2_stats());
            (stats, unit.stats(), luts, unit.fault_stats(), events, m)
        };
        for reference in [true, false] {
            let fresh = run(reference, false);
            let (stats, unit, (_, l2), faults, events, _) = &fresh;
            // The premise: every part of the state a reset touches is
            // exercised.
            assert!(
                unit.l2_hits > 0 && l2.inserts > 0,
                "reference={reference}: {l2:?}"
            );
            assert!(
                faults.total_flips() > 0,
                "reference={reference}: {faults:?}"
            );
            assert!(stats.memo_insts > 0 && !events.is_empty());
            assert!(fresh == run(reference, true), "reference={reference}");
        }
    }

    #[test]
    fn memoization_reduces_cycles_on_redundant_input() {
        let p = memo_square_program();
        // Baseline: same program but the memo path never hits because
        // we give it a pass-through config? Instead, compare high-reuse
        // vs no-reuse inputs through identical hardware.
        let mut sim = Simulator::new(SimConfig::with_memo(MemoConfig::l1_only(4096))).unwrap();
        let mut redundant = Machine::new(64 * 1024);
        for i in 0..256 {
            redundant.store_f32(0x1000 + 4 * i, (i % 4) as f32 + 1.0);
        }
        let fast = sim.run(&p, &mut redundant).unwrap();
        sim.reset();
        let mut unique = Machine::new(64 * 1024);
        for i in 0..256 {
            unique.store_f32(0x1000 + 4 * i, i as f32 + 1.0);
        }
        let slow = sim.run(&p, &mut unique).unwrap();
        assert!(
            fast.cycles < slow.cycles,
            "redundant {} !< unique {}",
            fast.cycles,
            slow.cycles
        );
        assert!(fast.dynamic_insts < slow.dynamic_insts);
    }

    #[test]
    fn shallow_input_queue_backpressures_feeds() {
        // A kernel with 9 CRC beats per invocation: with a deep queue
        // the CPU never waits for the CRC unit; with a 1-beat queue the
        // feeds stall behind the hash pipeline.
        let lut = LutId::new(0).unwrap();
        let build = || {
            let mut b = ProgramBuilder::new();
            b.movi(1, 0).movi(3, 0x1000);
            let top = b.label("top");
            b.bind(top);
            for k in 0..9 {
                b.memo_ld_crc(MemWidth::B4, 10 + k, 3, 4 * i32::from(k), lut, 0);
            }
            b.memo_lookup(20, lut);
            b.memo_update(20, lut);
            b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
            b.branch(Cond::LtS, 1, Operand::Imm(64), top);
            b.halt();
            b.build().unwrap()
        };
        let run = |depth: usize| {
            let cfg = SimConfig::with_memo(MemoConfig {
                input_queue_depth: depth,
                ..MemoConfig::l1_only(4096)
            });
            let mut sim = Simulator::new(cfg).unwrap();
            let mut m = Machine::new(64 * 1024);
            sim.run(&build(), &mut m).unwrap()
        };
        let deep = run(16);
        let shallow = run(1);
        assert!(
            shallow.cycles >= deep.cycles,
            "shallow {} < deep {}",
            shallow.cycles,
            deep.cycles
        );
    }

    #[test]
    fn trace_sink_sees_all_instructions() {
        struct Counter(u64);
        impl TraceSink for Counter {
            fn record(&mut self, _: usize, _: &Inst, _: Option<(u8, u64)>, _: Option<u64>) {
                self.0 += 1;
            }
        }
        let mut b = ProgramBuilder::new();
        b.movi(1, 5);
        b.region_begin(1);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.region_end(1);
        b.halt();
        let p = b.build().unwrap();
        let mut sim = Simulator::new(SimConfig::baseline()).unwrap();
        let mut m = Machine::new(64);
        let mut sink = Counter(0);
        sim.run_reference(&p, &mut m, Some(&mut sink)).unwrap();
        // movi + region_begin + add + region_end + halt
        assert_eq!(sink.0, 5);
    }
}
