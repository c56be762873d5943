//! The threaded interpreter is an *optimisation*, never a semantic
//! change: these tests pin bit-identical observables between the two
//! interpreters, each called directly on a fresh `Simulator`. The
//! legacy instruction-at-a-time loop is `Simulator::run_reference`,
//! the executable spec that only tests call; the threaded superblock
//! interpreter (`Simulator::run`, `run_prepared_threaded`) is the only
//! one the binaries run. Every benchmark leg and every reduced-sweep
//! cell is compared on its `Result`, whole machine, unit, fault and LUT
//! statistics, registry counters, telemetry event stream and CRC/LUT
//! profile leaves, and seeded random programs on their `Result` and
//! machine. The runner's metrics are pure functions of these values and
//! the threaded tier's outputs are pinned by the figure goldens, so
//! these tests carry the goldens to the spec.

use axmemo_bench::orchestrator::Orchestrator;
use axmemo_bench::{paper_configs, sweep, ReportMode};
use axmemo_core::config::MemoConfig;
use axmemo_core::faults::FaultStats;
use axmemo_core::lut::LutStats;
use axmemo_core::unit::UnitStats;
use axmemo_sim::cpu::{Machine, SimConfig, SimError, Simulator, PAGE_BYTES};
use axmemo_sim::ir::{Cond, FBinOp, FUnOp, IAluOp, MemWidth, Operand};
use axmemo_sim::predictor::PredictorConfig;
use axmemo_sim::stats::RunStats;
use axmemo_sim::{Program, ProgramBuilder, ThreadedProgram};
use axmemo_telemetry::{event_to_json, RingBufferSink, Telemetry};
use axmemo_workloads::gen::SplitMix64;
use axmemo_workloads::runner::{memo_watchdog, BaseProgram};
use axmemo_workloads::{all_benchmarks, benchmark_by_name, Benchmark, Dataset, Scale};
use std::collections::BTreeMap;

/// Profile leaves by path, as (cycles, count).
type Leaves = BTreeMap<String, (u64, u64)>;

/// One leg as the two interpreters read it: the program the legacy loop
/// runs and the lowered form the runner executes.
struct Leg<'a> {
    program: &'a Program,
    threaded: &'a ThreadedProgram,
}

/// The baseline leg of `base`.
fn base_leg(base: &BaseProgram) -> Leg<'_> {
    Leg {
        program: &base.program,
        threaded: &base.lowered,
    }
}

/// A memoized leg of `base` as both interpreters read it: the memoized
/// program (which the runner does not keep) and its lowered form.
fn memo_leg(base: &BaseProgram, zero_trunc: bool) -> (Program, ThreadedProgram) {
    let program = base.memoized(zero_trunc).expect("tiny codegen");
    let threaded = base.memo_leg(zero_trunc).expect("tiny codegen");
    (program, threaded)
}

/// What one run of a leg leaves behind.
struct Observed {
    result: Result<RunStats, SimError>,
    machine: Machine,
    /// Unit, fault, L1 LUT and L2 LUT statistics (`None` without a
    /// memoization unit).
    unit: Option<(UnitStats, FaultStats, LutStats, LutStats)>,
    counters: Vec<(&'static str, u64)>,
    events: Vec<String>,
    /// The leaves under `dispatch`: `crc.beat`, `lut.*` and
    /// `quality.monitor`. Both tiers take memo-op timing from one owner
    /// (`sim::memo`), so these must agree; the threaded tier's own
    /// `dispatch.threaded` leaf is left out.
    leaves: Leaves,
}

/// Run `leg` on a fresh simulator for `cfg`, on a copy of `inputs`,
/// with events, counters and the profiler on: on the legacy loop when
/// `reference`, else on the lowered form the runner executes.
fn observe(cfg: &SimConfig, leg: &Leg<'_>, inputs: &Machine, reference: bool) -> Observed {
    let mut sim = Simulator::new(cfg.clone()).expect("valid config");
    let sink = RingBufferSink::new(4_000_000);
    let mut tel = Telemetry::enabled();
    tel.add_sink(Box::new(sink.clone()));
    tel.profiler_mut().enable();
    sim.set_telemetry(tel);
    let mut machine = inputs.clone();
    let result = if reference {
        sim.run_reference(leg.program, &mut machine, None)
    } else {
        sim.run_prepared_threaded(leg.threaded, &mut machine)
    };
    let mut tel = sim.take_telemetry();
    tel.close_open_spans();
    tel.flush();
    assert_eq!(sink.dropped(), 0, "event stream truncated");
    let profile = tel.take_profile().expect("profiling on");
    Observed {
        result,
        machine,
        unit: sim.memo_unit().map(|u| {
            let lut = u.lut();
            (u.stats(), u.fault_stats(), lut.l1_stats(), lut.l2_stats())
        }),
        counters: tel.registry().counters().collect(),
        events: sink.events().iter().map(event_to_json).collect(),
        leaves: profile
            .phases
            .iter()
            .filter(|(path, _)| {
                path.starts_with("dispatch;") && path.as_str() != "dispatch;dispatch.threaded"
            })
            .map(|(path, stat)| (path.clone(), (stat.cycles, stat.count)))
            .collect(),
    }
}

/// Run `leg` on both tiers and assert every observable agrees. Returns
/// the reference observation.
fn assert_leg_agrees(at: &str, cfg: &SimConfig, leg: &Leg<'_>, inputs: &Machine) -> Observed {
    let spec = observe(cfg, leg, inputs, true);
    let fast = observe(cfg, leg, inputs, false);
    assert_eq!(fast.result, spec.result, "{at}: result diverges");
    assert!(fast.machine == spec.machine, "{at}: machine diverges");
    assert_eq!(fast.unit, spec.unit, "{at}: unit/fault/LUT stats diverge");
    assert_eq!(fast.counters, spec.counters, "{at}: counters diverge");
    assert_eq!(
        fast.leaves, spec.leaves,
        "{at}: CRC/LUT profile leaves diverge"
    );
    assert_eq!(
        fast.events.len(),
        spec.events.len(),
        "{at}: event counts diverge"
    );
    for (i, (got, want)) in fast.events.iter().zip(&spec.events).enumerate() {
        assert_eq!(got, want, "{at}: event {i} diverges");
    }
    spec
}

/// The memoized leg's simulator config for `bench` under `memo`, as the
/// runner builds it.
fn memo_sim_config(bench: &dyn Benchmark, memo: &MemoConfig, max_insts: u64) -> SimConfig {
    SimConfig {
        max_insts,
        ..SimConfig::with_memo(MemoConfig {
            data_width: bench.data_width(),
            ..memo.clone()
        })
    }
}

/// Assert the memoized leg's observation covers memo work: a
/// successful run with lookups, CRC and LUT leaves.
fn assert_memo_work(at: &str, o: &Observed) {
    assert!(o.result.is_ok(), "{at}: {:?}", o.result);
    let (unit, ..) = o.unit.expect("memo unit configured");
    assert!(unit.lookups > 0, "{at}: no lookups");
    assert!(
        o.leaves.contains_key("dispatch;crc.beat") && o.leaves.len() > 1,
        "{at}: CRC and LUT leaves missing: {:?}",
        o.leaves
    );
}

/// Every registered benchmark at tiny scale: its baseline leg (one per
/// benchmark, shared by both truncation choices), and its memoized leg
/// with the benchmark's own truncation and with none (`zero_trunc`,
/// Fig. 11's exact leg) under each of the four paper configurations
/// (Figs. 7–10), agree on both interpreters in every observable.
#[test]
fn every_benchmark_is_bit_identical_across_interpreters() {
    let mut count = 0;
    for bench in all_benchmarks() {
        let b = bench.as_ref();
        let name = b.meta().name;
        let inputs = b.setup(Scale::Tiny, Dataset::Eval);
        let base_program = BaseProgram::build(b, Scale::Tiny);
        let base = assert_leg_agrees(
            &format!("{name} baseline"),
            &SimConfig::baseline(),
            &base_leg(&base_program),
            &inputs,
        );
        assert!(base.result.is_ok(), "{name} baseline: {:?}", base.result);
        count += 1;
        for zero_trunc in [false, true] {
            let (program, threaded) = memo_leg(&base_program, zero_trunc);
            let memo_leg = Leg {
                program: &program,
                threaded: &threaded,
            };
            let at = format!("{name} zero_trunc={zero_trunc}");
            for (label, cfg) in paper_configs() {
                let at = format!("{at} {label}");
                let cfg = memo_sim_config(b, &cfg, u64::MAX);
                let memo = assert_leg_agrees(&at, &cfg, &memo_leg, &inputs);
                assert_memo_work(&at, &memo);
                count += 1;
            }
        }
    }
    assert_eq!(count, 10 * (1 + 2 * 4));
}

/// Side-exit stress: a conditional branch whose bias *flips* mid-run.
/// The superblock builder fuses it one way from its static shape, so
/// for a long stretch of the run every fused copy of the branch
/// disagrees with the runtime direction and side-exits mid-superblock.
/// Stats, registers, and memory must still match the legacy loop
/// exactly.
#[test]
fn biased_branch_flip_mid_run_side_exits_exactly() {
    // Phase 1 (i < 600): inner forward branch never taken (fused
    // direction holds). Phase 2 (i >= 600): taken every iteration —
    // constant side exits from the unrolled chain.
    let mut b = ProgramBuilder::new();
    b.movi(1, 0).movi(2, 1200).movi(3, 0).movi(6, 600);
    let top = b.label("top");
    let skip = b.label("skip");
    b.bind(top);
    b.branch(Cond::LtS, 1, Operand::Reg(6), skip);
    b.alu(IAluOp::Add, 3, 3, Operand::Imm(13));
    b.alu(IAluOp::Xor, 3, 3, Operand::Reg(1));
    b.bind(skip);
    b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
    b.branch(Cond::LtS, 1, Operand::Reg(2), top);
    b.halt();
    let program = b.build().unwrap();

    let run = |reference: bool| {
        let mut sim = Simulator::new(SimConfig::baseline()).unwrap();
        let mut machine = Machine::new(64 * 1024);
        let stats = if reference {
            sim.run_reference(&program, &mut machine, None)
        } else {
            sim.run(&program, &mut machine)
        };
        (stats.unwrap(), machine)
    };
    let reference = run(true);
    assert_eq!(run(false), reference);
    // Sanity: both phases actually executed.
    assert_eq!(reference.1.regs[1], 1200);
    assert_ne!(reference.1.regs[3], 0);
}

/// Every cell of the reduced fault sweep (`sweep::matrix(7, …)`) over
/// two benchmark pairs — fault injection and all — agrees on both
/// interpreters in every observable: each benchmark's baseline leg
/// under the sweep's (unbounded) ceiling, and each cell's memoized leg
/// under the watchdog `run_job` derives from that baseline. That
/// watchdog never trips, so the threaded tier runs those legs on its
/// unguarded superblock path. Each memoized leg therefore runs twice
/// more, on budgets that send a superblock through the guarded path:
/// half its dynamic count, which trips mid-leg inside memo work, and
/// one short of it, where only the last superblock's guard stops the
/// `halt` (so a budget check that admits one op too many completes the
/// run instead of tripping). The orchestrated report
/// of `blackscholes,sobel` renders the committed `fault_sweep_reduced`
/// golden (`fault_sweep --seed 7 --benches blackscholes,sobel --report
/// json`) byte for byte.
#[test]
fn reduced_fault_sweep_golden_diff_across_interpreters() {
    for pair in [["blackscholes", "sobel"], ["blackscholes", "fft"]] {
        let at = pair.join(",");
        let benches = pair.map(str::to_string).to_vec();
        let (matrix, metas) = sweep::matrix(7, &benches);
        let mut flipped = 0;
        for name in pair {
            let bench = benchmark_by_name(name).expect("registered");
            let b = bench.as_ref();
            let base_program = BaseProgram::build(b, Scale::Tiny);
            let (program, threaded) = memo_leg(&base_program, false);
            let memo_leg = Leg {
                program: &program,
                threaded: &threaded,
            };
            let inputs = b.setup(Scale::Tiny, Dataset::Eval);
            let base = assert_leg_agrees(
                &format!("{at}: {name} baseline"),
                &SimConfig::baseline(),
                &base_leg(&base_program),
                &inputs,
            );
            let base_insts = base.result.expect("tiny baseline succeeds").dynamic_insts;
            let watchdog = memo_watchdog(base_insts, u64::MAX);
            for job in matrix.jobs().iter().filter(|j| j.benchmark == name) {
                let cell = format!("{at}: {name} {}", job.label);
                let cfg = memo_sim_config(b, &job.memo, watchdog);
                let memo = assert_leg_agrees(&cell, &cfg, &memo_leg, &inputs);
                assert_memo_work(&cell, &memo);
                flipped += memo.unit.map_or(0, |(_, f, ..)| f.total_flips());
                let insts = memo.result.expect("memo leg succeeds").dynamic_insts;
                for limit in [insts / 2, insts - 1] {
                    let cut = assert_leg_agrees(
                        &format!("{cell} at max_insts {limit}"),
                        &memo_sim_config(b, &job.memo, limit),
                        &memo_leg,
                        &inputs,
                    );
                    assert_eq!(cut.result, Err(SimError::InstLimit { limit }), "{cell}");
                }
            }
        }
        assert!(flipped > 0, "{at}: no cell injected a fault");
        if at == "blackscholes,sobel" {
            let outcomes = Orchestrator::new(Scale::Tiny).jobs(2).run(&matrix);
            let report = sweep::table(Scale::Tiny, 7, &metas, &outcomes).render(ReportMode::Json);
            assert_eq!(
                format!("{report}\n"),
                include_str!("data/fault_sweep_reduced.golden.json"),
                "{at}: fault-sweep report drifted from its golden"
            );
        }
    }
}

/// Memory size of every random program's machine: one and a half
/// pages, so the top of memory lies inside a page.
const MEM_BYTES: u64 = (PAGE_BYTES + PAGE_BYTES / 2) as u64;
/// Random data operands live in `x1..=x12`; the registers below are
/// control state the generator never hands out as a destination.
const DATA_REGS: u64 = 12;
/// Base address well inside memory, 192 bytes below the first page
/// boundary: its offsets (-64..448) reach across that boundary, so
/// unaligned loads and stores straddle two pages.
const R_LO_BASE: u8 = 16;
const LO_BASE: u64 = PAGE_BYTES as u64 - 192;
/// Base address 16 bytes below the top of memory: small positive
/// offsets reach the last valid byte, larger ones run past it.
const R_HI_BASE: u8 = 17;
/// Loop counter and the iteration at which the loop's inner branch
/// flips direction.
const R_COUNT: u8 = 20;
const R_FLIP: u8 = 21;

const ALU_OPS: [IAluOp; 12] = [
    IAluOp::Add,
    IAluOp::Sub,
    IAluOp::Mul,
    IAluOp::And,
    IAluOp::Or,
    IAluOp::Xor,
    IAluOp::Shl,
    IAluOp::Shr,
    IAluOp::Sar,
    IAluOp::SltS,
    IAluOp::SltU,
    IAluOp::PackLo32,
];
const FBIN_OPS: [FBinOp; 7] = [
    FBinOp::Add,
    FBinOp::Sub,
    FBinOp::Mul,
    FBinOp::Div,
    FBinOp::Min,
    FBinOp::Max,
    FBinOp::CmpLt,
];
const FUN_OPS: [FUnOp; 11] = [
    FUnOp::Sqrt,
    FUnOp::Exp,
    FUnOp::Log,
    FUnOp::Sin,
    FUnOp::Cos,
    FUnOp::Atan,
    FUnOp::Neg,
    FUnOp::Abs,
    FUnOp::Floor,
    FUnOp::ToInt,
    FUnOp::FromInt,
];
const CONDS: [Cond; 8] = [
    Cond::Eq,
    Cond::Ne,
    Cond::LtS,
    Cond::GeS,
    Cond::LtU,
    Cond::GeU,
    Cond::FLt,
    Cond::FGe,
];
const WIDTHS: [MemWidth; 3] = [MemWidth::B1, MemWidth::B4, MemWidth::B8];

/// Seeded generator of straight-line code, counted loops and branches.
/// `hazards` programs may divide by an immediate zero and address past
/// the end of memory; every program can still divide by a register
/// that happens to hold zero.
struct ProgramGen {
    rng: SplitMix64,
    hazards: bool,
}

impl ProgramGen {
    fn data_reg(&mut self) -> u8 {
        1 + self.rng.below(DATA_REGS) as u8
    }

    fn value(&mut self) -> u64 {
        match self.rng.below(6) {
            0 => 0,
            1 => self.rng.below(16),
            2 => (self.rng.below(64) as i64 - 32) as u64,
            3 => u64::from((self.rng.f32() * 200.0 - 100.0).to_bits()),
            4 => u64::MAX - self.rng.below(4),
            _ => self.rng.next_u64(),
        }
    }

    fn operand(&mut self) -> Operand {
        if self.rng.bool() {
            Operand::Reg(self.data_reg())
        } else {
            Operand::Imm(self.value() as i64 >> self.rng.below(64))
        }
    }

    fn mem_access(&mut self) -> (MemWidth, u8, i32) {
        let width = WIDTHS[self.rng.index(WIDTHS.len())];
        if self.rng.below(3) == 0 {
            // Near the top: offsets up to `16 - width` stay in bounds,
            // hazard programs also reach up to 7 bytes past the end.
            let top = 16 - width.bytes() as i64 + if self.hazards { 8 } else { 1 };
            let offset = self.rng.below((top + 24) as u64) as i64 - 24;
            (width, R_HI_BASE, offset as i32)
        } else {
            (width, R_LO_BASE, self.rng.below(512) as i32 - 64)
        }
    }

    fn op(&mut self, b: &mut ProgramBuilder) {
        let rd = self.data_reg();
        let ra = self.data_reg();
        match self.rng.below(12) {
            0..=3 => {
                let op = ALU_OPS[self.rng.index(ALU_OPS.len())];
                let rb = self.operand();
                b.alu(op, rd, ra, rb);
            }
            4 => {
                let op = if self.rng.bool() {
                    IAluOp::Div
                } else {
                    IAluOp::Rem
                };
                let rb = match self.rng.below(8) {
                    0 if self.hazards => Operand::Imm(0),
                    0..=2 => Operand::Reg(self.data_reg()),
                    _ => Operand::Imm((self.rng.below(100) as i64 - 50) | 1),
                };
                b.alu(op, rd, ra, rb);
            }
            5 => {
                let op = FBIN_OPS[self.rng.index(FBIN_OPS.len())];
                let rb = self.data_reg();
                b.fbin(op, rd, ra, rb);
            }
            6 => {
                let op = FUN_OPS[self.rng.index(FUN_OPS.len())];
                b.fun(op, rd, ra);
            }
            7 | 8 => {
                let (width, base, offset) = self.mem_access();
                b.ld(width, rd, base, offset);
            }
            9 => {
                let (width, base, offset) = self.mem_access();
                b.st(width, ra, base, offset);
            }
            10 => {
                let v = self.value();
                b.movi(rd, v);
            }
            _ => {
                b.mov(rd, ra);
            }
        }
    }

    fn straight(&mut self, b: &mut ProgramBuilder, max_len: u64) {
        let region = self.rng.below(8) == 0;
        if region {
            b.region_begin(1);
        }
        for _ in 0..1 + self.rng.below(max_len) {
            self.op(b);
        }
        if region {
            b.region_end(1);
        }
    }

    /// `iters` iterations whose inner forward branch goes one way
    /// before iteration `flip` and the other way after it.
    fn counted_loop(&mut self, b: &mut ProgramBuilder) {
        let iters = 1 + self.rng.below(80);
        let flip = self.rng.below(iters + 1);
        b.movi(R_COUNT, 0).movi(R_FLIP, flip);
        let top = b.label("top");
        let skip = b.label("skip");
        b.bind(top);
        self.straight(b, 6);
        let cond = if self.rng.bool() {
            Cond::LtS
        } else {
            Cond::GeS
        };
        b.branch(cond, R_COUNT, Operand::Reg(R_FLIP), skip);
        self.straight(b, 4);
        b.bind(skip);
        b.alu(IAluOp::Add, R_COUNT, R_COUNT, Operand::Imm(1));
        b.branch(Cond::LtS, R_COUNT, Operand::Imm(iters as i64), top);
    }

    /// A data-dependent forward branch, optionally as an if/else.
    fn forward_branch(&mut self, b: &mut ProgramBuilder) {
        let skip = b.label("skip");
        let cond = CONDS[self.rng.index(CONDS.len())];
        let ra = self.data_reg();
        let rb = self.operand();
        b.branch(cond, ra, rb, skip);
        self.straight(b, 5);
        if self.rng.bool() {
            let join = b.label("join");
            b.jump(join);
            b.bind(skip);
            self.straight(b, 5);
            b.bind(join);
        } else {
            b.bind(skip);
        }
    }

    fn program(&mut self) -> Program {
        let mut b = ProgramBuilder::new();
        b.movi(R_LO_BASE, LO_BASE).movi(R_HI_BASE, MEM_BYTES - 16);
        for r in 1..=DATA_REGS as u8 {
            let v = self.value();
            b.movi(r, v);
        }
        for _ in 0..1 + self.rng.below(6) {
            match self.rng.below(4) {
                0 => self.straight(&mut b, 12),
                1 | 2 => self.counted_loop(&mut b),
                _ => self.forward_branch(&mut b),
            }
        }
        b.halt();
        b.build().expect("generated programs are well-formed")
    }
}

/// Seeded random programs — integer, multiply and divide ops (some by
/// zero), FP ops, loads and stores at and past the memory bound,
/// counted loops whose inner branch flips bias mid-run, data-dependent
/// branches, and on some programs a tight instruction limit, the
/// default instruction budget, or an instruction limit at the
/// program's exact dynamic count and one either side of it — must
/// produce the same `Result`, registers and memory on the threaded tier
/// as on the legacy loop.
#[test]
fn random_programs_match_legacy() {
    let mut outcomes = [0usize; 3]; // [completed, faulted, watchdog]
    for seed in 0..200u64 {
        let mut gen = ProgramGen {
            rng: SplitMix64::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D)),
            hazards: seed % 4 == 0,
        };
        let program = gen.program();
        let predictor = gen.rng.bool().then(PredictorConfig::default);
        let run = |reference: bool, max_insts: u64| {
            let mut sim = Simulator::new(SimConfig {
                max_insts,
                predictor,
                ..SimConfig::baseline()
            })
            .unwrap();
            let mut machine = Machine::new(MEM_BYTES as usize);
            let result = if reference {
                sim.run_reference(&program, &mut machine, None)
            } else {
                sim.run(&program, &mut machine)
            };
            (result, machine.regs, machine)
        };
        let limits = match gen.rng.below(8) {
            0..=3 => vec![gen.rng.below(400)],
            4 => vec![SimConfig::default().max_insts],
            // The unlimited run's exact count and one either side of it:
            // there the last superblock's budget check decides the trip.
            5 => match run(true, u64::MAX).0 {
                Ok(stats) => {
                    let n = stats.dynamic_insts;
                    vec![n - 1, n, n + 1]
                }
                Err(_) => vec![u64::MAX],
            },
            _ => vec![u64::MAX],
        };
        for max_insts in limits {
            let reference = run(true, max_insts);
            let threaded = run(false, max_insts);
            let at = format!("seed {seed}, max_insts {max_insts}");
            assert_eq!(threaded.0, reference.0, "{at}: result diverges");
            assert_eq!(threaded.1, reference.1, "{at}: registers diverge");
            assert!(threaded.2 == reference.2, "{at}: memory diverges");
            outcomes[match reference.0 {
                Ok(_) => 0,
                Err(SimError::InstLimit { .. }) => 2,
                Err(_) => 1,
            }] += 1;
        }
    }
    // The generator reaches every outcome class, with most programs
    // running to completion.
    assert!(outcomes[0] >= 100, "outcomes {outcomes:?}");
    assert!(
        outcomes[1] >= 10 && outcomes[2] >= 10,
        "outcomes {outcomes:?}"
    );
}
