//! The threaded interpreter is an *optimisation*, never a semantic
//! change: these tests pin byte-identical results between the two
//! execution tiers — the legacy instruction-at-a-time loop (the
//! executable spec, selected through `RunOptions::dispatch`,
//! `SimConfig::dispatch` or `Orchestrator::dispatch`) and the threaded
//! superblock interpreter (the default and the only tier the binaries
//! run) — at the benchmark and sweep level (metrics, raw run
//! statistics, report JSON, CRC and LUT profile leaves, telemetry event
//! streams, the whole aggregated fault-sweep report) and on seeded
//! random programs. The threaded tier's outputs are pinned by the
//! figure goldens, so these tests carry the goldens to the spec.

use axmemo_bench::orchestrator::{merge_profiles, Orchestrator};
use axmemo_bench::{paper_configs, sweep, DispatchTier, ReportMode};
use axmemo_sim::cpu::{Machine, SimConfig, SimError, Simulator, PAGE_BYTES};
use axmemo_sim::ir::{Cond, FBinOp, FUnOp, IAluOp, MemWidth, Operand};
use axmemo_sim::predictor::PredictorConfig;
use axmemo_sim::{Program, ProgramBuilder};
use axmemo_telemetry::{event_to_json, Profile, RingBufferSink, Telemetry};
use axmemo_workloads::gen::SplitMix64;
use axmemo_workloads::runner::{run_benchmark_report_cached, RunOptions};
use axmemo_workloads::{all_benchmarks, Dataset, Scale};
use std::collections::BTreeMap;

/// Profile leaves by path, as (cycles, count).
type Leaves = BTreeMap<String, (u64, u64)>;

/// The `run;dispatch;crc.beat` and `run;dispatch;lut.*` leaves of
/// `profile`. Both tiers take memo-op timing from one owner
/// (`sim::memo`), so these must agree.
fn memo_leaves(profile: &Profile) -> Leaves {
    profile
        .phases
        .iter()
        .filter(|(path, _)| {
            *path == "run;dispatch;crc.beat" || path.starts_with("run;dispatch;lut.")
        })
        .map(|(path, stat)| (path.clone(), (stat.cycles, stat.count)))
        .collect()
}

/// Every registered benchmark at tiny scale under the four paper
/// configurations (Figs. 7–10), each with the benchmark's own
/// truncation and with none (`zero_trunc`, Fig. 11's exact leg):
/// identical baseline and memoized [`axmemo_sim::stats::RunStats`],
/// identical paper metrics and report JSON, identical CRC and LUT
/// profile leaves (cycles and counts), and an identical telemetry
/// event stream (every LUT probe, quality decision and span edge at
/// the same simulated cycle) on both interpreters.
#[test]
fn every_benchmark_is_bit_identical_across_interpreters() {
    let mut runs = 0;
    for bench in all_benchmarks() {
        let name = bench.meta().name;
        for (label, cfg) in paper_configs() {
            for zero_trunc in [false, true] {
                let at = format!("{name} {label} zero_trunc={zero_trunc}");
                let mut legs = Vec::new();
                for dispatch in DispatchTier::ALL {
                    let sink = RingBufferSink::new(4_000_000);
                    let mut tel = Telemetry::enabled();
                    tel.add_sink(Box::new(sink.clone()));
                    tel.profiler_mut().enable();
                    let opts = RunOptions {
                        zero_trunc,
                        dispatch,
                    };
                    let report = run_benchmark_report_cached(
                        bench.as_ref(),
                        Scale::Tiny,
                        Dataset::Eval,
                        &cfg,
                        opts,
                        tel,
                        None,
                    )
                    .unwrap_or_else(|e| panic!("{at} (dispatch={}): {e}", dispatch.name()));
                    assert_eq!(sink.dropped(), 0, "{at}: event stream truncated");
                    let events: Vec<String> = sink.events().iter().map(event_to_json).collect();
                    let profile = report.telemetry.take_profile().expect("profiling on");
                    legs.push((dispatch, report, events, memo_leaves(&profile)));
                }
                let (_, ref_report, ref_events, ref_leaves) = &legs[0];
                assert!(
                    ref_leaves.contains_key("run;dispatch;crc.beat") && ref_leaves.len() > 1,
                    "{at}: CRC and LUT leaves missing: {ref_leaves:?}"
                );
                for (tier, report, events, leaves) in &legs[1..] {
                    let t = tier.name();
                    assert_eq!(
                        report.result.baseline_stats, ref_report.result.baseline_stats,
                        "{at} ({t}): baseline stats diverge"
                    );
                    assert_eq!(
                        report.result.memo_stats, ref_report.result.memo_stats,
                        "{at} ({t}): memoized stats diverge"
                    );
                    assert_eq!(
                        report.result.error.output_error, ref_report.result.error.output_error,
                        "{at} ({t}): output error diverges"
                    );
                    assert_eq!(
                        report.result.hit_rate, ref_report.result.hit_rate,
                        "{at} ({t}): hit rate diverges"
                    );
                    assert_eq!(
                        report.to_json(),
                        ref_report.to_json(),
                        "{at} ({t}): report JSON diverges"
                    );
                    assert_eq!(
                        leaves, ref_leaves,
                        "{at} ({t}): CRC/LUT profile leaves diverge"
                    );
                    assert_eq!(
                        events.len(),
                        ref_events.len(),
                        "{at} ({t}): event counts diverge"
                    );
                    for (i, (got, want)) in events.iter().zip(ref_events).enumerate() {
                        assert_eq!(got, want, "{at} ({t}): event {i} diverges");
                    }
                }
                runs += legs.len();
            }
        }
    }
    assert_eq!(runs, 160);
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

    let run = |dispatch: DispatchTier| {
        let cfg = SimConfig {
            dispatch,
            ..SimConfig::baseline()
        };
        let mut sim = Simulator::new(cfg).unwrap();
        let mut machine = Machine::new(64 * 1024);
        let stats = sim.run(&program, &mut machine).unwrap();
        (stats, machine)
    };
    let reference = run(DispatchTier::Legacy);
    assert_eq!(run(DispatchTier::Threaded), reference);
    // Sanity: both phases actually executed.
    assert_eq!(reference.1.regs[1], 1200);
    assert_ne!(reference.1.regs[3], 0);
}

/// The reduced fault sweep — fault injection, watchdogs,
/// shared baselines and all — with the profiler on, over two benchmark
/// pairs: on every execution tier each pair renders the same JSON
/// report and the same merged CRC and LUT profile leaves, and
/// `blackscholes,sobel` renders the committed `fault_sweep_reduced`
/// golden (`fault_sweep --seed 7 --benches blackscholes,sobel --report
/// json`) byte for byte.
#[test]
fn reduced_fault_sweep_golden_diff_across_interpreters() {
    for pair in [["blackscholes", "sobel"], ["blackscholes", "fft"]] {
        let at = pair.join(",");
        let benches = pair.map(str::to_string).to_vec();
        let (matrix, metas) = sweep::matrix(7, &benches);
        let legs: Vec<(DispatchTier, String, Leaves)> = DispatchTier::ALL
            .into_iter()
            .map(|tier| {
                let outcomes = Orchestrator::new(Scale::Tiny)
                    .jobs(2)
                    .dispatch(tier)
                    .profile(true)
                    .run(&matrix);
                let report =
                    sweep::table(Scale::Tiny, 7, &metas, &outcomes).render(ReportMode::Json);
                let profile = merge_profiles(&outcomes).expect("profiling on");
                (tier, report, memo_leaves(&profile))
            })
            .collect();
        let (_, ref_report, ref_leaves) = &legs[0];
        assert!(
            ref_leaves.contains_key("run;dispatch;crc.beat") && ref_leaves.len() > 1,
            "{at}: CRC and LUT leaves missing: {ref_leaves:?}"
        );
        for (tier, report, leaves) in &legs[1..] {
            let t = tier.name();
            assert_eq!(
                report, ref_report,
                "{at} ({t}): fault-sweep report diverges"
            );
            assert_eq!(
                leaves, ref_leaves,
                "{at} ({t}): CRC/LUT profile leaves diverge"
            );
        }
        if at == "blackscholes,sobel" {
            assert_eq!(
                format!("{ref_report}\n"),
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
/// branches, and on some programs a tight instruction or cycle limit,
/// the default instruction budget, or an instruction limit at the
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
        let run = |dispatch: DispatchTier, max_insts: u64, max_cycles: u64| {
            let mut sim = Simulator::new(SimConfig {
                dispatch,
                max_insts,
                max_cycles,
                predictor,
                ..SimConfig::baseline()
            })
            .unwrap();
            let mut machine = Machine::new(MEM_BYTES as usize);
            let result = sim.run(&program, &mut machine);
            (result, machine.regs, machine)
        };
        let limits = match gen.rng.below(8) {
            0..=1 => vec![(gen.rng.below(400), u64::MAX)],
            2..=3 => vec![(u64::MAX, gen.rng.below(1500))],
            4 => vec![(SimConfig::default().max_insts, u64::MAX)],
            // The unlimited run's exact count and one either side of it:
            // there the last superblock's budget check decides the trip.
            5 => match run(DispatchTier::Legacy, u64::MAX, u64::MAX).0 {
                Ok(stats) => {
                    let n = stats.dynamic_insts;
                    vec![(n - 1, u64::MAX), (n, u64::MAX), (n + 1, u64::MAX)]
                }
                Err(_) => vec![(u64::MAX, u64::MAX)],
            },
            _ => vec![(u64::MAX, u64::MAX)],
        };
        for (max_insts, max_cycles) in limits {
            let reference = run(DispatchTier::Legacy, max_insts, max_cycles);
            let threaded = run(DispatchTier::Threaded, max_insts, max_cycles);
            let at = format!("seed {seed}, max_insts {max_insts}, max_cycles {max_cycles}");
            assert_eq!(threaded.0, reference.0, "{at}: result diverges");
            assert_eq!(threaded.1, reference.1, "{at}: registers diverge");
            assert!(threaded.2 == reference.2, "{at}: memory diverges");
            outcomes[match reference.0 {
                Ok(_) => 0,
                Err(SimError::InstLimit { .. } | SimError::CycleLimit { .. }) => 2,
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
