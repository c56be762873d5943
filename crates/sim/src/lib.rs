//! # axmemo-sim
//!
//! Cycle-approximate processor simulator for the AxMemo reproduction.
//!
//! The paper evaluates AxMemo in gem5's ARM "high-performance in-order"
//! (HPI) model. This crate substitutes a trace-driven, 2-issue in-order
//! scoreboard model with the Table 3 functional-unit mix, an L1D/L2/DRAM
//! cache hierarchy (with L2 way-partitioning for the L2 LUT), and an
//! energy model seeded from the paper's Table 5 plus McPAT-class core
//! constants. Programs are written in a compact RISC-style IR ([`ir`])
//! via an assembler-like builder ([`builder`]); the five AxMemo ISA
//! extensions are first-class IR instructions wired to a per-core
//! [`axmemo_core::MemoizationUnit`].
//!
//! The reproduction targets *ratios* (speedup, energy reduction,
//! dynamic-instruction reduction) between runs of the same model, not
//! absolute gem5 cycle counts.
//!
//! ## Execution tiers
//!
//! The simulator has two interpreters that produce **bit-identical**
//! observables (statistics, machine state, errors, telemetry events)
//! and differ only in host-side speed. Which one runs is chosen by the
//! method called, not by a setting:
//!
//! | Entry point | Module | Strategy |
//! |---|---|---|
//! | [`Simulator::run`](cpu::Simulator::run), [`Simulator::run_prepared_threaded`](cpu::Simulator::run_prepared_threaded) | [`threaded`] | fuse basic blocks into superblocks; dispatch per chain. Every production run |
//! | [`Simulator::run_reference`](cpu::Simulator::run_reference) | [`cpu`] | the legacy loop: decode each [`ir::Inst`] at every dynamic execution. The executable spec, tests only, and the only trace-sink path |
//!
//! Lowering is staged: [`ir::Program`] →
//! [`DecodedProgram::compile`](decoded::DecodedProgram::compile) (the
//! block CFG: registers checked, basic blocks and superblock chains
//! found once) →
//! [`ThreadedProgram::compile`](threaded::ThreadedProgram::compile)
//! (each chain lowered straight from its [`ir::Inst`]s into fused ops).
//! The threaded form can be shared across simulators and threads:
//!
//! ```
//! use axmemo_sim::cpu::{Machine, SimConfig, Simulator};
//! use axmemo_sim::{DecodedProgram, ProgramBuilder, ThreadedProgram};
//!
//! let mut b = ProgramBuilder::new();
//! b.movi(1, 6).movi(2, 7);
//! b.alu(axmemo_sim::ir::IAluOp::Mul, 3, 1, axmemo_sim::ir::Operand::Reg(2));
//! b.halt();
//! let program = b.build()?;
//!
//! let config = SimConfig::baseline();
//! let decoded = DecodedProgram::compile(&program, &config.latency);
//! let threaded = ThreadedProgram::compile(&decoded);
//!
//! let mut fast_sim = Simulator::new(config.clone())?;
//! let mut spec_sim = Simulator::new(config)?;
//! let mut m1 = Machine::new(4096);
//! let mut m2 = Machine::new(4096);
//! let fast = fast_sim.run_prepared_threaded(&threaded, &mut m1)?;
//! let spec = spec_sim.run_reference(&program, &mut m2, None)?;
//! assert_eq!(fast, spec);
//! assert_eq!(m1, m2);
//! assert_eq!(m1.regs[3], 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use axmemo_core::MemoConfig;
//! use axmemo_sim::builder::ProgramBuilder;
//! use axmemo_sim::cpu::{Machine, SimConfig, Simulator};
//!
//! let mut b = ProgramBuilder::new();
//! b.movi(1, 2).movi(2, 3);
//! b.alu(axmemo_sim::ir::IAluOp::Add, 3, 1, axmemo_sim::ir::Operand::Reg(2));
//! b.halt();
//! let program = b.build()?;
//!
//! let mut sim = Simulator::new(SimConfig::with_memo(MemoConfig::l1_only(8192)))?;
//! let mut machine = Machine::new(4096);
//! let stats = sim.run(&program, &mut machine)?;
//! assert_eq!(machine.regs[3], 5);
//! assert!(stats.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod cache;
pub mod cpu;
pub mod decoded;
pub mod energy;
pub mod ir;
pub mod memo;
pub mod pipeline;
pub mod predictor;
pub mod stats;
pub mod threaded;

pub use builder::ProgramBuilder;
pub use cpu::{DispatchTier, Machine, SimConfig, SimError, Simulator, TraceSink};
pub use decoded::{DecodedProgram, Superblock};
pub use energy::EnergyModel;
pub use ir::{Inst, Program};
pub use stats::RunStats;
pub use threaded::ThreadedProgram;
