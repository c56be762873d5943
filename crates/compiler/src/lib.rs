//! # axmemo-compiler
//!
//! The compiler half of the AxMemo hardware-compiler co-design (§5 of
//! the paper): dynamic trace capture, dynamic data dependence graph
//! (DDDG) construction, candidate-subgraph search by compute-to-input
//! ratio, truncation-bit selection by error-bound profiling, and code
//! generation that rewrites region-annotated programs into their
//! memoized form.
//!
//! The paper's workflow uses LLVM-Tracer and ALADDIN over LLVM IR; this
//! crate applies the same algorithms to the `axmemo-sim` IR:
//!
//! 1. [`trace`] — run the program on a *sample* input set and record the
//!    dynamic instruction stream.
//! 2. [`dddg`] — build the weighted dependence graph.
//! 3. [`candidates`] — search for AxMemo-transformable subgraphs with
//!    high CI_Ratio, dedup structurally, prune subsets (Table 1).
//! 4. [`truncation`] — select per-input truncation bits under the output
//!    error bound (0.1%, or 1% for images).
//! 5. [`codegen`] — insert the five AxMemo instructions and the skip
//!    branch (Fig. 1) into the program.
//!
//! ```
//! use axmemo_compiler::{dddg::Dddg, candidates, trace::TraceCapture};
//! use axmemo_sim::pipeline::LatencyModel;
//! # use axmemo_sim::{builder::ProgramBuilder, cpu::{Machine, SimConfig, Simulator}};
//! # let mut b = ProgramBuilder::new();
//! # b.movf(1, 2.0);
//! # b.fun(axmemo_sim::ir::FUnOp::Exp, 2, 1);
//! # b.fbin(axmemo_sim::ir::FBinOp::Mul, 3, 2, 2);
//! # b.fbin(axmemo_sim::ir::FBinOp::Add, 4, 3, 2);
//! # b.halt();
//! # let program = b.build().unwrap();
//! # let mut sim = Simulator::new(SimConfig::baseline()).unwrap();
//! # let mut machine = Machine::new(64);
//! let mut cap = TraceCapture::new();
//! sim.run_reference(&program, &mut machine, Some(&mut cap)).unwrap();
//! let graph = Dddg::from_trace(cap.events(), &LatencyModel::default());
//! let summary = candidates::analyze(&graph, &candidates::SearchConfig::default());
//! assert!(summary.coverage <= 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod candidates;
pub mod codegen;
pub mod dddg;
pub mod report;
pub mod trace;
pub mod truncation;

pub use candidates::{analyze, AnalysisSummary, SearchConfig};
pub use codegen::{memoize, InputLoad, RegInput, RegionSpec};
pub use dddg::Dddg;
pub use report::CompilationReport;
pub use trace::TraceCapture;
pub use truncation::{output_error, select_truncation};
