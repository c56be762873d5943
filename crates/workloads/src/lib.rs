//! # axmemo-workloads
//!
//! The ten benchmarks the AxMemo paper evaluates (Table 2): seven from
//! AxBench (blackscholes, fft, inversek2j, jmeint, jpeg, kmeans, sobel)
//! and three from Rodinia (hotspot, lavamd, srad). The original C
//! sources and their datasets are not redistributable here, so each
//! kernel is re-implemented twice:
//!
//! * a **golden** pure-Rust implementation (the correctness oracle), and
//! * an **IR program** for `axmemo-sim`, annotated with region markers
//!   and [`RegionSpec`]s so `axmemo-compiler` can produce the memoized
//!   binary.
//!
//! Datasets are synthetic; each generator is parameterised to mimic the
//! redundancy structure of the suite's inputs (documented per module in
//! [`gen`]). Sample and evaluation datasets are disjoint (different
//! seeds), matching §5.
//!
//! ```
//! use axmemo_workloads::{all_benchmarks, Dataset, Scale};
//!
//! for b in all_benchmarks() {
//!     let (program, specs) = b.program(Scale::Tiny);
//!     assert!(program.validate().is_ok(), "{}", b.meta().name);
//!     assert!(!specs.is_empty());
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod benchmarks;
pub mod gen;
pub mod meta;
pub mod runner;

pub use meta::{Metric, WorkloadMeta};
pub use runner::{
    run_benchmark, run_benchmark_report_snap, run_job, BaselineCache, BaselineRun, BenchmarkResult,
    CachedFailure, FailureKind, PreparedProgram, RunFailure, RunOptions, SnapshotPlan,
    SupervisedRun,
};

use axmemo_compiler::RegionSpec;
use axmemo_core::config::DataWidth;
use axmemo_sim::cpu::Machine;
use axmemo_sim::ir::Program;

/// Problem-size scale. The paper's full datasets (e.g. 200K options,
/// 512×512 images) make sweep experiments slow in a software simulator;
/// the scales shrink element counts while preserving redundancy
/// structure (the hit-rate-relevant property).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Unit-test size (hundreds of kernel invocations).
    Tiny,
    /// Experiment default (tens of thousands of invocations).
    Small,
    /// Closest to the paper's dataset sizes.
    Full,
}

/// Which dataset to generate. Sample and Eval use disjoint seeds (§5:
/// "the sample input set and evaluation input set are disjoint").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Profiling/compiler-analysis inputs.
    Sample,
    /// Evaluation inputs.
    Eval,
}

impl Dataset {
    /// Seed for this dataset (workloads add their own offsets).
    pub fn seed(self) -> u64 {
        match self {
            Dataset::Sample => 0x5A5A_1111,
            Dataset::Eval => 0xE7A1_2222,
        }
    }
}

/// A benchmark: golden implementation + IR program + dataset generator.
pub trait Benchmark: std::fmt::Debug + Sync {
    /// Table 2 metadata.
    fn meta(&self) -> WorkloadMeta;

    /// The baseline IR program (with region markers) and the region
    /// specs the compiler uses to memoize it.
    fn program(&self, scale: Scale) -> (Program, Vec<RegionSpec>);

    /// A machine with the dataset written into memory.
    fn setup(&self, scale: Scale, dataset: Dataset) -> Machine;

    /// Read the output vector from a finished machine (for Equation 2 /
    /// misclassification metrics).
    fn outputs(&self, machine: &Machine, scale: Scale) -> Vec<f64>;

    /// Golden pure-Rust implementation: reads the inputs from `machine`
    /// memory and returns the exact output vector. Used to cross-check
    /// the IR program.
    fn golden(&self, machine: &Machine, scale: Scale) -> Vec<f64>;

    /// LUT data width this benchmark needs (8-byte for packed
    /// two-output kernels).
    fn data_width(&self) -> DataWidth {
        DataWidth::W4
    }
}

/// All ten benchmarks, in Table 2 order.
pub fn all_benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(benchmarks::blackscholes::Blackscholes),
        Box::new(benchmarks::fft::Fft),
        Box::new(benchmarks::inversek2j::Inversek2j),
        Box::new(benchmarks::jmeint::Jmeint),
        Box::new(benchmarks::jpeg::Jpeg),
        Box::new(benchmarks::kmeans::Kmeans),
        Box::new(benchmarks::sobel::Sobel),
        Box::new(benchmarks::hotspot::Hotspot),
        Box::new(benchmarks::lavamd::LavaMd),
        Box::new(benchmarks::srad::Srad),
    ]
}

/// Look up one benchmark by name.
pub fn benchmark_by_name(name: &str) -> Option<Box<dyn Benchmark>> {
    all_benchmarks()
        .into_iter()
        .find(|b| b.meta().name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_ten_benchmarks() {
        assert_eq!(all_benchmarks().len(), 10);
    }

    #[test]
    fn lookup_by_name() {
        assert!(benchmark_by_name("blackscholes").is_some());
        assert!(benchmark_by_name("SOBEL").is_some());
        assert!(benchmark_by_name("doom").is_none());
    }

    #[test]
    fn dataset_seeds_are_disjoint() {
        assert_ne!(Dataset::Sample.seed(), Dataset::Eval.seed());
    }
}
