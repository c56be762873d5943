//! The ten evaluated benchmarks (Table 2).
//!
//! Register conventions shared by the drivers:
//! * `r1` — loop counter, `r2` — element count, `r3` — input base,
//!   `r4` — output base, `r5`–`r9` — address temps,
//! * `r10`–`r19` — kernel inputs, `r20`–`r29` — kernel temps,
//! * the region's (packed) output register is named in its
//!   [`axmemo_compiler::RegionSpec`].

pub mod blackscholes;
pub mod fft;
pub mod hotspot;
pub mod inversek2j;
pub mod jmeint;
pub mod jpeg;
pub mod kmeans;
pub mod lavamd;
pub mod sobel;
pub mod srad;

use axmemo_sim::cpu::Machine;

/// Write one generated input array from `addr` on, in one bulk store.
pub(crate) fn store_f32s(machine: &mut Machine, addr: u64, values: &[f32]) {
    machine
        .store_f32s(addr, values)
        .expect("benchmark inputs fit in memory");
}

/// The `n` f32s from `addr` on, in one bulk load.
pub(crate) fn load_f32s(machine: &Machine, addr: u64, n: usize) -> Vec<f32> {
    machine
        .load_f32s(addr, n)
        .expect("benchmark arrays lie in memory")
}

/// The pixels of a row-major `d × d` image off its one-pixel border,
/// in row-major order, as f64s.
pub(crate) fn interior(image: &[f32], d: usize) -> Vec<f64> {
    image
        .chunks_exact(d)
        .take(d - 1)
        .skip(1)
        .flat_map(|row| &row[1..d - 1])
        .map(|&v| f64::from(v))
        .collect()
}

/// [`load_f32s`], widened to the f64s outputs are compared in.
pub(crate) fn load_f64s(machine: &Machine, addr: u64, n: usize) -> Vec<f64> {
    load_f32s(machine, addr, n)
        .into_iter()
        .map(f64::from)
        .collect()
}

#[cfg(test)]
pub(crate) mod test_support {
    use crate::{Benchmark, Dataset, Scale};
    use axmemo_compiler::codegen::memoize;
    use axmemo_core::config::MemoConfig;
    use axmemo_sim::cpu::{SimConfig, Simulator};

    /// Run the baseline program and cross-check against the golden Rust
    /// implementation.
    pub fn check_golden(bench: &dyn Benchmark, rel_tol: f64) {
        let (program, _) = bench.program(Scale::Tiny);
        let mut machine = bench.setup(Scale::Tiny, Dataset::Eval);
        let golden = bench.golden(&machine, Scale::Tiny);
        let mut sim = Simulator::new(SimConfig::baseline()).unwrap();
        sim.run(&program, &mut machine).unwrap();
        let got = bench.outputs(&machine, Scale::Tiny);
        assert_eq!(golden.len(), got.len(), "output length");
        assert!(!golden.is_empty());
        for (i, (g, o)) in golden.iter().zip(&got).enumerate() {
            let denom = g.abs().max(1e-6);
            assert!(
                (g - o).abs() / denom <= rel_tol,
                "{}: output {i} golden {g} vs ir {o}",
                bench.meta().name
            );
        }
    }

    /// Run the memoized program with exact hashing (trunc as specified)
    /// and check outputs stay close to the baseline, hits occur for
    /// redundant workloads, and the run completes.
    pub fn check_memoized(bench: &dyn Benchmark, max_error: f64) -> f64 {
        let (program, specs) = bench.program(Scale::Tiny);
        let memoized = memoize(&program, &specs).unwrap();
        let cfg = MemoConfig {
            data_width: bench.data_width(),
            ..MemoConfig::l1_l2(8 * 1024, 256 * 1024)
        };

        let mut base_machine = bench.setup(Scale::Tiny, Dataset::Eval);
        let mut sim = Simulator::new(SimConfig::baseline()).unwrap();
        sim.run(&program, &mut base_machine).unwrap();
        let exact = bench.outputs(&base_machine, Scale::Tiny);

        let mut memo_machine = bench.setup(Scale::Tiny, Dataset::Eval);
        let mut msim = Simulator::new(SimConfig::with_memo(cfg)).unwrap();
        msim.run(&memoized, &mut memo_machine).unwrap();
        let approx = bench.outputs(&memo_machine, Scale::Tiny);

        let err = crate::runner::compute_error(bench.meta().metric, &exact, &approx);
        assert!(
            err.output_error <= max_error,
            "{}: error {} > {max_error}",
            bench.meta().name,
            err.output_error
        );
        msim.memo_unit().unwrap().lut().total_hit_rate()
    }
}
