//! Cross-crate integration tests: the full path from workload program
//! through compiler codegen, simulator, memoization hardware, and the
//! metrics the figures report.

use axmemo_bench::{atm_outcome, collect_events, software_lut_outcome};
use axmemo_compiler::codegen::memoize;
use axmemo_core::config::MemoConfig;
use axmemo_core::ids::MAX_LUTS;
use axmemo_sim::cpu::{SimConfig, Simulator};
use axmemo_workloads::{all_benchmarks, benchmark_by_name, run_benchmark, Dataset, Scale};

/// Every benchmark runs end-to-end (baseline + memoized) at tiny scale
/// with the largest paper configuration, within the §5 error bounds.
#[test]
fn all_benchmarks_run_end_to_end_within_quality_bounds() {
    let cfg = MemoConfig::l1_l2(8 * 1024, 512 * 1024);
    for bench in all_benchmarks() {
        let r = run_benchmark(bench.as_ref(), Scale::Tiny, Dataset::Eval, &cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.meta().name));
        let bound = bench.meta().metric.bound().max(0.01);
        assert!(
            r.error.output_error <= bound * 5.0,
            "{}: error {} vs bound {}",
            bench.meta().name,
            r.error.output_error,
            bound
        );
        assert!(r.baseline_stats.cycles > 0);
        assert!(r.memo_stats.cycles > 0);
    }
}

/// Figure 7 shape: memoization helps the redundancy-rich benchmarks and
/// never catastrophically hurts the reuse-free one (jmeint).
#[test]
fn speedup_shape_matches_paper() {
    let cfg = MemoConfig::l1_l2(8 * 1024, 512 * 1024);
    let winners = ["blackscholes", "srad", "lavamd"];
    for name in winners {
        let b = benchmark_by_name(name).unwrap();
        let r = run_benchmark(b.as_ref(), Scale::Tiny, Dataset::Eval, &cfg).unwrap();
        assert!(r.speedup > 1.1, "{name}: speedup {}", r.speedup);
    }
    let jmeint = benchmark_by_name("jmeint").unwrap();
    let r = run_benchmark(jmeint.as_ref(), Scale::Tiny, Dataset::Eval, &cfg).unwrap();
    assert!(
        r.speedup > 0.85 && r.speedup < 1.1,
        "jmeint should be ~flat, got {}",
        r.speedup
    );
    assert!(r.hit_rate < 0.02, "jmeint hit rate {}", r.hit_rate);
}

/// Figure 9 shape: hit rate grows (weakly) with LUT capacity.
#[test]
fn hit_rate_monotone_in_lut_capacity() {
    let bench = benchmark_by_name("inversek2j").unwrap();
    let mut last = -1.0f64;
    for (name, cfg) in MemoConfig::paper_sweep() {
        let r = run_benchmark(bench.as_ref(), Scale::Tiny, Dataset::Eval, &cfg).unwrap();
        assert!(
            r.hit_rate >= last - 0.02,
            "{name}: hit rate dropped {last} -> {}",
            r.hit_rate
        );
        last = r.hit_rate;
    }
}

/// The memoized program must compute the same outputs as the baseline
/// when truncation is zero (exact memoization is semantically
/// transparent modulo quality sampling refreshes).
#[test]
fn exact_memoization_is_output_transparent_for_blackscholes() {
    // blackscholes has trunc 0 in Table 2 already.
    let bench = benchmark_by_name("blackscholes").unwrap();
    let cfg = MemoConfig::l1_l2(8 * 1024, 256 * 1024);
    let r = run_benchmark(bench.as_ref(), Scale::Tiny, Dataset::Eval, &cfg).unwrap();
    assert_eq!(
        r.error.output_error, 0.0,
        "exact memoization changed outputs"
    );
}

/// Software contenders replay the same event stream and produce
/// coherent statistics.
#[test]
fn contenders_replay_coherently() {
    let bench = benchmark_by_name("blackscholes").unwrap();
    let inputs = collect_events(bench.as_ref(), Scale::Tiny).unwrap();
    assert!(!inputs.events.is_empty());
    let sw = software_lut_outcome(&inputs);
    let atm = atm_outcome(&inputs);
    assert_eq!(sw.lookups, inputs.events.len() as u64);
    assert_eq!(atm.lookups, sw.lookups);
    assert!(sw.hits <= sw.lookups);
    // ATM samples only 8 bytes of the 24-byte tuple, so it can only
    // alias *more* (≥ hits of an exact-key scheme).
    assert!(atm.hits >= sw.hits.saturating_sub(1));
}

/// The L2 LUT partition genuinely shrinks the cache available to the
/// program (no free lunch).
#[test]
fn l2_partition_reserves_ways() {
    let cfg = SimConfig::with_memo(MemoConfig::l1_l2(8 * 1024, 512 * 1024));
    assert_eq!(cfg.reserved_l2_ways(), 8); // 512 KB of a 1 MB 16-way L2
    let cfg = SimConfig::with_memo(MemoConfig::l1_l2(8 * 1024, 256 * 1024));
    assert_eq!(cfg.reserved_l2_ways(), 4);
    let cfg = SimConfig::with_memo(MemoConfig::l1_only(8 * 1024));
    assert_eq!(cfg.reserved_l2_ways(), 0);
}

/// Codegen on every benchmark produces a structurally valid program
/// whose memoized run executes fewer dynamic instructions whenever the
/// workload has reuse.
#[test]
fn codegen_reduces_dynamic_instructions_on_reuse() {
    for name in ["blackscholes", "kmeans", "srad", "lavamd"] {
        let bench = benchmark_by_name(name).unwrap();
        let (program, specs) = bench.program(Scale::Tiny);
        let memoized = memoize(&program, &specs).unwrap();
        assert!(memoized.validate().is_ok());
        let cfg = MemoConfig {
            data_width: bench.data_width(),
            ..MemoConfig::l1_l2(8 * 1024, 512 * 1024)
        };
        let mut base = Simulator::new(SimConfig::baseline()).unwrap();
        let mut mb = bench.setup(Scale::Tiny, Dataset::Eval);
        let bs = base.run(&program, &mut mb).unwrap();
        let mut memo = Simulator::new(SimConfig::with_memo(cfg)).unwrap();
        let mut mm = bench.setup(Scale::Tiny, Dataset::Eval);
        let ms = memo.run(&memoized, &mut mm).unwrap();
        assert!(
            ms.dynamic_insts < bs.dynamic_insts,
            "{name}: {} !< {}",
            ms.dynamic_insts,
            bs.dynamic_insts
        );
    }
}

/// jpeg exposes two logical LUTs (its two memoized blocks); the unit's
/// lookup-event log must show both in use.
#[test]
fn jpeg_drives_two_logical_luts() {
    let bench = benchmark_by_name("jpeg").unwrap();
    let (program, specs) = bench.program(Scale::Tiny);
    assert_eq!(specs.len(), 2, "jpeg memoizes two blocks (Table 2)");
    let memoized = memoize(&program, &specs).unwrap();
    let cfg = MemoConfig {
        data_width: bench.data_width(),
        ..MemoConfig::l1_l2(8 * 1024, 256 * 1024)
    };
    let mut sim = Simulator::new(SimConfig::with_memo(cfg)).unwrap();
    sim.memo_unit_mut().unwrap().enable_event_log();
    let mut machine = bench.setup(Scale::Tiny, Dataset::Eval);
    sim.run(&memoized, &mut machine).unwrap();
    let mut lookups = [0u64; MAX_LUTS];
    for event in sim.memo_unit_mut().unwrap().take_event_log() {
        lookups[event.lut.index()] += 1;
    }
    assert!(lookups[0] > 0, "LUT0 unused");
    assert!(lookups[1] > 0, "LUT1 unused");
    // Pass B sees half as many invocations as pass A (two records in).
    assert!(
        lookups[0] >= 2 * lookups[1] - 2,
        "A {} vs B {}",
        lookups[0],
        lookups[1]
    );
    assert_eq!(lookups[2], 0, "LUT2 used");
}

/// Sample and evaluation datasets are genuinely different.
#[test]
fn datasets_are_disjoint() {
    let bench = benchmark_by_name("sobel").unwrap();
    let a = bench.setup(Scale::Tiny, Dataset::Sample);
    let b = bench.setup(Scale::Tiny, Dataset::Eval);
    assert_ne!(a, b, "sample and eval inputs must differ");
}
