//! End-to-end fault-injection properties:
//!
//! 1. The same fault seed reproduces bit-identical results (the whole
//!    injection pipeline is deterministic, so faulty runs are
//!    debuggable by replay).
//! 2. Output quality degrades monotonically as the flip rate rises, and
//!    the ECC-protected curve degrades strictly slower than the
//!    unprotected one at rates where faults actually land.
//! 3. The orchestrator's watchdog ceiling bounds a fault-free job too —
//!    the cycle budget is enforced end-to-end, not just in unit tests.

use axmemo_bench::orchestrator::{JobMatrix, JobSpec, Orchestrator};
use axmemo_core::config::MemoConfig;
use axmemo_core::faults::{FaultConfig, Protection};
use axmemo_workloads::runner::run_benchmark;
use axmemo_workloads::{benchmark_by_name, BenchmarkResult, Dataset, FailureKind, Scale};

fn faulty_config(seed: u64, flip_ppm: u32, protection: Protection) -> MemoConfig {
    MemoConfig {
        faults: FaultConfig::uniform(seed, flip_ppm, protection),
        ..MemoConfig::l1_only(8 * 1024)
    }
}

fn run_blackscholes(cfg: &MemoConfig) -> BenchmarkResult {
    let bench = benchmark_by_name("blackscholes").expect("registered");
    run_benchmark(bench.as_ref(), Scale::Tiny, Dataset::Eval, cfg).expect("tiny run succeeds")
}

fn digest(r: &BenchmarkResult) -> (u64, u64, u64, u64, u64) {
    (
        r.memo_stats.cycles,
        r.memo_stats.dynamic_insts,
        r.speedup.to_bits(),
        r.hit_rate.to_bits(),
        r.error.output_error.to_bits(),
    )
}

#[test]
fn same_seed_reproduces_identical_results() {
    let cfg = faulty_config(1234, 20_000, Protection::Unprotected);
    let a = run_blackscholes(&cfg);
    let b = run_blackscholes(&cfg);
    assert_eq!(digest(&a), digest(&b), "same seed must replay identically");

    // A different seed lands faults elsewhere: some observable metric
    // moves (at 2% per access this is overwhelmingly likely).
    let other = run_blackscholes(&faulty_config(99, 20_000, Protection::Unprotected));
    assert_ne!(
        digest(&a),
        digest(&other),
        "different seeds should perturb the run"
    );
}

#[test]
fn quality_degrades_monotonically_and_ecc_degrades_slower() {
    let rates = [0u32, 500, 5_000, 50_000];
    let mut unprotected = Vec::new();
    let mut protected = Vec::new();
    for &ppm in &rates {
        unprotected.push(run_blackscholes(&faulty_config(7, ppm, Protection::Unprotected)).error);
        protected.push(run_blackscholes(&faulty_config(7, ppm, Protection::EccProtected)).error);
    }

    for w in unprotected.windows(2) {
        assert!(
            w[1].output_error >= w[0].output_error,
            "unprotected error must not improve as the flip rate rises: {} -> {}",
            w[0].output_error,
            w[1].output_error
        );
    }
    for w in protected.windows(2) {
        assert!(
            w[1].output_error >= w[0].output_error,
            "protected error must not improve as the flip rate rises: {} -> {}",
            w[0].output_error,
            w[1].output_error
        );
    }
    // At the highest rate faults definitely landed; parity+SECDED must
    // be strictly better than silent corruption there.
    let last = rates.len() - 1;
    assert!(
        protected[last].output_error < unprotected[last].output_error,
        "ECC must degrade strictly slower: protected {} vs unprotected {}",
        protected[last].output_error,
        unprotected[last].output_error
    );
}

#[test]
fn supervised_watchdog_bounds_cycles_end_to_end() {
    let mut matrix = JobMatrix::new();
    matrix.push(JobSpec::new(
        "blackscholes",
        "L1 8K",
        MemoConfig::l1_only(8 * 1024),
    ));
    let outcomes = Orchestrator::new(Scale::Tiny).max_insts(500).run(&matrix);
    let failure = outcomes[0]
        .result
        .as_ref()
        .expect_err("500 instructions cannot finish blackscholes");
    assert_eq!(failure.kind, FailureKind::Watchdog);
    assert!(
        failure.message.contains("instruction limit 500"),
        "unexpected message: {}",
        failure.message
    );
}
