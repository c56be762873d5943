//! Integration tests for baseline sharing: a sweep whose cells share one
//! cache gives the same results as cells that each simulate their own
//! baseline, at any worker count, while performing exactly one baseline
//! simulation per distinct benchmark (asserted via
//! `orchestrator.baseline.computed`); and the memoized-leg watchdog is
//! derived from measured baseline cycles.

use axmemo_bench::orchestrator::Orchestrator;
use axmemo_bench::{sweep, DispatchTier};
use axmemo_telemetry::Telemetry;
use axmemo_workloads::runner::{
    memo_watchdog, run_benchmark_report_cached, BaselineCache, RunOptions, WATCHDOG_FLOOR_CYCLES,
    WATCHDOG_MARGIN,
};
use axmemo_workloads::{benchmark_by_name, Dataset, Scale};

/// The reduced fault sweep on a shared cache reproduces, cell for cell,
/// the results of per-cell runs that each use a fresh cache — on the
/// serial path and on the worker pool — and the shared cache simulates
/// each distinct benchmark's baseline exactly once (not once per job).
#[test]
fn reduced_sweep_is_byte_identical_with_and_without_cache() {
    let benches = vec!["blackscholes".to_string(), "fft".to_string()];
    let (matrix, _) = sweep::matrix(7, &benches);
    assert_eq!(matrix.len(), 19 * benches.len());

    let per_cell: Vec<String> = matrix
        .jobs()
        .iter()
        .map(|job| {
            let bench = benchmark_by_name(&job.benchmark).expect("registered");
            let report = run_benchmark_report_cached(
                bench.as_ref(),
                Scale::Tiny,
                Dataset::Eval,
                &job.memo,
                RunOptions::default(),
                Telemetry::off(),
                None,
            )
            .expect("tiny cell succeeds");
            format!("{:?}", report.result)
        })
        .collect();

    for jobs in [1, 4] {
        let mut tel = Telemetry::enabled();
        let outcomes = Orchestrator::new(Scale::Tiny)
            .jobs(jobs)
            .run_with_telemetry(&matrix, &BaselineCache::new(), &mut tel);
        assert_eq!(outcomes.len(), per_cell.len());
        for (outcome, expected) in outcomes.iter().zip(&per_cell) {
            let cell = format!("{}:{}", outcome.spec.benchmark, outcome.spec.label);
            let result = outcome.result.as_ref().expect("tiny sweep cell succeeds");
            assert_eq!(outcome.attempts, 1, "--jobs {jobs} {cell}");
            assert_eq!(&format!("{result:?}"), expected, "--jobs {jobs} {cell}");
        }
        // Exactly one baseline simulation per distinct benchmark — not
        // per job — regardless of worker count; every other job reuses
        // it.
        let computed = tel.registry().counter("orchestrator.baseline.computed");
        let reused = tel.registry().counter("orchestrator.baseline.reused");
        assert_eq!(computed, benches.len() as u64, "--jobs {jobs}");
        assert_eq!(
            reused,
            (matrix.len() - benches.len()) as u64,
            "--jobs {jobs}"
        );
    }
}

/// Direct cache semantics: the first request computes, subsequent
/// requests (same key) reuse the same shared run; distinct keys get
/// their own computation.
#[test]
fn baseline_cache_computes_once_per_key() {
    let cache = BaselineCache::new();
    let bs = benchmark_by_name("blackscholes").unwrap();
    let sobel = benchmark_by_name("sobel").unwrap();

    let first = cache
        .get_or_compute(
            bs.as_ref(),
            Scale::Tiny,
            Dataset::Eval,
            u64::MAX,
            DispatchTier::Threaded,
        )
        .expect("tiny baseline succeeds");
    let second = cache
        .get_or_compute(
            bs.as_ref(),
            Scale::Tiny,
            Dataset::Eval,
            u64::MAX,
            DispatchTier::Threaded,
        )
        .expect("cached baseline succeeds");
    assert!(std::sync::Arc::ptr_eq(&first, &second), "same shared run");
    assert_eq!(cache.computed(), 1);
    assert_eq!(cache.reused(), 1);

    // A different scale is a different key.
    cache
        .get_or_compute(
            bs.as_ref(),
            Scale::Small,
            Dataset::Eval,
            u64::MAX,
            DispatchTier::Threaded,
        )
        .expect("small baseline succeeds");
    // A different benchmark is a different key.
    cache
        .get_or_compute(
            sobel.as_ref(),
            Scale::Tiny,
            Dataset::Eval,
            u64::MAX,
            DispatchTier::Threaded,
        )
        .expect("sobel baseline succeeds");
    assert_eq!(cache.computed(), 3);

    // The execution tier is part of the key: a legacy-loop request
    // simulates its own baseline instead of reusing the fast-path run
    // (they are bit-identical — the golden diffs prove it — but sharing
    // across interpreters would defeat those diffs).
    let legacy = cache
        .get_or_compute(
            bs.as_ref(),
            Scale::Tiny,
            Dataset::Eval,
            u64::MAX,
            DispatchTier::Legacy,
        )
        .expect("legacy baseline succeeds");
    assert!(!std::sync::Arc::ptr_eq(&first, &legacy), "distinct slot");
    assert_eq!(legacy.stats, first.stats, "bit-identical stats");
    assert!(first.stats.cycles > 0);
    assert_eq!(cache.computed(), 4);
}

/// A baseline that trips the watchdog is cached as a failure and shared:
/// one simulation, every sibling request receives the identical
/// structured failure.
#[test]
fn failed_baseline_is_cached_and_shared() {
    use axmemo_workloads::FailureKind;
    let cache = BaselineCache::new();
    let bs = benchmark_by_name("blackscholes").unwrap();
    let a = cache
        .get_or_compute(
            bs.as_ref(),
            Scale::Tiny,
            Dataset::Eval,
            1_000,
            DispatchTier::Threaded,
        )
        .unwrap_err();
    let b = cache
        .get_or_compute(
            bs.as_ref(),
            Scale::Tiny,
            Dataset::Eval,
            1_000,
            DispatchTier::Threaded,
        )
        .unwrap_err();
    assert_eq!(a.kind, FailureKind::Watchdog);
    assert_eq!(a.message, b.message);
    assert_eq!(cache.computed(), 1, "the failing run is simulated once");
    assert_eq!(cache.reused(), 1);
}

/// The derived per-benchmark watchdog is `margin × baseline` with a
/// floor, clamped to the ceiling.
#[test]
fn derived_budget_watchdog_math() {
    assert_eq!((WATCHDOG_MARGIN, WATCHDOG_FLOOR_CYCLES), (8, 1_000_000));
    // Small baselines sit on the floor.
    assert_eq!(memo_watchdog(10_000, u64::MAX), 1_000_000);
    // Large baselines scale by the margin.
    assert_eq!(memo_watchdog(10_000_000, u64::MAX), 80_000_000);
    // The ceiling always wins.
    assert_eq!(memo_watchdog(10_000_000, 5_000_000), 5_000_000);
    // Saturating: an absurd baseline must not overflow.
    assert_eq!(memo_watchdog(u64::MAX / 2, u64::MAX), u64::MAX);
}
