//! Integration tests for baseline sharing: a sweep whose cells share one
//! cache gives the same results as cells that each simulate their own
//! baseline, at any worker count, while performing exactly one baseline
//! simulation per distinct benchmark (asserted via
//! `orchestrator.baseline.computed`); warm and cold runs share slots
//! without a restore leaking into a cold run; compile and `setup`
//! failures are cached like baseline failures; every leg on one cache
//! runs on one input image per key; and the memoized-leg watchdog is
//! derived from the measured baseline instruction count.

use std::sync::atomic::{AtomicU64, Ordering};

use axmemo_bench::orchestrator::Orchestrator;
use axmemo_bench::{collect_events_cached, sweep};
use axmemo_compiler::codegen::CodegenError;
use axmemo_compiler::RegionSpec;
use axmemo_core::config::MemoConfig;
use axmemo_core::snapshot::RecoveryOutcome;
use axmemo_sim::cpu::{DispatchTier, Machine, SimConfig};
use axmemo_sim::Program;
use axmemo_telemetry::Telemetry;
use axmemo_workloads::runner::{
    memo_watchdog, run_benchmark_report_cached, run_benchmark_report_snap, run_job, BaselineCache,
    RunOptions, RunReport, SnapshotPlan, WATCHDOG_FLOOR_INSTS, WATCHDOG_MARGIN,
};
use axmemo_workloads::{benchmark_by_name, Benchmark, Dataset, FailureKind, Scale, WorkloadMeta};

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
        .baseline(bs.as_ref(), Scale::Tiny, Dataset::Eval, u64::MAX)
        .expect("tiny baseline succeeds");
    assert!(first.stats.cycles > 0);
    // The ledger-shaped entry point ignores its tier argument and
    // serves the same slot.
    let second = cache
        .get_or_compute(
            bs.as_ref(),
            Scale::Tiny,
            Dataset::Eval,
            u64::MAX,
            DispatchTier::default(),
        )
        .expect("cached baseline succeeds");
    assert!(std::sync::Arc::ptr_eq(&first, &second), "same shared run");
    assert_eq!(cache.computed(), 1);
    assert_eq!(cache.reused(), 1);

    // `warm` is not part of the key: no restore can reach the baseline
    // core, so a warm request is served the cold run.
    let warm = cache
        .get_or_compute_keyed(
            bs.as_ref(),
            Scale::Tiny,
            Dataset::Eval,
            u64::MAX,
            DispatchTier::default(),
            true,
        )
        .expect("cached baseline succeeds");
    assert!(
        std::sync::Arc::ptr_eq(&first, &warm),
        "warm shares the slot"
    );
    assert_eq!(cache.computed(), 1);
    assert_eq!(cache.reused(), 2);

    // A different scale is a different key.
    cache
        .baseline(bs.as_ref(), Scale::Small, Dataset::Eval, u64::MAX)
        .expect("small baseline succeeds");
    // A different benchmark is a different key.
    cache
        .baseline(sobel.as_ref(), Scale::Tiny, Dataset::Eval, u64::MAX)
        .expect("sobel baseline succeeds");
    assert_eq!(cache.computed(), 3);
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
        .baseline(bs.as_ref(), Scale::Tiny, Dataset::Eval, 1_000)
        .unwrap_err();
    let b = cache
        .baseline(bs.as_ref(), Scale::Tiny, Dataset::Eval, 1_000)
        .unwrap_err();
    assert_eq!(a.kind, FailureKind::Watchdog);
    assert_eq!(a.message, b.message);
    assert_eq!(cache.computed(), 1, "the failing run is simulated once");
    assert_eq!(cache.reused(), 1);
}

/// What a [`RunReport`] says about its run: the paper metrics with both
/// legs' `RunStats`, the unit and per-level LUT statistics, the
/// registry's counters and the recovery account.
type RunFields = (
    axmemo_workloads::BenchmarkResult,
    axmemo_core::unit::UnitStats,
    [axmemo_core::lut::LutStats; 2],
    Vec<(&'static str, u64)>,
    Option<axmemo_core::snapshot::RecoveryReport>,
);

fn run_fields(r: &RunReport) -> RunFields {
    (
        r.result.clone(),
        r.unit_stats,
        [r.l1_lut, r.l2_lut],
        r.telemetry.registry().counters().collect(),
        r.recovery.clone(),
    )
}

/// A run restored from a snapshot and a later cold run share one cache:
/// the cold run reports exactly what a cold run on a fresh cache does,
/// so the restore reached neither the shared baseline nor the shared
/// program.
#[test]
fn warm_run_leaves_shared_cold_run_unchanged() {
    let fft = benchmark_by_name("fft").unwrap();
    let memo = MemoConfig::l1_only(8 * 1024);
    let cold = |cache: &BaselineCache| {
        let report = run_benchmark_report_cached(
            fft.as_ref(),
            Scale::Tiny,
            Dataset::Eval,
            &memo,
            RunOptions::default(),
            Telemetry::enabled(),
            Some(cache),
        )
        .expect("cold run");
        run_fields(&report)
    };
    let snap = |cache: &BaselineCache, plan: &SnapshotPlan| {
        run_benchmark_report_snap(
            fft.as_ref(),
            Scale::Tiny,
            Dataset::Eval,
            &memo,
            RunOptions::default(),
            Telemetry::off(),
            Some(cache),
            plan,
        )
        .expect("snapshot run")
    };
    let reference = cold(&BaselineCache::new());

    let dir = std::env::temp_dir().join(format!("axmemo-cachetest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("fft.axmsnap");
    let write = SnapshotPlan {
        snapshot_out: Some(path.clone()),
        ..SnapshotPlan::default()
    };
    snap(&BaselineCache::new(), &write);

    let shared = BaselineCache::new();
    let restore = SnapshotPlan {
        restore_from: Some(path),
        ..SnapshotPlan::default()
    };
    let warm = snap(&shared, &restore);
    let rec = warm.recovery.expect("restore reported");
    assert_eq!(rec.outcome, RecoveryOutcome::Restored);
    assert!(rec.entries_restored() > 0, "test premise: warm entries");
    assert_eq!(cold(&shared), reference);
    assert_eq!((shared.computed(), shared.reused()), (1, 1));
    assert_eq!(shared.programs_compiled(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a [`Wrapped`] benchmark changes about blackscholes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Nothing.
    None,
    /// Its region spec names a region the program has no markers for,
    /// so codegen fails.
    MisplacedSpec,
    /// `setup` panics.
    PanickingSetup,
}

/// blackscholes behind a wrapper that counts its `program` and `setup`
/// calls and can inject one [`Fault`].
#[derive(Debug)]
struct Wrapped {
    inner: Box<dyn Benchmark>,
    fault: Fault,
    programs: AtomicU64,
    setups: AtomicU64,
}

impl Wrapped {
    fn new(fault: Fault) -> Self {
        Self {
            inner: benchmark_by_name("blackscholes").unwrap(),
            fault,
            programs: AtomicU64::new(0),
            setups: AtomicU64::new(0),
        }
    }

    fn programs(&self) -> u64 {
        self.programs.load(Ordering::Relaxed)
    }

    fn setups(&self) -> u64 {
        self.setups.load(Ordering::Relaxed)
    }
}

impl Benchmark for Wrapped {
    fn meta(&self) -> WorkloadMeta {
        let name = match self.fault {
            Fault::None => "wrapped",
            Fault::MisplacedSpec => "misplaced_spec",
            Fault::PanickingSetup => "panicking_setup",
        };
        WorkloadMeta {
            name,
            ..self.inner.meta()
        }
    }
    fn program(&self, scale: Scale) -> (Program, Vec<RegionSpec>) {
        self.programs.fetch_add(1, Ordering::Relaxed);
        let (program, mut specs) = self.inner.program(scale);
        if self.fault == Fault::MisplacedSpec {
            specs[0].region = 99;
        }
        (program, specs)
    }
    fn setup(&self, scale: Scale, dataset: Dataset) -> Machine {
        self.setups.fetch_add(1, Ordering::Relaxed);
        assert!(self.fault != Fault::PanickingSetup, "synthetic setup bug");
        self.inner.setup(scale, dataset)
    }
    fn outputs(&self, machine: &Machine, scale: Scale) -> Vec<f64> {
        self.inner.outputs(machine, scale)
    }
    fn golden(&self, machine: &Machine, scale: Scale) -> Vec<f64> {
        self.inner.golden(machine, scale)
    }
}

/// With one cache, `Benchmark::setup` runs once per `(benchmark,
/// scale, dataset)`: a baseline, four memoized legs, the contender
/// event recording and a supervised job all run on copies of one input
/// image, and after all of them that image still equals a fresh
/// `setup`.
#[test]
fn inputs_are_generated_once_per_key() {
    let bench = Wrapped::new(Fault::None);
    let cache = BaselineCache::new();
    let (scale, dataset) = (Scale::Tiny, Dataset::Eval);
    cache.baseline(&bench, scale, dataset, u64::MAX).unwrap();
    for (_, memo) in MemoConfig::paper_sweep() {
        let opts = RunOptions::default();
        let tel = Telemetry::off();
        run_benchmark_report_cached(&bench, scale, dataset, &memo, opts, tel, Some(&cache))
            .unwrap();
    }
    collect_events_cached(&bench, scale, Some(&cache)).unwrap();
    let memo = MemoConfig::l1_only(4 * 1024);
    run_job(
        &bench,
        scale,
        &memo,
        u64::MAX,
        &cache,
        &mut Telemetry::off(),
    )
    .unwrap();
    assert_eq!(bench.setups(), 1);
    assert_eq!((cache.inputs_generated(), cache.inputs_reused()), (1, 6));

    // Another dataset is another key.
    cache.inputs(&bench, scale, Dataset::Sample).unwrap();
    assert_eq!(bench.setups(), 2);

    let image = cache.inputs(&bench, scale, dataset).unwrap();
    assert_eq!(
        *image,
        bench.setup(scale, dataset),
        "no leg wrote the image"
    );
}

/// One benchmark run with both truncation choices (Fig. 11's pair)
/// through one cache builds and lowers its baseline leg once: the
/// baseline program is built once per `(benchmark, scale)`, and the
/// exact memoized leg compiles from that same build. Only the memoized
/// legs are compiled per truncation.
#[test]
fn baseline_leg_is_built_once_for_both_truncations() {
    let bench = Wrapped::new(Fault::None);
    let cache = BaselineCache::new();
    let memo = MemoConfig::l1_only(4 * 1024);
    let run = |zero_trunc: bool| {
        let opts = RunOptions { zero_trunc };
        run_benchmark_report_cached(
            &bench,
            Scale::Tiny,
            Dataset::Eval,
            &memo,
            opts,
            Telemetry::off(),
            Some(&cache),
        )
        .expect("tiny run")
        .result
    };
    let (approx, exact) = (run(false), run(true));
    assert_eq!(bench.programs(), 1, "one baseline build for both legs");
    assert_eq!(cache.programs_compiled(), 2, "one memoized leg each");
    assert_eq!((cache.computed(), cache.reused()), (1, 1));
    assert_eq!(approx.baseline_stats, exact.baseline_stats);
}

/// A panicking `setup` becomes a cached failure of the input slot: it
/// runs once, and the baseline and a supervised job both carry it.
#[test]
fn panicking_setup_is_a_cached_failure() {
    let bench = Wrapped::new(Fault::PanickingSetup);
    let cache = BaselineCache::new();
    for _ in 0..2 {
        let err = cache
            .baseline(&bench, Scale::Tiny, Dataset::Eval, u64::MAX)
            .unwrap_err();
        assert_eq!(err.kind, FailureKind::Panic);
        assert!(err.message.contains("synthetic setup bug"), "{err}");
    }
    let memo = MemoConfig::l1_only(4 * 1024);
    let fail = run_job(
        &bench,
        Scale::Tiny,
        &memo,
        u64::MAX,
        &cache,
        &mut Telemetry::off(),
    )
    .unwrap_err();
    assert_eq!(fail.kind, FailureKind::Panic);
    assert_eq!(bench.setups(), 1);
}

/// A codegen failure is compiled once and cached: every later request
/// gets the same error, and a supervised job on the benchmark fails
/// with a structured `Error`, not a panic.
#[test]
fn codegen_failure_is_cached_and_structured() {
    let bench = Wrapped::new(Fault::MisplacedSpec);
    let memo = MemoConfig::l1_only(4 * 1024);
    let expected = CodegenError::RegionNotFound(99).to_string();
    let cache = BaselineCache::new();
    for _ in 0..2 {
        let err = run_benchmark_report_cached(
            &bench,
            Scale::Tiny,
            Dataset::Eval,
            &memo,
            RunOptions::default(),
            Telemetry::off(),
            Some(&cache),
        )
        .unwrap_err();
        assert!(err.to_string().contains(&expected), "{err}");
    }
    assert_eq!(cache.programs_compiled(), 1);

    let fail = run_job(
        &bench,
        Scale::Tiny,
        &memo,
        u64::MAX,
        &cache,
        &mut Telemetry::off(),
    )
    .unwrap_err();
    assert_eq!(fail.kind, FailureKind::Error);
    assert_eq!(fail.benchmark, "misplaced_spec");
    assert!(fail.message.contains(&expected), "{}", fail.message);
    assert_eq!(cache.programs_compiled(), 1, "the job reuses the failure");
}

/// The derived per-benchmark watchdog is `margin × baseline
/// instructions` with a floor, clamped to the ceiling and to the
/// simulator's default instruction budget.
#[test]
fn derived_budget_watchdog_math() {
    assert_eq!((WATCHDOG_MARGIN, WATCHDOG_FLOOR_INSTS), (8, 1_000_000));
    // Small baselines sit on the floor.
    assert_eq!(memo_watchdog(10_000, u64::MAX), 1_000_000);
    // Large baselines scale by the margin.
    assert_eq!(memo_watchdog(10_000_000, u64::MAX), 80_000_000);
    // The ceiling always wins.
    assert_eq!(memo_watchdog(10_000_000, 5_000_000), 5_000_000);
    // Saturating: an absurd baseline must not overflow, and no budget
    // exceeds the default runaway guard.
    let default = SimConfig::default().max_insts;
    assert_eq!(memo_watchdog(u64::MAX / 2, u64::MAX), default);
    assert_eq!(memo_watchdog(default, default + 1), default);
}
