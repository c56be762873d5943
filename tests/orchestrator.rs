//! Integration tests for the sweep orchestrator: worker-count
//! determinism of the aggregated report, structured budget-exhaustion
//! failures, single-attempt fault storms, and per-job telemetry.

use axmemo_bench::orchestrator::{JobMatrix, JobSpec, Orchestrator};
use axmemo_bench::{sweep, BaselineCache, ReportMode};
use axmemo_core::config::MemoConfig;
use axmemo_core::faults::{FaultConfig, Protection, PPM};
use axmemo_telemetry::Telemetry;
use axmemo_workloads::{FailureKind, Scale};

/// The acceptance property for the whole PR: the aggregated fault-sweep
/// report is byte-identical between `--jobs 1` (serial path) and
/// `--jobs 4` (worker pool) for a fixed seed.
#[test]
fn sweep_report_is_identical_for_any_worker_count() {
    let benches = vec!["blackscholes".to_string()];
    let (matrix, metas) = sweep::matrix(7, &benches);
    assert_eq!(matrix.len(), metas.len());
    // 1 reference group + 3 domains × 2 protections × 3 rates.
    assert_eq!(matrix.len(), 19 * benches.len());

    let serial = Orchestrator::new(Scale::Tiny).jobs(1).run(&matrix);
    let pooled = Orchestrator::new(Scale::Tiny).jobs(4).run(&matrix);
    let a = sweep::table(Scale::Tiny, 7, &metas, &serial).render(ReportMode::Json);
    let b = sweep::table(Scale::Tiny, 7, &metas, &pooled).render(ReportMode::Json);
    assert_eq!(a, b, "report must not depend on the worker count");
    assert!(
        serial.iter().all(|o| o.result.is_ok()),
        "tiny-scale sweep cells all succeed"
    );
}

/// A job that always trips the cycle watchdog is reported as a
/// structured failure and the sweep itself completes. The simulator is
/// deterministic, so every job is attempted exactly once, with or
/// without faults configured.
#[test]
fn budget_exhaustion_is_a_structured_failure() {
    let mut matrix = JobMatrix::new();
    matrix.push(JobSpec::new(
        "blackscholes",
        "tight",
        MemoConfig::l1_only(4096),
    ));
    matrix.push(JobSpec::new(
        "blackscholes",
        "tight+faults",
        MemoConfig {
            faults: FaultConfig::uniform(1, 500, Default::default()),
            ..MemoConfig::l1_only(4096)
        },
    ));
    let outcomes = Orchestrator::new(Scale::Tiny)
        .jobs(2)
        .max_insts(1_000) // far below what even Tiny needs
        .run(&matrix);
    assert_eq!(outcomes.len(), 2);
    for outcome in &outcomes {
        let fail = outcome.result.as_ref().unwrap_err();
        assert_eq!(fail.kind, FailureKind::Watchdog);
        assert_eq!(outcome.attempts, 1, "{}", outcome.spec.label);
        assert!(!outcome.faults_cleared);
        assert_eq!(outcome.status(), "watchdog");
    }
}

/// LUT bit flips only ever perturb approximate state, so even a flip on
/// every tag and data access — both protections, every benchmark —
/// finishes inside the watchdog on its single attempt. Nothing the
/// repository injects can fail a run, which is why a job never retries.
#[test]
fn flip_storm_never_fails_a_job() {
    let mut matrix = JobMatrix::new();
    for protection in [Protection::Unprotected, Protection::EccProtected] {
        for bench in axmemo_workloads::all_benchmarks() {
            matrix.push(JobSpec::new(
                bench.meta().name,
                format!("storm {protection:?}"),
                MemoConfig {
                    faults: FaultConfig::uniform(1, PPM, protection),
                    ..MemoConfig::l1_only(4096)
                },
            ));
        }
    }
    assert_eq!(matrix.len(), 20);
    let outcomes = Orchestrator::new(Scale::Tiny).jobs(2).run(&matrix);
    for outcome in &outcomes {
        let label = format!("{}:{}", outcome.spec.benchmark, outcome.spec.label);
        assert!(outcome.result.is_ok(), "{label}: {:?}", outcome.result);
        assert_eq!(outcome.attempts, 1, "{label}");
        assert!(!outcome.faults_cleared, "{label}");
        assert_eq!(outcome.status(), "ok", "{label}");
    }
}

/// Regression (all-failed group summary): a group in which every cell
/// failed must render `-` for both statistics, not the empty-slice
/// `mean error 0.000e0, geomean speedup 0.00x` that reads like a
/// perfect group. Forced via a watchdog ceiling no benchmark can meet.
#[test]
fn all_failed_group_summary_renders_dashes() {
    let benches = vec!["blackscholes".to_string()];
    let (matrix, metas) = sweep::matrix(7, &benches);
    let outcomes = Orchestrator::new(Scale::Tiny)
        .max_insts(1_000) // below what any benchmark needs: every cell fails
        .run(&matrix);
    assert!(
        outcomes.iter().all(|o| o.result.is_err()),
        "forced watchdog"
    );
    let table = sweep::table(Scale::Tiny, 7, &metas, &outcomes);
    let text = table.render(ReportMode::Text);
    assert!(
        text.contains("mean error -, geomean speedup -, 1 failed"),
        "all-failed groups render dashes:\n{text}"
    );
    assert!(
        !text.contains("0.000e0") && !text.contains("0.00x"),
        "no zero statistics for failed groups:\n{text}"
    );
}

/// Regression (silent zip truncation): `sweep::table` must fail loudly
/// when cell metadata and outcomes disagree in length instead of
/// silently dropping rows from the report.
#[test]
#[should_panic(expected = "aligned index-for-index")]
fn mismatched_meta_and_outcome_lengths_panic() {
    let benches = vec!["blackscholes".to_string()];
    let (matrix, metas) = sweep::matrix(7, &benches);
    let mut outcomes = Orchestrator::new(Scale::Tiny).max_insts(1_000).run(&matrix);
    outcomes.pop(); // a future matrix edit that desyncs the two slices
    let _ = sweep::table(Scale::Tiny, 7, &metas, &outcomes);
}

/// Regression (failed-job spans): a failed job must not record a
/// zero-length `0..0` span — that would pollute span min/p50 statistics
/// — and is counted only via `orchestrator.jobs.failed`.
#[test]
fn failed_jobs_record_no_span() {
    let mut matrix = JobMatrix::new();
    matrix.push(JobSpec::new(
        "blackscholes",
        "L1 4K",
        MemoConfig::l1_only(4096),
    ));
    matrix.push(JobSpec::new("doom", "L1 4K", MemoConfig::l1_only(4096)));
    let mut tel = Telemetry::enabled();
    let outcomes =
        Orchestrator::new(Scale::Tiny).run_with_telemetry(&matrix, &BaselineCache::new(), &mut tel);
    assert!(outcomes[0].result.is_ok());
    assert!(outcomes[1].result.is_err());
    let spans = tel.spans();
    assert_eq!(spans.len(), 1, "only the successful job has a span");
    assert_eq!(spans[0].path, "job:blackscholes:L1 4K");
    assert!(spans[0].cycles() > 0);
    assert_eq!(tel.registry().counter("orchestrator.jobs.ok"), 1);
    assert_eq!(tel.registry().counter("orchestrator.jobs.failed"), 1);
}

/// `run_with_telemetry` records one span per job in job-index order and
/// the sweep counters.
#[test]
fn telemetry_spans_cover_each_job() {
    let mut matrix = JobMatrix::new();
    matrix.push(JobSpec::new(
        "blackscholes",
        "L1 4K",
        MemoConfig::l1_only(4096),
    ));
    matrix.push(JobSpec::new("sobel", "L1 4K", MemoConfig::l1_only(4096)));
    let mut tel = Telemetry::enabled();
    let outcomes = Orchestrator::new(Scale::Tiny).jobs(2).run_with_telemetry(
        &matrix,
        &BaselineCache::new(),
        &mut tel,
    );
    assert_eq!(outcomes.len(), 2);
    let spans = tel.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[0].path, "job:blackscholes:L1 4K");
    assert_eq!(spans[1].path, "job:sobel:L1 4K");
    assert_eq!(spans[0].cycles(), outcomes[0].sim_cycles);
    assert_eq!(tel.registry().counter("orchestrator.jobs.ok"), 2);
    assert_eq!(tel.registry().counter("orchestrator.jobs.failed"), 0);
}
