//! Parallel sweep orchestration: a zero-dependency `std::thread` worker
//! pool that runs a declarative (benchmark × config) job matrix through
//! the supervised runner and aggregates results in **deterministic
//! job-index order**, regardless of which worker finishes first.
//!
//! Every figure/sweep binary used to walk its matrix serially on one
//! thread; the orchestrator keeps that behaviour available bit-for-bit
//! (`jobs = 1` takes a plain serial path) while letting `--jobs N`
//! saturate the host. Determinism comes from two properties:
//!
//! 1. Each job is fully self-contained: the simulator, fault-injection
//!    streams, and datasets are all seeded from the job's own
//!    [`JobSpec`], never from shared mutable state, so a job computes
//!    the same [`runner::BenchmarkResult`] on any worker at any time.
//! 2. Results are written into an index-addressed slot table and read
//!    back in index order, so aggregation (tables, telemetry spans,
//!    summaries) never observes completion order.
//!
//! Every job of a run shares one [`BaselineCache`], so each distinct
//! benchmark's fault-free baseline is simulated once per sweep. Error
//! vectors are shared the same way: as each job finishes, its
//! element-wise errors are replaced by an earlier job's when the two are
//! bit-identical (a flip that never reaches an output leaves the cell's
//! errors equal to the fault-free cell's), so a run holds each distinct
//! vector once.
//!
//! Failures never sink a sweep: each job runs through
//! [`runner::run_job`], which catches panics, bounds the memoized leg
//! with an instruction watchdog derived from the measured baseline
//! (capped by [`Orchestrator::max_insts`]), and makes one attempt. The simulator
//! is deterministic, so a retry would fail identically; a job that
//! fails is reported as a structured [`RunFailure`] row next to its
//! successful siblings.
//!
//! ```
//! use axmemo_bench::orchestrator::{JobMatrix, JobSpec, Orchestrator};
//! use axmemo_core::config::MemoConfig;
//! use axmemo_workloads::Scale;
//!
//! let mut matrix = JobMatrix::new();
//! matrix.push(JobSpec::new("blackscholes", "L1 4K", MemoConfig::l1_only(4 * 1024)));
//! let outcomes = Orchestrator::new(Scale::Tiny).jobs(2).run(&matrix);
//! assert_eq!(outcomes.len(), 1);
//! assert!(outcomes[0].result.is_ok());
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use axmemo_core::config::MemoConfig;
use axmemo_telemetry::{Profile, Telemetry};
use axmemo_workloads::runner::{BaselineCache, ErrorVec, RunFailure};
use axmemo_workloads::{benchmark_by_name, runner, FailureKind, Scale};

/// Deterministic-order parallel map: evaluate `f(0..count)` on up to
/// `jobs` worker threads and return the results **in index order**,
/// regardless of completion order. `jobs <= 1` runs serially on the
/// calling thread, which reproduces single-threaded behaviour exactly
/// (same thread, same evaluation order).
///
/// Workers claim indices from a shared atomic cursor (work-stealing by
/// construction: a worker that finishes early immediately claims the
/// next unstarted index, so one slow job cannot idle the pool).
pub fn parallel_map<T, F>(jobs: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || count <= 1 {
        return (0..count).map(f).collect();
    }
    let workers = jobs.min(count);
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..count).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let value = f(index);
                slots.lock().expect("result slots poisoned")[index] = Some(value);
            });
        }
    });
    slots
        .into_inner()
        .expect("result slots poisoned")
        .into_iter()
        .map(|slot| slot.expect("every index was claimed exactly once"))
        .collect()
}

/// One cell of a sweep matrix: which benchmark to run under which
/// memoization-unit configuration (the [`MemoConfig`] carries the LUT
/// geometry *and* the fault-injection config, including its seed).
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Registered benchmark name (see `axmemo_workloads::all_benchmarks`).
    pub benchmark: String,
    /// Human-readable configuration label, used in tables, telemetry
    /// span names, and progress lines.
    pub label: String,
    /// Complete memoization-unit configuration for this cell.
    pub memo: MemoConfig,
}

impl JobSpec {
    /// New job for `benchmark` under `memo`, labelled `label`.
    pub fn new(benchmark: impl Into<String>, label: impl Into<String>, memo: MemoConfig) -> Self {
        Self {
            benchmark: benchmark.into(),
            label: label.into(),
            memo,
        }
    }
}

/// A declarative job matrix: an ordered list of [`JobSpec`]s. The order
/// jobs are pushed is the order results are aggregated in, so a matrix
/// defines its report layout once, independent of scheduling.
#[derive(Debug, Clone, Default)]
pub struct JobMatrix {
    jobs: Vec<JobSpec>,
}

impl JobMatrix {
    /// Empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one job; returns `&mut self` for chaining.
    pub fn push(&mut self, spec: JobSpec) -> &mut Self {
        self.jobs.push(spec);
        self
    }

    /// Cross product convenience: one job per (config × benchmark) pair,
    /// configs outermost (matching how the figure tables group rows).
    pub fn product(&mut self, benchmarks: &[&str], configs: &[(String, MemoConfig)]) -> &mut Self {
        for (label, memo) in configs {
            for bench in benchmarks {
                self.push(JobSpec::new(*bench, label.clone(), memo.clone()));
            }
        }
        self
    }

    /// Jobs in aggregation order.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// Result of one orchestrated job, in the slot of its matrix index.
#[derive(Debug)]
pub struct JobOutcome {
    /// Index of this job in the [`JobMatrix`].
    pub index: usize,
    /// The job that ran.
    pub spec: JobSpec,
    /// Attempts made: always 1 (a job never retries). Kept because
    /// `ledger/` (the benchmark) reads and digests it.
    pub attempts: u32,
    /// Whether the result came from a run with fault injection
    /// cleared: always `false` (faults are never cleared). Kept because
    /// `ledger/` (the benchmark) reads and digests it.
    pub faults_cleared: bool,
    /// Simulated cycles of the successful memoized run (0 on failure);
    /// used to key the per-job telemetry span.
    pub sim_cycles: u64,
    /// Wall-clock milliseconds this job spent in the runner. Reflects
    /// host load, so it feeds only the text report's per-group totals —
    /// never the deterministic JSON output.
    pub wall_ms: u64,
    /// The paper metrics, or a structured failure that names the
    /// failure class.
    pub result: Result<runner::BenchmarkResult, RunFailure>,
    /// Cycle-attribution profile of the successful run, when the
    /// orchestrator ran with [`Orchestrator::profile`] on. Always
    /// `None` on failure and when profiling is off. Merge outcomes in
    /// index order ([`merge_profiles`]) for the deterministic sweep
    /// aggregate.
    pub profile: Option<Profile>,
}

impl JobOutcome {
    /// One-word status for tables/progress: `ok`, or the failure kind.
    pub fn status(&self) -> &'static str {
        match &self.result {
            Ok(_) => "ok",
            Err(f) => match f.kind {
                FailureKind::Panic => "panic",
                FailureKind::Watchdog => "watchdog",
                FailureKind::Error => "error",
            },
        }
    }
}

/// The sweep orchestrator: scale selection, worker count, and the
/// watchdog ceiling shared by every job in a run.
///
/// Construct with [`Orchestrator::new`], adjust with the builder
/// methods, then call [`Orchestrator::run`] (or
/// [`Orchestrator::run_with_telemetry`] to also record per-job spans
/// and sweep counters into a [`Telemetry`] handle).
#[derive(Debug, Clone)]
pub struct Orchestrator {
    scale: Scale,
    jobs: usize,
    max_insts: u64,
    progress: bool,
    profile: bool,
}

impl Orchestrator {
    /// Orchestrator for `scale` (jobs run on the evaluation dataset): serial
    /// (`jobs = 1`), no watchdog ceiling, progress lines off.
    /// Kept in this shape because `ledger/` (the benchmark) calls it.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            jobs: 1,
            max_insts: u64::MAX,
            progress: false,
            profile: false,
        }
    }

    /// Set the worker count (clamped to ≥ 1). `1` reproduces serial
    /// behaviour bit-for-bit.
    /// Kept in this shape because `ledger/` (the benchmark) calls it.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Cap every simulation at `max_insts` dynamic instructions
    /// (default: the simulator's own budget). The ceiling bounds the
    /// shared baseline run and clamps each job's derived memoized-leg
    /// watchdog ([`axmemo_workloads::runner::memo_watchdog`]); tests use
    /// it to force watchdog trips.
    pub fn max_insts(mut self, max_insts: u64) -> Self {
        self.max_insts = max_insts;
        self
    }

    /// Emit a progress line to stderr as each job completes. Progress
    /// reflects completion order and is *not* part of the deterministic
    /// report (stdout).
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Collect a cycle-attribution profile for every job (default:
    /// off). Each job records into its own profiler — failed runs
    /// are discarded by the job runner — so the per-job profiles,
    /// and any index-order merge of them, are identical for every
    /// worker count. Profiling rides an otherwise-disabled telemetry
    /// handle: the job's event streams, counters, and report bytes are
    /// unchanged.
    /// Kept in this shape because `ledger/` (the benchmark) calls it.
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Run every job in `matrix` and return outcomes in job-index
    /// order. Individual job failures are captured as [`RunFailure`]
    /// values, never propagated — a sweep always yields exactly
    /// `matrix.len()` outcomes.
    pub fn run(&self, matrix: &JobMatrix) -> Vec<JobOutcome> {
        self.run_in(matrix, &BaselineCache::new())
    }

    /// [`Orchestrator::run`] plus the sweep's [`BaselineCache`], whose
    /// counters outlive the run for reporting and tests. Always `Some`;
    /// the `Option` stays because `ledger/` (the benchmark) calls this
    /// shape.
    pub fn run_inner(&self, matrix: &JobMatrix) -> (Vec<JobOutcome>, Option<BaselineCache>) {
        let cache = BaselineCache::new();
        (self.run_in(matrix, &cache), Some(cache))
    }

    fn run_in(&self, matrix: &JobMatrix, cache: &BaselineCache) -> Vec<JobOutcome> {
        let total = matrix.len();
        let done = AtomicUsize::new(0);
        let errors = ErrorTable::default();
        let run_one = |index: usize| -> JobOutcome {
            let spec = matrix.jobs()[index].clone();
            let mut outcome = self.run_job(index, spec, cache);
            if let Ok(result) = &mut outcome.result {
                errors.intern(&mut result.error.elementwise);
            }
            if self.progress {
                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!(
                    "[{finished}/{total}] {:<8} {} {}",
                    outcome.status(),
                    outcome.spec.benchmark,
                    outcome.spec.label,
                );
            }
            outcome
        };
        parallel_map(self.jobs, total, run_one)
    }

    /// [`Orchestrator::run`] with baselines and compiled programs from
    /// `cache` (shared with the caller's other runs), then record the
    /// sweep into `tel` in job-index order: one
    /// `job:<benchmark>:<label>` span per *successful* job (covering
    /// its simulated memoized-run cycles; a failed job has no simulated
    /// cycle count to span, so failures are counted only via
    /// `orchestrator.jobs.failed`), the `orchestrator.jobs.{ok,failed}`
    /// counters, and `cache`'s `orchestrator.baseline.{computed,reused}`
    /// counters.
    ///
    /// Span paths treat `/` as a hierarchy separator, so any `/` in the
    /// label is rewritten to `|` to keep the whole name on one path
    /// segment (the text report prints only the leaf segment).
    pub fn run_with_telemetry(
        &self,
        matrix: &JobMatrix,
        cache: &BaselineCache,
        tel: &mut Telemetry,
    ) -> Vec<JobOutcome> {
        let outcomes = self.run_in(matrix, cache);
        for outcome in &outcomes {
            match outcome.result {
                Ok(_) => {
                    let label = outcome.spec.label.replace('/', "|");
                    tel.record_span(
                        &format!("job:{}:{}", outcome.spec.benchmark, label),
                        0,
                        outcome.sim_cycles,
                    );
                    tel.count("orchestrator.jobs.ok", 1);
                }
                Err(_) => tel.count("orchestrator.jobs.failed", 1),
            }
        }
        tel.count("orchestrator.baseline.computed", cache.computed());
        tel.count("orchestrator.baseline.reused", cache.reused());
        outcomes
    }

    fn run_job(&self, index: usize, spec: JobSpec, cache: &BaselineCache) -> JobOutcome {
        let started = std::time::Instant::now();
        // Per-job telemetry: a disabled handle (events/counters/spans
        // off) that carries the profiler when profiling is requested.
        let mut tel = Telemetry::off();
        if self.profile {
            tel.profiler_mut().enable();
        }
        let result = match benchmark_by_name(&spec.benchmark) {
            Some(bench) => runner::run_job(
                bench.as_ref(),
                self.scale,
                &spec.memo,
                self.max_insts,
                cache,
                &mut tel,
            ),
            None => Err(RunFailure {
                benchmark: spec.benchmark.clone(),
                kind: FailureKind::Error,
                message: format!("unknown benchmark {:?}", spec.benchmark),
            }),
        };
        JobOutcome {
            index,
            attempts: 1,
            faults_cleared: false,
            sim_cycles: result.as_ref().map_or(0, |r| r.memo_stats.cycles),
            wall_ms: round_ms(started.elapsed()),
            profile: result.as_ref().ok().and_then(|_| tel.take_profile()),
            result,
            spec,
        }
    }
}

/// The distinct error vectors of one [`Orchestrator::run`], keyed by
/// [`error_hash`]. Jobs intern as they finish, so a duplicate is freed
/// while the sweep still runs rather than at its end.
#[derive(Debug, Default)]
struct ErrorTable(Mutex<HashMap<u64, Vec<ErrorVec>>>);

impl ErrorTable {
    /// Point `errors` at the stored vector bit-identical to it, or store
    /// it as the first of its kind.
    fn intern(&self, errors: &mut ErrorVec) {
        let hash = error_hash(errors);
        let mut table = self.0.lock().expect("error table poisoned");
        let bucket = table.entry(hash).or_default();
        match bucket.iter().find(|stored| bit_identical(stored, errors)) {
            Some(stored) => *errors = stored.clone(),
            None => bucket.push(errors.clone()),
        }
    }
}

/// FNV-1a over the length and every element's bits, one 64-bit word at
/// a time.
fn error_hash(errors: &[f64]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let words = std::iter::once(errors.len() as u64).chain(errors.iter().map(|x| x.to_bits()));
    for word in words {
        hash = (hash ^ word).wrapping_mul(PRIME);
    }
    hash
}

/// Equal length and equal bits in every element (`-0.0` and `0.0`
/// differ; a NaN equals only the same NaN).
fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `d` in whole milliseconds, rounded to the nearest. Truncating would
/// drop half a millisecond per job on average, which a sweep of
/// sub-millisecond jobs sums into most of its reported tail.
fn round_ms(d: std::time::Duration) -> u64 {
    ((d.as_micros() + 500) / 1000) as u64
}

/// Merge per-job profiles into the sweep aggregate, **in job-index
/// order** (outcomes come back index-ordered from the orchestrator, so
/// iterating them as returned is exactly that). Profile merging is
/// element-wise addition keyed by phase path — associative and
/// commutative — so the aggregate is byte-identical for any worker
/// count; the fixed order makes the block-table tie-breaking
/// deterministic too. Returns `None` when no job produced a profile
/// (profiling off, or every job failed).
pub fn merge_profiles(outcomes: &[JobOutcome]) -> Option<Profile> {
    let mut merged: Option<Profile> = None;
    for outcome in outcomes {
        let Some(profile) = &outcome.profile else {
            continue;
        };
        match &mut merged {
            Some(m) => m.merge(profile),
            None => merged = Some(profile.clone()),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReportMode;

    #[test]
    fn job_wall_time_rounds_to_nearest_ms() {
        use std::time::Duration;
        let ms = |us| round_ms(Duration::from_micros(us));
        assert_eq!(
            [ms(0), ms(499), ms(500), ms(1499), ms(1500)],
            [0, 0, 1, 1, 2]
        );
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        // Early indices sleep longest, so completion order is the
        // reverse of index order under real parallelism.
        let out = parallel_map(4, 8, |i| {
            std::thread::sleep(std::time::Duration::from_millis(2 * (8 - i as u64)));
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn parallel_map_serial_path_matches() {
        let serial = parallel_map(1, 16, |i| i as u64 * 3);
        let parallel = parallel_map(4, 16, |i| i as u64 * 3);
        assert_eq!(serial, parallel);
        assert!(parallel_map(4, 0, |i| i).is_empty());
    }

    #[test]
    fn matrix_product_orders_configs_outermost() {
        let mut m = JobMatrix::new();
        m.product(
            &["a", "b"],
            &[
                ("c0".to_string(), MemoConfig::l1_only(4096)),
                ("c1".to_string(), MemoConfig::l1_only(8192)),
            ],
        );
        let order: Vec<(String, String)> = m
            .jobs()
            .iter()
            .map(|j| (j.label.clone(), j.benchmark.clone()))
            .collect();
        assert_eq!(
            order,
            [("c0", "a"), ("c0", "b"), ("c1", "a"), ("c1", "b")]
                .map(|(l, b)| (l.to_string(), b.to_string()))
        );
        assert_eq!(m.len(), 4);
        assert!(!m.is_empty());
    }

    #[test]
    fn profiles_merge_identically_for_any_worker_count() {
        let mut m = JobMatrix::new();
        m.product(
            &["blackscholes", "fft"],
            &[
                ("L1 4K".to_string(), MemoConfig::l1_only(4096)),
                ("L1+L2".to_string(), MemoConfig::l1_l2(4096, 64 * 1024)),
            ],
        );
        let run = |jobs: usize| {
            let outcomes = Orchestrator::new(Scale::Tiny)
                .jobs(jobs)
                .profile(true)
                .run(&m);
            assert!(outcomes.iter().all(|o| o.result.is_ok()));
            assert!(outcomes.iter().all(|o| o.profile.is_some()));
            merge_profiles(&outcomes).expect("profiles collected")
        };
        let serial = run(1);
        let parallel = run(4);
        // Merge is associative and element-wise, and failed runs
        // are discarded per-job, so the aggregate is byte-identical
        // regardless of scheduling.
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(serial.render_folded(), parallel.render_folded());
        // The memoized path is broken into the attribution phases.
        let folded = serial.render_folded();
        for phase in [
            "run;dispatch ",
            "run;dispatch;crc.beat ",
            "run;dispatch;lut.l1.search ",
            "run;dispatch;lut.l2.probe ",
            "run;dispatch;lut.update ",
            "run;dispatch;quality.monitor ",
        ] {
            assert!(folded.contains(phase), "missing {phase:?} in:\n{folded}");
        }
        // Profiling off yields no profile at all.
        let off = Orchestrator::new(Scale::Tiny).jobs(1).run(&m);
        assert!(off.iter().all(|o| o.profile.is_none()));
        assert!(merge_profiles(&off).is_none());
    }

    #[test]
    fn parallel_map_clamps_workers_to_item_count() {
        use std::collections::HashSet;
        // 8 requested workers but only 2 items: at most 2 worker
        // threads may ever touch the closure (work-stealing can let one
        // worker claim both items, hence <=, not ==).
        let ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let out = parallel_map(8, 2, |i| {
            ids.lock()
                .expect("id set poisoned")
                .insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(5));
            i * 2
        });
        assert_eq!(out, vec![0, 2]);
        let distinct = ids.lock().expect("id set poisoned").len();
        assert!(distinct <= 2, "spawned {distinct} workers for 2 items");
    }

    #[test]
    fn unknown_benchmark_is_a_structured_failure() {
        let mut m = JobMatrix::new();
        m.push(JobSpec::new("doom", "L1", MemoConfig::l1_only(4096)));
        let outcomes = Orchestrator::new(Scale::Tiny).run(&m);
        assert_eq!(outcomes.len(), 1);
        let fail = outcomes[0].result.as_ref().unwrap_err();
        assert_eq!(fail.kind, FailureKind::Error);
        assert!(fail.message.contains("doom"));
        assert_eq!(outcomes[0].status(), "error");
    }

    #[test]
    fn bit_identical_error_vectors_share_storage() {
        let benches = ["blackscholes", "sobel"].map(str::to_string);
        let (matrix, metas) = crate::sweep::matrix(7, &benches);
        let error_vecs = |outcomes: &[JobOutcome]| -> Vec<Option<ErrorVec>> {
            outcomes
                .iter()
                .map(|o| o.result.as_ref().ok().map(|r| r.error.elementwise.clone()))
                .collect()
        };
        // For each successful outcome, the first outcome whose vector
        // shares its storage.
        let partition = |errors: &[Option<ErrorVec>]| -> Vec<Option<usize>> {
            let first = |a: &ErrorVec| {
                errors
                    .iter()
                    .position(|b| b.as_ref().is_some_and(|b| b.shares_storage_with(a)))
            };
            errors.iter().map(|a| a.as_ref().and_then(first)).collect()
        };
        let mut runs = Vec::new();
        for jobs in [1, 2] {
            let outcomes = Orchestrator::new(Scale::Tiny).jobs(jobs).run(&matrix);
            let errors = error_vecs(&outcomes);
            for a in errors.iter().flatten() {
                for b in errors.iter().flatten() {
                    assert_eq!(
                        a.shares_storage_with(b),
                        bit_identical(a, b),
                        "jobs({jobs}): storage is shared exactly between equal vectors"
                    );
                }
            }
            let report =
                crate::sweep::table(Scale::Tiny, 7, &metas, &outcomes).render(ReportMode::Json);
            assert_eq!(
                format!("{report}\n"),
                include_str!("../../../tests/data/fault_sweep_reduced.golden.json"),
                "jobs({jobs}): the sweep report drifted from its golden"
            );
            runs.push(errors);
        }
        let (serial, parallel) = (&runs[0], &runs[1]);
        let shares = partition(serial);
        assert_eq!(
            shares,
            partition(parallel),
            "sharing depends on worker count"
        );
        assert!(
            shares
                .iter()
                .enumerate()
                .any(|(i, s)| s.is_some_and(|s| s != i)),
            "no two cells share a vector"
        );
        for (s, p) in serial.iter().zip(parallel) {
            assert_eq!(s.is_some(), p.is_some());
            if let (Some(s), Some(p)) = (s, p) {
                assert!(bit_identical(s, p), "values depend on worker count");
            }
        }
    }
}
