//! One-stop harness: run a benchmark baseline and memoized under a
//! given LUT configuration and report the paper's metrics (speedup,
//! energy reduction, dynamic-instruction ratio, hit rate, output error).

use std::collections::HashMap;
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::meta::Metric;
use crate::{Benchmark, Dataset, Scale};
use axmemo_compiler::codegen::{memoize, CodegenError};
use axmemo_core::config::MemoConfig;
use axmemo_core::lut::LutStats;
use axmemo_core::snapshot::{MemoSnapshot, RecoveryReport};
use axmemo_core::unit::UnitStats;
use axmemo_core::RestorePolicy;
use axmemo_sim::cpu::{DispatchTier, Machine, SimConfig, SimError, Simulator};
use axmemo_sim::decoded::DecodedProgram;
use axmemo_sim::energy::EnergyModel;
use axmemo_sim::pipeline::LatencyModel;
use axmemo_sim::stats::RunStats;
use axmemo_sim::threaded::ThreadedProgram;
use axmemo_sim::Program;
use axmemo_telemetry::{PhaseId, Telemetry};

/// Element-wise errors of one run, behind a reference count: a clone
/// is a pointer copy, so runs whose errors are bit-identical can hold
/// one allocation (the sweep orchestrator stores each distinct vector
/// once). Reads as a `[f64]`.
///
/// ```
/// use axmemo_workloads::runner::ErrorVec;
///
/// let errors: ErrorVec = [0.0, 0.25, 1.0].into_iter().collect();
/// let mut sum = 0.0;
/// for &x in &errors {
///     sum += x;
/// }
/// assert_eq!(sum, 1.25);
/// assert_eq!(errors[1], 0.25);
/// assert_eq!(errors.len(), 3);
///
/// let copy = errors.clone();
/// assert!(copy.shares_storage_with(&errors));
/// let equal: ErrorVec = [0.0, 0.25, 1.0].into_iter().collect();
/// assert!(!equal.shares_storage_with(&errors));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ErrorVec(Arc<[f64]>);

impl ErrorVec {
    /// Whether `self` and `other` are handles to the same allocation.
    pub fn shares_storage_with(&self, other: &ErrorVec) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl std::ops::Deref for ErrorVec {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a ErrorVec {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl FromIterator<f64> for ErrorVec {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self(iter.into_iter().collect())
    }
}

/// Per-element relative errors (for the Fig. 10b CDF) plus aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ErrorReport {
    /// Equation 2 whole-output error (or misclassification rate).
    pub output_error: f64,
    /// Element-wise relative errors, for CDF plotting.
    pub elementwise: ErrorVec,
    /// Output elements where the exact or approximate value was NaN or
    /// infinite. Such pairs are clamped to [`NON_FINITE_ERROR`] (unless
    /// bit-identical) so aggregates stay finite instead of silently
    /// poisoning every downstream mean with NaN.
    pub non_finite: u64,
}

/// Everything the figures need for one (benchmark, config) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkResult {
    /// Benchmark name.
    pub name: String,
    /// LUT configuration label.
    pub config: String,
    /// Baseline cycles / memoized cycles (Fig. 7a).
    pub speedup: f64,
    /// Baseline energy / memoized energy (Fig. 7b).
    pub energy_reduction: f64,
    /// Memoized dynamic instructions / baseline (Fig. 8, total bar).
    pub dyn_inst_ratio: f64,
    /// Fraction of the memoized run's instructions that are memoization
    /// overhead (Fig. 8, black segment).
    pub memo_inst_fraction: f64,
    /// Total LUT hit rate across levels (Fig. 9).
    pub hit_rate: f64,
    /// Output quality loss (Fig. 10a).
    pub error: ErrorReport,
    /// Raw stats for deeper analysis.
    pub baseline_stats: RunStats,
    /// Raw stats of the memoized run.
    pub memo_stats: RunStats,
}

/// [`BenchmarkResult`] plus the observability surface of the memoized
/// run: memoization-unit counters, per-level LUT statistics, and the
/// telemetry handle (metrics registry, completed spans, event sinks)
/// that was threaded through the simulator.
#[derive(Debug)]
pub struct RunReport {
    /// The paper metrics (what the figures consume).
    pub result: BenchmarkResult,
    /// Memoization-unit counters of the memoized run.
    pub unit_stats: UnitStats,
    /// L1 LUT statistics of the memoized run.
    pub l1_lut: LutStats,
    /// L2 LUT statistics (all zero for single-level configurations).
    pub l2_lut: LutStats,
    /// The telemetry handle after the run. Disabled (and empty) when
    /// the caller passed a disabled handle.
    pub telemetry: Telemetry,
    /// Recovery account when the run warm-started from a snapshot
    /// (`None` for ordinary cold runs).
    pub recovery: Option<RecoveryReport>,
}

/// Per-run switches orthogonal to the LUT configuration.
///
/// `Default` matches [`run_benchmark`]: truncation as specified by the
/// benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Disable input truncation (exact memoization) for the Fig. 11
    /// approximation-effectiveness comparison.
    pub zero_trunc: bool,
}

/// Persistence plan for one run: where to restore warm LUT state from
/// before executing and where to write the end-of-run snapshot.
///
/// Kept separate from [`RunOptions`] (which stays `Copy`) because paths
/// are per-cell, not per-sweep. A plan never reaches the
/// [`BaselineCache`]: a restore only touches the memoized run's unit,
/// which neither a baseline nor a [`PreparedProgram`] contains. The
/// empty plan is the default and reproduces a plain run byte-for-byte —
/// persistence is default-off.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotPlan {
    /// Snapshot file to warm-start from, if any. The file is recovered
    /// with the total [`MemoSnapshot::recover`] path: a corrupt or torn
    /// file degrades to a reported cold start, never an error — only
    /// I/O failures (missing file, permissions) abort the run.
    pub restore_from: Option<PathBuf>,
    /// Path to atomically write the end-of-run warm image to, if any.
    pub snapshot_out: Option<PathBuf>,
    /// Order/admission policy for the restore. The default
    /// (`OldestFirst`) reproduces pre-policy restores byte-for-byte;
    /// `MruFirst` bounds restore pollution for scan-dominated
    /// workloads (sobel/jmeint — see EXPERIMENTS.md). Inert without
    /// `restore_from`.
    pub restore_policy: RestorePolicy,
}

impl SnapshotPlan {
    /// `true` when the plan does nothing (the byte-identical default).
    /// The policy alone never makes a plan non-empty: it only shapes a
    /// restore that `restore_from` requests.
    pub fn is_empty(&self) -> bool {
        self.restore_from.is_none() && self.snapshot_out.is_none()
    }
}

/// A benchmark's programs, built once per `(benchmark, scale,
/// zero_trunc)` by [`BaselineCache`] and shared by every run: the
/// baseline program, which `kernel_profile` reads, and both legs in the
/// threaded-superblock form every run executes with
/// [`Simulator::run_prepared_threaded`], lowered against
/// [`LatencyModel::default`] (the latency every runner-constructed
/// [`SimConfig`] uses). The memoized program is not kept: only tests
/// read it, and they rebuild it with `memoize`. Immutable once built,
/// so no run (a snapshot restore included) can change what its
/// siblings execute.
#[derive(Debug)]
pub struct PreparedProgram {
    /// The baseline program before lowering.
    pub base_program: Program,
    /// The baseline leg (the same for either truncation choice).
    pub base: ThreadedProgram,
    /// The memoized leg.
    pub memo: ThreadedProgram,
}

fn lower(program: &Program) -> ThreadedProgram {
    ThreadedProgram::compile(&DecodedProgram::compile(program, &LatencyModel::default()))
}

impl PreparedProgram {
    /// Build, memoize and superblock-lower both legs of `bench` at
    /// `scale`. `zero_trunc` zeroes every input's truncation first
    /// (exact memoization, Fig. 11).
    ///
    /// # Errors
    ///
    /// The codegen failure, when the benchmark's region specs do not fit
    /// its program.
    pub fn compile(
        bench: &dyn Benchmark,
        scale: Scale,
        zero_trunc: bool,
    ) -> Result<Self, CodegenError> {
        let (program, mut specs) = bench.program(scale);
        if zero_trunc {
            for spec in &mut specs {
                spec.input_loads.iter_mut().for_each(|il| il.trunc = 0);
                spec.reg_inputs.iter_mut().for_each(|ri| ri.trunc = 0);
            }
        }
        let memo = lower(&memoize(&program, &specs)?);
        Ok(Self {
            base: lower(&program),
            memo,
            base_program: program,
        })
    }
}

/// Run `bench` on `scale`/`dataset`, baseline vs. memoized with `memo`
/// LUT configuration (data width is overridden by the benchmark's
/// requirement).
///
/// # Errors
///
/// Propagates simulator faults and codegen failures as a boxed error.
pub fn run_benchmark(
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    memo: &MemoConfig,
) -> Result<BenchmarkResult, Box<dyn std::error::Error>> {
    run_benchmark_report_cached(
        bench,
        scale,
        dataset,
        memo,
        RunOptions::default(),
        Telemetry::off(),
        None,
    )
    .map(|report| report.result)
}

/// [`run_benchmark`] with [`RunOptions`] switches and a telemetry handle
/// threaded through the memoized run, which executes under a
/// `run:<name>` span; the handle comes back inside the [`RunReport`].
/// The baseline and compiled programs come from `cache`, so a caller
/// that runs one benchmark under several configurations simulates its
/// deterministic baseline once. `None` uses a call-local cache.
/// `cache` stays an `Option` because `ledger/` (the benchmark) calls
/// this shape.
///
/// # Errors
///
/// Propagates simulator faults as a boxed error, and a cached
/// [`CachedFailure`] when the shared compile or baseline run failed.
pub fn run_benchmark_report_cached(
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    memo: &MemoConfig,
    opts: RunOptions,
    tel: Telemetry,
    cache: Option<&BaselineCache>,
) -> Result<RunReport, Box<dyn std::error::Error>> {
    let plan = SnapshotPlan::default();
    run_benchmark_report_snap(bench, scale, dataset, memo, opts, tel, cache, &plan)
}

/// Like [`run_benchmark_report_cached`], with a [`SnapshotPlan`]: the
/// memoization unit is warm-started from `plan.restore_from` (if set)
/// before the run and its end-of-run warm image is written atomically
/// to `plan.snapshot_out` (if set). An empty plan reproduces
/// [`run_benchmark_report_cached`] byte-for-byte. `cache` stays an
/// `Option` (`None` = a call-local cache) because `ledger/` (the
/// benchmark) calls this shape.
///
/// Warm and cold runs share the same [`BaselineCache`] slots: the
/// restore reaches only this run's memoization unit.
///
/// # Errors
///
/// Propagates simulator faults, cached [`CachedFailure`]s, and snapshot
/// *I/O* failures ([`axmemo_core::snapshot::SnapshotError`], which
/// names the offending path) as a boxed error. A corrupt or torn
/// snapshot file is **not** an error: recovery degrades to a cold start
/// recorded in [`RunReport::recovery`].
#[allow(clippy::too_many_arguments)]
pub fn run_benchmark_report_snap(
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    memo: &MemoConfig,
    opts: RunOptions,
    mut tel: Telemetry,
    cache: Option<&BaselineCache>,
    plan: &SnapshotPlan,
) -> Result<RunReport, Box<dyn std::error::Error>> {
    let local;
    let cache = match cache {
        Some(cache) => cache,
        None => {
            local = BaselineCache::new();
            &local
        }
    };
    let prepared = cache.program(bench, scale, opts.zero_trunc)?;
    let baseline = cache.baseline(bench, scale, dataset, u64::MAX)?;
    let inputs = cache.inputs(bench, scale, dataset)?;
    let mut report = run_benchmark_inner(
        bench,
        scale,
        memo,
        &mut tel,
        u64::MAX,
        &baseline,
        &prepared,
        &inputs,
        plan,
    )?;
    report.telemetry = tel;
    Ok(report)
}

/// The fault-free reference leg of a benchmark run: the baseline
/// [`RunStats`] every speedup/energy/instruction ratio is normalised
/// against, plus the exact output vector quality metrics compare to.
///
/// Depends only on `(benchmark, scale, dataset)` — the memoization
/// configuration (LUT geometry, faults, truncation, warm state) never
/// touches the baseline core — which is what makes it shareable across
/// every cell of a sweep via [`BaselineCache`].
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// Statistics of the non-memoized baseline run.
    pub stats: RunStats,
    /// Exact outputs read back from the finished baseline machine.
    pub exact: Vec<f64>,
}

/// Simulate the baseline leg of `prepared` (no memoization) under a
/// cycle watchdog, on a copy of `inputs`.
fn baseline_leg(
    bench: &dyn Benchmark,
    scale: Scale,
    max_cycles: u64,
    prepared: &PreparedProgram,
    inputs: &Machine,
) -> Result<BaselineRun, Box<dyn std::error::Error>> {
    let mut base_sim = Simulator::new(SimConfig {
        max_cycles,
        ..SimConfig::baseline()
    })?;
    let mut base_machine = inputs.clone();
    let stats = base_sim.run_prepared_threaded(&prepared.base, &mut base_machine)?;
    let exact = bench.outputs(&base_machine, scale);
    Ok(BaselineRun { stats, exact })
}

/// Why a shared [`BaselineCache`] slot — a program compile, an input
/// image or a baseline run — failed, in a cloneable form every run
/// waiting on the same slot can receive.
#[derive(Debug, Clone)]
pub struct CachedFailure {
    /// Failure class (watchdog trip, panic, or ordinary error) —
    /// classified exactly as a memoized-leg failure is.
    pub kind: FailureKind,
    /// Human-readable message (panic payload or error display).
    pub message: String,
}

impl std::fmt::Display for CachedFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({:?})", self.message, self.kind)
    }
}

impl std::error::Error for CachedFailure {}

/// Run `f`, turning its error or panic into a [`CachedFailure`].
fn catch_failure<T>(
    f: impl FnOnce() -> Result<T, Box<dyn std::error::Error>>,
) -> Result<T, CachedFailure> {
    let (kind, message) = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(Ok(value)) => return Ok(value),
        Ok(Err(e)) => match e.downcast_ref::<SimError>() {
            Some(SimError::CycleLimit { .. }) => (FailureKind::Watchdog, e.to_string()),
            _ => (FailureKind::Error, e.to_string()),
        },
        Err(payload) => (FailureKind::Panic, panic_message(payload.as_ref())),
    };
    Err(CachedFailure { kind, message })
}

/// One lazily filled, shared cache entry: the value or its failure.
type Slot<T> = Arc<OnceLock<Result<Arc<T>, CachedFailure>>>;
/// Baseline slot key: `(benchmark, scale, dataset)`.
type BaselineKey = (String, Scale, Dataset);
/// Program slot key: `(benchmark, scale, zero_trunc)`.
type ProgramKey = (String, Scale, bool);
/// Input slot key: `(benchmark, scale, dataset)`.
type InputKey = (String, Scale, Dataset);

/// Fill `key`'s slot in `slots` with `init` on first request (concurrent
/// askers block on the same [`OnceLock`]) and serve it afterwards,
/// counting the request in `computed` or `reused`.
fn get_or_init<K: Eq + Hash, T>(
    slots: &Mutex<HashMap<K, Slot<T>>>,
    key: K,
    [computed, reused]: [&AtomicU64; 2],
    init: impl FnOnce() -> Result<T, CachedFailure>,
) -> Result<Arc<T>, CachedFailure> {
    let slot = Arc::clone(
        slots
            .lock()
            .expect("baseline cache poisoned")
            .entry(key)
            .or_default(),
    );
    let mut fresh = false;
    let result = slot.get_or_init(|| {
        fresh = true;
        init().map(Arc::new)
    });
    if fresh { computed } else { reused }.fetch_add(1, Ordering::Relaxed);
    result.clone()
}

/// The one source of every simulated program, input image and baseline
/// run: a thread-safe once-per-key map, keyed on exactly what each
/// result depends on. Callers without a sweep-wide cache use a
/// call-local one.
///
/// - **Programs**: one [`PreparedProgram`] per `(benchmark, scale,
///   zero_trunc)`. Building, memoizing and superblock-lowering a
///   benchmark is deterministic, so every run shares it.
/// - **Inputs**: one [`Machine`] per `(benchmark, scale, dataset)`, as
///   [`Benchmark::setup`] writes it. Every leg runs on a clone, which
///   copies only the pages the inputs occupy.
/// - **Baselines**: one [`BaselineRun`] per `(benchmark, scale,
///   dataset)`. A sweep's fault matrix runs every benchmark under many
///   (domain × protection × rate) cells, but the memoization
///   configuration never reaches the baseline core, so the first cell
///   to ask simulates it and the rest share the [`Arc`].
///
/// Nothing else is in any key. In particular a snapshot restore
/// ([`SnapshotPlan`]) changes none of them: the baseline simulator has
/// no memoization unit, a `PreparedProgram` is immutable and every leg
/// runs on a clone of its input image, so warm and cold runs share
/// slots.
///
/// Failures are cached too, as [`CachedFailure`]s: a codegen error or
/// panic in the program slot, a panicking `setup` in the input slot, a
/// watchdog trip, panic or simulator error in the baseline slot (a
/// baseline whose program or inputs failed carries that failure).
/// Everything is deterministic, so re-running would fail identically
/// for every sibling cell. Computed
/// and reused requests are counted so orchestrators can export
/// `orchestrator.baseline.{computed,reused}` telemetry.
#[derive(Debug, Default)]
pub struct BaselineCache {
    slots: Mutex<HashMap<BaselineKey, Slot<BaselineRun>>>,
    programs: Mutex<HashMap<ProgramKey, Slot<PreparedProgram>>>,
    inputs: Mutex<HashMap<InputKey, Slot<Machine>>>,
    computed: AtomicU64,
    reused: AtomicU64,
    programs_compiled: AtomicU64,
    programs_reused: AtomicU64,
    inputs_generated: AtomicU64,
    inputs_reused: AtomicU64,
}

impl BaselineCache {
    /// Empty cache.
    /// Kept in this shape because `ledger/` (the benchmark) calls it.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared baseline for `(bench, scale, dataset)`, simulating it
    /// under `max_cycles` on first request and serving the cached run
    /// (or cached failure) afterwards.
    ///
    /// # Errors
    ///
    /// Returns the (possibly cached) [`CachedFailure`] when the
    /// baseline program failed to compile or its simulation failed.
    pub fn baseline(
        &self,
        bench: &dyn Benchmark,
        scale: Scale,
        dataset: Dataset,
        max_cycles: u64,
    ) -> Result<Arc<BaselineRun>, CachedFailure> {
        let key = (bench.meta().name.to_string(), scale, dataset);
        get_or_init(&self.slots, key, [&self.computed, &self.reused], || {
            let prepared = self.program(bench, scale, false)?;
            let inputs = self.inputs(bench, scale, dataset)?;
            catch_failure(|| baseline_leg(bench, scale, max_cycles, &prepared, &inputs))
        })
    }

    /// [`Self::baseline`]; the tier is ignored (there is one).
    /// Kept in this shape because `ledger/` (the benchmark) calls it.
    ///
    /// # Errors
    ///
    /// As [`Self::baseline`].
    pub fn get_or_compute(
        &self,
        bench: &dyn Benchmark,
        scale: Scale,
        dataset: Dataset,
        max_cycles: u64,
        _dispatch: DispatchTier,
    ) -> Result<Arc<BaselineRun>, CachedFailure> {
        self.baseline(bench, scale, dataset, max_cycles)
    }

    /// [`Self::baseline`]; the tier and `warm` are ignored (no baseline
    /// can observe a restore, so warm and cold requests share a slot).
    /// Kept in this shape because `ledger/` (the benchmark) calls it.
    ///
    /// # Errors
    ///
    /// As [`Self::baseline`].
    pub fn get_or_compute_keyed(
        &self,
        bench: &dyn Benchmark,
        scale: Scale,
        dataset: Dataset,
        max_cycles: u64,
        _dispatch: DispatchTier,
        _warm: bool,
    ) -> Result<Arc<BaselineRun>, CachedFailure> {
        self.baseline(bench, scale, dataset, max_cycles)
    }

    /// The shared [`PreparedProgram`] for `(bench, scale, zero_trunc)`,
    /// built on first request and served (or its cached failure)
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Returns the (possibly cached) [`CachedFailure`] when codegen
    /// failed or panicked.
    pub fn program(
        &self,
        bench: &dyn Benchmark,
        scale: Scale,
        zero_trunc: bool,
    ) -> Result<Arc<PreparedProgram>, CachedFailure> {
        let key = (bench.meta().name.to_string(), scale, zero_trunc);
        let counters = [&self.programs_compiled, &self.programs_reused];
        get_or_init(&self.programs, key, counters, || {
            catch_failure(|| Ok(PreparedProgram::compile(bench, scale, zero_trunc)?))
        })
    }

    /// The shared input image for `(bench, scale, dataset)`: the machine
    /// [`Benchmark::setup`] returns, generated on first request and
    /// served (or its cached failure) afterwards. Run a leg on a clone.
    ///
    /// # Errors
    ///
    /// Returns the (possibly cached) [`CachedFailure`] when `setup`
    /// panicked.
    pub fn inputs(
        &self,
        bench: &dyn Benchmark,
        scale: Scale,
        dataset: Dataset,
    ) -> Result<Arc<Machine>, CachedFailure> {
        let key = (bench.meta().name.to_string(), scale, dataset);
        let counters = [&self.inputs_generated, &self.inputs_reused];
        get_or_init(&self.inputs, key, counters, || {
            catch_failure(|| Ok(bench.setup(scale, dataset)))
        })
    }

    /// Input images generated (one per distinct key).
    pub fn inputs_generated(&self) -> u64 {
        self.inputs_generated.load(Ordering::Relaxed)
    }

    /// Input requests served from an existing slot.
    pub fn inputs_reused(&self) -> u64 {
        self.inputs_reused.load(Ordering::Relaxed)
    }

    /// [`Self::program`] with default truncation, `None` when it failed.
    /// Kept in this shape because `ledger/` (the benchmark) calls it.
    pub fn prepared(&self, bench: &dyn Benchmark, scale: Scale) -> Option<Arc<PreparedProgram>> {
        self.program(bench, scale, false).ok()
    }

    /// Program compilations actually performed (one per distinct key).
    /// Kept in this shape because `ledger/` (the benchmark) calls it.
    pub fn programs_compiled(&self) -> u64 {
        self.programs_compiled.load(Ordering::Relaxed)
    }

    /// Program requests served from an existing slot.
    /// Kept in this shape because `ledger/` (the benchmark) calls it.
    pub fn programs_reused(&self) -> u64 {
        self.programs_reused.load(Ordering::Relaxed)
    }

    /// Baseline simulations actually performed (one per distinct key).
    /// Kept in this shape because `ledger/` (the benchmark) calls it.
    pub fn computed(&self) -> u64 {
        self.computed.load(Ordering::Relaxed)
    }

    /// Requests served from an already-computed (or in-flight) slot.
    /// Kept in this shape because `ledger/` (the benchmark) calls it.
    pub fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }
}

/// One memoized run of `prepared` against an already computed
/// `baseline`: only the memoized leg is simulated, on a copy of
/// `inputs`, under `max_cycles`.
///
/// The telemetry handle is borrowed so it *survives* the error path:
/// the sim-side spans and phase frames a failed run leaves open are
/// drained via [`Telemetry::close_open_spans`] before returning, and
/// the caller (a sweep job, whose handle outlives the failure) keeps
/// its registry, sinks, and profiler. The returned
/// [`RunReport`] carries a disabled placeholder handle; the by-value
/// wrappers move the real one back in.
///
/// `plan` adds snapshot persistence: restore the warm image before the
/// memoized run, arm the end-of-run capture, and write the image
/// atomically after the metrics are collected. The empty plan leaves
/// the run byte-identical to the plain path.
#[allow(clippy::too_many_arguments)]
fn run_benchmark_inner(
    bench: &dyn Benchmark,
    scale: Scale,
    memo: &MemoConfig,
    tel: &mut Telemetry,
    max_cycles: u64,
    baseline: &BaselineRun,
    prepared: &PreparedProgram,
    inputs: &Machine,
    plan: &SnapshotPlan,
) -> Result<RunReport, Box<dyn std::error::Error>> {
    // Load and recover the warm image first, while the telemetry handle
    // is still in hand (it moves into the simulator below): recovery
    // decisions land in the same registry/sinks as the run itself.
    // Only I/O failures abort; corrupt bytes degrade to a reported cold
    // start.
    let plan = Some(plan).filter(|p| !p.is_empty());
    let mut recovery: Option<RecoveryReport> = None;
    let mut warm_image: Option<MemoSnapshot> = None;
    if let Some(path) = plan.and_then(|p| p.restore_from.as_deref()) {
        let (snap, report) = MemoSnapshot::load_tel(path, tel)?;
        warm_image = snap;
        recovery = Some(report);
    }
    let memo_cfg = MemoConfig {
        data_width: bench.data_width(),
        ..memo.clone()
    };

    let base_stats = &baseline.stats;
    let exact = &baseline.exact;

    // Memoized run, under a `run:<name>` span with the telemetry
    // handle installed in the simulator (it reaches the memoization
    // unit and the LUT hierarchy from there). A new simulator is
    // already in its reset state, so it is not reset again: that would
    // rewrite every LUT entry `Simulator::new` just built.
    let mut memo_sim = Simulator::new(SimConfig {
        max_cycles,
        ..SimConfig::with_memo(memo_cfg.clone())
    })?;
    let mut memo_machine = inputs.clone();
    tel.set_cycle(0);
    tel.span_enter(&format!("run:{}", bench.meta().name));
    tel.profiler_mut().set_label(bench.meta().name);
    tel.profiler_mut().enter(PhaseId::Run);
    memo_sim.set_telemetry(std::mem::take(tel));
    // Warm-start the fresh unit and arm the end-of-run capture:
    // compiled programs invalidate every LUT before halting, so the
    // warm image is grabbed at the first invalidate, not after the
    // wipe.
    if let Some(plan) = plan {
        if let Some(unit) = memo_sim.memo_unit_mut() {
            if let Some(image) = &warm_image {
                let summary = unit.restore_warm(image, plan.restore_policy);
                if let Some(rec) = recovery.as_mut() {
                    rec.applied = Some(summary);
                }
            }
            if plan.snapshot_out.is_some() {
                unit.arm_warm_capture();
            }
        }
    }
    let memo_stats = memo_sim.run_prepared_threaded(&prepared.memo, &mut memo_machine);
    *tel = memo_sim.take_telemetry();
    let memo_stats = match memo_stats {
        Ok(stats) => stats,
        Err(e) => {
            // Watchdog trips and sim errors abandon the run mid-span;
            // drain the open span/phase stacks so the handle stays
            // balanced for the caller's next run.
            tel.close_open_spans();
            tel.flush();
            return Err(e.into());
        }
    };
    tel.set_cycle(memo_stats.cycles);
    tel.span_exit();
    tel.profiler_mut().exit_cycles(memo_stats.cycles);
    tel.flush();
    let approx = bench.outputs(&memo_machine, scale);

    // Metrics.
    let energy_model = EnergyModel::for_l1_lut(memo_cfg.l1_bytes);
    let base_energy = energy_model.total_pj(&base_stats.energy);
    let memo_energy = energy_model.total_pj(&memo_stats.energy);
    let hit_rate = memo_sim
        .memo_unit()
        .map(|u| u.lut().total_hit_rate())
        .unwrap_or(0.0);
    let error = compute_error(bench.meta().metric, exact, &approx);

    let result = BenchmarkResult {
        name: bench.meta().name.to_string(),
        config: format!("{memo:?}"),
        speedup: base_stats.cycles as f64 / memo_stats.cycles.max(1) as f64,
        energy_reduction: base_energy / memo_energy.max(f64::MIN_POSITIVE),
        dyn_inst_ratio: memo_stats.dynamic_insts as f64 / base_stats.dynamic_insts.max(1) as f64,
        memo_inst_fraction: memo_stats.memo_fraction(),
        hit_rate,
        error,
        baseline_stats: *base_stats,
        memo_stats,
    };
    let (unit_stats, l1_lut, l2_lut) = match memo_sim.memo_unit() {
        Some(u) => (u.stats(), u.lut().l1_stats(), u.lut().l2_stats()),
        None => Default::default(),
    };
    // Persist the end-of-run warm image last, so a snapshot only ever
    // describes a run that completed (a failed run returns above and
    // leaves any prior snapshot file untouched).
    if let Some(path) = plan.and_then(|p| p.snapshot_out.as_deref()) {
        let image = memo_sim
            .memo_unit_mut()
            .and_then(|u| u.take_warm_image())
            .unwrap_or_default();
        image.write_atomic_tel(path, tel)?;
    }
    Ok(RunReport {
        result,
        unit_stats,
        l1_lut,
        l2_lut,
        telemetry: Telemetry::off(),
        recovery,
    })
}

/// Why a supervised benchmark run failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The run panicked; the panic was caught so sibling benchmarks in a
    /// sweep keep running.
    Panic,
    /// The watchdog cycle budget expired
    /// ([`axmemo_sim::cpu::SimError::CycleLimit`]): the program did not
    /// terminate — or did not terminate fast enough — under this
    /// configuration.
    Watchdog,
    /// The simulator or code generator reported an ordinary error.
    Error,
}

/// Structured failure from [`run_job`].
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// Benchmark that failed.
    pub benchmark: String,
    /// Failure class.
    pub kind: FailureKind,
    /// Human-readable message (panic payload or error display).
    pub message: String,
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} failed ({:?}): {}",
            self.benchmark, self.kind, self.message
        )
    }
}

impl std::error::Error for RunFailure {}

/// A job's memoized leg may run at most this many times its baseline's
/// cycles before the watchdog trips (see [`memo_watchdog`]).
pub const WATCHDOG_MARGIN: u64 = 8;

/// The memoized-leg watchdog never drops below this many cycles: tiny
/// baselines leave no headroom for fixed memoization overheads
/// otherwise.
pub const WATCHDOG_FLOOR_CYCLES: u64 = 1_000_000;

/// The memoized-leg watchdog of a job whose baseline measured
/// `baseline_cycles`: [`WATCHDOG_MARGIN`] × baseline, at least
/// [`WATCHDOG_FLOOR_CYCLES`], clamped to `ceiling`. A memoized run that
/// is 8× slower than its own baseline is pathological whatever the
/// benchmark's absolute cost, so one margin gives tight watchdogs on
/// kernels whose costs differ by ~30× (jpeg vs. blackscholes).
pub fn memo_watchdog(baseline_cycles: u64, ceiling: u64) -> u64 {
    WATCHDOG_MARGIN
        .saturating_mul(baseline_cycles)
        .max(WATCHDOG_FLOOR_CYCLES)
        .min(ceiling)
}

/// One sweep job: a supervised run of `bench` on the evaluation
/// dataset, with the benchmark's own truncation, that never panics and
/// never runs away.
///
/// - The compiled program, the input image and the baseline come from
///   `cache`, the baseline simulated once per distinct key under the
///   `max_cycles` ceiling. A cached compile, input or baseline
///   *failure* fails the job with that failure, without recompiling or
///   re-simulating.
/// - The memoized leg runs under [`memo_watchdog`] of the measured
///   baseline, clamped to `max_cycles`.
/// - Panics are caught and become [`FailureKind::Panic`] failures.
/// - The job makes one attempt: the simulator is deterministic, so a
///   retry would fail identically.
///
/// `tel` is caller-owned and survives a failure, panics and watchdog
/// trips included:
///
/// - After a failed run the span and phase stacks are drained
///   ([`Telemetry::close_open_spans`]), so a panicking benchmark
///   followed by a healthy one yields a balanced span tree.
/// - If a panic fires while the handle is installed in the simulator,
///   the handle itself is forfeited with the unwound stack; an enabled
///   replacement is restored (accumulated sinks are lost — they
///   unwound with the run) and the profiler is re-enabled.
/// - Profile data from a failed run is discarded
///   ([`axmemo_telemetry::Profiler::clear`]), so a later success on the
///   same handle profiles exactly one run.
///
/// # Errors
///
/// Returns a [`RunFailure`] describing the failed run.
pub fn run_job(
    bench: &dyn Benchmark,
    scale: Scale,
    memo: &MemoConfig,
    max_cycles: u64,
    cache: &BaselineCache,
    tel: &mut Telemetry,
) -> Result<BenchmarkResult, RunFailure> {
    let was_enabled = tel.is_enabled();
    let was_profiling = tel.profiler().is_enabled();
    let dataset = Dataset::Eval;
    let failed = |CachedFailure { kind, message }| RunFailure {
        benchmark: bench.meta().name.to_string(),
        kind,
        message,
    };
    // Compiled programs and input images are shared with sibling cells
    // through the cache; the job only re-simulates, on its own copy of
    // the inputs.
    let (prepared, baseline, inputs) = cache
        .program(bench, scale, false)
        .and_then(|prepared| {
            let baseline = cache.baseline(bench, scale, dataset, max_cycles)?;
            let inputs = cache.inputs(bench, scale, dataset)?;
            Ok((prepared, baseline, inputs))
        })
        .map_err(failed)?;
    let failure = match catch_failure(|| {
        run_benchmark_inner(
            bench,
            scale,
            memo,
            tel,
            memo_watchdog(baseline.stats.cycles, max_cycles),
            &baseline,
            &prepared,
            &inputs,
            &SnapshotPlan::default(),
        )
        .map(|report| report.result)
    }) {
        Ok(result) => return Ok(result),
        Err(failure) => failure,
    };
    // Failed-run hygiene: drain whatever the abandoned run left open,
    // restore the handle if the panic forfeited it mid-simulation, and
    // drop the run's profile data so a later success on the same
    // handle profiles exactly one run.
    tel.close_open_spans();
    if was_enabled && !tel.is_enabled() {
        *tel = Telemetry::enabled();
    }
    if was_profiling && !tel.profiler().is_enabled() {
        tel.profiler_mut().enable();
    }
    tel.profiler_mut().clear();
    Err(failed(failure))
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Relative error recorded for a non-finite output pair (finite, so CDF
/// plots and window means remain well-defined).
pub const NON_FINITE_ERROR: f64 = 1e9;

/// Replace non-finite output pairs with a finite maximal-error pair
/// `(1.0, 1.0 + NON_FINITE_ERROR)` — or a zero-error pair when the two
/// values are bit-identical (the approximation reproduced the NaN/inf
/// exactly). Returns `None` vectors when everything was already finite
/// so the common path allocates nothing.
fn sanitize_outputs(exact: &[f64], approx: &[f64]) -> (Option<Vec<f64>>, Option<Vec<f64>>, u64) {
    let non_finite = exact
        .iter()
        .zip(approx)
        .filter(|(x, xh)| !x.is_finite() || !xh.is_finite())
        .count() as u64;
    if non_finite == 0 {
        return (None, None, 0);
    }
    let mut e = exact.to_vec();
    let mut a = approx.to_vec();
    for (x, xh) in e.iter_mut().zip(a.iter_mut()) {
        if x.is_finite() && xh.is_finite() {
            continue;
        }
        if x.to_bits() == xh.to_bits() {
            *x = 1.0;
            *xh = 1.0;
        } else {
            *x = 1.0;
            *xh = 1.0 + NON_FINITE_ERROR;
        }
    }
    (Some(e), Some(a), non_finite)
}

/// Compute the quality metric between exact and approximate outputs.
/// NaN/infinite elements (possible under fault injection — a corrupted
/// LUT word can decode to any f32 bit pattern) are counted and clamped
/// rather than propagated; see [`ErrorReport::non_finite`].
pub fn compute_error(metric: Metric, exact: &[f64], approx: &[f64]) -> ErrorReport {
    let (exact_s, approx_s, non_finite) = sanitize_outputs(exact, approx);
    let exact = exact_s.as_deref().unwrap_or(exact);
    let approx = approx_s.as_deref().unwrap_or(approx);
    match metric {
        Metric::Numeric | Metric::Image => {
            let output_error = axmemo_compiler::output_error(exact, approx);
            let elementwise = exact
                .iter()
                .zip(approx)
                .map(|(x, xh)| {
                    let d = x.abs().max(1e-9);
                    (xh - x).abs() / d
                })
                .collect();
            ErrorReport {
                output_error,
                elementwise,
                non_finite,
            }
        }
        Metric::Misclassification => {
            let wrong: ErrorVec = exact
                .iter()
                .zip(approx)
                .map(|(x, xh)| if (x - xh).abs() > 0.5 { 1.0 } else { 0.0 })
                .collect();
            let rate = wrong.iter().sum::<f64>() / wrong.len().max(1) as f64;
            ErrorReport {
                output_error: rate,
                elementwise: wrong,
                non_finite,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmemo_sim::cpu::Machine;

    #[test]
    fn misclassification_error_path() {
        let e = compute_error(
            Metric::Misclassification,
            &[1.0, 0.0, 1.0],
            &[1.0, 1.0, 1.0],
        );
        assert!((e.output_error - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn numeric_error_path() {
        let e = compute_error(Metric::Numeric, &[3.0, 4.0], &[3.0, 5.0]);
        assert!((e.output_error - 0.04).abs() < 1e-12);
        assert_eq!(e.elementwise.len(), 2);
        assert_eq!(e.non_finite, 0);
    }

    #[test]
    fn non_finite_outputs_are_counted_and_clamped() {
        let e = compute_error(
            Metric::Numeric,
            &[3.0, 4.0, f64::NAN, 5.0],
            &[3.0, f64::NAN, f64::NAN, f64::INFINITY],
        );
        // Three pairs involved a non-finite value...
        assert_eq!(e.non_finite, 3);
        // ...but every aggregate stays finite.
        assert!(e.output_error.is_finite());
        assert!(e.elementwise.iter().all(|v| v.is_finite()));
        // Bit-identical NaNs mean the approximation reproduced the
        // exact output: zero error for that element.
        assert_eq!(e.elementwise[2], 0.0);
        // Mismatched non-finite pairs clamp to the penalty value.
        assert_eq!(e.elementwise[1], NON_FINITE_ERROR);
        assert_eq!(e.elementwise[3], NON_FINITE_ERROR);
        // Misclassification treats clamped pairs as wrong answers.
        let m = compute_error(Metric::Misclassification, &[1.0, f64::NAN], &[1.0, 0.0]);
        assert_eq!(m.non_finite, 1);
        assert!((m.output_error - 0.5).abs() < 1e-12);
    }

    /// A benchmark whose program construction panics (models a bug in
    /// one kernel that must not take down a whole sweep).
    #[derive(Debug)]
    struct PanickyBench;

    impl crate::Benchmark for PanickyBench {
        fn meta(&self) -> crate::meta::WorkloadMeta {
            crate::meta::WorkloadMeta {
                name: "panicky",
                suite: "test",
                domain: "test",
                description: "",
                dataset: "",
                input_bytes: &[4],
                truncated_bits: &[0],
                metric: Metric::Numeric,
            }
        }
        fn program(
            &self,
            _scale: crate::Scale,
        ) -> (axmemo_sim::Program, Vec<axmemo_compiler::RegionSpec>) {
            panic!("synthetic benchmark bug");
        }
        fn setup(&self, _scale: crate::Scale, _dataset: crate::Dataset) -> Machine {
            Machine::new(64)
        }
        fn outputs(&self, _machine: &Machine, _scale: crate::Scale) -> Vec<f64> {
            Vec::new()
        }
        fn golden(&self, _machine: &Machine, _scale: crate::Scale) -> Vec<f64> {
            Vec::new()
        }
    }

    /// One job at tiny scale with a fresh cache.
    fn job(
        bench: &dyn crate::Benchmark,
        memo: &MemoConfig,
        max_cycles: u64,
        tel: &mut Telemetry,
    ) -> Result<BenchmarkResult, RunFailure> {
        run_job(
            bench,
            crate::Scale::Tiny,
            memo,
            max_cycles,
            &BaselineCache::new(),
            tel,
        )
    }

    #[test]
    fn supervised_runner_catches_panics() {
        let fail = job(
            &PanickyBench,
            &MemoConfig::l1_only(4096),
            u64::MAX,
            &mut Telemetry::off(),
        )
        .unwrap_err();
        assert_eq!(fail.kind, FailureKind::Panic);
        assert_eq!(fail.benchmark, "panicky");
        assert!(fail.message.contains("synthetic benchmark bug"));
    }

    #[test]
    fn supervised_runner_watchdog_bounds_cycles() {
        let bench = crate::benchmark_by_name("blackscholes").unwrap();
        let fail = job(
            bench.as_ref(),
            &MemoConfig::l1_only(4096),
            1_000, // far below what even Tiny needs
            &mut Telemetry::off(),
        )
        .unwrap_err();
        assert_eq!(fail.kind, FailureKind::Watchdog);
        assert!(fail.message.contains("cycle limit"), "{}", fail.message);
    }

    #[test]
    fn panicking_benchmark_leaves_shared_handle_clean() {
        // Satellite regression: a caught panic must not leave the
        // caller's telemetry handle with unbalanced open spans — the
        // next (healthy) benchmark through the same handle must record
        // a clean span tree and a one-run profile.
        let mut tel = Telemetry::enabled();
        tel.profiler_mut().enable();
        let memo = MemoConfig::l1_only(4096);
        let fail = job(&PanickyBench, &memo, u64::MAX, &mut tel).unwrap_err();
        assert_eq!(fail.kind, FailureKind::Panic);
        // The handle survived the panic, balanced and still profiling.
        assert!(tel.is_enabled());
        assert!(tel.profiler().is_enabled());
        assert_eq!(tel.close_open_spans(), 0, "no spans left open");

        let bench = crate::benchmark_by_name("blackscholes").unwrap();
        job(bench.as_ref(), &memo, u64::MAX, &mut tel).expect("healthy benchmark after a panic");
        assert_eq!(tel.close_open_spans(), 0, "span tree balanced");
        let runs: Vec<_> = tel
            .spans()
            .iter()
            .filter(|s| s.path.starts_with("run:"))
            .collect();
        assert_eq!(runs.len(), 1, "exactly one completed run span");
        assert_eq!(runs[0].path, "run:blackscholes");
        assert_eq!(runs[0].depth, 0);
        let profile = tel.take_profile().expect("profiler enabled");
        let run = &profile.phases["run"];
        assert_eq!(run.count, 1, "profile describes exactly one run");
        assert!(run.total > 0);
    }

    #[test]
    fn watchdog_failure_recovers_span_stack() {
        // A watchdog trip abandons the run mid-span (inside the
        // simulator); the job runner must drain the open stack so the
        // handle stays balanced, then a healthy run on the same handle
        // must profile exactly one run. jmeint has no reuse, so its
        // memoized leg (76,448 cycles at tiny) is slower than its
        // baseline (72,960): a 75,000-cycle ceiling admits the baseline
        // and trips inside the memoized leg.
        let bench = crate::benchmark_by_name("jmeint").unwrap();
        let memo = MemoConfig::l1_only(4096);
        let baseline = BaselineCache::new()
            .baseline(
                bench.as_ref(),
                crate::Scale::Tiny,
                crate::Dataset::Eval,
                75_000,
            )
            .expect("the baseline fits under the ceiling");
        assert_eq!(baseline.stats.cycles, 72_960);
        let mut tel = Telemetry::enabled();
        tel.profiler_mut().enable();
        let fail = job(bench.as_ref(), &memo, 75_000, &mut tel).unwrap_err();
        assert_eq!(fail.kind, FailureKind::Watchdog, "{fail}");
        assert!(tel.is_enabled());
        assert_eq!(tel.close_open_spans(), 0, "span tree balanced");
        // The failed run's profile was discarded.
        assert!(tel.profiler().is_enabled());
        job(bench.as_ref(), &memo, u64::MAX, &mut tel).expect("healthy run after a watchdog trip");
        assert_eq!(tel.close_open_spans(), 0, "span tree balanced");
        let profile = tel.take_profile().expect("profiler enabled");
        assert_eq!(profile.phases["run"].count, 1);
    }
}
