//! `bench_ledger`: the repository's benchmark. It times the figure suite's
//! layers from outside through their public APIs, checks every simulated
//! result against committed digests, and prints every metric by name and
//! unit. See this crate's README for the workloads, the metrics and how
//! to diff two commits.
//!
//! ```text
//! bench_ledger --workload fig7|fault_sweep|sim_base|warm_start [--seed N]
//!              [--seconds S] [--trace 0|1] [--trace-out PATH] [--smoke] [--goldens DIR]
//! bench_ledger diff PARENT.json... -- CHANGE.json...
//! bench_ledger bless DIR
//! ```
//!
//! One process runs one workload, so its peak resident set is that
//! workload's alone. Standard output ends with two lines: the full ledger
//! document (host fingerprint, per-pass samples, quartiles, per-layer
//! metrics) and a summary object `{"correct", "attempted", "failed",
//! "metrics"}` holding the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics of `BENCHMARK.json`. The exit code is 1 when any
//! result is wrong, after both lines are printed.

mod probe;
mod workloads;

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use axmemo_ledger::json::num;
use axmemo_ledger::spec::Spec;
use axmemo_ledger::stats::{median, quartiles};
use axmemo_ledger::trace::{self_times, Span, Tracer};
use axmemo_ledger::{diff, json::Json};
use axmemo_telemetry::escape_json;
use axmemo_workloads::Scale;
use workloads::{
    run_pass, scale_name, set_up, BasePrograms, Cell, Ctx, Pass, SetupTimes, Workload,
    PAPER_ENERGY, PAPER_HIT_PCT, PAPER_SPEEDUP,
};

const USAGE: &str = "usage: bench_ledger --workload fig7|fault_sweep|sim_base|warm_start \
[--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH] [--smoke] [--goldens DIR]
       bench_ledger diff PARENT.json... -- CHANGE.json...
       bench_ledger bless DIR";

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Traced passes (`--trace 1`).
const TRACED_PASSES: usize = 3;
/// Timed passes under `--smoke`.
const SMOKE_PASSES: usize = 2;
/// Fewest timed passes a run makes, however short it is asked to be.
const MIN_PASSES: usize = 3;
/// The seed the committed goldens and seeded digests were made with.
const GOLDEN_SEED: u64 = 7;

/// Spans the passes record, root first.
const SPANS: [&str; 8] = [
    "ledger.pass",
    "compiler.prepare",
    "sim.base",
    "runner.memo_leg",
    "baselines.events",
    "baselines.swlut",
    "orchestrator.run",
    "bench.report",
];

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    /// The run length the benchmark's caller asks for (`--seconds
    /// run_seconds` on every run). It fixes the number of timed passes
    /// (`timed_passes`), never a time budget, so two commits run with the
    /// same value do the same work.
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
    goldens: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::Fig7,
        seed: GOLDEN_SEED,
        seconds: Spec::committed().run_seconds,
        trace: false,
        trace_out: None,
        smoke: false,
        goldens: PathBuf::from("tests/data"),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed must be an integer, got {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && (0.0..=3600.0).contains(s))
                    .ok_or(format!(
                        "--seconds must be a number from 0 to 3600, got {v}"
                    ))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                };
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--goldens" => args.goldens = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("diff") => diff_main(&argv[1..]),
        Some("bless") => match argv.get(1) {
            Some(dir) => bless(Path::new(dir)).map(|()| true),
            None => Err("bless needs a directory".to_string()),
        },
        _ => match parse_args(argv.into_iter()) {
            Ok(args) => run(&args),
            Err(e) => {
                eprintln!("bench_ledger: {e}\n{USAGE}");
                std::process::exit(2);
            }
        },
    };
    std::process::exit(match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("bench_ledger: {e}");
            1
        }
    });
}

// ---------------------------------------------------------------------
// Host fingerprint and process counters
// ---------------------------------------------------------------------

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host milliseconds of one reference leg on the host the bounds were set
/// on, at its fastest (README, "Measurement"). Timed host work is reported
/// scaled to a host running the leg in this time.
const REF_LEG_MS: f64 = 2.2;

/// Host milliseconds of a fixed reference leg: 2^20 steps of a toy
/// bytecode interpreter over a 4 KiB string of pseudo-random opcodes. It
/// shares no code with the repository, but like the simulator it is bound
/// by dispatch and data-dependent branches, so a busy host slows both
/// alike (README, "Measurement").
fn reference_leg_ms() -> f64 {
    const LEN: usize = 4096;
    let code: Vec<u8> = (0..LEN as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
        .collect();
    let code = std::hint::black_box(code);
    let started = Instant::now();
    let mut regs = [1u64, 2, 3, 4];
    let mut pc = 0;
    for _ in 0..(1 << 20) {
        let op = code[pc];
        let r = usize::from(op >> 4) & 3;
        match op & 7 {
            0 => regs[r] = regs[r].wrapping_add(regs[(r + 1) & 3]),
            1 => regs[r] ^= regs[r] >> 7,
            2 => regs[r] = regs[r].wrapping_mul(0x9E37_79B9_7F4A_7C15),
            3 => regs[r] = regs[r].rotate_left(13),
            4 => {
                if regs[r] & 1 == 0 {
                    pc = (pc + 3) % LEN;
                }
            }
            5 => regs[r] = regs[r].wrapping_sub(regs[(r + 2) & 3]),
            6 => regs[r] |= 0x10,
            _ => regs[r] = (regs[r] >> 1) | 1,
        }
        pc = (pc + 1) % LEN;
    }
    std::hint::black_box(regs);
    started.elapsed().as_secs_f64() * 1e3
}

/// Run `f` between two reference legs. Returns its result and the mean
/// time of the two legs, which tells how fast the host ran `f`.
fn between_reference_legs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = reference_leg_ms();
    let out = f();
    (out, (before + reference_leg_ms()) / 2.0)
}

/// Host times, each scaled by the reference leg run around it to what a
/// host running the leg in [`REF_LEG_MS`] would take.
fn at_reference_speed(host_s: &[f64], leg_ms: &[f64]) -> Vec<f64> {
    host_s
        .iter()
        .zip(leg_ms)
        .map(|(s, leg)| s * REF_LEG_MS / leg)
        .collect()
}

fn least(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or `NaN`
/// off Linux.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Private temporary directory under the working directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Result<Self, String> {
        let dir = PathBuf::from(".ledger_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other ledger is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

// ---------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------

/// Committed digests: `(scale, seed or "*", cell) -> digest`.
#[derive(Debug, Default)]
struct Expected {
    digests: HashMap<(String, String, String), u64>,
    /// `(scale, seed)` pairs the file pins completely.
    pinned: HashSet<(String, String)>,
}

impl Expected {
    fn parse(text: &str) -> Self {
        let mut out = Self::default();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            if let [scale, seed, id, hex] = parts[..] {
                if let Ok(d) = u64::from_str_radix(hex, 16) {
                    out.pinned.insert((scale.to_string(), seed.to_string()));
                    out.digests
                        .insert((scale.to_string(), seed.to_string(), id.to_string()), d);
                }
            }
        }
        out
    }

    /// The committed file of `w`.
    fn committed(w: Workload) -> Self {
        Self::parse(match w {
            Workload::Fig7 => include_str!("../expected/fig7.digests"),
            Workload::FaultSweep => include_str!("../expected/fault_sweep.digests"),
            Workload::SimBase => include_str!("../expected/sim_base.digests"),
            Workload::WarmStart => include_str!("../expected/warm_start.digests"),
        })
    }
}

/// Checks every pass's cells against the committed digests and against
/// the first pass of the run.
#[derive(Debug)]
struct Checker {
    expected: Expected,
    scale: String,
    seed: String,
    reference: Option<Vec<Cell>>,
    attempted: usize,
    failed: usize,
}

impl Checker {
    fn check(&mut self, pass: &Pass) {
        for (i, cell) in pass.cells.iter().enumerate() {
            self.attempted += 1;
            let seed = if cell.seeded { self.seed.as_str() } else { "*" };
            let key = (self.scale.clone(), seed.to_string(), cell.id.clone());
            let why = if cell.errored {
                Some("errored".to_string())
            } else if let Some(&want) = self.expected.digests.get(&key) {
                (want != cell.digest)
                    .then(|| format!("digest {:016x}, expected {want:016x}", cell.digest))
            } else if self
                .expected
                .pinned
                .contains(&(key.0.clone(), key.1.clone()))
            {
                Some("no committed digest".to_string())
            } else {
                None
            };
            let why = why.or_else(|| {
                let first = self.reference.as_ref()?.get(i);
                (first.map(|c| (&c.id, c.digest)) != Some((&cell.id, cell.digest)))
                    .then(|| "differs from the first pass".to_string())
            });
            if let Some(why) = why {
                self.failed += 1;
                eprintln!("bench_ledger: {} {}: {why}", self.scale, cell.id);
            }
        }
        match &self.reference {
            None => self.reference = Some(pass.cells.clone()),
            Some(first) if first.len() != pass.cells.len() => {
                self.failed += first.len().abs_diff(pass.cells.len());
                eprintln!(
                    "bench_ledger: pass produced {} cells, first pass {}",
                    pass.cells.len(),
                    first.len()
                );
            }
            Some(_) => {}
        }
    }
}

fn golden_matches(goldens: &Path, file: &str, report_json: Option<&str>) -> bool {
    let path = goldens.join(file);
    let ok = match (std::fs::read_to_string(&path), report_json) {
        (Ok(golden), Some(json)) => golden == format!("{json}\n"),
        (Err(e), _) => {
            eprintln!("bench_ledger: read {}: {e}", path.display());
            false
        }
        (_, None) => false,
    };
    if !ok {
        eprintln!("bench_ledger: report differs from {}", path.display());
    }
    ok
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    unit: &'static str,
    /// The reported value: the median of the samples unless stated.
    value: f64,
    samples: Vec<f64>,
    deterministic: bool,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            unit,
            value: median(&samples),
            samples,
            deterministic: false,
        }
    }

    fn exact(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Self {
        Self {
            deterministic: true,
            ..Self::new(name, unit, samples)
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics from the traced passes (each with the host seconds
/// of the untraced pass run just before it), the set-up repetitions and
/// the probes.
fn per_layer(
    traced: &[(Pass, Vec<Span>)],
    untraced_s: &[f64],
    setups: &[SetupTimes],
    probe: &probe::ProbeCosts,
) -> Vec<Metric> {
    let mut out = vec![
        Metric::new(
            "workloads.setup_ms",
            "ms",
            setups.iter().map(|s| s.inputs_ms).collect(),
        ),
        Metric::new(
            "compiler.program_ms",
            "ms",
            setups.iter().map(|s| s.program_ms).collect(),
        ),
        Metric::new(
            "compiler.memoize_ms",
            "ms",
            setups.iter().map(|s| s.memoize_ms).collect(),
        ),
        Metric::new(
            "sim.lower_ms",
            "ms",
            setups.iter().map(|s| s.lower_ms).collect(),
        ),
    ];
    let each = |f: &dyn Fn(&Pass) -> f64| traced.iter().map(|(p, _)| f(p)).collect::<Vec<f64>>();

    // Host-time attribution from the spans.
    let mut self_ms: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut total_ms: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut share: HashMap<&str, Vec<f64>> = HashMap::new();
    for (_, spans) in traced {
        let selfs = self_times(spans);
        let root_ns = spans.first().map_or(0, Span::dur_ns) as f64;
        for name in SPANS {
            let (mut self_ns, mut total_ns) = (0, 0);
            for (s, &t) in spans.iter().zip(&selfs).filter(|(s, _)| s.name == name) {
                self_ns += t;
                total_ns += s.dur_ns();
            }
            self_ms.entry(name).or_default().push(self_ns as f64 / 1e6);
            total_ms
                .entry(name)
                .or_default()
                .push(total_ns as f64 / 1e6);
            share
                .entry(name)
                .or_default()
                .push(100.0 * ratio(self_ns as f64, root_ns));
        }
    }
    out.push(Metric::new(
        "ledger.harness_ms",
        "ms",
        self_ms["ledger.pass"].clone(),
    ));
    for name in &SPANS[1..] {
        out.push(Metric::new(
            format!("{name}.self_ms"),
            "ms",
            self_ms[name].clone(),
        ));
        out.push(Metric::new(
            format!("{name}.share"),
            "%",
            share[name].clone(),
        ));
    }
    // Whole-span time of the layer calls compared most often, and the
    // simulated instructions per host second inside the two `sim` legs.
    for (name, insts) in [
        ("sim.base", Some("sim.base_insts")),
        ("runner.memo_leg", Some("runner.memo_insts")),
        ("baselines.events", None),
        ("baselines.swlut", None),
    ] {
        let ms = &total_ms[name];
        out.push(Metric::new(format!("{name}_ms"), "ms", ms.clone()));
        if let Some(insts) = insts {
            let mips = traced
                .iter()
                .zip(ms)
                .map(|((p, _), &ms)| ratio(p.counter(insts) as f64, ms * 1e3))
                .collect();
            out.push(Metric::new(format!("{name}_mips"), "MIPS", mips));
        }
    }
    out.push(Metric::new(
        "trace.overhead_pct",
        "%",
        traced
            .iter()
            .zip(untraced_s)
            .map(|((p, _), &plain)| 100.0 * (p.wall_s / plain - 1.0))
            .collect(),
    ));

    // Simulated model and layer counters (deterministic).
    for (name, unit) in [
        ("sim.insts", "count"),
        ("sim.cycles", "cycles"),
        ("sim.l1d_accesses", "count"),
        ("sim.l2_accesses", "count"),
        ("sim.dram_accesses", "count"),
        ("sim.branch_bubbles", "cycles"),
        ("sim.memo_stall_cycles", "cycles"),
        ("sim.crc_beats", "count"),
        ("runner.memo_legs", "count"),
        ("runner.baselines_computed", "count"),
        ("runner.baselines_reused", "count"),
        ("runner.programs_compiled", "count"),
        ("runner.programs_reused", "count"),
        ("core.lookups", "count"),
        ("core.sampled_misses", "count"),
        ("core.updates", "count"),
        ("core.input_bytes", "B"),
        ("core.invalidates", "count"),
        ("core.l1_evictions", "count"),
        ("core.l2_evictions", "count"),
        ("snapshot.bytes", "B"),
        ("snapshot.entries_restored", "count"),
        ("snapshot.entries_discarded", "count"),
        ("baselines.events", "count"),
        ("orchestrator.jobs", "count"),
        ("orchestrator.retries", "count"),
        ("orchestrator.faults_cleared", "count"),
    ] {
        out.push(Metric::exact(name, unit, each(&|p| p.counter(name) as f64)));
    }
    out.push(Metric::exact(
        "sim.ipc",
        "inst/cycle",
        each(&|p| {
            ratio(
                p.counter("sim.insts") as f64,
                p.counter("sim.cycles") as f64,
            )
        }),
    ));
    out.push(Metric::exact(
        "core.hit_rate",
        "%",
        each(&|p| {
            100.0
                * ratio(
                    p.counter("core.reported_hits") as f64,
                    p.counter("core.lookups") as f64,
                )
        }),
    ));
    out.push(Metric::exact(
        "core.l2_hit_share",
        "%",
        each(&|p| {
            100.0
                * ratio(
                    p.counter("core.l2_hits") as f64,
                    p.counter("core.reported_hits") as f64,
                )
        }),
    ));

    // Orchestrator host time (fault_sweep; zero elsewhere).
    let orch = |f: &dyn Fn(&workloads::OrchTiming, f64) -> f64| {
        each(&|p| p.orch.as_ref().map_or(0.0, |o| f(o, p.wall_s * 1e3)))
    };
    let busy = |o: &workloads::OrchTiming| o.job_ms.iter().sum::<f64>() / o.workers as f64;
    out.push(Metric::new(
        "orchestrator.busy_frac",
        "share",
        orch(&|o, pass_ms| ratio(busy(o), pass_ms)),
    ));
    out.push(Metric::new(
        "orchestrator.tail_ms",
        "ms",
        orch(&|o, pass_ms| pass_ms - busy(o)),
    ));
    for (name, q) in [
        ("orchestrator.job_p50_ms", 0.5),
        ("orchestrator.job_p90_ms", 0.9),
    ] {
        out.push(Metric::new(
            name,
            "ms",
            orch(&|o, _| {
                let mut v = o.job_ms.clone();
                v.sort_by(f64::total_cmp);
                let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
                v.get(rank - 1).copied().unwrap_or(0.0)
            }),
        ));
    }

    // Where simulated cycles went, from the profiler (deterministic).
    let phase = |p: &Pass, leaves: &[&str]| -> f64 {
        p.profile.as_ref().map_or(0, |prof| {
            prof.phases
                .iter()
                .filter(|(path, _)| leaves.contains(&path.rsplit(';').next().unwrap_or("")))
                .map(|(_, s)| s.cycles)
                .sum::<u64>()
        }) as f64
    };
    for (name, leaves) in [
        (
            "profile.dispatch_cycles",
            &["dispatch", "dispatch.threaded", "dispatch.batched"][..],
        ),
        ("profile.crc_beat_cycles", &["crc.beat"][..]),
        ("profile.lut_l1_search_cycles", &["lut.l1.search"][..]),
        ("profile.lut_l2_probe_cycles", &["lut.l2.probe"][..]),
        ("profile.lut_update_cycles", &["lut.update"][..]),
    ] {
        out.push(Metric::exact(name, "cycles", each(&|p| phase(p, leaves))));
    }
    out.push(Metric::exact(
        "profile.attribution_skew_pct",
        "%",
        each(&|p| {
            let attributed = p
                .profile
                .as_ref()
                .and_then(|prof| prof.phases.get("run"))
                .map_or(0.0, |run| (run.total - run.cycles) as f64);
            100.0
                * ratio(
                    attributed - p.profiled_cycles as f64,
                    p.profiled_cycles as f64,
                )
        }),
    ));

    out.push(Metric::new(
        "core.feed_ns_per_byte",
        "ns/B",
        vec![probe.feed_ns_per_byte],
    ));
    out.push(Metric::new("core.lookup_ns", "ns", vec![probe.lookup_ns]));
    out.push(Metric::new("core.update_ns", "ns", vec![probe.update_ns]));
    out.push(Metric::new(
        "snapshot.write_ms",
        "ms",
        vec![probe.snapshot_write_ms],
    ));
    out.push(Metric::new(
        "snapshot.load_ms",
        "ms",
        vec![probe.snapshot_load_ms],
    ));
    out
}

// ---------------------------------------------------------------------
// One workload
// ---------------------------------------------------------------------

#[derive(Debug)]
struct WorkloadRun {
    workload: Workload,
    scale: &'static str,
    passes: usize,
    setup_reps: usize,
    /// Median reference-leg time of the run, for the host fingerprint.
    ref_leg_ms: f64,
    attempted: usize,
    failed: usize,
    golden_ok: Option<bool>,
    end_to_end: Vec<Metric>,
    fidelity: Vec<Metric>,
    per_layer: Vec<Metric>,
    spans: Vec<Vec<Span>>,
}

impl WorkloadRun {
    fn correct(&self) -> bool {
        self.failed == 0 && self.golden_ok != Some(false)
    }
}

/// Orchestrator workers: at most two, and no more than the host has.
fn jobs() -> usize {
    available_parallelism().min(2)
}

/// The pass context of `w`, with its state directory under `tmp`.
fn context(
    w: Workload,
    scale: Scale,
    seed: u64,
    tmp: &Path,
    base_programs: BasePrograms,
) -> Result<Ctx, String> {
    let state_dir = tmp.join(w.name());
    std::fs::create_dir_all(&state_dir)
        .map_err(|e| format!("create {}: {e}", state_dir.display()))?;
    Ok(Ctx {
        scale,
        seed,
        jobs: jobs(),
        state_dir,
        base_programs,
    })
}

/// Byte-compare the tiny-scale report of `w` with its committed golden,
/// which the figure bins are tested against too: a mismatch means the
/// ledger no longer drives the same code as the bins. `None` for a
/// workload without a golden.
fn bin_golden_matches(w: Workload, goldens: &Path, tmp: &Path) -> Result<Option<bool>, String> {
    let ctx = context(w, Scale::Tiny, GOLDEN_SEED, tmp, Vec::new())?;
    let mut off = Tracer::off();
    let (file, pass) = match w {
        Workload::Fig7 => ("fig7_tiny.golden.json", run_pass(w, &ctx, &mut off, false)),
        Workload::FaultSweep => {
            let benches = ["blackscholes".to_string(), "sobel".to_string()];
            (
                "fault_sweep_reduced.golden.json",
                workloads::fault_sweep(&ctx, GOLDEN_SEED, &benches, &mut off, false),
            )
        }
        Workload::SimBase | Workload::WarmStart => return Ok(None),
    };
    Ok(Some(golden_matches(
        goldens,
        file,
        pass.report_json.as_deref(),
    )))
}

/// Timed passes of a `w` run asked to last `seconds`. The count follows
/// from the request alone, never from how fast the passes run, so two
/// commits run with the same `seconds` time the same work.
fn timed_passes(w: Workload, seconds: f64) -> usize {
    ((seconds / w.pass_seconds()).round() as usize).max(MIN_PASSES)
}

fn run_workload(args: &Args, tmp: &Path) -> Result<WorkloadRun, String> {
    let w = args.workload;
    let scale = w.scale(args.smoke);
    let passes = if args.smoke {
        SMOKE_PASSES
    } else {
        timed_passes(w, args.seconds)
    };
    eprintln!(
        "bench_ledger: {} at {} scale, {passes} timed passes",
        w.name(),
        scale_name(scale)
    );
    // Set-up repetitions back to back before any pass, the way a figure
    // run sets up once when it starts.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut setup_legs = Vec::with_capacity(SETUP_REPS);
    let mut base_programs = Vec::new();
    for _ in 0..SETUP_REPS {
        let (done, leg_ms) = between_reference_legs(|| set_up(scale));
        let (times, programs) = done?;
        setups.push(times);
        setup_legs.push(leg_ms);
        base_programs = programs;
    }
    let ctx = context(w, scale, args.seed, tmp, base_programs)?;
    let mut checker = Checker {
        expected: Expected::committed(w),
        scale: scale_name(scale).to_string(),
        seed: args.seed.to_string(),
        reference: None,
        attempted: 0,
        failed: 0,
    };
    let mut off = Tracer::off();

    // Warm-up: fills the allocator and page cache; checked, not timed.
    let warm = run_pass(w, &ctx, &mut off, false);
    checker.check(&warm);
    // Set-up plus one pass is what one figure run holds. Later passes
    // would add whatever the allocator kept from earlier ones, which
    // differs from run to run.
    let rss_mb = peak_rss_mb();
    let fidelity = warm.fidelity.map_or_else(Vec::new, |f| {
        let err = |x: f64, paper: f64| vec![100.0 * (x - paper).abs() / paper];
        vec![
            Metric::exact("paper_speedup_err_pct", "%", err(f.speedup, PAPER_SPEEDUP)),
            Metric::exact("paper_energy_err_pct", "%", err(f.energy, PAPER_ENERGY)),
            Metric::exact("paper_hit_err_pct", "%", err(f.hit_pct, PAPER_HIT_PCT)),
        ]
    });

    // Every pass simulates the same instructions (the digests check it).
    let insts = warm.counter("sim.insts") as f64;
    drop(warm);

    let mut wall = Vec::with_capacity(passes);
    let mut pass_legs = Vec::with_capacity(passes);
    for _ in 0..passes {
        let (pass, leg_ms) = between_reference_legs(|| run_pass(w, &ctx, &mut off, false));
        checker.check(&pass);
        wall.push(pass.wall_s);
        pass_legs.push(leg_ms);
    }
    let golden_ok = bin_golden_matches(w, &args.goldens, tmp)?;

    // Other tenants of a shared host slow it by up to 2x for seconds to
    // minutes at a time, and never speed it up. The fastest pass ran in
    // the run's fastest stretch, which the fastest reference leg gauges,
    // so their ratio tracks the work itself. A set-up repetition is short
    // enough to scale by the legs right around it (README, "Measurement").
    let setup_s: Vec<f64> = setups.iter().map(SetupTimes::total_s).collect();
    let speed = REF_LEG_MS / least(&pass_legs);
    let wall_s = Metric {
        value: least(&wall) * speed,
        ..Metric::new("wall_s", "s", wall.iter().map(|s| s * speed).collect())
    };
    let mips = Metric {
        value: insts / wall_s.value / 1e6,
        ..Metric::new(
            "sim_mips",
            "MIPS",
            wall_s.samples.iter().map(|w| insts / w / 1e6).collect(),
        )
    };
    let mut end_to_end = vec![
        wall_s,
        Metric::new("setup_s", "s", at_reference_speed(&setup_s, &setup_legs)),
        mips,
        Metric::new("peak_rss_mb", "MB", vec![rss_mb]),
        Metric::new("host_wall_s", "s", wall),
        Metric::new("host_setup_s", "s", setup_s),
    ];
    let legs = Metric::new("ref_leg_ms", "ms", [setup_legs, pass_legs].concat());
    let ref_leg_ms = legs.value;
    end_to_end.push(legs);

    let mut per_layer_metrics = Vec::new();
    let mut spans = Vec::new();
    if args.trace {
        let mut traced = Vec::with_capacity(TRACED_PASSES);
        let mut untraced_s = Vec::with_capacity(TRACED_PASSES);
        for _ in 0..TRACED_PASSES {
            // An untraced pass right before each traced one, so the
            // tracing overhead compares passes that ran moments apart.
            let plain = run_pass(w, &ctx, &mut off, false);
            checker.check(&plain);
            untraced_s.push(plain.wall_s);
            let mut tracer = Tracer::on();
            let pass = run_pass(w, &ctx, &mut tracer, true);
            checker.check(&pass);
            traced.push((pass, tracer.take()));
        }
        let probe = probe::run(Workload::Fig7.scale(args.smoke), &tmp.join("probe"))?;
        per_layer_metrics = per_layer(&traced, &untraced_s, &setups, &probe);
        spans = traced.into_iter().map(|(_, s)| s).collect();
    }
    end_to_end.push(Metric::exact(
        "failed_frac",
        "share",
        vec![ratio(checker.failed as f64, checker.attempted as f64)],
    ));
    Ok(WorkloadRun {
        workload: w,
        scale: scale_name(scale),
        passes,
        setup_reps: setups.len(),
        ref_leg_ms,
        attempted: checker.attempted,
        failed: checker.failed,
        golden_ok,
        end_to_end,
        fidelity,
        per_layer: per_layer_metrics,
        spans,
    })
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    escape_json(s, &mut out);
    out.push('"');
    out
}

fn metric_json(m: &Metric) -> String {
    let (q1, q3) = quartiles(&m.samples);
    let samples: Vec<String> = m.samples.iter().map(|&x| num(x)).collect();
    format!(
        "{}:{{\"value\":{},\"unit\":{},\"median\":{},\"q1\":{},\"q3\":{},\"n\":{},\"deterministic\":{},\"samples\":[{}]}}",
        quote(&m.name),
        num(m.value),
        quote(m.unit),
        num(median(&m.samples)),
        num(q1),
        num(q3),
        m.samples.len(),
        m.deterministic,
        samples.join(",")
    )
}

fn metrics_json(ms: &[Metric]) -> String {
    let parts: Vec<String> = ms.iter().map(metric_json).collect();
    format!("{{{}}}", parts.join(","))
}

fn document(args: &Args, r: &WorkloadRun) -> String {
    format!(
        "{{\"ledger\":\"bench_ledger/1\",\"host\":{{\"available_parallelism\":{},\"cpu_model\":{},\"ref_leg_ms\":{},\"ref_leg_scale_ms\":{},\"jobs\":{}}},\"seed\":{},\"seconds\":{},\"smoke\":{},\"trace\":{},\"workloads\":{{{}:{{\"scale\":{},\"passes\":{},\"setup_reps\":{},\"traced_passes\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"golden_ok\":{},\"end_to_end\":{},\"fidelity\":{},\"per_layer\":{}}}}}}}",
        available_parallelism(),
        quote(&cpu_model()),
        num(r.ref_leg_ms),
        num(REF_LEG_MS),
        jobs(),
        args.seed,
        num(args.seconds),
        args.smoke,
        args.trace,
        quote(r.workload.name()),
        quote(r.scale),
        r.passes,
        r.setup_reps,
        r.spans.len(),
        r.correct(),
        r.attempted,
        r.failed,
        r.golden_ok.map_or("null".to_string(), |ok| ok.to_string()),
        metrics_json(&r.end_to_end),
        metrics_json(&r.fidelity),
        metrics_json(&r.per_layer),
    )
}

/// The summary object: the metrics `BENCHMARK.json` declares for this
/// mode.
fn summary(args: &Args, spec: &Spec, r: &WorkloadRun) -> (String, bool) {
    let (declared, have) = if args.trace {
        (&spec.per_layer, &r.per_layer)
    } else {
        (&spec.end_to_end, &r.end_to_end)
    };
    let mut correct = r.correct();
    let mut metrics = Vec::new();
    for d in declared {
        match have.iter().find(|m| m.name == d.name) {
            Some(m) => metrics.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(&d.name),
                num(m.value),
                quote(m.unit)
            )),
            None => {
                eprintln!("bench_ledger: metric {} was not measured", d.name);
                correct = false;
            }
        }
    }
    (
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            r.attempted,
            r.failed,
            metrics.join(",")
        ),
        correct,
    )
}

fn write_spans(path: &Path, r: &WorkloadRun) -> std::io::Result<()> {
    let mut out = String::new();
    for (pass, spans) in r.spans.iter().enumerate() {
        for ((i, s), self_ns) in spans.iter().enumerate().zip(self_times(spans)) {
            let _ = writeln!(
                out,
                "{{\"workload\":{},\"pass\":{pass},\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{},\"cell\":{}}}",
                quote(r.workload.name()),
                quote(s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                quote(&s.cell),
            );
        }
    }
    std::fs::write(path, out)
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = Spec::committed();
    let tmp = TempDir::new()?;
    let r = run_workload(args, &tmp.0).map_err(|e| format!("{}: {e}", args.workload.name()))?;
    if let Some(path) = &args.trace_out {
        write_spans(path, &r).map_err(|e| format!("--trace-out {}: {e}", path.display()))?;
    }
    let (line, correct) = summary(args, &spec, &r);
    println!("{}", document(args, &r));
    println!("{line}");
    Ok(correct)
}

// ---------------------------------------------------------------------
// diff and bless
// ---------------------------------------------------------------------

/// `diff PARENT... -- CHANGE...`: true when no pair reads worse.
fn diff_main(files: &[String]) -> Result<bool, String> {
    let cut = files
        .iter()
        .position(|f| f == "--")
        .filter(|&cut| cut > 0 && cut + 1 < files.len())
        .ok_or("diff needs parent ledgers, then --, then change ledgers")?;
    let load = |paths: &[String]| -> Result<Vec<Json>, String> {
        paths
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                diff::document(&text).map_err(|e| format!("{p}: {e}"))
            })
            .collect()
    };
    let rows = diff::compare(
        &Spec::committed(),
        &load(&files[..cut])?,
        &load(&files[cut + 1..])?,
    );
    print!("{}", diff::render(&rows));
    Ok(rows.iter().all(|r| r.verdict != diff::Verdict::Worse))
}

/// Regenerate the committed digest files from one pass of every
/// workload at its own scale and at tiny scale, seed 7.
fn bless(dir: &Path) -> Result<(), String> {
    let tmp = TempDir::new()?;
    for w in Workload::ALL {
        let mut text = format!(
            "# {} per-cell result digests: <scale> <seed or *> <cell> <fnv64>.\n\
             # Regenerate with `bench_ledger bless <this directory>`.\n",
            w.name()
        );
        for smoke in [false, true] {
            let scale = w.scale(smoke);
            let (_, base_programs) = set_up(scale)?;
            let ctx = context(w, scale, GOLDEN_SEED, &tmp.0, base_programs)?;
            let pass = run_pass(w, &ctx, &mut Tracer::off(), false);
            for cell in &pass.cells {
                if cell.errored {
                    return Err(format!("{} {} errored", scale_name(scale), cell.id));
                }
                let seed = if cell.seeded {
                    GOLDEN_SEED.to_string()
                } else {
                    "*".to_string()
                };
                let _ = writeln!(
                    text,
                    "{} {seed} {} {:016x}",
                    scale_name(scale),
                    cell.id,
                    cell.digest
                );
            }
        }
        let path = dir.join(format!("{}.digests", w.name()));
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("bench_ledger: wrote {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let a = parse("--workload sim_base --seed 3 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::SimBase);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.5, true));
        for bad in [
            "",
            "--workload nope",
            "--workload all",
            "--workload fig7 --trace 2",
            "--workload fig7 --seconds -1",
            "--workload fig7 --seconds 1e9",
            "--workload fig7 --seed",
            "--workload fig7 --bogus",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn pass_counts_follow_the_requested_seconds_alone() {
        assert_eq!(timed_passes(Workload::Fig7, 10.0), 20);
        assert_eq!(timed_passes(Workload::FaultSweep, 10.0), 14);
        assert_eq!(timed_passes(Workload::SimBase, 10.0), 13);
        assert_eq!(timed_passes(Workload::WarmStart, 0.0), MIN_PASSES);
    }

    #[test]
    fn expected_digests_pin_their_seed() {
        let e = Expected::parse("# c\nsmall * a/cfg0 00000000000000ff\nsmall 7 b:x 0a\n");
        let key = |s: &str, d: &str, id: &str| (s.to_string(), d.to_string(), id.to_string());
        assert_eq!(e.digests.get(&key("small", "*", "a/cfg0")), Some(&255));
        assert_eq!(e.digests.get(&key("small", "7", "b:x")), Some(&10));
        assert!(e.pinned.contains(&("small".to_string(), "7".to_string())));
        assert!(!e.pinned.contains(&("small".to_string(), "8".to_string())));
    }
}
