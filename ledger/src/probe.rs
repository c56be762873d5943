//! Fixed-work host-cost probes of the memoization unit and the snapshot
//! format, run once after the traced passes of a `--trace 1` run. They replay
//! the lookup-event streams fig7 records (the software-LUT contender's
//! input) into fresh units, so the work is the same on every workload
//! and their per-operation costs compare across runs and hosts.

use std::path::Path;
use std::time::{Duration, Instant};

use axmemo_bench::collect_events;
use axmemo_core::config::MemoConfig;
use axmemo_core::ids::ThreadId;
use axmemo_core::snapshot::MemoSnapshot;
use axmemo_core::unit::{LookupEvent, LookupResult, MemoizationUnit};
use axmemo_workloads::{all_benchmarks, Scale};

use axmemo_ledger::stats::median;

/// Repetitions of each probe; the median is reported.
const REPS: usize = 5;

/// Per-operation host costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeCosts {
    /// `feed_bytes` nanoseconds per input byte.
    pub feed_ns_per_byte: f64,
    /// `lookup` nanoseconds per call.
    pub lookup_ns: f64,
    /// `update` nanoseconds per call.
    pub update_ns: f64,
    /// `write_atomic` of the ten replayed images, milliseconds.
    pub snapshot_write_ms: f64,
    /// `load` of the ten images, milliseconds.
    pub snapshot_load_ms: f64,
}

/// How far a replay goes: each stage adds one unit operation, so the
/// cost of an operation is the difference between two stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Feed,
    Lookup,
    Update,
}

/// What one replay did.
#[derive(Debug)]
struct Replay {
    elapsed: Duration,
    updates: u64,
    /// Lookups whose hit or miss differs from the recorded one (the
    /// `Update` stage only).
    diverged: u64,
    unit: MemoizationUnit,
}

/// Replay `events` into a fresh unit up to `stage`.
fn replay(events: &[LookupEvent], cfg: &MemoConfig, stage: Stage) -> Replay {
    let mut unit = MemoizationUnit::new(cfg.clone()).expect("the recording config validated");
    let tid = ThreadId(0);
    let (mut updates, mut diverged) = (0, 0);
    let started = Instant::now();
    for ev in events {
        unit.feed_bytes(ev.lut, tid, &ev.input_bytes);
        if stage == Stage::Feed {
            continue;
        }
        let result = unit.lookup(ev.lut, tid);
        if stage == Stage::Update {
            let hit = !matches!(result, LookupResult::Miss);
            diverged += u64::from(hit != ev.hit);
            if !hit {
                unit.update(ev.lut, tid, ev.data.unwrap_or(0));
                updates += 1;
            }
        }
    }
    let elapsed = started.elapsed();
    std::hint::black_box(&unit);
    Replay {
        elapsed,
        updates,
        diverged,
        unit,
    }
}

/// Record the streams at `scale` and time the unit and snapshot
/// operations, writing snapshot files under `dir`.
///
/// # Errors
///
/// A recording or snapshot I/O failure, named.
pub fn run(scale: Scale, dir: &Path) -> Result<ProbeCosts, String> {
    let mut streams = Vec::new();
    for bench in all_benchmarks() {
        let inputs = collect_events(bench.as_ref(), scale)
            .map_err(|e| format!("probe: record {}: {e}", bench.meta().name))?;
        // The configuration `collect_events` records with, which it does
        // not export. `run` fails if a replay's hits and misses stop
        // matching the recorded ones, so a change on either side shows.
        let cfg = MemoConfig {
            data_width: bench.data_width(),
            quality_monitoring: false,
            ..MemoConfig::l1_l2(16 * 1024, 512 * 1024)
        };
        streams.push((bench.meta().name, inputs.events, cfg));
    }
    let bytes: usize = streams
        .iter()
        .flat_map(|(_, events, _)| events)
        .map(|e| e.input_bytes.len())
        .sum();
    let lookups: usize = streams.iter().map(|(_, events, _)| events.len()).sum();

    let mut stage_ns = [Vec::new(), Vec::new(), Vec::new()];
    let mut updates = 0;
    let mut units = Vec::new();
    for rep in 0..REPS {
        for (i, stage) in [Stage::Feed, Stage::Lookup, Stage::Update]
            .into_iter()
            .enumerate()
        {
            let mut total = Duration::ZERO;
            for (name, events, cfg) in &streams {
                let r = replay(events, cfg, stage);
                total += r.elapsed;
                if r.diverged > 0 {
                    return Err(format!(
                        "probe: {name}: {} of {} replayed lookups differ from the recording",
                        r.diverged,
                        events.len()
                    ));
                }
                if stage == Stage::Update && rep == 0 {
                    updates += r.updates;
                    units.push(r.unit);
                }
            }
            stage_ns[i].push(total.as_nanos() as f64);
        }
    }
    let [feed, lookup, update] = stage_ns.map(|v| median(&v));

    std::fs::create_dir_all(dir).map_err(|e| format!("probe: create {}: {e}", dir.display()))?;
    let images: Vec<(String, MemoSnapshot)> = units
        .into_iter()
        .zip(&streams)
        .map(|(mut unit, (name, _, _))| {
            unit.arm_warm_capture();
            let image = unit.take_warm_image().expect("capture was armed");
            (name.to_string(), image)
        })
        .collect();
    let (mut write_ms, mut load_ms) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let started = Instant::now();
        for (name, image) in &images {
            let path = dir.join(format!("{name}.axmsnap"));
            image
                .write_atomic(&path)
                .map_err(|e| format!("probe: {e}"))?;
        }
        write_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        for (name, _) in &images {
            let path = dir.join(format!("{name}.axmsnap"));
            let loaded = MemoSnapshot::load(&path).map_err(|e| format!("probe: {e}"))?;
            std::hint::black_box(loaded);
        }
        load_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }

    Ok(ProbeCosts {
        feed_ns_per_byte: feed / bytes.max(1) as f64,
        lookup_ns: (lookup - feed) / lookups.max(1) as f64,
        update_ns: (update - lookup) / updates.max(1) as f64,
        snapshot_write_ms: median(&write_ms),
        snapshot_load_ms: median(&load_ms),
    })
}
