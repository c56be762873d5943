//! Integration tests for the telemetry layer: the structured event
//! stream must *reconcile exactly* with the statistics the figures
//! report, and the JSONL trace must be well-formed line by line.

use axmemo_bench::paper_configs;
use axmemo_core::config::MemoConfig;
use axmemo_sim::{SimConfig, Simulator};
use axmemo_telemetry::{JsonlSink, RingBufferSink, Telemetry};
use axmemo_workloads::runner::{run_benchmark_report_cached, BaseProgram, RunOptions};
use axmemo_workloads::{all_benchmarks, benchmark_by_name, Dataset, Scale};

/// Every `TwoLevelLut` probe emits exactly one `lut.hit` or `lut.miss`
/// event, so the event totals must reproduce `BenchmarkResult.hit_rate`
/// (which is computed from the LUT's own statistics) exactly.
#[test]
fn lut_events_reconcile_with_benchmark_hit_rate() {
    let bench = benchmark_by_name("kmeans").expect("kmeans registered");
    let sink = RingBufferSink::new(4_000_000);
    let mut tel = Telemetry::enabled();
    tel.add_sink(Box::new(sink.clone()));
    let cfg = MemoConfig::l1_l2(4 * 1024, 64 * 1024);
    let report = run_benchmark_report_cached(
        bench.as_ref(),
        Scale::Tiny,
        Dataset::Eval,
        &cfg,
        RunOptions::default(),
        tel,
        None,
    )
    .expect("run succeeds");

    assert_eq!(sink.dropped(), 0, "ring buffer must not have evicted");
    let hits = sink.count_kind("lut.hit") as u64;
    let misses = sink.count_kind("lut.miss") as u64;
    assert!(hits + misses > 0, "the run must probe the LUT");

    // Event stream vs the LUT's own counters: exact.
    assert_eq!(hits, report.l1_lut.hits + report.l2_lut.hits);
    assert_eq!(hits + misses, report.l1_lut.hits + report.l1_lut.misses);

    // Event stream vs the registry counters: exact.
    let reg = report.telemetry.registry();
    assert_eq!(reg.counter("lut.probes"), hits + misses);
    assert_eq!(
        reg.counter("lut.l1.hits") + reg.counter("lut.l2.hits"),
        hits
    );

    // Event stream vs the figure-facing hit rate: exact (identical
    // integer division on both sides).
    let event_rate = hits as f64 / (hits + misses) as f64;
    assert_eq!(
        event_rate,
        report.result.hit_rate,
        "events {hits}/{} vs hit_rate {}",
        hits + misses,
        report.result.hit_rate
    );
}

/// The run executes under a `run:<name>` span, and unit-level counters
/// land in the registry.
#[test]
fn run_report_carries_span_and_counters() {
    let bench = benchmark_by_name("fft").expect("fft registered");
    let tel = Telemetry::enabled();
    let cfg = MemoConfig::l1_only(4 * 1024);
    let report = run_benchmark_report_cached(
        bench.as_ref(),
        Scale::Tiny,
        Dataset::Eval,
        &cfg,
        RunOptions::default(),
        tel,
        None,
    )
    .expect("run succeeds");
    let tel = &report.telemetry;
    let spans = tel.spans();
    assert_eq!(spans.len(), 1, "one span per benchmark run");
    assert_eq!(spans[0].path, "run:fft");
    assert!(spans[0].cycles() > 0, "span must cover the simulated run");
    assert!(tel.registry().counter("inst.total") > 0);
    assert!(tel.registry().counter("lut.updates") > 0);
    // The report's own fields agree with the run they describe.
    let r = &report.result;
    assert!((0.0..=1.0).contains(&r.hit_rate), "hit rate {}", r.hit_rate);
    assert!(r.baseline_stats.cycles > 0 && r.memo_stats.cycles > 0);
    assert_eq!(r.memo_stats.cycles, spans[0].cycles());
    assert_eq!(
        report.unit_stats.lookups,
        report.l1_lut.hits + report.l1_lut.misses
    );
    assert_eq!(report.l2_lut, Default::default(), "single-level config");
    assert!(report.recovery.is_none(), "cold run");
}

/// The profiler attributes exactly the simulated cycles each interpreter
/// reports, on every benchmark under every paper configuration: its
/// leaves hold only cycles that delayed an issue, and the threaded tier
/// carries a lookup latency that outlasts its superblock into the next
/// superblock's charge.
#[test]
fn threaded_cycle_attribution_is_exact() {
    for bench in all_benchmarks() {
        let b = bench.as_ref();
        let name = b.meta().name;
        let base = BaseProgram::build(b, Scale::Tiny);
        let program = base.memoized(false).expect("tiny codegen");
        let memo_leg = base.memo_leg(false).expect("tiny codegen");
        let inputs = b.setup(Scale::Tiny, Dataset::Eval);
        for (label, memo) in paper_configs() {
            for reference in [false, true] {
                let cfg = SimConfig::with_memo(MemoConfig {
                    data_width: b.data_width(),
                    ..memo.clone()
                });
                let mut sim = Simulator::new(cfg).expect("valid config");
                let mut tel = Telemetry::off();
                tel.profiler_mut().enable();
                sim.set_telemetry(tel);
                let mut machine = inputs.clone();
                let stats = if reference {
                    sim.run_reference(&program, &mut machine, None)
                } else {
                    sim.run_prepared_threaded(&memo_leg, &mut machine)
                }
                .expect("run succeeds");
                let profile = sim.take_telemetry().take_profile().expect("profiler on");
                assert_eq!(
                    profile.phases["dispatch"].total, stats.cycles,
                    "{name} {label} reference={reference}: attributed vs reported cycles"
                );
            }
        }
    }
}

/// `--trace-out`-style JSONL must be one well-formed JSON object per
/// line (checked with a small validating parser — no external crates).
#[test]
fn jsonl_trace_is_valid_per_line() {
    let bench = benchmark_by_name("kmeans").expect("kmeans registered");
    let path = std::env::temp_dir().join("axmemo-telemetry-test-trace.jsonl");
    let mut tel = Telemetry::enabled();
    tel.add_sink(Box::new(
        JsonlSink::create(&path).expect("trace file creatable"),
    ));
    let cfg = MemoConfig::l1_only(4 * 1024);
    run_benchmark_report_cached(
        bench.as_ref(),
        Scale::Tiny,
        Dataset::Eval,
        &cfg,
        RunOptions::default(),
        tel,
        None,
    )
    .expect("run succeeds");

    let contents = std::fs::read_to_string(&path).expect("trace readable");
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = contents.lines().collect();
    assert!(!lines.is_empty(), "trace must contain events");
    for (i, line) in lines.iter().enumerate() {
        assert!(
            json_object_is_valid(line),
            "line {} is not valid JSON: {line}",
            i + 1
        );
        assert!(
            line.contains("\"kind\":"),
            "line {} has no kind: {line}",
            i + 1
        );
        assert!(
            line.contains("\"cycle\":"),
            "line {} has no cycle: {line}",
            i + 1
        );
    }
    // Span enter/exit events bracket the run.
    assert!(lines[0].contains("\"kind\":\"span.enter\""));
    assert!(lines.last().unwrap().contains("\"kind\":\"span.exit\""));
}

/// Minimal recursive-descent JSON validator (objects, arrays, strings,
/// numbers, booleans, null) — enough to certify trace lines.
fn json_object_is_valid(s: &str) -> bool {
    let b = s.as_bytes();
    let mut pos = 0usize;
    value(b, &mut pos) && skip_ws(b, &mut pos) == b.len()
}

fn skip_ws(b: &[u8], pos: &mut usize) -> usize {
    while *pos < b.len() && (b[*pos] as char).is_ascii_whitespace() {
        *pos += 1;
    }
    *pos
}

fn value(b: &[u8], pos: &mut usize) -> bool {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return true;
            }
            loop {
                skip_ws(b, pos);
                if !string(b, pos) {
                    return false;
                }
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return false;
                }
                *pos += 1;
                if !value(b, pos) {
                    return false;
                }
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return true;
                    }
                    _ => return false,
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return true;
            }
            loop {
                if !value(b, pos) {
                    return false;
                }
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return true;
                    }
                    _ => return false,
                }
            }
        }
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, b"true"),
        Some(b'f') => literal(b, pos, b"false"),
        Some(b'n') => literal(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        _ => false,
    }
}

fn string(b: &[u8], pos: &mut usize) -> bool {
    if b.get(*pos) != Some(&b'"') {
        return false;
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return true;
            }
            b'\\' => *pos += 2,
            _ => *pos += 1,
        }
    }
    false
}

fn literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        true
    } else {
        false
    }
}

fn number(b: &[u8], pos: &mut usize) -> bool {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(&c) = b.get(*pos) {
        if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-' {
            *pos += 1;
        } else {
            break;
        }
    }
    *pos > start
}
