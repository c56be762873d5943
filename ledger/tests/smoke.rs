//! Runs `bench_ledger --smoke --trace 1` once per workload (tiny scale,
//! two timed passes, goldens byte-compared) and checks what it prints
//! against `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use axmemo_ledger::diff::{self, Verdict};
use axmemo_ledger::json::Json;
use axmemo_ledger::spec::Spec;

/// One workload's smoke run.
struct Run {
    workload: String,
    /// The standard output, saved for `bench_ledger diff`.
    file: PathBuf,
    doc: Json,
    summary: Json,
    spans: Vec<Json>,
}

fn smoke() -> &'static [Run] {
    static RUNS: OnceLock<Vec<Run>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ledger-smoke");
        std::fs::create_dir_all(&dir).expect("create the smoke directory");
        let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/data");
        Spec::committed()
            .workloads
            .into_iter()
            .map(|workload| {
                let spans_file = format!("{workload}.spans.jsonl");
                let out = Command::new(env!("CARGO_BIN_EXE_bench_ledger"))
                    .args(["--workload", &workload, "--smoke", "--trace", "1"])
                    .args(["--trace-out", &spans_file, "--goldens"])
                    .arg(&goldens)
                    .current_dir(&dir)
                    .output()
                    .expect("run bench_ledger");
                let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
                assert!(
                    out.status.success(),
                    "bench_ledger --smoke --workload {workload} failed:\n{}",
                    String::from_utf8_lossy(&out.stderr)
                );
                let file = dir.join(format!("{workload}.json"));
                std::fs::write(&file, &stdout).expect("save the ledger");
                let summary =
                    Json::parse(stdout.lines().last().expect("summary line")).expect("summary");
                let doc = diff::document(&stdout).expect("ledger document");
                let spans = std::fs::read_to_string(dir.join(&spans_file))
                    .expect("span trace written")
                    .lines()
                    .map(|l| Json::parse(l).expect("span line"))
                    .collect();
                Run {
                    workload,
                    file,
                    doc,
                    summary,
                    spans,
                }
            })
            .collect()
    })
}

impl Run {
    fn result(&self) -> &Json {
        self.doc
            .get("workloads")
            .and_then(|w| w.get(&self.workload))
            .unwrap_or_else(|| panic!("workload {} missing", self.workload))
    }
}

#[test]
fn every_declared_metric_is_reported_with_its_unit() {
    let spec = Spec::committed();
    for run in smoke() {
        let name = &run.workload;
        let s = &run.summary;
        assert_eq!(s.get("correct"), Some(&Json::Bool(true)), "{name}");
        assert_eq!(s.get("failed").and_then(Json::as_f64), Some(0.0), "{name}");
        assert!(
            s.get("attempted").and_then(Json::as_f64) > Some(0.0),
            "{name}"
        );
        let w = run.result();
        assert_eq!(w.get("correct"), Some(&Json::Bool(true)), "{name}");
        for (group, declared) in [
            ("end_to_end", &spec.end_to_end),
            ("per_layer", &spec.per_layer),
        ] {
            for m in declared {
                let got = w
                    .get(group)
                    .and_then(|g| g.get(&m.name))
                    .unwrap_or_else(|| panic!("{name}: {group} metric {} missing", m.name));
                assert_eq!(
                    got.get("unit").and_then(Json::as_str),
                    Some(m.unit.as_str()),
                    "{name} {}",
                    m.name
                );
                assert!(
                    got.get("value").and_then(Json::as_f64).is_some(),
                    "{name} {}",
                    m.name
                );
            }
        }
        // The summary line carries the per-layer set under --trace 1.
        for m in &spec.per_layer {
            let got = s.get("metrics").and_then(|ms| ms.get(&m.name));
            assert_eq!(
                got.and_then(|g| g.get("unit")).and_then(Json::as_str),
                Some(m.unit.as_str()),
                "{name} {}",
                m.name
            );
        }
    }
    assert!(spec.per_layer.len() <= 128);
}

#[test]
fn deterministic_metrics_repeat_exactly_across_reps() {
    for run in smoke() {
        let name = &run.workload;
        let w = run.result();
        for group in ["per_layer", "fidelity"] {
            for (metric, m) in w.get(group).and_then(Json::as_object).unwrap_or(&[]) {
                if m.get("deterministic") != Some(&Json::Bool(true)) {
                    continue;
                }
                let samples = m.get("samples").and_then(Json::as_array).expect("samples");
                assert!(
                    samples.windows(2).all(|p| p[0] == p[1]),
                    "{name} {metric} varies: {samples:?}"
                );
            }
        }
        let traced = w.get("traced_passes").and_then(Json::as_f64);
        assert!(traced >= Some(2.0), "{name}: at least two traced reps");
    }
}

#[test]
fn a_ledger_diffed_against_itself_is_unchanged() {
    let spec = Spec::committed();
    let docs: Vec<Json> = smoke().iter().map(|r| r.doc.clone()).collect();
    let rows = diff::compare(&spec, &docs, &docs);
    assert_eq!(rows.len(), spec.workloads.len() * spec.end_to_end.len());
    assert!(
        rows.iter().all(|r| r.verdict == Verdict::Unchanged),
        "{rows:?}"
    );

    let files: Vec<&Path> = smoke().iter().map(|r| r.file.as_path()).collect();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_ledger"))
        .arg("diff")
        .args(&files)
        .arg("--")
        .args(&files)
        .output()
        .expect("run bench_ledger diff");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert_eq!(text.matches("unchanged").count(), rows.len(), "{text}");
}

#[test]
fn traced_self_times_and_harness_time_add_up_to_the_root_span() {
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).expect("numeric span field");
    for run in smoke() {
        let name = &run.workload;
        let harness = run
            .result()
            .get("per_layer")
            .and_then(|p| p.get("ledger.harness_ms"))
            .and_then(|m| m.get("samples"))
            .and_then(Json::as_array)
            .expect("harness samples");
        for (pass, harness_ms) in harness.iter().enumerate() {
            let spans: Vec<&Json> = run
                .spans
                .iter()
                .filter(|j| j.get("pass").and_then(Json::as_f64) == Some(pass as f64))
                .collect();
            let root = spans
                .iter()
                .find(|j| j.get("parent") == Some(&Json::Null))
                .expect("root span");
            let root_ns = num(root, "end_ns") - num(root, "start_ns");
            let selfs: f64 = spans.iter().map(|j| num(j, "self_ns")).sum();
            assert_eq!(selfs, root_ns, "{name} pass {pass}");
            let harness_ns = harness_ms.as_f64().expect("harness ms") * 1e6;
            assert!(
                (harness_ns - num(root, "self_ns")).abs() < 1.0,
                "{name} pass {pass}"
            );
        }
    }
}
