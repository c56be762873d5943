//! Command-line contracts of the experiment binaries: flags a binary
//! cannot honour, unknown flags and benchmark-name typos exit 2 with a
//! message and the usage line, before any simulation runs; the
//! snapshot flags fig7–fig10 do honour write one file per benchmark.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env("AXMEMO_SCALE", "tiny")
        .output()
        .expect("binary runs")
}

/// Asserts a usage error: exit 2, nothing on stdout, and a stderr that
/// names every string in `mentions` and carries the usage line.
fn assert_usage_error(bin: &str, args: &[&str], mentions: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?}: no report on a usage error"
    );
    for m in mentions {
        assert!(
            stderr.contains(m),
            "{args:?}: stderr must name {m:?}: {stderr}"
        );
    }
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
}

const WARM_START: &str = env!("CARGO_BIN_EXE_warm_start");
const FAULT_SWEEP: &str = env!("CARGO_BIN_EXE_fault_sweep");
const FIG8: &str = env!("CARGO_BIN_EXE_fig8");
const FIG11: &str = env!("CARGO_BIN_EXE_fig11");
const ALL_EXPERIMENTS: &str = env!("CARGO_BIN_EXE_all_experiments");
const ATM_COMPARE: &str = env!("CARGO_BIN_EXE_atm_compare");

#[test]
fn warm_start_rejects_unknown_benchmark_names() {
    assert_usage_error(
        WARM_START,
        &["--benches", "blackscholse"],
        &["blackscholse"],
    );
    // Known names next to a typo do not hide it.
    assert_usage_error(
        WARM_START,
        &["--benches", "fft,sobell,blackscholes"],
        &["sobell"],
    );
}

#[test]
fn fault_sweep_rejects_unknown_benchmark_names() {
    assert_usage_error(FAULT_SWEEP, &["--benches", "bogus"], &["bogus"]);
    assert_usage_error(
        FAULT_SWEEP,
        &["--benches", "blackscholes,sobell", "--jobs", "1"],
        &["sobell"],
    );
}

#[test]
fn removed_flags_exit_2() {
    // The legacy interpreter is a test reference, not a flag; every
    // run shares baselines, so the cache cannot be switched off.
    for bin in [FIG11, FAULT_SWEEP, WARM_START] {
        assert_usage_error(bin, &["--dispatch", "legacy"], &["--dispatch"]);
        assert_usage_error(bin, &["--no-baseline-cache"], &["--no-baseline-cache"]);
    }
}

#[test]
fn seed_exits_2_where_nothing_reads_it() {
    // Only fault_sweep (also through all_experiments) has a seeded model.
    for bin in [FIG11, FIG8, ATM_COMPARE, WARM_START] {
        assert_usage_error(bin, &["--seed", "1"], &["--seed"]);
    }
}

#[test]
fn warm_start_rejects_snapshot_path_flags() {
    for flag in ["--snapshot-out", "--restore-from"] {
        assert_usage_error(WARM_START, &[flag, "x"], &[flag, "--state-dir"]);
    }
}

#[test]
fn fault_sweep_rejects_snapshot_flags() {
    for (flag, value) in [
        ("--snapshot-out", "x"),
        ("--restore-from", "/nonexistent"),
        ("--restore-policy", "mru"),
    ] {
        assert_usage_error(FAULT_SWEEP, &[flag, value], &[flag]);
    }
}

#[test]
fn fig8_honours_snapshot_out() {
    let dir = std::env::temp_dir().join(format!("axmemo-fig8-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(
        FIG8,
        &["--snapshot-out", dir.to_str().unwrap(), "--report", "json"],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = std::fs::read(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/data/fig8_tiny.golden.json"),
    )
    .expect("golden exists");
    assert!(out.stdout == golden, "writing snapshots changes no result");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("snapshot dir created")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    let mut expected: Vec<String> = axmemo_workloads::all_benchmarks()
        .iter()
        .map(|b| format!("{}.axmsnap", b.meta().name))
        .collect();
    expected.sort();
    assert_eq!(files, expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fig11_rejects_snapshot_out() {
    assert_usage_error(FIG11, &["--snapshot-out", "x"], &["--snapshot-out"]);
}

#[test]
fn all_experiments_rejects_restore_from() {
    assert_usage_error(
        ALL_EXPERIMENTS,
        &["--restore-from", "x"],
        &["--restore-from"],
    );
}

#[test]
fn atm_compare_rejects_unknown_flags() {
    assert_usage_error(ATM_COMPARE, &["--bogus"], &["--bogus"]);
}
