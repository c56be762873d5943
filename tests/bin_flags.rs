//! Command-line contracts of the `warm_start` and `fault_sweep`
//! binaries: flags a binary cannot honour and benchmark-name typos exit
//! 2 with a message and the usage line, before any simulation runs.

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
