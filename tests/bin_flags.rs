//! Command-line contracts of the experiment binaries: flags a binary
//! cannot honour, unknown flags and benchmark-name typos exit 2 with a
//! message and the usage line, before any simulation runs. Snapshots
//! are `warm_start`'s alone: its `--restore-policy` is checked here, and
//! every other binary refuses the snapshot flags. `--trace-out` appends
//! its counter and span tail to a text report only. An `AXMEMO_SCALE`
//! other than `tiny`, `small` or `full` exits 2 naming the variable.

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
const FIG7: &str = env!("CARGO_BIN_EXE_fig7");
const FIG8: &str = env!("CARGO_BIN_EXE_fig8");
const FIG9: &str = env!("CARGO_BIN_EXE_fig9");
const FIG10: &str = env!("CARGO_BIN_EXE_fig10");
const FIG11: &str = env!("CARGO_BIN_EXE_fig11");
const ALL_EXPERIMENTS: &str = env!("CARGO_BIN_EXE_all_experiments");
const ATM_COMPARE: &str = env!("CARGO_BIN_EXE_atm_compare");

#[test]
fn unknown_scale_exits_2() {
    // A typo must not quietly run the default scale.
    for (bin, value) in [(FIG9, "bogus"), (ALL_EXPERIMENTS, "ful"), (WARM_START, "")] {
        let out = Command::new(bin)
            .env("AXMEMO_SCALE", value)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {value:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {value:?}: no report");
        assert!(
            stderr.contains(&format!(
                "error: AXMEMO_SCALE must be tiny|small|full, got {value:?}"
            )),
            "{bin} {value:?}: {stderr}"
        );
    }
}

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
    // Only warm_start writes or restores snapshots; the figures run cold.
    for bin in [FIG7, FIG10, FIG11, ALL_EXPERIMENTS] {
        for (flag, value) in [
            ("--snapshot-out", "x"),
            ("--restore-from", "x"),
            ("--restore-policy", "mru"),
        ] {
            assert_usage_error(bin, &[flag, value], &[flag]);
        }
    }
}

#[test]
fn seed_exits_2_where_nothing_reads_it() {
    // Only fault_sweep (also through all_experiments) has a seeded
    // model or a worker pool.
    for bin in [FIG11, FIG8, ATM_COMPARE, WARM_START] {
        assert_usage_error(bin, &["--seed", "1"], &["--seed"]);
        assert_usage_error(bin, &["--jobs", "1"], &["--jobs"]);
    }
}

#[test]
fn warm_start_takes_restore_policy() {
    let dir = std::env::temp_dir().join(format!("axmemo-warm-policy-{}", std::process::id()));
    let out = run(
        WARM_START,
        &[
            "--benches",
            "fft",
            "--generations",
            "2",
            "--state-dir",
            dir.to_str().unwrap(),
            "--restore-policy",
            "mru",
            "--report",
            "json",
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(dir.join("fft.gen1.axmsnap").is_file());
    std::fs::remove_dir_all(&dir).unwrap();
    assert_usage_error(
        WARM_START,
        &["--restore-policy", "newest"],
        &["--restore-policy", "newest"],
    );
    assert_usage_error(WARM_START, &["--restore-policy"], &["--restore-policy"]);
}

#[test]
fn warm_start_names_state_dir_it_cannot_create() {
    let file = std::env::temp_dir().join(format!("axmemo-warm-file-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let state_dir = file.join("sub");
    let out = run(WARM_START, &["--state-dir", state_dir.to_str().unwrap()]);
    std::fs::remove_file(&file).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "no report: {stderr}");
    assert!(
        stderr.contains(&format!("error: --state-dir {}", state_dir.display())),
        "{stderr}"
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

#[test]
fn trace_out_text_tail_lists_counters_and_spans() {
    let trace = std::env::temp_dir().join(format!("axmemo-tail-{}.jsonl", std::process::id()));
    let trace_arg = trace.to_str().unwrap();
    let text = run(FIG11, &["--trace-out", trace_arg]);
    let json = run(FIG11, &["--trace-out", trace_arg, "--report", "json"]);
    std::fs::remove_file(&trace).unwrap();
    assert!(
        text.status.success(),
        "{}",
        String::from_utf8_lossy(&text.stderr)
    );
    assert!(
        json.status.success(),
        "{}",
        String::from_utf8_lossy(&json.stderr)
    );

    let stdout = String::from_utf8_lossy(&text.stdout);
    // The tail has exactly two sections: the registry holds counters
    // only, so nothing else may follow the table.
    let sections: Vec<&str> = stdout.lines().filter(|l| l.starts_with("== ")).collect();
    assert_eq!(sections, ["== counters ==", "== spans =="], "{stdout}");
    let wiped: u64 = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("lut.invalidated_entries"))
        .expect(&stdout)
        .trim()
        .parse()
        .unwrap();
    assert!(wiped > 0, "{stdout}");

    let stdout = String::from_utf8_lossy(&json.stdout);
    assert!(
        !stdout.contains("== "),
        "json mode prints no tail: {stdout}"
    );
}
