//! Byte-for-byte pins of the figure suite: every figure/table binary
//! runs at `AXMEMO_SCALE=tiny` with `--report json` and its stdout must
//! equal the committed `tests/data/<bin>_tiny.golden.*` file.
//!
//! Bins that print fixed-format text whatever `--report` says are
//! pinned as text (`.golden.txt`). `table1` takes minutes in a debug
//! build, so its golden is compared by CI's release `figure-goldens`
//! job instead of here.

use std::path::Path;
use std::process::Command;

fn assert_matches_golden(exe: &str, args: &[&str], golden: &str) {
    let out = Command::new(exe)
        .args(args)
        .env("AXMEMO_SCALE", "tiny")
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{exe} {args:?} failed: {stderr}");
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data")
        .join(golden);
    let expected = std::fs::read(&path).expect("golden file exists");
    assert!(
        out.stdout == expected,
        "{exe} {args:?} drifted from {golden}:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

macro_rules! golden {
    ($test:ident, $bin:literal, $golden:literal) => {
        golden!($test, $bin, $golden, &["--report", "json"]);
    };
    ($test:ident, $bin:literal, $golden:literal, $args:expr) => {
        #[test]
        fn $test() {
            assert_matches_golden(env!(concat!("CARGO_BIN_EXE_", $bin)), $args, $golden);
        }
    };
}

golden!(fig7, "fig7", "fig7_tiny.golden.json");
golden!(fig8, "fig8", "fig8_tiny.golden.json");
golden!(fig9, "fig9", "fig9_tiny.golden.json");
golden!(fig10, "fig10", "fig10_tiny.golden.json");
golden!(fig11, "fig11", "fig11_tiny.golden.json");
golden!(table2, "table2", "table2_tiny.golden.json");
golden!(table4_5, "table4_5", "table4_5_tiny.golden.json");
golden!(atm_compare, "atm_compare", "atm_compare_tiny.golden.txt");
golden!(
    l2_sensitivity,
    "l2_sensitivity",
    "l2_sensitivity_tiny.golden.txt"
);
golden!(ablation_crc, "ablation_crc", "ablation_crc_tiny.golden.txt");
golden!(
    ablation_two_level,
    "ablation_two_level",
    "ablation_two_level_tiny.golden.txt"
);
golden!(
    ablation_branch_predictor,
    "ablation_branch_predictor",
    "ablation_branch_predictor_tiny.golden.txt"
);
golden!(
    fault_sweep_reduced,
    "fault_sweep",
    "fault_sweep_reduced.golden.json",
    &[
        "--seed",
        "7",
        "--benches",
        "blackscholes,sobel",
        "--jobs",
        "2",
        "--report",
        "json"
    ]
);
