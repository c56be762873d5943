//! Cold-vs-warm hit-rate curves: run each benchmark for several
//! *generations*, snapshotting the warm LUT image after every run and
//! restoring the next generation from it — the measurement behind the
//! snapshot/restore subsystem (`core::snapshot`), and the only binary
//! that writes or restores LUT snapshots.
//!
//! Generation 0 is an ordinary cold run that only writes its snapshot;
//! generation `k` warm-starts from generation `k-1`'s file. Because the
//! evaluation dataset is deterministic, a restored LUT already holds
//! the block signatures the run is about to look up, so the first-touch
//! misses of the cold run turn into hits and the hit-rate delta
//! directly measures what persistence buys.
//!
//! Extra flags (before the shared ones):
//!
//! * `--state-dir <dir>` — where the per-generation `.axmsnap` files
//!   live (default: `axmemo-warm-start` under the OS temp directory),
//!   created if missing; a directory that cannot be created exits 1
//!   naming `--state-dir`.
//! * `--generations <n>` — runs per benchmark, `>= 2` (default 3).
//! * `--benches a,b,c` — comma-separated benchmark subset (default:
//!   all). An unknown name exits 2 and is named on stderr.
//! * `--restore-policy oldest|mru` — how each warm generation restores
//!   its predecessor's image (default `oldest`: replay every entry in
//!   recency order and resume the quality ladder; `mru`: newest entries
//!   first into at most half of each set, with a fresh ladder).
//!
//! The figure binaries take no snapshot flags, so `--snapshot-out` and
//! `--restore-from` exit 2 here as everywhere.
//!
//! The report contains no filesystem paths, so two runs with the same
//! flags (any `--state-dir`) are byte-identical — the property the CI
//! crash-recovery job diffs.

use axmemo_bench::experiments::{warm_start, WarmStart, WARM_START};
use axmemo_bench::select_benches;
use axmemo_core::RestorePolicy;
use std::path::PathBuf;

fn main() {
    let exp = &WARM_START;
    let ([state_dir, generations, benches, policy], shared) = exp.split_flags(
        std::env::args().skip(1),
        [
            "--state-dir",
            "--generations",
            "--benches",
            "--restore-policy",
        ],
    );
    let mut warm = WarmStart::default();
    if let Some(dir) = state_dir {
        warm.state_dir = PathBuf::from(dir);
    }
    if let Some(value) = generations {
        warm.generations = match value.parse() {
            Ok(n) if n >= 2 => n,
            _ => exp.usage_error(&format!(
                "--generations must be an integer >= 2, got {value:?}"
            )),
        };
    }
    warm.benches = select_benches(benches.as_deref()).unwrap_or_else(|msg| exp.usage_error(&msg));
    if let Some(value) = policy {
        warm.restore_policy = RestorePolicy::parse(&value).unwrap_or_else(|| {
            exp.usage_error(&format!(
                "--restore-policy must be oldest|mru, got {value:?}"
            ))
        });
    }
    exp.main_with(shared, |ctx, tel| warm_start(ctx, tel, &warm));
}
