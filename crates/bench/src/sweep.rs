//! The full-matrix fault sweep definition, shared by the `fault_sweep`
//! binary and the determinism tests so both agree byte-for-byte on the
//! matrix layout and the aggregated report.
//!
//! The matrix is the cross product of:
//!
//! * all ten benchmarks (or a caller-selected subset for smoke runs),
//! * the three fault domains of [`FaultDomain`] — L1-only, L2-only, and
//!   L1+L2 flips (the L2 rates were plumbed but unexercised before this
//!   sweep covered them),
//! * unprotected vs. parity+SECDED storage, and
//! * decade-spaced flip rates ([`FLIP_PPM`]),
//!
//! plus a single fault-free reference group (rate 0 is independent of
//! domain and protection, so sweeping it per-combination would just
//! repeat identical rows). Every cell runs on an 8 KB L1 + 256 KB L2
//! configuration so the L2 domain has arrays to strike.

use crate::orchestrator::{JobMatrix, JobOutcome, JobSpec};
use crate::{geomean, mean, Table};
use axmemo_core::config::MemoConfig;
use axmemo_core::faults::{FaultConfig, FaultDomain, Protection};
use axmemo_workloads::Scale;

/// Uniform per-access flip rates (ppm) swept per (domain, protection)
/// combination; the fault-free reference is a separate single group.
pub const FLIP_PPM: [u32; 3] = [500, 5_000, 50_000];

/// Where one sweep cell sits in the fault matrix (the table columns
/// that [`JobSpec::label`] alone cannot carry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellMeta {
    /// Fault-domain label (`none` for the reference group).
    pub domain: &'static str,
    /// Protection label (`none` or `parity+SECDED`).
    pub protection: &'static str,
    /// Flip rate in ppm per access.
    pub ppm: u32,
}

/// The LUT configuration every sweep cell runs on: both levels present
/// so all three fault domains are meaningful.
pub fn base_config() -> MemoConfig {
    MemoConfig::l1_l2(8 * 1024, 256 * 1024)
}

fn protection_label(p: Protection) -> &'static str {
    match p {
        Protection::Unprotected => "none",
        Protection::EccProtected => "parity+SECDED",
    }
}

/// Build the sweep matrix over `benches` with fault seeds derived from
/// `seed`. Returns the job matrix and, aligned index-for-index, each
/// job's [`CellMeta`].
pub fn matrix(seed: u64, benches: &[String]) -> (JobMatrix, Vec<CellMeta>) {
    let mut jobs = JobMatrix::new();
    let mut metas = Vec::new();
    let push_group =
        |jobs: &mut JobMatrix, metas: &mut Vec<CellMeta>, meta: CellMeta, faults: FaultConfig| {
            for bench in benches {
                let memo = MemoConfig {
                    faults,
                    ..base_config()
                };
                let label = format!("{}/{}@{}ppm", meta.domain, meta.protection, meta.ppm);
                jobs.push(JobSpec::new(bench.clone(), label, memo));
                metas.push(meta);
            }
        };

    // Fault-free reference group.
    push_group(
        &mut jobs,
        &mut metas,
        CellMeta {
            domain: "none",
            protection: "none",
            ppm: 0,
        },
        FaultConfig::default(),
    );
    for domain in FaultDomain::ALL {
        for protection in [Protection::Unprotected, Protection::EccProtected] {
            for ppm in FLIP_PPM {
                push_group(
                    &mut jobs,
                    &mut metas,
                    CellMeta {
                        domain: domain.label(),
                        protection: protection_label(protection),
                        ppm,
                    },
                    FaultConfig::domain(seed, ppm, domain, protection),
                );
            }
        }
    }
    (jobs, metas)
}

/// Aggregate sweep outcomes into the report table: one row per cell in
/// job-index order (failures become structured `watchdog`/`panic`/
/// `error` rows instead of sinking the sweep) and one summary line per
/// (domain, protection, ppm) group with the mean output error and
/// geomean speedup over that group's successful cells. A group in
/// which *no* cell succeeded renders `-` for both statistics — the
/// empty-slice `mean`/`geomean` of `0.0` would make a fully-failed
/// cell read like a perfect one.
///
/// See DESIGN.md ("Sweep orchestration") for the `ok`/failure status
/// legend the Status column uses.
///
/// # Panics
///
/// Panics when `metas` and `outcomes` disagree in length: they are
/// built aligned index-for-index by [`matrix`], and silently zipping
/// mismatched slices would drop rows from the report.
pub fn table(scale: Scale, seed: u64, metas: &[CellMeta], outcomes: &[JobOutcome]) -> Table {
    assert_eq!(
        metas.len(),
        outcomes.len(),
        "cell metadata and outcomes must stay aligned index-for-index"
    );
    let mut table = Table::new(
        format!("Fault sweep (full matrix, seed {seed}), scale {scale:?}"),
        &[
            "Domain",
            "Protection",
            "Flip ppm",
            "Benchmark",
            "Status",
            "Hit rate",
            "Output error",
            "Speedup",
        ],
    );
    for (meta, outcome) in metas.iter().zip(outcomes) {
        let (hit, err, speedup) = match &outcome.result {
            Ok(r) => (
                format!("{:.1}%", 100.0 * r.hit_rate),
                format!("{:.3e}", r.error.output_error),
                format!("{:.2}x", r.speedup),
            ),
            Err(_) => ("-".into(), "-".into(), "-".into()),
        };
        table.row(vec![
            meta.domain.to_string(),
            meta.protection.to_string(),
            format!("{}", meta.ppm),
            outcome.spec.benchmark.clone(),
            outcome.status().to_string(),
            hit,
            err,
            speedup,
        ]);
    }

    let mut group = 0;
    while group < metas.len() {
        let meta = metas[group];
        let end = metas[group..]
            .iter()
            .position(|m| *m != meta)
            .map_or(metas.len(), |n| group + n);
        let ok: Vec<_> = outcomes[group..end]
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .collect();
        let errors: Vec<f64> = ok.iter().map(|r| r.error.output_error).collect();
        let speedups: Vec<f64> = ok.iter().map(|r| r.speedup).collect();
        let failed = (end - group) - ok.len();
        let stats = if ok.is_empty() {
            // No successful cell: render `-` instead of the empty-slice
            // mean/geomean of 0.0, which would read as a *perfect*
            // group (zero error) right next to its failure count.
            "mean error -, geomean speedup -".to_string()
        } else {
            format!(
                "mean error {:.3e}, geomean speedup {:.2}x",
                mean(&errors),
                geomean(&speedups),
            )
        };
        table.summary(
            format!("{}/{}@{}ppm", meta.domain, meta.protection, meta.ppm),
            format!("{stats}, {failed} failed"),
        );
        // Wall-clock totals are host-dependent, so they ride the
        // text-only channel: the JSON report (and its goldens) must
        // stay byte-identical across machines and worker counts.
        let wall_ms: u64 = outcomes[group..end].iter().map(|o| o.wall_ms).sum();
        table.text_note(
            format!(
                "{}/{}@{}ppm wall-clock",
                meta.domain, meta.protection, meta.ppm
            ),
            format!("{wall_ms} ms total over {} cells", end - group),
        );
        group = end;
    }
    table
}
