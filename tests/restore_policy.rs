//! Warm-restore policy tests: the default `OldestFirst` policy resumes
//! the donor's quality ladder, while the opt-in fresh-biased `MruFirst`
//! policy (`warm_start --restore-policy mru`) pins the warm-restore
//! pathology fix from EXPERIMENTS.md — a warm sobel run at small scale
//! must no longer underperform a cold one.
//!
//! The measured root cause of the pathology is *not* entry order
//! alone: sobel's donor run walks the quality ladder to
//! `ReducedTruncation` near the end of the run, and resuming that
//! rung locks the entire warm run into the conservative truncation
//! (more distinct CRCs, scan-dominated misses). `MruFirst` therefore
//! both caps restored occupancy (bounding LRU pollution) and starts
//! the ladder fresh so the warm run re-earns any degradation.

use axmemo_bench::{run_cell, BaselineCache, RunOptions, SnapshotPlan};
use axmemo_core::config::MemoConfig;
use axmemo_core::ids::{LutId, ThreadId};
use axmemo_core::quality::{DegradationStage, QualityState};
use axmemo_core::truncate::InputValue;
use axmemo_core::unit::{LookupResult, MemoizationUnit};
use axmemo_core::RestorePolicy;
use axmemo_telemetry::Telemetry;
use axmemo_workloads::{benchmark_by_name, Benchmark, Scale};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("axmemo-restpol-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn sobel() -> Box<dyn Benchmark> {
    benchmark_by_name("sobel").expect("sobel registered")
}

/// A donor unit with live L1 state and a degraded quality ladder, as a
/// sobel donor run produces.
fn degraded_donor() -> MemoizationUnit {
    let mut unit = MemoizationUnit::new(MemoConfig::l1_only(4 * 1024)).expect("valid config");
    let (lut, tid) = (LutId::new(0).unwrap(), ThreadId(0));
    for i in 0..400u64 {
        let key = i % 200;
        unit.feed(lut, tid, InputValue::I64(key as i64), 8);
        match unit.lookup(lut, tid) {
            LookupResult::Hit { .. } => {}
            _ => {
                unit.update(lut, tid, key * 3 + 1);
            }
        }
    }
    unit
}

/// The ISSUE pin: sobel at small scale warm-started with
/// `--restore-policy mru` must not underperform the cold run it was
/// seeded from. (Under the default policy the warm leg collapses to
/// roughly 0.28 hit rate against a 0.70 cold baseline.)
#[test]
fn mru_policy_warm_sobel_small_is_at_least_cold() {
    let dir = scratch("sobel-pin");
    let path = dir.join("sobel.axmsnap");
    let memo = MemoConfig::l1_only(8 * 1024);
    let cold_plan = SnapshotPlan {
        restore_from: None,
        snapshot_out: Some(path.clone()),
        restore_policy: RestorePolicy::MruFirst,
    };
    let cold = run_cell(
        sobel().as_ref(),
        Scale::Small,
        &memo,
        Telemetry::off(),
        &BaselineCache::new(),
        RunOptions::default(),
        &cold_plan,
    )
    .expect("cold run");

    let warm_plan = SnapshotPlan {
        restore_from: Some(path),
        snapshot_out: None,
        restore_policy: RestorePolicy::MruFirst,
    };
    let warm = run_cell(
        sobel().as_ref(),
        Scale::Small,
        &memo,
        Telemetry::off(),
        &BaselineCache::new(),
        RunOptions::default(),
        &warm_plan,
    )
    .expect("warm run");
    let rec = warm.recovery.as_ref().expect("restore reported");
    assert!(rec.entries_restored() > 0, "warm leg restored entries");
    assert!(
        warm.result.hit_rate >= cold.result.hit_rate,
        "fresh-biased warm sobel must not underperform cold (cold {}, warm {})",
        cold.result.hit_rate,
        warm.result.hit_rate
    );
}

/// `OldestFirst` resumes the donor ladder; `MruFirst` starts fresh.
#[test]
fn mru_policy_starts_quality_ladder_fresh() {
    let mut donor = degraded_donor();
    donor.arm_warm_capture();
    let mut snap = donor.take_warm_image().expect("warm image");
    snap.quality = Some(QualityState {
        stage: DegradationStage::ReducedTruncation,
        hits_seen: 0,
        clean_windows: 0,
        probe_wait: 0,
        probe_period: 0,
        comparisons: 100,
        large_errors: 60,
        escalations: 1,
        probes: 0,
        window: Vec::new(),
    });

    let mut resumed = MemoizationUnit::new(MemoConfig::l1_only(4 * 1024)).expect("valid config");
    let summary = resumed.restore_warm(&snap, RestorePolicy::OldestFirst);
    assert!(
        summary.quality_restored,
        "default policy resumes the ladder"
    );
    assert_eq!(resumed.quality_stage(), DegradationStage::ReducedTruncation);

    let mut fresh = MemoizationUnit::new(MemoConfig::l1_only(4 * 1024)).expect("valid config");
    let summary = fresh.restore_warm(&snap, RestorePolicy::MruFirst);
    assert!(
        !summary.quality_restored,
        "fresh-biased policy must not resume the donor ladder"
    );
    assert_eq!(fresh.quality_stage(), DegradationStage::Healthy);
    assert!(summary.l1_restored > 0, "entries still restore under mru");
}

/// `MruFirst` never fills a set beyond half its ways, and the entries
/// it does admit are the newest in the export stream.
#[test]
fn mru_policy_caps_restored_occupancy_at_half_the_ways() {
    let donor = {
        let mut unit = degraded_donor();
        unit.arm_warm_capture();
        unit.take_warm_image().expect("warm image")
    };
    let geom = donor.geometry.expect("armed capture records geometry");
    let ways = geom.l1_ways as usize;
    assert!(ways >= 2, "test premise: associative L1");

    let mut capped = MemoizationUnit::new(MemoConfig::l1_only(4 * 1024)).expect("valid config");
    let summary = capped.restore_warm(&donor, RestorePolicy::MruFirst);
    let full = MemoizationUnit::new(MemoConfig::l1_only(4 * 1024))
        .map(|mut u| {
            u.restore_warm(&donor, RestorePolicy::OldestFirst);
            u
        })
        .expect("valid config");
    let (full_entries, _) = full.lut().export_l1();
    let (capped_entries, _) = capped.lut().export_l1();
    assert!(
        capped_entries.len() <= full_entries.len(),
        "capped restore admits no more than the full restore"
    );
    assert_eq!(summary.l1_restored as usize, capped_entries.len());
    // The export stream carries (lut_id, crc), not set indices, so the
    // per-set cap is asserted globally: at most half the ways of every
    // set may hold restored state.
    let sets = geom.l1_sets as usize;
    assert!(
        summary.l1_restored <= (sets * ways.div_ceil(2)) as u64,
        "restored total bounded by half-occupancy across all sets"
    );
    // Newest-biased: every capped entry is present in the full
    // restore's export (no invented state).
    let full_keys: std::collections::HashSet<_> =
        full_entries.iter().map(|e| (e.lut_id, e.crc)).collect();
    for e in &capped_entries {
        assert!(full_keys.contains(&(e.lut_id, e.crc)));
    }
}
