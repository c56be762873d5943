//! Crash-consistency sweep and warm-restore integration tests for the
//! `core::snapshot` subsystem: a snapshot killed at a seeded random
//! point (truncation or bit flip) must recover without panicking,
//! without ever admitting a corrupt entry, and always yield either a
//! valid warm restore or a clean, reported cold start. The runner-level
//! tests pin the `SnapshotPlan` plumbing `warm_start` drives: warm
//! runs beat cold runs, restored entries never count as this-run
//! activity, the default-off path is byte-identical, and snapshot
//! files are deterministic. The capture tests pin the export path
//! under a corrupt stored `lut_id`: skipped and counted, never a panic.

use std::collections::HashSet;
use std::path::PathBuf;

use axmemo_bench::{run_cell, BaselineCache, RunOptions, SnapshotPlan};
use axmemo_core::config::MemoConfig;
use axmemo_core::ids::{LutId, ThreadId};
use axmemo_core::snapshot::{
    CrashMode, CrashPoint, MemoSnapshot, RecoveryOutcome, SectionDisposition,
};
use axmemo_core::truncate::InputValue;
use axmemo_core::two_level::{RestorePolicy, TwoLevelLut};
use axmemo_core::unit::{LookupResult, MemoizationUnit};
use axmemo_telemetry::Telemetry;
use axmemo_workloads::runner::run_benchmark_report_cached;
use axmemo_workloads::{benchmark_by_name, Benchmark, Dataset, Scale};

/// Unique-per-test scratch directory under the OS temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("axmemo-snaptest-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A warm image with a few hundred live L1/L2 entries and quality
/// state, captured through the same armed-capture path the runner uses.
fn populated_snapshot() -> MemoSnapshot {
    let mut unit =
        MemoizationUnit::new(MemoConfig::l1_l2(4 * 1024, 64 * 1024)).expect("valid config");
    let (lut, tid) = (LutId::new(0).unwrap(), ThreadId(0));
    for i in 0..400u64 {
        // Two passes over 200 keys: the second pass promotes reuse so
        // both LUT levels hold state.
        let key = i % 200;
        unit.feed(lut, tid, InputValue::I64(key as i64), 8);
        match unit.lookup(lut, tid) {
            LookupResult::Hit { .. } => {}
            _ => {
                unit.update(lut, tid, key * 3 + 1);
            }
        }
    }
    unit.arm_warm_capture();
    let snap = unit.take_warm_image().expect("armed capture yields image");
    assert!(
        !snap.l1_entries.is_empty(),
        "test premise: snapshot holds live entries"
    );
    snap
}

fn entry_set(snap: &MemoSnapshot) -> HashSet<(LutId, u64, u64)> {
    snap.l1_entries
        .iter()
        .chain(snap.l2_entries.iter())
        .map(|e| (e.lut_id, e.crc, e.data))
        .collect()
}

/// The acceptance sweep: >= 64 seeded kill points per crash mode. Every
/// recovery must (a) not panic, (b) only ever restore entries that the
/// original snapshot contained, bit for bit, and (c) classify itself as
/// a restore or a reasoned cold start.
#[test]
fn crash_sweep_never_admits_corruption() {
    let snap = populated_snapshot();
    let bytes = snap.encode();
    let original = entry_set(&snap);
    let (mut restored, mut cold) = (0u32, 0u32);
    for seed in 0..96u64 {
        for mode in [CrashMode::Truncate, CrashMode::BitFlip] {
            let mut corrupt = bytes.clone();
            CrashPoint::seeded(seed, mode, corrupt.len()).apply(&mut corrupt);
            let (state, report) = MemoSnapshot::recover(&corrupt);
            match state {
                Some(recovered) => {
                    restored += 1;
                    assert_eq!(report.outcome, RecoveryOutcome::Restored);
                    for e in recovered
                        .l1_entries
                        .iter()
                        .chain(recovered.l2_entries.iter())
                    {
                        assert!(
                            original.contains(&(e.lut_id, e.crc, e.data)),
                            "seed {seed} {mode:?}: restored entry {e:?} \
                             was never in the original snapshot"
                        );
                    }
                    assert!(
                        report.entries_restored()
                            == (recovered.l1_entries.len() + recovered.l2_entries.len()) as u64,
                        "seed {seed} {mode:?}: report disagrees with payload"
                    );
                }
                None => {
                    cold += 1;
                    assert_eq!(report.outcome, RecoveryOutcome::ColdStart);
                    assert!(
                        report.cold_start_reason.is_some(),
                        "seed {seed} {mode:?}: cold start must carry a reason"
                    );
                }
            }
        }
    }
    assert!(
        restored > 0 && cold > 0,
        "sweep should exercise both outcomes (restored {restored}, cold {cold})"
    );
}

/// Same sweep, applied through a live unit: restoring a crashed image
/// into a fresh memoization unit must never surface data the donor
/// never stored (no corrupt entry ever becomes a hit).
#[test]
fn crash_sweep_restores_into_live_unit_safely() {
    let snap = populated_snapshot();
    let bytes = snap.encode();
    let original = entry_set(&snap);
    for seed in 0..64u64 {
        let mut corrupt = bytes.clone();
        CrashPoint::seeded(seed, CrashMode::BitFlip, corrupt.len()).apply(&mut corrupt);
        let (state, _report) = MemoSnapshot::recover(&corrupt);
        let Some(recovered) = state else { continue };
        let mut unit =
            MemoizationUnit::new(MemoConfig::l1_l2(4 * 1024, 64 * 1024)).expect("valid config");
        let summary = unit.restore_warm(&recovered, RestorePolicy::OldestFirst);
        assert!(
            summary.l1_restored as usize <= original.len(),
            "seed {seed}: more entries restored than the donor ever held"
        );
        // The unit's stats must stay clean: restored entries are not
        // this-run inserts (the double-counting regression).
        assert_eq!(unit.lut().l1_stats().inserts, 0);
        assert_eq!(unit.lut().l1_stats().hits, 0);
    }
}

fn fft() -> Box<dyn Benchmark> {
    benchmark_by_name("fft").expect("fft registered")
}

/// End-to-end warm start through the runner: snapshot a cold run,
/// restore from it, and verify the warm run reports the restore and
/// beats the cold run's hit rate without inheriting its counters.
#[test]
fn runner_warm_start_beats_cold_and_keeps_stats_clean() {
    let dir = scratch("warm");
    let path = dir.join("fft.axmsnap");
    let memo = MemoConfig::l1_only(8 * 1024);
    let cold_plan = SnapshotPlan {
        restore_from: None,
        snapshot_out: Some(path.clone()),
        ..SnapshotPlan::default()
    };
    let cold = run_cell(
        fft().as_ref(),
        Scale::Tiny,
        &memo,
        Telemetry::off(),
        &BaselineCache::new(),
        RunOptions::default(),
        &cold_plan,
    )
    .expect("cold run");
    assert!(cold.recovery.is_none(), "nothing restored on the cold leg");
    assert!(path.is_file(), "snapshot written");
    assert!(
        !dir.join("fft.axmsnap.tmp").exists(),
        "atomic writer leaves no temp file"
    );

    let warm_plan = SnapshotPlan {
        restore_from: Some(path.clone()),
        snapshot_out: None,
        ..SnapshotPlan::default()
    };
    let warm = run_cell(
        fft().as_ref(),
        Scale::Tiny,
        &memo,
        Telemetry::off(),
        &BaselineCache::new(),
        RunOptions::default(),
        &warm_plan,
    )
    .expect("warm run");
    let rec = warm.recovery.as_ref().expect("restore reported");
    assert_eq!(rec.outcome, RecoveryOutcome::Restored);
    assert!(rec.entries_restored() > 0);
    let applied = rec.applied.expect("restore applied to the unit");
    assert!(applied.l1_restored > 0);
    assert!(
        warm.result.hit_rate > cold.result.hit_rate,
        "warm start must lift the hit rate (cold {}, warm {})",
        cold.result.hit_rate,
        warm.result.hit_rate
    );
    // Restored entries are not this-run inserts: the warm run inserts
    // strictly less than the cold run did (its first touches hit).
    assert!(
        warm.l1_lut.inserts < cold.l1_lut.inserts,
        "restored entries must not count as inserts (cold {}, warm {})",
        cold.l1_lut.inserts,
        warm.l1_lut.inserts
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot then restore is deterministic: two
/// identical cold runs write byte-identical snapshot files, and the
/// default-off (empty-plan) path is byte-identical to the plain
/// runner.
#[test]
fn snapshot_files_and_default_off_path_are_deterministic() {
    let dir = scratch("determinism");
    let memo = MemoConfig::l1_only(8 * 1024);
    let mut images = Vec::new();
    for leg in ["a", "b"] {
        let plan = SnapshotPlan {
            restore_from: None,
            snapshot_out: Some(dir.join(format!("fft.{leg}.axmsnap"))),
            ..SnapshotPlan::default()
        };
        run_cell(
            fft().as_ref(),
            Scale::Tiny,
            &memo,
            Telemetry::off(),
            &BaselineCache::new(),
            RunOptions::default(),
            &plan,
        )
        .expect("snapshot run");
        images.push(std::fs::read(plan.snapshot_out.as_ref().unwrap()).expect("read snapshot"));
    }
    assert_eq!(images[0], images[1], "snapshot bytes are deterministic");

    let plain = run_benchmark_report_cached(
        fft().as_ref(),
        Scale::Tiny,
        Dataset::Eval,
        &memo,
        RunOptions::default(),
        Telemetry::off(),
        None,
    )
    .expect("plain run");
    let empty_plan = run_cell(
        fft().as_ref(),
        Scale::Tiny,
        &memo,
        Telemetry::off(),
        &BaselineCache::new(),
        RunOptions::default(),
        &SnapshotPlan::default(),
    )
    .expect("empty-plan run");
    // The empty plan reproduces the plain runner: same metrics and
    // run statistics, unit and LUT statistics, counters, and no
    // recovery account.
    assert_eq!(plain.result, empty_plan.result);
    assert_eq!(plain.unit_stats, empty_plan.unit_stats);
    assert_eq!(
        (plain.l1_lut, plain.l2_lut),
        (empty_plan.l1_lut, empty_plan.l2_lut)
    );
    assert!(plain
        .telemetry
        .registry()
        .counters()
        .eq(empty_plan.telemetry.registry().counters()));
    assert_eq!((&plain.recovery, &empty_plan.recovery), (&None, &None));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt snapshot file degrades the run to a *reported* cold start
/// with results identical to a genuinely cold run — never an error,
/// never garbage state.
#[test]
fn corrupt_snapshot_degrades_to_reported_cold_start() {
    let dir = scratch("corrupt");
    let path = dir.join("fft.axmsnap");
    std::fs::write(&path, b"not a snapshot at all").expect("write garbage");
    let memo = MemoConfig::l1_only(8 * 1024);
    let plan = SnapshotPlan {
        restore_from: Some(path),
        snapshot_out: None,
        ..SnapshotPlan::default()
    };
    let report = run_cell(
        fft().as_ref(),
        Scale::Tiny,
        &memo,
        Telemetry::off(),
        &BaselineCache::new(),
        RunOptions::default(),
        &plan,
    )
    .expect("corrupt snapshot must not abort the run");
    let rec = report.recovery.as_ref().expect("cold start reported");
    assert_eq!(rec.outcome, RecoveryOutcome::ColdStart);
    assert!(rec.cold_start_reason.is_some());

    let cold = run_cell(
        fft().as_ref(),
        Scale::Tiny,
        &memo,
        Telemetry::off(),
        &BaselineCache::new(),
        RunOptions::default(),
        &SnapshotPlan::default(),
    )
    .expect("plain cold run");
    assert_eq!(
        report.result.hit_rate, cold.result.hit_rate,
        "a failed restore runs exactly as cold"
    );
    let _ = std::fs::remove_dir_all(
        std::env::temp_dir().join(format!("axmemo-snaptest-{}-corrupt", std::process::id())),
    );
}

/// Restoring from a missing file is a user-facing I/O error that names
/// the offending path (not a panic, not a silent cold start).
#[test]
fn missing_restore_file_is_an_error_naming_the_path() {
    let bogus = std::env::temp_dir().join("axmemo-snaptest-definitely-missing.axmsnap");
    let plan = SnapshotPlan {
        restore_from: Some(bogus.clone()),
        snapshot_out: None,
        ..SnapshotPlan::default()
    };
    let err = run_cell(
        fft().as_ref(),
        Scale::Tiny,
        &MemoConfig::l1_only(8 * 1024),
        Telemetry::off(),
        &BaselineCache::new(),
        RunOptions::default(),
        &plan,
    )
    .expect_err("missing file must surface as an error");
    let msg = err.to_string();
    assert!(
        msg.contains(bogus.to_str().unwrap()),
        "error must name the path: {msg}"
    );
}

/// Fault-then-export regression: a stored `lut_id` corrupted out of
/// range — an SEU in the tag bits — must degrade to a
/// skipped-and-counted record, never a panic, on both the export path
/// and the insert-eviction path.
#[test]
fn corrupt_stored_lut_id_degrades_instead_of_panicking() {
    let mut lut = TwoLevelLut::new(&MemoConfig::l1_only(1024));
    let lut_id = LutId::new(3).unwrap();
    for crc in 0..64u64 {
        lut.update(lut_id, crc, crc + 100);
    }
    let (clean, skipped) = lut.export_l1();
    assert_eq!(skipped, 0);
    assert!(!clean.is_empty());

    // Flip the stored LUT_ID tag of one live entry out of range.
    let victim = clean[0];
    assert!(
        lut.l1_mut()
            .corrupt_stored_lut_id(victim.lut_id, victim.crc, 0xEE),
        "corruption hook must find the live entry"
    );

    // Export path: the bad record is skipped and counted, not a panic.
    let (dirty, skipped) = lut.export_l1();
    assert_eq!(skipped, 1, "exactly the corrupted record is skipped");
    assert_eq!(dirty.len(), clean.len() - 1);

    // Armed-capture path: the skip lands in snapshot telemetry.
    let mut tel = Telemetry::enabled();
    let snap = MemoSnapshot::capture_tel(&lut, None, &mut tel);
    assert_eq!(snap.l1_entries.len(), clean.len() - 1);
    assert_eq!(tel.registry().counter("snapshot.capture.bad_records"), 1);

    // Insert-eviction path: keep inserting until the corrupted victim
    // is evicted; the eviction must drop-and-count, not panic.
    let before = lut.l1().bad_entries_dropped();
    for crc in 64..4096u64 {
        lut.update(lut_id, crc, crc);
    }
    assert!(
        lut.l1().bad_entries_dropped() > before,
        "evicting the corrupted entry must count a dropped record"
    );
}

/// A clean hierarchy emits no `snapshot.capture.bad_records` counter
/// at all (default registries stay byte-identical).
#[test]
fn clean_capture_emits_no_bad_record_counter() {
    let mut lut = TwoLevelLut::new(&MemoConfig::l1_only(1024));
    let lut_id = LutId::new(0).unwrap();
    for crc in 0..32u64 {
        lut.update(lut_id, crc, crc);
    }
    let mut tel = Telemetry::enabled();
    let _ = MemoSnapshot::capture_tel(&lut, None, &mut tel);
    assert_eq!(tel.registry().counter("snapshot.capture.bad_records"), 0);
    assert!(
        !tel.registry()
            .counters()
            .any(|(name, _)| name.contains("bad_records")),
        "clean captures must not materialize the counter"
    );
}

/// A snapshot written before the adaptive-truncation controller was
/// removed carries an ADAPTIVE section (tag 5). `adaptive_section_v1.axmsnap`
/// was encoded by that older code from the warm hierarchy rebuilt below,
/// a controller and a quality monitor; it must still restore every entry,
/// with the retired section skipped.
#[test]
fn old_file_with_adaptive_section_still_restores() {
    let bytes = std::fs::read(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/data/adaptive_section_v1.axmsnap"),
    )
    .expect("read fixture");
    let (snap, report) = MemoSnapshot::recover(&bytes);
    let snap = snap.expect("fixture restores");
    assert_eq!(report.outcome, RecoveryOutcome::Restored);

    let mut lut = TwoLevelLut::new(&MemoConfig::l1_l2(1024, 8 * 1024));
    for i in 0..200u64 {
        lut.update(LutId::new((i % 3) as u8).unwrap(), i * 1_103, i);
    }
    let (l1, _) = lut.export_l1();
    let (l2, _) = lut.export_l2();
    assert!(
        !l1.is_empty() && !l2.is_empty(),
        "fixture holds both levels"
    );
    assert_eq!(snap.l1_entries, l1);
    assert_eq!(snap.l2_entries, l2);
    assert_eq!(report.l1_entries_restored, l1.len() as u64);
    assert_eq!(report.l2_entries_restored, l2.len() as u64);
    assert_eq!(report.entries_discarded(), 0);
    assert!(!report.torn_tail);
    assert!(report.quality_restored);
    let retired: Vec<_> = report.sections.iter().filter(|s| s.tag == 5).collect();
    assert_eq!(retired.len(), 1, "fixture carries one tag-5 section");
    assert_eq!(retired[0].disposition, SectionDisposition::Skipped);
}
