//! Property-style tests on the core data structures' invariants.
//!
//! These used to run under `proptest`; the workspace now builds with no
//! network access, so each property is exercised over a few hundred
//! seeded-random cases from the in-tree [`SplitMix64`] generator. The
//! cases are fully deterministic: a failure always reproduces.

use axmemo_core::config::{DataWidth, MemoConfig};
use axmemo_core::crc::{CrcWidth, SerialCrc, TableCrc};
use axmemo_core::ids::LutId;
use axmemo_core::lut::{LookupOutcome, LutArray, LutGeometry};
use axmemo_core::truncate::{truncate_bits, InputValue};
use axmemo_core::two_level::TwoLevelLut;
use axmemo_workloads::gen::SplitMix64;

const CASES: usize = 200;

/// The table CRC agrees with the bit-serial specification on arbitrary
/// inputs at all widths.
#[test]
fn crc_implementations_agree() {
    let mut rng = SplitMix64::new(0xC0FFEE);
    for _ in 0..CASES {
        let len = rng.index(256);
        let data = rng.bytes(len);
        for width in [CrcWidth::W16, CrcWidth::W32, CrcWidth::W64] {
            let serial = SerialCrc::new(width).checksum(&data);
            let table = TableCrc::new(width).checksum(&data);
            assert_eq!(serial, table, "serial vs table, {width:?}, {data:?}");
        }
    }
}

/// Streaming in arbitrary chunkings equals the bit-serial specification
/// at every width: 1-, 4- and 8-byte beats (the `ld_crc`/`reg_crc`
/// widths) and random cuts.
#[test]
fn crc_streaming_is_chunking_invariant() {
    let mut rng = SplitMix64::new(1);
    for width in [CrcWidth::W16, CrcWidth::W32, CrcWidth::W64] {
        let serial = SerialCrc::new(width);
        let crc = TableCrc::new(width);
        for _ in 0..CASES {
            let len = 1 + rng.index(127);
            let data = rng.bytes(len);
            let expected = serial.checksum(&data);
            assert_eq!(
                crc.checksum(&data),
                expected,
                "{width:?} one-shot, {data:?}"
            );
            for beat in [1, 4, 8] {
                let mut s = crc.init();
                for chunk in data.chunks(beat) {
                    crc.feed(&mut s, chunk);
                }
                assert_eq!(
                    crc.finalize(s),
                    expected,
                    "{width:?} {beat}-byte beats, {data:?}"
                );
            }
            let mut cuts: Vec<usize> = (0..rng.index(4)).map(|_| rng.index(len + 1)).collect();
            cuts.push(len);
            cuts.sort_unstable();
            let mut s = crc.init();
            let mut at = 0;
            for &cut in &cuts {
                crc.feed(&mut s, &data[at..cut]);
                at = cut;
            }
            assert_eq!(
                crc.finalize(s),
                expected,
                "{width:?} cuts {cuts:?}, {data:?}"
            );
        }
    }
}

/// CRC values always fit the configured width.
#[test]
fn crc_respects_width_mask() {
    let mut rng = SplitMix64::new(2);
    for _ in 0..CASES {
        let len = rng.index(64);
        let data = rng.bytes(len);
        for width in [CrcWidth::W16, CrcWidth::W32] {
            let v = TableCrc::new(width).checksum(&data);
            assert_eq!(v & !width.mask(), 0, "{width:?}, {data:?}");
        }
    }
}

/// Truncation is idempotent and only ever clears bits.
#[test]
fn truncation_idempotent_and_monotone() {
    let mut rng = SplitMix64::new(3);
    for _ in 0..CASES {
        let bits = rng.next_u64();
        let n = rng.below(70) as u32;
        let once = truncate_bits(bits, n);
        assert_eq!(
            truncate_bits(once, n),
            once,
            "not idempotent: {bits:#x}/{n}"
        );
        assert_eq!(once & !bits, 0, "truncation set a bit: {bits:#x}/{n}");
        assert!(once <= bits);
    }
}

/// Truncated float bytes are prefix-stable: values that collide at
/// truncation level `n` still collide at the coarser level `n + 1`.
#[test]
fn truncation_merging_is_monotone() {
    let mut rng = SplitMix64::new(4);
    for _ in 0..CASES * 5 {
        let a = f32::from_bits(rng.next_u32());
        // Bias towards nearby values so collisions actually occur.
        let b = if rng.bool() {
            f32::from_bits(a.to_bits() ^ (rng.next_u32() & 0xFFFF))
        } else {
            f32::from_bits(rng.next_u32())
        };
        let n = rng.below(22) as u32;
        let ia = InputValue::F32(a);
        let ib = InputValue::F32(b);
        if ia.truncated_bytes(n) == ib.truncated_bytes(n) {
            assert_eq!(
                ia.truncated_bytes(n + 1),
                ib.truncated_bytes(n + 1),
                "merge not monotone at {n} for {a}/{b}"
            );
        }
    }
}

/// LUT: a hit returns whatever was inserted last for that key,
/// regardless of the operation sequence.
#[test]
fn lut_returns_last_inserted() {
    let mut rng = SplitMix64::new(5);
    for _ in 0..CASES {
        let mut lut = LutArray::new(LutGeometry::from_capacity(1024, DataWidth::W4));
        let mut model = std::collections::HashMap::new();
        let id = LutId::new(0).unwrap();
        for _ in 0..1 + rng.index(199) {
            let op = rng.below(4) as u8;
            let crc = rng.below(1 << 16);
            let val = u64::from(rng.next_u32());
            match op {
                0 | 1 => {
                    lut.insert(id, crc, val);
                    model.insert(crc, val);
                }
                2 => {
                    if let LookupOutcome::Hit(d) = lut.lookup(id, crc) {
                        // A hit must return the model's value (the LUT
                        // may have evicted, but never corrupts).
                        assert_eq!(Some(&d), model.get(&crc), "crc {crc:#x}");
                    }
                }
                _ => {
                    lut.invalidate_entry(id, crc);
                    model.remove(&crc);
                }
            }
        }
    }
}

/// LUT occupancy never exceeds capacity.
#[test]
fn lut_occupancy_bounded() {
    let mut rng = SplitMix64::new(6);
    for _ in 0..CASES {
        let geo = LutGeometry::from_capacity(512, DataWidth::W4);
        let mut lut = LutArray::new(geo);
        let id = LutId::new(1).unwrap();
        for _ in 0..rng.index(500) {
            lut.insert(id, u64::from(rng.next_u32()), 0);
            assert!(lut.occupancy() <= geo.entries());
        }
    }
}

/// Two-level LUT: a found entry always carries the updated data.
#[test]
fn two_level_is_consistent() {
    let mut rng = SplitMix64::new(7);
    for _ in 0..CASES {
        let mut lut = TwoLevelLut::new(&MemoConfig::l1_l2(64, 8 * 1024));
        let id = LutId::new(0).unwrap();
        let mut model = std::collections::HashMap::new();
        for i in 0..1 + rng.index(299) {
            let crc = rng.below(1 << 16);
            lut.update(id, crc, i as u64);
            model.insert(crc, i as u64);
        }
        for (crc, v) in model {
            if let Some(d) = lut.lookup(id, crc).data() {
                assert_eq!(d, v, "crc {crc:#x}");
            }
        }
    }
}

/// The pipeline never time-travels: issue cycles are monotone
/// non-decreasing along the dynamic instruction stream, and every
/// `not_before` constraint is honoured.
#[test]
fn pipeline_issue_is_monotone() {
    use axmemo_sim::pipeline::{FuClass, Pipeline};
    let mut rng = SplitMix64::new(9);
    for _ in 0..CASES {
        let mut p = Pipeline::new();
        let mut last = 0u64;
        for _ in 0..1 + rng.index(199) {
            let src = rng.below(32) as u8;
            let dst = rng.below(32) as u8;
            let latency = 1 + rng.below(19);
            let not_before = rng.below(50);
            let at = p.issue(&[src], Some(dst), FuClass::IntAlu, latency, not_before);
            assert!(at >= last, "time went backwards: {at} < {last}");
            assert!(at >= not_before);
            last = at;
        }
        assert!(p.drain() >= last);
    }
}

/// The branch predictor's stall charge is always 0 or the penalty, and
/// statistics add up.
#[test]
fn predictor_accounting_is_consistent() {
    use axmemo_sim::predictor::{BranchPredictor, PredictorConfig};
    let mut rng = SplitMix64::new(10);
    for _ in 0..CASES {
        let cfg = PredictorConfig::default();
        let mut bp = BranchPredictor::new(cfg);
        let mut stalls = 0;
        let n = 1 + rng.index(299);
        for _ in 0..n {
            let s = bp.resolve(rng.index(4096), rng.bool());
            assert!(s == 0 || s == cfg.mispredict_penalty);
            stalls += s;
        }
        let st = bp.stats();
        assert_eq!(st.predictions, n as u64);
        assert_eq!(stalls, st.mispredictions * cfg.mispredict_penalty);
    }
}

/// Cache hierarchy: re-touching the same address immediately is always
/// an L1 hit, whatever came before.
#[test]
fn cache_retouch_is_l1_hit() {
    use axmemo_sim::cache::{CacheConfig, CacheHierarchy};
    let mut rng = SplitMix64::new(11);
    for _ in 0..CASES {
        let mut h = CacheHierarchy::new(CacheConfig::default(), 0);
        for _ in 0..1 + rng.index(199) {
            let a = rng.below(1_000_000);
            let _ = h.access(a);
            assert_eq!(h.access(a), 1, "addr {a}");
        }
    }
}
