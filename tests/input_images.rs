//! Pins every benchmark's input image: the machine `Benchmark::setup`
//! returns at `tiny` and `small`, for both datasets, hashed over its
//! memory length and every byte (a page never written reads as zero,
//! as `Machine` equality has it). A generator change that moves one
//! input byte fails here by name, before any figure golden moves.

use axmemo_sim::cpu::Machine;
use axmemo_sim::ir::MemWidth;
use axmemo_workloads::{all_benchmarks, Dataset, Scale};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The memory length: the first address whose byte does not load.
fn mem_len(m: &Machine) -> u64 {
    let (mut lo, mut hi) = (0u64, 1u64 << 40);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if m.load(mid, MemWidth::B1).is_ok() {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// FNV-1a over the memory length (little-endian u64) and every byte.
fn image_digest(m: &Machine) -> u64 {
    let len = mem_len(m);
    let mut h = Fnv::new();
    h.bytes(&len.to_le_bytes());
    let words = len / 8;
    for w in 0..words {
        let v = m.load(8 * w, MemWidth::B8).expect("in bounds");
        h.bytes(&v.to_le_bytes());
    }
    for a in 8 * words..len {
        let v = m.load(a, MemWidth::B1).expect("in bounds");
        h.bytes(&[v as u8]);
    }
    h.0
}

/// Checks every benchmark's images at `scale` against `expected`
/// (`(benchmark, eval digest, sample digest)`, Table 2 order), naming
/// every image that drifted.
fn check(scale: Scale, expected: &[(&str, u64, u64)]) {
    let benches = all_benchmarks();
    assert_eq!(benches.len(), expected.len());
    let mut drifted = Vec::new();
    for (b, &(name, eval, sample)) in benches.iter().zip(expected) {
        assert_eq!(b.meta().name, name);
        for (dataset, want) in [(Dataset::Eval, eval), (Dataset::Sample, sample)] {
            let got = image_digest(&b.setup(scale, dataset));
            if got != want {
                drifted.push(format!(
                    "{name} {dataset:?}: {got:#018x}, pinned {want:#018x}"
                ));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "{scale:?} input images drifted:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn tiny_input_images_are_pinned() {
    check(
        Scale::Tiny,
        &[
            ("blackscholes", 0x12bd_52d1_740a_1038, 0x4c9d_30f7_0962_cc1c),
            ("fft", 0xea0a_edb1_f1e3_5502, 0x94f9_6b7e_5b99_4fcd),
            ("inversek2j", 0x0c2e_5bd1_1ae2_7c9a, 0x8a07_dc8d_b0ab_d2d5),
            ("jmeint", 0x5b13_ec15_58ff_bd90, 0x52a8_9362_5185_5265),
            ("jpeg", 0x3242_2bdb_6cb4_5f00, 0xbdb4_62ec_96de_34d3),
            ("kmeans", 0x34bd_1f56_b7da_bb12, 0xf43f_c4c9_3693_e04a),
            ("sobel", 0xa463_0e0c_1566_9750, 0x9d25_712b_a0ea_2337),
            ("hotspot", 0xd555_588d_6d4b_0c45, 0x0833_802a_71aa_25d9),
            ("lavamd", 0xfaef_8958_6d0e_b0aa, 0x3654_bbcf_e23d_4c4a),
            ("srad", 0x7e63_360d_cc17_9c34, 0x04d2_8f11_8f2f_4218),
        ],
    );
}

#[test]
fn small_input_images_are_pinned() {
    check(
        Scale::Small,
        &[
            ("blackscholes", 0x27c1_f662_0a23_f6c0, 0xc4fb_7437_7603_90de),
            ("fft", 0xf128_de6a_5e9f_b5bd, 0xfbde_f6bd_c15e_d1c4),
            ("inversek2j", 0xe055_4025_9f70_088d, 0xbbbd_8591_7951_4c9d),
            ("jmeint", 0x9691_48f1_5953_242d, 0x9a6e_6aec_373c_9598),
            ("jpeg", 0xbddb_ff91_ec20_ee47, 0x9362_2314_a251_6787),
            ("kmeans", 0x33aa_4080_3dae_7b20, 0x193c_a292_8c68_847d),
            ("sobel", 0x4b4b_1773_cd8c_402c, 0xbc1a_793f_40c3_1499),
            ("hotspot", 0xc043_6c20_3aee_3647, 0x0e14_4ba5_1fa2_6642),
            ("lavamd", 0xfb70_e045_1d53_244f, 0x7ce1_6857_1b0b_9e38),
            ("srad", 0xe8ee_3584_bd7e_43c2, 0x7552_c5e2_84ca_9128),
        ],
    );
}
