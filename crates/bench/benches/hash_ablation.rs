//! Ablation bench: CRC hashing vs. the alternatives the paper argues
//! against — ATM-style byte sampling and a simple xor-fold. Measures
//! (a) throughput and (b) collision quality on a redundant-but-distinct
//! input population (quantised tuples with jitter), printing collision
//! counts first so the quality story is visible alongside the speed
//! story. Uses the in-tree harness (`axmemo_bench::timing`).

use axmemo_bench::timing::report;
use axmemo_core::crc::{CrcWidth, TableCrc};
use std::collections::HashMap;
use std::hint::black_box;

/// xor-fold "hash": xor all 4-byte words together.
fn xor_fold(data: &[u8]) -> u64 {
    let mut acc = 0u32;
    for chunk in data.chunks(4) {
        let mut w = [0u8; 4];
        w[..chunk.len()].copy_from_slice(chunk);
        acc ^= u32::from_le_bytes(w);
    }
    u64::from(acc)
}

/// ATM-style sample: first 8 bytes only.
fn sample8(data: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    let n = data.len().min(8);
    w[..n].copy_from_slice(&data[..n]);
    u64::from_le_bytes(w)
}

/// Distinct 36-byte tuples (sobel-sized), differing in one late float.
fn population() -> Vec<Vec<u8>> {
    (0..10_000u32)
        .map(|i| {
            let mut v = Vec::with_capacity(36);
            for k in 0..9u32 {
                let f = if k == 8 {
                    1.0 + i as f32 * 1e-4 // the distinguishing element
                } else {
                    0.5 + k as f32 * 0.125
                };
                v.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            v
        })
        .collect()
}

fn collisions<H: Fn(&[u8]) -> u64>(pop: &[Vec<u8>], h: H) -> usize {
    let mut seen: HashMap<u64, &[u8]> = HashMap::new();
    let mut collisions = 0;
    for p in pop {
        let key = h(p);
        match seen.get(&key) {
            Some(prev) if *prev != p.as_slice() => collisions += 1,
            _ => {
                seen.insert(key, p);
            }
        }
    }
    collisions
}

fn main() {
    let pop = population();
    let crc = TableCrc::new(CrcWidth::W32);

    // Report collision quality once, alongside the speed numbers.
    println!(
        "hash collision counts over {} distinct 36B tuples: crc32 {}, xor_fold {}, sample8 {}",
        pop.len(),
        collisions(&pop, |d| crc.checksum(d)),
        collisions(&pop, xor_fold),
        collisions(&pop, sample8),
    );

    let data = &pop[42];
    report("hash/crc32_36B", || {
        black_box(crc.checksum(black_box(data)));
    });
    report("hash/xor_fold_36B", || {
        black_box(xor_fold(black_box(data)));
    });
    report("hash/sample8_36B", || {
        black_box(sample8(black_box(data)));
    });
}
