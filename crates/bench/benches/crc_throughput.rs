//! Micro-benchmark: CRC hashing throughput for the two
//! implementations (serial bit-wise specification, byte-parallel table)
//! over the paper's memoization-input sizes
//! (4 bytes for fft up to 36 bytes for sobel/jmeint).
//!
//! Runs under `cargo bench` with the in-tree harness
//! (`axmemo_bench::timing`); no external benchmarking crates.

use axmemo_bench::timing::report;
use axmemo_core::crc::{CrcWidth, SerialCrc, TableCrc};
use std::hint::black_box;

fn main() {
    println!("crc_throughput (ns/iter, lower is better)");
    for size in [4usize, 8, 12, 16, 24, 36] {
        let data: Vec<u8> = (0..size).map(|i| (i * 37) as u8).collect();
        let serial = SerialCrc::new(CrcWidth::W32);
        report(&format!("crc/serial/{size}B"), || {
            black_box(serial.checksum(black_box(&data)));
        });
        let table = TableCrc::new(CrcWidth::W32);
        report(&format!("crc/table/{size}B"), || {
            black_box(table.checksum(black_box(&data)));
        });
    }
}
