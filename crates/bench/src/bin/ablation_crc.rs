//! Ablation: CRC width vs. collision rate on real workload input
//! streams.
//!
//! §6 claims "32-bit CRC is generally large enough to avoid collision".
//! This experiment replays each benchmark's recorded lookup events and
//! re-hashes the raw input bytes at 16/32/64 bits, counting *tag
//! collisions*: distinct input tuples mapping to the same CRC value.

fn main() {
    axmemo_bench::experiments::experiment("ablation_crc").main();
}
