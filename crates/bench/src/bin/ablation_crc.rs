//! Ablation: CRC width vs. collision rate on real workload input
//! streams.
//!
//! §6 claims "32-bit CRC is generally large enough to avoid collision".
//! This experiment replays each benchmark's recorded lookup events and
//! re-hashes the raw input bytes at 16/32/64 bits, and with the two
//! cheaper keys the paper argues against (a 32-bit xor-fold and
//! ATM-style 8-byte sampling), counting *tag collisions*: distinct
//! input tuples of one LUT mapping to the same key. The footer is
//! computed from the counts.

fn main() {
    axmemo_bench::experiments::experiment("ablation_crc").main();
}
