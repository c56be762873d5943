//! # axmemo-core
//!
//! Hardware model of the **AxMemo** approximate-memoization unit
//! (Liu et al., *AxMemo: Hardware-Compiler Co-Design for Approximate Code
//! Memoization*, ISCA 2019).
//!
//! AxMemo replaces long dynamic instruction sequences with a few hash and
//! lookup operations: the inputs of a memoizable code block are streamed
//! through a CRC unit (optionally truncating low-order bits to trade
//! accuracy for hit rate), and the CRC value tags a set-associative
//! lookup table. A hit returns the block's outputs and the computation is
//! skipped; a miss executes the block and stores the result.
//!
//! This crate is the cycle-agnostic *functional + cost* model of that
//! hardware. Timing simulation lives in `axmemo-sim` (whose IR carries the
//! five ISA extensions as `sim::ir::Inst::Memo*`), and the compiler
//! analysis in `axmemo-compiler`.
//!
//! ## Modules
//!
//! * [`crc`] — bit-serial (specification) and byte-parallel CRC (Fig. 3).
//! * [`truncate`] — input-bit truncation, the approximation knob (§3.1).
//! * [`hvr`] — Hash Value Registers holding in-flight CRC state (§3.2).
//! * [`faults`] — deterministic fault injection and ECC protection.
//! * [`lut`] — the set-associative lookup table (§3.3, Fig. 4).
//! * [`two_level`] — L1 + optional inclusive L2 LUT hierarchy (§3.3–3.4).
//! * [`quality`] — runtime quality monitoring (§6).
//! * [`unit`](mod@crate::unit) — the per-core memoization unit façade (Fig. 2).
//! * [`config`] / [`ids`] — configuration and identifier types.
//!
//! ## Quickstart
//!
//! ```
//! use axmemo_core::config::MemoConfig;
//! use axmemo_core::ids::{LutId, ThreadId};
//! use axmemo_core::truncate::InputValue;
//! use axmemo_core::unit::{LookupResult, MemoizationUnit};
//!
//! # fn expensive_kernel(x: f32, y: f32) -> f32 { x * y + x.sqrt() }
//! let mut unit = MemoizationUnit::new(MemoConfig::l1_l2(8 * 1024, 512 * 1024))
//!     .expect("valid configuration");
//! let (lut, tid) = (LutId::new(0).unwrap(), ThreadId(0));
//!
//! let (x, y) = (1.25f32, 3.5f32);
//! unit.feed(lut, tid, InputValue::F32(x), 8);
//! unit.feed(lut, tid, InputValue::F32(y), 8);
//! let out = match unit.lookup(lut, tid) {
//!     LookupResult::Hit { data, .. } => f32::from_bits(data as u32),
//!     _ => {
//!         let v = expensive_kernel(x, y);
//!         unit.update(lut, tid, u64::from(v.to_bits()));
//!         v
//!     }
//! };
//! assert!(out > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod crc;
pub mod faults;
pub mod hvr;
pub mod ids;
pub mod lut;
pub mod quality;
pub mod snapshot;
pub mod truncate;
pub mod two_level;
pub mod unit;

pub use config::MemoConfig;
pub use faults::{FaultConfig, FaultInjector, FaultStats, Protection};
pub use ids::{LutId, ThreadId};
pub use snapshot::{
    CrashMode, CrashPoint, MemoSnapshot, RecoveryOutcome, RecoveryReport, SnapshotError,
};
pub use truncate::InputValue;
pub use two_level::RestorePolicy;
pub use unit::{LookupResult, MemoizationUnit};
