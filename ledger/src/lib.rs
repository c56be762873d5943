//! # axmemo-ledger
//!
//! Support library of the `bench_ledger` binary, the repository's
//! benchmark (see `BENCHMARK.json` and this crate's README): the JSON
//! reader, the order statistics and digests, the span tracer, the
//! benchmark definition and the parent-versus-change diff.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod diff;
pub mod json;
pub mod spec;
pub mod stats;
pub mod trace;
