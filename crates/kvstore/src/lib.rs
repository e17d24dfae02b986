//! # kvstore
//!
//! The replicated service used throughout the paper's evaluation: a
//! key–value store state machine ([`KVStore`]), plus the workload generators
//! that drive it:
//!
//! * [`workload::ConflictWorkload`] — the §5.2 microbenchmark: single-key
//!   write commands that pick key 0 with probability ρ (the *conflict rate*)
//!   and a unique per-client key otherwise, with a configurable payload size.
//! * [`workload::YcsbWorkload`] — a YCSB-style workload (§5.7): single-key
//!   reads/writes over 10⁶ records chosen with a Zipfian distribution
//!   (default YCSB skew), with configurable read/write mixes.
//! * [`zipf::Zipfian`] — the scrambled-Zipfian key chooser used by YCSB.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod store;
pub mod workload;
pub mod zipf;

pub use store::{ExecutionSummary, KVStore, Output, Slot};
pub use workload::{ConflictWorkload, Workload, YcsbWorkload};
pub use zipf::Zipfian;
