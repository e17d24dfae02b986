//! # atlas-metrics
//!
//! The runtime observability toolkit: constant-memory histograms, atomic
//! counter/gauge cells, and the [`MetricsSnapshot`] a replica exports over
//! the stats plane.
//!
//! A long-lived replica cannot afford to retain samples, so the runtime
//! records into [`BoundedHistogram`] (plain, for export) and
//! [`AtomicHistogram`] (shared, for the hot path) — log-bucketed at 16
//! sub-buckets per octave, 6.25% worst-case quantile error, ~8 KiB each,
//! forever. Protocol counters need no histogram at all: they are the flat
//! [`atlas_core::ProtocolStats`] the protocol records into directly.
//!
//! Three consumers read the same [`MetricsSnapshot`]:
//!
//! 1. `ClientRequest::Stats` → `ClientReply::Stats` over any client socket
//!    (binary serde; histograms ship whole so they can be merged across
//!    replicas before taking percentiles);
//! 2. the `--metrics-every <ticks>` JSONL dump in the replica data dir
//!    ([`MetricsSnapshot::to_json`], one line per dump);
//! 3. the `atlas-top` binary, which polls every replica and renders a
//!    one-screen cluster summary.

// deny (not forbid): `alloc` carries the workspace's one scoped
// `#[allow(unsafe_code)]` — the GlobalAlloc forwarding shim.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod histogram;
mod registry;
mod snapshot;

pub use alloc::{allocated_bytes, allocations, CountingAllocator};
pub use histogram::{BoundedHistogram, BUCKETS, SUBBUCKETS};
pub use registry::{AtomicHistogram, Counter, Gauge};
pub use snapshot::{
    DetectorStats, DurabilityStats, ExecutorShardStats, ExecutorStats, GcStats, HistogramSummary,
    LifecycleStats, LinkSnapshot, MetricsSnapshot, ReactorStats,
};
