//! # atlas
//!
//! A from-scratch Rust reproduction of *"State-Machine Replication for
//! Planet-Scale Systems"* (EuroSys 2020): the **Atlas** leaderless SMR
//! protocol, the baselines it is evaluated against (EPaxos, Flexible Paxos,
//! Mencius), a replicated key–value store, a deterministic planet-scale WAN
//! simulator, and the benchmark harness that regenerates the paper's
//! evaluation figures.
//!
//! This crate is a thin facade that re-exports the workspace crates:
//!
//! * [`core`] (`atlas-core`) — identifiers, commands, configuration, the
//!   [`Protocol`](core::Protocol) trait and metrics.
//! * [`metrics`] (`atlas-metrics`) — bounded histograms, atomic counters
//!   and the replica [`MetricsSnapshot`](metrics::MetricsSnapshot).
//! * [`protocol`] (`atlas-protocol`) — the Atlas protocol and its
//!   dependency-graph executor.
//! * [`epaxos`], [`fpaxos`], [`mencius`] — the baseline protocols.
//! * [`kvstore`] — the replicated key–value store and YCSB-style workloads.
//! * [`sim`] (`planet-sim`) — the discrete-event planet simulator and the
//!   per-figure experiment drivers.
//! * [`runtime`] (`atlas-runtime`) — the tokio-based networked runtime that
//!   serves any of the protocols over real TCP.
//!
//! See `README.md` for a quickstart and for its figure table, which says
//! how each of the paper's figures is reproduced here.
//!
//! ```
//! use atlas::core::{Command, Config, Protocol, Rifl};
//! use atlas::protocol::Atlas;
//! use atlas::core::Topology;
//!
//! let mut replica = Atlas::new(1, Config::new(3, 1), Topology::identity(1, 3));
//! let actions = replica.submit(Command::put(Rifl::new(1, 1), 0, 7, 100), 0);
//! assert!(!actions.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use atlas_core as core;
pub use atlas_metrics as metrics;
pub use atlas_protocol as protocol;
pub use atlas_runtime as runtime;
pub use epaxos;
pub use fpaxos;
pub use kvstore;
pub use mencius;
pub use planet_sim as sim;
