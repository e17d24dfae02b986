//! # atlas-core
//!
//! Protocol-agnostic substrate for state-machine replication (SMR) protocols,
//! shared by the Atlas protocol (the paper's contribution) and all baselines
//! (EPaxos, Flexible Paxos, Mencius).
//!
//! The crate provides:
//!
//! * [`base`] — [`Base`], the replica state every protocol embeds (identity,
//!   view, quorum draws, identifier horizons, metrics).
//! * [`id`] — process, client and command identifiers ([`Dot`], [`Rifl`]).
//! * [`depset`] — [`DepSet`], the sorted small-vector every dependency set
//!   is, and [`hash`] — [`IdMap`]/[`IdSet`], the tables keyed by
//!   replica-minted identifiers.
//! * [`command`] — multi-key key-value commands and the *conflict* relation
//!   used by leaderless protocols.
//! * [`config`] — cluster configuration (`n`, `f`, optimization switches) and
//!   quorum-size arithmetic.
//! * [`protocol`] — the [`Protocol`] trait every replication protocol in this
//!   workspace implements, plus the [`Action`] output language consumed by the
//!   discrete-event simulator (or any other runtime).
//! * [`metrics`] — [`ProtocolStats`], the constant-size per-replica counters
//!   (fast/slow path ratios, commit-to-execute delays, batch sizes, …).
//! * [`util`] — deterministic helpers (stable sorting by distance, simple
//!   statistics).
//!
//! The paper this workspace reproduces is *"State-Machine Replication for
//! Planet-Scale Systems"* (EuroSys 2020).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base;
pub mod command;
pub mod config;
pub mod depset;
pub mod hash;
pub mod id;
pub mod metrics;
pub mod protocol;
pub mod util;
pub mod view;

pub use base::Base;
pub use command::{Command, Key, KvOp, ReconfigOp, Value};
pub use config::Config;
pub use depset::DepSet;
pub use hash::{IdMap, IdSet};
pub use id::{ClientId, Dot, DotGen, ProcessId, Rifl};
pub use metrics::ProtocolStats;
pub use protocol::{Action, Protocol, Topology};
pub use view::ClusterView;
