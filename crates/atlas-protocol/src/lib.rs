//! # atlas-protocol
//!
//! The Atlas leaderless state-machine replication protocol from
//! *"State-Machine Replication for Planet-Scale Systems"* (EuroSys 2020),
//! together with its dependency-graph execution layer.
//!
//! The protocol is written as one dependency-commit engine, [`Deps`], whose
//! [`CommitRule`] parameter holds the five decisions the paper's two
//! leaderless protocols take differently: [`Atlas`] is `Deps<AtlasRule>`,
//! and the `epaxos` crate supplies the other rule. Both speak [`Message`].
//!
//! Highlights of the Atlas rule (see the paper and `ARCHITECTURE.md`):
//!
//! * **Small fast quorums** of size `⌊n/2⌋ + f`, where the number of
//!   tolerated concurrent site failures `f` is chosen independently of `n`.
//! * A **flexible fast-path condition**: the coordinator commits after a
//!   single round trip whenever every reported dependency was reported by at
//!   least `f` fast-quorum members — even if the replies do not match. With
//!   `f = 1` the fast path is always taken.
//! * A **slow path** running single-decree Flexible Paxos per command, with
//!   phase-2 quorums of only `f + 1` processes.
//! * A **recovery protocol** that reconstructs fast-path decisions after up
//!   to `f` failures by taking unions of reported dependencies (Property 2).
//! * The **execution layer** (Algorithm 3) that executes committed commands
//!   in dependency-closed batches, ordering commands inside a batch by a
//!   fixed total order on identifiers.
//! * The two optimizations of §4: slow-path dependency pruning and
//!   non-fault-tolerant reads (NFR).
//!
//! # Example
//!
//! ```
//! use atlas_core::{Command, Config, Protocol, Rifl, Topology};
//! use atlas_protocol::Atlas;
//!
//! // A 5-site deployment tolerating one site failure.
//! let config = Config::new(5, 1);
//! let topology = Topology::identity(1, 5);
//! let mut replica = Atlas::new(1, config, topology);
//!
//! // Submit a command: the replica emits an MCollect to its fast quorum.
//! let cmd = Command::put(Rifl::new(1, 1), 42, 7, 100);
//! let actions = replica.submit(cmd, 0);
//! assert_eq!(actions.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(any(test, feature = "chaos"))]
pub mod chaos;
pub mod graph;
pub mod keydeps;
pub mod messages;
pub mod protocol;
pub mod recovery;
pub mod rule;

pub use graph::{DependencyGraph, ExecutedMarker};
pub use keydeps::KeyDeps;
pub use messages::{Ballot, Message};
pub use protocol::{Atlas, Deps};
pub use recovery::RecAck;
pub use rule::{AtlasRule, CommitRule};
