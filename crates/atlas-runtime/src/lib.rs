//! # atlas-runtime
//!
//! A tokio-based **networked runtime** that hosts any
//! [`Protocol`](atlas_core::Protocol) implementation — Atlas, EPaxos,
//! Flexible Paxos, Mencius — as a replica speaking real TCP, so the very same
//! pure state machines the discrete-event simulator drives also serve
//! traffic over sockets. This mirrors the separation the paper's artifact
//! (and the Compartmentalization line of work) draws between *protocol
//! logic* and the *deployment substrate*: protocols never see sockets, and
//! the runtime never sees quorums.
//!
//! ## The `Action` → network mapping
//!
//! A protocol consumes inputs (`submit`, `handle`, `tick`) and returns
//! [`Action`](atlas_core::Action)s. The replica event loop
//! ([`replica`]) owns the protocol plus the local
//! [`KVStore`](kvstore::KVStore) and maps each action onto the runtime:
//!
//! | `Action` | runtime effect |
//! |---|---|
//! | `Send { targets, msg }`, remote target | `msg` is bincode-encoded once, wrapped in a length-prefixed [`wire::PeerFrame`], and handed to the reconnecting [`transport::PeerLink`] to each target with the rest of the event-loop turn's frames for it (one hand-off, one socket write) |
//! | `Send { .. }`, own id among targets | delivered back into `Protocol::handle` with zero delay, before the next event is taken (the paper's "self-addressed messages are delivered immediately") |
//! | `Execute { dot, cmd }` | when the turn's journal records are written `cmd` is applied to the local KVS, which folds it into its execution summary, and — if the submitting client's session lives on this replica — a [`wire::ClientReply::Executed`] is pushed to it |
//! | `Commit { dot }` | bookkeeping only; clients are answered at execution time |
//!
//! Inbound, the runtime turns every network event back into protocol inputs:
//! peer frames become `handle` calls, client `Submit` frames become `submit`
//! calls, and a timer turns wall-clock time into periodic `tick` calls.
//! Time is passed to the protocol as microseconds since replica start, so
//! protocol-side latency metrics keep working unchanged.
//!
//! ## Durability and crash recovery
//!
//! With [`ReplicaConfig::data_dir`] set, a replica
//! journals every protocol input (client submissions, peer messages) to a
//! write-ahead log — staged **before** processing it, written with one
//! `write` per event-loop turn before anything derived from it leaves, a
//! client request as a unit with one fsync — and periodically checkpoints
//! its full state —
//! [`Protocol::save_state`](atlas_core::Protocol), the KVS, the execution
//! record: the event loop takes the cut, a writer thread persists it, and
//! the loop then truncates the journal prefix the snapshot covers. A
//! crashed replica restarted **under the same identifier** first
//! restores the snapshot, then replays the journal suffix (protocols are
//! deterministic state machines, so replay reconstructs exactly the state
//! its peers observed), and only then serves traffic. A replica that lost
//! its data directory rejoins with
//! [`Boot::CatchUp`]: it **streams** committed
//! state from every reachable peer as a sequence of bounded-size
//! [`wire::CatchUpChunk`]s — an executed-state base (the store's slots
//! and counters, which carry its execution summary, and the protocol's
//! [`save_executed`](atlas_core::Protocol::save_executed) marker) applied
//! atomically, then each peer's retained committed log replayed through
//! the normal message path (base-covered entries are idempotent no-ops) —
//! advancing its identifier generator past the
//! peers' observed horizon so identifiers of the lost incarnation are never
//! reissued. No frame ever carries the whole history, so catch-up keeps
//! working after the committed log has outgrown
//! [`wire::MAX_FRAME_BYTES`]. Peer links carry sequence numbers and
//! cumulative acks with sender-side resend buffers ([`transport`]), so
//! messages sent while a replica was down are redelivered once it returns.
//! See `ARCHITECTURE.md` at the repository root for the full design,
//! including what is deliberately *not* recovered (commands that were in
//! flight, uncommitted anywhere, when a disk was lost).
//!
//! ## Log compaction
//!
//! With [`gc_every`](ClusterOptions::gc_every) set, replicas
//! exchange their [`executed
//! watermarks`](atlas_core::Protocol::executed_watermarks) every tick
//! (piggybacked on the peer links) and, on the GC cadence and before every
//! snapshot cut, hand the pointwise minimum
//! — entries executed at **every** replica — to
//! [`Protocol::gc_executed`](atlas_core::Protocol::gc_executed), dropping
//! per-command bookkeeping that can never be needed again. Each advancing
//! round is journaled and asks for a snapshot, which truncates the WAL
//! and prunes older snapshots — protocol maps, journal and on-disk state
//! all stay bounded on a long-lived cluster, and a cut encodes the
//! in-flight window rather than the history.
//!
//! ## Failure detection
//!
//! The event loop runs a timeout-based [`FailureDetector`]
//! ([`ClusterOptions::suspect_after`] /
//! [`trust_after`](ClusterOptions::trust_after)): outbound links heartbeat
//! every tick, any inbound frame counts as evidence its sender is alive, and a
//! peer silent past the threshold is handed to
//! [`Protocol::suspect`](atlas_core::Protocol::suspect) through the
//! journaled input pipeline — every hosted protocol turns this into real
//! recovery (Atlas Algorithm-2 takeover, EPaxos explicit prepare, Mencius
//! slot revocation, FPaxos leader election), so a dead coordinator's
//! in-flight commands are resolved and the commands that conflict with
//! them stop stalling. See [`detector`] for the hysteresis state machine.
//!
//! ## Pieces
//!
//! * [`wire`] — length-prefixed bincode framing and the
//!   hello/request/reply/catch-up envelope types;
//! * [`transport`] — reconnecting outbound peer links with at-least-once
//!   delivery (resend buffers trimmed by cumulative acks, capped against
//!   long-dead peers) and tick-driven heartbeat probes;
//! * [`detector`] — the per-peer suspicion state machine with hysteresis
//!   that turns link silence into [`Protocol::suspect`
//!   calls](atlas_core::Protocol::suspect);
//! * [`netem`] — transport-level network-condition injection
//!   ([`NetProfile`]): per-directed-link delay/jitter/bandwidth schedules,
//!   scheduled symmetric and asymmetric cuts, and injected connection
//!   resets, enforced by the link writer below the resend buffer so every
//!   frame kind (heartbeats included) feels the imposed WAN;
//! * [`journal`] — what goes into the write-ahead log and snapshots, and
//!   how recovery replays them;
//! * [`metrics`] — the replica's runtime metric registry
//!   ([`ReplicaMetrics`]): command-lifecycle stage latencies, durability,
//!   detector and GC counters, exported as a
//!   [`MetricsSnapshot`] over the stats plane;
//! * [`replica`] — the event loop, composed of private modules that own
//!   their state: the inbound tasks (acceptor, peer readers, client
//!   sessions, ticker), the turn (the outbox that holds a turn's frames,
//!   acks and executions until its journal records are written — the
//!   write-ahead rule, in one place), durability, membership and catch-up;
//! * [`client`] — closed-loop ([`Client`]) and open-loop
//!   ([`OpenLoopClient`]) drivers with per-command latency capture;
//! * [`cluster`] — [`Cluster`], a harness booting an n-replica localhost
//!   cluster (each replica journaling to an ephemeral data dir) with
//!   kill/restart fault injection for tests/examples/benches.
//!
//! ## Example
//!
//! ```no_run
//! use atlas_core::Config;
//! use atlas_protocol::Atlas;
//! use atlas_runtime::{Client, Cluster};
//!
//! let rt = tokio::runtime::Runtime::new().unwrap();
//! rt.block_on(async {
//!     // A real 3-replica Atlas cluster over 127.0.0.1 TCP.
//!     let cluster = Cluster::spawn::<Atlas>(Config::new(3, 1)).await.unwrap();
//!     let mut client = Client::connect(cluster.addr(1), 1).await.unwrap();
//!     client.put(42, 7).await.unwrap();
//!     assert_eq!(client.get(42).await.unwrap(), Some(7));
//!     cluster.shutdown();
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catch_up;
pub mod client;
pub mod cluster;
mod config;
pub mod detector;
mod durability;
mod epochs;
mod executor;
mod inbound;
pub mod journal;
pub mod metrics;
pub mod netem;
pub mod replica;
pub mod transport;
mod turn;
pub mod wire;

pub use client::{Client, OpenLoopClient};
pub use cluster::{Cluster, ClusterOptions};
pub use detector::{DetectorEvent, FailureDetector};
pub use metrics::ReplicaMetrics;
pub use netem::{Cut, LinkRule, LinkShaper, NetProfile};
pub use replica::{Boot, ReplicaConfig, ReplicaHandle};

// Re-exported so downstream code can consume `Client::stats()` / the
// `--metrics-every` JSONL without naming the metrics crate directly.
pub use atlas_metrics::{HistogramSummary, MetricsSnapshot};
