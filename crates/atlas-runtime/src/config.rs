//! Static configuration of one networked replica.

use crate::netem::NetProfile;
#[cfg(doc)]
use crate::wire::MAX_FRAME_BYTES;
use atlas_core::{Config, ProcessId};
#[cfg(doc)]
use atlas_core::{Protocol, ReconfigOp};
use atlas_log::FlushPolicy;
#[cfg(doc)]
use atlas_metrics::MetricsSnapshot;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

/// Default budget for one catch-up chunk's payload. Deliberately far below
/// [`MAX_FRAME_BYTES`]: the point of chunking is that no frame ever
/// approaches the cap, however long the served history is.
pub const DEFAULT_CATCH_UP_CHUNK_BYTES: usize = 4 << 20;

/// Static configuration of one networked replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// This replica's identifier (`1..=n`).
    pub id: ProcessId,
    /// Protocol configuration (`n`, `f`, optimization switches).
    pub config: Config,
    /// Listen/dial addresses of **all** replicas, own id included.
    pub addrs: HashMap<ProcessId, SocketAddr>,
    /// Cadence of the replica tick (acks, heartbeats, detector, GC).
    pub tick_interval: Duration,
    /// Where to keep the durable journal and snapshots. `None` runs the
    /// replica ephemeral (crash = state loss), the pre-durability behaviour.
    pub data_dir: Option<PathBuf>,
    /// fsync batching for the journal (ignored without a data dir).
    pub flush_policy: FlushPolicy,
    /// Snapshot (and truncate the journal) every this many journaled
    /// records; 0 disables snapshotting and keeps the full journal.
    pub snapshot_every: u64,
    /// On startup, fetch committed state from peers before serving — for a
    /// replica rejoining under its old identifier with a lost data dir.
    pub catch_up: bool,
    /// Boot as a **joiner**: this replica is not (yet) a member of the
    /// configuration in `addrs` — it bootstraps from the listed members
    /// (set `catch_up` too), stays a non-voting learner until a
    /// `Reconfigure::Enter` naming it executes, and starts voting only
    /// once it has replayed that barrier. With `join`, `addrs` holds the
    /// *current members plus this replica*, and `config` describes the
    /// current (pre-join) configuration.
    pub join: bool,
    /// Suspect a peer after this much silence and hand it to
    /// [`Protocol::suspect`]. Atlas and EPaxos take a silent peer's
    /// commands over as soon as it is late (it leaves the distance order a
    /// few ticks into its silence, see [`crate::detector`]); this threshold
    /// governs FPaxos leader change, Mencius slot revocation and the retry
    /// of a takeover whose ballot was outbid, repeated every
    /// `suspect_after` while the peer stays silent. `None` disables failure
    /// detection (the pre-detector behaviour: a dead coordinator's
    /// in-flight commands stall everything that conflicts with them
    /// forever). Must comfortably exceed `tick_interval` — the silence
    /// clock only advances between heartbeats — and should leave headroom
    /// for scheduling noise: a false suspicion is *safe* (recovery is
    /// consensus-protected) but can replace a live coordinator's
    /// not-yet-propagated commands with `noOp`s, which drops those commands.
    pub suspect_after: Option<Duration>,
    /// Hysteresis: a suspected peer must stay audible this long before it
    /// is trusted again, so a flapping link does not oscillate between
    /// suspicion (each one a recovery broadcast) and trust. Must strictly
    /// exceed `tick_interval`: "audible" means heard within the last
    /// `trust_after`, and heartbeats only arrive once per tick.
    pub trust_after: Duration,
    /// Run an executed-entry garbage-collection round every this many
    /// ticks: once every peer has reported its executed watermarks, hand
    /// the pointwise minimum to [`Protocol::gc_executed`] (journaled, and a
    /// snapshot follows that trims the WAL and prunes older snapshots).
    /// While GC is on, the watermarks go out every tick whatever this
    /// value, and a round also runs right before every snapshot cut, so a
    /// cut encodes the in-flight window rather than the executed history.
    /// 0 disables GC — the
    /// protocol's per-command maps then grow with the full history, the
    /// pre-compaction behaviour. GC only ever collects entries executed at
    /// **every** replica, so while any current member is down (or has
    /// never reported) the horizon stops advancing past that member's last
    /// report. The fold is keyed on the current configuration: replacing a
    /// dead member (`Reconfigure` barrier, see [`ReconfigOp`]) drops its
    /// stale report and the horizon resumes once the replacement reports.
    pub gc_every: u64,
    /// Budget for one catch-up chunk's payload, in bytes (clamped to half
    /// of [`MAX_FRAME_BYTES`]); smaller values force more, smaller frames.
    /// The serving replica packs store records, execution-record slices and
    /// committed messages into chunks of at most this size, so catch-up
    /// works no matter how far the served history has outgrown a single
    /// frame.
    pub catch_up_chunk_bytes: usize,
    /// Append one [`MetricsSnapshot`] line to `<data_dir>/metrics.jsonl`
    /// every this many ticks (0 disables the dump; it also needs a data
    /// directory). The live stats plane (`ClientRequest::Stats`,
    /// `atlas-top`) works regardless of this knob.
    pub metrics_every: u64,
    /// Injected network conditions for this replica's **outbound** peer
    /// links (delay/jitter/bandwidth, scheduled cuts, connection resets —
    /// see [`crate::netem`]). `None` runs every link unshaped. Cut
    /// schedules are measured from replica boot.
    pub net: Option<NetProfile>,
    /// Injected storage latency: stall this long inside every write-ahead
    /// fsync (on the event loop, heartbeats included) and every fsync of
    /// the snapshot writer (on its thread), exactly like a real fsync that
    /// takes this long; zero disables. A harness knob for slow-disk drills.
    /// The WAL fsync inside a snapshot cut is metered but not stalled.
    pub fsync_stall: Duration,
    /// Executor shards: partition the keyspace into this many hash shards
    /// and execute protocol-ordered commands on one executor thread per
    /// shard ([`crate::executor`]). Commands touching disjoint shards
    /// execute concurrently; multi-shard commands take a deterministic
    /// cross-shard barrier. `1` (the default) is the same pool with one
    /// shard and no executor thread: the event loop applies each command
    /// itself, with no hand-off. Execution output is shard-count
    /// independent, so replicas of one cluster (and successive incarnations
    /// of one replica) may use different values.
    pub shards: usize,
}

impl ReplicaConfig {
    /// Configuration with the default 25 ms tick cadence, no data directory
    /// (ephemeral state), default flush/snapshot knobs and failure
    /// detection on (1.5 s suspicion threshold, 250 ms trust hysteresis).
    pub fn new(id: ProcessId, config: Config, addrs: HashMap<ProcessId, SocketAddr>) -> Self {
        Self {
            id,
            config,
            addrs,
            tick_interval: Duration::from_millis(25),
            data_dir: None,
            flush_policy: FlushPolicy::default(),
            snapshot_every: 4096,
            catch_up: false,
            join: false,
            suspect_after: Some(Duration::from_millis(1_500)),
            trust_after: Duration::from_millis(250),
            gc_every: 0,
            catch_up_chunk_bytes: DEFAULT_CATCH_UP_CHUNK_BYTES,
            metrics_every: 0,
            net: None,
            fsync_stall: Duration::ZERO,
            shards: 1,
        }
    }
}
