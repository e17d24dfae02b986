//! Static configuration of one networked replica: who it is, where it keeps
//! its state, how it boots ([`Boot`]), and the runtime knobs
//! ([`ClusterOptions`]) that the library, the in-process
//! [`Cluster`](crate::Cluster) and the `atlas-replica` binary all share.

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

/// How a replica comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boot {
    /// Recover from the data directory (if any), then serve.
    Resume,
    /// Recover, then fetch committed state from peers before serving — for
    /// a replica rejoining under its old identifier with a lost data dir.
    CatchUp,
    /// Boot as a **joiner**: this replica is not (yet) a member of the
    /// configuration in [`ReplicaConfig::addrs`] — it bootstraps from the
    /// listed members by catch-up, stays a non-voting learner until a
    /// `Reconfigure::Enter` naming it executes, and starts voting only once
    /// it has replayed that barrier. `addrs` then holds the *current
    /// members plus this replica*, and [`ReplicaConfig::config`] describes
    /// the current (pre-join) configuration.
    Join,
}

/// Static configuration of one networked replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// This replica's identifier (`1..=n`).
    pub id: ProcessId,
    /// Protocol configuration (`n`, `f`, optimization switches).
    pub config: Config,
    /// Listen/dial addresses of **all** replicas, own id included.
    pub addrs: HashMap<ProcessId, SocketAddr>,
    /// Where to keep the durable journal and snapshots. `None` runs the
    /// replica ephemeral (crash = state loss), the pre-durability behaviour.
    pub data_dir: Option<PathBuf>,
    /// How the replica comes up.
    pub boot: Boot,
    /// The runtime knobs.
    pub options: ClusterOptions,
}

impl ReplicaConfig {
    /// An ephemeral replica (no data directory) that resumes on boot, with
    /// [`ClusterOptions::default`] knobs.
    pub fn new(id: ProcessId, config: Config, addrs: HashMap<ProcessId, SocketAddr>) -> Self {
        Self {
            id,
            config,
            addrs,
            data_dir: None,
            boot: Boot::Resume,
            options: ClusterOptions::default(),
        }
    }
}

/// The runtime knobs of a replica — one declaration, one default each. A
/// [`Cluster`](crate::Cluster) hands the same options to every replica it
/// boots; `atlas-replica` parses its flags into them.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Cadence of the replica tick (acks, heartbeats, detector, GC).
    pub tick_interval: Duration,
    /// fsync batching for the journal (ignored without a data dir).
    pub flush_policy: FlushPolicy,
    /// Snapshot (and truncate the journal) every this many journaled
    /// records; 0 disables snapshotting and keeps the full journal.
    pub snapshot_every: u64,
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
    /// frame. The default is deliberately far below the frame cap: the
    /// point of chunking is that no frame ever approaches it.
    pub catch_up_chunk_bytes: usize,
    /// Append one [`MetricsSnapshot`] line to `<data_dir>/metrics.jsonl`
    /// every this many ticks (0 disables the dump; it also needs a data
    /// directory). The live stats plane (`ClientRequest::Stats`,
    /// `atlas-top`) works regardless of this knob.
    pub metrics_every: u64,
    /// Injected network conditions for the replica's **outbound** peer
    /// links (delay/jitter/bandwidth, scheduled cuts, connection resets —
    /// see [`crate::netem`]). Rules select **directed** links by the
    /// sending and receiving replica identifiers, so one profile describes
    /// a whole cluster's geo topology (and its scheduled partitions).
    /// `None` runs every link unshaped; client connections are never
    /// shaped. Cut schedules are measured from replica boot.
    pub net: Option<NetProfile>,
    /// Injected storage latency per replica: stall this long inside every
    /// write-ahead fsync (on the event loop, heartbeats included) and every
    /// fsync of the snapshot writer (on its thread), exactly like a real
    /// fsync that takes this long. Replicas absent from the map run
    /// unstalled. A harness knob for slow-disk drills. The WAL fsync inside
    /// a snapshot cut is metered but not stalled.
    pub fsync_stall: HashMap<ProcessId, Duration>,
}

impl Default for ClusterOptions {
    /// Flushing is OS-buffered: in-process clusters crash processes, never
    /// the host, so fsyncs would only slow them. `atlas-replica`
    /// deployments flush [`FlushPolicy::default`] (`every:64`) instead.
    fn default() -> Self {
        Self {
            tick_interval: Duration::from_millis(25),
            flush_policy: FlushPolicy::OsBuffered,
            snapshot_every: 4096,
            suspect_after: Some(Duration::from_millis(1_500)),
            trust_after: Duration::from_millis(250),
            gc_every: 0,
            catch_up_chunk_bytes: 4 << 20,
            metrics_every: 0,
            net: None,
            fsync_stall: HashMap::new(),
        }
    }
}

impl ClusterOptions {
    /// Returns a copy with fast failure detection for fault-injection
    /// tests: suspect after `suspect_after`, restore trust after half of
    /// it. Keep the threshold a healthy multiple of
    /// [`ClusterOptions::tick_interval`] so heartbeats can actually refute
    /// the suspicion.
    pub fn with_suspicion(mut self, suspect_after: Duration) -> Self {
        self.suspect_after = Some(suspect_after);
        self.trust_after = suspect_after / 2;
        self
    }

    /// Returns a copy with the given injected network conditions on every
    /// replica's peer links (see [`NetProfile`]).
    pub fn with_net(mut self, net: NetProfile) -> Self {
        self.net = Some(net);
        self
    }
}
