//! The [`Cluster`] harness: boots an `n`-replica cluster of any protocol on
//! localhost — each replica journaling to its own ephemeral data directory —
//! and supports crash/restart fault injection for tests, examples and
//! benches.

use crate::client::Client;
pub use crate::config::ClusterOptions;
use crate::replica::{self, Boot, ReplicaConfig, ReplicaHandle};
use atlas_core::{Config, ProcessId, Protocol, ReconfigOp};
use atlas_log::TempDir;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tokio::net::TcpListener;

/// Client-identity space for the cluster harness's own membership
/// barriers, far above anything workloads use.
const ADMIN_CLIENT_BASE: u64 = 0xAD31_0000;

/// Root of the cluster's on-disk tree: a self-removing temp dir by
/// default, or a kept directory under `$ATLAS_DATA_ROOT` when that
/// environment variable is set — CI fault drills set it so the replicas'
/// journals and snapshots survive a failing run and can be uploaded as a
/// post-mortem artifact.
#[derive(Debug)]
enum DataRoot {
    /// Removed (with all replica data dirs) when the cluster drops.
    Ephemeral(TempDir),
    /// Kept on disk after the run.
    Kept(PathBuf),
}

impl DataRoot {
    fn create() -> io::Result<Self> {
        match std::env::var_os("ATLAS_DATA_ROOT") {
            Some(root) => {
                static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
                let unique = format!(
                    "cluster-{}-{}",
                    std::process::id(),
                    COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                );
                let path = PathBuf::from(root).join(unique);
                std::fs::create_dir_all(&path)?;
                Ok(Self::Kept(path))
            }
            None => Ok(Self::Ephemeral(TempDir::new("atlas-cluster")?)),
        }
    }

    fn path(&self) -> &std::path::Path {
        match self {
            Self::Ephemeral(dir) => dir.path(),
            Self::Kept(path) => path,
        }
    }
}

/// A running cluster of networked replicas on 127.0.0.1.
///
/// Every replica gets `<tmp>/atlas-cluster-*/r<id>` as its data directory,
/// removed when the `Cluster` drops (kept on disk when `$ATLAS_DATA_ROOT`
/// is set, so CI fault drills can upload journals and snapshots as a
/// post-mortem artifact) — so every cluster test exercises the durability
/// layer, and crash/restart scenarios need no extra setup:
///
/// * [`Cluster::kill`] stops a replica abruptly (no flush, no checkpoint —
///   equivalent to SIGKILL as far as replica state is concerned);
/// * [`Cluster::restart`] boots it again under the same identifier, address
///   and data directory, recovering from its journal;
/// * [`Cluster::restart_wiped`] wipes the data directory first and boots
///   with peer catch-up enabled, exercising the state-transfer path.
#[derive(Debug)]
pub struct Cluster {
    handles: HashMap<ProcessId, Option<ReplicaHandle>>,
    addrs: HashMap<ProcessId, SocketAddr>,
    /// Each replica's configuration at its latest boot. A restart changes
    /// only [`ReplicaConfig::boot`], so a replica added later keeps the
    /// address book (and the [`Boot::Join`]) of its first spawn — its
    /// snapshot/journal then re-derives the current membership, whatever
    /// the cluster looks like by now.
    replicas: HashMap<ProcessId, ReplicaConfig>,
    /// The current **target** member set (updated the moment a membership
    /// op submits its `Enter` barrier; the joint window dissolves
    /// asynchronously) and its failure budget.
    members: Vec<ProcessId>,
    f: usize,
    /// Mints unique admin client identities for membership barriers.
    admin_clients: u64,
    /// Owns the on-disk tree of every replica's data dir.
    data_root: DataRoot,
}

impl Cluster {
    /// Boots `config.n` replicas of protocol `P` on ephemeral localhost
    /// ports. Returns once every replica's listener is live (replicas dial
    /// each other lazily with reconnecting links, so no start-order dance is
    /// needed).
    pub async fn spawn<P>(config: Config) -> io::Result<Self>
    where
        P: Protocol + Send + 'static,
        P::Message: Serialize + Deserialize + Send + 'static,
    {
        Self::spawn_with::<P>(config, ClusterOptions::default()).await
    }

    /// Boots the cluster with explicit [`ClusterOptions`].
    pub async fn spawn_with<P>(config: Config, options: ClusterOptions) -> io::Result<Self>
    where
        P: Protocol + Send + 'static,
        P::Message: Serialize + Deserialize + Send + 'static,
    {
        let data_root = DataRoot::create()?;
        // Bind every replica on port 0 first, so the full address map exists
        // before any replica starts.
        let mut listeners = Vec::with_capacity(config.n);
        let mut addrs = HashMap::new();
        for id in 1..=config.n as ProcessId {
            let listener = TcpListener::bind("127.0.0.1:0").await?;
            addrs.insert(id, listener.local_addr()?);
            listeners.push((id, listener));
        }
        let mut cluster = Self {
            handles: HashMap::new(),
            addrs,
            replicas: HashMap::new(),
            members: (1..=config.n as ProcessId).collect(),
            f: config.f,
            admin_clients: 0,
            data_root,
        };
        for (id, listener) in listeners {
            let cfg = ReplicaConfig {
                id,
                config,
                addrs: cluster.addrs.clone(),
                data_dir: Some(cluster.dir(id)),
                boot: Boot::Resume,
                options: options.clone(),
            };
            cluster.launch::<P>(cfg, listener)?;
        }
        Ok(cluster)
    }

    fn dir(&self, id: ProcessId) -> PathBuf {
        self.data_root.path().join(format!("r{id}"))
    }

    /// A joiner's configuration: booting with [`Boot::Join`] from `addrs`,
    /// with the protocol configuration and options every replica shares.
    fn joiner(&self, id: ProcessId, addrs: HashMap<ProcessId, SocketAddr>) -> ReplicaConfig {
        let any = self
            .replicas
            .values()
            .next()
            .expect("a cluster has replicas");
        ReplicaConfig {
            id,
            addrs,
            data_dir: Some(self.dir(id)),
            boot: Boot::Join,
            ..any.clone()
        }
    }

    fn next_id(&self) -> ProcessId {
        self.replicas.keys().copied().max().unwrap_or(0) + 1
    }

    fn launch<P>(&mut self, cfg: ReplicaConfig, listener: TcpListener) -> io::Result<()>
    where
        P: Protocol + Send + 'static,
        P::Message: Serialize + Deserialize + Send + 'static,
    {
        let id = cfg.id;
        let handle = replica::spawn_on_listener::<P>(cfg.clone(), listener)?;
        self.handles.insert(id, Some(handle));
        self.replicas.insert(id, cfg);
        Ok(())
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.handles.len()
    }

    /// The address of replica `id` (to connect clients to).
    pub fn addr(&self, id: ProcessId) -> SocketAddr {
        self.addrs[&id]
    }

    /// All replica addresses, keyed by identifier.
    pub fn addrs(&self) -> &HashMap<ProcessId, SocketAddr> {
        &self.addrs
    }

    /// The data directory of replica `id`.
    pub fn data_dir(&self, id: ProcessId) -> &PathBuf {
        self.replicas[&id]
            .data_dir
            .as_ref()
            .expect("cluster replicas journal")
    }

    /// Crashes replica `id`: its tasks stop without flushing or
    /// checkpointing anything, so only what the durability layer already
    /// persisted survives — the closest an in-process harness gets to
    /// SIGKILL. No-op if the replica is already down.
    pub fn kill(&mut self, id: ProcessId) {
        if let Some(Some(handle)) = self.handles.get_mut(&id).map(Option::take) {
            handle.shutdown();
        }
    }

    /// Restarts a killed replica under the same identifier, address and
    /// data directory; it recovers from its journal before serving.
    ///
    /// # Panics
    ///
    /// Panics if the replica is still running.
    pub async fn restart<P>(&mut self, id: ProcessId) -> io::Result<()>
    where
        P: Protocol + Send + 'static,
        P::Message: Serialize + Deserialize + Send + 'static,
    {
        self.restart_inner::<P>(id, Boot::Resume).await
    }

    /// Restarts a killed replica with a **wiped** data directory, as after
    /// losing a disk: it rejoins by fetching committed state from its peers
    /// (peer-assisted catch-up) instead of replaying a local journal.
    ///
    /// # Panics
    ///
    /// Panics if the replica is still running.
    pub async fn restart_wiped<P>(&mut self, id: ProcessId) -> io::Result<()>
    where
        P: Protocol + Send + 'static,
        P::Message: Serialize + Deserialize + Send + 'static,
    {
        let dir = self.data_dir(id);
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        self.restart_inner::<P>(id, Boot::CatchUp).await
    }

    /// Reboots `id` with `boot`, except that a joiner reboots as one: its
    /// address book only describes the configuration it joined, and it
    /// catches up again, as `atlas-replica --join` rerun does.
    async fn restart_inner<P>(&mut self, id: ProcessId, boot: Boot) -> io::Result<()>
    where
        P: Protocol + Send + 'static,
        P::Message: Serialize + Deserialize + Send + 'static,
    {
        assert!(
            self.handles.get(&id).is_none_or(|h| h.is_none()),
            "replica {id} is still running; kill it before restarting"
        );
        let addr = self.addrs[&id];
        // The previous incarnation's sockets may take a moment to fully
        // close (readers notice the dead event loop lazily); retry the bind
        // briefly. SO_REUSEADDR on the listener handles TIME_WAIT residue.
        let deadline = Instant::now() + Duration::from_secs(10);
        let listener = loop {
            match TcpListener::bind(addr).await {
                Ok(listener) => break listener,
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    tokio::time::sleep(Duration::from_millis(50)).await;
                }
                Err(e) => return Err(e),
            }
        };
        let mut cfg = self.replicas[&id].clone();
        if cfg.boot != Boot::Join {
            cfg.boot = boot;
        }
        self.launch::<P>(cfg, listener)
    }

    /// The current target member set (sorted).
    pub fn members(&self) -> &[ProcessId] {
        &self.members
    }

    /// The address of some live member — the admin proxy membership
    /// barriers go through.
    fn live_member_addr(&self) -> io::Result<SocketAddr> {
        self.members
            .iter()
            .find(|id| self.handles.get(id).is_some_and(|h| h.is_some()))
            .map(|id| self.addrs[id])
            .ok_or_else(|| io::Error::other("no live member to submit the barrier through"))
    }

    /// The target member list in barrier form: `(id, address)` pairs.
    fn member_list(&self, members: &[ProcessId]) -> Vec<(ProcessId, String)> {
        members
            .iter()
            .map(|id| (*id, self.addrs[id].to_string()))
            .collect()
    }

    /// Submits the `Enter` barrier towards `target` through a live member
    /// and waits for it to execute there. The joint window dissolves on its
    /// own: the designated member auto-submits `Finalize` once every target
    /// member is connected, caught up and trusted.
    async fn submit_enter(&mut self, target: &[ProcessId], f: usize) -> io::Result<()> {
        let proxy = self.live_member_addr()?;
        self.admin_clients += 1;
        let mut admin = Client::connect(proxy, ADMIN_CLIENT_BASE + self.admin_clients).await?;
        admin
            .reconfigure(ReconfigOp::Enter {
                members: self.member_list(target),
                f,
            })
            .await?;
        self.members = target.to_vec();
        self.f = f;
        Ok(())
    }

    /// Expands the cluster by `count` fresh replicas (target failure budget
    /// `f`), returning their identifiers. Order of operations is the
    /// documented operator flow: the `Enter` barrier is sequenced through
    /// the log **first**, then each joiner boots with `join` + catch-up —
    /// its bootstrap stream therefore contains the barrier, either inside
    /// the served executed base (whose marker carries the view) or in the
    /// replayed message tail. The joiners arrive as non-voting learners;
    /// the joint window auto-finalizes once they are connected and drained.
    pub async fn add_replicas<P>(&mut self, count: usize, f: usize) -> io::Result<Vec<ProcessId>>
    where
        P: Protocol + Send + 'static,
        P::Message: Serialize + Deserialize + Send + 'static,
    {
        let mut new_ids = Vec::with_capacity(count);
        let mut listeners = Vec::with_capacity(count);
        let next = self.next_id();
        for id in next..next + count as ProcessId {
            let listener = TcpListener::bind("127.0.0.1:0").await?;
            self.addrs.insert(id, listener.local_addr()?);
            new_ids.push(id);
            listeners.push((id, listener));
        }
        let mut target = self.members.clone();
        target.extend(&new_ids);
        target.sort_unstable();
        self.submit_enter(&target, f).await?;
        // Each joiner's address book is the target member set (itself
        // included); `Boot::Join` makes it derive the pre-join configuration
        // from it and bootstrap before voting.
        let joiner_addrs: HashMap<ProcessId, SocketAddr> =
            target.iter().map(|id| (*id, self.addrs[id])).collect();
        for (id, listener) in listeners {
            let cfg = self.joiner(id, joiner_addrs.clone());
            self.launch::<P>(cfg, listener)?;
        }
        Ok(new_ids)
    }

    /// Expands the cluster by one replica (failure budget unchanged).
    pub async fn add_replica<P>(&mut self) -> io::Result<ProcessId>
    where
        P: Protocol + Send + 'static,
        P::Message: Serialize + Deserialize + Send + 'static,
    {
        let f = self.f;
        Ok(self.add_replicas::<P>(1, f).await?[0])
    }

    /// Replaces `dead` (a crashed member — kill it first) with a fresh
    /// replica: one `Enter` barrier removes the dead replica and admits the
    /// replacement, which bootstraps from the survivors. Once the window
    /// finalizes, the survivors stop keying the GC horizon on the dead
    /// replica's reports — the compaction horizon advances again.
    pub async fn swap_replica<P>(&mut self, dead: ProcessId) -> io::Result<ProcessId>
    where
        P: Protocol + Send + 'static,
        P::Message: Serialize + Deserialize + Send + 'static,
    {
        assert!(
            self.handles.get(&dead).is_none_or(|h| h.is_none()),
            "replica {dead} is still running; kill it before swapping it out"
        );
        let new_id = self.next_id();
        let listener = TcpListener::bind("127.0.0.1:0").await?;
        self.addrs.insert(new_id, listener.local_addr()?);
        let mut target: Vec<ProcessId> = self
            .members
            .iter()
            .copied()
            .filter(|&id| id != dead)
            .collect();
        target.push(new_id);
        target.sort_unstable();
        let f = self.f;
        self.submit_enter(&target, f).await?;
        // The joiner's address book must cover the *pre-join*
        // configuration — including the dead member it replaces — so the
        // learner configuration it boots into (everyone but itself) is the
        // outgoing member set, not a sub-quorum fragment of it.
        let joiner_addrs: HashMap<ProcessId, SocketAddr> = target
            .iter()
            .chain(std::iter::once(&dead))
            .map(|id| (*id, self.addrs[id]))
            .collect();
        let cfg = self.joiner(new_id, joiner_addrs);
        self.launch::<P>(cfg, listener)?;
        Ok(new_id)
    }

    /// Removes `id` from the configuration (it retires itself once the
    /// barrier reaches it). The target member set must keep a usable size
    /// for the failure budget; the caller picks a sound `f`.
    pub async fn remove_replica(&mut self, id: ProcessId, f: usize) -> io::Result<()> {
        let target: Vec<ProcessId> = self.members.iter().copied().filter(|&m| m != id).collect();
        self.submit_enter(&target, f).await
    }

    /// Stops every replica.
    pub fn shutdown(&self) {
        for handle in self.handles.values().flatten() {
            handle.shutdown();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
