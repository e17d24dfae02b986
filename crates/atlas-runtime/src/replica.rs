//! The networked replica: an event loop that owns a [`Protocol`] state
//! machine plus the local store (behind the sharded
//! [`ExecutorPool`]), and maps the
//! protocol's [`Action`] output language onto sockets, timers, client
//! sessions and the durable journal.
//!
//! One replica runs these tasks (a pool worker that wakes a task usually
//! runs it itself, so a command's chain is one thread, not a hop per task):
//!
//! * the **event loop** (this module's heart) — single owner of all mutable
//!   protocol state; consumes events from one mpsc queue, a *turn* of ready
//!   events at a time (`turn.rs`);
//! * the **inbound tasks** feeding that queue (`inbound.rs`): acceptor,
//!   peer readers, client sessions and a **ticker**, whose events flush
//!   acks, heartbeat the links, advance the failure detector and pace GC
//!   (protocols take no ticks: an un-journaled periodic input would break
//!   replay determinism);
//! * one **writer task per outbound peer link** (see [`crate::transport`]).
//!
//! The loop composes subsystems that each own their state: the execute
//! stage ([`crate::executor`]), the turn, durability (`durability.rs`),
//! membership (`epochs.rs`) and catch-up (`catch_up.rs`); `ARCHITECTURE.md`
//! tabulates them.

use crate::catch_up::{self, Rebuild};
pub use crate::config::{Boot, ReplicaConfig};
use crate::detector::DetectorEvent;
use crate::durability::{Durability, Input};
use crate::epochs::Membership;
use crate::executor::{ExecCtx, ExecutorPool};
use crate::inbound::{acceptor, ticker, Event};
use crate::journal::{corrupt, ExecutionRecord, Host, Journal, JournalRecord, SnapshotCut};
use crate::metrics::ReplicaMetrics;
use crate::turn::{Outbox, TURN_EVENTS};
use crate::wire::{CatchUpPayload, ClientReply, EpochUpdate, MAX_FRAME_BYTES};
use atlas_core::{
    Action, ClientId, ClusterView, Command, Dot, IdMap, ProcessId, Protocol, ReconfigOp, Rifl,
    Topology,
};
use atlas_metrics::MetricsSnapshot;
use kvstore::KVStore;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tokio::net::TcpListener;
use tokio::sync::mpsc::{self, UnboundedReceiver, UnboundedSender};

/// Handle to a spawned replica.
pub struct ReplicaHandle {
    /// The replica's identifier.
    pub id: ProcessId,
    /// The address the replica listens on.
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shutdown: Box<dyn Fn() + Send + Sync>,
}

impl std::fmt::Debug for ReplicaHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaHandle")
            .field("id", &self.id)
            .field("addr", &self.addr)
            .finish()
    }
}

impl ReplicaHandle {
    /// Stops the replica: ends the event loop, aborts reconnect loops and
    /// unblocks the acceptor. Idempotent.
    ///
    /// Nothing is flushed or checkpointed on the way down — shutting down is
    /// deliberately indistinguishable from a crash as far as the durability
    /// layer is concerned, so every test of this path is also a crash test.
    pub fn shutdown(&self) {
        halt(&self.stop, self.addr);
        (self.shutdown)();
    }
}

/// Stops the replica listening at `addr`: sets its stop flag (which the
/// snapshot writer reads too: `journal.rs`, `Disk::write`), then unblocks
/// its acceptor, blocked in `accept`, with a dummy connection.
pub(crate) fn halt(stop: &AtomicBool, addr: SocketAddr) {
    stop.store(true, Ordering::Relaxed);
    let _ = std::net::TcpStream::connect(addr);
}

/// Binds `cfg`'s own address and spawns the replica on it.
pub async fn spawn<P>(cfg: ReplicaConfig) -> io::Result<ReplicaHandle>
where
    P: Protocol + Send + 'static,
    P::Message: Serialize + Deserialize + Send + 'static,
{
    let addr = cfg.addrs[&cfg.id];
    let listener = TcpListener::bind(addr).await?;
    spawn_on_listener::<P>(cfg, listener)
}

/// Spawns the replica on an already-bound listener (lets a harness bind port
/// 0 for every replica first and distribute the real addresses afterwards).
///
/// When a data directory is configured, durable state is recovered — the
/// latest snapshot restored and the journal suffix replayed — *before* this
/// returns; an unreadable or corrupt journal fails loudly here rather than
/// booting an amnesiac replica.
pub fn spawn_on_listener<P>(cfg: ReplicaConfig, listener: TcpListener) -> io::Result<ReplicaHandle>
where
    P: Protocol + Send + 'static,
    P::Message: Serialize + Deserialize + Send + 'static,
{
    let addr = listener.local_addr()?;
    let id = cfg.id;
    let n = cfg.config.n;
    if cfg.boot != Boot::Join {
        assert_eq!(
            cfg.addrs.len(),
            n,
            "replica {id}: {} addresses configured for n={n}",
            cfg.addrs.len()
        );
    }

    let stop = Arc::new(AtomicBool::new(false));
    let (event_tx, event_rx) = mpsc::unbounded_channel::<Event<P::Message>>();

    // Recover durable state before accepting any input. Blocking file IO is
    // fine here: the runtime is thread-per-task.
    let report_tx = event_tx.clone();
    let report = Box::new(move |index, result| {
        let _ = report_tx.send(Event::SnapshotWritten { index, result });
    });
    let core = Core::<P>::recover(&cfg, Arc::clone(&stop), addr, report)?;

    tokio::spawn(acceptor(listener, event_tx.clone(), Arc::clone(&stop)));
    let tick = cfg.options.tick_interval;
    tokio::spawn(ticker(tick, event_tx.clone(), Arc::clone(&stop)));
    let catch_up = (cfg.boot != Boot::Resume).then(|| cfg.addrs.clone());
    tokio::spawn(event_loop(
        core,
        event_rx,
        catch_up,
        Arc::clone(&stop),
        addr,
    ));

    let shutdown_tx = event_tx;
    Ok(ReplicaHandle {
        id,
        addr,
        stop,
        shutdown: Box::new(move || {
            let _ = shutdown_tx.send(Event::Shutdown);
        }),
    })
}

/// The single-threaded owner of all replica state: the protocol state
/// machine, the execution record, the client reply routes and the
/// lifecycle stamps, composed with the subsystems that own the rest.
struct Core<P: Protocol> {
    id: ProcessId,
    protocol: P,
    /// The execute stage: owns the (sharded) store. Every observer of
    /// execution state below goes through it and drains first; the
    /// protocol-order artifacts (`log`, journal, `pending`/`commit_times`)
    /// stay on this thread.
    exec: ExecutorPool,
    /// The execution record: shared chunks, so a snapshot cut takes it
    /// without copying the history.
    log: ExecutionRecord,
    sessions: HashMap<ClientId, UnboundedSender<ClientReply>>,
    /// What the current turn produced and still holds ([`crate::turn`]).
    outbox: Outbox<(Command, ExecCtx)>,
    /// Journal, snapshots and GC rounds.
    durability: Durability,
    /// View, addresses, links and failure detector.
    members: Membership,
    start: Instant,
    /// Ticks seen so far (drives every tick cadence).
    ticks: u64,
    /// Chunk budget for catch-up serving, clamped from the config.
    catch_up_chunk_bytes: usize,
    /// Runtime metric registry (`Arc` so the export plane could share it;
    /// all hot recording happens on this event loop).
    metrics: Arc<ReplicaMetrics>,
    /// Submission time (µs since start) of each locally submitted command
    /// still in flight — inserted before the protocol sees the command,
    /// removed at execution, so it is bounded by in-flight commands and
    /// empty during journal replay (replay contributes no latency samples).
    pending: HashMap<Rifl, u64>,
    /// Commit-observation time per identifier, recorded at `Action::Commit`
    /// for every command (only at execution do we know whether this replica
    /// owns its lifecycle) and removed at `Action::Execute` — bounded by
    /// the committed-but-unexecuted window. (Keyed by a replica-minted
    /// identifier, unlike `pending`: see `atlas_core::hash`.)
    commit_times: IdMap<Dot, u64>,
    /// JSONL dump cadence in ticks and where it appends; `None` when off,
    /// and after a write error (the dump self-disables rather than spamming
    /// a broken disk).
    metrics_dump: Option<(u64, PathBuf)>,
    /// Process-wide allocation count at replica construction
    /// ([`atlas_metrics::allocations`]), so snapshots report allocations
    /// *since this replica started* — meaningful even when several
    /// short-lived clusters share one (bench) process. Zero unless the
    /// process installed [`atlas_metrics::CountingAllocator`].
    alloc_baseline: u64,
}

/// Lifecycle stage latency in µs, clamped to ≥ 1 so a stage completing
/// within the clock's resolution still registers as a non-zero sample.
fn stage_us(t0: u64, t1: u64) -> u64 {
    t1.saturating_sub(t0).max(1)
}

impl<P> Core<P>
where
    P: Protocol,
    P::Message: Serialize + Deserialize,
{
    /// Builds the replica state, restoring snapshot + journal when a data
    /// directory is configured. Replay re-performs the actions the inputs
    /// produce — outbound sends included, which doubles as at-least-once
    /// redelivery of anything the previous incarnation may never have put
    /// on the wire.
    fn recover(
        cfg: &ReplicaConfig,
        stop: Arc<AtomicBool>,
        self_addr: SocketAddr,
        report: Box<dyn Fn(u64, io::Result<bool>) + Send + Sync>,
    ) -> io::Result<Self> {
        // A joiner is not (yet) a member: the configuration it boots into
        // is everyone in the address book *except* itself, and it stays a
        // non-voting learner until an `Enter` barrier naming it replays.
        let (config, view) = if cfg.boot == Boot::Join {
            let members: Vec<ProcessId> =
                cfg.addrs.keys().copied().filter(|&p| p != cfg.id).collect();
            let view = ClusterView::at(0, members, cfg.config.f);
            (view.config(cfg.config), view)
        } else {
            (cfg.config, ClusterView::initial(cfg.config))
        };
        // Boot does not wait for round trips: it starts from identifier
        // order and the detector installs the measured one.
        let topology = Topology::from_members(cfg.id, &view.all_members());
        // The metric registry and the clock base are shared with the
        // executor pool, so executor-side lifecycle stamps land in the same
        // cells on the same timeline as the event loop's.
        let start = Instant::now();
        let options = &cfg.options;
        let metrics = Arc::new(ReplicaMetrics::with_shards(options.shards));
        let metrics_dir = cfg.data_dir.as_ref().filter(|_| options.metrics_every > 0);
        let mut core = Self {
            id: cfg.id,
            protocol: P::new(cfg.id, config, topology.clone()),
            exec: ExecutorPool::new(options.shards, Arc::clone(&metrics), start),
            log: ExecutionRecord::default(),
            sessions: HashMap::new(),
            outbox: Outbox::new(),
            durability: Durability::new(options.gc_every),
            members: Membership::new(cfg, view, Arc::clone(&stop), self_addr),
            start,
            ticks: 0,
            catch_up_chunk_bytes: options
                .catch_up_chunk_bytes
                .clamp(1024, MAX_FRAME_BYTES / 2),
            metrics,
            pending: HashMap::new(),
            commit_times: IdMap::default(),
            metrics_dump: metrics_dir.map(|dir| (options.metrics_every, dir.join("metrics.jsonl"))),
            alloc_baseline: atlas_metrics::allocations(),
        };
        let Some(dir) = &cfg.data_dir else {
            return Ok(core);
        };
        let host = Host {
            metrics: Arc::clone(&core.metrics),
            fsync_stall: options
                .fsync_stall
                .get(&cfg.id)
                .copied()
                .unwrap_or_default(),
            stop,
            report,
        };
        let (journal, snapshot, records) =
            Journal::open(dir, options.flush_policy, options.snapshot_every, host)?;
        if let Some(snapshot) = snapshot {
            core.protocol = P::restore_state(cfg.id, config, topology, &snapshot.protocol)
                .ok_or_else(|| {
                    corrupt(format!("replica {}: snapshot failed to restore", cfg.id))
                })?;
            core.exec.install_flat(snapshot.store);
            core.log = snapshot.log.into();
            // The snapshot's view may name members the boot address book
            // does not (a restart after an expand): install it before
            // replay so links exist and Epoch records replay idempotently.
            core.apply(Input::Epoch(snapshot.view, snapshot.addrs), 0)?;
        }
        for record in records {
            core.apply(Input::decode(record)?, 0)?;
            core.release()?;
        }
        // Replay dispatched executes through the pool like a live run;
        // quiesce before serving so recovery is externally indistinguishable
        // from the single-threaded path.
        core.exec.drain();
        core.durability.attach(journal);
        Ok(core)
    }

    /// Microseconds since replica start (the protocol's notion of time).
    fn now(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// [`Outbox::stage`] into this replica's journal.
    fn stage(&mut self, record: &JournalRecord, minting: bool) {
        self.outbox
            .stage(self.durability.journal(), record, minting);
    }

    /// [`Outbox::release`]: ends a turn, and precedes a barrier or observer.
    fn release(&mut self) -> io::Result<()> {
        let links = self.members.links();
        self.outbox
            .release(self.durability.journal(), links, &mut self.exec)
    }

    /// The one place a protocol input reaches the protocol: live, after its
    /// record was staged, and in replay at time 0 (wall-clock time only
    /// feeds metrics). Replay keeps the input order, so a replayed
    /// suspicion reissues the same ballots and a replayed `Gc` sets the
    /// compaction floor where the live run had it. Returns how many entries
    /// a `Gc` input collected (0 for every other input).
    fn apply(&mut self, input: Input<P::Message>, now: u64) -> io::Result<u64> {
        let actions = match input {
            Input::Submit(cmd) => self.protocol.submit(cmd, now),
            Input::Peer(from, msg) => {
                let minted = self.protocol.metrics().recoveries;
                let actions = self.protocol.handle(from, msg, now);
                if self.protocol.metrics().recoveries != minted {
                    // The message made the protocol mint a ballot: a commit
                    // that names a stranded dependency, a revocation or a
                    // campaign.
                    self.outbox.minted();
                }
                actions
            }
            Input::Suspect(peer) => self.protocol.suspect(peer, now),
            Input::Discover(by_distance) => self.protocol.discover(&by_distance, now),
            Input::Advance(past) => {
                self.protocol.advance_identifiers(past);
                return Ok(0);
            }
            Input::Gc(horizon) => {
                let dropped = self.protocol.gc_executed(&horizon);
                self.durability.collected(&horizon, dropped);
                return Ok(dropped);
            }
            Input::Epoch(view, addrs) => {
                if view.epoch > self.members.view().epoch {
                    let departed = self.members.install(&view, &addrs, self.ticks);
                    self.forget(departed);
                }
                return Ok(0);
            }
        };
        self.perform(actions, now)?;
        Ok(0)
    }

    /// Live dispatch of an input other than a peer message: stages its
    /// record (`minting`: see [`Outbox::stage`]), then applies it.
    fn dispatch(&mut self, record: JournalRecord, minting: bool) -> io::Result<u64> {
        self.stage(&record, minting);
        let now = self.now();
        self.apply(Input::decode(record)?, now)
    }

    /// The detector found a better distance order for good: install it
    /// (journaled as minting, like a suspicion), which takes over what
    /// waits on a member it leaves out — a takeover dispatch, counted as
    /// one.
    fn dispatch_discover(&mut self, by_distance: Vec<ProcessId>) -> io::Result<()> {
        let rtts: Vec<String> = by_distance
            .iter()
            .filter_map(|&p| {
                let rtt = self.members.rtt(p)?;
                Some(format!("{p}: {:.1} ms", rtt.as_secs_f64() * 1e3))
            })
            .collect();
        eprintln!(
            "replica {}: distance order {by_distance:?} (round trips {})",
            self.id,
            rtts.join(", ")
        );
        self.metrics.reorders.inc();
        let installed = self.protocol.base().by_distance();
        if installed.iter().any(|p| !by_distance.contains(p)) {
            self.metrics.takeovers.inc();
        }
        self.dispatch(JournalRecord::Discover { by_distance }, true)?;
        Ok(())
    }

    /// A local client submitted the request `cmds`. This replica owns each
    /// command's lifecycle from here: every stage below timestamps against
    /// the request's arrival `t0`, and the commit/execute/reply stages
    /// complete in [`Self::do_actions`] via the `pending` entries inserted
    /// before the protocol runs.
    fn submit(
        &mut self,
        cmds: Vec<Command>,
        session: UnboundedSender<ClientReply>,
    ) -> io::Result<()> {
        let t0 = self.now();
        self.metrics.submitted.add(cmds.len() as u64);
        // The early flush: the request's records are written and synced as
        // a unit before the protocol sees the first command, so
        // `journaled` precedes `proposed` for every one of them.
        for cmd in &cmds {
            self.stage(&JournalRecord::Submit { cmd: cmd.clone() }, true);
        }
        self.outbox.flush(self.durability.journal())?;
        if self.durability.is_durable() {
            let journaled = stage_us(t0, self.now());
            for _ in &cmds {
                self.metrics.journaled.inc();
                self.metrics.submit_to_journaled.record(journaled);
            }
        }
        // Route all of this client's replies through its session (a client
        // that reconnects simply re-registers here).
        if let Some(first) = cmds.first() {
            self.sessions.insert(first.rifl.client, session);
        }
        for cmd in cmds {
            self.pending.insert(cmd.rifl, t0);
            // "Proposed" is the hand-off to the protocol — recorded *before*
            // `submit` runs so the stage series stays monotone even when the
            // self-addressed message cascade commits (or executes) the
            // command within this very call.
            self.metrics.proposed.inc();
            let now = self.now();
            self.metrics.submit_to_proposed.record(stage_us(t0, now));
            self.apply(Input::Submit(cmd), now)?;
        }
        Ok(())
    }

    /// Periodic tick: owe every pending ack, heartbeat the links, dispatch
    /// what the failure detector reports (suspicions, a better distance
    /// order) as protocol inputs and, while GC is on, send executed
    /// watermarks and run a garbage-collection round on its cadence.
    fn tick(&mut self) -> io::Result<()> {
        // The tick observes (watermark reports, the metrics dump).
        self.release()?;
        self.ticks += 1;
        // Sessions whose reply channel an executor thread found closed are
        // reported back here and dropped on the protocol thread, which owns
        // the session map.
        for client in self.exec.take_dead_clients() {
            self.sessions.remove(&client);
        }
        if self.durability.gc_on() {
            // Every tick, so a round (on the cadence, or before a cut)
            // folds reports at most about a tick old.
            self.members
                .send_watermarks(self.protocol.executed_watermarks());
            if self.durability.gc_due(self.ticks) {
                self.gc_round()?;
            }
        }
        self.outbox.ack_all();
        let now = Instant::now();
        for event in self.members.tick(now) {
            match event {
                DetectorEvent::Suspect(peer) => {
                    eprintln!(
                        "replica {}: suspecting replica {peer} (silent past threshold); \
                         recovering its in-flight commands",
                        self.id
                    );
                    self.metrics.suspicions.inc();
                    self.metrics.takeovers.inc();
                    // Minting: a suspicion can mint recovery ballots, and
                    // reissuing one for a different proposal after losing
                    // the record would be unsound Paxos.
                    self.dispatch(JournalRecord::Suspect { peer }, true)?;
                }
                DetectorEvent::Trust(peer) => {
                    self.metrics.trusts.inc();
                    eprintln!(
                        "replica {}: replica {peer} is audible again; trust restored",
                        self.id
                    );
                }
            }
        }
        // After the suspicions: a peer suspected this tick is left out.
        if let Some(order) = self.members.reorder(now, self.protocol.base()) {
            self.dispatch_discover(order)?;
        }
        self.members.announce(self.ticks);
        if let Some(cmd) = self.members.finalize_due(self.ticks, self.protocol.epoch()) {
            // An internally minted command: no session, journaled as
            // minting like a client submission.
            self.metrics.submitted.inc();
            self.dispatch(JournalRecord::Submit { cmd }, true)?;
        }
        if let Some((every, _)) = self.metrics_dump {
            if self.ticks.is_multiple_of(every) {
                self.dump_metrics();
            }
        }
        Ok(())
    }

    /// Appends one snapshot line to `<data_dir>/metrics.jsonl`. A write
    /// error disables the dump for the rest of the replica's life — losing
    /// telemetry is acceptable, failing the replica (or logging every tick)
    /// over it is not.
    fn dump_metrics(&mut self) {
        let Some((_, path)) = &self.metrics_dump else {
            return;
        };
        let line = self.metrics_snapshot().to_json();
        use std::io::Write as _;
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| writeln!(file, "{line}"));
        if let Err(e) = written {
            eprintln!(
                "replica {}: disabling metrics dump to {}: {e}",
                self.id,
                path.display()
            );
            self.metrics_dump = None;
        }
    }

    /// One garbage-collection round: once every member has reported, hand
    /// the all-executed horizon to [`Protocol::gc_executed`] if it advanced
    /// (journaled first). A round that dropped entries marks a snapshot
    /// wanted; the one cut at the end of this turn (or when the busy writer
    /// reports) truncates the WAL below the now smaller snapshot and prunes
    /// older snapshot files — the on-disk half of compaction.
    fn gc_round(&mut self) -> io::Result<()> {
        let (mine, members) = (self.protocol.executed_watermarks(), self.members.links());
        let Some(horizon) = self.durability.horizon(mine, members.keys().copied()) else {
            return Ok(());
        };
        let dropped = self.dispatch(JournalRecord::Gc { horizon }, false)?;
        self.metrics.gc_rounds.inc();
        self.metrics.gc_entries_dropped.add(dropped);
        Ok(())
    }

    /// The catch-up stream for `from` ([`catch_up::serve`]). A quiesced
    /// store (`flat_store` drains): everything protocol-ordered so far is
    /// applied before its records stream out.
    fn catch_up_chunks(&mut self, from: ProcessId) -> Vec<Vec<u8>> {
        let store = self.exec.flat_store();
        let start = CatchUpPayload::Start {
            horizon: self.protocol.seen_horizon(from),
            executed: self.protocol.save_executed(),
            store_executed: store.executed(),
            view: self.members.view().clone(),
            addrs: self.members.addrs_wire(),
        };
        let log = self.log.iter().copied();
        let committed = self.protocol.committed_log();
        catch_up::serve(start, &store, log, committed, self.catch_up_chunk_bytes)
    }

    /// Assembles the export snapshot: the registry's counters/histograms,
    /// the hosted protocol's own digest, and the event-loop state that is
    /// not a metric cell (GC horizon, link health, bookkeeping sizes).
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        // Quiesce the executor pool first so lifecycle counters satisfy the
        // stage invariants (`executed == replied` for locally owned
        // commands) and `store_executed` matches what the pool has applied.
        self.exec.drain();
        let wal_segments = self.durability.wal_segments();
        MetricsSnapshot {
            version: Default::default(),
            replica: self.id,
            protocol: P::name().to_string(),
            uptime_us: self.now(),
            lifecycle: self.metrics.lifecycle_stats(),
            protocol_stats: self.protocol.metrics().clone(),
            durability: self.metrics.durability_stats(wal_segments),
            detector: self.metrics.detector_stats(),
            gc: self.metrics.gc_stats(self.durability.collected_horizon()),
            links: self.members.link_snapshots(),
            tracked_entries: self.protocol.tracked_entries() as u64,
            store_executed: self.exec.executed(),
            epoch: self.members.view().epoch,
            executor: self.metrics.executor_stats(self.exec.shards()),
            alloc_count: atlas_metrics::allocations().saturating_sub(self.alloc_baseline),
            reactor: crate::metrics::reactor_stats(),
        }
    }

    /// Cuts a snapshot when one is due and the writer is free, running a
    /// GC round first while GC is on: the cut then encodes the in-flight
    /// window, not every entry executed since the last cadence round.
    /// Called between turns only: records are staged before they are
    /// applied, and a cut in between would claim to cover inputs the
    /// protocol has not seen.
    fn maybe_snapshot(&mut self) -> io::Result<()> {
        if !self.durability.snapshot_due() {
            return Ok(());
        }
        let started = Instant::now();
        if self.durability.gc_on() {
            self.gc_round()?;
        }
        self.snapshot_now(started, false)
    }

    /// The cut: encodes the protocol state, copies the store, freezes and
    /// shares the execution record (one `Arc` per chunk, no entry copied)
    /// and gives it all to the journal, which fsyncs the WAL, stamps the
    /// index and has its writer thread flatten and persist it (`inline`:
    /// this thread does, before returning). Releasing the turn first also
    /// writes the `Gc` record of a round run just before, so the cut covers
    /// it. `started` is when the loop began on the cut, for
    /// `snapshot_cut_us`. No-op without a journal.
    fn snapshot_now(&mut self, started: Instant, inline: bool) -> io::Result<()> {
        if !self.durability.is_durable() {
            return Ok(());
        }
        // The cut observes the store: everything collected executes first.
        self.release()?;
        // Snapshots always store the *flat* (merged) KVS, never per-shard
        // parts: the on-disk format stays shard-count independent, so a
        // replica may restart with a different `--shards` and re-split.
        let cut = SnapshotCut {
            protocol: self
                .protocol
                .save_state()
                .expect("every protocol snapshots its state"),
            store: self.exec.flat_store(),
            log: self.log.freeze(),
            view: self.members.view().clone(),
            addrs: self.members.addrs_wire(),
        };
        self.durability.save_snapshot(cut, started, inline)
    }

    /// `departed` left the configuration: purge what the turn and GC kept.
    fn forget(&mut self, departed: Vec<ProcessId>) {
        for peer in departed {
            self.durability.forget(peer);
            self.outbox.forget(peer);
        }
    }

    /// Adopts a newer view learned **off the log** (an epoch announcement
    /// or a catch-up preamble): journaled as [`JournalRecord::Epoch`] so a
    /// restart reaches the same configuration without needing the barrier's
    /// commit traffic again. A view that is not newer is ignored.
    fn adopt_runtime_view(&mut self, update: EpochUpdate) -> io::Result<()> {
        let EpochUpdate { view, addrs } = update;
        if view.epoch > self.members.view().epoch {
            self.dispatch(JournalRecord::Epoch { view, addrs }, false)?;
        }
        Ok(())
    }

    /// An executed `Reconfigure` barrier ([`Membership::barrier`]) moves
    /// the hosted protocol's membership. Not journaled: replay re-executes
    /// the barrier and re-derives the switch.
    fn apply_reconfig_barrier(
        &mut self,
        op: &ReconfigOp,
        local: &mut VecDeque<(ProcessId, P::Message)>,
        now: u64,
    ) -> io::Result<()> {
        let current = self.protocol.cluster_view();
        let Some((next, departed)) = self.members.barrier(op, &current, self.ticks) else {
            return Ok(()); // idempotent replay of an already-applied barrier
        };
        self.forget(departed);
        let actions = self.protocol.reconfigure(&next, now);
        self.do_actions(actions, local, now)
    }

    /// Applies one event of a turn.
    fn handle(&mut self, event: Event<P::Message>) -> io::Result<()> {
        if let Some((from, epoch)) = event.sender() {
            // A straggler's message is dropped before it reaches the
            // journal or the protocol.
            if matches!(event, Event::Peer { .. }) && self.members.is_straggler(from, epoch) {
                return Ok(());
            }
            self.members.heard_from(from, epoch);
        }
        match event {
            Event::Peer {
                from,
                seq,
                payload,
                msg,
                ..
            } => {
                self.stage(&JournalRecord::Peer { from, payload }, false);
                if seq > 0 {
                    self.outbox.received(from, seq);
                }
                let now = self.now();
                self.apply(Input::Peer(from, msg), now)?;
                Ok(())
            }
            Event::PeerAck { from, upto, .. } => {
                if let Some(link) = self.members.links().get(&from) {
                    link.acked(upto);
                }
                Ok(())
            }
            Event::PeerWatermarks {
                from, watermarks, ..
            } => {
                // A report from a non-member (just removed, or an epoch
                // straggler) must not re-enter the horizon computation.
                if self.members.is_member(from) {
                    self.durability.report(from, watermarks);
                }
                Ok(())
            }
            Event::PeerEpoch { update, .. } => self.adopt_runtime_view(update),
            Event::PeerProbe {
                from, probe, at, ..
            } => {
                self.members.probed(from, probe, at);
                Ok(())
            }
            Event::Submit { cmds, session } => self.submit(cmds, session),
            Event::SnapshotWritten { index, result } => {
                self.durability.snapshot_written(index, result)
            }
            // Observers: the turn so far is released first and the pool
            // drains, so the reply reflects everything protocol-ordered so
            // far — a client that observed a reply can never see a digest
            // that predates the replied command.
            Event::Query { session } => {
                self.release()?;
                let _ = session.send(ClientReply::ExecutionLog {
                    entries: self.log.to_vec(),
                    digest: self.exec.digest(),
                });
                Ok(())
            }
            Event::Stats { session } => {
                self.release()?;
                let snapshot = Box::new(self.metrics_snapshot());
                let _ = session.send(ClientReply::Stats { snapshot });
                Ok(())
            }
            Event::CatchUp { from, reply } => {
                self.release()?;
                // A catch-up request is evidence the peer is alive again:
                // this keeps a wiped replica rejoining under its old
                // identifier from staying suspected while it rebuilds.
                self.members.heard(from);
                for frame in self.catch_up_chunks(from) {
                    if reply.send(frame).is_err() {
                        break; // requester hung up; it will retry
                    }
                }
                Ok(())
            }
            Event::Tick => self.tick(),
            Event::Shutdown => Ok(()), // the loop returns before handling it
        }
    }

    /// Maps protocol [`Action`]s onto the runtime and drains self-addressed
    /// sends to fixpoint (delivered with zero delay, the paper's
    /// assumption; they may themselves produce more actions). Local
    /// deliveries are *not* journaled — they are a deterministic consequence
    /// of the journaled input that produced them.
    fn perform(&mut self, actions: Vec<Action<P::Message>>, now: u64) -> io::Result<()> {
        let mut local: VecDeque<(ProcessId, P::Message)> = VecDeque::new();
        self.do_actions(actions, &mut local, now)?;
        while let Some((from, msg)) = local.pop_front() {
            let actions = self.protocol.handle(from, msg, now);
            self.do_actions(actions, &mut local, now)?;
        }
        Ok(())
    }

    /// One batch of actions, collected in the outbox until the turn's
    /// records are written:
    ///
    /// * `Send` to a remote peer → encode the message once, for that peer's
    ///   (at-least-once) link;
    /// * `Send` to self → queue for immediate local handling;
    /// * `Execute` → append to the execution record; the execute stage
    ///   applies the command to the store and answers the submitting
    ///   client if its session lives here;
    /// * `Commit` → remember the commit time for the lifecycle latency
    ///   histograms (clients are answered at execution).
    fn do_actions(
        &mut self,
        actions: Vec<Action<P::Message>>,
        local: &mut VecDeque<(ProcessId, P::Message)>,
        now: u64,
    ) -> io::Result<()> {
        for action in actions {
            match action {
                Action::Send { targets, msg } => {
                    // Encoded once, shared by every target link behind an
                    // `Arc`: the fan-out clones a pointer, not the bytes
                    // (each link writer borrows the payload while framing
                    // it into its own pooled buffer).
                    let mut payload: Option<Arc<Vec<u8>>> = None;
                    for target in targets {
                        if target == self.id {
                            local.push_back((self.id, msg.clone()));
                            continue;
                        }
                        if !self.members.links().contains_key(&target) {
                            // A removed member (or a joiner not linked yet)
                            // can legitimately be targeted across an epoch
                            // switch; the frame is simply not deliverable.
                            continue;
                        }
                        let payload = payload.get_or_insert_with(|| {
                            Arc::new(
                                bincode::serialize(&msg).expect("protocol messages always encode"),
                            )
                        });
                        self.outbox.send(target, Arc::clone(payload));
                    }
                }
                Action::Execute { dot, cmd } => {
                    let rifl = cmd.rifl;
                    // Protocol-order artifacts stay on this thread: the
                    // execution record advances at *dispatch* (protocol
                    // order), never at completion (execution interleaving).
                    self.log.push((dot, rifl));
                    // Lifecycle: a commit time was remembered for every
                    // dot; the samples only count when this replica owns
                    // the command's lifecycle (it was submitted here). The
                    // commit/execute/reply stamps themselves are taken by
                    // the executor in stage order, so the percentile series
                    // stays monotone under concurrent executors.
                    let ctx = ExecCtx {
                        rifl,
                        submit_t: self.pending.remove(&rifl),
                        commit_t: self.commit_times.remove(&dot),
                        session: self.sessions.get(&rifl.client).cloned(),
                    };
                    if cmd.is_noop() || cmd.is_reconfig() {
                        // Total-order barriers execute inline on this
                        // thread (after a release and a pool drain): a
                        // `Reconfigure` mutates the protocol, which only
                        // this thread may touch.
                        self.release()?;
                        let reconfig = cmd.reconfig_op().cloned();
                        self.exec.execute_barrier(&cmd, ctx);
                        if let Some(op) = reconfig {
                            self.apply_reconfig_barrier(&op, local, now)?;
                        }
                    } else {
                        self.outbox.execute((cmd, ctx));
                    }
                }
                Action::Commit { dot } => {
                    self.commit_times.insert(dot, self.now());
                }
            }
        }
        Ok(())
    }
}

/// What a catch-up stream does to this replica: each step goes through the
/// same paths as live input.
impl<P> Rebuild for Core<P>
where
    P: Protocol,
    P::Message: Serialize + Deserialize,
{
    fn id(&self) -> ProcessId {
        self.id
    }

    fn start(&mut self, server: EpochUpdate, horizon: u64) -> io::Result<()> {
        self.adopt_runtime_view(server)?;
        if horizon > 0 {
            self.dispatch(JournalRecord::Advance { past: horizon }, false)?;
        }
        Ok(())
    }

    fn install_base(&mut self, marker: &[u8], store: KVStore, log: Vec<(Dot, Rifl)>) -> bool {
        if !self.protocol.restore_executed(marker) {
            return false;
        }
        self.exec.install_flat(store);
        self.log = log.into();
        true
    }

    fn is_fresh(&self) -> bool {
        self.log.is_empty() && self.exec.is_empty()
    }

    fn apply_msgs(&mut self, from: ProcessId, msgs: Vec<Vec<u8>>) -> io::Result<()> {
        for payload in msgs {
            let Ok(msg) = bincode::deserialize::<P::Message>(&payload) else {
                continue; // peer speaking another protocol version
            };
            let now = self.now();
            self.apply(Input::Peer(from, msg), now)?;
        }
        Ok(())
    }

    fn chunk_applied(&mut self) -> io::Result<()> {
        self.release()
    }
}

/// The event loop: single-threaded owner of the `Core`. On a fatal error
/// (journal failure, catch-up IO failure) it tears the whole replica down
/// via `fatal_stop` — exiting alone would leave a zombie whose acceptor
/// keeps accepting connections that nobody will ever answer.
async fn event_loop<P>(
    mut core: Core<P>,
    mut events: UnboundedReceiver<Event<P::Message>>,
    catch_up_addrs: Option<HashMap<ProcessId, SocketAddr>>,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
) where
    P: Protocol,
    P::Message: Serialize + Deserialize,
{
    // A replica that cannot journal must not keep acknowledging inputs it
    // would forget after a crash: stop serving instead.
    let fatal_stop = |id: ProcessId, what: &str, e: io::Error| {
        eprintln!("replica {id}: {what}, stopping: {e}");
        halt(&stop, addr);
    };
    if let Some(addrs) = catch_up_addrs {
        // Persist the caught-up state in one stroke, before serving (hence
        // on this thread); until this completes a crash redoes the catch-up.
        let caught_up = match catch_up::catch_up(&mut core, &addrs).await {
            Ok(true) => core.snapshot_now(Instant::now(), true),
            other => other.map(drop),
        };
        if let Err(e) = caught_up {
            fatal_stop(core.id, "catch-up failed", e);
            return;
        }
    }
    // Journal replay and catch-up can take arbitrarily long; only now does
    // peer silence start counting toward suspicion.
    core.members.arm_detector();
    while let Some(mut event) = events.recv().await {
        // One turn: every event that is ready, up to the bound; their
        // records reach the WAL together and their effects leave together,
        // in `release`. A shutdown mid-turn releases nothing: from outside,
        // the turn's inputs never arrived.
        let mut result = Ok(());
        for taken in 1..=TURN_EVENTS {
            if matches!(event, Event::Shutdown) {
                return;
            }
            result = core.handle(event);
            if result.is_err() || taken == TURN_EVENTS {
                break;
            }
            match events.try_recv() {
                Ok(next) => event = next,
                Err(_) => break,
            }
        }
        // Every turn boundary is a consistent cut: whatever the turn
        // journaled has been applied, written and released.
        let result = result.and_then(|()| core.release());
        if let Err(e) = result.and_then(|()| core.maybe_snapshot()) {
            fatal_stop(core.id, "journal failure", e);
            return;
        }
    }
}
