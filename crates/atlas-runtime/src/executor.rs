//! The sharded parallel executor pool: the **execute stage** of the replica
//! pipeline (decode → journal → protocol → execute → reply).
//!
//! The protocol thread stays the single owner of ordering: it decides the
//! execution order (the protocol order), appends to the execution record and
//! the journal, and then hands each command to this pool. The pool partitions
//! the keyspace into N shards by [`shard_of`] and runs one executor thread
//! per shard, each applying its sub-sequence of the protocol order to its own
//! slice of the store:
//!
//! * a command whose keys all hash to one shard is enqueued on that shard and
//!   executes concurrently with commands on other shards;
//! * a command spanning several shards is enqueued on **every** involved
//!   shard (at the same position of each shard's FIFO, because one dispatcher
//!   enqueues it everywhere before dispatching anything else); each involved
//!   executor parks at it, and the **last** executor to arrive runs the whole
//!   command, then releases the others. That barrier is what keeps
//!   cross-shard commands atomic and deterministic.
//!
//! ## Why replay stays exact
//!
//! Per shard, the queue is FIFO and there is one executor, so every key sees
//! its operations in exactly the protocol order — the interleaving *between*
//! shards is nondeterministic, but no two shards share a key, so the final
//! state (and the per-key output order) is byte-identical to a
//! single-threaded run. The journal, GC and snapshot path all record the
//! protocol order, never the execution interleaving; recovery re-dispatches
//! the journaled inputs through this same pool and [`ExecutorPool::drain`]s
//! before any state is externalized, so a replayed replica converges to the
//! same digest whatever the shard count (including a different one than the
//! previous incarnation: snapshots store the **flat** merged view).
//!
//! ## Observers
//!
//! Everything that reads execution state — digests, snapshots, catch-up
//! streams, `Stats`/`Query` replies — must see a quiesced pool, so each such
//! path calls [`ExecutorPool::drain`] first: it waits until every dispatched
//! command completed. Executors never wait on the protocol thread, so the
//! drain cannot deadlock.
//!
//! One shard is the same pool with one partition: the store still lives in
//! the shared slice and every command is applied and completed by the same
//! functions, but no executor thread is spawned and [`ExecutorPool::dispatch`]
//! applies on the calling thread — a queue hand-off would buy no overlap.
//! Those two places are the only ones that know whether threads exist.

use crate::metrics::ReplicaMetrics;
use crate::wire::ClientReply;
use atlas_core::{shard_of, ClientId, Command, Key, Rifl};
use kvstore::{KVStore, Output};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tokio::sync::mpsc::UnboundedSender;

/// Lifecycle context a command carries into the execute stage: everything
/// the completion path needs that only the protocol thread knew.
pub struct ExecCtx {
    /// The command's request identifier (reply routing key).
    pub rifl: Rifl,
    /// Submission time (µs since replica start) if this replica owns the
    /// command's lifecycle; `None` for peer-coordinated commands and during
    /// journal replay — no latency samples are recorded then.
    pub submit_t: Option<u64>,
    /// Commit-observation time, taken on the protocol thread at
    /// `Action::Commit`. Guaranteed ≤ the execute time, which keeps the
    /// committed→executed percentile series monotone even though the
    /// executed stamp is taken off the protocol thread.
    pub commit_t: Option<u64>,
    /// The submitting client's reply session, if it lives on this replica.
    pub session: Option<UnboundedSender<ClientReply>>,
}

impl ExecCtx {
    /// A context with no lifecycle owner and no session — what replay and
    /// direct pool drivers (benches, chaos tests) use.
    pub fn detached(rifl: Rifl) -> Self {
        Self {
            rifl,
            submit_t: None,
            commit_t: None,
            session: None,
        }
    }
}

/// A command spanning several shards, enqueued on each of them. The last
/// executor to dequeue it runs it; the others park on the condvar until it
/// completes.
struct MultiJob {
    /// Taken (once) by the last arriver.
    work: Mutex<Option<(Command, ExecCtx)>>,
    /// Involved shards still on their way to this job.
    remaining: AtomicUsize,
    done: Mutex<bool>,
    cv: Condvar,
}

enum Job {
    /// All keys on the receiving shard: execute on its store alone.
    Single(Box<(Command, ExecCtx)>),
    /// Cross-shard barrier.
    Multi(Arc<MultiJob>),
}

/// State shared between the protocol thread and the executor threads.
struct Shared {
    /// One store slice per shard; an executor locks only its own slice,
    /// except inside a multi-shard barrier, where the running executor
    /// locks each involved slice (the others are parked, so the locks are
    /// uncontended — the Mutex exists for the type system and the barrier,
    /// not for contention).
    stores: Vec<Mutex<KVStore>>,
    /// Per-shard completed-job counters, matched against the dispatcher's
    /// per-shard dispatched counts by [`ExecutorPool::drain`].
    completed: Vec<AtomicU64>,
    /// Commands executed (any coordinator), the pool-level
    /// `store_executed`.
    executed: AtomicU64,
    /// Clients whose reply session died mid-send; swept by the protocol
    /// thread, which owns the session map.
    dead_clients: Mutex<Vec<ClientId>>,
    metrics: Arc<ReplicaMetrics>,
    /// The replica's clock base, so executor-side latency stamps share the
    /// protocol thread's timeline.
    start: Instant,
    /// Artificial per-command apply latency (zero in production): the
    /// scaling bench's stand-in for a heavier, latency-bound state machine
    /// (disk-backed apply, document store). Slept by whoever applies the
    /// command, so disjoint shards overlap their stalls and a serial
    /// executor pays them back to back.
    stall: Duration,
}

impl Shared {
    fn now(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Applies `cmd`'s operations, each to the store of the shard owning
    /// its key, after the configured stall: the one place the pool applies
    /// operations — an executor thread's single- and multi-shard jobs, a
    /// barrier, and a one-shard pool's dispatch all come here. The caller
    /// guarantees that no other thread applies to the owning shards
    /// meanwhile (the shard's own executor, or a parked barrier).
    fn apply(&self, cmd: &Command) -> Vec<(Key, Output)> {
        if !self.stall.is_zero() {
            std::thread::sleep(self.stall);
        }
        let shards = self.stores.len();
        cmd.ops()
            .map(|(&key, op)| {
                let mut store = self.stores[shard_of(key, shards)]
                    .lock()
                    .expect("shard store poisoned");
                (key, store.apply_op(key, op))
            })
            .collect()
    }

    /// An executor thread's run of one command: applied, timed into its
    /// shard's apply-latency histogram, then completed.
    fn execute_on(&self, shard: usize, (cmd, ctx): (Command, ExecCtx)) {
        let t0 = Instant::now();
        let outputs = self.apply(&cmd);
        if let Some(cell) = self.metrics.executor_shards.get(shard) {
            cell.execute_us
                .record((t0.elapsed().as_micros() as u64).max(1));
        }
        self.complete(&cmd, ctx, outputs);
    }

    /// The completion path of every command, whichever thread applied it:
    /// count the execution, record the lifecycle samples this replica owns
    /// (commit ≤ execute ≤ reply by construction — all three stamps are
    /// taken here, in order, on one thread), and hand the reply to the
    /// session writer.
    fn complete(&self, cmd: &Command, ctx: ExecCtx, outputs: Vec<(Key, Output)>) {
        if !cmd.is_noop() {
            self.executed.fetch_add(1, Ordering::Release);
        }
        let now = self.now();
        if let Some(t0) = ctx.submit_t {
            self.metrics.committed.inc();
            self.metrics
                .submit_to_committed
                .record(stage_us(t0, ctx.commit_t.unwrap_or(now)));
            self.metrics.executed.inc();
            self.metrics.submit_to_executed.record(stage_us(t0, now));
        }
        if let Some(session) = &ctx.session {
            // A dead session (client gone) is fine; the command still
            // executed, only the notification is dropped. The eviction of
            // the route happens on the protocol thread (it owns the session
            // map) via the dead-client sweep.
            if session
                .send(ClientReply::Executed {
                    rifl: ctx.rifl,
                    outputs,
                })
                .is_err()
            {
                self.dead_clients
                    .lock()
                    .expect("dead-client list poisoned")
                    .push(ctx.rifl.client);
            } else if let Some(t0) = ctx.submit_t {
                self.metrics.replied.inc();
                self.metrics
                    .submit_to_replied
                    .record(stage_us(t0, self.now()));
            }
        }
    }

    /// Marks one queue entry of `shard` finished and refreshes its
    /// queue-depth gauge.
    fn finish(&self, shard: usize) {
        let done = self.completed[shard].fetch_add(1, Ordering::Release) + 1;
        if let Some(cell) = self.metrics.executor_shards.get(shard) {
            cell.completed.inc();
            cell.queue_depth
                .set(cell.dispatched.get().saturating_sub(done));
        }
    }
}

/// Lifecycle stage latency in µs, clamped to ≥ 1 (mirrors the replica's
/// clamp so executor-side samples stay comparable).
fn stage_us(t0: u64, t1: u64) -> u64 {
    t1.saturating_sub(t0).max(1)
}

/// The execute stage: see the module docs for the dispatch rule, the
/// cross-shard barrier and the replay-exactness argument.
pub struct ExecutorPool {
    shared: Arc<Shared>,
    /// One queue per executor thread; empty for a one-shard pool.
    senders: Vec<Sender<Job>>,
    /// Per-shard dispatched counts, one per executor thread. Written only
    /// by the dispatching (protocol) thread; `drain` compares them against
    /// `Shared::completed`.
    dispatched: Vec<u64>,
}

impl ExecutorPool {
    /// Builds a pool with `shards` partitions (at least one) over an empty
    /// store: an executor thread per shard, none for one shard. `metrics`
    /// should carry matching per-shard cells (see
    /// `ReplicaMetrics::with_shards`); `start` is the replica's clock base.
    pub fn new(shards: usize, metrics: Arc<ReplicaMetrics>, start: Instant) -> Self {
        Self::new_with_stall(shards, metrics, start, Duration::ZERO)
    }

    /// Like [`ExecutorPool::new`] with an artificial per-command apply
    /// latency. Bench-only: it lets the shard-scaling benchmark measure
    /// pipeline *overlap* (wall-clock = slowest shard, not the sum)
    /// independently of how many physical cores the runner has. Replicas
    /// always pass [`Duration::ZERO`].
    pub fn new_with_stall(
        shards: usize,
        metrics: Arc<ReplicaMetrics>,
        start: Instant,
        stall: Duration,
    ) -> Self {
        let shards = shards.max(1);
        let shared = Arc::new(Shared {
            stores: (0..shards).map(|_| Mutex::new(KVStore::new())).collect(),
            completed: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            executed: AtomicU64::new(0),
            dead_clients: Mutex::new(Vec::new()),
            metrics,
            start,
            stall,
        });
        let threads = if shards > 1 { shards } else { 0 };
        let senders = (0..threads)
            .map(|shard| {
                let (tx, rx) = mpsc::channel::<Job>();
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("exec-shard-{shard}"))
                    .spawn(move || executor_loop(shard, rx, shared))
                    .expect("spawn executor thread");
                tx
            })
            .collect();
        Self {
            shared,
            senders,
            dispatched: vec![0; threads],
        }
    }

    /// Configured shard count (≥ 1).
    pub fn shards(&self) -> usize {
        self.shared.stores.len()
    }

    /// Dispatches one protocol-ordered command to the execute stage. The
    /// caller has already recorded the protocol-order artifacts (execution
    /// record, journal); total-order barriers (`noOp`, `Reconfigure`) must
    /// go through [`ExecutorPool::execute_barrier`] instead.
    pub fn dispatch(&mut self, cmd: Command, ctx: ExecCtx) {
        debug_assert!(
            !cmd.is_noop() && !cmd.is_reconfig(),
            "barriers execute inline on the protocol thread"
        );
        if self.senders.is_empty() {
            let outputs = self.shared.apply(&cmd);
            self.shared.complete(&cmd, ctx, outputs);
            return;
        }
        let involved = cmd.shard_ids(self.shards());
        let mut note_dispatch = |shard: usize| {
            self.dispatched[shard] += 1;
            if let Some(cell) = self.shared.metrics.executor_shards.get(shard) {
                cell.dispatched.inc();
                cell.queue_depth.set(
                    self.dispatched[shard]
                        .saturating_sub(self.shared.completed[shard].load(Ordering::Acquire)),
                );
            }
        };
        match involved.as_slice() {
            [] => {
                // No keyed operations and not a barrier: nothing to apply,
                // but the command still counts as executed and still gets
                // its reply.
                self.shared.complete(&cmd, ctx, Vec::new());
            }
            [shard] => {
                note_dispatch(*shard);
                let job = Job::Single(Box::new((cmd, ctx)));
                self.senders[*shard]
                    .send(job)
                    .expect("executor thread alive");
            }
            _ => {
                self.shared.metrics.multi_shard_commands.inc();
                let job = Arc::new(MultiJob {
                    work: Mutex::new(Some((cmd, ctx))),
                    remaining: AtomicUsize::new(involved.len()),
                    done: Mutex::new(false),
                    cv: Condvar::new(),
                });
                // Enqueue on every involved shard before dispatching
                // anything else: single dispatcher ⇒ the job sits at a
                // consistent position of every involved FIFO, which is what
                // makes the barrier deadlock-free.
                for &shard in &involved {
                    note_dispatch(shard);
                    self.senders[shard]
                        .send(Job::Multi(Arc::clone(&job)))
                        .expect("executor thread alive");
                }
            }
        }
    }

    /// Executes a total-order barrier (`noOp` or `Reconfigure`) on the
    /// calling (protocol) thread, after draining the pool — barriers
    /// conflict with every command, so everything ordered before them must
    /// have executed, and nothing ordered after them has been dispatched
    /// yet. Applying (barriers carry no keyed operations today) and
    /// completion run through the same path as dispatched commands.
    pub fn execute_barrier(&mut self, cmd: &Command, ctx: ExecCtx) {
        self.drain();
        let outputs = self.shared.apply(cmd);
        self.shared.complete(cmd, ctx, outputs);
    }

    /// Waits until every dispatched command has completed. Called by every
    /// observer of execution state (digest, snapshot, catch-up, stats) and
    /// before barriers. Executors never block on the caller, so this always
    /// terminates.
    pub fn drain(&self) {
        for (shard, &target) in self.dispatched.iter().enumerate() {
            let mut spins = 0u32;
            while self.shared.completed[shard].load(Ordering::Acquire) < target {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    // Long queue: back off instead of burning the protocol
                    // thread's core against the executors.
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
            }
        }
    }

    /// Commands executed so far (any coordinator) — the pool-level
    /// `store_executed`. Exact after a [`ExecutorPool::drain`].
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Acquire)
    }

    /// Digest of the merged (flat) store — shard-count independent. Drains.
    pub fn digest(&self) -> u64 {
        self.flat_store().digest()
    }

    /// The merged flat view of the store, executed counter included — what
    /// snapshots persist and catch-up streams serve, deliberately identical
    /// whatever the shard count so a replica can restart with a different
    /// `--shards`. Drains.
    pub fn flat_store(&self) -> KVStore {
        self.drain();
        let mut stores = self
            .shared
            .stores
            .iter()
            .map(|store| store.lock().expect("shard store poisoned"));
        let mut flat = stores.next().expect("a pool has a shard").clone();
        for store in stores {
            flat.absorb(&store);
        }
        flat.restore_executed_count(self.executed());
        flat
    }

    /// Whether the store holds no records. Drains.
    pub fn is_empty(&self) -> bool {
        self.drain();
        self.shared
            .stores
            .iter()
            .all(|s| s.lock().expect("shard store poisoned").is_empty())
    }

    /// Replaces the pool's state with a flat store (snapshot restore,
    /// catch-up base). Drains first; the flat view is split back into
    /// shards by key hash.
    pub fn install_flat(&mut self, store: KVStore) {
        self.drain();
        self.shared
            .executed
            .store(store.executed(), Ordering::Release);
        let parts = store.split_by_shard(self.shards());
        for (slot, part) in self.shared.stores.iter().zip(parts) {
            *slot.lock().expect("shard store poisoned") = part;
        }
    }

    /// Takes the clients whose reply session died mid-send, so the protocol
    /// thread (owner of the session map) can evict their routes.
    pub fn take_dead_clients(&mut self) -> Vec<ClientId> {
        let mut dead = self
            .shared
            .dead_clients
            .lock()
            .expect("dead-client list poisoned");
        std::mem::take(&mut *dead)
    }
}

/// A released turn's commands are dispatched in protocol order.
impl crate::turn::Execute<(Command, ExecCtx)> for ExecutorPool {
    fn execute(&mut self, (cmd, ctx): (Command, ExecCtx)) {
        self.dispatch(cmd, ctx);
    }
}

/// One shard's executor: applies its FIFO sub-sequence of the protocol
/// order to its store slice; parks at multi-shard barriers unless it is the
/// last arriver, which runs them. Exits when the dispatcher drops the
/// sender (replica shutdown) — buffered jobs are still drained first, so a
/// shutdown cannot strand a parked barrier.
fn executor_loop(shard: usize, rx: Receiver<Job>, shared: Arc<Shared>) {
    while let Ok(job) = rx.recv() {
        match job {
            Job::Single(job) => shared.execute_on(shard, *job),
            Job::Multi(job) => {
                if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    // Last arriver: every other involved executor is parked
                    // at this job, so their store slices are untouched — run
                    // the whole command.
                    let work = job
                        .work
                        .lock()
                        .expect("multi-shard job poisoned")
                        .take()
                        .expect("multi-shard job executed twice");
                    shared.execute_on(shard, work);
                    let mut done = job.done.lock().expect("multi-shard job poisoned");
                    *done = true;
                    job.cv.notify_all();
                } else {
                    let mut done = job.done.lock().expect("multi-shard job poisoned");
                    while !*done {
                        done = job.cv.wait(done).expect("multi-shard job poisoned");
                    }
                }
            }
        }
        shared.finish(shard);
    }
}
