//! The **execute stage** of the replica pipeline (decode → journal →
//! protocol → execute → reply): the one store — whose execution summary is
//! what the replica keeps of its history — the client reply routes and the
//! completion path every executed command takes.
//!
//! The event loop decides the execution order (the protocol order) and
//! journals its inputs before a command gets here; the turn (`turn.rs`) hands the command over once its records
//! are written, and the stage applies it on the loop's own thread, in that
//! order. So the store is always exactly the protocol order applied so far:
//! a digest, a snapshot cut, a catch-up stream or a stats reply borrows it
//! between turns, with nothing to wait for, and replay needs no more than
//! re-running the journaled inputs through the same path.

use crate::metrics::ReplicaMetrics;
use crate::wire::ClientReply;
use atlas_core::{ClientId, Command, Rifl};
use kvstore::KVStore;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use tokio::sync::mpsc::UnboundedSender;

/// Lifecycle context a command carries into the execute stage: what the
/// completion path needs that only the protocol side knew.
pub(crate) struct ExecCtx {
    /// The command's request identifier (reply routing key).
    pub rifl: Rifl,
    /// Submission time (µs since replica start) if this replica owns the
    /// command's lifecycle; `None` for peer-coordinated commands and during
    /// journal replay — no latency samples are recorded then.
    pub submit_t: Option<u64>,
    /// Commit-observation time, taken at `Action::Commit`.
    pub commit_t: Option<u64>,
}

/// The execute stage: see the module docs.
pub(crate) struct Executor {
    store: KVStore,
    /// The reply session of each client connected to this replica, keyed by
    /// the identifier its commands carry.
    routes: HashMap<ClientId, UnboundedSender<ClientReply>>,
    metrics: Arc<ReplicaMetrics>,
    /// The replica's clock base, shared with the event loop's stamps.
    start: Instant,
}

/// Lifecycle stage latency in µs, clamped to ≥ 1 so a stage completing
/// within the clock's resolution still registers as a non-zero sample.
pub(crate) fn stage_us(t0: u64, t1: u64) -> u64 {
    t1.saturating_sub(t0).max(1)
}

impl Executor {
    /// An empty store; `start` is the replica's clock base.
    pub fn new(metrics: Arc<ReplicaMetrics>, start: Instant) -> Self {
        Self {
            store: KVStore::new(),
            routes: HashMap::new(),
            metrics,
            start,
        }
    }

    fn now(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Routes `client`'s replies to `session` from now on (a client that
    /// reconnects simply re-registers).
    pub fn route(&mut self, client: ClientId, session: UnboundedSender<ClientReply>) {
        self.routes.insert(client, session);
    }

    /// `client`'s connection that owned `session` ended: drop the route,
    /// unless a newer connection of the same client owns it by now.
    pub fn unroute(&mut self, client: ClientId, session: &UnboundedSender<ClientReply>) {
        if self
            .routes
            .get(&client)
            .is_some_and(|route| route.same_channel(session))
        {
            self.routes.remove(&client);
        }
    }

    /// Applies one protocol-ordered command to the store, then completes
    /// it: counts the lifecycle stages this replica owns (commit ≤ execute
    /// ≤ reply by construction — the stamps are taken here, in order) and
    /// answers the client if its session lives here.
    pub fn apply(&mut self, cmd: &Command, ctx: ExecCtx) {
        let outputs = self.store.execute(cmd);
        let now = self.now();
        if let Some(t0) = ctx.submit_t {
            self.metrics.committed.inc();
            self.metrics
                .submit_to_committed
                .record(stage_us(t0, ctx.commit_t.unwrap_or(now)));
            self.metrics.executed.inc();
            self.metrics.submit_to_executed.record(stage_us(t0, now));
        }
        let Some(session) = self.routes.get(&ctx.rifl.client) else {
            return;
        };
        let reply = ClientReply::Executed {
            rifl: ctx.rifl,
            outputs,
        };
        if session.send(reply).is_err() {
            // The client is gone; the command still executed, only its
            // notification is dropped, and so is the dead route.
            self.routes.remove(&ctx.rifl.client);
        } else if let Some(t0) = ctx.submit_t {
            self.metrics.replied.inc();
            self.metrics
                .submit_to_replied
                .record(stage_us(t0, self.now()));
        }
    }

    /// The store, executed counter included: what digests, snapshots,
    /// catch-up streams and stats read.
    pub fn store(&self) -> &KVStore {
        &self.store
    }

    /// Replaces the store (snapshot restore, catch-up base).
    pub fn install(&mut self, store: KVStore) {
        self.store = store;
    }
}

/// A released turn's commands execute in protocol order.
impl crate::turn::Execute<(Command, ExecCtx)> for Executor {
    fn execute(&mut self, (cmd, ctx): (Command, ExecCtx)) {
        self.apply(&cmd, ctx);
    }
}
