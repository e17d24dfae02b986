//! The [`Protocol`] trait implemented by every replication protocol in this
//! workspace, and the [`Action`] output language a protocol uses to talk to
//! its runtime (the discrete-event simulator, or any networked runtime).
//!
//! Protocols are written as *pure state machines*: every input (a client
//! submission, an incoming message, a failure suspicion, an epoch switch)
//! returns a list of [`Action`]s — messages to send and commands that became
//! executable. This makes protocols trivially testable and lets the planet
//! simulator drive Atlas, EPaxos, Flexible Paxos and Mencius through the very
//! same code path.

use crate::base::Base;
use crate::command::Command;
use crate::config::Config;
use crate::id::{Dot, ProcessId};
use crate::metrics::ProtocolStats;
use crate::view::ClusterView;
use serde::{Deserialize, Serialize};

/// Simulated (or wall-clock) time, in microseconds.
pub type Time = u64;

/// One millisecond expressed in [`Time`] units.
pub const MILLIS: Time = 1_000;

/// What a protocol asks its runtime to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Action<M> {
    /// Send `msg` to every process in `targets`.
    ///
    /// Targets may include the sending process itself; the runtime must then
    /// deliver the message locally with zero delay (the paper assumes
    /// self-addressed messages are delivered immediately).
    Send {
        /// Destination processes.
        targets: Vec<ProcessId>,
        /// The protocol message.
        msg: M,
    },
    /// The local replica executed `cmd` (applied it to the local state
    /// machine). The runtime uses this to answer the client that submitted
    /// the command, if that client is attached to this process.
    Execute {
        /// Identifier under which the command was ordered.
        dot: Dot,
        /// The executed command.
        cmd: Command,
    },
    /// The command with identifier `dot` was committed locally (its final
    /// dependencies / log slot are known). Emitted once per command, before
    /// the `Execute` of the same `dot`, and never for a `noOp` (which is not
    /// executed). Used only for bookkeeping — it is what separates commit
    /// latency from the wait on dependencies; clients are answered at
    /// execution time.
    Commit {
        /// Identifier of the committed command.
        dot: Dot,
    },
}

impl<M> Action<M> {
    /// Convenience constructor for a send to a set of targets.
    pub fn send(targets: impl IntoIterator<Item = ProcessId>, msg: M) -> Self {
        Action::Send {
            targets: targets.into_iter().collect(),
            msg,
        }
    }
}

/// Where the processes are, as seen from one of them: its quorums are drawn
/// from here ([`Base::closest`]).
///
/// A replica boots with an unmeasured order (identifier order, itself
/// first); from then on the order is a protocol *input*: the networked
/// runtime measures it from heartbeat round trips and installs it through
/// [`Protocol::discover`], and a suspicion ([`Protocol::suspect`]) drops the
/// suspect from it. The planet simulator hands each process the true order
/// of its site's matrix row at construction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// All process identifiers in the deployment (sorted).
    pub processes: Vec<ProcessId>,
    /// The processes this replica reaches, closest first; the owning
    /// process itself is always first (distance zero). A member left out is
    /// late or suspected and sorts after every listed one, in identifier
    /// order.
    pub by_distance: Vec<ProcessId>,
    /// Leader process for leader-based protocols (ignored by leaderless
    /// ones). The paper selects the leader as the site minimizing the
    /// standard deviation of client-perceived latency.
    pub leader: Option<ProcessId>,
}

impl Topology {
    /// [`from_members`](Self::from_members) over `1..=n` — for unit tests,
    /// where no network is modeled.
    pub fn identity(id: ProcessId, n: usize) -> Self {
        Self::from_members(id, &(1..=n as ProcessId).collect::<Vec<_>>())
    }

    /// The order a replica boots with, before anything is measured:
    /// itself first, then `members` in identifier order; the smallest
    /// member leads. A joiner that is not (yet) one of `members` still puts
    /// itself first in `by_distance` but does not appear in `processes`.
    pub fn from_members(id: ProcessId, members: &[ProcessId]) -> Self {
        let mut processes: Vec<ProcessId> = members.to_vec();
        processes.sort_unstable();
        processes.dedup();
        let mut by_distance = vec![id];
        by_distance.extend(processes.iter().copied().filter(|p| *p != id));
        let leader = processes.first().copied();
        Self {
            processes,
            by_distance,
            leader,
        }
    }

    /// The closest `size` processes (including the owning process itself):
    /// a prefix of `by_distance`, then the processes it leaves out.
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds the number of processes.
    pub(crate) fn closest_quorum(&self, size: usize) -> Vec<ProcessId> {
        if let Some(reached) = self.by_distance.get(..size) {
            return reached.to_vec();
        }
        let late = self.processes.iter();
        let late = late.filter(|p| !self.by_distance.contains(p));
        let order: Vec<ProcessId> = self.by_distance.iter().chain(late).copied().collect();
        assert!(
            size <= order.len(),
            "quorum of size {size} requested but only {} processes exist",
            order.len()
        );
        order[..size].to_vec()
    }
}

/// A replication protocol, written as a deterministic state machine.
///
/// Contracts every implementation upholds, each enforced in one place:
///
/// * **Replay determinism.** `submit`, `handle`, `suspect`, `discover`,
///   `reconfigure`, `gc_executed` and `advance_identifiers` are the
///   protocol's *inputs*: the
///   networked runtime journals them and replays them in order after a
///   crash, so their effect depends only on state and arguments — never on
///   a clock or randomness (`time` only feeds metrics and is 0 in replay).
/// * **Idempotent re-dispatch.** The runtime repeats `suspect` every
///   `suspect_after` while a peer stays silent and may deliver an epoch
///   switch twice; a repeat re-sends what is in flight at the ballot it
///   already owns and never corrupts state (see [`Base::install_view`] and
///   each protocol's takeover). A wrong suspicion is safe, merely not free.
/// * **GC-floor respect.** After [`gc_executed`](Protocol::gc_executed),
///   any message about a collected identifier — duplicates, stragglers,
///   recovery probes, re-driven proposals — is ignored as if the entry were
///   still there in its terminal phase; nothing resurrects bookkeeping.
/// * **Ballot hygiene.** Ballots minted in a view exceed its
///   [`ballot_floor`](ClusterView::ballot_floor).
pub trait Protocol: Sized {
    /// The wire message type of the protocol.
    type Message: Clone + std::fmt::Debug;

    /// Protocol name (experiment reports, stats plane).
    fn name() -> &'static str;

    /// Creates a replica with identifier `id`.
    fn new(id: ProcessId, config: Config, topology: Topology) -> Self;

    /// The embedded [`Base`]: identity, view, horizons, metrics.
    fn base(&self) -> &Base;

    /// Submits a local client's command; this replica coordinates it.
    fn submit(&mut self, cmd: Command, time: Time) -> Vec<Action<Self::Message>>;

    /// Handles a protocol message from `from`.
    fn handle(
        &mut self,
        from: ProcessId,
        msg: Self::Message,
        time: Time,
    ) -> Vec<Action<Self::Message>>;

    /// `suspected` is believed to have failed: it leaves the distance order
    /// (as if a [`discover`](Protocol::discover) had left it out) and is
    /// replaced as leader or slot owner. A leaderless protocol takes its
    /// in-flight commands over again, which makes a repeated suspicion the
    /// retry of a takeover whose ballot was outbid.
    fn suspect(&mut self, suspected: ProcessId, time: Time) -> Vec<Action<Self::Message>>;

    /// The runtime measured a new distance order ([`Base::discover`]):
    /// quorums of new proposals come from it, and proposals this replica
    /// drives that wait on a member the order just left out (late or
    /// suspected) are re-driven without it. A leaderless protocol also
    /// takes over at once the in-flight commands of such a member that can
    /// block execution here.
    fn discover(&mut self, by_distance: &[ProcessId], time: Time) -> Vec<Action<Self::Message>>;

    /// Installs a newer [`ClusterView`] (called when a `Reconfigure` barrier
    /// executes, at the same point of the order on every replica) and
    /// re-drives this replica's in-flight proposals under it.
    fn reconfigure(&mut self, view: &ClusterView, time: Time) -> Vec<Action<Self::Message>>;

    /// Approximate wire size of `msg` in bytes (the simulator's CPU model).
    fn message_size(msg: &Self::Message) -> usize;

    /// The replica's complete state for a durable snapshot (always `Some`).
    fn save_state(&self) -> Option<Vec<u8>>;

    /// Rebuilds a replica from [`save_state`](Protocol::save_state) bytes;
    /// `None` for bytes that do not decode or belong to another replica,
    /// configuration or protocol — corruption, not an empty state.
    fn restore_state(
        id: ProcessId,
        config: Config,
        topology: Topology,
        state: &[u8],
    ) -> Option<Self>;

    /// Idempotent commit messages conveying every retained committed
    /// command: the tail of a catch-up, replayed through `handle` on top of
    /// a [`save_executed`](Protocol::save_executed) base.
    fn committed_log(&self) -> Vec<Self::Message>;

    /// Per identifier space (a coordinator, or the sentinel `0` for a slot
    /// log), the highest `w` with every identifier `1..=w` executed here.
    /// Sorted, monotone, truthful: reporting `w` promises never to need a
    /// peer's commit for an identifier `<= w`.
    fn executed_watermarks(&self) -> Vec<(ProcessId, u64)>;

    /// Drops bookkeeping at or below `horizon`, the pointwise minimum of
    /// every replica's watermarks; returns how many entries went. The floor
    /// only rises, so a repeated or lower horizon drops nothing.
    fn gc_executed(&mut self, horizon: &[(ProcessId, u64)]) -> u64;

    /// Which identifiers the state machine has executed (plus the view), as
    /// opaque bytes: the base of a catch-up stream.
    fn save_executed(&self) -> Vec<u8>;

    /// Installs a peer's executed marker into a replica that has executed
    /// nothing yet; `false` for bytes that do not decode, a marker of
    /// another protocol, or a replica with progress of its own.
    fn restore_executed(&mut self, marker: &[u8]) -> bool;

    /// Per-command bookkeeping entries currently held (observability).
    fn tracked_entries(&self) -> usize;

    /// The highest identifier sequence seen, committed or not, from `source`.
    fn seen_horizon(&self, source: ProcessId) -> u64 {
        self.base().seen_horizon(source)
    }

    /// Makes every identifier generated from now on exceed `past` (the
    /// peers' seen horizon for a replica that lost its state).
    fn advance_identifiers(&mut self, past: u64);

    /// This replica's identifier.
    fn id(&self) -> ProcessId {
        self.base().id()
    }

    /// The configuration epoch this replica operates in.
    fn epoch(&self) -> u64 {
        self.base().view().epoch
    }

    /// The view this replica operates in. The runtime derives a barrier's
    /// target from it, not from its own announcement-fed view.
    fn cluster_view(&self) -> ClusterView {
        self.base().view().clone()
    }

    /// Protocol metrics accumulated so far.
    fn metrics(&self) -> &ProtocolStats {
        &self.base().metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_topology_puts_self_first() {
        let t = Topology::identity(3, 5);
        assert_eq!(t.by_distance[0], 3);
        assert_eq!(t.by_distance.len(), 5);
        assert_eq!(t.processes, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn closest_quorum_takes_prefix() {
        let t = Topology::identity(2, 5);
        assert_eq!(t.closest_quorum(3), vec![2, 1, 3]);
        assert_eq!(t.closest_quorum(1), vec![2]);
        assert_eq!(t.closest_quorum(5).len(), 5);
    }

    #[test]
    fn closest_quorum_puts_left_out_processes_last() {
        let mut t = Topology::identity(2, 5);
        t.by_distance = vec![2, 5, 1];
        assert_eq!(t.closest_quorum(3), vec![2, 5, 1]);
        assert_eq!(t.closest_quorum(5), vec![2, 5, 1, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "quorum of size")]
    fn closest_quorum_rejects_oversized_requests() {
        let t = Topology::identity(1, 3);
        let _ = t.closest_quorum(4);
    }
}
