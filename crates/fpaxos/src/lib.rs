//! # fpaxos
//!
//! Baseline: leader-based Multi-Paxos with **Flexible Paxos** quorums
//! (Howard et al., OPODIS 2016), as used in the Atlas paper's evaluation.
//!
//! * All commands are funnelled through a distinguished *leader*: a replica
//!   that receives a client command forwards it to the leader, which assigns
//!   it a slot in a totally ordered log.
//! * The leader replicates a slot with a phase-2 quorum of only `f + 1`
//!   replicas (itself included), in exchange for phase-1 (leader election)
//!   quorums of `n − f`.
//! * Commands execute in log order at every replica; the replica that
//!   proxied a command answers its client after executing it, which gives
//!   the four message delays on the critical path discussed in §5.4 of the
//!   paper (client → proxy → leader → quorum → leader → proxy).
//! * When the leader is suspected to have failed, the surviving replica with
//!   the smallest identifier elects itself by running phase 1 over `n − f`
//!   replicas, adopting the highest accepted value per slot and filling gaps
//!   with no-ops.
//!
//! Plain Paxos (majority quorums both ways) is obtained by instantiating the
//! protocol with `f = ⌊(n−1)/2⌋`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use atlas_core::protocol::Time;
use atlas_core::view::EPOCH_BALLOT_STRIDE;
use atlas_core::{
    Action, Base, ClusterView, Command, Config, Dot, ProcessId, Protocol, Rifl, Topology,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Log slot index (1-based).
pub type Slot = u64;

/// Ballot number; encodes the leader identity (`ballot % n == leader - 1`).
pub type Ballot = u64;

/// Previously accepted entries reported in a phase-1 promise:
/// slot → (accepted ballot, command).
pub type PromisedEntries = BTreeMap<Slot, (Ballot, Command)>;

/// Wire messages of the FPaxos protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Proxy → leader: please order this command.
    MForward {
        /// The client command.
        cmd: Command,
    },
    /// Proxy → new leader: re-forward of a command whose original forward
    /// may have died with the previous leader. Unlike `MForward`, the
    /// leader first checks its log for the command's request identifier —
    /// the old leader may have proposed it before failing, in which case
    /// the election's gap-filling already carries it and re-proposing
    /// would execute it twice.
    MForwardRetry {
        /// The client command.
        cmd: Command,
    },
    /// Leader → phase-2 quorum: accept `cmd` at `slot`.
    MAccept {
        /// Log slot.
        slot: Slot,
        /// Leader ballot.
        ballot: Ballot,
        /// Command proposed for the slot (`noOp` to fill gaps on recovery).
        cmd: Command,
    },
    /// Acceptor → leader: accepted.
    MAccepted {
        /// Log slot.
        slot: Slot,
        /// Ballot being acknowledged.
        ballot: Ballot,
    },
    /// Leader → all: `slot` is decided.
    MCommit {
        /// Log slot.
        slot: Slot,
        /// Decided command.
        cmd: Command,
    },
    /// Candidate → all: phase-1 prepare for a new ballot.
    MPrepare {
        /// Candidate ballot.
        ballot: Ballot,
    },
    /// Acceptor → candidate: phase-1 promise with previously accepted
    /// entries.
    MPromise {
        /// Ballot being promised.
        ballot: Ballot,
        /// Previously accepted entries: slot → (accepted ballot, command).
        accepted: BTreeMap<Slot, (Ballot, Command)>,
    },
    /// New leader → all: a new ballot has been established; route commands to
    /// its owner from now on.
    MNewLeader {
        /// The winning ballot.
        ballot: Ballot,
    },
    /// Follower → the leader it just learned of: every slot below `next`
    /// executed here; re-send what is decided from `next` on. The old leader
    /// may have died half way through a commit broadcast, and nobody else
    /// would ever fill the hole that leaves at a follower.
    MSync {
        /// The first slot the sender has not executed.
        next: Slot,
    },
}

impl Message {
    /// Approximate wire size in bytes, used by the simulator's CPU model.
    pub fn size_bytes(&self) -> usize {
        const HEADER: usize = 32;
        match self {
            Message::MForward { cmd }
            | Message::MForwardRetry { cmd }
            | Message::MCommit { cmd, .. }
            | Message::MAccept { cmd, .. } => HEADER + cmd.payload_size,
            Message::MAccepted { .. }
            | Message::MPrepare { .. }
            | Message::MNewLeader { .. }
            | Message::MSync { .. } => HEADER,
            Message::MPromise { accepted, .. } => {
                HEADER
                    + accepted
                        .values()
                        .map(|(_, cmd)| cmd.payload_size + 16)
                        .sum::<usize>()
            }
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct SlotState {
    ballot: Ballot,
    cmd: Command,
    acks: HashSet<ProcessId>,
    committed: bool,
}

/// A Flexible Paxos replica.
#[derive(Debug, Serialize, Deserialize)]
pub struct FPaxos {
    /// Identity, view and metrics. Slots are assigned centrally by the
    /// leader rather than per process, so the seen horizon is a single one:
    /// the highest slot seen in any role, kept under the sentinel space 0.
    base: Base,
    /// Highest ballot this replica has promised or accepted.
    ballot: Ballot,
    /// Ballot this replica believes is currently leading.
    leader_ballot: Ballot,
    /// Accepted (and possibly committed) entries, by slot.
    log: BTreeMap<Slot, SlotState>,
    /// Decided commands, by slot.
    decided: BTreeMap<Slot, Command>,
    /// Next slot the leader will assign.
    next_slot: Slot,
    /// Next slot this replica will execute.
    execute_next: Slot,
    /// Processes this replica believes have failed.
    suspected: HashSet<ProcessId>,
    /// Commands waiting to be forwarded once a leader is known (buffered
    /// during leader changes).
    pending_forward: Vec<Command>,
    /// Commands this replica forwarded to a leader and has not yet seen
    /// executed, by request identifier. On a leader change they are
    /// re-forwarded as [`Message::MForwardRetry`] — a forward in flight
    /// when the leader died would otherwise be lost forever, leaving its
    /// client waiting.
    in_flight: BTreeMap<Rifl, Command>,
    /// Phase-1 promises received while campaigning, keyed by ballot.
    promises: HashMap<Ballot, HashMap<ProcessId, PromisedEntries>>,
    /// Commit time of every decided, not yet executed slot.
    commit_times: HashMap<Slot, Time>,
    /// Compaction floor: slots at or below it executed at **every** replica
    /// and were dropped from `log`/`decided` by [`Protocol::gc_executed`];
    /// messages about them are stragglers and are ignored.
    gc_floor: Slot,
    /// Member rings of recent epochs, oldest first. Ballots encode the
    /// leader by position in the ring of the epoch that minted them
    /// (`ballot / EPOCH_BALLOT_STRIDE`), so decoding a ballot adopted
    /// before a reconfiguration needs that epoch's ring — a leader that
    /// survives a membership change keeps riding its old ballot.
    rings: Vec<(u64, Vec<ProcessId>)>,
}

/// The identifier a slot's command is reported under. Leader-based protocols
/// have no per-command identifiers, so this is a synthetic one — and it names
/// the slot alone (sentinel space 0, like the watermarks): which leader a
/// replica believed in when it learned the decision differs between
/// replicas across a failover, and their execution records must not.
fn slot_dot(slot: Slot) -> Dot {
    Dot::new(0, slot)
}

impl FPaxos {
    /// Records that `slot` exists (for the GC-surviving seen horizon).
    fn note_slot(&mut self, slot: Slot) {
        self.base.note_seen(0, slot);
    }

    /// The member ring of `epoch` (falls back to the current member set for
    /// epochs whose ring has been forgotten).
    fn ring_of(&self, epoch: u64) -> Vec<ProcessId> {
        self.rings
            .iter()
            .rev()
            .find(|(e, _)| *e == epoch)
            .map(|(_, ring)| ring.clone())
            .unwrap_or_else(|| self.base.view().all_members())
    }

    /// The leader encoded by a ballot: its position in the ring of the
    /// epoch that minted the ballot. At epoch 0 with members `1..=n` this
    /// is the classic `(ballot % n) + 1`.
    fn ballot_leader(&self, ballot: Ballot) -> ProcessId {
        let epoch = ballot / EPOCH_BALLOT_STRIDE;
        let ring = self.ring_of(epoch);
        let off = (ballot % EPOCH_BALLOT_STRIDE) as usize % ring.len();
        ring[off]
    }

    /// The smallest ballot owned by `leader` that is strictly greater than
    /// `at_least`, minted in the **current** epoch (above its ballot floor,
    /// so cross-epoch ballots decode with the right ring).
    fn next_ballot_for(&self, leader: ProcessId, at_least: Ballot) -> Ballot {
        let ring = self.base.view().all_members();
        let len = ring.len() as Ballot;
        let base = ring.iter().position(|&p| p == leader).unwrap_or(0) as Ballot;
        let floor = self.base.view().ballot_floor();
        let mut round = at_least.saturating_sub(floor) / len;
        loop {
            let candidate = floor + round * len + base;
            if candidate > at_least {
                return candidate;
            }
            round += 1;
        }
    }

    /// Current leader according to this replica.
    pub fn current_leader(&self) -> ProcessId {
        self.ballot_leader(self.leader_ballot)
    }

    /// Whether this replica believes itself to be the leader.
    pub fn is_leader(&self) -> bool {
        self.current_leader() == self.base.id()
    }

    /// The phase-2 quorum: the `f + 1` closest replicas (leader included);
    /// suspected and late replicas sort last.
    fn phase2_quorum(&self) -> Vec<ProcessId> {
        if self.base.view().is_joint() {
            // Joint window: the accept needs `f + 1` in both configurations;
            // send to everyone and let `handle_accepted`'s dual count decide.
            return self.base.everyone();
        }
        self.base.closest(self.base.config().slow_quorum_size())
    }

    /// Leader side: once `late` left the distance order, re-sends every
    /// undecided slot of the leading ballot to the phase-2 quorum members
    /// that have not accepted it — the quorum it went to may never answer.
    fn redrive(&self, late: &[ProcessId]) -> Vec<Action<Message>> {
        if late.is_empty() || !self.is_leader() {
            return Vec::new();
        }
        let quorum = self.phase2_quorum();
        let undecided = self.log.iter();
        let undecided = undecided.filter(|(_, s)| !s.committed && s.ballot == self.leader_ballot);
        undecided
            .filter_map(|(&slot, state)| {
                let targets: Vec<ProcessId> = quorum
                    .iter()
                    .copied()
                    .filter(|p| *p != self.base.id() && !state.acks.contains(p))
                    .collect();
                let (ballot, cmd) = (state.ballot, state.cmd.clone());
                let accept = Message::MAccept { slot, ballot, cmd };
                (!targets.is_empty()).then(|| Action::send(targets, accept))
            })
            .collect()
    }

    /// Leader side: assign the next slot to `cmd` and replicate it.
    fn propose(&mut self, cmd: Command) -> Vec<Action<Message>> {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.note_slot(slot);
        let ballot = self.leader_ballot;
        self.log.insert(
            slot,
            SlotState {
                ballot,
                cmd: cmd.clone(),
                acks: HashSet::new(),
                committed: false,
            },
        );
        vec![Action::send(
            self.phase2_quorum(),
            Message::MAccept { slot, ballot, cmd },
        )]
    }

    fn handle_forward(&mut self, cmd: Command) -> Vec<Action<Message>> {
        if self.is_leader() {
            self.propose(cmd)
        } else {
            // Not the leader (e.g. a stale forward during a leader change):
            // re-forward to the current leader.
            vec![Action::send(
                [self.current_leader()],
                Message::MForward { cmd },
            )]
        }
    }

    /// A proxy re-forwarded `cmd` after a leader change. The previous
    /// leader may have proposed it before dying — and the election's
    /// gap-filling would then carry it into this leader's log — so the log
    /// is checked for the request identifier before proposing: a duplicate
    /// retry must not order (and execute) the command twice.
    fn handle_forward_retry(&mut self, cmd: Command) -> Vec<Action<Message>> {
        if !self.is_leader() {
            return vec![Action::send(
                [self.current_leader()],
                Message::MForwardRetry { cmd },
            )];
        }
        let rifl = cmd.rifl;
        let known = self.decided.values().any(|c| c.rifl == rifl)
            || self.log.values().any(|s| s.cmd.rifl == rifl);
        if known {
            // Already in the log (or decided): the normal replication /
            // commit flow answers the client; re-proposing would duplicate.
            return Vec::new();
        }
        self.propose(cmd)
    }

    /// Re-forwards every not-yet-executed forwarded command to the current
    /// leader, as retries. Called on leader change; until a command is seen
    /// executed, only this replica can guarantee it reaches *some* leader.
    fn reforward_in_flight(&mut self) -> Vec<Action<Message>> {
        let leader = self.current_leader();
        self.in_flight
            .values()
            .cloned()
            .map(|cmd| Action::send([leader], Message::MForwardRetry { cmd }))
            .collect()
    }

    fn handle_accept(
        &mut self,
        from: ProcessId,
        slot: Slot,
        ballot: Ballot,
        cmd: Command,
    ) -> Vec<Action<Message>> {
        if ballot < self.ballot || slot <= self.gc_floor {
            return Vec::new();
        }
        self.note_slot(slot);
        let mut actions = self.learn_leader(ballot);
        self.log.insert(
            slot,
            SlotState {
                ballot,
                cmd,
                acks: HashSet::new(),
                committed: false,
            },
        );
        actions.push(Action::send([from], Message::MAccepted { slot, ballot }));
        actions
    }

    /// Adopts `ballot` as the current leader ballot and re-routes any command
    /// buffered while the previous leader was suspected — plus, on an actual
    /// leader *change*, every forwarded-but-not-yet-executed command, whose
    /// original forward may have died with the old leader, and a request for
    /// the decided slots this replica has not executed ([`Message::MSync`]).
    fn learn_leader(&mut self, ballot: Ballot) -> Vec<Action<Message>> {
        self.ballot = self.ballot.max(ballot);
        if ballot < self.leader_ballot {
            return Vec::new();
        }
        let leader_changed = ballot > self.leader_ballot;
        self.leader_ballot = ballot;
        let pending = std::mem::take(&mut self.pending_forward);
        let mut actions = Vec::new();
        for cmd in pending {
            // Slow path: these commands stalled behind a leader election
            // and only proceed under the new ballot.
            self.base.metrics.slow_paths += 1;
            if self.is_leader() {
                actions.extend(self.propose(cmd));
            } else {
                actions.push(Action::send(
                    [self.current_leader()],
                    Message::MForward { cmd },
                ));
            }
        }
        if leader_changed {
            actions.extend(self.reforward_in_flight());
            let next = self.execute_next;
            actions.push(Action::send(
                [self.current_leader()],
                Message::MSync { next },
            ));
        }
        actions
    }

    /// `from` executed every slot below `next`: re-send it the decided slots
    /// from there on (`handle_commit` ignores those it has). The answer is
    /// as long as `from` lags behind this replica — not as long as the
    /// history, which without GC is every slot ever decided.
    fn handle_sync(&self, from: ProcessId, next: Slot) -> Vec<Action<Message>> {
        let missing = self.decided.range(next.max(self.gc_floor + 1)..);
        missing
            .map(|(&slot, cmd)| {
                let cmd = cmd.clone();
                Action::send([from], Message::MCommit { slot, cmd })
            })
            .collect()
    }

    fn handle_accepted(
        &mut self,
        from: ProcessId,
        slot: Slot,
        ballot: Ballot,
        time: Time,
    ) -> Vec<Action<Message>> {
        let Some(state) = self.log.get_mut(&slot) else {
            return Vec::new();
        };
        if state.ballot != ballot || state.committed || ballot != self.leader_ballot {
            return Vec::new();
        }
        state.acks.insert(from);
        // `f + 1` accepts in the current configuration — and, during the
        // joint window, in the outgoing one too.
        let acks = state.acks.iter().copied();
        if !self.base.quorum_met(acks, Config::slow_quorum_size) {
            return Vec::new();
        }
        state.committed = true;
        let cmd = state.cmd.clone();
        let everyone = self.base.everyone();
        let mut actions = vec![Action::send(everyone, Message::MCommit { slot, cmd })];
        actions.extend(self.try_execute(time));
        actions
    }

    fn handle_commit(&mut self, slot: Slot, cmd: Command, time: Time) -> Vec<Action<Message>> {
        if self.decided.contains_key(&slot) || slot <= self.gc_floor {
            return Vec::new();
        }
        self.note_slot(slot);
        let mut actions = Vec::new();
        if !cmd.is_noop() {
            let dot = slot_dot(slot);
            actions.push(Action::Commit { dot });
        }
        self.decided.insert(slot, cmd);
        self.base.metrics.commits += 1;
        self.commit_times.insert(slot, time);
        actions.extend(self.try_execute(time));
        actions
    }

    /// Executes decided slots in order, stopping at the first gap.
    fn try_execute(&mut self, time: Time) -> Vec<Action<Message>> {
        let mut actions = Vec::new();
        while let Some(cmd) = self.decided.get(&self.execute_next).cloned() {
            let slot = self.execute_next;
            self.execute_next += 1;
            let committed_at = self
                .commit_times
                .remove(&slot)
                .expect("every decided slot records its commit");
            self.base.metrics.record_execution(Some(committed_at), time);
            if !cmd.is_noop() {
                // Executed: the forward provably reached a leader and was
                // ordered; no retry will ever be needed.
                self.in_flight.remove(&cmd.rifl);
                let dot = slot_dot(slot);
                actions.push(Action::Execute { dot, cmd });
            }
        }
        actions
    }

    /// Starts a leader election for this replica (phase 1 over all replicas).
    fn campaign(&mut self) -> Vec<Action<Message>> {
        let ballot = self.next_ballot_for(self.base.id(), self.ballot.max(self.leader_ballot));
        self.ballot = ballot;
        self.base.metrics.recoveries += 1;
        vec![Action::send(
            self.base.everyone(),
            Message::MPrepare { ballot },
        )]
    }

    /// Campaigns if this replica is the deterministic successor: the
    /// unsuspected member with the smallest identifier.
    fn campaign_if_successor(&mut self) -> Vec<Action<Message>> {
        let members = self.base.view().all_members();
        let successor = members.into_iter().find(|p| !self.suspected.contains(p));
        if successor == Some(self.base.id()) {
            self.campaign()
        } else {
            Vec::new()
        }
    }

    fn handle_prepare(&mut self, from: ProcessId, ballot: Ballot) -> Vec<Action<Message>> {
        if ballot < self.ballot {
            return Vec::new();
        }
        self.ballot = ballot;
        let accepted: BTreeMap<Slot, (Ballot, Command)> = self
            .log
            .iter()
            .map(|(slot, state)| (*slot, (state.ballot, state.cmd.clone())))
            .collect();
        vec![Action::send([from], Message::MPromise { ballot, accepted })]
    }

    fn handle_promise(
        &mut self,
        from: ProcessId,
        ballot: Ballot,
        accepted: BTreeMap<Slot, (Ballot, Command)>,
        time: Time,
    ) -> Vec<Action<Message>> {
        if ballot != self.ballot || self.leader_ballot == ballot {
            return Vec::new();
        }
        let promises = self.promises.entry(ballot).or_default();
        promises.insert(from, accepted);
        // `n − f` promises in the current configuration — and, during the
        // joint window, in the outgoing one too, so every value accepted
        // under either configuration is visible to the new leader.
        let promised = promises.keys().copied();
        if !self.base.quorum_met(promised, Config::recovery_quorum_size) {
            return Vec::new();
        }
        // Elected: adopt the highest accepted value per slot, fill gaps with
        // noOps, and resume normal operation.
        let promises = promises.clone();
        self.leader_ballot = ballot;
        let mut actions = vec![Action::send(
            self.base.everyone(),
            Message::MNewLeader { ballot },
        )];
        let mut chosen: BTreeMap<Slot, (Ballot, Command)> = BTreeMap::new();
        for accepted in promises.values() {
            for (slot, (abal, cmd)) in accepted {
                match chosen.get(slot) {
                    Some((existing, _)) if existing >= abal => {}
                    _ => {
                        chosen.insert(*slot, (*abal, cmd.clone()));
                    }
                }
            }
        }
        let max_slot = chosen.keys().next_back().copied().unwrap_or(0);
        self.next_slot = self.next_slot.max(max_slot + 1);
        self.note_slot(max_slot);
        // Re-propose every known slot and fill unknown ones with noOps so
        // the log has no gaps. Slots at or below the GC floor executed at
        // every replica and need no re-proposal (their payloads are gone).
        for slot in (self.gc_floor + 1)..=max_slot {
            if self.decided.contains_key(&slot) {
                continue;
            }
            let cmd = chosen
                .get(&slot)
                .map(|(_, cmd)| cmd.clone())
                .unwrap_or_else(Command::noop);
            self.log.insert(
                slot,
                SlotState {
                    ballot,
                    cmd: cmd.clone(),
                    acks: HashSet::new(),
                    committed: false,
                },
            );
            actions.push(Action::send(
                self.phase2_quorum(),
                Message::MAccept { slot, ballot, cmd },
            ));
        }
        // Slots already decided here are not re-proposed, and a follower may
        // lack one (the old leader died mid-way through its commit
        // broadcast): each follower asks for what it lacks when it learns of
        // this ballot (`MSync`).
        // Drain commands buffered while there was no leader, and re-route
        // this replica's own forwarded-but-unexecuted commands through the
        // dedupe path (the old leader may have proposed them; they would
        // then already sit in the rebuilt log above).
        let pending = std::mem::take(&mut self.pending_forward);
        for cmd in pending {
            actions.extend(self.propose(cmd));
        }
        let retries: Vec<Command> = self.in_flight.values().cloned().collect();
        for cmd in retries {
            actions.extend(self.handle_forward_retry(cmd));
        }
        let _ = time;
        actions
    }
}

impl Protocol for FPaxos {
    type Message = Message;

    fn name() -> &'static str {
        "fpaxos"
    }

    fn new(id: ProcessId, config: Config, topology: Topology) -> Self {
        let leader = topology.leader.unwrap_or(1);
        let base = Base::new(id, config, topology);
        let ring = base.view().all_members();
        // The initial leader's first ballot is the smallest ballot it owns.
        let leader_ballot = ring.iter().position(|&p| p == leader).unwrap_or(0) as Ballot;
        let rings = vec![(0, ring)];
        Self {
            base,
            ballot: leader_ballot,
            leader_ballot,
            log: BTreeMap::new(),
            decided: BTreeMap::new(),
            next_slot: 1,
            execute_next: 1,
            suspected: HashSet::new(),
            pending_forward: Vec::new(),
            in_flight: BTreeMap::new(),
            promises: HashMap::new(),
            commit_times: HashMap::new(),
            gc_floor: 0,
            rings,
        }
    }

    fn base(&self) -> &Base {
        &self.base
    }

    // Path classification: FPaxos has no per-command fast quorum — "fast"
    // here means the command rode the steady-state leader (phase 2 only),
    // "slow" means it was caught by a leader change and waited for a
    // prepare phase (see `learn_leader`).
    fn submit(&mut self, cmd: Command, _time: Time) -> Vec<Action<Message>> {
        if self.is_leader() {
            self.base.metrics.fast_paths += 1;
            self.propose(cmd)
        } else if self.suspected.contains(&self.current_leader()) {
            // Leader change in progress: buffer until a new leader is known.
            self.pending_forward.push(cmd);
            Vec::new()
        } else {
            self.base.metrics.fast_paths += 1;
            // Track the forward until it is seen executed, so a leader
            // change re-forwards it instead of losing it with the leader.
            self.in_flight.insert(cmd.rifl, cmd.clone());
            vec![Action::send(
                [self.current_leader()],
                Message::MForward { cmd },
            )]
        }
    }

    fn message_size(msg: &Message) -> usize {
        msg.size_bytes()
    }

    fn handle(&mut self, from: ProcessId, msg: Message, time: Time) -> Vec<Action<Message>> {
        match msg {
            Message::MForward { cmd } => self.handle_forward(cmd),
            Message::MForwardRetry { cmd } => self.handle_forward_retry(cmd),
            Message::MAccept { slot, ballot, cmd } => self.handle_accept(from, slot, ballot, cmd),
            Message::MAccepted { slot, ballot } => self.handle_accepted(from, slot, ballot, time),
            Message::MCommit { slot, cmd } => self.handle_commit(slot, cmd, time),
            Message::MPrepare { ballot } => self.handle_prepare(from, ballot),
            Message::MPromise { ballot, accepted } => {
                self.handle_promise(from, ballot, accepted, time)
            }
            Message::MNewLeader { ballot } => {
                if ballot >= self.ballot {
                    self.learn_leader(ballot)
                } else {
                    Vec::new()
                }
            }
            Message::MSync { next } => self.handle_sync(from, next),
        }
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        Some(bincode::serialize(self).expect("replica state always encodes"))
    }

    fn restore_state(
        id: ProcessId,
        config: Config,
        _topology: Topology,
        state: &[u8],
    ) -> Option<Self> {
        let state: FPaxos = bincode::deserialize(state).ok()?;
        state.base.restores_as(id, config).then_some(state)
    }

    fn committed_log(&self) -> Vec<Message> {
        // Slot order; noOp gap-fillers are included so the receiver's
        // in-order executor does not stall on them.
        self.decided
            .iter()
            .map(|(&slot, cmd)| Message::MCommit {
                slot,
                cmd: cmd.clone(),
            })
            .collect()
    }

    fn executed_watermarks(&self) -> Vec<(ProcessId, u64)> {
        // One shared totally ordered log; report its contiguous executed
        // prefix under the sentinel space 0 (no replica has identifier 0).
        vec![(0, self.execute_next - 1)]
    }

    fn gc_executed(&mut self, horizon: &[(ProcessId, u64)]) -> u64 {
        let Some(&(_, h)) = horizon.iter().find(|(space, _)| *space == 0) else {
            return 0;
        };
        // Never collect beyond what executed locally, whatever the caller
        // claims; idempotent past the current floor.
        let eff = h.min(self.execute_next.saturating_sub(1));
        if eff <= self.gc_floor {
            return 0;
        }
        self.gc_floor = eff;
        let mut dropped = 0u64;
        let keep = self.log.split_off(&(eff + 1));
        dropped += self.log.len() as u64;
        self.log = keep;
        let keep = self.decided.split_off(&(eff + 1));
        dropped += self.decided.len() as u64;
        self.decided = keep;
        self.commit_times.retain(|&slot, _| slot > eff);
        dropped
    }

    fn save_executed(&self) -> Vec<u8> {
        // Watermark plus configuration: the view and ring history let a
        // joiner whose bootstrap base covers an executed `Reconfigure`
        // barrier decode old-epoch leader ballots, and the observed leader
        // ballot points its submissions at the current leader immediately.
        let marker = (
            self.execute_next - 1,
            self.base.view().clone(),
            self.rings.clone(),
            self.leader_ballot,
        );
        bincode::serialize(&marker).expect("markers always encode")
    }

    fn restore_executed(&mut self, marker: &[u8]) -> bool {
        type FpMarker = (Slot, ClusterView, Vec<(u64, Vec<ProcessId>)>, Ballot);
        let Ok((watermark, view, rings, leader_ballot)) = bincode::deserialize::<FpMarker>(marker)
        else {
            return false;
        };
        if self.execute_next != 1 {
            return false; // only a fresh replica may adopt a peer's base
        }
        self.execute_next = watermark + 1;
        self.gc_floor = watermark;
        self.next_slot = self.next_slot.max(watermark + 1);
        self.note_slot(watermark);
        if self.base.install_view(&view) {
            self.rings = rings;
        }
        // Adopting the peer's *observed* leader ballot is pure learning —
        // no promise is made — and keeps a fresh joiner from forwarding
        // submissions to a long-deposed boot leader.
        self.leader_ballot = self.leader_ballot.max(leader_ballot);
        true
    }

    fn tracked_entries(&self) -> usize {
        self.log.len() + self.decided.len()
    }

    fn seen_horizon(&self, _source: ProcessId) -> u64 {
        self.base.seen_horizon(0)
    }

    fn advance_identifiers(&mut self, past: u64) {
        self.next_slot = self.next_slot.max(past + 1);
    }

    // Safe under the runtime detector's repeated dispatch: the suspected
    // set is idempotent, a non-leader suspicion stays inert, and
    // re-campaigning for a still-incomplete election merely reissues
    // MPrepare at a higher ballot (which doubles as lost-message
    // recovery). Trust restoration has no protocol hook — a falsely
    // suspected leader stays deposed, which ballots make safe.
    fn suspect(&mut self, suspected: ProcessId, _time: Time) -> Vec<Action<Message>> {
        if suspected == self.base.id() {
            return Vec::new();
        }
        self.suspected.insert(suspected);
        let late = self.base.suspect(suspected);
        if suspected != self.current_leader() {
            return self.redrive(&late);
        }
        // The leader failed: the smallest-id surviving replica campaigns.
        self.campaign_if_successor()
    }

    fn discover(&mut self, by_distance: &[ProcessId], _time: Time) -> Vec<Action<Message>> {
        let late = self.base.discover(by_distance);
        self.redrive(&late)
    }

    fn reconfigure(&mut self, view: &ClusterView, _time: Time) -> Vec<Action<Message>> {
        let old_leader = self.current_leader();
        if !self.base.install_view(view) {
            return Vec::new();
        }
        let members = view.all_members();
        self.rings.push((view.epoch, members.clone()));
        if self.rings.len() > 4 {
            self.rings.remove(0);
        }
        if !self.base.is_member() {
            return Vec::new();
        }
        self.suspected.retain(|p| members.contains(p));
        if members.contains(&old_leader) {
            // The leader survives the change and keeps riding its ballot
            // (the ring history decodes it); nothing to re-drive — accepts
            // in flight gather dual quorums via `handle_accepted`.
            return Vec::new();
        }
        // The leader was removed: mark it deposed so submissions buffer
        // until the election completes, then let the deterministic
        // successor (smallest live member) campaign above the new epoch's
        // ballot floor. Phase 1 re-proposes every undecided slot, which is
        // what re-drives the old leader's in-flight proposals.
        self.suspected.insert(old_leader);
        self.campaign_if_successor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_core::Rifl;
    use atlas_protocol::chaos::ChaosNet;

    /// An `n`-replica cluster led by replica 1 (the identity topology's
    /// leader), with in-order delivery.
    fn cluster(n: usize, f: usize) -> ChaosNet<FPaxos> {
        ChaosNet::fifo(Config::new(n, f))
    }

    fn suspect_everywhere(net: &mut ChaosNet<FPaxos>, suspected: ProcessId) {
        for id in 1..=net.replicas.len() as ProcessId {
            if !net.crashed.contains(&id) {
                net.suspect(id, suspected);
            }
        }
    }

    fn put(client: u64, seq: u64, key: u64) -> Command {
        Command::put(Rifl::new(client, seq), key, client, 100)
    }

    #[test]
    fn leader_orders_commands_from_any_proxy() {
        let mut net = cluster(5, 1);
        net.submit(3, put(3, 1, 0));
        net.submit(5, put(5, 1, 0));
        net.submit(1, put(1, 1, 0));
        // Same order everywhere.
        let reference = net.rifls_at(1);
        assert_eq!(reference.len(), 3);
        for id in 2..=5u32 {
            assert_eq!(net.rifls_at(id), reference, "process {id}");
        }
    }

    #[test]
    fn phase2_quorum_is_f_plus_one() {
        let config = Config::new(5, 1);
        assert_eq!(config.slow_quorum_size(), 2);
        let config = Config::new(5, 2);
        assert_eq!(config.slow_quorum_size(), 3);
    }

    #[test]
    fn non_leader_forwards_to_leader() {
        let mut topology = Topology::identity(1, 3);
        topology.leader = Some(2);
        let mut replica = FPaxos::new(1, Config::new(3, 1), topology);
        let actions = replica.submit(put(1, 1, 0), 0);
        match &actions[0] {
            Action::Send { targets, msg } => {
                assert_eq!(targets, &vec![2]);
                assert!(matches!(msg, Message::MForward { .. }));
            }
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn leader_failover_elects_new_leader_and_continues() {
        let mut net = cluster(3, 1);
        net.submit(2, put(2, 1, 0));
        // Crash the leader; the surviving replicas elect a new one.
        net.crash(1);
        suspect_everywhere(&mut net, 1);
        assert!(net.replica(2).is_leader());
        assert_eq!(net.replica(3).current_leader(), 2);
        // New submissions still complete at the survivors.
        net.submit(3, put(3, 1, 0));
        net.submit(2, put(2, 2, 0));
        assert_eq!(net.rifls_at(2).len(), 3);
        assert_eq!(net.rifls_at(3).len(), 3);
    }

    #[test]
    fn a_suspected_acceptor_leaves_the_phase2_quorum() {
        // Leader 1 accepts at {1, 2}; 2 halts with a slot in flight.
        let mut net = cluster(3, 1);
        net.crash(2);
        net.submit(1, put(1, 1, 0));
        assert!(net.rifls_at(1).is_empty(), "stuck waiting for 2");
        net.suspect(1, 2);
        net.submit(1, put(1, 2, 0));
        for id in [1, 3] {
            assert_eq!(net.rifls_at(id).len(), 2, "replica {id}");
        }
    }

    /// The old leader's commit broadcast reached replica 2 but not replica
    /// 3 before it died. Phase 1 only re-proposes what is *undecided* at
    /// the new leader, so unless replica 3 asks it for the decided slots it
    /// lacks (`MSync`), 3 keeps a hole at slot 1 and never executes again.
    #[test]
    fn new_leader_reannounces_commits_the_old_leader_left_half_broadcast() {
        let mut net = cluster(3, 1);
        net.crash(3); // cut off while the leader commits...
        net.submit(1, put(1, 1, 0));
        net.crashed.remove(&3); // ...and back, none the wiser
        assert_eq!(net.rifls_at(2).len(), 1);
        assert!(net.rifls_at(3).is_empty());
        net.crash(1);
        suspect_everywhere(&mut net, 1);
        net.submit(3, put(3, 1, 0));
        assert_eq!(net.rifls_at(2).len(), 2);
        assert_eq!(net.rifls_at(3), net.rifls_at(2));
    }

    /// A failover costs messages in proportion to how far the followers lag,
    /// not to the history: without GC `decided` holds every slot ever
    /// decided, and an election that re-sent them all would put more frames
    /// on each healthy link in one step than the runtime's resend buffer
    /// holds (65 536), which gaps the link.
    #[test]
    fn failover_traffic_does_not_grow_with_the_history() {
        const HISTORY: u64 = 70_000;
        let mut net = cluster(3, 1);
        for seq in 1..=HISTORY {
            net.submit(1, put(1, seq, seq % 8));
        }
        assert_eq!(net.replica(2).decided.len() as u64, HISTORY, "GC is off");
        net.crash(1);
        // The election, delivered by hand so every frame can be counted.
        let mut frames = 0;
        let mut queue: Vec<(ProcessId, ProcessId, Message)> = Vec::new();
        let mut emit = |source: ProcessId, actions: Vec<Action<Message>>, queue: &mut Vec<_>| {
            for action in actions {
                if let Action::Send { targets, msg } = action {
                    for to in targets.into_iter().filter(|to| *to != 1) {
                        frames += 1;
                        queue.push((source, to, msg.clone()));
                    }
                }
            }
        };
        let prepare = net.replica(2).suspect(1, 0);
        emit(2, prepare, &mut queue);
        let also_suspects = net.replica(3).suspect(1, 0);
        emit(3, also_suspects, &mut queue);
        while !queue.is_empty() {
            let (from, to, msg) = queue.remove(0);
            let out = net.replica(to).handle(from, msg, 0);
            emit(to, out, &mut queue);
        }
        assert!(net.replica(2).is_leader());
        assert_eq!(net.replica(3).current_leader(), 2);
        assert!(frames < 32, "{frames} frames for one quiet failover");
        net.submit(3, put(3, 1, 0));
        assert_eq!(net.rifls_at(3).len() as u64, HISTORY + 1);
        assert_eq!(net.rifls_at(3), net.rifls_at(2));
    }

    #[test]
    fn failover_preserves_previously_executed_commands() {
        let mut net = cluster(5, 2);
        for seq in 1..=5 {
            net.submit(2, put(2, seq, 0));
        }
        net.crash(1);
        suspect_everywhere(&mut net, 1);
        net.submit(3, put(3, 1, 0));
        // The five pre-crash commands plus the new one execute at survivors
        // in the same order.
        let reference = net.rifls_at(2);
        assert_eq!(reference.len(), 6);
        for id in 3..=5u32 {
            assert_eq!(net.rifls_at(id), reference, "process {id}");
        }
    }

    #[test]
    fn in_flight_forward_lost_with_the_leader_is_reforwarded() {
        // Replica 3 forwards a command to leader 1, but the forward dies
        // with the leader before being proposed. After failover the proxy
        // must re-forward it to the new leader — before this existed, the
        // command (and its client) hung forever.
        let mut net = cluster(3, 1);
        let cmd = put(3, 1, 0);
        let _forward_is_lost = net.replica(3).submit(cmd.clone(), 0);
        net.crash(1);
        suspect_everywhere(&mut net, 1);
        assert_eq!(
            net.rifls_at(3),
            vec![cmd.rifl],
            "the re-forwarded command must execute after failover"
        );
    }

    #[test]
    fn retry_of_a_command_the_old_leader_proposed_is_not_duplicated() {
        // Leader 1 proposed the forwarded command and an acceptor stored
        // it before 1 died; the election's gap-filling re-proposes it. The
        // proxy's retry must then be deduplicated by rifl, or the command
        // would be ordered (and executed) twice.
        let mut net = cluster(3, 1);
        let cmd = put(3, 1, 0);
        let forward = net.replica(3).submit(cmd.clone(), 0);
        // Deliver the forward to leader 1; its MAccept reaches acceptor 2,
        // whose ack is lost.
        let Action::Send { msg, .. } = &forward[0] else {
            panic!("expected the forward send");
        };
        let accepts = net.replica(1).handle(3, msg.clone(), 0);
        for action in accepts {
            if let Action::Send { targets, msg } = action {
                if targets.contains(&2) {
                    let _ = net.replica(2).handle(1, msg, 0);
                }
            }
        }
        net.crash(1);
        suspect_everywhere(&mut net, 1);
        for id in 2..=3u32 {
            assert_eq!(
                net.rifls_at(id),
                vec![cmd.rifl],
                "replica {id}: the command must execute exactly once"
            );
        }
    }

    #[test]
    fn commands_buffered_during_leader_change_are_not_lost() {
        let mut net = cluster(3, 1);
        net.crash(1);
        // Replica 3 suspects the leader before a new one is elected and
        // buffers its submission.
        net.suspect(3, 1);
        net.submit(3, put(3, 1, 0));
        assert!(net.rifls_at(3).is_empty(), "no leader yet: buffered");
        // Once replica 2 campaigns and wins, new commands flow again.
        suspect_everywhere(&mut net, 1);
        net.submit(3, put(3, 2, 0));
        assert!(!net.rifls_at(3).is_empty());
    }
}
