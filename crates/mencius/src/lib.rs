//! # mencius
//!
//! Baseline: **Mencius** (OSDI 2008) — a multi-leader SMR protocol that
//! pre-partitions the slots of a totally ordered log round-robin among the
//! replicas: replica `i` owns slots `i, i+n, i+2n, …`.
//!
//! A replica orders a command by placing it in its next owned slot and
//! broadcasting it. Other replicas acknowledge the proposal and *skip* their
//! own owned slots that precede it (broadcasting the skip so everyone's log
//! stays gap-free). A slot is decided once every live replica acknowledged
//! it — which is why, as the paper's evaluation observes (§5.4), Mencius
//! runs at the speed of its slowest (farthest) replica. Execution follows
//! slot order.
//!
//! # Slot revocation
//!
//! Failure handling in Mencius requires *revoking* the slots of a crashed
//! replica, and [`Mencius::suspect`] implements it. Each slot is an
//! implicit single-decree Paxos instance in which the owner holds ballot 0:
//! `MPropose` is the owner's phase-2 accept at ballot 0, and an
//! acknowledging replica records the command as accepted. When a replica is
//! suspected, the survivors:
//!
//! * **Stop waiting for its acknowledgements.** A proposal commits once
//!   every non-suspected replica acknowledged it *and* the acks reach a
//!   majority. The majority floor is what keeps revocation sound (see
//!   below); the everyone-alive part preserves Mencius's skip propagation.
//! * **Revoke its unused slots.** For every undecided slot of the dead
//!   owner up to the highest slot observed (new holes are revoked as new
//!   proposals reveal them), survivors run a Paxos round with a takeover
//!   ballot they own (`atlas_protocol::recovery` machinery, shared with
//!   Atlas and EPaxos): `MRevoke` (phase 1) collects each acceptor's
//!   promised/accepted state for the slots, `MRevokeAccept` (phase 2)
//!   proposes the value accepted at the highest ballot — the owner's own
//!   command, when any acceptor acknowledged it before promising — or a
//!   *skip* when no acceptor saw one, and a majority of `MRevokeAccepted`
//!   acks decides the slot (announced with the ordinary `MCommit`/`MSkip`).
//!
//! **Why this cannot contradict an owner commit:** an acceptor that has
//! promised a revocation ballot refuses the owner's ballot-0 proposal, and
//! one that acknowledged the proposal reports it during revocation. For a
//! revocation to choose *skip*, a majority must have replied with nothing
//! accepted — each of those replicas promised before the proposal reached
//! it and will therefore never acknowledge it, leaving the owner short of
//! the majority of acks its commit requires. Conversely, if the owner could
//! still commit, every revocation majority overlaps its ack set in a
//! replica that reports the accepted command, and revocation re-proposes
//! the command itself rather than a skip. A revoked-to-skip slot that held
//! a live proposal of *this* replica is re-proposed in a fresh slot, so a
//! falsely-suspected replica's commands are delayed, never lost.
//!
//! Re-dispatched suspicions (the runtime repeats them while a peer stays
//! dead) re-send the same prepares instead of opening new ballots, and the
//! value proposed at a ballot is memoized — both required by the
//! [`Protocol::suspect`] idempotence contract. A crashed replica that
//! *restarts* is still handled by the runtime durability layer; revocation
//! exists for the one that never comes back.
//!
//! # Reconfiguration
//!
//! Membership changes re-partition slot ownership. Each configuration epoch
//! installs a new ownership *ring* governing slots from a cut point on: the
//! barrier slot at which the `Reconfigure` command executed plus
//! [`RECONFIG_ALPHA`]. Proposals are gated to at most `RECONFIG_ALPHA` slots
//! past the proposer's contiguous executed frontier, so nobody can propose
//! into a slot whose ring it has not yet learned — slots before the cut keep
//! the old round-robin layout, slots at or after it follow the new one.
//! Commit and revocation quorums for a slot are majorities of *its ring*,
//! which keeps the slot's implicit Paxos instance on one acceptor set across
//! the change. A joiner owns no slot until the first ring that includes it;
//! a removed replica owns none after its last.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use atlas_core::protocol::Time;
use atlas_core::{Action, Base, ClusterView, Command, Config, Dot, ProcessId, Protocol, Topology};
use atlas_protocol::recovery::takeover_ballot_in;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Log slot index (1-based). Ownership is round-robin over the ring of the
/// slot's configuration epoch; in the initial configuration slot `s` is
/// owned by process `((s − 1) mod n) + 1`.
pub type Slot = u64;

/// Ballot numbers of the per-slot revocation consensus. The slot owner
/// implicitly holds ballot 0; takeover ballots are minted with
/// [`takeover_ballot_in`] and always exceed both every member identifier
/// and the epoch's ballot floor.
pub type Ballot = u64;

/// Guard band between the contiguous executed frontier and the highest slot
/// a replica may open a proposal in. A reconfiguration executed at barrier
/// slot `s` re-partitions ownership only from slot `s + RECONFIG_ALPHA` on
/// (the *cut*); since no proposal may target a slot more than
/// `RECONFIG_ALPHA` past its proposer's executed frontier, a proposer of
/// slot `t ≥ s + RECONFIG_ALPHA` had already executed past `s` — the
/// barrier included — and therefore knows the ring governing `t`.
pub const RECONFIG_ALPHA: Slot = 64;

/// One ownership ring: from `start` on (until the next ring's `start`),
/// slots belong round-robin to `members`. Installed by
/// [`Protocol::reconfigure`] at the epoch's cut; the initial configuration
/// rings from slot 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RingSeg {
    /// Configuration epoch that installed this ring.
    epoch: u64,
    /// First slot governed by this ring.
    start: Slot,
    /// Ring members, sorted; slot `start + k` belongs to member `k mod len`.
    members: Vec<ProcessId>,
}

/// Catch-up base marker: the executed prefix plus state a joiner cannot
/// re-derive from log it never saw — the ownership rings and the donor's
/// configuration view.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RingMarker {
    /// Highest contiguously executed slot at the donor.
    watermark: Slot,
    /// The donor's ownership rings.
    rings: Vec<RingSeg>,
    /// The donor's configuration view.
    view: ClusterView,
}

/// What an acceptor knows about a slot, reported in `MRevokeOk`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SlotReport {
    /// The slot is already decided here (`None` = skip).
    Decided(Option<Command>),
    /// A value is accepted at the given ballot but not decided (`None` =
    /// a skip proposed by an earlier revocation; `Some` at ballot 0 = the
    /// owner's acknowledged proposal).
    Accepted(Ballot, Option<Command>),
    /// Nothing accepted for the slot.
    Empty,
}

/// Wire messages of the Mencius protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Slot owner → all: order `cmd` at `slot` (phase-2 accept at the
    /// owner's implicit ballot 0).
    MPropose {
        /// The slot, owned by the sender.
        slot: Slot,
        /// The command.
        cmd: Command,
    },
    /// Replica → proposer: acknowledged (and recorded as accepted).
    MProposeAck {
        /// The acknowledged slot.
        slot: Slot,
    },
    /// Slot decided as *skip*: either the owner declaring it will never use
    /// these owned slots, or a revocation announcing a chosen skip.
    MSkip {
        /// The skipped slots.
        slots: Vec<Slot>,
    },
    /// `slot` is decided with `cmd` (all-alive acks at the owner, or a
    /// revocation that preserved the owner's acknowledged command).
    MCommit {
        /// The decided slot.
        slot: Slot,
        /// The decided command.
        cmd: Command,
    },
    /// Revocation phase 1: a survivor prepares a takeover ballot for
    /// undecided slots of a suspected owner.
    MRevoke {
        /// The slots being revoked (all owned by the same suspected
        /// process, all prepared at the same ballot).
        slots: Vec<Slot>,
        /// Takeover ballot, owned by the sender.
        ballot: Ballot,
    },
    /// Revocation phase-1 acknowledgement: per-slot acceptor state.
    MRevokeOk {
        /// Ballot being acknowledged.
        ballot: Ballot,
        /// What the sender knows about each slot it promised.
        reports: Vec<(Slot, SlotReport)>,
    },
    /// Revocation phase 2: propose a value per slot (`None` = skip).
    MRevokeAccept {
        /// Proposal ballot.
        ballot: Ballot,
        /// The proposed value per slot.
        slots: Vec<(Slot, Option<Command>)>,
    },
    /// Revocation phase-2 acknowledgement.
    MRevokeAccepted {
        /// Ballot being acknowledged.
        ballot: Ballot,
        /// The accepted slots.
        slots: Vec<Slot>,
    },
}

impl Message {
    /// Approximate wire size in bytes, used by the simulator's CPU model.
    pub fn size_bytes(&self) -> usize {
        const HEADER: usize = 32;
        const PER_SLOT: usize = 8;
        let value_size = |value: &Option<Command>| -> usize {
            PER_SLOT + value.as_ref().map(|cmd| cmd.payload_size).unwrap_or(0)
        };
        match self {
            Message::MPropose { cmd, .. } | Message::MCommit { cmd, .. } => {
                HEADER + cmd.payload_size
            }
            Message::MProposeAck { .. } => HEADER,
            Message::MSkip { slots } => HEADER + PER_SLOT * slots.len(),
            Message::MRevoke { slots, .. } => HEADER + PER_SLOT * slots.len(),
            Message::MRevokeOk { reports, .. } => {
                HEADER
                    + reports
                        .iter()
                        .map(|(_, report)| match report {
                            SlotReport::Decided(value) | SlotReport::Accepted(_, value) => {
                                value_size(value)
                            }
                            SlotReport::Empty => PER_SLOT,
                        })
                        .sum::<usize>()
            }
            Message::MRevokeAccept { slots, .. } => {
                HEADER
                    + slots
                        .iter()
                        .map(|(_, value)| value_size(value))
                        .sum::<usize>()
            }
            Message::MRevokeAccepted { slots, .. } => HEADER + PER_SLOT * slots.len(),
        }
    }
}

/// Revocation this replica is leading for one slot.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RevState {
    /// The takeover ballot this replica minted for the slot.
    ballot: Ballot,
    /// Phase-1 replies received so far.
    prepare_oks: HashMap<ProcessId, SlotReport>,
    /// The value proposed at `ballot`, memoized once derived — straggling
    /// phase-1 replies re-send it; deriving twice could pick a different
    /// value for the same ballot, which is unsound Paxos.
    proposal: Option<Option<Command>>,
    /// Phase-2 acks received so far.
    accept_oks: HashSet<ProcessId>,
    /// Whether the decision was already announced (suppresses duplicate
    /// commit broadcasts from straggling phase-2 acks).
    done: bool,
}

impl RevState {
    fn new(ballot: Ballot) -> Self {
        Self {
            ballot,
            prepare_oks: HashMap::new(),
            proposal: None,
            accept_oks: HashSet::new(),
            done: false,
        }
    }
}

/// A Mencius replica.
#[derive(Debug, Serialize, Deserialize)]
pub struct Mencius {
    /// Identity, view (advanced by [`Protocol::reconfigure`] at barrier
    /// execution), metrics, and the highest slot seen per owning process.
    base: Base,
    /// Ownership rings, ordered by `start`. Never empty.
    rings: Vec<RingSeg>,
    /// Commands gated behind the proposal window (see [`RECONFIG_ALPHA`]):
    /// proposed in arrival order as the executed frontier advances.
    pending: Vec<Command>,
    /// Next owned slot this replica will assign to a command (`Slot::MAX`
    /// when it owns none — a joiner before its cut, or a replica on its
    /// way out of the configuration).
    next_owned: Slot,
    /// Proposals this replica is waiting to have acknowledged: slot →
    /// (command, acks received).
    proposals: HashMap<Slot, (Command, HashSet<ProcessId>)>,
    /// Decided slots (committed commands and skips).
    decided: BTreeMap<Slot, Option<Command>>,
    /// Next slot to execute.
    execute_next: Slot,
    /// Commit times per slot, for commit→execute metrics.
    commit_times: HashMap<Slot, Time>,
    /// Compaction floor: slots at or below it executed at **every** replica
    /// and were dropped from `decided` by [`Protocol::gc_executed`];
    /// messages about them are stragglers and are ignored.
    gc_floor: Slot,
    /// Acceptor: highest revocation ballot promised per slot (absent = 0,
    /// the owner's implicit ballot).
    promised: HashMap<Slot, Ballot>,
    /// Acceptor: accepted (ballot, value) per undecided slot. The owner's
    /// acknowledged proposal is recorded as accepted at ballot 0 — that
    /// record is what lets a revocation preserve a partially propagated
    /// command instead of skipping it.
    accepted: HashMap<Slot, (Ballot, Option<Command>)>,
    /// Processes this replica believes have failed. Never unlearned (like
    /// FPaxos's suspected set): a once-suspected replica's acks are simply
    /// no longer waited for, which stays safe — commits keep their
    /// majority floor — at the cost of occasionally revoking a slot the
    /// returned replica re-proposes elsewhere.
    suspected: HashSet<ProcessId>,
    /// Revocations this replica is leading, by slot (ordered, so batches
    /// and replay are deterministic).
    revoking: BTreeMap<Slot, RevState>,
    /// Per suspected owner, the highest owned slot already examined by
    /// [`Mencius::revoke_suspected_below`]; the scan resumes past it, so
    /// repeated calls stay linear overall.
    revoke_scan: HashMap<ProcessId, Slot>,
}

impl Mencius {
    /// The ring governing `slot`.
    fn ring_of_slot(&self, slot: Slot) -> &RingSeg {
        self.rings
            .iter()
            .rev()
            .find(|seg| seg.start <= slot)
            .unwrap_or(&self.rings[0])
    }

    /// The owner of `slot` under its ring.
    fn owner(&self, slot: Slot) -> ProcessId {
        let seg = self.ring_of_slot(slot);
        seg.members[(slot.saturating_sub(seg.start) % seg.members.len() as Slot) as usize]
    }

    /// The first slot strictly above `after` owned by this replica, or
    /// `Slot::MAX` when it owns none from there on.
    fn next_owned_after(&self, after: Slot) -> Slot {
        for (i, seg) in self.rings.iter().enumerate() {
            let end = self.rings.get(i + 1).map(|next| next.start);
            let lo = (after + 1).max(seg.start);
            if end.is_some_and(|end| lo >= end) {
                continue;
            }
            let Some(pos) = seg.members.iter().position(|&p| p == self.base.id()) else {
                continue;
            };
            let len = seg.members.len() as Slot;
            let offset = (lo - seg.start) % len;
            let pos = pos as Slot;
            let slot = if offset <= pos {
                lo + (pos - offset)
            } else {
                lo + (len - offset) + pos
            };
            match end {
                Some(end) if slot >= end => continue,
                _ => return slot,
            }
        }
        Slot::MAX
    }

    /// Records that `slot` exists (for the GC-surviving seen horizon).
    fn note_slot(&mut self, slot: Slot) {
        let owner = self.owner(slot);
        self.base.note_seen(owner, slot);
    }

    /// First owned slot of this replica (`Slot::MAX` when it owns none).
    fn first_owned(&self) -> Slot {
        self.next_owned_after(0)
    }

    /// Whether this replica may open a proposal in its next owned slot:
    /// the slot must lie within [`RECONFIG_ALPHA`] slots of the contiguous
    /// executed frontier (see the constant's docs for why this bound is
    /// load-bearing for reconfiguration).
    fn gate_open(&self) -> bool {
        self.next_owned != Slot::MAX && self.next_owned < self.execute_next + RECONFIG_ALPHA
    }

    /// Proposes `cmd` in the next owned slot, or parks it in `pending`
    /// while the proposal window is closed.
    fn enqueue_proposal(&mut self, cmd: Command) -> Vec<Action<Message>> {
        if self.gate_open() {
            self.propose_in_next_slot(cmd)
        } else {
            self.pending.push(cmd);
            Vec::new()
        }
    }

    /// Proposes parked commands for as long as the window allows.
    fn drain_pending(&mut self) -> Vec<Action<Message>> {
        let mut actions = Vec::new();
        while !self.pending.is_empty() && self.gate_open() {
            let cmd = self.pending.remove(0);
            actions.extend(self.propose_in_next_slot(cmd));
        }
        actions
    }

    /// Whether a proposal with this ack set may commit: every non-suspected
    /// member acknowledged it, and the acks reach a majority of the slot's
    /// ring. The ring-majority floor is load-bearing for revocation safety —
    /// a revocation that chooses *skip* proves a ring majority promised
    /// before seeing the proposal, and those replicas never acknowledge it.
    fn proposal_ready(&self, slot: Slot, acks: &HashSet<ProcessId>) -> bool {
        let seg = self.ring_of_slot(slot);
        let in_ring = acks.iter().filter(|p| seg.members.contains(p)).count();
        in_ring > seg.members.len() / 2
            && self
                .base
                .view()
                .all_members()
                .iter()
                .filter(|p| !self.suspected.contains(p))
                .all(|p| acks.contains(p))
    }

    /// Skips every owned slot smaller than `up_to` that has not been used,
    /// returning the actions that announce the skips.
    fn skip_owned_below(&mut self, up_to: Slot) -> Vec<Action<Message>> {
        let mut skipped = Vec::new();
        while self.next_owned < up_to {
            skipped.push(self.next_owned);
            self.note_slot(self.next_owned);
            self.next_owned = self.next_owned_after(self.next_owned);
        }
        if skipped.is_empty() {
            Vec::new()
        } else {
            vec![Action::send(
                self.base.everyone(),
                Message::MSkip { slots: skipped },
            )]
        }
    }

    /// Executes decided slots in order, stopping at the first undecided slot.
    fn try_execute(&mut self, time: Time) -> Vec<Action<Message>> {
        let mut actions = Vec::new();
        loop {
            let slot = self.execute_next;
            let Some(entry) = self.decided.get(&slot).cloned() else {
                // Self-healing: execution blocked on one of our *own* slots
                // that we already passed over without a pending proposal —
                // i.e. a slot we skipped whose announcement was lost before
                // reaching anyone (including our own decided map, if the
                // produced actions never performed). Only a skip can have
                // been chosen for it (we never proposed a command there, so
                // no acceptor holds one), so re-deciding and re-announcing
                // it is safe and unsticks the log.
                if self.owner(slot) == self.base.id()
                    && slot < self.next_owned
                    && !self.proposals.contains_key(&slot)
                {
                    self.decided.insert(slot, None);
                    self.slot_decided_cleanup(slot);
                    actions.push(Action::send(
                        self.base.everyone(),
                        Message::MSkip { slots: vec![slot] },
                    ));
                    continue;
                }
                break;
            };
            self.execute_next += 1;
            if let Some(cmd) = entry {
                let committed_at = self.commit_times.remove(&slot);
                self.base.metrics.record_execution(committed_at, time);
                if !cmd.is_noop() {
                    let dot = Dot::new(self.owner(slot), slot);
                    actions.push(Action::Execute { dot, cmd });
                }
            }
        }
        // The frontier may have advanced, re-opening the proposal window.
        let drained = self.drain_pending();
        actions.extend(drained);
        actions
    }

    /// Assigns the next owned slot to `cmd` and broadcasts the proposal.
    fn propose_in_next_slot(&mut self, cmd: Command) -> Vec<Action<Message>> {
        let slot = self.next_owned;
        self.next_owned = self.next_owned_after(slot);
        self.note_slot(slot);
        self.proposals.insert(slot, (cmd.clone(), HashSet::new()));
        vec![Action::send(
            self.base.everyone(),
            Message::MPropose { slot, cmd },
        )]
    }

    /// Drops the per-slot consensus bookkeeping of a decided slot.
    fn slot_decided_cleanup(&mut self, slot: Slot) {
        self.promised.remove(&slot);
        self.accepted.remove(&slot);
        self.revoking.remove(&slot);
    }

    /// Announces a chosen decision for `slot` with the ordinary decision
    /// messages (this replica learns it through its own broadcast).
    fn announce_decision(&mut self, slot: Slot, value: Option<Command>) -> Vec<Action<Message>> {
        let all = self.base.everyone();
        match value {
            Some(cmd) => vec![Action::send(all, Message::MCommit { slot, cmd })],
            None => vec![Action::send(all, Message::MSkip { slots: vec![slot] })],
        }
    }

    /// Opens (and optionally re-drives) revocations for every undecided
    /// slot of every suspected owner up to the highest slot this replica
    /// has observed. With `resend_all` (the suspicion re-dispatch path),
    /// in-flight revocations re-send their prepare at the *same* ballot —
    /// recovering lost messages without opening a second ballot per slot —
    /// unless a competing revoker has out-promised it, in which case a
    /// fresh higher ballot is minted (mirroring EPaxos's `prepare`):
    /// without that, a superseding revoker that dies mid-takeover would
    /// leave the slot blocked forever behind its promise.
    fn revoke_suspected_below(&mut self, resend_all: bool) -> Vec<Action<Message>> {
        if self.suspected.is_empty() {
            return Vec::new();
        }
        // The highest slot observed from any owner.
        let spaces = self.base.spaces().into_iter();
        let frontier = spaces.map(|p| self.base.seen_horizon(p)).max().unwrap_or(0);
        let mut fresh: Vec<Slot> = Vec::new();
        let mut owners: Vec<ProcessId> = self.suspected.iter().copied().collect();
        owners.sort_unstable();
        // Every slot below `execute_next` is decided (execution is in
        // order) and everything at or below the GC floor is long gone, so
        // the scan never needs to revisit them — without this floor, the
        // first suspicion of an owner would walk its entire executed
        // history inside a message handler.
        let floor = self.gc_floor.max(self.execute_next.saturating_sub(1));
        for owner in owners {
            if owner == self.base.id() {
                continue;
            }
            let base = floor.max(self.revoke_scan.get(&owner).copied().unwrap_or(0));
            // Walk the (few) slots revealed since the last scan; ownership
            // must consult the per-slot ring, so the walk is per-slot
            // rather than arithmetic.
            for slot in (base + 1)..=frontier {
                if self.owner(slot) != owner {
                    continue;
                }
                if !self.decided.contains_key(&slot) && !self.revoking.contains_key(&slot) {
                    let promised = self.promised.get(&slot).copied().unwrap_or(0);
                    let ballot = takeover_ballot_in(self.base.view(), self.base.id(), promised);
                    self.revoking.insert(slot, RevState::new(ballot));
                    self.base.metrics.recoveries += 1;
                    fresh.push(slot);
                }
            }
            let high = self.revoke_scan.entry(owner).or_insert(0);
            *high = (*high).max(frontier);
        }
        // Batch one MRevoke per ballot (per revoker they only differ when
        // slots carry different promised ballots).
        let mut batches: BTreeMap<Ballot, Vec<Slot>> = BTreeMap::new();
        let in_flight: Vec<Slot> = self.revoking.keys().copied().collect();
        for slot in in_flight {
            let promised = self.promised.get(&slot).copied().unwrap_or(0);
            let rev = self.revoking.get_mut(&slot).expect("in-flight revocation");
            if rev.done {
                continue;
            }
            if resend_all && promised > rev.ballot {
                // Out-promised by a competing revoker. Its takeover decides
                // the slot in the common case — but if it died, re-sending
                // our stale ballot would be refused forever. Mint above the
                // promise; idempotence holds, since while our ballot *is*
                // the current one we only ever re-send it.
                let ballot = takeover_ballot_in(self.base.view(), self.base.id(), promised);
                *rev = RevState::new(ballot);
                self.base.metrics.recoveries += 1;
                batches.entry(ballot).or_default().push(slot);
            } else if resend_all || fresh.contains(&slot) {
                batches.entry(rev.ballot).or_default().push(slot);
            }
        }
        let all = self.base.everyone();
        batches
            .into_iter()
            .map(|(ballot, slots)| Action::send(all.clone(), Message::MRevoke { slots, ballot }))
            .collect()
    }

    fn handle_propose(
        &mut self,
        from: ProcessId,
        slot: Slot,
        cmd: Command,
    ) -> Vec<Action<Message>> {
        if self.owner(slot) != from {
            // Minted under a different ring layout than ours (a straggler
            // proposal from before a reconfiguration cut): refuse it.
            return Vec::new();
        }
        if slot <= self.gc_floor {
            // A straggling duplicate of a proposal that executed at every
            // replica before being garbage-collected here.
            return Vec::new();
        }
        self.note_slot(slot);
        // Seeing a proposal for `slot` means every smaller owned slot of ours
        // that is still unused will never be needed before it: skip them so
        // the log has no gaps — and if the frontier just advanced past
        // undecided slots of a suspected owner, revoke those holes too.
        let mut actions = self.skip_owned_below(slot);
        actions.extend(self.revoke_suspected_below(false));
        match self.decided.get(&slot) {
            Some(Some(decided)) => {
                // Already decided (e.g. a revocation preserved the command
                // while the owner's journal replay re-sends the proposal):
                // tell the owner the outcome instead of acknowledging.
                let decided = decided.clone();
                actions.push(Action::send(
                    [from],
                    Message::MCommit { slot, cmd: decided },
                ));
                return actions;
            }
            Some(None) => {
                // Revoked to a skip; the owner re-proposes elsewhere.
                actions.push(Action::send([from], Message::MSkip { slots: vec![slot] }));
                return actions;
            }
            None => {}
        }
        if self.promised.get(&slot).copied().unwrap_or(0) > 0 {
            // A revocation ballot was promised for this slot: the owner's
            // implicit ballot 0 can no longer be accepted here.
            return actions;
        }
        // Record the proposal as accepted at ballot 0 — this is what a
        // revocation's phase 1 discovers, letting it preserve the command.
        self.accepted.insert(slot, (0, Some(cmd)));
        actions.push(Action::send([from], Message::MProposeAck { slot }));
        actions
    }

    fn handle_propose_ack(
        &mut self,
        from: ProcessId,
        slot: Slot,
        time: Time,
    ) -> Vec<Action<Message>> {
        let ready = {
            let Some((_, acks)) = self.proposals.get_mut(&slot) else {
                return Vec::new();
            };
            acks.insert(from);
            let acks = &self.proposals[&slot].1;
            self.proposal_ready(slot, acks)
        };
        if !ready {
            return Vec::new();
        }
        self.base.metrics.fast_paths += 1;
        let mut actions = self.commit_own_proposal(slot, time);
        actions.extend(self.try_execute(time));
        actions
    }

    /// Commits one of this replica's own acknowledged proposals: decide
    /// locally *first* (the self-addressed `MCommit` below would arrive
    /// only after this handler returns, and the slot must not look
    /// undecided in between), then announce.
    fn commit_own_proposal(&mut self, slot: Slot, time: Time) -> Vec<Action<Message>> {
        let (cmd, _) = self.proposals.remove(&slot).expect("proposal exists");
        let mut actions = self.decide(slot, cmd.clone(), time);
        actions.push(Action::send(
            self.base.everyone(),
            Message::MCommit { slot, cmd },
        ));
        actions
    }

    /// Records `cmd` as the decision of `slot` and reports the commit.
    fn decide(&mut self, slot: Slot, cmd: Command, time: Time) -> Vec<Action<Message>> {
        let mut actions = Vec::new();
        if !cmd.is_noop() {
            let dot = Dot::new(self.owner(slot), slot);
            actions.push(Action::Commit { dot });
        }
        self.decided.insert(slot, Some(cmd));
        self.slot_decided_cleanup(slot);
        self.base.metrics.commits += 1;
        self.commit_times.insert(slot, time);
        actions
    }

    fn handle_skip(&mut self, slots: Vec<Slot>, time: Time) -> Vec<Action<Message>> {
        let mut actions = Vec::new();
        for slot in slots {
            if slot <= self.gc_floor {
                continue; // executed everywhere, collected here
            }
            self.note_slot(slot);
            if self.decided.contains_key(&slot) {
                continue;
            }
            self.decided.insert(slot, None);
            self.slot_decided_cleanup(slot);
            if let Some((cmd, _)) = self.proposals.remove(&slot) {
                // One of our own in-flight proposals was revoked to a skip:
                // the command is provably not chosen at `slot` (the skip
                // is), so re-propose it in a fresh slot — delayed, never
                // lost or duplicated.
                actions.extend(self.enqueue_proposal(cmd));
            }
        }
        actions.extend(self.try_execute(time));
        actions
    }

    fn handle_commit(&mut self, slot: Slot, cmd: Command, time: Time) -> Vec<Action<Message>> {
        if self.decided.contains_key(&slot) || slot <= self.gc_floor {
            return Vec::new();
        }
        self.note_slot(slot);
        let mut actions = self.decide(slot, cmd, time);
        // A revocation may decide one of our own slots with our command
        // (it was acknowledged somewhere before the suspicion); the
        // proposal is satisfied, the client is answered at execution —
        // but it took a revocation to get there, so count it slow.
        if self.proposals.remove(&slot).is_some() {
            self.base.metrics.slow_paths += 1;
        }
        actions.extend(self.try_execute(time));
        actions
    }

    /// Revocation phase 1 at an acceptor: promise the ballot per slot and
    /// report what is known.
    fn handle_revoke(
        &mut self,
        from: ProcessId,
        slots: Vec<Slot>,
        ballot: Ballot,
    ) -> Vec<Action<Message>> {
        let mut reports = Vec::new();
        for slot in slots {
            if slot <= self.gc_floor {
                // Straggler guard: the slot executed at every replica and
                // was collected here; it must not resurrect bookkeeping.
                continue;
            }
            self.note_slot(slot);
            if let Some(entry) = self.decided.get(&slot) {
                reports.push((slot, SlotReport::Decided(entry.clone())));
                continue;
            }
            let promised = self.promised.entry(slot).or_insert(0);
            if *promised > ballot {
                continue; // promised a higher revocation; no report
            }
            *promised = ballot;
            match self.accepted.get(&slot) {
                Some((accepted_ballot, value)) => {
                    reports.push((slot, SlotReport::Accepted(*accepted_ballot, value.clone())));
                }
                None => reports.push((slot, SlotReport::Empty)),
            }
        }
        if reports.is_empty() {
            return Vec::new();
        }
        vec![Action::send([from], Message::MRevokeOk { ballot, reports })]
    }

    /// Revocation phase-1 replies at the revoker: with a majority per slot,
    /// propose the value accepted at the highest ballot (else skip).
    fn handle_revoke_ok(
        &mut self,
        from: ProcessId,
        ballot: Ballot,
        reports: Vec<(Slot, SlotReport)>,
    ) -> Vec<Action<Message>> {
        let mut accept_batch: Vec<(Slot, Option<Command>)> = Vec::new();
        let mut decided_now: Vec<(Slot, Option<Command>)> = Vec::new();
        for (slot, report) in reports {
            if slot <= self.gc_floor {
                continue;
            }
            if let SlotReport::Decided(value) = &report {
                // Already chosen somewhere: adopt the decision as-is.
                decided_now.push((slot, value.clone()));
                continue;
            }
            // Quorums of the per-slot Paxos draw from the slot's ring —
            // the same set the owner's commit majority draws from.
            let ring = self.ring_of_slot(slot).members.clone();
            let Some(rev) = self.revoking.get_mut(&slot) else {
                continue;
            };
            if rev.ballot != ballot || rev.done {
                continue;
            }
            rev.prepare_oks.insert(from, report);
            if let Some(proposal) = &rev.proposal {
                // Memoized: straggling replies only re-send the proposal.
                accept_batch.push((slot, proposal.clone()));
                continue;
            }
            let in_ring = rev.prepare_oks.keys().filter(|p| ring.contains(p)).count();
            if in_ring < ring.len() / 2 + 1 {
                continue;
            }
            let chosen: Option<Command> = rev
                .prepare_oks
                .values()
                .filter_map(|r| match r {
                    SlotReport::Accepted(b, value) => Some((*b, value.clone())),
                    _ => None,
                })
                .max_by_key(|(b, _)| *b)
                .map(|(_, value)| value)
                .unwrap_or(None);
            rev.proposal = Some(chosen.clone());
            accept_batch.push((slot, chosen));
        }
        let mut actions = Vec::new();
        for (slot, value) in decided_now {
            if let Some(rev) = self.revoking.get_mut(&slot) {
                rev.done = true;
            }
            actions.extend(self.announce_decision(slot, value));
        }
        if !accept_batch.is_empty() {
            actions.push(Action::send(
                self.base.everyone(),
                Message::MRevokeAccept {
                    ballot,
                    slots: accept_batch,
                },
            ));
        }
        actions
    }

    /// Revocation phase 2 at an acceptor.
    fn handle_revoke_accept(
        &mut self,
        from: ProcessId,
        ballot: Ballot,
        slots: Vec<(Slot, Option<Command>)>,
    ) -> Vec<Action<Message>> {
        let mut acked = Vec::new();
        for (slot, value) in slots {
            if slot <= self.gc_floor {
                continue;
            }
            self.note_slot(slot);
            if self.decided.contains_key(&slot) {
                continue; // the revoker's decision broadcast covers us
            }
            let promised = self.promised.entry(slot).or_insert(0);
            if *promised > ballot {
                continue;
            }
            *promised = ballot;
            self.accepted.insert(slot, (ballot, value));
            acked.push(slot);
        }
        if acked.is_empty() {
            return Vec::new();
        }
        vec![Action::send(
            [from],
            Message::MRevokeAccepted {
                ballot,
                slots: acked,
            },
        )]
    }

    /// Revocation phase-2 acks at the revoker: a majority decides the slot.
    fn handle_revoke_accepted(
        &mut self,
        from: ProcessId,
        ballot: Ballot,
        slots: Vec<Slot>,
    ) -> Vec<Action<Message>> {
        let mut chosen: Vec<(Slot, Option<Command>)> = Vec::new();
        for slot in slots {
            if slot <= self.gc_floor {
                continue;
            }
            let ring = self.ring_of_slot(slot).members.clone();
            let Some(rev) = self.revoking.get_mut(&slot) else {
                continue;
            };
            if rev.ballot != ballot || rev.done {
                continue;
            }
            let Some(proposal) = rev.proposal.clone() else {
                continue;
            };
            rev.accept_oks.insert(from);
            let in_ring = rev.accept_oks.iter().filter(|p| ring.contains(p)).count();
            if in_ring < ring.len() / 2 + 1 {
                continue;
            }
            rev.done = true;
            chosen.push((slot, proposal));
        }
        let mut actions = Vec::new();
        for (slot, value) in chosen {
            actions.extend(self.announce_decision(slot, value));
        }
        actions
    }
}

impl Protocol for Mencius {
    type Message = Message;

    fn name() -> &'static str {
        "mencius"
    }

    fn new(id: ProcessId, config: Config, topology: Topology) -> Self {
        let base = Base::new(id, config, topology);
        let members = base.view().members.clone();
        let mut mencius = Self {
            base,
            rings: vec![RingSeg {
                epoch: 0,
                start: 1,
                members,
            }],
            pending: Vec::new(),
            next_owned: 0,
            proposals: HashMap::new(),
            decided: BTreeMap::new(),
            execute_next: 1,
            commit_times: HashMap::new(),
            gc_floor: 0,
            promised: HashMap::new(),
            accepted: HashMap::new(),
            suspected: HashSet::new(),
            revoking: BTreeMap::new(),
            revoke_scan: HashMap::new(),
        };
        mencius.next_owned = mencius.first_owned();
        mencius
    }

    fn base(&self) -> &Base {
        &self.base
    }

    fn submit(&mut self, cmd: Command, _time: Time) -> Vec<Action<Message>> {
        let mut actions = self.enqueue_proposal(cmd);
        // The new proposal extends the log past any unused slots of
        // suspected owners; revoke those holes right away so execution
        // does not wait for the next suspicion re-dispatch.
        actions.extend(self.revoke_suspected_below(false));
        actions
    }

    fn message_size(msg: &Message) -> usize {
        msg.size_bytes()
    }

    fn handle(&mut self, from: ProcessId, msg: Message, time: Time) -> Vec<Action<Message>> {
        match msg {
            Message::MPropose { slot, cmd } => self.handle_propose(from, slot, cmd),
            Message::MProposeAck { slot } => self.handle_propose_ack(from, slot, time),
            Message::MSkip { slots } => self.handle_skip(slots, time),
            Message::MCommit { slot, cmd } => self.handle_commit(slot, cmd, time),
            Message::MRevoke { slots, ballot } => self.handle_revoke(from, slots, ballot),
            Message::MRevokeOk { ballot, reports } => self.handle_revoke_ok(from, ballot, reports),
            Message::MRevokeAccept { ballot, slots } => {
                self.handle_revoke_accept(from, ballot, slots)
            }
            Message::MRevokeAccepted { ballot, slots } => {
                self.handle_revoke_accepted(from, ballot, slots)
            }
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
        let state: Mencius = bincode::deserialize(state).ok()?;
        state.base.restores_as(id, config).then_some(state)
    }

    fn committed_log(&self) -> Vec<Message> {
        // One MSkip carrying every skipped slot, then the commits in slot
        // order. `handle_skip`/`handle_commit` are both idempotent inserts,
        // so the receiver's in-order executor replays this from any state.
        let skipped: Vec<Slot> = self
            .decided
            .iter()
            .filter(|(_, entry)| entry.is_none())
            .map(|(&slot, _)| slot)
            .collect();
        let mut log = Vec::new();
        if !skipped.is_empty() {
            log.push(Message::MSkip { slots: skipped });
        }
        log.extend(self.decided.iter().filter_map(|(&slot, entry)| {
            entry.as_ref().map(|cmd| Message::MCommit {
                slot,
                cmd: cmd.clone(),
            })
        }));
        log
    }

    /// Slot revocation (see the crate docs): stop waiting for the
    /// suspected replica's acknowledgements — committing any proposal that
    /// now has every live ack — and run Paxos takeovers that fill its
    /// unused slots with skips (preserving any command an acceptor already
    /// acknowledged). Idempotent under the runtime's repeated suspicion
    /// dispatch — re-dispatch re-sends in-flight prepares at their
    /// existing ballots — and deterministic (state-only), as the
    /// journal-replay contract requires.
    fn suspect(&mut self, suspected: ProcessId, time: Time) -> Vec<Action<Message>> {
        if suspected == self.base.id() {
            return Vec::new();
        }
        self.suspected.insert(suspected);
        let mut actions = Vec::new();
        // Proposals that were only waiting for the suspected replica's ack
        // can commit now (deterministic slot order for journal replay).
        let mut ready: Vec<Slot> = self
            .proposals
            .iter()
            .filter(|(slot, (_, acks))| self.proposal_ready(**slot, acks))
            .map(|(&slot, _)| slot)
            .collect();
        ready.sort_unstable();
        for slot in ready {
            // Slow path: the proposal only commits because the detector
            // shrank the expected ack set — it waited out a failure.
            self.base.metrics.slow_paths += 1;
            actions.extend(self.commit_own_proposal(slot, time));
        }
        actions.extend(self.try_execute(time));
        // Revoke every undecided slot of the suspected owners up to the
        // observed frontier, re-driving in-flight revocations.
        actions.extend(self.revoke_suspected_below(true));
        actions
    }

    /// Installs the epoch's ownership ring (see [`RECONFIG_ALPHA`] and the
    /// crate docs) and re-evaluates in-flight proposals against the new
    /// member set. Runs synchronously right after the `Reconfigure` barrier
    /// executes — every replica executes the barrier at the same slot, so
    /// the derived cut agrees everywhere. Idempotent (older or same epochs
    /// are ignored, an already-known ring is not re-installed) and
    /// deterministic, as the replay contract requires.
    fn reconfigure(&mut self, view: &ClusterView, time: Time) -> Vec<Action<Message>> {
        if !self.base.install_view(view) {
            return Vec::new();
        }
        let members = view.all_members();
        if !self.rings.iter().any(|seg| seg.epoch == view.epoch) {
            let cut = (self.execute_next - 1) + RECONFIG_ALPHA;
            self.rings.push(RingSeg {
                epoch: view.epoch,
                start: cut,
                members: members.clone(),
            });
        }
        // Our next owned slot may have moved: pre-cut slots keep their
        // owners, but a joiner owns nothing before its cut and a removed
        // replica nothing after it.
        if self.next_owned == Slot::MAX || self.owner(self.next_owned) != self.base.id() {
            self.next_owned = self.next_owned_after(self.execute_next.saturating_sub(1));
        }
        if !view.contains(self.base.id()) {
            // On the way out: keep acknowledging until the runtime retires
            // this replica, but never propose again.
            return Vec::new();
        }
        // Members that left stop being waited for (`proposal_ready` draws
        // from the new member set), which may make proposals commit now —
        // the same unstick `suspect` performs.
        let mut actions = Vec::new();
        let mut ready: Vec<Slot> = self
            .proposals
            .iter()
            .filter(|(slot, (_, acks))| self.proposal_ready(**slot, acks))
            .map(|(&slot, _)| slot)
            .collect();
        ready.sort_unstable();
        for slot in ready {
            self.base.metrics.slow_paths += 1;
            actions.extend(self.commit_own_proposal(slot, time));
        }
        actions.extend(self.try_execute(time));
        actions.extend(self.revoke_suspected_below(true));
        actions
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
        let eff = h.min(self.execute_next.saturating_sub(1));
        if eff <= self.gc_floor {
            return 0;
        }
        self.gc_floor = eff;
        let keep = self.decided.split_off(&(eff + 1));
        let dropped = self.decided.len() as u64;
        self.decided = keep;
        self.commit_times.retain(|&slot, _| slot > eff);
        self.promised.retain(|&slot, _| slot > eff);
        self.accepted.retain(|&slot, _| slot > eff);
        let keep = self.revoking.split_off(&(eff + 1));
        self.revoking = keep;
        // Rings whose every governed slot is below the floor are history.
        while self.rings.len() > 1 && self.rings[1].start <= eff + 1 {
            self.rings.remove(0);
        }
        dropped
    }

    fn save_executed(&self) -> Vec<u8> {
        let marker = RingMarker {
            watermark: self.execute_next - 1,
            rings: self.rings.clone(),
            view: self.base.view().clone(),
        };
        bincode::serialize(&marker).expect("markers always encode")
    }

    fn restore_executed(&mut self, marker: &[u8]) -> bool {
        let Ok(marker) = bincode::deserialize::<RingMarker>(marker) else {
            return false;
        };
        if self.execute_next != 1 {
            return false; // only a fresh replica may adopt a peer's base
        }
        // Adopt the donor's rings and view wholesale: the base marker may
        // cover log this replica never saw, and a ring cut inside it is a
        // function of the barrier slot — which only replicas that executed
        // the barrier know.
        self.execute_next = marker.watermark + 1;
        self.gc_floor = marker.watermark;
        self.rings = marker.rings;
        self.base.install_view(&marker.view);
        self.next_owned = self.next_owned_after(marker.watermark);
        // Every slot up to the watermark was seen (it executed); record the
        // last ring's worth so seen horizons stay truthful.
        let span = self
            .rings
            .last()
            .map(|seg| seg.members.len())
            .unwrap_or(self.base.config().n) as Slot;
        let base = marker
            .watermark
            .saturating_sub(span.saturating_sub(1))
            .max(1);
        for slot in base..=marker.watermark {
            self.note_slot(slot);
        }
        true
    }

    fn tracked_entries(&self) -> usize {
        self.decided.len() + self.proposals.len()
    }

    fn advance_identifiers(&mut self, past: u64) {
        if self.next_owned != Slot::MAX && self.next_owned <= past {
            self.next_owned = self.next_owned_after(past);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_core::Rifl;
    use atlas_protocol::chaos::{sweep, ChaosNet};

    fn cluster(n: usize) -> ChaosNet<Mencius> {
        ChaosNet::fifo(Config::new(n, 1))
    }

    fn put(client: u64, seq: u64, key: u64) -> Command {
        Command::put(Rifl::new(client, seq), key, client, 100)
    }

    #[test]
    fn slot_ownership_is_round_robin() {
        let m = Mencius::new(2, Config::new(5, 1), Topology::identity(2, 5));
        assert_eq!(m.first_owned(), 2);
        assert_eq!(m.owner(1), 1);
        assert_eq!(m.owner(2), 2);
        assert_eq!(m.owner(5), 5);
        assert_eq!(m.owner(6), 1);
        assert_eq!(m.owner(7), 2);
    }

    #[test]
    fn single_command_executes_everywhere() {
        let mut cluster = cluster(3);
        cluster.submit(2, put(2, 1, 0));
        for id in 1..=3u32 {
            assert_eq!(cluster.rifls_at(id).len(), 1, "process {id}");
        }
    }

    #[test]
    fn skips_keep_logs_gap_free() {
        // A command from replica 3 lands in slot 3; replicas 1 and 2 must
        // skip their unused slots 1 and 2 so execution can proceed.
        let mut cluster = cluster(3);
        cluster.submit(3, put(3, 1, 0));
        for id in 1..=3u32 {
            assert_eq!(cluster.rifls_at(id).len(), 1);
        }
        // Replica 1's own next command lands in a slot after 3.
        cluster.submit(1, put(1, 1, 0));
        for id in 1..=3u32 {
            assert_eq!(cluster.rifls_at(id).len(), 2);
        }
    }

    #[test]
    fn commands_execute_in_same_order_everywhere() {
        let mut cluster = cluster(5);
        for seq in 1..=4u64 {
            for source in 1..=5u32 {
                cluster.submit(source, put(source as u64, seq, 0));
            }
        }
        let reference = cluster.rifls_at(1);
        assert_eq!(reference.len(), 20);
        for id in 2..=5u32 {
            let order = cluster.rifls_at(id);
            assert_eq!(order, reference, "process {id}");
        }
    }

    #[test]
    fn interleaved_submissions_preserve_slot_order() {
        let mut cluster = cluster(3);
        cluster.submit(1, put(1, 1, 0));
        cluster.submit(3, put(3, 1, 0));
        cluster.submit(2, put(2, 1, 0));
        cluster.submit(1, put(1, 2, 0));
        let reference = cluster.rifls_at(1);
        assert_eq!(reference.len(), 4);
        for id in 2..=3u32 {
            let order = cluster.rifls_at(id);
            assert_eq!(order, reference);
        }
    }

    #[test]
    fn metrics_count_commits_and_executions() {
        let mut cluster = cluster(3);
        cluster.submit(1, put(1, 1, 0));
        cluster.submit(2, put(2, 1, 0));
        let m = cluster.replicas[0].metrics();
        assert_eq!(m.commits, 2);
        assert_eq!(m.executions, 2);
    }

    #[test]
    fn dead_owner_slots_are_revoked_and_log_executes_past_the_hole() {
        // Replica 3's proposal reaches nobody and 3 dies. Survivors 1 and 2
        // suspect it; their later commands must commit without 3's acks,
        // and 3's unused slots must be revoked to skips so execution
        // proceeds past the holes.
        let mut cluster = cluster(3);
        cluster.submit_reaching(3, put(3, 1, 0), &[]);
        cluster.crash(3);
        cluster.suspect(1, 3);
        cluster.suspect(2, 3);
        cluster.submit(1, put(1, 1, 0));
        cluster.submit(2, put(2, 1, 0));
        // This proposal lands in slot 4, past the dead owner's unused slot
        // 3 — committing it is only half the story, *executing* it needs
        // the hole revoked.
        cluster.submit(1, put(1, 2, 0));
        for id in 1..=2u32 {
            let executed = cluster.rifls_at(id);
            assert_eq!(
                executed,
                vec![Rifl::new(1, 1), Rifl::new(2, 1), Rifl::new(1, 2)],
                "replica {id} stalled or diverged"
            );
        }
        // The dead owner's slot 3 was decided as a skip at the survivors.
        assert_eq!(cluster.replicas[0].decided.get(&3), Some(&None));
        assert_eq!(cluster.replicas[1].decided.get(&3), Some(&None));
    }

    #[test]
    fn revocation_preserves_a_partially_acknowledged_command() {
        // Replica 3's proposal reached replica 1 (which acknowledged it,
        // recording it as accepted at ballot 0) before 3 died. Revocation
        // must discover and preserve the command, not skip it.
        let mut cluster = cluster(3);
        let cmd = put(3, 1, 0);
        cluster.submit_reaching(3, cmd.clone(), &[1]);
        cluster.crash(3);
        cluster.suspect(1, 3);
        cluster.suspect(2, 3);
        // Replica 1 skipped its slot 1 on seeing the stranded proposal for
        // slot 3, so its own writes land in slots 4 and 7 — both *after*
        // the recovered slot, forcing the hole to resolve first.
        cluster.submit(1, put(1, 1, 0));
        cluster.submit(1, put(1, 2, 0));
        for id in 1..=2u32 {
            let executed = cluster.rifls_at(id);
            assert_eq!(
                executed,
                vec![cmd.rifl, Rifl::new(1, 1), Rifl::new(1, 2)],
                "replica {id}: the acknowledged command was lost"
            );
        }
        assert_eq!(
            cluster.replicas[0]
                .decided
                .get(&3)
                .unwrap()
                .as_ref()
                .map(|c| c.rifl),
            Some(cmd.rifl),
            "slot 3 must carry the preserved command"
        );
    }

    #[test]
    fn suspect_redispatch_reuses_the_revocation_ballot() {
        // n = 5, majority 3: with only two replicas reachable, the
        // revocation stalls mid-prepare. A re-dispatched suspicion must
        // re-send the same ballot, not open a second one per slot.
        let mut cluster = cluster(5);
        cluster.submit_reaching(3, put(3, 1, 0), &[]);
        cluster.crash(3);
        cluster.crash(4);
        cluster.crash(5);
        // Replica 1's own proposals (slots 1 and 6) push the observed
        // frontier past the dead owner's slot 3.
        cluster.submit(1, put(1, 1, 0));
        cluster.submit(1, put(1, 2, 0));
        cluster.suspect(1, 3);
        let first = cluster.replicas[0].revoking.get(&3).expect("revoking 3");
        let first_ballot = first.ballot;
        assert_eq!(cluster.replicas[0].metrics().recoveries, 1);
        cluster.suspect(1, 3);
        let rev = cluster.replicas[0].revoking.get(&3).unwrap();
        assert_eq!(rev.ballot, first_ballot, "re-dispatch opened a new ballot");
        assert_eq!(
            cluster.replicas[0].metrics().recoveries,
            1,
            "a re-sent prepare is not a new recovery"
        );
        // Once a third replica is reachable, the re-sent prepare at the
        // same ballot completes the revocation.
        cluster.crashed.remove(&4);
        cluster.suspect(1, 3);
        assert_eq!(cluster.replicas[0].decided.get(&3), Some(&None));
    }

    #[test]
    fn outpromised_revocation_is_reminted_on_redispatch() {
        // A competing revoker's higher ballot supersedes ours. If that
        // revoker dies too, re-dispatch must mint a fresh ballot above the
        // promise instead of re-sending the refused one forever.
        let mut cluster = cluster(5);
        cluster.submit_reaching(3, put(3, 1, 0), &[]);
        cluster.crash(3);
        cluster.crash(4);
        cluster.crash(5);
        cluster.submit(1, put(1, 1, 0));
        cluster.submit(1, put(1, 2, 0)); // frontier past slot 3
        cluster.suspect(1, 3);
        let ours = cluster.replicas[0].revoking.get(&3).unwrap().ballot;
        // A (now-dead) competitor out-promises replica 1 for slot 3.
        let competitor = ours + 4; // a ballot owned by replica 5
        let _ = cluster.replica(1).handle(
            5,
            Message::MRevoke {
                slots: vec![3],
                ballot: competitor,
            },
            0,
        );
        cluster.suspect(1, 3);
        let rev = cluster.replicas[0].revoking.get(&3).unwrap();
        assert!(
            rev.ballot > competitor,
            "re-dispatch must out-ballot the dead competitor ({} <= {competitor})",
            rev.ballot
        );
    }

    #[test]
    fn stale_revocation_messages_below_the_gc_floor_are_ignored() {
        // Regression: a revocation message for a slot that executed at
        // every replica and was garbage-collected must be ignored — not
        // panic, and not resurrect per-slot bookkeeping.
        let mut cluster = cluster(3);
        for seq in 1..=3u64 {
            cluster.submit(1, put(1, seq, 0));
        }
        let replica = cluster.replica(2);
        let horizon = replica.executed_watermarks();
        assert!(replica.gc_executed(&horizon) > 0);
        let floor = replica.gc_floor;
        assert!(floor >= 1);
        let tracked = replica.tracked_entries();
        let out = replica.handle(
            3,
            Message::MRevoke {
                slots: vec![1],
                ballot: 99,
            },
            0,
        );
        assert!(out.is_empty(), "stale revoke must be dropped");
        let out = replica.handle(
            3,
            Message::MRevokeAccept {
                ballot: 99,
                slots: vec![(1, None)],
            },
            0,
        );
        assert!(out.is_empty(), "stale revoke-accept must be dropped");
        assert!(replica.promised.is_empty() && replica.accepted.is_empty());
        assert_eq!(replica.tracked_entries(), tracked);
    }

    #[test]
    fn own_revoked_proposal_is_reproposed_in_a_fresh_slot() {
        // A falsely suspected replica whose slot was revoked to a skip
        // re-proposes the command in a fresh slot: delayed, never lost.
        let mut cluster = cluster(3);
        let cmd = put(3, 1, 0);
        // Replica 3 proposes into slot 3, but nobody hears it.
        cluster.submit_reaching(3, cmd.clone(), &[]);
        // Survivors revoke slot 3 (3 is falsely suspected — still alive).
        cluster.suspect(1, 3);
        cluster.suspect(2, 3);
        cluster.submit(1, put(1, 1, 0));
        // Replica 3 learns its slot was skipped and re-proposes.
        let skip = Message::MSkip { slots: vec![3] };
        let actions = cluster.replica(3).handle(1, skip, 0);
        assert!(
            actions.iter().any(|a| matches!(
                a,
                Action::Send {
                    msg: Message::MPropose { slot, .. },
                    ..
                } if *slot > 3
            )),
            "the revoked command was not re-proposed"
        );
        assert!(!cluster.replica(3).proposals.contains_key(&3));
    }

    /// Mencius revocation under realistic schedules: proposals stranded at
    /// random reach, the owner crashed, and the survivors' concurrent
    /// revocations delivered with random reordering and duplication —
    /// across many seeds every survivor must decide every slot the same
    /// way and execute identically.
    #[test]
    fn revocation_converges_under_reordering_and_duplication() {
        sweep(
            "mencius-revocation-convergence",
            0x3E9C1,
            0..25,
            revocation_chaos_at,
        );
    }

    /// One exact schedule from the sweep above, pinned in-tree so a chaos
    /// regression reproduces without re-sweeping.
    #[test]
    fn revocation_converges_at_pinned_seed() {
        revocation_chaos_at(0x3E9C1 + 13);
    }

    /// The per-seed body of the Mencius revocation chaos sweep.
    fn revocation_chaos_at(seed: u64) {
        use rand::Rng;
        {
            let mut net = ChaosNet::<Mencius>::new(5, 2, seed);
            // A few commands from owner 1, each reaching a random subset of
            // the other replicas, then owner 1 crashes.
            let stranded = net.rng().gen_range(1..=3u64);
            for seq in 1..=stranded {
                let reach: Vec<ProcessId> = [2u32, 3, 4, 5]
                    .into_iter()
                    .filter(|_| net.rng().gen_bool(0.5))
                    .collect();
                net.submit_reaching(1, put(1, seq, 0), &reach);
            }
            net.crash(1);
            // A fully propagated command from a survivor... which cannot
            // commit yet (it needs the dead owner's ack), making the
            // suspicion below load-bearing for it too.
            net.submit(2, put(2, 1, 0));

            for _pass in 0..2 {
                let mut suspecters = vec![2u32, 3, 4, 5];
                while !suspecters.is_empty() {
                    let idx = net.rng().gen_range(0..suspecters.len());
                    let at = suspecters.swap_remove(idx);
                    net.suspect(at, 1);
                }
            }

            // Every survivor decided the same prefix and executed the same
            // commands in the same order; survivor 2's command made it.
            let reference = net.executed_at(2);
            assert!(
                !reference.is_empty(),
                "seed {seed}: survivor 2 executed nothing"
            );
            for id in [3u32, 4, 5] {
                assert_eq!(
                    net.executed_at(id),
                    reference,
                    "seed {seed}: execution diverges at {id}"
                );
            }
            // Slot-level agreement among survivors on every decided slot.
            let mut by_slot: HashMap<Slot, Option<Rifl>> = HashMap::new();
            for replica in &net.replicas[1..] {
                for (&slot, entry) in &replica.decided {
                    let rifl = entry.as_ref().map(|cmd| cmd.rifl);
                    let agreed = by_slot.entry(slot).or_insert(rifl);
                    assert_eq!(
                        *agreed, rifl,
                        "seed {seed}: slot {slot} decided differently"
                    );
                }
            }
        }
    }

    #[test]
    fn reconfigure_installs_a_ring_at_the_cut() {
        let config = Config::new(3, 1);
        let mut m = Mencius::new(1, config, Topology::identity(1, 3));
        let joint = ClusterView::initial(config).enter(&[1, 2, 4], 1).unwrap();
        let actions = m.reconfigure(&joint, 0);
        assert!(actions.is_empty());
        assert_eq!(m.epoch(), 1);
        // Pre-cut slots keep the old round-robin layout...
        assert_eq!(m.owner(2), 2);
        assert_eq!(m.owner(3), 3);
        // ...post-cut slots follow the joint ring {1, 2, 3, 4}.
        let cut = RECONFIG_ALPHA; // execute_next was 1 → barrier slot 0
        assert_eq!(m.owner(cut), 1);
        assert_eq!(m.owner(cut + 3), 4);
        // Re-applying the same view is a no-op.
        assert!(m.reconfigure(&joint, 0).is_empty());
        assert_eq!(m.rings.len(), 2);
    }

    #[test]
    fn joiner_owns_slots_only_after_its_cut() {
        // A joiner boots knowing the incumbent members; it owns nothing
        // until a reconfiguration ring includes it.
        let config = Config::new(3, 1);
        let mut m = Mencius::new(4, config, Topology::from_members(4, &[1, 2, 3]));
        assert_eq!(m.next_owned, Slot::MAX);
        let parked = m.submit(put(4, 1, 0), 0);
        assert!(parked.is_empty(), "a joiner must not propose");
        assert_eq!(m.pending.len(), 1);
        let joint = ClusterView::initial(config)
            .enter(&[1, 2, 3, 4], 1)
            .unwrap();
        let _ = m.reconfigure(&joint, 0);
        // Its first owned slot is in the new ring, past the cut — still
        // outside the proposal window while the frontier sits at slot 1.
        let cut = RECONFIG_ALPHA;
        assert_eq!(m.owner(cut + 3), 4);
        assert!(!m.pending.is_empty());
        // Incumbent traffic advances the executed frontier, re-opening the
        // window: the parked command is proposed into the joiner's slot.
        let skips: Vec<Slot> = (1..=10).collect();
        let actions = m.handle(1, Message::MSkip { slots: skips }, 0);
        assert!(m.pending.is_empty());
        assert!(m.proposals.contains_key(&(cut + 3)));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Message::MPropose { slot, .. },
                ..
            } if *slot == cut + 3
        )));
    }

    #[test]
    fn proposal_window_gates_far_ahead_submissions() {
        // With no acks flowing, the executed frontier stays put and the
        // proposal window (RECONFIG_ALPHA slots past it) eventually closes.
        let mut m = Mencius::new(1, Config::new(3, 1), Topology::identity(1, 3));
        for seq in 1..=40u64 {
            let _ = m.submit(put(1, seq, 0), 0);
        }
        assert!(
            !m.pending.is_empty(),
            "submissions past the window must park"
        );
        assert!(m.next_owned < 1 + RECONFIG_ALPHA + 3);
    }
}
