//! Takeover recovery of the dependency-commit engine (Algorithm 2 of the
//! paper), plus the ballot machinery shared by every takeover-style recovery
//! in this workspace.
//!
//! When the initial coordinator of a command leaves a replica's distance
//! order — late or suspected — the replica takes over every command of it
//! that can block execution there, by running an analogue of Paxos phase 1
//! with a ballot it owns (see [`takeover_ballot_in`]). From a recovery
//! quorum of replies it either:
//!
//! 1. adopts the consensus proposal accepted at the highest ballot, if any;
//! 2. reconstructs the (possible) fast-path proposal from what the
//!    fast-quorum members report — the one step that is the
//!    [`CommitRule`]'s — when some reply shows the fast quorum; or
//! 3. proposes a `noOp` if no replica ever saw the command.
//!
//! The chosen proposal then goes through the regular consensus phase 2
//! (`MConsensus` / `MConsensusAck`) before being committed.
//!
//! Process-owned takeover ballots are exported: Mencius slot revocation
//! mints its ballots the same way.

use crate::messages::{Ballot, Message};
use crate::protocol::{file, senders, track, Phase, Proposer, State};
use crate::rule::CommitRule;
use atlas_core::{Action, ClusterView, Command, DepSet, Dot, ProcessId};
use serde::{Deserialize, Serialize};

/// The smallest ballot owned by `id` under `view` that is strictly greater
/// than `seen`, the member count (at epoch 0 ballot `i ≤ n` is reserved for
/// initial coordinator `i`, so a takeover ballot is recognizably one) and
/// the view's [`ballot floor`](ClusterView::ballot_floor) — the **ballot
/// hygiene** contract of [`Protocol`](atlas_core::Protocol). Ownership is the position
/// in the view's member list (old and new members during the joint window),
/// so ballots of different members never collide and identifiers may be
/// non-contiguous; the epoch floor keeps ballots minted under different
/// member counts apart (the owner arithmetic is modular in the count).
pub fn takeover_ballot_in(view: &ClusterView, id: ProcessId, seen: Ballot) -> Ballot {
    let members = view.all_members();
    let n = members.len() as Ballot;
    // A non-member never recovers; fall back to the identifier itself so the
    // result is still monotone if it somehow does.
    let pos = members
        .iter()
        .position(|&m| m == id)
        .map(|i| i as Ballot + 1)
        .unwrap_or(id as Ballot);
    let floor = seen.max(view.ballot_floor());
    pos + n * (floor / n + 1)
}

/// Decodes the member that minted `ballot` with [`takeover_ballot_in`]
/// under `view`, or `None` when the ballot predates the view's epoch (or is
/// an initial-coordinator ballot) — the caller should then mint a fresh
/// ballot instead of trusting cross-epoch owner arithmetic.
pub fn ballot_owner_in(view: &ClusterView, ballot: Ballot) -> Option<ProcessId> {
    let members = view.all_members();
    let max_id = members.last().copied().unwrap_or(0) as Ballot;
    if ballot <= view.ballot_floor().max(max_id) {
        return None;
    }
    let n = members.len() as Ballot;
    members.get(((ballot - 1) % n) as usize).copied()
}

/// Everything a takeover phase-1 acknowledgement carries: the responder's
/// view of the command, its dependency set, the fast quorum it observed
/// (empty if it never saw the initial round) and the ballot at which it
/// last accepted a consensus proposal (0 if never). The new coordinator
/// computes its proposal from a quorum of these.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecAck {
    /// The command as known by the responder (`noOp` if unknown).
    pub cmd: Command,
    /// The responder's current dependency set for the identifier.
    pub deps: DepSet,
    /// The fast quorum as known by the responder (empty if it never saw
    /// the initial fast-path round).
    pub quorum: Vec<ProcessId>,
    /// Ballot at which the responder last accepted a consensus proposal
    /// (0 if none).
    pub accepted_ballot: Ballot,
}

impl State {
    /// Takes over, in one pass, every identifier that can block execution
    /// here and waits on a member of `gone` — members the distance order
    /// leaves out, late or suspected, which may never answer:
    ///
    /// * the undecided identifiers they coordinate, including those this
    ///   replica only knows as missing dependencies of committed commands;
    /// * the undecided identifiers this replica coordinates whose quorum
    ///   holds one of them (the coordinator answers its own `MRec`, so the
    ///   rule proposes the union of what the live replies report).
    ///
    /// Identifiers a takeover's commit surfaces are `handle_commit`'s.
    pub(crate) fn take_over(&mut self, gone: &[ProcessId]) -> Vec<Action<Message>> {
        let id = self.base.id();
        if gone.iter().all(|p| *p == id) {
            return Vec::new(); // a reorder that leaves nobody out
        }
        let gone = |p: &ProcessId| *p != id && gone.contains(p);
        let undecided = self.info.iter();
        let mut dots: Vec<Dot> = undecided
            .filter(|(dot, info)| {
                let own = dot.coordinator() == id && info.quorum.iter().any(gone);
                !info.phase.is_committed() && (own || gone(&dot.coordinator()))
            })
            .map(|(dot, _)| *dot)
            .chain(
                self.graph
                    .missing_dependencies()
                    .into_iter()
                    .filter(|dot| gone(&dot.coordinator())),
            )
            .collect();
        // Deterministic recovery order keeps runs reproducible.
        dots.sort_unstable();
        dots.dedup();
        dots.into_iter().flat_map(|dot| self.recover(dot)).collect()
    }

    /// Takes over as coordinator of `dot` (Algorithm 2, line 31).
    ///
    /// **Idempotent under re-dispatch**: the runtime repeats a suspicion
    /// every `suspect_after` while the peer stays silent — the retry of a
    /// takeover whose ballot was outbid. While this replica still owns the
    /// identifier's current ballot, a repeat re-sends the *same* `MRec` —
    /// lost-message recovery, which acceptors re-acknowledge — instead of
    /// opening a second ballot; only a ballot minted by someone else, or in
    /// an older epoch, is outbid.
    pub(crate) fn recover(&mut self, dot: Dot) -> Vec<Action<Message>> {
        if self.collected(&dot) {
            // Executed everywhere and garbage-collected; nothing can be
            // blocked on it, so there is nothing to recover.
            return Vec::new();
        }
        let info = track(&mut self.info, &mut self.base, dot);
        if info.phase.is_committed() {
            return Vec::new();
        }
        let (bal, cmd) = (info.bal, info.cmd.clone().unwrap_or_else(Command::noop));
        let (id, view) = (self.base.id(), self.base.view());
        let ballot = if ballot_owner_in(view, bal) == Some(id) {
            bal
        } else {
            let ballot = takeover_ballot_in(view, id, bal);
            self.base.metrics.recoveries += 1;
            ballot
        };
        vec![Action::send(
            self.base.everyone(),
            Message::MRec { dot, cmd, ballot },
        )]
    }

    /// Handles `MRec` (Algorithm 2, lines 34-43).
    pub(crate) fn handle_rec(
        &mut self,
        from: ProcessId,
        dot: Dot,
        cmd: Command,
        ballot: Ballot,
    ) -> Vec<Action<Message>> {
        if self.collected(&dot) {
            // The identifier executed at every replica (including the
            // recoverer, by the all-executed GC horizon) before being
            // collected here; a recovery probe for it is a straggler. The
            // short-circuit MCommit is impossible — the payload is gone —
            // and unnecessary: no live replica is blocked on this dot.
            return Vec::new();
        }
        let info = track(&mut self.info, &mut self.base, dot);
        if info.phase.is_committed() {
            // Already decided here: short-circuit the recovery with an
            // MCommit (line 35-36).
            let cmd = info.cmd.clone().expect("committed command is known");
            let deps = info.deps.clone();
            return vec![Action::send([from], Message::MCommit { dot, cmd, deps })];
        }
        if info.bal > ballot {
            // Stale recovery attempt. A *re-sent* MRec at exactly the
            // promised ballot is re-acknowledged (at-least-once links, and
            // the re-dispatch rule of `recover`).
            return Vec::new();
        }
        if info.bal == 0 && info.phase == Phase::Start {
            // This replica has never seen the command (line 39-40): its
            // contribution is its current set of conflicts for it — and the
            // command is indexed so later conflicting commands observe it
            // (unless the recoverer does not know it either: a `noOp`).
            info.deps = self.key_deps.conflicts_and_add(dot, &cmd);
            info.indexed = self.key_deps.records(&cmd);
            info.cmd = Some(cmd);
        }
        info.bal = ballot;
        info.phase = Phase::Recover;
        let ack = RecAck {
            cmd: info.cmd.clone().unwrap_or_else(Command::noop),
            deps: info.deps.clone(),
            quorum: info.quorum.clone(),
            accepted_ballot: info.abal,
        };
        vec![Action::send([from], Message::MRecAck { dot, ack, ballot })]
    }

    /// Handles `MRecAck` at the recovery coordinator (Algorithm 2,
    /// lines 44-52).
    pub(crate) fn handle_rec_ack<R: CommitRule>(
        &mut self,
        from: ProcessId,
        dot: Dot,
        ack: RecAck,
        ballot: Ballot,
    ) -> Vec<Action<Message>> {
        let Some(info) = self.info.get_mut(&dot) else {
            return Vec::new(); // a straggler for a collected identifier
        };
        // Precondition (line 45): we are still leading ballot `ballot`, and
        // the identifier is not decided.
        if info.phase.is_committed() || info.committed_sent || info.bal != ballot {
            return Vec::new();
        }
        let round = Proposer::at(&mut info.proposer, ballot);
        file(&mut round.rec_acks, from, ack);
        let acks = &round.rec_acks;
        // A recovery quorum in the current configuration — and, during the
        // joint window, in the outgoing one too, so a proposal accepted
        // under either configuration is guaranteed to be visible here.
        if !self.base.quorum_met(senders(acks), R::recovery_quorum_size) {
            return Vec::new();
        }
        // A proposal is derived at most once per ballot: a straggling ack
        // (or a re-sent one) only re-sends it. Deriving again could produce
        // a *larger* union — two values at one ballot.
        let (cmd, deps) = round
            .rec_proposed
            .get_or_insert_with(|| propose::<R>(dot, acks))
            .clone();
        // Phase 2 is open to every replica (the suspected one included — a
        // falsely suspected coordinator is a perfectly good acceptor).
        vec![Action::send(
            self.base.everyone(),
            Message::MConsensus {
                dot,
                cmd,
                deps,
                ballot,
            },
        )]
    }
}

/// The value a takeover of `dot` proposes from a recovery quorum of `acks`
/// (sorted by sender, so every choice below is the lowest-numbered reply
/// that qualifies — the same on every replica and in every run).
fn propose<R: CommitRule>(dot: Dot, acks: &[(ProcessId, RecAck)]) -> (Command, DepSet) {
    let replies = || acks.iter().map(|(_, ack)| ack);
    let accepted = replies().filter(|ack| ack.accepted_ballot != 0);
    if let Some(highest) = accepted.max_by_key(|ack| ack.accepted_ballot) {
        // Case 1 (line 46-48): adopt the proposal accepted at the highest
        // ballot, by the standard Paxos rules. It agrees with any fast-path
        // commit: the coordinator decides between the paths exactly once.
        (highest.cmd.clone(), highest.deps.clone())
    } else if let Some(witness) = replies().find(|ack| !ack.quorum.is_empty()) {
        // Case 2 (line 49-51): some replica saw the initial MCollect; the
        // rule rebuilds what the fast path may have committed.
        let mut deps = R::recovered_deps(acks, &witness.quorum, dot.coordinator());
        deps.remove(&dot);
        (witness.cmd.clone(), deps)
    } else {
        // Case 3 (line 52): nobody saw the command; replace it with a noOp
        // so dependants stop waiting.
        (Command::noop(), DepSet::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosNet;
    use crate::protocol::{Atlas, Info};
    use atlas_core::{Config, Protocol, Rifl};

    fn put(client: u64, seq: u64, key: u64) -> Command {
        Command::put(Rifl::new(client, seq), key, client, 100)
    }

    fn cluster() -> ChaosNet<Atlas> {
        ChaosNet::fifo(Config::new(5, 2))
    }

    fn info(net: &ChaosNet<Atlas>, at: ProcessId, dot: Dot) -> &Info {
        let replica = &net.replicas[(at - 1) as usize];
        replica.state.info.get(&dot).expect("identifier is known")
    }

    #[test]
    fn the_lowest_numbered_eligible_reply_is_the_witness() {
        // Replies 3 and 4 both saw the collect (non-empty quorum); 2 did
        // not. Whatever order they arrived in, the proposal is built from
        // reply 3 — the choice used to follow a hash map's iteration order.
        let reply = |client: u64, quorum: &[ProcessId], dep: u64| RecAck {
            cmd: put(client, 1, 0),
            deps: [Dot::new(5, dep)].into(),
            quorum: quorum.to_vec(),
            accepted_ballot: 0,
        };
        let arrivals = [
            (4, reply(40, &[1, 4], 4)),
            (2, reply(20, &[], 2)),
            (3, reply(30, &[1, 3], 3)),
        ];
        for rotation in 0..arrivals.len() {
            let mut acks = Vec::new();
            for (from, ack) in arrivals.iter().cycle().skip(rotation).take(arrivals.len()) {
                file(&mut acks, *from, ack.clone());
            }
            let (cmd, deps) = propose::<crate::AtlasRule>(Dot::new(1, 1), &acks);
            assert_eq!(cmd.rifl, Rifl::new(30, 1));
            // Atlas's union over the members of the *witness's* quorum.
            assert_eq!(deps, DepSet::from([Dot::new(5, 3)]));
        }
    }

    #[test]
    fn recovery_commits_command_seen_by_fast_quorum_members() {
        // n = 5, f = 2, fast quorum {1, 2, 3, 4}. Coordinator 1 sends
        // MCollect, the quorum members see it, but the coordinator crashes
        // before committing. Recovery by process 2 must commit the command
        // (not a noOp) with the union of the reported dependencies.
        let mut net = cluster();
        let cmd = put(1, 1, 0);
        net.submit_reaching(1, cmd.clone(), &[2, 3, 4]);
        net.crash(1);
        net.suspect(2, 1);
        // The command was committed and executed at the surviving replicas.
        for id in 2..=5 {
            assert_eq!(
                net.executed_at(id).len(),
                1,
                "process {id} must execute the recovered command"
            );
        }
        // And it was recovered as the real command, not a noOp.
        let info_cmd = info(&net, 2, Dot::new(1, 1)).cmd.clone().unwrap();
        assert!(!info_cmd.is_noop());
        assert_eq!(info_cmd.rifl, cmd.rifl);
        assert!(net.replicas[1].metrics().recoveries >= 1);
    }

    #[test]
    fn recovery_replaces_unseen_command_with_noop() {
        // The coordinator crashes before any replica sees the command, but
        // another replica learned the identifier as a dependency. Recovery
        // must commit a noOp so dependants can execute.
        let mut net = cluster();
        // Nobody ever saw ⟨1,1⟩; process 3 recovers it directly.
        let dot = Dot::new(1, 1);
        net.crash(1);
        let actions = net.replica(3).state.recover(dot);
        net.run(3, actions);
        let info = info(&net, 3, dot);
        assert!(info.phase.is_committed());
        assert!(info.cmd.as_ref().unwrap().is_noop());
        // noOps are not applied to the state machine.
        assert!(net.executed_at(3).is_empty());
        assert!(net.replicas[2].metrics().noops >= 1);
    }

    #[test]
    fn recovery_of_committed_command_returns_existing_commit() {
        // If the command is already committed somewhere, recovery must adopt
        // that exact commit (Invariant 1).
        let mut net = cluster();
        let cmd = put(1, 1, 7);
        net.submit(1, cmd.clone());
        // All replicas committed; now replica 4 runs a (redundant) recovery.
        let dot = Dot::new(1, 1);
        let deps_before = info(&net, 1, dot).deps.clone();
        let actions = net.replica(4).state.recover(dot);
        net.run(4, actions);
        for id in 1..=5 {
            let info = info(&net, id, dot);
            assert_eq!(info.deps, deps_before);
            assert_eq!(info.cmd.as_ref().unwrap().rifl, cmd.rifl);
        }
    }

    #[test]
    fn recovery_unblocks_dependant_commands() {
        // A command a reaches a single replica before its coordinator
        // crashes, so later conflicting commands pick it up as a dependency
        // nobody can commit. Suspecting the coordinator at every survivor
        // must commit a (as the real command or as a noOp) at the survivors.
        let mut net = cluster();
        net.submit_reaching(1, put(1, 1, 0), &[4]);
        net.crash(1);
        for id in 2..=5 {
            net.suspect(id, 1);
        }
        let dot_a = Dot::new(1, 1);
        let committed = net.replicas[1..]
            .iter()
            .filter_map(|r| r.state.info.get(&dot_a))
            .filter(|info| info.phase.is_committed())
            .count();
        assert!(committed >= 3, "a must be committed at the survivors");
    }

    #[test]
    fn highest_accepted_ballot_wins_recovery() {
        // A consensus proposal accepted by f+1 replicas must survive
        // recovery: the new coordinator adopts the highest accepted proposal.
        let mut net = cluster();
        let dot = Dot::new(1, 1);
        let cmd = put(1, 1, 3);
        let deps: DepSet = [Dot::new(2, 9)].into();
        // Simulate a slow-path proposal from coordinator 1 accepted by
        // {1, 2, 3} at ballot 1, without the commit being sent.
        for id in [1u32, 2, 3] {
            let accept = Message::MConsensus {
                dot,
                cmd: cmd.clone(),
                deps: deps.clone(),
                ballot: 1,
            };
            let _acks_are_lost = net.replica(id).handle(1, accept, 0);
        }
        net.crash(1);
        // Replica 5 does not know the identifier at all, so a suspicion
        // alone recovers nothing there; recover it explicitly. It must
        // learn the accepted proposal (from 2 or 3) and commit exactly
        // those dependencies.
        net.suspect(5, 1);
        let actions = net.replica(5).state.recover(dot);
        net.run(5, actions);
        let info = info(&net, 5, dot);
        assert!(info.phase.is_committed());
        assert_eq!(info.cmd.as_ref().unwrap().rifl, cmd.rifl);
        assert_eq!(info.deps, deps);
    }

    #[test]
    fn recovery_is_idempotent_across_multiple_recoverers() {
        // Two surviving replicas recover the same command concurrently; the
        // final committed dependencies must be identical everywhere.
        let mut net = cluster();
        net.submit_reaching(1, put(1, 1, 0), &[2, 3, 4]);
        net.crash(1);
        net.suspect(2, 1);
        net.suspect(3, 1);
        let dot = Dot::new(1, 1);
        let committed_deps: Vec<&DepSet> = net.replicas[1..]
            .iter()
            .filter_map(|r| r.state.info.get(&dot))
            .filter(|info| info.phase.is_committed())
            .map(|info| &info.deps)
            .collect();
        assert!(committed_deps.len() >= 3);
        for deps in &committed_deps {
            assert_eq!(deps, &committed_deps[0], "Invariant 1: same final deps");
        }
    }
}
