//! The dependency-commit engine [`Deps`]: collect → fast/slow decision →
//! consensus → commit → dependency-graph execution (Algorithms 1 and 3 of
//! the paper), with every durability, GC and epoch hook of [`Protocol`].
//! Takeover recovery (Algorithm 2) lives in the crate-private `recovery`
//! module. The engine is written once; a [`CommitRule`] type parameter
//! supplies the five decisions Atlas and EPaxos take differently.
//!
//! Two [`Protocol`] contracts are enforced here for both rules:
//!
//! * **GC-floor respect.** Every handler that could create bookkeeping
//!   first checks `State::collected`, and handlers that only continue
//!   something in flight look entries up without creating them — so no
//!   straggler resurrects a collected identifier.
//! * **Idempotent re-dispatch** of suspicions: see `State::recover`.

use crate::graph::{DependencyGraph, ExecutedMarker};
use crate::keydeps::KeyDeps;
use crate::messages::{Ballot, Message};
use crate::recovery::RecAck;
use crate::rule::{sets, AtlasRule, CommitRule};
use atlas_core::protocol::Time;
use atlas_core::{
    Action, Base, ClusterView, Command, Config, DepSet, Dot, DotGen, IdMap, ProcessId, Protocol,
    Topology,
};
use serde::{Deserialize, Serialize};
use std::marker::PhantomData;

/// An Atlas replica: the engine under the paper's rule (§3.2).
pub type Atlas = Deps<AtlasRule>;

/// Progress of a command identifier at this replica (paper §3.2.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Phase {
    /// Nothing known beyond possibly the identifier itself.
    #[default]
    Start,
    /// The replica has processed the `MCollect` for this identifier.
    Collect,
    /// A recovery coordinator has taken over this identifier.
    Recover,
    /// Final command and dependencies are known.
    Commit,
    /// The command has been applied to the local state machine.
    Execute,
}

impl Phase {
    /// Whether the final command and dependencies are known.
    pub(crate) fn is_committed(self) -> bool {
        matches!(self, Phase::Commit | Phase::Execute)
    }
}

/// Per-identifier bookkeeping (the mappings at the bottom of Algorithm 1/4)
/// that *every* replica keeps; what only the replica driving a round needs
/// is in [`Proposer`].
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Info {
    pub phase: Phase,
    /// Whether an `MCommit` has already been broadcast by this replica for
    /// this identifier (prevents duplicate commits by the same proposer).
    pub committed_sent: bool,
    /// Whether the coordinator already decided between fast and slow path
    /// for this identifier (prevents reprocessing duplicate collect acks).
    pub collect_decided: bool,
    /// Whether the conflict index recorded the command ([`KeyDeps::add`]).
    /// A `noOp` placeholder is not recorded, so the flag stays clear and the
    /// commit of the real command indexes it.
    pub indexed: bool,
    /// Current ballot this replica participates in (`bal`).
    pub bal: Ballot,
    /// Last ballot at which a consensus proposal was accepted (`abal`).
    pub abal: Ballot,
    /// Local commit time, to measure the commit→execute delay.
    pub committed_at: Time,
    pub cmd: Option<Command>,
    pub deps: DepSet,
    /// Fast quorum chosen by the initial coordinator (empty if unknown, and
    /// again once committed: only a takeover asks for it).
    pub quorum: Vec<ProcessId>,
    /// The round this replica drives, until the identifier commits.
    pub proposer: Option<Box<Proposer>>,
}

/// The replies to the round this replica drives at `ballot`, each list
/// sorted by sender. Handlers only touch the round at the identifier's
/// current ballot, and ballots only grow: a new ballot starts afresh.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct Proposer {
    /// The ballot the replies answer (0: the initial collect).
    pub ballot: Ballot,
    /// Initial coordinator: `MCollectAck` replies received so far.
    pub collect_acks: Vec<(ProcessId, DepSet)>,
    /// `MConsensusAck` senders, sorted.
    pub consensus_acks: Vec<ProcessId>,
    /// Recovery coordinator: `MRecAck` replies.
    pub rec_acks: Vec<(ProcessId, RecAck)>,
    /// Recovery coordinator: the proposal computed for this ballot, re-sent
    /// to replies beyond the recovery quorum — re-deriving it from a larger
    /// union would make one ballot carry two values, which is unsound Paxos.
    pub rec_proposed: Option<(Command, DepSet)>,
}

impl Proposer {
    /// The round at `ballot` in `slot`, started now unless it is under way.
    pub(crate) fn at(slot: &mut Option<Box<Proposer>>, ballot: Ballot) -> &mut Proposer {
        if slot.as_ref().is_none_or(|round| round.ballot != ballot) {
            let fresh = Proposer::default();
            *slot = Some(Box::new(Proposer { ballot, ..fresh }));
        }
        slot.as_mut().expect("the round was just started")
    }
}

/// Files `reply` under `from` in a list sorted by sender; a repeated reply
/// replaces the earlier one.
pub(crate) fn file<T>(replies: &mut Vec<(ProcessId, T)>, from: ProcessId, reply: T) {
    match replies.binary_search_by_key(&from, |(sender, _)| *sender) {
        Ok(at) => replies[at].1 = reply,
        Err(at) => replies.insert(at, (from, reply)),
    }
}

/// The senders of a list of replies.
pub(crate) fn senders<T>(
    replies: &[(ProcessId, T)],
) -> impl Iterator<Item = ProcessId> + Clone + '_ {
    replies.iter().map(|(sender, _)| *sender)
}

impl Info {
    /// What is left of an identifier once it has executed: every handler
    /// turns a committed identifier away (or answers with command and
    /// dependencies) before it reads anything else, so the rest is reset —
    /// in memory at the execution, which is why a snapshot can leave it out.
    fn executed(cmd: Option<Command>, deps: DepSet) -> Info {
        Info {
            phase: Phase::Execute,
            indexed: true,
            cmd,
            deps,
            ..Info::default()
        }
    }
}

/// An executed identifier — nearly all of a snapshot — encodes as command
/// and dependencies, which is all of it (see [`Info::executed`]).
impl Serialize for Info {
    fn serialize(&self, out: &mut Vec<u8>) {
        let executed = self.phase == Phase::Execute;
        (executed, &self.cmd, &self.deps).serialize(out);
        if executed {
            debug_assert_eq!(*self, Info::executed(self.cmd.clone(), self.deps.clone()));
        } else {
            let flags = (self.committed_sent, self.collect_decided, self.indexed);
            (self.phase, flags, self.bal, self.abal, self.committed_at).serialize(out);
            (&self.quorum, &self.proposer).serialize(out);
        }
    }
}

impl Deserialize for Info {
    fn deserialize(input: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let (executed, cmd, deps): (bool, _, _) = Deserialize::deserialize(input)?;
        let mut info = Info::executed(cmd, deps);
        if !executed {
            let flags;
            (info.phase, flags, info.bal, info.abal, info.committed_at) =
                Deserialize::deserialize(input)?;
            (info.committed_sent, info.collect_decided, info.indexed) = flags;
            (info.quorum, info.proposer) = Deserialize::deserialize(input)?;
        }
        Ok(info)
    }
}

/// Leads [`State`], so bytes of another layout (the previous one led with
/// its rule name's length) are refused whatever the rest decodes as.
const LAYOUT: u32 = 0xA71A_5002;

/// Everything a replica holds, whatever its rule. Kept non-generic so it
/// derives serde; [`Deps::save_state`](Protocol::save_state) serializes
/// exactly this (conflict index and execution graph included).
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct State {
    layout: u32,
    /// `R::NAME` of the rule this state was built under. Both rules share
    /// this layout, so the name is what refuses the other rule's snapshot.
    rule: String,
    pub(crate) base: Base,
    dot_gen: DotGen,
    pub(crate) key_deps: KeyDeps,
    pub(crate) info: IdMap<Dot, Info>,
    pub(crate) graph: DependencyGraph,
}

/// A replica of the dependency-commit engine under rule `R`.
///
/// Drive it through the [`Protocol`] trait: [`Protocol::submit`] makes this
/// replica the initial coordinator of a command, [`Protocol::handle`]
/// processes a message from a peer, and [`Protocol::suspect`] triggers
/// recovery of a failed peer's in-flight commands.
#[derive(Debug)]
pub struct Deps<R: CommitRule> {
    pub(crate) state: State,
    rule: PhantomData<R>,
}

/// The entry of `dot`, created (and noted in the seen horizon) if missing. A
/// free function, so callers can use [`State`]'s other fields beside it.
pub(crate) fn track<'a>(info: &'a mut IdMap<Dot, Info>, base: &mut Base, dot: Dot) -> &'a mut Info {
    info.entry(dot).or_insert_with(|| {
        base.note_seen(dot.source, dot.seq);
        Info::default()
    })
}

impl State {
    /// Whether `dot` sits at or below the GC floor: committed and executed
    /// by **every** replica, with its bookkeeping dropped here. Messages
    /// about such identifiers (duplicates, stragglers, recovery probes) are
    /// ignored exactly as a terminal-phase entry would ignore them — no
    /// replica can still be waiting on them.
    pub(crate) fn collected(&self, dot: &Dot) -> bool {
        dot.seq <= self.graph.floor_of(dot.source)
    }

    /// Algorithm 1, lines 1-5. The coordinator's own dependency
    /// contribution is produced when it handles its own MCollect (the
    /// runtime delivers self-addressed messages immediately), so `past`
    /// here is what the paper calls conflicts(c) at submission time.
    fn submit<R: CommitRule>(&mut self, cmd: Command) -> Vec<Action<Message>> {
        let dot = self.dot_gen.next_dot();
        let past = self.key_deps.conflicts(&cmd);
        let config = self.base.config();
        let quorum = if self.base.view().is_joint() {
            // Joint window: collect from everyone and decide on a dual
            // majority (see `handle_collect_ack`); a closest-quorum draw
            // cannot name a set that is safe in both configurations.
            self.base.everyone()
        } else if config.nfr && cmd.is_read_only() {
            // An NFR read collects from a plain majority (paper §4).
            self.base.closest(config.majority())
        } else {
            self.base.closest(R::fast_quorum_size(&config))
        };
        vec![Action::send(
            quorum.clone(),
            Message::MCollect {
                dot,
                cmd,
                past,
                quorum,
            },
        )]
    }

    /// Handles `MCollect` (Algorithm 1, line 6).
    fn handle_collect(
        &mut self,
        from: ProcessId,
        dot: Dot,
        cmd: Command,
        past: DepSet,
        quorum: Vec<ProcessId>,
    ) -> Vec<Action<Message>> {
        if self.collected(&dot) {
            return Vec::new();
        }
        let info = track(&mut self.info, &mut self.base, dot);
        if info.phase != Phase::Start || info.bal != 0 {
            // Stale: a recovery took over, the command is committed, or a
            // consensus proposal for it was accepted here first — which a
            // late collect must not overwrite.
            return Vec::new();
        }
        // Compute this replica's contribution to the dependencies: local
        // conflicts combined with the coordinator's `past` (line 8), and
        // record the command so later commands depend on it. NFR reads are
        // excluded from the dependencies of later commands, which
        // `KeyDeps` takes care of. (`Start` with no ballot: not indexed yet.)
        let mut deps = self.key_deps.conflicts_and_add(dot, &cmd);
        deps.union_with(&past);
        deps.remove(&dot);

        info.indexed = self.key_deps.records(&cmd);
        info.phase = Phase::Collect;
        info.cmd = Some(cmd);
        info.quorum = quorum;
        info.deps = deps.clone();
        vec![Action::send([from], Message::MCollectAck { dot, deps })]
    }

    /// Handles `MCollectAck` at the initial coordinator (Algorithm 1,
    /// line 12).
    fn handle_collect_ack<R: CommitRule>(
        &mut self,
        from: ProcessId,
        dot: Dot,
        deps: DepSet,
    ) -> Vec<Action<Message>> {
        let Some(info) = self.info.get_mut(&dot) else {
            return Vec::new();
        };
        // Precondition: still in the collect phase (a recovery or a commit
        // invalidates the fast path, line 13) and a decision has not been
        // taken yet (guards against duplicate deliveries).
        if info.phase != Phase::Collect
            || dot.coordinator() != self.base.id()
            || info.collect_decided
            || !info.quorum.contains(&from)
        {
            return Vec::new();
        }
        let acks = &mut Proposer::at(&mut info.proposer, 0).collect_acks;
        file(acks, from, deps);
        let joint = self.base.view().is_joint();
        let ready = if joint {
            // Joint window: a majority of each configuration — any two
            // collect quorums still intersect in both, which is what keeps
            // conflicting commands visible to each other. Waiting for the
            // full union would deadlock on the dead member a swap removes.
            self.base.quorum_met(senders(acks), Config::majority)
        } else {
            acks.len() >= info.quorum.len()
        };
        if !ready {
            return Vec::new();
        }
        info.collect_decided = true;

        let config = self.base.config();
        let cmd = info.cmd.clone().expect("collect phase stores the command");
        // The fast path is disabled inside the joint window: its recovery
        // argument is fast-quorum-shaped and holds per configuration, not
        // across two of them, so every joint-window command proposes the
        // plain union to consensus at dual quorums instead.
        let (fast_path, deps) = if joint {
            (false, DepSet::union(sets(acks)))
        } else {
            R::decide(&config, &cmd, acks)
        };
        if fast_path {
            // Fast path (line 16): commit after a single round trip.
            info.committed_sent = true;
            self.base.metrics.fast_paths += 1;
            let everyone = self.base.everyone();
            vec![Action::send(everyone, Message::MCommit { dot, cmd, deps })]
        } else {
            // Slow path (lines 17-19): run consensus on the dependencies.
            self.base.metrics.slow_paths += 1;
            let acceptors = if joint {
                // The accept phase needs a quorum in *both* configurations,
                // and the closest-quorum prefix cannot know which subset
                // satisfies that — send to everyone and let
                // `handle_consensus_ack`'s dual count decide.
                self.base.everyone()
            } else {
                self.base.closest(R::accept_quorum_size(&config))
            };
            let ballot = self.base.id() as Ballot;
            vec![Action::send(
                acceptors,
                Message::MConsensus {
                    dot,
                    cmd,
                    deps,
                    ballot,
                },
            )]
        }
    }

    /// Handles `MConsensus` (Algorithm 1, line 20) — Paxos phase-2 accept.
    fn handle_consensus(
        &mut self,
        from: ProcessId,
        dot: Dot,
        cmd: Command,
        deps: DepSet,
        ballot: Ballot,
    ) -> Vec<Action<Message>> {
        if self.collected(&dot) {
            // Executed everywhere and garbage-collected: the proposer has
            // it too (the GC horizon is all-executed), so no short-circuit
            // MCommit is needed — or possible, the payload is gone.
            return Vec::new();
        }
        let info = track(&mut self.info, &mut self.base, dot);
        if info.phase.is_committed() {
            // Already decided: tell the proposer.
            let cmd = info.cmd.clone().expect("committed command is known");
            let deps = info.deps.clone();
            return vec![Action::send([from], Message::MCommit { dot, cmd, deps })];
        }
        if info.bal > ballot {
            return Vec::new();
        }
        info.cmd = Some(cmd);
        info.deps = deps;
        info.bal = ballot;
        info.abal = ballot;
        vec![Action::send([from], Message::MConsensusAck { dot, ballot })]
    }

    /// Handles `MConsensusAck` at the proposer (Algorithm 1, line 25).
    fn handle_consensus_ack<R: CommitRule>(
        &mut self,
        from: ProcessId,
        dot: Dot,
        ballot: Ballot,
    ) -> Vec<Action<Message>> {
        let Some(info) = self.info.get_mut(&dot) else {
            return Vec::new();
        };
        // Precondition: we are still at the ballot we proposed, and nobody
        // (us included) has committed the identifier meanwhile.
        if info.bal != ballot || info.committed_sent || info.phase.is_committed() {
            return Vec::new();
        }
        let acks = &mut Proposer::at(&mut info.proposer, ballot).consensus_acks;
        if let Err(at) = acks.binary_search(&from) {
            acks.insert(at, from);
        }
        // An accept quorum in the current configuration — and, during the
        // joint window, in the outgoing one too.
        let senders = acks.iter().copied();
        if !self.base.quorum_met(senders, R::accept_quorum_size) {
            return Vec::new();
        }
        // The proposal survives the tolerated failures: commit it.
        info.committed_sent = true;
        let cmd = info
            .cmd
            .clone()
            .expect("accepted proposal stores the command");
        let deps = info.deps.clone();
        let everyone = self.base.everyone();
        vec![Action::send(everyone, Message::MCommit { dot, cmd, deps })]
    }

    /// Handles `MCommit` (Algorithm 1, line 28) and runs the execution loop.
    fn handle_commit(
        &mut self,
        dot: Dot,
        cmd: Command,
        deps: DepSet,
        time: Time,
    ) -> Vec<Action<Message>> {
        if self.graph.is_executed(&dot) {
            // Already executed here: either a garbage-collected entry (the
            // graph's floor implies it) or one covered by a catch-up base
            // marker, where no `info` entry exists to dedupe through. A
            // duplicate commit must not resurrect bookkeeping.
            return Vec::new();
        }
        let (table, base) = (&mut self.info, &mut self.base);
        let info = track(table, base, dot);
        if info.phase.is_committed() {
            return Vec::new();
        }
        info.phase = Phase::Commit;
        info.committed_at = time;
        // Only an undecided identifier has a round or a takeover to answer.
        info.proposer = None;
        info.quorum = Vec::new();
        if !info.indexed {
            // Make sure later commands observe this one as a conflict even
            // if this replica was not in its fast quorum.
            info.indexed = true;
            self.key_deps.add(dot, &cmd);
        }
        base.metrics.record_commit(deps.len());
        // A noOp is never executed, so the runtime is told of no commit it
        // would wait in vain to see executed.
        let mut actions = Vec::with_capacity(2);
        if cmd.is_noop() {
            base.metrics.noops += 1;
        } else {
            actions.push(Action::Commit { dot });
        }
        // One copy stays for `committed_log`, one goes to the executor.
        info.cmd = Some(cmd.clone());
        info.deps = deps.clone();
        self.graph.commit_with(dot, cmd, deps, &mut |dot, cmd| {
            let committed_at = table.get_mut(&dot).map(|info| {
                let committed_at = info.committed_at;
                *info = Info::executed(info.cmd.take(), std::mem::take(&mut info.deps));
                committed_at
            });
            base.metrics.record_execution(committed_at, time);
            actions.push(Action::Execute { dot, cmd });
        });
        base.metrics.set_batches(self.graph.batches());
        actions
    }

    fn handle<R: CommitRule>(
        &mut self,
        from: ProcessId,
        msg: Message,
        time: Time,
    ) -> Vec<Action<Message>> {
        match msg {
            Message::MCollect {
                dot,
                cmd,
                past,
                quorum,
            } => self.handle_collect(from, dot, cmd, past, quorum),
            Message::MCollectAck { dot, deps } => self.handle_collect_ack::<R>(from, dot, deps),
            Message::MConsensus {
                dot,
                cmd,
                deps,
                ballot,
            } => self.handle_consensus(from, dot, cmd, deps, ballot),
            Message::MConsensusAck { dot, ballot } => {
                self.handle_consensus_ack::<R>(from, dot, ballot)
            }
            Message::MCommit { dot, cmd, deps } => self.handle_commit(dot, cmd, deps, time),
            Message::MRec { dot, cmd, ballot } => self.handle_rec(from, dot, cmd, ballot),
            Message::MRecAck { dot, ack, ballot } => {
                self.handle_rec_ack::<R>(from, dot, ack, ballot)
            }
        }
    }
}

impl<R: CommitRule> Protocol for Deps<R> {
    type Message = Message;

    fn name() -> &'static str {
        R::NAME
    }

    fn new(id: ProcessId, config: Config, topology: Topology) -> Self {
        let state = State {
            layout: LAYOUT,
            rule: R::NAME.to_string(),
            base: Base::new(id, config, topology),
            dot_gen: DotGen::new(id),
            key_deps: KeyDeps::new(config.nfr),
            info: IdMap::default(),
            graph: DependencyGraph::new(),
        };
        Self {
            state,
            rule: PhantomData,
        }
    }

    fn base(&self) -> &Base {
        &self.state.base
    }

    fn submit(&mut self, cmd: Command, _time: Time) -> Vec<Action<Message>> {
        self.state.submit::<R>(cmd)
    }

    fn handle(&mut self, from: ProcessId, msg: Message, time: Time) -> Vec<Action<Message>> {
        self.state.handle::<R>(from, msg, time)
    }

    fn suspect(&mut self, suspected: ProcessId, _time: Time) -> Vec<Action<Message>> {
        self.state.recover_suspected(suspected)
    }

    fn reconfigure(&mut self, view: &ClusterView, _time: Time) -> Vec<Action<Message>> {
        if !self.state.base.install_view(view) || !self.state.base.is_member() {
            return Vec::new();
        }
        // Liveness across the switch: re-drive every in-flight proposal this
        // replica coordinates, plus any whose coordinator the new view
        // dropped (nobody else will finish those), through the recovery
        // path — its consensus gathers quorums under the *new* view, and it
        // skips whatever sits below the GC floor. Sorted for replay
        // determinism.
        let id = self.state.base.id();
        let members = view.all_members();
        let mut stuck: Vec<Dot> = self
            .state
            .info
            .iter()
            .filter(|(_, info)| !info.phase.is_committed())
            .map(|(dot, _)| *dot)
            .filter(|dot| dot.coordinator() == id || !members.contains(&dot.coordinator()))
            .collect();
        stuck.sort_unstable();
        stuck
            .into_iter()
            .flat_map(|dot| self.state.recover(dot))
            .collect()
    }

    fn message_size(msg: &Message) -> usize {
        msg.size_bytes()
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        Some(bincode::serialize(&self.state).expect("replica state always encodes"))
    }

    fn restore_state(
        id: ProcessId,
        config: Config,
        _topology: Topology,
        state: &[u8],
    ) -> Option<Self> {
        let state: State = bincode::deserialize(state).ok()?;
        let ours = state.layout == LAYOUT && state.rule == R::NAME;
        (ours && state.base.restores_as(id, config)).then_some(Self {
            state,
            rule: PhantomData,
        })
    }

    fn committed_log(&self) -> Vec<Message> {
        let info = self.state.info.iter();
        let committed = info.filter(|(_, info)| info.phase.is_committed());
        let mut commits: Vec<Message> = committed
            .filter_map(|(&dot, info)| {
                let (cmd, deps) = (info.cmd.clone()?, info.deps.clone());
                Some(Message::MCommit { dot, cmd, deps })
            })
            .collect();
        commits.sort_by_key(Message::dot);
        commits
    }

    fn executed_watermarks(&self) -> Vec<(ProcessId, u64)> {
        // Dense over every space so the runtime's pointwise minimum can
        // tell "nothing executed from this source yet" (watermark 0) apart
        // from "this replica never reported".
        let graph = &self.state.graph;
        let spaces = self.state.base.spaces().into_iter();
        spaces.map(|p| (p, graph.executed_frontier(p))).collect()
    }

    fn gc_executed(&mut self, horizon: &[(ProcessId, u64)]) -> u64 {
        self.state.graph.compact_below(horizon);
        // Drop the per-command bookkeeping of everything at or below the
        // graph's (frontier-clamped) floor; by construction of the horizon
        // those entries are executed at every replica.
        let before = self.state.info.len();
        let graph = &self.state.graph;
        self.state
            .info
            .retain(|dot, _| dot.seq > graph.floor_of(dot.source));
        (before - self.state.info.len()) as u64
    }

    fn save_executed(&self) -> Vec<u8> {
        let state = &self.state;
        let marker = (
            R::NAME.to_string(),
            state.graph.executed_marker(),
            state.base.view().clone(),
        );
        bincode::serialize(&marker).expect("markers always encode")
    }

    fn restore_executed(&mut self, marker: &[u8]) -> bool {
        let Ok((rule, marker, view)) =
            bincode::deserialize::<(String, ExecutedMarker, ClusterView)>(marker)
        else {
            return false;
        };
        if rule != R::NAME {
            return false;
        }
        if !self.state.graph.restore_marker(&marker) {
            return false;
        }
        // The view rides along so a bootstrap base that covers an executed
        // `Reconfigure` barrier still hands the joiner the configuration it
        // must gather quorums in (the message tail only replays what the
        // base does not cover).
        self.state.base.install_view(&view);
        // The marked identifiers were seen (they executed); fold them into
        // the seen horizon so this replica's reports protect them too.
        for &(source, frontier) in &marker.frontiers {
            self.state.base.note_seen(source, frontier);
        }
        for dot in &marker.above {
            self.state.base.note_seen(dot.source, dot.seq);
        }
        true
    }

    fn tracked_entries(&self) -> usize {
        self.state.info.len()
    }

    fn advance_identifiers(&mut self, past: u64) {
        self.state.dot_gen.advance_past(past);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosNet;
    use atlas_core::Rifl;

    fn cluster(n: usize, f: usize) -> ChaosNet<Atlas> {
        ChaosNet::fifo(Config::new(n, f))
    }

    fn put(client: u64, seq: u64, key: u64) -> Command {
        Command::put(Rifl::new(client, seq), key, client, 100)
    }

    /// Cluster-wide `(fast, slow)` path counts.
    fn paths(net: &ChaosNet<Atlas>) -> (u64, u64) {
        let metrics = net.replicas.iter().map(|r| r.metrics());
        metrics.fold((0, 0), |(fast, slow), m| {
            (fast + m.fast_paths, slow + m.slow_paths)
        })
    }

    #[test]
    fn single_command_commits_on_fast_path_and_executes_everywhere() {
        let mut net = cluster(5, 2);
        net.submit(1, put(1, 1, 0));
        for id in 1..=5 {
            assert_eq!(net.executed_at(id).len(), 1, "process {id}");
        }
        let coordinator = &net.replicas[0];
        assert_eq!(coordinator.metrics().fast_paths, 1);
        assert_eq!(coordinator.metrics().slow_paths, 0);
    }

    #[test]
    fn f1_always_takes_fast_path_under_conflicts() {
        let mut net = cluster(3, 1);
        for i in 0..20u64 {
            let coordinator = (i % 3 + 1) as ProcessId;
            net.submit(coordinator, put(coordinator as u64, i + 1, 0));
        }
        assert_eq!(paths(&net), (20, 0));
    }

    #[test]
    fn sequential_conflicting_commands_still_fast_path() {
        // Sequential (non-concurrent) conflicting commands always take the
        // fast path: every fast-quorum member reports the same dependency.
        let mut net = cluster(5, 2);
        net.submit(1, put(1, 1, 0));
        net.submit(3, put(3, 1, 0));
        assert_eq!(paths(&net).0, 2);
        // Every process executes both, in the same order.
        let reference = net.executed_at(1);
        assert_eq!(reference.len(), 2);
        for id in 2..=5 {
            assert_eq!(net.executed_at(id), reference);
        }
    }

    #[test]
    fn conflicting_commands_execute_in_same_order_everywhere() {
        let mut net = cluster(5, 2);
        for seq in 1..=10u64 {
            for coordinator in 1..=5u32 {
                net.submit(coordinator, put(coordinator as u64, seq, 0));
            }
        }
        let reference = net.executed_at(1);
        assert_eq!(reference.len(), 50);
        for id in 2..=5 {
            assert_eq!(net.executed_at(id), reference, "process {id}");
        }
    }

    #[test]
    fn commuting_commands_may_execute_without_waiting() {
        let mut net = cluster(5, 1);
        net.submit(1, put(1, 1, 1));
        net.submit(2, put(2, 1, 2));
        // Both execute everywhere (5 processes × 2 commands).
        let total: usize = (1..=5).map(|id| net.executed_at(id).len()).sum();
        assert_eq!(total, 10);
        // No dependencies were recorded between them at the coordinators.
        assert_eq!(paths(&net).1, 0);
    }

    #[test]
    fn nfr_read_commits_from_majority() {
        let mut net: ChaosNet<Atlas> = ChaosNet::fifo(Config::new(5, 2).with_nfr(true));
        net.submit(1, put(1, 1, 0));
        net.submit(2, Command::get(Rifl::new(2, 1), 0));
        // Both commands execute at every process.
        for id in 1..=5 {
            assert!(!net.executed_at(id).is_empty());
        }
        // The read never becomes a dependency of a later write.
        net.submit(3, put(3, 1, 0));
        let reference = net.executed_at(1);
        for id in 2..=5 {
            assert_eq!(net.executed_at(id), reference);
        }
    }

    #[test]
    fn executions_per_process_match_submissions() {
        let mut net = cluster(7, 3);
        let total = 21u64;
        for i in 0..total {
            let coordinator = (i % 7 + 1) as ProcessId;
            net.submit(coordinator, put(coordinator as u64, i + 1, i % 3));
        }
        for id in 1..=7 {
            assert_eq!(net.executed_at(id).len() as u64, total);
        }
    }

    #[test]
    fn a_command_enters_the_conflict_index_once() {
        // Replica 2 indexes w1 at its collect, then w2 on the same key. The
        // commit of w1 must not index it again: it would pass for the key's
        // latest write, and the next command would depend on w1, not w2.
        let mut replica = Atlas::new(2, Config::new(3, 1), Topology::identity(2, 3));
        let (w1, w2) = (Dot::new(1, 1), Dot::new(1, 2));
        for (dot, past) in [(w1, DepSet::new()), (w2, [w1].into())] {
            let collect = Message::MCollect {
                dot,
                cmd: put(1, dot.seq, 0),
                past,
                quorum: vec![1, 2],
            };
            replica.handle(1, collect, 0);
        }
        let commit = Message::MCommit {
            dot: w1,
            cmd: put(1, 1, 0),
            deps: DepSet::new(),
        };
        replica.handle(1, commit, 0);
        let actions = replica.submit(put(2, 1, 0), 0);
        let [Action::Send {
            msg: Message::MCollect { past, .. },
            ..
        }] = &actions[..]
        else {
            panic!("a submission is one MCollect: {actions:?}");
        };
        assert_eq!(*past, DepSet::from([w2]));
    }

    #[test]
    fn a_command_first_met_as_a_noop_is_indexed_at_its_commit() {
        // A takeover by a replica that only knows c1 as a missing dependency
        // probes with a noOp, which the index does not record. When c1 then
        // commits as the real command it must enter the index, or the next
        // write to its key would be ordered against nothing.
        let mut replica = Atlas::new(3, Config::new(5, 1), Topology::identity(3, 5));
        let c1 = Dot::new(1, 1);
        let probe = Message::MRec {
            dot: c1,
            cmd: Command::noop(),
            ballot: 7,
        };
        replica.handle(2, probe, 0);
        let commit = Message::MCommit {
            dot: c1,
            cmd: put(1, 1, 0),
            deps: DepSet::new(),
        };
        replica.handle(1, commit, 0);
        let actions = replica.submit(put(3, 1, 0), 0);
        let [Action::Send {
            msg: Message::MCollect { past, .. },
            ..
        }] = &actions[..]
        else {
            panic!("a submission is one MCollect: {actions:?}");
        };
        assert_eq!(*past, DepSet::from([c1]));
    }

    #[test]
    fn an_executed_identifier_answers_alike_before_and_after_a_restore() {
        // A snapshot keeps only command and dependencies of an executed
        // identifier. Replica 1 holds one it coordinated (decision flags
        // set) and one it accepted at a ballot before the commit; after a
        // restore every handler must still answer for them as before.
        let mut net = cluster(3, 1);
        net.submit(1, put(1, 1, 0));
        let (coordinated, accepted) = (Dot::new(1, 1), Dot::new(2, 1));
        let (cmd, deps) = (put(2, 1, 5), DepSet::new());
        let replica = net.replica(1);
        for msg in [
            Message::MConsensus {
                dot: accepted,
                cmd: cmd.clone(),
                deps: deps.clone(),
                ballot: 2,
            },
            Message::MCommit {
                dot: accepted,
                cmd: cmd.clone(),
                deps: deps.clone(),
            },
        ] {
            replica.handle(2, msg, 0);
        }
        let bytes = replica.save_state().expect("state encodes");
        let mut restored =
            Atlas::restore_state(1, Config::new(3, 1), Topology::identity(1, 3), &bytes)
                .expect("own snapshot restores");
        assert_eq!(restored.save_state(), Some(bytes));
        for dot in [coordinated, accepted] {
            let ack = RecAck {
                cmd: cmd.clone(),
                deps: deps.clone(),
                quorum: vec![1, 2],
                accepted_ballot: 0,
            };
            let (cmd, deps, past) = (cmd.clone(), deps.clone(), deps.clone());
            for (nth, msg) in [
                Message::MCollect {
                    dot,
                    cmd: cmd.clone(),
                    past,
                    quorum: vec![1, 2],
                },
                Message::MCollectAck {
                    dot,
                    deps: deps.clone(),
                },
                Message::MConsensus {
                    dot,
                    cmd: cmd.clone(),
                    deps: deps.clone(),
                    ballot: 9,
                },
                Message::MConsensusAck { dot, ballot: 0 },
                Message::MConsensusAck { dot, ballot: 2 },
                Message::MCommit { dot, cmd, deps },
                Message::MRec {
                    dot,
                    cmd: Command::noop(),
                    ballot: 9,
                },
                Message::MRecAck {
                    dot,
                    ack,
                    ballot: 0,
                },
            ]
            .into_iter()
            .enumerate()
            {
                let before = replica.handle(2, msg.clone(), 0);
                assert_eq!(before, restored.handle(2, msg, 0), "message {nth}");
            }
        }
        assert_eq!(replica.suspect(2, 0), restored.suspect(2, 0));
        assert_eq!(replica.save_state(), restored.save_state());
    }

    #[test]
    fn restore_refuses_state_of_another_layout() {
        let mut net = cluster(3, 1);
        net.submit(1, put(1, 1, 0));
        let replica = &net.replicas[0];
        let restore = |bytes: &[u8]| {
            Atlas::restore_state(1, Config::new(3, 1), Topology::identity(1, 3), bytes)
        };
        let bytes = replica.save_state().expect("state encodes");
        assert!(restore(&bytes).is_some());
        // What the previous layout wrote began with its rule's name.
        let mut old = bincode::serialize(&"atlas".to_string()).unwrap();
        old.extend_from_slice(&bytes[4..]);
        assert!(restore(&old).is_none());
        let mut stamped = bytes.clone();
        stamped[0] ^= 1;
        assert!(restore(&stamped).is_none(), "layout stamp is checked");
    }

    #[test]
    fn metrics_record_dependencies_and_commit_delay() {
        let mut net = cluster(3, 1);
        net.submit(1, put(1, 1, 0));
        net.submit(2, put(2, 1, 0));
        let m = net.replicas[0].metrics();
        assert_eq!(m.commits, 2);
        assert_eq!(m.executions, 2);
        assert_eq!(m.dependency_count, 2);
        assert!(
            m.mean_dependencies() > 0.0,
            "the second put depends on the first"
        );
        assert_eq!((m.batch_count, m.batch_sum), (2, 2));
    }
}
