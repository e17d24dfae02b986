//! # epaxos
//!
//! Baseline: **Egalitarian Paxos** (EPaxos, SOSP 2013) as characterized in
//! the Atlas paper (§3.3). The paper compares the two protocols inside one
//! framework so that only the commit rule differs (§5), and so does this
//! workspace: [`EPaxos`] is the dependency-commit engine of
//! [`atlas_protocol`] — same messages, execution layer, takeover recovery,
//! durability and reconfiguration hooks — under [`EPaxosRule`]. This crate
//! holds that rule and the argument for why it is safe.
//!
//! The five decisions, against Atlas's:
//!
//! * **Large fast quorums** whose size depends only on `n` (roughly `3n/4`):
//!   `f_max + ⌈(f_max + 1)/2⌉` with `f_max = ⌊(n−1)/2⌋` tolerated failures.
//! * **Strict fast-path condition**: the fast path is taken only when every
//!   fast-quorum member reports exactly the same dependency set, so
//!   concurrent conflicting commands usually force the slow path, which
//!   proposes the plain union.
//! * The slow path runs a Paxos accept round over a **majority** (not `f+1`),
//! * and a takeover collects a **majority** of replies (not `n − f`),
//! * from which it reconstructs a possible fast-path commit by *matching*,
//!   not by union — see below.
//!
//! # Instance recovery
//!
//! EPaxos' instance-recovery procedure is notoriously intricate (the Atlas
//! paper notes the published one contains a bug, §3.3; Bipartisan Paxos
//! devotes a paper section to why). The engine's ballot-based takeover
//! (`MRec`/`MRecAck`, then a regular accept phase) with this rule's value
//! selection is deliberately simpler than — and provably safe for — *this*
//! crate's strict fast-path variant, where the coordinator commits on the
//! fast path only when **every** fast-quorum member reported exactly the
//! same dependency set:
//!
//! 1. A survivor takes over an in-flight instance of a suspected
//!    coordinator with a takeover ballot it owns, collecting `MRecAck`s
//!    from a majority.
//! 2. If any reply carries a value accepted at a ballot > 0, the value
//!    accepted at the **highest ballot** is adopted (standard Paxos). Such
//!    a value always equals any fast-path commit (the coordinator decides
//!    between the paths exactly once), so this rule is consistent with it.
//! 3. Otherwise, if the replies show a pre-accepted instance
//!    ([`EPaxosRule::recovered_deps`](CommitRule::recovered_deps)): any
//!    majority intersects the (≈3n/4-sized) fast quorum in at least
//!    `⌈(f_max+1)/2⌉ ≥ 1` live members. If every responding fast-quorum
//!    member pre-accepted the **same** dependency set, a fast-path commit
//!    with exactly that set may have happened, and it is adopted verbatim.
//!    If any responding fast-quorum member reports a different set — or
//!    never saw the pre-accept at all — the strict matching condition
//!    proves the fast path was **not** taken, and the union of every
//!    reply's dependencies (responders that never saw the instance
//!    contribute their current conflicts) is proposed instead.
//! 4. If no reply ever saw the command, it is replaced with a `noOp` so
//!    dependants stop waiting (the dead coordinator's client retries).
//!
//! The chosen proposal then runs the regular accept phase at the takeover
//! ballot before being committed — and the proposal computed for a ballot
//! is memoized, so straggling replies can only re-send it, never re-derive
//! a different value at the same ballot. A *crashed-and-restarted* replica
//! is still handled by the runtime durability layer; `suspect` exists for
//! the coordinator that never comes back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use atlas_core::{Command, Config, DepSet, ProcessId};
use atlas_protocol::rule::{sets, Replies};
use atlas_protocol::{CommitRule, Deps, RecAck};

pub use atlas_protocol::Message;

/// An EPaxos replica: the dependency-commit engine under [`EPaxosRule`].
pub type EPaxos = Deps<EPaxosRule>;

/// The EPaxos rule (paper §3.3); the crate docs argue its safety.
#[derive(Debug)]
pub struct EPaxosRule;

impl CommitRule for EPaxosRule {
    const NAME: &'static str = "epaxos";

    fn fast_quorum_size(config: &Config) -> usize {
        config.epaxos_fast_quorum_size()
    }

    fn decide(_config: &Config, _cmd: &Command, replies: &Replies) -> (bool, DepSet) {
        let mut reported = sets(replies);
        let first = reported.next();
        let matching = reported.all(|deps| Some(deps) == first);
        (matching, DepSet::union(sets(replies)))
    }

    fn accept_quorum_size(config: &Config) -> usize {
        config.majority()
    }

    fn recovery_quorum_size(config: &Config) -> usize {
        config.majority()
    }

    fn recovered_deps(
        acks: &[(ProcessId, RecAck)],
        fast_quorum: &[ProcessId],
        _coordinator: ProcessId,
    ) -> DepSet {
        // Only fast-quorum members ever receive the pre-accept, so the
        // responders among them tell whether a fast-path commit is possible:
        // it required *every* member to pre-accept (non-empty quorum) the
        // same dependency set.
        let mut members = acks
            .iter()
            .filter(|(p, _)| fast_quorum.contains(p))
            .map(|(_, ack)| ack);
        match members.next() {
            Some(first)
                if !first.quorum.is_empty()
                    && members.all(|ack| !ack.quorum.is_empty() && ack.deps == first.deps) =>
            {
                first.deps.clone()
            }
            // The strict matching condition proves the fast path was not
            // taken: free choice. The union over every reply keeps all
            // conflicting commands ordered.
            _ => DepSet::union(acks.iter().map(|(_, ack)| &ack.deps)),
        }
    }
}

/// EPaxos's own tests, plus the tests that hold for **both** rules of the
/// engine — this is the crate that can name the two of them.
#[cfg(test)]
mod tests {
    use super::*;
    use atlas_core::{Action, Dot, Protocol, Rifl};
    use atlas_protocol::chaos::{sweep, ChaosNet};
    use atlas_protocol::{AtlasRule, Ballot};
    use std::collections::HashMap;

    fn cluster<R: CommitRule>(n: usize, f: usize) -> ChaosNet<Deps<R>> {
        ChaosNet::fifo(Config::new(n, f))
    }

    fn put(client: u64, seq: u64, key: u64) -> Command {
        Command::put(Rifl::new(client, seq), key, client, 100)
    }

    /// What `replica` committed for `dot`, if anything.
    fn committed<R: CommitRule>(replica: &Deps<R>, dot: Dot) -> Option<(Command, DepSet)> {
        let mut commits = replica.committed_log().into_iter();
        commits.find_map(|msg| match msg {
            Message::MCommit { dot: d, cmd, deps } if d == dot => Some((cmd, deps)),
            _ => None,
        })
    }

    #[test]
    fn quorum_sizes_match_the_paper() {
        // §3.2 / §3.3: fast, accept and recovery quorums of each rule.
        for n in [3usize, 5, 7, 9, 13] {
            for f in (1..=3).filter(|f| *f <= (n - 1) / 2) {
                let c = Config::new(n, f);
                assert_eq!(AtlasRule::fast_quorum_size(&c), n / 2 + f, "n={n} f={f}");
                assert_eq!(AtlasRule::accept_quorum_size(&c), f + 1);
                assert_eq!(AtlasRule::recovery_quorum_size(&c), n - f);
                let f_max = (n - 1) / 2;
                assert_eq!(
                    EPaxosRule::fast_quorum_size(&c),
                    f_max + (f_max + 2) / 2,
                    "n={n}"
                );
                assert_eq!(EPaxosRule::accept_quorum_size(&c), n / 2 + 1);
                assert_eq!(EPaxosRule::recovery_quorum_size(&c), n / 2 + 1);
            }
        }
    }

    #[test]
    fn fast_quorum_is_larger_than_atlas() {
        let config = Config::new(5, 2);
        assert_eq!(config.epaxos_fast_quorum_size(), 4);
        let config = Config::new(13, 2);
        assert_eq!(config.epaxos_fast_quorum_size(), 10);
        assert_eq!(config.atlas_fast_quorum_size(), 8);
    }

    #[test]
    fn non_conflicting_commands_take_fast_path() {
        let mut net = cluster::<EPaxosRule>(5, 2);
        net.submit(1, put(1, 1, 1));
        net.submit(2, put(2, 1, 2));
        let fast: u64 = net.replicas.iter().map(|r| r.metrics().fast_paths).sum();
        let slow: u64 = net.replicas.iter().map(|r| r.metrics().slow_paths).sum();
        assert_eq!(fast, 2);
        assert_eq!(slow, 0);
    }

    #[test]
    fn sequential_conflicting_commands_take_fast_path() {
        // Matching replies: every quorum member reports the same dependency.
        let mut net = cluster::<EPaxosRule>(5, 2);
        net.submit(1, put(1, 1, 0));
        net.submit(2, put(2, 1, 0));
        let fast: u64 = net.replicas.iter().map(|r| r.metrics().fast_paths).sum();
        assert_eq!(fast, 2);
    }

    #[test]
    fn all_commands_execute_everywhere_in_same_order() {
        let mut net = cluster::<EPaxosRule>(7, 3);
        for seq in 1..=5u64 {
            for coordinator in 1..=7u32 {
                net.submit(coordinator, put(coordinator as u64, seq, 0));
            }
        }
        let reference = net.executed_at(1);
        assert_eq!(reference.len(), 35);
        for id in 2..=7 {
            assert_eq!(net.executed_at(id), reference);
        }
    }

    #[test]
    fn executions_match_submissions_per_process() {
        let mut net = cluster::<EPaxosRule>(5, 2);
        for i in 0..20u64 {
            let coordinator = (i % 5 + 1) as ProcessId;
            net.submit(coordinator, put(coordinator as u64, i + 1, i % 4));
        }
        for id in 1..=5 {
            assert_eq!(net.executed_at(id).len(), 20);
        }
    }

    #[test]
    fn commit_metrics_are_recorded() {
        let mut net = cluster::<EPaxosRule>(5, 2);
        net.submit(1, put(1, 1, 0));
        let m = net.replicas[0].metrics();
        assert_eq!(m.commits, 1);
        assert_eq!(m.executions, 1);
    }

    #[test]
    fn killed_coordinator_instance_is_recovered_as_the_real_command() {
        // Coordinator 1 pre-accepts to part of its fast quorum {1,2,3,4}
        // and dies before deciding. Recovery by a survivor must commit the
        // *real* command (a fast-quorum member saw it), not a noOp.
        let mut net = cluster::<EPaxosRule>(5, 2);
        let cmd = put(1, 1, 0);
        net.submit_reaching(1, cmd.clone(), &[1, 2, 3]);
        net.crash(1);
        net.suspect(2, 1);
        let dot = Dot::new(1, 1);
        for id in 2..=5u32 {
            let (committed, _) =
                committed(net.replica(id), dot).unwrap_or_else(|| panic!("replica {id}"));
            assert!(!committed.is_noop(), "replica {id} committed a noOp");
            assert_eq!(committed.rifl, cmd.rifl);
            assert_eq!(
                net.executed_at(id).len(),
                1,
                "replica {id} must execute the recovered command"
            );
        }
        assert!(net.replicas[1].metrics().recoveries >= 1);
    }

    #[test]
    fn recovery_noops_an_instance_nobody_saw() {
        // Replica 3 commits a command that depends on ⟨1,1⟩, which no live
        // replica ever saw (its coordinator died before the pre-accept went
        // out). Recovery must commit ⟨1,1⟩ as a noOp so the dependant
        // executes.
        let mut net = cluster::<EPaxosRule>(5, 2);
        let missing = Dot::new(1, 1);
        let blocked = Dot::new(2, 1);
        let commit = Message::MCommit {
            dot: blocked,
            cmd: put(2, 1, 0),
            deps: [missing].into(),
        };
        let out = net.replica(3).handle(2, commit, 0);
        net.run(3, out);
        assert!(net.executed_at(3).is_empty(), "blocked on ⟨1,1⟩");
        net.crash(1);
        net.suspect(3, 1);
        let (cmd, _) = committed(net.replica(3), missing).expect("⟨1,1⟩ committed");
        assert!(cmd.is_noop());
        assert_eq!(net.replicas[2].metrics().noops, 1);
        // The dependant executed; the noOp itself is never applied.
        assert_eq!(net.executed_at(3), vec![blocked]);
    }

    /// Dispatches a suspicion at `at` and returns the takeover ballot it
    /// (re-)sent for `dot`.
    fn suspect_ballot<R: CommitRule>(
        net: &mut ChaosNet<Deps<R>>,
        at: ProcessId,
        suspected: ProcessId,
        dot: Dot,
    ) -> Ballot {
        let actions = net.replica(at).suspect(suspected, 0);
        let ballot = actions.iter().find_map(|action| match action {
            Action::Send {
                msg: Message::MRec { dot: d, ballot, .. },
                ..
            } if *d == dot => Some(*ballot),
            _ => None,
        });
        net.run(at, actions);
        ballot.expect("the suspicion takes the identifier over")
    }

    fn suspect_redispatch_resends_the_same_ballot<R: CommitRule>() {
        // With the recovery quorum unreachable, recovery stalls mid-way. A
        // re-dispatched suspicion (the runtime repeats them while the peer
        // stays dead) must re-send the *same* MRec, not open a second
        // recovery ballot for the instance.
        let mut net = cluster::<R>(5, 2);
        net.submit_reaching(1, put(1, 1, 0), &[1, 2]);
        net.crash(1);
        net.crash(4);
        net.crash(5);
        let dot = Dot::new(1, 1);
        let first_ballot = suspect_ballot(&mut net, 2, 1, dot);
        assert!(first_ballot > 5, "a takeover ballot was opened");
        assert_eq!(net.replicas[1].metrics().recoveries, 1);
        let again = suspect_ballot(&mut net, 2, 1, dot);
        assert_eq!(again, first_ballot, "re-dispatch opened a new ballot");
        assert!(
            committed(net.replica(2), dot).is_none(),
            "two replies cannot commit"
        );
        assert_eq!(
            net.replicas[1].metrics().recoveries,
            1,
            "a re-sent MRec is not a new recovery"
        );
        // Once a third replica is reachable again, the re-sent MRec at the
        // same ballot completes the recovery.
        net.crashed.remove(&4);
        assert_eq!(suspect_ballot(&mut net, 2, 1, dot), first_ballot);
        let (cmd, _) = committed(net.replica(2), dot).expect("recovered");
        assert!(!cmd.is_noop());
    }

    #[test]
    fn suspect_redispatch_resends_the_same_ballot_epaxos() {
        suspect_redispatch_resends_the_same_ballot::<EPaxosRule>();
    }

    #[test]
    fn suspect_redispatch_resends_the_same_ballot_atlas() {
        suspect_redispatch_resends_the_same_ballot::<AtlasRule>();
    }

    #[test]
    fn highest_accepted_ballot_wins_recovery() {
        // A proposal accepted at a ballot (a slow path or an earlier
        // recovery) must survive: the new coordinator adopts the value
        // accepted at the highest ballot, never a smaller pre-accept view.
        let mut net = cluster::<EPaxosRule>(5, 2);
        let dot = Dot::new(1, 1);
        let cmd = put(1, 1, 3);
        let deps: DepSet = [Dot::new(2, 9)].into();
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
        // Replica 5 learns the identifier only as a missing dependency.
        let commit = Message::MCommit {
            dot: Dot::new(2, 5),
            cmd: put(2, 5, 7),
            deps: [dot].into(),
        };
        let _ = net.replica(5).handle(2, commit, 0);
        net.suspect(5, 1);
        for id in [2u32, 3, 4, 5] {
            let (committed, committed_deps) =
                committed(net.replica(id), dot).unwrap_or_else(|| panic!("replica {id}"));
            assert_eq!(committed.rifl, cmd.rifl);
            assert_eq!(committed_deps, deps, "replica {id} lost the accepted deps");
        }
    }

    #[test]
    fn stale_recovery_messages_below_the_gc_floor_are_ignored() {
        // Regression: an MRec (or its ack) for an instance that executed
        // at every replica and was garbage-collected must be ignored — not
        // panic, and not resurrect an empty info entry GC can never drop.
        let mut net = cluster::<EPaxosRule>(3, 1);
        for seq in 1..=4u64 {
            net.submit(1, put(1, seq, 0));
        }
        let replica = net.replica(2);
        let horizon = replica.executed_watermarks();
        assert!(replica.gc_executed(&horizon) > 0);
        let tracked = replica.tracked_entries();
        let dot = Dot::new(1, 1);
        let rec = Message::MRec {
            dot,
            cmd: Command::noop(),
            ballot: 99,
        };
        assert!(
            replica.handle(3, rec, 0).is_empty(),
            "stale MRec must be dropped"
        );
        let ack = Message::MRecAck {
            dot,
            ack: RecAck {
                cmd: Command::noop(),
                deps: DepSet::new(),
                quorum: vec![],
                accepted_ballot: 0,
            },
            ballot: 99,
        };
        assert!(
            replica.handle(3, ack, 0).is_empty(),
            "stale ack must be dropped"
        );
        assert_eq!(
            replica.tracked_entries(),
            tracked,
            "a collected instance was resurrected"
        );
    }

    /// Recovery under realistic schedules, for either rule: commands
    /// stranded at random propagation stages, the coordinator crashed, and
    /// the survivors' concurrent recoveries delivered with random
    /// reordering, duplication and loss-to-the-dead — across many seeds,
    /// every survivor must commit the *same* `(command, dependencies)` per
    /// identifier (Invariant 1) and execute in the same order.
    #[test]
    fn atlas_recovery_converges_under_reordering_and_duplication() {
        let body = recovery_chaos_at::<AtlasRule>;
        sweep("atlas-recovery-convergence", 0xC4A05, 0..25, body);
    }

    #[test]
    fn epaxos_recovery_converges_under_reordering_and_duplication() {
        let body = recovery_chaos_at::<EPaxosRule>;
        sweep("epaxos-recovery-convergence", 0xE9A05, 0..25, body);
    }

    /// One exact schedule from each sweep above, pinned in-tree: if a sweep
    /// ever fails, its printed seed gets the same treatment, and these
    /// document how.
    #[test]
    fn atlas_recovery_converges_at_pinned_seed() {
        recovery_chaos_at::<AtlasRule>(0xC4A05 + 13);
    }

    #[test]
    fn epaxos_recovery_converges_at_pinned_seed() {
        recovery_chaos_at::<EPaxosRule>(0xE9A05 + 13);
    }

    /// The per-seed body of the recovery chaos sweeps.
    fn recovery_chaos_at<R: CommitRule>(seed: u64) {
        use rand::Rng;
        let mut net = ChaosNet::<Deps<R>>::new(5, 2, seed);
        // A few conflicting commands stranded at random subsets of the fast
        // quorum {1,2,3,4}; coordinator 1 owns them all and then crashes.
        // The coordinator always processes its own MCollect (the runtime
        // delivers self-addressed messages immediately), so `survivor_reach`
        // tracks who *else* saw each command.
        let stranded = net.rng().gen_range(1..=3u64);
        let mut survivor_reach: Vec<Vec<ProcessId>> = Vec::new();
        for seq in 1..=stranded {
            let reach_mask: [bool; 3] = [
                net.rng().gen_bool(0.6),
                net.rng().gen_bool(0.6),
                net.rng().gen_bool(0.6),
            ];
            let survivors: Vec<ProcessId> = [2u32, 3, 4]
                .into_iter()
                .zip(reach_mask)
                .filter(|(_, keep)| *keep)
                .map(|(id, _)| id)
                .collect();
            let mut reach = vec![1u32];
            reach.extend(&survivors);
            net.submit_reaching(1, put(1, seq, 0), &reach);
            survivor_reach.push(survivors);
        }
        // One fully propagated conflicting command from a survivor, so
        // there is always something blocked behind the stranded ones.
        net.submit(2, put(2, 1, 0));
        net.crash(1);

        // Every survivor suspects the coordinator, in random order, with
        // chaotic delivery of the recovery traffic. Two passes, mirroring
        // the runtime's periodic re-dispatch while a peer stays suspected:
        // recovering one command can *surface* further identifiers of the
        // dead coordinator (a recovered command's dependencies may name
        // dots no survivor had seen), and only a later pass can noOp those.
        for _pass in 0..2 {
            let mut suspecters = vec![2u32, 3, 4, 5];
            while !suspecters.is_empty() {
                let idx = net.rng().gen_range(0..suspecters.len());
                let at = suspecters.swap_remove(idx);
                net.suspect(at, 1);
            }
        }

        // Invariant 1: for every identifier any survivor committed, all
        // survivors that committed it agree on command + dependencies.
        let mut by_dot: HashMap<Dot, (bool, DepSet)> = HashMap::new();
        for replica in &net.replicas[1..] {
            for msg in replica.committed_log() {
                let Message::MCommit { dot, cmd, deps } = msg else {
                    unreachable!("the committed log holds commits");
                };
                let noop = cmd.is_noop();
                let entry = by_dot.entry(dot).or_insert_with(|| (noop, deps.clone()));
                assert_eq!(entry.0, noop, "seed {seed}: {dot:?} noop-ness differs");
                assert_eq!(entry.1, deps, "seed {seed}: {dot:?} committed deps differ");
            }
        }
        // Every stranded identifier that at least one *survivor* saw was
        // resolved by recovery (an identifier nobody alive ever saw is
        // rightly left alone — nothing can reference it).
        for seq in 1..=stranded {
            let reach = &survivor_reach[(seq - 1) as usize];
            assert!(
                reach.is_empty() || by_dot.contains_key(&Dot::new(1, seq)),
                "seed {seed}: stranded dot ⟨1,{seq}⟩ (seen by {reach:?}) never committed"
            );
        }
        // And the survivor's blocked command executed everywhere alive, in
        // the same global order.
        let reference = net.executed_at(2);
        assert!(
            !reference.is_empty(),
            "seed {seed}: survivor 2 executed nothing"
        );
        for id in [3u32, 4, 5] {
            assert_eq!(
                net.executed_at(id),
                reference,
                "seed {seed}: execution order diverges at {id}"
            );
        }
    }
}
