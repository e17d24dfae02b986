//! The commit rule: the five decisions in which the paper's two
//! dependency-commit protocols differ (§3.2 Atlas, §3.3 EPaxos). Anything
//! that is not one of them is the [engine](crate::protocol) and is written
//! once.

use crate::recovery::RecAck;
use atlas_core::{Command, Config, DepSet, ProcessId};

/// Dependency sets reported by fast-quorum members, sorted by sender.
pub type Replies = [(ProcessId, DepSet)];

/// The dependency sets of `replies` (for [`DepSet::union`] and
/// [`DepSet::union_and_threshold`]).
pub fn sets(replies: &Replies) -> impl Iterator<Item = &DepSet> + Clone {
    replies.iter().map(|(_, deps)| deps)
}

/// The decisions a dependency-commit protocol takes its own way. A rule is a
/// compile-time parameter of [`Deps`](crate::Deps) and carries no state.
pub trait CommitRule {
    /// Protocol name. Also stamped into snapshots and executed markers, so
    /// one rule's bytes never restore under the other.
    const NAME: &'static str;

    /// Size of the fast quorum a coordinator collects from.
    fn fast_quorum_size(config: &Config) -> usize;

    /// With every fast-quorum reply in: `(true, deps)` commits `deps` on the
    /// fast path, `(false, deps)` proposes them to consensus.
    fn decide(config: &Config, cmd: &Command, replies: &Replies) -> (bool, DepSet);

    /// Accepts that make a consensus proposal survive the tolerated failures.
    fn accept_quorum_size(config: &Config) -> usize;

    /// Takeover replies that are sure to include any accepted proposal and
    /// enough of the fast quorum to reconstruct a fast-path commit.
    fn recovery_quorum_size(config: &Config) -> usize;

    /// The dependencies a takeover proposes when no reply (`acks`, sorted by
    /// sender) accepted anything but some saw the collect with fast quorum
    /// `fast_quorum`: a value equal to whatever `coordinator` may have
    /// committed on the fast path.
    fn recovered_deps(
        acks: &[(ProcessId, RecAck)],
        fast_quorum: &[ProcessId],
        coordinator: ProcessId,
    ) -> DepSet;
}

/// The Atlas rule (paper §3.2): fast quorums of `⌊n/2⌋ + f`, a fast path
/// whenever every dependency was reported by at least `f` members, and
/// Flexible Paxos quorums (`f + 1` to accept, `n − f` to recover).
#[derive(Debug)]
pub struct AtlasRule;

impl CommitRule for AtlasRule {
    const NAME: &'static str = "atlas";

    fn fast_quorum_size(config: &Config) -> usize {
        config.atlas_fast_quorum_size()
    }

    fn decide(config: &Config, cmd: &Command, replies: &Replies) -> (bool, DepSet) {
        let (union, threshold) = DepSet::union_and_threshold(sets(replies), config.f);
        // An NFR read (§4) commits from its majority whatever was reported.
        if (config.nfr && cmd.is_read_only()) || union == threshold {
            (true, union)
        } else if config.slow_path_pruning {
            // §4: dependencies reported by fewer than `f` members are safe
            // to drop from the proposal.
            (false, threshold)
        } else {
            (false, union)
        }
    }

    fn accept_quorum_size(config: &Config) -> usize {
        config.slow_quorum_size()
    }

    fn recovery_quorum_size(config: &Config) -> usize {
        config.recovery_quorum_size()
    }

    fn recovered_deps(
        acks: &[(ProcessId, RecAck)],
        fast_quorum: &[ProcessId],
        coordinator: ProcessId,
    ) -> DepSet {
        // If the initial coordinator replied it has not taken (and will
        // never take) the fast path, so the union over all replies is safe.
        // Otherwise, by Property 2, the union over the fast-quorum members
        // that replied reconstructs any fast-path proposal.
        let coordinator_replied = acks.iter().any(|(p, _)| *p == coordinator);
        let counted = acks
            .iter()
            .filter(|(p, _)| coordinator_replied || fast_quorum.contains(p));
        DepSet::union(counted.map(|(_, ack)| &ack.deps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_core::Dot;

    fn replies(sets: &[&[Dot]]) -> Vec<(ProcessId, DepSet)> {
        (1..)
            .zip(sets)
            .map(|(p, s)| (p, s.iter().copied().collect()))
            .collect()
    }

    #[test]
    fn atlas_fast_path_needs_every_dependency_reported_f_times() {
        let cmd = Command::put(atlas_core::Rifl::new(1, 1), 0, 1, 8);
        let (a, b) = (Dot::new(2, 1), Dot::new(3, 1));
        let config = Config::new(5, 2);
        // `a` twice, `b` once: not matching, but only `b` misses f = 2.
        let mixed = replies(&[&[a], &[a, b], &[], &[]]);
        assert_eq!(
            AtlasRule::decide(&config, &cmd, &mixed),
            (false, [a].into())
        );
        let unpruned = config.with_slow_path_pruning(false);
        assert_eq!(
            AtlasRule::decide(&unpruned, &cmd, &mixed),
            (false, [a, b].into())
        );
        // Non-matching replies still take the fast path once each
        // dependency has f reports; with f = 1 that is always.
        let twice = replies(&[&[a, b], &[a, b], &[], &[]]);
        assert_eq!(
            AtlasRule::decide(&config, &cmd, &twice),
            (true, [a, b].into())
        );
        assert!(AtlasRule::decide(&Config::new(5, 1), &cmd, &mixed).0);
    }
}
