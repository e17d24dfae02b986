//! Epoch-stamped cluster membership views.
//!
//! A [`ClusterView`] names one *configuration epoch*: the member set a
//! protocol instance gathers quorums from, the failure budget `f` it
//! tolerates, and — during a reconfiguration — the previous configuration
//! that proposals must *also* satisfy (the joint-quorum transition window).
//!
//! Reconfiguration is decided through the replicated log itself: a
//! [`Reconfigure`](crate::command::ReconfigOp) command is sequenced like any
//! client command, and because it conflicts with every other command it acts
//! as a total-order barrier — every replica applies the resulting view at
//! the same position of its execution order. The lifecycle is two-phase:
//!
//! ```text
//!   epoch e            epoch e+1 (joint)                 epoch e+2
//!   members = OLD  --> members = NEW, old = Some(OLD) --> members = NEW
//!                  ^                                   ^
//!            Enter executes                     Finalize executes
//! ```
//!
//! In the joint epoch quorum checks must pass in **both** configurations
//! ([`ClusterView::quorum_met`]), which is what keeps a command committed
//! under the old configuration recoverable by the new one: any old-config
//! quorum and any joint quorum intersect in the old member set, and any
//! joint quorum and any new-config quorum intersect in the new member set.

use crate::config::Config;
use crate::id::ProcessId;
use serde::{Deserialize, Serialize};

/// Ballots minted inside epoch `e` are strictly above `e * EPOCH_BALLOT_STRIDE`,
/// so a takeover ballot minted under a new member count can never collide
/// with a ballot minted under the old one (ballot-to-owner arithmetic is
/// modular in the member count, which changes across epochs). The stride is
/// far beyond any realistic takeover count inside a single epoch — ballots
/// grow by about `n` per takeover.
pub const EPOCH_BALLOT_STRIDE: u64 = 1 << 32;

/// One configuration epoch: the current member set plus, during a
/// reconfiguration, the previous one (see the module docs for the lifecycle).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterView {
    /// The configuration epoch. Strictly increasing; every membership step
    /// (entering the joint window, finalizing it) bumps it by one.
    pub epoch: u64,
    /// Current (target) members, sorted by identifier.
    pub members: Vec<ProcessId>,
    /// Failures tolerated by the current configuration.
    pub f: usize,
    /// During the joint window: the previous `(members, f)` that quorums
    /// must also be gathered in. `None` outside a reconfiguration.
    pub old: Option<(Vec<ProcessId>, usize)>,
}

impl ClusterView {
    /// The view every cluster boots in: epoch 0, members `1..=n`.
    pub fn initial(config: Config) -> Self {
        Self {
            epoch: 0,
            members: (1..=config.n as ProcessId).collect(),
            f: config.f,
            old: None,
        }
    }

    /// Builds a view at a given epoch from an explicit member list.
    pub fn at(epoch: u64, members: impl IntoIterator<Item = ProcessId>, f: usize) -> Self {
        let mut members: Vec<ProcessId> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        Self {
            epoch,
            members,
            f,
            old: None,
        }
    }

    /// Number of members in the current configuration.
    pub fn n(&self) -> usize {
        self.members.len()
    }

    /// Whether `id` is a member of the current configuration.
    pub fn contains(&self, id: ProcessId) -> bool {
        self.members.contains(&id)
    }

    /// Whether the view is in the joint-quorum transition window.
    pub fn is_joint(&self) -> bool {
        self.old.is_some()
    }

    /// Every process a replica in this view talks to: the current members
    /// plus, during the joint window, any old member on its way out. Sorted.
    pub fn all_members(&self) -> Vec<ProcessId> {
        let mut all = self.members.clone();
        if let Some((old, _)) = &self.old {
            all.extend(old.iter().copied());
        }
        all.sort_unstable();
        all.dedup();
        all
    }

    /// The [`Config`] of the current (target) configuration, inheriting the
    /// optimization switches of `base`.
    pub fn config(&self, base: Config) -> Config {
        Config::new(self.members.len(), self.f)
            .with_nfr(base.nfr)
            .with_slow_path_pruning(base.slow_path_pruning)
    }

    /// The [`Config`] of the outgoing configuration, while in the joint
    /// window.
    pub fn old_config(&self, base: Config) -> Option<Config> {
        self.old.as_ref().map(|(members, f)| {
            Config::new(members.len(), *f)
                .with_nfr(base.nfr)
                .with_slow_path_pruning(base.slow_path_pruning)
        })
    }

    /// Ballots minted in this epoch must exceed this floor (see
    /// [`EPOCH_BALLOT_STRIDE`]).
    pub fn ballot_floor(&self) -> u64 {
        self.epoch * EPOCH_BALLOT_STRIDE
    }

    /// Whether `acks` (distinct processes) satisfies a `size_of`-sized
    /// quorum in the current configuration **and**, during the joint window,
    /// in the old one.
    ///
    /// `size_of` maps a configuration to the quorum size the caller needs
    /// (e.g. [`Config::slow_quorum_size`]); acks from non-members of a
    /// configuration do not count towards that configuration's threshold.
    pub fn quorum_met(
        &self,
        acks: impl Iterator<Item = ProcessId> + Clone,
        base: Config,
        size_of: impl Fn(&Config) -> usize,
    ) -> bool {
        let count = |members: &[ProcessId]| acks.clone().filter(|id| members.contains(id)).count();
        if count(&self.members) < size_of(&self.config(base)) {
            return false;
        }
        match (&self.old, self.old_config(base)) {
            (Some((old_members, _)), Some(old_cfg)) => count(old_members) >= size_of(&old_cfg),
            _ => true,
        }
    }

    /// The view after a `Reconfigure::Enter { members, f }` executes in this
    /// view: the joint epoch. Entering while already joint (or with the
    /// current member set and `f`) returns `None` — the command executes as
    /// a no-op, which is what makes duplicate submissions harmless.
    pub fn enter(&self, members: &[ProcessId], f: usize) -> Option<ClusterView> {
        if self.is_joint() {
            return None;
        }
        let mut target: Vec<ProcessId> = members.to_vec();
        target.sort_unstable();
        target.dedup();
        if target == self.members && f == self.f {
            return None;
        }
        Some(ClusterView {
            epoch: self.epoch + 1,
            members: target,
            f,
            old: Some((self.members.clone(), self.f)),
        })
    }

    /// The view after a `Reconfigure::Finalize` executes in this view: the
    /// joint window closes and the target configuration stands alone.
    /// `None` outside a joint window (duplicate finalizes are no-ops).
    pub fn finalize(&self) -> Option<ClusterView> {
        self.old.as_ref()?;
        Some(ClusterView {
            epoch: self.epoch + 1,
            members: self.members.clone(),
            f: self.f,
            old: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acks(ids: &[ProcessId]) -> impl Iterator<Item = ProcessId> + Clone + '_ {
        ids.iter().copied()
    }

    #[test]
    fn initial_view_matches_config() {
        let view = ClusterView::initial(Config::new(3, 1));
        assert_eq!(view.epoch, 0);
        assert_eq!(view.members, vec![1, 2, 3]);
        assert!(!view.is_joint());
        assert_eq!(view.all_members(), vec![1, 2, 3]);
    }

    #[test]
    fn enter_then_finalize_walks_the_lifecycle() {
        let v0 = ClusterView::initial(Config::new(3, 1));
        let v1 = v0.enter(&[1, 2, 4], 1).expect("enters joint window");
        assert_eq!(v1.epoch, 1);
        assert!(v1.is_joint());
        assert_eq!(v1.members, vec![1, 2, 4]);
        assert_eq!(v1.all_members(), vec![1, 2, 3, 4]);
        // A second Enter inside the joint window is a no-op.
        assert!(v1.enter(&[1, 2, 5], 1).is_none());
        let v2 = v1.finalize().expect("finalizes");
        assert_eq!(v2.epoch, 2);
        assert!(!v2.is_joint());
        assert_eq!(v2.members, vec![1, 2, 4]);
        // A second Finalize outside the window is a no-op.
        assert!(v2.finalize().is_none());
        // Re-entering the current configuration is a no-op.
        assert!(v2.enter(&[4, 2, 1], 1).is_none());
    }

    #[test]
    fn joint_quorums_need_both_configurations() {
        let joint = ClusterView::initial(Config::new(3, 1))
            .enter(&[1, 2, 4, 5, 6], 2)
            .unwrap();
        let majority = |cfg: &Config| cfg.majority();
        // Majority of new (3 of {1,2,4,5,6}) but only one of old {1,2,3}.
        assert!(!joint.quorum_met(acks(&[4, 5, 6]), Config::new(3, 1), majority));
        // Majority of old but not of new.
        assert!(!joint.quorum_met(acks(&[1, 2, 3]), Config::new(3, 1), majority));
        // Both at once.
        assert!(joint.quorum_met(acks(&[1, 2, 4, 5]), Config::new(3, 1), majority));
        // Outside the window only the current configuration counts.
        let done = joint.finalize().unwrap();
        assert!(done.quorum_met(acks(&[4, 5, 6]), Config::new(3, 1), majority));
    }

    #[test]
    fn ballot_floors_are_epoch_disjoint() {
        let v0 = ClusterView::initial(Config::new(3, 1));
        let v1 = v0.enter(&[1, 2, 4], 1).unwrap();
        assert_eq!(v0.ballot_floor(), 0);
        assert!(v1.ballot_floor() > v0.ballot_floor());
        assert_eq!(v1.ballot_floor(), EPOCH_BALLOT_STRIDE);
    }
}
