//! [`Base`]: the replica state that is the same whatever the commit rule —
//! identity, the configuration epoch with the `Config`/`Topology` that mirror
//! it, identifier horizons and metrics. Every protocol in this workspace
//! embeds one and hands it out through [`Protocol::base`](crate::Protocol::base).
//!
//! `Base` owns *decisions*, not just fields; two of the [`Protocol`]
//! contracts are enforced here and nowhere else:
//!
//! * **Idempotent epoch switches.** [`Base::install_view`] applies only a
//!   strictly newer view and says so, so a switch delivered twice (barrier
//!   execution, journal record, peer announcement, catch-up marker) changes
//!   nothing the second time. Every ballot a protocol mints afterwards must
//!   exceed [`ClusterView::ballot_floor`] of the installed view, which keeps
//!   ballot-owner arithmetic (modular in the member count) collision-free
//!   across epochs.
//! * **Quorums come from measured distance.** [`Base::closest`] is the one
//!   place quorums are drawn, over the order last installed by
//!   [`Base::discover`] (or [`Base::suspect`], which drops one process
//!   from it); an epoch switch keeps that order, dropping departed members
//!   and appending joiners until they are measured.
//! * **Identifier horizons never shrink.** [`Base::note_seen`] is kept apart
//!   from per-command bookkeeping so it survives garbage collection: it
//!   protects identifier *reissue* after a wipe, not replay.
//!
//! [`Protocol`]: crate::Protocol

use crate::{ClusterView, Config, IdMap, ProcessId, ProtocolStats, Topology};
use serde::{Deserialize, Serialize};

/// See the [module docs](self).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Base {
    id: ProcessId,
    /// Always `view.config(..)`.
    config: Config,
    /// Always spans `view.all_members()` (both member sets while joint);
    /// its order is the last one [discovered](Self::discover).
    topology: Topology,
    view: ClusterView,
    /// Highest sequence seen per identifier space.
    seen: IdMap<ProcessId, u64>,
    /// Protocol metrics accumulated so far.
    pub metrics: ProtocolStats,
}

impl Base {
    /// The base of replica `id` booting at epoch 0 over `topology.processes`
    /// (which need not contain `id`: a joiner boots knowing the incumbents).
    ///
    /// # Panics
    ///
    /// Panics if `topology` and `config` disagree on the number of members.
    pub fn new(id: ProcessId, config: Config, topology: Topology) -> Self {
        assert!(
            topology.processes.len() == config.n,
            "topology lists {} processes but config.n = {}",
            topology.processes.len(),
            config.n
        );
        let view = ClusterView::at(0, topology.processes.clone(), config.f);
        Self {
            id,
            config,
            topology,
            view,
            seen: IdMap::default(),
            metrics: ProtocolStats::default(),
        }
    }

    /// This replica's identifier.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The configuration of the current view.
    pub fn config(&self) -> Config {
        self.config
    }

    /// The view this replica operates in.
    pub fn view(&self) -> &ClusterView {
        &self.view
    }

    /// Installs `view` if it is strictly newer (re-deriving `config` and
    /// `topology` from it) and returns whether it was. Used alike for a
    /// `reconfigure` call and for the view a catch-up marker carries. The
    /// measured order survives the switch: departed members leave it and
    /// joiners are appended, in identifier order, until measured.
    pub fn install_view(&mut self, view: &ClusterView) -> bool {
        if view.epoch <= self.view.epoch {
            return false;
        }
        let members = view.all_members();
        let old = &self.topology;
        let kept = old.by_distance.iter().copied();
        let kept = kept.filter(|p| *p == self.id || members.contains(p));
        let joiners = members.iter().copied();
        let joiners = joiners.filter(|p| *p != self.id && !old.processes.contains(p));
        let by_distance = kept.chain(joiners).collect();
        self.topology = Topology {
            by_distance,
            ..Topology::from_members(self.id, &members)
        };
        self.config = view.config(self.config);
        self.view = view.clone();
        true
    }

    /// Whether the current view still includes this replica (in either
    /// member set while joint). A removed replica stops driving proposals;
    /// the runtime retires it shortly after.
    pub fn is_member(&self) -> bool {
        self.view.all_members().contains(&self.id)
    }

    /// Every process this replica talks to: the current members (of both
    /// configurations while joint) plus itself.
    pub fn everyone(&self) -> Vec<ProcessId> {
        let mut all = self.topology.processes.clone();
        if !all.contains(&self.id) {
            all.push(self.id);
            all.sort_unstable();
        }
        all
    }

    /// The closest `size` processes, this replica included — the one place
    /// quorums are drawn: a prefix of the [discovered](Self::discover)
    /// order, then the members it leaves out.
    pub fn closest(&self, size: usize) -> Vec<ProcessId> {
        self.topology.closest_quorum(size)
    }

    /// The processes this replica reaches, closest first (itself first).
    pub fn by_distance(&self) -> &[ProcessId] {
        &self.topology.by_distance
    }

    /// Whether `process` is in the [discovered](Self::discover) order —
    /// neither late nor suspected.
    pub fn reaches(&self, process: ProcessId) -> bool {
        self.topology.by_distance.contains(&process)
    }

    /// Whether the [discovered](Self::discover) order leaves out no member.
    /// Cheap enough for every commit: no allocation, no scan.
    pub fn reaches_all(&self) -> bool {
        let (order, members) = (&self.topology.by_distance, &self.topology.processes);
        // The order holds this replica, always, and members only.
        let joiner = members.binary_search(&self.id).is_err();
        order.len() == members.len() + usize::from(joiner)
    }

    /// Installs a measured order: `by_distance` ranks the processes this
    /// replica reaches, closest first. This replica always leads it,
    /// non-members are ignored, and a member left out is late or suspected
    /// and sorts last. Returns the members the order just left out, whose
    /// commands in flight the protocol must take over.
    pub fn discover(&mut self, by_distance: &[ProcessId]) -> Vec<ProcessId> {
        let mut order = vec![self.id];
        for &p in by_distance {
            if self.topology.processes.contains(&p) && !order.contains(&p) {
                order.push(p);
            }
        }
        let before = std::mem::replace(&mut self.topology.by_distance, order);
        let after = &self.topology.by_distance;
        before.into_iter().filter(|p| !after.contains(p)).collect()
    }

    /// [`discover`](Self::discover)s the current order without `suspected`.
    pub fn suspect(&mut self, suspected: ProcessId) -> Vec<ProcessId> {
        let mut order = self.topology.by_distance.clone();
        order.retain(|&p| p != suspected);
        self.discover(&order)
    }

    /// [`ClusterView::quorum_met`] under the current view and configuration.
    pub fn quorum_met(
        &self,
        acks: impl Iterator<Item = ProcessId> + Clone,
        size_of: impl Fn(&Config) -> usize,
    ) -> bool {
        self.view.quorum_met(acks, self.config, size_of)
    }

    /// Records that identifier `seq` of `space` exists.
    pub fn note_seen(&mut self, space: ProcessId, seq: u64) {
        let seen = self.seen.entry(space).or_insert(0);
        *seen = (*seen).max(seq);
    }

    /// The highest identifier of `space` ever [noted](Self::note_seen).
    pub fn seen_horizon(&self, space: ProcessId) -> u64 {
        self.seen.get(&space).copied().unwrap_or(0)
    }

    /// Every identifier space to report a watermark for, sorted: the current
    /// members plus every space ever seen — so the leftover entries of a
    /// member a reconfiguration removed can still be collected.
    pub fn spaces(&self) -> Vec<ProcessId> {
        let mut spaces = self.topology.processes.clone();
        spaces.extend(self.seen.keys().copied());
        spaces.sort_unstable();
        spaces.dedup();
        spaces
    }

    /// Whether a snapshot holding this base may restore as replica `id`
    /// booted with `config`. Past epoch 0 the snapshot's own view is
    /// authoritative — the caller can only know the boot-time configuration,
    /// which a reconfiguration may have replaced.
    pub fn restores_as(&self, id: ProcessId, config: Config) -> bool {
        self.id == id && (self.view.epoch > 0 || self.config == config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(id: ProcessId) -> Base {
        Base::new(id, Config::new(3, 1), Topology::identity(id, 3))
    }

    #[test]
    fn install_view_is_idempotent_and_mirrors_the_view() {
        let mut b = base(3);
        let joint = b.view().enter(&[1, 2, 4], 1).unwrap();
        assert!(b.install_view(&joint));
        assert!(!b.install_view(&joint), "same epoch twice changes nothing");
        assert_eq!(b.everyone(), vec![1, 2, 3, 4]);
        assert!(b.is_member(), "outgoing members stay until finalize");
        assert!(b.install_view(&joint.finalize().unwrap()));
        assert_eq!((b.config().n, b.is_member()), (3, false));
        assert_eq!(b.everyone(), vec![1, 2, 3, 4], "self is always addressed");
        assert!(!b.install_view(&joint), "older epochs are ignored");
    }

    #[test]
    fn quorums_prefer_unsuspected_processes() {
        let mut b = Base::new(1, Config::new(5, 2), Topology::identity(1, 5));
        assert_eq!(b.closest(3), vec![1, 2, 3]);
        assert_eq!(b.suspect(2), vec![2]);
        assert_eq!(b.suspect(4), vec![4]);
        assert!(b.suspect(4).is_empty() && b.suspect(1).is_empty());
        assert_eq!(b.closest(3), vec![1, 3, 5]);
        assert_eq!(b.closest(4), vec![1, 3, 5, 2], "suspects sort last");
        assert!(!b.reaches(2) && b.reaches(5));
        assert!(!b.reaches_all());
    }

    #[test]
    fn reaches_all_counts_members_and_a_joiner() {
        let mut b = base(3);
        assert!(b.reaches_all());
        b.discover(&[2, 1]);
        assert!(b.reaches_all(), "a reorder leaves nobody out");
        b.discover(&[1]);
        assert!(!b.reaches_all());
        // A joiner leads its order without being one of the members.
        let mut joiner = Base::new(4, Config::new(3, 1), Topology::from_members(4, &[1, 2, 3]));
        assert!(joiner.reaches_all());
        joiner.suspect(2);
        assert!(!joiner.reaches_all());
    }

    #[test]
    fn discover_ranks_members_and_reports_who_left_the_order() {
        let mut b = base(3);
        assert_eq!(b.by_distance(), [3, 1, 2]);
        assert!(b.discover(&[2, 1, 9]).is_empty(), "9 is not a member");
        assert_eq!(b.by_distance(), [3, 2, 1]);
        assert_eq!(b.closest(2), vec![3, 2]);
        assert_eq!(b.discover(&[3, 1]), vec![2]);
        assert_eq!(b.closest(2), vec![3, 1]);
        assert_eq!(b.closest(3), vec![3, 1, 2]);
    }

    #[test]
    fn measured_order_survives_an_epoch_switch() {
        let mut b = Base::new(3, Config::new(4, 1), Topology::identity(3, 4));
        b.discover(&[4, 2, 1]);
        // 1 leaves, 5 joins: the measured rest keeps its order and the
        // joiner is appended until measured.
        let joint = b.view().enter(&[2, 3, 4, 5], 1).unwrap();
        assert!(b.install_view(&joint));
        assert_eq!(b.by_distance(), [3, 4, 2, 1, 5]);
        assert!(b.install_view(&joint.finalize().unwrap()));
        assert_eq!(b.by_distance(), [3, 4, 2, 5]);
        assert_eq!(b.closest(3), vec![3, 4, 2]);
        // A member left out (late) stays out across the switch.
        b.suspect(4);
        let next = b.view().enter(&[2, 3, 4, 5, 6], 1).unwrap();
        b.install_view(&next);
        assert_eq!(b.by_distance(), [3, 2, 5, 6]);
        assert_eq!(b.closest(5), vec![3, 2, 5, 6, 4]);
    }

    #[test]
    fn horizons_and_spaces_outlive_membership() {
        let mut b = base(1);
        b.note_seen(9, 4);
        b.note_seen(9, 2);
        assert_eq!((b.seen_horizon(9), b.seen_horizon(2)), (4, 0));
        assert_eq!(b.spaces(), vec![1, 2, 3, 9]);
    }

    #[test]
    fn restore_identity_check() {
        let mut b = base(2);
        assert!(b.restores_as(2, Config::new(3, 1)));
        assert!(!b.restores_as(1, Config::new(3, 1)));
        assert!(!b.restores_as(2, Config::new(5, 1)));
        let joint = b.view().enter(&[1, 2, 3, 4, 5], 2).unwrap();
        b.install_view(&joint);
        assert!(
            b.restores_as(2, Config::new(3, 1)),
            "the view is authoritative"
        );
    }
}
