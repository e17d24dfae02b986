//! The replica's durable side: the journal it writes ahead, the snapshots
//! it cuts and the garbage-collection rounds that keep both bounded (the
//! crate docs give the design, [`crate::journal`] the on-disk format and
//! the cut → write → truncate steps).
//!
//! Each journaled input reaches the protocol through one function: live
//! dispatch stages the [`JournalRecord`] and applies it as an [`Input`];
//! replay turns the record into the same [`Input`] ([`Input::decode`]) and
//! applies it at time 0. Live-only counters and logs stay with the live
//! callers, so replay records no metric.
//!
//! While GC is on, watermarks go out every tick and a round runs every
//! `gc_every`-th tick **and right before every snapshot cut**, so a cut
//! encodes the in-flight window rather than the executed history. A round
//! hands the protocol the all-executed horizon ([`fold_horizon`]);
//! `ARCHITECTURE.md` argues why collecting below it never strands a
//! recovering replica.

use crate::journal::{corrupt, Journal, JournalRecord, ReplicaSnapshot};
use atlas_core::{ClusterView, Command, ProcessId};
use serde::Deserialize;
use std::collections::HashMap;
use std::io;
use std::time::Instant;

/// One protocol input: a [`JournalRecord`] with its peer message decoded.
pub(crate) enum Input<M> {
    /// A client (or the replica itself) submitted a command.
    Submit(Command),
    /// A peer's protocol message.
    Peer(ProcessId, M),
    /// Never reissue identifiers at or below this sequence.
    Advance(u64),
    /// Collect what every replica executed below this horizon.
    Gc(Vec<(ProcessId, u64)>),
    /// A configuration view adopted off the log, with its addresses.
    Epoch(ClusterView, Vec<(ProcessId, String)>),
    /// The failure detector suspected this peer.
    Suspect(ProcessId),
    /// The failure detector measured this distance order.
    Discover(Vec<ProcessId>),
}

impl<M: Deserialize> Input<M> {
    /// The input `record` stands for. Only a `Peer` record decodes
    /// anything; live dispatch never passes one here, because the message
    /// it journals is already decoded.
    pub fn decode(record: JournalRecord) -> io::Result<Self> {
        Ok(match record {
            JournalRecord::Submit { cmd } => Self::Submit(cmd),
            JournalRecord::Peer { from, payload } => {
                let msg = bincode::deserialize::<M>(&payload)
                    .map_err(|e| corrupt(format!("journaled message no longer decodes: {e}")))?;
                Self::Peer(from, msg)
            }
            JournalRecord::Advance { past } => Self::Advance(past),
            JournalRecord::Gc { horizon } => Self::Gc(horizon),
            JournalRecord::Epoch { view, addrs } => Self::Epoch(view, addrs),
            JournalRecord::Suspect { peer } => Self::Suspect(peer),
            JournalRecord::Discover { by_distance } => Self::Discover(by_distance),
        })
    }
}

/// The journal plus the garbage-collection bookkeeping that decides when a
/// round runs and what it may collect.
pub(crate) struct Durability {
    /// `None` for an ephemeral replica, and while the journal replays.
    journal: Option<Journal>,
    /// GC cadence in ticks (0 = disabled).
    gc_every: u64,
    /// Latest executed-watermark report from each member. Runtime state,
    /// not journaled: it only decides *when* GC fires; the GC rounds
    /// themselves are journaled. Reports are replaced, not maxed — a peer
    /// that rejoins wiped legitimately reports lower values, which merely
    /// delays GC (stale-higher values are equally safe; see
    /// `ARCHITECTURE.md`).
    peer_watermarks: HashMap<ProcessId, Vec<(ProcessId, u64)>>,
    /// The last horizon handed to the protocol per identifier space, to
    /// skip (and not journal) rounds where nothing advanced.
    last_gc_horizon: HashMap<ProcessId, u64>,
}

impl Durability {
    /// No journal yet (see [`Durability::attach`]); GC every `gc_every`
    /// ticks.
    pub fn new(gc_every: u64) -> Self {
        Self {
            journal: None,
            gc_every,
            peer_watermarks: HashMap::new(),
            last_gc_horizon: HashMap::new(),
        }
    }

    /// Starts journaling live inputs — after replay, which must not write
    /// the records it reads back into the WAL.
    pub fn attach(&mut self, journal: Journal) {
        self.journal = Some(journal);
    }

    /// The journal, for the turn to stage into and write.
    pub fn journal(&mut self) -> Option<&mut Journal> {
        self.journal.as_mut()
    }

    /// Whether live inputs are journaled.
    pub fn is_durable(&self) -> bool {
        self.journal.is_some()
    }

    /// Live WAL segment files (0 without a journal).
    pub fn wal_segments(&self) -> u64 {
        self.journal.as_ref().map_or(0, |j| j.wal_segments() as u64)
    }

    /// Whether GC runs at all (watermarks then go out every tick).
    pub fn gc_on(&self) -> bool {
        self.gc_every > 0
    }

    /// Whether tick number `ticks` runs a cadence round.
    pub fn gc_due(&self, ticks: u64) -> bool {
        self.gc_on() && ticks.is_multiple_of(self.gc_every)
    }

    /// Member `from` reported its executed watermarks.
    pub fn report(&mut self, from: ProcessId, watermarks: Vec<(ProcessId, u64)>) {
        self.peer_watermarks.insert(from, watermarks);
    }

    /// `peer` left the configuration: its report no longer counts.
    pub fn forget(&mut self, peer: ProcessId) {
        self.peer_watermarks.remove(&peer);
    }

    /// The horizon a GC round would journal now, given this replica's own
    /// watermarks and the current `members` (see [`fold_horizon`]).
    pub fn horizon(
        &self,
        mine: Vec<(ProcessId, u64)>,
        members: impl IntoIterator<Item = ProcessId>,
    ) -> Option<Vec<(ProcessId, u64)>> {
        fold_horizon(mine, &self.peer_watermarks, members, &self.last_gc_horizon)
    }

    /// The protocol collected `dropped` entries below `horizon`, live or in
    /// replay: remember the horizon, and have a round that shrank the state
    /// cut a snapshot, which truncates the WAL and prunes older snapshots.
    pub fn collected(&mut self, horizon: &[(ProcessId, u64)], dropped: u64) {
        self.last_gc_horizon.extend(horizon.iter().copied());
        if let (true, Some(journal)) = (dropped > 0, &mut self.journal) {
            journal.want_snapshot();
        }
    }

    /// The horizon collected so far, sorted by space (for metrics).
    pub fn collected_horizon(&self) -> Vec<(ProcessId, u64)> {
        let mut horizon: Vec<(ProcessId, u64)> = self
            .last_gc_horizon
            .iter()
            .map(|(&space, &h)| (space, h))
            .collect();
        horizon.sort_unstable();
        horizon
    }

    /// Whether a snapshot is due and the writer is free.
    pub fn snapshot_due(&self) -> bool {
        self.journal.as_ref().is_some_and(Journal::snapshot_due)
    }

    /// Hands `cut` to the journal ([`Journal::save_snapshot`]). No-op
    /// without a journal.
    pub fn save_snapshot(
        &mut self,
        cut: ReplicaSnapshot,
        started: Instant,
        inline: bool,
    ) -> io::Result<()> {
        match &mut self.journal {
            Some(journal) => journal.save_snapshot(cut, started, inline),
            None => Ok(()),
        }
    }

    /// The snapshot writer reported on the cut at `index`.
    pub fn snapshot_written(&mut self, index: u64, result: io::Result<bool>) -> io::Result<()> {
        match &mut self.journal {
            Some(journal) => journal.snapshot_written(index, result),
            None => Ok(()),
        }
    }
}

/// The all-executed horizon a GC round hands to the protocol: the pointwise
/// minimum of `mine` and every member's report, over the identifier spaces
/// every report names, keeping only the spaces that advanced past `last`
/// (sorted by space). `None` while some member has never reported (down, or
/// GC disabled there: its executed set is unknown) or when nothing advanced.
/// Only `members`' reports count, so a member removed by reconfiguration no
/// longer holds the horizon hostage, which is how GC resumes after a dead
/// replica is swapped out.
pub(crate) fn fold_horizon(
    mine: Vec<(ProcessId, u64)>,
    reports: &HashMap<ProcessId, Vec<(ProcessId, u64)>>,
    members: impl IntoIterator<Item = ProcessId>,
    last: &HashMap<ProcessId, u64>,
) -> Option<Vec<(ProcessId, u64)>> {
    let mut horizon: HashMap<ProcessId, u64> = mine.into_iter().collect();
    for member in members {
        let report: HashMap<ProcessId, u64> = reports.get(&member)?.iter().copied().collect();
        horizon.retain(|space, h| match report.get(space) {
            Some(&theirs) => {
                *h = (*h).min(theirs);
                true
            }
            None => false,
        });
    }
    let mut horizon: Vec<(ProcessId, u64)> = horizon
        .into_iter()
        .filter(|&(space, h)| h > last.get(&space).copied().unwrap_or(0))
        .collect();
    horizon.sort_unstable();
    (!horizon.is_empty()).then_some(horizon)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reports(
        entries: &[(ProcessId, &[(ProcessId, u64)])],
    ) -> HashMap<ProcessId, Vec<(ProcessId, u64)>> {
        entries
            .iter()
            .map(|&(peer, report)| (peer, report.to_vec()))
            .collect()
    }

    #[test]
    fn horizon_is_the_pointwise_minimum() {
        let reports = reports(&[
            (2, &[(1, 7), (2, 9), (3, 4)]),
            (3, &[(1, 5), (2, 12), (3, 6)]),
        ]);
        let mine = vec![(1, 6), (2, 10), (3, 8)];
        let horizon = fold_horizon(mine, &reports, [2, 3], &HashMap::new());
        assert_eq!(horizon, Some(vec![(1, 5), (2, 9), (3, 4)]));
    }

    #[test]
    fn a_space_missing_from_any_report_is_dropped() {
        let reports = reports(&[(2, &[(1, 7), (2, 9)]), (3, &[(1, 5), (3, 6)])]);
        let mine = vec![(1, 6), (2, 10), (3, 8)];
        let horizon = fold_horizon(mine, &reports, [2, 3], &HashMap::new());
        assert_eq!(horizon, Some(vec![(1, 5)]));
    }

    #[test]
    fn a_member_that_never_reported_blocks_the_round() {
        let reports = reports(&[(2, &[(1, 7)])]);
        assert_eq!(
            fold_horizon(vec![(1, 6)], &reports, [2, 3], &HashMap::new()),
            None
        );
    }

    #[test]
    fn a_non_members_report_is_ignored() {
        // Replica 4 left the configuration; its low report must not hold
        // the horizon back.
        let reports = reports(&[(2, &[(1, 7)]), (4, &[(1, 1)])]);
        let horizon = fold_horizon(vec![(1, 6)], &reports, [2], &HashMap::new());
        assert_eq!(horizon, Some(vec![(1, 6)]));
    }

    #[test]
    fn a_horizon_that_did_not_advance_yields_no_record() {
        let reports = reports(&[(2, &[(1, 7), (2, 3)])]);
        let last: HashMap<ProcessId, u64> = [(1, 6), (2, 2)].into_iter().collect();
        let horizon = fold_horizon(vec![(1, 6), (2, 3)], &reports, [2], &last);
        assert_eq!(horizon, Some(vec![(2, 3)]), "only the advanced space");
        let last: HashMap<ProcessId, u64> = [(1, 6), (2, 3)].into_iter().collect();
        assert_eq!(
            fold_horizon(vec![(1, 6), (2, 3)], &reports, [2], &last),
            None
        );
    }

    #[test]
    fn collected_merges_the_horizon_per_space() {
        let mut durability = Durability::new(1);
        durability.collected(&[(1, 5), (2, 3)], 0);
        durability.collected(&[(2, 4)], 0);
        assert_eq!(durability.collected_horizon(), vec![(1, 5), (2, 4)]);
    }
}
