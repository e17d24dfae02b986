//! Membership: who the replica's peers are, how it reaches them and
//! whether they are alive.
//!
//! [`Membership`] owns the runtime's configuration view and address book,
//! the outbound links, the failure detector and the per-peer bookkeeping
//! (epoch and probe stamps). Links are spawned and retired in one place,
//! [`Membership::sync_links`], at boot as at every view change; addresses
//! are merged in one place too.
//!
//! The runtime's view advances from **both** executed `Reconfigure`
//! barriers ([`Membership::barrier`]) and peer epoch announcements; the
//! hosted protocol's own view only at barrier execution. Peers still
//! stamping an older epoch are re-announced to on a slow cadence, and in a
//! joint window the designated member auto-submits the `Finalize` barrier
//! once the window is stable ([`FinalizeGate`]). Suspicions and distance
//! orders the detector reports are protocol inputs: the replica journals
//! and dispatches them (see [`crate::detector`] for the detector itself).

use crate::config::ReplicaConfig;
use crate::detector::{DetectorEvent, FailureDetector};
use crate::netem::NetProfile;
use crate::transport::{clock_us, PeerLink, DEFAULT_RESEND_BUFFER_CAP};
use crate::wire::{EpochUpdate, Probe};
use atlas_core::{Base, ClusterView, Command, ProcessId, ReconfigOp, Rifl};
use atlas_metrics::LinkSnapshot;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Re-announce the configuration epoch to peers whose frames still carry an
/// older one every this many ticks — the repair path for a replica (or
/// joiner) that missed the `Reconfigure` barrier's commit traffic.
const EPOCH_ANNOUNCE_EVERY: u64 = 40;

/// Ticks a joint window must dwell — with every target member connected,
/// caught up (empty resend buffers) and trusted — before the designated
/// member auto-submits the `Finalize` barrier. The dwell is the
/// bootstrap-before-voting rule's safety margin: a joiner that only just
/// connected gets a few heartbeat rounds to drain before the old
/// configuration is dissolved.
const AUTO_FINALIZE_DWELL_TICKS: u64 = 10;

/// Re-submit a lost auto-`Finalize` after this many ticks still joint.
const AUTO_FINALIZE_RETRY_TICKS: u64 = 400;

/// Client-id space for internally minted reconfiguration commands (the
/// auto-`Finalize`), disjoint per replica so concurrent submitters never
/// collide on a rifl.
const RECONFIG_CLIENT_BASE: u64 = 0xEC0_0000;

/// The replica's peers: configuration view, addresses, links, liveness.
pub(crate) struct Membership {
    id: ProcessId,
    /// Which replicas are members, which are on their way out (joint
    /// window), and the current epoch.
    view: ClusterView,
    /// Current dial addresses of every known process (own id included);
    /// grows from `Enter` barriers and epoch announcements.
    addrs: HashMap<ProcessId, SocketAddr>,
    /// One outbound link per peer in the view whose address is known.
    links: HashMap<ProcessId, PeerLink>,
    /// Highest configuration epoch observed in frames from each peer —
    /// drives targeted re-announcements to lagging peers.
    peer_epochs: HashMap<ProcessId, u64>,
    /// Stamp and arrival of each peer's last probe, echoed by our next.
    probes: HashMap<ProcessId, (u64, Instant)>,
    detector: Option<FailureDetector>,
    finalize: FinalizeGate,
    /// Shared epoch counter stamped on outgoing frames by the link writers.
    epoch_ctr: Arc<AtomicU64>,
    /// Shared stop flag (also handed to spawned links) and the own listen
    /// address — needed to retire the replica when a `Finalize` removes it.
    stop: Arc<AtomicBool>,
    self_addr: SocketAddr,
    /// Link-shaping parameters, and the instant cut schedules count from.
    net: Option<NetProfile>,
    boot: Instant,
}

impl Membership {
    /// Boots into `view` with `cfg`'s address book, spawning a link to
    /// every other process of the view.
    pub fn new(
        cfg: &ReplicaConfig,
        view: ClusterView,
        stop: Arc<AtomicBool>,
        self_addr: SocketAddr,
    ) -> Self {
        let options = &cfg.options;
        let detector = options.suspect_after.map(|suspect_after| {
            let (trust_after, tick) = (options.trust_after, options.tick_interval);
            FailureDetector::new(cfg.id, [], suspect_after, trust_after, tick, Instant::now())
        });
        let mut members = Self {
            id: cfg.id,
            view,
            addrs: cfg.addrs.clone(),
            links: HashMap::new(),
            peer_epochs: HashMap::new(),
            probes: HashMap::new(),
            detector,
            finalize: FinalizeGate::default(),
            epoch_ctr: Arc::new(AtomicU64::new(0)),
            stop,
            self_addr,
            net: options.net.clone(),
            boot: Instant::now(),
        };
        members.sync_links();
        members
    }

    /// The runtime's configuration view.
    pub fn view(&self) -> &ClusterView {
        &self.view
    }

    /// Whether `peer` is in the view (current or outgoing).
    pub fn is_member(&self, peer: ProcessId) -> bool {
        self.view.all_members().contains(&peer)
    }

    /// A frame from a process that is no longer a member, stamped with an
    /// epoch older than ours, is pre-removal traffic from a configuration
    /// that no longer exists. Frames from *members* pass whatever their
    /// epoch (the protocols handle cross-epoch messages; Paxos ring history
    /// decodes old-epoch ballots).
    pub fn is_straggler(&self, from: ProcessId, epoch: u64) -> bool {
        epoch < self.view.epoch && !self.is_member(from)
    }

    /// A frame stamped with `epoch` arrived from `from`: evidence that it is
    /// alive, and the epoch it has reached.
    pub fn heard_from(&mut self, from: ProcessId, epoch: u64) {
        let seen = self.peer_epochs.entry(from).or_insert(0);
        *seen = (*seen).max(epoch);
        self.heard(from);
    }

    /// Records evidence that `peer` is alive (a catch-up request carries no
    /// epoch).
    pub fn heard(&mut self, peer: ProcessId) {
        if let Some(detector) = &mut self.detector {
            detector.heard(peer, Instant::now());
        }
    }

    /// Peer `from`'s heartbeat arrived at `at`: remember its stamp for our
    /// next probe to echo, and if it echoes one of ours, sample the round
    /// trip — the time since our stamp, less the time the peer held it.
    pub fn probed(&mut self, from: ProcessId, probe: Probe, at: Instant) {
        self.probes.insert(from, (probe.stamp, at));
        let (Some(detector), true) = (&mut self.detector, probe.echo != 0) else {
            return;
        };
        let rtt = clock_us(at).saturating_sub(probe.echo.saturating_add(probe.held));
        detector.sample_rtt(from, Duration::from_micros(rtt), at);
    }

    /// Restarts the failure detector's silence clocks — called when the
    /// replica starts serving live traffic, so time spent in journal replay
    /// or peer-assisted catch-up does not count as peer silence.
    pub fn arm_detector(&mut self) {
        if let Some(detector) = &mut self.detector {
            detector.arm(Instant::now());
        }
    }

    /// Heartbeats every link (self-suppressed while a link is
    /// mid-reconnect) and advances the failure detector. Heartbeats keep
    /// silently dead connections surfacing, give idle-but-alive peers the
    /// traffic their detectors listen for and echo their stamps.
    pub fn tick(&mut self, now: Instant) -> Vec<DetectorEvent> {
        for (peer, link) in &self.links {
            link.probe(self.probes.get(peer).copied());
        }
        self.detector
            .as_mut()
            .map_or_else(Vec::new, |detector| detector.tick(now))
    }

    /// A better distance order than the one `base` holds for good, if the
    /// detector measured one ([`FailureDetector::reorder`]).
    pub fn reorder(&mut self, now: Instant, base: &Base) -> Option<Vec<ProcessId>> {
        let detector = self.detector.as_mut()?;
        detector.reorder(now, base.by_distance(), &base.everyone())
    }

    /// The measured round trip to `peer`, if any.
    pub fn rtt(&self, peer: ProcessId) -> Option<Duration> {
        self.detector.as_ref()?.rtt(peer)
    }

    /// The outbound links, for a turn to release into.
    pub fn links(&self) -> &HashMap<ProcessId, PeerLink> {
        &self.links
    }

    /// Reports this replica's executed watermarks to every peer.
    pub fn send_watermarks(&self, mine: Vec<(ProcessId, u64)>) {
        for link in self.links.values() {
            link.send_watermarks(mine.clone());
        }
    }

    /// Every link's health, with the measured round trip, by peer.
    pub fn link_snapshots(&self) -> Vec<LinkSnapshot> {
        let mut links: Vec<LinkSnapshot> = self
            .links
            .iter()
            .map(|(&peer, link)| LinkSnapshot {
                rtt_us: self.rtt(peer).map_or(0, |rtt| rtt.as_micros() as u64),
                ..link.status().snapshot()
            })
            .collect();
        links.sort_by_key(|link| link.peer);
        links
    }

    /// The address book in wire form (sorted for determinism).
    pub fn addrs_wire(&self) -> Vec<(ProcessId, String)> {
        let mut addrs: Vec<(ProcessId, String)> = self
            .addrs
            .iter()
            .map(|(&id, addr)| (id, addr.to_string()))
            .collect();
        addrs.sort_unstable_by_key(|&(id, _)| id);
        addrs
    }

    /// Merges `addrs` into the address book, warning about (and skipping)
    /// any that does not parse.
    fn merge_addrs(&mut self, addrs: &[(ProcessId, String)]) {
        for (id, addr) in addrs {
            match addr.parse() {
                Ok(parsed) => {
                    self.addrs.insert(*id, parsed);
                }
                Err(_) => eprintln!(
                    "replica {}: ignoring unparsable address {addr:?} for replica {id}",
                    self.id
                ),
            }
        }
    }

    /// Installs `view` (strictly newer: callers check) at tick `ticks`:
    /// stamps the epoch on outgoing frames, merges `addrs`, retargets links
    /// and the failure detector, and retires this replica when the new
    /// configuration drops it. Returns the peers that left, whose
    /// bookkeeping outside this module the caller purges.
    pub fn install(
        &mut self,
        view: &ClusterView,
        addrs: &[(ProcessId, String)],
        ticks: u64,
    ) -> Vec<ProcessId> {
        self.merge_addrs(addrs);
        let was_member = self.is_member(self.id);
        self.view = view.clone();
        self.epoch_ctr.store(view.epoch, Ordering::Relaxed);
        self.finalize.installed(view, ticks);
        let departed = self.sync_links();
        if was_member && !self.is_member(self.id) {
            eprintln!(
                "replica {}: epoch {} configuration no longer includes this \
                 replica; retiring",
                self.id, view.epoch
            );
            crate::replica::halt(&self.stop, self.self_addr);
        }
        departed
    }

    /// An executed `Reconfigure` barrier — the **only** place the hosted
    /// protocol's membership moves. The target is derived from the
    /// protocol's own view `current`, not the runtime's: epoch
    /// announcements can race the log and push the runtime view ahead, but
    /// the protocol must walk the exact joint-then-final progression the
    /// barrier sequence spells out (Mencius derives its ring cut from the
    /// execution frontier at each barrier). Returns the protocol's next view
    /// and the peers that left, or `None` on an idempotent replay of a
    /// barrier already applied.
    pub fn barrier(
        &mut self,
        op: &ReconfigOp,
        current: &ClusterView,
        ticks: u64,
    ) -> Option<(ClusterView, Vec<ProcessId>)> {
        let next = match op {
            ReconfigOp::Enter { members, f } => {
                self.merge_addrs(members);
                let ids: Vec<ProcessId> = members.iter().map(|&(id, _)| id).collect();
                current.enter(&ids, *f)
            }
            ReconfigOp::Finalize => current.finalize(),
        }?;
        eprintln!(
            "replica {}: reconfigure barrier executed; epoch {} members {:?}{}",
            self.id,
            next.epoch,
            next.members,
            if next.is_joint() { " (joint)" } else { "" }
        );
        // The runtime view may already have adopted this (or a later) epoch
        // from an announcement; links must exist for the targets either way.
        let departed = match next.epoch > self.view.epoch {
            true => self.install(&next, &[], ticks),
            false => self.sync_links(),
        };
        Some((next, departed))
    }

    /// Aligns outbound links, the failure detector and per-peer bookkeeping
    /// with the view: spawns links to members whose address is known, tears
    /// down links (and purges bookkeeping) of processes that left. Returns
    /// those.
    fn sync_links(&mut self) -> Vec<ProcessId> {
        let members = self.view.all_members();
        let now = Instant::now();
        for &peer in &members {
            if peer == self.id || self.links.contains_key(&peer) {
                continue;
            }
            let Some(&addr) = self.addrs.get(&peer) else {
                eprintln!(
                    "replica {}: no address for new member {peer}; it stays \
                     unreachable until an announcement supplies one",
                    self.id
                );
                continue;
            };
            let shaper = self
                .net
                .as_ref()
                .and_then(|profile| profile.shaper(self.id, peer, self.boot));
            let link = PeerLink::spawn(
                self.id,
                peer,
                addr,
                Arc::clone(&self.stop),
                DEFAULT_RESEND_BUFFER_CAP,
                shaper,
                Arc::clone(&self.epoch_ctr),
            );
            self.links.insert(peer, link);
            if let Some(detector) = &mut self.detector {
                detector.add_peer(peer, now);
            }
        }
        let departed: Vec<ProcessId> = self
            .links
            .keys()
            .copied()
            .filter(|peer| !members.contains(peer))
            .collect();
        for peer in &departed {
            self.links.remove(peer);
            self.peer_epochs.remove(peer);
            self.probes.remove(peer);
            if let Some(detector) = &mut self.detector {
                detector.remove_peer(*peer);
            }
        }
        departed
    }

    /// Re-announces the configuration epoch to peers still stamping older
    /// ones, every [`EPOCH_ANNOUNCE_EVERY`] ticks.
    pub fn announce(&self, ticks: u64) {
        if self.view.epoch == 0 || !ticks.is_multiple_of(EPOCH_ANNOUNCE_EVERY) {
            return;
        }
        let mut update: Option<EpochUpdate> = None;
        for (peer, link) in &self.links {
            if self.peer_epochs.get(peer).copied().unwrap_or(0) < self.view.epoch {
                let update = update.get_or_insert_with(|| EpochUpdate {
                    view: self.view.clone(),
                    addrs: self.addrs_wire(),
                });
                link.send_epoch(update.clone());
            }
        }
    }

    /// The `Finalize` barrier to submit now, if the joint window is stable
    /// and this replica is the one to submit it ([`FinalizeGate::due`]).
    /// `protocol_epoch`: the epoch the hosted protocol has executed up to.
    pub fn finalize_due(&mut self, ticks: u64, protocol_epoch: u64) -> Option<Command> {
        let epoch = self.view.epoch;
        // A target member is ready once it stamped the joint epoch, is
        // connected with a drained resend buffer, and is not suspected —
        // i.e. bootstrapped-before-voting, per the joiner rule.
        let ready = |peer: ProcessId| {
            self.peer_epochs.get(&peer).copied().unwrap_or(0) >= epoch
                && self.links.get(&peer).is_some_and(|link| {
                    let status = link.status();
                    status.is_connected() && status.buffered() == 0
                })
                && !self
                    .detector
                    .as_ref()
                    .is_some_and(|detector| detector.is_suspected(peer))
        };
        if !self
            .finalize
            .due(self.id, &self.view, ticks, protocol_epoch, ready)
        {
            return None;
        }
        eprintln!(
            "replica {}: joint epoch {epoch} stable; submitting finalize barrier",
            self.id
        );
        let rifl = Rifl::new(RECONFIG_CLIENT_BASE + u64::from(self.id), epoch);
        Some(Command::reconfigure(rifl, ReconfigOp::Finalize))
    }
}

/// When a joint window is stable enough for its designated member to
/// auto-submit the `Finalize` barrier. Exactly one member is designated
/// (the smallest target-member id) so the cluster does not flood itself
/// with finalizes. Every gate is a liveness precaution, not a safety
/// requirement — `Finalize` is sequenced through the log like any command;
/// a premature one would merely dissolve the old configuration before
/// stragglers drained.
#[derive(Default)]
pub(crate) struct FinalizeGate {
    /// Tick at which the current joint window was entered. `None` outside
    /// a joint window.
    joint_since: Option<u64>,
    /// `(epoch, tick)` of the last submission, so the designated member
    /// submits once per joint epoch (with a slow retry) instead of once per
    /// tick.
    sent: Option<(u64, u64)>,
}

impl FinalizeGate {
    /// `view` was installed at tick `ticks`.
    fn installed(&mut self, view: &ClusterView, ticks: u64) {
        self.joint_since = view.is_joint().then_some(ticks);
        if !view.is_joint() {
            self.sent = None;
        }
    }

    /// Whether `id` submits the `Finalize` at tick `ticks`: `view` is joint
    /// and `id` its designated member, the window dwelt
    /// [`AUTO_FINALIZE_DWELL_TICKS`], the protocol executed the `Enter`
    /// barrier (`protocol_epoch`), every other target member is `ready`,
    /// and no submission for this epoch is younger than
    /// [`AUTO_FINALIZE_RETRY_TICKS`]. A `true` counts as that submission.
    fn due(
        &mut self,
        id: ProcessId,
        view: &ClusterView,
        ticks: u64,
        protocol_epoch: u64,
        ready: impl Fn(ProcessId) -> bool,
    ) -> bool {
        let designated = view.is_joint() && view.members.first() == Some(&id);
        let dwelt = self
            .joint_since
            .is_some_and(|since| ticks.saturating_sub(since) >= AUTO_FINALIZE_DWELL_TICKS);
        if !designated || !dwelt || protocol_epoch < view.epoch {
            return false;
        }
        if !view.members.iter().all(|&peer| peer == id || ready(peer)) {
            return false;
        }
        let retry_pending = self.sent.is_some_and(|(epoch, tick)| {
            epoch == view.epoch && ticks.saturating_sub(tick) < AUTO_FINALIZE_RETRY_TICKS
        });
        if retry_pending {
            return false;
        }
        self.sent = Some((view.epoch, ticks));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Epoch 1: entering {1, 2, 4} from {1, 2, 3}.
    fn joint() -> ClusterView {
        ClusterView::at(0, [1, 2, 3], 1)
            .enter(&[1, 2, 4], 1)
            .expect("a new member set enters")
    }

    fn gate_at(view: &ClusterView, since: u64) -> FinalizeGate {
        let mut gate = FinalizeGate::default();
        gate.installed(view, since);
        gate
    }

    #[test]
    fn only_the_designated_member_submits() {
        let view = joint();
        let mut gate = gate_at(&view, 0);
        assert!(!gate.due(2, &view, 100, 1, |_| true), "2 is not the lowest");
        assert!(!gate.due(4, &view, 100, 1, |_| true));
        assert!(gate.due(1, &view, 100, 1, |_| true));
    }

    #[test]
    fn nothing_is_due_outside_a_joint_window() {
        let view = joint().finalize().expect("joint views finalize");
        let mut gate = gate_at(&view, 0);
        assert!(!gate.due(1, &view, 1_000, 2, |_| true));
    }

    #[test]
    fn the_dwell_is_respected() {
        let view = joint();
        let mut gate = gate_at(&view, 50);
        let last_early = 50 + AUTO_FINALIZE_DWELL_TICKS - 1;
        assert!(!gate.due(1, &view, last_early, 1, |_| true));
        assert!(gate.due(1, &view, last_early + 1, 1, |_| true));
    }

    #[test]
    fn waits_for_the_protocol_and_every_target_member() {
        let view = joint();
        let mut gate = gate_at(&view, 0);
        assert!(!gate.due(1, &view, 100, 0, |_| true), "Enter not executed");
        assert!(!gate.due(1, &view, 100, 1, |peer| peer != 4), "4 not ready");
        // The outgoing member's readiness does not matter, nor does our own.
        assert!(gate.due(1, &view, 100, 1, |peer| peer != 3 && peer != 1));
    }

    #[test]
    fn retries_are_spaced() {
        let view = joint();
        let mut gate = gate_at(&view, 0);
        assert!(gate.due(1, &view, 20, 1, |_| true));
        for tick in [21, 100, 20 + AUTO_FINALIZE_RETRY_TICKS - 1] {
            assert!(!gate.due(1, &view, tick, 1, |_| true), "tick {tick}");
        }
        assert!(gate.due(1, &view, 20 + AUTO_FINALIZE_RETRY_TICKS, 1, |_| true));
    }

    #[test]
    fn a_new_joint_epoch_submits_at_once() {
        let view = joint();
        let mut gate = gate_at(&view, 0);
        assert!(gate.due(1, &view, 20, 1, |_| true));
        // The finalize landed; a later expansion opens epoch 3.
        let done = view.finalize().expect("joint views finalize");
        gate.installed(&done, 30);
        let next = done.enter(&[1, 2, 4, 5], 1).expect("enters");
        gate.installed(&next, 40);
        let dwelt = 40 + AUTO_FINALIZE_DWELL_TICKS;
        assert!(gate.due(1, &next, dwelt, 3, |_| true));
    }
}
