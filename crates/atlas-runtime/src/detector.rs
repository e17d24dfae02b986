//! Timeout-based failure detector with hysteresis.
//!
//! The detector is a **pure state machine** over wall-clock instants — it
//! owns no sockets and spawns no tasks, which keeps it unit-testable with
//! synthetic clocks. The replica event loop feeds it two inputs:
//!
//! * [`FailureDetector::heard`] whenever *any* frame arrives from a peer —
//!   protocol messages, delivery acks, heartbeat probes, or a
//!   [`Hello::CatchUp`](crate::wire::Hello) request (a rejoining replica
//!   announcing itself counts as evidence of life, which is what keeps a
//!   wiped-and-rejoined replica from staying suspected forever);
//! * [`FailureDetector::tick`] on every periodic tick, which advances the
//!   per-peer state machines and returns the transitions the replica must
//!   act on.
//!
//! Liveness traffic exists even on an idle cluster because every replica's
//! outbound links emit heartbeat probes each tick (see
//! [`crate::transport`]); a silent peer is therefore a dead or partitioned
//! peer, not merely an idle one.
//!
//! ## The per-peer state machine
//!
//! ```text
//!             silence ≥ suspect_after
//!   Trusted ───────────────────────────▶ Suspected ──▶ (Protocol::suspect,
//!      ▲                                    │           re-dispatched every
//!      │ heard continuously                 │           suspect_after while
//!      │ for trust_after                    │           the peer stays dead)
//!      │                                    │ any frame heard
//!      │                                    ▼
//!      └───────────────────────────── Probation
//!                 (silence ≥ suspect_after ⇒ back to Suspected)
//! ```
//!
//! The `Probation` stage is the hysteresis: a peer that was suspected must
//! stay audible for a full `trust_after` window before it is trusted again,
//! so one stray frame from a flapping link does not oscillate the cluster
//! between suspecting and trusting (each `Suspected` transition triggers a
//! protocol recovery broadcast — safe to repeat, but not free). The
//! re-dispatch while a peer stays suspected is the *retry* of a takeover
//! whose ballot was outbid: Atlas and EPaxos already took the peer's
//! commands over when it became late (see "Distance" below), and a
//! dependency that a takeover's commit surfaces is taken over by that
//! commit's own handler, not by a later pass. In failure
//! detector terms this trades detection *speed* for *accuracy*: ◇P-style
//! eventual accuracy is what the protocols' recovery needs for liveness, and wrong
//! suspicions, while safe (recovery is consensus-protected), can replace a
//! live coordinator's uncommitted commands with `noOp`s.
//!
//! A freshly armed detector grants every peer a full `suspect_after` of
//! grace, so replicas booting in any order do not suspect peers that simply
//! have not finished binding their listeners yet.
//!
//! ## Distance
//!
//! The detector also measures how far each peer is, for the quorums the
//! protocol draws ([`FailureDetector::reorder`]). A peer's distance is the
//! windowed minimum of its probe round trips
//! ([`FailureDetector::sample_rtt`]), counted once twenty probes are in, so
//! neither jitter nor a busy scheduler's first few wake-ups reorder peers.
//! A peer silent for longer than two ticks plus that round trip — plus
//! however far its longest gap of the last few seconds exceeds a tick, so
//! a peer that stalls now and then in a snapshot cut is not taken for a
//! dead one — is **late**, and a suspected one is too: both are left out
//! of the order, i.e. infinitely far, so a dead quorum member leaves the
//! quorum — and a dead coordinator's stranded commands are taken over —
//! within a few ticks, long before it is suspected. A peer never
//! heard since boot is not late (it may still be booting), and no peer is
//! late while *every* peer is silent: then the stall is our own. A new
//! order is emitted only when it is better for four ticks running — the
//! installed one reaches a late peer or leaves out a live one, or is at
//! least 10 % and 5 ms farther at some quorum size — so quorums do not
//! flap and a LAN never reorders.

use atlas_core::ProcessId;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Silence beyond a peer's round trip after which it is late, in ticks.
const LATE_TICKS: u32 = 2;

/// How long a better order must stay better before it is emitted, in ticks.
const SUSTAIN_TICKS: u32 = 4;

/// Span of the windowed round trip and silence figures (two halves,
/// rotated by samples).
const WINDOW: Duration = Duration::from_secs(10);

/// Round trips sampled before a peer's distance counts (half a second at
/// the default 25 ms tick).
const MIN_SAMPLES: u32 = 20;

/// The smallest gain in distance, at some quorum size, worth a reorder.
/// Loopback round trips of replicas sharing two loaded cores measure up to
/// ~3 ms apart (reader wake-ups); sites worth telling apart differ by more.
const MIN_GAIN: Duration = Duration::from_millis(5);

/// Distance of a late, suspected or untracked process.
const LATE: u64 = u64::MAX;

/// A transition the replica must act on, returned by
/// [`FailureDetector::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorEvent {
    /// `peer` exceeded the silence threshold: hand it to
    /// [`Protocol::suspect`](atlas_core::Protocol::suspect) (journaled, so
    /// the recovery the suspicion triggers survives a crash of *this*
    /// replica).
    Suspect(ProcessId),
    /// A previously suspected `peer` has been audible for the full
    /// `trust_after` window and is trusted again.
    Trust(ProcessId),
}

/// Trust state of one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trust {
    /// Peer is believed alive.
    Trusted,
    /// Peer exceeded `suspect_after` of silence; `Protocol::suspect` was
    /// last dispatched at the contained instant. While the peer stays
    /// suspected, the dispatch repeats every `suspect_after`: the retry of
    /// a takeover whose ballot another recoverer outbid. Identifiers that
    /// recovery itself surfaces (a recovered command's dependencies may
    /// name dots no survivor had seen) need no repeat — the commit that
    /// names them takes them over. Re-dispatch is idempotent for
    /// everything already recovered.
    Suspected(Instant),
    /// A suspected peer has been heard again and is serving out the
    /// `trust_after` hysteresis window that started at the contained
    /// instant.
    Probation(Instant),
}

/// The extreme (`pick`: min or max) of the samples recorded over the last
/// [`WINDOW`] or so: two half-window extremes, rotated as samples arrive.
#[derive(Debug)]
struct Windowed {
    pick: fn(Duration, Duration) -> Duration,
    current: Option<Duration>,
    previous: Option<Duration>,
    since: Option<Instant>,
    /// Samples ever recorded (saturating).
    samples: u32,
}

impl Windowed {
    fn new(pick: fn(Duration, Duration) -> Duration) -> Self {
        Self {
            pick,
            current: None,
            previous: None,
            since: None,
            samples: 0,
        }
    }

    fn record(&mut self, sample: Duration, now: Instant) {
        if self
            .since
            .is_none_or(|since| now.saturating_duration_since(since) >= WINDOW / 2)
        {
            self.previous = self.current.take();
            self.since = Some(now);
        }
        let pick = self.pick;
        self.current = Some(self.current.map_or(sample, |held| pick(held, sample)));
        self.samples = self.samples.saturating_add(1);
    }

    fn get(&self) -> Option<Duration> {
        let halves = self.current.into_iter().chain(self.previous);
        halves.reduce(self.pick)
    }
}

/// Per-peer bookkeeping.
#[derive(Debug)]
struct PeerState {
    last_heard: Instant,
    /// Whether any frame arrived from the peer yet.
    heard: bool,
    trust: Trust,
    /// Windowed minimum round trip.
    rtt: Windowed,
    /// Windowed longest gap between two frames of a trusted peer: a peer
    /// that stalls now and then (a snapshot cut on its event loop) is late
    /// only once silent for two ticks beyond its usual worst.
    gap: Windowed,
}

impl PeerState {
    fn new(now: Instant) -> Self {
        Self {
            last_heard: now,
            heard: false,
            trust: Trust::Trusted,
            rtt: Windowed::new(Duration::min),
            gap: Windowed::new(Duration::max),
        }
    }
}

/// The replica-level failure detector: one state machine per remote peer.
#[derive(Debug)]
pub struct FailureDetector {
    self_id: ProcessId,
    suspect_after: Duration,
    trust_after: Duration,
    /// The replica's tick cadence, the unit of lateness.
    tick: Duration,
    /// `BTreeMap` so `tick` emits events in deterministic peer order.
    peers: BTreeMap<ProcessId, PeerState>,
    /// Since when a better order than the installed one exists.
    better_since: Option<Instant>,
}

impl FailureDetector {
    /// Builds a detector for the peers in `peers` (the own identifier is
    /// ignored if present: a replica never suspects itself), ticked every
    /// `tick`. Every peer starts `Trusted` with `now` as its last-heard
    /// instant, granting a full `suspect_after` of boot grace.
    pub fn new(
        self_id: ProcessId,
        peers: impl IntoIterator<Item = ProcessId>,
        suspect_after: Duration,
        trust_after: Duration,
        tick: Duration,
        now: Instant,
    ) -> Self {
        let peers = peers.into_iter().filter(|&peer| peer != self_id);
        Self {
            self_id,
            suspect_after,
            trust_after,
            tick,
            peers: peers.map(|peer| (peer, PeerState::new(now))).collect(),
            better_since: None,
        }
    }

    /// Restarts every peer's grace period at `now` without touching trust
    /// states. Called when the replica *starts serving* — journal replay and
    /// peer-assisted catch-up can take arbitrarily long, and that time must
    /// not count as peer silence.
    pub fn arm(&mut self, now: Instant) {
        for state in self.peers.values_mut() {
            state.last_heard = now;
            if matches!(state.trust, Trust::Suspected(_)) {
                // Re-dispatch cadence restarts too: "arm" means "count
                // everything from now".
                state.trust = Trust::Suspected(now);
            }
        }
    }

    /// Records evidence that `peer` is alive at `now` (any inbound frame or
    /// catch-up request from it). Hearing from a suspected peer starts its
    /// probation window; the promotion back to trusted happens in
    /// [`FailureDetector::tick`] once the window has been served.
    pub fn heard(&mut self, peer: ProcessId, now: Instant) {
        if peer == self.self_id {
            return;
        }
        let Some(state) = self.peers.get_mut(&peer) else {
            return; // not a configured peer (e.g. a client id); ignore
        };
        let gap = now.saturating_duration_since(state.last_heard);
        if state.heard && state.trust == Trust::Trusted && gap < self.suspect_after {
            state.gap.record(gap, now);
        }
        state.last_heard = now;
        state.heard = true;
        if matches!(state.trust, Trust::Suspected(_)) {
            state.trust = Trust::Probation(now);
        }
    }

    /// Records a round trip to `peer` measured by a probe echo at `now`.
    pub fn sample_rtt(&mut self, peer: ProcessId, rtt: Duration, now: Instant) {
        if let Some(state) = self.peers.get_mut(&peer) {
            state.rtt.record(rtt, now);
        }
    }

    /// The windowed-minimum round trip to `peer`, once sampled.
    pub fn rtt(&self, peer: ProcessId) -> Option<Duration> {
        let state = self.peers.get(&peer)?;
        state.rtt.get().filter(|_| state.rtt.samples >= MIN_SAMPLES)
    }

    /// `process`'s distance at `now` in µs ([`LATE`] when late, suspected
    /// or untracked); `None` while a live peer is unmeasured.
    fn distance(&self, process: ProcessId, now: Instant, all_silent: bool) -> Option<u64> {
        if process == self.self_id {
            return Some(0);
        }
        let Some(state) = self.peers.get(&process) else {
            return Some(LATE);
        };
        let rtt = self.rtt(process);
        let silence = now.saturating_duration_since(state.last_heard);
        let usual = state
            .gap
            .get()
            .unwrap_or_default()
            .saturating_sub(self.tick);
        let late = state.heard
            && !all_silent
            && silence > self.tick * LATE_TICKS + usual + rtt.unwrap_or_default();
        if late || !matches!(state.trust, Trust::Trusted) {
            return Some(LATE);
        }
        rtt.map(|rtt| rtt.as_micros() as u64)
    }

    /// The measured order of `members` (own identifier included) when it
    /// beats `installed` — the order the protocol holds, closest first,
    /// which leaves out whom it does not reach — for good (see the module
    /// docs); late and suspected peers are left out of it. Called every
    /// tick.
    pub fn reorder(
        &mut self,
        now: Instant,
        installed: &[ProcessId],
        members: &[ProcessId],
    ) -> Option<Vec<ProcessId>> {
        let silent = |state: &PeerState| {
            now.saturating_duration_since(state.last_heard) > self.tick * LATE_TICKS
        };
        let all_silent = self.peers.values().all(silent);
        // The installed order in full: what it reaches, then the rest.
        let left_out = members.iter().filter(|p| !installed.contains(p));
        let order: Vec<ProcessId> = installed.iter().chain(left_out).copied().collect();
        let distances: Option<Vec<u64>> = order
            .iter()
            .map(|&p| self.distance(p, now, all_silent))
            .collect();
        let Some(distances) = distances else {
            self.better_since = None;
            return None;
        };
        // Stable: ties keep their installed places.
        let mut ranked: Vec<usize> = (0..order.len()).collect();
        ranked.sort_by_key(|&i| distances[i]);
        // Better: the installed order reaches a late peer or leaves out a
        // live one, or at some quorum size its farthest member is 10 % and
        // 5 ms farther than the ranked order's.
        let reach_changed =
            (0..order.len()).any(|k| (k < installed.len()) == (distances[k] == LATE));
        let mut held = 0;
        let closer = ranked
            .iter()
            .take(installed.len())
            .enumerate()
            .any(|(k, &i)| {
                held = held.max(distances[k]);
                held.saturating_sub(distances[i]) >= (held / 10).max(MIN_GAIN.as_micros() as u64)
            });
        if !(reach_changed || closer) {
            self.better_since = None;
            return None;
        }
        let since = *self.better_since.get_or_insert(now);
        if now.saturating_duration_since(since) < self.tick * SUSTAIN_TICKS {
            return None;
        }
        self.better_since = None;
        let reached = ranked.into_iter().filter(|&i| distances[i] != LATE);
        Some(reached.map(|i| order[i]).collect())
    }

    /// Advances every peer's state machine to `now` and returns the
    /// transitions, in ascending peer order.
    pub fn tick(&mut self, now: Instant) -> Vec<DetectorEvent> {
        let mut events = Vec::new();
        for (&peer, state) in self.peers.iter_mut() {
            let silence = now.saturating_duration_since(state.last_heard);
            match state.trust {
                Trust::Trusted if silence >= self.suspect_after => {
                    state.trust = Trust::Suspected(now);
                    events.push(DetectorEvent::Suspect(peer));
                }
                // Still dead, another `suspect_after` served: re-dispatch,
                // which retries any takeover whose ballot was outbid.
                Trust::Suspected(last_dispatch)
                    if now.saturating_duration_since(last_dispatch) >= self.suspect_after =>
                {
                    state.trust = Trust::Suspected(now);
                    events.push(DetectorEvent::Suspect(peer));
                }
                // Fell silent again while on probation: re-suspect. The peer
                // may have proposed new commands during its brief return, so
                // the re-dispatch is not redundant (recovery of already
                // committed identifiers is a no-op).
                Trust::Probation(_) if silence >= self.suspect_after => {
                    state.trust = Trust::Suspected(now);
                    events.push(DetectorEvent::Suspect(peer));
                }
                // Promotion needs both halves of "audible for the full
                // window": the window has elapsed *and* the peer was heard
                // recently (strictly within trust_after). Elapsed time alone
                // would let one stray frame followed by renewed silence
                // restore trust — the oscillation hysteresis exists to
                // prevent. A stray-then-silent peer instead idles here until
                // the re-suspect arm above fires.
                Trust::Probation(since)
                    if now.saturating_duration_since(since) >= self.trust_after
                        && silence < self.trust_after =>
                {
                    state.trust = Trust::Trusted;
                    events.push(DetectorEvent::Trust(peer));
                }
                _ => {}
            }
        }
        events
    }

    /// Starts tracking `peer` (a replica added by reconfiguration), trusted
    /// with a full `suspect_after` of grace from `now`. A no-op for peers
    /// already tracked (their silence clocks and trust states keep running)
    /// and for the own identifier.
    pub fn add_peer(&mut self, peer: ProcessId, now: Instant) {
        if peer == self.self_id {
            return;
        }
        self.peers.entry(peer).or_insert(PeerState::new(now));
    }

    /// Stops tracking `peer` (a replica removed by reconfiguration): its
    /// silence is expected from now on and must not keep generating
    /// `Suspect` events against a member that no longer exists.
    pub fn remove_peer(&mut self, peer: ProcessId) {
        self.peers.remove(&peer);
    }

    /// The peers currently tracked, in ascending order.
    pub fn peers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.peers.keys().copied()
    }

    /// Whether `peer` is currently suspected (probation counts as still
    /// suspected: trust has not been restored yet).
    pub fn is_suspected(&self, peer: ProcessId) -> bool {
        matches!(
            self.peers.get(&peer).map(|s| s.trust),
            Some(Trust::Suspected(_) | Trust::Probation(_))
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUSPECT: Duration = Duration::from_millis(100);
    const TRUST: Duration = Duration::from_millis(40);
    const TICK: Duration = Duration::from_millis(10);

    fn detector(now: Instant) -> FailureDetector {
        FailureDetector::new(1, 1..=3, SUSPECT, TRUST, TICK, now)
    }

    #[test]
    fn no_suspicion_below_the_threshold() {
        let t0 = Instant::now();
        let mut d = detector(t0);
        assert!(d.tick(t0 + SUSPECT / 2).is_empty());
        // Keep hearing from peer 2 only; peer 3 crosses the threshold alone.
        d.heard(2, t0 + SUSPECT / 2);
        let events = d.tick(t0 + SUSPECT);
        assert_eq!(events, vec![DetectorEvent::Suspect(3)]);
        assert!(!d.is_suspected(2));
        assert!(d.is_suspected(3));
    }

    #[test]
    fn suspicion_fires_once_per_window_not_every_tick() {
        let t0 = Instant::now();
        let mut d = detector(t0);
        assert_eq!(d.tick(t0 + SUSPECT).len(), 2); // peers 2 and 3
                                                   // No re-fire tick-by-tick within a window...
        assert!(d.tick(t0 + SUSPECT + SUSPECT / 4).is_empty());
        assert!(d.tick(t0 + SUSPECT + SUSPECT / 2).is_empty());
        // ...but a peer that *stays* dead is re-dispatched each window, so
        // a takeover whose ballot was outbid is retried.
        assert_eq!(d.tick(t0 + SUSPECT * 2).len(), 2);
    }

    #[test]
    fn never_suspects_self() {
        let t0 = Instant::now();
        let mut d = detector(t0);
        let events = d.tick(t0 + SUSPECT * 10);
        assert!(!events.contains(&DetectorEvent::Suspect(1)));
        assert!(!d.is_suspected(1));
    }

    #[test]
    fn trust_restored_only_after_the_full_probation_window() {
        let t0 = Instant::now();
        let mut d = detector(t0);
        d.tick(t0 + SUSPECT);
        assert!(d.is_suspected(2));
        // Peer 2 reconnects and keeps heartbeating, but trust is not
        // immediate.
        let back = t0 + SUSPECT + Duration::from_millis(5);
        d.heard(2, back);
        assert!(d.is_suspected(2), "probation still counts as suspected");
        assert!(d.tick(back + TRUST / 2).is_empty());
        d.heard(2, back + TRUST * 3 / 4);
        let events = d.tick(back + TRUST);
        assert_eq!(events, vec![DetectorEvent::Trust(2)]);
        assert!(!d.is_suspected(2));
    }

    #[test]
    fn stray_frame_then_silence_does_not_restore_trust() {
        let t0 = Instant::now();
        let mut d = detector(t0);
        d.tick(t0 + SUSPECT);
        assert!(d.is_suspected(2));
        // One stray frame, then silence again: the probation window
        // elapsing must NOT promote the peer — it was not audible through
        // it. (The spurious promotion would log "trust restored" for a
        // dead peer and re-enter the full Suspect cycle from Trusted.)
        let stray = t0 + SUSPECT + Duration::from_millis(1);
        d.heard(2, stray);
        let events = d.tick(stray + TRUST);
        assert!(
            !events.contains(&DetectorEvent::Trust(2)),
            "silent peer must not be trusted: {events:?}"
        );
        assert!(d.is_suspected(2));
    }

    #[test]
    fn flapping_peer_is_resuspected_from_probation() {
        let t0 = Instant::now();
        let mut d = detector(t0);
        d.tick(t0 + SUSPECT);
        // One stray frame, then silence again: back to suspected (one
        // event), not an oscillation of suspect/trust pairs.
        let stray = t0 + SUSPECT + Duration::from_millis(1);
        d.heard(2, stray);
        let events = d.tick(stray + SUSPECT);
        assert!(events.contains(&DetectorEvent::Suspect(2)));
        assert!(!events.contains(&DetectorEvent::Trust(2)));
    }

    #[test]
    fn arming_restarts_grace_without_clearing_suspicions() {
        let t0 = Instant::now();
        let mut d = detector(t0);
        d.heard(2, t0 + SUSPECT / 2);
        d.tick(t0 + SUSPECT); // suspects 3 only
        assert!(d.is_suspected(3));
        // Re-arm far in the future (e.g. after a long catch-up): nothing
        // fires for another full suspect_after, and existing suspicions
        // stay (the peer has still never been heard from).
        let t1 = t0 + SUSPECT * 100;
        d.arm(t1);
        assert!(d.tick(t1 + SUSPECT / 2).is_empty());
        assert!(d.is_suspected(3));
        // ...but the silence clock did restart: 2 is newly suspected, and
        // still-dead 3 gets its periodic re-dispatch.
        assert_eq!(
            d.tick(t1 + SUSPECT),
            vec![DetectorEvent::Suspect(2), DetectorEvent::Suspect(3)]
        );
    }

    /// The WAN harness's flapping-link drill, as a pure state-machine test:
    /// a peer audible once per flap cycle — with each cycle's silence
    /// exceeding `suspect_after` while `trust_after` is longer than a whole
    /// cycle — must be suspected and then **park**: every probation window
    /// is re-suspected before the hysteresis can complete, so the detector
    /// never oscillates Trusted↔Suspected (each oscillation would re-enter
    /// the full recovery-broadcast cycle from Trusted). Trust returns, and
    /// returns exactly once, only after the peer holds steady.
    #[test]
    fn flapping_faster_than_trust_after_parks_in_probation() {
        const SUSPECT_AFTER: Duration = Duration::from_millis(100);
        const TRUST_AFTER: Duration = Duration::from_millis(150);
        const CYCLE: Duration = Duration::from_millis(120); // > suspect, < trust
        let t0 = Instant::now();
        let mut d = FailureDetector::new(1, 1..=3, SUSPECT_AFTER, TRUST_AFTER, TICK, t0);

        let mut suspects = 0;
        let mut trusts = 0;
        let mut now = t0;
        for cycle in 0..10 {
            // One frame at the top of each flap cycle (the link's brief
            // "up" blip), then silence for the rest of it.
            if cycle > 0 {
                d.heard(2, now);
            }
            let cycle_end = now + CYCLE;
            while now < cycle_end {
                now += TICK;
                d.heard(3, now); // peer 3 stays healthy throughout
                for event in d.tick(now) {
                    match event {
                        DetectorEvent::Suspect(2) => suspects += 1,
                        DetectorEvent::Trust(2) => trusts += 1,
                        _ => {}
                    }
                }
            }
            if cycle > 0 {
                assert!(
                    d.is_suspected(2),
                    "cycle {cycle}: flapping peer escaped suspicion"
                );
            }
        }
        assert!(suspects >= 5, "flap never re-suspected: {suspects}");
        assert_eq!(trusts, 0, "detector oscillated back to Trusted mid-flap");
        assert!(!d.is_suspected(3), "healthy peer got suspected");

        // The link holds: steady frames promote the peer exactly once.
        for _ in 0..(4 * TRUST_AFTER.as_millis() / TICK.as_millis()) {
            now += TICK;
            d.heard(2, now);
            d.heard(3, now);
            for event in d.tick(now) {
                match event {
                    DetectorEvent::Suspect(2) => panic!("re-suspected a steady peer"),
                    DetectorEvent::Trust(2) => trusts += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(trusts, 1, "steady peer must be trusted exactly once");
        assert!(!d.is_suspected(2));
    }

    #[test]
    fn membership_changes_retarget_the_detector() {
        let t0 = Instant::now();
        let mut d = detector(t0);
        // Replica 4 joins: full grace from now, then suspectable like any
        // other peer.
        d.add_peer(4, t0);
        assert!(!d.is_suspected(4));
        d.heard(2, t0 + SUSPECT / 2);
        d.heard(3, t0 + SUSPECT / 2);
        let events = d.tick(t0 + SUSPECT);
        assert_eq!(events, vec![DetectorEvent::Suspect(4)]);
        // Re-adding a tracked (suspected) peer must not reset its state.
        d.add_peer(4, t0 + SUSPECT);
        assert!(d.is_suspected(4));
        // Replica 3 leaves: its silence stops producing events.
        d.remove_peer(3);
        d.remove_peer(4);
        d.heard(2, t0 + SUSPECT * 2);
        assert!(d.tick(t0 + SUSPECT * 2 + SUSPECT / 2).is_empty());
        assert_eq!(d.peers().collect::<Vec<_>>(), vec![2]);
    }

    const MS: Duration = Duration::from_millis(1);

    /// Replica 3 of three, having heard from and measured 1 and 2 at `t0`.
    fn measured(t0: Instant, rtt1: Duration, rtt2: Duration) -> FailureDetector {
        let mut d = FailureDetector::new(3, 1..=3, SUSPECT, TRUST, TICK, t0);
        for (peer, rtt) in [(1, rtt1), (2, rtt2)] {
            d.heard(peer, t0);
            sample(&mut d, peer, rtt, t0);
        }
        d
    }

    /// Enough probes for `peer`'s round trip to count, the fastest `rtt`.
    fn sample(d: &mut FailureDetector, peer: ProcessId, rtt: Duration, at: Instant) {
        for extra in (0..MIN_SAMPLES).rev() {
            d.sample_rtt(peer, rtt + MS * extra, at);
        }
    }

    #[test]
    fn a_round_trip_counts_after_enough_probes() {
        let t0 = Instant::now();
        let mut d = detector(t0);
        for _ in 1..MIN_SAMPLES {
            d.sample_rtt(2, 3 * MS, t0);
        }
        assert_eq!(d.rtt(2), None, "one probe short");
        d.sample_rtt(2, 2 * MS, t0);
        assert_eq!(d.rtt(2), Some(2 * MS));
    }

    /// Ticks `d` from `from` for `ticks` ticks with `installed`, hearing
    /// from `audible` each tick; returns the first order emitted and when.
    fn tick_reorder(
        d: &mut FailureDetector,
        from: Instant,
        ticks: u32,
        installed: &[ProcessId],
        audible: &[ProcessId],
    ) -> Option<(Vec<ProcessId>, Duration)> {
        (1..=ticks).find_map(|k| {
            let now = from + TICK * k;
            for &peer in audible {
                d.heard(peer, now);
            }
            let order = d.reorder(now, installed, &[1, 2, 3])?;
            Some((order, TICK * k))
        })
    }

    #[test]
    fn a_sustained_gain_reorders_once() {
        let t0 = Instant::now();
        let mut d = measured(t0, 40 * MS, 30 * MS);
        assert_eq!(d.rtt(2), Some(30 * MS));
        // Identifier order puts 1 (40 ms) before 2 (30 ms): 25 % and 10 ms
        // worse at quorum size 2, so after four ticks of it, a reorder.
        let (order, after) = tick_reorder(&mut d, t0, 10, &[3, 1, 2], &[1, 2]).unwrap();
        assert_eq!((order, after), (vec![3, 2, 1], TICK * 5));
        assert_eq!(
            tick_reorder(&mut d, t0 + after, 20, &[3, 2, 1], &[1, 2]),
            None
        );
        // A jittery sample below the installed leader's round trip is no
        // reason to move: less than 5 ms better.
        d.sample_rtt(1, 29_500 * Duration::from_micros(1), t0);
        assert_eq!(
            tick_reorder(&mut d, t0 + after, 20, &[3, 2, 1], &[1, 2]),
            None
        );
    }

    #[test]
    fn a_lan_never_reorders() {
        let t0 = Instant::now();
        let mut d = measured(t0, Duration::from_micros(300), Duration::from_micros(90));
        assert_eq!(tick_reorder(&mut d, t0, 50, &[3, 1, 2], &[1, 2]), None);
    }

    #[test]
    fn unmeasured_peers_hold_the_order() {
        let t0 = Instant::now();
        let mut d = measured(t0, 40 * MS, 30 * MS);
        d.add_peer(4, t0);
        let now = t0 + TICK * 5;
        for peer in [1, 2, 4] {
            d.heard(peer, now);
        }
        let order = d.reorder(now, &[3, 1, 2, 4], &[1, 2, 3, 4]);
        assert_eq!(order, None, "4 has no round trip yet");
    }

    #[test]
    fn a_silent_peer_is_late_long_before_it_is_suspected() {
        let t0 = Instant::now();
        let mut d = measured(t0, 40 * MS, 10 * MS);
        // 2 falls silent; 1 keeps talking. Late past 2 ticks plus 2's
        // round trip (30 ms), left out four ticks later.
        let (order, after) = tick_reorder(&mut d, t0, 20, &[3, 2, 1], &[1]).unwrap();
        assert_eq!(order, vec![3, 1]);
        assert_eq!(after, TICK * 8);
        assert!(after < SUSPECT && !d.is_suspected(2));
        // Audible again: it is measured back in.
        let back = t0 + after;
        let (order, _) = tick_reorder(&mut d, back, 10, &[3, 1], &[1, 2]).unwrap();
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    fn a_peer_that_stalls_now_and_then_is_late_only_beyond_its_stalls() {
        let t0 = Instant::now();
        let mut d = measured(t0, 40 * MS, 10 * MS);
        // 2 goes quiet for 90 ms once (a snapshot cut), 1 keeps talking.
        let stall = tick_reorder(&mut d, t0, 9, &[3, 2, 1], &[1]);
        assert_eq!(stall.map(|(order, _)| order), Some(vec![3, 1]));
        let back = t0 + 90 * MS;
        d.heard(2, back);
        // From then on a stall that long is 2's usual: no reorder...
        assert_eq!(tick_reorder(&mut d, back, 10, &[3, 2, 1], &[1]), None);
        // ...but a silence two ticks beyond it is.
        let (order, after) = tick_reorder(&mut d, back, 30, &[3, 2, 1], &[1]).unwrap();
        assert_eq!(order, vec![3, 1]);
        assert!(after > 90 * MS + TICK * LATE_TICKS, "{after:?}");
    }

    #[test]
    fn a_late_peer_leaves_even_when_it_sorts_last() {
        let t0 = Instant::now();
        let mut d = measured(t0, 40 * MS, 30 * MS);
        let (order, _) = tick_reorder(&mut d, t0, 20, &[3, 2, 1], &[2]).unwrap();
        assert_eq!(order, vec![3, 2]);
    }

    #[test]
    fn no_peer_is_late_when_every_peer_is_silent() {
        let t0 = Instant::now();
        let mut d = measured(t0, 40 * MS, 30 * MS);
        assert_eq!(tick_reorder(&mut d, t0, 9, &[3, 2, 1], &[]), None);
        // A peer never heard is still booting, not late.
        let mut d = FailureDetector::new(3, 1..=3, SUSPECT, TRUST, TICK, t0);
        d.heard(1, t0);
        sample(&mut d, 1, 40 * MS, t0);
        assert_eq!(tick_reorder(&mut d, t0, 9, &[3, 2, 1], &[1]), None);
        // Suspected, it is infinitely far.
        d.tick(t0 + SUSPECT);
        let (order, _) = tick_reorder(&mut d, t0 + SUSPECT, 5, &[3, 2, 1], &[1]).unwrap();
        assert_eq!(order, vec![3, 1]);
    }

    #[test]
    fn hearing_from_unknown_ids_is_ignored() {
        let t0 = Instant::now();
        let mut d = detector(t0);
        d.heard(99, t0); // not a peer
        d.heard(1, t0); // self
        assert!(!d.is_suspected(99));
    }
}
