//! Transport-level network-condition injection: WAN latency, jitter,
//! bandwidth, connection loss and scheduled partitions for the peer links.
//!
//! A [`NetProfile`] is a list of [`LinkRule`]s over **directed** links
//! (`from → to`, with `0` as a wildcard on either side). At replica boot
//! every outbound [`PeerLink`](crate::transport::PeerLink) resolves the
//! profile into at most one [`LinkShaper`] ([`NetProfile::shaper`]) and
//! threads every frame it writes — protocol messages, delivery acks,
//! watermark reports *and* heartbeat probes — through it. Injection sits at
//! the wire, **below the resend buffer**: a frame delayed, stranded by a
//! cut or lost to an injected connection reset is exactly as gone as one
//! the real network swallowed, so the reconnect/replay machinery (and the
//! failure detector listening for heartbeats on the far side) feels the
//! imposed conditions the same way it would feel a real WAN. This is the
//! wire-level sibling of the protocol-layer `ChaosNet` harness: ChaosNet
//! scrambles the message *schedule* against a pure state machine, a
//! `NetProfile` degrades the *transport* under a real TCP stack.
//!
//! ## The latency model
//!
//! Each frame's **release deadline** is computed when the frame is handed
//! to the link (not when the writer gets around to it):
//!
//! ```text
//! deadline = max( enqueue_time + delay + jitter_sample      // propagation
//!              , bandwidth_busy_horizon                     // serialization
//!              , previous frame's deadline )                // FIFO
//! ```
//!
//! and the link writer sleeps until the deadline before putting the frame
//! on the wire. Computing at enqueue time is what makes delays
//! **pipeline**: ten frames submitted together all release ≈ one `delay`
//! later, instead of ten delays back to back. Jitter widens individual
//! deadlines but never reorders — the link is a FIFO queue over one TCP
//! connection, so a deadline earlier than its predecessor's is clamped
//! forward, exactly like packets sharing a path. Frames replayed from the
//! resend buffer after a reconnect carry their original deadlines, which
//! are typically long past — they burst out back to back, which is what a
//! healed TCP connection does with a retransmission window.
//!
//! ## Cuts (partitions) and resets
//!
//! A [`Cut`] makes the link unusable for a scheduled window (measured from
//! the replica's boot epoch): dials fail without touching the network and
//! any live connection is severed before the next write. From the far
//! side, a cut is indistinguishable from the peer dying — heartbeats stop,
//! the failure detector counts silence. Because rules are **directed**,
//! cutting `1 → 2` while leaving `2 → 1` untouched produces a true
//! asymmetric partition: replica 2 suspects 1, while 1 keeps hearing 2 and
//! keeps trusting it. A repeating cut (`period`) models a flapping link.
//!
//! TCP cannot drop a single frame, so probabilistic *loss* is expressed as
//! [`LinkRule::reset`]: with that per-frame probability the connection is
//! torn down instead of written, forcing a reconnect and a full resend-
//! buffer replay — the at-least-once path a lossy WAN actually exercises.

use atlas_core::ProcessId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// A scheduled window during which a link is unusable, relative to the
/// link's epoch (replica boot). `length == 0` means the cut never heals;
/// `period > 0` repeats the window every `period` from `start` on — a
/// flapping link that is down for `length` out of every `period`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cut {
    /// Offset of the (first) window from the link epoch.
    pub start: Duration,
    /// How long each window lasts; zero = cut forever once started.
    pub length: Duration,
    /// Repetition cadence; zero = one-shot window. Must exceed `length`
    /// to leave the link any healed time at all.
    pub period: Duration,
}

impl Cut {
    /// A one-shot cut of `length` starting at `start`.
    pub fn window(start: Duration, length: Duration) -> Self {
        Self {
            start,
            length,
            period: Duration::ZERO,
        }
    }

    /// A permanent cut from `start` on.
    pub fn from(start: Duration) -> Self {
        Self::window(start, Duration::ZERO)
    }

    /// A flapping schedule: from `start` on, down for `length` out of
    /// every `period`.
    pub fn flapping(start: Duration, length: Duration, period: Duration) -> Self {
        Self {
            start,
            length,
            period,
        }
    }

    /// Whether the cut covers the instant `elapsed` past the link epoch.
    fn covers(&self, elapsed: Duration) -> bool {
        if elapsed < self.start {
            return false;
        }
        if self.length.is_zero() {
            return true; // permanent
        }
        let into = elapsed - self.start;
        let into = if self.period > Duration::ZERO {
            Duration::from_nanos((into.as_nanos() % self.period.as_nanos()) as u64)
        } else {
            into
        };
        into < self.length
    }
}

/// Conditions imposed on the directed links a selector matches. Rules are
/// resolved by [`NetProfile::shaper`]: all matching rules fold in listing
/// order — nonzero scalar fields of later rules override earlier ones,
/// `cuts` accumulate — so a cluster-wide geo baseline composes with a
/// targeted partition rule on top.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkRule {
    /// Sending replica the rule applies to; `0` matches every sender.
    pub from: ProcessId,
    /// Receiving replica the rule applies to; `0` matches every receiver.
    pub to: ProcessId,
    /// One-way propagation delay added to every frame.
    pub delay: Duration,
    /// Uniformly sampled extra delay in `[0, jitter]` per frame (never
    /// reorders: the link is FIFO, late deadlines clamp forward).
    pub jitter: Duration,
    /// Serialization bandwidth in bytes/second; `0` = unlimited.
    pub rate: u64,
    /// Per-frame probability that the connection is reset instead of
    /// written (TCP's rendition of wire loss: reconnect + resend-buffer
    /// replay). `0.0` disables.
    pub reset: f64,
    /// Scheduled windows during which the link is unusable.
    pub cuts: Vec<Cut>,
}

impl LinkRule {
    /// A rule matching every directed link, with no conditions set.
    pub fn any() -> Self {
        Self::link(0, 0)
    }

    /// A rule matching only the directed link `from → to` (0 = wildcard),
    /// with no conditions set.
    pub fn link(from: ProcessId, to: ProcessId) -> Self {
        Self {
            from,
            to,
            delay: Duration::ZERO,
            jitter: Duration::ZERO,
            rate: 0,
            reset: 0.0,
            cuts: Vec::new(),
        }
    }

    /// Builder: sets the one-way propagation delay.
    pub fn delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    /// Builder: sets the uniform per-frame jitter bound.
    pub fn jitter(mut self, jitter: Duration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Builder: sets the serialization bandwidth in bytes/second.
    pub fn rate(mut self, bytes_per_sec: u64) -> Self {
        self.rate = bytes_per_sec;
        self
    }

    /// Builder: sets the per-frame connection-reset probability.
    pub fn reset(mut self, probability: f64) -> Self {
        self.reset = probability;
        self
    }

    /// Builder: adds one scheduled cut window.
    pub fn cut(mut self, cut: Cut) -> Self {
        self.cuts.push(cut);
        self
    }

    fn matches(&self, from: ProcessId, to: ProcessId) -> bool {
        (self.from == 0 || self.from == from) && (self.to == 0 || self.to == to)
    }
}

/// A full network-condition profile: directed-link rules plus a seed for
/// the per-link randomness (jitter samples, reset decisions). The same
/// profile + seed reproduces the same injected schedule, chaos-harness
/// style. Threaded through
/// [`ClusterOptions::net`](crate::ClusterOptions::net) and the
/// `atlas-replica --net-profile` flag.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetProfile {
    /// Base seed; each directed link derives its own RNG stream from it.
    pub seed: u64,
    /// The rules, folded in order by [`NetProfile::shaper`].
    pub rules: Vec<LinkRule>,
}

impl NetProfile {
    /// An empty profile (no rule matches anything) with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
        }
    }

    /// Builder: appends one rule.
    pub fn rule(mut self, rule: LinkRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Resolves the conditions for the directed link `from → to` by
    /// folding every matching rule in listing order (nonzero scalars
    /// override, cuts accumulate). Returns `None` when no rule matches —
    /// the link runs unshaped, at native loopback speed.
    pub fn shaper(&self, from: ProcessId, to: ProcessId, epoch: Instant) -> Option<LinkShaper> {
        let mut merged: Option<LinkRule> = None;
        for rule in self.rules.iter().filter(|rule| rule.matches(from, to)) {
            let folded = merged.get_or_insert_with(|| LinkRule::link(from, to));
            if !rule.delay.is_zero() {
                folded.delay = rule.delay;
            }
            if !rule.jitter.is_zero() {
                folded.jitter = rule.jitter;
            }
            if rule.rate != 0 {
                folded.rate = rule.rate;
            }
            if rule.reset != 0.0 {
                folded.reset = rule.reset;
            }
            folded.cuts.extend(rule.cuts.iter().copied());
        }
        // Distinct RNG stream per directed link, deterministic in the seed.
        let link_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(((from as u64) << 32) | to as u64);
        merged.map(|rule| LinkShaper::new(rule, link_seed, epoch))
    }

    /// Parses the `--net-profile` mini-language (there is no JSON codec in
    /// the offline dependency set, so flags carry profiles as one string):
    ///
    /// ```text
    /// profile  := clause (';' clause)*
    /// clause   := 'seed=' <u64> | [<from> '->' <to> ':'] setting (',' setting)*
    /// from/to  := '*' | replica id
    /// setting  := 'delay=' dur | 'jitter=' dur | 'rate=' <bytes/sec>
    ///           | 'reset=' <probability> | 'cut=' dur ['+' dur] ['/' dur]
    /// dur      := <number> ('us' | 'ms' | 's')
    /// ```
    ///
    /// A clause without a selector applies to every link; `cut=START+LEN`
    /// is a one-shot window, `cut=START` a permanent cut, and
    /// `cut=START+LEN/PERIOD` a flapping schedule. Example — a 25 ms geo
    /// baseline with the link `1 → 3` flapping from second one on:
    ///
    /// ```
    /// use atlas_runtime::NetProfile;
    /// let profile =
    ///     NetProfile::parse("delay=25ms,jitter=2ms;1->3:cut=1s+300ms/500ms").unwrap();
    /// assert_eq!(profile.rules.len(), 2);
    /// ```
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut profile = NetProfile::new(0);
        for clause in spec.split(';').filter(|c| !c.trim().is_empty()) {
            let clause = clause.trim();
            if let Some(seed) = clause.strip_prefix("seed=") {
                profile.seed = seed
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad seed {seed:?}"))?;
                continue;
            }
            let (selector, settings) = match clause.split_once(':') {
                Some((sel, rest)) => (sel.trim(), rest),
                None => ("*->*", clause),
            };
            let (from, to) = selector
                .split_once("->")
                .ok_or_else(|| format!("bad link selector {selector:?} (want FROM->TO)"))?;
            let mut rule = LinkRule::link(parse_endpoint(from)?, parse_endpoint(to)?);
            for setting in settings.split(',').filter(|s| !s.trim().is_empty()) {
                let (key, value) = setting
                    .trim()
                    .split_once('=')
                    .ok_or_else(|| format!("bad setting {setting:?} (want key=value)"))?;
                match key.trim() {
                    "delay" => rule.delay = parse_duration(value)?,
                    "jitter" => rule.jitter = parse_duration(value)?,
                    "rate" => {
                        rule.rate = value
                            .trim()
                            .parse()
                            .map_err(|_| format!("bad rate {value:?} (bytes/sec)"))?
                    }
                    "reset" => {
                        rule.reset = value
                            .trim()
                            .parse()
                            .map_err(|_| format!("bad reset probability {value:?}"))?
                    }
                    "cut" => rule.cuts.push(parse_cut(value)?),
                    other => return Err(format!("unknown setting {other:?}")),
                }
            }
            profile.rules.push(rule);
        }
        if profile.rules.is_empty() {
            return Err("profile has no rules".to_string());
        }
        Ok(profile)
    }
}

fn parse_endpoint(s: &str) -> Result<ProcessId, String> {
    let s = s.trim();
    if s == "*" {
        return Ok(0);
    }
    s.parse().map_err(|_| format!("bad endpoint {s:?}"))
}

fn parse_duration(s: &str) -> Result<Duration, String> {
    let s = s.trim();
    let (digits, unit) = s.split_at(s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len()));
    let value: u64 = digits.parse().map_err(|_| format!("bad duration {s:?}"))?;
    match unit {
        "us" => Ok(Duration::from_micros(value)),
        "ms" => Ok(Duration::from_millis(value)),
        "s" => Ok(Duration::from_secs(value)),
        _ => Err(format!("bad duration {s:?} (want <n>us|<n>ms|<n>s)")),
    }
}

fn parse_cut(s: &str) -> Result<Cut, String> {
    let (window, period) = match s.split_once('/') {
        Some((window, period)) => (window, Some(parse_duration(period)?)),
        None => (s, None),
    };
    let (start, length) = match window.split_once('+') {
        Some((start, length)) => (parse_duration(start)?, parse_duration(length)?),
        None => (parse_duration(window)?, Duration::ZERO),
    };
    Ok(Cut {
        start,
        length,
        period: period.unwrap_or(Duration::ZERO),
    })
}

/// The resolved, stateful per-link injector: owns the link's RNG stream,
/// its bandwidth busy-horizon and its FIFO release clock. One shaper per
/// outbound [`PeerLink`](crate::transport::PeerLink); the replica event
/// loop stamps deadlines at enqueue time and the link writer enforces
/// cuts, resets and the deadlines themselves (see the module docs for the
/// model).
#[derive(Debug)]
pub struct LinkShaper {
    rule: LinkRule,
    epoch: Instant,
    rng: SmallRng,
    /// Horizon up to which the modeled bandwidth is already committed.
    busy_until: Instant,
    /// The previous frame's deadline (FIFO clamp).
    last_release: Instant,
}

impl LinkShaper {
    fn new(rule: LinkRule, seed: u64, epoch: Instant) -> Self {
        Self {
            rule,
            epoch,
            rng: SmallRng::seed_from_u64(seed),
            busy_until: epoch,
            last_release: epoch,
        }
    }

    /// Computes the release deadline of a `bytes`-sized frame handed to
    /// the link at `now`. Must be called at enqueue time (per frame, in
    /// hand-off order): the deadline pipelines the propagation delay and
    /// serializes only the bandwidth share.
    pub fn release_deadline(&mut self, now: Instant, bytes: usize) -> Instant {
        let mut release = now;
        if self.rule.rate > 0 {
            let tx = Duration::from_nanos(
                (bytes as u64).saturating_mul(1_000_000_000) / self.rule.rate.max(1),
            );
            self.busy_until = self.busy_until.max(now) + tx;
            release = self.busy_until;
        }
        let mut latency = self.rule.delay;
        if !self.rule.jitter.is_zero() {
            let bound = self.rule.jitter.as_micros() as u64;
            latency += Duration::from_micros(self.rng.gen_range(0..=bound));
        }
        let deadline = (release + latency).max(self.last_release);
        self.last_release = deadline;
        deadline
    }

    /// Whether the link is inside a scheduled cut window at `now`.
    pub fn is_cut(&self, now: Instant) -> bool {
        let elapsed = now.saturating_duration_since(self.epoch);
        self.rule.cuts.iter().any(|cut| cut.covers(elapsed))
    }

    /// Rolls the per-frame connection-reset die.
    pub fn should_reset(&mut self) -> bool {
        self.rule.reset > 0.0 && self.rng.gen_bool(self.rule.reset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    fn shaper_for(profile: &NetProfile, from: ProcessId, to: ProcessId) -> Option<LinkShaper> {
        profile.shaper(from, to, Instant::now())
    }

    #[test]
    fn wildcard_and_directed_rules_merge_in_order() {
        let profile = NetProfile::new(1)
            .rule(LinkRule::any().delay(25 * MS).jitter(2 * MS))
            .rule(LinkRule::link(1, 3).delay(40 * MS).cut(Cut::from(MS)));
        // Untargeted link: the baseline only.
        let base = shaper_for(&profile, 1, 2).expect("baseline matches");
        assert_eq!(base.rule.delay, 25 * MS);
        assert!(base.rule.cuts.is_empty());
        // Targeted link: later delay overrides, jitter survives, cut lands.
        let cut = shaper_for(&profile, 1, 3).expect("both rules match");
        assert_eq!(cut.rule.delay, 40 * MS);
        assert_eq!(cut.rule.jitter, 2 * MS);
        assert_eq!(cut.rule.cuts.len(), 1);
        // Directionality: the reverse link only sees the baseline.
        let rev = shaper_for(&profile, 3, 1).expect("baseline matches");
        assert_eq!(rev.rule.delay, 25 * MS);
        assert!(rev.rule.cuts.is_empty());
    }

    #[test]
    fn unmatched_links_stay_unshaped() {
        let profile = NetProfile::new(1).rule(LinkRule::link(1, 2).delay(MS));
        assert!(shaper_for(&profile, 2, 1).is_none());
        assert!(shaper_for(&profile, 1, 2).is_some());
    }

    #[test]
    fn deadlines_pipeline_instead_of_serializing() {
        let profile = NetProfile::new(1).rule(LinkRule::any().delay(100 * MS));
        let mut shaper = shaper_for(&profile, 1, 2).unwrap();
        let t0 = Instant::now();
        let first = shaper.release_deadline(t0, 64);
        let tenth = (0..9).fold(first, |_, _| shaper.release_deadline(t0, 64));
        assert_eq!(first, t0 + 100 * MS);
        // All ten frames handed over together release at the same deadline
        // — one propagation delay, not ten.
        assert_eq!(tenth, first);
    }

    #[test]
    fn bandwidth_serializes_on_top_of_the_delay() {
        // 1000 bytes/sec: a 100-byte frame occupies the wire for 100 ms.
        let profile = NetProfile::new(1).rule(LinkRule::any().delay(50 * MS).rate(1_000));
        let mut shaper = shaper_for(&profile, 1, 2).unwrap();
        let t0 = Instant::now();
        let first = shaper.release_deadline(t0, 100);
        let second = shaper.release_deadline(t0, 100);
        assert_eq!(first, t0 + 100 * MS + 50 * MS);
        assert_eq!(second, first + 100 * MS, "second frame queues behind");
    }

    #[test]
    fn jitter_is_bounded_and_fifo_is_preserved() {
        let profile = NetProfile::new(7).rule(LinkRule::any().delay(10 * MS).jitter(5 * MS));
        let mut shaper = shaper_for(&profile, 1, 2).unwrap();
        let t0 = Instant::now();
        let mut last = t0;
        for _ in 0..100 {
            let deadline = shaper.release_deadline(t0, 64);
            assert!(deadline >= t0 + 10 * MS && deadline <= t0 + 15 * MS);
            assert!(deadline >= last, "jitter must never reorder the FIFO");
            last = deadline;
        }
    }

    #[test]
    fn cut_windows_one_shot_permanent_and_flapping() {
        let at = |cut: Cut, ms: u64| cut.covers(Duration::from_millis(ms));
        let one_shot = Cut::window(100 * MS, 50 * MS);
        assert!(!at(one_shot, 99) && at(one_shot, 100) && at(one_shot, 149));
        assert!(!at(one_shot, 150) && !at(one_shot, 1_000));
        let forever = Cut::from(200 * MS);
        assert!(!at(forever, 199) && at(forever, 200) && at(forever, 60_000));
        // Flapping: from 100 ms on, down 30 ms out of every 100 ms.
        let flap = Cut::flapping(100 * MS, 30 * MS, 100 * MS);
        assert!(!at(flap, 99));
        assert!(at(flap, 100) && at(flap, 129) && !at(flap, 130) && !at(flap, 199));
        assert!(at(flap, 200) && at(flap, 229) && !at(flap, 230));
    }

    #[test]
    fn reset_decisions_are_seed_deterministic() {
        let rolls = |seed: u64| -> Vec<bool> {
            let profile = NetProfile::new(seed).rule(LinkRule::any().reset(0.3));
            let mut shaper = shaper_for(&profile, 1, 2).unwrap();
            (0..64).map(|_| shaper.should_reset()).collect()
        };
        assert_eq!(rolls(42), rolls(42), "same seed, same schedule");
        assert_ne!(rolls(42), rolls(43), "different seed, different schedule");
    }

    #[test]
    fn parses_the_flag_mini_language() {
        let profile =
            NetProfile::parse("seed=9;delay=25ms,jitter=2ms,rate=1000000;1->3:cut=1s+300ms/500ms")
                .unwrap();
        assert_eq!(profile.seed, 9);
        assert_eq!(profile.rules.len(), 2);
        let base = &profile.rules[0];
        assert_eq!((base.from, base.to), (0, 0));
        assert_eq!(base.delay, 25 * MS);
        assert_eq!(base.jitter, 2 * MS);
        assert_eq!(base.rate, 1_000_000);
        let cut = &profile.rules[1];
        assert_eq!((cut.from, cut.to), (1, 3));
        assert_eq!(
            cut.cuts,
            vec![Cut::flapping(Duration::from_secs(1), 300 * MS, 500 * MS)]
        );
        // Permanent and one-shot cut forms, reset probabilities.
        let p = NetProfile::parse("2->1:cut=500ms;*->2:cut=1s+2s,reset=0.05").unwrap();
        assert_eq!(p.rules[0].cuts, vec![Cut::from(500 * MS)]);
        assert_eq!(
            p.rules[1].cuts,
            vec![Cut::window(Duration::from_secs(1), Duration::from_secs(2))]
        );
        assert_eq!(p.rules[1].reset, 0.05);
        // Malformed specs are rejected, not half-applied.
        for bad in ["", "delay=25", "1->x:delay=1ms", "bogus=1ms", "seed=abc"] {
            assert!(NetProfile::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn profiles_roundtrip_through_bincode() {
        let profile = NetProfile::new(3)
            .rule(LinkRule::any().delay(25 * MS).jitter(2 * MS).rate(1 << 20))
            .rule(
                LinkRule::link(1, 2)
                    .reset(0.1)
                    .cut(Cut::flapping(MS, MS, 2 * MS)),
            );
        let bytes = bincode::serialize(&profile).unwrap();
        let back: NetProfile = bincode::deserialize(&bytes).unwrap();
        assert_eq!(back, profile);
    }
}
