//! The in-memory cluster driver of every protocol's unit tests, generic over
//! [`Protocol`], in two delivery modes.
//!
//! [`ChaosNet::new`] delivers queued messages in seeded-random order with
//! random duplication — the message schedule of a real network with
//! at-least-once links; [`ChaosNet::fifo`] delivers them in order, exactly
//! once, for tests that pin one schedule. In both, messages to or from
//! crashed processes are lost, and self-addressed messages are delivered
//! immediately to fixpoint, in the order they were sent, exactly like the
//! networked runtime's `perform` (the paper's zero-delay self-delivery
//! assumption:
//! e.g. a coordinator always processes its own `MCollect` before any of the
//! acks it provokes).
//!
//! The chaotic mode exists for the recovery test sweeps: every protocol's
//! kill-the-coordinator scenario runs across many seeds with commands
//! stranded at random propagation stages (see the seeded sweeps in the
//! `epaxos` and `mencius` crates). It is a test harness, not a simulator —
//! for latency-modeled experiments use the `planet-sim` crate. It is
//! compiled only for this crate's own tests and behind the `chaos` cargo
//! feature (which the other protocol crates enable from their
//! dev-dependencies), so it never ships in production builds.

use atlas_core::{Action, Command, Config, Dot, ProcessId, Protocol, Rifl, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};

/// Runs `body` once per seed in `base + offsets`, naming the scenario and
/// the exact failing seed before re-raising any panic. A bare seeded sweep
/// fails with an assert message that does not say *which* seed's schedule
/// broke — so the one piece of information needed to reproduce (and to pin
/// the schedule in-tree as a regression test) is lost. Every chaos sweep
/// goes through here instead of a bare `for seed in ...` loop.
pub fn sweep(scenario: &str, base: u64, offsets: std::ops::Range<u64>, mut body: impl FnMut(u64)) {
    for offset in offsets {
        let seed = base + offset;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(seed)));
        if let Err(panic) = outcome {
            eprintln!(
                "chaos sweep {scenario:?} failed at seed {seed:#x} \
                 (base {base:#x} + offset {offset}); \
                 pin it by calling the sweep body with {seed:#x}"
            );
            std::panic::resume_unwind(panic);
        }
    }
}

/// Probability that a delivered message is also re-enqueued (an
/// at-least-once link delivering twice).
const DUPLICATION_PROBABILITY: f64 = 0.2;

/// Cap on the in-flight queue beyond which duplication stops, so a chatty
/// schedule cannot amplify itself without bound.
const DUPLICATION_QUEUE_CAP: usize = 4096;

/// A callback on a message sent from one replica to another.
pub type OnSend<M> = Box<dyn FnMut(&M)>;

/// A cluster of `P` replicas driven with seeded-chaotic (or in-order)
/// message delivery.
pub struct ChaosNet<P: Protocol> {
    /// The replicas, indexed by `ProcessId - 1`. Tests inspect protocol
    /// state directly through this field.
    pub replicas: Vec<P>,
    /// Processes whose inbound and outbound messages are dropped.
    pub crashed: HashSet<ProcessId>,
    /// What each process executed, in execution order.
    pub executed: HashMap<ProcessId, Vec<(Dot, Rifl)>>,
    /// Sees every message sent to another replica, once per target: what
    /// would cross the wire.
    pub on_send: Option<OnSend<P::Message>>,
    rng: SmallRng,
    /// Reorder and duplicate deliveries (else: in order, exactly once).
    chaotic: bool,
}

impl<P: Protocol> ChaosNet<P> {
    /// Builds an `n`-replica cluster with identity topologies and the given
    /// chaos seed.
    pub fn new(n: usize, f: usize, seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            chaotic: true,
            ..Self::fifo(Config::new(n, f))
        }
    }

    /// Builds a `config.n`-replica cluster with identity topologies that
    /// delivers every message in order and exactly once.
    pub fn fifo(config: Config) -> Self {
        let replicas = (1..=config.n as ProcessId)
            .map(|id| P::new(id, config, Topology::identity(id, config.n)))
            .collect();
        Self {
            replicas,
            crashed: HashSet::new(),
            executed: HashMap::new(),
            on_send: None,
            rng: SmallRng::seed_from_u64(0),
            chaotic: false,
        }
    }

    /// The replica with identifier `id`.
    pub fn replica(&mut self, id: ProcessId) -> &mut P {
        &mut self.replicas[(id - 1) as usize]
    }

    /// Marks `id` as crashed: all its future traffic is lost.
    pub fn crash(&mut self, id: ProcessId) {
        self.crashed.insert(id);
    }

    /// The harness RNG, for scenario-level randomness that must stay tied
    /// to the same seed as the delivery schedule.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Runs `actions` produced by `source` to quiescence. Chaotic
    /// delivery: each step delivers a uniformly random queued message,
    /// possibly duplicating it.
    pub fn run(&mut self, source: ProcessId, actions: Vec<Action<P::Message>>) {
        let mut queue: Vec<(ProcessId, ProcessId, P::Message)> = Vec::new();
        self.enqueue(source, actions, &mut queue);
        while !queue.is_empty() {
            let (from, to, msg) = if self.chaotic {
                // Reordering: deliver a uniformly random queued message.
                let idx = self.rng.gen_range(0..queue.len());
                queue.swap_remove(idx)
            } else {
                queue.remove(0)
            };
            if self.crashed.contains(&from) || self.crashed.contains(&to) {
                continue; // loss
            }
            // Duplication: an at-least-once link may deliver twice.
            if self.chaotic
                && queue.len() < DUPLICATION_QUEUE_CAP
                && self.rng.gen_bool(DUPLICATION_PROBABILITY)
            {
                queue.push((from, to, msg.clone()));
            }
            let out = self.replica(to).handle(from, msg, 0);
            self.enqueue(to, out, &mut queue);
        }
    }

    /// Remote sends go into the chaotic queue; self-addressed messages are
    /// delivered immediately to fixpoint, first sent first handled.
    fn enqueue(
        &mut self,
        source: ProcessId,
        actions: Vec<Action<P::Message>>,
        queue: &mut Vec<(ProcessId, ProcessId, P::Message)>,
    ) {
        let mut local: VecDeque<P::Message> = VecDeque::new();
        self.sort_actions(source, actions, &mut local, queue);
        while let Some(msg) = local.pop_front() {
            let out = self.replica(source).handle(source, msg, 0);
            self.sort_actions(source, out, &mut local, queue);
        }
    }

    fn sort_actions(
        &mut self,
        source: ProcessId,
        actions: Vec<Action<P::Message>>,
        local: &mut VecDeque<P::Message>,
        queue: &mut Vec<(ProcessId, ProcessId, P::Message)>,
    ) {
        for action in actions {
            match action {
                Action::Send { targets, msg } => {
                    for to in targets {
                        if to == source {
                            local.push_back(msg.clone());
                        } else {
                            if let Some(on_send) = &mut self.on_send {
                                on_send(&msg);
                            }
                            queue.push((source, to, msg.clone()));
                        }
                    }
                }
                Action::Execute { dot, cmd } => {
                    let executed = self.executed.entry(source).or_default();
                    executed.push((dot, cmd.rifl));
                }
                Action::Commit { .. } => {}
            }
        }
    }

    /// Submits `cmd` at `at` and runs the resulting traffic to quiescence.
    pub fn submit(&mut self, at: ProcessId, cmd: Command) {
        let actions = self.replica(at).submit(cmd, 0);
        self.run(at, actions);
    }

    /// Submits at `at`, delivering the initial round only to `reach` and
    /// losing every reply — a command stranded mid-propagation, the raw
    /// material of every recovery scenario.
    pub fn submit_reaching(&mut self, at: ProcessId, cmd: Command, reach: &[ProcessId]) {
        let actions = self.replica(at).submit(cmd, 0);
        for action in actions {
            if let Action::Send { targets, msg } = action {
                for to in targets {
                    if reach.contains(&to) {
                        let _ = self.replica(to).handle(at, msg.clone(), 0);
                    }
                }
            }
        }
    }

    /// Dispatches a failure suspicion at `at` and runs the recovery traffic
    /// it produces to quiescence.
    pub fn suspect(&mut self, at: ProcessId, suspected: ProcessId) {
        let actions = self.replica(at).suspect(suspected, 0);
        self.run(at, actions);
    }

    /// Installs a measured distance order at `at` and runs the takeover
    /// traffic it produces to quiescence.
    pub fn discover(&mut self, at: ProcessId, order: &[ProcessId]) {
        let actions = self.replica(at).discover(order, 0);
        self.run(at, actions);
    }

    /// The identifiers executed at `id`, in execution order.
    pub fn executed_at(&self, id: ProcessId) -> Vec<Dot> {
        let executed = self.executed.get(&id).into_iter().flatten();
        executed.map(|(dot, _)| *dot).collect()
    }

    /// The requests executed at `id`, in execution order.
    pub fn rifls_at(&self, id: ProcessId) -> Vec<Rifl> {
        let executed = self.executed.get(&id).into_iter().flatten();
        executed.map(|(_, rifl)| *rifl).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_core::protocol::Time;
    use atlas_core::{Base, ClusterView};

    /// A protocol whose `submit` sends itself messages 1 and 2, and whose
    /// message 1 sends itself 3; it records the order `handle` sees them.
    struct SelfTalk {
        base: Base,
        handled: Vec<u8>,
    }

    fn to_self(id: ProcessId, msg: u8) -> Action<u8> {
        Action::Send {
            targets: vec![id],
            msg,
        }
    }

    impl Protocol for SelfTalk {
        type Message = u8;
        fn name() -> &'static str {
            "self-talk"
        }
        fn new(id: ProcessId, config: Config, topology: Topology) -> Self {
            let base = Base::new(id, config, topology);
            Self {
                base,
                handled: Vec::new(),
            }
        }
        fn base(&self) -> &Base {
            &self.base
        }
        fn submit(&mut self, _: Command, _: Time) -> Vec<Action<u8>> {
            vec![to_self(self.id(), 1), to_self(self.id(), 2)]
        }
        fn handle(&mut self, _: ProcessId, msg: u8, _: Time) -> Vec<Action<u8>> {
            self.handled.push(msg);
            if msg == 1 {
                vec![to_self(self.id(), 3)]
            } else {
                Vec::new()
            }
        }
        fn suspect(&mut self, _: ProcessId, _: Time) -> Vec<Action<u8>> {
            Vec::new()
        }
        fn discover(&mut self, _: &[ProcessId], _: Time) -> Vec<Action<u8>> {
            Vec::new()
        }
        fn reconfigure(&mut self, _: &ClusterView, _: Time) -> Vec<Action<u8>> {
            Vec::new()
        }
        fn message_size(_: &u8) -> usize {
            1
        }
        fn save_state(&self) -> Option<Vec<u8>> {
            None
        }
        fn restore_state(_: ProcessId, _: Config, _: Topology, _: &[u8]) -> Option<Self> {
            None
        }
        fn committed_log(&self) -> Vec<u8> {
            Vec::new()
        }
        fn executed_watermarks(&self) -> Vec<(ProcessId, u64)> {
            Vec::new()
        }
        fn gc_executed(&mut self, _: &[(ProcessId, u64)]) -> u64 {
            0
        }
        fn save_executed(&self) -> Vec<u8> {
            Vec::new()
        }
        fn restore_executed(&mut self, _: &[u8]) -> bool {
            false
        }
        fn tracked_entries(&self) -> usize {
            0
        }
        fn advance_identifiers(&mut self, _: u64) {}
    }

    /// Self-addressed messages are handled in the order they were sent, a
    /// message's own self-sends after those already queued — the runtime's
    /// `perform` drains a FIFO queue the same way.
    #[test]
    fn self_addressed_messages_are_handled_first_sent_first() {
        for mut net in [
            ChaosNet::<SelfTalk>::fifo(Config::new(3, 1)),
            ChaosNet::new(3, 1, 7),
        ] {
            net.submit(1, Command::get(Rifl::new(1, 1), 0));
            assert_eq!(net.replica(1).handled, [1, 2, 3]);
        }
    }
}
