//! Protocol-level tests of the durability hooks, for all four protocols:
//!
//! * `save_state` → `restore_state` is an exact round trip (byte-identical
//!   re-serialization) and the restored replica keeps working;
//! * restoring a mid-run snapshot and replaying the input suffix yields the
//!   **same state bytes** as replaying the full input history — the
//!   correctness condition behind journal truncation;
//! * a fresh replica fed a peer's `committed_log` converges to the same
//!   store state (the peer-assisted catch-up payload is sufficient);
//! * the GC invariant sweep: a cluster that garbage-collects executed
//!   entries on the all-executed horizon mid-run executes **exactly** the
//!   same command sequence (hence identical digests and per-key order) as
//!   a never-collected twin, keeps strictly less bookkeeping, ignores
//!   straggler duplicates of collected commits, and GC is idempotent;
//! * under that sweep the `save_state` bytes stop growing with history.

use atlas_core::{Action, Command, Config, Dot, ProcessId, Protocol, Rifl, Topology};
use kvstore::KVStore;
use std::collections::HashMap;

/// One protocol input as a replica's journal would record it.
#[derive(Clone)]
enum Input<M> {
    Submit(Command),
    Msg(ProcessId, M),
}

/// A tiny deterministic in-memory cluster driver that also records, per
/// replica, the exact input sequence it processed — the same information the
/// runtime's write-ahead journal captures.
struct Net<P: Protocol> {
    replicas: Vec<P>,
    inputs: Vec<Vec<Input<P::Message>>>,
    executed: HashMap<ProcessId, Vec<(Dot, Command)>>,
}

impl<P: Protocol> Net<P>
where
    P::Message: Clone,
{
    fn new(n: usize, f: usize) -> Self {
        let config = Config::new(n, f);
        let replicas = (1..=n as ProcessId)
            .map(|id| P::new(id, config, Topology::identity(id, n)))
            .collect();
        Self {
            replicas,
            inputs: vec![Vec::new(); n],
            executed: HashMap::new(),
        }
    }

    fn replica(&mut self, id: ProcessId) -> &mut P {
        &mut self.replicas[(id - 1) as usize]
    }

    fn submit(&mut self, at: ProcessId, cmd: Command) {
        self.inputs[(at - 1) as usize].push(Input::Submit(cmd.clone()));
        let actions = self.replica(at).submit(cmd, 0);
        self.run(at, actions);
    }

    fn run(&mut self, source: ProcessId, actions: Vec<Action<P::Message>>) {
        let mut queue: Vec<(ProcessId, ProcessId, P::Message)> = Vec::new();
        self.enqueue(source, actions, &mut queue);
        while !queue.is_empty() {
            let (from, to, msg) = queue.remove(0);
            self.inputs[(to - 1) as usize].push(Input::Msg(from, msg.clone()));
            let out = self.replica(to).handle(from, msg, 0);
            self.enqueue(to, out, &mut queue);
        }
    }

    fn enqueue(
        &mut self,
        source: ProcessId,
        actions: Vec<Action<P::Message>>,
        queue: &mut Vec<(ProcessId, ProcessId, P::Message)>,
    ) {
        for action in actions {
            match action {
                Action::Send { targets, msg } => {
                    let mut targets = targets;
                    targets.sort_by_key(|t| if *t == source { 0 } else { 1 });
                    for to in targets {
                        queue.push((source, to, msg.clone()));
                    }
                }
                Action::Execute { dot, cmd } => {
                    self.executed.entry(source).or_default().push((dot, cmd));
                }
                Action::Commit { .. } => {}
            }
        }
    }
}

fn put(client: u64, seq: u64, key: u64) -> Command {
    Command::put(Rifl::new(client, seq), key, client * 1000 + seq, 64)
}

/// Drives a 3-replica cluster through a conflicting workload, returning the
/// driver. Every replica executes every command.
fn drive<P: Protocol>(commands: u64) -> Net<P>
where
    P::Message: Clone,
{
    let mut net = Net::<P>::new(3, 1);
    for seq in 1..=commands {
        for coordinator in 1..=3u32 {
            net.submit(coordinator, put(coordinator as u64, seq, seq % 4));
        }
    }
    net
}

/// Replays an input sequence into `replica`, discarding emitted actions
/// (a replica's state depends only on its inputs; during runtime recovery
/// the re-emitted sends are deduplicated by the peers anyway).
fn replay<P: Protocol>(replica: &mut P, inputs: &[Input<P::Message>])
where
    P::Message: Clone,
{
    for input in inputs {
        match input {
            Input::Submit(cmd) => {
                let _ = replica.submit(cmd.clone(), 0);
            }
            Input::Msg(from, msg) => {
                let _ = replica.handle(*from, msg.clone(), 0);
            }
        }
    }
}

fn save_restore_roundtrip<P: Protocol>()
where
    P::Message: Clone,
{
    let net = drive::<P>(10);
    let config = Config::new(3, 1);
    for replica in &net.replicas {
        let id = replica.id();
        let bytes = replica.save_state().expect("protocol supports snapshots");
        let restored = P::restore_state(id, config, Topology::identity(id, 3), &bytes)
            .expect("state restores");
        assert_eq!(
            restored.save_state().expect("restored state re-serializes"),
            bytes,
            "{}: restore(save(s)) must reproduce s exactly (replica {id})",
            P::name()
        );
        // A corrupted blob must not restore.
        let mut corrupted = bytes.clone();
        corrupted.truncate(corrupted.len() / 2);
        assert!(
            P::restore_state(id, config, Topology::identity(id, 3), &corrupted).is_none(),
            "{}: truncated state must fail to restore",
            P::name()
        );
        // State from one replica must not restore under another identifier.
        let wrong_id = id % 3 + 1;
        assert!(
            P::restore_state(wrong_id, config, Topology::identity(wrong_id, 3), &bytes).is_none(),
            "{}: replica {id} state must not restore as replica {wrong_id}",
            P::name()
        );
    }
}

fn snapshot_plus_suffix_equals_full_replay<P: Protocol>()
where
    P::Message: Clone,
{
    let net = drive::<P>(12);
    let config = Config::new(3, 1);
    for id in 1..=3u32 {
        let inputs = &net.inputs[(id - 1) as usize];
        let live = net.replicas[(id - 1) as usize]
            .save_state()
            .expect("snapshots supported");

        // (a) Full replay of the input journal from scratch.
        let mut full = P::new(id, config, Topology::identity(id, 3));
        replay(&mut full, inputs);
        let full_bytes = full.save_state().unwrap();

        // (b) Snapshot mid-run, restore, replay only the suffix.
        let half = inputs.len() / 2;
        let mut prefix = P::new(id, config, Topology::identity(id, 3));
        replay(&mut prefix, &inputs[..half]);
        let snapshot = prefix.save_state().unwrap();
        let mut resumed =
            P::restore_state(id, config, Topology::identity(id, 3), &snapshot).unwrap();
        replay(&mut resumed, &inputs[half..]);
        let resumed_bytes = resumed.save_state().unwrap();

        assert_eq!(
            full_bytes,
            live,
            "{}: replaying the journal must reproduce the live state (replica {id})",
            P::name()
        );
        assert_eq!(
            resumed_bytes,
            full_bytes,
            "{}: snapshot + suffix replay must equal full replay (replica {id})",
            P::name()
        );
    }
}

fn committed_log_rebuilds_store<P: Protocol>()
where
    P::Message: Clone,
{
    let net = drive::<P>(10);
    // Reference store: what replica 1 executed.
    let mut reference = KVStore::new();
    for (_, cmd) in &net.executed[&1] {
        reference.execute(cmd);
    }

    // A fresh replica 3 (wiped disk) is fed replica 1's committed log, the
    // catch-up payload, as ordinary messages from peer 1.
    let committed = net.replicas[0].committed_log();
    assert!(
        !committed.is_empty(),
        "{}: a loaded replica must export a committed log",
        P::name()
    );
    let mut fresh = P::new(3, Config::new(3, 1), Topology::identity(3, 3));
    let mut store = KVStore::new();
    for msg in committed {
        for action in fresh.handle(1, msg, 0) {
            if let Action::Execute { cmd, .. } = action {
                store.execute(&cmd);
            }
        }
    }
    assert_eq!(
        store.digest(),
        reference.digest(),
        "{}: catch-up replay must rebuild the exact store state",
        P::name()
    );

    // The serving peer must also report how far it has seen the wiped
    // replica's identifier space, so identifiers are never reissued.
    let horizon = net.replicas[0].seen_horizon(3);
    assert!(
        horizon > 0,
        "{}: peer must have seen replica 3's identifiers",
        P::name()
    );
}

/// The all-executed horizon of a cluster: for every identifier space
/// reported by **all** replicas, the minimum of their executed watermarks —
/// the same pointwise minimum the networked runtime computes from the
/// watermark reports piggybacked on the peer links.
fn min_horizon<P: Protocol>(replicas: &[P]) -> Vec<(ProcessId, u64)> {
    let mut horizon: Option<HashMap<ProcessId, u64>> = None;
    for replica in replicas {
        let report: HashMap<ProcessId, u64> = replica.executed_watermarks().into_iter().collect();
        horizon = Some(match horizon {
            None => report,
            Some(mut h) => {
                h.retain(|space, v| match report.get(space) {
                    Some(&peer) => {
                        *v = (*v).min(peer);
                        true
                    }
                    None => false,
                });
                h
            }
        });
    }
    let mut horizon: Vec<(ProcessId, u64)> = horizon.unwrap_or_default().into_iter().collect();
    horizon.sort_unstable();
    horizon
}

/// One GC round: collects every replica on the cluster's all-executed
/// horizon and returns how many entries went.
fn collect<P: Protocol>(replicas: &mut [P]) -> u64 {
    let horizon = min_horizon(replicas);
    let dropped = replicas.iter_mut().map(|r| r.gc_executed(&horizon));
    dropped.sum()
}

/// Drives two identical conflicting workloads, garbage-collecting one
/// cluster every other round on the all-executed horizon and never
/// collecting the other. The collected cluster must be observationally
/// identical — same executed `(dot, cmd)` sequence per replica (which
/// implies the same per-key order), same store digest — while holding
/// strictly fewer bookkeeping entries; straggler duplicates of collected
/// commits must be ignored, and re-applying the same horizon must drop
/// nothing.
fn gc_matches_never_collected_twin<P: Protocol>()
where
    P::Message: Clone,
{
    let mut collected = Net::<P>::new(3, 1);
    let mut pristine = Net::<P>::new(3, 1);
    let mut dropped_total = 0u64;
    for seq in 1..=16u64 {
        for coordinator in 1..=3u32 {
            let cmd = put(coordinator as u64, seq, seq % 4);
            collected.submit(coordinator, cmd.clone());
            pristine.submit(coordinator, cmd);
        }
        if seq % 2 == 0 {
            dropped_total += collect(&mut collected.replicas);
        }
    }
    assert!(
        dropped_total > 0,
        "{}: the sweep must actually collect something",
        P::name()
    );

    for id in 1..=3u32 {
        // Identical executed sequences ⇒ identical per-key order.
        assert_eq!(
            collected.executed.get(&id),
            pristine.executed.get(&id),
            "{}: GC changed replica {id}'s execution sequence",
            P::name()
        );
        // Identical store digests.
        let digest = |net: &Net<P>| {
            let mut store = KVStore::new();
            for (_, cmd) in &net.executed[&id] {
                store.execute(cmd);
            }
            store.digest()
        };
        assert_eq!(
            digest(&collected),
            digest(&pristine),
            "{}: GC changed replica {id}'s digest",
            P::name()
        );
        // Strictly less bookkeeping than the never-collected twin.
        let a = collected.replicas[(id - 1) as usize].tracked_entries();
        let b = pristine.replicas[(id - 1) as usize].tracked_entries();
        assert!(
            a < b,
            "{}: replica {id} tracked {a} entries with GC vs {b} without",
            P::name()
        );
    }

    // Straggler duplicates of collected commits (an at-least-once link
    // replaying old frames) must be ignored: no actions, no new entries.
    let stragglers = pristine.replicas[0].committed_log();
    let replica = &mut collected.replicas[1];
    let tracked_before = replica.tracked_entries();
    let mut actions = 0;
    for msg in stragglers {
        actions += replica
            .handle(1, msg, 0)
            .iter()
            .filter(|a| matches!(a, Action::Execute { .. }))
            .count();
    }
    assert_eq!(actions, 0, "{}: stragglers re-executed", P::name());
    assert_eq!(
        replica.tracked_entries(),
        tracked_before,
        "{}: stragglers of collected commits grew the bookkeeping maps",
        P::name()
    );

    // GC is idempotent: the same horizon again drops nothing.
    let horizon = min_horizon(&collected.replicas);
    for replica in &mut collected.replicas {
        assert_eq!(
            replica.gc_executed(&horizon),
            0,
            "{}: re-applying the horizon must be a no-op",
            P::name()
        );
    }
}

/// Replica state that is snapshotted, restored and streamed is bounded by
/// in-flight work, not by uptime: under the GC sweep above (a fixed key set,
/// a collection on the all-executed horizon every 250 commands) the
/// serialized state after 20 000 commands is about what it was after 2 000.
fn state_bytes_do_not_grow_with_history<P: Protocol>()
where
    P::Message: Clone,
{
    let mut net = Net::<P>::new(3, 1);
    let mut state_bytes = Vec::new();
    let mut seq = 0u64;
    for commands in [2_000u64, 20_000] {
        while seq < commands {
            seq += 1;
            let coordinator = (seq % 3 + 1) as ProcessId;
            net.submit(coordinator, put(coordinator as u64, seq, seq % 4));
            if seq.is_multiple_of(250) {
                collect(&mut net.replicas);
                // The driver's own journal is not under test.
                net.inputs.iter_mut().for_each(Vec::clear);
                net.executed.clear();
            }
        }
        let sizes = net.replicas.iter().map(|r| r.save_state().unwrap().len());
        state_bytes.push(sizes.max().unwrap());
    }
    println!("{}: save_state bytes {state_bytes:?}", P::name());
    assert!(
        state_bytes[1] * 2 <= state_bytes[0] * 3,
        "{}: save_state grew from {} bytes after 2 000 commands to {} after 20 000",
        P::name(),
        state_bytes[0],
        state_bytes[1]
    );
}

macro_rules! durability_hook_tests {
    ($name:ident, $proto:ty) => {
        mod $name {
            #[test]
            fn save_restore_roundtrip() {
                super::save_restore_roundtrip::<$proto>();
            }

            #[test]
            fn snapshot_plus_suffix_equals_full_replay() {
                super::snapshot_plus_suffix_equals_full_replay::<$proto>();
            }

            #[test]
            fn committed_log_rebuilds_store() {
                super::committed_log_rebuilds_store::<$proto>();
            }

            #[test]
            fn gc_matches_never_collected_twin() {
                super::gc_matches_never_collected_twin::<$proto>();
            }

            #[test]
            fn state_bytes_do_not_grow_with_history() {
                super::state_bytes_do_not_grow_with_history::<$proto>();
            }
        }
    };
}

durability_hook_tests!(atlas, ::atlas_protocol::Atlas);
durability_hook_tests!(epaxos, ::epaxos::EPaxos);
durability_hook_tests!(fpaxos, ::fpaxos::FPaxos);
durability_hook_tests!(mencius, ::mencius::Mencius);

/// Atlas and EPaxos are one engine with one state layout, so decoding alone
/// cannot tell their snapshots and executed markers apart — the rule name
/// the bytes carry must: restoring a replica under the other rule would
/// silently change its quorum sizes and recovery rule mid-history.
#[test]
fn snapshots_and_markers_do_not_cross_rules() {
    use ::atlas_protocol::Atlas;
    use ::epaxos::EPaxos;
    let atlas = &drive::<Atlas>(4).replicas[0];
    let epaxos = &drive::<EPaxos>(4).replicas[0];
    let (config, topology) = (Config::new(3, 1), Topology::identity(1, 3));
    let atlas_state = atlas.save_state().unwrap();
    let epaxos_state = epaxos.save_state().unwrap();
    assert!(Atlas::restore_state(1, config, topology.clone(), &atlas_state).is_some());
    assert!(EPaxos::restore_state(1, config, topology.clone(), &atlas_state).is_none());
    assert!(Atlas::restore_state(1, config, topology.clone(), &epaxos_state).is_none());

    let mut fresh = EPaxos::new(1, config, topology);
    assert!(
        !fresh.restore_executed(&atlas.save_executed()),
        "an Atlas marker must not install into EPaxos"
    );
    assert!(fresh.executed_watermarks().iter().all(|&(_, w)| w == 0));
    assert!(fresh.restore_executed(&epaxos.save_executed()));
}
