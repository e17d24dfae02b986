//! Where one commit cycle goes: three in-memory Atlas replicas, no sockets,
//! the `lan_batch` shape of `benchmark/` (two coordinators taking turns in
//! 16-command batches, half GETs, every 20th command on one of four hot
//! keys, 10 000 preloaded private keys per client, nothing collected).
//!
//! Prints nanoseconds, heap allocations and allocated bytes per command,
//! whole and split by the handler that spends them:
//!
//! | row | what runs |
//! |---|---|
//! | `submit` | conflict lookup for `past`, quorum draw |
//! | `MCollect` | conflict lookup + indexing at each fast-quorum member |
//! | `MCollectAck` | ack bookkeeping and the fast/slow decision |
//! | `MCommit` | graph insert and execution at every replica |
//! | `encode` | `bincode::serialize` of every message with a remote target |
//! | `driver` | this file's own queue and per-target message clones |
//!
//! then `save_state()` bytes per tracked entry and the frame sizes of
//! `MCollectAck`/`MCommit`. The split pays two clock reads per handler
//! call, so the whole-cycle figure comes from a separate untimed pass.
//!
//! ```text
//! cargo run --release -p atlas-protocol --example commit_cycle -- \
//!     [--commands 200000]
//! ```
//!
//! Allocation counts do not depend on the machine; their bound is
//! `tests/alloc_budget.rs`.

use atlas_core::{Action, Command, Config, ProcessId, Protocol, Rifl, Topology};
use atlas_metrics::{allocated_bytes, allocations, CountingAllocator};
use atlas_protocol::{Atlas, Message};
use std::collections::VecDeque;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const BATCH: usize = 16;
const PRIVATE_KEYS: u64 = 10_000;
const HOT_KEYS: u64 = 4;
const HOT_EVERY: u64 = 20;

/// Time, allocations and bytes spent under one label.
#[derive(Default, Clone, Copy)]
struct Cost {
    ns: u64,
    allocs: u64,
    bytes: u64,
}

impl Cost {
    fn measure<T>(&mut self, body: impl FnOnce() -> T) -> T {
        let (allocs, bytes, start) = (allocations(), allocated_bytes(), Instant::now());
        let out = body();
        self.ns += start.elapsed().as_nanos() as u64;
        self.allocs += allocations() - allocs;
        self.bytes += allocated_bytes() - bytes;
        out
    }

    fn row(&self, label: &str, commands: u64) {
        let per = |total: u64| total as f64 / commands as f64;
        println!(
            "{label:<12} {:>9.0} ns {:>7.2} allocs {:>8.0} B",
            per(self.ns),
            per(self.allocs),
            per(self.bytes)
        );
    }
}

#[derive(Default)]
struct Split {
    submit: Cost,
    collect: Cost,
    collect_ack: Cost,
    commit: Cost,
    other: Cost,
    encode: Cost,
}

struct Cluster {
    replicas: Vec<Atlas>,
    queue: VecDeque<(ProcessId, ProcessId, Message)>,
    executed: u64,
    /// `Some` in the split pass: time each handler and encode what leaves.
    split: Option<Split>,
}

impl Cluster {
    fn new() -> Self {
        let config = Config::new(3, 1);
        Self {
            replicas: (1..=3)
                .map(|id| Atlas::new(id, config, Topology::identity(id, 3)))
                .collect(),
            queue: VecDeque::new(),
            executed: 0,
            split: None,
        }
    }

    fn perform(&mut self, at: ProcessId, actions: Vec<Action<Message>>) {
        for action in actions {
            match action {
                Action::Send { targets, msg } => {
                    if let Some(split) = &mut self.split {
                        if targets.iter().any(|to| *to != at) {
                            split.encode.measure(|| {
                                std::hint::black_box(
                                    bincode::serialize(&msg).expect("message encodes"),
                                );
                            });
                        }
                    }
                    // Self-addressed first, as the runtime delivers them.
                    let ordered = targets.iter().filter(|to| **to == at);
                    for to in ordered.chain(targets.iter().filter(|to| **to != at)) {
                        self.queue.push_back((at, *to, msg.clone()));
                    }
                }
                Action::Execute { .. } => self.executed += 1,
                Action::Commit { .. } => {}
            }
        }
    }

    /// One command from submission to `Execute` at all three replicas.
    fn commit(&mut self, at: ProcessId, cmd: Command) {
        let replica = &mut self.replicas[at as usize - 1];
        let actions = match &mut self.split {
            Some(split) => split.submit.measure(|| replica.submit(cmd, 0)),
            None => replica.submit(cmd, 0),
        };
        self.perform(at, actions);
        while let Some((from, to, msg)) = self.queue.pop_front() {
            let replica = &mut self.replicas[to as usize - 1];
            let actions = match &mut self.split {
                Some(split) => {
                    let cost = match &msg {
                        Message::MCollect { .. } => &mut split.collect,
                        Message::MCollectAck { .. } => &mut split.collect_ack,
                        Message::MCommit { .. } => &mut split.commit,
                        _ => &mut split.other,
                    };
                    cost.measure(|| replica.handle(from, msg, 0))
                }
                None => replica.handle(from, msg, 0),
            };
            self.perform(to, actions);
        }
    }
}

/// splitmix64, as the benchmark's workload generator draws.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `index`-th command of `client` (1 or 2, coordinated there).
fn command(client: u64, index: u64, rng: &mut u64) -> Command {
    let rifl = Rifl::new(client, index + 1);
    let key = if index % HOT_EVERY == HOT_EVERY - 1 {
        next(rng) % HOT_KEYS
    } else {
        client * 1_000_000 + next(rng) % PRIVATE_KEYS
    };
    if next(rng).is_multiple_of(2) {
        Command::get(rifl, key)
    } else {
        Command::put(rifl, key, index, 64)
    }
}

/// `commands` commands through a preloaded cluster; the whole-cycle cost
/// and, when `split` is set, the per-handler costs.
fn run(commands: u64, split: bool) -> (Cost, Cluster) {
    let mut cluster = Cluster::new();
    let mut preload = 0;
    for client in 1..=2u64 {
        for key in 0..PRIVATE_KEYS {
            preload += 1;
            let rifl = Rifl::new(100 + client, key + 1);
            let put = Command::put(rifl, client * 1_000_000 + key, key, 64);
            cluster.commit(client as ProcessId, put);
        }
    }
    for key in 0..HOT_KEYS {
        preload += 1;
        cluster.commit(1, Command::put(Rifl::new(100, key + 1), key, key, 64));
    }
    cluster.split = split.then(Split::default);
    let mut rng = 7;
    let mut issued = [0u64; 2];
    let mut whole = Cost::default();
    let mut done = 0;
    while done < commands {
        for client in 1..=2u64 {
            let batch: Vec<Command> = (0..BATCH)
                .map(|_| {
                    let index = &mut issued[client as usize - 1];
                    *index += 1;
                    command(client, *index - 1, &mut rng)
                })
                .collect();
            done += batch.len() as u64;
            whole.measure(|| {
                for cmd in batch {
                    cluster.commit(client as ProcessId, cmd);
                }
            });
        }
    }
    assert_eq!(
        cluster.executed,
        3 * (preload + done),
        "every command executes at all three replicas"
    );
    (whole, cluster)
}

fn frame_sizes(cluster: &mut Cluster) {
    let mut sizes: Vec<(&str, usize, usize)> = Vec::new();
    let mut record = |msg: &Message| {
        let (name, deps) = match msg {
            Message::MCollectAck { deps, .. } => ("MCollectAck", deps.len()),
            Message::MCommit { deps, .. } => ("MCommit", deps.len()),
            _ => return,
        };
        let bytes = bincode::serialize(msg).expect("message encodes").len();
        if !sizes.iter().any(|(n, d, _)| *n == name && *d == deps) {
            sizes.push((name, deps, bytes));
        }
    };
    // Two writes to one fresh key: the first has no dependency, the second
    // depends on the first.
    for seq in 1..=2 {
        let cmd = Command::put(Rifl::new(999, seq), u64::MAX, seq, 64);
        let actions = cluster.replicas[0].submit(cmd, 0);
        cluster.perform(1, actions);
        while let Some((from, to, msg)) = cluster.queue.pop_front() {
            record(&msg);
            let actions = cluster.replicas[to as usize - 1].handle(from, msg, 0);
            cluster.perform(to, actions);
        }
    }
    for (name, deps, bytes) in sizes {
        println!("frame {name} with {deps} dependencies: {bytes} B");
    }
}

fn main() {
    let mut commands = 200_000u64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--commands" => commands = value.parse().expect("--commands <count>"),
            other => panic!("unknown flag {other}"),
        }
    }

    let (whole, mut cluster) = run(commands, false);
    println!("commit cycle, {commands} commands, 3 replicas, per command:");
    whole.row("whole", commands);
    let replica = &cluster.replicas[0];
    let state = replica.save_state().expect("Atlas snapshots its state");
    println!(
        "save_state: {} B over {} tracked entries = {:.1} B per entry",
        state.len(),
        replica.tracked_entries(),
        state.len() as f64 / replica.tracked_entries() as f64
    );
    frame_sizes(&mut cluster);
    drop(cluster);

    let (timed, cluster) = run(commands, true);
    let split = cluster.split.as_ref().expect("split pass");
    println!("split pass (two clock reads per handler call):");
    let parts = [
        ("submit", split.submit),
        ("MCollect", split.collect),
        ("MCollectAck", split.collect_ack),
        ("MCommit", split.commit),
        ("other", split.other),
        ("encode", split.encode),
    ];
    let mut driver = timed;
    for (label, cost) in parts {
        cost.row(label, commands);
        driver.ns = driver.ns.saturating_sub(cost.ns);
        driver.allocs -= cost.allocs;
        driver.bytes -= cost.bytes;
    }
    driver.row("driver", commands);
}
