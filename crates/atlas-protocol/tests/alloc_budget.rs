//! The commit cycle's allocation and state budget, as counts (no clocks):
//! how many heap allocations one command costs from `submit` to `Execute` at
//! all three replicas of an in-memory cluster, and how many bytes of
//! `save_state()` one tracked identifier costs.
//!
//! The cluster driver clones a message per target and queues it, as
//! `benchmark/src/walk.rs` does; its own allocations are inside the budget.
//! The counter is process-wide, so this file holds one test.

use atlas_core::{Action, Command, Config, ProcessId, Protocol, Rifl, Topology};
use atlas_metrics::{allocations, CountingAllocator};
use atlas_protocol::{Atlas, Message};
use std::collections::VecDeque;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct Cluster {
    replicas: Vec<Atlas>,
    queue: VecDeque<(ProcessId, ProcessId, Message)>,
    executed: u64,
}

impl Cluster {
    fn new() -> Self {
        let config = Config::new(3, 1);
        let replica = |id| Atlas::new(id, config, Topology::identity(id, 3));
        Self {
            replicas: (1..=3).map(replica).collect(),
            queue: VecDeque::new(),
            executed: 0,
        }
    }

    fn perform(&mut self, at: ProcessId, actions: Vec<Action<Message>>) {
        for action in actions {
            match action {
                Action::Send { targets, msg } => {
                    // Self-addressed first, as the runtime delivers them.
                    let own = targets.iter().filter(|to| **to == at);
                    for to in own.chain(targets.iter().filter(|to| **to != at)) {
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
        let before = self.executed;
        let actions = self.replicas[at as usize - 1].submit(cmd, 0);
        self.perform(at, actions);
        while let Some((from, to, msg)) = self.queue.pop_front() {
            let actions = self.replicas[to as usize - 1].handle(from, msg, 0);
            self.perform(to, actions);
        }
        assert_eq!(self.executed, before + 3, "executed at all three replicas");
    }

    /// Mean allocations per command over `commands`.
    fn allocations_per_command(&mut self, commands: Vec<Command>) -> f64 {
        let count = commands.len() as f64;
        let before = allocations();
        for cmd in commands {
            self.commit(1, cmd);
        }
        (allocations() - before) as f64 / count
    }
}

#[test]
fn a_commit_cycle_stays_within_its_allocation_and_state_budget() {
    const COMMANDS: u64 = 2_000;
    let put = |seq: u64, key: u64| Command::put(Rifl::new(1, seq), key, seq, 64);

    // Writes to keys nobody touched: no dependencies anywhere. (Growing the
    // tables is in the count; it amortises to well under one allocation.)
    let mut cluster = Cluster::new();
    let fresh = (1..=COMMANDS).map(|seq| put(seq, 1_000 + seq)).collect();
    let free = cluster.allocations_per_command(fresh);
    assert!(
        free <= 30.0,
        "{free:.1} allocations per dependency-free command (budget 30; the hash-set engine took 54)"
    );

    // Writes to one key: each depends on its predecessor, long executed.
    let chain = (1..=COMMANDS).map(|seq| put(COMMANDS + seq, 7)).collect();
    let chained = cluster.allocations_per_command(chain);
    assert!(
        chained <= 36.0,
        "{chained:.1} allocations per command with one dependency (budget 36)"
    );

    // State per tracked identifier: 10 000 commands from two coordinators,
    // half reads, over 64 keys, nothing collected.
    let mut cluster = Cluster::new();
    for seq in 1..=10_000u64 {
        let (rifl, key) = (Rifl::new(2, seq), seq * 7 % 64);
        let cmd = match seq % 2 {
            0 => Command::get(rifl, key),
            _ => Command::put(rifl, key, seq, 64),
        };
        cluster.commit((seq % 2 + 1) as ProcessId, cmd);
    }
    let replica = &cluster.replicas[2];
    assert_eq!(replica.tracked_entries(), 10_000);
    let state = replica.save_state().expect("Atlas snapshots its state");
    let per_entry = state.len() as f64 / 10_000.0;
    assert!(
        per_entry <= 120.0,
        "{per_entry:.1} bytes of save_state() per tracked identifier (budget 120, 210 before)"
    );
}
