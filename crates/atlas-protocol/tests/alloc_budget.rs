//! The commit cycle's allocation and state budget, as counts (no clocks):
//! how many heap allocations one command costs from `submit` to `Execute` at
//! all three replicas of an in-memory cluster, and how many bytes of
//! `save_state()` one tracked identifier costs.
//!
//! The cluster is [`ChaosNet::fifo`], the driver of the protocol crates'
//! unit tests. Its own allocations (a queue per run, a clone per target, the
//! executed record) are inside the budget. The counter is process-wide, so
//! this file holds one test.

use atlas_core::{Command, Config, ProcessId, Protocol, Rifl};
use atlas_metrics::{allocations, CountingAllocator};
use atlas_protocol::chaos::ChaosNet;
use atlas_protocol::Atlas;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn cluster() -> ChaosNet<Atlas> {
    ChaosNet::fifo(Config::new(3, 1))
}

/// Executions recorded at all replicas together.
fn executed(cluster: &ChaosNet<Atlas>) -> usize {
    cluster.executed.values().map(Vec::len).sum()
}

/// Mean allocations per command over `commands`, each submitted at replica
/// 1 and executed at all three.
fn allocations_per_command(cluster: &mut ChaosNet<Atlas>, commands: Vec<Command>) -> f64 {
    let count = commands.len();
    let (allocs, done) = (allocations(), executed(cluster));
    for cmd in commands {
        cluster.submit(1, cmd);
    }
    let allocs = allocations() - allocs;
    assert_eq!(executed(cluster), done + 3 * count, "executed at all three");
    allocs as f64 / count as f64
}

#[test]
fn a_commit_cycle_stays_within_its_allocation_and_state_budget() {
    const COMMANDS: u64 = 2_000;
    let put = |seq: u64, key: u64| Command::put(Rifl::new(1, seq), key, seq, 64);

    // Writes to keys nobody touched: no dependencies anywhere. (Growing the
    // tables is in the count; it amortises to well under one allocation.)
    let mut net = cluster();
    let fresh = (1..=COMMANDS).map(|seq| put(seq, 1_000 + seq)).collect();
    let free = allocations_per_command(&mut net, fresh);
    assert!(
        free <= 30.0,
        "{free:.1} allocations per dependency-free command (budget 30; the hash-set engine took 54)"
    );

    // Writes to one key: each depends on its predecessor, long executed.
    let chain = (1..=COMMANDS).map(|seq| put(COMMANDS + seq, 7)).collect();
    let chained = allocations_per_command(&mut net, chain);
    assert!(
        chained <= 36.0,
        "{chained:.1} allocations per command with one dependency (budget 36)"
    );

    // State per tracked identifier: 10 000 commands from two coordinators,
    // half reads, over 64 keys, nothing collected.
    let mut net = cluster();
    for seq in 1..=10_000u64 {
        let (rifl, key) = (Rifl::new(2, seq), seq * 7 % 64);
        let cmd = match seq % 2 {
            0 => Command::get(rifl, key),
            _ => Command::put(rifl, key, seq, 64),
        };
        net.submit((seq % 2 + 1) as ProcessId, cmd);
    }
    assert_eq!(executed(&net), 3 * 10_000, "executed at all three");
    let replica = &net.replicas[2];
    assert_eq!(replica.tracked_entries(), 10_000);
    let state = replica.save_state().expect("Atlas snapshots its state");
    let per_entry = state.len() as f64 / 10_000.0;
    assert!(
        per_entry <= 120.0,
        "{per_entry:.1} bytes of save_state() per tracked identifier (budget 120, 210 before)"
    );
}
