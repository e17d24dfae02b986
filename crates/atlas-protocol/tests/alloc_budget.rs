//! The commit cycle's cost vector, as counts (no clocks): how many heap
//! allocations one command costs from `submit` to `Execute` at all three
//! replicas of an in-memory cluster, how many messages and encoded bytes
//! the replicas send each other for it, and how many bytes of
//! `save_state()` one tracked identifier costs.
//!
//! The cluster is [`ChaosNet::fifo`], the driver of the protocol crates'
//! unit tests. Its own allocations (a queue per run, a clone per target, the
//! executed record) are inside the budget. The run is deterministic, so the
//! traffic is pinned exactly: a change that moves it updates the pin and
//! says so. The counter is process-wide, so this file holds one test.

use atlas_core::{Command, Config, ProcessId, Protocol, Rifl};
use atlas_metrics::{allocations, CountingAllocator};
use atlas_protocol::chaos::ChaosNet;
use atlas_protocol::{Atlas, Message};
use std::cell::Cell;
use std::rc::Rc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn cluster() -> ChaosNet<Atlas> {
    ChaosNet::fifo(Config::new(3, 1))
}

/// What the replicas sent each other: one message per target, and the
/// bytes of their encodings.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Traffic {
    messages: u64,
    bytes: u64,
}

/// Counts `cluster`'s traffic into the returned cell. The encoding buffer
/// is reused, so after the first messages the count allocates nothing.
fn count_traffic(cluster: &mut ChaosNet<Atlas>) -> Rc<Cell<Traffic>> {
    let traffic = Rc::new(Cell::new(Traffic::default()));
    let seen = Rc::clone(&traffic);
    let mut buf = Vec::new();
    cluster.on_send = Some(Box::new(move |msg: &Message| {
        buf.clear();
        bincode::serialize_into(&mut buf, msg).expect("message encodes");
        let t = seen.get();
        seen.set(Traffic {
            messages: t.messages + 1,
            bytes: t.bytes + buf.len() as u64,
        });
    }));
    traffic
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

/// Allocations per command: the readings (28.05 without dependencies,
/// 28.00 with one) plus under half an allocation, so one more allocation
/// per command fails.
const BUDGET: f64 = 28.5;

#[test]
fn a_commit_cycle_stays_within_its_allocation_and_state_budget() {
    const COMMANDS: u64 = 2_000;
    let put = |seq: u64, key: u64| Command::put(Rifl::new(1, seq), key, seq, 64);

    // Writes to keys nobody touched: no dependencies anywhere. (Growing the
    // tables is in the count; it amortises to well under one allocation.)
    let mut net = cluster();
    let traffic = count_traffic(&mut net);
    let fresh = (1..=COMMANDS).map(|seq| put(seq, 1_000 + seq)).collect();
    let free = allocations_per_command(&mut net, fresh);
    assert!(
        free <= BUDGET,
        "{free:.2} allocations per dependency-free command (budget {BUDGET}; the hash-set engine took 54)"
    );
    // Per command: MCollect and its ack, MCommit to two peers; 274 bytes.
    assert_eq!(
        traffic.take(),
        Traffic {
            messages: 8_000,
            bytes: 548_000
        },
        "traffic of {COMMANDS} dependency-free commands"
    );

    // Writes to one key: each depends on its predecessor, long executed.
    let chain = (1..=COMMANDS).map(|seq| put(COMMANDS + seq, 7)).collect();
    let chained = allocations_per_command(&mut net, chain);
    assert!(
        chained <= BUDGET,
        "{chained:.2} allocations per command with one dependency (budget {BUDGET})"
    );
    // The same four messages, each dependency set one identifier longer.
    assert_eq!(
        traffic.take(),
        Traffic {
            messages: 8_000,
            bytes: 643_952
        },
        "traffic of {COMMANDS} commands with one dependency each"
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
