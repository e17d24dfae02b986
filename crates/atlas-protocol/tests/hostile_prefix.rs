//! A peer frame whose length prefix lies: it claims as many elements as the
//! frame has bytes left. Decoding must fail having reserved memory in
//! proportion to the input, not to the claimed count times the element
//! width. The counter is process-wide, so this file holds one test.

use atlas_core::{Command, DepSet, Dot, Rifl};
use atlas_metrics::{allocated_bytes, CountingAllocator};
use atlas_protocol::Message;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn a_lying_length_prefix_reserves_memory_bounded_by_the_input() {
    const CLAIMED: usize = 4 << 20;
    // A command with no operations: its rifl is followed by the operation
    // list's length prefix, 0.
    let rifl = Rifl::new(0xC1C1_C1C1, 0xD1D1_D1D1);
    let honest = Message::MCollect {
        dot: Dot::new(1, 1),
        cmd: Command::new(rifl, [], 64),
        past: DepSet::default(),
        quorum: vec![1, 2],
    };
    let frame = bincode::serialize(&honest).expect("message encodes");
    let prefix = |len: u64| bincode::serialize(&len).expect("prefix encodes");
    let mut marker = bincode::serialize(&rifl).expect("rifl encodes");
    marker.extend(prefix(0));
    let at = frame
        .windows(marker.len())
        .position(|w| w == marker.as_slice())
        .expect("the rifl and the empty operation list are in the frame");

    // Keep everything up to the prefix, claim CLAIMED operations and send
    // CLAIMED bytes that do not decode as one.
    let mut hostile = frame[..at + marker.len() - prefix(0).len()].to_vec();
    hostile.extend(prefix(CLAIMED as u64));
    hostile.resize(hostile.len() + CLAIMED, 0xA5);

    let before = allocated_bytes();
    let decoded = bincode::deserialize::<Message>(&hostile);
    let allocated = allocated_bytes() - before;
    assert!(decoded.is_err(), "0xA5… is no operation");
    // Reserving for the claim takes 24 bytes per claimed operation (96 MiB).
    let budget = 4 * hostile.len() as u64 + (2 << 20);
    assert!(
        allocated <= budget,
        "decoding a {} B frame allocated {allocated} B (budget {budget} B)",
        hostile.len()
    );
}
