//! Commands applied to the replicated state machine and their conflict
//! relation.
//!
//! The replicated service evaluated in the paper is a key–value store (KVS).
//! A [`Command`] accesses one or more keys, each with a [`KvOp`]. Two commands
//! *conflict* when they access a common key and at least one of them writes it
//! — this is the commutativity-based conflict relation from §2 of the paper
//! (reads of the same key commute; read/write and write/write on the same key
//! do not). The microbenchmark of §5.2 uses single-key write commands, for
//! which "conflict ⇔ same key".

use crate::id::{ProcessId, Rifl};
use serde::{Deserialize, Error, Reader, Serialize};

/// A membership-change request carried by a [`Command`] (see
/// [`Command::reconfigure`]). Reconfiguration commands are sequenced through
/// the replicated log like any client command; because they conflict with
/// every other command they act as total-order barriers, so every replica
/// applies the change at the same position of its execution order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconfigOp {
    /// Enter the joint window towards a new configuration: `members` is the
    /// full target member list with the address each member serves on, and
    /// `f` the failure budget of the target configuration. Until the
    /// matching [`ReconfigOp::Finalize`] executes, proposals must gather
    /// quorums in both the old and the new configuration.
    Enter {
        /// Target members as `(id, address)` pairs. Addresses are strings
        /// (`"host:port"`) so the command stays serializable with the
        /// offline codec set.
        members: Vec<(ProcessId, String)>,
        /// Failures tolerated by the target configuration.
        f: usize,
    },
    /// Close the joint window: the target configuration stands alone from
    /// the next epoch on. Executes as a no-op outside a joint window, which
    /// makes duplicate submissions harmless.
    Finalize,
}

/// A key of the replicated key–value store.
pub type Key = u64;

/// Maps a key to its executor shard under a `shards`-way keyspace
/// partition: FNV-1a over the key's little-endian bytes, reduced modulo the
/// shard count. Hashing (rather than range-splitting) spreads hot adjacent
/// keys — client `i` writing `i*10_000 + j` — across shards; FNV matches
/// the digest/Zipf-scramble hash already used by the store so the whole
/// code base keys off one function family.
///
/// Every replica must use the same `shards` value for the same command
/// stream only insofar as *dispatch* is concerned — execution output is
/// shard-count independent (see the determinism oracle test), so replicas
/// may legally run with different shard counts.
pub fn shard_of(key: Key, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// A value stored in the replicated key–value store.
///
/// Values carry an explicit payload size so that the simulator can model the
/// serialization cost of the 100 B / 3 KB payloads used in the paper without
/// materializing the bytes.
pub type Value = u64;

/// A single-key operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KvOp {
    /// Read the current value of the key.
    Get,
    /// Overwrite the key with a value.
    Put(Value),
    /// Remove the key.
    Delete,
}

impl KvOp {
    /// Whether the operation leaves the state unchanged (a *read* in the
    /// paper's terminology, §B.1).
    pub fn is_read(&self) -> bool {
        matches!(self, KvOp::Get)
    }
}

/// A command submitted to the replicated state machine.
///
/// A command carries the issuing client's [`Rifl`], a set of keyed operations
/// and a synthetic payload size (bytes). The special [`Command::noop`] command
/// conflicts with every other command and is used by recovery when a
/// command's payload cannot be retrieved (paper §3.2.6).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Command {
    /// Request identifier of the client call that produced this command.
    pub rifl: Rifl,
    /// Operations, keyed by the key they access. Empty for `noOp`.
    ops: Ops,
    /// Synthetic payload size in bytes (the paper uses 100 B and 3 KB).
    pub payload_size: usize,
    /// Marks the recovery `noOp` command, which conflicts with everything and
    /// is never applied to the state machine.
    noop: bool,
    /// A membership change riding in the log. Like `noOp` it conflicts with
    /// every command (the total-order barrier), but unlike `noOp` it **is**
    /// executed — the runtime intercepts the execution and switches epochs.
    /// Boxed: one command in millions carries one, and every clone and every
    /// table slot of the others would pay for its size.
    reconfig: Option<Box<ReconfigOp>>,
}

/// A command's keyed operations: sorted by key, one operation per key (the
/// last one given wins, as inserting into a map would have it). A vector
/// rather than a tree because almost every command touches one key, and a
/// command is cloned on its way to every replica's executor: this clone is
/// one 24-byte allocation. Encodes as `len + (key, op) pairs`, the map
/// encoding; decoding re-establishes the order, so no client can submit a
/// command whose keys are unsorted or repeated.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
struct Ops(Vec<(Key, KvOp)>);

impl FromIterator<(Key, KvOp)> for Ops {
    fn from_iter<I: IntoIterator<Item = (Key, KvOp)>>(ops: I) -> Self {
        let mut ops: Vec<(Key, KvOp)> = ops.into_iter().collect();
        if !ops.windows(2).all(|w| w[0].0 < w[1].0) {
            ops.sort_by_key(|(key, _)| *key); // stable: repeats keep their order
            ops.dedup_by(|later, kept| {
                let repeat = later.0 == kept.0;
                if repeat {
                    *kept = *later;
                }
                repeat
            });
        }
        Self(ops)
    }
}

impl Deserialize for Ops {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(Vec::<(Key, KvOp)>::deserialize(input)?
            .into_iter()
            .collect())
    }
}

impl Command {
    /// Creates a command from a list of keyed operations.
    pub fn new(
        rifl: Rifl,
        ops: impl IntoIterator<Item = (Key, KvOp)>,
        payload_size: usize,
    ) -> Self {
        Self {
            rifl,
            ops: ops.into_iter().collect(),
            payload_size,
            noop: false,
            reconfig: None,
        }
    }

    /// Creates a single-key `Get` command.
    pub fn get(rifl: Rifl, key: Key) -> Self {
        Self::new(rifl, [(key, KvOp::Get)], 8)
    }

    /// Creates a single-key `Put` command with the given payload size.
    pub fn put(rifl: Rifl, key: Key, value: Value, payload_size: usize) -> Self {
        Self::new(rifl, [(key, KvOp::Put(value))], payload_size)
    }

    /// Creates the special `noOp` command used by recovery (§3.2.6). It
    /// conflicts with all commands and is skipped at execution time.
    pub fn noop() -> Self {
        Self {
            rifl: Rifl::new(0, 0),
            ops: Ops(Vec::new()),
            payload_size: 0,
            noop: true,
            reconfig: None,
        }
    }

    /// Whether this is the recovery `noOp` command.
    pub fn is_noop(&self) -> bool {
        self.noop
    }

    /// Creates a membership-change command (see [`ReconfigOp`]). It carries
    /// no key–value operations, conflicts with every command so the log
    /// totally orders the switch against all traffic, and executes as the
    /// runtime's signal to change epochs.
    pub fn reconfigure(rifl: Rifl, op: ReconfigOp) -> Self {
        Self {
            rifl,
            ops: Ops(Vec::new()),
            payload_size: 0,
            noop: false,
            reconfig: Some(Box::new(op)),
        }
    }

    /// The membership change this command carries, if it is one.
    pub fn reconfig_op(&self) -> Option<&ReconfigOp> {
        self.reconfig.as_deref()
    }

    /// Whether this command carries a membership change.
    pub fn is_reconfig(&self) -> bool {
        self.reconfig.is_some()
    }

    /// Whether every operation in the command is a read.
    ///
    /// Read-only commands are eligible for the NFR optimization (§4) when the
    /// conflict relation is transitive.
    pub fn is_read_only(&self) -> bool {
        !self.noop && !self.ops.0.is_empty() && self.ops().all(|(_, op)| op.is_read())
    }

    /// Whether the command writes at least one key.
    pub fn is_write(&self) -> bool {
        self.ops().any(|(_, op)| !op.is_read())
    }

    /// Iterates over the keys accessed by the command.
    pub fn keys(&self) -> impl Iterator<Item = &Key> {
        self.ops.0.iter().map(|(key, _)| key)
    }

    /// Iterates over the keyed operations of the command.
    pub fn ops(&self) -> impl Iterator<Item = (&Key, &KvOp)> {
        self.ops.0.iter().map(|(key, op)| (key, op))
    }

    /// Number of keys accessed.
    pub fn key_count(&self) -> usize {
        self.ops.0.len()
    }

    /// The executor shards this command's keys hash to under an `shards`-way
    /// keyspace partition: sorted, deduplicated shard indices (empty for
    /// `noOp`/`Reconfigure`, which carry no keyed operations — the runtime
    /// treats those as total-order barriers, not shardable work).
    ///
    /// Sorted order is load-bearing: a multi-shard command acquires its
    /// shards in exactly this order, which is what makes the cross-shard
    /// barrier deadlock-free (every executor orders its acquisitions the
    /// same way).
    pub fn shard_ids(&self, shards: usize) -> Vec<usize> {
        let mut ids: Vec<usize> = self.keys().map(|&key| shard_of(key, shards)).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Whether two commands conflict, i.e. do **not** commute (paper §2).
    ///
    /// * `noOp` conflicts with every command (including another `noOp`).
    /// * Otherwise, commands conflict iff they access a common key and at
    ///   least one of the two accesses is a write.
    pub fn conflicts_with(&self, other: &Command) -> bool {
        if self.noop || other.noop || self.reconfig.is_some() || other.reconfig.is_some() {
            return true;
        }
        // Search the longer operation list for each key of the shorter.
        let (small, large) = if self.ops.0.len() <= other.ops.0.len() {
            (&self.ops.0, &other.ops.0)
        } else {
            (&other.ops.0, &self.ops.0)
        };
        small.iter().any(|(key, op)| {
            let found = large.binary_search_by_key(key, |(k, _)| *k);
            found.is_ok_and(|at| !(op.is_read() && large[at].1.is_read()))
        })
    }

    /// Conflict relation ignoring reads entirely, used when the NFR
    /// optimization is enabled: reads are excluded from dependency
    /// computation (§4, "Non-fault-tolerant reads").
    pub fn conflicts_with_write(&self, other: &Command) -> bool {
        if self.noop || other.noop || self.reconfig.is_some() || other.reconfig.is_some() {
            return true;
        }
        if other.is_read_only() {
            return false;
        }
        self.conflicts_with(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rifl(n: u64) -> Rifl {
        Rifl::new(n, 1)
    }

    #[test]
    fn same_key_writes_conflict() {
        let a = Command::put(rifl(1), 0, 1, 100);
        let b = Command::put(rifl(2), 0, 2, 100);
        assert!(a.conflicts_with(&b));
        assert!(b.conflicts_with(&a));
    }

    #[test]
    fn different_key_writes_commute() {
        let a = Command::put(rifl(1), 0, 1, 100);
        let b = Command::put(rifl(2), 1, 2, 100);
        assert!(!a.conflicts_with(&b));
        assert!(!b.conflicts_with(&a));
    }

    #[test]
    fn reads_of_same_key_commute() {
        let a = Command::get(rifl(1), 0);
        let b = Command::get(rifl(2), 0);
        assert!(!a.conflicts_with(&b));
    }

    #[test]
    fn read_write_same_key_conflict() {
        let a = Command::get(rifl(1), 0);
        let b = Command::put(rifl(2), 0, 7, 100);
        assert!(a.conflicts_with(&b));
        assert!(b.conflicts_with(&a));
    }

    #[test]
    fn noop_conflicts_with_everything() {
        let noop = Command::noop();
        let read = Command::get(rifl(1), 42);
        let write = Command::put(rifl(2), 43, 1, 100);
        assert!(noop.conflicts_with(&read));
        assert!(noop.conflicts_with(&write));
        assert!(read.conflicts_with(&noop));
        assert!(noop.conflicts_with(&Command::noop()));
        assert!(noop.is_noop());
        assert!(!noop.is_read_only());
    }

    #[test]
    fn reconfigure_is_a_total_order_barrier() {
        let barrier = Command::reconfigure(rifl(9), ReconfigOp::Finalize);
        let read = Command::get(rifl(1), 42);
        let write = Command::put(rifl(2), 43, 1, 100);
        assert!(barrier.is_reconfig());
        assert!(!barrier.is_noop());
        assert!(!barrier.is_read_only());
        assert!(barrier.conflicts_with(&read));
        assert!(read.conflicts_with(&barrier));
        assert!(barrier.conflicts_with(&write));
        assert!(barrier.conflicts_with(&Command::reconfigure(rifl(10), ReconfigOp::Finalize)));
        // NFR's write-only relation must also see the barrier.
        assert!(read.conflicts_with_write(&barrier));
        assert!(barrier.conflicts_with_write(&read));
    }

    #[test]
    fn multi_key_conflict_detection() {
        let a = Command::new(rifl(1), [(1, KvOp::Put(1)), (2, KvOp::Get)], 100);
        let b = Command::new(rifl(2), [(2, KvOp::Put(5)), (3, KvOp::Get)], 100);
        let c = Command::new(rifl(3), [(4, KvOp::Get), (5, KvOp::Put(0))], 100);
        // a and b share key 2 (read in a, write in b) -> conflict.
        assert!(a.conflicts_with(&b));
        // a and c share no key -> commute.
        assert!(!a.conflicts_with(&c));
        // b and c share no key -> commute.
        assert!(!b.conflicts_with(&c));
    }

    #[test]
    fn read_only_classification() {
        let r = Command::get(rifl(1), 3);
        let w = Command::put(rifl(2), 3, 9, 10);
        let rw = Command::new(rifl(3), [(1, KvOp::Get), (2, KvOp::Put(1))], 10);
        assert!(r.is_read_only());
        assert!(!r.is_write());
        assert!(!w.is_read_only());
        assert!(w.is_write());
        assert!(!rw.is_read_only());
        assert!(rw.is_write());
    }

    #[test]
    fn nfr_conflict_relation_ignores_reads() {
        let w = Command::put(rifl(1), 0, 1, 100);
        let r = Command::get(rifl(2), 0);
        // Under NFR, a read is never a dependency of anything.
        assert!(!w.conflicts_with_write(&r));
        // But a write is still a dependency of a read touching the same key.
        assert!(r.conflicts_with_write(&w));
    }

    #[test]
    fn shard_routing_is_stable_sorted_and_complete() {
        // One shard: everything routes to shard 0.
        assert_eq!(shard_of(42, 1), 0);
        assert_eq!(shard_of(42, 0), 0);
        // Deterministic: the same key maps to the same shard every time.
        for key in 0..1_000u64 {
            assert_eq!(shard_of(key, 8), shard_of(key, 8));
            assert!(shard_of(key, 8) < 8);
        }
        // An 8-way split of a contiguous key range touches every shard
        // (hashing, not range partitioning).
        let mut seen = [false; 8];
        for key in 0..1_000u64 {
            seen[shard_of(key, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "contiguous keys left a shard cold");

        let multi = Command::new(rifl(1), (0..64).map(|k| (k, KvOp::Put(k))), 8);
        let ids = multi.shard_ids(8);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "not sorted/deduped");
        assert!(!ids.is_empty());
        // Barriers carry no keys: they are scheduled inline, not sharded.
        assert!(Command::noop().shard_ids(8).is_empty());
        assert!(Command::reconfigure(rifl(2), ReconfigOp::Finalize)
            .shard_ids(8)
            .is_empty());
    }

    #[test]
    fn operations_are_sorted_by_key_and_the_last_one_per_key_wins() {
        let ops = [
            (7, KvOp::Get),
            (3, KvOp::Put(1)),
            (7, KvOp::Put(2)),
            (3, KvOp::Delete),
        ];
        let cmd = Command::new(rifl(1), ops, 8);
        let listed: Vec<(Key, KvOp)> = cmd.ops().map(|(k, op)| (*k, *op)).collect();
        assert_eq!(listed, vec![(3, KvOp::Delete), (7, KvOp::Put(2))]);
        assert_eq!(cmd.keys().copied().collect::<Vec<_>>(), vec![3, 7]);
        // The encoding is the map's (`len`, then pairs in key order), and a
        // crafted frame with unsorted, repeated keys decodes to the same
        // command a well-behaved client would have built.
        let encode = |ops: &[(Key, KvOp)]| {
            let mut bytes = Vec::new();
            ops.to_vec().serialize(&mut bytes);
            bytes
        };
        let mut sorted = Vec::new();
        cmd.ops.serialize(&mut sorted);
        assert_eq!(sorted, encode(&listed));
        let decoded = Ops::deserialize(&mut Reader::new(&encode(&ops))).unwrap();
        assert_eq!(decoded, cmd.ops);
    }

    #[test]
    fn delete_is_a_write() {
        let d = Command::new(rifl(1), [(0, KvOp::Delete)], 8);
        let r = Command::get(rifl(2), 0);
        assert!(d.is_write());
        assert!(d.conflicts_with(&r));
    }
}
