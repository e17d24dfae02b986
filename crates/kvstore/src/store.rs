//! The key–value store state machine.

use atlas_core::{Command, Key, KvOp, Rifl, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The result of executing one operation of a command.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Output {
    /// Result of a `Get`: the value stored under the key, if any.
    Value(Option<Value>),
    /// A `Put` or `Delete` completed.
    Done,
}

/// A deterministic, sequential key–value store: the state machine replicated
/// by the SMR protocols.
///
/// Executing the same sequence of commands on two instances yields the same
/// state and the same outputs — the property the SMR Ordering guarantee
/// builds on.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KVStore {
    data: BTreeMap<Key, Value>,
    executed: u64,
}

impl KVStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store preloaded with `records` keys (0..records), each
    /// holding its own index as value — mirrors YCSB's load phase.
    pub fn preloaded(records: u64) -> Self {
        let data = (0..records).map(|k| (k, k)).collect();
        Self { data, executed: 0 }
    }

    /// Number of records currently stored.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of commands executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Executes a command, returning one output per operation in key order
    /// (a command's operations are sorted by key, one per key). `noOp`
    /// commands produce no output, leave the state untouched and are not
    /// counted.
    pub fn execute(&mut self, cmd: &Command) -> Vec<(Key, Output)> {
        if cmd.is_noop() {
            return Vec::new();
        }
        self.executed += 1;
        cmd.ops()
            .map(|(&key, op)| (key, self.apply_op(key, op)))
            .collect()
    }

    /// Applies one keyed operation; the executed counter is
    /// [`KVStore::execute`]'s, which counts the command once.
    fn apply_op(&mut self, key: Key, op: &KvOp) -> Output {
        match op {
            KvOp::Get => Output::Value(self.data.get(&key).copied()),
            KvOp::Put(value) => {
                self.data.insert(key, *value);
                Output::Done
            }
            KvOp::Delete => {
                self.data.remove(&key);
                Output::Done
            }
        }
    }

    /// Reads a key directly (test/inspection helper, not a replicated read).
    pub fn peek(&self, key: Key) -> Option<Value> {
        self.data.get(&key).copied()
    }

    /// Iterates all records in key order — used to stream the store in
    /// bounded chunks during catch-up state transfer.
    pub fn records(&self) -> impl Iterator<Item = (Key, Value)> + '_ {
        self.data.iter().map(|(k, v)| (*k, *v))
    }

    /// Installs one record transferred from a peer's store (catch-up base).
    /// Not a replicated write: no command executes and the executed counter
    /// does not move — pair with [`KVStore::restore_executed_count`].
    pub fn restore_record(&mut self, key: Key, value: Value) {
        self.data.insert(key, value);
    }

    /// Sets the executed-command counter when installing a transferred
    /// base, so the restored store is indistinguishable from one that
    /// executed the transferred history itself.
    pub fn restore_executed_count(&mut self, executed: u64) {
        self.executed = executed;
    }

    /// A digest of the full state, used by tests to compare replicas cheaply.
    pub fn digest(&self) -> u64 {
        // FNV-1a over (key, value) pairs in key order: deterministic and
        // collision-resistant enough for test assertions.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for (k, v) in &self.data {
            mix(*k);
            mix(*v);
        }
        hash
    }
}

/// Convenience helpers to build KV commands.
pub mod commands {
    use super::*;

    /// Builds a `read(k)` command.
    pub fn read(rifl: Rifl, key: Key) -> Command {
        Command::get(rifl, key)
    }

    /// Builds a `write(k, v)` command with the given payload size.
    pub fn write(rifl: Rifl, key: Key, value: Value, payload_size: usize) -> Command {
        Command::put(rifl, key, value, payload_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rifl(n: u64) -> Rifl {
        Rifl::new(n, 1)
    }

    #[test]
    fn put_then_get_round_trips() {
        let mut store = KVStore::new();
        store.execute(&Command::put(rifl(1), 7, 42, 8));
        let out = store.execute(&Command::get(rifl(2), 7));
        assert_eq!(out, vec![(7, Output::Value(Some(42)))]);
    }

    #[test]
    fn get_of_missing_key_returns_none() {
        let mut store = KVStore::new();
        let out = store.execute(&Command::get(rifl(1), 9));
        assert_eq!(out, vec![(9, Output::Value(None))]);
    }

    #[test]
    fn delete_removes_key() {
        let mut store = KVStore::new();
        store.execute(&Command::put(rifl(1), 1, 5, 8));
        store.execute(&Command::new(rifl(2), [(1, KvOp::Delete)], 8));
        assert_eq!(store.peek(1), None);
        assert!(store.is_empty());
    }

    #[test]
    fn noop_does_not_change_state_or_count() {
        let mut store = KVStore::new();
        store.execute(&Command::put(rifl(1), 1, 5, 8));
        let before = store.clone();
        let out = store.execute(&Command::noop());
        assert!(out.is_empty());
        assert_eq!(store, before);
        assert_eq!(store.executed(), 1);
    }

    #[test]
    fn preloaded_matches_ycsb_load_phase() {
        let store = KVStore::preloaded(1_000);
        assert_eq!(store.len(), 1_000);
        assert_eq!(store.peek(0), Some(0));
        assert_eq!(store.peek(999), Some(999));
        assert_eq!(store.peek(1_000), None);
    }

    #[test]
    fn same_command_sequence_gives_same_digest() {
        let cmds: Vec<Command> = (0..100)
            .map(|i| Command::put(Rifl::new(i, 1), i % 7, i * 3, 8))
            .collect();
        let mut a = KVStore::new();
        let mut b = KVStore::new();
        for cmd in &cmds {
            a.execute(cmd);
            b.execute(cmd);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a, b);
    }

    #[test]
    fn different_write_orders_give_different_digests() {
        let mut a = KVStore::new();
        let mut b = KVStore::new();
        let w1 = Command::put(rifl(1), 0, 1, 8);
        let w2 = Command::put(rifl(2), 0, 2, 8);
        a.execute(&w1);
        a.execute(&w2);
        b.execute(&w2);
        b.execute(&w1);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn multi_key_command_executes_all_operations() {
        let mut store = KVStore::new();
        let cmd = Command::new(
            rifl(1),
            [(1, KvOp::Put(10)), (2, KvOp::Put(20)), (3, KvOp::Get)],
            8,
        );
        let out = store.execute(&cmd);
        assert_eq!(out.len(), 3);
        assert_eq!(store.peek(1), Some(10));
        assert_eq!(store.peek(2), Some(20));

        // Unsorted ops repeating a key: one output per distinct key, in key
        // order, and the later op on a repeated key wins.
        let cmd = Command::new(
            rifl(2),
            [
                (3, KvOp::Put(30)),
                (1, KvOp::Get),
                (2, KvOp::Delete),
                (1, KvOp::Put(11)),
                (3, KvOp::Get),
            ],
            8,
        );
        assert_eq!(
            store.execute(&cmd),
            vec![
                (1, Output::Done),
                (2, Output::Done),
                (3, Output::Value(None)),
            ]
        );
        assert_eq!(store.peek(1), Some(11));
        assert_eq!(store.peek(2), None);
        assert_eq!(store.peek(3), None);
        assert_eq!(store.executed(), 2);
    }
}
