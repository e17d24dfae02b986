//! The key–value store state machine and its [`ExecutionSummary`]: two
//! stores agree on it exactly when they executed the same commands and the
//! writes of every key in the same order (up to 64-bit collisions) — the
//! ordering property for the store's conflict relation. Reads count but
//! are not ordered: under NFR they do not conflict with writes.

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

/// One key of the store: its value, if it holds one, and its write chain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slot {
    /// The stored value; `None` once a `Delete` removed it.
    pub value: Option<Value>,
    /// Every `Put` and `Delete` of the key so far, folded in execution
    /// order. A delete keeps the key's chain.
    pub chain: u64,
}

/// What a store executed, in O(keys).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionSummary {
    /// Commands executed (`noOp`s are not counted).
    pub executed: u64,
    /// Wrapping sum of a fixed mix of every executed command's `Rifl`: a
    /// lost, an extra or a duplicated command changes it, the order not.
    pub set: u64,
    /// The keys' write chains, folded in key order.
    pub order: u64,
}

impl ExecutionSummary {
    /// Number of commands executed.
    pub fn len(&self) -> u64 {
        self.executed
    }

    /// Whether nothing executed.
    pub fn is_empty(&self) -> bool {
        self.executed == 0
    }

    /// The [`set`](Self::set) word of executing the commands `rifls`, in
    /// any order.
    pub fn set_of(rifls: impl IntoIterator<Item = Rifl>) -> u64 {
        rifls
            .into_iter()
            .fold(0, |set, rifl| set.wrapping_add(rifl_word(rifl)))
    }
}

/// splitmix64's finaliser: a fixed, seedless bijection of 64-bit words.
fn fmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A command's word in the summary, from its request identifier.
fn rifl_word(rifl: Rifl) -> u64 {
    fmix(fmix(rifl.client).wrapping_add(rifl.seq))
}

/// The chain after one more write; two writes in the other order give
/// another chain.
fn mix(chain: u64, word: u64) -> u64 {
    fmix(chain.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ word)
}

/// FNV-1a over `(key, word)` pairs: deterministic and collision-resistant
/// enough for comparing replicas.
fn fnv(pairs: impl Iterator<Item = (u64, u64)>) -> u64 {
    let bytes = pairs.flat_map(|(k, v)| k.to_le_bytes().into_iter().chain(v.to_le_bytes()));
    bytes.fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// A deterministic, sequential key–value store: the state machine replicated
/// by the SMR protocols.
///
/// Executing the same sequence of commands on two instances yields the same
/// state, the same outputs and the same summary — the property the SMR
/// Ordering guarantee builds on.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KVStore {
    /// Every key ever written or restored; a deleted key keeps its slot.
    data: BTreeMap<Key, Slot>,
    executed: u64,
    /// [`ExecutionSummary::set`].
    set: u64,
}

impl KVStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store preloaded with `records` keys (0..records), each
    /// holding its own index as value — mirrors YCSB's load phase.
    pub fn preloaded(records: u64) -> Self {
        let mut store = Self::new();
        (0..records).for_each(|k| store.restore_record(k, k));
        store
    }

    /// Number of records currently stored.
    pub fn len(&self) -> usize {
        self.data
            .values()
            .filter(|slot| slot.value.is_some())
            .count()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.data.values().all(|slot| slot.value.is_none())
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
        let word = rifl_word(cmd.rifl);
        self.executed += 1;
        self.set = self.set.wrapping_add(word);
        cmd.ops()
            .map(|(&key, op)| (key, self.apply_op(key, op, word)))
            .collect()
    }

    /// Applies one keyed operation of the command whose word is `word`; the
    /// counters are [`KVStore::execute`]'s, which counts the command once.
    fn apply_op(&mut self, key: Key, op: &KvOp, word: u64) -> Output {
        let value = match op {
            KvOp::Get => return Output::Value(self.peek(key)),
            KvOp::Put(value) => Some(*value),
            KvOp::Delete => None,
        };
        let slot = self.data.entry(key).or_default();
        slot.value = value;
        slot.chain = mix(slot.chain, word);
        Output::Done
    }

    /// Reads a key directly (test/inspection helper, not a replicated read).
    pub fn peek(&self, key: Key) -> Option<Value> {
        self.data.get(&key).and_then(|slot| slot.value)
    }

    /// Iterates every slot in key order, deleted keys included — used to
    /// stream the store in bounded chunks during catch-up state transfer.
    pub fn records(&self) -> impl Iterator<Item = (Key, Slot)> + '_ {
        self.data.iter().map(|(k, slot)| (*k, *slot))
    }

    /// Stores `value` under `key` without executing anything (a preload):
    /// the key's chain and the counters do not move.
    pub fn restore_record(&mut self, key: Key, value: Value) {
        self.data.entry(key).or_default().value = Some(value);
    }

    /// Installs one slot transferred from a peer's store (catch-up base).
    /// Not a replicated write — pair with [`KVStore::restore_executed`].
    pub fn restore_slot(&mut self, key: Key, slot: Slot) {
        self.data.insert(key, slot);
    }

    /// Sets the executed count and the `set` word of a transferred base, as
    /// if this store had executed its history.
    pub fn restore_executed(&mut self, executed: u64, set: u64) {
        (self.executed, self.set) = (executed, set);
    }

    /// A digest of the values, used to compare replicas cheaply.
    pub fn digest(&self) -> u64 {
        let values = self.data.iter();
        fnv(values.filter_map(|(k, slot)| Some((*k, slot.value?))))
    }

    /// The summary of what this store executed: see [`ExecutionSummary`].
    pub fn summary(&self) -> ExecutionSummary {
        ExecutionSummary {
            executed: self.executed,
            set: self.set,
            order: fnv(self.data.iter().map(|(k, slot)| (*k, slot.chain))),
        }
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

    fn put(seq: u64, key: Key) -> Command {
        Command::put(rifl(seq), key, seq, 8)
    }

    /// The summary of a fresh store after executing `cmds` in order.
    fn summary_of(cmds: &[Command]) -> ExecutionSummary {
        let mut store = KVStore::new();
        cmds.iter().for_each(|cmd| drop(store.execute(cmd)));
        store.summary()
    }

    #[test]
    fn swapping_two_writes_of_one_key_changes_the_order() {
        let (a, b) = (
            summary_of(&[put(1, 0), put(2, 0)]),
            summary_of(&[put(2, 0), put(1, 0)]),
        );
        assert_eq!((a.executed, a.set), (b.executed, b.set));
        assert_ne!(a.order, b.order);
    }

    #[test]
    fn interleaving_the_writes_of_two_keys_leaves_the_summary_equal() {
        let a = summary_of(&[put(1, 0), put(2, 5), put(3, 0), put(4, 5)]);
        let b = summary_of(&[put(2, 5), put(4, 5), put(1, 0), put(3, 0)]);
        assert_eq!(a, b);
        assert_eq!(a.set, ExecutionSummary::set_of((1..=4).map(rifl)));
    }

    #[test]
    fn where_reads_fall_between_writes_leaves_the_summary_equal() {
        let read = |seq| Command::get(rifl(seq), 0);
        let a = summary_of(&[read(1), put(2, 0), read(3), put(4, 0)]);
        let b = summary_of(&[put(2, 0), read(3), read(1), put(4, 0)]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4, "reads count");
    }

    #[test]
    fn a_duplicated_or_missing_command_changes_the_count_and_the_set() {
        let cmds = [put(1, 0), put(2, 1), put(3, 2)];
        let all = summary_of(&cmds);
        for other in [
            summary_of(&[put(1, 0), put(2, 1), put(2, 1), put(3, 2)]),
            summary_of(&[put(1, 0), put(3, 2)]),
        ] {
            assert_ne!(other.executed, all.executed);
            assert_ne!(other.set, all.set);
        }
        // One command swapped for another: the count alone misses it.
        let swapped = summary_of(&[put(1, 0), put(9, 1), put(3, 2)]);
        assert_eq!(swapped.executed, all.executed);
        assert_ne!(swapped.set, all.set);
    }

    #[test]
    fn a_delete_then_a_put_keeps_the_key_chain() {
        let delete = |seq| Command::new(rifl(seq), [(0, KvOp::Delete)], 8);
        let mut store = KVStore::new();
        store.execute(&put(1, 0));
        store.execute(&delete(2));
        let (key, slot) = store
            .records()
            .next()
            .expect("a deleted key keeps its slot");
        assert_eq!((key, slot.value), (0, None));
        assert_ne!(slot.chain, 0);
        assert!(store.is_empty());
        store.execute(&put(3, 0));
        // Same final value, same commands, another history of key 0.
        let other = summary_of(&[delete(2), put(1, 0), put(3, 0)]);
        assert_eq!((other.executed, other.set), (3, store.summary().set));
        assert_ne!(other.order, store.summary().order);
        assert_ne!(summary_of(&[put(3, 0)]).order, store.summary().order);
    }

    /// The catch-up base path: a peer's slots and counters installed into
    /// an empty store reproduce its summary, digest and state.
    #[test]
    fn restoring_the_records_reproduces_the_summary() {
        let mut store = KVStore::preloaded(4);
        for seq in 1..=40 {
            let op = match seq % 5 {
                0 => KvOp::Delete,
                1 => KvOp::Get,
                _ => KvOp::Put(seq),
            };
            store.execute(&Command::new(rifl(seq), [(seq % 7, op)], 8));
        }
        let summary = store.summary();
        let mut copy = KVStore::new();
        copy.restore_executed(summary.executed, summary.set);
        store
            .records()
            .for_each(|(key, slot)| copy.restore_slot(key, slot));
        assert_eq!(copy.summary(), summary);
        assert_eq!(copy.digest(), store.digest());
        assert_eq!(copy, store);
    }
}
