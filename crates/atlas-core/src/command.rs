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
//!
//! A client request of several commands is ordered as one command, a
//! [batch](Command::batch): one consensus instance whose conflicts are the
//! union of its parts', expanded back into its parts when it executes.

use crate::id::{ProcessId, Rifl};
use serde::{Deserialize, Error, Reader, Serialize};
use std::sync::Arc;

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
///
/// A [batch](Command::batch) also carries its parts, each a request
/// identifier and its operations; it shows the protocols only the union of
/// their keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Command {
    /// Request identifier of the client call that produced this command (a
    /// batch: its first part's).
    pub rifl: Rifl,
    /// Operations, keyed by the key they access. Empty for `noOp`. A batch:
    /// every key of its parts, a write if any part writes it — derived from
    /// the parts on build and decode, never encoded.
    ops: Ops,
    /// Synthetic payload size in bytes (the paper uses 100 B and 3 KB).
    pub payload_size: usize,
    /// Marks the recovery `noOp` command, which conflicts with everything and
    /// is never applied to the state machine.
    noop: bool,
    /// A membership change or a batch's parts; `None` for every other
    /// command. Behind one shared pointer: one command in millions carries
    /// a membership change and one in sixteen a batch, and every clone and
    /// table slot of the others would pay for their size.
    extra: Option<Arc<Extra>>,
}

/// What a few commands carry beside their operations.
#[derive(Debug, PartialEq, Eq)]
enum Extra {
    /// A membership change riding in the log. Like `noOp` it conflicts with
    /// every command (the total-order barrier), but unlike `noOp` it **is**
    /// executed — the runtime intercepts the execution and switches epochs.
    Reconfig(ReconfigOp),
    /// A batch's parts in submission order.
    Batch(Vec<(Rifl, Ops)>),
}

impl Extra {
    /// A batch's parts; empty for a membership change.
    fn parts(&self) -> &[(Rifl, Ops)] {
        match self {
            Extra::Batch(parts) => parts,
            Extra::Reconfig(_) => &[],
        }
    }
}

/// Where a batch's encoding differs from a plain command's: the last
/// byte before the parts, which holds the membership change's `Option` tag
/// (0 or 1) in every other command. Those encode exactly as the derived
/// layout of `Option<Box<ReconfigOp>>` did, so journals and snapshots
/// written before batches existed still decode.
const BATCH_TAG: u8 = 2;

impl Serialize for Command {
    fn serialize(&self, out: &mut Vec<u8>) {
        let (rifl, size, noop) = (self.rifl, self.payload_size, self.noop);
        match self.extra.as_deref() {
            None => (rifl, &self.ops, size, noop, 0u8).serialize(out),
            Some(Extra::Reconfig(op)) => (rifl, &self.ops, size, noop, (1u8, op)).serialize(out),
            // An empty operation list: the union is not encoded.
            Some(Extra::Batch(parts)) => {
                (rifl, 0u64, size, noop, (BATCH_TAG, parts)).serialize(out)
            }
        }
    }
}

impl Deserialize for Command {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let (rifl, ops, payload_size, noop) = Deserialize::deserialize(input)?;
        let mut cmd = Self {
            rifl,
            ops,
            payload_size,
            noop,
            extra: None,
        };
        match u8::deserialize(input)? {
            0 => {}
            1 => cmd.extra = Some(Arc::new(Extra::Reconfig(Deserialize::deserialize(input)?))),
            BATCH_TAG => {
                let parts: Vec<(Rifl, Ops)> = Deserialize::deserialize(input)?;
                if noop || !cmd.ops.0.is_empty() || parts.is_empty() {
                    return Err(Error::custom("malformed batch command"));
                }
                cmd.ops = Ops::union(parts.iter().map(|(_, ops)| ops));
                cmd.extra = Some(Arc::new(Extra::Batch(parts)));
            }
            tag => return Err(Error::custom(format!("invalid command tag {tag}"))),
        }
        Ok(cmd)
    }
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

impl Ops {
    /// Every key of `parts`, sorted, each once: a write (the last one) if
    /// any part writes it, else a read. That is all the conflict relation
    /// reads of a key.
    fn union<'a>(parts: impl Iterator<Item = &'a Ops>) -> Self {
        let mut ops: Vec<(Key, KvOp)> = parts.flat_map(|ops| ops.0.iter().copied()).collect();
        ops.sort_by_key(|(key, _)| *key); // stable: a key's accesses keep their order
        ops.dedup_by(|later, kept| {
            let repeat = later.0 == kept.0;
            if repeat && !later.1.is_read() {
                *kept = *later;
            }
            repeat
        });
        Self(ops)
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
            extra: None,
        }
    }

    /// One command for a client request of several: its parts are the
    /// commands' request identifiers and operations, in submission order,
    /// and it conflicts with whatever any part conflicts with. `cmds` are
    /// plain key–value commands (no `noOp`, membership change or batch), at
    /// least one.
    pub fn batch(cmds: Vec<Command>) -> Self {
        debug_assert!(cmds.iter().all(Command::is_plain), "batches nest nothing");
        let rifl = cmds.first().expect("a batch has parts").rifl;
        let payload_size = cmds.iter().map(|cmd| cmd.payload_size).sum();
        let parts: Vec<(Rifl, Ops)> = cmds.into_iter().map(|cmd| (cmd.rifl, cmd.ops)).collect();
        Self {
            rifl,
            ops: Ops::union(parts.iter().map(|(_, ops)| ops)),
            payload_size,
            noop: false,
            extra: Some(Arc::new(Extra::Batch(parts))),
        }
    }

    /// The consensus instances for one client request: several key–value
    /// commands become one [batch](Command::batch); one command, or a
    /// request holding a `noOp`, membership change or batch, stays as it
    /// is.
    pub fn instances(cmds: Vec<Command>) -> Vec<Command> {
        if cmds.len() > 1 && cmds.iter().all(Command::is_plain) {
            vec![Command::batch(cmds)]
        } else {
            cmds
        }
    }

    /// Whether this is a key–value command that is not a batch.
    fn is_plain(&self) -> bool {
        !self.noop && self.extra.is_none()
    }

    /// A batch's parts; empty for every other command.
    fn parts(&self) -> &[(Rifl, Ops)] {
        self.extra.as_deref().map_or(&[], Extra::parts)
    }

    /// Whether this command is a [batch](Command::batch).
    pub fn is_batch(&self) -> bool {
        matches!(self.extra.as_deref(), Some(Extra::Batch(_)))
    }

    /// The request identifiers this command answers, in submission order:
    /// a batch's parts', else its own.
    pub fn rifls(&self) -> impl Iterator<Item = Rifl> + '_ {
        let whole = (!self.is_batch()).then_some(self.rifl);
        whole
            .into_iter()
            .chain(self.parts().iter().map(|(rifl, _)| *rifl))
    }

    /// The commands this one stands for at execution, in submission order:
    /// a batch's parts, each a plain command (of payload size 0: the
    /// batch's is its parts' sum), else the command itself.
    pub fn split(self) -> impl Iterator<Item = Command> {
        let batch = self.extra.clone().filter(|_| self.is_batch());
        let whole = batch.is_none().then_some(self);
        let parts = batch.into_iter().flat_map(|batch| {
            (0..batch.parts().len()).map(move |i| Command {
                rifl: batch.parts()[i].0,
                ops: batch.parts()[i].1.clone(),
                payload_size: 0,
                noop: false,
                extra: None,
            })
        });
        whole.into_iter().chain(parts)
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
            extra: None,
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
            extra: Some(Arc::new(Extra::Reconfig(op))),
        }
    }

    /// The membership change this command carries, if it is one.
    pub fn reconfig_op(&self) -> Option<&ReconfigOp> {
        match self.extra.as_deref() {
            Some(Extra::Reconfig(op)) => Some(op),
            _ => None,
        }
    }

    /// Whether this command carries a membership change.
    pub fn is_reconfig(&self) -> bool {
        self.reconfig_op().is_some()
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

    /// Whether two commands conflict, i.e. do **not** commute (paper §2).
    ///
    /// * `noOp` conflicts with every command (including another `noOp`).
    /// * Otherwise, commands conflict iff they access a common key and at
    ///   least one of the two accesses is a write.
    pub fn conflicts_with(&self, other: &Command) -> bool {
        if self.noop || other.noop || self.is_reconfig() || other.is_reconfig() {
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
        if self.noop || other.noop || self.is_reconfig() || other.is_reconfig() {
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

    /// The bytes of a plain command: the layout every journal, snapshot and
    /// peer frame written before batches existed holds.
    #[test]
    fn a_plain_command_keeps_its_bytes() {
        let mut bytes = Vec::new();
        Command::put(Rifl::new(7, 9), 3, 5, 64).serialize(&mut bytes);
        let mut expected = Vec::new();
        for word in [7u64, 9, 1, 3] {
            expected.extend_from_slice(&word.to_le_bytes()); // rifl, one op, its key
        }
        expected.extend_from_slice(&1u32.to_le_bytes()); // `Put`
        expected.extend_from_slice(&5u64.to_le_bytes()); // its value
        expected.extend_from_slice(&64u64.to_le_bytes()); // payload size
        expected.extend_from_slice(&[0, 0]); // not a `noOp`, no membership change
        assert_eq!(bytes, expected);
        let reconfig = Command::reconfigure(rifl(1), ReconfigOp::Finalize);
        let mut bytes = Vec::new();
        reconfig.serialize(&mut bytes);
        assert_eq!(
            bytes[bytes.len() - 5],
            1,
            "a membership change's option tag"
        );
        assert_eq!(
            Command::deserialize(&mut Reader::new(&bytes)).unwrap(),
            reconfig
        );
        // Batches and membership changes cost the others one pointer.
        #[cfg(target_pointer_width = "64")]
        assert_eq!(std::mem::size_of::<Command>(), 64);
    }

    fn batch(parts: &[(u64, Key, KvOp)]) -> Command {
        let cmds = parts
            .iter()
            .map(|&(seq, key, op)| Command::new(rifl(seq), [(key, op)], 8))
            .collect();
        Command::batch(cmds)
    }

    #[test]
    fn a_batch_conflicts_through_the_union_of_its_parts() {
        let reads_k = batch(&[(1, 1, KvOp::Get), (2, 2, KvOp::Put(1)), (3, 1, KvOp::Get)]);
        assert!(!reads_k.is_read_only() && reads_k.is_write());
        assert_eq!(reads_k.keys().copied().collect::<Vec<_>>(), vec![1, 2]);
        // Key 1 only read: it conflicts with a put on it, not with a get.
        assert!(reads_k.conflicts_with(&Command::put(rifl(4), 1, 0, 8)));
        assert!(Command::put(rifl(4), 1, 0, 8).conflicts_with(&reads_k));
        assert!(!reads_k.conflicts_with(&Command::get(rifl(5), 1)));
        assert!(!reads_k.conflicts_with(&Command::get(rifl(5), 3)));
        // A key any part writes is written, whatever part reads it after.
        let writes_k = batch(&[(1, 1, KvOp::Put(3)), (2, 1, KvOp::Get)]);
        assert!(writes_k.conflicts_with(&Command::get(rifl(5), 1)));
        // Two read-only batches on one key commute.
        let a = batch(&[(1, 1, KvOp::Get), (2, 2, KvOp::Get)]);
        let b = batch(&[(3, 1, KvOp::Get), (4, 1, KvOp::Get)]);
        assert!(a.is_read_only() && b.is_read_only());
        assert!(!a.conflicts_with(&b) && !b.conflicts_with(&a));
        assert!(!a.conflicts_with_write(&b));
        assert!(a.conflicts_with(&writes_k));
        assert_eq!(writes_k.keys().copied().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn a_batch_survives_encoding_and_splits_into_its_parts() {
        let parts = [
            (1, 9, KvOp::Put(1)),
            (2, 9, KvOp::Get),
            (3, 4, KvOp::Delete),
        ];
        let cmd = batch(&parts);
        assert!(cmd.is_batch());
        assert_eq!((cmd.rifl, cmd.payload_size), (rifl(1), 24));
        let mut bytes = Vec::new();
        cmd.serialize(&mut bytes);
        let decoded = Command::deserialize(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(decoded, cmd, "the union is derived again on decode");
        let rifls: Vec<Rifl> = decoded.rifls().collect();
        assert_eq!(rifls, vec![rifl(1), rifl(2), rifl(3)]);
        let split: Vec<Command> = decoded.split().collect();
        let expected: Vec<Command> = parts
            .iter()
            .map(|&(seq, key, op)| Command::new(rifl(seq), [(key, op)], 0))
            .collect();
        assert_eq!(split, expected, "parts in submission order");
        // A plain command is its own one part.
        let plain = Command::get(rifl(7), 1);
        assert_eq!(plain.rifls().collect::<Vec<_>>(), vec![rifl(7)]);
        assert_eq!(plain.clone().split().collect::<Vec<_>>(), vec![plain]);
        // A batch that also claims operations of its own is refused.
        assert_eq!(
            bytes[16 + 8 + 8 + 1],
            BATCH_TAG,
            "after rifl, no ops, size, noOp"
        );
        let mut forged = bytes[..16].to_vec();
        forged.extend_from_slice(&1u64.to_le_bytes());
        forged.extend_from_slice(&bytes[16..24]); // a key (the count of 0 ops reused)
        forged.extend_from_slice(&0u32.to_le_bytes());
        forged.extend_from_slice(&bytes[24..]);
        assert!(Command::deserialize(&mut Reader::new(&forged)).is_err());
    }

    #[test]
    fn a_request_of_several_commands_is_one_instance() {
        let one = vec![Command::put(rifl(1), 1, 1, 8)];
        assert_eq!(Command::instances(one.clone()), one);
        let two = vec![Command::put(rifl(1), 1, 1, 8), Command::get(rifl(2), 1)];
        let instances = Command::instances(two);
        assert_eq!(instances.len(), 1);
        assert!(instances[0].is_batch());
        let barrier = Command::reconfigure(rifl(3), ReconfigOp::Finalize);
        let mixed = vec![Command::put(rifl(1), 1, 1, 8), barrier];
        assert_eq!(Command::instances(mixed.clone()), mixed);
    }

    #[test]
    fn delete_is_a_write() {
        let d = Command::new(rifl(1), [(0, KvOp::Delete)], 8);
        let r = Command::get(rifl(2), 0);
        assert!(d.is_write());
        assert!(d.conflicts_with(&r));
    }
}
