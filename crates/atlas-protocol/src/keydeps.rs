//! Per-key conflict index used to compute command dependencies.
//!
//! The paper defines `conflicts(c)` as every known command that does not
//! commute with `c` (§3.2.2). As in the authors' implementation (and in
//! EPaxos), it is sufficient — and far cheaper — to report, per key, only the
//! *most recent* conflicting commands: older conflicting commands are already
//! (transitive) dependencies of those, so the execution order between any two
//! conflicting commands is still constrained. Concretely, for every key we
//! track the last write and the reads that followed it:
//!
//! * a **write** to key `k` depends on the last write to `k` and on every
//!   read of `k` since that write;
//! * a **read** of key `k` depends only on the last write to `k` (reads
//!   commute with each other).
//!
//! With the NFR optimization (§4), reads are not recorded at all, so they can
//! never become dependencies of later commands.
//!
//! The index is keyed by [`Key`], which clients choose, so it keeps the
//! standard library's keyed hasher (see [`atlas_core::hash`]).

use atlas_core::{Command, DepSet, Dot, Key};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-key record: the last write and the reads issued after it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct KeyEntry {
    last_write: Option<Dot>,
    reads_after_write: DepSet,
}

impl KeyEntry {
    /// Adds what an access `op`-ing this key depends on to `deps`.
    fn conflicts(&self, is_read: bool, deps: &mut DepSet) {
        deps.extend(self.last_write);
        if !is_read {
            // A write also conflicts with preceding reads of the key.
            deps.union_with(&self.reads_after_write);
        }
    }

    /// Makes the access `dot` the key's latest: a read joins the reads since
    /// the last write, a write replaces both.
    fn record(&mut self, dot: Dot, is_read: bool) {
        if is_read {
            self.reads_after_write.insert(dot);
        } else {
            self.last_write = Some(dot);
            self.reads_after_write.clear();
        }
    }
}

/// Conflict index mapping keys to the identifiers of the latest conflicting
/// commands.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KeyDeps {
    entries: HashMap<Key, KeyEntry>,
    /// When `true`, read-only commands are not recorded (NFR optimization).
    nfr: bool,
}

impl KeyDeps {
    /// Creates an empty index. `nfr` enables the non-fault-tolerant-reads
    /// optimization.
    pub fn new(nfr: bool) -> Self {
        Self {
            nfr,
            ..Self::default()
        }
    }

    /// Returns the dependencies of `cmd` — the latest conflicting command per
    /// accessed key — *without* recording `cmd` itself.
    ///
    /// A `noOp` command conflicts with everything, so its dependencies are
    /// the union of all per-key entries.
    pub fn conflicts(&self, cmd: &Command) -> DepSet {
        if cmd.is_noop() {
            let mut all: Vec<Dot> = Vec::new();
            for entry in self.entries.values() {
                all.extend(entry.last_write);
                all.extend(&entry.reads_after_write);
            }
            return all.into();
        }
        let mut deps = DepSet::new();
        for (key, op) in cmd.ops() {
            if let Some(entry) = self.entries.get(key) {
                entry.conflicts(op.is_read(), &mut deps);
            }
        }
        deps
    }

    /// Whether the index records `cmd` at all. A `noOp` is never a
    /// dependency of a later command (recovery produces it and nothing
    /// applies it), and under NFR neither is a read.
    pub fn records(&self, cmd: &Command) -> bool {
        !(cmd.is_noop() || (self.nfr && cmd.is_read_only()))
    }

    /// Records `cmd` (with identifier `dot`) in the index so that later
    /// commands report it as a dependency. **Once per identifier**: a
    /// repeated write would pass for the key's latest again. The engine
    /// keeps that promise with a flag in its per-identifier record.
    pub fn add(&mut self, dot: Dot, cmd: &Command) {
        if self.records(cmd) {
            for (key, op) in cmd.ops() {
                let entry = self.entries.entry(*key).or_default();
                entry.record(dot, op.is_read());
            }
        }
    }

    /// Records the committed `cmd` (identifier `dot`, final dependencies
    /// `deps`), which this replica did not collect, under every key where
    /// it is ordered after what the index holds: the key's current
    /// conflicts are all in `deps`. Under any other key an entry is missing
    /// from `deps`, so that entry is (or, once committed, will be) ordered
    /// after `cmd`, and keeping it as the key's latest keeps every later
    /// command transitively after both; replacing it would drop it from
    /// later commands' dependencies while nothing orders them.
    pub fn add_committed(&mut self, dot: Dot, cmd: &Command, deps: &DepSet) {
        if !self.records(cmd) {
            return;
        }
        for (key, op) in cmd.ops() {
            let entry = self.entries.entry(*key).or_default();
            let mut held = DepSet::new();
            entry.conflicts(op.is_read(), &mut held);
            if held.iter().all(|d| *d == dot || deps.contains(d)) {
                entry.record(dot, op.is_read());
            }
        }
    }

    /// Computes the dependencies of `cmd` and records it, with one lookup
    /// per key (a command's keys are distinct, so recording under one key
    /// cannot change what another reports).
    pub fn conflicts_and_add(&mut self, dot: Dot, cmd: &Command) -> DepSet {
        if !self.records(cmd) {
            return self.conflicts(cmd);
        }
        let mut deps = DepSet::new();
        for (key, op) in cmd.ops() {
            let entry = self.entries.entry(*key).or_default();
            entry.conflicts(op.is_read(), &mut deps);
            entry.record(dot, op.is_read());
        }
        deps
    }

    /// Number of distinct keys tracked.
    pub fn key_count(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_core::{KvOp, Rifl};

    fn rifl(n: u64) -> Rifl {
        Rifl::new(n, 1)
    }

    #[test]
    fn writes_to_same_key_chain() {
        let mut index = KeyDeps::new(false);
        let w1 = Dot::new(1, 1);
        let w2 = Dot::new(2, 1);
        let c1 = Command::put(rifl(1), 0, 1, 8);
        let c2 = Command::put(rifl(2), 0, 2, 8);
        assert!(index.conflicts_and_add(w1, &c1).is_empty());
        let deps = index.conflicts_and_add(w2, &c2);
        assert_eq!(deps, DepSet::from([w1]));
        // A third write depends only on the latest one.
        let w3 = Dot::new(3, 1);
        let deps = index.conflicts(&Command::put(rifl(3), 0, 3, 8));
        assert_eq!(deps, DepSet::from([w2]));
        index.add(w3, &Command::put(rifl(3), 0, 3, 8));
        assert_eq!(index.key_count(), 1);
    }

    #[test]
    fn writes_to_different_keys_are_independent() {
        let mut index = KeyDeps::new(false);
        index.add(Dot::new(1, 1), &Command::put(rifl(1), 0, 1, 8));
        let deps = index.conflicts(&Command::put(rifl(2), 1, 1, 8));
        assert!(deps.is_empty());
    }

    #[test]
    fn read_depends_on_last_write_only() {
        let mut index = KeyDeps::new(false);
        let w = Dot::new(1, 1);
        let r1 = Dot::new(2, 1);
        index.add(w, &Command::put(rifl(1), 0, 1, 8));
        index.add(r1, &Command::get(rifl(2), 0));
        // Another read depends on the write but not on the first read.
        let deps = index.conflicts(&Command::get(rifl(3), 0));
        assert_eq!(deps, DepSet::from([w]));
    }

    #[test]
    fn write_depends_on_preceding_reads() {
        let mut index = KeyDeps::new(false);
        let w = Dot::new(1, 1);
        let r1 = Dot::new(2, 1);
        let r2 = Dot::new(3, 1);
        index.add(w, &Command::put(rifl(1), 0, 1, 8));
        index.add(r1, &Command::get(rifl(2), 0));
        index.add(r2, &Command::get(rifl(3), 0));
        let deps = index.conflicts(&Command::put(rifl(4), 0, 9, 8));
        assert_eq!(deps, DepSet::from([w, r1, r2]));
    }

    #[test]
    fn later_write_clears_read_set() {
        let mut index = KeyDeps::new(false);
        index.add(Dot::new(1, 1), &Command::put(rifl(1), 0, 1, 8));
        index.add(Dot::new(2, 1), &Command::get(rifl(2), 0));
        index.add(Dot::new(3, 1), &Command::put(rifl(3), 0, 2, 8));
        let deps = index.conflicts(&Command::put(rifl(4), 0, 3, 8));
        assert_eq!(deps, DepSet::from([Dot::new(3, 1)]));
    }

    #[test]
    fn nfr_excludes_reads_from_dependencies() {
        let mut index = KeyDeps::new(true);
        let w = Dot::new(1, 1);
        let r = Dot::new(2, 1);
        index.add(w, &Command::put(rifl(1), 0, 1, 8));
        index.add(r, &Command::get(rifl(2), 0));
        // The read was not recorded: a later write depends only on the write.
        let deps = index.conflicts(&Command::put(rifl(3), 0, 2, 8));
        assert_eq!(deps, DepSet::from([w]));
    }

    #[test]
    fn noop_depends_on_everything_tracked() {
        let mut index = KeyDeps::new(false);
        let w1 = Dot::new(1, 1);
        let r1 = Dot::new(2, 1);
        let w2 = Dot::new(3, 1);
        index.add(w1, &Command::put(rifl(1), 0, 1, 8));
        index.add(r1, &Command::get(rifl(2), 0));
        index.add(w2, &Command::put(rifl(3), 5, 1, 8));
        let deps = index.conflicts(&Command::noop());
        assert_eq!(deps, DepSet::from([w1, r1, w2]));
    }

    #[test]
    fn noop_is_never_recorded() {
        let mut index = KeyDeps::new(false);
        index.add(Dot::new(1, 1), &Command::noop());
        assert_eq!(index.key_count(), 0);
    }

    #[test]
    fn multi_key_command_collects_deps_across_keys() {
        let mut index = KeyDeps::new(false);
        let w0 = Dot::new(1, 1);
        let w1 = Dot::new(2, 1);
        index.add(w0, &Command::put(rifl(1), 0, 1, 8));
        index.add(w1, &Command::put(rifl(2), 1, 1, 8));
        let multi = Command::new(rifl(3), [(0, KvOp::Put(3)), (1, KvOp::Get)], 8);
        let deps = index.conflicts(&multi);
        assert_eq!(deps, DepSet::from([w0, w1]));
    }
}
