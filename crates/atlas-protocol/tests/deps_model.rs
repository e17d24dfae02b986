//! Semantic equivalence of the dependency representation: [`KeyDeps`] and
//! the [`DepSet`] operations the commit rules decide with, held against a
//! reference model written the obvious way with `BTreeSet`, over seeded
//! random command streams.

use atlas_core::{Command, DepSet, Dot, Key, KvOp, Rifl};
use atlas_protocol::KeyDeps;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The rule in the module docs of `keydeps.rs`: per key, a write depends on
/// the last write and the reads since, a read on the last write; NFR reads
/// and `noOp`s are never recorded; a `noOp` depends on everything recorded.
#[derive(Default)]
struct Model {
    last_write: BTreeMap<Key, Dot>,
    reads_since: BTreeMap<Key, BTreeSet<Dot>>,
    nfr: bool,
}

impl Model {
    fn conflicts(&self, cmd: &Command) -> BTreeSet<Dot> {
        let mut deps = BTreeSet::new();
        if cmd.is_noop() {
            deps.extend(self.last_write.values());
            deps.extend(self.reads_since.values().flatten());
        }
        for (key, op) in cmd.ops() {
            deps.extend(self.last_write.get(key));
            if !op.is_read() {
                deps.extend(self.reads_since.get(key).into_iter().flatten());
            }
        }
        deps
    }

    fn add(&mut self, dot: Dot, cmd: &Command) {
        if cmd.is_noop() || (self.nfr && cmd.is_read_only()) {
            return;
        }
        for (key, op) in cmd.ops() {
            if op.is_read() {
                self.reads_since.entry(*key).or_default().insert(dot);
            } else {
                self.last_write.insert(*key, dot);
                self.reads_since.remove(key);
            }
        }
    }
}

fn members(set: &DepSet) -> BTreeSet<Dot> {
    let slice = set.as_slice();
    assert!(slice.windows(2).all(|w| w[0] < w[1]), "{set:?} not sorted");
    slice.iter().copied().collect()
}

fn random_command(rng: &mut SmallRng, seq: u64) -> Command {
    if rng.gen_bool(0.04) {
        return Command::noop();
    }
    let keys = if rng.gen_bool(0.7) {
        1
    } else {
        rng.gen_range(2..=4)
    };
    let ops = (0..keys).map(|_| {
        let op = match rng.gen_range(0..5) {
            0 | 1 => KvOp::Get,
            2 | 3 => KvOp::Put(seq),
            _ => KvOp::Delete,
        };
        (rng.gen_range(0..8u64), op)
    });
    Command::new(Rifl::new(1, seq), ops.collect::<Vec<_>>(), 8)
}

#[test]
fn keydeps_reports_what_the_reference_model_reports() {
    for (seed, nfr) in (0..40u64).map(|seed| (seed, seed % 2 == 1)) {
        let mut rng = SmallRng::seed_from_u64(0xD1E7 + seed);
        let mut index = KeyDeps::new(nfr);
        let mut model = Model {
            nfr,
            ..Model::default()
        };
        for seq in 1..=400u64 {
            let dot = Dot::new(rng.gen_range(1..=5), seq);
            let cmd = random_command(&mut rng, seq);
            let expected = model.conflicts(&cmd);
            let reported = if rng.gen_bool(0.5) {
                index.conflicts_and_add(dot, &cmd)
            } else {
                let deps = index.conflicts(&cmd);
                index.add(dot, &cmd);
                deps
            };
            assert_eq!(
                members(&reported),
                expected,
                "seed {seed} seq {seq}: {cmd:?}"
            );
            model.add(dot, &cmd);
        }
    }
}

#[test]
fn set_operations_match_btreeset() {
    let mut rng = SmallRng::seed_from_u64(0x5E7);
    for case in 0..2_000 {
        // Up to seven replies of up to five identifiers from a small pool, so
        // overlaps, empty sets and sets past the inline size all occur.
        let replies: Vec<BTreeSet<Dot>> = (0..rng.gen_range(0..=7))
            .map(|_| {
                let dots = (0..rng.gen_range(0..=5))
                    .map(|_| Dot::new(rng.gen_range(1..=3), rng.gen_range(1..=4)));
                dots.collect()
            })
            .collect();
        let sets: Vec<DepSet> = replies
            .iter()
            .map(|r| r.iter().copied().collect())
            .collect();
        for (set, reply) in sets.iter().zip(&replies) {
            assert_eq!(&members(set), reply, "case {case}");
        }

        let union: BTreeSet<Dot> = replies.iter().flatten().copied().collect();
        assert_eq!(members(&DepSet::union(&sets)), union, "case {case}");
        for f in 1..=3 {
            let reports = |dot: &Dot| replies.iter().filter(|r| r.contains(dot)).count();
            let expected: BTreeSet<Dot> =
                union.iter().copied().filter(|d| reports(d) >= f).collect();
            let threshold = DepSet::union_and_threshold(&sets, f).1;
            assert_eq!(members(&threshold), expected, "case {case} f {f}");
            // The fast-path test is the comparison of the two.
            assert_eq!(threshold == DepSet::union(&sets), expected == union);
        }

        // Equality, membership and single-element edits.
        if let [a, b, ..] = &sets[..] {
            assert_eq!(a == b, replies[0] == replies[1], "case {case}");
            let mut merged = a.clone();
            merged.union_with(b);
            let expected: BTreeSet<Dot> = replies[0].union(&replies[1]).copied().collect();
            assert_eq!(members(&merged), expected);
            let probe = Dot::new(rng.gen_range(1..=3), rng.gen_range(1..=4));
            assert_eq!(merged.contains(&probe), expected.contains(&probe));
            assert_eq!(merged.remove(&probe), expected.contains(&probe));
            assert!(merged.insert(probe));
            assert_eq!(
                merged.len(),
                expected.len() + !expected.contains(&probe) as usize
            );
        }
    }
}
