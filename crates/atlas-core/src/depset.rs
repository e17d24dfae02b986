//! [`DepSet`]: the one representation of a command's dependency set — a
//! sorted, duplicate-free vector of [`Dot`]s, stored inline while it holds
//! at most [`INLINE`] of them.
//!
//! Almost every dependency set on the command path is empty or holds the
//! one or two latest conflicting commands of a key, and every one of them
//! is built, copied into a reply, merged with the other replies, compared,
//! encoded and dropped. As a hash set each of those steps allocates and
//! hashes; as a sorted inline vector a copy is 40 bytes, **union** is a
//! merge ([`DepSet::union_with`]), the Atlas **threshold union** counts
//! occurrences over sorted slices ([`DepSet::union_and_threshold`]), the
//! fast-path **test** is slice equality, and the encoding is the elements in
//! order — equal sets encode to equal bytes with nothing to sort.
//!
//! The order is [`Dot`]'s own; nothing depends on which total order it is.

use crate::id::Dot;
use serde::{Deserialize, Error, Reader, Serialize};
use std::fmt;

/// Dependencies stored without a heap allocation.
pub const INLINE: usize = 2;

/// A set of command identifiers (see the [module docs](self)).
#[derive(Clone)]
pub struct DepSet(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` slots are the set; the rest is filler.
    Inline {
        len: u8,
        dots: [Dot; INLINE],
    },
    Heap(Vec<Dot>),
}

const FILLER: Dot = Dot { source: 0, seq: 0 };

impl DepSet {
    /// The empty set.
    pub const fn new() -> Self {
        Self(Repr::Inline {
            len: 0,
            dots: [FILLER; INLINE],
        })
    }

    /// Wraps `dots`, which must be sorted and duplicate-free.
    fn from_sorted(dots: Vec<Dot>) -> Self {
        debug_assert!(dots.windows(2).all(|w| w[0] < w[1]));
        let mut set = Self::new();
        match &mut set.0 {
            Repr::Inline { len, dots: slots } if dots.len() <= INLINE => {
                slots[..dots.len()].copy_from_slice(&dots);
                *len = dots.len() as u8;
            }
            _ => set.0 = Repr::Heap(dots),
        }
        set
    }

    /// The members, in ascending order.
    pub fn as_slice(&self) -> &[Dot] {
        match &self.0 {
            Repr::Inline { len, dots } => &dots[..*len as usize],
            Repr::Heap(dots) => dots,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the members in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, Dot> {
        self.as_slice().iter()
    }

    /// Whether `dot` is a member.
    pub fn contains(&self, dot: &Dot) -> bool {
        self.as_slice().binary_search(dot).is_ok()
    }

    /// Adds `dot`; returns whether it was new.
    pub fn insert(&mut self, dot: Dot) -> bool {
        let Err(at) = self.as_slice().binary_search(&dot) else {
            return false;
        };
        match &mut self.0 {
            Repr::Inline { len, dots } if (*len as usize) < INLINE => {
                dots.copy_within(at..*len as usize, at + 1);
                dots[at] = dot;
                *len += 1;
            }
            Repr::Inline { dots, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE);
                spilled.extend_from_slice(dots);
                spilled.insert(at, dot);
                self.0 = Repr::Heap(spilled);
            }
            Repr::Heap(dots) => dots.insert(at, dot),
        }
        true
    }

    /// Removes `dot`; returns whether it was a member.
    pub fn remove(&mut self, dot: &Dot) -> bool {
        let Ok(at) = self.as_slice().binary_search(dot) else {
            return false;
        };
        match &mut self.0 {
            Repr::Inline { len, dots } => {
                dots.copy_within(at + 1..*len as usize, at);
                *len -= 1;
            }
            Repr::Heap(dots) => {
                dots.remove(at);
            }
        }
        true
    }

    /// Empties the set, keeping a heap buffer it may own.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Heap(dots) => dots.clear(),
        }
    }

    /// **Union**: adds every member of `other` — one merge of two sorted
    /// runs, and nothing at all when `other` brings no new member (replies
    /// that agree, the common case).
    pub fn union_with(&mut self, other: &DepSet) {
        let (mine, theirs) = (self.as_slice(), other.as_slice());
        let new = theirs.iter().filter(|dot| !self.contains(dot)).count();
        if new == 0 {
            return;
        }
        if mine.len() + new <= INLINE {
            for dot in theirs {
                self.insert(*dot);
            }
            return;
        }
        let mut merged = Vec::with_capacity(mine.len() + new);
        let (mut a, mut b) = (mine.iter().peekable(), theirs.iter().peekable());
        while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
            match x.cmp(y) {
                std::cmp::Ordering::Less => merged.extend(a.next()),
                std::cmp::Ordering::Greater => merged.extend(b.next()),
                std::cmp::Ordering::Equal => {
                    merged.extend(a.next());
                    b.next();
                }
            }
        }
        merged.extend(a);
        merged.extend(b);
        *self = Self::from_sorted(merged);
    }

    /// Plain union `⋃ Q dep` of `sets`.
    pub fn union<'a>(sets: impl IntoIterator<Item = &'a DepSet>) -> DepSet {
        let mut union = DepSet::new();
        for set in sets {
            union.union_with(set);
        }
        union
    }

    /// The plain union of `sets` and their **threshold union** `⋃_f Q dep`:
    /// the identifiers that at least `f` of `sets` contain (paper §3.2.4).
    /// The two are equal iff every reported dependency was reported `f`
    /// times — the fast-path test.
    pub fn union_and_threshold<'a>(
        sets: impl IntoIterator<Item = &'a DepSet> + Clone,
        f: usize,
    ) -> (DepSet, DepSet) {
        let reported = |dot: &Dot| sets.clone().into_iter().filter(|s| s.contains(dot)).count();
        let union = Self::union(sets.clone());
        let threshold = union
            .iter()
            .copied()
            .filter(|dot| reported(dot) >= f)
            .collect();
        (union, threshold)
    }
}

impl Default for DepSet {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for DepSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for DepSet {}

impl fmt::Debug for DepSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a DepSet {
    type Item = &'a Dot;
    type IntoIter = std::slice::Iter<'a, Dot>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Sorts and deduplicates: any list of identifiers is a set.
impl From<Vec<Dot>> for DepSet {
    fn from(mut dots: Vec<Dot>) -> Self {
        if !dots.windows(2).all(|w| w[0] < w[1]) {
            dots.sort_unstable();
            dots.dedup();
        }
        Self::from_sorted(dots)
    }
}

impl<const N: usize> From<[Dot; N]> for DepSet {
    fn from(dots: [Dot; N]) -> Self {
        dots.into_iter().collect()
    }
}

impl FromIterator<Dot> for DepSet {
    fn from_iter<I: IntoIterator<Item = Dot>>(dots: I) -> Self {
        let mut set = DepSet::new();
        set.extend(dots);
        set
    }
}

impl Extend<Dot> for DepSet {
    fn extend<I: IntoIterator<Item = Dot>>(&mut self, dots: I) {
        for dot in dots {
            self.insert(dot);
        }
    }
}

/// `u64` length, then the members in order — the sequence encoding, so a
/// list of identifiers written by an earlier version (in any order) still
/// decodes.
impl Serialize for DepSet {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.as_slice().serialize(out);
    }
}

/// Accepts any sequence of identifiers: input that is not sorted and
/// duplicate-free (a peer's bug, a crafted frame) is normalised, never
/// trusted.
impl Deserialize for DepSet {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let len = input.take_len()?;
        if len > INLINE {
            let mut dots = Vec::with_capacity(len);
            for _ in 0..len {
                dots.push(Dot::deserialize(input)?);
            }
            return Ok(dots.into());
        }
        let mut set = DepSet::new();
        for _ in 0..len {
            set.insert(Dot::deserialize(input)?);
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot(source: u32, seq: u64) -> Dot {
        Dot::new(source, seq)
    }

    fn set(dots: &[Dot]) -> DepSet {
        dots.iter().copied().collect()
    }

    #[test]
    fn members_stay_sorted_and_unique_across_the_inline_boundary() {
        let mut s = DepSet::new();
        assert!(s.is_empty());
        for d in [dot(3, 2), dot(1, 1), dot(2, 2), dot(1, 1), dot(9, 1)] {
            s.insert(d);
        }
        assert_eq!(s.as_slice(), [dot(1, 1), dot(9, 1), dot(2, 2), dot(3, 2)]);
        assert!(!s.insert(dot(9, 1)), "already a member");
        assert!(s.contains(&dot(2, 2)) && !s.contains(&dot(2, 3)));
        assert!(s.remove(&dot(1, 1)) && !s.remove(&dot(1, 1)));
        assert_eq!(s.len(), 3);
        let mut small = set(&[dot(1, 1), dot(1, 2)]);
        assert!(small.remove(&dot(1, 1)));
        assert_eq!(small.as_slice(), [dot(1, 2)]);
        small.clear();
        assert!(small.is_empty());
    }

    #[test]
    fn equality_ignores_construction_order_and_storage() {
        let a: DepSet = vec![dot(2, 1), dot(1, 1), dot(2, 1)].into();
        let b: DepSet = [dot(1, 1), dot(2, 1)].into();
        assert_eq!(a, b);
        // A set that spilled to the heap and shrank back equals an inline one.
        let mut spilled = set(&[dot(1, 1), dot(2, 1), dot(3, 1)]);
        spilled.remove(&dot(3, 1));
        assert_eq!(spilled, b);
        assert_eq!(format!("{b:?}"), "{⟨1,1⟩, ⟨2,1⟩}");
    }

    #[test]
    fn union_merges_and_threshold_union_counts() {
        let (a, b, c, d) = (dot(1, 1), dot(2, 1), dot(3, 1), dot(4, 1));
        let replies = [set(&[a, b]), set(&[b, c, d]), set(&[]), set(&[b, d])];
        assert_eq!(DepSet::union(&replies), set(&[a, b, c, d]));
        assert_eq!(
            DepSet::union_and_threshold(&replies, 1).1,
            set(&[a, b, c, d])
        );
        assert_eq!(DepSet::union_and_threshold(&replies, 2).1, set(&[b, d]));
        assert_eq!(DepSet::union_and_threshold(&replies, 3).1, set(&[b]));
        assert!(DepSet::union_and_threshold(&replies, 4).1.is_empty());
        let none: [DepSet; 0] = [];
        assert!(DepSet::union(&none).is_empty());
    }

    fn encode(value: &impl Serialize) -> Vec<u8> {
        let mut out = Vec::new();
        value.serialize(&mut out);
        out
    }

    fn decode(bytes: &[u8]) -> Result<DepSet, Error> {
        DepSet::deserialize(&mut Reader::new(bytes))
    }

    #[test]
    fn encoding_is_the_members_in_order_and_decoding_normalises() {
        let s = set(&[dot(2, 5), dot(1, 5), dot(7, 1)]);
        let bytes = encode(&s);
        assert_eq!(bytes, encode(&s.as_slice().to_vec()));
        assert_eq!(decode(&bytes).unwrap(), s);
        // Unsorted input with a duplicate — what a hash set's encoding or a
        // crafted frame may hold — decodes to the same set.
        for raw in [
            vec![dot(2, 5), dot(7, 1), dot(1, 5), dot(7, 1)],
            vec![dot(7, 1), dot(7, 1)],
        ] {
            assert_eq!(decode(&encode(&raw)).unwrap(), DepSet::from(raw));
        }
        assert!(decode(&bytes[..bytes.len() - 1]).is_err());
    }
}
