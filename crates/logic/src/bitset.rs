//! `u64`-word bitset kernel shared by the hot paths.
//!
//! The PICOLA refine loop, the baseline encoders, and the cover
//! containment checks all reduce to dense set operations over small
//! universes (symbols, code words, constraint indices). Representing
//! those sets as packed `u64` words turns per-element loops into
//! word-parallel AND/OR/ANDNOT sweeps — 64 membership tests per
//! instruction instead of one `Vec<bool>` load each.
//!
//! [`WordSet`] is deliberately minimal: fixed universe decided at
//! construction, no growth, no iterator adapters beyond what the hot
//! paths need. Higher-level types (`SymbolSet`, `Cube`) keep their own
//! packed words and interoperate through raw `&[u64]` slices.
//!
//! The bulk word sweeps (union, intersection, difference, disjointness)
//! are the lane-unrolled slice helpers in [`crate::simd`].

/// A fixed-universe set of `usize` indices packed into `u64` words.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WordSet {
    /// Number of valid bit positions (`0..len`).
    len: usize,
    words: Vec<u64>,
}

impl Default for WordSet {
    /// The empty set over the empty universe — a placeholder that scratch
    /// holders lazily replace with a correctly sized set.
    fn default() -> Self {
        WordSet::new(0)
    }
}

impl WordSet {
    /// The empty set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        WordSet {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Builds a set from its member indices. Out-of-range members are
    /// ignored (the universe is fixed at `len`).
    pub fn from_members<I: IntoIterator<Item = usize>>(len: usize, members: I) -> Self {
        let mut s = WordSet::new(len);
        for m in members {
            s.insert(m);
        }
        s
    }

    /// Size of the universe (not the cardinality).
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Adds `i` to the set; out-of-range indices are ignored.
    pub fn insert(&mut self, i: usize) {
        if i < self.len {
            self.words[i / 64] |= 1u64 << (i % 64);
        }
    }

    /// Removes `i` from the set.
    pub fn remove(&mut self, i: usize) {
        if i < self.len {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Membership test; out-of-range indices are never members.
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when no index is a member.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every member, keeping the universe and the allocation — the
    /// reset primitive of the reusable refine scratch buffers.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Makes `self` a copy of `other`'s members without reallocating
    /// (universes must match in word count; the shorter operand bounds the
    /// sweep).
    pub fn copy_from(&mut self, other: &WordSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a = *b;
        }
    }

    /// In-place union with `other` (universes must match in word count;
    /// the shorter operand bounds the sweep).
    pub fn union_with(&mut self, other: &WordSet) {
        crate::simd::union_into(&mut self.words, &other.words);
    }

    /// In-place intersection with `other`.
    pub fn intersect_with(&mut self, other: &WordSet) {
        crate::simd::intersect_into(&mut self.words, &other.words);
    }

    /// In-place difference: removes every member of `other`.
    pub fn difference_with(&mut self, other: &WordSet) {
        crate::simd::difference_into(&mut self.words, &other.words);
    }

    /// `true` when the sets share at least one member — the word-parallel
    /// replacement for nested membership loops.
    pub fn intersects(&self, other: &WordSet) -> bool {
        !crate::simd::disjoint(&self.words, &other.words)
    }

    /// The packed words, little-endian in bit position.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates members in increasing order using per-word
    /// count-trailing-zeros extraction.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            std::iter::successors(
                (w != 0).then_some(w),
                |&rest| {
                    let next = rest & (rest - 1);
                    (next != 0).then_some(next)
                },
            )
            .map(move |rest| wi * 64 + rest.trailing_zeros() as usize)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut s = WordSet::new(130);
        for i in [0, 63, 64, 127, 128, 129] {
            assert!(!s.contains(i));
            s.insert(i);
            assert!(s.contains(i));
        }
        assert_eq!(s.count(), 6);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 5);
        assert!(!s.is_empty());
    }

    #[test]
    fn out_of_range_is_ignored() {
        let mut s = WordSet::new(10);
        s.insert(10);
        s.insert(1000);
        assert!(s.is_empty());
        assert!(!s.contains(10));
        assert!(!s.contains(usize::MAX));
    }

    #[test]
    fn iter_ones_matches_membership() {
        let members = [1usize, 2, 3, 62, 63, 64, 65, 100, 128];
        let s = WordSet::from_members(129, members.iter().copied());
        let listed: Vec<usize> = s.iter_ones().collect();
        assert_eq!(listed, members);
    }

    #[test]
    fn set_algebra() {
        let a = WordSet::from_members(200, [1, 65, 130]);
        let b = WordSet::from_members(200, [2, 65, 131]);
        assert!(a.intersects(&b));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![1, 2, 65, 130, 131]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter_ones().collect::<Vec<_>>(), vec![65]);
        let disjoint = WordSet::from_members(200, [3, 64]);
        assert!(!a.intersects(&disjoint));
    }

    #[test]
    fn clear_and_copy_from_reuse_the_allocation() {
        let mut s = WordSet::from_members(130, [0, 64, 129]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.universe(), 130);
        let src = WordSet::from_members(130, [3, 65, 128]);
        s.copy_from(&src);
        assert_eq!(s, src);
        // copying a sparser set overwrites every word, not just set ones
        let sparse = WordSet::from_members(130, [65]);
        s.copy_from(&sparse);
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![65]);
    }

    #[test]
    fn difference_removes_the_other_set() {
        let mut s = WordSet::from_members(130, [0, 64, 65, 129]);
        let other = WordSet::from_members(130, [64, 129, 7]);
        s.difference_with(&other);
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![0, 65]);
    }

    #[test]
    fn empty_universe_is_fine() {
        let s = WordSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.iter_ones().count(), 0);
        assert!(s.words().is_empty());
    }
}
