//! Small utilities: fixed-width bitsets over clique ids.

/// A fixed-capacity bitset over clique identifiers.
///
/// Junction trees in this workspace have at most a few hundred cliques, so
/// membership sets fit a handful of `u64` words; the offline DP probes these
/// sets millions of times, which is why a dense bitset (not a hash set) is
/// the right structure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// An empty set with room for `capacity` elements.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Builds from an iterator of members.
    pub fn from_members<I: IntoIterator<Item = usize>>(capacity: usize, it: I) -> Self {
        let mut s = Self::new(capacity);
        for i in it {
            s.insert(i);
        }
        s
    }

    /// Capacity (universe size).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts an element.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.capacity);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Removes an element.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.capacity);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True when `self ∩ other ≠ ∅`.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// The members as `⌈capacity / 64⌉` words, bit `i % 64` of word
    /// `i / 64` for member `i` — for set algebra against rows of a bit
    /// matrix laid out the same way.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        ones(self.words.iter().copied())
    }
}

/// The positions of the set bits of `words`, bit `i` of word `w` being
/// position `64·w + i`, in ascending order.
pub(crate) fn ones(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(wi, mut w)| {
        std::iter::from_fn(move || {
            if w == 0 {
                None
            } else {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + b)
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iter_ascending() {
        let s = BitSet::from_members(200, [5usize, 191, 63, 64]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![5, 63, 64, 191]);
        assert_eq!(s.words(), [1 << 5 | 1 << 63, 1, 1 << 63, 0]);
    }

    #[test]
    fn intersections() {
        let a = BitSet::from_members(100, [1usize, 2, 3]);
        let b = BitSet::from_members(100, [3usize, 4]);
        let c = BitSet::from_members(100, [7usize]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(BitSet::new(100).is_empty());
    }
}
