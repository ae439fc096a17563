//! Bitmask-encoded client coalitions.
//!
//! The utility matrix is indexed by subsets `S ⊆ I`; with `N ≤ 63` clients
//! a `u64` bitmask is a compact, hashable, order-free key. All Shapley
//! computations in the workspace speak this type.

/// A subset of clients encoded as a bitmask (`bit i` ⇔ client `i` ∈ S).
///
/// ```
/// use fedval_fl::Subset;
/// let s = Subset::from_indices(&[0, 2]);
/// assert!(s.contains(2) && !s.contains(1));
/// assert_eq!(s.with(1), Subset::full(3));
/// assert_eq!(s.subsets().count(), 4); // power set of a 2-element set
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Subset(u64);

impl Subset {
    /// Maximum supported number of clients.
    pub const MAX_CLIENTS: usize = 63;

    /// The empty coalition.
    pub const EMPTY: Subset = Subset(0);

    /// Builds a subset from a raw bitmask.
    pub fn from_bits(bits: u64) -> Self {
        Subset(bits)
    }

    /// Builds a subset from client indices.
    pub fn from_indices(indices: &[usize]) -> Self {
        let mut bits = 0u64;
        for &i in indices {
            assert!(i < Self::MAX_CLIENTS, "client index {i} out of range");
            bits |= 1 << i;
        }
        Subset(bits)
    }

    /// The full coalition over `n` clients.
    pub fn full(n: usize) -> Self {
        assert!(n <= Self::MAX_CLIENTS, "too many clients");
        if n == 0 {
            Subset(0)
        } else {
            Subset((1u64 << n) - 1)
        }
    }

    /// Raw bitmask.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` for the empty coalition.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Membership test.
    pub fn contains(self, client: usize) -> bool {
        client < Self::MAX_CLIENTS && self.0 & (1 << client) != 0
    }

    /// `S ∪ {client}`.
    pub fn with(self, client: usize) -> Self {
        assert!(client < Self::MAX_CLIENTS);
        Subset(self.0 | (1 << client))
    }

    /// `S \ {client}`.
    pub fn without(self, client: usize) -> Self {
        assert!(client < Self::MAX_CLIENTS);
        Subset(self.0 & !(1 << client))
    }

    /// `true` when `self ⊆ other`.
    pub fn is_subset_of(self, other: Subset) -> bool {
        self.0 & !other.0 == 0
    }

    /// Union.
    pub fn union(self, other: Subset) -> Self {
        Subset(self.0 | other.0)
    }

    /// Intersection.
    pub fn intersection(self, other: Subset) -> Self {
        Subset(self.0 & other.0)
    }

    /// Member indices in increasing order.
    pub fn members(self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Iterates over the member indices in increasing order, without
    /// allocating.
    pub fn iter(self) -> Members {
        Members(self.0)
    }

    /// Iterates over every subset of `self` (including the empty set and
    /// `self` itself), in increasing bitmask order of the enumeration.
    pub fn subsets(self) -> SubsetIter {
        SubsetIter {
            universe: self.0,
            current: 0,
            done: false,
        }
    }
}

/// The members of a [`Subset`], in increasing order: the set bits,
/// lowest first.
#[derive(Debug, Clone)]
pub struct Members(u64);

impl Iterator for Members {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        (self.0 != 0).then(|| {
            let i = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            i
        })
    }
}

/// Iterator over all subsets of a universe bitmask, using the standard
/// `(sub - universe) & universe` enumeration trick.
pub struct SubsetIter {
    universe: u64,
    current: u64,
    done: bool,
}

impl Iterator for SubsetIter {
    type Item = Subset;

    fn next(&mut self) -> Option<Subset> {
        if self.done {
            return None;
        }
        let out = Subset(self.current);
        if self.current == self.universe {
            self.done = true;
        } else {
            self.current = (self.current.wrapping_sub(self.universe)) & self.universe;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_indices_roundtrip() {
        let s = Subset::from_indices(&[0, 3, 5]);
        assert_eq!(s.members(), vec![0, 3, 5]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(3));
        assert!(!s.contains(1));
    }

    #[test]
    fn full_contains_everyone() {
        let s = Subset::full(5);
        assert_eq!(s.len(), 5);
        assert_eq!(s.bits(), 0b11111);
        assert_eq!(Subset::full(0), Subset::EMPTY);
    }

    #[test]
    fn with_and_without() {
        let s = Subset::EMPTY.with(2).with(4);
        assert_eq!(s.members(), vec![2, 4]);
        assert_eq!(s.without(2).members(), vec![4]);
        assert_eq!(s.without(3), s, "removing a non-member is a no-op");
    }

    #[test]
    fn subset_relation() {
        let small = Subset::from_indices(&[1, 2]);
        let big = Subset::from_indices(&[0, 1, 2, 3]);
        assert!(small.is_subset_of(big));
        assert!(!big.is_subset_of(small));
        assert!(Subset::EMPTY.is_subset_of(small));
        assert!(small.is_subset_of(small));
    }

    #[test]
    fn union_intersection() {
        let a = Subset::from_indices(&[0, 1]);
        let b = Subset::from_indices(&[1, 2]);
        assert_eq!(a.union(b).members(), vec![0, 1, 2]);
        assert_eq!(a.intersection(b).members(), vec![1]);
    }

    #[test]
    fn subsets_enumerates_power_set() {
        let s = Subset::from_indices(&[0, 2]);
        let all: Vec<u64> = s.subsets().map(|x| x.bits()).collect();
        assert_eq!(all.len(), 4);
        assert!(all.contains(&0));
        assert!(all.contains(&0b001));
        assert!(all.contains(&0b100));
        assert!(all.contains(&0b101));
    }

    #[test]
    fn subsets_of_empty_is_just_empty() {
        let all: Vec<Subset> = Subset::EMPTY.subsets().collect();
        assert_eq!(all, vec![Subset::EMPTY]);
    }

    #[test]
    fn subsets_count_is_power_of_two() {
        let s = Subset::full(6);
        assert_eq!(s.subsets().count(), 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_large_index() {
        let _ = Subset::from_indices(&[63]);
    }
}
