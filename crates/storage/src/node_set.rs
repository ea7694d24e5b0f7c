//! A compact set of I/O nodes.

use std::fmt;

/// A bitset over I/O nodes, supporting up to 64 nodes.
///
/// This is the representation behind the paper's *access signatures*
/// (§IV-B): bit `i` is set when I/O node `i` participates in a data access.
/// The compiler crate layers the paper's `similarity` / `difference` /
/// `distance` metrics on top of the primitive bit algebra provided here.
///
/// # Example
///
/// ```
/// use sdds_storage::NodeSet;
///
/// let a = NodeSet::from_nodes([1, 9]);
/// let b = NodeSet::from_nodes([1, 2]);
/// assert_eq!(a.intersection(b).len(), 1);
/// assert_eq!(a.symmetric_difference(b).len(), 2);
/// assert_eq!(a.union(b).len(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct NodeSet(u64);

impl NodeSet {
    /// The maximum number of I/O nodes a `NodeSet` can represent.
    pub const MAX_NODES: usize = 64;

    /// The empty set.
    pub const EMPTY: NodeSet = NodeSet(0);

    /// Creates a set from an iterator of node indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= MAX_NODES`.
    pub fn from_nodes<I: IntoIterator<Item = usize>>(nodes: I) -> Self {
        let mut s = NodeSet::EMPTY;
        for n in nodes {
            s.insert(n);
        }
        s
    }

    /// A set containing the single node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= MAX_NODES`.
    pub fn single(n: usize) -> Self {
        let mut s = NodeSet::EMPTY;
        s.insert(n);
        s
    }

    /// The set of all nodes `0..count`.
    ///
    /// # Panics
    ///
    /// Panics if `count > MAX_NODES`.
    pub fn all(count: usize) -> Self {
        assert!(count <= Self::MAX_NODES, "too many I/O nodes: {count}");
        if count == Self::MAX_NODES {
            NodeSet(u64::MAX)
        } else {
            NodeSet((1u64 << count) - 1)
        }
    }

    /// Adds node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= MAX_NODES`.
    pub fn insert(&mut self, n: usize) {
        assert!(n < Self::MAX_NODES, "node index {n} out of range");
        self.0 |= 1u64 << n;
    }

    /// Removes node `n` if present.
    pub fn remove(&mut self, n: usize) {
        if n < Self::MAX_NODES {
            self.0 &= !(1u64 << n);
        }
    }

    /// Returns `true` if node `n` is in the set.
    pub fn contains(self, n: usize) -> bool {
        n < Self::MAX_NODES && self.0 & (1u64 << n) != 0
    }

    /// Number of nodes in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union (the paper's group-signature bitwise OR).
    pub fn union(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 | other.0)
    }

    /// Set intersection (nodes shared by both accesses).
    pub fn intersection(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & other.0)
    }

    /// Nodes in exactly one of the two sets.
    pub fn symmetric_difference(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 ^ other.0)
    }

    /// Nodes in `self` but not `other`.
    pub fn difference(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & !other.0)
    }

    /// Iterates over node indices in increasing order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let n = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                n
            })
        })
    }

    /// The raw bit pattern.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Constructs from a raw bit pattern.
    pub fn from_bits(bits: u64) -> Self {
        NodeSet(bits)
    }
}

impl FromIterator<usize> for NodeSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        NodeSet::from_nodes(iter)
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeSet{{")?;
        let mut first = true;
        for n in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{n}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for NodeSet {
    /// Renders the signature the way the paper's Fig. 9 prints them: one
    /// bit per node, most significant node last.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = f.width().unwrap_or(16);
        for n in 0..width {
            if n > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", u8::from(self.contains(n)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = NodeSet::EMPTY;
        assert!(s.is_empty());
        s.insert(3);
        s.insert(63);
        assert!(s.contains(3));
        assert!(s.contains(63));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 2);
        s.remove(3);
        assert!(!s.contains(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let a = NodeSet::from_nodes([0, 1, 2]);
        let b = NodeSet::from_nodes([2, 3]);
        assert_eq!(a.union(b), NodeSet::from_nodes([0, 1, 2, 3]));
        assert_eq!(a.intersection(b), NodeSet::from_nodes([2]));
        assert_eq!(a.symmetric_difference(b), NodeSet::from_nodes([0, 1, 3]));
        assert_eq!(a.difference(b), NodeSet::from_nodes([0, 1]));
    }

    #[test]
    fn all_and_iter() {
        let s = NodeSet::all(8);
        assert_eq!(s.len(), 8);
        assert_eq!(s.iter().collect::<Vec<_>>(), (0..8).collect::<Vec<_>>());
        assert_eq!(NodeSet::all(64).len(), 64);
    }

    #[test]
    fn collect_from_iterator() {
        let s: NodeSet = [5usize, 7, 5].into_iter().collect();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn bits_round_trip() {
        let s = NodeSet::from_nodes([1, 5]);
        assert_eq!(NodeSet::from_bits(s.bits()), s);
    }

    #[test]
    fn display_matches_paper_format() {
        // Fig. 9's A1 signature: nodes 2 and 10 of 16.
        let s = NodeSet::from_nodes([2, 10]);
        assert_eq!(format!("{s}"), "0 0 1 0 0 0 0 0 0 0 1 0 0 0 0 0");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_index_panics() {
        let mut s = NodeSet::EMPTY;
        s.insert(64);
    }

    #[test]
    fn debug_is_nonempty() {
        assert_eq!(format!("{:?}", NodeSet::EMPTY), "NodeSet{}");
        assert_eq!(format!("{:?}", NodeSet::from_nodes([1, 2])), "NodeSet{1,2}");
    }
}
