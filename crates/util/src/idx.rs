//! Strongly-typed index newtypes and dense index-keyed vectors.
//!
//! Compiler IRs in this workspace use arena-style storage: nodes live in
//! `Vec`s and refer to each other with small integer indices. The
//! [`define_index!`](crate::define_index) macro creates a distinct newtype per IR entity so that,
//! e.g., an instance id cannot be confused with an invocation id, and
//! [`IndexVec`] provides a vector indexed by such a newtype.

use std::marker::PhantomData;

/// Trait implemented by index newtypes created with
/// [`define_index!`](crate::define_index).
pub trait Idx: Copy + Eq + std::hash::Hash + std::fmt::Debug {
    /// Creates an index from a raw `usize`.
    fn from_usize(i: usize) -> Self;
    /// Returns the raw `usize` value.
    fn as_usize(&self) -> usize;
}

/// Defines a new index type.
///
/// # Example
///
/// ```
/// use lilac_util::define_index;
/// use lilac_util::idx::{Idx, IndexVec};
///
/// define_index!(NodeId, "n");
///
/// let mut nodes: IndexVec<NodeId, &str> = IndexVec::new();
/// let a = nodes.push("add");
/// let b = nodes.push("mul");
/// assert_eq!(nodes[a], "add");
/// assert_eq!(nodes[b], "mul");
/// assert_eq!(format!("{a:?}"), "n0");
/// ```
#[macro_export]
macro_rules! define_index {
    ($name:ident, $prefix:expr) => {
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $crate::idx::Idx for $name {
            fn from_usize(i: usize) -> Self {
                $name(i as u32)
            }
            fn as_usize(&self) -> usize {
                self.0 as usize
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }
    };
}

/// A vector whose elements are addressed by a strongly-typed index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexVec<I: Idx, T> {
    raw: Vec<T>,
    _marker: PhantomData<I>,
}

impl<I: Idx, T> IndexVec<I, T> {
    /// Creates an empty vector.
    pub fn new() -> Self {
        IndexVec { raw: Vec::new(), _marker: PhantomData }
    }

    /// Creates an empty vector with the given capacity.
    pub fn with_capacity(cap: usize) -> Self {
        IndexVec { raw: Vec::with_capacity(cap), _marker: PhantomData }
    }

    /// Appends an element and returns its index.
    pub fn push(&mut self, value: T) -> I {
        let idx = I::from_usize(self.raw.len());
        self.raw.push(value);
        idx
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Returns true if the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Returns a reference to the element at `idx`, if in bounds.
    pub fn get(&self, idx: I) -> Option<&T> {
        self.raw.get(idx.as_usize())
    }

    /// Returns a mutable reference to the element at `idx`, if in bounds.
    pub fn get_mut(&mut self, idx: I) -> Option<&mut T> {
        self.raw.get_mut(idx.as_usize())
    }

    /// Iterates over `(index, &element)` pairs.
    pub fn iter_enumerated(&self) -> impl Iterator<Item = (I, &T)> {
        self.raw.iter().enumerate().map(|(i, t)| (I::from_usize(i), t))
    }

    /// Iterates over elements in index order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.raw.iter()
    }

    /// Iterates mutably over elements in index order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.raw.iter_mut()
    }

    /// Iterates over all valid indices.
    pub fn indices(&self) -> impl Iterator<Item = I> + '_ {
        (0..self.raw.len()).map(I::from_usize)
    }

    /// Consumes the vector and returns the underlying storage.
    pub fn into_inner(self) -> Vec<T> {
        self.raw
    }

    /// Returns the index the next pushed element will receive.
    pub fn next_index(&self) -> I {
        I::from_usize(self.raw.len())
    }
}

impl<I: Idx, T> Default for IndexVec<I, T> {
    fn default() -> Self {
        IndexVec::new()
    }
}

impl<I: Idx, T> std::ops::Index<I> for IndexVec<I, T> {
    type Output = T;
    fn index(&self, index: I) -> &T {
        &self.raw[index.as_usize()]
    }
}

impl<I: Idx, T> std::ops::IndexMut<I> for IndexVec<I, T> {
    fn index_mut(&mut self, index: I) -> &mut T {
        &mut self.raw[index.as_usize()]
    }
}

impl<I: Idx, T> FromIterator<T> for IndexVec<I, T> {
    fn from_iter<It: IntoIterator<Item = T>>(iter: It) -> Self {
        IndexVec { raw: iter.into_iter().collect(), _marker: PhantomData }
    }
}

impl<I: Idx, T> IntoIterator for IndexVec<I, T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        self.raw.into_iter()
    }
}

impl<'a, I: Idx, T> IntoIterator for &'a IndexVec<I, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.raw.iter()
    }
}

impl<I: Idx, T> Extend<T> for IndexVec<I, T> {
    fn extend<It: IntoIterator<Item = T>>(&mut self, iter: It) {
        self.raw.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    define_index!(TestId, "t");

    #[test]
    fn push_and_index() {
        let mut v: IndexVec<TestId, i32> = IndexVec::new();
        let a = v.push(10);
        let b = v.push(20);
        assert_eq!(v[a], 10);
        assert_eq!(v[b], 20);
        assert_eq!(v.len(), 2);
        v[a] = 15;
        assert_eq!(v[a], 15);
    }

    #[test]
    fn get_out_of_bounds() {
        let v: IndexVec<TestId, i32> = IndexVec::new();
        assert!(v.get(TestId(0)).is_none());
        assert!(v.is_empty());
    }

    #[test]
    fn iteration() {
        let v: IndexVec<TestId, i32> = (0..5).collect();
        let pairs: Vec<_> = v.iter_enumerated().map(|(i, &x)| (i.as_usize(), x)).collect();
        assert_eq!(pairs, vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
        assert_eq!(v.indices().count(), 5);
        let collected: Vec<i32> = (&v).into_iter().copied().collect();
        assert_eq!(collected, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn next_index_and_extend() {
        let mut v: IndexVec<TestId, i32> = IndexVec::with_capacity(4);
        assert_eq!(v.next_index(), TestId(0));
        v.extend([1, 2, 3]);
        assert_eq!(v.next_index(), TestId(3));
        assert_eq!(v.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn debug_formatting() {
        assert_eq!(format!("{:?}", TestId(7)), "t7");
        assert_eq!(format!("{}", TestId(7)), "t7");
    }
}
