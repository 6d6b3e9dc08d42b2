//! A fixed-capacity sequence that lives inline, for walk results.

use std::fmt;
use std::ops::Deref;

/// Up to `N` values of a `Copy` type, stored inline. A walk's reads,
/// writes and PTE-line leaves have small structural bounds (a native
/// walk reads at most 4 PTEs, a nested one 24, a cache line holds 8), so
/// walk results carry them in these rather than on the heap. Derefs to
/// the filled prefix, so it reads like a slice: `len`, `iter`, indexing.
#[derive(Clone, Copy)]
pub struct Bounded<T: Copy, const N: usize> {
    items: [T; N],
    len: usize,
}

impl<T: Copy, const N: usize> Bounded<T, N> {
    /// An empty sequence; `filler` occupies the unused slots and is never
    /// observable.
    pub(crate) const fn new(filler: T) -> Bounded<T, N> {
        Bounded {
            items: [filler; N],
            len: 0,
        }
    }

    /// Appends `item`.
    ///
    /// # Panics
    ///
    /// Panics when the sequence already holds `N` items — a walk that
    /// outgrows its structural bound is a walker bug.
    pub(crate) fn push(&mut self, item: T) {
        assert!(self.len < N, "bounded sequence of {N} overflowed");
        self.items[self.len] = item;
        self.len += 1;
    }

    /// Appends every item of `items`, in order.
    pub(crate) fn extend_from_slice(&mut self, items: &[T]) {
        for &item in items {
            self.push(item);
        }
    }
}

impl<T: Copy, const N: usize> Deref for Bounded<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a Bounded<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for Bounded<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_like_the_filled_prefix() {
        let mut b: Bounded<u32, 4> = Bounded::new(0);
        assert!(b.is_empty());
        b.push(7);
        b.extend_from_slice(&[8, 9]);
        assert_eq!(b.len(), 3);
        assert_eq!(&*b, &[7, 8, 9]);
        assert_eq!(b[2], 9);
        assert_eq!((&b).into_iter().copied().sum::<u32>(), 24);
        assert_eq!(format!("{b:?}"), "[7, 8, 9]");
        // The filler never shows.
        let mut c: Bounded<u32, 4> = Bounded::new(5);
        c.extend_from_slice(&[7, 8, 9]);
        assert_eq!(&*b, &*c);
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn overflow_is_a_bug() {
        let mut b: Bounded<u32, 1> = Bounded::new(0);
        b.push(1);
        b.push(2);
    }
}
