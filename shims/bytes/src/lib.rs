//! Offline stand-in for the `bytes` crate.
//!
//! Implements the subset the workspace uses: [`Bytes`], a reference-counted,
//! cheaply cloneable, sliceable immutable byte buffer. Cloning and
//! [`Bytes::slice`] are O(1) and share the underlying allocation, which the
//! object-store simulator relies on when handing multi-megabyte objects to
//! many concurrent activations.

#![warn(missing_docs)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, sliceable immutable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty buffer (no allocation).
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Creates a buffer from a static slice.
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::from_arc(Arc::from(data))
    }

    /// Creates a buffer by copying `data`.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from_arc(Arc::from(data))
    }

    fn from_arc(data: Arc<[u8]>) -> Bytes {
        let end = data.len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }

    /// Number of bytes in the buffer.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-buffer sharing the same allocation (O(1)), or `None`
    /// if the range is out of bounds or inverted — [`slice`](Bytes::slice)
    /// for a range computed from input, where that is an error to report
    /// and not a bug. (Not in the published crate: see `shims/README.md`.)
    pub fn try_slice(&self, range: impl RangeBounds<usize>) -> Option<Bytes> {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_add(1)?,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1)?,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        (start <= end && end <= self.len()).then(|| Bytes {
            data: Arc::clone(&self.data),
            start: self.start + start,
            end: self.start + end,
        })
    }

    /// Returns a sub-buffer sharing the same allocation (O(1)).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted, matching the real
    /// crate's behavior.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let bounds = (range.start_bound().cloned(), range.end_bound().cloned());
        match self.try_slice(bounds) {
            Some(sub) => sub,
            None => panic!(
                "range start must not exceed end and end must not exceed len ({bounds:?} of {})",
                self.len()
            ),
        }
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        // lint: allow(L009) — start <= end <= data.len() is a constructor
        // invariant (slices only narrow)
        &self.data[self.start..self.end]
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from_arc(Arc::from(v))
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Bytes {
        Bytes::from_static(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Bytes {
        Bytes::from_static(v.as_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_allocation() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(s.as_ref(), &[2, 3, 4]);
        assert_eq!(s.len(), 3);
        let s2 = s.slice(1..);
        assert_eq!(s2.as_ref(), &[3, 4]);
    }

    #[test]
    fn empty_and_static() {
        assert!(Bytes::new().is_empty());
        let b = Bytes::from_static(b"abc");
        assert_eq!(&b[..], b"abc");
        assert_eq!(b[0], b'a');
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn out_of_bounds_slice_panics() {
        Bytes::from_static(b"ab").slice(0..3);
    }

    #[test]
    fn try_slice_is_slice_with_none_for_a_bad_range() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]).slice(1..);
        assert_eq!(b.try_slice(1..3), Some(b.slice(1..3)));
        assert_eq!(b.try_slice(4..).map(|s| s.len()), Some(0));
        assert_eq!(b.try_slice(..=3), Some(b.clone()));
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = b.try_slice(3..2);
        assert_eq!(inverted, None);
        assert_eq!(b.try_slice(0..5), None);
        assert_eq!(b.try_slice(..=usize::MAX), None);
    }

    #[test]
    fn equality_and_debug() {
        let a = Bytes::from(vec![b'x', 0]);
        let b = Bytes::copy_from_slice(&[b'x', 0]);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "b\"x\\x00\"");
    }
}
