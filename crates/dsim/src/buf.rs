//! Zero-copy payload buffers for simulated packets.
//!
//! Network payloads used to be `Vec<u8>`s cloned at every layer boundary
//! (NIC frame → link → NIC → IP decode → TCP reassembly). None of those
//! copies model anything — simulated `memcpy`/DMA time is charged
//! explicitly by the cost model — so they were pure host-side overhead.
//! [`Payload`] is a shared immutable byte buffer with offset/len slicing:
//! a payload is allocated once at the sender and only *views* of it travel
//! through the stack, until the receive path assembles the user's buffer
//! (the one copy that corresponds to a modeled kernel→user `memcpy`).
//!
//! The invariant this type exists to keep: **removing host copies must not
//! change any simulated cost.** Layers still charge `memcpy`/DMA time
//! exactly where they did before; only `Vec` clones are gone.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::{Arc, OnceLock};

/// A shared immutable byte buffer; cloning or slicing never copies data.
///
/// Internally an `Arc<Vec<u8>>` plus an `(offset, len)` window. `Deref`s
/// to `[u8]`, so all slice methods apply.
#[derive(Clone)]
pub struct Payload {
    data: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

fn empty_backing() -> &'static Arc<Vec<u8>> {
    static EMPTY: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(Vec::new()))
}

impl Payload {
    /// Take ownership of a buffer without copying it.
    pub fn new(data: Vec<u8>) -> Payload {
        let len = data.len();
        Payload {
            data: Arc::new(data),
            off: 0,
            len,
        }
    }

    /// The shared empty payload (no allocation).
    pub fn empty() -> Payload {
        Payload {
            data: Arc::clone(empty_backing()),
            off: 0,
            len: 0,
        }
    }

    /// Copy a slice into a fresh payload (the *one* place a copy happens;
    /// use [`Payload::new`] when the `Vec` can be moved instead).
    pub fn copy_from_slice(data: &[u8]) -> Payload {
        Payload::new(data.to_vec())
    }

    /// Length of the visible window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-window of this payload; shares the backing allocation.
    ///
    /// Panics if the range is out of bounds (like slice indexing).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Payload {
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "payload slice {start}..{end} out of bounds (len {})",
            self.len
        );
        Payload {
            data: Arc::clone(&self.data),
            off: self.off + start,
            len: end - start,
        }
    }

    /// The visible bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(data: Vec<u8>) -> Payload {
        Payload::new(data)
    }
}

impl From<&[u8]> for Payload {
    fn from(data: &[u8]) -> Payload {
        Payload::copy_from_slice(data)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload[{} bytes", self.len)?;
        if self.off != 0 {
            write!(f, " @+{}", self.off)?;
        }
        if self.len <= 8 {
            write!(f, " {:02x?}", self.as_slice())?;
        }
        f.write_str("]")
    }
}

impl Default for Payload {
    fn default() -> Payload {
        Payload::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slicing_shares_backing() {
        let p = Payload::new(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let mid = p.slice(2..6);
        assert_eq!(&*mid, &[2, 3, 4, 5]);
        let tail = mid.slice(1..);
        assert_eq!(&*tail, &[3, 4, 5]);
        // Same allocation under all three views.
        assert!(Arc::ptr_eq(&p.data, &tail.data));
    }

    #[test]
    fn empty_is_shared_and_cheap() {
        let a = Payload::empty();
        let b = Payload::empty();
        assert!(Arc::ptr_eq(&a.data, &b.data));
        assert!(a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn equality_is_bytewise() {
        let a = Payload::new(vec![9, 9, 1, 2]).slice(2..);
        let b = Payload::new(vec![1, 2]);
        assert_eq!(a, b);
        assert_eq!(a, vec![1u8, 2]);
        assert_eq!(a, *[1u8, 2].as_slice());
    }

    #[test]
    fn full_and_inclusive_ranges() {
        let p = Payload::new(vec![1, 2, 3]);
        assert_eq!(p.slice(..), p);
        assert_eq!(&*p.slice(0..=1), &[1, 2]);
        assert_eq!(p.slice(3..).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oversized_slice_panics() {
        let p = Payload::new(vec![1, 2, 3]);
        let _ = p.slice(1..5);
    }
}
