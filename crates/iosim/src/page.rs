//! Database pages and page identifiers.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a database page within the (single) simulated database file.
///
/// Page ids are dense: the database occupies pages `0..db_pages`, striped
/// round-robin across the disks of the array, so consecutive page ids map to
/// consecutive stripes — a scan over a page range drives every spindle with
/// sequential disk-local addresses, exactly like a striped file group.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(pub u64);

impl PageId {
    /// The page `n` pages after this one.
    #[inline]
    pub fn offset(self, n: u64) -> PageId {
        PageId(self.0 + n)
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Hasher for [`PageId`]-keyed maps: one fibonacci multiply and a fold of
/// the high half into the low half, where the table index is taken (the
/// multiply alone leaves a dense id range's entropy in the high bits).
///
/// Page ids come from the workload generators and the catalog, never from
/// outside the program, so SipHash's protection against crafted collisions
/// buys nothing here and costs most of a probe.
#[derive(Clone, Copy, Default)]
pub struct PidHasher(u64);

impl PidHasher {
    /// The fibonacci-hashing multiplier (2^64 / φ); `bufpool::shard_of`
    /// routes page ids to shards with the same one.
    pub const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
}

impl Hasher for PidHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(Self::FIB);
    }

    /// Only `write_u64` is reached by `PageId`'s derived `Hash`; other
    /// widths go through the same mix eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A hash map keyed by [`PageId`] using
/// [`PidHasher`]. Iteration order is as unspecified as with std's
/// per-process-seeded default hasher; nothing may depend on it (lint L9).
pub type PidMap<V> = HashMap<PageId, V, BuildHasherDefault<PidHasher>>;

/// An owned page-sized byte buffer.
///
/// The page size is a run-time configuration (the paper uses 8 KB pages;
/// tests use much smaller pages to keep fixtures compact), so `PageBuf` wraps
/// a boxed slice rather than a fixed-size array.
#[derive(Clone, PartialEq, Eq)]
pub struct PageBuf {
    data: Box<[u8]>,
}

impl PageBuf {
    /// A zeroed page of `page_size` bytes.
    pub fn zeroed(page_size: usize) -> Self {
        PageBuf {
            data: vec![0u8; page_size].into_boxed_slice(),
        }
    }

    /// A page initialized from `data`.
    pub fn from_slice(data: &[u8]) -> Self {
        PageBuf { data: data.into() }
    }

    /// Adopt `data` as a page without copying (a [`PageBufPool`] buffer
    /// has `len == capacity`, so boxing it does not reallocate).
    ///
    /// [`PageBufPool`]: crate::PageBufPool
    pub fn from_vec(data: Vec<u8>) -> Self {
        PageBuf {
            data: data.into_boxed_slice(),
        }
    }

    /// Give the page's buffer up, e.g. back to a [`PageBufPool`].
    ///
    /// [`PageBufPool`]: crate::PageBufPool
    pub fn into_vec(self) -> Vec<u8> {
        self.data.into_vec()
    }

    /// Page size in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the page has zero length (never the case for real pages;
    /// present to satisfy the `len`/`is_empty` convention).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the page bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Mutable view of the page bytes.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Overwrite the whole page from `src` (lengths must match).
    #[inline]
    pub fn copy_from(&mut self, src: &[u8]) {
        self.data.copy_from_slice(src);
    }
}

impl fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageBuf({} bytes)", self.data.len())
    }
}

impl std::ops::Deref for PageBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for PageBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_id_arithmetic() {
        let p = PageId(10);
        assert_eq!(p.offset(5), PageId(15));
        assert_eq!(format!("{p}"), "P10");
    }

    #[test]
    fn pid_map_spreads_dense_and_strided_ids() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<PidHasher>::default();
        // Low bits pick the bucket, the top seven bits the control byte:
        // both must spread over dense ids and over power-of-two strides.
        for stride in [1u64, 8, 4096, 1 << 20] {
            let mut low = [0u32; 256];
            let mut top = [0u32; 128];
            for i in 0..(1u64 << 16) {
                let h = build.hash_one(PageId(i * stride));
                low[(h & 255) as usize] += 1;
                top[(h >> 57) as usize] += 1;
            }
            assert!(
                low.iter().all(|&c| (128..=512).contains(&c)),
                "stride {stride}: {low:?}"
            );
            assert!(
                top.iter().all(|&c| (256..=1024).contains(&c)),
                "stride {stride}: {top:?}"
            );
        }
        let mut m: PidMap<u64> = PidMap::default();
        for i in 0..10_000u64 {
            m.insert(PageId(i * 3), i);
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m.get(&PageId(2_997)), Some(&999));
        assert_eq!(m.get(&PageId(2_998)), None);
    }

    #[test]
    fn page_buf_round_trip() {
        let mut b = PageBuf::zeroed(64);
        assert_eq!(b.len(), 64);
        assert!(!b.is_empty());
        b.as_mut_slice()[0] = 0xAB;
        let c = PageBuf::from_slice(b.as_slice());
        assert_eq!(c.as_slice()[0], 0xAB);
        assert_eq!(b, c);
    }

    #[test]
    fn page_buf_adopts_and_releases_a_vec_in_place() {
        let v = vec![7u8; 64];
        let addr = v.as_ptr();
        let p = PageBuf::from_vec(v);
        assert_eq!(p.as_slice().as_ptr(), addr, "no copy on the way in");
        let v = p.into_vec();
        assert_eq!((v.as_ptr(), v.len(), v[63]), (addr, 64, 7));
    }
}
