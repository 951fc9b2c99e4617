//! Database pages and page identifiers.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    /// The fibonacci-hashing multiplier (2^64 / φ).
    const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
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
/// per-process-seeded default hasher; nothing may depend on it
/// (`clippy::iter_over_hash_type` in the simulation crates).
pub type PidMap<V> = HashMap<PageId, V, BuildHasherDefault<PidHasher>>;

impl From<PageId> for u64 {
    #[inline]
    fn from(pid: PageId) -> u64 {
        pid.0
    }
}

/// A map from a dense key — a page number, or an extent number — to `V`,
/// kept as an array with one slot per key, sized once. A probe is one
/// index, not a hash and a bucket walk; the cost is a slot per key of the
/// database, used or not.
///
/// One value, `vacant`, chosen at construction, marks an empty slot:
/// storing it is a removal, and no entry ever holds it. Keys past the
/// table's end are never present; inserting one panics. Iteration runs
/// in ascending key order.
#[derive(Debug, Clone)]
pub struct PageTable<V, K = PageId> {
    slots: Box<[V]>,
    vacant: V,
    len: usize,
    key: PhantomData<fn(K)>,
}

impl<V: Copy + PartialEq, K: Into<u64>> PageTable<V, K> {
    /// An empty table for keys `0..keys`, `vacant` marking an empty slot.
    pub fn new(keys: u64, vacant: V) -> Self {
        PageTable {
            slots: vec![vacant; Self::slot(keys)].into_boxed_slice(),
            vacant,
            len: 0,
            key: PhantomData,
        }
    }

    #[inline]
    fn slot(key: impl Into<u64>) -> usize {
        key.into() as usize
    }

    /// Entries held.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value at `key`, if any.
    #[inline]
    pub fn get(&self, key: K) -> Option<V> {
        let v = *self.slots.get(Self::slot(key))?;
        (v != self.vacant).then_some(v)
    }

    /// True if `key` has an entry.
    #[inline]
    pub fn contains_key(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Set `key`'s value, returning the one it replaced. Storing the
    /// vacant value removes the entry. Panics if `key` is past the end.
    #[inline]
    pub fn insert(&mut self, key: K, v: V) -> Option<V> {
        let vacant = self.vacant;
        let old = std::mem::replace(&mut self.slots[Self::slot(key)], v);
        self.len = self.len + usize::from(v != vacant) - usize::from(old != vacant);
        (old != vacant).then_some(old)
    }

    /// Remove `key`'s entry, returning its value.
    #[inline]
    pub fn remove(&mut self, key: K) -> Option<V> {
        let vacant = self.vacant;
        let old = std::mem::replace(self.slots.get_mut(Self::slot(key))?, vacant);
        (old != vacant).then(|| {
            self.len -= 1;
            old
        })
    }

    /// The entries held as `(key number, value)`, in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        (0u64..)
            .zip(self.slots.iter().copied())
            .filter(|&(_, v)| v != self.vacant)
    }

    /// The values held, in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// Keep only the entries whose value `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(V) -> bool) {
        let vacant = self.vacant;
        for slot in self.slots.iter_mut().filter(|v| **v != vacant) {
            if !keep(*slot) {
                *slot = vacant;
                self.len -= 1;
            }
        }
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.slots.fill(self.vacant);
        self.len = 0;
    }
}

/// A page image: an immutable, reference-counted page of bytes.
///
/// Every tier that holds a page — a store, an SSD frame, a pool frame, a
/// run being read ahead — holds a handle on the same image, and moving a
/// page between tiers is a handle clone, not a copy. A holder may change
/// the bytes only if its handle is the sole one (`Arc::get_mut` succeeds);
/// every mutable access through any other handle first copies the bytes
/// into an image of its own, so no write is ever visible through another
/// handle.
///
/// The page size is a run-time configuration (the paper uses 8 KB pages;
/// tests use much smaller pages to keep fixtures compact), so the bytes
/// are a shared slice rather than a fixed-size array.
pub struct PageBuf {
    data: Arc<[u8]>,
    /// The value [`derived`](Self::derived) last computed from `data`, or
    /// [`NO_DERIVED`]. Per handle: a clone carries it, any mutable access
    /// clears it.
    derived: AtomicU64,
}

/// "Not computed" marker of the derived-value slot. A value equal to it
/// is merely derived again on every ask.
const NO_DERIVED: u64 = u64::MAX;

impl PageBuf {
    /// A zeroed page of `page_size` bytes.
    pub fn zeroed(page_size: usize) -> Self {
        // Collected, not converted from a `Vec`: one allocation, no copy.
        Self::from_arc(std::iter::repeat_n(0u8, page_size).collect())
    }

    /// A page initialized from `data`.
    pub fn from_slice(data: &[u8]) -> Self {
        Self::from_arc(data.into())
    }

    fn from_arc(data: Arc<[u8]>) -> Self {
        PageBuf {
            data,
            derived: AtomicU64::new(NO_DERIVED),
        }
    }

    /// Forget the derived value: the bytes are about to change.
    fn forget(&mut self) {
        *self.derived.get_mut() = NO_DERIVED;
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

    /// Mutable view of the page bytes. A shared image is copied first, so
    /// the other holders keep the bytes they had.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        self.forget();
        Arc::make_mut(&mut self.data)
    }

    /// Mutable view for a caller that overwrites every byte: contents are
    /// unspecified, and a shared image is swapped for a fresh one instead
    /// of being copied only to be overwritten.
    pub fn overwrite_slice(&mut self) -> &mut [u8] {
        if !self.is_unique() {
            *self = Self::zeroed(self.len());
        }
        self.as_mut_slice()
    }

    /// Overwrite the whole page from `src` (lengths must match): in place
    /// when this handle is the only one, else into a fresh image.
    pub fn copy_from(&mut self, src: &[u8]) {
        assert_eq!(src.len(), self.len(), "page size mismatch");
        self.forget();
        match Arc::get_mut(&mut self.data) {
            Some(own) => own.copy_from_slice(src),
            None => self.data = src.into(),
        }
    }

    /// True if no other handle shares this image, i.e. mutable access
    /// will not copy.
    pub fn is_unique(&mut self) -> bool {
        Arc::get_mut(&mut self.data).is_some()
    }

    /// True if both handles are on one image: then they hold the same
    /// bytes without comparing any.
    #[inline]
    pub fn same_image(&self, other: &PageBuf) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// The value `derive` computes from the bytes, cached in one slot:
    /// clones carry it, every mutable access clears it. The slot belongs
    /// to whoever owns the page's format, so every caller on one page
    /// passes the same `derive`. Debug builds recompute it on every cache
    /// hit and assert that it still matches.
    pub fn derived(&self, derive: fn(&[u8]) -> u64) -> u64 {
        match self.derived.load(Ordering::Relaxed) {
            NO_DERIVED => {
                let v = derive(&self.data);
                // Publishes nothing but itself: racing callers store the
                // same value.
                self.derived.store(v, Ordering::Relaxed);
                v
            }
            v => {
                debug_assert_eq!(v, derive(&self.data), "derived value outlived its bytes");
                v
            }
        }
    }

    /// Record `v` as what `derive` computes from the bytes, for a caller
    /// that already knows it (the bulk loader, of a node it wrote sorted),
    /// so no later [`derived`](Self::derived) computes it. Debug builds
    /// check it against `derive`, as `derived` checks a cached hit.
    pub fn record_derived(&mut self, v: u64, derive: fn(&[u8]) -> u64) {
        debug_assert_eq!(
            v,
            derive(&self.data),
            "recorded value is not the derived one"
        );
        *self.derived.get_mut() = v;
    }

    /// The derived value this handle carries, if one was computed or
    /// recorded since the bytes last changed.
    pub fn known_derived(&self) -> Option<u64> {
        Some(self.derived.load(Ordering::Relaxed)).filter(|&v| v != NO_DERIVED)
    }
}

impl Clone for PageBuf {
    /// Another handle on the same image (and its derived value, if known).
    fn clone(&self) -> Self {
        PageBuf {
            data: Arc::clone(&self.data),
            derived: AtomicU64::new(self.derived.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for PageBuf {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl Eq for PageBuf {}

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
        self.as_mut_slice()
    }
}

/// Page bytes handed to a write entry point: a byte slice, whose bytes the
/// receiver copies, or a [`PageBuf`], whose image it shares.
pub trait PageSrc {
    fn bytes(&self) -> &[u8];

    /// The image behind [`bytes`](Self::bytes), if they already are one.
    fn as_image(&self) -> Option<&PageBuf> {
        None
    }
}

impl PageSrc for [u8] {
    fn bytes(&self) -> &[u8] {
        self
    }
}

impl PageSrc for Vec<u8> {
    fn bytes(&self) -> &[u8] {
        self
    }
}

impl<const N: usize> PageSrc for [u8; N] {
    fn bytes(&self) -> &[u8] {
        self
    }
}

impl PageSrc for PageBuf {
    fn bytes(&self) -> &[u8] {
        self
    }

    fn as_image(&self) -> Option<&PageBuf> {
        Some(self)
    }
}

impl<T: PageSrc + ?Sized> PageSrc for &T {
    fn bytes(&self) -> &[u8] {
        (**self).bytes()
    }

    fn as_image(&self) -> Option<&PageBuf> {
        (**self).as_image()
    }
}

/// Where a read entry point delivers a page: a byte buffer, which gets a
/// copy of the image's bytes, or a [`PageBuf`], which becomes a handle on
/// the image.
pub trait PageDst {
    fn set(&mut self, image: PageBuf);
}

impl PageDst for [u8] {
    fn set(&mut self, image: PageBuf) {
        self.copy_from_slice(&image);
    }
}

impl PageDst for Vec<u8> {
    fn set(&mut self, image: PageBuf) {
        self.copy_from_slice(&image);
    }
}

impl<const N: usize> PageDst for [u8; N] {
    fn set(&mut self, image: PageBuf) {
        self.copy_from_slice(&image);
    }
}

impl PageDst for PageBuf {
    fn set(&mut self, image: PageBuf) {
        *self = image;
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

    /// A seeded model check of [`PageTable`] against a `HashMap` oracle:
    /// random inserts, removes and prunes, with the first and last page
    /// always in play and a key past the end probed.
    #[test]
    fn page_table_matches_a_hash_map() {
        use crate::rng::{Rng, SeedableRng, SmallRng};
        use std::collections::BTreeMap;
        for (seed, pages) in [(1u64, 1u64), (2, 7), (3, 64), (4, 1_000)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut table: PageTable<u32> = PageTable::new(pages, u32::MAX);
            let mut oracle: HashMap<PageId, u32> = HashMap::new();
            let last = PageId(pages - 1);
            for step in 0..4_000u32 {
                let pid = match rng.gen_range(0..4u32) {
                    0 => PageId(0),
                    1 => last,
                    _ => PageId(rng.gen_range(0..pages)),
                };
                match rng.gen_range(0..10u32) {
                    0..=4 => {
                        let v = rng.gen_range(0..u32::MAX);
                        assert_eq!(table.insert(pid, v), oracle.insert(pid, v), "step {step}");
                    }
                    5..=7 => assert_eq!(table.remove(pid), oracle.remove(&pid), "step {step}"),
                    8 => {
                        let cut = rng.gen_range(0..u32::MAX);
                        table.retain(|v| v >= cut);
                        oracle.retain(|_, v| *v >= cut);
                    }
                    _ => {
                        // Storing the vacant value is a removal.
                        assert_eq!(table.insert(pid, u32::MAX), oracle.remove(&pid));
                    }
                }
                assert_eq!(table.len(), oracle.len(), "step {step}");
                assert_eq!(table.is_empty(), oracle.is_empty());
                for probe in [PageId(0), last, pid] {
                    assert_eq!(table.get(probe), oracle.get(&probe).copied());
                    assert_eq!(table.contains_key(probe), oracle.contains_key(&probe));
                }
                assert_eq!(table.get(PageId(pages)), None, "past the end");
                assert_eq!(table.remove(PageId(pages)), None);
            }
            let sorted: BTreeMap<u64, u32> = oracle.into_iter().map(|(p, v)| (p.0, v)).collect();
            assert!(
                table.values().eq(sorted.values().copied()),
                "ascending key order"
            );
            assert!(table.iter().eq(sorted.into_iter()));
            table.clear();
            assert_eq!((table.len(), table.get(last)), (0, None));
        }
    }

    #[test]
    fn page_table_takes_extent_numbers_too() {
        let mut temps: PageTable<u64, u64> = PageTable::new(4, 0);
        temps.insert(3, 7);
        assert_eq!(
            (temps.get(3), temps.get(2), temps.len()),
            (Some(7), None, 1)
        );
        temps.insert(3, 0);
        assert!(temps.is_empty(), "the vacant value removes");
    }

    #[test]
    #[should_panic]
    fn page_table_insert_past_the_end_panics() {
        PageTable::<u32>::new(4, u32::MAX).insert(PageId(4), 0);
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
    fn clone_shares_the_image_and_a_write_unshares_it() {
        let mut a = PageBuf::from_slice(&[7u8; 64]);
        assert!(a.is_unique());
        let addr = a.as_ptr();
        a.as_mut_slice()[0] = 8;
        assert_eq!(a.as_ptr(), addr, "a sole holder writes in place");
        let mut b = a.clone();
        assert_eq!(b.as_ptr(), addr, "a clone moves no bytes");
        assert!(!a.is_unique() && !b.is_unique());
        b[1] = 9; // DerefMut goes through the same copy-on-write
        assert_ne!(b.as_ptr(), addr, "a sharer copies before it writes");
        assert_eq!((a[0], a[1]), (8, 7), "the other handle saw nothing");
        assert_eq!((b[0], b[1]), (8, 9));
        assert!(a.is_unique() && b.is_unique());
    }

    #[test]
    fn copy_from_and_overwrite_slice_never_copy_a_shared_image() {
        let a = PageBuf::from_slice(&[1u8; 32]);
        let mut b = a.clone();
        b.copy_from(&[2u8; 32]);
        assert_eq!((a[0], b[0]), (1, 2));
        let addr = b.as_ptr();
        b.copy_from(&[3u8; 32]);
        assert_eq!((b.as_ptr(), b[31]), (addr, 3), "unique: in place");
        let mut c = a.clone();
        c.overwrite_slice().fill(4);
        assert_eq!((a[0], c[0]), (1, 4));
        let addr = c.as_ptr();
        c.overwrite_slice()[0] = 5;
        assert_eq!((c.as_ptr(), c[0], c[1]), (addr, 5, 4), "unique: in place");
    }

    #[test]
    fn same_image_follows_the_handle_not_the_bytes() {
        let mut a = PageBuf::from_slice(&[0x5Au8; 64]);
        let b = a.clone();
        assert!(a.same_image(&b) && b.same_image(&a), "a clone shares it");
        let twin = PageBuf::from_slice(&[0x5Au8; 64]);
        assert_eq!(a, twin);
        assert!(!a.same_image(&twin), "equal bytes, another image");
        // Any mutable access of a shared image moves the writer off it,
        // even one that leaves the bytes as they were.
        a[0] = 0x5A;
        assert!(!a.same_image(&b));
        assert_eq!(a, b);
        assert!(b.same_image(&b.clone()));
    }

    #[test]
    fn derived_is_cached_carried_by_clone_and_cleared_by_each_mutator() {
        fn first_byte(b: &[u8]) -> u64 {
            u64::from(b[0])
        }
        let mut a = PageBuf::from_slice(&[3u8; 64]);
        assert_eq!(a.known_derived(), None);
        assert_eq!(a.derived(first_byte), 3);
        assert_eq!(a.known_derived(), Some(3));
        let b = a.clone();
        assert_eq!(b.known_derived(), Some(3), "clone carries the value");
        // Each of the four mutators forgets it; the next ask sees the new
        // bytes, and the other handle keeps its own.
        let mutators: [fn(&mut PageBuf); 4] = [
            |p| p.as_mut_slice()[0] = 4,
            |p| p[0] = 5,
            |p| p.copy_from(&[6u8; 64]),
            |p| p.overwrite_slice().fill(7),
        ];
        for (i, mutate) in mutators.into_iter().enumerate() {
            a.derived(first_byte);
            let shared = a.clone();
            mutate(&mut a);
            assert_eq!(a.known_derived(), None, "mutator {i} kept the value");
            assert_eq!(a.derived(first_byte), i as u64 + 4, "mutator {i}");
            assert_eq!(shared.known_derived(), Some(i as u64 + 3));
        }
        assert_eq!(b.known_derived(), Some(3));
        // A recorded value is carried like a computed one, and debug builds
        // refuse one the bytes do not derive.
        a.record_derived(7, first_byte);
        assert_eq!(a.clone().known_derived(), Some(7));
        if cfg!(debug_assertions) {
            let wrong = std::panic::catch_unwind(move || a.record_derived(5, first_byte));
            assert!(wrong.is_err(), "a wrong recorded value passed the check");
        }
    }

    #[test]
    fn src_and_dst_copy_slices_and_share_images() {
        let image = PageBuf::from_slice(&[6u8; 16]);
        assert_eq!(image.as_image().map(|i| i.as_ptr()), Some(image.as_ptr()));
        assert!([6u8; 16].as_image().is_none());
        assert!(vec![6u8; 16].as_image().is_none());
        assert!([6u8; 16][..].as_image().is_none());
        let by_ref: &PageBuf = &image;
        assert_eq!(PageSrc::bytes(&by_ref), &[6u8; 16], "the `&T` impl");
        assert!(PageSrc::as_image(&by_ref).is_some());
        let mut slice = [0u8; 16];
        slice[..].set(image.clone());
        let mut vec = vec![0u8; 16];
        vec.set(image.clone());
        let mut handle = PageBuf::zeroed(16);
        handle.set(image.clone());
        assert_eq!((slice, &vec[..]), ([6u8; 16], &[6u8; 16][..]));
        assert_eq!(handle.as_ptr(), image.as_ptr(), "a handle takes the image");
    }
}
