//! Heap files: fixed-size records addressed by RID.
//!
//! A heap file occupies a contiguous page extent. Each page holds
//! `slots_per_page` fixed-size records behind a presence-flag array, so a
//! zeroed (never-written) page is a valid empty page — creating a table
//! costs no I/O. RIDs are dense: `rid = page_index * slots_per_page + slot`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use turbopool_iosim::{Locality, PageId};

use crate::txn::Txn;

/// RID: a record's stable address within its heap file.
pub type Rid = u64;

/// Heap-file metadata (kept in the catalog).
#[derive(Clone, Debug)]
pub struct HeapMeta {
    pub first: PageId,
    pub pages: u64,
    pub record_size: usize,
    pub slots_per_page: usize,
    /// Append cursor: the next RID to hand out.
    pub next: Arc<AtomicU64>,
}

impl HeapMeta {
    pub fn new(first: PageId, pages: u64, record_size: usize, page_size: usize) -> Self {
        let slots_per_page = page_size / (1 + record_size);
        assert!(slots_per_page >= 1, "record larger than a page");
        HeapMeta {
            first,
            pages,
            record_size,
            slots_per_page,
            next: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Total record capacity.
    pub fn capacity(&self) -> u64 {
        self.pages * self.slots_per_page as u64
    }

    /// Page and slot of a RID.
    #[inline]
    pub fn locate(&self, rid: Rid) -> (PageId, usize) {
        let page = self.first.offset(rid / self.slots_per_page as u64);
        let slot = (rid % self.slots_per_page as u64) as usize;
        (page, slot)
    }

    /// Byte offset of a slot's presence flag.
    #[inline]
    fn flag_off(&self, slot: usize) -> usize {
        slot
    }

    /// Byte offset of a slot's record bytes.
    #[inline]
    fn rec_off(&self, slot: usize) -> usize {
        self.slots_per_page + slot * self.record_size
    }

    /// Pages that contain at least one allocated RID (bounds table scans).
    pub fn used_pages(&self) -> u64 {
        let next = self.next.load(Ordering::Relaxed);
        next.div_ceil(self.slots_per_page as u64).min(self.pages)
    }
}

/// Append a record; returns its RID. The data must be at most
/// `record_size` bytes (shorter records are zero-padded).
pub fn insert(txn: &mut Txn<'_, '_>, meta: &HeapMeta, data: &[u8]) -> Result<Rid, HeapFull> {
    assert!(data.len() <= meta.record_size, "record too large");
    let rid = meta.next.fetch_add(1, Ordering::Relaxed);
    if rid >= meta.capacity() {
        return Err(HeapFull);
    }
    let (pid, slot) = meta.locate(rid);
    let (f, r) = (meta.flag_off(slot), meta.rec_off(slot));
    txn.write_page(pid, Locality::Random, |b| {
        b.put(f, &[1]);
        let (rec, padding) = b.window(r..r + meta.record_size).split_at_mut(data.len());
        rec.copy_from_slice(data);
        // Zero the padding in case the slot was previously used.
        padding.fill(0);
    });
    Ok(rid)
}

/// The heap extent is out of slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapFull;

/// Read a record; `None` if the RID was never inserted or was deleted.
pub fn get(txn: &mut Txn<'_, '_>, meta: &HeapMeta, rid: Rid) -> Option<Vec<u8>> {
    if rid >= meta.capacity() {
        return None;
    }
    let (pid, slot) = meta.locate(rid);
    let (f, r) = (meta.flag_off(slot), meta.rec_off(slot));
    txn.read_page(pid, Locality::Random, |b| {
        (b[f] == 1).then(|| b[r..r + meta.record_size].to_vec())
    })
}

/// Overwrite an existing record in place.
pub fn update(txn: &mut Txn<'_, '_>, meta: &HeapMeta, rid: Rid, data: &[u8]) -> bool {
    assert!(data.len() <= meta.record_size, "record too large");
    if rid >= meta.capacity() {
        return false;
    }
    let (pid, slot) = meta.locate(rid);
    let (f, r) = (meta.flag_off(slot), meta.rec_off(slot));
    txn.write_page(pid, Locality::Random, |b| {
        if b[f] != 1 {
            return false;
        }
        b.put(r, data);
        true
    })
}

/// Delete a record (the slot is not reused).
pub fn delete(txn: &mut Txn<'_, '_>, meta: &HeapMeta, rid: Rid) -> bool {
    if rid >= meta.capacity() {
        return false;
    }
    let (pid, slot) = meta.locate(rid);
    let f = meta.flag_off(slot);
    txn.write_page(pid, Locality::Random, |b| {
        let was = b[f] == 1;
        b.put(f, &[0]);
        was
    })
}

/// Iterate the present records of one page image, calling
/// `f(rid, record_bytes)`.
pub fn for_each_in_page(
    meta: &HeapMeta,
    page_index: u64,
    page: &[u8],
    mut f: impl FnMut(Rid, &[u8]),
) {
    for slot in 0..meta.slots_per_page {
        if page[meta.flag_off(slot)] == 1 {
            let rid = page_index * meta.slots_per_page as u64 + slot as u64;
            let r = meta.rec_off(slot);
            f(rid, &page[r..r + meta.record_size]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_round_trips() {
        let m = HeapMeta::new(PageId(100), 10, 31, 256);
        assert_eq!(m.slots_per_page, 8);
        assert_eq!(m.capacity(), 80);
        assert_eq!(m.locate(0), (PageId(100), 0));
        assert_eq!(m.locate(7), (PageId(100), 7));
        assert_eq!(m.locate(8), (PageId(101), 0));
        assert_eq!(m.locate(79), (PageId(109), 7));
    }

    #[test]
    fn offsets_do_not_overlap() {
        let m = HeapMeta::new(PageId(0), 1, 31, 256);
        // Flags occupy [0, 8); records start at 8.
        assert_eq!(m.rec_off(0), 8);
        assert_eq!(m.rec_off(7), 8 + 7 * 31);
        assert!(m.rec_off(7) + 31 <= 256);
    }

    #[test]
    fn used_pages_tracks_cursor() {
        let m = HeapMeta::new(PageId(0), 10, 31, 256);
        assert_eq!(m.used_pages(), 0);
        m.next.store(1, Ordering::Relaxed);
        assert_eq!(m.used_pages(), 1);
        m.next.store(8, Ordering::Relaxed);
        assert_eq!(m.used_pages(), 1);
        m.next.store(9, Ordering::Relaxed);
        assert_eq!(m.used_pages(), 2);
        m.next.store(10_000, Ordering::Relaxed);
        assert_eq!(m.used_pages(), 10);
    }

    #[test]
    fn for_each_in_page_skips_absent_slots() {
        let m = HeapMeta::new(PageId(0), 1, 31, 256);
        let mut page = vec![0u8; 256];
        page[0] = 1; // slot 0 present
        page[2] = 1; // slot 2 present
        page[8] = 0xAA; // slot 0 record first byte
        let mut seen = Vec::new();
        for_each_in_page(&m, 5, &page, |rid, rec| seen.push((rid, rec[0])));
        assert_eq!(seen, vec![(40, 0xAA), (42, 0)]);
    }
}
