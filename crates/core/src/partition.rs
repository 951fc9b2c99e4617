//! One SSD partition: buffer table, hash table, free list, heap array.
//!
//! To increase concurrency the SSD buffer pool is partitioned (§3.3.4);
//! each partition owns a contiguous slice of SSD frames with its own buffer
//! table, free list and heap array. (The paper shares one hash table across
//! partitions; we route each page id to a fixed partition with a
//! multiplicative hash, which preserves the single-home invariant with a
//! per-partition table — see DESIGN.md.)

use turbopool_iosim::{PageId, PidMap};

use crate::heaps::{DualHeap, Key, Side};

/// One SSD buffer-table record (Figure 4): the cached page's id, its dirty
/// bit and its last two access stamps. The record's index within the
/// partition identifies its SSD frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    pub pid: PageId,
    pub dirty: bool,
    /// Most recent access stamp.
    pub last: u64,
    /// Penultimate access stamp (0 = none).
    pub prev: u64,
}

impl Record {
    /// LRU-2 replacement key: oldest penultimate access evicts first.
    pub fn kdist(&self) -> Key {
        (self.prev, self.last)
    }
}

/// Partition-local state. The manager wraps each partition in a latch.
#[derive(Debug)]
pub struct Partition {
    /// First global SSD frame number owned by this partition.
    base_frame: u64,
    records: Vec<Option<Record>>,
    map: PidMap<usize>,
    free: Vec<usize>,
    heap: DualHeap,
}

impl Partition {
    pub fn new(base_frame: u64, frames: usize) -> Self {
        Partition {
            base_frame,
            records: vec![None; frames],
            map: PidMap::with_capacity_and_hasher(frames, Default::default()),
            free: (0..frames).rev().collect(),
            heap: DualHeap::new(frames),
        }
    }

    /// Unoccupied frames.
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// Global SSD frame number of record `idx`.
    pub fn frame_no(&self, idx: usize) -> u64 {
        self.base_frame + idx as u64
    }

    /// Record index holding `pid`, if cached.
    pub fn lookup(&self, pid: PageId) -> Option<usize> {
        self.map.get(&pid).copied()
    }

    /// The record at `idx` (must be occupied).
    #[expect(
        clippy::expect_used,
        reason = "documented contract: idx comes from lookup/insert and is occupied"
    )]
    pub fn record(&self, idx: usize) -> &Record {
        self.records[idx].as_ref().expect("occupied record")
    }

    /// The record at `idx`, mutably (must be occupied).
    #[expect(
        clippy::expect_used,
        reason = "documented contract: idx comes from lookup/insert and is occupied"
    )]
    fn record_mut(&mut self, idx: usize) -> &mut Record {
        self.records[idx].as_mut().expect("occupied record")
    }

    /// Record an SSD access to `idx` at `stamp`, repositioning it in its
    /// heap.
    pub fn touch(&mut self, idx: usize, stamp: u64) {
        let r = self.record_mut(idx);
        r.prev = r.last;
        r.last = stamp;
        let key = r.kdist();
        self.heap.update(idx, key);
    }

    /// Cache `pid` in a free frame; returns the record index, or `None`
    /// when the partition is full (caller must evict first).
    pub fn insert(&mut self, pid: PageId, dirty: bool, stamp: u64) -> Option<usize> {
        debug_assert!(!self.map.contains_key(&pid), "page {pid} already cached");
        let idx = self.free.pop()?;
        let rec = Record {
            pid,
            dirty,
            last: stamp,
            prev: 0,
        };
        self.records[idx] = Some(rec);
        self.map.insert(pid, idx);
        self.heap.insert(
            if dirty { Side::Dirty } else { Side::Clean },
            rec.kdist(),
            idx,
        );
        Some(idx)
    }

    /// Cache `pid` in a *specific* frame (warm-restart import). Returns
    /// false if that frame is not free. Only clean pages are importable.
    pub fn insert_at(&mut self, idx: usize, pid: PageId, stamp: u64) -> bool {
        if self.records[idx].is_some() || self.map.contains_key(&pid) {
            return false;
        }
        let Some(pos) = self.free.iter().position(|&f| f == idx) else {
            return false;
        };
        self.free.swap_remove(pos);
        let rec = Record {
            pid,
            dirty: false,
            last: stamp,
            prev: 0,
        };
        self.records[idx] = Some(rec);
        self.map.insert(pid, idx);
        self.heap.insert(Side::Clean, rec.kdist(), idx);
        true
    }

    /// Remove record `idx`, freeing its frame; returns the record.
    pub fn remove(&mut self, idx: usize) -> Record {
        let rec = self.detach(idx);
        self.free.push(idx);
        rec
    }

    /// Remove record `idx` from the table and heaps *without* freeing its
    /// frame: the frame stays reserved (invisible to `insert`) while the
    /// caller finishes deferred I/O against its bytes outside the latch,
    /// then hands it back with [`Self::release`].
    pub fn detach(&mut self, idx: usize) -> Record {
        #[expect(
            clippy::expect_used,
            reason = "documented contract: idx comes from lookup/insert and is occupied"
        )]
        let rec = self.records[idx].take().expect("occupied record");
        self.map.remove(&rec.pid);
        self.heap.remove(idx);
        rec
    }

    /// Return a frame detached by [`Self::detach`] to the free list.
    pub fn release(&mut self, idx: usize) {
        debug_assert!(self.records[idx].is_none(), "release of occupied frame");
        self.free.push(idx);
    }

    /// The LRU-2 replacement victim among *clean* pages.
    pub fn peek_clean_victim(&self) -> Option<(Key, usize)> {
        self.heap.peek_min(Side::Clean)
    }

    /// The oldest *dirty* page — the next one the lazy cleaner flushes.
    pub fn peek_dirty_oldest(&self) -> Option<(Key, usize)> {
        self.heap.peek_min(Side::Dirty)
    }

    /// Mark a dirty record clean (the cleaner flushed it); it moves to the
    /// clean heap and becomes a replacement candidate.
    pub fn set_clean(&mut self, idx: usize) {
        let r = self.record_mut(idx);
        if r.dirty {
            r.dirty = false;
            self.heap.change_side(idx, Side::Clean);
        }
    }

    /// Iterate over occupied records as `(idx, &Record)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Record)> {
        self.records
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|rec| (i, rec)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove() {
        let mut p = Partition::new(100, 4);
        let idx = p.insert(PageId(7), false, 1).unwrap();
        assert_eq!(p.frame_no(idx), 100 + idx as u64);
        assert_eq!(p.lookup(PageId(7)), Some(idx));
        assert_eq!(p.free_frames(), 3);
        let rec = p.remove(idx);
        assert_eq!(rec.pid, PageId(7));
        assert_eq!(p.lookup(PageId(7)), None);
        assert_eq!(p.free_frames(), 4);
    }

    #[test]
    fn full_partition_rejects_insert() {
        let mut p = Partition::new(0, 2);
        assert!(p.insert(PageId(1), false, 1).is_some());
        assert!(p.insert(PageId(2), false, 2).is_some());
        assert!(p.insert(PageId(3), false, 3).is_none());
    }

    #[test]
    fn clean_victim_is_lru2_minimum() {
        let mut p = Partition::new(0, 4);
        let a = p.insert(PageId(1), false, 1).unwrap();
        let b = p.insert(PageId(2), false, 2).unwrap();
        // Page 1 re-accessed twice: hot.
        p.touch(a, 3);
        p.touch(a, 4);
        let (_, victim) = p.peek_clean_victim().unwrap();
        assert_eq!(victim, b, "once-touched page is the victim");
    }

    #[test]
    fn dirty_pages_live_in_the_dirty_heap() {
        let mut p = Partition::new(0, 4);
        let d = p.insert(PageId(1), true, 1).unwrap();
        let _c = p.insert(PageId(2), false, 2).unwrap();
        assert_eq!(p.peek_dirty_oldest().unwrap().1, d);
        // Cleaning moves it to the clean side, once.
        p.set_clean(d);
        p.set_clean(d);
        assert!(!p.record(d).dirty);
        assert!(p.peek_dirty_oldest().is_none());
        assert_eq!(p.peek_clean_victim().unwrap().1, d);
    }

    #[test]
    fn detach_reserves_frame_until_release() {
        let mut p = Partition::new(0, 2);
        let a = p.insert(PageId(1), true, 1).unwrap();
        let _b = p.insert(PageId(2), false, 2).unwrap();
        let rec = p.detach(a);
        assert_eq!(rec.pid, PageId(1));
        assert!(p.peek_dirty_oldest().is_none());
        assert_eq!(p.lookup(PageId(1)), None);
        // Frame still reserved: the partition looks full to insert.
        assert_eq!(p.free_frames(), 0);
        assert!(p.insert(PageId(3), false, 3).is_none());
        p.release(a);
        assert_eq!(p.insert(PageId(3), false, 3), Some(a));
    }

    #[test]
    fn insert_at_claims_specific_frame() {
        let mut p = Partition::new(100, 4);
        assert!(p.insert_at(2, PageId(9), 1));
        assert_eq!(p.lookup(PageId(9)), Some(2));
        assert_eq!(p.frame_no(2), 102);
        assert!(!p.insert_at(2, PageId(10), 2), "occupied frame");
        assert!(!p.insert_at(3, PageId(9), 2), "page already cached");
        assert_eq!(p.free_frames(), 3);
    }

    #[test]
    fn iter_sees_occupied_only() {
        let mut p = Partition::new(0, 4);
        let a = p.insert(PageId(1), false, 1).unwrap();
        p.insert(PageId(2), true, 2).unwrap();
        p.remove(a);
        let pids: Vec<u64> = p.iter().map(|(_, r)| r.pid.0).collect();
        assert_eq!(pids, vec![2]);
    }
}
