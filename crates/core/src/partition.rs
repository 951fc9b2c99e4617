//! One SSD partition: buffer table, hash table, free list, and the clean
//! and dirty orders (Figure 4).
//!
//! To increase concurrency the SSD buffer pool is partitioned (§3.3.4);
//! each partition owns a contiguous slice of SSD frames with its own buffer
//! table, free list and orders. (The paper shares one hash table across
//! partitions; we route each page id to a fixed partition with a
//! multiplicative hash, which preserves the single-home invariant with a
//! per-partition table — see DESIGN.md.)
//!
//! Figure 4 keeps the two orders as one heap array: clean pages by LRU-2
//! key, whose minimum is the replacement victim, and dirty pages the same
//! way, whose minimum is the next page the lazy cleaner flushes. Here they
//! are two ordered sets filed lazily. A record is filed at its true key
//! when it enters a set; a touch only grows that key (`(prev, last)`
//! becomes `(last, stamp)`), so a touch files nothing and an entry's filed
//! key never exceeds its true key. Reading a minimum re-files a stale front
//! until the front is current, and a current front is the true minimum.

use std::collections::BTreeSet;

use turbopool_iosim::{PageId, PidMap};

/// Ordering key: the LRU-2 distance of a page, `(penultimate, last)`
/// access stamps. Stamps are unique, so no two records share a key.
pub type Key = (u64, u64);

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
    /// Clean records as `(filed key, idx)`.
    clean: BTreeSet<(Key, usize)>,
    /// Dirty records as `(filed key, idx)`.
    dirty: BTreeSet<(Key, usize)>,
    /// `filed[idx]`: the key record `idx` is filed under; ≤ its true key.
    filed: Vec<Key>,
}

impl Partition {
    pub fn new(base_frame: u64, frames: usize) -> Self {
        Partition {
            base_frame,
            records: vec![None; frames],
            map: PidMap::with_capacity_and_hasher(frames, Default::default()),
            free: (0..frames).rev().collect(),
            clean: BTreeSet::new(),
            dirty: BTreeSet::new(),
            filed: vec![(0, 0); frames],
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

    /// The set a clean (`false`) or dirty (`true`) record is filed in.
    fn side(&mut self, dirty: bool) -> &mut BTreeSet<(Key, usize)> {
        if dirty {
            &mut self.dirty
        } else {
            &mut self.clean
        }
    }

    /// File record `idx` at its true key.
    fn file(&mut self, idx: usize) {
        let r = *self.record(idx);
        self.filed[idx] = r.kdist();
        self.side(r.dirty).insert((r.kdist(), idx));
    }

    /// Take record `idx`'s entry out of its set.
    fn unfile(&mut self, idx: usize, dirty: bool) {
        let entry = (self.filed[idx], idx);
        self.side(dirty).remove(&entry);
    }

    /// Record an SSD access to `idx` at `stamp`. Only the stamps change:
    /// the key grows, so the entry may stay filed at the older key.
    pub fn touch(&mut self, idx: usize, stamp: u64) {
        let r = self.record_mut(idx);
        debug_assert!(stamp > r.last, "stamps rise under the partition latch");
        r.prev = r.last;
        r.last = stamp;
    }

    /// Cache `pid` in a free frame; returns the record index, or `None`
    /// when the partition is full (caller must evict first).
    pub fn insert(&mut self, pid: PageId, dirty: bool, stamp: u64) -> Option<usize> {
        debug_assert!(!self.map.contains_key(&pid), "page {pid} already cached");
        let idx = self.free.pop()?;
        self.records[idx] = Some(Record {
            pid,
            dirty,
            last: stamp,
            prev: 0,
        });
        self.map.insert(pid, idx);
        self.file(idx);
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
        self.records[idx] = Some(Record {
            pid,
            dirty: false,
            last: stamp,
            prev: 0,
        });
        self.map.insert(pid, idx);
        self.file(idx);
        true
    }

    /// Remove record `idx`, freeing its frame; returns the record.
    pub fn remove(&mut self, idx: usize) -> Record {
        let rec = self.detach(idx);
        self.free.push(idx);
        rec
    }

    /// Remove record `idx` from the table and orders *without* freeing its
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
        self.unfile(idx, rec.dirty);
        rec
    }

    /// Return a frame detached by [`Self::detach`] to the free list.
    pub fn release(&mut self, idx: usize) {
        debug_assert!(self.records[idx].is_none(), "release of occupied frame");
        self.free.push(idx);
    }

    /// The minimum `(key, idx)` of one side. A front filed under an older
    /// key than its record's is re-filed at the true key until the front
    /// is current: every other entry's true key is ≥ its filed key ≥ the
    /// front's, so a current front is the true minimum.
    fn peek_min(&mut self, dirty: bool) -> Option<(Key, usize)> {
        loop {
            let &(filed, idx) = self.side(dirty).first()?;
            let key = self.record(idx).kdist();
            if filed == key {
                return Some((key, idx));
            }
            let set = self.side(dirty);
            set.pop_first();
            set.insert((key, idx));
            self.filed[idx] = key;
        }
    }

    /// The LRU-2 replacement victim among *clean* pages.
    pub fn peek_clean_victim(&mut self) -> Option<(Key, usize)> {
        self.peek_min(false)
    }

    /// The oldest *dirty* page — the next one the lazy cleaner flushes.
    pub fn peek_dirty_oldest(&mut self) -> Option<(Key, usize)> {
        self.peek_min(true)
    }

    /// Mark a dirty record clean (the cleaner flushed it); it is re-filed
    /// among the clean pages and becomes a replacement candidate.
    pub fn set_clean(&mut self, idx: usize) {
        if self.record(idx).dirty {
            self.unfile(idx, true);
            self.record_mut(idx).dirty = false;
            self.file(idx);
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
    use turbopool_iosim::rng::{Rng, SeedableRng, SmallRng};

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

    #[test]
    fn lru2_evicts_the_older_penultimate_access_not_the_older_last() {
        // A: accesses 1, 4. B: accesses 2, 3. LRU-2 ranks by the
        // penultimate access and evicts A; plain LRU would evict B.
        for dirty in [false, true] {
            let mut p = Partition::new(0, 4);
            let a = p.insert(PageId(1), dirty, 1).unwrap();
            let b = p.insert(PageId(2), dirty, 2).unwrap();
            p.touch(b, 3);
            p.touch(a, 4);
            let want = Some(((1, 4), a));
            if dirty {
                assert_eq!(p.peek_dirty_oldest(), want);
            } else {
                assert_eq!(p.peek_clean_victim(), want);
            }
        }
    }

    /// The minimum `(key, idx)` among the reference's records on one side,
    /// found by scanning.
    fn scan_min(model: &[Option<Record>], dirty: bool) -> Option<(Key, usize)> {
        model
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.filter(|r| r.dirty == dirty).map(|r| (r.kdist(), i)))
            .min()
    }

    /// Model check: seeded schedules of every table operation against a
    /// reference that keeps the records in a plain `Vec` and finds each
    /// side's LRU-2 minimum by scanning. Peeks are ops of their own, so
    /// entries go stale by several touches before a peek re-files them,
    /// and each case ends by draining both sides in order.
    #[test]
    fn orders_match_a_scanning_model() {
        const FRAMES: usize = 12;
        for case in 0u64..64 {
            let mut rng = SmallRng::seed_from_u64(0x5D7A_B1E5 ^ case);
            let mut p = Partition::new(0, FRAMES);
            let mut model: Vec<Option<Record>> = vec![None; FRAMES];
            let mut detached: Vec<usize> = Vec::new();
            let mut stamp = 0u64;
            for _ in 0..rng.gen_range(1usize..300) {
                stamp += 1;
                let pid = PageId(rng.gen_range(0u64..24));
                let idx = rng.gen_range(0usize..FRAMES);
                let held = model[idx].is_some();
                match rng.gen_range(0u8..10) {
                    0 | 1 if p.lookup(pid).is_none() => {
                        let dirty = rng.gen_bool(0.4);
                        match p.insert(pid, dirty, stamp) {
                            Some(i) => {
                                assert!(model[i].is_none() && !detached.contains(&i));
                                model[i] = Some(Record {
                                    pid,
                                    dirty,
                                    last: stamp,
                                    prev: 0,
                                });
                            }
                            None => assert_eq!(p.free_frames(), 0),
                        }
                    }
                    2 => {
                        let free = !held && !detached.contains(&idx);
                        let want = free && model.iter().flatten().all(|r| r.pid != pid);
                        assert_eq!(p.insert_at(idx, pid, stamp), want);
                        if want {
                            model[idx] = Some(Record {
                                pid,
                                dirty: false,
                                last: stamp,
                                prev: 0,
                            });
                        }
                    }
                    3..=5 if held => {
                        p.touch(idx, stamp);
                        let r = model[idx].as_mut().unwrap();
                        (r.prev, r.last) = (r.last, stamp);
                    }
                    6 if held => assert_eq!(Some(p.remove(idx)), model[idx].take()),
                    7 if held => {
                        assert_eq!(Some(p.detach(idx)), model[idx].take());
                        detached.push(idx);
                    }
                    7 => {
                        if let Some(i) = detached.pop() {
                            p.release(i);
                        }
                    }
                    8 if held => {
                        p.set_clean(idx);
                        model[idx].as_mut().unwrap().dirty = false;
                    }
                    9 => {
                        assert_eq!(p.peek_clean_victim(), scan_min(&model, false));
                        assert_eq!(p.peek_dirty_oldest(), scan_min(&model, true));
                    }
                    _ => {}
                }
                let held = model.iter().flatten().count();
                assert_eq!(p.free_frames(), FRAMES - held - detached.len());
                for (i, r) in model.iter().enumerate() {
                    if let Some(r) = r {
                        assert_eq!((p.lookup(r.pid), p.record(i)), (Some(i), r));
                    }
                }
            }
            for dirty in [false, true] {
                loop {
                    let got = if dirty {
                        p.peek_dirty_oldest()
                    } else {
                        p.peek_clean_victim()
                    };
                    assert_eq!(got, scan_min(&model, dirty), "case {case}");
                    let Some((_, i)) = got else { break };
                    assert_eq!(Some(p.remove(i)), model[i].take());
                }
            }
        }
    }
}
