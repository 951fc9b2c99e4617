//! One SSD partition: buffer table, page table, free list, and the clean
//! and dirty orders (Figure 4).
//!
//! To increase concurrency the SSD buffer pool is partitioned (§3.3.4);
//! each partition owns a contiguous slice of SSD frames with its own buffer
//! table, free list and orders. (The paper shares one hash table across
//! partitions; we route each page id to a fixed partition with a
//! multiplicative hash, which preserves the single-home invariant with a
//! per-partition table indexed by page number — see DESIGN.md.)
//!
//! Figure 4 keeps the two orders as one heap array: clean pages by LRU-2
//! key, whose minimum is the replacement victim, and dirty pages the same
//! way, whose minimum is the next page the lazy cleaner flushes. Here they
//! are two lazy victim heaps, the pool's [`VictimHeap`]. A record is filed
//! at its true key when it enters an order; a touch only grows that key
//! (`(prev, last)` becomes `(last, stamp)`), so a touch files nothing, and
//! reading a minimum re-keys a stale front until it is current.
//!
//! With a [`Heat`], the key is the page's extent temperature instead (TAC),
//! which a miss only grows. A logically invalid record keeps its frame but
//! is in no order, until a refresh files it again at its current key.

use turbopool_bufpool::VictimHeap;
use turbopool_iosim::{Locality, PageId, PageTable, Time};

/// Ordering key: the LRU-2 distance of a page, `(penultimate, last)`
/// access stamps, or its extent's temperature as `(heat, 0)`. Stamps are
/// unique, so no two LRU-2 records share a key.
pub type Key = (u64, u64);

/// One SSD buffer-table record (Figure 4): the cached page's id, its dirty
/// bit, its validity and its last two access stamps. The record's index
/// within the partition identifies its SSD frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    pub pid: PageId,
    pub dirty: bool,
    /// False once the copy is logically invalidated (§2.5).
    pub valid: bool,
    /// Its write completes then; before it a read may not use the copy, and
    /// dirtying the page cancels it. 0 for a copy served at once.
    pub valid_at: Time,
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

    /// May a read at `now` use this copy? It must be valid and written.
    pub fn usable(&self, now: Time) -> bool {
        self.valid && now >= self.valid_at
    }
}

/// Extent temperatures (TAC, §2.5): a pool miss adds to its page's extent
/// the time an SSD read saves over the disk read of its class.
#[derive(Debug)]
pub struct Heat {
    extent_pages: u64,
    /// Saved time per miss, random and sequential.
    saved: [u64; 2],
    /// Extent number → temperature (ns); an extent never missed is 0.
    temps: PageTable<u64, u64>,
}

impl Heat {
    /// Temperatures over `db_pages` pages in extents of `extent_pages`, a
    /// random miss saving `random` ns and a sequential one `sequential`.
    pub fn new(extent_pages: u64, db_pages: u64, random: u64, sequential: u64) -> Self {
        Heat {
            extent_pages,
            saved: [random, sequential],
            temps: PageTable::new(db_pages.div_ceil(extent_pages), 0),
        }
    }

    /// The temperature of `pid`'s extent.
    pub fn temp(&self, pid: PageId) -> u64 {
        self.temps.get(pid.0 / self.extent_pages).unwrap_or(0)
    }
}

/// The true key of occupied record `idx`.
#[expect(clippy::expect_used, reason = "an order files occupied records only")]
fn key(records: &[Option<Record>], heat: Option<&Heat>, idx: usize) -> Key {
    let r = records[idx].as_ref().expect("occupied record");
    match heat {
        Some(h) => (h.temp(r.pid), 0),
        None => r.kdist(),
    }
}

/// Partition-local state. The manager wraps each partition in a latch.
#[derive(Debug)]
pub struct Partition {
    /// First global SSD frame number owned by this partition.
    base_frame: u64,
    records: Vec<Option<Record>>,
    /// Page number → record index, over the whole database.
    map: PageTable<u32>,
    free: Vec<usize>,
    /// The clean (`[0]`) and dirty (`[1]`) orders of the valid records, by
    /// the dirty bit.
    orders: [VictimHeap<Key>; 2],
    /// The extent temperatures that key the orders, if not LRU-2.
    heat: Option<Heat>,
}

impl Partition {
    /// A partition of `frames` frames from `base_frame` on, for a
    /// database of `db_pages` pages, ordered by LRU-2 or by `heat`.
    pub fn new(base_frame: u64, frames: usize, db_pages: u64, heat: Option<Heat>) -> Self {
        Partition {
            base_frame,
            records: vec![None; frames],
            map: PageTable::new(db_pages, u32::MAX),
            free: (0..frames).rev().collect(),
            orders: [VictimHeap::new(frames), VictimHeap::new(frames)],
            heat,
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
        self.map.get(pid).map(|idx| idx as usize)
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

    /// Record an SSD access to `idx` at `stamp`. Only the stamps change:
    /// the key grows, so the entry may stay filed at the older key.
    pub fn touch(&mut self, idx: usize, stamp: u64) {
        let r = self.record_mut(idx);
        debug_assert!(stamp > r.last, "stamps rise under the partition latch");
        r.prev = r.last;
        r.last = stamp;
    }

    /// Record a memory-pool miss of `pid` read as `class`: heat its extent.
    /// Nothing in an LRU-2 partition.
    pub fn heat(&mut self, pid: PageId, class: Locality) {
        if let Some(h) = &mut self.heat {
            let saved = h.saved[usize::from(class == Locality::Sequential)];
            let extent = pid.0 / h.extent_pages;
            let temp = h.temps.get(extent).unwrap_or(0) + saved;
            h.temps.insert(extent, temp);
        }
    }

    /// The temperature of `pid`'s extent; 0 in an LRU-2 partition.
    pub fn temp(&self, pid: PageId) -> u64 {
        self.heat.as_ref().map_or(0, |h| h.temp(pid))
    }

    /// Forget every temperature (a quarantine's sweep).
    pub fn cool(&mut self) {
        if let Some(h) = &mut self.heat {
            h.temps.clear();
        }
    }

    /// File valid record `idx` in its order at its true key.
    fn file(&mut self, idx: usize) {
        let k = key(&self.records, self.heat.as_ref(), idx);
        let dirty = self.record(idx).dirty;
        self.orders[usize::from(dirty)].file(idx, k);
    }

    /// Put a new record for `pid` in free frame `idx` and file it.
    fn occupy(&mut self, idx: usize, pid: PageId, dirty: bool, stamp: u64) {
        self.records[idx] = Some(Record {
            pid,
            dirty,
            valid: true,
            valid_at: 0,
            last: stamp,
            prev: 0,
        });
        self.map.insert(pid, idx as u32);
        self.file(idx);
    }

    /// Cache `pid` in a free frame; returns the record index, or `None`
    /// when the partition is full (caller must evict first).
    pub fn insert(&mut self, pid: PageId, dirty: bool, stamp: u64) -> Option<usize> {
        debug_assert!(!self.map.contains_key(pid), "page {pid} already cached");
        let idx = self.free.pop()?;
        self.occupy(idx, pid, dirty, stamp);
        Some(idx)
    }

    /// Cache `pid` in a *specific* frame (warm-restart import). Returns
    /// false if that frame is not free. Only clean pages are importable.
    pub fn insert_at(&mut self, idx: usize, pid: PageId, stamp: u64) -> bool {
        if self.records[idx].is_some() || self.map.contains_key(pid) {
            return false;
        }
        let Some(pos) = self.free.iter().position(|&f| f == idx) else {
            return false;
        };
        self.free.swap_remove(pos);
        self.occupy(idx, pid, false, stamp);
        true
    }

    /// Remove record `idx`, freeing its frame; returns the record.
    pub fn remove(&mut self, idx: usize) -> Record {
        #[expect(
            clippy::expect_used,
            reason = "documented contract: idx comes from lookup/insert and is occupied"
        )]
        let rec = self.records[idx].take().expect("occupied record");
        self.map.remove(rec.pid);
        self.orders[usize::from(rec.dirty)].unfile(idx);
        self.free.push(idx);
        rec
    }

    /// Logically invalidate record `idx` (§2.5): it keeps its frame but
    /// leaves its order, so it is never a victim.
    pub fn invalidate(&mut self, idx: usize) {
        let dirty = self.record(idx).dirty;
        self.record_mut(idx).valid = false;
        self.orders[usize::from(dirty)].unfile(idx);
    }

    /// Record `idx`'s copy was (re)written, the write completing at
    /// `valid_at`: it is valid from then on, and an invalid record is filed
    /// again at its current key. True if it was invalid.
    pub fn validate(&mut self, idx: usize, valid_at: Time) -> bool {
        let r = self.record_mut(idx);
        let was_invalid = !std::mem::replace(&mut r.valid, true);
        r.valid_at = valid_at;
        if was_invalid {
            self.file(idx);
        }
        was_invalid
    }

    /// The replacement victim among *clean* valid pages: the LRU-2 minimum,
    /// or the page of the coldest extent.
    pub fn peek_clean_victim(&mut self) -> Option<(Key, usize)> {
        let (records, heat) = (&self.records, self.heat.as_ref());
        self.orders[0].peek(|idx| key(records, heat, idx))
    }

    /// The oldest *dirty* page — the next one the lazy cleaner flushes.
    pub fn peek_dirty_oldest(&mut self) -> Option<(Key, usize)> {
        let (records, heat) = (&self.records, self.heat.as_ref());
        self.orders[1].peek(|idx| key(records, heat, idx))
    }

    /// Mark a dirty record clean (the cleaner flushed it); it is re-filed
    /// among the clean pages and becomes a replacement candidate. True if
    /// it was dirty.
    pub fn set_clean(&mut self, idx: usize) -> bool {
        let was_dirty = std::mem::take(&mut self.record_mut(idx).dirty);
        if was_dirty {
            self.orders[1].unfile(idx);
            self.file(idx);
        }
        was_dirty
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

    /// Database size of the unit tests: above every page id they use.
    const PAGES: u64 = 64;
    use turbopool_iosim::rng::{Rng, SeedableRng, SmallRng};

    #[test]
    fn insert_lookup_remove() {
        let mut p = Partition::new(100, 4, PAGES, None);
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
        let mut p = Partition::new(0, 2, PAGES, None);
        assert!(p.insert(PageId(1), false, 1).is_some());
        assert!(p.insert(PageId(2), false, 2).is_some());
        assert!(p.insert(PageId(3), false, 3).is_none());
    }

    #[test]
    fn clean_victim_is_lru2_minimum() {
        let mut p = Partition::new(0, 4, PAGES, None);
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
        let mut p = Partition::new(0, 4, PAGES, None);
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
    fn insert_at_claims_specific_frame() {
        let mut p = Partition::new(100, 4, PAGES, None);
        assert!(p.insert_at(2, PageId(9), 1));
        assert_eq!(p.lookup(PageId(9)), Some(2));
        assert_eq!(p.frame_no(2), 102);
        assert!(!p.insert_at(2, PageId(10), 2), "occupied frame");
        assert!(!p.insert_at(3, PageId(9), 2), "page already cached");
        assert_eq!(p.free_frames(), 3);
    }

    #[test]
    fn iter_sees_occupied_only() {
        let mut p = Partition::new(0, 4, PAGES, None);
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
            let mut p = Partition::new(0, 4, PAGES, None);
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

    /// Extent width of the heat-keyed model cases.
    const EXTENT: u64 = 4;

    /// The true key of a reference record: its LRU-2 distance, or its
    /// extent's temperature when the case keeps `temps`.
    fn model_key(r: &Record, temps: Option<&[u64]>) -> Key {
        match temps {
            Some(t) => (t[(r.pid.0 / EXTENT) as usize], 0),
            None => r.kdist(),
        }
    }

    /// The minimum `(key, idx)` among the reference's valid records on one
    /// side, found by scanning.
    fn scan_min(
        model: &[Option<Record>],
        temps: Option<&[u64]>,
        dirty: bool,
    ) -> Option<(Key, usize)> {
        model
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                r.filter(|r| r.valid && r.dirty == dirty)
                    .map(|r| (model_key(&r, temps), i))
            })
            .min()
    }

    /// A fresh reference record, as `occupy` writes it.
    fn fresh(pid: PageId, dirty: bool, stamp: u64) -> Record {
        Record {
            pid,
            dirty,
            valid: true,
            valid_at: 0,
            last: stamp,
            prev: 0,
        }
    }

    /// Model check: seeded schedules of every table operation against a
    /// reference that keeps the records in a plain `Vec` and finds each
    /// side's minimum by scanning. Peeks are ops of their own, so entries
    /// go stale by several touches (or heatings) before a peek re-files
    /// them, and each case ends by draining both sides in order. The first
    /// 64 cases key by LRU-2, the rest by extent temperature. Logical
    /// invalidation, refresh and the cancel of a pending copy are ops too:
    /// an invalid record is never a victim, and a refreshed one is filed
    /// again at its current key.
    #[test]
    fn orders_match_a_scanning_model() {
        const FRAMES: usize = 12;
        for case in 0u64..96 {
            let mut rng = SmallRng::seed_from_u64(0x5D7A_B1E5 ^ case);
            let heated = case >= 64;
            // A random miss saves 7 ns, a sequential one nothing.
            let heat = heated.then(|| Heat::new(EXTENT, PAGES, 7, 0));
            let mut p = Partition::new(0, FRAMES, PAGES, heat);
            let mut temps = heated.then(|| vec![0u64; PAGES.div_ceil(EXTENT) as usize]);
            let mut model: Vec<Option<Record>> = vec![None; FRAMES];
            let mut stamp = 0u64;
            for _ in 0..rng.gen_range(1usize..300) {
                stamp += 1;
                let pid = PageId(rng.gen_range(0u64..24));
                let idx = rng.gen_range(0usize..FRAMES);
                let held = model[idx].is_some();
                let valid = model[idx].is_some_and(|r| r.valid);
                let pending = model[idx].is_some_and(|r| r.valid && r.valid_at > stamp);
                match rng.gen_range(0u8..14) {
                    0 | 1 if p.lookup(pid).is_none() => {
                        let dirty = rng.gen_bool(0.4);
                        match p.insert(pid, dirty, stamp) {
                            Some(i) => {
                                assert!(model[i].is_none());
                                model[i] = Some(fresh(pid, dirty, stamp));
                            }
                            None => assert_eq!(p.free_frames(), 0),
                        }
                    }
                    2 => {
                        let want = !held && model.iter().flatten().all(|r| r.pid != pid);
                        assert_eq!(p.insert_at(idx, pid, stamp), want);
                        if want {
                            model[idx] = Some(fresh(pid, false, stamp));
                        }
                    }
                    3..=5 if held => {
                        p.touch(idx, stamp);
                        let r = model[idx].as_mut().unwrap();
                        (r.prev, r.last) = (r.last, stamp);
                    }
                    6 | 7 if held => assert_eq!(Some(p.remove(idx)), model[idx].take()),
                    8 if valid => {
                        p.set_clean(idx);
                        model[idx].as_mut().unwrap().dirty = false;
                    }
                    9 => {
                        let t = temps.as_deref();
                        assert_eq!(p.peek_clean_victim(), scan_min(&model, t, false));
                        assert_eq!(p.peek_dirty_oldest(), scan_min(&model, t, true));
                    }
                    // Logical invalidation: the frame stays occupied.
                    10 if valid => {
                        p.invalidate(idx);
                        model[idx].as_mut().unwrap().valid = false;
                    }
                    // Refresh: rewritten, valid once the write completes.
                    11 if held => {
                        let at = stamp + rng.gen_range(0u64..8);
                        let r = model[idx].as_mut().unwrap();
                        assert_eq!(p.validate(idx, at), !r.valid);
                        (r.valid, r.valid_at) = (true, at);
                    }
                    // Cancel: a copy dirtied before its write completes goes.
                    12 if pending => {
                        assert!(!p.record(idx).usable(stamp));
                        assert_eq!(Some(p.remove(idx)), model[idx].take());
                    }
                    13 => {
                        let random = rng.gen_bool(0.7);
                        let class = [Locality::Sequential, Locality::Random][usize::from(random)];
                        p.heat(pid, class);
                        if let Some(t) = &mut temps {
                            t[(pid.0 / EXTENT) as usize] += if random { 7 } else { 0 };
                        }
                        assert_eq!(
                            p.temp(pid),
                            temps.as_ref().map_or(0, |t| t[(pid.0 / EXTENT) as usize])
                        );
                    }
                    _ => {}
                }
                let held = model.iter().flatten().count();
                assert_eq!(p.free_frames(), FRAMES - held);
                for (i, r) in model.iter().enumerate() {
                    if let Some(r) = r {
                        assert_eq!((p.lookup(r.pid), p.record(i)), (Some(i), r));
                        assert_eq!(p.record(i).usable(stamp), r.valid && stamp >= r.valid_at);
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
                    assert_eq!(
                        got,
                        scan_min(&model, temps.as_deref(), dirty),
                        "case {case}"
                    );
                    let Some((_, i)) = got else { break };
                    assert_eq!(Some(p.remove(i)), model[i].take());
                }
            }
            // What is left is invalid: in no order, never a victim.
            assert!(model.iter().flatten().all(|r| !r.valid), "case {case}");
        }
    }
}
