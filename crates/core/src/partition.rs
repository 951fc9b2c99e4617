//! One SSD partition: buffer table, free list, and the clean and dirty
//! orders (Figure 4).
//!
//! To increase concurrency the SSD buffer pool is partitioned (§3.3.4);
//! each partition owns a contiguous slice of SSD frames with its own
//! records, free list and orders. All partitions share one page map, as
//! the paper's share one hash table.
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

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Arc;

use turbopool_bufpool::VictimHeap;
use turbopool_iosim::{Locality, PageId, PageTable, Time};

/// Ordering key: the LRU-2 distance of a page, `(penultimate, last)`
/// access stamps, or its extent's temperature as `(heat, 0)`. Stamps are
/// unique, so no two LRU-2 records share a key.
pub type Key = (u64, u64);

/// The page map every partition shares: page number → global SSD frame
/// number, or `VACANT`.
pub type PageMap = Arc<[AtomicU32]>;
const VACANT: u32 = u32::MAX;

/// A page map of `db_pages` vacant slots.
pub fn page_map(db_pages: u64) -> PageMap {
    (0..db_pages).map(|_| AtomicU32::new(VACANT)).collect()
}

/// One SSD buffer-table record (Figure 4): the cached page's id, its dirty
/// bit and its validity; its index identifies its SSD frame. The rest of
/// a frame's state is a column of the partition's order: 32 bytes a frame
/// under LRU-2, 24 under extent heat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    pub pid: PageId,
    pub dirty: bool,
    /// False once the copy is logically invalidated (§2.5).
    pub valid: bool,
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

/// A replacement order: its column of per-frame state, and the clean
/// (`[0]`) and dirty (`[1]`) orders of the valid records.
#[derive(Debug)]
enum Order {
    /// LRU-2: each frame's access stamps, which are its key.
    Lru2(Vec<Key>, [VictimHeap<Key>; 2]),
    /// Extent heat, keyed by temperature alone: when each frame's write
    /// completes. Before it a read may not use the copy, and dirtying the
    /// page cancels it; 0 for a copy served at once.
    Heat(Vec<Time>, [VictimHeap<u64>; 2], Heat),
}

/// An empty clean and dirty order over `frames` slots.
fn sides<K: Ord + Copy + Default>(frames: usize) -> [VictimHeap<K>; 2] {
    [VictimHeap::new(frames), VictimHeap::new(frames)]
}

/// Partition-local state. The manager wraps each partition in a latch.
#[derive(Debug)]
pub struct Partition {
    /// The global SSD frame numbers owned: record `idx` is in frame
    /// `frames.start + idx`.
    frames: Range<u32>,
    /// A page's slot is only read or written under the latch of the one
    /// partition the page routes to; that latch orders the accesses, so
    /// they are `Relaxed`.
    map: PageMap,
    records: Vec<Option<Record>>,
    free: Vec<usize>,
    order: Order,
}

impl Partition {
    /// A partition of `frames` frames from `base_frame` on, over the shared
    /// page `map`, ordered by LRU-2 or by `heat`.
    pub fn new(base_frame: u64, frames: usize, map: PageMap, heat: Option<Heat>) -> Self {
        let end = base_frame + frames as u64;
        assert!(end < u64::from(VACANT), "frame numbers fit the page map");
        Partition {
            frames: base_frame as u32..end as u32,
            map,
            records: vec![None; frames],
            free: (0..frames).rev().collect(),
            order: match heat {
                None => Order::Lru2(vec![(0, 0); frames], sides(frames)),
                Some(h) => Order::Heat(vec![0; frames], sides(frames), h),
            },
        }
    }

    /// Unoccupied frames.
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// Global SSD frame number of record `idx`.
    pub fn frame_no(&self, idx: usize) -> u64 {
        u64::from(self.frames.start) + idx as u64
    }

    /// `pid`'s slot in the page map: the frame caching it, in any partition.
    fn mapped(&self, pid: PageId) -> u32 {
        self.map
            .get(pid.0 as usize)
            .map_or(VACANT, |s| s.load(Relaxed))
    }

    /// Record index holding `pid`, if cached here: a slot another
    /// partition stored names a frame outside this one's.
    pub fn lookup(&self, pid: PageId) -> Option<usize> {
        let frame = self.mapped(pid);
        self.frames
            .contains(&frame)
            .then(|| (frame - self.frames.start) as usize)
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

    /// May a read at `now` use record `idx`'s copy? It must be valid and
    /// written (an LRU-2 copy is written before it is admitted).
    pub fn usable(&self, idx: usize, now: Time) -> bool {
        let written = match &self.order {
            Order::Heat(at, ..) => now >= at[idx],
            Order::Lru2(..) => true,
        };
        self.record(idx).valid && written
    }

    /// Record an SSD access to `idx` at `stamp`. Only the stamps change:
    /// the key grows, so the entry may stay filed at the older key.
    /// Nothing in a heat partition.
    pub fn touch(&mut self, idx: usize, stamp: u64) {
        if let Order::Lru2(stamps, _) = &mut self.order {
            let s = &mut stamps[idx];
            debug_assert!(stamp > s.1, "stamps rise under the partition latch");
            *s = (s.1, stamp);
        }
    }

    /// Record a memory-pool miss of `pid` read as `class`: heat its extent.
    /// Nothing in an LRU-2 partition.
    pub fn heat(&mut self, pid: PageId, class: Locality) {
        if let Order::Heat(.., h) = &mut self.order {
            let saved = h.saved[usize::from(class == Locality::Sequential)];
            let extent = pid.0 / h.extent_pages;
            let temp = h.temps.get(extent).unwrap_or(0) + saved;
            h.temps.insert(extent, temp);
        }
    }

    /// The temperature of `pid`'s extent; 0 in an LRU-2 partition.
    pub fn temp(&self, pid: PageId) -> u64 {
        match &self.order {
            Order::Heat(.., h) => h.temp(pid),
            Order::Lru2(..) => 0,
        }
    }

    /// Forget every temperature (a quarantine's sweep).
    pub fn cool(&mut self) {
        if let Order::Heat(.., h) = &mut self.order {
            h.temps.clear();
        }
    }

    /// File valid record `idx` in its order at its true key.
    fn file(&mut self, idx: usize) {
        let Record { pid, dirty, .. } = *self.record(idx);
        match &mut self.order {
            Order::Lru2(stamps, sides) => sides[usize::from(dirty)].file(idx, stamps[idx]),
            Order::Heat(_, sides, h) => sides[usize::from(dirty)].file(idx, h.temp(pid)),
        }
    }

    /// Take record `idx` out of the order of its side, `dirty`.
    fn unfile(&mut self, idx: usize, dirty: bool) {
        match &mut self.order {
            Order::Lru2(_, sides) => sides[usize::from(dirty)].unfile(idx),
            Order::Heat(_, sides, _) => sides[usize::from(dirty)].unfile(idx),
        }
    }

    /// Put a new record for `pid` in free frame `idx` and file it.
    fn occupy(&mut self, idx: usize, pid: PageId, dirty: bool, stamp: u64) {
        self.records[idx] = Some(Record {
            pid,
            dirty,
            valid: true,
        });
        self.map[pid.0 as usize].store(self.frames.start + idx as u32, Relaxed);
        match &mut self.order {
            Order::Lru2(stamps, _) => stamps[idx] = (0, stamp),
            Order::Heat(at, ..) => at[idx] = 0,
        }
        self.file(idx);
    }

    /// Cache `pid` in a free frame; returns the record index, or `None`
    /// when the partition is full (caller must evict first).
    pub fn insert(&mut self, pid: PageId, dirty: bool, stamp: u64) -> Option<usize> {
        debug_assert_eq!(self.mapped(pid), VACANT, "page {pid} already cached");
        let idx = self.free.pop()?;
        self.occupy(idx, pid, dirty, stamp);
        Some(idx)
    }

    /// Cache `pid` in a *specific* frame (warm-restart import). Returns
    /// false if that frame is not free or a partition caches `pid`. Only
    /// clean pages are importable.
    pub fn insert_at(&mut self, idx: usize, pid: PageId, stamp: u64) -> bool {
        if self.mapped(pid) != VACANT {
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
        let rec = *self.record(idx);
        self.records[idx] = None;
        self.map[rec.pid.0 as usize].store(VACANT, Relaxed);
        self.unfile(idx, rec.dirty);
        self.free.push(idx);
        rec
    }

    /// Logically invalidate record `idx` (§2.5): it keeps its frame but
    /// leaves its order, so it is never a victim.
    pub fn invalidate(&mut self, idx: usize) {
        let r = self.record_mut(idx);
        r.valid = false;
        let dirty = r.dirty;
        self.unfile(idx, dirty);
    }

    /// Record `idx`'s copy was (re)written, the write completing at
    /// `valid_at` (kept by a heat order only): it is valid from then on,
    /// and an invalid record is filed again at its current key. True if
    /// it was invalid.
    pub fn validate(&mut self, idx: usize, valid_at: Time) -> bool {
        let was_invalid = !std::mem::replace(&mut self.record_mut(idx).valid, true);
        if let Order::Heat(at, ..) = &mut self.order {
            at[idx] = valid_at;
        }
        if was_invalid {
            self.file(idx);
        }
        was_invalid
    }

    /// The minimum `(key, idx)` of side `dirty`.
    #[expect(clippy::expect_used, reason = "an order files occupied records only")]
    fn peek(&mut self, dirty: usize) -> Option<(Key, usize)> {
        let records = &self.records;
        match &mut self.order {
            Order::Lru2(stamps, sides) => sides[dirty].peek(|idx| stamps[idx]),
            Order::Heat(_, sides, h) => sides[dirty]
                .peek(|idx| h.temp(records[idx].expect("occupied record").pid))
                .map(|(temp, idx)| ((temp, 0), idx)),
        }
    }

    /// The replacement victim among *clean* valid pages: the LRU-2 minimum,
    /// or the page of the coldest extent.
    pub fn peek_clean_victim(&mut self) -> Option<(Key, usize)> {
        self.peek(0)
    }

    /// The oldest *dirty* page — the next one the lazy cleaner flushes.
    pub fn peek_dirty_oldest(&mut self) -> Option<(Key, usize)> {
        self.peek(1)
    }

    /// Mark a dirty record clean (the cleaner flushed it); it is re-filed
    /// among the clean pages and becomes a replacement candidate. True if
    /// it was dirty.
    pub fn set_clean(&mut self, idx: usize) -> bool {
        let was_dirty = std::mem::take(&mut self.record_mut(idx).dirty);
        if was_dirty {
            self.unfile(idx, true);
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

    /// An LRU-2 partition over a page map of its own.
    fn lru2(base_frame: u64, frames: usize) -> Partition {
        Partition::new(base_frame, frames, page_map(PAGES), None)
    }

    /// A frame's state: its record (an empty frame is a `None`, held in
    /// the dirty bit's niche) and its order's column, the two stamps of
    /// LRU-2 or the `valid_at` of extent heat.
    #[test]
    fn a_frame_costs_32_bytes_under_lru2_and_24_under_heat() {
        use std::mem::size_of;
        assert_eq!(size_of::<Option<Record>>() + size_of::<Key>(), 32);
        assert_eq!(size_of::<Option<Record>>() + size_of::<Time>(), 24);
    }

    #[test]
    fn insert_lookup_remove() {
        let mut p = lru2(100, 4);
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
        let mut p = lru2(0, 2);
        assert!(p.insert(PageId(1), false, 1).is_some());
        assert!(p.insert(PageId(2), false, 2).is_some());
        assert!(p.insert(PageId(3), false, 3).is_none());
    }

    #[test]
    fn clean_victim_is_lru2_minimum() {
        let mut p = lru2(0, 4);
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
        let mut p = lru2(0, 4);
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
        let mut p = lru2(100, 4);
        assert!(p.insert_at(2, PageId(9), 1));
        assert_eq!(p.lookup(PageId(9)), Some(2));
        assert_eq!(p.frame_no(2), 102);
        assert!(!p.insert_at(2, PageId(10), 2), "occupied frame");
        assert!(!p.insert_at(3, PageId(9), 2), "page already cached");
        assert_eq!(p.free_frames(), 3);
    }

    #[test]
    fn iter_sees_occupied_only() {
        let mut p = lru2(0, 4);
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
            let mut p = lru2(0, 4);
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

    /// A reference record: the partition's record, when its write
    /// completes (kept by a heat partition only) and the two access stamps
    /// an LRU-2 partition keys it by.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Model {
        rec: Record,
        valid_at: Time,
        last: u64,
        prev: u64,
    }

    /// The true key of a reference record: its LRU-2 distance, or its
    /// extent's temperature when the case keeps `temps`.
    fn model_key(r: &Model, temps: Option<&[u64]>) -> Key {
        match temps {
            Some(t) => (t[(r.rec.pid.0 / EXTENT) as usize], 0),
            None => (r.prev, r.last),
        }
    }

    /// The minimum `(key, idx)` among the reference's valid records on one
    /// side, found by scanning.
    fn scan_min(
        model: &[Option<Model>],
        temps: Option<&[u64]>,
        dirty: bool,
    ) -> Option<(Key, usize)> {
        model
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                r.filter(|r| r.rec.valid && r.rec.dirty == dirty)
                    .map(|r| (model_key(&r, temps), i))
            })
            .min()
    }

    /// A fresh reference record, as `occupy` writes it.
    fn fresh(pid: PageId, dirty: bool, stamp: u64) -> Model {
        Model {
            rec: Record {
                pid,
                dirty,
                valid: true,
            },
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
            let mut p = Partition::new(0, FRAMES, page_map(PAGES), heat);
            let mut temps = heated.then(|| vec![0u64; PAGES.div_ceil(EXTENT) as usize]);
            let mut model: Vec<Option<Model>> = vec![None; FRAMES];
            let mut stamp = 0u64;
            for _ in 0..rng.gen_range(1usize..300) {
                stamp += 1;
                let pid = PageId(rng.gen_range(0u64..24));
                let idx = rng.gen_range(0usize..FRAMES);
                let held = model[idx].is_some();
                let valid = model[idx].is_some_and(|r| r.rec.valid);
                let pending = model[idx].is_some_and(|r| r.rec.valid && r.valid_at > stamp);
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
                        let want = !held && model.iter().flatten().all(|r| r.rec.pid != pid);
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
                    6 | 7 if held => {
                        assert_eq!(Some(p.remove(idx)), model[idx].take().map(|r| r.rec));
                    }
                    8 if valid => {
                        p.set_clean(idx);
                        model[idx].as_mut().unwrap().rec.dirty = false;
                    }
                    9 => {
                        let t = temps.as_deref();
                        assert_eq!(p.peek_clean_victim(), scan_min(&model, t, false));
                        assert_eq!(p.peek_dirty_oldest(), scan_min(&model, t, true));
                    }
                    // Logical invalidation: the frame stays occupied.
                    10 if valid => {
                        p.invalidate(idx);
                        model[idx].as_mut().unwrap().rec.valid = false;
                    }
                    // Refresh: rewritten, valid once the write completes
                    // (LRU-2 serves every copy at once).
                    11 if held => {
                        let at = stamp + rng.gen_range(0u64..8);
                        let r = model[idx].as_mut().unwrap();
                        assert_eq!(p.validate(idx, at), !r.rec.valid);
                        (r.rec.valid, r.valid_at) = (true, if heated { at } else { 0 });
                    }
                    // Cancel: a copy dirtied before its write completes goes.
                    12 if pending => {
                        assert!(!p.usable(idx, stamp));
                        assert_eq!(Some(p.remove(idx)), model[idx].take().map(|r| r.rec));
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
                        assert_eq!((p.lookup(r.rec.pid), p.record(i)), (Some(i), &r.rec));
                        assert_eq!(p.usable(i, stamp), r.rec.valid && stamp >= r.valid_at);
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
                    assert_eq!(Some(p.remove(i)), model[i].take().map(|r| r.rec));
                }
            }
            // What is left is invalid: in no order, never a victim.
            assert!(model.iter().flatten().all(|r| !r.rec.valid), "case {case}");
        }
    }

    /// Several partitions over one page map, each owning its own frames:
    /// seeded inserts, imports, invalidations and removals at random
    /// partitions, after each of which every partition's lookup of every
    /// page must match a model of which partition holds which page in
    /// which record. So no partition sees a page another holds, and none
    /// clears a slot another stored. A page enters only where no partition
    /// holds it, as the manager's routing ensures; odd cases key by heat.
    #[test]
    fn partitions_share_one_page_map() {
        const PARTS: usize = 4;
        const FRAMES: usize = 5;
        for case in 0u64..32 {
            let mut rng = SmallRng::seed_from_u64(0x0AE5_4A9D ^ case);
            let heated = case % 2 == 1;
            let map = page_map(PAGES);
            let mut parts: Vec<Partition> = (0..PARTS)
                .map(|q| {
                    let heat = heated.then(|| Heat::new(EXTENT, PAGES, 7, 0));
                    Partition::new((q * FRAMES) as u64, FRAMES, map.clone(), heat)
                })
                .collect();
            // `held[q][idx]`: the page partition `q` holds in record `idx`.
            let mut held = [[None::<PageId>; FRAMES]; PARTS];
            for step in 1..=200u64 {
                let q = rng.gen_range(0..PARTS);
                let pid = PageId(rng.gen_range(0..PAGES));
                let idx = rng.gen_range(0..FRAMES);
                let absent = held.iter().flatten().all(|&h| h != Some(pid));
                let p = &mut parts[q];
                match rng.gen_range(0u8..4) {
                    0 if absent => {
                        if let Some(i) = p.insert(pid, rng.gen_bool(0.3), step) {
                            held[q][i] = Some(pid);
                        }
                    }
                    1 => {
                        let want = absent && held[q][idx].is_none();
                        assert_eq!(p.insert_at(idx, pid, step), want, "case {case}");
                        if want {
                            held[q][idx] = Some(pid);
                        }
                    }
                    // An invalid copy keeps its frame and its slot.
                    2 if held[q][idx].is_some() => p.invalidate(idx),
                    3 => {
                        if let Some(h) = held[q][idx].take() {
                            assert_eq!(p.remove(idx).pid, h, "case {case}");
                        }
                    }
                    _ => {}
                }
                for (q, p) in parts.iter().enumerate() {
                    for pid in (0..PAGES).map(PageId) {
                        let want = held[q].iter().position(|&h| h == Some(pid));
                        assert_eq!(p.lookup(pid), want, "case {case} step {step} part {q}");
                    }
                }
            }
        }
    }
}
