//! The pool's replacement policy: the paper's LRU-2 (§2.2) with O'Neil's
//! Retained Information Period, and the lazy victim heap that orders it,
//! which the SSD tier's clean and dirty orders and TAC's coldest frame
//! share (`turbopool-core`).
//!
//! # Determinism rules
//!
//! The policy is replay state: every decision is a pure function of the
//! access sequence. Its history table is used for lookup, and its one
//! iteration (the history prune) is an order-insensitive `retain`. No
//! wall-clock, no RNG — tie-breaks use access stamps or slot numbers.
//!
//! # Hot-path contract
//!
//! Hooks are called under the pool latch and must not allocate per call
//! on the steady-state path (amortized reallocation of internal vectors
//! is fine; per-access allocation is not). The victim heap holds at most
//! two entries per frame and is rebuilt in its own buffer.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use turbopool_iosim::{PageId, PageTable};

turbopool_iosim::counters! {
    /// LRU-2 counters.
    pub struct PolicyStats {
        /// Reinstalled pages whose retained history was still held.
        pub ghost_hits,
        /// Victim-scan steps: live victim-heap entries examined (returned,
        /// dropped as pinned, or re-keyed because stale); dead entries are
        /// not counted. Diagnostic: the determinism suites compare it
        /// across runs, nothing pins its value.
        pub scan_steps,
    }
}

/// The LRU-2 priority of a slot: its penultimate-access stamp, with the
/// last access as a tie-break. Lower sorts as "evict first"; slots touched
/// once have an empty (0) penultimate stamp and go first, oldest first.
type KDist = (u64, u64);

// ------------------------------------------------- lazy victim heap ----

/// The one min-order of the two tiers: the victim among slots `0..slots`
/// by a per-slot key that only *grows* while the slot keeps its page. It
/// orders the pool's LRU-2 (§2.2), the SSD table's clean and dirty orders
/// (Figure 4) and TAC's coldest frame (§2.5).
///
/// A filed slot has one *filed key*, and the heap holds `(key, slot)`
/// entries: an entry is live exactly when its slot is filed and its stored
/// key equals the slot's filed key. Anything else is dead and dropped when
/// met, so [`unfile`](Self::unfile) is O(1) and re-filing an unfiled
/// slot, at a lower key too (TAC reusing a frame), is one push. A slot's key may grow
/// without a new entry: its filed key stays ≤ its true key, and
/// [`peek`](Self::peek) re-keys a stale front in place until the front is
/// current, which makes it the true minimum. Once the heap holds more than
/// two entries per slot it is rebuilt from the filed keys, one entry per
/// filed slot.
#[derive(Debug)]
pub struct VictimHeap<K> {
    heap: BinaryHeap<Reverse<(K, usize)>>,
    /// `filed[slot]`: the slot has a live entry. Kept apart from the keys,
    /// so that filing a filed slot (a pool hit's touch) reads one byte.
    filed: Vec<bool>,
    /// `keys[slot]`: a filed slot's filed key. Allocated, with the heap's
    /// room, when the first slot is filed: an order never filed (the SSD
    /// table's dirty side under CW, DW and TAC) holds no keys and no heap.
    keys: Vec<K>,
}

impl<K: Ord + Copy + Default> VictimHeap<K> {
    /// An empty order over `slots` slots.
    pub fn new(slots: usize) -> Self {
        VictimHeap {
            heap: BinaryHeap::new(),
            filed: vec![false; slots],
            keys: Vec::new(),
        }
    }

    /// File `slot` at its true key; nothing if it is filed already, since
    /// its key can only have grown. An unfiled slot's entry is pushed.
    #[inline]
    pub fn file(&mut self, slot: usize, key: K) {
        if self.filed[slot] {
            debug_assert!(self.keys[slot] <= key, "a filed key only grows");
            return;
        }
        self.push(slot, key);
    }

    /// [`file`](Self::file)'s push, kept out of line so that a touch
    /// inlines only the flag test.
    #[inline(never)]
    fn push(&mut self, slot: usize, key: K) {
        if self.keys.is_empty() {
            self.keys = vec![K::default(); self.filed.len()];
            self.heap.reserve(self.filed.len());
        }
        (self.filed[slot], self.keys[slot]) = (true, key);
        self.heap.push(Reverse((key, slot)));
        if self.heap.len() > 2 * self.filed.len() {
            // Rebuilt in place from the filed keys: the dead entries go,
            // and so does a twin left by unfiling and re-filing one key.
            let mut v = std::mem::take(&mut self.heap).into_vec();
            v.clear();
            let filed = (0..self.filed.len()).filter(|&s| self.filed[s]);
            v.extend(filed.map(|s| Reverse((self.keys[s], s))));
            self.heap = BinaryHeap::from(v);
        }
    }

    /// Take `slot` out of the order: its entry goes dead.
    #[inline]
    pub fn unfile(&mut self, slot: usize) {
        self.filed[slot] = false;
    }

    /// The minimum `(key, slot)` by true key, `key_of(slot)`, or `None` if
    /// no slot is filed. Dead entries met on the way are dropped and a
    /// stale front is re-keyed: every other live entry's true key is ≥ its
    /// stored key ≥ the front's, so a current front is the minimum.
    /// `key_of` runs once per live entry examined.
    pub fn peek(&mut self, mut key_of: impl FnMut(usize) -> K) -> Option<(K, usize)> {
        loop {
            let mut top = self.heap.peek_mut()?;
            let Reverse((stored, slot)) = *top;
            if !self.filed[slot] || self.keys[slot] != stored {
                PeekMut::pop(top);
                continue;
            }
            let key = key_of(slot);
            if stored == key {
                return Some((key, slot));
            }
            debug_assert!(stored < key, "keys only grow");
            // Dropping `top` sifts the re-keyed entry down to its place.
            top.0 .0 = key;
            self.keys[slot] = key;
        }
    }
}

// ------------------------------------------------------------ LRU-2 ----

/// The paper's LRU-2 (O'Neil et al., SIGMOD 1993) with retained history:
/// evict the page whose *second-to-last* access is oldest, which filters
/// out pages touched exactly once by a scan (§2.2).
///
/// Stamps come from a monotonically increasing access counter rather than
/// virtual time: LRU-2 only needs a total order of accesses, and a counter
/// is immune to the virtual clock's uneven progress across clients.
///
/// Victim order lives in a [`VictimHeap`]: a touch turns `(prev, last)`
/// into `(last, counter)`, which only grows, so it files a slot only when
/// the slot has no entry. The minimum taken while its frame is pinned is
/// unfiled and the slot re-enters on its next touch; when no slot is left
/// filed, the order is rebuilt from the evictable frames. The history map
/// is pruned to 8× the frame count at the median `last` stamp. The victim
/// sequence is pinned by `tests/policy_default_regression.rs` and checked
/// against a push-per-touch reference by the differential test below.
///
/// The pool calls the hooks under its latch; `slot` is the frame index.
/// They mirror the pool's life cycle: [`on_install`](Self::on_install) or
/// [`on_install_protected`](Self::on_install_protected),
/// [`on_access`](Self::on_access), [`select_victim`](Self::select_victim)
/// then [`on_evict`](Self::on_evict) on the slot it returned, or
/// [`on_remove`](Self::on_remove) for a backed-out install.
pub struct Lru2Policy {
    /// `stamps[slot] = (last, prev)` access stamps; 0 means "never".
    stamps: Vec<(u64, u64)>,
    /// Total touches so far; the next stamp is `counter + 1`.
    counter: u64,
    /// Retained LRU-2 history of evicted pages (O'Neil's Retained
    /// Information Period): re-referenced pages keep their last access
    /// stamp across evictions, which the reinstall's touch makes the
    /// penultimate one, so a hot page that was pushed out does not
    /// re-enter looking like a scan-once page (which would make it the
    /// immediate next victim). Only `last` is kept: the touch overwrites
    /// `prev` before anything reads it. Bounded to a multiple of the frame
    /// count. Indexed by page number; 0, the stamp of a slot never
    /// touched, marks a page with none.
    hist: PageTable<u64>,
    heap: VictimHeap<KDist>,
    stats: PolicyStats,
}

impl Lru2Policy {
    /// A policy over `frames` slots for a database of `db_pages` pages.
    pub fn new(frames: usize, db_pages: u64) -> Self {
        Lru2Policy {
            stamps: vec![(0, 0); frames],
            counter: 0,
            hist: PageTable::new(db_pages, 0),
            heap: VictimHeap::new(frames),
            stats: PolicyStats::default(),
        }
    }

    /// Entries in the victim heap, dead ones included (≤ 2× the frame
    /// count, by construction).
    pub fn heap_len(&self) -> usize {
        self.heap.heap.len()
    }

    #[inline]
    fn touch(&mut self, slot: usize) {
        self.counter += 1;
        let (last, _) = self.stamps[slot];
        self.stamps[slot] = (self.counter, last);
        self.heap.file(slot, (last, self.counter));
    }

    /// Remember the evicted page's last stamp, pruning the retained set to
    /// 8x the frame count by dropping the stalest half. The median is
    /// found with `select_nth_unstable` — O(n) instead of the old
    /// O(n log n) full sort, selecting the *same* element (the value at
    /// the sorted midpoint), so the retained set is unchanged.
    fn retain_history(&mut self, pid: PageId, last: u64) {
        debug_assert!(last > 0, "an evicted page was touched at least once");
        self.hist.insert(pid, last);
        let cap = 8 * self.stamps.len();
        if self.hist.len() > cap {
            let mut lasts: Vec<u64> = self.hist.values().collect();
            let mid = lasts.len() / 2;
            let (_, &mut median, _) = lasts.select_nth_unstable(mid);
            self.hist.retain(|l| l >= median);
        }
    }

    /// Adopt retained history for a page being (re)installed into `slot`,
    /// so its next touch yields a non-empty penultimate stamp. Every
    /// caller touches the slot next, which overwrites `prev`.
    fn adopt(&mut self, slot: usize, pid: PageId) {
        if let Some(last) = self.hist.remove(pid) {
            self.stamps[slot] = (last, 0);
            self.stats.ghost_hits += 1;
        }
    }

    /// A page was installed into a vacated `slot`; counts as its first
    /// access. Retained history for `pid` is adopted here.
    pub fn on_install(&mut self, slot: usize, pid: PageId) {
        self.adopt(slot, pid);
        self.touch(slot);
    }

    /// A read-ahead install into a vacated `slot`: [`on_install`](Self::on_install)
    /// then one protection [`on_access`](Self::on_access) — the same stamps
    /// and adopted history — entering the victim heap once, at its final
    /// key, rather than at a pre-protection key the second touch leaves stale.
    pub fn on_install_protected(&mut self, slot: usize, pid: PageId) {
        self.adopt(slot, pid); // counts the ghost hit; both touches overwrite it
        self.counter += 2;
        let (prev, last) = (self.counter - 1, self.counter);
        self.stamps[slot] = (last, prev);
        self.heap.file(slot, (prev, last));
    }

    /// A later access to the page in `slot` (a pool hit).
    pub fn on_access(&mut self, slot: usize) {
        self.touch(slot);
    }

    /// The pool evicted `pid` from `slot`; its stamps are retained.
    pub fn on_evict(&mut self, slot: usize, pid: PageId) {
        // A no-op when `slot` came from `select_victim`, which unfiled it.
        self.heap.unfile(slot);
        let (last, _) = std::mem::take(&mut self.stamps[slot]);
        self.retain_history(pid, last);
    }

    /// The page in `slot` left without eviction semantics (a failed
    /// install backed out); no history is kept.
    pub fn on_remove(&mut self, slot: usize) {
        self.stamps[slot] = (0, 0);
        self.heap.unfile(slot);
    }

    /// Pick the evictable slot (occupied and unpinned, as `evictable`
    /// reports) with the oldest penultimate access. `None` only if no
    /// evictable frame exists.
    pub fn select_victim(&mut self, mut evictable: impl FnMut(usize) -> bool) -> Option<usize> {
        let stamps = &self.stamps;
        let kdist = |slot: usize| {
            let (last, prev) = stamps[slot];
            (prev, last)
        };
        let steps = &mut self.stats.scan_steps;
        loop {
            match self.heap.peek(|slot| {
                *steps += 1;
                kdist(slot)
            }) {
                Some((_, slot)) => {
                    // A pinned slot stays out until its next touch.
                    self.heap.unfile(slot);
                    if evictable(slot) {
                        return Some(slot);
                    }
                }
                None => {
                    // Every entry was pinned; rebuild from live frames.
                    let mut rebuilt = false;
                    for slot in (0..stamps.len()).filter(|&s| evictable(s)) {
                        self.heap.file(slot, kdist(slot));
                        rebuilt = true;
                    }
                    if !rebuilt {
                        return None;
                    }
                }
            }
        }
    }

    pub fn stats(&self) -> PolicyStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use turbopool_iosim::rng::{Rng, SeedableRng, SmallRng};

    /// Database size of the unit tests: above every page id they use.
    const PAGES: u64 = 4_096;

    /// Drive LRU-2 like the pool does, with no pins: install pages into
    /// `frames` slots, touch on hit, evict on overflow. Returns the
    /// eviction sequence.
    struct Sim {
        policy: Lru2Policy,
        resident: HashMap<PageId, usize>,
        slots: Vec<Option<PageId>>,
        free: Vec<usize>,
        evictions: Vec<PageId>,
    }

    impl Sim {
        fn new(frames: usize) -> Self {
            Sim {
                policy: Lru2Policy::new(frames, PAGES),
                resident: HashMap::new(),
                slots: vec![None; frames],
                free: (0..frames).rev().collect(),
                evictions: Vec::new(),
            }
        }

        fn access(&mut self, pid: PageId) {
            if let Some(&slot) = self.resident.get(&pid) {
                self.policy.on_access(slot);
                return;
            }
            let slot = match self.free.pop() {
                Some(s) => s,
                None => {
                    let slots = &self.slots;
                    let victim = self
                        .policy
                        .select_victim(|s| slots[s].is_some())
                        .expect("no evictable frame");
                    let old = self.slots[victim].take().expect("victim occupied");
                    self.policy.on_evict(victim, old);
                    self.resident.remove(&old);
                    self.evictions.push(old);
                    victim
                }
            };
            self.slots[slot] = Some(pid);
            self.resident.insert(pid, slot);
            self.policy.on_install(slot, pid);
        }
    }

    #[test]
    fn every_policy_evicts_scan_once_pages_before_hot_pages() {
        let mut sim = Sim::new(4);
        // Page 0 is hot; 1..=3 touched once; 4 forces an eviction.
        sim.access(PageId(0));
        sim.access(PageId(0));
        sim.access(PageId(0));
        for p in 1..=3 {
            sim.access(PageId(p));
        }
        sim.access(PageId(4));
        assert_eq!(sim.evictions.len(), 1);
        assert_ne!(sim.evictions[0], PageId(0), "evicted the hot page");
    }

    #[test]
    fn every_policy_survives_full_churn_and_stays_consistent() {
        let mut sim = Sim::new(8);
        // Cyclic + skewed churn far beyond capacity.
        for i in 0..600u64 {
            sim.access(PageId(i % 40));
            if i % 3 == 0 {
                sim.access(PageId(i % 5)); // hot set
            }
        }
        assert_eq!(sim.resident.len(), 8);
        assert!(sim.evictions.len() > 100);
    }

    #[test]
    fn pinned_slots_are_never_selected() {
        let mut policy = Lru2Policy::new(3, PAGES);
        for (slot, pid) in [(0usize, 77u64), (1, 78), (2, 79)] {
            policy.on_install(slot, PageId(pid));
        }
        // Slot 1 is the only evictable frame.
        for _ in 0..3 {
            let v = policy.select_victim(|s| s == 1).expect("frame 1 free");
            assert_eq!(v, 1);
            policy.on_evict(1, PageId(78));
            policy.on_install(1, PageId(78));
        }
    }

    #[test]
    fn all_pinned_returns_none() {
        let mut policy = Lru2Policy::new(2, PAGES);
        policy.on_install(0, PageId(1));
        policy.on_install(1, PageId(2));
        assert_eq!(policy.select_victim(|_| false), None);
        // And the policy still works afterwards.
        assert!(policy.select_victim(|_| true).is_some());
    }

    #[test]
    fn lru2_history_survives_eviction() {
        let mut p = Lru2Policy::new(2, PAGES);
        p.on_install(0, PageId(10));
        p.on_access(0);
        p.on_evict(0, PageId(10));
        assert_eq!(p.stats().ghost_hits, 0);
        p.on_install(0, PageId(10));
        assert_eq!(p.stats().ghost_hits, 1, "retained history adopted");
    }

    /// Victim order of an LRU-2 pool with nothing pinned, draining it.
    fn lru2_drain_order(p: &mut Lru2Policy, frames: usize) -> Vec<usize> {
        let mut gone = vec![false; frames];
        let mut order = Vec::new();
        while let Some(v) = p.select_victim(|s| !gone[s]) {
            p.on_evict(v, PageId(1_000 + v as u64));
            gone[v] = true;
            order.push(v);
        }
        order
    }

    #[test]
    fn lru2_once_touched_slots_go_first_oldest_first() {
        let mut p = Lru2Policy::new(3, PAGES);
        p.on_install(0, PageId(0)); // stamps (1, 0)
        p.on_install(1, PageId(1)); // (2, 0)
        p.on_install(2, PageId(2)); // (3, 0)
        p.on_access(0); // (4, 1): the only slot with a penultimate stamp
        assert_eq!(lru2_drain_order(&mut p, 3), [1, 2, 0]);
    }

    #[test]
    fn lru2_penultimate_access_decides_among_hot_slots() {
        let mut p = Lru2Policy::new(2, PAGES);
        p.on_install(0, PageId(0)); // 1
        p.on_install(1, PageId(1)); // 2
        p.on_access(0); // 3 -> slot 0 (prev = 1)
        p.on_access(1); // 4 -> slot 1 (prev = 2)
        p.on_access(0); // 5 -> slot 0 (prev = 3): now the younger of the two
        assert_eq!(lru2_drain_order(&mut p, 2), [1, 0]);
    }

    #[test]
    fn lru2_remove_forgets_the_slot() {
        let mut p = Lru2Policy::new(2, PAGES);
        p.on_install(0, PageId(0));
        p.on_access(0);
        p.on_install(1, PageId(1));
        p.on_remove(1);
        assert_eq!(p.stamps[1], (0, 0));
        assert!(!p.heap.filed[1], "the removed slot is out of the order");
        assert_eq!(p.heap_len(), 2, "its entry stays, dead, until met");
        // A different page reusing the slot starts from scratch: it is
        // once-touched, so it goes before the twice-touched slot 0.
        p.on_install(1, PageId(2));
        assert_eq!(
            p.stats().ghost_hits,
            0,
            "a backed-out install retains nothing"
        );
        assert_eq!(lru2_drain_order(&mut p, 2), [1, 0]);
    }

    #[test]
    fn read_ahead_install_enters_the_heap_once_at_its_final_key() {
        let mut fused = Lru2Policy::new(2, PAGES);
        let mut pair = Lru2Policy::new(2, PAGES);
        for p in [&mut fused, &mut pair] {
            p.on_install(0, PageId(7));
            p.on_access(0);
            p.on_evict(0, PageId(7)); // page 7's history is retained
        }
        fused.on_install_protected(1, PageId(7));
        pair.on_install(1, PageId(7));
        pair.on_access(1);
        assert_eq!(fused.stamps, pair.stamps);
        assert_eq!(fused.stats().ghost_hits, 1, "retained history adopted");
        assert_eq!(fused.stats(), pair.stats());
        // The fused entry is current; the pair's is stale and costs the
        // next selection a re-key.
        assert_eq!((fused.heap.filed[1], fused.heap.keys[1]), (true, (3, 4)));
        let stamps = fused.stamps.clone();
        let key_of = |s: usize| (stamps[s].1, stamps[s].0);
        let (mut a, mut b) = (0, 0);
        let counted = |n: &mut u64, s| {
            *n += 1;
            key_of(s)
        };
        assert_eq!(fused.heap.peek(|s| counted(&mut a, s)), Some(((3, 4), 1)));
        assert_eq!(pair.heap.peek(|s| counted(&mut b, s)), Some(((3, 4), 1)));
        assert_eq!((a, b), (1, 2), "heap entries examined");
    }

    #[test]
    fn lru2_heap_is_bounded_by_the_frame_count() {
        const FRAMES: usize = 64;
        let mut p = Lru2Policy::new(FRAMES, PAGES);
        for s in 0..FRAMES {
            p.on_install(s, PageId(s as u64));
        }
        let mut s = 0;
        for _ in 0..1_000_000 {
            s = (s + 37) % FRAMES;
            p.on_access(s);
        }
        assert!(p.heap_len() <= FRAMES, "{} entries", p.heap_len());
        // And the one entry per slot still finds the true LRU-2 victim.
        let oldest = (0..FRAMES).min_by_key(|&s| (p.stamps[s].1, p.stamps[s].0));
        assert_eq!(p.select_victim(|_| true), oldest);
    }

    /// The minimum `(key, slot)` over the filed slots of `truth`, scanned.
    fn scan_min(truth: &[Option<u64>]) -> Option<(u64, usize)> {
        let filed = truth.iter().enumerate();
        filed.filter_map(|(s, k)| k.map(|k| (k, s))).min()
    }

    /// Model check of the shared heap: seeded runs of `file`, `unfile`,
    /// key growth and `peek` against a `Vec` of true keys scanned for its
    /// minimum. Unfiled slots are re-filed at lower keys (TAC's frame
    /// reuse) and at the key they last had (the twin of a dead entry),
    /// filed ones at their grown key (a touch), and the small slot count
    /// makes the heap compact. Each case ends by draining the order.
    #[test]
    fn victim_heap_matches_a_scanning_model() {
        const SLOTS: usize = 9;
        let mut compactions = 0;
        for case in 0u64..200 {
            let mut rng = SmallRng::seed_from_u64(0x4EA9_0DE5 ^ case);
            let mut heap = VictimHeap::new(SLOTS);
            // `truth[slot]`: the true key of a filed slot.
            let mut truth: Vec<Option<u64>> = vec![None; SLOTS];
            // The key each slot was last filed at.
            let mut last = [0u64; SLOTS];
            for _ in 0..rng.gen_range(1usize..400) {
                let slot = rng.gen_range(0usize..SLOTS);
                let entries = heap.heap.len();
                match rng.gen_range(0u8..10) {
                    0..=2 if truth[slot].is_none() => {
                        let key = if rng.gen_ratio(1, 3) {
                            last[slot]
                        } else {
                            rng.gen_range(0u64..64)
                        };
                        heap.file(slot, key);
                        (truth[slot], last[slot]) = (Some(key), key);
                        if heap.heap.len() < entries {
                            compactions += 1;
                        }
                    }
                    3 | 4 => {
                        heap.unfile(slot);
                        truth[slot] = None;
                    }
                    5..=7 => {
                        if let Some(k) = truth[slot].as_mut() {
                            *k += rng.gen_range(1u64..8);
                            if rng.gen_ratio(1, 2) {
                                heap.file(slot, *k);
                            }
                        }
                    }
                    _ => {
                        let got = heap.peek(|s| truth[s].expect("only filed slots are live"));
                        assert_eq!(got, scan_min(&truth), "case {case}");
                    }
                }
                let filed = heap.filed.iter().copied();
                assert!(filed.eq(truth.iter().map(Option::is_some)), "case {case}");
                assert!(heap.heap.len() <= 2 * SLOTS, "case {case}");
            }
            loop {
                let got = heap.peek(|s| truth[s].expect("only filed slots are live"));
                assert_eq!(got, scan_min(&truth), "case {case}");
                let Some((_, s)) = got else { break };
                heap.unfile(s);
                truth[s] = None;
            }
            assert!(!heap.filed.contains(&true), "case {case}");
        }
        assert!(compactions > 0, "no case compacted the heap");
    }

    // ------------------------------------------- differential oracles ----

    /// The push-per-touch LRU-2 that `Lru2Policy` replaced: every touch
    /// pushes a heap entry, `select_victim` revalidates on pop and discards
    /// stale ones. Kept as the reference for the one-entry-per-slot heap.
    struct Lru2Oracle {
        stamps: Vec<(u64, u64)>,
        counter: u64,
        hist: HashMap<PageId, (u64, u64)>,
        heap: BinaryHeap<Reverse<(KDist, usize)>>,
        ghost_hits: u64,
    }

    impl Lru2Oracle {
        fn new(frames: usize) -> Self {
            Lru2Oracle {
                stamps: vec![(0, 0); frames],
                counter: 0,
                hist: HashMap::new(),
                heap: BinaryHeap::new(),
                ghost_hits: 0,
            }
        }

        fn kdist(&self, slot: usize) -> KDist {
            let (last, prev) = self.stamps[slot];
            (prev, last)
        }

        fn touch(&mut self, slot: usize) {
            self.counter += 1;
            self.stamps[slot] = (self.counter, self.stamps[slot].0);
            self.heap.push(Reverse((self.kdist(slot), slot)));
        }

        fn on_install(&mut self, slot: usize, pid: PageId) {
            if let Some(retained) = self.hist.remove(&pid) {
                self.stamps[slot] = retained;
                self.ghost_hits += 1;
            }
            self.touch(slot);
        }

        fn on_access(&mut self, slot: usize) {
            self.touch(slot);
        }

        fn on_evict(&mut self, slot: usize, pid: PageId) {
            self.hist.insert(pid, self.stamps[slot]);
            let cap = 8 * self.stamps.len();
            if self.hist.len() > cap {
                let mut lasts: Vec<u64> = self.hist.values().map(|&(l, _)| l).collect();
                lasts.sort_unstable();
                let median = lasts[lasts.len() / 2];
                self.hist.retain(|_, &mut (l, _)| l >= median);
            }
            self.stamps[slot] = (0, 0);
        }

        fn on_remove(&mut self, slot: usize) {
            self.stamps[slot] = (0, 0);
        }

        fn select_victim(&mut self, mut evictable: impl FnMut(usize) -> bool) -> Option<usize> {
            loop {
                match self.heap.pop() {
                    Some(Reverse((kd, slot))) => {
                        if evictable(slot) && self.kdist(slot) == kd {
                            return Some(slot);
                        }
                    }
                    None => {
                        let mut rebuilt = false;
                        for slot in 0..self.stamps.len() {
                            if evictable(slot) {
                                self.heap.push(Reverse((self.kdist(slot), slot)));
                                rebuilt = true;
                            }
                        }
                        if !rebuilt {
                            return None;
                        }
                    }
                }
            }
        }
    }

    /// A read-ahead install: the fused hook on the policy under test, the
    /// install-plus-protection-touch pair it replaces on the oracle.
    fn install_protected(new: &mut Lru2Policy, old: &mut Lru2Oracle, slot: usize, pid: PageId) {
        new.on_install_protected(slot, pid);
        old.on_install(slot, pid);
        old.on_access(slot);
    }

    /// Drive `new` and `old` through one seeded random schedule of the
    /// pool's life cycle and assert they pick the same victim (or `None`)
    /// at every selection.
    fn run_schedule(seed: u64, frames: usize, new: &mut Lru2Policy, old: &mut Lru2Oracle) {
        let mut rng = SmallRng::seed_from_u64(seed);
        // A page domain small enough that evicted pages come back while
        // their history is retained, large enough to overflow the 8x cap.
        let domain = 12 * frames as u64 + 4;
        let mut slots: Vec<Option<PageId>> = vec![None; frames];
        let mut free: Vec<usize> = (0..frames).rev().collect();
        let fresh_pid = |rng: &mut SmallRng, slots: &[Option<PageId>]| loop {
            let pid = PageId(rng.gen_range(0..domain));
            if !slots.contains(&Some(pid)) {
                return pid;
            }
        };
        for step in 0..1_500 {
            let ctx = format!("seed {seed} frames {frames} step {step}");
            let occupied: Vec<usize> = (0..frames).filter(|&s| slots[s].is_some()).collect();
            match rng.gen_range(0..100u32) {
                // A miss with a free frame; one in five is abandoned. A
                // read-ahead install never is.
                0..=29 if !free.is_empty() => {
                    let slot = free.pop().expect("checked");
                    let pid = fresh_pid(&mut rng, &slots);
                    if rng.gen_ratio(1, 3) {
                        install_protected(new, old, slot, pid);
                        slots[slot] = Some(pid);
                        continue;
                    }
                    new.on_install(slot, pid);
                    old.on_install(slot, pid);
                    if rng.gen_ratio(1, 5) {
                        new.on_remove(slot);
                        old.on_remove(slot);
                        free.push(slot);
                    } else {
                        slots[slot] = Some(pid);
                    }
                }
                // A burst of hits with no eviction in between.
                30..=39 if !occupied.is_empty() => {
                    for _ in 0..rng.gen_range(1..200u32) {
                        let slot = occupied[rng.gen_range(0..occupied.len() as u64) as usize];
                        new.on_access(slot);
                        old.on_access(slot);
                    }
                }
                40..=59 if !occupied.is_empty() => {
                    let slot = occupied[rng.gen_range(0..occupied.len() as u64) as usize];
                    new.on_access(slot);
                    old.on_access(slot);
                }
                // Victim selection under a random pinned set.
                _ => {
                    let mut pinned = vec![false; frames];
                    match rng.gen_range(0..6u32) {
                        0 => {}                 // nothing pinned
                        1 => pinned.fill(true), // everything pinned: None
                        2 if !occupied.is_empty() => {
                            // Everything but one frame pinned.
                            pinned.fill(true);
                            let keep = occupied[rng.gen_range(0..occupied.len() as u64) as usize];
                            pinned[keep] = false;
                        }
                        3 => {
                            // The minimum is pinned: find what an unpinned
                            // pool would pick, on throwaway selections
                            // that both sides see (a lost entry is part of
                            // the behaviour under test).
                            let occ = |s: usize| slots[s].is_some();
                            let a = new.select_victim(|s| occ(s) && s % 2 == 0);
                            let b = old.select_victim(|s| occ(s) && s % 2 == 0);
                            assert_eq!(a, b, "{ctx} (probe)");
                            if let Some(min) = a {
                                // Not evicted: the pool would have, so put
                                // the popped slot back in play by touching.
                                new.on_access(min);
                                old.on_access(min);
                                pinned[min] = true;
                            }
                        }
                        _ => {
                            for p in pinned.iter_mut() {
                                *p = rng.gen_ratio(1, 3);
                            }
                        }
                    }
                    // Sometimes drain every evictable frame in one go, so
                    // the heap empties and the rebuild arm runs next time.
                    let rounds = if rng.gen_ratio(1, 8) { frames + 1 } else { 1 };
                    for _ in 0..rounds {
                        let evictable = |s: usize| slots[s].is_some() && !pinned[s];
                        let a = new.select_victim(&evictable);
                        let b = old.select_victim(&evictable);
                        assert_eq!(a, b, "{ctx}");
                        let Some(v) = a else { break };
                        assert!(evictable(v), "{ctx}: victim {v} not evictable");
                        let pid = slots[v].take().expect("victim occupied");
                        new.on_evict(v, pid);
                        old.on_evict(v, pid);
                        // The pool refills the frame at once, by a miss
                        // or by read-ahead; a drain leaves it free.
                        if rounds == 1 {
                            let pid = fresh_pid(&mut rng, &slots);
                            if rng.gen_ratio(1, 2) {
                                install_protected(new, old, v, pid);
                            } else {
                                new.on_install(v, pid);
                                old.on_install(v, pid);
                            }
                            slots[v] = Some(pid);
                        } else {
                            free.push(v);
                        }
                    }
                }
            }
        }
    }

    fn sorted<V: Ord>(m: impl IntoIterator<Item = (PageId, V)>) -> Vec<(PageId, V)> {
        let mut v: Vec<_> = m.into_iter().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn lru2_one_entry_heap_matches_push_per_touch_oracle() {
        for frames in [1usize, 2, 7, 64] {
            for seed in 0..60u64 {
                let mut new = Lru2Policy::new(frames, PAGES);
                let mut old = Lru2Oracle::new(frames);
                run_schedule(seed * 4 + frames as u64, frames, &mut new, &mut old);
                assert!(new.heap_len() <= 2 * frames, "two entries per slot");
                assert_eq!(new.stamps, old.stamps, "seed {seed} frames {frames}");
                assert_eq!(new.counter, old.counter);
                assert_eq!(new.stats.ghost_hits, old.ghost_hits);
                assert_eq!(
                    sorted(new.hist.iter().map(|(p, last)| (PageId(p), last))),
                    sorted(old.hist.iter().map(|(&p, &(last, _))| (p, last))),
                    "retained history, seed {seed} frames {frames}"
                );
            }
        }
    }
}
