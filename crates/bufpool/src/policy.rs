//! The pool's replacement policy: the paper's LRU-2 (§2.2) with O'Neil's
//! Retained Information Period, ordering victims with a lazy heap bounded
//! by the frame count.
//!
//! # Determinism rules
//!
//! The policy is replay state: every decision is a pure function of the
//! access sequence. Its hash map is used for lookup, and its one
//! iteration (the history prune) is order-insensitive (the lint L9 rule
//! enforces this mechanically). No wall-clock, no RNG — tie-breaks use
//! access stamps or slot numbers.
//!
//! # Hot-path contract
//!
//! Hooks are called under the pool latch and must not allocate per call
//! on the steady-state path (amortized reallocation of internal vectors
//! is fine; per-access allocation is not). The victim heap is allocated
//! once, at one entry per frame.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use turbopool_iosim::{PageId, PidMap};

turbopool_iosim::counters! {
    /// LRU-2 counters.
    pub struct PolicyStats {
        /// Reinstalled pages whose retained history was still held.
        pub ghost_hits,
        /// Victim-scan steps: victim-heap entries examined (returned, dropped
        /// as pinned, or re-keyed because stale). Diagnostic: the
        /// determinism suites compare it across runs, nothing pins its value.
        pub scan_steps,
    }
}

/// The LRU-2 priority of a slot: its penultimate-access stamp, with the
/// last access as a tie-break. Lower sorts as "evict first"; slots touched
/// once have an empty (0) penultimate stamp and go first, oldest first.
type KDist = (u64, u64);

// ------------------------------------------------- lazy victim heap ----

/// Min-heap of `(key, slot)` with at most **one entry per slot**, for a
/// per-slot key that only ever *grows* on a touch.
///
/// A touch does not move the slot's entry: the stored key goes stale, but
/// stays ≤ the slot's true key. [`pop_current`](Self::pop_current) repairs
/// that lazily — a popped minimum whose stored key is stale is re-keyed at
/// its true key and the scan continues — so it yields exactly the entries a
/// push-per-touch heap with revalidate-on-pop would find current, in the
/// same (true-key) order, while the heap stays bounded by the frame count
/// instead of growing by one entry per hit.
struct VictimHeap {
    heap: BinaryHeap<Reverse<(KDist, usize)>>,
    /// `in_heap[slot]` ⟺ `heap` holds the slot's one entry.
    in_heap: Vec<bool>,
}

impl VictimHeap {
    fn new(frames: usize) -> Self {
        VictimHeap {
            heap: BinaryHeap::with_capacity(frames),
            in_heap: vec![false; frames],
        }
    }

    /// `slot` was touched and its key is now `key`: enter it if it has no
    /// entry; an existing entry is left to go stale.
    #[inline]
    fn note_touch(&mut self, slot: usize, key: KDist) {
        if !self.in_heap[slot] {
            self.push(slot, key);
        }
    }

    /// Enter `slot`, which must have no entry, at its true key.
    fn push(&mut self, slot: usize, key: KDist) {
        debug_assert!(!self.in_heap[slot], "slot {slot} already has an entry");
        self.in_heap[slot] = true;
        self.heap.push(Reverse((key, slot)));
    }

    /// Remove and return the slot with the smallest *true* key, re-keying
    /// every stale minimum met on the way. `steps` counts entries examined
    /// (returned or re-keyed). `None` when the heap is empty.
    fn pop_current(&mut self, key_of: impl Fn(usize) -> KDist, steps: &mut u64) -> Option<usize> {
        loop {
            let mut top = self.heap.peek_mut()?;
            *steps += 1;
            let Reverse((stored, slot)) = *top;
            let key = key_of(slot);
            if stored == key {
                PeekMut::pop(top);
                self.in_heap[slot] = false;
                return Some(slot);
            }
            debug_assert!(stored < key, "keys only grow");
            // Dropping `top` sifts the re-keyed entry down to its place.
            top.0 .0 = key;
        }
    }

    /// Drop `slot`'s entry, if it has one (O(frames); rare paths only).
    fn remove(&mut self, slot: usize) {
        if std::mem::take(&mut self.in_heap[slot]) {
            self.heap.retain(|&Reverse((_, s))| s != slot);
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
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
/// Victim order lives in a [`VictimHeap`]: one entry per slot, stored key
/// ≤ true key (a touch turns `(prev, last)` into `(last, counter)`, which
/// only grows), re-keyed on pop. A *current* entry popped while its frame
/// is pinned is dropped and the slot re-enters on its next touch; when the
/// heap drains, it is rebuilt from the evictable frames. The history map
/// is pruned to 8× the frame count at the median `last` stamp. The victim
/// sequence is pinned by `tests/policy_default_regression.rs` and checked
/// against a push-per-touch reference by the differential test below.
///
/// The pool calls the hooks under its latch; `slot` is the frame index.
/// They mirror the pool's life cycle: [`on_install`](Self::on_install),
/// [`on_access`](Self::on_access), [`select_victim`](Self::select_victim)
/// then [`on_evict`](Self::on_evict) on the slot it returned, or
/// [`on_remove`](Self::on_remove) for a backed-out install.
pub struct Lru2Policy {
    /// `stamps[slot] = (last, prev)` access stamps; 0 means "never".
    stamps: Vec<(u64, u64)>,
    /// Total touches so far; the next stamp is `counter + 1`.
    counter: u64,
    /// Retained LRU-2 history of evicted pages (O'Neil's Retained
    /// Information Period): re-referenced pages keep their penultimate
    /// access stamp across evictions, so a hot page that was pushed out
    /// does not re-enter looking like a scan-once page (which would make
    /// it the immediate next victim). Bounded to a multiple of the frame
    /// count.
    hist: PidMap<(u64, u64)>,
    heap: VictimHeap,
    stats: PolicyStats,
}

impl Lru2Policy {
    pub fn new(frames: usize) -> Self {
        Lru2Policy {
            stamps: vec![(0, 0); frames],
            counter: 0,
            hist: PidMap::default(),
            heap: VictimHeap::new(frames),
            stats: PolicyStats::default(),
        }
    }

    /// Entries in the victim heap (≤ the frame count, by construction).
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    #[inline]
    fn touch(&mut self, slot: usize) {
        self.counter += 1;
        let (last, _) = self.stamps[slot];
        self.stamps[slot] = (self.counter, last);
        self.heap.note_touch(slot, (last, self.counter));
    }

    /// Remember the evicted page's stamps, pruning the retained set to
    /// 8x the frame count by dropping the stalest half. The median is
    /// found with `select_nth_unstable` — O(n) instead of the old
    /// O(n log n) full sort, selecting the *same* element (the value at
    /// the sorted midpoint), so the retained set is unchanged.
    fn retain_history(&mut self, pid: PageId, last: u64, prev: u64) {
        self.hist.insert(pid, (last, prev));
        let cap = 8 * self.stamps.len();
        if self.hist.len() > cap {
            let mut lasts: Vec<u64> = self.hist.values().map(|&(l, _)| l).collect();
            let mid = lasts.len() / 2;
            let (_, &mut median, _) = lasts.select_nth_unstable(mid);
            self.hist.retain(|_, &mut (l, _)| l >= median);
        }
    }

    /// A page was installed into a vacated `slot`; counts as its first
    /// access. Retained history for `pid` is adopted here.
    pub fn on_install(&mut self, slot: usize, pid: PageId) {
        // Adopt retained history for a page being (re)installed, so the
        // touch below yields a non-empty penultimate stamp.
        if let Some(retained) = self.hist.remove(&pid) {
            self.stamps[slot] = retained;
            self.stats.ghost_hits += 1;
        }
        self.touch(slot);
    }

    /// A later access to the page in `slot` (a pool hit, or read-ahead's
    /// extra protection touch).
    pub fn on_access(&mut self, slot: usize) {
        self.touch(slot);
    }

    /// The pool evicted `pid` from `slot`; its stamps are retained.
    pub fn on_evict(&mut self, slot: usize, pid: PageId) {
        // A no-op when `slot` came from `select_victim`, which popped it.
        self.heap.remove(slot);
        let (last, prev) = std::mem::take(&mut self.stamps[slot]);
        self.retain_history(pid, last, prev);
    }

    /// The page in `slot` left without eviction semantics (a failed
    /// install backed out); no history is kept.
    pub fn on_remove(&mut self, slot: usize) {
        self.stamps[slot] = (0, 0);
        self.heap.remove(slot);
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
        loop {
            match self.heap.pop_current(kdist, &mut self.stats.scan_steps) {
                Some(slot) if evictable(slot) => return Some(slot),
                // Pinned: the entry is gone until the slot's next touch.
                Some(_) => {}
                None => {
                    // Every entry was pinned; rebuild from live frames.
                    let mut rebuilt = false;
                    for slot in (0..stamps.len()).filter(|&s| evictable(s)) {
                        self.heap.push(slot, kdist(slot));
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
                policy: Lru2Policy::new(frames),
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
        let mut policy = Lru2Policy::new(3);
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
        let mut policy = Lru2Policy::new(2);
        policy.on_install(0, PageId(1));
        policy.on_install(1, PageId(2));
        assert_eq!(policy.select_victim(|_| false), None);
        // And the policy still works afterwards.
        assert!(policy.select_victim(|_| true).is_some());
    }

    #[test]
    fn lru2_history_survives_eviction() {
        let mut p = Lru2Policy::new(2);
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
        let mut p = Lru2Policy::new(3);
        p.on_install(0, PageId(0)); // stamps (1, 0)
        p.on_install(1, PageId(1)); // (2, 0)
        p.on_install(2, PageId(2)); // (3, 0)
        p.on_access(0); // (4, 1): the only slot with a penultimate stamp
        assert_eq!(lru2_drain_order(&mut p, 3), [1, 2, 0]);
    }

    #[test]
    fn lru2_penultimate_access_decides_among_hot_slots() {
        let mut p = Lru2Policy::new(2);
        p.on_install(0, PageId(0)); // 1
        p.on_install(1, PageId(1)); // 2
        p.on_access(0); // 3 -> slot 0 (prev = 1)
        p.on_access(1); // 4 -> slot 1 (prev = 2)
        p.on_access(0); // 5 -> slot 0 (prev = 3): now the younger of the two
        assert_eq!(lru2_drain_order(&mut p, 2), [1, 0]);
    }

    #[test]
    fn lru2_remove_forgets_the_slot() {
        let mut p = Lru2Policy::new(2);
        p.on_install(0, PageId(0));
        p.on_access(0);
        p.on_install(1, PageId(1));
        p.on_remove(1);
        assert_eq!(p.stamps[1], (0, 0));
        assert_eq!(p.heap_len(), 1, "the removed slot's entry is gone");
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
    fn lru2_heap_is_bounded_by_the_frame_count() {
        const FRAMES: usize = 64;
        let mut p = Lru2Policy::new(FRAMES);
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
                // A miss with a free frame; one in five is abandoned.
                0..=29 if !free.is_empty() => {
                    let slot = free.pop().expect("checked");
                    let pid = fresh_pid(&mut rng, &slots);
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
                        // The pool refills the frame at once; a drain
                        // leaves it free.
                        if rounds == 1 {
                            let pid = fresh_pid(&mut rng, &slots);
                            new.on_install(v, pid);
                            old.on_install(v, pid);
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
                let mut new = Lru2Policy::new(frames);
                let mut old = Lru2Oracle::new(frames);
                run_schedule(seed * 4 + frames as u64, frames, &mut new, &mut old);
                assert!(new.heap_len() <= frames);
                assert_eq!(new.stamps, old.stamps, "seed {seed} frames {frames}");
                assert_eq!(new.counter, old.counter);
                assert_eq!(new.stats.ghost_hits, old.ghost_hits);
                assert_eq!(
                    sorted(new.hist.iter().map(|(&p, &h)| (p, h))),
                    sorted(old.hist.iter().map(|(&p, &h)| (p, h))),
                    "retained history, seed {seed} frames {frames}"
                );
            }
        }
    }
}
