//! Pluggable DRAM replacement policies (ISSUE 8).
//!
//! The buffer pool used to hardwire LRU-2; this module extracts victim
//! selection behind the [`ReplacementPolicy`] trait so the policy becomes
//! a benchmarkable axis (the *Evolution of Buffer Management* survey maps
//! the space). Five policies ship:
//!
//! * [`Lru2Policy`] — the paper's LRU-2 with O'Neil's Retained
//!   Information Period. It is the default and is regression-gated: same
//!   seeds must produce the victim sequence, and so bit-identical
//!   counters, of the pre-trait pool.
//! * [`ClockPolicy`] — second-chance CLOCK (reference bit + hand).
//! * [`SievePolicy`] — SIEVE (FIFO order, visited bit, hand moving from
//!   tail to head, hits never move nodes).
//! * [`LruKPolicy`] — LRU-K with configurable K and retained history.
//! * [`GhostPolicy`] — ARC-style adaptive policy with probationary/
//!   protected segments and two ghost lists steering the balance.
//!
//! # Determinism rules
//!
//! Policies are replay state: every decision must be a pure function of
//! the access sequence. Hash maps may be used for *lookup only*; any
//! iteration must be order-insensitive (the lint L9 rule enforces this
//! mechanically). No wall-clock, no RNG — tie-breaks use access stamps
//! or slot numbers.
//!
//! # Hot-path contract
//!
//! Hooks are called under the pool latch and must not allocate per call
//! on the steady-state path (amortized reallocation of internal vectors
//! is fine; per-access allocation is not). The LRU-2/LRU-K victim heap is
//! allocated once, at one entry per frame.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use turbopool_iosim::{PageId, PidMap};

/// Which replacement policy a pool runs (the `BufferPoolConfig`
/// knob). Matches over this enum must be exhaustive with no `_` arm —
/// lint rule L12 (`policy-match`) enforces it, like L4 does for
/// `SsdDesign`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReplacementKind {
    /// LRU-2 with retained history (the paper's policy; the default).
    Lru2,
    /// Second-chance CLOCK.
    Clock,
    /// SIEVE (Zhang et al., NSDI 2024): FIFO + visited bit, lazily
    /// promoting via the hand instead of moving nodes on hit.
    Sieve,
    /// LRU-K (O'Neil et al., SIGMOD 1993) with configurable K.
    LruK { k: usize },
    /// Adaptive ghost-list policy (ARC-style probation/protection).
    Ghost,
}

impl Default for ReplacementKind {
    fn default() -> Self {
        ReplacementKind::Lru2
    }
}

impl ReplacementKind {
    /// Stable label for reports and bench JSON.
    pub fn label(self) -> String {
        match self {
            ReplacementKind::Lru2 => "lru2".to_string(),
            ReplacementKind::Clock => "clock".to_string(),
            ReplacementKind::Sieve => "sieve".to_string(),
            ReplacementKind::LruK { k } => format!("lru{k}"),
            ReplacementKind::Ghost => "ghost".to_string(),
        }
    }

    /// The matrix the policy-arena bench sweeps (LRU-K at K=3 so it is
    /// distinct from both LRU-2 and plain recency).
    pub fn arena() -> [ReplacementKind; 5] {
        [
            ReplacementKind::Lru2,
            ReplacementKind::Clock,
            ReplacementKind::Sieve,
            ReplacementKind::LruK { k: 3 },
            ReplacementKind::Ghost,
        ]
    }

    /// Construct the policy for `frames` pool slots.
    pub fn build(self, frames: usize) -> Box<dyn ReplacementPolicy> {
        match self {
            ReplacementKind::Lru2 => Box::new(Lru2Policy::new(frames)),
            ReplacementKind::Clock => Box::new(ClockPolicy::new(frames)),
            ReplacementKind::Sieve => Box::new(SievePolicy::new(frames)),
            ReplacementKind::LruK { k } => Box::new(LruKPolicy::new(frames, k)),
            ReplacementKind::Ghost => Box::new(GhostPolicy::new(frames)),
        }
    }
}

turbopool_iosim::counters! {
    /// Policy-internal counters, shared across all implementations so the
    /// arena bench can compare eviction-scan cost and ghost effectiveness.
    pub struct PolicyStats {
        /// Reinstalled pages whose history/ghost entry was still retained
        /// (LRU-2/LRU-K retained stamps, ARC B1/B2 hits).
        pub ghost_hits,
        /// Victim-scan steps: victim-heap entries examined (returned, dropped
        /// as pinned, or re-keyed because stale), clock-hand advances,
        /// sieve-hand advances, list walks past pinned frames. Diagnostic: the
        /// determinism suites compare it across runs, nothing pins its value.
        pub scan_steps,
        /// Second chances granted (CLOCK reference-bit clears, SIEVE visited
        /// clears).
        pub second_chances,
        /// Victims taken from the probationary segment (ARC T1; other
        /// policies leave this 0).
        pub probation_evictions,
        /// Victims taken from the protected segment (ARC T2).
        pub protected_evictions,
    }
}

/// Victim selection + residency hooks for the DRAM pool.
///
/// The pool calls hooks under its latch; `slot` is the frame index. The
/// contract mirrors the pool's life cycle:
///
/// * [`on_install`](Self::on_install) — a page was installed into a
///   vacated slot; counts as the page's first access. Retained history
///   (if the policy keeps any) is adopted here.
/// * [`on_access`](Self::on_access) — a subsequent access (pool hit) or
///   an extra protection touch (read-ahead double-stamp).
/// * [`on_evict`](Self::on_evict) — the pool evicted the page in `slot`
///   (always the slot returned by the immediately preceding
///   [`select_victim`](Self::select_victim)); the policy may retain
///   per-page history for re-admission.
/// * [`on_remove`](Self::on_remove) — the page left the pool without
///   eviction semantics (failed install backed out); no history is kept.
/// * [`select_victim`](Self::select_victim) — pick an evictable slot;
///   `evictable(slot)` reports whether the frame is occupied and
///   unpinned. Returns `None` only if no evictable frame exists.
pub trait ReplacementPolicy: Send {
    /// Stable short name (diagnostics; bench JSON uses
    /// [`ReplacementKind::label`]).
    fn name(&self) -> &'static str;

    /// A page was installed into `slot` (first access included).
    fn on_install(&mut self, slot: usize, pid: PageId);

    /// The page in `slot` was accessed again.
    fn on_access(&mut self, slot: usize);

    /// The page in `slot` was evicted (history may be retained).
    fn on_evict(&mut self, slot: usize, pid: PageId);

    /// The page in `slot` was removed without eviction semantics.
    fn on_remove(&mut self, slot: usize, pid: PageId);

    /// Choose a victim among slots for which `evictable` returns true.
    fn select_victim(&mut self, evictable: &mut dyn FnMut(usize) -> bool) -> Option<usize>;

    /// Counter snapshot.
    fn stats(&self) -> PolicyStats;
}

// ------------------------------------------------- lazy victim heap ----

/// Min-heap of `(key, slot)` with at most **one entry per slot**, for
/// policies whose per-slot key only ever *grows* on a touch (LRU-2, LRU-K).
///
/// A touch does not move the slot's entry: the stored key goes stale, but
/// stays ≤ the slot's true key. [`pop_current`](Self::pop_current) repairs
/// that lazily — a popped minimum whose stored key is stale is re-keyed at
/// its true key and the scan continues — so it yields exactly the entries a
/// push-per-touch heap with revalidate-on-pop would find current, in the
/// same (true-key) order, while the heap stays bounded by the frame count
/// instead of growing by one entry per hit.
struct VictimHeap<K> {
    heap: BinaryHeap<Reverse<(K, usize)>>,
    /// `in_heap[slot]` ⟺ `heap` holds the slot's one entry.
    in_heap: Vec<bool>,
}

impl<K: Ord + Copy> VictimHeap<K> {
    fn new(frames: usize) -> Self {
        VictimHeap {
            heap: BinaryHeap::with_capacity(frames),
            in_heap: vec![false; frames],
        }
    }

    /// `slot` was touched and its key is now `key`: enter it if it has no
    /// entry; an existing entry is left to go stale.
    #[inline]
    fn note_touch(&mut self, slot: usize, key: K) {
        if !self.in_heap[slot] {
            self.push(slot, key);
        }
    }

    /// Enter `slot`, which must have no entry, at its true key.
    fn push(&mut self, slot: usize, key: K) {
        debug_assert!(!self.in_heap[slot], "slot {slot} already has an entry");
        self.in_heap[slot] = true;
        self.heap.push(Reverse((key, slot)));
    }

    /// Remove and return the slot with the smallest *true* key, re-keying
    /// every stale minimum met on the way. `steps` counts entries examined
    /// (returned or re-keyed). `None` when the heap is empty.
    fn pop_current(&mut self, key_of: impl Fn(usize) -> K, steps: &mut u64) -> Option<usize> {
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

/// The LRU-2 priority of a slot: its penultimate-access stamp, with the
/// last access as a tie-break. Lower sorts as "evict first"; slots touched
/// once have an empty (0) penultimate stamp and go first, oldest first.
type KDist = (u64, u64);

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
/// sequence is the one the pre-trait pool produced, so default
/// configurations replay bit-identically; see
/// `tests/policy_default_regression.rs` and the differential test below.
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
    heap: VictimHeap<KDist>,
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
}

impl ReplacementPolicy for Lru2Policy {
    fn name(&self) -> &'static str {
        "lru2"
    }

    fn on_install(&mut self, slot: usize, pid: PageId) {
        // Adopt retained history for a page being (re)installed, so the
        // touch below yields a non-empty penultimate stamp.
        if let Some(retained) = self.hist.remove(&pid) {
            self.stamps[slot] = retained;
            self.stats.ghost_hits += 1;
        }
        self.touch(slot);
    }

    fn on_access(&mut self, slot: usize) {
        self.touch(slot);
    }

    fn on_evict(&mut self, slot: usize, pid: PageId) {
        // A no-op when `slot` came from `select_victim`, which popped it.
        self.heap.remove(slot);
        let (last, prev) = std::mem::take(&mut self.stamps[slot]);
        self.retain_history(pid, last, prev);
    }

    fn on_remove(&mut self, slot: usize, _pid: PageId) {
        self.stamps[slot] = (0, 0);
        self.heap.remove(slot);
    }

    fn select_victim(&mut self, evictable: &mut dyn FnMut(usize) -> bool) -> Option<usize> {
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

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

// ------------------------------------------------------------ CLOCK ----

/// Second-chance CLOCK: a hand sweeps the frame array; a set reference
/// bit buys one more lap, a clear one selects the victim. Pages install
/// with the bit clear, so scan-once pages fall out after a single lap.
pub struct ClockPolicy {
    refbit: Vec<bool>,
    occupied: Vec<bool>,
    hand: usize,
    stats: PolicyStats,
}

impl ClockPolicy {
    pub fn new(frames: usize) -> Self {
        ClockPolicy {
            refbit: vec![false; frames],
            occupied: vec![false; frames],
            hand: 0,
            stats: PolicyStats::default(),
        }
    }
}

impl ReplacementPolicy for ClockPolicy {
    fn name(&self) -> &'static str {
        "clock"
    }

    fn on_install(&mut self, slot: usize, _pid: PageId) {
        self.occupied[slot] = true;
        self.refbit[slot] = false;
    }

    fn on_access(&mut self, slot: usize) {
        self.refbit[slot] = true;
    }

    fn on_evict(&mut self, slot: usize, _pid: PageId) {
        self.occupied[slot] = false;
        self.refbit[slot] = false;
    }

    fn on_remove(&mut self, slot: usize, _pid: PageId) {
        self.occupied[slot] = false;
        self.refbit[slot] = false;
    }

    fn select_victim(&mut self, evictable: &mut dyn FnMut(usize) -> bool) -> Option<usize> {
        let n = self.refbit.len();
        // Two full laps suffice when any evictable frame exists: the
        // first clears reference bits, the second must then land.
        for _ in 0..2 * n + 1 {
            let slot = self.hand;
            self.hand = (self.hand + 1) % n;
            self.stats.scan_steps += 1;
            if !self.occupied[slot] || !evictable(slot) {
                // Pinned or empty frames are skipped without consuming
                // their reference bit.
                continue;
            }
            if self.refbit[slot] {
                self.refbit[slot] = false;
                self.stats.second_chances += 1;
            } else {
                return Some(slot);
            }
        }
        None
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

// ------------------------------------------------------------ SIEVE ----

/// SIEVE: insertion-ordered list (head = newest) with a visited bit; the
/// hand moves from tail (oldest) toward head, evicting the first
/// unvisited node and clearing visited bits as it passes. Hits only set
/// the bit — resident pages never move, making hits O(1) with no
/// promotion churn.
pub struct SievePolicy {
    /// Intrusive list links; `usize::MAX` is "none".
    prev: Vec<usize>, // toward head (newer)
    next: Vec<usize>, // toward tail (older)
    in_list: Vec<bool>,
    visited: Vec<bool>,
    head: usize,
    tail: usize,
    /// Current hand position (`usize::MAX` = restart from tail).
    hand: usize,
    stats: PolicyStats,
}

const NIL: usize = usize::MAX;

impl SievePolicy {
    pub fn new(frames: usize) -> Self {
        SievePolicy {
            prev: vec![NIL; frames],
            next: vec![NIL; frames],
            in_list: vec![false; frames],
            visited: vec![false; frames],
            head: NIL,
            tail: NIL,
            hand: NIL,
            stats: PolicyStats::default(),
        }
    }

    fn unlink(&mut self, slot: usize) {
        if !self.in_list[slot] {
            return;
        }
        if self.hand == slot {
            self.hand = self.prev[slot];
        }
        let (p, n) = (self.prev[slot], self.next[slot]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n] = p;
        }
        self.prev[slot] = NIL;
        self.next[slot] = NIL;
        self.in_list[slot] = false;
        self.visited[slot] = false;
    }

    fn push_head(&mut self, slot: usize) {
        self.prev[slot] = NIL;
        self.next[slot] = self.head;
        if self.head != NIL {
            self.prev[self.head] = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
        self.in_list[slot] = true;
        self.visited[slot] = false;
    }
}

impl ReplacementPolicy for SievePolicy {
    fn name(&self) -> &'static str {
        "sieve"
    }

    fn on_install(&mut self, slot: usize, _pid: PageId) {
        self.push_head(slot);
    }

    fn on_access(&mut self, slot: usize) {
        if self.in_list[slot] {
            self.visited[slot] = true;
        }
    }

    fn on_evict(&mut self, slot: usize, _pid: PageId) {
        self.unlink(slot);
    }

    fn on_remove(&mut self, slot: usize, _pid: PageId) {
        self.unlink(slot);
    }

    fn select_victim(&mut self, evictable: &mut dyn FnMut(usize) -> bool) -> Option<usize> {
        let n = self.visited.len();
        // As with CLOCK, two passes over the list bound the scan: one to
        // clear visited bits, one to land on an unvisited node.
        for _ in 0..2 * n + 1 {
            let slot = if self.hand == NIL {
                self.tail
            } else {
                self.hand
            };
            if slot == NIL {
                return None;
            }
            self.stats.scan_steps += 1;
            if !evictable(slot) {
                // Pinned frames are passed over without clearing their
                // visited bit.
                self.hand = self.prev[slot];
                continue;
            }
            if self.visited[slot] {
                self.visited[slot] = false;
                self.stats.second_chances += 1;
                self.hand = self.prev[slot];
            } else {
                // The caller evicts this slot next; `on_evict`'s unlink
                // retreats the hand to the surviving newer neighbour.
                return Some(slot);
            }
        }
        None
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

// ------------------------------------------------------------ LRU-K ----

/// LRU-K: evict the page whose K-th most recent access is oldest (pages
/// with fewer than K accesses sort first, oldest last-access first).
/// Like [`Lru2Policy`] it keeps retained history for evicted pages and
/// orders victims with a [`VictimHeap`] (its key also only grows on a
/// touch), but it *re-enters* current entries popped while pinned instead
/// of dropping them, so the victim path never needs an O(frames) rebuild
/// scan.
pub struct LruKPolicy {
    k: usize,
    /// Per-slot access stamps, most recent first, at most `k` kept.
    stamps: Vec<Vec<u64>>,
    counter: u64,
    heap: VictimHeap<(u64, u64)>,
    /// Retained stamp history of evicted pages, bounded like LRU-2's.
    hist: PidMap<Vec<u64>>,
    /// Slots popped while pinned, re-entered after selection.
    stash: Vec<usize>,
    stats: PolicyStats,
}

impl LruKPolicy {
    pub fn new(frames: usize, k: usize) -> Self {
        let k = k.max(1);
        LruKPolicy {
            k,
            stamps: vec![Vec::new(); frames],
            counter: 0,
            heap: VictimHeap::new(frames),
            hist: PidMap::default(),
            stash: Vec::new(),
            stats: PolicyStats::default(),
        }
    }

    /// Priority of a slot with stamps `s`: (K-th most recent stamp or 0,
    /// last stamp).
    fn key(s: &[u64], k: usize) -> (u64, u64) {
        let kth = if s.len() >= k { s[k - 1] } else { 0 };
        (kth, s.first().copied().unwrap_or(0))
    }

    fn touch(&mut self, slot: usize) {
        self.counter += 1;
        let s = &mut self.stamps[slot];
        s.insert(0, self.counter);
        s.truncate(self.k);
        self.heap.note_touch(slot, Self::key(s, self.k));
    }
}

impl ReplacementPolicy for LruKPolicy {
    fn name(&self) -> &'static str {
        "lruk"
    }

    fn on_install(&mut self, slot: usize, pid: PageId) {
        if let Some(h) = self.hist.remove(&pid) {
            self.stamps[slot] = h;
            self.stats.ghost_hits += 1;
        }
        self.touch(slot);
    }

    fn on_access(&mut self, slot: usize) {
        self.touch(slot);
    }

    fn on_evict(&mut self, slot: usize, pid: PageId) {
        // A no-op when `slot` came from `select_victim`, which popped it.
        self.heap.remove(slot);
        let s = std::mem::take(&mut self.stamps[slot]);
        if !s.is_empty() {
            self.hist.insert(pid, s);
            let cap = 8 * self.stamps.len();
            if self.hist.len() > cap {
                let mut lasts: Vec<u64> = self
                    .hist
                    .values()
                    .map(|v| v.first().copied().unwrap_or(0))
                    .collect();
                let mid = lasts.len() / 2;
                let (_, &mut median, _) = lasts.select_nth_unstable(mid);
                self.hist
                    .retain(|_, v| v.first().copied().unwrap_or(0) >= median);
            }
        }
    }

    fn on_remove(&mut self, slot: usize, _pid: PageId) {
        self.stamps[slot].clear();
        self.heap.remove(slot);
    }

    fn select_victim(&mut self, evictable: &mut dyn FnMut(usize) -> bool) -> Option<usize> {
        let (stamps, k) = (&self.stamps, self.k);
        let key_of = |slot: usize| Self::key(&stamps[slot], k);
        let mut victim = None;
        while let Some(slot) = self.heap.pop_current(key_of, &mut self.stats.scan_steps) {
            if evictable(slot) {
                victim = Some(slot);
                break;
            }
            // Pinned but current: keep the slot in play for later picks.
            self.stash.push(slot);
        }
        for slot in self.stash.drain(..) {
            self.heap.push(slot, key_of(slot));
        }
        victim
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

// ------------------------------------------------------------ Ghost ----

/// Which resident list a frame is on (ARC terminology).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Segment {
    None,
    /// Probation: pages seen once since (re)admission.
    T1,
    /// Protected: pages re-referenced while resident.
    T2,
}

/// One intrusive LRU list over the shared link arrays.
#[derive(Clone, Copy)]
struct ListEnds {
    head: usize, // MRU
    tail: usize, // LRU
    len: usize,
}

impl ListEnds {
    fn new() -> Self {
        ListEnds {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }
}

/// ARC-style adaptive ghost-list policy. Resident pages live on two
/// LRU lists — T1 (probation: referenced once) and T2 (protected:
/// re-referenced) — and evicted pages leave a ghost entry in B1/B2. A
/// ghost hit on re-admission proves the page deserved more retention,
/// so the adaptive target `p` (T1's share of the pool) grows on B1 hits
/// and shrinks on B2 hits, exactly ARC's learning rule. Ghost lists are
/// bounded FIFOs with sequence-stamped entries (a stale dequeued entry
/// whose stamp mismatches the map is skipped, so re-added pages keep
/// their full ghost lifetime).
pub struct GhostPolicy {
    prev: Vec<usize>, // toward MRU
    next: Vec<usize>, // toward LRU
    seg: Vec<Segment>,
    t1: ListEnds,
    t2: ListEnds,
    /// Adaptive target for T1's size.
    p: usize,
    frames: usize,
    /// Ghost membership: pid -> (list, seq). Lookup-only (never
    /// iterated), so replay determinism is preserved.
    ghost: PidMap<(bool, u64)>, // true = B1
    b1: VecDeque<(PageId, u64)>,
    b2: VecDeque<(PageId, u64)>,
    ghost_seq: u64,
    stats: PolicyStats,
}

impl GhostPolicy {
    pub fn new(frames: usize) -> Self {
        GhostPolicy {
            prev: vec![NIL; frames],
            next: vec![NIL; frames],
            seg: vec![Segment::None; frames],
            t1: ListEnds::new(),
            t2: ListEnds::new(),
            p: 0,
            frames,
            ghost: PidMap::default(),
            b1: VecDeque::new(),
            b2: VecDeque::new(),
            ghost_seq: 0,
            stats: PolicyStats::default(),
        }
    }

    fn list(&mut self, s: Segment) -> &mut ListEnds {
        match s {
            Segment::T1 => &mut self.t1,
            // `None` never reaches here: callers check `seg` first.
            Segment::None | Segment::T2 => &mut self.t2,
        }
    }

    fn unlink(&mut self, slot: usize) {
        let s = self.seg[slot];
        if s == Segment::None {
            return;
        }
        let (p, n) = (self.prev[slot], self.next[slot]);
        let ends = self.list(s);
        if p == NIL {
            ends.head = n;
        } else {
            self.next[p] = n;
        }
        if n == NIL {
            self.list(s).tail = p;
        } else {
            self.prev[n] = p;
        }
        self.list(s).len -= 1;
        self.prev[slot] = NIL;
        self.next[slot] = NIL;
        self.seg[slot] = Segment::None;
    }

    fn push_mru(&mut self, slot: usize, s: Segment) {
        let ends = self.list(s);
        let old_head = ends.head;
        self.prev[slot] = NIL;
        self.next[slot] = old_head;
        if old_head != NIL {
            self.prev[old_head] = slot;
        }
        let ends = self.list(s);
        ends.head = slot;
        if ends.tail == NIL {
            ends.tail = slot;
        }
        ends.len += 1;
        self.seg[slot] = s;
    }

    fn ghost_insert(&mut self, pid: PageId, to_b1: bool) {
        self.ghost_seq += 1;
        let seq = self.ghost_seq;
        self.ghost.insert(pid, (to_b1, seq));
        let q = if to_b1 { &mut self.b1 } else { &mut self.b2 };
        q.push_back((pid, seq));
        // Bound each ghost list to the frame count, skipping entries
        // superseded by a later re-insertion of the same page.
        loop {
            let q = if to_b1 { &mut self.b1 } else { &mut self.b2 };
            if q.len() <= self.frames {
                break;
            }
            let Some((old, old_seq)) = q.pop_front() else {
                break;
            };
            match self.ghost.get(&old) {
                Some(&(l, s)) if l == to_b1 && s == old_seq => {
                    self.ghost.remove(&old);
                }
                _ => {} // stale queue entry; the live one is elsewhere
            }
        }
    }

    /// Walk `list` from its LRU end past pinned frames.
    fn lru_evictable(
        &mut self,
        s: Segment,
        evictable: &mut dyn FnMut(usize) -> bool,
    ) -> Option<usize> {
        let mut cur = self.list(s).tail;
        while cur != NIL {
            self.stats.scan_steps += 1;
            if evictable(cur) {
                return Some(cur);
            }
            cur = self.prev[cur];
        }
        None
    }
}

impl ReplacementPolicy for GhostPolicy {
    fn name(&self) -> &'static str {
        "ghost"
    }

    fn on_install(&mut self, slot: usize, pid: PageId) {
        match self.ghost.remove(&pid) {
            Some((true, _)) => {
                // B1 hit: recency working set is bigger than T1 — grow p.
                let delta = (self.b2.len() / self.b1.len().max(1)).max(1);
                self.p = (self.p + delta).min(self.frames);
                self.stats.ghost_hits += 1;
                self.push_mru(slot, Segment::T2);
            }
            Some((false, _)) => {
                // B2 hit: frequency set needs the space back — shrink p.
                let delta = (self.b1.len() / self.b2.len().max(1)).max(1);
                self.p = self.p.saturating_sub(delta);
                self.stats.ghost_hits += 1;
                self.push_mru(slot, Segment::T2);
            }
            None => self.push_mru(slot, Segment::T1),
        }
    }

    fn on_access(&mut self, slot: usize) {
        // Any re-reference promotes to (or refreshes) protected MRU.
        self.unlink(slot);
        self.push_mru(slot, Segment::T2);
    }

    fn on_evict(&mut self, slot: usize, pid: PageId) {
        let seg = self.seg[slot];
        self.unlink(slot);
        match seg {
            Segment::T1 => {
                self.stats.probation_evictions += 1;
                self.ghost_insert(pid, true);
            }
            Segment::T2 => {
                self.stats.protected_evictions += 1;
                self.ghost_insert(pid, false);
            }
            Segment::None => {}
        }
    }

    fn on_remove(&mut self, slot: usize, _pid: PageId) {
        self.unlink(slot);
    }

    fn select_victim(&mut self, evictable: &mut dyn FnMut(usize) -> bool) -> Option<usize> {
        // ARC's REPLACE: evict from T1 while it exceeds its target share,
        // else from T2; fall back to the other list when every frame of
        // the preferred one is pinned.
        let prefer_t1 = self.t1.len > self.p.max(1).min(self.frames) || self.t2.len == 0;
        let (first, second) = if prefer_t1 {
            (Segment::T1, Segment::T2)
        } else {
            (Segment::T2, Segment::T1)
        };
        self.lru_evictable(first, evictable)
            .or_else(|| self.lru_evictable(second, evictable))
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use turbopool_iosim::rng::{Rng, SeedableRng, SmallRng};

    /// Drive a policy like the pool does, with no pins: install pages
    /// into `frames` slots, touch on hit, evict on overflow. Returns the
    /// eviction sequence.
    struct Sim {
        policy: Box<dyn ReplacementPolicy>,
        resident: HashMap<PageId, usize>,
        slots: Vec<Option<PageId>>,
        free: Vec<usize>,
        evictions: Vec<PageId>,
    }

    impl Sim {
        fn new(kind: ReplacementKind, frames: usize) -> Self {
            Sim {
                policy: kind.build(frames),
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
                        .select_victim(&mut |s| slots[s].is_some())
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
        for kind in ReplacementKind::arena() {
            let mut sim = Sim::new(kind, 4);
            // Page 0 is hot; 1..=3 touched once; 4 forces an eviction.
            sim.access(PageId(0));
            sim.access(PageId(0));
            sim.access(PageId(0));
            for p in 1..=3 {
                sim.access(PageId(p));
            }
            sim.access(PageId(4));
            assert_eq!(sim.evictions.len(), 1, "{kind:?}");
            assert_ne!(sim.evictions[0], PageId(0), "{kind:?} evicted the hot page");
        }
    }

    #[test]
    fn every_policy_survives_full_churn_and_stays_consistent() {
        for kind in ReplacementKind::arena() {
            let mut sim = Sim::new(kind, 8);
            // Cyclic + skewed churn far beyond capacity.
            for i in 0..600u64 {
                sim.access(PageId(i % 40));
                if i % 3 == 0 {
                    sim.access(PageId(i % 5)); // hot set
                }
            }
            assert_eq!(sim.resident.len(), 8, "{kind:?}");
            assert!(sim.evictions.len() > 100, "{kind:?}");
        }
    }

    #[test]
    fn pinned_slots_are_never_selected() {
        for kind in ReplacementKind::arena() {
            let mut policy = kind.build(3);
            for (slot, pid) in [(0usize, 77u64), (1, 78), (2, 79)] {
                policy.on_install(slot, PageId(pid));
            }
            // Slot 1 is the only evictable frame.
            for _ in 0..3 {
                let v = policy.select_victim(&mut |s| s == 1).expect("frame 1 free");
                assert_eq!(v, 1, "{kind:?}");
                policy.on_evict(1, PageId(78));
                policy.on_install(1, PageId(78));
            }
        }
    }

    #[test]
    fn all_pinned_returns_none() {
        for kind in ReplacementKind::arena() {
            let mut policy = kind.build(2);
            policy.on_install(0, PageId(1));
            policy.on_install(1, PageId(2));
            assert_eq!(policy.select_victim(&mut |_| false), None, "{kind:?}");
            // And the policy still works afterwards.
            assert!(policy.select_victim(&mut |_| true).is_some(), "{kind:?}");
        }
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

    #[test]
    fn ghost_policy_adapts_target_on_ghost_hits() {
        let mut p = GhostPolicy::new(4);
        // Install + evict from T1 -> B1 ghost.
        p.on_install(0, PageId(5));
        p.on_evict(0, PageId(5));
        assert_eq!(p.stats().probation_evictions, 1);
        let before = p.p;
        p.on_install(0, PageId(5)); // B1 ghost hit
        assert_eq!(p.stats().ghost_hits, 1);
        assert!(p.p > before, "B1 hit grows the probation target");
        // The readmitted page is protected now; evicting it feeds B2.
        p.on_evict(0, PageId(5));
        assert_eq!(p.stats().protected_evictions, 1);
        p.on_install(0, PageId(5));
        assert_eq!(p.stats().ghost_hits, 2, "B2 ghost hit");
    }

    #[test]
    fn sieve_hand_resumes_after_eviction() {
        let mut p = SievePolicy::new(3);
        for (slot, pid) in [(0usize, 1u64), (1, 2), (2, 3)] {
            p.on_install(slot, PageId(pid));
        }
        // Oldest (slot 0) is unvisited -> first victim.
        let v = p.select_victim(&mut |_| true).expect("victim");
        assert_eq!(v, 0);
        p.on_evict(0, PageId(1));
        // Visit slot 1; next selection should skip it once and take 2.
        p.on_access(1);
        let v = p.select_victim(&mut |_| true).expect("victim");
        assert_eq!(v, 2, "visited node got its second chance");
        assert!(p.stats().second_chances >= 1);
    }

    #[test]
    fn lruk_prefers_pages_with_fewer_than_k_accesses() {
        let mut p = LruKPolicy::new(3, 3);
        p.on_install(0, PageId(1)); // 1 access
        p.on_install(1, PageId(2));
        p.on_install(2, PageId(3));
        // Page in slot 1 reaches K=3 accesses.
        p.on_access(1);
        p.on_access(1);
        let v = p.select_victim(&mut |_| true).expect("victim");
        assert_ne!(v, 1, "K-saturated page outlives once-touched pages");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ReplacementKind::Lru2.label(), "lru2");
        assert_eq!(ReplacementKind::LruK { k: 3 }.label(), "lru3");
        assert_eq!(ReplacementKind::default(), ReplacementKind::Lru2);
    }

    /// Victim order of an LRU-2 pool with nothing pinned, draining it.
    fn lru2_drain_order(p: &mut Lru2Policy, frames: usize) -> Vec<usize> {
        let mut gone = vec![false; frames];
        let mut order = Vec::new();
        while let Some(v) = p.select_victim(&mut |s| !gone[s]) {
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
        p.on_remove(1, PageId(1));
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
        assert_eq!(p.select_victim(&mut |_| true), oldest);
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
    }

    impl ReplacementPolicy for Lru2Oracle {
        fn name(&self) -> &'static str {
            "lru2-oracle"
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

        fn on_remove(&mut self, slot: usize, _pid: PageId) {
            self.stamps[slot] = (0, 0);
        }

        fn select_victim(&mut self, evictable: &mut dyn FnMut(usize) -> bool) -> Option<usize> {
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

        fn stats(&self) -> PolicyStats {
            PolicyStats::default()
        }
    }

    /// The push-per-touch LRU-K that `LruKPolicy` replaced (pinned current
    /// entries stashed and re-pushed, no rebuild arm).
    struct LruKOracle {
        k: usize,
        stamps: Vec<Vec<u64>>,
        counter: u64,
        heap: BinaryHeap<Reverse<((u64, u64), usize)>>,
        hist: HashMap<PageId, Vec<u64>>,
    }

    impl LruKOracle {
        fn new(frames: usize, k: usize) -> Self {
            LruKOracle {
                k,
                stamps: vec![Vec::new(); frames],
                counter: 0,
                heap: BinaryHeap::new(),
                hist: HashMap::new(),
            }
        }

        fn touch(&mut self, slot: usize) {
            self.counter += 1;
            self.stamps[slot].insert(0, self.counter);
            self.stamps[slot].truncate(self.k);
            let key = LruKPolicy::key(&self.stamps[slot], self.k);
            self.heap.push(Reverse((key, slot)));
        }
    }

    impl ReplacementPolicy for LruKOracle {
        fn name(&self) -> &'static str {
            "lruk-oracle"
        }

        fn on_install(&mut self, slot: usize, pid: PageId) {
            if let Some(h) = self.hist.remove(&pid) {
                self.stamps[slot] = h;
            }
            self.touch(slot);
        }

        fn on_access(&mut self, slot: usize) {
            self.touch(slot);
        }

        fn on_evict(&mut self, slot: usize, pid: PageId) {
            let s = std::mem::take(&mut self.stamps[slot]);
            self.hist.insert(pid, s);
            if self.hist.len() > 8 * self.stamps.len() {
                let mut lasts: Vec<u64> = self.hist.values().map(|v| v[0]).collect();
                lasts.sort_unstable();
                let median = lasts[lasts.len() / 2];
                self.hist.retain(|_, v| v[0] >= median);
            }
        }

        fn on_remove(&mut self, slot: usize, _pid: PageId) {
            self.stamps[slot].clear();
        }

        fn select_victim(&mut self, evictable: &mut dyn FnMut(usize) -> bool) -> Option<usize> {
            let mut victim = None;
            let mut stash = Vec::new();
            while let Some(Reverse((key, slot))) = self.heap.pop() {
                let s = &self.stamps[slot];
                if s.is_empty() || key != LruKPolicy::key(s, self.k) {
                    continue;
                }
                if evictable(slot) {
                    victim = Some(slot);
                    break;
                }
                stash.push(Reverse((key, slot)));
            }
            self.heap.extend(stash);
            victim
        }

        fn stats(&self) -> PolicyStats {
            PolicyStats::default()
        }
    }

    /// Drive `new` and `old` through one seeded random schedule of the
    /// pool's life cycle and assert they pick the same victim (or `None`)
    /// at every selection.
    fn run_schedule(
        seed: u64,
        frames: usize,
        new: &mut dyn ReplacementPolicy,
        old: &mut dyn ReplacementPolicy,
    ) {
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
                        new.on_remove(slot, pid);
                        old.on_remove(slot, pid);
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
                            let a = new.select_victim(&mut |s| occ(s) && s % 2 == 0);
                            let b = old.select_victim(&mut |s| occ(s) && s % 2 == 0);
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
                        let a = new.select_victim(&mut |s| evictable(s));
                        let b = old.select_victim(&mut |s| evictable(s));
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

    fn sorted<V: Clone + Ord>(m: impl IntoIterator<Item = (PageId, V)>) -> Vec<(PageId, V)> {
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

    #[test]
    fn lruk_one_entry_heap_matches_push_per_touch_oracle() {
        for (frames, k) in [(1usize, 1usize), (2, 2), (7, 3), (64, 3)] {
            for seed in 0..30u64 {
                let mut new = LruKPolicy::new(frames, k);
                let mut old = LruKOracle::new(frames, k);
                run_schedule(
                    0x4B00 + seed * 4 + frames as u64,
                    frames,
                    &mut new,
                    &mut old,
                );
                assert!(new.heap.len() <= frames);
                assert_eq!(new.stamps, old.stamps, "seed {seed} frames {frames}");
                assert_eq!(
                    sorted(new.hist.iter().map(|(&p, h)| (p, h.clone()))),
                    sorted(old.hist.iter().map(|(&p, h)| (p, h.clone()))),
                    "retained history, seed {seed} frames {frames}"
                );
            }
        }
    }
}
