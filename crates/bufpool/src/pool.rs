//! The buffer pool proper: frames, hash table, pluggable replacement, guards.
//!
//! Since ISSUE 9 the pool is *lock-striped*: the page table, frame
//! metadata, free list, and replacement policy are split into N shards,
//! each behind its own latch, with shard assignment a pure function of
//! the page id ([`shard_of`]). Data slots are partitioned contiguously
//! (shard i owns global slots `base[i] .. base[i] + len[i]`), cross-shard
//! totals are folded in shard order, and `shards = 1` reproduces the
//! historical single-latch pool bit-for-bit (gated by
//! `tests/policy_default_regression.rs`).
//!
//! # Pin counts
//!
//! A frame's pin count lives in an atomic beside its shard, not in the
//! latched metadata. It *rises* only under the shard latch (a hit in
//! `pin_resident`, or an install), and the evictor holds that latch while
//! it probes, so a frame it sees unpinned cannot gain a pin before it is
//! detached from the page table. It *falls* without any latch: dropping a
//! [`PageGuard`] is one `fetch_sub`. A decrement the evictor has not seen
//! yet only makes it pass over a frame it could have taken; one it has
//! seen means the guard is gone for good. A pool access is therefore one
//! latch acquisition, not a pin/unpin pair of them.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use turbopool_iosim::sync::{Mutex, MutexGuard, RwLock};
use turbopool_iosim::{Clk, IoError, Locality, PageBuf, PageId, PidMap, Time};

use crate::policy::{PolicyStats, ReplacementKind, ReplacementPolicy};
use crate::readahead::{Classifier, ClassifierKind, ClassifierStats};
use crate::shard::{shard_of, ShardCount};
use crate::traits::PageIo;

/// Buffer pool sizing and behaviour knobs.
#[derive(Clone, Debug)]
pub struct BufferPoolConfig {
    /// Number of page frames (the paper dedicates 20 GB of DRAM).
    pub frames: usize,
    /// Page size in bytes.
    pub page_size: usize,
    /// Total pages in the database (bounds fill expansion and read-ahead).
    pub db_pages: u64,
    /// Until the pool first fills, expand every single-page miss into a run
    /// of this many pages — the host-DBMS behaviour the paper observes in
    /// §4.3.2 ("expands every single-page read request to an 8 page request
    /// until the buffer pool is filled"). `<= 1` disables.
    pub fill_expansion: u64,
    /// How page accesses are classified random/sequential (§2.2).
    pub classifier: ClassifierKind,
    /// Which replacement policy picks eviction victims (LRU-2 is the
    /// paper's choice and the regression-gated default).
    pub replacement: ReplacementKind,
    /// Lock stripes for the page table (`Auto` resolves from
    /// [`shard_hint`](Self::shard_hint); `Fixed(1)` = the legacy single
    /// latch).
    pub shards: ShardCount,
    /// Parallelism hint consulted by [`ShardCount::Auto`]. Defaults to 1
    /// so that default-configured pools keep the legacy layout on every
    /// machine — sharding must be opted into by configuration, never
    /// inferred from host core count (see `crate::shard` determinism
    /// note).
    pub shard_hint: usize,
}

impl BufferPoolConfig {
    pub fn new(frames: usize, page_size: usize, db_pages: u64) -> Self {
        BufferPoolConfig {
            frames,
            page_size,
            db_pages,
            fill_expansion: 8,
            classifier: ClassifierKind::ReadAhead,
            replacement: ReplacementKind::Lru2,
            shards: ShardCount::Auto,
            shard_hint: 1,
        }
    }
}

/// Buffer pool counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions_clean: u64,
    pub evictions_dirty: u64,
    pub prefetched_pages: u64,
    pub expanded_fill_pages: u64,
    pub checkpoint_writes: u64,
    /// Shard-latch acquisitions (every `lock_shard`, all shards summed).
    /// Deterministic in driver runs — a pure function of the operation
    /// sequence — so it participates safely in replay equality checks.
    pub shard_acquisitions: u64,
    /// Shard-latch acquisitions that found the latch held by another OS
    /// thread. Always 0 in deterministic driver runs (domains are
    /// share-nothing); nonzero only under the real-thread contention
    /// benches.
    pub shard_contended: u64,
}

impl PoolStats {
    /// Fraction of `get` calls served from memory.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of shard-latch acquisitions that were contended.
    pub fn contended_share(&self) -> f64 {
        if self.shard_acquisitions == 0 {
            0.0
        } else {
            self.shard_contended as f64 / self.shard_acquisitions as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct FrameMeta {
    pid: Option<PageId>,
    dirty: bool,
    class: Locality,
}

impl FrameMeta {
    fn empty() -> Self {
        FrameMeta {
            pid: None,
            dirty: false,
            class: Locality::Random,
        }
    }
}

/// An eviction decided under a shard latch whose write-behind I/O is
/// still owed. The slot is privately owned by the holder until new data
/// is installed, so the victim's bytes survive in the frame meanwhile.
/// `slot` is the *global* data-slot index.
#[derive(Clone, Copy, Debug)]
struct PendingEvict {
    slot: usize,
    victim: PageId,
    dirty: bool,
    class: Locality,
}

/// True if no guard is out on the frame counted by `pin`. `Acquire` pairs
/// with the `Release` decrement in [`BufferPool::unpin`], so whoever
/// recycles the frame does so after the last guard holder was done with it.
fn unpinned(pin: &AtomicU32) -> bool {
    pin.load(Ordering::Acquire) == 0
}

/// Sentinel for the intrusive dirty-list links.
const NIL: usize = usize::MAX;

/// One lock stripe: a slice of the page table with its own free list,
/// replacement policy, counters, and intrusive dirty list. All slot
/// indices inside a shard are *local* (`0 .. meta.len()`); the owning
/// pool maps them to global data slots by adding the shard's base.
struct Shard {
    map: PidMap<usize>,
    meta: Vec<FrameMeta>,
    /// Pin count per local slot, shared with the owning pool (see the
    /// module docs): raised through this handle, i.e. under the latch;
    /// lowered by guard drops through the pool's handle, latch-free.
    pins: Arc<[AtomicU32]>,
    free: Vec<usize>,
    /// Victim selection + access bookkeeping, behind the policy trait.
    /// Each shard owns its own instance (sized to the shard's frames), so
    /// victim selection never crosses a shard boundary. The default
    /// [`ReplacementKind::Lru2`] reproduces the pre-trait hardwired LRU-2
    /// bit-for-bit at `shards = 1` (see `tests/policy_default_regression`).
    policy: Box<dyn ReplacementPolicy>,
    filled_once: bool,
    stats: PoolStats,
    /// Intrusive doubly-linked list of dirty frames (local indices), so
    /// checkpoints and `dirty_count` never scan the whole frame table.
    /// Invariant: `meta[l].dirty` ⟺ `l` is linked ⟺ counted in `ndirty`.
    dprev: Vec<usize>,
    dnext: Vec<usize>,
    dhead: usize,
    dtail: usize,
    ndirty: usize,
}

impl Shard {
    fn new(frames: usize, replacement: ReplacementKind) -> Self {
        Shard {
            map: PidMap::with_capacity_and_hasher(frames, Default::default()),
            meta: vec![FrameMeta::empty(); frames],
            pins: (0..frames).map(|_| AtomicU32::new(0)).collect(),
            free: (0..frames).rev().collect(),
            policy: replacement.build(frames),
            filled_once: false,
            stats: PoolStats::default(),
            dprev: vec![NIL; frames],
            dnext: vec![NIL; frames],
            dhead: NIL,
            dtail: NIL,
            ndirty: 0,
        }
    }

    /// Count one more pin on local slot `l`. `Relaxed` suffices: every
    /// reader that acts on a *rise* (the evictor) holds the latch this
    /// caller holds.
    fn pin(&self, l: usize) {
        self.pins[l].fetch_add(1, Ordering::Relaxed);
    }

    /// Append local slot `l` to the dirty list (must not be linked).
    fn link_dirty(&mut self, l: usize) {
        debug_assert!(self.dprev[l] == NIL && self.dnext[l] == NIL && self.dhead != l);
        self.dprev[l] = self.dtail;
        self.dnext[l] = NIL;
        if self.dtail == NIL {
            self.dhead = l;
        } else {
            self.dnext[self.dtail] = l;
        }
        self.dtail = l;
        self.ndirty += 1;
    }

    /// Unlink local slot `l` from the dirty list (must be linked).
    fn unlink_dirty(&mut self, l: usize) {
        let (p, n) = (self.dprev[l], self.dnext[l]);
        if p == NIL {
            self.dhead = n;
        } else {
            self.dnext[p] = n;
        }
        if n == NIL {
            self.dtail = p;
        } else {
            self.dprev[n] = p;
        }
        self.dprev[l] = NIL;
        self.dnext[l] = NIL;
        self.ndirty -= 1;
    }

    /// Obtain a free local slot, selecting and detaching the policy's
    /// victim if necessary — pure bookkeeping, no I/O, so it runs
    /// entirely under the shard latch. When a page is evicted the caller
    /// receives a [`PendingEvict`] (with the slot still *local*; the
    /// pool rebases it) and must hand the frame's bytes to the storage
    /// layer (after releasing the latch) *before* overwriting the frame,
    /// since the slot still holds the victim's data.
    fn vacate_slot(&mut self) -> (usize, Option<PendingEvict>) {
        if let Some(slot) = self.free.pop() {
            return (slot, None);
        }
        self.filled_once = true;
        // Split borrow: the policy mutates its own state while probing
        // frame metadata through the callback.
        let (policy, meta, pins) = (&mut self.policy, &self.meta, &self.pins);
        let slot = policy
            .select_victim(&mut |s| meta[s].pid.is_some() && unpinned(&pins[s]))
            // lint: allow(panic) — an unpinnable pool is a caller bug; the paper's pool sizes guarantee headroom.
            .expect("buffer pool exhausted: every frame is pinned");
        let m = self.meta[slot];
        // lint: allow(panic) — select_victim only returns slots the evictable callback approved.
        let victim = m.pid.expect("victim has a page");
        self.map.remove(&victim);
        self.policy.on_evict(slot, victim);
        if m.dirty {
            self.stats.evictions_dirty += 1;
            self.unlink_dirty(slot);
        } else {
            self.stats.evictions_clean += 1;
        }
        self.meta[slot] = FrameMeta::empty();
        (
            slot,
            Some(PendingEvict {
                slot,
                victim,
                dirty: m.dirty,
                class: m.class,
            }),
        )
    }
}

/// Per-shard latch counters, kept *outside* the latch so counting a
/// contended acquisition never itself takes the latch.
#[derive(Default)]
struct LockCounters {
    acquisitions: AtomicU64,
    contended: AtomicU64,
}

/// The main-memory buffer pool.
///
/// Thread-safe for the discrete-event usage pattern of this workspace (one
/// logical client active at a time per domain, many logical clients
/// interleaved) *and* for real-thread access: shards are independent
/// latches, so threads touching different shards never serialize.
pub struct BufferPool {
    cfg: BufferPoolConfig,
    layer: Arc<dyn PageIo>,
    shards: Vec<Mutex<Shard>>,
    /// Each shard's pin counts, reachable without its latch (for unpin).
    pins: Vec<Arc<[AtomicU32]>>,
    /// Global data-slot base of each shard (contiguous partition).
    bases: Vec<usize>,
    nshards: usize,
    /// Random/sequential classification is shared: sequential-run
    /// detection must observe the global access stream, which spans
    /// shards. Its latch nests *inside* a shard latch (`classifier` after
    /// `shards` in `lock_order.toml`) and is a leaf.
    classifier: Mutex<Classifier>,
    locks: Vec<LockCounters>,
    /// The one zero image every never-filled frame starts as a handle on
    /// (and every freshly created page starts from).
    zero: PageBuf,
    /// Each frame is a handle on its page's image, shared with whichever
    /// tier the page came from or went to until somebody writes it.
    data: Vec<RwLock<PageBuf>>,
}

impl BufferPool {
    pub fn new(cfg: BufferPoolConfig, layer: Arc<dyn PageIo>) -> Self {
        assert!(cfg.frames > 0, "pool needs at least one frame");
        let nshards = cfg.shards.resolve(cfg.shard_hint, cfg.frames);
        let mut shards = Vec::with_capacity(nshards);
        let mut pins = Vec::with_capacity(nshards);
        let mut bases = Vec::with_capacity(nshards);
        let mut base = 0usize;
        for i in 0..nshards {
            // Contiguous split: the first `frames % nshards` shards take
            // one extra frame.
            let count = cfg.frames / nshards + usize::from(i < cfg.frames % nshards);
            bases.push(base);
            base += count;
            let shard = Shard::new(count, cfg.replacement);
            pins.push(Arc::clone(&shard.pins));
            shards.push(Mutex::new(shard));
        }
        debug_assert_eq!(base, cfg.frames);
        let zero = PageBuf::zeroed(cfg.page_size);
        let mut data = Vec::with_capacity(cfg.frames);
        data.resize_with(cfg.frames, || RwLock::new(zero.clone()));
        let mut locks = Vec::with_capacity(nshards);
        locks.resize_with(nshards, LockCounters::default);
        BufferPool {
            classifier: Mutex::new(Classifier::new(cfg.classifier)),
            locks,
            zero,
            shards,
            pins,
            bases,
            nshards,
            data,
            cfg,
            layer,
        }
    }

    pub fn config(&self) -> &BufferPoolConfig {
        &self.cfg
    }

    /// Resolved shard count (for benches/tests).
    pub fn shard_count(&self) -> usize {
        self.nshards
    }

    /// Which shard owns `pid` — a pure function of the page id.
    #[inline]
    fn shard_idx(&self, pid: PageId) -> usize {
        shard_of(pid.0, self.nshards)
    }

    /// Acquire shard `i`'s latch, counting the acquisition and whether it
    /// was contended (latch held by another OS thread at that instant).
    fn lock_shard(&self, i: usize) -> MutexGuard<'_, Shard> {
        let c = &self.locks[i];
        c.acquisitions.fetch_add(1, Ordering::Relaxed);
        if let Some(g) = self.shards[i].try_lock() {
            return g;
        }
        c.contended.fetch_add(1, Ordering::Relaxed);
        self.shards[i].lock()
    }

    /// Pin page `pid`, reading it from below on a miss. `declared` is the
    /// access method's ground-truth locality (index lookup = random, scan =
    /// sequential); the pool's classifier decides the *assigned* class that
    /// drives SSD admission.
    ///
    /// `Err` means the disk tier failed even after the storage layer's
    /// retries; the installation is backed out and the pool is left exactly
    /// as if the `get` had never happened.
    pub fn get(
        &self,
        clk: &mut Clk,
        pid: PageId,
        declared: Locality,
    ) -> Result<PageGuard<'_>, IoError> {
        debug_assert!(pid.0 < self.cfg.db_pages, "page {pid} beyond database");
        let shard = self.shard_idx(pid);
        let mut sh = self.lock_shard(shard);
        if let Some(g) = self.pin_resident(&mut sh, shard, pid) {
            return Ok(g);
        }
        sh.stats.misses += 1;
        let assigned = self.classifier.lock().classify_miss(pid, declared);

        // Pool-fill expansion: while this shard has never been full, a
        // miss fetches a run instead of one page. The clamp uses the
        // triggering shard's free count (at `shards = 1` exactly the
        // historical whole-pool clamp); expansion pages land in their own
        // shards' free frames.
        let expand = if !sh.filled_once && self.cfg.fill_expansion > 1 {
            let run = self
                .cfg
                .fill_expansion
                .min(self.cfg.db_pages - pid.0)
                .min(sh.free.len() as u64 + 1);
            run.max(1)
        } else {
            1
        };

        let (local, evicted) = sh.vacate_slot();
        let slot = self.bases[shard] + local;
        sh.meta[local] = FrameMeta {
            pid: Some(pid),
            dirty: false,
            class: assigned,
        };
        sh.pin(local);
        sh.map.insert(pid, local);
        sh.policy.on_install(local, pid);
        drop(sh);
        // Write-behind for the victim happens outside the shard latch but
        // before any read fills the frame, preserving per-thread I/O order.
        if let Some(mut ev) = evicted {
            ev.slot += self.bases[shard];
            self.flush_evicted(clk.now, &ev);
        }

        if expand > 1 {
            let pages = match self.layer.read_run(clk, pid, expand) {
                Ok(pages) => pages,
                Err(e) => {
                    self.abandon_install(shard, local, pid);
                    return Err(e);
                }
            };
            // Run pages are installed by moving their handles into the
            // frames (the frame lets go of its old image), not by copying.
            debug_assert!(pages.iter().all(|p| p.len() == self.cfg.page_size));
            let mut pages = pages.into_iter();
            // lint: allow(panic) — read_run returns exactly the `expand >= 2` pages asked for.
            *self.data[slot].write() = pages.next().expect("run has a first page");
            for (i, page) in pages.enumerate() {
                let extra = pid.offset(i as u64 + 1);
                let es = self.shard_idx(extra);
                let mut sh = self.lock_shard(es);
                if sh.map.contains_key(&extra) {
                    continue;
                }
                // A full shard takes no expansion page; other shards may
                // still have room (at `shards = 1` this is equivalent to
                // the historical `break`, since every later pop would
                // also fail).
                let Some(l) = sh.free.pop() else {
                    sh.filled_once = true;
                    continue;
                };
                sh.meta[l] = FrameMeta {
                    pid: Some(extra),
                    dirty: false,
                    // Expansion pages were not individually requested; they
                    // are opportunistic fill, classified random like the
                    // triggering request.
                    class: Locality::Random,
                };
                sh.map.insert(extra, l);
                sh.policy.on_install(l, extra);
                sh.stats.expanded_fill_pages += 1;
                *self.data[self.bases[es] + l].write() = page;
                if sh.free.is_empty() {
                    sh.filled_once = true;
                }
            }
            // The triggering page itself may have consumed its shard's
            // last free frame (the historical post-loop check).
            let mut sh = self.lock_shard(shard);
            if sh.free.is_empty() {
                sh.filled_once = true;
            }
        } else {
            let mut buf = self.data[slot].write();
            // lint: allow(lock-across-io) — frame write latch only, held so
            // the fill lands atomically; the shard latch is already released
            // and the frame is pinned by this caller.
            let read = self.layer.read_page_buf(clk, pid, assigned, &mut buf);
            drop(buf);
            if let Err(e) = read {
                self.abandon_install(shard, local, pid);
                return Err(e);
            }
        }

        Ok(PageGuard {
            pool: self,
            shard,
            local,
            slot,
            pid,
        })
    }

    /// The hit half of [`get`](Self::get), under the shard latch the
    /// caller already holds: pin `pid` if it is resident, counting a hit
    /// and stamping the replacement policy. A non-resident page changes
    /// nothing (the miss is the caller's to count).
    fn pin_resident(&self, sh: &mut Shard, shard: usize, pid: PageId) -> Option<PageGuard<'_>> {
        let &l = sh.map.get(&pid)?;
        sh.pin(l);
        sh.policy.on_access(l);
        sh.stats.hits += 1;
        // Hits deliberately do NOT touch the shared classifier:
        // `Classifier::observe_hit` is a no-op for every kind (the
        // proximity window learns from I/O-layer traffic only), and
        // taking its global latch here would re-serialize the hit
        // path that sharding just spread out.
        Some(PageGuard {
            pool: self,
            shard,
            local: l,
            slot: self.bases[shard] + l,
            pid,
        })
    }

    /// Pin `pid` only if it is already resident — exactly what
    /// [`get`](Self::get) does on a hit (same counters, same policy
    /// stamp), and nothing at all on a miss. Lets a caller that must
    /// decide *how* to fault a page in (read it, or create it fresh)
    /// probe residency and pin with one latch round trip instead of
    /// `contains` followed by `get`.
    pub fn get_resident(&self, pid: PageId) -> Option<PageGuard<'_>> {
        debug_assert!(pid.0 < self.cfg.db_pages, "page {pid} beyond database");
        let shard = self.shard_idx(pid);
        let mut sh = self.lock_shard(shard);
        self.pin_resident(&mut sh, shard, pid)
    }

    /// Back out a miss installation whose read from below failed: the map
    /// entry, frame metadata, and replacement state all revert, returning
    /// the slot to the free list.
    fn abandon_install(&self, shard: usize, local: usize, pid: PageId) {
        let mut sh = self.lock_shard(shard);
        debug_assert_eq!(sh.meta[local].pid, Some(pid));
        sh.map.remove(&pid);
        sh.meta[local] = FrameMeta::empty();
        // The installer's own pin; no guard was ever made for it.
        sh.pins[local].fetch_sub(1, Ordering::Release);
        sh.policy.on_remove(local, pid);
        sh.free.push(local);
    }

    /// Pin a *fresh* page that has never been written: installs a zeroed,
    /// dirty frame without any read I/O (page allocation path).
    pub fn create(&self, now: Time, pid: PageId) -> PageGuard<'_> {
        let g = self.install_fresh(now, pid);
        *self.data[g.slot].write() = self.zero.clone();
        g
    }

    /// [`create`](Self::create) for a caller that already holds the fresh
    /// page's first image: the handle is swapped into the dirty frame (no
    /// zero fill, no copy) and the frame's previous image comes back,
    /// contents unspecified — reusable if nothing else shares it.
    pub fn create_from(&self, now: Time, pid: PageId, image: PageBuf) -> PageBuf {
        assert_eq!(image.len(), self.cfg.page_size, "image is one page");
        let g = self.install_fresh(now, pid);
        let mut frame = self.data[g.slot].write();
        std::mem::replace(&mut *frame, image)
    }

    /// Claim a dirty, pinned frame for never-written page `pid`. The frame
    /// still holds its previous occupant's bytes (already handed below if
    /// it was evicted); the caller overwrites all of them.
    fn install_fresh(&self, now: Time, pid: PageId) -> PageGuard<'_> {
        debug_assert!(pid.0 < self.cfg.db_pages, "page {pid} beyond database");
        let shard = self.shard_idx(pid);
        let mut sh = self.lock_shard(shard);
        assert!(
            !sh.map.contains_key(&pid),
            "create() of resident page {pid}"
        );
        let (local, evicted) = sh.vacate_slot();
        let slot = self.bases[shard] + local;
        sh.meta[local] = FrameMeta {
            pid: Some(pid),
            dirty: true,
            class: Locality::Random,
        };
        sh.pin(local);
        sh.link_dirty(local);
        sh.map.insert(pid, local);
        sh.policy.on_install(local, pid);
        drop(sh);
        if let Some(mut ev) = evicted {
            ev.slot += self.bases[shard];
            self.flush_evicted(now, &ev);
        }
        self.layer.note_dirtied(now, pid);
        PageGuard {
            pool: self,
            shard,
            local,
            slot,
            pid,
        }
    }

    /// Read-ahead: fetch the run `first .. first + n` below and install any
    /// pages not already resident, unpinned and classified *sequential*.
    pub fn prefetch_run(&self, clk: &mut Clk, first: PageId, n: u64) -> Result<(), IoError> {
        assert!(first.0 + n <= self.cfg.db_pages, "prefetch beyond database");
        if n == 0 {
            return Ok(());
        }
        // A failed read-ahead installs nothing; the scan that requested it
        // simply falls back to demand reads of the same pages.
        let pages = self.layer.read_run(clk, first, n)?;
        debug_assert!(pages.iter().all(|p| p.len() == self.cfg.page_size));
        // Pages of this run evicted *while installing it*: their entries in
        // `pages` were snapshotted before the eviction wrote newer bytes
        // below, so installing them would resurrect stale data. They are
        // skipped here and re-read (fresh) if the scan reaches them.
        let mut stale: Vec<bool> = vec![false; n as usize];
        // Evictions decided inside the loop owe write-behind I/O that must
        // not run under a shard latch. A run page is installed by swapping
        // its handle into the frame, so the victim's image comes out as the
        // frame's old handle — no copy either way — and is flushed after
        // the loop; every booking lands at the same virtual instant either
        // way, so the deferral is invisible to the simulation.
        let mut owed: Vec<(PendingEvict, PageBuf)> = Vec::new();
        for (i, page) in pages.into_iter().enumerate() {
            let pid = first.offset(i as u64);
            let es = self.shard_idx(pid);
            let mut sh = self.lock_shard(es);
            if sh.map.contains_key(&pid) || stale[i] {
                continue;
            }
            let assigned = self.classifier.lock().classify_prefetch(pid);
            let (local, evicted) = sh.vacate_slot();
            // `vacate_slot` hands back the victim's own slot, so the handle
            // swapped out of it is the victim's image.
            let old = std::mem::replace(&mut *self.data[self.bases[es] + local].write(), page);
            if let Some(ev) = evicted {
                if ev.victim.0 >= first.0 && ev.victim.0 < first.0 + n {
                    stale[(ev.victim.0 - first.0) as usize] = true;
                }
                owed.push((ev, old));
            }
            sh.meta[local] = FrameMeta {
                pid: Some(pid),
                dirty: false,
                class: assigned,
            };
            sh.map.insert(pid, local);
            // Double-stamp: install plus one protection access. Under
            // LRU-2 a single touch would leave the page with an empty
            // penultimate stamp, making it the preferred victim — a full
            // pool would evict read-ahead pages before the scan consumes
            // them, degrading every scan page to a random read. Other
            // policies interpret the extra access in their own idiom
            // (CLOCK/SIEVE set the reference bit, ARC promotes to
            // protected), matching the read-ahead page protection of a
            // production buffer manager.
            sh.policy.on_install(local, pid);
            sh.policy.on_access(local);
            sh.stats.prefetched_pages += 1;
        }
        for (ev, snap) in owed {
            self.layer
                .evict_page_buf(clk.now, ev.victim, &snap, ev.dirty, ev.class);
        }
        Ok(())
    }

    /// Hand an evicted page's image to the storage layer (write-behind).
    /// Eviction writes are asynchronous: device time is charged at `now`
    /// but the caller does not wait. Must be called *without* any shard
    /// latch and *before* the vacated frame is overwritten.
    fn flush_evicted(&self, now: Time, ev: &PendingEvict) {
        let layer = &self.layer;
        let data = self.data[ev.slot].read();
        // lint: allow(lock-across-io) — only the frame's read latch is held
        // (the shard latch is released); the slot is privately owned by this
        // caller and evict_page is a non-blocking async booking.
        layer.evict_page_buf(now, ev.victim, &data, ev.dirty, ev.class);
    }

    /// Sharp checkpoint of the memory pool: write every dirty page below
    /// (asynchronously), wait for the slowest write, then ask the layer to
    /// flush anything *it* holds dirty (the SSD, under LC).
    ///
    /// Dirty frames come from each shard's intrusive dirty list (no full
    /// frame-table scan), collected in shard order and sorted by local
    /// slot — with contiguous shard bases that is exactly the historical
    /// ascending-global-slot write order.
    pub fn checkpoint(&self, clk: &mut Clk) {
        let mut dirty: Vec<(usize, usize, PageId, Locality)> = Vec::new();
        for i in 0..self.nshards {
            let sh = self.lock_shard(i);
            let mut locals: Vec<usize> = Vec::with_capacity(sh.ndirty);
            let mut l = sh.dhead;
            while l != NIL {
                if unpinned(&sh.pins[l]) {
                    locals.push(l);
                }
                l = sh.dnext[l];
            }
            locals.sort_unstable();
            for l in locals {
                // lint: allow(panic) — dirty-list members always hold a page.
                let pid = sh.meta[l].pid.expect("dirty frame has a page");
                dirty.push((i, l, pid, sh.meta[l].class));
            }
        }
        let mut done = clk.now;
        for (i, l, pid, class) in dirty {
            // The frame latch protects only the handle clone, never the
            // write I/O below it; a writer that gets in afterwards copies
            // the image before changing it.
            let image = self.data[self.bases[i] + l].read().clone();
            let t = self.layer.checkpoint_write_buf(clk.now, pid, &image, class);
            done = done.max(t);
            let mut sh = self.lock_shard(i);
            // Revalidate: the frame may have been recycled meanwhile.
            if sh.meta[l].pid == Some(pid) && sh.meta[l].dirty {
                sh.meta[l].dirty = false;
                sh.unlink_dirty(l);
            }
            sh.stats.checkpoint_writes += 1;
        }
        clk.wait_until(done);
        self.layer.checkpoint_flush(clk);
    }

    /// True if `pid` is resident.
    pub fn contains(&self, pid: PageId) -> bool {
        self.lock_shard(self.shard_idx(pid)).map.contains_key(&pid)
    }

    /// True if `pid` is resident and dirty.
    pub fn is_dirty(&self, pid: PageId) -> bool {
        let sh = self.lock_shard(self.shard_idx(pid));
        sh.map.get(&pid).map(|&l| sh.meta[l].dirty).unwrap_or(false)
    }

    /// Number of resident pages (folded in shard order).
    pub fn resident(&self) -> usize {
        (0..self.nshards)
            .map(|i| self.lock_shard(i).map.len())
            .sum()
    }

    /// Number of frames some [`PageGuard`] (or an in-flight install)
    /// currently pins. Reads the pin counts without any latch, so it is
    /// exact only while no other thread is using the pool.
    pub fn pinned_frames(&self) -> usize {
        self.pins
            .iter()
            .flat_map(|shard| shard.iter())
            .filter(|pin| !unpinned(pin))
            .count()
    }

    /// Number of dirty resident pages — O(shards), from the per-shard
    /// dirty-list counters.
    pub fn dirty_count(&self) -> usize {
        (0..self.nshards).map(|i| self.lock_shard(i).ndirty).sum()
    }

    /// Counter snapshot: per-shard counters folded in shard order, plus
    /// the latch-contention counters.
    pub fn stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for i in 0..self.nshards {
            let s = self.lock_shard(i).stats;
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions_clean += s.evictions_clean;
            total.evictions_dirty += s.evictions_dirty;
            total.prefetched_pages += s.prefetched_pages;
            total.expanded_fill_pages += s.expanded_fill_pages;
            total.checkpoint_writes += s.checkpoint_writes;
        }
        for c in &self.locks {
            total.shard_acquisitions += c.acquisitions.load(Ordering::Relaxed);
            total.shard_contended += c.contended.load(Ordering::Relaxed);
        }
        total
    }

    /// Replacement-policy counter snapshot (ghost hits, scan cost, …),
    /// folded across shards in shard order.
    pub fn policy_stats(&self) -> PolicyStats {
        let mut total = PolicyStats::default();
        for i in 0..self.nshards {
            let s = self.lock_shard(i).policy.stats();
            total.ghost_hits += s.ghost_hits;
            total.scan_steps += s.scan_steps;
            total.second_chances += s.second_chances;
            total.probation_evictions += s.probation_evictions;
            total.protected_evictions += s.protected_evictions;
        }
        total
    }

    /// Short name of the active replacement policy.
    pub fn policy_name(&self) -> &'static str {
        self.lock_shard(0).policy.name()
    }

    /// Classifier confusion-matrix snapshot (§2.2 accuracy experiment).
    pub fn classifier_stats(&self) -> ClassifierStats {
        self.classifier.lock().stats()
    }

    /// Give a guard's pin back: no latch (see the module docs).
    fn unpin(&self, shard: usize, local: usize) {
        let was = self.pins[shard][local].fetch_sub(1, Ordering::Release);
        debug_assert!(was > 0, "unpin of unpinned frame");
    }

    fn mark_dirty(&self, shard: usize, local: usize, pid: PageId, now: Time) {
        let mut sh = self.lock_shard(shard);
        let m = &mut sh.meta[local];
        debug_assert_eq!(m.pid, Some(pid));
        if !m.dirty {
            m.dirty = true;
            sh.link_dirty(local);
            drop(sh);
            // First dirtying invalidates any SSD copy (paper §2.2).
            self.layer.note_dirtied(now, pid);
        }
    }
}

/// A pinned page. Dropping the guard unpins the frame.
pub struct PageGuard<'a> {
    pool: &'a BufferPool,
    shard: usize,
    local: usize,
    /// Global data-slot index (`bases[shard] + local`).
    slot: usize,
    pid: PageId,
}

impl PageGuard<'_> {
    pub fn pid(&self) -> PageId {
        self.pid
    }

    /// Read access to the page bytes.
    pub fn read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(self.pool.data[self.slot].read().as_slice())
    }

    /// Write access to the page bytes; marks the page dirty and invalidates
    /// any SSD copy on the first dirtying. A frame that shares its image
    /// with another tier takes a private copy first.
    pub fn write<R>(&mut self, now: Time, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let r = f(self.pool.data[self.slot].write().as_mut_slice());
        self.pool.mark_dirty(self.shard, self.local, self.pid, now);
        r
    }

    /// [`write`](Self::write) for a caller that holds the page's complete
    /// new image: the handle is swapped into the frame under its write
    /// latch instead of being copied over it. Dirty marking and SSD
    /// invalidation are exactly `write`'s; the frame's previous image
    /// comes back, reusable if nothing else shares it.
    pub fn replace(&mut self, now: Time, image: PageBuf) -> PageBuf {
        assert_eq!(image.len(), self.pool.cfg.page_size, "image is one page");
        let old = std::mem::replace(&mut *self.pool.data[self.slot].write(), image);
        self.pool.mark_dirty(self.shard, self.local, self.pid, now);
        old
    }
}

impl Drop for PageGuard<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.shard, self.local);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::DirectIo;
    use turbopool_iosim::{DeviceSetup, IoManager};

    const PS: usize = 32;

    fn pool(frames: usize, db_pages: u64) -> (Arc<IoManager>, BufferPool) {
        pool_sharded(frames, db_pages, ShardCount::Fixed(1))
    }

    fn pool_sharded(
        frames: usize,
        db_pages: u64,
        shards: ShardCount,
    ) -> (Arc<IoManager>, BufferPool) {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, db_pages, 8)));
        let layer = Arc::new(DirectIo::new(Arc::clone(&io)));
        let mut cfg = BufferPoolConfig::new(frames, PS, db_pages);
        cfg.fill_expansion = 1; // keep unit tests one-page-per-miss
        cfg.shards = shards;
        (io, BufferPool::new(cfg, layer))
    }

    #[test]
    fn miss_then_hit() {
        let (_io, p) = pool(4, 64);
        let mut clk = Clk::new();
        {
            let g = p.get(&mut clk, PageId(1), Locality::Random).unwrap();
            assert_eq!(g.pid(), PageId(1));
        }
        let t_after_miss = clk.now;
        assert!(t_after_miss > 0);
        {
            let _g = p.get(&mut clk, PageId(1), Locality::Random).unwrap();
        }
        assert_eq!(clk.now, t_after_miss, "hit is free of I/O time");
        let s = p.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn writes_round_trip_through_eviction() {
        let (_io, p) = pool(2, 64);
        let mut clk = Clk::new();
        {
            let mut g = p.get(&mut clk, PageId(0), Locality::Random).unwrap();
            g.write(clk.now, |b| b[0] = 0xEE);
        }
        // Force page 0 out with two more pages.
        p.get(&mut clk, PageId(1), Locality::Random).unwrap();
        p.get(&mut clk, PageId(2), Locality::Random).unwrap();
        assert!(!p.contains(PageId(0)));
        assert_eq!(p.stats().evictions_dirty, 1);
        // Re-read from disk: the dirty eviction wrote it back.
        let g = p.get(&mut clk, PageId(0), Locality::Random).unwrap();
        assert_eq!(g.read(|b| b[0]), 0xEE);
    }

    #[test]
    fn lru2_prefers_scanned_once_pages() {
        let (_io, p) = pool(3, 64);
        let mut clk = Clk::new();
        // Page 0 is hot (touched twice), pages 1 and 2 touched once.
        p.get(&mut clk, PageId(0), Locality::Random).unwrap();
        p.get(&mut clk, PageId(0), Locality::Random).unwrap();
        p.get(&mut clk, PageId(1), Locality::Random).unwrap();
        p.get(&mut clk, PageId(2), Locality::Random).unwrap();
        // Pool full; a new page must evict 1 or 2, not the hot page 0.
        p.get(&mut clk, PageId(3), Locality::Random).unwrap();
        assert!(p.contains(PageId(0)));
        assert!(!p.contains(PageId(1)), "oldest once-touched page evicted");
    }

    #[test]
    fn pinned_pages_are_never_victims() {
        let (_io, p) = pool(2, 64);
        let mut clk = Clk::new();
        let _held = p.get(&mut clk, PageId(0), Locality::Random).unwrap();
        p.get(&mut clk, PageId(1), Locality::Random).unwrap();
        p.get(&mut clk, PageId(2), Locality::Random).unwrap(); // must evict 1, not 0
        assert!(p.contains(PageId(0)));
        assert!(!p.contains(PageId(1)));
    }

    #[test]
    #[should_panic(expected = "every frame is pinned")]
    fn all_pinned_pool_panics() {
        let (_io, p) = pool(1, 64);
        let mut clk = Clk::new();
        let _g = p.get(&mut clk, PageId(0), Locality::Random).unwrap();
        let _h = p.get(&mut clk, PageId(1), Locality::Random).unwrap();
    }

    #[test]
    fn create_skips_read_io_and_is_dirty() {
        let (io, p) = pool(2, 64);
        let g = p.create(0, PageId(9));
        drop(g);
        assert_eq!(io.disk_stats().read_ops, 0);
        assert!(p.is_dirty(PageId(9)));
    }

    #[test]
    fn get_resident_is_the_hit_half_of_get() {
        let (_io, p) = pool(4, 64);
        let mut clk = Clk::new();
        assert!(p.get_resident(PageId(3)).is_none());
        let s = p.stats();
        assert_eq!((s.hits, s.misses), (0, 0), "a failed probe counts nothing");
        p.get(&mut clk, PageId(3), Locality::Random).unwrap();
        let t = clk.now;
        let g = p.get_resident(PageId(3)).expect("resident after the miss");
        assert_eq!(g.pid(), PageId(3));
        drop(g);
        let s = p.stats();
        assert_eq!((s.hits, s.misses, clk.now), (1, 1, t));
        // Probe + unpin: one latch acquisition, like a `get` hit — the
        // unpin takes none.
        let a = p.stats().shard_acquisitions;
        drop(p.get_resident(PageId(3)));
        assert_eq!(p.stats().shard_acquisitions - a, 1 + 1, "+1 for stats()");
    }

    #[test]
    fn replace_swaps_the_image_in_and_dirties_like_write() {
        let (_io, p) = pool(2, 64);
        let mut clk = Clk::new();
        let mut g = p.get(&mut clk, PageId(0), Locality::Random).unwrap();
        g.write(clk.now, |b| b[0] = 0x11);
        let mut img = PageBuf::zeroed(PS);
        img.as_mut_slice()[0] = 0xEE;
        let old = g.replace(clk.now, img);
        assert_eq!(old.as_slice()[0], 0x11, "previous frame buffer comes back");
        assert_eq!(g.read(|b| b[0]), 0xEE);
        drop(g);
        assert!(p.is_dirty(PageId(0)));
        assert_eq!(p.dirty_count(), 1);
        // The swapped-in bytes are what eviction writes back.
        p.get(&mut clk, PageId(1), Locality::Random).unwrap();
        p.get(&mut clk, PageId(2), Locality::Random).unwrap();
        let g = p.get(&mut clk, PageId(0), Locality::Random).unwrap();
        assert_eq!(g.read(|b| b[0]), 0xEE);
    }

    #[test]
    fn create_from_installs_the_image_over_an_evicted_victim() {
        let (io, p) = pool(1, 64);
        let mut clk = Clk::new();
        {
            let mut g = p.get(&mut clk, PageId(0), Locality::Random).unwrap();
            g.write(clk.now, |b| b.fill(0x77));
        }
        let reads = io.disk_stats().read_ops;
        let mut img = PageBuf::zeroed(PS);
        img.as_mut_slice()[5] = 9;
        let old = p.create_from(clk.now, PageId(9), img);
        assert_eq!(old.len(), PS);
        assert_eq!(io.disk_stats().read_ops, reads, "no read I/O");
        assert!(p.is_dirty(PageId(9)));
        let g = p.get(&mut clk, PageId(9), Locality::Random).unwrap();
        g.read(|b| {
            assert_eq!(b[5], 9);
            assert!(b.iter().enumerate().all(|(i, &x)| i == 5 || x == 0));
        });
        drop(g);
        // The victim's bytes went below before its frame was reused.
        let mut buf = [0u8; PS];
        io.disk_store().read(PageId(0), &mut buf);
        assert_eq!(buf, [0x77; PS]);
    }

    #[test]
    fn prefetch_installs_unpinned_sequential_pages() {
        let (io, p) = pool(8, 64);
        let mut clk = Clk::new();
        p.prefetch_run(&mut clk, PageId(0), 4).unwrap();
        assert_eq!(p.resident(), 4);
        assert_eq!(p.stats().prefetched_pages, 4);
        // One multi-page request, not four single reads.
        assert!(io.disk_stats().read_ops <= 4);
        let before = p.stats().misses;
        p.get(&mut clk, PageId(2), Locality::Sequential).unwrap();
        assert_eq!(p.stats().misses, before, "prefetched page is a hit");
    }

    #[test]
    fn prefetch_never_resurrects_page_evicted_mid_install() {
        // Regression: read_run snapshots the whole run up front; installing
        // its early pages can evict a *dirty* resident page that lies later
        // in the same run. The eviction writes fresh bytes to disk, so the
        // pre-read snapshot of that page is stale and must not be installed.
        let (_io, p) = pool(4, 64);
        let mut clk = Clk::new();
        // Page 5 (inside the run below) is dirtied first, making it the
        // LRU-2 victim; pages 8..11 (outside the run) fill the remaining
        // frames so the stale install would stay resident afterwards.
        {
            let mut g = p.get(&mut clk, PageId(5), Locality::Random).unwrap();
            g.write(clk.now, |b| b[0] = 0xAB);
        }
        for pid in 8..11u64 {
            let mut g = p.get(&mut clk, PageId(pid), Locality::Random).unwrap();
            g.write(clk.now, |b| b[0] = pid as u8);
        }
        assert_eq!(p.dirty_count(), 4);
        // Installing page 4 evicts dirty page 5 (writing 0xAB to disk);
        // page 5's slot in the run must then NOT be filled from the
        // pre-eviction snapshot (zeroes).
        p.prefetch_run(&mut clk, PageId(4), 4).unwrap();
        let g = p.get(&mut clk, PageId(5), Locality::Random).unwrap();
        g.read(|b| assert_eq!(b[0], 0xAB, "page 5 lost its committed write"));
    }

    #[test]
    fn checkpoint_flushes_all_dirty_pages() {
        let (io, p) = pool(4, 64);
        let mut clk = Clk::new();
        for i in 0..3u64 {
            let mut g = p.get(&mut clk, PageId(i), Locality::Random).unwrap();
            g.write(clk.now, |b| b[0] = i as u8 + 1);
        }
        assert_eq!(p.dirty_count(), 3);
        let writes_before = io.disk_stats().write_ops;
        p.checkpoint(&mut clk);
        assert_eq!(p.dirty_count(), 0);
        assert_eq!(p.stats().checkpoint_writes, 3);
        assert_eq!(io.disk_stats().write_ops - writes_before, 3);
        // Disk now holds the new contents.
        let mut buf = [0u8; PS];
        io.disk_store().read(PageId(2), &mut buf);
        assert_eq!(buf[0], 3);
    }

    #[test]
    fn fill_expansion_reads_runs_until_full() {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 64, 8)));
        let layer = Arc::new(DirectIo::new(Arc::clone(&io)));
        let mut cfg = BufferPoolConfig::new(16, PS, 64);
        cfg.fill_expansion = 8;
        cfg.shards = ShardCount::Fixed(1);
        let p = BufferPool::new(cfg, layer);
        let mut clk = Clk::new();
        p.get(&mut clk, PageId(10), Locality::Random).unwrap();
        // One miss installed 8 pages (1 requested + 7 expansion).
        assert_eq!(p.resident(), 8);
        assert_eq!(p.stats().expanded_fill_pages, 7);
        assert!(p.contains(PageId(17)));
    }

    #[test]
    fn hit_rate_math() {
        let s = PoolStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(PoolStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn sharded_pool_round_trips_and_folds_counters() {
        let (_io, p) = pool_sharded(16, 256, ShardCount::Fixed(4));
        assert_eq!(p.shard_count(), 4);
        let mut clk = Clk::new();
        for i in 0..32u64 {
            let mut g = p.get(&mut clk, PageId(i), Locality::Random).unwrap();
            g.write(clk.now, |b| b[0] = i as u8);
        }
        // All 16 frames across the 4 shards should be usable.
        assert_eq!(p.resident(), 16);
        let s = p.stats();
        assert_eq!(s.misses, 32);
        assert_eq!(s.evictions_clean + s.evictions_dirty, 16);
        assert!(s.shard_acquisitions > 0, "latch acquisitions counted");
        assert_eq!(s.shard_contended, 0, "single-threaded: never contended");
        // Every written page reads back its byte (through eviction).
        for i in 0..32u64 {
            let g = p.get(&mut clk, PageId(i), Locality::Random).unwrap();
            assert_eq!(g.read(|b| b[0]), i as u8, "page {i}");
        }
    }

    #[test]
    fn sharded_checkpoint_writes_ascending_slots() {
        let (io, p) = pool_sharded(16, 256, ShardCount::Fixed(4));
        let mut clk = Clk::new();
        for i in 0..12u64 {
            let mut g = p.get(&mut clk, PageId(i), Locality::Random).unwrap();
            g.write(clk.now, |b| b[0] = 0xC0 | i as u8);
        }
        assert_eq!(p.dirty_count(), 12);
        p.checkpoint(&mut clk);
        assert_eq!(p.dirty_count(), 0);
        assert_eq!(p.stats().checkpoint_writes, 12);
        let mut buf = [0u8; PS];
        io.disk_store().read(PageId(7), &mut buf);
        assert_eq!(buf[0], 0xC0 | 7);
    }

    #[test]
    fn shard_assignment_is_pure_and_stable() {
        let (_io, p) = pool_sharded(16, 4096, ShardCount::Fixed(4));
        for k in 0..4096u64 {
            assert_eq!(
                p.shard_idx(PageId(k)),
                shard_of(k, 4),
                "routing is the published pure function"
            );
        }
    }

    #[test]
    fn dirty_list_tracks_evictions_and_redirtying() {
        let (_io, p) = pool(2, 64);
        let mut clk = Clk::new();
        {
            let mut g = p.get(&mut clk, PageId(0), Locality::Random).unwrap();
            g.write(clk.now, |b| b[0] = 1);
            g.write(clk.now, |b| b[1] = 2); // second write: no double-link
        }
        assert_eq!(p.dirty_count(), 1);
        // Evicting the dirty page unlinks it.
        p.get(&mut clk, PageId(1), Locality::Random).unwrap();
        p.get(&mut clk, PageId(2), Locality::Random).unwrap();
        assert!(!p.contains(PageId(0)));
        assert_eq!(p.dirty_count(), 0);
        p.checkpoint(&mut clk);
        assert_eq!(p.stats().checkpoint_writes, 0, "nothing left to write");
    }
}
