//! The buffer pool proper: frames, page table, LRU-2 replacement, guards.
//!
//! One latch covers the page table, frame metadata, free list and
//! replacement policy; a slot index means the same frame everywhere (the
//! table's metadata, the pin counts, the frame data). Only the paper's SSD
//! buffer table is striped (`SsdManager::parts`, §3.3.4) — see DESIGN §3,
//! "Latching", for why the pool is not.
//!
//! # Pin counts
//!
//! A frame's pin count lives in an atomic beside the table, not in the
//! latched metadata. It *rises* only under the table latch (a hit in
//! `pin_resident`, or an install), and the evictor holds that latch while
//! it probes, so a frame it sees unpinned cannot gain a pin before it is
//! detached from the page table. It *falls* without any latch: dropping a
//! [`PageGuard`] is one `fetch_sub`. A decrement the evictor has not seen
//! yet only makes it pass over a frame it could have taken; one it has
//! seen means the guard is gone for good. A pool access is therefore one
//! latch acquisition, not a pin/unpin pair of them.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use turbopool_iosim::sync::{self, Mutex, MutexGuard, Rank, RwLock};
use turbopool_iosim::{Clk, IoError, Locality, PageBuf, PageId, PageTable, Time};

use crate::policy::{Lru2Policy, PolicyStats};
use crate::readahead::{Classifier, ClassifierKind, ClassifierStats};
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
}

impl BufferPoolConfig {
    pub fn new(frames: usize, page_size: usize, db_pages: u64) -> Self {
        BufferPoolConfig {
            frames,
            page_size,
            db_pages,
            fill_expansion: 8,
            classifier: ClassifierKind::ReadAhead,
        }
    }
}

turbopool_iosim::counters! {
    /// Buffer pool counters.
    pub struct PoolStats {
        pub hits,
        pub misses,
        pub evictions_clean,
        pub evictions_dirty,
        pub prefetched_pages,
        pub expanded_fill_pages,
        pub checkpoint_writes,
        /// Table-latch acquisitions. Deterministic in driver runs — a pure
        /// function of the operation sequence — so it participates safely in
        /// replay equality checks.
        pub shard_acquisitions,
        /// Table-latch acquisitions that found the latch held by another OS
        /// thread. Always 0 in deterministic driver runs (domains are
        /// share-nothing); nonzero only under the real-thread contention
        /// benches.
        pub shard_contended,
    }
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

/// An eviction decided under the table latch whose write-behind I/O is
/// still owed. The slot is privately owned by the holder until new data
/// is installed, so the victim's bytes survive in the frame meanwhile.
#[derive(Clone, Copy, Debug)]
struct PendingEvict {
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

/// Everything the table latch protects: the page table with its free
/// list, replacement policy and counters.
struct Table {
    /// Page number → slot; sized to the database.
    map: PageTable<u32>,
    meta: Vec<FrameMeta>,
    /// Pin count per slot, shared with the owning pool (see the module
    /// docs): raised through this handle, i.e. under the latch; lowered
    /// by guard drops through the pool's handle, latch-free.
    pins: Arc<[AtomicU32]>,
    free: Vec<usize>,
    /// Victim selection + access bookkeeping (pinned bit-for-bit by
    /// `tests/policy_default_regression`).
    policy: Lru2Policy,
    filled_once: bool,
    stats: PoolStats,
}

impl Table {
    fn new(frames: usize, db_pages: u64) -> Self {
        Table {
            map: PageTable::new(db_pages, u32::MAX),
            meta: vec![FrameMeta::empty(); frames],
            pins: (0..frames).map(|_| AtomicU32::new(0)).collect(),
            free: (0..frames).rev().collect(),
            policy: Lru2Policy::new(frames, db_pages),
            filled_once: false,
            stats: PoolStats::default(),
        }
    }

    /// Count one more pin on `slot`. `Relaxed` suffices: every reader that
    /// acts on a *rise* (the evictor) holds the latch this caller holds.
    fn pin(&self, slot: usize) {
        self.pins[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// Obtain a free slot, selecting and detaching the policy's victim if
    /// necessary — pure bookkeeping, no I/O, so it runs entirely under
    /// the table latch. When a page is evicted the caller receives a
    /// [`PendingEvict`] and must hand the frame's bytes to the storage
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
        #[expect(
            clippy::expect_used,
            reason = "an unpinnable pool is a caller bug; the paper's pool sizes guarantee headroom"
        )]
        let slot = policy
            .select_victim(|s| meta[s].pid.is_some() && unpinned(&pins[s]))
            .expect("buffer pool exhausted: every frame is pinned");
        let m = self.meta[slot];
        #[expect(
            clippy::expect_used,
            reason = "select_victim only returns slots the evictable callback approved"
        )]
        let victim = m.pid.expect("victim has a page");
        self.map.remove(victim);
        self.policy.on_evict(slot, victim);
        if m.dirty {
            self.stats.evictions_dirty += 1;
        } else {
            self.stats.evictions_clean += 1;
        }
        self.meta[slot] = FrameMeta::empty();
        (
            slot,
            Some(PendingEvict {
                victim,
                dirty: m.dirty,
                class: m.class,
            }),
        )
    }
}

/// The main-memory buffer pool.
///
/// Concurrency contract. Safe: any interleaving of logical clients that
/// runs on one OS thread at a time (every simulation path — a driver
/// domain owns its `Database`); real OS threads touching any pages, the
/// same non-resident page included; and a guard's unpin racing an
/// eviction on another thread (module docs, `tests/pool_unpin_threads.rs`).
/// A miss takes its frame's write latch before it releases the table
/// latch and fills the frame through that latch, so a thread that hits the
/// page meanwhile pins the frame but reads it only after the fill. If the
/// fill fails, the install is backed out after the frame latch is dropped,
/// and a thread that hit the page in between reads the unfilled frame.
pub struct BufferPool {
    cfg: BufferPoolConfig,
    layer: Arc<dyn PageIo>,
    inner: Mutex<Table>,
    /// The table's pin counts, reachable without its latch (for unpin).
    pins: Arc<[AtomicU32]>,
    /// Random/sequential classification. Its latch nests *inside* the
    /// table latch (`classifier` after `inner` in `lock_order.toml`) and
    /// is a leaf; hits never take it.
    classifier: Mutex<Classifier>,
    /// Contended table-latch acquisitions, counted *outside* the latch
    /// before waiting for it. Every acquisition is counted under the latch,
    /// in the table's `stats.shard_acquisitions`.
    contended: AtomicU64,
    /// Each frame is a handle on its page's image, shared with whichever
    /// tier the page came from or went to until somebody writes it.
    data: Vec<RwLock<PageBuf>>,
}

impl BufferPool {
    pub fn new(cfg: BufferPoolConfig, layer: Arc<dyn PageIo>) -> Self {
        assert!(cfg.frames > 0, "pool needs at least one frame");
        let table = Table::new(cfg.frames, cfg.db_pages);
        let zero = PageBuf::zeroed(cfg.page_size);
        let mut data = Vec::with_capacity(cfg.frames);
        data.resize_with(cfg.frames, || RwLock::ranked(Rank::FrameData, zero.clone()));
        BufferPool {
            classifier: Mutex::ranked(Rank::Classifier, Classifier::new(cfg.classifier)),
            pins: Arc::clone(&table.pins),
            inner: Mutex::ranked(Rank::PoolTable, table),
            contended: AtomicU64::new(0),
            data,
            cfg,
            layer,
        }
    }

    pub fn config(&self) -> &BufferPoolConfig {
        &self.cfg
    }

    /// Acquire the table latch, counting the acquisition and whether it
    /// was contended (latch held by another OS thread at that instant).
    fn lock_table(&self) -> MutexGuard<'_, Table> {
        let mut t = self.inner.try_lock().unwrap_or_else(|| {
            self.contended.fetch_add(1, Ordering::Relaxed);
            self.inner.lock()
        });
        t.stats.shard_acquisitions += 1;
        t
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
        let mut t = self.lock_table();
        if let Some(g) = self.pin_resident(&mut t, pid) {
            return Ok(g);
        }
        t.stats.misses += 1;
        let assigned = self.classifier.lock().classify_miss(pid, declared);

        // Pool-fill expansion: while the pool has never been full, a miss
        // fetches a run instead of one page.
        let expand = if !t.filled_once && self.cfg.fill_expansion > 1 {
            let run = self
                .cfg
                .fill_expansion
                .min(self.cfg.db_pages - pid.0)
                .min(t.free.len() as u64 + 1);
            run.max(1)
        } else {
            1
        };

        let (slot, evicted) = t.vacate_slot();
        t.meta[slot] = FrameMeta {
            pid: Some(pid),
            dirty: false,
            class: assigned,
        };
        t.pin(slot);
        t.map.insert(pid, slot as u32);
        t.policy.on_install(slot, pid);
        // The frame's write latch is taken before the table latch goes: a
        // thread that hits `pid` from here on pins the frame, but reads it
        // only once the fill below has landed.
        let mut frame = self.data[slot].write();
        drop(t);
        // Write-behind for the victim happens outside the table latch but
        // before any read fills the frame, preserving per-thread I/O order.
        if let Some(ev) = evicted {
            self.flush_evicted(clk.now, &ev, &frame);
        }

        if expand > 1 {
            let run = sync::io_under_latch(
                "frame write latch only, held so the fill lands atomically; the \
                 table latch is already released and the frame is pinned by this caller",
                || self.layer.read_run(clk, pid, expand),
            );
            let pages = match run {
                Ok(pages) => pages,
                Err(e) => {
                    drop(frame);
                    self.abandon_install(slot, pid);
                    return Err(e);
                }
            };
            // Run pages are installed by moving their handles into the
            // frames (the frame lets go of its old image), not by copying.
            debug_assert!(pages.iter().all(|p| p.len() == self.cfg.page_size));
            let mut pages = pages.into_iter();
            #[expect(
                clippy::expect_used,
                reason = "read_run returns exactly the `expand >= 2` pages asked for"
            )]
            let first = pages.next().expect("run has a first page");
            *frame = first;
            drop(frame);
            let mut t = self.lock_table();
            for (i, page) in pages.enumerate() {
                let extra = pid.offset(i as u64 + 1);
                if t.map.contains_key(extra) {
                    continue;
                }
                let Some(s) = t.free.pop() else { break };
                t.meta[s] = FrameMeta {
                    pid: Some(extra),
                    dirty: false,
                    // Expansion pages were not individually requested; they
                    // are opportunistic fill, classified random like the
                    // triggering request.
                    class: Locality::Random,
                };
                t.map.insert(extra, s as u32);
                t.policy.on_install(s, extra);
                t.stats.expanded_fill_pages += 1;
                *self.data[s].write() = page;
            }
            if t.free.is_empty() {
                t.filled_once = true;
            }
        } else {
            let read = sync::io_under_latch(
                "frame write latch only, held so the fill lands atomically; the \
                 table latch is already released and the frame is pinned by this caller",
                || self.layer.read_page_buf(clk, pid, assigned, &mut frame),
            );
            drop(frame);
            if let Err(e) = read {
                self.abandon_install(slot, pid);
                return Err(e);
            }
        }

        Ok(PageGuard {
            pool: self,
            slot,
            pid,
        })
    }

    /// The hit half of [`get`](Self::get), under the table latch the
    /// caller already holds: pin `pid` if it is resident, counting a hit
    /// and stamping the replacement policy. A non-resident page changes
    /// nothing (the miss is the caller's to count).
    fn pin_resident(&self, t: &mut Table, pid: PageId) -> Option<PageGuard<'_>> {
        let slot = t.map.get(pid)? as usize;
        debug_assert_eq!(t.meta[slot].pid, Some(pid), "page table and frame disagree");
        t.pin(slot);
        t.policy.on_access(slot);
        t.stats.hits += 1;
        Some(PageGuard {
            pool: self,
            slot,
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
        let mut t = self.lock_table();
        self.pin_resident(&mut t, pid)
    }

    /// Back out a miss installation whose read from below failed: the map
    /// entry, frame metadata, and replacement state all revert, returning
    /// the slot to the free list.
    fn abandon_install(&self, slot: usize, pid: PageId) {
        let mut t = self.lock_table();
        debug_assert_eq!(t.meta[slot].pid, Some(pid));
        t.map.remove(pid);
        t.meta[slot] = FrameMeta::empty();
        // The installer's own pin; no guard was ever made for it.
        t.pins[slot].fetch_sub(1, Ordering::Release);
        t.policy.on_remove(slot);
        t.free.push(slot);
    }

    /// Install never-written page `pid` from the caller's first image of
    /// it, without any read I/O (the page-allocation path): the handle is
    /// swapped into a dirty frame (no zero fill, no copy) and the frame's
    /// previous image comes back, contents unspecified — reusable if
    /// nothing else shares it.
    pub fn create_from(&self, now: Time, pid: PageId, image: PageBuf) -> PageBuf {
        assert_eq!(image.len(), self.cfg.page_size, "image is one page");
        debug_assert!(pid.0 < self.cfg.db_pages, "page {pid} beyond database");
        let mut t = self.lock_table();
        assert!(
            !t.map.contains_key(pid),
            "create_from() of resident page {pid}"
        );
        let (slot, evicted) = t.vacate_slot();
        t.meta[slot] = FrameMeta {
            pid: Some(pid),
            dirty: true,
            class: Locality::Random,
        };
        t.pin(slot);
        t.map.insert(pid, slot as u32);
        t.policy.on_install(slot, pid);
        drop(t);
        // The guard unpins the frame once its image is in.
        let _pin = PageGuard {
            pool: self,
            slot,
            pid,
        };
        if let Some(ev) = evicted {
            self.flush_evicted(now, &ev, &self.data[slot].read());
        }
        self.layer.note_dirtied(now, pid);
        let mut frame = self.data[slot].write();
        std::mem::replace(&mut *frame, image)
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
        let mut t = self.lock_table();
        // Pages of this run evicted *while installing it*: their entries in
        // `pages` were snapshotted before the eviction wrote newer bytes
        // below, so installing them would resurrect stale data. They are
        // skipped here and re-read (fresh) if the scan reaches them.
        let mut stale: Vec<bool> = vec![false; n as usize];
        // Evictions decided inside the loop owe write-behind I/O that must
        // not run under the table latch. A run page is installed by
        // swapping its handle into the frame, so the victim's image comes
        // out as the frame's old handle — no copy either way — and is
        // flushed after unlock; every booking lands at the same virtual
        // instant either way, so the deferral is invisible to the
        // simulation.
        let mut owed: Vec<(PendingEvict, PageBuf)> = Vec::with_capacity(n as usize);
        // One classifier latch for the run; it nests inside the table's.
        let mut classifier = self.classifier.lock();
        for (i, page) in pages.into_iter().enumerate() {
            let pid = first.offset(i as u64);
            if t.map.contains_key(pid) || stale[i] {
                continue;
            }
            let assigned = classifier.classify_prefetch(pid);
            let (slot, evicted) = t.vacate_slot();
            // `vacate_slot` hands back the victim's own slot, so the handle
            // swapped out of it is the victim's image.
            let old = std::mem::replace(&mut *self.data[slot].write(), page);
            if let Some(ev) = evicted {
                if ev.victim.0 >= first.0 && ev.victim.0 < first.0 + n {
                    stale[(ev.victim.0 - first.0) as usize] = true;
                }
                owed.push((ev, old));
            }
            t.meta[slot] = FrameMeta {
                pid: Some(pid),
                dirty: false,
                class: assigned,
            };
            t.map.insert(pid, slot as u32);
            // Double-stamp: install plus one protection access, in one
            // victim-heap entry. Under LRU-2 a single touch would leave the
            // page with an empty penultimate stamp, making it the preferred
            // victim — a full pool would evict read-ahead pages before the
            // scan consumes them, degrading every scan page to a random read.
            t.policy.on_install_protected(slot, pid);
            t.stats.prefetched_pages += 1;
        }
        drop(classifier);
        drop(t);
        for (ev, snap) in owed {
            self.layer
                .evict_page_buf(clk.now, ev.victim, &snap, ev.dirty, ev.class);
        }
        Ok(())
    }

    /// Hand an evicted page's image — the vacated frame's, read through
    /// the frame latch the caller holds — to the storage layer
    /// (write-behind). Eviction writes are asynchronous: device time is
    /// charged at `now` but the caller does not wait. Must be called
    /// *without* the table latch and *before* the frame is overwritten.
    fn flush_evicted(&self, now: Time, ev: &PendingEvict, image: &PageBuf) {
        sync::io_under_latch(
            "only the frame's latch is held (the table latch is released); \
             the slot is privately owned by this caller and eviction is a \
             non-blocking async booking",
            || {
                self.layer
                    .evict_page_buf(now, ev.victim, image, ev.dirty, ev.class)
            },
        );
    }

    /// Sharp checkpoint of the memory pool: write every dirty page below
    /// (asynchronously), wait for the slowest write, then ask the layer to
    /// flush anything *it* holds dirty (the SSD, under LC).
    ///
    /// One pass over the frame table collects the dirty, unpinned frames;
    /// they are written in ascending slot order.
    pub fn checkpoint(&self, clk: &mut Clk) {
        let dirty: Vec<(usize, PageId, Locality)> = {
            let t = self.lock_table();
            t.meta
                .iter()
                .enumerate()
                .filter(|&(s, m)| m.dirty && unpinned(&t.pins[s]))
                .filter_map(|(s, m)| Some((s, m.pid?, m.class)))
                .collect()
        };
        let mut done = clk.now;
        for (slot, pid, class) in dirty {
            // The frame latch protects only the handle clone, never the
            // write I/O below it; a writer that gets in afterwards copies
            // the image before changing it.
            let image = self.data[slot].read().clone();
            let w = self.layer.checkpoint_write_buf(clk.now, pid, &image, class);
            done = done.max(w);
            let mut t = self.lock_table();
            // Revalidate: the frame may have been recycled meanwhile.
            if t.meta[slot].pid == Some(pid) && t.meta[slot].dirty {
                t.meta[slot].dirty = false;
            }
            t.stats.checkpoint_writes += 1;
        }
        clk.wait_until(done);
        self.layer.checkpoint_flush(clk);
    }

    /// True if `pid` is resident.
    pub fn contains(&self, pid: PageId) -> bool {
        self.lock_table().map.contains_key(pid)
    }

    /// True if `pid` is resident and dirty.
    pub fn is_dirty(&self, pid: PageId) -> bool {
        let t = self.lock_table();
        t.map.get(pid).is_some_and(|s| t.meta[s as usize].dirty)
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.lock_table().map.len()
    }

    /// Number of frames some [`PageGuard`] (or an in-flight install)
    /// currently pins. Reads the pin counts without any latch, so it is
    /// exact only while no other thread is using the pool.
    pub fn pinned_frames(&self) -> usize {
        self.pins.iter().filter(|pin| !unpinned(pin)).count()
    }

    /// Number of dirty resident pages.
    pub fn dirty_count(&self) -> usize {
        self.lock_table().meta.iter().filter(|m| m.dirty).count()
    }

    /// Counter snapshot, including the table-latch counters (this call's
    /// own acquisition among them).
    pub fn stats(&self) -> PoolStats {
        let mut s = self.lock_table().stats;
        s.shard_contended = self.contended.load(Ordering::Relaxed);
        s
    }

    /// Replacement-policy counter snapshot (history adoptions, scan cost).
    pub fn policy_stats(&self) -> PolicyStats {
        self.lock_table().policy.stats()
    }

    /// Classifier confusion-matrix snapshot (§2.2 accuracy experiment).
    pub fn classifier_stats(&self) -> ClassifierStats {
        self.classifier.lock().stats()
    }

    /// Give a guard's pin back: no latch (see the module docs).
    fn unpin(&self, slot: usize) {
        let was = self.pins[slot].fetch_sub(1, Ordering::Release);
        debug_assert!(was > 0, "unpin of unpinned frame");
    }

    fn mark_dirty(&self, slot: usize, pid: PageId, now: Time) {
        let mut t = self.lock_table();
        let m = &mut t.meta[slot];
        debug_assert_eq!(m.pid, Some(pid));
        if !m.dirty {
            m.dirty = true;
            drop(t);
            // First dirtying invalidates any SSD copy (paper §2.2).
            self.layer.note_dirtied(now, pid);
        }
    }
}

/// A pinned page. Dropping the guard unpins the frame.
pub struct PageGuard<'a> {
    pool: &'a BufferPool,
    slot: usize,
    pid: PageId,
}

impl PageGuard<'_> {
    pub fn pid(&self) -> PageId {
        self.pid
    }

    /// Read access to the page bytes.
    pub fn read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        self.read_image(|image| f(image))
    }

    /// Read access to the frame's image itself, for a reader that keeps a
    /// value derived from the bytes on it ([`PageBuf::derived`]).
    pub fn read_image<R>(&self, f: impl FnOnce(&PageBuf) -> R) -> R {
        f(&self.pool.data[self.slot].read())
    }

    /// Write access to the page bytes; marks the page dirty and invalidates
    /// any SSD copy on the first dirtying. A frame that shares its image
    /// with another tier takes a private copy first.
    pub fn write<R>(&mut self, now: Time, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let r = f(self.pool.data[self.slot].write().as_mut_slice());
        self.pool.mark_dirty(self.slot, self.pid, now);
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
        self.pool.mark_dirty(self.slot, self.pid, now);
        old
    }

    /// Run `f` under the frame's write latch on the frame's own bytes if
    /// no other tier shares its image, or on `None` if one does. Neither
    /// dirties the page nor touches an SSD copy: `f` must leave the bytes
    /// as it found them, and a caller that keeps a change publishes it
    /// through [`write`](Self::write) or [`replace`](Self::replace).
    pub fn with_unshared<R>(&mut self, f: impl FnOnce(Option<&mut [u8]>) -> R) -> R {
        let mut image = self.pool.data[self.slot].write();
        if image.is_unique() {
            f(Some(image.as_mut_slice()))
        } else {
            f(None)
        }
    }

    /// Another handle on the frame's image.
    pub fn image(&self) -> PageBuf {
        self.pool.data[self.slot].read().clone()
    }
}

impl Drop for PageGuard<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::DirectIo;
    use turbopool_iosim::{DeviceSetup, IoManager};

    const PS: usize = 32;

    fn pool(frames: usize, db_pages: u64) -> (Arc<IoManager>, BufferPool) {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, db_pages, 8)));
        let layer = Arc::new(DirectIo::new(Arc::clone(&io)));
        let mut cfg = BufferPoolConfig::new(frames, PS, db_pages);
        cfg.fill_expansion = 1; // keep unit tests one-page-per-miss
        (io, BufferPool::new(cfg, layer))
    }

    #[test]
    fn with_unshared_lends_only_an_unshared_image_and_dirties_nothing() {
        let (io, p) = pool(4, 64);
        let mut clk = Clk::new();
        let pid = PageId(5);
        drop(p.create_from(0, pid, PageBuf::from_slice(&[7; PS])));
        p.checkpoint(&mut clk);
        // The disk store shares the frame's image after the checkpoint.
        let mut g = p.get_resident(pid).unwrap();
        assert!(g.with_unshared(|b| b.is_none()));
        // An equal image of the store's own: the frame's is unshared again.
        io.disk_store().write(pid, &[7; PS]);
        let stats = p.stats();
        let image = g.image().as_ptr();
        g.with_unshared(|b| {
            let b = b.expect("unshared");
            b[3] = 9;
            b[3] = 7;
        });
        let mut after = p.stats();
        after.shard_acquisitions -= 1; // the `stats` call's own
        assert_eq!(after, stats, "no table latch, no counter");
        assert_eq!(g.image().as_ptr(), image, "lent in place, not copied");
        assert!(!p.is_dirty(pid));
        // A handle held elsewhere shares it.
        let held = g.image();
        assert!(g.with_unshared(|b| b.is_none()));
        drop(held);
        assert!(g.with_unshared(|b| b.is_some()));
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
        let zero = PageBuf::zeroed(PS);
        p.create_from(0, PageId(9), zero.clone());
        assert_eq!(io.disk_stats().read_ops, 0);
        assert!(p.is_dirty(PageId(9)));
        assert!(p
            .get_resident(PageId(9))
            .expect("resident")
            .image()
            .same_image(&zero));
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

    /// A layer that records the pages a checkpoint writes, in order.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<PageId>>);

    impl PageIo for Recorder {
        fn read_page(
            &self,
            _: &mut Clk,
            _: PageId,
            _: Locality,
            _: &mut [u8],
        ) -> Result<(), IoError> {
            Ok(())
        }
        fn read_run(&self, _: &mut Clk, _: PageId, _: u64) -> Result<Vec<PageBuf>, IoError> {
            Ok(Vec::new())
        }
        fn evict_page(&self, _: Time, _: PageId, _: &[u8], _: bool, _: Locality) {}
        fn note_dirtied(&self, _: Time, _: PageId) {}
        fn checkpoint_write(&self, now: Time, pid: PageId, _: &[u8], _: Locality) -> Time {
            self.0.lock().push(pid);
            now
        }
        fn checkpoint_flush(&self, _: &mut Clk) {}
    }

    #[test]
    fn checkpoint_skips_pinned_frames_and_writes_in_slot_order() {
        let layer = Arc::new(Recorder::default());
        let p = BufferPool::new(BufferPoolConfig::new(4, PS, 64), layer.clone());
        // Created pages take slots 0, 1, 2, 3, out of page order.
        for pid in [9u64, 3, 7, 5] {
            drop(p.create_from(0, PageId(pid), PageBuf::from_slice(&[1; PS])));
        }
        let pinned = p.get_resident(PageId(7)).unwrap();
        p.checkpoint(&mut Clk::new());
        assert_eq!(*layer.0.lock(), [PageId(9), PageId(3), PageId(5)]);
        assert!(p.is_dirty(PageId(7)));
        assert_eq!(p.dirty_count(), 1);
        drop(pinned);
    }

    #[test]
    fn fill_expansion_reads_runs_until_full() {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 64, 8)));
        let layer = Arc::new(DirectIo::new(Arc::clone(&io)));
        let mut cfg = BufferPoolConfig::new(16, PS, 64);
        cfg.fill_expansion = 8;
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
    fn full_pool_round_trips_and_counts_uncontended_latches() {
        let (_io, p) = pool(16, 256);
        let mut clk = Clk::new();
        for i in 0..32u64 {
            let mut g = p.get(&mut clk, PageId(i), Locality::Random).unwrap();
            g.write(clk.now, |b| b[0] = i as u8);
        }
        // Every one of the 16 frames is usable.
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
