//! The SSD manager: one buffer table for the four designs (CW, DW, LC and
//! the TAC baseline).
//!
//! Implements [`PageIo`], interposing the SSD between the buffer manager
//! and the disk manager. What a design does is its row of the policy table
//! ([`crate::SsdDesign::policy`]), each column read in one place: where
//! pages enter (`enters`; TAC's on-read flow is `tac.rs`), where a dirty
//! eviction goes (`evict`), the DW checkpoint mirror (`checkpoint`), what
//! dirtying a page does to its copy (`note_dirtied`), what orders the
//! victims ([`SsdManager::new`]), and a run page's fallback (`tier.rs`).
//! CW/DW/LC admit a page when it is evicted from memory, guarded by the
//! admission rule (randomly-read pages only, except during aggressive
//! filling) and the throttle; replacement is LRU-2 over the clean order,
//! and dirty pages (LC only) are protected until the lazy cleaner or a
//! checkpoint flushes them.
//!
//! The throttle, audit, the page reads (the §3.3.3 modes included) and the
//! frame write are the device edge in `tier.rs`; retry, the write-behind,
//! the error budget, quarantine and the salvage of a lost sole copy are the
//! failure policy in `health.rs`, which a failed SSD I/O reaches by one
//! `settle` once no latch is held. An admission is one hold of its
//! partition latch: it frees a frame (cleaning the oldest dirty page inline
//! when every page is dirty), books the write, and admits the entry or
//! backs it out.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use turbopool_bufpool::PageIo;
use turbopool_iosim::sync::{self, Mutex, MutexGuard, Rank};
use turbopool_iosim::{Clk, IoError, IoManager, Locality, PageBuf, PageId, PageSrc, Time};

use crate::audit::{AuditOp, InvariantAuditor};
use crate::config::{DirtyEviction, Policy, Replacement, SsdConfig};
pub use crate::health::SSD_ERROR_BUDGET;
use crate::health::{Failure, Health};
use crate::metrics::SsdMetrics;
use crate::partition::{page_map, Heat, Partition, Record};

/// Outcome of a hardened warm import ([`SsdManager::import_table_checked`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ImportReport {
    /// Checkpointed table entries presented for re-adoption.
    pub attempted: usize,
    /// Entries re-adopted after probing clean.
    pub imported: usize,
    /// Entries rejected by the staleness filter (frame reused before the
    /// crash, page redone during recovery, or partition routing changed).
    pub rejected_stale: usize,
    /// Entries rejected because their probe failed without quarantining
    /// the SSD: the frame's stored bytes failed their checksum, or the read
    /// failed past its retries, within the error budget.
    pub rejected_checksum: usize,
    /// True when the import was aborted by a dead or persistently erroring
    /// SSD; the device is quarantined and the restart proceeds cold.
    pub aborted_dead: bool,
}

/// How a page enters the table: evicted from memory, `dirty` or not, its
/// copy served at once; or read from disk (TAC), its copy valid once its
/// write completes. An eviction's admission counts as a fill admission if
/// the SSD is below τ after it, a read's if it was before it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Entry {
    Evicted { dirty: bool },
    Read,
}

/// The SSD buffer-pool manager of every design.
pub struct SsdManager {
    pub(crate) cfg: SsdConfig,
    /// The design's row of the policy table.
    pub(crate) policy: Policy,
    pub(crate) io: Arc<IoManager>,
    pub(crate) parts: Vec<Mutex<Partition>>,
    /// LRU-2 access stamp source; `None` in a table ordered by extent
    /// heat, which has no recency to stamp.
    stamp: Option<AtomicU64>,
    /// Cached pages across all partitions, valid or not.
    occupancy: AtomicU64,
    /// Dirty cached pages across all partitions (LC only).
    dirty_total: AtomicU64,
    /// Logically invalid cached pages (TAC only): frames wasted until a
    /// refresh rewrites them.
    pub(crate) invalid_total: AtomicU64,
    /// While `now` is before this instant, dirty evictions are not cached
    /// (LC pauses dirty admission during a sharp checkpoint, §3.2).
    pause_dirty_until: AtomicU64,
    /// Quarantine flag, error count and salvage target.
    pub(crate) health: Health,
    /// Shadow state machine validating every buffer-table transition.
    pub(crate) auditor: InvariantAuditor,
    /// Counters for the evaluation harnesses.
    pub metrics: SsdMetrics,
}

impl SsdManager {
    /// Build a manager over the SSD frames of `io`. `cfg.frames` must not
    /// exceed the frame count of the simulated SSD file.
    pub fn new(cfg: SsdConfig, io: Arc<IoManager>) -> Self {
        assert!(cfg.frames <= io.ssd_frames(), "SSD file too small");
        assert!(cfg.partitions >= 1);
        let pages = io.db_pages();
        let policy = cfg.design.policy();
        // A heat order is one order over the whole SSD (the coldest extent
        // anywhere), so it takes one partition.
        let (n, heated) = match policy.replacement {
            Replacement::Lru2 => (cfg.partitions, false),
            Replacement::ExtentHeat => (1, true),
        };
        let map = page_map(pages);
        let parts = (0..n)
            .map(|i| {
                let f = partition_frames(cfg.frames, n, i);
                let heat = heated.then(|| {
                    let (random, sequential) = saved_ns(&io);
                    Heat::new(cfg.tac_extent_pages, pages, random, sequential)
                });
                let part = Partition::new(f.start, (f.end - f.start) as usize, map.clone(), heat);
                Mutex::ranked(Rank::SsdPartition, part)
            })
            .collect();
        SsdManager {
            health: Health::default(),
            auditor: InvariantAuditor::new(cfg.design, pages),
            cfg,
            policy,
            io,
            parts,
            stamp: (!heated).then(|| AtomicU64::new(0)),
            occupancy: AtomicU64::new(0),
            dirty_total: AtomicU64::new(0),
            invalid_total: AtomicU64::new(0),
            pause_dirty_until: AtomicU64::new(0),
            metrics: SsdMetrics::default(),
        }
    }

    /// Count a removed record out of the occupancy, dirty and invalid
    /// totals.
    pub(crate) fn forget(&self, rec: &Record) {
        self.occupancy.fetch_sub(1, Ordering::Relaxed);
        if rec.dirty {
            self.dirty_total.fetch_sub(1, Ordering::Relaxed);
        }
        if !rec.valid {
            self.invalid_total.fetch_sub(1, Ordering::Relaxed);
        }
    }

    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Is the table checkpointed for a warm restart? Only an LRU-2 order is:
    /// no checkpoint carries extent temperatures.
    pub fn warm_restart(&self) -> bool {
        self.cfg.warm_restart && self.stamp.is_some()
    }

    /// Pages currently cached, valid or not.
    pub fn occupancy(&self) -> u64 {
        self.occupancy.load(Ordering::Relaxed)
    }

    /// Dirty pages currently cached (nonzero only under LC).
    pub fn dirty_count(&self) -> u64 {
        self.dirty_total.load(Ordering::Relaxed)
    }

    /// Frames wasted on logically invalid pages (§2.5; nonzero only under
    /// TAC): its 7.4–10.4 GB waste numbers.
    pub fn invalid_frames(&self) -> u64 {
        self.invalid_total.load(Ordering::Relaxed)
    }

    /// True if the table holds a copy of `pid`, valid or not.
    pub fn contains(&self, pid: PageId) -> bool {
        self.part(pid).lookup(pid).is_some()
    }

    /// SSD frame number holding a valid copy of `pid`, if any (introspection
    /// for tests and tools; the frame indexes the simulated SSD file).
    pub fn frame_of(&self, pid: PageId) -> Option<u64> {
        let part = self.part(pid);
        let idx = part.lookup(pid)?;
        part.record(idx).valid.then(|| part.frame_no(idx))
    }

    /// True if `pid` is cached dirty (its SSD copy is newer than disk).
    pub fn is_dirty(&self, pid: PageId) -> bool {
        let part = self.part(pid);
        part.lookup(pid).is_some_and(|idx| part.record(idx).dirty)
    }

    #[inline]
    fn part_index(&self, pid: PageId) -> usize {
        // Multiplicative (Fibonacci) hash routes each page to one fixed
        // partition, preserving the shared-hash-table single-home property.
        let h = pid.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.parts.len()
    }

    pub(crate) fn part(&self, pid: PageId) -> MutexGuard<'_, Partition> {
        self.part_at(self.part_index(pid))
    }

    /// Acquire partition `idx`'s latch, counting the acquisition and
    /// whether it was contended (held by another OS thread at that instant).
    /// Both counters are pure functions of the op sequence in deterministic
    /// driver runs (contended is then always 0).
    pub(crate) fn part_at(&self, idx: usize) -> MutexGuard<'_, Partition> {
        SsdMetrics::bump(&self.metrics.shard_acquisitions);
        self.parts[idx].try_lock().unwrap_or_else(|| {
            SsdMetrics::bump(&self.metrics.shard_contended);
            self.parts[idx].lock()
        })
    }

    /// The next LRU-2 access stamp; `None` in a heat-ordered table.
    fn next_stamp(&self) -> Option<u64> {
        let stamp = self.stamp.as_ref()?;
        Some(stamp.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Aggressive filling (§3.3.1): until the SSD is τ-full, everything is
    /// admitted.
    pub(crate) fn filling(&self) -> bool {
        self.occupancy() < self.cfg.fill_target()
    }

    /// Does a page enter the table at `entry`, the point of its flow it has
    /// reached? Pages enter when read or when evicted, not both.
    pub(crate) fn enters(&self, entry: Entry) -> bool {
        (entry == Entry::Read) == self.policy.admit_on_read
    }

    /// Cache a clean copy of `pid` evicted or checkpointed at `now`, unless
    /// one is cached already: [`admit`](Self::admit) in one hold of the
    /// partition latch.
    fn install<S: PageSrc + ?Sized>(&self, now: Time, pid: PageId, data: &S) {
        let part = self.part(pid);
        if part.lookup(pid).is_none() {
            self.admit(part, now, pid, data, Entry::Evicted { dirty: false });
        }
    }

    /// Cache `data` for `pid`, entering at `entry`, in the caller's hold of
    /// `pid`'s partition latch, `part`, which found `pid` absent. A victim
    /// is replaced if no frame is free; the frame is picked, written, and
    /// the entry admitted or backed out before the latch goes, so a failed
    /// write never leaves an entry over never-written bytes (a torn or
    /// bit-flipped one is caught by the frame checksum on a later read).
    /// Whether a frame write was booked.
    pub(crate) fn admit<S: PageSrc + ?Sized>(
        &self,
        mut part: MutexGuard<'_, Partition>,
        now: Time,
        pid: PageId,
        data: &S,
        entry: Entry,
    ) -> bool {
        let dirty = entry == Entry::Evicted { dirty: true };
        if self.is_quarantined() {
            drop(part);
            if dirty {
                self.write_behind(now, pid, &[data]);
            }
            return false;
        }
        let was_filling = self.filling();
        let lost = if part.free_frames() == 0 {
            self.reclaim(now, &mut part)
        } else {
            None
        };
        // `None`: the partition owns no frame (more partitions than frames)
        // or has no victim to replace.
        let stamp = self.next_stamp().unwrap_or(0);
        let write = part.insert(pid, dirty, stamp).map(|idx| {
            let frame = part.frame_no(idx);
            let write = self.write_frame(now, frame, pid, data);
            match write {
                Ok(done) if entry == Entry::Read => {
                    part.validate(idx, done);
                }
                Ok(_) => {}
                Err(_) => {
                    part.remove(idx);
                }
            }
            write
        });
        let (booked, admitted) = (write.is_some(), matches!(write, Some(Ok(_))));
        if admitted {
            self.audit(pid, AuditOp::Admit { dirty });
            self.occupancy.fetch_add(1, Ordering::Relaxed);
            if dirty {
                self.dirty_total.fetch_add(1, Ordering::Relaxed);
            }
            SsdMetrics::bump(&self.metrics.admissions);
            let filling = match entry {
                Entry::Read => was_filling,
                Entry::Evicted { .. } => self.filling(),
            };
            if filling {
                SsdMetrics::bump(&self.metrics.fill_admissions);
            }
        }
        drop(part);
        if let Some(Err(f)) = write {
            self.settle(f);
        }
        if dirty && !admitted {
            // The page must still land somewhere durable.
            self.write_behind(now, pid, &[data]);
        }
        if let Some(f) = lost {
            self.settle(f);
        }
        booked
    }

    /// Free one frame in `part`, under its latch, by replacing the clean
    /// victim; when every page is dirty (LC under extreme λ), the oldest
    /// dirty page is cleaned inline instead: its sole copy is read off the
    /// SSD and written to disk (both charged asynchronously, since eviction
    /// is async) before its frame can be reused. Returns the failure when
    /// its copy was unreadable: the frame is freed all the same, and the
    /// caller settles the victim's loss once the latch is released. Frees
    /// nothing in a partition without valid pages.
    fn reclaim(&self, now: Time, part: &mut Partition) -> Option<Failure> {
        if let Some((_, victim)) = part.peek_clean_victim() {
            let rec = part.remove(victim);
            self.audit(rec.pid, AuditOp::Replace);
            self.forget(&rec);
            SsdMetrics::bump(&self.metrics.replacements);
            return None;
        }
        let (_, oldest) = part.peek_dirty_oldest()?;
        let frame = part.frame_no(oldest);
        let rec = part.remove(oldest);
        let victim = rec.pid;
        self.forget(&rec);
        SsdMetrics::bump(&self.metrics.replacements);
        let mut buf = self.io.zero_page();
        let mut tmp = Clk::at(now);
        let cleaned = sync::io_under_latch(
            "the freed frame must not be reused before the victim's sole copy \
             is read off it, and both I/Os are non-blocking virtual-time bookings",
            || -> Result<(), Failure> {
                self.ssd_read(&mut tmp, frame, &mut buf)?;
                self.write_behind(tmp.now, victim, &[&buf]);
                Ok(())
            },
        );
        if let Err(f) = cleaned {
            return Some(f.losing(victim));
        }
        self.audit(victim, AuditOp::InlineClean);
        SsdMetrics::bump(&self.metrics.inline_cleans);
        None
    }

    /// Export the SSD buffer table for embedding in a checkpoint record
    /// (the warm-restart extension). Must be called right after a sharp
    /// checkpoint, when every cached page is clean — dirty entries are
    /// skipped defensively.
    pub fn export_table(&self) -> Vec<(PageId, u64)> {
        let mut out = Vec::with_capacity(self.occupancy() as usize);
        for i in 0..self.parts.len() {
            let part = self.part_at(i);
            out.extend(
                part.iter()
                    .filter(|(_, r)| !r.dirty)
                    .map(|(idx, r)| (r.pid, part.frame_no(idx))),
            );
        }
        out
    }

    /// Re-adopt checkpointed SSD buffer-table entries after a restart.
    ///
    /// A frame must belong to the partition `pid` routes to (it does
    /// unless the partition count changed across restart); that is checked
    /// first, so neither the filter nor the probe sees a frame outside the
    /// table. `valid(pid, frame)` is the caller's staleness filter: it must
    /// return true only when the frame's in-page header still names `pid`
    /// (the frame was not reused before the crash) and `pid`'s disk image
    /// did not advance during redo. An entry whose frame or page an earlier
    /// entry took is stale too. Every candidate frame is *probed* — read
    /// back through the fault model with the standard retry policy and
    /// checksum verification — before the table entry is trusted.
    ///
    /// A probe that fails is settled like any SSD failure. If that leaves
    /// the SSD quarantined (a dead device, or the error that spent the
    /// budget) the import aborts there and the restart proceeds cold;
    /// otherwise only that frame is rejected (a torn write or bit flip from
    /// the previous incarnation).
    pub fn import_table_checked(
        &self,
        clk: &mut Clk,
        entries: &[(PageId, u64)],
        valid: impl Fn(PageId, u64) -> bool,
    ) -> ImportReport {
        let mut rep = ImportReport {
            attempted: entries.len(),
            ..ImportReport::default()
        };
        let mut buf = self.io.zero_page();
        for &(pid, frame) in entries {
            if self.is_quarantined() {
                rep.aborted_dead = true;
                break;
            }
            let part_idx = self.part_index(pid);
            let owned = partition_frames(self.cfg.frames, self.parts.len(), part_idx);
            let past_end = pid.0 >= self.io.db_pages();
            if past_end || !owned.contains(&frame) || !valid(pid, frame) {
                rep.rejected_stale += 1;
                SsdMetrics::bump(&self.metrics.warm_rejected_stale);
                continue;
            }
            if let Err(f) = self.ssd_read(clk, frame, &mut buf) {
                self.settle(f);
                if self.is_quarantined() {
                    rep.aborted_dead = true;
                    break;
                }
                rep.rejected_checksum += 1;
                SsdMetrics::bump(&self.metrics.warm_rejected_checksum);
                continue;
            }
            let mut part = self.part_at(part_idx);
            let stamp = self.next_stamp().unwrap_or(0);
            if !part.insert_at((frame - owned.start) as usize, pid, stamp) {
                rep.rejected_stale += 1;
                SsdMetrics::bump(&self.metrics.warm_rejected_stale);
                continue;
            }
            drop(part);
            self.audit(pid, AuditOp::WarmImport);
            rep.imported += 1;
            self.occupancy.fetch_add(1, Ordering::Relaxed);
            SsdMetrics::bump(&self.metrics.warm_imports);
        }
        rep
    }

    /// One lazy-cleaning batch (§3.3.5): take the oldest dirty page, gather
    /// up to α dirty pages at consecutive disk addresses around it, read
    /// them from the SSD and write them to disk as one I/O. Returns the
    /// number of pages cleaned (0 = no dirty pages).
    ///
    /// Called by [`crate::cleaner::LazyCleaner`] while the dirty count is
    /// above the λ high-water mark, and usable directly by tests.
    pub fn clean_batch(&self, clk: &mut Clk) -> usize {
        if self.is_quarantined() {
            return 0;
        }
        // Globally oldest dirty page.
        let anchor = (0..self.parts.len())
            .filter_map(|i| {
                let mut part = self.part_at(i);
                let (key, idx) = part.peek_dirty_oldest()?;
                Some((key, part.record(idx).pid))
            })
            .min_by_key(|&(key, _)| key);
        let Some((_, anchor_pid)) = anchor else {
            return 0;
        };

        // Gather a maximal consecutive-pid run of dirty pages around the
        // anchor, capped at α.
        let mut lo = anchor_pid;
        let mut hi = anchor_pid; // inclusive
        let mut count = 1u64;
        while count < self.cfg.alpha && hi.0 + 1 < self.io.db_pages() && self.is_dirty(hi.offset(1))
        {
            hi = hi.offset(1);
            count += 1;
        }
        while count < self.cfg.alpha && lo.0 > 0 && self.is_dirty(PageId(lo.0 - 1)) {
            lo = PageId(lo.0 - 1);
            count += 1;
        }

        let (pids, bufs) = self.gather(clk, (0..count).map(|i| lo.offset(i)));
        let (cleaned, writes) = self.flush_gathered(clk, &pids, &bufs);
        SsdMetrics::add(&self.metrics.cleaned_pages, cleaned as u64);
        SsdMetrics::add(&self.metrics.cleaner_writes, writes as u64);
        cleaned
    }

    /// Read the SSD copies of dirty `pids` into memory for a flush to disk
    /// (no direct SSD→disk path exists, §2.4). Pages are marked clean only
    /// after their disk write succeeds, so one whose frame is unreadable is
    /// dropped and rebuilt from the log by its frame read rather than
    /// silently lost; one whose entry is gone (a quarantine triggered
    /// earlier in the same batch swept the table) is skipped.
    fn gather(
        &self,
        clk: &mut Clk,
        pids: impl Iterator<Item = PageId>,
    ) -> (Vec<PageId>, Vec<PageBuf>) {
        pids.filter_map(|pid| {
            let frame = self.frame_of(pid)?;
            let mut buf = self.io.zero_page();
            self.read_frame(clk, pid, frame, &mut buf)
                .then_some((pid, buf))
        })
        .unzip()
    }

    /// Write the gathered `(pid, image)` pages to disk in consecutive-pid
    /// runs (the disk store ends up sharing the SSD frames' images),
    /// waiting out each write, and mark every written page clean.
    /// Returns `(pages cleaned, run writes issued)`. Pages are left dirty
    /// when the disk is dead (nothing can persist them).
    fn flush_gathered(&self, clk: &mut Clk, pids: &[PageId], bufs: &[PageBuf]) -> (usize, usize) {
        let (mut cleaned, mut writes, mut i) = (0usize, 0usize, 0usize);
        for run in pids.chunk_by(|a, b| b.0 == a.0 + 1) {
            let images = &bufs[i..i + run.len()];
            i += run.len();
            // A dead disk completes nothing: the pages stay dirty.
            let Some(done) = self.write_behind(clk.now, run[0], images) else {
                continue;
            };
            clk.wait_until(done);
            writes += 1;
            for &pid in run {
                let mut part = self.part(pid);
                let was_dirty = part.lookup(pid).is_some_and(|idx| part.set_clean(idx));
                drop(part);
                if was_dirty {
                    self.audit(pid, AuditOp::Clean);
                    self.dirty_total.fetch_sub(1, Ordering::Relaxed);
                    cleaned += 1;
                }
            }
        }
        (cleaned, writes)
    }
}

/// The SSD frames partition `idx` of `n` owns when `frames` are split as
/// evenly as possible, the first `frames % n` partitions taking one more.
fn partition_frames(frames: u64, n: usize, idx: usize) -> std::ops::Range<u64> {
    let (n, i) = (n as u64, idx as u64);
    let (per, extra) = (frames / n, frames % n);
    let base = i * per + i.min(extra);
    base..base + per + u64::from(i < extra)
}

/// Time an SSD read saves over a random and a sequential disk read: what a
/// miss of each class heats its extent by.
fn saved_ns(io: &IoManager) -> (u64, u64) {
    let setup = io.setup();
    let ssd = setup.ssd_profile.rand_read_ns;
    let disk = &setup.disk_profile;
    (
        disk.rand_read_ns.saturating_sub(ssd),
        disk.seq_read_ns.saturating_sub(ssd),
    )
}

/// The paper's CW/DW/LC admission rule (§2.2): while filling admit
/// everything, else randomly-read pages only — sequential traffic is cheap
/// on disk and would pollute the SSD. Orthogonal gates (quarantine,
/// throttle) are the callers'.
fn admits(class: Locality, filling: bool) -> bool {
    filling || class == Locality::Random
}

/// The bodies behind the [`PageIo`] entry points, each written once for
/// both forms a page crosses the seam in: a byte slice to copy, or a
/// [`PageBuf`] image to share.
impl SsdManager {
    fn evict<S: PageSrc + ?Sized>(
        &self,
        now: Time,
        pid: PageId,
        data: &S,
        dirty: bool,
        class: Locality,
    ) {
        if self.is_quarantined() {
            // Degraded noSSD path: dirty evictions go straight to disk.
            if dirty {
                self.write_behind(now, pid, &[data]);
            }
            return;
        }
        if !self.enters(Entry::Evicted { dirty }) {
            // Pages entered on read; a clean one is cached already. A dirty
            // one is written through to disk, as in a traditional DBMS, and
            // its SSD copy refreshed.
            if dirty {
                self.write_behind(now, pid, &[data]);
                if self.refresh_stale_copy(now, pid, data) {
                    SsdMetrics::bump(&self.metrics.admissions);
                }
            }
            return;
        }
        // One hold of the partition latch takes the presence check, both
        // gates and the admission; it is let go before any disk write.
        let part = self.part(pid);
        if let Some(idx) = part.lookup(pid) {
            // A valid SSD copy exists, so the evicted memory copy is
            // identical (a dirtied copy would have been invalidated).
            debug_assert!(!dirty, "dirty eviction with live SSD copy");
            debug_assert_eq!(part.record(idx).pid, pid);
            return;
        }
        if !admits(class, self.filling()) {
            drop(part);
            SsdMetrics::bump(&self.metrics.policy_rejections);
            if dirty {
                self.write_behind(now, pid, &[data]);
            }
            return;
        }
        let throttled = !self.admits_now(now, &mut None);
        // A clean page is cached; a dirty one goes where the design's row
        // says (§2.3). Write-back falls back to disk only, like CW, while
        // throttled or paused by a sharp checkpoint (§3.2). Its WAL
        // ordering is the engine's contract: the log was flushed at commit,
        // before the page could be evicted.
        let row = self.policy.dirty_eviction;
        let paused = now < self.pause_dirty_until.load(Ordering::Relaxed);
        let to = if row == DirtyEviction::Ssd && (throttled || paused) {
            DirtyEviction::Disk
        } else {
            row
        };
        // The SSD takes every clean page, and a dirty one the row sends it.
        let cache = !throttled && (!dirty || to != DirtyEviction::Disk);
        if dirty && to != DirtyEviction::Ssd {
            // The disk write comes first, outside the latch: the crash
            // schedule numbers durable writes in the order they are made.
            // The admission after it takes the latch again.
            drop(part);
            self.write_behind(now, pid, &[data]);
            if cache {
                self.install(now, pid, data);
            }
        } else if cache {
            self.admit(part, now, pid, data, Entry::Evicted { dirty });
        }
    }

    fn checkpoint<S: PageSrc + ?Sized>(
        &self,
        now: Time,
        pid: PageId,
        data: &S,
        class: Locality,
    ) -> Time {
        let done = self.write_behind(now, pid, &[data]).unwrap_or(now);
        // The DW mirror (§3.2) writes random-class pages to the SSD as well,
        // with no aggressive-filling term and, throttled, skipped uncounted.
        // TAC refreshes the copy its table still holds; CW and LC dropped
        // theirs when the page was dirtied.
        if self.policy.checkpoint_mirror {
            if admits(class, false) && !self.is_quarantined() && !self.throttled(now) {
                self.install(now, pid, data);
            }
        } else if self.policy.logical_invalidation {
            self.refresh_stale_copy(now, pid, data);
        }
        done
    }

    /// A pool miss of `pid` read as `class` looks in the table: it heats the
    /// extent (a heat order), and gets the entry `(frame, dirty)` a read may
    /// use, a clean one past the throttle gate; a served hit is stamped.
    pub(crate) fn probe(&self, now: Time, pid: PageId, class: Locality) -> Option<(u64, bool)> {
        let mut part = self.part(pid);
        part.heat(pid, class);
        let idx = part.lookup(pid)?;
        if !part.usable(idx, now) {
            return None;
        }
        let dirty = part.record(idx).dirty;
        (dirty || self.serves_clean_read(now)).then(|| {
            if let Some(stamp) = self.next_stamp() {
                part.touch(idx, stamp);
            }
            (part.frame_no(idx), dirty)
        })
    }

    /// The entries, `(frame, dirty)`, of the `n` pages from `first` that a
    /// run read at `now` may use, ignoring the throttle: one latch hold per
    /// stretch of pages in one partition.
    pub(crate) fn run_entries(&self, now: Time, first: PageId, n: u64) -> Vec<Option<(u64, bool)>> {
        let mut held: Option<(usize, MutexGuard<'_, Partition>)> = None;
        (0..n)
            .map(|i| {
                let pid = first.offset(i);
                let p = self.part_index(pid);
                if held.as_ref().is_some_and(|(q, _)| *q != p) {
                    held = None;
                }
                let (_, part) = held.get_or_insert_with(|| (p, self.part_at(p)));
                let idx = part.lookup(pid)?;
                part.usable(idx, now)
                    .then(|| (part.frame_no(idx), part.record(idx).dirty))
            })
            .collect()
    }

    /// A run page was just served from its SSD frame: in an LRU-2 order
    /// that is an access, stamped here.
    pub(crate) fn after_patch(&self, pid: PageId) {
        if let Some(stamp) = self.next_stamp() {
            let mut part = self.part(pid);
            if let Some(idx) = part.lookup(pid) {
                part.touch(idx, stamp);
            }
        }
    }
}

impl PageIo for SsdManager {
    fn read_page(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
        buf: &mut [u8],
    ) -> Result<(), IoError> {
        self.fetch_page(clk, pid, class, buf)
    }

    fn read_page_buf(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
        buf: &mut PageBuf,
    ) -> Result<(), IoError> {
        self.fetch_page(clk, pid, class, buf)
    }

    fn read_run(&self, clk: &mut Clk, first: PageId, n: u64) -> Result<Vec<PageBuf>, IoError> {
        self.fetch_run(clk, first, n)
    }

    fn evict_page(&self, now: Time, pid: PageId, data: &[u8], dirty: bool, class: Locality) {
        self.evict(now, pid, data, dirty, class);
    }

    fn evict_page_buf(&self, now: Time, pid: PageId, data: &PageBuf, dirty: bool, class: Locality) {
        self.evict(now, pid, data, dirty, class);
    }

    fn note_dirtied(&self, now: Time, pid: PageId) {
        let mut part = self.part(pid);
        let Some(idx) = part.lookup(pid) else {
            return;
        };
        let rec = *part.record(idx);
        if !rec.valid {
            return;
        }
        if !part.usable(idx, now) {
            // The copy's SSD write had not completed: it is cancelled
            // outright, and the page never reaches the SSD (the §4.2 race
            // that hurts TAC on update-heavy loads).
            part.remove(idx);
            self.forget(&rec);
            self.audit(pid, AuditOp::Cancel);
            SsdMetrics::bump(&self.metrics.tac_cancelled_writes);
        } else if self.policy.logical_invalidation {
            self.invalidate(&mut part, idx);
        } else {
            // Physical invalidation (§4.2): the frame returns to the free
            // list immediately.
            part.remove(idx);
            drop(part);
            self.audit(pid, AuditOp::Invalidate);
            self.forget(&rec);
            SsdMetrics::bump(&self.metrics.invalidations);
        }
    }

    fn checkpoint_write(&self, now: Time, pid: PageId, data: &[u8], class: Locality) -> Time {
        self.checkpoint(now, pid, data, class)
    }

    fn checkpoint_write_buf(
        &self,
        now: Time,
        pid: PageId,
        data: &PageBuf,
        class: Locality,
    ) -> Time {
        self.checkpoint(now, pid, data, class)
    }

    fn checkpoint_flush(&self, clk: &mut Clk) {
        if !self.policy.write_back() || self.is_quarantined() {
            return;
        }
        // Sharp checkpoint: every dirty SSD page goes to disk (§3.2).
        let mut dirty_pids: Vec<PageId> = Vec::new();
        for i in 0..self.parts.len() {
            let part = self.part_at(i);
            dirty_pids.extend(part.iter().filter(|(_, r)| r.dirty).map(|(_, r)| r.pid));
        }
        dirty_pids.sort_unstable();

        // Flush in consecutive-pid group-cleaning batches of up to α pages,
        // each gathered and written as in `clean_batch`.
        let mut total = 0usize;
        for run in dirty_pids.chunk_by(|a, b| b.0 == a.0 + 1) {
            for batch in run.chunks(self.cfg.alpha as usize) {
                let (pids, bufs) = self.gather(clk, batch.iter().copied());
                total += self.flush_gathered(clk, &pids, &bufs).0;
            }
        }
        SsdMetrics::add(&self.metrics.checkpoint_cleaned, total as u64);
    }

    fn has_copy(&self, pid: PageId) -> bool {
        self.contains(pid)
    }

    fn checkpoint_window(&self, _start: Time, end: Time) {
        if self.policy.write_back() {
            self.pause_dirty_until.store(end, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MultiPageMode, SsdDesign};
    use turbopool_iosim::DeviceSetup;

    const PS: usize = 32;

    fn mk(design: SsdDesign, frames: u64) -> (Arc<IoManager>, SsdManager) {
        // Single partition: page→partition routing is a hash, so tests that
        // count frames per partition would be distribution-dependent with
        // more than one.
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 1024, frames)));
        let mut cfg = SsdConfig::new(design, frames);
        cfg.partitions = 1;
        (Arc::clone(&io), SsdManager::new(cfg, io))
    }

    fn page(tag: u8) -> Vec<u8> {
        vec![tag; PS]
    }

    /// The pages a manager's salvage target was handed, call by call.
    type Salvaged = Arc<Mutex<Vec<Vec<PageId>>>>;

    /// `m` with a salvage target that records what it is handed and, when
    /// `image` is given, writes it to the disk as each page's committed
    /// image.
    fn recording(m: SsdManager, image: Option<Vec<u8>>) -> (SsdManager, Salvaged) {
        let got: Salvaged = Arc::new(Mutex::new(Vec::new()));
        let (log, io) = (Arc::clone(&got), Arc::clone(&m.io));
        let m = m.with_salvage(move |pids| {
            log.lock().push(pids.to_vec());
            if let Some(image) = &image {
                for &pid in pids {
                    io.write_disk_async(0, pid, image, Locality::Random)
                        .unwrap();
                }
            }
            pids.len()
        });
        (m, got)
    }

    #[test]
    fn random_only_matches_the_paper_rule() {
        assert!(admits(Locality::Random, false));
        assert!(!admits(Locality::Sequential, false));
        assert!(admits(Locality::Sequential, true));
    }

    #[test]
    fn random_clean_evictions_are_cached_and_hit() {
        let (io, m) = mk(SsdDesign::DualWrite, 16);
        m.evict_page(0, PageId(5), &page(0xA5), false, Locality::Random);
        assert!(m.contains(PageId(5)));
        assert_eq!(m.occupancy(), 1);
        let mut clk = Clk::new();
        let mut buf = page(0);
        m.read_page(&mut clk, PageId(5), Locality::Random, &mut buf)
            .unwrap();
        assert_eq!(buf[0], 0xA5);
        assert_eq!(m.metrics.snapshot().ssd_hits, 1);
        // The hit was served by the SSD device, not the disks.
        assert_eq!(io.disk_stats().read_ops, 0);
    }

    #[test]
    fn sequential_evictions_rejected_after_fill_phase() {
        let (_io, m) = mk(SsdDesign::DualWrite, 16);
        // Finish the filling phase first (τ = 95% of 16 = 15 frames).
        for i in 0..15u64 {
            m.evict_page(0, PageId(100 + i), &page(1), false, Locality::Sequential);
        }
        assert_eq!(m.occupancy(), 15, "aggressive filling admits everything");
        // Fill target reached: sequential pages now bounce.
        m.evict_page(0, PageId(500), &page(2), false, Locality::Sequential);
        assert!(!m.contains(PageId(500)));
        assert_eq!(m.metrics.snapshot().policy_rejections, 1);
        // Random pages still enter.
        m.evict_page(0, PageId(501), &page(3), false, Locality::Random);
        assert!(m.contains(PageId(501)));
    }

    #[test]
    fn cw_never_caches_dirty() {
        let (io, m) = mk(SsdDesign::CleanWrite, 16);
        m.evict_page(0, PageId(1), &page(9), true, Locality::Random);
        assert!(!m.contains(PageId(1)));
        assert_eq!(io.disk_stats().write_ops, 1, "dirty page went to disk");
        assert_eq!(io.ssd_stats().write_ops, 0);
    }

    #[test]
    fn dw_writes_dirty_to_both() {
        let (io, m) = mk(SsdDesign::DualWrite, 16);
        m.evict_page(0, PageId(1), &page(9), true, Locality::Random);
        assert!(m.contains(PageId(1)));
        assert!(!m.is_dirty(PageId(1)), "DW's SSD copy matches disk");
        assert_eq!(io.disk_stats().write_ops, 1);
        assert_eq!(io.ssd_stats().write_ops, 1);
    }

    #[test]
    fn lc_keeps_dirty_only_on_ssd() {
        let (io, m) = mk(SsdDesign::LazyCleaning, 16);
        m.evict_page(0, PageId(1), &page(9), true, Locality::Random);
        assert!(m.is_dirty(PageId(1)));
        assert_eq!(m.dirty_count(), 1);
        assert_eq!(io.disk_stats().write_ops, 0, "no disk write until cleaned");
        assert_eq!(io.ssd_stats().write_ops, 1);
    }

    #[test]
    fn dirtying_invalidates_physically() {
        let (_io, m) = mk(SsdDesign::DualWrite, 16);
        m.evict_page(0, PageId(1), &page(1), false, Locality::Random);
        assert_eq!(m.occupancy(), 1);
        m.note_dirtied(0, PageId(1));
        assert!(!m.contains(PageId(1)));
        assert_eq!(m.occupancy(), 0, "frame returned to the free list");
        assert_eq!(m.metrics.snapshot().invalidations, 1);
    }

    #[test]
    fn replacement_evicts_lru2_clean_victim() {
        let (_io, m) = mk(SsdDesign::DualWrite, 16);
        for i in 0..16u64 {
            m.evict_page(0, PageId(i), &page(i as u8), false, Locality::Random);
        }
        assert_eq!(m.occupancy(), 16);
        // Re-reference pages 1..16 from the SSD so page 0 is the LRU-2
        // victim, then overflow.
        let mut clk = Clk::new();
        let mut buf = page(0);
        for i in 1..16u64 {
            m.read_page(&mut clk, PageId(i), Locality::Random, &mut buf)
                .unwrap();
        }
        m.evict_page(clk.now, PageId(100), &page(0xFF), false, Locality::Random);
        assert_eq!(m.occupancy(), 16, "replacement kept occupancy constant");
        assert!(m.contains(PageId(100)));
        assert!(!m.contains(PageId(0)), "coldest page was replaced");
        assert_eq!(m.metrics.snapshot().replacements, 1);
    }

    #[test]
    fn lc_dirty_pages_survive_replacement_pressure() {
        let (_io, m) = mk(SsdDesign::LazyCleaning, 16);
        for i in 0..4u64 {
            m.evict_page(0, PageId(i), &page(1), true, Locality::Random);
        }
        // Flood with clean pages to force replacement; only clean pages may
        // be replaced while clean victims exist.
        for i in 100..140u64 {
            m.evict_page(0, PageId(i), &page(2), false, Locality::Random);
        }
        for i in 0..4u64 {
            assert!(m.is_dirty(PageId(i)), "dirty page {i} must not be dropped");
        }
        assert_eq!(m.metrics.snapshot().inline_cleans, 0);
    }

    #[test]
    fn partitioned_manager_keeps_lookups_correct() {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 1024, 64)));
        let mut cfg = SsdConfig::new(SsdDesign::DualWrite, 64);
        cfg.partitions = 16;
        let m = SsdManager::new(cfg, Arc::clone(&io));
        for i in 0..100u64 {
            // Spread evictions out so the throttle (legitimately) stays
            // disengaged.
            m.evict_page(
                i * turbopool_iosim::MILLISECOND,
                PageId(i),
                &page(i as u8),
                false,
                Locality::Random,
            );
        }
        assert!(m.occupancy() <= 64);
        let mut clk = Clk::new();
        let mut buf = page(0);
        let mut hits = 0;
        for i in 0..100u64 {
            if m.contains(PageId(i)) {
                m.read_page(&mut clk, PageId(i), Locality::Random, &mut buf)
                    .unwrap();
                assert_eq!(buf[0], i as u8, "cached copy must match");
                hits += 1;
            }
        }
        assert!(hits >= 32, "most frames should be occupied, got {hits}");
    }

    #[test]
    fn clean_batch_flushes_consecutive_run() {
        let (io, m) = mk(SsdDesign::LazyCleaning, 64);
        for i in 10..20u64 {
            m.evict_page(0, PageId(i), &page(i as u8), true, Locality::Random);
        }
        assert_eq!(m.dirty_count(), 10);
        let mut clk = Clk::new();
        let cleaned = m.clean_batch(&mut clk);
        assert_eq!(cleaned, 10, "one batch gathers the consecutive run");
        assert_eq!(m.dirty_count(), 0);
        assert!(clk.now > 0);
        // Pages are now on disk with their contents.
        let mut buf = page(0);
        io.disk_store().read(PageId(15), &mut buf);
        assert_eq!(buf[0], 15);
        // Still cached (clean) in the SSD.
        assert!(m.contains(PageId(15)));
        assert!(!m.is_dirty(PageId(15)));
        assert_eq!(m.metrics.snapshot().cleaner_writes, 1);
    }

    #[test]
    fn clean_batch_respects_alpha() {
        let (io, m) = mk(SsdDesign::LazyCleaning, 64);
        {
            // α = 4 for this test.
            let mut cfg = SsdConfig::new(SsdDesign::LazyCleaning, 64);
            cfg.alpha = 4;
            cfg.partitions = 1;
            let m = SsdManager::new(cfg, io);
            for i in 0..10u64 {
                m.evict_page(0, PageId(i), &page(1), true, Locality::Random);
            }
            let mut clk = Clk::new();
            assert_eq!(m.clean_batch(&mut clk), 4);
            assert_eq!(m.dirty_count(), 6);
        }
        drop(m);
    }

    #[test]
    fn checkpoint_flush_cleans_everything_dirty() {
        let (io, m) = mk(SsdDesign::LazyCleaning, 64);
        for i in [3u64, 4, 5, 40, 41, 900] {
            m.evict_page(0, PageId(i), &page(7), true, Locality::Random);
        }
        assert_eq!(m.dirty_count(), 6);
        let mut clk = Clk::new();
        m.checkpoint_flush(&mut clk);
        assert_eq!(m.dirty_count(), 0);
        assert_eq!(m.metrics.snapshot().checkpoint_cleaned, 6);
        let mut buf = page(0);
        io.disk_store().read(PageId(900), &mut buf);
        assert_eq!(buf[0], 7);
    }

    #[test]
    fn checkpoint_window_pauses_lc_dirty_admission() {
        let (io, m) = mk(SsdDesign::LazyCleaning, 16);
        m.checkpoint_window(0, 1_000_000);
        m.evict_page(500_000, PageId(1), &page(9), true, Locality::Random);
        assert!(
            !m.contains(PageId(1)),
            "dirty page bypassed SSD during pause"
        );
        assert_eq!(io.disk_stats().write_ops, 1);
        // After the window it caches again.
        m.evict_page(2_000_000, PageId(2), &page(9), true, Locality::Random);
        assert!(m.is_dirty(PageId(2)));
    }

    #[test]
    fn dw_checkpoint_write_mirrors_random_pages() {
        let (io, m) = mk(SsdDesign::DualWrite, 16);
        m.checkpoint_write(0, PageId(1), &page(5), Locality::Random);
        assert!(m.contains(PageId(1)));
        m.checkpoint_write(0, PageId(2), &page(5), Locality::Sequential);
        assert!(!m.contains(PageId(2)));
        assert_eq!(io.disk_stats().write_ops, 2, "both went to disk");
        // Mirroring a page the SSD already holds admits nothing.
        let ssd_writes = io.ssd_stats().write_ops;
        m.checkpoint_write(0, PageId(1), &page(5), Locality::Random);
        assert_eq!((m.occupancy(), m.metrics.snapshot().admissions), (1, 1));
        assert_eq!(io.ssd_stats().write_ops, ssd_writes);
        assert_eq!(io.disk_stats().write_ops, 3);
    }

    #[test]
    fn cw_and_lc_checkpoint_writes_take_no_partition_latch() {
        for design in [SsdDesign::CleanWrite, SsdDesign::LazyCleaning] {
            let (io, m) = mk(design, 16);
            m.evict_page(0, PageId(2), &page(2), false, Locality::Random);
            let before = m.metrics.snapshot().shard_acquisitions;
            m.checkpoint_write(0, PageId(1), &page(1), Locality::Random);
            let s = m.metrics.snapshot();
            assert_eq!(s.shard_acquisitions, before, "{design:?}");
            assert_eq!(io.disk_stats().write_ops, 1, "{design:?}");
        }
    }

    #[test]
    fn trim_reads_middle_as_one_disk_io() {
        let (io, m) = mk(SsdDesign::DualWrite, 16);
        // Pages 0 and 5 in SSD; 1..=4 on disk only.
        for pid in [0u64, 5] {
            m.evict_page(
                0,
                PageId(pid),
                &page(pid as u8 + 1),
                false,
                Locality::Random,
            );
        }
        for pid in 1..=4u64 {
            io.write_disk_async(0, PageId(pid), &page(pid as u8 + 1), Locality::Random)
                .unwrap();
        }
        io.reset_stats();
        let mut clk = Clk::new();
        let pages = m.read_run(&mut clk, PageId(0), 6).unwrap();
        for (i, p) in pages.iter().enumerate() {
            assert_eq!(p.as_slice()[0], i as u8 + 1, "page {i} content");
        }
        // Middle = pages 1..=4 on 4 distinct disks -> 4 member requests of
        // one striped run; 2 SSD reads for the trimmed ends.
        assert_eq!(io.ssd_stats().read_ops, 2);
        assert_eq!(io.disk_stats().read_pages, 4);
    }

    #[test]
    fn dirty_middle_page_is_patched_from_ssd() {
        let (io, m) = mk(SsdDesign::LazyCleaning, 16);
        // Disk has old versions of pages 0..4; page 2 has a NEWER dirty
        // copy in the SSD.
        for pid in 0..5u64 {
            io.write_disk_async(0, PageId(pid), &page(0x0A), Locality::Random)
                .unwrap();
        }
        m.evict_page(0, PageId(2), &page(0xBB), true, Locality::Random);
        let mut clk = Clk::new();
        let pages = m.read_run(&mut clk, PageId(0), 5).unwrap();
        assert_eq!(pages[2].as_slice()[0], 0xBB, "must see the newer version");
        assert_eq!(pages[1].as_slice()[0], 0x0A);
    }

    #[test]
    fn a_patched_run_page_counts_as_an_lru2_access() {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 1024, 2)));
        let mut cfg = SsdConfig::new(SsdDesign::DualWrite, 2);
        cfg.partitions = 1;
        let m = SsdManager::new(cfg, Arc::clone(&io));
        m.evict_page(0, PageId(1), &page(1), false, Locality::Random);
        m.evict_page(0, PageId(2), &page(2), false, Locality::Random);
        // A run read patches page 1 from the SSD, so page 1 has two
        // accesses and page 2 one: page 2 is the LRU-2 victim.
        let mut clk = Clk::new();
        m.read_run(&mut clk, PageId(1), 1).unwrap();
        m.evict_page(clk.now, PageId(3), &page(3), false, Locality::Random);
        assert!(m.contains(PageId(1)) && m.contains(PageId(3)));
        assert!(!m.contains(PageId(2)));
    }

    #[test]
    fn split_mode_costs_more_disk_positionings_than_trim() {
        let run_time = |mode: MultiPageMode| -> Time {
            let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 1024, 64)));
            let mut cfg = SsdConfig::new(SsdDesign::DualWrite, 64);
            cfg.multipage = mode;
            cfg.partitions = 1;
            let m = SsdManager::new(cfg, Arc::clone(&io));
            // SSD-resident pages scattered inside the run: 3rd and 5th of 8
            // (the paper's example in §3.3.3).
            m.evict_page(0, PageId(2), &page(1), false, Locality::Random);
            m.evict_page(0, PageId(4), &page(1), false, Locality::Random);
            let mut clk = Clk::new();
            m.read_run(&mut clk, PageId(0), 8).unwrap();
            clk.now
        };
        let trim = run_time(MultiPageMode::Trim);
        let split = run_time(MultiPageMode::Split);
        assert!(
            split > trim,
            "splitting should be slower: split={split} trim={trim}"
        );
    }

    #[test]
    fn inline_clean_when_partition_all_dirty() {
        // The oldest dirty page, 1, is the victim. Its SSD bytes reach the
        // disk; or, when its frame is unreadable, it is handed to the
        // salvage target once, and the new page is admitted all the same.
        for unreadable in [false, true] {
            let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 1024, 4)));
            let mut cfg = SsdConfig::new(SsdDesign::LazyCleaning, 4);
            cfg.partitions = 1;
            let (m, salvaged) = recording(SsdManager::new(cfg, Arc::clone(&io)), None);
            for i in 0..4u64 {
                m.evict_page(
                    0,
                    PageId(i * 16 + 1),
                    &page(i as u8 + 1),
                    true,
                    Locality::Random,
                );
            }
            assert_eq!(m.dirty_count(), 4);
            if unreadable {
                let mut fcfg = FaultConfig::quiet(6);
                fcfg.read_error_prob = 1.0;
                io.set_ssd_fault(Some(Arc::new(FaultPlan::new(fcfg))));
            }
            // A fifth dirty eviction forces an inline clean.
            m.evict_page(0, PageId(999), &page(0xEE), true, Locality::Random);
            let s = m.metrics.snapshot();
            assert_eq!(m.occupancy(), 4);
            assert!(m.is_dirty(PageId(999)));
            assert!(!m.contains(PageId(1)));
            let mut buf = page(0);
            io.disk_store().read(PageId(1), &mut buf);
            if unreadable {
                assert_eq!((s.inline_cleans, s.lost_frames, s.ssd_io_errors), (0, 1, 1));
                assert_eq!(*salvaged.lock(), vec![vec![PageId(1)]]);
                assert_ne!(buf, page(1));
            } else {
                assert_eq!((s.inline_cleans, s.lost_frames), (1, 0));
                assert!(salvaged.lock().is_empty());
                assert_eq!(buf, page(1), "the disk holds the victim's SSD bytes");
            }
        }
    }

    #[test]
    fn a_failed_inline_clean_loses_its_victim_before_the_error_quarantines() {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 1024, 4)));
        let mut cfg = SsdConfig::new(SsdDesign::LazyCleaning, 4);
        cfg.partitions = 1;
        let (m, salvaged) = recording(SsdManager::new(cfg, Arc::clone(&io)), None);
        let mut fcfg = FaultConfig::quiet(10);
        fcfg.read_error_prob = 1.0;
        io.set_ssd_fault(Some(Arc::new(FaultPlan::new(fcfg))));
        // Every SSD read fails: one clean page after another is admitted
        // and lost to a failed read, until one more error spends the budget.
        let mut clk = Clk::new();
        for i in 0..SSD_ERROR_BUDGET {
            m.evict_page(clk.now, PageId(100 + i), &page(1), false, Locality::Random);
            m.read_page(&mut clk, PageId(100 + i), Locality::Random, &mut page(0))
                .unwrap();
        }
        assert_eq!((m.occupancy(), m.is_quarantined()), (0, false));
        for pid in [1, 2, 3, 4, 5].map(PageId) {
            m.evict_page(clk.now, pid, &page(2), true, Locality::Random);
        }
        // Page 5's admission cleaned page 1 inline and could not read it:
        // page 1 is lost on its own, then its error quarantines the SSD and
        // the sweep loses the rest as one batch, in frame order (page 5
        // took page 1's frame).
        let lost: Vec<Vec<PageId>> = vec![vec![PageId(1)], [5, 2, 3, 4].map(PageId).to_vec()];
        assert_eq!(*salvaged.lock(), lost);
        assert!(m.is_quarantined());
    }

    #[test]
    fn import_survives_adversarial_tables() {
        use turbopool_iosim::rng::{Rng, SeedableRng, SmallRng};
        const FRAMES: u64 = 64;
        for seed in 0..32u64 {
            let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 1024, FRAMES)));
            let mut cfg = SsdConfig::new(SsdDesign::DualWrite, FRAMES);
            cfg.partitions = 4;
            let before = SsdManager::new(cfg.clone(), Arc::clone(&io));
            for i in 0..48u64 {
                let at = i * turbopool_iosim::MILLISECOND;
                before.evict_page(at, PageId(i * 7), &page(i as u8), false, Locality::Random);
            }
            // The checkpointed table with out-of-range, cross-partition,
            // past-the-database and duplicated entries spliced in.
            let mut entries = before.export_table();
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..32 {
                let pid = PageId(rng.gen_range(0u64..1024));
                let e = match rng.gen_range(0u32..4) {
                    0 => (pid, rng.gen_range(FRAMES..4 * FRAMES)),
                    1 => (pid, rng.gen_range(0..FRAMES)),
                    2 => (
                        PageId(rng.gen_range(1024u64..4096)),
                        rng.gen_range(0..FRAMES),
                    ),
                    _ => entries[rng.gen_range(0..entries.len())],
                };
                entries.insert(rng.gen_range(0..=entries.len()), e);
            }
            // Odd seeds trust every entry, as a filter that checks nothing
            // would.
            let valid = |pid, frame| seed % 2 == 1 || io.ssd_tag(frame) == Some(pid);
            let m = SsdManager::new(cfg.clone(), Arc::clone(&io));
            let rep = m.import_table_checked(&mut Clk::new(), &entries, valid);
            assert!(!rep.aborted_dead);
            let outcomes = rep.imported + rep.rejected_stale + rep.rejected_checksum;
            assert_eq!(rep.attempted, outcomes, "seed {seed}");
            assert_eq!(m.occupancy(), rep.imported as u64, "seed {seed}");
            let past_end = entries.iter().filter(|(pid, _)| pid.0 >= 1024).count();
            assert!(
                past_end > 0 && rep.rejected_stale >= past_end,
                "seed {seed}"
            );
            for &(pid, _) in &entries {
                if let Some(frame) = m.frame_of(pid) {
                    let owned = partition_frames(FRAMES, 4, m.part_index(pid));
                    assert!(owned.contains(&frame), "seed {seed}: {pid} in {frame}");
                }
            }
        }
    }

    /// A DW table of `n` clean pages, one per frame, over a fresh SSD, its
    /// checkpointed entries, and a fresh manager over the same devices to
    /// import them into. With `flip`, every frame's bytes are damaged.
    fn exported(n: u64, flip: bool) -> (Arc<IoManager>, Vec<(PageId, u64)>, SsdManager) {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 1024, n)));
        let mut cfg = SsdConfig::new(SsdDesign::DualWrite, n);
        cfg.partitions = 1;
        if flip {
            let mut fcfg = FaultConfig::quiet(8);
            fcfg.bitflip_prob = 1.0;
            io.set_ssd_fault(Some(Arc::new(FaultPlan::new(fcfg))));
        }
        let before = SsdManager::new(cfg.clone(), Arc::clone(&io));
        for i in 0..n {
            let at = i * turbopool_iosim::MILLISECOND;
            before.evict_page(at, PageId(i), &page(i as u8), false, Locality::Random);
        }
        io.set_ssd_fault(None);
        let entries = before.export_table();
        assert_eq!(entries.len() as u64, n);
        (Arc::clone(&io), entries, SsdManager::new(cfg, io))
    }

    #[test]
    fn an_ssd_that_dies_during_warm_import_quarantines_and_aborts_it() {
        let (io, entries, m) = exported(16, false);
        let plan = Arc::new(FaultPlan::new(FaultConfig::quiet(9)));
        io.set_ssd_fault(Some(Arc::clone(&plan)));
        // The device dies once four entries are adopted.
        let seen = std::cell::Cell::new(0);
        let valid = |_, _| {
            seen.set(seen.get() + 1);
            if seen.get() == 5 {
                plan.kill(0);
            }
            true
        };
        let rep = m.import_table_checked(&mut Clk::new(), &entries, valid);
        assert!(rep.aborted_dead && m.is_quarantined());
        assert_eq!((rep.imported, rep.rejected_checksum), (4, 0));
        assert_eq!(seen.get(), 5, "no entry is looked at past the death");
        assert_eq!(m.occupancy(), 0, "the adopted entries are swept");
        assert!(entries.iter().all(|&(pid, _)| !m.contains(pid)));
        let s = m.metrics.snapshot();
        assert_eq!(
            (s.ssd_quarantined, s.lost_frames, s.warm_imports),
            (1, 4, 4)
        );
    }

    #[test]
    fn checksum_rejections_that_spend_the_budget_abort_warm_import_there() {
        const N: u64 = SSD_ERROR_BUDGET + 8;
        let (io, entries, m) = exported(N, true);
        let reads = io.ssd_stats().read_ops;
        let valid = |pid, frame| io.ssd_tag(frame) == Some(pid);
        let rep = m.import_table_checked(&mut Clk::new(), &entries, valid);
        // Each damaged frame is charged and rejected until the error past
        // the budget quarantines the SSD, at the entry that charged it.
        assert!(rep.aborted_dead && m.is_quarantined());
        assert_eq!(rep.rejected_checksum as u64, SSD_ERROR_BUDGET);
        assert_eq!(io.ssd_stats().read_ops - reads, SSD_ERROR_BUDGET + 1);
        assert_eq!((rep.attempted as u64, rep.imported), (N, 0));
        let s = m.metrics.snapshot();
        assert_eq!(s.checksum_misses, SSD_ERROR_BUDGET + 1);
        assert_eq!(s.warm_rejected_checksum, SSD_ERROR_BUDGET);
        assert_eq!(m.occupancy(), 0);
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    use turbopool_iosim::fault::{FaultConfig, FaultPlan};

    #[test]
    fn ssd_death_quarantines_and_degrades_to_disk() {
        let (io, m) = mk(SsdDesign::DualWrite, 16);
        // Seed the disk and the SSD with the same page.
        io.write_disk_async(0, PageId(5), &page(0xA5), Locality::Random)
            .unwrap();
        m.evict_page(0, PageId(5), &page(0xA5), false, Locality::Random);
        assert!(m.contains(PageId(5)));
        let plan = Arc::new(FaultPlan::new(FaultConfig::quiet(1)));
        io.set_ssd_fault(Some(Arc::clone(&plan)));
        plan.kill(1);
        // The read sees the dead device, quarantines, and falls to disk —
        // and still returns the correct bytes.
        let mut clk = Clk::at(turbopool_iosim::SECOND);
        let mut buf = page(0);
        m.read_page(&mut clk, PageId(5), Locality::Random, &mut buf)
            .unwrap();
        assert_eq!(buf[0], 0xA5);
        assert!(m.is_quarantined());
        assert_eq!(m.occupancy(), 0, "table dropped at quarantine");
        let s = m.metrics.snapshot();
        assert_eq!(s.ssd_quarantined, 1);
        assert!(s.ssd_io_errors >= 1);
        assert_eq!(s.lost_frames, 1);
        assert_eq!(s.stranded_dirty, 0, "DW strands nothing: write-through");
        // Post-quarantine traffic bypasses the SSD entirely.
        let ssd_writes = io.ssd_stats().write_ops;
        m.evict_page(clk.now, PageId(7), &page(7), true, Locality::Random);
        let mut buf = page(0);
        m.read_page(&mut clk, PageId(7), Locality::Random, &mut buf)
            .unwrap();
        assert_eq!(buf[0], 7);
        assert_eq!(io.ssd_stats().write_ops, ssd_writes);
        assert!(m.metrics.snapshot().quarantined_reads >= 1);
    }

    #[test]
    fn lc_death_strands_dirty_pages_for_salvage() {
        let (io, m) = mk(SsdDesign::LazyCleaning, 16);
        // The target writes the committed image the log would rebuild.
        let (m, salvaged) = recording(m, Some(page(0x33)));
        // A dirty eviction under LC puts the SOLE current copy on the SSD.
        m.evict_page(0, PageId(3), &page(0x33), true, Locality::Random);
        assert!(m.is_dirty(PageId(3)));
        let plan = Arc::new(FaultPlan::new(FaultConfig::quiet(2)));
        io.set_ssd_fault(Some(Arc::clone(&plan)));
        plan.kill(1);
        // The dirty hit quarantines the SSD, which rebuilds the page on
        // disk before the read falls through to the disk.
        let mut clk = Clk::at(turbopool_iosim::SECOND);
        let mut buf = page(0);
        m.read_page(&mut clk, PageId(3), Locality::Random, &mut buf)
            .unwrap();
        assert_eq!(buf, page(0x33));
        assert!(m.is_quarantined());
        m.read_page(&mut clk, PageId(3), Locality::Random, &mut buf)
            .unwrap();
        assert_eq!(*salvaged.lock(), vec![vec![PageId(3)]], "exactly once");
        let s = m.metrics.snapshot();
        assert_eq!((s.stranded_dirty, s.salvaged_pages), (1, 1));
        assert_eq!(s.lost_frames, 1);
        assert_eq!(m.dirty_count(), 0);
    }

    /// A run read whose first SSD read kills the device quarantines the
    /// SSD there; every later page of the same run reads the disk. Pages 0
    /// and 7 hold sole dirty copies, so each mode reads both from the SSD.
    #[test]
    fn a_run_read_never_reads_the_ssd_it_quarantined() {
        let modes = [
            MultiPageMode::Trim,
            MultiPageMode::Split,
            MultiPageMode::DiskOnly,
        ];
        for mode in modes {
            let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 1024, 16)));
            let mut cfg = SsdConfig::new(SsdDesign::LazyCleaning, 16);
            cfg.partitions = 1;
            cfg.multipage = mode;
            let m = SsdManager::new(cfg, Arc::clone(&io));
            let (m, salvaged) = recording(m, Some(page(0x33)));
            for pid in [PageId(0), PageId(7)] {
                m.evict_page(0, pid, &page(0x33), true, Locality::Random);
            }
            let plan = Arc::new(FaultPlan::new(FaultConfig::quiet(5)));
            io.set_ssd_fault(Some(Arc::clone(&plan)));
            plan.kill(1);
            let before = io.ssd_stats().read_ops;
            let mut clk = Clk::at(turbopool_iosim::SECOND);
            let pages = m.read_run(&mut clk, PageId(0), 8).unwrap();
            assert!(m.is_quarantined(), "{mode:?}");
            assert_eq!(pages[0].as_slice(), page(0x33), "{mode:?}");
            assert_eq!(pages[7].as_slice(), page(0x33), "{mode:?}");
            assert_eq!(salvaged.lock().len(), 1, "{mode:?}: one sweep");
            let s = m.metrics.snapshot();
            assert_eq!(s.ssd_io_errors, 1, "{mode:?}: an error after quarantine");
            assert!(
                io.ssd_stats().read_ops - before <= 1,
                "{mode:?}: a quarantined SSD was read"
            );
        }
    }

    #[test]
    #[should_panic(expected = "no log to rebuild it from")]
    fn a_lost_sole_copy_with_no_salvage_target_panics() {
        let (io, m) = mk(SsdDesign::LazyCleaning, 16);
        m.evict_page(0, PageId(3), &page(0x33), true, Locality::Random);
        let plan = Arc::new(FaultPlan::new(FaultConfig::quiet(2)));
        io.set_ssd_fault(Some(Arc::clone(&plan)));
        plan.kill(1);
        let mut clk = Clk::at(turbopool_iosim::SECOND);
        let _ = m.read_page(&mut clk, PageId(3), Locality::Random, &mut page(0));
    }

    #[test]
    fn bitflip_corruption_is_caught_and_falls_back_to_disk() {
        let (io, m) = mk(SsdDesign::DualWrite, 16);
        io.write_disk_async(0, PageId(9), &page(0x42), Locality::Random)
            .unwrap();
        // Every SSD write silently flips one bit from here on.
        let mut cfg = FaultConfig::quiet(3);
        cfg.bitflip_prob = 1.0;
        io.set_ssd_fault(Some(Arc::new(FaultPlan::new(cfg))));
        m.evict_page(0, PageId(9), &page(0x42), false, Locality::Random);
        assert!(m.contains(PageId(9)));
        let mut clk = Clk::at(turbopool_iosim::SECOND);
        let mut buf = page(0);
        m.read_page(&mut clk, PageId(9), Locality::Random, &mut buf)
            .unwrap();
        // The checksum caught the corruption; the disk copy was served.
        assert_eq!(buf, page(0x42));
        let s = m.metrics.snapshot();
        assert_eq!(s.checksum_misses, 1);
        assert!(!m.contains(PageId(9)), "corrupt frame invalidated");
        assert!(!m.is_quarantined(), "single error stays within budget");
    }

    /// The four designs, each table built by one constructor.
    const DESIGNS: [SsdDesign; 4] = [
        SsdDesign::CleanWrite,
        SsdDesign::DualWrite,
        SsdDesign::LazyCleaning,
        SsdDesign::Tac,
    ];

    /// Offer `pid`, holding `data`, to the table at `clk` both ways a page
    /// enters one: read from disk (TAC admits it then) and evicted (CW/DW/LC
    /// admit it then), `dirty` or not; each design ignores the other way.
    fn offer(m: &SsdManager, clk: &mut Clk, pid: PageId, data: &[u8], dirty: bool) {
        m.read_page(clk, pid, Locality::Random, &mut page(0))
            .unwrap();
        m.evict_page(clk.now, pid, data, dirty, Locality::Random);
    }

    #[test]
    fn error_budget_exhaustion_quarantines() {
        // One cached page per error the budget tolerates, plus one; then
        // every SSD read fails (even after retries), one error per read.
        const N: u64 = SSD_ERROR_BUDGET + 1;
        for design in DESIGNS {
            let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 1024, 2 * N)));
            let mut cfg = SsdConfig::new(design, 2 * N);
            cfg.partitions = 1;
            let m = SsdManager::new(cfg, Arc::clone(&io));
            let mut clk = Clk::new();
            (0..N).for_each(|i| offer(&m, &mut clk, PageId(i), &page(1), false));
            // Every admission write long complete by the reads that fail.
            clk.elapse(turbopool_iosim::SECOND);
            assert_eq!(m.occupancy(), N, "{design:?}");
            let mut fcfg = FaultConfig::quiet(4);
            fcfg.read_error_prob = 1.0;
            io.set_ssd_fault(Some(Arc::new(FaultPlan::new(fcfg))));
            for i in 0..N {
                assert!(!m.is_quarantined(), "{i} errors are within the budget");
                m.read_page(&mut clk, PageId(i), Locality::Random, &mut page(0))
                    .unwrap();
            }
            assert!(m.is_quarantined());
            assert_eq!(m.metrics.snapshot().ssd_io_errors, N);
        }
    }

    #[test]
    fn a_failed_admission_write_leaves_the_table_as_it_was() {
        use SsdDesign::{CleanWrite, LazyCleaning};
        const A: PageId = PageId(1);
        const P: PageId = PageId(2);
        // Two frames: A takes one, and P's failed write must leave the
        // other free, so P is admitted later without replacing A.
        for design in DESIGNS {
            let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 1024, 2)));
            let mut cfg = SsdConfig::new(design, 2);
            cfg.partitions = 1;
            cfg.tau = 1.0;
            let m = SsdManager::new(cfg, Arc::clone(&io));
            // CW caches clean pages only; the others take a dirty one (TAC
            // writes it through and refreshes its copy).
            let dirty = design != CleanWrite;
            let admit = |pid| offer(&m, &mut Clk::new(), pid, &page(0x22), dirty);
            admit(A);
            let mut fcfg = FaultConfig::quiet(5);
            fcfg.write_error_prob = 1.0;
            io.set_ssd_fault(Some(Arc::new(FaultPlan::new(fcfg))));
            admit(P);
            assert!(!m.has_copy(P), "no entry is left behind");
            let s = m.metrics.snapshot();
            assert_eq!((s.ssd_io_errors, s.admissions), (1, 1));
            io.set_ssd_fault(None);
            admit(P);
            assert!(m.has_copy(A) && m.has_copy(P));
            let s = m.metrics.snapshot();
            assert_eq!((s.admissions, s.replacements), (2, 0));
            let mut buf = page(0);
            io.disk_store().read(P, &mut buf);
            assert_eq!(
                buf == page(0x22),
                dirty,
                "{design:?}: a dirty page reaches the disk"
            );
            assert_eq!(m.is_dirty(P), design == LazyCleaning);
        }
    }

    #[test]
    fn transient_disk_errors_retry_with_backoff() {
        let (io, m) = mk(SsdDesign::CleanWrite, 16);
        io.write_disk_async(0, PageId(1), &page(0x11), Locality::Random)
            .unwrap();
        let mut fcfg = FaultConfig::quiet(7);
        fcfg.read_error_prob = 0.25;
        io.set_disk_fault(Some(Arc::new(FaultPlan::new(fcfg))));
        let mut clk = Clk::new();
        let mut buf = page(0);
        // With p=0.25 and 5 retries a read fails ~1-in-4000; seed 7 is
        // deterministic, so this either passes forever or never.
        for _ in 0..16 {
            m.read_page(&mut clk, PageId(1), Locality::Random, &mut buf)
                .unwrap();
            assert_eq!(buf[0], 0x11);
        }
        assert!(
            m.metrics.snapshot().disk_retries > 0,
            "some attempts must have been retried"
        );
    }

    /// The fault plans of [`fault_path_digest`]: transient errors, torn
    /// writes, bit flips and a brownout train on the SSD (`Transient`),
    /// the same with the SSD killed late (`LateDeath`), or bit flips alone,
    /// enough to exhaust the error budget on checksum misses (`Budget`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum FaultRun {
        Transient,
        LateDeath,
        Budget,
    }

    /// Drive one seeded script through a manager of `design` (two
    /// partitions, the recording salvage target) reading runs as `mode`,
    /// under `run`'s plans on both devices, then export its table and
    /// import it into a fresh manager over the same devices. Returns the
    /// script's trail folded with every counter, table entry, total,
    /// salvage call, fault count and stored page and frame, with the
    /// manager's counters and the import's report.
    fn fault_path_digest(
        design: SsdDesign,
        mode: MultiPageMode,
        run: FaultRun,
    ) -> (u64, crate::metrics::SsdMetricsSnapshot, ImportReport) {
        use turbopool_iosim::rng::{Rng, SeedableRng, SmallRng};
        use turbopool_iosim::{fault, MILLISECOND};
        const PAGES: u64 = 64;
        const FRAMES: u64 = 12;
        // Every frame write flips a bit in the budget run, which takes
        // longer to spend the budget than a death takes to come.
        let steps: u64 = if run == FaultRun::Budget { 2000 } else { 320 };
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, PAGES, FRAMES)));
        let ssd_plan = match run {
            FaultRun::Budget => {
                let mut cfg = FaultConfig::quiet(0x5B);
                cfg.bitflip_prob = 1.0;
                cfg
            }
            FaultRun::Transient | FaultRun::LateDeath => {
                let mut cfg = FaultConfig::brownout_train(
                    0x55,
                    0,
                    u64::MAX,
                    40 * MILLISECOND,
                    10 * MILLISECOND,
                    30,
                );
                cfg.read_error_prob = 0.1;
                cfg.write_error_prob = 0.1;
                cfg.torn_write_prob = 0.1;
                cfg.bitflip_prob = 0.1;
                cfg
            }
        };
        let mut disk_plan = FaultConfig::quiet(0xD1);
        disk_plan.read_error_prob = 0.1;
        disk_plan.write_error_prob = 0.1;
        disk_plan.torn_write_prob = 0.2;
        let ssd_plan = Arc::new(FaultPlan::new(ssd_plan));
        io.set_ssd_fault(Some(Arc::clone(&ssd_plan)));
        io.set_disk_fault(Some(Arc::new(FaultPlan::new(disk_plan))));
        let mut cfg = SsdConfig::new(design, FRAMES);
        cfg.partitions = 2;
        cfg.multipage = mode;
        let (m, salvaged) = recording(SsdManager::new(cfg.clone(), Arc::clone(&io)), None);
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let mut clk = Clk::new();
        let mut trail: Vec<u8> = Vec::new();
        let fold_at = |trail: &mut Vec<u8>, r: Result<Time, IoError>| match r {
            Ok(t) => trail.extend([0].iter().chain(&t.to_le_bytes())),
            Err(e) => trail.extend([1 + e.kind as u8].iter().chain(&e.at.to_le_bytes())),
        };
        for step in 0..steps {
            clk.wait_until(clk.now.max(step * 2 * MILLISECOND));
            if run == FaultRun::LateDeath && step == steps * 7 / 8 {
                ssd_plan.kill(clk.now);
            }
            let pid = PageId(rng.gen_range(0..PAGES - 6));
            let class = if rng.gen_bool(0.7) {
                Locality::Random
            } else {
                Locality::Sequential
            };
            let data = vec![rng.gen::<u8>(); PS];
            match rng.gen_range(0u32..9) {
                0 | 1 => m.evict_page(clk.now, pid, &data, false, class),
                2 => {
                    // A page is dirtied in the pool before it is evicted dirty.
                    m.note_dirtied(clk.now, pid);
                    m.evict_page(clk.now, pid, &data, true, class);
                }
                3 => {
                    let mut buf = page(0);
                    let r = m.read_page(&mut clk, pid, class, &mut buf);
                    fold_at(&mut trail, r.map(|()| clk.now));
                    trail.extend(&buf);
                }
                4 => {
                    let n = rng.gen_range(1u64..7);
                    match m.read_run(&mut clk, pid, n) {
                        Ok(pages) => pages.iter().for_each(|p| trail.extend(p.as_slice())),
                        Err(e) => fold_at(&mut trail, Err(e)),
                    }
                    fold_at(&mut trail, Ok(clk.now));
                }
                5 => m.note_dirtied(clk.now, pid),
                6 => {
                    m.note_dirtied(clk.now, pid);
                    let done = m.checkpoint_write(clk.now, pid, &data, class);
                    fold_at(&mut trail, Ok(done));
                }
                7 => {
                    m.checkpoint_flush(&mut clk);
                    fold_at(&mut trail, Ok(clk.now));
                }
                _ => {
                    let cleaned = m.clean_batch(&mut clk) as u64;
                    fold_at(&mut trail, Ok(cleaned));
                    fold_at(&mut trail, Ok(clk.now));
                }
            }
        }
        m.checkpoint_flush(&mut clk);
        let table = m.export_table();
        let fresh = SsdManager::new(cfg, Arc::clone(&io));
        let valid = |pid, frame| io.ssd_tag(frame) == Some(pid);
        let rep = fresh.import_table_checked(&mut clk, &table, valid);
        trail.extend(format!("{table:?} {rep:?}").bytes());
        for mgr in [&m, &fresh] {
            let s = mgr.metrics.snapshot();
            trail.extend(format!("{:?}", s.fields()).bytes());
            for p in 0..PAGES {
                let pid = PageId(p);
                let entry = (mgr.contains(pid), mgr.frame_of(pid), mgr.is_dirty(pid));
                trail.extend(format!("{entry:?}").bytes());
            }
            let totals = (mgr.occupancy(), mgr.dirty_count(), mgr.invalid_frames());
            trail.extend(format!("{totals:?} {}", mgr.is_quarantined()).bytes());
        }
        trail.extend(format!("{:?}", *salvaged.lock()).bytes());
        let stats = [io.disk_fault(), io.ssd_fault()].map(|p| p.map(|p| p.stats()));
        trail.extend(format!("{stats:?}").bytes());
        for p in 0..PAGES {
            trail.extend(io.disk_store().read_buf(PageId(p)).iter());
        }
        for f in 0..FRAMES {
            trail.extend(io.ssd_store().read_buf(PageId(f)).iter());
        }
        (fault::checksum(&trail), m.metrics.snapshot(), rep)
    }

    /// The SSD manager's fault path, pinned: every design and run-read
    /// mode through one seeded script under three fault runs. A change
    /// that moves which entry a failure drops or loses, what it charges,
    /// when the SSD is quarantined or what is salvaged moves a digest.
    #[test]
    fn fault_path_is_pinned_across_the_four_designs() {
        use turbopool_iosim::fault;
        let modes = [
            MultiPageMode::Trim,
            MultiPageMode::Split,
            MultiPageMode::DiskOnly,
        ];
        let digest = |run| {
            let (mut trails, mut rejected, mut misses) = (Vec::new(), 0, 0);
            for design in DESIGNS {
                let (mut quarantined, mut errors) = (0, 0);
                for mode in modes {
                    let (d, s, rep) = fault_path_digest(design, mode, run);
                    trails.extend(d.to_le_bytes());
                    errors += s.ssd_io_errors.min(s.lost_frames);
                    misses += s.checksum_misses;
                    if run == FaultRun::LateDeath {
                        assert!(s.ssd_quarantined == 1 || rep.aborted_dead);
                    }
                    if run == FaultRun::Transient {
                        assert!(rep.imported > 0, "{design:?} {mode:?}");
                        rejected += rep.rejected_checksum;
                    }
                    if design == SsdDesign::LazyCleaning {
                        assert!(s.salvaged_pages > 0, "{mode:?}");
                    }
                    if s.ssd_quarantined == 1 && run == FaultRun::Budget {
                        assert_eq!(s.checksum_misses, s.ssd_io_errors);
                        assert!(s.ssd_io_errors > SSD_ERROR_BUDGET);
                    }
                    quarantined += s.ssd_quarantined;
                }
                assert!(errors > 0, "{design:?}: errors cost entries");
                if run == FaultRun::Budget {
                    assert!(quarantined > 0, "{design:?}: the budget ran out");
                }
            }
            assert!(misses > 0 && (run != FaultRun::Transient || rejected > 0));
            fault::checksum(&trails)
        };
        let got = [
            digest(FaultRun::Transient),
            digest(FaultRun::LateDeath),
            digest(FaultRun::Budget),
        ];
        assert_eq!(
            got,
            [
                0x9FA2_AD91_2CE7_A3AC,
                0x5081_073D_7612_2E1C,
                0xA9A5_22AD_83E4_CA42
            ],
            "{got:#X?}"
        );
    }
}
