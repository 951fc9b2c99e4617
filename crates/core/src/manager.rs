//! The SSD manager for the paper's three designs (CW, DW, LC).
//!
//! Implements [`PageIo`], interposing the SSD between the buffer manager
//! and the disk manager. Pages enter the SSD when they are evicted from the
//! memory pool (never on read — that is TAC's flow, see `tac.rs`), guarded
//! by the admission rule (randomly-read pages only, except during the
//! aggressive-filling phase) and the throttle control. Replacement is LRU-2
//! over the clean heap; dirty pages (LC only) are protected from
//! replacement until the lazy cleaner or a checkpoint flushes them.
//!
//! This file holds the partitioned table and the page flow; what a design
//! does with a dirty page is its row of the policy table
//! ([`crate::SsdDesign::policy`]). Retry, the error budget, quarantine,
//! throttle, audit and the strand list are the device edge in `tier.rs`,
//! shared with TAC.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use turbopool_bufpool::PageIo;
use turbopool_iosim::sync::{Mutex, MutexGuard, Rank};
use turbopool_iosim::{
    fault, Clk, IoError, IoErrorKind, IoManager, Locality, PageBuf, PageDst, PageId, PageSrc, Time,
};

use crate::audit::AuditOp;
use crate::config::{DirtyEviction, MultiPageMode, SsdConfig};
use crate::metrics::SsdMetrics;
use crate::partition::Partition;
pub use crate::tier::SSD_ERROR_BUDGET;
use crate::tier::{trim_ends, Health, SsdTier};

/// What [`SsdManager::plan_reclaim`] decided under the partition latch.
enum Reclaimed {
    /// A clean victim was replaced; its frame is already free.
    Direct,
    /// The oldest dirty page was detached; its frame stays reserved until
    /// the caller inline-cleans it (SSD read + disk write) *outside* the
    /// latch and releases the frame.
    DirtyDeferred {
        idx: usize,
        victim: PageId,
        frame: u64,
    },
    /// Nothing reclaimable in this partition.
    Failed,
}

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
    /// Entries rejected because the frame's stored bytes failed their
    /// checksum when probed.
    pub rejected_checksum: usize,
    /// True when the import was aborted by a dead or persistently erroring
    /// SSD; the device is quarantined and the restart proceeds cold.
    pub aborted_dead: bool,
}

/// SSD buffer-pool manager implementing clean-write, dual-write and
/// lazy-cleaning. (TAC lives in [`crate::tac::TacCache`].)
pub struct SsdManager {
    cfg: SsdConfig,
    io: Arc<IoManager>,
    parts: Vec<Mutex<Partition>>,
    /// LRU-2 access stamp source.
    stamp: AtomicU64,
    /// Cached pages across all partitions.
    occupancy: AtomicU64,
    /// Dirty cached pages across all partitions (LC only).
    dirty_total: AtomicU64,
    /// While `now` is before this instant, dirty evictions are not cached
    /// (LC pauses dirty admission during a sharp checkpoint, §3.2).
    pause_dirty_until: AtomicU64,
    /// Quarantine flag, error budget, auditor and strand list.
    health: Health,
    /// Counters for the evaluation harnesses.
    pub metrics: SsdMetrics,
}

impl SsdManager {
    /// Build a manager over the SSD frames of `io`. `cfg.frames` must not
    /// exceed the frame count of the simulated SSD file.
    pub fn new(cfg: SsdConfig, io: Arc<IoManager>) -> Self {
        let on_read = cfg.design.policy().admit_on_read;
        assert!(!on_read, "use TacCache to admit on read");
        assert!(cfg.frames <= io.ssd_frames(), "SSD file too small");
        assert!(cfg.partitions >= 1);
        let parts = (0..cfg.partitions)
            .map(|i| {
                let f = partition_frames(cfg.frames, cfg.partitions, i);
                let part = Partition::new(f.start, (f.end - f.start) as usize);
                Mutex::ranked(Rank::SsdPartition, part)
            })
            .collect();
        SsdManager {
            health: Health::new(cfg.design),
            cfg,
            io,
            parts,
            stamp: AtomicU64::new(0),
            occupancy: AtomicU64::new(0),
            dirty_total: AtomicU64::new(0),
            pause_dirty_until: AtomicU64::new(0),
            metrics: SsdMetrics::default(),
        }
    }

    /// True once the SSD is quarantined and the manager runs degraded
    /// (every subsequent request takes the direct-to-disk path).
    pub fn is_quarantined(&self) -> bool {
        self.health.is_quarantined()
    }

    /// Drain the list of dirty pages whose sole (SSD) copy was lost. The
    /// engine must replay the committed WAL tail onto disk before trusting
    /// the disk image of these pages again.
    pub fn take_stranded(&self) -> Vec<PageId> {
        self.health.take_stranded()
    }

    /// Count a removed entry out of the occupancy and dirty totals.
    fn forget(&self, dirty: bool) {
        self.occupancy.fetch_sub(1, Ordering::Relaxed);
        if dirty {
            self.dirty_total.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Invariant violations caught so far (see [`crate::InvariantAuditor`]).
    pub fn audit_violations(&self) -> u64 {
        self.health.audit_violations()
    }

    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Pages currently cached.
    pub fn occupancy(&self) -> u64 {
        self.occupancy.load(Ordering::Relaxed)
    }

    /// Dirty pages currently cached (nonzero only under LC).
    pub fn dirty_count(&self) -> u64 {
        self.dirty_total.load(Ordering::Relaxed)
    }

    /// True if `pid` is cached.
    pub fn contains(&self, pid: PageId) -> bool {
        self.entry(pid).is_some()
    }

    /// SSD frame number holding `pid`, if cached (introspection for tests
    /// and tools; the frame indexes the simulated SSD file).
    pub fn frame_of(&self, pid: PageId) -> Option<u64> {
        self.entry(pid).map(|(frame, _)| frame)
    }

    /// True if `pid` is cached dirty (its SSD copy is newer than disk).
    pub fn is_dirty(&self, pid: PageId) -> bool {
        self.entry(pid).is_some_and(|(_, dirty)| dirty)
    }

    /// The frame and dirty flag of `pid`'s entry, if cached.
    fn entry(&self, pid: PageId) -> Option<(u64, bool)> {
        let part = self.part(pid);
        part.lookup(pid)
            .map(|idx| (part.frame_no(idx), part.record(idx).dirty))
    }

    #[inline]
    fn part_index(&self, pid: PageId) -> usize {
        // Multiplicative (Fibonacci) hash routes each page to one fixed
        // partition, preserving the shared-hash-table single-home property.
        let h = pid.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.parts.len()
    }

    fn part(&self, pid: PageId) -> MutexGuard<'_, Partition> {
        self.part_at(self.part_index(pid))
    }

    /// Acquire partition `idx`'s latch, counting the acquisition and
    /// whether it was contended (latch held by another OS thread at that
    /// instant). Both counters are pure functions of the op sequence in
    /// deterministic driver runs (contended is then always 0).
    fn part_at(&self, idx: usize) -> MutexGuard<'_, Partition> {
        SsdMetrics::bump(&self.metrics.shard_acquisitions);
        if let Some(g) = self.parts[idx].try_lock() {
            return g;
        }
        SsdMetrics::bump(&self.metrics.shard_contended);
        self.parts[idx].lock()
    }

    fn next_stamp(&self) -> u64 {
        self.stamp.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Aggressive filling (§3.3.1): until the SSD is τ-full, everything is
    /// admitted.
    fn filling(&self) -> bool {
        self.occupancy() < self.cfg.fill_target()
    }

    /// Cache `data` for `pid`, evicting an SSD victim if necessary.
    /// The caller has verified admission; this only handles placement.
    fn install<S: PageSrc + ?Sized>(&self, now: Time, pid: PageId, data: &S, dirty: bool) {
        if self.is_quarantined() {
            if dirty {
                self.disk_write(now, pid, data);
            }
            return;
        }
        let mut lost: Option<(PageId, IoError)> = None;
        let mut part = self.part(pid);
        if part.free_frames() == 0 {
            match self.plan_reclaim(&mut part) {
                Reclaimed::Direct => {}
                Reclaimed::DirtyDeferred { idx, victim, frame } => {
                    // The victim's frame stays reserved (invisible to
                    // `insert`) until released, so its bytes cannot be
                    // overwritten before the inline clean reads them —
                    // which lets the SSD read and disk write run outside
                    // the partition latch.
                    drop(part);
                    lost = self.inline_clean_detached(now, victim, frame);
                    part = self.part(pid);
                    part.release(idx);
                }
                Reclaimed::Failed => {
                    // Nothing reclaimable in this partition (it is empty —
                    // impossible here since free_frames() == 0 — or every
                    // heap is drained): skip the admission, but a dirty
                    // page must still land somewhere durable.
                    drop(part);
                    if dirty {
                        self.disk_write(now, pid, data);
                    }
                    return;
                }
            }
        }
        let stamp = self.next_stamp();
        #[expect(
            clippy::expect_used,
            reason = "guarded by the free-frame check above; the partition cannot be full here"
        )]
        let idx = part.insert(pid, dirty, stamp).expect("frame available");
        let frame = part.frame_no(idx);
        drop(part);
        // Write first, admit on success: a failed SSD write must not leave
        // a table entry pointing at never-written frame bytes. (Torn and
        // bit-flipped writes still return Ok — that is silent corruption,
        // caught by the frame checksum on a later read.)
        match self.io.write_ssd_async(now, frame, data, pid) {
            Ok(_done) => {
                self.audit(pid, AuditOp::Admit { dirty });
                self.occupancy.fetch_add(1, Ordering::Relaxed);
                if dirty {
                    self.dirty_total.fetch_add(1, Ordering::Relaxed);
                }
                SsdMetrics::bump(&self.metrics.admissions);
                if self.filling() {
                    SsdMetrics::bump(&self.metrics.fill_admissions);
                }
            }
            Err(e) => {
                // Back the insert out before the error accounting: if the
                // budget trips, the quarantine sweep must not find (and
                // audit) an entry that was never admitted.
                let mut part = self.part(pid);
                if let Some(idx) = part.lookup(pid) {
                    part.remove(idx);
                }
                drop(part);
                self.note_ssd_error(&e);
                if dirty {
                    self.disk_write(now, pid, data);
                }
            }
        }
        // Deferred reclaim accounting runs last: if it trips the budget,
        // the quarantine sweep finds only properly-admitted entries.
        if let Some((victim, e)) = lost {
            self.lose(victim, AuditOp::CorruptInvalidate, true);
            self.note_ssd_error(&e);
        }
    }

    /// Free one frame in `part` by LRU-2 replacement from the clean heap;
    /// falls back to *detaching* the oldest dirty page when every page is
    /// dirty (LC under extreme λ). Pure bookkeeping — it runs entirely
    /// under the partition latch and performs no I/O; a `DirtyDeferred`
    /// result obliges the caller to inline-clean the detached victim
    /// (outside the latch) and then release its frame.
    fn plan_reclaim(&self, part: &mut Partition) -> Reclaimed {
        if let Some((_, victim)) = part.peek_clean_victim() {
            let rec = part.remove(victim);
            self.audit(rec.pid, AuditOp::Replace);
            self.forget(false);
            SsdMetrics::bump(&self.metrics.replacements);
            return Reclaimed::Direct;
        }
        // All pages dirty: detach the oldest for inline cleaning.
        if let Some((_, oldest)) = part.peek_dirty_oldest() {
            let rec = part.detach(oldest);
            self.forget(true);
            SsdMetrics::bump(&self.metrics.replacements);
            return Reclaimed::DirtyDeferred {
                idx: oldest,
                victim: rec.pid,
                frame: part.frame_no(oldest),
            };
        }
        Reclaimed::Failed
    }

    /// Inline-clean a victim detached by [`Self::plan_reclaim`]: read its
    /// sole copy off the SSD and write it to disk (both charged
    /// asynchronously since eviction is async). Must be called *without*
    /// the partition latch; the detached frame still holds the bytes.
    /// Returns the victim and the error when its sole copy was lost; the
    /// caller strands it and charges the error once the table is settled.
    fn inline_clean_detached(
        &self,
        now: Time,
        victim: PageId,
        frame: u64,
    ) -> Option<(PageId, IoError)> {
        let mut buf = self.io.zero_page();
        let mut tmp = Clk::at(now);
        match self.ssd_read(&mut tmp, frame, &mut buf) {
            Ok(()) => {
                self.disk_write(tmp.now, victim, &buf);
                self.audit(victim, AuditOp::InlineClean);
                SsdMetrics::bump(&self.metrics.inline_cleans);
                None
            }
            // The dirty victim's sole copy is unreadable: the frame is
            // still freed, but the page is stranded for WAL salvage instead
            // of cleaned to disk.
            Err(e) => Some((victim, e)),
        }
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
    /// Damage found during the probe degrades gracefully instead of being
    /// re-adopted: a checksum mismatch rejects that one frame (torn write
    /// or bit flip from the previous incarnation), while a device-level
    /// failure (death, retries exhausted) quarantines the SSD and aborts
    /// the whole import — the restart proceeds cold rather than fighting a
    /// failing device during recovery.
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
            if !owned.contains(&frame) || !valid(pid, frame) {
                rep.rejected_stale += 1;
                SsdMetrics::bump(&self.metrics.warm_rejected_stale);
                continue;
            }
            match self.ssd_read(clk, frame, &mut buf) {
                Ok(()) => {}
                Err(e) if e.kind == IoErrorKind::ChecksumMismatch => {
                    // The frame's bytes are damaged (torn write or bit flip
                    // that straddled the crash). Reject just this entry;
                    // the page's disk image is still current.
                    self.note_ssd_error(&e);
                    rep.rejected_checksum += 1;
                    SsdMetrics::bump(&self.metrics.warm_rejected_checksum);
                    continue;
                }
                Err(e) => {
                    // Dead or persistently erroring device: quarantine and
                    // abort the import. Nothing was re-adopted from the
                    // unprobed remainder, so the restart is simply cold.
                    self.note_ssd_error(&e);
                    self.quarantine();
                    rep.aborted_dead = true;
                    break;
                }
            }
            let mut part = self.part_at(part_idx);
            let stamp = self.next_stamp();
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
    /// dropped and stranded here rather than silently losing its contents;
    /// one whose entry is gone (a quarantine triggered earlier in the same
    /// batch swept the table) is skipped.
    fn gather(
        &self,
        clk: &mut Clk,
        pids: impl Iterator<Item = PageId>,
    ) -> (Vec<PageId>, Vec<PageBuf>) {
        let n = pids.size_hint().0;
        let mut got: Vec<PageId> = Vec::with_capacity(n);
        let mut bufs: Vec<PageBuf> = Vec::with_capacity(n);
        for pid in pids {
            let Some(frame) = self.frame_of(pid) else {
                continue;
            };
            let mut buf = self.io.zero_page();
            match self.ssd_read(clk, frame, &mut buf) {
                Ok(()) => {
                    got.push(pid);
                    bufs.push(buf);
                }
                Err(e) => {
                    self.note_ssd_error(&e);
                    self.drop_corrupt(pid);
                }
            }
        }
        (got, bufs)
    }

    /// Write the gathered `(pid, image)` pages to disk in consecutive-pid
    /// runs (the disk store ends up sharing the SSD frames' images),
    /// waiting out each write, and mark every written page clean.
    /// Returns `(pages cleaned, run writes issued)`. Pages are left dirty
    /// when the disk is dead (nothing can persist them).
    fn flush_gathered(&self, clk: &mut Clk, pids: &[PageId], bufs: &[PageBuf]) -> (usize, usize) {
        let mut cleaned = 0usize;
        let mut writes = 0usize;
        let mut i = 0usize;
        while i < pids.len() {
            let mut j = i + 1;
            while j < pids.len() && pids[j].0 == pids[j - 1].0 + 1 {
                j += 1;
            }
            match fault::retry_write_forever(|| {
                self.io.write_disk_run_async(clk.now, pids[i], &bufs[i..j])
            }) {
                Ok(done) => {
                    clk.wait_until(done);
                    writes += 1;
                    for pid in &pids[i..j] {
                        let mut was_dirty = false;
                        let mut part = self.part(*pid);
                        if let Some(idx) = part.lookup(*pid) {
                            if part.record(idx).dirty {
                                part.set_clean(idx);
                                was_dirty = true;
                            }
                        }
                        drop(part);
                        if was_dirty {
                            self.audit(*pid, AuditOp::Clean);
                            self.dirty_total.fetch_sub(1, Ordering::Relaxed);
                            cleaned += 1;
                        }
                    }
                }
                Err(_) => {
                    // Dead disk: the pages stay dirty on the SSD and there
                    // is no completion to wait on.
                }
            }
            i = j;
        }
        (cleaned, writes)
    }

    /// Read one page from its SSD frame onto a temporary clock starting at
    /// `start`; returns the completion time. On SSD failure the entry is
    /// dropped: a clean copy falls back to a single-page `Random` disk read
    /// (also from `start`), a dirty (sole-copy) loss propagates so the
    /// engine can WAL-salvage. No `dirty_hits` here: that counts
    /// single-page reads only.
    fn patch_from_ssd(
        &self,
        start: Time,
        pid: PageId,
        frame: u64,
        dirty: bool,
        buf: &mut PageBuf,
    ) -> Result<Time, IoError> {
        let mut tmp = Clk::at(start);
        if self.read_frame(&mut tmp, pid, frame, dirty, buf)? {
            // LRU-2 recency is this tier's own, so the touch stays here.
            let mut part = self.part(pid);
            if let Some(idx) = part.lookup(pid) {
                let stamp = self.next_stamp();
                part.touch(idx, stamp);
            }
            return Ok(tmp.now);
        }
        let mut tmp = Clk::at(start);
        self.disk_read(&mut tmp, pid, Locality::Random, buf)?;
        Ok(tmp.now)
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
    fn read_one<D: PageDst + ?Sized>(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
        buf: &mut D,
    ) -> Result<(), IoError> {
        if self.is_quarantined() {
            self.check_stranded(pid, clk.now)?;
            SsdMetrics::bump(&self.metrics.quarantined_reads);
            SsdMetrics::bump(&self.metrics.ssd_misses);
            return self.disk_read(clk, pid, class, buf);
        }
        let hit: Option<(u64, bool)> = {
            let mut part = self.part(pid);
            match part.lookup(pid) {
                // Throttle control (§3.3.2) skips a clean copy; a dirty one
                // is newer than disk and must be read from the SSD no
                // matter how deep its queue is.
                Some(idx) if part.record(idx).dirty || self.serves_clean_read(clk.now) => {
                    let stamp = self.next_stamp();
                    part.touch(idx, stamp);
                    Some((part.frame_no(idx), part.record(idx).dirty))
                }
                Some(_) | None => None,
            }
        };
        if let Some((frame, dirty)) = hit {
            if self.read_frame(clk, pid, frame, dirty, buf)? {
                if dirty {
                    SsdMetrics::bump(&self.metrics.dirty_hits);
                }
                return Ok(());
            }
            // A clean copy is replaceable: fall through to disk.
        }
        // Stranded by an earlier failure (without quarantine).
        self.check_stranded(pid, clk.now)?;
        SsdMetrics::bump(&self.metrics.ssd_misses);
        self.disk_read(clk, pid, class, buf)
    }

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
                self.disk_write(now, pid, data);
            }
            return;
        }
        {
            let part = self.part(pid);
            if let Some(idx) = part.lookup(pid) {
                // A valid SSD copy exists, so the evicted memory copy is
                // identical (a dirtied copy would have been invalidated).
                debug_assert!(!dirty, "dirty eviction with live SSD copy");
                debug_assert_eq!(part.record(idx).pid, pid);
                return;
            }
        }

        if !admits(class, self.filling()) {
            SsdMetrics::bump(&self.metrics.policy_rejections);
            if dirty {
                self.disk_write(now, pid, data);
            }
            return;
        }
        let throttled = !self.admits_now(now, &mut None);
        // A clean page is cached; a dirty one goes where the design's row
        // says (§2.3). Write-back falls back to disk only, like CW, while
        // throttled or paused by a sharp checkpoint (§3.2). Its WAL
        // ordering is the engine's contract: the log was flushed at commit,
        // before the page could be evicted.
        let row = self.cfg.design.policy().dirty_eviction;
        let paused = now < self.pause_dirty_until.load(Ordering::Relaxed);
        let to = if row == DirtyEviction::Ssd && (throttled || paused) {
            DirtyEviction::Disk
        } else {
            row
        };
        if dirty && to != DirtyEviction::Ssd {
            self.disk_write(now, pid, data);
        }
        // The SSD takes every clean page, and a dirty one the row sends it.
        if !throttled && (!dirty || to != DirtyEviction::Disk) {
            self.install(now, pid, data, dirty && to == DirtyEviction::Ssd);
        }
    }

    fn checkpoint<S: PageSrc + ?Sized>(
        &self,
        now: Time,
        pid: PageId,
        data: &S,
        class: Locality,
    ) -> Time {
        let done = self.disk_write(now, pid, data);
        // The checkpoint mirror (DW, §3.2): during a checkpoint,
        // admission-qualified dirty pages are written to the SSD as well,
        // filling it faster.
        // `filling = false` on purpose: the mirror admits random-class
        // pages only, with no aggressive-filling term. Not `admits_now`:
        // a throttled mirror is skipped without counting.
        if self.cfg.design.policy().checkpoint_mirror
            && admits(class, false)
            && !self.is_quarantined()
            && !self.throttled(now)
            && !self.contains(pid)
        {
            self.install(now, pid, data, false);
        }
        done
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
        self.read_one(clk, pid, class, buf)
    }

    fn read_page_buf(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
        buf: &mut PageBuf,
    ) -> Result<(), IoError> {
        self.read_one(clk, pid, class, buf)
    }

    fn read_run(&self, clk: &mut Clk, first: PageId, n: u64) -> Result<Vec<PageBuf>, IoError> {
        assert!(n > 0);
        // A page of the run awaiting WAL salvage fails the whole request,
        // so the engine salvages and retries.
        for i in 0..n {
            self.check_stranded(first.offset(i), clk.now)?;
        }
        if self.is_quarantined() {
            // The table is empty, so every page below reads from disk; the
            // counter records the degradation for the harnesses.
            SsdMetrics::bump(&self.metrics.quarantined_reads);
        }
        // No page bytes move: disk pages arrive as handles on the disk
        // store's images, and a page read from the SSD replaces its
        // placeholder (a handle on the shared zero page) with a handle on
        // the frame's image.
        let mut out: Vec<PageBuf> = Vec::with_capacity(n as usize);
        let status: Vec<Option<(u64, bool)>> =
            (0..n).map(|i| self.entry(first.offset(i))).collect();
        let now0 = clk.now;
        let mut done = now0;

        match self.cfg.multipage {
            MultiPageMode::Trim => {
                // Trimming (§3.3.3): peel SSD-resident pages off both ends,
                // read the middle as one disk I/O; dirty SSD pages inside
                // the middle are patched from the SSD afterwards.
                let throttled = self.throttled(now0);
                let (lead, trail) = trim_ends(n as usize, |i| match status[i] {
                    Some((_, dirty)) => dirty || !throttled,
                    None => false,
                });
                let mid = lead..(n as usize - trail);
                out.extend((0..lead).map(|_| self.io.zero_page()));
                if !mid.is_empty() {
                    let mut tmp = Clk::at(now0);
                    out.extend(self.disk_read_run(
                        &mut tmp,
                        first.offset(mid.start as u64),
                        mid.len() as u64,
                        Locality::Sequential,
                    )?);
                    done = done.max(tmp.now);
                }
                out.extend((0..trail).map(|_| self.io.zero_page()));
                for i in 0..n as usize {
                    let pid = first.offset(i as u64);
                    let in_ends = i < lead || i >= n as usize - trail;
                    match status[i] {
                        Some((frame, dirty)) if in_ends || dirty => {
                            // Trimmed end page, or a newer-than-disk middle
                            // page that must come from the SSD.
                            let t = self.patch_from_ssd(now0, pid, frame, dirty, &mut out[i])?;
                            done = done.max(t);
                        }
                        _ => {}
                    }
                }
            }
            MultiPageMode::Split => {
                // The paper's discarded first cut: split the request at
                // every SSD-resident page; each disk fragment pays its own
                // positioning cost.
                let throttled = self.throttled(now0);
                let mut i = 0usize;
                while i < n as usize {
                    match status[i] {
                        Some((frame, dirty)) if dirty || !throttled => {
                            let pid = first.offset(i as u64);
                            out.push(self.io.zero_page());
                            let t = self.patch_from_ssd(now0, pid, frame, dirty, &mut out[i])?;
                            done = done.max(t);
                            i += 1;
                        }
                        _ => {
                            let seg_start = i;
                            while i < n as usize
                                && !matches!(status[i], Some((_, d)) if d || !throttled)
                            {
                                i += 1;
                            }
                            let mut tmp = Clk::at(now0);
                            out.extend(self.disk_read_run(
                                &mut tmp,
                                first.offset(seg_start as u64),
                                (i - seg_start) as u64,
                                Locality::Random,
                            )?);
                            done = done.max(tmp.now);
                        }
                    }
                }
            }
            MultiPageMode::DiskOnly => {
                let mut tmp = Clk::at(now0);
                out.extend(self.disk_read_run(&mut tmp, first, n, Locality::Sequential)?);
                done = done.max(tmp.now);
                // Correctness: dirty SSD copies are newer than what the
                // disk returned.
                for i in 0..n as usize {
                    if let Some((frame, true)) = status[i] {
                        let pid = first.offset(i as u64);
                        let t = self.patch_from_ssd(now0, pid, frame, true, &mut out[i])?;
                        done = done.max(t);
                    }
                }
            }
        }
        clk.wait_until(done);
        Ok(out)
    }

    fn evict_page(&self, now: Time, pid: PageId, data: &[u8], dirty: bool, class: Locality) {
        self.evict(now, pid, data, dirty, class);
    }

    fn evict_page_buf(&self, now: Time, pid: PageId, data: &PageBuf, dirty: bool, class: Locality) {
        self.evict(now, pid, data, dirty, class);
    }

    fn note_dirtied(&self, _now: Time, pid: PageId) {
        // Physical invalidation (§4.2): the frame returns to the free list
        // immediately, unlike TAC's logical invalidation.
        let mut part = self.part(pid);
        if let Some(idx) = part.lookup(pid) {
            let rec = part.remove(idx);
            drop(part);
            self.audit(pid, AuditOp::Invalidate);
            self.forget(rec.dirty);
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
        if !self.cfg.design.policy().write_back() || self.is_quarantined() {
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
        let mut i = 0usize;
        while i < dirty_pids.len() {
            let mut j = i + 1;
            while j < dirty_pids.len()
                && dirty_pids[j].0 == dirty_pids[j - 1].0 + 1
                && (j - i) < self.cfg.alpha as usize
            {
                j += 1;
            }
            let (pids, bufs) = self.gather(clk, dirty_pids[i..j].iter().copied());
            let (cleaned, _writes) = self.flush_gathered(clk, &pids, &bufs);
            total += cleaned;
            i = j;
        }
        SsdMetrics::add(&self.metrics.checkpoint_cleaned, total as u64);
    }

    fn has_copy(&self, pid: PageId) -> bool {
        self.contains(pid)
    }

    fn checkpoint_window(&self, _start: Time, end: Time) {
        if self.cfg.design.policy().write_back() {
            self.pause_dirty_until.store(end, Ordering::Relaxed);
        }
    }
}

impl SsdTier for SsdManager {
    fn io(&self) -> &IoManager {
        &self.io
    }

    fn cfg(&self) -> &SsdConfig {
        &self.cfg
    }

    fn metrics(&self) -> &SsdMetrics {
        &self.metrics
    }

    fn health(&self) -> &Health {
        &self.health
    }

    /// Partition by partition, each in frame order.
    fn sweep(&self) -> Vec<(PageId, bool)> {
        let mut out = Vec::new();
        for i in 0..self.parts.len() {
            let mut part = self.part_at(i);
            let idxs: Vec<usize> = part.iter().map(|(idx, _)| idx).collect();
            for rec in idxs.into_iter().map(|idx| part.remove(idx)) {
                self.forget(rec.dirty);
                out.push((rec.pid, rec.dirty));
            }
        }
        out
    }

    fn remove_entry(&self, pid: PageId) -> Option<bool> {
        let mut part = self.part(pid);
        let idx = part.lookup(pid)?;
        let rec = part.remove(idx);
        self.forget(rec.dirty);
        Some(rec.dirty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdDesign;
    use turbopool_iosim::DeviceSetup;

    const PS: usize = 32;

    fn mk(design: SsdDesign, frames: u64) -> (Arc<IoManager>, Arc<SsdManager>) {
        // Single partition: page→partition routing is a hash, so tests that
        // count frames per partition would be distribution-dependent with
        // more than one.
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 1024, frames)));
        let mut cfg = SsdConfig::new(design, frames);
        cfg.partitions = 1;
        let mgr = Arc::new(SsdManager::new(cfg, Arc::clone(&io)));
        (io, mgr)
    }

    fn page(tag: u8) -> Vec<u8> {
        vec![tag; PS]
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
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 1024, 4)));
        let mut cfg = SsdConfig::new(SsdDesign::LazyCleaning, 4);
        cfg.partitions = 1;
        let m = SsdManager::new(cfg, Arc::clone(&io));
        for i in 0..4u64 {
            m.evict_page(0, PageId(i * 16 + 1), &page(1), true, Locality::Random);
        }
        assert_eq!(m.dirty_count(), 4);
        // A fifth dirty eviction forces an inline clean.
        m.evict_page(0, PageId(999), &page(2), true, Locality::Random);
        assert_eq!(m.metrics.snapshot().inline_cleans, 1);
        assert_eq!(m.occupancy(), 4);
        assert!(m.is_dirty(PageId(999)));
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
            // The checkpointed table with out-of-range, cross-partition and
            // duplicated entries spliced in.
            let mut entries = before.export_table();
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..32 {
                let pid = PageId(rng.gen_range(0u64..1024));
                let e = match rng.gen_range(0u32..3) {
                    0 => (pid, rng.gen_range(FRAMES..4 * FRAMES)),
                    1 => (pid, rng.gen_range(0..FRAMES)),
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
            for &(pid, _) in &entries {
                if let Some(frame) = m.frame_of(pid) {
                    let owned = partition_frames(FRAMES, 4, m.part_index(pid));
                    assert!(owned.contains(&frame), "seed {seed}: {pid} in {frame}");
                }
            }
        }
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
        // A dirty eviction under LC puts the SOLE current copy on the SSD.
        m.evict_page(0, PageId(3), &page(0x33), true, Locality::Random);
        assert!(m.is_dirty(PageId(3)));
        let plan = Arc::new(FaultPlan::new(FaultConfig::quiet(2)));
        io.set_ssd_fault(Some(Arc::clone(&plan)));
        plan.kill(1);
        // The dirty hit cannot fall back to disk: the caller must salvage.
        let mut clk = Clk::at(turbopool_iosim::SECOND);
        let mut buf = page(0);
        let err = m
            .read_page(&mut clk, PageId(3), Locality::Random, &mut buf)
            .unwrap_err();
        assert_eq!(err.kind, IoErrorKind::DeviceDead);
        assert!(m.is_quarantined());
        assert_eq!(m.take_stranded(), vec![PageId(3)]);
        assert!(m.take_stranded().is_empty(), "drained exactly once");
        let s = m.metrics.snapshot();
        assert_eq!(s.stranded_dirty, 1);
        assert_eq!(s.lost_frames, 1);
        assert_eq!(m.dirty_count(), 0);
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

    #[test]
    fn error_budget_exhaustion_quarantines() {
        use SsdDesign::{CleanWrite, DualWrite, LazyCleaning, Tac};
        // One cached page per error the budget tolerates, plus one; then
        // every SSD read fails (even after retries), one error per read.
        const N: u64 = SSD_ERROR_BUDGET + 1;
        fn exhaust<T: SsdTier + PageIo>(io: &IoManager, tier: &T, mut clk: Clk) {
            let mut fcfg = FaultConfig::quiet(4);
            fcfg.read_error_prob = 1.0;
            io.set_ssd_fault(Some(Arc::new(FaultPlan::new(fcfg))));
            for i in 0..N {
                assert!(
                    !tier.health().is_quarantined(),
                    "{i} errors are within the budget"
                );
                tier.read_page(&mut clk, PageId(i), Locality::Random, &mut page(0))
                    .unwrap();
            }
            assert!(tier.health().is_quarantined());
            assert_eq!(tier.metrics().snapshot().ssd_io_errors, N);
        }
        for design in [CleanWrite, DualWrite, LazyCleaning, Tac] {
            let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 1024, 2 * N)));
            let mut cfg = SsdConfig::new(design, 2 * N);
            cfg.partitions = 1;
            let mut clk = Clk::new();
            if design == Tac {
                // TAC caches on read, with writes long complete by the reads
                // that fail.
                let t = crate::TacCache::new(cfg, Arc::clone(&io));
                (0..N).for_each(|i| {
                    t.read_page(&mut clk, PageId(i), Locality::Random, &mut page(0))
                        .unwrap()
                });
                clk.elapse(turbopool_iosim::SECOND);
                assert_eq!(t.occupancy(), N);
                exhaust(&io, &t, clk);
            } else {
                let m = SsdManager::new(cfg, Arc::clone(&io));
                (0..N).for_each(|i| m.evict_page(0, PageId(i), &page(1), false, Locality::Random));
                assert_eq!(m.occupancy(), N, "{design:?}");
                exhaust(&io, &m, clk);
            }
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
}
