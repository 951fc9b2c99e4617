//! The SSD manager for the paper's three designs (CW, DW, LC).
//!
//! Implements [`PageIo`], interposing the SSD between the buffer manager
//! and the disk manager. Pages enter the SSD when they are evicted from the
//! memory pool (never on read — that is TAC's flow, see `tac.rs`), guarded
//! by the admission rule (randomly-read pages only, except during the
//! aggressive-filling phase) and the throttle control. Replacement is LRU-2
//! over the clean heap; dirty pages (LC only) are protected from
//! replacement until the lazy cleaner or a checkpoint flushes them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use turbopool_bufpool::PageIo;
use turbopool_iosim::sync::{Mutex, MutexGuard, Rank};
use turbopool_iosim::{
    fault, Clk, IoError, IoErrorKind, IoManager, Locality, PageBuf, PageDst, PageId, PageSrc, Time,
};

use crate::audit::{AuditOp, InvariantAuditor};
use crate::config::{MultiPageMode, SsdConfig, SsdDesign, HEDGE_PROBE_INTERVAL};
use crate::metrics::SsdMetrics;
use crate::partition::Partition;

/// Fault-tolerance extension: SSD I/O errors (transient, checksum, or
/// device-dead) tolerated before a manager quarantines the SSD and
/// degrades to the noSSD path; a `DeviceDead` error quarantines at once.
/// 64 is wide enough to ride out a transient-error storm, small enough
/// that a persistently erroring device is retired quickly. Read by both
/// managers' `note_ssd_error`.
pub const SSD_ERROR_BUDGET: u64 = 64;

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
    /// True once the SSD has been quarantined (device death or error
    /// budget exhausted); every path then degrades to direct-to-disk.
    quarantined: AtomicBool,
    /// SSD I/O errors observed, charged against [`SSD_ERROR_BUDGET`].
    ssd_errors: AtomicU64,
    /// Degraded-mode decision counter driving canary probes: every
    /// [`HEDGE_PROBE_INTERVAL`]-th hedge-eligible decision still goes
    /// to the SSD so the fail-slow detector keeps receiving samples and
    /// can observe recovery.
    probe_tick: AtomicU64,
    /// Dirty pages whose sole (SSD) copy was lost to corruption or
    /// quarantine, awaiting WAL-tail salvage by the engine.
    stranded: Mutex<Vec<PageId>>,
    /// Counters for the evaluation harnesses.
    pub metrics: SsdMetrics,
    /// Shadow state machine validating every buffer-table transition.
    auditor: InvariantAuditor,
}

impl SsdManager {
    /// Build a manager over the SSD frames of `io`. `cfg.frames` must not
    /// exceed the frame count of the simulated SSD file.
    pub fn new(cfg: SsdConfig, io: Arc<IoManager>) -> Self {
        assert_ne!(
            cfg.design,
            SsdDesign::Tac,
            "use TacCache for the TAC design"
        );
        assert!(cfg.frames <= io.ssd_frames(), "SSD file too small");
        assert!(cfg.partitions >= 1);
        let n = cfg.partitions as u64;
        let per = cfg.frames / n;
        let extra = cfg.frames % n;
        let mut parts = Vec::with_capacity(cfg.partitions);
        let mut base = 0u64;
        for i in 0..n {
            let frames = per + u64::from(i < extra);
            let part = Partition::new(base, frames as usize);
            parts.push(Mutex::ranked(Rank::SsdPartition, part));
            base += frames;
        }
        let auditor = InvariantAuditor::new(cfg.design);
        SsdManager {
            cfg,
            io,
            parts,
            stamp: AtomicU64::new(0),
            occupancy: AtomicU64::new(0),
            dirty_total: AtomicU64::new(0),
            pause_dirty_until: AtomicU64::new(0),
            quarantined: AtomicBool::new(false),
            ssd_errors: AtomicU64::new(0),
            probe_tick: AtomicU64::new(0),
            stranded: Mutex::new(Vec::new()),
            metrics: SsdMetrics::default(),
            auditor,
        }
    }

    /// True once the SSD is quarantined and the manager runs degraded
    /// (every subsequent request takes the direct-to-disk path).
    pub fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Drain the list of dirty pages whose sole (SSD) copy was lost. The
    /// engine must replay the committed WAL tail onto disk before trusting
    /// the disk image of these pages again.
    pub fn take_stranded(&self) -> Vec<PageId> {
        std::mem::take(&mut *self.stranded.lock())
    }

    /// True while `pid` is queued for WAL salvage: its disk image is stale
    /// (or nonexistent), so serving it from disk would silently return the
    /// wrong bytes. Reads of such pages must error instead, which routes
    /// the caller through [`SsdManager::take_stranded`] + salvage first.
    fn is_stranded(&self, pid: PageId) -> bool {
        self.stranded.lock().contains(&pid)
    }

    /// The error returned for reads of stranded-pending pages.
    fn stranded_err(&self, at: Time) -> IoError {
        IoError::new(fault::FaultDevice::Ssd, IoErrorKind::DeviceDead, at)
    }

    /// Record one SSD I/O error; quarantine on device death or once the
    /// error budget is exhausted. Must not be called while a partition
    /// latch is held (quarantine sweeps every partition).
    fn note_ssd_error(&self, e: &IoError) {
        SsdMetrics::bump(&self.metrics.ssd_io_errors);
        if e.kind == IoErrorKind::ChecksumMismatch {
            SsdMetrics::bump(&self.metrics.checksum_misses);
        }
        let seen = self.ssd_errors.fetch_add(1, Ordering::Relaxed) + 1;
        if e.kind == IoErrorKind::DeviceDead || seen > SSD_ERROR_BUDGET {
            self.quarantine();
        }
    }

    /// Degrade to the noSSD path: drop the whole buffer table (each live
    /// entry takes the terminal `Quarantine` transition), queue dirty
    /// pages for WAL salvage, and refuse all future SSD traffic.
    fn quarantine(&self) {
        if self.quarantined.swap(true, Ordering::SeqCst) {
            return;
        }
        SsdMetrics::bump(&self.metrics.ssd_quarantined);
        for i in 0..self.parts.len() {
            let mut part = self.part_at(i);
            let idxs: Vec<usize> = part.iter().map(|(idx, _)| idx).collect();
            let mut recs = Vec::with_capacity(idxs.len());
            for idx in idxs {
                recs.push(part.remove(idx));
            }
            drop(part);
            for rec in recs {
                self.audit(rec.pid, AuditOp::Quarantine);
                self.occupancy.fetch_sub(1, Ordering::Relaxed);
                SsdMetrics::bump(&self.metrics.lost_frames);
                if rec.dirty {
                    self.dirty_total.fetch_sub(1, Ordering::Relaxed);
                    SsdMetrics::bump(&self.metrics.stranded_dirty);
                    self.stranded.lock().push(rec.pid);
                }
            }
        }
    }

    /// The SSD copy of `pid` is unusable: drop the table entry. A dirty
    /// copy was the only current version of the page, so it is additionally
    /// stranded for WAL salvage. No-op if quarantine already swept it.
    fn drop_corrupt(&self, pid: PageId) {
        let mut part = self.part(pid);
        let Some(idx) = part.lookup(pid) else {
            return;
        };
        let rec = part.remove(idx);
        drop(part);
        self.audit(pid, AuditOp::CorruptInvalidate);
        self.occupancy.fetch_sub(1, Ordering::Relaxed);
        SsdMetrics::bump(&self.metrics.lost_frames);
        if rec.dirty {
            self.dirty_total.fetch_sub(1, Ordering::Relaxed);
            SsdMetrics::bump(&self.metrics.stranded_dirty);
            self.stranded.lock().push(pid);
        }
    }

    /// SSD frame read with transient-error retries on `clk`. The final
    /// error (checksum mismatch, device death, or retries exhausted) is
    /// returned for the caller to classify.
    fn ssd_read<D: PageDst + ?Sized>(
        &self,
        clk: &mut Clk,
        frame: u64,
        buf: &mut D,
    ) -> Result<(), IoError> {
        let (retries, out) = fault::retry_sync(clk, |c| self.io.read_ssd(c, frame, buf));
        SsdMetrics::add(&self.metrics.ssd_retries, u64::from(retries));
        out
    }

    /// Synchronous disk read with the standard capped-backoff retry policy;
    /// retry attempts are accounted in the metrics.
    fn disk_read<D: PageDst + ?Sized>(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
        buf: &mut D,
    ) -> Result<(), IoError> {
        let (retries, out) = fault::retry_sync(clk, |c| self.io.read_disk(c, pid, buf, class));
        SsdMetrics::add(&self.metrics.disk_retries, u64::from(retries));
        out
    }

    /// Multi-page disk read with the standard retry policy.
    fn disk_read_run(
        &self,
        clk: &mut Clk,
        first: PageId,
        n: u64,
        loc: Locality,
    ) -> Result<Vec<PageBuf>, IoError> {
        let (retries, out) = fault::retry_sync(clk, |c| self.io.read_disk_run(c, first, n, loc));
        SsdMetrics::add(&self.metrics.disk_retries, u64::from(retries));
        out
    }

    /// Asynchronous disk write that must not drop data: transient errors
    /// retry without bound; only a dead disk — unrecoverable by any policy
    /// — falls through, and then there is nowhere left to persist to. The
    /// IoManager records the lost write so later readers surface the
    /// device error instead of treating the page as never-written.
    fn disk_write<S: PageSrc + ?Sized>(&self, now: Time, pid: PageId, data: &S) {
        if let Err(e) = fault::retry_write_forever(|| {
            self.io.write_disk_async(now, pid, data, Locality::Random)
        }) {
            debug_assert!(!e.is_transient());
        }
    }

    /// Invariant violations caught so far (see [`InvariantAuditor`]).
    pub fn audit_violations(&self) -> u64 {
        self.auditor.violations()
    }

    /// Report a buffer-table transition to the auditor. Violations are
    /// counted in the metrics and abort debug builds immediately.
    #[expect(
        clippy::panic,
        reason = "the auditor's whole point: fail the test run at the first illegal state-machine transition"
    )]
    fn audit(&self, pid: PageId, op: AuditOp) {
        if let Err(e) = self.auditor.observe(pid, op) {
            SsdMetrics::bump(&self.metrics.audit_violations);
            if cfg!(debug_assertions) {
                panic!("SSD buffer-table invariant violated: {e} (pid {pid})");
            }
        }
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
        let part = self.part(pid);
        part.lookup(pid).is_some()
    }

    /// SSD frame number holding `pid`, if cached (introspection for tests
    /// and tools; the frame indexes the simulated SSD file).
    pub fn frame_of(&self, pid: PageId) -> Option<u64> {
        let part = self.part(pid);
        part.lookup(pid).map(|idx| part.frame_no(idx))
    }

    /// True if `pid` is cached dirty (its SSD copy is newer than disk).
    pub fn is_dirty(&self, pid: PageId) -> bool {
        let part = self.part(pid);
        part.lookup(pid)
            .map(|idx| part.record(idx).dirty)
            .unwrap_or(false)
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

    /// Is the SSD queue deeper than the throttle threshold μ?
    fn throttled(&self, now: Time) -> bool {
        self.io.ssd_overloaded(now, self.cfg.mu)
    }

    /// Gray-failure hedging: should this hedge-eligible decision divert
    /// away from the SSD? Healthy SSD: never. While the fail-slow detector
    /// flags the SSD degraded, reads with a valid disk copy and all new
    /// admissions are diverted to disk (only sole-copy dirty frames still
    /// touch the SSD), except that every [`HEDGE_PROBE_INTERVAL`]-th
    /// decision is let through as a canary probe — without probes a
    /// fully-hedged SSD would get no more samples and the detector could
    /// never observe recovery. Once a probe comes back fast the detector
    /// reports `clearing` and every decision probes, so the clear streak
    /// completes (or is refuted) in `CLEAR_AFTER` requests instead of
    /// `CLEAR_AFTER × interval`. The tick advances in deterministic
    /// submission order, so replay is exact.
    fn hedge_or_probe(&self) -> bool {
        if !self.io.ssd_slow() || self.io.ssd_clearing() {
            return false;
        }
        let t = self.probe_tick.fetch_add(1, Ordering::Relaxed);
        t % HEDGE_PROBE_INTERVAL != HEDGE_PROBE_INTERVAL - 1
    }

    /// Outstanding requests on the disk group (congestion signal for the
    /// lazy cleaner).
    pub fn disk_queue_depth(&self, now: Time) -> usize {
        self.io.disk_queue_depth(now)
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
        let mut pending: Option<IoError> = None;
        let mut reclaim_stranded: Option<PageId> = None;
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
                    self.inline_clean_detached(
                        now,
                        victim,
                        frame,
                        &mut pending,
                        &mut reclaim_stranded,
                    );
                    part = self.part(pid);
                    part.release(idx);
                }
                Reclaimed::Failed => {
                    // Nothing reclaimable in this partition (it is empty —
                    // impossible here since free_frames() == 0 — or every
                    // heap is drained): skip the admission, but a dirty
                    // page must still land somewhere durable.
                    drop(part);
                    self.settle_reclaim(pending, reclaim_stranded);
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
        self.settle_reclaim(pending, reclaim_stranded);
    }

    /// Flush bookkeeping deferred by the reclaim path (which starts under
    /// the partition latch and therefore cannot touch the error budget or
    /// the stranded queue itself).
    fn settle_reclaim(&self, pending: Option<IoError>, stranded: Option<PageId>) {
        if let Some(pid) = stranded {
            self.stranded.lock().push(pid);
            SsdMetrics::bump(&self.metrics.stranded_dirty);
            SsdMetrics::bump(&self.metrics.lost_frames);
        }
        if let Some(e) = pending {
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
            self.occupancy.fetch_sub(1, Ordering::Relaxed);
            SsdMetrics::bump(&self.metrics.replacements);
            return Reclaimed::Direct;
        }
        // All pages dirty: detach the oldest for inline cleaning.
        if let Some((_, oldest)) = part.peek_dirty_oldest() {
            let rec = part.detach(oldest);
            self.occupancy.fetch_sub(1, Ordering::Relaxed);
            self.dirty_total.fetch_sub(1, Ordering::Relaxed);
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
    fn inline_clean_detached(
        &self,
        now: Time,
        victim: PageId,
        frame: u64,
        pending: &mut Option<IoError>,
        stranded_out: &mut Option<PageId>,
    ) {
        let mut buf = self.io.zero_page();
        let mut tmp = Clk::at(now);
        match self.ssd_read(&mut tmp, frame, &mut buf) {
            Ok(()) => {
                self.disk_write(tmp.now, victim, &buf);
                self.audit(victim, AuditOp::InlineClean);
                SsdMetrics::bump(&self.metrics.inline_cleans);
            }
            Err(e) => {
                // The dirty victim's sole copy is unreadable: the frame is
                // still freed, but the page is stranded for WAL salvage
                // instead of cleaned to disk.
                self.audit(victim, AuditOp::CorruptInvalidate);
                *pending = Some(e);
                *stranded_out = Some(victim);
            }
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
    /// `valid(pid, frame)` is the caller's staleness filter: it must
    /// return true only when the frame's in-page header still names `pid`
    /// (the frame was not reused before the crash) and `pid`'s disk image
    /// did not advance during redo. Returns the number of imported pages.
    pub fn import_table(
        &self,
        entries: &[(PageId, u64)],
        valid: impl Fn(PageId, u64) -> bool,
    ) -> usize {
        let mut imported = 0usize;
        for &(pid, frame) in entries {
            if !valid(pid, frame) {
                continue;
            }
            // The frame must belong to the partition that pid routes to
            // (it does unless the partition count changed across restart).
            let part_idx = self.part_index(pid);
            let mut part = self.part_at(part_idx);
            let base = part.frame_no(0);
            let cap = part.capacity() as u64;
            if frame < base || frame >= base + cap {
                continue;
            }
            let stamp = self.next_stamp();
            if part.insert_at((frame - base) as usize, pid, stamp) {
                drop(part);
                self.audit(pid, AuditOp::WarmImport);
                imported += 1;
                self.occupancy.fetch_add(1, Ordering::Relaxed);
                SsdMetrics::bump(&self.metrics.warm_imports);
            }
        }
        imported
    }

    /// Hardened re-adoption: like [`SsdManager::import_table`], but every
    /// candidate frame is *probed* — read back through the fault model with
    /// the standard retry policy and checksum verification — before the
    /// table entry is trusted.
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
            if !valid(pid, frame) {
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
            let part_idx = self.part_index(pid);
            let mut part = self.part_at(part_idx);
            let base = part.frame_no(0);
            let cap = part.capacity() as u64;
            if frame < base || frame >= base + cap {
                drop(part);
                rep.rejected_stale += 1;
                SsdMetrics::bump(&self.metrics.warm_rejected_stale);
                continue;
            }
            let stamp = self.next_stamp();
            if part.insert_at((frame - base) as usize, pid, stamp) {
                drop(part);
                self.audit(pid, AuditOp::WarmImport);
                rep.imported += 1;
                self.occupancy.fetch_add(1, Ordering::Relaxed);
                SsdMetrics::bump(&self.metrics.warm_imports);
            }
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
        let mut anchor: Option<(u64, u64, PageId)> = None;
        for i in 0..self.parts.len() {
            let part = self.part_at(i);
            if let Some((key, idx)) = part.peek_dirty_oldest() {
                let pid = part.record(idx).pid;
                if anchor.map(|(k0, k1, _)| key < (k0, k1)).unwrap_or(true) {
                    anchor = Some((key.0, key.1, pid));
                }
            }
        }
        let Some((_, _, anchor_pid)) = anchor else {
            return 0;
        };

        // Gather a maximal consecutive-pid run of dirty pages around the
        // anchor, capped at α.
        let is_dirty_cached = |pid: PageId| -> bool {
            if pid.0 >= self.io.db_pages() {
                return false;
            }
            let part = self.part(pid);
            part.lookup(pid)
                .map(|idx| part.record(idx).dirty)
                .unwrap_or(false)
        };
        let mut lo = anchor_pid;
        let mut hi = anchor_pid; // inclusive
        let mut count = 1u64;
        while count < self.cfg.alpha
            && hi.0 + 1 < self.io.db_pages()
            && is_dirty_cached(hi.offset(1))
        {
            hi = hi.offset(1);
            count += 1;
        }
        while count < self.cfg.alpha && lo.0 > 0 && is_dirty_cached(PageId(lo.0 - 1)) {
            lo = PageId(lo.0 - 1);
            count += 1;
        }

        // Read each page from the SSD into memory (no direct SSD→disk path
        // exists, §2.4), write the gathered pages to disk, and only then
        // mark them clean — a page whose read or write fails must stay
        // dirty (or be stranded) rather than silently lose its contents.
        let mut pids: Vec<PageId> = Vec::with_capacity(count as usize);
        let mut bufs: Vec<PageBuf> = Vec::with_capacity(count as usize);
        for i in 0..count {
            let pid = lo.offset(i);
            let frame = {
                let part = self.part(pid);
                let Some(idx) = part.lookup(pid) else {
                    // A quarantine sweep (triggered by an earlier read in
                    // this very batch) may have emptied the table.
                    continue;
                };
                part.frame_no(idx)
            };
            let mut buf = self.io.zero_page();
            match self.ssd_read(clk, frame, &mut buf) {
                Ok(()) => {
                    pids.push(pid);
                    bufs.push(buf);
                }
                Err(e) => {
                    self.note_ssd_error(&e);
                    self.drop_corrupt(pid);
                }
            }
        }
        let (cleaned, writes) = self.flush_gathered(clk, &pids, &bufs);
        SsdMetrics::add(&self.metrics.cleaned_pages, cleaned as u64);
        SsdMetrics::add(&self.metrics.cleaner_writes, writes as u64);
        cleaned
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

    /// Plan entry for one page of a multi-page request.
    fn run_status(&self, pid: PageId) -> Option<(u64, bool)> {
        let part = self.part(pid);
        part.lookup(pid)
            .map(|idx| (part.frame_no(idx), part.record(idx).dirty))
    }

    /// Read one page from its SSD frame onto a temporary clock starting at
    /// `start`; returns the completion time. On SSD failure the entry is
    /// dropped: a clean copy falls back to a single-page disk read, a
    /// dirty (sole-copy) loss propagates so the engine can WAL-salvage.
    fn patch_from_ssd(
        &self,
        start: Time,
        pid: PageId,
        frame: u64,
        dirty: bool,
        buf: &mut PageBuf,
    ) -> Result<Time, IoError> {
        let mut tmp = Clk::at(start);
        match self.ssd_read(&mut tmp, frame, buf) {
            Ok(()) => {
                let mut part = self.part(pid);
                if let Some(idx) = part.lookup(pid) {
                    let stamp = self.next_stamp();
                    part.touch(idx, stamp);
                }
                SsdMetrics::bump(&self.metrics.ssd_hits);
                Ok(tmp.now)
            }
            Err(e) => {
                self.note_ssd_error(&e);
                self.drop_corrupt(pid);
                if dirty {
                    return Err(e);
                }
                let mut tmp = Clk::at(start);
                self.disk_read(&mut tmp, pid, Locality::Random, buf)?;
                Ok(tmp.now)
            }
        }
    }
}

/// The paper's CW/DW/LC admission rule (§2.2): while filling admit
/// everything, else randomly-read pages only — sequential traffic is cheap
/// on disk and would pollute the SSD. Orthogonal gates (quarantine,
/// throttle, hedging) are the callers'.
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
            if self.is_stranded(pid) {
                // The disk image is stale until the WAL tail is replayed;
                // serving it would silently lose committed writes.
                return Err(self.stranded_err(clk.now));
            }
            SsdMetrics::bump(&self.metrics.quarantined_reads);
            SsdMetrics::bump(&self.metrics.ssd_misses);
            return self.disk_read(clk, pid, class, buf);
        }
        let hit: Option<(u64, bool)> = {
            let mut part = self.part(pid);
            match part.lookup(pid) {
                Some(idx) => {
                    let dirty = part.record(idx).dirty;
                    // Throttle control (§3.3.2) and gray-failure hedging:
                    // skip the SSD when its queue exceeds μ or the
                    // fail-slow detector flags it — unless its copy is
                    // newer than disk, which must be read from the SSD
                    // for correctness no matter how slow it is.
                    if dirty {
                        let stamp = self.next_stamp();
                        part.touch(idx, stamp);
                        Some((part.frame_no(idx), true))
                    } else if self.throttled(clk.now) {
                        SsdMetrics::bump(&self.metrics.throttled_reads);
                        None
                    } else if self.hedge_or_probe() {
                        SsdMetrics::bump(&self.metrics.hedged_reads);
                        None
                    } else {
                        let stamp = self.next_stamp();
                        part.touch(idx, stamp);
                        Some((part.frame_no(idx), false))
                    }
                }
                None => None,
            }
        };
        if let Some((frame, dirty)) = hit {
            match self.ssd_read(clk, frame, buf) {
                Ok(()) => {
                    SsdMetrics::bump(&self.metrics.ssd_hits);
                    if dirty {
                        SsdMetrics::bump(&self.metrics.dirty_hits);
                    }
                    return Ok(());
                }
                Err(e) => {
                    self.note_ssd_error(&e);
                    self.drop_corrupt(pid);
                    if dirty {
                        // The sole current copy is gone; the engine must
                        // replay the WAL tail before re-reading from disk.
                        return Err(e);
                    }
                    // A clean copy is replaceable: fall through to disk.
                }
            }
        }
        if self.is_stranded(pid) {
            // Stranded by an earlier failure (without quarantine): the disk
            // image is stale until the WAL tail is replayed.
            return Err(self.stranded_err(clk.now));
        }
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
        let queue_full = self.throttled(now);
        if queue_full {
            SsdMetrics::bump(&self.metrics.throttled_admissions);
        }
        // Gray-failure hedging: a browned-out SSD receives no optional
        // traffic — admissions divert to disk exactly like throttling.
        // For LC this is also the sole-copy guard: a dirty eviction that
        // would have become an SSD-only copy goes to disk instead, so no
        // *new* sole copies land on a degraded device.
        let hedging = !queue_full && self.hedge_or_probe();
        if hedging {
            SsdMetrics::bump(&self.metrics.hedged_admissions);
        }
        let throttled = queue_full || hedging;

        match self.cfg.design {
            SsdDesign::CleanWrite => {
                if dirty {
                    // CW never caches dirty pages (§2.3.1).
                    self.disk_write(now, pid, data);
                } else if !throttled {
                    self.install(now, pid, data, false);
                }
            }
            SsdDesign::DualWrite => {
                // Write-through: dirty pages go to both places (§2.3.2).
                if dirty {
                    self.disk_write(now, pid, data);
                }
                if !throttled {
                    self.install(now, pid, data, false);
                }
            }
            SsdDesign::LazyCleaning => {
                let paused = now < self.pause_dirty_until.load(Ordering::Relaxed);
                if dirty && (throttled || paused) {
                    self.disk_write(now, pid, data);
                } else if !throttled {
                    // Write-back: the SSD receives the only current copy of
                    // a dirty page (§2.3.3). WAL ordering is the engine's
                    // contract: the log was flushed at commit, before the
                    // page could be evicted.
                    self.install(now, pid, data, dirty);
                }
            }
            #[expect(
                clippy::unreachable,
                reason = "DbConfig routes Tac to TacCache; an SsdManager is never built for it"
            )]
            SsdDesign::Tac => unreachable!("TAC uses TacCache"),
        }
    }

    fn checkpoint<S: PageSrc + ?Sized>(
        &self,
        now: Time,
        pid: PageId,
        data: &S,
        class: Locality,
    ) -> Time {
        let done = match fault::retry_write_forever(|| {
            self.io.write_disk_async(now, pid, data, Locality::Random)
        }) {
            Ok(t) => t,
            // A dead disk completes nothing; there is nothing to wait on.
            Err(_) => now,
        };
        // DW extension (§3.2): during a checkpoint, admission-qualified
        // dirty pages are written to the SSD as well, filling it faster.
        // `filling = false` on purpose: the mirror admits random-class
        // pages only, with no aggressive-filling term.
        if self.cfg.design == SsdDesign::DualWrite
            && admits(class, false)
            && !self.is_quarantined()
            && !self.throttled(now)
        {
            if self.hedge_or_probe() {
                // No optional traffic to a browned-out SSD; the disk
                // write above already persisted the page.
                SsdMetrics::bump(&self.metrics.hedged_admissions);
            } else {
                let cached = {
                    let part = self.part(pid);
                    part.lookup(pid).is_some()
                };
                if !cached {
                    self.install(now, pid, data, false);
                }
            }
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
        for i in 0..n {
            if self.is_stranded(first.offset(i)) {
                // At least one page of the run awaits WAL salvage; fail
                // the whole request so the engine salvages and retries.
                return Err(self.stranded_err(clk.now));
            }
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
            (0..n).map(|i| self.run_status(first.offset(i))).collect();
        let now0 = clk.now;
        let mut done = now0;

        // Gray-failure hedging: while the SSD is flagged fail-slow its
        // clean-resident pages read from disk like misses (dirty pages
        // must still patch from the SSD — theirs is the only copy).
        let hedging = self.hedge_or_probe();
        if hedging && self.cfg.multipage != MultiPageMode::DiskOnly {
            let diverted = status
                .iter()
                .filter(|s| matches!(s, Some((_, false))))
                .count() as u64;
            SsdMetrics::add(&self.metrics.hedged_reads, diverted);
        }

        match self.cfg.multipage {
            MultiPageMode::Trim => {
                // Trimming (§3.3.3): peel SSD-resident pages off both ends,
                // read the middle as one disk I/O; dirty SSD pages inside
                // the middle are patched from the SSD afterwards.
                let throttled = self.throttled(now0) || hedging;
                let from_ssd = |s: &Option<(u64, bool)>| match s {
                    Some((_, true)) => true,
                    Some((_, false)) => !throttled,
                    None => false,
                };
                let mut lead = 0usize;
                while lead < n as usize && from_ssd(&status[lead]) {
                    lead += 1;
                }
                let mut trail = 0usize;
                while trail < n as usize - lead && from_ssd(&status[n as usize - 1 - trail]) {
                    trail += 1;
                }
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
                let throttled = self.throttled(now0) || hedging;
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
            self.occupancy.fetch_sub(1, Ordering::Relaxed);
            if rec.dirty {
                self.dirty_total.fetch_sub(1, Ordering::Relaxed);
            }
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
        if self.cfg.design != SsdDesign::LazyCleaning || self.is_quarantined() {
            return;
        }
        // Sharp checkpoint: every dirty SSD page goes to disk (§3.2).
        let mut dirty_pids: Vec<PageId> = Vec::new();
        for i in 0..self.parts.len() {
            let part = self.part_at(i);
            dirty_pids.extend(part.iter().filter(|(_, r)| r.dirty).map(|(_, r)| r.pid));
        }
        dirty_pids.sort_unstable();

        // Flush in consecutive-pid group-cleaning batches of up to α pages.
        // As in `clean_batch`, pages are marked clean only after their disk
        // write succeeds; an unreadable SSD copy strands the page instead.
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
            let mut pids: Vec<PageId> = Vec::with_capacity(j - i);
            let mut bufs: Vec<PageBuf> = Vec::with_capacity(j - i);
            for pid in &dirty_pids[i..j] {
                let frame = {
                    let part = self.part(*pid);
                    let Some(idx) = part.lookup(*pid) else {
                        // Swept by a quarantine triggered earlier in this
                        // same flush.
                        continue;
                    };
                    part.frame_no(idx)
                };
                let mut buf = self.io.zero_page();
                match self.ssd_read(clk, frame, &mut buf) {
                    Ok(()) => {
                        pids.push(*pid);
                        bufs.push(buf);
                    }
                    Err(e) => {
                        self.note_ssd_error(&e);
                        self.drop_corrupt(*pid);
                    }
                }
            }
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
        if self.cfg.design == SsdDesign::LazyCleaning {
            self.pause_dirty_until.store(end, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // One cached page per error the budget tolerates, plus one.
        let n = SSD_ERROR_BUDGET + 1;
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 1024, 2 * n)));
        let mut cfg = SsdConfig::new(SsdDesign::DualWrite, 2 * n);
        cfg.partitions = 1;
        let m = SsdManager::new(cfg, Arc::clone(&io));
        for i in 0..n {
            m.evict_page(0, PageId(i), &page(i as u8), false, Locality::Random);
        }
        // All SSD reads now fail (even after retries).
        let mut fcfg = FaultConfig::quiet(4);
        fcfg.read_error_prob = 1.0;
        io.set_ssd_fault(Some(Arc::new(FaultPlan::new(fcfg))));
        let mut clk = Clk::new();
        let mut buf = page(0);
        for i in 0..n {
            assert!(!m.is_quarantined(), "{i} errors are within the budget");
            m.read_page(&mut clk, PageId(i), Locality::Random, &mut buf)
                .unwrap();
        }
        // Error budget + 1 exceeded it.
        assert!(m.is_quarantined());
        assert_eq!(m.metrics.snapshot().ssd_io_errors, n);
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
