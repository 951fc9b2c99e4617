//! The SSD tier's device edge, written once for both tiers.
//!
//! [`crate::SsdManager`] (CW/DW/LC) and [`crate::TacCache`] differ in their
//! buffer table and page flow, not in how a frame is read or how a failing
//! SSD is retired. What they share is the provided methods of [`SsdTier`]:
//! bounded retry around every device call, the error budget and the
//! quarantine it trips, the corrupt-frame fallback, the throttle (μ) and
//! gray-failure hedging gates with their canary probes, and the invariant
//! auditor, and the strand list of dirty pages whose sole copy was lost. A
//! tier supplies four accessors and the two hooks that remove entries from
//! its table ([`SsdTier::sweep`], [`SsdTier::remove_entry`]); the edge does
//! the accounting for what they remove. DESIGN §8 lists the differences
//! that stay with the tiers because they move virtual time.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use turbopool_iosim::sync::Mutex;
use turbopool_iosim::{
    fault, Clk, IoError, IoErrorKind, IoManager, Locality, PageBuf, PageDst, PageId, PageSrc, Time,
};

use crate::audit::{AuditOp, InvariantAuditor};
use crate::config::{SsdConfig, SsdDesign, HEDGE_PROBE_INTERVAL};
use crate::metrics::SsdMetrics;

/// Fault-tolerance extension: SSD I/O errors (transient, checksum, or
/// device-dead) tolerated before a tier quarantines the SSD and degrades
/// to the noSSD path; a `DeviceDead` error quarantines at once. 64 is wide
/// enough to ride out a transient-error storm, small enough that a
/// persistently erroring device is retired quickly.
pub const SSD_ERROR_BUDGET: u64 = 64;

/// A tier's view of its SSD's health, and the auditor of its table.
pub(crate) struct Health {
    /// True once the SSD has been quarantined (device death or error
    /// budget exhausted); every path then degrades to direct-to-disk.
    quarantined: AtomicBool,
    /// SSD I/O errors observed, charged against [`SSD_ERROR_BUDGET`].
    errors: AtomicU64,
    /// Hedge-eligible decisions taken while the SSD is flagged fail-slow,
    /// driving the canary probes of [`SsdTier::hedge_or_probe`].
    probe_tick: AtomicU64,
    /// Shadow state machine validating every buffer-table transition.
    auditor: InvariantAuditor,
    /// Dirty pages whose sole (SSD) copy was lost to corruption or
    /// quarantine, awaiting WAL-tail salvage by the engine. Only a
    /// write-back design ever adds one.
    stranded: Mutex<Vec<PageId>>,
}

impl Health {
    pub(crate) fn new(design: SsdDesign) -> Self {
        Health {
            quarantined: AtomicBool::new(false),
            errors: AtomicU64::new(0),
            probe_tick: AtomicU64::new(0),
            auditor: InvariantAuditor::new(design),
            stranded: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Relaxed)
    }

    pub(crate) fn audit_violations(&self) -> u64 {
        self.auditor.violations()
    }

    /// Drain the strand list.
    pub(crate) fn take_stranded(&self) -> Vec<PageId> {
        std::mem::take(&mut *self.stranded.lock())
    }
}

/// The device edge both SSD tiers consult. Statically dispatched: each
/// tier implements the accessors and hooks and inherits the rest.
pub(crate) trait SsdTier {
    fn io(&self) -> &IoManager;
    fn cfg(&self) -> &SsdConfig;
    fn metrics(&self) -> &SsdMetrics;
    fn health(&self) -> &Health;

    /// Quarantine's table half: remove every entry. Returns each removed
    /// page with its dirty flag, in an order fixed by the table alone.
    fn sweep(&self) -> Vec<(PageId, bool)>;

    /// Remove `pid`'s entry; returns its dirty flag, or `None` when there
    /// is none (quarantine already swept it).
    fn remove_entry(&self, pid: PageId) -> Option<bool>;

    /// Account for an entry removed with its frame's contents: the audit
    /// transition `op` and a lost frame. A dirty copy was the only current
    /// version of the page, so the page is stranded for WAL salvage.
    fn lose(&self, pid: PageId, op: AuditOp, dirty: bool) {
        self.audit(pid, op);
        SsdMetrics::bump(&self.metrics().lost_frames);
        if dirty {
            SsdMetrics::bump(&self.metrics().stranded_dirty);
            self.health().stranded.lock().push(pid);
        }
    }

    /// The SSD copy of `pid` is unusable: drop its entry
    /// (`CorruptInvalidate`). No-op if quarantine already swept it.
    fn drop_corrupt(&self, pid: PageId) {
        if let Some(dirty) = self.remove_entry(pid) {
            self.lose(pid, AuditOp::CorruptInvalidate, dirty);
        }
    }

    /// Fails while `pid` is queued for WAL salvage: its disk image is stale
    /// (or nonexistent) until the WAL tail is replayed, so serving it from
    /// disk would silently lose committed writes. The error routes the
    /// caller through the strand list and salvage first.
    fn check_stranded(&self, pid: PageId, at: Time) -> Result<(), IoError> {
        if self.health().stranded.lock().contains(&pid) {
            return Err(IoError::new(
                fault::FaultDevice::Ssd,
                IoErrorKind::DeviceDead,
                at,
            ));
        }
        Ok(())
    }

    /// Record one SSD I/O error; quarantine on device death or once the
    /// error budget is exhausted. Must not be called under a table latch
    /// (quarantine takes every one to sweep the table).
    fn note_ssd_error(&self, e: &IoError) {
        let m = self.metrics();
        SsdMetrics::bump(&m.ssd_io_errors);
        if e.kind == IoErrorKind::ChecksumMismatch {
            SsdMetrics::bump(&m.checksum_misses);
        }
        let seen = self.health().errors.fetch_add(1, Ordering::Relaxed) + 1;
        if e.kind == IoErrorKind::DeviceDead || seen > SSD_ERROR_BUDGET {
            self.quarantine();
        }
    }

    /// Degrade to the noSSD path: drop the whole buffer table and refuse
    /// all future SSD traffic. Runs once.
    fn quarantine(&self) {
        if self.health().quarantined.swap(true, Ordering::SeqCst) {
            return;
        }
        SsdMetrics::bump(&self.metrics().ssd_quarantined);
        for (pid, dirty) in self.sweep() {
            self.lose(pid, AuditOp::Quarantine, dirty);
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
        let (retries, out) = fault::retry_sync(clk, |c| self.io().read_ssd(c, frame, buf));
        SsdMetrics::add(&self.metrics().ssd_retries, u64::from(retries));
        out
    }

    /// Synchronous disk read with the standard capped-backoff retry policy.
    fn disk_read<D: PageDst + ?Sized>(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
        buf: &mut D,
    ) -> Result<(), IoError> {
        let (retries, out) = fault::retry_sync(clk, |c| self.io().read_disk(c, pid, buf, class));
        SsdMetrics::add(&self.metrics().disk_retries, u64::from(retries));
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
        let (retries, out) = fault::retry_sync(clk, |c| self.io().read_disk_run(c, first, n, loc));
        SsdMetrics::add(&self.metrics().disk_retries, u64::from(retries));
        out
    }

    /// Asynchronous disk write that must not drop data: transient errors
    /// retry without bound; only a dead disk — unrecoverable by any policy
    /// — falls through, and then there is nowhere left to persist to. The
    /// IoManager records the lost write so later readers surface the
    /// device error instead of treating the page as never-written. Returns
    /// the completion time, or `now` when a dead disk completes nothing.
    fn disk_write<S: PageSrc + ?Sized>(&self, now: Time, pid: PageId, data: &S) -> Time {
        match fault::retry_write_forever(|| {
            self.io().write_disk_async(now, pid, data, Locality::Random)
        }) {
            Ok(done) => done,
            Err(e) => {
                debug_assert!(!e.is_transient());
                now
            }
        }
    }

    /// Read `pid`'s SSD copy from `frame`. `Ok(true)`: served, counted as
    /// an SSD hit. On a failed read the error is charged and the entry
    /// dropped; then `Ok(false)` tells the caller to read the disk copy,
    /// unless the SSD held the page's `sole_copy` (an LC dirty page): that
    /// loss is returned, because the disk image is stale.
    fn read_frame<D: PageDst + ?Sized>(
        &self,
        clk: &mut Clk,
        pid: PageId,
        frame: u64,
        sole_copy: bool,
        buf: &mut D,
    ) -> Result<bool, IoError> {
        match self.ssd_read(clk, frame, buf) {
            Ok(()) => {
                SsdMetrics::bump(&self.metrics().ssd_hits);
                Ok(true)
            }
            Err(e) => {
                self.note_ssd_error(&e);
                self.drop_corrupt(pid);
                if sole_copy {
                    Err(e)
                } else {
                    Ok(false)
                }
            }
        }
    }

    /// Report a buffer-table transition to the auditor. Violations are
    /// counted in the metrics and abort debug builds immediately.
    #[expect(
        clippy::panic,
        reason = "the auditor's whole point: fail the test run at the first illegal state-machine transition"
    )]
    fn audit(&self, pid: PageId, op: AuditOp) {
        if let Err(e) = self.health().auditor.observe(pid, op) {
            SsdMetrics::bump(&self.metrics().audit_violations);
            if cfg!(debug_assertions) {
                panic!("SSD buffer-table invariant violated: {e} (pid {pid})");
            }
        }
    }

    /// Is the SSD queue deeper than the throttle threshold μ (§3.3.2)?
    fn throttled(&self, now: Time) -> bool {
        self.io().ssd_overloaded(now, self.cfg().mu)
    }

    /// Gray-failure hedging: should this hedge-eligible decision divert
    /// away from the SSD? Healthy SSD: never. While the fail-slow detector
    /// flags the SSD degraded, traffic with a valid disk copy (reads of
    /// clean copies, admissions, TAC refreshes) diverts to disk, except
    /// that every [`HEDGE_PROBE_INTERVAL`]-th decision is let through as a
    /// canary probe — without probes a fully-hedged SSD would get no more
    /// samples and the detector could never observe recovery. Once a probe
    /// comes back fast the detector reports `clearing` and every decision
    /// probes, so the clear streak completes (or is refuted) in
    /// `CLEAR_AFTER` requests instead of `CLEAR_AFTER × interval`. Each
    /// call while degraded advances the tick, in deterministic submission
    /// order, so replay is exact and every call site is part of the
    /// cadence.
    fn hedge_or_probe(&self) -> bool {
        let io = self.io();
        if !io.ssd_slow() || io.ssd_clearing() {
            return false;
        }
        let t = self.health().probe_tick.fetch_add(1, Ordering::Relaxed);
        t % HEDGE_PROBE_INTERVAL != HEDGE_PROBE_INTERVAL - 1
    }

    /// The gate on a clean SSD hit: read the SSD unless its queue exceeds
    /// μ or it is hedged, counting the diverted read either way.
    fn serves_clean_read(&self, now: Time) -> bool {
        if self.throttled(now) {
            SsdMetrics::bump(&self.metrics().throttled_reads);
            false
        } else if self.hedge_or_probe() {
            SsdMetrics::bump(&self.metrics().hedged_reads);
            false
        } else {
            true
        }
    }

    /// The gate on an admission: write the SSD unless its queue exceeds μ
    /// or it is hedged, counting the skipped admission either way.
    /// `throttled` is the throttle verdict at `now`, evaluated here if
    /// `None`. It is a pure function of the SSD's bookings and `now`, so a
    /// caller admitting several pages at one instant (a TAC run) keeps it
    /// until one of them writes the SSD.
    fn admits_now(&self, now: Time, throttled: &mut Option<bool>) -> bool {
        if *throttled.get_or_insert_with(|| self.throttled(now)) {
            SsdMetrics::bump(&self.metrics().throttled_admissions);
            false
        } else if self.hedge_or_probe() {
            SsdMetrics::bump(&self.metrics().hedged_admissions);
            false
        } else {
            true
        }
    }
}

/// Trimming (§3.3.3): how many pages at the start (`lead`) and, of the
/// rest, at the end (`trail`) of an `n`-page run to read from the SSD, so
/// the middle is one disk I/O. `from_ssd(i)` says whether page `i` would.
pub(crate) fn trim_ends(n: usize, from_ssd: impl Fn(usize) -> bool) -> (usize, usize) {
    let lead = (0..n).take_while(|&i| from_ssd(i)).count();
    let trail = (lead..n).rev().take_while(|&i| from_ssd(i)).count();
    (lead, trail)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use turbopool_bufpool::PageIo;
    use turbopool_iosim::fault::{FaultConfig, FaultPlan};
    use turbopool_iosim::health::CLEAR_AFTER;
    use turbopool_iosim::{DeviceSetup, SECOND};

    use super::*;
    use crate::{SsdManager, TacCache};

    const PS: usize = 32;
    const PID: PageId = PageId(7);
    /// Not a multiple of the probe interval, so an off-by-one cadence
    /// changes which hits probe and how many.
    const HITS: u64 = 40;

    /// Brown out the SSD holding `PID` clean in `frame`, then let it
    /// recover. `probes(i)`: does the `i`-th hit while degraded reach it?
    fn brownout_cadence<T: SsdTier + PageIo>(
        io: &IoManager,
        tier: &T,
        frame: u64,
        mut clk: Clk,
        probes: impl Fn(u64) -> bool,
    ) {
        let end = clk.now + 60 * SECOND;
        let plan = FaultConfig::brownout_train(9, clk.now, end, 0, 0, 20);
        io.set_ssd_fault(Some(Arc::new(FaultPlan::new(plan))));
        let mut buf = [0u8; PS];
        for _ in 0..32 {
            if !io.ssd_slow() {
                io.read_ssd(&mut clk, frame, &mut buf).unwrap();
            }
        }
        // One clean hit through the tier; true if it reached the SSD.
        let hit = |clk: &mut Clk| {
            let before = io.ssd_stats().read_ops;
            tier.read_page(clk, PID, Locality::Random, &mut [0u8; PS])
                .unwrap();
            io.ssd_stats().read_ops > before
        };
        assert!(io.ssd_slow(), "the brownout trips the detector");
        let hedged = tier.metrics().snapshot().hedged_reads;
        let mut reached = 0;
        for i in 0..HITS {
            let probed = hit(&mut clk);
            assert_eq!(probed, probes(i), "hit {i}");
            reached += u64::from(probed);
        }
        let hedged = tier.metrics().snapshot().hedged_reads - hedged;
        assert_eq!(hedged, HITS - reached, "every other hit is hedged");
        // The device recovers: one fast sample starts the clearing streak,
        // and from then on every hit probes until the detector clears.
        clk.wait_until(end);
        io.read_ssd(&mut clk, frame, &mut buf).unwrap();
        let mut burst = 0;
        while io.ssd_clearing() {
            assert!(hit(&mut clk), "burst hit {burst}");
            burst += 1;
        }
        assert_eq!((burst, io.ssd_slow()), (CLEAR_AFTER - 1, false));
    }

    #[test]
    fn hedge_cadence_and_clearing_burst_on_both_tiers() {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 1024, 16)));
        let dw = SsdManager::new(SsdConfig::new(SsdDesign::DualWrite, 16), Arc::clone(&io));
        dw.evict_page(0, PID, &[0xD0; PS], false, Locality::Random);
        // One hedge decision per hit: the 16th and 32nd probe.
        let frame = dw.frame_of(PID).unwrap();
        brownout_cadence(&io, &dw, frame, Clk::new(), |i| i == 15 || i == 31);

        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 1024, 16)));
        let tac = TacCache::new(SsdConfig::new(SsdDesign::Tac, 16), Arc::clone(&io));
        let mut clk = Clk::new();
        tac.read_page(&mut clk, PID, Locality::Random, &mut [0u8; PS])
            .unwrap();
        clk.elapse(SECOND);
        // A hedged TAC hit falls through to the miss path, whose
        // write-on-read admission is a second decision: hits take the even
        // ticks, and every canary lands on a no-op re-admission instead.
        let frame = tac.frame_of_valid(PID).unwrap();
        brownout_cadence(&io, &tac, frame, clk, |_| false);
    }
}
