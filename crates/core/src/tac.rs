//! Temperature-Aware Caching (TAC, Canim et al., VLDB 2010), the baseline
//! of §2.5, as a page flow of the one SSD table: its design's row admits
//! on read and invalidates logically, and its victims are ordered by
//! extent temperature ([`crate::Replacement::ExtentHeat`]).
//!
//! 1. On a memory-pool miss the SSD is probed, and the page's extent heated
//!    by the time an SSD read saves over the disk; hit → read from SSD.
//! 2. After a page is read from *disk*, it is written to the SSD if its
//!    extent is hotter than the coldest one resident.
//! 3. Updating a pool page *logically* invalidates its SSD copy: marked
//!    invalid, its frame not reclaimed — the waste [`SsdManager::invalid_frames`]
//!    counts (7.4–10.4 GB in §2.5).
//! 4. A dirty page evicted is written to disk (write-through), and its SSD
//!    version rewritten.
//!
//! The on-read write is asynchronous: a transaction that dirties the page
//! before it completes cancels it, and the page never reaches the SSD (the
//! latch contention effect of §2.5/§4.2). This file holds steps 2 and 4,
//! which the CW/DW/LC flow has no counterpart for; the rest is the table's.

use std::sync::atomic::Ordering;

use turbopool_iosim::{PageId, PageSrc, Time};

use crate::audit::AuditOp;
use crate::manager::{Entry, SsdManager};
use crate::metrics::SsdMetrics;
use crate::partition::Partition;

/// TAC's table is the one SSD table; the name stays for callers that still
/// build it as `TacCache`.
pub type TacCache = SsdManager;

impl SsdManager {
    /// Logically invalidate record `idx` (§2.5): it stays, marked invalid,
    /// and its frame stays occupied until a refresh rewrites it.
    pub(crate) fn invalidate(&self, part: &mut Partition, idx: usize) {
        let pid = part.record(idx).pid;
        part.invalidate(idx);
        self.invalid_total.fetch_add(1, Ordering::Relaxed);
        self.audit(pid, AuditOp::LogicalInvalidate);
        SsdMetrics::bump(&self.metrics.invalidations);
    }

    /// `pid`'s disk copy just advanced (an eviction or a checkpoint wrote
    /// it), so its SSD copy, if any, is stale: refreshed (step 4) or made
    /// invalid. A *valid* copy can be stale too, admitted on read while this
    /// version sat dirty in the pool (scan read-ahead does that). True if an
    /// invalid copy became valid again. Throttled, but not counted as a
    /// throttled admission.
    pub(crate) fn refresh_stale_copy<S: PageSrc + ?Sized>(
        &self,
        now: Time,
        pid: PageId,
        data: &S,
    ) -> bool {
        if self.is_quarantined() {
            return false;
        }
        let mut part = self.part(pid);
        let Some(idx) = part.lookup(pid) else {
            return false;
        };
        let frame = part.frame_no(idx);
        let write = (!self.throttled(now)).then(|| self.write_frame(now, frame, pid, data));
        let mut revalidated = false;
        if let Some(Ok(done)) = write {
            revalidated = part.validate(idx, done);
            if revalidated {
                self.invalid_total.fetch_sub(1, Ordering::Relaxed);
            }
            self.audit(pid, AuditOp::Refresh);
        } else if part.record(idx).valid {
            // Throttled or the rewrite failed: a valid SSD version is now
            // stale and must never be read again.
            self.invalidate(&mut part, idx);
        }
        drop(part);
        if let Some(Err(f)) = write {
            self.settle(f);
        }
        revalidated
    }

    /// Step 2: `pid` was just read from disk at `now` into `data`. While
    /// filling every page is admitted, sequential ones too. `throttled` is
    /// the throttle verdict at `now`, kept across one disk read's pages (see
    /// `admits_now`) and cleared when this admission writes the SSD.
    pub(crate) fn after_disk_read<S: PageSrc + ?Sized>(
        &self,
        now: Time,
        pid: PageId,
        data: &S,
        throttled: &mut Option<bool>,
    ) {
        if !self.enters(Entry::Read) || self.is_quarantined() || !self.admits_now(now, throttled) {
            return;
        }
        let mut part = self.part(pid);
        if part.lookup(pid).is_some() {
            return;
        }
        if !self.filling() {
            // Qualified admission: not hotter than the coldest valid page,
            // the page stays out; no valid page, it takes a free frame.
            let temp = part.temp(pid);
            if part
                .peek_clean_victim()
                .is_some_and(|((cold, _), _)| temp <= cold)
            {
                SsdMetrics::bump(&self.metrics.policy_rejections);
                return;
            }
        }
        if self.admit(part, now, pid, data, Entry::Read) {
            // The write booked the SSD: the next admission re-evaluates μ.
            *throttled = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use turbopool_bufpool::PageIo;
    use turbopool_iosim::{Clk, DeviceSetup, IoManager, Locality, PageId, Time};

    use super::*;
    use crate::config::{SsdConfig, SsdDesign};

    const PS: usize = 32;

    fn mk(frames: u64) -> (Arc<IoManager>, SsdManager) {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 4096, frames)));
        let mut cfg = SsdConfig::new(SsdDesign::Tac, frames);
        cfg.tac_extent_pages = 4;
        cfg.tau = 1.0; // fill every frame before qualified admission starts
        (Arc::clone(&io), SsdManager::new(cfg, io))
    }

    fn read(t: &SsdManager, clk: &mut Clk, pid: u64) -> u8 {
        let mut buf = vec![0u8; PS];
        t.read_page(clk, PageId(pid), Locality::Random, &mut buf)
            .unwrap();
        buf[0]
    }

    #[test]
    fn write_on_read_then_hit() {
        let (io, t) = mk(8);
        io.write_disk_async(0, PageId(3), &[7u8; PS], Locality::Random)
            .unwrap();
        let mut clk = Clk::new();
        read(&t, &mut clk, 3);
        assert!(
            t.frame_of(PageId(3)).is_some(),
            "admitted immediately on read"
        );
        // Let the in-flight SSD write complete before re-reading.
        clk.elapse(turbopool_iosim::SECOND);
        let disk_reads = io.disk_stats().read_ops;
        assert_eq!(read(&t, &mut clk, 3), 7);
        assert_eq!(io.disk_stats().read_ops, disk_reads, "second read hit SSD");
        assert_eq!(t.metrics.snapshot().ssd_hits, 1);
    }

    #[test]
    fn dirtying_before_write_completes_cancels_admission() {
        let (_io, t) = mk(8);
        let mut clk = Clk::new();
        read(&t, &mut clk, 3);
        // The SSD write takes ~80 us; dirty the page "immediately".
        t.note_dirtied(clk.now, PageId(3));
        assert!(t.frame_of(PageId(3)).is_none());
        assert_eq!(t.occupancy(), 0, "cancelled write frees the frame");
        assert_eq!(t.metrics.snapshot().tac_cancelled_writes, 1);
        // Dirty eviction now finds NO invalid version: page skips the SSD.
        t.evict_page(clk.now + 1, PageId(3), &[9u8; PS], true, Locality::Random);
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn late_dirtying_invalidates_logically_and_wastes_space() {
        let (_io, t) = mk(8);
        let mut clk = Clk::new();
        read(&t, &mut clk, 3);
        clk.elapse(turbopool_iosim::SECOND); // write long complete
        t.note_dirtied(clk.now, PageId(3));
        assert!(t.frame_of(PageId(3)).is_none());
        assert_eq!(t.occupancy(), 1, "frame still occupied");
        assert_eq!(t.invalid_frames(), 1);
        // Dirty eviction refreshes the invalid version.
        t.evict_page(clk.now, PageId(3), &[9u8; PS], true, Locality::Random);
        assert!(t.frame_of(PageId(3)).is_some());
        assert_eq!(t.invalid_frames(), 0);
    }

    #[test]
    fn an_invalid_copy_is_never_served() {
        let (io, t) = mk(8);
        let mut clk = Clk::new();
        read(&t, &mut clk, 3);
        clk.elapse(turbopool_iosim::SECOND);
        t.note_dirtied(clk.now, PageId(3));
        // Book the SSD past μ so the dirty eviction's refresh is
        // throttled: the disk takes the new version, the frame stays
        // invalid.
        for _ in 0..2 * t.config().mu {
            io.write_ssd_async(clk.now, 7, &[0u8; PS], PageId(99))
                .unwrap();
        }
        t.evict_page(clk.now, PageId(3), &[9u8; PS], true, Locality::Random);
        assert_eq!(t.invalid_frames(), 1, "the refresh was throttled");
        // Long after the storm, a miss must read the disk's copy.
        clk.elapse(60 * turbopool_iosim::SECOND);
        assert_eq!(read(&t, &mut clk, 3), 9);
        assert_eq!(t.metrics.snapshot().ssd_hits, 0);
    }

    #[test]
    fn temperature_guides_replacement() {
        let (_io, t) = mk(2);
        let mut clk = Clk::new();
        // Extent 0 (pids 0..4) becomes hot: many misses.
        read(&t, &mut clk, 0);
        read(&t, &mut clk, 1); // fills both frames (extent 0)
                               // pid 8 (extent 2) read repeatedly heats extent 2 hugely.
        clk.elapse(turbopool_iosim::SECOND);
        for _ in 0..10 {
            read(&t, &mut clk, 8);
            t.note_dirtied(clk.now, PageId(8)); // keep it out of the SSD...
            clk.elapse(turbopool_iosim::SECOND);
        }
        // By now extent 2 is far hotter than extent 0; a fresh read of pid
        // 9 (extent 2) replaces a cold extent-0 page.
        read(&t, &mut clk, 9);
        assert!(t.frame_of(PageId(9)).is_some());
        assert_eq!(t.metrics.snapshot().replacements, 1);
    }

    #[test]
    fn sequential_extents_stay_cold() {
        let (_io, t) = mk(4);
        // Sequential reads save (almost) nothing, so they add no heat.
        {
            let mut clk = Clk::new();
            let mut buf = vec![0u8; PS];
            t.read_page(&mut clk, PageId(100), Locality::Sequential, &mut buf)
                .unwrap();
        }
        // Disk seq read (38 us) is FASTER than SSD random read (82 us):
        // saved time clamps to zero.
        assert_eq!(t.part(PageId(100)).temp(PageId(100)), 0);
        let mut clk = Clk::new();
        let mut buf = vec![0u8; PS];
        t.read_page(&mut clk, PageId(200), Locality::Random, &mut buf)
            .unwrap();
        let temp = t.part(PageId(200)).temp(PageId(200));
        assert!(temp > 800_000, "random miss heats extent: {temp}");
    }

    #[test]
    fn run_trim_uses_valid_ssd_pages() {
        let (io, t) = mk(8);
        let mut clk = Clk::new();
        // Put pages 0 and 1 into the SSD via reads, long ago.
        read(&t, &mut clk, 0);
        read(&t, &mut clk, 1);
        clk.elapse(turbopool_iosim::SECOND);
        io.reset_stats();
        let pages = t.read_run(&mut clk, PageId(0), 6).unwrap();
        assert_eq!(pages.len(), 6);
        assert_eq!(io.ssd_stats().read_ops, 2, "leading pages trimmed to SSD");
        assert_eq!(io.disk_stats().read_pages, 4);
    }

    /// When a fresh pair's `read_run` of `first .. first + n` pages, none
    /// cached, makes its admissions: the end of its disk run.
    fn admissions_at(first: u64, n: u64) -> Time {
        let (_, t) = mk(8);
        let mut clk = Clk::new();
        t.read_run(&mut clk, PageId(first), n).unwrap();
        clk.now
    }

    /// Book SSD writes at `at` (to a frame TAC does not use first) until
    /// `left` more would hold a fresh SSD over μ there.
    fn load_ssd(io: &IoManager, mu: usize, at: Time, left: usize) {
        let (twin, _) = mk(8);
        let mut tip = 0;
        while !twin.ssd_overloaded(at, mu) {
            twin.write_ssd_async(at, 7, &[0u8; PS], PageId(99)).unwrap();
            tip += 1;
        }
        assert!(tip > left, "μ is {tip} writes away");
        for _ in 0..tip - left {
            io.write_ssd_async(at, 7, &[0u8; PS], PageId(99)).unwrap();
        }
        assert_eq!(io.ssd_overloaded(at, mu), left == 0);
    }

    #[test]
    fn a_throttled_run_counts_each_mid_page_once() {
        let (io, t) = mk(8);
        let at = admissions_at(0, 6);
        load_ssd(&io, t.config().mu, at, 0);
        let mut clk = Clk::new();
        t.read_run(&mut clk, PageId(0), 6).unwrap();
        assert_eq!(clk.now, at, "all six pages are the run's middle");
        let s = t.metrics.snapshot();
        assert_eq!((s.throttled_admissions, s.admissions), (6, 0));
    }

    #[test]
    fn a_run_reevaluates_the_throttle_once_an_admission_books_the_ssd() {
        let (io, t) = mk(8);
        let at = admissions_at(0, 6);
        // One admission short of μ: the run's first page is admitted, and
        // its write tips the SSD over μ for the other five.
        load_ssd(&io, t.config().mu, at, 1);
        let mut clk = Clk::new();
        t.read_run(&mut clk, PageId(0), 6).unwrap();
        let s = t.metrics.snapshot();
        assert_eq!((s.admissions, s.throttled_admissions), (1, 5));
        assert!(t.frame_of(PageId(0)).is_some() && t.frame_of(PageId(1)).is_none());
    }

    #[test]
    fn round_trips_across_extents_and_counts_uncontended_latches() {
        let (io, t) = mk(16);
        for p in 0..16u64 {
            io.write_disk_async(0, PageId(p), &[p as u8 + 1; PS], Locality::Random)
                .unwrap();
        }
        let mut clk = Clk::new();
        // Extents are 4 pages wide; 16 pages span 4 extents.
        for p in 0..16u64 {
            assert_eq!(read(&t, &mut clk, p), p as u8 + 1);
        }
        clk.elapse(turbopool_iosim::SECOND);
        let before_hits = t.metrics.snapshot().ssd_hits;
        for p in 0..16u64 {
            assert_eq!(read(&t, &mut clk, p), p as u8 + 1, "page {p}");
        }
        assert!(
            t.metrics.snapshot().ssd_hits > before_hits,
            "re-reads served from the SSD table"
        );
        let s = t.metrics.snapshot();
        assert!(s.shard_acquisitions > 0);
        assert_eq!(s.shard_contended, 0, "single-threaded: never contended");
        // Invalidation bookkeeping stays consistent.
        t.note_dirtied(clk.now, PageId(5));
        assert_eq!(t.invalid_frames(), 1);
        t.evict_page(clk.now, PageId(5), &[0xAA; PS], true, Locality::Random);
        assert_eq!(t.invalid_frames(), 0);
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    use turbopool_iosim::fault::{FaultConfig, FaultPlan};

    #[test]
    fn tac_death_quarantines_without_data_loss() {
        let (io, t) = mk(8);
        io.write_disk_async(0, PageId(3), &[7u8; PS], Locality::Random)
            .unwrap();
        let mut clk = Clk::new();
        read(&t, &mut clk, 3);
        read(&t, &mut clk, 4);
        clk.elapse(turbopool_iosim::SECOND);
        // Page 4's copy goes logically invalid: the sweep must drop it too.
        t.note_dirtied(clk.now, PageId(4));
        assert_eq!((t.occupancy(), t.invalid_frames()), (2, 1));
        let plan = Arc::new(FaultPlan::new(FaultConfig::quiet(11)));
        io.set_ssd_fault(Some(Arc::clone(&plan)));
        plan.kill(clk.now);
        // Write-through: the disk copy is current, so the dead SSD only
        // costs the hit.
        assert_eq!(read(&t, &mut clk, 3), 7);
        assert!(t.is_quarantined());
        assert_eq!((t.occupancy(), t.invalid_frames()), (0, 0));
        let s = t.metrics.snapshot();
        assert_eq!(s.ssd_quarantined, 1);
        assert_eq!(s.lost_frames, 2);
        assert_eq!(s.stranded_dirty, 0, "TAC never strands: write-through");
        // Dirty evictions still reach the disk after quarantine.
        t.evict_page(clk.now, PageId(3), &[9u8; PS], true, Locality::Random);
        clk.elapse(turbopool_iosim::SECOND);
        assert_eq!(read(&t, &mut clk, 3), 9);
        assert!(t.metrics.snapshot().quarantined_reads >= 1);
    }

    #[test]
    fn tac_torn_ssd_write_is_caught_by_checksum() {
        let (io, t) = mk(8);
        io.write_disk_async(0, PageId(5), &[3u8; PS], Locality::Random)
            .unwrap();
        // Every SSD write tears from here on (prefix-only persistence).
        let mut cfg = FaultConfig::quiet(12);
        cfg.torn_write_prob = 1.0;
        io.set_ssd_fault(Some(Arc::new(FaultPlan::new(cfg))));
        let mut clk = Clk::new();
        // The on-read admission write is torn...
        assert_eq!(read(&t, &mut clk, 5), 3);
        assert!(t.frame_of(PageId(5)).is_some());
        clk.elapse(turbopool_iosim::SECOND);
        // ...so the next read fails verification and falls back to disk.
        assert_eq!(read(&t, &mut clk, 5), 3);
        let s = t.metrics.snapshot();
        assert_eq!(s.checksum_misses, 1);
        assert!(!t.is_quarantined());
        // A torn frame at a run's trimmed end falls back to the run's
        // locality: one sequential disk read, not a random one.
        io.write_disk_async(clk.now, PageId(6), &[4u8; PS], Locality::Random)
            .unwrap();
        assert_eq!(read(&t, &mut clk, 6), 4);
        clk.elapse(turbopool_iosim::SECOND);
        let start = clk.now;
        let pages = t.read_run(&mut clk, PageId(6), 1).unwrap();
        assert_eq!(pages[0].as_slice()[0], 4);
        assert_eq!(t.metrics.snapshot().checksum_misses, 2);
        assert!(clk.now - start < io.setup().disk_profile.rand_read_ns);
    }
}
