//! The lazy-cleaning background thread (§2.3.3, §3.3.5).
//!
//! The cleaner wakes when the number of dirty SSD pages exceeds the λ
//! high-water mark and flushes group-cleaning batches until the count drops
//! slightly below it (the paper drains to about 0.01% of the SSD below λ).
//! In the discrete-event driver the cleaner is a pseudo-client: each call
//! to [`LazyCleaner::step`] performs at most one batch on the cleaner's own
//! virtual clock, so its I/O competes with foreground transactions for
//! device time — which is exactly the throughput cliff of Figure 6.
//!
//! Congestion awareness (gray-failure extension): cleaning writes land on
//! the same spindles that serve foreground misses, so the cleaner adapts
//! to the disk group's queue depth. Above the high-water mark it *yields*
//! a round ([`CleanerStep::Backoff`]) while the disk queue exceeds
//! [`CLEANER_DISK_QUEUE_MAX`] — unless dirty pages have piled past the hard
//! [`dirty_ceiling`](crate::config::SsdConfig::dirty_ceiling), where
//! bounding dirty growth outranks foreground latency. Below the mark it
//! *drains opportunistically* while the disk is idle
//! ([`CLEANER_IDLE_DEPTH`]), buying headroom for the next burst.

use std::sync::Arc;

use turbopool_iosim::{Clk, Time, MILLISECOND};

use crate::manager::SsdManager;
use crate::metrics::SsdMetrics;

/// Disk-group queue depth above which a cleaning round is yielded, so
/// cleaning back-pressure never competes with foreground misses: 32
/// outstanding requests is 4 per member of the paper's 8-disk group.
pub const CLEANER_DISK_QUEUE_MAX: usize = 32;

/// Disk-group queue depth at or below which the cleaner drains
/// opportunistically even below the λ high-water mark: 1 means the disk
/// is essentially idle.
pub const CLEANER_IDLE_DEPTH: usize = 1;

/// What a cleaner step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CleanerStep {
    /// Dirty count was at or below the high-water mark; nothing done. The
    /// caller should sleep for [`LazyCleaner::poll_interval`].
    Idle,
    /// Dirty count calls for cleaning but the disk group is congested and
    /// the hard ceiling has not been reached: the round was yielded to
    /// foreground I/O. The caller should sleep like `Idle`.
    Backoff,
    /// One group-cleaning batch of this many pages was flushed.
    Cleaned(usize),
}

/// Driver-facing handle for the LC cleaner thread.
pub struct LazyCleaner {
    mgr: Arc<SsdManager>,
    /// Keep cleaning until the dirty count reaches this (λ − slack).
    low_water: u64,
    /// Wake-up threshold (λ).
    high_water: u64,
    /// Hard dirty ceiling: above it congestion no longer defers cleaning.
    ceiling: u64,
    /// Below the high-water mark we are draining toward the low-water mark.
    draining: bool,
}

impl LazyCleaner {
    pub fn new(mgr: Arc<SsdManager>) -> Self {
        let cfg = mgr.config();
        LazyCleaner {
            low_water: cfg.dirty_low_water(),
            high_water: cfg.dirty_high_water(),
            ceiling: cfg.dirty_ceiling(),
            mgr,
            draining: false,
        }
    }

    /// How long the cleaner sleeps between polls when idle.
    pub fn poll_interval(&self) -> Time {
        100 * MILLISECOND
    }

    /// Run at most one cleaning batch.
    pub fn step(&mut self, clk: &mut Clk) -> CleanerStep {
        let dirty = self.mgr.dirty_count();
        if self.draining {
            if dirty <= self.low_water {
                self.draining = false;
                return CleanerStep::Idle;
            }
        } else if dirty <= self.high_water {
            // Opportunistic draining: the λ trigger hasn't fired, but the
            // disk group is idle and there are dirty pages above the
            // low-water mark — clean one batch now so the next burst
            // starts with headroom instead of a cliff.
            if dirty > self.low_water && self.mgr.disk_queue_depth(clk.now) <= CLEANER_IDLE_DEPTH {
                SsdMetrics::bump(&self.mgr.metrics.cleaner_boosts);
                let n = self.mgr.clean_batch(clk);
                return if n == 0 {
                    CleanerStep::Idle
                } else {
                    CleanerStep::Cleaned(n)
                };
            }
            return CleanerStep::Idle;
        } else {
            self.draining = true;
        }
        // Congestion backpressure: cleaning writes would queue behind
        // foreground misses on the disk group. Yield the round unless
        // dirty pages have piled past the hard ceiling, where bounding
        // dirty accumulation outranks foreground latency.
        if dirty < self.ceiling && self.mgr.disk_queue_depth(clk.now) > CLEANER_DISK_QUEUE_MAX {
            SsdMetrics::bump(&self.mgr.metrics.cleaner_backoffs);
            return CleanerStep::Backoff;
        }
        let n = self.mgr.clean_batch(clk);
        if n == 0 {
            self.draining = false;
            CleanerStep::Idle
        } else {
            CleanerStep::Cleaned(n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SsdConfig, SsdDesign};
    use turbopool_bufpool::PageIo;
    use turbopool_iosim::{DeviceSetup, IoManager, Locality, PageId, MILLISECOND};

    const PS: usize = 32;

    fn lc(frames: u64, lambda: f64, alpha: u64) -> (Arc<IoManager>, Arc<SsdManager>, LazyCleaner) {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 4096, frames)));
        let mut cfg = SsdConfig::new(SsdDesign::LazyCleaning, frames);
        cfg.lambda = lambda;
        cfg.alpha = alpha;
        cfg.partitions = 1;
        let mgr = Arc::new(SsdManager::new(cfg, Arc::clone(&io)));
        let cleaner = LazyCleaner::new(Arc::clone(&mgr));
        (io, mgr, cleaner)
    }

    /// Evict `n` dirty pages spaced out in virtual time so the SSD queue
    /// stays shallow and the fail-slow detector sees a healthy device.
    fn dirty_pages(mgr: &SsdManager, n: u64) -> Time {
        for i in 0..n {
            mgr.evict_page(
                i * MILLISECOND,
                PageId(i),
                &[1u8; PS],
                true,
                Locality::Random,
            );
        }
        n * MILLISECOND
    }

    #[test]
    fn idle_at_low_water() {
        let (_io, mgr, mut cleaner) = lc(100, 0.5, 8);
        let low = mgr.config().dirty_low_water();
        assert!(low < mgr.config().dirty_high_water());
        let t = dirty_pages(&mgr, low);
        // At the low-water mark: nothing to gain, truly idle.
        let mut clk = Clk::at(t);
        assert_eq!(cleaner.step(&mut clk), CleanerStep::Idle);
        assert_eq!(clk.now, t);
    }

    #[test]
    fn idle_disk_drains_opportunistically() {
        let (_io, mgr, mut cleaner) = lc(100, 0.5, 8);
        let t = dirty_pages(&mgr, 50);
        // At the high-water mark (50) the λ trigger has not fired, but
        // the disk group is idle: the cleaner banks a batch now.
        let mut clk = Clk::at(t);
        match cleaner.step(&mut clk) {
            CleanerStep::Cleaned(n) => assert!(n > 0),
            s => panic!("expected opportunistic clean, got {s:?}"),
        }
        assert!(mgr.metrics.snapshot().cleaner_boosts >= 1);
        assert!(mgr.dirty_count() < 50);
    }

    #[test]
    fn drains_to_low_water_once_triggered() {
        let (_io, mgr, mut cleaner) = lc(100, 0.5, 8);
        let t = dirty_pages(&mgr, 60);
        let mut clk = Clk::at(t);
        let mut cleaned = 0usize;
        loop {
            match cleaner.step(&mut clk) {
                CleanerStep::Idle => break,
                CleanerStep::Backoff => panic!("uncongested disk must not back off"),
                CleanerStep::Cleaned(n) => cleaned += n,
            }
        }
        // Drained to ⌊(λ − LAMBDA_SLACK)·S⌋ = 49, not merely below λ·S.
        let low = mgr.config().dirty_low_water();
        assert!(mgr.dirty_count() <= low, "dirty={}", mgr.dirty_count());
        assert!(cleaned as u64 >= 60 - low);
        assert!(clk.now > t, "cleaning consumed virtual time");
    }

    #[test]
    fn batches_bounded_by_alpha() {
        let (_io, mgr, mut cleaner) = lc(100, 0.1, 4);
        let t = dirty_pages(&mgr, 40);
        let mut clk = Clk::at(t);
        match cleaner.step(&mut clk) {
            CleanerStep::Cleaned(n) => assert!(n <= 4),
            s => panic!("should clean, got {s:?}"),
        }
    }

    #[test]
    fn congested_disk_defers_cleaning() {
        let (io, mgr, mut cleaner) = lc(100, 0.1, 8);
        let t = dirty_pages(&mgr, 20); // above high water (10), far below ceiling (75)
        for i in 0..CLEANER_DISK_QUEUE_MAX as u64 + 8 {
            let _ = io.write_disk_async(t, PageId(1000 + i), &[2u8; PS], Locality::Random);
        }
        let mut clk = Clk::at(t);
        assert_eq!(cleaner.step(&mut clk), CleanerStep::Backoff);
        assert_eq!(
            cleaner.step(&mut clk),
            CleanerStep::Backoff,
            "still congested"
        );
        assert_eq!(mgr.dirty_count(), 20, "no cleaning while congested");
        assert!(mgr.metrics.snapshot().cleaner_backoffs >= 2);
    }

    #[test]
    fn dirty_ceiling_overrides_congestion() {
        let (io, mgr, mut cleaner) = lc(100, 0.1, 8);
        let t = dirty_pages(&mgr, 80); // past the 0.75 ceiling (75)
        for i in 0..CLEANER_DISK_QUEUE_MAX as u64 + 8 {
            let _ = io.write_disk_async(t, PageId(1000 + i), &[2u8; PS], Locality::Random);
        }
        let mut clk = Clk::at(t);
        match cleaner.step(&mut clk) {
            CleanerStep::Cleaned(n) => assert!(n > 0),
            s => panic!("ceiling breach must clean through congestion, got {s:?}"),
        }
    }
}
