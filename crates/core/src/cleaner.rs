//! The lazy-cleaning background thread (§2.3.3, §3.3.5).
//!
//! The cleaner wakes when the number of dirty SSD pages exceeds the λ
//! high-water mark and flushes group-cleaning batches until the count drops
//! slightly below it (the paper drains to about 0.01% of the SSD below λ).
//! In the discrete-event driver the cleaner is a pseudo-client: each call
//! to [`LazyCleaner::step`] performs at most one batch on the cleaner's own
//! virtual clock, so its I/O competes with foreground transactions for
//! device time — which is exactly the throughput cliff of Figure 6.

use std::sync::Arc;

use turbopool_iosim::{Clk, Time, MILLISECOND};

use crate::manager::SsdManager;

/// What a cleaner step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CleanerStep {
    /// Dirty count was at or below the high-water mark; nothing done. The
    /// caller should sleep for [`LazyCleaner::poll_interval`].
    Idle,
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
    /// Below the high-water mark we are draining toward the low-water mark.
    draining: bool,
}

impl LazyCleaner {
    pub fn new(mgr: Arc<SsdManager>) -> Self {
        let cfg = mgr.config();
        LazyCleaner {
            low_water: cfg.dirty_low_water(),
            high_water: cfg.dirty_high_water(),
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
            return CleanerStep::Idle;
        } else {
            self.draining = true;
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
    /// stays shallow.
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
    fn lambda_trigger_fires_only_above_high_water() {
        let (_io, mgr, mut cleaner) = lc(100, 0.5, 8);
        let high = mgr.config().dirty_high_water();
        let t = dirty_pages(&mgr, high);
        // Exactly λ·S dirty pages: the trigger has not fired.
        let mut clk = Clk::at(t);
        assert_eq!(cleaner.step(&mut clk), CleanerStep::Idle);
        assert_eq!(clk.now, t);
        assert_eq!(mgr.dirty_count(), high);
        // One more dirty page crosses it.
        mgr.evict_page(t, PageId(high), &[1u8; PS], true, Locality::Random);
        match cleaner.step(&mut clk) {
            CleanerStep::Cleaned(n) => assert!(n > 0),
            s => panic!("above λ·S the cleaner must clean, got {s:?}"),
        }
    }

    #[test]
    fn drain_stops_exactly_at_low_water() {
        // α = 2 from λ·S + 1 = 51 dirty pages: one batch lands on the
        // low-water mark (49), and the drain ends there.
        let (_io, mgr, mut cleaner) = lc(100, 0.5, 2);
        let low = mgr.config().dirty_low_water();
        assert_eq!(low, 49);
        let t = dirty_pages(&mgr, 51);
        let mut clk = Clk::at(t);
        assert_eq!(cleaner.step(&mut clk), CleanerStep::Cleaned(2));
        assert_eq!(mgr.dirty_count(), low);
        let after = clk.now;
        assert_eq!(cleaner.step(&mut clk), CleanerStep::Idle);
        assert_eq!(clk.now, after);
        assert_eq!(mgr.dirty_count(), low);
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
}
