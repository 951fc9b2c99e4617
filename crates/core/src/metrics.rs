//! SSD-manager counters used by the evaluation harnesses.

use std::sync::atomic::{AtomicU64, Ordering};

turbopool_iosim::counters! {
    /// Atomic counters; snapshot with [`SsdMetricsSnapshot`].
    pub struct SsdMetrics =>
    /// Plain-value snapshot of [`SsdMetrics`].
    pub struct SsdMetricsSnapshot {
        /// Page lookups served from the SSD.
        pub ssd_hits,
        /// Page lookups that fell through to disk.
        pub ssd_misses,
        /// SSD hits skipped because the SSD queue exceeded μ (read went to
        /// disk instead).
        pub throttled_reads,
        /// SSD admissions skipped because the SSD queue exceeded μ.
        pub throttled_admissions,
        /// Pages admitted to the SSD (any path).
        pub admissions,
        /// Pages admitted while the aggressive-filling phase was active.
        pub fill_admissions,
        /// Evictions rejected by the admission policy (sequential class).
        pub policy_rejections,
        /// SSD frames reclaimed by replacement.
        pub replacements,
        /// Invalidations triggered by in-memory dirtying.
        pub invalidations,
        /// Pages cleaned (SSD -> disk) by the lazy cleaner.
        pub cleaned_pages,
        /// Group-cleaning write requests issued.
        pub cleaner_writes,
        /// Dirty SSD victims cleaned inline because no clean victim existed.
        pub inline_cleans,
        /// Dirty SSD pages flushed by sharp checkpoints.
        pub checkpoint_cleaned,
        /// TAC: on-read SSD writes cancelled because the page was dirtied
        /// before the write completed (§4.2 discussion).
        pub tac_cancelled_writes,
        /// SSD hits that returned a *dirty* (newer-than-disk) page.
        pub dirty_hits,
        /// Pages re-adopted from the SSD at restart (warm-restart extension).
        pub warm_imports,
        /// Warm-restart candidates rejected as stale: the frame's in-page
        /// header no longer names the checkpointed page, or redo advanced the
        /// page's disk image past the cached copy.
        pub warm_rejected_stale,
        /// Warm-restart candidates rejected because the frame's stored bytes
        /// failed checksum verification when probed at import time.
        pub warm_rejected_checksum,
        /// Buffer-table state-machine violations caught by the invariant
        /// auditor (always 0 unless the state machine itself is broken).
        pub audit_violations,
        /// SSD I/O operations that returned an error (transient, checksum, or
        /// device-dead). Feeds the quarantine error budget.
        pub ssd_io_errors,
        /// SSD frame reads whose contents failed checksum verification
        /// (torn writes and silent bit-flips surface here).
        pub checksum_misses,
        /// Disk I/O retry attempts consumed by the capped-backoff policy.
        pub disk_retries,
        /// 1 once the SSD has been quarantined (device death or error budget
        /// exhausted) and the manager degraded to the noSSD path.
        pub ssd_quarantined,
        /// Reads served from disk that arrived after quarantine — the hits the
        /// dead SSD can no longer serve.
        pub quarantined_reads,
        /// Cached frames dropped when the table was cleared at quarantine.
        pub lost_frames,
        /// Dirty (sole-copy) frames whose SSD copy became unreadable or was
        /// dropped at quarantine; each is rebuilt from the WAL tail at once.
        pub stranded_dirty,
        /// Pages restored onto disk by WAL-tail salvage.
        pub salvaged_pages,
        /// SSD I/O retry attempts consumed by the capped-backoff policy.
        pub ssd_retries,
        /// Table-latch acquisitions: `SsdManager`'s partition latches, TAC's
        /// one table latch. A pure function of the operation sequence in
        /// deterministic driver runs, so it participates safely in replay
        /// equality checks.
        pub shard_acquisitions,
        /// Table-latch acquisitions that found the latch held by another OS
        /// thread. Always 0 in deterministic driver runs (domains are
        /// share-nothing); nonzero only under real-thread contention.
        pub shard_contended,
    }
}

impl SsdMetrics {
    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl SsdMetricsSnapshot {
    /// SSD hit rate over all lookups that reached the SSD manager.
    pub fn hit_rate(&self) -> f64 {
        let total = self.ssd_hits + self.ssd_misses;
        if total == 0 {
            0.0
        } else {
            self.ssd_hits as f64 / total as f64
        }
    }

    /// Fraction of SSD hits that were to dirty pages — 83% for the 2K
    /// TPC-C run in the paper (§4.2).
    pub fn dirty_hit_fraction(&self) -> f64 {
        if self.ssd_hits == 0 {
            0.0
        } else {
            self.dirty_hits as f64 / self.ssd_hits as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_counters() {
        let m = SsdMetrics::default();
        SsdMetrics::bump(&m.ssd_hits);
        SsdMetrics::add(&m.cleaned_pages, 5);
        let s = m.snapshot();
        assert_eq!(s.ssd_hits, 1);
        assert_eq!(s.cleaned_pages, 5);
        assert_eq!(s.ssd_misses, 0);
    }

    #[test]
    fn rates() {
        let m = SsdMetrics::default();
        SsdMetrics::add(&m.ssd_hits, 89);
        SsdMetrics::add(&m.ssd_misses, 11);
        SsdMetrics::add(&m.dirty_hits, 70);
        let s = m.snapshot();
        assert!((s.hit_rate() - 0.89).abs() < 1e-12);
        assert!((s.dirty_hit_fraction() - 70.0 / 89.0).abs() < 1e-12);
        assert_eq!(SsdMetricsSnapshot::default().hit_rate(), 0.0);
    }
}
