//! Per-device I/O statistics, including the time-bucketed traffic series the
//! paper plots in Figure 8.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::sync::Mutex;

use crate::clock::Time;
use crate::device::IoKind;

/// Running totals plus an optional time-bucketed page-traffic series.
pub struct DeviceStats {
    totals: Totals,
    /// Bucket width in ns; 0 disables the series.
    bucket_ns: AtomicU64,
    buckets: Mutex<Vec<Bucket>>,
}

#[derive(Copy, Clone, Default, Debug)]
struct Bucket {
    read_pages: u64,
    write_pages: u64,
}

crate::counters! {
    /// The running totals of one device.
    struct Totals =>
    /// Immutable totals snapshot.
    pub struct StatSnapshot {
        pub read_ops,
        pub read_pages,
        pub read_busy_ns,
        pub write_ops,
        pub write_pages,
        pub write_busy_ns,
    }
}

impl DeviceStats {
    pub fn new() -> Self {
        DeviceStats {
            totals: Totals::default(),
            bucket_ns: AtomicU64::new(0),
            buckets: Mutex::new(Vec::new()),
        }
    }

    /// Enable the traffic time series with the given bucket width.
    pub fn enable_series(&self, bucket_ns: Time) {
        assert!(bucket_ns > 0);
        self.bucket_ns.store(bucket_ns, Ordering::Relaxed);
    }

    pub(crate) fn record(&self, kind: IoKind, pages: u64, at: Time, busy_ns: Time) {
        let t = &self.totals;
        match kind {
            IoKind::Read => {
                t.read_ops.fetch_add(1, Ordering::Relaxed);
                t.read_pages.fetch_add(pages, Ordering::Relaxed);
                t.read_busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
            }
            IoKind::Write => {
                t.write_ops.fetch_add(1, Ordering::Relaxed);
                t.write_pages.fetch_add(pages, Ordering::Relaxed);
                t.write_busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
            }
        }
        let bw = self.bucket_ns.load(Ordering::Relaxed);
        if let Some(bucket) = at.checked_div(bw) {
            let idx = bucket as usize;
            let mut b = self.buckets.lock();
            if b.len() <= idx {
                b.resize(idx + 1, Bucket::default());
            }
            match kind {
                IoKind::Read => b[idx].read_pages += pages,
                IoKind::Write => b[idx].write_pages += pages,
            }
        }
    }

    /// Totals so far.
    pub fn snapshot(&self) -> StatSnapshot {
        self.totals.snapshot()
    }

    /// The bucketed traffic series as `(bucket_start_time, read_pages,
    /// write_pages)` triples. Empty unless [`enable_series`] was called.
    ///
    /// [`enable_series`]: DeviceStats::enable_series
    pub fn series(&self) -> Vec<(Time, u64, u64)> {
        let bw = self.bucket_ns.load(Ordering::Relaxed);
        if bw == 0 {
            return Vec::new();
        }
        self.buckets
            .lock()
            .iter()
            .enumerate()
            .map(|(i, b)| (i as Time * bw, b.read_pages, b.write_pages))
            .collect()
    }

    /// Reset all counters and the series (used between benchmark phases).
    pub fn reset(&self) {
        let t = &self.totals;
        t.read_ops.store(0, Ordering::Relaxed);
        t.read_pages.store(0, Ordering::Relaxed);
        t.read_busy_ns.store(0, Ordering::Relaxed);
        t.write_ops.store(0, Ordering::Relaxed);
        t.write_pages.store(0, Ordering::Relaxed);
        t.write_busy_ns.store(0, Ordering::Relaxed);
        self.buckets.lock().clear();
    }
}

impl Default for DeviceStats {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate() {
        let s = DeviceStats::new();
        s.record(IoKind::Read, 4, 100, 40);
        s.record(IoKind::Write, 1, 200, 10);
        s.record(IoKind::Read, 2, 300, 20);
        let snap = s.snapshot();
        assert_eq!(snap.read_ops, 2);
        assert_eq!(snap.read_pages, 6);
        assert_eq!(snap.read_busy_ns, 60);
        assert_eq!(snap.write_ops, 1);
        assert_eq!(snap.write_pages, 1);
    }

    #[test]
    fn series_buckets_by_time() {
        let s = DeviceStats::new();
        s.enable_series(1_000);
        s.record(IoKind::Read, 1, 0, 1);
        s.record(IoKind::Read, 1, 999, 1);
        s.record(IoKind::Write, 3, 2_500, 1);
        let series = s.series();
        assert_eq!(series.len(), 3);
        assert_eq!(series[0], (0, 2, 0));
        assert_eq!(series[1], (1_000, 0, 0));
        assert_eq!(series[2], (2_000, 0, 3));
    }

    #[test]
    fn series_disabled_by_default() {
        let s = DeviceStats::new();
        s.record(IoKind::Read, 1, 0, 1);
        assert!(s.series().is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let s = DeviceStats::new();
        s.enable_series(10);
        s.record(IoKind::Read, 1, 0, 1);
        s.reset();
        assert_eq!(s.snapshot(), StatSnapshot::default());
        assert!(s.series().is_empty());
    }
}
