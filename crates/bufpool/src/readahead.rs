//! Scan read-ahead and random/sequential access classification.
//!
//! The SSD admission policy caches only randomly-read pages, so the quality
//! of the random/sequential classifier directly controls what reaches the
//! SSD (paper §2.2). Two classifiers are provided:
//!
//! * [`ClassifierKind::ReadAhead`] — a page is *sequential* iff it was
//!   fetched by the read-ahead mechanism (the paper's choice; 82% accurate
//!   in their measurement).
//! * [`ClassifierKind::Proximity`] — a page is *sequential* iff it lies
//!   within 64 pages (512 KB) of the immediately preceding read, the rule
//!   from Narayanan et al. [29] (51% accurate in the paper's measurement,
//!   because concurrent streams interleave).
//!
//! The classifier records a confusion matrix against the access method's
//! declared ground truth so the accuracy experiment can be reproduced.

use turbopool_iosim::{Clk, Locality, PageId};

use crate::pool::BufferPool;

/// Which classification rule the pool uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ClassifierKind {
    /// Sequential iff fetched via read-ahead (paper's design).
    ReadAhead,
    /// Sequential iff within [`PROXIMITY_WINDOW`] pages of the previous
    /// read, regardless of which stream issued it.
    Proximity,
}

/// The proximity rule's window: 64 pages = 512 KB of 8 KB pages.
pub const PROXIMITY_WINDOW: u64 = 64;

turbopool_iosim::counters! {
    /// Confusion matrix of assigned vs ground-truth locality.
    pub struct ClassifierStats {
        pub seq_as_seq,
        pub seq_as_rand,
        pub rand_as_seq,
        pub rand_as_rand,
    }
}

impl ClassifierStats {
    /// Fraction of truly sequential fetches classified sequential — the
    /// number the paper quotes (82% read-ahead vs 51% proximity).
    pub fn sequential_accuracy(&self) -> f64 {
        let total = self.seq_as_seq + self.seq_as_rand;
        if total == 0 {
            0.0
        } else {
            self.seq_as_seq as f64 / total as f64
        }
    }

    /// Overall fraction of fetches classified correctly.
    pub fn accuracy(&self) -> f64 {
        let correct = self.seq_as_seq + self.rand_as_rand;
        let total = correct + self.seq_as_rand + self.rand_as_seq;
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    fn record(&mut self, truth: Locality, assigned: Locality) {
        match (truth, assigned) {
            (Locality::Sequential, Locality::Sequential) => self.seq_as_seq += 1,
            (Locality::Sequential, Locality::Random) => self.seq_as_rand += 1,
            (Locality::Random, Locality::Sequential) => self.rand_as_seq += 1,
            (Locality::Random, Locality::Random) => self.rand_as_rand += 1,
        }
    }
}

/// Classifier state owned by the buffer pool.
#[derive(Debug)]
pub struct Classifier {
    kind: ClassifierKind,
    last_read: Option<PageId>,
    stats: ClassifierStats,
}

impl Classifier {
    pub fn new(kind: ClassifierKind) -> Self {
        Classifier {
            kind,
            last_read: None,
            stats: ClassifierStats::default(),
        }
    }

    fn proximity_class(&self, pid: PageId) -> Locality {
        match self.last_read {
            Some(prev) if pid.0.abs_diff(prev.0) <= PROXIMITY_WINDOW => Locality::Sequential,
            _ => Locality::Random,
        }
    }

    /// Classify a demand miss. `truth` is the access method's declared
    /// locality, used only for the confusion matrix.
    pub fn classify_miss(&mut self, pid: PageId, truth: Locality) -> Locality {
        let assigned = match self.kind {
            // Demand fetches did not come through read-ahead: random.
            ClassifierKind::ReadAhead => Locality::Random,
            ClassifierKind::Proximity => self.proximity_class(pid),
        };
        self.stats.record(truth, assigned);
        self.last_read = Some(pid);
        assigned
    }

    /// Classify a page fetched by the read-ahead mechanism (ground truth is
    /// sequential by construction).
    pub fn classify_prefetch(&mut self, pid: PageId) -> Locality {
        let assigned = match self.kind {
            ClassifierKind::ReadAhead => Locality::Sequential,
            ClassifierKind::Proximity => self.proximity_class(pid),
        };
        self.stats.record(Locality::Sequential, assigned);
        self.last_read = Some(pid);
        assigned
    }

    pub fn stats(&self) -> ClassifierStats {
        self.stats
    }
}

/// A forward scan cursor with read-ahead.
///
/// Walks pages `start .. end`, prefetching `window`-page runs ahead of the
/// consumption point, so scan pages arrive via multi-page sequential I/O
/// and are classified sequential — keeping them out of the SSD.
#[derive(Debug)]
pub struct ScanCursor {
    pos: PageId,
    end: PageId,
    window: u64,
    frontier: PageId,
}

impl ScanCursor {
    /// Scan pages `start .. end` (exclusive) with a `window`-page
    /// read-ahead.
    pub fn new(start: PageId, end: PageId, window: u64) -> Self {
        assert!(window >= 1);
        ScanCursor {
            pos: start,
            end,
            window,
            frontier: start,
        }
    }

    /// Pin and return the next page of the scan, or `None` at the end.
    /// `Some(Err(_))` reports a disk failure on the page at the cursor; the
    /// cursor still advances, so the caller may skip or abort as it sees
    /// fit and `next` stays well-defined either way.
    pub fn next<'a>(
        &mut self,
        clk: &mut Clk,
        pool: &'a BufferPool,
    ) -> Option<Result<crate::pool::PageGuard<'a>, turbopool_iosim::IoError>> {
        if self.pos >= self.end {
            return None;
        }
        if self.pos >= self.frontier {
            let n = self.window.min(self.end.0 - self.frontier.0);
            // A failed read-ahead is not a scan failure: the frontier still
            // advances and the pages are demand-read (and retried) below.
            if pool.prefetch_run(clk, self.frontier, n).is_err() {
                // Nothing was installed; `get` covers each page.
            }
            self.frontier = self.frontier.offset(n);
        }
        let g = pool.get(clk, self.pos, Locality::Sequential);
        self.pos = self.pos.offset(1);
        Some(g)
    }

    /// Pages remaining.
    pub fn remaining(&self) -> u64 {
        self.end.0.saturating_sub(self.pos.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{BufferPool, BufferPoolConfig};
    use crate::traits::DirectIo;
    use std::sync::Arc;
    use turbopool_iosim::{DeviceSetup, IoManager};

    fn scan_pool(kind: ClassifierKind) -> BufferPool {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(32, 256, 8)));
        let mut cfg = BufferPoolConfig::new(32, 32, 256);
        cfg.fill_expansion = 1;
        cfg.classifier = kind;
        BufferPool::new(cfg, Arc::new(DirectIo::new(io)))
    }

    #[test]
    fn scan_visits_every_page_once() {
        let pool = scan_pool(ClassifierKind::ReadAhead);
        let mut clk = Clk::new();
        let mut cursor = ScanCursor::new(PageId(0), PageId(20), 8);
        let mut seen = Vec::new();
        while let Some(g) = cursor.next(&mut clk, &pool) {
            let g = g.unwrap();
            seen.push(g.pid().0);
        }
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    fn readahead_classifier_is_perfect_on_pure_streams() {
        let pool = scan_pool(ClassifierKind::ReadAhead);
        let mut clk = Clk::new();
        let mut cursor = ScanCursor::new(PageId(0), PageId(16), 4);
        while cursor.next(&mut clk, &pool).is_some() {}
        // Random lookups far away.
        pool.get(&mut clk, PageId(200), Locality::Random).unwrap();
        pool.get(&mut clk, PageId(100), Locality::Random).unwrap();
        let s = pool.classifier_stats();
        assert_eq!(s.sequential_accuracy(), 1.0);
        assert_eq!(s.rand_as_seq, 0);
        assert_eq!(s.rand_as_rand, 2);
    }

    #[test]
    fn proximity_classifier_confused_by_interleaving() {
        let pool = scan_pool(ClassifierKind::Proximity);
        let mut clk = Clk::new();
        // Two interleaved "sequential" streams far apart: every read is
        // within 64 pages of the previous read of ITS OWN stream but not of
        // the interleaved predecessor.
        let mut a = ScanCursor::new(PageId(0), PageId(8), 1);
        let mut b = ScanCursor::new(PageId(200), PageId(208), 1);
        loop {
            let ga = a.next(&mut clk, &pool);
            let gb = b.next(&mut clk, &pool);
            if ga.is_none() && gb.is_none() {
                break;
            }
        }
        let s = pool.classifier_stats();
        assert!(
            s.sequential_accuracy() < 0.2,
            "interleaving defeats proximity: {s:?}"
        );
    }

    #[test]
    fn proximity_classifier_mislabels_near_random_reads() {
        let pool = scan_pool(ClassifierKind::Proximity);
        let mut clk = Clk::new();
        pool.get(&mut clk, PageId(100), Locality::Random).unwrap();
        pool.get(&mut clk, PageId(110), Locality::Random).unwrap(); // within 64 pages
        let s = pool.classifier_stats();
        assert_eq!(s.rand_as_seq, 1);
    }

    #[test]
    fn accuracy_math() {
        let s = ClassifierStats {
            seq_as_seq: 82,
            seq_as_rand: 18,
            rand_as_seq: 0,
            rand_as_rand: 0,
        };
        assert!((s.sequential_accuracy() - 0.82).abs() < 1e-12);
        assert!((s.accuracy() - 0.82).abs() < 1e-12);
    }
}
