//! Crash-schedule instrumentation: deterministic power failure at an exact
//! durable-write boundary.
//!
//! A *durable-write boundary* is any point where the simulated system hands
//! bytes to stable storage: a database-disk page write, an SSD frame write,
//! or a log group flush. The crash-schedule explorer runs a seeded trace
//! twice over: first with a [`CrashSwitch`] in recorder mode to number every
//! boundary, then once per boundary with the switch armed at that sequence
//! number. When the armed boundary is reached the switch "fires": that write
//! either persists as the final write of the incarnation, or is torn
//! (kind-specific partial persistence), and every later I/O on any device
//! fails with [`IoErrorKind::DeviceDead`] — the machine is off.
//!
//! Firing reports [`IoErrorKind::DeviceDead`] rather than a transient error
//! deliberately: the write-behind retry loops treat transient errors as
//! retriable forever, and a powered-off machine must terminate them, not
//! spin them.
//!
//! Everything here is free of randomness — the same trace with the same cut
//! produces the same post-crash image bit for bit, which is what lets the
//! explorer verify recovery against an oracle computed from commit
//! attribution alone.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// What kind of durable write a boundary was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundaryKind {
    /// A page write to the database disk group (one boundary per page,
    /// including each page of a multi-page cleaning run).
    DiskPage,
    /// An SSD frame write.
    SsdFrame,
    /// A log group flush (one boundary per flush, not per record).
    LogFlush,
}

/// The fate the switch assigns to a durable write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFate {
    /// The write reaches stable storage in full.
    Persist,
    /// Power failed *during* the write: a kind-specific prefix persists
    /// (log flush loses its final byte; an SSD frame keeps a half-frame
    /// prefix over the old tail; a disk page persists nothing).
    Torn,
    /// Power was already lost; the write never reached the device.
    Dropped,
}

/// Per-kind boundary counters observed by a switch.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryCounts {
    pub disk_pages: u64,
    pub ssd_frames: u64,
    pub log_flushes: u64,
}

impl BoundaryCounts {
    pub fn total(&self) -> u64 {
        self.disk_pages + self.ssd_frames + self.log_flushes
    }
}

/// Deterministic power-failure switch threaded through the [`crate::IoManager`].
///
/// In *recorder* mode it numbers boundaries and never fires. *Armed* at
/// `(cut, torn)` it persists boundaries `0..cut`, fires at boundary `cut`
/// (persisting it when `torn` is false, tearing it when true), and drops
/// everything after.
pub struct CrashSwitch {
    /// Next boundary sequence number.
    seq: AtomicU64,
    /// Boundary index to fire at; `u64::MAX` in recorder mode.
    cut: u64,
    /// Tear the firing write instead of letting it complete.
    torn: bool,
    fired: AtomicBool,
    /// Boundaries per kind, in [`BoundaryKind`] order.
    kinds: [AtomicU64; 3],
    /// Sequence number of the most recent `LogFlush` boundary, plus one
    /// (0 = none yet). Lets a recorder attribute each commit to the exact
    /// boundary its log flush occupied.
    last_log_flush: AtomicU64,
}

impl CrashSwitch {
    /// A switch that only counts boundaries (never fires).
    pub fn recorder() -> Self {
        Self::armed(u64::MAX, false)
    }

    /// A switch that fires at boundary `cut`. With `torn` false the cut
    /// boundary is the last write to persist; with `torn` true it is torn.
    pub fn armed(cut: u64, torn: bool) -> Self {
        CrashSwitch {
            seq: AtomicU64::new(0),
            cut,
            torn,
            fired: AtomicBool::new(false),
            kinds: Default::default(),
            last_log_flush: AtomicU64::new(0),
        }
    }

    /// Number one durable-write boundary and decide its fate. Called by the
    /// I/O manager once per disk-page write, SSD-frame write, or log flush.
    pub fn on_write(&self, kind: BoundaryKind) -> WriteFate {
        let s = self.seq.fetch_add(1, Ordering::Relaxed);
        self.kinds[kind as usize].fetch_add(1, Ordering::Relaxed);
        if kind == BoundaryKind::LogFlush {
            self.last_log_flush.store(s + 1, Ordering::Relaxed);
        }
        match s.cmp(&self.cut) {
            std::cmp::Ordering::Less => WriteFate::Persist,
            std::cmp::Ordering::Equal => {
                self.fired.store(true, Ordering::Release);
                if self.torn {
                    WriteFate::Torn
                } else {
                    WriteFate::Persist
                }
            }
            std::cmp::Ordering::Greater => WriteFate::Dropped,
        }
    }

    /// Has the armed boundary been reached? Once true, the machine is off:
    /// all reads and writes on all devices fail `DeviceDead`.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }

    /// Total boundaries numbered so far.
    pub fn boundaries(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Sequence number of the most recent log-flush boundary, if any.
    pub fn last_log_flush_seq(&self) -> Option<u64> {
        let v = self.last_log_flush.load(Ordering::Relaxed);
        (v != 0).then(|| v - 1)
    }

    /// Per-kind boundary counts.
    pub fn counts(&self) -> BoundaryCounts {
        let [disk_pages, ssd_frames, log_flushes] =
            self.kinds.each_ref().map(|n| n.load(Ordering::Relaxed));
        BoundaryCounts {
            disk_pages,
            ssd_frames,
            log_flushes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_counts_and_never_fires() {
        let sw = CrashSwitch::recorder();
        for _ in 0..5 {
            assert_eq!(sw.on_write(BoundaryKind::DiskPage), WriteFate::Persist);
        }
        assert_eq!(sw.on_write(BoundaryKind::LogFlush), WriteFate::Persist);
        assert_eq!(sw.on_write(BoundaryKind::SsdFrame), WriteFate::Persist);
        assert!(!sw.fired());
        assert_eq!(sw.boundaries(), 7);
        let c = sw.counts();
        assert_eq!((c.disk_pages, c.ssd_frames, c.log_flushes), (5, 1, 1));
        assert_eq!(c.total(), 7);
    }

    #[test]
    fn armed_persists_up_to_cut_then_drops() {
        let sw = CrashSwitch::armed(2, false);
        assert_eq!(sw.on_write(BoundaryKind::DiskPage), WriteFate::Persist);
        assert_eq!(sw.on_write(BoundaryKind::DiskPage), WriteFate::Persist);
        assert!(!sw.fired());
        // Boundary 2 is the cut: persists (torn=false) and kills power.
        assert_eq!(sw.on_write(BoundaryKind::LogFlush), WriteFate::Persist);
        assert!(sw.fired());
        assert_eq!(sw.on_write(BoundaryKind::DiskPage), WriteFate::Dropped);
        assert_eq!(sw.on_write(BoundaryKind::SsdFrame), WriteFate::Dropped);
    }

    #[test]
    fn torn_variant_tears_the_cut_boundary() {
        let sw = CrashSwitch::armed(0, true);
        assert_eq!(sw.on_write(BoundaryKind::LogFlush), WriteFate::Torn);
        assert!(sw.fired());
        assert_eq!(sw.on_write(BoundaryKind::LogFlush), WriteFate::Dropped);
    }
}
