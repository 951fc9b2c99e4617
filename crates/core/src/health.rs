//! The SSD failure policy, in one place: the manager's health (the
//! quarantine flag, the error count against [`SSD_ERROR_BUDGET`] and the
//! salvage target), the retried device reads, the write-behind, and the
//! one way a failed SSD I/O is settled. A site builds a [`Failure`] where
//! the I/O fails, under its partition latch if it holds one, and hands it
//! to [`SsdManager::settle`] once no latch is held: a quarantine takes
//! every partition latch to sweep the table.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use turbopool_iosim::{fault, Clk, IoError, IoErrorKind, PageDst, PageId, PageSrc, Time};

use crate::audit::AuditOp;
use crate::metrics::SsdMetrics;
use crate::SsdManager;

/// Fault-tolerance extension: SSD I/O errors (transient, checksum, or
/// device-dead) tolerated before the manager quarantines the SSD and degrades
/// to the noSSD path; a `DeviceDead` error quarantines at once. 64 is wide
/// enough to ride out a transient-error storm, small enough that a
/// persistently erroring device is retired quickly.
pub const SSD_ERROR_BUDGET: u64 = 64;

/// The manager's view of its SSD's health.
#[derive(Default)]
pub(crate) struct Health {
    /// True once the SSD has been quarantined (device death or error
    /// budget exhausted); every path then degrades to direct-to-disk.
    quarantined: AtomicBool,
    /// SSD I/O errors observed, charged against [`SSD_ERROR_BUDGET`].
    errors: AtomicU64,
    /// Rebuilds pages whose sole (SSD) copies were lost on disk from the
    /// log, returning how many it restored; `None` in a manager built
    /// without a log, where such a loss is unrecoverable.
    #[expect(clippy::type_complexity, reason = "one field, read in one place")]
    salvage: Option<Box<dyn Fn(&[PageId]) -> usize + Send + Sync>>,
}

/// A failed SSD I/O and the cached copy it cost, if any.
#[must_use = "a failure is settled once no latch is held"]
pub(crate) struct Failure {
    error: IoError,
    cost: Option<Cost>,
}

/// The copy a failure cost, and so the order its settlement takes.
enum Cost {
    /// The read of this page's frame failed: the error is charged, then
    /// the entry dropped (unless a quarantine the charge tripped swept it).
    Frame(PageId),
    /// An inline clean could not read this dirty victim, whose entry is
    /// already gone: the victim is lost, then the error charged.
    Victim(PageId),
}

impl From<IoError> for Failure {
    fn from(error: IoError) -> Self {
        Failure { error, cost: None }
    }
}

impl Failure {
    /// This failed read was an inline clean's, of the dirty `victim`.
    pub(crate) fn losing(self, victim: PageId) -> Self {
        let cost = Some(Cost::Victim(victim));
        Failure { cost, ..self }
    }
}

impl SsdManager {
    /// True once the SSD is quarantined and the manager runs degraded
    /// (every subsequent request takes the direct-to-disk path).
    pub fn is_quarantined(&self) -> bool {
        self.health.quarantined.load(Ordering::Relaxed)
    }

    /// Rebuild each lost sole (dirty) copy with `target`, the engine's
    /// replay of the log onto the disk, at the moment it is lost.
    pub fn with_salvage(
        mut self,
        target: impl Fn(&[PageId]) -> usize + Send + Sync + 'static,
    ) -> Self {
        self.health.salvage = Some(Box::new(target));
        self
    }

    /// Settle `failure`: charge its error against the budget, drop or lose
    /// the entry it cost in the order its [`Cost`] says, and quarantine on
    /// device death or once the budget is spent. Must not be called under
    /// a table latch.
    pub(crate) fn settle(&self, Failure { error, cost }: Failure) {
        if let Some(Cost::Victim(pid)) = cost {
            self.lose(AuditOp::CorruptInvalidate, [(pid, true)]);
        }
        let m = &self.metrics;
        SsdMetrics::bump(&m.ssd_io_errors);
        if error.kind == IoErrorKind::ChecksumMismatch {
            SsdMetrics::bump(&m.checksum_misses);
        }
        let seen = self.health.errors.fetch_add(1, Ordering::Relaxed) + 1;
        let spent = error.kind == IoErrorKind::DeviceDead || seen > SSD_ERROR_BUDGET;
        if spent && !self.health.quarantined.swap(true, Ordering::SeqCst) {
            // Quarantine, once: degrade to the noSSD path, dropping the
            // whole table and forgetting the extent temperatures.
            SsdMetrics::bump(&m.ssd_quarantined);
            let mut swept = Vec::new();
            for i in 0..self.parts.len() {
                let mut part = self.part_at(i);
                let idxs: Vec<usize> = part.iter().map(|(idx, _)| idx).collect();
                for rec in idxs.into_iter().map(|idx| part.remove(idx)) {
                    self.forget(&rec);
                    swept.push((rec.pid, rec.dirty));
                }
                part.cool();
            }
            self.lose(AuditOp::Quarantine, swept);
        }
        if let Some(Cost::Frame(pid)) = cost {
            let mut part = self.part(pid);
            if let Some(idx) = part.lookup(pid) {
                let rec = part.remove(idx);
                drop(part);
                self.forget(&rec);
                self.lose(AuditOp::CorruptInvalidate, [(pid, rec.dirty)]);
            }
        }
    }

    /// Account for entries `lost` with their frames' contents, each a page
    /// and its dirty flag: the audit transition `op` and a lost frame. A
    /// dirty copy was its page's only current version, so the dirty pages
    /// are rebuilt on disk from the log, as one batch, before this returns;
    /// a read of one then falls through to the disk like a clean loss.
    #[expect(
        clippy::panic,
        reason = "a manager with no log cannot rebuild a lost sole copy: committed data is gone"
    )]
    fn lose(&self, op: AuditOp, lost: impl IntoIterator<Item = (PageId, bool)>) {
        let mut sole = Vec::new();
        for (pid, dirty) in lost {
            self.audit(pid, op);
            SsdMetrics::bump(&self.metrics.lost_frames);
            if dirty {
                sole.push(pid);
            }
        }
        if sole.is_empty() {
            return;
        }
        SsdMetrics::add(&self.metrics.stranded_dirty, sole.len() as u64);
        let Some(salvage) = &self.health.salvage else {
            panic!("unrecoverable: lost the sole copy of {sole:?} with no log to rebuild it from");
        };
        SsdMetrics::add(&self.metrics.salvaged_pages, salvage(&sole) as u64);
    }

    /// A synchronous device read with the standard capped-backoff retry
    /// policy on `clk`, its retries added to `counter`. The final error
    /// (checksum mismatch, device death, or retries exhausted) is returned.
    fn retried<T>(
        clk: &mut Clk,
        counter: &AtomicU64,
        read: impl FnMut(&mut Clk) -> Result<T, IoError>,
    ) -> Result<T, IoError> {
        let (retries, out) = fault::retry_sync(clk, read);
        if retries > 0 {
            SsdMetrics::add(counter, u64::from(retries));
        }
        out
    }

    /// Read SSD `frame` into `buf`, retried; a failure is the caller's to
    /// settle.
    pub(crate) fn ssd_read<D: PageDst + ?Sized>(
        &self,
        clk: &mut Clk,
        frame: u64,
        buf: &mut D,
    ) -> Result<(), Failure> {
        let read = |c: &mut Clk| self.io.read_ssd(c, frame, buf);
        Ok(Self::retried(clk, &self.metrics.ssd_retries, read)?)
    }

    /// Read `pid`'s SSD copy from `frame`, retried. False: the read failed
    /// and is settled, its entry dropped (a sole copy rebuilt on disk), so
    /// the caller reads the disk.
    pub(crate) fn read_frame<D: PageDst + ?Sized>(
        &self,
        clk: &mut Clk,
        pid: PageId,
        frame: u64,
        buf: &mut D,
    ) -> bool {
        let cost = Some(Cost::Frame(pid));
        let drop_entry = |f: Failure| self.settle(Failure { cost, ..f });
        self.ssd_read(clk, frame, buf).map_err(drop_entry).is_ok()
    }

    /// The disk read `read` (a page or a run), retried.
    pub(crate) fn disk_read<T>(
        &self,
        clk: &mut Clk,
        read: impl FnMut(&mut Clk) -> Result<T, IoError>,
    ) -> Result<T, IoError> {
        Self::retried(clk, &self.metrics.disk_retries, read)
    }

    /// Write `pages` to disk from `first` on as one asynchronous request
    /// that must not drop data: transient errors retry without bound; only
    /// a dead disk, unrecoverable by any policy, falls through, and then
    /// there is nowhere left to persist to (the `IoManager` records the
    /// lost write, so later readers surface the device error). The
    /// completion time, or `None` when a dead disk completes nothing.
    pub(crate) fn write_behind<S: PageSrc>(
        &self,
        now: Time,
        first: PageId,
        pages: &[S],
    ) -> Option<Time> {
        fault::retry_write_forever(|| self.io.write_disk_run_async(now, first, pages)).ok()
    }
}
