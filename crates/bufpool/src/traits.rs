//! The seam between the buffer manager and the storage layers below it.

use std::sync::Arc;

use turbopool_iosim::{
    fault, Clk, IoError, IoManager, Locality, PageBuf, PageDst, PageId, PageSrc, Time,
};

/// Everything the buffer manager needs from the storage stack below it.
///
/// In the paper's architecture (Figure 1) the buffer manager talks to the
/// SSD manager, which talks to the disk manager. This trait is that
/// interface: the SSD manager (`turbopool-core`) implements it by
/// interposing the SSD cache, and [`DirectIo`] implements it by going
/// straight to disk (the `noSSD` baseline).
///
/// Pages cross the seam in two forms. The byte-slice methods copy. The
/// `*_buf` methods, which are what the buffer pool calls, take and give
/// [`PageBuf`] images: the layers in this workspace override them to move
/// a page by sharing its image, and the provided bodies fall back to the
/// slice methods for implementors that only know bytes.
pub trait PageIo: Send + Sync {
    /// Read one page, from the SSD if cached there, else from disk. `class`
    /// is the buffer manager's random/sequential classification of this
    /// access (the SSD admission signal).
    ///
    /// SSD-side failures never surface here — implementations fall through
    /// to disk (or recover the page) internally. An `Err` means the disk
    /// tier itself failed after the standard capped-backoff retries, and
    /// `buf` must not be used as page data.
    fn read_page(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
        buf: &mut [u8],
    ) -> Result<(), IoError>;

    /// [`read_page`](Self::read_page) into a pool frame: on success `buf`
    /// is the page's image (shared with the tier it came from where the
    /// implementation can), on `Err` it must not be used as page data.
    fn read_page_buf(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
        buf: &mut PageBuf,
    ) -> Result<(), IoError> {
        // Every byte is about to be overwritten: a frame that still shares
        // its previous occupant's image must not copy it first.
        self.read_page(clk, pid, class, buf.overwrite_slice())
    }

    /// Read the consecutive run `first .. first + n` (read-ahead / pool-fill
    /// expansion path). Implementations may trim leading/trailing pages that
    /// are SSD-resident (paper §3.3.3) but must return all `n` pages in
    /// order. `Err` has the same meaning as in [`Self::read_page`].
    fn read_run(&self, clk: &mut Clk, first: PageId, n: u64) -> Result<Vec<PageBuf>, IoError>;

    /// A page was evicted from the memory pool. The implementation decides
    /// where it goes (SSD and/or disk) per its design; writes are
    /// asynchronous — device time is consumed but the caller's clock does
    /// not wait.
    fn evict_page(&self, now: Time, pid: PageId, data: &[u8], dirty: bool, class: Locality);

    /// [`evict_page`](Self::evict_page) for a caller that holds the page
    /// as an image, which the implementation may keep instead of copying.
    fn evict_page_buf(&self, now: Time, pid: PageId, data: &PageBuf, dirty: bool, class: Locality) {
        self.evict_page(now, pid, data.as_slice(), dirty, class);
    }

    /// The in-memory copy of `pid` was just dirtied; any SSD copy is now
    /// stale and must be invalidated (paper §2.2).
    fn note_dirtied(&self, now: Time, pid: PageId);

    /// Write one dirty page out during a sharp checkpoint of the *memory*
    /// pool. Under DW this also mirrors random-class pages to the SSD
    /// (paper §3.2). Returns the async completion time.
    fn checkpoint_write(&self, now: Time, pid: PageId, data: &[u8], class: Locality) -> Time;

    /// [`checkpoint_write`](Self::checkpoint_write) for a caller that
    /// holds the page as an image.
    fn checkpoint_write_buf(
        &self,
        now: Time,
        pid: PageId,
        data: &PageBuf,
        class: Locality,
    ) -> Time {
        self.checkpoint_write(now, pid, data.as_slice(), class)
    }

    /// Flush any dirty pages held *below* the memory pool (only LC holds
    /// them, in the SSD). Called after the memory pool's checkpoint flush.
    fn checkpoint_flush(&self, clk: &mut Clk);

    /// True if the layer holds a cached copy of `pid` (any validity). The
    /// engine uses this to decide whether a never-materialized disk page is
    /// genuinely fresh (formattable in memory with no read I/O).
    fn has_copy(&self, _pid: PageId) -> bool {
        false
    }

    /// Inform the layer of the virtual-time window a sharp checkpoint
    /// occupied. LC stops caching newly-evicted dirty pages during this
    /// window (§3.2: "during a checkpoint, LC stops caching new dirty
    /// pages ... to simplify the implementation").
    fn checkpoint_window(&self, _start: Time, _end: Time) {}
}

/// Direct-to-disk storage layer: the paper's `noSSD` baseline.
pub struct DirectIo {
    io: Arc<IoManager>,
}

impl DirectIo {
    pub fn new(io: Arc<IoManager>) -> Self {
        DirectIo { io }
    }
}

impl DirectIo {
    fn read<D: PageDst + ?Sized>(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
        buf: &mut D,
    ) -> Result<(), IoError> {
        let (_attempts, out) = fault::retry_sync(clk, |c| self.io.read_disk(c, pid, buf, class));
        out
    }

    fn evict<S: PageSrc + ?Sized>(&self, now: Time, pid: PageId, data: &S, dirty: bool) {
        if dirty {
            if let Err(e) = fault::retry_write_forever(|| {
                self.io.write_disk_async(now, pid, data, Locality::Random)
            }) {
                // Disk death below the noSSD baseline: the page cannot be
                // persisted anywhere. Only a permanent error lands here; the
                // IoManager records the lost write so later reads of this
                // page surface the device error instead of fresh zeroes.
                debug_assert!(!e.is_transient());
            }
        }
    }

    fn checkpoint<S: PageSrc + ?Sized>(&self, now: Time, pid: PageId, data: &S) -> Time {
        match fault::retry_write_forever(|| {
            self.io.write_disk_async(now, pid, data, Locality::Random)
        }) {
            Ok(done) => done,
            // Dead disk: nothing further will complete, so nothing to wait on.
            Err(_) => now,
        }
    }
}

impl PageIo for DirectIo {
    fn read_page(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
        buf: &mut [u8],
    ) -> Result<(), IoError> {
        self.read(clk, pid, class, buf)
    }

    fn read_page_buf(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
        buf: &mut PageBuf,
    ) -> Result<(), IoError> {
        self.read(clk, pid, class, buf)
    }

    fn read_run(&self, clk: &mut Clk, first: PageId, n: u64) -> Result<Vec<PageBuf>, IoError> {
        let (_attempts, out) = fault::retry_sync(clk, |c| {
            self.io.read_disk_run(c, first, n, Locality::Sequential)
        });
        out
    }

    fn evict_page(&self, now: Time, pid: PageId, data: &[u8], dirty: bool, _class: Locality) {
        self.evict(now, pid, data, dirty);
    }

    fn evict_page_buf(&self, now: Time, pid: PageId, data: &PageBuf, dirty: bool, _: Locality) {
        self.evict(now, pid, data, dirty);
    }

    fn note_dirtied(&self, _now: Time, _pid: PageId) {}

    fn checkpoint_write(&self, now: Time, pid: PageId, data: &[u8], _class: Locality) -> Time {
        self.checkpoint(now, pid, data)
    }

    fn checkpoint_write_buf(&self, now: Time, pid: PageId, data: &PageBuf, _: Locality) -> Time {
        self.checkpoint(now, pid, data)
    }

    fn checkpoint_flush(&self, _clk: &mut Clk) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbopool_iosim::DeviceSetup;

    fn direct() -> (Arc<IoManager>, DirectIo) {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(32, 64, 8)));
        (Arc::clone(&io), DirectIo::new(io))
    }

    #[test]
    fn read_page_goes_to_disk() {
        let (io, d) = direct();
        io.write_disk_async(0, PageId(3), &[7u8; 32], Locality::Random)
            .expect("no faults attached");
        let mut clk = Clk::new();
        let mut buf = [0u8; 32];
        d.read_page(&mut clk, PageId(3), Locality::Random, &mut buf)
            .expect("no faults attached");
        assert_eq!(buf[0], 7);
        assert!(clk.now > 0);
    }

    #[test]
    fn transient_disk_read_errors_are_retried_away() {
        use std::sync::Arc as StdArc;
        use turbopool_iosim::{FaultConfig, FaultPlan};
        let (io, d) = direct();
        io.write_disk_async(0, PageId(2), &[4u8; 32], Locality::Random)
            .expect("no faults attached");
        io.set_disk_fault(Some(StdArc::new(FaultPlan::new(FaultConfig::transient(
            9, 0.5,
        )))));
        let mut clk = Clk::new();
        let mut buf = [0u8; 32];
        let mut failures = 0usize;
        for _ in 0..32 {
            match d.read_page(&mut clk, PageId(2), Locality::Random, &mut buf) {
                Ok(()) => assert_eq!(buf[0], 4),
                Err(e) => {
                    assert!(e.is_transient());
                    failures += 1;
                }
            }
        }
        // p=0.5 per attempt, 6 attempts per read: a run of 32 reads clears
        // virtually always, and injected errors definitely fired.
        assert!(failures <= 2, "retry policy too weak: {failures} failures");
        assert!(io.disk_fault().expect("attached").stats().read_errors > 0);
    }

    #[test]
    fn clean_evictions_are_free() {
        let (io, d) = direct();
        d.evict_page(0, PageId(1), &[0u8; 32], false, Locality::Random);
        assert_eq!(io.disk_stats().write_ops, 0);
        d.evict_page(0, PageId(1), &[0u8; 32], true, Locality::Random);
        assert_eq!(io.disk_stats().write_ops, 1);
    }

    #[test]
    fn read_run_returns_all_pages() {
        let (_io, d) = direct();
        let mut clk = Clk::new();
        let pages = d.read_run(&mut clk, PageId(0), 5).unwrap();
        assert_eq!(pages.len(), 5);
    }
}
