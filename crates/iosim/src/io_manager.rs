//! The disk manager: one facade over the database disk array, the SSD, and
//! the log device, combining timing (devices) with data (stores).
//!
//! This is the component the buffer manager and the SSD manager talk to
//! (Figure 1 of the paper). Reads are synchronous — the caller's virtual
//! clock advances to the completion time. Asynchronous writes charge device
//! time (and so delay later requests on the same device) without advancing
//! the caller's clock: the paper's write-behind I/O. Each device operation
//! asks one injector — the crash switch and the two fault plans — once,
//! and applies its verdict.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::array::StripedArray;
use crate::clock::{Clk, Time};
use crate::crashsched::{BoundaryKind, CrashSwitch, WriteFate};
use crate::device::{DeviceProfile, IoKind, Locality, SimDevice};
use crate::fault::{self, FaultDevice, FaultPlan, IoError, IoErrorKind, Verdict};
use crate::page::{PageBuf, PageDst, PageId, PageSrc};
use crate::profiles;
use crate::store::MemStore;
use crate::sync::{self, RwLock, RwLockReadGuard};

/// Sizing and calibration of the simulated storage subsystem.
#[derive(Clone, Debug)]
pub struct DeviceSetup {
    /// Page size in bytes (8192 in the paper; tests use smaller pages).
    pub page_size: usize,
    /// Capacity of the database file group, in pages.
    pub db_pages: u64,
    /// Capacity of the SSD buffer-pool file, in frames (the paper's `S`).
    pub ssd_frames: u64,
    /// Member count of the striped disk group (8 in the paper).
    pub num_disks: u64,
    /// Aggregate profile of the whole disk group.
    pub disk_profile: DeviceProfile,
    /// SSD profile.
    pub ssd_profile: DeviceProfile,
    /// Log device profile.
    pub log_profile: DeviceProfile,
}

impl DeviceSetup {
    /// The paper's testbed calibration (Table 1) with caller-chosen sizes.
    pub fn paper(page_size: usize, db_pages: u64, ssd_frames: u64) -> Self {
        DeviceSetup {
            page_size,
            db_pages,
            ssd_frames,
            num_disks: profiles::PAPER_NUM_DISKS,
            disk_profile: profiles::hdd_array_profile(),
            ssd_profile: profiles::ssd_profile(),
            log_profile: profiles::log_disk_profile(),
        }
    }

    /// The paper calibration with all device service times multiplied by
    /// `k` (see [`crate::device::DeviceProfile::time_scaled`]): used with
    /// `1/k`-scaled database sizes so that every ratio the evaluation
    /// depends on is preserved.
    pub fn paper_time_scaled(page_size: usize, db_pages: u64, ssd_frames: u64, k: f64) -> Self {
        let mut s = Self::paper(page_size, db_pages, ssd_frames);
        s.disk_profile = s.disk_profile.time_scaled(k);
        s.ssd_profile = s.ssd_profile.time_scaled(k);
        s.log_profile = s.log_profile.time_scaled(k);
        s
    }
}

/// Combined timing + data I/O manager for all three storage tiers.
pub struct IoManager {
    setup: DeviceSetup,
    page_size: usize,
    /// The one zero image behind every never-written disk page and SSD
    /// frame (and whatever else needs a page-sized placeholder).
    zero: PageBuf,
    disk: StripedArray,
    disk_store: MemStore,
    ssd_dev: SimDevice,
    ssd_store: MemStore,
    /// Each SSD frame's intent record, one table under one latch: the
    /// image the frame was *meant* to hold and the page it caches, both
    /// recorded at write submission. See [`Intent`].
    ssd_intents: RwLock<Vec<Intent>>,
    log_dev: SimDevice,
    /// The crash switch and the two devices' fault plans, asked once per
    /// device request.
    inject: Injector,
    /// Pages whose most recent disk write was dropped by a failing device
    /// and never retried to success. The stored disk image (if any) is
    /// stale, so readers must not treat such a page as never-written and
    /// serve zeroes — see [`IoManager::disk_write_lost`].
    lost_disk_writes: sync::Mutex<std::collections::HashSet<PageId>>,
    /// Fast-path flag: true while `lost_disk_writes` may be non-empty.
    any_lost_writes: AtomicBool,
}

/// One SSD frame's intent record. It models the page-id header and the
/// in-page checksum a real cache stores inside each cached page —
/// persisted with the page at no extra I/O cost — and lives and dies with
/// its `IoManager`, so unlike the WAL's FNV-1a record trailer it is not a
/// format.
#[derive(Default)]
struct Intent {
    /// The image the frame was meant to hold (`None` = never written),
    /// verified on every read. Injected torn writes and bit flips corrupt
    /// the stored bytes but not this record, so the next read detects the
    /// damage instead of returning bad bytes. An undamaged frame holds the
    /// very image recorded here, which is checked by identity
    /// ([`PageBuf::same_image`]) and sums nothing. A damaged frame — torn,
    /// bit-flipped, or overwritten at rest — holds a different image, and
    /// only then are the two compared by [`fault::frame_sum`].
    meant: Option<PageBuf>,
    /// The page id + 1 of the page last written there (0 = never
    /// written): the basis of warm-restart validation.
    tag: u64,
}

/// The one fault-and-crash injector at the device edge: the crash switch
/// and each device's fault plan, swapped only between I/Os. `attached`
/// mirrors whether any is set (a `Release` store under the slot's write
/// latch, read with `Acquire`), so an I/O with nothing attached reads one
/// flag and takes no latch.
struct Injector {
    attached: AtomicBool,
    slot: RwLock<Hooks>,
}

#[derive(Default)]
struct Hooks {
    /// Numbers every durable-write boundary and can kill power at an exact
    /// one (see [`CrashSwitch`]).
    switch: Option<Arc<CrashSwitch>>,
    disk: Option<Arc<FaultPlan>>,
    ssd: Option<Arc<FaultPlan>>,
}

impl Injector {
    fn set(&self, edit: impl FnOnce(&mut Hooks)) {
        let mut h = self.slot.write();
        edit(&mut h);
        let any = h.switch.is_some() || h.disk.is_some() || h.ssd.is_some();
        self.attached.store(any, Ordering::Release);
    }

    fn hooks(&self) -> Option<RwLockReadGuard<'_, Hooks>> {
        self.attached
            .load(Ordering::Acquire)
            .then(|| self.slot.read())
    }

    fn plan(hooks: &Hooks, device: FaultDevice) -> Option<&FaultPlan> {
        match device {
            FaultDevice::Disk => hooks.disk.as_deref(),
            FaultDevice::Ssd => hooks.ssd.as_deref(),
        }
    }

    /// Decide a read on `device` at `now`: its brownout scale, or the error
    /// it fails with (every request fails `DeviceDead` once power is lost).
    fn read(&self, device: FaultDevice, now: Time) -> Result<u32, IoError> {
        let Some(h) = self.hooks() else { return Ok(1) };
        if h.switch.as_ref().is_some_and(|s| s.fired()) {
            return Err(IoError::new(device, IoErrorKind::DeviceDead, now));
        }
        Self::plan(&h, device).map_or(Ok(1), |p| p.read(device, now))
    }

    /// Decide a write of `len` units on `device` at `now` (pages of a disk
    /// run, bytes of an SSD frame): the crash switch first, one boundary
    /// per unit of atomicity, then the device's plan.
    fn write(&self, device: FaultDevice, now: Time, len: usize) -> Verdict {
        let Some(h) = self.hooks() else {
            return Verdict::CLEAN;
        };
        if let Some(sw) = &h.switch {
            match device {
                // One boundary per page, so a crash can land inside a run.
                // The pages before the cut persist; the cut page and the
                // rest never reach the platters (a torn page persists
                // nothing: the page is the disk's unit of atomicity).
                FaultDevice::Disk => {
                    let mut fates = (0..len).map(|_| sw.on_write(BoundaryKind::DiskPage));
                    if let Some(keep) = fates.position(|f| f != WriteFate::Persist) {
                        return Verdict::Cut(keep);
                    }
                }
                FaultDevice::Ssd => match sw.on_write(BoundaryKind::SsdFrame) {
                    WriteFate::Persist => {}
                    // Power died mid-frame: a half-frame prefix lands.
                    WriteFate::Torn => return Verdict::Cut((len / 2).max(1)),
                    // A write that never started leaves the old frame.
                    WriteFate::Dropped => {
                        return Verdict::Refused(IoError::new(device, IoErrorKind::DeviceDead, now))
                    }
                },
            }
        }
        Self::plan(&h, device).map_or(Verdict::CLEAN, |p| p.write(device, now, len))
    }
}

impl IoManager {
    pub fn new(setup: &DeviceSetup) -> Self {
        let zero = PageBuf::zeroed(setup.page_size);
        IoManager {
            setup: setup.clone(),
            page_size: setup.page_size,
            disk: StripedArray::from_aggregate("hdd", setup.disk_profile, setup.num_disks),
            disk_store: MemStore::with_zero(setup.db_pages, zero.clone()),
            ssd_dev: SimDevice::new("ssd", setup.ssd_profile),
            ssd_store: MemStore::with_zero(setup.ssd_frames, zero.clone()),
            zero,
            ssd_intents: RwLock::new((0..setup.ssd_frames).map(|_| Intent::default()).collect()),
            log_dev: SimDevice::new("log", setup.log_profile),
            inject: Injector {
                attached: AtomicBool::new(false),
                slot: RwLock::new(Hooks::default()),
            },
            lost_disk_writes: sync::Mutex::new(std::collections::HashSet::new()),
            any_lost_writes: AtomicBool::new(false),
        }
    }

    // ------------------------------------------------------------------
    // Fault and crash injection
    // ------------------------------------------------------------------

    /// Attach (or detach, with `None`) a crash-schedule switch. Every
    /// subsequent durable write consults it; once it fires, all I/O on all
    /// devices fails `DeviceDead` until the switch is detached (power is
    /// restored by the next incarnation removing or replacing it).
    pub fn set_crash_switch(&self, sw: Option<Arc<CrashSwitch>>) {
        self.inject.set(|h| h.switch = sw);
    }

    /// The currently attached crash switch, if any.
    pub fn crash_switch(&self) -> Option<Arc<CrashSwitch>> {
        self.inject.hooks().and_then(|h| h.switch.clone())
    }

    /// Is a fired crash switch attached — i.e. has simulated power been
    /// lost? While true, every device rejects every request.
    pub fn power_lost(&self) -> bool {
        let h = self.inject.hooks();
        h.is_some_and(|h| h.switch.as_ref().is_some_and(|s| s.fired()))
    }

    /// Attach (or detach, with `None`) a fault stream to the disk group.
    pub fn set_disk_fault(&self, plan: Option<Arc<FaultPlan>>) {
        self.inject.set(|h| h.disk = plan);
    }

    /// Attach (or detach, with `None`) a fault stream to the SSD.
    pub fn set_ssd_fault(&self, plan: Option<Arc<FaultPlan>>) {
        self.inject.set(|h| h.ssd = plan);
    }

    /// The currently attached disk fault stream, if any.
    pub fn disk_fault(&self) -> Option<Arc<FaultPlan>> {
        self.inject.hooks().and_then(|h| h.disk.clone())
    }

    /// The currently attached SSD fault stream, if any.
    pub fn ssd_fault(&self) -> Option<Arc<FaultPlan>> {
        self.inject.hooks().and_then(|h| h.ssd.clone())
    }

    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The calibration this manager was built with.
    pub fn setup(&self) -> &DeviceSetup {
        &self.setup
    }

    pub fn db_pages(&self) -> u64 {
        self.disk_store.num_pages()
    }

    pub fn ssd_frames(&self) -> u64 {
        self.ssd_store.num_pages()
    }

    /// A handle on the shared all-zero page: what a never-written page
    /// reads as, and a free placeholder for a page about to be read.
    pub fn zero_page(&self) -> PageBuf {
        self.zero.clone()
    }

    // ------------------------------------------------------------------
    // Database disk group
    // ------------------------------------------------------------------

    /// Synchronously read one database page: copied into a byte buffer,
    /// or shared with a [`PageBuf`] (which becomes a handle on the
    /// store's image).
    pub fn read_disk<D: PageDst + ?Sized>(
        &self,
        clk: &mut Clk,
        pid: PageId,
        buf: &mut D,
        hint: Locality,
    ) -> Result<(), IoError> {
        sync::assert_io_allowed("read_disk");
        let scale = self.inject.read(FaultDevice::Disk, clk.now)?;
        let t = self
            .disk
            .submit_run_scaled(clk.now, IoKind::Read, pid, 1, Some(hint), scale);
        buf.set(self.disk_store.read_buf(pid));
        clk.wait_until(t.complete);
        Ok(())
    }

    /// Synchronously read the consecutive run `first .. first + n` as one
    /// multi-page request (read-ahead path, §3.3.3). The pages come back
    /// as handles on the store's images.
    ///
    /// The locality hint is ignored: the devices auto-detect adjacency for
    /// each per-disk span, so interleaved scan streams pay their real
    /// seeks.
    pub fn read_disk_run(
        &self,
        clk: &mut Clk,
        first: PageId,
        n: u64,
        _hint: Locality,
    ) -> Result<Vec<PageBuf>, IoError> {
        sync::assert_io_allowed("read_disk_run");
        let scale = self.inject.read(FaultDevice::Disk, clk.now)?;
        let t = self
            .disk
            .submit_run_scaled(clk.now, IoKind::Read, first, n, None, scale);
        let out = (0..n)
            .map(|i| self.disk_store.read_buf(first.offset(i)))
            .collect();
        clk.wait_until(t.complete);
        Ok(out)
    }

    /// Asynchronously write one database page; returns the completion time.
    /// The store is updated immediately so later reads observe the data: a
    /// byte slice is copied into it, a [`PageBuf`] image is shared with it.
    pub fn write_disk_async<S: PageSrc + ?Sized>(
        &self,
        now: Time,
        pid: PageId,
        data: &S,
        hint: Locality,
    ) -> Result<Time, IoError> {
        sync::assert_io_allowed("write_disk_async");
        self.write_disk_pages(now, pid, std::slice::from_ref(&data), hint)
    }

    /// Synchronously write one database page.
    pub fn write_disk_sync<S: PageSrc + ?Sized>(
        &self,
        clk: &mut Clk,
        pid: PageId,
        data: &S,
        hint: Locality,
    ) -> Result<(), IoError> {
        sync::assert_io_allowed("write_disk_sync");
        let done = self.write_disk_async(clk.now, pid, data, hint)?;
        clk.wait_until(done);
        Ok(())
    }

    /// Asynchronously write a consecutive run of pages as one request
    /// (group cleaning, §3.3.5). `pages[i]` is written to `first + i`.
    ///
    /// A torn multi-page write persists only a prefix of the run and then
    /// reports failure — the disk tier never corrupts silently, but a
    /// failed run may still have advanced some of its pages (exactly the
    /// partial-persistence window a real `writev` failure leaves behind).
    pub fn write_disk_run_async<S: PageSrc>(
        &self,
        now: Time,
        first: PageId,
        pages: &[S],
    ) -> Result<Time, IoError> {
        sync::assert_io_allowed("write_disk_run_async");
        assert!(!pages.is_empty());
        // The first page still seeks; the rest stream.
        self.write_disk_pages(now, first, pages, Locality::Random)
    }

    /// Write `pages` from `first` on as one request, as the injector
    /// decides. Whatever does not land — a refused write, the tail of a
    /// torn run or of a run the power cut — is marked lost.
    fn write_disk_pages<S: PageSrc>(
        &self,
        now: Time,
        first: PageId,
        pages: &[S],
        hint: Locality,
    ) -> Result<Time, IoError> {
        let err = |kind| Err(IoError::new(FaultDevice::Disk, kind, now));
        let (keep, done) = match self.inject.write(FaultDevice::Disk, now, pages.len()) {
            Verdict::Refused(e) => (0, Err(e)),
            Verdict::Cut(keep) => (keep, err(IoErrorKind::DeviceDead)),
            Verdict::Served { scale, torn, .. } => {
                let keep = torn.unwrap_or(pages.len());
                let t = self.disk.submit_run_scaled(
                    now,
                    IoKind::Write,
                    first,
                    keep as u64,
                    Some(hint),
                    scale,
                );
                (
                    keep,
                    torn.map_or(Ok(t.complete), |_| err(IoErrorKind::TransientWrite)),
                )
            }
        };
        for (i, data) in pages.iter().enumerate() {
            let pid = first.offset(i as u64);
            if i < keep {
                self.disk_store.write(pid, data);
                self.clear_lost_write(pid);
            } else {
                // Until a retry lands it, this page must not read as fresh.
                self.mark_lost_write(pid);
            }
        }
        done
    }

    fn mark_lost_write(&self, pid: PageId) {
        self.lost_disk_writes.lock().insert(pid);
        self.any_lost_writes.store(true, Ordering::Release);
    }

    fn clear_lost_write(&self, pid: PageId) {
        if self.any_lost_writes.load(Ordering::Acquire) {
            let mut lost = self.lost_disk_writes.lock();
            lost.remove(&pid);
            if lost.is_empty() {
                self.any_lost_writes.store(false, Ordering::Release);
            }
        }
    }

    /// True if `pid`'s most recent disk write was dropped by a failing
    /// device and never retried to success. The write-behind retry
    /// policies absorb transient errors, so in practice this only fires
    /// after whole-device death — but while it is set, the disk image of
    /// `pid` is stale (or absent) and the page must not be classified as
    /// never-written: a read has to touch the device and surface the
    /// error so the transaction is poisoned instead of served zeroes.
    pub fn disk_write_lost(&self, pid: PageId) -> bool {
        self.any_lost_writes.load(Ordering::Acquire) && self.lost_disk_writes.lock().contains(&pid)
    }

    // ------------------------------------------------------------------
    // SSD buffer-pool file
    // ------------------------------------------------------------------

    /// Synchronously read one SSD frame, verifying the frame checksum.
    ///
    /// An injected torn write or bit flip surfaces here as
    /// [`IoErrorKind::ChecksumMismatch`] — the caller gets an error, never
    /// silently corrupted bytes. The frame contents (possibly damaged) are
    /// still in `buf` for forensics; callers must not use them as page data.
    ///
    /// As with [`Self::read_disk`], a byte buffer gets a copy and a
    /// [`PageBuf`] a handle on the frame's image. A frame that still holds
    /// the image its last write meant is intact without a checksum pass.
    pub fn read_ssd<D: PageDst + ?Sized>(
        &self,
        clk: &mut Clk,
        frame: u64,
        buf: &mut D,
    ) -> Result<(), IoError> {
        sync::assert_io_allowed("read_ssd");
        let scale = self.inject.read(FaultDevice::Ssd, clk.now)?;
        let done = self.submit_ssd(clk.now, IoKind::Read, frame, scale);
        let image = self.ssd_store.read_buf(PageId(frame));
        let intact = self.ssd_intents.read()[frame as usize]
            .meant
            .as_ref()
            .is_none_or(|meant| {
                meant.same_image(&image) || fault::frame_sum(meant) == fault::frame_sum(&image)
            });
        buf.set(image);
        clk.wait_until(done);
        if !intact {
            return Err(IoError::new(
                FaultDevice::Ssd,
                IoErrorKind::ChecksumMismatch,
                clk.now,
            ));
        }
        Ok(())
    }

    /// Asynchronously write one SSD frame; returns completion time. `tag`
    /// is the database page the frame now caches (stored as an in-page
    /// header, see `ssd_tag`).
    ///
    /// The *intended* image is always recorded; injected silent corruption
    /// (torn prefix, bit flip) lands in a fresh image of the stored copy
    /// only, so the next [`Self::read_ssd`] of this frame detects it.
    ///
    /// A [`PageBuf`] is stored by sharing its image, a byte slice by copying
    /// it into the frame's.
    pub fn write_ssd_async<S: PageSrc + ?Sized>(
        &self,
        now: Time,
        frame: u64,
        data: &S,
        tag: PageId,
    ) -> Result<Time, IoError> {
        sync::assert_io_allowed("write_ssd_async");
        let (meant, done) = match self.inject.write(FaultDevice::Ssd, now, data.bytes().len()) {
            Verdict::Refused(e) => return Err(e),
            // Power died mid-frame. The intent records still take the new
            // image, so the next read reports `ChecksumMismatch` instead of
            // serving the hybrid.
            Verdict::Cut(keep) => (
                self.tear_ssd_frame(frame, data, keep),
                Err(IoError::new(FaultDevice::Ssd, IoErrorKind::DeviceDead, now)),
            ),
            Verdict::Served { scale, torn, flip } => {
                let done = self.submit_ssd(now, IoKind::Write, frame, scale);
                let meant = if let Some(keep) = torn {
                    self.tear_ssd_frame(frame, data, keep)
                } else if let Some((byte, mask)) = flip {
                    let meant = Self::intended(data);
                    let mut flipped = meant.clone();
                    flipped[byte] ^= mask; // copies: `meant` keeps the intended bytes
                    self.ssd_store.write_buf(PageId(frame), flipped);
                    meant
                } else {
                    // The stored image is the intended one. The old intent
                    // goes first, so a slice still lands in the frame's own
                    // image when nothing else shares it.
                    self.ssd_intents.write()[frame as usize].meant.take();
                    self.ssd_store.write(PageId(frame), data);
                    self.ssd_store.read_buf(PageId(frame))
                };
                (meant, Ok(done))
            }
        };
        self.record_ssd_intent(frame, meant, tag);
        done
    }

    /// Book one frame access at `now` on the SSD; returns its completion.
    fn submit_ssd(&self, now: Time, kind: IoKind, frame: u64, scale: u32) -> Time {
        let t = self
            .ssd_dev
            .submit_scaled(now, kind, frame, 1, Some(Locality::Random), scale);
        t.complete
    }

    /// The image a frame write means: the writer's own, or a copy of its
    /// bytes.
    fn intended<S: PageSrc + ?Sized>(data: &S) -> PageBuf {
        data.as_image()
            .cloned()
            .unwrap_or_else(|| PageBuf::from_slice(data.bytes()))
    }

    /// Torn frame write, by the power cut or by the plan: the first `keep`
    /// bytes of `data` land over the old frame's tail — in an image of
    /// their own, whoever else still holds the old one. Returns the image
    /// the write meant.
    fn tear_ssd_frame<S: PageSrc + ?Sized>(&self, frame: u64, data: &S, keep: usize) -> PageBuf {
        let meant = Self::intended(data);
        let mut merged = self.ssd_store.read_buf(PageId(frame));
        merged[..keep].copy_from_slice(&meant[..keep]);
        self.ssd_store.write_buf(PageId(frame), merged);
        meant
    }

    /// Update `frame`'s intent records — the image it was meant to hold,
    /// and the page it caches — whatever actually reached the store.
    fn record_ssd_intent(&self, frame: u64, meant: PageBuf, tag: PageId) {
        self.ssd_intents.write()[frame as usize] = Intent {
            meant: Some(meant),
            tag: tag.0 + 1,
        };
    }

    /// Synchronously write one SSD frame.
    pub fn write_ssd_sync<S: PageSrc + ?Sized>(
        &self,
        clk: &mut Clk,
        frame: u64,
        data: &S,
        tag: PageId,
    ) -> Result<(), IoError> {
        sync::assert_io_allowed("write_ssd_sync");
        let done = self.write_ssd_async(clk.now, frame, data, tag)?;
        clk.wait_until(done);
        Ok(())
    }

    /// The page id cached in `frame` per its in-page header, if any. This
    /// survives restarts (it lives in the frame itself).
    pub fn ssd_tag(&self, frame: u64) -> Option<PageId> {
        let t = self.ssd_intents.read()[frame as usize].tag;
        (t != 0).then(|| PageId(t - 1))
    }

    /// Throttle-control predicate: is the SSD overloaded around `now`,
    /// with more than `mu` requests' worth of capacity booked?
    pub fn ssd_overloaded(&self, now: Time, mu: usize) -> bool {
        self.ssd_dev.overloaded(now, mu)
    }

    // ------------------------------------------------------------------
    // Log device
    // ------------------------------------------------------------------

    /// Ask the crash switch about one log group flush. `Persist` means
    /// the flush reaches the log device in full; `Torn` means power died
    /// during the flush (the log manager persists all but the final byte,
    /// leaving a clean torn tail for recovery to truncate); `Dropped` means
    /// power was already off and nothing was written.
    pub fn log_flush_fate(&self) -> WriteFate {
        let sw = self.inject.hooks().and_then(|h| h.switch.clone());
        sw.map_or(WriteFate::Persist, |s| s.on_write(BoundaryKind::LogFlush))
    }

    /// Synchronously append `nbytes` to the log (group flush). The log is a
    /// pure stream of sequential writes on its dedicated device; service
    /// time is charged per byte (amortized group commit — many commits
    /// share each physical log write, so a commit of a few hundred bytes
    /// does not pay for a whole page).
    pub fn append_log(&self, clk: &mut Clk, nbytes: usize) {
        let seq_ns = self.setup.log_profile.seq_write_ns;
        let service =
            ((nbytes.max(1) as u128 * seq_ns as u128) / self.page_size as u128).max(1) as Time;
        let npages = (nbytes.max(1)).div_ceil(self.page_size) as u64;
        let t = self
            .log_dev
            .submit_duration(clk.now, IoKind::Write, service, npages);
        clk.wait_until(t.complete);
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /// Aggregate disk-group statistics.
    pub fn disk_stats(&self) -> crate::stats::StatSnapshot {
        self.disk.stats_snapshot()
    }

    pub fn ssd_stats(&self) -> crate::stats::StatSnapshot {
        self.ssd_dev.stats().snapshot()
    }

    pub fn log_stats(&self) -> crate::stats::StatSnapshot {
        self.log_dev.stats().snapshot()
    }

    /// Enable time-bucketed traffic series on the disk group and the SSD
    /// (Figure 8 support).
    pub fn enable_series(&self, bucket_ns: Time) {
        self.disk.enable_series(bucket_ns);
        self.ssd_dev.stats().enable_series(bucket_ns);
    }

    /// Disk-group traffic series: `(bucket_start, read_pages, write_pages)`.
    pub fn disk_series(&self) -> Vec<(Time, u64, u64)> {
        self.disk.series()
    }

    /// SSD traffic series.
    pub fn ssd_series(&self) -> Vec<(Time, u64, u64)> {
        self.ssd_dev.stats().series()
    }

    /// Reset all device *timing* state — capacity bookings, queues,
    /// sequential positions — while keeping statistics and data. Called at
    /// restart so a recovered system starts with idle devices at virtual
    /// time zero.
    pub fn reset_device_time(&self) {
        self.disk.reset_time();
        self.ssd_dev.reset_time();
        self.log_dev.reset_time();
    }

    /// Reset all device statistics (e.g. between warm-up and measurement).
    pub fn reset_stats(&self) {
        self.disk.reset_stats();
        self.ssd_dev.stats().reset();
        self.log_dev.stats().reset();
    }

    /// Direct access to the persistent database bytes, bypassing timing.
    /// Used by recovery (replaying the log onto the database) and by tests
    /// that inspect the "on disk" state after a simulated crash.
    pub fn disk_store(&self) -> &MemStore {
        &self.disk_store
    }

    /// Direct access to the SSD bytes, bypassing timing (tests only; the
    /// paper's designs never read the SSD after a restart).
    pub fn ssd_store(&self) -> &MemStore {
        &self.ssd_store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultStats};

    fn io() -> IoManager {
        IoManager::new(&DeviceSetup::paper(64, 128, 16))
    }

    #[test]
    fn disk_write_then_read_round_trips_and_charges_time() {
        let io = io();
        let mut clk = Clk::new();
        let data = vec![3u8; 64];
        io.write_disk_sync(&mut clk, PageId(5), &data, Locality::Random)
            .unwrap();
        let after_write = clk.now;
        assert!(after_write > 0);
        let mut buf = vec![0u8; 64];
        io.read_disk(&mut clk, PageId(5), &mut buf, Locality::Random)
            .unwrap();
        assert_eq!(buf, data);
        assert!(clk.now > after_write);
    }

    #[test]
    fn async_write_does_not_advance_clock_but_is_visible() {
        let io = io();
        let mut clk = Clk::new();
        let done = io
            .write_disk_async(clk.now, PageId(1), &[9u8; 64], Locality::Random)
            .unwrap();
        assert_eq!(clk.now, 0);
        assert!(done > 0);
        let mut buf = vec![0u8; 64];
        io.read_disk(&mut clk, PageId(1), &mut buf, Locality::Random)
            .unwrap();
        assert_eq!(buf[0], 9);
        // The read queued behind the async write on the same disk.
        assert!(clk.now >= done);
    }

    #[test]
    fn run_read_returns_pages_in_order() {
        let io = io();
        let mut clk = Clk::new();
        for i in 0..4u64 {
            io.write_disk_async(0, PageId(10 + i), &[i as u8; 64], Locality::Sequential)
                .unwrap();
        }
        let pages = io
            .read_disk_run(&mut clk, PageId(10), 4, Locality::Sequential)
            .unwrap();
        for (i, p) in pages.iter().enumerate() {
            assert_eq!(p.as_slice()[0], i as u8);
        }
    }

    #[test]
    fn ssd_round_trip() {
        let io = io();
        let mut clk = Clk::new();
        io.write_ssd_sync(&mut clk, 3, &[0xCD; 64], PageId(77))
            .unwrap();
        let mut buf = vec![0u8; 64];
        io.read_ssd(&mut clk, 3, &mut buf).unwrap();
        assert_eq!(buf[0], 0xCD);
        assert_eq!(io.ssd_stats().read_pages, 1);
        assert_eq!(io.ssd_stats().write_pages, 1);
        assert_eq!(io.ssd_tag(3), Some(PageId(77)));
        assert_eq!(io.ssd_tag(4), None);
    }

    #[test]
    fn ssd_death_rejects_everything_after_the_instant() {
        let io = io();
        let mut clk = Clk::new();
        io.write_ssd_sync(&mut clk, 0, &[1u8; 64], PageId(9))
            .unwrap();
        let death = clk.now + 1;
        io.set_ssd_fault(Some(Arc::new(FaultPlan::new(FaultConfig::death(1, death)))));
        let mut buf = vec![0u8; 64];
        // Still alive right now (clk.now < death).
        io.read_ssd(&mut clk, 0, &mut buf).unwrap();
        clk.wait_until(death);
        let e = io.read_ssd(&mut clk, 0, &mut buf).unwrap_err();
        assert_eq!(e.kind, IoErrorKind::DeviceDead);
        assert_eq!(e.device, FaultDevice::Ssd);
        let e = io
            .write_ssd_async(clk.now, 1, &[0u8; 64], PageId(2))
            .unwrap_err();
        assert_eq!(e.kind, IoErrorKind::DeviceDead);
        // The disk is unaffected.
        io.write_disk_sync(&mut clk, PageId(0), &[5u8; 64], Locality::Random)
            .unwrap();
    }

    #[test]
    fn torn_ssd_write_is_caught_by_the_checksum() {
        let io = io();
        let mut clk = Clk::new();
        io.write_ssd_sync(&mut clk, 2, &[0x11; 64], PageId(4))
            .unwrap();
        let mut cfg = FaultConfig::quiet(5);
        cfg.torn_write_prob = 1.0;
        io.set_ssd_fault(Some(Arc::new(FaultPlan::new(cfg))));
        io.write_ssd_sync(&mut clk, 2, &[0x22; 64], PageId(4))
            .unwrap();
        io.set_ssd_fault(None);
        let mut buf = vec![0u8; 64];
        let e = io.read_ssd(&mut clk, 2, &mut buf).unwrap_err();
        assert_eq!(e.kind, IoErrorKind::ChecksumMismatch);
        // The damaged frame is a prefix of new bytes over old bytes.
        assert_eq!(buf[0], 0x22);
        assert_eq!(buf[63], 0x11);
    }

    #[test]
    fn bitflip_is_caught_by_the_checksum() {
        let io = io();
        let mut clk = Clk::new();
        let mut cfg = FaultConfig::quiet(6);
        cfg.bitflip_prob = 1.0;
        io.set_ssd_fault(Some(Arc::new(FaultPlan::new(cfg))));
        io.write_ssd_sync(&mut clk, 7, &[0xAB; 64], PageId(1))
            .unwrap();
        io.set_ssd_fault(None);
        let mut buf = vec![0u8; 64];
        let e = io.read_ssd(&mut clk, 7, &mut buf).unwrap_err();
        assert_eq!(e.kind, IoErrorKind::ChecksumMismatch);
        // A clean rewrite repairs the frame.
        io.write_ssd_sync(&mut clk, 7, &[0xAB; 64], PageId(1))
            .unwrap();
        io.read_ssd(&mut clk, 7, &mut buf).unwrap();
        assert_eq!(buf, vec![0xAB; 64]);
    }

    #[test]
    fn images_move_through_both_stores_by_handle() {
        let io = io();
        let mut clk = Clk::new();
        let page = PageBuf::from_slice(&[0xCD; 64]);
        // Disk: the store adopts the writer's image and reads hand it out.
        io.write_disk_sync(&mut clk, PageId(9), &page, Locality::Random)
            .unwrap();
        assert_eq!(io.disk_store().read_buf(PageId(9)).as_ptr(), page.as_ptr());
        let mut got = io.zero_page();
        io.read_disk(&mut clk, PageId(9), &mut got, Locality::Random)
            .unwrap();
        assert_eq!(got.as_ptr(), page.as_ptr());
        let run = io
            .read_disk_run(&mut clk, PageId(8), 3, Locality::Sequential)
            .unwrap();
        assert_eq!(run[1].as_ptr(), page.as_ptr());
        assert_eq!(run[0].as_ptr(), io.zero_page().as_ptr(), "never written");
        assert_eq!(run[2].as_ptr(), run[0].as_ptr());
        // A run write shares each image too.
        io.write_disk_run_async(clk.now, PageId(20), &run).unwrap();
        assert_eq!(io.disk_store().read_buf(PageId(21)).as_ptr(), page.as_ptr());
        // SSD: same, and the frame's intent record is that image too, so
        // reading it back is checked by identity.
        io.write_ssd_sync(&mut clk, 3, &page, PageId(77)).unwrap();
        assert_eq!(io.ssd_store().read_buf(PageId(3)).as_ptr(), page.as_ptr());
        assert!(io.ssd_intents.read()[3]
            .meant
            .as_ref()
            .is_some_and(|m| m.same_image(&page)));
        let mut got = io.zero_page();
        io.read_ssd(&mut clk, 3, &mut got).unwrap();
        assert_eq!(got.as_ptr(), page.as_ptr());
        // A reader that edits its handle changes nobody else's bytes.
        got[0] = 0;
        let mut buf = vec![0u8; 64];
        io.read_ssd(&mut clk, 3, &mut buf).unwrap();
        assert_eq!((buf, page[0]), (vec![0xCD; 64], 0xCD));
    }

    #[test]
    fn slice_writes_record_the_stored_image_and_reuse_it() {
        let io = io();
        let mut clk = Clk::new();
        let intent = |io: &IoManager| io.ssd_intents.read()[5].meant.clone().expect("written");
        io.write_ssd_sync(&mut clk, 5, &[0x31; 64], PageId(1))
            .unwrap();
        let stored = io.ssd_store().read_buf(PageId(5));
        assert!(
            intent(&io).same_image(&stored),
            "the intent is the stored image"
        );
        let at = stored.as_ptr();
        drop(stored);
        // The intent shares the frame's image, yet the next slice write
        // still copies over it in place: the old intent is dropped first.
        io.write_ssd_sync(&mut clk, 5, &[0x32; 64], PageId(1))
            .unwrap();
        let stored = io.ssd_store().read_buf(PageId(5));
        assert_eq!(stored.as_ptr(), at, "copied over the frame's own image");
        assert!(intent(&io).same_image(&stored));
        let mut buf = [0u8; 64];
        io.read_ssd(&mut clk, 5, &mut buf).unwrap();
        assert_eq!(buf, [0x32; 64]);
    }

    #[test]
    fn damaged_frames_are_fresh_images_and_fail_verification_by_handle_and_by_slice() {
        // The three ways a frame's bytes stop matching its intent record,
        // each written by handle so that the *intended* image is the one
        // the intent record holds, there to be wrongly trusted.
        type Inflict = fn(&IoManager, &mut Clk, &PageBuf);
        let damage: [(&str, Inflict); 3] = [
            ("at rest", |io, clk, page| {
                io.write_ssd_sync(clk, 2, page, PageId(4)).unwrap();
                let mut got = io.zero_page();
                io.read_ssd(clk, 2, &mut got).expect("undamaged so far");
                let mut bytes = page.to_vec();
                bytes[40] ^= 0x04;
                io.ssd_store().write(PageId(2), &bytes);
            }),
            ("torn", |io, clk, page| {
                let mut cfg = FaultConfig::quiet(5);
                cfg.torn_write_prob = 1.0;
                io.set_ssd_fault(Some(Arc::new(FaultPlan::new(cfg))));
                io.write_ssd_sync(clk, 2, page, PageId(4)).unwrap();
                io.set_ssd_fault(None);
            }),
            ("bit flip", |io, clk, page| {
                let mut cfg = FaultConfig::quiet(6);
                cfg.bitflip_prob = 1.0;
                io.set_ssd_fault(Some(Arc::new(FaultPlan::new(cfg))));
                io.write_ssd_sync(clk, 2, page, PageId(4)).unwrap();
                io.set_ssd_fault(None);
            }),
        ];
        for (what, inflict) in damage {
            let io = io();
            let mut clk = Clk::new();
            io.write_ssd_sync(&mut clk, 2, &[0x11; 64], PageId(4))
                .unwrap();
            let page = PageBuf::from_slice(&[0x22; 64]);
            inflict(&io, &mut clk, &page);
            assert_eq!(page.as_slice(), &[0x22; 64], "{what}: writer's image");
            let stored = io.ssd_store().read_buf(PageId(2));
            assert_ne!(stored.as_ptr(), page.as_ptr(), "{what}: a fresh image");
            let mut got = io.zero_page();
            let e = io.read_ssd(&mut clk, 2, &mut got).unwrap_err();
            assert_eq!(e.kind, IoErrorKind::ChecksumMismatch, "{what}");
            // The damaged bytes are still handed over for forensics.
            assert_eq!(got.as_ptr(), stored.as_ptr(), "{what}");
            let mut buf = vec![0u8; 64];
            let e = io.read_ssd(&mut clk, 2, &mut buf).unwrap_err();
            assert_eq!(e.kind, IoErrorKind::ChecksumMismatch, "{what}");
            assert_eq!(buf, stored.to_vec(), "{what}");
            assert_ne!(buf, page.to_vec(), "{what}");
            // A clean rewrite of the same image repairs the frame.
            io.write_ssd_sync(&mut clk, 2, &page, PageId(4)).unwrap();
            io.read_ssd(&mut clk, 2, &mut got).unwrap();
            assert_eq!(got.as_ptr(), page.as_ptr(), "{what}");
        }
    }

    /// The verification rule of SSD frames, against a model: seeded random
    /// schedules of every way a frame is written, damaged and read, over a
    /// few frames, where the model keeps per frame the bytes its last write
    /// meant (`None` before the first) and the bytes stored. A read is `Ok`
    /// exactly when the two agree, or the frame was never written, and
    /// returns the meant bytes; otherwise it fails `ChecksumMismatch` and
    /// still hands over the stored bytes. Writers and readers keep and edit
    /// handles throughout, so rewrites land both on images shared with a
    /// frame and on images of their own.
    fn verify_frames_against_the_model(seeds: std::ops::Range<u64>, steps: usize) {
        use crate::crashsched::CrashSwitch;
        use crate::rng::{Rng, SeedableRng, SmallRng};
        const FRAMES: u64 = 4;
        const HANDLES: usize = 4;
        // Reads that passed and that failed: both must come up.
        let mut outcomes = [0u64; 2];
        for ps in [64usize, 200] {
            for seed in seeds.clone() {
                let mut rng = SmallRng::seed_from_u64(0x5EED_F4A3 ^ (ps as u64) << 32 ^ seed);
                let io = IoManager::new(&DeviceSetup::paper(ps, 8, FRAMES));
                let mut clk = Clk::new();
                let mut meant: Vec<Option<Vec<u8>>> = vec![None; FRAMES as usize];
                let mut stored: Vec<Vec<u8>> = vec![vec![0u8; ps]; FRAMES as usize];
                let mut held: Vec<PageBuf> = (0..HANDLES)
                    .map(|_| PageBuf::from_slice(&vec![rng.gen::<u8>(); ps]))
                    .collect();
                for step in 0..steps {
                    let f = rng.gen_range(0..FRAMES);
                    let fu = f as usize;
                    let h = rng.gen_range(0..HANDLES);
                    // New bytes for a write: a fresh fill, or a copy of
                    // what some frame stores, so that identical rewrites
                    // come up often.
                    let bytes = if rng.gen_bool(0.5) {
                        vec![rng.gen::<u8>(); ps]
                    } else {
                        stored[rng.gen_range(0..FRAMES as usize)].clone()
                    };
                    let by_handle = rng.gen_bool(0.5);
                    let write = |io: &IoManager, now| {
                        if by_handle {
                            io.write_ssd_async(now, f, &held[h], PageId(f))
                        } else {
                            io.write_ssd_async(now, f, &bytes[..], PageId(f))
                        }
                    };
                    let new = if by_handle {
                        held[h].to_vec()
                    } else {
                        bytes.clone()
                    };
                    let op = rng.gen_range(0u32..11);
                    let ctx = format!("ps {ps} seed {seed} step {step} op {op} frame {f}");
                    let on_store = |io: &IoManager| io.ssd_store().read_buf(PageId(f)).to_vec();
                    match op {
                        // A clean write.
                        0 | 1 => {
                            write(&io, clk.now).expect(&ctx);
                            (meant[fu], stored[fu]) = (Some(new.clone()), new);
                        }
                        // Torn or bit-flipped by the fault plan.
                        2 | 3 => {
                            let mut cfg = FaultConfig::quiet(seed ^ step as u64);
                            if op == 2 {
                                cfg.torn_write_prob = 1.0;
                            } else {
                                cfg.bitflip_prob = 1.0;
                            }
                            io.set_ssd_fault(Some(Arc::new(FaultPlan::new(cfg))));
                            write(&io, clk.now).expect(&ctx);
                            io.set_ssd_fault(None);
                            let got = on_store(&io);
                            if op == 2 {
                                let old = &stored[fu];
                                assert!(
                                    (1..ps).any(|k| got[..k] == new[..k] && got[k..] == old[k..]),
                                    "{ctx}: a torn write is a prefix of new bytes over old"
                                );
                            } else {
                                let bits: u32 = got
                                    .iter()
                                    .zip(&new)
                                    .map(|(a, b)| (a ^ b).count_ones())
                                    .sum();
                                assert_eq!(bits, 1, "{ctx}: a bit flip flips one bit");
                            }
                            (meant[fu], stored[fu]) = (Some(new), got);
                        }
                        // Power torn mid-frame, or dropped before it.
                        4 | 5 => {
                            let sw = Arc::new(CrashSwitch::armed(0, op == 4));
                            if op == 5 {
                                // Spend the persisting cut, so the frame
                                // write is the first one dropped.
                                sw.on_write(BoundaryKind::LogFlush);
                            }
                            io.set_crash_switch(Some(sw));
                            let e = write(&io, clk.now).expect_err(&ctx);
                            assert_eq!(e.kind, IoErrorKind::DeviceDead, "{ctx}");
                            io.set_crash_switch(None);
                            if op == 4 {
                                let keep = ps / 2;
                                stored[fu][..keep].copy_from_slice(&new[..keep]);
                                meant[fu] = Some(new);
                            }
                        }
                        // At rest, by slice: the stored or the meant bytes
                        // again, or either with one bit flipped, so damage
                        // can stack on earlier damage.
                        6 => {
                            let base = meant[fu].clone().unwrap_or_else(|| stored[fu].clone());
                            let at_rest = match rng.gen_range(0u32..4) {
                                0 => stored[fu].clone(),
                                1 => base,
                                k => {
                                    let mut flipped =
                                        if k == 2 { base } else { stored[fu].clone() };
                                    flipped[rng.gen_range(0..ps)] ^= 1 << rng.gen_range(0u32..8);
                                    flipped
                                }
                            };
                            io.ssd_store().write(PageId(f), &at_rest);
                            stored[fu] = at_rest;
                        }
                        7 => {
                            io.ssd_store().write_buf(PageId(f), held[h].clone());
                            stored[fu] = held[h].to_vec();
                        }
                        // A writer edits its handle: nobody else sees it.
                        8 => held[h][rng.gen_range(0..ps)] ^= 0x80,
                        // A writer lets go of its handle.
                        9 => held[h] = PageBuf::from_slice(&bytes),
                        _ => {}
                    }
                    // Read every frame, by handle (kept in a random slot)
                    // and by slice, and match each outcome to the model.
                    for g in 0..FRAMES as usize {
                        let intact = meant[g].as_ref().is_none_or(|m| *m == stored[g]);
                        let mut image = io.zero_page();
                        let mut slice = vec![0u8; ps];
                        for r in [
                            io.read_ssd(&mut clk, g as u64, &mut image),
                            io.read_ssd(&mut clk, g as u64, &mut slice[..]),
                        ] {
                            outcomes[usize::from(r.is_err())] += 1;
                            match r {
                                Ok(()) => assert!(intact, "{ctx}: frame {g} passed damaged"),
                                Err(e) => {
                                    assert!(!intact, "{ctx}: frame {g} failed intact: {e:?}");
                                    assert_eq!(e.kind, IoErrorKind::ChecksumMismatch, "{ctx}");
                                }
                            }
                        }
                        assert_eq!(image.as_slice(), &stored[g][..], "{ctx}: frame {g}");
                        assert_eq!(slice, stored[g], "{ctx}: frame {g}");
                        if rng.gen_bool(0.25) {
                            held[rng.gen_range(0..HANDLES)] = image;
                        }
                    }
                }
            }
        }
        assert!(
            outcomes.iter().all(|&n| n > 0),
            "passed, failed: {outcomes:?}"
        );
    }

    #[test]
    fn frames_pass_verification_exactly_when_they_hold_the_meant_bytes() {
        verify_frames_against_the_model(0..48, 64);
    }

    /// The same rule over many more schedules; `scripts/check.sh` runs it
    /// in release mode.
    #[test]
    #[ignore = "long variant: cargo test --release -p turbopool-iosim -- --ignored"]
    fn frames_pass_verification_exactly_when_they_hold_the_meant_bytes_long() {
        verify_frames_against_the_model(1_000..6_000, 96);
    }

    /// Every way a disk write can fail leaves exactly its unpersisted pages
    /// in the lost-write set, and a later successful write clears them.
    #[test]
    fn failed_disk_writes_mark_exactly_their_unpersisted_pages_lost() {
        use crate::crashsched::CrashSwitch;
        type Fail = fn(&IoManager, &[PageBuf]) -> Result<Time, IoError>;
        fn plan(write_error_prob: f64, torn_write_prob: f64) -> Option<Arc<FaultPlan>> {
            let mut cfg = FaultConfig::quiet(0x10_57);
            (cfg.write_error_prob, cfg.torn_write_prob) = (write_error_prob, torn_write_prob);
            Some(Arc::new(FaultPlan::new(cfg)))
        }
        const FIRST: PageId = PageId(10);
        // Each cause: how it fails, the pages it writes, the prefix that
        // lands (`None`: drawn by the plan) and the error it reports.
        let causes: [(&str, Fail, usize, Option<usize>, IoErrorKind); 5] = [
            (
                "refused page",
                |io, p| {
                    io.set_disk_fault(plan(1.0, 0.0));
                    io.write_disk_async(0, FIRST, &p[0], Locality::Random)
                },
                1,
                Some(0),
                IoErrorKind::TransientWrite,
            ),
            (
                "refused run",
                |io, p| {
                    io.set_disk_fault(plan(1.0, 0.0));
                    io.write_disk_run_async(0, FIRST, p)
                },
                4,
                Some(0),
                IoErrorKind::TransientWrite,
            ),
            (
                "plan-torn run",
                |io, p| {
                    io.set_disk_fault(plan(0.0, 1.0));
                    io.write_disk_run_async(0, FIRST, p)
                },
                4,
                None,
                IoErrorKind::TransientWrite,
            ),
            (
                "run cut by power",
                |io, p| {
                    io.set_crash_switch(Some(Arc::new(CrashSwitch::armed(1, true))));
                    io.write_disk_run_async(0, FIRST, p)
                },
                4,
                Some(1),
                IoErrorKind::DeviceDead,
            ),
            (
                "page dropped after the cut",
                |io, p| {
                    io.set_crash_switch(Some(Arc::new(CrashSwitch::armed(0, false))));
                    io.write_disk_async(0, PageId(0), &p[0], Locality::Random)
                        .expect("the cut persists");
                    io.write_disk_async(0, FIRST, &p[0], Locality::Random)
                },
                1,
                Some(0),
                IoErrorKind::DeviceDead,
            ),
        ];
        for (what, fail, n, keep, kind) in causes {
            let io = io();
            let old = PageBuf::from_slice(&[0x0D; 64]);
            for i in 0..n as u64 {
                io.write_disk_async(0, FIRST.offset(i), &old, Locality::Random)
                    .unwrap();
            }
            let new: Vec<PageBuf> = (0..n)
                .map(|i| PageBuf::from_slice(&[0x50 + i as u8; 64]))
                .collect();
            assert_eq!(fail(&io, &new).map_err(|e| e.kind), Err(kind), "{what}");
            io.set_disk_fault(None);
            io.set_crash_switch(None);
            let landed = (0..n)
                .take_while(|&i| {
                    io.disk_store()
                        .read_buf(FIRST.offset(i as u64))
                        .same_image(&new[i])
                })
                .count();
            assert!(
                keep.map_or((1..n).contains(&landed), |k| k == landed),
                "{what}: {landed} landed"
            );
            for p in 0..io.db_pages() {
                let pid = PageId(p);
                let unpersisted = (FIRST.0 + landed as u64..FIRST.0 + n as u64).contains(&p);
                assert_eq!(io.disk_write_lost(pid), unpersisted, "{what}: page {p}");
                if unpersisted {
                    assert!(
                        io.disk_store().read_buf(pid).same_image(&old),
                        "{what}: page {p}"
                    );
                }
            }
            io.write_disk_run_async(0, FIRST, &new)
                .expect("healthy again");
            assert!(
                (0..io.db_pages()).all(|p| !io.disk_write_lost(PageId(p))),
                "{what}"
            );
        }
    }

    #[test]
    fn torn_disk_run_persists_prefix_and_reports_failure() {
        let io = io();
        let mut clk = Clk::new();
        let mut cfg = FaultConfig::quiet(0xBEEF);
        cfg.torn_write_prob = 1.0;
        io.set_disk_fault(Some(Arc::new(FaultPlan::new(cfg))));
        let pages: Vec<Vec<u8>> = (0..4).map(|i| vec![0x40 + i as u8; 64]).collect();
        let refs: Vec<&[u8]> = pages.iter().map(|p| p.as_slice()).collect();
        let e = io
            .write_disk_run_async(clk.now, PageId(20), &refs)
            .unwrap_err();
        assert_eq!(e.kind, IoErrorKind::TransientWrite);
        io.set_disk_fault(None);
        // Some strict prefix of the run landed; the tail reads as zeroes.
        let got = io
            .read_disk_run(&mut clk, PageId(20), 4, Locality::Sequential)
            .unwrap();
        let persisted = got.iter().take_while(|p| p.as_slice()[0] != 0).count();
        assert!((1..4).contains(&persisted), "persisted {persisted} pages");
        for (i, p) in got.iter().enumerate().take(persisted) {
            assert_eq!(p.as_slice()[0], 0x40 + i as u8);
        }
    }

    #[test]
    fn transient_disk_errors_replay_per_seed() {
        let run = || {
            let io = io();
            io.set_disk_fault(Some(Arc::new(FaultPlan::new(FaultConfig::transient(
                0xD15C, 0.25,
            )))));
            let mut clk = Clk::new();
            let mut buf = vec![0u8; 64];
            let outcomes: Vec<bool> = (0..64)
                .map(|i| {
                    io.read_disk(&mut clk, PageId(i % 8), &mut buf, Locality::Random)
                        .is_ok()
                })
                .collect();
            let stats = io.disk_fault().expect("plan attached").stats();
            (outcomes, stats)
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(sa.read_errors > 0);
    }

    /// A seeded script that interleaves all six device operations under a
    /// busy fault plan on each device (read and write errors, torn writes,
    /// bit flips, a brownout train and a late death), optionally under a
    /// crash switch too. Returns the FNV-1a digest of every outcome (`Ok`
    /// with its completion time, or the error's kind and instant), both
    /// plans' `FaultStats`, the switch's boundary counts, every disk page
    /// and SSD frame, and `disk_write_lost` of every page.
    fn fault_stream_digest(switch: Option<Arc<CrashSwitch>>) -> (u64, [FaultStats; 2]) {
        use crate::clock::MILLISECOND;
        use crate::rng::{Rng, SeedableRng, SmallRng};
        const PAGES: u64 = 32;
        const FRAMES: u64 = 8;
        const STEPS: u64 = 240;
        let plan = |seed| {
            let mut cfg = FaultConfig::brownout_train(
                seed,
                0,
                u64::MAX,
                10 * MILLISECOND,
                3 * MILLISECOND,
                8,
            );
            cfg.read_error_prob = 0.15;
            cfg.write_error_prob = 0.15;
            cfg.torn_write_prob = 0.3;
            cfg.bitflip_prob = 0.3;
            Arc::new(FaultPlan::new(cfg))
        };
        let io = IoManager::new(&DeviceSetup::paper(64, PAGES, FRAMES));
        io.set_disk_fault(Some(plan(0xD1)));
        io.set_ssd_fault(Some(plan(0x55)));
        io.set_crash_switch(switch);
        let mut rng = SmallRng::seed_from_u64(0xF0_1D);
        let mut clk = Clk::new();
        let mut trail: Vec<u8> = Vec::new();
        let fold = |trail: &mut Vec<u8>, r: Result<Time, IoError>| match r {
            Ok(t) => trail.extend([0].iter().chain(&t.to_le_bytes())),
            Err(e) => trail.extend([1 + e.kind as u8].iter().chain(&e.at.to_le_bytes())),
        };
        for step in 0..STEPS {
            clk.wait_until(step * 2 * MILLISECOND);
            if step == STEPS * 7 / 8 {
                // A late death of both devices.
                for p in [io.disk_fault(), io.ssd_fault()].iter().flatten() {
                    p.kill(clk.now);
                }
            }
            let page = |rng: &mut SmallRng| {
                let base = rng.gen::<u8>();
                (0..64u8).map(|i| base.wrapping_add(i)).collect::<Vec<u8>>()
            };
            let pid = PageId(rng.gen_range(0..PAGES - 4));
            let r = match rng.gen_range(0u32..6) {
                0 => {
                    let mut buf = io.zero_page();
                    io.read_disk(&mut clk, pid, &mut buf, Locality::Random)
                        .map(|()| clk.now)
                }
                1 => {
                    let n = rng.gen_range(1u64..5);
                    io.read_disk_run(&mut clk, pid, n, Locality::Sequential)
                        .map(|_| clk.now)
                }
                2 => io.write_disk_async(clk.now, pid, &page(&mut rng), Locality::Random),
                3 => {
                    let pages: Vec<PageBuf> = (0..rng.gen_range(1u32..5))
                        .map(|_| PageBuf::from_slice(&page(&mut rng)))
                        .collect();
                    io.write_disk_run_async(clk.now, pid, &pages)
                }
                4 => {
                    let mut buf = [0u8; 64];
                    io.read_ssd(&mut clk, rng.gen_range(0..FRAMES), &mut buf[..])
                        .map(|()| clk.now)
                }
                _ => io.write_ssd_async(clk.now, rng.gen_range(0..FRAMES), &page(&mut rng), pid),
            };
            fold(&mut trail, r);
        }
        let stats =
            [&io.disk_fault(), &io.ssd_fault()].map(|p| p.as_ref().expect("attached").stats());
        trail.extend(format!("{stats:?}").bytes());
        if let Some(sw) = io.crash_switch() {
            trail.extend(format!("{:?}", sw.counts()).bytes());
        }
        for p in 0..PAGES {
            trail.extend(io.disk_store().read_buf(PageId(p)).iter());
            trail.push(u8::from(io.disk_write_lost(PageId(p))));
        }
        for f in 0..FRAMES {
            trail.extend(io.ssd_store().read_buf(PageId(f)).iter());
        }
        (fault::checksum(&trail), stats)
    }

    /// The fault stream, pinned: which request fails, tears, flips or
    /// slows, what lands, and what each plan counts. A change to the
    /// injection path that moves any draw or counter moves a digest.
    #[test]
    fn fault_stream_is_pinned_across_all_six_operations() {
        use crate::crashsched::CrashSwitch;
        let (plain, stats) = fault_stream_digest(None);
        for s in &stats {
            let live = [s.read_errors, s.write_errors, s.torn_writes, s.dead_rejects];
            assert!(live.iter().all(|&n| n > 0), "{s:?}");
            assert!(s.brownout_slowdowns > 0, "{s:?}");
        }
        assert!(stats[1].bitflips > 0, "{:?}", stats[1]);
        assert_eq!(plain, 0xE7BB_A197_3F9C_AF46);
        let recorder = Arc::new(CrashSwitch::recorder());
        let (recorded, _) = fault_stream_digest(Some(recorder.clone()));
        let boundaries = recorder.boundaries();
        assert!(boundaries > 100, "{boundaries} boundaries");
        let mut cuts = vec![recorded];
        for cut in 0..=boundaries {
            for torn in [false, true] {
                cuts.push(fault_stream_digest(Some(Arc::new(CrashSwitch::armed(cut, torn)))).0);
            }
        }
        let crashed = fault::checksum(
            &cuts
                .iter()
                .flat_map(|d| d.to_le_bytes())
                .collect::<Vec<_>>(),
        );
        assert_eq!(crashed, 0x41E8_A163_3EAC_59B5);
    }

    #[test]
    fn log_appends_are_sequential_and_advance_clock() {
        let io = io();
        let mut clk = Clk::new();
        io.append_log(&mut clk, 10);
        let first = clk.now;
        io.append_log(&mut clk, 200);
        assert!(clk.now > first);
        // 10 bytes -> 1 page, 200 bytes -> 4 pages (64-byte pages).
        assert_eq!(io.log_stats().write_pages, 5);
    }

    #[test]
    fn brownout_multiplies_ssd_service() {
        let io = io();
        let mut clk = Clk::new();
        // Healthy reference latency.
        io.write_ssd_sync(&mut clk, 0, &[1u8; 64], PageId(0))
            .unwrap();
        let mut buf = vec![0u8; 64];
        let t0 = clk.now;
        io.read_ssd(&mut clk, 0, &mut buf).unwrap();
        let healthy = clk.now - t0;
        // Brown out the SSD from here to the far future at 20x.
        io.set_ssd_fault(Some(Arc::new(FaultPlan::new(FaultConfig::brownout_train(
            9,
            clk.now,
            u64::MAX,
            0,
            0,
            20,
        )))));
        let t1 = clk.now;
        io.read_ssd(&mut clk, 0, &mut buf).unwrap();
        let slowed = clk.now - t1;
        assert!(
            slowed >= healthy * 20,
            "brownout must stretch service: {healthy} -> {slowed}"
        );
        assert!(
            io.ssd_fault().expect("attached").stats().brownout_slowdowns > 0,
            "slowdowns must be counted"
        );
    }

    #[test]
    fn disk_brownout_slows_the_disk_not_the_ssd() {
        // The same random reads on a healthy twin and through a 25x disk
        // brownout: the booked disk service is exactly 25x.
        let run = |plan: Option<Arc<FaultPlan>>| {
            let io = io();
            io.set_disk_fault(plan);
            let mut clk = Clk::new();
            let mut buf = vec![0u8; 64];
            for i in 0..32 {
                io.read_disk(&mut clk, PageId(i % 8), &mut buf, Locality::Random)
                    .unwrap();
            }
            io
        };
        let healthy = run(None);
        let browned = run(Some(Arc::new(FaultPlan::new(FaultConfig::brownout_train(
            4,
            0,
            u64::MAX,
            0,
            0,
            25,
        )))));
        let (h, b) = (healthy.disk_stats(), browned.disk_stats());
        assert_eq!((b.read_ops, b.read_pages), (h.read_ops, h.read_pages));
        assert!(h.read_busy_ns > 0);
        assert_eq!(b.read_busy_ns, 25 * h.read_busy_ns);
        let f = browned.disk_fault().expect("plan attached").stats();
        assert_eq!(f.brownout_slowdowns, 32);
    }
}
