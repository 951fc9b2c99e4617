//! The disk manager: one facade over the database disk array, the SSD, and
//! the log device, combining timing (devices) with data (stores).
//!
//! This is the component the buffer manager and the SSD manager talk to
//! (Figure 1 of the paper). Reads are synchronous — the caller's virtual
//! clock advances to the completion time. Writes come in both synchronous
//! and asynchronous flavors; asynchronous writes charge device time (and so
//! delay later requests on the same device) without advancing the caller's
//! clock, mirroring the write-behind I/O of the paper's disk manager.

use std::sync::Arc;

use crate::array::StripedArray;
use crate::clock::{Clk, Time};
use crate::crashsched::{BoundaryKind, CrashSwitch, WriteFate};
use crate::device::{DeviceProfile, IoKind, Locality, SimDevice};
use crate::fault::{self, FaultDevice, FaultPlan, IoError, IoErrorKind};
use crate::health::{FailSlowDetector, FailSlowStats};
use crate::page::{PageBuf, PageDst, PageId, PageSrc};
use crate::profiles;
use crate::store::{MemStore, PageStore};
use crate::sync::{self, RwLock};

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
    /// Self-identification tag per SSD frame: the page id + 1 of the page
    /// last written there (0 = never written). Models the page-id header a
    /// real cache stores inside each cached page — persisted with the page
    /// at no extra I/O cost, and the basis of warm-restart validation.
    ssd_tags: Vec<std::sync::atomic::AtomicU64>,
    /// The image each SSD frame was *meant* to hold (`None` = never
    /// written), recorded at write submission and verified on every read.
    /// Models the in-page checksum a real cache stores beside the page-id
    /// header (same persistence argument as `ssd_tags`): injected torn
    /// writes and bit flips corrupt the stored bytes but not this intent
    /// record, so the next read detects the damage instead of returning
    /// bad bytes. Lives and dies with this `IoManager`, so unlike the
    /// WAL's FNV-1a record trailer it is not a format.
    ///
    /// An undamaged frame holds the very image recorded here, which is
    /// checked by identity ([`PageBuf::same_image`]) and sums nothing. A
    /// damaged frame — torn, bit-flipped, or overwritten at rest — holds
    /// a different image, and only then are the two compared by
    /// [`fault::frame_sum`].
    ssd_intents: Vec<RwLock<Option<PageBuf>>>,
    log_dev: SimDevice,
    /// Fault stream for the database disk group, if any.
    disk_fault: RwLock<Option<Arc<FaultPlan>>>,
    /// Fault stream for the SSD, if any.
    ssd_fault: RwLock<Option<Arc<FaultPlan>>>,
    /// Pages whose most recent disk write was dropped by a failing device
    /// and never retried to success. The stored disk image (if any) is
    /// stale, so readers must not treat such a page as never-written and
    /// serve zeroes — see [`IoManager::disk_write_lost`].
    lost_disk_writes: sync::Mutex<std::collections::HashSet<PageId>>,
    /// Fast-path flag: true while `lost_disk_writes` may be non-empty.
    any_lost_writes: std::sync::atomic::AtomicBool,
    /// Fail-slow detector for the disk group, fed by every disk request.
    disk_health: FailSlowDetector,
    /// Fail-slow detector for the SSD, fed by every SSD request.
    ssd_health: FailSlowDetector,
    /// Crash-schedule switch, if attached: numbers every durable-write
    /// boundary and can kill power at an exact one (see [`CrashSwitch`]).
    crash_switch: RwLock<Option<Arc<CrashSwitch>>>,
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
            ssd_tags: (0..setup.ssd_frames)
                .map(|_| std::sync::atomic::AtomicU64::new(0))
                .collect(),
            ssd_intents: (0..setup.ssd_frames).map(|_| RwLock::new(None)).collect(),
            log_dev: SimDevice::new("log", setup.log_profile),
            disk_fault: RwLock::new(None),
            ssd_fault: RwLock::new(None),
            lost_disk_writes: sync::Mutex::new(std::collections::HashSet::new()),
            any_lost_writes: std::sync::atomic::AtomicBool::new(false),
            // Single-request baselines: the disk detector watches one
            // member's service time (a striped request occupies one
            // spindle), the SSD detector its whole device.
            disk_health: FailSlowDetector::from_profile(
                &setup.disk_profile.per_member_of(setup.num_disks.max(1)),
            ),
            ssd_health: FailSlowDetector::from_profile(&setup.ssd_profile),
            crash_switch: RwLock::new(None),
        }
    }

    // ------------------------------------------------------------------
    // Crash scheduling
    // ------------------------------------------------------------------

    /// Attach (or detach, with `None`) a crash-schedule switch. Every
    /// subsequent durable write consults it; once it fires, all I/O on all
    /// devices fails `DeviceDead` until the switch is detached (power is
    /// restored by the next incarnation removing or replacing it).
    pub fn set_crash_switch(&self, sw: Option<Arc<CrashSwitch>>) {
        *self.crash_switch.write() = sw;
    }

    /// The currently attached crash switch, if any.
    pub fn crash_switch(&self) -> Option<Arc<CrashSwitch>> {
        self.crash_switch.read().clone()
    }

    /// Is a fired crash switch attached — i.e. has simulated power been
    /// lost? While true, every device rejects every request.
    pub fn power_lost(&self) -> bool {
        self.crash_switch.read().as_ref().is_some_and(|s| s.fired())
    }

    /// Consult the crash switch for one durable-write boundary of `kind`.
    fn boundary_fate(&self, kind: BoundaryKind) -> WriteFate {
        match self.crash_switch.read().as_ref() {
            Some(sw) => sw.on_write(kind),
            None => WriteFate::Persist,
        }
    }

    fn power_err(device: FaultDevice, at: Time) -> IoError {
        IoError::new(device, IoErrorKind::DeviceDead, at)
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Attach (or detach, with `None`) a fault stream to the disk group.
    pub fn set_disk_fault(&self, plan: Option<Arc<FaultPlan>>) {
        *self.disk_fault.write() = plan;
    }

    /// Attach (or detach, with `None`) a fault stream to the SSD.
    pub fn set_ssd_fault(&self, plan: Option<Arc<FaultPlan>>) {
        *self.ssd_fault.write() = plan;
    }

    /// The currently attached disk fault stream, if any.
    pub fn disk_fault(&self) -> Option<Arc<FaultPlan>> {
        self.disk_fault.read().clone()
    }

    /// The currently attached SSD fault stream, if any.
    pub fn ssd_fault(&self) -> Option<Arc<FaultPlan>> {
        self.ssd_fault.read().clone()
    }

    /// `device`'s fault stream, read once per I/O: a plan is only ever
    /// swapped between I/Os.
    fn plan_for(&self, device: FaultDevice) -> Option<Arc<FaultPlan>> {
        match device {
            FaultDevice::Disk => self.disk_fault.read().clone(),
            FaultDevice::Ssd => self.ssd_fault.read().clone(),
        }
    }

    /// Gate a read on `device` at `now` under its fault stream `plan`:
    /// `Ok(extra_latency)` or an error.
    fn gate_read(
        plan: Option<&FaultPlan>,
        device: FaultDevice,
        now: Time,
    ) -> Result<Time, IoError> {
        plan.map_or(Ok(0), |p| p.before_read(device, now))
    }

    /// Gate a write on `device` at `now`, as [`Self::gate_read`].
    fn gate_write(
        plan: Option<&FaultPlan>,
        device: FaultDevice,
        now: Time,
    ) -> Result<Time, IoError> {
        plan.map_or(Ok(0), |p| p.before_write(device, now))
    }

    /// The brownout service-time multiplier `plan` sets for a request
    /// admitted at `now` (1 outside brownout windows).
    fn service_scale(plan: Option<&FaultPlan>, now: Time) -> u32 {
        plan.map_or(1, |p| p.service_factor(now))
    }

    // ------------------------------------------------------------------
    // Fail-slow detection
    // ------------------------------------------------------------------

    /// Per-page *service* latency of a completed ticket, plus any
    /// fault-injected extra. Service time — not end-to-end latency — is
    /// what the detectors sample: queue wait grows with healthy load
    /// (saturation is the normal state under aggressive filling), while
    /// service time only grows when the device itself slows down, which
    /// is exactly the brownout signature.
    fn observed_ns(t: &crate::device::IoTicket, extra: Time, npages: u64) -> Time {
        t.complete.saturating_sub(t.start) / npages.max(1) + extra
    }

    /// Is the SSD currently flagged fail-slow?
    pub fn ssd_slow(&self) -> bool {
        self.ssd_health.is_degraded()
    }

    /// Is the disk group currently flagged fail-slow?
    pub fn disk_slow(&self) -> bool {
        self.disk_health.is_degraded()
    }

    /// Is the SSD degraded but part-way through a fast-sample streak
    /// (recovery pending confirmation)? Hedging layers burst canary
    /// probes while this holds.
    pub fn ssd_clearing(&self) -> bool {
        self.ssd_health.clearing()
    }

    /// Snapshot of the SSD fail-slow detector.
    pub fn ssd_failslow(&self) -> FailSlowStats {
        self.ssd_health.stats()
    }

    /// Snapshot of the disk-group fail-slow detector.
    pub fn disk_failslow(&self) -> FailSlowStats {
        self.disk_health.stats()
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
        if self.power_lost() {
            return Err(Self::power_err(FaultDevice::Disk, clk.now));
        }
        let plan = self.plan_for(FaultDevice::Disk);
        let extra = Self::gate_read(plan.as_deref(), FaultDevice::Disk, clk.now)?;
        let scale = Self::service_scale(plan.as_deref(), clk.now);
        let (t, depth) =
            self.disk
                .submit_run_scaled(clk.now, IoKind::Read, pid, 1, Some(hint), scale);
        buf.set(self.disk_store.read_buf(pid));
        let done = t.complete + extra;
        self.disk_health
            .observe(Self::observed_ns(&t, extra, 1), depth);
        clk.wait_until(done);
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
        if self.power_lost() {
            return Err(Self::power_err(FaultDevice::Disk, clk.now));
        }
        let plan = self.plan_for(FaultDevice::Disk);
        let extra = Self::gate_read(plan.as_deref(), FaultDevice::Disk, clk.now)?;
        let scale = Self::service_scale(plan.as_deref(), clk.now);
        let (t, depth) = self
            .disk
            .submit_run_scaled(clk.now, IoKind::Read, first, n, None, scale);
        let out = (0..n)
            .map(|i| self.disk_store.read_buf(first.offset(i)))
            .collect();
        let done = t.complete + extra;
        self.disk_health
            .observe(Self::observed_ns(&t, extra, n), depth);
        clk.wait_until(done);
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
        match self.boundary_fate(BoundaryKind::DiskPage) {
            WriteFate::Persist => {}
            // A torn page write persists nothing in this model (pages are
            // the disk's atomicity unit only when the write completes), so
            // torn and dropped coincide: the stored image is stale.
            WriteFate::Torn | WriteFate::Dropped => {
                self.mark_lost_write(pid);
                return Err(Self::power_err(FaultDevice::Disk, now));
            }
        }
        let plan = self.plan_for(FaultDevice::Disk);
        let extra = match Self::gate_write(plan.as_deref(), FaultDevice::Disk, now) {
            Ok(extra) => extra,
            Err(e) => {
                self.mark_lost_write(pid);
                return Err(e);
            }
        };
        let scale = Self::service_scale(plan.as_deref(), now);
        let (t, depth) = self
            .disk
            .submit_run_scaled(now, IoKind::Write, pid, 1, Some(hint), scale);
        self.disk_store.put(pid, data);
        self.clear_lost_write(pid);
        let done = t.complete + extra;
        self.disk_health
            .observe(Self::observed_ns(&t, extra, 1), depth);
        Ok(done)
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
        if self.crash_switch.read().is_some() {
            // One boundary per page: a crash can land inside the run. The
            // prefix that persisted before the cut is written; the cut page
            // and the rest never reached the platters.
            let mut keep = pages.len();
            for i in 0..pages.len() {
                match self.boundary_fate(BoundaryKind::DiskPage) {
                    WriteFate::Persist => {}
                    WriteFate::Torn | WriteFate::Dropped => {
                        keep = i;
                        break;
                    }
                }
            }
            if keep < pages.len() {
                for (i, data) in pages.iter().take(keep).enumerate() {
                    self.disk_store.put(first.offset(i as u64), data);
                    self.clear_lost_write(first.offset(i as u64));
                }
                for i in keep..pages.len() {
                    self.mark_lost_write(first.offset(i as u64));
                }
                return Err(Self::power_err(FaultDevice::Disk, now));
            }
        }
        let plan = self.plan_for(FaultDevice::Disk);
        let extra = match Self::gate_write(plan.as_deref(), FaultDevice::Disk, now) {
            Ok(extra) => extra,
            Err(e) => {
                for i in 0..pages.len() {
                    self.mark_lost_write(first.offset(i as u64));
                }
                return Err(e);
            }
        };
        let torn = plan.as_ref().and_then(|p| p.torn_prefix(pages.len()));
        let persisted = torn.unwrap_or(pages.len());
        let scale = Self::service_scale(plan.as_deref(), now);
        let (t, depth) = self.disk.submit_run_scaled(
            now,
            IoKind::Write,
            first,
            persisted as u64,
            // First page still seeks; the rest stream.
            Some(Locality::Random),
            scale,
        );
        for (i, data) in pages.iter().take(persisted).enumerate() {
            self.disk_store.put(first.offset(i as u64), data);
            self.clear_lost_write(first.offset(i as u64));
        }
        for i in persisted..pages.len() {
            // The torn tail never reached the platter; until a retry lands
            // it, these pages must not read as fresh.
            self.mark_lost_write(first.offset(i as u64));
        }
        let done = t.complete + extra;
        self.disk_health
            .observe(Self::observed_ns(&t, extra, persisted.max(1) as u64), depth);
        if torn.is_some() {
            return Err(IoError::new(
                FaultDevice::Disk,
                IoErrorKind::TransientWrite,
                now,
            ));
        }
        Ok(done)
    }

    /// Record that the most recent durable write of `pid` never reached the
    /// disk and was abandoned (no further retries planned). Used by salvage
    /// paths that give up on a permanently failing device: the page must
    /// fail loudly on its next read rather than serve a stale image.
    pub fn note_lost_write(&self, pid: PageId) {
        self.mark_lost_write(pid);
    }

    fn mark_lost_write(&self, pid: PageId) {
        self.lost_disk_writes.lock().insert(pid);
        self.any_lost_writes
            .store(true, std::sync::atomic::Ordering::Release);
    }

    fn clear_lost_write(&self, pid: PageId) {
        if self
            .any_lost_writes
            .load(std::sync::atomic::Ordering::Acquire)
        {
            let mut lost = self.lost_disk_writes.lock();
            lost.remove(&pid);
            if lost.is_empty() {
                self.any_lost_writes
                    .store(false, std::sync::atomic::Ordering::Release);
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
        self.any_lost_writes
            .load(std::sync::atomic::Ordering::Acquire)
            && self.lost_disk_writes.lock().contains(&pid)
    }

    /// Outstanding request count on the disk group.
    pub fn disk_queue_depth(&self, now: Time) -> usize {
        self.disk.queue_depth(now)
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
        if self.power_lost() {
            return Err(Self::power_err(FaultDevice::Ssd, clk.now));
        }
        let plan = self.plan_for(FaultDevice::Ssd);
        let extra = Self::gate_read(plan.as_deref(), FaultDevice::Ssd, clk.now)?;
        let scale = Self::service_scale(plan.as_deref(), clk.now);
        let (t, depth) = self.ssd_dev.submit_sampled(
            clk.now,
            IoKind::Read,
            frame,
            1,
            Some(Locality::Random),
            scale,
        );
        let image = self.ssd_store.read_buf(PageId(frame));
        let intact = self.ssd_intents[frame as usize]
            .read()
            .as_ref()
            .is_none_or(|meant| {
                meant.same_image(&image) || fault::frame_sum(meant) == fault::frame_sum(&image)
            });
        buf.set(image);
        let done = t.complete + extra;
        self.ssd_health
            .observe(Self::observed_ns(&t, extra, 1), depth);
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
        match self.boundary_fate(BoundaryKind::SsdFrame) {
            WriteFate::Persist => {}
            WriteFate::Torn => {
                // Power died mid-frame: a deterministic half-frame prefix
                // of the new bytes lands over the old tail, while the
                // intent records (tag + the full new image) are updated —
                // so the next read of this frame reports
                // `ChecksumMismatch` instead of serving the hybrid.
                let meant = Self::intended(data);
                let keep = (self.page_size / 2).max(1).min(meant.len());
                self.tear_ssd_frame(frame, &meant, keep);
                self.record_ssd_intent(frame, meant, tag);
                return Err(Self::power_err(FaultDevice::Ssd, now));
            }
            // Dropped: the old frame (tag, intent, bytes) stays intact —
            // frame-granularity atomicity for a write that never started.
            WriteFate::Dropped => return Err(Self::power_err(FaultDevice::Ssd, now)),
        }
        let plan = self.plan_for(FaultDevice::Ssd);
        let extra = Self::gate_write(plan.as_deref(), FaultDevice::Ssd, now)?;
        let scale = Self::service_scale(plan.as_deref(), now);
        let (t, depth) = self.ssd_dev.submit_sampled(
            now,
            IoKind::Write,
            frame,
            1,
            Some(Locality::Random),
            scale,
        );
        self.ssd_health
            .observe(Self::observed_ns(&t, extra, 1), depth);
        let len = data.bytes().len();
        let meant = if let Some(keep) = plan.as_ref().and_then(|p| p.torn_prefix(len)) {
            let meant = Self::intended(data);
            self.tear_ssd_frame(frame, &meant, keep);
            meant
        } else if let Some((byte, mask)) = plan.as_ref().and_then(|p| p.bitflip(len)) {
            let meant = Self::intended(data);
            let mut flipped = meant.clone();
            flipped[byte] ^= mask; // copies: `meant` keeps the intended bytes
            self.ssd_store.write_buf(PageId(frame), flipped);
            meant
        } else {
            // The stored image is the intended one. The old intent goes
            // first, so a slice still lands in the frame's own image when
            // nothing else shares it.
            self.ssd_intents[frame as usize].write().take();
            self.ssd_store.put(PageId(frame), data);
            self.ssd_store.read_buf(PageId(frame))
        };
        self.record_ssd_intent(frame, meant, tag);
        Ok(t.complete + extra)
    }

    /// The image a frame write means: the writer's own, or a copy of its
    /// bytes.
    fn intended<S: PageSrc + ?Sized>(data: &S) -> PageBuf {
        data.as_image()
            .cloned()
            .unwrap_or_else(|| PageBuf::from_slice(data.bytes()))
    }

    /// Torn frame write: the first `keep` bytes of `data` land over the
    /// old frame's tail — in an image of their own, whoever else still
    /// holds the old one.
    fn tear_ssd_frame(&self, frame: u64, data: &[u8], keep: usize) {
        let mut merged = self.ssd_store.read_buf(PageId(frame));
        merged[..keep].copy_from_slice(&data[..keep]);
        self.ssd_store.write_buf(PageId(frame), merged);
    }

    /// Update `frame`'s intent records — the image it was meant to hold,
    /// and the page it caches — whatever actually reached the store.
    fn record_ssd_intent(&self, frame: u64, meant: PageBuf, tag: PageId) {
        *self.ssd_intents[frame as usize].write() = Some(meant);
        self.ssd_tags[frame as usize].store(tag.0 + 1, std::sync::atomic::Ordering::Relaxed);
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
        let t = self.ssd_tags[frame as usize].load(std::sync::atomic::Ordering::Relaxed);
        (t != 0).then(|| PageId(t - 1))
    }

    /// Pending I/O count on the SSD — the quantity the throttle-control
    /// optimization (threshold `mu`, §3.3.2) monitors.
    pub fn ssd_queue_depth(&self, now: Time) -> usize {
        self.ssd_dev.queue_depth(now)
    }

    /// Throttle-control predicate: is the SSD overloaded around `now`,
    /// with more than `mu` requests' worth of capacity booked?
    pub fn ssd_overloaded(&self, now: Time, mu: usize) -> bool {
        self.ssd_dev.overloaded(now, mu)
    }

    // ------------------------------------------------------------------
    // Log device
    // ------------------------------------------------------------------

    /// Consult the crash switch for one log group flush. `Persist` means
    /// the flush reaches the log device in full; `Torn` means power died
    /// during the flush (the log manager persists all but the final byte,
    /// leaving a clean torn tail for recovery to truncate); `Dropped` means
    /// power was already off and nothing was written.
    pub fn log_flush_fate(&self) -> WriteFate {
        self.boundary_fate(BoundaryKind::LogFlush)
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
        // A rebooted machine starts with idle, presumed-healthy devices;
        // the detectors re-learn from the new incarnation's latencies
        // (their cumulative transition counts survive as history).
        self.disk_health.reset();
        self.ssd_health.reset();
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
    pub fn disk_store(&self) -> &dyn PageStore {
        &self.disk_store
    }

    /// Direct access to the SSD bytes, bypassing timing (tests only; the
    /// paper's designs never read the SSD after a restart).
    pub fn ssd_store(&self) -> &dyn PageStore {
        &self.ssd_store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;

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
        assert!(io.ssd_intents[3]
            .read()
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
        let intent = |io: &IoManager| io.ssd_intents[5].read().clone().expect("written");
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
                        // At rest, by slice: the meant bytes with one bit
                        // flipped, or the stored or the meant bytes again.
                        // Damage is one flip from the meant bytes, never a
                        // flip stacked on earlier damage: `frame_sum` sees
                        // every one-bit difference, but two flips can
                        // cancel (bit 63 of a lane's word, then bit 28 of
                        // the same lane's word one block later).
                        6 => {
                            let base = meant[fu].clone().unwrap_or_else(|| stored[fu].clone());
                            let at_rest = match rng.gen_range(0u32..4) {
                                0 => stored[fu].clone(),
                                1 => base,
                                _ => {
                                    let mut flipped = base;
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
    fn brownout_multiplies_ssd_service_and_trips_the_detector() {
        let io = io();
        let mut clk = Clk::new();
        // Healthy reference latency.
        io.write_ssd_sync(&mut clk, 0, &[1u8; 64], PageId(0))
            .unwrap();
        let mut buf = vec![0u8; 64];
        let t0 = clk.now;
        io.read_ssd(&mut clk, 0, &mut buf).unwrap();
        let healthy = clk.now - t0;
        assert!(!io.ssd_slow());
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
        // Sustained slowness flips the detector with hysteresis.
        for _ in 0..32 {
            io.read_ssd(&mut clk, 0, &mut buf).unwrap();
        }
        assert!(io.ssd_slow(), "detector must trip during the brownout");
        let fs = io.ssd_failslow();
        assert!(fs.degraded);
        assert_eq!(fs.transitions, 1);
        assert!(fs.slow_samples > 0);
        assert!(
            io.ssd_fault().expect("attached").stats().brownout_slowdowns > 0,
            "slowdowns must be counted"
        );
        // The disk tier is untouched.
        assert!(!io.disk_slow());
    }

    #[test]
    fn detector_clears_after_the_brownout_window_ends() {
        let io = io();
        let mut clk = Clk::new();
        io.write_ssd_sync(&mut clk, 0, &[1u8; 64], PageId(0))
            .unwrap();
        let end = clk.now + 500 * crate::clock::MILLISECOND;
        io.set_ssd_fault(Some(Arc::new(FaultPlan::new(FaultConfig::brownout_train(
            2, 0, end, 0, 0, 30,
        )))));
        let mut buf = vec![0u8; 64];
        while clk.now < end {
            io.read_ssd(&mut clk, 0, &mut buf).unwrap();
        }
        assert!(io.ssd_slow());
        // Healthy reads after the window: EWMA decays, flag clears.
        for _ in 0..200 {
            io.read_ssd(&mut clk, 0, &mut buf).unwrap();
            if !io.ssd_slow() {
                break;
            }
        }
        assert!(!io.ssd_slow(), "detector must clear after recovery");
        assert_eq!(io.ssd_failslow().transitions, 2);
    }

    #[test]
    fn disk_brownout_feeds_the_disk_detector() {
        let io = io();
        let mut clk = Clk::new();
        io.set_disk_fault(Some(Arc::new(FaultPlan::new(FaultConfig::brownout_train(
            4,
            0,
            u64::MAX,
            0,
            0,
            25,
        )))));
        let mut buf = vec![0u8; 64];
        for i in 0..32 {
            io.read_disk(&mut clk, PageId(i % 8), &mut buf, Locality::Random)
                .unwrap();
        }
        assert!(io.disk_slow(), "sustained 25x disk slowness must trip");
        assert!(!io.ssd_slow());
    }

    #[test]
    fn reset_device_time_resets_detector_state() {
        let io = io();
        let mut clk = Clk::new();
        io.set_ssd_fault(Some(Arc::new(FaultPlan::new(FaultConfig::brownout_train(
            7,
            0,
            u64::MAX,
            0,
            0,
            40,
        )))));
        io.write_ssd_sync(&mut clk, 0, &[1u8; 64], PageId(0))
            .unwrap();
        let mut buf = vec![0u8; 64];
        for _ in 0..32 {
            io.read_ssd(&mut clk, 0, &mut buf).unwrap();
        }
        assert!(io.ssd_slow());
        io.reset_device_time();
        assert!(!io.ssd_slow(), "restart forgets the degraded flag");
    }

    #[test]
    fn queue_depth_reflects_outstanding_async_writes() {
        let io = io();
        for f in 0..5 {
            io.write_ssd_async(0, f, &[0u8; 64], PageId(f)).unwrap();
        }
        assert!(io.ssd_queue_depth(0) >= 4);
        let far = 10 * crate::clock::SECOND;
        assert_eq!(io.ssd_queue_depth(far), 0);
    }
}
