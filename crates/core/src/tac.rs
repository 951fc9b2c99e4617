//! Temperature-Aware Caching (TAC) — the comparison baseline (§2.5).
//!
//! TAC (Canim et al., "SSD Bufferpool Extensions for Database Systems",
//! VLDB 2010) differs from the CW/DW/LC designs in its page flow:
//!
//! 1. On a (memory-pool) miss the SSD is probed; hit → read from SSD.
//! 2. After a page is read from *disk*, it is immediately written to the
//!    SSD if admitted — admission compares the page's extent *temperature*
//!    against the coldest extent resident in the SSD.
//! 3. When a buffer-pool page is updated, the SSD copy is *logically*
//!    invalidated: marked invalid but the frame is not reclaimed.
//! 4. When a dirty page is evicted it is written to disk (write-through);
//!    if an invalid version sits in the SSD it is also rewritten there.
//!
//! Temperature is tracked per extent of 32 consecutive pages: every
//! memory-pool miss adds the time that would be saved by reading the page
//! from SSD instead of disk.
//!
//! Two behaviours the paper highlights are modeled explicitly:
//!
//! * **Write-on-read races** — the on-read SSD write is asynchronous; if a
//!   transaction dirties the page before that write completes, the write is
//!   cancelled and the page never reaches the SSD (and, having no invalid
//!   version there, is not written on eviction either). This is the latch
//!   contention effect of §2.5/§4.2.
//! * **Logical-invalidation waste** — invalid frames keep occupying SSD
//!   space ([`TacCache::invalid_frames`] reproduces the 7.4–10.4 GB waste
//!   numbers of §2.5).
//!
//! One latch covers the whole buffer table (records, page map, extent
//! temperatures, coldest-first heap); a frame index is the SSD frame
//! number. The partitioned table of §3.3.4 is `SsdManager`'s. Retry, the
//! error budget, quarantine, hedging, throttle and audit are the device
//! edge in `tier.rs`, shared with `SsdManager`.

use std::collections::binary_heap::PeekMut;
use std::collections::HashMap;

use std::sync::Arc;
use turbopool_iosim::sync::{self, Mutex, MutexGuard, Rank};

use turbopool_bufpool::PageIo;
use turbopool_iosim::{
    Clk, IoError, IoManager, Locality, PageBuf, PageDst, PageId, PageSrc, PidMap, Time,
};

use crate::audit::AuditOp;
use crate::config::SsdConfig;
use crate::metrics::SsdMetrics;
use crate::tier::{trim_ends, Health, SsdTier};

#[derive(Debug, Clone, Copy)]
struct TacRec {
    pid: PageId,
    /// Logically valid (invalid frames waste space until rewritten).
    valid: bool,
    /// The asynchronous SSD write that installed this copy completes at
    /// this instant; a dirtying before then cancels the write.
    valid_at: Time,
}

/// Everything the table latch protects.
struct TacTable {
    /// `records[frame]` — the SSD buffer table.
    records: Vec<Option<TacRec>>,
    map: PidMap<usize>,
    free: Vec<usize>,
    /// Extent number → accumulated saved-time temperature (ns).
    temps: HashMap<u64, u64>,
    /// Lazy min-heap of (temperature snapshot, frame) over *valid* frames.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    /// Occupied frames holding logically invalid pages — maintained
    /// incrementally so `invalid_frames` never scans the table.
    invalid: u64,
}

impl TacTable {
    /// The record of a mapped frame.
    #[expect(
        clippy::unwrap_used,
        reason = "map/records consistency: a mapped frame always holds a record"
    )]
    fn record(&self, frame: usize) -> TacRec {
        self.records[frame].unwrap()
    }
}

/// The TAC SSD cache, implementing the same [`PageIo`] seam as
/// [`crate::manager::SsdManager`].
pub struct TacCache {
    cfg: SsdConfig,
    io: Arc<IoManager>,
    inner: Mutex<TacTable>,
    /// Quarantine flag, error budget, canary tick and auditor. Once
    /// quarantined TAC runs write-through to disk only (its natural
    /// degradation — nothing is ever stranded).
    health: Health,
    pub metrics: SsdMetrics,
}

impl TacCache {
    pub fn new(cfg: SsdConfig, io: Arc<IoManager>) -> Self {
        assert!(cfg.frames <= io.ssd_frames(), "SSD file too small");
        let frames = cfg.frames as usize;
        let table = TacTable {
            records: vec![None; frames],
            map: PidMap::with_capacity_and_hasher(frames, Default::default()),
            free: (0..frames).rev().collect(),
            temps: HashMap::new(),
            heap: std::collections::BinaryHeap::new(),
            invalid: 0,
        };
        TacCache {
            health: Health::new(cfg.design),
            cfg,
            io,
            inner: Mutex::ranked(Rank::TacTable, table),
            metrics: SsdMetrics::default(),
        }
    }

    /// Acquire the table latch, counting the acquisition and whether it
    /// was contended (latch held by another OS thread at that instant).
    fn lock_table(&self) -> MutexGuard<'_, TacTable> {
        SsdMetrics::bump(&self.metrics.shard_acquisitions);
        if let Some(g) = self.inner.try_lock() {
            return g;
        }
        SsdMetrics::bump(&self.metrics.shard_contended);
        self.inner.lock()
    }

    /// True once the SSD is quarantined and TAC runs disk-only.
    pub fn is_quarantined(&self) -> bool {
        self.health.is_quarantined()
    }

    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Invariant violations caught so far (see [`crate::InvariantAuditor`]).
    pub fn audit_violations(&self) -> u64 {
        self.health.audit_violations()
    }

    /// Occupied frames (valid + invalid).
    pub fn occupancy(&self) -> u64 {
        self.lock_table().map.len() as u64
    }

    /// Frames wasted on logically invalid pages (§2.5) — O(1), from the
    /// incrementally maintained counter.
    pub fn invalid_frames(&self) -> u64 {
        self.lock_table().invalid
    }

    /// SSD frame holding a *valid* copy of `pid`, if any (introspection).
    pub fn frame_of_valid(&self, pid: PageId) -> Option<u64> {
        let tab = self.lock_table();
        let f = *tab.map.get(&pid)?;
        tab.record(f).valid.then_some(f as u64)
    }

    /// True if `pid` has a valid SSD copy.
    pub fn contains_valid(&self, pid: PageId) -> bool {
        self.frame_of_valid(pid).is_some()
    }

    fn extent(&self, pid: PageId) -> u64 {
        pid.0 / self.cfg.tac_extent_pages
    }

    /// The accumulated temperature of `pid`'s extent.
    fn temp(&self, tab: &TacTable, pid: PageId) -> u64 {
        *tab.temps.get(&self.extent(pid)).unwrap_or(&0)
    }

    /// Install a valid copy of `pid` in `frame`, its write completing at
    /// `valid_at`, and enter it in the coldest-first heap.
    fn place(&self, tab: &mut TacTable, frame: usize, pid: PageId, valid_at: Time) {
        tab.records[frame] = Some(TacRec {
            pid,
            valid: true,
            valid_at,
        });
        let temp = self.temp(tab, pid);
        tab.heap.push(std::cmp::Reverse((temp, frame)));
    }

    /// Time saved by serving `class`-type read from SSD instead of disk.
    fn saved_ns(&self, class: Locality) -> u64 {
        let setup = self.io.setup();
        let disk = match class {
            Locality::Random => setup.disk_profile.rand_read_ns,
            Locality::Sequential => setup.disk_profile.seq_read_ns,
        };
        disk.saturating_sub(setup.ssd_profile.rand_read_ns)
    }

    /// Record a memory-pool miss of `pid`: heat its extent.
    fn heat(&self, tab: &mut TacTable, pid: PageId, class: Locality) {
        let saved = self.saved_ns(class);
        *tab.temps.entry(self.extent(pid)).or_insert(0) += saved;
    }

    /// Find the coldest valid SSD frame and leave its entry on top of the
    /// lazy heap: entries of empty or invalid frames met on the way are
    /// dropped, and entries whose temperature grew since they were pushed
    /// are re-keyed (temperatures only increase, so this terminates).
    fn coldest_valid(&self, tab: &mut TacTable) -> Option<(u64, usize)> {
        loop {
            let mut top = tab.heap.peek_mut()?;
            let std::cmp::Reverse((snap, frame)) = *top;
            match tab.records[frame] {
                Some(rec) if rec.valid => {
                    let cur = *tab.temps.get(&self.extent(rec.pid)).unwrap_or(&0);
                    if cur == snap {
                        return Some((snap, frame));
                    }
                    // Dropping `top` sifts the re-keyed entry down.
                    top.0 .0 = cur;
                }
                _ => {
                    PeekMut::pop(top);
                }
            }
        }
    }

    /// Admit `pid` (already read from disk) into the SSD at `now`,
    /// following TAC's admission/replacement rule. `throttled` carries the
    /// throttle verdict at `now` from one admission of a run to the next
    /// (see `admits_now`); it is cleared when this one writes the SSD.
    fn admit_on_read<S: PageSrc + ?Sized>(
        &self,
        now: Time,
        pid: PageId,
        data: &S,
        throttled: &mut Option<bool>,
    ) {
        if self.is_quarantined() || !self.admits_now(now, throttled) {
            return;
        }
        let mut tab = self.lock_table();
        if tab.map.contains_key(&pid) {
            return;
        }
        let filling = tab.map.len() < self.cfg.fill_target() as usize;
        let frame = if filling {
            // Aggressive filling: admit everything while below τ.
            tab.free.pop()
        } else {
            // Qualified admission: the page's extent must be hotter than
            // the coldest extent resident in the SSD.
            let my_temp = self.temp(&tab, pid);
            match self.coldest_valid(&mut tab) {
                Some((cold, cold_frame)) if my_temp > cold => {
                    if let Some(f) = tab.free.pop() {
                        // A free frame exists; keep the cold page.
                        Some(f)
                    } else {
                        tab.heap.pop(); // the cold page's entry
                        #[expect(
                            clippy::unwrap_used,
                            reason = "cold_frame came off the temperature heap, which only holds mapped frames"
                        )]
                        let old = tab.records[cold_frame].take().unwrap();
                        tab.map.remove(&old.pid);
                        self.audit(old.pid, AuditOp::Replace);
                        SsdMetrics::bump(&self.metrics.replacements);
                        Some(cold_frame)
                    }
                }
                // Not hot enough: the cold page stays.
                Some(_) => {
                    SsdMetrics::bump(&self.metrics.policy_rejections);
                    None
                }
                // No valid page to compare against: admit if space exists.
                None => tab.free.pop(),
            }
        };
        let Some(frame) = frame else { return };
        // Reserve the frame and submit the write *outside* the latch: the
        // frame is in neither the free list nor the map, so no other path
        // can claim it while the latch is released. Install only on a
        // successful submission — a gate failure (dead or transient) must
        // not leave a record pointing at unwritten bytes.
        drop(tab);
        // The write books the SSD: the next admission re-evaluates μ.
        *throttled = None;
        let done = match self.io.write_ssd_async(now, frame as u64, data, pid) {
            Ok(t) => t,
            Err(e) => {
                self.lock_table().free.push(frame);
                self.note_ssd_error(&e);
                return;
            }
        };
        let mut tab = self.lock_table();
        if tab.map.contains_key(&pid) {
            // Lost a race: another admission installed `pid` while the
            // latch was released. The submitted write is a harmless booking
            // against a frame that goes straight back to the free list.
            tab.free.push(frame);
            return;
        }
        self.place(&mut tab, frame, pid, done);
        tab.map.insert(pid, frame);
        self.audit(pid, AuditOp::Admit { dirty: false });
        SsdMetrics::bump(&self.metrics.admissions);
        if filling {
            SsdMetrics::bump(&self.metrics.fill_admissions);
        }
    }

    /// Logical invalidation (§2.5): the record stays, marked invalid, and
    /// its frame stays occupied until a write-through rewrites it.
    fn invalidate(&self, tab: &mut TacTable, frame: usize, rec: TacRec) {
        tab.records[frame] = Some(TacRec {
            valid: false,
            ..rec
        });
        tab.invalid += 1;
        self.audit(rec.pid, AuditOp::LogicalInvalidate);
        SsdMetrics::bump(&self.metrics.invalidations);
    }

    /// Extent temperature accessor for unit tests.
    #[cfg(test)]
    fn extent_temp(&self, extent: u64) -> u64 {
        *self.lock_table().temps.get(&extent).unwrap_or(&0)
    }
}

/// The bodies behind the [`PageIo`] entry points, each written once for
/// both forms a page crosses the seam in: a byte slice to copy, or a
/// [`PageBuf`] image to share.
impl TacCache {
    fn read_one<D: PageDst + PageSrc + ?Sized>(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
        buf: &mut D,
    ) -> Result<(), IoError> {
        if self.is_quarantined() {
            SsdMetrics::bump(&self.metrics.quarantined_reads);
            SsdMetrics::bump(&self.metrics.ssd_misses);
            return self.disk_read(clk, pid, class, buf);
        }
        let hit: Option<usize> = {
            let mut tab = self.lock_table();
            // Every memory-pool miss heats the extent, wherever it is
            // served from.
            self.heat(&mut tab, pid, class);
            // The copy must be valid AND its installing write complete; a
            // usable hit still diverts to disk under throttle (§3.3.2) or a
            // fail-slow flag (hedging).
            tab.map.get(&pid).copied().filter(|&frame| {
                let rec = tab.record(frame);
                rec.valid && clk.now >= rec.valid_at && self.serves_clean_read(clk.now)
            })
        };
        // Write-through: the disk copy is current, so a bad frame just
        // costs the hit and the read falls through to disk.
        if let Some(frame) = hit {
            if self.read_frame(clk, pid, frame as u64, false, buf)? {
                return Ok(());
            }
        }
        // A hedged hit lands here too, so its write-on-read admission is a
        // second hedge decision (and a second tick of the canary cadence).
        SsdMetrics::bump(&self.metrics.ssd_misses);
        self.disk_read(clk, pid, class, buf)?;
        // TAC writes the page to the SSD immediately after the disk read
        // (§2.5 page flow, step ii).
        self.admit_on_read(clk.now, pid, buf, &mut None);
        Ok(())
    }

    fn evict<S: PageSrc + ?Sized>(&self, now: Time, pid: PageId, data: &S, dirty: bool) {
        if !dirty {
            // Clean pages were already written on read; nothing happens.
            return;
        }
        // Write-through to disk, as in a traditional DBMS. This write must
        // not drop data, so it rides the retry-forever policy.
        self.disk_write(now, pid, data);
        if self.refresh_stale_copy(now, pid, data) {
            SsdMetrics::bump(&self.metrics.admissions);
        }
    }

    fn checkpoint<S: PageSrc + ?Sized>(&self, now: Time, pid: PageId, data: &S) -> Time {
        let done = self.disk_write(now, pid, data);
        self.refresh_stale_copy(now, pid, data);
        done
    }

    /// `pid`'s disk copy just advanced (an eviction or a checkpoint wrote
    /// it), so ANY existing SSD version of it is now stale and must be
    /// refreshed (flow iv) or dropped. The invalid case is the paper's flow;
    /// a *valid* record can also be stale here: a run-read admitted the
    /// disk version while this newer copy sat dirty in the memory pool
    /// (scan read-ahead does exactly that), and keeping it would serve lost
    /// updates. True if an invalid record became valid again. Hedged like
    /// an admission, but a throttled refresh is not counted as one, so
    /// this gate is not `admits_now`.
    fn refresh_stale_copy<S: PageSrc + ?Sized>(&self, now: Time, pid: PageId, data: &S) -> bool {
        if self.is_quarantined() {
            return false;
        }
        let mut revalidated = false;
        let mut pending: Option<IoError> = None;
        {
            let mut tab = self.lock_table();
            if let Some(&frame) = tab.map.get(&pid) {
                let rec = tab.record(frame);
                let throttled = self.throttled(now);
                let hedging = !throttled && self.hedge_or_probe();
                if hedging {
                    // No refresh traffic to a browned-out SSD.
                    SsdMetrics::bump(&self.metrics.hedged_admissions);
                }
                let write = (!throttled && !hedging).then(|| {
                    sync::io_under_latch(
                        "the refresh-or-invalidate decision must be atomic with the \
                         record's state, and write_ssd_async is an O(1) non-blocking booking",
                        || self.io.write_ssd_async(now, frame as u64, data, pid),
                    )
                });
                if let Some(Ok(done)) = write {
                    self.place(&mut tab, frame, pid, done);
                    if !rec.valid {
                        tab.invalid -= 1;
                    }
                    self.audit(pid, AuditOp::Refresh);
                    revalidated = !rec.valid;
                } else {
                    // Throttled, browned out, or the rewrite failed: a valid
                    // SSD version is now stale and must never be read again.
                    if rec.valid {
                        self.invalidate(&mut tab, frame, rec);
                    }
                    pending = write.and_then(Result::err);
                }
            }
        }
        if let Some(e) = pending {
            self.note_ssd_error(&e);
        }
        revalidated
    }
}

impl PageIo for TacCache {
    fn read_page(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
        buf: &mut [u8],
    ) -> Result<(), IoError> {
        self.read_one(clk, pid, class, buf)
    }

    fn read_page_buf(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
        buf: &mut PageBuf,
    ) -> Result<(), IoError> {
        self.read_one(clk, pid, class, buf)
    }

    fn read_run(&self, clk: &mut Clk, first: PageId, n: u64) -> Result<Vec<PageBuf>, IoError> {
        // Multi-page reads use the same leading/trailing trim as the other
        // designs (§3.3 optimizations were applied to TAC too). Run pages
        // are sequential, hence cold — TAC does not admit them on read.
        assert!(n > 0);
        if self.is_quarantined() {
            SsdMetrics::bump(&self.metrics.quarantined_reads);
        }
        let now0 = clk.now;
        let mut done = now0;
        let hedging = self.hedge_or_probe();
        let throttled = self.throttled(now0) || hedging;
        let status: Vec<Option<u64>> = {
            let tab = self.lock_table();
            (0..n)
                .map(|i| {
                    let pid = first.offset(i);
                    tab.map.get(&pid).and_then(|&f| {
                        let rec = tab.record(f);
                        let usable = rec.valid && now0 >= rec.valid_at;
                        if usable && hedging {
                            SsdMetrics::bump(&self.metrics.hedged_reads);
                        }
                        (usable && !throttled).then_some(f as u64)
                    })
                })
                .collect()
        };
        let (lead, trail) = trim_ends(n as usize, |i| status[i].is_some());
        let mid = lead..(n as usize - trail);
        // No page bytes move: the middle's pages are handles on the disk
        // store's images, and each trimmed end page replaces its
        // placeholder (a handle on the shared zero page) with a handle on
        // its SSD frame's image.
        let mut out: Vec<PageBuf> = Vec::with_capacity(n as usize);
        out.extend((0..lead).map(|_| self.io.zero_page()));
        if !mid.is_empty() {
            let mut tmp = Clk::at(now0);
            let pages = self.disk_read_run(
                &mut tmp,
                first.offset(mid.start as u64),
                mid.len() as u64,
                Locality::Sequential,
            )?;
            done = done.max(tmp.now);
            // Every admission below is at `tmp.now`, so one throttle
            // verdict serves them until one writes the SSD.
            let mut verdict = None;
            for (k, page) in pages.iter().enumerate() {
                let pid = first.offset((mid.start + k) as u64);
                // TAC's write-on-read applies to every page it reads;
                // during aggressive filling even sequential pages are
                // admitted ("before the SSD is full, all pages are
                // admitted"). After filling, cold extents are rejected by
                // the temperature rule inside.
                self.admit_on_read(tmp.now, pid, page, &mut verdict);
            }
            out.extend(pages);
        }
        out.extend((0..trail).map(|_| self.io.zero_page()));
        for i in (0..lead).chain(n as usize - trail..n as usize) {
            #[expect(
                clippy::unwrap_used,
                reason = "lead/trail indices were counted as Some in the pass above"
            )]
            let frame = status[i].unwrap();
            let pid = first.offset(i as u64);
            let mut tmp = Clk::at(now0);
            if !self.read_frame(&mut tmp, pid, frame, false, &mut out[i])? {
                // Same fallback as read_page, but the run's locality: the
                // current disk copy, read `Sequential` from `now0`.
                tmp = Clk::at(now0);
                self.disk_read(&mut tmp, pid, Locality::Sequential, &mut out[i])?;
            }
            done = done.max(tmp.now);
        }
        clk.wait_until(done);
        Ok(out)
    }

    fn evict_page(&self, now: Time, pid: PageId, data: &[u8], dirty: bool, _class: Locality) {
        self.evict(now, pid, data, dirty);
    }

    fn evict_page_buf(&self, now: Time, pid: PageId, data: &PageBuf, dirty: bool, _: Locality) {
        self.evict(now, pid, data, dirty);
    }

    fn note_dirtied(&self, now: Time, pid: PageId) {
        let mut tab = self.lock_table();
        if let Some(&frame) = tab.map.get(&pid) {
            let rec = tab.record(frame);
            if rec.valid {
                if now < rec.valid_at {
                    // The on-read SSD write had not completed: it is
                    // cancelled outright; the page never reaches the SSD
                    // (the §4.2 race that hurts TAC on update-heavy loads).
                    tab.records[frame] = None;
                    tab.map.remove(&pid);
                    tab.free.push(frame);
                    self.audit(pid, AuditOp::Cancel);
                    SsdMetrics::bump(&self.metrics.tac_cancelled_writes);
                } else {
                    self.invalidate(&mut tab, frame, rec);
                }
            }
        }
    }

    fn checkpoint_write(&self, now: Time, pid: PageId, data: &[u8], _class: Locality) -> Time {
        self.checkpoint(now, pid, data)
    }

    fn checkpoint_write_buf(&self, now: Time, pid: PageId, data: &PageBuf, _: Locality) -> Time {
        self.checkpoint(now, pid, data)
    }

    fn has_copy(&self, pid: PageId) -> bool {
        self.lock_table().map.contains_key(&pid)
    }

    fn checkpoint_flush(&self, _clk: &mut Clk) {
        // Write-through: the SSD never holds the only current copy.
    }
}

impl SsdTier for TacCache {
    fn io(&self) -> &IoManager {
        &self.io
    }

    fn cfg(&self) -> &SsdConfig {
        &self.cfg
    }

    fn metrics(&self) -> &SsdMetrics {
        &self.metrics
    }

    fn health(&self) -> &Health {
        &self.health
    }

    /// TAC is write-through, so no data is lost — only hits. Pages are
    /// reported in frame order so the audit stream stays deterministic.
    fn sweep(&self) -> Vec<(PageId, bool)> {
        let mut tab = self.lock_table();
        let live = tab
            .records
            .iter()
            .flatten()
            .map(|r| (r.pid, false))
            .collect();
        tab.records.fill(None);
        tab.map.clear();
        tab.free.clear();
        tab.heap.clear();
        tab.temps.clear();
        tab.invalid = 0;
        live
    }

    /// Write-through: the copy was never the only current version.
    fn remove_entry(&self, pid: PageId) -> Option<bool> {
        let mut tab = self.lock_table();
        let frame = tab.map.remove(&pid)?;
        #[expect(
            clippy::unwrap_used,
            reason = "map/records consistency: a mapped frame always holds a record"
        )]
        let rec = tab.records[frame].take().unwrap();
        if !rec.valid {
            tab.invalid -= 1;
        }
        tab.free.push(frame);
        Some(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbopool_iosim::DeviceSetup;

    const PS: usize = 32;

    fn mk(frames: u64) -> (Arc<IoManager>, TacCache) {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 4096, frames)));
        let mut cfg = SsdConfig::new(crate::SsdDesign::Tac, frames);
        cfg.tac_extent_pages = 4;
        cfg.tau = 1.0; // fill every frame before qualified admission starts
        (Arc::clone(&io), TacCache::new(cfg, io))
    }

    fn read(t: &TacCache, clk: &mut Clk, pid: u64) -> u8 {
        let mut buf = vec![0u8; PS];
        t.read_page(clk, PageId(pid), Locality::Random, &mut buf)
            .unwrap();
        buf[0]
    }

    #[test]
    fn write_on_read_then_hit() {
        let (io, t) = mk(8);
        io.write_disk_async(0, PageId(3), &[7u8; PS], Locality::Random)
            .unwrap();
        let mut clk = Clk::new();
        read(&t, &mut clk, 3);
        assert!(t.contains_valid(PageId(3)), "admitted immediately on read");
        // Let the in-flight SSD write complete before re-reading.
        clk.elapse(turbopool_iosim::SECOND);
        let disk_reads = io.disk_stats().read_ops;
        assert_eq!(read(&t, &mut clk, 3), 7);
        assert_eq!(io.disk_stats().read_ops, disk_reads, "second read hit SSD");
        assert_eq!(t.metrics.snapshot().ssd_hits, 1);
    }

    #[test]
    fn dirtying_before_write_completes_cancels_admission() {
        let (_io, t) = mk(8);
        let mut clk = Clk::new();
        read(&t, &mut clk, 3);
        // The SSD write takes ~80 us; dirty the page "immediately".
        t.note_dirtied(clk.now, PageId(3));
        assert!(!t.contains_valid(PageId(3)));
        assert_eq!(t.occupancy(), 0, "cancelled write frees the frame");
        assert_eq!(t.metrics.snapshot().tac_cancelled_writes, 1);
        // Dirty eviction now finds NO invalid version: page skips the SSD.
        t.evict_page(clk.now + 1, PageId(3), &[9u8; PS], true, Locality::Random);
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn late_dirtying_invalidates_logically_and_wastes_space() {
        let (_io, t) = mk(8);
        let mut clk = Clk::new();
        read(&t, &mut clk, 3);
        clk.elapse(turbopool_iosim::SECOND); // write long complete
        t.note_dirtied(clk.now, PageId(3));
        assert!(!t.contains_valid(PageId(3)));
        assert_eq!(t.occupancy(), 1, "frame still occupied");
        assert_eq!(t.invalid_frames(), 1);
        // Dirty eviction refreshes the invalid version.
        t.evict_page(clk.now, PageId(3), &[9u8; PS], true, Locality::Random);
        assert!(t.contains_valid(PageId(3)));
        assert_eq!(t.invalid_frames(), 0);
    }

    #[test]
    fn an_invalid_copy_is_never_served() {
        let (io, t) = mk(8);
        let mut clk = Clk::new();
        read(&t, &mut clk, 3);
        clk.elapse(turbopool_iosim::SECOND);
        t.note_dirtied(clk.now, PageId(3));
        // Book the SSD past μ so the dirty eviction's refresh is
        // throttled: the disk takes the new version, the frame stays
        // invalid.
        for _ in 0..2 * t.config().mu {
            io.write_ssd_async(clk.now, 7, &[0u8; PS], PageId(99))
                .unwrap();
        }
        t.evict_page(clk.now, PageId(3), &[9u8; PS], true, Locality::Random);
        assert_eq!(t.invalid_frames(), 1, "the refresh was throttled");
        // Long after the storm, a miss must read the disk's copy.
        clk.elapse(60 * turbopool_iosim::SECOND);
        assert_eq!(read(&t, &mut clk, 3), 9);
        assert_eq!(t.metrics.snapshot().ssd_hits, 0);
    }

    #[test]
    fn temperature_guides_replacement() {
        let (_io, t) = mk(2);
        let mut clk = Clk::new();
        // Extent 0 (pids 0..4) becomes hot: many misses.
        read(&t, &mut clk, 0);
        read(&t, &mut clk, 1); // fills both frames (extent 0)
                               // pid 8 (extent 2) read repeatedly heats extent 2 hugely.
        clk.elapse(turbopool_iosim::SECOND);
        for _ in 0..10 {
            read(&t, &mut clk, 8);
            t.note_dirtied(clk.now, PageId(8)); // keep it out of the SSD...
            clk.elapse(turbopool_iosim::SECOND);
        }
        // By now extent 2 is far hotter than extent 0; a fresh read of pid
        // 9 (extent 2) replaces a cold extent-0 page.
        read(&t, &mut clk, 9);
        assert!(t.contains_valid(PageId(9)));
        assert_eq!(t.metrics.snapshot().replacements, 1);
    }

    #[test]
    fn sequential_extents_stay_cold() {
        let (_io, t) = mk(4);
        // Sequential reads save (almost) nothing, so they add no heat.
        {
            let mut clk = Clk::new();
            let mut buf = vec![0u8; PS];
            t.read_page(&mut clk, PageId(100), Locality::Sequential, &mut buf)
                .unwrap();
        }
        // Disk seq read (38 us) is FASTER than SSD random read (82 us):
        // saved time clamps to zero.
        assert_eq!(t.extent_temp(100 / 4), 0);
        let mut clk = Clk::new();
        let mut buf = vec![0u8; PS];
        t.read_page(&mut clk, PageId(200), Locality::Random, &mut buf)
            .unwrap();
        let temp = t.extent_temp(200 / 4);
        assert!(temp > 800_000, "random miss heats extent: {temp}");
    }

    #[test]
    fn run_trim_uses_valid_ssd_pages() {
        let (io, t) = mk(8);
        let mut clk = Clk::new();
        // Put pages 0 and 1 into the SSD via reads, long ago.
        read(&t, &mut clk, 0);
        read(&t, &mut clk, 1);
        clk.elapse(turbopool_iosim::SECOND);
        io.reset_stats();
        let pages = t.read_run(&mut clk, PageId(0), 6).unwrap();
        assert_eq!(pages.len(), 6);
        assert_eq!(io.ssd_stats().read_ops, 2, "leading pages trimmed to SSD");
        assert_eq!(io.disk_stats().read_pages, 4);
    }

    /// When a fresh pair's `read_run` of `first .. first + n` pages, none
    /// cached, makes its admissions: the end of its disk run.
    fn admissions_at(first: u64, n: u64) -> Time {
        let (_, t) = mk(8);
        let mut clk = Clk::new();
        t.read_run(&mut clk, PageId(first), n).unwrap();
        clk.now
    }

    /// Book SSD writes at `at` (to a frame TAC does not use first) until
    /// `left` more would hold a fresh SSD over μ there.
    fn load_ssd(io: &IoManager, mu: usize, at: Time, left: usize) {
        let (twin, _) = mk(8);
        let mut tip = 0;
        while !twin.ssd_overloaded(at, mu) {
            twin.write_ssd_async(at, 7, &[0u8; PS], PageId(99)).unwrap();
            tip += 1;
        }
        assert!(tip > left, "μ is {tip} writes away");
        for _ in 0..tip - left {
            io.write_ssd_async(at, 7, &[0u8; PS], PageId(99)).unwrap();
        }
        assert_eq!(io.ssd_overloaded(at, mu), left == 0);
    }

    #[test]
    fn a_throttled_run_counts_each_mid_page_once() {
        let (io, t) = mk(8);
        let at = admissions_at(0, 6);
        load_ssd(&io, t.config().mu, at, 0);
        let mut clk = Clk::new();
        t.read_run(&mut clk, PageId(0), 6).unwrap();
        assert_eq!(clk.now, at, "all six pages are the run's middle");
        let s = t.metrics.snapshot();
        assert_eq!((s.throttled_admissions, s.admissions), (6, 0));
    }

    #[test]
    fn a_run_reevaluates_the_throttle_once_an_admission_books_the_ssd() {
        let (io, t) = mk(8);
        let at = admissions_at(0, 6);
        // One admission short of μ: the run's first page is admitted, and
        // its write tips the SSD over μ for the other five.
        load_ssd(&io, t.config().mu, at, 1);
        let mut clk = Clk::new();
        t.read_run(&mut clk, PageId(0), 6).unwrap();
        let s = t.metrics.snapshot();
        assert_eq!((s.admissions, s.throttled_admissions), (1, 5));
        assert!(t.contains_valid(PageId(0)) && !t.contains_valid(PageId(1)));
    }

    #[test]
    fn round_trips_across_extents_and_counts_uncontended_latches() {
        let (io, t) = mk(16);
        for p in 0..16u64 {
            io.write_disk_async(0, PageId(p), &[p as u8 + 1; PS], Locality::Random)
                .unwrap();
        }
        let mut clk = Clk::new();
        // Extents are 4 pages wide; 16 pages span 4 extents.
        for p in 0..16u64 {
            assert_eq!(read(&t, &mut clk, p), p as u8 + 1);
        }
        clk.elapse(turbopool_iosim::SECOND);
        let before_hits = t.metrics.snapshot().ssd_hits;
        for p in 0..16u64 {
            assert_eq!(read(&t, &mut clk, p), p as u8 + 1, "page {p}");
        }
        assert!(
            t.metrics.snapshot().ssd_hits > before_hits,
            "re-reads served from the SSD table"
        );
        let s = t.metrics.snapshot();
        assert!(s.shard_acquisitions > 0);
        assert_eq!(s.shard_contended, 0, "single-threaded: never contended");
        // Invalidation bookkeeping stays consistent.
        t.note_dirtied(clk.now, PageId(5));
        assert_eq!(t.invalid_frames(), 1);
        t.evict_page(clk.now, PageId(5), &[0xAA; PS], true, Locality::Random);
        assert_eq!(t.invalid_frames(), 0);
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    use turbopool_iosim::fault::{FaultConfig, FaultPlan};

    #[test]
    fn tac_death_quarantines_without_data_loss() {
        let (io, t) = mk(8);
        io.write_disk_async(0, PageId(3), &[7u8; PS], Locality::Random)
            .unwrap();
        let mut clk = Clk::new();
        read(&t, &mut clk, 3);
        read(&t, &mut clk, 4);
        clk.elapse(turbopool_iosim::SECOND);
        // Page 4's copy goes logically invalid: the sweep must drop it too.
        t.note_dirtied(clk.now, PageId(4));
        assert_eq!((t.occupancy(), t.invalid_frames()), (2, 1));
        let plan = Arc::new(FaultPlan::new(FaultConfig::quiet(11)));
        io.set_ssd_fault(Some(Arc::clone(&plan)));
        plan.kill(clk.now);
        // Write-through: the disk copy is current, so the dead SSD only
        // costs the hit.
        assert_eq!(read(&t, &mut clk, 3), 7);
        assert!(t.is_quarantined());
        assert_eq!((t.occupancy(), t.invalid_frames()), (0, 0));
        let s = t.metrics.snapshot();
        assert_eq!(s.ssd_quarantined, 1);
        assert_eq!(s.lost_frames, 2);
        assert_eq!(s.stranded_dirty, 0, "TAC never strands: write-through");
        // Dirty evictions still reach the disk after quarantine.
        t.evict_page(clk.now, PageId(3), &[9u8; PS], true, Locality::Random);
        clk.elapse(turbopool_iosim::SECOND);
        assert_eq!(read(&t, &mut clk, 3), 9);
        assert!(t.metrics.snapshot().quarantined_reads >= 1);
    }

    #[test]
    fn tac_torn_ssd_write_is_caught_by_checksum() {
        let (io, t) = mk(8);
        io.write_disk_async(0, PageId(5), &[3u8; PS], Locality::Random)
            .unwrap();
        // Every SSD write tears from here on (prefix-only persistence).
        let mut cfg = FaultConfig::quiet(12);
        cfg.torn_write_prob = 1.0;
        io.set_ssd_fault(Some(Arc::new(FaultPlan::new(cfg))));
        let mut clk = Clk::new();
        // The on-read admission write is torn...
        assert_eq!(read(&t, &mut clk, 5), 3);
        assert!(t.contains_valid(PageId(5)));
        clk.elapse(turbopool_iosim::SECOND);
        // ...so the next read fails verification and falls back to disk.
        assert_eq!(read(&t, &mut clk, 5), 3);
        let s = t.metrics.snapshot();
        assert_eq!(s.checksum_misses, 1);
        assert!(!t.is_quarantined());
    }
}
