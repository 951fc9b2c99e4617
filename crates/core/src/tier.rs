//! The SSD manager's device edge, the same for every design: the throttle
//! (μ) gates, the invariant auditor, the page reads (`fetch_page`, and
//! `fetch_run` with the §3.3.3 trim), and the one frame write every
//! admission and refresh books under its partition latch (`write_frame`).
//! What a failed device I/O costs is settled in `health.rs`.

use turbopool_iosim::sync;
use turbopool_iosim::{Clk, IoError, Locality, PageBuf, PageDst, PageId, PageSrc, Time};

use crate::audit::AuditOp;
use crate::config::MultiPageMode;
use crate::health::Failure;
use crate::metrics::SsdMetrics;
use crate::SsdManager;

/// The device edge, and the page reads over the table.
impl SsdManager {
    /// Invariant violations caught so far (see [`crate::InvariantAuditor`]).
    pub fn audit_violations(&self) -> u64 {
        self.auditor.violations()
    }

    /// Book `pid`'s image `data` into SSD `frame` at `now` while the caller
    /// holds its table latch, so an admission or refresh picks its frame,
    /// writes it, and installs the entry or backs it out in one hold. A
    /// failure is the caller's to settle once the latch is released.
    pub(crate) fn write_frame<S: PageSrc + ?Sized>(
        &self,
        now: Time,
        frame: u64,
        pid: PageId,
        data: &S,
    ) -> Result<Time, Failure> {
        sync::io_under_latch(
            "an SSD-table entry changes atomically with the write to its frame, \
             and write_ssd_async is an O(1) non-blocking booking",
            || self.io.write_ssd_async(now, frame, data, pid),
        )
        .map_err(Failure::from)
    }

    /// Report a buffer-table transition to the auditor. Violations are
    /// counted in the metrics and abort debug builds immediately.
    #[expect(
        clippy::panic,
        reason = "the auditor's whole point: fail the test run at the first illegal state-machine transition"
    )]
    pub(crate) fn audit(&self, pid: PageId, op: AuditOp) {
        if let Err(e) = self.auditor.observe(pid, op) {
            SsdMetrics::bump(&self.metrics.audit_violations);
            if cfg!(debug_assertions) {
                panic!("SSD buffer-table invariant violated: {e} (pid {pid})");
            }
        }
    }

    /// Is the SSD queue deeper than the throttle threshold μ (§3.3.2)?
    pub(crate) fn throttled(&self, now: Time) -> bool {
        self.io.ssd_overloaded(now, self.cfg.mu)
    }

    /// The gate on a clean SSD hit: read the SSD unless its queue exceeds
    /// μ, counting the diverted read.
    pub(crate) fn serves_clean_read(&self, now: Time) -> bool {
        let throttled = self.throttled(now);
        if throttled {
            SsdMetrics::bump(&self.metrics.throttled_reads);
        }
        !throttled
    }

    /// The gate on an admission: write the SSD unless its queue exceeds μ,
    /// counting the skipped admission. `throttled` is the throttle verdict
    /// at `now`, evaluated here if `None`. It is a pure function of the
    /// SSD's bookings and `now`, so a caller admitting several pages at one
    /// instant (a TAC run) keeps it until one of them writes the SSD.
    pub(crate) fn admits_now(&self, now: Time, throttled: &mut Option<bool>) -> bool {
        let throttled = *throttled.get_or_insert_with(|| self.throttled(now));
        if throttled {
            SsdMetrics::bump(&self.metrics.throttled_admissions);
        }
        !throttled
    }

    /// Read one page: from its SSD frame when the table serves it, else
    /// from disk. A quarantined tier reads the disk.
    pub(crate) fn fetch_page<D: PageDst + PageSrc + ?Sized>(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
        buf: &mut D,
    ) -> Result<(), IoError> {
        let m = &self.metrics;
        let quarantined = self.is_quarantined();
        let hit = (!quarantined).then(|| self.probe(clk.now, pid, class));
        if let Some((frame, dirty)) = hit.flatten() {
            if self.read_frame(clk, pid, frame, buf) {
                SsdMetrics::bump(&m.ssd_hits);
                if dirty {
                    SsdMetrics::bump(&m.dirty_hits);
                }
                return Ok(());
            }
            // The copy is lost, and the disk holds the page: fall through.
        }
        if quarantined {
            SsdMetrics::bump(&m.quarantined_reads);
        }
        SsdMetrics::bump(&m.ssd_misses);
        self.disk_read(clk, |c| self.io.read_disk(c, pid, buf, class))?;
        self.after_disk_read(clk.now, pid, buf, &mut None);
        Ok(())
    }

    /// Read the `n`-page run from `first` the way `cfg().multipage` says
    /// (§3.3.3). Every I/O starts at the caller's `now`; the caller waits
    /// for the last. No page bytes move: disk pages arrive as handles on
    /// the disk store's images, and a page read from the SSD gets a handle
    /// on the frame's image. `Err` is a disk failure only.
    pub(crate) fn fetch_run(
        &self,
        clk: &mut Clk,
        first: PageId,
        n: u64,
    ) -> Result<Vec<PageBuf>, IoError> {
        assert!(n > 0);
        if self.is_quarantined() {
            // The table is empty, so every page below reads from disk; the
            // counter records the degradation for the harnesses.
            SsdMetrics::bump(&self.metrics.quarantined_reads);
        }
        let now0 = clk.now;
        let entries = self.run_entries(now0, first, n);
        let n = n as usize;
        let mut out: Vec<PageBuf> = Vec::with_capacity(n);
        let mut done = now0;
        // Issue one I/O from `now0`. Pages arrive in page order: a page the
        // disk does not return gets a placeholder (a handle on the zero
        // image) until its SSD read replaces it.
        let mut issue = |step: RunStep| -> Result<(), IoError> {
            let mut tmp = Clk::at(now0);
            let zero = || self.io.zero_page();
            match step {
                RunStep::Disk(range) => {
                    out.resize_with(range.start, zero);
                    let at = first.offset(range.start as u64);
                    // The device finds each span's adjacency itself, so the
                    // run takes no locality.
                    let n = range.len() as u64;
                    let read = |c: &mut Clk| self.io.read_disk_run(c, at, n, Locality::Sequential);
                    let pages = self.disk_read(&mut tmp, read)?;
                    // One admission throttle verdict serves every page
                    // handed over at `tmp.now` until one writes the SSD.
                    let mut verdict = None;
                    for (k, page) in pages.iter().enumerate() {
                        self.after_disk_read(tmp.now, at.offset(k as u64), page, &mut verdict);
                    }
                    out.extend(pages);
                }
                // On SSD failure the entry is dropped and the page reread
                // from disk at `now0`; once a failure earlier in the run has
                // quarantined the SSD, the page reads the disk at once. No
                // `dirty_hits` here: that counts single-page reads only.
                RunStep::Ssd(i, frame) => {
                    out.resize_with(out.len().max(i + 1), zero);
                    let pid = first.offset(i as u64);
                    if !self.is_quarantined() && self.read_frame(&mut tmp, pid, frame, &mut out[i])
                    {
                        SsdMetrics::bump(&self.metrics.ssd_hits);
                        self.after_patch(pid);
                    } else {
                        tmp = Clk::at(now0);
                        let class = self.policy.run_fallback;
                        let read = |c: &mut Clk| self.io.read_disk(c, pid, &mut out[i], class);
                        self.disk_read(&mut tmp, read)?;
                    }
                }
            }
            done = done.max(tmp.now);
            Ok(())
        };
        let throttled = self.throttled(now0);
        // A dirty copy is read from the SSD always, a clean one unless the
        // SSD is throttled.
        let from_ssd = |i: usize| matches!(entries[i], Some((_, d)) if d || !throttled);
        let dirty = |i: usize| matches!(entries[i], Some((_, true)));
        let ssd = |i: usize| entries[i].map(|(frame, _)| RunStep::Ssd(i, frame));
        match self.cfg.multipage {
            // Trimming: peel SSD-resident pages off both ends and read the
            // middle as one disk I/O; dirty pages inside the middle are
            // patched from the SSD afterwards.
            MultiPageMode::Trim => {
                let lead = (0..n).take_while(|&i| from_ssd(i)).count();
                let trail = (lead..n).rev().take_while(|&i| from_ssd(i)).count();
                let mid = lead..n - trail;
                if !mid.is_empty() {
                    issue(RunStep::Disk(mid.clone()))?;
                }
                let patched = (0..n).filter(|&i| !mid.contains(&i) || dirty(i));
                patched.filter_map(ssd).try_for_each(&mut issue)?;
            }
            // The paper's discarded first cut: split the request at every
            // SSD-resident page; each disk fragment pays its own positioning.
            MultiPageMode::Split => {
                let mut i = 0;
                while i < n {
                    let start = i;
                    while i < n && !from_ssd(i) {
                        i += 1;
                    }
                    if start < i {
                        issue(RunStep::Disk(start..i))?;
                    } else {
                        ssd(i).map_or(Ok(()), &mut issue)?;
                        i += 1;
                    }
                }
            }
            // Dirty SSD copies are newer than what the disk returns.
            MultiPageMode::DiskOnly => {
                issue(RunStep::Disk(0..n))?;
                (0..n)
                    .filter(|&i| dirty(i))
                    .filter_map(ssd)
                    .try_for_each(&mut issue)?;
            }
        }
        debug_assert_eq!(out.len(), n);
        clk.wait_until(done);
        Ok(out)
    }
}

/// One I/O of a run read, in issue order.
enum RunStep {
    /// Pages `range` of the run, read off the disk as one I/O.
    Disk(std::ops::Range<usize>),
    /// Page `i` of the run, read from its SSD `frame`.
    Ssd(usize, u64),
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use turbopool_bufpool::PageIo;
    use turbopool_iosim::fault::{FaultConfig, FaultPlan};
    use turbopool_iosim::{DeviceSetup, IoManager, MILLISECOND, SECOND};

    use super::*;
    use crate::config::{SsdConfig, SsdDesign};

    const PS: usize = 32;
    const FRAMES: u64 = 16;
    const HOT: PageId = PageId(7);
    const COLD: PageId = PageId(9);

    /// Brown the SSD out at 25x from `at` on and queue frame writes, as a
    /// workload's write-behind would, until the queue is deeper than μ
    /// through a disk read's worth of time after `at`. Returns when the
    /// queue has drained again.
    fn brown_out_past_mu(io: &IoManager, at: Time, mu: usize) -> Time {
        let plan = FaultConfig::brownout_train(9, at, u64::MAX, 0, 0, 25);
        io.set_ssd_fault(Some(Arc::new(FaultPlan::new(plan))));
        let mut drained = at;
        while !io.ssd_overloaded(at + 100 * MILLISECOND, mu) {
            drained = io
                .write_ssd_async(at, FRAMES - 1, &[0xEE; PS], PageId(1_000))
                .unwrap();
        }
        assert!(io.ssd_overloaded(at, mu));
        drained
    }

    /// Offer `pid` to the table at `clk` both ways a page enters one: read
    /// from disk (TAC admits it then) and evicted clean (CW/DW/LC admit it
    /// then); each design ignores the other.
    fn offer(m: &SsdManager, clk: &mut Clk, pid: PageId) {
        m.read_page(clk, pid, Locality::Random, &mut [0u8; PS])
            .unwrap();
        m.evict_page(clk.now, pid, &[0xD0; PS], false, Locality::Random);
    }

    /// Under a brownout a clean hit on `HOT` reads the disk and an
    /// admission of `COLD` is skipped, each counted by the throttle; once
    /// the queue drains the SSD serves `HOT` again. Both happen at `at`,
    /// the instant the queue passes μ.
    #[test]
    fn throttle_diverts_reads_and_admissions_under_a_brownout_on_both_tables() {
        use SsdDesign::{CleanWrite, DualWrite, LazyCleaning, Tac};
        for design in [CleanWrite, DualWrite, LazyCleaning, Tac] {
            let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 1024, FRAMES)));
            let m = SsdManager::new(SsdConfig::new(design, FRAMES), Arc::clone(&io));
            offer(&m, &mut Clk::new(), HOT);
            assert!(m.frame_of(HOT).is_some(), "{design:?}");
            let at = SECOND;
            let drained = brown_out_past_mu(&io, at, m.cfg.mu);
            let hit = |mut clk: Clk| {
                let before = io.ssd_stats().read_ops;
                m.read_page(&mut clk, HOT, Locality::Random, &mut [0u8; PS])
                    .unwrap();
                io.ssd_stats().read_ops > before
            };
            let m0 = m.metrics.snapshot();
            offer(&m, &mut Clk::at(at), COLD);
            assert!(
                m.frame_of(COLD).is_none(),
                "{design:?}: admitted to a browned-out SSD"
            );
            assert!(
                !hit(Clk::at(at)),
                "{design:?}: a clean hit reads a browned-out SSD"
            );
            let s = m.metrics.snapshot();
            assert_eq!(s.throttled_reads - m0.throttled_reads, 1, "{design:?}");
            assert!(
                s.throttled_admissions > m0.throttled_admissions,
                "{design:?}"
            );
            assert!(
                hit(Clk::at(drained)),
                "{design:?}: the drained SSD serves its hit again"
            );
            assert_eq!(m.metrics.snapshot().throttled_reads, s.throttled_reads);
        }
    }
}
