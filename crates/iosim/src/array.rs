//! A striped disk array: the paper's eight-HDD file group.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::clock::Time;
use crate::device::{drain_completed, DeviceProfile, IoKind, IoTicket, Locality, SimDevice};
use crate::page::PageId;
use crate::stats::StatSnapshot;
use crate::sync::Mutex;

/// Pages per stripe unit: 8 pages = 64 KB with 8 KB pages, a typical
/// file-group stripe size. A whole stripe lives on one disk, so a small
/// multi-page read hits one spindle (one seek), while a long scan streams
/// from every spindle in 64 KB chunks.
pub const STRIPE_PAGES: u64 = 8;

/// A striped array of identical [`SimDevice`]s with 64 KB stripe units.
///
/// Consecutive stripes land on consecutive disks; consecutive stripes on
/// the *same* disk are physically adjacent, so an uninterrupted scan
/// auto-detects as sequential on every member — the layout that makes "a
/// small number of striped disks" beat an SSD on sequential reads (paper
/// §1). Interleaved scan streams break that adjacency and pay seeks, which
/// is exactly the multi-stream interference the paper's TPC-H throughput
/// test exposes.
pub struct StripedArray {
    disks: Vec<SimDevice>,
    stripe_pages: u64,
    /// Completion times of the members' outstanding requests, one per
    /// member span: the array's queue depth, under one lock rather than
    /// one per member.
    outstanding: Mutex<BinaryHeap<Reverse<Time>>>,
}

impl StripedArray {
    /// Build an array of `n` disks from the *aggregate* profile of the whole
    /// group (each member gets `1/n` of the aggregate throughput).
    pub fn from_aggregate(name: &str, aggregate: DeviceProfile, n: u64) -> Self {
        assert!(n > 0);
        let per_disk = aggregate.per_member_of(n);
        let disks = (0..n)
            .map(|i| SimDevice::new(format!("{name}[{i}]"), per_disk))
            .collect();
        StripedArray {
            disks,
            stripe_pages: STRIPE_PAGES,
            outstanding: Mutex::new(BinaryHeap::new()),
        }
    }

    /// Number of member disks.
    pub fn num_disks(&self) -> usize {
        self.disks.len()
    }

    /// Which member and disk-local address a page maps to.
    #[inline]
    pub fn locate(&self, page: PageId) -> (usize, u64) {
        let n = self.disks.len() as u64;
        let sp = self.stripe_pages;
        let stripe = page.0 / sp;
        let disk = (stripe % n) as usize;
        let lba = (stripe / n) * sp + page.0 % sp;
        (disk, lba)
    }

    /// Submit a single-page request.
    pub fn submit_page(
        &self,
        now: Time,
        kind: IoKind,
        page: PageId,
        hint: Option<Locality>,
    ) -> IoTicket {
        self.submit_run_scaled(now, kind, page, 1, hint, 1).0
    }

    /// Submit a multi-page request for the consecutive run
    /// `first .. first + npages`.
    ///
    /// The run is split at stripe boundaries into per-disk spans of
    /// consecutive disk-local addresses; members transfer in parallel and
    /// the ticket completes when the slowest member does — this is what
    /// makes one large I/O cheaper than several small ones (paper §3.3.3).
    /// With `hint = None` each span's first page is costed by physical
    /// adjacency, so back-to-back runs of one scan stream as sequential
    /// while interleaved streams pay seeks.
    pub fn submit_run(
        &self,
        now: Time,
        kind: IoKind,
        first: PageId,
        npages: u64,
        hint: Option<Locality>,
    ) -> IoTicket {
        self.submit_run_scaled(now, kind, first, npages, hint, 1).0
    }

    /// [`Self::submit_run`] with a brownout service-time multiplier
    /// applied to every member span of the run (a single page is a run of
    /// one). Also returns the array's queue depth the run found:
    /// [`Self::queue_depth`] at `now`, sampled just before the booking.
    pub fn submit_run_scaled(
        &self,
        now: Time,
        kind: IoKind,
        first: PageId,
        npages: u64,
        hint: Option<Locality>,
        scale: u32,
    ) -> (IoTicket, usize) {
        assert!(npages > 0);
        let sp = self.stripe_pages;
        let mut outstanding = self.outstanding.lock();
        let depth = drain_completed(&mut outstanding, now);
        let mut ticket: Option<IoTicket> = None;
        let mut i = 0u64;
        while i < npages {
            let pid = PageId(first.0 + i);
            let (disk, lba) = self.locate(pid);
            let span = (sp - pid.0 % sp).min(npages - i);
            let t = self.disks[disk].submit_scaled(now, kind, lba, span, hint, scale);
            outstanding.push(Reverse(t.complete));
            ticket = Some(match ticket {
                None => t,
                Some(prev) => IoTicket {
                    start: prev.start.min(t.start),
                    complete: prev.complete.max(t.complete),
                },
            });
            i += span;
        }
        (ticket.expect("npages > 0"), depth)
    }

    /// Total outstanding requests across all members at `now`. Every
    /// submission drains the requests completed by its own `now`, which is
    /// what sampling every member before each submission did.
    pub fn queue_depth(&self, now: Time) -> usize {
        drain_completed(&mut self.outstanding.lock(), now)
    }

    /// Aggregate statistics across members.
    pub fn stats_snapshot(&self) -> StatSnapshot {
        let mut agg = StatSnapshot::default();
        for d in &self.disks {
            let s = d.stats().snapshot();
            agg.read_ops += s.read_ops;
            agg.read_pages += s.read_pages;
            agg.read_busy_ns += s.read_busy_ns;
            agg.write_ops += s.write_ops;
            agg.write_pages += s.write_pages;
            agg.write_busy_ns += s.write_busy_ns;
        }
        agg
    }

    /// Enable the per-member traffic time series (Figure 8 support).
    pub fn enable_series(&self, bucket_ns: Time) {
        for d in &self.disks {
            d.stats().enable_series(bucket_ns);
        }
    }

    /// Merged traffic series across members: `(bucket_start, read_pages,
    /// write_pages)`.
    pub fn series(&self) -> Vec<(Time, u64, u64)> {
        let mut merged: Vec<(Time, u64, u64)> = Vec::new();
        for d in &self.disks {
            for (i, (t, r, w)) in d.stats().series().into_iter().enumerate() {
                if merged.len() <= i {
                    merged.push((t, 0, 0));
                }
                merged[i].1 += r;
                merged[i].2 += w;
            }
        }
        merged
    }

    /// Reset timing state on all members (restart modeling).
    pub fn reset_time(&self) {
        for d in &self.disks {
            d.reset_time();
        }
        self.outstanding.lock().clear();
    }

    /// Reset statistics on all members.
    pub fn reset_stats(&self) {
        for d in &self.disks {
            d.stats().reset();
        }
    }

    /// Access a member device (tests, calibration harness).
    pub fn disk(&self, i: usize) -> &SimDevice {
        &self.disks[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SECOND;
    use crate::profiles::hdd_array_profile;

    fn array() -> StripedArray {
        StripedArray::from_aggregate("hdd", hdd_array_profile(), 8)
    }

    #[test]
    fn locate_stripes_in_64kb_units() {
        let a = array();
        // Pages 0..8 (stripe 0) on disk 0; 8..16 (stripe 1) on disk 1.
        assert_eq!(a.locate(PageId(0)), (0, 0));
        assert_eq!(a.locate(PageId(7)), (0, 7));
        assert_eq!(a.locate(PageId(8)), (1, 0));
        assert_eq!(a.locate(PageId(63)), (7, 7));
        // Stripe 8 wraps back to disk 0, adjacent to stripe 0's LBAs.
        assert_eq!(a.locate(PageId(64)), (0, 8));
    }

    #[test]
    fn sequential_run_hits_aggregate_rate() {
        // Stream a big sequential run; throughput should approach the
        // aggregate 26,370 seq-read IOPS of Table 1.
        let a = array();
        let pages = 26_370u64;
        let t = a.submit_run(
            0,
            IoKind::Read,
            PageId(0),
            pages,
            Some(Locality::Sequential),
        );
        let secs = t.complete as f64 / SECOND as f64;
        let iops = pages as f64 / secs;
        assert!((iops - 26_370.0).abs() / 26_370.0 < 0.02, "iops {iops}");
    }

    #[test]
    fn concurrent_random_reads_hit_aggregate_rate() {
        // 8 independent random streams (one per disk) should sustain the
        // aggregate 1,015 random-read IOPS.
        let a = array();
        let mut completes = [0u64; 8];
        let per_stream = 200u64;
        for i in 0..per_stream {
            for d in 0..8u64 {
                // Page ids chosen so stream d always hits disk d, randomly:
                // stripe ≡ d (mod 8).
                let stripe = d + 8 * (i * 7919 % 10_000);
                let pid = PageId(stripe * 8 + i % 8);
                let t = a.submit_page(
                    completes[d as usize],
                    IoKind::Read,
                    pid,
                    Some(Locality::Random),
                );
                completes[d as usize] = t.complete;
            }
        }
        let total_pages = 8 * per_stream;
        let end = completes.iter().copied().max().unwrap();
        let iops = total_pages as f64 / (end as f64 / SECOND as f64);
        assert!((iops - 1_015.0).abs() / 1_015.0 < 0.02, "iops {iops}");
    }

    #[test]
    fn run_splits_at_stripe_boundaries() {
        let a = array();
        // A 16-page run = 2 stripes on 2 disks.
        a.submit_run(0, IoKind::Read, PageId(0), 16, Some(Locality::Sequential));
        let s = a.stats_snapshot();
        assert_eq!(s.read_ops, 2);
        assert_eq!(s.read_pages, 16);
        assert_eq!(a.disk(0).stats().snapshot().read_pages, 8);
        assert_eq!(a.disk(1).stats().snapshot().read_pages, 8);
    }

    #[test]
    fn small_unaligned_run_touches_at_most_two_disks() {
        let a = array();
        a.submit_run(0, IoKind::Read, PageId(6), 3, None); // stripe 0 + 1
        let s = a.stats_snapshot();
        assert_eq!(s.read_ops, 2);
        assert_eq!(s.read_pages, 3);
        assert_eq!(a.disk(0).stats().snapshot().read_pages, 2);
        assert_eq!(a.disk(1).stats().snapshot().read_pages, 1);
        assert_eq!(a.disk(2).stats().snapshot().read_pages, 0);
    }

    #[test]
    fn uninterrupted_scan_auto_detects_sequential() {
        // Two back-to-back 64-page runs with NO hint: after the first
        // seeks, every span continues at its disk's expected LBA.
        let a = array();
        a.submit_run(0, IoKind::Read, PageId(0), 64, None);
        let b0 = a.stats_snapshot().read_busy_ns;
        a.submit_run(0, IoKind::Read, PageId(64), 64, None);
        let b1 = a.stats_snapshot().read_busy_ns - b0;
        // The second batch is all-sequential: much cheaper than the first
        // (which paid one random positioning per disk).
        assert!(b1 * 2 < b0, "first {b0} second {b1}");
    }

    #[test]
    fn array_depth_equals_the_sum_of_member_depths() {
        // A seeded schedule of page and run submissions, clocks out of
        // order, on twin arrays: the array-level record on one, on the
        // other every member sampled before each submission — the old
        // sample.
        use crate::rng::{Rng, SeedableRng, SmallRng};
        let member_sum = |a: &StripedArray, now: Time| -> usize {
            (0..a.num_disks()).map(|i| a.disk(i).queue_depth(now)).sum()
        };
        let (fused, members) = (array(), array());
        let mut rng = SmallRng::seed_from_u64(11);
        let mut base: Time = 0;
        for step in 0..4_000 {
            base += rng.gen_range(0..2_000_000u64);
            let now = base.saturating_sub(rng.gen_range(0..20_000_000u64));
            let kind = if rng.gen_ratio(1, 3) {
                IoKind::Write
            } else {
                IoKind::Read
            };
            let first = PageId(rng.gen_range(0..4_096u64));
            let n = if rng.gen_ratio(1, 2) {
                1
            } else {
                rng.gen_range(2..48u64)
            };
            let scale = [1, 1, 3][rng.gen_range(0..3usize)];
            let depth = member_sum(&members, now);
            let (ticket, _) = members.submit_run_scaled(now, kind, first, n, None, scale);
            assert_eq!(
                fused.submit_run_scaled(now, kind, first, n, None, scale),
                (ticket, depth),
                "step {step}"
            );
            if rng.gen_ratio(1, 5) {
                let at = base.saturating_sub(rng.gen_range(0..20_000_000u64));
                assert_eq!(
                    fused.queue_depth(at),
                    member_sum(&members, at),
                    "step {step}"
                );
            }
        }
        assert!(
            fused.queue_depth(base) > 0,
            "the schedule kept the array busy"
        );
    }

    #[test]
    fn merged_series_accumulates_members() {
        let a = array();
        a.enable_series(SECOND);
        a.submit_run(0, IoKind::Write, PageId(0), 64, Some(Locality::Sequential));
        let series = a.series();
        let total: u64 = series.iter().map(|(_, _, w)| *w).sum();
        assert_eq!(total, 64);
    }
}
