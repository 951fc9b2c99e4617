//! A single simulated storage device.
//!
//! # Timing model
//!
//! The device is a unit-rate server: every request consumes `service`
//! nanoseconds of device capacity. Capacity is tracked in a bucketed
//! *ledger* over virtual time: a request submitted at `now` consumes idle
//! capacity from `now` forward, completing once its full service amount is
//! accumulated. This is work-conserving and — crucially for a
//! discrete-event simulation whose clients execute whole transactions as
//! atomic steps — tolerant of out-of-order arrivals: when a client whose
//! clock lags submits a request, it uses capacity the device had idle at
//! that earlier time, rather than queueing behind requests that were
//! submitted (by wall-clock order) earlier but belong to a *later* virtual
//! time. Saturation behaves exactly like a FIFO queue: once a region of
//! time is fully booked, later requests spill forward, producing queueing
//! delay.

use crate::sync::Mutex;

use crate::clock::Time;
use crate::stats::DeviceStats;

/// Direction of an I/O request.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum IoKind {
    Read,
    Write,
}

/// Locality class of a page access.
///
/// The buffer manager classifies every page read as *sequential* (issued by
/// the read-ahead mechanism during a scan) or *random* (everything else);
/// the classification doubles as the SSD admission signal (paper §2.2).
/// Devices also auto-detect physical adjacency so that, absent a hint,
/// back-to-back adjacent requests get sequential service times.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum Locality {
    Random,
    Sequential,
}

/// Per-(kind, locality) service time of one page-sized transfer, in virtual
/// nanoseconds.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DeviceProfile {
    pub rand_read_ns: Time,
    pub seq_read_ns: Time,
    pub rand_write_ns: Time,
    pub seq_write_ns: Time,
}

impl DeviceProfile {
    /// Build a profile from sustained page-sized IOPS numbers, as reported
    /// by an Iometer-style calibration (Table 1 of the paper).
    pub fn from_iops(rand_read: f64, seq_read: f64, rand_write: f64, seq_write: f64) -> Self {
        let ns = |iops: f64| -> Time {
            assert!(iops > 0.0, "IOPS must be positive");
            (1e9 / iops).round() as Time
        };
        DeviceProfile {
            rand_read_ns: ns(rand_read),
            seq_read_ns: ns(seq_read),
            rand_write_ns: ns(rand_write),
            seq_write_ns: ns(seq_write),
        }
    }

    /// Service time of a single page transfer.
    #[inline]
    pub fn service_ns(&self, kind: IoKind, loc: Locality) -> Time {
        match (kind, loc) {
            (IoKind::Read, Locality::Random) => self.rand_read_ns,
            (IoKind::Read, Locality::Sequential) => self.seq_read_ns,
            (IoKind::Write, Locality::Random) => self.rand_write_ns,
            (IoKind::Write, Locality::Sequential) => self.seq_write_ns,
        }
    }

    /// Divide every throughput figure by `n`, modeling one member of an
    /// `n`-way array whose aggregate was calibrated as a whole.
    pub fn per_member_of(&self, n: u64) -> DeviceProfile {
        DeviceProfile {
            rand_read_ns: self.rand_read_ns * n,
            seq_read_ns: self.seq_read_ns * n,
            rand_write_ns: self.rand_write_ns * n,
            seq_write_ns: self.seq_write_ns * n,
        }
    }

    /// Multiply every service time by `k` — the benchmark harnesses slow
    /// all devices down by the same factor the database sizes were scaled
    /// down by, which leaves every rate *ratio* (and therefore hit rates,
    /// ramp-up shape and crossover points) identical to the unscaled system
    /// while dividing absolute throughput by `k`.
    pub fn time_scaled(&self, k: f64) -> DeviceProfile {
        assert!(k > 0.0);
        let s = |ns: Time| -> Time { ((ns as f64) * k).round().max(1.0) as Time };
        DeviceProfile {
            rand_read_ns: s(self.rand_read_ns),
            seq_read_ns: s(self.seq_read_ns),
            rand_write_ns: s(self.rand_write_ns),
            seq_write_ns: s(self.seq_write_ns),
        }
    }

    fn max_service(&self) -> Time {
        self.rand_read_ns
            .max(self.seq_read_ns)
            .max(self.rand_write_ns)
            .max(self.seq_write_ns)
    }
}

/// Completion information for a submitted request.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct IoTicket {
    /// When the device began servicing the request.
    pub start: Time,
    /// When the last byte transferred.
    pub complete: Time,
}

/// Work-conserving capacity ledger: tracks consumed service time per
/// fixed-width bucket of virtual time.
#[derive(Debug)]
struct Ledger {
    bucket_ns: Time,
    /// Used service time per bucket, starting at bucket `base`.
    used: Vec<Time>,
    base: u64,
}

impl Ledger {
    fn new(bucket_ns: Time) -> Self {
        Ledger {
            bucket_ns: bucket_ns.max(1),
            used: Vec::new(),
            base: 0,
        }
    }

    /// Consume `service` ns of capacity in the buckets from `now`'s bucket
    /// forward; returns the completion time (never earlier than
    /// `now + service`). Capacity is tracked at bucket granularity, so
    /// ordering within one bucket is approximate but total work is
    /// conserved exactly.
    fn schedule(&mut self, now: Time, service: Time) -> Time {
        debug_assert!(service > 0);
        let mut b = (now / self.bucket_ns).max(self.base);
        let mut remaining = service;
        #[allow(unused_assignments)]
        let mut end = 0;
        loop {
            let idx = (b - self.base) as usize;
            if idx >= self.used.len() {
                self.used.resize(idx + 1, 0);
            }
            let free = self.bucket_ns - self.used[idx];
            let take = free.min(remaining);
            if take > 0 {
                self.used[idx] += take;
                remaining -= take;
                end = b * self.bucket_ns + self.used[idx];
                if remaining == 0 {
                    break;
                }
            }
            b += 1;
        }
        end.max(now + service)
    }

    /// Free capacity within `[from, from + window)`.
    fn free_in_window(&self, from: Time, window: Time) -> Time {
        let mut free = 0;
        let first = (from / self.bucket_ns).max(self.base);
        let last = ((from + window).div_ceil(self.bucket_ns)).max(self.base);
        for b in first..last {
            let idx = (b - self.base) as usize;
            let used = self.used.get(idx).copied().unwrap_or(0);
            // Clip the bucket to the window (approximately: bucket
            // granularity matches the rest of the ledger).
            let b_start = b * self.bucket_ns;
            let b_end = b_start + self.bucket_ns;
            let clip = b_end.min(from + window).saturating_sub(b_start.max(from));
            free += clip.saturating_sub(used.min(clip));
        }
        free
    }

    /// End of the last booked bucket (device horizon).
    fn horizon(&self) -> Time {
        match self.used.iter().rposition(|&u| u > 0) {
            Some(i) => {
                let b = self.base + i as u64;
                b * self.bucket_ns + self.used[i]
            }
            None => 0,
        }
    }
}

struct DeviceState {
    ledger: Ledger,
    /// The LBA a perfectly sequential successor request would start at.
    expected_lba: u64,
    /// Whether `expected_lba` is meaningful (false before the first
    /// request).
    primed: bool,
}

/// One simulated device: a unit-rate server with a bucketed capacity
/// ledger (see the module docs for the queueing model).
pub struct SimDevice {
    name: String,
    profile: DeviceProfile,
    state: Mutex<DeviceState>,
    stats: DeviceStats,
}

impl SimDevice {
    pub fn new(name: impl Into<String>, profile: DeviceProfile) -> Self {
        // Bucket width: a few max-service quanta — fine enough that
        // within-bucket ordering doesn't matter, coarse enough to stay
        // tiny for multi-hour runs.
        let bucket = profile
            .max_service()
            .saturating_mul(4)
            .clamp(1, crate::clock::SECOND * 4);
        SimDevice {
            name: name.into(),
            profile,
            state: Mutex::new(DeviceState {
                ledger: Ledger::new(bucket),
                expected_lba: 0,
                primed: false,
            }),
            stats: DeviceStats::new(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Submit a request for `npages` page-sized transfers starting at
    /// device-local address `lba`.
    ///
    /// The first page is serviced at random or sequential cost according to
    /// `hint`, falling back to physical-adjacency detection when no hint is
    /// given; pages after the first within one request always transfer at
    /// the sequential rate (the device streams them).
    pub fn submit(
        &self,
        now: Time,
        kind: IoKind,
        lba: u64,
        npages: u64,
        hint: Option<Locality>,
    ) -> IoTicket {
        self.submit_scaled(now, kind, lba, npages, hint, 1)
    }

    /// [`Self::submit`] with the service time multiplied by `scale` — the
    /// brownout (fail-slow) injection point. The scaled service books
    /// real ledger capacity, so a browned-out device also queues later
    /// requests behind the stall, exactly like a device in a GC pause.
    pub fn submit_scaled(
        &self,
        now: Time,
        kind: IoKind,
        lba: u64,
        npages: u64,
        hint: Option<Locality>,
        scale: u32,
    ) -> IoTicket {
        assert!(npages > 0, "empty I/O request");
        let mut st = self.state.lock();
        let adjacent = st.primed && lba == st.expected_lba;
        let first_loc = hint.unwrap_or(if adjacent {
            Locality::Sequential
        } else {
            Locality::Random
        });
        let service = (self.profile.service_ns(kind, first_loc)
            + (npages - 1) * self.profile.service_ns(kind, Locality::Sequential))
            * Time::from(scale.max(1));
        st.expected_lba = lba + npages;
        st.primed = true;
        self.finish(&mut st, now, kind, service, npages)
    }

    /// Submit a request with an explicitly computed service duration,
    /// bypassing the per-page cost model. Used for byte-granular log
    /// appends, where group commit lets many small records share one
    /// device write — charging full pages per commit would fabricate a
    /// log bottleneck that real group-committing engines do not have.
    pub fn submit_duration(
        &self,
        now: Time,
        kind: IoKind,
        service_ns: Time,
        stat_pages: u64,
    ) -> IoTicket {
        let mut st = self.state.lock();
        st.primed = false; // duration-based I/O carries no locality state
        self.finish(&mut st, now, kind, service_ns.max(1), stat_pages)
    }

    /// Book `service` at `now`.
    fn finish(
        &self,
        st: &mut DeviceState,
        now: Time,
        kind: IoKind,
        service: Time,
        stat_pages: u64,
    ) -> IoTicket {
        let complete = st.ledger.schedule(now, service);
        let start = complete.saturating_sub(service).max(now);
        self.stats.record(kind, stat_pages, complete, service);
        IoTicket { start, complete }
    }

    /// End of the last busy period currently booked (for tests).
    pub fn busy_until(&self) -> Time {
        self.state.lock().ledger.horizon()
    }

    /// Forget all timing state (capacity bookings, sequential-detection
    /// position) while keeping statistics. Models a machine restart:
    /// virtual time starts over with idle devices.
    pub fn reset_time(&self) {
        let mut st = self.state.lock();
        let bucket = st.ledger.bucket_ns;
        st.ledger = Ledger::new(bucket);
        st.primed = false;
    }

    /// Throttle-control predicate (§3.3.2): is the device, *around virtual
    /// time `now`*, so loaded that more than `limit` requests would be
    /// pending? Measured as booked capacity over the window the next
    /// `limit` average requests would occupy — a virtual-time-consistent
    /// stand-in for an outstanding-I/O count, which is ill-defined when
    /// observers' clocks differ (see the module docs).
    pub fn overloaded(&self, now: Time, limit: usize) -> bool {
        let avg = (self.profile.rand_read_ns + self.profile.rand_write_ns) / 2;
        // Cap the window: a huge `limit` means "throttle off", and an
        // unbounded window would both overflow and scan the whole ledger.
        let window = avg
            .saturating_mul(limit as Time)
            .clamp(1, 4 * crate::clock::HOUR);
        let st = self.state.lock();
        let free = st.ledger.free_in_window(now, window);
        free < window / 20
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> SimDevice {
        // 1000 rand IOPS (1 ms), 10_000 seq IOPS (100 us), writes the same.
        SimDevice::new(
            "t",
            DeviceProfile::from_iops(1_000.0, 10_000.0, 1_000.0, 10_000.0),
        )
    }

    #[test]
    fn scaled_submit_books_scaled_capacity() {
        let d = dev();
        let t1 = d.submit(0, IoKind::Read, 0, 1, Some(Locality::Random));
        assert_eq!(t1.complete - t1.start, 1_000_000);
        let d = dev();
        let t10 = d.submit_scaled(0, IoKind::Read, 0, 1, Some(Locality::Random), 10);
        assert_eq!(t10.complete - t10.start, 10_000_000);
        // The stall consumes real capacity: the next request queues
        // behind it rather than overlapping.
        let next = d.submit(0, IoKind::Read, 99, 1, Some(Locality::Random));
        assert!(next.complete >= t10.complete + 1_000_000);
        // Scale 1 (and the saturating 0 case) are the identity.
        let d = dev();
        let a = d.submit_scaled(0, IoKind::Read, 0, 1, Some(Locality::Random), 0);
        assert_eq!(a.complete - a.start, 1_000_000);
    }

    #[test]
    fn profile_from_iops() {
        let p = DeviceProfile::from_iops(1_000.0, 10_000.0, 500.0, 2_000.0);
        assert_eq!(p.rand_read_ns, 1_000_000);
        assert_eq!(p.seq_read_ns, 100_000);
        assert_eq!(p.rand_write_ns, 2_000_000);
        assert_eq!(p.seq_write_ns, 500_000);
    }

    #[test]
    fn random_then_adjacent_is_sequential() {
        let d = dev();
        let t1 = d.submit(0, IoKind::Read, 100, 1, None);
        assert_eq!(t1.complete, 1_000_000); // random
        let t2 = d.submit(t1.complete, IoKind::Read, 101, 1, None);
        assert_eq!(t2.complete - t1.complete, 100_000); // auto-sequential
        let t3 = d.submit(t2.complete, IoKind::Read, 500, 1, None);
        assert_eq!(t3.complete - t2.complete, 1_000_000); // jump -> random
    }

    #[test]
    fn hint_overrides_detection() {
        let d = dev();
        let t = d.submit(0, IoKind::Read, 7, 1, Some(Locality::Sequential));
        assert_eq!(t.complete, 100_000);
    }

    #[test]
    fn multi_page_request_streams_after_first() {
        let d = dev();
        let t = d.submit(0, IoKind::Read, 0, 8, Some(Locality::Random));
        // 1 random + 7 sequential pages.
        assert_eq!(t.complete, 1_000_000 + 7 * 100_000);
    }

    #[test]
    fn same_time_arrivals_serialize() {
        let d = dev();
        let a = d.submit(0, IoKind::Read, 10, 1, Some(Locality::Random));
        let b = d.submit(0, IoKind::Read, 999, 1, Some(Locality::Random));
        assert_eq!(a.complete, 1_000_000);
        assert_eq!(b.start, a.complete);
        assert_eq!(b.complete, 2_000_000);
    }

    #[test]
    fn lagging_clients_use_idle_capacity() {
        // A request from a client whose clock lags must not queue behind
        // capacity booked far in its future.
        let d = dev();
        let far = d.submit(10_000_000, IoKind::Read, 0, 1, Some(Locality::Random));
        assert_eq!(far.complete, 11_000_000);
        let early = d.submit(0, IoKind::Read, 50, 1, Some(Locality::Random));
        assert_eq!(
            early.complete, 1_000_000,
            "idle capacity before the future booking must be used"
        );
    }

    #[test]
    fn saturation_spills_forward() {
        let d = dev();
        // Book 10 requests at t=0: they serialize across 10 ms.
        let mut last = 0;
        for i in 0..10 {
            let t = d.submit(0, IoKind::Read, i * 37, 1, Some(Locality::Random));
            assert_eq!(t.complete, (i as Time + 1) * 1_000_000);
            last = t.complete;
        }
        assert_eq!(last, 10_000_000);
        assert_eq!(d.busy_until(), 10_000_000);
    }

    #[test]
    fn idle_device_serves_immediately() {
        let d = dev();
        let t = d.submit(5_000_000, IoKind::Read, 0, 1, None);
        assert_eq!(t.complete, 6_000_000);
        assert!(t.start >= 5_000_000);
    }

    #[test]
    fn sustained_throughput_matches_profile() {
        // Closed-loop client: arrival at previous completion. Over many
        // requests, throughput must equal the calibrated IOPS.
        let d = dev();
        let mut now = 0;
        let n = 5_000u64;
        for i in 0..n {
            now = d
                .submit(now, IoKind::Read, i * 13 % 9_999, 1, Some(Locality::Random))
                .complete;
        }
        let iops = n as f64 / (now as f64 / 1e9);
        assert!((iops - 1_000.0).abs() < 10.0, "iops {iops}");
    }

    #[test]
    fn ledger_completion_never_beats_service_time() {
        // A request arriving mid-bucket still takes its full service time
        // even when the bucket has nominal capacity left.
        let mut l = Ledger::new(1_000);
        let c = l.schedule(500, 1_000);
        assert_eq!(c, 1_500);
        // Bucket 0 is fully booked now; an early arrival spills to the
        // next bucket (bucket-granular ordering).
        let c2 = l.schedule(0, 400);
        assert_eq!(c2, 1_400);
    }

    #[test]
    fn ledger_work_conservation() {
        let mut l = Ledger::new(100);
        // Fill 10 buckets exactly.
        let c = l.schedule(0, 1_000);
        assert_eq!(c, 1_000);
        // Next unit lands right after.
        assert_eq!(l.schedule(0, 50), 1_050);
        assert_eq!(l.horizon(), 1_050);
    }
}
