//! The discrete-event driver: deterministic multiplexing of logical
//! clients over virtual time.
//!
//! Each client owns a virtual clock; the driver always runs the client
//! with the smallest clock, so device queueing and cross-client
//! interference play out exactly as they would with truly concurrent
//! streams — deterministically. One `step` is one atomic unit of work
//! (one transaction, one query, one cleaner batch, one checkpoint).
//!
//! # Parallel execution (DESIGN.md §9)
//!
//! [`Driver::run_until_parallel`] is a conservative time-windowed
//! parallel variant. Clients are partitioned into **domains** (see
//! [`Driver::add_in_domain`]); each window `[t_min, t_min + lookahead)`
//! pops every client scheduled inside it, groups them by domain, and
//! steps each domain group on the scoped worker pool
//! ([`crate::pool`]). Within a group, steps execute in exactly the
//! sequential earliest-clock-first `(time, client_id)` order, and the
//! surviving clients' re-arrivals are merged back into the global queue
//! under the deterministic `(virtual_time, client_id, seq)` sort key —
//! so per-domain state evolves bit-identically to a sequential run.
//!
//! The determinism contract: domains must be **share-nothing** — a
//! domain's clients may only mutate state (Database, devices, pools)
//! owned by that domain. State shared *across* domains must be
//! commutative (atomic counters, [`ThroughputRecorder`] buckets), so
//! that cross-domain interleaving cannot change any observable result.
//! The sequential driver trivially satisfies the same contract, which
//! is what makes `run_until_parallel` bit-identical to `run_until`.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use turbopool_core::cleaner::{CleanerStep, LazyCleaner};
use turbopool_engine::Database;
use turbopool_iosim::sync::{Mutex, Rank};
use turbopool_iosim::{clock, Clk, Time};

/// Outcome of one client step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// Reschedule the client at its new clock.
    Continue,
    /// The client is finished; remove it.
    Done,
}

/// A logical client of the simulation.
pub trait Client: Send {
    /// Run one unit of work, advancing `clk` through any synchronous waits.
    fn step(&mut self, clk: &mut Clk) -> StepResult;
}

pub(crate) struct Slot {
    pub(crate) clk: Clk,
    pub(crate) client: Box<dyn Client>,
    /// Share-nothing partition this client belongs to (see module docs).
    pub(crate) domain: usize,
}

/// A client re-entering the global queue after a parallel window, keyed
/// for the deterministic merge: `(virtual_time, client_id, seq)`.
pub(crate) struct Arrival {
    pub(crate) time: Time,
    pub(crate) id: usize,
    /// Per-domain emission order within the window — a deterministic
    /// tie-breaker derived purely from the domain's own execution.
    pub(crate) seq: u64,
    pub(crate) slot: Slot,
}

/// Result of running one domain group through a window.
pub(crate) struct WindowOutcome {
    pub(crate) arrivals: Vec<Arrival>,
    pub(crate) steps: u64,
}

/// Step one domain's clients through `[.., window_end)` in exact
/// earliest-clock-first order — the same order the sequential driver
/// would use restricted to this domain. Pure function of its inputs:
/// runs identically on any worker thread.
pub(crate) fn run_group(entries: Vec<(Time, usize, Slot)>, window_end: Time) -> WindowOutcome {
    let mut heap: BinaryHeap<Reverse<(Time, usize)>> = BinaryHeap::new();
    let mut slots: BTreeMap<usize, Slot> = BTreeMap::new();
    for (t, id, slot) in entries {
        heap.push(Reverse((t, id)));
        slots.insert(id, slot);
    }
    let mut steps = 0u64;
    while let Some(&Reverse((t, id))) = heap.peek() {
        if t >= window_end {
            break;
        }
        heap.pop();
        let slot = slots.get_mut(&id).expect("scheduled client has a slot");
        debug_assert_eq!(slot.clk.now, t);
        steps += 1;
        match slot.client.step(&mut slot.clk) {
            StepResult::Continue => {
                // Guarantee progress even for zero-cost steps.
                if slot.clk.now <= t {
                    slot.clk.now = t + 1;
                }
                heap.push(Reverse((slot.clk.now, id)));
            }
            StepResult::Done => {
                slots.remove(&id);
            }
        }
    }
    // Everything still scheduled leaves the window as an arrival, in
    // deterministic (time, id) order.
    let mut rest: Vec<(Time, usize)> = heap.into_iter().map(|Reverse(p)| p).collect();
    rest.sort_unstable();
    let arrivals = rest
        .into_iter()
        .enumerate()
        .map(|(seq, (time, id))| Arrival {
            time,
            id,
            seq: seq as u64,
            slot: slots.remove(&id).expect("scheduled client has a slot"),
        })
        .collect();
    WindowOutcome { arrivals, steps }
}

/// Earliest-clock-first scheduler.
pub struct Driver {
    slots: Vec<Option<Slot>>,
    queue: BinaryHeap<Reverse<(Time, usize)>>,
    steps: u64,
    /// Parallel window width. `Time::MAX` (the default) means "one
    /// window": valid whenever domains are share-nothing, which the
    /// contract already requires. Benches narrow it via
    /// [`Driver::set_lookahead`] to bound how far domains drift apart.
    lookahead: Time,
}

impl Default for Driver {
    fn default() -> Self {
        Driver {
            slots: Vec::new(),
            queue: BinaryHeap::new(),
            steps: 0,
            lookahead: Time::MAX,
        }
    }
}

impl Driver {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a client whose clock starts at `start`, in domain 0.
    pub fn add(&mut self, start: Time, client: Box<dyn Client>) -> usize {
        self.add_in_domain(0, start, client)
    }

    /// Register a client in a share-nothing `domain`. Clients in the
    /// same domain are always stepped in sequential order relative to
    /// each other; clients in different domains may be stepped on
    /// different worker threads by [`Driver::run_until_parallel`].
    pub fn add_in_domain(&mut self, domain: usize, start: Time, client: Box<dyn Client>) -> usize {
        let id = self.slots.len();
        self.slots.push(Some(Slot {
            clk: Clk::at(start),
            client,
            domain,
        }));
        self.queue.push(Reverse((start, id)));
        id
    }

    /// Narrow the parallel window to `ns` of virtual time (clamped to at
    /// least 1 ns). A natural conservative choice is the minimum device
    /// service time (`DeviceSetup::min_service_ns`) times a batching
    /// factor; smaller windows synchronize domains more often.
    pub fn set_lookahead(&mut self, ns: Time) {
        self.lookahead = ns.max(1);
    }

    /// Run until every runnable client's clock reaches `end` (or every
    /// client is done). Steps that begin before `end` run to completion
    /// and may overshoot it, like real in-flight work at a deadline.
    pub fn run_until(&mut self, end: Time) {
        while let Some(&Reverse((t, id))) = self.queue.peek() {
            if t >= end {
                break;
            }
            self.queue.pop();
            let slot = self.slots[id]
                .as_mut()
                .expect("scheduled client has a slot");
            debug_assert_eq!(slot.clk.now, t);
            self.steps += 1;
            match slot.client.step(&mut slot.clk) {
                StepResult::Continue => {
                    // Guarantee progress even for zero-cost steps.
                    if slot.clk.now <= t {
                        slot.clk.now = t + 1;
                    }
                    self.queue.push(Reverse((slot.clk.now, id)));
                }
                StepResult::Done => {
                    self.slots[id] = None;
                }
            }
        }
    }

    /// Time-windowed parallel variant of [`Driver::run_until`],
    /// bit-identical to it under the share-nothing domain contract (see
    /// module docs). Each iteration takes the window
    /// `[t_min, t_min + lookahead)`, steps each domain's ready clients
    /// as an independent group (on up to `threads` OS threads), then
    /// merges the survivors back under the `(time, client_id, seq)` key.
    pub fn run_until_parallel(&mut self, end: Time, threads: usize) {
        let threads = threads.max(1);
        loop {
            let t_min = match self.queue.peek() {
                Some(&Reverse((t, _))) => t,
                None => break,
            };
            if t_min >= end {
                break;
            }
            let window_end = end.min(t_min.saturating_add(self.lookahead));
            // Pop every client scheduled inside the window, grouped by
            // domain. Heap pops come out in (time, id) order, so each
            // group's entry list is already sorted.
            let mut groups: BTreeMap<usize, Vec<(Time, usize, Slot)>> = BTreeMap::new();
            while let Some(&Reverse((t, id))) = self.queue.peek() {
                if t >= window_end {
                    break;
                }
                self.queue.pop();
                let slot = self.slots[id].take().expect("scheduled client has a slot");
                groups.entry(slot.domain).or_default().push((t, id, slot));
            }
            let groups: Vec<Vec<(Time, usize, Slot)>> = groups.into_values().collect();
            let outcomes = if threads == 1 || groups.len() == 1 {
                groups
                    .into_iter()
                    .map(|g| run_group(g, window_end))
                    .collect()
            } else {
                crate::pool::run_groups(groups, window_end, threads)
            };
            let mut arrivals: Vec<Arrival> = Vec::new();
            for outcome in outcomes {
                self.steps += outcome.steps;
                arrivals.extend(outcome.arrivals);
            }
            // Deterministic merge: independent of which thread finished
            // first, the global queue is rebuilt in the same order.
            arrivals.sort_by_key(|a| (a.time, a.id, a.seq));
            for a in arrivals {
                self.slots[a.id] = Some(a.slot);
                self.queue.push(Reverse((a.time, a.id)));
            }
        }
    }

    /// Run until no runnable clients remain.
    pub fn run_to_completion(&mut self) {
        self.run_until(Time::MAX);
    }

    /// Parallel [`Driver::run_to_completion`].
    pub fn run_parallel(&mut self, threads: usize) {
        self.run_until_parallel(Time::MAX, threads);
    }

    /// Number of clients still scheduled.
    pub fn runnable(&self) -> usize {
        self.queue.len()
    }

    /// Total client steps executed so far (sequential + parallel).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The scheduled clients' `(client_id, virtual_clock)` pairs, sorted
    /// by id — the determinism tests compare these across thread counts.
    pub fn clocks(&self) -> Vec<(usize, Time)> {
        let mut v: Vec<(usize, Time)> =
            self.queue.iter().map(|&Reverse((t, id))| (id, t)).collect();
        v.sort_unstable();
        v
    }
}

/// Time-bucketed event counter: the tpmC / tpsE series of Figures 6, 7
/// and 9.
pub struct ThroughputRecorder {
    bucket_ns: Time,
    counts: Mutex<Vec<u64>>,
    total: AtomicU64,
}

impl ThroughputRecorder {
    /// The paper plots six-minute buckets.
    pub fn new(bucket_ns: Time) -> Arc<Self> {
        assert!(bucket_ns > 0);
        Arc::new(ThroughputRecorder {
            bucket_ns,
            counts: Mutex::ranked(Rank::ThroughputCounts, Vec::new()),
            total: AtomicU64::new(0),
        })
    }

    /// Record one completed unit (e.g. one NewOrder commit) at `now`.
    pub fn record(&self, now: Time) {
        let idx = (now / self.bucket_ns) as usize;
        let mut c = self.counts.lock();
        if c.len() <= idx {
            c.resize(idx + 1, 0);
        }
        c[idx] += 1;
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Events with `t0 <= time < t1`, pro-rating partial buckets.
    pub fn count_between(&self, t0: Time, t1: Time) -> f64 {
        let c = self.counts.lock();
        let mut sum = 0.0;
        for (i, &n) in c.iter().enumerate() {
            let b0 = i as Time * self.bucket_ns;
            let b1 = b0 + self.bucket_ns;
            let lo = b0.max(t0);
            let hi = b1.min(t1);
            if hi > lo {
                sum += n as f64 * (hi - lo) as f64 / self.bucket_ns as f64;
            }
        }
        sum
    }

    /// Average event rate per `per` nanoseconds over `[t0, t1)` — e.g.
    /// `per = MINUTE` yields tpmC.
    pub fn rate_between(&self, t0: Time, t1: Time, per: Time) -> f64 {
        if t1 <= t0 {
            return 0.0;
        }
        self.count_between(t0, t1) * per as f64 / (t1 - t0) as f64
    }

    /// The series as `(bucket_start_hours, events_per_minute)` pairs.
    pub fn series_per_minute(&self) -> Vec<(f64, f64)> {
        let c = self.counts.lock();
        c.iter()
            .enumerate()
            .map(|(i, &n)| {
                let start = i as Time * self.bucket_ns;
                let per_min = n as f64 * clock::MINUTE as f64 / self.bucket_ns as f64;
                (clock::as_hours(start), per_min)
            })
            .collect()
    }
}

/// Pseudo-client that takes a sharp checkpoint every `interval`.
pub struct CheckpointClient {
    db: Arc<Database>,
    interval: Time,
    next: Time,
}

impl CheckpointClient {
    pub fn new(db: Arc<Database>, interval: Time) -> Self {
        assert!(interval > 0);
        CheckpointClient {
            db,
            interval,
            next: interval,
        }
    }
}

impl Client for CheckpointClient {
    fn step(&mut self, clk: &mut Clk) -> StepResult {
        clk.wait_until(self.next);
        self.db.checkpoint(clk);
        self.next = clk.now + self.interval;
        StepResult::Continue
    }
}

/// Pseudo-client wrapping the LC lazy-cleaning thread.
pub struct CleanerClient {
    cleaner: LazyCleaner,
}

impl CleanerClient {
    pub fn new(cleaner: LazyCleaner) -> Self {
        CleanerClient { cleaner }
    }

    /// Convenience: attach a cleaner to `db` if it runs the LC design.
    pub fn for_db(db: &Database) -> Option<Self> {
        let mgr = db.ssd_manager()?;
        if mgr.config().design == turbopool_core::SsdDesign::LazyCleaning {
            Some(CleanerClient::new(LazyCleaner::new(Arc::clone(mgr))))
        } else {
            None
        }
    }
}

impl Client for CleanerClient {
    fn step(&mut self, clk: &mut Clk) -> StepResult {
        match self.cleaner.step(clk) {
            CleanerStep::Idle | CleanerStep::Backoff => {
                // A yielded (congested) round sleeps like an idle one:
                // re-polling sooner would only re-measure the same queue.
                clk.elapse(self.cleaner.poll_interval());
                StepResult::Continue
            }
            CleanerStep::Cleaned(_) => StepResult::Continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbopool_iosim::{MILLISECOND, MINUTE, SECOND};

    struct Ticker {
        period: Time,
        fired: Arc<ThroughputRecorder>,
        remaining: usize,
    }

    impl Client for Ticker {
        fn step(&mut self, clk: &mut Clk) -> StepResult {
            if self.remaining == 0 {
                return StepResult::Done;
            }
            clk.elapse(self.period);
            self.fired.record(clk.now);
            self.remaining -= 1;
            StepResult::Continue
        }
    }

    #[test]
    fn earliest_clock_first_interleaves_fairly() {
        let rec = ThroughputRecorder::new(SECOND);
        let mut d = Driver::new();
        d.add(
            0,
            Box::new(Ticker {
                period: 10 * MILLISECOND,
                fired: Arc::clone(&rec),
                remaining: 100,
            }),
        );
        d.add(
            0,
            Box::new(Ticker {
                period: 30 * MILLISECOND,
                fired: Arc::clone(&rec),
                remaining: 100,
            }),
        );
        d.run_until(600 * MILLISECOND);
        // Fast ticker: ~60 events; slow: ~20. Both progressed to ~600ms.
        let total = rec.total();
        assert!((75..=85).contains(&(total as i64)), "total {total}");
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let rec = ThroughputRecorder::new(SECOND);
        let mut d = Driver::new();
        d.add(
            0,
            Box::new(Ticker {
                period: SECOND,
                fired: Arc::clone(&rec),
                remaining: 1_000_000,
            }),
        );
        d.run_until(10 * SECOND);
        assert_eq!(rec.total(), 10);
        assert_eq!(d.runnable(), 1, "client still scheduled for later");
        d.run_until(20 * SECOND);
        assert_eq!(rec.total(), 20);
    }

    #[test]
    fn done_clients_are_removed() {
        let rec = ThroughputRecorder::new(SECOND);
        let mut d = Driver::new();
        d.add(
            0,
            Box::new(Ticker {
                period: SECOND,
                fired: rec,
                remaining: 3,
            }),
        );
        d.run_to_completion();
        assert_eq!(d.runnable(), 0);
    }

    #[test]
    fn zero_cost_steps_still_make_progress() {
        struct Lazy(usize);
        impl Client for Lazy {
            fn step(&mut self, _clk: &mut Clk) -> StepResult {
                self.0 -= 1;
                if self.0 == 0 {
                    StepResult::Done
                } else {
                    StepResult::Continue
                }
            }
        }
        let mut d = Driver::new();
        d.add(0, Box::new(Lazy(1000)));
        d.run_until(SECOND); // must terminate
        assert_eq!(d.runnable(), 0);
    }

    fn ticker_fleet(d: &mut Driver, rec: &Arc<ThroughputRecorder>) {
        for domain in 0..4 {
            for c in 0..3 {
                d.add_in_domain(
                    domain,
                    c * MILLISECOND,
                    Box::new(Ticker {
                        period: (3 + domain as Time * 2 + c) * MILLISECOND,
                        fired: Arc::clone(rec),
                        remaining: 500,
                    }),
                );
            }
        }
    }

    #[test]
    fn parallel_run_matches_sequential_bit_for_bit() {
        let rec_seq = ThroughputRecorder::new(SECOND);
        let mut seq = Driver::new();
        ticker_fleet(&mut seq, &rec_seq);
        seq.run_until(SECOND);

        for threads in [1, 2, 4, 8] {
            let rec_par = ThroughputRecorder::new(SECOND);
            let mut par = Driver::new();
            ticker_fleet(&mut par, &rec_par);
            // Tiny lookahead: force many windows so the merge path is
            // exercised hard, not just once.
            par.set_lookahead(2 * MILLISECOND);
            par.run_until_parallel(SECOND, threads);
            assert_eq!(par.clocks(), seq.clocks(), "threads={threads}");
            assert_eq!(par.steps(), seq.steps(), "threads={threads}");
            assert_eq!(rec_par.total(), rec_seq.total(), "threads={threads}");
        }
    }

    #[test]
    fn parallel_run_with_default_lookahead_completes() {
        let rec = ThroughputRecorder::new(SECOND);
        let mut d = Driver::new();
        ticker_fleet(&mut d, &rec);
        d.run_parallel(4);
        assert_eq!(d.runnable(), 0);
        assert_eq!(rec.total(), 12 * 500);
    }

    #[test]
    fn single_domain_parallel_is_sequential() {
        let rec_seq = ThroughputRecorder::new(SECOND);
        let mut seq = Driver::new();
        for c in 0..5 {
            seq.add(
                0,
                Box::new(Ticker {
                    period: (c + 1) * MILLISECOND,
                    fired: Arc::clone(&rec_seq),
                    remaining: 200,
                }),
            );
        }
        seq.run_until(100 * MILLISECOND);
        let rec_par = ThroughputRecorder::new(SECOND);
        let mut par = Driver::new();
        for c in 0..5 {
            par.add(
                0,
                Box::new(Ticker {
                    period: (c + 1) * MILLISECOND,
                    fired: Arc::clone(&rec_par),
                    remaining: 200,
                }),
            );
        }
        par.set_lookahead(MILLISECOND);
        par.run_until_parallel(100 * MILLISECOND, 8);
        assert_eq!(par.clocks(), seq.clocks());
        assert_eq!(par.steps(), seq.steps());
        assert_eq!(rec_par.total(), rec_seq.total());
    }

    #[test]
    fn recorder_rates_and_series() {
        let rec = ThroughputRecorder::new(MINUTE);
        for i in 0..60 {
            rec.record(i * SECOND); // 60 events in minute 0
        }
        for i in 0..30 {
            rec.record(MINUTE + i * 2 * SECOND); // 30 events in minute 1
        }
        assert_eq!(rec.total(), 90);
        assert!((rec.count_between(0, MINUTE) - 60.0).abs() < 1e-9);
        assert!((rec.rate_between(0, 2 * MINUTE, MINUTE) - 45.0).abs() < 1e-9);
        let series = rec.series_per_minute();
        assert_eq!(series.len(), 2);
        assert!((series[0].1 - 60.0).abs() < 1e-9);
        assert!((series[1].1 - 30.0).abs() < 1e-9);
    }
}
