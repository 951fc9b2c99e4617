//! The discrete-event driver: deterministic multiplexing of logical
//! clients over virtual time.
//!
//! Each client owns a virtual clock; the driver always runs the client
//! with the smallest clock, so device queueing and cross-client
//! interference play out exactly as they would with truly concurrent
//! streams — deterministically. One `step` is one atomic unit of work
//! (one transaction, one query, one cleaner batch, one checkpoint).
//!
//! # Domains (DESIGN.md §9)
//!
//! Clients are partitioned into **domains** ([`Driver::add_in_domain`]),
//! each with its own earliest-clock-first queue ordered by
//! `(time, client id)`. [`Driver::run_until`] runs a lone domain on the
//! calling thread and several on one OS thread each.
//!
//! The contract: domains are **share-nothing** — a domain's clients may
//! only mutate state (Database, devices, pools) owned by that domain.
//! State shared *across* domains must be commutative (atomic counters,
//! [`ThroughputRecorder`] buckets). Under it no observable result
//! depends on how the threads interleave, so a fleet run in one driver
//! equals each of its domains run alone.

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

struct Slot {
    /// Driver-wide client id, in registration order.
    id: usize,
    clk: Clk,
    client: Box<dyn Client>,
}

/// One share-nothing domain's clients and queue. The queue holds
/// `(time, index into slots)`; indices follow registration order like
/// the driver-wide ids, so ties break the same way.
#[derive(Default)]
struct Domain {
    slots: Vec<Option<Slot>>,
    queue: BinaryHeap<Reverse<(Time, usize)>>,
    steps: u64,
}

impl Domain {
    fn run_until(&mut self, end: Time) {
        while let Some(&Reverse((t, i))) = self.queue.peek() {
            if t >= end {
                break;
            }
            self.queue.pop();
            let slot = self.slots[i].as_mut().expect("scheduled client has a slot");
            debug_assert_eq!(slot.clk.now, t);
            self.steps += 1;
            match slot.client.step(&mut slot.clk) {
                StepResult::Continue => {
                    // Guarantee progress even for zero-cost steps.
                    if slot.clk.now <= t {
                        slot.clk.now = t + 1;
                    }
                    self.queue.push(Reverse((slot.clk.now, i)));
                }
                StepResult::Done => {
                    self.slots[i] = None;
                }
            }
        }
    }
}

/// Earliest-clock-first scheduler over share-nothing domains.
#[derive(Default)]
pub struct Driver {
    /// Keyed by domain id, so threads are joined in domain order.
    domains: BTreeMap<usize, Domain>,
    clients: usize,
}

impl Driver {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a client whose clock starts at `start`, in domain 0.
    pub fn add(&mut self, start: Time, client: Box<dyn Client>) -> usize {
        self.add_in_domain(0, start, client)
    }

    /// Register a client in a share-nothing `domain` and return its
    /// driver-wide id. Clients of one domain always step in
    /// `(time, id)` order on one thread.
    pub fn add_in_domain(&mut self, domain: usize, start: Time, client: Box<dyn Client>) -> usize {
        let id = self.clients;
        self.clients += 1;
        let d = self.domains.entry(domain).or_default();
        d.queue.push(Reverse((start, d.slots.len())));
        d.slots.push(Some(Slot {
            id,
            clk: Clk::at(start),
            client,
        }));
        id
    }

    /// Run until every runnable client's clock reaches `end` (or every
    /// client is done). Steps that begin before `end` run to completion
    /// and may overshoot it, like real in-flight work at a deadline.
    /// A lone domain runs on the calling thread; several run on one
    /// scoped OS thread each.
    pub fn run_until(&mut self, end: Time) {
        if self.domains.len() <= 1 {
            self.domains.values_mut().for_each(|d| d.run_until(end));
            return;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "the driver is the one place simulation work runs on OS threads: \
                      one per share-nothing domain (DESIGN §9)"
        )]
        std::thread::scope(|scope| {
            let running: Vec<_> = self
                .domains
                .values_mut()
                .map(|d| scope.spawn(move || d.run_until(end)))
                .collect();
            for r in running {
                r.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            }
        });
    }

    /// Run until no runnable clients remain.
    pub fn run_to_completion(&mut self) {
        self.run_until(Time::MAX);
    }

    /// Number of clients still scheduled.
    pub fn runnable(&self) -> usize {
        self.domains.values().map(|d| d.queue.len()).sum()
    }

    /// Total client steps executed so far.
    pub fn steps(&self) -> u64 {
        self.domains.values().map(|d| d.steps).sum()
    }

    /// Client steps executed so far in `domain`.
    pub fn steps_in(&self, domain: usize) -> u64 {
        self.domains.get(&domain).map_or(0, |d| d.steps)
    }

    /// The scheduled clients' `(client_id, virtual_clock)` pairs, sorted
    /// by id — the determinism tests compare these across runs.
    pub fn clocks(&self) -> Vec<(usize, Time)> {
        let mut v: Vec<(usize, Time)> = self
            .domains
            .values()
            .flat_map(|d| {
                d.queue.iter().map(|&Reverse((t, i))| {
                    let slot = d.slots[i].as_ref().expect("scheduled client has a slot");
                    (slot.id, t)
                })
            })
            .collect();
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

    /// Convenience: attach a cleaner to `db` if its design is write-back.
    pub fn for_db(db: &Database) -> Option<Self> {
        let mgr = db.ssd_manager()?;
        let write_back = mgr.config().design.policy().write_back();
        write_back.then(|| CleanerClient::new(LazyCleaner::new(Arc::clone(mgr))))
    }
}

impl Client for CleanerClient {
    fn step(&mut self, clk: &mut Clk) -> StepResult {
        match self.cleaner.step(clk) {
            CleanerStep::Idle => {
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

    fn ticker(domain: usize, c: Time, ticks: usize, rec: &Arc<ThroughputRecorder>) -> Box<Ticker> {
        Box::new(Ticker {
            period: (3 + domain as Time * 2 + c) * MILLISECOND,
            fired: Arc::clone(rec),
            remaining: ticks,
        })
    }

    /// (case, (domain, clients, ticks per client) per domain, the
    /// `run_until` ends in order; `Time::MAX` is `run_to_completion`).
    type Case<'a> = (&'a str, &'a [(usize, Time, usize)], &'a [Time]);

    /// A fleet run in one driver equals each of its domains run alone, on
    /// `clocks()`, `steps()`/`steps_in` and recorder totals.
    fn assert_fleet_equals_alone(cases: &[Case]) {
        for &(name, spec, ends) in cases {
            let mut fleet = Driver::new();
            let mut alone: Vec<Driver> = spec.iter().map(|_| Driver::new()).collect();
            let recs = || -> Vec<_> {
                spec.iter()
                    .map(|_| ThroughputRecorder::new(SECOND))
                    .collect()
            };
            let (fleet_recs, alone_recs) = (recs(), recs());
            // Register round-robin across domains, so fleet ids interleave
            // and each domain's local order must still match its ids.
            let mut fleet_ids = vec![Vec::new(); spec.len()];
            let most = spec.iter().map(|s| s.1).max().unwrap_or(0);
            for c in 0..most {
                for (k, &(domain, clients, ticks)) in spec.iter().enumerate() {
                    if c < clients {
                        let start = c * MILLISECOND;
                        let client = ticker(domain, c, ticks, &fleet_recs[k]);
                        fleet_ids[k].push(fleet.add_in_domain(domain, start, client));
                        alone[k].add(start, ticker(domain, c, ticks, &alone_recs[k]));
                    }
                }
            }
            for &end in ends {
                if end == Time::MAX {
                    fleet.run_to_completion();
                    alone.iter_mut().for_each(Driver::run_to_completion);
                } else {
                    fleet.run_until(end);
                    alone.iter_mut().for_each(|d| d.run_until(end));
                }
                let mut clocks = Vec::new();
                for (k, &(domain, ..)) in spec.iter().enumerate() {
                    assert_eq!(
                        fleet.steps_in(domain),
                        alone[k].steps(),
                        "{name}: domain {domain}"
                    );
                    assert_eq!(
                        fleet_recs[k].total(),
                        alone_recs[k].total(),
                        "{name}: domain {domain}"
                    );
                    clocks.extend(
                        alone[k]
                            .clocks()
                            .into_iter()
                            .map(|(i, t)| (fleet_ids[k][i], t)),
                    );
                }
                clocks.sort_unstable();
                assert_eq!(fleet.clocks(), clocks, "{name}");
                assert_eq!(
                    fleet.steps(),
                    alone.iter().map(Driver::steps).sum(),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn parallel_run_matches_sequential_bit_for_bit() {
        let four = [(0, 3, 500), (1, 3, 500), (2, 3, 500), (3, 3, 500)];
        let (early, ms) = ([(0, 3, 5), (1, 3, 500)], MILLISECOND);
        assert_fleet_equals_alone(&[
            ("four domains, resumed", &four, &[300 * ms, SECOND]),
            ("sparse domain ids", &[(0, 2, 400), (7, 3, 400)], &[SECOND]),
            ("one domain finishes early", &early, &[200 * ms, SECOND]),
        ]);
    }

    #[test]
    fn parallel_run_with_default_lookahead_completes() {
        let spec = [(0, 3, 100), (7, 2, 50), (2, 1, 10)];
        assert_fleet_equals_alone(&[("to completion", &spec, &[Time::MAX])]);
    }

    #[test]
    fn single_domain_parallel_is_sequential() {
        // A lone domain runs inline on the calling thread, whatever its id.
        let ends = [300 * MILLISECOND, SECOND];
        assert_fleet_equals_alone(&[("one domain", &[(5, 4, 300)], &ends)]);
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
