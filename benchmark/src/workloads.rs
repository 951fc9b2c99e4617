//! The four closed-loop workloads and the code that runs one rep of one of
//! them: build + bulk-load, drive a fixed virtual span on one OS thread
//! through the sequential `Driver`, crash, recover, verify.
//!
//! Sizes are the paper's ÷1000 (`workload::scenario`). Constructor
//! defaults are used everywhere; the only spec field the benchmark sets is
//! the seed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use turbopool::engine::{Database, HeapId, IndexId};
use turbopool::iosim::rng::{Rng, SmallRng};
use turbopool::iosim::{Clk, Time, HOUR, MILLISECOND, MINUTE, SECOND};
use turbopool::workload::driver::{
    CheckpointClient, CleanerClient, Client, Driver, StepResult, ThroughputRecorder,
};
use turbopool::workload::rand_util::{client_rng, Zipf};
use turbopool::workload::scenario::Design;
use turbopool::workload::synthetic::{Synthetic, SyntheticConfig};
use turbopool::workload::tpcc::Tpcc;
use turbopool::workload::tpce::Tpce;
use turbopool::workload::tpch::Tpch;

use crate::counters::{window_counters, Snap};
use crate::host::wall_ns;
use crate::probe::{Probe, Role, Shared, TimedClient};
use crate::stats;

/// Logical terminals multiplexed in virtual time (the paper's client count).
const TERMINALS: u64 = 25;
/// TPC-H throughput-phase query streams at SF 100 (paper Table 3).
const TPCH_STREAMS: usize = 5;
/// Ledger rows: ~1.7k pages, inside the 2,621-frame DRAM pool.
const LEDGER_ROWS: u64 = 60_000;
const LEDGER_OPS: usize = 10;
/// Virtual CPU per ledger transaction (1 ms, as `workload::synthetic`).
const LEDGER_CPU: Time = MILLISECOND;
/// Engine-call child spans are recorded for one ledger transaction in this
/// many, to keep the traced rep's span count and overhead bounded.
const LEDGER_SPAN_EVERY: u64 = 16;
/// Host time is sampled once per slice of an OLTP drive; every span and
/// window below is a whole number of slices.
const SLICES: u64 = 100;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    TpccLc,
    TpceDw,
    TpchTac,
    HotLedger,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::TpccLc, Kind::TpceDw, Kind::TpchTac, Kind::HotLedger];

    pub fn name(self) -> &'static str {
        match self {
            Kind::TpccLc => "tpcc_lc",
            Kind::TpceDw => "tpce_dw",
            Kind::TpchTac => "tpch_tac",
            Kind::HotLedger => "hot_ledger",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The SSD design the workload measures.
    pub fn design(self) -> Design {
        match self {
            Kind::TpccLc | Kind::HotLedger => Design::Lc,
            Kind::TpceDw => Design::Dw,
            Kind::TpchTac => Design::Tac,
        }
    }

    /// Whole reps that drive for about ten seconds on the reference host
    /// (2 cores, see README.md): one rep is ~10 s, ~2 s, ~3.9 s, ~5.3 s.
    pub fn reps_per_10s(self) -> u64 {
        match self {
            Kind::TpccLc => 1,
            Kind::TpceDw => 5,
            Kind::TpchTac => 3,
            Kind::HotLedger => 2,
        }
    }

    /// The paper's speedup over noSSD for this configuration (Fig. 5b,
    /// Fig. 5e, Table 3); 1.0 where nothing leaves DRAM.
    pub fn paper_speedup(self) -> f64 {
        match self {
            Kind::TpccLc => 9.4,
            Kind::TpceDw => 8.0,
            Kind::TpchTac => 3.4,
            Kind::HotLedger => 1.0,
        }
    }
}

/// Virtual-time results of one rep. Exact for a fixed seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Virt {
    /// Terminal transactions per virtual minute over the measured window.
    pub tput_per_min: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// Mean latency of the slowest 5% of the window's terminal steps.
    pub slow5_ms: f64,
    /// Highest of p90/p99/p99.9 with at least ten samples beyond it.
    pub tail_ms: f64,
    pub tail_pct: f64,
    pub tail_beyond: u64,
    pub window_txns: u64,
    /// The paper's metric over the paper's window: NewOrder (C) or
    /// TradeResult (E) per minute of the last virtual hour, ledger commits
    /// per minute of the last two virtual minutes, queries per minute of
    /// the throughput phase (H).
    pub paper_tput_per_min: f64,
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Recovery {
    pub host_ns: u64,
    pub virt_ns: Time,
    pub log_bytes_at_crash: u64,
    pub records: u64,
    pub writes_applied: u64,
}

/// Host cost of one slice of a drive.
#[derive(Clone, Copy)]
pub struct Slice {
    pub host_ns: u64,
    /// Terminal transactions stepped in the slice.
    pub txns: u64,
}

/// Everything one rep produced.
pub struct Rep {
    pub setup_ns: u64,
    pub drive_ns: u64,
    /// One sample per slice of the drive.
    pub samples: Vec<Slice>,
    pub txn_steps: u64,
    pub driver_steps: u64,
    pub virt: Virt,
    /// `[c]` metrics over the measured window.
    pub counters: Vec<(&'static str, f64)>,
    pub recovery: Recovery,
    pub rows_verified: u64,
    /// `VmHWM` when the rep ended. Only the first rep of a process says
    /// something about the program: later ones start with an allocator
    /// that still holds the earlier reps' freed memory.
    pub peak_rss_mb: f64,
    pub probe: Probe,
    /// Correctness-gate failures, empty when the rep is good.
    pub problems: Vec<String>,
}

impl Rep {
    /// Everything that must be bit-identical between reps of one seed.
    pub fn fingerprint(&self) -> String {
        format!(
            "{:?} {:?} txns={} steps={} rec={}/{}/{}/{}",
            self.virt,
            self.counters,
            self.txn_steps,
            self.driver_steps,
            self.recovery.virt_ns,
            self.recovery.log_bytes_at_crash,
            self.recovery.records,
            self.recovery.writes_applied,
        )
    }
}

/// Checks a recovered database; returns `(rows checked, rows wrong)`.
type Verify = Box<dyn FnOnce(&Database) -> (u64, u64)>;

/// A loaded database plus what is needed to take it apart again.
struct Loaded {
    db: Arc<Database>,
    /// Drops the workload's own handle and returns the sole `Database`.
    /// Call after the driver (and so every client) is gone.
    release: Box<dyn FnOnce() -> Database>,
    verify: Verify,
}

fn sole(db: Arc<Database>) -> Database {
    Arc::try_unwrap(db)
        .ok()
        .expect("every other Database handle was dropped")
}

fn no_rows(_: &Database) -> (u64, u64) {
    (0, 0)
}

/// A built and bulk-loaded database, before any client exists.
enum Built {
    Tpcc(Tpcc),
    Tpce(Tpce),
    Tpch(Tpch),
    /// With the virtual time at which the warm-up read of every row ended.
    Ledger(Synthetic, Time),
}

/// Build + bulk-load the workload's database (and, for the ledger, fill the
/// DRAM pool): everything before the drive, which is what `setup_s` times.
/// `div` divides every virtual span and the TPC-H scale factor
/// (1 = full size, 20 = smoke).
///
/// Not called `build`: the repo linter's call graph goes by name, and an
/// I/O-reaching `build` here would taint every caller of `Database::build`.
fn build_and_load(probe: &Shared, kind: Kind, design: Design, seed: u64, div: u64) -> Built {
    match kind {
        Kind::TpccLc => Built::Tpcc(Tpcc::setup_tweak(design, 20, 0.5, |spec| spec.seed = seed)),
        Kind::TpceDw => Built::Tpce(Tpce::setup_tweak(design, 2_000, 0.01, |spec| {
            spec.seed = seed
        })),
        // `Tpch::setup` takes no seed: the database is the same for every
        // seed, and `--seed` feeds the stream RNGs only.
        Kind::TpchTac => Built::Tpch(Tpch::setup(design, (100 / div).max(1), 0.01)),
        Kind::HotLedger => {
            let cfg = SyntheticConfig {
                rows: LEDGER_ROWS,
                ..SyntheticConfig::default()
            };
            let s = Synthetic::setup(design, cfg, |spec| spec.seed = seed);
            let warm_until = warm_ledger(probe, &s.db, s.heap, s.index);
            Built::Ledger(s, warm_until)
        }
    }
}

/// Host nanoseconds of one build + bulk-load that is then thrown away:
/// extra `setup_s` samples beyond the reps' own.
pub fn time_setup(kind: Kind, seed: u64, div: u64) -> u64 {
    let t0 = wall_ns();
    let built = build_and_load(&Shared::new(false), kind, kind.design(), seed, div);
    let ns = wall_ns() - t0;
    drop(built);
    ns
}

/// One rep of `kind` under `design` (the workload's own design, or
/// `Design::NoSsd` for its twin).
pub fn run_rep(kind: Kind, design: Design, seed: u64, div: u64, traced: bool) -> Rep {
    let probe = Shared::new(traced);
    let root = probe.enter("rep", 0);
    let t0 = wall_ns();
    let s = probe.enter("setup", 0);
    let built = build_and_load(&probe, kind, design, seed, div);
    probe.leave(s, 0);
    let setup_ns = wall_ns() - t0;
    let oltp =
        |span: Time, window: Time, paper_window: Time, checkpoint_every: Option<Time>| Plan {
            start: 0,
            span: span / div,
            window: window / div,
            paper_window: paper_window / div,
            checkpoint_every: checkpoint_every.map(|t| t / div),
        };
    let (driven, loaded) = match built {
        Built::Tpcc(t) => {
            let t = Arc::new(t);
            let metric = ThroughputRecorder::new(6 * MINUTE);
            let terminals = (0..TERMINALS)
                .map(|c| Box::new(t.client(c, Arc::clone(&metric))) as Box<dyn Client>)
                .collect();
            let loaded = Loaded {
                db: Arc::clone(&t.db),
                release: Box::new(move || {
                    let Tpcc { db, .. } = Arc::try_unwrap(t).ok().expect("terminals dropped");
                    sole(db)
                }),
                verify: Box::new(no_rows),
            };
            // Checkpoints off, as the paper runs TPC-C.
            let plan = oltp(10 * HOUR, 5 * HOUR, HOUR, None);
            (
                drive_oltp(&probe, &loaded.db, terminals, &plan, &metric),
                loaded,
            )
        }
        Built::Tpce(t) => {
            let t = Arc::new(t);
            let metric = ThroughputRecorder::new(6 * MINUTE);
            let terminals = (0..TERMINALS)
                .map(|c| Box::new(t.client(c, Arc::clone(&metric))) as Box<dyn Client>)
                .collect();
            let loaded = Loaded {
                db: Arc::clone(&t.db),
                release: Box::new(move || {
                    let Tpce { db, .. } = Arc::try_unwrap(t).ok().expect("terminals dropped");
                    sole(db)
                }),
                verify: Box::new(no_rows),
            };
            let plan = oltp(10 * HOUR, 5 * HOUR, HOUR, Some(40 * MINUTE));
            (
                drive_oltp(&probe, &loaded.db, terminals, &plan, &metric),
                loaded,
            )
        }
        Built::Ledger(
            Synthetic {
                db, heap, index, ..
            },
            start,
        ) => {
            let metric = ThroughputRecorder::new(SECOND);
            let ledger = Arc::new(Mutex::new(vec![0u64; LEDGER_ROWS as usize]));
            let zipf = Arc::new(Zipf::new(LEDGER_ROWS as usize, 0.9));
            let terminals = (0..TERMINALS)
                .map(|c| {
                    Box::new(LedgerClient {
                        db: Arc::clone(&db),
                        heap,
                        index,
                        zipf: Arc::clone(&zipf),
                        rng: client_rng(seed, c),
                        ledger: Arc::clone(&ledger),
                        metric: Arc::clone(&metric),
                        probe: probe.clone(),
                        traced,
                        stepped: 0,
                    }) as Box<dyn Client>
                })
                .collect();
            let handle = Arc::clone(&db);
            let loaded = Loaded {
                db,
                release: Box::new(move || sole(handle)),
                verify: Box::new(move |recovered| verify_ledger(recovered, heap, index, &ledger)),
            };
            let plan = Plan {
                start,
                ..oltp(4 * MINUTE, 4 * MINUTE, 2 * MINUTE, None)
            };
            (
                drive_oltp(&probe, &loaded.db, terminals, &plan, &metric),
                loaded,
            )
        }
        Built::Tpch(t) => {
            let t = Arc::new(t);
            let handle = Arc::clone(&t);
            let loaded = Loaded {
                db: Arc::clone(&t.db),
                release: Box::new(move || {
                    let Tpch { db, .. } = Arc::try_unwrap(handle).ok().expect("streams dropped");
                    sole(db)
                }),
                verify: Box::new(no_rows),
            };
            (drive_tpch(&probe, &loaded.db, t, seed), loaded)
        }
    };
    let mut rep = close_rep(&probe, setup_ns, driven, loaded);
    probe.leave(root, 0);
    rep.probe = std::mem::take(&mut *probe.lock());
    rep
}

/// Virtual shape of one OLTP drive.
struct Plan {
    /// Virtual time the terminals start at (after any warm-up).
    start: Time,
    /// Virtual span driven after `start`.
    span: Time,
    /// The measured window is the last `window` of the span: after the SSD
    /// has filled, as the paper reports steady state.
    window: Time,
    /// The paper's own reporting window (its last hour), for `paper_*`.
    paper_window: Time,
    checkpoint_every: Option<Time>,
}

struct Driven {
    drive_ns: u64,
    samples: Vec<Slice>,
    driver_steps: u64,
    window_open: Snap,
    window_close: Snap,
    paper_tput_per_min: f64,
}

/// `metric` counts the paper's metric events (NewOrder / TradeResult /
/// ledger commits), recorded by the terminals themselves.
fn drive_oltp(
    probe: &Shared,
    db: &Arc<Database>,
    terminals: Vec<Box<dyn Client>>,
    plan: &Plan,
    metric: &ThroughputRecorder,
) -> Driven {
    let end = plan.start + plan.span;
    let window_start = end - plan.window;
    probe.lock().window_start = window_start;
    let mut driver = Driver::new();
    for t in terminals {
        driver.add(plan.start, TimedClient::wrap(t, Role::Terminal, probe));
    }
    if let Some(every) = plan.checkpoint_every {
        let c = CheckpointClient::new(Arc::clone(db), every);
        driver.add(
            plan.start,
            TimedClient::wrap(Box::new(c), Role::Checkpointer, probe),
        );
    }
    if let (Some(c), Some(mgr)) = (CleanerClient::for_db(db), db.ssd_manager()) {
        let role = Role::Cleaner(Arc::clone(mgr));
        driver.add(plan.start, TimedClient::wrap(Box::new(c), role, probe));
    }
    let slice = plan.span / SLICES;
    let mut samples = Vec::with_capacity(SLICES as usize);
    let mut window_open = None;
    let span_id = probe.enter("drive", plan.start);
    for i in 1..=SLICES {
        let upto = plan.start + i * slice;
        if window_open.is_none() && upto > window_start {
            window_open = Some(Snap::take(db, window_start, probe.lock().txn_steps));
        }
        let h0 = wall_ns();
        driver.run_until(upto);
        let host_ns = wall_ns() - h0;
        let txns = probe.lock().take_slice();
        samples.push(Slice { host_ns, txns });
    }
    probe.leave(span_id, end);
    let drive_ns = samples.iter().map(|s| s.host_ns).sum();
    let window_close = Snap::take(db, end, probe.lock().txn_steps);
    Driven {
        drive_ns,
        samples,
        driver_steps: driver.steps(),
        window_open: window_open.expect("the window opens inside the span"),
        window_close,
        paper_tput_per_min: metric.rate_between(end - plan.paper_window, end, MINUTE),
    }
}

/// Read every ledger row once so the drive starts with the whole table in
/// the DRAM pool; returns the virtual time the warm-up ended.
fn warm_ledger(probe: &Shared, db: &Database, heap: HeapId, index: IndexId) -> Time {
    let mut clk = Clk::new();
    let s = probe.enter("warmup", 0);
    for chunk in 0..LEDGER_ROWS.div_ceil(1_000) {
        let mut txn = db.begin(&mut clk);
        for key in chunk * 1_000..((chunk + 1) * 1_000).min(LEDGER_ROWS) {
            if let Some(rid) = txn.index_get(index, key) {
                txn.heap_get(heap, rid);
            }
        }
        txn.commit();
    }
    probe.leave(s, clk.now);
    clk.now
}

/// One ledger terminal: `LEDGER_OPS` Zipf(0.9) point operations per
/// transaction through the public engine calls, half of them increments.
/// Committed increments are recorded client-side; that record is the
/// durability oracle after crash and recovery.
struct LedgerClient {
    db: Arc<Database>,
    heap: HeapId,
    index: IndexId,
    zipf: Arc<Zipf>,
    rng: SmallRng,
    ledger: Arc<Mutex<Vec<u64>>>,
    metric: Arc<ThroughputRecorder>,
    probe: Shared,
    traced: bool,
    stepped: u64,
}

impl Client for LedgerClient {
    fn step(&mut self, clk: &mut Clk) -> StepResult {
        let spans = self.traced && self.stepped.is_multiple_of(LEDGER_SPAN_EVERY);
        self.stepped += 1;
        let p = &self.probe;
        let open = |name: &'static str, now: Time| if spans { p.enter(name, now) } else { None };
        clk.elapse(LEDGER_CPU);
        let s = open("engine.begin", clk.now);
        let mut txn = self.db.begin(clk);
        p.leave(s, txn.clk.now);
        let mut bumped = Vec::with_capacity(LEDGER_OPS);
        let mut missing = 0u64;
        for _ in 0..LEDGER_OPS {
            // Scramble ranks over the key space so hot rows spread over pages.
            let rank = self.zipf.sample(&mut self.rng) as u64;
            let key = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % LEDGER_ROWS;
            let s = open("engine.index_get", txn.clk.now);
            let rid = txn.index_get(self.index, key);
            p.leave(s, txn.clk.now);
            let s = open("engine.heap_get", txn.clk.now);
            let rec = rid.and_then(|rid| txn.heap_get(self.heap, rid));
            p.leave(s, txn.clk.now);
            let (Some(rid), Some(mut rec)) = (rid, rec) else {
                missing += 1;
                continue;
            };
            if self.rng.gen_bool(0.5) {
                let v = read_u64(&rec[8..16]);
                rec[8..16].copy_from_slice(&(v + 1).to_le_bytes());
                let s = open("engine.heap_update", txn.clk.now);
                let updated = txn.heap_update(self.heap, rid, &rec);
                p.leave(s, txn.clk.now);
                if updated {
                    bumped.push(key);
                } else {
                    missing += 1;
                }
            }
        }
        let s = open("engine.commit", txn.clk.now);
        let committed = txn.commit().is_committed();
        p.leave(s, clk.now);
        if committed {
            let mut ledger = self.ledger.lock().expect("single-threaded");
            for key in bumped {
                ledger[key as usize] += 1;
            }
            self.metric.record(clk.now);
        }
        if missing > 0 || !committed {
            p.lock().failed += missing + u64::from(!committed);
        }
        StepResult::Continue
    }
}

fn read_u64(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(bytes);
    u64::from_le_bytes(b)
}

/// Every row of the recovered table must carry its own key and exactly the
/// number of increments the terminals saw commit.
fn verify_ledger(
    db: &Database,
    heap: HeapId,
    index: IndexId,
    ledger: &Mutex<Vec<u64>>,
) -> (u64, u64) {
    let ledger = ledger.lock().expect("single-threaded");
    let mut clk = Clk::new();
    let mut wrong = 0u64;
    for chunk in 0..LEDGER_ROWS.div_ceil(1_000) {
        let mut txn = db.begin(&mut clk);
        for key in chunk * 1_000..((chunk + 1) * 1_000).min(LEDGER_ROWS) {
            let rec = txn
                .index_get(index, key)
                .and_then(|rid| txn.heap_get(heap, rid));
            let good = rec.is_some_and(|r| {
                read_u64(&r[0..8]) == key && read_u64(&r[8..16]) == ledger[key as usize]
            });
            wrong += u64::from(!good);
        }
        txn.commit();
    }
    (LEDGER_ROWS, wrong)
}

/// One benchmark-owned TPC-H stream: a fixed list of work items, one per
/// driver step, through the public `run_query` / `rf1` / `rf2`.
struct TpchStream {
    t: Arc<Tpch>,
    rng: SmallRng,
    items: Vec<TpchItem>,
    next: usize,
    /// Latest finish time over all streams of the phase.
    finish: Arc<AtomicU64>,
}

#[derive(Clone, Copy)]
enum TpchItem {
    Query(usize),
    Rf1,
    Rf2,
    RfPair,
}

impl Client for TpchStream {
    fn step(&mut self, clk: &mut Clk) -> StepResult {
        match self.items[self.next] {
            TpchItem::Query(q) => {
                self.t.run_query(clk, q, &mut self.rng);
            }
            TpchItem::Rf1 => {
                self.t.rf1(clk);
            }
            TpchItem::Rf2 => {
                self.t.rf2(clk);
            }
            TpchItem::RfPair => {
                self.t.rf1(clk);
                self.t.rf2(clk);
            }
        }
        self.next += 1;
        if self.next == self.items.len() {
            self.finish.fetch_max(clk.now, Ordering::Relaxed);
            StepResult::Done
        } else {
            StepResult::Continue
        }
    }
}

/// The power test (RF1, Q1..Q22, RF2 on one stream) and then the
/// throughput test (`TPCH_STREAMS` rotated query streams plus one refresh
/// stream), which is the measured window.
fn drive_tpch(probe: &Shared, db: &Database, t: Arc<Tpch>, seed: u64) -> Driven {
    let stream = |rng_no: u64, items: Vec<TpchItem>, finish: &Arc<AtomicU64>| {
        let s = TpchStream {
            t: Arc::clone(&t),
            rng: client_rng(seed, rng_no),
            items,
            next: 0,
            finish: Arc::clone(finish),
        };
        TimedClient::wrap(Box::new(s), Role::Terminal, probe)
    };
    // No step starts at or after this, so the power test stays out of the window.
    probe.lock().window_start = Time::MAX;
    let span_id = probe.enter("drive", 0);
    let t0 = wall_ns();

    let power_end = Arc::new(AtomicU64::new(0));
    let mut items = vec![TpchItem::Rf1];
    items.extend((1..=22).map(TpchItem::Query));
    items.push(TpchItem::Rf2);
    let mut driver = Driver::new();
    driver.add(0, stream(1_000, items, &power_end));
    driver.run_to_completion();
    let mut driver_steps = driver.steps();
    let start = power_end.load(Ordering::Relaxed);

    probe.lock().window_start = start;
    let window_open = Snap::take(db, start, probe.lock().txn_steps);
    let finish = Arc::new(AtomicU64::new(0));
    let mut driver = Driver::new();
    for s in 0..TPCH_STREAMS {
        let mut order: Vec<usize> = (1..=22).collect();
        order.rotate_left((s * 7) % 22);
        let items = order.into_iter().map(TpchItem::Query).collect();
        driver.add(start, stream(2_000 + s as u64, items, &finish));
    }
    driver.add(
        start,
        stream(3_000, vec![TpchItem::RfPair; TPCH_STREAMS], &finish),
    );
    driver.run_to_completion();
    let drive_ns = wall_ns() - t0;
    driver_steps += driver.steps();

    let end = finish.load(Ordering::Relaxed);
    probe.leave(span_id, end);
    let txns = probe.lock().take_slice();
    let window_close = Snap::take(db, end, probe.lock().txn_steps);
    let queries = (TPCH_STREAMS * 22) as f64;
    Driven {
        drive_ns,
        samples: vec![Slice {
            host_ns: drive_ns,
            txns,
        }],
        driver_steps,
        window_open,
        window_close,
        paper_tput_per_min: queries * MINUTE as f64 / (end - start).max(1) as f64,
    }
}

/// Close the rep: window metrics, then crash → `try_recover` → verify.
fn close_rep(probe: &Shared, setup_ns: u64, driven: Driven, loaded: Loaded) -> Rep {
    let Loaded {
        db,
        release,
        verify,
    } = loaded;
    let mut problems = Vec::new();
    let (a, b) = (&driven.window_open, &driven.window_close);
    let counters = window_counters(a, b, &db);
    let violations = b.audit_violations();
    if violations > 0 {
        problems.push(format!("{violations} SSD buffer-table audit violations"));
    }
    let log_bytes_at_crash = db.log().durable_len() as u64;
    drop(db);

    let mut lat = std::mem::take(&mut probe.lock().window_lat);
    lat.sort_unstable();
    let (tail_pct, tail_ns, tail_beyond) = stats::tail(&lat);
    let ms = |ns: u64| ns as f64 / MILLISECOND as f64;
    let virt = Virt {
        tput_per_min: lat.len() as f64 * MINUTE as f64 / (b.virt - a.virt).max(1) as f64,
        p50_ms: ms(stats::percentile(&lat, 0.50)),
        p95_ms: ms(stats::percentile(&lat, 0.95)),
        slow5_ms: stats::mean_of_slowest(&lat, 0.05) / MILLISECOND as f64,
        tail_ms: ms(tail_ns),
        tail_pct,
        tail_beyond: tail_beyond as u64,
        window_txns: lat.len() as u64,
        paper_tput_per_min: driven.paper_tput_per_min,
    };

    let s = probe.enter("crash", b.virt);
    let image = release().crash();
    probe.leave(s, b.virt);
    let s = probe.enter("recover", 0);
    let t0 = wall_ns();
    let recovered = Database::try_recover(image);
    let host_ns = wall_ns() - t0;
    let mut recovery = Recovery {
        host_ns,
        log_bytes_at_crash,
        ..Recovery::default()
    };
    let mut rows_verified = 0;
    match recovered {
        Ok((db, report)) => {
            probe.leave(s, report.duration);
            recovery.virt_ns = report.duration;
            recovery.records = report.stats.records_scanned as u64;
            recovery.writes_applied = report.stats.writes_applied as u64;
            if report.is_damaged() {
                problems.push("recovery reports a damaged log".into());
            }
            let s = probe.enter("verify", 0);
            let (rows, wrong) = verify(&db);
            probe.leave(s, 0);
            rows_verified = rows;
            if wrong > 0 {
                probe.lock().failed += wrong;
                problems.push(format!(
                    "{wrong} of {rows} rows differ from the committed ledger"
                ));
            }
        }
        Err(e) => {
            probe.leave(s, 0);
            problems.push(format!("recovery failed: {:?}", e.error));
        }
    }
    let failed = probe.lock().failed;
    if failed > 0 && problems.is_empty() {
        problems.push(format!("{failed} operations failed"));
    }
    Rep {
        setup_ns,
        drive_ns: driven.drive_ns,
        samples: driven.samples,
        txn_steps: b.txns,
        driver_steps: driven.driver_steps,
        virt,
        counters,
        recovery,
        rows_verified,
        peak_rss_mb: crate::host::peak_rss_mb(),
        probe: Probe::default(),
        problems,
    }
}
