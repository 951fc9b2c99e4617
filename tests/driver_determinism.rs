//! The driver's domain contract, end to end: for every SSD design and
//! several seeds, a fleet of share-nothing domains run in one driver
//! (one OS thread per domain) must be **bit-identical** to each domain
//! run alone in a driver of its own — same client steps, same final
//! virtual times, same SSD-manager and buffer-pool counters, same device
//! totals, and byte-identical page images on both the disk and SSD
//! stores. Brownout, transient-error and bit-flip scenarios re-run both
//! ways too, so fault replay keeps its same-seed guarantee.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use turbopool::core::{SsdConfig, SsdDesign};
use turbopool::engine::{Database, DbConfig, HeapId};
use turbopool::iosim::fault::{checksum, FaultConfig, FaultPlan};
use turbopool::iosim::rng::{Rng, SeedableRng, SmallRng};
use turbopool::iosim::store::MemStore;
use turbopool::iosim::{Clk, PageId, MICROSECOND, SECOND};
use turbopool::workload::driver::{CleanerClient, Client, Driver, StepResult};

const DESIGNS: [SsdDesign; 4] = [
    SsdDesign::CleanWrite,
    SsdDesign::DualWrite,
    SsdDesign::LazyCleaning,
    SsdDesign::Tac,
];

const DOMAINS: usize = 2;
const CLIENTS_PER_DOMAIN: usize = 3;
const OPS_PER_CLIENT: usize = 80;

/// Virtual horizon. The LC cleaner pseudo-client never finishes, so runs
/// are bounded by virtual time rather than `run_to_completion`; the
/// horizon is generous enough that every `HeapClient` drains its op
/// budget first.
const END: u64 = 30 * SECOND;

/// A transaction-stream client over one domain's database: inserts,
/// updates and point reads driven by a per-client seeded RNG, finishing
/// after a fixed op budget and publishing its final virtual time.
struct HeapClient {
    db: Arc<Database>,
    heap: HeapId,
    rng: SmallRng,
    rids: Vec<u64>,
    remaining: usize,
    final_time: Arc<AtomicU64>,
}

impl Client for HeapClient {
    fn step(&mut self, clk: &mut Clk) -> StepResult {
        if self.remaining == 0 {
            self.final_time.store(clk.now, Ordering::Relaxed);
            return StepResult::Done;
        }
        self.remaining -= 1;
        clk.elapse(10 * MICROSECOND);
        let mut txn = self.db.begin(clk);
        let kind = self.rng.gen_range(0u32..4);
        if kind == 0 || self.rids.is_empty() {
            let v: u8 = self.rng.gen();
            let mut rec = [0u8; 32];
            rec[0] = v;
            if let Ok(rid) = txn.heap_insert(self.heap, &rec) {
                self.rids.push(rid);
            }
        } else {
            let rid = self.rids[self.rng.gen_range(0..self.rids.len() as u64) as usize];
            if kind == 1 {
                if let Some(mut rec) = txn.heap_get(self.heap, rid) {
                    rec[1] = rec[1].wrapping_add(1);
                    txn.heap_update(self.heap, rid, &rec);
                }
            } else {
                txn.heap_get(self.heap, rid);
            }
        }
        assert!(txn.commit().is_committed());
        StepResult::Continue
    }
}

/// What to inject into every domain's SSD, mirroring the fault matrix.
#[derive(Clone, Copy, PartialEq)]
enum Fault {
    None,
    Transient,
    /// Frames damaged on their way to the SSD: each read of one misses
    /// its checksum.
    Bitflip,
    /// A mid-run SSD stall train: the stretched service and the throttle
    /// it trips must replay identically in a fleet and alone.
    Brownout,
}

/// One fully built scenario: `DOMAINS` share-nothing databases in one
/// driver (a fleet) or in a driver each (alone), plus the handles needed
/// to fingerprint the outcome.
struct Scenario {
    drivers: Vec<Driver>,
    dbs: Vec<Arc<Database>>,
    final_times: Vec<Arc<AtomicU64>>,
}

fn build(design: SsdDesign, seed: u64, fault: Fault, fleet: bool) -> Scenario {
    let mut dbs = Vec::new();
    let mut final_times = Vec::new();
    let n = if fleet { 1 } else { DOMAINS };
    let mut drivers: Vec<Driver> = (0..n).map(|_| Driver::new()).collect();
    for domain in 0..DOMAINS {
        let driver = &mut drivers[domain % n];
        let mut cfg = DbConfig::small_for_tests();
        cfg.pool.db_pages = 1024;
        cfg.pool.frames = 4;
        let mut s = SsdConfig::new(design, 64);
        s.partitions = 2;
        cfg.ssd = Some(s);
        let db = Arc::new(Database::open(cfg));
        let fault_seed = seed ^ domain as u64;
        let plan = match fault {
            Fault::None => None,
            Fault::Transient => Some(FaultConfig::transient(fault_seed, 0.05)),
            Fault::Bitflip => Some(FaultConfig {
                bitflip_prob: 0.05,
                ..FaultConfig::quiet(fault_seed)
            }),
            // Continuous brownout covering the whole active period (the
            // clients drain their op budgets well before t=10s); pure
            // function of virtual time, no RNG stream consumed.
            Fault::Brownout => Some(FaultConfig::brownout(fault_seed, 0, 10 * SECOND)),
        };
        if let Some(plan) = plan {
            db.io().set_ssd_fault(Some(Arc::new(FaultPlan::new(plan))));
        }
        let mut clk = Clk::new();
        let heap = db.create_heap(&mut clk, "data", 32, 256);
        for c in 0..CLIENTS_PER_DOMAIN {
            let final_time = Arc::new(AtomicU64::new(0));
            driver.add_in_domain(
                domain,
                0,
                Box::new(HeapClient {
                    db: Arc::clone(&db),
                    heap,
                    rng: SmallRng::seed_from_u64(
                        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (domain * 10 + c) as u64,
                    ),
                    rids: Vec::new(),
                    remaining: OPS_PER_CLIENT,
                    final_time: Arc::clone(&final_time),
                }),
            );
            final_times.push(final_time);
        }
        if let Some(cleaner) = CleanerClient::for_db(&db) {
            driver.add_in_domain(domain, 0, Box::new(cleaner));
        }
        dbs.push(db);
    }
    Scenario {
        drivers,
        dbs,
        final_times,
    }
}

/// Fold every page image of a store into one hash.
fn store_fingerprint(store: &MemStore) -> u64 {
    let mut buf = vec![0u8; store.page_size()];
    let mut h = 0u64;
    for pid in 0..store.num_pages() {
        store.read(PageId(pid), &mut buf);
        h = h.rotate_left(7) ^ checksum(&buf);
    }
    h
}

/// Everything the acceptance criterion compares, per scenario run.
#[derive(Debug, PartialEq)]
struct Outcome {
    steps: u64,
    /// Still-scheduled clients' clocks in registration order: an alone
    /// driver numbers its clients from 0, so ids are not compared;
    /// `final_times` pins which clients finished.
    scheduled_clocks: Vec<u64>,
    final_times: Vec<u64>,
    ssd_metrics: Vec<Option<turbopool::core::metrics::SsdMetricsSnapshot>>,
    pool: Vec<turbopool::bufpool::PoolStats>,
    policy: Vec<turbopool::bufpool::PolicyStats>,
    disk: Vec<turbopool::iosim::StatSnapshot>,
    ssd_dev: Vec<turbopool::iosim::StatSnapshot>,
    ssd_fault: Vec<Option<turbopool::iosim::fault::FaultStats>>,
    disk_images: Vec<u64>,
    ssd_images: Vec<u64>,
}

fn outcome(s: &Scenario) -> Outcome {
    let out = Outcome {
        steps: s.drivers.iter().map(Driver::steps).sum(),
        scheduled_clocks: s
            .drivers
            .iter()
            .flat_map(|d| d.clocks().into_iter().map(|(_, t)| t))
            .collect(),
        final_times: s
            .final_times
            .iter()
            .map(|t| t.load(Ordering::Relaxed))
            .collect(),
        ssd_metrics: s.dbs.iter().map(|db| db.ssd_metrics()).collect(),
        pool: s.dbs.iter().map(|db| db.pool_stats()).collect(),
        policy: s.dbs.iter().map(|db| db.policy_stats()).collect(),
        disk: s.dbs.iter().map(|db| db.io().disk_stats()).collect(),
        ssd_dev: s.dbs.iter().map(|db| db.io().ssd_stats()).collect(),
        ssd_fault: s
            .dbs
            .iter()
            .map(|db| db.io().ssd_fault().map(|p| p.stats()))
            .collect(),
        disk_images: s
            .dbs
            .iter()
            .map(|db| store_fingerprint(db.io().disk_store()))
            .collect(),
        ssd_images: s
            .dbs
            .iter()
            .map(|db| store_fingerprint(db.io().ssd_store()))
            .collect(),
    };
    // Domains are share-nothing, so no run — alone or in a fleet — may
    // ever find a table or partition latch held, and the auditor stays
    // clean. Equality across the two runs alone would not pin these to 0.
    for p in &out.pool {
        assert_eq!(p.shard_contended, 0, "contended pool latch");
    }
    for m in out.ssd_metrics.iter().flatten() {
        assert_eq!(m.shard_contended, 0, "contended SSD-table latch");
        assert_eq!(m.audit_violations, 0, "invariant auditor saw violations");
    }
    out
}

/// Each domain run alone, one driver after another: the reference.
fn sequential_outcome(design: SsdDesign, seed: u64, fault: Fault) -> Outcome {
    let mut s = build(design, seed, fault, false);
    s.drivers.iter_mut().for_each(|d| d.run_until(END));
    let out = outcome(&s);
    assert!(
        out.final_times.iter().all(|&t| t > 0),
        "horizon too short: a client did not drain its op budget"
    );
    out
}

/// All domains in one driver, one OS thread each.
fn parallel_outcome(design: SsdDesign, seed: u64, fault: Fault) -> Outcome {
    let mut s = build(design, seed, fault, true);
    s.drivers[0].run_until(END);
    outcome(&s)
}

#[test]
fn parallel_is_bit_identical_to_sequential_on_every_design() {
    for (i, &design) in DESIGNS.iter().enumerate() {
        for seed_no in 0..3u64 {
            let seed = 0xDE7E + 101 * i as u64 + seed_no;
            let seq = sequential_outcome(design, seed, Fault::None);
            assert!(seq.steps > 0);
            let par = parallel_outcome(design, seed, Fault::None);
            assert_eq!(
                par, seq,
                "{design:?} seed {seed}: the fleet diverged from its domains run alone"
            );
        }
    }
}

#[test]
fn parallel_replay_of_brownout_matches_sequential() {
    // Gray failure must replay bit-identically: same throttle and brownout
    // counters, same page images, in a fleet and alone. LC reads its
    // sole-copy dirty pages from the SSD however deep its queue; CW is the
    // simplest all-clean design — cover both.
    for design in [SsdDesign::CleanWrite, SsdDesign::LazyCleaning] {
        let seq = sequential_outcome(design, 0xB7007, Fault::Brownout);
        let par = parallel_outcome(design, 0xB7007, Fault::Brownout);
        assert_eq!(par, seq, "{design:?}: brownout fleet diverged from alone");
        // Non-vacuity: the brownout actually stretched SSD service.
        let f = seq.ssd_fault[0].as_ref().expect("plan attached");
        assert!(
            f.brownout_slowdowns > 0,
            "fault plan never scaled a request: {f:?}"
        );
    }
}

#[test]
fn parallel_replay_of_fault_injection_matches_sequential() {
    // Every design under both error streams: retries, checksum misses,
    // dirty-page protection (LC) and write-on-read admission (TAC) must
    // replay identically in a fleet and alone.
    for design in DESIGNS {
        for fault in [Fault::Transient, Fault::Bitflip] {
            let seq = sequential_outcome(design, 0xFA11, fault);
            let par = parallel_outcome(design, 0xFA11, fault);
            assert_eq!(par, seq, "{design:?}: faulty fleet diverged from alone");
            // The faults actually fired: this was not a vacuous comparison.
            let m = seq.ssd_metrics[0]
                .as_ref()
                .expect("every design has an SSD");
            assert!(m.ssd_io_errors > 0, "{design:?}: no error injected: {m:?}");
            if fault == Fault::Bitflip {
                assert!(
                    m.checksum_misses > 0,
                    "{design:?}: no flip read back: {m:?}"
                );
            }
        }
    }
}
