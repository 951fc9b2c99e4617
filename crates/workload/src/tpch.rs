//! TPC-H-lite: the scan-dominated decision-support workload.
//!
//! Twenty-two query templates over LINEITEM/ORDERS/CUSTOMER/PART/SUPPLIER,
//! each realized as one of four plan shapes:
//!
//! * **A** — full LINEITEM scan with aggregation (Q1/Q6-like): pure
//!   sequential I/O through the read-ahead path, never admitted to the SSD.
//! * **B** — index nested-loop over a selective ORDERS range, probing
//!   LINEITEM through its index: the *random* LINEITEM lookups the paper
//!   credits for TPC-H's SSD speedups (§4.4). LINEITEM rows are loaded in
//!   scrambled order, so probes scatter physically (a non-clustered access
//!   pattern).
//! * **C** — ORDERS scan joined to CUSTOMER by index probes (mixed).
//! * **D** — small-table (PART/SUPPLIER) scans plus a few LINEITEM probes.
//!
//! The power test runs the 22 queries plus RF1/RF2 serially; the
//! throughput test runs several permuted streams concurrently plus a
//! refresh stream, per the benchmark's structure. Metrics follow the
//! spec's formulas (Power@SF, Throughput@SF, QphH = their geometric mean).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use turbopool_engine::{bulk_load_heap, bulk_load_index, Database, HeapId, IndexId};
use turbopool_iosim::rng::Rng;
use turbopool_iosim::rng::SmallRng;
use turbopool_iosim::sync::Mutex;
use turbopool_iosim::{Clk, Time, MILLISECOND, SECOND};

use crate::driver::{Client, StepResult};
use crate::rand_util::client_rng;
use crate::scenario::{build_db, put_u64s, Design, SystemSpec, SCALE};

/// Scaled rows per SF unit.
pub const LINEITEM_PER_SF: u64 = 6_000;
pub const ORDERS_PER_SF: u64 = 1_500;
pub const CUSTOMER_PER_SF: u64 = 150;
pub const PART_PER_SF: u64 = 200;
pub const SUPPLIER_PER_SF: u64 = 15;
/// Lines per order.
pub const LINES_PER_ORDER: u64 = 4;

const REC: usize = 128;

/// CPU charged per page aggregated during a scan (time-scaled: ~25 µs of
/// real per-page aggregation work).
const CPU_PER_PAGE: Time = 25 * SCALE as Time * MILLISECOND / 1000;
/// CPU charged per index probe.
const CPU_PER_PROBE: Time = SCALE as Time * MILLISECOND / 1000;

fn pages_for(rows: u64, page_size: usize) -> u64 {
    let slots = (page_size / (1 + REC)) as u64;
    rows.div_ceil(slots)
}

fn index_extent(keys: u64, page_size: usize) -> u64 {
    let cap = ((page_size - 16) / 16) as f64 * 0.7;
    ((keys as f64 / cap * 1.6) as u64).max(8) + 8
}

/// Plan shape of a query template.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Shape {
    ScanLineitem,
    IndexJoin,
    OrdersCustomer,
    SmallTables,
}

/// The 22 query templates: (shape, selectivity fraction).
/// Shapes and fractions are chosen so scan queries dominate elapsed time
/// while several queries are gated by random LINEITEM index lookups — the
/// workload structure §4.4 describes.
const QUERIES: [(Shape, f64); 22] = [
    (Shape::ScanLineitem, 1.0),    // Q1
    (Shape::SmallTables, 0.02),    // Q2
    (Shape::OrdersCustomer, 0.30), // Q3
    (Shape::IndexJoin, 0.00060),   // Q4
    (Shape::OrdersCustomer, 0.20), // Q5
    (Shape::ScanLineitem, 1.0),    // Q6
    (Shape::OrdersCustomer, 0.25), // Q7
    (Shape::OrdersCustomer, 0.15), // Q8
    (Shape::IndexJoin, 0.00070),   // Q9
    (Shape::OrdersCustomer, 0.25), // Q10
    (Shape::SmallTables, 0.05),    // Q11
    (Shape::IndexJoin, 0.00050),   // Q12
    (Shape::OrdersCustomer, 0.50), // Q13
    (Shape::ScanLineitem, 1.0),    // Q14
    (Shape::ScanLineitem, 1.0),    // Q15
    (Shape::SmallTables, 0.10),    // Q16
    (Shape::IndexJoin, 0.00025),   // Q17
    (Shape::IndexJoin, 0.00080),   // Q18
    (Shape::IndexJoin, 0.00030),   // Q19
    (Shape::IndexJoin, 0.00035),   // Q20
    (Shape::IndexJoin, 0.00070),   // Q21
    (Shape::OrdersCustomer, 0.10), // Q22
];

/// Lineitem index key.
pub fn li_key(orderkey: u64, line: u64) -> u64 {
    orderkey * LINES_PER_ORDER + line
}

struct RfState {
    next_orderkey: u64,
    inserted: Vec<u64>,
}

/// One TPC-H database.
pub struct Tpch {
    pub db: Arc<Database>,
    pub sf: u64,
    h_lineitem: HeapId,
    h_orders: HeapId,
    h_customer: HeapId,
    h_part: HeapId,
    h_supplier: HeapId,
    i_lineitem: IndexId,
    i_orders: IndexId,
    seed: u64,
    rf: Mutex<RfState>,
}

impl Tpch {
    pub fn orders_rows(sf: u64) -> u64 {
        sf * ORDERS_PER_SF
    }

    /// Pages needed at scale factor `sf` (with refresh growth headroom).
    pub fn db_pages(sf: u64, page_size: usize) -> u64 {
        let li = sf * LINEITEM_PER_SF;
        let ord = sf * ORDERS_PER_SF;
        pages_for(li * 11 / 10, page_size)
            + pages_for(ord * 11 / 10, page_size)
            + pages_for(sf * CUSTOMER_PER_SF, page_size)
            + pages_for(sf * PART_PER_SF, page_size)
            + pages_for(sf * SUPPLIER_PER_SF, page_size)
            + index_extent(li * 11 / 10, page_size)
            + index_extent(ord * 11 / 10, page_size)
            + 2
            + 64
    }

    /// Build and bulk-load a TPC-H database at scale factor `sf`.
    pub fn setup(design: Design, sf: u64, lambda: f64) -> Tpch {
        let page_size = crate::scenario::PAGE_SIZE;
        let mut spec = SystemSpec::paper(design, Self::db_pages(sf, page_size));
        spec.ssd(|s| s.lambda = lambda);
        let db = build_db(&spec);
        let mut clk = Clk::new();
        let li = sf * LINEITEM_PER_SF;
        let ord = sf * ORDERS_PER_SF;

        let h_lineitem = db.create_heap(
            &mut clk,
            "lineitem",
            REC,
            pages_for(li * 11 / 10, page_size),
        );
        let h_orders = db.create_heap(&mut clk, "orders", REC, pages_for(ord * 11 / 10, page_size));
        let h_customer = db.create_heap(
            &mut clk,
            "customer",
            REC,
            pages_for(sf * CUSTOMER_PER_SF, page_size),
        );
        let h_part = db.create_heap(
            &mut clk,
            "part",
            REC,
            pages_for(sf * PART_PER_SF, page_size),
        );
        let h_supplier = db.create_heap(
            &mut clk,
            "supplier",
            REC,
            pages_for(sf * SUPPLIER_PER_SF, page_size),
        );
        let i_lineitem = db.create_index(
            &mut clk,
            "lineitem_pk",
            index_extent(li * 11 / 10, page_size),
        );
        let i_orders = db.create_index(
            &mut clk,
            "orders_pk",
            index_extent(ord * 11 / 10, page_size),
        );

        // LINEITEM loaded in scrambled physical order: the row at rid i
        // holds logical line `scramble(i)`, and the index maps a logical
        // key to the smallest rid holding it. `scramble` is not a bijection
        // (DESIGN §6): some keys have several rids and some none.
        let scramble = |i: u64| -> u64 { i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (li) };
        bulk_load_heap(&db, h_lineitem, li, |rid, rec| {
            let logical = scramble(rid);
            put_u64s(
                rec,
                &[
                    (0, logical),
                    (8, logical / LINES_PER_ORDER),
                    (16, logical % 100),
                ],
            )
        });
        let mut first_rid = vec![u64::MAX; li as usize];
        for rid in 0..li {
            let first = &mut first_rid[scramble(rid) as usize];
            *first = (*first).min(rid);
        }
        let line_pairs = (0..li).zip(first_rid).filter(|&(_, rid)| rid != u64::MAX);
        bulk_load_index(&db, i_lineitem, line_pairs, 0.7);

        bulk_load_heap(&db, h_orders, ord, |o, rec| {
            put_u64s(
                rec,
                &[(0, o), (8, o % (sf * CUSTOMER_PER_SF)), (16, o % 365)],
            )
        });
        bulk_load_index(&db, i_orders, (0..ord).map(|o| (o, o)), 0.7);
        bulk_load_heap(&db, h_customer, sf * CUSTOMER_PER_SF, |c, rec| {
            put_u64s(rec, &[(0, c), (8, c % 25)])
        });
        bulk_load_heap(&db, h_part, sf * PART_PER_SF, |p, rec| {
            put_u64s(rec, &[(0, p), (8, p % 50)])
        });
        bulk_load_heap(&db, h_supplier, sf * SUPPLIER_PER_SF, |s, rec| {
            put_u64s(rec, &[(0, s), (8, s % 25)])
        });

        Tpch {
            db,
            sf,
            h_lineitem,
            h_orders,
            h_customer,
            h_part,
            h_supplier,
            i_lineitem,
            i_orders,
            seed: spec.seed,
            rf: Mutex::new(RfState {
                next_orderkey: ord,
                inserted: Vec::new(),
            }),
        }
    }

    // ------------------------------------------------------------------
    // Query execution
    // ------------------------------------------------------------------

    /// Run query template `q` (1-based); returns its virtual duration.
    pub fn run_query(&self, clk: &mut Clk, q: usize, rng: &mut SmallRng) -> Time {
        let start = clk.now;
        let (shape, frac) = QUERIES[q - 1];
        match shape {
            Shape::ScanLineitem => self.scan_lineitem(clk),
            Shape::IndexJoin => self.index_join(clk, frac, rng),
            Shape::OrdersCustomer => self.orders_customer(clk, frac, rng),
            Shape::SmallTables => self.small_tables(clk, frac, rng),
        }
        clk.now - start
    }

    fn scan_lineitem(&self, clk: &mut Clk) {
        let mut rows = 0u64;
        let mut acc = 0u64;
        self.db
            .scan_heap(clk, self.h_lineitem, |_, rec| {
                rows += 1;
                acc = acc.wrapping_add(u64::from_le_bytes(rec[16..24].try_into().unwrap()));
            })
            .unwrap();
        let pages = self.db.heap_meta(self.h_lineitem).used_pages();
        clk.elapse(pages * CPU_PER_PAGE);
        std::hint::black_box(acc);
    }

    fn index_join(&self, clk: &mut Clk, frac: f64, rng: &mut SmallRng) {
        let orders = Self::orders_rows(self.sf);
        let count = ((orders as f64 * frac) as u64).max(1);
        let start = rng.gen_range(0..orders.saturating_sub(count).max(1));
        let mut txn = self.db.begin(clk);
        for o in start..start + count {
            let Some(orid) = txn.index_get(self.i_orders, o) else {
                continue;
            };
            txn.heap_get(self.h_orders, orid);
            // Probe the order's lines through the index: random I/O into
            // the scrambled LINEITEM heap.
            let lines = txn.index_range(
                self.i_lineitem,
                li_key(o, 0),
                li_key(o, LINES_PER_ORDER - 1),
                LINES_PER_ORDER as usize,
            );
            for (_, lrid) in lines {
                txn.heap_get(self.h_lineitem, lrid);
            }
            txn.clk.elapse(CPU_PER_PROBE);
        }
        txn.commit();
    }

    fn orders_customer(&self, clk: &mut Clk, frac: f64, rng: &mut SmallRng) {
        // Scan ORDERS; probe CUSTOMER for a sampled subset of rows.
        let customers = self.sf * CUSTOMER_PER_SF;
        let target_probes = ((2_000.0 * frac) as u64).max(10);
        let orders = Self::orders_rows(self.sf);
        let every = (orders / target_probes).max(1);
        let offset = rng.gen_range(0..every);
        let mut probes: Vec<u64> = Vec::new();
        self.db
            .scan_heap(clk, self.h_orders, |rid, rec| {
                if rid % every == offset {
                    let cust = u64::from_le_bytes(rec[8..16].try_into().unwrap());
                    probes.push(cust % customers);
                }
            })
            .unwrap();
        let pages = self.db.heap_meta(self.h_orders).used_pages();
        clk.elapse(pages * CPU_PER_PAGE);
        let mut txn = self.db.begin(clk);
        for c in probes {
            txn.heap_get(self.h_customer, c);
            txn.clk.elapse(CPU_PER_PROBE);
        }
        txn.commit();
    }

    fn small_tables(&self, clk: &mut Clk, frac: f64, rng: &mut SmallRng) {
        let mut acc = 0u64;
        self.db
            .scan_heap(clk, self.h_part, |_, rec| {
                acc = acc.wrapping_add(rec[8] as u64);
            })
            .unwrap();
        self.db
            .scan_heap(clk, self.h_supplier, |_, rec| {
                acc = acc.wrapping_add(rec[8] as u64);
            })
            .unwrap();
        let pages = self.db.heap_meta(self.h_part).used_pages()
            + self.db.heap_meta(self.h_supplier).used_pages();
        clk.elapse(pages * CPU_PER_PAGE);
        std::hint::black_box(acc);
        // A few LINEITEM probes.
        let li = self.sf * LINEITEM_PER_SF;
        let probes = ((li as f64 * frac * 0.01) as u64).max(5);
        let mut txn = self.db.begin(clk);
        for _ in 0..probes {
            let k = rng.gen_range(0..li);
            if let Some(rid) = txn.index_get(self.i_lineitem, k) {
                txn.heap_get(self.h_lineitem, rid);
            }
            txn.clk.elapse(CPU_PER_PROBE);
        }
        txn.commit();
    }

    /// RF1: insert a batch of new orders with their lines; returns its
    /// virtual duration.
    pub fn rf1(&self, clk: &mut Clk) -> Time {
        let start = clk.now;
        let n = (self.sf * 3 / 2).max(8);
        let first = {
            let mut rf = self.rf.lock();
            let first = rf.next_orderkey;
            rf.next_orderkey += n;
            rf.inserted.extend(first..first + n);
            first
        };
        let mut txn = self.db.begin(clk);
        for o in first..first + n {
            let mut rec = vec![0u8; REC];
            rec[0..8].copy_from_slice(&o.to_le_bytes());
            let orid = txn.heap_insert(self.h_orders, &rec).expect("orders full");
            txn.index_insert(self.i_orders, o, orid);
            for l in 0..LINES_PER_ORDER {
                let mut lrec = vec![0u8; REC];
                lrec[0..8].copy_from_slice(&li_key(o, l).to_le_bytes());
                let lrid = txn.heap_insert(self.h_lineitem, &lrec).expect("li full");
                txn.index_insert(self.i_lineitem, li_key(o, l), lrid);
            }
        }
        txn.commit();
        clk.now - start
    }

    /// RF2: delete the oldest refresh batch; returns its virtual duration.
    pub fn rf2(&self, clk: &mut Clk) -> Time {
        let start = clk.now;
        let n = (self.sf * 3 / 2).max(8) as usize;
        let victims: Vec<u64> = {
            let mut rf = self.rf.lock();
            let take = n.min(rf.inserted.len());
            rf.inserted.drain(..take).collect()
        };
        let mut txn = self.db.begin(clk);
        for o in victims {
            if let Some(orid) = txn.index_get(self.i_orders, o) {
                txn.heap_delete(self.h_orders, orid);
                txn.index_delete(self.i_orders, o);
            }
            for l in 0..LINES_PER_ORDER {
                if let Some(lrid) = txn.index_get(self.i_lineitem, li_key(o, l)) {
                    txn.heap_delete(self.h_lineitem, lrid);
                    txn.index_delete(self.i_lineitem, li_key(o, l));
                }
            }
        }
        txn.commit();
        clk.now - start
    }

    // ------------------------------------------------------------------
    // Power & throughput tests
    // ------------------------------------------------------------------

    /// The power test: RF1, the 22 queries serially, RF2 — all timed.
    pub fn power_test(&self, clk: &mut Clk) -> PowerResult {
        let mut rng = client_rng(self.seed, 1_000);
        let mut timings = Vec::with_capacity(24);
        timings.push(("RF1".to_string(), self.rf1(clk)));
        for q in 1..=22 {
            let t = self.run_query(clk, q, &mut rng);
            timings.push((format!("Q{q}"), t));
        }
        timings.push(("RF2".to_string(), self.rf2(clk)));
        // Power@SF = 3600 * SF / geomean(all 24 timings in seconds).
        let geo = geomean_secs(timings.iter().map(|(_, t)| *t));
        PowerResult {
            power: 3600.0 * self.sf as f64 / geo,
            timings,
        }
    }

    /// The throughput test's clients: `streams` query streams (each runs
    /// the 22 queries in a rotated order) plus one refresh stream running
    /// `streams` RF pairs, all to start at time 0. Each stream raises
    /// `finish` to its finish time, so once they are done it holds the
    /// test's elapsed time.
    pub fn throughput_test(
        self: &Arc<Self>,
        streams: usize,
        finish: &Arc<AtomicU64>,
    ) -> Vec<Box<dyn Client>> {
        let stream = |rng_no: u64, items: Vec<Item>| -> Box<dyn Client> {
            Box::new(Stream {
                t: Arc::clone(self),
                rng: client_rng(self.seed, rng_no),
                items,
                next: 0,
                finish: Arc::clone(finish),
            })
        };
        let queries = |s: usize| rotated_order(s).map(Item::Query).collect();
        let mut clients: Vec<_> = (0..streams)
            .map(|s| stream(2_000 + s as u64, queries(s)))
            .collect();
        clients.push(stream(3_000, vec![Item::RfPair; streams]));
        clients
    }

    /// Throughput@SF of a `streams`-stream throughput test whose slowest
    /// stream finished at `elapsed`.
    pub fn throughput(&self, streams: usize, elapsed: Time) -> f64 {
        let ts_secs = elapsed as f64 / SECOND as f64;
        streams as f64 * 22.0 * 3600.0 / ts_secs * self.sf as f64
    }
}

fn rotated_order(stream: usize) -> impl Iterator<Item = usize> {
    (0..22).map(move |i| (i + stream * 7) % 22 + 1)
}

fn geomean_secs(timings: impl Iterator<Item = Time>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for t in timings {
        let secs = (t as f64 / SECOND as f64).max(1e-6);
        log_sum += secs.ln();
        n += 1;
    }
    (log_sum / n as f64).exp()
}

/// Power-test output.
pub struct PowerResult {
    /// Power@SF.
    pub power: f64,
    /// Per-item timings (RF1, Q1..Q22, RF2).
    pub timings: Vec<(String, Time)>,
}

/// The composite metric: QphH@SF = sqrt(Power * Throughput).
pub fn qphh(power: f64, throughput: f64) -> f64 {
    (power * throughput).sqrt()
}

/// One unit of a throughput-test stream.
#[derive(Copy, Clone)]
enum Item {
    Query(usize),
    RfPair,
}

/// A throughput-test stream: runs its items in order, then raises
/// `finish` to its finish time.
struct Stream {
    t: Arc<Tpch>,
    rng: SmallRng,
    items: Vec<Item>,
    next: usize,
    finish: Arc<AtomicU64>,
}

impl Client for Stream {
    fn step(&mut self, clk: &mut Clk) -> StepResult {
        let Some(&item) = self.items.get(self.next) else {
            return StepResult::Done;
        };
        self.next += 1;
        match item {
            Item::Query(q) => _ = self.t.run_query(clk, q, &mut self.rng),
            Item::RfPair => _ = (self.t.rf1(clk), self.t.rf2(clk)),
        }
        if self.next < self.items.len() {
            return StepResult::Continue;
        }
        self.finish.fetch_max(clk.now, Ordering::Relaxed);
        StepResult::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_matches_paper_targets() {
        // SF 100 ≈ 160 GB.
        let pages = Tpch::db_pages(100, crate::scenario::PAGE_SIZE);
        let target = crate::scenario::gb_to_pages(160.0);
        let ratio = pages as f64 / target as f64;
        assert!((0.7..1.3).contains(&ratio), "pages {pages} target {target}");
    }

    #[test]
    fn scan_query_is_sequential_dominated() {
        let t = Arc::new(Tpch::setup(Design::NoSsd, 2, 0.01));
        let mut clk = Clk::new();
        let mut rng = client_rng(0, 0);
        t.run_query(&mut clk, 1, &mut rng); // Q1: full lineitem scan
        let s = t.db.io().disk_stats();
        // Multi-page sequential requests: far fewer ops than pages.
        assert!(s.read_pages > 3 * s.read_ops, "{s:?}");
    }

    #[test]
    fn index_join_issues_random_lineitem_reads() {
        let t = Arc::new(Tpch::setup(Design::NoSsd, 2, 0.01));
        let mut clk = Clk::new();
        let mut rng = client_rng(0, 0);
        let before = t.db.pool_stats().misses;
        t.run_query(&mut clk, 18, &mut rng); // Q18: index join
        let after = t.db.pool_stats().misses;
        assert!(after > before + 5, "index join should miss randomly");
    }

    #[test]
    fn rf_pair_round_trips() {
        let t = Arc::new(Tpch::setup(Design::NoSsd, 1, 0.01));
        let mut clk = Clk::new();
        let before = t.db.heap_meta(t.h_orders).next.load(Ordering::Relaxed);
        t.rf1(&mut clk);
        let mid = t.db.heap_meta(t.h_orders).next.load(Ordering::Relaxed);
        assert!(mid > before);
        t.rf2(&mut clk);
        // Deletions leave holes (slots not reused) but index entries gone.
        let mut txn = t.db.begin(&mut clk);
        let key = Tpch::orders_rows(1); // first refresh order key
        assert_eq!(txn.index_get(t.i_orders, key), None);
        txn.commit();
    }

    #[test]
    fn power_test_produces_metric() {
        let t = Arc::new(Tpch::setup(Design::Dw, 1, 0.01));
        let mut clk = Clk::new();
        let r = t.power_test(&mut clk);
        assert_eq!(r.timings.len(), 24);
        assert!(r.power > 0.0);
        assert!(r.timings.iter().all(|(_, t)| *t > 0));
    }

    #[test]
    fn throughput_test_produces_metric() {
        let run = &crate::runs::run_tpch(1, 2, &[Design::Dw])[0];
        assert!(run.throughput > 0.0, "{}", run.throughput);
    }

    #[test]
    fn qphh_is_geometric_mean() {
        assert!((qphh(100.0, 400.0) - 200.0).abs() < 1e-9);
    }
}
