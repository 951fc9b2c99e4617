//! TPC-C-lite: the update-intensive, highly skewed OLTP workload.
//!
//! A scaled-down TPC-C with the properties the paper's analysis leans on:
//! the standard five-transaction mix (NewOrder 45%, Payment 43%,
//! OrderStatus / Delivery / StockLevel 4% each), NURand skew ("75% of the
//! accesses are to about 20% of the pages"), roughly one write access per
//! two reads, index-driven random I/O, and insert-driven growth of the
//! order tables over the run. One *scaled warehouse* stands in for 100
//! paper warehouses, so the 1K/2K/4K-warehouse databases (100/200/400 GB)
//! become 10/20/40 scaled warehouses at 1/[`crate::SCALE`] the bytes.
//!
//! The metric is tpmC: NewOrder transactions committed per minute.

use std::sync::Arc;

use turbopool_engine::{bulk_load_heap, bulk_load_index, Database, HeapId, IndexId};
use turbopool_iosim::rng::Rng;
use turbopool_iosim::rng::SmallRng;
use turbopool_iosim::{Clk, Time, MILLISECOND};

use crate::driver::{Client, StepResult, ThroughputRecorder};
use crate::rand_util::{client_rng, nurand};
use crate::scenario::{
    heap_pages, index_extent, put_u64s, u64_at, Design, Opened, Schema, SystemSpec, INDEX_FILL,
    PAGE_SIZE, SCALE,
};

/// Items in the (global) item table.
pub const ITEMS: u64 = 10_000;
/// Districts per scaled warehouse.
pub const DISTRICTS: u64 = 10;
/// Customers per district.
pub const CUST_PER_DIST: u64 = 600;
/// Stock rows per scaled warehouse (one per item).
pub const STOCK_PER_W: u64 = ITEMS;
/// Preloaded (historical) orders per district.
pub const PRELOAD_ORDERS: u64 = 200;
/// Average order lines per order.
pub const AVG_OL: u64 = 10;

const REC_ITEM: usize = 64;
const REC_STOCK: usize = 256;
const REC_CUSTOMER: usize = 192;
const REC_DISTRICT: usize = 64;
const REC_WAREHOUSE: usize = 64;
const REC_ORDER: usize = 48;
const REC_ORDER_LINE: usize = 48;
const REC_HISTORY: usize = 48;
const REC_NEW_ORDER: usize = 16;

/// Default headroom multiplier for tables that grow during the run
/// (sized for the paper's 10-hour runs; tests with tiny, fully-cached
/// databases can pass a larger multiplier via [`Tpcc::setup_opt`]).
const GROWTH: u64 = 3;

/// CPU cost charged per transaction, already time-scaled: ~2.4 core-ms of
/// 2009-Xeon work per NewOrder (the paper's box tops out near 3,300 TPC-C
/// transactions/s on CPU alone).
const CPU_NEW_ORDER: Time = (2.4 * SCALE) as Time * MILLISECOND / 1000 * 1000;
const CPU_LIGHT: Time = SCALE as Time * MILLISECOND / 1000 * 1000;

/// Key encodings (one global heap+index per table, composite keys).
pub fn stock_key(w: u64, i: u64) -> u64 {
    w * ITEMS + i
}
pub fn cust_key(w: u64, d: u64, c: u64) -> u64 {
    (w * DISTRICTS + d) * CUST_PER_DIST + c
}
fn district_no(w: u64, d: u64) -> u64 {
    w * DISTRICTS + d
}
pub fn order_key(w: u64, d: u64, o: u64) -> u64 {
    (district_no(w, d) << 40) | o
}
pub fn ol_key(w: u64, d: u64, o: u64, l: u64) -> u64 {
    (district_no(w, d) << 40) | (o << 8) | l
}

/// Table handles plus sizing for one TPC-C database.
pub struct Tpcc {
    pub db: Arc<Database>,
    pub warehouses: u64,
    h_item: HeapId,
    h_stock: HeapId,
    h_customer: HeapId,
    h_district: HeapId,
    h_warehouse: HeapId,
    h_orders: HeapId,
    h_order_line: HeapId,
    h_history: HeapId,
    h_new_order: HeapId,
    i_stock: IndexId,
    i_customer: IndexId,
    i_orders: IndexId,
    i_order_line: IndexId,
    i_last_order: IndexId,
    seed: u64,
}

impl Tpcc {
    /// The tables of `sw` scaled warehouses, the order tables with room
    /// for `growth` times their preload.
    fn schema(sw: u64, page_size: usize, growth: u64) -> Schema<9, 5> {
        let heap = |name, rec, rows| (name, rec, heap_pages(rows, rec, page_size));
        let index = |name, keys| (name, index_extent(keys, page_size));
        let customers = sw * DISTRICTS * CUST_PER_DIST;
        let orders = sw * DISTRICTS * PRELOAD_ORDERS * growth.max(1);
        Schema {
            heaps: [
                heap("item", REC_ITEM, ITEMS),
                heap("stock", REC_STOCK, sw * STOCK_PER_W),
                heap("customer", REC_CUSTOMER, customers),
                heap("district", REC_DISTRICT, sw * DISTRICTS),
                heap("warehouse", REC_WAREHOUSE, sw),
                heap("orders", REC_ORDER, orders),
                heap("order_line", REC_ORDER_LINE, orders * AVG_OL),
                heap("history", REC_HISTORY, orders),
                heap("new_order", REC_NEW_ORDER, orders),
            ],
            indexes: [
                index("stock_pk", sw * STOCK_PER_W),
                index("customer_pk", customers),
                index("orders_pk", orders),
                index("order_line_pk", orders * AVG_OL),
                index("customer_last_order", customers),
            ],
            slack: 64,
        }
    }

    /// Database pages needed for `sw` scaled warehouses (data + indexes +
    /// growth headroom).
    pub fn db_pages(sw: u64, page_size: usize) -> u64 {
        Self::schema(sw, page_size, GROWTH).pages()
    }

    /// Build and bulk-load (backup-restore style) a TPC-C database of `sw`
    /// scaled warehouses under the given design.
    pub fn setup(design: Design, sw: u64, lambda: f64) -> Tpcc {
        Self::setup_opt(design, sw, lambda, GROWTH)
    }

    /// Like [`Tpcc::setup`] with an explicit growth multiplier for the
    /// order tables (long runs on tiny, fully-cached databases need more
    /// headroom than the paper-proportioned default).
    pub fn setup_opt(design: Design, sw: u64, lambda: f64, growth: u64) -> Tpcc {
        Self::setup_opt_tweak(design, sw, lambda, growth, |_| {})
    }

    /// Like [`Tpcc::setup`] with a hook that edits the [`SystemSpec`]
    /// before the database opens (the benchmark's seed, alternative τ/μ,
    /// …).
    pub fn setup_tweak(
        design: Design,
        sw: u64,
        lambda: f64,
        tweak: impl FnOnce(&mut SystemSpec),
    ) -> Tpcc {
        Self::setup_opt_tweak(design, sw, lambda, GROWTH, tweak)
    }

    fn setup_opt_tweak(
        design: Design,
        sw: u64,
        lambda: f64,
        growth: u64,
        tweak: impl FnOnce(&mut SystemSpec),
    ) -> Tpcc {
        let Opened {
            db,
            seed,
            heaps:
                [h_item, h_stock, h_customer, h_district, h_warehouse, h_orders, h_order_line, h_history, h_new_order],
            indexes: [i_stock, i_customer, i_orders, i_order_line, i_last_order],
        } = Self::schema(sw, PAGE_SIZE, growth).open(design, Some(lambda), tweak);
        let (stock, customers) = (sw * STOCK_PER_W, sw * DISTRICTS * CUST_PER_DIST);
        let preload_orders = sw * DISTRICTS * PRELOAD_ORDERS;

        // --- bulk load (restore-from-backup path; no simulated I/O) ---
        bulk_load_heap(&db, h_item, ITEMS, |i, rec| {
            put_u64s(rec, &[(0, 100 + i % 900)])
        });
        bulk_load_heap(&db, h_stock, stock, |_, rec| put_u64s(rec, &[(0, 50)]));
        bulk_load_heap(&db, h_customer, customers, |_, rec| {
            put_u64s(rec, &[(0, 1000)])
        });
        bulk_load_heap(&db, h_district, sw * DISTRICTS, |_, rec| {
            put_u64s(rec, &[(0, PRELOAD_ORDERS), (8, PRELOAD_ORDERS)])
        });
        bulk_load_heap(&db, h_warehouse, sw, |_, _| {});

        // Preloaded order history: PRELOAD_ORDERS per district, AVG_OL
        // lines each, delivered. Order rid `r` is order `r % PRELOAD_ORDERS`
        // of district `r / PRELOAD_ORDERS` and owns line rids `r * AVG_OL..`,
        // so rid order is key order for both tables.
        let order = |rid: u64| {
            let district = rid / PRELOAD_ORDERS;
            (
                district / DISTRICTS,
                district % DISTRICTS,
                rid % PRELOAD_ORDERS,
            )
        };
        let customer_of = |o: u64| (o * 7) % CUST_PER_DIST;
        bulk_load_heap(&db, h_orders, preload_orders, |rid, rec| {
            let o = order(rid).2;
            put_u64s(rec, &[(0, o), (8, customer_of(o)), (16, AVG_OL), (24, 1)])
        });
        bulk_load_heap(&db, h_order_line, preload_orders * AVG_OL, |lrid, rec| {
            let (o, l) = (order(lrid / AVG_OL).2, lrid % AVG_OL);
            put_u64s(rec, &[(0, (o * 31 + l * 17) % ITEMS), (8, 5), (24, 1)])
        });
        bulk_load_index(&db, i_stock, (0..stock).map(|k| (k, k)), INDEX_FILL);
        bulk_load_index(&db, i_customer, (0..customers).map(|k| (k, k)), INDEX_FILL);
        let order_idx = (0..preload_orders).map(|rid| {
            let (w, d, o) = order(rid);
            (order_key(w, d, o), rid)
        });
        bulk_load_index(&db, i_orders, order_idx, INDEX_FILL);
        let line_idx = (0..preload_orders * AVG_OL).map(|lrid| {
            let (w, d, o) = order(lrid / AVG_OL);
            (ol_key(w, d, o, lrid % AVG_OL), lrid)
        });
        bulk_load_index(&db, i_order_line, line_idx, INDEX_FILL);
        // Each customer's latest order (upsert order): per district, one
        // slot per customer keeps the greatest rid, then customers go out
        // in key order.
        let last_order = (0..sw * DISTRICTS).flat_map(|district| {
            let mut last = [None; CUST_PER_DIST as usize];
            for o in 0..PRELOAD_ORDERS {
                last[customer_of(o) as usize] = Some(district * PRELOAD_ORDERS + o);
            }
            let (w, d) = (district / DISTRICTS, district % DISTRICTS);
            (0..CUST_PER_DIST)
                .filter_map(move |c| last[c as usize].map(|rid| (cust_key(w, d, c), rid)))
        });
        bulk_load_index(&db, i_last_order, last_order, INDEX_FILL);

        Tpcc {
            db,
            warehouses: sw,
            h_item,
            h_stock,
            h_customer,
            h_district,
            h_warehouse,
            h_orders,
            h_order_line,
            h_history,
            h_new_order,
            i_stock,
            i_customer,
            i_orders,
            i_order_line,
            i_last_order,
            seed,
        }
    }

    /// A terminal (transaction stream). NewOrder commits are recorded into
    /// `tpmc`.
    pub fn client(self: &Arc<Self>, client_no: u64, tpmc: Arc<ThroughputRecorder>) -> TpccClient {
        TpccClient {
            t: Arc::clone(self),
            rng: client_rng(self.seed, client_no),
            tpmc,
        }
    }
}

/// One TPC-C terminal.
pub struct TpccClient {
    t: Arc<Tpcc>,
    rng: SmallRng,
    tpmc: Arc<ThroughputRecorder>,
}

impl TpccClient {
    fn pick_customer(&mut self) -> u64 {
        nurand(&mut self.rng, 1023, 7, 0, CUST_PER_DIST - 1)
    }

    fn pick_item(&mut self) -> u64 {
        nurand(&mut self.rng, 8191, 11, 0, ITEMS - 1)
    }

    fn new_order(&mut self, clk: &mut Clk) {
        let t = Arc::clone(&self.t);
        let w = self.rng.gen_range(0..t.warehouses);
        let d = self.rng.gen_range(0..DISTRICTS);
        let c = self.pick_customer();
        let ol_cnt = self.rng.gen_range(5..=15u64);
        let items: Vec<(u64, u64)> = (0..ol_cnt)
            .map(|_| {
                let i = self.pick_item();
                // 1% of lines hit a remote warehouse's stock.
                let sw = if self.rng.gen_ratio(1, 100) && t.warehouses > 1 {
                    self.rng.gen_range(0..t.warehouses)
                } else {
                    w
                };
                (sw, i)
            })
            .collect();

        clk.elapse(CPU_NEW_ORDER);
        let mut txn = t.db.begin(clk);
        // District: take the next order id, reading the record once for
        // the id and once more for its update.
        let drid = district_no(w, d);
        let o_id = txn
            .heap_read(t.h_district, drid, |r| u64_at(r, 0))
            .expect("district");
        txn.heap_read(t.h_district, drid, |_| ()).expect("district");
        txn.heap_update_with(t.h_district, drid, |r| r.put(0, &(o_id + 1).to_le_bytes()));
        // Customer read (index + heap).
        let crid = txn
            .index_get(t.i_customer, cust_key(w, d, c))
            .expect("customer");
        txn.heap_read(t.h_customer, crid, |_| ());

        // Lines: item read, stock read+update.
        for &(sw, i) in &items {
            txn.heap_read(t.h_item, i, |_| ()).expect("item");
            let srid = txn.index_get(t.i_stock, stock_key(sw, i)).expect("stock");
            let (q, cnt) = txn
                .heap_read(t.h_stock, srid, |r| (u64_at(r, 0), u64_at(r, 16)))
                .expect("stock rec");
            let newq = if q > 10 { q - 1 } else { q + 91 };
            // Both fields in one call: each call logs its own records, so
            // two calls would change the log.
            txn.heap_update_with(t.h_stock, srid, |r| {
                r.put(0, &newq.to_le_bytes());
                r.put(16, &(cnt + 1).to_le_bytes());
            });
        }

        // Order + lines + new-order inserts.
        let mut orec = vec![0u8; REC_ORDER];
        put_u64s(&mut orec, &[(0, o_id), (8, c), (16, ol_cnt)]);
        let orid = txn.heap_insert(t.h_orders, &orec).expect("orders full");
        txn.index_insert(t.i_orders, order_key(w, d, o_id), orid);
        txn.index_insert(t.i_last_order, cust_key(w, d, c), orid);
        for (l, &(_, i)) in items.iter().enumerate() {
            let mut lrec = vec![0u8; REC_ORDER_LINE];
            put_u64s(&mut lrec, &[(0, i), (8, 5)]);
            let lr = txn.heap_insert(t.h_order_line, &lrec).expect("ol full");
            txn.index_insert(t.i_order_line, ol_key(w, d, o_id, l as u64), lr);
        }
        let mut nrec = vec![0u8; REC_NEW_ORDER];
        nrec[0..8].copy_from_slice(&o_id.to_le_bytes());
        txn.heap_insert(t.h_new_order, &nrec)
            .expect("new_order full");
        txn.commit();
        self.tpmc.record(clk.now);
    }

    fn payment(&mut self, clk: &mut Clk) {
        let t = Arc::clone(&self.t);
        let w = self.rng.gen_range(0..t.warehouses);
        let d = self.rng.gen_range(0..DISTRICTS);
        // 15% pay through a remote customer.
        let (cw, cd) = if self.rng.gen_ratio(15, 100) && t.warehouses > 1 {
            (
                self.rng.gen_range(0..t.warehouses),
                self.rng.gen_range(0..DISTRICTS),
            )
        } else {
            (w, d)
        };
        let c = self.pick_customer();
        let amount = self.rng.gen_range(1..=5000u64);

        clk.elapse(CPU_LIGHT);
        let mut txn = t.db.begin(clk);
        let ytd = txn
            .heap_read(t.h_warehouse, w, |r| u64_at(r, 0))
            .expect("warehouse");
        txn.heap_update_with(t.h_warehouse, w, |r| {
            r.put(0, &(ytd + amount).to_le_bytes())
        });
        let drid = district_no(w, d);
        let ytd = txn
            .heap_read(t.h_district, drid, |r| u64_at(r, 16))
            .expect("district");
        txn.heap_update_with(t.h_district, drid, |r| {
            r.put(16, &(ytd + amount).to_le_bytes())
        });
        let crid = txn
            .index_get(t.i_customer, cust_key(cw, cd, c))
            .expect("customer");
        let bal = txn
            .heap_read(t.h_customer, crid, |r| u64_at(r, 0))
            .expect("customer");
        txn.heap_update_with(t.h_customer, crid, |r| {
            r.put(0, &bal.wrapping_sub(amount).to_le_bytes())
        });
        let hrec = vec![1u8; REC_HISTORY];
        txn.heap_insert(t.h_history, &hrec).expect("history full");
        txn.commit();
    }

    fn order_status(&mut self, clk: &mut Clk) {
        let t = Arc::clone(&self.t);
        let w = self.rng.gen_range(0..t.warehouses);
        let d = self.rng.gen_range(0..DISTRICTS);
        let c = self.pick_customer();

        clk.elapse(CPU_LIGHT);
        let mut txn = t.db.begin(clk);
        let crid = txn
            .index_get(t.i_customer, cust_key(w, d, c))
            .expect("customer");
        txn.heap_read(t.h_customer, crid, |_| ());
        if let Some(orid) = txn.index_get(t.i_last_order, cust_key(w, d, c)) {
            if let Some(o_id) = txn.heap_read(t.h_orders, orid, |r| u64_at(r, 0)) {
                let lines = txn.index_range(
                    t.i_order_line,
                    ol_key(w, d, o_id, 0),
                    ol_key(w, d, o_id, 255),
                    16,
                );
                for (_, lrid) in lines {
                    txn.heap_read(t.h_order_line, lrid, |_| ());
                }
            }
        }
        txn.commit();
    }

    fn delivery(&mut self, clk: &mut Clk) {
        let t = Arc::clone(&self.t);
        let w = self.rng.gen_range(0..t.warehouses);
        clk.elapse(CPU_NEW_ORDER);
        let mut txn = t.db.begin(clk);
        for d in 0..DISTRICTS {
            let drid = district_no(w, d);
            let (next_o, next_del) = txn
                .heap_read(t.h_district, drid, |r| (u64_at(r, 0), u64_at(r, 8)))
                .expect("district");
            if next_del >= next_o {
                continue; // nothing undelivered in this district
            }
            txn.heap_update_with(t.h_district, drid, |r| {
                r.put(8, &(next_del + 1).to_le_bytes())
            });
            if let Some(orid) = txn.index_get(t.i_orders, order_key(w, d, next_del)) {
                if let Some(c) = txn.heap_read(t.h_orders, orid, |r| u64_at(r, 8)) {
                    // Set the carrier.
                    txn.heap_update_with(t.h_orders, orid, |r| r.put(24, &7u64.to_le_bytes()));
                    let lines = txn.index_range(
                        t.i_order_line,
                        ol_key(w, d, next_del, 0),
                        ol_key(w, d, next_del, 255),
                        16,
                    );
                    for (_, lrid) in lines {
                        if txn.heap_read(t.h_order_line, lrid, |_| ()).is_some() {
                            txn.heap_update_with(t.h_order_line, lrid, |r| {
                                r.put(24, &1u64.to_le_bytes())
                            });
                        }
                    }
                    // Credit the customer.
                    if let Some(crid) = txn.index_get(t.i_customer, cust_key(w, d, c)) {
                        if let Some(bal) = txn.heap_read(t.h_customer, crid, |r| u64_at(r, 0)) {
                            txn.heap_update_with(t.h_customer, crid, |r| {
                                r.put(0, &bal.wrapping_add(10).to_le_bytes())
                            });
                        }
                    }
                }
            }
        }
        txn.commit();
    }

    fn stock_level(&mut self, clk: &mut Clk) {
        let t = Arc::clone(&self.t);
        let w = self.rng.gen_range(0..t.warehouses);
        let d = self.rng.gen_range(0..DISTRICTS);
        clk.elapse(CPU_LIGHT);
        let mut txn = t.db.begin(clk);
        let drid = district_no(w, d);
        let next_o = txn
            .heap_read(t.h_district, drid, |r| u64_at(r, 0))
            .expect("district");
        let from = next_o.saturating_sub(20);
        let lines = txn.index_range(
            t.i_order_line,
            ol_key(w, d, from, 0),
            ol_key(w, d, next_o, 0),
            200,
        );
        let mut items: Vec<u64> = Vec::new();
        for (_, lrid) in lines {
            if let Some(item) = txn.heap_read(t.h_order_line, lrid, |r| u64_at(r, 0)) {
                items.push(item);
            }
        }
        items.sort_unstable();
        items.dedup();
        for i in items {
            if let Some(srid) = txn.index_get(t.i_stock, stock_key(w, i)) {
                txn.heap_read(t.h_stock, srid, |_| ());
            }
        }
        txn.commit();
    }
}

impl Client for TpccClient {
    fn step(&mut self, clk: &mut Clk) -> StepResult {
        let roll = self.rng.gen_range(0..100u32);
        match roll {
            0..=44 => self.new_order(clk),
            45..=87 => self.payment(clk),
            88..=91 => self.order_status(clk),
            92..=95 => self.delivery(clk),
            _ => self.stock_level(clk),
        }
        StepResult::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Driver;
    use turbopool_iosim::{MINUTE, SECOND};

    #[test]
    fn sizing_matches_paper_targets() {
        // 20 scaled warehouses should be about the 2K-warehouse database:
        // 200 GB / SCALE ≈ 26,000 scaled pages (within 20%).
        let pages = Tpcc::db_pages(20, PAGE_SIZE);
        let target = crate::scenario::gb_to_pages(200.0);
        let ratio = pages as f64 / target as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "pages {pages} target {target}"
        );
    }

    #[test]
    fn short_run_commits_transactions_on_all_designs() {
        for design in [Design::NoSsd, Design::Lc] {
            let t = Arc::new(Tpcc::setup(design, 2, 0.5));
            let tpmc = ThroughputRecorder::new(MINUTE);
            let mut d = Driver::new();
            for c in 0..4 {
                d.add(0, Box::new(t.client(c, Arc::clone(&tpmc))));
            }
            d.run_until(20 * MINUTE);
            assert!(
                tpmc.total() > 10,
                "{}: only {} NewOrders",
                design.label(),
                tpmc.total()
            );
        }
    }

    #[test]
    fn committed_work_is_durable_across_crash() {
        let t = Arc::new(Tpcc::setup(Design::Lc, 1, 0.9));
        let h_district = t.h_district;
        {
            let tpmc = ThroughputRecorder::new(MINUTE);
            let mut client = t.client(0, tpmc);
            let mut clk = Clk::new();
            for _ in 0..50 {
                client.step(&mut clk);
            }
        }
        let t = Arc::try_unwrap(t).ok().expect("sole owner");
        let db = Arc::try_unwrap(t.db).ok().expect("sole db owner");
        let (db2, stats) = Database::recover(db.crash());
        assert!(stats.records_scanned > 0);
        let mut clk = Clk::new();
        let mut txn = db2.begin(&mut clk);
        // Some district advanced its order counter past the preload, and
        // the advance survived the crash.
        let advanced = (0..DISTRICTS).any(|d| {
            let rec = txn.heap_get(h_district, d).expect("district record");
            u64::from_le_bytes(rec[0..8].try_into().unwrap()) > PRELOAD_ORDERS
        });
        assert!(advanced);
        txn.commit();
    }

    #[test]
    fn run_grows_order_tables() {
        let t = Arc::new(Tpcc::setup(Design::Dw, 1, 0.5));
        let tpmc = ThroughputRecorder::new(MINUTE);
        let mut d = Driver::new();
        d.add(0, Box::new(t.client(0, Arc::clone(&tpmc))));
        d.run_until(30 * MINUTE);
        let inserted =
            t.db.heap_meta(t.h_orders)
                .next
                .load(std::sync::atomic::Ordering::Relaxed);
        assert!(inserted > PRELOAD_ORDERS * DISTRICTS, "orders {inserted}");
        let _ = SECOND;
    }
}
