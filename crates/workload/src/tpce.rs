//! TPC-E-lite: the read-intensive, broad-working-set OLTP workload.
//!
//! TPC-E differs from TPC-C in exactly the ways the paper leans on
//! (§4.3): reads dominate (roughly 10 reads per write at the I/O level),
//! customer/account selection is uniform rather than NURand-skewed, and
//! the dominant table (TRADE) is large and uniformly probed — so the
//! working set is broad, and the relationship between working-set size and
//! SSD capacity decides the speedup (peaking when they match, the paper's
//! 20K-customer case).
//!
//! One scaled customer stands in for 10 paper customers: 10K/20K/40K
//! customers (115/230/415 GB) become 1,000/2,000/4,000 scaled customers.
//! The metric is tpsE: Trade-Result transactions per second.

use std::collections::VecDeque;
use std::sync::Arc;

use turbopool_engine::{bulk_load_heap, bulk_load_index, Database, HeapId, IndexId};
use turbopool_iosim::rng::Rng;
use turbopool_iosim::rng::SmallRng;
use turbopool_iosim::{Clk, Time, MILLISECOND};

use crate::driver::{Client, StepResult, ThroughputRecorder};
use crate::rand_util::client_rng;
use crate::scenario::{
    heap_pages, index_extent, put_u64s, u64_at, Design, Opened, Schema, SystemSpec, INDEX_FILL,
    PAGE_SIZE, SCALE,
};

/// Accounts per customer.
pub const ACCTS_PER_CUST: u64 = 2;
/// Holdings per account (direct-RID table).
pub const HOLDINGS_PER_ACCT: u64 = 10;
/// Preloaded historical trades per account.
pub const TRADES_PER_ACCT: u64 = 550;
/// Securities (global).
pub const SECURITIES: u64 = 5_000;

const REC_CUSTOMER: usize = 192;
const REC_ACCOUNT: usize = 128;
const REC_SECURITY: usize = 128;
const REC_HOLDING: usize = 64;
const REC_TRADE: usize = 64;

/// Trade growth headroom over preload.
const GROWTH_NUM: u64 = 13;
const GROWTH_DEN: u64 = 10;

const CPU_HEAVY: Time = (2.4 * SCALE) as Time * MILLISECOND / 1000 * 1000;
const CPU_LIGHT: Time = SCALE as Time * MILLISECOND;

/// Trade key: account in the high bits, per-account sequence below — one
/// index serves point lookups and "recent trades of account" ranges.
pub fn trade_key(account: u64, seq: u64) -> u64 {
    (account << 24) | seq
}

/// Table handles for one TPC-E database.
pub struct Tpce {
    pub db: Arc<Database>,
    pub customers: u64,
    h_customer: HeapId,
    h_account: HeapId,
    h_security: HeapId,
    h_holding: HeapId,
    h_trade: HeapId,
    i_trade: IndexId,
    seed: u64,
}

impl Tpce {
    pub fn accounts(&self) -> u64 {
        self.customers * ACCTS_PER_CUST
    }

    /// The tables of `customers` scaled customers, TRADE with room for
    /// its growth.
    fn schema(customers: u64, page_size: usize) -> Schema<5, 1> {
        let heap = |name, rec, rows| (name, rec, heap_pages(rows, rec, page_size));
        let accts = customers * ACCTS_PER_CUST;
        let trades = accts * TRADES_PER_ACCT * GROWTH_NUM / GROWTH_DEN;
        Schema {
            heaps: [
                heap("customer", REC_CUSTOMER, customers),
                heap("account", REC_ACCOUNT, accts),
                heap("security", REC_SECURITY, SECURITIES),
                heap("holding", REC_HOLDING, accts * HOLDINGS_PER_ACCT),
                heap("trade", REC_TRADE, trades),
            ],
            indexes: [("trade_pk", index_extent(trades, page_size))],
            slack: 64,
        }
    }

    /// Pages needed for `customers` scaled customers.
    pub fn db_pages(customers: u64, page_size: usize) -> u64 {
        Self::schema(customers, page_size).pages()
    }

    /// Build and bulk-load a TPC-E database of `customers` scaled
    /// customers.
    pub fn setup(design: Design, customers: u64, lambda: f64) -> Tpce {
        Self::setup_tweak(design, customers, lambda, |_| {})
    }

    /// Like [`Tpce::setup`] with a hook that edits the [`SystemSpec`]
    /// before the database opens (the benchmark's seed).
    pub fn setup_tweak(
        design: Design,
        customers: u64,
        lambda: f64,
        tweak: impl FnOnce(&mut SystemSpec),
    ) -> Tpce {
        let Opened {
            db,
            seed,
            heaps: [h_customer, h_account, h_security, h_holding, h_trade],
            indexes: [i_trade],
        } = Self::schema(customers, PAGE_SIZE).open(design, Some(lambda), tweak);
        let accts = customers * ACCTS_PER_CUST;

        bulk_load_heap(&db, h_customer, customers, |_, _| {});
        bulk_load_heap(&db, h_account, accts, |_, rec| {
            // [8..16] = next trade sequence number for the account.
            put_u64s(rec, &[(0, 10_000), (8, TRADES_PER_ACCT)])
        });
        bulk_load_heap(&db, h_security, SECURITIES, |i, rec| {
            put_u64s(rec, &[(0, 10 + i % 490)])
        });
        bulk_load_heap(&db, h_holding, accts * HOLDINGS_PER_ACCT, |_, rec| {
            put_u64s(rec, &[(0, 100)])
        });
        // Historical trades, loaded in trade-id order; trade ids interleave
        // accounts, so one account's trades scatter over many heap pages —
        // lookups by trade key are random I/O.
        bulk_load_heap(&db, h_trade, accts * TRADES_PER_ACCT, |i, rec| {
            put_u64s(rec, &[(0, 1 /* settled */), (8, i % SECURITIES), (16, 10)])
        });
        // rid i holds the trade of account (i % accts), seq (i / accts):
        // walking accounts, then sequences, yields the keys in order.
        let pairs = (0..accts)
            .flat_map(|a| (0..TRADES_PER_ACCT).map(move |s| (trade_key(a, s), s * accts + a)));
        bulk_load_index(&db, i_trade, pairs, INDEX_FILL);

        Tpce {
            db,
            customers,
            h_customer,
            h_account,
            h_security,
            h_holding,
            h_trade,
            i_trade,
            seed,
        }
    }

    /// A terminal; Trade-Result commits are recorded into `tpse`.
    pub fn client(self: &Arc<Self>, client_no: u64, tpse: Arc<ThroughputRecorder>) -> TpceClient {
        TpceClient {
            t: Arc::clone(self),
            rng: client_rng(self.seed, client_no),
            tpse,
            pending: VecDeque::new(),
        }
    }
}

/// One TPC-E terminal.
pub struct TpceClient {
    t: Arc<Tpce>,
    rng: SmallRng,
    tpse: Arc<ThroughputRecorder>,
    /// Trades ordered by this client and not yet resulted: (key, rid).
    pending: VecDeque<(u64, u64)>,
}

impl TpceClient {
    fn trade_order(&mut self, clk: &mut Clk) {
        let t = Arc::clone(&self.t);
        let acct = self.rng.gen_range(0..t.accounts());
        let sec = self.rng.gen_range(0..SECURITIES);
        clk.elapse(CPU_HEAVY);
        let mut txn = t.db.begin(clk);
        let cust = acct / ACCTS_PER_CUST;
        txn.heap_read(t.h_customer, cust, |_| ());
        txn.heap_read(t.h_security, sec, |_| ());
        // Take the account's next trade sequence.
        let seq = txn
            .heap_read(t.h_account, acct, |r| u64_at(r, 8))
            .expect("account");
        txn.heap_update_with(t.h_account, acct, |r| r.put(8, &(seq + 1).to_le_bytes()));
        let mut trec = vec![0u8; REC_TRADE];
        put_u64s(&mut trec, &[(8, sec), (16, 10)]);
        let rid = txn.heap_insert(t.h_trade, &trec).expect("trade heap full");
        let key = trade_key(acct, seq);
        txn.index_insert(t.i_trade, key, rid);
        txn.commit();
        self.pending.push_back((key, rid));
    }

    fn trade_result(&mut self, clk: &mut Clk) {
        let Some((key, rid)) = self.pending.pop_front() else {
            // Nothing in flight: order first (keeps the 1:1 pairing).
            self.trade_order(clk);
            return;
        };
        let t = Arc::clone(&self.t);
        let acct = key >> 24;
        clk.elapse(CPU_HEAVY);
        let mut txn = t.db.begin(clk);
        txn.heap_read(t.h_trade, rid, |_| ()).expect("trade");
        // Settle the trade.
        txn.heap_update_with(t.h_trade, rid, |r| r.put(0, &1u64.to_le_bytes()));
        // Update one holding and the account balance.
        let h = acct * HOLDINGS_PER_ACCT + self.rng.gen_range(0..HOLDINGS_PER_ACCT);
        if let Some(q) = txn.heap_read(t.h_holding, h, |r| u64_at(r, 0)) {
            txn.heap_update_with(t.h_holding, h, |r| r.put(0, &(q + 1).to_le_bytes()));
        }
        let bal = txn
            .heap_read(t.h_account, acct, |r| u64_at(r, 0))
            .expect("account");
        txn.heap_update_with(t.h_account, acct, |r| {
            r.put(0, &bal.wrapping_add(7).to_le_bytes())
        });
        txn.commit();
        self.tpse.record(clk.now);
    }

    /// Draw a trade age: strongly biased toward *recent* trades (a cubic
    /// power law — about half of all lookups land in the newest ~12% of
    /// each account's history). This recency is what makes the workload's
    /// hot set scale with the customer count: it fits DRAM at 10K, matches
    /// the SSD at 20K, and overflows both at 40K — the §4.3 crossover.
    fn recent_offset(&mut self) -> u64 {
        let u: f64 = self.rng.gen();
        ((u * u * u) * TRADES_PER_ACCT as f64) as u64
    }

    fn trade_lookup(&mut self, clk: &mut Clk) {
        let t = Arc::clone(&self.t);
        clk.elapse(CPU_LIGHT);
        let mut txn = t.db.begin(clk);
        // Ten historical trades, recency-skewed, across all accounts.
        for _ in 0..10 {
            let acct = self.rng.gen_range(0..t.accounts());
            let seq = TRADES_PER_ACCT - 1 - self.recent_offset().min(TRADES_PER_ACCT - 1);
            if let Some(rid) = txn.index_get(t.i_trade, trade_key(acct, seq)) {
                txn.heap_read(t.h_trade, rid, |_| ());
            }
        }
        txn.commit();
    }

    fn customer_position(&mut self, clk: &mut Clk) {
        let t = Arc::clone(&self.t);
        let cust = self.rng.gen_range(0..t.customers);
        clk.elapse(CPU_HEAVY);
        let mut txn = t.db.begin(clk);
        txn.heap_read(t.h_customer, cust, |_| ());
        for a in 0..ACCTS_PER_CUST {
            let acct = cust * ACCTS_PER_CUST + a;
            txn.heap_read(t.h_account, acct, |_| ());
            for h in 0..HOLDINGS_PER_ACCT {
                txn.heap_read(t.h_holding, acct * HOLDINGS_PER_ACCT + h, |_| ());
            }
        }
        txn.commit();
    }

    fn market_watch(&mut self, clk: &mut Clk) {
        let t = Arc::clone(&self.t);
        clk.elapse(CPU_LIGHT);
        let mut txn = t.db.begin(clk);
        for _ in 0..20 {
            let sec = self.rng.gen_range(0..SECURITIES);
            txn.heap_read(t.h_security, sec, |_| ());
        }
        txn.commit();
    }

    fn trade_status(&mut self, clk: &mut Clk) {
        let t = Arc::clone(&self.t);
        let acct = self.rng.gen_range(0..t.accounts());
        clk.elapse(CPU_LIGHT);
        let mut txn = t.db.begin(clk);
        // Ten trades near the top of the account's history (an index range
        // over the most recent sequence numbers + heap reads).
        let newest = TRADES_PER_ACCT - 1 - self.recent_offset().min(TRADES_PER_ACCT - 11);
        let lo = trade_key(acct, newest.saturating_sub(9));
        let hi = trade_key(acct, newest);
        let recent = txn.index_range(t.i_trade, lo, hi, 16);
        for (_, rid) in recent {
            txn.heap_read(t.h_trade, rid, |_| ());
        }
        txn.commit();
    }
}

impl Client for TpceClient {
    fn step(&mut self, clk: &mut Clk) -> StepResult {
        let roll = self.rng.gen_range(0..100u32);
        match roll {
            0..=9 => self.trade_order(clk),
            10..=19 => self.trade_result(clk),
            20..=34 => self.trade_lookup(clk),
            35..=59 => self.customer_position(clk),
            60..=79 => self.market_watch(clk),
            _ => self.trade_status(clk),
        }
        StepResult::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Driver;
    use turbopool_iosim::MINUTE;

    #[test]
    fn sizing_matches_paper_targets() {
        // 2,000 scaled customers ≈ the 20K-customer, 230 GB database.
        let pages = Tpce::db_pages(2_000, PAGE_SIZE);
        let target = crate::scenario::gb_to_pages(230.0);
        let ratio = pages as f64 / target as f64;
        assert!(
            (0.75..1.25).contains(&ratio),
            "pages {pages} target {target}"
        );
    }

    #[test]
    fn trade_key_orders_by_account_then_seq() {
        assert!(trade_key(1, 0) > trade_key(0, 999));
        assert!(trade_key(2, 5) > trade_key(2, 4));
    }

    #[test]
    fn short_run_results_trades() {
        let t = Arc::new(Tpce::setup(Design::Dw, 50, 0.01));
        let tpse = ThroughputRecorder::new(MINUTE);
        let mut d = Driver::new();
        for c in 0..4 {
            d.add(0, Box::new(t.client(c, Arc::clone(&tpse))));
        }
        d.run_until(30 * MINUTE);
        assert!(tpse.total() > 3, "only {} TradeResults", tpse.total());
        // Read-dominance: device reads far outnumber writes.
        let disk = t.db.io().disk_stats();
        assert!(disk.read_pages > disk.write_pages, "{disk:?}");
    }
}
