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
use crate::scenario::{build_db, put_u64s, Design, SystemSpec, SCALE};

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

fn pages_for(rows: u64, rec: usize, page_size: usize) -> u64 {
    let slots = (page_size / (1 + rec)) as u64;
    rows.div_ceil(slots)
}

fn index_extent(keys: u64, page_size: usize) -> u64 {
    let cap = ((page_size - 16) / 16) as f64 * 0.7;
    ((keys as f64 / cap * 1.6) as u64).max(8) + 8
}

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

    /// Pages needed for `customers` scaled customers.
    pub fn db_pages(customers: u64, page_size: usize) -> u64 {
        let accts = customers * ACCTS_PER_CUST;
        let trades = accts * TRADES_PER_ACCT * GROWTH_NUM / GROWTH_DEN;
        pages_for(customers, REC_CUSTOMER, page_size)
            + pages_for(accts, REC_ACCOUNT, page_size)
            + pages_for(SECURITIES, REC_SECURITY, page_size)
            + pages_for(accts * HOLDINGS_PER_ACCT, REC_HOLDING, page_size)
            + pages_for(trades, REC_TRADE, page_size)
            + index_extent(trades, page_size)
            + 1
            + 64
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
        let page_size = crate::scenario::PAGE_SIZE;
        let mut spec = SystemSpec::paper(design, Self::db_pages(customers, page_size));
        spec.ssd(|s| s.lambda = lambda);
        tweak(&mut spec);
        let db = build_db(&spec);
        let mut clk = Clk::new();
        let accts = customers * ACCTS_PER_CUST;
        let trades_cap = accts * TRADES_PER_ACCT * GROWTH_NUM / GROWTH_DEN;

        let h_customer = db.create_heap(
            &mut clk,
            "customer",
            REC_CUSTOMER,
            pages_for(customers, REC_CUSTOMER, page_size),
        );
        let h_account = db.create_heap(
            &mut clk,
            "account",
            REC_ACCOUNT,
            pages_for(accts, REC_ACCOUNT, page_size),
        );
        let h_security = db.create_heap(
            &mut clk,
            "security",
            REC_SECURITY,
            pages_for(SECURITIES, REC_SECURITY, page_size),
        );
        let h_holding = db.create_heap(
            &mut clk,
            "holding",
            REC_HOLDING,
            pages_for(accts * HOLDINGS_PER_ACCT, REC_HOLDING, page_size),
        );
        let h_trade = db.create_heap(
            &mut clk,
            "trade",
            REC_TRADE,
            pages_for(trades_cap, REC_TRADE, page_size),
        );
        let i_trade = db.create_index(&mut clk, "trade_pk", index_extent(trades_cap, page_size));

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
        bulk_load_index(&db, i_trade, pairs, 0.7);

        Tpce {
            db,
            customers,
            h_customer,
            h_account,
            h_security,
            h_holding,
            h_trade,
            i_trade,
            seed: spec.seed,
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
        txn.heap_get(t.h_customer, cust);
        txn.heap_get(t.h_security, sec);
        // Take the account's next trade sequence.
        let mut arec = txn.heap_get(t.h_account, acct).expect("account");
        let seq = u64::from_le_bytes(arec[8..16].try_into().unwrap());
        arec[8..16].copy_from_slice(&(seq + 1).to_le_bytes());
        txn.heap_update(t.h_account, acct, &arec);
        let mut trec = vec![0u8; REC_TRADE];
        trec[8..16].copy_from_slice(&sec.to_le_bytes());
        trec[16..24].copy_from_slice(&10u64.to_le_bytes());
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
        let mut trec = txn.heap_get(t.h_trade, rid).expect("trade");
        trec[0..8].copy_from_slice(&1u64.to_le_bytes()); // settled
        txn.heap_update(t.h_trade, rid, &trec);
        // Update one holding and the account balance.
        let h = acct * HOLDINGS_PER_ACCT + self.rng.gen_range(0..HOLDINGS_PER_ACCT);
        if let Some(mut hrec) = txn.heap_get(t.h_holding, h) {
            let q = u64::from_le_bytes(hrec[0..8].try_into().unwrap());
            hrec[0..8].copy_from_slice(&(q + 1).to_le_bytes());
            txn.heap_update(t.h_holding, h, &hrec);
        }
        let mut arec = txn.heap_get(t.h_account, acct).expect("account");
        let bal = u64::from_le_bytes(arec[0..8].try_into().unwrap());
        arec[0..8].copy_from_slice(&bal.wrapping_add(7).to_le_bytes());
        txn.heap_update(t.h_account, acct, &arec);
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
                txn.heap_get(t.h_trade, rid);
            }
        }
        txn.commit();
    }

    fn customer_position(&mut self, clk: &mut Clk) {
        let t = Arc::clone(&self.t);
        let cust = self.rng.gen_range(0..t.customers);
        clk.elapse(CPU_HEAVY);
        let mut txn = t.db.begin(clk);
        txn.heap_get(t.h_customer, cust);
        for a in 0..ACCTS_PER_CUST {
            let acct = cust * ACCTS_PER_CUST + a;
            txn.heap_get(t.h_account, acct);
            for h in 0..HOLDINGS_PER_ACCT {
                txn.heap_get(t.h_holding, acct * HOLDINGS_PER_ACCT + h);
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
            txn.heap_get(t.h_security, sec);
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
            txn.heap_get(t.h_trade, rid);
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
        let pages = Tpce::db_pages(2_000, crate::scenario::PAGE_SIZE);
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
