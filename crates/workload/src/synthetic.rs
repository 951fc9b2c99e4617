//! Synthetic single-table workloads for the ablation benchmarks.
//!
//! A configurable client that issues point reads/updates over one big
//! table with Zipf-distributed record choice — the minimal harness for
//! isolating one SSD-manager mechanism at a time (throttle control,
//! partitioning, filling, classifier accuracy).

use std::sync::{Arc, OnceLock};

use turbopool_engine::{bulk_load_heap, bulk_load_index, Database, HeapId, IndexId};
use turbopool_iosim::rng::Rng;
use turbopool_iosim::rng::SmallRng;
use turbopool_iosim::{Clk, Time, MILLISECOND};

use crate::driver::{Client, StepResult, ThroughputRecorder};
use crate::rand_util::{client_rng, Zipf};
use crate::scenario::{
    heap_pages, index_leaves, put_u64s, u64_at, Design, Opened, Schema, SystemSpec, INDEX_FILL,
    PAGE_SIZE, SCALE,
};

/// Synthetic workload parameters.
#[derive(Clone, Debug)]
pub struct SyntheticConfig {
    /// Rows in the table.
    pub rows: u64,
    /// Record size in bytes.
    pub record_size: usize,
    /// Zipf skew over rows (0 = uniform).
    pub theta: f64,
    /// Fraction of operations that update (0.0 – 1.0).
    pub update_frac: f64,
    /// Operations batched into one transaction.
    pub ops_per_txn: usize,
    /// Access records through the index (random I/O) instead of direct
    /// RIDs.
    pub via_index: bool,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            rows: 100_000,
            record_size: 192,
            theta: 0.9,
            update_frac: 0.33,
            ops_per_txn: 10,
            via_index: true,
        }
    }
}

/// The loaded table + index.
pub struct Synthetic {
    pub db: Arc<Database>,
    pub cfg: SyntheticConfig,
    pub heap: HeapId,
    pub index: IndexId,
    seed: u64,
    /// The clients' one rank table, built by the first [`client`](Self::client):
    /// every client draws from its own RNG over the same distribution.
    zipf: OnceLock<Arc<Zipf>>,
}

impl Synthetic {
    /// The table and its index. Its own extent rule (1.4× the leaves, plus
    /// 16) and slack keep the layout the ablations were measured on.
    fn schema(cfg: &SyntheticConfig, page_size: usize) -> Schema<1, 1> {
        let heap = heap_pages(cfg.rows, cfg.record_size, page_size);
        let extent = (index_leaves(cfg.rows, page_size) * 1.4) as u64 + 16;
        Schema {
            heaps: [("data", cfg.record_size, heap)],
            indexes: [("data_pk", extent)],
            slack: 15,
        }
    }

    /// Pages needed for the table and its index.
    pub fn db_pages(cfg: &SyntheticConfig, page_size: usize) -> u64 {
        Self::schema(cfg, page_size).pages()
    }

    /// Build and load under the given design, with overrides applied to
    /// the spec by `tweak`.
    pub fn setup(
        design: Design,
        cfg: SyntheticConfig,
        tweak: impl FnOnce(&mut SystemSpec),
    ) -> Synthetic {
        let Opened {
            db,
            seed,
            heaps: [heap],
            indexes: [index],
        } = Self::schema(&cfg, PAGE_SIZE).open(design, None, tweak);
        bulk_load_heap(&db, heap, cfg.rows, |i, rec| put_u64s(rec, &[(0, i)]));
        bulk_load_index(&db, index, (0..cfg.rows).map(|k| (k, k)), INDEX_FILL);
        Synthetic {
            db,
            cfg,
            heap,
            index,
            seed,
            zipf: OnceLock::new(),
        }
    }

    /// Crash the database and recover it, rebinding the workload handles
    /// (crash-restart experiments). Requires sole ownership of the
    /// `Database` Arc — drop all clients first.
    pub fn crash_and_recover(self) -> (Synthetic, turbopool_wal::RecoveryStats) {
        let db = Arc::try_unwrap(self.db)
            .ok()
            .expect("other Database handles still alive");
        let (db2, stats) = Database::recover(db.crash());
        let db = Arc::new(db2);
        (Synthetic { db, ..self }, stats)
    }

    pub fn client(
        self: &Arc<Self>,
        client_no: u64,
        rec: Arc<ThroughputRecorder>,
    ) -> SyntheticClient {
        SyntheticClient {
            s: Arc::clone(self),
            zipf: Arc::clone(
                self.zipf
                    .get_or_init(|| Arc::new(Zipf::new(self.cfg.rows as usize, self.cfg.theta))),
            ),
            rng: client_rng(self.seed, client_no),
            rec,
        }
    }
}

/// CPU per synthetic transaction (time-scaled).
const CPU_TXN: Time = SCALE as Time * MILLISECOND / 1000;

/// One synthetic client.
pub struct SyntheticClient {
    s: Arc<Synthetic>,
    zipf: Arc<Zipf>,
    rng: SmallRng,
    rec: Arc<ThroughputRecorder>,
}

impl Client for SyntheticClient {
    fn step(&mut self, clk: &mut Clk) -> StepResult {
        let cfg = self.s.cfg.clone();
        clk.elapse(CPU_TXN);
        let mut txn = self.s.db.begin(clk);
        for _ in 0..cfg.ops_per_txn {
            // Scramble zipf ranks across the key space so hot records
            // spread over pages (rank 0 is hottest, not key 0).
            let rank = self.zipf.sample(&mut self.rng) as u64;
            let key = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % cfg.rows;
            let rid = if cfg.via_index {
                match txn.index_get(self.s.index, key) {
                    Some(r) => r,
                    None => continue,
                }
            } else {
                key
            };
            if self.rng.gen_bool(cfg.update_frac) {
                if let Some(v) = txn.heap_read(self.s.heap, rid, |r| u64_at(r, 8)) {
                    txn.heap_update_with(self.s.heap, rid, |r| r.put(8, &(v + 1).to_le_bytes()));
                }
            } else {
                txn.heap_read(self.s.heap, rid, |_| ());
            }
        }
        txn.commit();
        self.rec.record(clk.now);
        StepResult::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Driver;
    use turbopool_iosim::MINUTE;

    fn small() -> SyntheticConfig {
        SyntheticConfig {
            rows: 5_000,
            ..Default::default()
        }
    }

    #[test]
    fn runs_and_commits() {
        let s = Arc::new(Synthetic::setup(Design::Dw, small(), |spec| {
            spec.db.pool.frames = 64;
            spec.ssd(|s| s.frames = 256);
        }));
        let rec = ThroughputRecorder::new(MINUTE);
        let mut d = Driver::new();
        for c in 0..4 {
            d.add(0, Box::new(s.client(c, Arc::clone(&rec))));
        }
        d.run_until(10 * MINUTE);
        assert!(rec.total() > 20, "{}", rec.total());
        // Updates flowed into the SSD via evictions eventually.
        let m = s.db.ssd_metrics().unwrap();
        assert!(m.admissions > 0);
    }

    #[test]
    fn skewed_run_hits_ssd_after_warmup() {
        let s = Arc::new(Synthetic::setup(Design::Lc, small(), |spec| {
            spec.db.pool.frames = 32;
            spec.ssd(|s| s.frames = 512);
        }));
        let rec = ThroughputRecorder::new(MINUTE);
        let mut d = Driver::new();
        d.add(0, Box::new(s.client(0, Arc::clone(&rec))));
        d.run_until(60 * MINUTE);
        let m = s.db.ssd_metrics().unwrap();
        assert!(m.ssd_hits > 0, "{m:?}");
    }
}
