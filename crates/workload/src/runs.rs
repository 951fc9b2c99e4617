//! The experiment runner. The paper's evaluation (§4) is one grid — each
//! database under noSSD, CW, DW, LC and TAC — and every figure, the CLI
//! and the examples run their cells here: [`run_oltp`] runs a list of
//! OLTP [`Cell`]s (kind, design and [`RunOptions`] may all differ) for
//! one shared virtual duration, [`run_tpch`] TPC-H's power and then
//! throughput test for a list of designs. Each cell owns its database
//! and runs as its own share-nothing driver domain, so a list returns
//! exactly what its cells return run alone (DESIGN §9).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use turbopool_bufpool::PoolStats;
use turbopool_core::metrics::SsdMetricsSnapshot;
use turbopool_engine::Database;
use turbopool_iosim::{fault, Clk, StatSnapshot, Time, HOUR, MINUTE};

use crate::driver::{
    CheckpointClient, CleanerClient, Client, Driver, StepResult, ThroughputRecorder,
};
use crate::scenario::Design;
use crate::tpcc::Tpcc;
use crate::tpce::Tpce;
use crate::tpch::{qphh, PowerResult, Tpch};

/// Which OLTP benchmark a cell runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OltpKind {
    /// TPC-C with the given scaled warehouse count.
    TpcC { warehouses: u64 },
    /// TPC-E with the given scaled customer count.
    TpcE { customers: u64 },
}

/// Per-cell run configuration.
#[derive(Copy, Clone, Debug)]
pub struct RunOptions {
    /// Terminal count.
    pub clients: usize,
    /// LC λ (dirty fraction threshold).
    pub lambda: f64,
    /// Checkpoint interval; `None` disables checkpointing (the paper turns
    /// it off for TPC-C).
    pub checkpoint: Option<Time>,
    /// Device traffic series bucket (Figure 8); `None` disables.
    pub io_series: Option<Time>,
}

impl RunOptions {
    /// The paper's TPC-C settings: 25 terminals, λ = 50%, no checkpoints.
    pub fn tpcc() -> Self {
        RunOptions {
            clients: 25,
            lambda: 0.5,
            checkpoint: None,
            io_series: None,
        }
    }

    /// The paper's TPC-E settings: λ = 1%, checkpoint every ~40 minutes.
    pub fn tpce() -> Self {
        RunOptions {
            lambda: 0.01,
            checkpoint: Some(40 * MINUTE),
            ..Self::tpcc()
        }
    }
}

/// One OLTP grid cell: a database, a design and the run's options.
#[derive(Copy, Clone, Debug)]
pub struct Cell {
    pub kind: OltpKind,
    pub design: Design,
    pub opts: RunOptions,
}

impl Cell {
    pub fn new(kind: OltpKind, design: Design, opts: RunOptions) -> Self {
        Cell { kind, design, opts }
    }
}

/// The counters a finished run reads off its database.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// SSD-manager counters (None for noSSD).
    pub ssd: Option<SsdMetricsSnapshot>,
    /// Buffer pool counters.
    pub pool: PoolStats,
    /// Disk-group device totals.
    pub disk: StatSnapshot,
    /// SSD device totals.
    pub ssd_dev: StatSnapshot,
    /// TAC wasted (invalid) SSD frames at the end of the run.
    pub tac_invalid_frames: u64,
}

impl DbStats {
    /// The counters `db` holds now.
    pub fn of(db: &Database) -> Self {
        DbStats {
            ssd: db.ssd_metrics(),
            pool: db.pool_stats(),
            disk: db.io().disk_stats(),
            ssd_dev: db.io().ssd_stats(),
            tac_invalid_frames: db.ssd_manager().map_or(0, |m| m.invalid_frames()),
        }
    }

    /// Every counter as a `(name, value)` pair: each member's `fields()` in
    /// declaration order (the SSD block only with an SSD), then
    /// `tac_invalid_frames`.
    fn fields(&self) -> Vec<(&'static str, u64)> {
        let mut fields = self.ssd.map(|m| m.fields()).unwrap_or_default();
        fields.extend(self.pool.fields());
        fields.extend(self.disk.fields());
        fields.extend(self.ssd_dev.fields());
        fields.push(("tac_invalid_frames", self.tac_invalid_frames));
        fields
    }

    /// One word for a cell's end state, printed on the benches' `digest`
    /// lines: an FNV-1a ([`fault::checksum`]) over every counter's name and
    /// value in [`fields`](Self::fields) order, then the cell's driver
    /// `steps`. Barring an FNV collision, a changed counter or step count
    /// changes it.
    pub fn digest(&self, steps: u64) -> u64 {
        let mut fields = self.fields();
        fields.push(("steps", steps));
        checksum_pairs(&fields)
    }
}

/// FNV-1a over each pair's name bytes and little-endian value, in order.
fn checksum_pairs(pairs: &[(&str, u64)]) -> u64 {
    let mut bytes = Vec::new();
    for (name, value) in pairs {
        bytes.extend_from_slice(name.as_bytes());
        bytes.extend_from_slice(&value.to_le_bytes());
    }
    fault::checksum(&bytes)
}

/// Everything a harness needs from one completed OLTP cell.
pub struct OltpRun {
    pub design: Design,
    /// The metric recorder (NewOrder commits / TradeResult commits).
    pub metric: Arc<ThroughputRecorder>,
    /// Metric rate over the last hour (per minute for TPC-C, converted by
    /// callers for tpsE).
    pub last_hour_per_min: f64,
    /// Six-minute throughput series (per-minute rates).
    pub series: Vec<(f64, f64)>,
    /// The database's counters at the end of the run.
    pub stats: DbStats,
    /// Disk traffic series (if `io_series` was set).
    pub disk_series: Vec<(Time, u64, u64)>,
    /// SSD traffic series (if `io_series` was set).
    pub ssd_series: Vec<(Time, u64, u64)>,
    /// Driver steps of this cell's clients.
    pub steps: u64,
}

/// A list's results plus the driver's totals.
pub struct OltpSet {
    /// One completed run per cell, in input order.
    pub runs: Vec<OltpRun>,
    /// Total client steps executed across all cells.
    pub steps: u64,
    /// Wall-clock seconds of the drive phase alone (setup/bulk-load is
    /// serial and excluded, so scaling numbers measure the simulation).
    pub drive_secs: f64,
}

/// Build + bulk load one cell's database and attach its terminals plus
/// the checkpointer/cleaner pseudo-clients, all inside driver `domain`.
fn attach(
    cell: &Cell,
    domain: usize,
    driver: &mut Driver,
) -> (Arc<ThroughputRecorder>, Arc<Database>) {
    let Cell { kind, design, opts } = *cell;
    let metric = ThroughputRecorder::new(6 * MINUTE);
    let mut add = |client: Box<dyn Client>| {
        driver.add_in_domain(domain, 0, client);
    };
    let db = match kind {
        OltpKind::TpcC { warehouses } => {
            let t = Arc::new(Tpcc::setup(design, warehouses, opts.lambda));
            for c in 0..opts.clients as u64 {
                add(Box::new(t.client(c, Arc::clone(&metric))));
            }
            Arc::clone(&t.db)
        }
        OltpKind::TpcE { customers } => {
            let t = Arc::new(Tpce::setup(design, customers, opts.lambda));
            for c in 0..opts.clients as u64 {
                add(Box::new(t.client(c, Arc::clone(&metric))));
            }
            Arc::clone(&t.db)
        }
    };
    if let Some(bucket) = opts.io_series {
        db.io().enable_series(bucket);
    }
    if let Some(interval) = opts.checkpoint {
        add(Box::new(CheckpointClient::new(Arc::clone(&db), interval)));
    }
    if let Some(cleaner) = CleanerClient::for_db(&db) {
        add(Box::new(cleaner));
    }
    (metric, db)
}

/// Run a list of OLTP cells for `duration` of virtual time: build and
/// bulk load each cell's database, attach its terminals, checkpointer
/// and cleaner in a domain of its own, drive all domains together (one
/// OS thread each), and read the last hour and the counters.
pub fn run_oltp(cells: &[Cell], duration: Time) -> OltpSet {
    let mut driver = Driver::new();
    let attached: Vec<_> = cells
        .iter()
        .enumerate()
        .map(|(domain, cell)| attach(cell, domain, &mut driver))
        .collect();
    #[expect(
        clippy::disallowed_methods,
        reason = "drive_secs reports the drive phase's host time to the bench \
                  harnesses; it never feeds virtual time"
    )]
    let start = std::time::Instant::now();
    driver.run_until(duration);
    let drive_secs = start.elapsed().as_secs_f64();
    let last_hour_start = duration.saturating_sub(HOUR);
    let runs = attached
        .into_iter()
        .zip(cells)
        .enumerate()
        .map(|(domain, ((metric, db), cell))| {
            // Drop the trailing partial bucket (overshoot artifacts).
            let mut series = metric.series_per_minute();
            series.truncate((duration / (6 * MINUTE)) as usize);
            OltpRun {
                design: cell.design,
                last_hour_per_min: metric.rate_between(last_hour_start, duration, MINUTE),
                series,
                stats: DbStats::of(&db),
                disk_series: db.io().disk_series(),
                ssd_series: db.io().ssd_series(),
                metric,
                steps: driver.steps_in(domain),
            }
        })
        .collect();
    OltpSet {
        runs,
        steps: driver.steps(),
        drive_secs,
    }
}

/// One design's TPC-H power and throughput tests.
pub struct TpchRun {
    pub design: Design,
    /// Power@SF and the per-item timings.
    pub power: PowerResult,
    /// Throughput@SF.
    pub throughput: f64,
    /// QphH@SF, the geometric mean of the two.
    pub qphh: f64,
    /// The power test's length plus the throughput test's elapsed time.
    pub virtual_time: Time,
    /// The database's counters after both tests.
    pub stats: DbStats,
    /// Driver steps of this design's clients over both tests.
    pub steps: u64,
}

/// The power test as one driver step: RF1, the 22 queries and RF2 run
/// back to back on one clock, and the result lands in `out`.
struct PowerTest {
    t: Arc<Tpch>,
    out: Arc<OnceLock<(PowerResult, Time)>>,
}

impl Client for PowerTest {
    fn step(&mut self, clk: &mut Clk) -> StepResult {
        let power = self.t.power_test(clk);
        // Each client runs once, so the slot is always empty here.
        let _ = self.out.set((power, clk.now));
        StepResult::Done
    }
}

/// Run TPC-H at scale factor `sf` for each of `designs`: build and bulk
/// load one database per design, run the power test and then the
/// `streams`-stream throughput test as two driver phases with one domain
/// per design, and compute Power@SF, Throughput@SF and QphH@SF. Both
/// tests start at virtual time 0.
pub fn run_tpch(sf: u64, streams: usize, designs: &[Design]) -> Vec<TpchRun> {
    let mut driver = Driver::new();
    let domains: Vec<_> = designs
        .iter()
        .enumerate()
        .map(|(domain, &design)| {
            let t = Arc::new(Tpch::setup(design, sf, 0.01));
            let out = Arc::new(OnceLock::new());
            let power = PowerTest {
                t: Arc::clone(&t),
                out: Arc::clone(&out),
            };
            driver.add_in_domain(domain, 0, Box::new(power));
            (t, out, Arc::new(AtomicU64::new(0)))
        })
        .collect();
    driver.run_to_completion();
    for (domain, (t, _, finish)) in domains.iter().enumerate() {
        for stream in t.throughput_test(streams, finish) {
            driver.add_in_domain(domain, 0, stream);
        }
    }
    driver.run_to_completion();
    domains
        .into_iter()
        .zip(designs)
        .enumerate()
        .map(|(domain, ((t, out, finish), &design))| {
            let (power, power_time) = Arc::into_inner(out)
                .and_then(OnceLock::into_inner)
                .expect("the power test ran to completion");
            let elapsed = finish.load(Ordering::Relaxed);
            let throughput = t.throughput(streams, elapsed);
            TpchRun {
                design,
                qphh: qphh(power.power, throughput),
                power,
                throughput,
                virtual_time: power_time + elapsed,
                stats: DbStats::of(&t.db),
                steps: driver.steps_in(domain),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counter blocks are a schema: [`DbStats::digest`] hashes the SSD,
    /// pool and device lists by name in this order; the policy, fault and
    /// classifier lists are the other blocks. A new counter is appended
    /// here on purpose.
    #[test]
    fn counter_key_lists_are_pinned() {
        fn keys(fields: Vec<(&'static str, u64)>) -> String {
            let names: Vec<_> = fields.into_iter().map(|(k, _)| k).collect();
            names.join(" ")
        }
        assert_eq!(
            keys(SsdMetricsSnapshot::default().fields()),
            "ssd_hits ssd_misses throttled_reads throttled_admissions admissions \
             fill_admissions policy_rejections replacements invalidations \
             cleaned_pages cleaner_writes inline_cleans checkpoint_cleaned \
             tac_cancelled_writes dirty_hits warm_imports warm_rejected_stale \
             warm_rejected_checksum audit_violations ssd_io_errors checksum_misses \
             disk_retries ssd_quarantined quarantined_reads lost_frames stranded_dirty \
             salvaged_pages ssd_retries shard_acquisitions shard_contended"
        );
        assert_eq!(
            keys(PoolStats::default().fields()),
            "hits misses evictions_clean evictions_dirty prefetched_pages \
             expanded_fill_pages checkpoint_writes shard_acquisitions shard_contended"
        );
        assert_eq!(
            keys(turbopool_bufpool::PolicyStats::default().fields()),
            "ghost_hits scan_steps"
        );
        assert_eq!(
            keys(turbopool_iosim::FaultStats::default().fields()),
            "read_errors write_errors torn_writes bitflips dead_rejects brownout_slowdowns"
        );
        assert_eq!(
            keys(turbopool_bufpool::ClassifierStats::default().fields()),
            "seq_as_seq seq_as_rand rand_as_seq rand_as_rand"
        );
        assert_eq!(
            keys(StatSnapshot::default().fields()),
            "read_ops read_pages read_busy_ns write_ops write_pages write_busy_ns"
        );
    }

    /// Raising any one counter, or the step count, by one changes the
    /// digest, and every member of [`DbStats`] is in the hashed list.
    #[test]
    fn digest_moves_with_every_field() {
        let stats = DbStats {
            ssd: Some(SsdMetricsSnapshot::default()),
            ..DbStats::default()
        };
        let fields = stats.fields();
        let members = [
            SsdMetricsSnapshot::default().fields().len(),
            PoolStats::default().fields().len(),
            2 * StatSnapshot::default().fields().len(),
            1,
        ];
        assert_eq!(fields.len(), members.iter().sum::<usize>());
        let mut pairs = fields;
        pairs.push(("steps", 7));
        let base = stats.digest(7);
        assert_eq!(checksum_pairs(&pairs), base);
        for i in 0..pairs.len() {
            let mut bumped = pairs.clone();
            bumped[i].1 += 1;
            assert_ne!(checksum_pairs(&bumped), base, "{}", pairs[i].0);
        }
        // The disk and SSD device blocks share names; their places differ.
        let mut moved = stats;
        moved.ssd_dev.read_ops += 1;
        assert_ne!(moved.digest(7), base);
        assert_ne!(DbStats::default().digest(7), base);
    }

    #[test]
    fn tiny_tpcc_run_produces_metrics() {
        let opts = RunOptions {
            clients: 4,
            ..RunOptions::tpcc()
        };
        let cell = Cell::new(OltpKind::TpcC { warehouses: 2 }, Design::Dw, opts);
        let run = &run_oltp(&[cell], 30 * MINUTE).runs[0];
        assert!(run.metric.total() > 0);
        assert!(run.stats.ssd.is_some());
        assert!(!run.series.is_empty());
    }

    /// A list mixing kinds, designs, λ and checkpoint intervals returns
    /// exactly what each cell returns run alone.
    #[test]
    fn oltp_set_matches_individual_runs() {
        let (tpcc, tpce) = (
            OltpKind::TpcC { warehouses: 2 },
            OltpKind::TpcE { customers: 50 },
        );
        let opts = |lambda, checkpoint| RunOptions {
            clients: 3,
            lambda,
            checkpoint,
            io_series: None,
        };
        let cells = [
            Cell::new(tpcc, Design::Dw, opts(0.5, None)),
            Cell::new(tpcc, Design::Lc, opts(0.1, Some(7 * MINUTE))),
            Cell::new(tpce, Design::Lc, opts(0.01, Some(5 * MINUTE))),
        ];
        let duration = 20 * MINUTE;
        let set = run_oltp(&cells, duration);
        assert_eq!(set.runs.len(), cells.len());
        let mut steps = 0;
        for (cell, par) in cells.iter().zip(&set.runs) {
            let solo = &run_oltp(&[*cell], duration).runs[0];
            assert_eq!(par.design, cell.design);
            assert!(par.metric.total() > 0, "{cell:?}");
            assert!(par.stats.ssd.is_some() && !par.series.is_empty());
            assert_eq!(par.metric.total(), solo.metric.total(), "{cell:?}");
            assert_eq!(par.stats, solo.stats, "{cell:?}");
            assert_eq!(par.steps, solo.steps, "{cell:?}");
            steps += par.steps;
        }
        assert_eq!(set.steps, steps);
    }

    /// A two-design TPC-H list returns what the designs return run one
    /// after another.
    #[test]
    fn tpch_list_matches_designs_run_one_after_another() {
        let designs = [Design::NoSsd, Design::Lc];
        let list = run_tpch(1, 2, &designs);
        for (design, par) in designs.into_iter().zip(&list) {
            let solo = &run_tpch(1, 2, &[design])[0];
            assert_eq!(par.design, design);
            assert_eq!(par.power.timings, solo.power.timings, "{design:?}");
            let metrics = |r: &TpchRun| (r.power.power, r.throughput, r.qphh);
            assert_eq!(metrics(par), metrics(solo), "{design:?}");
            assert_eq!(par.stats, solo.stats, "{design:?}");
            assert_eq!(par.steps, solo.steps, "{design:?}");
        }
    }

    /// The throughput test's elapsed time belongs to that test alone: a
    /// 1-stream test after a 2-stream one on the same thread reports what
    /// the 1-stream test reports on its own.
    #[test]
    fn tpch_throughput_is_reentrant() {
        let alone = run_tpch(1, 1, &[Design::Dw]).remove(0);
        let longer = run_tpch(1, 2, &[Design::Dw]).remove(0);
        let again = run_tpch(1, 1, &[Design::Dw]).remove(0);
        assert!(longer.virtual_time > alone.virtual_time);
        assert_eq!(again.throughput, alone.throughput);
        assert_eq!(again.virtual_time, alone.virtual_time);
    }
}
