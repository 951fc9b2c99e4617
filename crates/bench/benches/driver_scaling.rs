//! Driver scaling — wall-clock cost of running share-nothing domains
//! one after another versus together in one driver (one OS thread per
//! domain), over:
//!
//! * the fig6-quick workload (TPC-C 2K warehouses; LC, DW, TAC and noSSD
//!   each in their own share-nothing domain), and
//! * a fault matrix (four SSD designs × two fault streams, eight
//!   domains of synthetic clients with injected SSD errors), and
//! * a buffer-pool contention stress: real OS threads hammering ONE
//!   shared pool's hit path through its single table latch (the numbers
//!   behind DESIGN §3 "Latching"), at 1/2/4/8 threads.
//!
//! Each driver sweep times two modes — *alone*: every domain in its own
//! driver, one after another; *together*: all domains in one driver —
//! and asserts that per-domain results are bit-identical across modes
//! and reps. Each cell is timed several times and reported as median
//! and min–max in `BENCH_driver_scaling.json`: five reps per cell in
//! full mode; under `TURBO_QUICK` (shorter runs, contention capped at 4
//! threads) three for the contention cells and one for the driver
//! sweeps. Each cell records the host's core count, and
//! `speedup_vs_alone` (median over median) is only computed when the
//! host can actually run threads in parallel — a single-core runner
//! otherwise "reports" meaningless slowdowns.

use std::sync::Arc;

use turbopool_bench::{quick, BenchReport, Json, WallTimer};
use turbopool_bufpool::{BufferPool, BufferPoolConfig, DirectIo, PageIo};
use turbopool_core::metrics::SsdMetricsSnapshot;
use turbopool_iosim::fault::{FaultConfig, FaultPlan};
use turbopool_iosim::{Clk, DeviceSetup, IoManager, Locality, PageId, Time, MINUTE};
use turbopool_workload::driver::{Driver, ThroughputRecorder};
use turbopool_workload::runs::{run_oltp, Cell, OltpKind, OltpSet, RunOptions};
use turbopool_workload::scenario::Design;
use turbopool_workload::synthetic::{Synthetic, SyntheticConfig};

const FAULT_SEED: u64 = 0x5CA1E;

fn host_cores() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// How a driver sweep runs its domains.
#[derive(Clone, Copy)]
enum Mode {
    /// Every domain in its own driver, one after another.
    Alone,
    /// All domains in one driver, one OS thread each.
    Together,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Alone => "alone",
            Mode::Together => "together",
        }
    }
}

/// One timed run of a sweep cell.
struct Sample {
    drive_secs: f64,
    steps: u64,
    /// Per-domain fingerprints, compared across reps and modes.
    fingerprint: Vec<(String, u64)>,
}

/// Median and range of one cell's wall-clock reps (odd rep counts only,
/// so the median is a run that happened).
struct Spread {
    median: f64,
    min: f64,
    max: f64,
    reps: usize,
}

fn spread(mut secs: Vec<f64>) -> Spread {
    assert!(secs.len() % 2 == 1, "odd rep count");
    secs.sort_by(f64::total_cmp);
    Spread {
        median: secs[secs.len() / 2],
        min: secs[0],
        max: secs[secs.len() - 1],
        reps: secs.len(),
    }
}

fn cell_json(mode: Mode, steps: u64, t: &Spread, baseline_secs: f64) -> Json {
    let cores = host_cores();
    // On a single-core host the multi-threaded cell measures scheduler
    // overhead, not scaling; emit null rather than a misleading number.
    let speedup = if cores > 1 && t.median > 0.0 {
        Json::Num(baseline_secs / t.median)
    } else {
        Json::Null
    };
    Json::Obj(vec![
        ("mode".to_string(), Json::Str(mode.label().to_string())),
        ("cores".to_string(), Json::Int(cores)),
        ("reps".to_string(), Json::Int(t.reps as u64)),
        ("drive_secs".to_string(), Json::Num(t.median)),
        ("drive_secs_min".to_string(), Json::Num(t.min)),
        ("drive_secs_max".to_string(), Json::Num(t.max)),
        ("steps".to_string(), Json::Int(steps)),
        (
            "steps_per_sec".to_string(),
            Json::Num(if t.median > 0.0 {
                steps as f64 / t.median
            } else {
                0.0
            }),
        ),
        ("speedup_vs_alone".to_string(), speedup),
    ])
}

/// Run the fig6-quick OLTP panel in `mode` and fingerprint each
/// design's result with its commit count.
fn oltp_sample(mode: Mode, duration: Time) -> Sample {
    let cells = [Design::Lc, Design::Dw, Design::Tac, Design::NoSsd]
        .map(|d| Cell::new(OltpKind::TpcC { warehouses: 20 }, d, RunOptions::tpcc()));
    let sets: Vec<OltpSet> = match mode {
        Mode::Alone => cells
            .iter()
            .map(|cell| run_oltp(&[*cell], duration))
            .collect(),
        Mode::Together => vec![run_oltp(&cells, duration)],
    };
    Sample {
        drive_secs: sets.iter().map(|s| s.drive_secs).sum(),
        steps: sets.iter().map(|s| s.steps).sum(),
        fingerprint: sets
            .iter()
            .flat_map(|s| &s.runs)
            .map(|run| (run.design.label().to_string(), run.metric.total()))
            .collect(),
    }
}

/// Sum a few SSD counters into one order-insensitive fingerprint word.
fn metrics_word(m: &SsdMetricsSnapshot) -> u64 {
    m.ssd_hits
        .wrapping_add(m.admissions.wrapping_mul(3))
        .wrapping_add(m.ssd_io_errors.wrapping_mul(5))
        .wrapping_add(m.checksum_misses.wrapping_mul(7))
}

/// Run the fault matrix in `mode`: eight (design × fault) domains of
/// synthetic clients with injected SSD error streams.
fn fault_sample(mode: Mode, duration: Time) -> Sample {
    let designs = [Design::Cw, Design::Dw, Design::Lc, Design::Tac];
    let faults = ["transient", "bitflips"];
    let cfg = SyntheticConfig {
        rows: 5_000,
        ..Default::default()
    };
    let n = match mode {
        Mode::Alone => designs.len() * faults.len(),
        Mode::Together => 1,
    };
    let mut drivers: Vec<Driver> = (0..n).map(|_| Driver::new()).collect();
    let mut handles = Vec::new();
    for (d, &design) in designs.iter().enumerate() {
        for (f, &fault) in faults.iter().enumerate() {
            let domain = d * faults.len() + f;
            let s = Arc::new(Synthetic::setup(design, cfg.clone(), |spec| {
                spec.db.pool.frames = 64;
                spec.ssd(|s| s.frames = 256);
            }));
            let fc = match fault {
                "transient" => FaultConfig::transient(FAULT_SEED + domain as u64, 0.02),
                _ => {
                    let mut fc = FaultConfig::quiet(FAULT_SEED + domain as u64);
                    fc.bitflip_prob = 0.05;
                    fc
                }
            };
            s.db.io().set_ssd_fault(Some(Arc::new(FaultPlan::new(fc))));
            let rec = ThroughputRecorder::new(MINUTE);
            for c in 0..3 {
                drivers[domain % n].add_in_domain(
                    domain,
                    0,
                    Box::new(s.client(c, Arc::clone(&rec))),
                );
            }
            handles.push((format!("{}/{fault}", design.label()), s, rec));
        }
    }
    let timer = WallTimer::start();
    drivers.iter_mut().for_each(|d| d.run_until(duration));
    let drive_secs = timer.secs();
    let fingerprint = handles
        .iter()
        .map(|(label, s, rec)| {
            let m = s.db.ssd_metrics().expect("matrix designs have an SSD");
            (
                label.clone(),
                rec.total().wrapping_mul(31) ^ metrics_word(&m),
            )
        })
        .collect();
    Sample {
        drive_secs,
        steps: drivers.iter().map(Driver::steps).sum(),
        fingerprint,
    }
}

/// Time both modes `reps` times. Every run of the sweep — each rep in
/// each mode — must reproduce the first run's fingerprints and step
/// count.
fn sweep(name: &str, reps: usize, mut run: impl FnMut(Mode) -> Sample) -> Vec<Json> {
    let mut base: Option<Sample> = None;
    let mut cells: Vec<(Mode, Spread)> = Vec::new();
    for mode in [Mode::Alone, Mode::Together] {
        let mut secs = Vec::with_capacity(reps);
        for _ in 0..reps {
            let s = run(mode);
            secs.push(s.drive_secs);
            match &base {
                None => base = Some(s),
                Some(b) => {
                    assert_eq!(
                        s.fingerprint,
                        b.fingerprint,
                        "{name}: results diverged from the first run ({} mode)",
                        mode.label()
                    );
                    assert_eq!(s.steps, b.steps, "{name}: step counts diverged");
                }
            }
        }
        let t = spread(secs);
        println!(
            "{name:<14} {:<8} drive_secs={:.3} (min {:.3} max {:.3}, {} reps)",
            mode.label(),
            t.median,
            t.min,
            t.max,
            t.reps
        );
        cells.push((mode, t));
    }
    let steps = base.expect("a sweep has at least one run").steps;
    println!("{name:<14} steps={steps}, results identical across both modes and all reps");
    let baseline_secs = cells[0].1.median;
    cells
        .iter()
        .map(|(mode, t)| cell_json(*mode, steps, t, baseline_secs))
        .collect()
}

// ---------------------------------------------------------------------
// Buffer-pool table-latch contention stress
// ---------------------------------------------------------------------

/// Pages in the stress pool. Frames == pages, so after a single warming
/// pass every access is a hit: the measurement is pure page-table +
/// policy metadata work under the table latch, with no I/O (whose own
/// locks would mask the effect, as in the ablation-4 partitioning bench).
const STRESS_PAGES: u64 = 4096;

/// One shared pool hammered by `threads` real threads: wall seconds and
/// contended latch acquisitions of the measured phase.
fn contention_run(threads: usize, gets_per_thread: u64) -> (f64, u64) {
    let io = Arc::new(IoManager::new(&DeviceSetup::paper(256, STRESS_PAGES, 1)));
    let layer: Arc<dyn PageIo> = Arc::new(DirectIo::new(io));
    let cfg = BufferPoolConfig::new(STRESS_PAGES as usize, 256, STRESS_PAGES);
    let pool = Arc::new(BufferPool::new(cfg, layer));
    // Warm every page resident (unmeasured, single-threaded).
    let mut clk = Clk::new();
    for p in 0..STRESS_PAGES {
        pool.get(&mut clk, PageId(p), Locality::Random).unwrap();
    }
    let warm = pool.stats();
    // Identical measurement rationale to ablation 4 (§3.3.4).
    #[expect(
        clippy::disallowed_methods,
        reason = "wall clock on purpose: this measures real OS-thread latch contention, \
                  which the virtual clock cannot observe"
    )]
    let t0 = std::time::Instant::now();
    #[expect(
        clippy::disallowed_methods,
        reason = "contention stress needs true parallelism; the hammered pool is bench-local, \
                  no simulation state is shared"
    )]
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                let mut clk = Clk::new();
                let mut x = t + 1;
                for _ in 0..gets_per_thread {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let pid = PageId((x >> 16) % STRESS_PAGES);
                    let g = pool.get(&mut clk, pid, Locality::Random).unwrap();
                    std::hint::black_box(&g);
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let stats = pool.stats();
    // `stats()` itself takes the table latch; the closing snapshot's one
    // acquisition is inside the delta.
    let acq = stats.shard_acquisitions - warm.shard_acquisitions - 1;
    // A hit on the warm pool is one latch acquisition: the probe pins under
    // it and the guard's drop takes none. An exact count on every host, so
    // a second latch per hit coming back fails the gate that runs this.
    assert_eq!(
        acq,
        gets_per_thread * threads as u64,
        "threads={threads}: a warm get must take exactly one table latch"
    );
    (wall, stats.shard_contended - warm.shard_contended)
}

/// One contention cell: `reps` runs, reported at the median-wall run.
fn contention_cell(threads: usize, gets_per_thread: u64, reps: usize) -> Json {
    let mut runs: Vec<(f64, u64)> = (0..reps)
        .map(|_| contention_run(threads, gets_per_thread))
        .collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let contended = runs[runs.len() / 2].1;
    let t = spread(runs.iter().map(|r| r.0).collect());
    let gets = gets_per_thread * threads as u64;
    let rate = |wall: f64| gets as f64 / wall.max(1e-9);
    println!(
        "contention     threads={threads} gets/s={:.0} (min {:.0} max {:.0}, {} reps) \
         wall={:.3}s contended_share={:.4}",
        rate(t.median),
        rate(t.max),
        rate(t.min),
        t.reps,
        t.median,
        contended as f64 / gets as f64,
    );
    Json::Obj(vec![
        ("threads".to_string(), Json::Int(threads as u64)),
        ("cores".to_string(), Json::Int(host_cores())),
        ("reps".to_string(), Json::Int(t.reps as u64)),
        ("wall_secs".to_string(), Json::Num(t.median)),
        ("gets".to_string(), Json::Int(gets)),
        ("gets_per_sec".to_string(), Json::Num(rate(t.median))),
        ("gets_per_sec_min".to_string(), Json::Num(rate(t.max))),
        ("gets_per_sec_max".to_string(), Json::Num(rate(t.min))),
        // Asserted equal to `gets` in every rep.
        ("shard_acquisitions".to_string(), Json::Int(gets)),
        ("latch_acq_per_get".to_string(), Json::Num(1.0)),
        ("shard_contended".to_string(), Json::Int(contended)),
        (
            "contended_share".to_string(),
            Json::Num(contended as f64 / gets as f64),
        ),
    ])
}

fn main() {
    let quick = quick();
    let thread_counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let oltp_minutes: u64 = if quick { 20 } else { 60 };
    let fault_minutes: u64 = if quick { 10 } else { 30 };
    // Single samples on a shared host mislead (DESIGN §9): full mode takes
    // five reps of every cell; the quick gate three, and only of the
    // sub-second contention cells.
    let (driver_reps, contention_reps) = if quick { (1, 3) } else { (5, 5) };
    let timer = WallTimer::start();

    println!("== driver_scaling: fig6-quick (TPC-C 2K, 4 design domains) ==");
    let oltp = sweep("oltp", driver_reps, |m| {
        oltp_sample(m, oltp_minutes * MINUTE)
    });

    println!("\n== driver_scaling: fault matrix (4 designs x 2 fault streams) ==");
    let faults = sweep("fault_matrix", driver_reps, |m| {
        fault_sample(m, fault_minutes * MINUTE)
    });

    println!("\n== driver_scaling: pool table-latch contention (1 shared pool) ==");
    let gets_per_thread: u64 = if quick { 500_000 } else { 2_000_000 };
    let contention: Vec<Json> = thread_counts
        .iter()
        .map(|&threads| contention_cell(threads, gets_per_thread, contention_reps))
        .collect();

    let virtual_ns =
        (oltp_minutes * MINUTE).saturating_mul(4) + (fault_minutes * MINUTE).saturating_mul(8);
    let mut report = BenchReport::new("driver_scaling");
    report
        .standard(timer.secs(), virtual_ns * (2 * driver_reps) as u64, 0)
        .set("oltp", Json::Arr(oltp))
        .set("fault_matrix", Json::Arr(faults))
        .set("pool_contention", Json::Arr(contention))
        .int("cores", host_cores());
    report.emit();
}
