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
//! and reps, and prints each domain's `digest` line. Each cell is timed
//! several times and printed as median and min–max: five reps per cell
//! in full mode; under `TURBO_QUICK` (shorter runs, contention capped at
//! 4 threads) three for the contention cells and one for the driver
//! sweeps. The *together* line's `speedup_vs_alone` (median over median)
//! is only computed when the host can actually run threads in parallel —
//! a single-core runner otherwise "reports" meaningless slowdowns.

use std::sync::Arc;

use turbopool_bench::{print_digest, quick, WallTimer};
use turbopool_bufpool::{BufferPool, BufferPoolConfig, DirectIo, PageIo};
use turbopool_iosim::fault::{FaultConfig, FaultPlan};
use turbopool_iosim::{Clk, DeviceSetup, IoManager, Locality, PageId, Time, MINUTE};
use turbopool_workload::driver::{Driver, ThroughputRecorder};
use turbopool_workload::runs::{run_oltp, Cell, DbStats, OltpKind, OltpSet, RunOptions};
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
    /// Per-domain digests, compared across reps and modes.
    digests: Vec<(String, u64)>,
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

/// Run the fig6-quick OLTP panel in `mode` and digest each design's
/// result.
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
        digests: sets
            .iter()
            .flat_map(|s| &s.runs)
            .map(|run| (run.design.label().to_string(), run.stats.digest(run.steps)))
            .collect(),
    }
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
            handles.push((format!("{}/{fault}", design.label()), s));
        }
    }
    let timer = WallTimer::start();
    drivers.iter_mut().for_each(|d| d.run_until(duration));
    let drive_secs = timer.secs();
    let digests = handles
        .iter()
        .enumerate()
        .map(|(domain, (label, s))| {
            let steps = drivers[domain % n].steps_in(domain);
            (label.clone(), DbStats::of(&s.db).digest(steps))
        })
        .collect();
    Sample {
        drive_secs,
        steps: drivers.iter().map(Driver::steps).sum(),
        digests,
    }
}

/// Time both modes `reps` times. Every run of the sweep — each rep in
/// each mode — must reproduce the first run's digests and step count;
/// that count comes back.
fn sweep(name: &str, reps: usize, mut run: impl FnMut(Mode) -> Sample) -> u64 {
    let mut base: Option<Sample> = None;
    let mut alone_secs = 0.0;
    for mode in [Mode::Alone, Mode::Together] {
        let mut secs = Vec::with_capacity(reps);
        for _ in 0..reps {
            let s = run(mode);
            secs.push(s.drive_secs);
            match &base {
                None => base = Some(s),
                Some(b) => {
                    assert_eq!(
                        s.digests,
                        b.digests,
                        "{name}: results diverged from the first run ({} mode)",
                        mode.label()
                    );
                    assert_eq!(s.steps, b.steps, "{name}: step counts diverged");
                }
            }
        }
        let t = spread(secs);
        // On a single-core host the multi-threaded cell measures scheduler
        // overhead, not scaling: no speedup is printed there.
        let speedup = match mode {
            Mode::Alone => {
                alone_secs = t.median;
                String::new()
            }
            Mode::Together if host_cores() > 1 && t.median > 0.0 => {
                format!(" speedup_vs_alone={:.2}x", alone_secs / t.median)
            }
            Mode::Together => format!(" speedup_vs_alone=n/a ({} core)", host_cores()),
        };
        println!(
            "{name:<14} {:<8} drive_secs={:.3} (min {:.3} max {:.3}, {} reps){speedup}",
            mode.label(),
            t.median,
            t.min,
            t.max,
            t.reps
        );
    }
    let base = base.expect("a sweep has at least one run");
    println!(
        "{name:<14} steps={}, results identical across both modes and all reps",
        base.steps
    );
    for (label, digest) in &base.digests {
        print_digest(label, *digest);
    }
    base.steps
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
fn contention_cell(threads: usize, gets_per_thread: u64, reps: usize) {
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
    let oltp_steps = sweep("oltp", driver_reps, |m| {
        oltp_sample(m, oltp_minutes * MINUTE)
    });

    println!("\n== driver_scaling: fault matrix (4 designs x 2 fault streams) ==");
    let fault_steps = sweep("fault_matrix", driver_reps, |m| {
        fault_sample(m, fault_minutes * MINUTE)
    });

    println!("\n== driver_scaling: pool table-latch contention (1 shared pool) ==");
    let gets_per_thread: u64 = if quick { 500_000 } else { 2_000_000 };
    for &threads in thread_counts {
        contention_cell(threads, gets_per_thread, contention_reps);
    }

    // Each sweep runs every rep in both modes, with one step count.
    let runs = (2 * driver_reps) as u64;
    timer.print_timing("driver_scaling", (oltp_steps + fault_steps) * runs);
}
