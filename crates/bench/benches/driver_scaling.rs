//! Driver scaling — wall-clock speedup of the time-windowed parallel
//! driver (ISSUE 4 tentpole) at 1/2/4/8 worker threads, over:
//!
//! * the fig6-quick workload (TPC-C 2K warehouses; LC, DW, TAC and noSSD
//!   each in their own share-nothing domain), and
//! * a fault matrix (four SSD designs × two fault streams, eight
//!   domains of synthetic clients with injected SSD errors), and
//! * a buffer-pool contention stress (ISSUE 9): real OS threads
//!   hammering ONE shared pool's hit path, lock-striped 1-way vs N-way.
//!
//! Every sweep asserts that per-domain results are bit-identical across
//! thread counts — the parallel driver must never trade determinism for
//! speed. Speedups are reported in `BENCH_driver_scaling.json`; on an
//! N-core runner the 4-thread OLTP sweep should approach min(4, N)×.
//! Each sample records the host's core count, and `speedup_vs_1` is
//! only computed when the host can actually run threads in parallel —
//! a single-core runner otherwise "reports" meaningless slowdowns.
//! `TURBO_QUICK` shortens runs and caps the sweep at 4 threads.

use std::sync::Arc;

use turbopool_bench::{quick, BenchReport, Json, OltpKind, RunOptions, WallTimer};
use turbopool_bufpool::{BufferPool, BufferPoolConfig, DirectIo, PageIo, ShardCount};
use turbopool_core::metrics::SsdMetricsSnapshot;
use turbopool_iosim::fault::{FaultConfig, FaultPlan};
use turbopool_iosim::{Clk, DeviceSetup, IoManager, Locality, PageId, MINUTE};
use turbopool_workload::driver::{Driver, ThroughputRecorder};
use turbopool_workload::scenario::Design;
use turbopool_workload::synthetic::{Synthetic, SyntheticConfig};

const FAULT_SEED: u64 = 0x5CA1E;

fn host_cores() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// One (threads -> outcome) sample of a sweep.
struct Sample {
    threads: usize,
    drive_secs: f64,
    steps: u64,
    /// Host core count at sample time — speedup is only meaningful
    /// against it.
    cores: u64,
    /// Per-domain fingerprints, compared across thread counts.
    fingerprint: Vec<(String, u64)>,
}

fn sample_json(s: &Sample, baseline_secs: f64) -> Json {
    // On a single-core host the multi-threaded samples measure scheduler
    // overhead, not scaling; emit null rather than a misleading number.
    let speedup = if s.cores > 1 && s.drive_secs > 0.0 {
        Json::Num(baseline_secs / s.drive_secs)
    } else {
        Json::Null
    };
    Json::Obj(vec![
        ("threads".to_string(), Json::Int(s.threads as u64)),
        ("cores".to_string(), Json::Int(s.cores)),
        ("drive_secs".to_string(), Json::Num(s.drive_secs)),
        ("steps".to_string(), Json::Int(s.steps)),
        (
            "steps_per_sec".to_string(),
            Json::Num(if s.drive_secs > 0.0 {
                s.steps as f64 / s.drive_secs
            } else {
                0.0
            }),
        ),
        ("speedup_vs_1".to_string(), speedup),
    ])
}

/// Run the fig6-quick OLTP panel at `threads` and fingerprint each
/// design's result with its commit count.
fn oltp_sample(threads: usize, duration: turbopool_iosim::Time) -> Sample {
    let designs = [Design::Lc, Design::Dw, Design::Tac, Design::NoSsd];
    let opts = RunOptions::tpcc(duration);
    let set =
        turbopool_bench::run_oltp_set(OltpKind::TpcC { warehouses: 20 }, &designs, &opts, threads);
    let fingerprint = set
        .runs
        .iter()
        .map(|run| (run.design.label().to_string(), run.metric.total()))
        .collect();
    Sample {
        threads,
        drive_secs: set.drive_secs,
        steps: set.steps,
        cores: host_cores(),
        fingerprint,
    }
}

/// Sum a few SSD counters into one order-insensitive fingerprint word.
fn metrics_word(m: &SsdMetricsSnapshot) -> u64 {
    m.ssd_hits
        .wrapping_add(m.admissions.wrapping_mul(3))
        .wrapping_add(m.ssd_io_errors.wrapping_mul(5))
        .wrapping_add(m.checksum_misses.wrapping_mul(7))
}

/// Run the fault matrix at `threads`: eight (design × fault) domains of
/// synthetic clients with injected SSD error streams.
fn fault_sample(threads: usize, duration: turbopool_iosim::Time) -> Sample {
    let designs = [Design::Cw, Design::Dw, Design::Lc, Design::Tac];
    let faults = ["transient", "bitflips"];
    let cfg = SyntheticConfig {
        rows: 5_000,
        ..Default::default()
    };
    let mut driver = Driver::new();
    let mut handles = Vec::new();
    let mut lookahead = turbopool_iosim::Time::MAX;
    for (d, &design) in designs.iter().enumerate() {
        for (f, &fault) in faults.iter().enumerate() {
            let domain = d * faults.len() + f;
            let s = Arc::new(Synthetic::setup(design, cfg.clone(), |spec| {
                spec.mem_frames = 64;
                spec.ssd_frames = 256;
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
            lookahead = lookahead.min(s.db.io().setup().min_service_ns());
            let rec = ThroughputRecorder::new(MINUTE);
            for c in 0..3 {
                driver.add_in_domain(domain, 0, Box::new(s.client(c, Arc::clone(&rec))));
            }
            handles.push((format!("{}/{fault}", design.label()), s, rec));
        }
    }
    driver.set_lookahead(lookahead.saturating_mul(4096));
    let timer = WallTimer::start();
    driver.run_until_parallel(duration, threads);
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
        threads,
        drive_secs,
        steps: driver.steps(),
        cores: host_cores(),
        fingerprint,
    }
}

fn sweep(
    name: &str,
    thread_counts: &[usize],
    mut run: impl FnMut(usize) -> Sample,
) -> (Vec<Json>, f64) {
    let mut samples = Vec::new();
    for &threads in thread_counts {
        let s = run(threads);
        println!(
            "{name:<14} threads={threads} drive_secs={:.3} steps={}",
            s.drive_secs, s.steps
        );
        samples.push(s);
    }
    let base = &samples[0];
    for s in &samples[1..] {
        assert_eq!(
            s.fingerprint, base.fingerprint,
            "{name}: results diverged between {} and {} threads",
            base.threads, s.threads
        );
        assert_eq!(s.steps, base.steps, "{name}: step counts diverged");
    }
    println!("{name:<14} results identical across all thread counts");
    let baseline_secs = base.drive_secs;
    let entries = samples
        .iter()
        .map(|s| sample_json(s, baseline_secs))
        .collect();
    (entries, baseline_secs)
}

// ---------------------------------------------------------------------
// ISSUE 9: buffer-pool lock-striping contention stress
// ---------------------------------------------------------------------

/// Pages in the stress pool. Frames == pages, so after a single warming
/// pass every access is a hit: the measurement is pure page-table +
/// policy metadata work under the shard latches, with no I/O (whose own
/// locks would mask the effect, as in the ablation-4 partitioning bench).
const STRESS_PAGES: u64 = 4096;

/// One shared pool hammered by real threads at a given stripe count.
fn contention_sample(shards: usize, threads: usize, gets_per_thread: u64) -> Json {
    let io = Arc::new(IoManager::new(&DeviceSetup::paper(256, STRESS_PAGES, 1)));
    let layer: Arc<dyn PageIo> = Arc::new(DirectIo::new(io));
    let mut cfg = BufferPoolConfig::new(STRESS_PAGES as usize, 256, STRESS_PAGES);
    cfg.shards = ShardCount::Fixed(shards);
    let pool = Arc::new(BufferPool::new(cfg, layer));
    // Warm every page resident (unmeasured, single-threaded).
    let mut clk = Clk::new();
    for p in 0..STRESS_PAGES {
        pool.get(&mut clk, PageId(p), Locality::Random).unwrap();
    }
    let warm = pool.stats();
    // Wall clock on purpose: this measures real OS-thread latch
    // contention across stripe counts, which the virtual clock cannot
    // observe. Identical measurement rationale to ablation 4 (§3.3.4).
    // lint: allow(wallclock) — harness-side timing of real latch contention
    let t0 = std::time::Instant::now();
    // lint: allow(thread-spawn) — contention stress needs true parallelism; the hammered pool is bench-local, no simulation state is shared.
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
    // `stats()` itself takes every shard latch once; the closing snapshot's
    // round is inside the delta.
    let acq = stats.shard_acquisitions - warm.shard_acquisitions - pool.shard_count() as u64;
    let contended = stats.shard_contended - warm.shard_contended;
    let gets = gets_per_thread * threads as u64;
    // A hit on the warm pool is one latch acquisition: the probe pins under
    // it and the guard's drop takes none. An exact count on every host, so
    // a second latch per hit coming back fails the gate that runs this.
    assert_eq!(
        acq, gets,
        "shards={shards} threads={threads}: a warm get must take exactly one shard latch"
    );
    println!(
        "contention     shards={shards} threads={threads} wall={wall:.3}s \
         gets/s={:.0} latch_acq_per_get={:.2} contended_share={:.4}",
        gets as f64 / wall.max(1e-9),
        acq as f64 / gets as f64,
        contended as f64 / acq.max(1) as f64,
    );
    Json::Obj(vec![
        ("shards".to_string(), Json::Int(shards as u64)),
        ("threads".to_string(), Json::Int(threads as u64)),
        ("cores".to_string(), Json::Int(host_cores())),
        ("wall_secs".to_string(), Json::Num(wall)),
        ("gets".to_string(), Json::Int(gets)),
        (
            "gets_per_sec".to_string(),
            Json::Num(gets as f64 / wall.max(1e-9)),
        ),
        ("shard_acquisitions".to_string(), Json::Int(acq)),
        (
            "latch_acq_per_get".to_string(),
            Json::Num(acq as f64 / gets as f64),
        ),
        ("shard_contended".to_string(), Json::Int(contended)),
        (
            "contended_share".to_string(),
            Json::Num(contended as f64 / acq.max(1) as f64),
        ),
    ])
}

fn main() {
    let quick = quick();
    let thread_counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let oltp_minutes: u64 = if quick { 20 } else { 60 };
    let fault_minutes: u64 = if quick { 10 } else { 30 };
    let timer = WallTimer::start();

    println!("== driver_scaling: fig6-quick (TPC-C 2K, 4 design domains) ==");
    let (oltp, _) = sweep("oltp", thread_counts, |t| {
        oltp_sample(t, oltp_minutes * MINUTE)
    });

    println!("\n== driver_scaling: fault matrix (4 designs x 2 fault streams) ==");
    let (faults, _) = sweep("fault_matrix", thread_counts, |t| {
        fault_sample(t, fault_minutes * MINUTE)
    });

    println!("\n== driver_scaling: pool lock-striping contention (1 shared pool) ==");
    let gets_per_thread: u64 = if quick { 500_000 } else { 2_000_000 };
    let mut contention = Vec::new();
    for &shards in &[1usize, 8] {
        for &threads in thread_counts {
            contention.push(contention_sample(shards, threads, gets_per_thread));
        }
    }

    let virtual_ns =
        (oltp_minutes * MINUTE).saturating_mul(4) + (fault_minutes * MINUTE).saturating_mul(8);
    let mut report = BenchReport::new("driver_scaling");
    report
        .standard(
            timer.secs(),
            *thread_counts.last().unwrap_or(&1),
            virtual_ns * thread_counts.len() as u64,
            0,
        )
        .set("oltp", Json::Arr(oltp))
        .set("fault_matrix", Json::Arr(faults))
        .set("pool_contention", Json::Arr(contention))
        .int("cores", host_cores());
    report.emit();
}
