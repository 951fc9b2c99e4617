//! Policy arena — every replacement policy × every admission policy ×
//! every SSD design × TPC-C/TPC-E, in one grid.
//!
//! The paper fixes LRU-2 in DRAM and per-design SSD admission rules;
//! this harness measures how much of each design's shape survives a
//! policy swap. Per cell it reports the DRAM and SSD hit rates, the
//! committed-metric rate, and the replacement policy's eviction-scan
//! cost (scan steps per eviction — the price of victim selection).
//!
//! Emits `BENCH_policy_arena.json` with one record per cell plus the
//! usual steps/sec standard block. Env: TURBO_QUICK shortens runs (the
//! grid itself is never thinned — coverage is the point), TURBO_THREADS.
//!
//! The noSSD baseline is skipped: it has no admission site and its
//! replacement-only column is already covered by the SSD designs'
//! DRAM tiers.

use std::rc::Rc;

use turbopool_bench::{
    bench_threads, quick, run_oltp_set, BenchReport, Json, OltpKind, OltpRun, RunOptions, Table,
    WallTimer,
};
use turbopool_bufpool::{AdmissionKind, ReplacementKind};
use turbopool_iosim::{HOUR, MINUTE};
use turbopool_workload::scenario::Design;

fn cell_json(workload: &str, run: &OltpRun, replacement: ReplacementKind) -> Json {
    let pool = &run.pool;
    let evictions = pool.evictions_clean + pool.evictions_dirty;
    let scan_per_evict = if evictions == 0 {
        0.0
    } else {
        run.policy.scan_steps as f64 / evictions as f64
    };
    let mut fields = vec![
        ("workload".into(), Json::Str(workload.into())),
        ("design".into(), Json::Str(run.design.label().into())),
        ("replacement".into(), Json::Str(replacement.label())),
        ("metric_per_min".into(), Json::Num(run.last_hour_per_min)),
        ("dram_hit_rate".into(), Json::Num(pool.hit_rate())),
        (
            "ssd_hit_rate".into(),
            run.ssd
                .as_ref()
                .map(|m| Json::Num(m.hit_rate()))
                .unwrap_or(Json::Null),
        ),
        ("evictions".into(), Json::Int(evictions)),
        ("scan_steps_per_eviction".into(), Json::Num(scan_per_evict)),
        ("policy".into(), Json::counters(run.policy.fields())),
    ];
    if let Some(m) = &run.ssd {
        fields.push(("ssd_ghost_admits".into(), Json::Int(m.admission_ghost_hits)));
        fields.push(("ssd_rejections".into(), Json::Int(m.policy_rejections)));
    }
    Json::Obj(fields)
}

fn main() {
    let timer = WallTimer::start();
    let quick = quick();
    let threads = bench_threads();
    let duration = if quick { 20 * MINUTE } else { HOUR };
    // SSD designs only — see the module docs for why noSSD sits out.
    let designs = [Design::Cw, Design::Dw, Design::Lc, Design::Tac];
    let workloads: &[(&str, OltpKind)] = &[
        ("tpcc", OltpKind::TpcC { warehouses: 4 }),
        ("tpce", OltpKind::TpcE { customers: 400 }),
    ];

    let mut cells = Vec::new();
    let mut steps = 0u64;
    let mut drive_secs = 0.0f64;
    for (wname, kind) in workloads {
        let mut table = Table::new(vec![
            "design",
            "replacement",
            "admission",
            "metric/min",
            "dram hit%",
            "ssd hit%",
            "scan/evict",
        ]);
        for replacement in ReplacementKind::arena() {
            for admission in AdmissionKind::arena() {
                let mut opts = match kind {
                    OltpKind::TpcC { .. } => RunOptions::tpcc(duration),
                    OltpKind::TpcE { .. } => RunOptions::tpce(duration),
                };
                opts.clients = 5;
                opts.tweak = Rc::new(move |spec| {
                    spec.db.pool.replacement = replacement;
                    // Shrink both tiers well below the touched working set
                    // so every cell actually churns: replacement picks
                    // victims, and the SSD leaves its aggressive-filling
                    // phase early enough that admission decides real
                    // traffic.
                    spec.db.pool.frames = 192;
                    spec.ssd(|s| {
                        s.admission = admission;
                        s.frames = 320;
                    });
                });
                let set = run_oltp_set(*kind, &designs, &opts, threads);
                steps += set.steps;
                drive_secs += set.drive_secs;
                for run in &set.runs {
                    let evictions = run.pool.evictions_clean + run.pool.evictions_dirty;
                    table.row(vec![
                        run.design.label().into(),
                        replacement.label(),
                        admission.label().into(),
                        format!("{:.2}", run.last_hour_per_min),
                        format!("{:.1}%", run.pool.hit_rate() * 100.0),
                        run.ssd
                            .as_ref()
                            .map(|m| format!("{:.1}%", m.hit_rate() * 100.0))
                            .unwrap_or_else(|| "-".into()),
                        format!(
                            "{:.2}",
                            if evictions == 0 {
                                0.0
                            } else {
                                run.policy.scan_steps as f64 / evictions as f64
                            }
                        ),
                    ]);
                    let mut cell = cell_json(wname, run, replacement);
                    if let Json::Obj(fields) = &mut cell {
                        fields.insert(3, ("admission".into(), Json::Str(admission.label().into())));
                    }
                    cells.push(cell);
                }
            }
        }
        println!("\n== Policy arena ({wname}) ==\n");
        table.print();
    }

    let mut report = BenchReport::new("policy_arena");
    report
        .standard(timer.secs(), threads, duration, steps)
        .num("drive_secs", drive_secs)
        .num(
            "steps_per_drive_sec",
            if drive_secs > 0.0 {
                steps as f64 / drive_secs
            } else {
                0.0
            },
        )
        .set("cells", Json::Arr(cells));
    report.emit();
}
