//! One run of one workload: the untraced measurement (`--trace 0`, the
//! end-to-end metrics) or the traced one (`--trace 1`, the per-layer
//! metrics), and the result line the contract asks for.
//!
//! `BENCHMARK.json` is the single list of metric names and units; it is
//! embedded at build time and every run checks that it printed exactly
//! those names.

use std::collections::BTreeSet;

use turbopool::workload::scenario::Design;

use crate::host;
use crate::json::Json;
use crate::ladder;
use crate::stats::{median, percentile, ratio};
use crate::trace::{self_times, Tracer};
use crate::workloads::{run_rep, time_setup, Kind, Rep};

/// `setup_s` is the median of at least this many build + bulk-loads, and
/// of more (up to `MAX_SETUPS`) while they add up to under half a second:
/// a few milliseconds of set-up need many samples to give a steady median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 40;

pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

/// The embedded `BENCHMARK.json`.
pub fn spec() -> Spec {
    let doc =
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is valid JSON");
    let defs = |key: &str| -> Vec<MetricDef> {
        doc.get(key)
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let text = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                MetricDef {
                    name: text("name"),
                    unit: text("unit"),
                    higher_is_better: text("better") == "higher",
                    bound: m.get("bound").and_then(Json::as_f64),
                }
            })
            .collect()
    };
    Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .unwrap_or(10.0) as u64,
        workloads: doc
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| Some(w.get("name")?.as_str()?.to_string()))
            .collect(),
        end_to_end: defs("end_to_end"),
        per_layer: defs("per_layer"),
    }
}

/// What one run measured, before it is checked against the spec.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    /// Terminal transactions stepped plus rows verified after recovery.
    pub attempted: u64,
    /// Commits that did not commit plus rows that failed verification.
    pub failed: u64,
    /// Correctness-gate failures; empty when the run is good.
    pub problems: Vec<String>,
}

fn tally(reps: &[&Rep], problems: &mut Vec<String>) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for (i, rep) in reps.iter().enumerate() {
        attempted += rep.txn_steps + rep.rows_verified;
        failed += rep.probe.failed;
        problems.extend(rep.problems.iter().map(|p| format!("rep {i}: {p}")));
        if rep.fingerprint() != reps[0].fingerprint() {
            problems.push(format!(
                "rep {i} differs from rep 0 in virtual time or counters:\n  {}\n  {}",
                reps[0].fingerprint(),
                rep.fingerprint()
            ));
        }
    }
    (attempted, failed)
}

/// `--trace 0`: as many whole reps, all on the same seed, as drive for
/// about `seconds` on the reference host. The count is a fixed function of
/// `seconds`, never of how fast this host is, so two commits always run
/// identical work. Host-time metrics are medians over reps (or over the
/// slices of every rep); virtual-time metrics must agree between reps to
/// the bit and are reported from the first.
pub fn measure(kind: Kind, seed: u64, seconds: u64, div: u64) -> Outcome {
    let calib_before = host::calib_ms();
    let wanted = ((kind.reps_per_10s() * seconds + 5) / 10).max(1);
    let reps: Vec<Rep> = (0..wanted)
        .map(|_| run_rep(kind, kind.design(), seed, div, false))
        .collect();
    let driven_ns: u64 = reps.iter().map(|r| r.drive_ns).sum();
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < 0.5)
    {
        setups.push(time_setup(kind, seed, div) as f64 / 1e9);
    }
    let drives: Vec<f64> = reps.iter().map(|r| r.drive_ns as f64 / 1e9).collect();
    let per_txn_ns: Vec<f64> = reps.iter().flat_map(slice_ns_per_txn).collect();
    let mut problems = Vec::new();
    let (attempted, failed) = tally(&reps.iter().collect::<Vec<_>>(), &mut problems);
    eprintln!(
        "{}: {} reps, {:.2} s driven, {} terminal txns and {} driver steps per rep; \
         calibration loop {calib_before:.1} ms before, {:.1} ms after",
        kind.name(),
        reps.len(),
        driven_ns as f64 / 1e9,
        reps[0].txn_steps,
        reps[0].driver_steps,
        host::calib_ms()
    );
    Outcome {
        metrics: vec![
            ("setup_s", median(&setups)),
            ("drive_s", median(&drives)),
            ("host_us_per_txn", median(&per_txn_ns) / 1e3),
            ("peak_rss_mb", reps[0].peak_rss_mb),
            ("sim_tput_per_min", reps[0].virt.tput_per_min),
            ("sim_txn_slow5_ms", reps[0].virt.slow5_ms),
        ],
        attempted,
        failed,
        problems,
    }
}

/// Per slice of the drive: host nanoseconds per terminal transaction.
fn slice_ns_per_txn(rep: &Rep) -> Vec<f64> {
    rep.samples
        .iter()
        .filter(|s| s.txns > 0)
        .map(|s| s.host_ns as f64 / s.txns as f64)
        .collect()
}

/// `--trace 1`: one untraced rep, one traced rep, the noSSD twin and the
/// ladder pass. Writes the spans to `out/trace_<workload>.jsonl`.
pub fn trace(kind: Kind, seed: u64, div: u64) -> Outcome {
    let calib_before = host::calib_ms();
    let plain = run_rep(kind, kind.design(), seed, div, false);
    let traced = run_rep(kind, kind.design(), seed, div, true);
    let t0 = host::wall_ns();
    let twin = run_rep(kind, Design::NoSsd, seed, div, false);
    let twin_s = (host::wall_ns() - t0) as f64 / 1e9;
    let mut metrics = ladder::run(kind, seed, div);
    let calib_after = host::calib_ms();

    let mut problems = Vec::new();
    let (attempted, failed) = tally(&[&plain, &traced], &mut problems);
    problems.extend(twin.problems.iter().map(|p| format!("noSSD twin: {p}")));

    let tracer = traced
        .probe
        .tracer
        .as_ref()
        .expect("the traced rep has a tracer");
    let path = host::out_dir().join(format!("trace_{}.jsonl", kind.name()));
    if let Err(e) = tracer.write_jsonl(&path) {
        problems.push(format!("cannot write {}: {e}", path.display()));
    }
    metrics.extend(traced.counters.iter().copied());
    metrics.extend(span_metrics(kind, tracer, &traced));

    let speedup = ratio(traced.virt.tput_per_min, twin.virt.tput_per_min);
    let paper_speedup = ratio(traced.virt.paper_tput_per_min, twin.virt.paper_tput_per_min);
    let rec = &traced.recovery;
    metrics.extend([
        ("workload.txn_steps", traced.txn_steps as f64),
        ("workload.driver_steps", traced.driver_steps as f64),
        ("workload.twin_s", twin_s),
        ("workload.sim_txn_p50_ms", traced.virt.p50_ms),
        ("workload.sim_txn_p95_ms", traced.virt.p95_ms),
        ("workload.sim_txn_tail_ms", traced.virt.tail_ms),
        ("workload.sim_txn_tail_pct", traced.virt.tail_pct),
        (
            "workload.paper_tput_per_min",
            traced.virt.paper_tput_per_min,
        ),
        ("workload.speedup_vs_nossd", speedup),
        ("workload.paper_speedup", paper_speedup),
        (
            "workload.paper_speedup_err",
            (paper_speedup - kind.paper_speedup()).abs() / kind.paper_speedup(),
        ),
        (
            "workload.failed_txn_share",
            ratio(failed as f64, attempted as f64),
        ),
        ("engine.checkpoints", traced.probe.checkpoints as f64),
        (
            "engine.checkpoint_sim_s",
            ratio(
                traced.probe.checkpoint_virt as f64 / 1e9,
                traced.probe.checkpoints as f64,
            ),
        ),
        ("core.cleaner_steps", traced.probe.cleaner_steps as f64),
        (
            "core.cleaner_useful_share",
            ratio(
                traced.probe.cleaner_useful as f64,
                traced.probe.cleaner_steps as f64,
            ),
        ),
        (
            "wal.log_mb_at_crash",
            rec.log_bytes_at_crash as f64 / (1 << 20) as f64,
        ),
        ("wal.recover_records", rec.records as f64),
        ("wal.recover_writes_applied", rec.writes_applied as f64),
        ("wal.recover_host_s", rec.host_ns as f64 / 1e9),
        ("wal.recover_sim_s", rec.virt_ns as f64 / 1e9),
        // Median slice against median slice: steadier than the totals, but
        // this host still drifts more between two reps than tracing costs.
        (
            "trace.overhead_pct",
            100.0 * (median(&slice_ns_per_txn(&traced)) / median(&slice_ns_per_txn(&plain)) - 1.0),
        ),
        ("trace.spans", tracer.spans().len() as f64),
        ("host.calib_ms", (calib_before + calib_after) / 2.0),
        ("host.timer_ns", host::timer_ns()),
        ("host.cores", host::cores()),
    ]);
    eprintln!(
        "{}: tail is p{} with {} of {} window samples beyond it; \
         speedup_vs_nossd {speedup:.3} (paper-style {paper_speedup:.3}, paper {})",
        kind.name(),
        traced.virt.tail_pct,
        traced.virt.tail_beyond,
        traced.virt.window_txns,
        kind.paper_speedup()
    );
    Outcome {
        metrics,
        attempted,
        failed,
        problems,
    }
}

/// `[s]` metrics: in-situ spans of the traced rep.
fn span_metrics(kind: Kind, tracer: &Tracer, rep: &Rep) -> Vec<(&'static str, f64)> {
    let spans = tracer.spans();
    let selfs = self_times(spans);
    let drive = tracer.named("drive").next().expect("every rep drives");
    let drive_ns = drive.host_ns() as f64;
    let txn = tracer.host_sorted("txn");
    let mean_ns = |name: &str| {
        let (n, total) = tracer.host_total(name);
        ratio(total as f64, n as f64)
    };
    // Terminal steps that recorded engine-call children: how much of the
    // step the children leave uncovered (client logic, RNG, the probe).
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = has_child.get_mut(s.parent as usize) {
            *p = true;
        }
    }
    let (mut sampled_ns, mut uncovered_ns) = (0u64, 0u64);
    for s in spans
        .iter()
        .filter(|s| s.name == "txn" && has_child[s.id as usize])
    {
        sampled_ns += s.host_ns();
        uncovered_ns += selfs[s.id as usize];
    }
    let txn_p50 = percentile(&txn, 0.50) as f64;
    vec![
        ("workload.txn_host_ns_p50", txn_p50),
        ("workload.txn_host_ns_p99", percentile(&txn, 0.99) as f64),
        ("workload.txn_host_ns_mean", mean_ns("txn")),
        (
            "workload.drive_ns_per_txn",
            ratio(drive_ns, txn.len() as f64),
        ),
        (
            "workload.sched_overhead_share",
            ratio(selfs[drive.id as usize] as f64, drive_ns),
        ),
        ("engine.checkpoint_host_ms", mean_ns("checkpoint") / 1e6),
        ("engine.begin_ns", mean_ns("engine.begin")),
        ("engine.index_get_ns", mean_ns("engine.index_get")),
        ("engine.heap_get_ns", mean_ns("engine.heap_get")),
        ("engine.heap_update_ns", mean_ns("engine.heap_update")),
        ("engine.commit_ns", mean_ns("engine.commit")),
        (
            "engine.uncovered_share",
            ratio(uncovered_ns as f64, sampled_ns as f64),
        ),
        (
            "engine.query_host_ms_p50",
            if kind == Kind::TpchTac {
                txn_p50 / 1e6
            } else {
                0.0
            },
        ),
        (
            "core.cleaner_host_share",
            ratio(tracer.host_total("cleaner").1 as f64, drive_ns),
        ),
        (
            "core.cleaner_sim_busy_share",
            ratio(
                rep.probe.cleaner_busy_virt as f64,
                (drive.virt_end - drive.virt_start) as f64,
            ),
        ),
    ]
}

/// Check `outcome` against the spec's metric list and render the result
/// line. Returns the line and every reason the run is not correct.
pub fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> (String, Vec<String>) {
    let mut problems = outcome.problems.clone();
    let want: BTreeSet<&str> = defs.iter().map(|d| d.name.as_str()).collect();
    let got: BTreeSet<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
    for missing in want.difference(&got) {
        problems.push(format!(
            "metric {missing} is in BENCHMARK.json but was not measured"
        ));
    }
    for extra in got.difference(&want) {
        problems.push(format!(
            "metric {extra} was measured but is not in BENCHMARK.json"
        ));
    }
    if got.len() != outcome.metrics.len() {
        problems.push("a metric was measured twice".into());
    }
    let mut metrics = Vec::new();
    for d in defs {
        let Some(&(_, value)) = outcome.metrics.iter().find(|(n, _)| *n == d.name) else {
            continue;
        };
        // Per-layer metrics may be 0 where a layer does no work; an
        // end-to-end metric never is.
        if !value.is_finite() || (d.bound.is_some() && value <= 0.0) {
            problems.push(format!("metric {} has no usable value ({value})", d.name));
        }
        metrics.push((
            d.name.clone(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(d.unit.clone())),
            ]),
        ));
    }
    if outcome.attempted == 0 {
        problems.push("nothing was attempted".into());
    }
    let line = Json::obj([
        ("correct", Json::Bool(problems.is_empty())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render();
    (line, problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(metrics: Vec<(&'static str, f64)>) -> Outcome {
        Outcome {
            metrics,
            attempted: 10,
            failed: 0,
            problems: Vec::new(),
        }
    }

    #[test]
    fn embedded_spec_meets_the_contract() {
        let spec = spec();
        let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(spec.workloads, kinds);
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        for d in &spec.end_to_end {
            let bound = d.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
        }
        let setup = spec.end_to_end.iter().find(|d| d.name == "setup_s");
        assert!(setup.is_some_and(|d| d.unit == "s" && !d.higher_is_better));
        assert!(spec.per_layer.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn result_line_holds_names_against_the_spec() {
        let defs = spec().end_to_end;
        let full: Vec<(&'static str, f64)> = vec![
            ("setup_s", 0.5),
            ("drive_s", 2.0),
            ("host_us_per_txn", 30.0),
            ("peak_rss_mb", 200.0),
            ("sim_tput_per_min", 60.0),
            ("sim_txn_slow5_ms", 9.0),
        ];
        let (line, problems) = result_line(&outcome(full.clone()), &defs);
        assert!(problems.is_empty(), "{problems:?}");
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted"), Some(&Json::Num(10.0)));
        let setup = parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));

        let mut missing = full.clone();
        missing.pop();
        let (line, problems) = result_line(&outcome(missing), &defs);
        assert!(problems.iter().any(|p| p.contains("sim_txn_slow5_ms")));
        assert!(line.starts_with("{\"correct\": false"));

        let mut extra = full.clone();
        extra.push(("made_up", 1.0));
        assert!(result_line(&outcome(extra), &defs)
            .1
            .iter()
            .any(|p| p.contains("made_up")));

        let mut zero = full;
        zero[1].1 = 0.0;
        assert!(result_line(&outcome(zero), &defs)
            .1
            .iter()
            .any(|p| p.contains("drive_s")));
    }
}
