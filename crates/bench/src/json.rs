//! Tiny std-only JSON writer for machine-readable bench results.
//!
//! Every bench target emits a `BENCH_<name>.json` file at the repo root
//! recording wall-clock seconds, client steps/sec, virtual-time
//! throughput and the thread count, so the perf trajectory is tracked
//! run-over-run (ISSUE 4). The model is deliberately minimal: enough
//! JSON to hold numbers, strings, arrays and objects — not a general
//! serializer.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use turbopool_iosim::Time;

/// A JSON value. Non-finite numbers serialize as `null` (JSON has no
/// NaN/Infinity).
#[derive(Clone, Debug)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A counter struct's `fields()` as one object: every counter, in
    /// declaration order.
    pub fn counters(fields: Vec<(&'static str, u64)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), Json::Int(v)))
                .collect(),
        )
    }

    fn render(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    /// Compact JSON serialization.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.render(&mut s);
        f.write_str(&s)
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Wall-clock stopwatch for bench reporting, the one wall-clock reader in
/// library code (`clippy.toml` disallows `Instant::now` elsewhere): wall
/// seconds never feed back into the simulation, they only annotate the
/// emitted JSON.
pub struct WallTimer {
    start: std::time::Instant,
}

impl WallTimer {
    #[allow(clippy::new_without_default)]
    #[expect(
        clippy::disallowed_methods,
        reason = "bench reporting measures real elapsed time by definition; \
                  the value never influences virtual-time results"
    )]
    pub fn start() -> Self {
        WallTimer {
            start: std::time::Instant::now(),
        }
    }

    /// Seconds since `start()`.
    pub fn secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Accumulates one bench's results and writes `BENCH_<name>.json`.
pub struct BenchReport {
    name: String,
    fields: Vec<(String, Json)>,
}

impl BenchReport {
    pub fn new(name: &str) -> Self {
        BenchReport {
            name: name.to_string(),
            fields: vec![("bench".to_string(), Json::Str(name.to_string()))],
        }
    }

    pub fn set(&mut self, key: &str, value: Json) -> &mut Self {
        self.fields.push((key.to_string(), value));
        self
    }

    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.set(key, Json::Num(value))
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.set(key, Json::Int(value))
    }

    pub fn str_field(&mut self, key: &str, value: &str) -> &mut Self {
        self.set(key, Json::Str(value.to_string()))
    }

    /// The standard block every bench records: wall seconds, worker
    /// thread count, virtual time simulated, driver steps, and the two
    /// derived throughput numbers (steps/sec and virtual-vs-wall speed).
    pub fn standard(
        &mut self,
        wall_secs: f64,
        threads: usize,
        virtual_ns: Time,
        steps: u64,
    ) -> &mut Self {
        let virtual_secs = virtual_ns as f64 / 1e9;
        self.num("wall_secs", wall_secs)
            .int("threads", threads as u64)
            .num("virtual_secs", virtual_secs)
            .int("steps", steps)
            .num("steps_per_sec", safe_div(steps as f64, wall_secs))
            .num("virtual_per_wall", safe_div(virtual_secs, wall_secs))
    }

    /// Write `BENCH_<name>.json` into the repo root, returning the path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = repo_root().join(format!("BENCH_{}.json", self.name));
        let json = Json::Obj(self.fields.clone());
        std::fs::write(&path, json.to_string() + "\n")?;
        Ok(path)
    }

    /// `write()`, logging instead of failing — benches should still
    /// print their tables if the repo root is read-only.
    pub fn emit(&self) {
        match self.write() {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write BENCH_{}.json: {e}", self.name),
        }
    }
}

fn safe_div(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The workspace root (two levels up from this crate's manifest).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_json() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Int(3)),
            ("b".into(), Json::Num(1.5)),
            (
                "c".into(),
                Json::Arr(vec![Json::Str("x\"y".into()), Json::Bool(true), Json::Null]),
            ),
        ]);
        assert_eq!(v.to_string(), r#"{"a":3,"b":1.5,"c":["x\"y",true,null]}"#);
    }

    /// The emitted counter blocks are a schema: dashboards key on these
    /// names in this order. A new counter is appended here on purpose.
    #[test]
    fn counter_key_lists_are_pinned() {
        fn keys(fields: Vec<(&'static str, u64)>) -> String {
            let names: Vec<_> = fields.into_iter().map(|(k, _)| k).collect();
            names.join(" ")
        }
        assert_eq!(
            keys(turbopool_core::metrics::SsdMetricsSnapshot::default().fields()),
            "ssd_hits ssd_misses throttled_reads throttled_admissions admissions \
             fill_admissions policy_rejections replacements invalidations \
             cleaned_pages cleaner_writes inline_cleans checkpoint_cleaned \
             tac_cancelled_writes dirty_hits warm_imports warm_rejected_stale \
             warm_rejected_checksum audit_violations ssd_io_errors checksum_misses \
             disk_retries ssd_quarantined quarantined_reads lost_frames stranded_dirty \
             salvaged_pages hedged_reads hedged_admissions ssd_retries cleaner_backoffs \
             cleaner_boosts shard_acquisitions shard_contended"
        );
        assert_eq!(
            keys(turbopool_bufpool::PoolStats::default().fields()),
            "hits misses evictions_clean evictions_dirty prefetched_pages \
             expanded_fill_pages checkpoint_writes shard_acquisitions shard_contended"
        );
        assert_eq!(
            keys(turbopool_bufpool::PolicyStats::default().fields()),
            "ghost_hits scan_steps"
        );
        assert_eq!(
            keys(turbopool_iosim::FaultStats::default().fields()),
            "read_errors write_errors latency_spikes torn_writes bitflips dead_rejects \
             brownout_slowdowns"
        );
        let classifier = turbopool_bufpool::ClassifierStats::default().fields();
        assert_eq!(
            Json::counters(classifier).to_string(),
            r#"{"seq_as_seq":0,"seq_as_rand":0,"rand_as_seq":0,"rand_as_rand":0}"#
        );
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn control_chars_are_escaped() {
        assert_eq!(
            Json::Str("a\nb\u{1}".into()).to_string(),
            "\"a\\nb\\u0001\""
        );
    }

    #[test]
    fn report_shape_is_stable() {
        let mut r = BenchReport::new("unit");
        r.standard(2.0, 4, 3_000_000_000, 100);
        let json = Json::Obj(r.fields.clone()).to_string();
        assert!(json.contains(r#""bench":"unit""#));
        assert!(json.contains(r#""threads":4"#));
        assert!(json.contains(r#""steps_per_sec":50"#));
        assert!(json.contains(r#""virtual_secs":3"#));
    }

    #[test]
    fn repo_root_has_workspace_manifest() {
        let manifest = std::fs::read_to_string(repo_root().join("Cargo.toml")).unwrap();
        assert!(manifest.contains("[workspace]"));
    }

    #[test]
    fn wall_timer_is_monotonic() {
        let t = WallTimer::start();
        assert!(t.secs() >= 0.0);
    }
}
