//! `turbobench` — the repository's benchmark.
//!
//! Four closed-loop workloads run on one OS thread against the `turbopool`
//! facade and are measured from outside it: by timing calls into public
//! functions, by wrapping the public `Client` and `PageIo` traits, and by
//! diffing public counter snapshots. See `README.md` for the glossary
//! (which metric is host time and which is virtual time), the workload
//! rationale, and how to read the trace.

mod counters;
mod host;
mod json;
mod ladder;
mod probe;
mod report;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::Kind;

/// Smoke mode divides every virtual span (and the ladder) by this.
const SMOKE_DIV: u64 = 20;

const USAGE: &str = "usage:
  turbobench --workload <tpcc_lc|tpce_dw|tpch_tac|hot_ledger> [--seed N] [--seconds S] [--trace 0|1]
  turbobench --smoke
  turbobench --suite [--seeds N] [--label NAME]
  turbobench --compare <parent.json> <change.json>";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    suite: bool,
    seeds: u64,
    label: String,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0x5EED,
        seconds: report::spec().run_seconds,
        trace: false,
        smoke: false,
        suite: false,
        seeds: 10,
        label: "local".into(),
        compare: None,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    let number = |text: String, flag: &str| {
        let parsed = match text.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => text.parse::<u64>(),
        };
        parsed.map_err(|_| format!("{flag}: '{text}' is not a whole number"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&mut it, flag)?),
            "--seed" => a.seed = number(value(&mut it, flag)?, flag)?,
            "--seconds" => a.seconds = number(value(&mut it, flag)?, flag)?,
            "--trace" => a.trace = number(value(&mut it, flag)?, flag)? != 0,
            "--seeds" => a.seeds = number(value(&mut it, flag)?, flag)?.max(2),
            "--label" => a.label = value(&mut it, flag)?,
            "--smoke" => a.smoke = true,
            "--suite" => a.suite = true,
            "--compare" => a.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

/// One contract run: measure, check, print the result line last.
fn run_one(kind: Kind, seed: u64, seconds: u64, traced: bool, div: u64) -> bool {
    let spec = report::spec();
    let (outcome, defs) = if traced {
        (report::trace(kind, seed, div), &spec.per_layer)
    } else {
        (report::measure(kind, seed, seconds, div), &spec.end_to_end)
    };
    let (line, problems) = report::result_line(&outcome, defs);
    for p in &problems {
        eprintln!("INCORRECT {}: {p}", kind.name());
    }
    println!("{line}");
    problems.is_empty()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some((parent, change)) = &args.compare {
        suite::compare(parent, change)
    } else if args.suite {
        suite::run(args.seeds, args.seconds, &args.label)
    } else if args.smoke {
        let t0 = host::wall_ns();
        let ok = Kind::ALL.into_iter().fold(true, |ok, kind| {
            let plain = run_one(kind, args.seed, 1, false, SMOKE_DIV);
            let traced = run_one(kind, args.seed, 1, true, SMOKE_DIV);
            ok && plain && traced
        });
        eprintln!(
            "smoke: {:.1} s, {}",
            (host::wall_ns() - t0) as f64 / 1e9,
            if ok { "ok" } else { "FAILED" }
        );
        ok
    } else {
        let Some(kind) = args.workload.as_deref().and_then(Kind::from_name) else {
            eprintln!("--workload must name one of the four workloads\n{USAGE}");
            return ExitCode::from(2);
        };
        run_one(kind, args.seed, args.seconds, args.trace, 1)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
