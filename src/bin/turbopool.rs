//! `turbopool` — command-line driver for the reproduction.
//!
//! ```text
//! turbopool tpcc  [--design lc|dw|cw|tac|nossd] [--warehouses 20] [--hours 10] [--lambda 0.5]
//! turbopool tpce  [--design ...] [--customers 2000] [--hours 10]
//! turbopool tpch  [--design ...] [--sf 30] [--streams 4]
//! turbopool devices
//! ```
//!
//! Runs one experiment and prints the metric plus the cache counters.

use std::sync::Arc;

use turbopool::iosim::{Clk, HOUR, MINUTE, SECOND};
use turbopool::workload::driver::{CheckpointClient, CleanerClient, Driver, ThroughputRecorder};
use turbopool::workload::scenario::Design;
use turbopool::workload::{tpcc::Tpcc, tpce::Tpce, tpch};

/// One checked invocation: every value parsed, nothing left to default
/// silently.
#[derive(Debug, PartialEq)]
enum Command {
    Tpcc {
        design: Design,
        warehouses: u64,
        hours: u64,
        lambda: f64,
    },
    Tpce {
        design: Design,
        customers: u64,
        hours: u64,
    },
    Tpch {
        design: Design,
        sf: u64,
        streams: usize,
    },
    Devices,
}

/// The `--flag value` pairs after a subcommand, each flag one it takes.
struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    /// Pair the arguments up, rejecting a flag the subcommand does not
    /// take (a misspelling must not run the default instead) and a flag
    /// with no value after it.
    fn pair(takes: &[&str], rest: &'a [String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            if !takes.contains(&flag.as_str()) {
                return Err(format!("unknown option `{flag}`"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("option `{flag}` needs a value"))?;
            pairs.push((flag.as_str(), value.as_str()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&'a str> {
        self.0.iter().find(|(flag, _)| *flag == name).map(|p| p.1)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option `{name}`: `{v}` is not a valid number")),
        }
    }

    fn design(&self) -> Result<Design, String> {
        match self.get("--design").unwrap_or("lc") {
            "lc" => Ok(Design::Lc),
            "cw" => Ok(Design::Cw),
            "dw" => Ok(Design::Dw),
            "tac" => Ok(Design::Tac),
            "nossd" | "none" => Ok(Design::NoSsd),
            other => Err(format!(
                "option `--design`: `{other}` is not one of lc|dw|cw|tac|nossd"
            )),
        }
    }
}

/// Parse the arguments after the program name.
fn parse(argv: &[String]) -> Result<Command, String> {
    let (cmd, rest) = argv.split_first().ok_or("no subcommand given")?;
    match cmd.as_str() {
        "tpcc" => {
            let f = Flags::pair(&["--design", "--warehouses", "--hours", "--lambda"], rest)?;
            Ok(Command::Tpcc {
                design: f.design()?,
                warehouses: f.num("--warehouses", 20)?,
                hours: f.num("--hours", 10)?,
                lambda: f.num("--lambda", 0.5)?,
            })
        }
        "tpce" => {
            let f = Flags::pair(&["--design", "--customers", "--hours"], rest)?;
            Ok(Command::Tpce {
                design: f.design()?,
                customers: f.num("--customers", 2_000)?,
                hours: f.num("--hours", 10)?,
            })
        }
        "tpch" => {
            let f = Flags::pair(&["--design", "--sf", "--streams"], rest)?;
            Ok(Command::Tpch {
                design: f.design()?,
                sf: f.num("--sf", 30)?,
                streams: f.num("--streams", 4)?,
            })
        }
        "devices" => Flags::pair(&[], rest).map(|_| Command::Devices),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn print_counters(db: &turbopool::engine::Database) {
    let pool = db.pool_stats();
    println!("\n-- counters --");
    println!("pool hit rate        : {:.2}%", pool.hit_rate() * 100.0);
    if let Some(m) = db.ssd_metrics() {
        println!("ssd hit rate         : {:.2}%", m.hit_rate() * 100.0);
        println!("ssd hits / misses    : {} / {}", m.ssd_hits, m.ssd_misses);
        println!(
            "dirty-hit fraction   : {:.2}%",
            m.dirty_hit_fraction() * 100.0
        );
        println!("admissions           : {}", m.admissions);
        println!("invalidations        : {}", m.invalidations);
        println!("cleaned pages        : {}", m.cleaned_pages);
        println!("checkpoint-cleaned   : {}", m.checkpoint_cleaned);
    }
    let d = db.io().disk_stats();
    let s = db.io().ssd_stats();
    println!("disk ops (r/w)       : {} / {}", d.read_ops, d.write_ops);
    println!("ssd  ops (r/w)       : {} / {}", s.read_ops, s.write_ops);
}

fn run_tpcc(design: Design, warehouses: u64, hours: u64, lambda: f64) {
    println!(
        "TPC-C-lite: {warehouses} scaled warehouses, {} for {hours} virtual hours, lambda {lambda}",
        design.label()
    );

    let t = Arc::new(Tpcc::setup(design, warehouses, lambda));
    let tpmc = ThroughputRecorder::new(6 * MINUTE);
    let mut d = Driver::new();
    for c in 0..25 {
        d.add(0, Box::new(t.client(c, Arc::clone(&tpmc))));
    }
    if let Some(cleaner) = CleanerClient::for_db(&t.db) {
        d.add(0, Box::new(cleaner));
    }
    let dur = hours * HOUR;
    d.run_until(dur);
    println!(
        "tpmC (scaled, last hour): {:.2}   total NewOrders: {}",
        tpmc.rate_between(dur.saturating_sub(HOUR), dur, MINUTE),
        tpmc.total()
    );
    print_counters(&t.db);
}

fn run_tpce(design: Design, customers: u64, hours: u64) {
    println!(
        "TPC-E-lite: {customers} scaled customers, {} for {hours} virtual hours",
        design.label()
    );

    let t = Arc::new(Tpce::setup(design, customers, 0.01));
    let tpse = ThroughputRecorder::new(6 * MINUTE);
    let mut d = Driver::new();
    for c in 0..25 {
        d.add(0, Box::new(t.client(c, Arc::clone(&tpse))));
    }
    d.add(
        0,
        Box::new(CheckpointClient::new(Arc::clone(&t.db), 40 * MINUTE)),
    );
    if let Some(cleaner) = CleanerClient::for_db(&t.db) {
        d.add(0, Box::new(cleaner));
    }
    let dur = hours * HOUR;
    d.run_until(dur);
    println!(
        "tpsE (scaled, last hour): {:.4}   total TradeResults: {}",
        tpse.rate_between(dur.saturating_sub(HOUR), dur, SECOND),
        tpse.total()
    );
    print_counters(&t.db);
}

fn run_tpch(design: Design, sf: u64, streams: usize) {
    println!(
        "TPC-H-lite: SF {sf}, {} ({streams} throughput streams)",
        design.label()
    );

    tpch::reset_finish_time();
    let t = Arc::new(tpch::Tpch::setup(design, sf, 0.01));
    let mut clk = Clk::new();
    let p = t.power_test(&mut clk);
    println!("\n-- power test --");
    for (name, dur) in &p.timings {
        println!("{name:>4}: {:8.1}s", *dur as f64 / SECOND as f64);
    }
    tpch::reset_finish_time();
    let tput = t.throughput_test(streams);
    println!("\nPower@{sf}SF      : {:.0}", p.power);
    println!("Throughput@{sf}SF : {tput:.0}");
    println!("QphH@{sf}SF       : {:.0}", tpch::qphh(p.power, tput));
    print_counters(&t.db);
}

fn devices() {
    use turbopool::iosim::{hdd_array_profile, log_disk_profile, ssd_profile};
    println!("Device calibration (paper Table 1):");
    for (name, p) in [
        ("8-HDD striped group (aggregate)", hdd_array_profile()),
        ("SLC SSD", ssd_profile()),
        ("log disk", log_disk_profile()),
    ] {
        println!(
            "  {name}: rand read {:.0} / seq read {:.0} / rand write {:.0} / seq write {:.0} IOPS",
            1e9 / p.rand_read_ns as f64,
            1e9 / p.seq_read_ns as f64,
            1e9 / p.rand_write_ns as f64,
            1e9 / p.seq_write_ns as f64,
        );
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(Command::Tpcc {
            design,
            warehouses,
            hours,
            lambda,
        }) => run_tpcc(design, warehouses, hours, lambda),
        Ok(Command::Tpce {
            design,
            customers,
            hours,
        }) => run_tpce(design, customers, hours),
        Ok(Command::Tpch {
            design,
            sf,
            streams,
        }) => run_tpch(design, sf, streams),
        Ok(Command::Devices) => devices(),
        Err(why) => {
            eprintln!("turbopool: {why}");
            eprintln!("usage: turbopool <tpcc|tpce|tpch|devices> [options]");
            eprintln!("  tpcc  --design lc|dw|cw|tac|nossd --warehouses N --hours H --lambda F");
            eprintln!("  tpce  --design ... --customers N --hours H");
            eprintln!("  tpch  --design ... --sf N --streams S");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Command, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&argv)
    }

    #[test]
    fn defaults_and_explicit_values_parse() {
        assert_eq!(
            parse_line("tpcc"),
            Ok(Command::Tpcc {
                design: Design::Lc,
                warehouses: 20,
                hours: 10,
                lambda: 0.5
            })
        );
        assert_eq!(
            parse_line("tpch --streams 2 --design nossd --sf 3"),
            Ok(Command::Tpch {
                design: Design::NoSsd,
                sf: 3,
                streams: 2
            })
        );
        assert_eq!(parse_line("devices"), Ok(Command::Devices));
    }

    /// What cannot be parsed is refused, naming the culprit, instead of
    /// running something other than what was asked for.
    #[test]
    fn bad_input_is_rejected_naming_the_culprit() {
        for (line, culprit) in [
            ("tpcc --design lx", "--design"),       // used to run LC
            ("tpce --hours ten", "--hours"),        // used to run 10 hours
            ("tpcc --desing dw", "--desing"),       // used to be ignored
            ("tpce --lambda 0.5", "--lambda"),      // a tpcc option only
            ("tpch --sf 3 --streams", "--streams"), // no value: used to be ignored
            ("tpcd", "tpcd"),
        ] {
            let why = parse_line(line).unwrap_err();
            assert!(why.contains(culprit), "{line}: {why}");
        }
        assert!(parse_line("").is_err(), "no subcommand");
    }
}
