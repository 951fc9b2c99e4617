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

use turbopool::iosim::{HOUR, SECOND};
use turbopool::workload::runs::{self, Cell, DbStats, OltpKind, RunOptions};
use turbopool::workload::scenario::Design;

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

fn print_counters(stats: &DbStats) {
    println!("\n-- counters --");
    let pool = stats.pool;
    println!("pool hit rate        : {:.2}%", pool.hit_rate() * 100.0);
    if let Some(m) = stats.ssd {
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
    let (d, s) = (stats.disk, stats.ssd_dev);
    println!("disk ops (r/w)       : {} / {}", d.read_ops, d.write_ops);
    println!("ssd  ops (r/w)       : {} / {}", s.read_ops, s.write_ops);
}

fn run_tpcc(design: Design, warehouses: u64, hours: u64, lambda: f64) {
    println!(
        "TPC-C-lite: {warehouses} scaled warehouses, {} for {hours} virtual hours, lambda {lambda}",
        design.label()
    );
    let opts = RunOptions {
        lambda,
        ..RunOptions::tpcc()
    };
    let cell = Cell::new(OltpKind::TpcC { warehouses }, design, opts);
    let run = runs::run_oltp(&[cell], hours * HOUR).runs.remove(0);
    println!(
        "tpmC (scaled, last hour): {:.2}   total NewOrders: {}",
        run.last_hour_per_min,
        run.metric.total()
    );
    print_counters(&run.stats);
}

fn run_tpce(design: Design, customers: u64, hours: u64) {
    println!(
        "TPC-E-lite: {customers} scaled customers, {} for {hours} virtual hours",
        design.label()
    );
    let cell = Cell::new(OltpKind::TpcE { customers }, design, RunOptions::tpce());
    let dur = hours * HOUR;
    let run = runs::run_oltp(&[cell], dur).runs.remove(0);
    println!(
        "tpsE (scaled, last hour): {:.4}   total TradeResults: {}",
        run.metric
            .rate_between(dur.saturating_sub(HOUR), dur, SECOND),
        run.metric.total()
    );
    print_counters(&run.stats);
}

fn run_tpch(design: Design, sf: u64, streams: usize) {
    println!(
        "TPC-H-lite: SF {sf}, {} ({streams} throughput streams)",
        design.label()
    );
    let run = runs::run_tpch(sf, streams, &[design]).remove(0);
    println!("\n-- power test --");
    for (name, dur) in &run.power.timings {
        println!("{name:>4}: {:8.1}s", *dur as f64 / SECOND as f64);
    }
    println!("\nPower@{sf}SF      : {:.0}", run.power.power);
    println!("Throughput@{sf}SF : {:.0}", run.throughput);
    println!("QphH@{sf}SF       : {:.0}", run.qphh);
    print_counters(&run.stats);
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
