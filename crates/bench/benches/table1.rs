//! Table 1 — maximum sustainable IOPS per device, page-sized I/Os.
//!
//! Drives each simulated device with a closed loop of page-sized requests
//! (one outstanding request, as in the paper's Iometer setup) and reports
//! the sustained IOPS next to the numbers the devices were calibrated to.

use turbopool_iosim::{
    hdd_array_profile, ssd_profile, IoKind, Locality, PageId, SimDevice, StripedArray, SECOND,
};

/// Closed-loop sustained IOPS on a striped array.
fn array_iops(kind: IoKind, loc: Locality) -> f64 {
    let a = StripedArray::from_aggregate("hdd", hdd_array_profile(), 8);
    let pages = 40_000u64;
    match loc {
        Locality::Sequential => {
            // One sequential stream through the whole array.
            let t = a.submit_run(0, kind, PageId(0), pages, Some(Locality::Sequential));
            pages as f64 / (t.complete as f64 / SECOND as f64)
        }
        Locality::Random => {
            // Eight independent random streams, one per member (queue
            // depth 1 per disk, like the paper's Iometer run).
            let mut completes = [0u64; 8];
            let per_stream = pages / 8;
            for i in 0..per_stream {
                for d in 0..8u64 {
                    let stripe = d + 8 * ((i * 7919 + d * 13) % 50_000);
                    let pid = PageId(stripe * 8 + (i % 8));
                    let t = a.submit_page(completes[d as usize], kind, pid, Some(Locality::Random));
                    completes[d as usize] = t.complete;
                }
            }
            let end = completes.iter().copied().max().unwrap();
            pages as f64 / (end as f64 / SECOND as f64)
        }
    }
}

/// Closed-loop sustained IOPS on the SSD.
fn ssd_iops(kind: IoKind, loc: Locality) -> f64 {
    let d = SimDevice::new("ssd", ssd_profile());
    let n = 40_000u64;
    let mut now = 0;
    for i in 0..n {
        let lba = match loc {
            Locality::Sequential => i,
            Locality::Random => (i * 7919) % 1_000_000,
        };
        now = d.submit(now, kind, lba, 1, Some(loc)).complete;
    }
    n as f64 / (now as f64 / SECOND as f64)
}

fn main() {
    let timer = turbopool_bench::WallTimer::start();
    println!("== Table 1: maximum sustainable IOPS (8 KB I/Os) ==\n");
    let mut t = turbopool_bench::Table::new(vec!["device", "op", "paper", "measured", "ratio"]);
    type Case = (&'static str, IoKind, Locality, f64, Box<dyn Fn() -> f64>);
    let cases: [Case; 8] = [
        (
            "8 HDDs",
            IoKind::Read,
            Locality::Random,
            1_015.0,
            Box::new(|| array_iops(IoKind::Read, Locality::Random)),
        ),
        (
            "8 HDDs",
            IoKind::Read,
            Locality::Sequential,
            26_370.0,
            Box::new(|| array_iops(IoKind::Read, Locality::Sequential)),
        ),
        (
            "8 HDDs",
            IoKind::Write,
            Locality::Random,
            895.0,
            Box::new(|| array_iops(IoKind::Write, Locality::Random)),
        ),
        (
            "8 HDDs",
            IoKind::Write,
            Locality::Sequential,
            9_463.0,
            Box::new(|| array_iops(IoKind::Write, Locality::Sequential)),
        ),
        (
            "SSD",
            IoKind::Read,
            Locality::Random,
            12_182.0,
            Box::new(|| ssd_iops(IoKind::Read, Locality::Random)),
        ),
        (
            "SSD",
            IoKind::Read,
            Locality::Sequential,
            15_980.0,
            Box::new(|| ssd_iops(IoKind::Read, Locality::Sequential)),
        ),
        (
            "SSD",
            IoKind::Write,
            Locality::Random,
            12_374.0,
            Box::new(|| ssd_iops(IoKind::Write, Locality::Random)),
        ),
        (
            "SSD",
            IoKind::Write,
            Locality::Sequential,
            14_965.0,
            Box::new(|| ssd_iops(IoKind::Write, Locality::Sequential)),
        ),
    ];
    for (dev, kind, loc, paper, f) in cases {
        let got = f();
        t.row(vec![
            dev.to_string(),
            format!("{:?} {:?}", loc, kind),
            format!("{paper:.0}"),
            format!("{got:.0}"),
            format!("{:.3}", got / paper),
        ]);
    }
    t.print();
    println!("\n(Every ratio should be ~1.00: the devices are calibrated to Table 1.)");
    timer.print_timing("table1", 0);
}
