//! In-memory span recorder for the traced rep.
//!
//! Every span is recorded from the benchmark's own files, around a call
//! into one layer. A span carries both time bases: host nanoseconds (what
//! the simulator cost) and virtual nanoseconds (what the modelled hardware
//! took). The run is single-threaded, so a stack gives each span its
//! parent, and siblings never overlap.

use std::io::Write;

use turbopool::iosim::Time;

use crate::host::wall_ns;

pub type SpanId = u32;
const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: SpanId,
    /// `u32::MAX` for a root span.
    pub parent: SpanId,
    /// Spans of one request (one driver step and everything under it)
    /// share this identifier.
    pub txn: u64,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub virt_start: Time,
    pub virt_end: Time,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }
}

#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    next_txn: u64,
}

impl Tracer {
    /// Open a span under the innermost open one, inheriting its request id.
    pub fn open(&mut self, name: &'static str, virt: Time) -> SpanId {
        let txn = self.stack.last().map_or(0, |&p| self.spans[p as usize].txn);
        self.push(name, txn, virt)
    }

    /// Open a span that starts a new request (one driver step).
    pub fn open_request(&mut self, name: &'static str, virt: Time) -> SpanId {
        self.next_txn += 1;
        self.push(name, self.next_txn, virt)
    }

    fn push(&mut self, name: &'static str, txn: u64, virt: Time) -> SpanId {
        let id = self.spans.len() as SpanId;
        let now = wall_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            txn,
            host_start_ns: now,
            host_end_ns: now,
            virt_start: virt,
            virt_end: virt,
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId, virt: Time) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close innermost-first");
        let s = &mut self.spans[id as usize];
        s.host_end_ns = wall_ns();
        s.virt_end = virt;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Host durations of every span called `name`, ascending.
    pub fn host_sorted(&self, name: &str) -> Vec<u64> {
        let mut v: Vec<u64> = self.named(name).map(Span::host_ns).collect();
        v.sort_unstable();
        v
    }

    /// `(count, total host ns)` of every span called `name`.
    pub fn host_total(&self, name: &str) -> (u64, u64) {
        self.named(name)
            .fold((0, 0), |(n, t), s| (n + 1, t + s.host_ns()))
    }

    /// One JSON object per line, in open order.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"txn\": {}, \"host_start_ns\": {}, \"host_end_ns\": {}, \"virt_start\": {}, \"virt_end\": {}}}",
                s.name, s.id, parent, s.txn, s.host_start_ns, s.host_end_ns, s.virt_start, s.virt_end
            )?;
        }
        w.flush()
    }
}

/// Host self time of every span: its duration minus the part of its
/// interval that its child spans cover (children are clipped to the parent
/// and overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.host_start_ns, s.host_end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.host_start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.host_end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.host_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, a: u64, b: u64) -> Span {
        Span {
            name: "t",
            id,
            parent,
            txn: 0,
            host_start_ns: a,
            host_end_ns: b,
            virt_start: 0,
            virt_end: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 30),
            span(2, 0, 40, 90),
            span(3, 2, 50, 60),
        ];
        assert_eq!(self_times(&spans), [30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(0, NO_PARENT, 10, 110),
            span(1, 0, 0, 50),    // starts before the parent: clipped to 10..50
            span(2, 0, 40, 70),   // overlaps the first: only 50..70 is new
            span(3, 0, 100, 200), // runs past the parent: clipped to 100..110
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40 - 20 - 10);
    }

    #[test]
    fn tracer_links_parents_and_requests() {
        let mut t = Tracer::default();
        let root = t.open("rep", 0);
        let step = t.open_request("txn", 5);
        let call = t.open("engine.commit", 6);
        t.close(call, 7);
        t.close(step, 9);
        let step2 = t.open_request("txn", 9);
        t.close(step2, 12);
        t.close(root, 12);
        let s = t.spans();
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!((s[1].parent, s[2].parent, s[3].parent), (0, 1, 0));
        assert_eq!((s[1].txn, s[2].txn, s[3].txn), (1, 1, 2));
        assert_eq!((s[2].virt_start, s[2].virt_end), (6, 7));
        assert!(s.iter().all(|x| x.host_end_ns >= x.host_start_ns));
        assert_eq!(t.host_total("txn").0, 2);
    }

    #[test]
    fn jsonl_has_one_parsable_object_per_span() {
        let mut t = Tracer::default();
        let a = t.open("rep", 1);
        let b = t.open_request("txn", 2);
        t.close(b, 3);
        t.close(a, 4);
        let path = crate::host::out_dir().join(format!("selftest_{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("parent"), Some(&crate::json::Json::Null));
        let second = crate::json::Json::parse(lines[1]).unwrap();
        assert_eq!(
            second.get("parent").and_then(crate::json::Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            second.get("virt_end").and_then(crate::json::Json::as_f64),
            Some(3.0)
        );
    }
}
