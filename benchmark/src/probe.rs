//! The benchmark's own wrappers around the public `Client` and `PageIo`
//! traits: every layer is observed from outside, at the call boundary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use turbopool::bufpool::PageIo;
use turbopool::core::SsdManager;
use turbopool::iosim::{Clk, IoError, Locality, PageBuf, PageId, Time};
use turbopool::workload::driver::{Client, StepResult};

use crate::host::wall_ns;
use crate::stats::per;
use crate::trace::{SpanId, Tracer};

/// What one rep's wrapped clients record. One OS thread drives everything;
/// the mutex only satisfies `Client: Send`.
#[derive(Default)]
pub struct Probe {
    /// Terminal steps that start at or after this virtual time are in the
    /// measured window.
    pub window_start: Time,
    /// Virtual latency (`clk.now` after − before) of in-window terminal steps.
    pub window_lat: Vec<u64>,
    /// Terminal transactions stepped since the rep began.
    pub txn_steps: u64,
    /// Terminal transactions stepped since the last `take_slice`.
    slice_txns: u64,
    pub cleaner_steps: u64,
    /// Cleaner steps that cleaned at least one page.
    pub cleaner_useful: u64,
    /// Virtual time the cleaner spent in steps that cleaned something.
    pub cleaner_busy_virt: Time,
    pub checkpoints: u64,
    pub checkpoint_virt: Time,
    /// Commits that did not commit, and rows that failed verification.
    pub failed: u64,
    /// Spans, on the traced rep only.
    pub tracer: Option<Tracer>,
}

impl Probe {
    pub fn take_slice(&mut self) -> u64 {
        std::mem::take(&mut self.slice_txns)
    }
}

#[derive(Clone, Default)]
pub struct Shared(Arc<Mutex<Probe>>);

impl Shared {
    pub fn new(traced: bool) -> Shared {
        let shared = Shared::default();
        if traced {
            shared.lock().tracer = Some(Tracer::default());
        }
        shared
    }

    pub fn lock(&self) -> MutexGuard<'_, Probe> {
        self.0.lock().expect("probe is used from one thread")
    }

    pub fn traced(&self) -> bool {
        self.lock().tracer.is_some()
    }

    /// Open a span on the traced rep; `None` (and no clock read) otherwise.
    pub fn enter(&self, name: &'static str, virt: Time) -> Option<SpanId> {
        self.lock().tracer.as_mut().map(|t| t.open(name, virt))
    }

    /// Close what `enter` opened.
    pub fn leave(&self, span: Option<SpanId>, virt: Time) {
        if let Some(id) = span {
            if let Some(t) = self.lock().tracer.as_mut() {
                t.close(id, virt);
            }
        }
    }
}

/// Which logical client a `TimedClient` wraps. Pseudo-client steps (the LC
/// cleaner thread, the checkpointer) are cost, not work.
pub enum Role {
    Terminal,
    /// Holds the manager to read its public `cleaned_pages` counter around
    /// each step: a step that cleaned nothing was a wasted poll.
    Cleaner(Arc<SsdManager>),
    Checkpointer,
}

/// Delegating `Client` that counts, measures virtual step latency, and —
/// on the traced rep — records one request span per driver step.
pub struct TimedClient {
    inner: Box<dyn Client>,
    role: Role,
    probe: Shared,
    traced: bool,
}

impl TimedClient {
    pub fn wrap(inner: Box<dyn Client>, role: Role, probe: &Shared) -> Box<dyn Client> {
        Box::new(TimedClient {
            inner,
            role,
            traced: probe.traced(),
            probe: probe.clone(),
        })
    }
}

impl Client for TimedClient {
    fn step(&mut self, clk: &mut Clk) -> StepResult {
        let v0 = clk.now;
        let name = match self.role {
            Role::Terminal => "txn",
            Role::Cleaner(_) => "cleaner",
            Role::Checkpointer => "checkpoint",
        };
        let span = if self.traced {
            let mut p = self.probe.lock();
            p.tracer.as_mut().map(|t| t.open_request(name, v0))
        } else {
            None
        };
        let cleaned_before = match &self.role {
            Role::Cleaner(m) => m.metrics.cleaned_pages.load(Ordering::Relaxed),
            _ => 0,
        };
        let result = self.inner.step(clk);
        let mut p = self.probe.lock();
        if let (Some(id), Some(t)) = (span, p.tracer.as_mut()) {
            t.close(id, clk.now);
        }
        match &self.role {
            Role::Terminal => {
                p.txn_steps += 1;
                p.slice_txns += 1;
                if v0 >= p.window_start {
                    p.window_lat.push(clk.now - v0);
                }
            }
            Role::Cleaner(m) => {
                p.cleaner_steps += 1;
                if m.metrics.cleaned_pages.load(Ordering::Relaxed) > cleaned_before {
                    p.cleaner_useful += 1;
                    p.cleaner_busy_virt += clk.now - v0;
                }
            }
            Role::Checkpointer => {
                p.checkpoints += 1;
                p.checkpoint_virt += clk.now - v0;
            }
        }
        result
    }
}

/// `(calls, total host ns)` of one `PageIo` method.
#[derive(Default)]
pub struct Cost {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Cost {
    fn add(&self, ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Mean host nanoseconds per call; 0 with no calls.
    pub fn mean_ns(&self) -> f64 {
        per(self.ns(), self.calls())
    }
}

/// Per-method host cost of the storage layer under the pool, seen at the
/// `bufpool` ↔ `core` boundary.
#[derive(Default)]
pub struct PageIoCosts {
    pub read_hit: Cost,
    pub read_miss: Cost,
    pub read_run: Cost,
    pub read_run_pages: AtomicU64,
    pub evict: Cost,
    pub note_dirtied: Cost,
    pub checkpoint: Cost,
}

impl PageIoCosts {
    fn all(&self) -> [&Cost; 6] {
        [
            &self.read_hit,
            &self.read_miss,
            &self.read_run,
            &self.evict,
            &self.note_dirtied,
            &self.checkpoint,
        ]
    }

    /// Calls of any kind so far (a `get` that made none was a pool hit).
    pub fn calls(&self) -> u64 {
        self.all().iter().map(|c| c.calls()).sum()
    }

    /// Host ns spent below the boundary so far.
    pub fn ns(&self) -> u64 {
        self.all().iter().map(|c| c.ns()).sum()
    }
}

/// Delegating `PageIo` for the ladder pass: times every call into the layer
/// below the buffer pool. `ssd_hits` reads the wrapped layer's public hit
/// counter, so a read is filed under hit or miss by what the layer itself
/// counted.
pub struct TimedPageIo {
    inner: Arc<dyn PageIo>,
    ssd_hits: Box<dyn Fn() -> u64 + Send + Sync>,
    pub costs: PageIoCosts,
}

impl TimedPageIo {
    pub fn new(inner: Arc<dyn PageIo>, ssd_hits: Box<dyn Fn() -> u64 + Send + Sync>) -> Self {
        TimedPageIo {
            inner,
            ssd_hits,
            costs: PageIoCosts::default(),
        }
    }
}

impl PageIo for TimedPageIo {
    fn read_page(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
        buf: &mut [u8],
    ) -> Result<(), IoError> {
        let hits = (self.ssd_hits)();
        let t0 = wall_ns();
        let r = self.inner.read_page(clk, pid, class, buf);
        let ns = wall_ns() - t0;
        if (self.ssd_hits)() > hits {
            self.costs.read_hit.add(ns);
        } else {
            self.costs.read_miss.add(ns);
        }
        r
    }

    fn read_run(&self, clk: &mut Clk, first: PageId, n: u64) -> Result<Vec<PageBuf>, IoError> {
        let t0 = wall_ns();
        let r = self.inner.read_run(clk, first, n);
        self.costs.read_run.add(wall_ns() - t0);
        self.costs.read_run_pages.fetch_add(n, Ordering::Relaxed);
        r
    }

    fn evict_page(&self, now: Time, pid: PageId, data: &[u8], dirty: bool, class: Locality) {
        let t0 = wall_ns();
        self.inner.evict_page(now, pid, data, dirty, class);
        self.costs.evict.add(wall_ns() - t0);
    }

    fn note_dirtied(&self, now: Time, pid: PageId) {
        let t0 = wall_ns();
        self.inner.note_dirtied(now, pid);
        self.costs.note_dirtied.add(wall_ns() - t0);
    }

    fn checkpoint_write(&self, now: Time, pid: PageId, data: &[u8], class: Locality) -> Time {
        let t0 = wall_ns();
        let done = self.inner.checkpoint_write(now, pid, data, class);
        self.costs.checkpoint.add(wall_ns() - t0);
        done
    }

    fn checkpoint_flush(&self, clk: &mut Clk) {
        let t0 = wall_ns();
        self.inner.checkpoint_flush(clk);
        self.costs.checkpoint.add(wall_ns() - t0);
    }

    fn has_copy(&self, pid: PageId) -> bool {
        self.inner.has_copy(pid)
    }

    fn checkpoint_window(&self, start: Time, end: Time) {
        self.inner.checkpoint_window(start, end);
    }
}
