//! The database facade: wiring, catalog, checkpoints, crash & recovery.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use turbopool_bufpool::{BufferPool, DirectIo, PageGuard, PageIo, PoolStats, ScanCursor};
use turbopool_core::{ImportReport, SsdManager, TacCache};
use turbopool_iosim::sync::{Mutex, Rank};
use turbopool_iosim::{fault, Clk, IoError, IoManager, Locality, PageId, Time};
use turbopool_wal::log::DurableLog;
use turbopool_wal::{LogManager, LogScanReport, RecoveryStats, RedoStore};

use crate::btree::{self, IndexMeta};
use crate::config::DbConfig;
use crate::heap::{self, HeapMeta, Rid};
use crate::txn::Txn;

/// Handle to a heap file in the catalog.
pub type HeapId = usize;
/// Handle to a B+-tree index in the catalog.
pub type IndexId = usize;

#[derive(Default)]
struct Catalog {
    heaps: Vec<HeapMeta>,
    indexes: Vec<IndexMeta>,
    names: HashMap<String, (bool, usize)>, // (is_index, id)
}

/// The storage engine: two-level buffer hierarchy over the simulated
/// devices, with a WAL and a catalog of heaps and indexes.
pub struct Database {
    cfg: DbConfig,
    io: Arc<IoManager>,
    pool: BufferPool,
    layer: Arc<dyn PageIo>,
    ssd: Option<Arc<SsdManager>>,
    tac: Option<Arc<TacCache>>,
    log: LogManager,
    next_tx: AtomicU64,
    alloc: AtomicU64,
    catalog: Mutex<Catalog>,
}

/// Read-ahead window for table scans, in pages: a scan prefetches runs of
/// this many pages ahead of its cursor, each one multi-page sequential
/// read (32 × 8 KB = 256 KB at the paper's page size).
pub const READAHEAD_WINDOW: u64 = 32;

impl Database {
    /// Open a fresh database (empty disk image, empty log).
    pub fn open(cfg: DbConfig) -> Self {
        let io = Arc::new(IoManager::new(&cfg.device_setup()));
        Self::build(cfg, io, None)
    }

    fn build(cfg: DbConfig, io: Arc<IoManager>, log: Option<LogManager>) -> Self {
        type Layers = (
            Arc<dyn PageIo>,
            Option<Arc<SsdManager>>,
            Option<Arc<TacCache>>,
        );
        let (layer, ssd, tac): Layers = match &cfg.ssd {
            None => (Arc::new(DirectIo::new(Arc::clone(&io))), None, None),
            Some(scfg) if scfg.design.policy().admit_on_read => {
                let t = Arc::new(TacCache::new(scfg.clone(), Arc::clone(&io)));
                (Arc::clone(&t) as Arc<dyn PageIo>, None, Some(t))
            }
            Some(scfg) => {
                let m = Arc::new(SsdManager::new(scfg.clone(), Arc::clone(&io)));
                (Arc::clone(&m) as Arc<dyn PageIo>, Some(m), None)
            }
        };
        let pool = BufferPool::new(cfg.pool.clone(), Arc::clone(&layer));
        let log = log.unwrap_or_else(|| LogManager::new(Arc::clone(&io)));
        Database {
            cfg,
            io,
            pool,
            layer,
            ssd,
            tac,
            log,
            next_tx: AtomicU64::new(1),
            alloc: AtomicU64::new(0),
            catalog: Mutex::ranked(Rank::Catalog, Catalog::default()),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    pub fn config(&self) -> &DbConfig {
        &self.cfg
    }

    pub fn page_size(&self) -> usize {
        self.cfg.pool.page_size
    }

    pub fn io(&self) -> &Arc<IoManager> {
        &self.io
    }

    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    pub fn log(&self) -> &LogManager {
        &self.log
    }

    /// The SSD manager when running CW/DW/LC.
    pub fn ssd_manager(&self) -> Option<&Arc<SsdManager>> {
        self.ssd.as_ref()
    }

    /// The TAC cache when running TAC.
    pub fn tac_cache(&self) -> Option<&Arc<TacCache>> {
        self.tac.as_ref()
    }

    /// SSD-manager counters regardless of design (`None` for noSSD).
    pub fn ssd_metrics(&self) -> Option<turbopool_core::metrics::SsdMetricsSnapshot> {
        if let Some(m) = &self.ssd {
            Some(m.metrics.snapshot())
        } else {
            self.tac.as_ref().map(|t| t.metrics.snapshot())
        }
    }

    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Replacement-policy counter snapshot (ghost hits, scan cost, …).
    pub fn policy_stats(&self) -> turbopool_bufpool::PolicyStats {
        self.pool.policy_stats()
    }

    /// Validate that a page reference points inside the database file.
    /// References can come off disk pages (B+-tree child pointers), and a
    /// damaged restart (mid-log corruption) can roll an inner node back
    /// past its children — such a pointer must fail like a bad read, not
    /// panic the page store.
    pub(crate) fn check_pid(&self, pid: PageId) -> Result<(), IoError> {
        if pid.0 < self.cfg.pool.db_pages {
            Ok(())
        } else {
            Err(IoError::new(
                turbopool_iosim::FaultDevice::Disk,
                turbopool_iosim::IoErrorKind::ChecksumMismatch,
                0,
            ))
        }
    }

    /// For a page the caller has just found *not resident in the pool*
    /// ([`BufferPool::get_resident`] returned `None`): true if no copy of
    /// `pid` exists below it either (SSD, disk), i.e. the page has never
    /// been written and reads as zeroes.
    pub(crate) fn is_fresh(&self, pid: PageId) -> bool {
        if self.layer.has_copy(pid) || self.io.disk_store().is_materialized(pid) {
            return false;
        }
        if self.io.disk_write_lost(pid) {
            // The page's last disk write was dropped by a dead device: it is
            // unmaterialized but *not* never-written. Treating it as fresh
            // would serve zeroes for committed data; forcing the read path
            // instead surfaces the device error and poisons the transaction.
            return false;
        }
        // No copy anywhere — but a quarantined SSD may have stranded this
        // page's sole (dirty) copy, in which case it is salvageable from the
        // WAL tail, not fresh. Salvage is a no-op when nothing is stranded.
        if self.salvage(&[]) > 0 {
            return !self.io.disk_store().is_materialized(pid);
        }
        true
    }

    // ------------------------------------------------------------------
    // Fault tolerance: WAL-tail salvage of stranded SSD pages
    // ------------------------------------------------------------------

    /// Restore the committed content of lost pages onto the disk tier by
    /// replaying the durable log tail: every page the SSD manager reports as
    /// *stranded* (an LC dirty frame whose sole copy became unreadable),
    /// plus any `extra` pages the caller needs redone. Returns the number of
    /// pages restored.
    ///
    /// Sound because commit-time publication flushes a page's log records
    /// before the page can reach any cache, and sharp checkpoints flush all
    /// SSD-dirty pages before truncating the log — so the committed image of
    /// every cached-dirty page is always reconstructible from disk + tail.
    pub fn salvage(&self, extra: &[PageId]) -> usize {
        let mut pids: HashSet<PageId> = extra.iter().copied().collect();
        if let Some(m) = &self.ssd {
            pids.extend(m.take_stranded());
        }
        if pids.is_empty() {
            return 0;
        }
        let mut store = SalvageStore { io: &self.io };
        // The durable log is replayed where it lies, not copied out.
        let replay = |log: &[u8]| turbopool_wal::salvage(log, &mut store, &pids);
        // An error is a salvage write that failed even after unbounded
        // transient retry: the disk tier itself is dead. The failing page
        // was marked as a lost write inside the store, so its readers will
        // surface the device error instead of zeroes; there is nothing more
        // a salvage pass can do.
        let salvaged = self.log.durable_handle().with_bytes(replay);
        let n = salvaged.unwrap_or_default();
        if let Some(m) = &self.ssd {
            m.metrics
                .salvaged_pages
                .fetch_add(n as u64, Ordering::Relaxed);
        } else if let Some(t) = &self.tac {
            t.metrics
                .salvaged_pages
                .fetch_add(n as u64, Ordering::Relaxed);
        }
        n
    }

    /// Pin a page, salvaging and retrying once if the first attempt fails.
    /// The only recoverable failure is a stranded LC page (the read error
    /// queues it for salvage as a side effect); everything else — a dead
    /// disk after retries — is returned to the caller.
    pub(crate) fn get_with_salvage(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
    ) -> Result<PageGuard<'_>, IoError> {
        match self.pool.get(clk, pid, class) {
            Ok(g) => Ok(g),
            Err(first) => {
                if self.salvage(&[]) == 0 {
                    return Err(first);
                }
                self.pool.get(clk, pid, class)
            }
        }
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    fn alloc_pages(&self, n: u64) -> PageId {
        let first = self.alloc.fetch_add(n, Ordering::Relaxed);
        assert!(
            first + n <= self.cfg.pool.db_pages,
            "database full: {} + {n} > {}",
            first,
            self.cfg.pool.db_pages
        );
        PageId(first)
    }

    /// Create a heap file of `pages` pages holding `record_size`-byte
    /// records. Costs no I/O (zeroed pages are valid empty pages).
    pub fn create_heap(
        &self,
        _clk: &mut Clk,
        name: &str,
        record_size: usize,
        pages: u64,
    ) -> HeapId {
        let first = self.alloc_pages(pages);
        let meta = HeapMeta::new(first, pages, record_size, self.cfg.pool.page_size);
        let mut cat = self.catalog.lock();
        let id = cat.heaps.len();
        assert!(
            cat.names.insert(name.to_string(), (false, id)).is_none(),
            "duplicate table name {name}"
        );
        cat.heaps.push(meta);
        id
    }

    /// Create a B+-tree index with a split extent of `extent_pages` pages.
    pub fn create_index(&self, _clk: &mut Clk, name: &str, extent_pages: u64) -> IndexId {
        let root = self.alloc_pages(1);
        let extent = self.alloc_pages(extent_pages);
        let meta = IndexMeta::new(root, extent, extent_pages);
        let mut cat = self.catalog.lock();
        let id = cat.indexes.len();
        assert!(
            cat.names.insert(name.to_string(), (true, id)).is_none(),
            "duplicate index name {name}"
        );
        cat.indexes.push(meta);
        id
    }

    pub fn heap_meta(&self, id: HeapId) -> HeapMeta {
        self.catalog.lock().heaps[id].clone()
    }

    pub fn index_meta(&self, id: IndexId) -> IndexMeta {
        self.catalog.lock().indexes[id].clone()
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin a transaction on the given client clock.
    pub fn begin<'d, 'c>(&'d self, clk: &'c mut Clk) -> Txn<'d, 'c> {
        let id = self.next_tx.fetch_add(1, Ordering::Relaxed);
        Txn::new(self, clk, id)
    }

    // ------------------------------------------------------------------
    // Scans
    // ------------------------------------------------------------------

    /// Full sequential scan of a heap with read-ahead; calls
    /// `f(rid, record)` for every present record. Sees committed data only.
    /// `Err` means a page could not be read even after WAL-tail salvage —
    /// the disk tier itself failed; the scan stops at that page.
    pub fn scan_heap(
        &self,
        clk: &mut Clk,
        id: HeapId,
        mut f: impl FnMut(Rid, &[u8]),
    ) -> Result<(), IoError> {
        let meta = self.heap_meta(id);
        let end = meta.first.offset(meta.used_pages());
        let mut cursor = ScanCursor::new(meta.first, end, READAHEAD_WINDOW);
        while let Some(next) = cursor.next(clk, &self.pool) {
            // The cursor has already advanced past the page it just served
            // (or failed to serve).
            let pid = PageId(end.0 - cursor.remaining() - 1);
            let g = match next {
                Ok(g) => g,
                Err(e) => {
                    if self.salvage(&[]) == 0 {
                        return Err(e);
                    }
                    self.pool.get(clk, pid, Locality::Sequential)?
                }
            };
            let page_index = pid.0 - meta.first.0;
            g.read(|b| heap::for_each_in_page(&meta, page_index, b, &mut f));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Checkpoint, crash, recovery
    // ------------------------------------------------------------------

    /// Take a sharp checkpoint: flush every dirty page in the memory pool,
    /// then (under LC) every dirty SSD page, then write and truncate the
    /// log. With `warm_restart` enabled, the SSD buffer table is embedded
    /// in the checkpoint record so a restart can re-adopt the SSD's
    /// contents. Returns the virtual duration of the checkpoint.
    pub fn checkpoint(&self, clk: &mut Clk) -> Time {
        let start = clk.now;
        self.pool.checkpoint(clk);
        // The SSD flush above may have stranded LC pages (unreadable dirty
        // frames). They must be salvaged from the log tail NOW — the
        // checkpoint below truncates that tail, after which the committed
        // content would be unrecoverable.
        self.salvage(&[]);
        let ssd_table = self
            .ssd
            .as_ref()
            .filter(|m| m.config().warm_restart)
            .map(|m| turbopool_wal::LogRecord::SsdTable {
                entries: m
                    .export_table()
                    .into_iter()
                    .map(|(p, f)| (p.0, f))
                    .collect(),
            });
        self.log.checkpoint_with(clk, ssd_table.as_ref());
        self.layer.checkpoint_window(start, clk.now);
        clk.now - start
    }

    /// Simulate a crash: all volatile state (buffer pool, SSD manager
    /// metadata, unflushed log) is lost; the disk image, the durable log
    /// and the (system-page-resident) catalog survive.
    pub fn crash(self) -> CrashImage {
        let cat = self.catalog.into_inner();
        CrashImage {
            cfg: self.cfg,
            io: self.io,
            log: self.log.durable_handle(),
            heaps: cat.heaps,
            indexes: cat.indexes,
            names: cat.names,
            alloc: self.alloc.load(Ordering::Relaxed),
            next_tx: self.next_tx.load(Ordering::Relaxed),
        }
    }

    /// Restart after a crash: replay the durable log onto the disk image,
    /// then open with cold caches (or, with the warm-restart extension,
    /// re-adopt probed-clean SSD frames).
    ///
    /// Infallible legacy entry point over [`Database::try_recover`]: the
    /// fault-free callers (drivers, most tests) have no fault plan attached
    /// at restart, so recovery cannot fail for them. Panics if the disk
    /// tier is genuinely dead — there is no database left to open.
    pub fn recover(image: CrashImage) -> (Self, RecoveryStats) {
        match Self::try_recover(image) {
            Ok((db, report)) => (db, report.stats),
            Err(e) => panic!("unrecoverable: disk tier failed during redo: {:?}", e.error),
        }
    }

    /// Fault-tolerant restart. Replays the durable log onto the disk image
    /// through the device fault model (transient redo errors retry with the
    /// configured capped-backoff policy; recovery's own writes are durable
    /// crash points), repairs the log tail, and — with warm restart on —
    /// re-adopts only SSD frames that probe clean, quarantining a dead SSD
    /// and degrading to a cold start instead of fighting it.
    ///
    /// Recovery is *re-entrant*: on `Err` the [`CrashImage`] is handed back
    /// unchanged (modulo partially-redone disk pages, which redo overwrites
    /// idempotently), so the caller may simply call `try_recover` again —
    /// the model of a machine crashing during recovery and rebooting into
    /// another recovery attempt. Any number of such interruptions converge
    /// to the same committed state.
    pub fn try_recover(image: CrashImage) -> Result<(Self, RecoveryReport), Box<RecoveryError>> {
        // The machine rebooted: devices come back idle, virtual time
        // restarts at zero for the new incarnation.
        image.io.reset_device_time();
        let mut clk = Clk::new();
        let ssd_frames = image.io.ssd_frames();
        let outcome = {
            let mut store = TimedRedoStore {
                io: &image.io,
                clk: &mut clk,
                retries: 0,
            };
            // The durable log is read where it lies, not copied out.
            let redo = image
                .log
                .with_bytes(|log| turbopool_wal::recover(log, &mut store, Some(ssd_frames)));
            match redo {
                Ok(o) => (o, store.retries),
                Err(error) => return Err(Box::new(RecoveryError { error, image })),
            }
        };
        let (outcome, redo_retries) = outcome;
        // Log repair: everything past the last cleanly decoded byte (a torn
        // tail, or a corrupt region) is dead weight that would hide future
        // appends from the *next* recovery. Redo is complete, so it is safe
        // — and idempotent — to drop it now.
        image.log.truncate_to_valid(outcome.report.valid_len);
        let log = image.log.reopen(Arc::clone(&image.io));
        let db = Self::build(image.cfg, image.io, Some(log));
        {
            let mut cat = db.catalog.lock();
            cat.heaps = image.heaps;
            cat.indexes = image.indexes;
            cat.names = image.names;
        }
        db.alloc.store(image.alloc, Ordering::Relaxed);
        db.next_tx.store(image.next_tx, Ordering::Relaxed);

        // Warm restart (extension): re-adopt SSD pages recorded in the
        // last checkpoint that are provably still valid — the frame's
        // in-page header must still name the page (frame not reused), the
        // page's disk image must not have advanced during redo, and the
        // frame's bytes must probe clean (checksum verified) at import.
        let mut warm = None;
        if let Some(mgr) = db.ssd.as_ref().filter(|m| m.config().warm_restart) {
            if let Some(entries) = &outcome.ssd_table {
                let io = Arc::clone(&db.io);
                let redone = &outcome.redone;
                warm = Some(mgr.import_table_checked(&mut clk, entries, |pid, frame| {
                    io.ssd_tag(frame) == Some(pid) && !redone.contains(&pid)
                }));
            }
        }
        // Recovery's redo and probe I/O booked device time on the new
        // incarnation's clock; its cost is captured in `duration`. Hand the
        // system over with idle devices — clients start at virtual zero
        // *after* recovery, not interleaved with it.
        db.io.reset_device_time();
        let report = RecoveryReport {
            stats: outcome.stats,
            log: outcome.report,
            warm,
            redo_retries,
            duration: clk.now,
        };
        Ok((db, report))
    }

    /// Fault-injection hook for tests: XOR `mask` into byte `byte` of the
    /// durable log, modeling at-rest media corruption of the log file.
    /// Returns false when out of range.
    pub fn corrupt_log(&self, byte: usize, mask: u8) -> bool {
        self.log.corrupt_durable(byte, mask)
    }
}

/// Everything a restart learned, for callers that must fail loudly.
///
/// `log.tail.is_damaged()` distinguishes the two damage classes: a torn
/// tail (expected after any crash mid-flush; truncated and harmless) versus
/// mid-log corruption (`LogTail::Corrupt`), after which the recovered state
/// is the last validated checkpoint plus the log prefix before the damage —
/// correct but possibly missing commits, which the caller must surface.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// Redo counters.
    pub stats: RecoveryStats,
    /// Log-scan findings: tail condition, valid prefix length, checkpoint
    /// validation results.
    pub log: LogScanReport,
    /// Warm-restart probe results (`None`: cold restart or no SSD table in
    /// the checkpoint).
    pub warm: Option<ImportReport>,
    /// Transient device errors absorbed by redo's retry policy.
    pub redo_retries: u32,
    /// Virtual time the redo pass and warm import consumed.
    pub duration: Time,
}

impl RecoveryReport {
    /// Did this restart lose access to committed data (mid-log corruption)
    /// — as opposed to merely degrading performance (cold caches)?
    pub fn is_damaged(&self) -> bool {
        self.log.tail.is_damaged()
            && matches!(self.log.tail, turbopool_wal::LogTail::Corrupt { .. })
    }
}

/// Recovery could not complete: a redo read or write failed permanently.
/// Carries the [`CrashImage`] back so the caller can retry (`try_recover`
/// is re-entrant) once the fault clears, or give up loudly.
pub struct RecoveryError {
    pub error: IoError,
    pub image: CrashImage,
}

impl std::fmt::Debug for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveryError")
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

/// Redo-store over the live device model: every recovery read and write
/// goes through the disk array with fault gating and timing, retrying
/// transient errors with the engine's capped-backoff policy. This is what
/// makes recovery measurable (virtual duration) and crashable (each redo
/// write is a durable-write boundary for the crash-schedule explorer).
struct TimedRedoStore<'a> {
    io: &'a IoManager,
    clk: &'a mut Clk,
    retries: u32,
}

impl RedoStore for TimedRedoStore<'_> {
    fn page_size(&self) -> usize {
        self.io.page_size()
    }
    fn num_pages(&self) -> u64 {
        self.io.db_pages()
    }
    fn read(&mut self, pid: PageId, buf: &mut [u8]) -> Result<(), IoError> {
        let (r, out) = fault::retry_sync(self.clk, |c| {
            self.io.read_disk(c, pid, buf, Locality::Sequential)
        });
        self.retries += r;
        out
    }
    fn write(&mut self, pid: PageId, data: &[u8]) -> Result<(), IoError> {
        let (r, out) = fault::retry_sync(self.clk, |c| {
            self.io.write_disk_sync(c, pid, data, Locality::Sequential)
        });
        self.retries += r;
        out
    }
}

/// Redo-store for live WAL-tail salvage: reads come straight from the disk
/// image (the base the log deltas patch), writes go through the device
/// write-behind path with unbounded transient retry — only a dead disk
/// falls through, and then the lost write is recorded so readers fail
/// loudly instead of seeing stale bytes.
struct SalvageStore<'a> {
    io: &'a IoManager,
}

impl RedoStore for SalvageStore<'_> {
    fn page_size(&self) -> usize {
        self.io.page_size()
    }
    fn num_pages(&self) -> u64 {
        self.io.db_pages()
    }
    fn read(&mut self, pid: PageId, buf: &mut [u8]) -> Result<(), IoError> {
        self.io.disk_store().read(pid, buf);
        Ok(())
    }
    fn write(&mut self, pid: PageId, data: &[u8]) -> Result<(), IoError> {
        match fault::retry_write_forever(|| {
            self.io.write_disk_async(0, pid, data, Locality::Random)
        }) {
            Ok(_) => Ok(()),
            Err(e) => {
                self.io.note_lost_write(pid);
                Err(e)
            }
        }
    }
}

/// What survives a crash: the disk image, the durable log, and the catalog
/// / allocation metadata (resident on system pages in a real engine;
/// carried as plain values here — see DESIGN.md).
pub struct CrashImage {
    cfg: DbConfig,
    io: Arc<IoManager>,
    log: DurableLog,
    heaps: Vec<HeapMeta>,
    indexes: Vec<IndexMeta>,
    names: HashMap<String, (bool, usize)>,
    alloc: u64,
    next_tx: u64,
}

impl CrashImage {
    /// The device stack the image rides on. Exposed so crash-schedule
    /// drivers can arm (or clear) a [`turbopool_iosim::CrashSwitch`] across
    /// a reboot — recovery's own writes are durable crash points too.
    pub fn io(&self) -> &Arc<IoManager> {
        &self.io
    }
}

// ---------------------------------------------------------------------
// Transaction-level data access (convenience methods on Txn)
// ---------------------------------------------------------------------

/// The catalog entries one transaction has used, each looked up once: the
/// `Txn::heap_*` and `index_*` operations after the first on a table take
/// no catalog latch and clone no meta.
#[derive(Default)]
pub(crate) struct Resolved {
    heaps: Vec<Option<HeapMeta>>,
    indexes: Vec<Option<IndexMeta>>,
}

/// Take entry `id` out of `slots`, if it was resolved before.
fn take_slot<M>(slots: &mut [Option<M>], id: usize) -> Option<M> {
    slots.get_mut(id)?.take()
}

/// Put entry `id` (back) into `slots`.
fn put_slot<M>(slots: &mut Vec<Option<M>>, id: usize, meta: M) {
    if slots.len() <= id {
        slots.resize_with(id + 1, || None);
    }
    slots[id] = Some(meta);
}

impl Txn<'_, '_> {
    /// Page size of the underlying database.
    pub fn page_size(&self) -> usize {
        self.db.page_size()
    }

    /// Run `op` on heap `id`'s catalog entry.
    fn on_heap<R>(&mut self, id: HeapId, op: impl FnOnce(&mut Self, &HeapMeta) -> R) -> R {
        let meta = take_slot(&mut self.resolved.heaps, id).unwrap_or_else(|| self.db.heap_meta(id));
        let r = op(self, &meta);
        put_slot(&mut self.resolved.heaps, id, meta);
        r
    }

    /// Run `op` on index `id`'s catalog entry.
    fn on_index<R>(&mut self, id: IndexId, op: impl FnOnce(&mut Self, &IndexMeta) -> R) -> R {
        let meta =
            take_slot(&mut self.resolved.indexes, id).unwrap_or_else(|| self.db.index_meta(id));
        let r = op(self, &meta);
        put_slot(&mut self.resolved.indexes, id, meta);
        r
    }

    /// Insert a record into a heap.
    pub fn heap_insert(&mut self, id: HeapId, data: &[u8]) -> Result<Rid, heap::HeapFull> {
        self.on_heap(id, |txn, meta| heap::insert(txn, meta, data))
    }

    /// Read a record from a heap.
    pub fn heap_get(&mut self, id: HeapId, rid: Rid) -> Option<Vec<u8>> {
        self.on_heap(id, |txn, meta| heap::get(txn, meta, rid))
    }

    /// Overwrite a record in a heap.
    pub fn heap_update(&mut self, id: HeapId, rid: Rid, data: &[u8]) -> bool {
        self.on_heap(id, |txn, meta| heap::update(txn, meta, rid, data))
    }

    /// Delete a record from a heap.
    pub fn heap_delete(&mut self, id: HeapId, rid: Rid) -> bool {
        self.on_heap(id, |txn, meta| heap::delete(txn, meta, rid))
    }

    /// Insert (or replace) a key in an index.
    pub fn index_insert(&mut self, id: IndexId, key: u64, val: u64) {
        self.on_index(id, |txn, meta| btree::insert(txn, meta, key, val))
    }

    /// Point lookup in an index.
    pub fn index_get(&mut self, id: IndexId, key: u64) -> Option<u64> {
        self.on_index(id, |txn, meta| btree::get(txn, meta, key))
    }

    /// Range scan `lo..=hi` (up to `limit` results, key order).
    pub fn index_range(&mut self, id: IndexId, lo: u64, hi: u64, limit: usize) -> Vec<(u64, u64)> {
        self.on_index(id, |txn, meta| btree::range(txn, meta, lo, hi, limit))
    }

    /// Delete a key from an index.
    pub fn index_delete(&mut self, id: IndexId, key: u64) -> bool {
        self.on_index(id, |txn, meta| btree::delete(txn, meta, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        Database::open(DbConfig::small_for_tests())
    }

    #[test]
    fn heap_insert_get_round_trip() {
        let db = db();
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 32, 16);
        let mut txn = db.begin(&mut clk);
        let rid = txn.heap_insert(h, b"hello").unwrap();
        assert_eq!(&txn.heap_get(h, rid).unwrap()[..5], b"hello");
        txn.commit();
        // Visible in a new transaction.
        let mut txn = db.begin(&mut clk);
        assert_eq!(&txn.heap_get(h, rid).unwrap()[..5], b"hello");
        txn.commit();
    }

    #[test]
    fn abort_discards_everything() {
        let db = db();
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 32, 16);
        let rid = {
            let mut txn = db.begin(&mut clk);
            let rid = txn.heap_insert(h, b"gone").unwrap();
            txn.abort();
            rid
        };
        let mut txn = db.begin(&mut clk);
        assert!(txn.heap_get(h, rid).is_none());
        txn.commit();
    }

    #[test]
    fn read_only_txn_writes_no_log() {
        let db = db();
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 32, 16);
        {
            let mut txn = db.begin(&mut clk);
            txn.heap_insert(h, b"x").unwrap();
            txn.commit();
        }
        let before = db.log().flushed_lsn();
        let mut txn = db.begin(&mut clk);
        txn.heap_get(h, 0);
        txn.commit();
        assert_eq!(db.log().flushed_lsn(), before);
    }

    #[test]
    fn btree_insert_get_thousands_with_splits() {
        let db = db();
        let mut clk = Clk::new();
        let idx = db.create_index(&mut clk, "i", 400);
        let mut txn = db.begin(&mut clk);
        // Insert in a scrambled order to exercise splits on both sides.
        let n = 1000u64;
        for i in 0..n {
            let k = (i * 7919) % n;
            txn.index_insert(idx, k, k * 10);
        }
        for k in 0..n {
            assert_eq!(txn.index_get(idx, k), Some(k * 10), "key {k}");
        }
        assert_eq!(txn.index_get(idx, n + 5), None);
        txn.commit();
    }

    #[test]
    fn btree_upsert_replaces() {
        let db = db();
        let mut clk = Clk::new();
        let idx = db.create_index(&mut clk, "i", 50);
        let mut txn = db.begin(&mut clk);
        txn.index_insert(idx, 5, 1);
        txn.index_insert(idx, 5, 2);
        assert_eq!(txn.index_get(idx, 5), Some(2));
        txn.commit();
    }

    #[test]
    fn btree_range_is_sorted_and_bounded() {
        let db = db();
        let mut clk = Clk::new();
        let idx = db.create_index(&mut clk, "i", 200);
        let mut txn = db.begin(&mut clk);
        for k in (0..1000u64).rev() {
            txn.index_insert(idx, k * 2, k);
        }
        let r = txn.index_range(idx, 100, 140, 100);
        let keys: Vec<u64> = r.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            vec![
                100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120, 122, 124, 126, 128, 130,
                132, 134, 136, 138, 140
            ]
        );
        let limited = txn.index_range(idx, 0, u64::MAX, 7);
        assert_eq!(limited.len(), 7);
        assert_eq!(limited[6].0, 12);
        txn.commit();
    }

    #[test]
    fn btree_delete_removes() {
        let db = db();
        let mut clk = Clk::new();
        let idx = db.create_index(&mut clk, "i", 100);
        let mut txn = db.begin(&mut clk);
        for k in 0..500u64 {
            txn.index_insert(idx, k, k);
        }
        assert!(txn.index_delete(idx, 250));
        assert!(!txn.index_delete(idx, 250));
        assert_eq!(txn.index_get(idx, 250), None);
        assert_eq!(txn.index_get(idx, 251), Some(251));
        let r = txn.index_range(idx, 248, 252, 10);
        let keys: Vec<u64> = r.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![248, 249, 251, 252]);
        txn.commit();
    }

    #[test]
    fn scan_heap_sees_all_committed_records() {
        let db = db();
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 16, 64);
        let mut txn = db.begin(&mut clk);
        for i in 0..100u64 {
            txn.heap_insert(h, &i.to_le_bytes()).unwrap();
        }
        txn.commit();
        let mut seen = Vec::new();
        db.scan_heap(&mut clk, h, |rid, rec| {
            seen.push((rid, u64::from_le_bytes(rec[..8].try_into().unwrap())));
        })
        .unwrap();
        assert_eq!(seen.len(), 100);
        assert!(seen.iter().all(|&(rid, v)| rid == v));
    }

    #[test]
    fn crash_before_commit_loses_nothing_committed() {
        let db = db();
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 32, 32);
        {
            let mut txn = db.begin(&mut clk);
            txn.heap_insert(h, b"durable").unwrap();
            txn.commit();
        }
        // A transaction in flight at crash time:
        {
            let mut txn = db.begin(&mut clk);
            txn.heap_insert(h, b"lost").unwrap();
            txn.abort(); // never committed
        }
        let (db2, stats) = Database::recover(db.crash());
        assert!(stats.writes_applied > 0);
        let mut clk = Clk::new();
        let mut txn = db2.begin(&mut clk);
        assert_eq!(&txn.heap_get(h, 0).unwrap()[..7], b"durable");
        assert!(txn.heap_get(h, 1).is_none());
        txn.commit();
    }

    #[test]
    fn recovery_after_checkpoint_replays_only_the_tail() {
        let db = db();
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 32, 32);
        {
            let mut txn = db.begin(&mut clk);
            txn.heap_insert(h, b"before").unwrap();
            txn.commit();
        }
        db.checkpoint(&mut clk);
        {
            let mut txn = db.begin(&mut clk);
            txn.heap_insert(h, b"after").unwrap();
            txn.commit();
        }
        let (db2, stats) = Database::recover(db.crash());
        // Only the post-checkpoint transaction is replayed.
        assert_eq!(stats.txns_redone, 1);
        let mut clk = Clk::new();
        let mut txn = db2.begin(&mut clk);
        assert_eq!(&txn.heap_get(h, 0).unwrap()[..6], b"before");
        assert_eq!(&txn.heap_get(h, 1).unwrap()[..5], b"after");
        txn.commit();
    }

    #[test]
    fn checkpoint_leaves_no_dirty_pages() {
        let db = db();
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 32, 32);
        let mut txn = db.begin(&mut clk);
        for i in 0..20u64 {
            txn.heap_insert(h, &i.to_le_bytes()).unwrap();
        }
        txn.commit();
        assert!(db.pool().dirty_count() > 0);
        db.checkpoint(&mut clk);
        assert_eq!(db.pool().dirty_count(), 0);
    }

    #[test]
    fn fresh_pages_cost_no_read_io() {
        let db = db();
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 32, 32);
        let reads_before = db.io().disk_stats().read_ops;
        let mut txn = db.begin(&mut clk);
        txn.heap_insert(h, b"first-touch").unwrap();
        txn.commit();
        assert_eq!(db.io().disk_stats().read_ops, reads_before);
    }

    #[test]
    fn fresh_page_write_read_back_after_eviction() {
        // A page created fresh, evicted, and re-read must round-trip.
        let mut cfg = DbConfig::small_for_tests();
        cfg.pool.frames = 2;
        let db = Database::open(cfg);
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 32, 64);
        let mut rids = Vec::new();
        for i in 0..30u64 {
            let mut txn = db.begin(&mut clk);
            rids.push(txn.heap_insert(h, &i.to_le_bytes()).unwrap());
            txn.commit();
        }
        let mut txn = db.begin(&mut clk);
        for (i, rid) in rids.iter().enumerate() {
            let rec = txn.heap_get(h, *rid).unwrap();
            assert_eq!(u64::from_le_bytes(rec[..8].try_into().unwrap()), i as u64);
        }
        txn.commit();
    }

    #[test]
    fn works_identically_across_designs() {
        use turbopool_core::{SsdConfig, SsdDesign};
        for design in [
            None,
            Some(SsdDesign::CleanWrite),
            Some(SsdDesign::DualWrite),
            Some(SsdDesign::LazyCleaning),
            Some(SsdDesign::Tac),
        ] {
            let mut cfg = DbConfig::small_for_tests();
            cfg.pool.frames = 4;
            cfg.ssd = design.map(|d| {
                let mut s = SsdConfig::new(d, 16);
                s.partitions = 2;
                s
            });
            let db = Database::open(cfg);
            let mut clk = Clk::new();
            let h = db.create_heap(&mut clk, "t", 16, 32);
            let idx = db.create_index(&mut clk, "i", 64);
            let mut rids = Vec::new();
            for i in 0..200u64 {
                let mut txn = db.begin(&mut clk);
                let rid = txn.heap_insert(h, &i.to_le_bytes()).unwrap();
                txn.index_insert(idx, i, rid);
                txn.commit();
                rids.push(rid);
            }
            let mut txn = db.begin(&mut clk);
            for i in (0..200u64).step_by(7) {
                let rid = txn.index_get(idx, i).unwrap();
                let rec = txn.heap_get(h, rid).unwrap();
                assert_eq!(
                    u64::from_le_bytes(rec[..8].try_into().unwrap()),
                    i,
                    "design {design:?}"
                );
            }
            txn.commit();
        }
    }

    #[test]
    fn ssd_copies_are_invalidated_on_commit() {
        use turbopool_core::{SsdConfig, SsdDesign};
        let mut cfg = DbConfig::small_for_tests();
        cfg.pool.frames = 2;
        let mut s = SsdConfig::new(SsdDesign::DualWrite, 32);
        s.partitions = 1;
        cfg.ssd = Some(s);
        let db = Database::open(cfg);
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 32, 8);
        {
            let mut txn = db.begin(&mut clk);
            txn.heap_insert(h, b"v1").unwrap();
            txn.commit();
        }
        // Evict the page into the SSD by touching others.
        let h2 = db.create_heap(&mut clk, "u", 32, 8);
        {
            let mut txn = db.begin(&mut clk);
            txn.heap_insert(h2, b"x").unwrap();
            txn.heap_insert(h2, b"y").unwrap();
            txn.commit();
        }
        let meta = db.heap_meta(h);
        let cached_before = db.ssd_manager().unwrap().contains(meta.first);
        // Update the record: the commit dirties the page, invalidating the
        // SSD copy; the Figure-3 invariant (mem==ssd when both) holds.
        {
            let mut txn = db.begin(&mut clk);
            txn.heap_update(h, 0, b"v2");
            txn.commit();
        }
        if cached_before {
            assert!(
                !db.ssd_manager().unwrap().is_dirty(meta.first),
                "DW must never hold a newer-than-disk SSD copy"
            );
        }
        let mut txn = db.begin(&mut clk);
        assert_eq!(&txn.heap_get(h, 0).unwrap()[..2], b"v2");
        txn.commit();
    }

    #[test]
    fn lc_ssd_death_recovers_stranded_dirty_pages_via_wal() {
        use turbopool_core::{SsdConfig, SsdDesign};
        use turbopool_iosim::fault::{FaultConfig, FaultPlan};
        // LazyCleaning is the only design where the SSD can hold the sole
        // current copy of committed data (dirty frames awaiting lazy
        // cleaning). Kill the SSD mid-workload and every committed value
        // must still be readable: the stranded pages are rebuilt from the
        // WAL tail onto disk (Database::salvage).
        let mut cfg = DbConfig::small_for_tests();
        cfg.pool.frames = 2;
        let mut s = SsdConfig::new(SsdDesign::LazyCleaning, 32);
        s.partitions = 1;
        cfg.ssd = Some(s);
        let db = Database::open(cfg);
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 16, 16);
        let mut rids = Vec::new();
        // Enough inserts that committed pages are evicted *dirty* to the
        // SSD (mem_frames = 2 forces constant eviction).
        for i in 0..100u64 {
            let mut txn = db.begin(&mut clk);
            rids.push(txn.heap_insert(h, &i.to_le_bytes()).unwrap());
            assert!(txn.commit().is_committed());
        }
        let dirty_before = db.ssd_manager().unwrap().dirty_count();
        assert!(dirty_before > 0, "LC must be holding dirty SSD frames");
        // The SSD dies.
        let plan = Arc::new(FaultPlan::new(FaultConfig::quiet(42)));
        db.io().set_ssd_fault(Some(Arc::clone(&plan)));
        plan.kill(clk.now);
        // Every committed row is still readable. The first request after
        // death quarantines the SSD; stranded dirty pages are rebuilt from
        // the WAL tail before any read of them can be served from disk.
        let mut txn = db.begin(&mut clk);
        for (i, rid) in rids.iter().enumerate() {
            let rec = txn.heap_get(h, *rid).unwrap();
            assert_eq!(
                u64::from_le_bytes(rec[..8].try_into().unwrap()),
                i as u64,
                "row {i} lost after SSD death"
            );
        }
        assert!(txn.commit().is_committed());
        let m = db.ssd_metrics().unwrap();
        assert_eq!(m.ssd_quarantined, 1);
        assert!(m.salvaged_pages > 0, "expected WAL salvage to run");
        assert_eq!(m.stranded_dirty, dirty_before);
        assert_eq!(db.ssd_manager().unwrap().audit_violations(), 0);
    }

    #[test]
    fn disk_death_poisons_reads_instead_of_serving_fresh_zeroes() {
        use crate::txn::CommitOutcome;
        use turbopool_iosim::fault::{FaultConfig, FaultPlan};
        // A dirty eviction to a dead disk is genuinely unpersistable — but
        // the page must not thereafter classify as never-written and read
        // back as zeroes under a Committed outcome. The IoManager tracks
        // the lost write; the next read touches the dead device, fails,
        // and poisons the transaction.
        let mut cfg = DbConfig::small_for_tests();
        cfg.pool.frames = 2;
        cfg.ssd = None; // noSSD: evictions go straight to disk
        let db = Database::open(cfg);
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 16, 4);
        let mut txn = db.begin(&mut clk);
        let rid = txn.heap_insert(h, &7u64.to_le_bytes()).unwrap();
        assert!(txn.commit().is_committed());

        let plan = Arc::new(FaultPlan::new(FaultConfig::quiet(13)));
        db.io().set_disk_fault(Some(Arc::clone(&plan)));
        plan.kill(clk.now);
        // Churn the 2-frame pool until the committed page's dirty eviction
        // hits the dead disk and is dropped.
        for i in 0..32u64 {
            let mut t = db.begin(&mut clk);
            let _ = t.heap_insert(h, &i.to_le_bytes());
            let _ = t.commit();
        }
        // Reading the committed row must now poison the transaction, not
        // serve zeroes with a Committed outcome.
        let mut txn = db.begin(&mut clk);
        let _ = txn.heap_get(h, rid);
        match txn.commit() {
            CommitOutcome::AbortedIo(e) => assert!(!e.is_transient()),
            CommitOutcome::Committed => {
                panic!("read of an unpersisted page committed after disk death")
            }
        }
    }

    #[test]
    fn commit_redoes_a_page_it_cannot_pin_onto_disk() {
        use turbopool_iosim::fault::{FaultConfig, FaultPlan};
        // Publication pins each written page after the commit record is
        // durable. A page whose pin fails even after the read retries is
        // redone from the log straight onto the disk tier, so the commit
        // stands and the row reads back once the disk answers again.
        let mut cfg = DbConfig::small_for_tests();
        cfg.pool.frames = 2;
        cfg.ssd = None;
        let db = Database::open(cfg);
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 16, 4);
        let meta = db.heap_meta(h);
        let mut txn = db.begin(&mut clk);
        let rid = txn.heap_insert(h, &1u64.to_le_bytes()).unwrap();
        assert!(txn.commit().is_committed());
        db.checkpoint(&mut clk);
        let pid = meta.first.offset(rid / meta.slots_per_page as u64);

        let mut txn = db.begin(&mut clk);
        assert!(txn.heap_update(h, rid, &2u64.to_le_bytes()));
        // Reading another page twice, then a third, pushes the written page
        // out of the two-frame LRU-2 pool before the commit.
        let mut reader = Clk::new();
        for other in [1, 1, 2] {
            drop(
                db.pool()
                    .get(&mut reader, meta.first.offset(other), Locality::Random),
            );
        }
        assert!(!db.pool().contains(pid));
        let mut every_read_fails = FaultConfig::quiet(7);
        every_read_fails.read_error_prob = 1.0;
        db.io()
            .set_disk_fault(Some(Arc::new(FaultPlan::new(every_read_fails))));
        assert!(txn.commit().is_committed());
        assert!(!db.pool().contains(pid), "the pin failed");

        db.io().set_disk_fault(None);
        let mut txn = db.begin(&mut clk);
        let rec = txn.heap_get(h, rid).unwrap();
        assert_eq!(u64::from_le_bytes(rec[..8].try_into().unwrap()), 2);
        assert!(txn.commit().is_committed());
    }
}
