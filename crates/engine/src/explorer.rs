//! One fault-and-crash harness: every crash, fault and restart test runs
//! from one op list, one recovery loop and two oracles.
//!
//! A trace is data, a `Vec<`[`Op`]`>` resolved from a seed beforehand, so
//! replay consumes no randomness. [`Rig`] builds the database; [`run`]
//! applies a trace and verifies at every crash; [`explore_ops`] numbers its
//! durable-write boundaries (disk pages, SSD frames, log flushes) with a
//! recording [`CrashSwitch`] and replays it once per boundary with power
//! failing after that write and, torn, during it, on a stride again during
//! recovery; [`twin`] runs it with and without its fault plans.
//!
//! Every reboot goes through one recovery loop ([`Run::reboot`]): an `Err`
//! re-enters with the image it hands back, and an `Ok` on a machine whose
//! power failed on recovery's last write crashes and recovers again. Then
//! two properties hold: a torn tail is truncated without being reported as
//! damage, and crashing the just-recovered database with no new ops
//! recovers the same disk image with a `Clean` tail. Two oracles judge what
//! survived:
//!
//! * (a) **Commit attribution.** A transaction is durable iff its commit
//!   log flush persisted: a cut at boundary `k` keeps the op whose commit
//!   flush is boundary `f` iff `f <= k`, or `f < k` when the cut write is
//!   torn (its commit record never decodes). The durable set is a prefix
//!   and the expected state a fold over it; an uncut crash keeps all.
//! * (b) **After WAL corruption** heap and index pages roll back
//!   independently past the damage (an eviction may have written one side
//!   already). Every surviving rid must hold a value it held at a commit,
//!   no rid outside the inserted set may appear, and any loss against (a)
//!   must be reported (`is_damaged()` or a `Torn` tail); the run then
//!   re-baselines on the survivor.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use turbopool_core::metrics::SsdMetricsSnapshot;
use turbopool_core::SsdConfig;
use turbopool_iosim::fault::{self, FaultConfig, FaultPlan};
use turbopool_iosim::rng::{Rng, SeedableRng, SmallRng};
use turbopool_iosim::{BoundaryCounts, Clk, CrashSwitch, IoManager, PageBuf, PageId};
use turbopool_iosim::{MILLISECOND, SECOND};
use turbopool_wal::LogTail;

use crate::config::DbConfig;
use crate::db::{CrashImage, Database, HeapId, IndexId, RecoveryReport};
use crate::heap::Rid;
use crate::txn::Txn;

/// One step of a trace. Record ops name their target as the `n`-th live
/// record in rid order (modulo the live count; a no-op while none is live),
/// so a trace stays meaningful whatever an earlier crash rolled back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Insert a record holding the value, and its index entry if any.
    Insert(u64),
    /// `Update(n, val)`: overwrite the `n`-th live record with `val`.
    Update(u64, u64),
    /// Delete the `n`-th live record and its index entry.
    Delete(u64),
    /// Read the `n`-th live record, which must hold its committed value.
    Read(u64),
    /// Insert a record, then abort: it must never surface.
    AbortedInsert,
    /// Sharp checkpoint.
    Checkpoint,
    /// Attach a fault plan at the current virtual time.
    Arm(Fault),
    /// Power failure, then recovery.
    Crash,
    /// Power failure, and again after recovery's `k`-th durable write.
    CrashDuringRecovery(u64),
    /// `CorruptWal(byte, mask)`: XOR `mask | 1` into a durable WAL byte
    /// (modulo the log's length), then crash; judged by oracle (b).
    CorruptWal(u32, u8),
    /// Crash, damage up to four occupied SSD frames while the power is off
    /// ([`damage_frames`]), recover: no damaged frame may be re-adopted.
    Rot(Damage, u32),
}

/// A fault plan to arm. The first plan armed on a device stays for the run
/// and survives crashes (the device does); later ones are no-ops, except
/// `Death`, which kills whatever plan the SSD has.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Transient SSD read and write errors at this rate: hits lost, no data.
    Transient(f64),
    /// Transient disk read and write errors at this rate, retried away.
    DiskTransient(f64),
    /// SSD writes persisting only a prefix, at this rate.
    TornWrites(f64),
    /// SSD writes landing with one bit flipped, at this rate.
    BitFlips(f64),
    /// 50 ms windows of 5–50× slower SSD service every 200 ms for 10 s.
    Brownout,
    /// The SSD dies.
    Death,
}

/// What [`damage_frames`] does to a frame at rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    /// One bit flipped: the frame's checksum no longer matches.
    BitFlip,
    /// The first half overwritten by another frame's, as a torn write.
    TornPrefix,
    /// Rewritten, checksummed, with another frame's page and tag.
    Retag,
}

/// The machine every trace runs on.
#[derive(Debug, Clone)]
pub struct Rig {
    /// DRAM pool frames.
    pub frames: usize,
    /// Database pages; the heap takes half, the index extent a quarter.
    pub db_pages: u64,
    /// SSD design under test; `None` is the noSSD baseline.
    pub ssd: Option<SsdConfig>,
    /// Record size in bytes; a record's first eight bytes hold its value.
    pub record: usize,
    /// Whether inserts and deletes also maintain an index.
    pub index: bool,
    /// Seed of every fault plan the trace arms.
    pub seed: u64,
}

impl Rig {
    /// No index, seed 0, and 200-byte records: every insert opens a fresh
    /// test page, so a short trace overflows a small pool.
    pub fn new(frames: usize, db_pages: u64, ssd: Option<SsdConfig>) -> Rig {
        Rig {
            frames,
            db_pages,
            ssd,
            record: 200,
            index: false,
            seed: 0,
        }
    }

    /// A fresh database with the rig's heap and index.
    pub fn open(&self) -> (Database, HeapId, Option<IndexId>) {
        let mut cfg = DbConfig::small_for_tests();
        cfg.pool.db_pages = self.db_pages;
        cfg.pool.frames = self.frames;
        cfg.ssd = self.ssd.clone();
        let db = Database::open(cfg);
        let mut clk = Clk::new();
        let heap = db.create_heap(&mut clk, "t", self.record, self.db_pages / 2);
        let pages = self.db_pages / 4;
        let index = self.index.then(|| db.create_index(&mut clk, "pk", pages));
        (db, heap, index)
    }
}

/// A committed record op: the rid and its new value (`None`: deleted).
type Effect = (Rid, Option<u64>);

/// Committed state, as the oracles see it.
#[derive(Debug, Clone, Default)]
struct Model {
    /// Every live record's value.
    vals: BTreeMap<Rid, u64>,
    /// Every value each inserted rid has held at a commit.
    history: BTreeMap<Rid, BTreeSet<u64>>,
    /// Rids whose index entry WAL damage rolled back (oracle (b)). Rids
    /// are never reused, so no later op can restore one.
    unindexed: BTreeSet<Rid>,
}

impl Model {
    fn apply(&mut self, (rid, val): Effect) {
        self.vals.remove(&rid);
        if let Some(val) = val {
            self.vals.insert(rid, val);
            self.history.entry(rid).or_default().insert(val);
        }
    }
}

/// Oracle (a) under a cut: fold the effects whose commit flush persisted
/// (the cut write itself persists unless torn).
fn durable_state(effects: &[(Option<u64>, Effect)], cut: u64, torn: bool) -> Model {
    let mut model = Model::default();
    for &(flush, effect) in effects {
        if flush.is_some_and(|f| f < cut || (f == cut && !torn)) {
            model.apply(effect);
        }
    }
    model
}

fn up(db: &Option<Database>) -> &Database {
    db.as_ref().expect("the machine is up")
}

fn value(rec: &[u8]) -> u64 {
    u64::from_le_bytes(rec[..8].try_into().expect("records hold a u64"))
}

fn key(rid: Rid) -> u64 {
    rid * 2 + 1
}

/// A live database running a trace, with the model the oracles check it
/// against.
pub struct Run {
    rig: Rig,
    db: Option<Database>,
    pub heap: HeapId,
    index: Option<IndexId>,
    clk: Clk,
    model: Model,
    /// Every committed effect with the boundary number of its commit flush
    /// (`None` without a crash switch).
    effects: Vec<(Option<u64>, Effect)>,
    /// Recoveries run, each counted once however often power failed in it.
    pub recoveries: u64,
    /// Of those, the ones that classified damage: a `Torn` or `Corrupt`
    /// tail, a rejected checkpoint, or warm-import frames rejected by
    /// checksum or staleness.
    pub classified: u64,
}

impl Run {
    pub fn new(rig: &Rig) -> Run {
        let (db, heap, index) = rig.open();
        Run {
            rig: rig.clone(),
            db: Some(db),
            heap,
            index,
            clk: Clk::new(),
            model: Model::default(),
            effects: Vec::new(),
            recoveries: 0,
            classified: 0,
        }
    }

    fn with_switch(rig: &Rig, switch: CrashSwitch) -> (Run, Arc<CrashSwitch>) {
        let (run, switch) = (Run::new(rig), Arc::new(switch));
        run.db().io().set_crash_switch(Some(Arc::clone(&switch)));
        (run, switch)
    }

    pub fn db(&self) -> &Database {
        up(&self.db)
    }

    /// The `n`-th live record.
    fn live(&self, n: u64) -> Option<Rid> {
        let len = self.model.vals.len() as u64;
        (len > 0).then(|| self.model.vals.keys().nth((n % len) as usize).copied())?
    }

    fn record(&self, val: u64) -> Vec<u8> {
        let mut rec = vec![0u8; self.rig.record];
        rec[..8].copy_from_slice(&val.to_le_bytes());
        rec
    }

    /// Run `body` in one transaction and account for what it committed.
    /// Faults must be absorbed: only a power failure may abort a commit.
    fn txn(&mut self, body: impl FnOnce(&mut Txn, HeapId, Option<IndexId>) -> Option<Effect>) {
        let mut txn = up(&self.db).begin(&mut self.clk);
        let effect = body(&mut txn, self.heap, self.index);
        let committed = txn.commit().is_committed();
        let io = self.db().io();
        assert!(committed || io.power_lost(), "a commit aborted");
        if let (true, Some(effect)) = (committed, effect) {
            let flush = io.crash_switch().and_then(|sw| sw.last_log_flush_seq());
            self.effects.push((flush, effect));
            self.model.apply(effect);
        }
    }

    pub fn steps(&mut self, ops: impl IntoIterator<Item = Op>) {
        for op in ops {
            self.step(op);
        }
    }

    pub fn step(&mut self, op: Op) {
        let target = match op {
            Op::Update(n, _) | Op::Delete(n) | Op::Read(n) => match self.live(n) {
                Some(rid) => rid,
                None => return,
            },
            _ => 0,
        };
        match op {
            Op::Insert(val) => {
                let rec = self.record(val);
                self.txn(|txn, heap, index| {
                    let rid = txn.heap_insert(heap, &rec).expect("heap has room");
                    if let Some(idx) = index {
                        txn.index_insert(idx, key(rid), rid);
                    }
                    Some((rid, Some(val)))
                });
            }
            Op::Update(_, val) => {
                let rec = self.record(val);
                self.txn(|txn, heap, _| {
                    txn.heap_update(heap, target, &rec);
                    Some((target, Some(val)))
                });
            }
            Op::Delete(_) => self.txn(|txn, heap, index| {
                txn.heap_delete(heap, target);
                if let Some(idx) = index {
                    txn.index_delete(idx, key(target));
                }
                Some((target, None))
            }),
            Op::Read(_) => {
                let want = self.model.vals.get(&target).copied();
                self.txn(|txn, heap, _| {
                    let got = txn.heap_get(heap, target).map(|rec| value(&rec));
                    assert!(txn.poisoned().is_some() || got == want, "rid {target}");
                    None
                });
            }
            Op::AbortedInsert => {
                let rec = vec![0xFF; self.rig.record];
                let mut txn = up(&self.db).begin(&mut self.clk);
                txn.heap_insert(self.heap, &rec).expect("heap has room");
                txn.abort();
            }
            Op::Checkpoint => {
                up(&self.db).checkpoint(&mut self.clk);
            }
            Op::Arm(f) => self.arm(f),
            Op::Crash => {
                self.reboot(|_| {});
                self.verify();
            }
            Op::CrashDuringRecovery(k) => {
                let sw = Arc::new(CrashSwitch::armed(k, false));
                self.reboot(|image| image.io().set_crash_switch(Some(sw)));
                self.verify();
            }
            Op::CorruptWal(byte, mask) => {
                let len = self.db().log().durable_len();
                if len > 0 {
                    self.db().corrupt_log(byte as usize % len, mask | 1);
                    let report = self.reboot(|_| {});
                    self.judge_survivor(&report);
                }
            }
            Op::Rot(damage, salt) => {
                let mut hit = Vec::new();
                self.reboot(|image| hit = damage_frames(image.io(), damage, salt, 4));
                if let Some(m) = self.db().ssd_manager() {
                    for (frame, pid) in hit {
                        assert_ne!(m.frame_of(pid), Some(frame), "{pid} re-adopted");
                    }
                }
                self.verify();
            }
        }
    }

    fn arm(&self, f: Fault) {
        let (seed, now, io) = (self.rig.seed, self.clk.now, self.db().io());
        let plan = |cfg| Some(Arc::new(FaultPlan::new(cfg)));
        let mut cfg = FaultConfig::quiet(seed);
        match f {
            Fault::DiskTransient(p) => {
                if io.disk_fault().is_none() {
                    io.set_disk_fault(plan(FaultConfig::transient(seed, p)));
                }
                return;
            }
            Fault::Transient(p) => cfg = FaultConfig::transient(seed ^ 0xDEAD, p),
            Fault::TornWrites(p) => cfg.torn_write_prob = p,
            Fault::BitFlips(p) => cfg.bitflip_prob = p,
            Fault::Brownout => {
                let (every, stall) = (200 * MILLISECOND, 50 * MILLISECOND);
                cfg = FaultConfig::brownout_train(seed, now, now + 10 * SECOND, every, stall, 25);
            }
            Fault::Death => {}
        }
        if io.ssd_fault().is_none() {
            io.set_ssd_fault(plan(cfg));
        }
        if f == Fault::Death {
            io.ssd_fault().expect("armed above").kill(now);
        }
    }

    /// Crash, run `at_rest` on the powered-off machine, recover through
    /// the one recovery loop and check the two recovery properties.
    /// Returns the report of the recovery the crash needed.
    pub fn reboot(&mut self, at_rest: impl FnOnce(&CrashImage)) -> RecoveryReport {
        let armed = self.db().io().crash_switch().is_some();
        assert!(!armed, "the cut is the crash");
        let image = self.db.take().expect("the machine is up").crash();
        at_rest(&image);
        let (db, report, ..) = recover(image);
        self.db = Some(db);
        self.clk = Clk::new();
        let (log, warm) = (report.log, report.warm.unwrap_or_default());
        let rejected = warm.rejected_checksum + warm.rejected_stale + log.checkpoints_rejected;
        self.recoveries += 1;
        self.classified += u64::from(log.tail != LogTail::Clean || rejected > 0);
        report
    }

    /// Oracle (a) against the model, on the live database.
    pub fn verify(&self) {
        verify(self.db(), self, &self.model.vals, "run");
    }

    /// Every record the heap holds, by rid.
    fn readback(&mut self) -> BTreeMap<Rid, u64> {
        let mut got = BTreeMap::new();
        let db = up(&self.db);
        let scan = db.scan_heap(&mut self.clk, self.heap, |rid, rec| {
            got.insert(rid, value(rec));
        });
        scan.expect("disk is up");
        got
    }

    /// Oracle (b), after a recovery from WAL corruption.
    fn judge_survivor(&mut self, report: &RecoveryReport) {
        let got = self.readback();
        for (rid, val) in &got {
            let held = self.model.history.get(rid).is_some_and(|h| h.contains(val));
            assert!(held, "rid {rid} surfaced {val:#x}, never committed there");
        }
        if !report.is_damaged() && !matches!(report.log.tail, LogTail::Torn { .. }) {
            assert!(got == self.model.vals, "silent rollback: {report:?}");
            return self.verify();
        }
        // Re-baseline on the survivor; re-probe which rids kept their
        // index entry.
        self.model.vals = got;
        if let Some(idx) = self.index {
            let mut txn = up(&self.db).begin(&mut self.clk);
            let lost = |&rid: &Rid| txn.index_get(idx, key(rid)) != Some(rid);
            self.model.unindexed = self.model.vals.keys().copied().filter(lost).collect();
            txn.commit();
        }
    }
}

/// Apply `ops` to a fresh database from `rig`, then verify it live.
pub fn run(rig: &Rig, ops: &[Op]) -> Run {
    let mut run = Run::new(rig);
    run.steps(ops.iter().copied());
    run.verify();
    run
}

/// Run `ops` without and then with its `Arm` ops, and require both to read
/// back the same committed state. Returns (fault-free, faulted).
pub fn twin(rig: &Rig, ops: &[Op]) -> (Run, Run) {
    let mut clean = ops.to_vec();
    clean.retain(|op| !matches!(op, Op::Arm(_)));
    let (mut a, mut b) = (run(rig, &clean), run(rig, ops));
    assert!(a.readback() == b.readback(), "faults changed the state");
    (a, b)
}

/// Damage up to `max` occupied SSD frames of a powered-off machine, taking
/// them in frame order from `salt`. Returns each damaged frame with the
/// page it cached.
pub fn damage_frames(io: &IoManager, damage: Damage, salt: u32, max: usize) -> Vec<(u64, PageId)> {
    let n = io.ssd_frames();
    let occupied: Vec<(u64, PageId)> = (0..n)
        .map(|i| (u64::from(salt) + i) % n)
        .filter_map(|f| io.ssd_tag(f).map(|pid| (f, pid)))
        .collect();
    let store = io.ssd_store();
    let mut hit = Vec::new();
    for (i, &(frame, pid)) in occupied.iter().enumerate().take(max) {
        let (donor, donor_pid) = occupied[(i + 1) % occupied.len()];
        let (old, other) = (store.read_buf(PageId(frame)), store.read_buf(PageId(donor)));
        let mut new = old.to_vec();
        let half = new.len() / 2;
        match damage {
            Damage::BitFlip => new[salt as usize % half] ^= 0x10,
            Damage::TornPrefix => new[..half].copy_from_slice(&other[..half]),
            Damage::Retag if donor != frame => {
                let mut clk = Clk::new();
                let rewritten = io.write_ssd_sync(&mut clk, frame, &other[..], donor_pid);
                if rewritten.is_ok() {
                    hit.push((frame, pid));
                }
                continue;
            }
            Damage::Retag => continue,
        }
        if new[..] != old[..] {
            store.write(PageId(frame), &new);
            hit.push((frame, pid));
        }
    }
    hit
}

/// The one recovery loop, then the two recovery properties. Returns the
/// database and what the loop returned for the crash.
fn recover(image: CrashImage) -> (Database, RecoveryReport, u32, bool) {
    let (db, report, attempts, interrupted) = reboot_until_converged(image);
    let log = report.log;
    // What follows the valid prefix — a torn tail or a corrupt region — is
    // cut off, and only a corrupt one counts as damage.
    assert_eq!(db.log().durable_len(), log.valid_len, "tail kept");
    let clean = log.tail == LogTail::Clean;
    assert_eq!(clean, log.valid_len == log.log_bytes, "{report:?}");
    assert!(!(matches!(log.tail, LogTail::Torn { .. }) && report.is_damaged()));
    // Replay is idempotent: recovering the just-recovered database again
    // finds a clean log and leaves the disk as it was.
    let disk = |db: &Database| -> Vec<PageBuf> {
        let store = db.io().disk_store();
        (0..store.num_pages())
            .map(|p| store.read_buf(PageId(p)))
            .collect()
    };
    let before = disk(&db);
    let (db, again, ..) = reboot_until_converged(db.crash());
    let again = (again.log.tail, again.log.valid_len);
    assert_eq!(again, (LogTail::Clean, log.valid_len), "replayed twice");
    assert!(disk(&db) == before, "a second recovery changed the disk");
    (db, report, attempts, interrupted)
}

/// Re-enter recovery until it completes on a powered machine. Returns the
/// database, its report, the attempts taken and whether power failed
/// during recovery.
fn reboot_until_converged(mut image: CrashImage) -> (Database, RecoveryReport, u32, bool) {
    let mut attempts = 0u32;
    let mut interrupted = false;
    loop {
        attempts += 1;
        assert!(attempts <= 10, "recovery did not converge");
        match Database::try_recover(image) {
            // Power died on recovery's last write: crash and go again.
            Ok((db, _)) if db.io().power_lost() => {
                interrupted = true;
                db.io().set_crash_switch(None);
                image = db.crash();
            }
            Ok((db, report)) => {
                db.io().set_crash_switch(None);
                return (db, report, attempts, interrupted);
            }
            // Mid-redo failure: the image comes back; power returns.
            Err(e) => {
                interrupted = true;
                image = e.image;
                image.io().set_crash_switch(None);
            }
        }
    }
}

/// Oracle (a): every rid `known` ever inserted reads back as `expected`
/// says (absent when not there), with its index entry unless WAL damage
/// exempted it, and no other rid appears. Returns a digest of the values.
fn verify(db: &Database, run: &Run, expected: &BTreeMap<Rid, u64>, ctx: &str) -> u64 {
    let (known, heap, index) = (&run.model, run.heap, run.index);
    let mut clk = Clk::new();
    let mut txn = db.begin(&mut clk);
    let mut values = Vec::with_capacity(known.history.len());
    for &rid in known.history.keys() {
        let got = txn.heap_get(heap, rid).map(|rec| value(&rec));
        let want = expected.get(&rid).copied();
        assert_eq!(got, want, "{ctx}: rid {rid} (None = absent)");
        if let (Some(idx), Some(_), false) = (index, want, known.unindexed.contains(&rid)) {
            assert_eq!(txn.index_get(idx, key(rid)), Some(rid), "{ctx}: index");
        }
        values.push(got);
    }
    assert!(txn.poisoned().is_none(), "{ctx}: I/O errors");
    txn.commit();
    let known_rid = |rid, _: &[u8]| assert!(known.history.contains_key(&rid), "{ctx}: phantom");
    db.scan_heap(&mut clk, heap, known_rid).expect("disk is up");
    fault::checksum(format!("{values:?}").as_bytes())
}

/// The default trace to explore. `ssd: None` is the noSSD baseline.
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// SSD design under test (admission/cleaning policy, warm restart…).
    pub ssd: Option<SsdConfig>,
    /// Trace length in operations (inserts/updates/reads/checkpoints).
    pub ops: usize,
    /// Trace seed.
    pub seed: u64,
    /// Take a checkpoint every this many operations (0 = never).
    pub checkpoint_every: usize,
    /// Explore every `cut_stride`-th boundary (1 = exhaustive).
    pub cut_stride: u64,
    /// Every this many cuts, additionally interrupt recovery itself with a
    /// second armed switch (0 = no double-crash schedules).
    pub double_crash_stride: u64,
}

impl ExplorerConfig {
    /// Defaults sized for an exhaustive sweep that stays test-suite cheap.
    pub fn new(ssd: Option<SsdConfig>) -> Self {
        ExplorerConfig {
            ssd,
            ops: 32,
            seed: 0x5EED_CA55,
            checkpoint_every: 10,
            cut_stride: 1,
            double_crash_stride: 8,
        }
    }

    /// The rig the default trace runs on: a 6-frame pool over 512 pages,
    /// so the boundary stream mixes evictions, re-read misses and SSD
    /// admissions between the commit flushes instead of being all-log.
    pub fn rig(&self) -> Rig {
        let mut rig = Rig::new(6, 512, self.ssd.clone());
        rig.seed = self.seed;
        rig
    }

    /// The default trace: inserts, and updates and reads of uniformly
    /// chosen earlier records (pages fall out of the pool and come back as
    /// the misses that drive SSD admissions), with a checkpoint every
    /// `checkpoint_every` ops. Values are unique, naming their writer.
    pub fn trace(&self) -> Vec<Op> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut inserted: u64 = 0;
        let mut op = |i: usize| {
            if self.checkpoint_every != 0 && i > 0 && i.is_multiple_of(self.checkpoint_every) {
                return Op::Checkpoint;
            }
            let val = ((i as u64 + 1) << 20) | rng.gen_range(0u64..1 << 20);
            let r: f64 = rng.gen();
            if inserted == 0 || r < 0.45 {
                inserted += 1;
                Op::Insert(val)
            } else if r < 0.70 {
                Op::Update(rng.gen_range(0..inserted), val)
            } else {
                Op::Read(rng.gen_range(0..inserted))
            }
        };
        (0..self.ops).map(&mut op).collect()
    }
}

/// What an exploration sweep covered and concluded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExplorerOutcome {
    /// Durable-write boundaries the recording run observed.
    pub boundaries: u64,
    /// The same, broken down by kind.
    pub counts: BoundaryCounts,
    /// Boundaries the recording run had passed when it armed its first
    /// fault plan (`None`: the trace arms none).
    pub first_fault_at: Option<u64>,
    /// The recording run's SSD counters at the end of the trace.
    pub ssd: Option<SsdMetricsSnapshot>,
    /// Crash schedules replayed, recovered, and verified: a persist and a
    /// torn one per cut.
    pub schedules_run: u64,
    /// Schedules whose recovery a second switch interrupted, so that it
    /// had to re-enter.
    pub double_crash_interrupted: u64,
    /// Order-sensitive fold of every schedule's recovered values and
    /// recovery report — bit-identical across reruns of the same config.
    pub fingerprint: u64,
}

/// Explore the default trace of `cfg`.
pub fn explore(cfg: &ExplorerConfig) -> ExplorerOutcome {
    let (cut, double) = (cfg.cut_stride, cfg.double_crash_stride);
    explore_ops(&cfg.rig(), &cfg.trace(), cut, double)
}

/// Crash `ops` at every `cut_stride`-th durable-write boundary, in the
/// persist and the torn variant, and every `double_stride`-th cut (0 =
/// never) again during recovery; verify each schedule with oracle (a),
/// and that no pure power failure lost data. The trace must not crash on
/// its own: the cut is its crash.
pub fn explore_ops(rig: &Rig, ops: &[Op], cut_stride: u64, double_stride: u64) -> ExplorerOutcome {
    let (mut rec, sw) = Run::with_switch(rig, CrashSwitch::recorder());
    let mut first_fault_at = None;
    for &op in ops {
        if matches!(op, Op::Arm(_)) {
            first_fault_at.get_or_insert(sw.boundaries());
        }
        rec.step(op);
    }
    assert!(sw.boundaries() > 0, "the trace made no durable writes");
    let mut out = ExplorerOutcome {
        boundaries: sw.boundaries(),
        counts: sw.counts(),
        first_fault_at,
        ssd: rec.db().ssd_metrics(),
        ..ExplorerOutcome::default()
    };
    for cut in (0..out.boundaries).step_by(cut_stride.max(1) as usize) {
        for torn in [false, true] {
            let double = double_stride != 0 && cut % double_stride == 0;
            let (mut run, sw) = Run::with_switch(rig, CrashSwitch::armed(cut, torn));
            for &op in ops.iter().take_while(|_| !sw.fired()) {
                run.step(op);
            }
            assert!(sw.fired(), "replay diverged: cut {cut} never fired");
            let image = run.db.take().expect("the machine is up").crash();
            // A doomed reboot: a second switch over recovery's own writes,
            // its depth varied with the cut.
            let inner = double.then(|| Arc::new(CrashSwitch::armed(1 + cut % 4, false)));
            image.io().set_crash_switch(inner);
            let (db, report, attempts, interrupted) = recover(image);
            out.schedules_run += 1;
            out.double_crash_interrupted += u64::from(interrupted);
            // A power failure never corrupts the log mid-stream.
            assert!(!report.is_damaged(), "cut {cut} lost data: {report:?}");
            let expected = durable_state(&rec.effects, cut, torn).vals;
            let ctx = format!("schedule cut={cut} torn={torn}");
            let values = verify(&db, &rec, &expected, &ctx);
            // The schedule's identity, its recovered values, its report.
            let digest = format!("{ctx} {attempts} {values} {report:?}");
            out.fingerprint = out.fingerprint.rotate_left(7) ^ fault::checksum(digest.as_bytes());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbopool_core::SsdDesign;

    fn tiny(ssd: Option<SsdConfig>) -> ExplorerConfig {
        ExplorerConfig {
            ops: 10,
            checkpoint_every: 4,
            cut_stride: 7,
            double_crash_stride: 14,
            ..ExplorerConfig::new(ssd)
        }
    }

    #[test]
    fn oracle_is_a_prefix_fold() {
        let effects = [(2, 0, 10), (5, 1, 20), (9, 0, 30), (12, 2, 40)]
            .map(|(flush, rid, val)| (Some(flush), (rid, Some(val))));
        let at = |cut, torn| Vec::from_iter(durable_state(&effects, cut, torn).vals);
        // Cut after the update's flush but before the last insert's.
        assert_eq!(at(9, false), [(0, 30), (1, 20)]);
        // Torn at the update's own flush: the update is not durable.
        assert_eq!(at(9, true), [(0, 10), (1, 20)]);
        // Before anything.
        assert_eq!(at(1, false), []);
    }

    #[test]
    fn tiny_sweep_verifies_nossd() {
        let out = explore(&tiny(None));
        assert!(out.schedules_run > 0 && out.counts.log_flushes > 0);
    }

    #[test]
    fn tiny_sweep_is_deterministic() {
        let cfg = tiny(Some(SsdConfig::new(SsdDesign::LazyCleaning, 32)));
        assert_eq!(explore(&cfg), explore(&cfg), "same config, same sweep");
    }
}
