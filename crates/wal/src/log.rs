//! The log manager: append, group flush, checkpoint truncation.

use std::sync::Arc;

use turbopool_iosim::sync::Mutex;
use turbopool_iosim::{Clk, IoManager, WriteFate};

use crate::record::LogRecord;

/// Log sequence number: a byte position in the (logical) log stream.
pub type Lsn = u64;

struct LogState {
    /// The log's bytes: the durable prefix `..durable` (survives a
    /// simulated crash), then the appended but unflushed tail (lost on
    /// crash). A flush moves the watermark and copies nothing.
    bytes: Vec<u8>,
    /// Length of the durable prefix of `bytes`.
    durable: usize,
    /// Logical byte offset of `bytes[0]` (grows with truncation).
    base: Lsn,
}

impl LogState {
    fn durable(&self) -> &[u8] {
        &self.bytes[..self.durable]
    }

    /// Drop the unflushed tail: its bytes never reached the device.
    fn lose_tail(&mut self) {
        self.bytes.truncate(self.durable);
    }
}

/// Append-only log with explicit group flush.
///
/// The WAL protocol obligation of the paper's designs (§2.4) — "forcibly
/// flushing the log records for that page to log storage before writing the
/// page to the SSD" — is enforced by the engine calling [`LogManager::flush`]
/// during commit, before any dirty page is published to the buffer pool and
/// hence before it can reach the SSD or the disk.
pub struct LogManager {
    io: Arc<IoManager>,
    state: Arc<Mutex<LogState>>,
}

impl LogManager {
    pub fn new(io: Arc<IoManager>) -> Self {
        LogManager {
            io,
            state: Arc::new(Mutex::new(LogState {
                bytes: Vec::new(),
                durable: 0,
                base: 0,
            })),
        }
    }

    /// Append a record to the unflushed tail; returns the LSN one past the
    /// record (its durability point).
    pub fn append(&self, rec: &LogRecord) -> Lsn {
        let mut st = self.state.lock();
        rec.encode(&mut st.bytes);
        st.base + st.bytes.len() as Lsn
    }

    /// Flush everything appended so far, charging sequential log-device time
    /// to `clk`. Returns true when every pending byte reached the device.
    ///
    /// Under an armed crash switch a flush is a durable-write boundary: it
    /// may be torn (power died mid-flush — all but the final byte persists,
    /// so the chunk's last record decodes as an incomplete torn tail) or
    /// dropped (power already off — nothing persists). Either way the
    /// machine is dead; callers must treat `false` as "this commit (or
    /// checkpoint) did not happen".
    pub fn flush(&self, clk: &mut Clk) -> bool {
        let (nbytes, complete) = {
            let mut st = self.state.lock();
            let pending = st.bytes.len() - st.durable;
            if pending == 0 {
                return true;
            }
            let (keep, complete) = match self.io.log_flush_fate() {
                WriteFate::Persist => (pending, true),
                WriteFate::Torn => (pending - 1, false),
                WriteFate::Dropped => (0, false),
            };
            st.durable += keep;
            // A torn or dropped flush loses the rest with the power.
            st.lose_tail();
            (keep, complete)
        };
        if nbytes > 0 {
            self.io.append_log(clk, nbytes);
        }
        complete
    }

    /// LSN up to which the log is durable.
    pub fn flushed_lsn(&self) -> Lsn {
        let st = self.state.lock();
        st.base + st.durable as Lsn
    }

    /// Bytes currently retained in the durable log (after truncation).
    pub fn durable_len(&self) -> usize {
        self.state.lock().durable
    }

    /// Write a checkpoint record, flush, and truncate everything before it.
    ///
    /// Must only be called after the engine has flushed every dirty page
    /// (memory pool and, under LC, the SSD) — the sharp-checkpoint contract.
    pub fn checkpoint(&self, clk: &mut Clk) {
        self.checkpoint_with(clk, None);
    }

    /// Like [`LogManager::checkpoint`], optionally embedding an extra
    /// record (the SSD buffer table for warm restart) that is retained
    /// together with the checkpoint record across truncation.
    pub fn checkpoint_with(&self, clk: &mut Clk, extra: Option<&LogRecord>) {
        let mut keep = 0usize;
        if let Some(rec) = extra {
            self.append(rec);
            keep += rec.encoded_len();
        }
        self.append(&LogRecord::Checkpoint);
        keep += LogRecord::Checkpoint.encoded_len();
        if !self.flush(clk) {
            // Power died before the checkpoint record was durable: the
            // pre-checkpoint log is still the only redo source and must
            // not be truncated. (The machine is off; recovery will replay
            // from the previous checkpoint.)
            return;
        }
        if self.io.power_lost() {
            // The checkpoint record itself was the last write to persist
            // (crash-schedule cut landed on the flush): the machine is off,
            // and truncation — a separate durable mutation of the log file —
            // can no longer happen. Harmless either way (the sharp-checkpoint
            // contract flushed every dirty page before this flush, so redo
            // from the longer log converges to the same state), but the
            // model should not pretend a powered-off machine rewrote a file.
            return;
        }
        let mut st = self.state.lock();
        let cut = st.durable - keep;
        st.bytes.drain(..cut);
        st.durable -= cut;
        st.base += cut as Lsn;
    }

    /// Fault-injection hook: XOR `mask` into durable byte `byte`, modeling
    /// media corruption of the log file at rest. Returns false (no-op) when
    /// the offset is out of range or the mask is zero.
    pub fn corrupt_durable(&self, byte: usize, mask: u8) -> bool {
        let mut st = self.state.lock();
        if mask == 0 || byte >= st.durable {
            return false;
        }
        st.bytes[byte] ^= mask;
        true
    }

    /// A handle that shares this log's durable state: after a simulated
    /// crash, build a fresh `LogManager` from the handle to model the log
    /// file surviving on its device while all volatile state is lost.
    pub fn durable_handle(&self) -> DurableLog {
        DurableLog {
            state: Arc::clone(&self.state),
        }
    }
}

/// Persistent handle to a log's durable bytes (survives simulated crashes).
#[derive(Clone)]
pub struct DurableLog {
    state: Arc<Mutex<LogState>>,
}

impl DurableLog {
    /// Reconstruct a log manager "after restart": durable bytes are kept,
    /// unflushed bytes are discarded (they never reached the device).
    pub fn reopen(&self, io: Arc<IoManager>) -> LogManager {
        self.state.lock().lose_tail();
        LogManager {
            io,
            state: Arc::clone(&self.state),
        }
    }

    /// Run `f` over the durable bytes in place, for replay. The log latch
    /// is held for the duration of `f`, so `f` must not append to or flush
    /// this log; replaying it onto the database does neither.
    pub fn with_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(self.state.lock().durable())
    }

    /// Log repair after a successful recovery: discard everything past the
    /// last cleanly decoded byte (`valid_len` from the recovery scan), so
    /// that the next incarnation's appends land directly after the last
    /// usable record instead of hiding behind a torn or corrupt region.
    /// Idempotent; a no-op when the log is already clean.
    pub fn truncate_to_valid(&self, valid_len: usize) {
        let mut st = self.state.lock();
        if valid_len < st.durable {
            let durable = st.durable;
            st.bytes.drain(valid_len..durable);
            st.durable = valid_len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbopool_iosim::{DeviceSetup, PageId};

    fn mgr() -> (Arc<IoManager>, LogManager) {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(64, 16, 4)));
        let log = LogManager::new(Arc::clone(&io));
        (io, log)
    }

    #[test]
    fn append_then_flush_becomes_durable() {
        let (io, log) = mgr();
        let mut clk = Clk::new();
        let lsn = log.append(&LogRecord::Commit { txid: 1 });
        assert_eq!(log.flushed_lsn(), 0);
        log.flush(&mut clk);
        assert_eq!(log.flushed_lsn(), lsn);
        assert!(clk.now > 0, "flush must charge log-device time");
        assert_eq!(io.log_stats().write_ops, 1);
    }

    #[test]
    fn flush_moves_the_watermark_in_place() {
        use turbopool_iosim::CrashSwitch;
        let (io, log) = mgr();
        let mut clk = Clk::new();
        let rec = LogRecord::PageWrite {
            txid: 1,
            pid: PageId(1),
            offset: 0,
            data: vec![3; 100],
        };
        let len = rec.encoded_len();
        log.append(&rec);
        let buffer = || {
            let st = log.state.lock();
            (st.durable, st.bytes.len(), st.bytes.as_ptr())
        };
        let (_, _, at) = buffer();
        assert!(log.flush(&mut clk));
        assert_eq!(buffer(), (len, len, at), "persisted: all durable, in place");
        // A torn flush makes all but the last byte durable and a dropped
        // one nothing; either way the rest is gone with the power, and the
        // durable bytes stay where they were appended.
        io.set_crash_switch(Some(Arc::new(CrashSwitch::armed(0, true))));
        log.append(&rec);
        assert!(!log.flush(&mut clk));
        let torn = 2 * len - 1;
        assert_eq!(buffer().0, torn);
        assert_eq!(buffer().1, torn);
        log.append(&rec);
        assert!(!log.flush(&mut clk), "power is off: dropped");
        assert_eq!(buffer().0, torn);
        assert_eq!(buffer().1, torn);
        assert_eq!(log.durable_len(), torn);
    }

    #[test]
    fn flush_of_empty_log_is_free() {
        let (io, log) = mgr();
        let mut clk = Clk::new();
        log.flush(&mut clk);
        assert_eq!(clk.now, 0);
        assert_eq!(io.log_stats().write_ops, 0);
    }

    #[test]
    fn crash_loses_unflushed_tail() {
        let (io, log) = mgr();
        let mut clk = Clk::new();
        log.append(&LogRecord::Commit { txid: 1 });
        log.flush(&mut clk);
        log.append(&LogRecord::Commit { txid: 2 }); // never flushed
        let handle = log.durable_handle();
        drop(log);
        let reopened = handle.reopen(io);
        let out = reopened
            .durable_handle()
            .with_bytes(crate::record::decode_all);
        assert_eq!(out.records, vec![LogRecord::Commit { txid: 1 }]);
        assert!(!out.tail.is_damaged());
    }

    #[test]
    fn checkpoint_truncates_history() {
        let (_io, log) = mgr();
        let mut clk = Clk::new();
        for i in 0..100 {
            log.append(&LogRecord::PageWrite {
                txid: i,
                pid: PageId(i),
                offset: 0,
                data: vec![0; 32],
            });
            log.append(&LogRecord::Commit { txid: i });
        }
        log.flush(&mut clk);
        let before = log.durable_len();
        log.checkpoint(&mut clk);
        assert!(log.durable_len() < before);
        let out = log.durable_handle().with_bytes(crate::record::decode_all);
        assert_eq!(out.records, vec![LogRecord::Checkpoint]);
        // LSNs keep increasing across truncation.
        let lsn = log.append(&LogRecord::Commit { txid: 999 });
        assert!(lsn > before as Lsn);
    }

    #[test]
    fn torn_flush_leaves_a_clean_torn_tail() {
        use turbopool_iosim::CrashSwitch;
        let (io, log) = mgr();
        let mut clk = Clk::new();
        log.append(&LogRecord::Commit { txid: 1 });
        assert!(log.flush(&mut clk));
        // Arm the switch to tear the next log flush (boundary 0).
        io.set_crash_switch(Some(Arc::new(CrashSwitch::armed(0, true))));
        log.append(&LogRecord::PageWrite {
            txid: 2,
            pid: PageId(3),
            offset: 0,
            data: vec![7; 8],
        });
        log.append(&LogRecord::Commit { txid: 2 });
        assert!(!log.flush(&mut clk), "torn flush must report incomplete");
        io.set_crash_switch(None);
        let out = log.durable_handle().with_bytes(crate::record::decode_all);
        // The final record (txn 2's commit) lost its last byte: txn 2 did
        // not commit, and the damage reads as a torn tail, not corruption.
        assert_eq!(out.records.len(), 2, "commit{{1}} + pagewrite{{2}}");
        assert!(matches!(out.tail, crate::record::LogTail::Torn { .. }));
    }

    #[test]
    fn dropped_flush_persists_nothing() {
        use turbopool_iosim::CrashSwitch;
        let (io, log) = mgr();
        let mut clk = Clk::new();
        // Fire at boundary 0 (a disk write, say); flushes after that drop.
        let sw = Arc::new(CrashSwitch::armed(0, false));
        io.set_crash_switch(Some(Arc::clone(&sw)));
        sw.on_write(turbopool_iosim::BoundaryKind::DiskPage);
        assert!(sw.fired());
        log.append(&LogRecord::Commit { txid: 5 });
        assert!(!log.flush(&mut clk));
        io.set_crash_switch(None);
        assert_eq!(log.durable_len(), 0);
        assert_eq!(io.log_stats().write_ops, 0);
    }

    #[test]
    fn corrupt_then_truncate_repairs_the_log() {
        let (_io, log) = mgr();
        let mut clk = Clk::new();
        log.append(&LogRecord::Commit { txid: 1 });
        log.flush(&mut clk);
        let clean_len = log.durable_len();
        log.append(&LogRecord::Commit { txid: 2 });
        log.flush(&mut clk);
        assert!(log.corrupt_durable(clean_len + 2, 0x10));
        let out = log.durable_handle().with_bytes(crate::record::decode_all);
        assert_eq!(out.records, vec![LogRecord::Commit { txid: 1 }]);
        assert!(out.tail.is_damaged());
        assert_eq!(out.valid_len, clean_len);
        // Repair: drop the damaged region; the log decodes clean again.
        log.durable_handle().truncate_to_valid(out.valid_len);
        let out = log.durable_handle().with_bytes(crate::record::decode_all);
        assert_eq!(out.records, vec![LogRecord::Commit { txid: 1 }]);
        assert!(!out.tail.is_damaged());
        // Out-of-range / zero-mask corruption requests are no-ops.
        assert!(!log.corrupt_durable(10_000, 0x01));
        assert!(!log.corrupt_durable(0, 0));
    }
}
