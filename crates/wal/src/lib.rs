//! Redo-only write-ahead logging with sharp checkpoints.
//!
//! The engine uses commit-time publication: a transaction buffers its page
//! writes privately and, at commit, (1) appends the writes plus a commit
//! record to the log, (2) flushes the log, and (3) only then publishes the
//! writes to buffer-pool pages. Consequently every dirty page in the buffer
//! pool (or in the SSD cache, under the lazy-cleaning design) carries only
//! committed data, and recovery is pure redo: replay the committed page
//! writes found after the last completed sharp checkpoint.
//!
//! Sharp checkpoints (the policy of the paper's host DBMS, §2.3.3) flush
//! *all* dirty pages — from the memory pool and, under LC, from the SSD —
//! before the checkpoint record is written, so the log before the checkpoint
//! is never needed again and is truncated.

#![forbid(unsafe_code)]
// Static checks on non-test code (DESIGN §7.2); `scripts/check.sh` runs
// clippy with them as errors.
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

pub mod log;
pub mod record;
pub mod recovery;
#[cfg(test)]
mod replay_fuzz;

pub use log::{DurableLog, LogManager, Lsn};
pub use record::{DecodeError, LogRecord, LogTail, RecordReader, RecordRef};
pub use recovery::{
    recover, salvage, DirectStore, LogScanReport, RecoveryOutcome, RecoveryStats, RedoStore,
};

/// Transaction identifier.
pub type TxId = u64;
