//! A mini page-based storage engine.
//!
//! This crate is the substrate that stands in for the paper's host DBMS
//! (SQL Server 2008 R2): heap files, B+-tree indexes, transactions with a
//! redo-only write-ahead log, sharp checkpoints, crash recovery, and table
//! scans driven by the buffer pool's read-ahead — everything the SSD
//! buffer-pool designs need to exercise their interesting paths.
//!
//! Concurrency model: transaction bodies execute as atomic steps of the
//! discrete-event driver (one logical client at a time), so transactions
//! are trivially serializable and no lock manager is modeled — the paper's
//! subject is buffer management, not concurrency control. A transaction
//! buffers its writes privately (read-your-writes via an overlay) and
//! publishes them at commit after the log flush, which makes every dirty
//! page committed-only and recovery pure redo.

#![forbid(unsafe_code)]
// Static checks on non-test code (DESIGN §7.2); `scripts/check.sh` runs
// clippy with them as errors.
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]

pub mod btree;
pub mod config;
pub mod db;
pub mod explorer;
pub mod heap;
pub mod loader;
pub mod txn;

pub use config::DbConfig;
pub use db::{CrashImage, Database, HeapId, IndexId, RecoveryError, RecoveryReport};
pub use explorer::{explore, ExplorerConfig, ExplorerOutcome};
pub use loader::{bulk_load_heap, bulk_load_index};
pub use txn::{CommitOutcome, PageMut, Txn};
