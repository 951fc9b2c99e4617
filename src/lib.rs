//! # turbopool
//!
//! A from-scratch Rust reproduction of *"Turbocharging DBMS Buffer Pool Using
//! SSDs"* (Do, DeWitt, Zhang, Naughton, Patel, Halverson — SIGMOD 2011): an
//! SSD-resident second-level buffer pool for a page-based storage engine,
//! with the paper's three designs — clean-write (CW), dual-write (DW) and
//! lazy-cleaning (LC) — plus the TAC (Temperature-Aware Caching) comparison
//! baseline, all evaluated on a virtual-time I/O subsystem calibrated to the
//! paper's testbed.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`iosim`] — calibrated device models, virtual clock, backing stores.
//! * [`wal`] — redo-only write-ahead log, sharp checkpoints, recovery.
//! * [`bufpool`] — the main-memory buffer pool (LRU-2) and read-ahead.
//! * [`core`] — the SSD manager: CW/DW/LC designs, TAC, the paper's
//!   admission rule and SSD LRU-2 replacement, and the §3.3 optimizations.
//! * [`engine`] — a mini storage engine (heap files, B+-trees, transactions)
//!   wired on top of the two buffer pools.
//! * [`workload`] — TPC-C/E/H-like workload generators and the
//!   discrete-event driver used by the benchmark harnesses.
//!
//! ## Quickstart
//!
//! ```
//! use turbopool::engine::{Database, DbConfig};
//! use turbopool::core::{SsdConfig, SsdDesign};
//! use turbopool::iosim::Clk;
//!
//! // A small database with a lazy-cleaning SSD cache between the buffer
//! // pool and the disks.
//! let mut cfg = DbConfig::small_for_tests();
//! cfg.ssd = Some(SsdConfig::new(SsdDesign::LazyCleaning, 64));
//! let db = Database::open(cfg);
//! let mut clk = Clk::new();
//!
//! let heap = db.create_heap(&mut clk, "orders", 64, 32);
//! let rid = {
//!     let mut txn = db.begin(&mut clk);
//!     let rid = txn.heap_insert(heap, b"hello world").unwrap();
//!     txn.commit();
//!     rid
//! };
//! let mut txn = db.begin(&mut clk);
//! assert_eq!(&txn.heap_get(heap, rid).unwrap()[..11], b"hello world");
//! txn.commit();
//! ```

#![forbid(unsafe_code)]

pub use turbopool_bufpool as bufpool;
pub use turbopool_core as core;
pub use turbopool_engine as engine;
pub use turbopool_iosim as iosim;
pub use turbopool_wal as wal;
pub use turbopool_workload as workload;
