//! The main-memory buffer pool.
//!
//! This crate provides the first level of the two-level buffer hierarchy:
//! a fixed set of page frames managed with LRU-2 replacement, pin/unpin page
//! guards, dirty tracking, scan read-ahead, and a sharp-checkpoint flush.
//!
//! The pool never talks to devices directly. All traffic below it goes
//! through the [`PageIo`] trait — the seam where the paper's SSD manager
//! (crate `turbopool-core`) interposes between the buffer manager and the
//! disk manager (Figure 1 of the paper). The [`DirectIo`] implementation
//! bypasses the SSD entirely and is the paper's `noSSD` baseline.

#![forbid(unsafe_code)]
// Static checks on non-test code (DESIGN §7.2); `scripts/check.sh` runs
// clippy with them as errors.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

pub mod policy;
pub mod pool;
pub mod readahead;
pub mod traits;

pub use policy::PolicyStats;
pub use pool::{BufferPool, BufferPoolConfig, PageGuard, PoolStats};
pub use readahead::{Classifier, ClassifierKind, ClassifierStats, ScanCursor};
pub use traits::{DirectIo, PageIo};
