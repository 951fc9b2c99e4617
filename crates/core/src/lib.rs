//! The SSD buffer-pool extension — the paper's primary contribution.
//!
//! An SSD manager sits between the main-memory buffer manager and the disk
//! manager (Figure 1 of *"Turbocharging DBMS Buffer Pool Using SSDs"*,
//! SIGMOD 2011) and caches pages evicted from the memory pool in a
//! page-sized-frame file on the SSD. Three designs differ in how they treat
//! *dirty* evicted pages:
//!
//! * **Clean-write (CW)** — dirty pages are never cached; the SSD only ever
//!   holds copies identical to disk.
//! * **Dual-write (DW)** — dirty pages are written to the SSD *and* the
//!   disk (write-through).
//! * **Lazy-cleaning (LC)** — dirty pages are written only to the SSD; a
//!   background cleaner copies them to disk later (write-back), and the
//!   sharp-checkpoint path must flush SSD-dirty pages.
//!
//! The crate also implements **TAC** (Temperature-Aware Caching, Canim et
//! al., VLDB 2010) as the comparison baseline, with its per-extent
//! temperature admission/replacement, write-on-read page flow and logical
//! invalidation.
//!
//! All §3 machinery is here too: the SSD buffer table / hash table / free
//! list / clean and dirty LRU-2 orders (Figure 4), LRU-2 replacement,
//! the random-only admission policy, aggressive filling (τ), SSD throttle
//! control (μ), multi-page I/O trimming, SSD partitioning (N), and group
//! cleaning (α) with the λ dirty-fraction threshold.
//!
//! The two tiers, [`SsdManager`] (CW/DW/LC) and [`TacCache`], differ in
//! their buffer table and page flow; the device edge they share — retry,
//! error budget and quarantine, the throttle, the invariant auditor, the
//! strand list — is written once, in the private `tier` module. What each
//! design does with a dirty page is one row of the policy table,
//! [`SsdDesign::policy`].

#![forbid(unsafe_code)]
// Static checks on non-test code (DESIGN §7.2); `scripts/check.sh` runs
// clippy with them as errors.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

pub mod audit;
pub mod cleaner;
pub mod coherence;
pub mod config;
pub mod manager;
pub mod metrics;
pub mod partition;
pub mod tac;
mod tier;

pub use audit::{AuditOp, FrameState, InvariantAuditor};
pub use cleaner::LazyCleaner;
pub use coherence::{classify, CoherenceCase, CoherenceViolation};
pub use config::{DirtyEviction, MultiPageMode, Policy, SsdConfig, SsdDesign};
pub use manager::{ImportReport, SsdManager};
pub use metrics::SsdMetrics;
pub use tac::TacCache;
