//! Workload generators and the discrete-event driver.
//!
//! This crate turns the storage stack into a benchmarkable system: a
//! deterministic earliest-clock-first driver multiplexes logical clients
//! (transaction streams, the checkpointer, the LC cleaner thread) over
//! virtual time, and three TPC-like generators reproduce the workload
//! properties the paper's evaluation depends on:
//!
//! * **TPC-C-lite** — update-intensive, highly skewed OLTP (tpmC);
//! * **TPC-E-lite** — read-intensive, broad-working-set OLTP (tpsE);
//! * **TPC-H-lite** — scan-dominated DSS with index-lookup queries, power
//!   and throughput tests (QphH).
//!
//! All scenario sizes are the paper's divided by [`scenario::SCALE`], and
//! all device service times are multiplied by the same factor, so every
//! ratio the evaluation depends on (hit rates, ramp-up shape, crossovers)
//! is preserved while a "10-hour" run finishes in seconds of wall time.

#![forbid(unsafe_code)]
// Static checks on non-test code (DESIGN §7.2); `scripts/check.sh` runs
// clippy with them as errors.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

pub mod driver;
pub mod rand_util;
pub mod runs;
pub mod scenario;
pub mod synthetic;
pub mod tpcc;
pub mod tpce;
pub mod tpch;

pub use driver::{CheckpointClient, CleanerClient, Client, Driver, StepResult, ThroughputRecorder};
pub use scenario::{build_db, Design, SystemSpec, SCALE};
