//! Virtual-time I/O subsystem simulator.
//!
//! This crate provides the hardware substrate for the buffer-pool study: a
//! discrete, deterministic timing model of the storage devices used in the
//! paper's testbed ("Turbocharging DBMS Buffer Pool Using SSDs", SIGMOD 2011):
//! eight striped 7,200 RPM SATA disks, one SLC flash SSD, and a dedicated log
//! disk. Devices are calibrated to the sustained IOPS the paper reports in
//! Table 1 and serve requests through a FCFS queue, so saturating a device in
//! virtual time produces the same queueing delays that gate throughput on
//! real hardware.
//!
//! Nothing in this crate sleeps: all timing is *virtual*. Callers carry a
//! [`Clk`] whose `now` field only moves forward when a synchronous I/O
//! completes. Asynchronous writes consume device time (delaying later
//! requests) without advancing the issuing client's clock, mirroring the
//! asynchronous write-behind I/O of a production DBMS disk manager.
//!
//! The crate also provides the page abstraction and in-memory backing stores
//! that hold the actual page bytes for the simulated disk and SSD.

#![forbid(unsafe_code)]
// Static checks on non-test code (DESIGN §7.2); `scripts/check.sh` runs
// clippy with them as errors.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

pub mod array;
pub mod clock;
pub mod counters;
pub mod crashsched;
pub mod device;
pub mod fault;
pub mod io_manager;
pub mod page;
pub mod profiles;
pub mod rng;
pub mod stats;
pub mod store;
pub mod sync;

pub use array::StripedArray;
pub use clock::{Clk, Time, HOUR, MICROSECOND, MILLISECOND, MINUTE, SECOND};
pub use crashsched::{BoundaryCounts, BoundaryKind, CrashSwitch, WriteFate};
pub use device::{DeviceProfile, IoKind, IoTicket, Locality, SimDevice};
pub use fault::{
    BrownoutSpec, FaultConfig, FaultDevice, FaultPlan, FaultStats, IoError, IoErrorKind,
};
pub use io_manager::{DeviceSetup, IoManager};
pub use page::{PageBuf, PageDst, PageId, PageSrc, PidHasher, PidMap};
pub use profiles::{hdd_array_profile, log_disk_profile, ssd_profile, PAPER_NUM_DISKS};
pub use stats::{DeviceStats, StatSnapshot};
pub use store::{MemStore, PageStore};
