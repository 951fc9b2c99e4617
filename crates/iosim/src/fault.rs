//! Deterministic storage-fault injection.
//!
//! A [`FaultPlan`] is a seeded stream of misbehavior for one device:
//! transient read and write errors, torn writes, silent bit flips, a device
//! death at a virtual-time instant, and brownouts ([`BrownoutSpec`]: windows
//! in which every request is served 5–50× slower, a pure function of `now`
//! that draws no randomness). Draws come from the plan's own
//! [`SmallRng`](crate::rng::SmallRng) in request order, so a same-seed run
//! replays its faults bit-identically, under the parallel driver too.
//!
//! The plan only decides: it answers each request once, a read with its
//! scale or error and a write with a [`Verdict`], and the injector in
//! [`IoManager`](crate::io_manager::IoManager) applies the answer. Silent
//! corruption lands on the SSD only, where the frame check catches it on
//! the next read; the disk tier reports its failures instead.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::clock::{Clk, Time, MILLISECOND};
use crate::rng::{Rng, SeedableRng, SmallRng};
use crate::sync::Mutex;

/// Which storage tier an error was reported by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultDevice {
    /// The striped database disk group.
    Disk,
    /// The SSD buffer-pool file.
    Ssd,
}

/// What went wrong with a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoErrorKind {
    /// A read failed transiently; retrying may succeed.
    TransientRead,
    /// A write failed transiently; retrying may succeed. For multi-page
    /// disk runs a prefix of the pages may have been persisted.
    TransientWrite,
    /// The device is dead (scheduled death reached); permanent.
    DeviceDead,
    /// The bytes came back but failed checksum verification — torn or
    /// corrupted frame detected on read.
    ChecksumMismatch,
}

impl IoErrorKind {
    /// True for errors a bounded retry can reasonably clear.
    pub fn is_transient(self) -> bool {
        matches!(
            self,
            IoErrorKind::TransientRead | IoErrorKind::TransientWrite
        )
    }
}

/// A storage error: which device, what kind, and when (virtual time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoError {
    pub device: FaultDevice,
    pub kind: IoErrorKind,
    /// Virtual time at which the failure was reported.
    pub at: Time,
}

impl IoError {
    pub fn new(device: FaultDevice, kind: IoErrorKind, at: Time) -> Self {
        IoError { device, kind, at }
    }

    /// True for errors a bounded retry can reasonably clear.
    pub fn is_transient(&self) -> bool {
        self.kind.is_transient()
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dev = match self.device {
            FaultDevice::Disk => "disk",
            FaultDevice::Ssd => "ssd",
        };
        let kind = match self.kind {
            IoErrorKind::TransientRead => "transient read error",
            IoErrorKind::TransientWrite => "transient write error",
            IoErrorKind::DeviceDead => "device dead",
            IoErrorKind::ChecksumMismatch => "checksum mismatch",
        };
        write!(f, "{dev}: {kind} at t={}ns", self.at)
    }
}

impl std::error::Error for IoError {}

/// A sustained-slowdown (fail-slow) schedule for one device: inside its
/// windows every request completes, but the device's service time is
/// multiplied by `factor`. This models an SSD in a garbage-collection
/// stall or a disk group behind a saturated controller — the gray
/// failures that never raise an [`IoError`].
///
/// Membership is a pure function of virtual time, so two runs that
/// submit the same requests see the same slowdowns regardless of driver
/// threading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutSpec {
    /// First instant of the brownout range (inclusive).
    pub start: Time,
    /// End of the brownout range (exclusive).
    pub end: Time,
    /// Start-to-start spacing of repeated stalls inside `[start, end)`;
    /// `0` means one continuous stall covering the whole range.
    pub period: Time,
    /// Length of each stall when `period > 0` (ignored otherwise).
    pub duration: Time,
    /// Service-time multiplier while stalled; `1` disables the spec.
    pub factor: u32,
}

impl BrownoutSpec {
    /// The service-time multiplier in effect at `now` (`1` outside every
    /// stall window).
    pub fn factor_at(&self, now: Time) -> u32 {
        if now < self.start || now >= self.end || self.factor <= 1 {
            return 1;
        }
        if self.period == 0 || (now - self.start) % self.period < self.duration {
            self.factor
        } else {
            1
        }
    }
}

/// Least brownout multiplier drawn for a seeded plan, per the issue's
/// "multiplied 5–50×" slowdown range.
pub const BROWNOUT_FACTOR_MIN: u32 = 5;
/// Greatest brownout multiplier drawn for a seeded plan.
pub const BROWNOUT_FACTOR_MAX: u32 = 50;

/// SplitMix64 finalizer: a cheap seed→factor hash that does not touch
/// the plan's request-ordered RNG stream.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Tunable fault probabilities for one device. All probabilities are per
/// request; a default-constructed config injects nothing.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed of the plan's private RNG stream.
    pub seed: u64,
    /// Probability a read request fails with [`IoErrorKind::TransientRead`].
    pub read_error_prob: f64,
    /// Probability a write request fails with
    /// [`IoErrorKind::TransientWrite`] before persisting anything.
    pub write_error_prob: f64,
    /// Probability a write is torn: only a prefix persists. On the SSD
    /// this is silent (caught later by the frame checksum); on a disk
    /// multi-page run the prefix pages persist and the request errors.
    pub torn_write_prob: f64,
    /// Probability a write silently flips one stored bit (SSD only).
    pub bitflip_prob: f64,
    /// Virtual-time instant at which the whole device dies. Every request
    /// at or after this instant fails with [`IoErrorKind::DeviceDead`].
    pub death_at: Option<Time>,
    /// Sustained-slowdown windows (fail-slow gray failure); `None`
    /// injects no brownouts.
    pub brownout: Option<BrownoutSpec>,
}

impl FaultConfig {
    /// A plan that injects nothing (useful as a base to tweak).
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            read_error_prob: 0.0,
            write_error_prob: 0.0,
            torn_write_prob: 0.0,
            bitflip_prob: 0.0,
            death_at: None,
            brownout: None,
        }
    }

    /// Transient read+write errors at probability `p`.
    pub fn transient(seed: u64, p: f64) -> Self {
        let mut c = Self::quiet(seed);
        c.read_error_prob = p;
        c.write_error_prob = p;
        c
    }

    /// Whole-device death at virtual time `t`.
    pub fn death(seed: u64, t: Time) -> Self {
        let mut c = Self::quiet(seed);
        c.death_at = Some(t);
        c
    }

    /// One continuous brownout over `[start, end)` with the service-time
    /// multiplier drawn from `[BROWNOUT_FACTOR_MIN, BROWNOUT_FACTOR_MAX]`
    /// by hashing `seed` (no RNG stream consumed).
    pub fn brownout(seed: u64, start: Time, end: Time) -> Self {
        let span = u64::from(BROWNOUT_FACTOR_MAX - BROWNOUT_FACTOR_MIN) + 1;
        // The unwrap cannot fire: span is a small nonzero constant, so the
        // remainder always fits in a u32. (The panic rule does not cover
        // this crate, so no allow marker is needed.)
        let factor = BROWNOUT_FACTOR_MIN + u32::try_from(mix64(seed) % span).unwrap();
        Self::brownout_train(seed, start, end, 0, 0, factor)
    }

    /// A stall train: every `period` ns inside `[start, end)` the device
    /// runs `factor`× slow for `duration` ns (GC-stall shape). With
    /// `period == 0` the whole range stalls continuously.
    pub fn brownout_train(
        seed: u64,
        start: Time,
        end: Time,
        period: Time,
        duration: Time,
        factor: u32,
    ) -> Self {
        let mut c = Self::quiet(seed);
        c.brownout = Some(BrownoutSpec {
            start,
            end,
            period,
            duration,
            factor,
        });
        c
    }
}

crate::counters! {
    /// Counters of faults actually injected, readable at any time. These are
    /// part of the determinism contract: two runs with the same seed and
    /// workload must report identical counts.
    struct FaultCounters =>
    /// Plain snapshot of [`FaultPlan`] counters.
    pub struct FaultStats {
        pub read_errors,
        pub write_errors,
        pub torn_writes,
        pub bitflips,
        pub dead_rejects,
        /// Requests whose service time was multiplied by an active brownout.
        pub brownout_slowdowns,
    }
}

/// What the injector at the device edge answers a write request with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Nothing lands and nothing is charged; the write fails with this.
    Refused(IoError),
    /// Power died mid-write: a prefix of this many units lands, nothing
    /// is charged, and the write fails [`IoErrorKind::DeviceDead`].
    Cut(usize),
    /// The write is charged at `scale` times its service time. If `torn`
    /// is set only that prefix lands; `flip` flips one stored bit (the
    /// byte index and the mask).
    Served {
        scale: u32,
        torn: Option<usize>,
        flip: Option<(usize, u8)>,
    },
}

impl Verdict {
    /// A whole write at full speed, as a device with nothing attached.
    pub(crate) const CLEAN: Verdict = Verdict::Served {
        scale: 1,
        torn: None,
        flip: None,
    };
}

/// Sentinel for "no dynamic death scheduled".
const NO_DEATH: u64 = u64::MAX;

/// A seeded fault stream for one device.
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: Mutex<SmallRng>,
    counters: FaultCounters,
    /// Death instant installed after construction (e.g. a torture test
    /// killing the device mid-run); `NO_DEATH` when unset.
    dynamic_death: AtomicU64,
}

impl FaultPlan {
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan {
            rng: Mutex::new(SmallRng::seed_from_u64(cfg.seed)),
            cfg,
            counters: FaultCounters::default(),
            dynamic_death: AtomicU64::new(NO_DEATH),
        }
    }

    /// Kill the device effective at virtual time `at` (in addition to any
    /// configured `death_at`; the earlier instant wins).
    pub fn kill(&self, at: Time) {
        self.dynamic_death.fetch_min(at, Relaxed);
    }

    /// Is the device dead at `now`?
    fn is_dead(&self, now: Time) -> bool {
        let sched = self.cfg.death_at.unwrap_or(NO_DEATH);
        now >= sched.min(self.dynamic_death.load(Relaxed))
    }

    /// Draw with probability `p`, consuming randomness only when the
    /// outcome is actually in play (p in (0, 1]).
    fn draw(&self, p: f64) -> bool {
        p > 0.0 && self.rng.lock().gen_bool(p)
    }

    /// Decide one request at `now`: a dead device rejects it, else an
    /// error of `kind` is drawn at its probability; an admitted request
    /// gets its brownout scale (`1` outside the windows), counted once.
    fn admit(&self, device: FaultDevice, now: Time, kind: IoErrorKind) -> Result<u32, IoError> {
        let (p, errors) = match kind {
            IoErrorKind::TransientRead => (self.cfg.read_error_prob, &self.counters.read_errors),
            _ => (self.cfg.write_error_prob, &self.counters.write_errors),
        };
        let kind = if self.is_dead(now) {
            self.counters.dead_rejects.fetch_add(1, Relaxed);
            IoErrorKind::DeviceDead
        } else if self.draw(p) {
            errors.fetch_add(1, Relaxed);
            kind
        } else {
            let f = self.cfg.brownout.map_or(1, |b| b.factor_at(now));
            if f > 1 {
                self.counters.brownout_slowdowns.fetch_add(1, Relaxed);
            }
            return Ok(f);
        };
        Err(IoError::new(device, kind, now))
    }

    /// Decide one read request on `device` at `now`: its brownout scale,
    /// or the error it fails with.
    pub(crate) fn read(&self, device: FaultDevice, now: Time) -> Result<u32, IoError> {
        self.admit(device, now, IoErrorKind::TransientRead)
    }

    /// Decide one write of `len` units on `device` at `now`. An admitted
    /// write may tear, persisting a prefix drawn uniformly from `[1, len)`
    /// (a torn write always loses at least its tail and persists at least
    /// one unit); an SSD frame write that does not tear may flip one
    /// stored bit instead.
    pub(crate) fn write(&self, device: FaultDevice, now: Time, len: usize) -> Verdict {
        let scale = match self.admit(device, now, IoErrorKind::TransientWrite) {
            Ok(scale) => scale,
            Err(e) => return Verdict::Refused(e),
        };
        let torn = (len >= 2 && self.draw(self.cfg.torn_write_prob)).then(|| {
            self.counters.torn_writes.fetch_add(1, Relaxed);
            self.rng.lock().gen_range(1..len)
        });
        let untorn_frame = device == FaultDevice::Ssd && torn.is_none();
        let flip = (untorn_frame && self.draw(self.cfg.bitflip_prob)).then(|| {
            self.counters.bitflips.fetch_add(1, Relaxed);
            let mut rng = self.rng.lock();
            (rng.gen_range(0..len), 1u8 << rng.gen_range(0u32..8))
        });
        Verdict::Served { scale, torn, flip }
    }

    /// Snapshot the injected-fault counters.
    pub fn stats(&self) -> FaultStats {
        self.counters.snapshot()
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("cfg", &self.cfg)
            .field("stats", &self.stats())
            .finish()
    }
}

// ----------------------------------------------------------------------
// Checksums
// ----------------------------------------------------------------------

/// FNV-1a 64-bit hash — the *format* checksum. Three things are defined
/// over its exact values and break if it changes: the WAL record trailer
/// (`turbopool-wal` `record.rs`, bytes already "on the log device"), the
/// crash-schedule explorer's digests (`turbopool-engine` `explorer.rs`),
/// and the pinned store fingerprints in `tests/policy_default_regression.rs`
/// / `tests/driver_determinism.rs`. It is byte-serial (one dependent
/// multiply per byte) and fine for those short or offline inputs; SSD
/// frames use [`frame_sum`] instead.
pub fn checksum(data: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Lanes of [`frame_sum`]: one 8-byte word of every 32-byte block each.
const FRAME_LANES: usize = 4;

/// Per-lane start values (the fractional bits of √2, √3, √5, √7).
const FRAME_SEED: [u64; FRAME_LANES] = [
    0x6A09_E667_F3BC_C908,
    0xBB67_AE85_84CA_A73B,
    0x3C6E_F372_FE94_F82B,
    0xA54F_F53A_5F1D_36F1,
];

/// Per-lane odd multipliers (odd ⇒ multiplication is a bijection mod 2⁶⁴).
const FRAME_MUL: [u64; FRAME_LANES] = [
    0x9E37_79B9_7F4A_7C15,
    0xBF58_476D_1CE4_E5B9,
    0x94D0_49BB_1331_11EB,
    0xD6E8_FEB8_6659_FD93,
];

/// Rotation after every lane step, so high input bits reach low output
/// bits (a multiply alone only carries upwards).
const FRAME_ROT: u32 = 29;

/// One lane step: a bijection of `lane` for every fixed `word`, and of
/// `word` for every fixed `lane`. The xorshift after the multiply folds
/// the product's high bits into its low ones, so no single-bit input
/// difference leaves the step as a single-bit difference that the next
/// word's flip could cancel. Its shift is not 32: the lanes are combined
/// under rotations 32 apart, and a flip of two words' top bits in the last
/// block would cancel.
#[inline(always)]
fn lane_step(lane: u64, word: u64, mul: u64) -> u64 {
    let x = (lane ^ word).wrapping_mul(mul);
    (x ^ (x >> 31)).rotate_left(FRAME_ROT)
}

/// The SSD frame checksum: what `IoManager` records at every frame write
/// and verifies on every frame read.
///
/// Word-parallel where [`checksum`] is byte-serial: the frame is consumed
/// as little-endian `u64`s, four to a 32-byte block, each word folded into
/// its own lane, so the four multiply chains are independent and overlap
/// in the pipeline (an 8 KB frame costs 256 dependent steps per lane
/// instead of 8,192 dependent multiplies). Bytes past the last whole block
/// (page sizes that are not a multiple of 32) are folded one per step,
/// round-robin over the lanes. The lanes are then combined under distinct
/// rotations together with the length.
///
/// Every input byte enters exactly one lane through a step that is a
/// bijection of that lane, so two frames that differ in a single word (any
/// single-bit flip, any tear confined to one word) always differ in exactly
/// one final lane and therefore in the sum. Two flips in consecutive words
/// of one lane cancel only if the first leaves its step as exactly the
/// second: the multiply alone would carry a flip of bit 63 to bit 63 and
/// no further, so the step's xorshift spreads it to two bits. The value is
/// independent of host endianness. Not a format: nothing persists it
/// across builds, so it may be retuned freely — unlike [`checksum`].
pub fn frame_sum(data: &[u8]) -> u64 {
    let mut lanes = FRAME_SEED;
    let mut blocks = data.chunks_exact(8 * FRAME_LANES);
    for block in &mut blocks {
        for ((lane, word), mul) in lanes.iter_mut().zip(block.chunks_exact(8)).zip(FRAME_MUL) {
            // The unwrap cannot fire: `chunks_exact(8)` yields 8-byte slices.
            let word = u64::from_le_bytes(word.try_into().unwrap());
            *lane = lane_step(*lane, word, mul);
        }
    }
    for (i, &b) in blocks.remainder().iter().enumerate() {
        let l = i % FRAME_LANES;
        lanes[l] = lane_step(lanes[l], u64::from(b), FRAME_MUL[l]);
    }
    (lanes[0] ^ lanes[1].rotate_left(16) ^ lanes[2].rotate_left(32) ^ lanes[3].rotate_left(48))
        .wrapping_add(data.len() as u64)
}

// ----------------------------------------------------------------------
// Retry policy
// ----------------------------------------------------------------------

/// Retries allowed after the first attempt on a transient error; beyond
/// this the error propagates to the caller.
pub const DISK_RETRY_LIMIT: u32 = 5;

/// Backoff before the first retry; each further retry quadruples it.
pub const RETRY_BASE_BACKOFF_NS: Time = MILLISECOND;

/// Retry index at which the backoff stops growing.
pub const RETRY_BACKOFF_CAP_EXP: u32 = 3;

/// Capped exponential backoff before retry `attempt` (0-based):
/// 1 ms, 4 ms, 16 ms, 64 ms, then 64 ms flat — virtual time only.
pub fn backoff_ns(attempt: u32) -> Time {
    RETRY_BASE_BACKOFF_NS << (2 * attempt.min(RETRY_BACKOFF_CAP_EXP))
}

/// Run `op` with bounded synchronous retry: transient errors wait out a
/// capped virtual-time backoff on `clk` and retry, up to
/// [`DISK_RETRY_LIMIT`] times; permanent errors and retry exhaustion
/// propagate. Returns the retries made alongside the result so callers
/// can account them.
pub fn retry_sync<T>(
    clk: &mut Clk,
    mut op: impl FnMut(&mut Clk) -> Result<T, IoError>,
) -> (u32, Result<T, IoError>) {
    let mut attempt = 0u32;
    loop {
        match op(clk) {
            Ok(v) => return (attempt, Ok(v)),
            Err(e) if e.is_transient() && attempt < DISK_RETRY_LIMIT => {
                clk.elapse(backoff_ns(attempt));
                attempt += 1;
            }
            Err(e) => return (attempt, Err(e)),
        }
    }
}

/// Retry `op` until it succeeds or fails permanently. For write-behind of
/// data that must not be dropped (dirty evictions, checkpoint writes):
/// transient write errors are retried without bound — they clear with
/// probability 1 for any injection rate below certainty — so only a dead
/// device ever surfaces, and the caller then deals with genuine loss.
/// Deliberately not bounded by [`DISK_RETRY_LIMIT`]: a cap here would turn
/// a transient blip into silent data loss.
pub fn retry_write_forever<T>(mut op: impl FnMut() -> Result<T, IoError>) -> Result<T, IoError> {
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() => continue,
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_injects_nothing() {
        let p = FaultPlan::new(FaultConfig::quiet(1));
        for now in 0..1000 {
            assert_eq!(p.read(FaultDevice::Ssd, now), Ok(1));
            // Admitted, untorn, unflipped.
            assert_eq!(p.write(FaultDevice::Ssd, now, 4096), Verdict::CLEAN);
        }
        assert_eq!(p.stats(), FaultStats::default());
    }

    #[test]
    fn same_seed_same_fault_stream() {
        let mk = || FaultPlan::new(FaultConfig::transient(42, 0.3));
        let (a, b) = (mk(), mk());
        let run = |p: &FaultPlan| -> Vec<bool> {
            (0..200)
                .map(|i| p.read(FaultDevice::Disk, i).is_err())
                .collect()
        };
        assert_eq!(run(&a), run(&b));
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().read_errors > 0, "p=0.3 over 200 draws must fire");
    }

    #[test]
    fn death_is_a_wall_in_time() {
        let p = FaultPlan::new(FaultConfig::death(7, 1000));
        assert!(p.read(FaultDevice::Ssd, 999).is_ok());
        let Verdict::Refused(e) = p.write(FaultDevice::Ssd, 1000, 64) else {
            panic!("a dead device refuses every write");
        };
        assert_eq!(e.kind, IoErrorKind::DeviceDead);
        assert!(!e.is_transient());
        assert_eq!(p.stats().dead_rejects, 1);
    }

    #[test]
    fn dynamic_kill_takes_the_earlier_instant() {
        let p = FaultPlan::new(FaultConfig::death(7, 5000));
        p.kill(100);
        assert!(p.is_dead(100));
        assert!(!p.is_dead(99));
    }

    #[test]
    fn torn_prefix_is_a_strict_prefix() {
        let mut cfg = FaultConfig::quiet(3);
        cfg.torn_write_prob = 1.0;
        let p = FaultPlan::new(cfg);
        for _ in 0..100 {
            let Verdict::Served {
                torn: Some(len), ..
            } = p.write(FaultDevice::Disk, 0, 64)
            else {
                panic!("p=1 always tears");
            };
            assert!((1..64).contains(&len));
        }
        // A single-unit write cannot tear.
        assert_eq!(p.write(FaultDevice::Disk, 0, 1), Verdict::CLEAN);
    }

    #[test]
    fn checksum_detects_any_single_bitflip() {
        let data = vec![0xA5u8; 64];
        let base = checksum(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                let mut t = data.clone();
                t[byte] ^= 1 << bit;
                assert_ne!(checksum(&t), base, "flip {byte}.{bit} undetected");
            }
        }
    }

    /// The 8 KB test frame of the pinned vectors: byte `i` is `31 i + 7`.
    fn ramp(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn fnv1a_values_are_pinned() {
        // `checksum` is a format, not an implementation detail: the WAL
        // record trailer, the crash-schedule explorer's digests and the
        // pinned store fingerprints in tests/{policy_default_regression,
        // driver_determinism}.rs are all defined over these exact values. Speed up `frame_sum`, never this.
        assert_eq!(checksum(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(checksum(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(checksum(&ramp(8192)), 0x69B5_5A22_CAA2_A325);
    }

    #[test]
    fn frame_sum_values_are_pinned() {
        // Words are read with `from_le_bytes`, so these hold on any host.
        // The 200-byte prefix covers the byte tail (200 = 6 * 32 + 8).
        let v = ramp(8192);
        assert_eq!(frame_sum(&v), 0x7B8A_070D_AF80_CCDE);
        assert_eq!(frame_sum(&v[..200]), 0x6EC8_9C62_0CE3_CBF0);
    }

    /// Page sizes the frame-sum properties are checked at: below one
    /// block, whole blocks, a byte tail (200), and the paper's 8 KB.
    const FRAME_SIZES: [usize; 5] = [16, 64, 200, 256, 8192];

    fn random_page(rng: &mut SmallRng, n: usize) -> Vec<u8> {
        (0..n).map(|_| rng.gen_range(0u32..256) as u8).collect()
    }

    #[test]
    fn frame_sum_detects_any_single_bitflip() {
        let mut rng = SmallRng::seed_from_u64(0xF5A3);
        for n in FRAME_SIZES {
            let data = random_page(&mut rng, n);
            let base = frame_sum(&data);
            let mut t = data.clone();
            for byte in 0..n {
                for bit in 0..8 {
                    t[byte] ^= 1 << bit;
                    assert_ne!(frame_sum(&t), base, "{n}: flip {byte}.{bit} undetected");
                    t[byte] ^= 1 << bit;
                }
            }
        }
    }

    #[test]
    fn frame_sum_detects_two_flips_in_one_lane() {
        // Every bit pair across the first two words one lane folds (the
        // same lane of blocks 0 and 1): a carry-only step moves a flip of
        // bit 63 to exactly the bit its next word's flip cancels.
        let mut rng = SmallRng::seed_from_u64(0x2F11);
        for n in FRAME_SIZES.into_iter().filter(|&n| n >= 16 * FRAME_LANES) {
            let data = random_page(&mut rng, n);
            let base = frame_sum(&data);
            let mut t = data.clone();
            for lane in 0..FRAME_LANES {
                let (a, b) = (8 * lane, 8 * (lane + FRAME_LANES));
                for i in 0..64 {
                    t[a + i / 8] ^= 1 << (i % 8);
                    for j in 0..64 {
                        t[b + j / 8] ^= 1 << (j % 8);
                        assert_ne!(frame_sum(&t), base, "{n}: lane {lane} bits {i}, {j}");
                        t[b + j / 8] ^= 1 << (j % 8);
                    }
                    t[a + i / 8] ^= 1 << (i % 8);
                }
            }
        }
    }

    #[test]
    fn frame_sum_detects_any_two_flips_in_a_small_frame() {
        for n in FRAME_SIZES.into_iter().filter(|&n| n <= 256) {
            let mut t = vec![0u8; n];
            let base = frame_sum(&t);
            for i in 0..8 * n {
                t[i / 8] ^= 1 << (i % 8);
                for j in i + 1..8 * n {
                    t[j / 8] ^= 1 << (j % 8);
                    assert_ne!(frame_sum(&t), base, "{n}: bits {i}, {j}");
                    t[j / 8] ^= 1 << (j % 8);
                }
                t[i / 8] ^= 1 << (i % 8);
            }
        }
    }

    #[test]
    fn frame_sum_detects_every_torn_prefix() {
        let mut rng = SmallRng::seed_from_u64(0x70_2E);
        for n in FRAME_SIZES {
            let old = random_page(&mut rng, n);
            let new = random_page(&mut rng, n);
            let intended = frame_sum(&new);
            // `merged` grows the new prefix over the old tail one byte at
            // a time: after step `keep` it is new[..keep] ++ old[keep..].
            let mut merged = old.clone();
            for keep in 1..n {
                merged[keep - 1] = new[keep - 1];
                if merged != new {
                    assert_ne!(
                        frame_sum(&merged),
                        intended,
                        "{n}: tear at {keep} undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn frame_sum_of_zero_pages_depends_on_length() {
        let sums: Vec<u64> = FRAME_SIZES
            .iter()
            .map(|&n| frame_sum(&vec![0u8; n]))
            .collect();
        for (i, a) in sums.iter().enumerate() {
            assert_ne!(*a, 0, "zero page of {} bytes sums to 0", FRAME_SIZES[i]);
            for b in &sums[i + 1..] {
                assert_ne!(a, b, "two zero-page lengths collide");
            }
        }
    }

    #[test]
    fn retry_sync_waits_out_transients() {
        let mut clk = Clk::new();
        let mut failures = 3;
        let (attempts, out) = retry_sync(&mut clk, |_clk| {
            if failures > 0 {
                failures -= 1;
                Err(IoError::new(
                    FaultDevice::Disk,
                    IoErrorKind::TransientRead,
                    0,
                ))
            } else {
                Ok(99)
            }
        });
        assert_eq!(out, Ok(99));
        assert_eq!(attempts, 3);
        // 1 + 4 + 16 ms of backoff elapsed on the virtual clock.
        assert_eq!(clk.now, 21 * MILLISECOND);
    }

    #[test]
    fn retry_sync_gives_up_on_permanent_errors() {
        let mut clk = Clk::new();
        let dead = IoError::new(FaultDevice::Disk, IoErrorKind::DeviceDead, 0);
        let (attempts, out) = retry_sync(&mut clk, |_clk| Err::<(), _>(dead));
        assert_eq!(out, Err(dead));
        assert_eq!(attempts, 0);
        assert_eq!(clk.now, 0, "no backoff for a dead device");
    }

    #[test]
    fn retry_sync_bounds_attempts() {
        let mut clk = Clk::new();
        let torn = IoError::new(FaultDevice::Disk, IoErrorKind::TransientWrite, 0);
        let (attempts, out) = retry_sync(&mut clk, |_clk| Err::<(), _>(torn));
        assert_eq!(out, Err(torn));
        assert_eq!(attempts, DISK_RETRY_LIMIT);
        // 1 + 4 + 16 + 64 + 64 ms: the backoff stops growing at the cap.
        assert_eq!(clk.now, 149 * MILLISECOND);
    }

    #[test]
    fn backoff_is_capped() {
        assert_eq!(backoff_ns(0), MILLISECOND);
        assert_eq!(backoff_ns(1), 4 * MILLISECOND);
        assert_eq!(backoff_ns(3), 64 * MILLISECOND);
        assert_eq!(backoff_ns(10), 64 * MILLISECOND);
    }

    #[test]
    fn brownout_is_a_pure_window_of_time() {
        let cfg = FaultConfig::brownout_train(11, 1000, 5000, /* period */ 0, 0, 10);
        let b = cfg.brownout.expect("spec set");
        let p = FaultPlan::new(cfg);
        assert_eq!(p.read(FaultDevice::Ssd, 999), Ok(1));
        assert_eq!(b.factor_at(999), 1);
        assert_eq!(p.read(FaultDevice::Ssd, 1000), Ok(10));
        assert!(b.factor_at(4999) > 1);
        assert_eq!(p.read(FaultDevice::Ssd, 5000), Ok(1));
        // Requests still succeed while browned out, just slower.
        assert_eq!(p.read(FaultDevice::Ssd, 2000), Ok(10));
        // Two slowdowns were counted, one per admitted request inside the
        // window: the reads at t=1000 and t=2000.
        assert_eq!(p.stats().brownout_slowdowns, 2);
    }

    #[test]
    fn brownout_train_repeats_until_end() {
        // Stalls of 100 ns every 1000 ns over [0, 3000).
        let cfg = FaultConfig::brownout_train(3, 0, 3000, 1000, 100, 7);
        let b = cfg.brownout.expect("spec set");
        let stalled = |t| b.factor_at(t) > 1;
        for base in [0u64, 1000, 2000] {
            assert!(stalled(base));
            assert!(stalled(base + 99));
            assert!(!stalled(base + 100));
            assert!(!stalled(base + 999));
        }
        assert!(!stalled(3000), "train ends at the range end");
    }

    #[test]
    fn seeded_brownout_factor_is_in_range_and_stable() {
        for seed in 0..64u64 {
            let a = FaultConfig::brownout(seed, 0, 100);
            let b = FaultConfig::brownout(seed, 0, 100);
            let fa = a.brownout.expect("spec set").factor;
            assert_eq!(fa, b.brownout.expect("spec set").factor, "seed-stable");
            assert!((BROWNOUT_FACTOR_MIN..=BROWNOUT_FACTOR_MAX).contains(&fa));
        }
    }

    #[test]
    fn brownout_consumes_no_rng_stream() {
        // A plan with transient errors draws the same error stream whether
        // or not a brownout is configured — window checks are RNG-free.
        let mut with = FaultConfig::transient(77, 0.3);
        with.brownout = Some(BrownoutSpec {
            start: 0,
            end: 1000,
            period: 0,
            duration: 0,
            factor: 9,
        });
        let without = FaultConfig::transient(77, 0.3);
        let (a, b) = (FaultPlan::new(with), FaultPlan::new(without));
        let run = |p: &FaultPlan| -> Vec<bool> {
            (0..200)
                .map(|i| p.read(FaultDevice::Ssd, i).is_err())
                .collect()
        };
        assert_eq!(run(&a), run(&b));
    }

    #[test]
    fn dead_device_does_not_brown_out() {
        let mut cfg = FaultConfig::brownout(5, 0, 10_000);
        cfg.death_at = Some(500);
        let p = FaultPlan::new(cfg);
        assert!(p.read(FaultDevice::Ssd, 499).is_ok_and(|f| f > 1));
        let dead = Err(IoError::new(FaultDevice::Ssd, IoErrorKind::DeviceDead, 500));
        assert_eq!(
            p.read(FaultDevice::Ssd, 500),
            dead,
            "death supersedes slowness"
        );
        assert!(matches!(
            p.write(FaultDevice::Ssd, 600, 64),
            Verdict::Refused(_)
        ));
        assert_eq!(p.stats().brownout_slowdowns, 1);
    }
}
