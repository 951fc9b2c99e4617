//! Per-device fail-slow detection.
//!
//! A [`FailSlowDetector`] watches one simulated device (the
//! [`IoManager`](crate::IoManager) keeps one, on the SSD) and decides, in
//! virtual time, whether it is *gray-failing*: still answering every
//! request, just pathologically slowly (an SSD in a GC stall). Hard
//! failures raise
//! [`IoError`](crate::fault::IoError)s and are handled by the retry and
//! quarantine machinery; latency never does — this detector closes that
//! gap so upper layers can hedge reads to the replica tier.
//!
//! The detector compares each observed per-page service latency against
//! a baseline calibrated from the device's
//! [`DeviceProfile`](crate::device::DeviceProfile), cross-checked with
//! the instantaneous queue depth, with trip/clear hysteresis so the
//! degraded flag does not flap on single outliers. Every input is
//! virtual time or integer state updated in submission order, so two
//! runs that issue the same requests make identical transitions — the
//! parallel driver's bit-identical replay guarantee holds by
//! construction.
//!
//! State machine (two states, hysteresis on both edges):
//!
//! ```text
//!            ≥ TRIP_AFTER consecutive slow samples
//!   Healthy ─────────────────────────────────────▶ Degraded
//!      ▲                                              │
//!      └──────────────────────────────────────────────┘
//!            ≥ CLEAR_AFTER consecutive fast samples
//! ```
//!
//! A sample is *slow* when its observed latency exceeds
//! `baseline ×` [`SLOW_FACTOR`] or the queue depth at submission exceeds
//! [`DEPTH_LIMIT`]. Classifying each raw sample (rather than a smoothed
//! average) means recovery is visible the moment the device serves one
//! request at healthy speed — crucial when the degraded device only
//! receives sparse canary probes, whose streak must not be dragged out
//! by the memory of the slow period. The hysteresis streaks provide all
//! the smoothing the flag needs.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::clock::Time;
use crate::device::DeviceProfile;
use crate::sync::Mutex;

// Detector tuning. The values favor fast detection of 5–50× brownouts
// while ignoring ordinary queueing noise; every comparison inside the
// detector reads one of these, never an inline literal.

/// Degraded threshold as a multiple of the calibrated baseline latency.
pub const SLOW_FACTOR: u64 = 4;
/// A sample is also slow when the device's queue depth at submission
/// exceeds this many outstanding requests — well above the paper's
/// μ = 100 throttle threshold, so a healthy device saturated by ordinary
/// load (the normal state during aggressive filling) never reads as
/// failing; only the runaway queues a browned-out device accumulates do.
pub const DEPTH_LIMIT: usize = 256;
/// Consecutive slow samples required to trip Healthy → Degraded.
pub const TRIP_AFTER: u32 = 4;
/// Consecutive fast samples required to clear Degraded → Healthy
/// (clearing is deliberately slower than tripping).
pub const CLEAR_AFTER: u32 = 8;

/// Plain snapshot of a detector, cheap to compare in determinism
/// fingerprints.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FailSlowStats {
    /// Is the device currently flagged degraded?
    pub degraded: bool,
    /// Healthy↔Degraded edges taken (both directions).
    pub transitions: u64,
    /// Latency samples observed.
    pub samples: u64,
    /// Samples classified slow (latency or queue-depth breach).
    pub slow_samples: u64,
}

#[derive(Debug, Default)]
struct DetectorState {
    slow_streak: u32,
    fast_streak: u32,
    degraded: bool,
}

/// Latency + queue-depth fail-slow detector for one device (see module
/// docs for the state machine).
#[derive(Debug)]
pub struct FailSlowDetector {
    /// Calibrated healthy-latency baseline: the device profile's average
    /// random service time.
    baseline_ns: Time,
    state: Mutex<DetectorState>,
    transitions: AtomicU64,
    samples: AtomicU64,
    slow_samples: AtomicU64,
}

impl FailSlowDetector {
    /// Build a detector calibrated to `profile`: the healthy baseline is
    /// the mean of the random read and write service times — the same
    /// quantity [`SimDevice::overloaded`](crate::device::SimDevice)
    /// throttles against.
    pub fn from_profile(profile: &DeviceProfile) -> Self {
        let baseline_ns = ((profile.rand_read_ns + profile.rand_write_ns) / 2).max(1);
        FailSlowDetector {
            baseline_ns,
            state: Mutex::new(DetectorState::default()),
            transitions: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            slow_samples: AtomicU64::new(0),
        }
    }

    /// The calibrated healthy baseline in virtual nanoseconds.
    pub fn baseline_ns(&self) -> Time {
        self.baseline_ns
    }

    /// Feed one completed request: its observed per-page *service*
    /// latency (queue wait excluded — wait grows with healthy load;
    /// service only grows when the device itself degrades) and the
    /// device queue depth at submission. Returns the degraded flag
    /// after the sample.
    pub fn observe(&self, latency_ns: Time, queue_depth: usize) -> bool {
        self.samples.fetch_add(1, Relaxed);
        let mut st = self.state.lock();
        let threshold = self.baseline_ns.saturating_mul(SLOW_FACTOR);
        let slow = latency_ns > threshold || queue_depth > DEPTH_LIMIT;
        if slow {
            self.slow_samples.fetch_add(1, Relaxed);
            st.slow_streak += 1;
            st.fast_streak = 0;
            if !st.degraded && st.slow_streak >= TRIP_AFTER {
                st.degraded = true;
                self.transitions.fetch_add(1, Relaxed);
            }
        } else {
            st.fast_streak += 1;
            st.slow_streak = 0;
            if st.degraded && st.fast_streak >= CLEAR_AFTER {
                st.degraded = false;
                self.transitions.fetch_add(1, Relaxed);
            }
        }
        st.degraded
    }

    /// Is the device currently flagged degraded?
    pub fn is_degraded(&self) -> bool {
        self.state.lock().degraded
    }

    /// Is the device degraded but mid-way through a fast-sample streak —
    /// i.e. looking like it has recovered, pending confirmation? Hedging
    /// layers use this to burst canary probes: once one probe comes back
    /// fast, probing every request completes (or refutes) the clear
    /// streak in [`CLEAR_AFTER`] requests instead of `CLEAR_AFTER` × the
    /// probe interval.
    pub fn clearing(&self) -> bool {
        let st = self.state.lock();
        st.degraded && st.fast_streak > 0
    }

    /// Reset learned state (restart modeling: devices come back idle).
    /// Cumulative counters survive — they are part of the run's history.
    pub fn reset(&self) {
        *self.state.lock() = DetectorState::default();
    }

    /// Snapshot for metrics and determinism fingerprints.
    pub fn stats(&self) -> FailSlowStats {
        let st = self.state.lock();
        FailSlowStats {
            degraded: st.degraded,
            transitions: self.transitions.load(Relaxed),
            samples: self.samples.load(Relaxed),
            slow_samples: self.slow_samples.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> FailSlowDetector {
        // Baseline = (1000 + 3000)/2 = 2000 ns.
        let profile = DeviceProfile {
            rand_read_ns: 1000,
            seq_read_ns: 500,
            rand_write_ns: 3000,
            seq_write_ns: 800,
        };
        FailSlowDetector::from_profile(&profile)
    }

    #[test]
    fn baseline_is_mean_random_service() {
        let d = detector();
        assert_eq!(d.baseline_ns(), 2000);
    }

    #[test]
    fn healthy_latencies_never_trip() {
        let d = detector();
        for _ in 0..10_000 {
            assert!(!d.observe(2000, 1));
        }
        let s = d.stats();
        assert!(!s.degraded);
        assert_eq!(s.transitions, 0);
        assert_eq!(s.slow_samples, 0);
    }

    #[test]
    fn sustained_slowness_trips_after_hysteresis() {
        let d = detector();
        // 20× baseline: every sample is slow, but the TRIP_AFTER streak
        // must still elapse.
        let mut tripped_at = None;
        for i in 0..100u32 {
            if d.observe(40_000, 1) {
                tripped_at = Some(i);
                break;
            }
        }
        let at = tripped_at.expect("sustained 20x slowness must trip");
        assert!(
            at + 1 >= TRIP_AFTER,
            "tripped before the hysteresis streak: sample {at}"
        );
        assert_eq!(d.stats().transitions, 1);
    }

    #[test]
    fn single_outlier_does_not_trip() {
        let d = detector();
        assert!(!d.observe(1_000_000, 1), "one spike is not a gray failure");
        for _ in 0..100 {
            assert!(!d.observe(2000, 1));
        }
        assert_eq!(d.stats().transitions, 0);
    }

    #[test]
    fn recovery_clears_after_longer_streak() {
        let d = detector();
        while !d.observe(40_000, 1) {}
        assert!(d.is_degraded());
        // CLEAR_AFTER consecutive healthy samples flip the flag back.
        let mut cleared_at = None;
        for i in 0..1000u32 {
            if !d.observe(1000, 1) {
                cleared_at = Some(i);
                break;
            }
        }
        let at = cleared_at.expect("recovery must clear the flag");
        assert!(
            at + 1 >= CLEAR_AFTER,
            "cleared before the hysteresis streak: sample {at}"
        );
        assert_eq!(d.stats().transitions, 2);
        assert!(!d.is_degraded());
    }

    #[test]
    fn deep_queue_alone_is_a_slow_signal() {
        let d = detector();
        for _ in 0..TRIP_AFTER {
            d.observe(2000, DEPTH_LIMIT + 1);
        }
        assert!(d.is_degraded(), "queue-depth breach must trip");
    }

    #[test]
    fn clearing_flags_a_pending_fast_streak() {
        let d = detector();
        assert!(!d.clearing(), "healthy device is not clearing");
        while !d.observe(40_000, 1) {}
        assert!(!d.clearing(), "degraded with no fast samples yet");
        d.observe(1000, 1);
        assert!(d.clearing(), "one fast sample starts the clear streak");
        d.observe(40_000, 1);
        assert!(!d.clearing(), "a slow sample refutes the recovery");
    }

    #[test]
    fn identical_sample_streams_make_identical_transitions() {
        let run = || {
            let d = detector();
            let mut flags = Vec::new();
            for i in 0..500u64 {
                let lat = if (100..200).contains(&i) {
                    50_000
                } else {
                    2000
                };
                flags.push(d.observe(lat, (i % 7) as usize));
            }
            (flags, d.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reset_forgets_state_but_keeps_history() {
        let d = detector();
        while !d.observe(40_000, 1) {}
        let before = d.stats();
        d.reset();
        let after = d.stats();
        assert!(!after.degraded);
        assert_eq!(after.transitions, before.transitions, "history survives");
        assert_eq!(after.samples, before.samples);
    }
}
