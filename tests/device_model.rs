//! Property tests for the device timing model.
//!
//! Invariants of the capacity-ledger queueing model that every other
//! result in this repository rests on:
//!
//! 1. causality — no request completes before `now + service`;
//! 2. work conservation — total busy time equals the sum of service
//!    times, and a saturating open loop sustains exactly the calibrated
//!    rate;
//! 3. monotone interference — adding load never makes another stream
//!    faster.

use turbopool::iosim::rng::{Rng, SeedableRng, SmallRng};
use turbopool::iosim::{DeviceProfile, IoKind, Locality, SimDevice, SECOND};

fn profile() -> DeviceProfile {
    DeviceProfile::from_iops(1_000.0, 10_000.0, 800.0, 8_000.0)
}

#[test]
fn completion_respects_service_time() {
    for case in 0u64..32 {
        let mut rng = SmallRng::seed_from_u64(0xDE1CE ^ case);
        let d = SimDevice::new("t", profile());
        for _ in 0..rng.gen_range(1usize..200) {
            let now = rng.gen_range(0u64..10 * SECOND);
            let lba = rng.gen_range(0u64..1000);
            let npages = rng.gen_range(1u64..5);
            let t = d.submit(now, IoKind::Read, lba, npages, None);
            let min_service = npages * profile().seq_read_ns; // cheapest possible
            assert!(
                t.complete >= now + min_service,
                "complete {} < now {} + min {}",
                t.complete,
                now,
                min_service
            );
            assert!(t.start >= now);
            assert!(t.complete > t.start);
        }
    }
}

#[test]
fn busy_time_equals_offered_work() {
    for case in 0u64..32 {
        let mut rng = SmallRng::seed_from_u64(0xB0_5E ^ case);
        let d = SimDevice::new("t", profile());
        let mut expect = 0u64;
        for _ in 0..rng.gen_range(1usize..300) {
            let now = rng.gen_range(0u64..SECOND);
            let lba = rng.gen_range(0u64..1000);
            d.submit(now, IoKind::Write, lba, 1, Some(Locality::Random));
            expect += profile().rand_write_ns;
        }
        let s = d.stats().snapshot();
        assert_eq!(s.write_busy_ns, expect);
    }
}

#[test]
fn closed_loop_rate_never_exceeds_calibration() {
    for case in 0u64..16 {
        let mut rng = SmallRng::seed_from_u64(0xC10_5ED ^ case);
        let n = rng.gen_range(100u64..2000);
        let d = SimDevice::new("t", profile());
        let mut now = 0;
        let mut x = rng.gen_range(0u64..1000);
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            now = d
                .submit(now, IoKind::Read, x % 100_000, 1, Some(Locality::Random))
                .complete;
        }
        let iops = n as f64 / (now as f64 / SECOND as f64);
        assert!(iops <= 1_000.5, "iops {iops} exceeds calibrated 1000");
        assert!(iops >= 990.0, "closed loop should saturate: {iops}");
    }
}

#[test]
fn added_load_only_slows_a_stream_down() {
    // Stream A alone vs stream A with a competing stream B.
    let solo = {
        let d = SimDevice::new("t", profile());
        let mut now = 0;
        for i in 0..500u64 {
            now = d
                .submit(now, IoKind::Read, i * 17 % 9999, 1, Some(Locality::Random))
                .complete;
        }
        now
    };
    let contended = {
        let d = SimDevice::new("t", profile());
        let mut a = 0;
        let mut b = 0;
        for i in 0..500u64 {
            a = d
                .submit(a, IoKind::Read, i * 17 % 9999, 1, Some(Locality::Random))
                .complete;
            b = d
                .submit(b, IoKind::Read, i * 31 % 9999, 1, Some(Locality::Random))
                .complete;
        }
        a
    };
    assert!(
        contended >= solo,
        "contention made the stream faster: solo {solo} contended {contended}"
    );
    // And roughly fair: two equal streams each get about half the device.
    assert!(
        contended as f64 >= 1.8 * solo as f64,
        "two streams should roughly halve each one's rate: solo {solo} contended {contended}"
    );
}

#[test]
fn sequential_detection_is_per_device_state() {
    let d = SimDevice::new("t", profile());
    // Interleave two "streams" on one device: adjacency breaks every time.
    let mut now = 0;
    let mut busy_interleaved = 0;
    for i in 0..50u64 {
        let t1 = d.submit(now, IoKind::Read, 1_000 + i, 1, None);
        let t2 = d.submit(t1.complete, IoKind::Read, 9_000 + i, 1, None);
        now = t2.complete;
        busy_interleaved = now;
    }
    let d2 = SimDevice::new("t", profile());
    let mut now2 = 0;
    for i in 0..50u64 {
        now2 = d2.submit(now2, IoKind::Read, 1_000 + i, 1, None).complete;
    }
    for i in 0..50u64 {
        now2 = d2.submit(now2, IoKind::Read, 9_000 + i, 1, None).complete;
    }
    assert!(
        busy_interleaved > 2 * now2,
        "interleaving must pay seeks: interleaved {busy_interleaved}, batched {now2}"
    );
}
