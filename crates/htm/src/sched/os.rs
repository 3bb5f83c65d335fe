//! The free-running scheduler: OS threads race as they always did.

use std::sync::atomic::{AtomicU64, Ordering};

use super::{Scheduler, YieldKind};
use crate::clock;
use crate::util::mix64;

/// The free-running execution model: threads are scheduled by the OS, the
/// clock is wall time, and yield points are (near-)free.
///
/// With probability `shake_prob` (`HtmConfig::sched_shake_prob`, which the
/// free-running torture matrix sets), a yield point injects a short
/// seeded-random delay (an OS-thread yield or a bounded spin) to perturb
/// the interleaving, so each seed explores another interleaving family. The
/// decision stream hashes `(seed, global event counter, tid)` — as
/// deterministic as anything can be over real threads, where the counter
/// order itself depends on OS scheduling.
#[derive(Debug)]
pub struct OsScheduler {
    shake_prob: f64,
    seed: u64,
    /// Global event counter feeding the shake hash.
    shake_clock: AtomicU64,
}

impl OsScheduler {
    /// Creates a free-running scheduler. `shake_prob` of `0.0` makes every
    /// yield point a single branch.
    pub fn new(shake_prob: f64, seed: u64) -> Self {
        Self {
            shake_prob,
            seed,
            shake_clock: AtomicU64::new(0),
        }
    }
}

impl Scheduler for OsScheduler {
    fn register(&self, _tid: u32) {}

    fn deregister(&self, _tid: u32) {}

    #[inline]
    fn yield_point(&self, tid: u32, _kind: YieldKind) {
        let p = self.shake_prob;
        if p <= 0.0 {
            return;
        }
        let n = self.shake_clock.fetch_add(1, Ordering::Relaxed);
        let bits =
            mix64(self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((u64::from(tid) + 1) << 48));
        let u = (bits >> 11) as f64 * (1.0 / ((1u64 << 53) as f64));
        if u >= p {
            return;
        }
        if bits & 3 == 0 {
            std::thread::yield_now();
        } else {
            for _ in 0..(bits >> 2 & 0x7F) {
                std::hint::spin_loop();
            }
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        clock::wall_now()
    }

    fn wait_until(&self, _tid: u32, deadline_ns: u64) {
        let mut spins = 0u32;
        while clock::wall_now() < deadline_ns {
            spins += 1;
            if spins < 32 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_probability_never_shakes() {
        let s = OsScheduler::new(0.0, 42);
        for tid in 0..4 {
            s.yield_point(tid, YieldKind::Access);
        }
        assert_eq!(
            s.shake_clock.load(Ordering::Relaxed),
            0,
            "the off path must not touch the counter"
        );
    }

    #[test]
    fn shaking_consumes_the_event_counter() {
        let s = OsScheduler::new(1.0, 42);
        for _ in 0..8 {
            s.yield_point(0, YieldKind::Access);
        }
        assert_eq!(s.shake_clock.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn clock_is_wall_time_and_waits_complete() {
        let s = OsScheduler::new(0.0, 1);
        let t0 = s.now();
        s.wait_until(0, t0 + 100_000); // 0.1 ms
        assert!(s.now() >= t0 + 100_000);
        assert!(!s.is_deterministic());
    }
}
