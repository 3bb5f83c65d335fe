//! Per-section critical-section duration estimation (§3.2 of the paper).
//!
//! SpRWL's scheduling schemes need to predict when an active writer (or
//! reader) will finish. The paper samples execution times on a single
//! thread (to keep overhead off the hot path of all others), maintains an
//! exponential moving average per critical-section identifier, and turns
//! it into an *expected end time* by adding the current timestamp counter.
//!
//! Two deliberate departures from a naive reading of the paper:
//!
//! * **Unsampled sections get a default estimate.** Until the first sample
//!   lands, a bare `now + 0` end time would advertise "I finish
//!   immediately", silently degrading δ-timed writer starts to "start now"
//!   for the whole warm-up window. [`DurationEstimator::estimate`] returns
//!   a fixed floor instead (see
//!   [`DEFAULT_SECTION_ESTIMATE_NS`]); [`DurationEstimator::duration`]
//!   still exposes the raw 0 for callers that want "no prediction".
//! * **The sampler is promoted, not hard-wired.** The paper samples on one
//!   thread; the original code pinned that to tid 0, so harnesses whose
//!   thread 0 is a coordinator that never enters a section recorded no
//!   samples at all and both scheduling schemes ran blind. The first
//!   thread that actually records a section claims the sampler role (one
//!   CAS on the cold path), which is tid 0 whenever tid 0 does real work —
//!   identical behaviour for every existing harness.

use std::sync::atomic::{AtomicU64, Ordering};

use htm_sim::clock;
use sprwl_locks::SectionId;

/// EWMA weight for new samples (numerator over [`ALPHA_DEN`]): ¼, quick to
/// react to workload shifts yet stable.
const ALPHA_NUM: u64 = 1;
const ALPHA_DEN: u64 = 4;

/// Estimate used for sections that have never been sampled, in
/// nanoseconds. One virtual microsecond: long enough that a δ-timed writer
/// start is a real wait rather than a no-op, short enough to be washed out
/// by the first real sample.
pub const DEFAULT_SECTION_ESTIMATE_NS: u64 = 1_000;

/// Sampler slot value meaning "no thread has claimed the role yet".
const NO_SAMPLER: u64 = u64::MAX;

#[derive(Debug)]
#[repr(align(64))]
struct Ewma(AtomicU64);

/// Lock-free per-section duration estimator.
#[derive(Debug)]
pub struct DurationEstimator {
    sections: Box<[Ewma]>,
    /// The promoted single-sampler tid ([`NO_SAMPLER`] until the first
    /// record).
    sampler: AtomicU64,
}

impl DurationEstimator {
    /// Creates an estimator for section ids `0..max_sections` with the
    /// [`DEFAULT_SECTION_ESTIMATE_NS`] floor.
    ///
    /// # Panics
    ///
    /// Panics if `max_sections` is zero.
    pub fn new(max_sections: usize) -> Self {
        assert!(max_sections > 0, "need at least one section slot");
        let mut v = Vec::with_capacity(max_sections);
        v.resize_with(max_sections, || Ewma(AtomicU64::new(0)));
        Self {
            sections: v.into_boxed_slice(),
            sampler: AtomicU64::new(NO_SAMPLER),
        }
    }

    /// The promoted sampler, if the role has been claimed.
    pub fn sampler(&self) -> Option<usize> {
        match self.sampler.load(Ordering::Relaxed) {
            NO_SAMPLER => None,
            s => Some(s as usize),
        }
    }

    /// Records one observed duration for `sec`, if `tid` samples. The
    /// first recording thread claims the single-sampler role.
    ///
    /// # Panics
    ///
    /// Panics if `sec` is out of the configured range.
    pub fn record(&self, tid: usize, sec: SectionId, duration_ns: u64) {
        let me = tid as u64;
        let claimed = match self.sampler.load(Ordering::Relaxed) {
            NO_SAMPLER => match self.sampler.compare_exchange(
                NO_SAMPLER,
                me,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => me,
                Err(winner) => winner,
            },
            s => s,
        };
        if claimed != me {
            return;
        }
        let slot = &self.sections[sec.index()].0;
        // Racy read-modify-write is fine: samples are statistical and the
        // paper's single-sampler design makes races rare by construction.
        let old = slot.load(Ordering::Relaxed);
        let new = if old == 0 {
            duration_ns
        } else {
            (ALPHA_NUM * duration_ns + (ALPHA_DEN - ALPHA_NUM) * old) / ALPHA_DEN
        };
        slot.store(new.max(1), Ordering::Relaxed);
    }

    /// The raw duration estimate for `sec`, in nanoseconds (0 when no
    /// sample has been recorded yet — "no prediction").
    ///
    /// # Panics
    ///
    /// Panics if `sec` is out of the configured range.
    pub fn duration(&self, sec: SectionId) -> u64 {
        self.sections[sec.index()].0.load(Ordering::Relaxed)
    }

    /// The working duration estimate for `sec`: the EWMA when sampled, the
    /// configured default otherwise. Scheduling maths (δ resolution,
    /// advertised end times) should use this, never a bare 0.
    pub fn estimate(&self, sec: SectionId) -> u64 {
        match self.duration(sec) {
            0 => DEFAULT_SECTION_ESTIMATE_NS,
            d => d,
        }
    }

    /// `estimateEndTime()` of the paper: now + expected duration (the
    /// defaulted [`DurationEstimator::estimate`], so a never-sampled
    /// section still advertises a plausible end time instead of "ends
    /// now").
    pub fn end_time(&self, sec: SectionId) -> u64 {
        clock::now() + self.estimate(sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_seeds_the_average() {
        let e = DurationEstimator::new(4);
        assert_eq!(e.duration(SectionId(0)), 0);
        e.record(0, SectionId(0), 1000);
        assert_eq!(e.duration(SectionId(0)), 1000);
    }

    #[test]
    fn ewma_converges_towards_new_regime() {
        let e = DurationEstimator::new(4);
        e.record(0, SectionId(1), 1000);
        for _ in 0..32 {
            e.record(0, SectionId(1), 3000);
        }
        let d = e.duration(SectionId(1));
        assert!((2800..=3000).contains(&d), "did not converge: {d}");
    }

    #[test]
    fn ewma_damps_outliers() {
        let e = DurationEstimator::new(4);
        for _ in 0..8 {
            e.record(0, SectionId(0), 1000);
        }
        e.record(0, SectionId(0), 100_000);
        let d = e.duration(SectionId(0));
        assert!(d < 30_000, "one outlier dominated: {d}");
        assert!(d > 1000);
    }

    #[test]
    fn first_recorder_claims_the_single_sampler_role() {
        let e = DurationEstimator::new(4);
        assert_eq!(e.sampler(), None, "role unclaimed: anyone may");
        e.record(0, SectionId(0), 1_000);
        assert_eq!(e.sampler(), Some(0), "tid 0 recorded first, as usual");
        e.record(3, SectionId(0), 5_000);
        assert_eq!(e.duration(SectionId(0)), 1_000, "non-sampler ignored");
        assert_eq!(e.sampler(), Some(0), "tid 3 did not take the role");
    }

    #[test]
    fn coordinator_zero_promotes_first_section_thread() {
        // tid 0 is a coordinator that never enters a section: the first
        // thread that *does* record becomes the sampler instead of the
        // estimator staying blind forever.
        let e = DurationEstimator::new(4);
        e.record(2, SectionId(0), 7_000);
        assert_eq!(e.sampler(), Some(2));
        assert_eq!(e.duration(SectionId(0)), 7_000);
        e.record(0, SectionId(0), 1);
        assert_eq!(
            e.duration(SectionId(0)),
            7_000,
            "the late coordinator does not unseat the promoted sampler"
        );
        assert_eq!(e.sampler(), Some(2));
    }

    #[test]
    fn sections_are_independent() {
        let e = DurationEstimator::new(4);
        e.record(0, SectionId(0), 100);
        e.record(0, SectionId(1), 9_000);
        assert_eq!(e.duration(SectionId(0)), 100);
        assert_eq!(e.duration(SectionId(1)), 9_000);
    }

    #[test]
    fn unsampled_sections_estimate_the_default() {
        let e = DurationEstimator::new(4);
        assert_eq!(e.duration(SectionId(0)), 0, "raw view: no prediction");
        assert_eq!(e.estimate(SectionId(0)), DEFAULT_SECTION_ESTIMATE_NS);
        let before = clock::now();
        assert!(
            e.end_time(SectionId(0)) >= before + DEFAULT_SECTION_ESTIMATE_NS,
            "first-writer-before-first-sample window: end time must not \
             degrade to bare now()"
        );
        e.record(0, SectionId(0), 250);
        assert_eq!(e.estimate(SectionId(0)), 250, "real sample replaces it");
    }

    #[test]
    fn end_time_is_in_the_future_by_the_estimate() {
        let e = DurationEstimator::new(4);
        e.record(0, SectionId(0), 1_000_000);
        let before = clock::now();
        let end = e.end_time(SectionId(0));
        assert!(end >= before + 1_000_000);
    }

    #[test]
    #[should_panic]
    fn out_of_range_section_panics() {
        let e = DurationEstimator::new(2);
        e.record(0, SectionId(2), 1);
    }
}
