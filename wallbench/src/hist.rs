//! Fixed-memory latency histogram: log-linear buckets, exact counts and
//! nearest-rank percentiles.
//!
//! Values below `2^SUB_BITS` ns get a bucket each, so they are exact. Every
//! power of two above that is cut into `2^SUB_BITS` equal buckets, so a
//! bucket is never wider than 1/128 of its lower edge (< 1 % relative
//! width). The bucket array has a fixed size whatever the sample count, so
//! recording never allocates and the process's memory does not grow with
//! the number of ops.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Latency counts in nanoseconds.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

fn index(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    let sub = (ns >> shift) as usize - SUB;
    SUB + shift as usize * SUB + sub
}

/// Lower edge and width of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, 1);
    }
    let shift = (i - SUB) / SUB;
    let sub = (i - SUB) % SUB;
    (((SUB + sub) as u64) << shift, 1 << shift)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest rank of the `p`-th percentile: `ceil(p/100 * n)`,
    /// clamped to `1..=n` (0 when empty).
    pub fn rank(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        ((p / 100.0 * self.total as f64).ceil() as u64).clamp(1, self.total)
    }

    /// The nearest-rank `p`-th percentile in ns (0 when empty). Inside a
    /// bucket wider than 1 ns the rank is placed by linear interpolation,
    /// so the answer is within the bucket's width of the true sample.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
        let rank = self.rank(p);
        let mut below = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if below + c >= rank && c > 0 {
                let (lo, width) = bounds(i);
                if width == 1 {
                    return lo as f64;
                }
                let k = (rank - below) as f64;
                return lo as f64 + width as f64 * (k - 0.5) / c as f64;
            }
            below += c;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank percentile over the sorted samples.
    fn reference(sorted: &[u64], p: f64) -> u64 {
        let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn check(samples: &[u64]) {
        let mut h = Hist::default();
        for &s in samples {
            h.record(s);
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        assert_eq!(h.count(), samples.len() as u64);
        for p in [0.1, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            let want = reference(&sorted, p) as f64;
            let got = h.percentile(p);
            assert!(
                (got - want).abs() <= want * 0.01,
                "p{p}: histogram {got} vs exact {want}"
            );
        }
    }

    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn buckets_tile_the_u64_range_within_one_percent() {
        let mut prev_end = 0u128;
        for i in 0..BUCKETS {
            let (lo, width) = bounds(i);
            assert_eq!(lo as u128, prev_end, "bucket {i} leaves a gap");
            assert!(width == 1 || width as f64 <= lo as f64 * 0.01);
            assert_eq!(index(lo), i);
            assert_eq!(index(lo + (width - 1)), i);
            prev_end = lo as u128 + width as u128;
        }
        assert_eq!(prev_end, 1u128 << 64);
    }

    #[test]
    fn percentiles_match_a_sorted_reference() {
        let mut next = xorshift(0x1234_5678);
        // Log-uniform from 1 ns to ~1 s, a narrow µs band, and small exact values.
        let wide: Vec<u64> = (0..50_000)
            .map(|_| (1 + next() % 1_000_000_000) >> (next() % 30))
            .collect();
        let narrow: Vec<u64> = (0..20_000).map(|_| 1_000 + next() % 200).collect();
        let small: Vec<u64> = (0..5_000).map(|_| next() % 100).collect();
        check(&wide);
        check(&narrow);
        check(&small);
        check(&[7]);
        check(&[u64::MAX, 3, u64::MAX / 3]);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut next = xorshift(99);
        let (mut a, mut b, mut all) = (Hist::default(), Hist::default(), Hist::default());
        for i in 0..10_000 {
            let v = next() % 5_000_000;
            if i % 3 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        for p in [50.0, 99.0, 100.0] {
            assert_eq!(a.percentile(p), all.percentile(p));
        }
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Hist::default();
        assert_eq!(h.rank(99.0), 0);
        assert_eq!(h.percentile(50.0), 0.0);
    }
}
