//! Online statistics for experiment reporting.
//!
//! [`Welford`] accumulates a stream of observations (a run's early
//! latencies) in O(1) memory; [`Histogram`] keeps their distribution.

/// Online mean/variance accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use fortika_sim::stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.add(x);
/// }
/// assert_eq!(w.count(), 8);
/// assert!((w.mean() - 5.0).abs() < 1e-12);
/// assert!((w.variance() - 4.571428).abs() < 1e-5); // sample variance
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        self.mean += d * other.n as f64 / n as f64;
        self.m2 += other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// A log-bucketed histogram for latency distributions.
///
/// Fixed memory (log₂-spaced buckets with linear sub-buckets, ~1.5 %
/// relative resolution), O(1) insert — suitable for recording millions
/// of per-message latencies and reading off tail percentiles, which the
/// mean-based paper metrics cannot show.
///
/// # Example
///
/// ```
/// use fortika_sim::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000 {
///     h.record(v as f64);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.percentile(50.0);
/// assert!((p50 - 500.0).abs() / 500.0 < 0.05, "p50 was {p50}");
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    /// `buckets[e][s]`: values in `[2^e · (1 + s/64), 2^e · (1 + (s+1)/64))`.
    buckets: Vec<[u32; 64]>,
    underflow: u64,
    count: u64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram covering `[2^-16, 2^48)` (sub-µs to years when
    /// recording milliseconds).
    pub fn new() -> Self {
        Histogram {
            buckets: vec![[0; 64]; 64],
            underflow: 0,
            count: 0,
            max: 0.0,
        }
    }

    const MIN_EXP: i32 = -16;

    fn slot(value: f64) -> Option<(usize, usize)> {
        if !value.is_finite() || value <= 0.0 {
            return None;
        }
        let exp = value.log2().floor() as i32;
        let e = exp - Self::MIN_EXP;
        if e < 0 {
            return None; // underflow bucket
        }
        let e = (e as usize).min(63);
        let base = 2f64.powi(exp);
        let frac = ((value / base - 1.0) * 64.0) as usize;
        Some((e, frac.min(63)))
    }

    /// Records one (non-negative) observation.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        if value > self.max {
            self.max = value;
        }
        match Self::slot(value) {
            Some((e, s)) => self.buckets[e][s] += 1,
            None => self.underflow += 1,
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The value at percentile `q` (0–100), with ~1.5 % resolution.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 100.0) / 100.0) * self.count as f64).ceil() as u64;
        let mut seen = self.underflow;
        if seen >= rank {
            return 0.0;
        }
        for (e, sub) in self.buckets.iter().enumerate() {
            for (s, &c) in sub.iter().enumerate() {
                seen += u64::from(c);
                if seen >= rank {
                    let base = 2f64.powi(e as i32 + Self::MIN_EXP);
                    return base * (1.0 + (s as f64 + 0.5) / 64.0);
                }
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += *y;
            }
        }
        self.underflow += other.underflow;
        self.count += other.count;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_small_set() {
        let mut w = Welford::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.add(x);
        }
        assert_eq!(w.count(), 4);
        assert!((w.mean() - 2.5).abs() < 1e-12);
        assert!((w.variance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(w.min(), 1.0);
        assert_eq!(w.max(), 4.0);
    }

    #[test]
    fn welford_empty_and_single() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        let mut w = Welford::new();
        w.add(3.5);
        assert_eq!(w.mean(), 3.5);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.add(x);
        }
        let (left, right) = xs.split_at(37);
        let mut a = Welford::new();
        let mut b = Welford::new();
        left.iter().for_each(|&x| a.add(x));
        right.iter().for_each(|&x| b.add(x));
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Welford::new();
        a.add(1.0);
        a.add(2.0);
        let before = (a.count(), a.mean(), a.variance());
        a.merge(&Welford::new());
        assert_eq!(before, (a.count(), a.mean(), a.variance()));
        let mut e = Welford::new();
        e.merge(&a);
        assert_eq!(e.count(), 2);
    }

    #[test]
    fn histogram_percentiles_accurate() {
        let mut h = Histogram::new();
        for v in 1..=10_000 {
            h.record(v as f64 / 10.0); // 0.1 .. 1000.0
        }
        for q in [10.0, 50.0, 90.0, 99.0, 99.9] {
            let expect = q * 10.0; // uniform distribution
            let got = h.percentile(q);
            let err = (got - expect).abs() / expect;
            assert!(err < 0.03, "p{q}: got {got}, expect {expect}");
        }
        // p100 equals the max up to the bucket resolution (~1.5 %).
        let p100 = h.percentile(100.0);
        assert!(
            (p100 - h.max()).abs() / h.max() < 0.02,
            "p100 {p100} vs max {}",
            h.max()
        );
    }

    #[test]
    fn histogram_edge_cases() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0.0);
        h.record(0.0); // goes to underflow
        h.record(-1.0); // hostile input: underflow, no panic
        h.record(f64::NAN);
        assert_eq!(h.count(), 3);
        assert_eq!(h.percentile(50.0), 0.0);
        h.record(1e300); // clamps into the top bucket
        assert!(h.percentile(99.9) > 0.0);
    }

    #[test]
    fn histogram_merge_matches_combined() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in 1..500 {
            let x = (v as f64).sqrt();
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        for q in [25.0, 50.0, 75.0, 95.0] {
            assert_eq!(a.percentile(q), whole.percentile(q));
        }
    }
}
