//! Deterministic fixed-bucket histograms for streaming aggregation.
//!
//! Fleet-scale runs cannot afford to retain one value per inference
//! just to report tail latencies, so this module provides a
//! [`FixedHistogram`]: a compile-time-fixed layout of log-spaced
//! buckets whose counters are plain `u64`s. That buys three
//! properties the fleet layer's determinism argument leans on:
//!
//! * **Exactly mergeable** — merging is element-wise integer
//!   addition, which is associative and commutative, so any merge
//!   tree (1 worker or 64) produces bit-identical counters.
//! * **Deterministic bucketing** — the bucket of a value is computed
//!   from its IEEE-754 bit pattern (exponent plus the top mantissa
//!   bits), pure integer math with no `log`/`powf` calls whose last
//!   bits could differ across platforms or compiler flags.
//! * **Bounded error** — 8 sub-buckets per octave bound the relative
//!   quantization error of any reported percentile by 2^(1/8) ≈ 9%.
//!
//! The layout spans 2⁻²⁰ s (≈ 0.95 µs) to 2⁵ s (32 s) — comfortably
//! covering XR inference latencies and deadline overruns — with an
//! underflow and an overflow bucket at the ends. Values are
//! unit-agnostic; this crate uses seconds and unit scores.

/// Sub-bucket resolution: `2^SUB_BITS` buckets per octave.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Smallest resolved exponent: values below 2^MIN_EXP land in the
/// underflow bucket (reported as 0 by percentiles).
const MIN_EXP: i32 = -20;
/// Largest resolved exponent: values at or above 2^MAX_EXP land in
/// the overflow bucket.
const MAX_EXP: i32 = 5;
/// Resolved octaves.
const OCTAVES: usize = (MAX_EXP - MIN_EXP) as usize;

/// Total bucket count: resolved buckets plus underflow and overflow.
pub const NUM_BUCKETS: usize = OCTAVES * SUBS + 2;

/// The three percentiles the fleet report quotes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Median (upper bucket edge).
    pub p50: f64,
    /// 95th percentile (upper bucket edge).
    pub p95: f64,
    /// 99th percentile (upper bucket edge).
    pub p99: f64,
}

/// A streaming, exactly-mergeable histogram over a fixed log-spaced
/// bucket layout.
///
/// ```
/// use xrbench_score::FixedHistogram;
///
/// let mut h = FixedHistogram::new();
/// for v in [0.001, 0.002, 0.002, 0.050] {
///     h.record(v);
/// }
/// let q = h.quantiles();
/// assert!(q.p50 >= 0.002 && q.p50 < 0.00225); // within one sub-bucket
/// assert!(q.p99 >= 0.050 && q.p99 < 0.057);
/// assert_eq!(h.count(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedHistogram {
    counts: Vec<u64>,
    count: u64,
}

impl Default for FixedHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket a value belongs to, from its IEEE-754 bit pattern.
fn bucket_of(v: f64) -> usize {
    debug_assert!(
        v.is_finite() && v >= 0.0,
        "histogram values must be finite and non-negative"
    );
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    if exp < MIN_EXP || v == 0.0 {
        return 0;
    }
    if exp >= MAX_EXP {
        return NUM_BUCKETS - 1;
    }
    let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    1 + (exp - MIN_EXP) as usize * SUBS + sub
}

/// The exclusive upper edge of a resolved bucket; the underflow bucket
/// reports 0 (its values are below the layout's resolution) and the
/// overflow bucket reports infinity.
fn upper_edge(idx: usize) -> f64 {
    if idx == 0 {
        return 0.0;
    }
    if idx >= NUM_BUCKETS - 1 {
        return f64::INFINITY;
    }
    let i = idx - 1;
    let exp = MIN_EXP + (i / SUBS) as i32;
    let sub = (i % SUBS) as f64;
    2.0f64.powi(exp) * (1.0 + (sub + 1.0) / SUBS as f64)
}

/// A bucket's representative midpoint, used when integrating a score
/// function over the distribution.
fn midpoint(idx: usize) -> f64 {
    if idx == 0 {
        return 2.0f64.powi(MIN_EXP - 1);
    }
    if idx >= NUM_BUCKETS - 1 {
        return 2.0f64.powi(MAX_EXP + 1);
    }
    let i = idx - 1;
    let exp = MIN_EXP + (i / SUBS) as i32;
    let sub = (i % SUBS) as f64;
    2.0f64.powi(exp) * (1.0 + (sub + 0.5) / SUBS as f64)
}

impl FixedHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
        }
    }

    /// Records one value.
    ///
    /// # Panics
    ///
    /// Panics if `v` is negative or not finite.
    pub fn record(&mut self, v: f64) {
        assert!(
            v.is_finite() && v >= 0.0,
            "histogram values must be finite and non-negative, got {v}"
        );
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The raw bucket counters, in layout order (underflow, resolved
    /// buckets, overflow). Exactly [`NUM_BUCKETS`] entries. Together
    /// with [`FixedHistogram::from_buckets`] this lets a histogram
    /// cross a process boundary losslessly.
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// Rebuilds a histogram from raw bucket counters previously read
    /// via [`FixedHistogram::buckets`]. Returns `None` unless exactly
    /// [`NUM_BUCKETS`] counters are supplied and their sum fits a
    /// `u64`; the total count is recomputed as that sum, so the round
    /// trip is exact.
    pub fn from_buckets(buckets: &[u64]) -> Option<Self> {
        if buckets.len() != NUM_BUCKETS {
            return None;
        }
        Some(Self {
            counts: buckets.to_vec(),
            count: buckets
                .iter()
                .try_fold(0u64, |sum, &b| sum.checked_add(b))?,
        })
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merges another histogram into this one — element-wise integer
    /// addition, so merging is associative, commutative, and exact.
    ///
    /// # Panics
    ///
    /// Panics if the total count would overflow `u64`;
    /// [`FixedHistogram::checked_merge`] reports that instead.
    pub fn merge(&mut self, other: &FixedHistogram) {
        self.checked_merge(other)
            .expect("a histogram count overflows u64");
    }

    /// [`FixedHistogram::merge`], or `None` with this histogram
    /// unchanged when the total count would overflow `u64`. Every
    /// histogram's count is the sum of its buckets, so no bucket can
    /// overflow when the total does not.
    #[must_use]
    pub fn checked_merge(&mut self, other: &FixedHistogram) -> Option<()> {
        self.count = self.count.checked_add(other.count)?;
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        Some(())
    }

    /// The `q`-quantile (`q` in `(0, 1]`) as the upper edge of the
    /// bucket holding the rank-`⌈q·count⌉` value — a deterministic
    /// overestimate within one sub-bucket (≈9% relative). Returns 0
    /// for an empty histogram or when the rank falls in the underflow
    /// bucket; returns infinity only when it falls in the overflow
    /// bucket (callers typically clamp with a tracked maximum).
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `(0, 1]`.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1], got {q}");
        if self.count == 0 {
            return 0.0;
        }
        // ceil(q * count), branch-free against float edge cases.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return upper_edge(idx);
            }
        }
        unreachable!("cumulative count reaches self.count");
    }

    /// The p50/p95/p99 triple.
    pub fn quantiles(&self) -> Quantiles {
        Quantiles {
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
        }
    }

    /// Aggregate scoring from the histogram alone: the expected value
    /// of `score` over the recorded distribution, evaluating `score`
    /// once per non-empty bucket at its midpoint. This is how a fleet
    /// scores millions of inferences without retaining them — e.g.
    /// `h.expected_score(|lat| rt_score(lat, slack, params))` — with
    /// the same ≈9% per-bucket quantization bound as the percentiles.
    /// Returns 0 for an empty histogram.
    pub fn expected_score(&self, score: impl Fn(f64) -> f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mut sum = 0.0;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                sum += c as f64 * score(midpoint(idx));
            }
        }
        sum / self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_in_value() {
        let mut last = 0;
        let mut v = 1e-7;
        while v < 64.0 {
            let b = bucket_of(v);
            assert!(b >= last, "bucket regressed at {v}");
            last = b;
            v *= 1.07;
        }
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(1e-9), 0);
        assert_eq!(bucket_of(100.0), NUM_BUCKETS - 1);
    }

    #[test]
    fn upper_edges_bound_their_bucket() {
        for v in [1e-5, 0.001, 0.0163, 0.25, 1.0, 7.5] {
            let b = bucket_of(v);
            assert!(v < upper_edge(b), "value {v} above its edge");
            // And the edge is within one sub-bucket (factor 2^(1/8)
            // loosened to ×1.15) of the value.
            assert!(upper_edge(b) <= v * 1.15, "edge too loose for {v}");
        }
    }

    #[test]
    fn percentile_walks_the_distribution() {
        let mut h = FixedHistogram::new();
        for _ in 0..99 {
            h.record(0.001);
        }
        h.record(1.0);
        assert!(h.percentile(0.5) < 0.0012);
        assert!(h.percentile(0.99) < 0.0012);
        assert!(h.percentile(1.0) >= 1.0);
        let q = h.quantiles();
        assert!(q.p50 < 0.0012 && q.p95 < 0.0012 && q.p99 < 0.0012);
    }

    #[test]
    fn merge_is_exact_and_commutative() {
        let mut a = FixedHistogram::new();
        let mut b = FixedHistogram::new();
        for i in 1..200u32 {
            a.record(f64::from(i) * 1e-4);
            b.record(f64::from(i) * 3e-3);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), a.count() + b.count());
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = FixedHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.99), 0.0);
        assert_eq!(h.expected_score(|_| 1.0), 0.0);
        let mut m = FixedHistogram::new();
        m.merge(&h);
        assert!(m.is_empty());
    }

    #[test]
    fn expected_score_integrates_midpoints() {
        let mut h = FixedHistogram::new();
        for _ in 0..10 {
            h.record(0.004);
        }
        // A step function that is 1 below 10 ms: every bucket midpoint
        // for 4 ms values sits below 10 ms.
        let s = h.expected_score(|v| if v < 0.010 { 1.0 } else { 0.0 });
        assert_eq!(s, 1.0);
        // Through the real sigmoid, scores stay in [0, 1].
        let params = crate::RtParams::default();
        let rt = h.expected_score(|lat| crate::rt_score(lat, 0.010, params));
        assert!((0.0..=1.0).contains(&rt));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_values_rejected() {
        FixedHistogram::new().record(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_rejected() {
        FixedHistogram::new().record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn infinity_rejected() {
        FixedHistogram::new().record(f64::INFINITY);
    }

    #[test]
    fn negative_zero_lands_in_the_underflow_bucket() {
        let mut h = FixedHistogram::new();
        h.record(-0.0);
        h.record(0.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(1.0), 0.0);
        // Bucketing is sign-of-zero blind, so merge order can't leak
        // which worker saw the −0.0.
        let mut a = FixedHistogram::new();
        a.record(-0.0);
        let mut b = FixedHistogram::new();
        b.record(0.0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn zero_quantile_rejected() {
        let _ = FixedHistogram::new().percentile(0.0);
    }

    #[test]
    fn buckets_round_trip_exactly() {
        let mut h = FixedHistogram::new();
        for v in [0.0005, 0.002, 0.002, 0.050, 1.5, 100.0] {
            h.record(v);
        }
        let rebuilt = FixedHistogram::from_buckets(h.buckets()).unwrap();
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.count(), h.count());
        // Wrong layout length is rejected, not silently padded.
        assert!(FixedHistogram::from_buckets(&[0; NUM_BUCKETS - 1]).is_none());
        assert!(FixedHistogram::from_buckets(&[]).is_none());
    }
}
