//! Lightweight tracing primitives: stage spans and log-linear latency
//! histograms.
//!
//! The observability layer threads two small value types through the
//! request path:
//!
//! * [`Span`] — one named, timed stage of a request (`parse`, `plan`,
//!   `execute`, …), in microseconds of monotonic-clock time;
//! * [`Histogram`] — an HDR-style **log-linear** histogram: each power
//!   of two is split into [`SUB_BUCKETS`] equal-width sub-buckets, so
//!   relative error is bounded (≤ 25% of the value) at every scale from
//!   1 µs to `u64::MAX` while the whole histogram stays a few hundred
//!   counters. Values 0–3 get exact buckets.
//!
//! Nothing here records anywhere: a session returns its spans on the
//! response, and the service decides where they land (`rd-server` keeps
//! one registry of these histograms per event-loop shard).
//!
//! Histograms support the same `accumulate`/`since` merge algebra as the
//! engine's session counters: `accumulate` folds another histogram in
//! bucket-wise, and `since(base)` recovers the interval delta — the two
//! are exact inverses, which is what lets the per-shard registries be
//! merged into one snapshot at scrape time and windowed snapshots be
//! computed by subtraction (see the inverse-roundtrip test below).

/// Sub-buckets per power-of-two octave (4 → ≤ 25% relative error).
pub const SUB_BUCKETS: u64 = 4;

/// Highest bucket index a `u64` value can map to (see [`bucket_index`]).
const MAX_INDEX: usize = 251;

/// One timed stage of a request, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Stage name (`parse`, `plan`, `execute`, `render`, `serialize`).
    pub stage: &'static str,
    /// Monotonic-clock duration of the stage, in microseconds.
    pub micros: u64,
}

impl Span {
    /// A named span of `micros` microseconds.
    pub fn new(stage: &'static str, micros: u64) -> Self {
        Span { stage, micros }
    }
}

/// Maps a value to its log-linear bucket index.
///
/// Values 0–3 map to exact buckets 0–3; from there each octave `[2^e,
/// 2^(e+1))` is split into 4 equal sub-buckets, so index = `(e-2)*4 + 4 +
/// sub`. The scheme is monotone and gap-free: bucket `i`'s range ends
/// exactly where bucket `i+1`'s begins.
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as u64;
    let sub = (v >> (exp - 2)) & (SUB_BUCKETS - 1);
    ((exp - 2) * SUB_BUCKETS + SUB_BUCKETS + sub) as usize
}

/// Lowest value that maps to bucket `index` (inverse of [`bucket_index`]).
fn bucket_floor(index: usize) -> u64 {
    if index < SUB_BUCKETS as usize {
        return index as u64;
    }
    let octave = (index - SUB_BUCKETS as usize) as u64 / SUB_BUCKETS;
    let sub = (index - SUB_BUCKETS as usize) as u64 % SUB_BUCKETS;
    (SUB_BUCKETS << octave) + (sub << octave)
}

/// Highest value that maps to bucket `index` (the Prometheus `le` bound).
fn bucket_ceil(index: usize) -> u64 {
    if index >= MAX_INDEX {
        return u64::MAX;
    }
    bucket_floor(index + 1) - 1
}

/// A log-linear latency histogram with bounded relative error.
///
/// Buckets grow on demand, so an idle histogram is a handful of bytes
/// and even a fully populated one is ~2 KiB. All merge operations are
/// bucket-wise, making [`accumulate`](Histogram::accumulate) and
/// [`since`](Histogram::since) exact inverses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds `other` into `self` bucket-wise (the histogram analogue of
    /// `SessionStats::accumulate`).
    pub fn accumulate(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += *theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The interval delta `self − base` (the histogram analogue of
    /// `SessionStats::since`): exact inverse of
    /// [`accumulate`](Histogram::accumulate).
    pub fn since(&self, base: &Histogram) -> Histogram {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| c - base.buckets.get(i).copied().unwrap_or(0))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        Histogram {
            buckets,
            count: self.count - base.count,
            sum: self.sum.saturating_sub(base.sum),
        }
    }

    /// Estimate of the `p`-th percentile (`p` is a fraction, 0.0–1.0;
    /// out-of-range values are clamped). The rank-`⌈p·count⌉`
    /// observation's bucket is located, then the estimate interpolates
    /// linearly between the bucket's edges by the rank's position
    /// inside it — without interpolation every rank in a bucket reports
    /// the same upper edge, which collapses p50/p95/p99 onto one value
    /// whenever a histogram holds only a handful of samples. Never
    /// exceeds the observation sum (so a single sample is reported
    /// exactly). 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Ranks (seen−c, seen] live here; rank's position is
                // `pos` of `c`. 128-bit keeps the top bucket's span
                // (≈ 2^62) from overflowing the multiply.
                let pos = rank - (seen - c);
                let floor = bucket_floor(i);
                let span = (bucket_ceil(i) - floor) as u128;
                let interp = floor + (span * pos as u128 / c as u128) as u64;
                return interp.min(self.sum);
            }
        }
        bucket_ceil(self.buckets.len().saturating_sub(1))
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Iterates the non-empty buckets as `(upper_bound, count)` pairs in
    /// increasing bound order — the raw material for Prometheus-style
    /// cumulative `le` rendering (the `+Inf` bucket is implicit: its
    /// cumulative count is [`count`](Histogram::count)).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_ceil(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_gap_free() {
        // Every bucket's range must end exactly where the next begins.
        for i in 0..MAX_INDEX {
            assert_eq!(
                bucket_ceil(i) + 1,
                bucket_floor(i + 1),
                "gap between buckets {i} and {}",
                i + 1
            );
        }
        // index(floor) and index(ceil) both land back in the bucket.
        for i in 0..=MAX_INDEX {
            assert_eq!(bucket_index(bucket_floor(i)), i);
            assert_eq!(bucket_index(bucket_ceil(i)), i);
        }
        assert_eq!(bucket_index(u64::MAX), MAX_INDEX);
        // Relative error bound: the bucket holding v spans ≤ 25% of v.
        for v in [5u64, 100, 1_000, 123_456, 10_000_000_000] {
            let i = bucket_index(v);
            assert!(bucket_floor(i) <= v && v <= bucket_ceil(i));
            assert!(bucket_ceil(i) - bucket_floor(i) <= v / 4 + 1);
        }
    }

    #[test]
    fn record_count_sum_percentile() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.mean(), 50);
        // Log-linear: percentile is an upper bound within 25% of exact.
        let p50 = h.percentile(0.50);
        assert!((50..=63).contains(&p50), "p50 = {p50}");
        let p99 = h.percentile(0.99);
        assert!((99..=127).contains(&p99), "p99 = {p99}");
        assert_eq!(h.percentile(1.0), h.percentile(0.999));
    }

    /// Satellite: a handful of identical samples must not collapse
    /// p50 onto p99 — percentile interpolates within the bucket instead
    /// of reporting its ceiling for every rank it contains.
    #[test]
    fn percentiles_interpolate_within_a_bucket() {
        let mut h = Histogram::new();
        for _ in 0..3 {
            h.record(1000);
        }
        let (p50, p99) = (h.percentile(0.50), h.percentile(0.99));
        assert!(p50 < p99, "p50 {p50} must not collapse onto p99 {p99}");
        // Both estimates stay inside the recording bucket [896, 1023].
        assert!((896..=1023).contains(&p50), "p50 = {p50}");
        assert!((896..=1023).contains(&p99), "p99 = {p99}");
        // A single observation is reported exactly: the interpolated
        // edge is clamped by the observation sum.
        let mut one = Histogram::new();
        one.record(1000);
        assert_eq!(one.percentile(0.5), 1000);
        // A caller passing percent points instead of a fraction gets
        // the clamped maximum, not an arbitrary rank.
        assert_eq!(h.percentile(99.0), h.percentile(1.0));
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3] {
            h.record(v);
        }
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 1), (3, 1)]);
    }

    /// Satellite: `accumulate`/`since` are exact inverses, mirroring the
    /// `SessionStats` counter-parity tests — merging a delta in and
    /// subtracting the base back out recovers the delta bit-for-bit.
    #[test]
    fn accumulate_since_inverse_roundtrip() {
        let mut a = Histogram::new();
        for v in [3u64, 17, 900, 900, 1_000_000] {
            a.record(v);
        }
        let mut b = Histogram::new();
        for v in [1u64, 17, 40_000] {
            b.record(v);
        }
        let mut total = a.clone();
        total.accumulate(&b);
        assert_eq!(total.count(), a.count() + b.count());
        assert_eq!(total.since(&a), b, "total − a must recover b");
        assert_eq!(total.since(&b), a, "total − b must recover a");
        assert_eq!(total.since(&total), Histogram::new());
        // And the window survives further accumulation on top.
        let mut later = total.clone();
        later.record(123);
        let window = later.since(&total);
        assert_eq!(window.count(), 1);
        assert_eq!(window.sum(), 123);
    }

    #[test]
    fn nonzero_bucket_counts_sum_to_total() {
        let mut h = Histogram::new();
        for v in [0u64, 5, 5, 77, 4096, u64::MAX] {
            h.record(v);
        }
        let total: u64 = h.nonzero_buckets().map(|(_, c)| c).sum();
        assert_eq!(total, h.count());
        // Bounds strictly increase (required for cumulative `le` output).
        let bounds: Vec<u64> = h.nonzero_buckets().map(|(le, _)| le).collect();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }
}
