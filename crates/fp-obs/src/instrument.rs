//! The three instruments: [`Counter`], [`Gauge`], log2-bucket
//! [`Histogram`] (plus its shard-local and snapshot forms).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Number of histogram buckets: one for the value `0` plus one per power of
/// two up to `2^63` (bucket 64 absorbs everything from `2^63` to
/// `u64::MAX`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for a recorded value: `0` for `0`, otherwise
/// `floor(log2(v)) + 1`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket — the ceiling a quantile estimate
/// interpolates up to for ranks landing in that bucket.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// A monotonic event counter: one relaxed `AtomicU64`.
///
/// Every counter in the workspace has one writer at a time — admission
/// counts on the caller's thread, store counts under the serving ring's
/// lock or in the sequential loop, blocklist and re-mine counts on the
/// arena's thread — so one atomic has no line to contend on.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable signed level (resident records, rules active).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjust the level by a signed delta.
    #[inline]
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Current level.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A lock-free log2-bucket histogram.
///
/// Recording is two relaxed atomic adds (bucket count + running sum). The
/// bucket layout is fixed at [`HISTOGRAM_BUCKETS`] slots so histograms from
/// different shards merge bucket-for-bucket with plain addition.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Fold a shard-local histogram in (bucket-wise addition).
    pub fn merge_local(&self, local: &LocalHistogram) {
        for (b, &n) in self.buckets.iter().zip(local.buckets.iter()) {
            if n != 0 {
                b.fetch_add(n, Ordering::Relaxed);
            }
        }
        if local.sum != 0 {
            self.sum.fetch_add(local.sum, Ordering::Relaxed);
        }
    }

    /// A plain-value copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A shard worker's private histogram: plain arrays, no atomics. Workers
/// fill one of these during a parallel phase and the join merges them into
/// the shared [`Histogram`], so per-request recording costs two plain adds
/// and the totals are shard-count-invariant by construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    sum: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// An empty local histogram.
    pub fn new() -> Self {
        LocalHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        // Wrapping like the shared histogram's atomic sum, so a local fill
        // merged at join equals direct shared recording bit for bit.
        self.sum = self.sum.wrapping_add(v);
    }

    /// Fold another local histogram in.
    pub fn merge(&mut self, other: &LocalHistogram) {
        for (b, &n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += n;
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// A plain-value copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets,
            sum: self.sum,
        }
    }
}

/// A plain-value histogram state: what snapshots, deltas, quantiles and
/// exposition all operate on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`bucket_index`] for the layout).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The quantile estimate for rank `max(1, ceil(q * count))`, with
    /// linear interpolation *within* the log2 bucket holding that rank:
    /// the rank's position among the bucket's occupants places it
    /// proportionally between the bucket's lower and upper bound. This
    /// keeps nearby quantiles distinguishable even when one wide bucket
    /// (e.g. `[2^27, 2^28)` ns) swallows most of the distribution —
    /// without interpolation p50/p99/p999 all collapse to that bucket's
    /// upper edge. Still bounded by the true bucket edges; `0` for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let before = cumulative;
            cumulative += n;
            if cumulative >= rank {
                if i == 0 {
                    return 0;
                }
                // Bucket i spans [2^(i-1), upper]; interpolate the rank's
                // offset among the n occupants across that span. f64 math
                // is exact for the bucket widths that matter (< 2^53) and
                // only approximate for the top bucket, which is fine for
                // an estimate already bounded by the bucket edges.
                let lower = bucket_upper_bound(i - 1) + 1;
                let upper = bucket_upper_bound(i);
                let frac = (rank - before) as f64 / n as f64;
                let span = (upper - lower) as f64;
                return lower + (frac * span) as u64;
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Fold another snapshot in (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, &n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += n;
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Bucket-wise difference against an earlier snapshot of the same
    /// histogram (saturating, so a reset histogram yields zeros rather
    /// than wrapping).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_covers_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every bucket's upper bound indexes back into the same bucket.
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i, "bucket {i}");
        }
        // Lower edges too: 2^(i-1) is the first value of bucket i.
        for i in 1..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(1u64 << (i - 1)), i, "lower edge of {i}");
        }
    }

    #[test]
    fn counter_totals_across_threads() {
        let c = std::sync::Arc::new(Counter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        c.add(5);
        assert_eq!(c.value(), 4005);
    }

    #[test]
    fn gauge_set_and_adjust() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.value(), 7);
    }

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1000);
        assert_eq!(snap.sum, 500_500);
        // Rank 500 lands in bucket [256, 511]: 255 values before it, 256
        // occupants → 256 + (245/256)·255 = 500. Interpolation recovers
        // the exact value because the occupants fill the bucket uniformly.
        assert_eq!(snap.quantile(0.5), 500);
        // Rank 990 lands in bucket [512, 1023], which values 512..=1000
        // only part-fill (489 of 512 slots): 512 + (479/489)·511 = 1012 —
        // an over-estimate of the true 990, but inside the bucket and
        // distinguishable from its neighbours.
        assert_eq!(snap.quantile(0.99), 1012);
        assert_eq!(snap.quantile(0.999), 1021);
        assert_eq!(snap.quantile(1.0), 1023);
    }

    #[test]
    fn quantiles_distinguishable_inside_one_wide_bucket() {
        // All samples land in the [2^27, 2^28) ns bucket — the exact
        // collapse BENCH_pipeline.json recorded before interpolation
        // (p50 == p99 == p999 == 268435455).
        let h = Histogram::new();
        for k in 0..1000u64 {
            h.record((1 << 27) + k * 100_000);
        }
        let snap = h.snapshot();
        let p50 = snap.quantile(0.5);
        let p99 = snap.quantile(0.99);
        let p999 = snap.quantile(0.999);
        assert!(p50 < p99 && p99 < p999, "collapsed: {p50} {p99} {p999}");
        assert!(p50 >= 1 << 27 && p999 < 1 << 28);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(Histogram::new().snapshot().quantile(0.5), 0);
    }

    #[test]
    fn local_merge_equals_shared_recording() {
        let shared = Histogram::new();
        let mut a = LocalHistogram::new();
        let mut b = LocalHistogram::new();
        for v in [0u64, 1, 7, 4096, u64::MAX] {
            shared.record(v);
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let merged = Histogram::new();
        merged.merge_local(&a);
        merged.merge_local(&b);
        assert_eq!(merged.snapshot(), shared.snapshot());
    }

    #[test]
    fn snapshot_delta_subtracts_bucketwise() {
        let h = Histogram::new();
        h.record(3);
        let earlier = h.snapshot();
        h.record(3);
        h.record(100);
        let d = h.snapshot().delta(&earlier);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum, 103);
        assert_eq!(d.buckets[bucket_index(3)], 1);
        assert_eq!(d.buckets[bucket_index(100)], 1);
    }

    /// The determinism contract: values derived from simulated ticks, not
    /// the wall clock, make every downstream artifact byte-stable.
    #[test]
    fn sim_clock_ticks_make_snapshots_deterministic() {
        let run = || {
            let h = Histogram::new();
            for step in 1..=50u64 {
                h.record((step % 7 + 1) * 1_000_000_000);
            }
            h.snapshot()
        };
        assert_eq!(run(), run());
    }
}
