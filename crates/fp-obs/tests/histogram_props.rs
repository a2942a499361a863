//! Property tests for the log2-bucket histogram: shard-merge invariance
//! and quantile bracketing.

use fp_obs::{bucket_index, bucket_upper_bound, Histogram, LocalHistogram};

proptest::proptest! {
    /// Splitting a value stream over any shard count and merging the
    /// per-shard histograms equals recording the whole stream into one
    /// histogram — bucket for bucket, sum for sum. This is the property
    /// the serving layer relies on when its shard workers fill
    /// `LocalHistogram`s and fold them in as they exit.
    #[test]
    fn shard_merge_equals_single_shard(
        values in proptest::collection::vec(0u64..u64::MAX, 1..400),
        shards in 1usize..9,
    ) {
        let single = Histogram::new();
        for &v in &values {
            single.record(v);
        }

        let mut locals = vec![LocalHistogram::new(); shards];
        for (i, &v) in values.iter().enumerate() {
            // Round-robin partition: any partition works, this one
            // exercises every shard.
            locals[i % shards].record(v);
        }
        let merged = Histogram::new();
        for local in &locals {
            merged.merge_local(local);
        }
        proptest::prop_assert_eq!(merged.snapshot(), single.snapshot());

        // Local-to-local merging (the other join shape) agrees too.
        let mut folded = LocalHistogram::new();
        for local in &locals {
            folded.merge(local);
        }
        proptest::prop_assert_eq!(folded.snapshot(), single.snapshot());
    }

    /// A `pXX` query brackets the true quantile to within one log2 bucket:
    /// the interpolated estimate lands in the *same* bucket as the exact
    /// rank-order statistic — never off by a whole bucket in either
    /// direction — and stays inside that bucket's true edges.
    #[test]
    fn quantiles_bracket_true_value_within_one_bucket(
        values in proptest::collection::vec(0u64..1u64 << 48, 1..500),
        q_millis in 1u64..1000,
    ) {
        let q = q_millis as f64 / 1000.0;
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();

        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];

        let reported = snap.quantile(q);
        let bucket = bucket_index(exact);
        proptest::prop_assert_eq!(
            bucket_index(reported),
            bucket,
            "q={} rank={} exact={} reported={}", q, rank, exact, reported
        );
        proptest::prop_assert!(reported <= bucket_upper_bound(bucket));
    }
}
