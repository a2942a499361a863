//! `fp-obs` — the workspace's observability substrate.
//!
//! Everything the hot path records goes through three instruments, all
//! lock-free on the record side and mergeable across shards:
//!
//! * [`Counter`] — a monotonic event count in one relaxed atomic: every
//!   counter has one writer at a time, so there is nothing to stripe.
//! * [`Gauge`] — a settable signed level (resident records, active rules).
//! * [`Histogram`] — a fixed 65-slot log2-bucket distribution (bucket 0
//!   holds the value 0; bucket *i* covers `[2^(i-1), 2^i - 1]`). Recording
//!   is two relaxed atomic adds; percentiles come from an exact bucket-count
//!   walk over a [`HistogramSnapshot`], so `p50/p90/p99/p999` are upper
//!   bounds tight to one log2 bucket. [`LocalHistogram`] is the plain-array
//!   form a shard worker fills privately and merges at stream join —
//!   merging per-shard histograms is bucket-wise addition, so any shard
//!   count aggregates to identical totals.
//!
//! Instruments live in a [`MetricsRegistry`] keyed by name: callers
//! resolve a name to an `Arc` handle once and record through the handle,
//! so the hot path never looks a name up. A registry
//! [`ObsSnapshot`] is a plain, name-sorted value — subtract two with
//! [`ObsSnapshot::delta`] to get a per-round view ([`RoundObs`]).
//!
//! Exposition is deliberately boring: [`expose::render_text`] prints the
//! Prometheus text format, [`expose::ledger`] prints one greppable
//! `obs[name] ...` line per metric (the same ledger discipline as the
//! `runfp[...]` fingerprint lines), and [`expose::parse_text`] reads the
//! text format back for self-checks and CI assertions.
//!
//! Determinism contract: instruments hold no clock. Feed them wall-clock
//! durations and snapshots vary run to run; feed them simulated-time
//! ticks and every snapshot, ledger line and rendered exposition is
//! byte-stable. That is why execution-time metrics stay **out** of the
//! `RUNFP_V1` `behavior` fold — they are an execution parameter, like the
//! shard count.

#![deny(missing_docs)]

pub mod expose;
pub mod instrument;
pub mod registry;

pub use instrument::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, LocalHistogram,
    HISTOGRAM_BUCKETS,
};
pub use registry::{Instrument, MetricValue, MetricsRegistry, ObsSnapshot, RoundObs, Value};
