//! The bounded-memory retention contract.
//!
//! Every layer that holds records used to grow without bound: the store
//! kept every admitted request forever, and a re-mining defender's
//! training window accumulated the seed pool plus each round's records
//! until the end of time. A production engine serving heavy traffic
//! cannot — and, per the §6 arms race, *should not*: rules re-mined over
//! a staleness-polluted window pay ever-growing scan spend for
//! fingerprints the fleet mutated away rounds ago.
//!
//! This module is the contract the storage layer and the defender
//! lifecycle share:
//!
//! * [`Epoch`] — a monotonically increasing segment label. The store
//!   appends into the *active* epoch; sealing closes it (one seal per
//!   arena round, or per N requests in single-shot mode) and starts the
//!   next. Segments are immutable once sealed, so retention is a
//!   wholesale decision per segment — no tombstones on eviction.
//! * [`RetentionPolicy`] — what happens to sealed segments as new epochs
//!   arrive: [`RetentionPolicy::KeepAll`] (the exact pre-refactor
//!   behaviour, and the default), [`RetentionPolicy::SlidingWindow`]
//!   (drop whole segments older than the window — peak resident records
//!   are bounded by the window's worth of traffic), and
//!   [`RetentionPolicy::SampledDecay`] (deterministically subsample a
//!   segment as it ages, keeping a long-tail memory floor).
//! * [`SegmentStats`] — the eviction/spend ledger a seal reports:
//!   records and segments evicted, resident records after the seal, and
//!   the peak residency high-water mark.
//! * [`RecordView`] — the epoch-aware replacement for the store's old
//!   contiguous `&[StoredRequest]` slice: an ordered list of segment
//!   slices that iterates in arrival order. Everything that used to walk
//!   one flat slice (re-mining, evaluation, round bookkeeping) walks a
//!   view instead, so a store whose middle epochs were evicted still
//!   presents one arrival-ordered stream.
//! * [`SegmentId`] — the identity of one sealed segment's exact contents,
//!   carried by store-built views next to each sealed slice. A consumer
//!   that derives something per segment (the re-miner's pair-count
//!   summaries) keys it on the id: same id, same records.

use crate::mix::{mix2, unit_f64};
use crate::request::RequestId;
use crate::stored::StoredRequest;
use std::sync::atomic::{AtomicU64, Ordering};

/// Salt for the deterministic per-record survival key used by
/// [`RetentionPolicy::SampledDecay`].
const DECAY_SALT: u64 = 0x00DE_CAF0_5A17;

/// A monotonically increasing segment label: the store's unit of sealing
/// and eviction. Epoch 0 is the first (seed) segment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Epoch(pub u32);

impl Epoch {
    /// The label of the next epoch.
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }
}

impl std::fmt::Display for Epoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "epoch {}", self.0)
    }
}

/// What a store does with sealed segments as new epochs arrive.
///
/// Applied at every [seal]: the just-sealed segment always survives its
/// own seal (age 0), older segments are evicted or decayed according to
/// the policy. All decisions are deterministic functions of epoch ages
/// and record ids, so retention is shard-invariant and replays
/// identically.
///
/// [seal]: RetentionPolicy#sealing
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum RetentionPolicy {
    /// Keep every record of every epoch forever — the exact pre-refactor
    /// behaviour, and the default. Resident records grow linearly with
    /// ingest.
    #[default]
    KeepAll,
    /// Keep only the most recent `epochs` sealed segments; older segments
    /// are dropped wholesale (no tombstones). Peak resident records are
    /// bounded by `epochs` worth of traffic plus the active segment.
    /// `epochs` is clamped to ≥ 1.
    SlidingWindow {
        /// How many sealed epochs stay resident.
        epochs: u32,
    },
    /// Deterministically subsample a segment as it ages: a segment of age
    /// `a` (seals since it was sealed, 0 = just sealed) retains about
    /// `keep_rate^a` of its records — but never fewer than `floor`
    /// records, so old epochs thin out without ever vanishing (a
    /// long-tail memory for slow-moving fingerprints). Survival is keyed
    /// on the record id, so the kept set at age `a+1` is a subset of the
    /// kept set at age `a` and identical across shard counts.
    SampledDecay {
        /// Fraction of a segment's records surviving each additional
        /// epoch of age (clamped to [0, 1]).
        keep_rate: f64,
        /// Minimum records a decayed segment retains (0 lets segments
        /// decay away entirely).
        floor: usize,
    },
}

impl RetentionPolicy {
    /// Display name for reports and ablation tables.
    pub fn name(&self) -> &'static str {
        match self {
            RetentionPolicy::KeepAll => "keep-all",
            RetentionPolicy::SlidingWindow { .. } => "sliding-window",
            RetentionPolicy::SampledDecay { .. } => "sampled-decay",
        }
    }

    /// Is a sealed segment of `age` (seals since it was sealed; the
    /// just-sealed segment has age 0) evicted wholesale under this
    /// policy?
    pub fn evicts_segment(&self, age: u32) -> bool {
        match self {
            RetentionPolicy::KeepAll | RetentionPolicy::SampledDecay { .. } => false,
            RetentionPolicy::SlidingWindow { epochs } => age >= (*epochs).max(1),
        }
    }

    /// The fraction of a segment's records surviving at `age` under this
    /// policy (before the [`RetentionPolicy::SampledDecay`] floor is
    /// applied). 1.0 for non-decaying policies.
    pub fn survival_rate(&self, age: u32) -> f64 {
        match self {
            RetentionPolicy::SampledDecay { keep_rate, .. } => {
                keep_rate.clamp(0.0, 1.0).powi(age as i32)
            }
            _ => 1.0,
        }
    }

    /// The decay floor: the minimum records a decayed segment retains.
    /// `None` for policies that never decay within a segment.
    pub fn decay_floor(&self) -> Option<usize> {
        match self {
            RetentionPolicy::SampledDecay { floor, .. } => Some(*floor),
            _ => None,
        }
    }

    /// The deterministic survival key of one record: records with smaller
    /// keys survive longer under [`RetentionPolicy::SampledDecay`]
    /// (a record survives age `a` iff its key is below
    /// [`RetentionPolicy::survival_rate`]`(a)` or it ranks within the
    /// floor). Exposed so stores and tests agree on the sampling.
    pub fn survival_key(id: RequestId) -> f64 {
        unit_f64(mix2(id, DECAY_SALT))
    }
}

/// The eviction/spend ledger of the epoch-segmented store: what one seal
/// evicted (or, accumulated, what a whole campaign's retention cost and
/// saved). The defender-spend columns of the arena trajectory carry these
/// numbers per round, next to the retraining spend they bound.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Epochs sealed so far (or by this seal: 1).
    pub epochs_sealed: u64,
    /// Whole segments dropped by retention.
    pub segments_evicted: u64,
    /// Records dropped by retention (whole-segment eviction and
    /// within-segment decay combined).
    pub records_evicted: u64,
    /// Records resident after the (last) seal.
    pub resident_records: u64,
    /// High-water mark of resident records observed at seal time.
    pub peak_resident_records: u64,
}

impl SegmentStats {
    /// Merge another seal's ledger into this cumulative one: counters
    /// sum, `resident_records` takes the newer snapshot, the peak takes
    /// the maximum.
    pub fn absorb(&mut self, seal: SegmentStats) {
        self.epochs_sealed += seal.epochs_sealed;
        self.segments_evicted += seal.segments_evicted;
        self.records_evicted += seal.records_evicted;
        self.resident_records = seal.resident_records;
        self.peak_resident_records = self.peak_resident_records.max(seal.peak_resident_records);
    }
}

/// The identity of one sealed store segment's exact contents: drawn from
/// a process-wide counter when the segment is sealed, and drawn afresh
/// whenever retention edits the segment in place
/// ([`RetentionPolicy::SampledDecay`]). Two views showing the same id
/// show the same records, so anything derived from a segment can be
/// cached under its id; whole-segment eviction retires the id for good.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SegmentId(u64);

impl SegmentId {
    /// A process-unique id, never handed out before.
    pub fn fresh() -> SegmentId {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        SegmentId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// An arrival-ordered view over the resident records of an
/// epoch-segmented store: an ordered list of segment slices. The
/// epoch-aware replacement for the old contiguous `&[StoredRequest]`
/// slice — iteration crosses segment boundaries transparently, and a
/// store whose older epochs were evicted still presents one ordered
/// stream of what *remains*.
///
/// Each segment may carry a [`SegmentId`]: a store labels its sealed
/// segments ([`RecordView::labelled`]); slices handed in by
/// [`RecordView::new`] / [`RecordView::from_slice`], and a store's
/// still-growing active segment, carry none.
#[derive(Clone, Debug, Default)]
pub struct RecordView<'a> {
    segments: Vec<&'a [StoredRequest]>,
    /// Parallel to `segments`.
    ids: Vec<Option<SegmentId>>,
}

impl<'a> RecordView<'a> {
    /// A view over the given (unlabelled) segment slices, in arrival order.
    pub fn new(segments: Vec<&'a [StoredRequest]>) -> RecordView<'a> {
        let ids = vec![None; segments.len()];
        RecordView { segments, ids }
    }

    /// A view over segment slices, in arrival order, each with its
    /// identity (`None` for a segment whose contents may still change).
    pub fn labelled(segments: Vec<(Option<SegmentId>, &'a [StoredRequest])>) -> RecordView<'a> {
        let (ids, segments) = segments.into_iter().unzip();
        RecordView { segments, ids }
    }

    /// An empty view.
    pub fn empty() -> RecordView<'a> {
        RecordView::default()
    }

    /// A single-segment view over one contiguous slice (the pre-refactor
    /// shape; what a never-sealed store presents).
    pub fn from_slice(records: &'a [StoredRequest]) -> RecordView<'a> {
        RecordView::new(vec![records])
    }

    /// Total records visible through the view.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(|s| s.is_empty())
    }

    /// Number of (possibly empty) segments backing the view.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The backing segment slices, in arrival order.
    pub fn segments(&self) -> &[&'a [StoredRequest]] {
        &self.segments
    }

    /// The backing segment slices with their identities, in arrival order.
    pub fn labelled_segments(
        &self,
    ) -> impl Iterator<Item = (Option<SegmentId>, &'a [StoredRequest])> + '_ {
        self.ids.iter().copied().zip(self.segments.iter().copied())
    }

    /// All records in arrival order, crossing segment boundaries.
    pub fn iter(&self) -> impl Iterator<Item = &'a StoredRequest> + '_ {
        self.segments.iter().flat_map(|s| s.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::VerdictSet;
    use crate::{sym, AttrId, Fingerprint, ServiceId, SimTime, TrafficSource};

    fn record(id: RequestId) -> StoredRequest {
        StoredRequest {
            id,
            time: SimTime::EPOCH,
            site_token: sym("t"),
            ip_hash: id,
            ip_offset_minutes: 0,
            ip_region: sym("United States of America/California"),
            ip_lat: 0.0,
            ip_lon: 0.0,
            asn: 1,
            asn_flagged: false,
            ip_blocklisted: false,
            tor_exit: false,
            cookie: id,
            fingerprint: Fingerprint::new().with(AttrId::UaDevice, "iPhone"),
            tls: crate::TlsFacet::unobserved(),
            behavior: crate::BehaviorTrace::silent(),
            cadence: crate::BehaviorFacet::unobserved(),
            source: TrafficSource::Bot(ServiceId(1)),
            verdicts: VerdictSet::new(),
        }
    }

    #[test]
    fn epochs_advance_and_display() {
        let e = Epoch::default();
        assert_eq!(e.0, 0);
        assert_eq!(e.next(), Epoch(1));
        assert_eq!(Epoch(3).to_string(), "epoch 3");
    }

    #[test]
    fn keep_all_is_the_default_and_never_evicts() {
        let policy = RetentionPolicy::default();
        assert_eq!(policy, RetentionPolicy::KeepAll);
        assert_eq!(policy.name(), "keep-all");
        for age in 0..100 {
            assert!(!policy.evicts_segment(age));
            assert_eq!(policy.survival_rate(age), 1.0);
        }
        assert_eq!(policy.decay_floor(), None);
    }

    #[test]
    fn sliding_window_evicts_by_age() {
        let policy = RetentionPolicy::SlidingWindow { epochs: 2 };
        assert!(!policy.evicts_segment(0), "the just-sealed segment stays");
        assert!(!policy.evicts_segment(1));
        assert!(policy.evicts_segment(2));
        assert!(policy.evicts_segment(50));
        assert_eq!(policy.survival_rate(50), 1.0, "no within-segment decay");
        // A zero-width window is clamped to one epoch.
        let degenerate = RetentionPolicy::SlidingWindow { epochs: 0 };
        assert!(!degenerate.evicts_segment(0));
        assert!(degenerate.evicts_segment(1));
    }

    #[test]
    fn sampled_decay_halves_per_age_and_floors() {
        let policy = RetentionPolicy::SampledDecay {
            keep_rate: 0.5,
            floor: 10,
        };
        assert!(
            !policy.evicts_segment(99),
            "decay never drops whole segments"
        );
        assert_eq!(policy.survival_rate(0), 1.0);
        assert!((policy.survival_rate(1) - 0.5).abs() < 1e-12);
        assert!((policy.survival_rate(3) - 0.125).abs() < 1e-12);
        assert_eq!(policy.decay_floor(), Some(10));
        // Survival keys are deterministic, unit-interval, and id-keyed.
        let k = RetentionPolicy::survival_key(7);
        assert_eq!(k, RetentionPolicy::survival_key(7));
        assert!((0.0..1.0).contains(&k));
        assert_ne!(k, RetentionPolicy::survival_key(8));
    }

    #[test]
    fn segment_stats_absorb_sums_and_peaks() {
        let mut total = SegmentStats::default();
        total.absorb(SegmentStats {
            epochs_sealed: 1,
            segments_evicted: 0,
            records_evicted: 0,
            resident_records: 100,
            peak_resident_records: 100,
        });
        total.absorb(SegmentStats {
            epochs_sealed: 1,
            segments_evicted: 1,
            records_evicted: 40,
            resident_records: 60,
            peak_resident_records: 100,
        });
        assert_eq!(total.epochs_sealed, 2);
        assert_eq!(total.segments_evicted, 1);
        assert_eq!(total.records_evicted, 40);
        assert_eq!(total.resident_records, 60, "resident is a snapshot");
        assert_eq!(
            total.peak_resident_records, 100,
            "peak is a high-water mark"
        );
    }

    #[test]
    fn record_view_iterates_segments_in_order() {
        let a: Vec<StoredRequest> = (0..3).map(record).collect();
        let b: Vec<StoredRequest> = (3..5).map(record).collect();
        let view = RecordView::new(vec![&a[..], &b[..]]);
        assert_eq!(view.len(), 5);
        assert!(!view.is_empty());
        assert_eq!(view.segment_count(), 2);
        let ids: Vec<u64> = view.iter().map(|r| r.id).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4]);

        assert!(RecordView::empty().is_empty());
        assert_eq!(RecordView::empty().len(), 0);
        let single = RecordView::from_slice(&a);
        assert_eq!(single.len(), 3);
        assert_eq!(single.segment_count(), 1);
        assert!(single.labelled_segments().all(|(id, _)| id.is_none()));
    }

    #[test]
    fn labelled_views_carry_fresh_segment_ids() {
        let a: Vec<StoredRequest> = (0..3).map(record).collect();
        let b: Vec<StoredRequest> = (3..5).map(record).collect();
        let (x, y) = (SegmentId::fresh(), SegmentId::fresh());
        assert_ne!(x, y, "every draw is new");
        let view = RecordView::labelled(vec![(Some(x), &a[..]), (None, &b[..])]);
        assert_eq!(view.len(), 5);
        let labels: Vec<(Option<SegmentId>, usize)> = view
            .labelled_segments()
            .map(|(id, s)| (id, s.len()))
            .collect();
        assert_eq!(labels, [(Some(x), 3), (None, 2)]);
        let ids: Vec<u64> = view.iter().map(|r| r.id).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4]);
    }
}
