//! The recorded dataset, organised as epoch segments.
//!
//! [`StoredRequest`] itself lives in `fp_types::stored` (it is the value the
//! workspace-wide detector contract observes); this module keeps the
//! campaign store. Since the bounded-memory refactor the store is a list
//! of **epoch segments**: records append into the active segment,
//! [`RequestStore::seal_epoch`] closes it and applies the store's
//! [`RetentionPolicy`] to the sealed history: once per arena round, or
//! from [`RequestStore::push`] every N records under a single-shot
//! site's cadence, which both ingest engines therefore share. A segment
//! is its epoch, its identity and its records, so eviction drops a
//! segment wholesale: no tombstones, no cross-segment bookkeeping. A
//! never-sealed store is exactly the pre-refactor single-segment store.
//!
//! The store keeps records, not indexes. Every detector keeps its own
//! anchor state, so the only per-device query of the dataset is Figure
//! 10's: [`RequestStore::top_cookie`] and [`RequestStore::with_cookie`]
//! scan the resident records in arrival order. [`RequestStore::get`]
//! binary-searches the segments by id.

pub use fp_types::stored::StoredRequest;

use fp_obs::{Counter, Gauge, MetricsRegistry};
use fp_types::retention::{Epoch, RecordView, RetentionPolicy, SegmentId, SegmentStats};
use fp_types::{CookieId, RequestId};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::Arc;

/// Registry name of the sealed-epoch counter.
pub const EPOCHS_SEALED: &str = "store_epochs_sealed";
/// Registry name of the evicted-record counter.
pub const RECORDS_EVICTED: &str = "store_records_evicted";
/// Registry name of the evicted-segment counter.
pub const SEGMENTS_EVICTED: &str = "store_segments_evicted";
/// Registry name of the resident-record gauge (updated at each seal or
/// ahead-of-seal eviction pass).
pub const RESIDENT_RECORDS: &str = "store_resident_records";

/// Retention instruments, resolved once at [`RequestStore::set_metrics`].
struct StoreMetrics {
    epochs_sealed: Arc<Counter>,
    records_evicted: Arc<Counter>,
    segments_evicted: Arc<Counter>,
    resident: Arc<Gauge>,
}

impl StoreMetrics {
    /// Record one seal or ahead-of-seal eviction pass.
    fn record(&self, pass: &SegmentStats) {
        self.epochs_sealed.add(pass.epochs_sealed);
        self.records_evicted.add(pass.records_evicted);
        self.segments_evicted.add(pass.segments_evicted);
        self.resident.set(pass.resident_records as i64);
    }
}

/// One epoch's worth of records, in arrival order.
struct Segment {
    epoch: Epoch,
    /// The contents' identity: `None` while the segment is active (it
    /// still grows), drawn at seal and redrawn at every decay edit.
    id: Option<SegmentId>,
    records: Vec<StoredRequest>,
}

impl Segment {
    fn new(epoch: Epoch) -> Segment {
        Segment {
            epoch,
            id: None,
            records: Vec::new(),
        }
    }

    /// Retain only the records whose arrival index is marked. Used by
    /// within-segment decay. The edited segment gets a fresh identity.
    fn retain_marked(&mut self, keep: &[bool]) {
        self.id = Some(SegmentId::fresh());
        let mut idx = 0;
        self.records.retain(|_| {
            let kept = keep[idx];
            idx += 1;
            kept
        });
    }

    /// Record ids are assigned at push time and segments are arrival
    /// ordered, so within a segment ids are strictly ascending (dense
    /// until decay thins them) — binary search finds any resident id.
    fn get(&self, id: RequestId) -> Option<&StoredRequest> {
        match self.records.binary_search_by_key(&id, |r| r.id) {
            Ok(pos) => Some(&self.records[pos]),
            Err(_) => None,
        }
    }
}

/// The campaign dataset, segmented by epoch with pluggable retention
/// (default [`RetentionPolicy::KeepAll`] — the exact pre-refactor
/// ever-growing behaviour).
pub struct RequestStore {
    policy: RetentionPolicy,
    /// Sealed segments in epoch order (gaps where retention evicted).
    sealed: Vec<Segment>,
    /// The segment currently receiving records.
    active: Segment,
    /// Next dense id to assign — monotonic across seals and evictions,
    /// so an id names one record forever even after it is gone.
    next_id: RequestId,
    /// Cumulative seal/eviction ledger.
    stats: SegmentStats,
    /// The reference epoch retention was last applied for — lets a seal
    /// skip the pass [`RequestStore::evict_ahead`] already paid.
    retained_through: Option<Epoch>,
    /// Seal once the active epoch holds this many records (`None`: only
    /// an explicit [`RequestStore::seal_epoch`] seals).
    epoch_every: Option<usize>,
    /// Retention instruments, when a registry is attached.
    metrics: Option<StoreMetrics>,
}

impl Default for RequestStore {
    fn default() -> Self {
        RequestStore::new()
    }
}

impl RequestStore {
    /// Empty store.
    pub fn new() -> RequestStore {
        RequestStore {
            policy: RetentionPolicy::KeepAll,
            sealed: Vec::new(),
            active: Segment::new(Epoch(0)),
            next_id: 0,
            stats: SegmentStats::default(),
            retained_through: None,
            epoch_every: None,
            metrics: None,
        }
    }

    /// Empty store under `policy` (applied at every
    /// [`RequestStore::seal_epoch`]).
    pub fn with_retention(policy: RetentionPolicy) -> RequestStore {
        let mut store = RequestStore::new();
        store.policy = policy;
        store
    }

    /// Attach a metrics registry: every seal and ahead-of-seal eviction
    /// pass from here on records the epoch/eviction counters and updates
    /// the resident-record gauge. Handles resolve once; re-attaching the
    /// same registry (store hand-over) reuses the same instruments.
    pub fn set_metrics(&mut self, registry: &Arc<MetricsRegistry>) {
        self.metrics = Some(StoreMetrics {
            epochs_sealed: registry.counter(EPOCHS_SEALED),
            records_evicted: registry.counter(RECORDS_EVICTED),
            segments_evicted: registry.counter(SEGMENTS_EVICTED),
            resident: registry.gauge(RESIDENT_RECORDS),
        });
    }

    /// The retention policy applied at each seal.
    pub fn retention(&self) -> RetentionPolicy {
        self.policy
    }

    /// Replace the retention policy (takes effect from the next seal;
    /// nothing already evicted comes back).
    pub fn set_retention(&mut self, policy: RetentionPolicy) {
        self.policy = policy;
        self.retained_through = None;
    }

    /// The epoch currently receiving records.
    pub fn current_epoch(&self) -> Epoch {
        self.active.epoch
    }

    /// The cumulative seal/eviction ledger. `resident_records` is a
    /// seal-time snapshot; between seals the active segment keeps
    /// growing, so prefer [`RequestStore::len`] for the live count.
    pub fn stats(&self) -> &SegmentStats {
        &self.stats
    }

    /// Seal automatically once the active epoch holds `n` records (`0`
    /// turns it off).
    pub(crate) fn set_epoch_every(&mut self, n: usize) {
        self.epoch_every = (n > 0).then_some(n);
    }

    /// Append a record (assigns the dense id), sealing the epoch when it
    /// reaches the configured size.
    pub fn push(&mut self, mut record: StoredRequest) -> RequestId {
        let id = self.next_id;
        self.next_id += 1;
        record.id = id;
        self.active.records.push(record);
        if self
            .epoch_every
            .is_some_and(|n| self.active.records.len() >= n)
        {
            self.seal_epoch();
        }
        id
    }

    /// Close the active epoch and apply the retention policy to the
    /// sealed history: whole segments older than a sliding window are
    /// dropped wholesale, decaying segments are
    /// deterministically subsampled. Returns this seal's eviction report;
    /// the cumulative ledger is available via [`RequestStore::stats`].
    ///
    /// An empty active segment still advances the epoch (a quiet round
    /// ages the history like any other) but stores no segment.
    pub fn seal_epoch(&mut self) -> SegmentStats {
        let next = self.active.epoch.next();
        let mut finished = std::mem::replace(&mut self.active, Segment::new(next));
        let sealed_epoch = finished.epoch;
        if !finished.records.is_empty() {
            finished.id = Some(SegmentId::fresh());
            self.sealed.push(finished);
        }
        let (records_evicted, segments_evicted) = if self.retained_through == Some(sealed_epoch) {
            (0, 0) // evict_ahead already paid this epoch's retention pass
        } else {
            self.apply_retention(sealed_epoch)
        };
        self.retained_through = Some(sealed_epoch);
        let resident = self.len() as u64;
        let seal = SegmentStats {
            epochs_sealed: 1,
            segments_evicted,
            records_evicted,
            resident_records: resident,
            peak_resident_records: resident,
        };
        self.stats.absorb(seal);
        if let Some(m) = &self.metrics {
            m.record(&seal);
        }
        seal
    }

    /// Apply the retention policy *ahead of* the active epoch's seal:
    /// segments that cannot survive the next [`RequestStore::seal_epoch`]
    /// are evicted (and decaying segments subsampled) now, before the
    /// active epoch fills. Retention ages are computed relative to the
    /// active epoch — exactly the ages the next seal will use — so the
    /// seal itself then finds nothing more to drop and live residency
    /// never transiently exceeds the window while an epoch is being
    /// ingested. Returns the eviction delta (no epoch is sealed).
    pub fn evict_ahead(&mut self) -> SegmentStats {
        let (records_evicted, segments_evicted) =
            if self.retained_through == Some(self.active.epoch) {
                (0, 0)
            } else {
                self.apply_retention(self.active.epoch)
            };
        self.retained_through = Some(self.active.epoch);
        let resident = self.len() as u64;
        let ahead = SegmentStats {
            epochs_sealed: 0,
            segments_evicted,
            records_evicted,
            resident_records: resident,
            peak_resident_records: resident,
        };
        self.stats.absorb(ahead);
        if let Some(m) = &self.metrics {
            m.record(&ahead);
        }
        ahead
    }

    /// Evict/decay sealed segments with ages computed relative to
    /// `reference` (the just-sealed epoch at seal time; the active epoch
    /// for ahead-of-seal eviction). Returns `(records, segments)` evicted.
    fn apply_retention(&mut self, reference: Epoch) -> (u64, u64) {
        let mut records_evicted = 0u64;
        let mut segments_evicted = 0u64;
        match self.policy {
            RetentionPolicy::KeepAll => {}
            RetentionPolicy::SlidingWindow { .. } => {
                self.sealed.retain(|segment| {
                    let age = reference.0 - segment.epoch.0;
                    if self.policy.evicts_segment(age) {
                        records_evicted += segment.records.len() as u64;
                        segments_evicted += 1;
                        false
                    } else {
                        true
                    }
                });
            }
            RetentionPolicy::SampledDecay { floor, .. } => {
                for segment in &mut self.sealed {
                    let age = reference.0 - segment.epoch.0;
                    if age == 0 {
                        continue; // a segment survives its own seal untouched
                    }
                    let threshold = self.policy.survival_rate(age);
                    let keys: Vec<f64> = segment
                        .records
                        .iter()
                        .map(|r| RetentionPolicy::survival_key(r.id))
                        .collect();
                    let mut keep: Vec<bool> = keys.iter().map(|k| *k < threshold).collect();
                    let surviving = keep.iter().filter(|k| **k).count();
                    if surviving < floor {
                        // Top up to the floor with the smallest-key
                        // records — the same ranking at every age, so
                        // the kept set stays nested as the segment ages.
                        let mut ranked: Vec<usize> = (0..keys.len()).collect();
                        ranked.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]));
                        for &pos in ranked.iter().take(floor.min(keys.len())) {
                            keep[pos] = true;
                        }
                    }
                    let kept = keep.iter().filter(|k| **k).count();
                    if kept < segment.records.len() {
                        records_evicted += (segment.records.len() - kept) as u64;
                        segment.retain_marked(&keep);
                    }
                }
                // Segments decayed to nothing (floor 0) drop wholesale.
                self.sealed.retain(|segment| {
                    if segment.records.is_empty() {
                        segments_evicted += 1;
                        false
                    } else {
                        true
                    }
                });
            }
        }
        (records_evicted, segments_evicted)
    }

    /// Number of resident requests (evicted records no longer count).
    pub fn len(&self) -> usize {
        self.sealed.iter().map(|s| s.records.len()).sum::<usize>() + self.active.records.len()
    }

    /// Records ever assigned an id, evicted or not — the id space bound.
    pub fn total_ingested(&self) -> u64 {
        self.next_id
    }

    /// Is the store empty (no resident records)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.sealed.iter().chain(std::iter::once(&self.active))
    }

    /// All resident records in ingest order, crossing epoch boundaries.
    pub fn iter(&self) -> impl Iterator<Item = &StoredRequest> {
        self.segments().flat_map(|s| s.records.iter())
    }

    /// The resident records as an arrival-ordered epoch view — the shape
    /// the defender lifecycle hands to retraining stack members
    /// ([`fp_types::defense::RoundContext::records`]) and every
    /// record-walking pass consumes. One segment slice per resident
    /// epoch, each sealed one labelled with its [`SegmentId`]; a
    /// never-sealed store presents the single contiguous (unlabelled)
    /// slice it always did.
    pub fn records(&self) -> RecordView<'_> {
        RecordView::labelled(
            self.segments()
                .filter(|s| !s.records.is_empty())
                .map(|s| (s.id, &s.records[..]))
                .collect(),
        )
    }

    /// Record by id (`None` for ids never assigned *or* evicted).
    pub fn get(&self, id: RequestId) -> Option<&StoredRequest> {
        if id >= self.next_id {
            return None;
        }
        self.segments().find_map(|s| s.get(id))
    }

    /// Resident records sharing a cookie, in ingest order (a scan).
    pub fn with_cookie(&self, cookie: CookieId) -> impl Iterator<Item = &StoredRequest> {
        self.iter().filter(move |r| r.cookie == cookie)
    }

    /// The resident cookie with the most requests (Figure 10's device); a
    /// tie in request count goes to the larger cookie id. A scan.
    pub fn top_cookie(&self) -> Option<(CookieId, usize)> {
        let mut counts: HashMap<CookieId, usize> = HashMap::new();
        for r in self.iter() {
            *counts.entry(r.cookie).or_default() += 1;
        }
        counts.into_iter().max_by_key(|&(c, n)| (n, c))
    }

    /// Serialise resident records as JSON lines.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        for r in self.iter() {
            serde_json::to_writer(&mut w, r)?;
            w.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Load from JSON lines (ids are re-assigned densely, into one epoch).
    pub fn read_jsonl<R: BufRead>(r: R) -> std::io::Result<RequestStore> {
        let mut store = RequestStore::new();
        for line in r.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let record: StoredRequest = serde_json::from_str(&line)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            store.push(record);
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_types::{sym, AttrId, Fingerprint, ServiceId, SimTime, TrafficSource, VerdictSet};

    fn record(cookie: CookieId, ip_hash: u64) -> StoredRequest {
        StoredRequest {
            id: 0,
            time: SimTime::from_day(1, 0),
            site_token: sym("tok"),
            ip_hash,
            ip_offset_minutes: 480,
            ip_region: sym("United States of America/California"),
            ip_lat: 36.7,
            ip_lon: -119.4,
            asn: 7922,
            asn_flagged: false,
            ip_blocklisted: false,
            tor_exit: false,
            cookie,
            fingerprint: Fingerprint::new().with(AttrId::UaDevice, "iPhone"),
            tls: fp_types::TlsFacet::unobserved(),
            behavior: fp_types::BehaviorTrace::silent(),
            cadence: fp_types::BehaviorFacet::unobserved(),
            source: TrafficSource::Bot(ServiceId(1)),
            verdicts: VerdictSet::from_services(false, true),
        }
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut store = RequestStore::new();
        for i in 0..10 {
            let id = store.push(record(i, i * 7));
            assert_eq!(id, i);
        }
        assert_eq!(store.len(), 10);
        assert_eq!(store.get(3).unwrap().cookie, 3);
        assert!(store.get(99).is_none());
    }

    #[test]
    fn cookie_queries() {
        let mut store = RequestStore::new();
        store.push(record(5, 100));
        store.push(record(5, 101));
        store.push(record(6, 100));
        assert_eq!(store.with_cookie(5).count(), 2);
        assert_eq!(store.with_cookie(6).count(), 1);
        assert_eq!(store.with_cookie(7).count(), 0);
        assert_eq!(store.top_cookie().unwrap().0, 5);
    }

    #[test]
    fn top_cookie_breaks_ties_to_the_larger_id_and_counts_only_resident_records() {
        assert_eq!(RequestStore::new().top_cookie(), None, "empty store");
        // A tie in request count goes to the larger cookie, whichever
        // arrived first.
        for cookies in [[3, 9, 3, 9], [9, 3, 9, 3]] {
            let mut store = RequestStore::new();
            for cookie in cookies {
                store.push(record(cookie, 1));
            }
            assert_eq!(store.top_cookie(), Some((9, 2)), "{cookies:?}");
        }
        // Evicted epochs no longer count: cookie 1's five requests age
        // out of a one-epoch window, leaving cookie 2's three.
        let mut store = RequestStore::with_retention(RetentionPolicy::SlidingWindow { epochs: 1 });
        for _ in 0..5 {
            store.push(record(1, 1));
        }
        store.seal_epoch();
        assert_eq!(store.top_cookie(), Some((1, 5)));
        for _ in 0..3 {
            store.push(record(2, 2));
        }
        store.seal_epoch();
        assert_eq!(store.top_cookie(), Some((2, 3)));
        assert_eq!(store.with_cookie(1).count(), 0);
    }

    #[test]
    fn verdict_views() {
        use fp_types::detect::provenance;
        let r = record(1, 1);
        assert!(!r.verdicts.bot_sym(provenance::datadome_sym()));
        assert!(r.verdicts.bot_sym(provenance::botd_sym()));
    }

    #[test]
    fn record_view_matches_iter_order() {
        let mut store = RequestStore::new();
        for i in 0..5 {
            store.push(record(i, i * 3));
        }
        let view = store.records();
        assert_eq!(view.len(), 5);
        assert_eq!(view.segment_count(), 1, "never-sealed = one segment");
        for (a, b) in store.iter().zip(view.iter()) {
            assert_eq!(a.id, b.id);
        }
    }

    #[test]
    fn jsonl_roundtrip() {
        let mut store = RequestStore::new();
        for i in 0..5 {
            store.push(record(i, i));
        }
        let mut buf = Vec::new();
        store.write_jsonl(&mut buf).unwrap();
        let loaded = RequestStore::read_jsonl(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(loaded.len(), 5);
        assert_eq!(loaded.get(2).unwrap().cookie, 2);
        assert_eq!(
            loaded
                .get(0)
                .unwrap()
                .fingerprint
                .get(AttrId::UaDevice)
                .as_str(),
            Some("iPhone")
        );
        assert!(loaded
            .get(0)
            .unwrap()
            .verdicts
            .bot(fp_types::detect::provenance::BOTD));
    }

    #[test]
    fn jsonl_rejects_garbage() {
        let r = RequestStore::read_jsonl(std::io::Cursor::new(b"not json\n".to_vec()));
        assert!(r.is_err());
    }

    // ── Epoch segmentation & retention ──────────────────────────────────

    /// Fill `store` with `n` records in one epoch and seal it.
    fn seal_round(store: &mut RequestStore, n: u64, tag: u64) -> SegmentStats {
        for i in 0..n {
            store.push(record(tag * 1_000 + i % 13, tag * 1_000 + i % 11));
        }
        store.seal_epoch()
    }

    #[test]
    fn keep_all_sealing_changes_nothing_observable() {
        let mut flat = RequestStore::new();
        let mut sealed = RequestStore::new();
        for i in 0..30u64 {
            flat.push(record(i % 7, i % 5));
            sealed.push(record(i % 7, i % 5));
            if i % 10 == 9 {
                let seal = sealed.seal_epoch();
                assert_eq!(seal.records_evicted, 0, "KeepAll never evicts");
            }
        }
        assert_eq!(sealed.current_epoch(), fp_types::Epoch(3));
        assert_eq!(flat.len(), sealed.len());
        let a: Vec<u64> = flat.iter().map(|r| r.id).collect();
        let b: Vec<u64> = sealed.iter().map(|r| r.id).collect();
        assert_eq!(a, b, "iteration crosses segment boundaries in order");
        assert_eq!(sealed.records().segment_count(), 3, "one slice per epoch");
        for cookie in 0..7 {
            let x: Vec<u64> = flat.with_cookie(cookie).map(|r| r.id).collect();
            let y: Vec<u64> = sealed.with_cookie(cookie).map(|r| r.id).collect();
            assert_eq!(x, y, "cookie {cookie}");
        }
        assert_eq!(flat.top_cookie(), sealed.top_cookie());
        assert_eq!(sealed.get(17).unwrap().id, 17);
    }

    #[test]
    fn sliding_window_caps_resident_records() {
        let mut store = RequestStore::with_retention(RetentionPolicy::SlidingWindow { epochs: 2 });
        for round in 0..6u64 {
            let seal = seal_round(&mut store, 20, round);
            let expected = 20 * (round + 1).min(2) as usize;
            assert_eq!(store.len(), expected, "round {round}");
            assert_eq!(seal.resident_records, expected as u64);
            if round >= 2 {
                assert_eq!(seal.records_evicted, 20, "one whole epoch per seal");
                assert_eq!(seal.segments_evicted, 1);
            }
        }
        let stats = store.stats();
        assert_eq!(stats.epochs_sealed, 6);
        assert_eq!(stats.records_evicted, 80, "rounds 0–3 evicted");
        assert_eq!(stats.peak_resident_records, 40, "never more than 2 epochs");
        // Ids march on even though early records are gone.
        assert_eq!(store.total_ingested(), 120);
        assert!(store.get(0).is_none(), "evicted ids answer None");
        assert!(store.get(119).is_some());
        // The view exposes only the resident tail, still in order.
        let ids: Vec<u64> = store.records().iter().map(|r| r.id).collect();
        assert_eq!(ids.first(), Some(&80));
        assert_eq!(ids.last(), Some(&119));
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sliding_window_cookie_queries_see_only_the_resident_epoch() {
        let mut store = RequestStore::with_retention(RetentionPolicy::SlidingWindow { epochs: 1 });
        // Same cookie in every epoch: only the resident epoch's entries
        // may answer.
        for round in 0..3u64 {
            for _ in 0..4 {
                store.push(record(42, 7));
            }
            store.seal_epoch();
            assert_eq!(store.with_cookie(42).count(), 4, "round {round}");
        }
        assert_eq!(store.top_cookie(), Some((42, 4)));
    }

    #[test]
    fn sampled_decay_thins_old_epochs_to_a_floor() {
        let mut store = RequestStore::with_retention(RetentionPolicy::SampledDecay {
            keep_rate: 0.5,
            floor: 5,
        });
        let per_round = 64;
        for round in 0..5u64 {
            seal_round(&mut store, per_round, round);
        }
        // Epoch 4 is fresh (full); epoch 0 has age 4 → ~0.5⁴ ≈ 4 of 64,
        // floored at 5. Every epoch still has at least the floor.
        let view = store.records();
        assert_eq!(view.segment_count(), 5, "decay keeps every epoch alive");
        let sizes: Vec<usize> = view.segments().iter().map(|s| s.len()).collect();
        assert_eq!(
            *sizes.last().unwrap(),
            per_round as usize,
            "fresh epoch full"
        );
        assert!(sizes[0] >= 5, "floor holds: {sizes:?}");
        assert!(sizes[0] < sizes[4], "old epochs are thinner: {sizes:?}");
        assert!(
            sizes.windows(2).all(|w| w[0] <= w[1]),
            "monotone thinning with age: {sizes:?}"
        );
        assert!(store.stats().records_evicted > 0);
        // Determinism: an identical run decays identically.
        let mut twin = RequestStore::with_retention(RetentionPolicy::SampledDecay {
            keep_rate: 0.5,
            floor: 5,
        });
        for round in 0..5u64 {
            seal_round(&mut twin, per_round, round);
        }
        let a: Vec<u64> = store.iter().map(|r| r.id).collect();
        let b: Vec<u64> = twin.iter().map(|r| r.id).collect();
        assert_eq!(a, b);
        // Thinned segments stay id-ordered: every resident id answers
        // `get`, and the view holds exactly the resident records.
        assert!(store.iter().all(|r| store.get(r.id).is_some()));
        assert_eq!(store.records().len(), store.len());
    }

    #[test]
    fn evict_ahead_caps_live_residency_before_the_epoch_fills() {
        let mut store = RequestStore::with_retention(RetentionPolicy::SlidingWindow { epochs: 2 });
        seal_round(&mut store, 20, 0);
        seal_round(&mut store, 20, 1);
        // Without ahead-of-seal eviction, pushing epoch 2's records would
        // transiently hold 3 epochs' worth. Evicting ahead drops epoch 0
        // now (it cannot survive epoch 2's seal)…
        let ahead = store.evict_ahead();
        assert_eq!(ahead.records_evicted, 20);
        assert_eq!(ahead.segments_evicted, 1);
        assert_eq!(ahead.epochs_sealed, 0, "nothing was sealed");
        assert_eq!(store.len(), 20, "one sealed epoch left, room for the next");
        // Idempotent within one epoch: evicting ahead again is a no-op.
        assert_eq!(store.evict_ahead().records_evicted, 0);
        // …so live residency peaks at exactly the window while epoch 2
        // fills, and the seal itself finds nothing more to evict.
        for i in 0..20 {
            store.push(record(2_000 + i, 2_000 + i));
        }
        assert_eq!(store.len(), 40, "window's worth, never window + 1");
        let seal = store.seal_epoch();
        assert_eq!(seal.records_evicted, 0, "ahead-eviction already paid");
        assert_eq!(seal.resident_records, 40);
    }

    #[test]
    fn empty_epochs_still_age_the_window() {
        let mut store = RequestStore::with_retention(RetentionPolicy::SlidingWindow { epochs: 2 });
        seal_round(&mut store, 10, 0);
        // Two quiet rounds: the lone populated epoch ages out.
        store.seal_epoch();
        let seal = store.seal_epoch();
        assert_eq!(seal.records_evicted, 10, "quiet rounds age history too");
        assert!(store.is_empty());
        assert_eq!(store.records().len(), 0);
        assert_eq!(store.current_epoch(), fp_types::Epoch(3));
    }

    #[test]
    fn retention_policy_swap_applies_from_next_seal() {
        let mut store = RequestStore::new();
        assert_eq!(store.retention(), RetentionPolicy::KeepAll);
        seal_round(&mut store, 10, 0);
        seal_round(&mut store, 10, 1);
        store.set_retention(RetentionPolicy::SlidingWindow { epochs: 1 });
        assert_eq!(store.len(), 20, "swap alone evicts nothing");
        seal_round(&mut store, 10, 2);
        assert_eq!(store.len(), 10, "the next seal enforces the new policy");
    }

    fn segment_ids(store: &RequestStore) -> Vec<Option<SegmentId>> {
        store
            .records()
            .labelled_segments()
            .map(|(id, _)| id)
            .collect()
    }

    #[test]
    fn sealed_segments_keep_their_id_until_edited_or_evicted() {
        let mut store = RequestStore::with_retention(RetentionPolicy::SlidingWindow { epochs: 2 });
        store.push(record(1, 1));
        assert_eq!(
            segment_ids(&store),
            [None],
            "the active segment still grows"
        );
        store.seal_epoch();
        let first = segment_ids(&store);
        assert!(first[0].is_some(), "a seal labels the segment");
        seal_round(&mut store, 4, 1);
        let second = segment_ids(&store);
        assert_eq!(second[0], first[0], "an untouched segment keeps its id");
        assert_ne!(second[1], second[0]);
        seal_round(&mut store, 4, 2);
        let third = segment_ids(&store);
        assert_eq!(third.len(), 2, "the window evicted epoch 0");
        assert!(!third.contains(&first[0]), "eviction retires the id");
        assert_eq!(third[0], second[1]);

        // A decay edit redraws the edited segment's id.
        let mut decayed = RequestStore::with_retention(RetentionPolicy::SampledDecay {
            keep_rate: 0.5,
            floor: 0,
        });
        seal_round(&mut decayed, 64, 0);
        let before = segment_ids(&decayed);
        seal_round(&mut decayed, 64, 1);
        let after = segment_ids(&decayed);
        assert_ne!(after[0], before[0], "decay edited epoch 0");
        assert!(after[1].is_some() && after[1] != after[0]);
    }
}
