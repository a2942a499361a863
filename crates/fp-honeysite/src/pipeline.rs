//! Sharded streaming ingest.
//!
//! [`HoneySite::ingest_stream`] processes a whole arrival-ordered request
//! stream on N worker shards (`std::thread::scope` threads, like
//! `fp-botnet`'s campaign generator) and produces verdicts **identical** to
//! the sequential [`HoneySite::ingest`] loop. The partition argument:
//!
//! * every detector declares its state anchor via
//!   [`fp_types::StateScope`] — per-IP, per-cookie, or none;
//! * a request is routed to its *IP shard* (`shard_for(ip_hash, n)`) for
//!   stateless and per-IP detectors, and to its *cookie shard*
//!   (`shard_for(cookie, n)`) for per-cookie detectors;
//! * each shard walks its subset in arrival order, so for any single
//!   anchor value the observing detector sees exactly the subsequence it
//!   would have seen sequentially — verdict-for-verdict equivalence, at
//!   any shard count (property-tested in `tests/streaming.rs`).
//!
//! The heavy per-request work (geo/ASN derivation, fingerprint digesting,
//! every detector decision) happens on the shards; the sequential parts are
//! the cheap admission/cookie pass and the arrival-order merge. The
//! admission pass also pre-partitions the per-shard index lists (one for
//! the IP phase, one for the cookie phase), so each worker walks exactly
//! its own subset — total scan work is O(total) per phase, not
//! O(total × shards). The route split, the per-shard workers and the
//! chain-order commit are the route kernel every ingest engine shares.

use crate::route::{RouteWorker, TaggedVerdicts};
use crate::site::{derive_record, HoneySite};
use crate::store::{RequestStore, StoredRequest};
use fp_obs::Histogram;
use fp_types::{shard_for, CookieId, Request};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::ScopedJoinHandle;
use std::time::Instant;

/// Join a shard, re-raising its panic (a faulty detector's own message)
/// on the caller's thread.
fn join<T>(handle: ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

impl HoneySite {
    /// Ingest a whole request stream on `shards` worker shards.
    ///
    /// Semantics match feeding the same stream to [`HoneySite::ingest`] on
    /// a fresh site: each call forks fresh detector state from the chain
    /// prototypes (a new measurement run), so don't interleave it with
    /// sequential ingest of the same anchors. Requires an empty store (the
    /// sharded indexes are built by the workers and adopted wholesale).
    /// Returns the number of admitted requests.
    pub fn ingest_stream(
        &mut self,
        requests: impl IntoIterator<Item = Request>,
        shards: usize,
    ) -> usize {
        assert!(
            self.store().is_empty(),
            "ingest_stream adopts a freshly built store; ingest into an empty site"
        );
        let n = shards.max(1);
        let timed = self.site_metrics().is_some();

        // Phase A (sequential, cheap): admission + cookie issuance, the IP
        // hash that routes each request to its shard, and — in the same
        // pass — the per-shard index lists both parallel phases walk. Each
        // worker then touches only its own subset (O(subset) per worker)
        // instead of scanning the whole admitted vector and skipping
        // foreign-shard entries (O(total × shards) across workers).
        let mut admitted: Vec<(Request, CookieId, u64)> = Vec::new();
        let mut ip_parts: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut cookie_parts: Vec<Vec<usize>> = vec![Vec::new(); n];
        // Admission stamps, parallel to `admitted` — the start of each
        // request's admission-to-verdict latency window (closed when its
        // merged verdicts land).
        let mut stamps: Vec<Instant> = Vec::new();
        for request in requests {
            if let Some(cookie) = self.admit(&request) {
                if timed {
                    stamps.push(Instant::now());
                }
                let ip_hash = fp_netsim::NetDb::hash_ip(request.ip);
                let idx = admitted.len();
                ip_parts[shard_for(ip_hash, n)].push(idx);
                cookie_parts[shard_for(cookie, n)].push(idx);
                admitted.push((request, cookie, ip_hash));
            }
        }
        let total = admitted.len();

        let chain = self.chain();
        let routes = self.routes();
        let detector_ns: &[Arc<Histogram>] = self
            .site_metrics()
            .map_or(&[], |m| m.detector_ns.as_slice());

        // Phase B1 (parallel by IP shard): derive the stored record, run
        // the IP route, build the shard's by_ip index. Each worker walks
        // its pre-partitioned index list, which is in arrival order by
        // construction — the per-anchor subsequence argument is unchanged.
        let admitted = &admitted;
        let ip_parts = &ip_parts;
        type B1Out = (
            Vec<(usize, StoredRequest, TaggedVerdicts)>,
            HashMap<u64, Vec<usize>>,
        );
        let b1: Vec<B1Out> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|s| {
                    let mut worker = RouteWorker::fork(chain, routes.ip(), timed);
                    scope.spawn(move || {
                        let mut out = Vec::with_capacity(ip_parts[s].len());
                        let mut by_ip: HashMap<u64, Vec<usize>> = HashMap::new();
                        for &idx in &ip_parts[s] {
                            let (request, cookie, ip_hash) = &admitted[idx];
                            let record = derive_record(request, *cookie);
                            let verdicts = worker.observe(idx as u64, &record);
                            by_ip.entry(*ip_hash).or_default().push(idx);
                            out.push((idx, record, verdicts));
                        }
                        worker.flush(detector_ns);
                        (out, by_ip)
                    })
                })
                .collect();
            handles.into_iter().map(join).collect()
        });

        // Scatter back to arrival order.
        let mut slots: Vec<Option<(StoredRequest, TaggedVerdicts)>> =
            (0..total).map(|_| None).collect();
        let mut by_ip_shards = Vec::with_capacity(n);
        for (records, by_ip) in b1 {
            for (idx, record, verdicts) in records {
                slots[idx] = Some((record, verdicts));
            }
            by_ip_shards.push(by_ip);
        }
        // Ids stay 0 until after Phase B2: sequential ingest assigns the
        // dense id only when the store pushes the record, *after* every
        // detector observed it — per-cookie detectors must see the same
        // `id == 0` here, or a detector reading `request.id` could return
        // different verdicts per path.
        let mut records = Vec::with_capacity(total);
        let mut ip_verdicts = Vec::with_capacity(total);
        for slot in slots {
            let (record, verdicts) = slot.expect("every request has an ip shard");
            records.push(record);
            ip_verdicts.push(verdicts);
        }

        // Phase B2 (parallel by cookie shard): the cookie route over the
        // completed records, plus the shard's by_cookie index — again
        // walking only the pre-partitioned subset, in arrival order.
        let records_ref = &records;
        let cookie_parts = &cookie_parts;
        type B2Out = (Vec<(usize, TaggedVerdicts)>, HashMap<CookieId, Vec<usize>>);
        let b2: Vec<B2Out> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|s| {
                    let mut worker = RouteWorker::fork(chain, routes.cookie(), timed);
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut by_cookie: HashMap<CookieId, Vec<usize>> = HashMap::new();
                        for &idx in &cookie_parts[s] {
                            let record = &records_ref[idx];
                            by_cookie.entry(record.cookie).or_default().push(idx);
                            if !worker.detectors().is_empty() {
                                out.push((idx, worker.observe(idx as u64, record)));
                            }
                        }
                        worker.flush(detector_ns);
                        (out, by_cookie)
                    })
                })
                .collect();
            handles.into_iter().map(join).collect()
        });

        // Merge: commit both routes' verdicts in chain order and adopt the
        // shard-built indexes.
        let mut cookie_verdicts: Vec<TaggedVerdicts> = (0..total).map(|_| Vec::new()).collect();
        let mut by_cookie_shards = Vec::with_capacity(n);
        for (entries, by_cookie) in b2 {
            for (idx, verdicts) in entries {
                cookie_verdicts[idx] = verdicts;
            }
            by_cookie_shards.push(by_cookie);
        }
        // The latency window closes when the request's merged verdicts
        // land — queueing behind the shard phases is part of the
        // admission-to-verdict path, exactly what a serving deployment
        // would report. One clock read closes every window: the merge
        // loop runs in microseconds while the windows span the whole
        // batch, so per-request reads would add hot-path cost without
        // moving any bucket.
        let latency = self.site_metrics().map(|m| (&m.latency_ns, Instant::now()));
        for (idx, ((record, mut tagged), cookie_tagged)) in records
            .iter_mut()
            .zip(ip_verdicts)
            .zip(cookie_verdicts)
            .enumerate()
        {
            record.id = idx as u64;
            tagged.extend(cookie_tagged);
            routes.commit(record, tagged);
            if let Some((histogram, now)) = latency {
                histogram.record(now.duration_since(stamps[idx]).as_nanos() as u64);
            }
        }
        if let Some(m) = self.site_metrics() {
            m.admitted.add(total as u64);
        }

        self.set_store(RequestStore::from_parts(
            records,
            by_cookie_shards,
            by_ip_shards,
        ));
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_fingerprint::{
        BrowserFamily, BrowserProfile, Collector, DeviceKind, DeviceProfile, LocaleSpec,
    };
    use fp_types::{sym, BehaviorTrace, SimTime, Splittable, TrafficSource};
    use std::net::Ipv4Addr;

    fn requests(count: u32) -> Vec<Request> {
        let mut rng = Splittable::new(9);
        (0..count)
            .map(|i| {
                let d = DeviceProfile::sample(DeviceKind::WindowsDesktop, &mut rng);
                let b = BrowserProfile::contemporary(BrowserFamily::Chrome, &mut rng);
                Request {
                    id: 0,
                    time: SimTime::from_day(0, u64::from(i)),
                    site_token: sym("tok"),
                    ip: Ipv4Addr::new(73, 9, (i % 5) as u8, 9),
                    cookie: (i % 3 != 0).then(|| u64::from(i % 7)),
                    fingerprint: Collector::collect(&d, &b, &LocaleSpec::en_us()),
                    tls: b.family.tls_facet(),
                    behavior: BehaviorTrace::silent(),
                    cadence: fp_types::BehaviorFacet::unobserved(),
                    source: TrafficSource::RealUser,
                }
            })
            .collect()
    }

    fn fresh_site() -> HoneySite {
        let mut site = HoneySite::new();
        site.register_token(sym("tok"));
        site
    }

    #[test]
    fn stream_matches_sequential_at_any_shard_count() {
        let reqs = requests(120);
        let mut sequential = fresh_site();
        sequential.ingest_all(reqs.clone());
        for shards in [1, 2, 3, 8] {
            let mut streamed = fresh_site();
            let admitted = streamed.ingest_stream(reqs.clone(), shards);
            assert_eq!(admitted, sequential.store().len());
            for (a, b) in sequential.store().iter().zip(streamed.store().iter()) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.cookie, b.cookie, "cookie issuance must match");
                assert_eq!(
                    a.verdicts, b.verdicts,
                    "request {} at {shards} shards",
                    a.id
                );
            }
        }
    }

    #[test]
    fn stream_counts_rejections() {
        let mut reqs = requests(10);
        reqs[3].site_token = sym("unknown");
        let mut site = fresh_site();
        let admitted = site.ingest_stream(reqs, 2);
        assert_eq!(admitted, 9);
        assert_eq!(site.rejected_count(), 1);
        assert_eq!(site.store().len(), 9);
    }

    #[test]
    #[should_panic(expected = "sequential ingest after ingest_stream")]
    fn sequential_ingest_after_stream_is_refused() {
        let mut site = fresh_site();
        site.ingest_stream(requests(10), 2);
        // The chain prototypes never saw those 10 requests; judging a new
        // one from their empty state would mis-score stateful detectors.
        let _ = site.ingest(requests(1).pop().unwrap());
    }

    #[test]
    fn stream_adoption_keeps_the_sites_retention_policy() {
        use fp_types::RetentionPolicy;
        let mut site = fresh_site();
        site.set_retention(RetentionPolicy::SlidingWindow { epochs: 1 });
        site.ingest_stream(requests(30), 2);
        assert_eq!(
            site.store().retention(),
            RetentionPolicy::SlidingWindow { epochs: 1 },
            "the adopted store must inherit the configured policy"
        );
        // The documented streaming recipe — seal after the call — must
        // enforce the configured window, not silently KeepAll.
        site.seal_epoch();
        assert_eq!(
            site.store().len(),
            30,
            "one sealed epoch: inside the window"
        );
        let second = site.seal_epoch();
        assert_eq!(second.records_evicted, 30, "the next seal ages it out");
        assert!(site.store().is_empty());
    }

    #[test]
    fn stream_metrics_totals_are_shard_invariant() {
        use fp_obs::MetricsRegistry;
        use std::sync::Arc;
        let reqs = requests(120);
        let mut per_shard_totals = Vec::new();
        for shards in [1, 2, 8] {
            let registry = Arc::new(MetricsRegistry::new());
            let mut site = fresh_site();
            site.set_metrics(registry.clone());
            let admitted = site.ingest_stream(reqs.clone(), shards) as u64;
            let snap = registry.snapshot();
            assert_eq!(
                snap.counter(crate::site::REQUESTS_ADMITTED),
                Some(admitted),
                "{shards} shards"
            );
            let latency = snap
                .histogram(crate::site::ADMISSION_TO_VERDICT_NS)
                .expect("latency histogram registered");
            assert_eq!(latency.count(), admitted, "{shards} shards");
            // Every detector's timing histogram holds exactly the sampled
            // arrival indexes (1 in DETECTOR_TIMING_SAMPLE), whatever the
            // partition — the sample keys on arrival order, not on shards.
            let sampled = admitted.div_ceil(crate::site::DETECTOR_TIMING_SAMPLE);
            let detector_counts: Vec<(String, u64)> = snap
                .metrics
                .iter()
                .filter(|m| m.name.starts_with("detector_observe_ns_"))
                .map(|m| match &m.value {
                    fp_obs::Value::Histogram(h) => (m.name.clone(), h.count()),
                    other => panic!("{}: unexpected {other:?}", m.name),
                })
                .collect();
            assert_eq!(detector_counts.len(), 4, "default chain");
            for (name, count) in &detector_counts {
                assert_eq!(*count, sampled, "{name} at {shards} shards");
            }
            per_shard_totals.push((admitted, detector_counts));
        }
        assert!(
            per_shard_totals.windows(2).all(|w| w[0] == w[1]),
            "shard-invariant totals: {per_shard_totals:?}"
        );
    }

    #[test]
    fn stream_builds_sharded_indexes() {
        let reqs = requests(60);
        let mut site = fresh_site();
        site.ingest_stream(reqs, 4);
        assert_eq!(site.store().index_shards(), 4);
        // Index answers match a sequentially built store.
        let mut sequential = fresh_site();
        sequential.ingest_all(requests(60));
        for cookie in 0..7 {
            let a: Vec<u64> = sequential
                .store()
                .with_cookie(cookie)
                .map(|r| r.id)
                .collect();
            let b: Vec<u64> = site.store().with_cookie(cookie).map(|r| r.id).collect();
            assert_eq!(a, b);
        }
    }
}
