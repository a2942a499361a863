//! The honey site itself: token admission, cookie issuance, the inline
//! detector chain, and privacy-preserving storage (Figures 1 and 3).
//!
//! Detection is a *chain* of [`Detector`]s (by default the two simulated
//! commercial services plus the cross-layer TLS consistency check) run
//! inline at ingest; every verdict is recorded with named provenance in
//! the request's [`fp_types::VerdictSet`]. The chain is open:
//! FP-Inconsistent's own spatial/temporal detectors plug in through the
//! same trait (see `fp_inconsistent_core::engine`), which is the paper's
//! §7 deployment story — FP-Inconsistent running alongside the commercial
//! services on live traffic.

use crate::route::{RouteWorker, Routes};
use crate::store::{RequestStore, StoredRequest};
use fp_antibot::{BotD, DataDome};
use fp_behavior::BehaviorDetector;
use fp_netsim::blocklist::{is_tor_exit, AsnBlocklist, IpBlocklist};
use fp_netsim::{NetDb, REGIONS};
use fp_obs::{expose, Counter, Histogram, MetricsRegistry};
use fp_tls::TlsCrossLayer;
use fp_types::detect::Detector;
use fp_types::{mix2, sym, CookieId, Request, RequestId, Symbol, VerdictSet};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Registry name of the per-request admission-to-verdict latency histogram.
pub const ADMISSION_TO_VERDICT_NS: &str = "site_admission_to_verdict_ns";
/// Registry name of the admitted-request counter.
pub const REQUESTS_ADMITTED: &str = "site_requests_admitted";
/// Registry name of the rejected-request counter.
pub const REQUESTS_REJECTED: &str = "site_requests_rejected";

/// Registry name of one detector's `observe()` timing histogram.
pub fn detector_metric_name(detector: &str) -> String {
    format!("detector_observe_ns_{}", expose::sanitize(detector))
}

/// Per-detector timing stamps are recorded for 1 admitted request in
/// this many (the request's arrival index modulo this constant), not for
/// every request: the chained stamps cost one clock read per detector,
/// which at full rate is the bulk of the always-on bill
/// (`BENCH_pipeline.json` budgets it under 3% of ingest throughput).
/// Sampling keys on the *arrival* index, so the sampled set — and
/// therefore every `detector_observe_ns_*` histogram — is deterministic
/// and shard-count-invariant. The admission-to-verdict latency histogram
/// and all counters stay exact-count.
pub const DETECTOR_TIMING_SAMPLE: u64 = 8;

/// The site's resolved instrument handles — looked up once at
/// [`HoneySite::set_metrics`], so the per-request path never touches the
/// registry (no string hashing, no lock).
pub(crate) struct SiteMetrics {
    pub(crate) registry: Arc<MetricsRegistry>,
    pub(crate) admitted: Arc<Counter>,
    pub(crate) rejected: Arc<Counter>,
    pub(crate) latency_ns: Arc<Histogram>,
    /// One timing histogram per chain position, parallel to `chain`.
    pub(crate) detector_ns: Vec<Arc<Histogram>>,
}

/// A honey site with a pluggable real-time detector chain.
pub struct HoneySite {
    tokens: HashSet<Symbol>,
    /// The chain prototypes, held as the sequential engine's route
    /// worker: the whole chain on one shard. The serving layer forks its
    /// shard workers from these.
    chain: RouteWorker,
    /// The chain split by state anchor, names interned once.
    routes: Routes,
    store: RequestStore,
    cookie_counter: u64,
    rejected: u64,
    /// Set once `serve` (or its `ingest_stream` driver) has handed its
    /// store back: the chain prototypes never observed the served
    /// requests (shard forks did), so sequential `ingest` afterwards
    /// would judge stateful detectors from empty history. Guarded with an
    /// assert instead of silently mis-scoring.
    streamed: bool,
    /// Instrument handles, when a registry is attached. `None` (default)
    /// is the bare site: no timing reads, no counter bumps.
    metrics: Option<SiteMetrics>,
}

impl Default for HoneySite {
    fn default() -> Self {
        Self::new()
    }
}

impl HoneySite {
    /// A site with no versions registered yet and the default chain: the
    /// paper's two anti-bot services, the cross-layer TLS consistency
    /// detector (the §8.2 extension, run on every request's handshake),
    /// and the session behaviour detector (the FP-Agent extension, run on
    /// every request's cadence facet).
    pub fn new() -> HoneySite {
        HoneySite::with_chain(vec![
            Box::new(DataDome::new()),
            Box::new(BotD::new()),
            Box::new(TlsCrossLayer::new()),
            Box::new(BehaviorDetector::new()),
        ])
    }

    /// A site running a custom detector chain.
    pub fn with_chain(chain: Vec<Box<dyn Detector>>) -> HoneySite {
        HoneySite {
            tokens: HashSet::new(),
            routes: Routes::new(&chain),
            chain: RouteWorker::new(chain),
            store: RequestStore::new(),
            cookie_counter: 0,
            rejected: 0,
            streamed: false,
            metrics: None,
        }
    }

    /// Attach a metrics registry: resolves the admission counters, the
    /// admission-to-verdict latency histogram, one `observe()` timing
    /// histogram per detector in the current chain, and the store's
    /// retention instruments. Handles are resolved here once; recording on
    /// the hot path is lock-free. Detectors pushed later get their
    /// histogram at push time.
    pub fn set_metrics(&mut self, registry: Arc<MetricsRegistry>) {
        let detector_ns = self
            .chain()
            .iter()
            .map(|d| registry.histogram(&detector_metric_name(d.name())))
            .collect();
        self.chain.set_timed(true);
        self.store.set_metrics(&registry);
        self.metrics = Some(SiteMetrics {
            admitted: registry.counter(REQUESTS_ADMITTED),
            rejected: registry.counter(REQUESTS_REJECTED),
            latency_ns: registry.histogram(ADMISSION_TO_VERDICT_NS),
            detector_ns,
            registry,
        });
    }

    /// The attached registry, if any.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref().map(|m| &m.registry)
    }

    /// The site's instrument handles (serving layer internals).
    pub(crate) fn site_metrics(&self) -> Option<&SiteMetrics> {
        self.metrics.as_ref()
    }

    /// The chain split by state anchor (sharded engine internals).
    pub(crate) fn routes(&self) -> &Routes {
        &self.routes
    }

    /// Set the store's retention policy (applied at each epoch seal;
    /// the default [`fp_types::RetentionPolicy::KeepAll`] retains
    /// everything, exactly the pre-refactor behaviour).
    pub fn set_retention(&mut self, policy: fp_types::RetentionPolicy) {
        self.store.set_retention(policy);
    }

    /// Seal a store epoch automatically every `n` admitted requests
    /// (`0`, the default, never does) — single-shot mode's analogue of
    /// the arena's seal-per-round, so a long-running site under a
    /// bounding [`fp_types::RetentionPolicy`] holds peak resident records
    /// steady instead of growing forever. The store seals as it commits,
    /// so the sequential loop and [`HoneySite::serve`] seal at the same
    /// records and retain the same ones. [`HoneySite::seal_epoch`] seals
    /// by hand.
    pub fn set_epoch_every(&mut self, n: usize) {
        self.store.set_epoch_every(n);
    }

    /// Close the store's active epoch now and apply retention; returns
    /// the seal's eviction report.
    pub fn seal_epoch(&mut self) -> fp_types::SegmentStats {
        self.store.seal_epoch()
    }

    /// Append a detector to the chain (runs after the existing ones).
    pub fn push_detector(&mut self, detector: Box<dyn Detector>) {
        if let Some(m) = &mut self.metrics {
            m.detector_ns
                .push(m.registry.histogram(&detector_metric_name(detector.name())));
        }
        self.routes.push(detector.as_ref());
        self.chain.push(detector);
    }

    /// The detector chain, in execution order.
    pub fn chain(&self) -> &[Box<dyn Detector>] {
        self.chain.detectors()
    }

    /// Register a site version (share its URL token with one party).
    pub fn register_token(&mut self, token: Symbol) {
        self.tokens.insert(token);
    }

    /// Admission: check the token and issue the first-party cookie.
    /// Returns `None` (counting a rejection) for unregistered tokens.
    pub(crate) fn admit(&mut self, request: &Request) -> Option<CookieId> {
        if !self.tokens.contains(&request.site_token) {
            self.rejected += 1;
            if let Some(m) = &self.metrics {
                m.rejected.inc();
            }
            return None;
        }
        Some(match request.cookie {
            Some(c) => c,
            None => {
                self.cookie_counter += 1;
                mix2(0xC00_C1E, self.cookie_counter)
            }
        })
    }

    /// Process one incoming request. Returns the stored id, or `None` when
    /// the URL carried no registered token (real users and generic crawlers
    /// stumbling on the domain — not recorded, by design).
    pub fn ingest(&mut self, request: Request) -> Option<RequestId> {
        assert!(
            !self.streamed,
            "sequential ingest after ingest_stream would run stateful detectors \
             from empty history; use one ingest mode per measurement run"
        );
        let start = self.metrics.as_ref().map(|_| Instant::now());
        let cookie = self.admit(&request)?;
        let mut record = derive_record(&request, cookie);

        // Real-time decisions from the whole chain (Figure 3). Detectors
        // observe the record before any verdict is attached, exactly like
        // the serving layer's shard workers, so the paths are
        // interchangeable. The arrival index of this admitted request
        // (rejections never get here) keys the deterministic
        // detector-timing sample.
        let bots = self.chain.observe(self.store.total_ingested(), &record);
        self.routes.commit(&mut record, bots);
        let id = self.store.push(record);
        if let (Some(m), Some(start)) = (&self.metrics, start) {
            self.chain.flush(&m.detector_ns);
            m.admitted.inc();
            m.latency_ns.record(start.elapsed().as_nanos() as u64);
        }
        Some(id)
    }

    /// Ingest a batch in order.
    pub fn ingest_all(&mut self, requests: impl IntoIterator<Item = Request>) {
        for r in requests {
            let _ = self.ingest(r);
        }
    }

    /// Requests turned away for lacking a token.
    pub fn rejected_count(&self) -> u64 {
        self.rejected
    }

    /// The recorded dataset.
    pub fn store(&self) -> &RequestStore {
        &self.store
    }

    /// Lend the store to the serving ring, whose workers commit into it
    /// with its retention, cadence and metrics as configured.
    pub(crate) fn take_store(&mut self) -> RequestStore {
        std::mem::take(&mut self.store)
    }

    /// Take the lent store back at `finish` and mark the site as
    /// stream-ingested (see the `streamed` field).
    pub(crate) fn set_store(&mut self, store: RequestStore) {
        self.store = store;
        self.streamed = true;
    }

    /// Consume the site, keeping the dataset.
    pub fn into_store(self) -> RequestStore {
        self.store
    }
}

/// The `country/region` label of `REGIONS[index]`, interned on the
/// region's first request and reused after, so enrichment formats and
/// interns each label once per process.
fn region_label(index: usize) -> Symbol {
    static LABELS: [OnceLock<Symbol>; REGIONS.len()] = [const { OnceLock::new() }; REGIONS.len()];
    *LABELS[index].get_or_init(|| {
        let region = &REGIONS[index];
        sym(&format!("{}/{}", region.country, region.name))
    })
}

/// Derive the stored record from an admitted request: network facts from
/// the raw address, then the address itself is dropped (ethics appendix).
/// The observed TLS facet is kept verbatim and additionally materialised
/// into the stored fingerprint's `ja3`/`ja4` analysis attributes, so the
/// rule miner and the ML feature schema see the handshake the same way
/// they see the IP-derived attributes. Verdicts are attached by the caller.
pub(crate) fn derive_record(request: &Request, cookie: CookieId) -> StoredRequest {
    let info = NetDb::lookup(request.ip);
    let mut fingerprint = request.fingerprint.clone();
    if let (Some(ja3), Some(ja4)) = (request.tls.ja3, request.tls.ja4) {
        fingerprint.set(fp_types::AttrId::Ja3, ja3);
        fingerprint.set(fp_types::AttrId::Ja4, ja4);
    }
    StoredRequest {
        id: 0,
        time: request.time,
        site_token: request.site_token,
        ip_hash: NetDb::hash_ip(request.ip),
        ip_offset_minutes: info.region.offset_minutes,
        ip_region: region_label(info.region_index),
        ip_lat: info.region.lat as f32,
        ip_lon: info.region.lon as f32,
        asn: info.asn.asn,
        asn_flagged: AsnBlocklist::is_flagged(info.asn),
        ip_blocklisted: IpBlocklist::is_blocked(request.ip),
        tor_exit: is_tor_exit(request.ip),
        cookie,
        fingerprint,
        tls: request.tls,
        behavior: request.behavior,
        cadence: request.cadence,
        source: request.source,
        verdicts: VerdictSet::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_fingerprint::{
        BrowserFamily, BrowserProfile, Collector, DeviceKind, DeviceProfile, LocaleSpec,
    };
    use fp_types::{BehaviorTrace, SimTime, Splittable, TrafficSource, Verdict};
    use std::net::Ipv4Addr;

    fn request(token: Symbol, cookie: Option<u64>) -> Request {
        let mut rng = Splittable::new(1);
        let d = DeviceProfile::sample(DeviceKind::WindowsDesktop, &mut rng);
        let b = BrowserProfile::contemporary(BrowserFamily::Chrome, &mut rng);
        Request {
            id: 0,
            time: SimTime::from_day(0, 10),
            site_token: token,
            ip: Ipv4Addr::new(73, 9, 9, 9),
            cookie,
            fingerprint: Collector::collect(&d, &b, &LocaleSpec::en_us()),
            tls: b.family.tls_facet(),
            behavior: BehaviorTrace::silent(),
            cadence: fp_types::BehaviorFacet::unobserved(),
            source: TrafficSource::RealUser,
        }
    }

    #[test]
    fn unregistered_tokens_are_rejected() {
        let mut site = HoneySite::new();
        site.register_token(sym("known"));
        assert!(site.ingest(request(sym("unknown"), None)).is_none());
        assert!(site.ingest(request(sym("known"), None)).is_some());
        assert_eq!(site.rejected_count(), 1);
        assert_eq!(site.store().len(), 1);
    }

    #[test]
    fn cookie_is_issued_on_first_contact() {
        let mut site = HoneySite::new();
        site.register_token(sym("tok"));
        let id1 = site.ingest(request(sym("tok"), None)).unwrap();
        let id2 = site.ingest(request(sym("tok"), None)).unwrap();
        let c1 = site.store().get(id1).unwrap().cookie;
        let c2 = site.store().get(id2).unwrap().cookie;
        assert_ne!(c1, c2, "fresh cookie per cookie-less visit");
        let id3 = site.ingest(request(sym("tok"), Some(777))).unwrap();
        assert_eq!(
            site.store().get(id3).unwrap().cookie,
            777,
            "presented cookie kept"
        );
    }

    #[test]
    fn raw_ip_never_stored_but_facts_are() {
        let mut site = HoneySite::new();
        site.register_token(sym("tok"));
        let id = site.ingest(request(sym("tok"), None)).unwrap();
        let r = site.store().get(id).unwrap();
        assert_eq!(r.ip_hash, NetDb::hash_ip(Ipv4Addr::new(73, 9, 9, 9)));
        assert_eq!(r.asn, 7922, "Comcast prefix");
        assert!(!r.asn_flagged, "residential ASN unflagged");
        assert!(!r.tor_exit, "residential address is no Tor exit");
        assert!(r.ip_region.as_str().starts_with("United States"));
    }

    #[test]
    fn detectors_run_in_pipeline() {
        let mut site = HoneySite::new();
        site.register_token(sym("tok"));
        // Silent desktop: DataDome flags it, BotD passes (plugins present),
        // and the truthful Chrome handshake passes the cross-layer check.
        let id = site.ingest(request(sym("tok"), None)).unwrap();
        let r = site.store().get(id).unwrap();
        assert!(r.verdicts.bot("DataDome"));
        assert!(!r.verdicts.bot("BotD"));
        assert!(!r.verdicts.bot("fp-tls-crosslayer"));
        assert!(!r.verdicts.bot("fp-behavior"));
        // Provenance is named, in chain order.
        let names: Vec<&str> = r.verdicts.iter().map(|(d, _)| d.as_str()).collect();
        assert_eq!(
            names,
            ["DataDome", "BotD", "fp-tls-crosslayer", "fp-behavior"]
        );
    }

    #[test]
    fn stored_record_materialises_the_tls_facet() {
        let mut site = HoneySite::new();
        site.register_token(sym("tok"));
        let req = request(sym("tok"), None);
        let facet = req.tls;
        let id = site.ingest(req).unwrap();
        let r = site.store().get(id).unwrap();
        assert_eq!(r.tls, facet, "facet carried verbatim");
        assert_eq!(
            r.fingerprint.get(fp_types::AttrId::Ja3).as_str(),
            facet.ja3_str(),
            "facet materialised as the ja3 analysis attribute"
        );
        assert_eq!(
            r.fingerprint.get(fp_types::AttrId::Ja4).as_str(),
            facet.ja4_str()
        );
    }

    #[test]
    fn lagging_tls_stack_is_flagged_in_the_default_chain() {
        let mut site = HoneySite::new();
        site.register_token(sym("tok"));
        let mut req = request(sym("tok"), None);
        // Perfect Chrome fingerprint, Go ClientHello: only the cross-layer
        // detector can see the lie.
        req.tls = fp_tls::TlsClientKind::GoHttp.facet();
        let id = site.ingest(req).unwrap();
        let r = site.store().get(id).unwrap();
        assert!(r.verdicts.bot("fp-tls-crosslayer"));
        assert!(
            !r.verdicts.bot("BotD"),
            "browser-layer detectors saw nothing"
        );
    }

    #[test]
    fn single_shot_sites_seal_epochs_per_n_requests() {
        let mut site = HoneySite::new();
        site.register_token(sym("tok"));
        site.set_retention(fp_types::RetentionPolicy::SlidingWindow { epochs: 2 });
        site.set_epoch_every(4);
        for _ in 0..20 {
            site.ingest(request(sym("tok"), None));
        }
        // 20 requests / 4 per epoch = 5 seals; a 2-epoch window holds at
        // most 8 sealed records (the active segment is empty right after
        // the 5th seal).
        assert_eq!(site.store().stats().epochs_sealed, 5);
        assert_eq!(site.store().len(), 8, "peak residency is bounded");
        assert!(site.store().stats().records_evicted > 0);
        // Verdict-carrying records are still fully queryable.
        for r in site.store().iter() {
            assert!(r.verdicts.verdict("DataDome").is_some());
        }
    }

    /// A detector that always returns one verdict.
    struct Fixed(&'static str, fp_types::StateScope, Verdict);

    impl Detector for Fixed {
        fn name(&self) -> &'static str {
            self.0
        }
        fn scope(&self) -> fp_types::StateScope {
            self.1
        }
        fn observe(&mut self, _r: &StoredRequest) -> Verdict {
            self.2
        }
        fn fork(&self) -> Box<dyn Detector> {
            Box::new(Fixed(self.0, self.1, self.2))
        }
    }

    /// 63 stateless "human" detectors, then a per-cookie "last" one that
    /// says Bot: the longest chain, its last verdict on the mask's top bit
    /// and on the cookie route.
    fn full_chain() -> Vec<Box<dyn Detector>> {
        let human = || Fixed("human", fp_types::StateScope::Stateless, Verdict::Human);
        let mut chain: Vec<Box<dyn Detector>> = (0..63)
            .map(|_| Box::new(human()) as Box<dyn Detector>)
            .collect();
        chain.push(Box::new(Fixed(
            "last",
            fp_types::StateScope::PerCookie,
            Verdict::Bot,
        )));
        chain
    }

    #[test]
    fn a_64_detector_chain_records_its_last_verdict() {
        let mut sequential = HoneySite::with_chain(full_chain());
        let mut served = HoneySite::with_chain(full_chain());
        for site in [&mut sequential, &mut served] {
            site.register_token(sym("tok"));
        }
        sequential.ingest(request(sym("tok"), None));
        served.ingest_stream([request(sym("tok"), None)], 2);
        for site in [&sequential, &served] {
            let r = site.store().iter().next().expect("one record");
            assert!(r.verdicts.bot("last"));
            assert!(!r.verdicts.bot("human"));
            assert_eq!(r.verdicts.len(), 2, "duplicate names share one entry");
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 detectors")]
    fn a_65th_detector_panics_at_push() {
        let mut site = HoneySite::with_chain(full_chain());
        // Its bit would shift past the mask (onto bit 0 in a release build).
        site.push_detector(Box::new(Fixed(
            "65th",
            fp_types::StateScope::Stateless,
            Verdict::Bot,
        )));
    }

    #[test]
    fn custom_chain_extends_provenance() {
        let always_bot = Fixed("always-bot", fp_types::StateScope::Stateless, Verdict::Bot);
        let mut site = HoneySite::new();
        site.push_detector(Box::new(always_bot));
        site.register_token(sym("tok"));
        let id = site.ingest(request(sym("tok"), None)).unwrap();
        let r = site.store().get(id).unwrap();
        assert!(r.verdicts.bot("always-bot"));
        assert_eq!(r.verdicts.len(), 5);
    }
}
