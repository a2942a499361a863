//! The deployable engine: mined spatial rules + the location check + the
//! two temporal anchors, evaluated per request.
//!
//! One set of detectors runs it: [`FpInconsistent::detectors`] hands out
//! the stateless spatial matcher ([`SpatialDetector`]) and the two §7.2
//! anchors ([`CookieAnchor`], [`IpAnchor`]), each a
//! [`fp_types::Detector`] ready to plug into the honey site's ingest chain
//! next to DataDome/BotD (the §7 deployment story). The temporal analysis
//! ships as two shard-local state machines so the sharded pipeline can
//! route each to its own worker; their disjunction is the paper's temporal
//! flag.
//!
//! The batch path — [`FpInconsistent::flags`] / [`FpInconsistent::stream`]
//! — runs the same spatial check and the same two anchors in one pass over
//! a recorded store, yielding `(spatial, temporal)` flags.

use crate::rulepack::{PackSlot, RulePack};
use crate::rules::RuleSet;
use crate::spatial::{self, MineConfig};
use crate::temporal::{CookieAnchor, IpAnchor};
use fp_honeysite::{RequestStore, StoredRequest};
use fp_netsim::geo::offset_of_timezone;
use fp_types::detect::{provenance, Detector, StateScope, Verdict};
use fp_types::AttrId;
use std::sync::Arc;

/// FP-Inconsistent, ready to deploy: a mined rule set plus the
/// general checks. The interpreted rule set is kept (it is the mining
/// output, the filter-list renderer and the reference matcher); the hot
/// path evaluates the [`RulePack`] compiled from it at construction.
pub struct FpInconsistent {
    rules: RuleSet,
    pack: Arc<RulePack>,
}

impl FpInconsistent {
    /// Mine rules from a recorded store (Algorithm 1) and wrap them in an
    /// engine.
    pub fn mine(store: &RequestStore, mine_config: &MineConfig) -> FpInconsistent {
        FpInconsistent::from_rules(spatial::mine(store, mine_config))
    }

    /// Build from an existing rule set (e.g. parsed from a filter list).
    /// Compiles the set into the pack the hot path evaluates.
    pub fn from_rules(rules: RuleSet) -> FpInconsistent {
        let pack = Arc::new(RulePack::compile(&rules));
        FpInconsistent { rules, pack }
    }

    /// The mined rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The compiled pack the hot path evaluates (same rules, same flags).
    pub fn pack(&self) -> Arc<RulePack> {
        self.pack.clone()
    }

    /// Spatial verdict for one request (compiled pack evaluation).
    pub fn spatial_flag(&self, request: &StoredRequest) -> bool {
        pack_check(&self.pack, request)
    }

    /// Spatial verdict via the interpreted rule set — the reference
    /// implementation the compiled path is tested flag-for-flag against.
    pub fn spatial_flag_interpreted(&self, request: &StoredRequest) -> bool {
        self.rules.matches(request) || location_mismatch(request)
    }

    /// A single-pass evaluator over a request stream in arrival order.
    pub fn stream(&self) -> EngineStream<'_> {
        EngineStream {
            engine: self,
            cookie: CookieAnchor::default(),
            ip: IpAnchor::default(),
        }
    }

    /// Combined per-request flags: `(spatial, temporal)`. One store
    /// traversal — both checks run per request as the pass advances.
    pub fn flags(&self, store: &RequestStore) -> Vec<(bool, bool)> {
        let mut stream = self.stream();
        store.iter().map(|r| stream.observe(r)).collect()
    }

    /// The engine's [`Detector`]s, in chain order: the stateless spatial
    /// matcher, the per-cookie temporal anchor and the per-IP temporal
    /// anchor. Plug them into `HoneySite::push_detector` to run
    /// FP-Inconsistent inline at ingest.
    pub fn detectors(&self) -> Vec<Box<dyn Detector>> {
        vec![
            Box::new(SpatialDetector::from_pack(self.pack.clone())),
            Box::new(CookieAnchor::default()),
            Box::new(IpAnchor::default()),
        ]
    }
}

/// Single-pass `(spatial, temporal)` evaluator borrowed from an engine:
/// the spatial check plus the two temporal anchor detectors.
pub struct EngineStream<'a> {
    engine: &'a FpInconsistent,
    cookie: CookieAnchor,
    ip: IpAnchor,
}

impl EngineStream<'_> {
    /// Evaluate one request (must be fed in arrival order).
    pub fn observe(&mut self, request: &StoredRequest) -> (bool, bool) {
        // Non-short-circuiting: both anchors must ingest every request.
        let temporal = self.cookie.observe(request).is_bot() | self.ip.observe(request).is_bot();
        (self.engine.spatial_flag(request), temporal)
    }
}

/// The location check, beyond the concrete mined pairs: the browser
/// timezone's offset contradicts the IP geolocation offset. This is the
/// generalisation that catches Tor (§7.5) on exit/timezone combinations
/// never seen during mining.
fn location_mismatch(request: &StoredRequest) -> bool {
    request
        .fingerprint
        .get(AttrId::Timezone)
        .as_str()
        .and_then(offset_of_timezone)
        .is_some_and(|tz| tz != request.ip_offset_minutes)
}

/// The compiled spatial predicate: a pack rule match or the location
/// check. [`FpInconsistent::spatial_flag_interpreted`] is the reference
/// semantics it must never diverge from (the equivalence suites assert so
/// flag-for-flag).
fn pack_check(pack: &RulePack, request: &StoredRequest) -> bool {
    pack.matches(request) || location_mismatch(request)
}

/// The compiled rules + location check as a stateless [`Detector`].
///
/// Two deployment modes:
///
/// * **Pinned** ([`SpatialDetector::from_pack`]) — the detector and all
///   its forks evaluate one fixed pack.
/// * **Tracking** ([`SpatialDetector::tracking`]) — the detector holds a
///   shared [`PackSlot`]; each [`Detector::fork`] snapshots the slot's
///   *current* pack. When the defender hot-swaps mid-round, in-flight
///   forks keep their snapshot (no barrier, no torn reads) while chains
///   built afterwards evaluate the new pack.
pub struct SpatialDetector {
    pack: Arc<RulePack>,
    slot: Option<Arc<PackSlot>>,
}

impl SpatialDetector {
    /// A detector pinned to an already compiled pack.
    pub fn from_pack(pack: Arc<RulePack>) -> SpatialDetector {
        SpatialDetector { pack, slot: None }
    }

    /// A detector tracking a hot-swap slot: every fork snapshots the
    /// slot's current pack — how the re-mining defense member publishes
    /// refreshed rules to future chains without pausing current ones.
    pub fn tracking(slot: Arc<PackSlot>) -> SpatialDetector {
        SpatialDetector {
            pack: slot.load(),
            slot: Some(slot),
        }
    }
}

impl Detector for SpatialDetector {
    fn name(&self) -> &'static str {
        provenance::FP_SPATIAL
    }

    fn scope(&self) -> StateScope {
        StateScope::Stateless
    }

    fn observe(&mut self, request: &StoredRequest) -> Verdict {
        Verdict::from_flag(pack_check(&self.pack, request))
    }

    fn fork(&self) -> Box<dyn Detector> {
        Box::new(SpatialDetector {
            // Tracking mode re-snapshots the slot so post-swap chains see
            // the new pack; pinned mode shares the compiled artifact.
            pack: match &self.slot {
                Some(slot) => slot.load(),
                None => self.pack.clone(),
            },
            slot: self.slot.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AnalysisAttr;
    use crate::rules::SpatialRule;
    use fp_types::{
        sym, AttrValue, BehaviorTrace, Fingerprint, SimTime, TrafficSource, VerdictSet,
    };

    fn request(tz: &str, ip_offset: i32) -> StoredRequest {
        StoredRequest {
            id: 0,
            time: SimTime::EPOCH,
            site_token: sym("t"),
            ip_hash: 5,
            ip_offset_minutes: ip_offset,
            ip_region: sym("Germany/Bayern"),
            ip_lat: 0.0,
            ip_lon: 0.0,
            asn: 1,
            asn_flagged: false,
            ip_blocklisted: false,
            tor_exit: false,
            cookie: 1,
            fingerprint: Fingerprint::new().with(AttrId::Timezone, tz),
            tls: fp_types::TlsFacet::unobserved(),
            behavior: BehaviorTrace::silent(),
            cadence: fp_types::BehaviorFacet::unobserved(),
            source: TrafficSource::RealUser,
            verdicts: VerdictSet::new(),
        }
    }

    /// The rule `timezone=UTC AND ip_region=Germany/Bayern`.
    fn utc_in_bayern() -> RuleSet {
        let mut rules = RuleSet::new();
        rules.add(SpatialRule::new(
            AnalysisAttr::Fp(AttrId::Timezone),
            AttrValue::text("UTC"),
            AnalysisAttr::IpRegion,
            AttrValue::text("Germany/Bayern"),
        ));
        rules
    }

    #[test]
    fn generalized_location_catches_unseen_combination() {
        // No mined rules at all — the Tor case: UTC browser, German exit.
        let engine = FpInconsistent::from_rules(RuleSet::new());
        assert!(engine.spatial_flag(&request("UTC", -60)));
        assert!(!engine.spatial_flag(&request("Europe/Berlin", -60)));
    }

    #[test]
    fn unknown_timezone_is_not_flagged() {
        let engine = FpInconsistent::from_rules(RuleSet::new());
        assert!(!engine.spatial_flag(&request("Mars/Olympus", -60)));
    }

    #[test]
    fn mined_rules_apply() {
        // A UTC browser on a UTC-offset address passes the location check,
        // so only the rule can flag it.
        let engine = FpInconsistent::from_rules(utc_in_bayern());
        assert!(!FpInconsistent::from_rules(RuleSet::new()).spatial_flag(&request("UTC", 0)));
        assert!(engine.spatial_flag(&request("UTC", 0)));
        assert!(!engine.spatial_flag(&request("Europe/Berlin", -60)));
    }

    #[test]
    fn compiled_and_interpreted_spatial_flags_agree() {
        let engine = FpInconsistent::from_rules(utc_in_bayern());
        for r in [
            request("UTC", -60),
            request("Europe/Berlin", -60),
            request("UTC", 0),
            request("Mars/Olympus", -60),
        ] {
            assert_eq!(engine.spatial_flag(&r), engine.spatial_flag_interpreted(&r));
        }
        assert_eq!(engine.pack().hash(), engine.rules().content_hash());
    }

    #[test]
    fn tracking_detector_forks_pick_up_swapped_pack_without_a_barrier() {
        let slot = Arc::new(PackSlot::new(RulePack::compile(&utc_in_bayern())));
        let root = SpatialDetector::tracking(slot.clone());
        let mut in_flight = root.fork();
        // Flagged by the rule alone: the location check passes it.
        let hit = request("UTC", 0);

        assert!(in_flight.observe(&hit).is_bot());
        // Defender hot-swaps to the empty pack mid-round.
        slot.store(RulePack::empty());
        // The in-flight fork finishes on its snapshot — no barrier, no
        // change of verdict mid-stream.
        assert!(in_flight.observe(&hit).is_bot());
        // Chains built after the swap see the new pack.
        assert!(!root.fork().observe(&hit).is_bot());
    }

    #[test]
    fn detector_adapters_match_the_batch_flags() {
        let engine = FpInconsistent::from_rules(utc_in_bayern());
        let mut store = RequestStore::new();
        store.push(request("UTC", -60));
        store.push(request("Europe/Berlin", -60));
        store.push(request("UTC", 0));
        // The cookie reports two core counts, then its address a second
        // timezone offset: both anchors flag.
        for (cores, offset) in [(4i64, 0i64), (8, 0), (4, -60)] {
            let mut r = request("Europe/Berlin", -60);
            r.fingerprint.set(AttrId::HardwareConcurrency, cores);
            r.fingerprint.set(AttrId::TimezoneOffset, offset);
            store.push(r);
        }
        let batch = engine.flags(&store);
        assert_eq!(
            batch
                .iter()
                .map(|(_, temporal)| *temporal)
                .collect::<Vec<_>>(),
            [false, false, false, false, true, true]
        );

        let mut detectors = engine.detectors();
        assert_eq!(detectors.len(), 3);
        for (r, (spatial, temporal)) in store.iter().zip(batch) {
            let s = detectors[0].observe(r).is_bot();
            let tc = detectors[1].observe(r).is_bot();
            let ti = detectors[2].observe(r).is_bot();
            assert_eq!(s, spatial);
            assert_eq!(
                tc || ti,
                temporal,
                "anchor split must compose to the batch flag"
            );
        }
    }
}
