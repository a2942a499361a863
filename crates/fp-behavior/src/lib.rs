//! The session behaviour detector: FP-Agent's separation signal in the
//! default chain.
//!
//! AI browsing agents drive a real Chromium: their fingerprint is
//! consistent, their ClientHello is truthful, and the only per-request
//! tell (DataDome's pointer read) sees nothing on a silent page load.
//! What they cannot hide is *session shape* — a harness ticks. FP-Agent
//! (PAPERS.md) separates agents from humans on interaction cadence and
//! navigation shape, which "Beyond the Crawl" measures on real users:
//! humans pause, read, branch and backtrack; harnesses pace page
//! transitions at machine-regular intervals.
//!
//! [`BehaviorDetector`] is that signal as a workspace [`Detector`]: it
//! reads the session-level [`fp_types::BehaviorFacet`] carried on every
//! request, accumulates machine-cadence observations *per cookie* (the
//! same state anchor as the temporal detectors, so sharded ingest stays
//! verdict-for-verdict identical to sequential), and flags once a cookie
//! has paced like a harness often enough. Deliberately, a credible
//! pointer trajectory does *not* override the cadence read: a replayed
//! human trace forges per-request pointer credibility (that is how the
//! FP-Agent counter-move beats DataDome), but the session's timing
//! regularity survives the forgery — which is why the signal earns a
//! detector of its own instead of a branch in DataDome's.
//!
//! [`BehaviorMember`] is the detector's defender lifecycle: thresholds
//! live in a shared [`HotSwap`] slot, and a re-fitting member re-learns
//! the machine-cadence cutoff from the retained training window at
//! cadence — the behavioural analogue of `SpatialMember` re-mining,
//! published barrier-free to every chain forked after the swap.

// A detection subsystem other crates build chains from: every public item
// is contract surface, so an undocumented one is a broken promise.
#![deny(missing_docs)]

use fp_obs::{Histogram, MetricsRegistry};
use fp_types::behavior::{credible_pointer, CADENCE_CV_CEILING, CADENCE_CV_FLOOR};
use fp_types::defense::{RetrainSpend, RoundContext, StackMember};
use fp_types::detect::{provenance, Detector, StateScope, Verdict};
use fp_types::{BehaviorThresholds, CookieId, HotSwap, StoredRequest};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Registry name of the re-fit window-scan timing histogram.
pub const REFIT_SCAN_NS: &str = "defense_behavior_refit_scan_ns";
/// Registry name of the threshold hot-swap timing histogram.
pub const THRESHOLD_SWAP_NS: &str = "defense_behavior_swap_ns";

/// The in-chain session behaviour detector (`fp-behavior` provenance).
///
/// Per-cookie stateful: each observed machine-cadence facet on a cookie
/// counts toward that cookie's conviction; the verdict turns `Bot` from
/// the `min_observations`-th machine-paced request onward. Thresholds
/// follow the rule-pack discipline: a re-fitting [`BehaviorMember`]
/// publishes new cutoffs to a shared [`HotSwap`] slot without a barrier,
/// each detector applies the snapshot it took when it was built or
/// forked, so forks taken after a re-fit apply the new cutoffs and
/// in-flight detectors finish on the old ones.
pub struct BehaviorDetector {
    /// The slot re-fits publish to; [`Detector::fork`] re-snapshots it.
    slot: Arc<HotSwap<BehaviorThresholds>>,
    /// The slot's value when this detector was built or forked.
    thresholds: BehaviorThresholds,
    /// Machine-cadence observations per cookie (the per-anchor state the
    /// sharded pipeline partitions on).
    machine_obs: HashMap<CookieId, u32>,
}

impl Default for BehaviorDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl BehaviorDetector {
    /// A detector with its own threshold slot holding the sourced
    /// defaults ([`fp_types::behavior`]).
    pub fn new() -> BehaviorDetector {
        BehaviorDetector::tracking(Arc::new(HotSwap::new(BehaviorThresholds::default())))
    }

    /// A detector tracking a shared threshold slot — what
    /// [`BehaviorMember`] hands each round's chain, so a re-fit published
    /// between rounds reaches every detector built or forked afterwards.
    pub fn tracking(slot: Arc<HotSwap<BehaviorThresholds>>) -> BehaviorDetector {
        BehaviorDetector {
            thresholds: *slot.load(),
            slot,
            machine_obs: HashMap::new(),
        }
    }

    /// The thresholds this detector applies (its snapshot of the slot).
    pub fn thresholds(&self) -> BehaviorThresholds {
        self.thresholds
    }
}

impl Detector for BehaviorDetector {
    fn name(&self) -> &'static str {
        provenance::FP_BEHAVIOR
    }

    fn scope(&self) -> StateScope {
        StateScope::PerCookie
    }

    fn observe(&mut self, request: &StoredRequest) -> Verdict {
        // No pointer-credibility override: a replayed human trajectory
        // forges the per-request read, the session cadence does not.
        let th = self.thresholds;
        if !th.machine_cadence(&request.cadence) {
            return Verdict::Human;
        }
        let seen = self.machine_obs.entry(request.cookie).or_insert(0);
        *seen += 1;
        Verdict::from_flag(*seen >= th.min_observations.max(1))
    }

    fn fork(&self) -> Box<dyn Detector> {
        // Fresh per-cookie state and a fresh snapshot of the shared
        // slot — the shard fork discipline.
        Box::new(BehaviorDetector::tracking(self.slot.clone()))
    }
}

/// Re-fit phase timings, resolved once at [`BehaviorMember::set_metrics`].
/// Two histograms, mirroring the re-mine discipline: scan grows with the
/// retained window; the swap must stay O(1) (it is the barrier-free
/// publish).
struct RefitMetrics {
    scan_ns: Arc<Histogram>,
    swap_ns: Arc<Histogram>,
}

/// The `fp-behavior` slot of a defense stack: session-cadence thresholds,
/// optionally re-fitted from the stack's retained training window.
///
/// The member owns the shared threshold [`HotSwap`] slot: each round's
/// detectors *track* it, so a re-fit at end-of-round re-learns the
/// machine-cadence cutoff off the hot path and publishes it atomically —
/// chains forked afterwards apply the new cutoff, in-flight chains finish
/// on their snapshot. The re-fit is the FP-Agent counter-counter-move:
/// when a humanising fleet drags its gap CV just over the static floor,
/// the member re-anchors the floor to the *trusted* human sample in the
/// window — requests with credible pointer input that no chain detector
/// flagged, the label-free stand-in for ground truth a real defender
/// has. A humanising fleet forges pointer credibility too, so the sample
/// can be poisoned from below; two ramparts bound the damage. First, the
/// fit never trusts a record the *currently deployed* thresholds call
/// machine-paced — the band being policed cannot vote its own acquittal,
/// so once the floor rises the forgers just under it stay excluded
/// (a ratchet, not a chase). Second, the fitted floor clamps into
/// `[CADENCE_CV_FLOOR, CADENCE_CV_CEILING]`: neither a poisoned nor a
/// thin sample can push the cutoff into genuine-user territory, and an
/// agent paying full human-grade jitter (CV past the ceiling) escapes by
/// design — at the throughput cost that makes the evasion Pyrrhic.
pub struct BehaviorMember {
    slot: Arc<HotSwap<BehaviorThresholds>>,
    /// Re-fit after every `cadence`-th round; `None` freezes the sourced
    /// default thresholds forever.
    cadence: Option<u32>,
    metrics: Option<RefitMetrics>,
}

impl BehaviorMember {
    /// A frozen member deploying the sourced default thresholds forever.
    pub fn frozen() -> BehaviorMember {
        BehaviorMember {
            slot: Arc::new(HotSwap::new(BehaviorThresholds::default())),
            cadence: None,
            metrics: None,
        }
    }

    /// A re-fitting member: starts from the sourced defaults, then
    /// re-learns the cadence cutoff from the training window its stack
    /// retains at the end of every `cadence`-th round (cadence 1 = every
    /// round).
    pub fn refitting(cadence: u32) -> BehaviorMember {
        BehaviorMember {
            slot: Arc::new(HotSwap::new(BehaviorThresholds::default())),
            cadence: Some(cadence.max(1)),
            metrics: None,
        }
    }

    /// Attach re-fit phase timing histograms ([`REFIT_SCAN_NS`],
    /// [`THRESHOLD_SWAP_NS`]) resolved from `registry`. Call before
    /// boxing the member into a stack.
    pub fn set_metrics(&mut self, registry: &Arc<MetricsRegistry>) {
        self.metrics = Some(RefitMetrics {
            scan_ns: registry.histogram(REFIT_SCAN_NS),
            swap_ns: registry.histogram(THRESHOLD_SWAP_NS),
        });
    }

    /// The thresholds currently deployed (refreshed by re-fitting).
    pub fn thresholds(&self) -> BehaviorThresholds {
        *self.slot.load()
    }

    /// The deployment slot itself — share it to observe re-fits as they
    /// publish.
    pub fn slot(&self) -> Arc<HotSwap<BehaviorThresholds>> {
        self.slot.clone()
    }

    /// The configured re-fit cadence (`None` = frozen).
    pub fn cadence(&self) -> Option<u32> {
        self.cadence
    }

    /// The cutoff a trusted-human gap-CV sample re-anchors the floor to:
    /// 95 % of the sample's 5th percentile, clamped into
    /// `[CADENCE_CV_FLOOR, CADENCE_CV_CEILING]`. An empty sample keeps
    /// the sourced default.
    pub fn fit_floor(mut trusted_cv: Vec<f32>) -> f32 {
        if trusted_cv.is_empty() {
            return CADENCE_CV_FLOOR;
        }
        trusted_cv.sort_by(f32::total_cmp);
        let p05 = trusted_cv[(trusted_cv.len() - 1) * 5 / 100];
        (p05 * 0.95).clamp(CADENCE_CV_FLOOR, CADENCE_CV_CEILING)
    }
}

impl StackMember for BehaviorMember {
    fn member_name(&self) -> &'static str {
        provenance::FP_BEHAVIOR
    }

    fn detector(&self) -> Box<dyn Detector> {
        Box::new(BehaviorDetector::tracking(self.slot.clone()))
    }

    fn wants_history(&self) -> bool {
        self.cadence.is_some()
    }

    fn end_of_round(&mut self, epoch: &RoundContext<'_>) -> RetrainSpend {
        let Some(cadence) = self.cadence else {
            return RetrainSpend::default();
        };
        if !(epoch.round + 1).is_multiple_of(cadence) {
            return RetrainSpend::default();
        }
        // One pass over the window: collect the trusted human sample —
        // facet observed, credible pointer input, no detector flag, and
        // not machine-paced under the *deployed* thresholds. The last
        // filter is the anti-poisoning ratchet: traffic in the band being
        // policed never votes on where the band ends.
        let t0 = Instant::now();
        let deployed = *self.slot.load();
        let trusted: Vec<f32> = epoch
            .records
            .iter()
            .filter(|r| {
                r.cadence.is_observed()
                    && credible_pointer(&r.behavior)
                    && !r.verdicts.iter().any(|(_, v)| v.is_bot())
                    && !deployed.machine_cadence(&r.cadence)
            })
            .map(|r| r.cadence.gap_cv)
            .collect();
        let scanned = epoch.records.len() as u64;
        let floor = BehaviorMember::fit_floor(trusted);
        let t1 = Instant::now();
        let prev = *self.slot.load();
        self.slot.store(BehaviorThresholds {
            cadence_cv_floor: floor,
            ..prev
        });
        if let Some(m) = &self.metrics {
            m.scan_ns.record((t1 - t0).as_nanos() as u64);
            m.swap_ns.record(t1.elapsed().as_nanos() as u64);
        }
        RetrainSpend {
            retrained_members: 1,
            records_scanned: scanned,
            ..RetrainSpend::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_types::retention::RecordView;
    use fp_types::{
        sym, BehaviorFacet, BehaviorTrace, Fingerprint, PointerStats, SimTime, TrafficSource,
        VerdictSet,
    };

    fn record(cookie: CookieId, cadence: BehaviorFacet, behavior: BehaviorTrace) -> StoredRequest {
        StoredRequest {
            id: 0,
            time: SimTime::EPOCH,
            site_token: sym("t"),
            ip_hash: 1,
            ip_offset_minutes: 0,
            ip_region: sym("United States of America/California"),
            ip_lat: 0.0,
            ip_lon: 0.0,
            asn: 1,
            asn_flagged: false,
            ip_blocklisted: false,
            tor_exit: false,
            cookie,
            fingerprint: Fingerprint::new(),
            tls: fp_types::TlsFacet::unobserved(),
            behavior,
            cadence,
            source: TrafficSource::RealUser,
            verdicts: VerdictSet::new(),
        }
    }

    fn machine() -> BehaviorFacet {
        BehaviorFacet::observed(3_000, 3_300, 0.05, 6, 1, 2_800)
    }

    fn human() -> BehaviorFacet {
        BehaviorFacet::observed(9_000, 40_000, 0.7, 4, 3, 8_000)
    }

    fn humanised() -> BehaviorFacet {
        // The FP-Agent counter-move: jittered just over the static floor,
        // still short of the genuine human envelope.
        BehaviorFacet::observed(5_000, 9_000, 0.25, 6, 1, 4_000)
    }

    fn human_pointer() -> BehaviorTrace {
        BehaviorTrace {
            mouse_events: 25,
            touch_events: 0,
            pointer: Some(PointerStats {
                samples: 40,
                duration_ms: 2200,
                speed_cv: 0.55,
                curvature: 0.12,
                pause_fraction: 0.25,
            }),
            first_input_delay_ms: 400,
        }
    }

    #[test]
    fn flags_machine_cadence_after_the_warmup() {
        let mut d = BehaviorDetector::new();
        assert_eq!(d.name(), provenance::FP_BEHAVIOR);
        assert_eq!(d.scope(), StateScope::PerCookie);
        let r = record(9, machine(), BehaviorTrace::silent());
        assert!(!d.observe(&r).is_bot(), "1st machine observation: warm-up");
        assert!(!d.observe(&r).is_bot(), "2nd: still warm-up");
        assert!(d.observe(&r).is_bot(), "3rd: convicted");
        assert!(d.observe(&r).is_bot(), "…and stays convicted");
    }

    #[test]
    fn warmup_is_per_cookie() {
        let mut d = BehaviorDetector::new();
        for cookie in [1, 2, 3] {
            let r = record(cookie, machine(), BehaviorTrace::silent());
            assert!(!d.observe(&r).is_bot(), "fresh cookie starts its warm-up");
        }
        let r = record(1, machine(), BehaviorTrace::silent());
        assert!(!d.observe(&r).is_bot());
        assert!(d.observe(&r).is_bot(), "cookie 1 reaches its own 3rd");
    }

    #[test]
    fn human_cadence_and_unobserved_facets_pass() {
        let mut d = BehaviorDetector::new();
        let h = record(5, human(), BehaviorTrace::silent());
        let u = record(6, BehaviorFacet::unobserved(), BehaviorTrace::silent());
        for _ in 0..10 {
            assert!(!d.observe(&h).is_bot(), "human cadence never counts");
            assert!(!d.observe(&u).is_bot(), "no telemetry, no conviction");
        }
    }

    #[test]
    fn a_forged_pointer_does_not_shield_machine_cadence() {
        // The FP-Agent counter-move replays a human trajectory to pass
        // DataDome's per-request read; the session cadence still convicts.
        let mut d = BehaviorDetector::new();
        let r = record(7, machine(), human_pointer());
        assert!(!d.observe(&r).is_bot(), "warm-up");
        assert!(!d.observe(&r).is_bot(), "warm-up");
        assert!(
            d.observe(&r).is_bot(),
            "pointer credibility must not override the cadence read"
        );
    }

    #[test]
    fn forks_drop_state_but_share_thresholds() {
        let mut d = BehaviorDetector::new();
        let r = record(9, machine(), BehaviorTrace::silent());
        for _ in 0..3 {
            d.observe(&r);
        }
        assert!(d.observe(&r).is_bot());
        let mut forked = d.fork();
        assert!(
            !forked.observe(&r).is_bot(),
            "forks start from empty per-cookie state"
        );
    }

    #[test]
    fn refit_recaptures_humanised_cadence_without_touching_humans() {
        let mut member = BehaviorMember::refitting(1);
        assert!(member.wants_history());
        let mut d = member.detector();
        let agent = record(1, humanised(), BehaviorTrace::silent());
        for _ in 0..5 {
            assert!(
                !d.observe(&agent).is_bot(),
                "humanised cadence clears the static floor"
            );
        }

        // The window holds trusted humans (credible pointer, CV ≥ 0.38).
        let window: Vec<StoredRequest> = (0..40)
            .map(|i| {
                let mut facet = human();
                facet.gap_cv = 0.38 + (i as f32) * 0.01;
                record(100 + i as u64, facet, human_pointer())
            })
            .collect();
        let spend = member.end_of_round(&RoundContext {
            round: 0,
            records: RecordView::from_slice(&window),
            now: SimTime::EPOCH,
        });
        assert_eq!(spend.retrained_members, 1);
        assert_eq!(spend.records_scanned, 40);
        let floor = member.thresholds().cadence_cv_floor;
        assert_eq!(floor, CADENCE_CV_CEILING, "p05·0.95 clamps to the ceiling");

        // Detectors forked after the publish apply the re-fitted floor…
        let mut refit = member.detector();
        for i in 0..2 {
            assert!(!refit.observe(&agent).is_bot(), "warm-up {i}");
        }
        assert!(refit.observe(&agent).is_bot(), "humanised agent recaptured");
        // …and genuine humans still pass (CV ≥ 0.38 > ceiling).
        let mut fpr = member.detector();
        for w in &window {
            assert!(!fpr.observe(w).is_bot(), "trusted humans stay clean");
        }
    }

    #[test]
    fn poisoned_forgers_cannot_drag_a_raised_floor_back_down() {
        // Round 0: a clean human window raises the floor to the ceiling.
        let mut member = BehaviorMember::refitting(1);
        let humans: Vec<StoredRequest> = (0..40)
            .map(|i| {
                let mut facet = human();
                facet.gap_cv = 0.38 + (i as f32) * 0.01;
                record(100 + i as u64, facet, human_pointer())
            })
            .collect();
        member.end_of_round(&RoundContext {
            round: 0,
            records: RecordView::from_slice(&humans),
            now: SimTime::EPOCH,
        });
        assert_eq!(member.thresholds().cadence_cv_floor, CADENCE_CV_CEILING);

        // Round 1: the fleet floods the window with forged-pointer
        // humanised sessions (unflagged — that is the erosion). They sit
        // in the policed band, so the ratchet keeps them out of the fit.
        let mut window = humans;
        window.extend((0..200).map(|i| record(500 + i, humanised(), human_pointer())));
        member.end_of_round(&RoundContext {
            round: 1,
            records: RecordView::from_slice(&window),
            now: SimTime::EPOCH,
        });
        assert_eq!(
            member.thresholds().cadence_cv_floor,
            CADENCE_CV_CEILING,
            "traffic under the deployed floor must not vote the floor down"
        );
    }

    #[test]
    fn refit_on_an_empty_trusted_sample_keeps_the_sourced_default() {
        let mut member = BehaviorMember::refitting(1);
        let window = vec![record(1, machine(), BehaviorTrace::silent()); 5];
        member.end_of_round(&RoundContext {
            round: 0,
            records: RecordView::from_slice(&window),
            now: SimTime::EPOCH,
        });
        assert_eq!(member.thresholds().cadence_cv_floor, CADENCE_CV_FLOOR);
    }

    #[test]
    fn cadence_gates_the_refit_and_frozen_never_fires() {
        let window = vec![record(1, human(), human_pointer()); 4];
        let mut gated = BehaviorMember::refitting(2);
        let r0 = gated.end_of_round(&RoundContext {
            round: 0,
            records: RecordView::from_slice(&window),
            now: SimTime::EPOCH,
        });
        assert_eq!(r0, RetrainSpend::default(), "cadence 2 skips after round 0");
        let r1 = gated.end_of_round(&RoundContext {
            round: 1,
            records: RecordView::from_slice(&window),
            now: SimTime::EPOCH,
        });
        assert_eq!(r1.retrained_members, 1, "…and fires after round 1");

        let mut frozen = BehaviorMember::frozen();
        assert!(!frozen.wants_history());
        let spend = frozen.end_of_round(&RoundContext {
            round: 0,
            records: RecordView::from_slice(&window),
            now: SimTime::EPOCH,
        });
        assert_eq!(spend, RetrainSpend::default());
        assert_eq!(frozen.thresholds(), BehaviorThresholds::default());
    }

    #[test]
    fn inflight_detectors_keep_their_snapshot_across_a_refit() {
        let mut member = BehaviorMember::refitting(1);
        let agent = record(1, humanised(), BehaviorTrace::silent());
        let mut in_flight = member.detector();
        let window: Vec<StoredRequest> = (0..40)
            .map(|i| record(100 + i, human(), human_pointer()))
            .collect();
        member.end_of_round(&RoundContext {
            round: 0,
            records: RecordView::from_slice(&window),
            now: SimTime::EPOCH,
        });
        // The in-flight detector finishes on the floor it snapshotted…
        for i in 0..3 {
            assert!(!in_flight.observe(&agent).is_bot(), "observation {i}");
        }
        // …and a fork taken after the re-fit applies the new one.
        let mut forked = in_flight.fork();
        for i in 0..2 {
            assert!(!forked.observe(&agent).is_bot(), "warm-up {i}");
        }
        assert!(forked.observe(&agent).is_bot());
    }

    #[test]
    fn fit_floor_clamps_both_directions() {
        assert_eq!(BehaviorMember::fit_floor(vec![]), CADENCE_CV_FLOOR);
        assert_eq!(
            BehaviorMember::fit_floor(vec![0.9; 10]),
            CADENCE_CV_CEILING,
            "a high human envelope clamps to the ceiling"
        );
        assert_eq!(
            BehaviorMember::fit_floor(vec![0.01; 10]),
            CADENCE_CV_FLOOR,
            "a poisoned-low sample clamps to the sourced floor"
        );
        let mid = BehaviorMember::fit_floor(vec![0.25; 10]);
        assert!((mid - 0.2375).abs() < 1e-6, "{mid}");
    }

    #[test]
    fn refit_records_one_timing_sample_per_phase_per_fire() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut member = BehaviorMember::refitting(2);
        member.set_metrics(&registry);
        let window = vec![record(1, human(), human_pointer()); 4];
        for round in 0..4 {
            member.end_of_round(&RoundContext {
                round,
                records: RecordView::from_slice(&window),
                now: SimTime::EPOCH,
            });
        }
        let snap = registry.snapshot();
        for name in [REFIT_SCAN_NS, THRESHOLD_SWAP_NS] {
            let h = snap.histogram(name).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(h.count(), 2, "{name}: one sample per fired re-fit");
        }
    }
}
