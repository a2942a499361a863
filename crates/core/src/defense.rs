//! FP-Inconsistent as lifecycle-aware defense-stack members.
//!
//! The paper mines its rule set once, offline, and §6 shows why that rots:
//! visible mitigation teaches evasive services to mutate exactly the
//! attributes the concrete mined pairs key on. The defender's counter-move
//! is *re-mining* — run Algorithm 1 again over the traffic recorded since,
//! so the mutated configurations (which are still impossible, just
//! different) become rules too.
//!
//! [`SpatialMember`] packages that as a [`StackMember`]: it owns the
//! current rule set, hands the ingest chain a fresh [`SpatialDetector`]
//! per round, and — when built with [`SpatialMember::remining`] — re-runs
//! Algorithm 1 every `cadence` rounds over the **retained training
//! window** the owning stack hands it
//! ([`fp_types::defense::RoundContext::records`]). The member owns no
//! record buffer of its own: the stack's epoch-segmented store is the
//! single owner of training history, so its retention policy (sliding
//! window, sampled decay) bounds the member's resident memory for free.
//!
//! A re-mine is incremental. The member keeps one [`PairCounts`] summary
//! per labelled segment of the window ([`fp_types::SegmentId`]): it
//! counts only segments it has not seen (a new epoch, or one a decay
//! edit relabelled), drops the summaries of segments that left the
//! window, and ranks the merge of what remains — the rules
//! [`crate::spatial::mine_records`] would mine over the whole window,
//! for the cost of one epoch plus the distinct configurations.
//! Unlabelled segments are counted every time.
//!
//! The temporal anchors need no member of their own: they are stateful
//! *within* a round but have nothing to retrain between rounds, so the
//! arena wraps them in [`fp_types::defense::Frozen`].

use crate::engine::{FpInconsistent, SpatialDetector};
use crate::rulepack::{ChurnAttribution, PackSlot, RulePack};
use crate::rules::RuleSet;
use crate::spatial::{MineConfig, PairCounts};
use fp_obs::{Counter, Histogram, MetricsRegistry};
use fp_types::defense::{RetrainSpend, RoundContext, StackMember};
use fp_types::detect::{provenance, Detector};
use fp_types::SegmentId;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Registry name of the re-mine rule-set production timing histogram
/// (count, merge, rank and confirm).
pub const REMINE_SCAN_NS: &str = "defense_remine_scan_ns";
/// Registry name of the counter of records re-mines actually counted
/// (segments not summarised before) — the work, where
/// [`RetrainSpend::records_scanned`] reports the window covered.
pub const REMINE_RECORDS_COUNTED: &str = "defense_remine_records_counted";
/// Registry name of the re-mine pack-compile timing histogram.
pub const REMINE_COMPILE_NS: &str = "defense_remine_compile_ns";
/// Registry name of the pack hot-swap timing histogram.
pub const PACK_SWAP_NS: &str = "defense_pack_swap_ns";

/// Re-mine instruments, resolved once at [`SpatialMember::set_metrics`].
/// Three separate histograms because the phases have different budgets:
/// scan grows with the new epoch and the distinct configurations,
/// compile with the mined rule count, and swap must stay O(1) (it is the
/// barrier-free publish).
struct RemineMetrics {
    records_counted: Arc<Counter>,
    scan_ns: Arc<Histogram>,
    compile_ns: Arc<Histogram>,
    swap_ns: Arc<Histogram>,
}

/// One re-mine's per-rule FPR attribution, tagged with the round whose
/// end-of-round fired it (see [`SpatialMember::churn_ledger`]).
#[derive(Clone, Debug)]
pub struct RoundChurn {
    /// The round whose end-of-round re-mine produced this churn.
    pub round: u32,
    /// What each added/removed rule costs on the window's truthful
    /// traffic ([`crate::rulepack::RulePackDiff::fpr_attribution`]).
    pub attribution: ChurnAttribution,
}

/// The shared per-re-mine churn attribution trail a [`SpatialMember`]
/// appends to — held by the arena the same way the [`PackSlot`] is, so
/// reports can price every rule churn next to the pack-hash ledger.
pub type ChurnLedger = Mutex<Vec<RoundChurn>>;

/// The `fp-spatial` slot of a defense stack: mined rules + location
/// generalisation, optionally re-mined from the stack's retained
/// training window.
///
/// The member owns the deployment [`PackSlot`]: each round's detectors
/// *track* it, so a re-mine at end-of-round compiles the fresh rules off
/// the hot path, hot-swaps the slot, and every chain forked afterwards
/// evaluates the new pack while in-flight chains finish on their snapshot
/// — no ingest barrier anywhere. Each re-mine also diffs new pack against
/// old and reports the pack hash plus rule churn in its [`RetrainSpend`].
pub struct SpatialMember {
    rules: RuleSet,
    pack: Arc<PackSlot>,
    churn: Arc<ChurnLedger>,
    mine_config: MineConfig,
    /// Re-mine after every `cadence`-th round; `None` freezes the round-0
    /// rules forever (the pre-redesign behaviour).
    cadence: Option<u32>,
    /// One summary per labelled segment of the last re-mined window.
    summaries: Vec<(SegmentId, PairCounts)>,
    metrics: Option<RemineMetrics>,
}

impl SpatialMember {
    /// A frozen member deploying `engine`'s rules unchanged forever.
    pub fn frozen(engine: &FpInconsistent) -> SpatialMember {
        SpatialMember {
            rules: engine.rules().clone(),
            pack: Arc::new(PackSlot::from_arc(engine.pack())),
            churn: Arc::default(),
            mine_config: MineConfig::default(),
            cadence: None,
            summaries: Vec::new(),
            metrics: None,
        }
    }

    /// A re-mining member: deploys `engine`'s rules until the first
    /// refresh, then re-runs Algorithm 1 over the training window its
    /// stack retains (round 0 — which replays the traffic the initial
    /// rules were mined on — is the window's first epoch) at the end of
    /// every `cadence`-th round (cadence 1 = every round).
    pub fn remining(
        engine: &FpInconsistent,
        mine_config: MineConfig,
        cadence: u32,
    ) -> SpatialMember {
        SpatialMember {
            rules: engine.rules().clone(),
            pack: Arc::new(PackSlot::from_arc(engine.pack())),
            churn: Arc::default(),
            mine_config,
            cadence: Some(cadence.max(1)),
            summaries: Vec::new(),
            metrics: None,
        }
    }

    /// Attach the re-mine instruments — the phase timing histograms
    /// ([`REMINE_SCAN_NS`], [`REMINE_COMPILE_NS`], [`PACK_SWAP_NS`]) and
    /// the [`REMINE_RECORDS_COUNTED`] counter — resolved from `registry`.
    /// Call before boxing the member into a stack — the handles ride
    /// along and record on every re-mine that fires.
    pub fn set_metrics(&mut self, registry: &Arc<MetricsRegistry>) {
        self.metrics = Some(RemineMetrics {
            records_counted: registry.counter(REMINE_RECORDS_COUNTED),
            scan_ns: registry.histogram(REMINE_SCAN_NS),
            compile_ns: registry.histogram(REMINE_COMPILE_NS),
            swap_ns: registry.histogram(PACK_SWAP_NS),
        });
    }

    /// The rules currently deployed (refreshed by re-mining).
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The compiled pack currently deployed.
    pub fn pack(&self) -> Arc<RulePack> {
        self.pack.load()
    }

    /// The deployment slot itself — share it to observe hot-swaps as they
    /// happen (the arena holds this to report the active pack hash).
    pub fn pack_slot(&self) -> Arc<PackSlot> {
        self.pack.clone()
    }

    /// The configured re-mining cadence (`None` = frozen).
    pub fn cadence(&self) -> Option<u32> {
        self.cadence
    }

    /// The per-re-mine churn attribution trail — share it (like
    /// [`SpatialMember::pack_slot`]) to read each re-mine's per-rule FPR
    /// pricing as it lands. One entry per re-mine that actually fired,
    /// in firing order; frozen members never append.
    pub fn churn_ledger(&self) -> Arc<ChurnLedger> {
        self.churn.clone()
    }

    /// Algorithm 1 over `window`, counting only what no resident summary
    /// covers. Returns the rules and the records counted.
    fn remine(&mut self, window: &fp_types::RecordView<'_>) -> (RuleSet, u64) {
        let config = self.mine_config;
        let mut resident = std::mem::take(&mut self.summaries);
        let mut unlabelled = Vec::new();
        let mut counted = 0u64;
        for (id, records) in window.labelled_segments() {
            let cached = id.and_then(|id| resident.iter().position(|(seen, _)| *seen == id));
            match (id, cached) {
                (_, Some(pos)) => self.summaries.push(resident.swap_remove(pos)),
                (Some(id), None) => {
                    counted += records.len() as u64;
                    self.summaries
                        .push((id, PairCounts::count(records, &config)));
                }
                (None, None) => {
                    counted += records.len() as u64;
                    unlabelled.push(PairCounts::count(records, &config));
                }
            }
        }
        // What is left in `resident` belongs to segments that left the
        // window; it drops here.
        let parts: Vec<&PairCounts> = self
            .summaries
            .iter()
            .map(|(_, s)| s)
            .chain(&unlabelled)
            .collect();
        (PairCounts::rules(&parts, &config), counted)
    }
}

impl StackMember for SpatialMember {
    fn member_name(&self) -> &'static str {
        provenance::FP_SPATIAL
    }

    fn detector(&self) -> Box<dyn Detector> {
        Box::new(SpatialDetector::tracking(self.pack.clone()))
    }

    fn wants_history(&self) -> bool {
        // Frozen members retain nothing; re-mining needs the stack to
        // keep (its retention policy's worth of) past rounds.
        self.cadence.is_some()
    }

    fn end_of_round(&mut self, epoch: &RoundContext<'_>) -> RetrainSpend {
        let idle = RetrainSpend {
            rules_active: self.rules.len() as u64,
            pack_hash: Some(self.pack.load().hash()),
            ..RetrainSpend::default()
        };
        let Some(cadence) = self.cadence else {
            return idle;
        };
        if !(epoch.round + 1).is_multiple_of(cadence) {
            return idle;
        }
        // Chained stamps: each phase's duration is the gap to the previous
        // stamp, so instrumenting the three phases costs three clock reads.
        let t0 = Instant::now();
        let (rules, counted) = self.remine(&epoch.records);
        self.rules = rules;
        let t1 = Instant::now();
        // Compile off the hot path, then publish: in-flight chains finish
        // on the pack they forked with, the next round's detectors (and
        // any chain forked from here on) see the refreshed rules.
        let next = Arc::new(RulePack::compile(&self.rules));
        let diff = next.diff(&self.pack.load());
        let hash = next.hash();
        let t2 = Instant::now();
        self.pack.swap(next);
        if let Some(m) = &self.metrics {
            m.records_counted.add(counted);
            m.scan_ns.record((t1 - t0).as_nanos() as u64);
            m.compile_ns.record((t2 - t1).as_nanos() as u64);
            m.swap_ns.record(t2.elapsed().as_nanos() as u64);
        }
        // Price the churn on this window's truthful traffic before the
        // diff goes out of scope: the ledger is what lets a report say
        // *which* freshly mined rule is buying its recall with FPR.
        let attribution = diff.fpr_attribution(epoch.records.iter());
        self.churn
            .lock()
            .expect("churn ledger poisoned")
            .push(RoundChurn {
                round: epoch.round,
                attribution,
            });
        RetrainSpend {
            retrained_members: 1,
            records_scanned: epoch.records.len() as u64,
            rules_active: self.rules.len() as u64,
            pack_hash: Some(hash),
            rules_added: diff.added.len() as u64,
            rules_removed: diff.removed.len() as u64,
            ..RetrainSpend::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_types::retention::RecordView;
    use fp_types::{
        sym, AttrId, BehaviorTrace, Fingerprint, ServiceId, SimTime, StoredRequest, TrafficSource,
        VerdictSet,
    };

    fn fake_iphone_record() -> StoredRequest {
        StoredRequest {
            id: 0,
            time: SimTime::EPOCH,
            site_token: sym("t"),
            ip_hash: 1,
            ip_offset_minutes: 480,
            ip_region: sym("United States of America/California"),
            ip_lat: 0.0,
            ip_lon: 0.0,
            asn: 1,
            asn_flagged: false,
            ip_blocklisted: false,
            tor_exit: false,
            cookie: 1,
            tls: fp_types::TlsFacet::unobserved(),
            fingerprint: Fingerprint::new()
                .with(AttrId::UaDevice, "iPhone")
                .with(AttrId::ScreenResolution, (1920u16, 1080u16))
                .with(AttrId::MaxTouchPoints, 0i64),
            source: TrafficSource::Bot(ServiceId(1)),
            behavior: BehaviorTrace::silent(),
            cadence: fp_types::BehaviorFacet::unobserved(),
            verdicts: VerdictSet::new(),
        }
    }

    fn empty_engine() -> FpInconsistent {
        FpInconsistent::from_rules(RuleSet::new())
    }

    #[test]
    fn frozen_member_never_retrains() {
        let mut member = SpatialMember::frozen(&empty_engine());
        assert!(!member.wants_history(), "frozen members retain nothing");
        let records = vec![fake_iphone_record(); 5];
        for round in 0..3 {
            let spend = member.end_of_round(&RoundContext {
                round,
                records: RecordView::from_slice(&records),
                now: SimTime::EPOCH,
            });
            assert_eq!(spend.retrained_members, 0);
            assert_eq!(spend.records_scanned, 0);
        }
        assert!(member.rules().is_empty());
    }

    #[test]
    fn remining_member_learns_the_windows_rules() {
        let mut member = SpatialMember::remining(&empty_engine(), MineConfig::default(), 1);
        assert!(member.rules().is_empty(), "starts from the engine's rules");
        assert!(member.wants_history(), "re-mining needs the stack's window");
        let records = vec![fake_iphone_record(); 5];
        let spend = member.end_of_round(&RoundContext {
            round: 0,
            records: RecordView::from_slice(&records),
            now: SimTime::EPOCH,
        });
        assert_eq!(spend.retrained_members, 1);
        assert_eq!(spend.records_scanned, 5);
        assert!(spend.rules_active > 0, "the impossible pair became a rule");
        assert!(member.rules().matches(&records[0]));
        // The refreshed rules flow into the next round's detector.
        let mut detector = member.detector();
        assert!(detector.observe(&records[0]).is_bot());
    }

    #[test]
    fn remining_scans_exactly_the_window_it_is_handed() {
        // The member mines whatever view the stack retained — a shrunken
        // (windowed) view means proportionally less scan spend, which is
        // the whole point of retention.
        let mut member = SpatialMember::remining(&empty_engine(), MineConfig::default(), 1);
        let old = vec![fake_iphone_record(); 8];
        let fresh = vec![fake_iphone_record(); 4];
        let spend = member.end_of_round(&RoundContext {
            round: 0,
            records: RecordView::new(vec![&old[..], &fresh[..]]),
            now: SimTime::EPOCH,
        });
        assert_eq!(spend.records_scanned, 12, "multi-epoch view, one pass");
        let windowed = member.end_of_round(&RoundContext {
            round: 1,
            records: RecordView::from_slice(&fresh),
            now: SimTime::EPOCH,
        });
        assert_eq!(windowed.records_scanned, 4, "evicted epochs cost nothing");
    }

    #[test]
    fn cadence_gates_the_remine() {
        let mut member = SpatialMember::remining(&empty_engine(), MineConfig::default(), 2);
        assert_eq!(member.cadence(), Some(2));
        let records = vec![fake_iphone_record(); 5];
        let r0 = member.end_of_round(&RoundContext {
            round: 0,
            records: RecordView::from_slice(&records),
            now: SimTime::EPOCH,
        });
        assert_eq!(r0.retrained_members, 0, "cadence 2 skips after round 0");
        assert_eq!(r0.records_scanned, 0, "an off-cadence round scans nothing");
        let doubled: Vec<StoredRequest> = records.iter().chain(&records).cloned().collect();
        let r1 = member.end_of_round(&RoundContext {
            round: 1,
            records: RecordView::from_slice(&doubled),
            now: SimTime::EPOCH,
        });
        assert_eq!(r1.retrained_members, 1, "…and fires after round 1");
        assert_eq!(r1.records_scanned, 10);
    }

    #[test]
    fn remine_hotswaps_the_pack_and_ledgers_the_diff() {
        let mut member = SpatialMember::remining(&empty_engine(), MineConfig::default(), 1);
        let slot = member.pack_slot();
        let empty_hash = slot.load().hash();
        let records = vec![fake_iphone_record(); 5];

        // A chain detector forked before the re-mine keeps its snapshot.
        let chain = member.detector();
        let mut in_flight = chain.fork();
        assert!(!in_flight.observe(&records[0]).is_bot());

        let spend = member.end_of_round(&RoundContext {
            round: 0,
            records: RecordView::from_slice(&records),
            now: SimTime::EPOCH,
        });
        let new_hash = slot.load().hash();
        assert_ne!(new_hash, empty_hash, "mined rules → new pack hash");
        assert_eq!(spend.pack_hash, Some(new_hash));
        assert_eq!(spend.rules_added, spend.rules_active, "all rules are new");
        assert_eq!(spend.rules_removed, 0);
        assert_eq!(new_hash, member.rules().content_hash());

        // No barrier: the in-flight fork still evaluates the old pack,
        // a fresh fork off the same chain sees the new one.
        assert!(!in_flight.observe(&records[0]).is_bot());
        assert!(chain.fork().observe(&records[0]).is_bot());

        // An off-cadence (idle) round reports the deployed hash, no churn.
        let mut gated = SpatialMember::remining(&empty_engine(), MineConfig::default(), 2);
        let idle = gated.end_of_round(&RoundContext {
            round: 0,
            records: RecordView::from_slice(&records),
            now: SimTime::EPOCH,
        });
        assert_eq!(idle.pack_hash, Some(gated.pack().hash()));
        assert_eq!(idle.rules_added + idle.rules_removed, 0);
    }

    #[test]
    fn remine_ledgers_per_rule_churn_priced_on_truthful_traffic() {
        let mut member = SpatialMember::remining(&empty_engine(), MineConfig::default(), 1);
        let ledger = member.churn_ledger();
        let mut records = vec![fake_iphone_record(); 5];
        let mut human = fake_iphone_record();
        human.source = TrafficSource::RealUser;
        human.fingerprint = Fingerprint::new().with(AttrId::UaDevice, "Mac");
        records.push(human);

        let spend = member.end_of_round(&RoundContext {
            round: 2,
            records: RecordView::from_slice(&records),
            now: SimTime::EPOCH,
        });

        let churn = ledger.lock().unwrap();
        assert_eq!(churn.len(), 1, "one re-mine, one ledger entry");
        let entry = &churn[0];
        assert_eq!(entry.round, 2, "tagged with the round that fired it");
        assert_eq!(entry.attribution.added.len() as u64, spend.rules_added);
        assert_eq!(entry.attribution.removed.len() as u64, spend.rules_removed);
        assert_eq!(
            entry.attribution.truthful_requests, 1,
            "only the RealUser record prices the FPR denominator"
        );
        // The mined impossible-pair rules match only the bot records, so
        // every added rule is free on this window's truthful traffic.
        assert_eq!(entry.attribution.added_truthful_matches(), 0);

        // Frozen members never append.
        let mut frozen = SpatialMember::frozen(&empty_engine());
        let frozen_ledger = frozen.churn_ledger();
        frozen.end_of_round(&RoundContext {
            round: 0,
            records: RecordView::from_slice(&records),
            now: SimTime::EPOCH,
        });
        assert!(frozen_ledger.lock().unwrap().is_empty());
    }

    #[test]
    fn remine_records_one_timing_sample_per_phase_per_fire() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut member = SpatialMember::remining(&empty_engine(), MineConfig::default(), 2);
        member.set_metrics(&registry);
        let records = vec![fake_iphone_record(); 5];
        for round in 0..4 {
            member.end_of_round(&RoundContext {
                round,
                records: RecordView::from_slice(&records),
                now: SimTime::EPOCH,
            });
        }
        // Cadence 2 over rounds 0..4 fires twice (after rounds 1 and 3).
        let snap = registry.snapshot();
        for name in [REMINE_SCAN_NS, REMINE_COMPILE_NS, PACK_SWAP_NS] {
            let h = snap.histogram(name).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(h.count(), 2, "{name}: one sample per fired re-mine");
        }
        // Unlabelled views are counted whole on every fire.
        assert_eq!(snap.counter(REMINE_RECORDS_COUNTED), Some(10));
    }

    #[test]
    fn frozen_member_reports_a_constant_pack_hash() {
        let mut member = SpatialMember::frozen(&empty_engine());
        let records = vec![fake_iphone_record(); 5];
        let h0 = member.pack().hash();
        for round in 0..3 {
            let spend = member.end_of_round(&RoundContext {
                round,
                records: RecordView::from_slice(&records),
                now: SimTime::EPOCH,
            });
            assert_eq!(spend.pack_hash, Some(h0), "frozen pack never re-hashes");
        }
    }

    #[test]
    fn remine_counts_only_segments_it_has_not_summarised() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut member = SpatialMember::remining(&empty_engine(), MineConfig::default(), 1);
        member.set_metrics(&registry);
        let counted = || registry.snapshot().counter(REMINE_RECORDS_COUNTED).unwrap();
        let two = vec![fake_iphone_record(); 2];
        let one = vec![fake_iphone_record(); 1];
        let (a, b, c, edited) = (
            SegmentId::fresh(),
            SegmentId::fresh(),
            SegmentId::fresh(),
            SegmentId::fresh(),
        );
        let mut remine = |round: u32, segments: Vec<(Option<SegmentId>, &[StoredRequest])>| {
            let window = RecordView::labelled(segments);
            let spend = member.end_of_round(&RoundContext {
                round,
                records: window.clone(),
                now: SimTime::EPOCH,
            });
            assert_eq!(
                spend.records_scanned,
                window.len() as u64,
                "the window covered"
            );
            let reference = crate::spatial::mine_records(window.iter(), &MineConfig::default());
            assert_eq!(
                spend.pack_hash,
                Some(reference.content_hash()),
                "round {round}"
            );
            spend.rules_active
        };
        // Support 2 < min_support 3: no rule yet.
        assert_eq!(remine(0, vec![(Some(a), &two[..])]), 0);
        assert_eq!(counted(), 2);
        // The new epoch alone is counted; the merge reaches support 3.
        assert!(remine(1, vec![(Some(a), &two[..]), (Some(b), &one[..])]) > 0);
        assert_eq!(counted(), 3);
        // `a` left the window: its summary goes with it (support 2 again).
        assert_eq!(remine(2, vec![(Some(b), &one[..]), (Some(c), &one[..])]), 0);
        assert_eq!(counted(), 4);
        // A decay edit relabels `c`: recounted, `b` is not.
        assert_eq!(
            remine(3, vec![(Some(b), &one[..]), (Some(edited), &one[..])]),
            0
        );
        assert_eq!(counted(), 5);
        // Unlabelled segments are counted on every re-mine.
        assert!(remine(4, vec![(Some(b), &one[..]), (None, &two[..])]) > 0);
        assert!(remine(5, vec![(Some(b), &one[..]), (None, &two[..])]) > 0);
        assert_eq!(counted(), 9);
    }

    #[test]
    fn mining_support_counts_the_view_without_duplication() {
        // A pair with support below min_support must not be pushed over
        // the threshold by any double-counting between epochs: 2 records
        // (below min_support 3) re-mined → no rule.
        let mut member = SpatialMember::remining(&empty_engine(), MineConfig::default(), 1);
        let records = vec![fake_iphone_record(); 2];
        let spend = member.end_of_round(&RoundContext {
            round: 0,
            records: RecordView::from_slice(&records),
            now: SimTime::EPOCH,
        });
        assert_eq!(spend.records_scanned, 2, "each record counted once");
        assert!(
            member.rules().is_empty(),
            "support 2 stays below min_support 3 — no duplication inflation"
        );
    }
}
