//! The [`DefenseStack`]: the defender side of the arms race as one owned
//! value.
//!
//! A stack is the lifecycle-aware replacement for the hand-wired
//! `Vec<Box<dyn Detector>>`: an ordered list of
//! [`StackMember`]s (each of which produces a fresh detector per
//! measurement round and may retrain itself between rounds) plus the
//! [`DecisionPolicy`] that maps each request's recorded verdicts to a
//! [`fp_types::MitigationAction`]. [`HoneySite::from_stack`] builds a
//! site whose ingest chain is the stack's current detectors;
//! [`DefenseStack::end_of_round`] drives every member's retraining and
//! aggregates what it cost.
//!
//! Since the bounded-memory refactor the stack also owns the **training
//! store**: an epoch-segmented [`RequestStore`] that absorbs each round's
//! labeled records (one epoch per round) *if* any member retrains
//! ([`StackMember::wants_history`]), applies the stack's
//! [`RetentionPolicy`] at the seal, and hands every member the retained
//! [`fp_types::RecordView`] window. Members no longer hoard their own
//! unbounded record buffers — the store is the single owner of training
//! history, and the eviction ledger rides in the round's
//! [`RetrainSpend`].
//!
//! [`DefenseStack::default`] is the paper's deployment plus the two
//! in-chain extensions: the two commercial simulators, the cross-layer
//! TLS check and the session behaviour detector, under the shadow
//! (record everything, serve everything) policy — exactly the
//! `HoneySite::new()` chain.

use crate::site::HoneySite;
use crate::store::RequestStore;
use fp_antibot::{BotD, DataDome};
use fp_behavior::BehaviorMember;
use fp_obs::{expose, Histogram, MetricsRegistry};
use fp_tls::TlsCrossLayer;
use fp_types::defense::{
    DecisionContext, DecisionPolicy, Frozen, ResponsePolicy, RetrainSpend, RoundContext,
    StackMember,
};
use fp_types::retention::{RecordView, RetentionPolicy};
use fp_types::{Detector, MitigationAction, SimTime};
use std::sync::Arc;
use std::time::Instant;

/// Registry name of one member's end-of-round timing histogram.
pub fn member_metric_name(member: &str) -> String {
    format!("defense_member_round_ns_{}", expose::sanitize(member))
}

/// End-of-round instruments: one timing histogram per member, parallel to
/// the member chain.
struct StackMetrics {
    registry: Arc<MetricsRegistry>,
    member_ns: Vec<Arc<Histogram>>,
}

/// The defender's whole apparatus: an ordered member chain, the policy
/// that turns the chain's verdicts into responses, and the bounded
/// training store retraining members mine from.
pub struct DefenseStack {
    members: Vec<Box<dyn StackMember>>,
    policy: Box<dyn DecisionPolicy>,
    /// The epoch-segmented training window: one epoch per completed
    /// round, retention applied at each seal. Populated only while some
    /// member wants history — a frozen chain costs no memory.
    training: RequestStore,
    /// Per-member end-of-round timing instruments, when attached.
    metrics: Option<StackMetrics>,
}

impl Default for DefenseStack {
    /// The paper's default deployment: DataDome, BotD, the cross-layer
    /// TLS check and the (frozen) session behaviour detector (the
    /// `HoneySite::new()` chain, in that order) under the shadow policy.
    fn default() -> Self {
        DefenseStack::with_behavior(BehaviorMember::frozen())
    }
}

impl DefenseStack {
    /// The default deployment with a caller-configured behaviour member —
    /// e.g. one re-fitting its cadence floor at a cadence, or with its
    /// re-fit instruments already attached — in the default chain
    /// position. `DefenseStack::default()` is this with
    /// [`BehaviorMember::frozen`].
    pub fn with_behavior(behavior: BehaviorMember) -> DefenseStack {
        let mut stack = DefenseStack::new(Box::new(ResponsePolicy::shadow()));
        stack.push_member(Box::new(Frozen::new(Box::new(DataDome::new()))));
        stack.push_member(Box::new(Frozen::new(Box::new(BotD::new()))));
        stack.push_member(Box::new(Frozen::new(Box::new(TlsCrossLayer::new()))));
        stack.push_member(Box::new(behavior));
        stack
    }

    /// An empty stack under `policy` (push members to give it teeth).
    pub fn new(policy: Box<dyn DecisionPolicy>) -> DefenseStack {
        DefenseStack {
            members: Vec::new(),
            policy,
            training: RequestStore::new(),
            metrics: None,
        }
    }

    /// Attach a metrics registry: every member's `end_of_round` is timed
    /// into its own histogram from here on, and the training store records
    /// its seal/eviction instruments. Members pushed later get their
    /// histogram at push time.
    pub fn set_metrics(&mut self, registry: Arc<MetricsRegistry>) {
        let member_ns = self
            .members
            .iter()
            .map(|m| registry.histogram(&member_metric_name(m.member_name())))
            .collect();
        self.training.set_metrics(&registry);
        self.metrics = Some(StackMetrics {
            member_ns,
            registry,
        });
    }

    /// Set the training store's retention policy (applied at every
    /// round's epoch seal; the default `KeepAll` accumulates every round
    /// forever — the pre-refactor window).
    pub fn set_retention(&mut self, policy: RetentionPolicy) {
        self.training.set_retention(policy);
    }

    /// The retention policy bounding the training window.
    pub fn retention(&self) -> RetentionPolicy {
        self.training.retention()
    }

    /// The training store: what the retention policy has kept of the
    /// completed rounds (empty while no member wants history).
    pub fn training_store(&self) -> &RequestStore {
        &self.training
    }

    /// Append a member; its detectors run after the existing members' in
    /// every chain the stack produces.
    pub fn push_member(&mut self, member: Box<dyn StackMember>) {
        if let Some(m) = &mut self.metrics {
            m.member_ns.push(
                m.registry
                    .histogram(&member_metric_name(member.member_name())),
            );
        }
        self.members.push(member);
    }

    /// The members, in chain order.
    pub fn members(&self) -> &[Box<dyn StackMember>] {
        &self.members
    }

    /// The decision policy in force.
    pub fn policy(&self) -> &dyn DecisionPolicy {
        self.policy.as_ref()
    }

    /// Replace the decision policy (members and their training state are
    /// untouched — policy and detection are independent axes).
    pub fn set_policy(&mut self, policy: Box<dyn DecisionPolicy>) {
        self.policy = policy;
    }

    /// A fresh detector chain reflecting every member's current training
    /// state — what one measurement round's ingest runs.
    pub fn detectors(&self) -> Vec<Box<dyn Detector>> {
        self.members.iter().map(|m| m.detector()).collect()
    }

    /// Decide one request under the stack's policy.
    pub fn decide(&self, ctx: &DecisionContext<'_>) -> MitigationAction {
        self.policy.decide(ctx)
    }

    /// Close one measurement round: absorb the round's labeled records
    /// into the training store as one sealed epoch (when any member
    /// retrains), apply retention, then let every member digest the
    /// retained window. Returns the aggregate defender spend, eviction
    /// ledger included.
    ///
    /// `round_records` is the round's admitted, verdict-carrying store
    /// view; when no member wants history the stack retains nothing and
    /// members see the round's own records only.
    pub fn end_of_round(
        &mut self,
        round: u32,
        round_records: RecordView<'_>,
        now: SimTime,
    ) -> RetrainSpend {
        let retains = self.members.iter().any(|m| m.wants_history());
        let seal = if retains {
            // Evict what cannot survive the coming seal *before* the
            // round's records are pushed, so live residency never
            // transiently exceeds the retention window by the incoming
            // epoch's worth.
            let ahead = self.training.evict_ahead();
            for record in round_records.iter() {
                self.training.push(record.clone());
            }
            let mut seal = self.training.seal_epoch();
            seal.records_evicted += ahead.records_evicted;
            seal.segments_evicted += ahead.segments_evicted;
            Some(seal)
        } else {
            None
        };
        let window = if retains {
            self.training.records()
        } else {
            round_records
        };
        let ctx = RoundContext {
            round,
            records: window,
            now,
        };
        let mut spend = RetrainSpend::default();
        if let Some(m) = &self.metrics {
            for (i, member) in self.members.iter_mut().enumerate() {
                let start = Instant::now();
                spend.absorb(member.end_of_round(&ctx));
                m.member_ns[i].record(start.elapsed().as_nanos() as u64);
            }
        } else {
            for member in &mut self.members {
                spend.absorb(member.end_of_round(&ctx));
            }
        }
        if let Some(seal) = seal {
            spend.records_evicted += seal.records_evicted;
            spend.records_resident += seal.resident_records;
        }
        spend
    }
}

impl HoneySite {
    /// A site whose ingest chain is the stack's current detectors — the
    /// lifecycle-aware way to build a measurement round. (The raw
    /// [`HoneySite::with_chain`] constructor remains for hand-wired
    /// chains.)
    pub fn from_stack(stack: &DefenseStack) -> HoneySite {
        HoneySite::with_chain(stack.detectors())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_types::detect::provenance;
    use fp_types::{sym, Verdict, VerdictSet};

    #[test]
    fn default_stack_matches_the_default_site_chain() {
        let stack = DefenseStack::default();
        let names: Vec<&str> = stack.members().iter().map(|m| m.member_name()).collect();
        assert_eq!(
            names,
            [
                provenance::DATADOME,
                provenance::BOTD,
                provenance::FP_TLS_CROSSLAYER,
                provenance::FP_BEHAVIOR
            ]
        );
        let site_names: Vec<&'static str> =
            HoneySite::new().chain().iter().map(|d| d.name()).collect();
        let stack_names: Vec<&'static str> = HoneySite::from_stack(&stack)
            .chain()
            .iter()
            .map(|d| d.name())
            .collect();
        assert_eq!(site_names, stack_names);
        assert_eq!(stack.policy().name(), "shadow");
    }

    #[test]
    fn stack_decides_under_its_policy() {
        let mut stack = DefenseStack::default();
        let mut verdicts = VerdictSet::new();
        verdicts.record(sym(provenance::BOTD), Verdict::Bot);
        let ctx = DecisionContext {
            verdicts: &verdicts,
            ip_hash: 1,
            now: SimTime::EPOCH,
            prior_offenses: 0,
        };
        assert_eq!(stack.decide(&ctx), MitigationAction::ShadowFlag);
        stack.set_policy(Box::new(ResponsePolicy::block(60)));
        assert_eq!(stack.decide(&ctx), MitigationAction::Block(60));
    }

    struct Retrainer;
    impl StackMember for Retrainer {
        fn member_name(&self) -> &'static str {
            "retrainer"
        }
        fn detector(&self) -> Box<dyn Detector> {
            Box::new(BotD::new())
        }
        fn wants_history(&self) -> bool {
            true
        }
        fn end_of_round(&mut self, epoch: &RoundContext<'_>) -> RetrainSpend {
            RetrainSpend {
                retrained_members: 1,
                records_scanned: epoch.records.len() as u64,
                rules_active: 3,
                ..RetrainSpend::default()
            }
        }
    }

    #[test]
    fn end_of_round_aggregates_member_spend() {
        let mut stack = DefenseStack::default();
        stack.push_member(Box::new(Retrainer));
        stack.push_member(Box::new(Retrainer));
        let spend = stack.end_of_round(0, RecordView::empty(), SimTime::EPOCH);
        assert_eq!(spend.retrained_members, 2, "frozen members cost nothing");
        assert_eq!(spend.rules_active, 6);
    }

    struct Versioned(fp_types::PackHash);
    impl StackMember for Versioned {
        fn member_name(&self) -> &'static str {
            "versioned"
        }
        fn detector(&self) -> Box<dyn Detector> {
            Box::new(BotD::new())
        }
        fn end_of_round(&mut self, _epoch: &RoundContext<'_>) -> RetrainSpend {
            RetrainSpend {
                pack_hash: Some(self.0),
                rules_added: 2,
                rules_removed: 1,
                ..RetrainSpend::default()
            }
        }
    }

    #[test]
    fn pack_hash_survives_spend_aggregation() {
        // Exactly one member versions its model with a pack hash; the
        // stack's aggregated spend must carry it past the hash-less
        // members absorbed after it (and the seal-time eviction sums).
        let mut hasher = fp_types::ContentHasher::new();
        hasher.add_line("ua_device=iPhone AND max_touch_points=0");
        let hash = hasher.finish();
        let mut stack = DefenseStack::default();
        stack.push_member(Box::new(Versioned(hash)));
        stack.push_member(Box::new(Retrainer));
        let records = test_records(3);
        let spend = stack.end_of_round(0, RecordView::from_slice(&records), SimTime::EPOCH);
        assert_eq!(spend.pack_hash, Some(hash));
        assert_eq!(spend.rules_added, 2);
        assert_eq!(spend.rules_removed, 1);
    }

    #[test]
    fn frozen_stacks_retain_no_training_history() {
        let mut stack = DefenseStack::default();
        let records = test_records(5);
        let view = RecordView::from_slice(&records);
        let spend = stack.end_of_round(0, view, SimTime::EPOCH);
        assert!(
            stack.training_store().is_empty(),
            "nobody asked for history"
        );
        assert_eq!(spend.records_resident, 0);
        assert_eq!(spend.records_evicted, 0);
    }

    #[test]
    fn retraining_stacks_accumulate_epochs_under_retention() {
        let mut stack = DefenseStack::default();
        stack.push_member(Box::new(Retrainer));
        stack.set_retention(RetentionPolicy::SlidingWindow { epochs: 2 });
        assert_eq!(
            stack.retention(),
            RetentionPolicy::SlidingWindow { epochs: 2 }
        );
        let records = test_records(10);
        for round in 0..4 {
            let view = RecordView::from_slice(&records);
            let spend = stack.end_of_round(round, view, SimTime::EPOCH);
            let expected_window = 10 * (u64::from(round) + 1).min(2);
            assert_eq!(
                spend.records_resident, expected_window,
                "round {round}: the window is capped at two epochs"
            );
            assert_eq!(
                spend.records_scanned, expected_window,
                "round {round}: members scan the retained window, not all history"
            );
            if round >= 2 {
                assert_eq!(spend.records_evicted, 10, "one epoch out per round");
            }
        }
        assert_eq!(stack.training_store().len(), 20);
        assert_eq!(stack.training_store().stats().peak_resident_records, 20);
    }

    fn test_records(n: u64) -> Vec<fp_types::StoredRequest> {
        use fp_types::{AttrId, Fingerprint, ServiceId, TrafficSource};
        (0..n)
            .map(|i| fp_types::StoredRequest {
                id: i,
                time: SimTime::EPOCH,
                site_token: sym("t"),
                ip_hash: i,
                ip_offset_minutes: 0,
                ip_region: sym("United States of America/California"),
                ip_lat: 0.0,
                ip_lon: 0.0,
                asn: 1,
                asn_flagged: false,
                ip_blocklisted: false,
                tor_exit: false,
                cookie: i,
                fingerprint: Fingerprint::new().with(AttrId::UaDevice, "iPhone"),
                tls: fp_types::TlsFacet::unobserved(),
                behavior: fp_types::BehaviorTrace::silent(),
                cadence: fp_types::BehaviorFacet::unobserved(),
                source: TrafficSource::Bot(ServiceId(1)),
                verdicts: VerdictSet::new(),
            })
            .collect()
    }
}
