//! The defender-side lifecycle contract.
//!
//! The arms race the arena plays has two sides, but until this module the
//! contract only described the adversary's: bots observe a
//! [`crate::RoundOutcome`] and adapt. The defender was a fixed
//! `Vec<Box<dyn Detector>>` wired by hand and a single global vote
//! threshold, frozen at round 0. This module is the defender's half:
//!
//! * [`DecisionPolicy`] — maps one request's recorded [`VerdictSet`] (plus
//!   the little admission-side context a real gateway has: address
//!   identity, time, prior offenses) to a [`MitigationAction`]. The old
//!   global vote threshold is one implementation ([`ResponsePolicy`]);
//!   escalating TTLs keyed on repeat offenses ([`EscalatingTtl`]) and the
//!   CAPTCHA-then-block hybrid ([`CaptchaEscalation`]) wrap any policy.
//! * [`StackMember`] — one lifecycle-aware slot in a defense stack: it
//!   *produces* a fresh [`Detector`] for each measurement round and may
//!   retrain itself from the retained training window when the round ends
//!   ([`StackMember::end_of_round`]). Members that never retrain wrap any
//!   plain detector in [`Frozen`].
//! * [`RoundContext`] / [`RetrainSpend`] — what a member sees at the end
//!   of a round (the epoch-aware [`RecordView`] over whatever the stack's
//!   retention policy kept), and what its retraining cost (the
//!   defender-side counterpart of the adversary's mutation spend), plus
//!   the retention ledger (records evicted/resident at the seal).
//!
//! The concrete `DefenseStack` that owns a member chain plus a policy is
//! assembled one layer up (in `fp-honeysite`, where the default commercial
//! chain lives); this module is deliberately only the contract, so every
//! crate can implement members and policies without a dependency cycle.

use crate::clock::{SimTime, STUDY_DAYS};
use crate::detect::{Detector, VerdictSet};
use crate::mitigation::MitigationAction;
use crate::retention::RecordView;

/// Everything a [`DecisionPolicy`] may consult when deciding one request.
///
/// Deliberately small: the verdicts the chain recorded, the request's
/// address identity and arrival time, and how often that address has
/// already been blocked — the context a real mitigation gateway has at the
/// moment it must answer. Ground truth is absent by design.
pub struct DecisionContext<'a> {
    /// The named verdicts the detector chain recorded for the request.
    pub verdicts: &'a VerdictSet,
    /// Salted hash of the request's source address (the store's identity).
    pub ip_hash: u64,
    /// The request's simulated arrival time.
    pub now: SimTime,
    /// How many times this address has been blocked before this decision
    /// (within the blocklist's escalation memory) — what TTL escalation
    /// keys on.
    pub prior_offenses: u32,
}

/// Maps one request's recorded verdicts to the site's response.
///
/// Implementations must be pure functions of the context (`&self`, no
/// interior mutation): any state a decision depends on — offense history,
/// retrained models — is carried by the context or by the stack members,
/// which keeps decisions deterministic and shard-order independent.
pub trait DecisionPolicy: Send {
    /// Display name for reports and ablation tables.
    fn name(&self) -> &str;

    /// Decide one request.
    fn decide(&self, ctx: &DecisionContext<'_>) -> MitigationAction;

    /// Should served CAPTCHAs be recorded as offenses on the blocklist's
    /// escalation ladder, and for how long must that memory live?
    /// `Some(memory_ttl_secs)` makes the mitigation loop record each
    /// served challenge as a *non-binding* strike (offense count moves,
    /// nothing is denied, history survives purges for the TTL — so the
    /// ladder climbs across round boundaries). Default `None`: most
    /// policies key escalation on blocks alone. [`CaptchaEscalation`]
    /// opts in — its "first offense Captcha, repeat offenses Block"
    /// ladder needs the first challenge remembered. Wrapping policies
    /// should forward their inner policy's answer.
    fn captcha_strike_ttl(&self) -> Option<u64> {
        None
    }
}

/// Default TTL for [`ResponsePolicy::block`]: one full campaign window
/// (91 days), so a block issued mid-round still binds through part of the
/// next round and measurably decays across it.
pub const DEFAULT_BLOCK_TTL_SECS: u64 = STUDY_DAYS as u64 * 86_400;

/// The static global vote threshold — how the site answers a flagged
/// request when no richer policy is configured.
///
/// A request is acted on when at least `min_votes` detectors flagged it,
/// whatever those detectors were (1 = any flag acts, higher values trade
/// recall for collateral safety). The paper's honey site runs
/// [`ResponsePolicy::shadow`] — record every verdict, serve every page —
/// which is ideal for measurement and useless as mitigation. Production
/// sites pick a visible action, and the §6 finding is that visible
/// mitigation *teaches* evasive services: they rotate IPs and mutate
/// fingerprint attributes until they slip back in. The policy is
/// therefore the arena's independent variable: same traffic, same
/// detectors, four different feedback signals to the adversary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResponsePolicy {
    /// Display name for reports and tables.
    pub name: &'static str,
    /// Number of flagging detectors required before the action applies.
    pub min_votes: usize,
    /// The action applied to triggered requests; everything else is served
    /// normally.
    pub action: MitigationAction,
}

impl ResponsePolicy {
    /// Serve everything (the do-nothing control: no feedback, no denial).
    pub fn allow() -> ResponsePolicy {
        ResponsePolicy {
            name: "allow",
            min_votes: 1,
            action: MitigationAction::Allow,
        }
    }

    /// Challenge flagged requests with a CAPTCHA — visible to the client,
    /// but no blocklist entry, so the same address can try again.
    pub fn captcha() -> ResponsePolicy {
        ResponsePolicy {
            name: "captcha",
            min_votes: 1,
            action: MitigationAction::Captcha,
        }
    }

    /// Deny flagged requests and blocklist their address for `ttl_secs` of
    /// simulated time (enforced at admission until expiry).
    pub fn block(ttl_secs: u64) -> ResponsePolicy {
        ResponsePolicy {
            name: "block",
            min_votes: 1,
            action: MitigationAction::Block(ttl_secs),
        }
    }

    /// Record the flag, serve the page — the paper's own measurement
    /// posture. The adversary sees pure success and never adapts. The
    /// default defense stack ships with this.
    pub fn shadow() -> ResponsePolicy {
        ResponsePolicy {
            name: "shadow",
            min_votes: 1,
            action: MitigationAction::ShadowFlag,
        }
    }

    /// The same policy with a different vote threshold (at least 1).
    pub fn with_min_votes(mut self, min_votes: usize) -> ResponsePolicy {
        self.min_votes = min_votes.max(1);
        self
    }

    /// The four shipped policies, in ablation order.
    pub fn all() -> [ResponsePolicy; 4] {
        [
            ResponsePolicy::allow(),
            ResponsePolicy::shadow(),
            ResponsePolicy::captcha(),
            ResponsePolicy::block(DEFAULT_BLOCK_TTL_SECS),
        ]
    }

    /// Decide one request from its recorded verdicts alone — all a static
    /// threshold reads, so this is also its [`DecisionPolicy::decide`].
    pub fn decide(&self, verdicts: &VerdictSet) -> MitigationAction {
        let votes = verdicts.iter().filter(|(_, v)| v.is_bot()).count();
        if votes >= self.min_votes {
            self.action
        } else {
            MitigationAction::Allow
        }
    }

    /// Lift this policy onto the repeat-offender escalation ladder: every
    /// `Block` it issues starts from its own TTL and multiplies by
    /// `multiplier` per prior offense, capped at `max_ttl_secs` (see
    /// [`EscalatingTtl`]). Non-block policies start from
    /// [`DEFAULT_BLOCK_TTL_SECS`].
    pub fn escalating(self, multiplier: u64, max_ttl_secs: u64) -> EscalatingTtl {
        let base = match self.action {
            MitigationAction::Block(ttl_secs) => ttl_secs,
            _ => DEFAULT_BLOCK_TTL_SECS,
        };
        EscalatingTtl::new(Box::new(self), base, multiplier, max_ttl_secs)
    }
}

impl DecisionPolicy for ResponsePolicy {
    fn name(&self) -> &str {
        self.name
    }

    fn decide(&self, ctx: &DecisionContext<'_>) -> MitigationAction {
        ResponsePolicy::decide(self, ctx.verdicts)
    }
}

/// TTL escalation keyed on repeat offenses: wraps any trigger policy and
/// rewrites its `Block` TTLs to `base · multiplierⁿ` for an address with
/// `n` prior offenses (saturating, capped at `max_ttl_secs`).
///
/// Escalation memory is the blocklist's: an address whose entry expires
/// *and* is swept by a purge starts back at the base TTL (see
/// `fp_netsim::TtlBlocklist`).
pub struct EscalatingTtl {
    name: String,
    inner: Box<dyn DecisionPolicy>,
    base_ttl_secs: u64,
    multiplier: u64,
    max_ttl_secs: u64,
}

impl EscalatingTtl {
    /// Wrap `inner`, escalating every Block it issues from `base_ttl_secs`
    /// by `multiplier` per prior offense, up to `max_ttl_secs`.
    pub fn new(
        inner: Box<dyn DecisionPolicy>,
        base_ttl_secs: u64,
        multiplier: u64,
        max_ttl_secs: u64,
    ) -> EscalatingTtl {
        EscalatingTtl {
            name: format!("escalating-{}", inner.name()),
            inner,
            base_ttl_secs,
            multiplier: multiplier.max(1),
            max_ttl_secs: max_ttl_secs.max(base_ttl_secs),
        }
    }

    /// The TTL issued for an address with `prior_offenses` prior blocks.
    pub fn ttl_for(&self, prior_offenses: u32) -> u64 {
        let mut ttl = self.base_ttl_secs;
        for _ in 0..prior_offenses {
            ttl = ttl.saturating_mul(self.multiplier);
            if ttl >= self.max_ttl_secs {
                return self.max_ttl_secs;
            }
        }
        ttl.min(self.max_ttl_secs)
    }
}

impl DecisionPolicy for EscalatingTtl {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&self, ctx: &DecisionContext<'_>) -> MitigationAction {
        match self.inner.decide(ctx) {
            MitigationAction::Block(_) => MitigationAction::Block(self.ttl_for(ctx.prior_offenses)),
            other => other,
        }
    }

    fn captcha_strike_ttl(&self) -> Option<u64> {
        self.inner.captcha_strike_ttl()
    }
}

/// CAPTCHA-then-block hybrid: wraps any trigger policy; an address's
/// *first* offense is answered with a CAPTCHA challenge (visible, but
/// nothing is denied and the same address can try again), and every
/// repeat offense is answered with a TTL block. The ROADMAP's
/// "CAPTCHA + block hybrid" policy.
///
/// The first challenge must be remembered for "repeat" to mean anything,
/// so this policy opts into [`DecisionPolicy::captcha_strike_ttl`]: the
/// mitigation loop records each served CAPTCHA as a *non-binding* strike
/// on the TTL blocklist (offense count moves, nothing is denied) whose
/// memory lives as long as this policy's block TTL — so a challenged
/// address that comes back next round is blocked, not re-challenged.
/// Escalation memory therefore lives exactly where block escalation's
/// does — in the blocklist entry — and a purge sweeps lapsed strike
/// memory on the same clock it sweeps lapsed bans.
pub struct CaptchaEscalation {
    name: String,
    inner: Box<dyn DecisionPolicy>,
    block_ttl_secs: u64,
}

impl CaptchaEscalation {
    /// Wrap `inner`: whenever it decides any visible action, answer the
    /// address's first offense with a CAPTCHA and repeats with
    /// `Block(block_ttl_secs)`. Invisible decisions (Allow, ShadowFlag)
    /// pass through untouched.
    pub fn new(inner: Box<dyn DecisionPolicy>, block_ttl_secs: u64) -> CaptchaEscalation {
        CaptchaEscalation {
            name: format!("captcha-then-block-{}", inner.name()),
            inner,
            block_ttl_secs,
        }
    }

    /// The TTL of the blocks issued to repeat offenders.
    pub fn block_ttl_secs(&self) -> u64 {
        self.block_ttl_secs
    }
}

impl DecisionPolicy for CaptchaEscalation {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&self, ctx: &DecisionContext<'_>) -> MitigationAction {
        match self.inner.decide(ctx) {
            MitigationAction::Captcha | MitigationAction::Block(_) => {
                if ctx.prior_offenses == 0 {
                    MitigationAction::Captcha
                } else {
                    MitigationAction::Block(self.block_ttl_secs)
                }
            }
            invisible => invisible,
        }
    }

    fn captcha_strike_ttl(&self) -> Option<u64> {
        Some(self.block_ttl_secs)
    }
}

/// What a lifecycle-aware stack member sees when one measurement round
/// ends: the round index, the retained training window (arrival order,
/// verdicts attached) and the round's closing timestamp.
pub struct RoundContext<'a> {
    /// The index of the round that just completed.
    pub round: u32,
    /// The verdict-carrying training window, in arrival order — the
    /// epoch-aware view over whatever records the stack's retention
    /// policy kept (under `KeepAll`, every completed round including
    /// this one; under a sliding window, only the recent epochs).
    /// Members retrain over this view directly instead of accumulating
    /// an owned unbounded buffer.
    pub records: RecordView<'a>,
    /// The simulated timestamp at which the round closed.
    pub now: SimTime,
}

/// What the defender paid at the end of one round — the defender-side
/// counterpart of the adversary's `MutationStats`. Aggregated over the
/// stack's members and reported per round in the trajectory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetrainSpend {
    /// Members that actually retrained this round.
    pub retrained_members: u64,
    /// Training records the retraining covered: the whole window a
    /// re-mine mined, whether it counted those records this round or
    /// reused per-segment summaries of them. It is part of the RUNFP
    /// behaviour fold, so it keeps this meaning; the records a re-mine
    /// actually counted (the work) are the registry counter
    /// `defense_remine_records_counted`.
    pub records_scanned: u64,
    /// Model terms live after the round (rule count for rule-based
    /// members; 0 for members without an explicit model).
    pub rules_active: u64,
    /// Training records the stack's retention policy evicted at this
    /// round's epoch seal. Written by the stack's retention bookkeeping,
    /// not by members (members report 0).
    pub records_evicted: u64,
    /// Training records resident in the stack's window after this
    /// round's seal — what the next re-mine will scan. Written by the
    /// stack's retention bookkeeping, not by members (members report 0).
    pub records_resident: u64,
    /// Content hash of the compiled rule pack deployed after this round
    /// (the *active* artifact the next round's chain evaluates). Written
    /// by the rule-carrying member; `None` when no such member sits in
    /// the stack. Unchanged hash across rounds ⇔ unchanged flagging
    /// behaviour.
    pub pack_hash: Option<crate::stablehash::PackHash>,
    /// Rules present in this round's re-mined pack but not in the
    /// previously deployed one (0 on rounds without a re-mine).
    pub rules_added: u64,
    /// Rules present in the previously deployed pack but dropped by this
    /// round's re-mine (0 on rounds without a re-mine).
    pub rules_removed: u64,
}

impl RetrainSpend {
    /// Merge another member's (or round-slice's) spend into this one.
    /// `rules_active` sums — it is a stack-wide model size. The retention
    /// fields sum too, which is safe because exactly one writer (the
    /// stack) sets them.
    pub fn absorb(&mut self, other: RetrainSpend) {
        self.retrained_members += other.retrained_members;
        self.records_scanned += other.records_scanned;
        self.rules_active += other.rules_active;
        self.records_evicted += other.records_evicted;
        self.records_resident += other.records_resident;
        // Exactly one member (the rule-carrying one) reports a pack
        // hash, so "last Some wins" is a propagation, not a merge.
        if other.pack_hash.is_some() {
            self.pack_hash = other.pack_hash;
        }
        self.rules_added += other.rules_added;
        self.rules_removed += other.rules_removed;
    }
}

/// One lifecycle-aware slot in a defense stack.
///
/// A member owns whatever model state its detector needs and hands out a
/// *fresh-state* [`Detector`] per measurement round (the same fork
/// discipline the shard pipeline uses). When a round ends, the stack
/// calls [`StackMember::end_of_round`] with the retained training window
/// ([`RoundContext::records`]); stateful members retrain over that view
/// and their next `detector()` reflects it. Members do **not** accumulate
/// their own record buffers — the stack's epoch-segmented store is the
/// single owner of training history, and a member that needs it says so
/// via [`StackMember::wants_history`].
pub trait StackMember: Send {
    /// The member's provenance name (matches the detectors it produces).
    fn member_name(&self) -> &'static str;

    /// A fresh detector instance reflecting the member's current training
    /// state — what the next round's ingest chain runs.
    fn detector(&self) -> Box<dyn Detector>;

    /// Does this member retrain from past rounds' records? When any
    /// member answers `true`, the owning stack retains round records in
    /// its epoch-segmented training store (under its retention policy)
    /// and hands the window to every member's `end_of_round`. When no
    /// member does, the stack retains nothing — a frozen chain costs no
    /// memory. Default `false`.
    fn wants_history(&self) -> bool {
        false
    }

    /// Digest one completed round. Members that retrain do it here and
    /// report what it cost; the default is a no-op (a frozen member).
    fn end_of_round(&mut self, epoch: &RoundContext<'_>) -> RetrainSpend {
        let _ = epoch;
        RetrainSpend::default()
    }
}

/// Any plain [`Detector`] as a [`StackMember`] that never retrains — the
/// adapter that lets the pre-redesign chain members (DataDome, BotD, the
/// cross-layer TLS check, the temporal anchors) ride in a lifecycle-aware
/// stack unchanged.
pub struct Frozen {
    proto: Box<dyn Detector>,
}

impl Frozen {
    /// Wrap a detector prototype; every round runs a fresh fork of it.
    pub fn new(proto: Box<dyn Detector>) -> Frozen {
        Frozen { proto }
    }
}

impl StackMember for Frozen {
    fn member_name(&self) -> &'static str {
        self.proto.name()
    }

    fn detector(&self) -> Box<dyn Detector> {
        self.proto.fork()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{StateScope, Verdict};
    use crate::stored::StoredRequest;
    use crate::sym;

    fn verdicts(bots: &[&str], humans: &[&str]) -> VerdictSet {
        let mut set = VerdictSet::new();
        for name in bots {
            set.record(sym(name), Verdict::Bot);
        }
        for name in humans {
            set.record(sym(name), Verdict::Human);
        }
        set
    }

    fn ctx<'a>(verdicts: &'a VerdictSet, prior_offenses: u32) -> DecisionContext<'a> {
        DecisionContext {
            verdicts,
            ip_hash: 42,
            now: SimTime::EPOCH,
            prior_offenses,
        }
    }

    #[test]
    fn vote_threshold_counts_flags() {
        let policy = ResponsePolicy::block(100).with_min_votes(2);
        let one = verdicts(&["a"], &["b", "c"]);
        let two = verdicts(&["a", "b"], &["c"]);
        assert_eq!(policy.decide(&one), MitigationAction::Allow);
        assert_eq!(policy.decide(&two), MitigationAction::Block(100));
        assert_eq!(
            DecisionPolicy::decide(&policy, &ctx(&two, 7)),
            MitigationAction::Block(100),
            "as a DecisionPolicy it reads the verdicts alone"
        );
        assert_eq!(DecisionPolicy::name(&policy), "block");
        assert_eq!(
            ResponsePolicy::captcha().with_min_votes(0).min_votes,
            1,
            "the vote floor is one"
        );
    }

    #[test]
    fn allow_policy_never_acts() {
        let flagged = verdicts(&["a", "b", "c"], &[]);
        assert_eq!(
            ResponsePolicy::allow().decide(&flagged),
            MitigationAction::Allow
        );
    }

    #[test]
    fn shadow_policy_is_invisible() {
        let policy = ResponsePolicy::shadow();
        let flagged = verdicts(&["a"], &[]);
        let action = policy.decide(&flagged);
        assert_eq!(action, MitigationAction::ShadowFlag);
        assert!(!action.visible_to_client());
    }

    #[test]
    fn escalating_block_ladders_from_the_policy_ttl() {
        let policy = ResponsePolicy::block(1_000).escalating(3, 100_000);
        let flagged = verdicts(&["a"], &[]);
        assert_eq!(
            policy.decide(&ctx(&flagged, 0)),
            MitigationAction::Block(1_000)
        );
        assert_eq!(
            policy.decide(&ctx(&flagged, 1)),
            MitigationAction::Block(3_000)
        );
        assert_eq!(
            policy.decide(&ctx(&flagged, 4)),
            MitigationAction::Block(81_000)
        );
        assert_eq!(
            policy.decide(&ctx(&flagged, 40)),
            MitigationAction::Block(100_000),
            "capped"
        );
        // Non-block policies fall back to the default block TTL base.
        let from_captcha = ResponsePolicy::captcha().escalating(2, u64::MAX);
        assert_eq!(from_captcha.ttl_for(0), DEFAULT_BLOCK_TTL_SECS);
    }

    #[test]
    fn escalating_ttl_grows_with_offenses_and_caps() {
        let policy = EscalatingTtl::new(Box::new(ResponsePolicy::block(0)), 1_000, 4, 50_000);
        assert_eq!(policy.ttl_for(0), 1_000);
        assert_eq!(policy.ttl_for(1), 4_000);
        assert_eq!(policy.ttl_for(2), 16_000);
        assert_eq!(policy.ttl_for(3), 50_000, "capped");
        assert_eq!(policy.ttl_for(200), 50_000, "saturating, no overflow");
        let flagged = verdicts(&["a"], &[]);
        assert_eq!(
            policy.decide(&ctx(&flagged, 2)),
            MitigationAction::Block(16_000)
        );
        assert_eq!(
            policy.decide(&ctx(&verdicts(&[], &["a"]), 5)),
            MitigationAction::Allow
        );
        assert_eq!(policy.name(), "escalating-block");
    }

    #[test]
    fn escalating_ttl_leaves_non_blocks_alone() {
        let policy = EscalatingTtl::new(Box::new(ResponsePolicy::captcha()), 1_000, 2, 10_000);
        let flagged = verdicts(&["a"], &[]);
        assert_eq!(policy.decide(&ctx(&flagged, 3)), MitigationAction::Captcha);
    }

    #[test]
    fn captcha_escalation_challenges_first_then_blocks() {
        let policy = CaptchaEscalation::new(Box::new(ResponsePolicy::block(500)), 9_000);
        assert_eq!(policy.name(), "captcha-then-block-block");
        assert_eq!(policy.block_ttl_secs(), 9_000);
        assert_eq!(
            policy.captcha_strike_ttl(),
            Some(9_000),
            "first challenges must be remembered for the block TTL"
        );
        let flagged = verdicts(&["a"], &[]);
        // First offense: a challenge, never a denial.
        assert_eq!(policy.decide(&ctx(&flagged, 0)), MitigationAction::Captcha);
        // Every repeat offense: a block with the policy's own TTL (not
        // the inner trigger's).
        assert_eq!(
            policy.decide(&ctx(&flagged, 1)),
            MitigationAction::Block(9_000)
        );
        assert_eq!(
            policy.decide(&ctx(&flagged, 7)),
            MitigationAction::Block(9_000)
        );
        // Clean requests pass through regardless of history.
        let clean = verdicts(&[], &["a"]);
        assert_eq!(policy.decide(&ctx(&clean, 3)), MitigationAction::Allow);
    }

    #[test]
    fn captcha_escalation_composes_with_ttl_escalation() {
        // The hybrid's repeat-offender blocks can ride the TTL ladder:
        // escalating(captcha-then-block) blocks at base·mult^offenses.
        let hybrid = CaptchaEscalation::new(Box::new(ResponsePolicy::captcha()), 1_000);
        let policy = EscalatingTtl::new(Box::new(hybrid), 1_000, 3, 100_000);
        assert_eq!(
            policy.captcha_strike_ttl(),
            Some(1_000),
            "wrappers must forward the strike opt-in"
        );
        let flagged = verdicts(&["a"], &[]);
        assert_eq!(policy.decide(&ctx(&flagged, 0)), MitigationAction::Captcha);
        assert_eq!(
            policy.decide(&ctx(&flagged, 2)),
            MitigationAction::Block(9_000)
        );
    }

    #[test]
    fn plain_policies_do_not_strike_on_captcha() {
        assert_eq!(ResponsePolicy::shadow().captcha_strike_ttl(), None);
        assert_eq!(ResponsePolicy::captcha().captcha_strike_ttl(), None);
        let esc = EscalatingTtl::new(Box::new(ResponsePolicy::block(1)), 1, 2, 10);
        assert_eq!(
            esc.captcha_strike_ttl(),
            None,
            "forwarding preserves the default"
        );
    }

    #[test]
    fn retrain_spend_absorbs() {
        let mut spend = RetrainSpend {
            retrained_members: 1,
            records_scanned: 10,
            rules_active: 5,
            ..RetrainSpend::default()
        };
        let pack_hash = {
            let mut h = crate::stablehash::ContentHasher::new();
            h.add_line("ua_device=iPhone AND max_touch_points=0");
            Some(h.finish())
        };
        spend.absorb(RetrainSpend {
            retrained_members: 0,
            records_scanned: 3,
            rules_active: 2,
            records_evicted: 4,
            records_resident: 20,
            pack_hash,
            rules_added: 2,
            rules_removed: 1,
        });
        assert_eq!(spend.retrained_members, 1);
        assert_eq!(spend.records_scanned, 13);
        assert_eq!(spend.rules_active, 7);
        assert_eq!(spend.records_evicted, 4);
        assert_eq!(spend.records_resident, 20);
        assert_eq!(spend.pack_hash, pack_hash, "hash propagates through absorb");
        assert_eq!(spend.rules_added, 2);
        assert_eq!(spend.rules_removed, 1);
        // A hash-less member (e.g. a frozen commercial detector) must not
        // erase the rule member's hash.
        spend.absorb(RetrainSpend::default());
        assert_eq!(spend.pack_hash, pack_hash);
    }

    struct CountingDetector(u32);
    impl Detector for CountingDetector {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn scope(&self) -> StateScope {
            StateScope::Stateless
        }
        fn observe(&mut self, _r: &StoredRequest) -> Verdict {
            self.0 += 1;
            Verdict::Human
        }
        fn fork(&self) -> Box<dyn Detector> {
            Box::new(CountingDetector(0))
        }
    }

    #[test]
    fn frozen_member_forks_fresh_detectors_and_never_retrains() {
        let mut member = Frozen::new(Box::new(CountingDetector(7)));
        assert_eq!(member.member_name(), "counting");
        assert!(!member.wants_history(), "frozen members retain nothing");
        let spend = member.end_of_round(&RoundContext {
            round: 0,
            records: crate::retention::RecordView::empty(),
            now: SimTime::EPOCH,
        });
        assert_eq!(spend, RetrainSpend::default());
        // Forked instances start from empty state, not the prototype's.
        let fresh = member.detector();
        assert_eq!(fresh.name(), "counting");
    }
}
