//! The closed loop: rounds of traffic → verdicts → mitigation → adaptation
//! → (since the `DefenseStack` redesign) defender retraining.
//!
//! One [`Arena`] owns everything both sides of the §6 feedback loop need:
//! the defender's [`DefenseStack`] (member chain + decision policy —
//! by default the honey-site chain plus FP-Inconsistent's members, mined
//! on round 0's paper traffic: mine offline, deploy online), the TTL
//! blocklist the policy writes, and one [`AdaptationStrategy`] per
//! adapting source: a bot service, the AI agents or the TLS laggards.
//!
//! A round is:
//!
//! 1. **Generate** — every source emits its traffic. Round 0 is exactly
//!    the single-shot cohort campaign (provably flag-for-flag identical to
//!    the pre-arena pipeline); later rounds re-generate the bot services
//!    and the TLS-laggard cohort and let their strategies rewrite the
//!    requests, while real users and AI agents are the same truthful
//!    population every round, shifted in time.
//! 2. **Admit** — the TTL blocklist (written by earlier rounds, expiring
//!    on simulated time) turns away listed addresses before anything else
//!    sees them — `fp-netsim`'s enforcement point.
//! 3. **Detect** — the admitted stream runs through the sharded ingest
//!    pipeline under the stack's *current* detector chain; every record
//!    carries the full named `VerdictSet`.
//! 4. **Mitigate** — the stack's [`DecisionPolicy`] maps each record's
//!    verdicts (plus the address's offense history) to a
//!    [`MitigationAction`]; blocks feed the blocklist for *subsequent*
//!    rounds (mitigation ships in batches, like real vendors' list
//!    updates).
//! 5. **Retrain** — the defender's lifecycle: the stack seals the round's
//!    labeled records into its training store as one epoch, applies
//!    [`ArenaConfig::retention`] (evicting stale epochs), and every stack
//!    member digests the retained window
//!    ([`DefenseStack::end_of_round`]). With a re-mining cadence
//!    configured, `fp-spatial` re-runs Algorithm 1 over that window and
//!    the *next* round's chain deploys the refreshed rules. The spend —
//!    retraining *and* eviction — is recorded in the round's stats.
//! 6. **Adapt** — each adapting source observes its own visible outcome
//!    (and nothing else) and updates its strategy for the next round.
//!
//! Everything is seeded and the per-round ingest is the shard-invariant
//! pipeline, so a whole campaign replays identically at any shard count.

use crate::strategy::{AdaptationStrategy, BehaviouralMutation};
use fp_behavior::BehaviorMember;
use fp_botnet::{Campaign, CampaignConfig};
use fp_honeysite::{DefenseStack, HoneySite, RequestStore};
use fp_inconsistent_core::defense::{ChurnLedger, RoundChurn, SpatialMember};
use fp_inconsistent_core::evaluate::{self, MutationStats, RoundStats, TrajectoryReport};
use fp_inconsistent_core::{FpInconsistent, MineConfig, PackSlot, RulePack};
use fp_netsim::{NetDb, TtlBlocklist};
use fp_obs::{Histogram, MetricsRegistry, RoundObs};
use fp_types::defense::{
    DecisionContext, DecisionPolicy, Frozen, ResponsePolicy, DEFAULT_BLOCK_TTL_SECS,
};
use fp_types::runfp::{component_of, RunComponents, RunFingerprint};
use fp_types::{
    mix2, ActionLedger, BehaviorThresholds, Cohort, HotSwap, MitigationAction, Request,
    RetentionPolicy, RoundOutcome, Scale, ServiceId, SimTime, Splittable, TrafficSource,
    STUDY_DAYS,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Simulated seconds per arena round (one full campaign window).
pub const ROUND_SECS: u64 = STUDY_DAYS as u64 * 86_400;

/// Registry name of the histogram timing each round's traffic build:
/// regeneration of the adversarial fleet, the strategies' rewrites and
/// the replay of the truthful populations (one sample per round).
pub const ROUND_GENERATE_NS: &str = "arena_round_generate_ns";

/// Visible-failure trigger for the [`ArenaConfig::agent_humanise`]
/// preset's [`BehaviouralMutation`]: low enough that a blocking policy's
/// first round of mitigation starts the humanising conversion.
pub const AGENT_HUMANISE_TRIGGER: f64 = 0.05;

/// Arena parameters.
#[derive(Clone, Copy, Debug)]
pub struct ArenaConfig {
    /// Volume scale relative to the paper's campaign.
    pub scale: Scale,
    /// Master seed; every round's generation and adaptation derives from
    /// it.
    pub seed: u64,
    /// Ingest shards per round (1 = sequential-equivalent).
    pub shards: usize,
    /// The response policy under test (installed as the stack's
    /// [`DecisionPolicy`]; swap in a richer one with
    /// [`Arena::set_policy`]).
    pub policy: ResponsePolicy,
    /// Defender re-mining cadence for the `fp-spatial` member: with
    /// `Some(n)`, the rule set is re-mined from the retained labeled
    /// rounds at the end of every `n`-th round (1 = every round). `None`
    /// freezes the round-0 rules forever — the pre-redesign behaviour.
    pub remine_cadence: Option<u32>,
    /// Retention policy for the defender's training window: each round is
    /// sealed into the stack's store as one epoch and this policy decides
    /// what stays. `KeepAll` (the default) is the unbounded pre-refactor
    /// window; `SlidingWindow { epochs }` caps peak resident records and
    /// re-mining scan spend for long-horizon arenas. Eviction is counted
    /// in the trajectory's defender-spend columns.
    pub retention: RetentionPolicy,
    /// The AI-agent operator's counter-move: with `Some(rate)`, the agent
    /// cohort runs a [`BehaviouralMutation`] strategy that converts
    /// `rate` of the fleet to human-paced cadence per pressured round
    /// (trigger [`AGENT_HUMANISE_TRIGGER`]). `None` keeps the agents'
    /// stock machine cadence forever.
    pub agent_humanise: Option<f64>,
    /// Behaviour-detector re-fit cadence: with `Some(n)`,
    /// [`Arena::new`] mounts a [`BehaviorMember`] that re-fits its
    /// cadence floor from the retained trusted traffic at the end of
    /// every `n`-th round. `None` freezes the static floor — the
    /// [`fp_honeysite::DefenseStack::default`] behaviour. (Arenas built
    /// with [`Arena::with_stack`] keep whatever behaviour member the
    /// caller's stack mounts; this knob drives the default stack only.)
    pub behavior_refit: Option<u32>,
}

impl Default for ArenaConfig {
    fn default() -> Self {
        ArenaConfig {
            scale: Scale::ratio(0.02),
            seed: 0xF91C0DE,
            shards: 1,
            policy: ResponsePolicy::block(DEFAULT_BLOCK_TTL_SECS),
            remine_cadence: None,
            retention: RetentionPolicy::KeepAll,
            agent_humanise: None,
            behavior_refit: None,
        }
    }
}

/// Everything one completed round hands back.
pub struct RoundResult {
    /// The round index.
    pub round: u32,
    /// The round's recorded store (admitted traffic with full verdict
    /// provenance).
    pub store: RequestStore,
    /// Per-source visible outcomes — what each adaptation strategy was
    /// shown.
    pub outcomes: HashMap<TrafficSource, RoundOutcome>,
    /// The round's measurement (also accumulated in the arena's
    /// [`TrajectoryReport`]).
    pub stats: RoundStats,
}

impl RoundResult {
    /// A source's outcome (zero-filled if it sent nothing).
    pub fn outcome(&self, source: TrafficSource) -> RoundOutcome {
        self.outcomes.get(&source).copied().unwrap_or(RoundOutcome {
            round: self.round,
            ..RoundOutcome::default()
        })
    }
}

/// The closed-loop mitigation & adaptation arena.
pub struct Arena {
    config: ArenaConfig,
    base: Campaign,
    stack: DefenseStack,
    /// The spatial member's deployment slot (shared with the member): the
    /// arena reads it to report the active pack, tests read it to verify
    /// the compiled/interpreted equivalence round by round.
    spatial_pack: std::sync::Arc<PackSlot>,
    /// The spatial member's per-re-mine churn trail (shared with the
    /// member, like the pack slot): what each freshly mined rule costs
    /// on the window's truthful traffic.
    spatial_churn: std::sync::Arc<ChurnLedger>,
    blocklist: TtlBlocklist,
    /// The adaptation table: each adapting source's strategy. Sources
    /// without one send their traffic unchanged.
    strategies: HashMap<TrafficSource, Box<dyn AdaptationStrategy>>,
    /// The behaviour member's live thresholds slot (shared with the
    /// member mounted by [`Arena::new`], like the spatial pack slot):
    /// the arena reads it to report the deployed cadence floor round by
    /// round. `None` for caller-supplied stacks.
    behavior_slot: Option<Arc<HotSwap<BehaviorThresholds>>>,
    trajectory: TrajectoryReport,
    /// The one metrics registry every layer records into: the per-round
    /// site chain, the stack and its re-mining member, the training
    /// store, and the admission blocklist. Per-round deltas land on each
    /// [`RoundStats::obs`]; the registry itself accumulates campaign
    /// totals.
    registry: Arc<MetricsRegistry>,
    /// [`ROUND_GENERATE_NS`] in `registry`.
    generate_ns: Arc<Histogram>,
    round: u32,
}

impl Arena {
    /// Set up the arena from the default defense stack (the honey site's
    /// commercial chain): generate the base campaign, mine the engine on
    /// its paper-faithful traffic (bots + real users) exactly like the
    /// single-shot pipeline does, and mount the FP-Inconsistent members.
    /// The behaviour member rides frozen or re-fitting per
    /// [`ArenaConfig::behavior_refit`], with its re-fit scan/swap
    /// instruments wired into the arena's registry.
    pub fn new(config: ArenaConfig) -> Arena {
        let registry = Arc::new(MetricsRegistry::new());
        let mut behavior = match config.behavior_refit {
            None => BehaviorMember::frozen(),
            Some(cadence) => BehaviorMember::refitting(cadence),
        };
        behavior.set_metrics(&registry);
        let slot = behavior.slot();
        let mut arena =
            Arena::with_registry(config, DefenseStack::with_behavior(behavior), registry);
        arena.behavior_slot = Some(slot);
        arena
    }

    /// Set up the arena from a caller-supplied base stack. The stack
    /// provides the leading (commercial) members; the arena mines the
    /// FP-Inconsistent engine on the base campaign's paper traffic as run
    /// through that stack's chain, appends the engine's members (the
    /// spatial member re-mining at [`ArenaConfig::remine_cadence`], the
    /// two frozen temporal anchors), and installs [`ArenaConfig::policy`]
    /// as the stack's decision policy.
    pub fn with_stack(config: ArenaConfig, stack: DefenseStack) -> Arena {
        Arena::with_registry(config, stack, Arc::new(MetricsRegistry::new()))
    }

    /// The shared constructor body: callers that pre-wire instruments
    /// into members before boxing them (as [`Arena::new`] does for the
    /// behaviour member) pass the registry those members record into.
    fn with_registry(
        config: ArenaConfig,
        mut stack: DefenseStack,
        registry: Arc<MetricsRegistry>,
    ) -> Arena {
        let base = Campaign::generate(CampaignConfig {
            scale: config.scale,
            seed: config.seed,
        });
        let mut mine_site = HoneySite::from_stack(&stack);
        Self::register_tokens(&mut mine_site, &base);
        mine_site.ingest_all(base.bot_requests.iter().cloned());
        mine_site.ingest_all(base.real_users.iter().map(|r| r.request.clone()));
        let engine = FpInconsistent::mine(&mine_site.into_store(), &MineConfig::default());

        stack.set_policy(Box::new(config.policy));
        stack.set_retention(config.retention);
        let mut member = match config.remine_cadence {
            None => SpatialMember::frozen(&engine),
            // The member's window starts empty: round 0 replays the
            // mining traffic, so pre-seeding would double-count it.
            Some(cadence) => SpatialMember::remining(&engine, MineConfig::default(), cadence),
        };
        member.set_metrics(&registry);
        let spatial_pack = member.pack_slot();
        let spatial_churn = member.churn_ledger();
        stack.push_member(Box::new(member));
        // The spatial slot is the member above; the engine's remaining
        // detectors (the temporal anchors) retrain nothing between rounds
        // and ride frozen. Select by provenance name, not position, so a
        // reordered or extended engine chain cannot silently double-mount
        // the spatial detector.
        for detector in engine
            .detectors()
            .into_iter()
            .filter(|d| d.name() != fp_types::detect::provenance::FP_SPATIAL)
        {
            stack.push_member(Box::new(Frozen::new(detector)));
        }
        stack.set_metrics(registry.clone());
        let mut blocklist = TtlBlocklist::new();
        blocklist.set_metrics(&registry);

        Arena {
            config,
            base,
            stack,
            spatial_pack,
            spatial_churn,
            blocklist,
            strategies: config
                .agent_humanise
                .map(|rate| {
                    let humanise = BehaviouralMutation::new(AGENT_HUMANISE_TRIGGER, rate);
                    (
                        TrafficSource::AiAgent,
                        Box::new(humanise) as Box<dyn AdaptationStrategy>,
                    )
                })
                .into_iter()
                .collect(),
            behavior_slot: None,
            trajectory: TrajectoryReport::new(),
            generate_ns: registry.histogram(ROUND_GENERATE_NS),
            registry,
            round: 0,
        }
    }

    /// The spatial member's *currently deployed* compiled rule pack — a
    /// snapshot of the hot-swap slot the member publishes re-mined rules
    /// through. Its [`RulePack::hash`] is the defense version the
    /// trajectory tables print; its rules rebuild the interpreted
    /// reference matcher in equivalence tests.
    pub fn spatial_pack(&self) -> std::sync::Arc<RulePack> {
        self.spatial_pack.load()
    }

    /// The spatial member's per-re-mine rule churn so far, in firing
    /// order: for every re-mine that actually deployed, which rules were
    /// added/removed and what each costs on that window's truthful
    /// (non-automation) traffic. Empty for frozen arenas. One entry's
    /// `added`/`removed` lengths match the round's
    /// `rules_added`/`rules_removed` ledger on
    /// [`fp_types::defense::RetrainSpend`].
    pub fn rule_churn(&self) -> Vec<RoundChurn> {
        self.spatial_churn
            .lock()
            .expect("churn ledger poisoned")
            .clone()
    }

    /// Give one adapting source — a bot service, the AI agents or the TLS
    /// laggards — an adaptation strategy, replacing any it had (sources
    /// without one stay static).
    ///
    /// # Panics
    ///
    /// Unless `source` is a bot: real users and privacy tools never adapt.
    pub fn set_strategy(&mut self, source: TrafficSource, strategy: Box<dyn AdaptationStrategy>) {
        assert!(source.is_bot(), "{source:?} never adapts");
        self.strategies.insert(source, strategy);
    }

    /// The behaviour detector's currently deployed thresholds — the
    /// static defaults until a re-fitting [`BehaviorMember`] publishes a
    /// learned floor. `None` when the arena was built from a
    /// caller-supplied stack ([`Arena::with_stack`]), whose behaviour
    /// member (if any) the caller holds.
    pub fn behavior_thresholds(&self) -> Option<BehaviorThresholds> {
        self.behavior_slot.as_ref().map(|slot| *slot.load())
    }

    /// Replace the stack's decision policy (e.g. with an
    /// [`fp_types::defense::EscalatingTtl`] or a per-detector policy).
    /// Detector members and their training state are untouched.
    pub fn set_policy(&mut self, policy: Box<dyn DecisionPolicy>) {
        self.stack.set_policy(policy);
    }

    /// The shipped adaptive preset: every service rotates IPs (with the
    /// timezone patched to match) and mutates fingerprints once mitigation
    /// bites; the laggard fleet gradually pays for real browser stacks.
    pub fn adaptive_defaults(&mut self) {
        use crate::strategy::{Composite, FingerprintMutation, IpRotation, TlsUpgrade};
        for id in ServiceId::all() {
            self.set_strategy(
                TrafficSource::Bot(id),
                Box::new(Composite::new(vec![
                    Box::new(IpRotation::new(0.15, true)),
                    Box::new(FingerprintMutation::new(0.15, 0.85)),
                ])),
            );
        }
        self.set_strategy(
            TrafficSource::TlsLaggard,
            Box::new(TlsUpgrade::new(0.15, 0.5)),
        );
    }

    /// The arena's configuration.
    pub fn config(&self) -> &ArenaConfig {
        &self.config
    }

    /// The defender's stack: member chain and decision policy.
    pub fn stack(&self) -> &DefenseStack {
        &self.stack
    }

    /// The mitigation blocklist as of now (entries from all completed
    /// rounds, expired ones included until swept).
    pub fn blocklist(&self) -> &TtlBlocklist {
        &self.blocklist
    }

    /// Rounds completed so far.
    pub fn rounds_played(&self) -> u32 {
        self.round
    }

    /// The accumulated round-over-round measurement.
    pub fn trajectory(&self) -> &TrajectoryReport {
        &self.trajectory
    }

    /// The arena's metrics registry — campaign-cumulative latency and
    /// timing instruments from every layer (site chain, blocklist, store,
    /// stack members). Per-round deltas of the same registry land on each
    /// round's [`RoundStats::obs`]. Render it with
    /// [`fp_obs::expose::render_text`] or [`fp_obs::expose::ledger`].
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Consume the arena, keeping the trajectory.
    pub fn into_trajectory(self) -> TrajectoryReport {
        self.trajectory
    }

    /// The run's `RUNFP_V1` component breakdown — the audit surface
    /// behind [`Arena::run_fingerprint`]. Components, in fingerprint
    /// order:
    ///
    /// * `config.scale`, `config.policy`, `config.retention`,
    ///   `config.remine`, `config.humanise`, `config.refit` — one
    ///   component per [`ArenaConfig`] knob, so a
    ///   frozen-vs-re-mining pair diverges in `config.remine` alone while
    ///   every other config component attests the pairing. These hash the
    ///   *configured* run parameters; a policy hot-swapped at runtime via
    ///   [`Arena::set_policy`] shows up in `behavior` (where its observable
    ///   effect lands), not here.
    /// * `seed` — the master seed every round's generation and adaptation
    ///   derives from.
    /// * `behavior` — the trajectory fold
    ///   ([`TrajectoryReport::behavior_component`]): per-detector flag
    ///   counts, denials, mitigation actions, mutation spend, defender
    ///   spend with pack hashes and eviction ledgers, per round in order.
    ///
    /// [`ArenaConfig::shards`] is deliberately **not** a component: the
    /// shard count is a parameter the pipeline proves
    /// behaviour-invariant, so the same campaign at 1, 2 or 8 shards must
    /// attest identically; that invariance is what the fingerprint is
    /// *for*. The metrics registry ([`Arena::metrics`]) and each
    /// round's [`RoundStats::obs`] snapshot are excluded for the same
    /// reason: latency histograms and wall-clock timings are host noise,
    /// so folding them would make the same campaign fingerprint
    /// differently on different machines.
    pub fn run_components(&self) -> RunComponents {
        let c = &self.config;
        let retention = match c.retention {
            RetentionPolicy::KeepAll => "retention=keep".to_string(),
            RetentionPolicy::SlidingWindow { epochs } => format!("retention=sliding:{epochs}"),
            RetentionPolicy::SampledDecay { keep_rate, floor } => {
                format!("retention=decay:{keep_rate}:{floor}")
            }
        };
        let remine = match c.remine_cadence {
            None => "remine=off".to_string(),
            Some(cadence) => format!("remine={cadence}"),
        };
        let humanise = match c.agent_humanise {
            None => "humanise=off".to_string(),
            Some(rate) => format!("humanise={rate}"),
        };
        let refit = match c.behavior_refit {
            None => "refit=off".to_string(),
            Some(cadence) => format!("refit={cadence}"),
        };
        let mut out = RunComponents::new();
        out.push(
            "config.scale",
            component_of("config.scale", &[&format!("scale={}", c.scale.fraction())]),
        );
        out.push(
            "config.policy",
            component_of(
                "config.policy",
                &[&format!(
                    "policy={}:votes={}:action={}",
                    c.policy.name, c.policy.min_votes, c.policy.action
                )],
            ),
        );
        out.push(
            "config.retention",
            component_of("config.retention", &[&retention]),
        );
        out.push("config.remine", component_of("config.remine", &[&remine]));
        out.push(
            "config.humanise",
            component_of("config.humanise", &[&humanise]),
        );
        out.push("config.refit", component_of("config.refit", &[&refit]));
        out.push("seed", component_of("seed", &[&format!("seed={}", c.seed)]));
        out.push("behavior", self.trajectory.behavior_component());
        out
    }

    /// The deterministic fingerprint of everything this arena was
    /// configured with and everything that observably happened in the
    /// rounds played so far. Equal fingerprints mean "the same campaign";
    /// on divergence, compare [`Arena::run_components`] breakdowns to
    /// name the facet that moved.
    pub fn run_fingerprint(&self) -> RunFingerprint {
        self.run_components().fingerprint()
    }

    /// Play one round; returns its full result.
    pub fn step(&mut self) -> RoundResult {
        let round = self.round;
        // The round's observability window: wall clock plus the registry
        // delta between here and the stats literal below. Deltas (not
        // totals) land on the round so `RoundStats::obs` is per-round even
        // though the registry accumulates across the campaign.
        let wall_start = Instant::now();
        let obs_before = self.registry.snapshot();
        let generate_start = Instant::now();
        let (stream, mutation) = self.round_stream(round);
        self.generate_ns
            .record(generate_start.elapsed().as_nanos() as u64);

        // Admission + detection under the stack's current chain: the
        // TTL-blocklist check per request, then sharded ingest
        // (`ingest_stream`, the serving layer's batch driver) over what it
        // admitted.
        let mut outcomes: HashMap<TrafficSource, RoundOutcome> = HashMap::new();
        let mut denied = [0u64; Cohort::ALL.len()];
        let mut admitted = Vec::with_capacity(stream.len());
        for request in stream {
            let outcome = outcomes.entry(request.source).or_insert(RoundOutcome {
                round,
                ..RoundOutcome::default()
            });
            outcome.sent += 1;
            if self
                .blocklist
                .contains(NetDb::hash_ip(request.ip), request.time)
            {
                outcome.denied += 1;
                denied[request.source.cohort().index()] += 1;
            } else {
                admitted.push(request);
            }
        }
        let mut site = self.site();
        site.ingest_stream(admitted, self.config.shards);
        let store = site.into_store();

        // Mitigation: the stack's policy maps verdicts (+ offense history)
        // to actions; blocks land on the list that gates the *next*
        // rounds' admissions. A new ban *episode* is opened only when no
        // ban is currently binding for the address; blocked requests that
        // arrive during an episode renew its lease (coverage extends from
        // the latest activity) without re-listing. Ban length therefore
        // scales with offense episodes and activity span — never with raw
        // request volume (TTLs do not stack per request) — and an
        // escalating policy's TTL cap bounds each episode.
        let mut actions = ActionLedger::default();
        for record in store.iter() {
            let outcome = outcomes.entry(record.source).or_insert(RoundOutcome {
                round,
                ..RoundOutcome::default()
            });
            // "Prior offenses" means episodes *before* the one the address
            // may currently be serving: a binding episode's own listing is
            // excluded, so every decision within one episode sits on the
            // same escalation rung (lease renewals do not climb the
            // ladder).
            let offenses = self.blocklist.offenses(record.ip_hash);
            let prior_offenses = if self.blocklist.contains(record.ip_hash, record.time) {
                offenses.saturating_sub(1)
            } else {
                offenses
            };
            let action = self.stack.decide(&DecisionContext {
                verdicts: &record.verdicts,
                ip_hash: record.ip_hash,
                now: record.time,
                prior_offenses,
            });
            actions.record(action);
            match action {
                MitigationAction::Allow | MitigationAction::ShadowFlag => outcome.allowed += 1,
                MitigationAction::Captcha => {
                    outcome.captchas += 1;
                    // Policies on the CAPTCHA-then-block ladder need the
                    // served challenge remembered: record it as a
                    // never-binding strike whose history outlives the
                    // round-end purge for the policy's memory TTL, so
                    // the offense count moves — across rounds — without
                    // denying anything. Plain policies leave the
                    // blocklist untouched.
                    if let Some(memory_ttl) = self.stack.policy().captcha_strike_ttl() {
                        self.blocklist
                            .strike(record.ip_hash, record.time, memory_ttl);
                    }
                }
                MitigationAction::Block(ttl_secs) => {
                    outcome.blocked += 1;
                    if !self
                        .blocklist
                        .refresh(record.ip_hash, record.time, ttl_secs)
                    {
                        self.blocklist.block(record.ip_hash, record.time, ttl_secs);
                    }
                }
            }
        }
        let round_end = SimTime(u64::from(round + 1) * ROUND_SECS);
        self.blocklist.purge_expired(round_end);

        // Defender lifecycle: the stack seals the round's labeled records
        // into its training store as one epoch (retention applied), and
        // every member digests the retained window; retraining members
        // refresh their model here and the *next* round's chain deploys
        // it. Eviction rides back in the spend.
        let defense = self.stack.end_of_round(round, store.records(), round_end);

        let stats = RoundStats {
            round,
            cohorts: evaluate::cohort_report(&store),
            denied,
            actions,
            mutation,
            defense,
            obs: RoundObs {
                wall_ns: wall_start.elapsed().as_nanos() as u64,
                snapshot: self.registry.snapshot().delta(&obs_before),
            },
        };
        self.trajectory.push(stats.clone());

        // Adaptation: every strategy sees its own source's outcome only.
        let result = RoundResult {
            round,
            store,
            outcomes,
            stats,
        };
        for (&source, strategy) in &mut self.strategies {
            strategy.observe(&result.outcome(source));
        }
        self.round += 1;
        result
    }

    /// Play `rounds` rounds and return the accumulated trajectory.
    pub fn run(&mut self, rounds: u32) -> &TrajectoryReport {
        for _ in 0..rounds {
            self.step();
        }
        &self.trajectory
    }

    /// A fresh honey site for one round: every token registered and the
    /// stack's current detector chain — detector state starts empty each
    /// round (a measurement window reset), while training state lives on
    /// in the stack members.
    fn site(&self) -> HoneySite {
        let mut site = HoneySite::from_stack(&self.stack);
        site.set_metrics(self.registry.clone());
        Self::register_tokens(&mut site, &self.base);
        site
    }

    fn register_tokens(site: &mut HoneySite, campaign: &Campaign) {
        for id in ServiceId::all() {
            site.register_token(campaign.token_of(id));
        }
        site.register_token(campaign.real_user_token());
        site.register_token(campaign.ai_agent_token());
        site.register_token(campaign.tls_laggard_token());
    }

    /// Build round `r`'s request stream (bots, then real users, AI agents
    /// and TLS laggards — the cohort-campaign order) plus the adaptation
    /// spend that went into it.
    fn round_stream(&mut self, r: u32) -> (Vec<Request>, MutationStats) {
        if r == 0 {
            // Round 0 is the single-shot cohort campaign, untouched: no
            // blocklist entries exist yet and no strategy has observed
            // anything, so the arena's first round *is* the pre-arena
            // pipeline.
            let mut stream = self.base.bot_requests.clone();
            stream.extend(self.base.real_users.iter().map(|u| u.request.clone()));
            stream.extend(self.base.ai_agents.iter().cloned());
            stream.extend(self.base.tls_laggards.iter().cloned());
            return (stream, MutationStats::default());
        }

        // Only the adversarial fleet is regenerated — the truthful
        // populations are reused from the base campaign below, so there is
        // no point paying to generate fresh ones.
        let fresh = Campaign::generate_adversarial(CampaignConfig {
            scale: self.config.scale,
            seed: mix2(self.config.seed, u64::from(r)),
        });
        let arena_rng = Splittable::new(self.config.seed)
            .child_str("arena")
            .child(u64::from(r));
        // Each adapting source's strategy with its own RNG stream.
        let mut adapting: HashMap<_, _> = self
            .strategies
            .iter_mut()
            .map(|(&source, strategy)| {
                let rng = match source {
                    TrafficSource::Bot(id) => arena_rng.child(u64::from(id.0)),
                    TrafficSource::AiAgent => arena_rng.child_str("agents"),
                    // The TLS laggards: `set_strategy` admits bots only.
                    _ => arena_rng.child_str("laggards"),
                };
                (source, (strategy, rng))
            })
            .collect();
        let mut mutation = MutationStats::default();
        let mut stream = Vec::with_capacity(
            fresh.bot_requests.len()
                + self.base.real_users.len()
                + self.base.ai_agents.len()
                + fresh.tls_laggards.len(),
        );

        // The regenerated bot services and TLS laggards, re-tokenised to
        // the base campaign's registrations (tokens are seed-derived); the
        // truthful users and the AI agents' task fleet, the same
        // population every round (their devices and habits don't change
        // because a bot got blocked). Every request takes one adapt step:
        // its source's strategy may retreat (the request is never sent)
        // or rewrite it, then it is shifted into round `r`.
        let base = &self.base;
        let bots = fresh.bot_requests.into_iter().filter_map(|mut request| {
            request.site_token = base.token_of(request.source.service()?);
            Some(request)
        });
        let laggards = fresh.tls_laggards.into_iter().map(|mut request| {
            request.site_token = base.tls_laggard_token();
            request
        });
        let requests = bots
            .chain(base.real_users.iter().map(|u| u.request.clone()))
            .chain(base.ai_agents.iter().cloned())
            .chain(laggards);
        for mut request in requests {
            if let Some((strategy, rng)) = adapting.get_mut(&request.source) {
                if !rng.chance(strategy.volume_factor()) {
                    continue;
                }
                absorb_receipt(&mut mutation, strategy.apply(&mut request, rng));
            }
            request.time = shift_round(request.time, r);
            stream.push(request);
        }

        (stream, mutation)
    }
}

/// Shift a round-local arrival time into round `r`'s window.
fn shift_round(time: SimTime, r: u32) -> SimTime {
    SimTime(time.0 + u64::from(r) * ROUND_SECS)
}

fn absorb_receipt(stats: &mut MutationStats, receipt: crate::strategy::MutationReceipt) {
    stats.absorb(MutationStats {
        adapted_requests: u64::from(receipt.touched()),
        mutated_attrs: u64::from(receipt.mutated_attrs),
        rotated_ips: u64::from(receipt.rotated_ip),
        tls_upgrades: u64::from(receipt.upgraded_tls),
        cadence_humanised: u64::from(receipt.humanised_cadence),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{FingerprintMutation, IpRotation, MutationReceipt, Static};
    use fp_types::detect::provenance;

    fn tiny_config(policy: ResponsePolicy) -> ArenaConfig {
        ArenaConfig {
            scale: Scale::ratio(0.005),
            seed: 77,
            shards: 1,
            policy,
            ..ArenaConfig::default()
        }
    }

    #[test]
    fn rounds_advance_time_and_trajectory() {
        let mut arena = Arena::new(tiny_config(ResponsePolicy::shadow()));
        let r0 = arena.step();
        let r1 = arena.step();
        assert_eq!(r0.round, 0);
        assert_eq!(r1.round, 1);
        assert_eq!(arena.rounds_played(), 2);
        assert_eq!(arena.trajectory().rounds.len(), 2);
        let max_t0 = r0.store.iter().map(|r| r.time).max().unwrap();
        let min_t1 = r1.store.iter().map(|r| r.time).min().unwrap();
        assert!(min_t1 >= SimTime(ROUND_SECS), "round 1 is later in time");
        assert!(max_t0 < SimTime(ROUND_SECS));
    }

    #[test]
    fn shadow_policy_never_denies_or_blocks() {
        let mut arena = Arena::new(tiny_config(ResponsePolicy::shadow()));
        arena.adaptive_defaults();
        for _ in 0..2 {
            let result = arena.step();
            for outcome in result.outcomes.values() {
                assert_eq!(outcome.denied, 0);
                assert_eq!(outcome.blocked, 0);
                assert_eq!(outcome.captchas, 0);
                assert_eq!(outcome.visible_failure_rate(), 0.0);
            }
        }
        assert!(arena.blocklist().is_empty());
    }

    #[test]
    fn block_policy_feeds_the_blocklist_and_denies_next_round() {
        let mut arena = Arena::new(tiny_config(ResponsePolicy::block(ROUND_SECS * 2)));
        let r0 = arena.step();
        let blocked: u64 = r0.outcomes.values().map(|o| o.blocked).sum();
        assert!(blocked > 0, "the chain flags plenty of round-0 bots");
        assert!(!arena.blocklist().is_empty());
        let r1 = arena.step();
        let denied: u64 = r1.outcomes.values().map(|o| o.denied).sum();
        assert!(denied > 0, "round-1 admissions hit round-0 blocks");
        assert_eq!(
            r0.outcomes.values().map(|o| o.denied).sum::<u64>(),
            0,
            "round 0 starts with an empty list"
        );
    }

    #[test]
    fn blocklist_entries_expire_across_rounds() {
        // A TTL much shorter than a round leaves (at most) the tail-end
        // blocks alive at the round boundary, so round-1 denials collapse
        // compared to a TTL that spans the whole next round.
        let denied_r1 = |ttl: u64| {
            let mut arena = Arena::new(tiny_config(ResponsePolicy::block(ttl)));
            arena.step();
            let r1 = arena.step();
            r1.outcomes.values().map(|o| o.denied).sum::<u64>()
        };
        let short = denied_r1(1_000);
        let long = denied_r1(ROUND_SECS * 2);
        assert!(long > 0, "long-TTL blocks must deny round-1 traffic");
        assert!(
            short * 20 < long,
            "short-TTL entries mostly expired: {short} denied vs {long}"
        );
    }

    #[test]
    fn static_services_replay_identically_at_any_shard_count() {
        let run = |shards: usize| {
            let mut config = tiny_config(ResponsePolicy::block(ROUND_SECS));
            config.shards = shards;
            let mut arena = Arena::new(config);
            arena.set_strategy(TrafficSource::Bot(ServiceId(1)), Box::new(Static));
            arena.set_strategy(
                TrafficSource::Bot(ServiceId(2)),
                Box::new(IpRotation::new(0.1, true)),
            );
            let r0 = arena.step();
            let r1 = arena.step();
            (r0.store, r1.store)
        };
        let (a0, a1) = run(1);
        let (b0, b1) = run(3);
        for (a, b) in [(a0, b0), (a1, b1)] {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.verdicts, y.verdicts);
                assert_eq!(x.ip_hash, y.ip_hash);
                assert_eq!(x.cookie, y.cookie);
            }
        }
    }

    #[test]
    fn strategies_only_see_their_own_outcome() {
        // A mutating service adapts; a static one stays put. The static
        // service's round-1 traffic must equal a no-strategy run's.
        let run = |mutate_s1: bool| {
            let mut arena = Arena::new(tiny_config(ResponsePolicy::block(ROUND_SECS)));
            if mutate_s1 {
                arena.set_strategy(
                    TrafficSource::Bot(ServiceId(1)),
                    Box::new(FingerprintMutation::new(0.05, 1.0)),
                );
            }
            arena.step();
            let r1 = arena.step();
            let digests: Vec<u64> = r1
                .store
                .iter()
                .filter(|r| r.source == TrafficSource::Bot(ServiceId(3)))
                .map(|r| r.fingerprint.digest())
                .collect();
            digests
        };
        assert_eq!(run(false), run(true), "S3's traffic is unaffected by S1");
    }

    /// A static strategy that logs every outcome it observes.
    struct Recorder(Arc<std::sync::Mutex<Vec<RoundOutcome>>>);

    impl AdaptationStrategy for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn observe(&mut self, outcome: &RoundOutcome) {
            self.0.lock().unwrap().push(*outcome);
        }
        fn apply(&mut self, _request: &mut Request, _rng: &mut Splittable) -> MutationReceipt {
            MutationReceipt::NONE
        }
    }

    #[test]
    fn laggard_and_agent_strategies_observe_only_their_own_outcome() {
        let mut arena = Arena::new(tiny_config(ResponsePolicy::block(ROUND_SECS)));
        let sources = [TrafficSource::TlsLaggard, TrafficSource::AiAgent];
        let logs = sources.map(|source| {
            let log = Arc::default();
            arena.set_strategy(source, Box::new(Recorder(Arc::clone(&log))));
            log
        });
        let rounds: Vec<RoundResult> = (0..2).map(|_| arena.step()).collect();
        for (source, log) in sources.into_iter().zip(logs) {
            let own: Vec<RoundOutcome> = rounds.iter().map(|r| r.outcome(source)).collect();
            assert_eq!(*log.lock().unwrap(), own, "{source:?}");
        }
        assert_ne!(
            rounds[0].outcome(sources[0]),
            rounds[0].outcome(sources[1]),
            "the cohorts' outcomes differ, so neither log holds the other's"
        );
    }

    #[test]
    #[should_panic(expected = "never adapts")]
    fn real_users_take_no_strategy() {
        let mut arena = Arena::new(tiny_config(ResponsePolicy::shadow()));
        arena.set_strategy(TrafficSource::RealUser, Box::new(Static));
    }

    #[test]
    fn mutation_spend_is_accounted() {
        let mut arena = Arena::new(tiny_config(ResponsePolicy::block(ROUND_SECS)));
        arena.set_strategy(
            TrafficSource::Bot(ServiceId(1)),
            Box::new(FingerprintMutation::new(0.05, 1.0)),
        );
        arena.step();
        let r1 = arena.step();
        assert!(r1.stats.mutation.adapted_requests > 0);
        // Resolution (2) + cores (1) + cookie (1) change on every adapted
        // request; timezone attrs only count when they were wrong.
        assert!(r1.stats.mutation.mutated_attrs >= 4 * r1.stats.mutation.adapted_requests);
        assert_eq!(r1.stats.mutation.tls_upgrades, 0);
    }

    #[test]
    fn every_round_keeps_full_verdict_provenance() {
        let mut arena = Arena::new(tiny_config(ResponsePolicy::captcha()));
        arena.step();
        let r1 = arena.step();
        for record in r1.store.iter().take(50) {
            for name in [
                provenance::DATADOME,
                provenance::BOTD,
                provenance::FP_TLS_CROSSLAYER,
                provenance::FP_BEHAVIOR,
                provenance::FP_SPATIAL,
                provenance::FP_TEMPORAL_COOKIE,
                provenance::FP_TEMPORAL_IP,
            ] {
                assert!(
                    record.verdicts.verdict(name).is_some(),
                    "round-1 record {} missing {name}",
                    record.id
                );
            }
        }
    }

    #[test]
    fn frozen_defender_reports_no_retraining_spend() {
        let mut arena = Arena::new(tiny_config(ResponsePolicy::block(ROUND_SECS)));
        arena.step();
        let r1 = arena.step();
        assert_eq!(r1.stats.defense.retrained_members, 0);
        assert_eq!(r1.stats.defense.records_scanned, 0);
        assert!(
            r1.stats.defense.rules_active > 0,
            "the frozen rule set is still live and reported"
        );
    }

    #[test]
    fn remining_defender_spends_at_its_cadence() {
        let mut config = tiny_config(ResponsePolicy::block(ROUND_SECS));
        config.remine_cadence = Some(2);
        let mut arena = Arena::new(config);
        let r0 = arena.step();
        assert_eq!(
            r0.stats.defense.retrained_members, 0,
            "cadence 2 skips the first round boundary"
        );
        assert!(r0.stats.defense.rules_active > 0);
        let r1 = arena.step();
        assert_eq!(r1.stats.defense.retrained_members, 1);
        assert_eq!(
            r1.stats.defense.records_scanned as usize,
            r0.store.len() + r1.store.len(),
            "the window holds exactly both rounds' records — no pre-seeded \
             copy of the mining traffic (that would double-count round 0)"
        );
        let spend = arena.trajectory().defense_spend_trajectory();
        assert_eq!(spend.len(), 2);
        assert_eq!(
            arena.trajectory().total_defense_scans(),
            spend[1].records_scanned
        );
    }

    #[test]
    fn rounds_carry_metric_deltas_that_sum_to_the_registry_totals() {
        let mut config = tiny_config(ResponsePolicy::block(ROUND_SECS));
        config.remine_cadence = Some(1);
        let mut arena = Arena::new(config);
        let fp_before = arena.run_fingerprint();
        let r0 = arena.step();
        let r1 = arena.step();

        // Every layer reported into the one registry.
        let totals = arena.metrics().snapshot();
        let admitted_total = totals
            .counter(fp_honeysite::site::REQUESTS_ADMITTED)
            .expect("site counters registered");
        assert_eq!(
            admitted_total as usize,
            r0.store.len() + r1.store.len(),
            "admitted counter tracks the recorded stores"
        );
        let latency = totals
            .histogram(fp_honeysite::site::ADMISSION_TO_VERDICT_NS)
            .expect("latency histogram registered");
        assert_eq!(latency.count(), admitted_total);
        assert!(
            totals
                .counter(fp_netsim::blocklist::BLOCKLIST_CHECKS)
                .unwrap()
                > 0,
            "admission checks counted"
        );
        assert_eq!(
            totals
                .counter(fp_netsim::blocklist::BLOCKLIST_PURGE_SWEEPS)
                .unwrap(),
            2,
            "one purge sweep per round"
        );
        assert_eq!(
            totals
                .histogram(fp_inconsistent_core::defense::REMINE_SCAN_NS)
                .unwrap()
                .count(),
            2,
            "cadence-1 re-mine timed every round"
        );

        // Round deltas partition the totals.
        let per_round: u64 = [&r0, &r1]
            .iter()
            .map(|r| {
                r.stats
                    .obs
                    .snapshot
                    .counter(fp_honeysite::site::REQUESTS_ADMITTED)
                    .unwrap()
            })
            .sum();
        assert_eq!(per_round, admitted_total);
        assert!(r0.stats.obs.wall_ns > 0, "rounds take wall time");

        // The traffic build is timed once per round, inside the round.
        assert_eq!(totals.histogram(ROUND_GENERATE_NS).unwrap().count(), 2);
        for r in [&r0, &r1] {
            let generate = r.stats.obs.snapshot.histogram(ROUND_GENERATE_NS).unwrap();
            assert_eq!(generate.count(), 1, "one traffic build per round");
            assert!(
                generate.sum <= r.stats.obs.wall_ns,
                "round {}: the traffic build ({} ns) fits in the round ({} ns)",
                r.round,
                generate.sum,
                r.stats.obs.wall_ns
            );
        }

        // …and none of it moved the fingerprint: stepping changed the
        // behaviour component (rounds were played), but an identical
        // replay fingerprints identically, timings and all.
        assert_ne!(arena.run_fingerprint(), fp_before);
        let mut replay = Arena::new(config);
        replay.step();
        replay.step();
        assert_eq!(arena.run_fingerprint(), replay.run_fingerprint());
    }

    #[test]
    fn bans_are_episodes_not_per_request_listings() {
        // A long flat TTL: every blocked address opens exactly one ban
        // episode this round, no matter how many of its requests were
        // blocked — ban length must scale with offense episodes, not raw
        // request volume.
        let mut arena = Arena::new(tiny_config(ResponsePolicy::block(ROUND_SECS * 2)));
        let r0 = arena.step();
        let blocked: u64 = r0.outcomes.values().map(|o| o.blocked).sum();
        let mut blocked_hashes: Vec<u64> = r0
            .store
            .iter()
            .filter(|r| arena.blocklist().offenses(r.ip_hash) > 0)
            .map(|r| r.ip_hash)
            .collect();
        blocked_hashes.sort_unstable();
        blocked_hashes.dedup();
        assert!(blocked > blocked_hashes.len() as u64, "addresses repeat");
        for hash in &blocked_hashes {
            assert_eq!(
                arena.blocklist().offenses(*hash),
                1,
                "one binding ban = one episode, however many requests it denied"
            );
        }
    }

    #[test]
    fn escalating_policy_compounds_within_round_recidivism() {
        // A base TTL much shorter than a round (≈2.3 days of the 91-day
        // window): addresses that come back after their ban lapses open
        // new episodes, the offense count climbs, and the escalated TTLs
        // eventually outlive the round — unlike the flat policy, whose
        // expired entries are all swept at the round boundary.
        let base = 5_000;
        let mut flat = Arena::new(tiny_config(ResponsePolicy::block(base)));
        flat.step();
        // Only episodes opened inside the round's final `base` seconds can
        // survive the boundary under the flat policy.
        let flat_survivors = flat.blocklist().len();

        let mut escalated = Arena::new(tiny_config(ResponsePolicy::block(base)));
        escalated.set_policy(Box::new(
            ResponsePolicy::block(base).escalating(64, ROUND_SECS * 4),
        ));
        let r0 = escalated.step();
        let max_offenses = r0
            .store
            .iter()
            .map(|r| escalated.blocklist().offenses(r.ip_hash))
            .max()
            .unwrap();
        assert!(
            max_offenses >= 2,
            "recidivist addresses must accumulate episodes: max {max_offenses}"
        );
        // 64²·5k ≈ 20.5M simulated seconds > the 7.86M-second round, so
        // every third-episode ban outlives the round wherever it was
        // opened — escalation must keep strictly more entries alive than
        // the flat policy's tail-end survivors.
        assert!(
            escalated.blocklist().len() > flat_survivors,
            "escalated repeat-offender bans must outlive the round boundary: \
             flat {flat_survivors}, escalated {}",
            escalated.blocklist().len()
        );
    }
}
