//! End-to-end coverage of the closed-loop arena:
//!
//! * round 0 is flag-for-flag the single-shot cohort campaign (the arena
//!   provably *starts from* the pre-arena pipeline);
//! * adapting bot services measurably erode the static rule set's recall
//!   across rounds, the §6 dynamic;
//! * cross-layer TLS recall on the laggard cohort decays only when the
//!   fleet pays the stack-upgrade cost — mutating everything else changes
//!   nothing;
//! * truthful real users' false-positive rates stay flat under every
//!   shipped policy;
//! * under Block, a humanising agent fleet erodes the behaviour
//!   detector's AiAgent recall round over round, and a cadence-1
//!   re-fitting `BehaviorMember` claws it back — paid for in scan spend,
//!   never in truthful-user FPR;
//! * shard invariance holds inside arena rounds;
//! * a sliding-window retention policy bounds the re-mining defender's
//!   resident memory and scan spend on a long-horizon (12-round) arena
//!   while keeping the recall clawback within a few points of the
//!   unbounded window;
//! * the CAPTCHA-then-block hybrid challenges first offenders and blocks
//!   recidivists.

use fp_arena::{
    Arena, ArenaConfig, Composite, DefenseStack, FingerprintMutation, IpRotation, ResponsePolicy,
    TlsUpgrade, DEFAULT_BLOCK_TTL_SECS,
};
use fp_bench::{recorded_cohort_campaign, CAMPAIGN_SEED};
use fp_types::detect::provenance;
use fp_types::{
    CaptchaEscalation, Cohort, MitigationAction, RetentionPolicy, Scale, TrafficSource,
};

fn block_config(scale: f64, seed: u64) -> ArenaConfig {
    ArenaConfig {
        scale: Scale::ratio(scale),
        seed,
        shards: 1,
        policy: ResponsePolicy::block(DEFAULT_BLOCK_TTL_SECS),
        ..ArenaConfig::default()
    }
}

/// Round 0 of an arena built from `DefenseStack::default()` + a static
/// policy is the pre-redesign pipeline, record for record and action for
/// action: same admissions, same stored facts, same named verdicts from
/// all six detectors — and the stack's decision path hands every record
/// exactly the action the old per-record `ResponsePolicy::decide` loop
/// did.
#[test]
fn round0_is_identical_to_the_single_shot_campaign() {
    let scale = Scale::ratio(0.01);
    let (_, single_shot) = recorded_cohort_campaign(scale);
    let mut arena = Arena::with_stack(
        ArenaConfig {
            scale,
            seed: CAMPAIGN_SEED,
            shards: 1,
            policy: ResponsePolicy::block(DEFAULT_BLOCK_TTL_SECS),
            ..ArenaConfig::default()
        },
        DefenseStack::default(),
    );
    arena.adaptive_defaults(); // strategies must not perturb round 0
    let round0 = arena.step();

    assert_eq!(round0.store.len(), single_shot.len());
    for (a, b) in round0.store.iter().zip(single_shot.iter()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.time, b.time);
        assert_eq!(a.ip_hash, b.ip_hash);
        assert_eq!(a.cookie, b.cookie);
        assert_eq!(a.tls, b.tls);
        assert_eq!(a.source, b.source);
        assert_eq!(
            a.fingerprint.digest(),
            b.fingerprint.digest(),
            "request {}",
            a.id
        );
        assert_eq!(a.verdicts, b.verdicts, "request {}", a.id);
    }

    // Action-for-action: replay the pre-redesign mitigation loop (the
    // static policy applied per record's verdicts, nothing else) over the
    // single-shot store and compare the per-source tallies with what the
    // stack's decision path actually produced.
    let policy = ResponsePolicy::block(DEFAULT_BLOCK_TTL_SECS);
    let mut legacy: std::collections::HashMap<fp_types::TrafficSource, (u64, u64, u64)> =
        std::collections::HashMap::new();
    for record in single_shot.iter() {
        let slot = legacy.entry(record.source).or_default();
        match policy.decide(&record.verdicts) {
            MitigationAction::Allow | MitigationAction::ShadowFlag => slot.0 += 1,
            MitigationAction::Captcha => slot.1 += 1,
            MitigationAction::Block(_) => slot.2 += 1,
        }
    }
    for (source, (allowed, captchas, blocked)) in legacy {
        let outcome = round0.outcome(source);
        assert_eq!(outcome.allowed, allowed, "{source:?} allowed");
        assert_eq!(outcome.captchas, captchas, "{source:?} captchas");
        assert_eq!(outcome.blocked, blocked, "{source:?} blocked");
        assert_eq!(outcome.denied, 0, "{source:?}: round 0 has no blocklist");
    }
}

/// Under a Block policy, adapting services measurably erode the static
/// mined rule set (fp-spatial) and launder the temporal anchor — while a
/// behaviour-reading detector is not similarly evaded by fingerprint
/// mutation.
#[test]
fn adapting_bots_erode_static_rule_recall() {
    let mut arena = Arena::new(block_config(0.02, CAMPAIGN_SEED));
    arena.adaptive_defaults();
    arena.run(4);
    let trajectory = arena.trajectory();

    let spatial = trajectory.recall_trajectory(provenance::FP_SPATIAL, Cohort::BotService);
    assert!(
        spatial[0] > 0.2,
        "round 0 must have meaningful spatial recall, got {}",
        spatial[0]
    );
    assert!(
        *spatial.last().unwrap() < spatial[0] - 0.05,
        "adaptation must erode mined-rule recall measurably: {spatial:?}"
    );

    let temporal = trajectory.recall_trajectory(provenance::FP_TEMPORAL_COOKIE, Cohort::BotService);
    assert!(
        *temporal.last().unwrap() < temporal[0].max(1e-9),
        "per-request cookie rotation must launder the temporal anchor: {temporal:?}"
    );

    // The behaviour-reading detector is not evaded by attribute mutation:
    // its recall holds (or rises, as churn trips its per-IP rule).
    let dd = trajectory.recall_trajectory(provenance::DATADOME, Cohort::BotService);
    assert!(
        *dd.last().unwrap() > dd[0] - 0.05,
        "DataDome must hold against fingerprint mutation: {dd:?}"
    );

    // The adversary paid for the evasion, and the arena accounted for it.
    let last = trajectory.rounds.last().unwrap();
    assert!(last.mutation.adapted_requests > 0);
    assert!(last.mutation.rotated_ips > 0);
    assert!(last.mutation.mutated_attrs > last.mutation.adapted_requests);
}

/// The laggard fleet escapes the cross-layer detector only by paying the
/// stack-upgrade cost; rotating IPs and mutating JS attributes instead
/// changes nothing about the handshake and keeps recall at 100 %.
#[test]
fn laggard_tls_recall_decays_only_with_the_upgrade_cost() {
    // Fleet that pays: recall collapses as upgrades accumulate.
    let mut paying = Arena::new(block_config(0.01, 11));
    paying.set_strategy(
        TrafficSource::TlsLaggard,
        Box::new(TlsUpgrade::new(0.15, 0.6)),
    );
    paying.run(3);
    let decayed = paying
        .trajectory()
        .recall_trajectory(provenance::FP_TLS_CROSSLAYER, Cohort::TlsLaggard);
    assert!(decayed[0] > 0.99, "round 0 catches the whole fleet");
    assert!(
        *decayed.last().unwrap() < 0.5,
        "upgrades must erode cross-layer recall: {decayed:?}"
    );
    let upgrades: u64 = paying
        .trajectory()
        .rounds
        .iter()
        .map(|r| r.mutation.tls_upgrades)
        .sum();
    assert!(upgrades > 0, "the decay must be paid for");

    // Fleet that mutates everything *except* the stack: recall holds.
    let mut dodging = Arena::new(block_config(0.01, 11));
    dodging.set_strategy(
        TrafficSource::TlsLaggard,
        Box::new(Composite::new(vec![
            Box::new(IpRotation::new(0.15, true)),
            Box::new(FingerprintMutation::new(0.15, 1.0)),
        ])),
    );
    dodging.run(3);
    let held = dodging
        .trajectory()
        .recall_trajectory(provenance::FP_TLS_CROSSLAYER, Cohort::TlsLaggard);
    for (round, rate) in held.iter().enumerate() {
        assert!(
            *rate > 0.99,
            "round {round}: browser-layer mutation must not help a lagging \
             stack, recall {rate} ({held:?})"
        );
    }
}

/// Truthful users present the same honest traffic every round, so no
/// shipped policy may inflate any detector's false-positive rate on them.
/// (Under Block, the rate may *drop* — the §7.4 UA-spoofer students get
/// denied at admission — but it must never rise.)
#[test]
fn truthful_user_fpr_stays_flat_under_every_policy() {
    for policy in ResponsePolicy::all() {
        let mut arena = Arena::new(ArenaConfig {
            scale: Scale::ratio(0.01),
            seed: 23,
            shards: 1,
            policy,
            ..ArenaConfig::default()
        });
        arena.adaptive_defaults();
        arena.run(3);
        let trajectory = arena.trajectory();
        for stats in &trajectory.rounds {
            for detector in &stats.cohorts.detectors {
                let name = detector.detector.as_str();
                let fpr = trajectory.fpr_trajectory(name);
                let first = fpr[0];
                for (round, rate) in fpr.iter().enumerate() {
                    assert!(
                        *rate <= first + 0.01,
                        "policy {}: {name} FPR inflated at round {round}: {fpr:?}",
                        policy.name
                    );
                    assert!(
                        (first - *rate).abs() <= 0.06,
                        "policy {}: {name} FPR drifted at round {round}: {fpr:?}",
                        policy.name
                    );
                }
            }
        }
        // Under the invisible policies nothing changes at all: same
        // population, fresh detector state, no denials.
        if !policy.action.visible_to_client() {
            for detector in &trajectory.rounds[0].cohorts.detectors {
                let fpr = trajectory.fpr_trajectory(detector.detector.as_str());
                assert!(
                    fpr.iter().all(|r| (r - fpr[0]).abs() < 1e-12),
                    "policy {}: FPR must be exactly flat: {fpr:?}",
                    policy.name
                );
            }
        }
    }
}

/// The sharded ingest pipeline stays verdict-invariant inside arena
/// rounds: a whole adaptive campaign replays identically at any shard
/// count.
#[test]
fn shard_invariance_holds_inside_arena_rounds() {
    let run = |shards: usize| {
        let mut config = block_config(0.01, 31);
        config.shards = shards;
        let mut arena = Arena::new(config);
        arena.adaptive_defaults();
        (0..3).map(|_| arena.step()).collect::<Vec<_>>()
    };
    let baseline = run(1);
    let sharded = run(4);
    for (a, b) in baseline.iter().zip(&sharded) {
        assert_eq!(a.store.len(), b.store.len(), "round {}", a.round);
        for (x, y) in a.store.iter().zip(b.store.iter()) {
            assert_eq!(x.verdicts, y.verdicts, "round {} request {}", a.round, x.id);
            assert_eq!(x.ip_hash, y.ip_hash);
            assert_eq!(x.cookie, y.cookie);
            assert_eq!(x.tls, y.tls);
        }
        assert_eq!(a.outcomes, b.outcomes, "round {}", a.round);
    }
}

/// The behavioural arms race, closed loop. Under Block, the seventh
/// detector catches the stock machine-cadence agent fleet from round 0;
/// a `BehaviouralMutation` strategy (mounted via `agent_humanise`)
/// gradually rewrites the fleet's cadence into the human envelope and
/// erodes the frozen detector's AiAgent recall round over round, paying
/// per-request humanisation cost the ledger accounts; and a cadence-1
/// re-fitting `BehaviorMember` re-estimates its cadence floor from the
/// retained trusted window and claws measurable recall back — with the
/// scan spend in `RetrainSpend` and the truthful-user FPR pinned flat
/// the whole time (humans are never inside the machine envelope).
#[test]
fn behaviour_arms_race_erodes_then_claws_back_agent_recall() {
    const ROUNDS: u32 = 4;
    let config = ArenaConfig {
        agent_humanise: Some(0.6),
        ..block_config(0.01, CAMPAIGN_SEED)
    };

    // Frozen thresholds: the humanised cadence walks out of the machine
    // envelope and recall rots.
    let mut frozen = Arena::new(config);
    frozen.run(ROUNDS);
    let frozen_trajectory = frozen.into_trajectory();
    let eroded = frozen_trajectory.recall_trajectory(provenance::FP_BEHAVIOR, Cohort::AiAgent);
    assert!(
        eroded[0] > 0.3,
        "round 0 must catch the stock machine cadence: {eroded:?}"
    );
    assert!(
        *eroded.last().unwrap() < eroded[0] - 0.15,
        "humanisation must erode frozen behavioural recall: {eroded:?}"
    );
    let humanised: u64 = frozen_trajectory
        .rounds
        .iter()
        .map(|r| r.mutation.cadence_humanised)
        .sum();
    assert!(humanised > 0, "the erosion must be paid for per request");

    // Re-fitting defender: the floor re-estimates from the trusted human
    // window (whose cadence variability sits far above any humanised
    // agent's) and recall recovers instead of rotting.
    let mut refit = Arena::new(ArenaConfig {
        behavior_refit: Some(1),
        ..config
    });
    refit.run(ROUNDS);
    let thresholds = refit
        .behavior_thresholds()
        .expect("Arena::new mounts the behaviour slot");
    assert_eq!(
        thresholds.cadence_cv_floor,
        fp_types::behavior::CADENCE_CV_CEILING,
        "the re-fit must hold the cadence floor at the ceiling (the human \
         envelope's p05 clamps there), poisoned forgers notwithstanding"
    );
    let trajectory = refit.into_trajectory();
    let refit_recall = trajectory.recall_trajectory(provenance::FP_BEHAVIOR, Cohort::AiAgent);
    assert!(
        (refit_recall[0] - eroded[0]).abs() < 1e-12,
        "round 0 must not depend on the re-fit cadence"
    );
    assert!(
        *refit_recall.last().unwrap() > eroded.last().unwrap() + 0.1,
        "the re-fitted floor must claw recall back over the frozen \
         detector: frozen {eroded:?} vs re-fit {refit_recall:?}"
    );

    // The clawback is bought with accounted scan spend…
    let spend = trajectory.defense_spend_trajectory();
    assert!(
        spend.iter().all(|s| s.retrained_members == 1),
        "cadence 1 re-fits the behaviour member at every round end: {spend:?}"
    );
    assert!(
        trajectory.total_defense_scans() > 0,
        "the re-fit scan spend must be accounted in the trajectory"
    );

    // …never with collateral damage: truthful users stay outside the
    // machine envelope under both defenders, at every round.
    for fpr in [
        frozen_trajectory.fpr_trajectory(provenance::FP_BEHAVIOR),
        trajectory.fpr_trajectory(provenance::FP_BEHAVIOR),
    ] {
        for (round, rate) in fpr.iter().enumerate() {
            assert!(
                *rate <= fpr[0] + 0.01,
                "behavioural FPR inflated at round {round}: {fpr:?}"
            );
        }
    }
}

/// The satellite claim of the defender lifecycle: under Block with
/// re-mining cadence 1, `fp-spatial` recall *recovers* after the
/// fingerprint-mutation round that eroded it (the refreshed rules key on
/// the mutated configurations), beats the frozen rule set by the last
/// round, and pays for it without inflating the truthful-user FPR beyond
/// the seed bound.
#[test]
fn remining_claws_spatial_recall_back_within_the_fpr_bound() {
    let frozen_cfg = block_config(0.02, CAMPAIGN_SEED);
    let mut frozen = Arena::new(frozen_cfg);
    frozen.adaptive_defaults();
    frozen.run(4);
    let frozen_spatial = frozen
        .trajectory()
        .recall_trajectory(provenance::FP_SPATIAL, Cohort::BotService);

    let mut remined = Arena::new(ArenaConfig {
        remine_cadence: Some(1),
        ..frozen_cfg
    });
    remined.adaptive_defaults();
    remined.run(4);
    let trajectory = remined.trajectory();
    let spatial = trajectory.recall_trajectory(provenance::FP_SPATIAL, Cohort::BotService);

    // Round 0 is identical by construction (re-mining happens at round
    // ends, never before the first round).
    assert!(
        (spatial[0] - frozen_spatial[0]).abs() < 1e-12,
        "round 0 must not depend on the re-mining cadence"
    );
    // The mutation round erodes both defenders the same way (round 1 runs
    // on rules mined from un-mutated traffic either way)…
    assert!(
        spatial[1] < spatial[0],
        "the mutation round must erode recall first: {spatial:?}"
    );
    // …then the rules re-mined on the mutated round deploy and recall
    // recovers instead of continuing to rot.
    let recovered = spatial[2..].iter().cloned().fold(f64::MIN, f64::max);
    assert!(
        recovered > spatial[1] + 0.03,
        "re-mined rules must claw recall back after the erosion round: {spatial:?}"
    );
    assert!(
        spatial.last().unwrap() > frozen_spatial.last().unwrap(),
        "re-mining must beat the frozen rule set by the last round: \
         frozen {frozen_spatial:?} vs re-mined {spatial:?}"
    );

    // The cost side: the recall is bought with retraining spend, not with
    // collateral damage on the truthful population.
    let spend = trajectory.defense_spend_trajectory();
    assert!(
        spend.iter().all(|s| s.retrained_members == 1),
        "cadence 1 retrains the spatial member at every round end"
    );
    assert!(
        trajectory.total_defense_scans() > 0,
        "re-mining spend must be accounted in the trajectory"
    );
    let fpr = trajectory.fpr_trajectory(provenance::FP_SPATIAL);
    for (round, rate) in fpr.iter().enumerate() {
        assert!(
            *rate <= fpr[0] + 0.01,
            "re-mining must not inflate truthful-user FPR at round {round} \
             beyond the seed bound: {fpr:?}"
        );
    }
}

/// Shard invariance survives the defender lifecycle: with re-mining on,
/// a whole adaptive campaign still replays verdict-for-verdict identically
/// at any shard count (the re-mined rule set is a deterministic function
/// of the arrival-ordered store, which is itself shard-invariant).
#[test]
fn shard_invariance_holds_with_remining_on() {
    let run = |shards: usize| {
        let mut config = block_config(0.01, 31);
        config.remine_cadence = Some(1);
        config.shards = shards;
        let mut arena = Arena::new(config);
        arena.adaptive_defaults();
        (0..3).map(|_| arena.step()).collect::<Vec<_>>()
    };
    let baseline = run(1);
    let sharded = run(4);
    for (a, b) in baseline.iter().zip(&sharded) {
        assert_eq!(a.store.len(), b.store.len(), "round {}", a.round);
        for (x, y) in a.store.iter().zip(b.store.iter()) {
            assert_eq!(x.verdicts, y.verdicts, "round {} request {}", a.round, x.id);
            assert_eq!(x.ip_hash, y.ip_hash);
        }
        assert_eq!(a.outcomes, b.outcomes, "round {}", a.round);
        assert_eq!(
            a.stats.defense, b.stats.defense,
            "round {}: retraining spend must not depend on shard count",
            a.round
        );
    }
}

/// The bounded-memory claim, end to end on a long-horizon (12-round)
/// adaptive arena with cadence-1 re-mining: under
/// `SlidingWindow { epochs: 2 }` the defender's peak resident training
/// records hold at ≤ 2 rounds' worth while the unbounded `KeepAll` window
/// grows linearly; the re-mining scan spend drops accordingly; and the
/// post-mutation recall clawback stays within 5 points of the unbounded
/// trajectory — forgetting stale epochs costs almost nothing, because the
/// rules that matter key on what the fleet looks like *now*.
#[test]
fn sliding_window_bounds_memory_and_spend_on_a_long_arena() {
    const ROUNDS: u32 = 12;
    let run = |retention: RetentionPolicy| {
        let mut config = block_config(0.005, CAMPAIGN_SEED);
        config.remine_cadence = Some(1);
        config.retention = retention;
        let mut arena = Arena::new(config);
        arena.adaptive_defaults();
        arena.run(ROUNDS);
        arena.into_trajectory()
    };
    let unbounded = run(RetentionPolicy::KeepAll);
    let windowed = run(RetentionPolicy::SlidingWindow { epochs: 2 });

    // Per-round admitted volume (the windowed arena's own rounds, so the
    // bound is stated against the traffic it actually saw).
    let round_sizes: Vec<u64> = windowed
        .rounds
        .iter()
        .map(|r| r.cohorts.cohort_sizes.iter().sum::<u64>())
        .collect();
    let max_round = *round_sizes.iter().max().unwrap();

    // 1. Peak resident records: bounded at ≤ 2 rounds' worth under the
    //    window; linear growth (≈ the whole campaign) without it.
    let peak_windowed = windowed.peak_resident_records();
    let peak_unbounded = unbounded.peak_resident_records();
    assert!(
        peak_windowed <= 2 * max_round,
        "a 2-epoch window must hold peak residency at ≤ 2 rounds' worth: \
         peak {peak_windowed}, max round {max_round}"
    );
    let total_unbounded: u64 = unbounded
        .rounds
        .iter()
        .map(|r| r.cohorts.cohort_sizes.iter().sum::<u64>())
        .sum();
    assert_eq!(
        peak_unbounded, total_unbounded,
        "KeepAll retains every admitted record of every round"
    );
    assert!(
        peak_unbounded > 4 * peak_windowed,
        "12 rounds of KeepAll must dwarf the 2-epoch window: \
         {peak_unbounded} vs {peak_windowed}"
    );
    // KeepAll residency grows monotonically round over round — the
    // unbounded-growth half of the claim.
    let residency: Vec<u64> = unbounded
        .rounds
        .iter()
        .map(|r| r.defense.records_resident)
        .collect();
    assert!(
        residency.windows(2).all(|w| w[0] < w[1]),
        "unbounded retention grows every round: {residency:?}"
    );

    // 2. Re-mining scan spend drops accordingly (KeepAll scans the whole
    //    history every round: quadratic total; the window scans ≤ 2
    //    rounds' worth per round: linear total).
    let scans_windowed = windowed.total_defense_scans();
    let scans_unbounded = unbounded.total_defense_scans();
    assert!(
        scans_windowed * 2 < scans_unbounded,
        "windowed re-mining must cut scan spend at least in half over 12 \
         rounds: {scans_windowed} vs {scans_unbounded}"
    );

    // 3. Eviction is accounted in the defender-spend columns.
    assert!(
        windowed.total_records_evicted() > 0,
        "the window must actually evict"
    );
    assert_eq!(unbounded.total_records_evicted(), 0, "KeepAll never evicts");

    // 4. The price of forgetting: the post-mutation fp-spatial clawback
    //    stays within 5 points of the unbounded window, round for round.
    let spatial_unbounded = unbounded.recall_trajectory(provenance::FP_SPATIAL, Cohort::BotService);
    let spatial_windowed = windowed.recall_trajectory(provenance::FP_SPATIAL, Cohort::BotService);
    assert!(
        (spatial_windowed[0] - spatial_unbounded[0]).abs() < 1e-12,
        "round 0 cannot depend on retention (nothing sealed yet)"
    );
    for (round, (w, u)) in spatial_windowed
        .iter()
        .zip(&spatial_unbounded)
        .enumerate()
        .skip(2)
    {
        assert!(
            (w - u).abs() <= 0.05,
            "round {round}: windowed recall must stay within 5 points of \
             the unbounded window: windowed {spatial_windowed:?} vs \
             unbounded {spatial_unbounded:?}"
        );
    }
    // And the clawback itself still happens under the window: recall
    // recovers from the round-1 mutation trough.
    let trough = spatial_windowed[1];
    let recovered = spatial_windowed[2..]
        .iter()
        .cloned()
        .fold(f64::MIN, f64::max);
    assert!(
        recovered > trough + 0.03,
        "the windowed defender must still claw recall back: {spatial_windowed:?}"
    );
}

/// The CAPTCHA-then-block hybrid: first offenders are challenged (visible,
/// nothing denied), recidivists are blocked, and the blocks feed the
/// next round's admission denials — closing the ROADMAP's
/// "CAPTCHA + block hybrid policies" item.
#[test]
fn captcha_escalation_challenges_then_blocks_across_rounds() {
    let mut arena = Arena::new(block_config(0.005, CAMPAIGN_SEED));
    arena.set_policy(Box::new(CaptchaEscalation::new(
        Box::new(ResponsePolicy::block(DEFAULT_BLOCK_TTL_SECS)),
        DEFAULT_BLOCK_TTL_SECS,
    )));
    arena.adaptive_defaults();
    let r0 = arena.step();

    let captchas: u64 = r0.outcomes.values().map(|o| o.captchas).sum();
    let blocked: u64 = r0.outcomes.values().map(|o| o.blocked).sum();
    assert!(captchas > 0, "first offenses must be challenged");
    assert!(blocked > 0, "recidivist addresses must graduate to blocks");

    // Every address's first flagged request was a challenge, never a
    // block: an address flagged exactly once in the round sits on the
    // challenge rung — one remembered strike, no binding ban — while a
    // blocked address always shows ≥ 2 offense episodes (its strike
    // plus the block) and its ban binds into the next round.
    let round1_start = fp_types::SimTime(fp_arena::ROUND_SECS);
    let mut flags_per_addr: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    for r in r0.store.iter() {
        if r.verdicts.iter().any(|(_, v)| v.is_bot()) {
            *flags_per_addr.entry(r.ip_hash).or_default() += 1;
        }
    }
    for (&hash, &flags) in &flags_per_addr {
        let offenses = arena.blocklist().offenses(hash);
        let banned = arena.blocklist().contains(hash, round1_start);
        if flags == 1 {
            assert_eq!(
                offenses, 1,
                "an address flagged once was challenged — and remembered"
            );
            assert!(!banned, "a challenge strike must never bind");
        }
        if banned {
            assert!(
                offenses >= 2,
                "a banned address must have climbed past the challenge \
                 rung: {offenses} episode(s) for {hash:#x}"
            );
        }
    }
    let challenged_only: Vec<u64> = flags_per_addr
        .iter()
        .filter(|(_, &f)| f == 1)
        .map(|(&h, _)| h)
        .collect();
    assert!(
        !challenged_only.is_empty(),
        "some addresses must stop at the challenge rung"
    );

    // Cross-round escalation: the round-0 challenge strike survived the
    // round-end purge (asserted above: offenses == 1, not reset to 0 —
    // its memory TTL outlives the boundary), so the policy's own
    // decision for that address's next offense in round 1 is a block,
    // not another challenge. Exercised directly, because the adaptive
    // fleet rotates addresses and need not naturally replay a
    // challenged-only address.
    {
        use fp_types::{DecisionContext, DecisionPolicy, Verdict, VerdictSet};
        let policy = CaptchaEscalation::new(
            Box::new(ResponsePolicy::block(DEFAULT_BLOCK_TTL_SECS)),
            DEFAULT_BLOCK_TTL_SECS,
        );
        let hash = challenged_only[0];
        let mut verdicts = VerdictSet::new();
        verdicts.record(fp_types::sym("d"), Verdict::Bot);
        let remembered = arena.blocklist().offenses(hash);
        assert_eq!(
            remembered, 1,
            "the challenge strike must be remembered across the round boundary"
        );
        let action = DecisionPolicy::decide(
            &policy,
            &DecisionContext {
                verdicts: &verdicts,
                ip_hash: hash,
                now: round1_start,
                prior_offenses: remembered,
            },
        );
        assert_eq!(
            action,
            MitigationAction::Block(DEFAULT_BLOCK_TTL_SECS),
            "a remembered challenge escalates the next offense to a block"
        );
    }

    let r1 = arena.step();
    let denied: u64 = r1.outcomes.values().map(|o| o.denied).sum();
    assert!(
        denied > 0,
        "the hybrid's blocks must bind at round-1 admission"
    );

    // Control: the plain captcha policy (no strike opt-in) never blocks
    // and never writes the blocklist.
    let mut plain = Arena::new(block_config(0.005, CAMPAIGN_SEED));
    plain.set_policy(Box::new(ResponsePolicy::captcha()));
    plain.adaptive_defaults();
    let p0 = plain.step();
    assert_eq!(p0.outcomes.values().map(|o| o.blocked).sum::<u64>(), 0);
    assert!(
        plain.blocklist().is_empty(),
        "plain captcha policies leave the blocklist untouched"
    );
}

/// Expired-entry eviction is real memory relief, not bookkeeping: under a
/// short-TTL Block policy on a long arena, the round-end
/// `purge_expired` sweeps keep the blocklist small and non-accumulating
/// (the list visibly *shrinks* across rounds), while the same arena
/// under a TTL spanning the whole campaign accumulates every episode.
#[test]
fn expired_blocklist_entries_are_evicted_under_a_long_arena() {
    let run = |ttl: u64| {
        let mut arena = Arena::new(ArenaConfig {
            policy: ResponsePolicy::block(ttl),
            ..block_config(0.005, CAMPAIGN_SEED)
        });
        arena.adaptive_defaults();
        (0..5)
            .map(|_| {
                arena.step();
                arena.blocklist().len()
            })
            .collect::<Vec<usize>>()
    };
    // 5 000 simulated seconds ≪ the 7.86M-second round: every episode
    // expires long before its round ends, so each round-end purge sweeps
    // (almost) the whole round's listings.
    let short = run(5_000);
    // A TTL spanning the whole campaign: nothing ever expires.
    let long = run(fp_arena::ROUND_SECS * 10);

    assert!(
        long.windows(2).all(|w| w[0] <= w[1]),
        "un-expiring entries only accumulate: {long:?}"
    );
    let short_peak = *short.iter().max().unwrap();
    let long_final = *long.last().unwrap();
    assert!(
        short_peak * 5 < long_final,
        "sweeping expired entries must keep the list an order smaller: \
         short peak {short_peak} vs long final {long_final} ({short:?})"
    );
    assert!(
        short.windows(2).any(|w| w[1] < w[0]) || short_peak <= 1,
        "the short-TTL list must visibly shrink across rounds: {short:?}"
    );
}
