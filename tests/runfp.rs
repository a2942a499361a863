//! The `RUNFP_V1` attestation properties, end to end:
//!
//! * two arenas played from the same config reproduce the identical
//!   component breakdown and fingerprint (run-to-run determinism);
//! * the fingerprint is invariant to ingest shard count (an execution
//!   parameter, deliberately excluded) and to record insertion order
//!   (the behaviour fold counts, it does not sequence);
//! * any single config or seed perturbation flips the fingerprint, and
//!   the component breakdown names exactly the axis that moved (the iff
//!   property, both directions — untouched components stay identical);
//! * a frozen and a re-mining arena from the same base config diverge in
//!   `config.remine` and `behavior` only;
//! * component hashing and the golden-ledger text form hold their own
//!   iff/roundtrip properties under random inputs.

use fp_arena::{Arena, ArenaConfig, ResponsePolicy, DEFAULT_BLOCK_TTL_SECS};
use fp_bench::CAMPAIGN_SEED;
use fp_inconsistent::core::evaluate::{cohort_report, RoundStats, TrajectoryReport};
use fp_types::runfp::{component_of, ComponentHash, RunComponents};
use fp_types::{RetentionPolicy, Scale};
use proptest::prelude::*;

/// The base configuration every perturbation test varies one axis of.
/// Re-mining is on (cadence 1) so the retention axis is behaviourally
/// live — a frozen defender retains no history, which would leave a
/// retention change with nothing to act on.
fn base_config() -> ArenaConfig {
    ArenaConfig {
        scale: Scale::ratio(0.004),
        seed: CAMPAIGN_SEED,
        shards: 1,
        policy: ResponsePolicy::block(DEFAULT_BLOCK_TTL_SECS),
        remine_cadence: Some(1),
        retention: RetentionPolicy::KeepAll,
        agent_humanise: None,
        behavior_refit: None,
    }
}

/// Play `rounds` adaptive rounds and return the run's component
/// breakdown.
fn play(config: ArenaConfig, rounds: u32) -> RunComponents {
    let mut arena = Arena::new(config);
    arena.adaptive_defaults();
    arena.run(rounds);
    arena.run_components()
}

#[test]
fn identical_configs_reproduce_the_fingerprint() {
    let config = ArenaConfig {
        scale: Scale::ratio(0.005),
        remine_cadence: Some(2),
        ..base_config()
    };
    let a = play(config, 4);
    let b = play(config, 4);
    assert_eq!(
        a.diverging(&b),
        Vec::<String>::new(),
        "same config, same campaign: every component must reproduce\n{}",
        a.diff_report(&b, "first run", "second run")
    );
    assert_eq!(a.fingerprint(), b.fingerprint());
}

#[test]
fn frozen_vs_remining_diverges_in_cadence_and_behavior_only() {
    let config = ArenaConfig {
        scale: Scale::ratio(0.005),
        remine_cadence: None,
        ..base_config()
    };
    let frozen = play(config, 3);
    let remined = play(
        ArenaConfig {
            remine_cadence: Some(1),
            ..config
        },
        3,
    );
    assert_eq!(
        frozen.diverging(&remined),
        ["config.remine", "behavior"],
        "same campaign, different defender lifecycle: the breakdown must \
         blame the cadence and what it bought — nothing else\n{}",
        frozen.diff_report(&remined, "frozen", "re-mined")
    );
    assert_ne!(frozen.fingerprint(), remined.fingerprint());
}

#[test]
fn every_single_config_perturbation_flips_the_fingerprint() {
    let rounds = 2;
    let base = play(base_config(), rounds);

    let perturbations: Vec<(&str, ArenaConfig, Vec<&str>)> = vec![
        (
            "seed",
            ArenaConfig {
                seed: CAMPAIGN_SEED + 1,
                ..base_config()
            },
            vec!["seed", "behavior"],
        ),
        (
            "scale",
            ArenaConfig {
                scale: Scale::ratio(0.005),
                ..base_config()
            },
            vec!["config.scale", "behavior"],
        ),
        (
            "policy",
            ArenaConfig {
                policy: ResponsePolicy::captcha(),
                ..base_config()
            },
            vec!["config.policy", "behavior"],
        ),
        (
            "retention",
            ArenaConfig {
                retention: RetentionPolicy::SlidingWindow { epochs: 1 },
                ..base_config()
            },
            vec!["config.retention", "behavior"],
        ),
        (
            "remine",
            ArenaConfig {
                remine_cadence: Some(2),
                ..base_config()
            },
            vec!["config.remine", "behavior"],
        ),
        (
            "humanise",
            ArenaConfig {
                agent_humanise: Some(0.35),
                ..base_config()
            },
            vec!["config.humanise", "behavior"],
        ),
        (
            "refit",
            ArenaConfig {
                behavior_refit: Some(1),
                ..base_config()
            },
            vec!["config.refit", "behavior"],
        ),
    ];

    for (axis, config, expected) in perturbations {
        let perturbed = play(config, rounds);
        assert_ne!(
            base.fingerprint(),
            perturbed.fingerprint(),
            "perturbing {axis} must flip the run fingerprint"
        );
        assert_eq!(
            base.diverging(&perturbed),
            expected,
            "perturbing {axis}: the breakdown must name exactly the moved \
             axis and the behaviour it changed\n{}",
            base.diff_report(&perturbed, "base", axis)
        );
    }
}

#[test]
fn shard_count_is_invisible_to_the_fingerprint() {
    let config = ArenaConfig {
        scale: Scale::ratio(0.005),
        ..base_config()
    };
    let sequential = play(config, 2);
    for shards in [2, 8] {
        let sharded = play(ArenaConfig { shards, ..config }, 2);
        assert_eq!(
            sequential.diverging(&sharded),
            Vec::<String>::new(),
            "shards are an execution parameter, not an observable: {shards} \
             shards must replay the sequential run exactly\n{}",
            sequential.diff_report(&sharded, "1 shard", "sharded")
        );
    }
}

// ── Property layer: the hashing and ledger contracts under random input ──

/// A synthetic `StoredRequest` varying only in the facets the behaviour
/// fold can see: its cohort and its per-detector verdicts.
fn record(choice: u8, datadome: bool, botd: bool) -> fp_inconsistent::honeysite::StoredRequest {
    use fp_types::{
        sym, AttrId, BehaviorTrace, Fingerprint, ServiceId, SimTime, TrafficSource, VerdictSet,
    };
    let source = match choice % 4 {
        0 => TrafficSource::RealUser,
        1 => TrafficSource::Bot(ServiceId(1 + choice % 20)),
        2 => TrafficSource::AiAgent,
        _ => TrafficSource::TlsLaggard,
    };
    fp_inconsistent::honeysite::StoredRequest {
        id: 0,
        time: SimTime::EPOCH,
        site_token: sym("t"),
        ip_hash: u64::from(choice),
        ip_offset_minutes: 0,
        ip_region: sym("United States of America/California"),
        ip_lat: 0.0,
        ip_lon: 0.0,
        asn: 1,
        asn_flagged: false,
        ip_blocklisted: false,
        tor_exit: false,
        cookie: u64::from(choice),
        tls: fp_types::TlsFacet::unobserved(),
        fingerprint: Fingerprint::new().with(AttrId::UaDevice, "iPhone"),
        source,
        behavior: BehaviorTrace::silent(),
        cadence: fp_types::BehaviorFacet::unobserved(),
        verdicts: VerdictSet::from_services(datadome, botd),
    }
}

/// Lift two random 64-bit words into the 128-bit hash domain (the stubbed
/// proptest has no `u128` strategy).
fn wide(pairs: &[(u64, u64)]) -> Vec<u128> {
    pairs
        .iter()
        .map(|(hi, lo)| (u128::from(*hi) << 64) | u128::from(*lo))
        .collect()
}

/// Build a breakdown with positional component names from raw hashes.
fn build(hashes: &[u128]) -> RunComponents {
    let mut c = RunComponents::new();
    for (i, h) in hashes.iter().enumerate() {
        c.push(&format!("c{i}"), ComponentHash::from_u128(*h));
    }
    c
}

proptest! {
    /// Component hashes are a pure function of (name, lines) — equal iff
    /// the folded line sequences are equal, in both directions.
    #[test]
    fn component_hash_changes_iff_lines_change(
        a in proptest::collection::vec("[a-z0-9=.:]{0,12}", 0..6),
        b in proptest::collection::vec("[a-z0-9=.:]{0,12}", 0..6),
    ) {
        let ha = component_of("x", &a.iter().map(String::as_str).collect::<Vec<_>>());
        let hb = component_of("x", &b.iter().map(String::as_str).collect::<Vec<_>>());
        prop_assert_eq!(a == b, ha == hb);
    }

    /// The run fingerprint moves iff some component moved: perturbing one
    /// component's hash flips it, and rebuilding the identical breakdown
    /// reproduces it.
    #[test]
    fn fingerprint_changes_iff_a_component_changes(
        words in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..6),
        victim in any::<usize>(),
        delta in 1u64..u64::MAX,
    ) {
        let hashes = wide(&words);
        let base = build(&hashes);
        prop_assert_eq!(base.fingerprint(), build(&hashes).fingerprint());

        let mut perturbed = hashes.clone();
        let i = victim % perturbed.len();
        perturbed[i] = perturbed[i].wrapping_add(u128::from(delta));
        prop_assert_eq!(
            build(&perturbed).fingerprint() == base.fingerprint(),
            perturbed == hashes
        );
    }

    /// The golden-ledger text form is lossless: parse(render(c)) == c,
    /// and the declared fingerprint self-verifies.
    #[test]
    fn ledger_roundtrips(words in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..6)) {
        let c = build(&wide(&words));
        let parsed = RunComponents::parse_ledger(&c.to_ledger()).unwrap();
        prop_assert_eq!(parsed.diverging(&c), Vec::<String>::new());
        prop_assert_eq!(parsed.fingerprint(), c.fingerprint());
    }

    /// The behaviour fold counts records, it does not sequence them:
    /// ingesting the same multiset of records in any order produces the
    /// identical round JSON and behaviour component.
    #[test]
    fn behavior_fold_is_invariant_to_record_insertion_order(
        original in proptest::collection::vec((any::<u8>(), any::<bool>(), any::<bool>()), 1..24),
        shuffle_seed in any::<u64>(),
    ) {
        // Fisher–Yates off a splitmix64 stream (the stubbed proptest has
        // no shuffle strategy).
        let mut shuffled = original.clone();
        let mut s = shuffle_seed;
        for i in (1..shuffled.len()).rev() {
            s = fp_types::splitmix64(s);
            let j = (s % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        let stats_of = |specs: &[(u8, bool, bool)]| {
            let mut store = fp_inconsistent::honeysite::RequestStore::new();
            for (choice, dd, botd) in specs {
                store.push(record(*choice, *dd, *botd));
            }
            RoundStats {
                round: 0,
                cohorts: cohort_report(&store),
                denied: Default::default(),
                actions: Default::default(),
                mutation: Default::default(),
                defense: Default::default(),
                obs: Default::default(),
            }
        };
        let a = stats_of(&original);
        let b = stats_of(&shuffled);
        prop_assert_eq!(a.to_json(), b.to_json());
        let fold = |stats: RoundStats| {
            let mut t = TrajectoryReport::new();
            t.push(stats);
            t.behavior_component()
        };
        prop_assert_eq!(fold(a), fold(b));
    }
}
