//! End-to-end coverage of the compiled rule pack on the real pipeline:
//!
//! * the compiled ingest hot path is flag-for-flag the interpreted rule
//!   set on the seed campaign's recorded store;
//! * the deployed pack hash is invariant to the ingest shard count;
//! * a frozen arena's `fp-spatial` verdicts, across rounds, are exactly
//!   what the deployed pack's own rule set implies (the compiled matcher
//!   never drifts from its source rules inside the closed loop);
//! * a re-mining arena's per-round pack hash changes exactly on the
//!   rounds whose re-mine changed the rule set, the trajectory is
//!   deterministic and shard-invariant, and an in-flight pack snapshot
//!   stays fully usable after the end-of-round hot swap (no barrier).

use fp_arena::{Arena, ArenaConfig, ResponsePolicy, DEFAULT_BLOCK_TTL_SECS};
use fp_bench::{campaign_stream, honey_site_for, recorded_campaign, CAMPAIGN_SEED};
use fp_botnet::{Campaign, CampaignConfig};
use fp_inconsistent_core::{FpInconsistent, MineConfig, RulePack};
use fp_types::detect::provenance;
use fp_types::Scale;

fn arena_config(remine: Option<u32>, shards: usize) -> ArenaConfig {
    ArenaConfig {
        scale: Scale::ratio(0.01),
        seed: CAMPAIGN_SEED,
        shards,
        policy: ResponsePolicy::block(DEFAULT_BLOCK_TTL_SECS),
        remine_cadence: remine,
        ..ArenaConfig::default()
    }
}

/// The tentpole claim at campaign scale: over every record the seed
/// campaign produced, the compiled pack and the interpreted rule set
/// flag identically — and the deployed hash is the rule set's content
/// hash, so the artifact is versioned by exactly what it does.
#[test]
fn compiled_path_is_flag_for_flag_on_the_seed_campaign() {
    let (_, store) = recorded_campaign(Scale::ratio(0.02));
    let engine = FpInconsistent::mine(&store, &MineConfig::default());
    assert!(!engine.rules().is_empty(), "the seed campaign mines rules");
    assert_eq!(engine.pack().hash(), engine.rules().content_hash());

    let mut flagged = 0usize;
    for record in store.iter() {
        let compiled = engine.spatial_flag(record);
        assert_eq!(
            compiled,
            engine.spatial_flag_interpreted(record),
            "request {} diverged between compiled and interpreted paths",
            record.id
        );
        flagged += compiled as usize;
    }
    assert!(
        flagged > 0,
        "the equivalence must be exercised by real hits"
    );
    assert!(flagged < store.len(), "...and by real misses");
}

/// Mining from stores ingested at different shard counts deploys packs
/// with the identical content hash: the artifact version is a function of
/// the mined behaviour, never of pipeline topology.
#[test]
fn pack_hash_is_invariant_to_the_ingest_shard_count() {
    let campaign = Campaign::generate(CampaignConfig {
        scale: Scale::ratio(0.02),
        seed: CAMPAIGN_SEED,
    });
    let mut hashes = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut site = honey_site_for(&campaign);
        site.ingest_stream(campaign_stream(&campaign), shards);
        let store = site.into_store();
        let engine = FpInconsistent::mine(&store, &MineConfig::default());
        hashes.push((shards, engine.pack().hash(), engine.rules().len()));
    }
    assert!(hashes[0].2 > 0, "the campaign mines rules");
    for (shards, hash, rules) in &hashes[1..] {
        assert_eq!(
            (*hash, *rules),
            (hashes[0].1, hashes[0].2),
            "{shards}-shard ingest deployed a different pack than sequential"
        );
    }
}

/// A frozen defender's `fp-spatial` verdicts across arena rounds are
/// recomputable from the deployed pack's own rule set: rebuild a
/// reference engine from `arena.spatial_pack().to_rule_set()` and replay
/// every admitted record through the *interpreted* path.
#[test]
fn frozen_arena_verdicts_match_the_deployed_packs_rules() {
    let mut arena = Arena::new(arena_config(None, 1));
    arena.adaptive_defaults();

    let pack = arena.spatial_pack();
    assert_eq!(pack.to_rule_set().content_hash(), pack.hash());
    let reference = FpInconsistent::from_rules(pack.to_rule_set());

    let mut checked = 0usize;
    for _ in 0..3 {
        let round = arena.step();
        for record in round.store.iter() {
            assert_eq!(
                record.verdicts.bot(provenance::FP_SPATIAL),
                reference.spatial_flag_interpreted(record),
                "round {} request {}: the inline compiled verdict is not \
                 the deployed rules' verdict",
                round.round,
                record.id
            );
            checked += 1;
        }
    }
    assert!(checked > 0);

    // Frozen defender ⇒ one hash forever, and it is still the deployed one.
    let trajectory = arena.trajectory();
    for hash in trajectory.pack_hash_trajectory() {
        assert_eq!(hash, Some(pack.hash()));
    }
    assert_eq!(trajectory.total_rule_churn(), 0);
    assert_eq!(arena.spatial_pack().hash(), pack.hash());
}

/// The golden-hash ledger as a test: across a re-mining arena the
/// per-round pack hash changes exactly on the rounds whose re-mine
/// changed the rule set, and the last ledgered hash is the pack actually
/// deployed for the next round.
#[test]
fn remining_arena_hash_changes_exactly_when_the_rule_set_does() {
    let mut arena = Arena::new(arena_config(Some(2), 1));
    arena.adaptive_defaults();
    arena.run(4);
    let trajectory = arena.trajectory();

    let spends: Vec<_> = trajectory.rounds.iter().map(|r| r.defense).collect();
    assert!(spends.iter().all(|s| s.pack_hash.is_some()));
    let mut changes = 0usize;
    for (i, pair) in spends.windows(2).enumerate() {
        let (prev, cur) = (&pair[0], &pair[1]);
        let changed = cur.pack_hash != prev.pack_hash;
        let churned = cur.rules_added + cur.rules_removed > 0;
        assert_eq!(
            changed,
            churned,
            "round {}: hash change ({changed}) must coincide with rule churn ({churned})",
            i + 1
        );
        changes += changed as usize;
    }
    assert!(
        changes > 0,
        "a 4-round adaptive arena must re-mine new rules"
    );
    assert_eq!(
        spends.last().unwrap().pack_hash,
        Some(arena.spatial_pack().hash()),
        "the ledger's last hash is the deployed artifact"
    );
}

/// Identical configurations replay to the identical hash trajectory, and
/// the trajectory is invariant to the ingest shard count — the two axes
/// the content hash is specified to be independent of.
#[test]
fn pack_hash_trajectory_is_deterministic_and_shard_invariant() {
    let run = |shards: usize| {
        let mut arena = Arena::new(arena_config(Some(1), shards));
        arena.adaptive_defaults();
        arena.run(3);
        arena.trajectory().pack_hash_trajectory()
    };
    let sequential = run(1);
    assert!(sequential.iter().all(Option::is_some));
    assert_eq!(
        run(1),
        sequential,
        "same config must replay the same hashes"
    );
    assert_eq!(
        run(4),
        sequential,
        "shard count must not leak into the hash"
    );
}

/// An ingest-side pack snapshot taken before an end-of-round re-mine
/// stays fully usable after the hot swap: old readers finish on the old
/// artifact, new forks see the new one, and nobody waits on a barrier.
#[test]
fn pack_snapshot_survives_the_end_of_round_hot_swap() {
    let mut arena = Arena::new(arena_config(Some(1), 1));
    arena.adaptive_defaults();
    let round0 = arena.step();

    let snapshot: std::sync::Arc<RulePack> = arena.spatial_pack();
    let before: Vec<bool> = round0.store.iter().map(|r| snapshot.matches(r)).collect();

    let round1 = arena.step(); // end-of-round re-mine swaps the slot
    if round1.stats.defense.rules_added + round1.stats.defense.rules_removed > 0 {
        assert_ne!(arena.spatial_pack().hash(), snapshot.hash());
    }
    // The retained snapshot still evaluates, bit-for-bit as before.
    let after: Vec<bool> = round0.store.iter().map(|r| snapshot.matches(r)).collect();
    assert_eq!(before, after);
    assert_eq!(snapshot.to_rule_set().content_hash(), snapshot.hash());
}
