//! Incremental re-mining is Algorithm 1 over the retained window, at
//! every retention policy: the re-mining member counts each sealed
//! segment once, keeps its pair-count summary while the segment stays in
//! the window, recounts a segment a decay edit changed, and ranks the
//! merge. After every round of an adaptive arena re-mining at cadence 1,
//! the deployed rules must equal a one-pass `mine_records` over the
//! training store's resident records — same content hash, same filter
//! list — at 1 and 2 shards.

use fp_arena::{Arena, ArenaConfig, ResponsePolicy, DEFAULT_BLOCK_TTL_SECS};
use fp_inconsistent_core::spatial::mine_records;
use fp_inconsistent_core::MineConfig;
use fp_types::{RetentionPolicy, Scale};

const ROUNDS: u32 = 6;

fn assert_remine_matches_one_pass(retention: RetentionPolicy, shards: usize) {
    let mut arena = Arena::new(ArenaConfig {
        scale: Scale::ratio(0.01),
        seed: 57,
        shards,
        policy: ResponsePolicy::block(DEFAULT_BLOCK_TTL_SECS),
        remine_cadence: Some(1),
        retention,
        ..ArenaConfig::default()
    });
    arena.adaptive_defaults();
    for _ in 0..ROUNDS {
        let round = arena.step();
        assert_eq!(round.stats.defense.retrained_members, 1, "cadence 1");
        let window = arena.stack().training_store().records();
        let one_pass = mine_records(window.iter(), &MineConfig::default());
        let deployed = arena.spatial_pack();
        let context = format!("{retention:?} at {shards} shard(s), round {}", round.round);
        assert_eq!(deployed.hash(), one_pass.content_hash(), "{context}");
        assert_eq!(
            deployed.to_rule_set().to_filter_list(),
            one_pass.to_filter_list(),
            "{context}"
        );
        assert_eq!(
            round.stats.defense.records_scanned,
            window.len() as u64,
            "{context}: the spend reports the window covered"
        );
    }
}

#[test]
fn incremental_remine_equals_one_pass_under_keep_all() {
    for shards in [1, 2] {
        assert_remine_matches_one_pass(RetentionPolicy::KeepAll, shards);
    }
}

#[test]
fn incremental_remine_equals_one_pass_under_sliding_windows() {
    for epochs in [1, 2] {
        for shards in [1, 2] {
            assert_remine_matches_one_pass(RetentionPolicy::SlidingWindow { epochs }, shards);
        }
    }
}

#[test]
fn incremental_remine_equals_one_pass_under_sampled_decay() {
    for floor in [20, 0] {
        for shards in [1, 2] {
            assert_remine_matches_one_pass(
                RetentionPolicy::SampledDecay {
                    keep_rate: 0.5,
                    floor,
                },
                shards,
            );
        }
    }
}
