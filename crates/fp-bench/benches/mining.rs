//! Miner and rule-engine performance: how long Algorithm 1 takes as the
//! dataset grows, and how fast the resulting filter list matches requests
//! (the client-side deployability question of §8.3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fp_botnet::{Campaign, CampaignConfig};
use fp_honeysite::{HoneySite, RequestStore};
use fp_inconsistent_core::temporal::{CookieAnchor, IpAnchor};
use fp_inconsistent_core::{FpInconsistent, MineConfig};
use fp_types::{Detector, Scale, ServiceId};

fn store_at(scale: f64) -> RequestStore {
    let campaign = Campaign::generate(CampaignConfig {
        scale: Scale::ratio(scale),
        seed: 21,
    });
    let mut site = HoneySite::new();
    for id in ServiceId::all() {
        site.register_token(campaign.token_of(id));
    }
    site.ingest_all(campaign.bot_requests.iter().cloned());
    site.into_store()
}

fn bench_mining(c: &mut Criterion) {
    let mut group = c.benchmark_group("spatial_miner");
    group.sample_size(10);
    for scale in [0.005, 0.01, 0.02] {
        let store = store_at(scale);
        group.throughput(Throughput::Elements(store.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(store.len()),
            &store,
            |b, store| {
                b.iter(|| {
                    FpInconsistent::mine(store, &MineConfig::default())
                        .rules()
                        .len()
                })
            },
        );
    }
    group.finish();
}

fn bench_matching(c: &mut Criterion) {
    let store = store_at(0.02);
    let engine = FpInconsistent::mine(&store, &MineConfig::default());
    let mut group = c.benchmark_group("rule_engine");
    group.throughput(Throughput::Elements(store.len() as u64));
    group.bench_function("spatial_match", |b| {
        b.iter(|| store.iter().filter(|r| engine.spatial_flag(r)).count())
    });
    group.bench_function("temporal_stream", |b| {
        b.iter(|| {
            let (mut cookie, mut ip) = (CookieAnchor::default(), IpAnchor::default());
            store
                .iter()
                .filter(|r| cookie.observe(r).is_bot() | ip.observe(r).is_bot())
                .count()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_mining, bench_matching);
criterion_main!(benches);
