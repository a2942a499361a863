//! Streaming/batch equivalence: the sharded ingest pipeline must be
//! verdict-for-verdict identical to the sequential batch path, at any
//! shard count — the property that makes the streaming architecture a
//! drop-in deployment of the paper's offline analysis.

use fp_bench::stream_report;
use fp_inconsistent::prelude::*;
use fp_types::detect::provenance;
use fp_types::{sym, AttrId, BehaviorTrace, Fingerprint, SimTime, TrafficSource};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Full-pipeline equivalence on the seed campaign at 2% scale: DataDome,
/// BotD, spatial and temporal verdicts from the sharded streaming path all
/// equal the batch path, per request, at shard counts 1, 2 and 8.
#[test]
fn streaming_pipeline_matches_batch_on_seed_campaign() {
    for shards in [1, 2, 8] {
        let report = stream_report(Scale::ratio(0.02), shards);
        assert!(
            report.requests > 5_000,
            "campaign too small: {}",
            report.requests
        );
        assert!(
            report.identical(),
            "streaming diverged from batch at {shards} shards: {report:?}"
        );
    }
}

/// The recorded `VerdictSet` carries all seven provenances when
/// FP-Inconsistent runs inline next to the default chain (the two
/// commercial simulators, the cross-layer TLS check and the session
/// behaviour detector).
#[test]
fn streamed_store_records_named_provenance() {
    let campaign = Campaign::generate(CampaignConfig {
        scale: Scale::ratio(0.01),
        seed: 11,
    });
    let mut batch_site = HoneySite::new();
    for id in ServiceId::all() {
        batch_site.register_token(campaign.token_of(id));
    }
    batch_site.ingest_all(campaign.bot_requests.iter().cloned());
    let store = batch_site.into_store();
    let engine = FpInconsistent::mine(&store, &MineConfig::default());

    let mut site = HoneySite::new();
    for id in ServiceId::all() {
        site.register_token(campaign.token_of(id));
    }
    for d in engine.detectors() {
        site.push_detector(d);
    }
    site.ingest_stream(campaign.bot_requests.clone(), 4);
    let streamed = site.into_store();
    assert_eq!(streamed.len(), store.len());
    let r = streamed.get(0).unwrap();
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
            r.verdicts.verdict(name).is_some(),
            "missing provenance {name}"
        );
    }
}

// ---------------------------------------------------------------------
// Property: shard count never changes verdicts, on adversarial synthetic
// streams (shared cookies, shared IPs, churning fingerprints).

fn build_request(
    i: u64,
    cookie: Option<u64>,
    ip_low: u8,
    cores: i64,
    tz_offset: i64,
    device: &str,
) -> Request {
    Request {
        id: 0,
        time: SimTime::from_day(0, i),
        site_token: sym("prop-tok"),
        ip: Ipv4Addr::new(73, 10, 0, ip_low),
        cookie,
        fingerprint: Fingerprint::new()
            .with(AttrId::UaDevice, device)
            .with(AttrId::HardwareConcurrency, cores)
            .with(AttrId::TimezoneOffset, tz_offset)
            .with(AttrId::Timezone, "America/Los_Angeles"),
        tls: fp_types::TlsFacet::unobserved(),
        behavior: BehaviorTrace::silent(),
        cadence: fp_types::BehaviorFacet::unobserved(),
        source: TrafficSource::RealUser,
    }
}

proptest! {
    #[test]
    fn shard_count_never_changes_verdicts(
        rows in proptest::collection::vec(
            (
                prop_oneof![Just(None), (0u64..4).prop_map(Some)], // cookie: shared or fresh
                0u8..4,                                            // ip: heavily shared
                (2i64..9),                                         // cores: churn per cookie
                prop_oneof![Just(480i64), Just(-60i64), Just(0i64)], // tz churn per ip
                prop_oneof![Just("iPhone"), Just("Mac"), Just("Windows")],
            ),
            1..60,
        )
    ) {
        let requests: Vec<Request> = rows
            .iter()
            .enumerate()
            .map(|(i, (cookie, ip, cores, tz, device))| {
                build_request(i as u64, *cookie, *ip, *cores, *tz, device)
            })
            .collect();

        let run = |shards: usize| {
            let mut site = HoneySite::new();
            site.register_token(sym("prop-tok"));
            let engine = FpInconsistent::from_rules(RuleSet::new());
            for d in engine.detectors() {
                site.push_detector(d);
            }
            site.ingest_stream(requests.clone(), shards);
            site.into_store()
        };

        let baseline = run(1);
        for shards in [2usize, 8] {
            let store = run(shards);
            prop_assert_eq!(store.len(), baseline.len());
            for (a, b) in baseline.iter().zip(store.iter()) {
                prop_assert_eq!(a.cookie, b.cookie);
                prop_assert_eq!(&a.verdicts, &b.verdicts, "request {} at {} shards", a.id, shards);
            }
        }
    }
}
