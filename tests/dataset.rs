//! Dataset snapshot round-trips and failure injection: the open-sourcing
//! path (export → import → identical analysis) must be lossless, and the
//! loaders must reject corrupted inputs rather than mis-analyse them.

use fp_botnet::{Campaign, CampaignConfig};
use fp_honeysite::{HoneySite, RequestStore};
use fp_inconsistent_core::{evaluate, FpInconsistent, MineConfig, RuleSet};
use fp_types::{Scale, ServiceId};

fn recorded() -> RequestStore {
    let campaign = Campaign::generate(CampaignConfig {
        scale: Scale::ratio(0.02),
        seed: 0xDA7A,
    });
    let mut site = HoneySite::new();
    for id in ServiceId::all() {
        site.register_token(campaign.token_of(id));
    }
    site.register_token(campaign.real_user_token());
    site.ingest_all(campaign.bot_requests.iter().cloned());
    site.ingest_all(campaign.real_users.iter().map(|r| r.request.clone()));
    site.into_store()
}

#[test]
fn export_import_preserves_every_analysis() {
    let store = recorded();
    let mut buf = Vec::new();
    store.write_jsonl(&mut buf).unwrap();
    let loaded = RequestStore::read_jsonl(std::io::Cursor::new(&buf)).unwrap();
    assert_eq!(loaded.len(), store.len());

    // Same Table 1.
    let a = fp_honeysite::stats::per_service(&store);
    let b = fp_honeysite::stats::per_service(&loaded);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.requests, y.requests);
        assert_eq!(x.dd_evasion, y.dd_evasion);
        assert_eq!(x.botd_evasion, y.botd_evasion);
    }

    // Same mined rules and same evaluation.
    let engine_a = FpInconsistent::mine(&store, &MineConfig::default());
    let engine_b = FpInconsistent::mine(&loaded, &MineConfig::default());
    assert_eq!(
        engine_a.rules().to_filter_list(),
        engine_b.rules().to_filter_list(),
        "mining must be invariant under snapshot round-trip"
    );
    let (_, report_a) = evaluate::evaluate(&store, &engine_a);
    let (_, report_b) = evaluate::evaluate(&loaded, &engine_b);
    assert_eq!(report_a.combined, report_b.combined);
    assert_eq!(report_a.temporal, report_b.temporal);
}

#[test]
fn corrupted_snapshot_lines_are_rejected() {
    let store = recorded();
    let mut buf = Vec::new();
    store.write_jsonl(&mut buf).unwrap();

    // Truncate the last line mid-object.
    let cut = buf.len() - 40;
    assert!(RequestStore::read_jsonl(std::io::Cursor::new(&buf[..cut])).is_err());

    // Flip a structural byte in the middle.
    let mut broken = buf.clone();
    let mid = broken.len() / 2;
    if let Some(pos) = broken[mid..].iter().position(|&b| b == b'{') {
        broken[mid + pos] = b'[';
        assert!(RequestStore::read_jsonl(std::io::Cursor::new(&broken)).is_err());
    }

    // Unknown attribute names are data corruption, not silently-dropped
    // fields.
    let bogus = br#"{"id":0,"time":0,"site_token":"t","ip_hash":1,"ip_offset_minutes":0,"ip_region":"X/Y","ip_lat":0.0,"ip_lon":0.0,"asn":1,"asn_flagged":false,"ip_blocklisted":false,"tor_exit":false,"cookie":1,"fingerprint":{"not_an_attribute":{"Int":3}},"tls":{"ja3":null,"ja4":null},"behavior":{"mouse_events":0,"touch_events":0,"pointer":null,"first_input_delay_ms":0},"cadence":{"observed":false,"gap_q50_ms":0,"gap_q90_ms":0,"gap_cv":0.0,"pages":0,"unique_transitions":0,"dwell_q50_ms":0},"source":"RealUser","verdicts":{"DataDome":false,"BotD":false}}"#;
    assert!(RequestStore::read_jsonl(std::io::Cursor::new(&bogus[..])).is_err());
    // The same line with a real attribute name parses, proving the
    // rejection above is the unknown attribute, not the record shape.
    let valid = &bogus[..].to_vec();
    let valid = String::from_utf8(valid.clone())
        .unwrap()
        .replace("not_an_attribute", "hardware_concurrency");
    assert!(RequestStore::read_jsonl(std::io::Cursor::new(valid.into_bytes())).is_ok());
}

#[test]
fn blank_lines_in_snapshots_are_tolerated() {
    let store = recorded();
    let mut buf = Vec::new();
    store.write_jsonl(&mut buf).unwrap();
    let mut padded = b"\n\n".to_vec();
    padded.extend_from_slice(&buf);
    padded.extend_from_slice(b"\n\n");
    let loaded = RequestStore::read_jsonl(std::io::Cursor::new(&padded)).unwrap();
    assert_eq!(loaded.len(), store.len());
}

#[test]
fn filter_list_survives_disk_and_reordering() {
    let store = recorded();
    let engine = FpInconsistent::mine(&store, &MineConfig::default());
    let text = engine.rules().to_filter_list();

    // Shuffle the rule lines (a human edited the file): same semantics.
    let mut lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('!')).collect();
    lines.reverse();
    let shuffled = lines.join("\n");
    let reparsed = RuleSet::from_filter_list(&shuffled).unwrap();
    assert_eq!(reparsed.len(), engine.rules().len());

    let deployed = FpInconsistent::from_rules(reparsed);
    let (_, a) = evaluate::evaluate(&store, &engine);
    let (_, b) = evaluate::evaluate(&store, &deployed);
    assert_eq!(a.spatial, b.spatial, "rule order must not matter");
}

#[test]
fn malformed_filter_lists_fail_loud() {
    for bad in [
        "ua_device=iPhone\n",                            // one clause
        "ua_device=iPhone AND AND max_touch_points=0\n", // mangled separator
        "ua_device iPhone AND max_touch_points=0\n",     // missing '='
        "made_up=1 AND ua_device=iPhone\n",              // unknown attribute
    ] {
        assert!(RuleSet::from_filter_list(bad).is_err(), "{bad:?} parsed");
    }
}
