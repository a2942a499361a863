//! The two agent cohorts of the cross-layer extension.
//!
//! The paper's twenty services span 2023's evasion market; two traffic
//! classes have exploded since, and each stresses a *different* side of
//! the cross-layer consistency web:
//!
//! * **AI browsing agents** drive a real Chromium through an automation
//!   harness. Their handshake is genuine — JA3 matches the Chrome UA
//!   perfectly — so the TLS detector is structurally blind to them; what
//!   gives them away is automation-shaped *behaviour* (silent page loads,
//!   machine-regular replays, the occasional forgotten `webdriver` flag).
//! * **TLS-lagging evasive bots** are the mirror image: stealth toolkits
//!   patched every JS attribute into a flawless device story and even
//!   replay credible pointer input, but the requests still leave a Go or
//!   python-requests ClientHello. Only the cross-layer check can see that
//!   lie.
//!
//! Each cohort gets its own honey-site URL token, so the recorded ground
//! truth ([`fp_types::TrafficSource::AiAgent`] /
//! [`fp_types::TrafficSource::TlsLaggard`]) is as reliable as the paper's
//! per-service tokens, and `evaluate::cohort_report` can split
//! per-detector precision/recall by cohort.

use crate::archetype;
use crate::locale::locale_for_region;
use fp_fingerprint::{BrowserFamily, BrowserProfile, Collector, DeviceKind, DeviceProfile};
use fp_netsim::asn::{asns_in, AsnClass};
use fp_netsim::NetDb;
use fp_tls::TlsClientKind;
use fp_types::{
    sym, AttrId, BehaviorTrace, Request, Scale, SimTime, Splittable, Symbol, TrafficSource,
};

/// Full-scale AI-browsing-agent request volume (the cohorts are sized
/// like a mid-table service, small next to the paper's 507,080).
pub const AI_AGENT_REQUESTS: u64 = 9_000;

/// Full-scale TLS-lagging evasive cohort volume.
pub const TLS_LAGGARD_REQUESTS: u64 = 12_000;

/// Fraction of AI-agent requests that forget to scrub `navigator.webdriver`.
pub const AI_AGENT_WEBDRIVER_LEAK: f64 = 0.08;

/// The URL token shared with the AI-agent harness.
pub fn ai_agent_token(seed: u64) -> Symbol {
    sym(&format!(
        "agents{:06x}",
        fp_types::mix2(seed, 0xA1A6) & 0xFF_FFFF
    ))
}

/// The URL token shared with the TLS-lagging toolkit.
pub fn tls_laggard_token(seed: u64) -> Symbol {
    sym(&format!(
        "laggard{:06x}",
        fp_types::mix2(seed, 0x7157) & 0xFF_FFFF
    ))
}

/// US datacenter/residential ASN pools, resolved once per generation run
/// (not per request — the table scan and Vec allocation are loop
/// invariants).
struct UsPlacement {
    datacenter: Vec<&'static fp_netsim::asn::AsnRecord>,
    residential: Vec<&'static fp_netsim::asn::AsnRecord>,
}

impl UsPlacement {
    fn new() -> UsPlacement {
        UsPlacement {
            datacenter: asns_in("United States of America", AsnClass::CloudDatacenter),
            residential: asns_in("United States of America", AsnClass::Residential),
        }
    }

    /// Sample an address (datacenter with probability `dc_share`, else
    /// residential) and the locale consistent with its region.
    fn sample(
        &self,
        dc_share: f64,
        rng: &mut Splittable,
    ) -> (std::net::Ipv4Addr, fp_fingerprint::LocaleSpec) {
        let pool = if rng.chance(dc_share) {
            &self.datacenter
        } else {
            &self.residential
        };
        let asn = pool[rng.next_below(pool.len() as u64) as usize];
        let ip = NetDb::sample_ip(asn, rng);
        (ip, locale_for_region(NetDb::lookup(ip).region_index))
    }
}

/// Generate the AI-browsing-agent cohort: real-browser TLS under a real
/// Chrome fingerprint, automation-shaped behaviour, mostly cloud-hosted.
pub fn generate_ai_agents(scale: Scale, seed: u64) -> Vec<Request> {
    let mut rng = Splittable::new(seed).child_str("ai-agents");
    let token = ai_agent_token(seed);
    let volume = scale.apply(AI_AGENT_REQUESTS);

    let mut out = Vec::with_capacity(volume as usize);
    let mut remaining = volume;
    let place = UsPlacement::new();
    while remaining > 0 {
        // One task: an agent session fetches a handful of pages in a burst.
        let pages = (2 + rng.next_below(9)).min(remaining);
        let kind = [
            DeviceKind::LinuxDesktop,
            DeviceKind::Mac,
            DeviceKind::WindowsDesktop,
        ][rng.pick_weighted(&[0.6, 0.25, 0.15])];
        let device = DeviceProfile::sample(kind, &mut rng);
        let browser = BrowserProfile::contemporary(BrowserFamily::Chrome, &mut rng);

        // Agents mostly run in someone's cloud; a minority sit on the
        // user's own machine.
        let (ip, locale) = place.sample(0.75, &mut rng);

        let mut fingerprint = Collector::collect(&device, &browser, &locale);
        if rng.chance(AI_AGENT_WEBDRIVER_LEAK) {
            fingerprint.set(AttrId::Webdriver, true);
        }
        // The network layer tells the truth: a real Chromium hello.
        let tls = TlsClientKind::Chromium.facet();

        let cookie = rng.next_u64();
        let day = rng.next_below(u64::from(fp_types::STUDY_DAYS)) as u32;
        let base_second = rng.next_below(86_000);
        // Session-level cadence facet (FP-Agent shape): the harness ticks
        // — tight gap spread, shallow task-shaped navigation. One facet
        // per session, drawn from a child RNG so the parent sequence (and
        // every pre-facet attribute) is untouched.
        let cadence = {
            let mut crng = rng.child_str("cadence");
            let gap_q50 = 2_000 + crng.next_below(8_000) as u32;
            let gap_cv = 0.02 + crng.next_below(800) as f32 / 10_000.0;
            let gap_q90 = gap_q50 + gap_q50 / 8;
            let transitions = 1 + crng.next_below(2) as u16;
            fp_types::BehaviorFacet::observed(
                gap_q50,
                gap_q90,
                gap_cv,
                pages as u16,
                transitions,
                gap_q50.saturating_sub(150),
            )
        };
        for page in 0..pages {
            // Agents read the DOM; most page visits produce no pointer
            // input at all, the rest replay machine-regular motion.
            let behavior = if rng.chance(0.7) {
                BehaviorTrace::silent()
            } else {
                crate::pointer::replay_trace(&mut rng)
            };
            out.push(Request {
                id: 0,
                time: SimTime::from_day(day, base_second + page * (2 + rng.next_below(9))),
                site_token: token,
                ip,
                cookie: Some(cookie),
                fingerprint: fingerprint.clone(),
                tls,
                behavior,
                cadence,
                source: TrafficSource::AiAgent,
            });
        }
        remaining -= pages;
    }
    out
}

/// Generate the TLS-lagging evasive cohort: a *clean* archetype on every
/// browser-layer axis (consistent fingerprint, credible behaviour), with
/// the one lie the toolkit forgot to patch — a non-browser ClientHello.
pub fn generate_tls_laggards(scale: Scale, seed: u64) -> Vec<Request> {
    let mut rng = Splittable::new(seed).child_str("tls-laggards");
    let token = tls_laggard_token(seed);
    let volume = scale.apply(TLS_LAGGARD_REQUESTS);

    let mut out = Vec::with_capacity(volume as usize);
    let place = UsPlacement::new();
    for _ in 0..volume {
        // Residential proxies are part of the package these kits sell.
        let (ip, locale) = place.sample(0.3, &mut rng);

        // A faithful cover device: phone or desktop, collected whole so
        // the validity oracle (and therefore the spatial miner) finds
        // nothing to object to.
        let (fingerprint, behavior) = if rng.chance(0.5) {
            let device = DeviceProfile::sample(DeviceKind::IPhone, &mut rng);
            let browser = BrowserProfile::contemporary(BrowserFamily::MobileSafari, &mut rng);
            let fp = Collector::collect(&device, &browser, &locale);
            let touches = 2 + rng.next_below(8) as u16;
            (fp, crate::pointer::touch_trace(touches, &mut rng))
        } else {
            let kind = *rng.pick(&[DeviceKind::WindowsDesktop, DeviceKind::Mac]);
            let device = DeviceProfile::sample(kind, &mut rng);
            let browser = BrowserProfile::contemporary(BrowserFamily::Chrome, &mut rng);
            let fp = Collector::collect(&device, &browser, &locale);
            (fp, archetype::mimic_good(&mut rng))
        };

        // The lagging layer: the fetch still comes from a raw HTTP stack.
        let tls = if rng.chance(0.6) {
            TlsClientKind::GoHttp.facet()
        } else {
            TlsClientKind::PythonRequests.facet()
        };

        out.push(Request {
            id: 0,
            time: SimTime::from_day(
                rng.next_below(u64::from(fp_types::STUDY_DAYS)) as u32,
                rng.next_below(86_400),
            ),
            site_token: token,
            ip,
            cookie: Some(rng.next_u64()),
            fingerprint,
            tls,
            behavior,
            cadence: fp_types::BehaviorFacet::unobserved(),
            source: TrafficSource::TlsLaggard,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_fingerprint::ValidityOracle;
    use fp_tls::TlsCrossLayer;

    #[test]
    fn volumes_and_labels() {
        let agents = generate_ai_agents(Scale::ratio(0.1), 1);
        assert_eq!(
            agents.len(),
            Scale::ratio(0.1).apply(AI_AGENT_REQUESTS) as usize
        );
        assert!(agents.iter().all(|r| r.source == TrafficSource::AiAgent));
        let laggards = generate_tls_laggards(Scale::ratio(0.1), 1);
        assert_eq!(
            laggards.len(),
            Scale::ratio(0.1).apply(TLS_LAGGARD_REQUESTS) as usize
        );
        assert!(laggards
            .iter()
            .all(|r| r.source == TrafficSource::TlsLaggard));
    }

    #[test]
    fn ai_agents_present_truthful_chromium_tls() {
        for r in generate_ai_agents(Scale::ratio(0.1), 2) {
            assert_eq!(r.tls, TlsClientKind::Chromium.facet());
            assert_eq!(
                r.fingerprint.get(AttrId::UaBrowser).as_str(),
                Some("Chrome")
            );
        }
    }

    #[test]
    fn laggards_are_browser_layer_clean_but_tls_dirty() {
        let laggards = generate_tls_laggards(Scale::ratio(0.1), 3);
        for r in &laggards {
            let bad = ValidityOracle::scan_impossible(&r.fingerprint);
            assert!(bad.is_empty(), "laggard fingerprint impossible: {bad:?}");
            assert!(r.behavior.has_input(), "laggards replay credible input");
            let ja3 = r.tls.ja3_str().unwrap();
            assert!(
                ja3 == TlsClientKind::GoHttp.ja3() || ja3 == TlsClientKind::PythonRequests.ja3(),
                "laggard hello must come from a raw HTTP stack"
            );
        }
    }

    #[test]
    fn crosslayer_predicate_separates_the_cohorts() {
        // The detector's pure predicate over synthetic stored records:
        // laggards always mismatch, agents never do. (End-to-end chain
        // coverage lives in tests/crosslayer.rs.)
        let to_record = |r: &Request| fp_types::StoredRequest {
            id: 0,
            time: r.time,
            site_token: r.site_token,
            ip_hash: 0,
            ip_offset_minutes: 0,
            ip_region: sym("X/Y"),
            ip_lat: 0.0,
            ip_lon: 0.0,
            asn: 0,
            asn_flagged: false,
            ip_blocklisted: false,
            tor_exit: false,
            cookie: 0,
            fingerprint: r.fingerprint.clone(),
            tls: r.tls,
            behavior: r.behavior,
            cadence: r.cadence,
            source: r.source,
            verdicts: fp_types::VerdictSet::new(),
        };
        for r in generate_tls_laggards(Scale::ratio(0.05), 4) {
            assert!(TlsCrossLayer::mismatch(&to_record(&r)));
        }
        for r in generate_ai_agents(Scale::ratio(0.05), 4) {
            assert!(!TlsCrossLayer::mismatch(&to_record(&r)));
        }
    }

    #[test]
    fn tokens_are_distinct_and_deterministic() {
        assert_eq!(ai_agent_token(9), ai_agent_token(9));
        assert_ne!(ai_agent_token(9), tls_laggard_token(9));
        assert_ne!(ai_agent_token(9), ai_agent_token(10));
    }
}
