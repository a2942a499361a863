//! Real-user traffic: the §7.4 ground-truth negative set.
//!
//! The paper shared one honey-site URL with university students and
//! recorded 2,206 requests. Real users browse from consistent devices with
//! genuine input behaviour; the paper attributes its few false positives to
//! "students experimenting with User-Agent spoofers" — modelled here as a
//! small slice whose UA string (and only the UA string) is replaced.

use crate::locale::locale_for_region;
use fp_fingerprint::{BrowserFamily, BrowserProfile, Collector, DeviceKind, DeviceProfile};
use fp_netsim::asn::{asns_in, AsnClass};
use fp_netsim::NetDb;
use fp_types::{sym, AttrId, CookieId, Request, Scale, SimTime, Splittable, Symbol, TrafficSource};

/// Requests recorded at the real-user URL (paper: 2,206).
pub const REAL_USER_REQUESTS: u64 = 2_206;

/// Fraction of requests sent through a User-Agent spoofer (sized so the
/// rule set's true-negative rate lands at the paper's 96.84 %).
pub const UA_SPOOFER_RATE: f64 = 0.0316;

/// The URL token shared with students.
pub fn real_user_token(seed: u64) -> Symbol {
    sym(&format!(
        "students{:06x}",
        fp_types::mix2(seed, 0x5EA1) & 0xFF_FFFF
    ))
}

/// One student: a stable device, browser, locale, IP and cookie.
struct Student {
    fingerprint: fp_types::Fingerprint,
    /// The browser's genuine TLS facet. Stays truthful even for spoofer
    /// students — a UA spoofer rewrites a header, not the network stack,
    /// which is exactly what makes the lie cross-layer visible.
    tls: fp_types::TlsFacet,
    kind: DeviceKind,
    ip: std::net::Ipv4Addr,
    cookie: CookieId,
    spoofer: bool,
}

fn sample_student(spoofer: bool, rng: &mut Splittable) -> Student {
    let kind = [
        DeviceKind::WindowsDesktop,
        DeviceKind::Mac,
        DeviceKind::LinuxDesktop,
        DeviceKind::IPhone,
        DeviceKind::AndroidPhone,
        DeviceKind::IPad,
    ][rng.pick_weighted(&[0.30, 0.25, 0.05, 0.22, 0.13, 0.05])];
    let device = DeviceProfile::sample(kind, rng);
    let defaults = BrowserFamily::defaults_for(kind);
    let weights: Vec<f64> = defaults.iter().map(|(_, w)| *w).collect();
    let family = defaults[rng.pick_weighted(&weights)].0;
    let browser = BrowserProfile::contemporary(family, rng);

    // University population: Californian ISPs/carriers.
    let class = if kind.is_mobile() && rng.chance(0.6) {
        AsnClass::MobileCarrier
    } else {
        AsnClass::Residential
    };
    let candidates = asns_in("United States of America", class);
    let asn = candidates[rng.next_below(candidates.len() as u64) as usize];
    let ip = NetDb::sample_ip(asn, rng);
    let locale = locale_for_region(NetDb::lookup(ip).region_index);

    let mut fingerprint = Collector::collect(&device, &browser, &locale);
    let tls = family.tls_facet();

    if spoofer {
        // A UA spoofer rewrites the User-Agent header/property only; every
        // other attribute still tells the truth — a spatial inconsistency.
        let lie = match kind {
            DeviceKind::IPhone | DeviceKind::IPad | DeviceKind::AndroidPhone => {
                "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/116.0.0.0 Safari/537.36"
            }
            _ => {
                "Mozilla/5.0 (iPhone; CPU iPhone OS 16_6 like Mac OS X) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/16.6 Mobile/15E148 Safari/604.1"
            }
        };
        let parsed = fp_fingerprint::parse_user_agent(lie);
        fingerprint.set(AttrId::UserAgent, lie);
        fingerprint.set(AttrId::UaDevice, parsed.device.as_str());
        fingerprint.set(AttrId::UaBrowser, parsed.browser.as_str());
        fingerprint.set(AttrId::UaOs, parsed.os.as_str());
    }

    Student {
        fingerprint,
        tls,
        kind,
        ip,
        cookie: rng.next_u64(),
        spoofer,
    }
}

/// Generated real-user request plus whether it came from a spoofer user
/// (ground truth for the §7.4 TNR test).
pub struct RealUserRequest {
    pub request: Request,
    pub spoofer: bool,
}

/// Generate the real-user request set.
pub fn generate(scale: Scale, seed: u64) -> Vec<RealUserRequest> {
    let mut rng = Splittable::new(seed).child_str("real-users");
    let token = real_user_token(seed);
    let volume = scale.apply(REAL_USER_REQUESTS);

    // Students browse a handful of times each. Spoofer status follows a
    // request-level quota so the recorded spoofer share tracks
    // [`UA_SPOOFER_RATE`] tightly at any scale (the §7.4 TNR depends on
    // it).
    let mut out = Vec::with_capacity(volume as usize);
    let mut remaining = volume;
    let mut spoofer_requests = 0u64;
    while remaining > 0 {
        let visits = (1 + rng.next_below(6)).min(remaining);
        let emitted = volume - remaining;
        let spoofer = (spoofer_requests as f64) < (emitted + visits) as f64 * UA_SPOOFER_RATE - 0.5;
        if spoofer {
            spoofer_requests += visits;
        }
        let student = sample_student(spoofer, &mut rng);
        // Session-level cadence facet, shared by every visit of this
        // student ("Beyond the Crawl" shape: bursty gaps with long reading
        // tails). Drawn from a child RNG so the parent draw sequence — and
        // with it every other generated attribute — stays byte-identical
        // to the pre-facet generator.
        let cadence = {
            let mut crng = rng.child_str("cadence");
            let gap_q50 = 7_000 + crng.next_below(28_000) as u32;
            let gap_cv = 0.38 + crng.next_below(5_500) as f32 / 10_000.0;
            let gap_q90 = gap_q50 * 3 + crng.next_below(20_000) as u32;
            let transitions = 2 + crng.next_below(visits.max(2)) as u16;
            let dwell = 5_000 + crng.next_below(20_000) as u32;
            fp_types::BehaviorFacet::observed(
                gap_q50,
                gap_q90,
                gap_cv,
                visits as u16,
                transitions,
                dwell,
            )
        };
        for _ in 0..visits {
            let time = SimTime::from_day(70 + rng.next_below(14) as u32, rng.next_below(86_400));
            let behavior = if student.kind.is_mobile() {
                crate::pointer::touch_trace(2 + rng.next_below(9) as u16, &mut rng)
            } else {
                crate::pointer::human_trace(&mut rng)
            };
            out.push(RealUserRequest {
                request: Request {
                    id: 0,
                    time,
                    site_token: token,
                    ip: student.ip,
                    cookie: Some(student.cookie),
                    fingerprint: student.fingerprint.clone(),
                    tls: student.tls,
                    behavior,
                    cadence,
                    source: TrafficSource::RealUser,
                },
                spoofer: student.spoofer,
            });
        }
        remaining -= visits;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_fingerprint::ValidityOracle;

    #[test]
    fn volume_and_labels() {
        let reqs = generate(Scale::FULL, 1);
        assert_eq!(reqs.len(), REAL_USER_REQUESTS as usize);
        assert!(reqs
            .iter()
            .all(|r| r.request.source == TrafficSource::RealUser));
    }

    #[test]
    fn spoofer_rate_near_target() {
        let reqs = generate(Scale::FULL, 2);
        let rate = reqs.iter().filter(|r| r.spoofer).count() as f64 / reqs.len() as f64;
        assert!((rate - UA_SPOOFER_RATE).abs() < 0.02, "spoofer rate {rate}");
    }

    #[test]
    fn non_spoofers_are_fully_consistent() {
        let reqs = generate(Scale::FULL, 3);
        for r in reqs.iter().filter(|r| !r.spoofer) {
            let bad = ValidityOracle::scan_impossible(&r.request.fingerprint);
            assert!(bad.is_empty(), "real user inconsistent: {bad:?}");
        }
    }

    #[test]
    fn spoofers_are_inconsistent() {
        let reqs = generate(Scale::FULL, 4);
        let mut checked = 0;
        for r in reqs.iter().filter(|r| r.spoofer) {
            let bad = ValidityOracle::scan_impossible(&r.request.fingerprint);
            assert!(!bad.is_empty(), "spoofer fingerprint scans clean");
            checked += 1;
        }
        assert!(checked > 0, "no spoofers generated");
    }

    #[test]
    fn everyone_has_input_behavior() {
        for r in generate(Scale::FULL, 5) {
            assert!(r.request.behavior.has_input(), "real users always interact");
        }
    }

    #[test]
    fn locale_is_consistent_with_ip() {
        for r in generate(Scale::ratio(0.2), 6) {
            let region = NetDb::lookup(r.request.ip).region;
            let tz_offset = r
                .request
                .fingerprint
                .get(AttrId::TimezoneOffset)
                .as_int()
                .unwrap();
            assert_eq!(tz_offset, i64::from(region.offset_minutes));
        }
    }
}
