//! One bot service's traffic.
//!
//! Per request the generator (1) samples an arrival time from the renewal
//! schedule, (2) samples a plan cell and lie variant, (3) picks network
//! cover (ASN class, country, IP) and locale, (4) builds the archetype, and
//! (5) routes it through a device pool: *stable* pools reuse a cookie and a
//! fixed fingerprint (real session reuse), *churn* devices reuse a cookie
//! while re-randomising immutable attributes — the paper's temporal
//! inconsistency, including the Figure 10 platform-churning top cookie.

use crate::archetype::{self, Built, Variant};
use crate::locale::{locale_for_region, mismatch_region, mismatched_locale};
use crate::schedule;
use crate::spec::{Cell, CellPlan, ServiceSpec};
use fp_fingerprint::{
    BrowserFamily, BrowserProfile, Collector, DeviceKind, DeviceProfile, LocaleSpec,
};
use fp_netsim::asn::{asns_in, AsnClass, AsnRecord};
use fp_netsim::{NetDb, REGIONS};
use fp_types::{
    sym, AttrId, AttrValue, BehaviorTrace, CookieId, Request, Scale, Splittable, Symbol,
    TrafficSource,
};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// What the generator *intended* for a request — ground truth for the
/// calibration tests, never consumed by detectors or the miner.
#[derive(Clone, Copy, Debug)]
pub struct DesignInfo {
    pub cell: Cell,
    pub mimicry: bool,
    /// Carries an impossible attribute pair by construction.
    pub spatial_sloppy: bool,
    /// Routed through a cookie-reusing churn device.
    pub temporal_offender: bool,
    /// Timezone deliberately leaks a non-advertised region.
    pub geo_mismatch: bool,
    /// Source IP placed outside the advertised region.
    pub ip_out_of_target: bool,
}

/// A generated request plus its design ground truth.
pub struct GeneratedRequest {
    pub request: Request,
    pub design: DesignInfo,
}

/// Figure 10's platform distribution for the most-requested cookie.
pub const FIG10_PLATFORMS: [(&str, f64); 8] = [
    ("Win32", 0.38),
    ("MacIntel", 0.17),
    ("iPhone", 0.14),
    ("Linux armv7l", 0.10),
    ("Linux armv8l", 0.08),
    ("Linux armv5tejl", 0.06),
    ("iPad", 0.04),
    ("Linux x86_64", 0.03),
];

/// World country mix for services that advertise no geography.
const WORLD_MIX: [(&str, f64); 13] = [
    ("United States of America", 0.45),
    ("Germany", 0.12),
    ("France", 0.08),
    ("United Kingdom", 0.08),
    ("Netherlands", 0.05),
    ("Canada", 0.05),
    ("China", 0.05),
    ("Singapore", 0.03),
    ("Japan", 0.03),
    ("Brazil", 0.02),
    ("Mexico", 0.02),
    ("New Zealand", 0.01),
    ("India", 0.01),
];

/// Split of flagged requests across inconsistency mechanisms (Table 4's
/// spatial ≫ temporal structure).
const FLAG_SPATIAL_ONLY: f64 = 0.95;
const FLAG_TEMPORAL_ONLY: f64 = 0.03;
// Remainder (2 %): both mechanisms, on the platform-churn device.

/// Requests served by one stable pool device before it is retired.
const POOL_DEVICE_LIFETIME: u32 = 24;
/// Probability that an unflagged request reuses a stable pool device.
const POOL_REUSE_RATE: f64 = 0.35;

struct PoolDevice {
    fingerprint: fp_types::Fingerprint,
    behavior: BehaviorTrace,
    /// The device's TLS stack — stable for the device's whole lifetime,
    /// like its fingerprint and address.
    tls: fp_types::TlsFacet,
    ip: Ipv4Addr,
    cookie: CookieId,
    uses: u32,
    /// The session's day: impression-fraud bots burst their page views, so
    /// a device's requests cluster on one calendar day (this is what
    /// separates Figure 9's unique-cookie line from the request line).
    day: u32,
}

/// Generate one service's campaign traffic.
pub fn generate(spec: &ServiceSpec, scale: Scale, seed: u64) -> Vec<GeneratedRequest> {
    let plan = CellPlan::solve(spec);
    let volume = scale.apply(spec.requests);
    let mut rng = Splittable::new(seed).child(u64::from(spec.id.0));
    let token = site_token(seed, spec.id.0);
    let weights = schedule::daily_weights();

    let mut stable_pools: HashMap<(usize, bool), Vec<PoolDevice>> = HashMap::new();
    let churn_cookie = |cell_idx: usize| -> CookieId {
        fp_types::mix3(seed, u64::from(spec.id.0), 0xC0_0C + cell_idx as u64)
    };
    let fig10_cookie: CookieId = fp_types::mix3(seed, u64::from(spec.id.0), 0xF1610);

    let mut out = Vec::with_capacity(volume as usize);
    for _ in 0..volume {
        let mut time = schedule::sample_time(&weights, &mut rng);
        let cell_idx = rng.pick_weighted(&plan.p);
        let cell = Cell::ALL[cell_idx];
        let mimicry = cell.evades_dd() && rng.chance(spec.mimicry_share);

        // §5.1 correlation: services whose traffic slips past BotD buy the
        // cheap, already-listed proxy space disproportionately often; the
        // rest shop for clean addresses.
        let seek_blocked = if cell.evades_botd() {
            rng.chance(0.12).then_some(true)
        } else if cell.evades_dd() {
            rng.chance(0.04).then_some(true)
        } else {
            rng.chance(0.50).then_some(false)
        };

        // Geography and locale.
        let (ip, lookup_region, locale, geo_mismatch, ip_out) = place(spec, seek_blocked, &mut rng);

        // Flag budget: the location rule will already catch geo-mismatched
        // requests, so the constructed-inconsistency rate is adjusted down.
        let g_est = geo_flag_rate(spec);
        let q = plan.q[cell_idx];
        let q_adj = if g_est > 0.0 {
            ((q - g_est) / (1.0 - g_est)).max(0.0)
        } else {
            q
        };
        let flagged = rng.chance(q_adj);

        let (mut spatial, mut temporal) = (false, false);
        if flagged {
            let roll = rng.next_f64();
            if roll < FLAG_SPATIAL_ONLY {
                spatial = true;
            } else if roll < FLAG_SPATIAL_ONLY + FLAG_TEMPORAL_ONLY {
                temporal = true;
            } else {
                spatial = true;
                temporal = true;
            }
        }

        let variant = if spatial {
            Variant::Sloppy
        } else {
            Variant::Clean
        };

        let (built, cookie, request_ip) = if temporal {
            // Churn device: shared cookie, rotating IP, re-randomised
            // immutable attributes each request. The locale follows the
            // rotated IP so the *only* inconsistencies are the designed
            // ones (temporal churn, plus the platform lie on the Figure 10
            // device).
            let ip = sample_service_ip(spec, lookup_region, &mut rng);
            let churn_locale = locale_for_region(NetDb::lookup(ip).region_index);
            let mut built = if spatial {
                // Both mechanisms: sloppy archetype + platform churn on the
                // Figure 10 cookie.
                let mut b =
                    archetype::build(cell, mimicry, Variant::Sloppy, &churn_locale, &mut rng);
                let platform = FIG10_PLATFORMS[rng.pick_weighted(&FIG10_WEIGHTS)].0;
                b.fingerprint.set(AttrId::Platform, platform);
                b
            } else {
                // Temporal-safe churn devices must stay clean on every
                // *other* axis — cross-layer included — so their handshake
                // is the truthful one for the UA they claim.
                let mut b = temporal_safe(cell, &churn_locale, &mut rng);
                b.tls = archetype::truthful_tls(&b.fingerprint);
                b
            };
            churn_immutables(cell, &mut built.fingerprint, &mut rng);
            let cookie = if spatial {
                fig10_cookie
            } else {
                churn_cookie(cell_idx)
            };
            (built, cookie, ip)
        } else if !spatial && !geo_mismatch && rng.chance(POOL_REUSE_RATE) {
            // Stable pool device: same cookie, same fingerprint, same IP.
            let pool = stable_pools.entry((cell_idx, mimicry)).or_default();
            pool.retain(|d| d.uses < POOL_DEVICE_LIFETIME);
            if pool.is_empty() || rng.chance(0.08) {
                // The device's locale must match its *own* IP's region, or
                // a clean pooled request would trip the location rule.
                let ip = sample_service_ip(spec, lookup_region, &mut rng);
                let own_locale = locale_for_region(NetDb::lookup(ip).region_index);
                let built = archetype::build(cell, mimicry, Variant::Clean, &own_locale, &mut rng);
                pool.push(PoolDevice {
                    fingerprint: built.fingerprint,
                    behavior: built.behavior,
                    tls: built.tls,
                    ip,
                    cookie: rng.next_u64(),
                    uses: 0,
                    day: time.day(),
                });
            }
            let idx = rng.next_below(pool.len() as u64) as usize;
            let d = &mut pool[idx];
            d.uses += 1;
            time = fp_types::SimTime::from_day(d.day, rng.next_below(86_400));
            let mut reused = Built::new(d.fingerprint.clone(), d.behavior);
            reused.tls = d.tls;
            (reused, d.cookie, d.ip)
        } else {
            let built = archetype::build(cell, mimicry, variant, &locale, &mut rng);
            (built, rng.next_u64(), ip)
        };

        out.push(GeneratedRequest {
            request: Request {
                id: 0,
                time,
                site_token: token,
                ip: request_ip,
                cookie: Some(cookie),
                fingerprint: built.fingerprint,
                tls: built.tls,
                behavior: built.behavior,
                cadence: fp_types::BehaviorFacet::unobserved(),
                source: TrafficSource::Bot(spec.id),
            },
            design: DesignInfo {
                cell,
                mimicry,
                spatial_sloppy: spatial,
                temporal_offender: temporal,
                geo_mismatch,
                ip_out_of_target: ip_out,
            },
        });
    }
    out
}

const FIG10_WEIGHTS: [f64; 8] = [0.38, 0.17, 0.14, 0.10, 0.08, 0.06, 0.04, 0.03];

/// Estimated probability the location rule flags a request of this service
/// (see `place`): timezone leaks plus out-of-target IPs under a matching
/// timezone.
fn geo_flag_rate(spec: &ServiceSpec) -> f64 {
    if spec.geo_target.is_none() {
        return 0.0;
    }
    (1.0 - spec.tz_match_rate) + (1.0 - spec.ip_match_rate) * spec.tz_match_rate * 0.8
}

/// The site token shared with this service (Figure 1's URL strings).
pub fn site_token(seed: u64, service: u8) -> Symbol {
    let h = fp_types::mix3(seed, u64::from(service), 0x70_4E_17);
    let alphabet: Vec<char> = ('a'..='z').chain('A'..='Z').chain('0'..='9').collect();
    let mut s = String::with_capacity(10);
    let mut x = h;
    for _ in 0..10 {
        s.push(alphabet[(x % alphabet.len() as u64) as usize]);
        x = fp_types::splitmix64(x);
    }
    sym(&s)
}

/// Pick the network cover and locale for one request; the region is the
/// address's index into [`REGIONS`].
fn place(
    spec: &ServiceSpec,
    seek_blocked: Option<bool>,
    rng: &mut Splittable,
) -> (Ipv4Addr, usize, LocaleSpec, bool, bool) {
    match spec.geo_target {
        None => {
            let mix_weights: Vec<f64> = WORLD_MIX.iter().map(|(_, w)| *w).collect();
            let country = WORLD_MIX[rng.pick_weighted(&mix_weights)].0;
            let ip = sample_ip_seeking(country, spec, seek_blocked, rng);
            let region = NetDb::lookup(ip).region_index;
            (ip, region, locale_for_region(region), false, false)
        }
        Some(target) => {
            let ip_in_target = rng.chance(spec.ip_match_rate);
            let tz_in_target = rng.chance(spec.tz_match_rate);
            let country = if ip_in_target {
                *rng.pick(target.countries())
            } else {
                let mix_weights: Vec<f64> = WORLD_MIX
                    .iter()
                    .map(|(c, w)| {
                        if target.countries().contains(c) {
                            0.0
                        } else {
                            *w
                        }
                    })
                    .collect();
                WORLD_MIX[rng.pick_weighted(&mix_weights)].0
            };
            let ip = sample_ip_seeking(country, spec, seek_blocked, rng);
            let region = NetDb::lookup(ip).region_index;
            let offset = REGIONS[region].offset_minutes;
            let (locale, geo_mismatch) = if tz_in_target {
                if ip_in_target {
                    // Fully consistent: timezone of the IP's own region.
                    (locale_for_region(region), false)
                } else {
                    // Timezone claims the target while the IP sits
                    // elsewhere: pick a target region's locale.
                    let target_region = target_region(target, rng);
                    (
                        locale_for_region(target_region),
                        offset != REGIONS[target_region].offset_minutes,
                    )
                }
            } else {
                // Timezone alteration missed: leaks a far-away region whose
                // offset is outside the advertised target.
                let leak = loop {
                    let cand = mismatch_region(rng);
                    if !target.offset_matches(REGIONS[cand].offset_minutes) {
                        break cand;
                    }
                };
                let claimed = target_region(target, rng);
                (
                    mismatched_locale(claimed, leak),
                    REGIONS[leak].offset_minutes != offset,
                )
            };
            (ip, region, locale, geo_mismatch, !ip_in_target)
        }
    }
}

fn target_region(target: fp_netsim::GeoTarget, rng: &mut Splittable) -> usize {
    let country = *rng.pick(target.countries());
    let indices = fp_netsim::geo::regions_of(country);
    *rng.pick(&indices)
}

/// Sample an address, optionally shopping for (or steering clear of)
/// reputation-listed space.
fn sample_ip_seeking(
    country: &str,
    spec: &ServiceSpec,
    seek_blocked: Option<bool>,
    rng: &mut Splittable,
) -> Ipv4Addr {
    let Some(want) = seek_blocked else {
        return sample_ip_in(country, spec, rng);
    };
    let mut last = sample_ip_in(country, spec, rng);
    for _ in 0..12 {
        if fp_netsim::blocklist::IpBlocklist::is_blocked(last) == want {
            return last;
        }
        last = sample_ip_in(country, spec, rng);
    }
    last
}

fn sample_ip_in(country: &str, spec: &ServiceSpec, rng: &mut Splittable) -> Ipv4Addr {
    let class = if rng.chance(spec.datacenter_share) {
        AsnClass::CloudDatacenter
    } else if rng.chance(0.15) {
        AsnClass::MobileCarrier
    } else {
        AsnClass::Residential
    };
    let asn = pick_asn(country, class, rng);
    NetDb::sample_ip(asn, rng)
}

fn pick_asn(country: &str, class: AsnClass, rng: &mut Splittable) -> &'static AsnRecord {
    let candidates = asns_in(country, class);
    if !candidates.is_empty() {
        return candidates[rng.next_below(candidates.len() as u64) as usize];
    }
    // Fall back: residential, then anything in the country.
    let fallback = asns_in(country, AsnClass::Residential);
    if !fallback.is_empty() {
        return fallback[rng.next_below(fallback.len() as u64) as usize];
    }
    let any: Vec<&AsnRecord> = fp_netsim::ASN_TABLE
        .iter()
        .filter(|r| r.country == country)
        .collect();
    assert!(!any.is_empty(), "no ASN for {country}");
    any[rng.next_below(any.len() as u64) as usize]
}

fn sample_service_ip(spec: &ServiceSpec, region: usize, rng: &mut Splittable) -> Ipv4Addr {
    sample_ip_in(REGIONS[region].country, spec, rng)
}

/// A temporal-churn archetype whose device is oracle-unconstrained, so
/// randomised immutables never create *spatial* inconsistencies.
fn temporal_safe(cell: Cell, locale: &LocaleSpec, rng: &mut Splittable) -> Built {
    match cell {
        Cell::EvadeBoth => {
            // Generic-K Android with touch: BotD passes on touch, DataDome
            // excuses the low-core phone.
            let device = DeviceProfile::android_generic_k();
            let browser = BrowserProfile::contemporary(BrowserFamily::ChromeMobile, rng);
            let fp = Collector::collect(&device, &browser, locale);
            Built::new(fp, BehaviorTrace::silent())
        }
        Cell::EvadeDataDomeOnly => {
            let device = DeviceProfile::android_generic_k();
            let browser = BrowserProfile::contemporary(BrowserFamily::ChromeMobile, rng);
            let mut fp = Collector::collect(&device, &browser, locale);
            fp.set(AttrId::TouchSupport, "None");
            fp.set(AttrId::MaxTouchPoints, 0i64);
            Built::new(fp, BehaviorTrace::silent())
        }
        Cell::EvadeBotDOnly | Cell::DetectedBoth => {
            let device = DeviceProfile::sample(
                *rng.pick(&[DeviceKind::WindowsDesktop, DeviceKind::LinuxDesktop]),
                rng,
            );
            let browser = BrowserProfile::contemporary(BrowserFamily::Chrome, rng);
            let mut fp = Collector::collect(&device, &browser, locale);
            if cell == Cell::DetectedBoth {
                fp.set(AttrId::Plugins, AttrValue::list(Vec::<&str>::new()));
                fp.set(AttrId::MimeTypes, AttrValue::list(Vec::<&str>::new()));
            }
            Built::new(fp, BehaviorTrace::silent())
        }
    }
}

/// Re-randomise immutable attributes within cell-safe ranges (the churn the
/// temporal miner detects).
fn churn_immutables(cell: Cell, fp: &mut fp_types::Fingerprint, rng: &mut Splittable) {
    // Resolution space is effectively unbounded → a new value almost every
    // request. iPhone/iPad covers keep their pool resolutions, or the
    // Figure 7 census would drown in churn noise (their cookies still burn
    // through the core/platform churn below).
    let apple_cover = matches!(
        fp.get(AttrId::UaDevice).as_str(),
        Some("iPhone") | Some("iPad")
    );
    if !apple_cover {
        let res = (
            640 + rng.next_below(1960) as u16,
            360 + rng.next_below(1240) as u16,
        );
        fp.set(AttrId::ScreenResolution, res);
        fp.set(AttrId::AvailResolution, res);
    }
    let cores: i64 = if cell.evades_dd() {
        *rng.pick(&[2i64, 4, 6])
    } else {
        *rng.pick(&[8i64, 12, 16, 24])
    };
    fp.set(AttrId::HardwareConcurrency, cores);
    if !fp.get(AttrId::DeviceMemory).is_missing() {
        let mem = *rng.pick(&fp_fingerprint::catalog::DEVICE_MEMORY_LADDER);
        fp.set(AttrId::DeviceMemory, AttrValue::float(mem));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{spec_of, SERVICES};
    use fp_types::ServiceId;

    fn small_run(id: u8) -> Vec<GeneratedRequest> {
        generate(spec_of(ServiceId(id)), Scale::ratio(0.02), 42)
    }

    #[test]
    fn volume_respects_scale() {
        let reqs = small_run(1);
        assert_eq!(reqs.len(), Scale::ratio(0.02).apply(121_500) as usize);
    }

    #[test]
    fn cells_match_plan_marginals() {
        let spec = spec_of(ServiceId(1));
        let reqs = generate(spec, Scale::ratio(0.08), 42);
        let n = reqs.len() as f64;
        let dd = reqs.iter().filter(|r| r.design.cell.evades_dd()).count() as f64 / n;
        let botd = reqs.iter().filter(|r| r.design.cell.evades_botd()).count() as f64 / n;
        assert!((dd - spec.dd_evasion).abs() < 0.03, "dd share {dd}");
        assert!((botd - spec.botd_evasion).abs() < 0.03, "botd share {botd}");
    }

    #[test]
    fn all_requests_carry_token_and_cookie() {
        let token = site_token(42, 3);
        for r in small_run(3) {
            assert_eq!(r.request.site_token, token);
            assert!(r.request.cookie.is_some());
            assert_eq!(r.request.source, TrafficSource::Bot(ServiceId(3)));
            assert!(r.request.time.day() < fp_types::STUDY_DAYS);
        }
    }

    #[test]
    fn tokens_differ_between_services() {
        assert_ne!(site_token(42, 1), site_token(42, 2));
        assert_eq!(site_token(42, 1), site_token(42, 1));
    }

    #[test]
    fn geo_service_places_most_ips_in_target() {
        let spec = SERVICES
            .iter()
            .find(|s| s.geo_target == Some(fp_netsim::GeoTarget::Canada))
            .unwrap();
        let reqs = generate(spec, Scale::ratio(0.2), 7);
        let n = reqs.len() as f64;
        let in_target = reqs
            .iter()
            .filter(|r| NetDb::lookup(r.request.ip).region.country == "Canada")
            .count() as f64;
        assert!(
            (in_target / n - spec.ip_match_rate).abs() < 0.04,
            "in-target {}",
            in_target / n
        );
    }

    #[test]
    fn geo_mismatch_rate_tracks_spec() {
        let spec = SERVICES
            .iter()
            .find(|s| s.geo_target == Some(fp_netsim::GeoTarget::Europe))
            .unwrap();
        let reqs = generate(spec, Scale::ratio(0.5), 9);
        let n = reqs.len() as f64;
        let mismatched = reqs.iter().filter(|r| r.design.geo_mismatch).count() as f64 / n;
        // tz misses (44 %) plus out-of-target IP leakage.
        assert!(
            mismatched > 0.35 && mismatched < 0.55,
            "geo mismatch {mismatched}"
        );
    }

    #[test]
    fn stable_pool_devices_reuse_fingerprints() {
        let reqs = small_run(2);
        let mut by_cookie: HashMap<CookieId, Vec<u64>> = HashMap::new();
        for r in &reqs {
            if !r.design.temporal_offender {
                by_cookie
                    .entry(r.request.cookie.unwrap())
                    .or_default()
                    .push(r.request.fingerprint.digest());
            }
        }
        let mut reused = 0;
        for digests in by_cookie.values() {
            if digests.len() > 1 {
                reused += 1;
                assert!(
                    digests.windows(2).all(|w| w[0] == w[1]),
                    "stable pool cookie changed fingerprints"
                );
            }
        }
        assert!(reused > 5, "expected stable pools, saw {reused}");
    }

    #[test]
    fn churn_devices_rotate_fingerprints() {
        let reqs = generate(spec_of(ServiceId(1)), Scale::ratio(0.1), 11);
        let mut by_cookie: HashMap<CookieId, Vec<u64>> = HashMap::new();
        for r in &reqs {
            if r.design.temporal_offender {
                by_cookie
                    .entry(r.request.cookie.unwrap())
                    .or_default()
                    .push(r.request.fingerprint.digest());
            }
        }
        assert!(!by_cookie.is_empty(), "no churn devices generated");
        for (cookie, digests) in &by_cookie {
            if digests.len() > 3 {
                let distinct: std::collections::HashSet<_> = digests.iter().collect();
                assert!(
                    distinct.len() * 2 > digests.len(),
                    "cookie {cookie:x} churns too little: {} distinct / {}",
                    distinct.len(),
                    digests.len()
                );
            }
        }
    }

    #[test]
    fn fig10_cookie_is_the_top_cookie() {
        let reqs = generate(spec_of(ServiceId(1)), Scale::FULL, 13);
        let mut counts: HashMap<CookieId, u32> = HashMap::new();
        for r in &reqs {
            *counts.entry(r.request.cookie.unwrap()).or_default() += 1;
        }
        let (&top, &top_n) = counts.iter().max_by_key(|(_, n)| **n).unwrap();
        let fig10 = fp_types::mix3(13, 1, 0xF1610);
        assert_eq!(
            top, fig10,
            "top cookie ({top_n} requests) should be the churn device"
        );
        // And its platform spread covers the Figure 10 values.
        let platforms: std::collections::HashSet<&str> = reqs
            .iter()
            .filter(|r| r.request.cookie == Some(fig10))
            .filter_map(|r| r.request.fingerprint.get(AttrId::Platform).as_str())
            .collect();
        assert!(platforms.len() >= 6, "platform spread {platforms:?}");
    }
}
