//! The §7.5 privacy-technology experiment.
//!
//! 300 requests per tool from four devices (M1 MacBook Pro, Intel Linux
//! desktop, iPad Pro, Pixel 7), replaying each tool's documented behaviour:
//!
//! * **Brave** farbles audio/canvas/plugins/deviceMemory/
//!   hardwareConcurrency/screenResolution *to plausible values* and keeps
//!   cookies. Desktop Brave re-farbles per request here (per-session in
//!   reality; the honey-site visits are separate sessions), Android Brave
//!   keeps one farble seed per session, iOS "Brave" is a WebKit shell that
//!   farbles nothing — which is how Appendix G's "~10 requests per device,
//!   then DataDome flags everything" yields a 41 % false-positive rate on
//!   300 requests (2 farbling desktops × (75−10)/300 ≈ 0.43).
//! * **Tor Browser** presents the uniform cross-user fingerprint (Windows
//!   UA, UTC timezone, letterboxed screen) and exits from public relays.
//! * **Safari / uBlock Origin / AdBlock Plus** block trackers but alter no
//!   attributes.

use crate::locale::locale_for_region;
use fp_fingerprint::{
    BrowserFamily, BrowserProfile, Collector, DeviceKind, DeviceProfile, LocaleSpec,
};
use fp_netsim::asn::{asns_of_class, AsnClass};
use fp_netsim::NetDb;
use fp_types::{
    sym, AttrId, AttrValue, BehaviorTrace, PrivacyTech, Request, SimTime, Splittable, Symbol,
    TrafficSource,
};

/// Requests per technology (paper: 300 across the four devices).
pub const REQUESTS_PER_TECH: u64 = 300;

/// The four experiment devices.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExperimentDevice {
    MacBookM1,
    LinuxDesktop,
    IPadPro,
    Pixel7,
}

impl ExperimentDevice {
    pub const ALL: [ExperimentDevice; 4] = [
        ExperimentDevice::MacBookM1,
        ExperimentDevice::LinuxDesktop,
        ExperimentDevice::IPadPro,
        ExperimentDevice::Pixel7,
    ];

    fn kind(self) -> DeviceKind {
        match self {
            ExperimentDevice::MacBookM1 => DeviceKind::Mac,
            ExperimentDevice::LinuxDesktop => DeviceKind::LinuxDesktop,
            ExperimentDevice::IPadPro => DeviceKind::IPad,
            ExperimentDevice::Pixel7 => DeviceKind::AndroidPhone,
        }
    }
}

/// URL token for one technology's honey-site version.
pub fn privacy_token(seed: u64, tech: PrivacyTech) -> Symbol {
    sym(&format!(
        "{}{:06x}",
        tech.name().replace(' ', "-").to_lowercase(),
        fp_types::mix2(seed, tech as u64) & 0xFF_FFFF
    ))
}

/// Generate the 300-request experiment for one technology.
pub fn generate(tech: PrivacyTech, seed: u64) -> Vec<Request> {
    let mut rng = Splittable::new(seed)
        .child_str("privacy")
        .child(tech as u64);
    let token = privacy_token(seed, tech);
    let per_device = REQUESTS_PER_TECH / ExperimentDevice::ALL.len() as u64;

    let mut out = Vec::new();
    for device in ExperimentDevice::ALL {
        let base_profile = device_profile(device, &mut rng);
        let (ip, locale) = placement(tech, &mut rng);
        let cookie = rng.next_u64();
        // One session-stable farble seed (Android Brave model).
        let session_farble = rng.next_u64();
        for i in 0..per_device {
            let fp = fingerprint_for(
                tech,
                device,
                &base_profile,
                &locale,
                session_farble,
                i,
                &mut rng,
            );
            let behavior = human_behavior(device, &mut rng);
            out.push(Request {
                id: 0,
                time: SimTime::from_day(80 + (i % 7) as u32, rng.next_below(86_400)),
                site_token: token,
                ip,
                cookie: Some(cookie),
                fingerprint: fp,
                tls: tls_for(tech, device),
                behavior,
                cadence: fp_types::BehaviorFacet::unobserved(),
                source: TrafficSource::Privacy(tech),
            });
        }
    }
    out
}

/// The genuine TLS facet for one technology on one device. Every tool
/// here is a real browser: Brave and the blocker setups greet with their
/// engine's stack, Tor Browser with Firefox's — privacy tools never fake
/// the handshake, so none of them can trip the cross-layer detector.
fn tls_for(tech: PrivacyTech, device: ExperimentDevice) -> fp_types::TlsFacet {
    match tech {
        PrivacyTech::Tor => BrowserFamily::Firefox.tls_facet(),
        PrivacyTech::Brave => brave_engine(device).tls_facet(),
        PrivacyTech::Safari | PrivacyTech::UblockOrigin | PrivacyTech::AdblockPlus => {
            blocker_family(tech, device).tls_facet()
        }
    }
}

/// The browser family a blocker-type setup actually runs on a device
/// (mirrors the choices in `fingerprint_for`).
fn blocker_family(tech: PrivacyTech, device: ExperimentDevice) -> BrowserFamily {
    match (tech, device) {
        (PrivacyTech::Safari, ExperimentDevice::MacBookM1) => BrowserFamily::Safari,
        (PrivacyTech::Safari, ExperimentDevice::LinuxDesktop) => BrowserFamily::Firefox,
        (_, ExperimentDevice::IPadPro) => BrowserFamily::MobileSafari,
        (_, ExperimentDevice::Pixel7) => BrowserFamily::ChromeMobile,
        _ => BrowserFamily::Chrome,
    }
}

fn device_profile(device: ExperimentDevice, rng: &mut Splittable) -> DeviceProfile {
    match device {
        ExperimentDevice::Pixel7 => DeviceProfile::android("Pixel 7"),
        d => DeviceProfile::sample(d.kind(), rng),
    }
}

fn placement(tech: PrivacyTech, rng: &mut Splittable) -> (std::net::Ipv4Addr, LocaleSpec) {
    match tech {
        PrivacyTech::Tor => {
            // Exit relays, not the user's own network.
            let exits = asns_of_class(AsnClass::TorExit);
            let asn = exits[rng.next_below(exits.len() as u64) as usize];
            let ip = NetDb::sample_ip(asn, rng);
            // Tor Browser pins the browser-visible locale to en-US/UTC
            // regardless of the exit.
            let locale = LocaleSpec {
                timezone: "UTC",
                offset_minutes: 0,
                language: "en-US",
                languages: &["en-US", "en"],
                geo_region: "United States of America/California",
            };
            (ip, locale)
        }
        _ => {
            // The lab sits on a Californian residential line.
            let asns = fp_netsim::asn::asns_in("United States of America", AsnClass::Residential);
            let asn = asns[rng.next_below(asns.len() as u64) as usize];
            let ip = NetDb::sample_ip(asn, rng);
            let locale = locale_for_region(NetDb::lookup(ip).region_index);
            (ip, locale)
        }
    }
}

fn fingerprint_for(
    tech: PrivacyTech,
    device: ExperimentDevice,
    profile: &DeviceProfile,
    locale: &LocaleSpec,
    session_farble: u64,
    request_idx: u64,
    rng: &mut Splittable,
) -> fp_types::Fingerprint {
    // Browser version is a property of the installed browser — stable per
    // device across the experiment's requests.
    let mut version_rng = Splittable::new(session_farble ^ 0xB10);
    let _ = rng;
    match tech {
        PrivacyTech::Brave => {
            let browser = BrowserProfile::contemporary(brave_engine(device), &mut version_rng);
            let mut fp = Collector::collect(profile, &browser, locale);
            match device {
                // iOS "Brave" is a WebKit shell: no farbling at all.
                ExperimentDevice::IPadPro => fp,
                // Android Brave farbles the noise digests only, with one
                // session-stable seed (hardware attributes of a known
                // model must stay truthful to remain plausible).
                ExperimentDevice::Pixel7 => {
                    let mut frng = Splittable::new(session_farble);
                    fp.set(
                        AttrId::Audio,
                        AttrValue::float(124.0 + frng.next_f64() / 100.0),
                    );
                    fp.set(
                        AttrId::Canvas,
                        AttrValue::text(&format!(
                            "canvas:farbled{:012x}",
                            frng.next_u64() & 0xFFFF_FFFF_FFFF
                        )),
                    );
                    fp
                }
                // Desktop Brave: full six-attribute farbling, re-drawn per
                // visit (each honey-site visit is a fresh session).
                _ => {
                    apply_brave_farbling(
                        &mut fp,
                        device,
                        fp_types::mix2(session_farble, request_idx),
                    );
                    fp
                }
            }
        }
        PrivacyTech::Tor => {
            // The uniform Tor fingerprint: Firefox ESR claiming Windows.
            let win =
                DeviceProfile::sample(DeviceKind::WindowsDesktop, &mut Splittable::new(0x70_12));
            let browser = BrowserProfile {
                family: BrowserFamily::Firefox,
                major: 115,
            };
            let mut fp = Collector::collect(&win, &browser, locale);
            // Letterboxing and spec-mandated uniformity.
            fp.set(AttrId::ScreenResolution, (1400u16, 900u16));
            fp.set(AttrId::AvailResolution, (1400u16, 900u16));
            fp.set(AttrId::ScreenFrame, 0i64);
            fp.set(AttrId::HardwareConcurrency, 4i64);
            fp
        }
        PrivacyTech::Safari => {
            // Stock Safari (or the platform default browser on non-Apple
            // devices, to keep four devices in the experiment).
            let family = match device {
                ExperimentDevice::MacBookM1 => BrowserFamily::Safari,
                ExperimentDevice::IPadPro => BrowserFamily::MobileSafari,
                ExperimentDevice::LinuxDesktop => BrowserFamily::Firefox,
                ExperimentDevice::Pixel7 => BrowserFamily::ChromeMobile,
            };
            let browser = BrowserProfile::contemporary(family, &mut version_rng);
            Collector::collect(profile, &browser, locale)
        }
        PrivacyTech::UblockOrigin | PrivacyTech::AdblockPlus => {
            // Chrome with a blocking extension: attributes untouched.
            let family = match device {
                ExperimentDevice::IPadPro => BrowserFamily::MobileSafari,
                ExperimentDevice::Pixel7 => BrowserFamily::ChromeMobile,
                _ => BrowserFamily::Chrome,
            };
            let browser = BrowserProfile::contemporary(family, &mut version_rng);
            Collector::collect(profile, &browser, locale)
        }
    }
}

fn brave_engine(device: ExperimentDevice) -> BrowserFamily {
    match device {
        ExperimentDevice::IPadPro => BrowserFamily::MobileSafari,
        ExperimentDevice::Pixel7 => BrowserFamily::ChromeMobile,
        _ => BrowserFamily::Chrome,
    }
}

/// Brave's farbling: plausible-value randomisation of six attributes
/// (§7.5: "Brave alters deviceMemory on desktops to plausible values …
/// which align with the amount of memory in typical desktops and remain
/// consistent with other fingerprint attributes").
fn apply_brave_farbling(fp: &mut fp_types::Fingerprint, device: ExperimentDevice, seed: u64) {
    let mut frng = Splittable::new(seed);
    // audio + canvas: fresh noise digests.
    fp.set(
        AttrId::Audio,
        AttrValue::float(124.0 + frng.next_f64() / 100.0),
    );
    fp.set(
        AttrId::Canvas,
        AttrValue::text(&format!(
            "canvas:farbled{:012x}",
            frng.next_u64() & 0xFFFF_FFFF_FFFF
        )),
    );
    // plugins: Brave shuffles/renames the PDF plugin entries on desktop.
    if matches!(
        device,
        ExperimentDevice::MacBookM1 | ExperimentDevice::LinuxDesktop
    ) {
        let n = 1 + frng.next_below(3);
        let names: Vec<String> = (0..n)
            .map(|i| format!("Plugin {:x}", fp_types::mix2(seed, i)))
            .collect();
        fp.set(
            AttrId::Plugins,
            AttrValue::list(names.iter().map(|s| s.as_str())),
        );
    }
    // deviceMemory / hardwareConcurrency: plausible ladder values.
    if !fp.get(AttrId::DeviceMemory).is_missing() {
        let mem = *frng.pick(&[0.5, 1.0, 2.0, 4.0, 8.0]);
        fp.set(AttrId::DeviceMemory, AttrValue::float(mem));
    }
    let cores = *frng.pick(&[2i64, 4, 8]);
    fp.set(AttrId::HardwareConcurrency, cores);
    // screenResolution: small plausible offsets (desktop panels only; the
    // offsets keep Mac constraints satisfied).
    if let Some((w, h)) = fp.get(AttrId::ScreenResolution).as_resolution() {
        if !matches!(device, ExperimentDevice::IPadPro | ExperimentDevice::Pixel7) {
            let dw = frng.next_below(17) as u16;
            let dh = frng.next_below(9) as u16;
            fp.set(AttrId::ScreenResolution, (w + dw, h + dh));
            fp.set(AttrId::AvailResolution, (w + dw, h + dh));
        }
    }
}

fn human_behavior(device: ExperimentDevice, rng: &mut Splittable) -> BehaviorTrace {
    if matches!(device, ExperimentDevice::IPadPro | ExperimentDevice::Pixel7) {
        crate::pointer::touch_trace(2 + rng.next_below(8) as u16, rng)
    } else {
        crate::pointer::human_trace(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_fingerprint::ValidityOracle;
    use fp_netsim::blocklist::is_tor_exit;
    use std::collections::HashSet;

    #[test]
    fn three_hundred_requests_each() {
        for tech in PrivacyTech::ALL {
            assert_eq!(generate(tech, 1).len(), 300, "{tech:?}");
        }
    }

    #[test]
    fn brave_farbling_stays_spatially_plausible() {
        // §7.5: Brave's alterations are consistent with other attributes —
        // no spatial rule should ever fire on them.
        for r in generate(PrivacyTech::Brave, 2) {
            let bad = ValidityOracle::scan_impossible(&r.fingerprint);
            assert!(bad.is_empty(), "Brave fingerprint impossible: {bad:?}");
        }
    }

    #[test]
    fn brave_desktop_churns_fingerprints_on_one_cookie() {
        let reqs = generate(PrivacyTech::Brave, 3);
        let mut per_cookie: std::collections::HashMap<u64, HashSet<u64>> = Default::default();
        for r in &reqs {
            per_cookie
                .entry(r.cookie.unwrap())
                .or_default()
                .insert(r.fingerprint.digest());
        }
        let max_churn = per_cookie.values().map(HashSet::len).max().unwrap();
        assert!(max_churn > 30, "desktop Brave should churn: {max_churn}");
        let min_churn = per_cookie.values().map(HashSet::len).min().unwrap();
        assert!(min_churn <= 2, "iPad Brave should be stable: {min_churn}");
    }

    #[test]
    fn tor_exits_and_uniform_fingerprint() {
        let reqs = generate(PrivacyTech::Tor, 4);
        let digests: HashSet<u64> = reqs.iter().map(|r| r.fingerprint.digest()).collect();
        assert_eq!(digests.len(), 1, "Tor fingerprint must be uniform");
        assert!(reqs.iter().all(|r| is_tor_exit(r.ip)));
        let r = &reqs[0];
        assert_eq!(r.fingerprint.get(AttrId::Timezone).as_str(), Some("UTC"));
        assert_eq!(r.fingerprint.get(AttrId::UaOs).as_str(), Some("Windows"));
    }

    #[test]
    fn blockers_alter_nothing() {
        for tech in [
            PrivacyTech::Safari,
            PrivacyTech::UblockOrigin,
            PrivacyTech::AdblockPlus,
        ] {
            let reqs = generate(tech, 5);
            for r in &reqs {
                assert!(ValidityOracle::scan_impossible(&r.fingerprint).is_empty());
            }
            // Stable per device: exactly four distinct fingerprints.
            let digests: HashSet<u64> = reqs.iter().map(|r| r.fingerprint.digest()).collect();
            assert!(digests.len() <= 4, "{tech:?}: {} digests", digests.len());
        }
    }

    #[test]
    fn everyone_interacts() {
        for tech in PrivacyTech::ALL {
            assert!(generate(tech, 6).iter().all(|r| r.behavior.has_input()));
        }
    }
}
