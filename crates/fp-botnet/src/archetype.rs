//! Request archetypes: fingerprints that *realise* a planned cell through
//! the detectors' actual logic.
//!
//! A bot has a real runtime (usually headless Chromium on a Linux server)
//! and tells lies on top of it. A **clean** archetype is a *complete* lie —
//! every attribute of some real device emulated faithfully, so no attribute
//! pair is impossible. A **sloppy** archetype is a *partial* lie — the
//! paper's finding — leaving at least one impossible pair for the miner.
//!
//! Every constructor is covered by tests that (a) feed the result through
//! the real detectors and assert the intended cell, and (b) scan it with
//! the validity oracle and assert the intended consistency.

use crate::iphone_res;
use crate::spec::Cell;
use fp_fingerprint::{
    BrowserFamily, BrowserProfile, Collector, DeviceKind, DeviceProfile, LocaleSpec,
};
use fp_tls::TlsClientKind;
use fp_types::{AttrId, AttrValue, BehaviorTrace, Fingerprint, Splittable, TlsFacet};

/// Which lie variant a request uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// Fully consistent emulation of a real device.
    Clean,
    /// Partial emulation leaving at least one impossible attribute pair.
    Sloppy,
}

/// One built archetype: the browser-layer lie plus the network-layer
/// truth that will carry it.
pub struct Built {
    /// The (possibly fabricated) attribute vector the client script reports.
    pub fingerprint: Fingerprint,
    /// Input behaviour shipped with the page visit.
    pub behavior: BehaviorTrace,
    /// The TLS stack's facet — what the runtime's ClientHello digests to,
    /// regardless of what the fingerprint claims. Archetype constructors
    /// leave it unobserved; [`build`] fills it in.
    pub tls: TlsFacet,
}

impl Built {
    /// A built archetype with the handshake not yet attached.
    pub(crate) fn new(fingerprint: Fingerprint, behavior: BehaviorTrace) -> Built {
        Built {
            fingerprint,
            behavior,
            tls: TlsFacet::unobserved(),
        }
    }
}

/// Build a request body for `(cell, mimicry, variant)` under `locale`.
pub fn build(
    cell: Cell,
    mimicry: bool,
    variant: Variant,
    locale: &LocaleSpec,
    rng: &mut Splittable,
) -> Built {
    let mut built = match (cell, mimicry, variant) {
        (Cell::EvadeBoth, false, Variant::Clean) => clean_mobile_evader(locale, rng),
        (Cell::EvadeBoth, false, Variant::Sloppy) => sloppy_mobile_evader(locale, rng),
        (Cell::EvadeBoth, true, Variant::Clean) => mimicry_evader(true, locale, rng),
        (Cell::EvadeBoth, true, Variant::Sloppy) => sloppy_mimicry_evader(true, locale, rng),
        (Cell::EvadeDataDomeOnly, false, Variant::Clean) => android_k_evader(locale, rng),
        (Cell::EvadeDataDomeOnly, false, Variant::Sloppy) => sloppy_android_no_touch(locale, rng),
        (Cell::EvadeDataDomeOnly, true, Variant::Clean) => mimicry_evader(false, locale, rng),
        (Cell::EvadeDataDomeOnly, true, Variant::Sloppy) => {
            sloppy_mimicry_evader(false, locale, rng)
        }
        (Cell::EvadeBotDOnly, _, Variant::Clean) => detected_desktop_with_plugins(locale, rng),
        (Cell::EvadeBotDOnly, _, Variant::Sloppy) => sloppy_detected_botd_evader(locale, rng),
        (Cell::DetectedBoth, _, Variant::Clean) => detected_both(locale, rng),
        (Cell::DetectedBoth, _, Variant::Sloppy) => sloppy_detected_both(locale, rng),
    };
    built.tls = draw_bot_tls(rng).facet();
    // Most automation stacks ship canvas-noise patches (stealth plugins
    // randomise the digest per page load). The noise is on both evading
    // and detected traffic, so it carries no evasion signal — which keeps
    // the classifier honest about the attributes that do.
    if rng.chance(0.75) {
        built.fingerprint.set(
            AttrId::Canvas,
            AttrValue::text(&format!(
                "canvas:noise{:012x}",
                rng.next_u64() & 0xFFFF_FFFF_FFFF
            )),
        );
    }
    built
}

// --------------------------------------------------------------------
// Behaviour traces.

/// Credible simulated pointer input — the behavioural-mimicry evasion.
/// Good frameworks replay genuinely human-shaped trajectories (§2.3, Jing
/// et al.), so this synthesises the same paths real users produce.
pub fn mimic_good(rng: &mut Splittable) -> BehaviorTrace {
    crate::pointer::human_trace(rng)
}

/// Naive replayed input — straight lines at machine-regular intervals.
/// The behavioural model sees through it.
pub fn mimic_poor(rng: &mut Splittable) -> BehaviorTrace {
    crate::pointer::replay_trace(rng)
}

/// Simulated touch taps on a touch-claiming profile.
pub fn bot_touch(rng: &mut Splittable) -> BehaviorTrace {
    crate::pointer::touch_trace(1 + rng.next_below(4) as u16, rng)
}

// --------------------------------------------------------------------
// Shared construction helpers.

/// A bot's desktop cover: real desktop profile, Chromium browser, cores
/// from the server-grade distribution, plugins optionally stripped.
fn desktop_base(
    plugins: bool,
    force_non_apple: bool,
    locale: &LocaleSpec,
    rng: &mut Splittable,
) -> Fingerprint {
    let kind = if force_non_apple {
        *rng.pick(&[DeviceKind::WindowsDesktop, DeviceKind::LinuxDesktop])
    } else {
        [
            DeviceKind::WindowsDesktop,
            DeviceKind::Mac,
            DeviceKind::LinuxDesktop,
        ][rng.pick_weighted(&[0.68, 0.12, 0.20])]
    };
    let device = DeviceProfile::sample(kind, rng);
    let family = if kind == DeviceKind::WindowsDesktop && rng.chance(0.25) {
        BrowserFamily::Edge
    } else {
        BrowserFamily::Chrome
    };
    let browser = BrowserProfile::contemporary(family, rng);
    let mut fp = Collector::collect(&device, &browser, locale);
    // Bot desktop covers mix cheap VPS (4 cores) with bigger builds —
    // Figure 5's low-evasion CDF has ≈38% below 8 cores.
    let cores = [4i64, 8, 12, 16][rng.pick_weighted(&[0.42, 0.33, 0.15, 0.10])];
    fp.set(AttrId::HardwareConcurrency, cores);
    if !plugins {
        fp.set(AttrId::Plugins, AttrValue::list(Vec::<&str>::new()));
        fp.set(AttrId::MimeTypes, AttrValue::list(Vec::<&str>::new()));
    }
    fp
}

/// Collect a faithful iPhone fingerprint (resolution from the evader-real
/// pool, cores < 8 as real iPhones have).
fn iphone_base(locale: &LocaleSpec, rng: &mut Splittable) -> Fingerprint {
    let device = DeviceProfile::sample(DeviceKind::IPhone, rng);
    let family = if rng.chance(0.10) {
        BrowserFamily::ChromeMobileIos
    } else {
        BrowserFamily::MobileSafari
    };
    let browser = BrowserProfile::contemporary(family, rng);
    let mut fp = Collector::collect(&device, &browser, locale);
    let res = iphone_res::draw_evader_real(rng);
    fp.set(AttrId::ScreenResolution, res);
    fp.set(AttrId::AvailResolution, res);
    fp
}

fn set_resolution(fp: &mut Fingerprint, res: (u16, u16)) {
    fp.set(AttrId::ScreenResolution, res);
    fp.set(AttrId::AvailResolution, res);
}

/// Draw the TLS stack that actually carries a bot request. Bots run
/// Chromium automation or raw HTTP stacks regardless of the UA they
/// claim; that mismatch is the cross-layer extension's signal, invisible
/// to the in-paper tables.
pub fn draw_bot_tls(rng: &mut Splittable) -> TlsClientKind {
    [
        TlsClientKind::Chromium,
        TlsClientKind::GoHttp,
        TlsClientKind::PythonRequests,
    ][rng.pick_weighted(&[0.72, 0.18, 0.10])]
}

/// The *truthful* TLS facet for a fingerprint: the stack the claimed
/// browser family genuinely greets servers with. Unobserved when the UA
/// browser has no known TLS expectation.
pub fn truthful_tls(fp: &Fingerprint) -> TlsFacet {
    let ua_browser = fp.get(AttrId::UaBrowser).as_str().unwrap_or("");
    TlsClientKind::for_ua_browser(ua_browser)
        .map(TlsClientKind::facet)
        .unwrap_or_default()
}

// --------------------------------------------------------------------
// Cell (EvadeBoth): evade DataDome ∧ evade BotD.

/// Clean mobile evader: complete emulation of a real phone/tablet.
/// DataDome: phone-like, < 8 cores, silence excused. BotD: Safari engine
/// or touch support.
fn clean_mobile_evader(locale: &LocaleSpec, rng: &mut Splittable) -> Built {
    let roll = rng.pick_weighted(&[0.57, 0.16, 0.27]);
    let fp = match roll {
        0 => iphone_base(locale, rng),
        1 => {
            let mut device = DeviceProfile::sample(DeviceKind::IPad, rng);
            if device.cores >= 8 {
                device.cores = 6;
            }
            let browser = BrowserProfile::contemporary(BrowserFamily::MobileSafari, rng);
            Collector::collect(&device, &browser, locale)
        }
        _ => {
            // The generic-K Android cover with touch left on (BotD evaded
            // via touch; the unknown model keeps the lie unconstrained).
            let device = DeviceProfile::android_generic_k();
            let browser = BrowserProfile::contemporary(BrowserFamily::ChromeMobile, rng);
            Collector::collect(&device, &browser, locale)
        }
    };
    let behavior = if rng.chance(0.2) {
        bot_touch(rng)
    } else {
        BehaviorTrace::silent()
    };
    Built::new(fp, behavior)
}

/// Sloppy mobile evader: the lie is partial — one of the Table 6 patterns.
fn sloppy_mobile_evader(locale: &LocaleSpec, rng: &mut Splittable) -> Built {
    let pattern = rng.pick_weighted(&[0.33, 0.13, 0.13, 0.09, 0.09, 0.09, 0.14]);
    let fp = match pattern {
        6 => {
            // The headless-Chromium runtime keeps sending its client hints
            // under the Safari UA — the HTTP-header leak (Sec-CH-UA under
            // a WebKit UA is impossible; no WebKit engine emits it).
            let mut fp = iphone_base(locale, rng);
            fp.set(
                AttrId::SecChUa,
                format!("\"Chromium\";v=\"{}\"", *rng.pick(&[114u16, 115, 116])).as_str(),
            );
            fp.set(AttrId::SecChUaPlatform, "Linux");
            fp.set(AttrId::SecChUaMobile, "?0");
            fp
        }
        0 => {
            // Fabricated iPhone resolution (Figure 7).
            let mut fp = iphone_base(locale, rng);
            set_resolution(&mut fp, iphone_res::draw_evader_fake(rng));
            fp
        }
        1 => {
            // iPhone UA on the server's real platform (Table 6:
            // (Mobile Safari, Linux x86_64)).
            let mut fp = iphone_base(locale, rng);
            fp.set(AttrId::Platform, "Linux x86_64");
            fp
        }
        2 => {
            // Touch claimed but maxTouchPoints forgotten (iPhone, 0).
            let mut fp = iphone_base(locale, rng);
            fp.set(AttrId::MaxTouchPoints, 0i64);
            fp
        }
        3 => {
            // Wrong vendor (Mobile Safari, Google Inc.).
            let mut fp = iphone_base(locale, rng);
            fp.set(AttrId::Vendor, "Google Inc.");
            fp
        }
        4 => {
            // 16-bit colour depth on iOS (Table 6: (iPhone, 16)).
            let mut fp = iphone_base(locale, rng);
            fp.set(AttrId::ColorDepth, 16i64);
            fp
        }
        _ => {
            // Flagship Android with impossible hardware (Table 6:
            // (Samsung SM-S906N, 1920x1080), low cores for the DD pass).
            let device = DeviceProfile::android("SM-S906N");
            let browser = BrowserProfile::contemporary(BrowserFamily::ChromeMobile, rng);
            let mut fp = Collector::collect(&device, &browser, locale);
            fp.set(AttrId::HardwareConcurrency, 4i64);
            set_resolution(&mut fp, (1920, 1080));
            fp
        }
    };
    let behavior = if rng.chance(0.2) {
        bot_touch(rng)
    } else {
        BehaviorTrace::silent()
    };
    Built::new(fp, behavior)
}

/// Behavioural-mimicry evader: desktop cover + credible pointer input.
/// With plugins → also evades BotD; without → BotD catches it.
fn mimicry_evader(with_plugins: bool, locale: &LocaleSpec, rng: &mut Splittable) -> Built {
    Built::new(
        desktop_base(with_plugins, false, locale, rng),
        mimic_good(rng),
    )
}

/// Mimicry evader whose cover has an impossible pair.
fn sloppy_mimicry_evader(with_plugins: bool, locale: &LocaleSpec, rng: &mut Splittable) -> Built {
    let fp = if rng.chance(0.5) {
        // Apple vendor on a non-Apple platform (Table 6 Browser group).
        let mut fp = desktop_base(with_plugins, true, locale, rng);
        fp.set(AttrId::Vendor, "Apple Computer, Inc.");
        fp
    } else {
        // Desktop Chrome UA on an ARM Android platform string.
        let mut fp = desktop_base(with_plugins, false, locale, rng);
        fp.set(AttrId::Platform, "Linux armv8l");
        fp
    };
    // The lie never extends to behaviour here — that's the point.
    let behavior = mimic_good(rng);
    Built::new(fp, behavior)
}

// --------------------------------------------------------------------
// Cell (EvadeDataDomeOnly): evade DataDome ∧ detected by BotD.

/// The generic-"K" Android cover: unknown model (no catalogue constraint),
/// < 8 cores, no touch, no plugins → BotD's headless signature fires, but
/// DataDome excuses the silent mobile profile.
fn android_k_evader(locale: &LocaleSpec, rng: &mut Splittable) -> Built {
    let device = DeviceProfile::android_generic_k();
    let browser = BrowserProfile::contemporary(BrowserFamily::ChromeMobile, rng);
    let mut fp = Collector::collect(&device, &browser, locale);
    fp.set(AttrId::TouchSupport, "None");
    fp.set(AttrId::MaxTouchPoints, 0i64);
    // Unknown model: any plausible phone resolution, cores < 8.
    let res = (
        320 + rng.next_below(150) as u16,
        640 + rng.next_below(320) as u16,
    );
    set_resolution(&mut fp, res);
    fp.set(AttrId::HardwareConcurrency, *rng.pick(&[2i64, 4, 4, 6]));
    Built::new(fp, BehaviorTrace::silent())
}

/// Sloppy variants of the DataDome-only evader. Half are *known* Android
/// models with touch support forgotten (Table 6's Screen group); half are
/// the generic-K cover whose platform alteration was skipped — an Android
/// UA still reporting the Windows host (Table 6's Browser group).
fn sloppy_android_no_touch(locale: &LocaleSpec, rng: &mut Splittable) -> Built {
    if rng.chance(0.5) {
        let mut built = android_k_evader(locale, rng);
        built.fingerprint.set(AttrId::Platform, "Win32");
        return built;
    }
    let model = *rng.pick(&[
        "SM-A127F",
        "M2004J19C",
        "Infinix X652B",
        "SM-T387W",
        "Redmi Go",
    ]);
    let device = DeviceProfile::android(model);
    let browser = BrowserProfile::contemporary(BrowserFamily::ChromeMobile, rng);
    let mut fp = Collector::collect(&device, &browser, locale);
    fp.set(AttrId::TouchSupport, "None");
    fp.set(AttrId::MaxTouchPoints, 0i64);
    if device.cores >= 8 {
        // Keep the DataDome pass; the core-count lie is itself impossible.
        fp.set(AttrId::HardwareConcurrency, 4i64);
    }
    if rng.chance(0.5) {
        // Device-memory lie on top (Table 6 Device group).
        let wrong = if device.device_memory >= 4.0 {
            1.0
        } else {
            8.0
        };
        fp.set(AttrId::DeviceMemory, AttrValue::float(wrong));
    }
    Built::new(fp, BehaviorTrace::silent())
}

// --------------------------------------------------------------------
// Cell (EvadeBotDOnly): detected by DataDome ∧ evade BotD.

/// Faithful desktop cover with plugins, but silent — DataDome flags the
/// inputless desktop, BotD sees a plugin-bearing Chromium and passes it.
/// A slice of this cell carries the always-detect anomalies (§5.3.2),
/// which keeps ScreenFrame/ForcedColors discriminative for the classifier.
fn detected_desktop_with_plugins(locale: &LocaleSpec, rng: &mut Splittable) -> Built {
    let roll = rng.pick_weighted(&[0.50, 0.20, 0.20, 0.10]);
    match roll {
        0 => Built::new(
            desktop_base(true, false, locale, rng),
            BehaviorTrace::silent(),
        ),
        1 => {
            // A faithful mid-range Android (8 real cores): BotD passes on
            // touch, DataDome is not fooled — silent and not low-core.
            let model = *rng.pick(&[
                "SM-S906N",
                "SM-A127F",
                "SM-A515F",
                "SM-G991B",
                "SM-G973F",
                "Pixel 7",
                "Pixel 7 Pro",
                "M2006C3MG",
                "M2004J19C",
                "Infinix X652B",
            ]);
            let device = DeviceProfile::android(model);
            let browser = BrowserProfile::contemporary(BrowserFamily::ChromeMobile, rng);
            Built::new(
                Collector::collect(&device, &browser, locale),
                BehaviorTrace::silent(),
            )
        }
        2 => {
            let mut fp = desktop_base(true, false, locale, rng);
            fp.set(AttrId::ScreenFrame, *rng.pick(&[120i64, 180, 240]));
            Built::new(fp, mimic_good(rng))
        }
        _ => {
            // forced-colors on a non-Windows platform: consistent UA and
            // platform (Linux), so only the CSS flag is anomalous.
            let device = DeviceProfile::sample(DeviceKind::LinuxDesktop, rng);
            let browser = BrowserProfile::contemporary(BrowserFamily::Chrome, rng);
            let mut fp = Collector::collect(&device, &browser, locale);
            fp.set(AttrId::ForcedColors, true);
            Built::new(fp, mimic_good(rng))
        }
    }
}

/// Sloppy BotD evaders: fake premium devices with impossible hardware.
fn sloppy_detected_botd_evader(locale: &LocaleSpec, rng: &mut Splittable) -> Built {
    let pattern = rng.pick_weighted(&[0.52, 0.12, 0.08, 0.13, 0.15]);
    let fp = match pattern {
        4 => {
            // The detected-side mirror of the sloppy mimicry evader: same
            // desktop-with-plugins cover, same Apple-vendor lie, but no
            // behavioural mimicry — so the fingerprint alone cannot tell
            // this bot from the one DataDome misses (§5.2.1's accuracy
            // ceiling).
            let mut fp = desktop_base(true, true, locale, rng);
            fp.set(AttrId::Vendor, "Apple Computer, Inc.");
            fp
        }
        0 => {
            // Fake iPhone with server cores (Table 6: (iPhone, 32)).
            let mut fp = iphone_base(locale, rng);
            fp.set(AttrId::HardwareConcurrency, *rng.pick(&[16i64, 24, 32]));
            set_resolution(&mut fp, iphone_res::draw_detected(rng));
            fp
        }
        1 => {
            // Touch-screen Mac (Table 6: (Mac, touchEvent/touchStart)).
            let device = DeviceProfile::sample(DeviceKind::Mac, rng);
            let browser = BrowserProfile::contemporary(BrowserFamily::Safari, rng);
            let mut fp = Collector::collect(&device, &browser, locale);
            fp.set(AttrId::TouchSupport, "touchEvent/touchStart");
            fp.set(AttrId::MaxTouchPoints, 10i64);
            fp.set(AttrId::HardwareConcurrency, *rng.pick(&[8i64, 10, 12]));
            fp
        }
        2 => {
            // iPad with seven touch points (Table 6: (iPad, 7)).
            let device = DeviceProfile::sample(DeviceKind::IPad, rng);
            let browser = BrowserProfile::contemporary(BrowserFamily::MobileSafari, rng);
            let mut fp = Collector::collect(&device, &browser, locale);
            fp.set(AttrId::MaxTouchPoints, 7i64);
            fp.set(AttrId::HardwareConcurrency, 8i64);
            fp
        }
        _ => {
            // Galaxy Tab claiming a gamut its panel lacks (Table 6:
            // (Samsung Galaxy Tab S7, rec2020)).
            let device = DeviceProfile::android("SM-T870");
            let browser = BrowserProfile::contemporary(BrowserFamily::ChromeMobile, rng);
            let mut fp = Collector::collect(&device, &browser, locale);
            fp.set(AttrId::ColorGamut, "rec2020");
            fp
        }
    };
    Built::new(fp, BehaviorTrace::silent())
}

// --------------------------------------------------------------------
// Cell (DetectedBoth).

/// Detected by both: the undisguised end of the spectrum.
fn detected_both(locale: &LocaleSpec, rng: &mut Splittable) -> Built {
    let roll = rng.pick_weighted(&[0.19, 0.16, 0.08, 0.08, 0.02, 0.065, 0.405]);
    match roll {
        // Plugins stripped, flavours patched — half-dressed headless.
        0 => Built::new(
            desktop_base(false, false, locale, rng),
            BehaviorTrace::silent(),
        ),
        1 => {
            // Raw headless: window.chrome missing too, and the quirky
            // `prefers-contrast: less` default some builds leak.
            let mut fp = desktop_base(false, false, locale, rng);
            fp.set(AttrId::VendorFlavors, AttrValue::list(Vec::<&str>::new()));
            if rng.chance(0.5) {
                fp.set(AttrId::Contrast, -1i64);
            }
            Built::new(fp, BehaviorTrace::silent())
        }
        2 => {
            // webdriver left on.
            let mut fp = desktop_base(false, false, locale, rng);
            fp.set(AttrId::Webdriver, true);
            Built::new(fp, BehaviorTrace::silent())
        }
        // Replayed mouse trail that fools nobody.
        3 => Built::new(desktop_base(false, false, locale, rng), mimic_poor(rng)),
        4 => {
            // Plugins patched but webdriver forgotten — why Figure 4's
            // plugin bars sit *near* 1.0 rather than at it.
            let mut fp = desktop_base(true, false, locale, rng);
            fp.set(AttrId::Webdriver, true);
            Built::new(fp, BehaviorTrace::silent())
        }
        5 => {
            // Plugins patched, `window.chrome` forgotten: the case where
            // Vendor Flavors alone decides (Table 2's top attribute) —
            // plugins said "human", flavours said "headless".
            let mut fp = desktop_base(true, false, locale, rng);
            fp.set(AttrId::VendorFlavors, AttrValue::list(Vec::<&str>::new()));
            if rng.chance(0.4) {
                fp.set(AttrId::Contrast, -1i64);
            }
            Built::new(fp, BehaviorTrace::silent())
        }
        _ => {
            // Touch emulation without `window.chrome` — same story on the
            // mobile-looking side. Non-Apple base: Windows laptops can
            // genuinely have touch screens, Macs cannot.
            let mut fp = desktop_base(false, true, locale, rng);
            fp.set(AttrId::TouchSupport, "touchEvent/touchStart");
            fp.set(AttrId::VendorFlavors, AttrValue::list(Vec::<&str>::new()));
            if rng.chance(0.4) {
                fp.set(AttrId::Contrast, -1i64);
            }
            Built::new(fp, BehaviorTrace::silent())
        }
    }
}

/// Sloppy detected-both: impossible pairs on an undisguised bot.
fn sloppy_detected_both(locale: &LocaleSpec, rng: &mut Splittable) -> Built {
    let pattern = rng.pick_weighted(&[0.35, 0.30, 0.35]);
    let fp = match pattern {
        0 => {
            // Android Chrome UA on a Windows platform (Table 6:
            // (Chrome Mobile, Win32)), server cores so DataDome still flags.
            let device = DeviceProfile::android_generic_k();
            let browser = BrowserProfile::contemporary(BrowserFamily::ChromeMobile, rng);
            let ua = fp_fingerprint::ua::synthesize(&device, &browser);
            let mut fp = desktop_base(false, true, locale, rng);
            let parsed = fp_fingerprint::parse_user_agent(&ua);
            fp.set(AttrId::UserAgent, ua.as_str());
            fp.set(AttrId::UaDevice, parsed.device.as_str());
            fp.set(AttrId::UaBrowser, parsed.browser.as_str());
            fp.set(AttrId::UaOs, parsed.os.as_str());
            fp.set(AttrId::Platform, "Win32");
            fp.set(AttrId::HardwareConcurrency, *rng.pick(&[8i64, 12, 16]));
            fp
        }
        1 => {
            // Apple vendor on a silent, pluginless desktop.
            let mut fp = desktop_base(false, true, locale, rng);
            fp.set(AttrId::Vendor, "Apple Computer, Inc.");
            fp
        }
        _ => {
            // ARM platform lie on a pluginless desktop — the detected-side
            // mirror of the no-plugins sloppy mimicry evader.
            let mut fp = desktop_base(false, false, locale, rng);
            fp.set(AttrId::Platform, "Linux armv8l");
            fp
        }
    };
    Built::new(fp, BehaviorTrace::silent())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_antibot::{BotD, DataDome};
    use fp_fingerprint::ValidityOracle;
    use fp_netsim::blocklist::is_tor_exit;
    use fp_netsim::NetDb;
    use fp_types::{sym, Detector, SimTime, StoredRequest, TrafficSource, VerdictSet};
    use std::net::Ipv4Addr;

    /// The record the honey site stores for `built` sent from `ip`: the
    /// address survives only as its salted hash and its Tor-exit flag.
    fn as_request(built: &Built, ip: Ipv4Addr) -> StoredRequest {
        StoredRequest {
            id: 0,
            time: SimTime::EPOCH,
            site_token: sym("arch-test"),
            ip_hash: NetDb::hash_ip(ip),
            ip_offset_minutes: 0,
            ip_region: sym("X/Y"),
            ip_lat: 0.0,
            ip_lon: 0.0,
            asn: 1,
            asn_flagged: false,
            ip_blocklisted: false,
            tor_exit: is_tor_exit(ip),
            cookie: 1,
            fingerprint: built.fingerprint.clone(),
            tls: built.tls,
            behavior: built.behavior,
            cadence: fp_types::BehaviorFacet::unobserved(),
            source: TrafficSource::RealUser,
            verdicts: VerdictSet::new(),
        }
    }

    /// Every (cell, mimicry, variant) combo must land in its intended cell
    /// through the real detectors and have the intended consistency.
    #[test]
    fn archetypes_realise_their_cells() {
        let locale = LocaleSpec::en_us();
        let mut rng = Splittable::new(0xA2C4);
        for cell in Cell::ALL {
            for mimicry in [false, true] {
                for variant in [Variant::Clean, Variant::Sloppy] {
                    for trial in 0..60 {
                        // Fresh detector state per trial: archetype cells
                        // must not depend on history.
                        let mut dd = DataDome::new();
                        let mut botd = BotD::new();
                        let built = build(cell, mimicry, variant, &locale, &mut rng);
                        // Distinct IPs avoid the churn rule.
                        let ip =
                            Ipv4Addr::new(73, 100, (trial / 250) as u8, (trial % 250 + 1) as u8);
                        let req = as_request(&built, ip);
                        let dd_v = dd.observe(&req);
                        let botd_v = botd.observe(&req);
                        assert_eq!(
                            dd_v.evaded(),
                            cell.evades_dd(),
                            "{cell:?}/mim={mimicry}/{variant:?} trial {trial}: DataDome got {dd_v:?}\nfp: {:?}",
                            built.fingerprint
                        );
                        assert_eq!(
                            botd_v.evaded(),
                            cell.evades_botd(),
                            "{cell:?}/mim={mimicry}/{variant:?} trial {trial}: BotD got {botd_v:?}\nfp: {:?}",
                            built.fingerprint
                        );
                        let impossible = ValidityOracle::scan_impossible(&built.fingerprint);
                        match variant {
                            Variant::Clean => assert!(
                                impossible.is_empty(),
                                "{cell:?}/mim={mimicry} clean has impossible pairs {impossible:?}\nfp: {:?}",
                                built.fingerprint
                            ),
                            Variant::Sloppy => assert!(
                                !impossible.is_empty(),
                                "{cell:?}/mim={mimicry} sloppy has no impossible pair\nfp: {:?}",
                                built.fingerprint
                            ),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tls_facet_is_always_observed() {
        let locale = LocaleSpec::en_us();
        let mut rng = Splittable::new(5);
        for cell in Cell::ALL {
            let built = build(cell, false, Variant::Clean, &locale, &mut rng);
            assert!(built.tls.is_observed(), "{cell:?}");
            let ja3 = built.tls.ja3_str().unwrap();
            assert!(
                TlsClientKind::ALL.iter().any(|k| k.ja3() == ja3),
                "{cell:?}: facet must come from a known stack"
            );
        }
    }

    #[test]
    fn clean_mobile_evaders_have_low_cores() {
        let locale = LocaleSpec::en_us();
        let mut rng = Splittable::new(6);
        for _ in 0..100 {
            let built = build(Cell::EvadeBoth, false, Variant::Clean, &locale, &mut rng);
            let cores = built
                .fingerprint
                .get(AttrId::HardwareConcurrency)
                .as_int()
                .unwrap();
            assert!(cores < 8, "cores {cores}");
        }
    }

    #[test]
    fn truthful_tls_matches_ua() {
        let mut rng = Splittable::new(7);
        let device = DeviceProfile::sample(DeviceKind::WindowsDesktop, &mut rng);
        let browser = BrowserProfile::contemporary(BrowserFamily::Chrome, &mut rng);
        let fp = Collector::collect(&device, &browser, &LocaleSpec::en_us());
        let facet = truthful_tls(&fp);
        assert_eq!(facet.ja3_str(), Some(TlsClientKind::Chromium.ja3()));
        assert_eq!(facet.ja4_str(), Some(TlsClientKind::Chromium.ja4()));
    }

    #[test]
    fn truthful_tls_without_ua_claim_is_unobserved() {
        assert!(!truthful_tls(&Fingerprint::new()).is_observed());
    }
}
