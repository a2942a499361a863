//! The DataDome-like detector: a server-side engine.
//!
//! DataDome sees the browser attributes *and* the network (source IP,
//! request history) *and* behavioural telemetry (mouse events — Table 5
//! lists the MouseEvent listeners its script installs). The rule structure
//! below reproduces the conditional behaviour the paper measured:
//!
//! * hard fingerprint signals that always detect (`webdriver`, headless UA
//!   markers, implausible `ScreenFrame` values, `ForcedColors` off-Windows
//!   — §5.3.2 "certain values always result in detection");
//! * Tor-exit blocking and per-IP fingerprint-churn rate limiting
//!   (Appendix G: Brave gets flagged "roughly after the first 10 requests",
//!   all Tor requests are flagged);
//! * behavioural evidence: credible pointer input passes (real desktop
//!   users), touch input on a touch device passes (real mobile users);
//! * the measured blind spot: with *no* behavioural evidence, a profile
//!   that looks like a phone (mobile OS or touch) with fewer than 8 cores
//!   is excused — phones have no mouse, and cheap phones dominate; this is
//!   exactly the `hardwareConcurrency` effect of Figure 5 and the low-core
//!   branch of the Appendix C decision path.

use fp_types::detect::{Detector, StateScope, Verdict};
use fp_types::{AttrId, Fingerprint, StoredRequest};
use std::collections::{HashMap, HashSet};

/// `ScreenFrame` values DataDome always rejects: no real OS chrome
/// (taskbar/dock/notch) exceeds this many pixels.
pub const MAX_PLAUSIBLE_SCREEN_FRAME: i64 = 100;

/// Per-IP history window for the churn detector.
const CHURN_MIN_REQUESTS: u32 = 10;
const CHURN_DISTINCT_FRACTION: f64 = 0.5;

/// Most distinct fingerprint digests recorded per address.
const MAX_DIGESTS: usize = 4096;

/// One address's churn window: how many requests it sent and which
/// distinct fingerprint digests they carried. The first digest is kept
/// inline and only the later distinct ones go into a set, so an address
/// that keeps one fingerprint (or is seen once) allocates nothing.
#[derive(Default)]
struct IpHistory {
    requests: u32,
    /// The first recorded digest.
    first: Option<u64>,
    /// The later distinct digests (never `first`).
    digests: HashSet<u64>,
    /// Once the churn detector fires, the address stays flagged — Appendix G:
    /// DataDome "starts detecting all requests from Brave as bots".
    flagged: bool,
}

impl IpHistory {
    /// Distinct digests recorded so far.
    fn distinct(&self) -> usize {
        usize::from(self.first.is_some()) + self.digests.len()
    }

    fn record(&mut self, digest: u64) {
        if *self.first.get_or_insert(digest) != digest {
            self.digests.insert(digest);
        }
    }
}

/// DataDome simulator (stateful: per-IP history, keyed by the record's
/// salted address hash).
#[derive(Default)]
pub struct DataDome {
    history: HashMap<u64, IpHistory>,
}

impl DataDome {
    /// Fresh instance.
    pub fn new() -> DataDome {
        DataDome::default()
    }

    fn hard_fingerprint_signals(fp: &Fingerprint) -> bool {
        if fp.get(AttrId::Webdriver).as_int() == Some(1) {
            return true;
        }
        if let Some(ua) = fp.get(AttrId::UserAgent).as_str() {
            if ua.contains("HeadlessChrome") || ua.contains("PhantomJS") {
                return true;
            }
        }
        // Implausible screen frame — a value no real taskbar/dock produces.
        if let Some(frame) = fp.get(AttrId::ScreenFrame).as_int() {
            if !(0..=MAX_PLAUSIBLE_SCREEN_FRAME).contains(&frame) {
                return true;
            }
        }
        // forced-colors is Windows high-contrast; claiming it elsewhere is
        // an always-detect signal.
        if fp.get(AttrId::ForcedColors).as_int() == Some(1) {
            let platform = fp.get(AttrId::Platform).as_str().unwrap_or("");
            if !platform.starts_with("Win") {
                return true;
            }
        }
        // `window.chrome` missing on a Chromium UA — the raw-headless
        // signature (same check BotD makes; DataDome reads the same probes).
        let chromium_ua = matches!(
            fp.get(AttrId::UaBrowser).as_str().unwrap_or(""),
            "Chrome" | "Chrome Mobile" | "Edge" | "Samsung Internet" | "MiuiBrowser"
        );
        if chromium_ua {
            let flavors_empty = fp
                .get(AttrId::VendorFlavors)
                .as_list()
                .map(|l| l.is_empty())
                .unwrap_or(true);
            if flavors_empty {
                return true;
            }
        }
        false
    }

    /// Does the fingerprint claim to be a touch/mobile device?
    fn claims_mobile(fp: &Fingerprint) -> bool {
        let touch = fp
            .get(AttrId::TouchSupport)
            .as_str()
            .map(|t| t != "None")
            .unwrap_or(false)
            || fp.get(AttrId::MaxTouchPoints).as_int().unwrap_or(0) > 0;
        let mobile_os = matches!(fp.get(AttrId::UaOs).as_str(), Some("iOS") | Some("Android"));
        touch || mobile_os
    }
}

impl Detector for DataDome {
    fn name(&self) -> &'static str {
        fp_types::detect::provenance::DATADOME
    }

    fn scope(&self) -> StateScope {
        StateScope::PerIp
    }

    /// The whole rule engine, over the stored record.
    fn observe(&mut self, request: &StoredRequest) -> Verdict {
        let fp = &request.fingerprint;
        let behavior = &request.behavior;

        // Network-level: Tor exits are blocked outright (Appendix G).
        if request.tor_exit {
            return Verdict::Bot;
        }

        // Per-IP fingerprint churn: many requests from one address with
        // ever-changing fingerprints is either farbling (Brave) or a bot
        // rotating covers. Evaluated before this request joins the window.
        // The flag never clears, so once it latches nothing reads the
        // window again: the address stops being recorded.
        let hist = self.history.entry(request.ip_hash).or_default();
        if hist.flagged {
            return Verdict::Bot;
        }
        if hist.requests >= CHURN_MIN_REQUESTS
            && (hist.distinct() as f64) / f64::from(hist.requests) > CHURN_DISTINCT_FRACTION
        {
            hist.flagged = true;
            hist.digests = HashSet::new();
            return Verdict::Bot;
        }
        hist.requests += 1;
        if hist.distinct() < MAX_DIGESTS {
            hist.record(fp.digest());
        }

        if Self::hard_fingerprint_signals(fp) {
            return Verdict::Bot;
        }

        // Behavioural evidence of a human: a pointer trajectory whose
        // statistics the behavioural model scores as natural, or touch
        // input on a touch-claiming device.
        if fp_types::behavior::credible_pointer(behavior) {
            return Verdict::Human;
        }
        if behavior.touch_events >= 1 && Self::claims_mobile(fp) {
            return Verdict::Human;
        }

        // No (credible) input. Desktops without input are bots; phone-like
        // profiles are excused — unless the core count says "server".
        let cores = fp.get(AttrId::HardwareConcurrency).as_int().unwrap_or(16);
        if Self::claims_mobile(fp) && cores < 8 {
            return Verdict::Human;
        }
        Verdict::Bot
    }

    fn fork(&self) -> Box<dyn Detector> {
        Box::new(DataDome::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_fingerprint::{
        BrowserFamily, BrowserProfile, Collector, DeviceKind, DeviceProfile, LocaleSpec,
    };
    use fp_netsim::blocklist::is_tor_exit;
    use fp_netsim::NetDb;
    use fp_types::{
        sym, AttrValue, BehaviorTrace, Fingerprint, SimTime, Splittable, TrafficSource, VerdictSet,
    };
    use std::net::Ipv4Addr;

    fn consistent(kind: DeviceKind, family: BrowserFamily) -> Fingerprint {
        let mut rng = Splittable::new(2);
        let d = DeviceProfile::sample(kind, &mut rng);
        let b = BrowserProfile::contemporary(family, &mut rng);
        Collector::collect(&d, &b, &LocaleSpec::en_us())
    }

    /// The record the honey site stores for a request from `ip`: the
    /// address survives only as its salted hash and its Tor-exit flag.
    fn request(fp: Fingerprint, behavior: BehaviorTrace, ip: Ipv4Addr) -> StoredRequest {
        StoredRequest {
            id: 0,
            time: SimTime::EPOCH,
            site_token: sym("t"),
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
            fingerprint: fp,
            tls: fp_types::TlsFacet::unobserved(),
            behavior,
            cadence: fp_types::BehaviorFacet::unobserved(),
            source: TrafficSource::RealUser,
            verdicts: VerdictSet::new(),
        }
    }

    fn human_mouse() -> BehaviorTrace {
        BehaviorTrace {
            mouse_events: 25,
            touch_events: 0,
            pointer: Some(fp_types::PointerStats {
                samples: 25,
                duration_ms: 2400,
                speed_cv: 0.6,
                curvature: 0.15,
                pause_fraction: 0.2,
            }),
            first_input_delay_ms: 700,
        }
    }

    fn human_touch() -> BehaviorTrace {
        BehaviorTrace {
            mouse_events: 0,
            touch_events: 6,
            pointer: None,
            first_input_delay_ms: 450,
        }
    }

    const RESIDENTIAL_IP: Ipv4Addr = Ipv4Addr::new(73, 5, 5, 5);

    #[test]
    fn real_desktop_user_passes() {
        let mut dd = DataDome::new();
        let fp = consistent(DeviceKind::WindowsDesktop, BrowserFamily::Chrome);
        assert_eq!(
            dd.observe(&request(fp, human_mouse(), RESIDENTIAL_IP)),
            Verdict::Human
        );
    }

    #[test]
    fn real_mobile_user_passes() {
        let mut dd = DataDome::new();
        let fp = consistent(DeviceKind::IPhone, BrowserFamily::MobileSafari);
        assert_eq!(
            dd.observe(&request(fp, human_touch(), RESIDENTIAL_IP)),
            Verdict::Human
        );
    }

    #[test]
    fn silent_desktop_is_detected() {
        let mut dd = DataDome::new();
        let fp = consistent(DeviceKind::WindowsDesktop, BrowserFamily::Chrome);
        assert_eq!(
            dd.observe(&request(fp, BehaviorTrace::silent(), RESIDENTIAL_IP)),
            Verdict::Bot
        );
    }

    #[test]
    fn silent_low_core_phone_profile_evades() {
        // The Figure 5 blind spot: phone-like, < 8 cores, no input — excused.
        let mut dd = DataDome::new();
        let fp = consistent(DeviceKind::IPhone, BrowserFamily::MobileSafari);
        assert!(fp.get(AttrId::HardwareConcurrency).as_int().unwrap() < 8);
        assert_eq!(
            dd.observe(&request(fp, BehaviorTrace::silent(), RESIDENTIAL_IP)),
            Verdict::Human
        );
    }

    #[test]
    fn silent_high_core_phone_claim_is_detected() {
        let mut dd = DataDome::new();
        let fp = consistent(DeviceKind::IPhone, BrowserFamily::MobileSafari)
            .with(AttrId::HardwareConcurrency, 32i64);
        assert_eq!(
            dd.observe(&request(fp, BehaviorTrace::silent(), RESIDENTIAL_IP)),
            Verdict::Bot
        );
    }

    #[test]
    fn screen_frame_anomaly_always_detected() {
        // §5.3.2: certain ScreenFrame values always result in detection —
        // even with credible mouse behaviour.
        let mut dd = DataDome::new();
        let fp = consistent(DeviceKind::WindowsDesktop, BrowserFamily::Chrome)
            .with(AttrId::ScreenFrame, 240i64);
        assert_eq!(
            dd.observe(&request(fp, human_mouse(), RESIDENTIAL_IP)),
            Verdict::Bot
        );
    }

    #[test]
    fn forced_colors_off_windows_detected() {
        let mut dd = DataDome::new();
        let fp =
            consistent(DeviceKind::Mac, BrowserFamily::Safari).with(AttrId::ForcedColors, true);
        assert_eq!(
            dd.observe(&request(fp, human_mouse(), RESIDENTIAL_IP)),
            Verdict::Bot
        );
        // On Windows the same flag is legitimate high-contrast mode.
        let fp = consistent(DeviceKind::WindowsDesktop, BrowserFamily::Chrome)
            .with(AttrId::ForcedColors, true);
        assert_eq!(
            dd.observe(&request(fp, human_mouse(), RESIDENTIAL_IP)),
            Verdict::Human
        );
    }

    #[test]
    fn tor_exit_is_always_blocked() {
        let mut dd = DataDome::new();
        let fp = consistent(DeviceKind::WindowsDesktop, BrowserFamily::Firefox);
        let tor_ip = Ipv4Addr::new(185, 20, 1, 1);
        assert_eq!(
            dd.observe(&request(fp, human_mouse(), tor_ip)),
            Verdict::Bot
        );
    }

    #[test]
    fn fingerprint_churn_from_one_ip_gets_flagged_after_ten() {
        // Appendix G: Brave's farbling (new fingerprint per request, same
        // IP) trips DataDome after roughly 10 requests.
        let mut dd = DataDome::new();
        let ip = RESIDENTIAL_IP;
        let mut verdicts = Vec::new();
        for i in 0..30u32 {
            let fp = consistent(DeviceKind::Mac, BrowserFamily::Chrome)
                .with(AttrId::HardwareConcurrency, i64::from(2 + (i % 13)))
                .with(
                    AttrId::DeviceMemory,
                    AttrValue::float(f64::from(1 << (i % 4))),
                );
            verdicts.push(dd.observe(&request(fp, human_mouse(), ip)));
        }
        assert!(
            verdicts[..8].iter().all(|v| *v == Verdict::Human),
            "early requests pass"
        );
        assert!(
            verdicts[12..].iter().all(|v| *v == Verdict::Bot),
            "churn flagged after the window: {verdicts:?}"
        );
    }

    #[test]
    fn a_latched_address_stops_recording_fingerprints() {
        let mut dd = DataDome::new();
        let churn = |i: u32| {
            consistent(DeviceKind::Mac, BrowserFamily::Chrome)
                .with(AttrId::HardwareConcurrency, i64::from(2 + (i % 13)))
                .with(
                    AttrId::DeviceMemory,
                    AttrValue::float(f64::from(1 << (i % 4))),
                )
        };
        // The churn test's stream latches the flag by request 12.
        for i in 0..30u32 {
            let _ = dd.observe(&request(churn(i), human_mouse(), RESIDENTIAL_IP));
        }
        let key = NetDb::hash_ip(RESIDENTIAL_IP);
        assert!(dd.history[&key].flagged);
        // 50 more distinct fingerprints from the flagged address: all Bot,
        // and none of them is recorded.
        for i in 0..50u32 {
            let fp = churn(i).with(AttrId::ColorDepth, i64::from(100 + i));
            assert_eq!(
                dd.observe(&request(fp, human_mouse(), RESIDENTIAL_IP)),
                Verdict::Bot
            );
        }
        assert!(dd.history[&key].digests.is_empty());
    }

    /// The churn window with every distinct digest in one set, the first
    /// included: the reference the inline first digest must decide like.
    #[derive(Default)]
    struct SetWindow {
        requests: u32,
        digests: HashSet<u64>,
        flagged: bool,
    }

    impl SetWindow {
        /// Does the churn check answer `Bot` for a request carrying `digest`?
        fn churns(&mut self, digest: u64) -> bool {
            if self.flagged {
                return true;
            }
            if self.requests >= CHURN_MIN_REQUESTS
                && (self.digests.len() as f64) / f64::from(self.requests) > CHURN_DISTINCT_FRACTION
            {
                self.flagged = true;
                return true;
            }
            self.requests += 1;
            if self.digests.len() < MAX_DIGESTS {
                self.digests.insert(digest);
            }
            false
        }
    }

    #[test]
    fn the_inline_first_digest_latches_like_a_set_of_every_digest() {
        // Each address cycles through `k` fingerprints, the first among
        // them: 2 never latches, 5 sits exactly on the 0.5 bound at request
        // 10 and never latches, 6 latches on request 10.
        let addresses = [
            (Ipv4Addr::new(73, 5, 5, 1), 2u32),
            (Ipv4Addr::new(73, 5, 5, 2), 5),
            (Ipv4Addr::new(73, 5, 5, 3), 6),
        ];
        let base = consistent(DeviceKind::Mac, BrowserFamily::Chrome);
        let mut dd = DataDome::new();
        let mut windows: Vec<SetWindow> = addresses.iter().map(|_| SetWindow::default()).collect();
        let mut latched = [None; 3];
        let mut expected_latch = [None; 3];
        for i in 0..40u32 {
            for (a, &(ip, k)) in addresses.iter().enumerate() {
                let fp = base
                    .clone()
                    .with(AttrId::HardwareConcurrency, i64::from(2 + i % k));
                let req = request(fp.clone(), human_mouse(), ip);
                let expected = if windows[a].churns(fp.digest()) {
                    Verdict::Bot
                } else {
                    DataDome::new().observe(&req)
                };
                assert_eq!(dd.observe(&req), expected, "address {a}, request {i}");
                if expected_latch[a].is_none() && windows[a].flagged {
                    expected_latch[a] = Some(i);
                }
                if latched[a].is_none() && dd.history[&NetDb::hash_ip(ip)].flagged {
                    latched[a] = Some(i);
                }
            }
        }
        assert_eq!(latched, expected_latch);
        assert_eq!(latched, [None, None, Some(10)]);

        let once = Ipv4Addr::new(73, 5, 5, 4);
        let _ = dd.observe(&request(base, human_mouse(), once));
        let hist = &dd.history[&NetDb::hash_ip(once)];
        assert!(hist.first.is_some());
        assert_eq!(
            hist.digests.capacity(),
            0,
            "an address seen once allocates nothing"
        );
    }

    #[test]
    fn stable_fingerprint_from_one_ip_is_fine() {
        // A NATed office: many requests, same fingerprints — no churn flag.
        let mut dd = DataDome::new();
        let fp = consistent(DeviceKind::WindowsDesktop, BrowserFamily::Chrome);
        for _ in 0..50 {
            assert_eq!(
                dd.observe(&request(fp.clone(), human_mouse(), RESIDENTIAL_IP)),
                Verdict::Human
            );
        }
    }

    #[test]
    fn low_naturalness_mouse_replay_is_detected_on_desktop() {
        let mut dd = DataDome::new();
        let fp = consistent(DeviceKind::WindowsDesktop, BrowserFamily::Chrome);
        let replay = BehaviorTrace {
            mouse_events: 40,
            touch_events: 0,
            pointer: Some(fp_types::PointerStats {
                samples: 40,
                duration_ms: 320,
                speed_cv: 0.02,
                curvature: 0.0,
                pause_fraction: 0.0,
            }),
            first_input_delay_ms: 5,
        };
        assert_eq!(
            dd.observe(&request(fp, replay, RESIDENTIAL_IP)),
            Verdict::Bot
        );
    }
}
