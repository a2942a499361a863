//! The BotD-like detector: a client-side fingerprinting script.
//!
//! BotD ships as JavaScript, so it sees exactly what the page sees — browser
//! attributes — and nothing network-side. Its strength is catching
//! automation stacks that forget to dress up the browser; its measured
//! weakness (the whole point of §5.3.1/§5.3.3) is that the *presence* of
//! plugins or touch support defeats its headless-Chromium signature.

use fp_types::detect::{Detector, StateScope, Verdict};
use fp_types::{AttrId, Fingerprint, StoredRequest};

/// BotD simulator. Stateless: the script has no cross-request memory.
#[derive(Default)]
pub struct BotD;

impl BotD {
    /// Fresh instance.
    pub fn new() -> BotD {
        BotD
    }

    fn classify(fp: &Fingerprint) -> Verdict {
        // 1. The automation flag itself. `navigator.webdriver` is the
        //    first thing every bot-detection script reads.
        if fp.get(AttrId::Webdriver).as_int() == Some(1) {
            return Verdict::Bot;
        }

        // 2. Headless markers in the UA.
        if let Some(ua) = fp.get(AttrId::UserAgent).as_str() {
            if ua.contains("HeadlessChrome") || ua.contains("PhantomJS") || ua.contains("Electron")
            {
                return Verdict::Bot;
            }
        }

        // 3. Engine self-consistency: a Chromium-family UA must report the
        //    WebKit productSub. (Real browsers always do; only spoofed
        //    stacks get this wrong.)
        let ua_browser = fp.get(AttrId::UaBrowser).as_str().unwrap_or("");
        let chromium_ua = matches!(
            ua_browser,
            "Chrome" | "Chrome Mobile" | "Edge" | "Samsung Internet" | "MiuiBrowser"
        );
        if chromium_ua && fp.get(AttrId::ProductSub).as_str() == Some("20100101") {
            return Verdict::Bot;
        }

        // 3b. `window.chrome` must exist on Chromium. Raw headless builds
        //    leave the vendor-flavour probe empty; stealth frameworks patch
        //    it first — which is why Vendor Flavors tops the paper's
        //    Table 2 importance ranking for both services.
        if chromium_ua {
            let flavors_empty = fp
                .get(AttrId::VendorFlavors)
                .as_list()
                .map(|l| l.is_empty())
                .unwrap_or(true);
            if flavors_empty {
                return Verdict::Bot;
            }
        }

        // 4. The headless-Chromium signature: Chromium exposing neither
        //    plugins nor touch. Real desktop Chromium ships five PDF-viewer
        //    plugins; real mobile Chromium has touch. Headless has neither.
        //    This is the rule the paper's evasive bots sidestep by adding a
        //    PDF plugin (Fig 4) or claiming touch support (§5.3.3).
        if chromium_ua {
            let no_plugins = fp
                .get(AttrId::Plugins)
                .as_list()
                .map(|l| l.is_empty())
                .unwrap_or(true);
            let no_touch = fp.get(AttrId::TouchSupport).as_str().unwrap_or("None") == "None"
                && fp.get(AttrId::MaxTouchPoints).as_int().unwrap_or(0) == 0;
            if no_plugins && no_touch {
                return Verdict::Bot;
            }
        }

        Verdict::Human
    }
}

impl Detector for BotD {
    fn name(&self) -> &'static str {
        fp_types::detect::provenance::BOTD
    }

    fn scope(&self) -> StateScope {
        StateScope::Stateless
    }

    fn observe(&mut self, request: &StoredRequest) -> Verdict {
        Self::classify(&request.fingerprint)
    }

    fn fork(&self) -> Box<dyn Detector> {
        Box::new(BotD::new())
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
        sym, BehaviorTrace, Fingerprint, SimTime, Splittable, TrafficSource, VerdictSet,
    };
    use std::net::Ipv4Addr;

    /// The record the honey site stores for `fp` from a residential
    /// address: the address survives only as its salted hash and its
    /// Tor-exit flag.
    fn request_with(fp: Fingerprint) -> StoredRequest {
        let ip = Ipv4Addr::new(73, 1, 2, 3);
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
            behavior: BehaviorTrace::silent(),
            cadence: fp_types::BehaviorFacet::unobserved(),
            source: TrafficSource::RealUser,
            verdicts: VerdictSet::new(),
        }
    }

    fn consistent(kind: DeviceKind, family: BrowserFamily) -> Fingerprint {
        let mut rng = Splittable::new(1);
        let d = DeviceProfile::sample(kind, &mut rng);
        let b = BrowserProfile::contemporary(family, &mut rng);
        Collector::collect(&d, &b, &LocaleSpec::en_us())
    }

    #[test]
    fn real_browsers_pass() {
        let mut botd = BotD::new();
        for (kind, family) in [
            (DeviceKind::WindowsDesktop, BrowserFamily::Chrome),
            (DeviceKind::Mac, BrowserFamily::Safari),
            (DeviceKind::LinuxDesktop, BrowserFamily::Firefox),
            (DeviceKind::IPhone, BrowserFamily::MobileSafari),
            (DeviceKind::AndroidPhone, BrowserFamily::ChromeMobile),
            (DeviceKind::AndroidPhone, BrowserFamily::SamsungInternet),
        ] {
            let fp = consistent(kind, family);
            assert_eq!(
                botd.observe(&request_with(fp)),
                Verdict::Human,
                "{kind:?}/{family:?} is a real user"
            );
        }
    }

    #[test]
    fn webdriver_flag_is_detected() {
        let mut botd = BotD::new();
        let fp = consistent(DeviceKind::WindowsDesktop, BrowserFamily::Chrome)
            .with(AttrId::Webdriver, true);
        assert_eq!(botd.observe(&request_with(fp)), Verdict::Bot);
    }

    #[test]
    fn headless_signature_detected() {
        // Chromium UA, no plugins, no touch — the classic headless shape.
        let mut botd = BotD::new();
        let fp = consistent(DeviceKind::WindowsDesktop, BrowserFamily::Chrome)
            .with(
                AttrId::Plugins,
                fp_types::AttrValue::list(Vec::<&str>::new()),
            )
            .with(
                AttrId::MimeTypes,
                fp_types::AttrValue::list(Vec::<&str>::new()),
            );
        assert_eq!(botd.observe(&request_with(fp)), Verdict::Bot);
    }

    #[test]
    fn any_pdf_plugin_evades() {
        // Figure 4: the presence of any PDF plugin nearly guarantees evasion.
        let mut botd = BotD::new();
        for plugin in fp_fingerprint::catalog::CHROMIUM_PDF_PLUGINS {
            let fp = consistent(DeviceKind::WindowsDesktop, BrowserFamily::Chrome)
                .with(AttrId::Plugins, fp_types::AttrValue::list([plugin]));
            assert_eq!(botd.observe(&request_with(fp)), Verdict::Human, "{plugin}");
        }
    }

    #[test]
    fn touch_support_evades() {
        // §5.3.3: S14/S20 exploit touchSupport instead of plugins.
        let mut botd = BotD::new();
        let fp = consistent(DeviceKind::WindowsDesktop, BrowserFamily::Chrome)
            .with(
                AttrId::Plugins,
                fp_types::AttrValue::list(Vec::<&str>::new()),
            )
            .with(AttrId::TouchSupport, "touchEvent/touchStart")
            .with(AttrId::MaxTouchPoints, 5i64);
        assert_eq!(botd.observe(&request_with(fp)), Verdict::Human);
    }

    #[test]
    fn headless_ua_marker_detected_despite_plugins() {
        let mut botd = BotD::new();
        let fp = consistent(DeviceKind::WindowsDesktop, BrowserFamily::Chrome).with(
            AttrId::UserAgent,
            "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) HeadlessChrome/116.0.0.0 Safari/537.36",
        );
        assert_eq!(botd.observe(&request_with(fp)), Verdict::Bot);
    }

    #[test]
    fn firefox_without_plugins_is_not_flagged() {
        // The headless signature is Chromium-specific; Tor (a Firefox) must
        // pass BotD (Appendix G).
        let mut botd = BotD::new();
        let fp = consistent(DeviceKind::LinuxDesktop, BrowserFamily::Firefox).with(
            AttrId::Plugins,
            fp_types::AttrValue::list(Vec::<&str>::new()),
        );
        assert_eq!(botd.observe(&request_with(fp)), Verdict::Human);
    }

    #[test]
    fn spoofed_product_sub_detected() {
        let mut botd = BotD::new();
        let fp = consistent(DeviceKind::WindowsDesktop, BrowserFamily::Chrome)
            .with(AttrId::ProductSub, "20100101");
        assert_eq!(botd.observe(&request_with(fp)), Verdict::Bot);
    }
}
