//! The FingerprintJS-style collector.
//!
//! [`Collector::collect`] renders a (device, browser, locale) triple into a
//! complete [`Fingerprint`] in which **every attribute is consistent with
//! every other** — this is what a real browser on real hardware produces.
//! Evasive bots start from such a fingerprint and then alter attributes
//! (`fp-botnet`), which is precisely where inconsistencies creep in.
//!
//! A campaign collects the same few hundred configurations hundreds of
//! thousands of times, so every string-valued attribute is built once per
//! input and reused: the User-Agent and its parse per (device kind,
//! Android model, family, major), each static list and `&'static str` per
//! value, the canvas digest per (WebGL renderer, family) and
//! Accept-Language per language list. The values live in a per-thread
//! memo, so a repeat call formats nothing, takes no interner lock and
//! interns nothing new; a first call interns exactly what it always did.

use crate::browser::{BrowserFamily, BrowserProfile};
use crate::catalog;
use crate::device::{DeviceKind, DeviceProfile};
use crate::ua;
use fp_types::fingerprint::Fnv64;
use fp_types::{AttrId, AttrValue, Fingerprint, Splittable};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::Hasher;

/// Locale facts injected by the caller (the geo substrate lives in
/// `fp-netsim`; this keeps the crates acyclic).
#[derive(Clone, Debug)]
pub struct LocaleSpec {
    /// IANA timezone name, e.g. `Europe/Paris`.
    pub timezone: &'static str,
    /// `Date.getTimezoneOffset()` in minutes (UTC − local; Paris = −60).
    pub offset_minutes: i32,
    /// `navigator.language`.
    pub language: &'static str,
    /// `navigator.languages`.
    pub languages: &'static [&'static str],
    /// Coarse region string reported via `navigator.geolocation`.
    pub geo_region: &'static str,
}

impl LocaleSpec {
    /// A neutral en-US locale (used in tests and as a fallback).
    pub fn en_us() -> LocaleSpec {
        LocaleSpec {
            timezone: "America/Los_Angeles",
            offset_minutes: 480,
            language: "en-US",
            languages: &["en-US", "en"],
            geo_region: "United States of America/California",
        }
    }
}

/// Renders consistent fingerprints.
pub struct Collector;

/// The address and length of `'static` data. Such data is never freed or
/// mutated, so equal keys mean equal contents and a value derived from
/// the contents can be reused under the key.
type StaticKey = (usize, usize);

fn static_key<T>(data: &'static [T]) -> StaticKey {
    (data.as_ptr() as usize, data.len())
}

/// The UA attributes of one (device kind, Android model, family, major):
/// everything [`ua::synthesize`] reads.
type UaKey = (DeviceKind, Option<&'static str>, BrowserFamily, u16);

/// The User-Agent, its three parsed attributes and, for Chromium
/// families, `Sec-CH-UA`.
#[derive(Clone, Copy)]
struct UaAttrs {
    user_agent: AttrValue,
    device: AttrValue,
    browser: AttrValue,
    os: AttrValue,
    sec_ch_ua: Option<AttrValue>,
}

impl UaAttrs {
    fn build(device: &DeviceProfile, browser: &BrowserProfile) -> UaAttrs {
        let ua_string = ua::synthesize(device, browser);
        let parsed = ua::parse_user_agent(&ua_string);
        UaAttrs {
            user_agent: AttrValue::text(&ua_string),
            device: AttrValue::text(&parsed.device),
            browser: AttrValue::text(&parsed.browser),
            os: AttrValue::text(&parsed.os),
            sec_ch_ua: browser
                .family
                .is_chromium()
                .then(|| AttrValue::text(&format!("\"Chromium\";v=\"{}\"", browser.major))),
        }
    }
}

/// One thread's interned collector values, each filled on its key's
/// first use.
#[derive(Default)]
struct Memo {
    ua: HashMap<UaKey, UaAttrs>,
    /// Canvas digests by (WebGL renderer, family).
    canvas: HashMap<(StaticKey, BrowserFamily), AttrValue>,
    /// Accept-Language by language list.
    accept_language: HashMap<StaticKey, AttrValue>,
    /// Joined static lists.
    lists: HashMap<StaticKey, AttrValue>,
    /// `&'static str` attributes.
    texts: HashMap<StaticKey, AttrValue>,
}

impl Memo {
    fn text(&mut self, s: &'static str) -> AttrValue {
        *self
            .texts
            .entry(static_key(s.as_bytes()))
            .or_insert_with(|| AttrValue::text(s))
    }

    fn list(&mut self, items: &'static [&'static str]) -> AttrValue {
        *self
            .lists
            .entry(static_key(items))
            .or_insert_with(|| AttrValue::list(items.iter().copied()))
    }
}

thread_local! {
    static MEMO: RefCell<Memo> = RefCell::new(Memo::default());
}

impl Collector {
    /// Produce the complete, internally consistent fingerprint a real
    /// browser `browser` on device `device` in locale `locale` yields.
    ///
    /// `rng` only drives *legitimate* within-configuration variety (canvas
    /// noise does not exist for real devices; audio values are stable per
    /// device+browser), so the same inputs give the same fingerprint.
    pub fn collect(
        device: &DeviceProfile,
        browser: &BrowserProfile,
        locale: &LocaleSpec,
    ) -> Fingerprint {
        MEMO.with_borrow_mut(|memo| Self::collect_with(memo, device, browser, locale))
    }

    fn collect_with(
        memo: &mut Memo,
        device: &DeviceProfile,
        browser: &BrowserProfile,
        locale: &LocaleSpec,
    ) -> Fingerprint {
        let mut fp = Fingerprint::new();
        let ua = *memo
            .ua
            .entry((
                device.kind,
                device.android_model,
                browser.family,
                browser.major,
            ))
            .or_insert_with(|| UaAttrs::build(device, browser));

        // HTTP / UA layer.
        fp.set(AttrId::UserAgent, ua.user_agent);
        fp.set(AttrId::UaDevice, ua.device);
        fp.set(AttrId::UaBrowser, ua.browser);
        fp.set(AttrId::UaOs, ua.os);

        // navigator.*
        fp.set(AttrId::Platform, memo.text(device.platform));
        fp.set(AttrId::Vendor, memo.text(browser.family.vendor()));
        fp.set(
            AttrId::VendorFlavors,
            memo.list(browser.family.vendor_flavors()),
        );
        fp.set(AttrId::ProductSub, memo.text(browser.family.product_sub()));
        fp.set(AttrId::Webdriver, false);
        fp.set(
            AttrId::Plugins,
            memo.list(browser.family.plugins(device.kind)),
        );
        fp.set(
            AttrId::MimeTypes,
            memo.list(browser.family.mime_types(device.kind)),
        );
        fp.set(AttrId::HardwareConcurrency, i64::from(device.cores));
        // deviceMemory is a Chromium-only API; Safari/Firefox leave it out.
        if browser.family.is_chromium() {
            fp.set(AttrId::DeviceMemory, AttrValue::float(device.device_memory));
        }
        if matches!(browser.family, BrowserFamily::Firefox) {
            let oscpu = match device.kind {
                DeviceKind::WindowsDesktop => "Windows NT 10.0; Win64; x64",
                DeviceKind::Mac => "Intel Mac OS X 10.15",
                DeviceKind::LinuxDesktop => "Linux x86_64",
                _ => "Linux armv8l",
            };
            fp.set(AttrId::OsCpu, memo.text(oscpu));
        }
        fp.set(AttrId::CookieEnabled, true);

        // Screen.
        let (w, h) = device.resolution;
        fp.set(AttrId::ScreenResolution, (w, h));
        let frame = u16::from(device.screen_frame);
        fp.set(AttrId::AvailResolution, (w, h.saturating_sub(frame)));
        fp.set(AttrId::ColorDepth, i64::from(device.color_depth));
        fp.set(AttrId::ColorGamut, memo.text(device.color_gamut));
        fp.set(AttrId::Hdr, device.color_gamut != "srgb");
        fp.set(AttrId::Contrast, 0i64);
        fp.set(AttrId::ForcedColors, false);
        fp.set(AttrId::ReducedMotion, false);
        fp.set(AttrId::ScreenFrame, i64::from(device.screen_frame));
        fp.set(AttrId::TouchSupport, memo.text(device.touch_summary()));
        fp.set(AttrId::MaxTouchPoints, i64::from(device.max_touch_points));

        // Locale / location.
        fp.set(AttrId::Timezone, memo.text(locale.timezone));
        fp.set(AttrId::TimezoneOffset, i64::from(locale.offset_minutes));
        fp.set(AttrId::Language, memo.text(locale.language));
        fp.set(AttrId::Languages, memo.list(locale.languages));
        fp.set(AttrId::NavGeoRegion, memo.text(locale.geo_region));

        // Rendering / fonts.
        let fonts: &'static [&'static str] = match device.kind {
            DeviceKind::WindowsDesktop => &catalog::WINDOWS_FONTS,
            DeviceKind::Mac | DeviceKind::IPhone | DeviceKind::IPad => &catalog::APPLE_FONTS,
            DeviceKind::LinuxDesktop => &catalog::LINUX_FONTS,
            _ => &catalog::ANDROID_FONTS,
        };
        fp.set(AttrId::Fonts, memo.list(fonts));
        fp.set(
            AttrId::MonospaceWidth,
            AttrValue::float(catalog::monospace_width_for_os(device.kind.ua_os())),
        );
        let canvas = *memo
            .canvas
            .entry((static_key(device.webgl_renderer.as_bytes()), browser.family))
            .or_insert_with(|| AttrValue::text(&Self::canvas_digest(device, browser)));
        fp.set(AttrId::Canvas, canvas);
        fp.set(
            AttrId::Audio,
            AttrValue::float(Self::audio_value(device, browser)),
        );
        fp.set(AttrId::WebGlVendor, memo.text(device.webgl_vendor));
        fp.set(AttrId::WebGlRenderer, memo.text(device.webgl_renderer));

        // Storage.
        fp.set(AttrId::SessionStorage, true);
        fp.set(AttrId::LocalStorage, true);
        fp.set(AttrId::IndexedDb, true);

        // HTTP header layer. Accept-Language derives from the language
        // list; client hints exist only on Chromium engines and always
        // agree with the real platform there.
        let accept_language = *memo
            .accept_language
            .entry(static_key(locale.languages))
            .or_insert_with(|| AttrValue::text(&Self::accept_language(locale)));
        fp.set(AttrId::AcceptLanguage, accept_language);
        if let Some(sec_ch_ua) = ua.sec_ch_ua {
            fp.set(AttrId::SecChUa, sec_ch_ua);
            fp.set(AttrId::SecChUaPlatform, memo.text(ch_platform(device.kind)));
            fp.set(
                AttrId::SecChUaMobile,
                memo.text(if device.kind.is_mobile() { "?1" } else { "?0" }),
            );
        }

        fp
    }

    /// `Accept-Language` as browsers derive it from `navigator.languages`.
    fn accept_language(locale: &LocaleSpec) -> String {
        let mut parts = Vec::with_capacity(locale.languages.len());
        for (i, lang) in locale.languages.iter().enumerate() {
            if i == 0 {
                parts.push((*lang).to_owned());
            } else {
                parts.push(format!("{lang};q=0.{}", 9 - i.min(8)));
            }
        }
        parts.join(",")
    }

    /// Sample a fully consistent fingerprint for a random real device of
    /// `kind` (device + default browser + supplied locale).
    pub fn sample_consistent(
        kind: DeviceKind,
        locale: &LocaleSpec,
        rng: &mut Splittable,
    ) -> Fingerprint {
        let device = DeviceProfile::sample(kind, rng);
        let defaults = BrowserFamily::defaults_for(kind);
        let weights: Vec<f64> = defaults.iter().map(|(_, w)| *w).collect();
        let family = defaults[rng.pick_weighted(&weights)].0;
        let browser = BrowserProfile::contemporary(family, rng);
        Self::collect(&device, &browser, locale)
    }

    /// Canvas digests are stable per (GPU, engine) pair — two identical
    /// devices render identically.
    fn canvas_digest(device: &DeviceProfile, browser: &BrowserProfile) -> String {
        let h = fp_types::mix3(
            0xCA17A5,
            fnv(device.webgl_renderer),
            fnv(browser.family.name()),
        );
        format!("canvas:{h:016x}")
    }

    /// OfflineAudioContext values cluster by engine family.
    fn audio_value(device: &DeviceProfile, browser: &BrowserProfile) -> f64 {
        let base = if browser.family.is_chromium() {
            124.043
        } else {
            35.749
        };
        let jitter = (fp_types::mix2(fnv(device.webgl_renderer), fnv(browser.family.name())) % 1000)
            as f64
            / 1e6;
        base + jitter
    }
}

/// `Sec-CH-UA-Platform` value for a device kind (Chromium's vocabulary).
pub fn ch_platform(kind: DeviceKind) -> &'static str {
    match kind {
        DeviceKind::WindowsDesktop => "Windows",
        DeviceKind::Mac => "macOS",
        DeviceKind::LinuxDesktop => "Linux",
        DeviceKind::AndroidPhone | DeviceKind::AndroidTablet => "Android",
        // No Chromium engine exists on iOS; the value is never emitted
        // there by a truthful client.
        DeviceKind::IPhone | DeviceKind::IPad => "iOS",
    }
}

fn fnv(s: &str) -> u64 {
    let mut h = Fnv64::default();
    h.write(s.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_one(kind: DeviceKind, family: BrowserFamily) -> Fingerprint {
        let mut rng = Splittable::new(11);
        let d = DeviceProfile::sample(kind, &mut rng);
        let b = BrowserProfile::contemporary(family, &mut rng);
        Collector::collect(&d, &b, &LocaleSpec::en_us())
    }

    #[test]
    fn iphone_fingerprint_is_complete_and_consistent() {
        let fp = collect_one(DeviceKind::IPhone, BrowserFamily::MobileSafari);
        assert_eq!(fp.get(AttrId::UaDevice).as_str(), Some("iPhone"));
        assert_eq!(fp.get(AttrId::Platform).as_str(), Some("iPhone"));
        assert_eq!(fp.get(AttrId::MaxTouchPoints).as_int(), Some(5));
        assert_eq!(
            fp.get(AttrId::TouchSupport).as_str(),
            Some("touchEvent/touchStart")
        );
        assert_eq!(
            fp.get(AttrId::Vendor).as_str(),
            Some("Apple Computer, Inc.")
        );
        assert!(
            fp.get(AttrId::DeviceMemory).is_missing(),
            "Safari has no deviceMemory API"
        );
        let res = fp.get(AttrId::ScreenResolution).as_resolution().unwrap();
        assert!(catalog::is_real_iphone_resolution(res));
        assert!(fp.get(AttrId::Plugins).as_list().unwrap().is_empty());
    }

    #[test]
    fn windows_chrome_fingerprint() {
        let fp = collect_one(DeviceKind::WindowsDesktop, BrowserFamily::Chrome);
        assert_eq!(fp.get(AttrId::Platform).as_str(), Some("Win32"));
        assert_eq!(fp.get(AttrId::Vendor).as_str(), Some("Google Inc."));
        assert_eq!(fp.get(AttrId::Plugins).as_list().unwrap().len(), 5);
        assert!(!fp.get(AttrId::DeviceMemory).is_missing());
        assert_eq!(fp.get(AttrId::MaxTouchPoints).as_int(), Some(0));
        assert!(fp.get(AttrId::MonospaceWidth).as_f64().unwrap() < 131.5);
    }

    #[test]
    fn firefox_has_oscpu_but_no_device_memory() {
        let fp = collect_one(DeviceKind::LinuxDesktop, BrowserFamily::Firefox);
        assert!(!fp.get(AttrId::OsCpu).is_missing());
        assert!(fp.get(AttrId::DeviceMemory).is_missing());
        assert_eq!(fp.get(AttrId::ProductSub).as_str(), Some("20100101"));
    }

    #[test]
    fn collection_is_deterministic() {
        let a = collect_one(DeviceKind::Mac, BrowserFamily::Safari);
        let b = collect_one(DeviceKind::Mac, BrowserFamily::Safari);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn sample_consistent_produces_valid_browser_for_kind() {
        let mut rng = Splittable::new(5);
        for kind in DeviceKind::ALL {
            for _ in 0..10 {
                let fp = Collector::sample_consistent(kind, &LocaleSpec::en_us(), &mut rng);
                assert_eq!(fp.get(AttrId::UaOs).as_str(), Some(kind.ua_os()));
                assert_eq!(fp.get(AttrId::Webdriver).as_int(), Some(0));
            }
        }
    }

    /// The memoised values are the values: a first call equals a repeat
    /// on the same thread and a cold call on another, and the UA and list
    /// attributes equal what synthesis, parsing and joining give directly.
    #[test]
    fn memoised_collection_equals_direct_construction() {
        let locales = [
            LocaleSpec::en_us(),
            LocaleSpec {
                timezone: "Europe/Paris",
                offset_minutes: -60,
                language: "fr-FR",
                languages: &["fr-FR", "fr", "en-US"],
                geo_region: "France/Ile-de-France",
            },
            LocaleSpec {
                timezone: "Asia/Tokyo",
                offset_minutes: -540,
                language: "ja-JP",
                languages: &["ja-JP", "ja"],
                geo_region: "Japan/Tokyo",
            },
        ];
        let mut rng = Splittable::new(0xC011EC7);
        // Three draws per pair, so one thread sees several majors and
        // Android models under the same kind and family.
        let draws = DeviceKind::ALL
            .iter()
            .flat_map(|&kind| BrowserFamily::ALL.map(|family| (kind, family)))
            .flat_map(|pair| [pair; 3]);
        for (kind, family) in draws {
            let device = DeviceProfile::sample(kind, &mut rng);
            let browser = BrowserProfile::contemporary(family, &mut rng);
            for locale in &locales {
                let first = Collector::collect(&device, &browser, locale);
                assert_eq!(first, Collector::collect(&device, &browser, locale));
                let elsewhere = std::thread::scope(|s| {
                    s.spawn(|| Collector::collect(&device, &browser, locale))
                        .join()
                        .unwrap()
                });
                assert_eq!(first, elsewhere, "{kind:?}/{family:?} on another thread");

                let ua_string = ua::synthesize(&device, &browser);
                let parsed = ua::parse_user_agent(&ua_string);
                let text = |id| first.get(id).as_str();
                assert_eq!(text(AttrId::UserAgent), Some(ua_string.as_str()));
                assert_eq!(text(AttrId::UaDevice), Some(parsed.device.as_str()));
                assert_eq!(text(AttrId::UaBrowser), Some(parsed.browser.as_str()));
                assert_eq!(text(AttrId::UaOs), Some(parsed.os.as_str()));
                let lists = [
                    (AttrId::VendorFlavors, family.vendor_flavors()),
                    (AttrId::Plugins, family.plugins(kind)),
                    (AttrId::MimeTypes, family.mime_types(kind)),
                    (AttrId::Languages, locale.languages),
                ];
                for (id, items) in lists {
                    assert_eq!(*first.get(id), AttrValue::list(items.iter().copied()));
                }
                assert_eq!(
                    first.get(AttrId::SecChUa).is_missing(),
                    !family.is_chromium()
                );
            }
        }
    }

    #[test]
    fn avail_resolution_subtracts_frame() {
        let fp = collect_one(DeviceKind::WindowsDesktop, BrowserFamily::Chrome);
        let (w, h) = fp.get(AttrId::ScreenResolution).as_resolution().unwrap();
        let (aw, ah) = fp.get(AttrId::AvailResolution).as_resolution().unwrap();
        let frame = fp.get(AttrId::ScreenFrame).as_int().unwrap() as u16;
        assert_eq!(aw, w);
        assert_eq!(ah, h - frame);
    }
}
