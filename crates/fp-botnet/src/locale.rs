//! Region → browser locale mapping, and the geo-mismatch draw. Regions
//! are indices into [`REGIONS`], as [`fp_netsim::NetDb::lookup`] reports
//! them.

use fp_fingerprint::LocaleSpec;
use fp_netsim::REGIONS;
use fp_types::Splittable;
use std::sync::OnceLock;

/// Languages per country (first entry is `navigator.language`).
fn languages_for(country: &str) -> &'static [&'static str] {
    match country {
        "France" => &["fr-FR", "fr", "en-US"],
        "Germany" => &["de-DE", "de", "en-US"],
        "United Kingdom" => &["en-GB", "en"],
        "Netherlands" => &["nl-NL", "nl", "en-US"],
        "Mexico" => &["es-MX", "es", "en-US"],
        "Singapore" => &["en-SG", "en", "zh-SG"],
        "China" => &["zh-CN", "zh"],
        "Japan" => &["ja-JP", "ja"],
        "New Zealand" => &["en-NZ", "en"],
        "Brazil" => &["pt-BR", "pt", "en-US"],
        "India" => &["en-IN", "en", "hi-IN"],
        _ => &["en-US", "en"],
    }
}

/// The locale a truthful browser in region `region` presents.
pub fn locale_for_region(region: usize) -> LocaleSpec {
    mismatched_locale(region, region)
}

/// MaxMind-style `Country/Region` label of region `region`, formatted and
/// interned on the region's first use and reused after.
pub fn region_label(region: usize) -> &'static str {
    static LABELS: [OnceLock<&'static str>; REGIONS.len()] =
        [const { OnceLock::new() }; REGIONS.len()];
    LABELS[region].get_or_init(|| {
        let r = &REGIONS[region];
        fp_types::sym(&format!("{}/{}", r.country, r.name)).as_str()
    })
}

/// Regions bots leak when their timezone alteration misses the target
/// (Table 6's Location rows: America/Los_Angeles under French/German/
/// Singaporean IPs, Asia/Shanghai and Pacific/Auckland under US IPs).
pub fn mismatch_region(rng: &mut Splittable) -> usize {
    // California (LA), Shanghai, Auckland.
    const CANDIDATES: [usize; 3] = [0, 19, 21];
    CANDIDATES[rng.pick_weighted(&[0.60, 0.25, 0.15])]
}

/// A locale whose timezone (and geolocation hint) belongs to `leak` while
/// the languages pretend to be from `claimed` — what a bot with a half-done
/// geo alteration presents.
pub fn mismatched_locale(claimed: usize, leak: usize) -> LocaleSpec {
    let langs = languages_for(REGIONS[claimed].country);
    let leak_region = &REGIONS[leak];
    LocaleSpec {
        timezone: leak_region.timezone,
        offset_minutes: leak_region.offset_minutes,
        language: langs[0],
        languages: langs,
        geo_region: region_label(leak),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_netsim::geo::regions_of;

    #[test]
    fn locale_matches_region_timezone() {
        for (i, region) in REGIONS.iter().enumerate() {
            let l = locale_for_region(i);
            assert_eq!(l.timezone, region.timezone);
            assert_eq!(l.offset_minutes, region.offset_minutes);
            assert!(!l.languages.is_empty());
        }
    }

    #[test]
    fn french_region_speaks_french() {
        let l = locale_for_region(regions_of("France")[0]);
        assert_eq!(l.language, "fr-FR");
    }

    #[test]
    fn region_label_format() {
        let idx = regions_of("France")
            .into_iter()
            .find(|&i| REGIONS[i].name == "Hauts-de-France")
            .unwrap();
        assert_eq!(region_label(idx), "France/Hauts-de-France");
        assert!(std::ptr::eq(region_label(idx), region_label(idx)));
    }

    #[test]
    fn mismatch_regions_are_offset_distant() {
        let mut rng = Splittable::new(1);
        let paris = &REGIONS[regions_of("France")[0]];
        for _ in 0..50 {
            let leak = &REGIONS[mismatch_region(&mut rng)];
            assert_ne!(leak.offset_minutes, paris.offset_minutes, "{}", leak.name);
        }
    }

    #[test]
    fn mismatched_locale_mixes_sources() {
        let l = mismatched_locale(9, 0);
        assert_eq!(REGIONS[9].country, "France");
        assert_eq!(l.timezone, "America/Los_Angeles");
        assert_eq!(l.language, "fr-FR", "languages still claim France");
        assert!(l.geo_region.starts_with("United States"));
    }
}
