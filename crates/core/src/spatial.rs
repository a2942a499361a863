//! Algorithm 1: data-driven spatial inconsistency mining.
//!
//! Real devices have a limited number of configurations; evasive bots,
//! altering attributes piecemeal, manufacture configurations that do not
//! exist. The miner measures that explosion on the *undetected pool* (the
//! requests the anti-bot services passed — Algorithm 1's `D'`), ranks each
//! attribute pair's values by how many distinct partner values they
//! co-occur with, and asks the confirmation step whether the concrete
//! combination is possible. Confirmed-impossible pairs with enough support
//! become filter rules.
//!
//! The paper's confirmation step is a human ("semi-automatic"); here it is
//! the device-catalogue validity oracle plus the UTC-offset check for the
//! Location category and the UA↔JA3 map for the cross-layer extension —
//! the same judgements, reproducible.

use crate::attrs::AnalysisAttr;
use crate::categories::CATEGORIES;
use crate::rules::{RuleSet, SpatialRule};
use fp_fingerprint::{Plausibility, ValidityOracle};
use fp_honeysite::{RequestStore, StoredRequest};
use fp_netsim::geo::offset_of_timezone;
use fp_tls::expected_ja3_for_ua_browser;
use fp_types::{AttrId, AttrValue};
use std::collections::HashMap;

/// Mining parameters.
#[derive(Clone, Copy, Debug)]
pub struct MineConfig {
    /// Minimum occurrences of a concrete value pair before it can become a
    /// rule (guards against one-off noise; the §7.3 generalisation
    /// experiment depends on rules having real support).
    pub min_support: u64,
    /// Per attribute pair, only the most-exploded `value_budget` left-hand
    /// values are examined (the prioritisation that makes the paper's
    /// semi-automatic review tractable).
    pub value_budget: usize,
    /// Include the cross-layer TLS category (§8.2 extension; off for
    /// paper-table reproduction).
    pub include_cross_layer: bool,
    /// Mine only requests that evaded at least one anti-bot service
    /// (Algorithm 1's `D'`); turning this off mines everything.
    pub undetected_pool_only: bool,
}

impl Default for MineConfig {
    fn default() -> Self {
        MineConfig {
            min_support: 3,
            value_budget: 400,
            include_cross_layer: false,
            undetected_pool_only: true,
        }
    }
}

/// Confirmation-step verdict for one concrete value pair.
pub fn confirm_impossible(
    a: AnalysisAttr,
    va: &AttrValue,
    b: AnalysisAttr,
    vb: &AttrValue,
) -> bool {
    match (a, b) {
        (AnalysisAttr::Fp(ia), AnalysisAttr::Fp(ib)) => {
            if let Some(v) = cross_layer_verdict(ia, va, ib, vb) {
                return v;
            }
            ValidityOracle::judge(ia, va, ib, vb) == Plausibility::Impossible
        }
        // IP region vs browser timezone: impossible when the UTC offsets
        // disagree (the paper's conservative same-offset matching, §6.2).
        (AnalysisAttr::IpRegion, AnalysisAttr::Fp(AttrId::Timezone))
        | (AnalysisAttr::Fp(AttrId::Timezone), AnalysisAttr::IpRegion) => {
            let (region, tz) = if matches!(a, AnalysisAttr::IpRegion) {
                (va, vb)
            } else {
                (vb, va)
            };
            match (
                region_offset(region),
                tz.as_str().and_then(offset_of_timezone),
            ) {
                (Some(r), Some(t)) => r != t,
                _ => false,
            }
        }
        // IP offset vs reported `getTimezoneOffset()`.
        (AnalysisAttr::IpUtcOffset, AnalysisAttr::Fp(AttrId::TimezoneOffset))
        | (AnalysisAttr::Fp(AttrId::TimezoneOffset), AnalysisAttr::IpUtcOffset) => {
            match (va.as_int(), vb.as_int()) {
                (Some(x), Some(y)) => x != y,
                _ => false,
            }
        }
        // IP region vs its own offset is consistent by construction; other
        // combinations are unknown — never a rule.
        _ => false,
    }
}

/// UA browser ↔ JA3/JA4: a browser family greeting with another stack's
/// TLS shape (cross-layer extension).
fn cross_layer_verdict(ia: AttrId, va: &AttrValue, ib: AttrId, vb: &AttrValue) -> Option<bool> {
    let (browser, digest, which) = match (ia, ib) {
        (AttrId::UaBrowser, AttrId::Ja3) => (va, vb, AttrId::Ja3),
        (AttrId::Ja3, AttrId::UaBrowser) => (vb, va, AttrId::Ja3),
        (AttrId::UaBrowser, AttrId::Ja4) => (va, vb, AttrId::Ja4),
        (AttrId::Ja4, AttrId::UaBrowser) => (vb, va, AttrId::Ja4),
        _ => return None,
    };
    let browser = browser.as_str()?;
    let digest = digest.as_str()?;
    let expected = if which == AttrId::Ja3 {
        expected_ja3_for_ua_browser(browser)?
    } else {
        fp_tls::TlsClientKind::for_ua_browser(browser)?.ja4()
    };
    Some(digest != expected)
}

/// Offset of a MaxMind-style `Country/Region` label.
fn region_offset(region: &AttrValue) -> Option<i32> {
    let label = region.as_str()?;
    let (country, name) = label.split_once('/')?;
    fp_netsim::REGIONS
        .iter()
        .find(|r| r.country == country && r.name == name)
        .map(|r| r.offset_minutes)
}

/// Mine one attribute pair over the undetected pool.
fn mine_pair(
    pool: &[&StoredRequest],
    a: AnalysisAttr,
    b: AnalysisAttr,
    config: &MineConfig,
) -> Vec<SpatialRule> {
    // Count configurations: v_a → (v_b → support).
    let mut configs: HashMap<AttrValue, HashMap<AttrValue, u64>> = HashMap::new();
    for r in pool {
        let va = a.value_of(r);
        if va.is_missing() {
            continue;
        }
        let vb = b.value_of(r);
        if vb.is_missing() {
            continue;
        }
        *configs.entry(va).or_default().entry(vb).or_default() += 1;
    }

    // Rank left-hand values by configuration explosion, descending
    // (the §7.1 prioritisation), and spend the review budget top down.
    let mut ranked: Vec<(&AttrValue, &HashMap<AttrValue, u64>)> = configs.iter().collect();
    ranked.sort_by(|(va1, m1), (va2, m2)| {
        m2.len()
            .cmp(&m1.len())
            .then_with(|| format!("{va1:?}").cmp(&format!("{va2:?}")))
    });
    let mut rules = Vec::new();
    for (va, partners) in ranked.into_iter().take(config.value_budget) {
        for (vb, support) in partners {
            if *support < config.min_support {
                continue;
            }
            if confirm_impossible(a, va, b, vb) {
                rules.push(SpatialRule::new(a, *va, b, *vb));
            }
        }
    }
    rules
}

/// Run Algorithm 1 over a recorded store (see [`mine_records`]).
pub fn mine(store: &RequestStore, config: &MineConfig) -> RuleSet {
    mine_records(store.iter(), config)
}

/// Run Algorithm 1 over any arrival-ordered record view — the re-entrant
/// form the re-mining defense member feeds with its incremental window
/// (seed traffic plus each completed arena round). Attribute pairs are
/// independent, so they are mined in parallel on `std::thread::scope` threads
/// (round-robin over the category pair list) and merged back in pair order
/// — the rule set is identical to a sequential run.
pub fn mine_records<'a>(
    records: impl IntoIterator<Item = &'a StoredRequest>,
    config: &MineConfig,
) -> RuleSet {
    let dd = fp_types::detect::provenance::datadome_sym();
    let botd = fp_types::detect::provenance::botd_sym();
    let pool: Vec<&StoredRequest> = records
        .into_iter()
        .filter(|r| {
            !config.undetected_pool_only || !r.verdicts.bot_sym(dd) || !r.verdicts.bot_sym(botd)
        })
        .collect();

    let pairs: Vec<(AnalysisAttr, AnalysisAttr)> = CATEGORIES
        .iter()
        .filter(|category| category.in_paper || config.include_cross_layer)
        .flat_map(|category| category.pairs())
        .collect();

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(pairs.len().max(1));

    let pool = &pool;
    let pairs = &pairs;
    let per_pair: Vec<Vec<SpatialRule>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    pairs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % workers == w)
                        .map(|(i, (a, b))| (i, mine_pair(pool, *a, *b, config)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut indexed: Vec<(usize, Vec<SpatialRule>)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("mining worker panicked"))
            .collect();
        indexed.sort_by_key(|(i, _)| *i);
        indexed.into_iter().map(|(_, rules)| rules).collect()
    });

    let mut rules = RuleSet::new();
    for pair_rules in per_pair {
        for rule in pair_rules {
            rules.add(rule);
        }
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_honeysite::StoredRequest;
    use fp_types::{sym, BehaviorTrace, Fingerprint, SimTime, TrafficSource, VerdictSet};

    fn store_with(rows: Vec<(Fingerprint, &'static str, i32, bool)>) -> RequestStore {
        // (fingerprint, ip_region, ip_offset, evaded)
        let mut store = RequestStore::new();
        for (fingerprint, region, offset, evaded) in rows {
            store.push(StoredRequest {
                id: 0,
                time: SimTime::EPOCH,
                site_token: sym("t"),
                ip_hash: 1,
                ip_offset_minutes: offset,
                ip_region: sym(region),
                ip_lat: 0.0,
                ip_lon: 0.0,
                asn: 1,
                asn_flagged: false,
                ip_blocklisted: false,
                tor_exit: false,
                cookie: 1,
                tls: fp_types::TlsFacet::unobserved(),
                fingerprint,
                source: TrafficSource::RealUser,
                behavior: BehaviorTrace::silent(),
                cadence: fp_types::BehaviorFacet::unobserved(),
                verdicts: VerdictSet::from_services(!evaded, !evaded),
            });
        }
        store
    }

    fn fake_iphone() -> Fingerprint {
        Fingerprint::new()
            .with(AttrId::UaDevice, "iPhone")
            .with(AttrId::ScreenResolution, (1920u16, 1080u16))
            .with(AttrId::MaxTouchPoints, 0i64)
    }

    fn real_iphone() -> Fingerprint {
        Fingerprint::new()
            .with(AttrId::UaDevice, "iPhone")
            .with(AttrId::ScreenResolution, (390u16, 844u16))
            .with(AttrId::MaxTouchPoints, 5i64)
    }

    #[test]
    fn mines_impossible_pairs_with_support() {
        let rows = (0..5)
            .map(|_| {
                (
                    fake_iphone(),
                    "United States of America/California",
                    480,
                    true,
                )
            })
            .chain((0..5).map(|_| {
                (
                    real_iphone(),
                    "United States of America/California",
                    480,
                    true,
                )
            }))
            .collect();
        let store = store_with(rows);
        let rules = mine(&store, &MineConfig::default());
        assert!(!rules.is_empty());
        // The fake pair became a rule; the real one did not.
        assert!(rules.matches(store.get(0).unwrap()));
        assert!(!rules.matches(store.get(5).unwrap()));
    }

    #[test]
    fn support_threshold_suppresses_one_offs() {
        let mut rows = vec![(
            fake_iphone(),
            "United States of America/California",
            480,
            true,
        )];
        rows.extend((0..5).map(|_| {
            (
                real_iphone(),
                "United States of America/California",
                480,
                true,
            )
        }));
        let store = store_with(rows);
        let rules = mine(
            &store,
            &MineConfig {
                min_support: 3,
                ..MineConfig::default()
            },
        );
        assert!(rules.is_empty(), "single occurrence must not become a rule");
        let rules = mine(
            &store,
            &MineConfig {
                min_support: 1,
                ..MineConfig::default()
            },
        );
        assert!(!rules.is_empty());
    }

    #[test]
    fn detected_requests_are_outside_the_pool() {
        let rows = (0..5)
            .map(|_| {
                (
                    fake_iphone(),
                    "United States of America/California",
                    480,
                    false,
                )
            })
            .collect();
        let store = store_with(rows);
        let rules = mine(&store, &MineConfig::default());
        assert!(rules.is_empty(), "already-detected traffic is not D'");
        let rules = mine(
            &store,
            &MineConfig {
                undetected_pool_only: false,
                ..MineConfig::default()
            },
        );
        assert!(!rules.is_empty());
    }

    #[test]
    fn location_mismatch_is_mined() {
        let fp = || {
            Fingerprint::new()
                .with(AttrId::Timezone, "America/Los_Angeles")
                .with(AttrId::TimezoneOffset, 480i64)
        };
        let rows = (0..4)
            .map(|_| (fp(), "France/Hauts-de-France", -60, true))
            .collect();
        let store = store_with(rows);
        let rules = mine(&store, &MineConfig::default());
        let listed = rules.to_filter_list();
        assert!(
            listed.contains("timezone=America/Los_Angeles AND ip_region=France/Hauts-de-France"),
            "{listed}"
        );
        assert!(rules.matches(store.get(0).unwrap()));
    }

    #[test]
    fn consistent_location_is_not_mined() {
        let fp = || {
            Fingerprint::new()
                .with(AttrId::Timezone, "Europe/Paris")
                .with(AttrId::TimezoneOffset, -60i64)
        };
        let rows = (0..4)
            .map(|_| (fp(), "France/Hauts-de-France", -60, true))
            .collect();
        let store = store_with(rows);
        assert!(mine(&store, &MineConfig::default()).is_empty());
    }

    #[test]
    fn cross_layer_requires_opt_in() {
        let fp = || {
            Fingerprint::new()
                .with(AttrId::UaBrowser, "Chrome")
                .with(AttrId::Ja3, fp_tls::TlsClientKind::GoHttp.ja3())
        };
        let rows = (0..4)
            .map(|_| (fp(), "United States of America/California", 480, true))
            .collect();
        let store = store_with(rows);
        assert!(mine(&store, &MineConfig::default()).is_empty());
        let rules = mine(
            &store,
            &MineConfig {
                include_cross_layer: true,
                ..MineConfig::default()
            },
        );
        assert_eq!(rules.len(), 1);
    }

    #[test]
    fn truthful_tls_is_not_flagged_cross_layer() {
        let fp = || {
            Fingerprint::new()
                .with(AttrId::UaBrowser, "Chrome")
                .with(AttrId::Ja3, fp_tls::TlsClientKind::Chromium.ja3())
        };
        let rows = (0..4)
            .map(|_| (fp(), "United States of America/California", 480, true))
            .collect();
        let store = store_with(rows);
        let rules = mine(
            &store,
            &MineConfig {
                include_cross_layer: true,
                ..MineConfig::default()
            },
        );
        assert!(rules.is_empty());
    }

    #[test]
    fn confirm_is_conservative_on_unknowns() {
        assert!(!confirm_impossible(
            AnalysisAttr::Fp(AttrId::Canvas),
            &AttrValue::text("canvas:x"),
            AnalysisAttr::Fp(AttrId::Audio),
            &AttrValue::float(1.0),
        ));
        assert!(!confirm_impossible(
            AnalysisAttr::IpRegion,
            &AttrValue::text("Atlantis/Deep"),
            AnalysisAttr::Fp(AttrId::Timezone),
            &AttrValue::text("America/Los_Angeles"),
        ));
    }
}
