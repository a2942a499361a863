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
//! Mining is two steps over one intermediate, the [`PairCounts`] summary:
//! for every mined attribute pair, the pool's `(left value, right value)
//! → support` counts, kept as one flat run list sorted by value. Counting
//! is the only step that reads records; ranking and confirmation read the
//! summary alone. Summaries of disjoint record sets merge by a linear
//! sorted-run merge into exactly the summary of their union, so a
//! re-miner that keeps one summary per sealed store segment
//! ([`crate::defense::SpatialMember`]) counts each segment once and ranks
//! the merge. [`mine_records`] is the one-shot form: count, then rank.
//!
//! The paper's confirmation step is a human ("semi-automatic"); here it is
//! the device-catalogue validity oracle plus the UTC-offset check for the
//! Location category and the UA↔JA3 map for the cross-layer extension —
//! the same judgements, reproducible.

use crate::attrs::AnalysisAttr;
use crate::categories::CATEGORIES;
use crate::rulepack::value_rank;
use crate::rules::{RuleSet, SpatialRule};
use fp_fingerprint::{Plausibility, ValidityOracle};
use fp_honeysite::{RequestStore, StoredRequest};
use fp_netsim::geo::offset_of_timezone;
use fp_tls::expected_ja3_for_ua_browser;
use fp_types::par::map_indexed;
use fp_types::{AttrId, AttrValue};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::fmt::Write;
use std::ops::Range;

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

/// The attribute pairs `config` mines, in rule-set order: the within-
/// category pairs of every category in scope.
fn mined_pairs(config: &MineConfig) -> Vec<(AnalysisAttr, AnalysisAttr)> {
    CATEGORIES
        .iter()
        .filter(|category| category.in_paper || config.include_cross_layer)
        .flat_map(|category| category.pairs())
        .collect()
}

/// One configuration of an attribute pair and how often the pool showed it.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Config {
    left: AttrValue,
    right: AttrValue,
    support: u64,
}

/// The run-list order: left value, then right value, by
/// [`value_rank`] (any total order consistent with equality works; this
/// one is integer compares).
fn config_order(c: &Config) -> ((u8, u64, u64), (u8, u64, u64)) {
    (value_rank(&c.left), value_rank(&c.right))
}

/// Merge sorted run lists into one, summing the support of equal
/// configurations. Pairwise and balanced: `O(n log k)` for `k` lists.
fn merge_runs<'a>(lists: &[&'a [Config]]) -> Cow<'a, [Config]> {
    match lists {
        [] => Cow::Borrowed(&[]),
        [one] => Cow::Borrowed(one),
        _ => {
            let (left, right) = lists.split_at(lists.len() / 2);
            let (x, y) = (merge_runs(left), merge_runs(right));
            let mut merged = Vec::with_capacity(x.len() + y.len());
            let (mut i, mut j) = (0, 0);
            while i < x.len() && j < y.len() {
                match config_order(&x[i]).cmp(&config_order(&y[j])) {
                    std::cmp::Ordering::Less => {
                        merged.push(x[i]);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push(y[j]);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push(Config {
                            support: x[i].support + y[j].support,
                            ..x[i]
                        });
                        i += 1;
                        j += 1;
                    }
                }
            }
            merged.extend_from_slice(&x[i..]);
            merged.extend_from_slice(&y[j..]);
            Cow::Owned(merged)
        }
    }
}

/// A sorted run list split by left value: one slice per distinct left
/// value, its length the value's partner count.
fn left_groups(runs: &[Config]) -> impl Iterator<Item = &[Config]> {
    runs.chunk_by(|x, y| x.left == y.left)
}

/// One attribute over a pool: its distinct values in [`value_rank`]
/// order, and each pool record's value as an index into them.
struct Column {
    values: Vec<AttrValue>,
    ids: Vec<u32>,
}

impl Column {
    /// The id of a missing value.
    const MISSING: u32 = u32::MAX;

    fn gather(pool: &[&StoredRequest], attr: AnalysisAttr) -> Column {
        assert!(
            pool.len() < Column::MISSING as usize,
            "pool too large for u32 value ids"
        );
        let mut present: Vec<(AttrValue, u32)> = pool
            .iter()
            .enumerate()
            .map(|(i, r)| (attr.value_of(r), i as u32))
            .filter(|(value, _)| !value.is_missing())
            .collect();
        present.sort_unstable_by_key(|(value, _)| value_rank(value));
        let mut column = Column {
            values: Vec::new(),
            ids: vec![Column::MISSING; pool.len()],
        };
        for (value, i) in present {
            if column.values.last() != Some(&value) {
                column.values.push(value);
            }
            column.ids[i as usize] = (column.values.len() - 1) as u32;
        }
        column
    }
}

/// Algorithm 1's counting step as a value: for each mined attribute pair
/// (in [`MineConfig`] pair order), the undetected pool's configurations
/// and their support, as one run list sorted by value — flat, so a
/// resident summary costs one `Vec` per pair.
///
/// A summary is bound to the [`MineConfig`] that counted it (the pair
/// list and the pool filter); [`PairCounts::merge`] and
/// [`PairCounts::rules`] take summaries of one config only.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PairCounts {
    pairs: Vec<Vec<Config>>,
}

impl PairCounts {
    /// Count the pool among `records` (every record when
    /// [`MineConfig::undetected_pool_only`] is off). A record counts
    /// toward a pair only when both of its values are present. Pairs are
    /// counted in parallel on scoped threads.
    pub fn count<'a>(
        records: impl IntoIterator<Item = &'a StoredRequest>,
        config: &MineConfig,
    ) -> PairCounts {
        let dd = fp_types::detect::provenance::datadome_sym();
        let botd = fp_types::detect::provenance::botd_sym();
        let pool: Vec<&StoredRequest> = records
            .into_iter()
            .filter(|r| {
                !config.undetected_pool_only || !r.verdicts.bot_sym(dd) || !r.verdicts.bot_sym(botd)
            })
            .collect();
        let pairs = mined_pairs(config);
        let mut attrs: Vec<AnalysisAttr> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        attrs.sort_unstable();
        attrs.dedup();
        let columns = map_indexed(attrs.len(), |i| Column::gather(&pool, attrs[i]));
        let column = |attr| &columns[attrs.binary_search(&attr).expect("a mined attribute")];
        let pairs = map_indexed(pairs.len(), |i| {
            let (a, b) = (column(pairs[i].0), column(pairs[i].1));
            // Value ids follow value order, so sorted keys are sorted runs.
            let mut keys: Vec<u64> = a
                .ids
                .iter()
                .zip(&b.ids)
                .filter(|&(&x, &y)| x != Column::MISSING && y != Column::MISSING)
                .map(|(&x, &y)| (u64::from(x) << 32) | u64::from(y))
                .collect();
            keys.sort_unstable();
            let mut runs: Vec<Config> = keys
                .chunk_by(|x, y| x == y)
                .map(|run| Config {
                    left: a.values[(run[0] >> 32) as usize],
                    right: b.values[(run[0] & 0xFFFF_FFFF) as usize],
                    support: run.len() as u64,
                })
                .collect();
            runs.shrink_to_fit();
            runs
        });
        PairCounts { pairs }
    }

    /// The summary of the union of the summarised record sets: exactly
    /// what [`PairCounts::count`] returns over their concatenation.
    pub fn merge(parts: &[&PairCounts]) -> PairCounts {
        let n = parts.first().map_or(0, |p| p.pairs.len());
        PairCounts {
            pairs: (0..n)
                .map(|i| merge_runs(&pair_lists(parts, i)).into_owned())
                .collect(),
        }
    }

    /// Number of attribute pairs summarised.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Pair `pair`'s left values with their distinct-partner counts (the
    /// configuration explosion Algorithm 1 ranks by), in run order.
    pub fn partner_counts(&self, pair: usize) -> Vec<(AttrValue, usize)> {
        left_groups(&self.pairs[pair])
            .map(|group| (group[0].left, group.len()))
            .collect()
    }

    /// Algorithm 1's rank and confirm steps over the merge of `parts`:
    /// per pair, the left values in [`review_order`] up to the value
    /// budget, and each of their configurations with enough support that
    /// the confirmation step judges impossible becomes a rule. Pairs are
    /// merged and ranked in parallel; rules land in pair order.
    pub fn rules(parts: &[&PairCounts], config: &MineConfig) -> RuleSet {
        let pairs = mined_pairs(config);
        assert!(
            parts.iter().all(|p| p.pairs.len() == pairs.len()),
            "summaries counted under another MineConfig"
        );
        let per_pair_rules = map_indexed(pairs.len(), |i| {
            let (a, b) = pairs[i];
            let runs = merge_runs(&pair_lists(parts, i));
            let groups: Vec<&[Config]> = left_groups(&runs).collect();
            let lefts: Vec<(AttrValue, usize)> = groups
                .iter()
                .map(|group| (group[0].left, group.len()))
                .collect();
            let mut rules = Vec::new();
            for g in review_order(&lefts, config.value_budget) {
                for c in groups[g] {
                    if c.support >= config.min_support
                        && confirm_impossible(a, &c.left, b, &c.right)
                    {
                        rules.push(SpatialRule::new(a, c.left, b, c.right));
                    }
                }
            }
            rules
        });
        let mut rules = RuleSet::new();
        for rule in per_pair_rules.into_iter().flatten() {
            rules.add(rule);
        }
        rules
    }
}

/// Pair `i`'s run list from each summary.
fn pair_lists<'a>(parts: &[&'a PairCounts], i: usize) -> Vec<&'a [Config]> {
    parts.iter().map(|p| &p.pairs[i][..]).collect()
}

/// The §7.1 review order over one pair's left values, cut at `budget`:
/// the indices into `lefts` of the `budget` values first by partner count
/// (descending), then by their `{:?}` rendering (ascending — string
/// order, so `Int(-5)` < `Int(10)` < `Int(2)`). Every value is rendered
/// once, into one shared buffer; the order is total because the
/// rendering is injective.
pub fn review_order(lefts: &[(AttrValue, usize)], budget: usize) -> Vec<usize> {
    let mut text = String::new();
    let spans: Vec<Range<usize>> = lefts
        .iter()
        .map(|(value, _)| {
            let start = text.len();
            write!(text, "{value:?}").expect("formatting into a String cannot fail");
            start..text.len()
        })
        .collect();
    let key = |i: &usize| (Reverse(lefts[*i].1), &text[spans[*i].clone()]);
    let mut order: Vec<usize> = (0..lefts.len()).collect();
    if budget < order.len() {
        order.select_nth_unstable_by(budget, |i, j| key(i).cmp(&key(j)));
        order.truncate(budget);
    }
    order.sort_unstable_by(|i, j| key(i).cmp(&key(j)));
    order
}

/// Run Algorithm 1 over a recorded store (see [`mine_records`]).
pub fn mine(store: &RequestStore, config: &MineConfig) -> RuleSet {
    mine_records(store.iter(), config)
}

/// Run Algorithm 1 over any arrival-ordered record view: count the pool
/// into one [`PairCounts`], then rank and confirm. The re-mining defense
/// member runs the same two steps, counting per sealed segment and
/// ranking the merge — the rule set is identical.
pub fn mine_records<'a>(
    records: impl IntoIterator<Item = &'a StoredRequest>,
    config: &MineConfig,
) -> RuleSet {
    PairCounts::rules(&[&PairCounts::count(records, config)], config)
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
    fn review_order_is_string_order_after_partner_count() {
        let lefts = [
            (AttrValue::Int(2), 1),
            (AttrValue::Int(10), 1),
            (AttrValue::Int(-5), 1),
            (AttrValue::Int(7), 3),
        ];
        // `Int(7)` has the most partners; then `{:?}` order, not numeric.
        assert_eq!(review_order(&lefts, 4), [3, 2, 1, 0]);
        assert_eq!(review_order(&lefts, 2), [3, 2], "the budget cuts a tie");
        assert!(review_order(&lefts, 0).is_empty());
    }

    #[test]
    fn per_segment_summaries_merge_to_the_window_count() {
        let rows = (0..4)
            .map(|_| (fake_iphone(), "France/Hauts-de-France", -60, true))
            .chain((0..3).map(|_| (real_iphone(), "France/Hauts-de-France", -60, true)))
            .chain((0..2).map(|_| (fake_iphone(), "France/Hauts-de-France", -60, false)))
            .collect();
        let store = store_with(rows);
        let records: Vec<StoredRequest> = store.iter().cloned().collect();
        let config = MineConfig::default();
        let halves = [&records[..3], &records[3..]].map(|part| PairCounts::count(part, &config));
        let whole = PairCounts::count(&records, &config);
        assert_eq!(PairCounts::merge(&[&halves[0], &halves[1]]), whole);
        assert_eq!(
            PairCounts::rules(&[&halves[0], &halves[1]], &config).content_hash(),
            mine(&store, &config).content_hash()
        );
        // Detected records are outside the pool: 7 counted, 2 resolutions
        // partner the one `iPhone` left value.
        let device_resolution = mined_pairs(&config)
            .iter()
            .position(|p| {
                *p == (
                    AnalysisAttr::Fp(AttrId::UaDevice),
                    AnalysisAttr::Fp(AttrId::ScreenResolution),
                )
            })
            .unwrap();
        assert_eq!(
            whole.partner_counts(device_resolution),
            [(AttrValue::text("iPhone"), 2)]
        );
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
