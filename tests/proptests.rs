//! Property-based tests over the core data structures and invariants.

use fp_inconsistent_core::attrs::AnalysisAttr;
use fp_inconsistent_core::spatial::{mine_records, review_order, PairCounts};
use fp_inconsistent_core::temporal::{CookieAnchor, IpAnchor};
use fp_inconsistent_core::{MineConfig, RulePack, RuleSet, SpatialRule};
use fp_tls::{ClientHello, Extension};
use fp_types::{sym, AttrId, AttrValue, CookieId, Detector, Fingerprint, StoredRequest};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------
// Generators.

fn arb_attr_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        Just(AttrValue::Missing),
        any::<bool>().prop_map(AttrValue::Bool),
        (-1_000_000i64..1_000_000).prop_map(AttrValue::Int),
        (-1_000_000i64..1_000_000).prop_map(AttrValue::Milli),
        (1u16..4096, 1u16..4096).prop_map(|(w, h)| AttrValue::Resolution(w, h)),
        "[a-zA-Z0-9 ._/-]{0,24}".prop_map(|s| AttrValue::text(&s)),
    ]
}

fn arb_attr_id() -> impl Strategy<Value = AttrId> {
    (0..AttrId::COUNT).prop_map(AttrId::from_index)
}

fn arb_fingerprint() -> impl Strategy<Value = Fingerprint> {
    proptest::collection::vec((arb_attr_id(), arb_attr_value()), 0..20).prop_map(|pairs| {
        let mut fp = Fingerprint::new();
        for (id, v) in pairs {
            fp.set(id, v);
        }
        fp
    })
}

// Rule values must survive the *display* form (the filter-list format), so
// restrict strings to the displayable subset without the separator.
fn arb_rule_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        any::<bool>().prop_map(AttrValue::Bool),
        (-100_000i64..100_000).prop_map(AttrValue::Int),
        (1u16..4000, 1u16..4000).prop_map(|(w, h)| AttrValue::Resolution(w, h)),
        // Exclude display forms that re-type on parse ("true"/"false") and
        // the clause separator — the miner's real values (attribute values
        // observed in browsers) never collide with either, see
        // `rules::parse_value`.
        // (The parser trims clause values, so values may not end in
        // whitespace either — browser attribute values never do.)
        "[a-zA-Z][a-zA-Z0-9 ._/-]{0,20}"
            .prop_filter("typed-literal or separator collision", |s| {
                s != "true" && s != "false" && !s.contains(" AND ") && !s.ends_with(' ')
            })
            .prop_map(|s| AttrValue::text(&s)),
    ]
}

fn arb_analysis_attr() -> impl Strategy<Value = AnalysisAttr> {
    prop_oneof![
        arb_attr_id().prop_map(AnalysisAttr::Fp),
        Just(AnalysisAttr::IpRegion),
        Just(AnalysisAttr::IpUtcOffset),
    ]
}

/// A bag of candidate rule clauses (self-pairs skipped at build time, the
/// same screen the miner applies).
fn arb_rule_bag() -> impl Strategy<Value = Vec<(AnalysisAttr, AttrValue, AnalysisAttr, AttrValue)>>
{
    proptest::collection::vec(
        (
            arb_analysis_attr(),
            arb_rule_value(),
            arb_analysis_attr(),
            arb_rule_value(),
        ),
        0..16,
    )
}

fn rule_set_of(bag: &[(AnalysisAttr, AttrValue, AnalysisAttr, AttrValue)]) -> RuleSet {
    let mut set = RuleSet::new();
    for (a, va, b, vb) in bag {
        if a != b {
            set.add(SpatialRule::new(*a, *va, *b, *vb));
        }
    }
    set
}

/// A neutral stored request the rule-equivalence properties mutate.
fn blank_request() -> StoredRequest {
    StoredRequest {
        id: 0,
        time: fp_types::SimTime::EPOCH,
        site_token: sym("t"),
        ip_hash: 0,
        ip_offset_minutes: 0,
        ip_region: sym("Nowhere/Central"),
        ip_lat: 0.0,
        ip_lon: 0.0,
        asn: 1,
        asn_flagged: false,
        ip_blocklisted: false,
        tor_exit: false,
        cookie: 0,
        tls: fp_types::TlsFacet::unobserved(),
        fingerprint: Fingerprint::new(),
        source: fp_types::TrafficSource::RealUser,
        behavior: fp_types::BehaviorTrace::silent(),
        cadence: fp_types::BehaviorFacet::unobserved(),
        verdicts: fp_types::VerdictSet::new(),
    }
}

/// Write `attr = v` onto a request where the request representation can
/// express it (an `ip_region` can only ever be a symbol, an `ip_utc_offset`
/// only an in-range integer — rules talking about other shapes there are
/// simply unmatchable, on both matchers alike).
fn apply_value(request: &mut StoredRequest, attr: AnalysisAttr, v: &AttrValue) {
    match attr {
        AnalysisAttr::Fp(id) => request.fingerprint.set(id, *v),
        AnalysisAttr::IpRegion => {
            if let AttrValue::Sym(s) = v {
                request.ip_region = *s;
            }
        }
        AnalysisAttr::IpUtcOffset => {
            if let AttrValue::Int(i) = v {
                request.ip_offset_minutes = *i as i32;
            }
        }
    }
}

/// Requests exercising the rule set: seeded from the rules themselves so
/// full matches, half matches (one clause only — the missing-attribute
/// edge) and clean requests all occur, plus fingerprint noise.
fn requests_for(set: &RuleSet, picks: &[(u64, u64)], noise: &Fingerprint) -> Vec<StoredRequest> {
    let rules: Vec<&SpatialRule> = set.iter().collect();
    let mut out = Vec::with_capacity(picks.len() + 1);
    // The all-missing request is always in the batch.
    out.push(blank_request());
    for &(sel, mode) in picks {
        let mut r = blank_request();
        if mode % 4 == 0 {
            r.fingerprint = noise.clone();
        }
        if !rules.is_empty() {
            let rule = rules[(sel % rules.len() as u64) as usize];
            apply_value(&mut r, rule.attr_a, &rule.value_a);
            // Half the picks complete the pair, half leave clause b
            // missing/neutral.
            if mode % 2 == 0 {
                apply_value(&mut r, rule.attr_b, &rule.value_b);
            }
            // Some picks then overlay a second rule's clauses on top.
            if mode % 3 == 0 {
                let other = rules[(mode % rules.len() as u64) as usize];
                apply_value(&mut r, other.attr_b, &other.value_b);
            }
        }
        out.push(r);
    }
    out
}

proptest! {
    // -----------------------------------------------------------------
    // Fingerprint invariants.

    #[test]
    fn fingerprint_serde_roundtrip(fp in arb_fingerprint()) {
        let json = serde_json::to_string(&fp).unwrap();
        let back: Fingerprint = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, fp);
    }

    #[test]
    fn fingerprint_digest_matches_equality(a in arb_fingerprint(), b in arb_fingerprint()) {
        if a == b {
            prop_assert_eq!(a.digest(), b.digest());
        }
        // (Collisions for a != b are possible in principle but must not be
        // produced by these tiny cases.)
        if a.digest() != b.digest() {
            prop_assert_ne!(a, b);
        }
    }

    #[test]
    fn set_then_get(id in arb_attr_id(), v in arb_attr_value()) {
        let mut fp = Fingerprint::new();
        fp.set(id, v);
        prop_assert_eq!(*fp.get(id), v);
        fp.clear(id);
        prop_assert!(fp.get(id).is_missing());
    }

    // -----------------------------------------------------------------
    // Filter-list format.

    #[test]
    fn filter_list_roundtrips(
        rules in proptest::collection::vec(
            (arb_analysis_attr(), arb_rule_value(), arb_analysis_attr(), arb_rule_value()),
            1..20,
        )
    ) {
        let mut set = RuleSet::new();
        for (a, va, b, vb) in rules {
            // Self-pairs cannot arise from the miner; skip them.
            if a == b {
                continue;
            }
            // Resolution display uses 'x'; a string value containing a
            // parsable "WxH" would be re-typed — the miner never produces
            // such strings, and neither does this generator.
            set.add(SpatialRule::new(a, va, b, vb));
        }
        let text = set.to_filter_list();
        let parsed = RuleSet::from_filter_list(&text);
        prop_assert!(parsed.is_ok(), "{:?}", parsed.err());
        let parsed = parsed.unwrap();
        prop_assert_eq!(parsed.len(), set.len());
        // Stable fixed point: rendering again is identical.
        prop_assert_eq!(parsed.to_filter_list(), text);
    }

    // -----------------------------------------------------------------
    // TLS wire format.

    #[test]
    fn clienthello_roundtrips(
        version in prop_oneof![Just(0x0301u16), Just(0x0303u16)],
        random in proptest::array::uniform32(any::<u8>()),
        session_id in proptest::collection::vec(any::<u8>(), 0..33),
        ciphers in proptest::collection::vec(any::<u16>(), 1..48),
        exts in proptest::collection::vec((any::<u16>(), proptest::collection::vec(any::<u8>(), 0..40)), 0..16),
    ) {
        let hello = ClientHello {
            version,
            random,
            session_id,
            cipher_suites: ciphers,
            compression: vec![0],
            extensions: exts.into_iter().map(|(t, body)| Extension { typ: t, body }).collect(),
        };
        let wire = hello.to_wire();
        let parsed = ClientHello::parse(&wire).unwrap();
        prop_assert_eq!(parsed, hello);
    }

    #[test]
    fn clienthello_rejects_every_truncation(
        ciphers in proptest::collection::vec(any::<u16>(), 1..8),
    ) {
        let hello = ClientHello {
            version: 0x0303,
            random: [9; 32],
            session_id: vec![1, 2, 3],
            cipher_suites: ciphers,
            compression: vec![0],
            extensions: vec![Extension::sni("p.example")],
        };
        let wire = hello.to_wire();
        for cut in 0..wire.len() {
            prop_assert!(ClientHello::parse(&wire[..cut]).is_err(), "prefix {cut} parsed");
        }
    }

    #[test]
    fn md5_streaming_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512), split in 1usize..64) {
        let oneshot = fp_tls::md5::md5(&data);
        let mut ctx = fp_tls::md5::Md5::new();
        for chunk in data.chunks(split) {
            ctx.update(chunk);
        }
        prop_assert_eq!(ctx.finalize(), oneshot);
    }

    // -----------------------------------------------------------------
    // Mixing / sampling invariants.

    #[test]
    fn splittable_bounds(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut rng = fp_types::Splittable::new(seed);
        for _ in 0..32 {
            prop_assert!(rng.next_below(n) < n);
            let f = rng.next_f64();
            prop_assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn scale_monotone(count in 0u64..10_000_000, r in 0.0001f64..1.0) {
        let scaled = fp_types::Scale::ratio(r).apply(count);
        prop_assert!(scaled <= count.max(1));
        if count > 0 {
            prop_assert!(scaled >= 1);
        }
    }
}

/// A miner-pool record over a deliberately small value domain, so
/// configurations repeat, partner counts tie and some values are missing;
/// either anti-bot verdict may be set (the pool filter's input).
fn arb_pool_record() -> impl Strategy<Value = StoredRequest> {
    (
        (0usize..5, 0usize..6, 0i64..3),
        (0usize..4, 0usize..3),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(|((device, res, touch), (tz, region), (dd, botd))| {
            let mut r = blank_request();
            let fp = &mut r.fingerprint;
            if let Some(name) = ["iPhone", "Mac", "Windows", "Android"].get(device) {
                fp.set(AttrId::UaDevice, *name);
            }
            if let Some(wh) = [
                (390u16, 844u16),
                (1920, 1080),
                (1440, 900),
                (800, 600),
                (375, 812),
            ]
            .get(res)
            {
                fp.set(AttrId::ScreenResolution, *wh);
            }
            fp.set(AttrId::MaxTouchPoints, touch * 5);
            let (zone, offset) = [
                ("America/Los_Angeles", 480i64),
                ("Europe/Paris", -60),
                ("Asia/Tokyo", -540),
                ("Europe/London", 0),
            ][tz];
            fp.set(AttrId::Timezone, zone);
            fp.set(AttrId::TimezoneOffset, offset);
            let (label, minutes) = [
                ("United States of America/California", 480),
                ("France/Hauts-de-France", -60),
                ("Japan/Tokyo", -540),
            ][region];
            r.ip_region = sym(label);
            r.ip_offset_minutes = minutes;
            r.verdicts = fp_types::VerdictSet::from_services(dd, botd);
            r
        })
}

proptest! {
    // -----------------------------------------------------------------
    // Algorithm 1's counting kernel: pair-count summaries merge exactly,
    // and the review order is the `format!`-comparator order it replaced.

    #[test]
    fn pair_count_summaries_merge_in_any_grouping(
        records in proptest::collection::vec(arb_pool_record(), 0..48),
        cuts in (0usize..49, 0usize..49),
    ) {
        let config = MineConfig {
            min_support: 1,
            ..MineConfig::default()
        };
        let lo = cuts.0.min(cuts.1).min(records.len());
        let hi = cuts.0.max(cuts.1).min(records.len());
        let [x, y, z] = [&records[..lo], &records[lo..hi], &records[hi..]]
            .map(|part| PairCounts::count(part, &config));
        let whole = PairCounts::count(&records, &config);
        let groupings = [
            PairCounts::merge(&[&x, &y, &z]),
            PairCounts::merge(&[&PairCounts::merge(&[&x, &y]), &z]),
            PairCounts::merge(&[&z, &PairCounts::merge(&[&y, &x])]),
        ];
        for merged in &groupings {
            prop_assert_eq!(merged, &whole);
            for pair in 0..whole.pair_count() {
                prop_assert_eq!(merged.partner_counts(pair), whole.partner_counts(pair));
            }
        }
        // Ranking the unmerged parts mines exactly the one-pass rule set.
        let parts = PairCounts::rules(&[&x, &y, &z], &config);
        let one_pass = mine_records(&records, &config);
        prop_assert_eq!(parts.content_hash(), one_pass.content_hash());
        prop_assert_eq!(parts.to_filter_list(), one_pass.to_filter_list());
    }

    #[test]
    fn review_order_matches_the_format_comparator(
        candidates in proptest::collection::vec((arb_attr_value(), 1usize..4), 0..40),
        budget in 0usize..44,
    ) {
        // A pair's left values are distinct; few partner counts → ties,
        // including at the budget cut.
        let mut lefts: Vec<(AttrValue, usize)> = Vec::new();
        for (value, partners) in candidates {
            if !lefts.iter().any(|(seen, _)| *seen == value) {
                lefts.push((value, partners));
            }
        }
        let mut old: Vec<usize> = (0..lefts.len()).collect();
        old.sort_by(|&i, &j| {
            lefts[j]
                .1
                .cmp(&lefts[i].1)
                .then_with(|| format!("{:?}", lefts[i].0).cmp(&format!("{:?}", lefts[j].0)))
        });
        old.truncate(budget);
        prop_assert_eq!(review_order(&lefts, budget), old);
    }
}

proptest! {
    // -----------------------------------------------------------------
    // Compiled rule packs: the compiled artifact is behaviourally the
    // interpreted rule set, and its content hash versions exactly the
    // flagging behaviour.

    #[test]
    fn compiled_pack_matches_interpreted_flag_for_flag(
        bag in arb_rule_bag(),
        picks in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..24),
        noise in arb_fingerprint(),
    ) {
        let set = rule_set_of(&bag);
        let pack = RulePack::compile(&set);
        prop_assert_eq!(pack.len(), set.len());
        for r in requests_for(&set, &picks, &noise) {
            prop_assert_eq!(pack.matches(&r), set.matches(&r), "flag-for-flag: {:?}", r);
            prop_assert_eq!(
                pack.matching_rule(&r).cloned(),
                set.matching_rule(&r),
                "rule-for-rule: {:?}", r
            );
        }
    }

    #[test]
    fn matching_rule_is_construction_order_independent(
        bag in arb_rule_bag(),
        picks in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..16),
        noise in arb_fingerprint(),
    ) {
        let forward = rule_set_of(&bag);
        let mut reversed_bag = bag.clone();
        reversed_bag.reverse();
        let reversed = rule_set_of(&reversed_bag);
        prop_assert_eq!(forward.len(), reversed.len());
        for r in requests_for(&forward, &picks, &noise) {
            prop_assert_eq!(
                forward.matching_rule(&r),
                reversed.matching_rule(&r),
                "the first match must be a function of contents, not insertion order"
            );
        }
    }

    #[test]
    fn pack_hash_is_order_and_shard_invariant(
        bag in arb_rule_bag(),
        shards in 1usize..5,
    ) {
        let whole = rule_set_of(&bag);
        let reference = whole.content_hash();
        prop_assert_eq!(RulePack::compile(&whole).hash(), reference);

        // Reversed insertion order.
        let mut reversed_bag = bag.clone();
        reversed_bag.reverse();
        prop_assert_eq!(rule_set_of(&reversed_bag).content_hash(), reference);

        // Sharded mining: each shard mines its slice into its own set;
        // the merge (in shard-interleaved order) must hash identically,
        // whatever the shard count.
        let mut shard_sets = vec![RuleSet::new(); shards];
        for (i, (a, va, b, vb)) in bag.iter().enumerate() {
            if a != b {
                shard_sets[i % shards].add(SpatialRule::new(*a, *va, *b, *vb));
            }
        }
        let mut merged = RuleSet::new();
        for shard in &shard_sets {
            for rule in shard.iter() {
                merged.add(rule.clone());
            }
        }
        prop_assert_eq!(merged.content_hash(), reference);
        prop_assert_eq!(RulePack::compile(&merged).hash(), reference);
    }

    #[test]
    fn pack_hash_changes_with_any_single_rule(
        bag in arb_rule_bag(),
        extra in (arb_analysis_attr(), arb_rule_value(), arb_analysis_attr(), arb_rule_value()),
        drop in any::<u64>(),
    ) {
        let set = rule_set_of(&bag);
        let reference = set.content_hash();

        // Removing any one rule changes the hash.
        if !set.is_empty() {
            let skip = (drop % set.len() as u64) as usize;
            let mut minus_one = RuleSet::new();
            for (i, rule) in set.iter().enumerate() {
                if i != skip {
                    minus_one.add(rule.clone());
                }
            }
            prop_assert_ne!(minus_one.content_hash(), reference);
        }

        // Adding a rule not already present changes the hash.
        let (a, va, b, vb) = extra;
        if a != b {
            let candidate = SpatialRule::new(a, va, b, vb);
            let display = candidate.to_string();
            if set.iter().all(|r| r.to_string() != display) {
                let mut plus_one = rule_set_of(&bag);
                plus_one.add(candidate);
                prop_assert_ne!(plus_one.content_hash(), reference);
            }
        }
    }

    #[test]
    fn filter_list_roundtrip_preserves_pack_hash(bag in arb_rule_bag()) {
        let set = rule_set_of(&bag);
        let parsed = RuleSet::from_filter_list(&set.to_filter_list()).unwrap();
        prop_assert_eq!(parsed.content_hash(), set.content_hash());
        prop_assert_eq!(
            RulePack::compile(&parsed).hash(),
            RulePack::compile(&set).hash()
        );
        // And the compiled pack round-trips back to an equal-hash set.
        let back = RulePack::compile(&set).to_rule_set();
        prop_assert_eq!(back.content_hash(), set.content_hash());
    }
}

// ---------------------------------------------------------------------
// §7.2 temporal anchors: the flat per-anchor state (first values inline,
// sets only where the rule needs them) decides exactly as the set-based
// state machines it replaced.

/// The set-based anchors, as they were before the flat state: every
/// distinct value of each immutable attribute per cookie plus a burned
/// set, and every distinct timezone offset per address. A burned cookie
/// keeps flagging, and an address tolerates one offset.
struct SetAnchors {
    attrs: Vec<AttrId>,
    per_cookie: HashMap<CookieId, Vec<HashSet<AttrValue>>>,
    burned: HashSet<CookieId>,
    per_ip_offsets: HashMap<u64, HashSet<i64>>,
}

impl SetAnchors {
    fn new() -> SetAnchors {
        SetAnchors {
            attrs: AttrId::iter()
                .filter(|a| a.immutable_for_device())
                .collect(),
            per_cookie: HashMap::new(),
            burned: HashSet::new(),
            per_ip_offsets: HashMap::new(),
        }
    }

    fn observe_cookie(&mut self, request: &StoredRequest) -> bool {
        let mut flagged = false;
        let sets = self
            .per_cookie
            .entry(request.cookie)
            .or_insert_with(|| vec![HashSet::new(); self.attrs.len()]);
        for (attr, seen) in self.attrs.iter().zip(sets.iter_mut()) {
            let value = *request.fingerprint.get(*attr);
            if value.is_missing() {
                continue;
            }
            if seen.is_empty() {
                seen.insert(value);
            } else if !seen.contains(&value) {
                seen.insert(value);
                flagged = true;
            }
        }
        if flagged {
            self.burned.insert(request.cookie);
        } else if self.burned.contains(&request.cookie) {
            flagged = true;
        }
        flagged
    }

    fn observe_ip(&mut self, request: &StoredRequest) -> bool {
        let Some(offset) = request.fingerprint.get(AttrId::TimezoneOffset).as_int() else {
            return false;
        };
        let offsets = self.per_ip_offsets.entry(request.ip_hash).or_default();
        let mut flagged = false;
        if !offsets.contains(&offset) {
            if !offsets.is_empty() {
                flagged = true;
            }
            offsets.insert(offset);
        }
        flagged
    }
}

/// One request of a temporal stream: 4 cookies, 4 addresses. Each
/// immutable attribute is missing or one of 3 values, shared across
/// attributes; two requests in three report their cookie's own device
/// (values 1–2 by attribute, one attribute missing), so cookies stay
/// consistent for a while before a drawn request burns them. The offset is
/// missing or one of 3, one of which agrees with 480 in its low 32 bits.
fn arb_temporal_request() -> impl Strategy<Value = StoredRequest> {
    (
        0u64..4,
        0u64..4,
        proptest::collection::vec(0i64..4, 8..9),
        0usize..4,
        0u8..3,
    )
        .prop_map(|(cookie, ip, drawn, offset, mode)| {
            let mut r = blank_request();
            r.cookie = cookie;
            r.ip_hash = 0xA11CE + ip;
            let tracked = AttrId::iter().filter(|a| a.immutable_for_device());
            for (slot, attr) in tracked.enumerate() {
                let choice = if mode == 0 {
                    drawn[slot]
                } else if slot as u64 == cookie {
                    0
                } else {
                    1 + (cookie + slot as u64) as i64 % 2
                };
                if choice > 0 {
                    r.fingerprint.set(attr, AttrValue::Int(choice));
                }
            }
            if let Some(minutes) = [None, Some(480), Some(-60), Some(480 + (1i64 << 32))][offset] {
                r.fingerprint.set(AttrId::TimezoneOffset, minutes);
            }
            r
        })
}

proptest! {
    #[test]
    fn flat_temporal_anchors_decide_as_the_set_based_ones(
        stream in proptest::collection::vec(arb_temporal_request(), 0..65),
    ) {
        let mut reference = SetAnchors::new();
        let mut cookie = CookieAnchor::default();
        let mut ip = IpAnchor::default();
        for (i, r) in stream.iter().enumerate() {
            prop_assert_eq!(
                cookie.observe(r).is_bot(),
                reference.observe_cookie(r),
                "cookie flag, request {}", i
            );
            prop_assert_eq!(
                ip.observe(r).is_bot(),
                reference.observe_ip(r),
                "address flag, request {}", i
            );
        }
    }
}

// ---------------------------------------------------------------------
// Oracle invariants (deterministic, exhaustive-ish loops rather than
// proptest: the value space is the catalogue).

#[test]
fn oracle_is_symmetric_for_all_catalog_pairs() {
    use fp_fingerprint::{Plausibility, ValidityOracle};
    let values = [
        (AttrId::UaDevice, AttrValue::text("iPhone")),
        (AttrId::UaDevice, AttrValue::text("Mac")),
        (AttrId::ScreenResolution, AttrValue::Resolution(390, 844)),
        (AttrId::ScreenResolution, AttrValue::Resolution(1920, 1080)),
        (AttrId::MaxTouchPoints, AttrValue::Int(0)),
        (AttrId::MaxTouchPoints, AttrValue::Int(5)),
        (AttrId::HardwareConcurrency, AttrValue::Int(4)),
        (AttrId::HardwareConcurrency, AttrValue::Int(32)),
        (AttrId::Vendor, AttrValue::text("Apple Computer, Inc.")),
        (AttrId::Platform, AttrValue::text("Win32")),
        (AttrId::UaBrowser, AttrValue::text("Chrome")),
        (AttrId::UaOs, AttrValue::text("Windows")),
    ];
    for (a, va) in &values {
        for (b, vb) in &values {
            if a == b {
                continue;
            }
            let fwd = ValidityOracle::judge(*a, va, *b, vb);
            let rev = ValidityOracle::judge(*b, vb, *a, va);
            assert_eq!(fwd, rev, "{a:?}/{b:?}");
            // Sanity: verdicts are one of the three states (no panics).
            let _ = matches!(
                fwd,
                Plausibility::Valid | Plausibility::Impossible | Plausibility::Unknown
            );
        }
    }
}

#[test]
fn consistent_collector_output_never_scans_impossible() {
    use fp_fingerprint::{
        BrowserFamily, BrowserProfile, Collector, DeviceKind, DeviceProfile, LocaleSpec,
        ValidityOracle,
    };
    let mut rng = fp_types::Splittable::new(0xFACE);
    for _ in 0..300 {
        let kind = *rng.pick(&DeviceKind::ALL);
        let defaults = BrowserFamily::defaults_for(kind);
        let weights: Vec<f64> = defaults.iter().map(|(_, w)| *w).collect();
        let family = defaults[rng.pick_weighted(&weights)].0;
        let device = DeviceProfile::sample(kind, &mut rng);
        let browser = BrowserProfile::contemporary(family, &mut rng);
        let fp = Collector::collect(&device, &browser, &LocaleSpec::en_us());
        let bad = ValidityOracle::scan_impossible(&fp);
        assert!(bad.is_empty(), "{kind:?}/{family:?}: {bad:?}");
    }
}
