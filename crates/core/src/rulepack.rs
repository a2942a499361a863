//! Compiled rule packs: the mined filter list as an immutable,
//! content-hash-versioned, branch-light matching artifact.
//!
//! The interpreted [`RuleSet`] answers "does any mined pair match this
//! request" by probing a `HashMap` per attribute pair, which hashes two
//! [`AttrValue`]s (SipHash over tagged unions) for every pair on every
//! request. [`RulePack::compile`] lowers the same rule set into the shape
//! a million-rps ingest path wants:
//!
//! * the referenced [`AnalysisAttr`]s are collected once, sorted, and
//!   given dense indices, so a request resolves each attribute's value
//!   **once** — not once per pair mentioning it;
//! * per attribute, the values any rule mentions form a dense id space;
//!   a request's value becomes a small integer id via one open-addressed
//!   probe keyed on the value's packed integer bits (a couple of
//!   multiply-mix instructions on [`fp_types::interner::Symbol`] indices
//!   — never string hashing, never a SipHash state);
//! * per attribute pair, the rule value-combinations become sorted packed
//!   `(id_a, id_b)` keys, plus an exact bitset over the `|values_a| ×
//!   |values_b|` id grid when that grid is small — membership is then one
//!   shift-and-mask, no hashing and no per-pair value clones.
//!
//! The pack is **immutable** after compilation and carries:
//!
//! * a canonical [`PackHash`] — order-independent over the rule set
//!   (the same rules mined in any order, by any shard count, hash
//!   identically; see [`fp_types::stablehash`]) that changes iff the
//!   flagging behaviour changes;
//! * [`RulePack::diff`] — the added/removed rules against another pack,
//!   feeding the defender's epoch-over-epoch ledger
//!   ([`fp_types::defense::RetrainSpend`]).
//!
//! Deployment swaps packs through a [`PackSlot`]
//! ([`fp_types::HotSwap`]): re-mining compiles off the hot path and
//! publishes atomically; in-flight shard workers finish on the pack they
//! forked with, new admissions see the new one, and nobody ever takes a
//! barrier.
//!
//! Matching semantics are *identical* to [`RuleSet::matching_rule`]
//! (post-determinism-fix): pairs are considered in sorted
//! `(attr_a, attr_b)` order, a request value that is missing never
//! matches (even against a rule literally written on `<missing>`), and
//! the first matching pair's rule is returned.

use crate::attrs::AnalysisAttr;
use crate::rules::{RuleSet, SpatialRule};
use fp_honeysite::StoredRequest;
use fp_types::stablehash::{ContentHasher, PackHash};
use fp_types::{mix2, AttrId, AttrValue, HotSwap};
use std::collections::BTreeMap;

/// The hot-swappable deployment slot for compiled packs (see module docs
/// for the barrier-free publication semantics).
pub type PackSlot = HotSwap<RulePack>;

/// "No id": the request's value is missing or unknown to the pack.
const NO_ID: u32 = u32::MAX;

/// Upper bound on distinct [`AnalysisAttr`]s (every fingerprint attribute
/// plus the two IP-derived ones) — sizes the per-request id scratch array
/// so evaluation allocates nothing.
const MAX_ATTRS: usize = AttrId::COUNT + 2;

/// Largest `|values_a| × |values_b|` id grid that gets an exact bitset
/// (4096 bits = 512 bytes — comfortably cache-resident); larger grids
/// fall back to binary search over the packed keys.
const BITSET_MAX_BITS: u64 = 4096;

/// A total order on [`AttrValue`] used for the dense value tables. Any
/// total order works (only membership matters — the content hash never
/// sees ids); this one is cheap integer compares. `Symbol` rank is the
/// process-local interner index, which is fine: tables are built and
/// probed within one process.
pub(crate) fn value_rank(v: &AttrValue) -> (u8, u64, u64) {
    match *v {
        AttrValue::Missing => (0, 0, 0),
        AttrValue::Bool(b) => (1, u64::from(b), 0),
        AttrValue::Int(i) => (2, i as u64, 0),
        AttrValue::Milli(m) => (3, m as u64, 0),
        AttrValue::Sym(s) => (4, u64::from(s.index()), 0),
        AttrValue::Resolution(w, h) => (5, u64::from(w), u64::from(h)),
    }
}

/// The probe key: the value's discriminant and payload bits run through
/// two multiply-mix rounds. Collisions are fine (slots compare the stored
/// value), string contents are never touched (`Sym` keys on the interner
/// index).
#[inline]
fn value_key(v: &AttrValue) -> u64 {
    let (d, a, b) = value_rank(v);
    mix2(mix2(u64::from(d), a), b)
}

/// Per-attribute value → dense id resolution: a fixed-capacity
/// open-addressed table (≤50% load, power-of-two capacity, linear
/// probing). One mix + one or two slot compares per request attribute —
/// the step that replaces the interpreted path's per-pair SipHashing,
/// and stays O(1) as the mined value tables grow.
struct ValueLookup {
    mask: u64,
    /// `(value, id)` slots; empty slots carry `NO_ID`.
    slots: Vec<(AttrValue, u32)>,
}

impl ValueLookup {
    /// Build from the attribute's dense table (id = position). `Missing`
    /// values are skipped: a missing request value never reaches the
    /// probe (see [`RulePack::resolve`]), so they only waste slots.
    fn build(table: &[AttrValue]) -> ValueLookup {
        let capacity = (table.len().max(1) * 2).next_power_of_two() as u64;
        let mask = capacity - 1;
        let mut slots = vec![(AttrValue::Missing, NO_ID); capacity as usize];
        for (id, v) in table.iter().enumerate() {
            if v.is_missing() {
                continue;
            }
            let mut at = value_key(v) & mask;
            while slots[at as usize].1 != NO_ID {
                at = (at + 1) & mask;
            }
            slots[at as usize] = (*v, id as u32);
        }
        ValueLookup { mask, slots }
    }

    #[inline]
    fn get(&self, v: &AttrValue) -> u32 {
        let mut at = value_key(v) & self.mask;
        loop {
            let (stored, id) = self.slots[at as usize];
            if id == NO_ID || stored == *v {
                return id;
            }
            at = (at + 1) & self.mask;
        }
    }
}

/// The evaluation plan for one `(attr_a, attr_b)` pair.
struct PairPlan {
    /// Index of `attr_a` in the pack's attribute list.
    a: u32,
    /// Index of `attr_b` in the pack's attribute list.
    b: u32,
    /// Sorted packed keys `(id_a << 32) | id_b` — one per rule.
    keys: Vec<u64>,
    /// Rule index (into `RulePack::rules`) parallel to `keys`.
    rule_idx: Vec<u32>,
    /// Exact membership bitset over the `id_a * stride + id_b` grid when
    /// the grid fits [`BITSET_MAX_BITS`]; bit set ⇔ key present.
    bits: Option<Vec<u64>>,
    /// Grid stride (`|values_b|`) for the bitset key.
    stride: u64,
}

impl PairPlan {
    #[inline]
    fn bit_test(bits: &[u64], bit: u64) -> bool {
        (bits[(bit >> 6) as usize] >> (bit & 63)) & 1 == 1
    }

    /// Do the two resolved (non-sentinel) ids match this pair?
    /// Branch-light: one bitset probe (or one binary search on the
    /// packed key). Callers short-circuit on `NO_ID` before resolving
    /// the second attribute, so sentinels never reach here.
    #[inline]
    fn contains_ids(&self, ia: u32, ib: u32) -> bool {
        match &self.bits {
            Some(bits) => Self::bit_test(bits, u64::from(ia) * self.stride + u64::from(ib)),
            None => {
                let packed = (u64::from(ia) << 32) | u64::from(ib);
                self.keys.binary_search(&packed).is_ok()
            }
        }
    }

    /// Like [`PairPlan::contains_ids`], but returns the matching rule index.
    #[inline]
    fn probe_ids(&self, ia: u32, ib: u32) -> Option<u32> {
        if let Some(bits) = &self.bits {
            if !Self::bit_test(bits, u64::from(ia) * self.stride + u64::from(ib)) {
                return None;
            }
        }
        let packed = (u64::from(ia) << 32) | u64::from(ib);
        self.keys
            .binary_search(&packed)
            .ok()
            .map(|p| self.rule_idx[p])
    }
}

/// An immutable compiled rule artifact (see the module docs).
pub struct RulePack {
    /// Referenced attributes, sorted — the resolve loop's schedule.
    attrs: Vec<AnalysisAttr>,
    /// Per attribute (parallel to `attrs`): value → dense id resolution.
    lookups: Vec<ValueLookup>,
    /// Pair plans in sorted `(attr_a, attr_b)` order — the probe order,
    /// which matches the interpreted matcher's deterministic iteration.
    pairs: Vec<PairPlan>,
    /// The rules in canonical order (pair order, then packed-id order).
    rules: Vec<SpatialRule>,
    /// The canonical content hash (order/shard-invariant).
    hash: PackHash,
}

impl RulePack {
    /// Compile a mined rule set. Pure function of the set's *contents*:
    /// two sets holding the same rules — whatever their insertion order —
    /// compile to behaviourally identical packs with equal hashes.
    pub fn compile(rules: &RuleSet) -> RulePack {
        // Attribute universe, sorted and dense.
        let mut attrs: Vec<AnalysisAttr> =
            rules.iter().flat_map(|r| [r.attr_a, r.attr_b]).collect();
        attrs.sort_unstable();
        attrs.dedup();
        let attr_pos: BTreeMap<AnalysisAttr, u32> = attrs
            .iter()
            .enumerate()
            .map(|(i, a)| (*a, i as u32))
            .collect();

        // Per-attribute value tables.
        let mut tables: Vec<Vec<AttrValue>> = vec![Vec::new(); attrs.len()];
        for r in rules.iter() {
            tables[attr_pos[&r.attr_a] as usize].push(r.value_a);
            tables[attr_pos[&r.attr_b] as usize].push(r.value_b);
        }
        for t in &mut tables {
            t.sort_unstable_by_key(value_rank);
            t.dedup();
        }
        let id_of = |attr: u32, v: &AttrValue| -> u32 {
            tables[attr as usize]
                .binary_search_by_key(&value_rank(v), value_rank)
                .expect("compiled value must be in its table") as u32
        };

        // Group rules by pair, in sorted pair order.
        let mut by_pair: BTreeMap<(AnalysisAttr, AnalysisAttr), Vec<&SpatialRule>> =
            BTreeMap::new();
        for r in rules.iter() {
            by_pair.entry((r.attr_a, r.attr_b)).or_default().push(r);
        }

        let mut pairs = Vec::with_capacity(by_pair.len());
        let mut ordered_rules: Vec<SpatialRule> = Vec::with_capacity(rules.len());
        let mut hasher = ContentHasher::new();
        for ((attr_a, attr_b), pair_rules) in by_pair {
            let a = attr_pos[&attr_a];
            let b = attr_pos[&attr_b];
            let mut keyed: Vec<(u64, &SpatialRule)> = pair_rules
                .into_iter()
                .map(|r| {
                    let ida = id_of(a, &r.value_a);
                    let idb = id_of(b, &r.value_b);
                    ((u64::from(ida) << 32) | u64::from(idb), r)
                })
                .collect();
            keyed.sort_unstable_by_key(|(k, _)| *k);
            let keys: Vec<u64> = keyed.iter().map(|(k, _)| *k).collect();
            let rule_idx: Vec<u32> = keyed
                .iter()
                .map(|(_, r)| {
                    let idx = ordered_rules.len() as u32;
                    ordered_rules.push((*r).clone());
                    idx
                })
                .collect();
            let na = tables[a as usize].len() as u64;
            let nb = tables[b as usize].len() as u64;
            let bits = (na * nb <= BITSET_MAX_BITS).then(|| {
                let mut bits = vec![0u64; (na * nb).div_ceil(64) as usize];
                for key in &keys {
                    let bit = (key >> 32) * nb + (key & 0xFFFF_FFFF);
                    bits[(bit >> 6) as usize] |= 1 << (bit & 63);
                }
                bits
            });
            pairs.push(PairPlan {
                a,
                b,
                keys,
                rule_idx,
                bits,
                stride: nb,
            });
        }
        for r in &ordered_rules {
            hasher.add_line(&r.to_string());
        }
        RulePack {
            attrs,
            lookups: tables.iter().map(|t| ValueLookup::build(t)).collect(),
            pairs,
            rules: ordered_rules,
            hash: hasher.finish(),
        }
    }

    /// The compiled empty set (matches nothing; stable hash).
    pub fn empty() -> RulePack {
        RulePack::compile(&RuleSet::new())
    }

    /// The canonical content hash: equal ⇔ behaviourally identical rule
    /// set, regardless of mining order or shard count.
    pub fn hash(&self) -> PackHash {
        self.hash
    }

    /// Number of compiled rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Is the pack empty?
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The compiled rules, in the pack's canonical (probe) order.
    pub fn rules(&self) -> impl Iterator<Item = &SpatialRule> {
        self.rules.iter()
    }

    /// Reconstruct the interpreted form (e.g. for rendering the filter
    /// list of a deployed pack, or as the reference matcher in
    /// equivalence tests).
    pub fn to_rule_set(&self) -> RuleSet {
        let mut set = RuleSet::new();
        for r in &self.rules {
            set.add(r.clone());
        }
        set
    }

    /// Resolve one referenced attribute's value to its dense id,
    /// memoised in the caller's scratch arrays. Resolution is **lazy**:
    /// an attribute's value is read (and probed) the first time a pair
    /// plan asks for it, never before — on a store where many requests
    /// match an early pair, the probe loop exits after touching two
    /// attributes instead of paying for the whole schedule up front.
    /// (Eager whole-schedule resolution is what made the compiled
    /// matcher *slower* than the interpreted one on flag-heavy traffic:
    /// the interpreter always resolved per pair on demand.) Memoisation
    /// keeps the once-per-request bound: an attribute mentioned by many
    /// pairs is still resolved at most once.
    #[inline]
    fn resolve_one(
        &self,
        request: &StoredRequest,
        attr_pos: u32,
        ids: &mut [u32; MAX_ATTRS],
        resolved: &mut [bool; MAX_ATTRS],
    ) -> u32 {
        let i = attr_pos as usize;
        if !resolved[i] {
            resolved[i] = true;
            let v = self.attrs[i].value_of(request);
            // A missing request value never matches — same skip the
            // interpreted matcher applies before probing its index.
            ids[i] = if v.is_missing() {
                NO_ID
            } else {
                self.lookups[i].get(&v)
            };
        }
        ids[i]
    }

    /// Does any compiled rule match the request? Flag-for-flag identical
    /// to [`RuleSet::matches`] on the set this pack was compiled from.
    pub fn matches(&self, request: &StoredRequest) -> bool {
        if self.pairs.is_empty() {
            return false;
        }
        let mut ids = [NO_ID; MAX_ATTRS];
        let mut resolved = [false; MAX_ATTRS];
        self.pairs.iter().any(|p| {
            let ia = self.resolve_one(request, p.a, &mut ids, &mut resolved);
            if ia == NO_ID {
                return false;
            }
            let ib = self.resolve_one(request, p.b, &mut ids, &mut resolved);
            if ib == NO_ID {
                return false;
            }
            p.contains_ids(ia, ib)
        })
    }

    /// The first matching rule in canonical pair order — rule-for-rule
    /// identical to [`RuleSet::matching_rule`].
    pub fn matching_rule(&self, request: &StoredRequest) -> Option<&SpatialRule> {
        if self.pairs.is_empty() {
            return None;
        }
        let mut ids = [NO_ID; MAX_ATTRS];
        let mut resolved = [false; MAX_ATTRS];
        self.pairs
            .iter()
            .find_map(|p| {
                let ia = self.resolve_one(request, p.a, &mut ids, &mut resolved);
                if ia == NO_ID {
                    return None;
                }
                let ib = self.resolve_one(request, p.b, &mut ids, &mut resolved);
                if ib == NO_ID {
                    return None;
                }
                p.probe_ids(ia, ib)
            })
            .map(|idx| &self.rules[idx as usize])
    }

    /// What changed between `self` (the freshly deployed pack) and
    /// `baseline` (the previously deployed one): rules only in `self`
    /// are `added`, rules only in `baseline` are `removed`. Both lists
    /// are sorted by display form, so the ledger is deterministic.
    pub fn diff(&self, baseline: &RulePack) -> RulePackDiff {
        let mine: BTreeMap<String, &SpatialRule> =
            self.rules.iter().map(|r| (r.to_string(), r)).collect();
        let theirs: BTreeMap<String, &SpatialRule> =
            baseline.rules.iter().map(|r| (r.to_string(), r)).collect();
        RulePackDiff {
            added: mine
                .iter()
                .filter(|(k, _)| !theirs.contains_key(*k))
                .map(|(_, r)| (*r).clone())
                .collect(),
            removed: theirs
                .iter()
                .filter(|(k, _)| !mine.contains_key(*k))
                .map(|(_, r)| (*r).clone())
                .collect(),
        }
    }
}

/// The rule-level delta between two packs — the defender's
/// epoch-over-epoch ledger entry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RulePackDiff {
    /// Rules in the new pack but not the baseline (display-sorted).
    pub added: Vec<SpatialRule>,
    /// Rules in the baseline but not the new pack (display-sorted).
    pub removed: Vec<SpatialRule>,
}

impl RulePackDiff {
    /// Total rules that changed (added + removed).
    pub fn churn(&self) -> u64 {
        (self.added.len() + self.removed.len()) as u64
    }

    /// No behavioural change?
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Price each churned rule in false-positive terms: over the given
    /// records (typically the re-mine's training window), count how much
    /// *truthful* traffic — the non-automation cohorts, real users and
    /// privacy tools — each added and removed rule matches on its own.
    /// This is the "what did this churn cost" column of the fingerprint
    /// ledger: an added rule with truthful matches bought its recall with
    /// user FPR; a removed rule with truthful matches gave some back.
    /// One pass over the records, rules in the diff's display-sorted
    /// order.
    pub fn fpr_attribution<'a>(
        &self,
        records: impl IntoIterator<Item = &'a StoredRequest>,
    ) -> ChurnAttribution {
        let cost_of = |rules: &[SpatialRule]| -> Vec<RuleFprCost> {
            rules
                .iter()
                .map(|rule| RuleFprCost {
                    rule: rule.clone(),
                    truthful_matches: 0,
                })
                .collect()
        };
        let mut attribution = ChurnAttribution {
            truthful_requests: 0,
            added: cost_of(&self.added),
            removed: cost_of(&self.removed),
        };
        for record in records {
            if record.source.cohort().is_automation() {
                continue;
            }
            attribution.truthful_requests += 1;
            for cost in attribution
                .added
                .iter_mut()
                .chain(attribution.removed.iter_mut())
            {
                cost.truthful_matches += u64::from(cost.rule.matches(record));
            }
        }
        attribution
    }
}

/// One churned rule's measured cost on truthful traffic (see
/// [`RulePackDiff::fpr_attribution`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleFprCost {
    /// The rule that was added or removed.
    pub rule: SpatialRule,
    /// Truthful (non-automation) requests this rule matches by itself.
    pub truthful_matches: u64,
}

/// Per-rule FPR pricing of one pack diff over a training window.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnAttribution {
    /// Truthful (non-automation) requests in the window — the FPR
    /// denominator shared by every rule here.
    pub truthful_requests: u64,
    /// Cost of each added rule, in the diff's display-sorted order.
    pub added: Vec<RuleFprCost>,
    /// Cost of each removed rule, in the diff's display-sorted order.
    pub removed: Vec<RuleFprCost>,
}

impl ChurnAttribution {
    /// A rule cost as an FPR fraction of the window's truthful traffic.
    pub fn fpr(&self, cost: &RuleFprCost) -> f64 {
        cost.truthful_matches as f64 / self.truthful_requests.max(1) as f64
    }

    /// Truthful matches summed over the added rules — the upper bound on
    /// what this re-mine's new rules can cost in user FPR (rules overlap,
    /// so the realised cost can only be lower).
    pub fn added_truthful_matches(&self) -> u64 {
        self.added.iter().map(|c| c.truthful_matches).sum()
    }

    /// The added rule with the most truthful matches, if any rule was
    /// added — the first rule to review when FPR moves after a re-mine.
    pub fn worst_added(&self) -> Option<&RuleFprCost> {
        self.added.iter().max_by_key(|c| c.truthful_matches)
    }
}

/// The canonical content hash of a bag of rules without compiling a full
/// pack — by construction equal to [`RulePack::hash`] of a pack compiled
/// from the same rules.
pub fn content_hash<'a>(rules: impl IntoIterator<Item = &'a SpatialRule>) -> PackHash {
    let mut hasher = ContentHasher::new();
    for r in rules {
        hasher.add_line(&r.to_string());
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_types::{sym, BehaviorTrace, Fingerprint, SimTime, TrafficSource, VerdictSet};

    fn request(device: &str, mtp: i64, region: &str) -> StoredRequest {
        StoredRequest {
            id: 0,
            time: SimTime::EPOCH,
            site_token: sym("t"),
            ip_hash: 0,
            ip_offset_minutes: 480,
            ip_region: sym(region),
            ip_lat: 0.0,
            ip_lon: 0.0,
            asn: 1,
            asn_flagged: false,
            ip_blocklisted: false,
            tor_exit: false,
            cookie: 0,
            tls: fp_types::TlsFacet::unobserved(),
            fingerprint: Fingerprint::new()
                .with(AttrId::UaDevice, device)
                .with(AttrId::MaxTouchPoints, mtp),
            source: TrafficSource::RealUser,
            behavior: BehaviorTrace::silent(),
            cadence: fp_types::BehaviorFacet::unobserved(),
            verdicts: VerdictSet::new(),
        }
    }

    fn rule(a: AnalysisAttr, va: AttrValue, b: AnalysisAttr, vb: AttrValue) -> SpatialRule {
        SpatialRule::new(a, va, b, vb)
    }

    fn sample_rules() -> Vec<SpatialRule> {
        vec![
            rule(
                AnalysisAttr::Fp(AttrId::UaDevice),
                AttrValue::text("iPhone"),
                AnalysisAttr::Fp(AttrId::MaxTouchPoints),
                AttrValue::Int(0),
            ),
            rule(
                AnalysisAttr::Fp(AttrId::UaDevice),
                AttrValue::text("Pixel 7"),
                AnalysisAttr::Fp(AttrId::MaxTouchPoints),
                AttrValue::Int(0),
            ),
            rule(
                AnalysisAttr::Fp(AttrId::UaDevice),
                AttrValue::text("iPhone"),
                AnalysisAttr::IpRegion,
                AttrValue::text("Atlantis/Deep"),
            ),
        ]
    }

    fn set_of(rules: &[SpatialRule]) -> RuleSet {
        let mut set = RuleSet::new();
        for r in rules {
            set.add(r.clone());
        }
        set
    }

    #[test]
    fn compiled_matches_interpreted() {
        let set = set_of(&sample_rules());
        let pack = RulePack::compile(&set);
        assert_eq!(pack.len(), set.len());
        let cases = [
            request("iPhone", 0, "United States of America/California"),
            request("iPhone", 5, "United States of America/California"),
            request("Pixel 7", 0, "Atlantis/Deep"),
            request("iPhone", 0, "Atlantis/Deep"),
            request("Mac", 0, "Atlantis/Deep"),
        ];
        for r in &cases {
            assert_eq!(pack.matches(r), set.matches(r), "{r:?}");
            assert_eq!(
                pack.matching_rule(r).cloned(),
                set.matching_rule(r),
                "rule-for-rule"
            );
        }
    }

    #[test]
    fn empty_pack_matches_nothing() {
        let pack = RulePack::empty();
        assert!(pack.is_empty());
        assert!(!pack.matches(&request("iPhone", 0, "Atlantis/Deep")));
        assert_eq!(pack.matching_rule(&request("iPhone", 0, "x/y")), None);
        assert_eq!(pack.hash(), RulePack::empty().hash());
    }

    #[test]
    fn missing_request_value_never_matches_even_a_missing_rule_value() {
        // The interpreted matcher skips pairs whose request value is
        // missing before probing, so a rule literally written on
        // `<missing>` can never fire through the index; the pack must
        // agree.
        let set = set_of(&[rule(
            AnalysisAttr::Fp(AttrId::Webdriver),
            AttrValue::Missing,
            AnalysisAttr::Fp(AttrId::UaDevice),
            AttrValue::text("iPhone"),
        )]);
        let pack = RulePack::compile(&set);
        let r = request("iPhone", 0, "x/y"); // webdriver missing
        assert!(!set.matches(&r));
        assert!(!pack.matches(&r));
    }

    #[test]
    fn hash_is_insertion_order_invariant() {
        let rules = sample_rules();
        let forward = set_of(&rules);
        let mut reversed_rules = rules.clone();
        reversed_rules.reverse();
        let reversed = set_of(&reversed_rules);
        assert_eq!(
            RulePack::compile(&forward).hash(),
            RulePack::compile(&reversed).hash()
        );
        assert_eq!(
            content_hash(forward.iter()),
            RulePack::compile(&forward).hash()
        );
    }

    #[test]
    fn hash_changes_with_any_single_rule() {
        let rules = sample_rules();
        let full = RulePack::compile(&set_of(&rules)).hash();
        for i in 0..rules.len() {
            let mut minus_one = rules.clone();
            minus_one.remove(i);
            assert_ne!(full, RulePack::compile(&set_of(&minus_one)).hash());
        }
    }

    #[test]
    fn diff_reports_added_and_removed() {
        let rules = sample_rules();
        let old = RulePack::compile(&set_of(&rules[..2]));
        let new = RulePack::compile(&set_of(&rules[1..]));
        let diff = new.diff(&old);
        assert_eq!(diff.added, vec![rules[2].clone()]);
        assert_eq!(diff.removed, vec![rules[0].clone()]);
        assert_eq!(diff.churn(), 2);
        assert!(new.diff(&new).is_empty());
    }

    #[test]
    fn fpr_attribution_prices_churn_on_truthful_traffic_only() {
        let rules = sample_rules();
        let old = RulePack::compile(&set_of(&rules[..2]));
        let new = RulePack::compile(&set_of(&rules[1..]));
        // added: rules[2] (iPhone AND Atlantis/Deep); removed: rules[0]
        // (iPhone AND MaxTouchPoints 0).
        let diff = new.diff(&old);

        let truthful_hit = request("iPhone", 0, "Atlantis/Deep"); // both rules
        let truthful_miss = request("Mac", 5, "Elsewhere/Flat"); // neither
        let truthful_removed_only = request("iPhone", 0, "Elsewhere/Flat");
        let mut bot_hit = request("iPhone", 0, "Atlantis/Deep");
        bot_hit.source = TrafficSource::Bot(fp_types::ServiceId(1));

        let records = [truthful_hit, truthful_miss, truthful_removed_only, bot_hit];
        let attribution = diff.fpr_attribution(records.iter());
        assert_eq!(attribution.truthful_requests, 3, "the bot is not counted");
        assert_eq!(attribution.added.len(), 1);
        assert_eq!(attribution.removed.len(), 1);
        assert_eq!(attribution.added[0].truthful_matches, 1);
        assert_eq!(attribution.removed[0].truthful_matches, 2);
        assert!((attribution.fpr(&attribution.added[0]) - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(attribution.added_truthful_matches(), 1);
        assert_eq!(
            attribution.worst_added().unwrap().rule,
            rules[2],
            "the costliest added rule is named"
        );

        // An empty window prices everything at zero without dividing by it.
        let empty = diff.fpr_attribution(std::iter::empty());
        assert_eq!(empty.truthful_requests, 0);
        assert_eq!(empty.fpr(&empty.added[0]), 0.0);
        assert!(new
            .diff(&new)
            .fpr_attribution(records.iter())
            .worst_added()
            .is_none());
    }

    #[test]
    fn large_pair_grids_fall_back_to_search() {
        // > 4096 grid cells on one pair: the bitset is skipped, the
        // packed-key search must carry matching alone.
        let mut set = RuleSet::new();
        for i in 0..100i64 {
            set.add(rule(
                AnalysisAttr::Fp(AttrId::HardwareConcurrency),
                AttrValue::Int(i),
                AnalysisAttr::Fp(AttrId::DeviceMemory),
                AttrValue::Int(i + 1000),
            ));
        }
        let pack = RulePack::compile(&set);
        assert!(
            pack.pairs.iter().any(|p| p.bits.is_none()),
            "100x100 grid must not allocate a bitset"
        );
        for i in 0..100i64 {
            let r = StoredRequest {
                fingerprint: Fingerprint::new()
                    .with(AttrId::HardwareConcurrency, i)
                    .with(AttrId::DeviceMemory, i + 1000),
                ..request("x", 0, "a/b")
            };
            assert!(pack.matches(&r));
            let miss = StoredRequest {
                fingerprint: Fingerprint::new()
                    .with(AttrId::HardwareConcurrency, i)
                    .with(AttrId::DeviceMemory, i + 1001),
                ..request("x", 0, "a/b")
            };
            assert!(!pack.matches(&miss));
        }
    }

    #[test]
    fn to_rule_set_roundtrips_hash() {
        let set = set_of(&sample_rules());
        let pack = RulePack::compile(&set);
        let back = pack.to_rule_set();
        assert_eq!(RulePack::compile(&back).hash(), pack.hash());
        assert_eq!(back.len(), set.len());
    }
}
