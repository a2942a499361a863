//! The shared streaming-detection contract.
//!
//! Every bot detector in the workspace — the simulated commercial services
//! (`fp-antibot`'s DataDome/BotD), FP-Inconsistent's spatial rule matcher
//! and its temporal state machines (`core`) — speaks this one interface:
//! observe stored requests **in arrival order**, emit one [`Verdict`] per
//! request. The honey-site pipeline runs a chain of detectors inline at
//! ingest and records each verdict with named provenance in a
//! [`VerdictSet`], so downstream analysis never special-cases a detector.
//!
//! [`StateScope`] declares which anchor a detector's cross-request state
//! hangs off. The sharded ingest pipeline uses it to partition work: a
//! `PerIp` detector only ever sees one address's requests on one shard (in
//! arrival order), which makes N-shard execution verdict-for-verdict
//! identical to sequential execution.

use crate::interner::Symbol;
use crate::stored::StoredRequest;
use serde::de::{MapAccess, Visitor};
use serde::ser::SerializeMap;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;

/// A detector's decision on one request.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Verdict {
    /// Let through — the request looked human.
    Human,
    /// Blocked — the request was classified as a bot.
    Bot,
}

impl Verdict {
    /// Did the request get past the detector?
    pub fn evaded(self) -> bool {
        self == Verdict::Human
    }

    /// Was the request flagged?
    pub fn is_bot(self) -> bool {
        self == Verdict::Bot
    }

    /// Lift a boolean flag (`true` = bot) into a verdict.
    pub fn from_flag(flagged: bool) -> Verdict {
        if flagged {
            Verdict::Bot
        } else {
            Verdict::Human
        }
    }
}

/// Which anchor a detector's cross-request state is keyed by.
///
/// The contract: a detector's verdict for a request may depend only on the
/// requests *with the same anchor value* that it observed earlier (plus the
/// request itself). `Stateless` detectors depend on the request alone.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StateScope {
    /// Pure function of the request.
    Stateless,
    /// State keyed by the source address (its stored hash).
    PerIp,
    /// State keyed by the first-party cookie.
    PerCookie,
}

/// A streaming bot detector.
///
/// Implementations must be fed requests in arrival order (per state anchor;
/// see [`StateScope`]). `Send` so shards can run detector instances on
/// worker threads.
pub trait Detector: Send {
    /// Provenance name recorded with every verdict (see [`provenance`]).
    fn name(&self) -> &'static str;

    /// Which anchor this detector's state is keyed by. Required (no
    /// `Stateless` default) because a wrong answer silently breaks the
    /// sharded pipeline's equivalence guarantee — a stateful detector
    /// declared stateless gets forked per shard and sees only a slice of
    /// its anchor's history.
    fn scope(&self) -> StateScope;

    /// Decide one request. `&mut self` because stateful detectors update
    /// their per-anchor history.
    fn observe(&mut self, request: &StoredRequest) -> Verdict;

    /// A fresh instance of this detector with empty state and the same
    /// configuration — what each ingest shard runs.
    fn fork(&self) -> Box<dyn Detector>;
}

/// Canonical provenance names for the workspace's detectors.
pub mod provenance {
    use crate::interner::Symbol;

    /// The DataDome-like server-side engine.
    pub const DATADOME: &str = "DataDome";
    /// The BotD-like client-side script.
    pub const BOTD: &str = "BotD";
    /// FP-Inconsistent's mined spatial rules + location generalisation.
    pub const FP_SPATIAL: &str = "fp-spatial";
    /// FP-Inconsistent's per-cookie immutable-attribute anchor (§7.2).
    pub const FP_TEMPORAL_COOKIE: &str = "fp-temporal-cookie";
    /// FP-Inconsistent's per-IP timezone-churn anchor (§7.2).
    pub const FP_TEMPORAL_IP: &str = "fp-temporal-ip";
    /// The cross-layer TLS consistency check: the stack the ClientHello
    /// exhibits vs. the stack the User-Agent claims (§8.2 extension).
    pub const FP_TLS_CROSSLAYER: &str = "fp-tls-crosslayer";
    /// The session behaviour detector: per-cookie machine-cadence
    /// accumulation over the behavioural facet (FP-Agent extension).
    pub const FP_BEHAVIOR: &str = "fp-behavior";

    /// [`DATADOME`] interned once per process — whole-store loops reading
    /// the [`super::VerdictSet`] by symbol stay an integer compare with no
    /// interner lock.
    pub fn datadome_sym() -> Symbol {
        static SYM: std::sync::OnceLock<Symbol> = std::sync::OnceLock::new();
        *SYM.get_or_init(|| crate::sym(DATADOME))
    }

    /// [`BOTD`] interned once per process (see [`datadome_sym`]).
    pub fn botd_sym() -> Symbol {
        static SYM: std::sync::OnceLock<Symbol> = std::sync::OnceLock::new();
        *SYM.get_or_init(|| crate::sym(BOTD))
    }
}

/// The named verdicts recorded for one request, in detector-chain order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerdictSet {
    entries: Vec<(Symbol, Verdict)>,
}

impl VerdictSet {
    /// No verdicts yet.
    pub fn new() -> VerdictSet {
        VerdictSet::default()
    }

    /// Compat constructor for the two original hardcoded services.
    pub fn from_services(datadome_bot: bool, botd_bot: bool) -> VerdictSet {
        let mut v = VerdictSet::new();
        v.record(
            crate::sym(provenance::DATADOME),
            Verdict::from_flag(datadome_bot),
        );
        v.record(crate::sym(provenance::BOTD), Verdict::from_flag(botd_bot));
        v
    }

    /// Append a detector's verdict (replaces an existing entry of the same
    /// name, so re-running a detector is idempotent).
    pub fn record(&mut self, detector: Symbol, verdict: Verdict) {
        if let Some(slot) = self.entries.iter_mut().find(|(d, _)| *d == detector) {
            slot.1 = verdict;
        } else {
            self.entries.push((detector, verdict));
        }
    }

    /// Make room for `additional` more verdicts at once, so a commit
    /// that records a whole chain allocates once.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve_exact(additional);
    }

    /// The verdict recorded under `name`, if that detector ran.
    pub fn verdict(&self, name: &str) -> Option<Verdict> {
        self.entries
            .iter()
            .find(|(d, _)| d.as_str() == name)
            .map(|(_, v)| *v)
    }

    /// [`VerdictSet::verdict`] by interned symbol: an integer compare per
    /// entry, no interner lock — what hot whole-store loops should use.
    pub fn verdict_sym(&self, detector: Symbol) -> Option<Verdict> {
        self.entries
            .iter()
            .find(|(d, _)| *d == detector)
            .map(|(_, v)| *v)
    }

    /// Did the named detector flag this request? (`false` when it did not
    /// run.)
    pub fn bot(&self, name: &str) -> bool {
        self.verdict(name) == Some(Verdict::Bot)
    }

    /// [`VerdictSet::bot`] by interned symbol (see [`VerdictSet::verdict_sym`]).
    pub fn bot_sym(&self, detector: Symbol) -> bool {
        self.verdict_sym(detector) == Some(Verdict::Bot)
    }

    /// Did any detector flag this request?
    pub fn any_bot(&self) -> bool {
        self.entries.iter().any(|(_, v)| v.is_bot())
    }

    /// Number of recorded verdicts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Were no verdicts recorded?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All `(detector, verdict)` pairs in chain order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, Verdict)> + '_ {
        self.entries.iter().copied()
    }
}

impl Serialize for VerdictSet {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.entries.len()))?;
        for (detector, verdict) in &self.entries {
            map.serialize_entry(detector.as_str(), &verdict.is_bot())?;
        }
        map.end()
    }
}

impl<'de> Deserialize<'de> for VerdictSet {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct VsVisitor;
        impl<'de> Visitor<'de> for VsVisitor {
            type Value = VerdictSet;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a map of detector name to bot flag")
            }
            fn visit_map<A: MapAccess<'de>>(self, mut access: A) -> Result<VerdictSet, A::Error> {
                let mut set = VerdictSet::new();
                while let Some((name, bot)) = access.next_entry::<String, bool>()? {
                    set.record(crate::sym(&name), Verdict::from_flag(bot));
                }
                Ok(set)
            }
        }
        deserializer.deserialize_map(VsVisitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym;

    #[test]
    fn verdict_evaded() {
        assert!(Verdict::Human.evaded());
        assert!(!Verdict::Bot.evaded());
        assert!(Verdict::from_flag(true).is_bot());
        assert!(!Verdict::from_flag(false).is_bot());
    }

    #[test]
    fn record_and_query() {
        let mut set = VerdictSet::new();
        assert!(set.is_empty());
        set.record(sym(provenance::DATADOME), Verdict::Bot);
        set.record(sym(provenance::BOTD), Verdict::Human);
        assert!(set.bot(provenance::DATADOME));
        assert!(!set.bot(provenance::BOTD));
        assert!(
            !set.bot(provenance::FP_SPATIAL),
            "absent detector is not a bot flag"
        );
        assert_eq!(set.verdict(provenance::FP_SPATIAL), None);
        assert!(set.any_bot());
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn record_is_idempotent_per_detector() {
        let mut set = VerdictSet::new();
        set.record(sym("x"), Verdict::Bot);
        set.record(sym("x"), Verdict::Human);
        assert_eq!(set.len(), 1);
        assert!(!set.bot("x"));
    }

    #[test]
    fn compat_constructor_matches_legacy_fields() {
        let set = VerdictSet::from_services(true, false);
        assert!(set.bot(provenance::DATADOME));
        assert!(!set.bot(provenance::BOTD));
    }

    #[test]
    fn serde_roundtrip() {
        let set = VerdictSet::from_services(false, true);
        let json = serde_json::to_string(&set).unwrap();
        assert_eq!(json, r#"{"DataDome":false,"BotD":true}"#);
        let back: VerdictSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, set);
    }
}
