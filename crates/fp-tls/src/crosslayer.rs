//! The cross-layer consistency detector: UA claim vs. TLS behaviour.
//!
//! Section 8 of the paper shows bots that spoof every JS attribute while
//! their network stack betrays them — the signal "When Handshakes Tell the
//! Truth" exploits. This detector runs *inside* the honey site's ingest
//! chain: for each request it looks up the JA3 digest a truthful client
//! with the claimed `UA Browser` family would present
//! ([`crate::profiles::expected_ja3_for_ua_browser`]) and flags any
//! mismatch with the hello actually observed on the wire
//! ([`fp_types::TlsFacet`]).
//!
//! Deliberately conservative, so it adds no false positives on truthful
//! traffic:
//!
//! * handshake not observed → pass (no evidence);
//! * UA family with no known TLS expectation (exotic browsers) → pass;
//! * expected and observed digests equal → pass.
//!
//! Note the blind spot this leaves, by design: headless Chromium under a
//! Chrome UA presents Chrome's own hello and sails through — exactly why
//! the paper's browser-layer detectors and this network-layer check are
//! complements, not substitutes.

use crate::profiles::expected_ja3_for_ua_browser;
use fp_types::detect::{provenance, Detector, StateScope, Verdict};
use fp_types::{AttrId, StoredRequest};

/// Stateless UA↔JA3 mismatch detector (see the module docs). `Default` and
/// [`TlsCrossLayer::new`] are equivalent; the detector has no
/// configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct TlsCrossLayer;

impl TlsCrossLayer {
    /// A fresh detector (it carries no state).
    pub fn new() -> TlsCrossLayer {
        TlsCrossLayer
    }

    /// The pure predicate both the detector and ad-hoc analysis share:
    /// does this record's observed JA3 contradict its User-Agent claim?
    pub fn mismatch(record: &StoredRequest) -> bool {
        let Some(observed) = record
            .tls
            .ja3_str()
            .or_else(|| record.fingerprint.get(AttrId::Ja3).as_str())
        else {
            return false;
        };
        let Some(browser) = record.fingerprint.get(AttrId::UaBrowser).as_str() else {
            return false;
        };
        match expected_ja3_for_ua_browser(browser) {
            Some(expected) => expected != observed,
            None => false,
        }
    }
}

impl Detector for TlsCrossLayer {
    fn name(&self) -> &'static str {
        provenance::FP_TLS_CROSSLAYER
    }

    fn scope(&self) -> StateScope {
        StateScope::Stateless
    }

    fn observe(&mut self, request: &StoredRequest) -> Verdict {
        Verdict::from_flag(TlsCrossLayer::mismatch(request))
    }

    fn fork(&self) -> Box<dyn Detector> {
        Box::new(TlsCrossLayer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TlsClientKind;
    use fp_types::{sym, BehaviorTrace, Fingerprint, SimTime, TlsFacet, TrafficSource, VerdictSet};

    fn record(ua_browser: Option<&str>, tls: TlsFacet) -> StoredRequest {
        let mut fingerprint = Fingerprint::new();
        if let Some(b) = ua_browser {
            fingerprint.set(AttrId::UaBrowser, b);
        }
        StoredRequest {
            id: 0,
            time: SimTime::EPOCH,
            site_token: sym("t"),
            ip_hash: 1,
            ip_offset_minutes: 0,
            ip_region: sym("X/Y"),
            ip_lat: 0.0,
            ip_lon: 0.0,
            asn: 1,
            asn_flagged: false,
            ip_blocklisted: false,
            tor_exit: false,
            cookie: 1,
            fingerprint,
            tls,
            behavior: BehaviorTrace::silent(),
            cadence: fp_types::BehaviorFacet::unobserved(),
            source: TrafficSource::RealUser,
            verdicts: VerdictSet::new(),
        }
    }

    #[test]
    fn truthful_stacks_pass() {
        let mut d = TlsCrossLayer::new();
        for (browser, kind) in [
            ("Chrome", TlsClientKind::Chromium),
            ("Firefox", TlsClientKind::Firefox),
            ("Mobile Safari", TlsClientKind::Safari),
            ("Chrome Mobile iOS", TlsClientKind::Safari),
        ] {
            let r = record(Some(browser), kind.facet());
            assert_eq!(d.observe(&r), Verdict::Human, "{browser}");
        }
    }

    #[test]
    fn non_browser_stack_under_browser_ua_is_flagged() {
        let mut d = TlsCrossLayer::new();
        for kind in [TlsClientKind::GoHttp, TlsClientKind::PythonRequests] {
            let r = record(Some("Mobile Safari"), kind.facet());
            assert_eq!(d.observe(&r), Verdict::Bot, "{kind:?}");
        }
    }

    #[test]
    fn wrong_browser_stack_is_flagged() {
        // Chrome UA greeting like Firefox: still a cross-layer lie.
        let mut d = TlsCrossLayer::new();
        let r = record(Some("Chrome"), TlsClientKind::Firefox.facet());
        assert_eq!(d.observe(&r), Verdict::Bot);
    }

    #[test]
    fn missing_evidence_passes() {
        let mut d = TlsCrossLayer::new();
        // No handshake observed.
        let r = record(Some("Chrome"), TlsFacet::unobserved());
        assert_eq!(d.observe(&r), Verdict::Human);
        // No UA claim to contradict.
        let r = record(None, TlsClientKind::GoHttp.facet());
        assert_eq!(d.observe(&r), Verdict::Human);
        // Exotic browser with no known expectation.
        let r = record(Some("Other"), TlsClientKind::GoHttp.facet());
        assert_eq!(d.observe(&r), Verdict::Human);
    }

    #[test]
    fn fingerprint_attr_is_the_fallback_carrier() {
        // Records built before the facet existed carry JA3 only as a
        // fingerprint attribute; the detector still reads it.
        let mut r = record(Some("Chrome"), TlsFacet::unobserved());
        r.fingerprint.set(AttrId::Ja3, TlsClientKind::GoHttp.ja3());
        assert!(TlsCrossLayer::mismatch(&r));
    }

    #[test]
    fn contract_metadata() {
        let d = TlsCrossLayer::new();
        assert_eq!(d.name(), provenance::FP_TLS_CROSSLAYER);
        assert_eq!(d.scope(), StateScope::Stateless);
        let mut fork = d.fork();
        let r = record(Some("Chrome"), TlsClientKind::PythonRequests.facet());
        assert_eq!(fork.observe(&r), Verdict::Bot);
    }
}
