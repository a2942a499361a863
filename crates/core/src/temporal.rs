//! §7.2: temporal inconsistency analysis.
//!
//! Two anchors, both processed in arrival order, each an *incremental,
//! shard-local state machine* (state keyed entirely by its anchor value, so
//! the sharded ingest pipeline can run each anchor on its own worker):
//!
//! * [`CookieAnchor`] — the first-party **cookie**: immutable device
//!   attributes (CPU cores, device memory, platform, screen, GPU…) must not
//!   vary across requests bearing the same cookie — a request that
//!   *introduces a second value* for such an attribute is temporally
//!   inconsistent, and the cookie stays burned: every later request it
//!   carries flags too (the paper's §8.1 CAPTCHA flow clears it by
//!   reissuing the cookie);
//! * [`IpAnchor`] — the **IP address** (as its stored hash): the set of
//!   browser timezones seen from one address should not keep growing.
//!
//! Each anchor is a [`Detector`] — the one implementation the ingest chain
//! ([`crate::FpInconsistent::detectors`]) and the batch path
//! ([`crate::FpInconsistent::stream`]) both run; the paper's temporal flag
//! is their disjunction.
//!
//! Both rules are first-value checks, so each anchor's entry is a
//! fixed-size value: one cookie holds the first value of each tracked
//! attribute and a burned bit, one address its first timezone offset. The
//! only set is an address's later offsets, allocated when a second offset
//! arrives. A new cookie or address allocates nothing beyond its map slot
//! — the paper's bots clear cookies, so most requests mint one.

use fp_honeysite::StoredRequest;
use fp_types::detect::{provenance, Detector, StateScope, Verdict};
use fp_types::{AttrId, AttrValue, CookieId};
use std::collections::{HashMap, HashSet};

/// Immutable attributes tracked per cookie: the attributes
/// [`AttrId::immutable_for_device`] names, in declaration order.
const TRACKED_ATTRS: [AttrId; 8] = [
    AttrId::Platform,
    AttrId::HardwareConcurrency,
    AttrId::DeviceMemory,
    AttrId::ScreenResolution,
    AttrId::ColorDepth,
    AttrId::MaxTouchPoints,
    AttrId::WebGlVendor,
    AttrId::WebGlRenderer,
];

/// One cookie's state.
struct CookieState {
    /// The first value seen for each of [`TRACKED_ATTRS`] (`Missing` until
    /// one arrives).
    first: [AttrValue; TRACKED_ATTRS.len()],
    /// The cookie has flagged: every later request flags without reading
    /// a value.
    burned: bool,
}

/// The cookie-anchored state machine (`fp-temporal-cookie`). All state is
/// keyed by the request's cookie: per cookie, the first value of each
/// immutable attribute and a burned bit.
#[derive(Default)]
pub struct CookieAnchor {
    per_cookie: HashMap<CookieId, CookieState>,
}

impl Detector for CookieAnchor {
    fn name(&self) -> &'static str {
        provenance::FP_TEMPORAL_COOKIE
    }

    fn scope(&self) -> StateScope {
        StateScope::PerCookie
    }

    /// Flags the request that reports a second value of an immutable
    /// attribute for its cookie, and every later request of that cookie.
    fn observe(&mut self, request: &StoredRequest) -> Verdict {
        let state = self
            .per_cookie
            .entry(request.cookie)
            .or_insert_with(|| CookieState {
                first: [AttrValue::Missing; TRACKED_ATTRS.len()],
                burned: false,
            });
        if state.burned {
            return Verdict::Bot;
        }
        for (first, attr) in state.first.iter_mut().zip(TRACKED_ATTRS) {
            let value = *request.fingerprint.get(attr);
            if value.is_missing() {
                continue;
            }
            if first.is_missing() {
                *first = value;
            } else if *first != value {
                // A second distinct value burns the cookie; no later
                // request reads its values again.
                state.burned = true;
                return Verdict::Bot;
            }
        }
        Verdict::Human
    }

    fn fork(&self) -> Box<dyn Detector> {
        Box::new(CookieAnchor::default())
    }
}

/// One address's timezone offsets.
struct IpState {
    /// The first offset reported from the address.
    first: i64,
    /// The later distinct offsets (never `first`): empty, so unallocated,
    /// until a second offset arrives.
    later: HashSet<i64>,
}

/// The IP-anchored state machine (`fp-temporal-ip`): per-address timezone
/// offsets, the first inline and the later distinct ones in a set that
/// allocates only once an address has reported a second offset. All state
/// is keyed by the request's address hash.
#[derive(Default)]
pub struct IpAnchor {
    per_ip: HashMap<u64, IpState>,
}

impl Detector for IpAnchor {
    fn name(&self) -> &'static str {
        provenance::FP_TEMPORAL_IP
    }

    fn scope(&self) -> StateScope {
        StateScope::PerIp
    }

    /// An address tolerates one timezone offset, its first; each other
    /// offset flags the first time the address reports it (travel across
    /// one boundary happens; more is proxy rotation).
    fn observe(&mut self, request: &StoredRequest) -> Verdict {
        let Some(offset) = request.fingerprint.get(AttrId::TimezoneOffset).as_int() else {
            return Verdict::Human;
        };
        let state = self
            .per_ip
            .entry(request.ip_hash)
            .or_insert_with(|| IpState {
                first: offset,
                later: HashSet::new(),
            });
        Verdict::from_flag(offset != state.first && state.later.insert(offset))
    }

    fn fork(&self) -> Box<dyn Detector> {
        Box::new(IpAnchor::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_types::{sym, BehaviorTrace, Fingerprint, SimTime, TrafficSource, VerdictSet};

    fn request(cookie: CookieId, ip: u64, cores: i64, offset: i64) -> StoredRequest {
        StoredRequest {
            id: 0,
            time: SimTime::EPOCH,
            site_token: sym("t"),
            ip_hash: ip,
            ip_offset_minutes: 0,
            ip_region: sym("X/Y"),
            ip_lat: 0.0,
            ip_lon: 0.0,
            asn: 1,
            asn_flagged: false,
            ip_blocklisted: false,
            tor_exit: false,
            cookie,
            fingerprint: Fingerprint::new()
                .with(AttrId::HardwareConcurrency, cores)
                .with(AttrId::TimezoneOffset, offset),
            tls: fp_types::TlsFacet::unobserved(),
            behavior: BehaviorTrace::silent(),
            cadence: fp_types::BehaviorFacet::unobserved(),
            source: TrafficSource::RealUser,
            verdicts: VerdictSet::new(),
        }
    }

    fn flags(anchor: &mut dyn Detector, r: &StoredRequest) -> bool {
        anchor.observe(r).is_bot()
    }

    #[test]
    fn stable_device_never_flags() {
        let (mut cookie, mut ip) = (CookieAnchor::default(), IpAnchor::default());
        for _ in 0..20 {
            let r = request(1, 10, 4, 480);
            assert!(!flags(&mut cookie, &r));
            assert!(!flags(&mut ip, &r));
        }
    }

    #[test]
    fn changed_core_count_flags_the_changing_request() {
        // The paper's example: previous requests report 4 cores, a new one
        // reports 6 — that request is temporally inconsistent, and the
        // burned cookie stays flagged afterwards.
        let mut cookie = CookieAnchor::default();
        assert!(!flags(&mut cookie, &request(1, 10, 4, 480)));
        assert!(!flags(&mut cookie, &request(1, 11, 4, 480)));
        assert!(flags(&mut cookie, &request(1, 12, 6, 480)));
        assert!(
            flags(&mut cookie, &request(1, 13, 6, 480)),
            "burned cookie persists"
        );
        assert!(
            flags(&mut cookie, &request(1, 14, 4, 480)),
            "even on its first value"
        );
    }

    #[test]
    fn different_cookies_are_independent() {
        let mut cookie = CookieAnchor::default();
        assert!(!flags(&mut cookie, &request(1, 10, 4, 480)));
        assert!(!flags(&mut cookie, &request(2, 11, 6, 480)));
    }

    #[test]
    fn ip_timezone_churn_flags() {
        let mut ip = IpAnchor::default();
        assert!(!flags(&mut ip, &request(1, 99, 4, 480)));
        // Same IP, new timezone: beyond the tolerated single offset.
        assert!(flags(&mut ip, &request(2, 99, 4, -60)));
        assert!(flags(&mut ip, &request(3, 99, 4, 0)));
        // Already-seen offsets on that IP: fine.
        assert!(!flags(&mut ip, &request(4, 99, 4, 480)));
        assert!(!flags(&mut ip, &request(5, 99, 4, -60)));
    }

    #[test]
    fn tracked_attrs_are_the_immutable_device_attributes() {
        let immutable: Vec<AttrId> = AttrId::iter()
            .filter(|a| a.immutable_for_device())
            .collect();
        assert_eq!(TRACKED_ATTRS.to_vec(), immutable);
    }

    #[test]
    fn offsets_that_agree_only_in_their_low_32_bits_are_distinct() {
        // A client reports any i64; 480 and 480 + 2^32 are two offsets.
        let mut ip = IpAnchor::default();
        assert!(!flags(&mut ip, &request(1, 99, 4, 480)));
        assert!(flags(&mut ip, &request(2, 99, 4, 480 + (1i64 << 32))));
    }

    #[test]
    fn an_address_with_one_offset_allocates_no_set() {
        let mut ip = IpAnchor::default();
        for cookie in 0..5 {
            assert!(!flags(&mut ip, &request(cookie, 99, 4, 480)));
        }
        assert_eq!(ip.per_ip[&99].later.capacity(), 0);
        assert!(flags(&mut ip, &request(9, 99, 4, -60)));
        assert_eq!(ip.per_ip[&99].later.len(), 1);
    }

    #[test]
    fn missing_attributes_are_ignored() {
        let mut cookie = CookieAnchor::default();
        let mut r = request(1, 10, 4, 480);
        assert!(!flags(&mut cookie, &r));
        r.fingerprint.clear(AttrId::HardwareConcurrency);
        // Missing ≠ a new value.
        assert!(!flags(&mut cookie, &r));
    }

    #[test]
    fn forks_start_from_empty_state() {
        let mut cookie = CookieAnchor::default();
        assert!(!flags(&mut cookie, &request(1, 10, 4, 480)));
        assert!(flags(&mut cookie, &request(1, 10, 6, 480)));
        let mut fresh = cookie.fork();
        assert_eq!(fresh.name(), provenance::FP_TEMPORAL_COOKIE);
        assert_eq!(fresh.scope(), StateScope::PerCookie);
        assert!(!flags(fresh.as_mut(), &request(1, 10, 6, 480)));

        let mut ip = IpAnchor::default();
        assert!(!flags(&mut ip, &request(1, 99, 4, 480)));
        assert!(flags(&mut ip, &request(1, 99, 4, -60)));
        let mut fresh = ip.fork();
        assert_eq!(fresh.name(), provenance::FP_TEMPORAL_IP);
        assert_eq!(fresh.scope(), StateScope::PerIp);
        assert!(!flags(fresh.as_mut(), &request(1, 99, 4, -60)));
    }
}
