//! §7.2: temporal inconsistency analysis.
//!
//! Two anchors, both processed in arrival order, each an *incremental,
//! shard-local state machine* (state keyed entirely by its anchor value, so
//! the sharded ingest pipeline can run each anchor on its own worker):
//!
//! * [`CookieAnchor`] — the first-party **cookie**: immutable device
//!   attributes (CPU cores, device memory, platform, screen, GPU…) must not
//!   vary across requests bearing the same cookie — a request that
//!   *introduces a new value* for such an attribute is temporally
//!   inconsistent;
//! * [`IpAnchor`] — the **IP address** (as its stored hash): the set of
//!   browser timezones seen from one address should not keep growing.
//!
//! Both rules are first-value checks, so each anchor's entry is a
//! fixed-size value: one cookie holds the first value of each tracked
//! attribute and a burned bit, one address its first timezone offset.
//! Sets appear only where the rule must remember more than one value: a
//! cookie's later values in the paper-literal mode
//! (`burned_cookie_persists: false`), allocated on its first flag, and an
//! address's later offsets, allocated when a second offset arrives. A new
//! cookie or address allocates nothing beyond its map slot — the paper's
//! bots clear cookies, so most requests mint one.
//!
//! [`TemporalEngine`] combines both for the batch path; the
//!   [`Detector`](fp_types::Detector) adapters live in [`crate::engine`].

use fp_honeysite::{RequestStore, StoredRequest};
use fp_types::{AttrId, AttrValue, CookieId};
use std::collections::hash_map::Entry;
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

/// Configuration for the temporal engine.
#[derive(Clone, Copy, Debug)]
pub struct TemporalConfig {
    /// Maximum distinct timezone offsets tolerated per IP before further
    /// new offsets flag (travel across one boundary happens; more is
    /// proxy-rotation).
    pub max_offsets_per_ip: usize,
    /// Once a cookie has proven inconsistent (two distinct values of an
    /// immutable attribute), keep flagging its requests even when they
    /// repeat already-seen values. The paper's rule is the new-value
    /// trigger; persistence is the deployment stance that a burned device
    /// identity stays burned (its §8.1 CAPTCHA flow clears it by reissuing
    /// the cookie).
    pub burned_cookie_persists: bool,
}

impl Default for TemporalConfig {
    fn default() -> Self {
        TemporalConfig {
            max_offsets_per_ip: 1,
            burned_cookie_persists: true,
        }
    }
}

/// One cookie's state.
struct CookieState {
    /// The first value seen for each of [`TRACKED_ATTRS`] (`Missing` until
    /// one arrives).
    first: [AttrValue; TRACKED_ATTRS.len()],
    /// The cookie has flagged and `burned_cookie_persists` holds: every
    /// later request flags without reading a value.
    burned: bool,
    /// Paper-literal mode only: the later distinct values, as
    /// `(slot in TRACKED_ATTRS, value)`. Empty, so unallocated, until the
    /// cookie's first flag; the default mode never fills it, since a burned
    /// cookie flags whatever it reports.
    later: HashSet<(u8, AttrValue)>,
}

impl CookieState {
    fn new() -> CookieState {
        CookieState {
            first: [AttrValue::Missing; TRACKED_ATTRS.len()],
            burned: false,
            later: HashSet::new(),
        }
    }
}

/// The cookie-anchored state machine. All state is keyed by the request's
/// cookie: per cookie, the first value of each immutable attribute and a
/// burned bit (plus, in the paper-literal mode, the later distinct values
/// once the cookie has flagged).
pub struct CookieAnchor {
    config: TemporalConfig,
    per_cookie: HashMap<CookieId, CookieState>,
}

impl CookieAnchor {
    /// Fresh state machine.
    pub fn new(config: TemporalConfig) -> CookieAnchor {
        CookieAnchor {
            config,
            per_cookie: HashMap::new(),
        }
    }

    /// Observe one request (in arrival order for its cookie) and report
    /// whether the cookie anchor flags it.
    pub fn observe(&mut self, request: &StoredRequest) -> bool {
        let state = self
            .per_cookie
            .entry(request.cookie)
            .or_insert_with(CookieState::new);
        if state.burned {
            return true;
        }
        let mut flagged = false;
        for (slot, attr) in TRACKED_ATTRS.iter().enumerate() {
            let value = *request.fingerprint.get(*attr);
            if value.is_missing() {
                continue;
            }
            let first = &mut state.first[slot];
            if first.is_missing() {
                *first = value;
            } else if *first != value {
                if self.config.burned_cookie_persists {
                    // A second distinct value burns the cookie; no later
                    // request reads its values again.
                    state.burned = true;
                    return true;
                }
                flagged |= state.later.insert((slot as u8, value));
            }
        }
        flagged
    }

    /// Drop all state.
    pub fn reset(&mut self) {
        self.per_cookie.clear();
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

/// The IP-anchored state machine: per-address timezone offsets, the first
/// inline and the later distinct ones in a set that allocates only once an
/// address has reported a second offset. All state is keyed by the
/// request's address hash.
pub struct IpAnchor {
    max_offsets_per_ip: usize,
    per_ip: HashMap<u64, IpState>,
}

impl IpAnchor {
    /// Fresh state machine.
    pub fn new(config: TemporalConfig) -> IpAnchor {
        IpAnchor {
            max_offsets_per_ip: config.max_offsets_per_ip,
            per_ip: HashMap::new(),
        }
    }

    /// Observe one request (in arrival order for its address) and report
    /// whether the IP anchor flags it: a new offset flags once the address
    /// already has `max_offsets_per_ip` distinct offsets.
    pub fn observe(&mut self, request: &StoredRequest) -> bool {
        let Some(offset) = request.fingerprint.get(AttrId::TimezoneOffset).as_int() else {
            return false;
        };
        let state = match self.per_ip.entry(request.ip_hash) {
            Entry::Vacant(slot) => {
                slot.insert(IpState {
                    first: offset,
                    later: HashSet::new(),
                });
                return self.max_offsets_per_ip == 0;
            }
            Entry::Occupied(slot) => slot.into_mut(),
        };
        if state.first == offset {
            return false;
        }
        let known = 1 + state.later.len();
        state.later.insert(offset) && known >= self.max_offsets_per_ip
    }

    /// Drop all state.
    pub fn reset(&mut self) {
        self.per_ip.clear();
    }
}

/// Streaming temporal analyser: both anchors combined (the batch path).
pub struct TemporalEngine {
    cookie: CookieAnchor,
    ip: IpAnchor,
}

impl TemporalEngine {
    /// Fresh engine.
    pub fn new(config: TemporalConfig) -> TemporalEngine {
        TemporalEngine {
            cookie: CookieAnchor::new(config),
            ip: IpAnchor::new(config),
        }
    }

    /// Observe one request (in arrival order) and report whether it is
    /// temporally inconsistent with what came before. The two anchors are
    /// independent state machines; the flag is their disjunction.
    pub fn observe(&mut self, request: &StoredRequest) -> bool {
        // Non-short-circuiting: both anchors must ingest every request.
        self.cookie.observe(request) | self.ip.observe(request)
    }

    /// Run over a whole store (must be in arrival order, which the
    /// honey-site pipeline guarantees) and return per-request flags.
    pub fn flags_for(store: &RequestStore, config: TemporalConfig) -> Vec<bool> {
        let mut engine = TemporalEngine::new(config);
        store.iter().map(|r| engine.observe(r)).collect()
    }

    /// Drop all state.
    pub fn reset(&mut self) {
        self.cookie.reset();
        self.ip.reset();
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

    #[test]
    fn stable_device_never_flags() {
        let mut engine = TemporalEngine::new(TemporalConfig::default());
        for _ in 0..20 {
            assert!(!engine.observe(&request(1, 10, 4, 480)));
        }
    }

    #[test]
    fn changed_core_count_flags_the_changing_request() {
        // The paper's example: previous requests report 4 cores, a new one
        // reports 6 — that request is temporally inconsistent. With burned
        // persistence (the default), the cookie stays flagged afterwards.
        let mut engine = TemporalEngine::new(TemporalConfig::default());
        assert!(!engine.observe(&request(1, 10, 4, 480)));
        assert!(!engine.observe(&request(1, 11, 4, 480)));
        assert!(engine.observe(&request(1, 12, 6, 480)));
        assert!(
            engine.observe(&request(1, 13, 6, 480)),
            "burned cookie persists"
        );
        // Under the paper's literal new-value-only rule it clears again.
        let mut literal = TemporalEngine::new(TemporalConfig {
            burned_cookie_persists: false,
            ..TemporalConfig::default()
        });
        assert!(!literal.observe(&request(1, 10, 4, 480)));
        assert!(literal.observe(&request(1, 12, 6, 480)));
        assert!(!literal.observe(&request(1, 13, 6, 480)));
    }

    #[test]
    fn different_cookies_are_independent() {
        let mut engine = TemporalEngine::new(TemporalConfig::default());
        assert!(!engine.observe(&request(1, 10, 4, 480)));
        assert!(!engine.observe(&request(2, 11, 6, 480)));
    }

    #[test]
    fn ip_timezone_churn_flags() {
        let mut engine = TemporalEngine::new(TemporalConfig::default());
        assert!(!engine.observe(&request(1, 99, 4, 480)));
        // Same IP, new timezone: beyond the tolerated single offset.
        assert!(engine.observe(&request(2, 99, 4, -60)));
        assert!(engine.observe(&request(3, 99, 4, 0)));
        // Already-seen offset on that IP: fine.
        assert!(!engine.observe(&request(4, 99, 4, 480)));
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
        let mut ip = IpAnchor::new(TemporalConfig::default());
        assert!(!ip.observe(&request(1, 99, 4, 480)));
        assert!(ip.observe(&request(2, 99, 4, 480 + (1i64 << 32))));
    }

    #[test]
    fn an_address_with_one_offset_allocates_no_set() {
        let mut ip = IpAnchor::new(TemporalConfig::default());
        for cookie in 0..5 {
            assert!(!ip.observe(&request(cookie, 99, 4, 480)));
        }
        assert_eq!(ip.per_ip[&99].later.capacity(), 0);
        assert!(ip.observe(&request(9, 99, 4, -60)));
        assert_eq!(ip.per_ip[&99].later.len(), 1);
    }

    #[test]
    fn only_the_literal_mode_keeps_later_cookie_values() {
        let stream = [
            request(1, 10, 4, 480),
            request(1, 10, 6, 480),
            request(1, 10, 8, 480),
        ];
        let mut persists = CookieAnchor::new(TemporalConfig::default());
        let mut literal = CookieAnchor::new(TemporalConfig {
            burned_cookie_persists: false,
            ..TemporalConfig::default()
        });
        for r in &stream {
            persists.observe(r);
            literal.observe(r);
        }
        assert!(persists.per_cookie[&1].burned);
        assert_eq!(persists.per_cookie[&1].later.capacity(), 0);
        assert!(!literal.per_cookie[&1].burned);
        assert_eq!(literal.per_cookie[&1].later.len(), 2);
    }

    #[test]
    fn missing_attributes_are_ignored() {
        let mut engine = TemporalEngine::new(TemporalConfig::default());
        let mut r = request(1, 10, 4, 480);
        assert!(!engine.observe(&r));
        r.fingerprint.clear(AttrId::HardwareConcurrency);
        // Missing ≠ a new value.
        assert!(!engine.observe(&r));
    }

    #[test]
    fn flags_for_runs_in_order() {
        let mut store = RequestStore::new();
        store.push(request(1, 10, 4, 480));
        store.push(request(1, 10, 6, 480));
        store.push(request(1, 10, 4, 480));
        let flags = TemporalEngine::flags_for(&store, TemporalConfig::default());
        assert_eq!(
            flags,
            vec![false, true, true],
            "second flag via burned persistence"
        );
    }

    #[test]
    fn split_anchors_compose_to_the_combined_flag() {
        // The anchors are independent state machines: running them
        // separately and OR-ing must equal the combined engine — the
        // property the sharded pipeline relies on.
        let config = TemporalConfig::default();
        let mut combined = TemporalEngine::new(config);
        let mut cookie = CookieAnchor::new(config);
        let mut ip = IpAnchor::new(config);
        let stream = [
            request(1, 10, 4, 480),
            request(1, 11, 6, 480),
            request(2, 10, 4, -60),
            request(1, 12, 4, 480),
            request(3, 10, 8, 0),
        ];
        for r in &stream {
            let whole = combined.observe(r);
            let split = cookie.observe(r) | ip.observe(r);
            assert_eq!(whole, split);
        }
    }
}
