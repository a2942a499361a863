//! The Section 5.1 blocklists, plus the arena's dynamic TTL blocklist.
//!
//! * [`AsnBlocklist`] — public "bad ASN" lists flag datacenter/hosting ASes
//!   wholesale. The paper found 82.54 % of honey-site requests came from
//!   flagged ASNs (bots overwhelmingly rent cloud capacity).
//! * [`IpBlocklist`] — reputation lists of individual addresses (MaxMind
//!   minFraud stand-in). The paper measured only 15.86 % request coverage;
//!   we model that as a deterministic per-address predicate whose hit rate
//!   depends on the address class (datacenter space is far better covered
//!   than residential).
//! * [`TtlBlocklist`] — a *dynamic* deny list the mitigation loop writes:
//!   entries are keyed by the stored address hash, expire on
//!   [`fp_types::SimTime`], and are extended (never shortened) on
//!   re-listing. This is what a Block-with-TTL response policy enforces at
//!   admission, and what the §6 bots rotate IPs to escape.

use crate::asn::{AsnClass, AsnRecord};
use crate::NetDb;
use fp_obs::{Counter, MetricsRegistry};
use fp_types::{mix2, unit_f64, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Registry name of the admission-check counter.
pub const BLOCKLIST_CHECKS: &str = "blocklist_checks";
/// Registry name of the admission-denial counter.
pub const BLOCKLIST_DENIALS: &str = "blocklist_denials";
/// Registry name of the purge-sweep counter.
pub const BLOCKLIST_PURGE_SWEEPS: &str = "blocklist_purge_sweeps";
/// Registry name of the purged-entry counter.
pub const BLOCKLIST_PURGED_ENTRIES: &str = "blocklist_purged_entries";

/// Admission-gate instruments, resolved once at
/// [`TtlBlocklist::set_metrics`]. `Arc` handles so the list's `Clone`
/// derive keeps working (clones share the instruments — they are one
/// logical gate).
#[derive(Clone, Debug)]
struct BlocklistMetrics {
    checks: Arc<Counter>,
    denials: Arc<Counter>,
    purge_sweeps: Arc<Counter>,
    purged_entries: Arc<Counter>,
}

/// Public datacenter-ASN blocklist (bad-asn-list style).
pub struct AsnBlocklist;

impl AsnBlocklist {
    /// Is the AS on the list? Datacenter and Tor-exit hosters are; consumer
    /// ISPs and mobile carriers are not.
    pub fn is_flagged(asn: &AsnRecord) -> bool {
        matches!(asn.class, AsnClass::CloudDatacenter | AsnClass::TorExit)
    }
}

/// Per-address reputation blocklist with partial, class-dependent coverage.
pub struct IpBlocklist;

/// Fraction of each class's address space that appears on reputation lists.
/// Datacenter space is heavily listed; residential/mobile space is sparse.
/// With the campaign's traffic mix these produce the paper's ≈15.86 %
/// request-level coverage (verified by the `sec5_1` bench).
const COVERAGE: [(AsnClass, f64); 4] = [
    (AsnClass::CloudDatacenter, 0.16),
    (AsnClass::TorExit, 0.95),
    (AsnClass::Residential, 0.03),
    (AsnClass::MobileCarrier, 0.02),
];

const IP_LIST_SALT: u64 = 0xB10C_0000_15EE;

impl IpBlocklist {
    /// Is this specific address on the reputation list? Deterministic per
    /// address (a list either contains an IP or it does not).
    pub fn is_blocked(ip: Ipv4Addr) -> bool {
        let info = NetDb::lookup(ip);
        let p = Self::class_coverage(info.asn.class);
        unit_f64(mix2(u64::from(u32::from(ip)), IP_LIST_SALT)) < p
    }

    /// List-coverage fraction for an address class.
    pub fn class_coverage(class: AsnClass) -> f64 {
        COVERAGE
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, p)| *p)
            .unwrap_or(0.0)
    }
}

/// Tor-exit membership (public exit lists are complete, unlike reputation
/// lists). DataDome-style server-side engines consume this; BotD cannot (it
/// is a client-side script with no IP view — Appendix G).
pub fn is_tor_exit(ip: Ipv4Addr) -> bool {
    NetDb::lookup(ip).asn.class == AsnClass::TorExit
}

/// One [`TtlBlocklist`] entry: when it stops binding, how long its
/// offense history must be remembered even unbinding, and how often the
/// address has been (re-)listed — the escalation ladder's memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TtlEntry {
    /// First simulated second at which the entry no longer binds.
    expiry: SimTime,
    /// First simulated second at which non-binding strike memory (see
    /// [`TtlBlocklist::strike`]) may be swept. Zero for entries whose
    /// history lives only as long as the ban itself.
    memory_expiry: SimTime,
    /// Times the address has been listed while this entry existed.
    offenses: u32,
}

/// A dynamic per-address deny list with TTL expiry on simulated time.
///
/// Unlike [`AsnBlocklist`]/[`IpBlocklist`] (static world state), this list
/// is *written by the defender*: a Block-with-TTL response policy inserts
/// the offending address hash, and admission consults the list before a
/// request reaches the detector chain. Keys are the privacy-preserving
/// [`NetDb::hash_ip`] hashes — the store never keeps raw addresses, so the
/// mitigation loop cannot either.
///
/// **Re-listing semantics (escalation contract).** Listing an address that
/// already has an entry *extends from the later of the current expiry and
/// `now`*: the new expiry is `max(expiry, now) + ttl` (saturating). TTLs
/// therefore stack for repeat offenders instead of overlapping, an expiry
/// never moves backwards, and each listing increments the entry's offense
/// count — what [`fp_types::defense::EscalatingTtl`] keys its ladder on.
/// Offense history lives exactly as long as the entry: an expired entry
/// still remembers its offenses until [`TtlBlocklist::purge_expired`]
/// sweeps it, so escalation memory is bounded by list retention, not
/// unbounded recidivism tracking.
#[derive(Clone, Debug, Default)]
pub struct TtlBlocklist {
    entries: HashMap<u64, TtlEntry>,
    metrics: Option<BlocklistMetrics>,
}

impl TtlBlocklist {
    /// An empty list.
    pub fn new() -> TtlBlocklist {
        TtlBlocklist::default()
    }

    /// Attach admission-gate counters ([`BLOCKLIST_CHECKS`],
    /// [`BLOCKLIST_DENIALS`], [`BLOCKLIST_PURGE_SWEEPS`],
    /// [`BLOCKLIST_PURGED_ENTRIES`]) resolved from `registry`. Idempotent:
    /// re-attaching the same registry resolves the same instruments.
    pub fn set_metrics(&mut self, registry: &Arc<MetricsRegistry>) {
        self.metrics = Some(BlocklistMetrics {
            checks: registry.counter(BLOCKLIST_CHECKS),
            denials: registry.counter(BLOCKLIST_DENIALS),
            purge_sweeps: registry.counter(BLOCKLIST_PURGE_SWEEPS),
            purged_entries: registry.counter(BLOCKLIST_PURGED_ENTRIES),
        });
    }

    /// List `ip_hash` at `now` for `ttl_secs`; returns the address's
    /// offense count after this listing (1 for a first offense). Re-listing
    /// extends from the later of the current expiry and `now` and records
    /// the repeat offense (see the type-level contract).
    pub fn block(&mut self, ip_hash: u64, now: SimTime, ttl_secs: u64) -> u32 {
        let entry = self.entries.entry(ip_hash).or_insert(TtlEntry {
            expiry: now,
            memory_expiry: SimTime(0),
            offenses: 0,
        });
        let base = entry.expiry.max(now);
        entry.expiry = SimTime(base.0.saturating_add(ttl_secs));
        entry.offenses = entry.offenses.saturating_add(1);
        entry.offenses
    }

    /// Record a *non-binding* offense for `ip_hash` — a strike: the
    /// offense count moves (returned, 1 for a first strike) and the
    /// history is remembered for `memory_ttl_secs` of simulated time,
    /// but nothing is ever denied on its account
    /// ([`TtlBlocklist::contains`] ignores strike memory). This is what
    /// a CAPTCHA-then-block policy records for a served challenge: the
    /// next offense within the memory window sits one rung up the
    /// ladder, across round boundaries, while a purge sweeps lapsed
    /// strike memory on the same clock it sweeps lapsed bans.
    pub fn strike(&mut self, ip_hash: u64, now: SimTime, memory_ttl_secs: u64) -> u32 {
        let entry = self.entries.entry(ip_hash).or_insert(TtlEntry {
            expiry: now,
            memory_expiry: now,
            offenses: 0,
        });
        let candidate = SimTime(now.0.saturating_add(memory_ttl_secs));
        entry.memory_expiry = entry.memory_expiry.max(candidate);
        entry.offenses = entry.offenses.saturating_add(1);
        entry.offenses
    }

    /// Renew a *binding* entry's lease: extend its expiry to
    /// `max(expiry, now + ttl_secs)` without recording a new offense — the
    /// operation for continued activity *during* a ban (each blocked
    /// request pushes coverage out from its own timestamp, but TTLs do
    /// not stack and the offense ladder does not move). No-op for
    /// unlisted or already-expired addresses: a lapsed ban cannot be
    /// renewed, only re-opened via [`TtlBlocklist::block`]. Returns
    /// whether an entry was renewed.
    pub fn refresh(&mut self, ip_hash: u64, now: SimTime, ttl_secs: u64) -> bool {
        match self.entries.get_mut(&ip_hash) {
            Some(entry) if now < entry.expiry => {
                let candidate = SimTime(now.0.saturating_add(ttl_secs));
                entry.expiry = entry.expiry.max(candidate);
                true
            }
            _ => false,
        }
    }

    /// Times `ip_hash` has been listed within the current entry's lifetime
    /// (0 when unlisted or already swept) — the escalation ladder input.
    pub fn offenses(&self, ip_hash: u64) -> u32 {
        self.entries.get(&ip_hash).map_or(0, |e| e.offenses)
    }

    /// Is `ip_hash` denied at `now`? Expired entries do not bind (they are
    /// kept until [`TtlBlocklist::purge_expired`] sweeps them, like a real
    /// list distributing removals on its next refresh).
    pub fn contains(&self, ip_hash: u64, now: SimTime) -> bool {
        let denied = self
            .entries
            .get(&ip_hash)
            .is_some_and(|entry| now < entry.expiry);
        if let Some(m) = &self.metrics {
            m.checks.inc();
            if denied {
                m.denials.inc();
            }
        }
        denied
    }

    /// Drop every entry whose expiry — and strike memory, if any — has
    /// passed; offense history goes with it, so a swept repeat offender
    /// restarts its escalation ladder. Returns how many entries were
    /// removed.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries
            .retain(|_, entry| now < entry.expiry || now < entry.memory_expiry);
        let purged = before - self.entries.len();
        if let Some(m) = &self.metrics {
            m.purge_sweeps.inc();
            m.purged_entries.add(purged as u64);
        }
        purged
    }

    /// Number of entries (live and expired-but-unswept).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::{asns_of_class, ASN_TABLE};
    use fp_types::Splittable;

    #[test]
    fn datacenter_and_tor_are_flagged_isps_are_not() {
        for rec in ASN_TABLE.iter() {
            let expect = matches!(rec.class, AsnClass::CloudDatacenter | AsnClass::TorExit);
            assert_eq!(AsnBlocklist::is_flagged(rec), expect, "{}", rec.name);
        }
    }

    #[test]
    fn ip_blocklist_is_deterministic() {
        let ip = Ipv4Addr::new(52, 40, 1, 2);
        assert_eq!(IpBlocklist::is_blocked(ip), IpBlocklist::is_blocked(ip));
    }

    #[test]
    fn ip_blocklist_coverage_tracks_class() {
        let mut rng = Splittable::new(33);
        let mut rate = |class: AsnClass| {
            let asns = asns_of_class(class);
            let mut hits = 0;
            let n = 4000;
            for i in 0..n {
                let asn = asns[i % asns.len()];
                let ip = NetDb::sample_ip(asn, &mut rng);
                if IpBlocklist::is_blocked(ip) {
                    hits += 1;
                }
            }
            f64::from(hits) / f64::from(n as u32)
        };
        let dc = rate(AsnClass::CloudDatacenter);
        let res = rate(AsnClass::Residential);
        let tor = rate(AsnClass::TorExit);
        assert!((0.14..0.22).contains(&dc), "datacenter coverage {dc}");
        assert!(res < 0.06, "residential coverage {res}");
        assert!(tor > 0.85, "tor coverage {tor}");
    }

    #[test]
    fn tor_exit_predicate() {
        assert!(is_tor_exit(Ipv4Addr::new(185, 10, 0, 1)));
        assert!(!is_tor_exit(Ipv4Addr::new(73, 10, 0, 1)));
    }

    #[test]
    fn ttl_metrics_count_checks_denials_and_purges() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut list = TtlBlocklist::new();
        list.set_metrics(&registry);
        let t0 = SimTime::from_day(1, 0);
        list.block(1, t0, 100);
        list.block(2, t0, 100);
        assert!(list.contains(1, t0));
        assert!(!list.contains(3, t0), "unlisted hashes never bind");
        assert!(!list.contains(1, t0 + 200), "expired entries do not bind");
        assert_eq!(list.purge_expired(t0 + 200), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(BLOCKLIST_CHECKS), Some(3));
        assert_eq!(snap.counter(BLOCKLIST_DENIALS), Some(1));
        assert_eq!(snap.counter(BLOCKLIST_PURGE_SWEEPS), Some(1));
        assert_eq!(snap.counter(BLOCKLIST_PURGED_ENTRIES), Some(2));
        // Clones share the instruments: a check through the clone lands in
        // the same counter.
        let clone = list.clone();
        assert!(!clone.contains(9, t0));
        assert_eq!(registry.snapshot().counter(BLOCKLIST_CHECKS), Some(4));
    }

    #[test]
    fn ttl_entries_bind_until_expiry() {
        let mut list = TtlBlocklist::new();
        let t0 = SimTime::from_day(3, 100);
        list.block(42, t0, 1_000);
        assert!(list.contains(42, t0), "binds immediately");
        assert!(list.contains(42, t0 + 999), "binds until the last second");
        assert!(!list.contains(42, t0 + 1_000), "expiry is exclusive");
        assert!(!list.contains(42, t0 + 50_000));
        assert!(!list.contains(7, t0), "unlisted hashes never bind");
    }

    #[test]
    fn ttl_relisting_extends_from_the_later_expiry() {
        let mut list = TtlBlocklist::new();
        let t0 = SimTime::from_day(0, 0);
        assert_eq!(list.block(9, t0, 10_000), 1);
        // Re-listing while listed stacks onto the *current expiry* (the
        // later of expiry and now), never onto the earlier re-listing
        // time: 10_000 + 50 = 10_050.
        assert_eq!(list.block(9, t0 + 100, 50), 2);
        assert!(list.contains(9, t0 + 5_000));
        assert!(list.contains(9, t0 + 10_000), "the stacked 50s still bind");
        assert!(!list.contains(9, t0 + 10_050), "…and expire in order");
        // A re-listing after expiry extends from `now` (the later point),
        // not from the stale expiry.
        assert_eq!(list.block(9, t0 + 20_000, 500), 3, "offenses accumulate");
        assert!(list.contains(9, t0 + 20_100));
        assert!(!list.contains(9, t0 + 20_500));
    }

    #[test]
    fn ttl_refresh_renews_leases_without_counting_offenses() {
        let mut list = TtlBlocklist::new();
        let t0 = SimTime::from_day(0, 0);
        assert!(!list.refresh(4, t0, 100), "unlisted addresses cannot renew");
        assert_eq!(list.block(4, t0, 1_000), 1);
        // Renewal pushes coverage out from the renewal time…
        assert!(list.refresh(4, t0 + 800, 1_000));
        assert!(list.contains(4, t0 + 1_500));
        assert!(!list.contains(4, t0 + 1_800));
        // …never shortens…
        assert!(list.refresh(4, t0 + 900, 10));
        assert!(list.contains(4, t0 + 1_500));
        // …and never moves the offense ladder.
        assert_eq!(list.offenses(4), 1);
        // A lapsed ban cannot be renewed, only re-opened (a new offense).
        assert!(!list.refresh(4, t0 + 50_000, 1_000));
        assert!(!list.contains(4, t0 + 50_000));
        assert_eq!(list.block(4, t0 + 50_000, 1_000), 2);
    }

    #[test]
    fn ttl_offense_counts_follow_entry_lifetime() {
        let mut list = TtlBlocklist::new();
        let t0 = SimTime::from_day(0, 0);
        assert_eq!(list.offenses(1), 0, "never listed");
        list.block(1, t0, 100);
        list.block(1, t0 + 10, 100);
        assert_eq!(list.offenses(1), 2);
        // Expired but unswept: history still binds the escalation ladder.
        assert!(!list.contains(1, t0 + 1_000));
        assert_eq!(list.offenses(1), 2);
        assert_eq!(list.block(1, t0 + 1_000, 100), 3);
        // A purge sweeps the entry and the ladder restarts at one.
        list.purge_expired(t0 + 50_000);
        assert_eq!(list.offenses(1), 0);
        assert_eq!(list.block(1, t0 + 60_000, 100), 1);
    }

    #[test]
    fn strikes_move_the_ladder_without_ever_binding() {
        let mut list = TtlBlocklist::new();
        let t0 = SimTime::from_day(0, 0);
        assert_eq!(list.strike(6, t0, 10_000), 1);
        assert_eq!(list.strike(6, t0 + 100, 10_000), 2);
        // Strikes never deny…
        assert!(!list.contains(6, t0));
        assert!(!list.contains(6, t0 + 5_000));
        // …and cannot be lease-renewed (there is no binding ban).
        assert!(!list.refresh(6, t0, 1_000));
        // But the history survives purges for the memory TTL — the
        // cross-round rung a CAPTCHA-then-block ladder stands on.
        assert_eq!(list.purge_expired(t0 + 9_000), 0);
        assert_eq!(list.offenses(6), 2);
        // A block after a strike escalates from the struck rung and the
        // entry now binds like any ban.
        assert_eq!(list.block(6, t0 + 9_000, 500), 3);
        assert!(list.contains(6, t0 + 9_200));
        // Once both the ban and the memory lapse, a purge sweeps it all.
        assert_eq!(list.purge_expired(t0 + 50_000), 1);
        assert_eq!(list.offenses(6), 0);
    }

    #[test]
    fn purge_mid_episode_never_resets_the_binding_ladder() {
        // The escalation ladder a policy observes *within* a round must
        // survive purges that happen during the round: purging sweeps
        // only expired entries, so a binding episode's offense history —
        // including offenses accumulated before the current lease — is
        // untouched, and decisions after the purge sit on the same rung
        // as decisions before it.
        let mut list = TtlBlocklist::new();
        let t0 = SimTime::from_day(0, 0);
        // Two episodes: the first lapses, the second is binding.
        list.block(8, t0, 100);
        assert_eq!(list.block(8, t0 + 5_000, 10_000), 2);
        assert!(list.contains(8, t0 + 6_000));
        // A mid-episode purge (entry still binding) sweeps nothing.
        assert_eq!(list.purge_expired(t0 + 6_000), 0);
        assert_eq!(
            list.offenses(8),
            2,
            "purging while the ban binds must not move the ladder"
        );
        // A lease renewal (continued activity during the ban) also rides
        // through purges without moving the ladder.
        assert!(list.refresh(8, t0 + 7_000, 10_000));
        assert_eq!(list.purge_expired(t0 + 8_000), 0);
        assert_eq!(list.offenses(8), 2, "renewals never count as offenses");
        assert!(list.contains(8, t0 + 16_000), "the renewed lease binds");
        // Only once the episode lapses does a purge sweep it — and only
        // then does the ladder restart.
        assert_eq!(list.purge_expired(t0 + 50_000), 1);
        assert_eq!(list.offenses(8), 0);
        assert_eq!(list.block(8, t0 + 60_000, 100), 1, "fresh episode");
    }

    #[test]
    fn refresh_extends_exactly_the_entries_a_purge_would_spare() {
        // refresh() and purge_expired() agree on what "binding" means:
        // an entry renewable at `now` is exactly an entry a purge at
        // `now` keeps. Checked across the expiry boundary.
        let mut list = TtlBlocklist::new();
        let t0 = SimTime::from_day(2, 0);
        list.block(1, t0, 1_000);
        for offset in [0u64, 500, 999, 1_000, 2_000] {
            let now = t0 + offset;
            let mut probe = list.clone();
            let renewable = probe.refresh(1, now, 1);
            let mut swept = list.clone();
            let kept = swept.purge_expired(now) == 0;
            assert_eq!(
                renewable, kept,
                "offset {offset}: refresh and purge must agree on binding"
            );
        }
    }

    #[test]
    fn ttl_expiry_ordering_across_round_boundaries() {
        // An arena round is ROUND-length in simulated seconds; entries
        // written near the end of round r must bind into round r+1 and
        // expire in timestamp order even when re-listings straddle the
        // boundary.
        const ROUND: u64 = 91 * 86_400;
        let mut list = TtlBlocklist::new();
        let late_r0 = SimTime(ROUND - 100);
        list.block(5, late_r0, 1_000);
        // Round wraps: the entry binds across the boundary…
        assert!(list.contains(5, SimTime(ROUND)));
        assert!(list.contains(5, SimTime(ROUND + 899)));
        assert!(
            !list.contains(5, SimTime(ROUND + 900)),
            "expiry is exclusive"
        );
        // …and a round-1 re-listing stacks onto the round-0 expiry.
        list.block(5, SimTime(ROUND + 10), 500);
        assert!(list.contains(5, SimTime(ROUND + 1_000)));
        assert!(!list.contains(5, SimTime(ROUND + 1_400)));
        // Entries listed in different rounds expire in listing order.
        list.block(7, SimTime(ROUND + 2_000), 100);
        assert_eq!(list.purge_expired(SimTime(ROUND + 1_400)), 1, "5 first");
        assert!(list.contains(7, SimTime(ROUND + 2_050)));
    }

    #[test]
    fn ttl_saturates_at_the_end_of_simulated_time() {
        // A u64 SimTime wraparound must saturate, not overflow: an entry
        // listed near the ceiling simply never expires.
        let mut list = TtlBlocklist::new();
        let near_max = SimTime(u64::MAX - 10);
        list.block(3, near_max, 1_000_000);
        assert!(list.contains(3, near_max));
        assert!(list.contains(3, SimTime(u64::MAX - 1)));
        assert_eq!(list.purge_expired(SimTime(u64::MAX - 1)), 0);
    }

    #[test]
    fn ttl_purge_sweeps_only_expired_entries() {
        let mut list = TtlBlocklist::new();
        let t0 = SimTime::EPOCH;
        list.block(1, t0, 100);
        list.block(2, t0, 1_000);
        assert_eq!(list.len(), 2);
        assert_eq!(list.purge_expired(t0 + 500), 1);
        assert_eq!(list.len(), 1);
        assert!(list.contains(2, t0 + 500));
        assert_eq!(list.purge_expired(t0 + 5_000), 1);
        assert!(list.is_empty());
    }
}
