//! Network substrate: who owns an IP, where it is, and which lists flag it.
//!
//! Stand-in for the paper's MaxMind GeoLite2/minFraud databases and the
//! public ASN blocklists of Section 5.1. The substitution preserves what the
//! analysis consumes:
//!
//! * a deterministic `IP → (ASN, class, country, region, timezone)` map
//!   ([`NetDb`]), so IP-geolocation vs. browser-timezone comparisons
//!   (Section 6.2, Figure 8) are well-defined;
//! * an ASN blocklist covering datacenter/cloud networks and an IP
//!   blocklist with deliberately partial coverage, mirroring the measured
//!   82.54 % / 15.86 % coverages;
//! * a Tor-exit predicate for the Appendix G experiments.

// The network substrate is consumed by every ingest path and the arena's
// admission gate; like fp-types, its public surface is contract.
#![deny(missing_docs)]

pub mod asn;
pub mod blocklist;
pub mod geo;

pub use asn::{AsnClass, AsnRecord, ASN_TABLE};
pub use blocklist::{AsnBlocklist, IpBlocklist, TtlBlocklist};
pub use geo::{GeoTarget, Region, REGIONS};

use fp_types::mix2;
use std::net::Ipv4Addr;

/// Salt for the privacy-preserving IP hash.
const IP_HASH_SALT: u64 = 0x1B2C_3D4E;

/// Everything the pipeline derives from a source IP at ingest time (the
/// paper hashes raw IPs before storage, so derivation happens up front).
#[derive(Clone, Copy, Debug)]
pub struct NetInfo {
    /// Autonomous system owning the address.
    pub asn: &'static AsnRecord,
    /// Geographic region the address maps to.
    pub region: &'static Region,
    /// `region`'s index into [`REGIONS`].
    pub region_index: usize,
}

/// The combined ASN + geolocation database.
pub struct NetDb;

impl NetDb {
    /// Resolve an IP to its owner and location. Addresses outside every
    /// allocated prefix (which the generators never produce) fall back to a
    /// default residential US record, like a real geo DB returning its best
    /// guess.
    pub fn lookup(ip: Ipv4Addr) -> NetInfo {
        let octets = ip.octets();
        let asn = asn::asn_for_prefix(octets[0], octets[1]).unwrap_or(&ASN_TABLE[0]);
        // An ASN spans one or more regions; pick one stably per address so
        // the same IP always geolocates identically.
        let regions = asn.region_indices;
        let idx = (mix2(u64::from(u32::from(ip)), 0x6E0) % regions.len() as u64) as usize;
        let region_index = regions[idx];
        NetInfo {
            asn,
            region: &REGIONS[region_index],
            region_index,
        }
    }

    /// Sample an address owned by `asn` (uniform over its prefixes).
    pub fn sample_ip(asn: &AsnRecord, rng: &mut fp_types::Splittable) -> Ipv4Addr {
        let (first, second_base, span) = *rng.pick(asn.prefixes);
        let second = second_base + rng.next_below(u64::from(span)) as u8;
        let third = rng.next_below(256) as u8;
        let fourth = rng.next_below(254) as u8 + 1;
        Ipv4Addr::new(first, second, third, fourth)
    }

    /// Privacy-preserving stable identifier for an IP (the stored form —
    /// Appendix A: "identifiable information, such as IP addresses, was
    /// hashed before storage").
    pub fn hash_ip(ip: Ipv4Addr) -> u64 {
        mix2(u64::from(u32::from(ip)), IP_HASH_SALT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_types::Splittable;

    #[test]
    fn lookup_roundtrips_allocation() {
        let mut rng = Splittable::new(1);
        for asn in ASN_TABLE.iter() {
            for _ in 0..20 {
                let ip = NetDb::sample_ip(asn, &mut rng);
                let info = NetDb::lookup(ip);
                assert_eq!(info.asn.asn, asn.asn, "ip {ip} resolved to wrong ASN");
            }
        }
    }

    #[test]
    fn lookup_is_stable_per_ip() {
        let ip = Ipv4Addr::new(52, 30, 7, 9);
        let a = NetDb::lookup(ip);
        let b = NetDb::lookup(ip);
        assert_eq!(a.asn.asn, b.asn.asn);
        assert_eq!(a.region.name, b.region.name);
        assert_eq!(a.region_index, b.region_index);
        assert_eq!(&REGIONS[a.region_index], a.region);
    }

    #[test]
    fn region_country_matches_asn_country() {
        let mut rng = Splittable::new(2);
        for asn in ASN_TABLE.iter() {
            let ip = NetDb::sample_ip(asn, &mut rng);
            let info = NetDb::lookup(ip);
            assert_eq!(info.region.country, asn.country);
        }
    }

    #[test]
    fn ip_hash_is_stable_and_distinct() {
        let a = NetDb::hash_ip(Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(a, NetDb::hash_ip(Ipv4Addr::new(1, 2, 3, 4)));
        assert_ne!(a, NetDb::hash_ip(Ipv4Addr::new(1, 2, 3, 5)));
    }
}
