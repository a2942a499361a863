//! Stable, process-independent content hashing for compiled artifacts.
//!
//! The defender versions its compiled rule packs by *content*: the hash
//! must be identical for the same logical rule set no matter which process
//! mined it, in what order the rules were discovered, or how many shards
//! the mining traffic was ingested through — and it must change whenever
//! flagging behaviour changes. That rules out everything keyed on
//! process-local state ([`crate::Symbol`] indices depend on interning
//! order) and everything order-sensitive (mining shard merges may visit
//! rules in any order). The recipe here follows the RUNFP-style
//! "changes iff observable behaviour changes" discipline:
//!
//! 1. each item is rendered to its canonical *display* form (the
//!    filter-list line, which is what the artifact's behaviour is defined
//!    by) and hashed with a seeded FNV-1a finished by a splitmix
//!    avalanche;
//! 2. per-item hashes are combined **commutatively** (wrapping sum and
//!    xor, plus the item count), so insertion order cannot matter;
//! 3. the accumulator state is mixed into a final 128-bit [`PackHash`].
//!
//! Adding or removing any single item perturbs both the sum and the xor
//! lanes, so behavioural changes produce a new hash with overwhelming
//! probability, while reordering produces exactly the same one.

use crate::mix::splitmix64;
use std::fmt;

/// Domain tag folded into every per-item hash: bump it if the canonical
/// item encoding ever changes meaning, so old and new artifacts can never
/// collide by accident.
const DOMAIN_TAG: &str = "FPPACK_V1";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 128-bit content hash of a compiled artifact (e.g. a rule pack).
///
/// Equality means "behaviourally identical rule set"; ordering is
/// arbitrary but total (useful for ledger keys). Displays as 32 hex
/// digits; [`PackHash::short`] gives the 12-digit prefix the tables
/// print.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PackHash(u128);

impl PackHash {
    /// The 12-hex-digit prefix — what report columns print.
    pub fn short(self) -> String {
        format!("{:012x}", self.0 >> 80)
    }
}

impl fmt::Display for PackHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Seeded FNV-1a over `bytes`, finished with a splitmix avalanche so
/// short inputs still diffuse across all 64 bits. Stable across
/// processes and platforms (no pointer or allocation state involved).
pub fn stable_hash64(bytes: &[u8], seed: u64) -> u64 {
    let mut h = FNV_OFFSET ^ seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    splitmix64(h)
}

fn tagged_seed(lane: u64) -> u64 {
    let mut h = FNV_OFFSET ^ lane;
    for &b in DOMAIN_TAG.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Order-independent accumulator of canonical item lines.
///
/// Feed every item of the artifact (in any order) through
/// [`ContentHasher::add_line`], then take the [`PackHash`] with
/// [`ContentHasher::finish`]. The combination is commutative, so two
/// producers that discover the same items in different orders agree.
#[derive(Clone, Copy, Debug, Default)]
pub struct ContentHasher {
    sum: u128,
    xor: u128,
    count: u64,
}

impl ContentHasher {
    /// A fresh accumulator.
    pub fn new() -> ContentHasher {
        ContentHasher::default()
    }

    /// Fold one item's canonical line into the accumulator.
    pub fn add_line(&mut self, line: &str) {
        let lo = stable_hash64(line.as_bytes(), tagged_seed(1));
        let hi = stable_hash64(line.as_bytes(), tagged_seed(2));
        let item = (u128::from(hi) << 64) | u128::from(lo);
        self.sum = self.sum.wrapping_add(item);
        self.xor ^= item;
        self.count += 1;
    }

    /// Number of items folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The final content hash of everything added.
    pub fn finish(&self) -> PackHash {
        let lo =
            splitmix64((self.sum as u64).wrapping_add(splitmix64((self.xor as u64) ^ self.count)));
        let hi = splitmix64(
            ((self.sum >> 64) as u64)
                .wrapping_add(splitmix64(((self.xor >> 64) as u64) ^ !self.count)),
        );
        PackHash((u128::from(hi) << 64) | u128::from(lo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(lines: &[&str]) -> PackHash {
        let mut h = ContentHasher::new();
        for l in lines {
            h.add_line(l);
        }
        h.finish()
    }

    #[test]
    fn order_independent() {
        let a = hash_of(&["alpha", "beta", "gamma"]);
        let b = hash_of(&["gamma", "alpha", "beta"]);
        assert_eq!(a, b);
    }

    #[test]
    fn single_item_changes_hash() {
        let base = hash_of(&["alpha", "beta"]);
        assert_ne!(base, hash_of(&["alpha"]));
        assert_ne!(base, hash_of(&["alpha", "beta", "gamma"]));
        assert_ne!(base, hash_of(&["alpha", "Beta"]));
    }

    #[test]
    fn empty_is_stable_and_distinct() {
        assert_eq!(hash_of(&[]), hash_of(&[]));
        assert_ne!(hash_of(&[]), hash_of(&["alpha"]));
        // The empty-string item is not the empty set.
        assert_ne!(hash_of(&[]), hash_of(&[""]));
    }

    #[test]
    fn duplicate_items_do_not_cancel() {
        // xor alone would cancel a repeated line; the sum+count lanes
        // must keep multiplicity visible.
        assert_ne!(hash_of(&["alpha", "alpha"]), hash_of(&[]));
        assert_ne!(hash_of(&["alpha", "alpha"]), hash_of(&["alpha"]));
    }

    #[test]
    fn display_forms() {
        let h = hash_of(&["alpha"]);
        let full = h.to_string();
        assert_eq!(full.len(), 32);
        assert!(full.starts_with(&h.short()));
        assert_eq!(h.short().len(), 12);
    }

    #[test]
    fn stable_hash64_is_seed_sensitive() {
        let a = stable_hash64(b"same-bytes", 1);
        let b = stable_hash64(b"same-bytes", 2);
        assert_ne!(a, b);
        assert_eq!(a, stable_hash64(b"same-bytes", 1));
    }
}
