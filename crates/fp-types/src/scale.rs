//! Campaign scaling.
//!
//! The full campaign is 507,080 bot requests (Table 1). Bench binaries run
//! full scale; unit/integration tests run a deterministic fraction so the
//! whole suite stays fast. Scaling rounds *up* so no service ever drops to
//! zero requests (S20 has only 382 at full scale).

use serde::{Deserialize, Serialize};

/// A fraction of the paper's request volumes.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scale(f64);

impl Scale {
    /// The paper's volumes, unchanged.
    pub const FULL: Scale = Scale(1.0);

    /// A fraction in `(0, 1]`.
    pub fn ratio(r: f64) -> Scale {
        assert!(r > 0.0 && r <= 1.0, "scale must be in (0, 1], got {r}");
        Scale(r)
    }

    /// Apply to a request count (rounds up, never below 1).
    pub fn apply(self, count: u64) -> u64 {
        if count == 0 {
            return 0;
        }
        (((count as f64) * self.0).ceil() as u64).max(1)
    }

    /// The raw fraction.
    pub fn fraction(self) -> f64 {
        self.0
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::FULL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_is_identity() {
        assert_eq!(Scale::FULL.apply(121_500), 121_500);
        assert_eq!(Scale::FULL.apply(382), 382);
    }

    #[test]
    fn fraction_rounds_up_and_floors_at_one() {
        let s = Scale::ratio(0.05);
        assert_eq!(s.apply(382), 20);
        assert_eq!(s.apply(1), 1);
        assert_eq!(s.apply(0), 0);
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn zero_scale_rejected() {
        let _ = Scale::ratio(0.0);
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn oversized_scale_rejected() {
        let _ = Scale::ratio(1.5);
    }
}
