//! Simulated time.
//!
//! The paper's campaign ran three months, September–November 2023, and
//! Figure 9 plots per-day series. Simulated time is seconds since
//! 2023-09-01T00:00:00Z; nothing in the pipeline reads the wall clock, so a
//! full campaign replays identically from a seed.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

/// Unix timestamp of the study epoch, 2023-09-01T00:00:00Z.
pub const STUDY_EPOCH_UNIX: u64 = 1_693_526_400;

/// Length of the study window in days (Sep 1 – Nov 30, 2023).
pub const STUDY_DAYS: u32 = 91;

const SECS_PER_DAY: u64 = 86_400;

/// Days in each month of the study window (Sep, Oct, Nov 2023).
const MONTH_LENGTHS: [(u32, &str); 3] = [(30, "Sep"), (31, "Oct"), (30, "Nov")];

/// A point in simulated time: seconds since [`STUDY_EPOCH_UNIX`].
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Start of the study.
    pub const EPOCH: SimTime = SimTime(0);

    /// Build from a day index and a second-of-day offset.
    pub fn from_day(day: u32, second_of_day: u64) -> SimTime {
        SimTime(u64::from(day) * SECS_PER_DAY + second_of_day % SECS_PER_DAY)
    }

    /// Day index since the study epoch (0 = Sep 1, 2023).
    pub fn day(self) -> u32 {
        (self.0 / SECS_PER_DAY) as u32
    }

    /// Second within the day.
    pub fn second_of_day(self) -> u64 {
        self.0 % SECS_PER_DAY
    }

    /// Unix timestamp.
    pub fn unix(self) -> u64 {
        STUDY_EPOCH_UNIX + self.0
    }

    /// Nanoseconds elapsed since `earlier` (saturating at zero, like
    /// [`Sub`]). Simulated seconds are the clock's resolution; this is the
    /// bridge to nanosecond-denominated instruments (`fp-obs` histograms),
    /// so tests can feed them deterministic durations instead of wall time.
    pub fn nanos_since(self, earlier: SimTime) -> u64 {
        (self - earlier).saturating_mul(1_000_000_000)
    }

    /// Human-readable calendar date within the study window, e.g. `Sep 15`.
    /// Days past the window keep counting into a synthetic `Dec+`.
    pub fn calendar(self) -> String {
        let mut day = self.day();
        for (len, name) in MONTH_LENGTHS {
            if day < len {
                return format!("{name} {:02}", day + 1);
            }
            day -= len;
        }
        format!("Dec+{:02}", day + 1)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, secs: u64) -> SimTime {
        SimTime(self.0 + secs)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    fn sub(self, other: SimTime) -> u64 {
        self.0.saturating_sub(other.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:02}:{:02}:{:02}",
            self.calendar(),
            self.second_of_day() / 3600,
            (self.second_of_day() % 3600) / 60,
            self.second_of_day() % 60
        )
    }
}

/// A monotonically advancing simulated clock. Generators own one and advance
/// it as they emit requests; it is plain state, not a global.
#[derive(Clone, Debug)]
pub struct SimClock {
    now: SimTime,
}

impl SimClock {
    /// A clock starting at the study epoch.
    pub fn new() -> SimClock {
        SimClock {
            now: SimTime::EPOCH,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance by `secs` seconds and return the new time.
    pub fn advance(&mut self, secs: u64) -> SimTime {
        self.now = self.now + secs;
        self.now
    }

    /// Jump to `t` if it is in the future (clocks never go backwards).
    pub fn advance_to(&mut self, t: SimTime) -> SimTime {
        if t > self.now {
            self.now = t;
        }
        self.now
    }
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_arithmetic() {
        assert_eq!(SimTime::EPOCH.day(), 0);
        assert_eq!(SimTime::from_day(14, 3600).day(), 14);
        assert_eq!(SimTime::from_day(14, 3600).second_of_day(), 3600);
    }

    #[test]
    fn calendar_mapping() {
        assert_eq!(SimTime::from_day(0, 0).calendar(), "Sep 01");
        assert_eq!(SimTime::from_day(29, 0).calendar(), "Sep 30");
        assert_eq!(SimTime::from_day(30, 0).calendar(), "Oct 01");
        assert_eq!(SimTime::from_day(60, 0).calendar(), "Oct 31");
        assert_eq!(SimTime::from_day(61, 0).calendar(), "Nov 01");
        assert_eq!(SimTime::from_day(90, 0).calendar(), "Nov 30");
    }

    #[test]
    fn unix_anchor() {
        assert_eq!(SimTime::EPOCH.unix(), STUDY_EPOCH_UNIX);
        assert_eq!(SimTime::from_day(1, 0).unix(), STUDY_EPOCH_UNIX + 86_400);
    }

    #[test]
    fn clock_is_monotonic() {
        let mut c = SimClock::new();
        c.advance(100);
        let t1 = c.now();
        c.advance_to(SimTime(50));
        assert_eq!(c.now(), t1, "advance_to must not rewind");
        c.advance_to(SimTime(500));
        assert_eq!(c.now(), SimTime(500));
    }

    #[test]
    fn second_of_day_wraps() {
        let t = SimTime::from_day(2, 90_000);
        assert_eq!(t.second_of_day(), 90_000 % 86_400);
        assert_eq!(t.day(), 2);
    }

    #[test]
    fn nanos_since_saturates() {
        let a = SimTime(10);
        let b = SimTime(13);
        assert_eq!(b.nanos_since(a), 3_000_000_000);
        assert_eq!(a.nanos_since(b), 0);
    }

    #[test]
    fn display_format() {
        let t = SimTime::from_day(3, 3_725);
        assert_eq!(t.to_string(), "Sep 04 01:02:05");
    }
}
