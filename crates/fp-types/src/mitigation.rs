//! The mitigation contract of the closed-loop arena.
//!
//! The paper's §6 measurement is not "who gets flagged" but *what evasive
//! bots do after mitigation lands* — rotating IPs across ASNs and
//! geographies and mutating fingerprint attributes to slip back in. Closing
//! that loop needs two shared types: the action a site takes on a flagged
//! request ([`MitigationAction`]) and the round-level outcome a bot service
//! can actually *observe* and adapt to ([`RoundOutcome`]). They live here,
//! next to [`crate::VerdictSet`], because both sides of the arena speak
//! them: `fp-arena` applies actions and tallies outcomes, bot adaptation
//! strategies consume the outcomes, and `core::evaluate` reports the
//! resulting trajectories.

use serde::{Deserialize, Serialize};
use std::fmt;

/// What the site does with one request after the detector chain has spoken.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum MitigationAction {
    /// Serve the page normally.
    Allow,
    /// Serve a CAPTCHA interstitial. Humans solve it; automation fails, so
    /// the client *sees* the mitigation (a visible failure).
    Captcha,
    /// Deny the request and put its source address on a block list for the
    /// carried number of simulated seconds. Until the entry expires, later
    /// requests from the address are turned away at admission.
    Block(u64),
    /// Record the flag but serve the page normally — the response is
    /// indistinguishable from [`MitigationAction::Allow`], so the client
    /// learns nothing (the measurement-friendly policy the paper's
    /// honey site itself runs).
    ShadowFlag,
}

impl MitigationAction {
    /// Can the client tell this action apart from a normal page load? This
    /// is what drives adaptation: bots react to *visible* failures only, so
    /// shadow-flagged traffic never learns it was caught.
    pub fn visible_to_client(self) -> bool {
        matches!(self, MitigationAction::Captcha | MitigationAction::Block(_))
    }

    /// Does this action feed the admission blocklist?
    pub fn blocks(self) -> bool {
        matches!(self, MitigationAction::Block(_))
    }
}

impl fmt::Display for MitigationAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MitigationAction::Allow => f.write_str("allow"),
            MitigationAction::Captcha => f.write_str("captcha"),
            MitigationAction::Block(ttl_secs) => write!(f, "block({ttl_secs}s)"),
            MitigationAction::ShadowFlag => f.write_str("shadow-flag"),
        }
    }
}

/// The site-side tally of mitigation actions over one arena round —
/// every admitted request lands in exactly one bucket. Unlike
/// [`RoundOutcome`] (a single source's censored view, with shadow flags
/// folded into `allowed`), this is the defender's full ledger, and it is
/// part of the run's observable behaviour: the arena folds it into the
/// per-round behaviour fingerprint ([`crate::runfp`]), so a policy change
/// that shifts even one request between buckets flips the run fingerprint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActionLedger {
    /// Requests served normally with no flag acted on.
    pub allowed: u64,
    /// Requests flagged but served (recorded, invisible to the client).
    pub shadow_flagged: u64,
    /// Requests answered with a CAPTCHA interstitial.
    pub captchas: u64,
    /// Requests denied with a block (a blocklist write or lease renewal).
    pub blocked: u64,
}

impl ActionLedger {
    /// Count one decided action.
    pub fn record(&mut self, action: MitigationAction) {
        match action {
            MitigationAction::Allow => self.allowed += 1,
            MitigationAction::ShadowFlag => self.shadow_flagged += 1,
            MitigationAction::Captcha => self.captchas += 1,
            MitigationAction::Block(_) => self.blocked += 1,
        }
    }

    /// Total actions decided (= admitted requests this round).
    pub fn total(&self) -> u64 {
        self.allowed + self.shadow_flagged + self.captchas + self.blocked
    }
}

/// One traffic source's view of one arena round: how many requests it sent
/// and what visibly happened to them. This is deliberately *less* than the
/// site knows — shadow flags are folded into `allowed`, and per-request
/// verdict provenance is absent — because a bot service only observes
/// responses, never the detectors behind them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundOutcome {
    /// The round index the outcome describes (0 = the pre-mitigation round).
    pub round: u32,
    /// Requests the source attempted this round.
    pub sent: u64,
    /// Requests turned away at admission by a live blocklist entry.
    pub denied: u64,
    /// Requests answered with a CAPTCHA interstitial.
    pub captchas: u64,
    /// Requests denied with a fresh block (and a new blocklist entry).
    pub blocked: u64,
    /// Requests served normally — including shadow-flagged ones, which the
    /// client cannot distinguish.
    pub allowed: u64,
}

impl RoundOutcome {
    /// Fraction of sent requests that visibly failed (denied at admission,
    /// challenged, or block-denied). The adaptation pressure signal.
    pub fn visible_failure_rate(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        (self.denied + self.captchas + self.blocked) as f64 / self.sent as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visibility_split() {
        assert!(!MitigationAction::Allow.visible_to_client());
        assert!(!MitigationAction::ShadowFlag.visible_to_client());
        assert!(MitigationAction::Captcha.visible_to_client());
        assert!(MitigationAction::Block(60).visible_to_client());
        assert!(MitigationAction::Block(60).blocks());
        assert!(!MitigationAction::Captcha.blocks());
    }

    #[test]
    fn failure_rate() {
        let outcome = RoundOutcome {
            round: 1,
            sent: 100,
            denied: 10,
            captchas: 5,
            blocked: 5,
            allowed: 80,
        };
        assert!((outcome.visible_failure_rate() - 0.2).abs() < 1e-12);
        assert_eq!(RoundOutcome::default().visible_failure_rate(), 0.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(MitigationAction::Allow.to_string(), "allow");
        assert_eq!(MitigationAction::Block(3600).to_string(), "block(3600s)");
    }

    #[test]
    fn action_ledger_buckets_every_action_once() {
        let mut ledger = ActionLedger::default();
        for action in [
            MitigationAction::Allow,
            MitigationAction::ShadowFlag,
            MitigationAction::ShadowFlag,
            MitigationAction::Captcha,
            MitigationAction::Block(60),
            MitigationAction::Block(3_600),
        ] {
            ledger.record(action);
        }
        assert_eq!(ledger.allowed, 1);
        assert_eq!(ledger.shadow_flagged, 2);
        assert_eq!(ledger.captchas, 1);
        assert_eq!(ledger.blocked, 2, "TTL does not change the bucket");
        assert_eq!(ledger.total(), 6);
    }

    #[test]
    fn serde_roundtrip() {
        let action = MitigationAction::Block(7);
        let json = serde_json::to_string(&action).unwrap();
        let back: MitigationAction = serde_json::from_str(&json).unwrap();
        assert_eq!(back, action);
    }
}
