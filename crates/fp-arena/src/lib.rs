//! `fp-arena` — the closed-loop mitigation & bot-adaptation arena.
//!
//! The paper's §6 is not a story about who gets flagged; it is a story
//! about what evasive bot services *do after mitigation lands*: they
//! rotate source IPs across ASNs and geographies and mutate the
//! fingerprint attributes the rules keyed on, until they slip back in.
//! The rest of this workspace measures a single contact; this crate closes
//! the loop and measures the fight over time.
//!
//! * [`ResponsePolicy`] (re-exported from [`fp_types::defense`]) — what
//!   the site does with a flagged request: Allow (control), Captcha,
//!   Block-with-TTL (enforced at admission via `fp-netsim`'s
//!   [`fp_netsim::TtlBlocklist`]), or ShadowFlag (the paper's own
//!   record-everything-serve-everything posture), past a vote threshold.
//!   It is one implementation of the
//!   [`fp_types::defense::DecisionPolicy`] contract; richer policies
//!   (repeat-offender TTL escalation, CAPTCHA-then-block) plug into the
//!   same slot via [`Arena::set_policy`].
//! * [`DefenseStack`] (from `fp-honeysite`) — the defender as a value:
//!   lifecycle-aware members, the decision policy, and the
//!   epoch-segmented training store. The arena drives the defender's
//!   lifecycle between rounds — with [`ArenaConfig::remine_cadence`]
//!   set, `fp-spatial` re-mines its rule set from the retained labeled
//!   rounds, the counter-move to §6's rule rot; with
//!   [`ArenaConfig::retention`] set to a bounding policy, that window
//!   (and the re-mining scan spend) stays flat however long the
//!   campaign runs, with eviction counted in the trajectory's
//!   defender-spend columns.
//! * [`AdaptationStrategy`] — how a bot service rewrites its next round
//!   from the outcomes it can *see*: [`IpRotation`] (fresh addresses →
//!   residential ASNs → new geographies), [`FingerprintMutation`]
//!   (timezone alignment, hardware re-randomisation, cookie laundering),
//!   [`TlsUpgrade`] (laggards gradually paying for real browser stacks),
//!   [`Cooldown`] (retreat), composed freely with [`Composite`]. The
//!   truthful populations (real users, and the AI agents' honest
//!   handshakes) return unchanged every round — they have nothing to
//!   hide; the §7.5 privacy experiment stays outside the arena entirely.
//! * [`Arena`] — the round loop itself. Round 0 is flag-for-flag the
//!   single-shot cohort campaign; every later round regenerates the
//!   adversarial fleet under its strategies, admits it through the TTL
//!   blocklist, detects with the full six-detector chain on the sharded
//!   pipeline, applies the policy, and feeds each service its own
//!   [`fp_types::RoundOutcome`].
//!
//! The measurement comes out as a
//! [`fp_inconsistent_core::TrajectoryReport`]: per-detector recall/FPR per
//! round, evasion half-life, the adversary's attribute-mutation cost per
//! evading request — and, on the other side of the ledger, the defender's
//! retraining spend per round.

#![deny(missing_docs)]

pub mod arena;
pub mod strategy;

pub use arena::{Arena, ArenaConfig, RoundResult, ROUND_GENERATE_NS, ROUND_SECS};
pub use fp_honeysite::DefenseStack;
pub use fp_types::defense::{ResponsePolicy, DEFAULT_BLOCK_TTL_SECS};
pub use strategy::{
    AdaptationStrategy, BehaviouralMutation, Composite, Cooldown, FingerprintMutation, IpRotation,
    MutationReceipt, Static, TlsUpgrade,
};
