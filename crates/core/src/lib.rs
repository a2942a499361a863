//! FP-Inconsistent: data-driven discovery of fingerprint inconsistencies
//! for bot detection (Section 7 of the paper).
//!
//! * [`attrs`] — analysis attributes: fingerprint attributes plus the two
//!   IP-derived attributes (geolocation region and UTC offset) that the
//!   Location category pairs against browser state.
//! * [`categories`] — Table 7's attribute groups; pairs are only mined
//!   within a group.
//! * [`spatial`] — Algorithm 1: rank value/attribute pairs by
//!   configuration explosion over the *undetected* pool, confirm candidate
//!   pairs against the validity oracle (the automated form of the paper's
//!   semi-automatic human check), and emit concrete filter rules.
//! * [`temporal`] — §7.2: per-cookie variance of immutable attributes and
//!   per-IP timezone churn, evaluated in arrival order by two detectors
//!   (the cookie and IP anchors).
//! * [`rules`] — the filter list: a serialisable, human-readable rule set
//!   (the paper open-sources its rules in exactly this spirit).
//! * [`rulepack`] — the compiled form of the filter list: an immutable,
//!   content-hash-versioned artifact with dense value-id tables and
//!   branch-light pair probes, hot-swapped barrier-free into the ingest
//!   path when the defender re-mines.
//! * [`engine`] — request matching: spatial rules + the location check +
//!   the temporal anchors, one set of detectors that the ingest chain and
//!   the batch path both run.
//! * [`evaluate`] — Tables 3 and 4, §7.4's true-negative rate, the §7.3
//!   80/20 generalisation experiment, and the closed-loop arena's
//!   round-over-round trajectory report (recall decay, evasion half-life,
//!   mutation cost, defender retraining spend).
//! * [`defense`] — FP-Inconsistent as a lifecycle-aware defense-stack
//!   member: [`SpatialMember`] re-mines its rule set from the store's
//!   labeled rounds at a configurable cadence.

pub mod attrs;
pub mod captcha;
pub mod categories;
pub mod defense;
pub mod engine;
pub mod evaluate;
pub mod rulepack;
pub mod rules;
pub mod spatial;
pub mod temporal;

pub use attrs::AnalysisAttr;
pub use categories::{Category, CATEGORIES};
pub use defense::SpatialMember;
pub use engine::FpInconsistent;
pub use evaluate::{
    DetectionReport, MutationStats, RoundStats, ServiceImprovement, TrajectoryReport,
};
pub use rulepack::{content_hash, PackSlot, RulePack, RulePackDiff};
pub use rules::{RuleSet, SpatialRule};
pub use spatial::MineConfig;
