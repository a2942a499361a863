//! Shared core types for the FP-Inconsistent reproduction.
//!
//! This crate is the vocabulary every other crate speaks:
//!
//! * [`Symbol`] / [`Interner`] — cheap, copyable interned strings. A recorded
//!   campaign holds half a million requests, each with ~40 attribute values;
//!   interning keeps a request a flat vector of 8-byte values and makes
//!   equality checks (the heart of the inconsistency miner) integer compares.
//! * [`AttrId`] / [`AttrValue`] / [`Fingerprint`] — the attribute schema
//!   mirroring what FingerprintJS plus the HTTP layer exposes (Section 4.4 of
//!   the paper).
//! * [`Request`] — one admitted honey-site request: fingerprint, source IP,
//!   behaviour trace, cookie device identifier and ground-truth provenance.
//! * [`behavior`] — the session-level behavioural facet ([`BehaviorFacet`]:
//!   inter-event timing quantiles, interaction cadence, navigation shape)
//!   plus the one sourced copy of the behaviour-decision thresholds
//!   ([`BehaviorThresholds`], pointer naturalness) that the commercial
//!   simulator and the `fp-behavior` session detector both read.
//! * [`StoredRequest`] / [`VerdictSet`] — the privacy-scrubbed record the
//!   store keeps, carrying each detector's named real-time verdict.
//! * [`detect`] — the shared streaming [`Detector`] contract every bot
//!   detector implements (anti-bot simulators and FP-Inconsistent alike),
//!   with [`StateScope`] declaring the state anchor that makes sharded
//!   execution equivalent to sequential execution.
//! * [`MitigationAction`] / [`RoundOutcome`] — the closed-loop mitigation
//!   contract: what a site does with a flagged request, and what a bot
//!   service can observe about a round of its own traffic (`fp-arena`
//!   closes the loop between the two).
//! * [`defense`] — the defender-side lifecycle contract: a
//!   [`DecisionPolicy`] maps each request's recorded verdicts to a
//!   [`MitigationAction`] (vote thresholds, escalating TTLs,
//!   CAPTCHA-then-block hybrids), and a [`StackMember`]
//!   produces a fresh detector per round and may retrain itself from the
//!   retained training window.
//! * [`serve`] — the serving-layer contract ([`ServeConfig`],
//!   [`OverflowPolicy`]): bounded queue capacities, key-stable shard
//!   routing, and the backpressure posture (block vs shed) for the
//!   continuously running ingest service in `fp-honeysite`.
//! * [`retention`] — the bounded-memory contract: [`Epoch`]-segmented
//!   storage, pluggable [`RetentionPolicy`]s (keep-all, sliding window,
//!   sampled decay), the [`SegmentStats`] eviction ledger, and the
//!   epoch-aware [`RecordView`] every record-walking pass consumes
//!   instead of one ever-growing contiguous slice.
//! * [`runfp`] — deterministic run fingerprints (`RUNFP_V1`): a
//!   [`RunFingerprint`] over a whole closed-loop campaign's named
//!   components (config, seed, per-round behaviour) with an auditable
//!   [`RunComponents`] breakdown that names which facet diverged, and the
//!   golden-ledger text form CI asserts against.
//! * [`stablehash`] — process-independent, order-invariant content hashing
//!   ([`PackHash`]): how a compiled rule pack is versioned so the same
//!   rules hash identically however they were mined, and any behavioural
//!   change produces a new hash.
//! * [`hotswap`] — [`HotSwap`]: barrier-free publication of immutable
//!   artifacts; in-flight readers keep their `Arc` snapshot while new
//!   admissions see the swapped-in replacement.
//! * [`SimTime`] — simulated time, counted from the start of the paper's
//!   three-month study window (2023-09-01).
//! * [`par`] — [`par::map_indexed`], the one scoped worker pool: run an
//!   indexed job on every core, the caller's thread among them, and get
//!   the results back in index order.
//! * [`mix`] — deterministic splittable hashing used wherever a generator or
//!   detector needs per-request randomness that must be stable across runs.

// This crate is the workspace's public contract: every type here is read
// by every other crate, so an undocumented item is a broken promise.
#![deny(missing_docs)]

pub mod attr;
pub mod behavior;
pub mod clock;
pub mod defense;
pub mod detect;
pub mod fingerprint;
pub mod hotswap;
pub mod interner;
pub mod label;
pub mod mitigation;
pub mod mix;
pub mod par;
pub mod request;
pub mod retention;
pub mod runfp;
pub mod scale;
pub mod serve;
pub mod stablehash;
pub mod stored;
pub mod tls;
pub mod value;

pub use attr::AttrId;
pub use behavior::{BehaviorFacet, BehaviorThresholds};
pub use clock::{SimTime, STUDY_DAYS, STUDY_EPOCH_UNIX};
pub use defense::{
    CaptchaEscalation, DecisionContext, DecisionPolicy, EscalatingTtl, Frozen, ResponsePolicy,
    RetrainSpend, RoundContext, StackMember, DEFAULT_BLOCK_TTL_SECS,
};
pub use detect::{Detector, StateScope, Verdict, VerdictSet};
pub use fingerprint::Fingerprint;
pub use hotswap::HotSwap;
pub use interner::{sym, Interner, Symbol};
pub use label::{Cohort, PrivacyTech, ServiceId, TrafficSource};
pub use mitigation::{ActionLedger, MitigationAction, RoundOutcome};
pub use mix::{mix2, mix3, shard_for, splitmix64, unit_f64, Splittable};
pub use request::{BehaviorTrace, CookieId, PointerStats, Request, RequestId};
pub use retention::{Epoch, RecordView, RetentionPolicy, SegmentId, SegmentStats};
pub use runfp::{ComponentHash, ComponentHasher, RunComponents, RunFingerprint};
pub use scale::Scale;
pub use serve::{OverflowPolicy, ServeConfig};
pub use stablehash::{ContentHasher, PackHash};
pub use stored::StoredRequest;
pub use tls::TlsFacet;
pub use value::AttrValue;
