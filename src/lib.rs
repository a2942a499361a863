//! FP-Inconsistent — a full reproduction of *"FP-Inconsistent: Measurement
//! and Analysis of Fingerprint Inconsistencies in Evasive Bot Traffic"*
//! (IMC 2025) as a Rust workspace.
//!
//! This facade crate re-exports every subsystem:
//!
//! * [`types`] — attribute schema, fingerprints, requests, simulated time;
//! * [`fingerprint`] — real-device catalogue, UA synthesis/parsing, the
//!   FingerprintJS-style collector and the validity oracle;
//! * [`netsim`] — ASN/IP allocation, geolocation, timezones, blocklists;
//! * [`tls`] — ClientHello wire format, JA3/JA4, browser TLS profiles;
//! * [`antibot`] — the DataDome-like and BotD-like detector simulators;
//! * [`botnet`] — the 20 bot services, real users and privacy tools;
//! * [`honeysite`] — URL-token admission, cookies, pipeline, store;
//! * [`ml`] — gradient-boosted trees + attribution (XGBoost/SHAP stand-in);
//! * [`core`] — FP-Inconsistent itself: spatial/temporal rule mining, the
//!   filter list and the evaluation harness;
//! * [`arena`] — the closed-loop mitigation & bot-adaptation arena:
//!   lifecycle-aware defense stacks (decision policies, between-round
//!   re-mining), TTL-blocklist enforcement, adapting bot services,
//!   round-over-round trajectories with both sides' spend.
//!
//! # Quickstart
//!
//! Every detector — the simulated anti-bot services and FP-Inconsistent
//! itself — implements one streaming `Detector` contract
//! ([`types::detect`]), so the honey site runs them as one chain, inline
//! at ingest, sequentially or on N worker shards with identical verdicts.
//!
//! ```
//! use fp_inconsistent::prelude::*;
//!
//! // A small deterministic campaign (1% of the paper's volume).
//! let campaign = Campaign::generate(CampaignConfig { scale: Scale::ratio(0.01), seed: 7 });
//!
//! // Run it through the honey site (default chain: DataDome, BotD, the
//! // cross-layer TLS consistency check and the session behaviour detector).
//! let mut site = HoneySite::new();
//! for id in ServiceId::all() {
//!     site.register_token(campaign.token_of(id));
//! }
//! site.ingest_all(campaign.bot_requests.iter().cloned());
//! let store = site.into_store();
//!
//! // Mine inconsistency rules and measure the improvement (single pass).
//! let engine = FpInconsistent::mine(&store, &MineConfig::default());
//! let (_, report) = fp_inconsistent::core::evaluate::evaluate(&store, &engine);
//! assert!(report.combined.0 > report.none.0, "rules must add detection");
//!
//! // Deploy the mined engine *online*: plug its three detectors into a
//! // fresh site's chain and ingest the same stream on 4 shards. Every
//! // request now carries named verdicts from all seven detectors: the
//! // default chain's four and the engine's three.
//! let mut live = HoneySite::new();
//! for id in ServiceId::all() {
//!     live.register_token(campaign.token_of(id));
//! }
//! for detector in engine.detectors() {
//!     live.push_detector(detector);
//! }
//! live.ingest_stream(campaign.bot_requests.clone(), 4);
//! let streamed = live.into_store();
//! let first = streamed.get(0).unwrap();
//! assert_eq!(first.verdicts.len(), 7);
//! let dd = fp_inconsistent::types::detect::provenance::DATADOME;
//! assert_eq!(first.verdicts.bot(dd), store.get(0).unwrap().verdicts.bot(dd));
//! assert!(first.verdicts.verdict("fp-spatial").is_some());
//! ```

pub use fp_antibot as antibot;
pub use fp_arena as arena;
pub use fp_botnet as botnet;
pub use fp_fingerprint as fingerprint;
pub use fp_honeysite as honeysite;
pub use fp_inconsistent_core as core;
pub use fp_ml as ml;
pub use fp_netsim as netsim;
pub use fp_tls as tls;
pub use fp_types as types;

/// The names almost every consumer wants.
pub mod prelude {
    pub use fp_antibot::{BotD, DataDome};
    pub use fp_arena::{Arena, ArenaConfig, ResponsePolicy};
    pub use fp_botnet::{Campaign, CampaignConfig};
    pub use fp_honeysite::{DefenseStack, HoneySite, RequestStore};
    pub use fp_inconsistent_core::{FpInconsistent, MineConfig, RuleSet};
    pub use fp_types::defense::{DecisionPolicy, StackMember};
    pub use fp_types::{
        AttrId, AttrValue, Detector, Fingerprint, RecordView, Request, RetentionPolicy, Scale,
        ServiceId, SimTime, Verdict,
    };
}
