//! The honey-site architecture (Section 4, Figures 1 and 3).
//!
//! * [`site::HoneySite`] — multiple versions of one site distinguished only
//!   by URL token; requests without a registered token are **not recorded**
//!   (that is the ground-truth guarantee: only the party a token was shared
//!   with can know it). The site issues the large-random-number first-party
//!   cookie on first contact, runs its detector chain in real time, and
//!   forwards everything to the store.
//! * [`serve`] — the continuously running serving layer, the one sharded
//!   engine ([`HoneySite::serve`] → [`FpService`]): admission and
//!   enrichment on the caller's thread (behind any gate the caller runs,
//!   such as the arena's TTL blocklist), then one bounded intake ring
//!   that one detector worker per core reads in admission order, each
//!   hosting the route forks of several shards (partitioned by each
//!   detector's [`fp_types::StateScope`] anchor). Backpressure is
//!   explicit (block or shed on a full ring), and the worker whose
//!   verdicts complete the oldest request commits it, in order, into
//!   the site's own store — verdict-for-verdict identical to the
//!   sequential loop at any shard count. [`HoneySite::ingest_stream`] is
//!   its batch driver. Both engines run the chain through one route
//!   kernel (the anchor split, the per-shard worker with its sampled
//!   detector timing, and the chain-order verdict commit).
//! * [`store::RequestStore`] — the recorded dataset, organised as epoch
//!   segments with pluggable [`fp_types::RetentionPolicy`] (default
//!   `KeepAll`, the pre-refactor behaviour). Raw IPs never reach
//!   storage: the pipeline derives what analysis needs (ASN class and
//!   blocklist facts, geolocation, UTC offset) and keeps a salted hash as
//!   the address identity (the paper's ethics appendix). The store keeps
//!   records, not indexes: eviction drops a segment's records wholesale,
//!   tombstone-free, and Figure 10's per-cookie queries are scans.
//! * [`stats`] — campaign statistics: per-service evasion rates (Table 1)
//!   and the per-day series of Figure 9.
//! * [`defense`] — the [`DefenseStack`]: the lifecycle-aware defender API
//!   (member chain + decision policy + the epoch-segmented training store
//!   retraining members mine from) a site builds its ingest chain from
//!   ([`HoneySite::from_stack`]); `DefenseStack::default()` is exactly the
//!   `HoneySite::new()` chain under the shadow policy.

// The honey site is the pipeline's front door and now hosts the
// defense-stack assembly; like fp-types, its public surface is contract.
#![deny(missing_docs)]

pub mod defense;
mod route;
pub mod serve;
pub mod site;
pub mod stats;
pub mod store;

pub use defense::DefenseStack;
pub use serve::{FpService, SubmitOutcome};
pub use site::HoneySite;
pub use stats::{DailySeries, ServiceStats};
pub use store::{RequestStore, StoredRequest};
