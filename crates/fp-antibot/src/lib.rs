//! Simulated anti-bot oracles.
//!
//! The paper treats DataDome and BotD as black boxes and measures *which
//! requests get past them*. These simulators reproduce that measured
//! conditional behaviour so every downstream analysis (evasion tables, SHAP
//! attribution, FP-Inconsistent's added detection) exercises the same code
//! paths against oracles with the same blind spots:
//!
//! * [`BotD`] — client-side script: fingerprint-only signals, no IP view.
//!   Core signal is the headless-Chromium signature (Chromium UA with an
//!   empty plugin array and no touch support). Measured blind spots: any
//!   plugin present (Figure 4) or touch support claimed (§5.3.3) ⇒ evasion.
//! * [`DataDome`] — server-side engine: fingerprint + IP + behavioural
//!   signals + per-IP history. Always-detect signals on `ScreenFrame` /
//!   `ForcedColors` (§5.3.2), Tor-exit blocking and fingerprint-churn rate
//!   limiting (Appendix G). Measured blind spot: a mobile-looking profile
//!   with `hardwareConcurrency < 8` excuses the absence of mouse behaviour
//!   (Figure 5, Appendix C).
//!
//! Both implement the workspace's [`fp_types::Detector`] contract, the
//! same trait FP-Inconsistent's own detectors implement, so the honey site
//! runs one chain and each simulator has one entry point: `observe` over
//! the stored record, which is all the paper's measurement sees.
//! Decisions are deterministic functions of that record (plus, for
//! DataDome, per-IP history) — there is no hidden randomness to tune.

pub mod api_access;
pub mod botd;
pub mod datadome;

pub use api_access::{ApiAccess, API_ACCESS_TABLE};
pub use botd::BotD;
pub use datadome::DataDome;
