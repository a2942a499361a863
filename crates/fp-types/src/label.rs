//! Ground-truth provenance labels.
//!
//! The honey-site architecture exists to make these labels reliable: each
//! URL token is shared with exactly one traffic source, so every admitted
//! request carries its true origin (Section 4.1).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a purchased bot service, `S1`..=`S20` in the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct ServiceId(pub u8);

impl ServiceId {
    /// Number of bot services in the campaign (Table 1).
    pub const COUNT: u8 = 20;

    /// All service ids, `S1`..`S20`.
    pub fn all() -> impl Iterator<Item = ServiceId> {
        (1..=Self::COUNT).map(ServiceId)
    }

    /// Paper-style name (`S7`).
    pub fn name(self) -> String {
        format!("S{}", self.0)
    }
}

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Privacy-enhancing technologies evaluated in Section 7.5.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum PrivacyTech {
    /// Brave browser: farbles audio/canvas/plugins/deviceMemory/
    /// hardwareConcurrency/screenResolution, keeps cookies.
    Brave,
    /// Tor Browser: uniform fingerprint, UTC timezone, exit-node IPs.
    Tor,
    /// Safari with Intelligent Tracking Prevention (blocks trackers only).
    Safari,
    /// uBlock Origin on Chrome (blocks requests only).
    UblockOrigin,
    /// AdBlock Plus on Chrome (blocks requests only).
    AdblockPlus,
}

impl PrivacyTech {
    /// All evaluated technologies.
    pub const ALL: [PrivacyTech; 5] = [
        PrivacyTech::Brave,
        PrivacyTech::Tor,
        PrivacyTech::Safari,
        PrivacyTech::UblockOrigin,
        PrivacyTech::AdblockPlus,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            PrivacyTech::Brave => "Brave",
            PrivacyTech::Tor => "Tor",
            PrivacyTech::Safari => "Safari",
            PrivacyTech::UblockOrigin => "uBlock Origin",
            PrivacyTech::AdblockPlus => "AdBlock Plus",
        }
    }
}

/// Who actually generated a request — the honey site's ground truth.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum TrafficSource {
    /// One of the 20 purchased bot services.
    Bot(ServiceId),
    /// Real-user traffic from the university URL (Section 7.4).
    RealUser,
    /// The privacy-technology experiment (Section 7.5).
    Privacy(PrivacyTech),
    /// An AI browsing agent: a real browser driven by an automation stack
    /// (genuine Chromium TLS, automation-shaped behaviour).
    AiAgent,
    /// An evasive bot whose JS fingerprint is patched to perfection but
    /// whose TLS stack lags behind the lie (non-browser ClientHello under
    /// a browser User-Agent).
    TlsLaggard,
}

impl TrafficSource {
    /// Ground truth: is this request automation? True for the purchased
    /// services and for the agent cohorts; false for real users and the
    /// privacy-tool experiment.
    pub fn is_bot(self) -> bool {
        matches!(
            self,
            TrafficSource::Bot(_) | TrafficSource::AiAgent | TrafficSource::TlsLaggard
        )
    }

    /// The service id, when a bot.
    pub fn service(self) -> Option<ServiceId> {
        match self {
            TrafficSource::Bot(s) => Some(s),
            _ => None,
        }
    }

    /// The evaluation cohort this source belongs to.
    pub fn cohort(self) -> Cohort {
        match self {
            TrafficSource::Bot(_) => Cohort::BotService,
            TrafficSource::RealUser => Cohort::RealUser,
            TrafficSource::Privacy(_) => Cohort::Privacy,
            TrafficSource::AiAgent => Cohort::AiAgent,
            TrafficSource::TlsLaggard => Cohort::TlsLaggard,
        }
    }
}

impl fmt::Display for TrafficSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficSource::Bot(s) => write!(f, "bot:{s}"),
            TrafficSource::RealUser => f.write_str("real-user"),
            TrafficSource::Privacy(p) => write!(f, "privacy:{}", p.name()),
            TrafficSource::AiAgent => f.write_str("ai-agent"),
            TrafficSource::TlsLaggard => f.write_str("tls-laggard"),
        }
    }
}

/// Evaluation cohorts: traffic classes whose per-detector hit rates are
/// reported separately (real users vs. the paper's purchased services vs.
/// the two agent cohorts of the cross-layer extension).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub enum Cohort {
    /// Ground-truth human traffic (Section 7.4's university URL).
    RealUser,
    /// The 20 purchased bot services (Table 1).
    BotService,
    /// AI browsing agents: real-browser TLS, automation-shaped behaviour.
    AiAgent,
    /// Evasive bots with patched JS fingerprints but a lagging TLS stack.
    TlsLaggard,
    /// The §7.5 privacy-technology experiment (human, altered attributes).
    Privacy,
}

impl Cohort {
    /// Every cohort, in report order.
    pub const ALL: [Cohort; 5] = [
        Cohort::RealUser,
        Cohort::BotService,
        Cohort::AiAgent,
        Cohort::TlsLaggard,
        Cohort::Privacy,
    ];

    /// This cohort's position in [`Cohort::ALL`] — the index every
    /// per-cohort report array uses.
    pub fn index(self) -> usize {
        Cohort::ALL
            .iter()
            .position(|c| *c == self)
            .expect("every cohort is in ALL")
    }

    /// Human-readable name for tables.
    pub fn name(self) -> &'static str {
        match self {
            Cohort::RealUser => "real-user",
            Cohort::BotService => "bot-service",
            Cohort::AiAgent => "ai-agent",
            Cohort::TlsLaggard => "tls-laggard",
            Cohort::Privacy => "privacy-tool",
        }
    }

    /// Is a flag on this cohort a true positive (automation) rather than a
    /// false positive (human)?
    pub fn is_automation(self) -> bool {
        matches!(
            self,
            Cohort::BotService | Cohort::AiAgent | Cohort::TlsLaggard
        )
    }
}

impl fmt::Display for Cohort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_services() {
        let all: Vec<_> = ServiceId::all().collect();
        assert_eq!(all.len(), 20);
        assert_eq!(all[0].name(), "S1");
        assert_eq!(all[19].name(), "S20");
    }

    #[test]
    fn bot_label() {
        assert!(TrafficSource::Bot(ServiceId(3)).is_bot());
        assert!(!TrafficSource::RealUser.is_bot());
        assert!(!TrafficSource::Privacy(PrivacyTech::Brave).is_bot());
        assert!(TrafficSource::AiAgent.is_bot(), "agents are automation");
        assert!(TrafficSource::TlsLaggard.is_bot());
        assert_eq!(
            TrafficSource::Bot(ServiceId(3)).service(),
            Some(ServiceId(3))
        );
        assert_eq!(TrafficSource::RealUser.service(), None);
        assert_eq!(TrafficSource::AiAgent.service(), None);
    }

    #[test]
    fn cohort_classification() {
        assert_eq!(TrafficSource::RealUser.cohort(), Cohort::RealUser);
        assert_eq!(
            TrafficSource::Bot(ServiceId(1)).cohort(),
            Cohort::BotService
        );
        assert_eq!(TrafficSource::AiAgent.cohort(), Cohort::AiAgent);
        assert_eq!(TrafficSource::TlsLaggard.cohort(), Cohort::TlsLaggard);
        assert_eq!(
            TrafficSource::Privacy(PrivacyTech::Tor).cohort(),
            Cohort::Privacy
        );
        for (i, cohort) in Cohort::ALL.iter().enumerate() {
            assert_eq!(
                cohort.is_automation(),
                matches!(
                    cohort,
                    Cohort::BotService | Cohort::AiAgent | Cohort::TlsLaggard
                ),
                "{cohort}"
            );
            assert_eq!(cohort.index(), i);
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(TrafficSource::Bot(ServiceId(14)).to_string(), "bot:S14");
        assert_eq!(TrafficSource::RealUser.to_string(), "real-user");
        assert_eq!(
            TrafficSource::Privacy(PrivacyTech::Tor).to_string(),
            "privacy:Tor"
        );
    }
}
