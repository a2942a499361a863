//! Whole-campaign orchestration.
//!
//! Generates all twenty services (in parallel — the work is CPU-bound, so
//! per the Tokio guide's own advice this is plain `std::thread::scope`
//! threads, not async), merges the streams in arrival order, and exposes
//! the ground-truth designs for calibration.

use crate::realuser::{self, RealUserRequest};
use crate::service::{self, DesignInfo as ServiceDesign, GeneratedRequest};
use crate::spec::SERVICES;
use fp_types::{Request, Scale, ServiceId, Symbol};

pub use crate::service::DesignInfo;

/// Campaign parameters.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Volume scale relative to the paper's 507,080 bot requests.
    pub scale: Scale,
    /// Master seed; every stream derives from it.
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            scale: Scale::FULL,
            seed: 0xF9_1C0DE,
        }
    }
}

/// A generated campaign: bot traffic in arrival order with parallel design
/// ground truth, the real-user set, and the two agent cohorts of the
/// cross-layer extension.
pub struct Campaign {
    /// The parameters the campaign was generated with.
    pub config: CampaignConfig,
    /// Bot requests, sorted by arrival time. `Request::id` is 0 until a
    /// store ingests them.
    pub bot_requests: Vec<Request>,
    /// Design ground truth, index-aligned with `bot_requests`.
    pub designs: Vec<ServiceDesign>,
    /// Real-user requests (separate URL, §7.4) with spoofer ground truth.
    pub real_users: Vec<RealUserRequest>,
    /// AI-browsing-agent cohort (separate URL): real-browser TLS,
    /// automation-shaped behaviour.
    pub ai_agents: Vec<Request>,
    /// TLS-lagging evasive cohort (separate URL): patched JS fingerprints
    /// over a non-browser ClientHello.
    pub tls_laggards: Vec<Request>,
}

/// The adversarial slice of a campaign: the bot services' merged request
/// stream plus the TLS-laggard cohort, with the truthful populations
/// (real users, AI agents, privacy tools) skipped. What the arena
/// regenerates every round — request content is identical to the
/// corresponding [`Campaign::generate`] fields for the same config.
pub struct AdversarialTraffic {
    /// Bot requests, sorted by arrival time.
    pub bot_requests: Vec<Request>,
    /// The TLS-lagging evasive cohort.
    pub tls_laggards: Vec<Request>,
}

/// Generate all twenty services in parallel and merge in arrival order.
fn generate_services(config: CampaignConfig) -> Vec<GeneratedRequest> {
    let mut per_service: Vec<Vec<GeneratedRequest>> = Vec::with_capacity(SERVICES.len());
    per_service.resize_with(SERVICES.len(), Vec::new);

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for spec in SERVICES.iter() {
            handles.push(scope.spawn(move || service::generate(spec, config.scale, config.seed)));
        }
        for (slot, handle) in per_service.iter_mut().zip(handles) {
            *slot = handle.join().expect("service generator panicked");
        }
    });

    let mut merged: Vec<GeneratedRequest> = per_service.into_iter().flatten().collect();
    merged.sort_by_key(|g| g.request.time);
    merged
}

impl Campaign {
    /// Generate the full campaign.
    pub fn generate(config: CampaignConfig) -> Campaign {
        let merged = generate_services(config);
        let mut bot_requests = Vec::with_capacity(merged.len());
        let mut designs = Vec::with_capacity(merged.len());
        for g in merged {
            bot_requests.push(g.request);
            designs.push(g.design);
        }

        let real_users = realuser::generate(config.scale, config.seed);
        let ai_agents = crate::cohorts::generate_ai_agents(config.scale, config.seed);
        let tls_laggards = crate::cohorts::generate_tls_laggards(config.scale, config.seed);

        Campaign {
            config,
            bot_requests,
            designs,
            real_users,
            ai_agents,
            tls_laggards,
        }
    }

    /// Generate only the adversarial traffic (bot services + TLS
    /// laggards), skipping the truthful populations — the arena's
    /// per-round regeneration path, which would otherwise pay for real
    /// users and AI agents it never uses.
    pub fn generate_adversarial(config: CampaignConfig) -> AdversarialTraffic {
        AdversarialTraffic {
            bot_requests: generate_services(config)
                .into_iter()
                .map(|g| g.request)
                .collect(),
            tls_laggards: crate::cohorts::generate_tls_laggards(config.scale, config.seed),
        }
    }

    /// The URL token assigned to a bot service.
    pub fn token_of(&self, id: ServiceId) -> Symbol {
        service::site_token(self.config.seed, id.0)
    }

    /// The real-user URL token.
    pub fn real_user_token(&self) -> Symbol {
        realuser::real_user_token(self.config.seed)
    }

    /// The AI-agent cohort's URL token.
    pub fn ai_agent_token(&self) -> Symbol {
        crate::cohorts::ai_agent_token(self.config.seed)
    }

    /// The TLS-lagging cohort's URL token.
    pub fn tls_laggard_token(&self) -> Symbol {
        crate::cohorts::tls_laggard_token(self.config.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec_of;
    use fp_types::TrafficSource;

    #[test]
    fn campaign_volume_and_order() {
        let campaign = Campaign::generate(CampaignConfig {
            scale: Scale::ratio(0.01),
            seed: 1,
        });
        let expected: u64 = SERVICES
            .iter()
            .map(|s| Scale::ratio(0.01).apply(s.requests))
            .sum();
        assert_eq!(campaign.bot_requests.len() as u64, expected);
        assert_eq!(campaign.bot_requests.len(), campaign.designs.len());
        assert!(campaign
            .bot_requests
            .windows(2)
            .all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn per_service_volumes_survive_merge() {
        let campaign = Campaign::generate(CampaignConfig {
            scale: Scale::ratio(0.01),
            seed: 2,
        });
        for spec in SERVICES.iter() {
            let n = campaign
                .bot_requests
                .iter()
                .filter(|r| r.source == TrafficSource::Bot(spec.id))
                .count() as u64;
            assert_eq!(n, Scale::ratio(0.01).apply(spec.requests), "{}", spec.id);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Campaign::generate(CampaignConfig {
            scale: Scale::ratio(0.01),
            seed: 3,
        });
        let b = Campaign::generate(CampaignConfig {
            scale: Scale::ratio(0.01),
            seed: 3,
        });
        assert_eq!(a.bot_requests.len(), b.bot_requests.len());
        for (x, y) in a.bot_requests.iter().zip(&b.bot_requests) {
            assert_eq!(x.time, y.time);
            assert_eq!(x.ip, y.ip);
            assert_eq!(x.fingerprint, y.fingerprint);
        }
    }

    #[test]
    fn adversarial_slice_matches_the_full_campaign() {
        let config = CampaignConfig {
            scale: Scale::ratio(0.01),
            seed: 5,
        };
        let full = Campaign::generate(config);
        let slice = Campaign::generate_adversarial(config);
        assert_eq!(slice.bot_requests.len(), full.bot_requests.len());
        for (a, b) in slice.bot_requests.iter().zip(&full.bot_requests) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.ip, b.ip);
            assert_eq!(a.cookie, b.cookie);
            assert_eq!(a.fingerprint, b.fingerprint);
        }
        assert_eq!(slice.tls_laggards.len(), full.tls_laggards.len());
        for (a, b) in slice.tls_laggards.iter().zip(&full.tls_laggards) {
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_eq!(a.tls, b.tls);
        }
    }

    #[test]
    fn tokens_are_per_service() {
        let campaign = Campaign::generate(CampaignConfig {
            scale: Scale::ratio(0.01),
            seed: 4,
        });
        for r in &campaign.bot_requests {
            let TrafficSource::Bot(id) = r.source else {
                panic!()
            };
            assert_eq!(r.site_token, campaign.token_of(id));
        }
        let s1 = spec_of(ServiceId(1));
        assert!(s1.requests > 0);
    }
}
