//! Whole-campaign orchestration.
//!
//! Generates all twenty services, merges the streams in arrival order, and
//! exposes the ground-truth designs for calibration. Generation is
//! CPU-bound, so it runs on plain `std::thread::scope` workers, not async:
//! one per core (at most one per service), each taking the next service
//! off a shared counter. A service's stream depends only on its own seeded
//! RNG, so the merged campaign is the same at any worker count.

use crate::realuser::{self, RealUserRequest};
use crate::service::{self, DesignInfo as ServiceDesign, GeneratedRequest};
use crate::spec::SERVICES;
use fp_types::{Request, Scale, ServiceId, SimTime, Symbol};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Generate all twenty services and yield their requests in arrival
/// order.
///
/// `min(SERVICES.len(), available_parallelism)` workers, the caller's
/// thread among them, each generate the next service index off a shared
/// counter until none is left. The merge then sorts `(time, flat index)`
/// keys, where the flat index counts through the services in order, and
/// moves each request out once. The keys are unique, so the order is that
/// of a stable sort by time of the services' streams concatenated: ties
/// stay in service order, then in generation order.
fn generate_services(config: CampaignConfig) -> impl ExactSizeIterator<Item = GeneratedRequest> {
    let workers = std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(SERVICES.len());
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(spec) = SERVICES.get(index) else {
                break done;
            };
            done.push((index, service::generate(spec, config.scale, config.seed)));
        }
    };
    let mut per_service: Vec<Vec<GeneratedRequest>> = Vec::with_capacity(SERVICES.len());
    per_service.resize_with(SERVICES.len(), Vec::new);
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(helper.join().expect("service generator panicked"));
        }
        for (index, stream) in done {
            per_service[index] = stream;
        }
    });

    let total = per_service.iter().map(Vec::len).sum();
    let mut keys: Vec<(SimTime, u32)> = Vec::with_capacity(total);
    let mut slots: Vec<Option<GeneratedRequest>> = Vec::with_capacity(total);
    for g in per_service.into_iter().flatten() {
        let index = u32::try_from(slots.len()).expect("campaign fits u32 indices");
        keys.push((g.request.time, index));
        slots.push(Some(g));
    }
    keys.sort_unstable();
    keys.into_iter().map(move |(_, index)| {
        slots[index as usize]
            .take()
            .expect("each key names one request")
    })
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
            bot_requests: generate_services(config).map(|g| g.request).collect(),
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

    /// The worker pool and the key-sorted merge give exactly the stream a
    /// single thread builds by generating the services in order and
    /// stable-sorting the concatenation by time: the tie order the
    /// generation golden relies on.
    #[test]
    fn adversarial_stream_equals_the_in_order_stable_sort() {
        for seed in [42, 1_048_573] {
            let config = CampaignConfig {
                scale: Scale::ratio(0.01),
                seed,
            };
            let mut reference: Vec<Request> = SERVICES
                .iter()
                .flat_map(|spec| service::generate(spec, config.scale, config.seed))
                .map(|g| g.request)
                .collect();
            reference.sort_by_key(|r| r.time);
            let pooled = Campaign::generate_adversarial(config).bot_requests;
            assert_eq!(pooled.len(), reference.len());
            for (i, (got, want)) in pooled.iter().zip(&reference).enumerate() {
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "seed {seed}: request {i} differs"
                );
            }
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
