//! Evaluation harness: Tables 3 and 4, §7.4's true-negative rate, the
//! §7.3 generalisation experiment, the cohort-split per-detector
//! precision/recall report of the cross-layer extension, and the
//! round-over-round trajectory report of the closed-loop arena
//! (recall/FPR per round, evasion half-life, mutation cost to evade).

use crate::engine::FpInconsistent;
use crate::spatial::MineConfig;
use fp_honeysite::RequestStore;
use fp_types::defense::RetrainSpend;
use fp_types::detect::provenance;
use fp_types::runfp::{ComponentHash, ComponentHasher};
use fp_types::{ActionLedger, Cohort, ServiceId, Symbol, TrafficSource};

/// One Table 3 row: a service's detection before/after FP-Inconsistent.
#[derive(Clone, Copy, Debug)]
pub struct ServiceImprovement {
    pub id: ServiceId,
    pub requests: u64,
    pub dd_detection: f64,
    pub dd_post_detection: f64,
    pub botd_detection: f64,
    pub botd_post_detection: f64,
}

/// Table 4: overall detection under each inconsistency mode.
#[derive(Clone, Copy, Debug, Default)]
pub struct DetectionReport {
    /// Plain anti-bot detection (DataDome, BotD).
    pub none: (f64, f64),
    /// Anti-bot ∪ spatial rules.
    pub spatial: (f64, f64),
    /// Anti-bot ∪ temporal analysis.
    pub temporal: (f64, f64),
    /// Anti-bot ∪ both.
    pub combined: (f64, f64),
}

impl DetectionReport {
    /// The headline numbers: relative reduction in evasion
    /// `(datadome, botd)` from combined inconsistency analysis (the
    /// abstract's 48.11 % / 44.95 %).
    pub fn evasion_reduction(&self) -> (f64, f64) {
        let dd = (self.combined.0 - self.none.0) / (1.0 - self.none.0).max(1e-12);
        let botd = (self.combined.1 - self.none.1) / (1.0 - self.none.1).max(1e-12);
        (dd, botd)
    }
}

/// Evaluate flags over a bot store: per-service improvements (Table 3) and
/// the overall mode report (Table 4). A single pass over the store: the
/// engine's stream yields each request's `(spatial, temporal)` verdict as
/// the pass advances — no intermediate flag vectors, no re-traversal.
pub fn evaluate(
    store: &RequestStore,
    engine: &FpInconsistent,
) -> (Vec<ServiceImprovement>, DetectionReport) {
    let mut stream = engine.stream();

    #[derive(Default, Clone, Copy)]
    struct Acc {
        n: u64,
        dd: u64,
        dd_post: u64,
        botd: u64,
        botd_post: u64,
    }
    let mut per_service = vec![Acc::default(); usize::from(ServiceId::COUNT)];
    let mut overall = [0u64; 9]; // n, dd, botd, dd_s, botd_s, dd_t, botd_t, dd_c, botd_c
    let dd_sym = provenance::datadome_sym();
    let botd_sym = provenance::botd_sym();

    for r in store.iter() {
        // The temporal state machine must observe every request (humans
        // included) in arrival order, so stream before the bot filter.
        let (spatial, temporal) = stream.observe(r);
        let TrafficSource::Bot(id) = r.source else {
            continue;
        };
        let dd = r.verdicts.bot_sym(dd_sym);
        let botd = r.verdicts.bot_sym(botd_sym);
        let combined_flag = spatial || temporal;

        let acc = &mut per_service[usize::from(id.0) - 1];
        acc.n += 1;
        acc.dd += u64::from(dd);
        acc.botd += u64::from(botd);
        acc.dd_post += u64::from(dd || combined_flag);
        acc.botd_post += u64::from(botd || combined_flag);

        overall[0] += 1;
        overall[1] += u64::from(dd);
        overall[2] += u64::from(botd);
        overall[3] += u64::from(dd || spatial);
        overall[4] += u64::from(botd || spatial);
        overall[5] += u64::from(dd || temporal);
        overall[6] += u64::from(botd || temporal);
        overall[7] += u64::from(dd || combined_flag);
        overall[8] += u64::from(botd || combined_flag);
    }

    let improvements = ServiceId::all()
        .zip(per_service)
        .filter(|(_, a)| a.n > 0)
        .map(|(id, a)| ServiceImprovement {
            id,
            requests: a.n,
            dd_detection: a.dd as f64 / a.n as f64,
            dd_post_detection: a.dd_post as f64 / a.n as f64,
            botd_detection: a.botd as f64 / a.n as f64,
            botd_post_detection: a.botd_post as f64 / a.n as f64,
        })
        .collect();

    let n = overall[0].max(1) as f64;
    let report = DetectionReport {
        none: (overall[1] as f64 / n, overall[2] as f64 / n),
        spatial: (overall[3] as f64 / n, overall[4] as f64 / n),
        temporal: (overall[5] as f64 / n, overall[6] as f64 / n),
        combined: (overall[7] as f64 / n, overall[8] as f64 / n),
    };
    (improvements, report)
}

/// §7.4: true-negative rate of the engine on (ground-truth) human traffic.
/// A true negative is a request with *no* flag of either kind. Single pass.
pub fn true_negative_rate(store: &RequestStore, engine: &FpInconsistent) -> f64 {
    let mut stream = engine.stream();
    let mut humans = 0u64;
    let mut clean = 0u64;
    for r in store.iter() {
        let (s, t) = stream.observe(r);
        if !r.source.is_bot() {
            humans += 1;
            clean += u64::from(!s && !t);
        }
    }
    if humans == 0 {
        return 1.0;
    }
    clean as f64 / humans as f64
}

/// §7.3's generalisation experiment: mine rules on `train_fraction` of the
/// store (deterministic hash split), evaluate combined detection on the
/// held-out rest, and compare with rules mined on everything. Returns
/// `(full_detection, holdout_detection)` pairs for (DataDome, BotD) — the
/// paper reports drops of 0.23 % and 0.42 %.
pub fn generalization_experiment(
    store: &RequestStore,
    mine_config: &MineConfig,
    train_fraction: f64,
    seed: u64,
) -> ((f64, f64), (f64, f64)) {
    // Split by request id hash.
    let mut train = RequestStore::new();
    let mut eval_ids = Vec::new();
    for r in store.iter() {
        if fp_types::unit_f64(fp_types::mix2(seed, r.id)) < train_fraction {
            train.push(r.clone());
        } else {
            eval_ids.push(r.id);
        }
    }
    let mut eval = RequestStore::new();
    for id in &eval_ids {
        eval.push(store.get(*id).unwrap().clone());
    }

    let full_engine = FpInconsistent::mine(store, mine_config);
    let split_engine = FpInconsistent::mine(&train, mine_config);

    let (_, full_report) = evaluate(&eval, &full_engine);
    let (_, split_report) = evaluate(&eval, &split_engine);
    (full_report.combined, split_report.combined)
}

/// One detector's cohort-split performance, computed from the named
/// verdicts the ingest chain recorded.
#[derive(Clone, Debug)]
pub struct DetectorCohortStats {
    /// The detector's provenance name.
    pub detector: Symbol,
    /// Of everything this detector flagged, the fraction that was
    /// automation (ground truth). 1.0 when it flagged nothing.
    pub precision: f64,
    /// Flag rate per cohort, in [`Cohort::ALL`] order (recall for the
    /// automation cohorts, false-positive rate for the human ones).
    pub flag_rate: [f64; Cohort::ALL.len()],
    /// Raw flag *counts* per cohort, in [`Cohort::ALL`] order — the
    /// integers the rates are derived from. The behaviour fingerprint
    /// folds these (exact, platform-independent) rather than the f64
    /// rates.
    pub flags: [u64; Cohort::ALL.len()],
}

impl DetectorCohortStats {
    /// The flag rate on one cohort.
    pub fn rate(&self, cohort: Cohort) -> f64 {
        self.flag_rate[cohort.index()]
    }
}

/// The cohort-split evaluation of every detector that ran in the chain.
#[derive(Clone, Debug, Default)]
pub struct CohortReport {
    /// Requests per cohort, in [`Cohort::ALL`] order.
    pub cohort_sizes: [u64; Cohort::ALL.len()],
    /// Per-detector stats, in chain order.
    pub detectors: Vec<DetectorCohortStats>,
}

impl CohortReport {
    /// The number of requests observed in a cohort.
    pub fn size(&self, cohort: Cohort) -> u64 {
        self.cohort_sizes[cohort.index()]
    }

    /// Stats for a detector by provenance name, if it ran.
    pub fn detector(&self, name: &str) -> Option<&DetectorCohortStats> {
        self.detectors.iter().find(|d| d.detector.as_str() == name)
    }
}

/// Split per-detector performance by traffic cohort, reading the named
/// [`fp_types::VerdictSet`] the ingest chain recorded on each request —
/// so it covers every detector that actually ran, commercial simulators
/// and FP-Inconsistent's detectors alike. Single pass over the store.
pub fn cohort_report(store: &RequestStore) -> CohortReport {
    let n_cohorts = Cohort::ALL.len();
    let mut sizes = [0u64; 5];
    // detector -> (flags per cohort, chain position on first sighting)
    let mut order: Vec<Symbol> = Vec::new();
    let mut flags: Vec<[u64; 5]> = Vec::new();

    for r in store.iter() {
        let cohort_idx = r.source.cohort().index();
        sizes[cohort_idx] += 1;
        for (detector, verdict) in r.verdicts.iter() {
            let slot = match order.iter().position(|d| *d == detector) {
                Some(i) => i,
                None => {
                    order.push(detector);
                    flags.push([0u64; 5]);
                    order.len() - 1
                }
            };
            if verdict.is_bot() {
                flags[slot][cohort_idx] += 1;
            }
        }
    }

    let detectors = order
        .into_iter()
        .zip(flags)
        .map(|(detector, per_cohort)| {
            let mut tp = 0u64;
            let mut total = 0u64;
            let mut flag_rate = [0.0; 5];
            for (i, cohort) in Cohort::ALL.iter().enumerate().take(n_cohorts) {
                total += per_cohort[i];
                if cohort.is_automation() {
                    tp += per_cohort[i];
                }
                flag_rate[i] = per_cohort[i] as f64 / sizes[i].max(1) as f64;
            }
            DetectorCohortStats {
                detector,
                precision: if total == 0 {
                    1.0
                } else {
                    tp as f64 / total as f64
                },
                flag_rate,
                flags: per_cohort,
            }
        })
        .collect();

    CohortReport {
        cohort_sizes: sizes,
        detectors,
    }
}

/// What the adversary *paid* in one arena round to keep evading: how much
/// of its traffic it touched and what it changed. Supplied by the arena's
/// adaptation layer (ground truth the defender never sees); consumed by
/// [`TrajectoryReport::mutation_cost_per_evasion`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MutationStats {
    /// Bot requests an adaptation strategy modified in any way.
    pub adapted_requests: u64,
    /// Fingerprint attributes mutated across the round (cookie rotations
    /// count as one mutation each — the cookie is the temporal anchor).
    pub mutated_attrs: u64,
    /// Requests whose source address was rotated to a fresh IP.
    pub rotated_ips: u64,
    /// Requests whose TLS stack was upgraded to the truthful hello for the
    /// claimed User-Agent.
    pub tls_upgrades: u64,
    /// Requests whose session cadence facet was re-shaped to human pacing
    /// (the FP-Agent counter-move; each costs the agent real think-time
    /// throughput).
    pub cadence_humanised: u64,
}

impl MutationStats {
    /// Merge another round-slice of stats into this one.
    pub fn absorb(&mut self, other: MutationStats) {
        self.adapted_requests += other.adapted_requests;
        self.mutated_attrs += other.mutated_attrs;
        self.rotated_ips += other.rotated_ips;
        self.tls_upgrades += other.tls_upgrades;
        self.cadence_humanised += other.cadence_humanised;
    }
}

/// One arena round's measurement: the cohort-split detector report over the
/// admitted traffic, admission denials per cohort, and the adversary's
/// mutation spend.
#[derive(Clone, Debug)]
pub struct RoundStats {
    /// Round index (0 = the pre-mitigation round, identical to the
    /// single-shot pipeline).
    pub round: u32,
    /// Per-detector, per-cohort performance on the requests that were
    /// admitted this round.
    pub cohorts: CohortReport,
    /// Requests turned away at admission by the TTL blocklist, per cohort
    /// in [`Cohort::ALL`] order.
    pub denied: [u64; Cohort::ALL.len()],
    /// The mitigation decisions over every admitted request this round —
    /// the defender's action ledger (allow / shadow / captcha / block).
    pub actions: ActionLedger,
    /// The adversary's adaptation spend this round.
    pub mutation: MutationStats,
    /// The defender's end-of-round spend: which stack members retrained,
    /// how many training records they scanned, and the live model size —
    /// the other side of the arms-race ledger.
    pub defense: RetrainSpend,
    /// The round's observability snapshot: wall-clock duration plus the
    /// metrics-registry delta over the round (latency and timing
    /// histograms, admission counters). **Deliberately excluded from
    /// [`RoundStats::to_json`]** and therefore from the `behavior`
    /// fingerprint component: timings are host noise, not behaviour — two
    /// identical campaigns on different machines must fingerprint
    /// identically (the same reasoning that keeps the shard count out).
    pub obs: fp_obs::RoundObs,
}

impl RoundStats {
    /// Admission denials for one cohort.
    pub fn denied(&self, cohort: Cohort) -> u64 {
        self.denied[cohort.index()]
    }

    /// The round's canonical JSON encoding — the exact byte sequence the
    /// behaviour fingerprint folds (one line per round), so serialization
    /// stability *is* fingerprint stability. Deliberately hand-rolled with
    /// a fixed field order and integer-only measurements: flag counts, not
    /// f64 rates (rates are derivable); detectors sorted by provenance
    /// name, so two chains with the same per-detector verdicts in a
    /// different mount order encode identically (chain order is an
    /// execution detail, like the shard count). Guarded by the golden
    /// JSON snapshot in `tests/trajectory_json.rs` — reordering or
    /// renaming a field breaks that snapshot before it silently changes
    /// every run fingerprint.
    pub fn to_json(&self) -> String {
        let join = |xs: &[u64]| {
            xs.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut detectors: Vec<&DetectorCohortStats> = self.cohorts.detectors.iter().collect();
        detectors.sort_by_key(|d| d.detector.as_str());
        let detectors = detectors
            .iter()
            .map(|d| {
                format!(
                    "{{\"detector\":\"{}\",\"flags\":[{}]}}",
                    d.detector.as_str(),
                    join(&d.flags)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let d = &self.defense;
        format!(
            "{{\"round\":{},\"cohort_sizes\":[{}],\"detectors\":[{}],\
             \"denied\":[{}],\"actions\":{{\"allowed\":{},\"shadow_flagged\":{},\
             \"captchas\":{},\"blocked\":{}}},\"mutation\":{{\"adapted_requests\":{},\
             \"mutated_attrs\":{},\"rotated_ips\":{},\"tls_upgrades\":{},\
             \"cadence_humanised\":{}}},\
             \"defense\":{{\"retrained_members\":{},\"records_scanned\":{},\
             \"rules_active\":{},\"records_evicted\":{},\"records_resident\":{},\
             \"pack_hash\":{},\"rules_added\":{},\"rules_removed\":{}}}}}",
            self.round,
            join(&self.cohorts.cohort_sizes),
            detectors,
            join(&self.denied),
            self.actions.allowed,
            self.actions.shadow_flagged,
            self.actions.captchas,
            self.actions.blocked,
            self.mutation.adapted_requests,
            self.mutation.mutated_attrs,
            self.mutation.rotated_ips,
            self.mutation.tls_upgrades,
            self.mutation.cadence_humanised,
            d.retrained_members,
            d.records_scanned,
            d.rules_active,
            d.records_evicted,
            d.records_resident,
            d.pack_hash
                .map_or_else(|| "null".to_string(), |h| format!("\"{h}\"")),
            d.rules_added,
            d.rules_removed,
        )
    }

    /// Automation requests admitted this round that the *named* detector
    /// missed (summed over the automation cohorts) — the denominator of
    /// the per-detector mutation-cost metric. A request another detector
    /// caught still counts as evading this one.
    fn evading_bot_requests(&self, detector: &str) -> f64 {
        let Some(stats) = self.cohorts.detector(detector) else {
            return 0.0;
        };
        Cohort::ALL
            .iter()
            .filter(|c| c.is_automation())
            .map(|&c| self.cohorts.size(c) as f64 * (1.0 - stats.rate(c)))
            .sum()
    }
}

/// The round-over-round view of a closed-loop campaign: what each detector
/// still catches as the adversary adapts, and what the adaptation costs.
#[derive(Clone, Debug, Default)]
pub struct TrajectoryReport {
    /// Per-round stats, in round order.
    pub rounds: Vec<RoundStats>,
}

impl TrajectoryReport {
    /// An empty report.
    pub fn new() -> TrajectoryReport {
        TrajectoryReport::default()
    }

    /// Append one round's stats (rounds must arrive in order).
    pub fn push(&mut self, stats: RoundStats) {
        debug_assert_eq!(stats.round as usize, self.rounds.len());
        self.rounds.push(stats);
    }

    /// A detector's flag rate on one cohort, per round (recall on the
    /// automation cohorts). Rounds where the detector did not run or the
    /// cohort was empty report 0.
    pub fn recall_trajectory(&self, detector: &str, cohort: Cohort) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| {
                r.cohorts
                    .detector(detector)
                    .map(|d| d.rate(cohort))
                    .unwrap_or(0.0)
            })
            .collect()
    }

    /// A detector's false-positive rate on ground-truth human traffic
    /// (the real-user cohort), per round.
    pub fn fpr_trajectory(&self, detector: &str) -> Vec<f64> {
        self.recall_trajectory(detector, Cohort::RealUser)
    }

    /// Evasion half-life: the (fractional, linearly interpolated) number of
    /// rounds it takes the adversary to push a detector's recall on a
    /// cohort down to half its round-0 value. `None` when recall never
    /// halves within the recorded rounds (the detector holds) or when the
    /// detector catches nothing at round 0 (nothing to halve).
    pub fn evasion_half_life(&self, detector: &str, cohort: Cohort) -> Option<f64> {
        let recall = self.recall_trajectory(detector, cohort);
        let r0 = *recall.first()?;
        if r0 <= 0.0 {
            return None;
        }
        let target = r0 / 2.0;
        for (i, pair) in recall.windows(2).enumerate() {
            let (prev, next) = (pair[0], pair[1]);
            if next <= target {
                // Interpolate within the round the crossing happened.
                let span = prev - next;
                let frac = if span > 1e-12 {
                    (prev - target) / span
                } else {
                    1.0
                };
                return Some(i as f64 + frac);
            }
        }
        None
    }

    /// The defender's retraining spend per round — the columns the arena
    /// table prints next to the adversary's mutation spend. Round `r`'s
    /// entry is what the defender paid *at the end of* round `r` (the
    /// retraining that shaped round `r + 1`'s chain).
    pub fn defense_spend_trajectory(&self) -> Vec<RetrainSpend> {
        self.rounds.iter().map(|r| r.defense).collect()
    }

    /// Total training records the defender scanned across the campaign
    /// (the dominant re-mining cost, summed over rounds).
    pub fn total_defense_scans(&self) -> u64 {
        self.rounds.iter().map(|r| r.defense.records_scanned).sum()
    }

    /// High-water mark of the defender's resident training records across
    /// the campaign — what a bounding retention policy caps and an
    /// unbounded window lets grow linearly. (Seal-time snapshots; 0 for a
    /// frozen defender that retains nothing.)
    pub fn peak_resident_records(&self) -> u64 {
        self.rounds
            .iter()
            .map(|r| r.defense.records_resident)
            .max()
            .unwrap_or(0)
    }

    /// Total training records the retention policy evicted across the
    /// campaign (whole-epoch eviction and within-segment decay combined).
    pub fn total_records_evicted(&self) -> u64 {
        self.rounds.iter().map(|r| r.defense.records_evicted).sum()
    }

    /// Per round: the content hash of the spatial rule pack deployed at
    /// the end of that round (`None` for rounds before pack tracking, or
    /// for defenders with no spatial member). The version trail of the
    /// defense: the hash changes exactly on the rounds where re-mining
    /// changed the rule set.
    pub fn pack_hash_trajectory(&self) -> Vec<Option<fp_types::PackHash>> {
        self.rounds.iter().map(|r| r.defense.pack_hash).collect()
    }

    /// Total rules added plus removed by re-mining across the campaign —
    /// how much the mined model actually churned while the hash trail
    /// versioned it.
    pub fn total_rule_churn(&self) -> u64 {
        self.rounds
            .iter()
            .map(|r| r.defense.rules_added + r.defense.rules_removed)
            .sum()
    }

    /// Wall-clock nanoseconds each round took, in round order (0 for
    /// rounds recorded without metrics). Observability only — never
    /// folded into the behaviour fingerprint.
    pub fn round_wall_ns(&self) -> Vec<u64> {
        self.rounds.iter().map(|r| r.obs.wall_ns).collect()
    }

    /// The whole trajectory's canonical JSON encoding: the version tag
    /// plus every round's [`RoundStats::to_json`] line in round order.
    /// This is the serialization the golden-snapshot regression test pins
    /// and the substrate [`TrajectoryReport::behavior_component`] folds.
    pub fn to_json(&self) -> String {
        let rounds = self
            .rounds
            .iter()
            .map(RoundStats::to_json)
            .collect::<Vec<_>>()
            .join(",");
        format!("{{\"version\":\"RUNFP_V1\",\"rounds\":[{rounds}]}}")
    }

    /// The run's *behaviour* component: an order-sensitive fold of every
    /// round's canonical JSON line (flag counts, denials, mitigation
    /// actions, mutation spend, defender spend with pack hashes and
    /// eviction ledgers). Two campaigns share this hash iff every round
    /// observably behaved the same, in the same order; it is
    /// shard-count-invariant because everything folded is (the sharded
    /// pipeline is verdict-for-verdict the sequential one).
    pub fn behavior_component(&self) -> ComponentHash {
        let mut h = ComponentHasher::new("behavior");
        for round in &self.rounds {
            h.line(&round.to_json());
        }
        h.finish()
    }

    /// The adversary's attribute-mutation cost per successfully evading
    /// request, per round: mutated attributes divided by the automation
    /// requests the named detector missed that round. The price of staying
    /// invisible — rising cost with flat recall means the detector is
    /// winning the economics even when the rate looks stable.
    pub fn mutation_cost_per_evasion(&self, detector: &str) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| {
                let evading = r.evading_bot_requests(detector);
                if evading < 1.0 {
                    0.0
                } else {
                    r.mutation.mutated_attrs as f64 / evading
                }
            })
            .collect()
    }
}

/// Flag rate on an arbitrary store (used by the privacy-tech bench).
/// Single pass.
pub fn flag_rate(store: &RequestStore, engine: &FpInconsistent) -> (f64, f64, f64) {
    let mut stream = engine.stream();
    let (mut spatial, mut temporal, mut combined) = (0u64, 0u64, 0u64);
    for r in store.iter() {
        let (s, t) = stream.observe(r);
        spatial += u64::from(s);
        temporal += u64::from(t);
        combined += u64::from(s || t);
    }
    let n = store.len().max(1) as f64;
    (spatial as f64 / n, temporal as f64 / n, combined as f64 / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AnalysisAttr;
    use crate::rules::{RuleSet, SpatialRule};
    use fp_honeysite::StoredRequest;
    use fp_types::{sym, AttrId, AttrValue, BehaviorTrace, Fingerprint, SimTime, VerdictSet};

    fn bot_request(service: u8, device: &str, dd: bool, botd: bool) -> StoredRequest {
        StoredRequest {
            id: 0,
            time: SimTime::EPOCH,
            site_token: sym("t"),
            ip_hash: u64::from(service),
            ip_offset_minutes: 480,
            ip_region: sym("United States of America/California"),
            ip_lat: 0.0,
            ip_lon: 0.0,
            asn: 1,
            asn_flagged: false,
            ip_blocklisted: false,
            tor_exit: false,
            cookie: u64::from(service) * 31,
            tls: fp_types::TlsFacet::unobserved(),
            fingerprint: Fingerprint::new()
                .with(AttrId::UaDevice, device)
                .with(AttrId::Timezone, "America/Los_Angeles"),
            source: TrafficSource::Bot(ServiceId(service)),
            behavior: BehaviorTrace::silent(),
            cadence: fp_types::BehaviorFacet::unobserved(),
            verdicts: VerdictSet::from_services(dd, botd),
        }
    }

    fn engine_flagging(device: &str) -> FpInconsistent {
        let mut rules = RuleSet::new();
        rules.add(SpatialRule::new(
            AnalysisAttr::Fp(AttrId::UaDevice),
            AttrValue::text(device),
            AnalysisAttr::Fp(AttrId::Timezone),
            AttrValue::text("America/Los_Angeles"),
        ));
        FpInconsistent::from_rules(rules)
    }

    #[test]
    fn cohort_report_splits_by_cohort_and_detector() {
        let mut store = RequestStore::new();
        // Two bot-service requests, one DataDome-flagged.
        store.push(bot_request(1, "d", true, false));
        store.push(bot_request(1, "d", false, false));
        // A real user DataDome wrongly flags, and a clean one.
        let mut human = bot_request(1, "d", true, false);
        human.source = TrafficSource::RealUser;
        store.push(human);
        let mut human2 = bot_request(1, "d", false, false);
        human2.source = TrafficSource::RealUser;
        store.push(human2);
        // A TLS laggard only the cross-layer detector sees.
        let mut laggard = bot_request(1, "d", false, false);
        laggard.source = TrafficSource::TlsLaggard;
        laggard.verdicts.record(
            sym(fp_types::detect::provenance::FP_TLS_CROSSLAYER),
            fp_types::Verdict::Bot,
        );
        store.push(laggard);
        // An AI agent no detector flags.
        let mut agent = bot_request(1, "d", false, false);
        agent.source = TrafficSource::AiAgent;
        agent.verdicts.record(
            sym(fp_types::detect::provenance::FP_TLS_CROSSLAYER),
            fp_types::Verdict::Human,
        );
        store.push(agent);

        let report = cohort_report(&store);
        assert_eq!(report.size(Cohort::BotService), 2);
        assert_eq!(report.size(Cohort::RealUser), 2);
        assert_eq!(report.size(Cohort::TlsLaggard), 1);
        assert_eq!(report.size(Cohort::AiAgent), 1);

        let dd = report.detector("DataDome").unwrap();
        assert!((dd.rate(Cohort::BotService) - 0.5).abs() < 1e-9);
        assert!((dd.rate(Cohort::RealUser) - 0.5).abs() < 1e-9);
        assert!((dd.precision - 0.5).abs() < 1e-9, "1 TP, 1 FP");
        assert_eq!(
            dd.flags[Cohort::BotService.index()],
            1,
            "raw counts ride along"
        );
        assert_eq!(dd.flags[Cohort::RealUser.index()], 1);

        let xl = report.detector("fp-tls-crosslayer").unwrap();
        assert!((xl.rate(Cohort::TlsLaggard) - 1.0).abs() < 1e-9);
        assert!((xl.rate(Cohort::AiAgent)).abs() < 1e-9);
        assert!((xl.rate(Cohort::RealUser)).abs() < 1e-9);
        assert!((xl.precision - 1.0).abs() < 1e-9);

        assert!(report.detector("no-such-detector").is_none());
    }

    #[test]
    fn evaluation_counts_improvement() {
        let mut store = RequestStore::new();
        store.push(bot_request(1, "flagged-device", false, false)); // evader, flagged
        store.push(bot_request(1, "clean-device", false, false)); // evader, clean
        store.push(bot_request(1, "clean-device", true, true)); // detected
        let engine = engine_flagging("flagged-device");
        let (improvements, report) = evaluate(&store, &engine);
        assert_eq!(improvements.len(), 1);
        let s1 = improvements[0];
        assert!((s1.dd_detection - 1.0 / 3.0).abs() < 1e-9);
        assert!((s1.dd_post_detection - 2.0 / 3.0).abs() < 1e-9);
        assert!((report.spatial.0 - 2.0 / 3.0).abs() < 1e-9);
        assert!(
            (report.temporal.0 - 1.0 / 3.0).abs() < 1e-9,
            "no temporal flags here"
        );
        assert_eq!(report.combined, report.spatial);
    }

    #[test]
    fn evasion_reduction_formula() {
        let report = DetectionReport {
            none: (0.5544, 0.4707),
            spatial: (0.7604, 0.7033),
            temporal: (0.5653, 0.4809),
            combined: (0.7688, 0.7086),
        };
        let (dd, botd) = report.evasion_reduction();
        assert!((dd - 0.4811).abs() < 0.002, "dd reduction {dd}");
        assert!((botd - 0.4495).abs() < 0.002, "botd reduction {botd}");
    }

    #[test]
    fn tnr_counts_only_humans() {
        let mut store = RequestStore::new();
        let mut human = bot_request(1, "flagged-device", false, false);
        human.source = TrafficSource::RealUser;
        store.push(human);
        let mut human2 = bot_request(1, "clean-device", false, false);
        human2.source = TrafficSource::RealUser;
        store.push(human2);
        store.push(bot_request(1, "flagged-device", false, false));
        let engine = engine_flagging("flagged-device");
        let tnr = true_negative_rate(&store, &engine);
        assert!((tnr - 0.5).abs() < 1e-9, "one of two humans flagged: {tnr}");
    }

    fn round_stats(round: u32, bot_recall: f64, user_fpr: f64, mutated: u64) -> RoundStats {
        let mut flag_rate = [0.0; Cohort::ALL.len()];
        flag_rate[Cohort::BotService.index()] = bot_recall;
        flag_rate[Cohort::RealUser.index()] = user_fpr;
        let mut cohort_sizes = [0u64; Cohort::ALL.len()];
        cohort_sizes[Cohort::BotService.index()] = 1_000;
        cohort_sizes[Cohort::RealUser.index()] = 100;
        let mut flags = [0u64; Cohort::ALL.len()];
        flags[Cohort::BotService.index()] = (bot_recall * 1_000.0).round() as u64;
        flags[Cohort::RealUser.index()] = (user_fpr * 100.0).round() as u64;
        RoundStats {
            round,
            cohorts: CohortReport {
                cohort_sizes,
                detectors: vec![DetectorCohortStats {
                    detector: sym("d"),
                    precision: 1.0,
                    flag_rate,
                    flags,
                }],
            },
            denied: [0; Cohort::ALL.len()],
            actions: ActionLedger::default(),
            mutation: MutationStats {
                adapted_requests: mutated.min(1_000),
                mutated_attrs: mutated,
                ..MutationStats::default()
            },
            defense: RetrainSpend::default(),
            obs: fp_obs::RoundObs::default(),
        }
    }

    #[test]
    fn round_json_is_canonical_and_detector_order_free() {
        let stats = round_stats(0, 0.5, 0.02, 7);
        let json = stats.to_json();
        assert!(
            json.starts_with("{\"round\":0,\"cohort_sizes\":["),
            "{json}"
        );
        assert!(json.contains("\"pack_hash\":null"), "{json}");

        // A second detector mounted in either chain order encodes (and
        // therefore folds) identically: chain order is an execution
        // detail, per-detector behaviour is not.
        let extra = DetectorCohortStats {
            detector: sym("a-first"),
            precision: 1.0,
            flag_rate: [0.0; Cohort::ALL.len()],
            flags: [3, 0, 0, 0, 0],
        };
        let mut appended = stats.clone();
        appended.cohorts.detectors.push(extra.clone());
        let mut prepended = stats.clone();
        prepended.cohorts.detectors.insert(0, extra);
        assert_eq!(appended.to_json(), prepended.to_json());

        // …but a changed flag *count* changes the encoding.
        let mut perturbed = appended.clone();
        perturbed.cohorts.detectors[0].flags[0] += 1;
        assert_ne!(perturbed.to_json(), appended.to_json());
    }

    #[test]
    fn behavior_component_tracks_observable_changes_only() {
        let mut traj = TrajectoryReport::new();
        traj.push(round_stats(0, 0.5, 0.02, 7));
        traj.push(round_stats(1, 0.4, 0.02, 9));
        let mut same = TrajectoryReport::new();
        same.push(round_stats(0, 0.5, 0.02, 7));
        same.push(round_stats(1, 0.4, 0.02, 9));
        assert_eq!(traj.behavior_component(), same.behavior_component());
        assert_eq!(traj.to_json(), same.to_json());

        // Round order is behaviour: a reordered trajectory is a
        // different campaign.
        let mut reordered = TrajectoryReport::new();
        reordered.push(round_stats(0, 0.4, 0.02, 9));
        reordered.push(round_stats(1, 0.5, 0.02, 7));
        assert_ne!(traj.behavior_component(), reordered.behavior_component());

        // Every folded ledger perturbs the hash: denials, actions,
        // mutation spend, defender spend.
        let mut denied = traj.clone();
        denied.rounds[1].denied[Cohort::BotService.index()] += 1;
        assert_ne!(traj.behavior_component(), denied.behavior_component());
        let mut acted = traj.clone();
        acted.rounds[1].actions.blocked += 1;
        assert_ne!(traj.behavior_component(), acted.behavior_component());
        let mut spent = traj.clone();
        spent.rounds[1].defense.records_evicted += 1;
        assert_ne!(traj.behavior_component(), spent.behavior_component());
    }

    #[test]
    fn obs_snapshot_is_excluded_from_json_and_behavior() {
        use fp_obs::MetricsRegistry;

        let base = round_stats(0, 0.5, 0.02, 7);
        let mut timed = base.clone();
        let registry = MetricsRegistry::new();
        registry
            .histogram(fp_honeysite::site::ADMISSION_TO_VERDICT_NS)
            .record(1_234);
        registry.counter("site_requests_admitted").inc();
        timed.obs = fp_obs::RoundObs {
            wall_ns: 987_654_321,
            snapshot: registry.snapshot(),
        };
        assert_ne!(timed.obs, base.obs, "the rounds really differ in obs");
        // …yet encode — and therefore fingerprint — identically: timings
        // are host noise, not behaviour.
        assert_eq!(timed.to_json(), base.to_json());
        let mut a = TrajectoryReport::new();
        a.push(base);
        let mut b = TrajectoryReport::new();
        b.push(timed);
        assert_eq!(a.behavior_component(), b.behavior_component());

        // The wall-time trajectory reads the snapshots the fingerprint
        // ignores.
        assert_eq!(a.round_wall_ns(), vec![0]);
        assert_eq!(b.round_wall_ns(), vec![987_654_321]);
    }

    #[test]
    fn defense_spend_columns_follow_rounds() {
        let mut traj = TrajectoryReport::new();
        for (i, scanned) in [0u64, 500, 900].iter().enumerate() {
            let mut stats = round_stats(i as u32, 0.5, 0.0, 0);
            stats.defense = RetrainSpend {
                retrained_members: u64::from(*scanned > 0),
                records_scanned: *scanned,
                rules_active: 10 + *scanned / 100,
                records_evicted: *scanned / 5,
                records_resident: 1_000 - *scanned,
                pack_hash: None,
                rules_added: *scanned / 100,
                rules_removed: 0,
            };
            traj.push(stats);
        }
        let spend = traj.defense_spend_trajectory();
        assert_eq!(spend.len(), 3);
        assert_eq!(spend[0].retrained_members, 0);
        assert_eq!(spend[2].records_scanned, 900);
        assert_eq!(traj.total_defense_scans(), 1_400);
        assert_eq!(traj.total_records_evicted(), 280);
        assert_eq!(traj.peak_resident_records(), 1_000, "high-water mark");
        assert_eq!(TrajectoryReport::new().peak_resident_records(), 0);
        assert_eq!(traj.total_rule_churn(), 14, "5 + 9 rules added");
        assert_eq!(traj.pack_hash_trajectory(), vec![None; 3]);
    }

    #[test]
    fn trajectories_follow_rounds() {
        let mut traj = TrajectoryReport::new();
        for (i, recall) in [0.8, 0.6, 0.4, 0.3].iter().enumerate() {
            traj.push(round_stats(i as u32, *recall, 0.02, 500));
        }
        assert_eq!(
            traj.recall_trajectory("d", Cohort::BotService),
            vec![0.8, 0.6, 0.4, 0.3]
        );
        assert_eq!(traj.fpr_trajectory("d"), vec![0.02; 4]);
        assert!(traj.recall_trajectory("absent", Cohort::BotService) == vec![0.0; 4]);
    }

    #[test]
    fn half_life_interpolates_the_crossing_round() {
        let mut traj = TrajectoryReport::new();
        // 0.8 → 0.6 → 0.4: halves (0.4) exactly at round 2.
        for (i, recall) in [0.8, 0.6, 0.4].iter().enumerate() {
            traj.push(round_stats(i as u32, *recall, 0.0, 0));
        }
        let hl = traj.evasion_half_life("d", Cohort::BotService).unwrap();
        assert!((hl - 2.0).abs() < 1e-9, "half-life {hl}");

        // 0.8 → 0.2: crossing mid-round-0→1, target 0.4 is 2/3 of the way.
        let mut fast = TrajectoryReport::new();
        fast.push(round_stats(0, 0.8, 0.0, 0));
        fast.push(round_stats(1, 0.2, 0.0, 0));
        let hl = fast.evasion_half_life("d", Cohort::BotService).unwrap();
        assert!((hl - 2.0 / 3.0).abs() < 1e-9, "half-life {hl}");
    }

    #[test]
    fn half_life_none_when_detector_holds_or_never_caught() {
        let mut traj = TrajectoryReport::new();
        traj.push(round_stats(0, 0.8, 0.0, 0));
        traj.push(round_stats(1, 0.7, 0.0, 0));
        assert_eq!(traj.evasion_half_life("d", Cohort::BotService), None);

        let mut zero = TrajectoryReport::new();
        zero.push(round_stats(0, 0.0, 0.0, 0));
        zero.push(round_stats(1, 0.0, 0.0, 0));
        assert_eq!(zero.evasion_half_life("d", Cohort::BotService), None);
        assert_eq!(
            TrajectoryReport::new().evasion_half_life("d", Cohort::BotService),
            None
        );
    }

    #[test]
    fn mutation_cost_divides_by_evading_requests() {
        let mut traj = TrajectoryReport::new();
        // 1000 bots, recall 0.6 → 400 evading; 800 mutated attrs → 2.0.
        traj.push(round_stats(0, 0.6, 0.0, 800));
        let cost = traj.mutation_cost_per_evasion("d");
        assert!((cost[0] - 2.0).abs() < 1e-9, "cost {}", cost[0]);
        // Full recall → no evaders → cost reported as 0, not a division blowup.
        let mut full = TrajectoryReport::new();
        full.push(round_stats(0, 1.0, 0.0, 800));
        assert_eq!(full.mutation_cost_per_evasion("d"), vec![0.0]);
    }

    #[test]
    fn mutation_stats_absorb_sums_fields() {
        let mut a = MutationStats {
            adapted_requests: 1,
            mutated_attrs: 2,
            rotated_ips: 3,
            tls_upgrades: 4,
            cadence_humanised: 5,
        };
        a.absorb(MutationStats {
            adapted_requests: 10,
            mutated_attrs: 20,
            rotated_ips: 30,
            tls_upgrades: 40,
            cadence_humanised: 50,
        });
        assert_eq!(a.adapted_requests, 11);
        assert_eq!(a.mutated_attrs, 22);
        assert_eq!(a.rotated_ips, 33);
        assert_eq!(a.tls_upgrades, 44);
        assert_eq!(a.cadence_humanised, 55);
    }

    #[test]
    fn empty_stores_are_safe() {
        let store = RequestStore::new();
        let engine = engine_flagging("x");
        let (improvements, report) = evaluate(&store, &engine);
        assert!(improvements.is_empty());
        assert_eq!(report.none, (0.0, 0.0));
        assert_eq!(true_negative_rate(&store, &engine), 1.0);
    }
}
