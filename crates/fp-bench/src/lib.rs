//! Shared helpers for the regeneration binaries, the arena table and the
//! pipeline benchmark.
//!
//! Every table/figure binary follows the same recipe: generate the
//! campaign, run it through the honey site, compute one result, print it in
//! the paper's layout. This crate holds the shared plumbing.

use fp_botnet::{Campaign, CampaignConfig};
use fp_honeysite::{HoneySite, RequestStore};
use fp_types::{Scale, ServiceId};

/// Scale used by the regeneration binaries. Full scale reproduces the
/// paper's 507,080 requests; override with `FP_SCALE` (e.g. `FP_SCALE=0.1`)
/// for quicker runs.
pub fn bench_scale() -> Scale {
    env::scale_or(Scale::FULL)
}

/// Strict environment-variable parsing shared by the bench binaries.
///
/// Every knob has a pure `parse_*` function (testable, grammar-bearing
/// errors) and an `*_or` env wrapper that reads the variable, falls back
/// to the given default only when the variable is *absent*, and exits
/// with the accepted grammar on anything malformed — including values
/// that are not valid unicode, which `std::env::var` would silently
/// treat as absent.
pub mod env {
    use fp_types::{RetentionPolicy, Scale};

    /// Which series `bench_pipeline` runs (the `BENCH_SECTION` knob).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Section {
        /// Every series plus the record (the default).
        All,
        /// The serving-layer burst leg only, printed and asserted but
        /// never recorded — the CI smoke mode.
        Serve,
    }

    /// Parse a `BENCH_SECTION` value: `all` | `serve`.
    pub fn parse_section(v: &str) -> Result<Section, String> {
        match v {
            "all" => Ok(Section::All),
            "serve" => Ok(Section::Serve),
            _ => Err(format!("`{v}` is neither all nor serve")),
        }
    }

    /// Parse an `FP_SCALE` value: a fraction in `(0, 1]`.
    pub fn parse_scale(v: &str) -> Result<Scale, String> {
        let f: f64 = v.parse().map_err(|_| format!("`{v}` is not a number"))?;
        if f > 0.0 && f <= 1.0 {
            Ok(Scale::ratio(f))
        } else {
            Err(format!("`{v}` is outside (0, 1]"))
        }
    }

    /// Parse an `ARENA_ROUNDS` value: at least 2 rounds, because round 0
    /// is the pre-adaptation baseline and erosion needs one adapted round
    /// to measure.
    pub fn parse_rounds(v: &str) -> Result<u32, String> {
        match v.parse::<u32>() {
            Ok(n) if n >= 2 => Ok(n),
            Ok(n) => Err(format!("`{n}` rounds leave no adapted round to measure")),
            Err(_) => Err(format!("`{v}` is not a round count")),
        }
    }

    /// Parse an `ARENA_REMINE` value: a re-mining cadence in rounds,
    /// where `0` disables re-mining (`None`).
    pub fn parse_remine(v: &str) -> Result<Option<u32>, String> {
        let cadence: u32 = v.parse().map_err(|_| format!("`{v}` is not a cadence"))?;
        Ok((cadence > 0).then_some(cadence))
    }

    /// Parse an `ARENA_RETENTION` value:
    /// `keep` | `sliding:<epochs>` | `decay:<rate>:<floor>`.
    pub fn parse_retention(v: &str) -> Result<RetentionPolicy, String> {
        let parts: Vec<&str> = v.split(':').collect();
        match parts.as_slice() {
            ["keep"] => Ok(RetentionPolicy::KeepAll),
            ["sliding", epochs] => match epochs.parse::<u32>() {
                Ok(0) => Err("`sliding:0` would retain no window".into()),
                Ok(epochs) => Ok(RetentionPolicy::SlidingWindow { epochs }),
                Err(_) => Err(format!("`{epochs}` is not an epoch count")),
            },
            ["decay", rate, floor] => {
                let keep_rate: f64 = rate
                    .parse()
                    .map_err(|_| format!("`{rate}` is not a keep rate"))?;
                if !(0.0..=1.0).contains(&keep_rate) {
                    return Err(format!("keep rate `{rate}` is outside [0, 1]"));
                }
                let floor: usize = floor
                    .parse()
                    .map_err(|_| format!("`{floor}` is not a record floor"))?;
                Ok(RetentionPolicy::SampledDecay { keep_rate, floor })
            }
            _ => Err(format!("`{v}` matches none of the accepted forms")),
        }
    }

    /// `FP_SCALE`, or `default` when unset.
    pub fn scale_or(default: Scale) -> Scale {
        knob("FP_SCALE", "a fraction in (0, 1]", default, parse_scale)
    }

    /// `BENCH_SECTION`, or `default` when unset.
    pub fn section_or(default: Section) -> Section {
        knob("BENCH_SECTION", "all | serve", default, parse_section)
    }

    /// `ARENA_ROUNDS`, or `default` when unset.
    pub fn rounds_or(default: u32) -> u32 {
        knob(
            "ARENA_ROUNDS",
            "a round count of at least 2",
            default,
            parse_rounds,
        )
    }

    /// `ARENA_REMINE`, or `default` when unset.
    pub fn remine_or(default: Option<u32>) -> Option<u32> {
        knob(
            "ARENA_REMINE",
            "a cadence in rounds (0 = re-mining off)",
            default,
            parse_remine,
        )
    }

    /// `ARENA_RETENTION`, or `default` when unset.
    pub fn retention_or(default: RetentionPolicy) -> RetentionPolicy {
        knob(
            "ARENA_RETENTION",
            "keep | sliding:<epochs> | decay:<rate>:<floor>",
            default,
            parse_retention,
        )
    }

    /// Read one env knob: absent → `default`; present (even as non-unicode
    /// bytes) but malformed → exit 2 with the accepted grammar. A silent
    /// fall-through to the default on a typo would quietly bench the wrong
    /// configuration — the one failure mode a reproduction can't afford.
    fn knob<T>(
        name: &str,
        grammar: &str,
        default: T,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> T {
        let Some(raw) = std::env::var_os(name) else {
            return default;
        };
        let parsed = raw
            .to_str()
            .ok_or_else(|| "not valid unicode".to_string())
            .and_then(parse);
        match parsed {
            Ok(v) => v,
            Err(why) => {
                eprintln!("error: {name} is set but malformed: {why}");
                eprintln!("accepted: {name}=<{grammar}>");
                std::process::exit(2);
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn scale_grammar() {
            assert_eq!(parse_scale("0.02").unwrap().fraction(), 0.02);
            assert_eq!(parse_scale("1").unwrap(), Scale::FULL);
            assert!(parse_scale("0").unwrap_err().contains("(0, 1]"));
            assert!(parse_scale("1.5").unwrap_err().contains("(0, 1]"));
            assert!(parse_scale("fast").unwrap_err().contains("not a number"));
        }

        #[test]
        fn rounds_grammar() {
            assert_eq!(parse_rounds("4"), Ok(4));
            assert_eq!(parse_rounds("2"), Ok(2));
            assert!(parse_rounds("1").is_err(), "round 0 alone adapts nothing");
            assert!(parse_rounds("0").is_err());
            assert!(parse_rounds("-1").is_err());
            assert!(parse_rounds("five").is_err());
        }

        #[test]
        fn remine_grammar() {
            assert_eq!(parse_remine("0"), Ok(None));
            assert_eq!(parse_remine("2"), Ok(Some(2)));
            assert!(parse_remine("every-round").is_err());
            assert!(parse_remine("-1").is_err());
        }

        #[test]
        fn section_grammar() {
            assert_eq!(parse_section("all"), Ok(Section::All));
            assert_eq!(parse_section("serve"), Ok(Section::Serve));
            assert!(parse_section("steady").is_err());
            assert!(parse_section("").is_err());
        }

        #[test]
        fn retention_grammar() {
            assert_eq!(parse_retention("keep"), Ok(RetentionPolicy::KeepAll));
            assert_eq!(
                parse_retention("sliding:3"),
                Ok(RetentionPolicy::SlidingWindow { epochs: 3 })
            );
            assert_eq!(
                parse_retention("decay:0.5:100"),
                Ok(RetentionPolicy::SampledDecay {
                    keep_rate: 0.5,
                    floor: 100
                })
            );
            assert!(parse_retention("sliding:0").is_err());
            assert!(parse_retention("sliding:lots").is_err());
            assert!(parse_retention("decay:2:100").is_err(), "rate > 1");
            assert!(parse_retention("decay:0.5").is_err(), "missing floor");
            assert!(parse_retention("lru").is_err());
            assert!(parse_retention("").is_err());
        }
    }
}

/// The campaign seed shared by every binary (so tables and figures come
/// from the same dataset, like the paper's).
pub const CAMPAIGN_SEED: u64 = 0xF91C0DE;

/// Generate the campaign and run the full honey-site pipeline, returning
/// the campaign (for design ground truth) and the recorded store
/// (bot traffic + real users).
pub fn recorded_campaign(scale: Scale) -> (Campaign, RequestStore) {
    let campaign = Campaign::generate(CampaignConfig {
        scale,
        seed: CAMPAIGN_SEED,
    });
    let mut site = honey_site_for(&campaign);
    site.ingest_all(campaign.bot_requests.iter().cloned());
    site.ingest_all(campaign.real_users.iter().map(|r| r.request.clone()));
    let store = site.into_store();
    (campaign, store)
}

/// A fresh honey site with the campaign's tokens registered (services,
/// real users, and the two agent cohorts — registering a token is free;
/// only ingested traffic is recorded).
pub fn honey_site_for(campaign: &Campaign) -> HoneySite {
    let mut site = HoneySite::new();
    for id in ServiceId::all() {
        site.register_token(campaign.token_of(id));
    }
    site.register_token(campaign.real_user_token());
    site.register_token(campaign.ai_agent_token());
    site.register_token(campaign.tls_laggard_token());
    site
}

/// The campaign's full arrival-ordered request stream (bots + real users),
/// as the streaming pipeline consumes it. The paper-faithful stream: the
/// agent cohorts are *not* included, so every table/figure regeneration
/// measures exactly the paper's traffic.
pub fn campaign_stream(campaign: &Campaign) -> Vec<fp_types::Request> {
    campaign
        .bot_requests
        .iter()
        .cloned()
        .chain(campaign.real_users.iter().map(|r| r.request.clone()))
        .collect()
}

/// The extended stream: the paper's traffic plus the AI-agent and
/// TLS-lagging cohorts — what the cohort-split evaluation consumes.
pub fn cohort_stream(campaign: &Campaign) -> Vec<fp_types::Request> {
    let mut stream = campaign_stream(campaign);
    stream.extend(campaign.ai_agents.iter().cloned());
    stream.extend(campaign.tls_laggards.iter().cloned());
    stream
}

/// Generate the campaign and run the *extended* stream (bots, real users,
/// both agent cohorts) through the honey site with FP-Inconsistent's
/// detectors inline, so every record carries all seven named
/// verdicts. Rules are mined on a first paper-traffic pass (the
/// deployment setting: mine offline, deploy online).
pub fn recorded_cohort_campaign(scale: Scale) -> (Campaign, RequestStore) {
    use fp_inconsistent_core::{FpInconsistent, MineConfig};

    let campaign = Campaign::generate(CampaignConfig {
        scale,
        seed: CAMPAIGN_SEED,
    });
    let mut mine_site = honey_site_for(&campaign);
    mine_site.ingest_all(campaign_stream(&campaign));
    let engine = FpInconsistent::mine(&mine_site.into_store(), &MineConfig::default());

    let mut site = honey_site_for(&campaign);
    for detector in engine.detectors() {
        site.push_detector(detector);
    }
    site.ingest_all(cohort_stream(&campaign));
    let store = site.into_store();
    (campaign, store)
}

/// Per-provenance comparison of the sharded streaming pipeline against the
/// batch path (sequential ingest + whole-store `FpInconsistent` passes).
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamReport {
    /// Requests compared.
    pub requests: usize,
    /// Shard count the streaming run used.
    pub shards: usize,
    /// Per-request mismatches per provenance.
    pub datadome_mismatches: usize,
    pub botd_mismatches: usize,
    pub spatial_mismatches: usize,
    pub temporal_mismatches: usize,
}

impl StreamReport {
    /// Flag-for-flag identical?
    pub fn identical(&self) -> bool {
        self.datadome_mismatches == 0
            && self.botd_mismatches == 0
            && self.spatial_mismatches == 0
            && self.temporal_mismatches == 0
    }
}

/// Run the same campaign through both paths and compare every verdict.
///
/// Batch path: sequential `ingest_all`, then rules mined from the store and
/// `FpInconsistent::flags` over it. Streaming path: rules pre-mined (the
/// deployment setting), FP-Inconsistent's detectors appended to the
/// honey site's chain, one sharded `ingest_stream` pass producing all seven
/// verdicts per request online.
pub fn stream_report(scale: Scale, shards: usize) -> StreamReport {
    use fp_inconsistent_core::{FpInconsistent, MineConfig};
    use fp_types::detect::provenance;

    let campaign = Campaign::generate(CampaignConfig {
        scale,
        seed: CAMPAIGN_SEED,
    });
    let stream = campaign_stream(&campaign);

    // Batch path.
    let mut batch_site = honey_site_for(&campaign);
    batch_site.ingest_all(stream.iter().cloned());
    let batch_store = batch_site.into_store();
    let engine = FpInconsistent::mine(&batch_store, &MineConfig::default());
    let batch_flags = engine.flags(&batch_store);

    // Streaming path: same chain + FP-Inconsistent inline.
    let mut stream_site = honey_site_for(&campaign);
    for detector in engine.detectors() {
        stream_site.push_detector(detector);
    }
    stream_site.ingest_stream(stream, shards);
    let stream_store = stream_site.into_store();

    let mut report = StreamReport {
        requests: batch_store.len(),
        shards,
        ..Default::default()
    };
    // Whole-store loop: read verdicts by interned symbol (an integer
    // compare per entry) — string-name reads would take the interner lock
    // once per verdict per record.
    let dd = provenance::datadome_sym();
    let botd = provenance::botd_sym();
    let spatial_sym = fp_types::sym(provenance::FP_SPATIAL);
    let cookie_sym = fp_types::sym(provenance::FP_TEMPORAL_COOKIE);
    let ip_sym = fp_types::sym(provenance::FP_TEMPORAL_IP);
    for ((batch, streamed), (spatial, temporal)) in
        batch_store.iter().zip(stream_store.iter()).zip(batch_flags)
    {
        let v = &streamed.verdicts;
        report.datadome_mismatches += usize::from(batch.verdicts.bot_sym(dd) != v.bot_sym(dd));
        report.botd_mismatches += usize::from(batch.verdicts.bot_sym(botd) != v.bot_sym(botd));
        report.spatial_mismatches += usize::from(spatial != v.bot_sym(spatial_sym));
        let streamed_temporal = v.bot_sym(cookie_sym) || v.bot_sym(ip_sym);
        report.temporal_mismatches += usize::from(temporal != streamed_temporal);
    }
    report
}

/// Format a fraction as the paper prints percentages.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Print a standard bench header.
pub fn header(what: &str, paper: &str) {
    println!("================================================================");
    println!("{what}");
    println!("paper reference: {paper}");
    println!("================================================================");
}

/// A trained evasion model for one detector (§5.2.1).
pub struct EvasionModel {
    pub schema: fp_ml::FeatureSchema,
    pub model: fp_ml::Gbdt,
    pub train_accuracy: f64,
    pub test_accuracy: f64,
    pub train_matrix: fp_ml::Matrix,
}

/// Train the detected-vs-evaded classifier for one detector over the bot
/// traffic in `store` (90/10 split like the paper). `labels_of` maps a
/// stored request to the 0/1 label (1 = evaded). Rows are capped at
/// `row_cap` for tractability; the paper-table models exclude the TLS
/// extension attributes.
pub fn train_evasion_model(
    store: &RequestStore,
    label_of: impl Fn(&fp_honeysite::StoredRequest) -> bool,
    row_cap: usize,
) -> EvasionModel {
    let bots: Vec<&fp_honeysite::StoredRequest> =
        store.iter().filter(|r| r.source.is_bot()).collect();
    let step = (bots.len() / row_cap.max(1)).max(1);
    let sample: Vec<&fp_honeysite::StoredRequest> = bots.iter().step_by(step).copied().collect();

    // Paper-faithful feature set: FingerprintJS + headers. The TLS digests
    // are this repo's extension, and the unmasked WebGL strings are a
    // FingerprintJS-Pro attribute the paper's OSS collector lacks.
    let mut schema = fp_ml::FeatureSchema::induce(sample.iter().map(|r| &r.fingerprint));
    schema.retain_attrs(|a| {
        !matches!(
            a,
            fp_types::AttrId::Ja3
                | fp_types::AttrId::Ja4
                | fp_types::AttrId::WebGlVendor
                | fp_types::AttrId::WebGlRenderer
        )
    });

    let labels: Vec<f64> = sample
        .iter()
        .map(|r| f64::from(u8::from(label_of(r))))
        .collect();
    let matrix = schema.encode_all(sample.iter().map(|r| &r.fingerprint));

    let (train_idx, test_idx) = fp_ml::gbdt::train_test_split(matrix.rows, 0.1, 90);
    let m_train = fp_ml::gbdt::select(&matrix, &train_idx);
    let y_train: Vec<f64> = train_idx.iter().map(|&i| labels[i]).collect();
    let m_test = fp_ml::gbdt::select(&matrix, &test_idx);
    let y_test: Vec<f64> = test_idx.iter().map(|&i| labels[i]).collect();

    let model = fp_ml::Gbdt::train(&m_train, &y_train, fp_ml::GbdtParams::default());
    let train_accuracy = model.accuracy(&m_train, &y_train);
    let test_accuracy = model.accuracy(&m_test, &y_test);
    EvasionModel {
        schema,
        model,
        train_accuracy,
        test_accuracy,
        train_matrix: m_train,
    }
}
