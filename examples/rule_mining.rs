//! FP-Inconsistent's rule mining, inspected step by step: the Algorithm 1
//! pipeline, the mined filter list (the artifact the paper open-sources),
//! round-tripping it through the text format, and deploying it against
//! fresh traffic.
//!
//! ```sh
//! cargo run --release --example rule_mining
//! ```

use fp_inconsistent::core::evaluate;
use fp_inconsistent::core::CATEGORIES;
use fp_inconsistent::prelude::*;

fn record(campaign: &Campaign) -> RequestStore {
    let mut site = HoneySite::new();
    for id in ServiceId::all() {
        site.register_token(campaign.token_of(id));
    }
    site.ingest_all(campaign.bot_requests.iter().cloned());
    site.into_store()
}

fn main() {
    let store = record(&Campaign::generate(CampaignConfig {
        scale: Scale::ratio(0.05),
        seed: 11,
    }));

    // The category structure bounds the pair search (Table 7).
    println!("attribute categories:");
    for c in CATEGORIES.iter().filter(|c| c.in_paper) {
        println!(
            "  {:<10} {} attributes, {} pairs",
            c.name,
            c.attrs.len(),
            c.pairs().len()
        );
    }

    // Mine with the default config (undetected pool, min support 3).
    let engine = FpInconsistent::mine(&store, &MineConfig::default());
    println!("\nmined {} rules", engine.rules().len());

    // The filter list is plain text: write it, read it back, same rules.
    let text = engine.rules().to_filter_list();
    let reparsed = RuleSet::from_filter_list(&text).expect("own output parses");
    assert_eq!(reparsed.len(), engine.rules().len());
    println!(
        "filter list round-trips through its text format ({} bytes)",
        text.len()
    );

    // Deploy the parsed list on *fresh* traffic from the same services —
    // the §7.3 generalisation story.
    let fresh = record(&Campaign::generate(CampaignConfig {
        scale: Scale::ratio(0.02),
        seed: 999,
    }));
    let deployed = FpInconsistent::from_rules(reparsed);
    let (_, report) = evaluate::evaluate(&fresh, &deployed);
    println!(
        "\non unseen traffic: DataDome {:.2}% -> {:.2}%, BotD {:.2}% -> {:.2}%",
        report.none.0 * 100.0,
        report.combined.0 * 100.0,
        report.none.1 * 100.0,
        report.combined.1 * 100.0
    );

    // What does a rule look like?
    println!("\nexample rules:");
    for rule in engine.rules().iter().take(6) {
        println!("  {rule}");
    }
}
