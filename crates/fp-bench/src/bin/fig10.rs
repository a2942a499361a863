//! Regenerates **Figure 10**: distribution of `navigator.platform` across
//! requests sharing the single most-seen cookie (paper: Win32 ≈ 38%,
//! MacIntel, iPhone, Linux armv7l, … — a device whose platform "changes"
//! dozens of times).

use fp_bench::{bench_scale, header, pct, recorded_campaign};
use fp_types::AttrId;
use std::collections::HashMap;

fn main() {
    let (_, store) = recorded_campaign(bench_scale());
    header(
        "Figure 10: platform values on the most-requested cookie",
        "Figure 10 — Win32 38%, MacIntel 17%, iPhone 14%, Linux armv7l 10%, …",
    );

    let (cookie, count) = store.top_cookie().expect("store not empty");
    println!("top cookie: {cookie:#018x} with {count} requests\n");

    let mut platforms: HashMap<&str, u64> = HashMap::new();
    for r in store.with_cookie(cookie) {
        if let Some(p) = r.fingerprint.get(AttrId::Platform).as_str() {
            *platforms.entry(p).or_default() += 1;
        }
    }
    let total: u64 = platforms.values().sum();
    let mut rows: Vec<(&str, u64)> = platforms.into_iter().collect();
    // Ties in request count print in platform order, not hash order.
    rows.sort_by_key(|&(platform, n)| (std::cmp::Reverse(n), platform));
    println!("{:<18} {:>9} {:>9}", "Platform", "Requests", "Share");
    for (platform, n) in &rows {
        let bar = "#".repeat((*n as f64 / total.max(1) as f64 * 80.0) as usize);
        println!(
            "{platform:<18} {n:>9} {:>9} {bar}",
            pct(*n as f64 / total.max(1) as f64)
        );
    }
    println!(
        "\n{} distinct platform values on one device — \"it cannot change otherwise for the same device\" (§6.3)",
        rows.len()
    );
}
