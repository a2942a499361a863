//! `fpinc` — the FP-Inconsistent command line.
//!
//! ```text
//! fpinc generate --scale 0.05 --seed 42 --out campaign.jsonl
//! fpinc mine     --data campaign.jsonl --out rules.txt
//! fpinc apply    --data campaign.jsonl --rules rules.txt
//! fpinc report   --scale 0.05
//! ```
//!
//! `generate` replays the measurement campaign through the honey site and
//! writes the recorded dataset (IPs hashed) as JSON lines. `mine` runs
//! Algorithm 1 over a dataset and writes the filter list. `apply` loads a
//! filter list and reports the detection improvement on a dataset.
//! `report` prints the headline tables in one go.

use fp_inconsistent::core::evaluate;
use fp_inconsistent::honeysite::stats;
use fp_inconsistent::prelude::*;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

/// A command's handler over its parsed `--key value` options.
type Command = fn(&HashMap<String, String>) -> Result<(), String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // Each command names the option keys it takes; any other key fails.
    let (keys, run): (&[&str], Command) = match command.as_str() {
        "generate" => (&["scale", "seed", "out"], cmd_generate),
        "mine" => (&["data", "out"], cmd_mine),
        "apply" => (&["data", "rules"], cmd_apply),
        "report" => (&["scale", "seed"], cmd_report),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: unknown command {other:?}");
            return ExitCode::FAILURE;
        }
    };
    let opts = match parse_opts(&args[1..], keys) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "fpinc — FP-Inconsistent reproduction CLI

USAGE:
  fpinc generate [--scale F] [--seed N] --out FILE    write a recorded campaign (JSON lines)
  fpinc mine     --data FILE --out FILE               mine a filter list from a dataset
  fpinc apply    --data FILE --rules FILE             apply a filter list, report improvement
  fpinc report   [--scale F] [--seed N]               print the headline tables

OPTIONS:
  --scale F    campaign volume as a fraction of the paper's 507,080 (default 0.05)
  --seed N     campaign seed, decimal or 0x hex (default 0xF91C0DE)
  --data FILE  dataset produced by `fpinc generate`
  --rules FILE filter list produced by `fpinc mine`
  --out FILE   output path";

fn parse_opts(args: &[String], keys: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
        if !keys.contains(&key) {
            return Err(format!("unknown option --{key}"));
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        opts.insert(key.to_owned(), value.clone());
    }
    Ok(opts)
}

fn scale_of(opts: &HashMap<String, String>) -> Result<Scale, String> {
    match opts.get("scale") {
        None => Ok(Scale::ratio(0.05)),
        Some(s) => {
            let f: f64 = s.parse().map_err(|_| format!("bad --scale {s:?}"))?;
            if f > 0.0 && f <= 1.0 {
                Ok(Scale::ratio(f))
            } else {
                Err(format!("--scale must be in (0, 1], got {f}"))
            }
        }
    }
}

fn seed_of(opts: &HashMap<String, String>) -> Result<u64, String> {
    match opts.get("seed") {
        None => Ok(0xF91C0DE),
        Some(s) => match s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => s.parse(),
        }
        .map_err(|_| format!("bad --seed {s:?}")),
    }
}

fn record(scale: Scale, seed: u64) -> RequestStore {
    let campaign = Campaign::generate(CampaignConfig { scale, seed });
    let mut site = HoneySite::new();
    for id in ServiceId::all() {
        site.register_token(campaign.token_of(id));
    }
    site.register_token(campaign.real_user_token());
    site.ingest_all(campaign.bot_requests.iter().cloned());
    site.ingest_all(campaign.real_users.iter().map(|r| r.request.clone()));
    site.into_store()
}

fn load(opts: &HashMap<String, String>) -> Result<RequestStore, String> {
    let path = opts.get("data").ok_or("--data is required")?;
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    RequestStore::read_jsonl(BufReader::new(file)).map_err(|e| format!("parse {path}: {e}"))
}

fn cmd_generate(opts: &HashMap<String, String>) -> Result<(), String> {
    let out = opts.get("out").ok_or("--out is required")?;
    let store = record(scale_of(opts)?, seed_of(opts)?);
    let file = std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    store
        .write_jsonl(BufWriter::new(file))
        .map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {} requests to {out}", store.len());
    Ok(())
}

fn cmd_mine(opts: &HashMap<String, String>) -> Result<(), String> {
    let out = opts.get("out").ok_or("--out is required")?;
    let store = load(opts)?;
    let engine = FpInconsistent::mine(&store, &MineConfig::default());
    std::fs::write(out, engine.rules().to_filter_list())
        .map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "mined {} rules from {} requests -> {out}",
        engine.rules().len(),
        store.len()
    );
    Ok(())
}

fn cmd_apply(opts: &HashMap<String, String>) -> Result<(), String> {
    let rules_path = opts.get("rules").ok_or("--rules is required")?;
    let store = load(opts)?;
    let text =
        std::fs::read_to_string(rules_path).map_err(|e| format!("read {rules_path}: {e}"))?;
    let rules = RuleSet::from_filter_list(&text)?;
    let engine = FpInconsistent::from_rules(rules);
    let (_, report) = evaluate::evaluate(&store, &engine);
    let tnr = evaluate::true_negative_rate(&store, &engine);
    println!(
        "detection (DataDome): {:.2}% -> {:.2}%",
        report.none.0 * 100.0,
        report.combined.0 * 100.0
    );
    println!(
        "detection (BotD):     {:.2}% -> {:.2}%",
        report.none.1 * 100.0,
        report.combined.1 * 100.0
    );
    println!("real-user TNR:        {:.2}%", tnr * 100.0);
    Ok(())
}

fn cmd_report(opts: &HashMap<String, String>) -> Result<(), String> {
    let store = record(scale_of(opts)?, seed_of(opts)?);
    let engine = FpInconsistent::mine(&store, &MineConfig::default());
    let (improvements, report) = evaluate::evaluate(&store, &engine);

    println!("== Table 1 / Table 3 ==");
    println!(
        "{:<5} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "Svc", "Requests", "DD", "DD+FPI", "BotD", "BotD+FPI"
    );
    for s in &improvements {
        println!(
            "{:<5} {:>8} {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}%",
            s.id.name(),
            s.requests,
            s.dd_detection * 100.0,
            s.dd_post_detection * 100.0,
            s.botd_detection * 100.0,
            s.botd_post_detection * 100.0
        );
    }

    let (dd, botd) = stats::overall_evasion(&store);
    println!("\n== Headlines ==");
    println!(
        "evasion: DataDome {:.2}% (paper 44.56%), BotD {:.2}% (paper 52.93%)",
        dd * 100.0,
        botd * 100.0
    );
    let (dd_red, botd_red) = report.evasion_reduction();
    println!(
        "reduction with FP-Inconsistent: DataDome {:.2}% (48.11%), BotD {:.2}% (44.95%)",
        dd_red * 100.0,
        botd_red * 100.0
    );
    println!("rules mined: {}", engine.rules().len());
    println!(
        "real-user TNR: {:.2}% (96.84%)",
        evaluate::true_negative_rate(&store, &engine) * 100.0
    );
    Ok(())
}
