//! The `fpinc` command line, end to end: `generate`, `mine` and `apply`
//! on a 1%-scale campaign agree with the library calls they wrap, and bad
//! input exits non-zero with a message.

use fp_inconsistent::core::evaluate;
use fp_inconsistent::prelude::*;
use std::path::PathBuf;
use std::process::{Command, Output};

fn fpinc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fpinc"))
        .args(args)
        .output()
        .expect("fpinc starts")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "fpinc failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

fn fails_with(out: &Output, message: &str) {
    assert!(!out.status.success(), "fpinc should have failed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(message),
        "stderr {stderr:?} lacks {message:?}"
    );
}

/// A path under Cargo's temporary directory for tests, unique to this process.
fn tmp_path(name: &str) -> PathBuf {
    let file = format!("fpinc-{}-{name}", std::process::id());
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file)
}

#[test]
fn generate_mine_apply_match_the_library() {
    let data = tmp_path("campaign.jsonl");
    let rules_path = tmp_path("rules.txt");
    let (data_arg, rules_arg) = (data.to_str().unwrap(), rules_path.to_str().unwrap());

    let generated = stdout(&fpinc(&[
        "generate", "--scale", "0.01", "--seed", "42", "--out", data_arg,
    ]));
    assert!(generated.starts_with("wrote 5104 requests"), "{generated}");
    let text = std::fs::read_to_string(&data).unwrap();
    assert_eq!(text.lines().count(), 5104);
    let store = RequestStore::read_jsonl(text.as_bytes()).unwrap();

    stdout(&fpinc(&["mine", "--data", data_arg, "--out", rules_arg]));
    let list = std::fs::read_to_string(&rules_path).unwrap();
    let parsed = RuleSet::from_filter_list(&list).unwrap();
    let mined = FpInconsistent::mine(&store, &MineConfig::default());
    assert_eq!(parsed.content_hash(), mined.rules().content_hash());

    let applied = stdout(&fpinc(&["apply", "--data", data_arg, "--rules", rules_arg]));
    let (_, report) = evaluate::evaluate(&store, &FpInconsistent::from_rules(parsed));
    let datadome = format!(
        "detection (DataDome): {:.2}% -> {:.2}%",
        report.none.0 * 100.0,
        report.combined.0 * 100.0
    );
    assert_eq!(applied.lines().next(), Some(datadome.as_str()));

    std::fs::remove_file(data).unwrap();
    std::fs::remove_file(rules_path).unwrap();
}

#[test]
fn apply_requires_a_filter_list() {
    fails_with(
        &fpinc(&["apply", "--data", "campaign.jsonl"]),
        "--rules is required",
    );
}

#[test]
fn generate_rejects_a_scale_above_one() {
    let out = tmp_path("never-written.jsonl");
    fails_with(
        &fpinc(&["generate", "--scale", "2", "--out", out.to_str().unwrap()]),
        "--scale must be in (0, 1], got 2",
    );
    assert!(!out.exists());
}

/// A misspelled option fails instead of being ignored.
#[test]
fn generate_rejects_an_unknown_option() {
    let out = tmp_path("misspelled.jsonl");
    fails_with(
        &fpinc(&[
            "generate",
            "--scale",
            "0.005",
            "--sede",
            "7",
            "--out",
            out.to_str().unwrap(),
        ]),
        "unknown option --sede",
    );
    assert!(!out.exists());
}

/// The usage gives the default seed in hex; passing it that way must
/// write exactly the default campaign.
#[test]
fn a_hex_seed_reads_as_its_value() {
    let hex = tmp_path("hex-seed.jsonl");
    let default = tmp_path("default-seed.jsonl");
    stdout(&fpinc(&[
        "generate",
        "--scale",
        "0.005",
        "--seed",
        "0xF91C0DE",
        "--out",
        hex.to_str().unwrap(),
    ]));
    stdout(&fpinc(&[
        "generate",
        "--scale",
        "0.005",
        "--out",
        default.to_str().unwrap(),
    ]));
    assert_eq!(
        std::fs::read(&hex).unwrap(),
        std::fs::read(&default).unwrap()
    );
    std::fs::remove_file(hex).unwrap();
    std::fs::remove_file(default).unwrap();
}
