//! `lego_cli` argument handling: a value that does not parse is an error
//! that names the flag and the value, reported before any campaign starts,
//! never a silent fall-back to the default.

use lego_baselines::ENGINE_NAMES;
use std::process::{Command, Output};

/// Run `lego_cli` with `args`, isolated from the environment switches it
/// reads.
fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lego_cli"))
        .args(args)
        .env_remove("LEGO_TELEMETRY")
        .env_remove("LEGO_WAL_DIR")
        .env_remove("LEGO_SERVE")
        .env_remove("LEGO_TRACE")
        .env_remove("LEGO_PLANT_FAULT")
        .output()
        .expect("run lego_cli")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Exit status 2, the error on stderr naming `needles`, and no campaign.
fn assert_refused(out: &Output, needles: &[&str]) {
    let err = stderr(out);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    for needle in needles {
        assert!(err.contains(needle), "stderr should name {needle:?}: {err}");
    }
    assert!(!stdout(out).contains("fuzzing"), "a campaign started: {}", stdout(out));
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn unparsable_numeric_values_are_refused() {
    for (flag, value) in [
        ("--units", "3e3"),
        ("--units", "-5"),
        ("--seed", "0x5eedz"),
        ("--seed", "seven"),
        ("--checkpoint-every", "1k"),
        ("--plot-every", "fast"),
    ] {
        assert_refused(&cli(&["fuzz", "pg", flag, value]), &[flag, value]);
    }
}

#[test]
fn a_flag_without_its_value_is_refused() {
    for flag in ["--units", "--seed", "--checkpoint-every", "--plot-every", "--fuzzer"] {
        assert_refused(&cli(&["fuzz", "pg", flag]), &[flag, "needs a value"]);
    }
}

#[test]
fn an_unknown_fuzzer_is_refused_with_the_known_names() {
    let out = cli(&["fuzz", "pg", "--fuzzer", "AFL"]);
    let mut needles = vec!["--fuzzer", "AFL"];
    needles.extend(ENGINE_NAMES);
    assert_refused(&out, &needles);
}

#[test]
fn every_known_fuzzer_runs() {
    for name in ENGINE_NAMES {
        let out = cli(&["fuzz", "pg", "--fuzzer", name, "--units", "200"]);
        assert!(out.status.success(), "{name}: {}", stderr(&out));
        assert!(stdout(&out).contains(&format!("with {name} for 200 units")), "{}", stdout(&out));
    }
}

#[test]
fn a_hex_seed_is_the_same_campaign_as_its_decimal_form() {
    let hex = cli(&["fuzz", "pg", "--units", "2000", "--seed", "0x5eed"]);
    let dec = cli(&["fuzz", "pg", "--units", "2000", "--seed", "24301"]);
    assert!(hex.status.success() && dec.status.success(), "{}{}", stderr(&hex), stderr(&dec));
    assert!(stdout(&hex).contains("(seed 24301)"), "{}", stdout(&hex));
    assert_eq!(stdout(&hex), stdout(&dec));
}

#[test]
fn reduce_reports_an_unreadable_file() {
    let path = std::env::temp_dir()
        .join(format!("lego_cli_args_missing_{}.sql", std::process::id()))
        .display()
        .to_string();
    let out = cli(&["reduce", "pg", &path]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains(&path) && !err.contains("panicked"), "{err}");
}
