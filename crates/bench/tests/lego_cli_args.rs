//! Argument handling of `lego_cli` and of the experiment binaries: a value
//! that is missing or does not parse, and a flag or positional argument the
//! binary does not read, is an error that names the argument, reported
//! before any campaign starts, never a silent fall-back to the default or a
//! silently ignored argument.

use lego_baselines::ENGINE_NAMES;
use std::process::{Command, Output};

/// Run the binary at `bin` with `args`, isolated from the environment
/// switches the binaries read.
fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env_remove("LEGO_TELEMETRY")
        .env_remove("LEGO_WAL_DIR")
        .env_remove("LEGO_SERVE")
        .env_remove("LEGO_TRACE")
        .env_remove("LEGO_PLANT_FAULT")
        .env_remove("LEGO_WORKERS")
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"))
}

fn cli(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_lego_cli"), args)
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Exit status 2, the error on stderr naming `needles`, and no campaign
/// (nothing on stdout).
fn assert_refused(out: &Output, needles: &[&str]) {
    let err = stderr(out);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    for needle in needles {
        assert!(err.contains(needle), "stderr should name {needle:?}: {err}");
    }
    assert!(stdout(out).is_empty(), "a campaign started: {}", stdout(out));
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
        ("--checkpoint-every", "0"),
        ("--plot-every", "fast"),
    ] {
        assert_refused(&cli(&["fuzz", "pg", flag, value]), &[flag, value]);
    }
}

#[test]
fn a_flag_without_its_value_is_refused() {
    for flag in [
        "--units",
        "--seed",
        "--checkpoint-every",
        "--plot-every",
        "--fuzzer",
        "--out",
        "--corpus",
        "--telemetry",
        "--serve",
        "--trace",
        "--plot-data",
        "--checkpoint",
        "--resume",
        "--wal-dir",
    ] {
        assert_refused(&cli(&["fuzz", "pg", "--units", "2000", flag]), &[flag, "needs a value"]);
        // Another flag where the value belongs is not the value.
        assert_refused(&cli(&["fuzz", "pg", flag, "--sema"]), &[flag, "needs a value"]);
    }
}

#[test]
fn experiment_binaries_refuse_values_that_do_not_parse() {
    let fig9 = env!("CARGO_BIN_EXE_fig9_coverage");
    let table4 = env!("CARGO_BIN_EXE_table4_ablation");
    let rows: [(&str, &[&str], &[&str]); 6] = [
        (fig9, &["3e3", "--workers", "abc"], &["--workers", "abc"]),
        (fig9, &["2000", "--workers=0"], &["--workers", "0"]),
        (fig9, &["2000", "--plot-every", "fast"], &["--plot-every", "fast"]),
        (fig9, &["2000", "--workers"], &["--workers", "needs a value"]),
        (fig9, &["3e3"], &["UNITS", "3e3"]),
        (table4, &["2000", "two"], &["SEEDS", "two"]),
    ];
    for (bin, args, needles) in rows {
        assert_refused(&run(bin, args), needles);
    }
}

#[test]
fn arguments_a_binary_does_not_read_are_refused() {
    let fig9 = env!("CARGO_BIN_EXE_fig9_coverage");
    let table1 = env!("CARGO_BIN_EXE_table1_bugs");
    let table2 = env!("CARGO_BIN_EXE_table2_affinities");
    let table4 = env!("CARGO_BIN_EXE_table4_ablation");
    let throughput = env!("CARGO_BIN_EXE_bench_throughput");
    let lego_cli = env!("CARGO_BIN_EXE_lego_cli");
    let rows: [(&str, &[&str], &str); 9] = [
        // A flag the binary does not read.
        (fig9, &["2000", "--sema"], "--sema"),
        (table2, &["2000", "--oracles"], "--oracles"),
        (table1, &["2000", "1", "--rule-cov"], "--rule-cov"),
        (table4, &["2000", "1", "--oracles"], "--oracles"),
        (throughput, &["2000", "--serve", "127.0.0.1:0"], "--serve"),
        (lego_cli, &["fuzz", "pg", "--workers", "2"], "--workers"),
        (lego_cli, &["replay", "pg", "x.sql", "--oracles"], "--oracles"),
        // A misspelt flag.
        (table4, &["2000", "1", "--rule-cv"], "--rule-cv"),
        // One positional argument too many.
        (fig9, &["2000", "7"], "7"),
    ];
    for (bin, args, needle) in rows {
        assert_refused(&run(bin, args), &[needle]);
    }
}

#[test]
fn a_corpus_directory_that_cannot_be_read_is_an_error() {
    let dir = std::env::temp_dir()
        .join(format!("lego_cli_args_no_corpus_{}", std::process::id()))
        .display()
        .to_string();
    let out = cli(&["fuzz", "pg", "--units", "200", "--corpus", &dir]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains(&dir) && !err.contains("panicked"), "{err}");
}

#[test]
fn an_output_path_that_cannot_be_a_directory_is_an_error_before_the_campaign() {
    let file = std::env::temp_dir().join(format!("lego_cli_args_out_file_{}", std::process::id()));
    std::fs::write(&file, "not a directory").expect("write the blocking file");
    let path = file.display().to_string();
    let out = cli(&["fuzz", "pg", "--units", "200", "--out", &path]);
    let _ = std::fs::remove_file(&file);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains(&path) && !err.contains("panicked"), "{err}");
    assert!(stdout(&out).is_empty(), "a campaign started: {}", stdout(&out));
}

#[test]
fn a_report_that_cannot_be_written_is_an_error() {
    // A directory where `campaign.json` should go makes the write fail.
    let dir =
        std::env::temp_dir().join(format!("lego_cli_args_out_blocked_{}", std::process::id()));
    std::fs::create_dir_all(dir.join("campaign.json")).expect("create the blocking directory");
    let out = cli(&["fuzz", "pg", "--units", "200", "--out", &dir.display().to_string()]);
    let _ = std::fs::remove_dir_all(&dir);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains("campaign.json") && !err.contains("panicked"), "{err}");
}

#[test]
fn an_empty_output_path_is_refused() {
    assert_refused(&cli(&["fuzz", "pg", "--units", "200", "--out", ""]), &["--out"]);
    assert_refused(&cli(&["fuzz", "pg", "--units", "200", "--out="]), &["--out"]);
}

#[test]
fn a_corpus_for_another_fuzzer_is_refused_before_any_output() {
    let dir = std::env::temp_dir().display().to_string();
    let out = cli(&["fuzz", "pg", "--fuzzer", "SQUIRREL", "--corpus", &dir]);
    assert_refused(&out, &["--corpus", "LEGO"]);
}

#[test]
fn a_checkpoint_directory_beside_a_resume_is_refused_before_either_is_read() {
    // `--resume DIR` checkpoints into DIR; a second directory would get this
    // campaign's meta.json beside another campaign's worker files. Neither
    // directory exists, so reading one would fail with status 1 instead.
    let dir = |tag: &str| {
        let name = format!("lego_cli_args_{tag}_{}", std::process::id());
        std::env::temp_dir().join(name).display().to_string()
    };
    let (from, into) = (dir("resume_from"), dir("checkpoint_into"));
    let out = cli(&["fuzz", "pg", "--resume", &from, "--checkpoint", &into]);
    assert_refused(&out, &["--checkpoint", "--resume"]);
}

#[test]
fn an_unknown_fuzzer_is_refused_with_the_known_names() {
    let out = cli(&["fuzz", "pg", "--fuzzer", "AFL"]);
    let mut needles = vec!["--fuzzer", "AFL"];
    needles.extend(ENGINE_NAMES);
    assert_refused(&out, &needles);
}

#[test]
fn an_unknown_or_empty_oracle_name_is_refused_with_the_known_names() {
    let table1 = env!("CARGO_BIN_EXE_table1_bugs");
    for spec in ["--oracles=tpl", "--oracles=tlp,nroec", "--oracles=", "--oracles=tlp,,norec"] {
        let mut needles = vec![spec];
        needles.extend(lego_bench::grid::ORACLE_NAMES);
        assert_refused(&cli(&["fuzz", "pg", "--units", "200", spec]), &needles);
        assert_refused(&run(table1, &["2000", spec]), &needles);
    }
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
