//! `ecripse-cli` refuses a malformed command line before doing any work:
//! an unknown or repeated option exits with code 2 and a usage line, and
//! `--help` prints the options and exits 0. Each case passes `--report`,
//! so an estimate that ran anyway would leave the report file behind.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `ecripse-cli estimate` with `extra` options after a small,
/// otherwise valid RDF-only estimate that would write `report`.
fn estimate_with(report: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ecripse-cli"))
        .args(["estimate", "--no-rtn", "--samples", "300", "--seed", "3"])
        .arg("--report")
        .arg(report)
        .args(extra)
        .output()
        .expect("ecripse-cli runs")
}

fn report_path(case: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ecripse-cli-args-{case}-{}.json",
        std::process::id()
    ))
}

/// Asserts the exit code and that no estimate ran.
fn assert_refused_before_work(out: &Output, report: &Path, code: i32) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "stderr: {stderr}");
    assert!(!stdout.contains("P_fail"), "an estimate ran: {stdout}");
    assert!(!report.exists(), "an estimate wrote {}", report.display());
}

#[test]
fn unknown_option_is_refused_with_exit_code_2() {
    let report = report_path("unknown");
    let out = estimate_with(&report, &["--samplez", "10"]);
    assert_refused_before_work(&out, &report, 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--samplez"), "{stderr}");
    assert!(stderr.contains("usage: ecripse-cli"), "{stderr}");
}

#[test]
fn repeated_option_is_refused_with_exit_code_2() {
    let report = report_path("duplicate");
    let out = estimate_with(&report, &["--seed", "4"]);
    assert_refused_before_work(&out, &report, 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--seed given more than once"), "{stderr}");
    assert!(stderr.contains("usage: ecripse-cli"), "{stderr}");
}

#[test]
fn help_prints_usage_and_runs_nothing() {
    let report = report_path("help");
    let out = estimate_with(&report, &["--help"]);
    assert_refused_before_work(&out, &report, 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("usage: ecripse-cli"), "{stdout}");
    assert!(stdout.contains("--samples N"), "{stdout}");
}
