//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--write-pin]
//! ```
//!
//! Runs one workload of `BENCHMARK.json` for about `S` seconds on inputs
//! derived from the seed, checks every answer, and prints the metrics by
//! name with their units, then (as the last line) one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics of untraced runs; `--trace 1` runs untraced
//! and traced units and reports the per-layer ledger. The exit code is
//! non-zero when any answer was wrong.

mod answer;
mod cluster;
mod estimate;
mod harness;
mod layers;
mod output;
mod probe;
mod prom;
mod serve_mix;
mod stats;
mod sweep;

use harness::{Checker, Ctx, Workload, WIDTH};
use output::Metrics;
use stats::median;
use std::process::ExitCode;

/// What a workload run produced.
pub struct Outcome {
    /// Operation accounting.
    pub checker: Checker,
    /// End-to-end metrics (untraced run) or the per-layer ledger
    /// (traced run).
    pub metrics: Metrics,
    /// Whether a pinned answer existed for this seed.
    pub pinned: bool,
}

/// The ledger entries every workload reports the same way: the cost of
/// tracing; the time to a 10 % relative error, from the seconds a job
/// took and the relative error it reached (`wall × (err / 0.1)²`); the
/// share of estimate wall time the stages account for (0 where no
/// estimate is timed directly); and the failure share.
pub fn common_layers(
    layers: &mut Metrics,
    untraced_walls: &[f64],
    traced_walls: &[f64],
    (job_s, relative_error): (f64, f64),
    stage_coverage: Option<f64>,
    checker: &Checker,
) {
    layers.set(
        "core.stage_coverage",
        stage_coverage.unwrap_or(0.0),
        "ratio",
    );
    let untraced = median(untraced_walls);
    layers.set(
        "trace.overhead_frac",
        layers::ratio(median(traced_walls) - untraced, untraced),
        "ratio",
    );
    layers.set(
        "time_to_10pct_s",
        job_s * (relative_error / 0.10).powi(2),
        "s",
    );
    layers.set("fail_frac", 1.0 - checker.ok_frac(), "ratio");
}

/// The metric declarations of `BENCHMARK.json`: `(name, unit)` of the
/// end-to-end or per-layer list.
fn declared(list: &str) -> Vec<(String, String)> {
    let doc = serde_json::from_str_value(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json is valid JSON");
    doc.get(list)
        .and_then(|v| v.as_array())
        .map(|entries| {
            entries
                .iter()
                .filter_map(|e| {
                    Some((
                        e.get("name")?.as_str()?.to_string(),
                        e.get("unit")?.as_str()?.to_string(),
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Orders the metrics as declared and fills in a declared metric the
/// workload does not exercise with 0 (e.g. `serve.*` on an estimate).
fn as_declared(metrics: &Metrics, list: &str) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit) in declared(list) {
        out.set(&name, metrics.value(&name), &unit);
    }
    out
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 [--write-pin]",
        names.join("|")
    )
}

fn parse_args(raw: &[String]) -> Result<(Ctx, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut write_pin = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--write-pin" {
            write_pin = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value '{value}': {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e.to_string()))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let workload = workload.ok_or("--workload is required")?;
    let ctx = Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        nproc,
    };
    fits(workload, nproc)?;
    Ok((ctx, write_pin))
}

/// Refuses a workload whose threads or connections exceed `nproc`.
fn fits(workload: Workload, nproc: usize) -> Result<(), String> {
    let (threads, connections) = threads_and_connections(workload);
    if threads > nproc || connections > nproc {
        return Err(format!(
            "{} would use {threads} threads and {connections} connections on {nproc} core(s); refusing",
            workload.name()
        ));
    }
    Ok(())
}

/// Compute threads and client connections a workload runs with.
fn threads_and_connections(workload: Workload) -> (usize, usize) {
    match workload {
        Workload::EstimateRdf => (1, 0),
        Workload::SweepRtn => (WIDTH, 0),
        // Server workers (one thread per job) and client connections.
        Workload::ServeMix => (WIDTH, WIDTH),
        // Two joined workers with one worker thread each, one client.
        Workload::ClusterSweep => (cluster::WORKERS, 1),
    }
}

/// Output of `program --version`, first line, or "unknown".
fn tool_version(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment stamp printed before the results.
fn stamp(ctx: &Ctx) -> String {
    let (threads, connections) = threads_and_connections(ctx.workload);
    let value = serde_json::Value::Object(vec![
        (
            "workload".into(),
            serde_json::Value::String(ctx.workload.name().into()),
        ),
        ("seed".into(), serde_json::Value::Number(ctx.seed as f64)),
        ("trace".into(), serde_json::Value::Bool(ctx.trace)),
        ("nproc".into(), serde_json::Value::Number(ctx.nproc as f64)),
        ("threads".into(), serde_json::Value::Number(threads as f64)),
        (
            "connections".into(),
            serde_json::Value::Number(connections as f64),
        ),
        (
            "git_commit".into(),
            serde_json::Value::String(tool_version("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rustc".into(),
            serde_json::Value::String(tool_version("rustc", &["--version"])),
        ),
    ]);
    format!(
        "stamp {}",
        serde_json::to_string(&value).expect("serialisable")
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (ctx, write_pin) = match parse_args(&raw) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!("{}", stamp(&ctx));
    let outcome = match ctx.workload {
        Workload::EstimateRdf => estimate::run(&ctx),
        Workload::SweepRtn => sweep::run(&ctx),
        Workload::ServeMix => serve_mix::run(&ctx),
        Workload::ClusterSweep => cluster::run(&ctx),
    };
    // Each round removed its own directory; drop the (now empty) parent.
    let _ = std::fs::remove_dir(serve_mix::SCRATCH);
    let list = if ctx.trace { "per_layer" } else { "end_to_end" };
    let metrics = as_declared(&outcome.metrics, list);
    let checker = &outcome.checker;
    for note in &checker.notes {
        println!("FAILED {note}");
    }
    println!(
        "pinned answer for this seed: {}",
        if outcome.pinned {
            "yes"
        } else {
            "no (checked by repetition only)"
        }
    );
    print!("{}", metrics.lines());
    let correct = checker.failed == 0 && checker.attempted > 0;
    println!(
        "{}",
        output::result_line(correct, checker.attempted, checker.failed, &metrics)
    );
    if write_pin && correct {
        if let Some(answer) = &checker.first_answer {
            if let Err(e) =
                answer::write_pin("perfbench/pins.json", ctx.workload.name(), ctx.seed, answer)
            {
                eprintln!("perfbench: cannot write the pin: {e}");
                return ExitCode::from(1);
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let (ctx, pin) = parse_args(&args(&[
            "--workload",
            "sweep_rtn",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(ctx.workload, Workload::SweepRtn);
        assert_eq!(
            (ctx.seed, ctx.seconds, ctx.trace, pin),
            (7, 10.0, true, false)
        );
    }

    #[test]
    fn refuses_more_threads_than_cores_and_bad_input() {
        let err = fits(Workload::SweepRtn, 1).expect_err("two threads on one core");
        assert!(err.contains("refusing"), "{err}");
        assert!(fits(Workload::ServeMix, 1).is_err());
        assert!(fits(Workload::EstimateRdf, 1).is_ok());
        assert!(Workload::ALL.iter().all(|&w| fits(w, WIDTH).is_ok()));
        assert!(parse_args(&args(&["--width", "1"])).is_err());
        assert!(parse_args(&args(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&args(&["--workload", "sweep_rtn", "--seed", "1"])).is_err());
        assert!(parse_args(&args(&[
            "--workload",
            "sweep_rtn",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ]))
        .is_err());
    }

    #[test]
    fn every_metric_the_code_reports_is_declared_with_its_unit() {
        let e2e = declared("end_to_end");
        let layers = declared("per_layer");
        assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        let mut m = Metrics::default();
        layers::Tally::new().metrics(&mut m);
        common_layers(
            &mut m,
            &[1.0],
            &[1.0],
            (1.0, 0.1),
            None,
            &Checker::default(),
        );
        serve_mix::layer_names(&mut m);
        cluster::layer_names(&mut m);
        for line in m.lines().lines() {
            let mut parts = line.split_whitespace();
            let name = parts.next().unwrap();
            let unit = parts.nth(1).unwrap();
            assert!(
                layers.iter().any(|(n, u)| n == name && u == unit),
                "{name} ({unit}) is not declared in BENCHMARK.json per_layer"
            );
        }
        for (name, _) in &layers {
            assert!(
                m.lines()
                    .lines()
                    .any(|l| l.split_whitespace().next() == Some(name)),
                "declared {name} is never reported"
            );
        }
    }
}
