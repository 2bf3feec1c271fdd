//! `estimate_rdf`: the Fig. 6 headline estimate, built exactly as
//! `ecripse-cli estimate --no-rtn --threads 1 --seed SEED` builds it.

use crate::answer::{pinned, Answer};
use crate::harness::{
    median_seconds, timed_loop, Checker, Ctx, EndToEnd, SETUP_BATCHES, SETUP_PER_BATCH,
};
use crate::layers::{Run, Tally};
use crate::output::Metrics;
use crate::probe::{Ledger, Probe, RunKey};
use crate::stats::median;
use crate::Outcome;
use ecripse_core::bench::Testbench;
use ecripse_core::ecripse::{Ecripse, EcripseConfig, EcripseResult};
use ecripse_core::observe::{RunRecorder, RunReport};
use ecripse_core::scenario::{Scenario, SramScenarioBench};
use std::time::Instant;

/// Supply voltage of every workload (the CLI default).
pub const VDD: f64 = 0.7;

/// The CLI's `estimate --no-rtn` configuration at `seed`, one thread.
pub fn config(seed: u64) -> EcripseConfig {
    let scenario = Scenario::ReadSnm;
    let mut cfg = EcripseConfig {
        scenario,
        ..EcripseConfig::default()
    };
    cfg.initial.r_max = cfg.initial.r_max.max(scenario.recommended_r_max());
    cfg.importance.n_samples = 4000;
    cfg.importance.m_rtn = 1;
    cfg.m_rtn_stage1 = 1;
    cfg.seed = seed;
    cfg.threads = 1;
    cfg
}

/// One timed estimate.
struct Unit {
    wall_s: f64,
    result: EcripseResult,
    report: RunReport,
    answer: Answer,
}

fn run_unit<B: Testbench>(cfg: EcripseConfig, bench: B, effort: &SramScenarioBench) -> Unit {
    let recorder = RunRecorder::new();
    let run = Ecripse::new(cfg, bench);
    let start = Instant::now();
    let result = run.estimate_observed(&recorder);
    let wall_s = start.elapsed().as_secs_f64();
    let result = result.expect("the pinned estimate converges");
    let report = recorder.into_report();
    let mut answer = Answer {
        bits: vec![result.p_fail.to_bits(), result.ci95_half_width.to_bits()],
        ..Answer::default()
    };
    answer.count("simulations", result.simulations);
    answer.count("is_samples", result.is_samples);
    let total = effort.solve_effort();
    answer.count("spice.newton_iters", total.newton_iters);
    answer.count("spice.factorisations", total.factorisations);
    count_oracle(&mut answer, &report);
    answer.digest_report(&report, false);
    Unit {
        wall_s,
        result,
        report,
        answer,
    }
}

/// The exact oracle, SVM and cache counters of a report.
pub fn count_oracle(answer: &mut Answer, report: &RunReport) {
    let o = &report.oracle;
    answer.count("core.oracle.classified", o.classified);
    answer.count("core.oracle.simulated", o.simulated);
    answer.count("core.oracle.uncertain_sims", o.uncertain_simulated);
    answer.count("svm.retrains", o.retrains);
    answer.count("core.cache.hits", o.cache_hits);
    answer.count("core.cache.misses", o.cache_misses);
}

/// Per-stage wall time as a share of the externally timed estimate.
fn stage_coverage(unit: &Unit) -> f64 {
    unit.report.total_wall_seconds() / unit.wall_s
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let cfg = config(ctx.seed);
    let pin = pinned(ctx.workload.name(), ctx.seed);
    let mut checker = Checker::default();
    // Set-up is building the bench and the estimator: under a
    // microsecond, so timed in batches.
    let setup = median_seconds(SETUP_BATCHES, SETUP_PER_BATCH, || {
        Ecripse::new(cfg, SramScenarioBench::at_vdd(Scenario::ReadSnm, VDD))
    });
    let untraced_budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plain = timed_loop(untraced_budget, 1, |_| {
        let bench = SramScenarioBench::at_vdd(Scenario::ReadSnm, VDD);
        let handle = bench.clone();
        run_unit(cfg, bench, &handle)
    });
    for (i, unit) in plain.iter().enumerate() {
        checker.check_answer(&format!("estimate {i}"), &unit.answer, pin.as_ref(), &[]);
    }
    let walls: Vec<f64> = plain.iter().map(|u| u.wall_s).collect();
    let simulations = plain[0].result.simulations as f64;
    if !ctx.trace {
        let e2e = EndToEnd {
            setups: &[setup],
            walls: &walls,
            jobs: &walls,
            simulations,
        }
        .metrics(&checker);
        return Outcome {
            checker,
            metrics: e2e,
            pinned: pin.is_some(),
        };
    }

    let ledger = Ledger::new();
    let mut tally = Tally::new();
    let mut coverage = f64::INFINITY;
    let traced = timed_loop(ctx.seconds / 2.0, 1, |_| {
        let bench = SramScenarioBench::at_vdd(Scenario::ReadSnm, VDD);
        let handle = bench.clone();
        run_unit(cfg, Probe::new(bench, &ledger), &handle)
    });
    for (i, unit) in traced.iter().enumerate() {
        let cover = stage_coverage(unit);
        coverage = coverage.min(cover);
        let mut extra = Vec::new();
        if cover < 0.95 {
            extra.push(format!(
                "stages cover only {:.1}% of the estimate",
                100.0 * cover
            ));
        }
        checker.check_answer(
            &format!("traced estimate {i}"),
            &unit.answer,
            pin.as_ref(),
            &extra,
        );
        let runs = [Run {
            report: &unit.report,
            rtn: None,
            key: Some(RunKey::Base),
        }];
        tally.add_unit(&runs, &ledger.drain(), unit.wall_s, cfg.threads);
    }
    let traced_walls: Vec<f64> = traced.iter().map(|u| u.wall_s).collect();
    let mut layers = Metrics::default();
    tally.metrics(&mut layers);
    crate::common_layers(
        &mut layers,
        &walls,
        &traced_walls,
        (median(&walls), plain[0].result.relative_error()),
        Some(coverage),
        &checker,
    );
    Outcome {
        checker,
        metrics: layers,
        pinned: pin.is_some(),
    }
}
