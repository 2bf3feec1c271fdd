//! `sweep_rtn`: the 11-point duty-ratio sweep with the RTN inner loop,
//! built exactly as `ecripse-cli sweep --points 11 --m-rtn 4
//! --samples 1000 --threads WIDTH --seed SEED` builds it.

use crate::answer::{pinned, Answer};
use crate::estimate::{count_oracle, VDD};
use crate::harness::{
    median_seconds, timed_loop, Checker, Ctx, EndToEnd, SETUP_BATCHES, SETUP_PER_BATCH, WIDTH,
};
use crate::layers::{RtnDraws, Run, Tally};
use crate::output::Metrics;
use crate::probe::{Ledger, Probe, RunKey};
use crate::stats::median;
use crate::Outcome;
use ecripse_core::bench::Testbench;
use ecripse_core::ecripse::EcripseConfig;
use ecripse_core::observe::NullObserver;
use ecripse_core::scenario::{Scenario, SramScenarioBench};
use ecripse_core::sweep::{DutySweep, SweepBench, SweepOptions, SweepReports, SweepResult};
use std::time::Instant;

/// Duty points of the sweep.
pub const POINTS: usize = 11;
/// Sweeps per untraced measurement, whatever the budget (one sweep
/// takes most of a run, and a median of one is all noise); a zero
/// budget asks for a single sweep.
const UNITS: usize = 2;

/// The CLI's `sweep` configuration.
pub fn config(seed: u64, threads: usize) -> EcripseConfig {
    let scenario = Scenario::ReadSnm;
    let mut cfg = EcripseConfig {
        scenario,
        ..EcripseConfig::default()
    };
    cfg.initial.r_max = cfg.initial.r_max.max(scenario.recommended_r_max());
    cfg.importance.n_samples = 1000;
    cfg.importance.m_rtn = 4;
    cfg.seed = seed;
    cfg.threads = threads;
    cfg
}

/// `points` duty ratios evenly spread over `[0, 1]`.
pub fn grid(points: usize) -> Vec<f64> {
    (0..points)
        .map(|i| i as f64 / (points - 1) as f64)
        .collect()
}

/// A finished sweep with its reports.
pub struct SweepUnit {
    /// Timed-region seconds.
    pub wall_s: f64,
    /// The sweep result.
    pub result: SweepResult,
    /// The RDF-only reference and per-point reports.
    pub reports: SweepReports,
    /// The deterministic content.
    pub answer: Answer,
}

/// The answer of a sweep. Per-point solver effort is stripped from the
/// report digest: the points of one sweep share their bench's effort
/// counters, so a point's before/after delta includes whatever other
/// points ran concurrently. The whole-sweep totals (`total`) are exact.
pub fn sweep_answer(
    result: &SweepResult,
    reports: &SweepReports,
    total: Option<ecripse_core::bench::SolveEffort>,
) -> Answer {
    let mut answer = Answer::default();
    answer.bits.push(result.p_fail_rdf_only.to_bits());
    answer.bits.push(result.rdf_only_ci95.to_bits());
    for point in &result.points {
        answer.bits.push(point.p_fail.to_bits());
        answer.bits.push(point.ci95_half_width.to_bits());
    }
    answer.count("simulations", result.total_simulations);
    answer.count("init_simulations", result.init_simulations);
    if let Some(total) = total {
        answer.count("spice.newton_iters", total.newton_iters);
        answer.count("spice.factorisations", total.factorisations);
    }
    for report in std::iter::once(&reports.rdf_only).chain(&reports.points) {
        count_oracle(&mut answer, report);
        answer.digest_report(report, true);
    }
    answer
}

/// The runs of a sweep for the ledger: the RDF-only reference (which
/// also carries the shared boundary search) under the base bench, each
/// point under its own.
pub fn sweep_runs<'a>(
    reports: &'a SweepReports,
    cfg: &EcripseConfig,
    alphas: &[f64],
) -> Vec<Run<'a>> {
    let rtn = RtnDraws {
        stage1: cfg.m_rtn_stage1.max(1) as u64,
        stage2: cfg.importance.m_rtn as u64,
    };
    std::iter::once(Run {
        report: &reports.rdf_only,
        rtn: None,
        key: Some(RunKey::Base),
    })
    .chain(
        reports
            .points
            .iter()
            .zip(alphas)
            .map(|(report, &alpha)| Run {
                report,
                rtn: Some(rtn),
                key: Some(RunKey::Alpha(alpha)),
            }),
    )
    .collect()
}

fn run_unit<B: SweepBench>(cfg: EcripseConfig, bench: B, effort: &SramScenarioBench) -> SweepUnit {
    let sweep = DutySweep::new(cfg, bench, grid(POINTS));
    let start = Instant::now();
    let run = sweep.run_resumable_observed(&SweepOptions::default(), &NullObserver);
    let wall_s = start.elapsed().as_secs_f64();
    let (result, reports) = run
        .expect("the pinned sweep completes")
        .into_parts()
        .expect("every point of the pinned sweep completes");
    let answer = sweep_answer(&result, &reports, Some(effort.solve_effort()));
    SweepUnit {
        wall_s,
        result,
        reports,
        answer,
    }
}

/// The worst relative error over the sweep's points.
pub fn worst_relative_error(result: &SweepResult) -> f64 {
    result
        .points
        .iter()
        .map(|p| crate::layers::ratio(p.ci95_half_width, p.p_fail))
        .fold(0.0, f64::max)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let cfg = config(ctx.seed, WIDTH);
    let pin = pinned(ctx.workload.name(), ctx.seed);
    let mut checker = Checker::default();
    let setup = median_seconds(SETUP_BATCHES, SETUP_PER_BATCH, || {
        DutySweep::new(
            cfg,
            SramScenarioBench::at_vdd(Scenario::ReadSnm, VDD),
            grid(POINTS),
        )
    });
    let untraced_budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let min_units = if ctx.trace || ctx.seconds == 0.0 {
        1
    } else {
        UNITS
    };
    let plain = timed_loop(untraced_budget, min_units, |_| {
        let bench = SramScenarioBench::at_vdd(Scenario::ReadSnm, VDD);
        let handle = bench.clone();
        run_unit(cfg, bench, &handle)
    });
    for (i, unit) in plain.iter().enumerate() {
        checker.check_answer(&format!("sweep {i}"), &unit.answer, pin.as_ref(), &[]);
    }
    let walls: Vec<f64> = plain.iter().map(|u| u.wall_s).collect();
    if !ctx.trace {
        let e2e = EndToEnd {
            setups: &[setup],
            walls: &walls,
            jobs: &walls,
            simulations: plain[0].result.total_simulations as f64,
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
    let traced = timed_loop(ctx.seconds / 2.0, 1, |_| {
        let bench = SramScenarioBench::at_vdd(Scenario::ReadSnm, VDD);
        let handle = bench.clone();
        run_unit(cfg, Probe::new(bench, &ledger), &handle)
    });
    let alphas = grid(POINTS);
    for (i, unit) in traced.iter().enumerate() {
        checker.check_answer(
            &format!("traced sweep {i}"),
            &unit.answer,
            pin.as_ref(),
            &[],
        );
        let runs = sweep_runs(&unit.reports, &cfg, &alphas);
        tally.add_unit(&runs, &ledger.drain(), unit.wall_s, cfg.threads);
    }
    let traced_walls: Vec<f64> = traced.iter().map(|u| u.wall_s).collect();
    let mut layers = Metrics::default();
    tally.metrics(&mut layers);
    crate::common_layers(
        &mut layers,
        &walls,
        &traced_walls,
        (median(&walls), worst_relative_error(&plain[0].result)),
        None,
        &checker,
    );
    Outcome {
        checker,
        metrics: layers,
        pinned: pin.is_some(),
    }
}
