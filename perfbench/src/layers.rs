//! The per-layer ledger: stage, oracle, RTN and cache figures from the
//! run reports, simulator figures from the [`Probe`](crate::probe::Probe)
//! logs, and the split of simulator time across stages.

use crate::probe::{RunKey, RunLog};
use crate::stats::union_length;
use ecripse_core::observe::{RunReport, Stage};
use std::time::Instant;

/// The three stages in pipeline order, with their metric names.
pub const STAGES: [(Stage, &str); 3] = [
    (Stage::BoundarySearch, "initial"),
    (Stage::ParticleFilter, "ensemble"),
    (Stage::ImportanceSampling, "importance"),
];

fn stage_index(stage: Stage) -> usize {
    STAGES
        .iter()
        .position(|(s, _)| *s == stage)
        .expect("every stage is listed")
}

/// RTN draws per sample in each stage of a run (`None` for RDF-only).
#[derive(Debug, Clone, Copy)]
pub struct RtnDraws {
    /// Draws per candidate in the particle-filter weights.
    pub stage1: u64,
    /// Draws per importance sample.
    pub stage2: u64,
}

/// One pipeline run of a unit: its report and RTN setting.
#[derive(Clone, Copy)]
pub struct Run<'a> {
    /// The run's structured report (timings included).
    pub report: &'a RunReport,
    /// RTN draws per sample, `None` for an RDF-only run.
    pub rtn: Option<RtnDraws>,
    /// Which probe log holds the run's simulator calls, when the unit
    /// was probed and the run can be told apart.
    pub key: Option<RunKey>,
}

/// Sums over every run of one or more units.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Units folded in (the divisor of the per-unit metrics).
    units: u64,
    /// Per-stage wall seconds and simulations from the reports.
    stage_wall: [f64; 3],
    stage_sims: [u64; 3],
    /// Per-stage simulator time split from the probe logs: the union of
    /// busy intervals, their sum, and the samples behind them.
    stage_busy_union: [f64; 3],
    stage_busy_sum: [f64; 3],
    stage_busy_samples: [u64; 3],
    /// Whether every run's simulator time could be split by stage.
    split_complete: bool,
    iterations: u64,
    reseeds: u64,
    ess: f64,
    is_samples: u64,
    classified: u64,
    simulated: u64,
    uncertain: u64,
    retrains: u64,
    cache_hits: u64,
    cache_misses: u64,
    rtn_samples: u64,
    /// Simulator-side totals from the probe logs.
    spice_busy_s: f64,
    spice_batches: u64,
    spice_samples: u64,
    newton_iters: u64,
    factorisations: u64,
    /// Wall seconds of the units, times the threads they were given
    /// (the denominator of `spice.util`).
    thread_seconds: f64,
}

impl Tally {
    /// An empty tally that has not yet failed to split any run.
    pub fn new() -> Self {
        Self {
            split_complete: true,
            ..Self::default()
        }
    }

    /// Folds one unit in: its runs, the probe logs it produced, its
    /// wall time and thread budget.
    pub fn add_unit(&mut self, runs: &[Run<'_>], logs: &[RunLog], wall_s: f64, threads: usize) {
        self.units += 1;
        self.thread_seconds += wall_s * threads as f64;
        for run in runs {
            self.add_report(run.report, run.rtn);
        }
        for log in logs {
            self.spice_busy_s += log.batches.iter().map(|b| b.seconds()).sum::<f64>();
            self.spice_batches += log.batches.len() as u64;
            self.spice_samples += log.batches.iter().map(|b| b.samples).sum::<u64>();
            if let Some(effort) = log.effort {
                self.newton_iters += effort.newton_iters;
                self.factorisations += effort.factorisations;
            }
        }
        // Split each log across the stages of the run(s) it served. A
        // base log serves the report whose key is `Base` (in a sweep, the
        // boundary search and the RDF-only reference); a point log the
        // point's report. Several logs may serve one report (the shards
        // of a cluster sweep each repeat the reference).
        if logs.is_empty() {
            self.split_complete = false;
            return;
        }
        for log in logs {
            let Some(run) = runs.iter().find(|r| r.key == Some(log.key)) else {
                if !log.batches.is_empty() {
                    self.split_complete = false;
                }
                continue;
            };
            if !self.split(log, run.report) {
                self.split_complete = false;
            }
        }
    }

    fn add_report(&mut self, report: &RunReport, rtn: Option<RtnDraws>) {
        for stage in &report.stages {
            let i = stage_index(stage.stage);
            self.stage_wall[i] += stage.wall_seconds;
            self.stage_sims[i] += stage.simulations;
        }
        self.iterations += report.iterations.len() as u64;
        self.reseeds += report
            .iterations
            .iter()
            .map(|it| it.filters_reseeded as u64)
            .sum::<u64>();
        self.ess += report.effective_sample_size;
        self.is_samples += report.is_samples;
        self.classified += report.oracle.classified;
        self.simulated += report.oracle.simulated;
        self.uncertain += report.oracle.uncertain_simulated;
        self.retrains += report.oracle.retrains;
        self.cache_hits += report.oracle.cache_hits;
        self.cache_misses += report.oracle.cache_misses;
        if let Some(rtn) = rtn {
            let candidates: u64 = report
                .iterations
                .iter()
                .map(|it| it.candidates as u64)
                .sum();
            self.rtn_samples += candidates * rtn.stage1 + report.is_samples * rtn.stage2;
        }
    }

    /// Assigns a log's batches to stages by the report's per-stage
    /// simulation counts: stages run one after another, and the probe
    /// sits under the simulation counter, so the first `sims[initial]`
    /// logged samples belong to the boundary search, and so on. Returns
    /// `false` when the log and the report disagree on the total.
    fn split(&mut self, log: &RunLog, report: &RunReport) -> bool {
        let mut limits = [0u64; 3];
        for stage in &report.stages {
            limits[stage_index(stage.stage)] = stage.simulations;
        }
        let logged: u64 = log.batches.iter().map(|b| b.samples).sum();
        if logged != limits.iter().sum::<u64>() {
            return false;
        }
        let origin = log.batches.first().map_or_else(Instant::now, |b| b.start);
        let mut intervals: [Vec<(f64, f64)>; 3] = Default::default();
        let mut stage = 0;
        let mut used = 0u64;
        for batch in &log.batches {
            while stage < 2 && used >= limits[stage] {
                stage += 1;
                used = 0;
            }
            used += batch.samples;
            self.stage_busy_sum[stage] += batch.seconds();
            self.stage_busy_samples[stage] += batch.samples;
            intervals[stage].push((
                batch.start.duration_since(origin).as_secs_f64(),
                batch.end.duration_since(origin).as_secs_f64(),
            ));
        }
        for (i, spans) in intervals.iter_mut().enumerate() {
            self.stage_busy_union[i] += union_length(spans);
        }
        true
    }

    /// The per-unit layer metrics (see `BENCHMARK.json` `per_layer`).
    pub fn metrics(&self, out: &mut crate::output::Metrics) {
        let units = self.units.max(1) as f64;
        let per = |v: f64| v / units;
        for (i, (_, name)) in STAGES.iter().enumerate() {
            out.set(&format!("core.{name}.wall_s"), per(self.stage_wall[i]), "s");
            out.set(
                &format!("core.{name}.sims"),
                per(self.stage_sims[i] as f64),
                "count",
            );
            let attributed = self.split_complete && self.units > 0;
            let self_s = if attributed {
                per(self.stage_wall[i] - self.stage_busy_union[i]).max(0.0)
            } else {
                0.0
            };
            out.set(&format!("core.{name}.self_s"), self_s, "s");
            let ms_per_sim = if attributed && self.stage_busy_samples[i] > 0 {
                1e3 * self.stage_busy_sum[i] / self.stage_busy_samples[i] as f64
            } else {
                0.0
            };
            out.set(&format!("spice.{name}.ms_per_sim"), ms_per_sim, "ms");
        }
        out.set(
            "core.ensemble.iterations",
            per(self.iterations as f64),
            "count",
        );
        out.set("core.ensemble.reseeds", per(self.reseeds as f64), "count");
        out.set(
            "core.importance.ess_frac",
            ratio(self.ess, self.is_samples as f64),
            "ratio",
        );
        out.set(
            "core.oracle.classified",
            per(self.classified as f64),
            "count",
        );
        out.set("core.oracle.simulated", per(self.simulated as f64), "count");
        out.set(
            "core.oracle.uncertain_sims",
            per(self.uncertain as f64),
            "count",
        );
        out.set(
            "core.oracle.classified_frac",
            ratio(
                self.classified as f64,
                (self.classified + self.simulated) as f64,
            ),
            "ratio",
        );
        out.set("svm.retrains", per(self.retrains as f64), "count");
        out.set("rtn.samples", per(self.rtn_samples as f64), "count");
        out.set("core.cache.hits", per(self.cache_hits as f64), "count");
        out.set("core.cache.misses", per(self.cache_misses as f64), "count");
        out.set(
            "core.cache.hit_ratio",
            ratio(
                self.cache_hits as f64,
                (self.cache_hits + self.cache_misses) as f64,
            ),
            "ratio",
        );
        out.set("spice.busy_s", per(self.spice_busy_s), "s");
        out.set("spice.batches", per(self.spice_batches as f64), "count");
        out.set("spice.samples", per(self.spice_samples as f64), "count");
        out.set("spice.newton_iters", per(self.newton_iters as f64), "count");
        out.set(
            "spice.factorisations",
            per(self.factorisations as f64),
            "count",
        );
        out.set(
            "spice.util",
            ratio(self.spice_busy_s, self.thread_seconds),
            "ratio",
        );
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Batch;
    use ecripse_core::observe::StageReport;
    use std::time::Duration;

    fn report(sims: [u64; 3], walls: [f64; 3]) -> RunReport {
        let mut r = RunReport::default();
        for (i, (stage, _)) in STAGES.iter().enumerate() {
            r.stages.push(StageReport {
                stage: *stage,
                wall_seconds: walls[i],
                simulations: sims[i],
            });
        }
        r
    }

    fn batch(origin: Instant, from_ms: u64, to_ms: u64, samples: u64) -> Batch {
        Batch {
            start: origin + Duration::from_millis(from_ms),
            end: origin + Duration::from_millis(to_ms),
            samples,
        }
    }

    #[test]
    fn batches_split_by_stage_counts() {
        let t = Instant::now();
        let log = RunLog {
            key: RunKey::Base,
            batches: vec![
                batch(t, 0, 100, 10),
                batch(t, 100, 200, 5),
                batch(t, 300, 400, 20),
                batch(t, 500, 550, 3),
                // Two overlapping importance batches: busy union 100 ms.
                batch(t, 600, 700, 4),
                batch(t, 650, 700, 4),
            ],
            effort: None,
        };
        let r = report([15, 20, 11], [0.25, 0.15, 0.2]);
        let mut tally = Tally::new();
        tally.add_unit(
            &[Run {
                report: &r,
                rtn: None,
                key: Some(RunKey::Base),
            }],
            std::slice::from_ref(&log),
            0.6,
            1,
        );
        assert!(tally.split_complete);
        assert_eq!(tally.stage_busy_samples, [15, 20, 11]);
        assert!((tally.stage_busy_union[0] - 0.2).abs() < 1e-9);
        assert!((tally.stage_busy_union[2] - 0.15).abs() < 1e-9);
        assert!((tally.stage_busy_sum[2] - 0.2).abs() < 1e-9);
        let mut m = crate::output::Metrics::default();
        tally.metrics(&mut m);
        assert!((m.value("core.initial.self_s") - 0.05).abs() < 1e-9);
        assert!((m.value("spice.ensemble.ms_per_sim") - 5.0).abs() < 1e-9);
    }

    #[test]
    fn a_log_that_disagrees_with_its_report_is_not_split() {
        let t = Instant::now();
        let log = RunLog {
            key: RunKey::Base,
            batches: vec![batch(t, 0, 10, 7)],
            effort: None,
        };
        let r = report([5, 0, 0], [0.01, 0.0, 0.0]);
        let mut tally = Tally::new();
        tally.add_unit(
            &[Run {
                report: &r,
                rtn: None,
                key: Some(RunKey::Base),
            }],
            &[log],
            0.01,
            1,
        );
        assert!(!tally.split_complete);
    }
}
