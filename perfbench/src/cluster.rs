//! `cluster_sweep`: an in-process coordinator and two joined serve
//! workers (one worker thread each) running one duty sweep, sharded by
//! the ring, dispatched, and merged. Each unit boots its own cluster,
//! so shard placement (which depends on the coordinator's job id) is
//! the same every time; the merged report is compared, timings and
//! per-point solver effort stripped, with a direct in-process run.

use crate::answer::pinned;
use crate::estimate::VDD;
use crate::harness::{timed_loop, Checker, Ctx, EndToEnd, WIDTH};
use crate::layers::{Run, Tally};
use crate::output::Metrics;
use crate::probe::{Ledger, Probe, RunLog};
use crate::serve_mix::{service_config, JOB_TIMEOUT};
use crate::stats::median;
use crate::sweep::{grid, sweep_answer, sweep_runs, worst_relative_error};
use crate::Outcome;
use ecripse_cluster::{ClusterConfig, Coordinator, JoinConfig};
use ecripse_core::observe::NullObserver;
use ecripse_core::scenario::{Scenario, SramScenarioBench};
use ecripse_core::sweep::{DutySweep, SweepBench, SweepOptions, SweepResult};
use ecripse_serve::protocol::{JobSpec, SubmitRequest, SweepOutcome};
use ecripse_serve::{Client, ServeConfig, Server};
use std::time::{Duration, Instant};

/// Joined workers (one worker thread each).
pub const WORKERS: usize = 2;
/// Duty points of the sharded sweep.
const POINTS: usize = 8;
/// Particles per filter. The client waits as `ecripse-cli submit` does,
/// polling at 0.63 s and then 1.13 s after submission, so the reported
/// wall snaps to those times. At 22 particles the sweep ended at about
/// 0.7 s in fast spells of the 2-vCPU machine and 0.8 s in slow ones,
/// so neither the median nor a slow unit crosses a poll; at 24 it ended
/// near 1.05 s in slow spells and some units were seen only at 1.63 s.
const PARTICLES: usize = 22;

/// The sweep job for `seed`. Its seed is kept below 2^53, the range the
/// wire carries exactly (ROADMAP item 4a); smaller seeds pass unchanged.
fn request(seed: u64) -> SubmitRequest {
    let mut config = service_config(Scenario::ReadSnm, seed & ((1 << 53) - 1), true);
    config.ensemble.filter.n_particles = PARTICLES;
    SubmitRequest::new(config, JobSpec::sweep(VDD, grid(POINTS)))
}

/// One cluster sweep.
struct Unit {
    setup_s: f64,
    wall_s: f64,
    outcome: SweepOutcome,
    /// Coordinator-side spans: (name, start, duration).
    spans: Vec<(String, f64, f64)>,
    reassigned: u64,
}

fn result_of(outcome: &SweepOutcome) -> SweepResult {
    SweepResult {
        points: outcome.points.clone(),
        p_fail_rdf_only: outcome.p_fail_rdf_only,
        rdf_only_ci95: outcome.rdf_only_ci95,
        init_simulations: outcome.init_simulations,
        total_simulations: outcome.total_simulations,
    }
}

fn run_unit<B: SweepBench + 'static>(
    request: &SubmitRequest,
    traced: bool,
    factory: impl Fn(Scenario, f64) -> B + Clone + Send + Sync + 'static,
) -> Result<Unit, String> {
    let boot = Instant::now();
    let coordinator = Coordinator::bind("127.0.0.1:0", ClusterConfig::default())
        .map_err(|e| format!("bind coordinator: {e}"))?;
    let coord_addr = coordinator.local_addr().to_string();
    let mut workers = Vec::new();
    let mut joins = Vec::new();
    for w in 0..WORKERS {
        let name = format!("w{}", w + 1);
        let config = ServeConfig {
            workers: 1,
            node: Some(name.clone()),
            ..ServeConfig::default()
        };
        let server = Server::bind_with("127.0.0.1:0", config, factory.clone())
            .map_err(|e| format!("bind worker: {e}"))?;
        joins.push(ecripse_cluster::join(JoinConfig::new(
            coord_addr.clone(),
            name,
            server.local_addr().to_string(),
        )));
        workers.push(server);
    }
    // Ready means every worker registered and `/readyz` answers 200.
    let client = Client::new(coord_addr);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut ready = Ok(());
    while coordinator.metrics().workers_alive < WORKERS as u64 {
        if Instant::now() > deadline {
            ready = Err("workers never all registered".to_string());
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let ready = ready.and_then(|()| {
        client
            .wait_ready(Duration::from_secs(10))
            .map(|_| ())
            .map_err(|e| format!("coordinator never became ready: {e}"))
    });
    let setup_s = boot.elapsed().as_secs_f64();
    let result = ready.and_then(|()| {
        let start = Instant::now();
        let id = client
            .submit(request)
            .map_err(|e| format!("submit: {e}"))?
            .id;
        let report = client
            .wait_for_report(id, JOB_TIMEOUT)
            .map_err(|e| format!("sweep job {id}: {e}"))?;
        let wall_s = start.elapsed().as_secs_f64();
        let outcome = report.sweep.ok_or_else(|| {
            format!(
                "sweep job ended {} without a result: {}",
                report.state,
                report.error.unwrap_or_default()
            )
        })?;
        let spans = if traced {
            client
                .trace(id)
                .map_err(|e| format!("trace: {e}"))?
                .spans
                .into_iter()
                .filter(|s| s.node == "coordinator")
                .map(|s| (s.name, s.start_ts, s.duration_s))
                .collect()
        } else {
            Vec::new()
        };
        Ok(Unit {
            setup_s,
            wall_s,
            outcome,
            spans,
            reassigned: coordinator.metrics().shards_reassigned_total,
        })
    });
    for join in joins {
        join.leave();
    }
    coordinator.shutdown();
    for server in workers {
        server.shutdown();
    }
    result
}

/// The cluster-layer metric names, for the declaration check.
#[cfg(test)]
pub fn layer_names(m: &mut Metrics) {
    for (name, unit) in [
        ("cluster.shards", "count"),
        ("cluster.shard_p50_s", "s"),
        ("cluster.shard_max_s", "s"),
        ("cluster.merge_s", "s"),
        ("cluster.reassigned", "count"),
    ] {
        m.set(name, 0.0, unit);
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let request = request(ctx.seed);
    let pin = pinned(ctx.workload.name(), ctx.seed);
    let mut checker = Checker::default();
    let untraced_budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plain = timed_loop(untraced_budget, 1, |_| {
        run_unit(&request, false, |scenario, vdd| {
            SramScenarioBench::at_vdd(scenario, vdd)
        })
    });
    let ledger = Ledger::new();
    let traced: Vec<(Result<Unit, String>, Vec<RunLog>)> = if ctx.trace {
        timed_loop(ctx.seconds / 2.0, 1, |_| {
            let shared = std::sync::Arc::clone(&ledger);
            let unit = run_unit(&request, true, move |scenario, vdd| {
                Probe::new(SramScenarioBench::at_vdd(scenario, vdd), &shared)
            });
            (unit, ledger.drain())
        })
    } else {
        Vec::new()
    };

    // The direct in-process run of the same sweep.
    let mut direct_cfg = request.config;
    direct_cfg.threads = WIDTH;
    let (direct_result, direct_reports) = DutySweep::new(
        direct_cfg,
        SramScenarioBench::at_vdd(Scenario::ReadSnm, VDD),
        grid(POINTS),
    )
    .run_resumable_observed(&SweepOptions::default(), &NullObserver)
    .map_err(|e| e.to_string())
    .and_then(|run| run.into_parts().map_err(|e| e.to_string()))
    .expect("the direct sweep completes");
    let direct = sweep_answer(&direct_result, &direct_reports, None);

    let check = |what: String, unit: &Result<Unit, String>, checker: &mut Checker| match unit {
        Ok(unit) => {
            let answer = sweep_answer(&result_of(&unit.outcome), &unit.outcome.reports, None);
            let diffs: Vec<String> = answer
                .differences(&direct)
                .into_iter()
                .map(|d| format!("merged {d} differs from the direct run"))
                .collect();
            checker.check_answer(&what, &answer, pin.as_ref(), &diffs);
        }
        Err(e) => checker.op(&what, std::slice::from_ref(e)),
    };
    for (i, unit) in plain.iter().enumerate() {
        check(format!("cluster sweep {i}"), unit, &mut checker);
    }
    for (i, (unit, _)) in traced.iter().enumerate() {
        check(format!("traced cluster sweep {i}"), unit, &mut checker);
    }

    let ok: Vec<&Unit> = plain.iter().filter_map(|u| u.as_ref().ok()).collect();
    let walls: Vec<f64> = ok.iter().map(|u| u.wall_s).collect();
    if !ctx.trace {
        let setups: Vec<f64> = ok.iter().map(|u| u.setup_s).collect();
        let e2e = EndToEnd {
            setups: &setups,
            walls: &walls,
            jobs: &walls,
            simulations: direct_result.total_simulations as f64,
        }
        .metrics(&checker);
        return Outcome {
            checker,
            metrics: e2e,
            pinned: pin.is_some(),
        };
    }

    let mut tally = Tally::new();
    let alphas = grid(POINTS);
    let (mut shards, mut shard_max, mut merge, mut reassigned) = (0usize, 0.0, 0.0, 0u64);
    let mut shard_seconds = Vec::new();
    let mut traced_walls = Vec::new();
    for (unit, logs) in &traced {
        let Ok(unit) = unit else { continue };
        traced_walls.push(unit.wall_s);
        let shard_spans: Vec<&(String, f64, f64)> = unit
            .spans
            .iter()
            .filter(|s| s.0.starts_with("shard-"))
            .collect();
        shards += shard_spans.len();
        shard_seconds.extend(shard_spans.iter().map(|s| s.2));
        shard_max += shard_spans.iter().map(|s| s.2).fold(0.0, f64::max);
        let last_shard_end = shard_spans.iter().map(|s| s.1 + s.2).fold(0.0, f64::max);
        if let Some(job) = unit.spans.iter().find(|s| s.0 == "job") {
            merge += (job.1 + job.2 - last_shard_end).max(0.0);
        }
        reassigned += unit.reassigned;
        // Every shard repeats the shared boundary search and RDF-only
        // reference under its own base bench; the merged document keeps
        // one copy, so that run is listed once per shard.
        let all = sweep_runs(&unit.outcome.reports, &request.config, &alphas);
        let mut runs: Vec<Run<'_>> = vec![all[0]; shard_spans.len().max(1)];
        runs.extend(all.into_iter().skip(1));
        tally.add_unit(&runs, logs, unit.wall_s, WORKERS);
    }
    let units = traced_walls.len().max(1) as f64;
    let mut layers = Metrics::default();
    tally.metrics(&mut layers);
    layers.set("cluster.shards", shards as f64 / units, "count");
    layers.set("cluster.shard_p50_s", median(&shard_seconds), "s");
    layers.set("cluster.shard_max_s", shard_max / units, "s");
    layers.set("cluster.merge_s", merge / units, "s");
    layers.set("cluster.reassigned", reassigned as f64 / units, "count");
    crate::common_layers(
        &mut layers,
        &walls,
        &traced_walls,
        (median(&walls), worst_relative_error(&direct_result)),
        None,
        &checker,
    );
    Outcome {
        checker,
        metrics: layers,
        pinned: pin.is_some(),
    }
}
