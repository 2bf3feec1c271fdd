//! `serve_mix`: an in-process `ecripse-serve` server (journal and
//! verdict store in a scratch directory) driven by a closed loop of
//! [`WIDTH`] client connections, each submitting its job list and
//! waiting for every job with `Client::wait_for_report` before the next,
//! as `ecripse-cli submit` does.
//!
//! Each stream mixes fresh jobs (verdict-cache inserts, journal fsyncs)
//! with exact resubmissions of its own earlier jobs (verdict-cache
//! reads) over two scenarios, RDF-only and RTN. A round boots a fresh
//! server, runs every stream to completion and shuts it down, so rounds
//! repeat exactly. Every served report is compared, timings stripped,
//! with a direct in-process run of the same job.

use crate::answer::{pinned, Answer};
use crate::estimate::VDD;
use crate::harness::{timed_loop, Checker, Ctx, EndToEnd, SplitMix, WIDTH};
use crate::layers::{ratio, RtnDraws, Run, Tally};
use crate::output::Metrics;
use crate::probe::{Ledger, Probe};
use crate::prom::{parse_histograms, PromHistogram};
use crate::stats::median;
use crate::Outcome;
use ecripse_core::ecripse::{Ecripse, EcripseConfig};
use ecripse_core::ensemble::EnsembleConfig;
use ecripse_core::importance::ImportanceConfig;
use ecripse_core::initial::InitialSearchConfig;
use ecripse_core::observe::{RunRecorder, RunReport};
use ecripse_core::particle::ParticleFilterConfig;
use ecripse_core::rtn_source::SramRtn;
use ecripse_core::scenario::{Scenario, SramScenarioBench};
use ecripse_core::sweep::SweepBench;
use ecripse_serve::protocol::{
    EstimateOutcome, JobSpec, JobState, Metrics as ServeMetrics, SubmitRequest,
};
use ecripse_serve::{Client, ServeConfig, Server};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Fresh jobs per stream: two of each scenario × {RDF-only, RTN}.
const FRESH_PER_STREAM: usize = 8;
/// Of those, the large ones (the last three slots, one of each type
/// but RDF-only read SNM).
const LARGE_PER_STREAM: usize = 3;
/// Boundary-search particles and filter iterations of a small and of a
/// large served job. A client sees a job done at its first status poll
/// after the job ends, 10, 30, 70, 150, 310, 630, 1130 ms, … after
/// submission (`Client::wait`), so latencies snap to those steps. With
/// a third of the jobs resubmissions (seen at 10 ms), 5/12 small and
/// 3/12 large, the median falls on the small jobs' 40th percentile and
/// p90 on the large jobs' 60th. On a 2-vCPU machine whose speed
/// drifted by 1.6× under other load, small jobs ran 0.17–0.22 s when
/// it was fast and 0.24–0.41 s when slow, large ones 0.44–0.61 s when
/// slow: both percentiles stay between the same two polls either way.
const SMALL: (usize, usize) = (12, 2);
const LARGE: (usize, usize) = (20, 4);
/// Exact resubmissions per stream (a third of its jobs).
const RESUBMITS_PER_STREAM: usize = 4;
/// The scenarios the mix spans.
const SCENARIOS: [Scenario; 2] = [Scenario::ReadSnm, Scenario::WriteMargin];
/// Fewest rounds of an untraced measurement: 5 × 24 jobs leave 12
/// beyond p90.
const MIN_UNTRACED_ROUNDS: usize = 5;
/// An untraced run restarts the server after every second round (so
/// after rounds 0, 2 and 4 of five): a restart loads a round's verdict
/// store, about 5 s, and `setup_s` is the median of the restarts.
const RESTART_EVERY: usize = 2;
/// Least share of a fresh job's worker-side span its estimate's stage
/// walls must account for.
const MIN_STAGE_COVERAGE: f64 = 0.95;
/// Longest a client waits for one job.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// The estimate of a served or cluster job: small, so the serving layers
/// (HTTP, queue, journal, verdict cache, client polling) carry a visible
/// share of each job's latency. One RTN draw per particle-filter
/// candidate and two per importance sample keep RTN jobs close to
/// RDF-only ones. `serve_mix` sets the boundary-search particles and
/// filter iterations by job size, `cluster_sweep` the particles per
/// filter.
pub fn service_config(scenario: Scenario, seed: u64, rtn: bool) -> EcripseConfig {
    let mut cfg = EcripseConfig {
        scenario,
        initial: InitialSearchConfig {
            count: 8,
            ..InitialSearchConfig::default()
        },
        ensemble: EnsembleConfig {
            n_filters: 2,
            filter: ParticleFilterConfig {
                n_particles: 30,
                sigma_prediction: 0.3,
            },
            max_reseeds: 3,
        },
        iterations: 2,
        importance: ImportanceConfig {
            n_samples: 100,
            m_rtn: 2,
            trace_every: 0,
        },
        m_rtn_stage1: 1,
        seed,
        threads: 1,
        ..EcripseConfig::default()
    };
    cfg.initial.r_max = cfg.initial.r_max.max(scenario.recommended_r_max());
    if !rtn {
        // As `ecripse-cli submit --no-rtn` sets it.
        cfg.importance.m_rtn = 1;
    }
    cfg
}

/// What a direct run of a job yields: P_fail, CI half-width,
/// simulations, importance samples and the run report.
type Direct = (f64, f64, u64, u64, RunReport);

/// One distinct job.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Job {
    scenario: Scenario,
    alpha: Option<f64>,
    seed: u64,
    large: bool,
}

impl Job {
    fn config(&self) -> EcripseConfig {
        let mut cfg = service_config(self.scenario, self.seed, self.alpha.is_some());
        (cfg.initial.count, cfg.iterations) = if self.large { LARGE } else { SMALL };
        cfg
    }

    fn request(&self) -> SubmitRequest {
        let spec = match self.alpha {
            None => JobSpec::rdf_only(VDD),
            Some(alpha) => JobSpec::estimate(VDD, alpha),
        };
        SubmitRequest::with_scenario(self.scenario, self.config(), spec)
    }

    fn rtn(&self) -> Option<RtnDraws> {
        let cfg = self.config();
        self.alpha.map(|_| RtnDraws {
            stage1: cfg.m_rtn_stage1.max(1) as u64,
            stage2: cfg.importance.m_rtn as u64,
        })
    }

    /// The same estimate run directly in-process.
    fn run_direct(&self) -> Direct {
        let bench = SramScenarioBench::at_vdd(self.scenario, VDD);
        let recorder = RunRecorder::new();
        let result = match self.alpha {
            None => Ecripse::new(self.config(), bench).estimate_observed(&recorder),
            Some(alpha) => {
                let rtn = SramRtn::paper_model(alpha, bench.sigmas());
                Ecripse::with_rtn(self.config(), bench, rtn).estimate_observed(&recorder)
            }
        }
        .expect("the reference estimate converges");
        (
            result.p_fail,
            result.ci95_half_width,
            result.simulations,
            result.is_samples,
            recorder.into_report(),
        )
    }
}

/// One entry of a stream: the job and whether it repeats an earlier one.
#[derive(Debug, Clone, Copy)]
struct Planned {
    job: Job,
    resubmit: bool,
}

/// The job lists of the [`WIDTH`] client connections for `seed`. Every
/// resubmission follows its original in the same stream, so it is
/// submitted only after the original finished.
fn plan(seed: u64) -> Vec<Vec<Planned>> {
    (0..WIDTH)
        .map(|s| {
            let mut rng = SplitMix::new(seed, 1 + s as u64);
            let mut fresh: Vec<Job> = (0..FRESH_PER_STREAM)
                .map(|k| {
                    let scenario = SCENARIOS[k % SCENARIOS.len()];
                    let rtn = (k / SCENARIOS.len()) % 2 == 1;
                    Job {
                        scenario,
                        large: k >= FRESH_PER_STREAM - LARGE_PER_STREAM,
                        alpha: rtn.then(|| (1 + rng.below(99)) as f64 / 100.0),
                        // Small, distinct per (stream, slot) — the seeds a
                        // user types, well inside the wire's exact range.
                        seed: 1 + (rng.below(100_000) * 64 + s * FRESH_PER_STREAM + k) as u64,
                    }
                })
                .collect();
            for i in (1..fresh.len()).rev() {
                fresh.swap(i, rng.below(i + 1));
            }
            let mut list: Vec<Planned> = fresh
                .iter()
                .map(|&job| Planned {
                    job,
                    resubmit: false,
                })
                .collect();
            for _ in 0..RESUBMITS_PER_STREAM {
                let target = fresh[rng.below(fresh.len())];
                let at = list
                    .iter()
                    .position(|p| p.job == target && !p.resubmit)
                    .expect("every fresh job is listed");
                let insert = at + 1 + rng.below(list.len() - at);
                list.insert(
                    insert,
                    Planned {
                        job: target,
                        resubmit: true,
                    },
                );
            }
            list
        })
        .collect()
}

/// One served job as the client saw it.
struct Served {
    latency_s: f64,
    done_unix: f64,
    id: Option<u64>,
    outcome: Result<EstimateOutcome, String>,
}

/// One round: boot on an empty directory, run every stream, scrape,
/// shut down (which leaves the journal and verdict store in the
/// directory).
struct Round {
    wall_s: f64,
    /// Jobs in plan order (stream-major).
    jobs: Vec<Served>,
    metrics: Option<ServeMetrics>,
    histograms: BTreeMap<String, PromHistogram>,
    /// The worker-side `job` span of each job: (start, duration).
    job_spans: Vec<Option<(f64, f64)>>,
}

fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

fn run_stream(addr: &str, stream: &[Planned]) -> Vec<Served> {
    let client = Client::new(addr);
    stream
        .iter()
        .map(|planned| {
            let start = Instant::now();
            let outcome = client
                .submit(&planned.job.request())
                .map_err(|e| format!("submit: {e}"))
                .and_then(|status| {
                    client
                        .wait_for_report(status.id, JOB_TIMEOUT)
                        .map(|report| (status.id, report))
                        .map_err(|e| format!("job {}: {e}", status.id))
                });
            let latency_s = start.elapsed().as_secs_f64();
            let done_unix = unix_now();
            let (id, outcome) = match outcome {
                Ok((id, report)) if report.state == JobState::Completed => (
                    Some(id),
                    report
                        .estimate
                        .ok_or_else(|| format!("job {id} completed without an estimate")),
                ),
                Ok((id, report)) => (
                    Some(id),
                    Err(format!(
                        "job {id} ended {}: {}",
                        report.state,
                        report.error.unwrap_or_default()
                    )),
                ),
                Err(e) => (None, Err(e)),
            };
            Served {
                latency_s,
                done_unix,
                id,
                outcome,
            }
        })
        .collect()
}

/// Makes `dir` an empty directory.
fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("scratch dir {}: {e}", dir.display()))
}

/// Copies the files of `from` into a fresh `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fresh_dir(to)?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// Boots a server whose journal and verdict store live in `dir`, and
/// waits until `/readyz` answers 200. Returns the server, a client and
/// the seconds that took.
fn boot<B: SweepBench + 'static>(
    dir: &Path,
    workers: usize,
    factory: impl Fn(Scenario, f64) -> B + Send + Sync + 'static,
) -> Result<(Server<B>, Client, f64), String> {
    let config = ServeConfig {
        workers,
        queue_capacity: 16,
        journal: Some(dir.join("journal.log")),
        cache_store: Some(dir.join("verdicts.json")),
        ..ServeConfig::default()
    };
    let start = Instant::now();
    let server =
        Server::bind_with("127.0.0.1:0", config, factory).map_err(|e| format!("bind: {e}"))?;
    let client = Client::new(server.local_addr().to_string());
    let ready = client.wait_ready(Duration::from_secs(10));
    let setup_s = start.elapsed().as_secs_f64();
    match ready {
        Ok(_) => Ok((server, client, setup_s)),
        Err(e) => {
            server.shutdown();
            Err(format!("server never became ready: {e}"))
        }
    }
}

/// Set-up as a user meets it on a restart: boots a server on a copy of
/// `store` (snapshot load and journal replay, until `/readyz` is 200),
/// then shuts it down. Returns the seconds until it was ready.
fn restart(store: &Path, k: usize) -> Result<f64, String> {
    let dir = scratch_dir(2000 + k);
    let setup = copy_dir(store, &dir)
        .and_then(|()| boot(&dir, WIDTH, SramScenarioBench::at_vdd))
        .map(|(server, _, setup_s)| {
            server.shutdown();
            setup_s
        });
    let _ = std::fs::remove_dir_all(&dir);
    setup
}

fn run_round<B: SweepBench + 'static>(
    plan: &[Vec<Planned>],
    dir: &Path,
    workers: usize,
    traced: bool,
    factory: impl Fn(Scenario, f64) -> B + Send + Sync + 'static,
) -> Result<Round, String> {
    fresh_dir(dir)?;
    let (server, client, _) = boot(dir, workers, factory)?;
    let addr = server.local_addr().to_string();
    let start = Instant::now();
    let streams: Vec<Vec<Served>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .iter()
            .map(|stream| {
                let addr = addr.as_str();
                scope.spawn(move || run_stream(addr, stream))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client stream panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let jobs: Vec<Served> = streams.into_iter().flatten().collect();
    let metrics = client.metrics().ok();
    let histograms = client
        .metrics_prometheus()
        .map(|text| parse_histograms(&text))
        .unwrap_or_default();
    let job_spans = jobs
        .iter()
        .map(|job| {
            let id = job.id.filter(|_| traced)?;
            let trace = client.trace(id).ok()?;
            trace
                .spans
                .iter()
                .find(|s| s.name == "job")
                .map(|s| (s.start_ts, s.duration_s))
        })
        .collect();
    server.shutdown();
    Ok(Round {
        wall_s,
        jobs,
        metrics,
        histograms,
        job_spans,
    })
}

/// The answer of one job: bits, counts and the stripped report. A
/// resubmission is answered from the verdict cache, so its solver
/// effort is zero by design and left out of the comparison.
fn job_answer(
    p_fail: f64,
    ci: f64,
    sims: u64,
    is_samples: u64,
    report: &RunReport,
    resubmit: bool,
) -> Answer {
    let mut answer = Answer {
        bits: vec![p_fail.to_bits(), ci.to_bits()],
        ..Answer::default()
    };
    answer.count("simulations", sims);
    answer.count("is_samples", is_samples);
    answer.digest_report(report, resubmit);
    answer
}

/// The share of a fresh job's worker-side span (start, duration) its
/// estimate's stage walls account for. A resubmission runs no estimate
/// (the verdict cache answers it), so it has none.
fn stage_coverage(
    planned: &Planned,
    out: &EstimateOutcome,
    span: Option<(f64, f64)>,
) -> Option<f64> {
    let (_, duration) = span.filter(|_| !planned.resubmit)?;
    Some(ratio(out.report.total_wall_seconds(), duration))
}

/// Direct in-process answers of every distinct job, computed on
/// [`WIDTH`] threads.
fn references(jobs: &[Job]) -> Vec<Direct> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<Direct>>> =
        jobs.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..WIDTH {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                *slots[i].lock().expect("reference slot") = Some(job.run_direct());
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("reference slot")
                .expect("every reference ran")
        })
        .collect()
}

/// Where round `round` keeps its journal and verdict store (inside the
/// checkout; removed when the round ends).
fn scratch_dir(round: usize) -> PathBuf {
    PathBuf::from(SCRATCH).join(format!("serve-{}-{round}", std::process::id()))
}

/// The benchmark's scratch directory, relative to the working directory
/// (the repository root).
pub const SCRATCH: &str = ".perfbench-tmp";

/// The serve-layer metric names, for the declaration check.
#[cfg(test)]
pub fn layer_names(m: &mut Metrics) {
    for (name, unit) in [
        ("serve.queue_wait_p50_s", "s"),
        ("serve.job_run_p50_s", "s"),
        ("serve.http_p50_s", "s"),
        ("serve.wait_slack_p50_s", "s"),
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.rejected", "count"),
        ("serve.journal_bytes", "bytes"),
        ("serve.resubmit_share", "ratio"),
    ] {
        m.set(name, 0.0, unit);
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let plan = plan(ctx.seed);
    let flat: Vec<Planned> = plan.iter().flatten().copied().collect();
    let mut distinct: Vec<Job> = Vec::new();
    for p in &flat {
        if !distinct.contains(&p.job) {
            distinct.push(p.job);
        }
    }
    let resubmit_share = ratio(
        flat.iter().filter(|p| p.resubmit).count() as f64,
        flat.len() as f64,
    );
    let pin = pinned(ctx.workload.name(), ctx.seed);
    let mut checker = Checker::default();

    // An untraced run alternates rounds and server restarts for the
    // whole budget, so both sample the same stretch of machine time; a
    // traced run spends half on untraced rounds and half on traced ones.
    let (budget, min_units) = match (ctx.trace, ctx.seconds > 0.0) {
        (true, _) => (ctx.seconds / 2.0, 1),
        (false, true) => (ctx.seconds, MIN_UNTRACED_ROUNDS),
        (false, false) => (0.0, 1),
    };
    // The first round's finished journal and verdict store are kept for
    // the restarts.
    let warm = scratch_dir(0).with_extension("warm");
    let units = timed_loop(budget, min_units, |r| {
        let dir = scratch_dir(r);
        let round = run_round(&plan, &dir, WIDTH, false, |scenario, vdd| {
            SramScenarioBench::at_vdd(scenario, vdd)
        });
        if r == 0 {
            let _ = std::fs::rename(&dir, &warm);
        }
        let _ = std::fs::remove_dir_all(&dir);
        let restarted = (!ctx.trace && r % RESTART_EVERY == 0).then(|| restart(&warm, r));
        (round, restarted)
    });
    let (plain, restarts): (Vec<_>, Vec<_>) = units.into_iter().unzip();
    let mut setups: Vec<f64> = Vec::new();
    for restarted in restarts.into_iter().flatten() {
        match restarted {
            Ok(setup_s) => {
                setups.push(setup_s);
                checker.op("server restart", &[]);
            }
            Err(e) => checker.op("server restart", &[e]),
        }
    }
    let _ = std::fs::remove_dir_all(&warm);
    let ledger = Ledger::new();
    let traced: Vec<(Result<Round, String>, Vec<crate::probe::RunLog>)> = if ctx.trace {
        timed_loop(ctx.seconds / 2.0, 1, |r| {
            let shared = std::sync::Arc::clone(&ledger);
            let dir = scratch_dir(1000 + r);
            let round = run_round(&plan, &dir, WIDTH, true, move |scenario, vdd| {
                Probe::new(SramScenarioBench::at_vdd(scenario, vdd), &shared)
            });
            let _ = std::fs::remove_dir_all(&dir);
            (round, ledger.drain())
        })
    } else {
        Vec::new()
    };

    // Check every job of every round against the direct run.
    let refs = references(&distinct);
    let reference = |job: &Job, resubmit: bool| {
        let i = distinct.iter().position(|d| d == job).expect("listed");
        let (p, ci, sims, n, report) = &refs[i];
        job_answer(*p, *ci, *sims, *n, report, resubmit)
    };
    let check_round = |label: &str, round: &Result<Round, String>, checker: &mut Checker| {
        let round = match round {
            Ok(round) => round,
            Err(e) => {
                for _ in &flat {
                    checker.op(label, std::slice::from_ref(e));
                }
                return;
            }
        };
        let mut round_answer = Answer::default();
        for (k, (planned, served)) in flat.iter().zip(&round.jobs).enumerate() {
            let what = format!("{label} job {k}");
            match &served.outcome {
                Ok(out) => {
                    let got = job_answer(
                        out.p_fail,
                        out.ci95_half_width,
                        out.simulations,
                        out.is_samples,
                        &out.report,
                        planned.resubmit,
                    );
                    let want = reference(&planned.job, planned.resubmit);
                    let mut diffs: Vec<String> = got
                        .differences(&want)
                        .into_iter()
                        .map(|d| format!("{d} differs from the direct run"))
                        .collect();
                    let span = round.job_spans.get(k).copied().flatten();
                    if let Some(cover) = stage_coverage(planned, out, span) {
                        if cover < MIN_STAGE_COVERAGE {
                            diffs.push(format!(
                                "stages cover only {:.1}% of the job span",
                                100.0 * cover
                            ));
                        }
                    }
                    checker.op(&what, &diffs);
                    round_answer.bits.extend(&got.bits);
                    round_answer.count("simulations", out.simulations);
                    round_answer.digest =
                        crate::answer::fnv1a(round_answer.digest, &got.digest.to_le_bytes());
                }
                Err(e) => checker.op(&what, std::slice::from_ref(e)),
            }
        }
        checker.check_answer(&format!("{label} answer"), &round_answer, pin.as_ref(), &[]);
    };
    for (r, round) in plain.iter().enumerate() {
        check_round(&format!("round {r}"), round, &mut checker);
    }
    for (r, (round, _)) in traced.iter().enumerate() {
        check_round(&format!("traced round {r}"), round, &mut checker);
    }

    let ok: Vec<&Round> = plain.iter().filter_map(|r| r.as_ref().ok()).collect();
    let latencies: Vec<f64> = ok
        .iter()
        .flat_map(|r| r.jobs.iter().map(|j| j.latency_s))
        .collect();
    let walls: Vec<f64> = ok.iter().map(|r| r.wall_s).collect();
    if !ctx.trace {
        println!(
            "job_p90_s rests on {} of {} jobs beyond it",
            crate::stats::beyond(&latencies, 0.9),
            latencies.len()
        );
        let simulations = checker
            .first_answer
            .as_ref()
            .map_or(0.0, |a| a.get("simulations") as f64);
        let e2e = EndToEnd {
            setups: &setups,
            walls: &walls,
            jobs: &latencies,
            simulations,
        }
        .metrics(&checker);
        return Outcome {
            checker,
            metrics: e2e,
            pinned: pin.is_some(),
        };
    }

    let mut tally = Tally::new();
    let mut histograms: BTreeMap<String, PromHistogram> = BTreeMap::new();
    let mut slack = Vec::new();
    let (mut hits, mut lookups, mut rejected, mut journal_bytes) = (0u64, 0u64, 0u64, 0u64);
    let mut coverage = f64::INFINITY;
    let mut traced_walls = Vec::new();
    for (round, logs) in &traced {
        let Ok(round) = round else { continue };
        traced_walls.push(round.wall_s);
        let mut runs = Vec::new();
        for (planned, served) in flat.iter().zip(&round.jobs) {
            if let Ok(out) = &served.outcome {
                runs.push(Run {
                    report: &out.report,
                    rtn: planned.job.rtn(),
                    key: None,
                });
            }
        }
        tally.add_unit(&runs, logs, round.wall_s, WIDTH);
        for (name, hist) in &round.histograms {
            histograms.entry(name.clone()).or_default().merge(hist);
        }
        for ((served, span), planned) in round.jobs.iter().zip(&round.job_spans).zip(&flat) {
            if let (Some((start, duration)), Ok(out)) = (span, &served.outcome) {
                slack.push(served.done_unix - (start + duration));
                if let Some(cover) = stage_coverage(planned, out, *span) {
                    coverage = coverage.min(cover);
                }
            }
        }
        if let Some(m) = &round.metrics {
            hits += m.cache_hits;
            lookups += m.cache_hits + m.cache_misses;
            rejected += m.rejected;
            journal_bytes += m.journal_bytes;
        }
    }
    let rounds = traced_walls.len().max(1) as f64;
    let p50 = |name: &str| {
        histograms
            .get(name)
            .and_then(|h| h.quantile(0.5))
            .unwrap_or(0.0)
    };
    let mut layers = Metrics::default();
    tally.metrics(&mut layers);
    layers.set(
        "serve.queue_wait_p50_s",
        p50("ecripse_serve_queue_wait_seconds"),
        "s",
    );
    layers.set("serve.job_run_p50_s", p50("ecripse_serve_job_seconds"), "s");
    layers.set(
        "serve.http_p50_s",
        p50("ecripse_serve_http_request_seconds"),
        "s",
    );
    layers.set("serve.wait_slack_p50_s", median(&slack), "s");
    layers.set(
        "serve.cache_hit_ratio",
        ratio(hits as f64, lookups as f64),
        "ratio",
    );
    layers.set("serve.rejected", rejected as f64 / rounds, "count");
    layers.set(
        "serve.journal_bytes",
        journal_bytes as f64 / rounds,
        "bytes",
    );
    layers.set("serve.resubmit_share", resubmit_share, "ratio");
    // A served job's time to 10 % uses the median job's relative error.
    let errors: Vec<f64> = refs.iter().map(|(p, ci, ..)| ratio(*ci, *p)).collect();
    crate::common_layers(
        &mut layers,
        &walls,
        &traced_walls,
        (median(&latencies), median(&errors)),
        coverage.is_finite().then_some(coverage),
        &checker,
    );
    Outcome {
        checker,
        metrics: layers,
        pinned: pin.is_some(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_seeded_and_resubmits_follow_their_original() {
        let a = plan(42);
        let b = plan(42);
        let c = plan(43);
        let seeds =
            |p: &[Vec<Planned>]| -> Vec<u64> { p.iter().flatten().map(|j| j.job.seed).collect() };
        assert_eq!(seeds(&a), seeds(&b));
        assert_ne!(seeds(&a), seeds(&c));
        // One list per connection, whatever the box: the pins hold the
        // answers of exactly these jobs.
        assert_eq!(a.len(), WIDTH);
        let mut all_fresh = Vec::new();
        for stream in &a {
            assert_eq!(stream.len(), FRESH_PER_STREAM + RESUBMITS_PER_STREAM);
            for (i, p) in stream.iter().enumerate() {
                if p.resubmit {
                    assert!(stream[..i].iter().any(|q| q.job == p.job && !q.resubmit));
                } else {
                    all_fresh.push(p.job);
                }
            }
            for scenario in SCENARIOS {
                for rtn in [false, true] {
                    let n = stream
                        .iter()
                        .filter(|p| {
                            !p.resubmit
                                && p.job.scenario == scenario
                                && p.job.alpha.is_some() == rtn
                        })
                        .count();
                    assert_eq!(n, 2, "{scenario:?} rtn={rtn}");
                }
            }
        }
        // Fresh jobs never repeat, within or across streams.
        for (i, x) in all_fresh.iter().enumerate() {
            assert!(all_fresh[i + 1..].iter().all(|y| y.seed != x.seed));
            assert!(x.seed < 1 << 53);
        }
    }
}
