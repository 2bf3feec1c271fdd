//! Records `BENCH_parallel.json`: wall-clock of the fig6/headline
//! RDF-only workload under the batched + parallel pipeline, comparing
//! the fixed-resolution cold path against the warm-started stack
//! (adaptive butterfly resolution + two-tier neighbour cache) and a
//! resident service resubmission served from the persistent verdict
//! store.
//!
//! ```text
//! cargo run --release -p ecripse-bench --bin bench_parallel \
//!     [--quick] [--threads N] [--check PATH]
//! ```
//!
//! Every configuration runs the same seed and must produce the same
//! `P_fail` and simulation count (the determinism contract); the binary
//! asserts this before writing the report. With `--check PATH` the run
//! instead compares its estimates, simulation counts and solver effort
//! (Newton iterations, factorisations) against the reference report at
//! `PATH` (the committed `BENCH_parallel.json`) and exits non-zero on any
//! drift — the CI smoke job runs this in `--quick` mode. Effort is not
//! gated on a multi-threaded config that offers warm-start seeds: which
//! seed a query gets there depends on thread scheduling. The JSON lands
//! in the repository root (next to the figure outputs' `results/`), with
//! the core count recorded so numbers from different machines are not
//! compared blindly.

use ecripse_bench::{fmt_count, paper_config, quick_mode};
use ecripse_core::bench::{SramReadBench, Testbench};
use ecripse_core::cache::{MemoCacheConfig, WarmBench, WarmCacheConfig};
use ecripse_core::ecripse::{Ecripse, EcripseConfig, EcripseResult};
use ecripse_core::scenario::{Scenario, SramScenarioBench};
use ecripse_core::telemetry::{MetricsRegistry, TelemetryObserver};
use ecripse_serve::shared::{tag_for, SharedBench, VerdictCache};
use ecripse_spice::testbench::BenchConfig;
use serde::{Deserialize, Serialize};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize, Deserialize)]
struct ConfigReport {
    name: String,
    threads: usize,
    /// Whether the adaptive coarse-first butterfly policy was active.
    adaptive: bool,
    seconds: f64,
    p_fail: f64,
    simulations: u64,
    cache_hits: u64,
    cache_misses: u64,
    /// `None` until the memo-cache has seen traffic (was the string
    /// `"NaN"` in schema v1 reports).
    cache_hit_rate: Option<f64>,
    /// Bisection iterations spent inside the circuit solver.
    newton_iters: u64,
    /// Operating-point curve solves (LU factorisations).
    factorisations: u64,
    /// Butterfly evaluations warm-started from a neighbour seed.
    warm_start_seeds: u64,
    /// Warm-cache exact-tier hits (0 for configs without the cache).
    warm_exact_hits: u64,
    /// Warm-cache neighbour-tier seeds offered.
    warm_seeded: u64,
    /// Raw simulator batches observed by the telemetry bridge.
    sim_batches: u64,
    /// Simulator-batch latency percentiles in seconds (0 when no
    /// batches were recorded).
    sim_batch_p50_s: f64,
    sim_batch_p90_s: f64,
    sim_batch_p99_s: f64,
}

#[derive(Serialize, Deserialize)]
struct Report {
    workload: String,
    cores: usize,
    quick: bool,
    configs: Vec<ConfigReport>,
    /// Wall-clock ratio of the fixed-resolution cold path over the
    /// warm-started serial stack (adaptive + neighbour cache).
    speedup_batch_solver: f64,
    /// Wall-clock ratio of all-cores over serial, both warm-started.
    speedup_parallel_vs_serial: f64,
    /// Wall-clock ratio of the cold service run over resubmission
    /// against the snapshot-restored persistent verdict store.
    speedup_warm_serve: f64,
    note: String,
}

/// One measured configuration: wall-clock, estimate, and the full
/// counter set (memo-cache, solver effort, warm-cache tiers). The
/// `(exact hits, seeded)` counts of the config's warm tier are read by
/// `warm_tiers` once the run has finished.
fn run_bench<B: Testbench>(
    name: &str,
    mut cfg: EcripseConfig,
    threads: usize,
    adaptive: bool,
    bench: B,
    warm_tiers: impl FnOnce() -> (u64, u64),
) -> ConfigReport {
    cfg.threads = threads;
    cfg.cache = MemoCacheConfig::default();
    // A per-config registry: the telemetry bridge times every raw
    // simulator batch, giving latency percentiles next to wall-clock.
    let registry = MetricsRegistry::new();
    let bridge = TelemetryObserver::new(&registry);
    let t = Instant::now();
    let res: EcripseResult = Ecripse::new(cfg, bench)
        .estimate_observed(&bridge)
        .expect("estimate");
    let seconds = t.elapsed().as_secs_f64();
    let batches = registry.histogram(
        "ecripse_sim_batch_seconds",
        "Wall-clock latency of one raw simulator batch",
    );
    let (p50, p90, p99) = batches.percentiles().unwrap_or((0.0, 0.0, 0.0));
    let stats = &res.oracle_stats;
    let (warm_exact_hits, warm_seeded) = warm_tiers();
    let memo_total = stats.cache_hits + stats.cache_misses;
    let report = ConfigReport {
        name: name.to_string(),
        threads,
        adaptive,
        seconds,
        p_fail: res.p_fail,
        simulations: res.simulations,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        cache_hit_rate: (memo_total > 0).then(|| stats.cache_hits as f64 / memo_total as f64),
        newton_iters: stats.newton_iters,
        factorisations: stats.factorisations,
        warm_start_seeds: stats.warm_start_seeds,
        warm_exact_hits,
        warm_seeded,
        sim_batches: batches.count(),
        sim_batch_p50_s: p50,
        sim_batch_p90_s: p90,
        sim_batch_p99_s: p99,
    };
    println!(
        "{name:<18} {seconds:>8.2} s   P_fail {:.4e}   {} sims   newton {}   warm seeds {}   exact hits {}",
        report.p_fail,
        fmt_count(report.simulations),
        fmt_count(report.newton_iters),
        fmt_count(report.warm_start_seeds),
        fmt_count(report.warm_exact_hits),
    );
    report
}

/// The fixed-resolution reference bench: adaptive policy disabled, every
/// butterfly solved on the full grid at the legacy tolerance.
fn fixed_bench() -> SramReadBench {
    let mut config = BenchConfig::default();
    config.adaptive.enabled = false;
    SramReadBench::with_config(config)
}

/// The `--check PATH` argument, if present.
fn check_path() -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--check" {
            return Some(a_next(&mut args));
        }
    }
    None
}

fn a_next(args: &mut std::env::Args) -> String {
    args.next()
        .unwrap_or_else(|| panic!("--check requires a reference report path"))
}

/// Compares the fresh measurement against the committed reference at
/// `reference_path`; see [`compare`].
fn check_against(reference_path: &str, fresh: &Report) -> Result<(), String> {
    let text = std::fs::read_to_string(reference_path)
        .map_err(|e| format!("cannot read reference {reference_path}: {e}"))?;
    let reference: Report = serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse reference {reference_path}: {e}"))?;
    compare(&reference, fresh)
}

/// Whether a config's solver effort is a function of the seed alone. A
/// multi-threaded run that offers warm-start seeds picks them in
/// whatever order the threads reach the warm tier, so its Newton
/// iterations and factorisations depend on scheduling; every other
/// config repeats them exactly.
fn effort_is_deterministic(config: &ConfigReport) -> bool {
    config.threads == 1 || config.warm_start_seeds == 0
}

/// Estimates and simulation counts must match the reference bit-exactly
/// per config, and so must Newton iterations and factorisations wherever
/// the reference's effort is deterministic (wall-clock and latency
/// fields are machine-dependent and ignored).
fn compare(reference: &Report, fresh: &Report) -> Result<(), String> {
    let mut drift = Vec::new();
    for fresh_config in &fresh.configs {
        let Some(ref_config) = reference
            .configs
            .iter()
            .find(|c| c.name == fresh_config.name)
        else {
            drift.push(format!(
                "config {:?} missing from the reference report",
                fresh_config.name
            ));
            continue;
        };
        let name = &fresh_config.name;
        if fresh_config.p_fail.to_bits() != ref_config.p_fail.to_bits() {
            drift.push(format!(
                "{name}: P_fail {} != reference {}",
                fresh_config.p_fail, ref_config.p_fail
            ));
        }
        let mut counters = vec![(
            "simulations",
            fresh_config.simulations,
            ref_config.simulations,
        )];
        if effort_is_deterministic(ref_config) {
            counters.push((
                "newton_iters",
                fresh_config.newton_iters,
                ref_config.newton_iters,
            ));
            counters.push((
                "factorisations",
                fresh_config.factorisations,
                ref_config.factorisations,
            ));
        } else {
            println!("{name}: effort not gated (schedule-dependent)");
        }
        for (counter, got, want) in counters {
            if got != want {
                drift.push(format!("{name}: {got} {counter} != reference {want}"));
            }
        }
    }
    if reference.quick != fresh.quick {
        drift.push(format!(
            "mode mismatch: reference quick={}, this run quick={}",
            reference.quick, fresh.quick
        ));
    }
    if drift.is_empty() {
        Ok(())
    } else {
        Err(drift.join("\n"))
    }
}

fn main() -> ExitCode {
    let quick = quick_mode();
    let n_is = if quick { 30_000 } else { 400_000 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = paper_config(n_is, 1);
    println!(
        "=== Parallel-pipeline benchmark: fig6/headline RDF-only workload ({} IS samples, {} cores) ===",
        fmt_count(n_is as u64),
        cores
    );

    // 1. The cold reference: fixed-resolution butterflies, no caches
    //    beyond the per-run memo-cache every config shares.
    let no_warm_tier = || (0, 0);
    let serial_fixed = run_bench("serial_fixed", cfg, 1, false, fixed_bench(), no_warm_tier);

    // 2/3. The warm-started stack: adaptive coarse-first resolution plus
    //    the two-tier neighbour cache, serial and all-cores. The cache
    //    layers *below* the pipeline's counters, so the simulation
    //    counts must not move.
    let warm = WarmBench::new(SramReadBench::paper_cell(), WarmCacheConfig::default());
    let warm_tiers = || {
        let stats = warm.stats();
        (stats.exact_hits, stats.seeded)
    };
    let serial_warm = run_bench("serial_warm", cfg, 1, true, &warm, warm_tiers);
    warm.clear();
    let all_cores_warm = run_bench("all_cores_warm", cfg, 0, true, &warm, warm_tiers);

    // 4. The resident-service path: a cold run populates the shared
    //    verdict cache, the snapshot round-trips through the persistent
    //    store, and the resubmission is served from the restored cache.
    let store = Arc::new(VerdictCache::new(MemoCacheConfig::default()));
    let tag = tag_for(&[0x6669_6736]);
    let cold_serve = run_bench(
        "cold_serve",
        cfg,
        0,
        true,
        SharedBench::new(SramReadBench::paper_cell(), tag, Arc::clone(&store), true),
        no_warm_tier,
    );
    let snapshot = std::env::temp_dir().join(format!(
        "ecripse-bench-verdicts-{}.json",
        std::process::id()
    ));
    let saved = store.save_snapshot(&snapshot).expect("save verdict store");
    let restored = Arc::new(VerdictCache::new(MemoCacheConfig::default()));
    let loaded = restored
        .load_snapshot(&snapshot)
        .expect("load verdict store");
    assert_eq!(saved, loaded, "the snapshot must round-trip losslessly");
    let _ = std::fs::remove_file(&snapshot);
    let warm_serve = run_bench(
        "warm_serve",
        cfg,
        0,
        true,
        SharedBench::new(
            SramReadBench::paper_cell(),
            tag,
            Arc::clone(&restored),
            true,
        ),
        || (restored.hits(), 0),
    );

    // 5. One non-default scenario: the hold-snm indicator through the
    //    same pipeline. Its estimate answers a different question, so it
    //    stays out of the cross-config invariance loop below; the
    //    `--check` pass still pins its own estimate bit-exactly.
    let hold_snm = {
        let mut hold_cfg = cfg;
        hold_cfg.scenario = Scenario::HoldSnm;
        hold_cfg.initial.r_max = hold_cfg
            .initial
            .r_max
            .max(Scenario::HoldSnm.recommended_r_max());
        run_bench(
            "hold_snm_scenario",
            hold_cfg,
            0,
            true,
            SramScenarioBench::paper_cell(Scenario::HoldSnm),
            no_warm_tier,
        )
    };

    let configs = vec![
        serial_fixed,
        serial_warm,
        all_cores_warm,
        cold_serve,
        warm_serve,
        hold_snm,
    ];

    // The determinism contract: thread count, the adaptive resolution
    // policy, and every cache tier must not change the estimate or the
    // simulation count. The hold-snm scenario (last config) estimates a
    // different indicator and is exempt.
    for c in &configs[1..5] {
        assert_eq!(
            c.p_fail.to_bits(),
            configs[0].p_fail.to_bits(),
            "P_fail must be invariant ({} vs serial_fixed)",
            c.name
        );
        assert_eq!(
            c.simulations, configs[0].simulations,
            "simulation count must be invariant ({} vs serial_fixed)",
            c.name
        );
    }
    assert!(
        configs[1].warm_exact_hits + configs[1].warm_seeded > 0,
        "the warm cache must actually engage on this workload"
    );
    assert!(
        configs[4].warm_exact_hits > 0,
        "the restored store must serve the resubmission"
    );
    assert!(
        configs[5].p_fail.to_bits() != configs[0].p_fail.to_bits(),
        "hold-snm estimates a different indicator and must not echo the read-snm number"
    );

    let speedup_batch_solver = configs[0].seconds / configs[1].seconds;
    let speedup_parallel = configs[1].seconds / configs[2].seconds;
    let speedup_warm_serve = configs[3].seconds / configs[4].seconds;
    println!(
        "\nwarm vs fixed (serial): {speedup_batch_solver:.2}x   all-cores vs serial: \
         {speedup_parallel:.2}x   store-warmed resubmission: {speedup_warm_serve:.2}x"
    );

    let report = Report {
        workload: format!(
            "fig6/headline RDF-only estimate, paper_config({n_is}, 1), SramReadBench::paper_cell()"
        ),
        cores,
        quick,
        configs,
        speedup_batch_solver,
        speedup_parallel_vs_serial: speedup_parallel,
        speedup_warm_serve,
        note: format!(
            "Measured on a {cores}-core machine. The parallel-vs-serial ratio is \
             bounded by the core count; on a single core it measures pure batching \
             overhead. serial_fixed disables the adaptive butterfly policy and all \
             warm-start caches; warm_serve resubmits against a verdict cache \
             restored from the persistent snapshot. P_fail and simulation counts \
             are asserted bit-identical across all read-snm configurations; \
             hold_snm_scenario runs the hold-retention indicator through the same \
             pipeline and is pinned by --check but exempt from cross-config \
             invariance."
        ),
    };

    if let Some(reference) = check_path() {
        return match check_against(&reference, &report) {
            Ok(()) => {
                println!("check passed: estimates and effort match {reference}");
                ExitCode::SUCCESS
            }
            Err(drift) => {
                eprintln!("benchmark drift against {reference}:\n{drift}");
                ExitCode::FAILURE
            }
        };
    }
    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    std::fs::write("BENCH_parallel.json", json).expect("write BENCH_parallel.json");
    eprintln!("wrote BENCH_parallel.json");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(name: &str, threads: usize, warm_start_seeds: u64) -> ConfigReport {
        ConfigReport {
            name: name.to_string(),
            threads,
            adaptive: true,
            seconds: 1.0,
            p_fail: 1.25e-4,
            simulations: 4009,
            cache_hits: 0,
            cache_misses: 0,
            cache_hit_rate: None,
            newton_iters: 5_186_332,
            factorisations: 329_172,
            warm_start_seeds,
            warm_exact_hits: 0,
            warm_seeded: 0,
            sim_batches: 0,
            sim_batch_p50_s: 0.0,
            sim_batch_p90_s: 0.0,
            sim_batch_p99_s: 0.0,
        }
    }

    fn report(configs: Vec<ConfigReport>) -> Report {
        Report {
            workload: "test".to_string(),
            cores: 1,
            quick: true,
            configs,
            speedup_batch_solver: 1.0,
            speedup_parallel_vs_serial: 1.0,
            speedup_warm_serve: 1.0,
            note: String::new(),
        }
    }

    /// The committed reference's shapes: serial warm, all-cores warm,
    /// all-cores without warm-start seeds.
    fn reference() -> Report {
        report(vec![
            config("serial_warm", 1, 175_080),
            config("all_cores_warm", 0, 175_080),
            config("cold_serve", 0, 0),
        ])
    }

    #[test]
    fn identical_runs_pass() {
        assert_eq!(compare(&reference(), &reference()), Ok(()));
    }

    #[test]
    fn one_newton_iteration_off_fails_a_gated_config() {
        for name in ["serial_warm", "cold_serve"] {
            let mut fresh = reference();
            let c = fresh.configs.iter_mut().find(|c| c.name == name).unwrap();
            c.newton_iters += 1;
            let drift = compare(&reference(), &fresh).unwrap_err();
            assert!(
                drift.contains(&format!("{name}: 5186333 newton_iters")),
                "{drift}"
            );
        }
    }

    #[test]
    fn one_factorisation_off_fails_a_gated_config() {
        let mut fresh = reference();
        fresh.configs[2].factorisations -= 1;
        let drift = compare(&reference(), &fresh).unwrap_err();
        assert!(
            drift.contains("cold_serve: 329171 factorisations"),
            "{drift}"
        );
    }

    #[test]
    fn schedule_dependent_effort_is_not_gated() {
        let mut fresh = reference();
        fresh.configs[1].newton_iters -= 2696;
        fresh.configs[1].factorisations += 7;
        assert_eq!(compare(&reference(), &fresh), Ok(()));
        // Its estimate and simulation count stay gated.
        fresh.configs[1].simulations += 1;
        assert!(compare(&reference(), &fresh).is_err());
    }
}
