//! What every workload shares: the run context, failure accounting,
//! the timed loop and the end-to-end metric assembly.

use crate::answer::Answer;
use crate::output::Metrics;
use crate::stats::{median, quantile};
use std::time::Instant;

/// Threads (or server workers, or client connections) of the parallel
/// workloads. The pins hold the answers at this width, so it is fixed;
/// a box with fewer cores is refused.
pub const WIDTH: usize = 2;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 6 headline estimate: RDF-only, read SNM, one thread.
    EstimateRdf,
    /// 11-point duty sweep with the RTN inner loop.
    SweepRtn,
    /// In-process server, closed loop of clients, fresh + repeat jobs.
    ServeMix,
    /// Coordinator + two joined workers running one sharded sweep.
    ClusterSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::EstimateRdf,
        Workload::SweepRtn,
        Workload::ServeMix,
        Workload::ClusterSweep,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EstimateRdf => "estimate_rdf",
            Workload::SweepRtn => "sweep_rtn",
            Workload::ServeMix => "serve_mix",
            Workload::ClusterSweep => "cluster_sweep",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one invocation runs.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// The measuring budget in seconds.
    pub seconds: f64,
    /// Traced run: report the per-layer ledger instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Usable cores.
    pub nproc: usize,
}

/// Counts operations and the ones that failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Checker {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: an error, a timeout, a refusal, a wrong
    /// answer, a drifting count, or a broken ledger invariant.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
    /// The first unit answer of the run, which later units must repeat.
    pub first_answer: Option<Answer>,
}

impl Checker {
    /// Records one operation with the problems found in it.
    pub fn op(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.notes.push(format!("{what}: {}", problems.join("; ")));
        }
    }

    /// Checks a unit's answer against the pin for this seed (if any)
    /// and against the first answer of this run: P_fail bits, stripped
    /// reports and exact counters must all repeat.
    pub fn check_answer(
        &mut self,
        what: &str,
        answer: &Answer,
        pinned: Option<&Answer>,
        extra: &[String],
    ) {
        let mut problems: Vec<String> = extra.to_vec();
        if let Some(pin) = pinned {
            problems.extend(
                answer
                    .differences(pin)
                    .into_iter()
                    .map(|d| format!("{d} differs from the pin")),
            );
        }
        match &self.first_answer {
            Some(reference) => problems.extend(
                answer
                    .differences(reference)
                    .into_iter()
                    .map(|d| format!("{d} drifted from the run's first unit")),
            ),
            None => self.first_answer = Some(answer.clone()),
        }
        self.op(what, &problems);
    }

    /// The share of operations that succeeded.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }
}

/// Runs `unit` repeatedly for about `budget` seconds: at least
/// `min_units` times, then never starting a unit that the slowest one
/// so far says would end past the budget.
pub fn timed_loop<T>(budget: f64, min_units: usize, mut unit: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut slowest: f64 = 0.0;
    loop {
        let before = Instant::now();
        out.push(unit(out.len()));
        slowest = slowest.max(before.elapsed().as_secs_f64());
        if out.len() >= min_units && start.elapsed().as_secs_f64() + slowest > budget {
            return out;
        }
    }
}

/// Batches timed for a sub-microsecond set-up.
pub const SETUP_BATCHES: usize = 51;
/// Constructions per timed batch.
pub const SETUP_PER_BATCH: usize = 1000;

/// Median seconds of one call of `f`, over `batches` timings of
/// `per_batch` calls each (set-up cost of cheap constructions, where a
/// single timed call is mostly timer noise).
pub fn median_seconds<T>(batches: usize, per_batch: usize, mut f: impl FnMut() -> T) -> f64 {
    let per_batch = per_batch.max(1);
    let samples: Vec<f64> = (0..batches.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                std::hint::black_box(f());
            }
            t.elapsed().as_secs_f64() / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics every workload reports. A "job" is what the
/// workload's user waits for: one estimate, one sweep, one served job,
/// one cluster sweep job.
pub struct EndToEnd<'a> {
    /// Set-up times (one per set-up, or per-set-up medians).
    pub setups: &'a [f64],
    /// Timed-region seconds per unit.
    pub walls: &'a [f64],
    /// Client-observed seconds per job.
    pub jobs: &'a [f64],
    /// Simulations per unit.
    pub simulations: f64,
}

impl EndToEnd<'_> {
    /// The `end_to_end` metrics of `BENCHMARK.json`.
    pub fn metrics(&self, checker: &Checker) -> Metrics {
        let walls: Vec<String> = self.walls.iter().map(|w| format!("{w:.4}")).collect();
        println!(
            "{} unit(s), wall seconds: {}",
            self.walls.len(),
            walls.join(" ")
        );
        let mut m = Metrics::default();
        m.set("setup_s", median(self.setups), "s");
        m.set("wall_s", median(self.walls), "s");
        // Throughput of the median unit: jobs per unit over its wall time.
        let jobs_per_unit = self.jobs.len() as f64 / self.walls.len().max(1) as f64;
        m.set(
            "jobs_per_s",
            crate::layers::ratio(jobs_per_unit, median(self.walls)),
            "1/s",
        );
        m.set("job_p50_s", median(self.jobs), "s");
        m.set("job_p90_s", quantile(self.jobs, 0.9).unwrap_or(0.0), "s");
        m.set("simulations", self.simulations, "count");
        m.set("ok_frac", checker.ok_frac(), "ratio");
        m.set("peak_rss_mb", peak_rss_mb(), "MiB");
        m
    }
}

/// A small deterministic generator (SplitMix64) for the workload
/// inputs derived from the seed.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, decorrelated by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_p_fail_bit_counts_as_a_failure() {
        let mut pin = Answer {
            bits: vec![1.2345e-4f64.to_bits()],
            ..Answer::default()
        };
        pin.count("simulations", 4000);
        let mut checker = Checker::default();
        checker.check_answer("unit 0", &pin.clone(), Some(&pin), &[]);
        assert_eq!((checker.attempted, checker.failed), (1, 0));

        let mut flipped = pin.clone();
        flipped.bits[0] ^= 1 << 7;
        checker.check_answer("unit 1", &flipped, Some(&pin), &[]);
        assert_eq!((checker.attempted, checker.failed), (2, 1));
        assert!(checker.notes[0].contains("p_fail bits"));
        assert!((checker.ok_frac() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_drifting_count_without_a_pin_is_caught_by_repeat_equality() {
        let mut a = Answer::default();
        a.count("spice.newton_iters", 10);
        let mut b = a.clone();
        b.count("spice.newton_iters", 1);
        let mut checker = Checker::default();
        checker.check_answer("u0", &a, None, &[]);
        checker.check_answer("u1", &b, None, &[]);
        assert_eq!(checker.failed, 1);
        assert!(checker.notes[0].contains("spice.newton_iters"));
    }

    #[test]
    fn timed_loop_runs_at_least_once_and_respects_the_budget() {
        let units = timed_loop(0.0, 1, |i| i);
        assert_eq!(units, vec![0]);
        assert_eq!(timed_loop(0.0, 3, |i| i), vec![0, 1, 2]);
        let start = Instant::now();
        let units = timed_loop(0.05, 1, |_| {
            std::thread::sleep(std::time::Duration::from_millis(10))
        });
        assert!(units.len() >= 2 && units.len() <= 5, "{}", units.len());
        assert!(start.elapsed().as_secs_f64() < 0.1);
    }

    #[test]
    fn median_seconds_is_per_call() {
        let calls = std::cell::Cell::new(0);
        let s = median_seconds(3, 4, || calls.set(calls.get() + 1));
        assert_eq!(calls.get(), 12);
        assert!((0.0..1e-3).contains(&s), "{s}");
    }

    #[test]
    fn split_mix_is_deterministic_per_seed_and_stream() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = SplitMix::new(7, 1);
        let mut y = SplitMix::new(7, 2);
        assert_ne!(x.next_u64(), y.next_u64());
        assert!((0..100).all(|_| x.below(3) < 3));
    }
}
