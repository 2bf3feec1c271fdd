//! The benchmark's seam under every core layer: a forwarding wrapper
//! around the raw testbench that logs each call reaching the simulator.
//!
//! `Ecripse` stacks its oracle, memo-cache, retry ladder and simulation
//! counter on top of whatever bench it is given, so a [`Probe`] handed
//! to it sits below all of them and sees exactly the evaluations that
//! reach the circuit solver. It forwards every [`Testbench`] method
//! untouched — verdicts, errors and solver effort pass through bit for
//! bit — and only appends `(start, end, samples)` to a per-run log.

use ecripse_core::bench::{EvalError, SolveEffort, Testbench};
use ecripse_core::sweep::SweepBench;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One call that reached the simulator.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    /// When the call entered the wrapped bench.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// Samples it evaluated.
    pub samples: u64,
}

impl Batch {
    /// Wall-clock seconds the call took.
    pub fn seconds(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// Which pipeline run a log belongs to: the bench a run was built with
/// (`Base`), or the per-point bench a duty sweep derives with
/// [`SweepBench::at_alpha`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunKey {
    /// The bench as constructed (boundary search, RDF-only reference,
    /// or a plain estimate).
    Base,
    /// The bench of the sweep point at this duty ratio.
    Alpha(f64),
}

type EffortFn = Box<dyn Fn() -> SolveEffort + Send + Sync>;

/// The batch log of one run.
struct Log {
    key: RunKey,
    batches: Mutex<Vec<Batch>>,
    /// Reads the bench's cumulative solver effort; set on `Base` logs
    /// only, because a swept bench's clones share one effort ledger.
    effort: Option<EffortFn>,
}

/// A drained log: the run it belongs to, its batches in start order and
/// (for `Base` runs) the bench's total solver effort.
pub struct RunLog {
    /// The run.
    pub key: RunKey,
    /// Its batches, sorted by start time.
    pub batches: Vec<Batch>,
    /// Cumulative solver effort of the bench and all its clones.
    pub effort: Option<SolveEffort>,
}

/// Every log opened by the probes that share it.
#[derive(Default)]
pub struct Ledger {
    logs: Mutex<Vec<Arc<Log>>>,
}

impl Ledger {
    /// A fresh, shareable ledger.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn open(&self, key: RunKey, effort: Option<EffortFn>) -> Arc<Log> {
        let log = Arc::new(Log {
            key,
            batches: Mutex::new(Vec::new()),
            effort,
        });
        self.logs
            .lock()
            .expect("ledger lock poisoned")
            .push(Arc::clone(&log));
        log
    }

    /// Takes every log recorded so far, leaving the ledger empty.
    pub fn drain(&self) -> Vec<RunLog> {
        let logs = std::mem::take(&mut *self.logs.lock().expect("ledger lock poisoned"));
        logs.into_iter()
            .map(|log| {
                let mut batches =
                    std::mem::take(&mut *log.batches.lock().expect("log lock poisoned"));
                batches.sort_by_key(|b| b.start);
                RunLog {
                    key: log.key,
                    batches,
                    effort: log.effort.as_ref().map(|read| read()),
                }
            })
            .collect()
    }
}

/// The logging wrapper. Clones share their log (a run evaluates through
/// many clones); [`SweepBench::at_alpha`] opens a new one.
#[derive(Clone)]
pub struct Probe<B> {
    inner: B,
    ledger: Arc<Ledger>,
    log: Arc<Log>,
}

impl<B: Testbench + Clone + Send + Sync + 'static> Probe<B> {
    /// Wraps `inner`, logging into a new `Base` run of `ledger`.
    pub fn new(inner: B, ledger: &Arc<Ledger>) -> Self {
        let handle = inner.clone();
        let log = ledger.open(RunKey::Base, Some(Box::new(move || handle.solve_effort())));
        Self {
            inner,
            ledger: Arc::clone(ledger),
            log,
        }
    }
}

impl<B> Probe<B> {
    fn timed<T>(&self, samples: usize, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        if samples > 0 {
            self.log
                .batches
                .lock()
                .expect("log lock poisoned")
                .push(Batch {
                    start,
                    end,
                    samples: samples as u64,
                });
        }
        out
    }
}

impl<B: Testbench> Testbench for Probe<B> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn fails(&self, z: &[f64]) -> bool {
        self.timed(1, || self.inner.fails(z))
    }

    fn fails_batch(&self, zs: &[Vec<f64>]) -> Vec<bool> {
        self.timed(zs.len(), || self.inner.fails_batch(zs))
    }

    fn try_fails(&self, z: &[f64]) -> Result<bool, EvalError> {
        self.timed(1, || self.inner.try_fails(z))
    }

    fn try_fails_attempt(&self, z: &[f64], attempt: usize) -> Result<bool, EvalError> {
        self.timed(1, || self.inner.try_fails_attempt(z, attempt))
    }

    fn try_fails_batch(&self, zs: &[Vec<f64>]) -> Vec<Result<bool, EvalError>> {
        self.timed(zs.len(), || self.inner.try_fails_batch(zs))
    }

    fn solve_effort(&self) -> SolveEffort {
        self.inner.solve_effort()
    }
}

impl<B: SweepBench> SweepBench for Probe<B> {
    fn sigmas(&self) -> [f64; 6] {
        self.inner.sigmas()
    }

    fn at_alpha(&self, alpha: f64) -> Self {
        Self {
            inner: self.inner.at_alpha(alpha),
            ledger: Arc::clone(&self.ledger),
            log: self.ledger.open(RunKey::Alpha(alpha), None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecripse_core::bench::LinearBench;
    use ecripse_core::ecripse::{Ecripse, EcripseConfig};
    use ecripse_core::importance::ImportanceConfig;
    use ecripse_core::initial::InitialSearchConfig;

    fn linear() -> LinearBench {
        LinearBench::new(vec![1.0, 0.5, 0.0, 0.0, 0.0, -0.25], 3.2)
    }

    #[test]
    fn forwards_every_method_bit_for_bit() {
        let ledger = Ledger::new();
        let raw = linear();
        let probe = Probe::new(raw.clone(), &ledger);
        let zs: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                (0..6)
                    .map(|d| ((i * 7 + d * 3) % 11) as f64 * 0.6 - 2.0)
                    .collect()
            })
            .collect();
        assert_eq!(probe.dim(), raw.dim());
        assert_eq!(probe.fails_batch(&zs), raw.fails_batch(&zs));
        assert_eq!(probe.try_fails_batch(&zs), raw.try_fails_batch(&zs));
        for (k, z) in zs.iter().enumerate() {
            assert_eq!(probe.fails(z), raw.fails(z));
            assert_eq!(probe.try_fails(z), raw.try_fails(z));
            assert_eq!(
                probe.try_fails_attempt(z, k % 3),
                raw.try_fails_attempt(z, k % 3)
            );
        }
        assert_eq!(probe.solve_effort(), raw.solve_effort());
        let swept = probe.at_alpha(0.3);
        assert_eq!(swept.fails_batch(&zs), raw.at_alpha(0.3).fails_batch(&zs));
        assert_eq!(swept.sigmas(), raw.sigmas());

        let logs = ledger.drain();
        assert_eq!(logs.len(), 2);
        assert_eq!(logs[0].key, RunKey::Base);
        assert_eq!(logs[1].key, RunKey::Alpha(0.3));
        let samples: u64 = logs[0].batches.iter().map(|b| b.samples).sum();
        assert_eq!(samples, 40 + 40 + 3 * 40);
        assert_eq!(logs[0].batches.len(), 2 + 3 * 40);
        assert_eq!(logs[0].effort, Some(SolveEffort::default()));
        assert!(ledger.drain().is_empty(), "drain empties the ledger");
    }

    #[test]
    fn wrapped_estimate_is_bit_identical_and_fully_logged() {
        let config = EcripseConfig {
            initial: InitialSearchConfig {
                count: 16,
                ..InitialSearchConfig::default()
            },
            iterations: 4,
            importance: ImportanceConfig {
                n_samples: 1500,
                m_rtn: 1,
                trace_every: 0,
            },
            m_rtn_stage1: 1,
            seed: 99,
            threads: 1,
            ..EcripseConfig::default()
        };
        let direct = Ecripse::new(config, linear()).estimate().expect("direct");
        let ledger = Ledger::new();
        let probed = Ecripse::new(config, Probe::new(linear(), &ledger))
            .estimate()
            .expect("probed");
        assert_eq!(direct.p_fail.to_bits(), probed.p_fail.to_bits());
        assert_eq!(
            direct.ci95_half_width.to_bits(),
            probed.ci95_half_width.to_bits()
        );
        assert_eq!(direct.simulations, probed.simulations);
        assert_eq!(direct.oracle_stats, probed.oracle_stats);
        // The probe sits under the simulation counter, so it sees every
        // counted simulation and nothing else.
        let logs = ledger.drain();
        let samples: u64 = logs
            .iter()
            .flat_map(|l| &l.batches)
            .map(|b| b.samples)
            .sum();
        assert_eq!(samples, probed.simulations);
    }
}
