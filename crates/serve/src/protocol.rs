//! The versioned JSON wire protocol.
//!
//! Every type here is a plain data carrier: flat structs of numbers,
//! strings, `Option`s and the existing report types from
//! `ecripse-core`. Enums cross the wire as snake_case strings (the
//! [`Stage`](ecripse_core::observe::Stage) idiom), so the JSON stays
//! self-describing and diffable. [`PROTOCOL_VERSION`] gates submissions:
//! a client speaking a different protocol gets a `400` with code
//! `protocol_mismatch` instead of a silently misinterpreted job.

use ecripse_core::ecripse::EcripseConfig;
use ecripse_core::observe::RunReport;
use ecripse_core::oracle::OracleStats;
use ecripse_core::scenario::Scenario;
use ecripse_core::sweep::{SweepPoint, SweepReports};
use ecripse_core::telemetry::{SpanRecord, TraceContext};
use serde::{Deserialize, Serialize};

/// Version of the wire protocol this build speaks. Bumped on any
/// incompatible change to the types in this module.
pub const PROTOCOL_VERSION: u32 = 1;

/// What kind of work a job performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// One failure-probability estimate (RDF-only or at one duty ratio).
    Estimate,
    /// A duty-ratio sweep sharing one initial particle set.
    Sweep,
}

impl JobKind {
    /// The snake_case wire name.
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Estimate => "estimate",
            JobKind::Sweep => "sweep",
        }
    }
}

impl Serialize for JobKind {
    fn to_value(&self) -> serde::json::Value {
        serde::json::Value::String(self.name().to_owned())
    }
}

impl Deserialize for JobKind {
    fn from_value(value: &serde::json::Value) -> Option<Self> {
        match value.as_str()? {
            "estimate" => Some(JobKind::Estimate),
            "sweep" => Some(JobKind::Sweep),
            _ => None,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished successfully; the report is available.
    Completed,
    /// Finished with an estimation error; see the status `error` field.
    Failed,
    /// Cancelled via `DELETE /v1/jobs/{id}` — removed from the queue, or
    /// stopped cooperatively while running (the worker drains in-flight
    /// work, so a cancelled sweep's checkpoint stays resumable).
    Cancelled,
    /// A queued sweep persisted to a resumable checkpoint during
    /// graceful shutdown instead of being executed.
    Persisted,
    /// The job's `deadline_ms` budget elapsed before it finished; the
    /// worker stopped it cooperatively (or it expired in the queue).
    DeadlineExceeded,
}

impl JobState {
    /// The wire name (snake_case, except the issue-tracker-style
    /// `deadline-exceeded`).
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Persisted => "persisted",
            JobState::DeadlineExceeded => "deadline-exceeded",
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Completed
                | JobState::Failed
                | JobState::Cancelled
                | JobState::Persisted
                | JobState::DeadlineExceeded
        )
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Serialize for JobState {
    fn to_value(&self) -> serde::json::Value {
        serde::json::Value::String(self.name().to_owned())
    }
}

impl Deserialize for JobState {
    fn from_value(value: &serde::json::Value) -> Option<Self> {
        match value.as_str()? {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "completed" => Some(JobState::Completed),
            "failed" => Some(JobState::Failed),
            "cancelled" => Some(JobState::Cancelled),
            "persisted" => Some(JobState::Persisted),
            "deadline-exceeded" => Some(JobState::DeadlineExceeded),
            _ => None,
        }
    }
}

/// What to estimate: the bias point, the duty ratio(s), the kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Estimate or sweep.
    pub kind: JobKind,
    /// Supply voltage the bench factory receives.
    pub vdd: f64,
    /// Duty ratio for an RTN-aware estimate; `None` = RDF-only.
    /// Ignored for sweeps.
    pub alpha: Option<f64>,
    /// Duty-ratio grid for sweeps; required for [`JobKind::Sweep`],
    /// forbidden for [`JobKind::Estimate`].
    pub alphas: Option<Vec<f64>>,
    /// Global point indices for a *shard* of a larger sweep: entry `k`
    /// is the index `alphas[k]` holds in the full grid, so per-point
    /// RNG seeds split by global index and the shard's points are
    /// bit-identical to the ones a single-process full-grid run would
    /// compute (the cluster coordinator's contract). Absent (the
    /// pre-PR-9 wire shape) the sweep is its own full grid.
    #[serde(default)]
    pub alpha_indices: Option<Vec<u64>>,
}

impl JobSpec {
    /// An RDF-only (no RTN) estimate at the given supply.
    pub fn rdf_only(vdd: f64) -> Self {
        Self {
            kind: JobKind::Estimate,
            vdd,
            alpha: None,
            alphas: None,
            alpha_indices: None,
        }
    }

    /// An RTN-aware estimate at one duty ratio.
    pub fn estimate(vdd: f64, alpha: f64) -> Self {
        Self {
            kind: JobKind::Estimate,
            vdd,
            alpha: Some(alpha),
            alphas: None,
            alpha_indices: None,
        }
    }

    /// A duty-ratio sweep.
    pub fn sweep(vdd: f64, alphas: Vec<f64>) -> Self {
        Self {
            kind: JobKind::Sweep,
            vdd,
            alpha: None,
            alphas: Some(alphas),
            alpha_indices: None,
        }
    }

    /// A shard of a larger duty-ratio sweep: `indices[k]` is the global
    /// index of `alphas[k]` in the full grid (see
    /// [`DutySweep::with_point_indices`](ecripse_core::sweep::DutySweep::with_point_indices)).
    pub fn sweep_shard(vdd: f64, alphas: Vec<f64>, indices: Vec<u64>) -> Self {
        Self {
            kind: JobKind::Sweep,
            vdd,
            alpha: None,
            alphas: Some(alphas),
            alpha_indices: Some(indices),
        }
    }

    /// Checks the spec for internal consistency before it is accepted
    /// into the queue (so a worker can never panic on bad input).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !self.vdd.is_finite() || self.vdd <= 0.0 || self.vdd > 2.0 {
            return Err(format!(
                "vdd must be finite and in (0, 2] V, got {}",
                self.vdd
            ));
        }
        if let Some(alpha) = self.alpha {
            if !alpha.is_finite() || !(0.0..=1.0).contains(&alpha) {
                return Err(format!("alpha must be in [0, 1], got {alpha}"));
            }
        }
        match self.kind {
            JobKind::Estimate => {
                if self.alphas.is_some() {
                    return Err("estimate jobs take `alpha`, not `alphas`".into());
                }
                if self.alpha_indices.is_some() {
                    return Err("`alpha_indices` only applies to sweep jobs".into());
                }
            }
            JobKind::Sweep => {
                let Some(alphas) = &self.alphas else {
                    return Err("sweep jobs require a non-empty `alphas` grid".into());
                };
                if alphas.is_empty() {
                    return Err("sweep jobs require a non-empty `alphas` grid".into());
                }
                if alphas
                    .iter()
                    .any(|a| !a.is_finite() || !(0.0..=1.0).contains(a))
                {
                    return Err("every sweep alpha must be in [0, 1]".into());
                }
                if self.alpha.is_some() {
                    return Err("sweep jobs take `alphas`, not `alpha`".into());
                }
                if let Some(indices) = &self.alpha_indices {
                    if indices.len() != alphas.len() {
                        return Err(format!(
                            "`alpha_indices` must pair one global index with each alpha \
                             ({} indices for {} alphas)",
                            indices.len(),
                            alphas.len()
                        ));
                    }
                    if !indices.windows(2).all(|w| w[0] < w[1]) {
                        return Err("`alpha_indices` must be strictly increasing".into());
                    }
                }
            }
        }
        Ok(())
    }
}

/// A job submission: protocol version, full estimator configuration and
/// the work spec. The config travels verbatim — the served run uses
/// exactly the seed, sample counts and cache/retry settings submitted,
/// which is what makes served results bit-identical to direct calls.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// Must equal [`PROTOCOL_VERSION`].
    pub protocol: u32,
    /// Which registered scenario the job evaluates. Omitting the field
    /// (the PR-6-era wire shape) means the paper's `read-snm`; unknown
    /// ids are rejected at parse time, so a job can never run under a
    /// misread indicator. The server copies this into the run's
    /// [`EcripseConfig::scenario`] — the wire field is authoritative.
    #[serde(default)]
    pub scenario: Scenario,
    /// Full estimator configuration (seed included).
    pub config: EcripseConfig,
    /// What to run.
    pub job: JobSpec,
    /// Wall-clock budget in milliseconds, measured from acceptance: a
    /// job still unfinished when it elapses is stopped cooperatively and
    /// ends in [`JobState::DeadlineExceeded`]. `None` (and every pre-PR-8
    /// wire body, via the serde default) means no deadline. After a
    /// crash recovery the budget restarts at re-enqueue — the journal
    /// carries no wall-clock anchor.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Client-chosen idempotency key. The server journals the key with
    /// the accepted job; a later submission carrying the same key
    /// returns the *original* job's status (HTTP `200`, same id) instead
    /// of enqueuing a duplicate — which makes blind client retries safe
    /// even across a server crash and restart.
    #[serde(default)]
    pub idempotency_key: Option<String>,
    /// Distributed trace context the job should run under. Clients (and
    /// the cluster coordinator, which stamps a per-shard child context)
    /// set this to tie the job's spans into an existing trace; absent —
    /// every pre-PR-10 wire body, via the serde default — the server
    /// derives a deterministic context from the job id and RNG seed.
    /// A `traceparent` header on the submission takes precedence.
    #[serde(default)]
    pub trace: Option<TraceContext>,
}

impl SubmitRequest {
    /// A submission speaking this build's protocol version, inheriting
    /// the scenario declared in `config`.
    pub fn new(config: EcripseConfig, job: JobSpec) -> Self {
        Self {
            protocol: PROTOCOL_VERSION,
            scenario: config.scenario,
            config,
            job,
            deadline_ms: None,
            idempotency_key: None,
            trace: None,
        }
    }

    /// A submission for an explicit scenario (also stamped into the
    /// carried config, keeping the two views consistent).
    pub fn with_scenario(scenario: Scenario, mut config: EcripseConfig, job: JobSpec) -> Self {
        config.scenario = scenario;
        Self::new(config, job)
    }

    /// Sets the wall-clock deadline budget.
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Sets the idempotency key retried submissions are deduplicated by.
    #[must_use]
    pub fn with_idempotency_key(mut self, key: impl Into<String>) -> Self {
        self.idempotency_key = Some(key.into());
        self
    }

    /// Runs the job under an existing distributed trace context.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// A job's lifecycle snapshot (`POST /v1/jobs`, `GET /v1/jobs/{id}`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// Server-assigned job id.
    pub id: u64,
    /// The scenario the job evaluates (default `read-snm`, so PR-6-era
    /// status documents parse unchanged).
    #[serde(default)]
    pub scenario: Scenario,
    /// Current lifecycle state.
    pub state: JobState,
    /// Position in the queue while [`JobState::Queued`] (0 = next).
    pub queue_position: Option<u64>,
    /// Error description for [`JobState::Failed`].
    pub error: Option<String>,
    /// Live execution progress while [`JobState::Running`]; absent
    /// before the worker picks the job up and after it finishes.
    pub progress: Option<JobProgress>,
    /// The job's distributed trace id as 16 lowercase hex digits —
    /// clients correlate the status document with JSONL trace lines and
    /// the `/v1/jobs/{id}/trace` waterfall through it. Absent in
    /// PR-9-era status documents.
    #[serde(default)]
    pub trace_id: Option<String>,
}

/// Live progress of a running job, fed from the worker's observer.
///
/// The numbers are monotone snapshots — polling the status endpoint
/// twice while a job runs shows `simulations`/`iterations` advancing.
/// They are *observational only*: nothing here feeds back into the
/// estimation pipeline, so the final report stays bit-identical to the
/// equivalent direct library call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobProgress {
    /// Pipeline stage currently executing (snake_case stage name).
    pub stage: Option<String>,
    /// Particle-filter iterations finished so far.
    pub iterations: u64,
    /// Transistor-level simulations spent so far.
    pub simulations: u64,
    /// Importance samples drawn so far (stage 2).
    pub is_samples: u64,
    /// Latest running failure-probability estimate, once one exists.
    pub estimate: Option<f64>,
}

/// A completed estimate's numbers plus its full structured report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimateOutcome {
    /// Failure-probability estimate.
    pub p_fail: f64,
    /// 95 % confidence half-width.
    pub ci95_half_width: f64,
    /// Transistor-level simulations spent.
    pub simulations: u64,
    /// Importance samples drawn in stage 2.
    pub is_samples: u64,
    /// The schema-v2 run report, bit-identical (timings aside) to the
    /// report of the equivalent direct library call.
    pub report: RunReport,
}

/// A completed sweep's numbers plus all structured reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepOutcome {
    /// RDF-only reference failure probability.
    pub p_fail_rdf_only: f64,
    /// Its CI half-width.
    pub rdf_only_ci95: f64,
    /// Simulations spent on the shared initialisation.
    pub init_simulations: u64,
    /// Total simulations across the sweep.
    pub total_simulations: u64,
    /// Per-α results in sweep order.
    pub points: Vec<SweepPoint>,
    /// Per-point and reference reports.
    pub reports: SweepReports,
}

/// The full result document (`GET /v1/jobs/{id}/report`). Exactly one
/// of `estimate`/`sweep` is populated for completed jobs; failed jobs
/// carry neither and describe the failure in `error`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobReport {
    /// Job id.
    pub id: u64,
    /// The scenario the job evaluated (default `read-snm`).
    #[serde(default)]
    pub scenario: Scenario,
    /// Terminal state the job reached.
    pub state: JobState,
    /// Error description for failed jobs.
    pub error: Option<String>,
    /// Estimate outcome, for completed [`JobKind::Estimate`] jobs.
    pub estimate: Option<EstimateOutcome>,
    /// Sweep outcome, for completed [`JobKind::Sweep`] jobs.
    pub sweep: Option<SweepOutcome>,
    /// The job's distributed trace id (16 lowercase hex digits). Absent
    /// in PR-9-era report documents.
    #[serde(default)]
    pub trace_id: Option<String>,
}

/// The span timeline of one job (`GET /v1/jobs/{id}/trace`). A worker
/// serves the spans its own [`SpanCollector`](ecripse_core::telemetry::SpanCollector)
/// recorded; the cluster coordinator serves its root and per-shard spans
/// merged with the spans fetched from every worker that held a shard,
/// sorted by `start_ts` — one waterfall for the whole distributed job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobTrace {
    /// The job id the spans describe (the id the serving node assigned —
    /// for a merged cluster waterfall, the coordinator's job id).
    pub job_id: u64,
    /// The trace id every span in `spans` shares (16 hex digits).
    pub trace_id: String,
    /// Spans sorted by `start_ts`; parent links are span ids within the
    /// same document (the root span's parent points outside it).
    pub spans: Vec<SpanRecord>,
}

/// The JSON body of every non-2xx response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApiError {
    /// Machine-readable error code (`queue_full`, `unknown_job`,
    /// `protocol_mismatch`, `invalid_job`, `not_ready`, `bad_request`,
    /// `shutting_down`, `conflict`, `not_found`, `method_not_allowed`,
    /// `internal`).
    pub error: String,
    /// Human-readable description.
    pub message: String,
    /// Backpressure hint mirrored from the `Retry-After` header, for
    /// `429` responses.
    pub retry_after_seconds: Option<u64>,
}

impl ApiError {
    /// A new error body without a retry hint.
    pub fn new(error: &str, message: impl Into<String>) -> Self {
        Self {
            error: error.to_string(),
            message: message.into(),
            retry_after_seconds: None,
        }
    }
}

/// The `GET /healthz` body. Liveness only: it answers `200` whenever
/// the process can serve HTTP at all (even while draining) — routing
/// decisions belong to `/readyz`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Health {
    /// `"ok"` while accepting, `"draining"` during graceful shutdown.
    pub status: String,
    /// Protocol version the server speaks.
    pub protocol: u32,
}

/// The `GET /readyz` body: whether the node should receive traffic.
/// Served with `200` when ready and `503` otherwise, so load balancers
/// and the future coordinator can route on the status code alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Readiness {
    /// `true` exactly when the response status is `200`.
    pub ready: bool,
    /// `"ready"`, or why not: `"replaying"` (journal replay at boot),
    /// `"draining"` (graceful shutdown), `"saturated"` (queue full).
    pub status: String,
    /// Protocol version the server speaks.
    pub protocol: u32,
    /// On a `503`, how long the caller should wait before probing again
    /// (mirrors the `Retry-After` header). Absent when ready and in
    /// pre-PR-9 bodies.
    #[serde(default)]
    pub retry_after_seconds: Option<u64>,
}

/// The `GET /metrics` body: queue, worker, job and cache counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Jobs waiting in the queue right now.
    pub queue_depth: u64,
    /// Bound of the queue.
    pub queue_capacity: u64,
    /// Jobs currently executing.
    pub in_flight: u64,
    /// Size of the worker pool.
    pub workers: u64,
    /// Jobs ever accepted.
    pub submitted: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs finished with an estimation error.
    pub failed: u64,
    /// Jobs cancelled via `DELETE /v1/jobs/{id}`, queued and running
    /// combined (the per-cause split is below).
    pub cancelled: u64,
    /// Of `cancelled`: jobs removed from the queue before running.
    #[serde(default)]
    pub cancelled_queued: u64,
    /// Of `cancelled`: running jobs stopped cooperatively mid-pipeline.
    #[serde(default)]
    pub cancelled_running: u64,
    /// Jobs whose `deadline_ms` budget elapsed before they finished.
    #[serde(default)]
    pub deadline_exceeded: u64,
    /// Unfinished jobs re-enqueued from the write-ahead journal at boot.
    #[serde(default)]
    pub recovered: u64,
    /// Submissions answered from the idempotency-key map instead of
    /// enqueuing a duplicate job.
    #[serde(default)]
    pub idempotent_hits: u64,
    /// Queued sweeps persisted to checkpoints during shutdown.
    pub persisted: u64,
    /// Submissions bounced with `429`.
    pub rejected: u64,
    /// Entries resident in the process-wide verdict cache.
    pub cache_entries: u64,
    /// Verdict-cache hits since startup.
    pub cache_hits: u64,
    /// Verdict-cache misses since startup.
    pub cache_misses: u64,
    /// Hit fraction, absent until the cache has seen traffic.
    pub cache_hit_rate: Option<f64>,
    /// Verdicts restored from the persistent store at startup (0 when
    /// no store is configured or the snapshot was rejected).
    #[serde(default)]
    pub cache_loaded_entries: u64,
    /// Write-ahead journal compactions since startup (0 when no journal
    /// is configured).
    #[serde(default)]
    pub journal_compactions_total: u64,
    /// Journal frames replayed during boot recovery — every submission
    /// and terminal record decoded from the pre-crash file, not just the
    /// re-enqueued jobs (`recovered` counts those).
    #[serde(default)]
    pub journal_frames_replayed_total: u64,
    /// Current on-disk size of the journal file in bytes.
    #[serde(default)]
    pub journal_bytes: u64,
    /// Wall-clock seconds boot-time journal recovery took (0 when no
    /// journal is configured). Absent in pre-PR-10 documents.
    #[serde(default)]
    pub journal_replay_duration_seconds: f64,
    /// Wall-clock seconds the boot-time verdict-store snapshot load took
    /// (0 when no store is configured). Absent in older documents.
    #[serde(default)]
    pub verdict_store_load_duration_seconds: f64,
    /// Long-polled status requests (`Prefer: wait=N`) parked right now.
    /// Absent in older documents.
    #[serde(default)]
    pub status_waiters: u64,
    /// Long-polled status requests that were parked, over the server's
    /// life (the count of the `status_wait_seconds` histogram).
    #[serde(default)]
    pub status_wait_seconds_count: u64,
    /// Total seconds those requests spent parked (the histogram's sum).
    /// Parked time is not in the HTTP request-latency histogram.
    #[serde(default)]
    pub status_wait_seconds_sum: f64,
    /// Seconds since the server bound its socket.
    pub uptime_seconds: f64,
    /// Jobs in a terminal state (completed + failed + cancelled +
    /// persisted + deadline-exceeded).
    pub jobs_in_terminal_state: u64,
    /// Completed jobs per registered scenario, in registry order (one
    /// entry per scenario, zero counts included). Absent in PR-6-era
    /// documents.
    #[serde(default)]
    pub scenario_jobs: Vec<ScenarioJobCount>,
    /// Oracle statistics summed over every completed job (classified /
    /// simulated / retrains / retries / quarantined, …).
    pub oracle: OracleStats,
}

/// Completed-job count of one registered scenario.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioJobCount {
    /// The scenario id (`read-snm`, `hold-snm`, …).
    pub scenario: String,
    /// Jobs of this scenario that completed successfully.
    pub completed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enums_round_trip_as_snake_case() {
        for kind in [JobKind::Estimate, JobKind::Sweep] {
            let v = kind.to_value();
            assert_eq!(JobKind::from_value(&v), Some(kind));
        }
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Completed,
            JobState::Failed,
            JobState::Cancelled,
            JobState::Persisted,
            JobState::DeadlineExceeded,
        ] {
            let v = state.to_value();
            assert_eq!(v.as_str(), Some(state.name()));
            assert_eq!(JobState::from_value(&v), Some(state));
        }
        assert!(JobState::from_value(&serde::json::Value::String("nope".into())).is_none());
    }

    #[test]
    fn terminal_states() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Completed.is_terminal());
        assert!(JobState::Persisted.is_terminal());
        assert!(JobState::DeadlineExceeded.is_terminal());
    }

    #[test]
    fn spec_validation_catches_inconsistencies() {
        assert!(JobSpec::rdf_only(1.0).validate().is_ok());
        assert!(JobSpec::estimate(1.0, 0.3).validate().is_ok());
        assert!(JobSpec::sweep(1.0, vec![0.0, 0.5, 1.0]).validate().is_ok());

        assert!(JobSpec::rdf_only(f64::NAN).validate().is_err());
        assert!(JobSpec::rdf_only(-0.5).validate().is_err());
        assert!(JobSpec::estimate(1.0, 1.5).validate().is_err());
        assert!(JobSpec::sweep(1.0, vec![]).validate().is_err());
        assert!(JobSpec::sweep(1.0, vec![0.5, 2.0]).validate().is_err());

        let mut mixed = JobSpec::estimate(1.0, 0.3);
        mixed.alphas = Some(vec![0.1]);
        assert!(mixed.validate().is_err());
        let mut mixed = JobSpec::sweep(1.0, vec![0.1]);
        mixed.alpha = Some(0.2);
        assert!(mixed.validate().is_err());
    }

    #[test]
    fn shard_specs_validate_their_indices() {
        assert!(JobSpec::sweep_shard(1.0, vec![0.0, 0.5], vec![0, 3])
            .validate()
            .is_ok());
        // One global index per alpha.
        assert!(JobSpec::sweep_shard(1.0, vec![0.0, 0.5], vec![0])
            .validate()
            .is_err());
        // Strictly increasing (shards are ordered slices).
        assert!(JobSpec::sweep_shard(1.0, vec![0.0, 0.5], vec![3, 0])
            .validate()
            .is_err());
        assert!(JobSpec::sweep_shard(1.0, vec![0.0, 0.5], vec![2, 2])
            .validate()
            .is_err());
        // Indices are a sweep-only concept.
        let mut estimate = JobSpec::estimate(1.0, 0.3);
        estimate.alpha_indices = Some(vec![0]);
        assert!(estimate.validate().is_err());
    }

    #[test]
    fn pre_pr9_wire_bodies_still_parse() {
        // A sweep submission without `alpha_indices` — the PR-8-era
        // wire shape — must parse as a full-grid sweep.
        let req = SubmitRequest::new(
            EcripseConfig::default(),
            JobSpec::sweep(1.0, vec![0.0, 1.0]),
        );
        let json = serde_json::to_string(&req).expect("serialise");
        let stripped = {
            let mut value: serde::json::Value = serde_json::from_str(&json).expect("parse");
            if let serde::json::Value::Object(entries) = &mut value {
                for (key, entry) in entries.iter_mut() {
                    if key == "job" {
                        if let serde::json::Value::Object(job) = entry {
                            job.retain(|(k, _)| k != "alpha_indices");
                        }
                    }
                }
            }
            serde_json::to_string(&value).expect("re-serialise")
        };
        let back: SubmitRequest = serde_json::from_str(&stripped).expect("old body parses");
        assert_eq!(back.job.alpha_indices, None);
        assert_eq!(back, req);
    }

    #[test]
    fn submit_request_uses_current_protocol() {
        let req = SubmitRequest::new(EcripseConfig::default(), JobSpec::rdf_only(1.0));
        assert_eq!(req.protocol, PROTOCOL_VERSION);
        let json = serde_json::to_string(&req).expect("serialise");
        let back: SubmitRequest = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, req);
    }

    #[test]
    fn pre_pr8_wire_bodies_still_parse() {
        // A submission without deadline_ms / idempotency_key — the
        // PR-7-era wire shape — must parse with both defaulted.
        let req = SubmitRequest::new(EcripseConfig::default(), JobSpec::rdf_only(1.0));
        let json = serde_json::to_string(&req).expect("serialise");
        assert!(json.contains("deadline_ms"));
        let stripped = {
            let mut value: serde::json::Value = serde_json::from_str(&json).expect("parse");
            if let serde::json::Value::Object(entries) = &mut value {
                entries.retain(|(k, _)| k != "deadline_ms" && k != "idempotency_key");
            }
            serde_json::to_string(&value).expect("re-serialise")
        };
        let back: SubmitRequest = serde_json::from_str(&stripped).expect("old body parses");
        assert_eq!(back.deadline_ms, None);
        assert_eq!(back.idempotency_key, None);
        assert_eq!(back, req);
    }

    #[test]
    fn submit_request_builders_round_trip() {
        let req = SubmitRequest::new(EcripseConfig::default(), JobSpec::estimate(1.0, 0.3))
            .with_deadline_ms(1500)
            .with_idempotency_key("job-42")
            .with_trace(TraceContext::for_job(7, 42));
        let json = serde_json::to_string(&req).expect("serialise");
        let back: SubmitRequest = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back.deadline_ms, Some(1500));
        assert_eq!(back.idempotency_key.as_deref(), Some("job-42"));
        assert_eq!(back.trace, Some(TraceContext::for_job(7, 42)));
        assert_eq!(back, req);
    }

    #[test]
    fn pre_pr10_wire_bodies_still_parse() {
        // A submission without `trace` — the PR-9-era wire shape — must
        // parse with the context defaulted to `None`.
        let req = SubmitRequest::new(EcripseConfig::default(), JobSpec::rdf_only(1.0))
            .with_trace(TraceContext::for_job(3, 99));
        let json = serde_json::to_string(&req).expect("serialise");
        assert!(json.contains("trace"));
        let stripped = {
            let mut value: serde::json::Value = serde_json::from_str(&json).expect("parse");
            if let serde::json::Value::Object(entries) = &mut value {
                entries.retain(|(k, _)| k != "trace");
            }
            serde_json::to_string(&value).expect("re-serialise")
        };
        let back: SubmitRequest = serde_json::from_str(&stripped).expect("old body parses");
        assert_eq!(back.trace, None);
    }

    #[test]
    fn job_trace_documents_round_trip() {
        let context = TraceContext::for_job(11, 2024);
        let trace = JobTrace {
            job_id: 11,
            trace_id: ecripse_core::telemetry::fmt_hex_id(context.trace_id),
            spans: vec![SpanRecord {
                trace_id: ecripse_core::telemetry::fmt_hex_id(context.trace_id),
                span_id: ecripse_core::telemetry::fmt_hex_id(context.span_id("worker/job")),
                parent_span_id: ecripse_core::telemetry::fmt_hex_id(0),
                name: "job".into(),
                node: "worker".into(),
                start_ts: 1_700_000_000.25,
                duration_s: 0.75,
            }],
        };
        let json = serde_json::to_string(&trace).expect("serialise");
        let back: JobTrace = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, trace);
    }
}
