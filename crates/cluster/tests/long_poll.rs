//! Long-polled job status on the coordinator: `GET /v1/jobs/{id}` with
//! `Prefer: wait=N` is answered when the merged job ends or when the
//! coordinator starts draining, and the parked time shows in both
//! `/metrics` views.

use ecripse_cluster::{ClusterConfig, ClusterMetrics, Coordinator, JoinConfig};
use ecripse_core::bench::{LinearBench, Testbench};
use ecripse_core::ecripse::EcripseConfig;
use ecripse_core::importance::ImportanceConfig;
use ecripse_core::initial::InitialSearchConfig;
use ecripse_core::sweep::SweepBench;
use ecripse_serve::protocol::{JobSpec, JobState, JobStatus, SubmitRequest};
use ecripse_serve::{http, Client, ServeConfig, Server};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(120);
/// How soon after a terminal transition a parked status call must
/// answer.
const WAKE_BOUND: Duration = Duration::from_millis(50);

fn tiny_config(seed: u64) -> EcripseConfig {
    EcripseConfig {
        initial: InitialSearchConfig {
            count: 12,
            max_attempts: 2000,
            ..InitialSearchConfig::default()
        },
        iterations: 3,
        importance: ImportanceConfig {
            n_samples: 250,
            m_rtn: 4,
            trace_every: 0,
        },
        m_rtn_stage1: 2,
        seed,
        ..EcripseConfig::default()
    }
}

/// A bench whose evaluations block until the gate opens.
#[derive(Clone)]
struct GateBench {
    inner: LinearBench,
    gate: Arc<AtomicBool>,
}

impl Testbench for GateBench {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn fails(&self, z: &[f64]) -> bool {
        while !self.gate.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.inner.fails(z)
    }
}

impl SweepBench for GateBench {
    fn sigmas(&self) -> [f64; 6] {
        SweepBench::sigmas(&self.inner)
    }
}

/// A coordinator with one joined, gated worker, holding one running
/// estimate.
struct Cluster {
    coordinator: Coordinator,
    worker: Server<GateBench>,
    membership: ecripse_cluster::JoinHandle,
    client: Client,
    gate: Arc<AtomicBool>,
    job: u64,
}

fn cluster_with_a_running_job() -> Cluster {
    let config = ClusterConfig {
        heartbeat_interval: Duration::from_millis(50),
        heartbeat_timeout: Duration::from_millis(400),
        poll_interval: Duration::from_millis(10),
        ..ClusterConfig::default()
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", config).expect("bind coordinator");
    let gate = Arc::new(AtomicBool::new(false));
    let bench = GateBench {
        inner: LinearBench::new(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 3.5),
        gate: Arc::clone(&gate),
    };
    let worker = Server::bind_with("127.0.0.1:0", ServeConfig::default(), move |_, _| {
        bench.clone()
    })
    .expect("bind worker");
    let membership = ecripse_cluster::join(JoinConfig::new(
        coordinator.local_addr().to_string(),
        "w1",
        worker.local_addr().to_string(),
    ));
    let client = Client::new(coordinator.local_addr().to_string());
    client.wait_ready(WAIT).expect("coordinator becomes ready");
    let request = SubmitRequest::new(tiny_config(3), JobSpec::rdf_only(1.0));
    let job = client.submit(&request).expect("submit").id;
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.status(job).expect("status").state != JobState::Running {
        assert!(Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    Cluster {
        coordinator,
        worker,
        membership,
        client,
        gate,
        job,
    }
}

fn park(addr: SocketAddr, id: u64) -> JoinHandle<(JobStatus, Instant)> {
    std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        http::write_request_with_headers(
            &mut stream,
            "GET",
            &format!("/v1/jobs/{id}"),
            None,
            "application/json",
            &[("prefer", "wait=30")],
        )
        .expect("write status request");
        let (status, _, body) = http::read_response(&mut stream).expect("read status answer");
        assert_eq!(status, 200, "{body}");
        (
            serde_json::from_str(&body).expect("status body"),
            Instant::now(),
        )
    })
}

fn await_parked(coordinator: &Coordinator, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while coordinator.metrics().status_waiters != n {
        assert!(Instant::now() < deadline, "expected {n} parked requests");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The coordinator's JSON `/metrics` document, over the wire.
fn cluster_metrics(addr: SocketAddr) -> ClusterMetrics {
    let mut stream = TcpStream::connect(addr).expect("connect");
    http::write_request(&mut stream, "GET", "/metrics", None).expect("write");
    let (status, _, body) = http::read_response(&mut stream).expect("read");
    assert_eq!(status, 200);
    serde_json::from_str(&body).expect("cluster metrics body")
}

/// The value of an unlabelled sample in a Prometheus exposition.
fn sample(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| panic!("no {name} sample in the exposition"))
}

#[test]
fn parked_status_wakes_when_the_merged_job_ends_and_is_metered() {
    let c = cluster_with_a_running_job();
    let parked = park(c.coordinator.local_addr(), c.job);
    await_parked(&c.coordinator, 1);
    let exposition = c.client.metrics_prometheus().expect("prometheus");
    assert_eq!(sample(&exposition, "ecripse_cluster_status_waiters"), 1.0);
    let addr = c.coordinator.local_addr();
    assert_eq!(cluster_metrics(addr).status_waiters, 1);

    c.gate.store(true, Ordering::SeqCst);
    let deadline = Instant::now() + WAIT;
    let seen = loop {
        if c.client.status(c.job).expect("status").state.is_terminal() {
            break Instant::now();
        }
        assert!(Instant::now() < deadline, "job never ended");
        std::thread::sleep(Duration::from_millis(1));
    };
    let (status, answered) = parked.join().expect("parked request");
    assert_eq!(status.state, JobState::Completed);
    let late = answered.saturating_duration_since(seen);
    assert!(late <= WAKE_BOUND, "answered {late:?} after the job ended");

    let metrics = cluster_metrics(addr);
    let exposition = c.client.metrics_prometheus().expect("prometheus");
    assert_eq!(metrics.status_waiters, 0);
    assert_eq!(sample(&exposition, "ecripse_cluster_status_waiters"), 0.0);
    assert_eq!(metrics.status_wait_seconds_count, 1);
    assert_eq!(
        sample(&exposition, "ecripse_cluster_status_wait_seconds_count"),
        1.0
    );
    assert_eq!(
        sample(&exposition, "ecripse_cluster_status_wait_seconds_sum"),
        metrics.status_wait_seconds_sum
    );
    assert!(metrics.status_wait_seconds_sum > 0.0);
    // The worker's own long-poll series are federated alongside.
    assert!(exposition.contains("ecripse_serve_status_waiters{worker=\"w1\"}"));

    c.membership.leave();
    c.worker.shutdown();
    c.coordinator.shutdown();
}

#[test]
fn coordinator_shutdown_answers_parked_waiters_at_once() {
    let c = cluster_with_a_running_job();
    let parked = park(c.coordinator.local_addr(), c.job);
    await_parked(&c.coordinator, 1);
    // The drain lets the running job finish. The parked call is
    // answered as the drain starts, with the job still running; only
    // then does the gate let the job finish and the drain end.
    let gate = Arc::clone(&c.gate);
    let opener = std::thread::spawn(move || {
        let answer = parked.join().expect("parked request");
        gate.store(true, Ordering::SeqCst);
        answer
    });
    let drain_started = Instant::now();
    c.coordinator.shutdown();
    let drain_took = drain_started.elapsed();
    let (status, answered) = opener.join().expect("gate opener");
    assert_eq!(status.state, JobState::Running);
    assert!(answered >= drain_started, "answered before the drain");
    let late = answered.saturating_duration_since(drain_started);
    assert!(
        late <= WAKE_BOUND,
        "answered {late:?} after the drain started"
    );
    assert!(drain_took < Duration::from_secs(10), "{drain_took:?}");
    c.membership.leave();
    c.worker.shutdown();
}
