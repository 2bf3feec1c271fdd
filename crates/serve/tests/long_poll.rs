//! Long-polled job status over loopback: `GET /v1/jobs/{id}` with
//! `Prefer: wait=N` is answered when the job reaches a terminal state —
//! whichever transition gets it there — when the server starts
//! draining, or at once past the waiter bound; `Client::wait` still
//! finishes against a server that ignores the header.

use ecripse_core::bench::{LinearBench, Testbench};
use ecripse_core::ecripse::EcripseConfig;
use ecripse_core::importance::ImportanceConfig;
use ecripse_core::initial::InitialSearchConfig;
use ecripse_core::scenario::Scenario;
use ecripse_core::sweep::SweepBench;
use ecripse_serve::protocol::{JobSpec, JobState, JobStatus, SubmitRequest};
use ecripse_serve::{http, Client, ClientError, ServeConfig, Server, MAX_STATUS_WAITERS};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
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

fn linear_bench() -> LinearBench {
    LinearBench::new(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 3.5)
}

/// A bench whose evaluations block until the gate opens, and panic
/// once poisoned — the handles that hold a job running and end it in
/// success or failure on the test's schedule.
#[derive(Clone)]
struct ControlBench {
    inner: LinearBench,
    gate: Arc<AtomicBool>,
    poison: Arc<AtomicBool>,
}

impl Testbench for ControlBench {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn fails(&self, z: &[f64]) -> bool {
        while !self.gate.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!self.poison.load(Ordering::SeqCst), "poisoned bench");
        self.inner.fails(z)
    }
}

impl SweepBench for ControlBench {
    fn sigmas(&self) -> [f64; 6] {
        SweepBench::sigmas(&self.inner)
    }
}

struct Controlled {
    server: Server<ControlBench>,
    client: Client,
    gate: Arc<AtomicBool>,
    poison: Arc<AtomicBool>,
}

fn controlled(config: ServeConfig) -> Controlled {
    let gate = Arc::new(AtomicBool::new(false));
    let poison = Arc::new(AtomicBool::new(false));
    let bench = ControlBench {
        inner: linear_bench(),
        gate: Arc::clone(&gate),
        poison: Arc::clone(&poison),
    };
    let server = Server::bind_with("127.0.0.1:0", config, move |_, _| bench.clone()).expect("bind");
    let client = Client::new(server.local_addr().to_string());
    Controlled {
        server,
        client,
        gate,
        poison,
    }
}

fn one_worker() -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServeConfig::default()
    }
}

fn estimate(seed: u64) -> SubmitRequest {
    SubmitRequest::new(tiny_config(seed), JobSpec::rdf_only(1.0))
}

/// A status request's answer: HTTP status, parsed body when 200, and
/// the instant it arrived.
type Answer = (u16, Option<JobStatus>, Instant);

/// One status request carrying `prefer`, on its own thread.
fn park(addr: SocketAddr, id: u64, prefer: &str) -> JoinHandle<Answer> {
    let prefer = prefer.to_string();
    std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        http::write_request_with_headers(
            &mut stream,
            "GET",
            &format!("/v1/jobs/{id}"),
            None,
            "application/json",
            &[("prefer", &prefer)],
        )
        .expect("write status request");
        let (status, _, body) = http::read_response(&mut stream).expect("read status answer");
        let parsed = (status == 200).then(|| serde_json::from_str(&body).expect("status body"));
        (status, parsed, Instant::now())
    })
}

/// Blocks until exactly `n` status requests are parked on the server.
fn await_parked<B: SweepBench + 'static>(server: &Server<B>, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().status_waiters != n {
        assert!(
            Instant::now() < deadline,
            "expected {n} parked status requests, have {}",
            server.metrics().status_waiters
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn wait_until_running(client: &Client, id: u64) {
    for _ in 0..4000 {
        if client.status(id).expect("status").state == JobState::Running {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("job {id} never started running");
}

/// Polls the job every millisecond (no `Prefer`) and returns the
/// instant it was first seen terminal — a stand-in for the transition
/// time that is never earlier than the transition itself.
fn watch_terminal(client: &Client, id: u64) -> Instant {
    let deadline = Instant::now() + WAIT;
    loop {
        if client.status(id).expect("watch status").state.is_terminal() {
            return Instant::now();
        }
        assert!(Instant::now() < deadline, "job {id} never ended");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn joined(parked: JoinHandle<Answer>) -> Answer {
    parked.join().expect("parked request")
}

/// Asserts a parked call answered `expected` no later than
/// [`WAKE_BOUND`] after `seen` (the watcher's sighting of the
/// transition, or the moment a synchronous trigger returned).
fn assert_woken((code, status, answered): Answer, expected: JobState, seen: Instant) {
    assert_eq!(code, 200);
    let status = status.expect("status body");
    assert_eq!(status.state, expected, "parked call answered {status:?}");
    let late = answered.saturating_duration_since(seen);
    assert!(
        late <= WAKE_BOUND,
        "parked call answered {late:?} after the {expected} transition"
    );
}

#[test]
fn parked_status_wakes_on_completion() {
    let c = controlled(one_worker());
    let job = c.client.submit(&estimate(1)).expect("submit");
    wait_until_running(&c.client, job.id);
    let parked = park(c.server.local_addr(), job.id, "wait=30");
    await_parked(&c.server, 1);
    c.gate.store(true, Ordering::SeqCst);
    let seen = watch_terminal(&c.client, job.id);
    assert_woken(joined(parked), JobState::Completed, seen);
    c.server.shutdown();
}

#[test]
fn parked_status_wakes_on_failure() {
    let c = controlled(one_worker());
    let job = c.client.submit(&estimate(2)).expect("submit");
    wait_until_running(&c.client, job.id);
    let parked = park(c.server.local_addr(), job.id, "wait=30");
    await_parked(&c.server, 1);
    c.poison.store(true, Ordering::SeqCst);
    c.gate.store(true, Ordering::SeqCst);
    let seen = watch_terminal(&c.client, job.id);
    assert_woken(joined(parked), JobState::Failed, seen);
    c.server.shutdown();
}

#[test]
fn parked_status_wakes_on_delete_of_a_queued_job() {
    let c = controlled(one_worker());
    let running = c.client.submit(&estimate(3)).expect("submit running");
    wait_until_running(&c.client, running.id);
    let queued = c.client.submit(&estimate(4)).expect("submit queued");
    let parked = park(c.server.local_addr(), queued.id, "wait=30");
    await_parked(&c.server, 1);
    // A queued job is cancelled inside the DELETE itself: the reply is
    // the transition's latest possible time.
    let cancelled = c.client.cancel(queued.id).expect("cancel queued");
    let seen = Instant::now();
    assert_eq!(cancelled.state, JobState::Cancelled);
    assert_woken(joined(parked), JobState::Cancelled, seen);
    c.gate.store(true, Ordering::SeqCst);
    c.server.shutdown();
}

#[test]
fn parked_status_wakes_on_delete_of_a_running_job() {
    let c = controlled(one_worker());
    let job = c.client.submit(&estimate(5)).expect("submit");
    wait_until_running(&c.client, job.id);
    let parked = park(c.server.local_addr(), job.id, "wait=30");
    await_parked(&c.server, 1);
    // Cooperative: the stop flag is honoured at the next boundary once
    // the bench lets the pipeline move.
    assert_eq!(
        c.client.cancel(job.id).expect("cancel running").state,
        JobState::Running
    );
    c.gate.store(true, Ordering::SeqCst);
    let seen = watch_terminal(&c.client, job.id);
    assert_woken(joined(parked), JobState::Cancelled, seen);
    c.server.shutdown();
}

#[test]
fn parked_status_wakes_on_the_deadline_watchdog() {
    let c = controlled(one_worker());
    let running = c.client.submit(&estimate(6)).expect("submit running");
    wait_until_running(&c.client, running.id);
    let queued = c
        .client
        .submit(&estimate(7).with_deadline_ms(400))
        .expect("submit queued");
    let parked = park(c.server.local_addr(), queued.id, "wait=30");
    await_parked(&c.server, 1);
    let seen = watch_terminal(&c.client, queued.id);
    assert_woken(joined(parked), JobState::DeadlineExceeded, seen);
    c.gate.store(true, Ordering::SeqCst);
    c.server.shutdown();
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ecripse-serve-long-poll-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn shutdown_answers_parked_waiters_and_is_not_held_by_them() {
    let spool = scratch_dir("spool");
    let c = controlled(ServeConfig {
        spool: Some(spool.clone()),
        ..one_worker()
    });
    let addr = c.server.local_addr();
    let running = c.client.submit(&estimate(8)).expect("submit running");
    wait_until_running(&c.client, running.id);
    let sweep = SubmitRequest::new(tiny_config(9), JobSpec::sweep(1.0, vec![0.0, 1.0]));
    let queued_sweep = c.client.submit(&sweep).expect("submit queued sweep");
    let queued_estimate = c.client.submit(&estimate(10)).expect("submit queued");
    let on_running = park(addr, running.id, "wait=30");
    let on_sweep = park(addr, queued_sweep.id, "wait=30");
    let on_estimate = park(addr, queued_estimate.id, "wait=30");
    await_parked(&c.server, 3);

    // The drain persists the queued sweep and cancels the queued
    // estimate at once; the in-flight job drains once the gate opens.
    // The running job's waiter is answered as the drain starts, with
    // the job still in flight, not when its 30 s wait runs out; only
    // then does the gate let the job finish and the drain end.
    let gate = Arc::clone(&c.gate);
    let opener = std::thread::spawn(move || {
        let answer = joined(on_running);
        gate.store(true, Ordering::SeqCst);
        answer
    });
    let drain_started = Instant::now();
    let summary = c.server.shutdown();
    let drain_took = drain_started.elapsed();
    let on_running = opener.join().expect("gate opener");
    assert_eq!((summary.persisted, summary.cancelled), (1, 1));
    assert_woken(joined(on_sweep), JobState::Persisted, drain_started);
    assert_woken(joined(on_estimate), JobState::Cancelled, drain_started);
    assert!(on_running.2 >= drain_started, "answered before the drain");
    assert_woken(on_running, JobState::Running, drain_started);
    assert!(
        drain_took < Duration::from_secs(10),
        "shutdown took {drain_took:?} with parked waiters"
    );
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn the_hold_leaves_the_reply_its_write_timeout_inside_the_lifetime() {
    // A 2 s lifetime with a longer write timeout: the write is given
    // half the lifetime, so a request may be held for 1 s at most.
    let c = controlled(ServeConfig {
        connection_lifetime: Duration::from_secs(2),
        ..one_worker()
    });
    let job = c.client.submit(&estimate(14)).expect("submit");
    wait_until_running(&c.client, job.id);
    let asked = Instant::now();
    let (code, status, answered) = joined(park(c.server.local_addr(), job.id, "wait=30"));
    let held = answered - asked;
    assert_eq!(code, 200, "the reply must arrive, not be dropped");
    assert_eq!(status.expect("body").state, JobState::Running);
    assert!(
        held >= Duration::from_millis(900) && held < Duration::from_millis(1900),
        "held {held:?}"
    );
    c.gate.store(true, Ordering::SeqCst);
    c.server.shutdown();
}

#[test]
fn waiters_past_the_bound_are_answered_at_once() {
    let c = controlled(one_worker());
    let addr = c.server.local_addr();
    let job = c.client.submit(&estimate(11)).expect("submit");
    wait_until_running(&c.client, job.id);
    let parked: Vec<_> = (0..MAX_STATUS_WAITERS)
        .map(|_| park(addr, job.id, "wait=30"))
        .collect();
    await_parked(&c.server, MAX_STATUS_WAITERS as u64);

    let asked = Instant::now();
    let (code, status, answered) = park(addr, job.id, "wait=30").join().expect("overflow");
    assert_eq!(code, 200);
    assert_eq!(status.expect("body").state, JobState::Running);
    assert!(
        answered - asked < Duration::from_secs(1),
        "a request past the bound must not be held ({:?})",
        answered - asked
    );
    assert_eq!(c.server.metrics().status_waiters, MAX_STATUS_WAITERS as u64);

    c.gate.store(true, Ordering::SeqCst);
    for waiter in parked {
        let (_, status, _) = waiter.join().expect("parked request");
        assert_eq!(status.expect("body").state, JobState::Completed);
    }
    assert_eq!(c.server.metrics().status_waiters, 0);
    c.server.shutdown();
}

#[test]
fn many_short_jobs_with_concurrent_waiters_lose_no_wake_up() {
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", config, |_, _| linear_bench()).expect("bind");
    let addr = server.local_addr();
    let client = Client::new(addr.to_string());
    let waiters: Vec<_> = (0..24)
        .map(|seed| {
            let job = client.submit(&estimate(100 + seed)).expect("submit");
            (Instant::now(), park(addr, job.id, "wait=20"))
        })
        .collect();
    for (asked, waiter) in waiters {
        let (code, status, answered) = waiter.join().expect("parked request");
        assert_eq!(code, 200);
        let status = status.expect("body");
        // A lost wake-up would hold the call to its 20 s wait and
        // answer a non-terminal state.
        assert_eq!(status.state, JobState::Completed, "job {}", status.id);
        assert!(answered - asked < Duration::from_secs(15));
    }
    server.shutdown();
}

#[test]
fn status_without_prefer_is_answered_at_once() {
    let c = controlled(one_worker());
    let job = c.client.submit(&estimate(12)).expect("submit");
    wait_until_running(&c.client, job.id);
    let asked = Instant::now();
    assert_eq!(
        c.client.status(job.id).expect("status").state,
        JobState::Running
    );
    assert!(asked.elapsed() < Duration::from_secs(1));
    // A spent wait and an unknown job are answered at once too.
    let (_, status, _) = park(c.server.local_addr(), job.id, "wait=0")
        .join()
        .expect("wait=0");
    assert_eq!(status.expect("body").state, JobState::Running);
    let (code, _, answered) = park(c.server.local_addr(), 999, "wait=30")
        .join()
        .expect("unknown job");
    assert_eq!(code, 404);
    assert!(answered - asked < Duration::from_secs(1));
    assert_eq!(c.server.metrics().status_wait_seconds_count, 0);
    c.gate.store(true, Ordering::SeqCst);
    c.server.shutdown();
}

#[test]
fn client_wait_sends_one_status_request_per_job() {
    let c = controlled(one_worker());
    assert_eq!(http_requests(&c.server), 0);
    let job = c.client.submit(&estimate(13)).expect("submit");
    // The gate opens once the wait's status request is parked.
    let done = std::thread::scope(|scope| {
        scope.spawn(|| {
            await_parked(&c.server, 1);
            c.gate.store(true, Ordering::SeqCst);
        });
        c.client.wait(job.id, WAIT).expect("wait")
    });
    assert_eq!(done.state, JobState::Completed);
    // The submission and the wait's one status request, parked until
    // the job ended, are all the server answered (in-process metrics
    // reads are not requests; a request is counted just after its reply
    // is written, so let the count settle).
    let deadline = Instant::now() + Duration::from_secs(2);
    while http_requests(&c.server) < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(http_requests(&c.server), 2);
    let metrics = c.server.metrics();
    assert_eq!(metrics.status_wait_seconds_count, 1);
    assert!(metrics.status_wait_seconds_sum > 0.0);
    c.server.shutdown();
}

/// Requests the server has answered, from its HTTP-latency histogram.
fn http_requests<B: SweepBench + 'static>(server: &Server<B>) -> u64 {
    server
        .prometheus_metrics()
        .lines()
        .find_map(|line| line.strip_prefix("ecripse_serve_http_request_seconds_count "))
        .and_then(|count| count.parse().ok())
        .expect("http request count in the exposition")
}

/// Arrival time and `Prefer` header of each status request a stub
/// answered.
type StubLog = Vec<(Instant, Option<String>)>;

/// A server that predates `Prefer: wait`: every status request is
/// answered at once, `running` for the first `running_for` requests and
/// `completed` after (never, with `None`).
struct IgnoringStub {
    addr: SocketAddr,
    log: Arc<Mutex<StubLog>>,
    thread: JoinHandle<()>,
}

impl IgnoringStub {
    fn start(running_for: Option<usize>) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr");
        let log = Arc::new(Mutex::new(StubLog::new()));
        let seen = Arc::clone(&log);
        let thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                let mut stream = stream.expect("stub accept");
                let request = http::read_request(&mut stream).expect("stub request");
                if request.path == "/stop" {
                    return;
                }
                let calls = {
                    let mut seen = seen.lock().expect("stub log");
                    seen.push((Instant::now(), request.header("prefer").map(str::to_string)));
                    seen.len()
                };
                let done = running_for.is_some_and(|n| calls > n);
                let status = JobStatus {
                    id: 7,
                    scenario: Scenario::ReadSnm,
                    state: if done {
                        JobState::Completed
                    } else {
                        JobState::Running
                    },
                    queue_position: None,
                    error: None,
                    progress: None,
                    trace_id: None,
                };
                let body = serde_json::to_string(&status).expect("stub body");
                let _ = http::write_response(&mut stream, &http::Response::json(200, body));
            }
        });
        Self { addr, log, thread }
    }

    /// Stops the stub and returns what it saw.
    fn stop(self) -> StubLog {
        let mut stream = TcpStream::connect(self.addr).expect("connect stub");
        http::write_request(&mut stream, "GET", "/stop", None).expect("stop stub");
        self.thread.join().expect("stub thread");
        let log = self.log.lock().expect("stub log");
        log.clone()
    }
}

#[test]
fn client_wait_backs_off_against_a_server_that_ignores_prefer() {
    let stub = IgnoringStub::start(Some(3));
    let started = Instant::now();
    let done = Client::new(stub.addr.to_string())
        .with_timeout(Duration::from_secs(6))
        .wait(7, Duration::from_secs(60))
        .expect("wait finishes through backoff");
    assert_eq!(done.state, JobState::Completed);
    assert!(started.elapsed() < Duration::from_secs(2));
    let seen = stub.stop();
    assert_eq!(seen.len(), 4, "three running answers, then completed");
    // Each call asks for half the 6 s socket timeout, well inside the
    // 60 s the caller is prepared to wait.
    for (_, prefer) in &seen {
        assert_eq!(prefer.as_deref(), Some("wait=3"));
    }
    // Early answers are followed by the 10 ms → 20 ms → 40 ms backoff
    // (jitter-free), not a hot loop.
    for (pair, floor_ms) in seen.windows(2).zip([10u64, 20, 40]) {
        let gap = pair[1].0 - pair[0].0;
        assert!(gap >= Duration::from_millis(floor_ms), "gap {gap:?}");
    }
}

#[test]
fn client_wait_times_out_on_time_against_a_server_that_ignores_prefer() {
    let stub = IgnoringStub::start(None);
    let timeout = Duration::from_millis(1500);
    match Client::new(stub.addr.to_string()).wait(7, timeout) {
        Err(ClientError::Timeout { id, waited }) => {
            assert_eq!(id, 7);
            assert!(waited >= timeout, "gave up early: {waited:?}");
            assert!(waited < timeout + Duration::from_millis(600), "{waited:?}");
        }
        other => panic!("expected a timeout, got {other:?}"),
    }
    let calls = stub.stop().len();
    assert!((4..=16).contains(&calls), "{calls} status calls in 1.5 s");
}
