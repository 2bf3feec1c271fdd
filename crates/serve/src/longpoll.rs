//! Long-polled job status: `GET /v1/jobs/{id}` with `Prefer: wait=N`.
//!
//! A client that sends `Prefer: wait=<seconds>` ([RFC 7240]) on a
//! status request is answered at the first of three events: the job
//! reaches a terminal state, the wait runs out, or the server starts
//! draining. Without the header the status is answered at once, as it
//! always was. A server that ignores the header (one built before it
//! was honoured) answers at once too, and
//! [`Client::wait`](crate::Client::wait) then falls back to its backoff
//! sleep — so both ends interoperate with old peers in either role.
//!
//! The wait rides in a header, not a query string: the router reads
//! the last path segment as the job id, so `/v1/jobs/3?wait=5` would
//! be a `400` on every server that predates it.
//!
//! [`TerminalSignal`] is the one wake-up primitive the serve server and
//! the cluster coordinator share: a generation counter behind a
//! [`std::sync::Mutex`] plus a [`Condvar`], bumped on every terminal
//! transition. A parked waiter reads the generation *before* it checks
//! the job, so a transition that lands between the check and the park
//! moves the generation and is never slept through.
//!
//! [RFC 7240]: https://www.rfc-editor.org/rfc/rfc7240

use crate::http::{Request, Response};
use crate::protocol::{ApiError, JobStatus};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Most status requests parked at once on one server. A request past
/// the bound is answered at once, like a request without `Prefer`, and
/// the client falls back to its backoff sleep — so a burst of waiters
/// cannot pin more than this many handler threads.
pub const MAX_STATUS_WAITERS: usize = 64;

/// The wait a request asks for with `Prefer: wait=N`, if any.
pub fn requested_wait(request: &Request) -> Option<Duration> {
    request.header("prefer").and_then(parse_prefer_wait)
}

/// Reads the `wait` preference out of a `Prefer` header value, e.g.
/// `wait=10` or `respond-async, wait=2.5`. Fractional seconds are
/// accepted; a negative, non-finite or unparseable value is no
/// preference at all.
fn parse_prefer_wait(value: &str) -> Option<Duration> {
    value.split(',').find_map(|preference| {
        let token = preference.split(';').next()?;
        let (name, wait) = token.split_once('=')?;
        if !name.trim().eq_ignore_ascii_case("wait") {
            return None;
        }
        let seconds: f64 = wait.trim().trim_matches('"').parse().ok()?;
        Duration::try_from_secs_f64(seconds).ok()
    })
}

/// The `Prefer` header value asking for `wait`, in whole seconds
/// (RFC 7240's delta-seconds; a fraction is dropped, so the server
/// never holds the request longer than asked).
pub(crate) fn prefer_wait(wait: Duration) -> String {
    format!("wait={}", wait.as_secs())
}

struct SignalState {
    generation: u64,
    parked: usize,
    closed: bool,
}

/// Wakes parked status requests when a job reaches a terminal state.
pub struct TerminalSignal {
    state: Mutex<SignalState>,
    changed: Condvar,
}

impl Default for TerminalSignal {
    fn default() -> Self {
        Self::new()
    }
}

impl TerminalSignal {
    /// An open signal at generation 0 with no waiters.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(SignalState {
                generation: 0,
                parked: 0,
                closed: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// Poison is harmless here: the state is three plain integers that
    /// no critical section leaves half-updated.
    fn lock(&self) -> MutexGuard<'_, SignalState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// How many terminal transitions have been signalled.
    fn generation(&self) -> u64 {
        self.lock().generation
    }

    /// Status requests parked right now (never above
    /// [`MAX_STATUS_WAITERS`]).
    pub fn parked(&self) -> usize {
        self.lock().parked
    }

    /// A job reached a terminal state: wake every parked waiter so each
    /// re-checks its own job. Call it once the new state is visible to
    /// the waiters' probe.
    pub fn bump(&self) {
        self.lock().generation += 1;
        self.changed.notify_all();
    }

    /// The server started draining: answer every parked waiter now and
    /// park no new ones.
    pub fn close(&self) {
        self.lock().closed = true;
        self.changed.notify_all();
    }

    /// Answers `GET /v1/jobs/{id}` from `lookup`, the job's current
    /// status (`None`: `404 unknown_job`). Without `until` the answer
    /// is immediate. With it, a non-terminal answer is held until a
    /// terminal transition makes the job terminal, `until` passes, or
    /// [`close`](TerminalSignal::close) is called; it is answered at
    /// once when `until` has already passed, the signal is closed, or
    /// [`MAX_STATUS_WAITERS`] requests are already parked.
    ///
    /// Returns the response and how long the request was parked
    /// (`None` when it was answered without parking).
    pub fn answer_status(
        &self,
        id: u64,
        until: Option<Instant>,
        lookup: impl Fn() -> Option<JobStatus>,
    ) -> (Response, Option<Duration>) {
        let probe = || match lookup() {
            Some(status) => {
                let body = serde_json::to_string(&status).unwrap_or_else(|_| "{}".to_string());
                (Response::json(200, body), status.state.is_terminal())
            }
            None => {
                let error = ApiError::new("unknown_job", format!("no job {id}"));
                let body = serde_json::to_string(&error).unwrap_or_else(|_| "{}".to_string());
                (Response::json(404, body), true)
            }
        };
        match until {
            None => (probe().0, None),
            Some(until) => self.long_poll(until, probe),
        }
    }

    /// The hold behind [`answer_status`](TerminalSignal::answer_status):
    /// `probe` reads the job and returns the answer plus whether it is
    /// final (a terminal state, or an unknown job).
    fn long_poll<T>(
        &self,
        until: Instant,
        mut probe: impl FnMut() -> (T, bool),
    ) -> (T, Option<Duration>) {
        let mut seen = self.generation();
        let (answer, done) = probe();
        if done || Instant::now() >= until {
            return (answer, None);
        }
        {
            let mut state = self.lock();
            if state.closed || state.parked >= MAX_STATUS_WAITERS {
                return (answer, None);
            }
            state.parked += 1;
        }
        let parked_at = Instant::now();
        let answer = loop {
            match self.wait_past(seen, until) {
                Some(generation) => {
                    seen = generation;
                    let (answer, done) = probe();
                    if done {
                        break answer;
                    }
                }
                None => break probe().0,
            }
        };
        self.lock().parked -= 1;
        (answer, Some(parked_at.elapsed()))
    }

    /// Blocks until the generation moves past `seen` (returning the new
    /// one), or until `until` passes or the signal closes (`None`).
    fn wait_past(&self, seen: u64, until: Instant) -> Option<u64> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return None;
            }
            if state.generation != seen {
                return Some(state.generation);
            }
            let left = until.checked_duration_since(Instant::now())?;
            if left.is_zero() {
                return None;
            }
            state = self
                .changed
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn prefer_wait_parses_rfc7240_forms() {
        assert_eq!(parse_prefer_wait("wait=10"), Some(Duration::from_secs(10)));
        assert_eq!(
            parse_prefer_wait("respond-async, WAIT = 2.5"),
            Some(Duration::from_millis(2500))
        );
        assert_eq!(
            parse_prefer_wait("wait=\"3\"; foo=bar"),
            Some(Duration::from_secs(3))
        );
        assert_eq!(parse_prefer_wait("return=minimal"), None);
        assert_eq!(parse_prefer_wait("wait=-1"), None);
        assert_eq!(parse_prefer_wait("wait=soon"), None);
        assert_eq!(parse_prefer_wait("wait=inf"), None);
        assert_eq!(prefer_wait(Duration::from_millis(2999)), "wait=2");
        assert_eq!(
            parse_prefer_wait(&prefer_wait(Duration::from_secs(7))),
            Some(Duration::from_secs(7))
        );
    }

    #[test]
    fn final_answers_and_spent_waits_do_not_park() {
        let signal = TerminalSignal::new();
        let far = Instant::now() + Duration::from_secs(60);
        assert_eq!(signal.long_poll(far, || (1, true)), (1, None));
        assert_eq!(signal.long_poll(Instant::now(), || (2, false)), (2, None));
        signal.close();
        assert_eq!(signal.long_poll(far, || (3, false)), (3, None));
    }

    #[test]
    fn an_unchanged_generation_times_out_with_the_latest_answer() {
        let signal = TerminalSignal::new();
        let started = Instant::now();
        let mut calls = 0;
        let (answer, parked) = signal.long_poll(started + Duration::from_millis(50), || {
            calls += 1;
            (calls, false)
        });
        assert!(started.elapsed() >= Duration::from_millis(50));
        assert!(parked.is_some());
        assert_eq!(answer, 2, "the job is probed again when the wait runs out");
        assert_eq!(signal.parked(), 0);
    }

    #[test]
    fn no_wake_up_is_lost_between_probe_and_park() {
        // Each "job" is a counter that a bumper thread moves to its
        // terminal value and then signals; every waiter must see it
        // long before its 20 s wait runs out.
        let signal = Arc::new(TerminalSignal::new());
        let jobs: Arc<Vec<AtomicU64>> = Arc::new((0..200).map(|_| AtomicU64::new(0)).collect());
        let waiters: Vec<_> = (0..8)
            .map(|w| {
                let signal = Arc::clone(&signal);
                let jobs = Arc::clone(&jobs);
                std::thread::spawn(move || {
                    for job in (w..jobs.len()).step_by(8) {
                        let asked = Instant::now();
                        let until = asked + Duration::from_secs(20);
                        let (done, _) = signal.long_poll(until, || {
                            let done = jobs[job].load(Ordering::SeqCst) == 1;
                            (done, done)
                        });
                        assert!(done, "job {job} was never seen terminal");
                        assert!(
                            asked.elapsed() < Duration::from_secs(5),
                            "job {job}'s wake-up was lost"
                        );
                    }
                })
            })
            .collect();
        for job in jobs.iter() {
            job.store(1, Ordering::SeqCst);
            signal.bump();
            std::thread::yield_now();
        }
        for waiter in waiters {
            waiter.join().expect("waiter");
        }
        assert_eq!(signal.generation(), 200);
        assert_eq!(signal.parked(), 0);
    }
}
