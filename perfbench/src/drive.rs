//! Load generation: an open loop (one sender thread submitting on a seeded
//! schedule, one collector thread waiting for answers in submission order)
//! and a closed loop of bursts. Every request ends as one [`Outcome`].

use std::sync::mpsc;
use std::time::{Duration, Instant};

use platter_serve::ServeError;

use crate::inputs::Arrival;
use crate::stats::{self, Summary};
use crate::trace::{Clock, Span, Spans};

/// Equal spans of due time a phase's latency is split into for
/// [`Totals::windowed_p50_ms`].
pub const WINDOWS: usize = 5;

/// Generator lateness above which a run is flagged: the
/// sender could not keep to its schedule, so the offered load was lower
/// than stated.
pub const BEHIND_MS: f64 = 5.0;

/// How one sent request ended, as its client saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    /// Due `due_s` after the phase started, answered `latency_ms` after
    /// that; `correct` says whether the answer passed the output check.
    Answered { due_s: f64, latency_ms: f64, correct: bool, dets: usize },
    /// Refused at admission because the queue was full.
    Shed,
    /// Dropped by the batcher because its deadline passed.
    Culled,
    /// Any other error.
    Errored,
}

impl Outcome {
    fn from_error(e: &ServeError) -> Outcome {
        match e {
            ServeError::Rejected { .. } => Outcome::Shed,
            ServeError::DeadlineExceeded => Outcome::Culled,
            _ => Outcome::Errored,
        }
    }
}

/// Everything one load phase observed.
pub struct Run {
    /// One outcome per sent request, indexed by request id.
    pub outcomes: Vec<Outcome>,
    /// Open loop: how late the sender submitted each request.
    pub lateness_ms: Vec<f64>,
    /// From the first due time to the last answer.
    pub wall_s: f64,
    pub spans: Vec<Span>,
}

/// What the output check said about one answer.
pub struct Verdict {
    pub correct: bool,
    pub dets: usize,
}

/// Sleep until `t` (no spinning: the pool needs the cores).
fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Run an open-loop phase over `schedule`. `submit` runs on the sender
/// thread at each due time; `wait` blocks on the collector thread for the
/// answer; `judge` checks it (untimed). Spans: a `request` root per request
/// (due time to answer) with `serve.submit` and `serve.wait` children.
pub fn open_loop<P: Send, R>(
    schedule: &[Arrival],
    clock: &Clock,
    traced: bool,
    submit: impl Fn(&Arrival) -> Result<P, ServeError> + Sync,
    wait: impl Fn(P) -> Result<R, ServeError>,
    mut judge: impl FnMut(usize, &Arrival, R) -> Verdict,
) -> Run {
    // Give the sender a moment to start before the first request is due.
    let epoch = Instant::now() + Duration::from_millis(10);
    let mut outcomes = vec![Outcome::Errored; schedule.len()];
    let mut spans = Spans::new(clock, traced);
    let mut last_answer = epoch;
    let (lateness_ms, sender_spans) = std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(usize, Instant, u64, Result<P, ServeError>)>();
        let submit = &submit;
        let sender = s.spawn(move || {
            let mut spans = Spans::new(clock, traced);
            let mut lateness = Vec::with_capacity(schedule.len());
            for (req, a) in schedule.iter().enumerate() {
                let due = epoch + a.due;
                sleep_until(due);
                let t0 = Instant::now();
                lateness.push((t0 - due).as_secs_f64() * 1e3);
                let pending = submit(a);
                let (root, t1) = (clock.id(), Instant::now());
                spans.record("serve.submit", Some(root), Some(req as u64), t0, t1);
                if pending.is_err() {
                    spans.record_as(root, "request", None, Some(req as u64), due, t1);
                }
                if tx.send((req, due, root, pending)).is_err() {
                    break;
                }
            }
            (lateness, spans.spans)
        });
        for (req, due, root, pending) in rx {
            let answer = pending.and_then(|p| {
                let t0 = Instant::now();
                let r = wait(p);
                let t1 = Instant::now();
                spans.record("serve.wait", Some(root), Some(req as u64), t0, t1);
                spans.record_as(root, "request", None, Some(req as u64), due, t1);
                last_answer = last_answer.max(t1);
                r.map(|r| (r, t1))
            });
            outcomes[req] = match answer {
                Ok((r, t1)) => {
                    let latency_ms = (t1 - due).as_secs_f64() * 1e3;
                    let v = judge(req, &schedule[req], r);
                    let due_s = schedule[req].due.as_secs_f64();
                    Outcome::Answered { due_s, latency_ms, correct: v.correct, dets: v.dets }
                }
                Err(e) => Outcome::from_error(&e),
            };
        }
        sender.join().expect("sender thread panicked")
    });
    spans.spans.extend(sender_spans);
    Run { outcomes, lateness_ms, wall_s: (last_answer - epoch).as_secs_f64(), spans: spans.spans }
}

/// Run a closed loop of bursts for `seconds`: submit burst `k` (the items
/// `burst(k)` names), wait for all of it, then send the next. A request's
/// latency, and its `request` span, run from its burst's start.
pub fn closed_loop<P, R>(
    seconds: f64,
    clock: &Clock,
    traced: bool,
    burst: impl Fn(u64) -> Vec<usize>,
    submit: impl Fn(usize) -> Result<P, ServeError>,
    wait: impl Fn(P) -> Result<R, ServeError>,
    mut judge: impl FnMut(usize, R) -> Verdict,
) -> Run {
    let mut spans = Spans::new(clock, traced);
    let mut outcomes = Vec::new();
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let mut end = start;
    let mut k = 0u64;
    while end < stop {
        let items = burst(k);
        k += 1;
        let t_burst = Instant::now();
        let base = outcomes.len();
        let mut pending = Vec::with_capacity(items.len());
        for (i, &item) in items.iter().enumerate() {
            let req = (base + i) as u64;
            let t0 = Instant::now();
            let p = submit(item);
            let (root, t1) = (spans.new_id(), Instant::now());
            spans.record("serve.submit", Some(root), Some(req), t0, t1);
            if p.is_err() {
                spans.record_as(root, "request", None, Some(req), t_burst, t1);
            }
            pending.push((root, p));
        }
        for (i, ((root, p), &item)) in pending.into_iter().zip(&items).enumerate() {
            let req = (base + i) as u64;
            let outcome = match p.and_then(|p| {
                let t0 = Instant::now();
                let r = wait(p);
                let t1 = Instant::now();
                spans.record("serve.wait", Some(root), Some(req), t0, t1);
                spans.record_as(root, "request", None, Some(req), t_burst, t1);
                r.map(|r| (r, t1))
            }) {
                Ok((r, t1)) => {
                    let v = judge(item, r);
                    let latency_ms = (t1 - t_burst).as_secs_f64() * 1e3;
                    let due_s = (t_burst - start).as_secs_f64();
                    Outcome::Answered { due_s, latency_ms, correct: v.correct, dets: v.dets }
                }
                Err(e) => Outcome::from_error(&e),
            };
            outcomes.push(outcome);
        }
        end = Instant::now();
    }
    Run { outcomes, lateness_ms: Vec::new(), wall_s: (end - start).as_secs_f64(), spans: spans.spans }
}

/// The end-to-end view of one phase.
#[derive(Clone, Debug)]
pub struct Totals {
    pub sent: usize,
    pub answered: usize,
    pub shed: usize,
    pub culled: usize,
    pub errored: usize,
    pub mismatched: usize,
    pub latency_ms: Summary,
    /// Median over [`WINDOWS`] equal spans of due time of each span's
    /// median latency: a host slowdown covering a minority of the run
    /// does not move it.
    pub windowed_p50_ms: Option<f64>,
    pub slo_met_frac: f64,
    pub throughput_ips: f64,
    pub dets_per_image: f64,
    /// Open loop: how late the sender ran (empty for a closed loop).
    pub lateness_ms: Summary,
    pub lateness_max_ms: Option<f64>,
}

impl Totals {
    /// Summarise `run` against a latency limit of `limit_ms`. Failed
    /// requests (shed, culled, errored, or answered wrongly) miss the limit.
    pub fn of(run: &Run, limit_ms: f64) -> Totals {
        let (mut answered, mut shed, mut culled, mut errored, mut mismatched, mut met, mut dets) =
            (0, 0, 0, 0, 0, 0, 0);
        let mut latencies = Vec::with_capacity(run.outcomes.len());
        let mut timed = Vec::with_capacity(run.outcomes.len());
        for o in &run.outcomes {
            match *o {
                Outcome::Answered { due_s, latency_ms, correct, dets: d } => {
                    answered += 1;
                    dets += d;
                    latencies.push(latency_ms);
                    timed.push((due_s, latency_ms));
                    if !correct {
                        mismatched += 1;
                    } else if latency_ms <= limit_ms {
                        met += 1;
                    }
                }
                Outcome::Shed => shed += 1,
                Outcome::Culled => culled += 1,
                Outcome::Errored => errored += 1,
            }
        }
        let sent = run.outcomes.len();
        Totals {
            sent,
            answered,
            shed,
            culled,
            errored,
            mismatched,
            latency_ms: Summary::of(&latencies),
            windowed_p50_ms: stats::windowed_median(&timed, WINDOWS),
            slo_met_frac: met as f64 / sent.max(1) as f64,
            throughput_ips: answered as f64 / run.wall_s.max(1e-9),
            dets_per_image: dets as f64 / answered.max(1) as f64,
            lateness_ms: Summary::of(&run.lateness_ms),
            lateness_max_ms: stats::max(&run.lateness_ms),
        }
    }

    /// Requests that did not get a correct answer.
    pub fn failed(&self) -> usize {
        self.shed + self.culled + self.errored + self.mismatched
    }

    /// Whether the sender fell behind its schedule: its lateness at the
    /// highest percentile the sample supports exceeds [`BEHIND_MS`].
    pub fn generator_behind(&self) -> bool {
        let l = &self.lateness_ms;
        l.p99.or(l.p90).or(l.p50).is_some_and(|late| late > BEHIND_MS)
    }
}
