//! # perfbench — the serving benchmark
//!
//! One command drives `platter-serve`'s `ServePool` under one workload,
//! checks every answer, and prints every metric by name and unit:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload photo_open --seed 1 --seconds 50 --trace 0
//! ```
//!
//! * `photo_open` — platter photos (128–256 px, some non-square) through
//!   `submit_image`, open loop, seeded Poisson arrivals at 15 requests/s;
//!   micro model (64 px), 1 worker, `max_batch` 8. The paper's
//!   dietary-logging path: letterbox in the caller, batch-1 forward.
//! * `batch_eval` — a pre-letterboxed validation set through
//!   `submit_tensor` in closed-loop bursts of 48; micro model, 2 workers.
//!   Offline re-evaluation: throughput at batch 8.
//! * `video_streams` — 4 stream sessions at 30 frames/s each, open loop,
//!   seeded start offsets; nano model (32 px), 1 worker. Serve dispatch
//!   and the per-session tracker step dominate. Runnable by name, but not
//!   listed in `BENCHMARK.json`: its ~5 ms latency moved by 25–55%
//!   (quartile spread over ten seeds) with the load of a shared 2-vCPU host.
//!
//! The model weights are fixed (`Yolov4::new(cfg, 42)`, f32) and
//! `PLATTER_THREADS` is pinned to 1, so workers × threads ≤ 2 cores.
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off; the result line carries those `BENCHMARK.json` lists, the report
//! above it also the p90 and p99 latency where the sample supports them.
//! The result's `latency_p50_ms` is the median of the medians of five equal
//! spans of the run, so a host slowdown over one or two of them (the
//! shared 2-vCPU host this was tuned on has 20–120 s slow phases) does not
//! move it; the report also prints the plain p50.
//! With `--trace 1` it runs the same inputs twice for half the time each,
//! untraced then traced, reports the difference as the tracing overhead,
//! and derives the per-layer metrics from spans recorded around the calls
//! into each layer (written to `perfbench/out/`). The last line of
//! standard output is always the JSON result.

mod check;
mod drive;
mod inputs;
mod probe;
mod provenance;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use platter_obs::MetricsSnapshot;
use platter_yolo::Yolov4;

use crate::drive::Totals;
use crate::provenance::{Provenance, Steal};
use crate::trace::{durations_ms, Clock, Spans};
use crate::workload::{Workload, SETUP_REPS, WEIGHT_SEED};

const USAGE: &str = "usage: perfbench --workload <photo_open|batch_eval|video_streams> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".to_string(), |v| format!("{v:.3}"))
}

/// Human-readable account of one phase.
fn print_totals(label: &str, t: &Totals, limit_ms: f64) {
    let answered_ok = t.answered - t.mismatched;
    println!(
        "{label}requests sent={} answered={} shed={} culled={} errored={} mismatched={} failed_frac={:.4}",
        t.sent,
        t.answered,
        t.shed,
        t.culled,
        t.errored,
        t.mismatched,
        t.failed() as f64 / t.sent.max(1) as f64
    );
    println!(
        "{label}check match_frac={:.4} dets_per_image={:.2} rule=\"{}\"",
        answered_ok as f64 / t.answered.max(1) as f64,
        t.dets_per_image,
        check::rule()
    );
    if t.lateness_ms.n > 0 {
        println!(
            "{label}generator lateness_ms p50={} p90={} p99={} max={} behind={}",
            fmt_opt(t.lateness_ms.p50),
            fmt_opt(t.lateness_ms.p90),
            fmt_opt(t.lateness_ms.p99),
            fmt_opt(t.lateness_max_ms),
            t.generator_behind()
        );
    }
    let l = &t.latency_ms;
    println!(
        "{label}latency_ms n={} p50={} p90={} p99={} windowed_p50={} (a percentile needs {} samples beyond it)",
        l.n,
        fmt_opt(l.p50),
        fmt_opt(l.p90),
        fmt_opt(l.p99),
        fmt_opt(t.windowed_p50_ms),
        stats::MIN_BEYOND
    );
    println!(
        "{label}slo_met_frac={:.4} (limit {limit_ms:.1} ms) throughput_ips={:.3}",
        t.slo_met_frac, t.throughput_ips
    );
}

/// Report how contended the host was while the load ran.
fn print_steal(since: Option<Steal>) {
    let share = since.and_then(|s| s.share());
    println!("host steal_frac={}", share.map_or_else(|| "n/a".to_string(), |v| format!("{v:.4}")));
}

/// The result line's `latency_p50_ms`: see [`Totals::windowed_p50_ms`].
fn windowed_p50(t: &Totals) -> Result<f64, String> {
    t.windowed_p50_ms.ok_or_else(|| {
        format!("too few answers for a median in each of {} time windows; run longer", drive::WINDOWS)
    })
}

/// Whether every answer passed the output check and the check had
/// something to check.
fn outputs_correct(t: &Totals) -> bool {
    t.mismatched == 0 && t.errored == 0 && t.answered > 0 && t.dets_per_image > 0.0
}

/// Print the result line: the last line of standard output.
fn print_result(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> Result<(), String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        println!("metric {name} {value} {unit}");
        body.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // GEMM reads this once per process, so it is pinned before any forward.
    std::env::set_var("PLATTER_THREADS", "1");
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("provenance {}", Provenance::collect(args.seed, w.workers()).render());
    let prepared = workload::prepare(w, args.seed);
    let model = Yolov4::new(w.model_config(), WEIGHT_SEED);
    let clock = Clock::new(Instant::now());
    if args.trace {
        traced(args, &prepared, &model, &clock)
    } else {
        untraced(args, &prepared, &model, &clock)
    }
}

/// End-to-end metrics, tracing off.
fn untraced(args: &Args, prepared: &workload::Prepared, model: &Yolov4, clock: &Clock) -> Result<(), String> {
    let w = args.workload;
    let steal = Steal::start();
    let (pool, setups) = workload::setup(prepared, model, SETUP_REPS);
    let run = workload::phase(prepared, &pool, args.seconds, clock, false);
    pool.shutdown();
    drop(pool);
    let t = Totals::of(&run, w.limit_ms());
    print_totals("", &t, w.limit_ms());
    print_steal(steal);
    let metrics = [
        ("setup_s", stats::median(&setups).ok_or("too few set-ups for a median")?, "s"),
        ("latency_p50_ms", windowed_p50(&t)?, "ms"),
        ("slo_met_frac", t.slo_met_frac, "fraction"),
        ("throughput_ips", t.throughput_ips, "1/s"),
        ("ok_frac", 1.0 - t.failed() as f64 / t.sent.max(1) as f64, "fraction"),
        ("peak_rss_mb", peak_rss_mb()?, "MiB"),
    ];
    print_result(outputs_correct(&t), t.sent, t.failed(), &metrics)
}

/// Sum of the per-worker steal counters.
fn steals(m: &MetricsSnapshot) -> f64 {
    m.counters
        .iter()
        .filter(|c| c.name.starts_with("serve.worker.") && c.name.ends_with(".steals"))
        .map(|c| c.value as f64)
        .sum()
}

/// Per-layer metrics: an untraced and a traced phase of half the run each
/// on fresh pools, idle round trips, then the layer probe.
fn traced(args: &Args, prepared: &workload::Prepared, model: &Yolov4, clock: &Clock) -> Result<(), String> {
    let w = args.workload;
    let half = args.seconds / 2.0;
    let steal = Steal::start();
    let (pool, _) = workload::setup(prepared, model, 1);
    let plain = Totals::of(&workload::phase(prepared, &pool, half, clock, false), w.limit_ms());
    pool.shutdown();
    drop(pool);
    print_totals("untraced ", &plain, w.limit_ms());

    let (pool, _) = workload::setup(prepared, model, 1);
    let run = workload::phase(prepared, &pool, half, clock, true);
    let t = Totals::of(&run, w.limit_ms());
    print_totals("traced ", &t, w.limit_ms());
    let mut spans = Spans::new(clock, true);
    spans.spans = run.spans;
    workload::idle_roundtrips(prepared, &pool, &mut spans);
    let m = pool.metrics();
    pool.shutdown();
    drop(pool);

    print_steal(steal);

    let mut readings = probe::run(args.seed, &prepared.photos, &mut spans);
    let median = |name: &str| {
        stats::median(&durations_ms(&spans.spans, name))
            .ok_or_else(|| format!("too few {name} spans for a median"))
    };
    let hist = |name: &str| m.histogram(name).ok_or_else(|| format!("pool metrics lack {name}"));
    let counter =
        |name: &str| m.counter(name).map(|v| v as f64).ok_or_else(|| format!("pool metrics lack {name}"));
    readings.extend([
        ("yolo.dets_per_image", t.dets_per_image, "count"),
        ("serve.submit_ms", median("serve.submit")?, "ms"),
        ("serve.wait_ms", median("serve.wait")?, "ms"),
        ("serve.idle_roundtrip_ms", median("serve.idle_roundtrip")?, "ms"),
        ("serve.batch_size.mean", hist("serve.batch_size")?.mean, "count"),
        ("serve.queue_depth.p99", hist("serve.queue_depth")?.p99, "count"),
        ("serve.sheds", counter("serve.sheds")?, "count"),
        ("serve.deadline_misses", counter("serve.deadline_misses")?, "count"),
        ("serve.worker.steals", steals(&m), "count"),
        ("trace.overhead.latency_p50_ms", windowed_p50(&t)? - windowed_p50(&plain)?, "ms"),
        ("trace.overhead.throughput_ips", t.throughput_ips - plain.throughput_ips, "1/s"),
    ]);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
        "spans-{}-seed{}.jsonl",
        w.name(),
        args.seed
    ));
    trace::write_jsonl(&path, &mut spans.spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans {} written to {}", spans.spans.len(), path.display());

    let correct = outputs_correct(&plain) && outputs_correct(&t);
    print_result(correct, plain.sent + t.sent, plain.failed() + t.failed(), &readings)
}
