//! Serving-runtime benchmark: dynamic batching vs per-request dispatch.
//!
//! Drives a [`ServePool`] over a tiny ("nano") profile so per-dispatch
//! overhead — queue handoff, batch assembly, plan dispatch, decode — is
//! visible next to the forward pass, then measures for each `max_batch`:
//!
//! * **burst throughput**: N requests enqueued at once, wall-clock until
//!   all are answered;
//! * **open-loop load**: requests arriving on a fixed interval chosen to
//!   overload single-request dispatch; reports p50/p99 latency and the
//!   shed rate from admission control (bounded queue of 32).
//!
//! A final sweep holds `max_batch = 8` and scales the pool from one worker
//! up to `min(host_cpus, 4)`, recording burst throughput and the speedup
//! over one worker plus each worker's batch/steal counters — on a 1-core
//! host that sweep degenerates to the single-worker row and CI skips its
//! scaling gate.
//!
//! Results go to `results/BENCH_serve.json`. Scale flags: `--smoke` /
//! `--extended` (default standard).

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use platter_bench::{host_record, write_json, HostRecord, RunScale};
use platter_obs::{HistogramSnapshot, MetricsSnapshot};
use platter_serve::{ModelRegistry, Pending, ServeConfig, ServeError, ServePool};
use platter_tensor::Tensor;
use platter_yolo::{YoloConfig, Yolov4};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct OpenLoopResult {
    offered_rps: f64,
    submitted: usize,
    completed: usize,
    shed: usize,
    shed_rate: f64,
    p50_ms: f64,
    p99_ms: f64,
}

#[derive(Serialize)]
struct BucketRecord {
    le: f64,
    count: u64,
}

/// Serde mirror of [`HistogramSnapshot`] (the obs crate is
/// dependency-free, so it cannot derive `Serialize` itself).
#[derive(Serialize)]
struct HistogramRecord {
    count: u64,
    mean: f64,
    min: f64,
    max: f64,
    p50: f64,
    p90: f64,
    p99: f64,
    buckets: Vec<BucketRecord>,
}

impl HistogramRecord {
    fn from_snapshot(h: &HistogramSnapshot) -> HistogramRecord {
        HistogramRecord {
            count: h.count,
            mean: h.mean,
            min: h.min,
            max: h.max,
            p50: h.p50,
            p90: h.p90,
            p99: h.p99,
            buckets: h.buckets.iter().map(|b| BucketRecord { le: b.le, count: b.count }).collect(),
        }
    }
}

/// One worker's share of the pool's work: batches it executed and jobs it
/// stole from sibling queues.
#[derive(Serialize)]
struct WorkerCounterRecord {
    id: usize,
    batches: u64,
    steals: u64,
}

/// Collect `serve.worker.{i}.*` counters for however many workers the pool
/// registered (probing until the first missing id).
fn worker_counters(m: &MetricsSnapshot) -> Vec<WorkerCounterRecord> {
    let mut rows = Vec::new();
    loop {
        let i = rows.len();
        match m.counter(&format!("serve.worker.{i}.batches")) {
            Some(batches) => rows.push(WorkerCounterRecord {
                id: i,
                batches,
                steals: m.counter(&format!("serve.worker.{i}.steals")).unwrap_or(0),
            }),
            None => break rows,
        }
    }
}

/// The pool's observability registry for one open-loop run: distribution
/// data the monotonic `ServeStats` counters cannot express.
#[derive(Serialize)]
struct MetricsRecord {
    queue_depth: HistogramRecord,
    batch_size: HistogramRecord,
    latency_ms: HistogramRecord,
    /// Queue wait of deadline-culled jobs — the overload signal that used
    /// to vanish entirely from the latency series (culled jobs never reach
    /// `latency_ms`).
    culled_wait_ms: HistogramRecord,
    sheds: u64,
    deadline_misses: u64,
    breaker_transitions: u64,
    sanitize_nonfinite: u64,
    sanitize_badshape: u64,
    sanitize_baddims: u64,
    /// Per-worker batch/steal counters (one row per worker thread).
    worker_counters: Vec<WorkerCounterRecord>,
}

impl MetricsRecord {
    fn from_snapshot(m: &MetricsSnapshot) -> MetricsRecord {
        let hist = |name: &str| {
            HistogramRecord::from_snapshot(m.histogram(name).expect("pool registers its histograms"))
        };
        MetricsRecord {
            queue_depth: hist("serve.queue_depth"),
            batch_size: hist("serve.batch_size"),
            latency_ms: hist("serve.latency_ms"),
            culled_wait_ms: hist("serve.culled_wait_ms"),
            sheds: m.counter("serve.sheds").unwrap_or(0),
            deadline_misses: m.counter("serve.deadline_misses").unwrap_or(0),
            breaker_transitions: m.counter("serve.breaker_transitions").unwrap_or(0),
            sanitize_nonfinite: m.counter("serve.sanitize.nonfinite").unwrap_or(0),
            sanitize_badshape: m.counter("serve.sanitize.badshape").unwrap_or(0),
            sanitize_baddims: m.counter("serve.sanitize.baddims").unwrap_or(0),
            worker_counters: worker_counters(m),
        }
    }
}

/// One row of the worker-scaling sweep (fixed `max_batch = 8`).
#[derive(Serialize)]
struct WorkerScalingResult {
    workers: usize,
    burst_throughput_rps: f64,
    /// Throughput relative to the single-worker row of the same sweep.
    speedup_vs_one: f64,
    worker_counters: Vec<WorkerCounterRecord>,
}

/// Hot-swap under sustained load: the registry flips the live model while
/// closed-loop submitters keep the pool busy. The claim under test is the
/// DESIGN.md §15 one — a swap is a pointer flip plus a drain, so it must
/// cost microseconds on the control path and drop **zero** accepted jobs.
#[derive(Serialize)]
struct SwapRecord {
    /// Number of live-model flips performed during the run.
    swaps: u64,
    mean_swap_ms: f64,
    max_swap_ms: f64,
    /// Deepest accepted-but-unanswered backlog observed at a flip instant —
    /// the work that must drain on the outgoing model's forks.
    max_inflight_at_swap: u64,
    accepted: u64,
    completed: u64,
    /// `accepted - completed` after every submitter joined. The verify
    /// gate requires this to be exactly zero.
    dropped_jobs: u64,
    /// Stale-fork rebuilds across all workers (each worker re-forks once
    /// per flip it observes).
    reforks: u64,
    /// Drained models the registry released back to a single weight ref.
    retired: usize,
}

/// Flip the live model `swaps` times while `submitters` closed-loop
/// threads keep traffic flowing, alternating between two weight sets so
/// every flip lands on genuinely different parameters.
fn swap_under_load(model: &Yolov4, x: &Tensor, swaps: u64, submitters: usize) -> SwapRecord {
    let dir = std::env::temp_dir().join(format!("platter-bench-swap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cfg_b = YoloConfig { input_size: 32, width: 0.05, ..YoloConfig::micro(10) };
    let other = Yolov4::new(cfg_b.clone(), 43);
    let path_a = dir.join("a.pltw");
    let path_b = dir.join("b.pltw");
    std::fs::write(&path_a, model.save()).expect("write weights");
    std::fs::write(&path_b, other.save()).expect("write weights");

    let pool = Arc::new(ServePool::new(model, pool_config(2, 8, 256)));
    warm(&pool, x, 64);
    let registry = ModelRegistry::default();
    registry.adopt_live(&pool).expect("adopt live");
    // Load and smoke every candidate before the clock starts: eligibility
    // is off the hot path by design. Odd versions carry the other weight
    // set, so each flip changes the live fingerprint.
    let keys: Vec<String> = (1..=swaps)
        .map(|v| {
            let path = if v % 2 == 1 { &path_b } else { &path_a };
            registry.load_file("default", v, cfg_b.clone(), path).expect("candidate loads and smokes")
        })
        .collect();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let threads: Vec<_> = (0..submitters)
        .map(|_| {
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            let x = x.clone();
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    match pool.submit_tensor(&x) {
                        Ok(p) => {
                            p.wait().expect("swap must never fail a request");
                        }
                        Err(ServeError::Rejected { .. }) => std::thread::yield_now(),
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                }
            })
        })
        .collect();

    let mut swap_secs = Vec::with_capacity(swaps as usize);
    let mut max_inflight = 0u64;
    let mut retired = 0usize;
    for key in &keys {
        std::thread::sleep(Duration::from_millis(5));
        let s = pool.stats();
        // The snapshot reads independent counters, so a completion can be
        // seen before its admission is.
        max_inflight = max_inflight.max(s.accepted.saturating_sub(s.completed));
        let t = Instant::now();
        registry.hot_swap(&pool, key).expect("swap");
        swap_secs.push(t.elapsed().as_secs_f64());
        retired += registry.retire_drained().len();
    }
    std::thread::sleep(Duration::from_millis(5));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for t in threads {
        t.join().expect("submitter");
    }
    retired += registry.retire_drained().len();

    let stats = pool.stats();
    let reforks = pool.metrics().counter("serve.swap.reforks").unwrap_or(0);
    pool.shutdown();
    assert_eq!(stats.swaps, swaps, "every flip must be counted");
    SwapRecord {
        swaps: stats.swaps,
        mean_swap_ms: swap_secs.iter().sum::<f64>() / swap_secs.len() as f64 * 1e3,
        max_swap_ms: swap_secs.iter().cloned().fold(0.0, f64::max) * 1e3,
        max_inflight_at_swap: max_inflight,
        accepted: stats.accepted,
        completed: stats.completed,
        dropped_jobs: stats.accepted - stats.completed,
        reforks,
        retired,
    }
}

#[derive(Serialize)]
struct ModeResult {
    max_batch: usize,
    burst_requests: usize,
    burst_secs: f64,
    burst_throughput_rps: f64,
    open_loop: OpenLoopResult,
    /// Registry snapshot from the open-loop pool (includes its warm-up).
    metrics: MetricsRecord,
}

#[derive(Serialize)]
struct ServeBenchReport {
    config: &'static str,
    input_size: usize,
    /// Execution resources. `workers` is the widest pool the scaling sweep
    /// drove; with one core the batching gain is pure dispatch-overhead
    /// amortization (the forward pass itself is serial either way), so
    /// expect modest margins there and a single-row scaling sweep.
    host: HostRecord,
    per_request_rps: f64,
    batching_gain_at_4: f64,
    batching_gain_at_8: f64,
    /// Burst throughput at `max_batch = 8` for 1..=min(host_cpus, 4)
    /// workers sharing one set of plan weights.
    worker_scaling: Vec<WorkerScalingResult>,
    /// Registry hot-swaps under sustained closed-loop load.
    swap: SwapRecord,
    results: Vec<ModeResult>,
}

fn nano_model() -> Yolov4 {
    let cfg = YoloConfig { input_size: 32, width: 0.05, ..YoloConfig::micro(10) };
    Yolov4::new(cfg, 42)
}

fn pool_config(workers: usize, max_batch: usize, queue_capacity: usize) -> ServeConfig {
    ServeConfig {
        queue_capacity,
        max_batch,
        max_wait: Duration::from_millis(2),
        ..ServeConfig::new(workers)
    }
}

/// Enqueue `n` requests at once and wait for all: wall-clock throughput of
/// the dispatch path itself. Best of `reps` runs — the minimum is far more
/// stable under scheduler noise than a single sample.
fn burst_throughput(pool: &ServePool, x: &Tensor, n: usize, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let pending: Vec<Pending> =
            (0..n).map(|_| pool.submit_tensor(x).expect("burst fits queue")).collect();
        for p in pending {
            p.wait().expect("healthy pool");
        }
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// The no-batching baseline: dispatch each request individually and wait
/// for its answer before sending the next — what an application calling
/// `detect()` synchronously does. Pays a worker wake-up and a reply
/// wake-up per request, with the worker idle during both.
fn per_request_throughput(pool: &ServePool, x: &Tensor, n: usize, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..n {
            pool.submit_tensor(x).expect("queue empty").wait().expect("healthy pool");
        }
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Warm a pool past one-time costs (plan compile, arena growth to the
/// batch capacity, allocator steady state) so timed runs measure dispatch,
/// not setup.
fn warm(pool: &ServePool, x: &Tensor, n: usize) {
    let pending: Vec<Pending> =
        (0..n).map(|_| pool.submit_tensor(x).expect("warmup fits queue")).collect();
    for p in pending {
        p.wait().expect("healthy pool");
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Open-loop arrivals every `interval`; latencies are collected off-thread
/// so submission timing never blocks on a slow answer.
fn open_loop(pool: &ServePool, x: &Tensor, n: usize, interval: Duration) -> OpenLoopResult {
    let (tx, rx) = mpsc::channel::<(Instant, Pending)>();
    let rx = Arc::new(Mutex::new(rx));
    let latencies = Arc::new(Mutex::new(Vec::<f64>::new()));
    let collectors: Vec<_> = (0..4)
        .map(|_| {
            let rx = Arc::clone(&rx);
            let latencies = Arc::clone(&latencies);
            std::thread::spawn(move || loop {
                let item = rx.lock().unwrap().recv();
                match item {
                    Ok((t0, pending)) => {
                        if pending.wait().is_ok() {
                            latencies.lock().unwrap().push(t0.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                    Err(_) => return,
                }
            })
        })
        .collect();

    let mut shed = 0usize;
    let start = Instant::now();
    for i in 0..n {
        let due = start + interval * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        match pool.submit_tensor(x) {
            Ok(pending) => tx.send((Instant::now(), pending)).expect("collector alive"),
            Err(ServeError::Rejected { .. }) => shed += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    drop(tx);
    for c in collectors {
        c.join().expect("collector");
    }

    let mut lat = Arc::try_unwrap(latencies).expect("collectors joined").into_inner().unwrap();
    lat.sort_by(|a, b| a.total_cmp(b));
    OpenLoopResult {
        offered_rps: 1.0 / interval.as_secs_f64(),
        submitted: n,
        completed: lat.len(),
        shed,
        shed_rate: shed as f64 / n as f64,
        p50_ms: percentile(&lat, 0.50),
        p99_ms: percentile(&lat, 0.99),
    }
}

fn main() {
    let scale = RunScale::from_args();
    let (n_burst, reps) = match scale {
        RunScale::Smoke => (64, 3),
        RunScale::Standard => (512, 5),
        RunScale::Extended => (2048, 7),
    };

    let model = nano_model();
    let size = model.config.input_size;
    let mut rng = StdRng::seed_from_u64(7);
    let x = Tensor::rand_uniform(&[3, size, size], 0.0, 1.0, &mut rng);

    // Calibrate the open-loop arrival rate against single-request dispatch
    // so the same offered load overloads it but not the batcher.
    let calib_pool = ServePool::new(&model, pool_config(1, 1, n_burst));
    warm(&calib_pool, &x, 32);
    let calib_secs = burst_throughput(&calib_pool, &x, n_burst.min(128), 2);
    calib_pool.shutdown();
    let single_rps = n_burst.min(128) as f64 / calib_secs;
    let offered_rps = single_rps * 1.5;
    let interval = Duration::from_secs_f64(1.0 / offered_rps);

    // Baseline: per-request dispatch (no batching, no pipelining).
    let base_pool = ServePool::new(&model, pool_config(1, 1, n_burst));
    warm(&base_pool, &x, 32);
    let per_request_secs = per_request_throughput(&base_pool, &x, n_burst, reps);
    let per_request_rps = n_burst as f64 / per_request_secs;
    base_pool.shutdown();
    println!("per-request dispatch: {per_request_rps:7.1} req/s");

    let mut results = Vec::new();
    for max_batch in [1usize, 4, 8] {
        let pool = ServePool::new(&model, pool_config(1, max_batch, n_burst));
        // Warm until the arena has grown to `max_batch` capacity: the first
        // full batch pays plan + allocation, every later one is steady-state.
        warm(&pool, &x, 4 * max_batch.max(8));

        let burst_secs = burst_throughput(&pool, &x, n_burst, reps);
        let burst_rps = n_burst as f64 / burst_secs;
        pool.shutdown();

        // Fresh pool with a small queue so overload sheds instead of
        // building a deep backlog.
        let pool = ServePool::new(&model, pool_config(1, max_batch, 32));
        warm(&pool, &x, 4 * max_batch.max(8));
        let open = open_loop(&pool, &x, n_burst, interval);
        let stats = pool.stats();
        assert_eq!(stats.worker_panics, 0, "bench must run clean");
        let metrics = MetricsRecord::from_snapshot(&pool.metrics());
        pool.shutdown();

        println!(
            "max_batch {max_batch}: burst {burst_rps:7.1} req/s   open-loop p50 {:7.2} ms  p99 {:7.2} ms  shed {:4.1}%",
            open.p50_ms,
            open.p99_ms,
            open.shed_rate * 100.0
        );
        println!(
            "              queue depth p99 {:5.1}   batch size mean {:4.2}   latency p99 {:7.2} ms",
            metrics.queue_depth.p99, metrics.batch_size.mean, metrics.latency_ms.p99
        );
        results.push(ModeResult {
            max_batch,
            burst_requests: n_burst,
            burst_secs,
            burst_throughput_rps: burst_rps,
            open_loop: open,
            metrics,
        });
    }

    for r in &results {
        let gain = r.burst_throughput_rps / per_request_rps;
        println!("batcher (max_batch {}) vs per-request dispatch: {gain:.2}x throughput", r.max_batch);
    }

    // Worker-scaling sweep: same burst, `max_batch = 8`, pool width 1..=N.
    // All pools fork from one compiled master, so weights are never copied;
    // the counters show how evenly the burst spread (and how much of it
    // arrived by stealing).
    let host = host_record(
        std::thread::available_parallelism().map_or(1, |n| n.get()).min(4),
    );
    let mut worker_scaling: Vec<WorkerScalingResult> = Vec::new();
    for workers in 1..=host.workers {
        let pool = ServePool::new(&model, pool_config(workers, 8, n_burst));
        warm(&pool, &x, 32 * workers);
        let secs = burst_throughput(&pool, &x, n_burst, reps);
        let rps = n_burst as f64 / secs;
        let counters = worker_counters(&pool.metrics());
        assert_eq!(pool.stats().worker_panics, 0, "bench must run clean");
        pool.shutdown();
        let speedup_vs_one = worker_scaling.first().map_or(1.0, |one| rps / one.burst_throughput_rps);
        println!(
            "workers {workers}: burst {rps:7.1} req/s   {speedup_vs_one:.2}x vs one worker   steals {}",
            counters.iter().map(|w| w.steals).sum::<u64>()
        );
        worker_scaling.push(WorkerScalingResult {
            workers,
            burst_throughput_rps: rps,
            speedup_vs_one,
            worker_counters: counters,
        });
    }

    // Hot-swap under load: flips scale with the run, load width with the host.
    let n_swaps = match scale {
        RunScale::Smoke => 4,
        RunScale::Standard => 8,
        RunScale::Extended => 16,
    };
    let swap = swap_under_load(&model, &x, n_swaps, host.workers.min(2));
    println!(
        "hot-swap under load: {} swaps  mean {:.3} ms  max {:.3} ms  inflight<= {}  dropped {}",
        swap.swaps,
        swap.mean_swap_ms,
        swap.max_swap_ms,
        swap.max_inflight_at_swap,
        swap.dropped_jobs
    );
    assert_eq!(swap.dropped_jobs, 0, "a hot swap must never drop an accepted job");

    let report = ServeBenchReport {
        config: "nano",
        input_size: size,
        host,
        per_request_rps,
        batching_gain_at_4: results[1].burst_throughput_rps / per_request_rps,
        batching_gain_at_8: results[2].burst_throughput_rps / per_request_rps,
        worker_scaling,
        swap,
        results,
    };
    write_json("BENCH_serve", &report);
}
