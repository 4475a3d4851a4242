//! Eager tape vs planned engine: wall-clock inference comparison.
//!
//! Runs the micro-profile YOLOv4 forward pass through both paths —
//! `Yolov4::infer` (fresh `Graph` per call) and the compiled engine from
//! `Yolov4::compile_inference` (BN folded, static arena) — at batch 1 and
//! batch 8, and writes medians plus plan statistics to
//! `results/BENCH_inference.json`. Each batch size is timed over three
//! independent rounds and the median round is reported, so the CI speedup
//! gate keys on a number that survives scheduler jitter; each row also
//! records the fastest and slowest round's compiled time.
//!
//! After the timed comparison (so profiling overhead cannot contaminate
//! the speedup numbers) the compiled engine is re-run under the
//! [`platter_obs`] per-op profiler at batch 1; the top ops are printed and
//! the full per-kind/per-step breakdown goes to
//! `results/PROFILE_inference.json`.
//!
//! Scale flags: `--smoke` (few reps, CI-sized) / `--extended`; default is
//! the standard rep count.

use std::time::Instant;

use platter_bench::{host_record, write_json, write_text, HostRecord, RunScale};
use platter_obs::ProfileReport;
use platter_tensor::Tensor;
use platter_yolo::{YoloConfig, Yolov4};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct BatchResult {
    batch: usize,
    eager_ms: f64,
    compiled_ms: f64,
    speedup: f64,
    /// Fastest compiled round of the `ROUNDS` timed.
    compiled_ms_min: f64,
    /// Slowest compiled round of the `ROUNDS` timed.
    compiled_ms_max: f64,
}

/// Timing rounds per batch size; the reported number is the median round.
const ROUNDS: usize = 3;

#[derive(Serialize)]
struct BenchReport {
    config: &'static str,
    input_size: usize,
    reps: usize,
    /// Timing rounds per batch size; the reported row is the median round.
    rounds: usize,
    /// Execution resources (single engine; `threads` is the GEMM pool).
    host: HostRecord,
    plan_values: usize,
    plan_slots: usize,
    peak_arena_bytes: usize,
    results: Vec<BatchResult>,
}

/// Median of `reps` timed runs of `f`, in milliseconds.
fn median_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() {
    let scale = RunScale::from_args();
    let reps = match scale {
        RunScale::Smoke => 5,
        RunScale::Standard => 30,
        RunScale::Extended => 60,
    };

    let config = YoloConfig::micro(10);
    let size = config.input_size;
    let model = Yolov4::new(config, 42);
    let mut rng = StdRng::seed_from_u64(7);

    let mut engine = model.compile_inference();
    let mut results = Vec::new();
    let mut peak_arena = 0usize;

    for batch in [1usize, 8] {
        let x = Tensor::rand_uniform(&[batch, 3, size, size], 0.0, 1.0, &mut rng);
        // Warm-up: first compiled call at a batch size grows the arena.
        let _ = model.infer(&x);
        let _ = engine.run(&x);

        // One eager/compiled pair is at the mercy of scheduler jitter (the
        // eager side alone swings several ms run to run), and CI gates on
        // the batch-1 speedup. Measure `ROUNDS` independent rounds and keep
        // the whole median-speedup round, so the reported eager/compiled
        // times stay a consistent pair.
        let mut rounds: Vec<(f64, f64)> = (0..ROUNDS)
            .map(|_| {
                let eager_ms = median_ms(reps, || {
                    let _ = model.infer(&x);
                });
                let compiled_ms = median_ms(reps, || {
                    let _ = engine.run(&x);
                });
                (eager_ms, compiled_ms)
            })
            .collect();
        peak_arena = peak_arena.max(engine.arena_bytes());
        let compiled = rounds.iter().map(|r| r.1);
        let compiled_ms_min = compiled.clone().fold(f64::INFINITY, f64::min);
        let compiled_ms_max = compiled.fold(0.0, f64::max);
        rounds.sort_by(|a, b| (a.0 / a.1).total_cmp(&(b.0 / b.1)));
        let (eager_ms, compiled_ms) = rounds[ROUNDS / 2];
        let median = BatchResult {
            batch,
            eager_ms,
            compiled_ms,
            speedup: eager_ms / compiled_ms,
            compiled_ms_min,
            compiled_ms_max,
        };

        println!(
            "batch {batch}: eager {:8.2} ms   compiled {:8.2} ms (rounds {:.2}–{:.2})   speedup {:.2}x (median of {ROUNDS} rounds)",
            median.eager_ms, median.compiled_ms, compiled_ms_min, compiled_ms_max, median.speedup
        );
        results.push(median);
    }

    let report = BenchReport {
        config: "micro",
        input_size: size,
        reps,
        rounds: ROUNDS,
        host: host_record(1),
        plan_values: engine.plan().num_values(),
        plan_slots: engine.plan().num_slots(),
        peak_arena_bytes: peak_arena,
        results,
    };
    println!(
        "plan: {} values in {} slots, peak arena {:.1} KiB",
        report.plan_values,
        report.plan_slots,
        report.peak_arena_bytes as f64 / 1024.0
    );
    write_json("BENCH_inference", &report);

    // Profiled pass last: the timed comparison above ran with profiling
    // disabled, so these per-op timings are diagnostic, not part of the
    // speedup measurement.
    let x = Tensor::rand_uniform(&[1, 3, size, size], 0.0, 1.0, &mut rng);
    let _ = engine.run(&x); // re-warm the arena at batch 1
    let mut profile = ProfileReport::new();
    for _ in 0..reps {
        let _ = engine.run_profiled(&x, &mut profile);
    }
    println!(
        "\nper-op profile (batch 1, {} runs, op coverage {:.1}% of wall):",
        profile.runs(),
        profile.op_time_share() * 100.0
    );
    print!("{}", profile.render_table(10));
    write_text("PROFILE_inference.json", &profile.to_json());
}
