//! End-to-end fault-injection suite for the serving pool.
//!
//! Every scenario uses a seeded model and a [`ServeFaultPlan`] keyed to
//! batch sequence numbers, with one worker and closed-loop submission, so
//! each run produces the same trace — including the determinism test that
//! replays a whole trip/probe/recover scenario twice and compares both the
//! stats and the detections bit-for-bit.

use std::time::{Duration, Instant};

use platter_imaging::{Image, Rgb};
use platter_serve::{
    BreakerConfig, InputError, Request, ServeConfig, ServeError, ServeFault, ServeFaultPlan,
    ServePool, ServeStats,
};
use platter_tensor::Tensor;
use platter_yolo::{Detection, YoloConfig, Yolov4};

/// A tiny-but-valid profile so each forward pass costs well under a
/// millisecond and the suite stays fast.
fn nano_config() -> YoloConfig {
    YoloConfig { input_size: 32, width: 0.1, ..YoloConfig::micro(10) }
}

fn nano_model(seed: u64) -> Yolov4 {
    Yolov4::new(nano_config(), seed)
}

fn test_image(seed: usize) -> Image {
    let shade = 0.2 + 0.1 * (seed % 7) as f32;
    Image::new(40 + seed % 13, 30 + seed % 11, Rgb::new(shade, 0.5 - shade * 0.3, shade * 0.8))
}

fn serve_cfg(workers: usize) -> ServeConfig {
    ServeConfig { max_wait: Duration::from_millis(1), ..ServeConfig::new(workers) }
}

#[test]
fn pool_serves_detections_end_to_end() {
    let model = nano_model(7);
    let pool = ServePool::new(&model, serve_cfg(2));
    for i in 0..6 {
        let dets = pool.detect(&test_image(i)).expect("healthy pool serves");
        for d in &dets {
            assert!(d.bbox.is_valid());
            assert!(d.score.is_finite());
            assert!(d.class < 10);
        }
    }
    let stats = pool.stats();
    assert_eq!(stats.accepted, 6);
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.rejected_full, 0);
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(stats.eager_batches, 0, "healthy pool never degrades");
    pool.shutdown();
}

#[test]
fn compiled_panic_is_absorbed_by_eager_retry() {
    let model = nano_model(11);
    let plan = ServeFaultPlan::new().at(0, ServeFault::WorkerPanic);
    let pool = ServePool::with_faults(&model, serve_cfg(1), plan);

    // The panicking batch still answers: the worker contains the unwind,
    // discards its engine, and retries the same batch eagerly.
    let first = pool.detect(&test_image(0));
    assert!(first.is_ok(), "request survives a compiled-path panic: {first:?}");

    // The pool keeps serving on the rebuilt compiled engine afterwards.
    let second = pool.detect(&test_image(1));
    assert!(second.is_ok());

    let stats = pool.stats();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.eager_batches, 1, "batch 0 fell back to eager");
    assert_eq!(stats.compiled_batches, 1, "batch 1 is compiled again");
    assert_eq!(stats.completed, 2);
    pool.shutdown();
}

#[test]
fn eager_path_panic_returns_typed_error_and_pool_survives() {
    let model = nano_model(13);
    // Trip on the first compiled failure, then panic the eager path too.
    let cfg = ServeConfig {
        breaker: BreakerConfig { failure_threshold: 1, probe_after: 8 },
        ..serve_cfg(1)
    };
    let plan = ServeFaultPlan::new()
        .at(0, ServeFault::CorruptOutput)
        .at(1, ServeFault::WorkerPanic);
    let pool = ServePool::with_faults(&model, cfg, plan);

    // Batch 0: compiled outputs corrupt → breaker trips → eager retry Ok.
    assert!(pool.detect(&test_image(0)).is_ok());
    assert!(pool.is_degraded());

    // Batch 1 runs on the (degraded) eager path and panics: no fallback
    // remains, so the request gets the typed error.
    match pool.detect(&test_image(1)) {
        Err(ServeError::WorkerPanic { message }) => assert!(message.contains("injected")),
        other => panic!("expected WorkerPanic, got {other:?}"),
    }

    // The panic was contained: the pool still answers.
    assert!(pool.detect(&test_image(2)).is_ok());

    let stats = pool.stats();
    assert_eq!(stats.corrupt_outputs, 1);
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.breaker_trips, 1);
    assert_eq!(stats.completed, 2);
    pool.shutdown();
}

/// Drive the full trip → degraded → probe → recover cycle and return the
/// trace (stats + every request's detections) for determinism checks.
fn breaker_cycle_trace() -> (ServeStats, Vec<Vec<Detection>>) {
    let model = nano_model(17);
    let cfg = ServeConfig {
        breaker: BreakerConfig { failure_threshold: 2, probe_after: 2 },
        ..serve_cfg(1)
    };
    let plan = ServeFaultPlan::new()
        .at(0, ServeFault::CorruptOutput)
        .at(1, ServeFault::CorruptOutput);
    let pool = ServePool::with_faults(&model, cfg, plan);

    let mut all = Vec::new();
    for i in 0..6 {
        all.push(pool.detect(&test_image(i)).expect("every request is answered"));
        if i == 2 {
            assert!(pool.is_degraded(), "after two compiled failures the breaker is open");
        }
    }
    assert!(!pool.is_degraded(), "the probe recovered the compiled path");
    let stats = pool.stats();
    pool.shutdown();
    (stats, all)
}

#[test]
fn breaker_trips_degrades_probes_and_recovers() {
    let (stats, _) = breaker_cycle_trace();
    assert_eq!(stats.corrupt_outputs, 2, "batches 0 and 1 corrupt the compiled outputs");
    assert_eq!(stats.breaker_trips, 1, "second consecutive failure trips");
    assert_eq!(stats.breaker_probes, 1, "one recompile probe after two degraded batches");
    assert_eq!(stats.breaker_recoveries, 1, "the probe succeeds");
    // Batches 0,1 fall back to eager; batch 2 is planned eager; batch 3 is
    // the probe; 4 and 5 are healthy compiled batches.
    assert_eq!(stats.eager_batches, 3);
    assert_eq!(stats.compiled_batches, 3);
    assert_eq!(stats.completed, 6);
}

#[test]
fn fault_schedule_is_deterministic() {
    let (stats_a, dets_a) = breaker_cycle_trace();
    let (stats_b, dets_b) = breaker_cycle_trace();
    assert_eq!(format!("{stats_a:?}"), format!("{stats_b:?}"));
    assert_eq!(dets_a, dets_b, "same plan, same seed → bit-identical detections");
}

#[test]
fn full_queue_sheds_with_typed_rejection() {
    let model = nano_model(19);
    // No workers: the queue only fills, so admission control is exercised
    // in isolation and the shed point is exact.
    let cfg = ServeConfig { queue_capacity: 4, ..serve_cfg(0) };
    let pool = ServePool::new(&model, cfg);

    let size = nano_config().input_size;
    let x = Tensor::zeros(&[3, size, size]);
    let mut pending = Vec::new();
    for _ in 0..4 {
        pending.push(pool.submit_tensor(&x).expect("under capacity"));
    }
    match pool.submit_tensor(&x) {
        Err(ServeError::Rejected { queue_depth }) => assert_eq!(queue_depth, 4),
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert_eq!(pool.queue_depth(), 4);
    let stats = pool.stats();
    assert_eq!(stats.accepted, 4);
    assert_eq!(stats.rejected_full, 1);

    // Tearing the pool down answers the still-queued work.
    drop(pool);
    for p in pending {
        assert_eq!(p.wait(), Err(ServeError::ShuttingDown));
    }
}

#[test]
fn expired_deadlines_drop_before_execution() {
    let model = nano_model(23);
    let plan =
        ServeFaultPlan::new().at(0, ServeFault::SlowExec { delay: Duration::from_millis(120) });
    let pool = ServePool::with_faults(&model, serve_cfg(1), plan);

    let size = nano_config().input_size;
    let x = Tensor::zeros(&[3, size, size]);
    let deadline = Instant::now() + Duration::from_millis(20);
    let pending = pool.submit(Request::tensor(&x).deadline(Some(deadline))).expect("admitted");
    // The injected stall outlasts the deadline, so the batcher answers
    // without spending a forward pass on stale work.
    assert_eq!(pending.wait(), Err(ServeError::DeadlineExceeded));

    // Undeadlined work afterwards is unaffected.
    assert!(pool.submit_tensor(&x).expect("admitted").wait().is_ok());
    let stats = pool.stats();
    assert_eq!(stats.deadline_dropped, 1);
    assert_eq!(stats.completed, 1);
    pool.shutdown();
}

#[test]
fn bad_inputs_are_quarantined_not_served() {
    let model = nano_model(29);
    let pool = ServePool::new(&model, serve_cfg(1));

    let mut poisoned = test_image(0);
    poisoned.set(1, 1, Rgb::new(f32::NAN, 0.0, 0.0));
    match pool.detect(&poisoned) {
        Err(ServeError::BadInput(InputError::NonFinite { count, .. })) => assert_eq!(count, 1),
        other => panic!("expected NonFinite, got {other:?}"),
    }

    let huge = Image::new(5000, 4, Rgb::new(0.1, 0.1, 0.1));
    assert!(matches!(
        pool.submit_image(&huge),
        Err(ServeError::BadInput(InputError::BadDims { .. }))
    ));

    let wrong = Tensor::zeros(&[1, 3, 32, 32]);
    assert!(matches!(
        pool.submit_tensor(&wrong),
        Err(ServeError::BadInput(InputError::BadShape { .. }))
    ));

    let records = pool.quarantine();
    assert_eq!(records.len(), 3, "every rejection leaves a record");
    assert!(records[0].sample.iter().any(|v| v.is_nan()), "payload sample retained");
    let stats = pool.stats();
    assert_eq!(stats.rejected_bad_input, 3);
    assert_eq!(stats.accepted, 0);

    // Garbage at the door never reached a worker; clean input still works.
    assert!(pool.detect(&test_image(1)).is_ok());
    pool.shutdown();
}

#[test]
fn metrics_registry_tracks_queue_batches_latency_and_breaker() {
    let model = nano_model(37);
    let cfg = ServeConfig {
        breaker: BreakerConfig { failure_threshold: 1, probe_after: 1 },
        ..serve_cfg(1)
    };
    // Batch 0 corrupts the compiled path: trip → eager retry → probe →
    // recover, so the breaker-transition counter sees both directions.
    let plan = ServeFaultPlan::new().at(0, ServeFault::CorruptOutput);
    let pool = ServePool::with_faults(&model, cfg, plan);
    for i in 0..4 {
        pool.detect(&test_image(i)).expect("every request is answered");
    }
    let m = pool.metrics();
    let stats = pool.stats();

    let depth = m.histogram("serve.queue_depth").expect("registered");
    assert_eq!(depth.count, stats.accepted, "depth sampled once per admission");
    assert!(depth.min >= 1.0, "depth is sampled after the push");

    let batch = m.histogram("serve.batch_size").expect("registered");
    // Closed-loop submission with every request answered Ok: each dispatched
    // batch lands in exactly one of the two success counters.
    assert_eq!(batch.count, stats.compiled_batches + stats.eager_batches);
    assert!(batch.min >= 1.0);

    let lat = m.histogram("serve.latency_ms").expect("registered");
    assert_eq!(lat.count, stats.completed, "latency recorded per completed request");
    assert!(lat.min >= 0.0 && lat.p50 <= lat.p99);

    assert_eq!(
        m.counter("serve.breaker_transitions"),
        Some(stats.breaker_trips + stats.breaker_recoveries),
        "one transition per trip and per recovery"
    );
    assert_eq!(m.counter("serve.sheds"), Some(stats.rejected_full));
    assert_eq!(m.counter("serve.deadline_misses"), Some(stats.deadline_dropped));
    pool.shutdown();
}

#[test]
fn shutdown_drains_queued_work() {
    let model = nano_model(31);
    let plan =
        ServeFaultPlan::new().at(0, ServeFault::SlowExec { delay: Duration::from_millis(60) });
    let pool = ServePool::with_faults(&model, serve_cfg(1), plan);

    let size = nano_config().input_size;
    // First submission stalls in the worker; the rest pile up behind it.
    let mut pending = vec![pool.submit_tensor(&Tensor::zeros(&[3, size, size])).unwrap()];
    std::thread::sleep(Duration::from_millis(10));
    for _ in 0..3 {
        pending.push(pool.submit_tensor(&Tensor::full(&[3, size, size], 0.25)).unwrap());
    }
    // Shutdown closes admission but drains what was already accepted.
    pool.shutdown();
    for p in pending {
        assert!(p.wait().is_ok(), "admitted work is answered, not dropped");
    }
    let stats = pool.stats();
    assert_eq!(stats.completed, 4);
    assert!(matches!(
        pool.submit_tensor(&Tensor::zeros(&[3, size, size])),
        Err(ServeError::ShuttingDown)
    ));
}
