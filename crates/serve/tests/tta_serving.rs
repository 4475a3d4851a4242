//! Serving-path tests for test-time augmentation: TTA requests go through
//! the same admission, fallback, and sanitization machinery as plain ones,
//! mixing the two in one batch keeps each job on its requested path, and
//! TTA combines with routing without changing the answer.

use std::time::Duration;

use platter_imaging::{Image, Rgb};
use platter_serve::{ModelRegistry, Request, ServeConfig, ServeFault, ServeFaultPlan, ServePool};
use platter_tensor::Tensor;
use platter_yolo::{Detection, YoloConfig, Yolov4};

fn nano_config() -> YoloConfig {
    YoloConfig { input_size: 32, width: 0.1, ..YoloConfig::micro(10) }
}

fn test_image(seed: usize) -> Image {
    let shade = 0.2 + 0.1 * (seed % 7) as f32;
    Image::new(40 + seed % 13, 30 + seed % 11, Rgb::new(shade, 0.5 - shade * 0.3, shade * 0.8))
}

/// A finite, deterministic `[3, 32, 32]` input.
fn test_tensor(seed: usize) -> Tensor {
    let data: Vec<f32> =
        (0..3 * 32 * 32).map(|i| ((i * 17 + seed * 101) % 241) as f32 / 241.0 - 0.5).collect();
    Tensor::from_vec(data, &[3, 32, 32])
}

/// Detections collapsed to raw bits, so equality is bit-identity.
fn det_bits(dets: &[Detection]) -> Vec<(usize, u32, [u32; 4])> {
    dets.iter()
        .map(|d| {
            let b = &d.bbox;
            (d.class, d.score.to_bits(), [b.cx.to_bits(), b.cy.to_bits(), b.w.to_bits(), b.h.to_bits()])
        })
        .collect()
}

#[test]
fn tta_requests_are_served_with_valid_detections() {
    let model = Yolov4::new(nano_config(), 7);
    let pool = ServePool::new(&model, ServeConfig::new(1));
    for i in 0..4 {
        let dets = pool
            .submit(Request::image(&test_image(i)).tta())
            .and_then(|p| p.wait())
            .expect("tta request is served");
        for d in &dets {
            assert!(d.bbox.is_valid());
            assert!(d.score.is_finite());
            assert!(d.class < 10);
        }
        // Ranked output, same contract as the plain path.
        for w in dets.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
    assert_eq!(pool.stats().completed, 4);
    pool.shutdown();
}

#[test]
fn tta_is_deterministic_and_distinct_from_single_pass() {
    let model = Yolov4::new(nano_config(), 13);
    let pool = ServePool::new(&model, ServeConfig::new(1));
    let img = test_image(3);
    let plain = pool.detect(&img).expect("plain");
    let tta_a = pool.submit(Request::image(&img).tta()).and_then(|p| p.wait()).expect("tta");
    let tta_b =
        pool.submit(Request::image(&img).tta()).and_then(|p| p.wait()).expect("tta again");
    assert_eq!(tta_a, tta_b, "tta serving is deterministic");
    // Sanity: both paths produce finite output. (They may coincide on a
    // featureless image, so no inequality assertion — just that the TTA
    // merge never yields more than views × plain-candidates.)
    assert!(plain.iter().all(|d| d.score.is_finite()));
    pool.shutdown();
}

#[test]
fn mixed_batch_serves_each_job_on_its_requested_path() {
    let model = Yolov4::new(nano_config(), 21);
    // Long coalescing window so both submissions land in one batch.
    let cfg = ServeConfig { max_wait: Duration::from_millis(200), ..ServeConfig::new(1) };
    let pool = ServePool::new(&model, cfg);
    let img = test_image(5);
    let plain_pending = pool.submit_image(&img).expect("admit plain");
    let tta_pending = pool.submit(Request::image(&img).tta()).expect("admit tta");
    let plain = plain_pending.wait().expect("plain served");
    let tta = tta_pending.wait().expect("tta served");
    // The plain job must match a solo plain request exactly — sharing a
    // batch with a TTA job cannot change its answer.
    let solo = pool.detect(&img).expect("solo plain");
    assert_eq!(plain, solo, "non-TTA job unaffected by TTA batch-mate");
    assert!(tta.iter().all(|d| d.score.is_finite() && d.bbox.is_valid()));
    pool.shutdown();
}

#[test]
fn tta_request_survives_compiled_path_failure() {
    let model = Yolov4::new(nano_config(), 31);
    let plan = ServeFaultPlan::new().at(0, ServeFault::CorruptOutput);
    let pool = ServePool::with_faults(&model, ServeConfig::new(1), plan);
    // The corrupted identity pass trips the output guard; the eager retry
    // re-runs the full TTA view loop and still answers the request.
    let dets = pool
        .submit(Request::image(&test_image(0)).tta())
        .and_then(|p| p.wait())
        .expect("tta survives corrupt output");
    assert!(dets.iter().all(|d| d.score.is_finite() && d.bbox.is_valid()));
    let stats = pool.stats();
    assert_eq!(stats.corrupt_outputs, 1);
    assert!(stats.eager_batches >= 1, "answered on the eager fallback");
    pool.shutdown();
}

#[test]
fn routed_tta_on_the_live_model_answers_like_unrouted_tta() {
    let model = Yolov4::new(nano_config(), 17);
    // A confidence floor the untrained model clears, so the comparison is
    // over real detections rather than two empty lists.
    let cfg = ServeConfig { conf_thresh: 0.001, ..ServeConfig::new(1) };
    let pool = ServePool::new(&model, cfg);
    let registry = ModelRegistry::default();
    let key = registry.adopt_live(&pool).expect("adopt live");
    registry.route(&pool, &key).expect("route the live model");
    for seed in 0..3 {
        let x = test_tensor(seed);
        let unrouted = pool.submit(Request::tensor(&x).tta()).and_then(|p| p.wait()).expect("tta");
        let routed = pool
            .submit(Request::tensor(&x).tta().route(&key))
            .and_then(|p| p.wait())
            .expect("routed tta");
        assert!(!unrouted.is_empty(), "input {seed} produced no detections to compare");
        assert_eq!(det_bits(&routed), det_bits(&unrouted), "input {seed}: routing changed a TTA answer");
    }
    let metrics = pool.metrics();
    let label = "serve.model.default-v0.batches";
    assert_eq!(metrics.counter(label), Some(6), "both requests of each pair ran on the live model");
    pool.shutdown();
}
