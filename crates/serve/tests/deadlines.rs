//! Deadline-stamping regression suite.
//!
//! Every request — whatever its input kind and options — becomes a job at
//! one point (`make_job`), which stamps the deadline against the same clock
//! read as the job's `submitted` anchor. This suite pins the observable
//! contract over the whole option table:
//!
//! 1. Every {image, tensor} × {plain, TTA, routed, TTA + routed} request,
//!    and a session frame, culls against the *same* default deadline when
//!    made to outwait it.
//! 2. An explicit `None` deadline means "no deadline", never silently
//!    replaced by the configured default.
//! 3. An explicitly expired deadline culls without costing a forward pass.
//! 4. Culled work lands in `serve.culled_wait_ms` (queue wait recorded)
//!    and never in `serve.latency_ms` (answers only).

use std::time::{Duration, Instant};

use platter_imaging::{Image, Rgb};
use platter_serve::{ModelRegistry, Request, ServeConfig, ServeError, ServePool};
use platter_tensor::Tensor;
use platter_yolo::{YoloConfig, Yolov4};

fn nano_cfg() -> YoloConfig {
    YoloConfig { input_size: 32, width: 0.1, ..YoloConfig::micro(10) }
}

/// A finite, deterministic `[3, 32, 32]` input.
fn test_tensor(seed: usize) -> Tensor {
    let data: Vec<f32> =
        (0..3 * 32 * 32).map(|i| ((i * 31 + seed * 137) % 251) as f32 / 251.0 - 0.5).collect();
    Tensor::from_vec(data, &[3, 32, 32])
}

fn test_image(seed: usize) -> Image {
    Image::new(40 + seed % 13, 30 + seed % 11, Rgb::new(0.3, 0.4, 0.2))
}

/// The request options every input kind is submitted with.
#[derive(Clone, Copy, Debug)]
enum Options {
    Plain,
    Tta,
    Routed,
    TtaRouted,
}

const OPTIONS: [Options; 4] = [Options::Plain, Options::Tta, Options::Routed, Options::TtaRouted];

fn with_options<'a>(req: Request<'a>, options: Options, key: &'a str) -> Request<'a> {
    match options {
        Options::Plain => req,
        Options::Tta => req.tta(),
        Options::Routed => req.route(key),
        Options::TtaRouted => req.tta().route(key),
    }
}

#[test]
fn every_submit_path_culls_against_the_same_default_deadline() {
    let model = Yolov4::new(nano_cfg(), 21);
    // One worker, a batch window far longer than the deadline, and a batch
    // large enough to hold every submission: all requests coalesce into
    // one batch that only runs after their shared default deadline has
    // passed. If any option stamped its deadline differently, it would be
    // the one answering detections here.
    let cfg = ServeConfig {
        max_batch: 16,
        max_wait: Duration::from_millis(150),
        default_deadline: Some(Duration::from_millis(10)),
        model_name: "live".to_string(),
        ..ServeConfig::new(1)
    };
    let pool = ServePool::new(&model, cfg);
    let registry = ModelRegistry::default();
    let key = registry.adopt_live(&pool).expect("adopt live");
    registry.route(&pool, &key).expect("route live model");
    let session = pool.open_session().expect("open session");

    let mut culled = Vec::new();
    for (i, options) in OPTIONS.into_iter().enumerate() {
        let image = test_image(i);
        let tensor = test_tensor(i);
        for (kind, req) in [("image", Request::image(&image)), ("tensor", Request::tensor(&tensor))] {
            let pending = pool.submit(with_options(req, options, &key)).expect("admitted");
            culled.push((format!("{kind} {options:?}"), pending));
        }
    }
    let frame = pool.submit_frame(session, &test_image(8)).expect("session frame");
    // The control: an explicit `None` deadline must survive the same wait.
    // This is the option most at risk of silently inheriting the default.
    let undying = pool.submit(Request::tensor(&test_tensor(9)).deadline(None)).expect("undying");

    let n = culled.len() as u64 + 1;
    for (name, p) in culled {
        assert_eq!(
            p.wait(),
            Err(ServeError::DeadlineExceeded),
            "{name} outlived a deadline the other requests missed"
        );
    }
    assert_eq!(frame.wait(), Err(ServeError::DeadlineExceeded), "session frame outlived it");
    assert!(undying.wait().is_ok(), "an explicit None deadline must never be culled");

    let stats = pool.stats();
    assert_eq!(stats.deadline_dropped, n);
    assert_eq!(stats.completed, 1);

    let metrics = pool.metrics();
    let culled_wait = metrics.histogram("serve.culled_wait_ms").expect("registered");
    assert_eq!(culled_wait.count, n, "every culled job's queue wait is recorded");
    assert!(culled_wait.min > 0.0, "culled work waited a positive time");
    let latency = metrics.histogram("serve.latency_ms").expect("registered");
    assert_eq!(latency.count, 1, "latency histogram must record answers only");

    pool.close_session(session).expect("close");
    pool.shutdown();
}

#[test]
fn an_already_expired_deadline_culls_without_a_forward_pass() {
    let model = Yolov4::new(nano_cfg(), 22);
    let pool = ServePool::new(&model, ServeConfig::new(1));

    let expired = Some(Instant::now() - Duration::from_millis(1));
    let p = pool.submit(Request::image(&test_image(7)).deadline(expired)).expect("admitted");
    assert_eq!(p.wait(), Err(ServeError::DeadlineExceeded));

    let stats = pool.stats();
    assert_eq!(stats.deadline_dropped, 1);
    assert_eq!(stats.completed, 0, "expired work must not reach the model");
    assert_eq!(stats.compiled_batches + stats.eager_batches, 0, "no batch may run for it");
    pool.shutdown();
}
