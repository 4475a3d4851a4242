//! The layer probe of a traced run: direct, timed calls into the public
//! functions of the tensor, yolo and imaging layers on the run's seeded
//! inputs. Each call is a span under one `probe` root; the per-layer
//! numbers are medians over those spans.

use std::hint::black_box;
use std::time::Instant;

use platter_imaging::Image;
use platter_obs::ProfileReport;
use platter_serve::{ServeConfig, TrackConfig};
use platter_tensor::Tensor;
use platter_yolo::{decode_detections, nms, Detector, SortTracker, Yolov4};

use crate::inputs::{self, ping_pong};
use crate::stats;
use crate::trace::{durations_ms, Spans};
use crate::workload::{letterboxed, micro_config, nano_config, stack, WEIGHT_SEED};

/// Timed calls per probe step: enough for a median (20) or, for the
/// tracker step, a p99 (1000).
const FORWARD_B1_CALLS: usize = 30;
const FORWARD_B8_CALLS: usize = 20;
const NANO_CALLS: usize = 100;
const PROFILED_CALLS: usize = 20;
const TRACK_STEPS: usize = 1200;

/// A per-layer reading: name, value, unit.
pub type Reading = (&'static str, f64, &'static str);

/// Median of the named spans; the probe takes enough calls for one.
fn median_of(spans: &Spans, name: &str) -> f64 {
    stats::median(&durations_ms(&spans.spans, name)).expect("the probe takes at least 20 calls per step")
}

/// Run every probe step, recording spans into `spans`, and derive the
/// readings. `photos` are the run's photos (rendered from the seed when the
/// workload has none); the tracker replays the detections of stream 0.
pub fn run(seed: u64, photos: &[Image], spans: &mut Spans) -> Vec<Reading> {
    let owned;
    let photos = if photos.is_empty() {
        owned = inputs::photos(seed);
        &owned[..]
    } else {
        photos
    };
    let (micro_cfg, nano_cfg) = (micro_config(), nano_config());
    let (ms, ns) = (micro_cfg.input_size, nano_cfg.input_size);
    let clip = inputs::video_stream(seed, 0);
    let root_id = spans.new_id();
    let root = Some(root_id);
    let t_root = Instant::now();

    // imaging: letterbox + CHW conversion, as the pool does it per request.
    for p in photos {
        black_box(spans.time("imaging.letterbox.photo", root, || p.letterbox(ms).image.to_chw()));
    }
    for f in &clip {
        black_box(spans.time("imaging.letterbox.frame", root, || f.letterbox(ns).image.to_chw()));
    }

    // tensor + yolo on the micro model.
    let micro = Yolov4::new(micro_cfg.clone(), WEIGHT_SEED);
    let mut engine = micro.compile_inference();
    let x1 = stack(&[&letterboxed(&photos[0], ms)]);
    let batch: Vec<Tensor> = photos.iter().take(8).map(|p| letterboxed(p, ms)).collect();
    let x8 = stack(&batch.iter().collect::<Vec<_>>());
    black_box(engine.run(&x1));
    for _ in 0..FORWARD_B1_CALLS {
        black_box(spans.time("tensor.forward.micro_b1", root, || engine.run(&x1).len()));
    }
    black_box(engine.run(&x8));
    let pool = ServeConfig::new(1);
    for _ in 0..FORWARD_B8_CALLS {
        let t0 = Instant::now();
        let heads = engine.run(&x8);
        spans.record("tensor.forward.micro_b8", root, None, t0, Instant::now());
        black_box(spans.time("yolo.decode_nms.micro_b8", root, || {
            decode_detections(heads, &micro_cfg, pool.conf_thresh)
                .into_iter()
                .map(|c| nms(c, pool.nms_iou, pool.nms_kind).len())
                .sum::<usize>()
        }));
    }
    let arena_bytes = engine.arena_bytes() as f64;
    let mut profile = ProfileReport::new();
    for _ in 0..PROFILED_CALLS {
        black_box(
            spans.time("tensor.forward_profiled.micro_b1", root, || {
                engine.run_profiled(&x1, &mut profile).len()
            }),
        );
    }
    let conv_ns: u64 =
        profile.steps().iter().filter(|s| s.kind.starts_with("conv")).map(|s| s.stat.nanos).sum();
    let conv_ms = conv_ns as f64 / 1e6 / profile.runs().max(1) as f64;

    // tensor on the nano model.
    let nano = Detector::new(Yolov4::new(nano_cfg.clone(), WEIGHT_SEED));
    let mut nano_engine = nano.model.compile_inference();
    let xn = stack(&[&letterboxed(&clip[0], ns)]);
    black_box(nano_engine.run(&xn));
    for _ in 0..NANO_CALLS {
        black_box(spans.time("tensor.forward.nano_b1", root, || nano_engine.run(&xn).len()));
    }

    // yolo: the tracker over stream 0's per-frame detections.
    let clip_dets: Vec<_> = clip.iter().map(|f| nano.detect(f)).collect();
    let mut tracker = SortTracker::new(TrackConfig::default()).expect("the default track config is valid");
    for j in 0..TRACK_STEPS {
        let dets = &clip_dets[ping_pong(j, clip_dets.len())];
        black_box(spans.time("yolo.track_step", root, || tracker.step(dets).len()));
    }
    spans.record_as(root_id, "probe", None, None, t_root, Instant::now());

    let steps = durations_ms(&spans.spans, "yolo.track_step");
    vec![
        ("tensor.forward_ms.micro_b1", median_of(spans, "tensor.forward.micro_b1"), "ms"),
        ("tensor.forward_ms.micro_b8", median_of(spans, "tensor.forward.micro_b8"), "ms"),
        ("tensor.forward_ms.nano_b1", median_of(spans, "tensor.forward.nano_b1"), "ms"),
        ("tensor.conv_ms.micro_b1", conv_ms, "ms"),
        ("tensor.arena_bytes.micro_b8", arena_bytes, "bytes"),
        ("yolo.decode_nms_ms.micro_b8", median_of(spans, "yolo.decode_nms.micro_b8"), "ms"),
        ("yolo.track_step_ms.p50", stats::percentile(&steps, 50).expect("1200 steps"), "ms"),
        ("yolo.track_step_ms.p99", stats::percentile(&steps, 99).expect("1200 steps"), "ms"),
        ("imaging.letterbox_ms.photo", median_of(spans, "imaging.letterbox.photo"), "ms"),
        ("imaging.letterbox_ms.frame", median_of(spans, "imaging.letterbox.frame"), "ms"),
    ]
}
