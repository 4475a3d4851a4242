//! The three workloads: pool configuration, inputs with their reference
//! answers, set-up, and one load phase each.

use std::time::{Duration, Instant};

use platter_imaging::Image;
use platter_serve::{ServeConfig, ServePool, SessionId, TrackConfig, TrackedFrame};
use platter_tensor::Tensor;
use platter_yolo::{Detection, Detector, YoloConfig, Yolov4};

use crate::check::{detections_match, replay, tracks_match};
use crate::drive::{closed_loop, open_loop, Outcome, Run, Verdict};
use crate::inputs::{self, STREAMS};
use crate::trace::{Clock, Spans};

/// Seed of the fixed model weights.
pub const WEIGHT_SEED: u64 = 42;
/// Offered rate of `photo_open`, requests per second.
pub const PHOTO_RPS: f64 = 15.0;
/// Pools built per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 20;
/// Sequential requests on an idle pool in a traced run.
pub const IDLE_ROUNDTRIPS: usize = 40;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PhotoOpen,
    BatchEval,
    VideoStreams,
}

/// The micro profile: 64 px input.
pub fn micro_config() -> YoloConfig {
    YoloConfig::micro(10)
}

/// The nano profile: 32 px input, a twentieth of full width.
pub fn nano_config() -> YoloConfig {
    YoloConfig { input_size: 32, width: 0.05, ..YoloConfig::micro(10) }
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "photo_open" => Some(Workload::PhotoOpen),
            "batch_eval" => Some(Workload::BatchEval),
            "video_streams" => Some(Workload::VideoStreams),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PhotoOpen => "photo_open",
            Workload::BatchEval => "batch_eval",
            Workload::VideoStreams => "video_streams",
        }
    }

    pub fn model_config(self) -> YoloConfig {
        match self {
            Workload::VideoStreams => nano_config(),
            _ => micro_config(),
        }
    }

    pub fn workers(self) -> usize {
        match self {
            Workload::BatchEval => 2,
            _ => 1,
        }
    }

    /// Default pool settings (`max_batch` 8, `max_wait` 2 ms, confidence
    /// 0.25, DIoU-NMS at 0.45) with the workload's worker count.
    pub fn serve_config(self) -> ServeConfig {
        ServeConfig { max_batch: 8, ..ServeConfig::new(self.workers()) }
    }

    /// Latency limit: 100 ms for a photo, one frame period for a video
    /// frame, one second for an image of an offline burst.
    pub fn limit_ms(self) -> f64 {
        match self {
            Workload::PhotoOpen => 100.0,
            Workload::BatchEval => 1000.0,
            Workload::VideoStreams => 1e3 / inputs::FPS,
        }
    }
}

/// A workload's inputs and the reference answer for each distinct input,
/// computed with the library's single-caller `Detector` on the same weights.
pub struct Prepared {
    pub workload: Workload,
    pub seed: u64,
    pub conf_thresh: f32,
    pub photos: Vec<Image>,
    photo_refs: Vec<Vec<Detection>>,
    val: Vec<Tensor>,
    val_refs: Vec<Vec<Detection>>,
    streams: Vec<Vec<Image>>,
    frame_refs: Vec<Vec<Vec<Detection>>>,
    /// A pre-letterboxed `[3, s, s]` input for idle round trips.
    idle_input: Tensor,
}

/// `image` letterboxed to a `[3, size, size]` tensor, as the pool does it.
pub fn letterboxed(image: &Image, size: usize) -> Tensor {
    Tensor::from_vec(image.letterbox(size).image.to_chw(), &[3, size, size])
}

/// Concatenate `[3, s, s]` tensors into one `[n, 3, s, s]` batch.
pub fn stack(items: &[&Tensor]) -> Tensor {
    let shape = items[0].shape();
    let data: Vec<f32> = items.iter().flat_map(|t| t.as_slice().iter().copied()).collect();
    Tensor::from_vec(data, &[items.len(), shape[0], shape[1], shape[2]])
}

pub fn prepare(workload: Workload, seed: u64) -> Prepared {
    let cfg = workload.model_config();
    let size = cfg.input_size;
    let detector = Detector::new(Yolov4::new(cfg, WEIGHT_SEED));
    let conf_thresh = workload.serve_config().conf_thresh;
    assert_eq!(detector.conf_thresh, conf_thresh, "pool and reference share the threshold");
    let mut p = Prepared {
        workload,
        seed,
        conf_thresh,
        photos: Vec::new(),
        photo_refs: Vec::new(),
        val: Vec::new(),
        val_refs: Vec::new(),
        streams: Vec::new(),
        frame_refs: Vec::new(),
        idle_input: Tensor::zeros(&[3, size, size]),
    };
    match workload {
        Workload::PhotoOpen => {
            p.photos = inputs::photos(seed);
            p.photo_refs = p.photos.iter().map(|im| detector.detect(im)).collect();
            p.idle_input = letterboxed(&p.photos[0], size);
        }
        Workload::BatchEval => {
            p.val = inputs::val_set(seed, size);
            for chunk in p.val.chunks(8) {
                let batch = stack(&chunk.iter().collect::<Vec<_>>());
                p.val_refs.extend(detector.detect_batch(&batch));
            }
            p.idle_input = p.val[0].clone();
        }
        Workload::VideoStreams => {
            p.streams = inputs::video_streams(seed);
            p.frame_refs =
                p.streams.iter().map(|clip| clip.iter().map(|f| detector.detect(f)).collect()).collect();
            p.idle_input = letterboxed(&p.streams[0][0], size);
        }
    }
    p
}

/// One request on a fresh pool, answered.
fn first_answer(p: &Prepared, pool: &ServePool) {
    let answer = match p.workload {
        Workload::PhotoOpen => pool.detect(&p.photos[0]),
        Workload::BatchEval => pool.submit_tensor(&p.val[0]).and_then(|r| r.wait()),
        Workload::VideoStreams => pool.detect(&p.streams[0][0]),
    };
    answer.expect("a fresh pool answers its first request");
}

/// Build a pool `reps` times, each timed from construction (plan compile
/// included) to its first answer. Returns the last pool and every time.
pub fn setup(p: &Prepared, model: &Yolov4, reps: usize) -> (ServePool, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let pool = ServePool::new(model, p.workload.serve_config());
        first_answer(p, &pool);
        times.push(t0.elapsed().as_secs_f64());
        last = Some(pool);
    }
    (last.expect("at least one setup"), times)
}

/// One load phase of `seconds` on `pool`.
pub fn phase(p: &Prepared, pool: &ServePool, seconds: f64, clock: &Clock, traced: bool) -> Run {
    let conf = p.conf_thresh;
    match p.workload {
        Workload::PhotoOpen => {
            let schedule = inputs::poisson_arrivals(p.seed, PHOTO_RPS, seconds, p.photos.len());
            open_loop(
                &schedule,
                clock,
                traced,
                |a| pool.submit_image(&p.photos[a.item]),
                |pending| pending.wait(),
                |_, a, dets| Verdict {
                    correct: detections_match(&dets, &p.photo_refs[a.item], conf),
                    dets: dets.len(),
                },
            )
        }
        Workload::BatchEval => closed_loop(
            seconds,
            clock,
            traced,
            |k| inputs::burst(p.seed, k, p.val.len()),
            |item| pool.submit_tensor(&p.val[item]),
            |pending| pending.wait(),
            |item, dets| Verdict {
                correct: detections_match(&dets, &p.val_refs[item], conf),
                dets: dets.len(),
            },
        ),
        Workload::VideoStreams => video_phase(p, pool, seconds, clock, traced),
    }
}

/// `video_streams`: every frame's detections are checked against the
/// reference, then each session's tracks against an offline replay of the
/// detections that session answered, in frame order.
fn video_phase(p: &Prepared, pool: &ServePool, seconds: f64, clock: &Clock, traced: bool) -> Run {
    let sessions: Vec<SessionId> =
        (0..STREAMS).map(|_| pool.open_session().expect("the pool accepts sessions")).collect();
    let schedule = inputs::frame_arrivals(p.seed, STREAMS, seconds);
    let mut answered: Vec<Vec<(usize, TrackedFrame)>> = vec![Vec::new(); STREAMS];
    let mut run = open_loop(
        &schedule,
        clock,
        traced,
        |a| pool.submit_frame(sessions[a.stream], &p.streams[a.stream][a.item]),
        |pending| pending.wait(),
        |req, a, frame| {
            let correct = detections_match(&frame.detections, &p.frame_refs[a.stream][a.item], p.conf_thresh);
            let dets = frame.detections.len();
            answered[a.stream].push((req, frame));
            Verdict { correct, dets }
        },
    );
    for s in sessions {
        pool.close_session(s).expect("the session is open");
    }
    for frames in &answered {
        let dets: Vec<Vec<Detection>> = frames.iter().map(|(_, f)| f.detections.clone()).collect();
        let want = replay(TrackConfig::default(), &dets);
        let mut prev: Option<u64> = None;
        for ((req, frame), want) in frames.iter().zip(&want) {
            let in_order = prev.is_none_or(|f| frame.frame > f);
            prev = Some(frame.frame);
            if !(in_order && tracks_match(&frame.tracks, want)) {
                if let Outcome::Answered { correct, .. } = &mut run.outcomes[*req] {
                    *correct = false;
                }
            }
        }
    }
    run
}

/// Sequential requests on the idle `pool`, each a pre-letterboxed tensor,
/// recorded as `serve.idle_roundtrip` spans.
pub fn idle_roundtrips(p: &Prepared, pool: &ServePool, spans: &mut Spans) {
    for _ in 0..IDLE_ROUNDTRIPS {
        // Let the worker finish lingering on the previous batch.
        std::thread::sleep(Duration::from_millis(5));
        spans
            .time("serve.idle_roundtrip", None, || pool.submit_tensor(&p.idle_input).and_then(|r| r.wait()))
            .expect("an idle pool answers");
    }
}
