//! Stream-session suite: the video workload served end to end.
//!
//! The claims under test, in order of importance:
//!
//! 1. Frames of one session execute in submission order even when two
//!    sessions interleave on a multi-worker pool — observable as tracker
//!    hit counts that increment by exactly one per frame.
//! 2. A deterministic 60-frame pan sequence served through a 2-worker pool
//!    answers **bit-identical** track identities across two full runs.
//! 3. Sessions survive a registry hot swap (tracker state lives outside
//!    the live model slot).
//! 4. A deadline-culled frame answers [`ServeError::DeadlineExceeded`] but
//!    the stream continues; the culled frame's queue wait lands in the
//!    `serve.culled_wait_ms` histogram.
//! 5. A breaker-isolated worker panic tears the session down: the failing
//!    frame answers [`ServeError::WorkerPanic`], buffered frames and later
//!    submissions answer [`ServeError::SessionTornDown`].
//! 6. A frame admitted while `shutdown` races it is still answered while
//!    the pool is alive, and every admitted frame — queued or buffered —
//!    is sampled once into `serve.queue_depth`.

use std::path::PathBuf;
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use platter_imaging::{render_video, DishKind, Image, Rgb, VideoSpec};
use platter_serve::{
    BreakerConfig, ModelRegistry, ServeConfig, ServeError, ServeFault, ServeFaultPlan, ServePool,
    TrackConfig,
};
use platter_yolo::{YoloConfig, Yolov4};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn nano_cfg() -> YoloConfig {
    YoloConfig { input_size: 32, width: 0.1, ..YoloConfig::micro(10) }
}

fn nano_model(seed: u64) -> Yolov4 {
    Yolov4::new(nano_cfg(), seed)
}

/// Pool config for session tests: a confidence floor low enough that the
/// untrained nano model emits detections, and a long batch wait so batch
/// boundaries are driven by the test, not the clock.
fn session_cfg(workers: usize) -> ServeConfig {
    ServeConfig {
        max_wait: Duration::from_millis(1),
        conf_thresh: 0.001,
        ..ServeConfig::new(workers)
    }
}

fn test_image(seed: usize) -> Image {
    Image::new(
        40 + seed % 13,
        30 + seed % 11,
        Rgb::new(0.2 + 0.1 * (seed % 5) as f32, 0.3, 0.5 - 0.05 * (seed % 7) as f32),
    )
}

#[test]
fn interleaved_sessions_each_receive_frames_in_submission_order() {
    let model = nano_model(11);
    let pool = ServePool::new(&model, session_cfg(2));
    let tracker_cfg = TrackConfig { min_hits: 1, ..TrackConfig::default() };
    let a = pool.open_session_with(tracker_cfg).expect("open a");
    let b = pool.open_session_with(tracker_cfg).expect("open b");

    // Each session streams one *static* scene: identical frames, so the
    // tracker re-matches every track every frame and `hits` counts frames.
    let frame_a = test_image(3);
    let frame_b = test_image(8);
    let n = 8;
    let mut pending = Vec::new();
    for _ in 0..n {
        pending.push((0, pool.submit_frame(a, &frame_a).expect("admit a")));
        pending.push((1, pool.submit_frame(b, &frame_b).expect("admit b")));
    }

    let mut answers = [Vec::new(), Vec::new()];
    for (who, p) in pending {
        answers[who].push(p.wait().expect("frame answered"));
    }

    for (who, frames) in answers.iter().enumerate() {
        assert_eq!(frames.len(), n);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.frame, i as u64, "session {who} answered out of submission order");
            assert!(!f.tracks.is_empty(), "static scene must hold at least one track");
        }
        // In-order execution is visible in the tracker state: on a static
        // scene every track persists, so each frame's hit counts are
        // exactly one larger than the previous frame's. Out-of-order
        // execution would permute them.
        for w in frames.windows(2) {
            let prev: Vec<u64> = w[0].tracks.iter().map(|t| t.id).collect();
            let next: Vec<u64> = w[1].tracks.iter().map(|t| t.id).collect();
            assert_eq!(prev, next, "static scene must keep identities");
            for (p, q) in w[0].tracks.iter().zip(&w[1].tracks) {
                assert_eq!(q.hits, p.hits + 1, "frames were not applied in order");
            }
        }
    }

    // The two trackers are independent: both number their tracks from 0.
    assert_eq!(answers[0][0].tracks[0].id, 0);
    assert_eq!(answers[1][0].tracks[0].id, 0);

    pool.close_session(a).expect("close a");
    pool.close_session(b).expect("close b");
    assert_eq!(pool.open_sessions(), 0);
    pool.shutdown();
}

/// One track collapsed to raw bits: (id, class, score, bbox).
type TrackBits = (u64, usize, u32, [u32; 4]);

/// Serve the 60-frame pan once and collapse every answer to raw bits.
fn serve_pan_once(frames: &[Image]) -> Vec<Vec<TrackBits>> {
    let model = nano_model(7);
    let pool = ServePool::new(&model, session_cfg(2));
    let session =
        pool.open_session_with(TrackConfig { min_hits: 1, ..TrackConfig::default() }).expect("open");
    let pending: Vec<_> =
        frames.iter().map(|f| pool.submit_frame(session, f).expect("admitted")).collect();
    let out = pending
        .into_iter()
        .map(|p| {
            let answer = p.wait().expect("frame answered");
            answer
                .tracks
                .iter()
                .map(|t| {
                    (t.id, t.class, t.score.to_bits(), [
                        t.bbox.cx.to_bits(),
                        t.bbox.cy.to_bits(),
                        t.bbox.w.to_bits(),
                        t.bbox.h.to_bits(),
                    ])
                })
                .collect()
        })
        .collect();
    pool.close_session(session).expect("close");
    pool.shutdown();
    out
}

#[test]
fn pan_sequence_through_two_worker_pool_is_bit_identical_across_runs() {
    let spec = VideoSpec::pan(64, 60, vec![DishKind::Chapati, DishKind::PalakPaneer]);
    let mut rng = StdRng::seed_from_u64(42);
    let video = render_video(&spec, &mut rng).expect("render pan");
    assert_eq!(video.frames.len(), 60);

    let first = serve_pan_once(&video.frames);
    let second = serve_pan_once(&video.frames);
    assert_eq!(first, second, "track identities diverged between identical runs");
    // The pan keeps the platter in view throughout; the tracker must be
    // holding *something* by the end of the sequence.
    assert!(first.iter().any(|frame| !frame.is_empty()), "no track ever reported");
}

/// Write `model`'s checkpoint to a fresh temp file and return the path.
fn weights_file(model: &Yolov4, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("platter-session-suite-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{tag}.pltw"));
    std::fs::write(&path, model.save()).expect("write weights");
    path
}

#[test]
fn session_survives_hot_swap() {
    let incumbent = nano_model(1);
    let candidate = nano_model(2);
    let pool = ServePool::new(&incumbent, session_cfg(1));
    let registry = ModelRegistry::default();
    registry.adopt_live(&pool).expect("adopt incumbent");
    let key = registry
        .load_file("b", 1, nano_cfg(), &weights_file(&candidate, "session-swap"))
        .expect("candidate loads and smokes");

    let session =
        pool.open_session_with(TrackConfig { min_hits: 1, ..TrackConfig::default() }).expect("open");
    let image = test_image(5);
    for i in 0..4u64 {
        let answer = pool.submit_frame(session, &image).expect("admit").wait().expect("answered");
        assert_eq!(answer.frame, i);
    }

    registry.hot_swap(&pool, &key).expect("swap");

    // The session (and its frame counter and tracker) rides across the
    // swap: the stream continues with the next frame index, served by the
    // new model.
    for i in 4..8u64 {
        let answer = pool.submit_frame(session, &image).expect("admit").wait().expect("answered");
        assert_eq!(answer.frame, i, "frame counter reset across hot swap");
    }
    assert_eq!(pool.open_sessions(), 1);
    assert_eq!(pool.stats().swaps, 1);
    pool.close_session(session).expect("close");
    pool.shutdown();
}

#[test]
fn deadline_culled_frame_skips_but_stream_continues() {
    let model = nano_model(3);
    let cfg = ServeConfig {
        default_deadline: Some(Duration::from_millis(20)),
        ..session_cfg(1)
    };
    // Batch 0 stalls for longer than the deadline: the frame caught in it
    // is culled (answered, not served stale), and so is the frame that
    // buffered behind it — without ending the stream.
    let faults = ServeFaultPlan::new()
        .at(0, ServeFault::SlowExec { delay: Duration::from_millis(120) });
    let pool = ServePool::with_faults(&model, cfg, faults);
    let session = pool.open_session().expect("open");
    let image = test_image(1);

    let p0 = pool.submit_frame(session, &image).expect("admit 0");
    let p1 = pool.submit_frame(session, &image).expect("admit 1");
    assert_eq!(p0.wait(), Err(ServeError::DeadlineExceeded), "stalled frame outlived deadline");
    assert_eq!(p1.wait(), Err(ServeError::DeadlineExceeded), "buffered frame outlived deadline");

    // The stream is alive: the next frame serves normally.
    let answer = pool.submit_frame(session, &image).expect("admit 2").wait().expect("answered");
    assert_eq!(answer.frame, 2);

    let stats = pool.stats();
    assert_eq!(stats.deadline_dropped, 2);
    let metrics = pool.metrics();
    let culled = metrics.histogram("serve.culled_wait_ms").expect("histogram registered");
    assert_eq!(culled.count, 2, "culled frames' queue waits must be recorded");
    assert!(culled.min > 0.0, "a culled frame waited a positive time");
    // The latency histogram records *answers* only — the satellite bugfix:
    // culled jobs never contaminate latency percentiles.
    let latency = metrics.histogram("serve.latency_ms").expect("histogram registered");
    assert_eq!(latency.count, stats.completed, "latency histogram must count answers only");

    pool.close_session(session).expect("close");
    pool.shutdown();
}

#[test]
fn breaker_isolated_panic_tears_down_session() {
    let model = nano_model(9);
    let cfg = ServeConfig {
        breaker: BreakerConfig { failure_threshold: 1, ..BreakerConfig::default() },
        ..session_cfg(1)
    };
    // Batch 0: compiled path panics, eager retry answers, breaker trips
    // open. Batch 1: the pool is degraded to the single-attempt eager
    // path, so a second injected panic becomes a *final* error.
    let faults = ServeFaultPlan::new()
        .at(0, ServeFault::WorkerPanic)
        .at(1, ServeFault::WorkerPanic);
    let pool = ServePool::with_faults(&model, cfg, faults);
    let session = pool.open_session().expect("open");
    let image = test_image(2);

    let answer = pool.submit_frame(session, &image).expect("admit 0").wait();
    assert!(answer.is_ok(), "first panic is retried on the eager path: {answer:?}");
    assert!(pool.is_degraded(), "one failure must trip a threshold-1 breaker");

    let p1 = pool.submit_frame(session, &image).expect("admit 1");
    let p2 = pool.submit_frame(session, &image).expect("admit 2 (buffered)");
    match p1.wait() {
        Err(ServeError::WorkerPanic { .. }) => {}
        other => panic!("expected WorkerPanic on the degraded path, got {other:?}"),
    }
    // The panic discarded the session's tracker state: the frame buffered
    // behind the failure and any later submission answer SessionTornDown.
    assert_eq!(p2.wait(), Err(ServeError::SessionTornDown));
    assert_eq!(pool.submit_frame(session, &image).err(), Some(ServeError::SessionTornDown));

    pool.close_session(session).expect("torn-down session still closes");
    assert_eq!(pool.open_sessions(), 0);
    pool.shutdown();
}

#[test]
fn close_with_buffered_frames_answers_session_torn_down() {
    let model = nano_model(4);
    // Zero workers: frame 0 sits in the queue, frames 1–2 buffer in the
    // session. Closing answers the buffered frames immediately.
    let pool = ServePool::new(&model, session_cfg(0));
    let session = pool.open_session().expect("open");
    let image = test_image(6);
    let p0 = pool.submit_frame(session, &image).expect("admit 0");
    let p1 = pool.submit_frame(session, &image).expect("admit 1");
    let p2 = pool.submit_frame(session, &image).expect("admit 2");

    pool.close_session(session).expect("close");
    assert_eq!(p1.wait(), Err(ServeError::SessionTornDown));
    assert_eq!(p2.wait(), Err(ServeError::SessionTornDown));

    // The queued frame answers at shutdown.
    pool.shutdown();
    assert_eq!(p0.wait(), Err(ServeError::ShuttingDown));
}

#[test]
fn session_doors_refuse_bad_input() {
    let model = nano_model(5);
    let pool = ServePool::new(&model, session_cfg(1));

    // Invalid tracker configuration is refused before a session exists.
    match pool.open_session_with(TrackConfig { iou_thresh: f32::NAN, ..TrackConfig::default() }) {
        Err(ServeError::BadTrackConfig { .. }) => {}
        other => panic!("expected BadTrackConfig, got {other:?}"),
    }

    // A closed session's id no longer resolves.
    let session = pool.open_session().expect("open");
    pool.close_session(session).expect("close");
    assert_eq!(
        pool.submit_frame(session, &test_image(0)).err(),
        Some(ServeError::UnknownSession { session: session.raw() })
    );
    assert_eq!(
        pool.close_session(session),
        Err(ServeError::UnknownSession { session: session.raw() })
    );
    pool.shutdown();
}

#[test]
fn frames_racing_shutdown_are_always_answered() {
    let model = nano_model(10);
    let image = test_image(4);
    for round in 0..60u64 {
        let pool = Arc::new(ServePool::new(&model, session_cfg(1)));
        // Many sessions, one frame each: every submission is the first of
        // its session, so each one is pushed straight into a worker queue —
        // the path that used to push after the admission lock was released.
        let sessions: Vec<_> = (0..32).map(|_| pool.open_session().expect("open")).collect();
        let start = Arc::new(Barrier::new(2));
        let submitter = {
            let (pool, start, image) = (Arc::clone(&pool), Arc::clone(&start), image.clone());
            std::thread::spawn(move || {
                start.wait();
                let mut admitted = Vec::new();
                for &session in &sessions {
                    match pool.submit_frame(session, &image) {
                        Ok(p) => admitted.push(p),
                        Err(ServeError::ShuttingDown) => break,
                        Err(other) => panic!("unexpected admission error: {other:?}"),
                    }
                }
                admitted
            })
        };
        start.wait();
        std::thread::sleep(Duration::from_micros(50 * (round % 8)));
        pool.shutdown();
        let admitted = submitter.join().expect("submitter");

        // Wait on a helper thread so a stranded frame shows up as a
        // timeout here rather than a hung test; `pool` stays alive
        // throughout, so no answer can come from its drop.
        let n = admitted.len();
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            for p in admitted {
                let _ = tx.send(p.wait());
            }
        });
        for i in 0..n {
            match rx.recv_timeout(Duration::from_secs(10)) {
                Ok(Ok(_)) | Ok(Err(ServeError::ShuttingDown)) => {}
                Ok(Err(other)) => panic!("round {round}: frame {i} answered {other:?}"),
                Err(_) => panic!("round {round}: admitted frame {i} of {n} was never answered"),
            }
        }
        waiter.join().expect("waiter");
    }
}

#[test]
fn queue_depth_is_sampled_once_per_admitted_frame() {
    let model = nano_model(12);
    // Zero workers: frame 0 stays queued and the rest buffer behind it, so
    // the depth seen by the capacity check grows by one per frame.
    let pool = ServePool::new(&model, session_cfg(0));
    let session = pool.open_session().expect("open");
    let n = 6;
    let _pending: Vec<_> =
        (0..n).map(|_| pool.submit_frame(session, &test_image(7)).expect("admitted")).collect();

    assert_eq!(pool.stats().accepted, n as u64);
    let metrics = pool.metrics();
    let depth = metrics.histogram("serve.queue_depth").expect("registered");
    assert_eq!(depth.count, n as u64, "one depth sample per admitted frame, buffered ones included");
    assert_eq!(depth.max, n as f64, "the sample counts session-buffered frames");

    pool.close_session(session).expect("close");
    pool.shutdown();
}
