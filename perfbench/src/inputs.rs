//! Workload inputs and arrival schedules, all pure functions of the seed.
//! The program under test only ever sees what these produce.

use std::time::Duration;

use platter_dataset::{ClassSet, DatasetSpec, SyntheticDataset};
use platter_imaging::{render_video, Image, VideoSpec};
use platter_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Source shapes (width, height) of the `photo_open` photos.
pub const PHOTO_SHAPES: [(usize, usize); 3] = [(128, 128), (192, 144), (256, 192)];
/// Distinct photos rendered per source shape.
pub const PHOTOS_PER_SHAPE: usize = 12;
/// Distinct images in the `batch_eval` validation set.
pub const VAL_IMAGES: usize = 64;
/// Images per closed-loop `batch_eval` burst: six batches of 8, three
/// rounds of the 2-worker pool, so the burst's median and p90 images each
/// land inside a round rather than on the edge between two.
pub const BURST: usize = 48;
/// Concurrent `video_streams` sessions.
pub const STREAMS: usize = 4;
/// Frame rate of every stream.
pub const FPS: f64 = 30.0;
/// Frames in each stream's rendered pan; longer streams play it forwards
/// and backwards, so the camera never jumps.
pub const CLIP_FRAMES: usize = 60;
/// Edge of a video frame, pixels.
pub const FRAME_SIZE: usize = 96;
/// Maximum camera shake per frame, pixels.
pub const JITTER_PX: usize = 2;
/// Maximum send jitter of a frame behind its slot, seconds. It makes the
/// coincidences between streams vary frame by frame instead of being fixed
/// by the start offsets for a whole run.
pub const SEND_JITTER_S: f64 = 0.004;

/// An independent generator for one purpose of one seed.
fn rng(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One request of an open-loop schedule: when it is due (from the start of
/// the run), which client stream sends it, and which input it carries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    pub due: Duration,
    pub stream: usize,
    pub item: usize,
}

/// Platter photos from the dataset generator, [`PHOTOS_PER_SHAPE`] per
/// entry of [`PHOTO_SHAPES`]; non-square shapes are centre crops, so the
/// pool has to pad when it letterboxes them.
pub fn photos(seed: u64) -> Vec<Image> {
    let mut out = Vec::with_capacity(PHOTO_SHAPES.len() * PHOTOS_PER_SHAPE);
    for (k, &(w, h)) in PHOTO_SHAPES.iter().enumerate() {
        let spec = DatasetSpec {
            multi_dish_fraction: 1.0,
            ..DatasetSpec::micro(
                ClassSet::indianfood10(),
                PHOTOS_PER_SHAPE,
                w,
                rng(seed, 1 + k as u64).random_range(0..u64::MAX / 2),
            )
        };
        let dataset = SyntheticDataset::generate(spec);
        for i in 0..dataset.len() {
            let (image, _) = dataset.render(i);
            out.push(if h == w { image } else { image.crop(0, (w - h) / 2, w, h) });
        }
    }
    out
}

/// A Poisson process at `rate` per second over `seconds`, conditioned on
/// its count: `round(rate · seconds)` due times drawn uniformly over the
/// window and sorted. Each request carries a uniformly drawn item of
/// `items`. Fixing the count keeps run-to-run throughput comparable.
pub fn poisson_arrivals(seed: u64, rate: f64, seconds: f64, items: usize) -> Vec<Arrival> {
    let mut r = rng(seed, 10);
    let n = (rate * seconds).round() as usize;
    let mut due: Vec<f64> = (0..n).map(|_| r.random_range(0.0..seconds)).collect();
    due.sort_by(f64::total_cmp);
    due.into_iter()
        .map(|t| Arrival { due: Duration::from_secs_f64(t), stream: 0, item: r.random_range(0..items) })
        .collect()
}

/// The pre-letterboxed `batch_eval` validation set: [`VAL_IMAGES`] renders
/// at the model's input edge, as `[3, size, size]` tensors.
pub fn val_set(seed: u64, size: usize) -> Vec<Tensor> {
    let spec = DatasetSpec::micro(
        ClassSet::indianfood10(),
        VAL_IMAGES,
        size,
        rng(seed, 20).random_range(0..u64::MAX / 2),
    );
    let dataset = SyntheticDataset::generate(spec);
    (0..dataset.len()).map(|i| Tensor::from_vec(dataset.render(i).0.to_chw(), &[3, size, size])).collect()
}

/// Burst `k` of a `batch_eval` run: [`BURST`] distinct indices into an
/// `items`-long validation set, in seeded order.
pub fn burst(seed: u64, k: u64, items: usize) -> Vec<usize> {
    let mut r = rng(seed, 1000 + k);
    let mut idx: Vec<usize> = (0..items).collect();
    let take = BURST.min(items);
    for i in 0..take {
        let j = r.random_range(i..items);
        idx.swap(i, j);
    }
    idx.truncate(take);
    idx
}

/// The [`STREAMS`] jittered pans, one [`CLIP_FRAMES`]-frame clip each.
pub fn video_streams(seed: u64) -> Vec<Vec<Image>> {
    (0..STREAMS).map(|s| video_stream(seed, s)).collect()
}

/// Stream `s`'s clip: a jittered pan over four distinct dishes.
pub fn video_stream(seed: u64, s: usize) -> Vec<Image> {
    let classes = ClassSet::indianfood10();
    let mut r = rng(seed, 30 + s as u64);
    let mut picked: Vec<usize> = (0..classes.len()).collect();
    for i in 0..4 {
        let j = r.random_range(i..picked.len());
        picked.swap(i, j);
    }
    let dishes = picked[..4].iter().map(|&c| classes.kind(c)).collect();
    let spec = VideoSpec { jitter_px: JITTER_PX, ..VideoSpec::pan(FRAME_SIZE, CLIP_FRAMES, dishes) };
    render_video(&spec, &mut r).expect("the pan spec is valid").frames
}

/// Clip frame shown at stream frame `j`: forwards, then backwards, repeat.
pub fn ping_pong(j: usize, len: usize) -> usize {
    if len < 2 {
        return 0;
    }
    let period = 2 * (len - 1);
    let r = j % period;
    if r < len {
        r
    } else {
        period - r
    }
}

/// Every stream sends a frame each 1/[`FPS`] seconds from a seeded start
/// offset within the first frame period, each frame up to
/// [`SEND_JITTER_S`] behind its slot, for `seconds`; merged in due order.
/// `item` is the clip frame the stream shows at that point.
pub fn frame_arrivals(seed: u64, streams: usize, seconds: f64) -> Vec<Arrival> {
    let mut r = rng(seed, 40);
    let period = 1.0 / FPS;
    let frames = (seconds * FPS).round() as usize;
    let mut out = Vec::with_capacity(streams * frames);
    for stream in 0..streams {
        let offset = r.random_range(0.0..period);
        for j in 0..frames {
            let due = offset + j as f64 * period + r.random_range(0.0..SEND_JITTER_S);
            out.push(Arrival { due: Duration::from_secs_f64(due), stream, item: ping_pong(j, CLIP_FRAMES) });
        }
    }
    out.sort_by_key(|a| a.due);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_schedules() {
        assert_eq!(poisson_arrivals(7, 15.0, 4.0, 36), poisson_arrivals(7, 15.0, 4.0, 36));
        assert_ne!(poisson_arrivals(7, 15.0, 4.0, 36), poisson_arrivals(8, 15.0, 4.0, 36));
        assert_eq!(frame_arrivals(7, 4, 2.0), frame_arrivals(7, 4, 2.0));
        assert_ne!(frame_arrivals(7, 4, 2.0), frame_arrivals(8, 4, 2.0));
        assert_eq!(burst(7, 3, 64), burst(7, 3, 64));
        assert_ne!(burst(7, 3, 64), burst(7, 4, 64));
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        let raw = |images: Vec<Image>| images.iter().map(|i| i.raw().to_vec()).collect::<Vec<_>>();
        assert_eq!(raw(photos(7)), raw(photos(7)));
        assert_ne!(raw(photos(7)), raw(photos(8)));
        let flat = |ts: Vec<Tensor>| ts.iter().map(|t| t.as_slice().to_vec()).collect::<Vec<_>>();
        assert_eq!(flat(val_set(7, 64)), flat(val_set(7, 64)));
        assert_ne!(flat(val_set(7, 64)), flat(val_set(8, 64)));
        let a = video_streams(7);
        assert_eq!(a.len(), STREAMS);
        assert_eq!(
            a.iter().map(|s| raw(s.clone())).collect::<Vec<_>>(),
            video_streams(7).into_iter().map(raw).collect::<Vec<_>>()
        );
    }

    #[test]
    fn schedules_have_the_stated_shape() {
        let photo = poisson_arrivals(1, 15.0, 20.0, 36);
        assert_eq!(photo.len(), 300);
        assert!(photo.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(photo.iter().all(|a| a.item < 36 && a.due < Duration::from_secs(20)));
        let frames = frame_arrivals(1, 4, 2.0);
        assert_eq!(frames.len(), 4 * 60);
        assert!(frames.windows(2).all(|w| w[0].due <= w[1].due));
        for s in 0..4 {
            let mine: Vec<&Arrival> = frames.iter().filter(|a| a.stream == s).collect();
            assert!(mine
                .windows(2)
                .all(|w| w[1].due - w[0].due > Duration::from_secs_f64(1.0 / FPS - SEND_JITTER_S)));
        }
        let b = burst(1, 0, 64);
        let mut sorted = b.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), BURST);
    }

    #[test]
    fn ping_pong_never_jumps() {
        let seq: Vec<usize> = (0..10).map(|j| ping_pong(j, 4)).collect();
        assert_eq!(seq, [0, 1, 2, 3, 2, 1, 0, 1, 2, 3]);
    }
}
