//! Batched data loading with optional augmentation, mosaic, shuffling and a
//! prefetch thread (the role darknet's data-loading threads play).

use platter_imaging::augment::{augment, mosaic, AugmentConfig};
use platter_imaging::synth::LabeledBox;
use platter_imaging::Image;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::annotation::Annotation;
use crate::generator::SyntheticDataset;

/// Loader configuration.
#[derive(Clone, Debug)]
pub struct LoaderConfig {
    /// Images per batch.
    pub batch_size: usize,
    /// Network input edge; images are resized (square→square) to this.
    pub input_size: usize,
    /// Photometric/geometric augmentation; `None` for validation.
    pub augment: Option<AugmentConfig>,
    /// Probability of replacing a sample with a 4-image mosaic.
    pub mosaic_prob: f64,
    /// Shuffle order each epoch.
    pub shuffle: bool,
    /// Loader RNG seed.
    pub seed: u64,
}

impl LoaderConfig {
    /// Training defaults: full augmentation + 50% mosaic.
    pub fn train(batch_size: usize, input_size: usize, seed: u64) -> LoaderConfig {
        LoaderConfig {
            batch_size,
            input_size,
            augment: Some(AugmentConfig::default()),
            mosaic_prob: 0.5,
            shuffle: true,
            seed,
        }
    }

    /// Validation defaults: no augmentation, stable order.
    pub fn val(batch_size: usize, input_size: usize) -> LoaderConfig {
        LoaderConfig { batch_size, input_size, augment: None, mosaic_prob: 0.0, shuffle: false, seed: 0 }
    }
}

/// A rendered batch: planar CHW floats plus per-image annotations.
#[derive(Clone, Debug)]
pub struct ImageBatch {
    /// `[n, 3, s, s]` image data, CHW per image, values in `[0, 1]`.
    pub data: Vec<f32>,
    /// Batch shape `[n, 3, s, s]`.
    pub shape: [usize; 4],
    /// Ground truth per image.
    pub annotations: Vec<Vec<Annotation>>,
}

/// Snapshot of a [`BatchLoader`]'s position in its sample stream.
///
/// Captures everything that makes the stream deterministic: the completed
/// epoch count, the in-epoch cursor, the current (shuffled) index order and
/// the RNG state driving shuffles and augmentations. A loader restored from
/// a state emits exactly the batches the original loader would have emitted
/// next — the property crash-safe training resume depends on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoaderState {
    /// Completed epochs.
    pub epoch: usize,
    /// Position within the current epoch's index order.
    pub cursor: usize,
    /// The current (post-shuffle) sample order.
    pub indices: Vec<usize>,
    /// The loader RNG's internal state.
    pub rng_state: [u64; 4],
}

/// Epoch iterator over a dataset subset.
pub struct BatchLoader<'a> {
    dataset: &'a SyntheticDataset,
    indices: Vec<usize>,
    cfg: LoaderConfig,
    rng: StdRng,
    cursor: usize,
    epoch: usize,
}

impl<'a> BatchLoader<'a> {
    /// Create a loader over `indices` of `dataset`.
    pub fn new(dataset: &'a SyntheticDataset, indices: &[usize], cfg: LoaderConfig) -> BatchLoader<'a> {
        assert!(cfg.batch_size > 0, "batch size must be positive");
        if let Some(aug) = &cfg.augment {
            if let Err(e) = aug.validate() {
                panic!("loader: invalid AugmentConfig: {e}");
            }
        }
        let mut loader = BatchLoader {
            dataset,
            indices: indices.to_vec(),
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            cursor: 0,
            epoch: 0,
        };
        loader.reshuffle();
        loader
    }

    fn reshuffle(&mut self) {
        if self.cfg.shuffle {
            for i in (1..self.indices.len()).rev() {
                let j = self.rng.random_range(0..=i);
                self.indices.swap(i, j);
            }
        }
    }

    /// Number of batches per epoch (final partial batch included).
    pub fn batches_per_epoch(&self) -> usize {
        self.indices.len().div_ceil(self.cfg.batch_size)
    }

    /// Completed epochs.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Snapshot the loader's stream position for checkpointing.
    pub fn state(&self) -> LoaderState {
        LoaderState {
            epoch: self.epoch,
            cursor: self.cursor,
            indices: self.indices.clone(),
            rng_state: self.rng.state(),
        }
    }

    /// Restore a position captured by [`BatchLoader::state`].
    ///
    /// The state must come from a loader over the same dataset subset
    /// (same index multiset); otherwise the restore is rejected and the
    /// loader is left unchanged.
    pub fn restore(&mut self, state: &LoaderState) -> Result<(), String> {
        let mut ours = self.indices.clone();
        let mut theirs = state.indices.clone();
        ours.sort_unstable();
        theirs.sort_unstable();
        if ours != theirs {
            return Err(format!(
                "loader state covers a different subset: {} indices vs {}",
                state.indices.len(),
                self.indices.len()
            ));
        }
        if state.cursor > state.indices.len() {
            return Err(format!(
                "loader state cursor {} out of range for {} indices",
                state.cursor,
                state.indices.len()
            ));
        }
        self.epoch = state.epoch;
        self.cursor = state.cursor;
        self.indices = state.indices.clone();
        self.rng = StdRng::from_state(state.rng_state);
        Ok(())
    }

    fn to_labeled(&self, anns: &[Annotation]) -> Vec<LabeledBox> {
        anns.iter()
            .map(|a| LabeledBox { kind: self.dataset.spec.classes.kind(a.class), bbox: a.bbox })
            .collect()
    }

    fn to_annotations(&self, boxes: &[LabeledBox]) -> Vec<Annotation> {
        boxes
            .iter()
            .filter_map(|b| {
                self.dataset
                    .spec
                    .classes
                    .class_of(b.kind)
                    .map(|class| Annotation { class, bbox: b.bbox })
            })
            .collect()
    }

    /// Render one training sample (with augmentation/mosaic as configured).
    fn render_sample(&mut self, index: usize) -> (Image, Vec<Annotation>) {
        let use_mosaic = self.cfg.mosaic_prob > 0.0 && self.rng.random_bool(self.cfg.mosaic_prob);
        if use_mosaic && self.indices.len() >= 4 {
            let mut tiles = Vec::with_capacity(4);
            let (img0, anns0) = self.dataset.render(index);
            tiles.push((img0, self.to_labeled(&anns0)));
            for _ in 0..3 {
                let pick = self.indices[self.rng.random_range(0..self.indices.len())];
                let (img, anns) = self.dataset.render(pick);
                tiles.push((img, self.to_labeled(&anns)));
            }
            let tiles: [(Image, Vec<LabeledBox>); 4] = tiles.try_into().expect("4 tiles");
            let (img, boxes) = mosaic(&tiles, self.cfg.input_size, &mut self.rng);
            return (img, self.to_annotations(&boxes));
        }
        let (img, anns) = self.dataset.render(index);
        if let Some(cfg) = &self.cfg.augment {
            let labeled = self.to_labeled(&anns);
            let (img, boxes) = augment(&img, &labeled, cfg, &mut self.rng);
            (img, self.to_annotations(&boxes))
        } else {
            (img, anns)
        }
    }

    /// Next batch; rolls into the next epoch automatically.
    pub fn next_batch(&mut self) -> ImageBatch {
        let s = self.cfg.input_size;
        let n = self.cfg.batch_size.min(self.indices.len() - self.cursor).max(1);
        let mut data = Vec::with_capacity(n * 3 * s * s);
        let mut annotations = Vec::with_capacity(n);
        for k in 0..n {
            let idx = self.indices[self.cursor + k];
            let (img, anns) = self.render_sample(idx);
            let img = if img.width() == s && img.height() == s { img } else { img.resize(s, s) };
            data.extend_from_slice(&img.to_chw());
            annotations.push(anns);
        }
        self.cursor += n;
        if self.cursor >= self.indices.len() {
            self.cursor = 0;
            self.epoch += 1;
            self.reshuffle();
        }
        ImageBatch { data, shape: [n, 3, s, s], annotations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::ClassSet;
    use crate::generator::DatasetSpec;

    fn dataset() -> SyntheticDataset {
        SyntheticDataset::generate(DatasetSpec::micro(ClassSet::indianfood10(), 24, 48, 9))
    }

    #[test]
    fn batch_shapes_and_values() {
        let ds = dataset();
        let indices: Vec<usize> = (0..ds.len()).collect();
        let mut loader = BatchLoader::new(&ds, &indices, LoaderConfig::val(4, 32));
        let b = loader.next_batch();
        assert_eq!(b.shape, [4, 3, 32, 32]);
        assert_eq!(b.data.len(), 4 * 3 * 32 * 32);
        assert_eq!(b.annotations.len(), 4);
        assert!(b.data.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn epoch_advances_and_covers_all_items() {
        let ds = dataset();
        let indices: Vec<usize> = (0..ds.len()).collect();
        let mut loader = BatchLoader::new(&ds, &indices, LoaderConfig::val(5, 32));
        assert_eq!(loader.batches_per_epoch(), 5);
        let mut seen = 0;
        for _ in 0..5 {
            seen += loader.next_batch().annotations.len();
        }
        assert_eq!(seen, 24);
        assert_eq!(loader.epoch(), 1);
    }

    #[test]
    fn validation_loader_is_reproducible() {
        let ds = dataset();
        let indices: Vec<usize> = (0..8).collect();
        let mut a = BatchLoader::new(&ds, &indices, LoaderConfig::val(4, 32));
        let mut b = BatchLoader::new(&ds, &indices, LoaderConfig::val(4, 32));
        let ba = a.next_batch();
        let bb = b.next_batch();
        assert_eq!(ba.data, bb.data);
        assert_eq!(ba.annotations.len(), bb.annotations.len());
    }

    #[test]
    fn train_loader_augments_but_keeps_annotations_valid() {
        let ds = dataset();
        let indices: Vec<usize> = (0..ds.len()).collect();
        let mut loader = BatchLoader::new(&ds, &indices, LoaderConfig::train(4, 32, 11));
        for _ in 0..4 {
            let b = loader.next_batch();
            for anns in &b.annotations {
                for a in anns {
                    assert!(a.class < 10);
                    assert!(a.bbox.is_valid(), "{a:?}");
                    let (x0, y0, x1, y1) = a.bbox.xyxy();
                    assert!(x0 >= -1e-3 && y0 >= -1e-3 && x1 <= 1.0 + 1e-3 && y1 <= 1.0 + 1e-3);
                }
            }
        }
    }

    #[test]
    fn state_round_trip_replays_identical_stream() {
        let ds = dataset();
        let indices: Vec<usize> = (0..ds.len()).collect();
        let cfg = LoaderConfig::train(4, 32, 7);
        let mut original = BatchLoader::new(&ds, &indices, cfg.clone());
        // Advance partway into the second epoch so epoch/cursor/shuffle state
        // are all non-trivial.
        for _ in 0..8 {
            original.next_batch();
        }
        let state = original.state();
        let expected: Vec<ImageBatch> = (0..6).map(|_| original.next_batch()).collect();

        let mut resumed = BatchLoader::new(&ds, &indices, cfg);
        resumed.restore(&state).unwrap();
        for want in &expected {
            let got = resumed.next_batch();
            assert_eq!(got.shape, want.shape);
            assert_eq!(got.data, want.data, "resumed loader must replay identical pixels");
            assert_eq!(got.annotations.len(), want.annotations.len());
        }
    }

    #[test]
    fn restore_rejects_foreign_state() {
        let ds = dataset();
        let all: Vec<usize> = (0..ds.len()).collect();
        let half: Vec<usize> = (0..ds.len() / 2).collect();
        let donor = BatchLoader::new(&ds, &half, LoaderConfig::val(4, 32));
        let mut loader = BatchLoader::new(&ds, &all, LoaderConfig::val(4, 32));
        assert!(loader.restore(&donor.state()).is_err());
        // A corrupted cursor is rejected too.
        let mut bad = loader.state();
        bad.cursor = bad.indices.len() + 1;
        assert!(loader.restore(&bad).is_err());
    }
}
