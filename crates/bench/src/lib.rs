//! # platter-bench
//!
//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md §4), plus the Criterion
//! microbenches. Each binary accepts `--smoke` for a seconds-scale run and
//! `--scale <f>` to grow/shrink the workload; results are printed as text
//! tables and also written to `results/` as JSON records.

use std::path::{Path, PathBuf};
use std::time::Instant;

use platter_dataset::{Annotation, BatchLoader, ClassSet, DatasetSpec, DegradedDataset, LoaderConfig, Split, SyntheticDataset};
use platter_metrics::{evaluate, Evaluation, PredBox};
use platter_tensor::Tensor;
use platter_yolo::Detection;
use serde::Serialize;

/// Standard experiment scales.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunScale {
    /// Seconds-scale smoke test (CI-sized).
    Smoke,
    /// The default minutes-scale run used for EXPERIMENTS.md.
    Standard,
    /// A longer run for tighter numbers.
    Extended,
}

impl RunScale {
    /// Parse from process args: `--smoke` or `--extended` (default standard).
    pub fn from_args() -> RunScale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--smoke") {
            RunScale::Smoke
        } else if args.iter().any(|a| a == "--extended") {
            RunScale::Extended
        } else {
            RunScale::Standard
        }
    }

    /// Dataset size for this scale.
    pub fn dataset_size(self) -> usize {
        match self {
            RunScale::Smoke => 60,
            RunScale::Standard => 400,
            RunScale::Extended => 1200,
        }
    }

    /// Training iterations for this scale.
    pub fn iterations(self) -> usize {
        match self {
            RunScale::Smoke => 30,
            RunScale::Standard => 1200,
            RunScale::Extended => 1500,
        }
    }
}

/// The shared experiment dataset: micro IndianFood10 at 64 px with the
/// paper's composition.
pub fn experiment_dataset(n_images: usize, seed: u64) -> SyntheticDataset {
    SyntheticDataset::generate(DatasetSpec::micro(ClassSet::indianfood10(), n_images, 64, seed))
}

/// Render the validation subset once into `(images, ground_truth)` batches
/// of CHW tensors.
pub fn render_val_set(dataset: &SyntheticDataset, indices: &[usize], input: usize) -> (Vec<Tensor>, Vec<Vec<Annotation>>) {
    let mut loader = BatchLoader::new(dataset, indices, LoaderConfig::val(8, input));
    let mut tensors = Vec::new();
    let mut gt = Vec::new();
    for _ in 0..loader.batches_per_epoch() {
        let b = loader.next_batch();
        tensors.push(Tensor::from_vec(b.data, &b.shape));
        gt.extend(b.annotations);
    }
    (tensors, gt)
}

/// Render a degraded view of the validation subset into `(images,
/// ground_truth)` batches of CHW tensors, mirroring [`render_val_set`] but
/// through a [`DegradedDataset`]: each image is degraded on its own seeded
/// stream, then resized to the model input like the val loader would.
pub fn render_degraded_val_set(
    degraded: &DegradedDataset,
    indices: &[usize],
    input: usize,
) -> (Vec<Tensor>, Vec<Vec<Annotation>>) {
    let mut tensors = Vec::new();
    let mut gt = Vec::new();
    for chunk in indices.chunks(8) {
        let mut data = Vec::with_capacity(chunk.len() * 3 * input * input);
        for &index in chunk {
            let (img, anns) = degraded.render(index);
            let sized = if img.width() == input && img.height() == input {
                img
            } else {
                img.resize(input, input)
            };
            data.extend_from_slice(&sized.to_chw());
            gt.push(anns);
        }
        tensors.push(Tensor::from_vec(data, &[chunk.len(), 3, input, input]));
    }
    (tensors, gt)
}

/// Convert detector output to the metrics crate's input type.
pub fn to_pred_boxes(dets: &[Detection]) -> Vec<PredBox> {
    dets.iter().map(|d| PredBox { class: d.class, score: d.score, bbox: d.bbox }).collect()
}

/// Evaluate any batch detector (a closure from batch tensor to per-image
/// detections) over a prepared validation set.
pub fn evaluate_detector(
    mut detect: impl FnMut(&Tensor) -> Vec<Vec<Detection>>,
    val_tensors: &[Tensor],
    ground_truth: &[Vec<Annotation>],
    num_classes: usize,
) -> Evaluation {
    let mut preds: Vec<Vec<PredBox>> = Vec::with_capacity(ground_truth.len());
    for batch in val_tensors {
        for dets in detect(batch) {
            preds.push(to_pred_boxes(&dets));
        }
    }
    assert_eq!(preds.len(), ground_truth.len(), "prediction/GT image count mismatch");
    evaluate(ground_truth, &preds, num_classes, 0.5)
}

/// Collect raw per-image predictions (for the confusion matrix / figures).
pub fn collect_predictions(
    mut detect: impl FnMut(&Tensor) -> Vec<Vec<Detection>>,
    val_tensors: &[Tensor],
) -> Vec<Vec<PredBox>> {
    let mut preds = Vec::new();
    for batch in val_tensors {
        for dets in detect(batch) {
            preds.push(to_pred_boxes(&dets));
        }
    }
    preds
}

/// Evaluate at two operating points the way darknet reports: AP/mAP from
/// *all* detections above a very low threshold (the detector should be
/// configured with `conf_thresh ≈ 0.01`), and precision/recall/F1 at the
/// deployment threshold 0.25.
pub struct TwoPointEval {
    /// Ranking-based metrics (per-class AP, mAP, PR curves).
    pub ap: Evaluation,
    /// Operating-point metrics (precision/recall/F1 at conf ≥ 0.25).
    pub op: Evaluation,
}

/// The darknet-default deployment confidence.
pub const OP_CONF: f32 = 0.25;

/// Build a [`TwoPointEval`] from raw predictions.
pub fn two_point_eval(ground_truth: &[Vec<Annotation>], preds: &[Vec<PredBox>], num_classes: usize) -> TwoPointEval {
    let ap = evaluate(ground_truth, preds, num_classes, 0.5);
    let filtered: Vec<Vec<PredBox>> = preds
        .iter()
        .map(|p| p.iter().copied().filter(|d| d.score >= OP_CONF).collect())
        .collect();
    let op = evaluate(ground_truth, &filtered, num_classes, 0.5);
    TwoPointEval { ap, op }
}

/// Cache directory for trained checkpoints shared between binaries.
pub fn cache_dir() -> PathBuf {
    let dir = results_dir().join("cache");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("[warn] cannot create cache dir {}: {e}", dir.display());
    }
    dir
}

/// Train (or load from cache) the standard YOLOv4-micro for a scale.
///
/// The shared experiment model trains from scratch (`transfer: false` at
/// the call sites): at CPU scale the pretext pretraining is too short to
/// help (see `ablation_transfer`, which measures exactly this), while the
/// freeze phase costs iterations the budget cannot spare. The
/// transfer-learning *mechanism* is exercised by `ablation_transfer` and
/// the quickstart example.
///
/// The first experiment binary to run at a given scale pays the training
/// cost and saves `results/cache/yolo_<tag>.pltw`; later binaries reload it
/// so Tables I/III and Figs. 5–7 describe the *same* trained model, exactly
/// as in the paper. Pass `--retrain` to force a fresh run.
///
/// The cache is validate-or-retrain: an unreadable, truncated, or
/// checksum-corrupt checkpoint is reported and retrained, never trusted and
/// never a panic. Training runs under the fault-tolerant runtime with a
/// resumable mid-run checkpoint at `results/cache/yolo_<tag>.pltr`, so a
/// killed experiment binary picks up where it left off; the `.pltr` file is
/// removed once the final `.pltw` cache is written.
pub fn ensure_trained_yolo(tag: &str, scale: RunScale, transfer: bool) -> (platter_yolo::Yolov4, SyntheticDataset, Split) {
    use platter_tensor::serialize::LoadMode;
    use platter_yolo::{pretrain_backbone, runtime, transfer_backbone, FaultPlan, RuntimeConfig, TrainConfig, YoloConfig, Yolov4};

    let dataset = experiment_dataset(scale.dataset_size(), 7);
    let split = standard_split(&dataset);
    let model = Yolov4::new(YoloConfig::micro(10), 42);
    let path = cache_dir().join(format!("yolo_{tag}.pltw"));
    let run_ckpt = cache_dir().join(format!("yolo_{tag}.pltr"));
    let retrain = std::env::args().any(|a| a == "--retrain");
    if retrain {
        // A forced retrain must not silently resume a previous run.
        std::fs::remove_file(&run_ckpt).ok();
    } else if path.exists() {
        match std::fs::read(&path) {
            Ok(buf) => match model.load(&buf, LoadMode::Strict) {
                Ok(_) => {
                    println!("[cache] loaded {}", path.display());
                    return (model, dataset, split);
                }
                Err(e) => println!("[cache] invalid checkpoint at {} ({e}), retraining", path.display()),
            },
            Err(e) => println!("[cache] unreadable checkpoint at {} ({e}), retraining", path.display()),
        }
    }

    if transfer {
        let t = Timer::start("pretext pretraining");
        let pre_iters = match scale {
            RunScale::Smoke => 10,
            RunScale::Standard => 120,
            RunScale::Extended => 300,
        };
        let outcome = pretrain_backbone(&model.config, pre_iters, 8, 21);
        println!("pretext accuracy: {:.2}", outcome.accuracy);
        drop(t);
        let report = transfer_backbone(&outcome.classifier, &model).expect("transfer");
        println!("transferred {} backbone tensors", report.loaded.len());
    }

    let t = Timer::start("training yolo");
    let mut cfg = TrainConfig::micro(scale.iterations());
    if transfer {
        cfg.freeze_backbone_iters = scale.iterations() / 10;
    }
    let mut rt = RuntimeConfig::new(&run_ckpt);
    rt.checkpoint_every = (scale.iterations() / 10).max(5);
    let report = match runtime::run(&model, &dataset, &split.train, &cfg, &rt, FaultPlan::none(), |r| {
        if r.iteration % 100 == 0 {
            println!(
                "iter {:4}  loss {:7.3}  iou {:.3}  lr {:.5}",
                r.iteration, r.loss.total, r.loss.mean_iou, r.lr
            );
        }
    }) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("[fatal] training failed: {e}");
            std::process::exit(1);
        }
    };
    if let Some(iter) = report.resumed_from {
        println!("[cache] resumed interrupted training from iteration {iter}");
    }
    if report.discarded_corrupt {
        println!("[cache] discarded corrupt run checkpoint {}, trained from scratch", run_ckpt.display());
    }
    if report.rollbacks > 0 {
        println!("[cache] training recovered from {} divergence rollback(s)", report.rollbacks);
    }
    drop(t);
    match platter_tensor::fsio::atomic_write(&path, &model.save()) {
        Ok(()) => {
            println!("[cache] saved {}", path.display());
            std::fs::remove_file(&run_ckpt).ok();
        }
        // Keep the .pltr so the completed run is still recoverable next time.
        Err(e) => eprintln!("[warn] failed to save checkpoint cache {}: {e}", path.display()),
    }
    (model, dataset, split)
}

/// The standard 80/20 split of an experiment dataset.
pub fn standard_split(dataset: &SyntheticDataset) -> Split {
    Split::eighty_twenty(dataset.len(), 0x5EED)
}

/// Execution resources behind a benchmark artifact. Every experiment
/// binary that times anything stamps one of these (field name `host`) into
/// its JSON record so numbers can be compared across machines and CI gates
/// can tell a 1-core host from a real one: `workers` is the number of
/// serve/engine workers the benchmark drove, `threads` the GEMM worker
/// threads each engine uses, and `host_cpus` the hardware parallelism the
/// process saw, `cpu_model` the processor and `isa` its SIMD extensions,
/// so a before/after pair can show it was recorded on one machine.
#[derive(Clone, Debug, Serialize)]
pub struct HostRecord {
    /// Worker engines driven by the benchmark (1 for single-engine runs).
    pub workers: usize,
    /// GEMM threads per engine (`PLATTER_THREADS` override, else cores).
    pub threads: usize,
    /// Hardware threads visible to the process.
    pub host_cpus: usize,
    /// The `model name` line of `/proc/cpuinfo`, or `unknown`.
    pub cpu_model: String,
    /// Which of `avx2`, `fma`, `avx512f`, `avx512vnni` the CPU supports,
    /// detected at run time (empty off x86-64).
    pub isa: Vec<&'static str>,
}

/// The SIMD extensions [`HostRecord::isa`] reports that this CPU has.
fn detected_isa() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        [
            ("avx2", is_x86_feature_detected!("avx2")),
            ("fma", is_x86_feature_detected!("fma")),
            ("avx512f", is_x86_feature_detected!("avx512f")),
            ("avx512vnni", is_x86_feature_detected!("avx512vnni")),
        ]
        .into_iter()
        .filter_map(|(name, has)| has.then_some(name))
        .collect()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// Build the standard [`HostRecord`] for a benchmark driving `workers`
/// engines. This is the single source of the `workers`/`threads` fields in
/// every `results/*.json` artifact — binaries must not hand-roll them.
pub fn host_record(workers: usize) -> HostRecord {
    HostRecord {
        workers,
        threads: platter_tensor::gemm::effective_threads(),
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model: std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into()),
        isa: detected_isa(),
    }
}

/// Results directory (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("[warn] cannot create results dir {}: {e}", dir.display());
    }
    dir
}

/// Write a JSON record next to the text output. Written atomically; a
/// failed artifact write warns rather than aborting the experiment.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = match serde_json::to_string_pretty(value) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("[warn] failed to serialize record {name}: {e}");
            return;
        }
    };
    match platter_tensor::fsio::atomic_write(&path, json.as_bytes()) {
        Ok(()) => println!("[record] {}", path.display()),
        Err(e) => eprintln!("[warn] failed to write record {}: {e}", path.display()),
    }
}

/// Write a text artifact (table/curve/figure listing). Written atomically;
/// a failed artifact write warns rather than aborting the experiment.
pub fn write_text(name: &str, content: &str) {
    let path = results_dir().join(name);
    match platter_tensor::fsio::atomic_write(&path, content.as_bytes()) {
        Ok(()) => println!("[artifact] {}", path.display()),
        Err(e) => eprintln!("[warn] failed to write artifact {}: {e}", path.display()),
    }
}

/// Simple wall-clock scope timer.
pub struct Timer(Instant, &'static str);

impl Timer {
    /// Start a named timer.
    pub fn start(name: &'static str) -> Timer {
        Timer(Instant::now(), name)
    }

    /// Elapsed seconds.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        println!("[time] {}: {:.1}s", self.1, self.secs());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn val_set_rendering_matches_split() {
        let ds = experiment_dataset(20, 1);
        let split = standard_split(&ds);
        let (tensors, gt) = render_val_set(&ds, &split.val, 64);
        let total: usize = tensors.iter().map(|t| t.shape()[0]).sum();
        assert_eq!(total, split.val.len());
        assert_eq!(gt.len(), split.val.len());
    }

    #[test]
    fn evaluate_detector_with_oracle_is_perfect() {
        // An oracle that returns the ground truth as detections gets mAP 1.
        let ds = experiment_dataset(12, 2);
        let indices: Vec<usize> = (0..ds.len()).collect();
        let (tensors, gt) = render_val_set(&ds, &indices, 64);
        let mut cursor = 0usize;
        let gt_ref = gt.clone();
        let eval = evaluate_detector(
            move |batch| {
                let n = batch.shape()[0];
                let out: Vec<Vec<Detection>> = gt_ref[cursor..cursor + n]
                    .iter()
                    .map(|anns| {
                        anns.iter()
                            .map(|a| Detection { class: a.class, score: 0.99, bbox: a.bbox })
                            .collect()
                    })
                    .collect();
                cursor += n;
                out
            },
            &tensors,
            &gt,
            10,
        );
        assert!((eval.map - 1.0).abs() < 1e-5, "oracle mAP {}", eval.map);
        assert!((eval.f1 - 1.0).abs() < 1e-5);
    }
}
