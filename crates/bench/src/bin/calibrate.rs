//! Scale-calibration utility: times one training run of YOLOv4-micro and reports
//! mAP, so the experiment scales in `RunScale` stay honest for the host
//! machine. Not tied to a paper table.
//!
//! ```text
//! cargo run -p platter-bench --release --bin calibrate [-- iters n_images]
//! ```

use platter_bench::{evaluate_detector, experiment_dataset, render_val_set, standard_split, Timer};
use platter_metrics::summary_line;
use platter_yolo::{train, Detector, TrainConfig, YoloConfig, Yolov4};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let iters: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(200);
    let n_images: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(240);

    println!("calibrating: {iters} iterations over {n_images} images (micro profile, 64 px)");
    let dataset = experiment_dataset(n_images, 7);
    let split = standard_split(&dataset);

    let model = Yolov4::new(YoloConfig::micro(10), 42);
    println!("model parameters: {}", model.num_parameters());

    let t = Timer::start("training");
    let mut cfg = TrainConfig::micro(iters);
    cfg.mosaic_prob = 0.15;
    cfg.weights.box_w = 5.0;
    let history = train(
        &model,
        &dataset,
        &split.train,
        &cfg,
        0,
        |_, _| {},
        |r| {
            if r.iteration % 25 == 0 || r.iteration == 1 {
                println!(
                    "iter {:4}  loss {:7.3}  box {:6.3}  obj {:6.3}  cls {:6.3}  iou {:.3}  lr {:.5}",
                    r.iteration, r.loss.total, r.loss.box_loss, r.loss.obj_loss, r.loss.cls_loss, r.loss.mean_iou, r.lr
                );
            }
        },
    );
    let train_secs = t.secs();
    drop(t);
    println!("sec/iter: {:.3}", train_secs / history.len() as f64);

    let te = Timer::start("evaluation");
    let (val_tensors, gt) = render_val_set(&dataset, &split.val, 64);
    let mut detector = Detector::new(model);
    detector.conf_thresh = 0.01;
    let preds = platter_bench::collect_predictions(|b| detector.detect_batch(b), &val_tensors);
    drop(te);
    for iou in [0.5f32, 0.4, 0.3, 0.2] {
        let e = platter_metrics::evaluate(&gt, &preds, 10, iou);
        println!("IoU {:.2}: mAP {:5.2}%  P {:.3} R {:.3}", iou, e.map * 100.0, e.precision, e.recall);
    }
    let eval = evaluate_detector(|b| detector.detect_batch(b), &val_tensors, &gt, 10);
    println!("{}", summary_line(&eval));
    for c in &eval.per_class {
        println!("  class {:2}: AP {:5.1}%  (npos {}, tp {}, fp {})", c.class, c.ap * 100.0, c.npos, c.tp, c.fp);
    }
}
