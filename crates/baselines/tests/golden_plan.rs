//! Golden structural snapshots of the compiled inference plans.
//!
//! The planner's value comes from two structural properties: batch norms
//! fold into conv weights (no `scale_bias` ops survive) and activations
//! fuse into the producing op (no standalone `act` ops survive). A
//! regression in either keeps the outputs bit-for-bit compatible while
//! silently costing a full extra pass over every feature map — parity
//! tests cannot see it. These snapshots pin the exact op-kind sequence,
//! arena slot count and arena bytes (after a batch-1 then a batch-8 run)
//! of the micro YOLOv4 and SSD plans, so a lost fusion (or a planner that
//! suddenly needs more memory) fails loudly.
//!
//! When a deliberate planner change shifts these, regenerate by printing
//! `plan.op_kinds()` / `plan.num_slots()` / `arena_bytes()` and updating
//! the constants.

use platter_baselines::{SsdConfig, SsdDetector};
use platter_tensor::Tensor;
use platter_yolo::{YoloConfig, Yolov4};

/// Run-length compact an op-kind sequence: `conv2d[Mish]` repeated six
/// times becomes `conv2d[Mish]x6`, keeping the snapshot readable.
fn compact(kinds: &[String]) -> Vec<String> {
    let mut out: Vec<(String, usize)> = Vec::new();
    for k in kinds {
        match out.last_mut() {
            Some((prev, n)) if prev == k => *n += 1,
            _ => out.push((k.clone(), 1)),
        }
    }
    out.into_iter().map(|(k, n)| if n == 1 { k } else { format!("{k}x{n}") }).collect()
}

const YOLO_MICRO_KINDS: &[&str] = &[
    "input",
    // CSPDarknet: five stages of down-conv + split + residual + merge.
    "conv2d[Mish]x6", "add", "conv2d[Mish]", "concat2",
    "conv2d[Mish]x6", "add", "conv2d[Mish]", "concat2",
    "conv2d[Mish]x6", "add", "conv2d[Mish]", "concat2",
    "conv2d[Mish]x6", "add", "conv2d[Mish]", "concat2",
    "conv2d[Mish]x6", "add", "conv2d[Mish]", "concat2",
    "conv2d[Mish]",
    // SPP: three parallel maxpools over the stride-32 map, concatenated.
    "conv2d[Leaky]x3", "maxpool3s1x3", "concat4",
    // PANet top-down then bottom-up.
    "conv2d[Leaky]x4", "upsample2", "conv2d[Leaky]", "concat2",
    "conv2d[Leaky]x6", "upsample2", "conv2d[Leaky]", "concat2",
    "conv2d[Leaky]x6", "concat2", "conv2d[Leaky]x6", "concat2", "conv2d[Leaky]x6",
    // Three detection heads (expand + linear projection each).
    "conv2d[Linear]", "conv2d[Leaky]", "conv2d[Linear]", "conv2d[Leaky]", "conv2d[Linear]",
];

const SSD_MICRO_KINDS: &[&str] = &[
    "input",
    // Stem + down + three inception blocks (4-branch concat each), with
    // the three SSD heads at the end.
    "conv2d[Relu]x9", "maxpool3s1", "conv2d[Relu]", "concat4",
    "conv2d[Relu]x7", "maxpool3s1", "conv2d[Relu]", "concat4",
    "conv2d[Relu]x7", "maxpool3s1", "conv2d[Relu]", "concat4",
    "conv2d[Linear]x3",
];

#[test]
fn yolov4_micro_plan_structure_is_golden() {
    let model = Yolov4::new(YoloConfig::micro(10), 1);
    let mut engine = model.compile_inference();
    let s = model.config.input_size;
    engine.run(&Tensor::zeros(&[1, 3, s, s]));
    assert_eq!(engine.arena_bytes(), 718_848, "YOLOv4-micro batch-1 arena size drifted");
    engine.run(&Tensor::zeros(&[8, 3, s, s]));
    assert_eq!(engine.arena_bytes(), 2_654_208, "YOLOv4-micro batch-8 arena size drifted");
    let plan = engine.plan();
    let kinds = compact(&plan.op_kinds());
    assert_eq!(kinds, YOLO_MICRO_KINDS, "YOLOv4-micro op sequence drifted");
    assert_eq!(plan.num_slots(), 7, "YOLOv4-micro arena slot count drifted");
    // The properties the snapshot encodes, stated directly: no unfused ops.
    for k in plan.op_kinds() {
        assert!(!k.starts_with("scale_bias"), "unfolded batch norm survived: {k}");
        assert!(!k.starts_with("act["), "unfused activation survived: {k}");
    }
}

#[test]
fn ssd_micro_plan_structure_is_golden() {
    let model = SsdDetector::new(SsdConfig::micro(10), 1);
    let mut exec = model.compile_inference();
    let s = model.config.input_size;
    exec.run(&[&Tensor::zeros(&[1, 3, s, s])]);
    assert_eq!(exec.arena_bytes(), 201_728, "SSD-micro batch-1 arena size drifted");
    exec.run(&[&Tensor::zeros(&[8, 3, s, s])]);
    assert_eq!(exec.arena_bytes(), 839_680, "SSD-micro batch-8 arena size drifted");
    let plan = exec.plan();
    let kinds = compact(&plan.op_kinds());
    assert_eq!(kinds, SSD_MICRO_KINDS, "SSD-micro op sequence drifted");
    assert_eq!(plan.num_slots(), 7, "SSD-micro arena slot count drifted");
    for k in plan.op_kinds() {
        assert!(!k.starts_with("scale_bias"), "unfolded batch norm survived: {k}");
        assert!(!k.starts_with("act["), "unfused activation survived: {k}");
    }
}
