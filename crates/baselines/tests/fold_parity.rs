//! Batch-fold parity: a batch-`n` forward equals `n` batch-1 forwards, bit
//! for bit, on every compiled model the repository serves.
//!
//! The executor folds the items of a batch into one GEMM per conv (up to
//! the plan's fold group), so at batch 1 a conv runs per item and at batch
//! 8 it may run once for all items. Each output element still starts at
//! its bias and accumulates in ascending `k`, so the fold must be
//! invisible in the bits. Every batch here runs on a `fork()` of the
//! executor that produced the batch-1 references, in the order
//! 8 → 2 → 3 → 8: the arena is grown, reused for smaller batches, and
//! reused again at full size.
//!
//! Folding packs items into the existing im2col scratch and never grows
//! the arena, so the per-item arena size and the scratch length are pinned
//! to their values from before folding existed.

use platter_baselines::{SsdConfig, SsdDetector};
use platter_tensor::{Executor, Plan, Tensor};
use platter_yolo::{YoloConfig, Yolov4};
use rand::rngs::StdRng;
use rand::SeedableRng;

const BATCHES: [usize; 4] = [8, 2, 3, 8];

/// Item `i` of an `[n, ...]` tensor as a `[1, ...]` tensor.
fn item(x: &Tensor, i: usize) -> Tensor {
    let per = x.numel() / x.shape()[0];
    let mut shape = x.shape().to_vec();
    shape[0] = 1;
    Tensor::from_vec(x.as_slice()[i * per..(i + 1) * per].to_vec(), &shape)
}

/// One forward of any compiled model, returning owned outputs.
trait Forward {
    fn forward(&mut self, x: &Tensor) -> Vec<Tensor>;
}

impl Forward for platter_yolo::CompiledModel {
    fn forward(&mut self, x: &Tensor) -> Vec<Tensor> {
        self.run(x).to_vec()
    }
}

impl Forward for Executor {
    fn forward(&mut self, x: &Tensor) -> Vec<Tensor> {
        self.run(&[x]).to_vec()
    }
}

/// Run `BATCHES` on `batched` and compare every item with the batch-1
/// output of `single` on the same item.
fn assert_fold_parity(name: &str, size: usize, single: &mut dyn Forward, batched: &mut dyn Forward) {
    let mut rng = StdRng::seed_from_u64(17);
    for n in BATCHES {
        let x = Tensor::rand_uniform(&[n, 3, size, size], 0.0, 1.0, &mut rng);
        let outs = batched.forward(&x);
        for i in 0..n {
            let want = single.forward(&item(&x, i));
            for (o, (got, want)) in outs.iter().zip(&want).enumerate() {
                let got = item(got, i);
                let same = got.as_slice().iter().zip(want.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{name}: batch {n}, item {i}, output {o} differs from its batch-1 forward");
            }
        }
    }
}

fn assert_arena_pinned(name: &str, plan: &Plan, per_item: usize, col_len: usize) {
    assert_eq!(plan.per_item_arena_elems(), per_item, "{name}: per-item arena grew");
    assert_eq!(plan.col_len(), col_len, "{name}: im2col scratch changed");
}

#[test]
fn yolo_micro_batch_equals_per_item() {
    let cfg = YoloConfig::micro(10);
    let size = cfg.input_size;
    let mut single = Yolov4::new(cfg, 42).compile_inference();
    assert_arena_pinned("micro", single.plan(), 179_712, 110_592);
    let mut batched = single.fork_worker();
    assert_fold_parity("micro", size, &mut single, &mut batched);
}

#[test]
fn yolo_nano_batch_equals_per_item() {
    let cfg = YoloConfig { input_size: 32, width: 0.05, ..YoloConfig::micro(10) };
    let size = cfg.input_size;
    let mut single = Yolov4::new(cfg, 42).compile_inference();
    assert_arena_pinned("nano", single.plan(), 36_022, 27_648);
    let mut batched = single.fork_worker();
    assert_fold_parity("nano", size, &mut single, &mut batched);
}

#[test]
fn ssd_batch_equals_per_item() {
    let cfg = SsdConfig::micro(10);
    let size = cfg.input_size;
    let mut single = SsdDetector::new(cfg, 3).compile_inference();
    assert_arena_pinned("ssd", single.plan(), 50_432, 27_648);
    let mut batched = single.fork();
    assert_fold_parity("ssd", size, &mut single, &mut batched);
}
