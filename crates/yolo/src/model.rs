//! The assembled YOLOv4 model: CSPDarknet53 + SPP/PANet + three heads, with
//! checkpointing and the backbone freeze/unfreeze switch that implements the
//! paper's transfer-learning stage.

use platter_tensor::serialize::{load_params, save_params, LoadMode, LoadReport, WeightError};
use platter_tensor::{ExecError, Executor, Graph, Mode, Param, Plan, Planner, Tensor, Trace, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::backbone::CspDarknet;
use crate::config::YoloConfig;
use crate::head::YoloHeads;
use crate::neck::PanNeck;

/// The full detector.
pub struct Yolov4 {
    /// Model configuration.
    pub config: YoloConfig,
    backbone: CspDarknet,
    neck: PanNeck,
    heads: YoloHeads,
}

impl Yolov4 {
    /// Build a freshly initialised model (Kaiming init, seeded).
    pub fn new(config: YoloConfig, seed: u64) -> Yolov4 {
        config.validate().expect("invalid config");
        let mut rng = StdRng::seed_from_u64(seed);
        Yolov4 {
            backbone: CspDarknet::new("backbone", &config, &mut rng),
            neck: PanNeck::new("neck", &config, &mut rng),
            heads: YoloHeads::new("head", &config, &mut rng),
            config,
        }
    }

    /// Build a model directly from a checkpoint buffer: fresh topology for
    /// `config`, every parameter restored strictly from `buf`. This is the
    /// registry's fork-from-weights surface — one call takes a CRC-verified
    /// PLTW buffer to a servable model, with every failure (corrupt buffer,
    /// wrong-architecture shapes, missing entries) surfacing as a typed
    /// [`WeightError`] instead of a half-initialised model.
    ///
    /// The Kaiming init the constructor runs is immediately overwritten, so
    /// the seed is fixed; strict mode guarantees no initialised value
    /// survives into the returned model.
    pub fn from_weights(config: YoloConfig, buf: &[u8]) -> Result<Yolov4, WeightError> {
        let model = Yolov4::new(config, 0);
        model.load(buf, LoadMode::Strict)?;
        Ok(model)
    }

    /// Trace the whole network onto a backend, producing raw head logits
    /// `[stride8, stride16, stride32]`. This is the **single definition** of
    /// the YOLOv4 topology: the eager tape ([`Graph`]) and the inference
    /// planner ([`Planner`]) both replay it.
    ///
    /// The traced input must be `[3, s, s]` per item with
    /// `s == config.input_size`.
    pub fn trace<B: Trace>(&self, b: &mut B, x: B::Value, mode: Mode) -> [B::Value; 3] {
        let shape = b.item_shape(x);
        assert_eq!(shape[0], 3, "expected RGB input, got {shape:?}");
        assert_eq!(
            shape[1],
            self.config.input_size,
            "input size {shape:?} does not match config {}",
            self.config.input_size
        );
        let f = self.backbone.trace(b, x, mode);
        let n = self.neck.trace(b, &f, mode);
        self.heads.trace(b, &n, mode)
    }

    /// Eager forward to raw head logits (thin wrapper over
    /// [`Yolov4::trace`] for the training loop).
    ///
    /// `x` must be `[n, 3, s, s]` with `s == config.input_size`.
    pub fn forward(&self, g: &mut Graph, x: Var, training: bool) -> [Var; 3] {
        self.trace(g, x, Mode::from_training(training))
    }

    /// Convenience: run inference on a CHW image tensor batch, returning the
    /// three raw head tensors.
    ///
    /// This is the *eager* path — it builds a fresh tape every call and is
    /// kept as the reference implementation. Hot loops should use
    /// [`Yolov4::compile_inference`] instead.
    pub fn infer(&self, x: &Tensor) -> [Tensor; 3] {
        let mut g = Graph::inference();
        let xv = g.leaf(x.clone());
        let out = self.forward(&mut g, xv, false);
        [g.value(out[0]).clone(), g.value(out[1]).clone(), g.value(out[2]).clone()]
    }

    /// Compile the network into a tape-free [`CompiledModel`]: batch norms
    /// fold into conv weights, activations fuse into conv output loops, and
    /// all intermediates run in a statically planned arena reused across
    /// calls. Weights are snapshotted at compile time — recompile after
    /// training steps or checkpoint loads.
    pub fn compile_inference(&self) -> CompiledModel {
        let mut p = Planner::new();
        let s = self.config.input_size;
        let x = p.input(&[3, s, s]);
        let heads = self.trace(&mut p, x, Mode::Infer);
        CompiledModel { exec: Executor::new(p.finish(&heads)), input_size: s }
    }

    /// All parameters (backbone + neck + heads).
    pub fn parameters(&self) -> Vec<Param> {
        let mut p = self.backbone.parameters();
        p.extend(self.neck.parameters());
        p.extend(self.heads.parameters());
        p
    }

    /// Backbone parameters only (the transfer-learning subset).
    pub fn backbone_parameters(&self) -> Vec<Param> {
        self.backbone.parameters()
    }

    /// Freeze or unfreeze the backbone. Frozen parameters receive no
    /// gradients and are skipped by optimizers — darknet's
    /// `stopbackward`-style fine-tuning of only the neck/heads.
    pub fn set_backbone_frozen(&self, frozen: bool) {
        for p in self.backbone_parameters() {
            // Keep BN running stats permanently frozen-flagged.
            if !p.name().contains("running_") {
                p.set_frozen(frozen);
            }
        }
    }

    /// Serialise every parameter to a checkpoint buffer.
    pub fn save(&self) -> platter_tensor::serialize::Bytes {
        save_params(&self.parameters())
    }

    /// Restore parameters from a checkpoint buffer.
    pub fn load(&self, buf: &[u8], mode: LoadMode) -> Result<LoadReport, WeightError> {
        load_params(&self.parameters(), buf, mode)
    }

    /// Total parameter count.
    pub fn num_parameters(&self) -> usize {
        self.parameters().iter().map(|p| p.numel()).sum()
    }
}

/// A planned, tape-free YOLOv4 inference engine (see
/// [`Yolov4::compile_inference`]). Holds the op plan plus a persistent
/// arena; after the first call at a given batch size, [`CompiledModel::run`]
/// allocates nothing.
///
/// The plan and its folded weights live behind an `Arc`, so
/// [`CompiledModel::fork_worker`] hands a serving pool N independent engines
/// that share one copy of the parameters — unlike the tape-bound [`Yolov4`]
/// itself, a `CompiledModel` is `Send` and crosses thread boundaries.
pub struct CompiledModel {
    exec: Executor,
    input_size: usize,
}

impl CompiledModel {
    /// A sibling engine sharing this one's plan and weights, with a fresh
    /// private arena. This is the unit of data-parallel serving: compile
    /// once, fork per worker; outputs are bit-identical to the parent's.
    pub fn fork_worker(&self) -> CompiledModel {
        CompiledModel { exec: self.exec.fork(), input_size: self.input_size }
    }

    /// The shared parameter store. The `Arc`'s strong count counts plans,
    /// not workers (forks share the plan); it is the handle leak-checks and
    /// memory accounting key on.
    pub fn shared_weights(&self) -> std::sync::Arc<platter_tensor::PlanWeights> {
        self.exec.plan().weights().clone()
    }

    /// Identity of the folded parameters this engine serves from (see
    /// [`platter_tensor::PlanWeights::fingerprint`]). Two engines with equal
    /// fingerprints answer bit-identically; the serving registry uses this
    /// to tag model versions and to verify which weights a pool is actually
    /// running after a hot-swap.
    pub fn weights_fingerprint(&self) -> u64 {
        self.exec.plan().weights().fingerprint()
    }
    /// Raw head logits `[stride8, stride16, stride32]` for an
    /// `[n, 3, s, s]` input batch. The returned slice (always length 3)
    /// aliases executor-owned tensors and is overwritten by the next call.
    pub fn run(&mut self, x: &Tensor) -> &[Tensor] {
        assert_eq!(x.shape().len(), 4, "expected [n,3,s,s] input, got {:?}", x.shape());
        assert_eq!(x.shape()[1], 3, "expected RGB input, got {:?}", x.shape());
        assert_eq!(
            x.shape()[2],
            self.input_size,
            "input size {:?} does not match compiled size {}",
            x.shape(),
            self.input_size
        );
        self.exec.run(&[x])
    }

    /// Like [`CompiledModel::run`], but a malformed batch (wrong rank,
    /// channels, or spatial size) surfaces as a typed [`ExecError`] instead
    /// of a panic — the entry point serving paths should use.
    pub fn try_run(&mut self, x: &Tensor) -> Result<&[Tensor], ExecError> {
        self.exec.try_run(&[x])
    }

    /// Like [`CompiledModel::run`], but reports per-op wall time, call
    /// count, and bytes touched to `profiler`
    /// ([`platter_obs::ProfileReport`] is the standard sink). Outputs are
    /// bit-identical to `run`.
    pub fn run_profiled(&mut self, x: &Tensor, profiler: &mut dyn platter_obs::Profiler) -> &[Tensor] {
        self.exec.run_profiled(&[x], profiler)
    }

    /// The underlying plan (op/slot introspection).
    pub fn plan(&self) -> &Plan {
        self.exec.plan()
    }

    /// Bytes currently held by the activation arena.
    pub fn arena_bytes(&self) -> usize {
        self.exec.arena_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_conv_flops_are_two_per_multiply_add_and_scale_with_batch() {
        let engine = Yolov4::new(YoloConfig::micro(10), 7).compile_inference();
        let plan = engine.plan();
        let mut profile = platter_obs::ProfileReport::new();
        let mut engine = engine.fork_worker();
        let _ = engine.run_profiled(&Tensor::zeros(&[1, 3, 64, 64]), &mut profile);
        let convs: Vec<usize> = plan
            .op_kinds()
            .iter()
            .enumerate()
            .filter(|(_, k)| k.starts_with("conv"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(convs.len(), 74);
        // At batch 1 every conv GEMM is one item wide, so n = hw.
        let two_mkhw: u64 = convs
            .iter()
            .map(|&i| {
                let g = profile.steps()[i].gemm.expect("conv step has a GEMM shape");
                2 * (g.m * g.k * g.n) as u64
            })
            .sum();
        let flops: u64 = convs.iter().map(|&i| plan.op_flops(i, 1)).sum();
        assert_eq!(flops, two_mkhw);
        assert_eq!(flops, 63_625_216, "≈ 0.064 GFLOP per 64 px image");
        for n in [2usize, 8] {
            assert_eq!(convs.iter().map(|&i| plan.op_flops(i, n)).sum::<u64>(), flops * n as u64);
        }
    }

    #[test]
    fn forward_shapes_for_micro() {
        let model = Yolov4::new(YoloConfig::micro(10), 7);
        let out = model.infer(&Tensor::zeros(&[1, 3, 64, 64]));
        assert_eq!(out[0].shape(), &[1, 45, 8, 8]);
        assert_eq!(out[1].shape(), &[1, 45, 4, 4]);
        assert_eq!(out[2].shape(), &[1, 45, 2, 2]);
    }

    #[test]
    fn checkpoint_round_trip_reproduces_outputs() {
        let a = Yolov4::new(YoloConfig::micro(5), 1);
        let b = Yolov4::new(YoloConfig::micro(5), 2);
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(&[1, 3, 64, 64], &mut rng);
        let before = a.infer(&x);
        let buf = a.save();
        b.load(&buf, LoadMode::Strict).unwrap();
        let after = b.infer(&x);
        for (ta, tb) in before.iter().zip(&after) {
            for (va, vb) in ta.as_slice().iter().zip(tb.as_slice()) {
                assert!((va - vb).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn freeze_unfreeze_toggles_all_backbone_weights() {
        let model = Yolov4::new(YoloConfig::micro(3), 4);
        model.set_backbone_frozen(true);
        for p in model.backbone_parameters() {
            assert!(p.is_frozen(), "{}", p.name());
        }
        // Heads stay trainable.
        assert!(model.parameters().iter().any(|p| !p.is_frozen()));
        model.set_backbone_frozen(false);
        for p in model.backbone_parameters() {
            if p.name().contains("running_") {
                assert!(p.is_frozen(), "BN stats must stay frozen: {}", p.name());
            } else {
                assert!(!p.is_frozen(), "{}", p.name());
            }
        }
    }

    #[test]
    fn from_weights_reproduces_the_checkpointed_model() {
        let src = Yolov4::new(YoloConfig::micro(5), 9);
        let buf = src.save();
        let dst = Yolov4::from_weights(YoloConfig::micro(5), &buf).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::randn(&[1, 3, 64, 64], &mut rng);
        let a = src.infer(&x);
        let b = dst.infer(&x);
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta.as_slice(), tb.as_slice(), "restored model must match bit-for-bit");
        }
        assert_eq!(
            src.compile_inference().weights_fingerprint(),
            dst.compile_inference().weights_fingerprint(),
            "same parameters fold to the same plan-weights identity"
        );
    }

    #[test]
    fn from_weights_rejects_wrong_architecture() {
        let src = Yolov4::new(YoloConfig::micro(5), 9);
        let buf = src.save();
        // Different class count changes head shapes: strict load must fail.
        match Yolov4::from_weights(YoloConfig::micro(7), &buf) {
            Err(WeightError::Incompatible(_)) => {}
            other => panic!("expected Incompatible, got {:?}", other.map(|_| "model")),
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Yolov4::new(YoloConfig::micro(3), 1);
        let b = Yolov4::new(YoloConfig::micro(3), 2);
        let wa = a.parameters()[0].value();
        let wb = b.parameters()[0].value();
        assert_ne!(wa.as_slice(), wb.as_slice());
    }

    #[test]
    #[should_panic(expected = "does not match config")]
    fn rejects_wrong_input_size() {
        let model = Yolov4::new(YoloConfig::micro(3), 1);
        model.infer(&Tensor::zeros(&[1, 3, 32, 32]));
    }
}
