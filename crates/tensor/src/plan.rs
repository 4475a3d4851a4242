//! Planned inference execution: an op-IR with static memory planning.
//!
//! The autograd [`crate::Graph`] is a tape: every forward op allocates its
//! output (and, for convolution, an im2col scratch buffer) and clones input
//! tensors into backward closures. That is the right shape for training and
//! the wrong shape for serving — inference pays autograd bookkeeping and a
//! heap allocation per layer per image.
//!
//! This module splits inference off the tape. A [`Planner`] records the
//! network once as a small op-IR (`PlanOp`) with eager shape inference,
//! folding each batch-norm into the preceding convolution's weights and
//! fusing trailing activations into the producing op as it builds. The
//! finished [`Plan`] assigns every intermediate to a slot in a reusable
//! arena via liveness analysis — a buffer is recycled at its last use, so
//! peak memory is roughly the widest pair of live activations instead of
//! the sum of all layers. An [`Executor`] then runs the plan into those
//! pre-allocated buffers with a bias+activation-fused GEMM epilogue
//! ([`crate::gemm::gemm_fused`]) and a persistent im2col scratch: after
//! the first call at a given batch size, the steady-state hot path performs
//! no heap allocation at all. Convolutions with small outputs fold several
//! batch items into one GEMM, as many as that scratch holds (the fold
//! group, fixed when the plan is assembled), and the GEMM epilogue writes
//! each item's plane straight into the NCHW output — activations stay
//! NCHW throughout, so the fold needs no layout ops.
//!
//! Ownership is split for data-parallel serving: all parameters live in a
//! write-once [`PlanWeights`] frozen by [`Planner::finish`] and shared via
//! `Arc`, while each [`Executor`] owns only mutable scratch. A serving pool
//! calls [`Executor::fork`] once per worker — N workers, one copy of the
//! weights, bit-identical outputs (see [`crate::weights`]).
//!
//! Layers do not target the planner directly: they describe their topology
//! once via [`crate::Trace`], and `Planner` is simply the backend that
//! records the trace into the IR (the other backend, [`crate::Graph`], runs
//! it eagerly on the tape).
//!
//! ```
//! use platter_tensor::nn::{Activation, ConvBlock};
//! use platter_tensor::ops::Conv2dSpec;
//! use platter_tensor::plan::{Executor, Planner};
//! use platter_tensor::{Mode, Tensor};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let block = ConvBlock::new("stem", 3, 8, 3, Conv2dSpec::same(3), Activation::Mish, &mut rng);
//! let mut p = Planner::new();
//! let x = p.input(&[3, 16, 16]);
//! let y = block.trace(&mut p, x, Mode::Infer); // conv+BN+Mish fused into one PlanOp
//! let mut exec = Executor::new(p.finish(&[y]));
//! let out = exec.run(&[&Tensor::zeros(&[2, 3, 16, 16])]);
//! assert_eq!(out[0].shape(), &[2, 8, 16, 16]);
//! ```

use std::sync::Arc;

use platter_obs::{GemmShape, OpCost, Profiler};

use crate::gemm::BiasAct;
use crate::nn::Activation;
use crate::ops::conv::{fold_conv, ConvGeom};
use crate::ops::Conv2dSpec;
use crate::tensor::Tensor;
use crate::weights::{PlanWeights, WeightId};

/// Handle to a planned value. Cheap to copy; only meaningful for the
/// [`Planner`] (and resulting [`Plan`]) that created it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValueId(pub(crate) usize);

/// One node of the inference IR. Each op produces exactly one value, so a
/// value id doubles as the index of its producing op. Parameter buffers are
/// referenced by [`WeightId`] into the plan's shared [`PlanWeights`] — the
/// IR itself owns no parameter data.
enum PlanOp {
    /// External input `index` of the executed plan.
    Input { index: usize },
    /// Convolution with optional folded scale/bias and fused activation.
    /// `weight` is `[cout, cin·kh·kw]` row-major; `bias` always has `cout`
    /// entries (zeros when the layer is unbiased). A linear layer is a 1×1
    /// conv over a `[d_in]` value, read as `[d_in, 1, 1]`.
    Conv2d {
        x: ValueId,
        weight: WeightId,
        bias: WeightId,
        cout: usize,
        cin: usize,
        kh: usize,
        kw: usize,
        spec: Conv2dSpec,
        act: Activation,
    },
    /// Per-channel affine `y = x·scale[c] + shift[c]` — inference batch norm
    /// that could not be folded into a preceding conv.
    ScaleBias { x: ValueId, scale: WeightId, shift: WeightId, act: Activation },
    /// Standalone activation (when fusion into the producer wasn't legal).
    Activation { x: ValueId, act: Activation },
    /// Max pooling over `k`×`k` windows.
    MaxPool { x: ValueId, k: usize, stride: usize, pad: usize },
    /// Nearest-neighbour upsampling by an integer factor.
    Upsample { x: ValueId, factor: usize },
    /// Channel concatenation (axis 1 of the NCHW batch).
    Concat { xs: Vec<ValueId> },
    /// Elementwise sum of two same-shape values (residual connections).
    Add { a: ValueId, b: ValueId },
}

impl PlanOp {
    /// Input values of this op, for liveness analysis.
    fn inputs(&self) -> Vec<ValueId> {
        match self {
            PlanOp::Input { .. } => Vec::new(),
            PlanOp::Conv2d { x, .. }
            | PlanOp::ScaleBias { x, .. }
            | PlanOp::Activation { x, .. }
            | PlanOp::MaxPool { x, .. }
            | PlanOp::Upsample { x, .. } => vec![*x],
            PlanOp::Concat { xs } => xs.clone(),
            PlanOp::Add { a, b } => vec![*a, *b],
        }
    }
}

impl ConvGeom {
    /// Geometry of op `i`, or `None` when it is not a convolution. A 1-D
    /// per-item input `[d]` (a linear layer) reads as `[d, 1, 1]`.
    fn of(ops: &[PlanOp], shapes: &[Vec<usize>], i: usize) -> Option<ConvGeom> {
        let (x, cout, cin, kh, kw, spec) = match &ops[i] {
            PlanOp::Conv2d { x, cout, cin, kh, kw, spec, .. } => (*x, *cout, *cin, *kh, *kw, *spec),
            _ => return None,
        };
        let (h, w) = match shapes[x.0][..] {
            [_, h, w] => (h, w),
            _ => (1, 1),
        };
        Some(ConvGeom::new(cin, (h, w), cout, (kh, kw), spec))
    }
}

/// Builds a [`Plan`] op by op, with eager shape inference and two build-time
/// peephole fusions:
///
/// - [`Planner::scale_bias`] after a linear-activation conv with no other
///   consumer folds into the conv's weights and bias (BN folding);
/// - [`Planner::activation`] after a linear-activation conv or scale-bias
///   with no other consumer becomes that op's fused activation.
///
/// Shapes are tracked **per batch item** (without the leading `n`): every op
/// in the IR is batch-separable, so one plan serves any batch size.
pub struct Planner {
    ops: Vec<PlanOp>,
    /// Per-item output shape of each value.
    shapes: Vec<Vec<usize>>,
    /// How many ops consume each value so far (fusion legality).
    consumers: Vec<usize>,
    /// Staging parameter buffers, indexed by [`WeightId`]. Mutable only
    /// during the build (BN folding rewrites conv entries in place);
    /// [`Planner::finish`] freezes them into an immutable [`PlanWeights`].
    wbufs: Vec<Vec<f32>>,
    num_inputs: usize,
}

impl Planner {
    /// An empty planner.
    pub fn new() -> Planner {
        Planner { ops: Vec::new(), shapes: Vec::new(), consumers: Vec::new(), wbufs: Vec::new(), num_inputs: 0 }
    }

    /// Stage a parameter buffer and hand back its handle.
    fn alloc_weight(&mut self, data: Vec<f32>) -> WeightId {
        self.wbufs.push(data);
        WeightId(self.wbufs.len() - 1)
    }

    /// Per-item shape of `v`.
    pub fn shape(&self, v: ValueId) -> &[usize] {
        &self.shapes[v.0]
    }

    fn push(&mut self, op: PlanOp, shape: Vec<usize>) -> ValueId {
        for v in op.inputs() {
            self.consumers[v.0] += 1;
        }
        let id = ValueId(self.ops.len());
        self.ops.push(op);
        self.shapes.push(shape);
        self.consumers.push(0);
        id
    }

    /// Declare an external input with per-item shape `item_shape` (e.g.
    /// `[3, 64, 64]` for an NCHW image batch).
    pub fn input(&mut self, item_shape: &[usize]) -> ValueId {
        let index = self.num_inputs;
        self.num_inputs += 1;
        self.push(PlanOp::Input { index }, item_shape.to_vec())
    }

    /// Convolution of a `[c,h,w]`-shaped value by `weight: [cout,cin,kh,kw]`
    /// with an optional bias of `cout` elements (any shape).
    pub fn conv2d(&mut self, x: ValueId, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> ValueId {
        let xs = self.shape(x);
        assert_eq!(xs.len(), 3, "conv2d input must be [c,h,w] per item, got {xs:?}");
        let (cin, h, w) = (xs[0], xs[1], xs[2]);
        let ws = weight.shape();
        assert_eq!(ws.len(), 4, "conv2d weight must be [cout,cin,kh,kw], got {ws:?}");
        let (cout, cin_w, kh, kw) = (ws[0], ws[1], ws[2], ws[3]);
        assert_eq!(cin, cin_w, "conv2d channel mismatch: input {cin} vs weight {cin_w}");
        let hout = spec.out_dim(h, kh);
        let wout = spec.out_dim(w, kw);
        assert!(hout > 0 && wout > 0, "conv2d output collapsed: {h}x{w} k={kh}x{kw} {spec:?}");
        self.push_conv(x, weight, bias, (cout, cin, kh, kw), spec, vec![cout, hout, wout])
    }

    /// Record a convolution op whose weight is `cout` rows of `cin·kh·kw`
    /// and whose output has per-item shape `shape`.
    fn push_conv(
        &mut self,
        x: ValueId,
        weight: &Tensor,
        bias: Option<&Tensor>,
        (cout, cin, kh, kw): (usize, usize, usize, usize),
        spec: Conv2dSpec,
        shape: Vec<usize>,
    ) -> ValueId {
        let bias = match bias {
            Some(b) => {
                assert_eq!(b.numel(), cout, "bias must have {cout} elements, got {:?}", b.shape());
                b.as_slice().to_vec()
            }
            None => vec![0.0; cout],
        };
        let weight = self.alloc_weight(weight.as_slice().to_vec());
        let bias = self.alloc_weight(bias);
        self.push(PlanOp::Conv2d { x, weight, bias, cout, cin, kh, kw, spec, act: Activation::Linear }, shape)
    }

    /// Per-channel affine (inference batch norm): `scale` and `shift` must
    /// each have as many elements as `x` has channels. Folds into the
    /// producing conv when it has no other consumer and no activation yet.
    pub fn scale_bias(&mut self, x: ValueId, scale: &[f32], shift: &[f32]) -> ValueId {
        let c = self.shape(x)[0];
        assert_eq!(scale.len(), c, "scale_bias expects {c} scales, got {}", scale.len());
        assert_eq!(shift.len(), c, "scale_bias expects {c} shifts, got {}", shift.len());
        if self.consumers[x.0] == 0 {
            if let PlanOp::Conv2d { weight, bias, cout, act: Activation::Linear, .. } = &self.ops[x.0] {
                // Fold: w'[o,·] = w[o,·]·s[o], b'[o] = b[o]·s[o] + t[o].
                // The rewrite targets the *staging* buffers — handles are
                // copied out first so the op table borrow ends before the
                // buffer borrow starts. Legal only pre-freeze.
                let (wid, bid, cout) = (*weight, *bias, *cout);
                let w = &mut self.wbufs[wid.0];
                let row = w.len() / cout;
                for o in 0..cout {
                    for v in &mut w[o * row..(o + 1) * row] {
                        *v *= scale[o];
                    }
                }
                let b = &mut self.wbufs[bid.0];
                for o in 0..cout {
                    b[o] = b[o] * scale[o] + shift[o];
                }
                return x;
            }
        }
        let scale = self.alloc_weight(scale.to_vec());
        let shift = self.alloc_weight(shift.to_vec());
        self.push(
            PlanOp::ScaleBias { x, scale, shift, act: Activation::Linear },
            self.shape(x).to_vec(),
        )
    }

    /// Apply `act` to `x`. Fuses into the producing conv or scale-bias when
    /// that op has no other consumer and no activation yet.
    pub fn activation(&mut self, x: ValueId, act: Activation) -> ValueId {
        if act == Activation::Linear {
            return x;
        }
        if self.consumers[x.0] == 0 {
            match &mut self.ops[x.0] {
                PlanOp::Conv2d { act: slot @ Activation::Linear, .. }
                | PlanOp::ScaleBias { act: slot @ Activation::Linear, .. } => {
                    *slot = act;
                    return x;
                }
                _ => {}
            }
        }
        self.push(PlanOp::Activation { x, act }, self.shape(x).to_vec())
    }

    /// Max pooling over `k`×`k` windows (padded cells never win, matching
    /// [`crate::Graph::maxpool2d`]).
    pub fn maxpool2d(&mut self, x: ValueId, k: usize, stride: usize, pad: usize) -> ValueId {
        let xs = self.shape(x);
        assert_eq!(xs.len(), 3, "maxpool2d input must be [c,h,w], got {xs:?}");
        let (c, h, w) = (xs[0], xs[1], xs[2]);
        let hout = (h + 2 * pad).saturating_sub(k) / stride + 1;
        let wout = (w + 2 * pad).saturating_sub(k) / stride + 1;
        assert!(hout > 0 && wout > 0, "maxpool2d output collapsed: {h}x{w} k={k} s={stride} p={pad}");
        self.push(PlanOp::MaxPool { x, k, stride, pad }, vec![c, hout, wout])
    }

    /// Nearest-neighbour upsampling by `factor`.
    pub fn upsample_nearest(&mut self, x: ValueId, factor: usize) -> ValueId {
        assert!(factor >= 1, "upsample factor must be >= 1");
        let xs = self.shape(x);
        assert_eq!(xs.len(), 3, "upsample input must be [c,h,w], got {xs:?}");
        self.push(PlanOp::Upsample { x, factor }, vec![xs[0], xs[1] * factor, xs[2] * factor])
    }

    /// Channel concatenation; all inputs must agree on H and W.
    pub fn concat_channels(&mut self, xs: &[ValueId]) -> ValueId {
        assert!(!xs.is_empty(), "concat of zero values");
        if xs.len() == 1 {
            return xs[0];
        }
        let first = self.shape(xs[0]).to_vec();
        let mut c = 0usize;
        for &v in xs {
            let s = self.shape(v);
            assert_eq!(s.len(), 3, "concat input must be [c,h,w], got {s:?}");
            assert_eq!(&s[1..], &first[1..], "concat spatial mismatch: {s:?} vs {first:?}");
            c += s[0];
        }
        self.push(PlanOp::Concat { xs: xs.to_vec() }, vec![c, first[1], first[2]])
    }

    /// Elementwise sum of two same-shape values.
    pub fn add(&mut self, a: ValueId, b: ValueId) -> ValueId {
        assert_eq!(self.shape(a), self.shape(b), "add shape mismatch");
        let shape = self.shape(a).to_vec();
        self.push(PlanOp::Add { a, b }, shape)
    }

    /// Affine layer over a `[d_in]`-per-item value: `w: [d_out, d_in]`,
    /// optional bias of `d_out` elements. Recorded as a 1×1 conv over a
    /// 1×1 map: `w` already is that conv's `[cout, cin]` weight matrix.
    pub fn linear(&mut self, x: ValueId, weight: &Tensor, bias: Option<&Tensor>) -> ValueId {
        let xs = self.shape(x);
        assert_eq!(xs.len(), 1, "linear input must be [d] per item, got {xs:?}");
        let d_in = xs[0];
        let ws = weight.shape();
        assert_eq!(ws.len(), 2, "linear weight must be [d_out, d_in], got {ws:?}");
        assert_eq!(ws[1], d_in, "linear dim mismatch: input {d_in} vs weight {ws:?}");
        let d_out = ws[0];
        self.push_conv(x, weight, bias, (d_out, d_in, 1, 1), Conv2dSpec { stride: 1, pad: 0 }, vec![d_out])
    }

    /// Finalise: liveness analysis + static slot assignment (see
    /// `assemble`).
    pub fn finish(self, outputs: &[ValueId]) -> Plan {
        assemble(self.ops, self.shapes, self.wbufs, self.num_inputs, outputs)
    }
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new()
    }
}

/// Turn a recorded op list into a finalised [`Plan`]: liveness analysis +
/// static slot assignment + the weight freeze.
///
/// Walks the ops in execution order keeping a free-list of retired slots.
/// Each op's output takes the best-fitting free slot (smallest capacity
/// that holds it, else the largest, grown to fit) *before* the op's inputs
/// are retired, so an output buffer can never alias a same-op input.
/// Values listed in `outputs` are live forever and never recycled.
fn assemble(
    ops: Vec<PlanOp>,
    shapes: Vec<Vec<usize>>,
    wbufs: Vec<Vec<f32>>,
    num_inputs: usize,
    outputs: &[ValueId],
) -> Plan {
    let n = ops.len();
    let mut last_use: Vec<usize> = (0..n).collect();
    for (i, op) in ops.iter().enumerate() {
        for v in op.inputs() {
            last_use[v.0] = i;
        }
    }
    for &v in outputs {
        last_use[v.0] = usize::MAX;
    }
    // dying[i] = values whose final consumer is op i.
    let mut dying: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (v, &lu) in last_use.iter().enumerate() {
        if lu != usize::MAX {
            dying[lu].push(v);
        }
    }

    let item_numel: Vec<usize> = shapes.iter().map(|s| s.iter().product()).collect();
    let mut slot_of = vec![usize::MAX; n];
    let mut slot_caps: Vec<usize> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    for i in 0..n {
        let need = item_numel[i];
        // Best fit: tightest free slot that holds it; otherwise the
        // largest free slot, grown; otherwise a fresh slot.
        let pick = free
            .iter()
            .enumerate()
            .filter(|(_, &s)| slot_caps[s] >= need)
            .min_by_key(|(_, &s)| slot_caps[s])
            .map(|(j, _)| j)
            .or_else(|| free.iter().enumerate().max_by_key(|(_, &s)| slot_caps[s]).map(|(j, _)| j));
        let slot = match pick {
            Some(j) => free.swap_remove(j),
            None => {
                slot_caps.push(0);
                slot_caps.len() - 1
            }
        };
        slot_caps[slot] = slot_caps[slot].max(need);
        slot_of[i] = slot;
        free.extend(dying[i].iter().map(|&v| slot_of[v]));
    }

    // Persistent im2col scratch: the widest column matrix of any conv
    // that cannot take the pointwise fast path. Batch folding then
    // packs as many items per GEMM as that scratch holds.
    let geoms: Vec<Option<ConvGeom>> = (0..n).map(|i| ConvGeom::of(&ops, &shapes, i)).collect();
    let col_len = geoms.iter().flatten().map(ConvGeom::col_elems).max().unwrap_or(0);
    let fold = geoms.iter().map(|g| g.map_or(1, |g| g.fold_group(col_len))).collect();

    Plan {
        ops,
        shapes,
        item_numel,
        slot_of,
        slot_caps,
        last_use,
        outputs: outputs.to_vec(),
        col_len,
        fold,
        num_inputs,
        weights: Arc::new(PlanWeights::freeze(wbufs)),
    }
}

/// Liveness record of one planned value, for planner verification.
#[derive(Clone, Copy, Debug)]
pub struct SlotInfo {
    /// The value (also the index of its producing op).
    pub value: usize,
    /// The arena slot it was assigned.
    pub slot: usize,
    /// Op index at which the value is defined.
    pub def: usize,
    /// Op index of the value's final consumer (`usize::MAX` for outputs).
    pub last_use: usize,
}

/// A finalised inference program: ops, per-item shapes, the static arena
/// layout, and the frozen parameter store. Build with [`Planner::finish`];
/// run with an [`Executor`]. A `Plan` is immutable and `Send + Sync`, so one
/// `Arc<Plan>` backs any number of concurrent executors — the parameters
/// ([`PlanWeights`]) exist once per compile, not once per worker.
pub struct Plan {
    ops: Vec<PlanOp>,
    shapes: Vec<Vec<usize>>,
    item_numel: Vec<usize>,
    slot_of: Vec<usize>,
    slot_caps: Vec<usize>,
    last_use: Vec<usize>,
    outputs: Vec<ValueId>,
    col_len: usize,
    /// Per op: most batch items one conv GEMM covers (1 for other ops).
    fold: Vec<usize>,
    num_inputs: usize,
    /// Frozen parameters, shared by every executor forked off this plan.
    weights: Arc<PlanWeights>,
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("num_values", &self.ops.len())
            .field("num_slots", &self.slot_caps.len())
            .field("op_kinds", &self.op_kinds())
            .finish_non_exhaustive()
    }
}

impl Plan {
    /// Number of ops (= values) in the plan.
    pub fn num_values(&self) -> usize {
        self.ops.len()
    }

    /// Number of arena slots after liveness-based recycling.
    pub fn num_slots(&self) -> usize {
        self.slot_caps.len()
    }

    /// Arena elements per batch item (activation slots + im2col scratch).
    pub fn per_item_arena_elems(&self) -> usize {
        self.slot_caps.iter().sum::<usize>() + self.col_len
    }

    /// Elements of the im2col scratch. Fixed at plan build and independent
    /// of the batch size: batch folding packs items into this scratch, it
    /// never grows it.
    pub fn col_len(&self) -> usize {
        self.col_len
    }

    /// The frozen parameter store this plan's ops index into. Cloning the
    /// `Arc` is how callers observe sharing (e.g. leak checks on worker-pool
    /// drain assert the strong count returns to baseline).
    pub fn weights(&self) -> &Arc<PlanWeights> {
        &self.weights
    }

    /// Liveness + slot assignment of every value, for verification.
    pub fn slot_map(&self) -> Vec<SlotInfo> {
        (0..self.ops.len())
            .map(|v| SlotInfo {
                value: v,
                slot: self.slot_of[v],
                def: v,
                last_use: self.last_use[v],
            })
            .collect()
    }

    /// Per-item shapes of the declared outputs.
    pub fn output_shapes(&self) -> Vec<&[usize]> {
        self.outputs.iter().map(|&v| self.shapes[v.0].as_slice()).collect()
    }

    /// Structural signature of every op, in execution order, for golden-plan
    /// tests: the op kind plus the fusion state that matters (fused
    /// activation, pool geometry, concat arity). A lost conv+BN fold shows up
    /// as an extra `scale_bias`, a lost activation fusion as `Linear` turning
    /// into an explicit `act[..]` op.
    pub fn op_kinds(&self) -> Vec<String> {
        self.ops
            .iter()
            .map(|op| match op {
                PlanOp::Input { .. } => "input".to_string(),
                PlanOp::Conv2d { act, .. } => format!("conv2d[{act:?}]"),
                PlanOp::ScaleBias { act, .. } => format!("scale_bias[{act:?}]"),
                PlanOp::Activation { act, .. } => format!("act[{act:?}]"),
                PlanOp::MaxPool { k, stride, .. } => format!("maxpool{k}s{stride}"),
                PlanOp::Upsample { factor, .. } => format!("upsample{factor}"),
                PlanOp::Concat { xs } => format!("concat{}", xs.len()),
                PlanOp::Add { .. } => "add".to_string(),
            })
            .collect()
    }

    /// Bytes op `i` touches at batch size `n`: its output, every input
    /// value, and any baked-in parameters (weights, biases, scale/shift).
    /// This is the profiler's "bytes" column — a traffic estimate assuming
    /// each buffer is read or written once, not a cache-level measurement.
    fn op_io_bytes(&self, i: usize, n: usize) -> u64 {
        let op = &self.ops[i];
        let f32_bytes = std::mem::size_of::<f32>();
        let mut bytes = self.item_numel[i] * n * f32_bytes;
        for v in op.inputs() {
            bytes += self.item_numel[v.0] * n * f32_bytes;
        }
        bytes += match op {
            PlanOp::Conv2d { weight, bias, .. } => {
                self.weights.bytes_of(*weight) + self.weights.bytes_of(*bias)
            }
            PlanOp::ScaleBias { scale, shift, .. } => {
                self.weights.bytes_of(*scale) + self.weights.bytes_of(*shift)
            }
            _ => 0,
        };
        bytes as u64
    }

    /// Arithmetic operations op `i` performs at batch size `n`, counting a
    /// multiply-add as two: `2·m·k·hw` per item for a convolution (the
    /// epilogue is not counted; a linear layer is one with `hw = 1`); one
    /// per element for elementwise arithmetic (two for scale-bias, `k²`
    /// comparisons for a `k`×`k` max pool); zero for pure data movement
    /// (input, concat, upsample).
    pub fn op_flops(&self, i: usize, n: usize) -> u64 {
        let numel = self.item_numel[i];
        let per_item = match &self.ops[i] {
            PlanOp::Conv2d { .. } => {
                let g = ConvGeom::of(&self.ops, &self.shapes, i).expect("conv op has a conv geometry");
                2 * g.m * g.k * g.hw
            }
            PlanOp::ScaleBias { .. } => 2 * numel,
            PlanOp::Activation { .. } | PlanOp::Add { .. } => numel,
            PlanOp::MaxPool { k, .. } => k * k * numel,
            PlanOp::Input { .. } | PlanOp::Upsample { .. } | PlanOp::Concat { .. } => 0,
        };
        (per_item * n) as u64
    }

    /// What the profiler learns about op `i` at batch size `n`: bytes,
    /// FLOPs, and for a convolution the widest GEMM it runs.
    fn op_cost(&self, i: usize, n: usize) -> OpCost {
        let gemm = ConvGeom::of(&self.ops, &self.shapes, i).map(|g| {
            let items = self.fold[i].min(n);
            GemmShape { m: g.m, k: g.k, n: items * g.hw, fold: self.fold[i] }
        });
        OpCost { bytes: self.op_io_bytes(i, n), flops: self.op_flops(i, n), gemm }
    }
}

/// A malformed input batch, reported by [`Executor::try_run`] before any op
/// executes (the arena is never left half-written).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The number of input tensors does not match the plan.
    WrongInputCount {
        /// Tensors passed to `try_run`.
        got: usize,
        /// Inputs the plan was compiled with.
        want: usize,
    },
    /// Inputs disagree on the leading batch dimension.
    BatchMismatch {
        /// The batch size of each input, in order.
        got: Vec<usize>,
    },
    /// An input's per-item shape does not match the compiled plan.
    ShapeMismatch {
        /// Which declared input is wrong.
        index: usize,
        /// Full shape of the offending tensor (batch dim included).
        got: Vec<usize>,
        /// Per-item shape the plan was compiled for.
        want: Vec<usize>,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::WrongInputCount { got, want } => {
                write!(f, "plan expects {want} inputs, got {got}")
            }
            ExecError::BatchMismatch { got } => {
                write!(f, "inputs disagree on batch size: {got:?}")
            }
            ExecError::ShapeMismatch { index, got, want } => write!(
                f,
                "input {index} shape {got:?} does not match compiled per-item shape {want:?}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Per-worker mutable scratch of an [`Executor`]: the activation arena, the
/// im2col buffer, and output staging tensors. This is everything a forked
/// worker owns privately — the plan and its weights stay shared.
struct ExecutorState {
    slots: Vec<Vec<f32>>,
    col: Vec<f32>,
    outs: Vec<Tensor>,
    batch: usize,
    batch_cap: usize,
}

impl ExecutorState {
    fn empty(plan: &Plan) -> ExecutorState {
        ExecutorState {
            slots: vec![Vec::new(); plan.num_slots()],
            col: Vec::new(),
            outs: Vec::new(),
            batch: 0,
            batch_cap: 0,
        }
    }
}

/// Runs a [`Plan`] with a persistent arena. Buffers grow to the largest
/// batch size seen and are then reused for any batch up to that size, so a
/// serving loop dispatching variable-size batches reallocates nothing once
/// warm.
///
/// The plan (ops + [`PlanWeights`]) sits behind an `Arc`; the arena is
/// private. [`Executor::fork`] therefore yields an independent executor that
/// shares all parameters with its parent — the unit of data-parallel
/// serving: one compile, N workers, one copy of the weights.
pub struct Executor {
    plan: Arc<Plan>,
    state: ExecutorState,
}

impl Executor {
    /// Wrap a plan with an (initially empty) arena.
    pub fn new(plan: Plan) -> Executor {
        Executor::from_shared(Arc::new(plan))
    }

    /// An executor over an already-shared plan, with a fresh empty arena.
    pub fn from_shared(plan: Arc<Plan>) -> Executor {
        let state = ExecutorState::empty(&plan);
        Executor { plan, state }
    }

    /// A new executor sharing this one's plan and weights, with its own
    /// empty arena. O(num_slots) — no parameter data is copied, so forking
    /// a worker costs pointer bumps, not megabytes.
    pub fn fork(&self) -> Executor {
        Executor::from_shared(self.plan.clone())
    }

    /// The plan being executed.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The shared handle to the plan, for spawning sibling executors.
    pub fn shared_plan(&self) -> Arc<Plan> {
        self.plan.clone()
    }

    /// Bytes currently held by this executor's private arena (slots +
    /// im2col scratch). Shared weight bytes are [`Plan::weights`]' concern.
    pub fn arena_bytes(&self) -> usize {
        let elems = self.state.slots.iter().map(Vec::len).sum::<usize>() + self.state.col.len();
        elems * std::mem::size_of::<f32>()
    }

    fn ensure_batch(&mut self, n: usize) {
        if n > self.state.batch_cap {
            // Grow-only: every slot holds `cap` elements per item, so a
            // buffer sized for the largest batch serves any smaller one.
            for (slot, &cap) in self.state.slots.iter_mut().zip(&self.plan.slot_caps) {
                slot.resize(cap * n, 0.0);
            }
            self.state.col.resize(self.plan.col_len, 0.0);
            self.state.batch_cap = n;
        }
        if self.state.batch != n {
            self.state.outs = self
                .plan
                .outputs
                .iter()
                .map(|&v| {
                    let mut shape = vec![n];
                    shape.extend_from_slice(&self.plan.shapes[v.0]);
                    Tensor::zeros(&shape)
                })
                .collect();
            self.state.batch = n;
        }
    }

    /// Check `inputs` against the plan without executing; returns the batch
    /// size.
    fn validate(&self, inputs: &[&Tensor]) -> Result<usize, ExecError> {
        if inputs.len() != self.plan.num_inputs || inputs.is_empty() {
            return Err(ExecError::WrongInputCount { got: inputs.len(), want: self.plan.num_inputs });
        }
        let n = inputs[0].shape()[0];
        if inputs.iter().any(|t| t.shape()[0] != n) {
            return Err(ExecError::BatchMismatch { got: inputs.iter().map(|t| t.shape()[0]).collect() });
        }
        for (i, op) in self.plan.ops.iter().enumerate() {
            if let PlanOp::Input { index } = op {
                let want = &self.plan.shapes[i];
                let got = inputs[*index].shape();
                if got.len() != want.len() + 1 || &got[1..] != want.as_slice() {
                    return Err(ExecError::ShapeMismatch {
                        index: *index,
                        got: got.to_vec(),
                        want: want.clone(),
                    });
                }
            }
        }
        Ok(n)
    }

    /// Execute the plan over `inputs` (one NCHW/`[n,d]` tensor per declared
    /// [`Planner::input`], all with the same leading batch dimension).
    /// Returns the output tensors in declaration order; the returned slice
    /// is owned by the executor and overwritten by the next call.
    ///
    /// Panics on malformed inputs; serving paths should prefer
    /// [`Executor::try_run`], which reports them as [`ExecError`]s.
    pub fn run(&mut self, inputs: &[&Tensor]) -> &[Tensor] {
        match self.validate(inputs) {
            Ok(n) => self.execute(n, inputs, None),
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`Executor::run`], but malformed inputs surface as a typed
    /// [`ExecError`] instead of a panic. Validation happens before the
    /// first op runs, so a rejected call leaves the arena untouched.
    pub fn try_run(&mut self, inputs: &[&Tensor]) -> Result<&[Tensor], ExecError> {
        let n = self.validate(inputs)?;
        Ok(self.execute(n, inputs, None))
    }

    /// Like [`Executor::run`], but reports every op to `profiler`
    /// ([`platter_obs::ProfileReport`] is the standard sink): plan step
    /// index, structural kind, wall nanoseconds, and bytes touched, plus one
    /// whole-pass wall time per call. Results are bit-identical to `run` —
    /// profiling wraps the same op loop in timer reads; it never changes the
    /// plan.
    pub fn run_profiled(&mut self, inputs: &[&Tensor], profiler: &mut dyn Profiler) -> &[Tensor] {
        match self.validate(inputs) {
            Ok(n) => self.execute(n, inputs, Some(profiler)),
            Err(e) => panic!("{e}"),
        }
    }

    fn execute(
        &mut self,
        n: usize,
        inputs: &[&Tensor],
        mut profiler: Option<&mut dyn Profiler>,
    ) -> &[Tensor] {
        // The profiled and plain paths share this one body: when
        // `profiler` is `None` (every `run`/`try_run` call) the
        // instrumentation is a dead branch per op — no timer reads, no
        // label formatting.
        let run_start = profiler.as_ref().map(|_| std::time::Instant::now());
        let kinds = profiler.as_ref().map(|_| self.plan.op_kinds());
        self.ensure_batch(n);

        for i in 0..self.plan.ops.len() {
            let dst_slot = self.plan.slot_of[i];
            let out_len = self.plan.item_numel[i] * n;
            // The allocator retires input slots only after the output slot
            // is taken, so an op never reads and writes the same buffer.
            debug_assert!(self.plan.ops[i]
                .inputs()
                .iter()
                .all(|v| self.plan.slot_of[v.0] != dst_slot));
            let op_start = profiler.as_ref().map(|_| std::time::Instant::now());
            let mut dst = std::mem::take(&mut self.state.slots[dst_slot]);
            self.exec_op(i, n, inputs, &mut dst[..out_len]);
            self.state.slots[dst_slot] = dst;
            if let (Some(p), Some(t0)) = (profiler.as_deref_mut(), op_start) {
                let kinds = kinds.as_ref().expect("kinds computed when profiling");
                p.record_op(i, &kinds[i], t0.elapsed().as_nanos() as u64, self.plan.op_cost(i, n));
            }
        }

        for (j, &v) in self.plan.outputs.iter().enumerate() {
            let len = self.plan.item_numel[v.0] * n;
            self.state.outs[j]
                .as_mut_slice()
                .copy_from_slice(&self.state.slots[self.plan.slot_of[v.0]][..len]);
        }
        if let (Some(p), Some(t0)) = (profiler, run_start) {
            p.record_run(t0.elapsed().as_nanos() as u64);
        }
        &self.state.outs
    }

    /// Slice of value `v` within its slot (first `numel·n` elements).
    fn val<'a>(slots: &'a [Vec<f32>], plan: &Plan, v: ValueId, n: usize) -> &'a [f32] {
        &slots[plan.slot_of[v.0]][..plan.item_numel[v.0] * n]
    }

    fn exec_op(&mut self, i: usize, n: usize, inputs: &[&Tensor], dst: &mut [f32]) {
        let plan = &*self.plan;
        let weights = &*plan.weights;
        let slots = &self.state.slots;
        match &plan.ops[i] {
            PlanOp::Input { index } => {
                let t = inputs[*index];
                let expect = &plan.shapes[i];
                assert_eq!(
                    &t.shape()[1..],
                    expect.as_slice(),
                    "input {index} per-item shape mismatch (plan compiled for {expect:?})"
                );
                dst.copy_from_slice(t.as_slice());
            }
            PlanOp::Conv2d { x, weight, bias, act, .. } => {
                let geom = ConvGeom::of(&plan.ops, &plan.shapes, i).expect("conv op has a conv geometry");
                let kern = BiasAct { bias: weights.get(*bias), act: *act };
                let xs = Self::val(slots, plan, *x, n);
                fold_conv(&kern, weights.get(*weight), xs, &mut self.state.col, &geom, plan.fold[i], n, dst);
            }
            PlanOp::ScaleBias { x, scale, shift, act } => {
                let xs = Self::val(slots, plan, *x, n);
                let scale = weights.get(*scale);
                let shift = weights.get(*shift);
                let c = plan.shapes[i][0];
                let hw = plan.item_numel[i] / c;
                for b in 0..n {
                    for ch in 0..c {
                        let base = (b * c + ch) * hw;
                        let (s, t) = (scale[ch], shift[ch]);
                        for (d, &v) in dst[base..base + hw].iter_mut().zip(&xs[base..base + hw]) {
                            *d = v * s + t;
                        }
                    }
                }
                apply_act(*act, dst);
            }
            PlanOp::Activation { x, act } => {
                let xs = Self::val(slots, plan, *x, n);
                for (d, &v) in dst.iter_mut().zip(xs) {
                    *d = act.eval(v);
                }
            }
            PlanOp::MaxPool { x, k, stride, pad } => {
                let xs = Self::val(slots, plan, *x, n);
                let (c, h, w) = (plan.shapes[x.0][0], plan.shapes[x.0][1], plan.shapes[x.0][2]);
                let (hout, wout) = (plan.shapes[i][1], plan.shapes[i][2]);
                maxpool_into(xs, (n * c, h, w), (*k, *stride, *pad), (hout, wout), dst);
            }
            PlanOp::Upsample { x, factor } => {
                let xs = Self::val(slots, plan, *x, n);
                let (c, h, w) = (plan.shapes[x.0][0], plan.shapes[x.0][1], plan.shapes[x.0][2]);
                let f = *factor;
                let (ho, wo) = (h * f, w * f);
                for plane in 0..n * c {
                    let src = &xs[plane * h * w..(plane + 1) * h * w];
                    let out = &mut dst[plane * ho * wo..(plane + 1) * ho * wo];
                    for oy in 0..ho {
                        let srow = &src[(oy / f) * w..(oy / f + 1) * w];
                        let orow = &mut out[oy * wo..(oy + 1) * wo];
                        for (ox, d) in orow.iter_mut().enumerate() {
                            *d = srow[ox / f];
                        }
                    }
                }
            }
            PlanOp::Concat { xs } => {
                let out_len = plan.item_numel[i];
                let mut offset = 0usize;
                for &v in xs {
                    let src = Self::val(slots, plan, v, n);
                    let len = plan.item_numel[v.0];
                    for b in 0..n {
                        dst[b * out_len + offset..b * out_len + offset + len]
                            .copy_from_slice(&src[b * len..(b + 1) * len]);
                    }
                    offset += len;
                }
            }
            PlanOp::Add { a, b } => {
                let av = Self::val(slots, plan, *a, n);
                let bv = Self::val(slots, plan, *b, n);
                for ((d, &x), &y) in dst.iter_mut().zip(av).zip(bv) {
                    *d = x + y;
                }
            }
        }
    }
}

/// Apply an activation in place.
fn apply_act(act: Activation, buf: &mut [f32]) {
    if act == Activation::Linear {
        return;
    }
    for v in buf {
        *v = act.eval(*v);
    }
}

/// Forward-only max pooling over `planes` independent `h`×`w` planes.
fn maxpool_into(
    xs: &[f32],
    (planes, h, w): (usize, usize, usize),
    (k, stride, pad): (usize, usize, usize),
    (hout, wout): (usize, usize),
    dst: &mut [f32],
) {
    for p in 0..planes {
        let src = &xs[p * h * w..(p + 1) * h * w];
        let out = &mut dst[p * hout * wout..(p + 1) * hout * wout];
        for oy in 0..hout {
            for ox in 0..wout {
                let mut best = f32::NEG_INFINITY;
                for ky in 0..k {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    let row = &src[iy as usize * w..(iy as usize + 1) * w];
                    for kx in 0..k {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if ix >= 0 && (ix as usize) < w && row[ix as usize] > best {
                            best = row[ix as usize];
                        }
                    }
                }
                out[oy * wout + ox] = best;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::nn::{BatchNorm2d, ConvBlock, Linear};
    use crate::trace::Mode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn conv_matches_eager_graph() {
        let mut rng = StdRng::seed_from_u64(1);
        for &(k, spec) in &[(3usize, Conv2dSpec::same(3)), (3, Conv2dSpec::down(3)), (1, Conv2dSpec::same(1))] {
            let w = Tensor::randn(&[4, 3, k, k], &mut rng);
            let x = Tensor::randn(&[2, 3, 6, 6], &mut rng);
            let mut g = Graph::inference();
            let xv = g.leaf(x.clone());
            let wv = g.leaf(w.clone());
            let y = g.conv2d(xv, wv, spec);

            let mut p = Planner::new();
            let xi = p.input(&[3, 6, 6]);
            let yi = p.conv2d(xi, &w, None, spec);
            let mut exec = Executor::new(p.finish(&[yi]));
            let out = exec.run(&[&x]);
            assert_eq!(out[0].shape(), g.shape(y));
            assert_close(out[0].as_slice(), g.value(y).as_slice(), 1e-5, "conv");
        }
    }

    #[test]
    fn conv_block_fuses_to_single_op_and_matches_eager() {
        let mut rng = StdRng::seed_from_u64(2);
        let block = ConvBlock::new("b", 3, 6, 3, Conv2dSpec::same(3), Activation::Mish, &mut rng);
        // Non-trivial BN statistics so folding is actually exercised.
        let bn = block.bn.as_ref().unwrap();
        bn.running_mean.set_value(Tensor::randn(&[1, 6, 1, 1], &mut rng));
        bn.running_var.set_value(Tensor::rand_uniform(&[1, 6, 1, 1], 0.3, 2.0, &mut rng));
        bn.gamma.set_value(Tensor::rand_uniform(&[1, 6, 1, 1], 0.5, 1.5, &mut rng));
        bn.beta.set_value(Tensor::randn(&[1, 6, 1, 1], &mut rng));

        let x = Tensor::randn(&[2, 3, 5, 5], &mut rng);
        let mut g = Graph::inference();
        let xv = g.leaf(x.clone());
        let y = block.trace(&mut g, xv, Mode::Infer);

        let mut p = Planner::new();
        let xi = p.input(&[3, 5, 5]);
        let yi = block.trace(&mut p, xi, Mode::Infer);
        let plan = p.finish(&[yi]);
        // input + one fused conv: BN and Mish disappeared into the conv.
        assert_eq!(plan.num_values(), 2, "conv+BN+act must fuse to one op");
        let mut exec = Executor::new(plan);
        let out = exec.run(&[&x]);
        assert_close(out[0].as_slice(), g.value(y).as_slice(), 1e-5, "fused conv block");
    }

    #[test]
    fn standalone_batchnorm_matches_eager() {
        let mut rng = StdRng::seed_from_u64(3);
        let bn = BatchNorm2d::new("bn", 4);
        bn.running_mean.set_value(Tensor::randn(&[1, 4, 1, 1], &mut rng));
        bn.running_var.set_value(Tensor::rand_uniform(&[1, 4, 1, 1], 0.2, 3.0, &mut rng));
        bn.gamma.set_value(Tensor::randn(&[1, 4, 1, 1], &mut rng));
        bn.beta.set_value(Tensor::randn(&[1, 4, 1, 1], &mut rng));
        let x = Tensor::randn(&[2, 4, 3, 3], &mut rng);

        let mut g = Graph::inference();
        let xv = g.leaf(x.clone());
        let y = bn.trace(&mut g, xv, Mode::Infer);

        let mut p = Planner::new();
        let xi = p.input(&[4, 3, 3]);
        let yi = bn.trace(&mut p, xi, Mode::Infer); // input producer: no conv to fold into
        let mut exec = Executor::new(p.finish(&[yi]));
        let out = exec.run(&[&x]);
        assert_close(out[0].as_slice(), g.value(y).as_slice(), 1e-5, "scale-bias");
    }

    #[test]
    fn pool_upsample_concat_add_match_eager() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::randn(&[2, 3, 4, 4], &mut rng);
        let mut g = Graph::inference();
        let xv = g.leaf(x.clone());
        let pooled = g.maxpool2d(xv, 3, 1, 1);
        let up = g.upsample_nearest(xv, 2);
        let down = g.maxpool2d(up, 2, 2, 0);
        let cat = g.concat(&[pooled, down], 1);
        let sum = g.add(xv, pooled);

        let mut p = Planner::new();
        let xi = p.input(&[3, 4, 4]);
        let pi = p.maxpool2d(xi, 3, 1, 1);
        let ui = p.upsample_nearest(xi, 2);
        let di = p.maxpool2d(ui, 2, 2, 0);
        let ci = p.concat_channels(&[pi, di]);
        let si = p.add(xi, pi);
        let mut exec = Executor::new(p.finish(&[ci, si]));
        let out = exec.run(&[&x]);
        assert_close(out[0].as_slice(), g.value(cat).as_slice(), 0.0, "concat(pool, pool(up))");
        assert_close(out[1].as_slice(), g.value(sum).as_slice(), 0.0, "add");
    }

    #[test]
    fn linear_layer_matches_eager() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = Linear::new("fc", 6, 3, &mut rng);
        let x = Tensor::randn(&[4, 6], &mut rng);
        let mut g = Graph::inference();
        let xv = g.leaf(x.clone());
        let y = layer.trace(&mut g, xv);

        let mut p = Planner::new();
        let xi = p.input(&[6]);
        let yi = layer.trace(&mut p, xi);
        let mut exec = Executor::new(p.finish(&[yi]));
        let out = exec.run(&[&x]);
        assert_eq!(out[0].shape(), &[4, 3]);
        assert_close(out[0].as_slice(), g.value(y).as_slice(), 1e-5, "linear");
    }

    #[test]
    fn activation_does_not_fuse_past_a_second_consumer() {
        // x -> conv -> (act, add) : the conv output feeds two ops, so the
        // activation must NOT rewrite the conv in place.
        let mut rng = StdRng::seed_from_u64(6);
        let w = Tensor::randn(&[3, 3, 1, 1], &mut rng);
        let x = Tensor::randn(&[1, 3, 4, 4], &mut rng);

        let mut g = Graph::inference();
        let xv = g.leaf(x.clone());
        let wv = g.leaf(w.clone());
        let c = g.conv2d(xv, wv, Conv2dSpec::same(1));
        let a = g.relu(c);
        let s = g.add(c, a);

        let mut p = Planner::new();
        let xi = p.input(&[3, 4, 4]);
        let ci = p.conv2d(xi, &w, None, Conv2dSpec::same(1));
        let raw = p.add(ci, ci); // consume conv output before activating
        let ai = p.activation(ci, Activation::Relu);
        assert_ne!(ai, ci, "activation must not fuse into a multiply-consumed conv");
        let si = p.add(ci, ai);
        let _ = raw;
        let mut exec = Executor::new(p.finish(&[si]));
        let out = exec.run(&[&x]);
        assert_close(out[0].as_slice(), g.value(s).as_slice(), 1e-5, "unfused act");
    }

    #[test]
    fn planner_recycles_slots_in_a_chain() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut p = Planner::new();
        let mut v = p.input(&[4, 8, 8]);
        for _ in 0..6 {
            let w = Tensor::randn(&[4, 4, 3, 3], &mut rng);
            v = p.conv2d(v, &w, None, Conv2dSpec::same(3));
        }
        let plan = p.finish(&[v]);
        assert_eq!(plan.num_values(), 7);
        // A pure chain ping-pongs between two working buffers (+1 pinned
        // output).
        assert!(plan.num_slots() <= 3, "chain should recycle: {} slots", plan.num_slots());
    }

    #[test]
    fn planner_never_aliases_simultaneously_live_values() {
        // A branchy plan (diamond + concat) stresses the allocator; verify
        // from the liveness table that no two values sharing a slot have
        // overlapping live ranges [def, last_use].
        let mut rng = StdRng::seed_from_u64(8);
        let mut p = Planner::new();
        let x = p.input(&[4, 8, 8]);
        let w1 = Tensor::randn(&[4, 4, 3, 3], &mut rng);
        let w2 = Tensor::randn(&[4, 4, 1, 1], &mut rng);
        let a = p.conv2d(x, &w1, None, Conv2dSpec::same(3));
        let b = p.conv2d(x, &w2, None, Conv2dSpec::same(1));
        let c = p.add(a, b);
        let d = p.maxpool2d(c, 2, 2, 0);
        let u = p.upsample_nearest(d, 2);
        let cat = p.concat_channels(&[c, u]);
        let w3 = Tensor::randn(&[2, 8, 1, 1], &mut rng);
        let out = p.conv2d(cat, &w3, None, Conv2dSpec::same(1));
        let plan = p.finish(&[out]);

        let infos = plan.slot_map();
        for i in &infos {
            for j in &infos {
                if i.value >= j.value || i.slot != j.slot {
                    continue;
                }
                let disjoint = i.last_use < j.def || j.last_use < i.def;
                assert!(
                    disjoint,
                    "values {} [{}, {}] and {} [{}, {}] alias slot {}",
                    i.value, i.def, i.last_use, j.value, j.def, j.last_use, i.slot
                );
            }
        }
        assert!(plan.num_slots() < plan.num_values(), "expected some recycling");
    }

    #[test]
    fn executor_handles_batch_size_changes_and_reuse() {
        let mut rng = StdRng::seed_from_u64(9);
        let w = Tensor::randn(&[5, 3, 3, 3], &mut rng);
        let mut p = Planner::new();
        let xi = p.input(&[3, 6, 6]);
        let yi = p.conv2d(xi, &w, None, Conv2dSpec::same(3));
        let zi = p.activation(yi, Activation::Leaky);
        let mut exec = Executor::new(p.finish(&[zi]));

        let x1 = Tensor::randn(&[1, 3, 6, 6], &mut rng);
        let x3 = Tensor::randn(&[3, 3, 6, 6], &mut rng);
        let first = exec.run(&[&x1])[0].clone();
        let grown = exec.run(&[&x3])[0].clone();
        assert_eq!(grown.shape(), &[3, 5, 6, 6]);
        let again = exec.run(&[&x1])[0].clone();
        assert_eq!(first.as_slice(), again.as_slice(), "executor reuse must be deterministic");
        assert!(exec.arena_bytes() > 0);
    }

    #[test]
    fn arena_grows_once_and_serves_smaller_batches_without_realloc() {
        let mut rng = StdRng::seed_from_u64(10);
        let w = Tensor::randn(&[4, 3, 3, 3], &mut rng);
        let mut p = Planner::new();
        let xi = p.input(&[3, 6, 6]);
        let yi = p.conv2d(xi, &w, None, Conv2dSpec::same(3));
        let mut exec = Executor::new(p.finish(&[yi]));

        let x4 = Tensor::randn(&[4, 3, 6, 6], &mut rng);
        exec.run(&[&x4]);
        let sized_for_four = exec.arena_bytes();
        // Variable serving batches (3, 1, 2) reuse the batch-4 arena.
        for n in [3usize, 1, 2] {
            let x = Tensor::randn(&[n, 3, 6, 6], &mut rng);
            let out = exec.run(&[&x]);
            assert_eq!(out[0].shape(), &[n, 4, 6, 6]);
            assert_eq!(exec.arena_bytes(), sized_for_four, "batch {n} must not resize the arena");
        }
        // Output values at a smaller batch match a fresh executor (the
        // oversized slots never leak stale tail elements into results).
        let x2 = Tensor::randn(&[2, 3, 6, 6], &mut rng);
        let reused = exec.run(&[&x2])[0].clone();
        let mut p2 = Planner::new();
        let xi2 = p2.input(&[3, 6, 6]);
        let yi2 = p2.conv2d(xi2, &w, None, Conv2dSpec::same(3));
        let fresh = Executor::new(p2.finish(&[yi2])).run(&[&x2])[0].clone();
        assert_eq!(reused.as_slice(), fresh.as_slice());
    }

    #[test]
    fn try_run_reports_malformed_inputs_as_typed_errors() {
        let mut rng = StdRng::seed_from_u64(11);
        let w = Tensor::randn(&[2, 3, 1, 1], &mut rng);
        let mut p = Planner::new();
        let ai = p.input(&[3, 4, 4]);
        let bi = p.input(&[2, 4, 4]);
        let ci = p.conv2d(ai, &w, None, Conv2dSpec::same(1));
        let di = p.add(ci, bi);
        let mut exec = Executor::new(p.finish(&[di]));

        let a = Tensor::zeros(&[2, 3, 4, 4]);
        let b = Tensor::zeros(&[2, 2, 4, 4]);
        assert!(exec.try_run(&[&a, &b]).is_ok());

        assert_eq!(
            exec.try_run(&[&a]).unwrap_err(),
            ExecError::WrongInputCount { got: 1, want: 2 }
        );
        let b3 = Tensor::zeros(&[3, 2, 4, 4]);
        assert_eq!(
            exec.try_run(&[&a, &b3]).unwrap_err(),
            ExecError::BatchMismatch { got: vec![2, 3] }
        );
        let bad = Tensor::zeros(&[2, 5, 4, 4]);
        assert_eq!(
            exec.try_run(&[&a, &bad]).unwrap_err(),
            ExecError::ShapeMismatch { index: 1, got: vec![2, 5, 4, 4], want: vec![2, 4, 4] }
        );
        let flat = Tensor::zeros(&[2, 48]);
        assert!(matches!(
            exec.try_run(&[&flat, &b]).unwrap_err(),
            ExecError::ShapeMismatch { index: 0, .. }
        ));
        // A rejected call leaves the executor fully usable.
        assert!(exec.try_run(&[&a, &b]).is_ok());
    }

    #[test]
    fn fork_shares_weights_and_matches_parent_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(13);
        let w = Tensor::randn(&[5, 3, 3, 3], &mut rng);
        let mut p = Planner::new();
        let xi = p.input(&[3, 6, 6]);
        let yi = p.conv2d(xi, &w, None, Conv2dSpec::same(3));
        let zi = p.activation(yi, Activation::Mish);
        let mut parent = Executor::new(p.finish(&[zi]));

        // Weights exist exactly once before forking…
        assert_eq!(std::sync::Arc::strong_count(parent.plan().weights()), 1);
        let mut forks: Vec<Executor> = (0..3).map(|_| parent.fork()).collect();
        // …and still exactly once after: forks share the plan Arc (weights
        // are nested inside it), so the weights Arc itself is untouched.
        assert_eq!(std::sync::Arc::strong_count(parent.plan().weights()), 1);

        let x = Tensor::randn(&[2, 3, 6, 6], &mut rng);
        let want = parent.run(&[&x])[0].clone();
        for (i, f) in forks.iter_mut().enumerate() {
            let got = f.run(&[&x])[0].clone();
            assert_eq!(got.as_slice(), want.as_slice(), "fork {i} must be bit-identical");
        }
        // A fork is a fresh arena: warming it never disturbed the parent.
        let again = parent.run(&[&x])[0].clone();
        assert_eq!(again.as_slice(), want.as_slice());
    }

    #[test]
    fn forks_have_independent_arenas() {
        let mut rng = StdRng::seed_from_u64(14);
        let w = Tensor::randn(&[4, 3, 3, 3], &mut rng);
        let mut p = Planner::new();
        let xi = p.input(&[3, 6, 6]);
        let yi = p.conv2d(xi, &w, None, Conv2dSpec::same(3));
        let mut parent = Executor::new(p.finish(&[yi]));
        let mut fork = parent.fork();
        assert_eq!(fork.arena_bytes(), 0, "fork starts with an empty arena");

        // Different batch sizes grow each arena independently.
        parent.run(&[&Tensor::randn(&[4, 3, 6, 6], &mut rng)]);
        fork.run(&[&Tensor::randn(&[1, 3, 6, 6], &mut rng)]);
        assert!(parent.arena_bytes() > fork.arena_bytes());

        // Dropping the parent leaves the fork fully usable (plan is shared).
        let x = Tensor::randn(&[2, 3, 6, 6], &mut rng);
        drop(parent);
        let out = fork.run(&[&x]);
        assert_eq!(out[0].shape(), &[2, 4, 6, 6]);
    }

    #[test]
    #[should_panic(expected = "does not match compiled per-item shape")]
    fn run_still_panics_on_shape_mismatch() {
        let mut rng = StdRng::seed_from_u64(12);
        let w = Tensor::randn(&[2, 3, 1, 1], &mut rng);
        let mut p = Planner::new();
        let xi = p.input(&[3, 4, 4]);
        let yi = p.conv2d(xi, &w, None, Conv2dSpec::same(1));
        let mut exec = Executor::new(p.finish(&[yi]));
        exec.run(&[&Tensor::zeros(&[1, 3, 5, 5])]);
    }
}
