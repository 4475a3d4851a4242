//! Post-training INT8 quantization of compiled plans.
//!
//! The quantizer is a plan-to-plan pass: it takes a finished f32
//! [`crate::plan::Plan`] plus a [`Calibration`] recorded over representative
//! data, and rebuilds the IR with every convolution lowered to i8:
//!
//! - **Weights** are quantized per output channel, symmetric
//!   (`q = round(w / scale)`, zero-point fixed at 0, `scale = max|row|/127`)
//!   — one scale per conv filter keeps the wide-dynamic-range filters of a
//!   YOLO head from crushing the narrow ones.
//! - **Activations** are quantized per tensor with a scale fixed at
//!   calibration time: [`Executor::run_calibrating`] records the absolute
//!   range of every intermediate over a recording pass (the same hook shape
//!   as profiling — observation only, bit-identical outputs), and the pass
//!   turns `max|x|/127` into an explicit `Quantize` op. One `Quantize` per
//!   distinct source value is shared by every consuming conv — that sharing
//!   is the legal "fold quant into neighbours" rewrite.
//! - **Dequantization is never an op.** Each `QuantConv2d` dequantizes its
//!   i32 accumulators inside the GEMM epilogue
//!   ([`crate::qgemm::DequantBiasAct`]), where the bias add and
//!   activation already live, so the int8 path touches its f32 output
//!   exactly once.
//!
//! Everything else (pooling, upsampling, concat, residual adds, linear
//! heads) stays f32: those ops are bandwidth-bound and cheap; the GEMMs the
//! profile says dominate are what get the i8 treatment. A conv whose input
//! never produced a usable range (all-zero activations) falls back to f32
//! rather than dividing by zero; a non-finite range is a calibration bug and
//! surfaces as a typed [`QuantError`].
//!
//! The rewritten op list goes through the same `assemble`
//! step as a fresh compile, so quantized plans get the identical liveness
//! analysis, per-dtype slot recycling, and write-once weight freeze.
//!
//! [`Executor::run_calibrating`]: crate::plan::Executor::run_calibrating

use std::collections::HashMap;

use crate::plan::{assemble, Plan, PlanOp, ValueId};
use crate::weights::{StagedBuf, WeightId};

/// Number of quantization steps on each side of zero. ±127 (not −128) keeps
/// the grid symmetric, which is what makes a zero-point of 0 exact.
pub const QMAX: f32 = 127.0;

/// Quantize one value given the *inverse* scale (`1/scale`, precomputed so
/// the hot loop multiplies instead of divides): round-to-nearest, clamped to
/// the symmetric i8 grid. This is the single quantization formula — the
/// executor's `Quantize` op, the weight quantizer, and the property tests
/// all call it, so they cannot drift apart.
#[inline]
pub fn quantize_value(v: f32, inv_scale: f32) -> i8 {
    (v * inv_scale).round().clamp(-QMAX, QMAX) as i8
}

/// Dequantize one value: `q · scale`.
#[inline]
pub fn dequantize(q: i8, scale: f32) -> f32 {
    q as f32 * scale
}

/// Per-channel symmetric quantization of a `[rows, cols]` row-major weight
/// matrix: returns the i8 payload and one scale per row
/// (`w[r, c] ≈ q[r, c] · scales[r]`). An all-zero row gets scale 1.0 — the
/// quantized row is all zeros either way, and the scale stays finite.
pub fn quantize_rows(w: &[f32], rows: usize) -> (Vec<i8>, Vec<f32>) {
    assert!(rows > 0 && w.len().is_multiple_of(rows), "weight length {} not divisible into {rows} rows", w.len());
    let cols = w.len() / rows;
    let mut data = Vec::with_capacity(w.len());
    let mut scales = Vec::with_capacity(rows);
    for r in 0..rows {
        let row = &w[r * cols..(r + 1) * cols];
        let max_abs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let scale = if max_abs == 0.0 { 1.0 } else { max_abs / QMAX };
        let inv = 1.0 / scale;
        data.extend(row.iter().map(|&v| quantize_value(v, inv)));
        scales.push(scale);
    }
    (data, scales)
}

/// Recorded absolute ranges of every planned value, the activation side of
/// calibration. Fill it by running [`crate::plan::Executor::run_calibrating`]
/// over representative batches (the validation set, per the paper's Table I
/// workload), then hand it to [`quantize_plan`].
///
/// Deterministic by construction: the ranges are pure maxima over the
/// observed data, so the same plan run over the same batches in any order
/// yields the same scales — and therefore a bit-identical quantized plan.
pub struct Calibration {
    /// Per-value max |x| seen across all passes (∞ when a non-finite value
    /// was observed — poison that [`quantize_plan`] reports as an error).
    max_abs: Vec<f32>,
    passes: usize,
}

impl Calibration {
    /// An empty recording sized for `plan` (all ranges zero, no passes yet).
    pub fn for_plan(plan: &Plan) -> Calibration {
        Calibration { max_abs: vec![0.0; plan.num_values()], passes: 0 }
    }

    /// Fold one produced buffer of value `v` into the recorded range.
    pub(crate) fn observe(&mut self, v: usize, buf: &[f32]) {
        let m = &mut self.max_abs[v];
        for &x in buf {
            if !x.is_finite() {
                *m = f32::INFINITY;
            } else if x.abs() > *m {
                *m = x.abs();
            }
        }
    }

    /// Mark one full recording pass complete.
    pub(crate) fn end_pass(&mut self) {
        self.passes += 1;
    }

    /// Completed recording passes ([`quantize_plan`] requires ≥ 1).
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Recorded max |x| of value `v`.
    pub fn max_abs(&self, v: usize) -> f32 {
        self.max_abs[v]
    }

    /// The per-tensor activation scale value `v` would quantize with.
    pub fn scale_for(&self, v: usize) -> f32 {
        self.max_abs[v] / QMAX
    }
}

/// Why [`quantize_plan`] refused to produce a quantized plan.
#[derive(Clone, Debug, PartialEq)]
pub enum QuantError {
    /// The calibration never completed a recording pass — there are no
    /// activation ranges to derive scales from.
    NoCalibrationPasses,
    /// A conv input's recorded range is non-finite: the recording pass saw
    /// NaN/∞ activations, so no scale exists.
    NonFiniteRange {
        /// The poisoned value (op index in the source plan).
        value: usize,
    },
    /// The plan contains no quantizable convolution (nothing to do — the
    /// "quantized" plan would be a byte-identical f32 copy).
    NothingQuantized,
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::NoCalibrationPasses => {
                write!(f, "calibration has no completed recording passes")
            }
            QuantError::NonFiniteRange { value } => {
                write!(f, "calibrated range of value {value} is non-finite")
            }
            QuantError::NothingQuantized => {
                write!(f, "plan has no quantizable convolutions")
            }
        }
    }
}

impl std::error::Error for QuantError {}

/// Rewrite a finished f32 `plan` into its INT8 twin using the activation
/// ranges in `calib`. Every convolution with a usable input range becomes
/// `Quantize` (shared per source value) + `QuantConv2d` (per-channel i8
/// weights, calibrated per-tensor input scale, dequant+bias+act fused into
/// the GEMM epilogue); every other op — and any conv whose calibrated input
/// range is exactly zero — is re-emitted in f32 with its weight buffers
/// copied over. The result goes through the same assembly (liveness, slot
/// recycling, weight freeze) as a fresh compile and runs on the same
/// [`crate::plan::Executor`].
pub fn quantize_plan(plan: &Plan, calib: &Calibration) -> Result<Plan, QuantError> {
    if calib.passes() == 0 {
        return Err(QuantError::NoCalibrationPasses);
    }
    assert_eq!(
        calib.max_abs.len(),
        plan.num_values(),
        "calibration was recorded for a different plan ({} values vs {})",
        calib.max_abs.len(),
        plan.num_values(),
    );

    let mut ops: Vec<PlanOp> = Vec::with_capacity(plan.ops.len());
    let mut shapes: Vec<Vec<usize>> = Vec::with_capacity(plan.shapes.len());
    let mut wbufs: Vec<StagedBuf> = Vec::new();
    // Old value id -> value id in the rewritten plan.
    let mut vmap: Vec<ValueId> = Vec::with_capacity(plan.ops.len());
    // Old weight id -> carried-over weight id. Lazy: f32 buffers of convs
    // that quantized away are never copied into the new store.
    let mut wmap: HashMap<usize, WeightId> = HashMap::new();
    // Old value id -> its shared Quantize op in the rewritten plan.
    let mut quantized: HashMap<usize, ValueId> = HashMap::new();
    let mut num_qconvs = 0usize;

    for (i, op) in plan.ops.iter().enumerate() {
        let push = |op: PlanOp, shape: Vec<usize>, ops: &mut Vec<PlanOp>, shapes: &mut Vec<Vec<usize>>| {
            ops.push(op);
            shapes.push(shape);
            ValueId(ops.len() - 1)
        };
        let mut carry = |wid: WeightId, wbufs: &mut Vec<StagedBuf>| {
            *wmap.entry(wid.0).or_insert_with(|| {
                wbufs.push(StagedBuf::F32(plan.weights.get(wid).to_vec()));
                WeightId(wbufs.len() - 1)
            })
        };
        let new_id = match op {
            PlanOp::Input { index } => {
                push(PlanOp::Input { index: *index }, plan.shapes[i].clone(), &mut ops, &mut shapes)
            }
            PlanOp::Conv2d { x, weight, bias, cout, cin, kh, kw, spec, act } => {
                let range = calib.max_abs(x.0);
                if !range.is_finite() {
                    return Err(QuantError::NonFiniteRange { value: x.0 });
                }
                if range == 0.0 {
                    // Degenerate calibration (input is identically zero on
                    // the recording set): no meaningful scale exists, so
                    // keep this conv in f32 rather than guessing.
                    let w = carry(*weight, &mut wbufs);
                    let b = carry(*bias, &mut wbufs);
                    push(
                        PlanOp::Conv2d {
                            x: vmap[x.0],
                            weight: w,
                            bias: b,
                            cout: *cout,
                            cin: *cin,
                            kh: *kh,
                            kw: *kw,
                            spec: *spec,
                            act: *act,
                        },
                        plan.shapes[i].clone(),
                        &mut ops,
                        &mut shapes,
                    )
                } else {
                    let scale = range / QMAX;
                    let qx = *quantized.entry(x.0).or_insert_with(|| {
                        ValueId({
                            ops.push(PlanOp::Quantize { x: vmap[x.0], scale });
                            shapes.push(plan.shapes[x.0].clone());
                            ops.len() - 1
                        })
                    });
                    let (qdata, scales) = quantize_rows(plan.weights.get(*weight), *cout);
                    wbufs.push(StagedBuf::I8 { data: qdata, scales });
                    let w = WeightId(wbufs.len() - 1);
                    let b = carry(*bias, &mut wbufs);
                    num_qconvs += 1;
                    push(
                        PlanOp::QuantConv2d {
                            x: qx,
                            weight: w,
                            bias: b,
                            in_scale: scale,
                            cout: *cout,
                            cin: *cin,
                            kh: *kh,
                            kw: *kw,
                            spec: *spec,
                            act: *act,
                        },
                        plan.shapes[i].clone(),
                        &mut ops,
                        &mut shapes,
                    )
                }
            }
            PlanOp::ScaleBias { x, scale, shift, act } => {
                let s = carry(*scale, &mut wbufs);
                let t = carry(*shift, &mut wbufs);
                push(
                    PlanOp::ScaleBias { x: vmap[x.0], scale: s, shift: t, act: *act },
                    plan.shapes[i].clone(),
                    &mut ops,
                    &mut shapes,
                )
            }
            PlanOp::Activation { x, act } => push(
                PlanOp::Activation { x: vmap[x.0], act: *act },
                plan.shapes[i].clone(),
                &mut ops,
                &mut shapes,
            ),
            PlanOp::MaxPool { x, k, stride, pad } => push(
                PlanOp::MaxPool { x: vmap[x.0], k: *k, stride: *stride, pad: *pad },
                plan.shapes[i].clone(),
                &mut ops,
                &mut shapes,
            ),
            PlanOp::Upsample { x, factor } => push(
                PlanOp::Upsample { x: vmap[x.0], factor: *factor },
                plan.shapes[i].clone(),
                &mut ops,
                &mut shapes,
            ),
            PlanOp::Concat { xs } => push(
                PlanOp::Concat { xs: xs.iter().map(|v| vmap[v.0]).collect() },
                plan.shapes[i].clone(),
                &mut ops,
                &mut shapes,
            ),
            PlanOp::Add { a, b } => push(
                PlanOp::Add { a: vmap[a.0], b: vmap[b.0] },
                plan.shapes[i].clone(),
                &mut ops,
                &mut shapes,
            ),
            PlanOp::Linear { x, wt, bias, d_in, d_out, act } => {
                let w = carry(*wt, &mut wbufs);
                let b = carry(*bias, &mut wbufs);
                push(
                    PlanOp::Linear { x: vmap[x.0], wt: w, bias: b, d_in: *d_in, d_out: *d_out, act: *act },
                    plan.shapes[i].clone(),
                    &mut ops,
                    &mut shapes,
                )
            }
            PlanOp::Quantize { .. } | PlanOp::QuantConv2d { .. } => {
                panic!("quantize_plan: plan is already quantized")
            }
        };
        vmap.push(new_id);
    }

    if num_qconvs == 0 {
        return Err(QuantError::NothingQuantized);
    }

    let outputs: Vec<ValueId> = plan.outputs.iter().map(|v| vmap[v.0]).collect();
    Ok(assemble(ops, shapes, wbufs, plan.num_inputs, &outputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::Activation;
    use crate::ops::Conv2dSpec;
    use crate::plan::{Executor, Planner};
    use crate::tensor::Tensor;
    use crate::weights::DType;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_conv_plan(rng: &mut StdRng) -> Plan {
        let w1 = Tensor::randn(&[6, 3, 3, 3], rng);
        let w2 = Tensor::randn(&[4, 6, 1, 1], rng);
        let mut p = Planner::new();
        let x = p.input(&[3, 8, 8]);
        let c1 = p.conv2d(x, &w1, None, Conv2dSpec::same(3));
        let a1 = p.activation(c1, Activation::Leaky);
        let c2 = p.conv2d(a1, &w2, None, Conv2dSpec::same(1));
        p.finish(&[c2])
    }

    fn calibrate(plan: &std::sync::Arc<Plan>, batches: &[Tensor]) -> Calibration {
        let mut calib = Calibration::for_plan(plan);
        let mut exec = Executor::from_shared(plan.clone());
        for b in batches {
            exec.run_calibrating(&[b], &mut calib).expect("calibration pass");
        }
        calib
    }

    #[test]
    fn roundtrip_error_is_bounded_by_half_scale_per_channel() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = Tensor::randn(&[8 * 27], &mut rng);
        let (q, scales) = quantize_rows(w.as_slice(), 8);
        for r in 0..8 {
            let s = scales[r];
            for c in 0..27 {
                let orig = w.as_slice()[r * 27 + c];
                let back = dequantize(q[r * 27 + c], s);
                assert!(
                    (orig - back).abs() <= s / 2.0 + 1e-6,
                    "row {r} col {c}: |{orig} - {back}| > scale/2 = {}",
                    s / 2.0
                );
            }
        }
    }

    #[test]
    fn quantized_plan_replaces_convs_and_stays_close_to_f32() {
        let mut rng = StdRng::seed_from_u64(2);
        let plan = std::sync::Arc::new(small_conv_plan(&mut rng));
        let batches: Vec<Tensor> = (0..3).map(|_| Tensor::randn(&[2, 3, 8, 8], &mut rng)).collect();
        let calib = calibrate(&plan, &batches);
        assert_eq!(calib.passes(), 3);

        let qplan = quantize_plan(&plan, &calib).expect("quantize");
        assert_eq!(qplan.dtype(), DType::I8);
        let kinds = qplan.op_kinds();
        assert!(kinds.iter().any(|k| k.starts_with("qconv2d")), "no qconv in {kinds:?}");
        assert!(kinds.iter().any(|k| k == "quantize"), "no quantize op in {kinds:?}");
        assert!(!kinds.iter().any(|k| k.starts_with("conv2d")), "f32 conv survived in {kinds:?}");

        // Outputs stay finite and close to the f32 plan on calibrated data.
        let x = &batches[0];
        let mut fexec = Executor::from_shared(plan.clone());
        let want = fexec.run(&[x])[0].clone();
        let mut qexec = Executor::new(qplan);
        let got = qexec.run(&[x])[0].clone();
        assert_eq!(got.shape(), want.shape());
        // Random-weight nets are the worst case for PTQ (no trained
        // structure to hide the rounding), so the worst-element bound here
        // is looser than the real-model parity gate in `tensor::parity`;
        // the mean is what tracks mAP and must stay small.
        let mut worst = 0.0f32;
        let mut mean = 0.0f64;
        for (&a, &b) in got.as_slice().iter().zip(want.as_slice()) {
            assert!(a.is_finite(), "quantized output must be finite");
            let e = (a - b).abs() / (1.0 + b.abs());
            worst = worst.max(e);
            mean += e as f64;
        }
        mean /= got.as_slice().len() as f64;
        assert!(worst < 0.5, "quantized output drifted too far: worst rel err {worst}");
        assert!(mean < 0.03, "quantized output drifted too far: mean rel err {mean}");
    }

    #[test]
    fn quantized_executor_is_deterministic_and_forkable() {
        let mut rng = StdRng::seed_from_u64(3);
        let plan = std::sync::Arc::new(small_conv_plan(&mut rng));
        let batches: Vec<Tensor> = (0..2).map(|_| Tensor::randn(&[1, 3, 8, 8], &mut rng)).collect();
        let calib = calibrate(&plan, &batches);
        let qplan = std::sync::Arc::new(quantize_plan(&plan, &calib).expect("quantize"));

        let x = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let mut a = Executor::from_shared(qplan.clone());
        let mut b = a.fork();
        let first = a.run(&[&x])[0].clone();
        let forked = b.run(&[&x])[0].clone();
        assert_eq!(first.as_slice(), forked.as_slice(), "quantized forks must be bit-identical");
        let again = a.run(&[&x])[0].clone();
        assert_eq!(first.as_slice(), again.as_slice(), "quantized reruns must be bit-identical");
    }

    #[test]
    fn calibration_is_deterministic_given_a_fixed_recording_pass() {
        let mut rng = StdRng::seed_from_u64(4);
        let plan = std::sync::Arc::new(small_conv_plan(&mut rng));
        let batches: Vec<Tensor> = (0..3).map(|_| Tensor::randn(&[2, 3, 8, 8], &mut rng)).collect();

        let c1 = calibrate(&plan, &batches);
        let c2 = calibrate(&plan, &batches);
        for v in 0..plan.num_values() {
            assert_eq!(c1.max_abs(v).to_bits(), c2.max_abs(v).to_bits(), "range of value {v} must be deterministic");
        }
        // Bit-identical scales ⇒ bit-identical quantized parameters ⇒ the
        // frozen fingerprints agree.
        let q1 = quantize_plan(&plan, &c1).expect("quantize");
        let q2 = quantize_plan(&plan, &c2).expect("quantize");
        assert_eq!(q1.weights().fingerprint(), q2.weights().fingerprint());
    }

    #[test]
    fn zero_range_input_falls_back_to_f32_conv() {
        let mut rng = StdRng::seed_from_u64(5);
        let plan = std::sync::Arc::new(small_conv_plan(&mut rng));
        // All-zero calibration set: first conv sees an all-zero input range.
        let batches = [Tensor::zeros(&[1, 3, 8, 8])];
        let calib = calibrate(&plan, &batches);
        // Every range is zero -> every conv falls back -> nothing quantized.
        assert_eq!(quantize_plan(&plan, &calib).unwrap_err(), QuantError::NothingQuantized);
    }

    #[test]
    fn refuses_uncalibrated_or_poisoned_ranges() {
        let mut rng = StdRng::seed_from_u64(6);
        let plan = std::sync::Arc::new(small_conv_plan(&mut rng));
        let empty = Calibration::for_plan(&plan);
        assert_eq!(quantize_plan(&plan, &empty).unwrap_err(), QuantError::NoCalibrationPasses);

        let mut poisoned = Calibration::for_plan(&plan);
        let x = Tensor::randn(&[1, 3, 8, 8], &mut rng);
        let mut exec = Executor::from_shared(plan.clone());
        exec.run_calibrating(&[&x], &mut poisoned).expect("pass");
        poisoned.observe(0, &[f32::NAN]);
        assert_eq!(quantize_plan(&plan, &poisoned).unwrap_err(), QuantError::NonFiniteRange { value: 0 });
    }

    #[test]
    fn quantize_value_handles_saturation_and_zero() {
        assert_eq!(quantize_value(0.0, 10.0), 0, "symmetric mode: 0.0 maps exactly to 0");
        assert_eq!(quantize_value(-0.0, 10.0), 0);
        assert_eq!(quantize_value(1e9, 1.0), 127, "saturates high");
        assert_eq!(quantize_value(-1e9, 1.0), -127, "saturates low (never -128)");
        assert_eq!(dequantize(quantize_value(0.5, 2.0), 0.5), 0.5);
    }
}
