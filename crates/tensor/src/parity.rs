//! Shared scaffolding for eager-vs-planned parity tests.
//!
//! Since layers define their topology once via [`Trace`](crate::Trace), the
//! eager tape and the planned executor can no longer drift structurally —
//! what remains to verify numerically is the planner's kernel-level
//! differences: conv+BN folding scales the weights *before* the GEMM while
//! the eager path divides *after* it, and fused epilogues evaluate
//! activations on the accumulator. Every model crate's parity suite uses the
//! same two helpers, so the bounds and the BN-randomisation recipe stay
//! consistent across YOLOv4, SSD and the Inception backbone.

use crate::param::Param;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Give every batch norm in `params` non-trivial running statistics and
/// affine parameters (matched by name suffix).
///
/// A freshly initialised model has trivial BN statistics (mean 0, var 1,
/// gamma 1, beta 0), which would make conv+BN folding a near no-op; parity
/// tests call this first so folding is exercised with real scales and
/// shifts.
pub fn randomize_bn_stats(params: &[Param], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for p in params {
        let name = p.name();
        let shape = p.value().shape().to_vec();
        if name.ends_with(".running_mean") {
            p.set_value(Tensor::rand_uniform(&shape, -0.5, 0.5, &mut rng));
        } else if name.ends_with(".running_var") {
            p.set_value(Tensor::rand_uniform(&shape, 0.3, 2.0, &mut rng));
        } else if name.ends_with(".gamma") {
            p.set_value(Tensor::rand_uniform(&shape, 0.5, 1.5, &mut rng));
        } else if name.ends_with(".beta") {
            p.set_value(Tensor::rand_uniform(&shape, -0.3, 0.3, &mut rng));
        }
    }
}

/// Assert planned outputs reproduce the eager ones, head by head. Errors are
/// measured as `|a − b| / (1 + |a|)`; the worst element must stay under
/// `tol_worst` and the mean under `tol_mean`.
///
/// The bounds are loose in absolute terms because BN folding reorders f32
/// rounding: the eager path divides the conv output by `√(var+ε)` after the
/// GEMM accumulation, while the folded path scales the weights before it, so
/// every product rounds differently. Through a deep stack the reordering
/// accumulates a heavy-tailed roundoff distribution (observed: mean ≈ 1e-5,
/// worst ≈ 8e-4 through ~60 conv layers). A systematic folding bug shifts
/// the *bulk* of outputs by orders of magnitude more than this, which is
/// what the tight mean bound catches.
///
/// # Panics
///
/// Panics (test-assertion style) on head-count or shape mismatch, or when a
/// bound is exceeded.
pub fn assert_outputs_match(eager: &[Tensor], planned: &[Tensor], tol_worst: f32, tol_mean: f64) {
    assert_eq!(eager.len(), planned.len(), "head count mismatch");
    for (s, (e, c)) in eager.iter().zip(planned).enumerate() {
        assert_eq!(e.shape(), c.shape(), "head {s} shape mismatch");
        let (worst, mean) = output_error(e, c);
        assert!(worst <= tol_worst, "head {s}: worst error {worst} > {tol_worst}");
        assert!(mean <= tol_mean, "head {s}: mean error {mean} > {tol_mean}");
    }
}

/// The `(worst, mean)` relative error between two same-shaped tensors, using
/// the same `|a − b| / (1 + |a|)` measure as [`assert_outputs_match`].
///
/// This is the non-panicking core of the parity check: callers that must
/// *reject* a divergent model rather than fail a test (the serving model
/// registry's parity smoke) compare these values against the suite bounds
/// and surface a typed error. NaN in either tensor makes the worst error
/// infinite, so non-finite outputs can never pass a bound.
pub fn output_error(a: &Tensor, b: &Tensor) -> (f32, f64) {
    let mut worst = 0f32;
    let mut sum = 0f64;
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        let d = (x - y).abs() / (1.0 + x.abs());
        if d.is_nan() {
            worst = f32::INFINITY;
            sum = f64::INFINITY;
            continue;
        }
        worst = worst.max(d);
        sum += d as f64;
    }
    (worst, sum / a.as_slice().len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn randomize_touches_only_bn_params() {
        let w = Param::new("layer.conv.weight".to_string(), Tensor::ones(&[2, 2, 1, 1]));
        let gamma = Param::new("layer.bn.gamma".to_string(), Tensor::ones(&[1, 2, 1, 1]));
        let mean = Param::new("layer.bn.running_mean".to_string(), Tensor::zeros(&[1, 2, 1, 1]));
        randomize_bn_stats(&[w.clone(), gamma.clone(), mean.clone()], 3);
        assert_eq!(w.value().as_slice(), Tensor::ones(&[2, 2, 1, 1]).as_slice());
        assert!(gamma.value().as_slice().iter().all(|&v| (0.5..=1.5).contains(&v)));
        assert!(mean.value().as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn matching_outputs_pass() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
        assert_outputs_match(std::slice::from_ref(&t), std::slice::from_ref(&t), 1e-6, 1e-7);
    }

    #[test]
    fn output_error_measures_divergence_and_poisons_on_nan() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let (worst, mean) = output_error(&a, &a);
        assert_eq!(worst, 0.0);
        assert_eq!(mean, 0.0);
        let b = Tensor::from_vec(vec![1.0, 2.5], &[2]);
        let (worst, mean) = output_error(&a, &b);
        assert!(worst > 0.1 && mean > 0.05);
        let nan = Tensor::from_vec(vec![1.0, f32::NAN], &[2]);
        let (worst, _) = output_error(&a, &nan);
        assert_eq!(worst, f32::INFINITY, "NaN must never pass a parity bound");
    }

    #[test]
    #[should_panic(expected = "worst error")]
    fn divergent_outputs_fail() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.0, 2.5], &[2]);
        assert_outputs_match(&[a], &[b], 1e-3, 1e-3);
    }
}
