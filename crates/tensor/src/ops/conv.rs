//! 2-D convolution (NCHW) via im2col + GEMM, with full backward.

use crate::gemm::{gemm_accumulate, gemm_into};
use crate::graph::{Graph, Var};
use crate::tensor::Tensor;

/// Geometry of a convolution: square stride and zero padding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dSpec {
    pub stride: usize,
    pub pad: usize,
}

impl Conv2dSpec {
    /// Stride-1 "same" convolution for an odd kernel size.
    pub fn same(kernel: usize) -> Conv2dSpec {
        debug_assert!(kernel % 2 == 1, "same-padding needs an odd kernel");
        Conv2dSpec { stride: 1, pad: kernel / 2 }
    }

    /// Stride-2 downsampling convolution for an odd kernel size.
    pub fn down(kernel: usize) -> Conv2dSpec {
        Conv2dSpec { stride: 2, pad: kernel / 2 }
    }

    /// Output spatial extent for input extent `dim` and kernel size `k`.
    pub fn out_dim(&self, dim: usize, k: usize) -> usize {
        (dim + 2 * self.pad).saturating_sub(k) / self.stride + 1
    }
}

/// True when the conv is a pointwise (1×1, stride 1, no padding) product:
/// the im2col matrix would equal the input plane, so both the eager and the
/// planned paths go straight to GEMM.
#[inline]
pub(crate) fn is_pointwise(kh: usize, kw: usize, spec: Conv2dSpec) -> bool {
    kh == 1 && kw == 1 && spec.stride == 1 && spec.pad == 0
}

/// Unfold `x[n]` into a `[cin*kh*kw, hout*wout]` column matrix whose rows
/// sit `ld ≥ hout*wout` elements apart in `col` — `ld = hout*wout` for a
/// dense matrix; the planned executor passes a wider stride to lay several
/// batch items side by side. Padding cells are zero.
#[allow(clippy::too_many_arguments)] // conv geometry plus the column stride
pub(crate) fn im2col(
    x: &[f32],
    (cin, h, w): (usize, usize, usize),
    (kh, kw): (usize, usize),
    spec: Conv2dSpec,
    (hout, wout): (usize, usize),
    col: &mut [f32],
    ld: usize,
) {
    let hw = hout * wout;
    debug_assert!(ld >= hw && col.len() >= (cin * kh * kw - 1) * ld + hw);
    let zero = 0.0;
    let mut row = 0usize;
    for c in 0..cin {
        let plane = &x[c * h * w..(c + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let dst = &mut col[row * ld..row * ld + hw];
                row += 1;
                for oy in 0..hout {
                    let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                    let dst_row = &mut dst[oy * wout..(oy + 1) * wout];
                    if iy < 0 || iy as usize >= h {
                        dst_row.fill(zero);
                        continue;
                    }
                    let src_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                    for (ox, d) in dst_row.iter_mut().enumerate() {
                        let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                        *d = if ix < 0 || ix as usize >= w { zero } else { src_row[ix as usize] };
                    }
                }
            }
        }
    }
}

/// Fold a column-matrix gradient back onto the input plane (adjoint of
/// [`im2col`]): overlapping windows accumulate.
fn col2im(
    col: &[f32],
    (cin, h, w): (usize, usize, usize),
    (kh, kw): (usize, usize),
    spec: Conv2dSpec,
    (hout, wout): (usize, usize),
    x_grad: &mut [f32],
) {
    let mut row = 0usize;
    for c in 0..cin {
        let plane = &mut x_grad[c * h * w..(c + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let src = &col[row * hout * wout..(row + 1) * hout * wout];
                row += 1;
                for oy in 0..hout {
                    let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    let dst_row = &mut plane[iy as usize * w..(iy as usize + 1) * w];
                    let src_row = &src[oy * wout..(oy + 1) * wout];
                    for (ox, &s) in src_row.iter().enumerate() {
                        let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                        if ix >= 0 && (ix as usize) < w {
                            dst_row[ix as usize] += s;
                        }
                    }
                }
            }
        }
    }
}

/// Forward convolution shared by the op and its weight-gradient recompute.
fn conv_forward(x: &Tensor, w: &Tensor, spec: Conv2dSpec) -> Tensor {
    let (n, cin, h, wdim) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (cout, cin_w, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
    assert_eq!(cin, cin_w, "conv2d channel mismatch: input {cin} vs weight {cin_w}");
    let hout = spec.out_dim(h, kh);
    let wout = spec.out_dim(wdim, kw);
    assert!(hout > 0 && wout > 0, "conv2d output collapsed to zero: input {h}x{wdim}, kernel {kh}x{kw}, {spec:?}");

    let mut out = vec![0.0f32; n * cout * hout * wout];
    let pointwise = is_pointwise(kh, kw, spec);
    let mut col = if pointwise { Vec::new() } else { vec![0.0f32; cin * kh * kw * hout * wout] };
    let xs = x.as_slice();
    let ws = w.as_slice();
    for b in 0..n {
        let src = &xs[b * cin * h * wdim..(b + 1) * cin * h * wdim];
        let dst = &mut out[b * cout * hout * wout..(b + 1) * cout * hout * wout];
        if pointwise {
            // 1×1 / stride 1 / pad 0: the column matrix is the input itself.
            gemm_into(ws, src, dst, cout, cin, hout * wout);
        } else {
            im2col(src, (cin, h, wdim), (kh, kw), spec, (hout, wout), &mut col, hout * wout);
            gemm_into(ws, &col, dst, cout, cin * kh * kw, hout * wout);
        }
    }
    Tensor::from_vec(out, &[n, cout, hout, wout])
}

impl Graph {
    /// 2-D convolution: `x: [n,cin,h,w]` ⊛ `w: [cout,cin,kh,kw]` →
    /// `[n,cout,h',w']`. Bias, when needed, is a separate broadcast add.
    pub fn conv2d(&mut self, x: Var, w: Var, spec: Conv2dSpec) -> Var {
        let (xv, wv) = (self.value(x).clone(), self.value(w).clone());
        let out = conv_forward(&xv, &wv, spec);
        self.push(
            out,
            Some(Box::new(move |g| {
                let (n, cin, h, wdim) = (xv.shape()[0], xv.shape()[1], xv.shape()[2], xv.shape()[3]);
                let (cout, _, kh, kw) = (wv.shape()[0], wv.shape()[1], wv.shape()[2], wv.shape()[3]);
                let (hout, wout) = (g.shape()[2], g.shape()[3]);
                let kdim = cin * kh * kw;
                let gs = g.as_slice();
                let xs = xv.as_slice();

                let mut gw = vec![0.0f32; cout * kdim];
                let mut gx = vec![0.0f32; xv.numel()];
                let pointwise = is_pointwise(kh, kw, spec);
                let (mut col, mut colgrad) = if pointwise {
                    (Vec::new(), Vec::new())
                } else {
                    (vec![0.0f32; kdim * hout * wout], vec![0.0f32; kdim * hout * wout])
                };
                let wt = wv.reshape(&[cout, kdim]).transpose2d();

                for b in 0..n {
                    let gout_b = &gs[b * cout * hout * wout..(b + 1) * cout * hout * wout];
                    let x_b = &xs[b * cin * h * wdim..(b + 1) * cin * h * wdim];
                    if pointwise {
                        // Columns == input plane: both gradients are plain
                        // GEMMs with no im2col/col2im round trip.
                        let xt = Tensor::from_vec(x_b.to_vec(), &[cin, hout * wout]).transpose2d();
                        gemm_accumulate(gout_b, xt.as_slice(), &mut gw, cout, hout * wout, cin, 1.0);
                        gemm_into(
                            wt.as_slice(),
                            gout_b,
                            &mut gx[b * cin * h * wdim..(b + 1) * cin * h * wdim],
                            cin,
                            cout,
                            hout * wout,
                        );
                        continue;
                    }
                    // dL/dW += G_b · col_bᵀ  (recompute col_b instead of
                    // storing one per batch item in the tape).
                    im2col(x_b, (cin, h, wdim), (kh, kw), spec, (hout, wout), &mut col, hout * wout);
                    // gw[cout, kdim] += gout_b[cout, hw] · colᵀ[hw, kdim]
                    let colt = Tensor::from_vec(col.clone(), &[kdim, hout * wout]).transpose2d();
                    gemm_accumulate(gout_b, colt.as_slice(), &mut gw, cout, hout * wout, kdim, 1.0);
                    // dL/dx_b = col2im(Wᵀ · G_b)
                    colgrad.fill(0.0);
                    gemm_into(wt.as_slice(), gout_b, &mut colgrad, kdim, cout, hout * wout);
                    col2im(
                        &colgrad,
                        (cin, h, wdim),
                        (kh, kw),
                        spec,
                        (hout, wout),
                        &mut gx[b * cin * h * wdim..(b + 1) * cin * h * wdim],
                    );
                }
                vec![
                    (x.0, Tensor::from_vec(gx, xv.shape())),
                    (w.0, Tensor::from_vec(gw, wv.shape())),
                ]
            })),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_grads;

    /// Direct (nested-loop) convolution as a reference.
    fn conv_naive(x: &Tensor, w: &Tensor, spec: Conv2dSpec) -> Tensor {
        let (n, cin, h, wdim) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (cout, _, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
        let hout = spec.out_dim(h, kh);
        let wout = spec.out_dim(wdim, kw);
        let mut out = Tensor::zeros(&[n, cout, hout, wout]);
        for b in 0..n {
            for co in 0..cout {
                for oy in 0..hout {
                    for ox in 0..wout {
                        let mut acc = 0.0;
                        for ci in 0..cin {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                                    let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                                    if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= wdim {
                                        continue;
                                    }
                                    let xi = x.idx4(b, ci, iy as usize, ix as usize);
                                    let wi = ((co * cin + ci) * kh + ky) * kw + kx;
                                    acc += x.as_slice()[xi] * w.as_slice()[wi];
                                }
                            }
                        }
                        let oi = out.idx4(b, co, oy, ox);
                        out.as_mut_slice()[oi] = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn spec_geometry() {
        let same = Conv2dSpec::same(3);
        assert_eq!(same.out_dim(8, 3), 8);
        let down = Conv2dSpec::down(3);
        assert_eq!(down.out_dim(8, 3), 4);
        let one = Conv2dSpec::same(1);
        assert_eq!(one.out_dim(13, 1), 13);
    }

    #[test]
    fn matches_naive_reference() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        for &(spec, k) in &[(Conv2dSpec::same(3), 3), (Conv2dSpec::down(3), 3), (Conv2dSpec::same(1), 1), (Conv2dSpec { stride: 1, pad: 2 }, 5)] {
            let x = Tensor::randn(&[2, 3, 7, 6], &mut rng);
            let w = Tensor::randn(&[4, 3, k, k], &mut rng);
            let mut g = Graph::inference();
            let xv = g.leaf(x.clone());
            let wv = g.leaf(w.clone());
            let y = g.conv2d(xv, wv, spec);
            let reference = conv_naive(&x, &w, spec);
            assert_eq!(g.shape(y), reference.shape());
            for (a, b) in g.value(y).as_slice().iter().zip(reference.as_slice()) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b} ({spec:?})");
            }
        }
    }

    #[test]
    fn identity_kernel_passes_through() {
        // A 1×1 kernel of weight 1 on a single channel is the identity.
        let mut g = Graph::inference();
        let x = g.leaf(Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]));
        let w = g.leaf(Tensor::ones(&[1, 1, 1, 1]));
        let y = g.conv2d(x, w, Conv2dSpec::same(1));
        assert_eq!(g.value(y).as_slice(), g.value(x).as_slice());
    }

    #[test]
    fn input_grad_matches_fd() {
        check_grads(&[1, 2, 5, 5], |g, x| {
            let w = g.leaf(Tensor::from_vec((0..36).map(|i| 0.05 * (i as f32 - 18.0)).collect(), &[2, 2, 3, 3]));
            let y = g.conv2d(x, w, Conv2dSpec::same(3));
            let sq = g.square(y);
            g.sum_all(sq)
        });
    }

    #[test]
    fn weight_grad_matches_fd() {
        check_grads(&[2, 2, 3, 3], |g, w| {
            let x = g.leaf(Tensor::from_vec((0..50).map(|i| 0.02 * (i as f32 - 25.0)).collect(), &[1, 2, 5, 5]));
            let y = g.conv2d(x, w, Conv2dSpec::down(3));
            let sq = g.square(y);
            g.sum_all(sq)
        });
    }

    #[test]
    fn pointwise_grads_match_fd() {
        // The 1×1 fast path has its own backward branch; check both the
        // input and the weight gradients against finite differences.
        check_grads(&[1, 3, 4, 4], |g, x| {
            let w = g.leaf(Tensor::from_vec((0..6).map(|i| 0.3 * (i as f32 - 2.5)).collect(), &[2, 3, 1, 1]));
            let y = g.conv2d(x, w, Conv2dSpec::same(1));
            let sq = g.square(y);
            g.sum_all(sq)
        });
        check_grads(&[2, 3, 1, 1], |g, w| {
            let x = g.leaf(Tensor::from_vec((0..48).map(|i| 0.04 * (i as f32 - 24.0)).collect(), &[1, 3, 4, 4]));
            let y = g.conv2d(x, w, Conv2dSpec::same(1));
            let sq = g.square(y);
            g.sum_all(sq)
        });
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn rejects_channel_mismatch() {
        let mut g = Graph::inference();
        let x = g.leaf(Tensor::zeros(&[1, 3, 4, 4]));
        let w = g.leaf(Tensor::zeros(&[2, 4, 3, 3]));
        g.conv2d(x, w, Conv2dSpec::same(3));
    }
}
