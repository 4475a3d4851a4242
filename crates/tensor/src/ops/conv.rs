//! 2-D convolution (NCHW) as im2col + GEMM, with full backward.
//!
//! One module owns the lowering both backends share: [`ConvGeom`] is a
//! convolution as its GEMM sees it, and [`fold_conv`] unfolds a group of
//! batch items side by side with [`im2col`] and lets
//! [`crate::gemm::gemm_fused`] write the product straight into their NCHW
//! planes. The planned executor calls it with the plan's fold group and
//! its fused bias + activation; the eager tape calls it one item at a time
//! with a zero bias. The backward pass runs on the same driver.

use crate::gemm::{effective_threads, gemm_fused, gemm_into, BiasAct};
use crate::graph::{Graph, Var};
use crate::nn::Activation;
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

/// A convolution as its GEMM sees it: per item, the `[m, k]` weight matrix
/// times a `[k, hw]` column matrix unfolded from a `[cin, h, w]` input.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ConvGeom {
    pub(crate) cin: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) kh: usize,
    pub(crate) kw: usize,
    pub(crate) spec: Conv2dSpec,
    pub(crate) hout: usize,
    pub(crate) wout: usize,
    /// Output channels.
    pub(crate) m: usize,
    /// `cin·kh·kw`.
    pub(crate) k: usize,
    /// Output pixels per item.
    pub(crate) hw: usize,
}

impl ConvGeom {
    /// `cout` filters of `kh`×`kw` over a `[cin, h, w]` input.
    pub(crate) fn new(
        cin: usize,
        (h, w): (usize, usize),
        cout: usize,
        (kh, kw): (usize, usize),
        spec: Conv2dSpec,
    ) -> ConvGeom {
        let (hout, wout) = (spec.out_dim(h, kh), spec.out_dim(w, kw));
        ConvGeom { cin, h, w, kh, kw, spec, hout, wout, m: cout, k: cin * kh * kw, hw: hout * wout }
    }

    /// True for a 1×1, stride 1, unpadded conv: the im2col matrix equals
    /// the input plane, so the GEMM reads the input in place.
    pub(crate) fn pointwise(&self) -> bool {
        self.kh == 1 && self.kw == 1 && self.spec.stride == 1 && self.spec.pad == 0
    }

    /// Column-matrix elements one item needs in the im2col scratch (none
    /// for a pointwise conv, whose input plane already is the matrix).
    pub(crate) fn col_elems(&self) -> usize {
        if self.pointwise() {
            0
        } else {
            self.k * self.hw
        }
    }

    /// How many batch items one GEMM call covers, given `cap` elements of
    /// im2col scratch: as many as fit side by side, so folding never grows
    /// the arena and no group's column matrix is wider than the widest
    /// single-item one the plan already had.
    pub(crate) fn fold_group(&self, cap: usize) -> usize {
        (cap / (self.k * self.hw)).max(1)
    }
}

/// Unfold `x[n]` into a `[cin*kh*kw, hout*wout]` column matrix whose rows
/// sit `ld ≥ hout*wout` elements apart in `col` — `ld = hout*wout` for a
/// dense matrix; [`fold_conv`] passes a wider stride to lay several batch
/// items side by side. Padding cells are zero.
#[allow(clippy::too_many_arguments)] // conv geometry plus the column stride
fn im2col(
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

/// Run one convolution over `n` batch items, up to `fold` items per GEMM:
/// each group's column matrices are unfolded side by side into `col` as one
/// `[k, items·hw]` matrix, and the fused GEMM writes the product straight
/// into the group's NCHW output planes. A pointwise conv alone in its group
/// skips the copy — its input plane already is the column matrix.
#[allow(clippy::too_many_arguments)] // kernel, operands, scratch, geometry
pub(crate) fn fold_conv(
    kern: &BiasAct<'_>,
    w: &[f32],
    xs: &[f32],
    col: &mut [f32],
    g: &ConvGeom,
    fold: usize,
    n: usize,
    dst: &mut [f32],
) {
    let in_len = g.cin * g.h * g.w;
    let out_len = g.m * g.hw;
    let mut b0 = 0;
    while b0 < n {
        let items = fold.min(n - b0);
        let src = &xs[b0 * in_len..(b0 + items) * in_len];
        let cols: &[f32] = if g.pointwise() && items == 1 {
            src
        } else {
            let ld = items * g.hw;
            let col = &mut col[..g.k * ld];
            for (item, x) in src.chunks_exact(in_len).enumerate() {
                im2col(x, (g.cin, g.h, g.w), (g.kh, g.kw), g.spec, (g.hout, g.wout), &mut col[item * g.hw..], ld);
            }
            col
        };
        let out = &mut dst[b0 * out_len..(b0 + items) * out_len];
        gemm_fused(effective_threads(), kern, w, cols, out, g.m, g.k, items * g.hw, g.hw);
        b0 += items;
    }
}

impl Graph {
    /// 2-D convolution: `x: [n,cin,h,w]` ⊛ `w: [cout,cin,kh,kw]` →
    /// `[n,cout,h',w']`. Bias, when needed, is a separate broadcast add.
    pub fn conv2d(&mut self, x: Var, w: Var, spec: Conv2dSpec) -> Var {
        let (xv, wv) = (self.value(x).clone(), self.value(w).clone());
        let (n, cin, h, wdim) = (xv.shape()[0], xv.shape()[1], xv.shape()[2], xv.shape()[3]);
        let (cout, cin_w, kh, kw) = (wv.shape()[0], wv.shape()[1], wv.shape()[2], wv.shape()[3]);
        assert_eq!(cin, cin_w, "conv2d channel mismatch: input {cin} vs weight {cin_w}");
        let g = ConvGeom::new(cin, (h, wdim), cout, (kh, kw), spec);
        assert!(g.hout > 0 && g.wout > 0, "conv2d output collapsed to zero: input {h}x{wdim}, kernel {kh}x{kw}, {spec:?}");
        let (in_len, out_len) = (g.cin * g.h * g.w, g.m * g.hw);
        let zero = vec![0.0f32; g.m];
        let mut out = vec![0.0f32; n * out_len];
        let mut col = vec![0.0f32; g.col_elems()];
        let kern = BiasAct { bias: &zero, act: Activation::Linear };
        fold_conv(&kern, wv.as_slice(), xv.as_slice(), &mut col, &g, 1, n, &mut out);
        self.push(
            Tensor::from_vec(out, &[n, g.m, g.hout, g.wout]),
            Some(Box::new(move |gout| {
                let (kdim, hw) = (g.k, g.hw);
                let gs = gout.as_slice();
                let xs = xv.as_slice();
                let wt = wv.reshape(&[g.m, kdim]).transpose2d();
                let mut col = vec![0.0f32; g.col_elems()];

                // dL/dx_b = col2im(Wᵀ · G_b), item by item; a pointwise
                // conv's column matrix is its input plane, so there the
                // product already is dL/dx_b.
                let mut gx = vec![0.0f32; xv.numel()];
                for (gx_b, g_b) in gx.chunks_exact_mut(in_len).zip(gs.chunks_exact(out_len)) {
                    if g.pointwise() {
                        gemm_into(wt.as_slice(), g_b, gx_b, kdim, g.m, hw);
                    } else {
                        gemm_into(wt.as_slice(), g_b, &mut col, kdim, g.m, hw);
                        col2im(&col, (g.cin, g.h, g.w), (g.kh, g.kw), g.spec, (g.hout, g.wout), gx_b);
                    }
                }

                // dL/dW = [G_0 | … | G_{n−1}] · [col_0ᵀ; …; col_{n−1}ᵀ]:
                // one GEMM with k = n·hw, so every element sums items
                // outer, pixels inner — the per-item accumulation order.
                let mut gcat = vec![0.0f32; g.m * n * hw];
                let mut colt = vec![0.0f32; n * hw * kdim];
                for (b, x_b) in xs.chunks_exact(in_len).enumerate() {
                    for (o, g_bo) in gs[b * out_len..(b + 1) * out_len].chunks_exact(hw).enumerate() {
                        gcat[(o * n + b) * hw..(o * n + b + 1) * hw].copy_from_slice(g_bo);
                    }
                    let col_b: &[f32] = if g.pointwise() {
                        x_b
                    } else {
                        im2col(x_b, (g.cin, g.h, g.w), (g.kh, g.kw), g.spec, (g.hout, g.wout), &mut col, hw);
                        &col
                    };
                    let colt_b = &mut colt[b * hw * kdim..(b + 1) * hw * kdim];
                    for (r, row) in col_b.chunks_exact(hw).enumerate() {
                        for (p, &v) in row.iter().enumerate() {
                            colt_b[p * kdim + r] = v;
                        }
                    }
                }
                let mut gw = vec![0.0f32; g.m * kdim];
                gemm_into(&gcat, &colt, &mut gw, g.m, n * hw, kdim);
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
    fn zero_upstream_gradient_does_not_hide_a_nan_input() {
        // loss = sum(0·conv(x, w)): every upstream gradient is 0, and 0·NaN
        // is NaN, so each weight-gradient element whose window sees the
        // NaN input must come out NaN — and only those.
        for k in [1, 3] {
            let mut xs = vec![0.5f32; 2 * 5 * 5];
            xs[5 * 5 + 2 * 5 + 2] = f32::NAN; // channel 1, centre pixel
            let mut g = Graph::new();
            let x = g.leaf(Tensor::from_vec(xs, &[1, 2, 5, 5]));
            let w = g.leaf(Tensor::ones(&[3, 2, k, k]));
            let y = g.conv2d(x, w, Conv2dSpec::same(k));
            let zeroed = g.mul_scalar(y, 0.0);
            let loss = g.sum_all(zeroed);
            g.backward(loss);
            let gw = g.grad(w).expect("weight gradient");
            for (i, v) in gw.as_slice().iter().enumerate() {
                let touched = (i / (k * k)) % 2 == 1; // every tap of input channel 1
                assert_eq!(v.is_nan(), touched, "{k}×{k} kernel, gw[{i}] = {v}");
            }
        }
    }

    #[test]
    fn weight_grad_sums_items_then_pixels_in_order() {
        // The weight gradient is one GEMM over the batch; each element must
        // be the sum over items (outer) and output pixels (inner) from 0.0,
        // in ascending order, exactly as this loop computes it.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        for &(spec, k, size) in &[(Conv2dSpec::same(1), 1, 3), (Conv2dSpec::down(3), 3, 5)] {
            let (n, cin, cout) = (3, 4, 5);
            let x = Tensor::randn(&[n, cin, size, size], &mut rng);
            let mut g = Graph::new();
            let xv = g.leaf(x.clone());
            let wv = g.leaf(Tensor::randn(&[cout, cin, k, k], &mut rng));
            let y = g.conv2d(xv, wv, spec);
            let (hout, wout) = (g.shape(y)[2], g.shape(y)[3]);
            assert!(hout * wout < crate::gemm::J_TILE);
            let up = Tensor::randn(g.shape(y), &mut rng);
            let upv = g.constant(up.clone());
            let prod = g.mul(y, upv);
            let loss = g.sum_all(prod);
            g.backward(loss);
            let gw = g.grad(wv).expect("weight gradient");
            for o in 0..cout {
                for ci in 0..cin {
                    for ky in 0..k {
                        for kx in 0..k {
                            let mut acc = 0.0f32;
                            for b in 0..n {
                                for oy in 0..hout {
                                    for ox in 0..wout {
                                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                                        let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                                        let (iy, ix) = (iy as usize, ix as usize); // negative wraps past `size`
                                        let xval = if iy < size && ix < size { x.as_slice()[x.idx4(b, ci, iy, ix)] } else { 0.0 };
                                        acc += up.as_slice()[up.idx4(b, o, oy, ox)] * xval;
                                    }
                                }
                            }
                            let got = gw.as_slice()[((o * cin + ci) * k + ky) * k + kx];
                            assert_eq!(got.to_bits(), acc.to_bits(), "{spec:?} gw[{o},{ci},{ky},{kx}]: {got} vs {acc}");
                        }
                    }
                }
            }
        }
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
