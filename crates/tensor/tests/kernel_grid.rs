//! Kernel grid: every path of the fused GEMM driver against a naive
//! reference, bit for bit.
//!
//! `gemm_fused` picks its path from the shape alone: wide register tiles
//! for whole `J_TILE` column blocks, the narrow row-vectorised tile for the
//! rest (all of it when `n < J_TILE`), column panels when more than one
//! thread is asked for and the product is large, and batch folding when
//! `hw < n` spreads the columns over several NCHW output planes. The grid
//! below walks `n` through every residue around the tile width, `m`
//! through sub-tile, odd (45 is the YOLO head's channel count) and large
//! row counts, and `k` from 1 to a 128-channel 3×3 conv — so each path
//! meets its degenerate shapes. The reference accumulates each element
//! from its start value in ascending `k` with plain `+=`, which is the
//! order the driver promises; equality is therefore exact, not a
//! tolerance, and must hold at 1, 2 and 5 threads. The eager tape's
//! [`matmul`] is the same driver with a zero bias, so it must equal the
//! plain product summed from `0.0` on the same grid.

use platter_tensor::gemm::{gemm_fused, matmul, BiasAct, J_TILE};
use platter_tensor::nn::Activation;
use platter_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const MS: [usize; 4] = [1, 3, 45, 256];
const KS: [usize; 3] = [1, 9, 1152];
const THREADS: [usize; 3] = [1, 2, 5];

/// Every `n` the grid visits: `1..=2·J_TILE`, plus two wider products so
/// 5 threads really split into several column panels with a narrow tail.
fn ns() -> Vec<usize> {
    (1..=2 * J_TILE).chain([47, 100]).collect()
}

/// Fold geometries for `n` columns: every `hw` that divides `n` (`hw = n`
/// is the plain per-item product, `hw < n` folds `n / hw` items).
fn hws(n: usize) -> Vec<usize> {
    (1..=n).filter(|&hw| n.is_multiple_of(hw)).collect()
}

/// Move a row-major `[m, n]` product into the folded NCHW layout: column
/// `j` is pixel `j % hw` of item `j / hw`.
fn fold_layout(plain: &[f32], m: usize, n: usize, hw: usize) -> Vec<f32> {
    let mut out = vec![f32::NAN; m * n];
    for i in 0..m {
        for j in 0..n {
            out[(j / hw) * m * hw + i * hw + j % hw] = plain[i * n + j];
        }
    }
    out
}

fn rand_f32(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len).map(|_| rng.random_range(-1.0f32..1.0)).collect()
}

/// Run the driver over every fold geometry and thread count of one shape
/// and compare with `want` (the row-major reference) bit for bit.
fn check_all_paths(label: &str, m: usize, k: usize, n: usize, want: &[f32], run: impl Fn(usize, &mut [f32], usize)) {
    for hw in hws(n) {
        let want = fold_layout(want, m, n, hw);
        for threads in THREADS {
            let mut got = vec![f32::NAN; m * n]; // previous contents must be ignored
            run(threads, &mut got, hw);
            let same = got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "{label} m={m} k={k} n={n} hw={hw} threads={threads}: differs from the reference");
        }
    }
}

#[test]
fn f32_driver_matches_reference_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(1);
    for m in MS {
        for k in KS {
            for n in ns() {
                let a = rand_f32(m * k, &mut rng);
                let b = rand_f32(k * n, &mut rng);
                let bias = rand_f32(m, &mut rng);
                let act = Activation::Mish;
                let mut want = vec![0.0f32; m * n];
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = bias[i];
                        for p in 0..k {
                            acc += a[i * k + p] * b[p * n + j];
                        }
                        want[i * n + j] = act.eval(acc);
                    }
                }
                let kern = BiasAct { bias: &bias, act };
                check_all_paths("f32", m, k, n, &want, |threads, c, hw| {
                    gemm_fused(threads, &kern, &a, &b, c, m, k, n, hw)
                });
                assert_matmul_exact(&a, &b, m, k, n);
            }
        }
    }
}

/// Eager [`matmul`] of `a: [m, k]` and `b: [k, n]` against the plain
/// product, each element summed from `0.0` in ascending `k`, bit for bit.
fn assert_matmul_exact(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let got = matmul(&Tensor::from_vec(a.to_vec(), &[m, k]), &Tensor::from_vec(b.to_vec(), &[k, n]));
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            let g = got.as_slice()[i * n + j];
            assert_eq!(g.to_bits(), acc.to_bits(), "matmul m={m} k={k} n={n} at ({i}, {j}): {g} vs {acc}");
        }
    }
}
