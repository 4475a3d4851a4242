//! Matrix multiplication: the one GEMM driver of the workspace.
//!
//! Every product bottoms out in [`gemm_fused`], so this is the hottest code
//! in the workspace: the planned executor's convolutions (and linear layers,
//! planned as 1×1 convolutions), and on the autograd tape eager [`matmul`]
//! and the eager conv's forward, input gradient and weight gradient.
//!
//! [`gemm_fused`] starts each accumulator at its row's bias and applies the
//! [`BiasAct`] activation at writeback; the tape's products go through
//! [`gemm_into`], the same call with a zero bias and no activation. It
//! splits the work into column panels across threads, `I_TILE`×`J_TILE`
//! wide tiles, and a narrow tile for the columns left over (all of them
//! when `n < J_TILE`), and writes the result in batch-folded NCHW order, so
//! one GEMM can cover several batch items.
//!
//! The narrow tile vectorises over output rows instead of columns: 8 rows
//! × 4 columns per pass over `k`, weight rows read in place and `B[p, j]`
//! broadcast, so a 2×2 feature map (`n = 4`) still keeps a register tile
//! busy. It never copies or transposes the weights.
//!
//! Every path computes an output element as its bias plus plain
//! `acc + a·b` steps in ascending `k` — no FMA contraction, no reordering,
//! no skipped zero terms (`0·NaN` is NaN) — so the bits of an element
//! depend on neither the thread count, the fold group, nor the tile that
//! produced it.

use crate::nn::Activation;
use crate::tensor::Tensor;

/// Below this many multiply-adds the threading overhead dominates.
const PAR_THRESHOLD: usize = 1 << 18;

/// `C = A · B` for row-major `A: [m,k]`, `B: [k,n]`; returns `C: [m,n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul lhs must be 2-D, got {:?}", a.shape());
    assert_eq!(b.ndim(), 2, "matmul rhs must be 2-D, got {:?}", b.shape());
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul inner dims differ: {:?} · {:?}", a.shape(), b.shape());
    let mut out = vec![0.0f32; m * n];
    gemm_into(a.as_slice(), b.as_slice(), &mut out, m, k, n);
    Tensor::from_vec(out, &[m, n])
}

/// `C = A · B` for row-major `A: [m,k]`, `B: [k,n]`, **overwriting** the
/// row-major `[m, n]` buffer `c`: [`gemm_fused`] with a zero bias and no
/// activation, on [`effective_threads`] workers.
pub fn gemm_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let zero = vec![0.0f32; m];
    let kern = BiasAct { bias: &zero, act: Activation::Linear };
    gemm_fused(effective_threads(), &kern, a, b, c, m, k, n, n.max(1));
}

/// Column width of the wide register tile (4 SSE vectors).
pub const J_TILE: usize = 16;
/// Row height of the wide register tile.
const I_TILE: usize = 4;
/// Output rows the narrow tile vectorises over.
const R_TILE: usize = 8;
/// Output columns the narrow tile computes per pass over `k`.
const N_TILE: usize = 4;

/// The conv epilogue of [`gemm_fused`]: accumulators start at the row's
/// bias and the activation is applied to the finished sum.
#[derive(Clone, Copy, Debug)]
pub struct BiasAct<'a> {
    /// One bias per output row.
    pub bias: &'a [f32],
    /// Activation applied at writeback.
    pub act: Activation,
}

/// The wide tile: rows `i0..i0+ib` (`ib ≤ I_TILE`) × columns
/// `j..j+J_TILE` of `A·B` accumulated onto `acc` (which holds the biases)
/// in ascending `k`, `ib`×`J_TILE` accumulators held in registers. Kept
/// out of line: inlined into `fused_cols` it measured a few percent
/// slower on the micro model's forward.
#[allow(clippy::too_many_arguments)] // flat GEMM geometry plus the tile origin
#[inline(never)]
fn wide_tile(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    i0: usize,
    ib: usize,
    j: usize,
    acc: &mut [[f32; J_TILE]; I_TILE],
) {
    match ib {
        4 => tile_rows::<4>(a, b, k, n, i0, j, acc),
        3 => tile_rows::<3>(a, b, k, n, i0, j, acc),
        2 => tile_rows::<2>(a, b, k, n, i0, j, acc),
        _ => tile_rows::<1>(a, b, k, n, i0, j, acc),
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)] // flat GEMM geometry plus the tile origin
#[allow(clippy::needless_range_loop)] // p walks A rows and B rows in lockstep
fn tile_rows<const IB: usize>(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    i0: usize,
    j: usize,
    acc: &mut [[f32; J_TILE]; I_TILE],
) {
    let arows: [&[f32]; IB] = std::array::from_fn(|ii| &a[(i0 + ii) * k..(i0 + ii) * k + k]);
    let mut r: [[f32; J_TILE]; IB] = std::array::from_fn(|ii| acc[ii]);
    for p in 0..k {
        let off = p * n + j;
        let bt: &[f32; J_TILE] = b[off..off + J_TILE].try_into().expect("tile lies inside B");
        for ii in 0..IB {
            let av = arows[ii][p];
            for t in 0..J_TILE {
                r[ii][t] += av * bt[t];
            }
        }
    }
    acc[..IB].copy_from_slice(&r);
}

/// The narrow tile, for columns left over after the wide tiles (all of
/// them when `n < J_TILE`): `R_TILE` output rows × `N_TILE` columns, one
/// accumulator vector per column, broadcasting `B[p, j]` across rows read
/// in place from `A`. Rows past `m` and columns past `j1` repeat the last
/// valid one; the caller writes back only the valid part.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // flat GEMM geometry plus the tile origin
fn narrow_tile(
    bias: &[f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    i0: usize,
    j0: usize,
    j1: usize,
) -> [[f32; R_TILE]; N_TILE] {
    let rows: [usize; R_TILE] = std::array::from_fn(|r| (i0 + r).min(m - 1));
    let cols: [usize; N_TILE] = std::array::from_fn(|t| (j0 + t).min(j1 - 1));
    let arows: [&[f32]; R_TILE] = std::array::from_fn(|r| &a[rows[r] * k..rows[r] * k + k]);
    let mut acc = [std::array::from_fn::<_, R_TILE, _>(|r| bias[rows[r]]); N_TILE];
    for p in 0..k {
        let av: [f32; R_TILE] = std::array::from_fn(|r| arows[r][p]);
        let brow = &b[p * n..p * n + n];
        for t in 0..N_TILE {
            let bv = brow[cols[t]];
            for r in 0..R_TILE {
                acc[t][r] += av[r] * bv;
            }
        }
    }
    acc
}

/// `C = act(bias + A·B)` for `A: [m, k]`, `B: [k, n]`, written to `c`
/// in batch-folded NCHW order (previous contents ignored): column `j` of
/// the product is pixel `j % hw` of item `j / hw`, and item `b`'s `[m, hw]`
/// plane starts at `c[b·m·hw]`. `hw = n` gives a plain row-major `[m, n]`.
///
/// Work splits into **column panels**, one per worker (at most `threads`,
/// never narrower than one wide tile, serial below 2^18 multiply-adds);
/// inside a panel, `I_TILE`×`J_TILE` wide tiles cover whole `J_TILE`
/// column blocks and the narrow tile covers the rest. Each output element is computed once, as
/// its bias plus `acc + a·b` steps in ascending `k`, so results are
/// **bit-identical for any thread count, fold group, or tile path**.
#[allow(clippy::too_many_arguments)] // flat GEMM geometry plus the epilogue
pub fn gemm_fused(
    threads: usize,
    kern: &BiasAct<'_>,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    hw: usize,
) {
    assert!(hw > 0 && n.is_multiple_of(hw), "GEMM columns {n} are not whole items of {hw} pixels");
    assert_eq!(a.len(), m * k, "A must be [{m}, {k}]");
    assert_eq!(b.len(), k * n, "B must be [{k}, {n}]");
    assert_eq!(c.len(), m * n, "C must hold {m}×{n} elements");
    if m == 0 || n == 0 {
        return;
    }
    let out = OutPtr { ptr: c.as_mut_ptr(), m, hw };
    let panels = threads.min(n / J_TILE).max(1);
    if panels <= 1 || m * k * n < PAR_THRESHOLD {
        // SAFETY: `out` covers all of `c` (len m·n, checked above) and
        // there is no other writer.
        unsafe { fused_cols(kern, a, b, out, m, k, n, 0, n) };
        return;
    }
    // Tile-aligned panel width; the last panel absorbs the remainder
    // (including the narrow columns).
    let per = (n / panels / J_TILE).max(1) * J_TILE;
    std::thread::scope(|scope| {
        for idx in 0..panels {
            let j0 = idx * per;
            let j1 = if idx == panels - 1 { n } else { j0 + per };
            scope.spawn(move || {
                // SAFETY: panels partition [0, n) disjointly, `fused_cols`
                // writes only the elements of columns [j0, j1), and the
                // column → element map is injective; `c` outlives the scope.
                unsafe { fused_cols(kern, a, b, out, m, k, n, j0, j1) };
            });
        }
    });
}

/// Base pointer of the output plus the fold geometry that maps a product
/// column to its destination.
#[derive(Clone, Copy)]
struct OutPtr {
    ptr: *mut f32,
    m: usize,
    hw: usize,
}

// SAFETY: the pointer is only written through by `fused_cols`, whose
// callers give each thread a disjoint column range; distinct (row, column)
// pairs map to distinct elements, so no element is written twice. `m` and
// `hw` are plain integers.
unsafe impl Send for OutPtr {}
// SAFETY: as for `Send` — shared copies never write the same element.
unsafe impl Sync for OutPtr {}

impl OutPtr {
    /// Store `vals` as row `i`, columns `j, j+1, …` of the product: one
    /// contiguous copy per batch item the run touches.
    ///
    /// # Safety
    /// Row `i` and the columns written must lie inside the `m`×`n` product
    /// this pointer was made for, and belong to the calling thread.
    #[inline(always)]
    unsafe fn write_run(self, i: usize, j: usize, mut vals: &[f32]) {
        let (mut item, mut pix) = (j / self.hw, j % self.hw);
        while !vals.is_empty() {
            let len = vals.len().min(self.hw - pix);
            let dst = self.ptr.add((item * self.m + i) * self.hw + pix);
            std::ptr::copy_nonoverlapping(vals.as_ptr(), dst, len);
            vals = &vals[len..];
            item += 1;
            pix = 0;
        }
    }
}

/// Compute columns `[j0, j1)` of the product across all `m` rows.
///
/// # Safety
/// `c` must be valid for writes of the whole `m`×`n` product, and no other
/// thread may concurrently write columns `[j0, j1)` of it.
#[allow(clippy::too_many_arguments)] // flat GEMM geometry plus the panel bounds
#[allow(clippy::needless_range_loop)] // r indexes rows inside per-column accumulators
unsafe fn fused_cols(
    kern: &BiasAct<'_>,
    a: &[f32],
    b: &[f32],
    c: OutPtr,
    m: usize,
    k: usize,
    n: usize,
    j0: usize,
    j1: usize,
) {
    let jw = j0 + (j1 - j0) / J_TILE * J_TILE;
    let mut i = 0;
    while i < m && j0 < jw {
        let ib = I_TILE.min(m - i);
        let mut j = j0;
        while j < jw {
            let mut acc: [[f32; J_TILE]; I_TILE] =
                std::array::from_fn(|ii| [kern.bias[(i + ii).min(m - 1)]; J_TILE]);
            wide_tile(a, b, k, n, i, ib, j, &mut acc);
            for (ii, row) in acc.iter().enumerate().take(ib) {
                let vals: [f32; J_TILE] = std::array::from_fn(|t| kern.act.eval(row[t]));
                c.write_run(i + ii, j, &vals);
            }
            j += J_TILE;
        }
        i += ib;
    }
    let mut i = 0;
    while i < m && jw < j1 {
        let rb = R_TILE.min(m - i);
        let mut j = jw;
        while j < j1 {
            let jb = N_TILE.min(j1 - j);
            let acc = narrow_tile(kern.bias, a, b, m, k, n, i, j, j1);
            for r in 0..rb {
                let vals: [f32; N_TILE] = std::array::from_fn(|t| kern.act.eval(acc[t][r]));
                c.write_run(i + r, j, &vals[..jb]);
            }
            j += jb;
        }
        i += rb;
    }
}

/// Worker threads GEMM fans out across, resolved **once per process**: a
/// `PLATTER_THREADS` env override (any integer ≥ 1) wins, otherwise
/// `std::thread::available_parallelism()`. Cached in a `OnceLock` — the
/// previous per-call syscall showed up in profiles, and a pinned value lets
/// benches and the profiler record the thread count they actually ran with.
pub fn effective_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        match std::env::var("PLATTER_THREADS").ok().and_then(|v| v.trim().parse::<usize>().ok()) {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.as_slice()[i * k + p] * b.as_slice()[p * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::randn(&[7, 7], &mut rng);
        let mut eye = Tensor::zeros(&[7, 7]);
        for i in 0..7 {
            eye.as_mut_slice()[i * 7 + i] = 1.0;
        }
        let c = matmul(&a, &eye);
        for (x, y) in c.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matches_naive_on_odd_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (17, 9, 13), (130, 40, 33)] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            let fast = matmul(&a, &b);
            let slow = naive(&a, &b);
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn non_finite_b_propagates_to_every_column() {
        // 0·NaN and 0·±Inf are NaN, so a zero weight must not hide a
        // non-finite input — in the wide tile (columns 0–15) or in the
        // narrow tile (column 16).
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let a = Tensor::from_vec(vec![0.0], &[1, 1]);
            let b = Tensor::from_vec(vec![bad; J_TILE + 1], &[1, J_TILE + 1]);
            let c = matmul(&a, &b);
            for (j, v) in c.as_slice().iter().enumerate() {
                assert!(v.is_nan(), "B = {bad}: column {j} is {v}, want NaN");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn rejects_mismatched_inner_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        matmul(&a, &b);
    }
}
