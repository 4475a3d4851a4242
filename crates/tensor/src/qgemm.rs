//! The INT8 half of the fused conv GEMM: i8 weights × i8 activations with
//! i32 accumulation and a dequant+bias+activation epilogue.
//!
//! [`DequantBiasAct`] is a [`FusedKernel`]: `A` is the per-channel quantized
//! weight matrix (`[m, k]` row-major i8), `B` the quantized activation
//! column matrix (`[k, n]` i8), and each finished i32 accumulator is
//! dequantized (`acc · in_scale · wscale[row]`), biased and activated while
//! still in registers. Tiling, column-panel threading, the narrow tile for
//! small `n`, batch folding and the writeback all live in the shared driver
//! [`crate::gemm::gemm_fused`]; this module supplies only the epilogue and
//! the microkernels — the portable one ([`crate::gemm::portable_tile`]) and
//! an AVX2 wide tile.
//!
//! The accumulator is an exact integer sum, so every decomposition —
//! serial, panelled, folded, SIMD or scalar — produces the same i32 per
//! element, and the epilogue performs the identical three f32 ops per
//! element: results are **bit-identical for any thread count** and any
//! instruction set.
//!
//! The SIMD tile (`std::arch`, x86-64) widens i8 to i16 and feeds
//! `_mm256_madd_epi16` (AVX2, runtime-detected) with two interleaved B rows
//! per step: `madd` multiplies 16 i16 pairs and sums adjacent products into
//! 8 i32 lanes, i.e. two k-steps of 16 columns in a handful of
//! instructions. Products of two i8 are ≤ 127² = 16129, so the pairwise i16
//! multiply is exact and the i32 lanes cannot overflow before the add.

use crate::gemm::{portable_tile, FusedKernel, I_TILE, J_TILE};
use crate::nn::Activation;

/// Largest shared dimension the i32 accumulator provably cannot overflow
/// at: `k · 127 · 127 < 2³¹` leaves headroom up to `k = 2¹⁷`.
pub const K_MAX: usize = 1 << 17;

/// The INT8 conv epilogue: `act(acc · in_scale · wscales[row] + bias[row])`
/// on the exact i32 sum of i8 products.
#[derive(Clone, Copy, Debug)]
pub struct DequantBiasAct<'a> {
    /// Per-output-row weight scales.
    pub wscales: &'a [f32],
    /// Activation scale the column matrix was quantized with.
    pub in_scale: f32,
    /// One f32 bias per output row, added after dequantization.
    pub bias: &'a [f32],
    /// Activation applied at writeback.
    pub act: Activation,
}

impl FusedKernel for DequantBiasAct<'_> {
    type A = i8;
    type B = i8;
    type Acc = i32;
    const K_MAX: usize = K_MAX;

    #[inline(always)]
    fn init(&self, _row: usize) -> i32 {
        0
    }

    #[inline(always)]
    fn mac(acc: i32, a: i8, b: i8) -> i32 {
        acc + a as i32 * b as i32
    }

    #[inline(always)]
    fn finish(&self, row: usize, acc: i32) -> f32 {
        self.act.eval(acc as f32 * (self.in_scale * self.wscales[row]) + self.bias[row])
    }

    fn wide_tile(
        &self,
        a: &[i8],
        b: &[i8],
        k: usize,
        n: usize,
        i0: usize,
        ib: usize,
        j: usize,
        acc: &mut [[i32; J_TILE]; I_TILE],
    ) {
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: AVX2 was detected at runtime just above.
            unsafe { qtile_avx2(a, b, k, n, i0, ib, j, acc) };
            return;
        }
        portable_tile::<Self>(a, b, k, n, i0, ib, j, acc)
    }
}

/// Whether the AVX2 tile kernel may be dispatched, resolved once per
/// process. The scalar kernel computes the identical i32 sums, so this is a
/// pure speed switch — never a numerics switch.
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// AVX2 tile kernel: two B rows are widened to i16 and interleaved so one
/// `_mm256_madd_epi16` retires two k-steps for 8 of the tile's 16 columns.
/// Lane order after `unpacklo/hi` is `[0..4, 8..12]` / `[4..8, 12..16]`
/// within 128-bit halves; the scatter at the end restores column order, so
/// the caller sees plain `acc[ii][t]` regardless of the path taken.
///
/// # Safety
/// Caller must ensure AVX2 is available (see [`avx2_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // flat GEMM geometry: strides and tile origin
unsafe fn qtile_avx2(a: &[i8], b: &[i8], k: usize, n: usize, i0: usize, ib: usize, j: usize, acc: &mut [[i32; J_TILE]; I_TILE]) {
    use std::arch::x86_64::*;
    let mut vlo = [_mm256_setzero_si256(); I_TILE];
    let mut vhi = [_mm256_setzero_si256(); I_TILE];
    let bp = b.as_ptr();
    let mut p = 0usize;
    while p + 1 < k {
        // 16 i8 of rows p and p+1, widened to i16.
        let b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(bp.add(p * n + j) as *const __m128i));
        let b1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(bp.add((p + 1) * n + j) as *const __m128i));
        // Interleave (b0, b1) pairs per column so madd's adjacent-pair sum
        // computes a[p]·b[p][col] + a[p+1]·b[p+1][col].
        let lo = _mm256_unpacklo_epi16(b0, b1);
        let hi = _mm256_unpackhi_epi16(b0, b1);
        for ii in 0..ib {
            let a0 = a[(i0 + ii) * k + p] as i16;
            let a1 = a[(i0 + ii) * k + p + 1] as i16;
            let pair = (a0 as u16 as u32 | ((a1 as u16 as u32) << 16)) as i32;
            let av = _mm256_set1_epi32(pair);
            vlo[ii] = _mm256_add_epi32(vlo[ii], _mm256_madd_epi16(av, lo));
            vhi[ii] = _mm256_add_epi32(vhi[ii], _mm256_madd_epi16(av, hi));
        }
        p += 2;
    }
    for ii in 0..ib {
        let mut lo_arr = [0i32; 8];
        let mut hi_arr = [0i32; 8];
        _mm256_storeu_si256(lo_arr.as_mut_ptr() as *mut __m256i, vlo[ii]);
        _mm256_storeu_si256(hi_arr.as_mut_ptr() as *mut __m256i, vhi[ii]);
        for t in 0..4 {
            acc[ii][t] += lo_arr[t];
            acc[ii][4 + t] += hi_arr[t];
            acc[ii][8 + t] += lo_arr[4 + t];
            acc[ii][12 + t] += hi_arr[4 + t];
        }
    }
    // Odd-k tail: one scalar k-step (integer, so order is irrelevant).
    if p < k {
        let off = p * n + j;
        for ii in 0..ib {
            let av = a[(i0 + ii) * k + p] as i32;
            for t in 0..J_TILE {
                acc[ii][t] += av * b[off + t] as i32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_fused;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn rand_i8(len: usize, rng: &mut StdRng) -> Vec<i8> {
        (0..len).map(|_| rng.random_range(-127i32..=127) as i8).collect()
    }

    #[test]
    fn simd_and_portable_tiles_agree_exactly() {
        // Force both tile kernels over the same operands; integer
        // accumulation means "close" is not enough — they must be equal.
        let mut rng = StdRng::seed_from_u64(3);
        let (k, n) = (37usize, 48usize);
        let a = rand_i8(I_TILE * k, &mut rng);
        let b = rand_i8(k * n, &mut rng);
        let mut portable = [[0i32; J_TILE]; I_TILE];
        portable_tile::<DequantBiasAct>(&a, &b, k, n, 0, I_TILE, 16, &mut portable);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut simd = [[0i32; J_TILE]; I_TILE];
            // SAFETY: AVX2 was detected just above.
            unsafe { qtile_avx2(&a, &b, k, n, 0, I_TILE, 16, &mut simd) };
            assert_eq!(simd, portable, "AVX2 tile must reproduce the portable i32 sums exactly");
        }
    }

    #[test]
    #[should_panic(expected = "could overflow the accumulator")]
    fn rejects_unsafely_deep_k() {
        let k = K_MAX;
        let a = vec![0i8; k];
        let b = vec![0i8; k];
        let mut c = vec![0.0f32; 1];
        let kern = DequantBiasAct { wscales: &[1.0], in_scale: 1.0, bias: &[0.0], act: Activation::Linear };
        gemm_fused(1, &kern, &a, &b, &mut c, 1, k, 1, 1);
    }
}
