//! Frozen parameter storage for compiled plans.
//!
//! A [`crate::plan::Plan`] used to embed every weight buffer inside its op
//! IR, which made a compiled network a single owned blob: serving N workers
//! meant N full copies of the parameters. This module splits the parameters
//! out into [`PlanWeights`], a **write-once** store finalised by
//! [`crate::plan::Planner::finish`] and shared across executors behind an
//! `Arc`. Ops refer to their buffers by [`WeightId`]; mutable state (the
//! activation arena, im2col scratch) stays per-executor.
//!
//! This store is the **single entry point** for weight data — plans never
//! hold raw parameter buffers themselves, and CI greps enforce it.
//!
//! The type is deliberately immutable after construction — there is no
//! `&mut self` method on `PlanWeights` at all, and construction is
//! crate-private. Build-time rewrites (conv+BN folding) happen in the
//! planner's staging buffers *before* the freeze; once frozen, every worker
//! reads the same bytes forever. CI greps for `&mut PlanWeights` to keep it
//! that way.

/// Handle to one parameter buffer inside a [`PlanWeights`]. Cheap to copy;
/// only meaningful for the plan that allocated it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeightId(pub(crate) usize);

/// Immutable, shareable parameter store of a compiled plan: conv weights and
/// folded biases, scale/shift vectors, transposed linear weights. Created by
/// [`crate::plan::Planner::finish`] (crate-private constructor) and held by
/// the [`crate::plan::Plan`] behind an `Arc`, so forking a worker shares the
/// parameters and clones nothing but scratch.
pub struct PlanWeights {
    /// One buffer per [`WeightId`], in allocation order. Boxed slices
    /// rather than `Vec`s: the lengths are final, and the missing spare
    /// capacity makes accidental growth a type error.
    bufs: Vec<Box<[f32]>>,
    /// Content identity, fixed at freeze time (see
    /// [`PlanWeights::fingerprint`]).
    fingerprint: u64,
}

impl PlanWeights {
    /// Freeze staging buffers. Crate-private on purpose: after this call
    /// nothing can obtain mutable access to the contents. The content
    /// fingerprint is computed here, once — it can never go stale because
    /// the buffers can never change again.
    pub(crate) fn freeze(bufs: Vec<Vec<f32>>) -> PlanWeights {
        // FNV-1a over the exact bit patterns, with buffer boundaries mixed
        // in so `[1.0][2.0]` and `[1.0, 2.0]` hash differently.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for v in &bufs {
            mix(v.len() as u64);
            for &x in v {
                mix(x.to_bits() as u64);
            }
        }
        let bufs = bufs.into_iter().map(Vec::into_boxed_slice).collect();
        PlanWeights { bufs, fingerprint: h }
    }

    /// A 64-bit identity of the frozen contents: two `PlanWeights` with the
    /// same fingerprint hold bit-identical parameters (up to hash
    /// collision). This is the version tag the serving registry uses to
    /// label model versions and to assert that a hot-swap actually changed
    /// (or restored) the parameters a pool serves from — cheaper and less
    /// error-prone than threading a user-supplied version string through
    /// every compile.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The buffer behind `id`.
    #[inline]
    pub fn get(&self, id: WeightId) -> &[f32] {
        &self.bufs[id.0]
    }

    /// Element count of the buffer behind `id`.
    #[inline]
    pub fn len_of(&self, id: WeightId) -> usize {
        self.bufs[id.0].len()
    }

    /// Bytes of the buffer behind `id` — the traffic a GEMM streaming this
    /// buffer pays.
    #[inline]
    pub fn bytes_of(&self, id: WeightId) -> usize {
        std::mem::size_of_val::<[f32]>(&self.bufs[id.0])
    }

    /// Number of parameter buffers.
    pub fn num_buffers(&self) -> usize {
        self.bufs.len()
    }

    /// Total elements across all buffers.
    pub fn total_elems(&self) -> usize {
        self.bufs.iter().map(|b| b.len()).sum()
    }

    /// Total parameter bytes — the memory N workers share instead of
    /// replicating.
    pub fn bytes(&self) -> usize {
        self.total_elems() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_preserves_contents_and_sizes() {
        let w = PlanWeights::freeze(vec![vec![1.0, 2.0], vec![], vec![3.0; 5]]);
        assert_eq!(w.num_buffers(), 3);
        assert_eq!(w.get(WeightId(0)), &[1.0, 2.0]);
        assert_eq!(w.get(WeightId(1)), &[] as &[f32]);
        assert_eq!(w.len_of(WeightId(2)), 5);
        assert_eq!(w.bytes_of(WeightId(2)), 20);
        assert_eq!(w.total_elems(), 7);
        assert_eq!(w.bytes(), 28);
    }

    #[test]
    fn fingerprint_is_content_identity() {
        let a = PlanWeights::freeze(vec![vec![1.0, 2.0], vec![3.0]]);
        let b = PlanWeights::freeze(vec![vec![1.0, 2.0], vec![3.0]]);
        assert_eq!(a.fingerprint(), b.fingerprint(), "same contents, same identity");

        let c = PlanWeights::freeze(vec![vec![1.0, 2.5], vec![3.0]]);
        assert_ne!(a.fingerprint(), c.fingerprint(), "one changed value changes identity");

        // Boundary-sensitive: the flat contents match but the split differs.
        let d = PlanWeights::freeze(vec![vec![1.0], vec![2.0, 3.0]]);
        assert_ne!(a.fingerprint(), d.fingerprint(), "buffer boundaries are part of identity");

        // -0.0 and 0.0 are different bit patterns, hence different weights.
        let z0 = PlanWeights::freeze(vec![vec![0.0]]);
        let z1 = PlanWeights::freeze(vec![vec![-0.0]]);
        assert_ne!(z0.fingerprint(), z1.fingerprint());
    }
}
