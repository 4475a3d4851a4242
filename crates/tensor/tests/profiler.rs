//! Integration tests for the per-op profiler threaded through the planned
//! executor: profiled runs are bit-identical to unprofiled runs, the
//! per-op wall times account for most of the measured total, and the
//! disabled path (plain `run`) leaves the plan — and therefore the fast
//! path — completely untouched.

use platter_obs::{OpCost, ProfileReport, Profiler};
use platter_tensor::nn::{Activation, ConvBlock};
use platter_tensor::{Conv2dSpec, Executor, Mode, Planner, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two fused conv blocks: enough structure for distinct op kinds without
/// making the suite slow.
fn build_exec() -> Executor {
    let mut rng = StdRng::seed_from_u64(9);
    let a = ConvBlock::new("a", 3, 8, 3, Conv2dSpec::same(3), Activation::Mish, &mut rng);
    let b = ConvBlock::new("b", 8, 8, 3, Conv2dSpec::same(3), Activation::Leaky, &mut rng);
    let mut p = Planner::new();
    let x = p.input(&[3, 16, 16]);
    let ya = a.trace(&mut p, x, Mode::Infer);
    let yb = b.trace(&mut p, ya, Mode::Infer);
    Executor::new(p.finish(&[yb]))
}

fn input(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::randn(&[2, 3, 16, 16], &mut rng)
}

#[test]
fn profiled_outputs_are_bit_identical_to_unprofiled() {
    let mut exec = build_exec();
    let x = input(1);
    let base: Vec<Tensor> = exec.run(&[&x]).to_vec();
    let mut profile = ProfileReport::new();
    let out = exec.run_profiled(&[&x], &mut profile);
    assert_eq!(out.len(), base.len());
    for (a, b) in base.iter().zip(out) {
        assert_eq!(a.shape(), b.shape());
        assert_eq!(a.as_slice(), b.as_slice(), "profiling must not perturb results");
    }
    assert_eq!(profile.runs(), 1);
}

#[test]
fn sink_sees_every_op_with_its_plan_kind() {
    struct Recorder(Vec<(usize, String)>);
    impl Profiler for Recorder {
        fn record_op(&mut self, step: usize, kind: &str, _nanos: u64, _cost: OpCost) {
            self.0.push((step, kind.to_string()));
        }
        fn record_run(&mut self, _nanos: u64) {}
    }

    let mut exec = build_exec();
    let kinds = exec.plan().op_kinds();
    let mut rec = Recorder(Vec::new());
    let _ = exec.run_profiled(&[&input(2)], &mut rec);
    assert_eq!(rec.0.len(), kinds.len(), "one record per plan op");
    for (i, (step, kind)) in rec.0.iter().enumerate() {
        assert_eq!(*step, i, "steps arrive in execution order");
        assert_eq!(kind, &kinds[i]);
    }
}

#[test]
fn op_times_sum_within_tolerance_of_total_wall_time() {
    let mut exec = build_exec();
    let x = input(3);
    let _ = exec.run(&[&x]); // warm the arena outside the measurement
    let mut profile = ProfileReport::new();
    for _ in 0..10 {
        let _ = exec.run_profiled(&[&x], &mut profile);
    }
    assert_eq!(profile.runs(), 10);
    let (ops, total) = (profile.op_nanos(), profile.total_nanos());
    assert!(ops <= total, "op intervals are disjoint subsets of the run: {ops} vs {total}");
    assert!(
        profile.op_time_share() >= 0.5,
        "per-op times must account for most of the wall time, got {:.1}%",
        profile.op_time_share() * 100.0
    );
}

#[test]
fn disabled_profiling_leaves_the_plan_unchanged() {
    let mut exec = build_exec();
    let kinds_before = exec.plan().op_kinds();
    let (values, slots) = (exec.plan().num_values(), exec.plan().num_slots());
    let x = input(4);
    // Unprofiled and profiled runs interleaved: neither mode may rewrite
    // the plan (profiling is a pure observer, not an instrumentation pass).
    for _ in 0..3 {
        let _ = exec.run(&[&x]);
    }
    let mut profile = ProfileReport::new();
    let _ = exec.run_profiled(&[&x], &mut profile);
    let _ = exec.run(&[&x]);
    assert_eq!(exec.plan().op_kinds(), kinds_before, "no ops added or rewritten");
    assert_eq!(exec.plan().num_values(), values);
    assert_eq!(exec.plan().num_slots(), slots);
}

#[test]
fn sink_receives_flops_and_gemm_shapes() {
    // conv a: 3→8 channels, 3×3 over 16×16; conv b: 8→8, 3×3 over 16×16.
    let per_item = [2 * 8 * 27 * 256u64, 2 * 8 * 72 * 256];
    let mut exec = build_exec();
    let convs: Vec<usize> =
        exec.plan().op_kinds().iter().enumerate().filter(|(_, k)| k.starts_with("conv")).map(|(i, _)| i).collect();
    assert_eq!(convs.len(), 2);
    for (&step, &flops) in convs.iter().zip(&per_item) {
        for n in [1usize, 2, 8] {
            assert_eq!(exec.plan().op_flops(step, n), flops * n as u64, "step {step} at batch {n}");
        }
    }

    let mut profile = ProfileReport::new();
    let _ = exec.run_profiled(&[&input(5)], &mut profile); // batch 2
    for (&step, (&flops, k)) in convs.iter().zip(per_item.iter().zip([27usize, 72])) {
        let s = &profile.steps()[step];
        assert_eq!(s.stat.flops, 2 * flops);
        let g = s.gemm.expect("conv steps carry their GEMM shape");
        assert_eq!((g.m, g.k), (8, k));
        assert_eq!(g.n, g.fold.min(2) * 256, "one GEMM covers min(fold, batch) items");
    }
    assert!(profile.steps()[0].gemm.is_none(), "the input op runs no GEMM");
    assert!(profile.to_json().contains("\"gflops\""));
}
