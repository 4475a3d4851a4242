//! The per-op profiler sink: the planned executor's `run_profiled` calls
//! [`Profiler::record_op`] around every op it executes and
//! [`Profiler::record_run`] around the whole pass; [`ProfileReport`]
//! aggregates those into per-kind and per-step tables with a renderable
//! top-K view and a JSON export for `results/PROFILE_*.json`.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::json;

/// GEMM geometry of a convolution step: the widest product it ran at this
/// batch size and the plan's fold group for it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GemmShape {
    /// Output rows (output channels).
    pub m: usize,
    /// Shared dimension (`cin·kh·kw`).
    pub k: usize,
    /// Output columns of one GEMM call (`items·hout·wout`).
    pub n: usize,
    /// Most batch items one GEMM call covers.
    pub fold: usize,
}

/// Static cost of one executed plan op, as the planner computes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Bytes touched: inputs + outputs + parameters.
    pub bytes: u64,
    /// Arithmetic operations (a multiply-add counts two).
    pub flops: u64,
    /// GEMM geometry, for convolutions.
    pub gemm: Option<GemmShape>,
}

/// Receives one event per executed plan op. Implementations must be cheap —
/// they run inside the inference loop.
pub trait Profiler {
    /// One op finished: plan step index, structural kind label (e.g.
    /// `conv2d[Mish]`), wall time in nanoseconds, and its [`OpCost`].
    fn record_op(&mut self, step: usize, kind: &str, nanos: u64, cost: OpCost);

    /// One full pass over the plan finished (`nanos` is the wall time of the
    /// whole execute call, op loop plus output copies).
    fn record_run(&mut self, nanos: u64);
}

/// Accumulated cost of one op kind or plan step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStat {
    /// Times the op executed.
    pub calls: u64,
    /// Total wall nanoseconds.
    pub nanos: u64,
    /// Total bytes touched (inputs + outputs + parameters, per call).
    pub bytes: u64,
    /// Total arithmetic operations.
    pub flops: u64,
}

impl OpStat {
    fn absorb(&mut self, nanos: u64, cost: &OpCost) {
        self.calls += 1;
        self.nanos += nanos;
        self.bytes += cost.bytes;
        self.flops += cost.flops;
    }

    /// Achieved GFLOP/s (0 when no time was recorded).
    pub fn gflops(&self) -> f64 {
        if self.nanos == 0 {
            return 0.0;
        }
        self.flops as f64 / self.nanos as f64
    }
}

/// One plan step's accumulated cost plus its kind label.
#[derive(Clone, Debug, Default)]
pub struct StepStat {
    /// Structural kind of the op at this step.
    pub kind: String,
    /// Accumulated cost across runs.
    pub stat: OpStat,
    /// GEMM geometry of the most recent call, for convolutions.
    pub gemm: Option<GemmShape>,
}

/// The standard [`Profiler`]: aggregates events per op kind and per plan
/// step across any number of runs.
#[derive(Clone, Debug, Default)]
pub struct ProfileReport {
    kinds: BTreeMap<String, OpStat>,
    steps: Vec<StepStat>,
    total_nanos: u64,
    runs: u64,
}

impl Profiler for ProfileReport {
    fn record_op(&mut self, step: usize, kind: &str, nanos: u64, cost: OpCost) {
        if step >= self.steps.len() {
            self.steps.resize_with(step + 1, StepStat::default);
        }
        let s = &mut self.steps[step];
        if s.kind.is_empty() {
            s.kind = kind.to_string();
        }
        s.stat.absorb(nanos, &cost);
        s.gemm = cost.gemm;
        self.kinds.entry(kind.to_string()).or_default().absorb(nanos, &cost);
    }

    fn record_run(&mut self, nanos: u64) {
        self.total_nanos += nanos;
        self.runs += 1;
    }
}

impl ProfileReport {
    /// An empty report.
    pub fn new() -> ProfileReport {
        ProfileReport::default()
    }

    /// Full passes recorded via [`Profiler::record_run`].
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Total wall nanoseconds across recorded runs.
    pub fn total_nanos(&self) -> u64 {
        self.total_nanos
    }

    /// Sum of per-op nanoseconds (always ≤ total: the difference is loop
    /// and output-copy overhead the per-op timers don't see).
    pub fn op_nanos(&self) -> u64 {
        self.steps.iter().map(|s| s.stat.nanos).sum()
    }

    /// Fraction of total wall time attributed to individual ops — the
    /// "timings sum to within tolerance of the measured total" check.
    pub fn op_time_share(&self) -> f64 {
        if self.total_nanos == 0 {
            return 0.0;
        }
        self.op_nanos() as f64 / self.total_nanos as f64
    }

    /// Per-step stats in plan order.
    pub fn steps(&self) -> &[StepStat] {
        &self.steps
    }

    /// The `k` most expensive op kinds, by total time, with their share of
    /// total wall time.
    pub fn top_k(&self, k: usize) -> Vec<(String, OpStat, f64)> {
        let mut kinds: Vec<(String, OpStat)> =
            self.kinds.iter().map(|(name, stat)| (name.clone(), *stat)).collect();
        // BTreeMap iteration gives a deterministic name order for ties.
        kinds.sort_by_key(|k| std::cmp::Reverse(k.1.nanos));
        kinds
            .into_iter()
            .take(k)
            .map(|(name, stat)| {
                let share =
                    if self.total_nanos == 0 { 0.0 } else { stat.nanos as f64 / self.total_nanos as f64 };
                (name, stat, share)
            })
            .collect()
    }

    /// Render the top-K table as aligned text, e.g.:
    ///
    /// ```text
    /// kind                        calls     ms/run   share      MB/run   GFLOP/s
    /// conv2d[Mish]                  570      35.21   87.3%       42.11      9.40
    /// maxpool5s1                     90       1.02    2.5%        8.40      0.61
    /// ```
    pub fn render_table(&self, k: usize) -> String {
        let runs = self.runs.max(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28}{:>7}{:>11}{:>8}{:>12}{:>10}",
            "kind", "calls", "ms/run", "share", "MB/run", "GFLOP/s"
        );
        for (name, stat, share) in self.top_k(k) {
            let _ = writeln!(
                out,
                "{:<28}{:>7}{:>11.2}{:>7.1}%{:>12.2}{:>10.2}",
                name,
                stat.calls,
                stat.nanos as f64 / 1e6 / runs as f64,
                share * 100.0,
                stat.bytes as f64 / (1024.0 * 1024.0) / runs as f64,
                stat.gflops(),
            );
        }
        let _ = writeln!(
            out,
            "{:<28}{:>7}{:>11.2}{:>7.1}%",
            "total (wall)",
            self.runs,
            self.total_nanos as f64 / 1e6 / runs as f64,
            100.0
        );
        out
    }

    /// Serialise the whole report as a JSON object:
    ///
    /// ```json
    /// {"runs": N, "total_ms": t, "op_time_ms": o, "op_time_share": s,
    ///  "kinds": [{"kind": k, "calls": c, "ms": m, "share": f, "mb": b,
    ///             "gflop": g, "gflops": r}, ...],
    ///  "steps": [{"step": i, "kind": k, "calls": c, "ms": m, "mb": b,
    ///             "gflop": g, "gflops": r, "m": .., "k": .., "n": .., "fold": ..}, ...]}
    /// ```
    ///
    /// `kinds` is sorted by time descending; `ms`/`mb`/`gflop` are totals
    /// across all runs (divide by `runs` for per-pass numbers), `gflops` the
    /// achieved rate. The GEMM fields `m`/`k`/`n`/`fold` appear on
    /// convolution steps only.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"runs\": {}, \"total_ms\": {:.6}, \"op_time_ms\": {:.6}, \"op_time_share\": {:.6}, \"kinds\": [",
            self.runs,
            self.total_nanos as f64 / 1e6,
            self.op_nanos() as f64 / 1e6,
            self.op_time_share()
        );
        for (i, (name, stat, share)) in self.top_k(usize::MAX).into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"kind\": ");
            json::push_str(&mut out, &name);
            let _ = write!(
                out,
                ", \"calls\": {}, \"ms\": {:.6}, \"share\": {:.6}, \"mb\": {:.6}, \"gflop\": {:.6}, \"gflops\": {:.3}}}",
                stat.calls,
                stat.nanos as f64 / 1e6,
                share,
                stat.bytes as f64 / (1024.0 * 1024.0),
                stat.flops as f64 / 1e9,
                stat.gflops()
            );
        }
        out.push_str("], \"steps\": [");
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{{\"step\": {i}, \"kind\": ");
            json::push_str(&mut out, &s.kind);
            let _ = write!(
                out,
                ", \"calls\": {}, \"ms\": {:.6}, \"mb\": {:.6}, \"gflop\": {:.6}, \"gflops\": {:.3}",
                s.stat.calls,
                s.stat.nanos as f64 / 1e6,
                s.stat.bytes as f64 / (1024.0 * 1024.0),
                s.stat.flops as f64 / 1e9,
                s.stat.gflops()
            );
            if let Some(g) = s.gemm {
                let _ = write!(out, ", \"m\": {}, \"k\": {}, \"n\": {}, \"fold\": {}", g.m, g.k, g.n, g.fold);
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ProfileReport {
        let mut r = ProfileReport::new();
        let conv = |bytes, flops| OpCost {
            bytes,
            flops,
            gemm: Some(GemmShape { m: 8, k: 27, n: 64, fold: 1 }),
        };
        for _ in 0..2 {
            r.record_op(0, "input", 100, OpCost { bytes: 64, ..OpCost::default() });
            r.record_op(1, "conv2d[Mish]", 10_000, conv(4096, 20_000));
            r.record_op(2, "conv2d[Mish]", 30_000, conv(8192, 60_000));
            r.record_op(3, "maxpool5s1", 2_000, OpCost { bytes: 1024, flops: 500, gemm: None });
            r.record_run(43_000);
        }
        r
    }

    #[test]
    fn aggregates_per_kind_and_per_step() {
        let r = sample_report();
        assert_eq!(r.runs(), 2);
        assert_eq!(r.steps().len(), 4);
        assert_eq!(r.steps()[2].stat.calls, 2);
        assert_eq!(r.steps()[2].stat.nanos, 60_000);
        let top = r.top_k(2);
        assert_eq!(top[0].0, "conv2d[Mish]");
        assert_eq!(top[0].1.calls, 4);
        assert_eq!(top[0].1.nanos, 80_000);
        assert_eq!(top[1].0, "maxpool5s1");
        // 160k flops over 80 µs = 2 GFLOP/s.
        assert_eq!(top[0].1.flops, 160_000);
        assert!((top[0].1.gflops() - 2.0).abs() < 1e-12);
        assert_eq!(r.steps()[1].gemm, Some(GemmShape { m: 8, k: 27, n: 64, fold: 1 }));
        assert_eq!(r.steps()[3].gemm, None);
    }

    #[test]
    fn op_time_share_is_op_sum_over_total() {
        let r = sample_report();
        assert_eq!(r.op_nanos(), 84_200);
        assert_eq!(r.total_nanos(), 86_000);
        assert!((r.op_time_share() - 84_200.0 / 86_000.0).abs() < 1e-12);
    }

    #[test]
    fn table_and_json_render() {
        let r = sample_report();
        let table = r.render_table(3);
        assert!(table.contains("conv2d[Mish]"));
        assert!(table.contains("total (wall)"));
        let json = r.to_json();
        assert!(json.contains("\"op_time_share\""));
        assert!(json.contains("\"kind\": \"conv2d[Mish]\""));
        assert!(json.contains("\"m\": 8, \"k\": 27, \"n\": 64, \"fold\": 1}"));
        assert!(json.contains("\"gflops\": 2.000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_report_is_safe() {
        let r = ProfileReport::new();
        assert_eq!(r.op_time_share(), 0.0);
        assert!(r.top_k(5).is_empty());
        r.to_json();
        r.render_table(5);
    }
}
