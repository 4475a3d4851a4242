//! `platter-obs` — the workspace's observability layer.
//!
//! Two pieces, both dependency-free and safe to thread through hot paths:
//!
//! - [`MetricsRegistry`]: a registry of named [`Counter`]s and fixed-bucket
//!   [`Histogram`]s. Handles are `Arc`s registered once and updated with
//!   relaxed atomics — no locks on the record path — then sampled on demand
//!   into a [`MetricsSnapshot`] (plain data + JSON export).
//! - [`Profiler`]: the sink trait the planned executor's `run_profiled`
//!   reports per-op timings to, with [`ProfileReport`] as the standard
//!   aggregating implementation (per-kind and per-step tables, JSON export
//!   for `results/PROFILE_*.json`).
//!
//! Overhead budget: when profiling is *not* requested the executor runs the
//! exact same op sequence with no timer reads — the instrumentation is a
//! dead `Option` check per op. Metrics counters/histograms cost one or two
//! relaxed atomic RMWs per event, cheap enough to leave permanently on.

pub mod metrics;
pub mod profile;

mod json;

pub use metrics::{
    exp_bounds, metric_label, BucketCount, Counter, CounterSnapshot, Histogram,
    HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use profile::{GemmShape, OpCost, OpStat, ProfileReport, Profiler, StepStat};
