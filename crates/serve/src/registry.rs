//! The model registry: named, versioned models with safe rollout.
//!
//! A [`ServePool`] serves exactly one *live* model plus any number of
//! explicitly routed ones; this module owns where those models come from
//! and how they are allowed to reach traffic. Every candidate follows the
//! same path (DESIGN.md §15):
//!
//! ```text
//! load_file ──▶ Loaded ──▶ Smoked ──▶ Shadow ──▶ Live ──▶ Draining ──▶ Retired
//!    │            │                      │
//!    ▼ (typed     ▼ (parity smoke        ▼ (canary rollback / stop_shadow
//!      reject)      reject)                → back to Smoked)
//! ```
//!
//! * **Loading is paranoid.** Candidate weights come from CRC-verified
//!   PLTW files; a truncated file, a flipped bit, or a checkpoint from the
//!   wrong architecture is a typed [`RegistryError`] and a typed rejection
//!   counter — never a panic, and never an eviction of the model currently
//!   serving.
//! * **Eligibility is earned.** A loaded candidate is compiled once and
//!   *parity-smoked*: the compiled plan must agree with the eager reference
//!   (the same `|a-b|/(1+|a|)` bounds the compiler's own parity suites
//!   use) before the registry will route, shadow, or swap it.
//! * **Swaps are atomic and off the hot path.** [`ModelRegistry::hot_swap`]
//!   flips the pool's live slot under its lock (`ServePool::swap_live` —
//!   the single flip point, gated in CI); workers notice the epoch bump at
//!   their next batch, fork the new plan, and drop the old one. In-flight
//!   batches finish on the engine they started on; nothing is dropped.
//! * **Shadow costs nothing it shouldn't.** A shadow candidate mirrors a
//!   deterministic fraction of default traffic (keyed to the batch
//!   sequence, so runs replay), its detections are diffed bit-exactly into
//!   observability counters, and neither its answers nor its failures ever
//!   reach a client or the circuit breaker.
//! * **The canary is conservative.** [`ModelRegistry::evaluate_canary`]
//!   promotes only a quiet shadow; disagreement, shadow errors, or an open
//!   circuit breaker roll the candidate back — the pool keeps re-forking
//!   the *incumbent*, never the candidate, exactly as the breaker's
//!   recovery probe expects.
//!
//! Failure injection for all of this lives on the same deterministic
//! [`ServeFaultPlan`] the pool uses, keyed by load attempt
//! (`ServeFaultPlan::at_swap`).

use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use platter_obs::{metric_label, Counter, MetricsRegistry, MetricsSnapshot};
use platter_tensor::parity::output_error;
use platter_tensor::serialize::{Bytes, WeightError};
use platter_tensor::{PlanWeights, Tensor};
use platter_yolo::{CompiledModel, YoloConfig, Yolov4};
use serde::Serialize;

use crate::fault::{ServeFault, ServeFaultPlan};
use crate::pool::ServePool;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One named, versioned, *compiled* model: everything the pool needs to
/// serve it (master engine to fork, weight snapshot for eager replicas,
/// decode config) plus its identity (name, version, weight fingerprint).
///
/// Entries are immutable once built and shared behind `Arc`: the live
/// slot, routes, the shadow slot, worker caches, and the registry record
/// all hold the same allocation, so `Arc::strong_count` is an honest
/// "who can still execute this model" census — the retirement check.
pub(crate) struct ModelEntry {
    name: String,
    version: u64,
    /// Pre-sanitized metric segment, `{name}-v{version}` — the label under
    /// `serve.model.{label}.*`.
    label: String,
    cfg: YoloConfig,
    /// Weight snapshot for eager fallback replicas.
    weights: Bytes,
    /// Master compiled engine; workers fork it.
    engine: CompiledModel,
}

impl ModelEntry {
    pub(crate) fn from_model(name: &str, version: u64, model: &Yolov4) -> ModelEntry {
        ModelEntry {
            name: name.to_string(),
            version,
            label: format!("{}-v{}", metric_label(name), version),
            cfg: model.config.clone(),
            weights: model.save(),
            engine: model.compile_inference(),
        }
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    pub(crate) fn label(&self) -> &str {
        &self.label
    }

    pub(crate) fn cfg(&self) -> &YoloConfig {
        &self.cfg
    }

    pub(crate) fn input_size(&self) -> usize {
        self.cfg.input_size
    }

    /// Content identity of the folded weights (two entries with equal
    /// fingerprints answer bit-identically).
    pub(crate) fn fingerprint(&self) -> u64 {
        self.engine.weights_fingerprint()
    }

    /// Fork a private executor off the master engine (shares plan +
    /// weights, owns only scratch).
    pub(crate) fn fork_engine(&self) -> CompiledModel {
        self.engine.fork_worker()
    }

    /// Build an eager reference replica from the weight snapshot. The
    /// snapshot was produced from a model of this exact config, so a
    /// strict load cannot fail.
    pub(crate) fn eager_replica(&self) -> Yolov4 {
        Yolov4::from_weights(self.cfg.clone(), &self.weights)
            .expect("entry weight snapshot matches its own config")
    }

    pub(crate) fn shared_weights(&self) -> Arc<PlanWeights> {
        self.engine.shared_weights()
    }
}

/// Where a registered model stands on the rollout path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum ModelState {
    /// Weights decoded and verified, engine not yet proven.
    Loaded,
    /// Compiled engine passed the parity smoke — eligible for routing,
    /// shadowing, and swapping.
    Smoked,
    /// Mirroring a fraction of live traffic; answers are diffed, never
    /// returned.
    Shadow,
    /// The pool-wide default: new batches fork this model.
    Live,
    /// Swapped out of the live slot; workers may still hold forks until
    /// their next batch.
    Draining,
    /// Fully released — no executor anywhere can reach these weights.
    Retired,
}

impl std::fmt::Display for ModelState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ModelState::Loaded => "loaded",
            ModelState::Smoked => "smoked",
            ModelState::Shadow => "shadow",
            ModelState::Live => "live",
            ModelState::Draining => "draining",
            ModelState::Retired => "retired",
        };
        f.write_str(s)
    }
}

/// Why the registry refused an operation. Every failure mode of the
/// rollout path is typed; none of them disturb whatever is serving.
#[derive(Debug)]
pub enum RegistryError {
    /// The weight file could not be read.
    Io {
        /// Path that failed.
        path: String,
        /// Underlying error text.
        message: String,
    },
    /// The weight buffer was rejected: truncated, CRC mismatch, wrong
    /// format version, or shapes from a different architecture.
    Weights(WeightError),
    /// The compiled engine disagreed with the eager reference beyond the
    /// parity bounds — the candidate must not serve.
    ParityFail {
        /// Worst per-element relative error observed.
        worst: f32,
        /// Worst per-head mean relative error observed.
        mean: f64,
    },
    /// The parity smoke could not even execute the candidate.
    Smoke {
        /// Executor failure text.
        message: String,
    },
    /// The candidate's input size differs from the pool's — it can never
    /// share the pool's admission pipeline.
    WrongInputSize {
        /// Candidate input size.
        model: usize,
        /// Pool input size.
        pool: usize,
    },
    /// The candidate's architecture does not match what the pool was
    /// compiled to serve (different class count means different head
    /// shapes and decode tables) — routing it would answer requests with a
    /// different label space than every other model in the pool.
    Incompatible {
        /// The key that was refused.
        key: String,
        /// Candidate class count.
        model_classes: usize,
        /// Pool class count.
        pool_classes: usize,
    },
    /// No registered model under this key.
    UnknownModel {
        /// The key looked up.
        key: String,
    },
    /// The model exists but its state does not allow the operation (e.g.
    /// swapping a draining model back in).
    NotEligible {
        /// The key operated on.
        key: String,
        /// Its current state.
        state: ModelState,
    },
    /// A model is already registered under this key.
    Duplicate {
        /// The conflicting key.
        key: String,
    },
    /// A shadow operation was requested with no shadow running.
    NoShadow,
    /// Shadow fraction was not a valid `num/den` with `0 < num <= den`.
    BadFraction {
        /// Numerator given.
        num: u64,
        /// Denominator given.
        den: u64,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Io { path, message } => write!(f, "cannot read {path}: {message}"),
            RegistryError::Weights(e) => write!(f, "candidate weights rejected: {e}"),
            RegistryError::ParityFail { worst, mean } => write!(
                f,
                "candidate failed parity smoke: worst rel err {worst:.3e}, mean {mean:.3e}"
            ),
            RegistryError::Smoke { message } => {
                write!(f, "candidate failed to execute its smoke batch: {message}")
            }
            RegistryError::WrongInputSize { model, pool } => {
                write!(f, "candidate input size {model} does not match pool input size {pool}")
            }
            RegistryError::Incompatible { key, model_classes, pool_classes } => write!(
                f,
                "model {key} serves {model_classes} classes but the pool was compiled for {pool_classes}"
            ),
            RegistryError::UnknownModel { key } => write!(f, "no model registered as {key}"),
            RegistryError::NotEligible { key, state } => {
                write!(f, "model {key} is {state}, not eligible for this operation")
            }
            RegistryError::Duplicate { key } => write!(f, "model {key} is already registered"),
            RegistryError::NoShadow => write!(f, "no shadow deployment is running"),
            RegistryError::BadFraction { num, den } => {
                write!(f, "shadow fraction {num}/{den} is not a valid proper fraction")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<WeightError> for RegistryError {
    fn from(e: WeightError) -> RegistryError {
        RegistryError::Weights(e)
    }
}

/// Parity-smoke bounds and batch shape for candidate admission.
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Worst-case per-element relative error the smoke tolerates (same
    /// bound as the compiler's parity suites).
    pub parity_worst: f32,
    /// Mean relative error bound.
    pub parity_mean: f64,
    /// Images in the deterministic smoke batch.
    pub smoke_batch: usize,
}

impl Default for RegistryConfig {
    fn default() -> RegistryConfig {
        RegistryConfig { parity_worst: 2e-3, parity_mean: 5e-5, smoke_batch: 2 }
    }
}

/// Thresholds for [`ModelRegistry::evaluate_canary`].
#[derive(Clone, Debug)]
pub struct CanaryConfig {
    /// Shadowed batches required before a promotion can happen (rollbacks
    /// on errors or an open breaker fire immediately).
    pub min_batches: u64,
    /// Largest tolerated fraction of mirrored images whose detections
    /// differ from the incumbent's.
    pub max_disagreement_rate: f64,
    /// Largest tolerated count of shadow execution failures.
    pub max_errors: u64,
}

impl Default for CanaryConfig {
    fn default() -> CanaryConfig {
        CanaryConfig { min_batches: 8, max_disagreement_rate: 0.02, max_errors: 0 }
    }
}

/// Why a canary was rolled back.
#[derive(Clone, Debug, PartialEq)]
pub enum RollbackReason {
    /// Mirrored detections diverged from the incumbent beyond the bound.
    Disagreement {
        /// Observed image-level disagreement rate.
        rate: f64,
    },
    /// The shadow path itself failed (panic, non-finite outputs, executor
    /// error).
    Errors {
        /// Shadow failures observed.
        errors: u64,
    },
    /// The pool's circuit breaker is open: never promote into a degraded
    /// pool — recovery must re-fork the incumbent, not a candidate.
    BreakerOpen,
}

/// Outcome of one canary evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum CanaryDecision {
    /// Not enough shadowed traffic yet; keep mirroring.
    Waiting {
        /// Batches mirrored so far.
        batches: u64,
    },
    /// The candidate was promoted to live; the incumbent is draining.
    Promoted {
        /// Key of the promoted model.
        key: String,
    },
    /// The candidate was taken out of shadow and demoted to `Smoked`.
    RolledBack {
        /// Key of the rejected model.
        key: String,
        /// What tripped the rollback.
        reason: RollbackReason,
    },
}

/// What a completed [`ModelRegistry::hot_swap`] did.
#[derive(Clone, Debug, Serialize)]
pub struct SwapReport {
    /// Key now live.
    pub key: String,
    /// Weight fingerprint now live.
    pub fingerprint: u64,
    /// Key of the displaced incumbent, when the registry knew it.
    pub retired: Option<String>,
}

/// Public row of [`ModelRegistry::list`].
#[derive(Clone, Debug, Serialize)]
pub struct ModelInfo {
    /// Registry key, `{name}@v{version}`.
    pub key: String,
    /// Model name.
    pub name: String,
    /// Model version.
    pub version: u64,
    /// Rollout state.
    pub state: ModelState,
    /// Weight fingerprint (0 once retired).
    pub fingerprint: u64,
}

struct Record {
    key: String,
    name: String,
    version: u64,
    state: ModelState,
    fingerprint: u64,
    /// Dropped on retirement — the registry must not keep retired weights
    /// alive.
    entry: Option<Arc<ModelEntry>>,
}

/// Typed counters for everything the registry did or refused to do.
struct RegistryMetrics {
    registry: Arc<MetricsRegistry>,
    loads: Arc<Counter>,
    rejected_io: Arc<Counter>,
    rejected_corrupt: Arc<Counter>,
    rejected_incompatible: Arc<Counter>,
    rejected_parity: Arc<Counter>,
    swaps: Arc<Counter>,
    promotions: Arc<Counter>,
    rollbacks: Arc<Counter>,
    retired: Arc<Counter>,
}

impl RegistryMetrics {
    fn new() -> RegistryMetrics {
        let registry = Arc::new(MetricsRegistry::new());
        RegistryMetrics {
            loads: registry.counter("registry.loads"),
            rejected_io: registry.counter("registry.rejected.io"),
            rejected_corrupt: registry.counter("registry.rejected.corrupt"),
            rejected_incompatible: registry.counter("registry.rejected.incompatible"),
            rejected_parity: registry.counter("registry.rejected.parity"),
            swaps: registry.counter("registry.swaps"),
            promotions: registry.counter("registry.promotions"),
            rollbacks: registry.counter("registry.rollbacks"),
            retired: registry.counter("registry.retired"),
            registry,
        }
    }

    /// Bump the typed rejection counter for a load or eligibility failure.
    fn on_reject(&self, e: &RegistryError) {
        match e {
            RegistryError::Io { .. } => self.rejected_io.inc(),
            RegistryError::Weights(WeightError::Incompatible(_))
            | RegistryError::Incompatible { .. } => self.rejected_incompatible.inc(),
            RegistryError::Weights(_) => self.rejected_corrupt.inc(),
            RegistryError::ParityFail { .. } | RegistryError::Smoke { .. } => self.rejected_parity.inc(),
            _ => {}
        }
    }
}

/// The registry. See the module docs for the rollout model.
pub struct ModelRegistry {
    cfg: RegistryConfig,
    records: Mutex<Vec<Record>>,
    faults: Mutex<ServeFaultPlan>,
    /// Load/swap attempt counter — the key for `at_swap` fault injection.
    attempt_seq: AtomicU64,
    metrics: RegistryMetrics,
}

impl Default for ModelRegistry {
    fn default() -> ModelRegistry {
        ModelRegistry::new(RegistryConfig::default())
    }
}

impl ModelRegistry {
    /// An empty registry with the given smoke bounds.
    pub fn new(cfg: RegistryConfig) -> ModelRegistry {
        ModelRegistry::with_faults(cfg, ServeFaultPlan::new())
    }

    /// Like [`ModelRegistry::new`], with a deterministic swap-fault
    /// schedule (see [`ServeFaultPlan::at_swap`]). Production registries
    /// pass an empty plan.
    pub fn with_faults(cfg: RegistryConfig, faults: ServeFaultPlan) -> ModelRegistry {
        ModelRegistry {
            cfg,
            records: Mutex::new(Vec::new()),
            faults: Mutex::new(faults),
            attempt_seq: AtomicU64::new(0),
            metrics: RegistryMetrics::new(),
        }
    }

    /// The canonical registry key for a name/version pair.
    pub fn key_for(name: &str, version: u64) -> String {
        format!("{name}@v{version}")
    }

    /// Register the pool's current live model (the one it was constructed
    /// with) so later swaps can track it through `Draining` to `Retired`.
    pub fn adopt_live(&self, pool: &ServePool) -> Result<String, RegistryError> {
        let entry = pool.live_entry();
        let key = ModelRegistry::key_for(entry.name(), entry.version());
        let mut records = lock(&self.records);
        if records.iter().any(|r| r.key == key) {
            return Err(RegistryError::Duplicate { key });
        }
        records.push(Record {
            key: key.clone(),
            name: entry.name().to_string(),
            version: entry.version(),
            state: ModelState::Live,
            fingerprint: entry.fingerprint(),
            entry: Some(entry),
        });
        Ok(key)
    }

    /// Load, verify, compile, and parity-smoke a candidate from a PLTW
    /// weight file. On success the model is registered `Smoked` (eligible
    /// for routing, shadowing, swapping) and its key is returned. Every
    /// failure is a typed error plus a typed rejection counter, and
    /// whatever is currently serving is untouched — the entire load runs
    /// off the hot path.
    pub fn load_file(
        &self,
        name: &str,
        version: u64,
        model_cfg: YoloConfig,
        path: &Path,
    ) -> Result<String, RegistryError> {
        let attempt = self.attempt_seq.fetch_add(1, Ordering::SeqCst);
        let mut corrupt_candidate = false;
        let mut parity_fail = false;
        for fault in lock(&self.faults).take_swap(attempt) {
            match fault {
                ServeFault::CorruptCandidate => corrupt_candidate = true,
                ServeFault::SlowLoad { delay } => std::thread::sleep(delay),
                ServeFault::CandidateParityFail => parity_fail = true,
                // Batch-keyed faults scheduled on the swap sequence have
                // nothing to corrupt here.
                _ => {}
            }
        }
        self.load_file_inner(name, version, model_cfg, path, corrupt_candidate, parity_fail)
            .inspect(|_| self.metrics.loads.inc())
            .inspect_err(|e| self.metrics.on_reject(e))
    }

    fn load_file_inner(
        &self,
        name: &str,
        version: u64,
        model_cfg: YoloConfig,
        path: &Path,
        corrupt_candidate: bool,
        parity_fail: bool,
    ) -> Result<String, RegistryError> {
        let key = ModelRegistry::key_for(name, version);
        if lock(&self.records).iter().any(|r| r.key == key) {
            return Err(RegistryError::Duplicate { key });
        }
        let mut buf = fs::read(path).map_err(|e| RegistryError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        if corrupt_candidate {
            // Injected bit rot between read and decode: the PLTW CRC must
            // catch it.
            let mid = buf.len() / 2;
            if let Some(b) = buf.get_mut(mid) {
                *b ^= 0xff;
            }
        }
        // Strict decode: truncation/bit-flips surface as Malformed/Corrupt,
        // wrong-architecture checkpoints as Incompatible.
        let model = Yolov4::from_weights(model_cfg, &buf)?;
        let entry = Arc::new(ModelEntry::from_model(name, version, &model));
        {
            // The record exists (Loaded) while the smoke runs; it is removed
            // again if the smoke rejects the candidate.
            let mut records = lock(&self.records);
            records.push(Record {
                key: key.clone(),
                name: name.to_string(),
                version,
                state: ModelState::Loaded,
                fingerprint: entry.fingerprint(),
                    entry: Some(entry.clone()),
            });
        }
        if parity_fail {
            // Injected mis-calibration: perturb the eager reference after
            // the engine folded its weights, so smoke *must* disagree.
            let params = model.parameters();
            if let Some(p) = params.last() {
                let t = p.value();
                let data: Vec<f32> = t.as_slice().iter().map(|v| v + 0.75).collect();
                p.set_value(Tensor::from_vec(data, t.shape()));
            }
        }
        match self.smoke(&entry, &model) {
            Ok(()) => {
                let mut records = lock(&self.records);
                if let Some(r) = records.iter_mut().find(|r| r.key == key) {
                    r.state = ModelState::Smoked;
                }
                Ok(key)
            }
            Err(e) => {
                lock(&self.records).retain(|r| r.key != key);
                Err(e)
            }
        }
    }

    /// Run the candidate's compiled plan against its eager reference on a
    /// deterministic batch and enforce the configured parity bounds.
    fn smoke(&self, entry: &ModelEntry, model: &Yolov4) -> Result<(), RegistryError> {
        let s = entry.input_size();
        let n = self.cfg.smoke_batch.max(1);
        // Deterministic pseudo-random pixels in [0, 1): the smoke must
        // replay bit-identically across runs.
        let data: Vec<f32> = (0..n * 3 * s * s)
            .map(|i| ((i as u64).wrapping_mul(2_654_435_761).wrapping_add(12_345) % 1009) as f32 / 1009.0)
            .collect();
        let x = Tensor::from_vec(data, &[n, 3, s, s]);
        let mut fork = entry.fork_engine();
        let compiled = fork
            .try_run(&x)
            .map_err(|e| RegistryError::Smoke { message: e.to_string() })?;
        let eager = model.infer(&x);
        let mut worst = 0f32;
        let mut mean = 0f64;
        for (c, e) in compiled.iter().zip(eager.iter()) {
            let (w, m) = output_error(c, e);
            worst = worst.max(w);
            mean = mean.max(m);
        }
        if worst > self.cfg.parity_worst || mean > self.cfg.parity_mean {
            return Err(RegistryError::ParityFail { worst, mean });
        }
        Ok(())
    }

    /// Expose `key` for per-request routing on `pool`
    /// ([`Request::route`](crate::Request::route)). The model keeps its
    /// rollout state; routing does not make it the default.
    pub fn route(&self, pool: &ServePool, key: &str) -> Result<(), RegistryError> {
        let entry = self.eligible_entry(key)?;
        self.check_compatible(&entry, pool, key)?;
        pool.set_route(key, entry);
        Ok(())
    }

    /// Stop routing `key` on `pool`.
    pub fn unroute(&self, pool: &ServePool, key: &str) {
        pool.clear_route(key);
    }

    /// Atomically make `key` the pool-wide default. The old incumbent
    /// moves to `Draining`; call [`ModelRegistry::retire_drained`] once
    /// traffic has moved to release its weights.
    pub fn hot_swap(&self, pool: &ServePool, key: &str) -> Result<SwapReport, RegistryError> {
        let entry = self.eligible_entry(key)?;
        self.check_compatible(&entry, pool, key)?;
        // A model being promoted out of shadow must stop mirroring first.
        if let Some(shadowed) = pool.shadow_entry() {
            if Arc::ptr_eq(&shadowed, &entry) {
                pool.set_shadow(None);
            }
        }
        Ok(self.flip(pool, key, entry))
    }

    /// The single place the live slot changes hands.
    fn flip(&self, pool: &ServePool, key: &str, entry: Arc<ModelEntry>) -> SwapReport {
        let fingerprint = entry.fingerprint();
        let displaced = pool.swap_live(entry);
        let mut records = lock(&self.records);
        let mut retired_key = None;
        for r in records.iter_mut() {
            if r.key == key {
                r.state = ModelState::Live;
            } else if r.entry.as_ref().is_some_and(|e| Arc::ptr_eq(e, &displaced)) {
                r.state = ModelState::Draining;
                retired_key = Some(r.key.clone());
            }
        }
        drop(records);
        // Drop our handle on the displaced incumbent: from here only its
        // registry record (if adopted) and still-draining workers hold it.
        drop(displaced);
        self.metrics.swaps.inc();
        SwapReport { key: key.to_string(), fingerprint, retired: retired_key }
    }

    /// Start mirroring `num/den` of the pool's default traffic onto `key`
    /// (deterministically keyed to the batch sequence). Any previous
    /// shadow is demoted back to `Smoked`.
    pub fn start_shadow(
        &self,
        pool: &ServePool,
        key: &str,
        num: u64,
        den: u64,
    ) -> Result<(), RegistryError> {
        if num == 0 || den == 0 || num > den {
            return Err(RegistryError::BadFraction { num, den });
        }
        let entry = self.eligible_entry(key)?;
        self.check_compatible(&entry, pool, key)?;
        let previous = pool.set_shadow(Some((entry, num, den)));
        let mut records = lock(&self.records);
        for r in records.iter_mut() {
            if r.key == key {
                r.state = ModelState::Shadow;
            } else if r.state == ModelState::Shadow
                && previous.as_ref().is_some_and(|p| {
                    r.entry.as_ref().is_some_and(|e| Arc::ptr_eq(e, p))
                })
            {
                r.state = ModelState::Smoked;
            }
        }
        Ok(())
    }

    /// Stop the running shadow (if any) and demote it back to `Smoked`.
    pub fn stop_shadow(&self, pool: &ServePool) -> Result<String, RegistryError> {
        let previous = pool.set_shadow(None).ok_or(RegistryError::NoShadow)?;
        let mut records = lock(&self.records);
        for r in records.iter_mut() {
            if r.entry.as_ref().is_some_and(|e| Arc::ptr_eq(e, &previous)) {
                r.state = ModelState::Smoked;
                return Ok(r.key.clone());
            }
        }
        Err(RegistryError::NoShadow)
    }

    /// Judge the running shadow against `canary` thresholds:
    ///
    /// * shadow errors past the bound, or an **open circuit breaker**,
    ///   roll the candidate back immediately — the pool keeps serving (and
    ///   keeps re-forking, on every breaker probe) the incumbent;
    /// * under `min_batches` mirrored batches the canary keeps waiting;
    /// * a quiet shadow within the disagreement bound is promoted: the
    ///   live slot flips to the candidate and the incumbent drains.
    pub fn evaluate_canary(
        &self,
        pool: &ServePool,
        canary: &CanaryConfig,
    ) -> Result<CanaryDecision, RegistryError> {
        let status = pool.shadow_status().ok_or(RegistryError::NoShadow)?;
        let entry = pool.shadow_entry().ok_or(RegistryError::NoShadow)?;
        let key = {
            let records = lock(&self.records);
            records
                .iter()
                .find(|r| r.entry.as_ref().is_some_and(|e| Arc::ptr_eq(e, &entry)))
                .map(|r| r.key.clone())
                .ok_or(RegistryError::NoShadow)?
        };
        if pool.is_degraded() {
            return Ok(self.roll_back(pool, &key, RollbackReason::BreakerOpen));
        }
        if status.errors > canary.max_errors {
            return Ok(self.roll_back(pool, &key, RollbackReason::Errors { errors: status.errors }));
        }
        if status.batches < canary.min_batches {
            return Ok(CanaryDecision::Waiting { batches: status.batches });
        }
        let rate = status.disagreements as f64 / status.images.max(1) as f64;
        if rate > canary.max_disagreement_rate {
            return Ok(self.roll_back(pool, &key, RollbackReason::Disagreement { rate }));
        }
        pool.set_shadow(None);
        let promoted = {
            let records = lock(&self.records);
            records
                .iter()
                .find(|r| r.key == key)
                .and_then(|r| r.entry.clone())
                .ok_or(RegistryError::UnknownModel { key: key.clone() })?
        };
        let report = self.flip(pool, &key, promoted);
        self.metrics.promotions.inc();
        Ok(CanaryDecision::Promoted { key: report.key })
    }

    fn roll_back(&self, pool: &ServePool, key: &str, reason: RollbackReason) -> CanaryDecision {
        pool.set_shadow(None);
        let mut records = lock(&self.records);
        if let Some(r) = records.iter_mut().find(|r| r.key == key) {
            r.state = ModelState::Smoked;
        }
        drop(records);
        self.metrics.rollbacks.inc();
        CanaryDecision::RolledBack { key: key.to_string(), reason }
    }

    /// Release every `Draining` model no executor can reach any more
    /// (`Arc::strong_count == 1`, i.e. only the registry record holds it):
    /// the entry is dropped, freeing the compiled plan and folded weights,
    /// and the record moves to `Retired`. Returns the retired keys.
    pub fn retire_drained(&self) -> Vec<String> {
        let mut retired = Vec::new();
        let mut records = lock(&self.records);
        for r in records.iter_mut() {
            if r.state != ModelState::Draining {
                continue;
            }
            let drained = r.entry.as_ref().is_some_and(|e| Arc::strong_count(e) == 1);
            if drained {
                r.entry = None;
                r.fingerprint = 0;
                r.state = ModelState::Retired;
                self.metrics.retired.inc();
                retired.push(r.key.clone());
            }
        }
        retired
    }

    /// Current rollout state of `key`.
    pub fn state(&self, key: &str) -> Option<ModelState> {
        lock(&self.records).iter().find(|r| r.key == key).map(|r| r.state)
    }

    /// Every registered model, registration order.
    pub fn list(&self) -> Vec<ModelInfo> {
        lock(&self.records)
            .iter()
            .map(|r| ModelInfo {
                key: r.key.clone(),
                name: r.name.clone(),
                version: r.version,
                state: r.state,
                fingerprint: r.fingerprint,
            })
            .collect()
    }

    /// Snapshot of the registry's typed counters (`registry.loads`,
    /// `registry.rejected.{io,corrupt,incompatible,parity}`,
    /// `registry.{swaps,promotions,rollbacks,retired}`).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.registry.snapshot()
    }

    /// Entry for `key` if it is eligible to touch traffic (smoked or
    /// beyond, not draining/retired).
    fn eligible_entry(&self, key: &str) -> Result<Arc<ModelEntry>, RegistryError> {
        let records = lock(&self.records);
        let r = records
            .iter()
            .find(|r| r.key == key)
            .ok_or_else(|| RegistryError::UnknownModel { key: key.to_string() })?;
        match r.state {
            ModelState::Smoked | ModelState::Shadow | ModelState::Live => r
                .entry
                .clone()
                .ok_or_else(|| RegistryError::UnknownModel { key: key.to_string() }),
            state => Err(RegistryError::NotEligible { key: key.to_string(), state }),
        }
    }

    /// Gate a model against the pool's compiled expectations before it can
    /// touch traffic: input size (the admission pipeline is sized for it)
    /// and class count (the label space clients decode against).
    /// Failures bump the typed rejection counters
    /// (`registry.rejected.incompatible` for an architecture mismatch).
    fn check_compatible(
        &self,
        entry: &ModelEntry,
        pool: &ServePool,
        key: &str,
    ) -> Result<(), RegistryError> {
        let result = (|| {
            let model = entry.input_size();
            let pool_size = pool.input_size();
            if model != pool_size {
                return Err(RegistryError::WrongInputSize { model, pool: pool_size });
            }
            let model_classes = entry.cfg().num_classes;
            let pool_classes = pool.num_classes();
            if model_classes != pool_classes {
                return Err(RegistryError::Incompatible {
                    key: key.to_string(),
                    model_classes,
                    pool_classes,
                });
            }
            Ok(())
        })();
        result.inspect_err(|e| self.metrics.on_reject(e))
    }
}
