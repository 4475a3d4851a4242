//! The hardened serving pool.
//!
//! [`ServePool`] turns a trained [`Yolov4`] into a multi-worker detection
//! service with the failure behaviour a deployment needs and a bare
//! `Detector` does not have:
//!
//! * **Admission control** — a bounded queue; when it is full new requests
//!   are shed immediately with [`ServeError::Rejected`] instead of growing
//!   the backlog (memory stays flat under overload).
//! * **Sanitization at the door** — malformed shapes, degenerate
//!   dimensions, and non-finite pixels are refused before they cost queue
//!   space, and a compact sample is kept in the [`Quarantine`] ring.
//! * **Deadline-aware batching** — workers coalesce queued requests into
//!   batches (up to `max_batch`, waiting at most `max_wait`), and work
//!   whose deadline already passed is dropped *before* the forward pass.
//! * **Panic isolation** — every forward pass runs under `catch_unwind`;
//!   a panicking batch answers its requests with
//!   [`ServeError::WorkerPanic`] and the pool keeps serving. The worker's
//!   compiled engine is discarded after a panic (a mid-run unwind leaves
//!   its arena inconsistent) and rebuilt lazily.
//! * **Graceful degradation** — compiled-path failures feed a
//!   [`CircuitBreaker`]; past a threshold the pool serves on the eager
//!   reference path and periodically probes a recompile until the fast
//!   path proves healthy again.
//! * **Data-parallel workers, one copy of the weights** — the pool compiles
//!   the network once into a master [`CompiledModel`] and each worker
//!   [`CompiledModel::fork_worker`]s a private engine off it: the plan and
//!   its folded parameters are shared behind an `Arc`, only the activation
//!   arena is per-worker. Requests land on per-worker queues (round-robin),
//!   and an idle worker **steals** from the deepest sibling queue, so a
//!   burst aimed at one queue is absorbed by the whole pool.
//! * **Zero-downtime model swaps** — the served model lives in an
//!   epoch-stamped *live slot*. `ServePool::swap_live` (crate-internal;
//!   only the [`ModelRegistry`](crate::ModelRegistry) calls it, and CI
//!   gates that) replaces the slot atomically; each worker notices the
//!   epoch bump at its next batch, forks the new plan, and drops its old
//!   fork — in-flight batches finish on the engine they started on, no
//!   request is dropped, and the retired plan's weights are freed once the
//!   last fork is gone.
//! * **Routing and shadowing** — requests may target a named model
//!   ([`Request::route`]) registered alongside the default,
//!   and a shadow model can mirror a deterministic fraction of default
//!   traffic, its detections diffed bit-exactly into metrics without ever
//!   touching a response or the breaker.
//! * **Stream sessions** — a client opens a session
//!   ([`ServePool::open_session`]) and submits video frames to it; the
//!   pool keeps a per-session [`SortTracker`] and answers every frame
//!   with detections *plus* track identities ([`TrackedFrame`]). Frames
//!   within a session execute **in order** (at most one is ever in the
//!   worker queues; the next is released when it answers), while frames
//!   of different sessions batch freely with each other and with plain
//!   submissions. Deadlines apply per frame — an expired frame answers
//!   [`ServeError::DeadlineExceeded`] and the stream continues. Session
//!   state lives outside the live slot, so it survives hot swaps; a
//!   breaker-isolated panic that reaches a frame's final answer tears the
//!   session down ([`ServeError::SessionTornDown`]).
//!
//! `Yolov4` itself holds parameters behind `Rc` and is not `Send`; only the
//! *eager fallback* still needs it, so each worker rebuilds that replica
//! lazily from the served model's weight snapshot on first degraded batch —
//! a healthy pool shares everything.

use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use platter_imaging::augment::unletterbox_box;
use platter_imaging::Image;
use platter_obs::{exp_bounds, Counter, Histogram, MetricsRegistry, MetricsSnapshot};
use platter_tensor::Tensor;
use platter_yolo::{decode_detections, merge_tta, nms, CompiledModel, Detection, NmsKind, SortTracker, Track, TrackConfig, TtaConfig, TtaView, Yolov4};
use serde::Serialize;

use crate::breaker::{BreakerConfig, CircuitBreaker, ExecPath, Transition};
use crate::error::ServeError;
use crate::fault::{ServeFault, ServeFaultPlan};
use crate::registry::ModelEntry;
use crate::sanitize::{sanitize_image, sanitize_tensor, Quarantine, QuarantineRecord};

/// Lock a mutex, recovering the data if a previous holder panicked — a
/// hardened runtime treats a poisoned lock as survivable, not fatal.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Pool tuning. `ServeConfig::new(workers)` gives sensible defaults.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads. Zero is allowed (submissions queue but never run —
    /// useful for testing admission control in isolation).
    pub workers: usize,
    /// Bound on queued requests; submissions past it are shed.
    pub queue_capacity: usize,
    /// Largest batch a worker coalesces.
    pub max_batch: usize,
    /// Longest a worker waits for more work before running a partial batch.
    pub max_wait: Duration,
    /// Deadline applied to submissions that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Per-edge limit on submitted image dimensions.
    pub max_image_dim: usize,
    /// Retained quarantine records.
    pub quarantine_capacity: usize,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Minimum confidence for a detection.
    pub conf_thresh: f32,
    /// NMS suppression threshold.
    pub nms_iou: f32,
    /// NMS flavour.
    pub nms_kind: NmsKind,
    /// View recipe used by TTA requests ([`Request::tta`]); plain requests
    /// ignore it.
    pub tta: TtaConfig,
    /// Name of the model the pool is constructed with (labels its metrics
    /// as `serve.model.{name}-v{version}.*` and keys it in the registry).
    pub model_name: String,
    /// Version of the constructed model.
    pub model_version: u64,
}

impl ServeConfig {
    /// Defaults matching the `Detector` inference settings.
    pub fn new(workers: usize) -> ServeConfig {
        ServeConfig {
            workers,
            queue_capacity: 64,
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            default_deadline: None,
            max_image_dim: 4096,
            quarantine_capacity: 32,
            breaker: BreakerConfig::default(),
            conf_thresh: 0.25,
            nms_iou: 0.45,
            nms_kind: NmsKind::Diou,
            tta: TtaConfig::standard(),
            model_name: "default".to_string(),
            model_version: 0,
        }
    }
}

/// Letterbox geometry needed to map detections back to the source image.
#[derive(Clone, Copy, Debug)]
struct BoxMap {
    scale: f32,
    pad_x: usize,
    pad_y: usize,
    orig_w: usize,
    orig_h: usize,
}

/// One admitted request.
struct Job {
    x: Tensor,
    map: Option<BoxMap>,
    deadline: Option<Instant>,
    /// When the request was admitted — anchors the end-to-end latency
    /// histogram.
    submitted: Instant,
    /// Whether this request asked for test-time augmentation.
    tta: bool,
    /// Pinned model for routed submissions; `None` serves on the pool-wide
    /// default (whatever is live when the batch runs).
    route: Option<Arc<ModelEntry>>,
    reply: Reply,
}

/// Where a job's answer goes: a plain detection reply, or a session frame
/// whose answer additionally steps the session tracker and releases the
/// session's next buffered frame.
enum Reply {
    Dets(SyncSender<Result<Vec<Detection>, ServeError>>),
    Frame {
        /// Owning session.
        session: u64,
        /// Frame index within the session (assigned at submission).
        frame: u64,
        tx: SyncSender<Result<TrackedFrame, ServeError>>,
    },
}

/// How a submission's deadline is chosen. Every submit path routes through
/// [`make_job`], the **single** stamping point — routed, TTA, and session
/// submissions all resolve `Default` against the same clock read as the
/// job's `submitted` anchor, so no path can drift from another.
#[derive(Clone, Copy, Debug)]
enum DeadlineSpec {
    /// Apply [`ServeConfig::default_deadline`], if configured.
    Default,
    /// Use exactly this deadline (`None` = no deadline).
    Explicit(Option<Instant>),
}

/// Build a job, stamping `submitted` and resolving the deadline from one
/// `Instant::now()` read. This is the only place a `Job` is built and the
/// only place deadlines are stamped (`scripts/verify.sh` gates the former).
fn make_job(
    cfg: &ServeConfig,
    x: Tensor,
    map: Option<BoxMap>,
    spec: DeadlineSpec,
    tta: bool,
    route: Option<Arc<ModelEntry>>,
    reply: Reply,
) -> Job {
    let now = Instant::now();
    let deadline = match spec {
        DeadlineSpec::Default => cfg.default_deadline.map(|d| now + d),
        DeadlineSpec::Explicit(d) => d,
    };
    Job { x, map, deadline, submitted: now, tta, route, reply }
}

/// What a [`Request`] carries into the pool.
#[derive(Clone, Copy, Debug)]
enum Input<'a> {
    Image(&'a Image),
    Tensor(&'a Tensor),
}

/// One detection request: an input plus its options, submitted with
/// [`ServePool::submit`]. Every option combination takes the same path —
/// one sanitization, one deadline stamp, one admission check.
#[derive(Clone, Copy, Debug)]
pub struct Request<'a> {
    input: Input<'a>,
    deadline: DeadlineSpec,
    tta: bool,
    route: Option<&'a str>,
}

impl<'a> Request<'a> {
    fn new(input: Input<'a>) -> Request<'a> {
        Request { input, deadline: DeadlineSpec::Default, tta: false, route: None }
    }

    /// Detect on a source image; detections come back in its coordinates.
    pub fn image(image: &'a Image) -> Request<'a> {
        Request::new(Input::Image(image))
    }

    /// Detect on an already-preprocessed `[3, s, s]` tensor; detections
    /// come back in letterboxed coordinates.
    pub fn tensor(x: &'a Tensor) -> Request<'a> {
        Request::new(Input::Tensor(x))
    }

    /// Require execution to start before `deadline`, replacing
    /// [`ServeConfig::default_deadline`]. `None` means no deadline at all —
    /// it never falls back to the default.
    pub fn deadline(mut self, deadline: Option<Instant>) -> Request<'a> {
        self.deadline = DeadlineSpec::Explicit(deadline);
        self
    }

    /// Serve with test-time augmentation (the configured
    /// [`ServeConfig::tta`] views). Sanitization and admission are the
    /// same as for a plain request — TTA buys recall, not a side door.
    pub fn tta(mut self) -> Request<'a> {
        self.tta = true;
        self
    }

    /// Pin the request to the routed model `model` (a registry key exposed
    /// via [`ModelRegistry::route`](crate::ModelRegistry::route)). Unknown
    /// keys answer [`ServeError::UnknownModel`] at the door; a routed
    /// request keeps its model even across live-slot swaps.
    pub fn route(mut self, model: &'a str) -> Request<'a> {
        self.route = Some(model);
        self
    }
}

/// Handle to an admitted request's eventual answer: detections for
/// [`ServePool::submit`], a [`TrackedFrame`] for [`ServePool::submit_frame`].
#[derive(Debug)]
pub struct Pending<T = Vec<Detection>> {
    rx: Receiver<Result<T, ServeError>>,
}

impl<T> Pending<T> {
    /// Block until the request is answered. A pool torn down with the
    /// request still queued answers [`ServeError::ShuttingDown`].
    pub fn wait(self) -> Result<T, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }
}

/// Opaque handle to an open stream session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SessionId(u64);

impl SessionId {
    /// The numeric id (stable for the pool's lifetime, never reused).
    pub fn raw(&self) -> u64 {
        self.0
    }
}

/// One answered session frame: the detections in source coordinates plus
/// the tracker's view of them.
#[derive(Clone, Debug, PartialEq)]
pub struct TrackedFrame {
    /// Frame index within the session, in submission order.
    pub frame: u64,
    /// Per-frame detections, exactly as a plain submission would answer.
    pub detections: Vec<Detection>,
    /// Live tracks after folding this frame in (stable ids across frames).
    pub tracks: Vec<Track>,
}

/// Per-session state, owned by the pool (not by any model): the tracker,
/// the in-order frame gate, and the frames waiting behind it.
struct SessionState {
    tracker: SortTracker,
    /// Frames buffered behind the in-flight one; released one at a time as
    /// answers come back, which is what guarantees in-session ordering.
    pending: VecDeque<Job>,
    /// Whether a frame of this session is currently in the worker queues
    /// (or executing).
    in_flight: bool,
    /// Set when a frame's final answer was a contained execution failure:
    /// the tracker state is no longer trustworthy, so the stream is dead.
    torn_down: bool,
    /// Set by [`ServePool::close_session`] while a frame is still in
    /// flight; the entry is removed when that frame answers.
    closing: bool,
    /// Frames accepted so far (assigns frame indices).
    frames_submitted: u64,
}

impl SessionState {
    fn new(tracker: SortTracker) -> SessionState {
        SessionState {
            tracker,
            pending: VecDeque::new(),
            in_flight: false,
            torn_down: false,
            closing: false,
            frames_submitted: 0,
        }
    }
}


/// Monotonic counters describing everything the pool has done.
#[derive(Clone, Debug, Default, Serialize)]
pub struct ServeStats {
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests shed because the queue was full.
    pub rejected_full: u64,
    /// Requests refused by sanitization.
    pub rejected_bad_input: u64,
    /// Requests answered with detections.
    pub completed: u64,
    /// Requests dropped because their deadline passed before execution.
    pub deadline_dropped: u64,
    /// Forward passes that panicked (contained by `catch_unwind`).
    pub worker_panics: u64,
    /// Forward passes that produced non-finite outputs.
    pub corrupt_outputs: u64,
    /// Batches served by the compiled engine (probes included).
    pub compiled_batches: u64,
    /// Batches served by the eager fallback.
    pub eager_batches: u64,
    /// Times the breaker tripped into degraded serving.
    pub breaker_trips: u64,
    /// Successful recompile probes.
    pub breaker_recoveries: u64,
    /// Recompile probes attempted.
    pub breaker_probes: u64,
    /// Live-slot hot swaps performed.
    pub swaps: u64,
}

/// Observability handles registered in the pool-owned [`MetricsRegistry`].
/// Every pool event is recorded here exactly once; [`ServePool::stats`] is
/// a read of these handles, not a second set of counters.
struct ServeMetrics {
    registry: Arc<MetricsRegistry>,
    /// Queue depth (queued plus session-buffered, this request included)
    /// sampled once per admitted request.
    queue_depth: Arc<Histogram>,
    /// Jobs per executed batch (after the deadline cull).
    batch_size: Arc<Histogram>,
    /// Admission-to-answer latency of completed requests, milliseconds.
    /// Its sample count is the completed-request count.
    latency_ms: Arc<Histogram>,
    /// Queue wait of deadline-culled requests, milliseconds. Culled jobs
    /// never reach `latency_ms` (they have no answer latency), which made
    /// p50/p99 read optimistic exactly when the pool was overloaded; this
    /// histogram is where that tail lives.
    culled_wait_ms: Arc<Histogram>,
    /// Requests admitted (queued or session-buffered).
    accepted: Arc<Counter>,
    /// Requests shed at admission (queue full).
    sheds: Arc<Counter>,
    /// Requests dropped because their deadline passed before execution.
    deadline_misses: Arc<Counter>,
    /// Execution attempts that panicked (contained by `catch_unwind`) or
    /// produced non-finite outputs.
    worker_panics: Arc<Counter>,
    corrupt_outputs: Arc<Counter>,
    /// Batches answered by the compiled engine (probes included) and by the
    /// eager fallback.
    compiled_batches: Arc<Counter>,
    eager_batches: Arc<Counter>,
    /// Breaker state transitions (healthy → degraded and back).
    breaker_transitions: Arc<Counter>,
    /// Sanitization refusals, by reason: non-finite pixels…
    sanitize_nonfinite: Arc<Counter>,
    /// …wrong tensor shape…
    sanitize_badshape: Arc<Counter>,
    /// …and degenerate / oversized image dimensions. Together these make
    /// degraded-input shedding observable per failure mode.
    sanitize_baddims: Arc<Counter>,
    /// Live-slot swaps (`serve.swap.count`) and the stale forks workers
    /// dropped when they picked a swap up (`serve.swap.reforks`): reforks
    /// reaching the worker count is the drain completing.
    swap_count: Arc<Counter>,
    swap_reforks: Arc<Counter>,
    /// Shadow mirroring: batches mirrored, images whose detections
    /// diverged from the incumbent's (bit-exact comparison), and shadow
    /// execution failures. Shadow outcomes feed *only* these counters —
    /// never a response, never the breaker.
    shadow_batches: Arc<Counter>,
    shadow_disagreements: Arc<Counter>,
    shadow_errors: Arc<Counter>,
    /// Per-batch fraction of mirrored images that disagreed.
    shadow_disagreement: Arc<Histogram>,
    /// Batches executed by worker `i` (`serve.worker.{i}.batches`) — the
    /// balance across workers is the data-parallelism actually achieved.
    worker_batches: Vec<Arc<Counter>>,
    /// Jobs worker `i` stole from sibling queues
    /// (`serve.worker.{i}.steals`) — nonzero steals mean bursts were
    /// absorbed by idle workers instead of waiting on their home queue.
    worker_steals: Vec<Arc<Counter>>,
}

impl ServeMetrics {
    fn new(queue_capacity: usize, workers: usize) -> ServeMetrics {
        let registry = Arc::new(MetricsRegistry::new());
        // Power-of-two buckets cover 1..=capacity (depth), 1..=64 (batch),
        // and 0.25 ms..~8 s (latency) with a handful of buckets each.
        let depth_buckets = (usize::BITS - queue_capacity.max(1).leading_zeros()).max(1) as usize;
        ServeMetrics {
            queue_depth: registry.histogram("serve.queue_depth", &exp_bounds(1.0, 2.0, depth_buckets)),
            batch_size: registry.histogram("serve.batch_size", &exp_bounds(1.0, 2.0, 7)),
            latency_ms: registry.histogram("serve.latency_ms", &exp_bounds(0.25, 2.0, 16)),
            culled_wait_ms: registry.histogram("serve.culled_wait_ms", &exp_bounds(0.25, 2.0, 16)),
            accepted: registry.counter("serve.accepted"),
            sheds: registry.counter("serve.sheds"),
            deadline_misses: registry.counter("serve.deadline_misses"),
            worker_panics: registry.counter("serve.worker_panics"),
            corrupt_outputs: registry.counter("serve.corrupt_outputs"),
            compiled_batches: registry.counter("serve.compiled_batches"),
            eager_batches: registry.counter("serve.eager_batches"),
            breaker_transitions: registry.counter("serve.breaker_transitions"),
            sanitize_nonfinite: registry.counter("serve.sanitize.nonfinite"),
            sanitize_badshape: registry.counter("serve.sanitize.badshape"),
            sanitize_baddims: registry.counter("serve.sanitize.baddims"),
            swap_count: registry.counter("serve.swap.count"),
            swap_reforks: registry.counter("serve.swap.reforks"),
            shadow_batches: registry.counter("serve.shadow.batches"),
            shadow_disagreements: registry.counter("serve.shadow.disagreements"),
            shadow_errors: registry.counter("serve.shadow.errors"),
            shadow_disagreement: registry
                .histogram("serve.shadow.disagreement", &[0.01, 0.05, 0.25, 0.5, 1.0]),
            worker_batches: (0..workers)
                .map(|i| registry.counter(&format!("serve.worker.{i}.batches")))
                .collect(),
            worker_steals: (0..workers)
                .map(|i| registry.counter(&format!("serve.worker.{i}.steals")))
                .collect(),
            registry,
        }
    }

    /// Bump the per-reason refusal counter for `error`.
    fn on_refusal(&self, error: &crate::sanitize::InputError) {
        match error {
            crate::sanitize::InputError::NonFinite { .. } => self.sanitize_nonfinite.inc(),
            crate::sanitize::InputError::BadShape { .. } => self.sanitize_badshape.inc(),
            crate::sanitize::InputError::BadDims { .. } => self.sanitize_baddims.inc(),
        }
    }

    /// Count a failed execution attempt by kind.
    fn on_exec_failure(&self, failure: &ExecFailure) {
        match failure {
            ExecFailure::Panic(_) => self.worker_panics.inc(),
            ExecFailure::NonFinite => self.corrupt_outputs.inc(),
        }
    }

    /// Count a batch answered on `path`.
    fn on_answered(&self, path: ExecPath) {
        match path {
            ExecPath::Eager => self.eager_batches.inc(),
            ExecPath::Compiled | ExecPath::Probe => self.compiled_batches.inc(),
        }
    }

    /// Batches executed on the model labelled `label`
    /// (`serve.model.{label}.batches`).
    fn model_batches(&self, label: &str) -> Arc<Counter> {
        self.registry.counter(&format!("serve.model.{label}.batches"))
    }

    /// Record a breaker transition globally and against the model that was
    /// serving when it happened (`serve.model.{label}.breaker_transitions`)
    /// — after a swap the two series tell incumbent and candidate apart.
    fn on_breaker(&self, t: Transition, label: &str) {
        if t != Transition::None {
            self.breaker_transitions.inc();
            self.registry.counter(&format!("serve.model.{label}.breaker_transitions")).inc();
        }
    }
}

/// The epoch-stamped live slot: which model new default batches fork.
struct LiveSlot {
    entry: Arc<ModelEntry>,
    /// Bumped on every swap; workers compare it at batch start and re-fork
    /// when stale.
    epoch: u64,
}

/// Progress of the current shadow deployment. Returned by
/// [`ServePool::shadow_status`]; the canary controller reads it.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct ShadowStatus {
    /// Default batches mirrored onto the shadow model.
    pub batches: u64,
    /// Images mirrored in those batches.
    pub images: u64,
    /// Mirrored images whose detections differed (bit-exact multiset
    /// comparison) from the incumbent's.
    pub disagreements: u64,
    /// Shadow executions that failed (panic, non-finite outputs, executor
    /// error). Failures stay here — they never reach a client or the
    /// breaker.
    pub errors: u64,
}

struct ShadowState {
    entry: Arc<ModelEntry>,
    /// Mirror batch `b` iff `b % den < num` — a deterministic `num/den`
    /// fraction keyed to the batch sequence, so fault-free runs replay
    /// identical shadow traffic.
    num: u64,
    den: u64,
    status: ShadowStatus,
}

struct Shared {
    cfg: ServeConfig,
    /// Input size every model served by this pool must share (fixed by the
    /// model the pool was constructed with; the registry enforces it for
    /// candidates).
    input_size: usize,
    /// Class count every model served by this pool must share — clients
    /// decode detections against one label space, so a candidate with a
    /// different head is architecturally incompatible (the registry
    /// enforces this for candidates).
    num_classes: usize,
    /// The live slot. Locked only for pointer reads, swaps, and epoch
    /// checks — never across a forward pass.
    live: Mutex<LiveSlot>,
    /// Named side models for routed submissions.
    routes: Mutex<HashMap<String, Arc<ModelEntry>>>,
    /// The shadow deployment, if one is running.
    shadow: Mutex<Option<ShadowState>>,
    /// Open stream sessions. Owned here — deliberately outside the live
    /// slot — so tracker state survives hot swaps untouched. Lock order:
    /// `admission` before `sessions`, and never hold `sessions` across a
    /// queue push or a reply send.
    sessions: Mutex<HashMap<u64, SessionState>>,
    /// Session id allocator (never reused).
    next_session: AtomicU64,
    /// Frames buffered inside sessions (behind their in-flight frame).
    /// Counted against `queue_capacity` together with `queued`, so a stuck
    /// session cannot grow the backlog unboundedly.
    session_pending: AtomicUsize,
    /// One job queue per worker, fed round-robin by `next_queue`. Idle
    /// workers steal from the deepest sibling. (With zero workers a single
    /// queue still exists so admission control is testable in isolation.)
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Total jobs across all queues — the admission bound and the value
    /// sleeping workers re-check before waiting.
    queued: AtomicUsize,
    /// Round-robin cursor for queue placement.
    next_queue: AtomicUsize,
    /// Whether the pool still admits work. This mutex is `job_ready`'s
    /// companion: producers bump `queued` and notify while holding it, and
    /// workers re-check `queued` under it before sleeping, so a wakeup can
    /// never fall between check and wait.
    admission: Mutex<bool>,
    job_ready: Condvar,
    breaker: Mutex<CircuitBreaker>,
    quarantine: Mutex<Quarantine>,
    faults: Mutex<ServeFaultPlan>,
    batch_seq: AtomicU64,
    submit_seq: AtomicU64,
    metrics: ServeMetrics,
}

/// The serving pool. See the module docs for the failure model.
pub struct ServePool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ServePool {
    /// Spin up a pool serving `model`'s current weights.
    pub fn new(model: &Yolov4, cfg: ServeConfig) -> ServePool {
        ServePool::with_faults(model, cfg, ServeFaultPlan::new())
    }

    /// Like [`ServePool::new`], with a deterministic fault schedule (see
    /// [`ServeFaultPlan`]). Production pools pass an empty plan.
    pub fn with_faults(model: &Yolov4, cfg: ServeConfig, faults: ServeFaultPlan) -> ServePool {
        // Compile once, up front: workers fork this entry's engine instead
        // of recompiling, so N workers hold one copy of the weights.
        let entry = Arc::new(ModelEntry::from_model(&cfg.model_name, cfg.model_version, model));
        let shared = Arc::new(Shared {
            input_size: model.config.input_size,
            num_classes: model.config.num_classes,
            live: Mutex::new(LiveSlot { entry, epoch: 0 }),
            routes: Mutex::new(HashMap::new()),
            shadow: Mutex::new(None),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(0),
            session_pending: AtomicUsize::new(0),
            queues: (0..cfg.workers.max(1)).map(|_| Mutex::new(VecDeque::new())).collect(),
            queued: AtomicUsize::new(0),
            next_queue: AtomicUsize::new(0),
            admission: Mutex::new(true),
            job_ready: Condvar::new(),
            breaker: Mutex::new(CircuitBreaker::new(cfg.breaker)),
            quarantine: Mutex::new(Quarantine::new(cfg.quarantine_capacity)),
            faults: Mutex::new(faults),
            batch_seq: AtomicU64::new(0),
            submit_seq: AtomicU64::new(0),
            metrics: ServeMetrics::new(cfg.queue_capacity, cfg.workers),
            cfg,
        });
        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_main(&shared, i))
                    .expect("spawn serve worker")
            })
            .collect();
        ServePool { shared, workers: Mutex::new(workers) }
    }

    /// Submit a request. The door runs in a fixed order: route resolution
    /// (an unknown key answers [`ServeError::UnknownModel`] before anything
    /// else), sanitization and letterboxing, deadline stamping, then
    /// admission control.
    pub fn submit(&self, req: Request<'_>) -> Result<Pending, ServeError> {
        let route = req.route.map(|model| self.resolve_route(model)).transpose()?;
        let (x, map) = self.prepare(req.input)?;
        let (tx, rx) = mpsc::sync_channel(1);
        let job = make_job(&self.shared.cfg, x, map, req.deadline, req.tta, route, Reply::Dets(tx));
        admit(&self.shared, || Ok(Some(job)))?;
        Ok(Pending { rx })
    }

    /// Submit an image with the configured default deadline.
    pub fn submit_image(&self, image: &Image) -> Result<Pending, ServeError> {
        self.submit(Request::image(image))
    }

    /// Submit an already-preprocessed `[3, s, s]` tensor with the default
    /// deadline; see [`Request::tensor`].
    pub fn submit_tensor(&self, x: &Tensor) -> Result<Pending, ServeError> {
        self.submit(Request::tensor(x))
    }

    /// Sanitize an input into its job tensor, letterboxing an image and
    /// keeping the geometry that maps detections back onto it.
    fn prepare(&self, input: Input<'_>) -> Result<(Tensor, Option<BoxMap>), ServeError> {
        let shared = &self.shared;
        let seq = shared.submit_seq.fetch_add(1, Ordering::SeqCst);
        match input {
            Input::Image(image) => {
                if let Err(e) = sanitize_image(image, shared.cfg.max_image_dim) {
                    self.refuse(seq, e.clone(), vec![image.width(), image.height()], image.raw());
                    return Err(ServeError::BadInput(e));
                }
                let size = shared.input_size;
                let lb = image.letterbox(size);
                let x = Tensor::from_vec(lb.image.to_chw(), &[3, size, size]);
                let map = BoxMap {
                    scale: lb.scale,
                    pad_x: lb.pad_x,
                    pad_y: lb.pad_y,
                    orig_w: image.width(),
                    orig_h: image.height(),
                };
                Ok((x, Some(map)))
            }
            Input::Tensor(x) => {
                if let Err(e) = sanitize_tensor(x, shared.input_size) {
                    self.refuse(seq, e.clone(), x.shape().to_vec(), x.as_slice());
                    return Err(ServeError::BadInput(e));
                }
                Ok((x.clone(), None))
            }
        }
    }

    /// Open a stream session with the default tracker configuration.
    pub fn open_session(&self) -> Result<SessionId, ServeError> {
        self.open_session_with(TrackConfig::default())
    }

    /// Open a stream session with an explicit tracker configuration. The
    /// pool owns a [`SortTracker`] per session; every frame submitted to
    /// the session answers with detections *and* the tracker's updated
    /// view. Invalid configurations are refused at the door.
    pub fn open_session_with(&self, cfg: TrackConfig) -> Result<SessionId, ServeError> {
        let tracker = SortTracker::new(cfg)
            .map_err(|e| ServeError::BadTrackConfig { message: e.to_string() })?;
        if !*lock(&self.shared.admission) {
            return Err(ServeError::ShuttingDown);
        }
        let id = self.shared.next_session.fetch_add(1, Ordering::SeqCst);
        lock(&self.shared.sessions).insert(id, SessionState::new(tracker));
        Ok(SessionId(id))
    }

    /// Submit a video frame to an open session, with the configured
    /// default deadline applied to this frame. Frames of one session
    /// execute in submission order — at most one is ever in the worker
    /// queues; later frames wait inside the session and are released one
    /// by one as answers come back. Buffered frames count against
    /// [`ServeConfig::queue_capacity`] exactly like queued ones.
    pub fn submit_frame(
        &self,
        session: SessionId,
        image: &Image,
    ) -> Result<Pending<TrackedFrame>, ServeError> {
        let (x, map) = self.prepare(Input::Image(image))?;
        let (tx, rx) = mpsc::sync_channel(1);
        let shared = &self.shared;
        admit(shared, || {
            // Lock order: `admission` (held by `admit`), then `sessions`.
            let mut sessions = lock(&shared.sessions);
            let s = sessions
                .get_mut(&session.0)
                .ok_or(ServeError::UnknownSession { session: session.0 })?;
            if s.torn_down || s.closing {
                return Err(ServeError::SessionTornDown);
            }
            let frame = s.frames_submitted;
            s.frames_submitted += 1;
            let reply = Reply::Frame { session: session.0, frame, tx };
            let job = make_job(&shared.cfg, x, map, DeadlineSpec::Default, false, None, reply);
            if s.in_flight {
                // A frame of this session is already out: buffer behind it.
                s.pending.push_back(job);
                shared.session_pending.fetch_add(1, Ordering::SeqCst);
                Ok(None)
            } else {
                s.in_flight = true;
                Ok(Some(job))
            }
        })?;
        Ok(Pending { rx })
    }

    /// Close a session. Frames already in the worker queues still answer
    /// normally; frames buffered behind them answer
    /// [`ServeError::SessionTornDown`]. Closing an unknown session answers
    /// [`ServeError::UnknownSession`].
    pub fn close_session(&self, session: SessionId) -> Result<(), ServeError> {
        let drained: Vec<Job> = {
            let mut sessions = lock(&self.shared.sessions);
            let s = sessions
                .get_mut(&session.0)
                .ok_or(ServeError::UnknownSession { session: session.0 })?;
            let drained = s.pending.drain(..).collect();
            if s.in_flight {
                // The in-flight frame's answer removes the entry.
                s.closing = true;
            } else {
                sessions.remove(&session.0);
            }
            drained
        };
        fail_session_jobs(&self.shared, drained, &ServeError::SessionTornDown);
        Ok(())
    }

    /// Number of stream sessions currently held (torn-down sessions count
    /// until closed).
    pub fn open_sessions(&self) -> usize {
        lock(&self.shared.sessions).len()
    }

    /// Convenience: submit an image and block for the answer.
    pub fn detect(&self, image: &Image) -> Result<Vec<Detection>, ServeError> {
        self.submit_image(image)?.wait()
    }

    /// Snapshot of the pool's counters, read from the metrics registry.
    pub fn stats(&self) -> ServeStats {
        let m = &self.shared.metrics;
        // `completed` is read before `accepted`, and a request is counted as
        // accepted before it is queued. The counters are independent relaxed
        // atomics, though, so callers subtracting the two should saturate.
        let completed = m.latency_ms.count();
        let b = lock(&self.shared.breaker);
        ServeStats {
            accepted: m.accepted.get(),
            rejected_full: m.sheds.get(),
            rejected_bad_input: m.sanitize_nonfinite.get()
                + m.sanitize_badshape.get()
                + m.sanitize_baddims.get(),
            completed,
            deadline_dropped: m.deadline_misses.get(),
            worker_panics: m.worker_panics.get(),
            corrupt_outputs: m.corrupt_outputs.get(),
            compiled_batches: m.compiled_batches.get(),
            eager_batches: m.eager_batches.get(),
            breaker_trips: b.trips(),
            breaker_recoveries: b.recoveries(),
            breaker_probes: b.probes(),
            swaps: m.swap_count.get(),
        }
    }

    /// Snapshot of the observability registry: `serve.queue_depth`,
    /// `serve.batch_size`, and `serve.latency_ms` histograms (count, mean,
    /// p50/p90/p99, buckets) plus shed / deadline-miss / breaker-transition
    /// counters, per-model batch counters (`serve.model.{label}.batches`),
    /// swap counters (`serve.swap.*`), and shadow diff counters
    /// (`serve.shadow.*`). Complements [`ServePool::stats`], which is
    /// monotonic counters only.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.registry.snapshot()
    }

    /// Snapshot of the quarantined inputs, oldest first.
    pub fn quarantine(&self) -> Vec<QuarantineRecord> {
        lock(&self.shared.quarantine).snapshot()
    }

    /// True while degraded (serving on the eager fallback).
    pub fn is_degraded(&self) -> bool {
        lock(&self.shared.breaker).is_open()
    }

    /// Requests currently queued (summed across worker queues).
    pub fn queue_depth(&self) -> usize {
        self.shared.queued.load(Ordering::SeqCst)
    }

    /// Input size every model served by this pool must share.
    pub fn input_size(&self) -> usize {
        self.shared.input_size
    }

    /// Class count every model served by this pool must share (fixed by
    /// the model the pool was constructed with).
    pub fn num_classes(&self) -> usize {
        self.shared.num_classes
    }

    /// Name, version, and weight fingerprint of the model currently in the
    /// live slot.
    pub fn live_model(&self) -> (String, u64, u64) {
        let live = lock(&self.shared.live);
        (live.entry.name().to_string(), live.entry.version(), live.entry.fingerprint())
    }

    /// Keys currently routable via [`Request::route`], sorted.
    pub fn routes(&self) -> Vec<String> {
        let mut keys: Vec<String> = lock(&self.shared.routes).keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Progress of the current shadow deployment, if one is running.
    pub fn shadow_status(&self) -> Option<ShadowStatus> {
        lock(&self.shared.shadow).as_ref().map(|s| s.status)
    }

    /// The parameter store the live model's worker engines share. The
    /// returned `Arc`'s strong count drops back to 1 once every engine
    /// forked from the plan is gone — the leak check behind both
    /// panic-isolation discards and hot-swap drains.
    pub fn shared_weights(&self) -> Arc<platter_tensor::PlanWeights> {
        lock(&self.shared.live).entry.shared_weights()
    }

    /// Stop admitting work, let workers drain the queues, and join them.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) {
        *lock(&self.shared.admission) = false;
        self.shared.job_ready.notify_all();
        let handles: Vec<JoinHandle<()>> = lock(&self.workers).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        // Workers drain the queues and session chains before exiting, so
        // both drains below are normally empty — but a zero-worker pool
        // (or a race with teardown) can leave work behind whose senders
        // would otherwise block their clients forever.
        let drained: Vec<Job> = {
            let mut sessions = lock(&self.shared.sessions);
            sessions.values_mut().flat_map(|s| s.pending.drain(..)).collect()
        };
        fail_session_jobs(&self.shared, drained, &ServeError::ShuttingDown);
        let queued: Vec<Job> = {
            let mut jobs = Vec::new();
            for q in &self.shared.queues {
                jobs.extend(lock(q).drain(..));
            }
            jobs
        };
        self.shared.queued.fetch_sub(queued.len(), Ordering::SeqCst);
        reply_err(&self.shared, queued, &ServeError::ShuttingDown);
    }

    /// The live entry (crate-internal; the registry adopts it).
    pub(crate) fn live_entry(&self) -> Arc<ModelEntry> {
        Arc::clone(&lock(&self.shared.live).entry)
    }

    /// Atomically replace the live model and bump the epoch, returning the
    /// displaced incumbent. Workers notice the epoch change at their next
    /// batch and re-fork; batches already executing finish on the old
    /// engine — nothing in flight is dropped.
    ///
    /// This is the **only** place the live slot changes hands, and the
    /// `ModelRegistry` is its only caller — `scripts/verify.sh` gates
    /// both, so every swap provably went through load → CRC check →
    /// parity smoke first.
    pub(crate) fn swap_live(&self, entry: Arc<ModelEntry>) -> Arc<ModelEntry> {
        let displaced = {
            let mut live = lock(&self.shared.live);
            live.epoch += 1;
            std::mem::replace(&mut live.entry, entry)
        };
        self.shared.metrics.swap_count.inc();
        displaced
    }

    /// Expose `entry` for routed submissions under `key`.
    pub(crate) fn set_route(&self, key: &str, entry: Arc<ModelEntry>) {
        lock(&self.shared.routes).insert(key.to_string(), entry);
    }

    /// Remove a routed model; queued jobs already resolved keep their pin.
    pub(crate) fn clear_route(&self, key: &str) -> bool {
        lock(&self.shared.routes).remove(key).is_some()
    }

    /// Install (`Some((entry, num, den))`) or clear (`None`) the shadow
    /// deployment, returning the previously shadowed entry. Counters start
    /// from zero for a new shadow.
    pub(crate) fn set_shadow(
        &self,
        shadow: Option<(Arc<ModelEntry>, u64, u64)>,
    ) -> Option<Arc<ModelEntry>> {
        let next = shadow.map(|(entry, num, den)| ShadowState {
            entry,
            num,
            den: den.max(1),
            status: ShadowStatus::default(),
        });
        std::mem::replace(&mut *lock(&self.shared.shadow), next).map(|s| s.entry)
    }

    /// The currently shadowed entry, if any.
    pub(crate) fn shadow_entry(&self) -> Option<Arc<ModelEntry>> {
        lock(&self.shared.shadow).as_ref().map(|s| Arc::clone(&s.entry))
    }

    fn resolve_route(&self, model: &str) -> Result<Arc<ModelEntry>, ServeError> {
        lock(&self.shared.routes)
            .get(model)
            .cloned()
            .ok_or_else(|| ServeError::UnknownModel { model: model.to_string() })
    }

    fn refuse(&self, seq: u64, error: crate::sanitize::InputError, shape: Vec<usize>, data: &[f32]) {
        self.shared.metrics.on_refusal(&error);
        lock(&self.shared.quarantine).record(seq, error, shape, data);
    }
}

/// The one admission function. Under the admission lock: refuse if the
/// pool is closed or full, let `place` build the request's job — it returns
/// the job to queue, or `None` after buffering it inside its session — then
/// count the request as accepted, sample the queue depth, and push, all
/// before the lock is released. A concurrent `shutdown` therefore either
/// refuses the request or finds its job queued, never a job in between.
fn admit(
    shared: &Shared,
    place: impl FnOnce() -> Result<Option<Job>, ServeError>,
) -> Result<(), ServeError> {
    // The admission lock serialises the capacity check with the push and
    // the notify: a worker re-checking `queued` under this lock can never
    // miss the wakeup.
    let open = lock(&shared.admission);
    if !*open {
        return Err(ServeError::ShuttingDown);
    }
    let depth =
        shared.queued.load(Ordering::SeqCst) + shared.session_pending.load(Ordering::SeqCst);
    if depth >= shared.cfg.queue_capacity {
        shared.metrics.sheds.inc();
        return Err(ServeError::Rejected { queue_depth: depth });
    }
    let job = place()?;
    shared.metrics.accepted.inc();
    shared.metrics.queue_depth.record((depth + 1) as f64);
    if let Some(job) = job {
        push_job_locked(shared, job);
    }
    Ok(())
}

/// Round-robin a job into a worker queue and wake a worker. Callers must
/// hold the admission lock.
fn push_job_locked(shared: &Shared, job: Job) {
    // Round-robin placement; an idle worker steals across queues, so
    // placement balances the steady state, stealing the bursts.
    let qi = shared.next_queue.fetch_add(1, Ordering::SeqCst) % shared.queues.len();
    lock(&shared.queues[qi]).push_back(job);
    shared.queued.fetch_add(1, Ordering::SeqCst);
    shared.job_ready.notify_one();
}

/// Release a session's buffered frame into the worker queues. No capacity
/// check: the frame was counted when it was admitted. Only workers call
/// this, and a worker drains the queues before it exits, so a release
/// after shutdown still answers. Producers never push here — they push
/// inside [`admit`], under the same lock as their admission check.
fn push_job(shared: &Shared, job: Job) {
    let _open = lock(&shared.admission);
    push_job_locked(shared, job);
}

/// Answer session jobs that will never run (teardown / close / shutdown).
fn fail_session_jobs(shared: &Shared, jobs: Vec<Job>, err: &ServeError) {
    if jobs.is_empty() {
        return;
    }
    shared.session_pending.fetch_sub(jobs.len(), Ordering::SeqCst);
    for job in jobs {
        if let Reply::Frame { tx, .. } = job.reply {
            let _ = tx.send(Err(err.clone()));
        }
    }
}

impl Drop for ServePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How one execution attempt failed.
enum ExecFailure {
    Panic(String),
    NonFinite,
}

impl ExecFailure {
    fn to_error(&self) -> ServeError {
        match self {
            ExecFailure::Panic(message) => ServeError::WorkerPanic { message: message.clone() },
            ExecFailure::NonFinite => ServeError::CorruptOutput,
        }
    }
}

/// Faults consumed by the *first* execution attempt of a batch; the eager
/// retry after a compiled-path failure always runs clean.
#[derive(Default)]
struct Injected {
    panic: bool,
    corrupt: bool,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A worker's execution context for one model: which entry it serves, the
/// epoch it was forked at (for swap detection on the default model), the
/// private compiled fork, the lazily-built eager replica, and the labelled
/// batch counter. Dropping it releases the fork and the entry `Arc` — that
/// drop *is* the drain step of a hot swap.
struct WorkerEngine {
    entry: Arc<ModelEntry>,
    epoch: u64,
    engine: Option<CompiledModel>,
    eager: Option<Yolov4>,
    /// `serve.model.{label}.batches`.
    batches: Arc<Counter>,
}

impl WorkerEngine {
    fn new(shared: &Shared, entry: Arc<ModelEntry>, epoch: u64) -> WorkerEngine {
        let batches = shared.metrics.model_batches(entry.label());
        WorkerEngine { entry, epoch, engine: None, eager: None, batches }
    }

    fn from_live(shared: &Shared) -> WorkerEngine {
        let (entry, epoch) = {
            let live = lock(&shared.live);
            (Arc::clone(&live.entry), live.epoch)
        };
        let mut we = WorkerEngine::new(shared, entry, epoch);
        // Fork the master engine eagerly: shares the compiled plan +
        // weights, owns a fresh arena. The eager replica is built only if
        // this worker ever degrades — a healthy pool holds one copy of the
        // parameters total.
        we.engine = Some(we.entry.fork_engine());
        we
    }
}

/// Run one batch on `path`: forward, output guard, decode, NMS. When any job
/// in the batch asked for TTA the batch runs once per configured view —
/// identity first (so engine install and fault injection behave exactly as a
/// plain attempt), auxiliary views after, each with its own output guard —
/// and per-image results merge through the permutation-invariant TTA merge.
/// Panics are contained here; the caller decides fallback and breaker
/// bookkeeping.
///
/// `we.engine` is the worker's private fork of `we.entry`'s master engine; a
/// probe (or a post-discard rebuild) re-forks rather than recompiles — the
/// shared weights are immutable, so only the scratch arena can have been
/// left inconsistent. `we.eager` is the worker's lazily-built `Yolov4`
/// replica, touched only on the degraded path.
fn run_attempt(
    shared: &Shared,
    we: &mut WorkerEngine,
    path: ExecPath,
    x: &Tensor,
    inject: &Injected,
    tta_flags: &[bool],
) -> Result<Vec<Vec<Detection>>, ExecFailure> {
    let cfg = &shared.cfg;
    let n_images = x.shape()[0];
    let views: Vec<TtaView> =
        if tta_flags.iter().any(|&f| f) { cfg.tta.views() } else { vec![TtaView::Identity] };
    let WorkerEngine { entry, engine, eager, .. } = we;
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        if inject.panic {
            panic!("injected worker panic");
        }
        // Per-image candidate lists, one inner list per executed view.
        let mut sets: Vec<Vec<Vec<Detection>>> = vec![Vec::new(); n_images];
        for view in &views {
            let transformed;
            let input = if view.is_identity() {
                x
            } else {
                transformed = view.transform_batch(x);
                &transformed
            };
            let mut heads: Vec<Tensor> = match path {
                ExecPath::Compiled | ExecPath::Probe => {
                    if (path == ExecPath::Probe && view.is_identity()) || engine.is_none() {
                        *engine = Some(entry.fork_engine());
                    }
                    let e = engine.as_mut().expect("engine just installed");
                    // Shapes were validated at admission; a residual executor
                    // error means the engine itself is unhealthy.
                    match e.try_run(input) {
                        Ok(heads) => heads.to_vec(),
                        Err(err) => return Err(ExecFailure::Panic(err.to_string())),
                    }
                }
                ExecPath::Eager => {
                    // First degraded batch on this engine: rebuild the
                    // reference replica from the entry's weight snapshot.
                    let model = eager.get_or_insert_with(|| entry.eager_replica());
                    model.infer(input).to_vec()
                }
            };
            // Injected corruption poisons the identity pass: TTA must not
            // launder a corrupt primary view through its auxiliaries.
            if inject.corrupt && view.is_identity() {
                let first = &heads[0];
                heads[0] = Tensor::from_vec(vec![f32::NAN; first.numel()], first.shape());
            }
            if heads.iter().any(|h| h.as_slice().iter().any(|v| !v.is_finite())) {
                return Err(ExecFailure::NonFinite);
            }
            let candidates = decode_detections(&heads, entry.cfg(), cfg.conf_thresh);
            for (i, cand) in candidates.into_iter().enumerate() {
                let back: Vec<Detection> = if view.is_identity() {
                    cand
                } else {
                    cand.into_iter()
                        .map(|d| Detection {
                            score: d.score * cfg.tta.aux_weight(),
                            bbox: view.untransform_box(&d.bbox),
                            ..d
                        })
                        .collect()
                };
                sets[i].push(back);
            }
        }
        Ok(sets
            .into_iter()
            .enumerate()
            .map(|(i, per_view)| {
                if tta_flags.get(i).copied().unwrap_or(false) {
                    merge_tta(per_view, cfg.nms_iou, cfg.nms_kind)
                } else {
                    // Non-TTA jobs in a mixed batch score from the identity
                    // view alone, exactly as a plain submission would.
                    let identity = per_view.into_iter().next().unwrap_or_default();
                    nms(identity, cfg.nms_iou, cfg.nms_kind)
                }
            })
            .collect())
    }));
    match outcome {
        Ok(inner) => inner,
        Err(payload) => Err(ExecFailure::Panic(panic_message(payload))),
    }
}

/// Answer every job in `jobs` with its mapped detections.
fn reply_ok(shared: &Shared, jobs: Vec<Job>, detections: Vec<Vec<Detection>>) {
    let size = shared.input_size;
    for (job, dets) in jobs.into_iter().zip(detections) {
        let out: Vec<Detection> = dets
            .into_iter()
            .filter_map(|d| {
                let bbox = match &job.map {
                    Some(m) => {
                        unletterbox_box(&d.bbox, size, m.scale, m.pad_x, m.pad_y, m.orig_w, m.orig_h)
                    }
                    None => d.bbox,
                };
                bbox.clipped().map(|bbox| Detection { bbox, ..d })
            })
            .collect();
        shared.metrics.latency_ms.record(job.submitted.elapsed().as_secs_f64() * 1e3);
        answer(shared, job.reply, Ok(out));
    }
}

/// Send a job its answer. A session frame's answer also steps the session
/// tracker and releases the session's next buffered frame.
fn answer(shared: &Shared, reply: Reply, result: Result<Vec<Detection>, ServeError>) {
    match reply {
        Reply::Dets(tx) => {
            let _ = tx.send(result);
        }
        Reply::Frame { session, frame, tx } => finish_session_frame(shared, session, frame, result, tx),
    }
}

/// Answer every job in `jobs` with a final execution error. A session
/// frame whose final answer is a contained execution failure tears its
/// session down: the tracker missed a frame it cannot recover from
/// bit-exactly, so the stream is no longer trustworthy.
fn reply_err(shared: &Shared, jobs: Vec<Job>, err: &ServeError) {
    for job in jobs {
        match job.reply {
            Reply::Dets(tx) => {
                let _ = tx.send(Err(err.clone()));
            }
            Reply::Frame { session, frame: _, tx } => {
                let _ = tx.send(Err(err.clone()));
                teardown_session(shared, session);
            }
        }
    }
}

/// Tear a session down after a contained execution failure on one of its
/// frames. Buffered frames answer [`ServeError::SessionTornDown`]; the
/// entry stays behind (flagged) so later submissions also see
/// `SessionTornDown` rather than `UnknownSession` — unless the client had
/// already asked to close, in which case the entry goes now.
fn teardown_session(shared: &Shared, session: u64) {
    let drained: Vec<Job> = {
        let mut sessions = lock(&shared.sessions);
        match sessions.get_mut(&session) {
            Some(s) => {
                s.in_flight = false;
                let drained = s.pending.drain(..).collect();
                if s.closing {
                    sessions.remove(&session);
                } else {
                    s.torn_down = true;
                }
                drained
            }
            None => Vec::new(),
        }
    };
    fail_session_jobs(shared, drained, &ServeError::SessionTornDown);
}

/// Complete a session frame: step the tracker on a successful answer, send
/// the reply, and release the session's next buffered frame into the
/// worker queues — that release is what serialises a session's frames.
/// `result` is `Err` only for a deadline miss: the frame is skipped (the
/// tracker never sees it) and the stream continues.
fn finish_session_frame(
    shared: &Shared,
    session: u64,
    frame: u64,
    result: Result<Vec<Detection>, ServeError>,
    tx: SyncSender<Result<TrackedFrame, ServeError>>,
) {
    let (msg, release) = {
        let mut sessions = lock(&shared.sessions);
        match sessions.get_mut(&session) {
            Some(s) => {
                let msg = result.map(|detections| {
                    let tracks = s.tracker.step(&detections);
                    TrackedFrame { frame, detections, tracks }
                });
                let release = s.pending.pop_front();
                if release.is_none() {
                    s.in_flight = false;
                    if s.closing {
                        sessions.remove(&session);
                    }
                }
                (msg, release)
            }
            // Session vanished under the frame (shutdown race): answer the
            // detections without track context.
            None => (
                result.map(|detections| TrackedFrame { frame, detections, tracks: Vec::new() }),
                None,
            ),
        }
    };
    // Send and push with the sessions lock released — `push_job` takes the
    // admission lock, which is never acquired after `sessions`.
    let _ = tx.send(msg);
    if let Some(job) = release {
        shared.session_pending.fetch_sub(1, Ordering::SeqCst);
        push_job(shared, job);
    }
}

/// Take up to `room` jobs from worker `wid`'s own queue into `batch`.
/// Returns how many were taken. The global `queued` count is decremented by
/// the caller.
fn take_own(shared: &Shared, wid: usize, batch: &mut Vec<Job>, room: usize) -> usize {
    let mut q = lock(&shared.queues[wid]);
    let take = room.min(q.len());
    batch.extend(q.drain(..take));
    take
}

/// Steal jobs from sibling queues until `batch` is full or every sibling is
/// empty, deepest victim first — burst absorption: a queue that went deep
/// while its owner was busy is drained by whoever is idle. Returns the
/// number stolen.
fn steal_from_siblings(shared: &Shared, wid: usize, batch: &mut Vec<Job>) -> usize {
    let mut stolen = 0usize;
    while batch.len() < shared.cfg.max_batch {
        let mut victim = None;
        let mut victim_len = 0usize;
        for (i, q) in shared.queues.iter().enumerate() {
            if i == wid {
                continue;
            }
            let len = lock(q).len();
            if len > victim_len {
                victim_len = len;
                victim = Some(i);
            }
        }
        let Some(vi) = victim else { break };
        let mut vq = lock(&shared.queues[vi]);
        // Re-check under the victim's lock: another thief may have raced us.
        let take = (shared.cfg.max_batch - batch.len()).min(vq.len());
        if take == 0 {
            break;
        }
        batch.extend(vq.drain(..take));
        stolen += take;
    }
    stolen
}

/// Pull worker `wid`'s next batch: drain the own queue, top up by stealing
/// from siblings, and if the batch is still short linger up to `max_wait`
/// for more work (blocking indefinitely while empty). Returns the batch and
/// how many of its jobs were stolen; `None` when the pool is closed and
/// every queue is drained — workers finish everything that was admitted.
fn next_batch(shared: &Shared, wid: usize) -> Option<(Vec<Job>, u64)> {
    let mut batch: Vec<Job> = Vec::new();
    let mut stolen = 0u64;
    let mut linger_until: Option<Instant> = None;
    loop {
        let before = batch.len();
        let room = shared.cfg.max_batch - batch.len();
        take_own(shared, wid, &mut batch, room);
        stolen += steal_from_siblings(shared, wid, &mut batch) as u64;
        let took = batch.len() - before;
        if took > 0 {
            shared.queued.fetch_sub(took, Ordering::SeqCst);
        }
        if batch.len() >= shared.cfg.max_batch {
            return Some((batch, stolen));
        }
        if !batch.is_empty() && linger_until.is_none() {
            linger_until = Some(Instant::now() + shared.cfg.max_wait);
        }
        // Sleep — or bail — under the admission lock. Producers notify
        // while holding it, so checking `queued` here closes the
        // check-then-wait race across per-worker queues.
        let open = lock(&shared.admission);
        if shared.queued.load(Ordering::SeqCst) > 0 {
            continue; // guard drops; rescan the queues
        }
        if !*open {
            return if batch.is_empty() { None } else { Some((batch, stolen)) };
        }
        match linger_until {
            // Nothing batched yet: block until work or shutdown.
            None => {
                let _g = shared.job_ready.wait(open).unwrap_or_else(|e| e.into_inner());
            }
            // Partial batch: linger for stragglers, then run what we have.
            Some(until) => {
                let now = Instant::now();
                if now >= until {
                    return Some((batch, stolen));
                }
                let (_g, timeout) = shared
                    .job_ready
                    .wait_timeout(open, until - now)
                    .unwrap_or_else(|e| e.into_inner());
                if timeout.timed_out() && shared.queued.load(Ordering::SeqCst) == 0 {
                    return Some((batch, stolen));
                }
            }
        }
    }
}

/// Bit-exact detection identity: class, score bits, box coordinate bits.
fn det_key(d: &Detection) -> (usize, u32, [u32; 4]) {
    (
        d.class,
        d.score.to_bits(),
        [d.bbox.cx.to_bits(), d.bbox.cy.to_bits(), d.bbox.w.to_bits(), d.bbox.h.to_bits()],
    )
}

/// Whether two detection lists are the same multiset, bit for bit. Forks of
/// one plan answer bit-identically, so any difference here is a real model
/// difference, not numeric jitter.
fn dets_bit_equal(a: &[Detection], b: &[Detection]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut ka: Vec<_> = a.iter().map(det_key).collect();
    let mut kb: Vec<_> = b.iter().map(det_key).collect();
    ka.sort_unstable();
    kb.sort_unstable();
    ka == kb
}

/// If a shadow deployment is running and batch `batch_idx` falls in its
/// deterministic fraction, return the entry to mirror onto.
fn shadow_pick(shared: &Shared, batch_idx: u64) -> Option<Arc<ModelEntry>> {
    let guard = lock(&shared.shadow);
    let s = guard.as_ref()?;
    if batch_idx % s.den < s.num {
        Some(Arc::clone(&s.entry))
    } else {
        None
    }
}

/// Mirror an already-answered default batch onto the shadow entry and diff
/// the detections. Runs *after* the primary replies went out, never feeds
/// the breaker, and swallows its own failures into `serve.shadow.errors` —
/// a broken candidate can cost shadow compute, never a response.
fn run_shadow(
    shared: &Shared,
    entry: Arc<ModelEntry>,
    x: &Tensor,
    tta_flags: &[bool],
    primary: &[Vec<Detection>],
) {
    let mut we = WorkerEngine::new(shared, Arc::clone(&entry), 0);
    let clean = Injected::default();
    let outcome = run_attempt(shared, &mut we, ExecPath::Compiled, x, &clean, tta_flags);
    let m = &shared.metrics;
    let mut guard = lock(&shared.shadow);
    // The shadow may have been promoted/rolled back while we ran; results
    // for a stale shadow are discarded rather than polluting the new one.
    let Some(s) = guard.as_mut() else { return };
    if !Arc::ptr_eq(&s.entry, &entry) {
        return;
    }
    s.status.batches += 1;
    m.shadow_batches.inc();
    match outcome {
        Ok(dets) => {
            let total = primary.len();
            let differing =
                primary.iter().zip(&dets).filter(|(a, b)| !dets_bit_equal(a, b)).count();
            s.status.images += total as u64;
            s.status.disagreements += differing as u64;
            m.shadow_disagreements.add(differing as u64);
            m.shadow_disagreement.record(differing as f64 / total.max(1) as f64);
        }
        Err(_) => {
            s.status.errors += 1;
            m.shadow_errors.inc();
        }
    }
}

/// Execute one same-model group of a picked batch: assemble the input,
/// plan the breaker path, run (with eager retry on compiled failure),
/// reply, and — for the default group only — mirror onto the shadow.
fn run_group(
    shared: &Shared,
    we: &mut WorkerEngine,
    jobs: Vec<Job>,
    inject: &Injected,
    batch_idx: u64,
    mirror: bool,
) {
    let size = shared.input_size;
    let mut data = Vec::with_capacity(jobs.len() * 3 * size * size);
    for job in &jobs {
        data.extend_from_slice(job.x.as_slice());
    }
    let x = Tensor::from_vec(data, &[jobs.len(), 3, size, size]);
    let tta_flags: Vec<bool> = jobs.iter().map(|j| j.tta).collect();

    we.batches.inc();
    let path = lock(&shared.breaker).plan_path();
    match run_attempt(shared, we, path, &x, inject, &tta_flags) {
        Ok(dets) => {
            shared
                .metrics
                .on_breaker(lock(&shared.breaker).record_success(path), we.entry.label());
            shared.metrics.on_answered(path);
            let shadow = if mirror { shadow_pick(shared, batch_idx) } else { None };
            let primary = shadow.as_ref().map(|_| dets.clone());
            reply_ok(shared, jobs, dets);
            if let (Some(entry), Some(primary)) = (shadow, primary) {
                run_shadow(shared, entry, &x, &tta_flags, &primary);
            }
        }
        Err(failure) => {
            shared.metrics.on_exec_failure(&failure);
            shared
                .metrics
                .on_breaker(lock(&shared.breaker).record_failure(path), we.entry.label());
            if path == ExecPath::Eager {
                reply_err(shared, jobs, &failure.to_error());
                return;
            }
            // The compiled attempt may have unwound mid-run, leaving
            // this engine's arena inconsistent: discard the fork (the
            // shared weights are immutable and unaffected) and re-fork
            // lazily.
            we.engine = None;
            // Same batch, eager retry — the request still succeeds
            // unless the reference path fails too.
            let clean = Injected::default();
            match run_attempt(shared, we, ExecPath::Eager, &x, &clean, &tta_flags) {
                Ok(dets) => {
                    shared.metrics.on_answered(ExecPath::Eager);
                    reply_ok(shared, jobs, dets);
                }
                Err(second) => {
                    shared.metrics.on_exec_failure(&second);
                    reply_err(shared, jobs, &second.to_error());
                }
            }
        }
    }
}

fn worker_main(shared: &Shared, wid: usize) {
    let mut we = WorkerEngine::from_live(shared);

    while let Some((jobs, stolen)) = next_batch(shared, wid) {
        if stolen > 0 {
            shared.metrics.worker_steals[wid].add(stolen);
        }
        let batch_idx = shared.batch_seq.fetch_add(1, Ordering::SeqCst);
        let mut inject = Injected::default();
        for fault in lock(&shared.faults).take(batch_idx) {
            match fault {
                ServeFault::WorkerPanic => inject.panic = true,
                ServeFault::CorruptOutput => inject.corrupt = true,
                ServeFault::SlowExec { delay } => std::thread::sleep(delay),
                // Swap faults scheduled on the batch sequence have nothing
                // to corrupt inside a worker.
                _ => {}
            }
        }

        // Hot-swap pickup, *before* execution: if the live slot moved since
        // this worker last forked, drop the stale context (fork + entry
        // handle — this is the drain) and rebuild from the new entry. The
        // request that triggered the pickup is already served by the new
        // model.
        {
            let (entry, epoch) = {
                let live = lock(&shared.live);
                (Arc::clone(&live.entry), live.epoch)
            };
            if epoch != we.epoch {
                we = WorkerEngine::new(shared, entry, epoch);
                shared.metrics.swap_reforks.inc();
            }
        }

        // Deadline cull *after* any injected stall, *before* the forward:
        // expired work is answered, not served stale.
        let now = Instant::now();
        let (live, dead): (Vec<Job>, Vec<Job>) =
            jobs.into_iter().partition(|j| j.deadline.is_none_or(|d| now <= d));
        if !dead.is_empty() {
            shared.metrics.deadline_misses.add(dead.len() as u64);
            for job in dead {
                // Culled jobs never reach `latency_ms` (no answer exists);
                // their queue wait is recorded here instead of vanishing
                // from every latency series under overload.
                shared
                    .metrics
                    .culled_wait_ms
                    .record(job.submitted.elapsed().as_secs_f64() * 1e3);
                // Deadlines are per frame: a culled session frame skips that
                // frame and the session continues with its next one.
                answer(shared, job.reply, Err(ServeError::DeadlineExceeded));
            }
        }
        if live.is_empty() {
            continue;
        }
        shared.metrics.batch_size.record(live.len() as f64);
        shared.metrics.worker_batches[wid].inc();

        // Group the batch by pinned model, preserving arrival order within
        // each group. The common case — no routed jobs — is one default
        // group and behaves exactly as a single-model batch.
        let mut groups: Vec<(Option<Arc<ModelEntry>>, Vec<Job>)> = Vec::new();
        for job in live {
            let pos = groups.iter().position(|(r, _)| match (r, &job.route) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            });
            match pos {
                Some(i) => groups[i].1.push(job),
                None => {
                    let route = job.route.clone();
                    groups.push((route, vec![job]));
                }
            }
        }

        // Injected batch faults hit the first group (with default-only
        // traffic, the whole batch — the deterministic suites rely on it);
        // later groups run clean.
        let mut first = true;
        for (route, group_jobs) in groups {
            let inj = if first { std::mem::take(&mut inject) } else { Injected::default() };
            first = false;
            match route {
                None => run_group(shared, &mut we, group_jobs, &inj, batch_idx, true),
                Some(entry) => {
                    // Routed groups run on a per-batch context: routed
                    // traffic is assumed occasional (A/B checks, pinned
                    // clients), so the fork cost stays off the default path.
                    let mut routed = WorkerEngine::new(shared, entry, 0);
                    run_group(shared, &mut routed, group_jobs, &inj, batch_idx, false);
                }
            }
        }
    }
}
