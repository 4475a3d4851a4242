//! # platter-serve
//!
//! A hardened serving runtime for the compiled detector (DESIGN.md §10).
//! The training side of this repo already survives crashes and divergence
//! (the fault-tolerant runtime of `platter-yolo`); this crate gives the
//! *inference* side the same treatment. A [`ServePool`] wraps a trained
//! `Yolov4` in a synchronous multi-worker service with:
//!
//! * admission control — a bounded queue that sheds load at the door
//!   ([`ServeError::Rejected`]) instead of building an unbounded backlog;
//! * input sanitization — NaN/inf pixels, degenerate dimensions, and
//!   wrong-shape tensors are refused before they cost a forward pass, with
//!   a bounded [`Quarantine`] ring retaining samples for postmortems;
//! * deadline-aware batching — requests coalesce into batches bounded by
//!   size and wait time, and work whose deadline already passed is dropped
//!   before execution;
//! * panic isolation — every forward pass runs under `catch_unwind`; a
//!   panicking batch answers its requests with a typed error and the pool
//!   keeps serving;
//! * graceful degradation — a [`CircuitBreaker`] trips after repeated
//!   compiled-engine failures, serving falls back to the eager reference
//!   path, and periodic recompile probes restore the fast path when it
//!   heals.
//!
//! On top of the pool sits the [`ModelRegistry`] (DESIGN.md §15): named,
//! versioned models loaded from CRC-verified weight files, parity-smoked
//! against the eager reference before they may touch traffic, hot-swapped
//! into the live slot with zero dropped requests, shadow-deployed against
//! a deterministic fraction of traffic, and promoted or rolled back by a
//! canary controller that never promotes into an open circuit breaker.
//!
//! For video traffic the pool speaks **stream sessions**: a client opens a
//! session ([`ServePool::open_session`]), submits frames to it, and every
//! answer carries detections plus SORT track identities ([`TrackedFrame`]).
//! Frames of one session execute in submission order; frames of different
//! sessions still batch freely.
//!
//! Everything is deterministic under test: the fault-injection schedule
//! ([`ServeFaultPlan`]) is keyed to batch sequence numbers (and swap
//! attempts, for registry faults), and the breaker counts batches rather
//! than seconds.
//!
//! ## Example
//!
//! ```
//! use platter_imaging::{Image, Rgb};
//! use platter_serve::{ServeConfig, ServeError, ServePool};
//! use platter_yolo::{YoloConfig, Yolov4};
//!
//! fn main() -> Result<(), ServeError> {
//!     let model = Yolov4::new(YoloConfig::micro(10), 42);
//!     let pool = ServePool::new(&model, ServeConfig::new(1));
//!     let image = Image::new(100, 60, Rgb::new(0.4, 0.3, 0.2));
//!     let detections = pool.detect(&image)?;
//!     for d in &detections {
//!         assert!(d.bbox.is_valid());
//!     }
//!     pool.shutdown();
//!     Ok(())
//! }
//! ```
//!
//! ## Example: one request with options
//!
//! Options — a deadline, test-time augmentation, a routed model — go on
//! one [`Request`] and through one [`ServePool::submit`].
//!
//! ```
//! use std::time::{Duration, Instant};
//!
//! use platter_imaging::{Image, Rgb};
//! use platter_serve::{Request, ServeConfig, ServeError, ServePool};
//! use platter_yolo::{YoloConfig, Yolov4};
//!
//! fn main() -> Result<(), ServeError> {
//!     let model = Yolov4::new(YoloConfig::micro(10), 42);
//!     let pool = ServePool::new(&model, ServeConfig::new(1));
//!     let image = Image::new(100, 60, Rgb::new(0.4, 0.3, 0.2));
//!     let deadline = Instant::now() + Duration::from_secs(10);
//!     let request = Request::image(&image).deadline(Some(deadline)).tta();
//!     let detections = pool.submit(request)?.wait()?;
//!     assert!(detections.iter().all(|d| d.bbox.is_valid()));
//!     pool.shutdown();
//!     Ok(())
//! }
//! ```
//!
//! ## Example: a stream session
//!
//! ```
//! use platter_imaging::{Image, Rgb};
//! use platter_serve::{ServeConfig, ServeError, ServePool};
//! use platter_yolo::{YoloConfig, Yolov4};
//!
//! fn main() -> Result<(), ServeError> {
//!     let model = Yolov4::new(YoloConfig::micro(10), 42);
//!     let pool = ServePool::new(&model, ServeConfig::new(1));
//!     let session = pool.open_session()?;
//!     for i in 0..3 {
//!         let frame = Image::new(64, 64, Rgb::new(0.3, 0.3, 0.3));
//!         let answer = pool.submit_frame(session, &frame)?.wait()?;
//!         assert_eq!(answer.frame, i, "frames answer in submission order");
//!     }
//!     pool.close_session(session)?;
//!     pool.shutdown();
//!     Ok(())
//! }
//! ```

pub mod breaker;
pub mod error;
pub mod fault;
pub mod pool;
pub mod registry;
pub mod sanitize;

pub use breaker::{BreakerConfig, CircuitBreaker, ExecPath};
pub use error::ServeError;
pub use fault::{ServeFault, ServeFaultPlan};
pub use platter_yolo::{SortTracker, Track, TrackConfig, TtaConfig};
pub use pool::{
    Pending, Request, ServeConfig, ServePool, ServeStats, SessionId, ShadowStatus, TrackedFrame,
};
pub use registry::{
    CanaryConfig, CanaryDecision, ModelInfo, ModelRegistry, ModelState, RegistryConfig,
    RegistryError, RollbackReason, SwapReport,
};
pub use sanitize::{sanitize_image, sanitize_tensor, InputError, Quarantine, QuarantineRecord};
