//! Model registry and safe-rollout suite.
//!
//! The claims under test, in order of importance:
//!
//! 1. A hot swap under closed-loop load drops **zero** accepted requests,
//!    answers bit-identically to a pool constructed on the target model,
//!    and releases the retired model's weights back to a single reference.
//! 2. Every bad-candidate path — truncated file, flipped bits, wrong
//!    architecture, injected corruption, injected parity failure — is a
//!    typed [`RegistryError`] and a typed rejection counter; the incumbent
//!    keeps serving throughout and is never evicted.
//! 3. The shadow → canary path is deterministic: the same seeds, fault
//!    plan, and request sequence replay the identical decision and the
//!    identical answer bits, whether the canary promotes or rolls back.
//! 4. A canary never promotes into an open circuit breaker, and after its
//!    rollback the breaker's own probe recovers the *incumbent*.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use platter_serve::{
    CanaryConfig, CanaryDecision, ModelRegistry, ModelState, RegistryConfig, RegistryError,
    Request, RollbackReason, ServeConfig, ServeError, ServeFault, ServeFaultPlan, ServePool,
};
use platter_tensor::Tensor;
use platter_yolo::{Detection, YoloConfig, Yolov4};

fn nano_cfg() -> YoloConfig {
    YoloConfig { input_size: 32, width: 0.1, ..YoloConfig::micro(10) }
}

fn nano_model(seed: u64) -> Yolov4 {
    Yolov4::new(nano_cfg(), seed)
}

fn serve_cfg(workers: usize, name: &str) -> ServeConfig {
    ServeConfig {
        max_wait: Duration::from_millis(1),
        model_name: name.to_string(),
        ..ServeConfig::new(workers)
    }
}

/// A finite, deterministic `[3, 32, 32]` input with per-request variation.
fn test_tensor(seed: usize) -> Tensor {
    let data: Vec<f32> =
        (0..3 * 32 * 32).map(|i| ((i * 31 + seed * 137) % 251) as f32 / 251.0 - 0.5).collect();
    Tensor::from_vec(data, &[3, 32, 32])
}

/// Collapse detections to raw bits so equality means *bit*-equality.
fn det_bits(dets: &[Detection]) -> Vec<(usize, u32, [u32; 4])> {
    dets.iter()
        .map(|d| {
            (d.class, d.score.to_bits(), [
                d.bbox.cx.to_bits(),
                d.bbox.cy.to_bits(),
                d.bbox.w.to_bits(),
                d.bbox.h.to_bits(),
            ])
        })
        .collect()
}

/// Closed-loop request: one batch per call on a single-worker pool, so
/// batch sequence numbers (and everything keyed to them) are deterministic.
fn ask(pool: &ServePool, seed: usize) -> Vec<(usize, u32, [u32; 4])> {
    det_bits(&pool.submit_tensor(&test_tensor(seed)).expect("admitted").wait().expect("answered"))
}

/// Write `model`'s checkpoint to a fresh temp file and return the path.
fn weights_file(model: &Yolov4, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("platter-registry-suite-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{tag}.pltw"));
    std::fs::write(&path, model.save()).expect("write weights");
    path
}

#[test]
fn hot_swap_under_load_is_lossless_and_bit_identical() {
    let incumbent = nano_model(1);
    let candidate = nano_model(2);

    // Ground truth: what a pool constructed directly on each model answers.
    let pool_a = ServePool::new(&incumbent, serve_cfg(1, "a"));
    let want_a: Vec<_> = (0..12).map(|i| ask(&pool_a, i)).collect();
    pool_a.shutdown();
    let pool_b = ServePool::new(&candidate, serve_cfg(1, "b"));
    let want_b: Vec<_> = (0..12).map(|i| ask(&pool_b, i)).collect();
    pool_b.shutdown();

    let pool = ServePool::new(&incumbent, serve_cfg(1, "a"));
    let registry = ModelRegistry::default();
    let key_a = registry.adopt_live(&pool).expect("adopt incumbent");
    let key_b = registry
        .load_file("b", 1, nano_cfg(), &weights_file(&candidate, "swap-candidate"))
        .expect("candidate loads and smokes");
    assert_eq!(registry.state(&key_b), Some(ModelState::Smoked));

    // Serve on the incumbent, swap mid-stream, keep serving.
    let old_weights = pool.shared_weights();
    let before: Vec<_> = (0..6).map(|i| ask(&pool, i)).collect();
    let report = registry.hot_swap(&pool, &key_b).expect("swap");
    assert_eq!(report.retired.as_deref(), Some(key_a.as_str()));
    let after: Vec<_> = (6..12).map(|i| ask(&pool, i)).collect();

    // Bit-identity on both sides of the flip, zero drops in between.
    assert_eq!(before, want_a[..6], "pre-swap answers diverged from the incumbent");
    assert_eq!(after, want_b[6..], "post-swap answers diverged from the candidate");
    let stats = pool.stats();
    assert_eq!(stats.accepted, 12);
    assert_eq!(stats.completed, 12, "a request was dropped across the swap");
    assert_eq!(stats.swaps, 1);
    let metrics = pool.metrics();
    assert_eq!(metrics.counter("serve.swap.count"), Some(1));
    assert_eq!(
        metrics.counter("serve.swap.reforks"),
        Some(1),
        "the single worker must have dropped exactly one stale fork"
    );
    // Per-model batch accounting: 6 batches on each label.
    assert_eq!(metrics.counter("serve.model.a-v0.batches"), Some(6));
    assert_eq!(metrics.counter("serve.model.b-v1.batches"), Some(6));
    assert_eq!(pool.live_model().0, "b");

    // The drained incumbent retires and its weights come back to refcount 1.
    assert_eq!(registry.state(&key_a), Some(ModelState::Draining));
    assert_eq!(registry.retire_drained(), vec![key_a.clone()]);
    assert_eq!(registry.state(&key_a), Some(ModelState::Retired));
    assert_eq!(
        Arc::strong_count(&old_weights),
        1,
        "retired model's weights still reachable by an executor"
    );
    pool.shutdown();
}

#[test]
fn bad_weight_files_are_typed_rejections_and_never_evict_the_incumbent() {
    let incumbent = nano_model(3);
    let pool = ServePool::new(&incumbent, serve_cfg(1, "inc"));
    let registry = ModelRegistry::default();

    let good = nano_model(4);
    let path = weights_file(&good, "good");
    let buf = std::fs::read(&path).expect("read back");

    // Truncated file.
    let truncated = path.with_file_name("truncated.pltw");
    std::fs::write(&truncated, &buf[..buf.len() / 2]).unwrap();
    let err = registry.load_file("t", 1, nano_cfg(), &truncated).unwrap_err();
    assert!(matches!(err, RegistryError::Weights(_)), "truncation must be a weights error: {err}");
    assert!(!ask(&pool, 0).is_empty() || pool.stats().completed == 1, "incumbent stopped serving");

    // Flipped bit: the CRC must catch it.
    let mut flipped = buf.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    let corrupt_path = path.with_file_name("corrupt.pltw");
    std::fs::write(&corrupt_path, &flipped).unwrap();
    let err = registry.load_file("c", 1, nano_cfg(), &corrupt_path).unwrap_err();
    assert!(
        matches!(err, RegistryError::Weights(platter_tensor::serialize::WeightError::Corrupt(_))),
        "bit rot must surface as WeightError::Corrupt: {err}"
    );

    // Wrong architecture: valid PLTW, shapes from a different network.
    let wrong_cfg = YoloConfig { input_size: 32, width: 0.05, ..YoloConfig::micro(10) };
    let err = registry.load_file("w", 1, wrong_cfg, &path).unwrap_err();
    assert!(
        matches!(
            err,
            RegistryError::Weights(platter_tensor::serialize::WeightError::Incompatible(_))
        ),
        "wrong architecture must surface as Incompatible: {err}"
    );

    // Missing file.
    let err = registry.load_file("m", 1, nano_cfg(), &path.with_file_name("nope.pltw")).unwrap_err();
    assert!(matches!(err, RegistryError::Io { .. }));

    // Typed counters saw every rejection; nothing was registered; the
    // incumbent is untouched and still serving.
    let m = registry.metrics();
    assert_eq!(m.counter("registry.rejected.corrupt"), Some(2));
    assert_eq!(m.counter("registry.rejected.incompatible"), Some(1));
    assert_eq!(m.counter("registry.rejected.io"), Some(1));
    assert_eq!(m.counter("registry.loads"), Some(0));
    assert!(registry.list().is_empty());
    ask(&pool, 1);
    assert_eq!(pool.stats().completed, 2);
    assert_eq!(pool.live_model().0, "inc");
    pool.shutdown();
}

#[test]
fn injected_swap_faults_reject_candidates_while_the_incumbent_serves() {
    let incumbent = nano_model(5);
    let candidate = nano_model(6);
    let path = weights_file(&candidate, "faulted-candidate");

    // Attempt 0 reads corrupted bytes, attempt 1 mis-calibrates the parity
    // smoke, attempt 2 stalls the load, attempt 3 runs clean.
    let plan = ServeFaultPlan::new()
        .at_swap(0, ServeFault::CorruptCandidate)
        .at_swap(1, ServeFault::CandidateParityFail)
        .at_swap(2, ServeFault::SlowLoad { delay: Duration::from_millis(20) });
    let run = |label: &str| {
        let pool = ServePool::new(&incumbent, serve_cfg(1, "inc"));
        let registry = ModelRegistry::with_faults(RegistryConfig::default(), plan.clone());
        let mut outcomes: Vec<String> = Vec::new();
        let mut answers = Vec::new();
        for attempt in 0..4u64 {
            answers.push(ask(&pool, attempt as usize));
            let got = registry.load_file("cand", attempt, nano_cfg(), &path);
            outcomes.push(match got {
                Ok(key) => format!("ok:{key}"),
                Err(e) => format!("err:{e}"),
            });
        }
        answers.push(ask(&pool, 99));
        let m = registry.metrics();
        let counters = (
            m.counter("registry.rejected.corrupt"),
            m.counter("registry.rejected.parity"),
            m.counter("registry.loads"),
        );
        let stats = pool.stats();
        assert_eq!(stats.completed, stats.accepted, "{label}: incumbent dropped a request");
        pool.shutdown();
        (outcomes, answers, counters)
    };

    let (outcomes, answers, counters) = run("first");
    assert!(outcomes[0].starts_with("err:"), "corrupt candidate must be rejected");
    assert!(outcomes[0].contains("corrupt"), "CRC rejection expected: {}", outcomes[0]);
    assert!(outcomes[1].contains("parity"), "parity rejection expected: {}", outcomes[1]);
    assert!(outcomes[2].starts_with("ok:"), "slow load still succeeds: {}", outcomes[2]);
    assert!(outcomes[3].starts_with("ok:"), "clean attempt succeeds: {}", outcomes[3]);
    assert_eq!(counters, (Some(1), Some(1), Some(2)));

    // The whole faulted sequence — rejections, counters, and every answer
    // the incumbent gave while it ran — replays bit-identically.
    let replay = run("replay");
    assert_eq!(replay.0, outcomes);
    assert_eq!(replay.1, answers);
    assert_eq!(replay.2, counters);
}

/// Everything observable from one shadow → canary run, so callers can
/// assert both the behaviour and its bit-identical replay.
#[derive(Debug, PartialEq)]
struct CanaryRun {
    answers: Vec<Vec<(usize, u32, [u32; 4])>>,
    /// (batches, images, disagreements, errors) at evaluation time.
    counts: (u64, u64, u64, u64),
    decision: CanaryDecision,
    live: String,
    state: String,
}

/// One full shadow → canary run against a fresh pool and registry.
fn canary_scenario(
    incumbent_seed: u64,
    candidate: &Yolov4,
    num: u64,
    den: u64,
    canary: &CanaryConfig,
) -> CanaryRun {
    let incumbent = nano_model(incumbent_seed);
    let pool = ServePool::new(&incumbent, serve_cfg(1, "inc"));
    let registry = ModelRegistry::default();
    registry.adopt_live(&pool).expect("adopt");
    let key = registry
        .load_file("cand", 1, nano_cfg(), &weights_file(candidate, "canary-candidate"))
        .expect("candidate loads");
    registry.start_shadow(&pool, &key, num, den).expect("shadow starts");
    assert_eq!(registry.state(&key), Some(ModelState::Shadow));

    let mut answers: Vec<_> = (0..10).map(|i| ask(&pool, i)).collect();
    let s = pool.shadow_status().expect("shadow running");
    let counts = (s.batches, s.images, s.disagreements, s.errors);
    let decision = registry.evaluate_canary(&pool, canary).expect("canary evaluates");
    answers.extend((10..14).map(|i| ask(&pool, i)));
    assert!(pool.shadow_status().is_none(), "canary decision must clear the shadow");
    let live = pool.live_model().0;
    let state = format!("{:?}", registry.state(&key));
    pool.shutdown();
    CanaryRun { answers, counts, decision, live, state }
}

#[test]
fn canary_rollback_on_disagreement_replays_bit_identically() {
    let candidate = nano_model(7);
    let canary =
        CanaryConfig { min_batches: 4, max_disagreement_rate: 0.0, max_errors: 0 };
    // Mirror half the traffic: batches 0,2,4,6,8 of the ten → 5 mirrored.
    let first = canary_scenario(8, &candidate, 1, 2, &canary);
    assert_eq!(first.counts.0, 5, "1/2 of ten closed-loop batches must mirror");
    assert_eq!(first.counts.1, 5, "one image per mirrored batch");
    assert!(first.counts.2 > 0, "different weights must disagree somewhere");
    assert_eq!(first.counts.3, 0, "a smoked candidate must not error in shadow");
    assert!(
        matches!(&first.decision, CanaryDecision::RolledBack { reason: RollbackReason::Disagreement { rate }, .. } if *rate > 0.0),
        "expected disagreement rollback, got {:?}",
        first.decision
    );
    assert_eq!(first.live, "inc", "rollback must leave the incumbent live");
    assert_eq!(first.state, format!("{:?}", Some(ModelState::Smoked)));

    // Same seeds, same schedule → same bits, same decision.
    let second = canary_scenario(8, &candidate, 1, 2, &canary);
    assert_eq!(second, first, "canary rollback did not replay bit-identically");
}

#[test]
fn canary_promotes_an_agreeing_candidate() {
    // Same weights under a new name: the shadow must agree bit-for-bit and
    // the canary must promote it.
    let incumbent = nano_model(9);
    let pool = ServePool::new(&incumbent, serve_cfg(1, "inc"));
    let registry = ModelRegistry::default();
    let key_inc = registry.adopt_live(&pool).expect("adopt");
    let key = registry
        .load_file("cand", 2, nano_cfg(), &weights_file(&incumbent, "promote-candidate"))
        .expect("candidate loads");
    registry.start_shadow(&pool, &key, 1, 1).expect("shadow starts");

    let before: Vec<_> = (0..6).map(|i| ask(&pool, i)).collect();
    let canary = CanaryConfig { min_batches: 4, max_disagreement_rate: 0.0, max_errors: 0 };
    let decision = registry.evaluate_canary(&pool, &canary).expect("evaluates");
    assert_eq!(decision, CanaryDecision::Promoted { key: key.clone() });
    assert_eq!(registry.state(&key), Some(ModelState::Live));
    assert_eq!(registry.state(&key_inc), Some(ModelState::Draining));
    assert_eq!(pool.live_model().0, "cand");

    // Identical weights: the promotion must not change a single bit.
    let after: Vec<_> = (0..6).map(|i| ask(&pool, i)).collect();
    assert_eq!(after, before, "promotion of identical weights changed answers");
    assert_eq!(registry.retire_drained(), vec![key_inc]);
    let m = registry.metrics();
    assert_eq!(m.counter("registry.promotions"), Some(1));
    assert_eq!(m.counter("registry.swaps"), Some(1));
    assert_eq!(m.counter("registry.retired"), Some(1));
    pool.shutdown();
}

#[test]
fn open_breaker_rolls_the_canary_back_and_recovery_reforks_the_incumbent() {
    let incumbent = nano_model(10);
    let candidate = nano_model(11);
    // Three consecutive corrupt compiled batches trip the default breaker
    // (threshold 3); requests still succeed via the eager retry.
    let faults = ServeFaultPlan::new()
        .at(2, ServeFault::CorruptOutput)
        .at(3, ServeFault::CorruptOutput)
        .at(4, ServeFault::CorruptOutput);
    let breaker = platter_serve::BreakerConfig { failure_threshold: 3, probe_after: 2 };
    let cfg = ServeConfig { breaker, ..serve_cfg(1, "inc") };
    let pool = ServePool::with_faults(&incumbent, cfg, faults);
    let registry = ModelRegistry::default();
    registry.adopt_live(&pool).expect("adopt");
    let key = registry
        .load_file("cand", 1, nano_cfg(), &weights_file(&candidate, "breaker-candidate"))
        .expect("loads");
    registry.start_shadow(&pool, &key, 1, 1).expect("shadow starts");

    for i in 0..5 {
        ask(&pool, i);
    }
    assert!(pool.is_degraded(), "three compiled failures must trip the breaker");

    // The canary must refuse to promote into a degraded pool, whatever the
    // disagreement numbers say.
    let lenient = CanaryConfig { min_batches: 1, max_disagreement_rate: 1.0, max_errors: 1000 };
    let decision = registry.evaluate_canary(&pool, &lenient).expect("evaluates");
    assert_eq!(
        decision,
        CanaryDecision::RolledBack { key: key.clone(), reason: RollbackReason::BreakerOpen }
    );
    assert_eq!(registry.state(&key), Some(ModelState::Smoked));
    assert_eq!(pool.live_model().0, "inc", "rollback must never flip the live slot");

    // Recovery: the probe re-forks the *incumbent* (the live slot never
    // moved) and the pool heals on it.
    for i in 5..12 {
        ask(&pool, i);
    }
    assert!(!pool.is_degraded(), "breaker must recover on the incumbent");
    let stats = pool.stats();
    assert_eq!(stats.completed, 12, "every request answered throughout trip and recovery");
    assert_eq!(stats.breaker_trips, 1);
    assert_eq!(stats.breaker_recoveries, 1);
    assert_eq!(registry.metrics().counter("registry.rollbacks"), Some(1));
    pool.shutdown();
}

#[test]
fn routed_requests_pin_their_model_and_unknown_routes_are_refused() {
    let incumbent = nano_model(12);
    let candidate = nano_model(13);

    let pool_b = ServePool::new(&candidate, serve_cfg(1, "cand"));
    let want_b: Vec<_> = (0..4).map(|i| ask(&pool_b, i)).collect();
    pool_b.shutdown();

    let pool = ServePool::new(&incumbent, serve_cfg(1, "inc"));
    let registry = ModelRegistry::default();
    let key = registry
        .load_file("cand", 1, nano_cfg(), &weights_file(&candidate, "routed-candidate"))
        .expect("loads");

    // Routing requires an explicit registry decision.
    let err = pool.submit(Request::tensor(&test_tensor(0)).route(&key)).unwrap_err();
    assert_eq!(err, ServeError::UnknownModel { model: key.clone() });
    // Route resolution comes first at the door: a malformed input to an
    // unknown route is refused as UnknownModel and never reaches sanitization.
    let malformed = Tensor::zeros(&[2, 2]);
    let err = pool.submit(Request::tensor(&malformed).route(&key)).unwrap_err();
    assert_eq!(err, ServeError::UnknownModel { model: key.clone() });
    assert_eq!(pool.stats().rejected_bad_input, 0);
    assert!(pool.quarantine().is_empty());
    registry.route(&pool, &key).expect("routes");
    assert_eq!(pool.routes(), vec![key.clone()]);

    // Routed answers match a pool built directly on the candidate, while
    // unroutedtraffic keeps hitting the incumbent's default.
    let got: Vec<_> = (0..4)
        .map(|i| {
            let x = test_tensor(i);
            det_bits(&pool.submit(Request::tensor(&x).route(&key)).expect("admitted").wait().expect("answered"))
        })
        .collect();
    assert_eq!(got, want_b, "routed requests must serve on the pinned model");
    for (_, score, _) in got.iter().flatten() {
        assert!(f32::from_bits(*score).is_finite(), "a routed candidate must answer finite detections");
    }
    let default_answer = ask(&pool, 0);
    assert_ne!(default_answer, want_b[0], "default traffic must not follow the route");

    // Per-model labels account for routed and default batches separately.
    let metrics = pool.metrics();
    assert_eq!(metrics.counter("serve.model.cand-v1.batches"), Some(4));
    assert_eq!(metrics.counter("serve.model.inc-v0.batches"), Some(1));

    registry.unroute(&pool, &key);
    let err = pool.submit(Request::tensor(&test_tensor(0)).route(&key)).unwrap_err();
    assert!(matches!(err, ServeError::UnknownModel { .. }));
    pool.shutdown();
}

#[test]
fn state_machine_guards_refuse_illegal_transitions() {
    let incumbent = nano_model(14);
    let other = nano_model(15);
    let pool = ServePool::new(&incumbent, serve_cfg(1, "inc"));
    let registry = ModelRegistry::default();
    let key_inc = registry.adopt_live(&pool).expect("adopt");

    // Adopting twice is a duplicate.
    assert!(matches!(registry.adopt_live(&pool), Err(RegistryError::Duplicate { .. })));

    // Unknown keys are typed.
    assert!(matches!(
        registry.hot_swap(&pool, "ghost@v1"),
        Err(RegistryError::UnknownModel { .. })
    ));

    // Shadow fractions must be proper.
    let key = registry
        .load_file("cand", 1, nano_cfg(), &weights_file(&other, "guard-candidate"))
        .expect("loads");
    assert!(matches!(
        registry.start_shadow(&pool, &key, 3, 2),
        Err(RegistryError::BadFraction { num: 3, den: 2 })
    ));
    assert!(matches!(
        registry.start_shadow(&pool, &key, 0, 4),
        Err(RegistryError::BadFraction { .. })
    ));
    // A proper fraction starts; stopping demotes the candidate to Smoked.
    registry.start_shadow(&pool, &key, 1, 1).expect("shadows");
    assert_eq!(registry.state(&key), Some(ModelState::Shadow));
    assert_eq!(registry.stop_shadow(&pool).expect("stops"), key);
    assert_eq!(registry.state(&key), Some(ModelState::Smoked));

    // A drained incumbent cannot be swapped back in or routed.
    registry.hot_swap(&pool, &key).expect("swap");
    assert_eq!(registry.state(&key_inc), Some(ModelState::Draining));
    assert!(matches!(
        registry.hot_swap(&pool, &key_inc),
        Err(RegistryError::NotEligible { state: ModelState::Draining, .. })
    ));
    assert!(matches!(registry.route(&pool, &key_inc), Err(RegistryError::NotEligible { .. })));

    // No shadow running → canary and stop_shadow are typed refusals.
    assert!(matches!(
        registry.evaluate_canary(&pool, &CanaryConfig::default()),
        Err(RegistryError::NoShadow)
    ));
    assert!(matches!(registry.stop_shadow(&pool), Err(RegistryError::NoShadow)));
    pool.shutdown();
}

#[test]
fn architecture_mismatch_is_a_typed_incompatible_rejection() {
    let incumbent = nano_model(17);
    let pool = ServePool::new(&incumbent, serve_cfg(1, "inc"));
    let registry = ModelRegistry::default();
    registry.adopt_live(&pool).expect("adopt");

    // A valid 7-class checkpoint loads and smokes fine on its own — the
    // registry has no pool context yet. It is only when the model tries to
    // touch this 10-class pool's traffic that the label spaces collide.
    let seven_cfg = YoloConfig { input_size: 32, width: 0.1, ..YoloConfig::micro(7) };
    let seven = Yolov4::new(seven_cfg.clone(), 18);
    let key = registry
        .load_file("seven", 1, seven_cfg, &weights_file(&seven, "seven-classes"))
        .expect("self-consistent checkpoint loads");
    assert_eq!(registry.state(&key), Some(ModelState::Smoked));

    for attempt in 1..=3u64 {
        let err = match attempt {
            1 => registry.route(&pool, &key).unwrap_err(),
            2 => registry.hot_swap(&pool, &key).map(|_| ()).unwrap_err(),
            _ => registry.start_shadow(&pool, &key, 1, 2).unwrap_err(),
        };
        match err {
            RegistryError::Incompatible { key: k, model_classes, pool_classes } => {
                assert_eq!(k, key);
                assert_eq!(model_classes, 7);
                assert_eq!(pool_classes, 10);
            }
            other => panic!("expected Incompatible, got {other}"),
        }
        assert_eq!(
            registry.metrics().counter("registry.rejected.incompatible"),
            Some(attempt),
            "every refusal must bump the typed counter"
        );
    }

    // The pool never saw the incompatible model: no route, no shadow, the
    // incumbent still owns the live slot and still serves.
    assert!(pool.routes().is_empty());
    assert!(pool.shadow_status().is_none());
    assert_eq!(pool.live_model().0, "inc");
    ask(&pool, 0);
    assert_eq!(pool.stats().completed, 1);
    pool.shutdown();
}
