//! Property-based fuzzing of the pool's input validation: whatever shape,
//! payload, or deadline ordering arrives, the pool answers every admitted
//! request with a typed result and never panics. All cases share one live
//! pool — earlier garbage must not poison later service.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use platter_imaging::{Image, Rgb};
use platter_serve::{InputError, Request, ServeConfig, ServeError, ServePool};
use platter_tensor::Tensor;
use platter_yolo::{YoloConfig, Yolov4};

const INPUT_SIZE: usize = 32;

fn pool() -> &'static ServePool {
    static POOL: OnceLock<ServePool> = OnceLock::new();
    POOL.get_or_init(|| {
        let cfg = YoloConfig { input_size: INPUT_SIZE, width: 0.1, ..YoloConfig::micro(10) };
        let model = Yolov4::new(cfg, 5);
        ServePool::new(&model, ServeConfig { max_wait: Duration::from_millis(1), ..ServeConfig::new(1) })
    })
}

/// A value that fails `is_finite`.
fn non_finite() -> impl Strategy<Value = f32> {
    prop_oneof![Just(f32::NAN), Just(f32::INFINITY), Just(f32::NEG_INFINITY)]
}

/// Deadline offsets covering already-expired, immediate, and generous.
fn deadline() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), Just(Some(0)), (1u64..=30).prop_map(Some)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_shapes_never_panic_the_pool(shape in collection::vec(0usize..=20, 0..=4)) {
        let x = Tensor::zeros(&shape);
        match pool().submit_tensor(&x) {
            Ok(pending) => {
                prop_assert_eq!(&shape, &[3, INPUT_SIZE, INPUT_SIZE]);
                prop_assert!(pending.wait().is_ok(), "well-formed tensor is served");
            }
            Err(ServeError::BadInput(InputError::BadShape { got, want })) => {
                prop_assert_ne!(&shape, &[3, INPUT_SIZE, INPUT_SIZE]);
                prop_assert_eq!(got, shape);
                prop_assert_eq!(want, [3, INPUT_SIZE, INPUT_SIZE]);
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error: {other}"))),
        }
    }

    #[test]
    fn non_finite_payloads_are_always_quarantined(
        index in 0usize..3 * INPUT_SIZE * INPUT_SIZE,
        bad in non_finite(),
        fill in 0.0f32..1.0,
    ) {
        let before = pool().quarantine().len();
        let mut data = vec![fill; 3 * INPUT_SIZE * INPUT_SIZE];
        data[index] = bad;
        let x = Tensor::from_vec(data, &[3, INPUT_SIZE, INPUT_SIZE]);
        match pool().submit_tensor(&x) {
            Err(ServeError::BadInput(InputError::NonFinite { index: at, count })) => {
                prop_assert_eq!(at, index);
                prop_assert_eq!(count, 1);
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "non-finite payload must be refused, got {other:?}"
                )))
            }
        }
        prop_assert!(pool().quarantine().len() > before.min(31), "rejection leaves a record");
    }

    #[test]
    fn random_deadline_orderings_never_wedge_the_pool(
        offsets in collection::vec(deadline(), 1..=6),
        fill in 0.0f32..1.0,
    ) {
        let x = Tensor::full(&[3, INPUT_SIZE, INPUT_SIZE], fill);
        let now = Instant::now();
        let mut pending = Vec::new();
        for off in &offsets {
            let deadline = off.map(|ms| now + Duration::from_millis(ms));
            match pool().submit(Request::tensor(&x).deadline(deadline)) {
                Ok(p) => pending.push(p),
                Err(ServeError::Rejected { .. }) => {}
                Err(other) => {
                    return Err(TestCaseError::fail(format!("unexpected admission error: {other}")))
                }
            }
        }
        for p in pending {
            match p.wait() {
                Ok(_) | Err(ServeError::DeadlineExceeded) => {}
                Err(other) => {
                    return Err(TestCaseError::fail(format!("unexpected outcome: {other}")))
                }
            }
        }
        // The pool survived the whole ordering: fresh work still runs.
        let img = Image::new(20, 20, Rgb::new(fill, fill, fill));
        prop_assert!(pool().detect(&img).is_ok());
    }
}

/// Deterministic check of the per-reason sanitize counters: a fresh pool
/// starts at zero, and each refusal lands on exactly the counter named
/// after its reason.
#[test]
fn sanitize_counters_attribute_each_refusal_reason() {
    let cfg = YoloConfig { input_size: INPUT_SIZE, width: 0.1, ..YoloConfig::micro(10) };
    let model = Yolov4::new(cfg, 5);
    let pool = ServePool::new(
        &model,
        ServeConfig { max_image_dim: 64, ..ServeConfig::new(1) },
    );
    for name in ["serve.sanitize.nonfinite", "serve.sanitize.badshape", "serve.sanitize.baddims"] {
        assert_eq!(pool.metrics().counter(name), Some(0), "{name} starts at zero");
    }

    let mut data = vec![0.5f32; 3 * INPUT_SIZE * INPUT_SIZE];
    data[7] = f32::NAN;
    let bad_payload = Tensor::from_vec(data, &[3, INPUT_SIZE, INPUT_SIZE]);
    assert!(matches!(
        pool.submit_tensor(&bad_payload),
        Err(ServeError::BadInput(InputError::NonFinite { .. }))
    ));

    assert!(matches!(
        pool.submit_tensor(&Tensor::zeros(&[2, 2])),
        Err(ServeError::BadInput(InputError::BadShape { .. }))
    ));

    let oversized = Image::new(128, 16, Rgb::new(0.4, 0.4, 0.4));
    assert!(matches!(
        pool.submit_image(&oversized),
        Err(ServeError::BadInput(InputError::BadDims { .. }))
    ));

    let snap = pool.metrics();
    assert_eq!(snap.counter("serve.sanitize.nonfinite"), Some(1));
    assert_eq!(snap.counter("serve.sanitize.badshape"), Some(1));
    assert_eq!(snap.counter("serve.sanitize.baddims"), Some(1));
    // The aggregate rejection stat agrees with the per-reason breakdown.
    assert_eq!(pool.stats().rejected_bad_input, 3);
}
