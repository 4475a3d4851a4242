//! Output checks: every answer the pool gives is compared with the
//! library's own single-caller path on the same input.
//!
//! Stated tolerance: two detection lists match when every detection pairs
//! with one of the same class whose score and four box coordinates each
//! differ by at most [`TOLERANCE`]. A reordering of the floating-point
//! arithmetic moves values by far less than that; a real defect moves them
//! by far more. Near-threshold detections may legitimately appear on one
//! side only: those within the tolerance of the confidence threshold, plus
//! at most one in [`NMS_SLACK_PER`] per list for suppression decisions that
//! flipped on an overlap sitting at the NMS threshold.

use platter_yolo::{Detection, SortTracker, Track, TrackConfig};

/// Largest accepted difference in a score or a normalised box coordinate.
pub const TOLERANCE: f32 = 1e-3;
/// One unpaired detection per this many is excused as an NMS flip.
pub const NMS_SLACK_PER: usize = 100;

/// Human-readable statement of the rule, for the report.
pub fn rule() -> String {
    format!(
        "class equal, |score|/|coord| diff <= {TOLERANCE}; unpaired allowed within {TOLERANCE} of conf_thresh, plus 1 per {NMS_SLACK_PER} dets"
    )
}

fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= TOLERANCE
}

fn same_detection(a: &Detection, b: &Detection) -> bool {
    a.class == b.class
        && close(a.score, b.score)
        && close(a.bbox.cx, b.bbox.cx)
        && close(a.bbox.cy, b.bbox.cy)
        && close(a.bbox.w, b.bbox.w)
        && close(a.bbox.h, b.bbox.h)
}

/// Whether `got` matches the reference `want` under the stated tolerance;
/// `conf_thresh` is the threshold both were produced with.
pub fn detections_match(got: &[Detection], want: &[Detection], conf_thresh: f32) -> bool {
    let mut used = vec![false; got.len()];
    let mut unpaired_want = 0usize;
    for w in want {
        let hit = got.iter().enumerate().position(|(i, g)| !used[i] && same_detection(g, w));
        match hit {
            Some(i) => used[i] = true,
            None if close(w.score, conf_thresh) => {}
            None => unpaired_want += 1,
        }
    }
    let unpaired_got = got.iter().zip(&used).filter(|(g, &u)| !u && !close(g.score, conf_thresh)).count();
    unpaired_want <= want.len() / NMS_SLACK_PER && unpaired_got <= got.len() / NMS_SLACK_PER
}

/// Whether two frames' track lists agree: same tracks in the same (id)
/// order, identities, classes and hit counts exact, boxes and scores within
/// [`TOLERANCE`].
pub fn tracks_match(got: &[Track], want: &[Track]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.id == w.id
                && g.class == w.class
                && g.hits == w.hits
                && close(g.score, w.score)
                && close(g.bbox.cx, w.bbox.cx)
                && close(g.bbox.cy, w.bbox.cy)
                && close(g.bbox.w, w.bbox.w)
                && close(g.bbox.h, w.bbox.h)
        })
}

/// An offline tracker replay: the tracks a fresh [`SortTracker`] reports
/// after each frame's detections, in frame order.
pub fn replay(cfg: TrackConfig, frames: &[Vec<Detection>]) -> Vec<Vec<Track>> {
    let mut tracker = SortTracker::new(cfg).expect("the default track config is valid");
    frames.iter().map(|dets| tracker.step(dets)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use platter_imaging::NormBox;

    fn det(class: usize, score: f32, cx: f32) -> Detection {
        Detection { class, score, bbox: NormBox { cx, cy: 0.5, w: 0.2, h: 0.3 } }
    }

    fn sample() -> Vec<Detection> {
        vec![det(1, 0.9, 0.2), det(2, 0.7, 0.5), det(1, 0.4, 0.8)]
    }

    #[test]
    fn identical_and_reordered_lists_match() {
        let want = sample();
        assert!(detections_match(&want, &want, 0.25));
        let mut shuffled = want.clone();
        shuffled.reverse();
        assert!(detections_match(&shuffled, &want, 0.25));
        let mut jittered = want.clone();
        jittered[0].score += TOLERANCE / 4.0;
        jittered[1].bbox.cx -= TOLERANCE / 4.0;
        assert!(detections_match(&jittered, &want, 0.25));
    }

    #[test]
    fn perturbed_detection_is_rejected() {
        let want = sample();
        for perturb in [
            |d: &mut Detection| d.score += 0.01,
            |d: &mut Detection| d.bbox.cx += 0.01,
            |d: &mut Detection| d.bbox.h *= 1.1,
            |d: &mut Detection| d.class = 7,
        ] {
            let mut got = want.clone();
            perturb(&mut got[1]);
            assert!(!detections_match(&got, &want, 0.25));
        }
        // A dropped or an extra detection away from the threshold fails.
        assert!(!detections_match(&want[..2], &want, 0.25));
        let mut extra = want.clone();
        extra.push(det(3, 0.6, 0.1));
        assert!(!detections_match(&extra, &want, 0.25));
    }

    #[test]
    fn slack_covers_only_borderline_and_rare_flips() {
        let want = sample();
        let mut got = want.clone();
        got.push(det(4, 0.25 + TOLERANCE / 2.0, 0.3));
        assert!(detections_match(&got, &want, 0.25), "a threshold-borderline extra is excused");
        // In a crowded frame one flip per hundred is excused, three are not.
        let crowd: Vec<Detection> =
            (0..200).map(|i| det(i % 10, 0.3 + i as f32 * 1e-3, i as f32 / 200.0)).collect();
        let mut one = crowd.clone();
        one[10].score += 0.05;
        assert!(detections_match(&one, &crowd, 0.25));
        let mut three = crowd.clone();
        for i in [10, 50, 90] {
            three[i].score += 0.05;
        }
        assert!(!detections_match(&three, &crowd, 0.25));
    }

    #[test]
    fn reordered_track_id_is_rejected() {
        let frames = vec![sample(), sample(), sample()];
        let want = replay(TrackConfig::default(), &frames);
        let last = want.last().expect("three frames").clone();
        assert!(last.len() >= 2, "the sample keeps at least two tracks alive");
        assert!(tracks_match(&last, &last));
        let mut swapped = last.clone();
        let (a, b) = (swapped[0].id, swapped[1].id);
        swapped[0].id = b;
        swapped[1].id = a;
        assert!(!tracks_match(&swapped, &last));
        let mut reordered = last.clone();
        reordered.swap(0, 1);
        assert!(!tracks_match(&reordered, &last));
        let mut moved = last.clone();
        moved[0].bbox.cy += 0.01;
        assert!(!tracks_match(&moved, &last));
    }

    #[test]
    fn replay_is_deterministic() {
        let frames = vec![sample(), sample()[..2].to_vec(), sample()];
        assert_eq!(replay(TrackConfig::default(), &frames), replay(TrackConfig::default(), &frames));
    }
}
