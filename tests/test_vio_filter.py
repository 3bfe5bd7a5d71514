"""Integration tests for the full MSCKF filter on the offline dataset."""

import numpy as np
import pytest

from repro.perception.vio import update
from repro.perception.vio.msckf import TASK_NAMES, Msckf, MsckfConfig
from repro.perception.vio.tracker import FeatureTracker, Track
from repro.perception.vio.update import CHI2_MAX_DOF, MAX_TRACK_CLONES, chi2_threshold


def _run_filter(dataset, config=None):
    vio = dataset.start_vio(Msckf, config or MsckfConfig.standard())
    return vio, np.array([error for error, _seconds in dataset.replay(vio)])


def test_filter_converges_on_dataset(small_dataset):
    vio, errors = _run_filter(small_dataset)
    assert errors.mean() < 0.12
    assert errors.max() < 0.35
    # Error must not grow without bound: the last quarter is comparable
    # to the middle (no divergence).
    n = len(errors)
    assert errors[3 * n // 4 :].mean() < 4 * errors[n // 4 : n // 2].mean() + 0.05


def test_filter_window_bounded(small_dataset):
    vio, _ = _run_filter(small_dataset)
    assert len(vio.state.clones) <= MsckfConfig.standard().max_clones
    assert len(vio.state.landmarks) <= MsckfConfig.standard().max_slam_landmarks


def test_filter_covariance_stays_symmetric_psd(small_dataset):
    vio, _ = _run_filter(small_dataset)
    cov = vio.state.covariance
    assert np.allclose(cov, cov.T, atol=1e-9)
    eigenvalues = np.linalg.eigvalsh(cov)
    assert eigenvalues.min() > -1e-8


def test_task_breakdown_covers_all_rows(small_dataset):
    vio, _ = _run_filter(small_dataset)
    breakdown = vio.task_breakdown()
    assert set(breakdown) == set(TASK_NAMES)
    # Every task actually ran.
    for name in ("feature_matching", "feature_initialization", "msckf_update", "marginalization"):
        assert breakdown[name] > 0.0, name


def test_filter_tolerates_dropped_frames(small_dataset):
    # The replay processes every frame; this one drops some, so it feeds
    # the filter itself.  A dropped frame's IMU samples still arrive.
    skip = set(range(10, len(small_dataset.camera_frames), 4))
    vio = small_dataset.start_vio(Msckf, MsckfConfig.standard())
    t_last = 0.0
    errors = []
    for index, frame in enumerate(small_dataset.camera_frames):
        for sample in small_dataset.imu_between(t_last, frame.timestamp):
            vio.process_imu(sample)
        t_last = frame.timestamp
        if index in skip:
            continue
        estimate = vio.process_frame(frame)
        errors.append(estimate.pose.translation_error(small_dataset.ground_truth(frame.timestamp)))
    assert np.mean(errors) < 0.2


def test_high_accuracy_preset_tracks_more_features(small_dataset):
    standard, _ = _run_filter(small_dataset, MsckfConfig.standard())
    high, _ = _run_filter(small_dataset, MsckfConfig.high_accuracy())
    assert high.tracker.max_features > standard.tracker.max_features


def test_config_validation():
    with pytest.raises(ValueError):
        MsckfConfig(max_clones=2)
    # A track spans up to max_clones + 1 clones, a gate of 4K - 3 rows for
    # K clones, so the chi-squared table bounds the window.
    assert chi2_threshold(4 * MAX_TRACK_CLONES - 3) > 0
    largest = MAX_TRACK_CLONES - 1
    MsckfConfig(max_clones=largest)
    with pytest.raises(ValueError, match="max_clones"):
        MsckfConfig(max_clones=largest + 1)
    with pytest.raises(ValueError):
        chi2_threshold(CHI2_MAX_DOF + 1)
    with pytest.raises(ValueError):
        MsckfConfig(max_clones=5, slam_promotion_length=9)
    for sigma in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="pixel_sigma"):
            MsckfConfig(pixel_sigma=sigma)
    for bar in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="max_triangulation_error_px"):
            MsckfConfig(max_triangulation_error_px=bar)
    MsckfConfig(max_triangulation_error_px=0.0)


def test_gate_dofs_are_slam_or_track_rows(small_dataset, monkeypatch):
    seen = []

    def recording_threshold(dof):
        seen.append(dof)
        return chi2_threshold(dof)

    monkeypatch.setattr(update, "chi2_threshold", recording_threshold)
    config = MsckfConfig.standard()
    _run_filter(small_dataset, config)
    tracks = {4 * k - 3 for k in range(1, config.max_clones + 2)}
    assert seen and set(seen) <= tracks | {4}
    assert 4 in seen and max(seen) > 4


def test_estimate_fields(small_dataset):
    vio, _ = _run_filter(small_dataset)
    estimate = vio.estimate()
    assert estimate.position_sigma > 0
    assert estimate.tracked_features >= 0
    assert estimate.slam_landmarks == len(vio.state.landmarks)


# ---------------------------------------------------------------------------
# Tracker
# ---------------------------------------------------------------------------


def _frame(ids, timestamp=0.0):
    from repro.sensors.camera import CameraFrame

    return CameraFrame(
        timestamp=timestamp,
        observations={i: (100.0 + i, 100.0, 95.0 + i, 100.0) for i in ids},
    )


def test_tracker_match_extends_and_retires():
    tracker = FeatureTracker(max_features=10)
    tracker.detect(_frame([1, 2, 3]), clone_id=0)
    matched, lost = tracker.match(_frame([2, 3, 4]), clone_id=1)
    assert matched == 2
    assert [t.feature_id for t in lost] == [1]
    assert tracker.active[2].length == 2


def test_tracker_budget():
    tracker = FeatureTracker(max_features=5)
    detected = tracker.detect(_frame(range(20)), clone_id=0)
    assert detected == 5
    assert len(tracker.active) == 5


def test_tracker_exclusion():
    tracker = FeatureTracker(max_features=10)
    tracker.detect(_frame([1, 2, 3]), clone_id=0, exclude={2})
    assert 2 not in tracker.active


def test_tracker_drop_clone():
    tracker = FeatureTracker(max_features=10)
    tracker.detect(_frame([1]), clone_id=0)
    tracker.match(_frame([1]), clone_id=1)
    tracker.drop_clone(0)
    assert list(tracker.active[1].observations) == [1]


def test_tracker_minimum_budget():
    with pytest.raises(ValueError):
        FeatureTracker(max_features=2)


def test_track_add_and_drop():
    track = Track(feature_id=9)
    track.add(0, np.array([1.0, 2.0]), np.array([0.5, 2.0]))
    track.add(1, np.array([1.1, 2.1]), np.array([0.6, 2.1]))
    assert track.length == 2
    track.drop_clone(0)
    assert track.length == 1
    track.drop_clone(42)  # no-op
    assert track.length == 1
