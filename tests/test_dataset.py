"""Unit tests for the offline dataset (record/replay)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.sensors.dataset import make_vicon_room_dataset


def test_dataset_rates(small_dataset):
    duration = 6.0
    assert len(small_dataset.camera_frames) == pytest.approx(duration * 15, abs=1)
    assert len(small_dataset.imu_samples) == pytest.approx(duration * 500, abs=2)


def test_imu_between_windows(small_dataset):
    window = small_dataset.imu_between(1.0, 1.1)
    assert len(window) == pytest.approx(50, abs=1)
    assert all(1.0 < s.timestamp <= 1.1 for s in window)


def test_imu_between_empty_window(small_dataset):
    assert small_dataset.imu_between(2.0, 2.0) == []


def test_frames_between(small_dataset):
    frames = small_dataset.frames_between(0.0, 1.0)
    assert len(frames) == pytest.approx(15, abs=1)
    assert all(0.0 < f.timestamp <= 1.0 for f in frames)


def test_ground_truth_matches_trajectory(small_dataset):
    pose = small_dataset.ground_truth(2.5)
    sample = small_dataset.trajectory.sample(2.5)
    assert np.allclose(pose.position, sample.position)
    assert pose.timestamp == 2.5


def test_dataset_deterministic():
    a = make_vicon_room_dataset(duration=2.0, seed=7)
    b = make_vicon_room_dataset(duration=2.0, seed=7)
    frame_a = a.camera_frames[10]
    frame_b = b.camera_frames[10]
    assert frame_a.observations == frame_b.observations


def test_dataset_exposure_knob():
    noisy = make_vicon_room_dataset(duration=1.0, seed=1, exposure_ms=0.25)
    assert noisy.camera.pixel_noise > make_vicon_room_dataset(
        duration=1.0, seed=1, exposure_ms=4.0
    ).camera.pixel_noise


def test_dataset_duration_property(small_dataset):
    assert small_dataset.duration >= 6.0


class _RecordingFilter:
    """A stand-in VIO filter: logs every call and estimates the true pose."""

    def __init__(self, dataset):
        self.dataset = dataset
        self.calls = []

    def process_imu(self, sample):
        self.calls.append(("imu", sample.timestamp))

    def process_frame(self, frame):
        self.calls.append(("frame", frame.timestamp))
        return SimpleNamespace(pose=self.dataset.ground_truth(frame.timestamp))


def test_replay_feeds_each_imu_sample_once_before_its_frame(small_dataset):
    vio = _RecordingFilter(small_dataset)
    replayed = list(small_dataset.replay(vio))
    frame_times = [f.timestamp for f in small_dataset.camera_frames]
    assert [t for kind, t in vio.calls if kind == "frame"] == frame_times
    assert [error for error, _seconds in replayed] == [0.0] * len(frame_times)
    assert all(seconds >= 0.0 for _error, seconds in replayed)
    # Every sample in (0, last frame] exactly once, in order...
    imu_times = [s.timestamp for s in small_dataset.imu_samples]
    expected = [t for t in imu_times if 0.0 < t <= frame_times[-1]]
    assert [t for kind, t in vio.calls if kind == "imu"] == expected
    assert len(expected) < len(imu_times)  # the recording runs past its last frame
    # ...each after the frame before it and before the frame it precedes,
    # and none after the last frame.
    previous_frame, pending = 0.0, []
    for kind, t in vio.calls:
        if kind == "imu":
            pending.append(t)
        else:
            assert all(previous_frame < s <= t for s in pending)
            previous_frame, pending = t, []
    assert pending == []
