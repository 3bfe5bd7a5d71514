"""Unit + property tests for QoE metrics: SSIM, FLIP, MTP, trajectory."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maths.se3 import Pose
from repro.metrics.flip import flip, one_minus_flip
from repro.metrics.mtp import MtpSample, summarize_mtp
from repro.metrics.ssim import ssim
from repro.metrics.trajectory import (
    absolute_trajectory_error,
    align_origins,
    relative_pose_error,
)


def _image(seed=0, shape=(32, 48, 3)):
    return np.random.default_rng(seed).random(shape)


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------


def test_ssim_identity_is_one():
    image = _image()
    assert ssim(image, image) == pytest.approx(1.0)


def test_ssim_range_and_sensitivity():
    image = _image(1)
    slightly = np.clip(image + 0.02, 0, 1)
    very = np.clip(image + 0.4, 0, 1)
    s_slight = ssim(image, slightly)
    s_very = ssim(image, very)
    assert -1.0 <= s_very < s_slight < 1.0


def test_ssim_grayscale_and_color_agree_on_gray_content():
    gray = _image(2, shape=(32, 48))
    color = np.repeat(gray[..., None], 3, axis=-1)
    assert ssim(color, color * 0.9) == pytest.approx(
        ssim(gray, gray * 0.9), abs=1e-9
    )


def test_ssim_shape_mismatch():
    with pytest.raises(ValueError):
        ssim(_image(), _image(0, shape=(16, 16, 3)))


def test_ssim_invalid_data_range():
    for data_range in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ssim(_image(), _image(), data_range=data_range)


def test_ssim_invalid_sigma():
    for sigma in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ssim(_image(), _image(), sigma=sigma)


def test_ssim_full_map():
    image = _image(3)
    full = ssim(image, image, full=True)
    assert full.shape == image.shape
    assert np.allclose(full, 1.0)


@settings(max_examples=20)
@given(st.integers(0, 1000))
def test_ssim_symmetric(seed):
    a = _image(seed)
    b = _image(seed + 1)
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-9)


# ---------------------------------------------------------------------------
# FLIP
# ---------------------------------------------------------------------------


def test_flip_identity_is_zero():
    image = _image(4)
    assert flip(image, image) == pytest.approx(0.0, abs=1e-9)


def test_flip_range_and_monotonicity():
    image = _image(5)
    slightly = np.clip(image + 0.05, 0, 1)
    very = 1.0 - image
    f_slight = flip(image, slightly)
    f_very = flip(image, very)
    assert 0.0 < f_slight < f_very <= 1.0


def test_flip_black_vs_white_is_large():
    black = np.zeros((24, 24, 3))
    white = np.ones((24, 24, 3))
    assert flip(black, white) > 0.7


def test_one_minus_flip_convention():
    a = _image(6)
    b = np.clip(a + 0.1, 0, 1)
    assert one_minus_flip(a, b) == pytest.approx(1.0 - flip(a, b))


def test_flip_validation():
    with pytest.raises(ValueError):
        flip(_image(), _image(0, shape=(16, 16, 3)))
    with pytest.raises(ValueError):
        flip(_image()[..., 0], _image()[..., 0])
    for ppd in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            flip(_image(), _image(), pixels_per_degree=ppd)


def test_flip_full_map_shape():
    image = _image(7)
    error_map = flip(image, np.clip(image + 0.1, 0, 1), full=True)
    assert error_map.shape == image.shape[:2]
    assert error_map.min() >= 0.0 and error_map.max() <= 1.0


# ---------------------------------------------------------------------------
# MTP
# ---------------------------------------------------------------------------


def test_mtp_sample_total():
    sample = MtpSample(frame_time=1.0, imu_age=0.001, reprojection_time=0.002, swap_wait=0.0005)
    assert sample.total == pytest.approx(0.0035)
    assert sample.total_ms == pytest.approx(3.5)


def test_mtp_sample_validation():
    with pytest.raises(ValueError):
        MtpSample(frame_time=0.0, imu_age=-0.001, reprojection_time=0.0, swap_wait=0.0)


def test_mtp_summary_statistics():
    samples = [
        MtpSample(frame_time=i, imu_age=0.001 * (i + 1), reprojection_time=0.001, swap_wait=0.0)
        for i in range(5)
    ]  # totals: 2, 3, 4, 5, 6 ms
    summary = summarize_mtp(samples)
    assert summary.mean_ms == pytest.approx(4.0)
    assert summary.count == 5
    assert summary.max_ms == pytest.approx(6.0)
    assert summary.vr_target_met_fraction == 1.0
    assert summary.ar_target_met_fraction == pytest.approx(4 / 5)


def test_mtp_summary_empty():
    summary = summarize_mtp([])
    assert math.isnan(summary.mean_ms)
    assert summary.count == 0


# ---------------------------------------------------------------------------
# Trajectory errors
# ---------------------------------------------------------------------------


def _poses(offsets):
    return [Pose(np.array([x, 0.0, 0.0]), timestamp=float(i)) for i, x in enumerate(offsets)]


def test_ate_exact_values():
    truth = _poses([0.0, 1.0, 2.0])
    estimate = _poses([0.1, 1.1, 2.1])
    error = absolute_trajectory_error(estimate, truth)
    assert error.rmse_m == pytest.approx(0.1)
    assert error.mean_m == pytest.approx(0.1)
    assert error.count == 3


def test_ate_validation():
    with pytest.raises(ValueError):
        absolute_trajectory_error(_poses([0.0]), _poses([0.0, 1.0]))
    with pytest.raises(ValueError):
        absolute_trajectory_error([], [])


def test_rpe_ignores_constant_offset():
    truth = _poses([0.0, 1.0, 2.0, 3.0, 4.0])
    estimate = _poses([10.0, 11.0, 12.0, 13.0, 14.0])  # constant 10 m offset
    error = relative_pose_error(estimate, truth, window=2)
    assert error.rmse_m == pytest.approx(0.0, abs=1e-12)


def test_rpe_detects_drift():
    truth = _poses([0.0, 1.0, 2.0, 3.0, 4.0])
    estimate = _poses([0.0, 1.1, 2.2, 3.3, 4.4])  # 10% scale drift
    error = relative_pose_error(estimate, truth, window=2)
    assert error.mean_m == pytest.approx(0.2, abs=1e-9)


def test_rpe_validation():
    with pytest.raises(ValueError):
        relative_pose_error(_poses([0.0, 1.0]), _poses([0.0, 1.0]), window=0)
    with pytest.raises(ValueError):
        relative_pose_error(_poses([0.0, 1.0]), _poses([0.0, 1.0]), window=5)


def test_align_origins():
    estimate = _poses([5.0, 6.0, 7.0])
    truth = _poses([0.0, 1.0, 2.0])
    aligned_est, aligned_truth = align_origins(estimate, truth)
    error = absolute_trajectory_error(aligned_est, aligned_truth)
    assert error.rmse_m == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        align_origins([], [])
