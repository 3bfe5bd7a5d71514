"""Unit tests for the numpy CNN eye tracker (RITnet stand-in)."""

import numpy as np
import pytest

from repro.perception.eye_tracking import ConvLayer, EyeTracker, _im2col
from repro.sensors.eye import EyeImageGenerator


def test_im2col_shapes():
    x = np.random.default_rng(0).random((2, 3, 8, 10))
    cols = _im2col(x, kernel=3)
    assert cols.shape == (2, 8, 10, 27)


def test_conv_layer_forward_matches_scipy():
    from scipy.signal import correlate2d

    rng = np.random.default_rng(1)
    layer = ConvLayer.create(1, 1, 3, rng)
    x = rng.random((1, 1, 6, 7))
    out, _ = layer.forward(x)
    kernel = layer.weight.reshape(3, 3)
    expected = correlate2d(x[0, 0], kernel, mode="same") + layer.bias[0]
    assert np.allclose(out[0, 0], expected, atol=1e-10)


def test_conv_backward_matches_numeric_gradient():
    rng = np.random.default_rng(2)
    layer = ConvLayer.create(2, 3, 3, rng)
    x = rng.random((1, 2, 5, 5))
    out, cols = layer.forward(x)
    grad_out = rng.random(out.shape)
    grad_w, _grad_b = layer.weight_gradients(grad_out, cols)

    eps = 1e-6
    i, j = 1, 7
    perturbed = ConvLayer(layer.weight.copy(), layer.bias.copy(), 3)
    perturbed.weight[i, j] += eps
    out2, _ = perturbed.forward(x)
    numeric = ((out2 - out) * grad_out).sum() / eps
    assert grad_w[i, j] == pytest.approx(numeric, rel=1e-4)


def test_conv_backward_input_gradient_numeric():
    rng = np.random.default_rng(3)
    layer = ConvLayer.create(1, 2, 3, rng)
    x = rng.random((1, 1, 5, 5))
    out, _cols = layer.forward(x)
    grad_out = rng.random(out.shape)
    grad_x = layer.input_gradient(grad_out, x.shape)
    eps = 1e-6
    x2 = x.copy()
    x2[0, 0, 2, 3] += eps
    out2, _ = layer.forward(x2)
    numeric = ((out2 - out) * grad_out).sum() / eps
    assert grad_x[0, 0, 2, 3] == pytest.approx(numeric, rel=1e-4)


@pytest.fixture(scope="module")
def trained_tracker():
    tracker = EyeTracker(seed=1)
    tracker.train(EyeImageGenerator(seed=0), steps=80)
    return tracker


def test_training_reduces_loss():
    tracker = EyeTracker(seed=2)
    losses = tracker.train(EyeImageGenerator(seed=5), steps=60)
    assert losses[-1] < 0.4 * losses[0]
    assert tracker.trained


def test_trained_tracker_segments_pupil(trained_tracker):
    samples = EyeImageGenerator(seed=77).batch(10)
    metrics = trained_tracker.evaluate(samples)
    assert metrics["mean_iou"] > 0.6
    assert metrics["mean_gaze_error"] < 0.3


def test_predict_shapes_and_batch_of_two(trained_tracker):
    generator = EyeImageGenerator(seed=9)
    pair = np.stack([generator.sample().image, generator.sample().image])
    result = trained_tracker.predict(pair)
    assert result.masks.shape == (2, 48, 64)
    assert result.gaze.shape == (2, 2)
    assert result.probabilities.min() >= 0 and result.probabilities.max() <= 1


def test_predict_single_image_promoted_to_batch(trained_tracker):
    image = EyeImageGenerator(seed=10).sample().image
    result = trained_tracker.predict(image)
    assert result.masks.shape == (1, 48, 64)


def test_gaze_estimate_tracks_direction(trained_tracker):
    generator = EyeImageGenerator(seed=11, noise_std=0.0)
    left = generator.sample(gaze=(-0.7, 0.0))
    right = generator.sample(gaze=(0.7, 0.0))
    gaze_left = trained_tracker.predict(left.image).gaze[0, 0]
    gaze_right = trained_tracker.predict(right.image).gaze[0, 0]
    assert gaze_right > gaze_left + 0.5


def test_task_breakdown_rows(trained_tracker):
    trained_tracker.predict(EyeImageGenerator(seed=12).sample().image)
    breakdown = trained_tracker.task_breakdown()
    assert set(breakdown) == {"convolution", "batch_copy", "activation", "misc"}
    assert breakdown["convolution"] > 0


def test_weight_bytes_small():
    # RITnet is ~1 MB; our stand-in is deliberately tiny.
    assert EyeTracker(seed=0).weight_bytes() < 64 * 1024
