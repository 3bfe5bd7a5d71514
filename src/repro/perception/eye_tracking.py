"""Eye tracking: CNN pupil segmentation (the RITnet stand-in).

RITnet is a small encoder-decoder segmenting eye images in real time.
This module implements a compact fully convolutional network *from scratch
in numpy* -- im2col convolutions, ReLU, sigmoid head -- trained online with
SGD on the synthetic eye-image generator, and evaluated by pupil IoU and
gaze error.

Task accounting mirrors the paper's §IV-B2 eye-tracking profile:
``convolution`` (74 % in the paper), ``batch_copy`` (19 %), and
``activation``/``misc`` (the rest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.perf import TaskTimer
from repro.sensors.eye import EyeImageGenerator, EyeSample

TASK_NAMES = ("convolution", "batch_copy", "activation", "misc")


def _im2col(x: np.ndarray, kernel: int) -> np.ndarray:
    """(N, C, H, W) -> (N, H, W, C*k*k) patches with 'same' zero padding."""
    n, c, h, w = x.shape
    pad = kernel // 2
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    # Gather shifted views; stack along a new patch axis.
    cols = np.empty((n, h, w, c * kernel * kernel), dtype=x.dtype)
    idx = 0
    for dy in range(kernel):
        for dx in range(kernel):
            cols[..., idx * c : (idx + 1) * c] = np.moveaxis(
                padded[:, :, dy : dy + h, dx : dx + w], 1, -1
            )
            idx += 1
    return cols


@dataclass
class ConvLayer:
    """A 2-D convolution with bias, 'same' padding, stride 1."""

    weight: np.ndarray  # (out_c, in_c * k * k)
    bias: np.ndarray    # (out_c,)
    kernel: int

    @staticmethod
    def create(in_c: int, out_c: int, kernel: int, rng: np.random.Generator) -> "ConvLayer":
        """He-initialized layer."""
        fan_in = in_c * kernel * kernel
        weight = rng.normal(0.0, np.sqrt(2.0 / fan_in), (out_c, fan_in))
        return ConvLayer(weight=weight, bias=np.zeros(out_c), kernel=kernel)

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Returns (output (N, out_c, H, W), cached patches for backward)."""
        cols = _im2col(x, self.kernel)  # (N, H, W, C*k*k)
        out = cols @ self.weight.T + self.bias
        return np.moveaxis(out, -1, 1), cols

    def backward(
        self, grad_out: np.ndarray, cols: np.ndarray, x_shape: Tuple[int, ...]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns (grad_x, grad_weight, grad_bias)."""
        n, out_c, h, w = grad_out.shape
        g = np.moveaxis(grad_out, 1, -1).reshape(-1, out_c)  # (NHW, out_c)
        grad_w = g.T @ cols.reshape(-1, cols.shape[-1])
        grad_b = g.sum(axis=0)
        grad_cols = (g @ self.weight).reshape(n, h, w, -1)
        # col2im: scatter-add the patch gradients back.
        in_c = x_shape[1]
        pad = self.kernel // 2
        grad_padded = np.zeros((n, in_c, h + 2 * pad, w + 2 * pad))
        idx = 0
        for dy in range(self.kernel):
            for dx in range(self.kernel):
                grad_padded[:, :, dy : dy + h, dx : dx + w] += np.moveaxis(
                    grad_cols[..., idx * in_c : (idx + 1) * in_c], -1, 1
                )
                idx += 1
        grad_x = grad_padded[:, :, pad : pad + h, pad : pad + w]
        return grad_x, grad_w, grad_b


@dataclass(frozen=True)
class EyeTrackingResult:
    """Segmentation output for one stereo pair of eye images."""

    masks: np.ndarray        # (N, H, W) bool predicted pupil
    gaze: np.ndarray         # (N, 2) estimated gaze from mask centroid
    probabilities: np.ndarray


class EyeTracker:
    """Three-layer FCN: conv3x3(1->8) . conv3x3(8->8) . conv1x1(8->1)."""

    def __init__(self, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.layers: List[ConvLayer] = [
            ConvLayer.create(1, 8, 3, rng),
            ConvLayer.create(8, 8, 3, rng),
            ConvLayer.create(8, 1, 1, rng),
        ]
        self._timer = TaskTimer("eye_tracking", TASK_NAMES)
        self.trained = False

    # ------------------------------------------------------------------

    def _activation(self, i: int, out: np.ndarray) -> np.ndarray:
        """ReLU after the hidden layers, sigmoid after the last."""
        if i < len(self.layers) - 1:
            return np.maximum(out, 0.0)
        return 1.0 / (1.0 + np.exp(-out))

    def _forward(self, batch: np.ndarray):
        """Training forward pass; returns (probabilities, caches for backward)."""
        x = batch
        caches = []
        for i, layer in enumerate(self.layers):
            out, cols = layer.forward(x)
            caches.append((x.shape, cols, out))
            x = self._activation(i, out)
        return x[:, 0], caches  # (N, H, W) probabilities

    def predict(self, images: np.ndarray) -> EyeTrackingResult:
        """Segment a batch of (N, H, W) images (batch of 2 = one per eye)."""
        images = np.asarray(images, dtype=float)
        if images.ndim == 2:
            images = images[None]
        with self._timer("batch_copy"):
            x = images[:, None].copy()  # host->device batch copy stand-in
        for i, layer in enumerate(self.layers):
            with self._timer("convolution"):
                out, _cols = layer.forward(x)
            with self._timer("activation"):
                x = self._activation(i, out)
        probs = x[:, 0]
        with self._timer("misc"):
            masks = probs > 0.5
            gaze = np.zeros((len(masks), 2))
            h, w = masks.shape[1:]
            for i, mask in enumerate(masks):
                ys, xs = np.nonzero(mask)
                if len(xs) > 0:
                    gaze[i, 0] = (xs.mean() - w / 2) / (w * 0.22)
                    gaze[i, 1] = (ys.mean() - h / 2) / (h * 0.22)
        return EyeTrackingResult(masks=masks, gaze=gaze, probabilities=probs)

    # ------------------------------------------------------------------

    def train(
        self,
        generator: EyeImageGenerator,
        steps: int = 120,
        batch_size: int = 8,
        learning_rate: float = 0.05,
        momentum: float = 0.9,
    ) -> List[float]:
        """Online SGD training against the synthetic generator.

        Returns the per-step BCE losses (should be decreasing).
        """
        velocity = [
            (np.zeros_like(layer.weight), np.zeros_like(layer.bias)) for layer in self.layers
        ]
        losses: List[float] = []
        for _step in range(steps):
            samples = generator.batch(batch_size)
            batch = np.stack([s.image for s in samples])[:, None].astype(float)
            target = np.stack([s.mask for s in samples]).astype(float)
            probs, caches = self._forward(batch)
            eps = 1e-7
            probs_c = np.clip(probs, eps, 1 - eps)
            # Class-weighted BCE (the pupil is a small fraction of pixels).
            pos_weight = 8.0
            loss = -np.mean(
                pos_weight * target * np.log(probs_c) + (1 - target) * np.log(1 - probs_c)
            )
            losses.append(float(loss))
            n_pix = probs.size
            grad = (probs_c - target) * (pos_weight * target + (1 - target)) / n_pix
            grad = grad[:, None]  # (N, 1, H, W), already through sigmoid
            for i in reversed(range(len(self.layers))):
                x_shape, cols, pre_activation = caches[i]
                if i < len(self.layers) - 1:
                    grad = grad * (pre_activation > 0)
                grad, grad_w, grad_b = self.layers[i].backward(grad, cols, x_shape)
                vw, vb = velocity[i]
                vw *= momentum
                vw -= learning_rate * grad_w
                vb *= momentum
                vb -= learning_rate * grad_b
                self.layers[i].weight += vw
                self.layers[i].bias += vb
        self.trained = True
        return losses

    # ------------------------------------------------------------------

    def evaluate(self, samples: List[EyeSample]) -> Dict[str, float]:
        """Mean pupil IoU and gaze error over labelled samples."""
        ious = []
        gaze_errors = []
        for sample in samples:
            result = self.predict(sample.image)
            predicted = result.masks[0]
            intersection = np.logical_and(predicted, sample.mask).sum()
            union = np.logical_or(predicted, sample.mask).sum()
            ious.append(intersection / union if union > 0 else 1.0)
            gaze_errors.append(float(np.linalg.norm(result.gaze[0] - sample.gaze)))
        return {
            "mean_iou": float(np.mean(ious)),
            "mean_gaze_error": float(np.mean(gaze_errors)),
        }

    def task_breakdown(self) -> Dict[str, float]:
        """Accumulated seconds per task (paper: conv 74 %, copies 19 %)."""
        return dict(self._timer.times)

    def weight_bytes(self) -> int:
        """Model size in bytes (the paper notes RITnet is ~1 MB)."""
        return sum(layer.weight.nbytes + layer.bias.nbytes for layer in self.layers)
