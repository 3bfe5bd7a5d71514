"""Unit + property tests for the audio pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio.ambisonics import (
    ambisonic_channels,
    decode_matrix,
    encode_block,
    fibonacci_directions,
    real_sh_matrix,
)
from repro.audio.encoding import AudioEncoder
from repro.audio.hrtf import (
    HrtfSet,
    head_shadow_gain,
    interaural_delay,
)
from repro.audio.playback import AudioPlayback
from repro.audio.rotation import rotate_soundfield, sh_rotation_matrix, zoom_soundfield
from repro.audio.sources import MusicLikeSource, SpeechLikeSource
from repro.maths.quaternion import quat_from_axis_angle, quat_to_matrix
from repro.maths.se3 import Pose

BAD_SAMPLE_RATES = (0, -48000, float("nan"), float("inf"))

directions = st.tuples(
    st.floats(-1, 1, allow_nan=False),
    st.floats(-1, 1, allow_nan=False),
    st.floats(-1, 1, allow_nan=False),
).map(np.array).filter(lambda v: np.linalg.norm(v) > 0.15)


# ---------------------------------------------------------------------------
# Spherical harmonics
# ---------------------------------------------------------------------------


def test_channel_counts():
    assert [ambisonic_channels(o) for o in range(4)] == [1, 4, 9, 16]
    with pytest.raises(ValueError):
        ambisonic_channels(-1)


def test_sh_matrix_shape_and_order_limit():
    y = real_sh_matrix(3, np.array([[1.0, 0.0, 0.0]]))
    assert y.shape == (1, 16)
    with pytest.raises(ValueError):
        real_sh_matrix(4, np.array([1.0, 0.0, 0.0]))


def test_sh_orthonormality_n3d():
    """N3D real SH integrate to 4*pi*I over the sphere (Monte Carlo)."""
    rng = np.random.default_rng(0)
    n = 40000
    points = rng.normal(size=(n, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    y = real_sh_matrix(3, points)
    gram = (y.T @ y) / n  # E[Y_i Y_j]; N3D => identity
    assert np.allclose(gram, np.eye(16), atol=0.05)


def test_sh_zero_direction_rejected():
    with pytest.raises(ValueError):
        real_sh_matrix(1, np.zeros(3))


def test_encode_block_is_outer_product():
    signal = np.array([1.0, -0.5, 0.25])
    direction = np.array([0.0, 1.0, 0.0])
    encoded = encode_block(signal, direction, order=1)
    assert encoded.shape == (4, 3)
    gains = real_sh_matrix(1, direction)[0]
    assert np.allclose(encoded, np.outer(gains, signal))


def test_encode_requires_mono():
    with pytest.raises(ValueError):
        encode_block(np.zeros((2, 10)), np.array([1.0, 0, 0]), order=1)


def test_decode_matrix_reconstructs_plane_wave():
    speakers = fibonacci_directions(16)
    decoder = decode_matrix(3, speakers)
    # Encoding from a speaker direction should decode loudest at that
    # speaker.
    y = real_sh_matrix(3, speakers[3])[0]
    gains = decoder @ y
    assert np.argmax(gains) == 3


def test_fibonacci_directions_unit_and_spread():
    points = fibonacci_directions(32)
    assert np.allclose(np.linalg.norm(points, axis=1), 1.0)
    assert points[:, 2].min() < -0.8 and points[:, 2].max() > 0.8
    with pytest.raises(ValueError):
        fibonacci_directions(2)


# ---------------------------------------------------------------------------
# SH rotation
# ---------------------------------------------------------------------------


def test_rotation_identity():
    m = sh_rotation_matrix(3, np.eye(3))
    assert np.allclose(m, np.eye(16), atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(directions, st.floats(-3.0, 3.0, allow_nan=False))
def test_rotation_consistent_with_direction_rotation(axis, angle):
    rotation = quat_to_matrix(quat_from_axis_angle(axis, angle))
    m = sh_rotation_matrix(3, rotation)
    direction = np.array([0.3, -0.5, 0.81])
    lhs = real_sh_matrix(3, rotation @ direction)[0]
    rhs = m @ real_sh_matrix(3, direction)[0]
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_rotation_matrix_orthogonal():
    rotation = quat_to_matrix(quat_from_axis_angle(np.array([1.0, 2.0, 0.5]), 1.1))
    m = sh_rotation_matrix(3, rotation)
    assert np.allclose(m @ m.T, np.eye(16), atol=1e-9)


def test_rotation_composition():
    a = quat_to_matrix(quat_from_axis_angle(np.array([0, 0, 1.0]), 0.6))
    b = quat_to_matrix(quat_from_axis_angle(np.array([1.0, 0, 0]), -0.4))
    composed = sh_rotation_matrix(3, a @ b)
    product = sh_rotation_matrix(3, a) @ sh_rotation_matrix(3, b)
    assert np.allclose(composed, product, atol=1e-9)


def test_rotation_block_diagonal():
    rotation = quat_to_matrix(quat_from_axis_angle(np.array([0, 1.0, 0]), 0.8))
    m = sh_rotation_matrix(2, rotation)
    # Degree-0 x degree-1 cross block must be zero.
    assert np.allclose(m[0, 1:], 0.0)
    assert np.allclose(m[1:4, 4:], 0.0)


def test_rotation_validation():
    with pytest.raises(ValueError):
        sh_rotation_matrix(2, np.eye(4))


def test_rotate_soundfield_channel_check():
    with pytest.raises(ValueError):
        rotate_soundfield(np.zeros((9, 16)), order=3, rotation=np.eye(3))


def test_zoom_preserves_energy_roughly():
    rng = np.random.default_rng(1)
    soundfield = rng.normal(size=(16, 256))
    zoomed = zoom_soundfield(soundfield, 0.5)
    assert zoomed.shape == soundfield.shape
    ratio = (zoomed**2).sum() / (soundfield**2).sum()
    assert 0.5 < ratio < 2.0


def test_zoom_identity_at_zero():
    soundfield = np.random.default_rng(2).normal(size=(16, 64))
    assert np.allclose(zoom_soundfield(soundfield, 0.0), soundfield)


def test_zoom_validation():
    with pytest.raises(ValueError):
        zoom_soundfield(np.zeros((16, 8)), 1.5)
    with pytest.raises(ValueError):
        zoom_soundfield(np.zeros((1, 8)), 0.5)


# ---------------------------------------------------------------------------
# HRTF / binauralization
# ---------------------------------------------------------------------------


def test_itd_signs():
    left_ear = np.array([0.0, 1.0, 0.0])
    # Source at the left: shorter path to the left ear.
    assert interaural_delay(np.array([0.0, 1.0, 0.0]), left_ear) < 0
    # Source at the right: creeping wave, longer delay to the left ear.
    assert interaural_delay(np.array([0.0, -1.0, 0.0]), left_ear) > 0
    # Frontal source: equal-ish.
    assert abs(interaural_delay(np.array([1.0, 0.0, 0.0]), left_ear)) < 1e-9


def test_itd_magnitude_physical():
    left_ear = np.array([0.0, 1.0, 0.0])
    delay = interaural_delay(np.array([0.0, -1.0, 0.0]), left_ear) - interaural_delay(
        np.array([0.0, 1.0, 0.0]), left_ear
    )
    assert 0.4e-3 < delay < 1.0e-3  # human ITD ~0.6-0.9 ms (Woodworth)


def test_head_shadow_attenuates_contralateral_highs():
    left_ear = np.array([0.0, 1.0, 0.0])
    freqs = np.array([500.0, 8000.0])
    ipsi = head_shadow_gain(np.array([0.0, 1.0, 0.0]), left_ear, freqs)
    contra = head_shadow_gain(np.array([0.0, -1.0, 0.0]), left_ear, freqs)
    assert contra[1] < ipsi[1]
    assert contra[1] < contra[0]  # highs shadowed more than lows


def test_binauralize_lateral_source_louder_on_near_ear():
    # Broadband noise: single tones are phase-interference lotteries when
    # summed over delayed virtual speakers.
    hrtf = HrtfSet(n_speakers=16, fft_size=2048)
    rng = np.random.default_rng(0)
    signal = rng.normal(size=512)
    left_source = encode_block(signal, np.array([0.0, 1.0, 0.0]), order=3)
    stereo, _tail = hrtf.binauralize_block(left_source)
    rms = np.sqrt((stereo**2).mean(axis=1))
    assert rms[0] > 1.2 * rms[1]
    right_source = encode_block(signal, np.array([0.0, -1.0, 0.0]), order=3)
    stereo_r, _ = hrtf.binauralize_block(right_source)
    rms_r = np.sqrt((stereo_r**2).mean(axis=1))
    assert rms_r[1] > 1.2 * rms_r[0]


def test_binauralize_overlap_add_continuity():
    """Streaming block-by-block must equal one long convolution: verify the
    tail carry produces no seams (energy at block boundaries)."""
    hrtf = HrtfSet(n_speakers=8, fft_size=2048)
    rng = np.random.default_rng(5)
    block = 512
    signal = rng.normal(size=3 * block)
    direction = np.array([0.5, 0.5, 0.0])
    # Streamed.
    tail = None
    streamed = []
    for i in range(3):
        sf = encode_block(signal[i * block : (i + 1) * block], direction, order=3)
        out, tail = hrtf.binauralize_block(sf, tail)
        streamed.append(out)
    streamed = np.concatenate(streamed, axis=1)
    # One shot (big block in one FFT): process with fresh HRTF of larger fft.
    big = HrtfSet(n_speakers=8, fft_size=8192)
    sf_all = encode_block(signal, direction, order=3)
    oneshot, _ = big.binauralize_block(sf_all)
    # Compare overlapping region (ignore group-delay edge effects).
    seg = slice(block, 2 * block)
    err = np.abs(streamed[:, seg] - oneshot[:, seg]).max()
    scale = np.abs(oneshot[:, seg]).max()
    assert err < 0.05 * scale


def test_binauralize_validation():
    hrtf = HrtfSet(n_speakers=8, fft_size=2048)
    with pytest.raises(ValueError):
        hrtf.binauralize_block(np.zeros((9, 64)))
    with pytest.raises(ValueError):
        hrtf.binauralize_block(np.zeros((16, 2000)))
    with pytest.raises(ValueError):
        HrtfSet(fft_size=1000)
    for rate in BAD_SAMPLE_RATES:
        with pytest.raises(ValueError, match="sample rate"):
            HrtfSet(sample_rate_hz=rate)


# ---------------------------------------------------------------------------
# Encoder / playback components
# ---------------------------------------------------------------------------


def test_sources_reject_bad_sample_rate():
    for source in (SpeechLikeSource, MusicLikeSource):
        for rate in BAD_SAMPLE_RATES:
            with pytest.raises(ValueError, match="sample rate"):
                source(sample_rate_hz=rate)


def test_sources_are_deterministic_int16():
    a = SpeechLikeSource(seed=1).block(256)
    b = SpeechLikeSource(seed=1).block(256)
    assert a.dtype == np.int16
    assert np.array_equal(a, b)
    m = MusicLikeSource(seed=1).block(256)
    assert m.dtype == np.int16 and np.abs(m).max() > 1000


def test_encoder_produces_hoa_block():
    encoder = AudioEncoder([SpeechLikeSource(), MusicLikeSource()], order=3, block_size=512)
    soundfield = encoder.encode_next_block()
    assert soundfield.shape == (16, 512)
    assert np.abs(soundfield).max() > 0


def test_encoder_task_breakdown_rows():
    encoder = AudioEncoder([SpeechLikeSource()], block_size=256)
    encoder.encode_next_block()
    breakdown = encoder.task_breakdown()
    assert set(breakdown) == {"normalization", "encoding", "summation"}
    assert breakdown["encoding"] > 0


def test_encoder_validation():
    with pytest.raises(ValueError):
        AudioEncoder([], block_size=512)
    with pytest.raises(ValueError):
        AudioEncoder([SpeechLikeSource()], block_size=100)
    # Orders outside 0-3 used to construct and then fail on the first block.
    for order in (4, -1):
        with pytest.raises(ValueError):
            AudioEncoder([SpeechLikeSource()], order=order, block_size=512)


def test_playback_renders_stereo_and_tracks_tasks():
    playback = AudioPlayback(block_size=512)
    encoder = AudioEncoder([SpeechLikeSource()], block_size=512)
    stereo = playback.render_block(encoder.encode_next_block(), Pose(np.zeros(3)))
    assert stereo.shape == (2, 512)
    tasks = playback.task_breakdown()
    assert set(tasks) == {"psychoacoustic_filter", "rotation", "zoom", "binauralization"}
    assert all(v > 0 for v in tasks.values())


def test_playback_rotation_changes_output():
    encoder = AudioEncoder([SpeechLikeSource()], block_size=512)
    soundfield = encoder.encode_next_block()
    forward = AudioPlayback(block_size=512).render_block(soundfield, Pose(np.zeros(3)))
    turned_pose = Pose(np.zeros(3), quat_from_axis_angle(np.array([0, 0, 1.0]), np.pi / 2))
    turned = AudioPlayback(block_size=512).render_block(soundfield, turned_pose)
    assert not np.allclose(forward, turned)


def test_playback_construction_validation():
    # Zoom mixes W with first-order X, so order 0 cannot render; both of
    # these used to construct and then fail on the first block.
    for kwargs in ({"zoom_strength": 1.5}, {"zoom_strength": -1.01}, {"order": 0}, {"order": 4}):
        with pytest.raises(ValueError):
            AudioPlayback(block_size=512, **kwargs)
    # A zero rate used to raise ZeroDivisionError; negative and NaN rates
    # were accepted.
    for rate in BAD_SAMPLE_RATES:
        with pytest.raises(ValueError, match="sample rate"):
            AudioPlayback(block_size=512, sample_rate_hz=rate)
    for order in (1, 2, 3):
        playback = AudioPlayback(order=order, block_size=512, zoom_strength=-1.0)
        stereo = playback.render_block(np.zeros(((order + 1) ** 2, 512)), Pose(np.zeros(3)))
        assert stereo.shape == (2, 512)


def test_playback_shape_validation():
    playback = AudioPlayback(block_size=512)
    with pytest.raises(ValueError):
        playback.render_block(np.zeros((16, 256)), Pose(np.zeros(3)))
