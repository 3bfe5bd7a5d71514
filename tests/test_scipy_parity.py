"""The numpy ports that replace scipy, against scipy.

An integrated run fits its trajectory spline, takes the timewarp lead's
normal quantile and gates VIO updates without importing scipy, and the
lens-distortion mesh is interpolated without it.  Each port reproduces
scipy's arithmetic, so the values are the same doubles: the natural
``CubicSpline`` (LAPACK dgtsv for the knot slopes), the committed
``norm.ppf(0.9)`` constant and ``chi2.ppf(0.95, dof)`` table and the 2-D
linear ``RegularGridInterpolator``.

Equality is bitwise under scipy 1.17.1, the release the table was taken
from.  Another release may round a quantile differently, so there the bar
is a 1e-12 relative error.
"""

import numpy as np
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline, RegularGridInterpolator
from scipy.stats import chi2, norm

from repro.hardware.timing import NORMAL_P90
from repro.maths.splines import TrajectorySpline
from repro.perception.vio.update import CHI2_MAX_DOF, chi2_threshold
from repro.sensors import trajectory
from repro.visual.distortion import mesh_warp_coordinates

BITWISE = scipy.__version__ == "1.17.1"


def assert_same_doubles(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    assert got.shape == expected.shape
    if BITWISE:
        assert got.tobytes() == expected.tobytes()
    else:
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


def scipy_table(times, positions, eulers):
    """The spline's (intervals, 4, 15) table built from scipy's pieces."""
    position = CubicSpline(times, positions, bc_type="natural")
    euler = CubicSpline(times, eulers, bc_type="natural")
    pieces = (position, position.derivative(1), position.derivative(2), euler, euler.derivative(1))
    table = np.concatenate(
        [np.pad(p.c, ((4 - p.c.shape[0], 0), (0, 0), (0, 0))) for p in pieces], axis=2
    )
    return table.transpose(1, 0, 2)


def waypoints(rng, times):
    n = len(times)
    eulers = np.column_stack(
        [rng.uniform(-np.pi, np.pi, n), rng.uniform(-1.4, 1.4, n), rng.uniform(-np.pi, np.pi, n)]
    )
    return times, rng.normal(0.0, 3.0, (n, 3)), eulers


def test_spline_table_matches_scipy_on_uniform_knots():
    rng = np.random.default_rng(0)
    for n in (4, 5, 12, 40):
        times, positions, eulers = waypoints(rng, np.linspace(-1.0, 0.5 * n, n))
        spline = TrajectorySpline(times, positions, eulers)
        assert_same_doubles(spline._rows, scipy_table(times, positions, eulers))


def test_spline_table_matches_scipy_when_dgtsv_interchanges_rows():
    # dgtsv swaps rows i and i+1 when |d[i]| < |dl[i]|; at step 0 that is
    # 2 dx[0] < dx[1].  Log-normal spacing takes that branch often.
    rng = np.random.default_rng(1)
    interchanged = 0
    for _ in range(200):
        n = int(rng.integers(4, 30))
        times = np.cumsum(np.exp(rng.normal(0.0, 1.0, n))) - 5.0
        dx = np.diff(times)
        interchanged += bool(2 * dx[0] < dx[1])
        times, positions, eulers = waypoints(rng, times)
        spline = TrajectorySpline(times, positions, eulers)
        assert_same_doubles(spline._rows, scipy_table(times, positions, eulers))
    assert interchanged >= 20


def test_spline_table_matches_scipy_on_generated_trajectories(monkeypatch):
    fitted = []

    class RecordingSpline(TrajectorySpline):
        def __init__(self, *args):
            super().__init__(*args)
            fitted.append((args, self))

    monkeypatch.setattr(trajectory, "TrajectorySpline", RecordingSpline)
    for seed in range(5):
        trajectory.lab_walk_trajectory(seed=seed)
        trajectory.vicon_room_trajectory(seed=seed)
    assert len(fitted) == 10
    for args, spline in fitted:
        assert_same_doubles(spline._rows, scipy_table(*args))


def test_normal_p90_matches_scipy():
    assert_same_doubles(NORMAL_P90, norm.ppf(0.9))


def test_chi2_table_matches_scipy():
    dofs = np.arange(1, CHI2_MAX_DOF + 1)
    assert_same_doubles([chi2_threshold(int(dof)) for dof in dofs], chi2.ppf(0.95, dofs))


def scipy_mesh_warp(width, height, k1, k2, scale, mesh_step):
    """The mesh warp interpolated by scipy's ``RegularGridInterpolator``."""
    xs = np.unique(np.concatenate([np.arange(0, width, mesh_step), [width - 1]]))
    ys = np.unique(np.concatenate([np.arange(0, height, mesh_step), [height - 1]]))
    cx, cy = width / 2.0, height / 2.0
    norm = float(np.hypot(cx, cy))
    gx, gy = np.meshgrid(xs.astype(float), ys.astype(float))
    x = (gx - cx) / norm
    y = (gy - cy) / norm
    r2 = (x * x + y * y) * scale * scale
    factor = 1.0 + k1 * r2 + k2 * r2 * r2
    uu, vv = np.meshgrid(np.arange(width), np.arange(height))
    points = np.stack([vv.ravel(), uu.ravel()], axis=-1)
    return np.stack(
        [
            RegularGridInterpolator((ys, xs), mesh, method="linear")(points).reshape(height, width)
            for mesh in (cx + x * factor * norm, cy + y * factor * norm)
        ],
        axis=-1,
    )


@settings(max_examples=80, deadline=None)
@given(
    width=st.integers(1, 90),
    height=st.integers(1, 70),
    mesh_step=st.integers(2, 40),
    k1=st.floats(-0.5, 0.5),
    k2=st.floats(-0.3, 0.3),
    scale=st.floats(0.25, 4.0),
)
# The characterization's mesh, one-pixel rows and columns, a 1x1 image, a
# step that divides neither side, and a step wider than the image.
@example(width=192, height=108, mesh_step=16, k1=-0.12, k2=-0.04, scale=1.0)
@example(width=1, height=1, mesh_step=16, k1=-0.22, k2=-0.04, scale=0.994)
@example(width=1, height=37, mesh_step=5, k1=-0.22, k2=-0.04, scale=1.008)
@example(width=45, height=1, mesh_step=4, k1=0.3, k2=0.1, scale=2.0)
@example(width=50, height=29, mesh_step=16, k1=-0.22, k2=-0.04, scale=1.0)
@example(width=7, height=5, mesh_step=40, k1=-0.5, k2=0.3, scale=0.25)
def test_mesh_warp_matches_regular_grid_interpolator(width, height, mesh_step, k1, k2, scale):
    got = mesh_warp_coordinates(width, height, k1, k2, scale=scale, mesh_step=mesh_step)
    assert_same_doubles(got, scipy_mesh_warp(width, height, k1, k2, scale, mesh_step))
