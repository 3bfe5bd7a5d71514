"""Extension bench (Table II): interchangeable VIO implementations.

Table II lists OpenVINS* and Kimera-VIO as alternative VIO components.
Our two fills -- the MSCKF (sliding window + nullspace projection) and the
EKF-SLAM (persistent landmarks, no window) -- run on the same offline
dataset; the bench regenerates their accuracy/cost comparison.  Expected
shape: both track within centimetres; the MSCKF is more accurate per
frame, the EKF-SLAM is cheaper (smaller state, no per-feature QR).
"""

import time

import numpy as np
from conftest import save_report

from repro.perception.vio.ekf_slam import EkfSlamVio
from repro.perception.vio.msckf import Msckf, MsckfConfig
from repro.sensors.dataset import make_vicon_room_dataset


def _evaluate(filter_class, dataset):
    vio = filter_class(
        MsckfConfig.standard(),
        dataset.camera.intrinsics,
        dataset.camera.baseline_m,
        dataset.ground_truth(0.0),
        initial_velocity=dataset.trajectory.sample(0.0).velocity,
    )
    t_last = 0.0
    errors, frame_times = [], []
    for frame in dataset.camera_frames:
        for sample in dataset.imu_between(t_last, frame.timestamp):
            vio.process_imu(sample)
        t_last = frame.timestamp
        start = time.perf_counter()
        estimate = vio.process_frame(frame)
        frame_times.append(time.perf_counter() - start)
        errors.append(
            estimate.pose.translation_error(dataset.ground_truth(frame.timestamp))
        )
    return float(np.mean(errors)) * 100, float(np.mean(frame_times)) * 1e3


def test_ext_vio_alternatives():
    dataset = make_vicon_room_dataset(duration=12.0, seed=1)
    msckf_ate, msckf_ms = _evaluate(Msckf, dataset)
    ekf_ate, ekf_ms = _evaluate(EkfSlamVio, dataset)
    save_report(
        "ext_vio_alternatives",
        "Extension (Table II): interchangeable VIO implementations\n"
        f"{'filter':12s} {'ATE (cm)':>9s} {'ms/frame':>9s}\n"
        f"{'MSCKF':12s} {msckf_ate:9.1f} {msckf_ms:9.1f}\n"
        f"{'EKF-SLAM':12s} {ekf_ate:9.1f} {ekf_ms:9.1f}",
    )

    # Both alternatives track: centimetre-level, no divergence.
    assert msckf_ate < 12.0
    assert ekf_ate < 12.0
    # The structural trade: visual-update cost differs between the two.
    assert ekf_ms != msckf_ms
