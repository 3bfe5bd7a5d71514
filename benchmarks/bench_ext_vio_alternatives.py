"""Extension bench (Table II): interchangeable VIO implementations.

Table II lists OpenVINS* and Kimera-VIO as alternative VIO components.
Our two fills -- the MSCKF (sliding window + nullspace projection) and the
EKF-SLAM (persistent landmarks, no window) -- run on the same offline
dataset; the bench regenerates their accuracy/cost comparison.  Expected
shape: both track within centimetres; the MSCKF is more accurate per
frame, the EKF-SLAM is cheaper (smaller state, no per-feature QR).

The two filters run in lockstep, frame by frame, so a change in host
speed during the run hits both frame times alike.
"""

import numpy as np
from conftest import save_report

from repro.perception.vio.ekf_slam import EkfSlamVio
from repro.perception.vio.msckf import Msckf, MsckfConfig
from repro.sensors.dataset import make_vicon_room_dataset


def test_ext_vio_alternatives():
    dataset = make_vicon_room_dataset(duration=12.0, seed=1)
    filters = [dataset.start_vio(cls, MsckfConfig.standard()) for cls in (Msckf, EkfSlamVio)]
    lockstep = zip(*(dataset.replay(vio) for vio in filters))
    summaries = []
    for frames in zip(*lockstep):  # one filter's (error, seconds) per frame
        errors, frame_times = zip(*frames)
        summaries.append((float(np.mean(errors)) * 100, float(np.mean(frame_times)) * 1e3))
    (msckf_ate, msckf_ms), (ekf_ate, ekf_ms) = summaries
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
    # The structural trade: the MSCKF is the more accurate filter...
    assert msckf_ate < ekf_ate
    # ...and the EKF-SLAM the cheaper one per frame.
    assert ekf_ms < msckf_ms
