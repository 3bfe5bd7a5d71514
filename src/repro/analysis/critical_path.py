"""Critical-path MTP report and observability gate for a traced run::

    python -m repro.analysis.critical_path                 # 5s desktop sponza
    python -m repro.analysis.critical_path --platform jetson_lp --duration 10
    python -m repro.analysis.critical_path --trace-out trace.json

Runs one integrated run with observability on, then reproduces Table IV
*from the trace spans alone* (:mod:`repro.obs.critical_path`), prints
the per-frame decomposition ``mtp = t_imu_age + t_reprojection +
t_swap`` with each frame's slowest edge named, and cross-checks the
trace-derived numbers against the online :mod:`repro.metrics.mtp`
samples.  ``--trace-out`` also writes the Chrome trace JSON (load it in
Perfetto or chrome://tracing).

The command exits 1 unless the run passes every observability check:

- the Chrome trace passes ``validate_chrome_trace``;
- the run displays at least one frame;
- at least ``MIN_LINEAGE`` of the displayed frames trace back to an IMU
  sample through flow links (causal lineage);
- every frame matches an online MTP sample, and its imu_age,
  reprojection, swap and total stay within ``MAX_PARITY_S`` of it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.core.runtime import build_runtime
from repro.hardware.platform import PLATFORMS
from repro.metrics.mtp import MtpSample
from repro.obs.critical_path import (
    FrameCriticalPath,
    decomposition_summary,
    lineage_fraction,
    render_report,
)
from repro.obs.export import validate_chrome_trace

#: Fewest displayed frames, as a fraction, whose lineage must reach an IMU
#: sample (it is 100% in practice; the margin allows for boot-time frames).
MIN_LINEAGE = 0.95
#: Largest per-frame difference, in seconds, allowed between a trace-derived
#: MTP segment (or total) and the online metric's.
MAX_PARITY_S = 1e-6


def online_parity(
    frames: Sequence[FrameCriticalPath], samples: Sequence[MtpSample]
) -> Tuple[int, float]:
    """Frames matched to an online MTP sample, and their largest error (s)."""
    online = {round(s.frame_time, 9): s for s in samples}
    matched = 0
    worst = 0.0
    for frame in frames:
        sample = online.get(round(frame.frame_time, 9))
        if sample is None:
            continue
        matched += 1
        worst = max(
            worst,
            abs(frame.imu_age - sample.imu_age),
            abs(frame.reprojection - sample.reprojection_time),
            abs(frame.swap - sample.swap_wait),
            abs(frame.total - sample.total),
        )
    return matched, worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--platform", default="desktop", choices=sorted(PLATFORMS)
    )
    parser.add_argument("--app", default="sponza")
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--fidelity", default="full", choices=("full", "model")
    )
    parser.add_argument(
        "--trace-out", default=None, help="also export the Chrome trace JSON here"
    )
    parser.add_argument(
        "--json", action="store_true", help="print the summary as JSON instead of text"
    )
    args = parser.parse_args(argv)

    config = SystemConfig(
        duration_s=args.duration, fidelity=args.fidelity, seed=args.seed
    )
    runtime = build_runtime(
        PLATFORMS[args.platform], args.app, config, observability=True
    )
    result = runtime.run()
    frames = result.critical_paths()
    trace = result.chrome_trace()
    problems = validate_chrome_trace(trace)
    lineage = lineage_fraction(frames)
    # The trace-derived per-frame decomposition must reproduce the online
    # metric (§III-E), frame for frame.
    matched, worst = online_parity(frames, result.mtp_samples)

    summary = decomposition_summary(frames)
    summary["online_parity_max_abs_s"] = worst
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_report(frames))
        print(f"\n  parity vs online MTP metric: {matched} frames, max |delta| = {worst:.2e} s")
        print(f"  chrome trace: {len(trace['traceEvents'])} events")
    if args.trace_out:
        result.export_chrome_trace(args.trace_out)

    failures: List[str] = []
    if problems:
        failures.append(f"chrome trace schema: {len(problems)} problems, first: {problems[0]}")
    if not frames:
        failures.append("no displayed frames in the traced run")
    if lineage < MIN_LINEAGE:
        failures.append(f"lineage {lineage:.3f} < required {MIN_LINEAGE}")
    if matched != len(frames):
        failures.append(f"only {matched}/{len(frames)} frames matched an online MTP sample")
    if worst > MAX_PARITY_S:
        failures.append(f"parity error {worst:.2e} s > {MAX_PARITY_S:.0e} s")
    for failure in failures:
        print(f"OBS GATE FAILURE: {failure}", file=sys.stderr)
    if failures:
        return 1
    if not args.json:
        print("  observability gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
