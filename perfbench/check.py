"""The output check: what each operation must produce.

An integrated cell is summarized by the ``RuntimeResult.summary()`` fields,
unrounded, plus a fingerprint of its invocation records: a digest of their
discrete sequence and sums of their times.  A characterization step is
summarized by its deterministic outputs only.  A summary is compared with
the reference stored for the workload seed; for a seed without one, only
the reference-free invariants run.

Floats match within ``REL_TOL``: loose enough that a change moving results
by 1e-12 (the parity bar for simulator-only changes) passes, tight enough
that a different seed fails.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional

REL_TOL = 1e-9
ABS_TOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "references"


def _records_fingerprint(logger) -> Dict[str, Any]:
    """The digest covers the records' discrete sequence; their times, which
    may move by rounding alone, enter as sums compared within tolerance."""
    digest = hashlib.sha256()
    sums = [0.0, 0.0, 0.0, 0.0]
    for record in logger.records:
        digest.update(
            f"{record.plugin}|{record.index}|{record.missed_deadline:d}|{record.killed:d}\n".encode()
        )
        sums[0] += record.start
        sums[1] += record.end - record.start
        sums[2] += record.cpu_time
        sums[3] += record.gpu_time
    for drop in logger.drops:
        digest.update(f"drop|{drop.plugin}\n".encode())
    return {
        "count": len(logger.records),
        "killed": sum(1 for record in logger.records if record.killed),
        "digest": digest.hexdigest()[:20],
        "start_sum": sums[0],
        "wall_sum": sums[1],
        "cpu_sum": sums[2],
        "gpu_sum": sums[3],
    }


def summarize_cell(result) -> Dict[str, Any]:
    """The simulated outputs of one integrated run, JSON-normalized."""
    mtp = result.mtp_summary()
    logger = result.logger
    summary: Dict[str, Any] = {
        "frame_rates_hz": result.frame_rates(),
        "cpu_share": result.cpu_share(),
        "drops": {name: logger.drop_count(name) for name in logger.plugins()},
        "mtp_ms": {
            "mean": mtp.mean_ms,
            "std": mtp.std_ms,
            "p99": mtp.p99_ms,
            "max": mtp.max_ms,
            "count": mtp.count,
            "vr_target_met_fraction": mtp.vr_target_met_fraction,
            "ar_target_met_fraction": mtp.ar_target_met_fraction,
            "degraded_fraction": mtp.degraded_fraction,
        },
        "power_w": dict(result.power.rails),
        "power_total_w": result.power.total,
        "utilization": dict(result.utilization),
        "vio_estimates": len(result.vio_trajectory),
        "fast_pose_count": result.fast_pose_count,
        "records": _records_fingerprint(logger),
    }
    if result.supervision is not None:
        summary["supervision"] = result.supervision
        summary["faults_injected"] = len(result.fault_log)
    if result.observability is not None:
        summary["obs_spans"] = len(result.observability.tracer.spans)
    return json.loads(json.dumps(summary))


def cell_invariants(result, summary: Dict[str, Any]) -> List[str]:
    """Reference-free checks on one integrated run; returns violations."""
    violations = []
    for i, sample in enumerate(result.mtp_samples):
        parts = sample.imu_age + sample.reprojection_time + sample.swap_wait
        if abs(sample.total - parts) > ABS_TOL:
            violations.append(f"mtp sample {i}: total != imu_age + reprojection + swap")
            break
    if summary["mtp_ms"]["count"] != len(result.mtp_samples):
        violations.append("mtp count differs from the samples")
    violations += [f"negative count at {path}" for path in _negative_counts(summary)]
    return violations


def step_invariants(outputs: Dict[str, Any]) -> List[str]:
    """Reference-free checks on one characterization step's outputs."""
    violations = [f"non-finite {key}" for key, value in outputs.items() if not math.isfinite(value)]
    violations += [f"negative count at {path}" for path in _negative_counts(outputs)]
    return violations


def _negative_counts(value: Any, path: str = "") -> List[str]:
    if isinstance(value, dict):
        return [p for key in value for p in _negative_counts(value[key], f"{path}/{key}")]
    if isinstance(value, list):
        return [p for i, item in enumerate(value) for p in _negative_counts(item, f"{path}/{i}")]
    if isinstance(value, int) and not isinstance(value, bool) and value < 0:
        return [path]
    return []


def mismatches(expected: Any, actual: Any, path: str = "") -> List[str]:
    """Paths at which ``actual`` differs from ``expected`` beyond tolerance."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [path or "/"]
        return [p for key in sorted(expected) for p in mismatches(expected[key], actual[key], f"{path}/{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [path or "/"]
        return [p for i, (e, a) in enumerate(zip(expected, actual)) for p in mismatches(e, a, f"{path}/{i}")]
    if isinstance(expected, (int, float)) and not isinstance(expected, bool):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            return [path]
        if math.isnan(expected) and math.isnan(actual):
            return []
        return [] if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL) else [path]
    return [] if expected == actual else [path]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> Optional[Dict[str, Any]]:
    """The stored summaries for ``seed``, keyed by operation, or None."""
    path = reference_path(workload)
    if not path.is_file():
        return None
    with open(path) as handle:
        return json.load(handle)["seeds"].get(str(seed))


def store_references(workload: str, by_seed: Dict[int, Dict[str, Any]]) -> Path:
    """Write the summaries of the given seeds (merged with stored ones)."""
    path = reference_path(workload)
    seeds: Dict[str, Any] = {}
    if path.is_file():
        with open(path) as handle:
            seeds = json.load(handle)["seeds"]
    seeds.update({str(seed): summaries for seed, summaries in by_seed.items()})
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"workload": workload, "seeds": seeds}, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return path
