"""Benchmark entry point: one workload, one seed, one process.

Run from the repository root::

    python3 perfbench/run.py --workload model-grid --seed 0 --seconds 25 --trace 0

``--workload all`` runs the four workloads one after another, each in its
own process, and prints each one's lines and result.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
outside-in layer trace and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Results and spans are also written under
``.perfbench_out/``.

The workload runs in one child process whose environment pins OpenBLAS and
OpenMP to one thread and fixes the hash seed, so neither the thread count
nor dict layout varies between runs.  Two more fresh processes only time
the program's imports, so ``setup_s`` is a median of three imports.

``--write-references A-B`` stores the output-check references of seeds A
to B for ``--workload`` (run it after a deliberate behaviour change).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORT_PROBES = 2
TIMEOUT_S = 170.0  # for all of one workload's processes together

PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _environment() -> dict:
    env = dict(os.environ, **PINNED)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", metavar="SEEDS")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; nothing to measure", file=sys.stderr)
        return 2
    if args.workload == "all":
        sys.path.insert(0, str(ROOT))
        from perfbench.workloads import WORKLOADS

        codes = [main([*(argv or sys.argv[1:]), "--workload", name]) for name in WORKLOADS]
        return max(codes)
    env = _environment()
    worker = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload]
    deadline = time.monotonic() + TIMEOUT_S
    try:
        if args.write_references:
            return subprocess.run(
                worker + ["--write-references", args.write_references], cwd=ROOT, env=env
            ).returncode
        samples = []
        for _ in range(IMPORT_PROBES):
            probe = subprocess.run(
                [sys.executable, "-m", "perfbench.worker", "--probe-import"],
                cwd=ROOT, env=env, capture_output=True, text=True, check=True,
                timeout=deadline - time.monotonic(),
            )
            samples.append(probe.stdout.strip())
        command = worker + [
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--import-samples", ",".join(samples),
        ]
        return subprocess.run(command, cwd=ROOT, env=env, timeout=deadline - time.monotonic()).returncode
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: import probe failed:\n{exc.stderr}", file=sys.stderr)
        return 2
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {TIMEOUT_S:.0f} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
