#!/usr/bin/env bash
# Fast pre-commit check: the test suite minus the slow-marked tests. Run
# the full suite with `make test` before shipping.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python -m pytest -q -m "not slow"
# The benchmark's layer map patches program entry points by name: a deleted
# or renamed one fails here (in ~3 s, no run, no reference comparison).
python -m pytest -q perfbench/tests/test_perfbench.py::test_uninstall_restores_every_patched_attribute
echo "check: OK"
