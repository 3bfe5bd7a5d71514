#!/usr/bin/env bash
# Fast pre-commit check: the test suite minus the slow-marked tests. Run
# the full suite with `make test` before shipping.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python -m pytest -q -m "not slow"
echo "check: OK"
