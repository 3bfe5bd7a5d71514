# Convenience targets; see docs/performance.md for the check loop.

.PHONY: check test

check:
	bash scripts/check.sh

test:
	PYTHONPATH=src python -m pytest -x -q
