"""Shared fixtures of the paper evaluation.

``pytest benchmarks/`` regenerates every table and figure: each bench
renders its report to ``results/`` (and the terminal via ``-s``),
mirroring the paper artifact's ``results/Graphs`` outputs, and asserts the
paper's shape on it.  The integrated grid runs once per session, in a
fixture.  The repository benchmark, which times runs, is ``perfbench/``.
"""

import os

import pytest

from repro.analysis.experiments import run_matrix

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")

# Keep the integrated grid affordable: a few virtual seconds preserves
# every qualitative result of the 30 s runs (§III-A).
GRID_DURATION_S = 4.0


def save_report(name: str, text: str) -> str:
    """Write a rendered table/figure under results/ and echo it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print()
    print(text)
    return path


@pytest.fixture(scope="session")
def grid_runs():
    """The full 3 platforms x 4 applications grid, full fidelity."""
    return run_matrix(duration_s=GRID_DURATION_S, fidelity="full")


@pytest.fixture(scope="session")
def platformer_runs(grid_runs):
    """The Platformer column (Figs. 4 and 7 focus on it)."""
    return [r for r in grid_runs if r.app_name == "platformer"]


@pytest.fixture(scope="session")
def sponza_runs(grid_runs):
    """The Sponza column (Table V focuses on it)."""
    return [r for r in grid_runs if r.app_name == "sponza"]
