"""Tables I-III and §V-B: requirements, component inventory, tuned
parameters, and the compute primitives shared across components.

These tables are definitional (device survey, Table II registry, Table III
config, task descriptors); the reports land in results/.
"""

from conftest import save_report

from repro.analysis.report import (
    render_shared_primitives,
    render_table1,
    render_table2,
    render_table3,
)
from repro.core.config import SystemConfig


def test_table1_requirements():
    text = render_table1()
    save_report("table1_requirements", text)
    assert "Ideal AR" in text


def test_table2_components():
    text = render_table2()
    save_report("table2_components", text)
    assert "repro.perception.vio" in text
    # §V-B: the primitives these components share.  The paper's example:
    # "Cholesky in VIO and scene reconstruction."
    shared = render_shared_primitives()
    save_report("shared_primitives", shared)
    cholesky = next(line for line in shared.splitlines() if line.startswith("Cholesky"))
    assert "vio" in cholesky and "scene_reconstruction" in cholesky


def test_table3_parameters():
    SystemConfig()  # validate the tuned defaults
    text = render_table3()
    save_report("table3_parameters", text)
    assert "66.7 ms" in text
