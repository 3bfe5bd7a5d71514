"""Experiment drivers and report rendering.

- :mod:`repro.analysis.experiments` -- integrated-system experiments
  (Figs. 3-7, Tables IV-V, the §V.E ablation);
- :mod:`repro.analysis.standalone` -- ILLIXR-v1-style standalone component
  characterization (Tables VI-VII, Fig. 8);
- :mod:`repro.analysis.report` -- plain-text rendering of every table and
  figure the paper reports.
"""

from repro.analysis.experiments import run_matrix, vio_accuracy_ablation
from repro.analysis.standalone import (
    characterize_audio,
    characterize_eye_tracking,
    characterize_hologram,
    characterize_reconstruction,
    characterize_reprojection,
    characterize_vio,
)

__all__ = [
    "characterize_audio",
    "characterize_eye_tracking",
    "characterize_hologram",
    "characterize_reconstruction",
    "characterize_reprojection",
    "characterize_vio",
    "run_matrix",
    "vio_accuracy_ablation",
]
