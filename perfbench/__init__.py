"""End-to-end benchmark of the ILLIXR reproduction.

Runs four fixed workloads (integrated full fidelity, the model-fidelity
Fig. 3-7 grid, observability under chaos, and the standalone
characterization of Tables V-VII), reports host time per simulated
second, and checks the simulated outputs against stored references.  A
traced mode wraps each layer's public entry points from outside the
program and splits the host time by layer.  See ``perfbench/README.md``.

Importing this package touches neither the program nor numpy, so the
benchmark can time those imports itself.
"""
