"""ECG phase-space embedding and binary CNN heart-status classification."""

import os

# One BLAS thread unless the environment says otherwise. The CNN runs the two
# halves of each batch's conv layers on two threads of its own, and a BLAS
# thread pool per call only contends with them (a paper-sized epoch took
# 0.42-0.58 s at OpenBLAS's default thread count against 0.33 s at one on a
# 2-vCPU VM). BLAS reads these when numpy loads, so they are set before the
# submodules import it; a process that loaded numpy first keeps its own
# count. On the kernels README names, the count changes no output byte.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .phase_space import DerivativeScheme, QRChord, Trajectory, derivative, embed
from .record_io import Label, Signal, load_labels, synth_ecg

__version__ = "0.1.0"

__all__ = [
    "DerivativeScheme",
    "Label",
    "QRChord",
    "Signal",
    "Trajectory",
    "derivative",
    "embed",
    "load_labels",
    "synth_ecg",
    "__version__",
]
