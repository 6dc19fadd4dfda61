"""ECG phase-space embedding and binary CNN heart-status classification."""

import ctypes
import os
from pathlib import Path

# One BLAS thread unless the environment says otherwise. The CNN runs the two
# halves of each batch's conv layers on two threads of its own, and a BLAS
# thread pool per call only contends with them (a paper-sized epoch took
# 0.42-0.58 s at OpenBLAS's default thread count against 0.33 s at one on a
# 2-vCPU VM). BLAS reads these when numpy loads, so they are set before the
# submodules import it. A process that loaded numpy first has read them
# already; when it set none of them, numpy's bundled OpenBLAS is set to one
# thread through its own setter (a numpy without that library, such as an
# MKL build, keeps its count). On the kernels README names, the count
# changes no output byte.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_blas_count_given = any(var in os.environ for var in _BLAS_VARS)
for _var in _BLAS_VARS:
    os.environ.setdefault(_var, "1")
del _var


def _set_one_openblas_thread() -> None:
    """Set the OpenBLAS that numpy's wheel bundles to one thread, if there
    is one; dlopen hands back the copy numpy has already loaded."""
    import numpy

    for lib in (Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"):
        try:
            setter = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


if not _blas_count_given:
    _set_one_openblas_thread()

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
