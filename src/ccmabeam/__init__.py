"""Beamformer design for concentric circular microphone arrays.

Optimizes frequency-dependent ring weights and Gaussian-window widths by
gradient descent to hit target -6 dB beamwidths in elevation and azimuth
while keeping directivity and white-noise-gain behavior flat across the
operating band.  The gradient comes from a reverse pass written by hand
over the band-batched forward arrays and is checked against central
finite differences by :func:`ccmabeam.optimizer.gradcheck`.

The top level holds what the quick start needs: the array, the arrival
direction, the loss, :func:`optimize` and the types it returns.  Every
other name is imported from its own module.
"""

import os as _os
import sys as _sys

# OpenBLAS sizes its thread pool once, when numpy loads it, and the spare
# thread of a default pool busy-waits through the start of every command.
# Every product here is too small for a second thread to pay, and a sweep's
# one process per usable CPU is the one level of parallelism.  So, loaded
# from here with no count chosen by the caller, OpenBLAS starts with one
# thread.  The variable is gone again before other code runs, and a caller
# can still raise the count afterwards; the written bytes do not depend on it.
_one_thread = "numpy" not in _sys.modules and not any(
    name in _os.environ
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
)
if _one_thread:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as _numpy  # noqa: F401  (loads OpenBLAS)
finally:
    if _one_thread:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .geometry import ArrayConfig, build_geometry
from .loss import LossConfig
from .metrics import MetricCurves
from .optimizer import OptimizeResult, RunRecord, optimize
from .wavefield import Direction
from .weighting import DesignParams

__version__ = "0.1.0"

__all__ = [
    "ArrayConfig",
    "build_geometry",
    "Direction",
    "LossConfig",
    "optimize",
    "OptimizeResult",
    "DesignParams",
    "MetricCurves",
    "RunRecord",
    "__version__",
]
