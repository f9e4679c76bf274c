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
