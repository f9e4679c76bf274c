"""Beamformer design for concentric circular microphone arrays.

Optimizes frequency-dependent ring weights and Gaussian-window widths by
gradient descent to hit target -6 dB beamwidths in elevation and azimuth
while keeping directivity and white-noise-gain behavior flat across the
operating band.  The gradient comes from a reverse pass written by hand
over the band-batched forward arrays and is checked against central
finite differences by :func:`gradcheck`.
"""

from .autodiff import gradcheck
from .baselines import das_filter, evaluate_baseline
from .geometry import ArrayConfig, ArrayGeometry, build_geometry, mics_per_ring
from .loss import LossConfig
from .metrics import (
    MetricCurves,
    beamwidth_oracle,
    beamwidth_parabola,
    directivity_factor,
    evaluate_params,
    gamma_matrix,
    white_noise_gain,
)
from .optimizer import OptimizeResult, RunRecord, optimize
from .wavefield import AngularGrid, Direction, beampattern, steering_vector
from .weighting import DesignParams, assemble_filter, gaussian_window

__version__ = "0.1.0"

__all__ = [
    "ArrayConfig",
    "ArrayGeometry",
    "build_geometry",
    "mics_per_ring",
    "Direction",
    "AngularGrid",
    "steering_vector",
    "beampattern",
    "gradcheck",
    "DesignParams",
    "assemble_filter",
    "gaussian_window",
    "gamma_matrix",
    "directivity_factor",
    "white_noise_gain",
    "beamwidth_parabola",
    "beamwidth_oracle",
    "MetricCurves",
    "evaluate_params",
    "LossConfig",
    "optimize",
    "OptimizeResult",
    "RunRecord",
    "das_filter",
    "evaluate_baseline",
    "__version__",
]
