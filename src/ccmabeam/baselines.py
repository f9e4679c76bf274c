"""Reference beamformers for comparison runs."""

from __future__ import annotations

import math

import numpy as np

from .geometry import ArrayGeometry
from .metrics import MetricCurves, evaluate_filter_bank
from .wavefield import Direction, steering_vector

__all__ = ["das_filter", "evaluate_baseline"]


def das_filter(geometry: ArrayGeometry, frequency: float, doa: Direction) -> np.ndarray:
    """Delay-and-sum filter d(DoA) / M, distortionless by construction."""
    return steering_vector(geometry, frequency, doa) / geometry.total_mics


def evaluate_baseline(
    geometry: ArrayGeometry,
    doa: Direction,
    frequencies,
    grid_resolution: float = math.radians(1.0),
) -> MetricCurves:
    """Metric curves of the delay-and-sum baseline."""
    return evaluate_filter_bank(
        geometry, doa, frequencies, lambda f: das_filter(geometry, f, doa), grid_resolution
    )
