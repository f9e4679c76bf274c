"""Reference beamformers for comparison runs."""

from __future__ import annotations

import numpy as np

from .geometry import ArrayGeometry
from .metrics import GRID_RESOLUTION, BandTables, MetricCurves
from .wavefield import Direction, steering_vector

__all__ = ["das_filter", "das_gains", "evaluate_baseline"]


def das_filter(geometry: ArrayGeometry, frequency: float, doa: Direction) -> np.ndarray:
    """Delay-and-sum filter d(DoA) / M, distortionless by construction."""
    return steering_vector(geometry, frequency, doa) / geometry.total_mics


def das_gains(geometry: ArrayGeometry, frequencies) -> np.ndarray:
    """Real per-mic gains (bands, mics) of delay-and-sum: 1/M at every mic."""
    return np.full((len(frequencies), geometry.total_mics), 1.0 / geometry.total_mics)


def evaluate_baseline(
    geometry: ArrayGeometry,
    doa: Direction,
    frequencies,
    grid_resolution: float = GRID_RESOLUTION,
) -> MetricCurves:
    """Metric curves of the delay-and-sum baseline, scored by :class:`BandTables`."""
    tables = BandTables(geometry, doa, frequencies, grid_resolution)
    return tables.curves(das_gains(geometry, tables.frequencies))
