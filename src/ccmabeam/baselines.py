"""The delay-and-sum reference beamformer, as per-mic gains."""

from __future__ import annotations

import numpy as np

from .geometry import ArrayGeometry

__all__ = ["das_gains"]


def das_gains(geometry: ArrayGeometry, frequencies) -> np.ndarray:
    """Real per-mic gains (bands, mics) of delay-and-sum: 1/M at every mic."""
    return np.full((len(frequencies), geometry.total_mics), 1.0 / geometry.total_mics)
