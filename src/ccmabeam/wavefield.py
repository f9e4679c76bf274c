"""Far-field steering vectors and beampatterns on angular grids.

Directions use spherical polar coordinates: elevation measured from the
array normal (0 is broadside, pi/2 lies in the array plane) and azimuth
measured from the positive x axis.  All angles are radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import ArrayGeometry

__all__ = [
    "ELEVATION_RANGE",
    "PATTERN_POWER_FLOOR",
    "Direction",
    "AngularGrid",
    "steering_vector",
    "steering_matrix",
    "beampattern",
    "beampattern_grid",
    "pattern_db",
    "export_beampattern_csv",
]

# elevations of the beampattern grid and of the fit cuts: a planar array
# cannot tell a direction from its mirror image below the array plane
ELEVATION_RANGE = (0.0, math.pi / 2.0)

# added to |response|^2 before taking dB, so a null reads -300 dB, not -inf
PATTERN_POWER_FLOOR = 1e-30


@dataclass(frozen=True)
class Direction:
    """Arrival direction (elevation in [0, pi], azimuth in [0, 2*pi))."""

    elevation: float
    azimuth: float

    def __post_init__(self):
        object.__setattr__(self, "elevation", float(self.elevation))
        object.__setattr__(self, "azimuth", float(self.azimuth))
        if not 0.0 <= self.elevation <= math.pi:
            raise ValueError(f"elevation must lie in [0, pi], got {self.elevation}")
        if not 0.0 <= self.azimuth < 2.0 * math.pi:
            raise ValueError(f"azimuth must lie in [0, 2*pi), got {self.azimuth}")

    @classmethod
    def from_degrees(cls, elevation_deg: float, azimuth_deg: float) -> "Direction":
        return cls(math.radians(elevation_deg), math.radians(azimuth_deg % 360.0))

    def unit_vector(self) -> np.ndarray:
        s = math.sin(self.elevation)
        return np.array(
            [s * math.cos(self.azimuth), s * math.sin(self.azimuth), math.cos(self.elevation)]
        )


@dataclass(frozen=True)
class AngularGrid:
    """Uniform elevation x azimuth grid snapped to contain a steering direction."""

    elevations: np.ndarray
    azimuths: np.ndarray
    resolution: float

    @classmethod
    def build(cls, resolution: float, doa: Direction) -> "AngularGrid":
        if resolution <= 0.0:
            raise ValueError("grid resolution must be positive")
        lo, hi = ELEVATION_RANGE
        elevations = snapped_range(lo, hi, doa.elevation, resolution)
        count = int(round(2.0 * math.pi / resolution))
        azimuths = np.sort((doa.azimuth + np.arange(count) * resolution) % (2.0 * math.pi))
        for arr in (elevations, azimuths):
            arr.setflags(write=False)
        return cls(elevations=elevations, azimuths=azimuths, resolution=resolution)

    def doa_indices(self, doa: Direction) -> tuple[int, int]:
        ei = int(np.argmin(np.abs(self.elevations - doa.elevation)))
        ai = int(np.argmin(np.abs(self.azimuths - doa.azimuth)))
        return ei, ai


def snapped_range(lo: float, hi: float, anchor: float, step: float) -> np.ndarray:
    """Grid points anchor + k*step inside [lo, hi]; always contains the anchor."""
    kmin = math.ceil((lo - anchor) / step - 1e-9)
    kmax = math.floor((hi - anchor) / step + 1e-9)
    return anchor + np.arange(kmin, kmax + 1) * step


# phase cells per block of beampattern_grid: its float64 temporaries stay a
# few MB, and each block's real product with the (mics, 2) filter matrix is
# small enough to run on one BLAS thread
_BLOCK_CELLS = 1 << 18


def _check_frequency(geometry: ArrayGeometry, frequency: float) -> None:
    nyquist = geometry.sample_rate / 2.0
    if not 0.0 < frequency <= nyquist:
        raise ValueError(f"frequency must lie in (0, {nyquist}] Hz, got {frequency}")


def steering_vector(
    geometry: ArrayGeometry, frequency: float, direction: Direction
) -> np.ndarray:
    """Unit-modulus steering phases for one direction, length total_mics."""
    _check_frequency(geometry, frequency)
    tau = (
        -(geometry.mic_radii / geometry.sound_speed)
        * math.sin(direction.elevation)
        * np.cos(direction.azimuth - geometry.mic_angles)
    )
    return np.exp(2j * math.pi * frequency * tau)


def steering_matrix(
    geometry: ArrayGeometry,
    frequency: float,
    elevations: np.ndarray,
    azimuths: np.ndarray,
) -> np.ndarray:
    """Steering vectors for paired (elevation, azimuth) arrays, shape (n, total_mics)."""
    _check_frequency(geometry, frequency)
    elevations = np.atleast_1d(np.asarray(elevations, dtype=float))
    azimuths = np.atleast_1d(np.asarray(azimuths, dtype=float))
    tau = (
        -(geometry.mic_radii[None, :] / geometry.sound_speed)
        * np.sin(elevations)[:, None]
        * np.cos(azimuths[:, None] - geometry.mic_angles[None, :])
    )
    return np.exp(2j * math.pi * frequency * tau)


def beampattern(h: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """Array response h^H d per direction; ``steering`` is (n, mics) or (mics,)."""
    h = np.asarray(h)
    steering = np.asarray(steering)
    if steering.shape[-1] != h.shape[0]:
        raise ValueError(
            f"filter length {h.shape[0]} does not match steering width {steering.shape[-1]}"
        )
    return steering @ np.conj(h)


def beampattern_grid(
    geometry: ArrayGeometry, h: np.ndarray, frequency: float, grid: AngularGrid
) -> np.ndarray:
    """Complex response h^H d over a full grid, shape (n_elevations, n_azimuths).

    The steering phase 2*pi*f*tau factors as sin(elevation) times a
    (azimuth, mic) term, so no (directions x mics) steering matrix is
    built: elevation rows are evaluated in blocks of about _BLOCK_CELLS
    real phase cells, whose cosines and sines meet [Re h*, Im h*].
    """
    _check_frequency(geometry, frequency)
    h = np.asarray(h)
    mics = geometry.total_mics
    if h.shape != (mics,):
        raise ValueError(f"filter shape {h.shape} does not match the array's {mics} mics")
    wavenumber = -2.0 * math.pi * frequency / geometry.sound_speed
    azimuth_phase = (wavenumber * geometry.mic_radii) * np.cos(
        grid.azimuths[:, None] - geometry.mic_angles
    )
    sin_el = np.sin(grid.elevations)
    weights = np.stack([h.real, -h.imag], axis=1)  # [Re h*, Im h*]
    out = np.empty((len(sin_el), len(grid.azimuths)), dtype=complex)
    rows = max(1, _BLOCK_CELLS // max(1, azimuth_phase.size))
    for start in range(0, len(sin_el), rows):
        phase = (sin_el[start : start + rows, None, None] * azimuth_phase).reshape(-1, mics)
        cos_h = np.cos(phase) @ weights
        sin_h = np.sin(phase) @ weights
        # (cos + i sin)(a + ib) with h* = a + ib
        block = out[start : start + rows].reshape(-1)
        block.real = cos_h[:, 0] - sin_h[:, 1]
        block.imag = cos_h[:, 1] + sin_h[:, 0]
    return out


def pattern_db(values: np.ndarray) -> np.ndarray:
    """Magnitude in dB relative to a unit mainlobe, floored to avoid log(0)."""
    power = np.abs(np.asarray(values)) ** 2 + PATTERN_POWER_FLOOR
    return 10.0 * np.log10(power)


def export_beampattern_csv(
    path: str | Path,
    elevations: np.ndarray,
    azimuths: np.ndarray,
    pattern_db_grid: np.ndarray,
) -> None:
    """Rows are elevation, columns azimuth, cells dB re mainlobe.

    Angles are written with 3 decimals and cells with 6, comma-separated
    with CRLF line ends (the ``csv`` module's default dialect).
    """
    pattern_db_grid = np.asarray(pattern_db_grid)
    if pattern_db_grid.shape != (len(elevations), len(azimuths)):
        raise ValueError("pattern grid shape does not match the angle axes")
    header = "elevation_deg\\azimuth_deg" + "".join(f",{math.degrees(a):.3f}" for a in azimuths)
    row_format = "%.3f" + ",%.6f" * len(azimuths) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for el, row in zip(elevations, pattern_db_grid):
            fh.write(row_format % (math.degrees(el), *row.tolist()))
