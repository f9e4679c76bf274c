"""Far-field steering vectors and beampatterns on angular grids.

Directions use spherical polar coordinates: elevation measured from the
array normal (0 is broadside, pi/2 lies in the array plane) and azimuth
measured from the positive x axis.  All angles are radians.
"""

from __future__ import annotations

import functools
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
    "beampattern_grid",
    "bessel_table",
    "pattern_db",
    "export_beampattern_csv",
]

# elevations of a Direction, the beampattern grid and the fit cuts: a planar
# array cannot tell a direction from its mirror image below the array plane
ELEVATION_RANGE = (0.0, math.pi / 2.0)

# added to |response|^2 before taking dB, so a null reads -300 dB, not -inf
PATTERN_POWER_FLOOR = 1e-30


@dataclass(frozen=True)
class Direction:
    """Arrival direction (elevation in ELEVATION_RANGE, azimuth in [0, 2*pi))."""

    elevation: float
    azimuth: float

    def __post_init__(self):
        object.__setattr__(self, "elevation", float(self.elevation))
        object.__setattr__(self, "azimuth", float(self.azimuth))
        if not ELEVATION_RANGE[0] <= self.elevation <= ELEVATION_RANGE[1]:
            raise ValueError(f"elevation must lie in [0, pi/2], got {self.elevation}")
        if not 0.0 <= self.azimuth < 2.0 * math.pi:
            raise ValueError(f"azimuth must lie in [0, 2*pi), got {self.azimuth}")

    @classmethod
    def from_degrees(cls, elevation_deg: float, azimuth_deg: float) -> "Direction":
        # a hair below 0 wraps to exactly 360.0; the second % takes that to 0
        return cls(math.radians(elevation_deg), math.radians(azimuth_deg % 360.0 % 360.0))

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
        return cls(elevations=elevations, azimuths=azimuths)


def snapped_range(lo: float, hi: float, anchor: float, step: float) -> np.ndarray:
    """Grid points anchor + k*step inside [lo, hi]; always contains the anchor."""
    kmin = math.ceil((lo - anchor) / step - 1e-9)
    kmax = math.floor((hi - anchor) / step + 1e-9)
    return anchor + np.arange(kmin, kmax + 1) * step


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


def _harmonic_order(x: float) -> int:
    """Truncation order N of the Jacobi-Anger series for arguments up to ``x``.

    |J_n(x)| for |n| > N, and the trapezoid aliases of :func:`bessel_table`,
    stay below double precision: the x^(1/3) term spans the Bessel
    transition region, which a fixed margin over x does not at large x.
    """
    return math.ceil(x + 10.0 * x ** (1.0 / 3.0) + 15.0)


def _phasors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """e^{j a_i b_k}, shape (a.size, b.size), built without complex temporaries."""
    phase = np.outer(a, b)
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _harmonic_phasors(order: int, angles: np.ndarray) -> np.ndarray:
    """e^{j n a_k} for n = -order..order, shape (2*order + 1, angles.size).

    Only the orders n >= 0 are computed; n < 0 are their conjugates, which
    is exact: (-n) a = -(n a) in floating point, cos is even and sin odd.
    """
    out = np.empty((2 * order + 1, len(angles)), dtype=complex)
    phase = np.outer(np.arange(order + 1), angles)
    np.cos(phase, out=out[order:].real)
    np.sin(phase, out=out[order:].imag)
    np.conjugate(out[:order:-1], out=out[:order])
    return out


def bessel_table(x: np.ndarray, order: int) -> np.ndarray:
    """Bessel functions J_n(x) for n = -order..order, shape x.shape + (2*order + 1,).

    The trapezoid rule on K = 2*order + 2 points of
    (1/2 pi) int_0^2pi e^{i(x sin t - n t)} dt, which is one FFT of the
    samples e^{i x sin t_k}.  It adds the aliases J_{n +- K}(x), which stay
    below double precision while order >= |x| + 10 |x|^(1/3) + 15.
    """
    x = np.asarray(x, dtype=float)
    points = 2 * order + 2
    samples = _phasors(x, np.sin((2.0 * math.pi / points) * np.arange(points)))
    n = np.arange(-order, order + 1)
    # numpy.fft loads on first use, so importing ccmabeam stays light
    table = np.fft.fft(samples, axis=-1)[:, n % points].real / points
    return table.reshape(x.shape + (len(n),))


def beampattern_grid(
    geometry: ArrayGeometry, h: np.ndarray, frequency: float, grid: AngularGrid
) -> np.ndarray:
    """Complex response h^H d over a full grid, shape (n_elevations, n_azimuths).

    Ring-harmonic form of sum_m conj(h_m) e^{-j k r_m sin(el) cos(az - psi_m)}:
    by the Jacobi-Anger expansion e^{-jx cos a} = sum_n (-j)^n J_n(x) e^{jna},
    the response is C @ e^{j n az} with
    C[el, n] = (-j)^n sum_r J_n(k r sin el) H[r, n] and ring harmonics
    H[r, n] = sum_{m in ring r} conj(h_m) e^{-j n psi_m}, which hold for any
    mic angles.  |n| runs to _harmonic_order(k * r_max); one Bessel table
    per ring keeps the temporaries small.  The phasors of orders n < 0 are
    the conjugates of those of -n (:func:`_harmonic_phasors`).
    """
    _check_frequency(geometry, frequency)
    h = np.asarray(h)
    mics = geometry.total_mics
    if h.shape != (mics,):
        raise ValueError(f"filter shape {h.shape} does not match the array's {mics} mics")
    wavenumber = 2.0 * math.pi * frequency / geometry.sound_speed
    order = _harmonic_order(wavenumber * max(ring.radius for ring in geometry.rings))
    n = np.arange(-order, order + 1)
    mic_phasors = _harmonic_phasors(order, geometry.mic_angles)
    sign = np.array([1.0, -1j, -1.0, 1j])[n % 4]  # (-j)^n
    sin_el = np.sin(grid.elevations)
    coeffs = np.zeros((len(sin_el), len(n)), dtype=complex)
    for ring, s in zip(geometry.rings, geometry.ring_slices):
        ring_harmonics = sign * np.conj(mic_phasors[:, s] @ h[s])
        coeffs += bessel_table(wavenumber * ring.radius * sin_el, order) * ring_harmonics
    return coeffs @ _harmonic_phasors(order, grid.azimuths)


def pattern_db(values: np.ndarray) -> np.ndarray:
    """Magnitude in dB relative to a unit mainlobe, floored to avoid log(0)."""
    power = np.abs(np.asarray(values)) ** 2 + PATTERN_POWER_FLOOR
    return 10.0 * np.log10(power)


# cells per row block of the CSV writer: its scratch stays a few hundred kB
_CSV_BLOCK_CELLS = 1 << 13
# a cell is spelled from the byte tables when |v| rounds below 1000 and
# v * 10^6 lies farther than the margin from a rounding tie: fl(v * 10^6)
# is off by at most 2^-24 there, so its rint rounds like %.6f.  Near-ties,
# larger values, NaN and infinities go through %-format
_CSV_TABLE_LIMIT = 1e9
_CSV_TIE_MARGIN = 1e-6


@functools.cache
def _csv_cell_tables() -> tuple[np.ndarray, np.ndarray]:
    """Byte tables of one ``,%.6f`` cell, zero-padded to a 16-byte slot.

    heads[1000 * negative + i] holds ``,`` [``-``] i ``.`` in 8 bytes and
    digits[k] the 3 digits of k in 4; as integers, so one lookup places them.
    """
    heads = b"".join(
        (b",%s%d." % (sign, i)).ljust(8, b"\0") for sign in (b"", b"-") for i in range(1000)
    )
    digits = b"".join(b"%03d\0" % k for k in range(1000))
    return np.frombuffer(heads, dtype=np.uint64), np.frombuffer(digits, dtype=np.uint32)


def export_beampattern_csv(
    path: str | Path,
    elevations: np.ndarray,
    azimuths: np.ndarray,
    pattern_db_grid: np.ndarray,
) -> None:
    """Rows are elevation, columns azimuth, cells dB re mainlobe.

    Angles are written with 3 decimals and cells with 6 (``%.3f``,
    ``%.6f``), comma-separated with CRLF line ends (the ``csv`` module's
    default dialect).  Cells are rounded to integer millionths in numpy and
    assembled from byte tables, a block of rows at a time: per row, the
    elevation label, one 16-byte slot per cell and CRLF, whose zero padding
    is then deleted.  A row holding a cell the tables cannot round exactly
    is formatted with ``%`` instead.
    """
    pattern_db_grid = np.asarray(pattern_db_grid)
    if pattern_db_grid.shape != (len(elevations), len(azimuths)):
        raise ValueError("pattern grid shape does not match the angle axes")
    heads, digits = _csv_cell_tables()
    n = len(azimuths)
    header = b"elevation_deg\\azimuth_deg" + (b",%.3f" * n) % tuple(np.degrees(azimuths).tolist())
    labels = np.array([b"%.3f" % deg for deg in np.degrees(elevations).tolist()], dtype=bytes)
    label_width = -(-labels.itemsize // 8) * 8  # keeps the slots 8-byte aligned
    labels = labels.astype(f"S{label_width}")  # zero-padded
    block_rows = max(1, _CSV_BLOCK_CELLS // max(n, 1))
    with open(path, "wb") as fh:
        fh.write(header + b"\r\n")
        for start in range(0, len(labels), block_rows):
            block = pattern_db_grid[start : start + block_rows].astype(float, copy=False)
            rows = len(block)
            text = np.zeros((rows, label_width + 16 * n + 8), dtype=np.uint8)
            text[:, :label_width] = labels[start : start + rows].view(np.uint8).reshape(rows, -1)
            text[:, -8:-6] = (ord("\r"), ord("\n"))

            with np.errstate(invalid="ignore", over="ignore"):
                scaled = block * 1e6
                rounded = np.rint(scaled)
                fallback = np.abs(scaled - rounded) > 0.5 - _CSV_TIE_MARGIN
                millionths = np.abs(rounded)
                fallback |= ~(millionths < _CSV_TABLE_LIMIT)  # also NaN and infinities
            millionths[fallback] = 0.0
            units = millionths.astype(np.intp)  # then peel off two groups of 3 decimals
            low = units % 1000
            units //= 1000
            high = units % 1000
            units //= 1000
            units += np.signbit(block) * 1000
            slots = text.view(np.uint64)[:, label_width // 8 : label_width // 8 + 2 * n]
            slots = slots.reshape(rows, n, 2)
            slots[..., 0] = heads.take(units)
            decimals = slots[..., 1:].view(np.uint32)
            decimals[..., 0] = digits.take(high)
            decimals[..., 1] = digits.take(low)

            lines = [row.tobytes().translate(None, b"\0") for row in text]
            for i in np.flatnonzero(fallback.any(axis=1)):
                cells = (b",%.6f" * n) % tuple(block[i].tolist())
                lines[i] = labels[start + i] + cells + b"\r\n"
            fh.write(b"".join(lines))
