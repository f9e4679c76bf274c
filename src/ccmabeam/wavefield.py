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

# elevations of a Direction, the beampattern grid and the fit cuts: a planar
# array cannot tell a direction from its mirror image below the array plane
ELEVATION_RANGE = (0.0, math.pi / 2.0)

# 2 pi - fl(2 pi), the part of the full turn a double cannot hold
_TWO_PI_LO = 2.4492935982947064e-16

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
    """Uniform elevation x azimuth grid snapped to contain a steering direction.

    The azimuths are round(2 pi / resolution) points spaced evenly around the
    full circle, one of them the steering azimuth; a resolution above pi would
    leave fewer than 2.
    """

    elevations: np.ndarray
    azimuths: np.ndarray

    @classmethod
    def build(cls, resolution: float, doa: Direction) -> "AngularGrid":
        if not 0.0 < resolution < math.inf:  # NaN fails both
            raise ValueError("grid resolution must be positive and finite")
        if resolution > math.pi:
            raise ValueError("grid resolution must be at most pi (180 degrees)")
        lo, hi = ELEVATION_RANGE
        elevations = snapped_range(lo, hi, doa.elevation, resolution)
        azimuths = _circle_points(doa.azimuth, int(round(2.0 * math.pi / resolution)))
        for arr in (elevations, azimuths):
            arr.setflags(write=False)
        return cls(elevations=elevations, azimuths=azimuths)


def _circle_points(anchor: float, count: int) -> np.ndarray:
    """anchor + 2 pi k / count for k = 0..count-1, wrapped into [0, 2 pi) and sorted.

    Each point lies within about half an ulp of its exact value, which is
    where the inverse FFT of :class:`BeampatternRows` evaluates the
    response; the anchor itself is kept exactly.  The step is split as
    hi + lo with hi cut to 53 - bit_length(count) bits, so k * hi is exact
    and only the final sum rounds.
    """
    mantissa, exponent = math.frexp(2.0 * math.pi / count)
    bits = 53 - count.bit_length()
    hi = math.ldexp(math.floor(math.ldexp(mantissa, bits)), exponent - bits)
    lo = ((2.0 * math.pi - count * hi) + _TWO_PI_LO) / count
    k = np.arange(count, dtype=float)
    head = k * hi
    total = anchor + head
    # the rounding error of anchor + k hi (Knuth's two-sum), plus k lo
    shifted = total - anchor
    tail = (anchor - (total - shifted)) + (head - shifted) + k * lo
    wrap = total + tail >= 2.0 * math.pi
    # exact (Sterbenz): total lies within a factor 2 of fl(2 pi) there
    total[wrap] -= 2.0 * math.pi
    tail[wrap] -= _TWO_PI_LO
    # a point a hair below 2 pi is kept as 0, not rounded up to 2 pi
    return np.sort(np.maximum(total + tail, 0.0))


def snapped_range(lo: float, hi: float, anchor: float, step: float) -> np.ndarray:
    """Grid points anchor + k*step inside [lo, hi]; always contains the anchor.

    A point that rounds a hair outside is clipped onto the bound.
    """
    kmin = math.ceil((lo - anchor) / step - 1e-9)
    kmax = math.floor((hi - anchor) / step + 1e-9)
    return np.clip(anchor + np.arange(kmin, kmax + 1) * step, lo, hi)


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


def bessel_table(x: np.ndarray, order: int) -> np.ndarray:
    """Bessel functions J_n(x) for n = -order..order, shape x.shape + (2*order + 1,).

    The trapezoid rule on K = 2*order + 2 points of
    (1/2 pi) int_0^2pi e^{i(x sin t - n t)} dt, which is one FFT of the
    samples e^{i x sin t_k}.  It adds the aliases J_{n +- K}(x), which stay
    below double precision while order >= |x| + 10 |x|^(1/3) + 15.  Only the
    quarter period t_k <= pi/2 is computed: sin(pi - t) = sin t fills the
    rest of the first half, and sin(pi + t) = -sin t makes the second half
    its conjugate.
    """
    x = np.asarray(x, dtype=float)
    points = 2 * order + 2
    half = points // 2
    quarter = points // 4 + 1
    samples = np.empty((x.size, points), dtype=complex)
    samples[:, :quarter] = _phasors(x, np.sin((2.0 * math.pi / points) * np.arange(quarter)))
    samples[:, quarter : half + 1] = samples[:, half - quarter :: -1]
    np.conjugate(samples[:, :half], out=samples[:, half:])
    n = np.arange(-order, order + 1)
    # one FFT gives the trapezoid sums of every order; numpy imports numpy.fft
    # on first access, so only the grid path pays for loading it
    table = np.fft.fft(samples, axis=-1).real[:, n % points]
    table /= points
    return table.reshape(x.shape + (len(n),))


class BeampatternRows:
    """One band's beampattern over a grid, formed a block of elevation rows at a time.

    ``response(rows)`` is the complex response h^H d of the elevation rows
    ``rows`` (a slice), shape (rows, n_azimuths), and ``self[rows]`` its
    :func:`pattern_db`: the object slices like the dB grid, whose shape
    (n_elevations, n_azimuths) is ``shape``.

    Ring-harmonic form of sum_m conj(h_m) e^{-j k r_m sin(el) cos(az - psi_m)}:
    by the Jacobi-Anger expansion e^{-jx cos a} = sum_n (-j)^n J_n(x) e^{jna},
    the response is sum_n C[el, n] e^{j n az} with
    C[el, n] = (-j)^n sum_r J_n(k r sin el) H[r, n] and ring harmonics
    H[r, n] = sum_{m in ring r} conj(h_m) e^{-j n psi_m}, which hold for any
    mic angles.  |n| runs to _harmonic_order(k * r_max); one Bessel table
    per ring and few rows keeps the temporaries small, and a ring of radius
    0 adds only its n = 0 harmonic, as J_n(0) = delta_n0.  The grid's M
    azimuths are a_0 + 2 pi m / M, so the sum over n is one inverse FFT of
    length M of C[el, n] e^{j n a_0}, its orders folded modulo M.  C of the
    whole grid is formed once, here; each block of rows is then folded into
    one buffer held for the band, so a band streamed in blocks allocates
    only block-sized temporaries.
    """

    def __init__(self, geometry: ArrayGeometry, h: np.ndarray, frequency: float, grid: AngularGrid):
        _check_frequency(geometry, frequency)
        h = np.asarray(h)
        mics = geometry.total_mics
        if h.shape != (mics,):
            raise ValueError(f"filter shape {h.shape} does not match the array's {mics} mics")
        count = len(grid.azimuths)
        self.shape = (len(grid.elevations), count)
        self._fold = np.empty((0, count), dtype=complex)
        wavenumber = 2.0 * math.pi * frequency / geometry.sound_speed
        order = _harmonic_order(wavenumber * max(ring.radius for ring in geometry.rings))
        n = np.arange(-order, order + 1)
        mic_phasors = _phasors(n, geometry.mic_angles)
        # a_0 from the second azimuth: the first may be a point a hair below
        # 2 pi that the grid keeps as 0 (_circle_points)
        a0 = grid.azimuths[1] - 2.0 * math.pi / count
        # (-j)^n e^{j n a_0}: the Jacobi-Anger sign and the shift to the first azimuth
        shift = np.array([1.0, -1j, -1.0, 1j])[n % 4] * _phasors(n, np.array([a0]))[:, 0]
        harmonics = [shift * np.conj(mic_phasors[:, s] @ h[s]) for s in geometry.ring_slices]
        sin_el = np.sin(grid.elevations)
        coeffs = np.zeros((len(sin_el), len(n)), dtype=complex)
        # the Bessel tables a few rows at a time: each complex temporary holds
        # about half a CSV block of cells (64 kB), which malloc reuses
        step = max(1, _CSV_BLOCK_CELLS // (2 * len(n)))
        for start in range(0, len(sin_el), step):
            rows = slice(start, start + step)
            for ring, ring_harmonics in zip(geometry.rings, harmonics):
                if ring.radius == 0.0:
                    coeffs[rows, order] += ring_harmonics[order]
                else:
                    table = bessel_table(wavenumber * ring.radius * sin_el[rows], order)
                    coeffs[rows] += table * ring_harmonics
        self._coeffs = coeffs
        # (orders, columns) of each turn of M orders: order n meets the
        # phasors of column n mod M, and the columns of one turn are distinct,
        # so each turn is one indexed add; more than one turn only when 2N + 1 > M
        self._turns = [
            (slice(start, start + count), n[start : start + count] % count)
            for start in range(0, len(n), count)
        ]

    def response(self, rows: slice) -> np.ndarray:
        """Complex response of the elevation rows ``rows``, shape (rows, n_azimuths)."""
        coeffs = self._coeffs[rows]
        if len(self._fold) < len(coeffs):
            self._fold = np.empty((len(coeffs), self.shape[1]), dtype=complex)
        folded = self._fold[: len(coeffs)]
        folded.fill(0.0)
        for orders, columns in self._turns:
            folded[:, columns] += coeffs[:, orders]
        return np.fft.ifft(folded, axis=-1, norm="forward")

    def __getitem__(self, rows: slice) -> np.ndarray:
        return pattern_db(self.response(rows))


def pattern_db(values: np.ndarray) -> np.ndarray:
    """Magnitude in dB relative to a unit mainlobe, floored to avoid log(0)."""
    values = np.asarray(values)
    # in place, one buffer of the grid's size; asarray keeps a 0-d input an
    # array, as the ufuncs return a scalar for it and out= takes only arrays
    power = np.asarray(np.square(values.real, dtype=float))
    power += np.square(values.imag)
    power += PATTERN_POWER_FLOOR
    np.log10(power, out=power)
    power *= 10.0
    return power


# cells per row block of the CSV writer, and of a BeampatternRows it streams:
# the scratch of both stays a few hundred kB
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
    pattern_db_grid: np.ndarray | BeampatternRows,
) -> None:
    """Rows are elevation, columns azimuth, cells dB re mainlobe.

    ``pattern_db_grid`` is read a block of rows at a time, so a
    :class:`BeampatternRows` is formed block by block as it is written and
    never held whole.  Angles are written with 3 decimals and cells with 6
    (``%.3f``, ``%.6f``), comma-separated with CRLF line ends (the ``csv``
    module's default dialect).  Cells are rounded to integer millionths in
    numpy and assembled from byte tables: per row, the elevation label, one
    16-byte slot per cell and CRLF, whose zero padding is then deleted.  A
    cell the tables cannot round exactly is formatted with ``%`` instead and
    spliced into its row.
    """
    if pattern_db_grid.shape != (len(elevations), len(azimuths)):
        raise ValueError("pattern grid shape does not match the angle axes")
    heads, digits = _csv_cell_tables()
    n = len(azimuths)
    header = b"elevation_deg\\azimuth_deg" + (b",%.3f" * n) % tuple(np.degrees(azimuths).tolist())
    labels = np.array([b"%.3f" % deg for deg in np.degrees(elevations).tolist()], dtype=bytes)
    label_width = -(-labels.itemsize // 8) * 8  # keeps the slots 8-byte aligned
    labels = labels.astype(f"S{label_width}")  # zero-padded
    block_rows = max(1, _CSV_BLOCK_CELLS // max(n, 1))
    # one text buffer for every block: each block rewrites its labels and
    # slots, and the CRLF and the zero padding never change
    buffer = np.zeros((min(block_rows, len(labels)), label_width + 16 * n + 8), dtype=np.uint8)
    buffer[:, -8:-6] = (ord("\r"), ord("\n"))
    with open(path, "wb") as fh:
        fh.write(header + b"\r\n")
        for start in range(0, len(labels), block_rows):
            block = pattern_db_grid[start : start + block_rows].astype(float, copy=False)
            rows = len(block)
            text = buffer[:rows]
            text[:, :label_width] = labels[start : start + rows].view(np.uint8).reshape(rows, -1)

            with np.errstate(invalid="ignore", over="ignore"):
                scaled = block * 1e6
                rounded = np.rint(scaled)
                fallback = np.abs(scaled - rounded) > 0.5 - _CSV_TIE_MARGIN
                millionths = np.abs(rounded)
                fallback |= ~(millionths < _CSV_TABLE_LIMIT)  # also NaN and infinities
            millionths[fallback] = 0.0
            # (1000 * negative + integer part) * 10^6 + 3 decimals * 10^3 + 3
            # decimals, below 2^32, peeled apart by floor division by a
            # scalar: numpy's fast integer path, which divmod and % lack
            np.add(millionths, 1e9, out=millionths, where=np.signbit(block))
            units = millionths.astype(np.uint32)
            thousands = units // 1000
            units -= thousands * 1000
            whole = thousands // 1000
            thousands -= whole * 1000
            slots = text.view(np.uint64)[:, label_width // 8 : label_width // 8 + 2 * n]
            slots = slots.reshape(rows, n, 2)
            slots[..., 0] = heads.take(whole)
            decimals = slots[..., 1:].view(np.uint32)
            decimals[..., 0] = digits.take(thousands)
            decimals[..., 1] = digits.take(units)

            data = text.tobytes().translate(None, b"\0")
            redo = np.flatnonzero(fallback.any(axis=1))
            if redo.size:  # labels and cells hold no comma, CR or LF
                lines = data.splitlines(keepends=True)
                for i in redo.tolist():
                    fields = lines[i][:-2].split(b",")  # the label, then one per cell
                    for j in np.flatnonzero(fallback[i]).tolist():
                        fields[j + 1] = b"%.6f" % block[i, j]
                    lines[i] = b",".join(fields) + b"\r\n"
                data = b"".join(lines)
            fh.write(data)
