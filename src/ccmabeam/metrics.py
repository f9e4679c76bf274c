"""Beamformer quality metrics.

Directivity factor (DF) against an isotropic diffuse field, white noise
gain (WNG), and the beamwidth of a weighted least-squares parabola fit
whose curvature is linear in the dB beampattern samples (so the width is
differentiable through them).

Every filter is scored by :class:`BandTables`, whose adjoint also serves
the design gradient.
"""

from __future__ import annotations

import csv
import math
import mmap
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import ArrayGeometry
from .wavefield import (
    ELEVATION_RANGE,
    PATTERN_POWER_FLOOR,
    Direction,
    snapped_range,
    steering_vector,
)

__all__ = [
    "NumericalError",
    "GRID_RESOLUTION",
    "DELTA_L_DB",
    "GAMMA_DIAGONAL_REG",
    "MASK_SUPPORT_SIGMAS",
    "gamma_matrix",
    "sigma_schedule",
    "FitCut",
    "build_fit_cuts",
    "fit_coefficients",
    "curvature_width",
    "MetricCurves",
    "METRIC_COLUMNS",
    "metric_cells",
    "write_csv",
    "BandTables",
]

# default spacing of the fit cuts and of the beampattern grid (radians)
GRID_RESOLUTION = math.radians(1.0)

# level drop defining the optimized beamwidth
DELTA_L_DB = 6.0

GAMMA_DIAGONAL_REG = 1e-10
MASK_SUPPORT_SIGMAS = 3.0

SCHEDULE_K = 0.8
SCHEDULE_SIGMA_MIN = math.radians(4.0)
SCHEDULE_SIGMA_MAX = math.radians(30.0)

_DB_PER_LN = 10.0 / math.log(10.0)  # d(10 log10 p)/dp = _DB_PER_LN / p


class NumericalError(RuntimeError):
    """A metric denominator lost positivity or a value left its domain."""


def gamma_matrix(geometry: ArrayGeometry, frequency: float) -> np.ndarray:
    """Diffuse-field coherence sinc(2 pi f l_ij / c), unit diagonal."""
    if frequency <= 0.0:
        raise ValueError("frequency must be positive")
    # np.sinc(x / pi) in place: sin(y) / y of y = pi * (x / pi), which is 1 at y = 0
    y = (2.0 * math.pi * frequency) * geometry.distances
    y /= geometry.sound_speed
    y /= math.pi
    y *= math.pi
    y[y == 0.0] = np.finfo(float).eps
    gamma = np.sin(y)
    gamma /= y
    return gamma


def sigma_schedule(frequency: float, diameter: float, sound_speed: float) -> float:
    """Fit-mask width of both cuts (radians), narrower at higher frequencies.

    SCHEDULE_K * c / (f D), clamped to [SCHEDULE_SIGMA_MIN,
    SCHEDULE_SIGMA_MAX].  A zero-aperture array pins the width to
    SCHEDULE_SIGMA_MAX.
    """
    if frequency <= 0.0:
        raise ValueError("frequency must be positive")
    if diameter <= 0.0:
        return SCHEDULE_SIGMA_MAX
    sigma = SCHEDULE_K * sound_speed / (frequency * diameter)
    return min(max(sigma, SCHEDULE_SIGMA_MIN), SCHEDULE_SIGMA_MAX)


@dataclass(frozen=True)
class FitCut:
    """One-dimensional beampattern cut through the arrival direction.

    ``x`` holds signed angular offsets from the DoA (radians), restricted
    to the support of the super-Gaussian fit mask; ``elevations`` and
    ``azimuths`` are the absolute look directions of each sample.
    """

    x: np.ndarray
    elevations: np.ndarray
    azimuths: np.ndarray
    doa_index: int
    sigma: float


def _mask_weights(x: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(-0.5 * (x / sigma) ** 4)


def build_fit_cuts(
    geometry: ArrayGeometry, doa: Direction, frequency: float, grid_resolution: float
) -> tuple[FitCut, FitCut]:
    """Elevation and azimuth cuts snapped to the DoA, trimmed to the mask support."""
    sigma = sigma_schedule(frequency, geometry.diameter(), geometry.sound_speed)
    support = MASK_SUPPORT_SIGMAS * sigma

    lo, hi = ELEVATION_RANGE
    thetas = snapped_range(
        max(lo, doa.elevation - support), min(hi, doa.elevation + support),
        doa.elevation, grid_resolution,
    )
    x_theta = thetas - doa.elevation
    theta_cut = FitCut(
        x=x_theta,
        elevations=thetas,
        azimuths=np.full_like(thetas, doa.azimuth),
        doa_index=int(np.argmin(np.abs(x_theta))),
        sigma=sigma,
    )

    steps = int(math.floor(support / grid_resolution + 1e-9))
    half_circle = int(math.ceil(math.pi / grid_resolution - 1e-9))
    kmin = -min(steps, half_circle - 1)
    kmax = min(steps, half_circle)
    x_phi = np.arange(kmin, kmax + 1) * grid_resolution
    phi_cut = FitCut(
        x=x_phi,
        elevations=np.full_like(x_phi, doa.elevation),
        azimuths=doa.azimuth + x_phi,
        doa_index=int(-kmin),
        sigma=sigma,
    )
    return theta_cut, phi_cut


def fit_coefficients(x, doa_index: int, sigma_window: float) -> np.ndarray:
    """Weights c such that c @ cut_db is the curvature ``a`` of the fit
    cut_db[i] ~ a (x_i - x[doa])^2 + b.

    The fit is least squares with super-Gaussian sample weights
    exp(-((x - x[doa]) / sigma_window)^4 / 2); solving its 2x2 normal
    equations leaves ``a`` linear in the dB samples.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 3:
        raise ValueError("parabola fit needs at least 3 samples")
    if not 0 <= doa_index < n:
        raise ValueError(f"doa_index {doa_index} outside the cut of length {n}")
    if sigma_window <= 0.0:
        raise ValueError("sigma_window must be positive")
    xo = x - x[doa_index]
    w = _mask_weights(xo, sigma_window)
    x2 = xo * xo
    total_w = float(np.sum(w))
    s_x2 = float(np.dot(w, x2))
    s_x4 = float(np.dot(w, x2 * x2))
    denom = total_w * s_x4 - s_x2 * s_x2
    if denom <= 0.0:
        raise ValueError("degenerate cut: fit normal equations are singular")
    return (total_w * (w * x2) - s_x2 * w) / denom


def curvature_width(a):
    """Mainlobe width 2 sqrt(DELTA_L_DB / -a) of fitted curvatures ``a``.

    Returns (width, d width / d a, concave), elementwise.  A non-concave
    fit (a >= -1e-12) gets the sentinel width pi with a zero derivative.
    """
    a = np.asarray(a, dtype=float)
    concave = a < -1e-12
    neg_a = np.where(concave, -a, 1.0)
    width = np.where(concave, 2.0 * np.sqrt(DELTA_L_DB / neg_a), math.pi)
    slope = np.where(concave, width / (2.0 * neg_a), 0.0)
    return width, slope, concave


@dataclass
class MetricCurves:
    """Per-band DF and WNG (linear) and beamwidths (radians)."""

    frequencies: tuple[float, ...]
    df: np.ndarray
    wng: np.ndarray
    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        for name in ("df", "wng", "theta", "phi"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != (len(self.frequencies),):
                raise ValueError(f"{name} length does not match the band count")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite, got {arr.tolist()}")
        if np.any(self.df <= 0.0) or np.any(self.wng <= 0.0):
            raise ValueError("DF and WNG must be positive")
        if np.any(self.theta <= 0.0) or np.any(self.theta > math.pi):
            raise ValueError("elevation beamwidths must lie in (0, pi]")
        if np.any(self.phi <= 0.0) or np.any(self.phi > math.pi):
            raise ValueError("azimuth beamwidths must lie in (0, pi]")

    def to_csv(self, path: str | Path) -> None:
        rows = ([f"{f:g}", *metric_cells(self, b)] for b, f in enumerate(self.frequencies))
        write_csv(path, ["frequency_hz", *METRIC_COLUMNS], rows)


# the column names of metric_cells, in its order
METRIC_COLUMNS = ("df_db", "wng_db", "theta_deg", "phi_deg")


def metric_cells(metrics, b) -> list[str]:
    """CSV cells of band ``b``: DF and WNG in dB, then theta and phi in degrees.

    ``metrics`` holds ``df``/``wng`` (linear) and ``theta``/``phi`` (radians)
    indexed by ``b``: a band of :class:`MetricCurves`, or an (iteration, band)
    pair of ``RunRecord``.
    """
    return [
        f"{10.0 * math.log10(metrics.df[b]):.6f}",
        f"{10.0 * math.log10(metrics.wng[b]):.6f}",
        f"{math.degrees(metrics.theta[b]):.6f}",
        f"{math.degrees(metrics.phi[b]):.6f}",
    ]


def write_csv(path: str | Path, header, rows) -> None:
    """Write one header row, then ``rows``, with the csv module's CRLF line ends."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _untouched_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """Float zeros in a private mapping of their own: pages never written
    (the padding of the fit cuts) stay out of the resident set, and freeing
    returns them without raising malloc's mmap threshold for later arrays."""
    buffer = mmap.mmap(-1, 8 * math.prod(shape), flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):  # a huge page would make the padding resident
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buffer, dtype=float).reshape(shape)


class BandTables:
    """The gains -> band metrics map of one array, DoA, band set and grid.

    Every filter here, designed or delay-and-sum, is real per-mic gains g
    times the look-direction phases d.  Tables stacked over bands: ``a_gamma``
    is Gamma * Re(conj(d) d^T), so g^T a_gamma g = h^H Gamma h; ``cut_rows``
    the real, then the imaginary parts of both fit cuts' steering times
    conj(d); ``fit`` the cuts' parabola-fit coefficients.  Cuts are
    zero-padded to the longest, with zero fit coefficients on the padding.

    A cut row is e^{j phase} with the phase in closed form.  The steering
    phase -k r_m sin(theta) cos(phi - psi_m), k = 2 pi f / c, less the
    DoA's is, with a_m = phi0 - psi_m,
    k r_m cos(a_m) (sin theta0 - sin theta_i) on the elevation cut and
    k r_m sin(theta0) ((1 - cos x_i) cos(a_m) + sin(x_i) sin(a_m)) on the
    azimuth cut at phi0 + x_i.
    """

    def __init__(self, geometry: ArrayGeometry, doa: Direction, frequencies, grid_resolution):
        if not 0.0 < grid_resolution < math.inf:
            raise ValueError(f"grid_resolution_deg: must be positive and finite, "
                             f"got {math.degrees(grid_resolution):g}")
        self.frequencies = tuple(float(f) for f in frequencies)
        cuts = [build_fit_cuts(geometry, doa, f, grid_resolution) for f in self.frequencies]
        for f, pair in zip(self.frequencies, cuts):
            for axis, cut in zip(("elevation", "azimuth"), pair):
                if len(cut.x) < 3:
                    raise ValueError(
                        f"grid_resolution_deg: a {math.degrees(grid_resolution):g} degree grid "
                        f"leaves {len(cut.x)} sample(s) on the {axis} fit cut of the {f:g} Hz "
                        "band; the parabola fit needs at least 3"
                    )
        samples = max(len(cut.x) for pair in cuts for cut in pair)
        bands, mics = len(self.frequencies), geometry.total_mics
        # filled band by band in place: padded per-band copies would hold the tables twice
        self.a_gamma = np.empty((bands, mics, mics))
        cut_rows = _untouched_zeros((bands, 2, 2, samples, mics))  # (band, re/im, cut, sample, mic)
        self.fit = np.zeros((bands, 2, samples))
        offset = doa.azimuth - geometry.mic_angles
        radial_cos = geometry.mic_radii * np.cos(offset)  # r_m cos(a_m)
        radial_sin = geometry.mic_radii * np.sin(offset)
        sin_el = math.sin(doa.elevation)
        # one buffer for every band's conj(d) d^T: the complex product, whose
        # SIMD loop may fuse its multiply-adds, so Re d Re d^T + Im d Im d^T
        # can differ from it in the last bit
        outer = np.empty((mics, mics), dtype=complex)
        for b, f in enumerate(self.frequencies):
            d = steering_vector(geometry, f, doa)
            np.multiply.outer(np.conj(d), d, out=outer)
            np.multiply(gamma_matrix(geometry, f), outer.real, out=self.a_gamma[b])
            k = 2.0 * math.pi * f / geometry.sound_speed
            for c, cut in enumerate(cuts[b]):
                n = len(cut.x)
                # the phase goes into the sine rows, its cosine into the
                # cosine rows, then its sine in place: no phase temporaries
                cos_rows, sin_rows = cut_rows[b, 0, c, :n], cut_rows[b, 1, c, :n]
                if c == 0:
                    np.multiply.outer(sin_el - np.sin(cut.elevations), k * radial_cos, out=sin_rows)
                else:  # the azimuth cut's second term uses the cosine rows as scratch
                    np.multiply.outer(1.0 - np.cos(cut.x), k * sin_el * radial_cos, out=sin_rows)
                    sin_rows += np.multiply.outer(
                        np.sin(cut.x), k * sin_el * radial_sin, out=cos_rows
                    )
                np.cos(sin_rows, out=cos_rows)
                np.sin(sin_rows, out=sin_rows)
                self.fit[b, c, :n] = fit_coefficients(cut.x, cut.doa_index, cut.sigma)
        self.cut_rows = cut_rows.reshape(bands, 4 * samples, mics)

    def forward(self, gains: np.ndarray):
        """(df, wng, widths, diffuse, pullback) of real gains (bands, mics).

        ``widths`` (bands, 2) are the raw parabola widths; ``pullback(g_theta,
        g_phi, g_df, g_wng)`` is the gradient in the gains of the metrics
        weighted by those per-band adjoints.  DF's denominator h^H Gamma h is
        floored at GAMMA_DIAGONAL_REG times the filter power h^H h: that guards
        against a numerically indefinite coherence matrix without biasing the
        well-conditioned case, as a diagonal offset would.
        """
        bands = len(gains)
        total = gains.sum(axis=1)
        power = total * total
        filter_power = np.einsum("bm,bm->b", gains, gains)
        a_gains = np.matmul(self.a_gamma, gains[:, :, None])[:, :, 0]
        diffuse = np.einsum("bm,bm->b", gains, a_gains)
        floor = GAMMA_DIAGONAL_REG * filter_power
        floored = diffuse < floor
        denom = np.where(floored, floor, diffuse)
        df = power / denom
        wng = power / filter_power

        response = np.matmul(self.cut_rows, gains[:, :, None]).reshape(bands, 2, 2, -1)
        cut_power = response[:, 0] ** 2 + response[:, 1] ** 2 + PATTERN_POWER_FLOOR
        # the fit coefficients sum to zero, so the curvature ignores the dB
        # offset of normalizing the cuts to the look direction
        curvature = np.einsum("bcs,bcs->bc", self.fit, 10.0 * np.log10(cut_power))
        widths, slopes, _ = curvature_width(curvature)

        def pullback(g_theta, g_phi, g_df, g_wng) -> np.ndarray:
            # widths -> curvatures -> dB cut samples -> cut responses -> gains
            g_db = (np.column_stack([g_theta, g_phi]) * slopes)[:, :, None] * self.fit
            g_response = 2.0 * response * (_DB_PER_LN * g_db / cut_power)[:, None]
            g_gains = np.matmul(g_response.reshape(bands, 1, -1), self.cut_rows)[:, 0]
            # DF = power / max(diffuse, floor), WNG = power / filter_power
            g_power = g_df / denom + g_wng / filter_power
            g_denom = -g_df * df / denom
            g_filter_power = -g_wng * wng / filter_power
            g_filter_power += np.where(floored, GAMMA_DIAGONAL_REG * g_denom, 0.0)
            g_diffuse = np.where(floored, 0.0, g_denom)
            g_gains += (
                (2.0 * total * g_power)[:, None]
                + 2.0 * gains * g_filter_power[:, None]
                + 2.0 * a_gains * g_diffuse[:, None]  # the diffuse form is symmetric
            )
            return g_gains

        return df, wng, widths, diffuse, pullback

    def curves(self, gains: np.ndarray) -> MetricCurves:
        """Reported metric curves of real gains (bands, mics): widths clamped to
        (0, pi]; a band whose diffuse form is not positive raises NumericalError."""
        df, wng, widths, diffuse, _ = self.forward(gains)
        for b in np.flatnonzero(diffuse <= 0.0):
            raise NumericalError(f"band {b} ({self.frequencies[b]:g} Hz): diffuse-noise "
                                 f"power h^H Gamma h = {diffuse[b]} is not positive")
        widths = np.minimum(widths, math.pi)
        return MetricCurves(self.frequencies, df, wng, widths[:, 0], widths[:, 1])

