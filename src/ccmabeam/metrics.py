"""Beamformer quality metrics.

Directivity factor (DF) against an isotropic diffuse field, white noise
gain (WNG), and two beamwidth estimators: a weighted least-squares
parabola fit whose curvature is linear in the dB beampattern samples (so
the width is differentiable through them), and a plain level-crossing
search used as a non-differentiable reference.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .geometry import ArrayGeometry
from .wavefield import Direction, beampattern, snapped_range, steering_matrix, steering_vector
from .weighting import DesignParams, assemble_filter

__all__ = [
    "NumericalError",
    "DELTA_L_DB",
    "ORACLE_DELTA_L_DB",
    "GAMMA_DIAGONAL_REG",
    "PATTERN_POWER_FLOOR",
    "MASK_SUPPORT_SIGMAS",
    "gamma_matrix",
    "directivity_factor",
    "white_noise_gain",
    "sigma_schedule",
    "FitCut",
    "build_fit_cuts",
    "fit_coefficients",
    "curvature_width",
    "beamwidth_parabola",
    "beamwidth_oracle",
    "MetricCurves",
    "evaluate_filter_bank",
    "evaluate_params",
]

# level drop defining the optimized beamwidth, and the half-amplitude drop
# used by the crossing-search reference
DELTA_L_DB = 6.0
ORACLE_DELTA_L_DB = 20.0 * math.log10(2.0)

GAMMA_DIAGONAL_REG = 1e-10
PATTERN_POWER_FLOOR = 1e-30
MASK_SUPPORT_SIGMAS = 3.0

SCHEDULE_K = 0.8
SCHEDULE_SIGMA_MIN = math.radians(4.0)
SCHEDULE_SIGMA_MAX = math.radians(30.0)


class NumericalError(RuntimeError):
    """A metric denominator lost positivity or a value left its domain."""


def gamma_matrix(geometry: ArrayGeometry, frequency: float) -> np.ndarray:
    """Diffuse-field coherence sinc(2 pi f l_ij / c), unit diagonal."""
    if frequency <= 0.0:
        raise ValueError("frequency must be positive")
    x = 2.0 * math.pi * frequency * geometry.distances / geometry.sound_speed
    return np.sinc(x / math.pi)  # numpy sinc is sin(pi t)/(pi t)


def directivity_factor(h: np.ndarray, d_doa: np.ndarray, gamma: np.ndarray) -> float:
    """|h^H d|^2 / (h^H Gamma h), with the denominator floored away from zero.

    The floor is GAMMA_DIAGONAL_REG times the filter power, which guards
    against a numerically indefinite coherence matrix without biasing the
    well-conditioned case (a plain diagonal offset would shift the
    single-microphone identity DF = 1 by the offset itself).
    """
    h = np.asarray(h)
    num = abs(np.vdot(h, d_doa)) ** 2
    power = float(np.real(np.vdot(h, h)))
    denom = float(np.real(np.vdot(h, gamma @ h)))
    if denom <= 0.0:
        raise NumericalError(
            f"diffuse-noise power h^H Gamma h = {denom} is not positive; "
            "the coherence matrix lost positive semidefiniteness"
        )
    return num / max(denom, GAMMA_DIAGONAL_REG * power)


def white_noise_gain(h: np.ndarray, d_doa: np.ndarray) -> float:
    """|h^H d|^2 / (h^H h)."""
    h = np.asarray(h)
    power = float(np.real(np.vdot(h, h)))
    if power == 0.0:
        raise ValueError("white noise gain is undefined for an all-zero filter")
    return abs(np.vdot(h, d_doa)) ** 2 / power


def sigma_schedule(
    frequency: float,
    diameter: float,
    sound_speed: float,
    k: float = SCHEDULE_K,
    sigma_min: float = SCHEDULE_SIGMA_MIN,
    sigma_max: float = SCHEDULE_SIGMA_MAX,
) -> tuple[float, float]:
    """Frequency-dependent fit-mask width, narrower at higher frequencies.

    Returns (sigma_theta, sigma_phi) in radians, clamped to
    [sigma_min, sigma_max].  A zero-aperture array pins the width to
    sigma_max.
    """
    if frequency <= 0.0:
        raise ValueError("frequency must be positive")
    if diameter <= 0.0:
        sigma = sigma_max
    else:
        sigma = min(max(k * sound_speed / (frequency * diameter), sigma_min), sigma_max)
    return sigma, sigma


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
    weights: np.ndarray
    doa_index: int
    sigma: float


def _mask_weights(x: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(-0.5 * (x / sigma) ** 4)


def build_fit_cuts(
    geometry: ArrayGeometry,
    doa: Direction,
    frequency: float,
    grid_resolution: float,
    elevation_range: tuple[float, float] = (0.0, math.pi / 2.0),
    support_sigmas: float = MASK_SUPPORT_SIGMAS,
    **schedule_kwargs,
) -> tuple[FitCut, FitCut]:
    """Elevation and azimuth cuts snapped to the DoA, trimmed to the mask support."""
    sigma_theta, sigma_phi = sigma_schedule(
        frequency, geometry.diameter(), geometry.sound_speed, **schedule_kwargs
    )

    lo, hi = elevation_range
    support = support_sigmas * sigma_theta
    thetas = snapped_range(
        max(lo, doa.elevation - support), min(hi, doa.elevation + support),
        doa.elevation, grid_resolution,
    )
    x_theta = thetas - doa.elevation
    theta_cut = FitCut(
        x=x_theta,
        elevations=thetas,
        azimuths=np.full_like(thetas, doa.azimuth),
        weights=_mask_weights(x_theta, sigma_theta),
        doa_index=int(np.argmin(np.abs(x_theta))),
        sigma=sigma_theta,
    )

    support = support_sigmas * sigma_phi
    steps = int(math.floor(support / grid_resolution + 1e-9))
    half_circle = int(math.ceil(math.pi / grid_resolution - 1e-9))
    kmin = -min(steps, half_circle - 1)
    kmax = min(steps, half_circle)
    x_phi = np.arange(kmin, kmax + 1) * grid_resolution
    phi_cut = FitCut(
        x=x_phi,
        elevations=np.full_like(x_phi, doa.elevation),
        azimuths=doa.azimuth + x_phi,
        weights=_mask_weights(x_phi, sigma_phi),
        doa_index=int(-kmin),
        sigma=sigma_phi,
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


def curvature_width(a, delta_l: float = DELTA_L_DB):
    """Mainlobe width 2 sqrt(delta_l / -a) of fitted curvatures ``a``.

    Returns (width, d width / d a, concave), elementwise.  A non-concave
    fit (a >= -1e-12) gets the sentinel width pi with a zero derivative.
    """
    a = np.asarray(a, dtype=float)
    concave = a < -1e-12
    neg_a = np.where(concave, -a, 1.0)
    width = np.where(concave, 2.0 * np.sqrt(delta_l / neg_a), math.pi)
    slope = np.where(concave, width / (2.0 * neg_a), 0.0)
    return width, slope, concave


def beamwidth_parabola(x, cut_db, doa_index: int, sigma_window: float, delta_l: float = DELTA_L_DB):
    """Mainlobe width from a mask-weighted quadratic fit to a dB cut.

    Fits cut_db[i] ~ a x_i^2 + b (see :func:`fit_coefficients`) and
    returns (2 * sqrt(delta_l / |a|), True).  A non-concave fit (a >= 0)
    returns the sentinel (pi, False).
    """
    if delta_l <= 0.0:
        raise ValueError("delta_l must be positive")
    a = fit_coefficients(x, doa_index, sigma_window) @ np.asarray(cut_db, dtype=float)
    width, _, concave = curvature_width(a, delta_l)
    return float(width), bool(concave)


def beamwidth_oracle(x, cut_db, doa_index: int, delta_l: float = ORACLE_DELTA_L_DB):
    """Level-crossing beamwidth reference (not differentiable).

    Walks outward from the DoA sample to the first crossing of -delta_l
    dB on each side, interpolating linearly between samples.  A side with
    no crossing contributes the distance to the cut edge, and the
    returned flag is False.
    """
    x = np.asarray(x, dtype=float)
    b = np.asarray(cut_db, dtype=float)
    n = len(x)
    if not 0 <= doa_index < n:
        raise ValueError(f"doa_index {doa_index} outside the cut of length {n}")
    level = -abs(delta_l)
    rel = b - b[doa_index]

    def half_width(step: int) -> tuple[float, bool]:
        i = doa_index
        while 0 <= i + step < n:
            j = i + step
            if rel[j] <= level:
                t = (level - rel[i]) / (rel[j] - rel[i])
                return abs((x[i] + t * (x[j] - x[i])) - x[doa_index]), True
            i = j
        return abs(x[i] - x[doa_index]), False

    right, right_ok = half_width(+1)
    left, left_ok = half_width(-1)
    return left + right, left_ok and right_ok


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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["frequency_hz", "df_db", "wng_db", "theta_deg", "phi_deg"])
            for b, f in enumerate(self.frequencies):
                writer.writerow(
                    [
                        f"{f:g}",
                        f"{10.0 * math.log10(self.df[b]):.6f}",
                        f"{10.0 * math.log10(self.wng[b]):.6f}",
                        f"{math.degrees(self.theta[b]):.6f}",
                        f"{math.degrees(self.phi[b]):.6f}",
                    ]
                )


def _cut_db(h: np.ndarray, geometry: ArrayGeometry, frequency: float, cut: FitCut) -> np.ndarray:
    values = beampattern(h, steering_matrix(geometry, frequency, cut.elevations, cut.azimuths))
    power = np.abs(values) ** 2 + PATTERN_POWER_FLOOR
    return 10.0 * np.log10(power)


def evaluate_filter_bank(
    geometry: ArrayGeometry,
    doa: Direction,
    frequencies,
    filter_fn: Callable[[float], np.ndarray],
    grid_resolution: float = math.radians(1.0),
    delta_l: float = DELTA_L_DB,
) -> MetricCurves:
    """Metric curves for any per-frequency filter factory.

    Beamwidths come from the parabola estimator on the standard fit cuts
    and are clamped to (0, pi] for reporting.
    """
    freqs = tuple(float(f) for f in frequencies)
    df, wng, theta, phi = [], [], [], []
    for f in freqs:
        h = filter_fn(f)
        d = steering_vector(geometry, f, doa)
        df.append(directivity_factor(h, d, gamma_matrix(geometry, f)))
        wng.append(white_noise_gain(h, d))
        theta_cut, phi_cut = build_fit_cuts(geometry, doa, f, grid_resolution)
        width, _ = beamwidth_parabola(
            theta_cut.x, _cut_db(h, geometry, f, theta_cut), theta_cut.doa_index,
            theta_cut.sigma, delta_l,
        )
        theta.append(min(width, math.pi))
        width, _ = beamwidth_parabola(
            phi_cut.x, _cut_db(h, geometry, f, phi_cut), phi_cut.doa_index,
            phi_cut.sigma, delta_l,
        )
        phi.append(min(width, math.pi))
    return MetricCurves(freqs, np.array(df), np.array(wng), np.array(theta), np.array(phi))


def evaluate_params(
    geometry: ArrayGeometry,
    doa: Direction,
    params: DesignParams,
    grid_resolution: float = math.radians(1.0),
    delta_l: float = DELTA_L_DB,
) -> MetricCurves:
    """Metric curves of a designed parameter set (one filter per band)."""
    if params.ring_count != geometry.ring_count:
        raise ValueError(
            f"parameters cover {params.ring_count} rings but the array has "
            f"{geometry.ring_count}"
        )
    lookup = {f: b for b, f in enumerate(params.frequencies)}

    def filter_fn(f: float) -> np.ndarray:
        b = lookup[f]
        return assemble_filter(
            geometry, f, doa, params.ring_weights[b], params.window_widths[b]
        )

    return evaluate_filter_bank(
        geometry, doa, params.frequencies, filter_fn, grid_resolution, delta_l
    )
