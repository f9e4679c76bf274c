"""Reference oracles the tests compare the package against.

Every command scores filters through ``metrics.BandTables``: one batched
pass from real per-mic gains to DF, WNG and both parabola-fit widths.
These functions take the long way, one complex filter and one band at a
time: the filter itself (``assemble_filter``, ``das_filter``), its
response over explicit steering vectors (``steering_matrix``,
``beampattern``), its DF and WNG as quadratic forms, the parabola width
of a dB cut and the -6.02 dB crossing width, and the ``csv``-module
writer of a beampattern grid (``csv_reference``).  The ``evaluate_*`` wrappers
and ``loss_l1`` are the one-call forms of the production path that the
acceptance criteria are written against.  No package code imports this
module; the tests find it on ``sys.path`` because ``tests/`` holds no
``__init__.py``.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from ccmabeam.geometry import ArrayGeometry
from ccmabeam.loss import LossConfig, total_loss
from ccmabeam.metrics import (
    GAMMA_DIAGONAL_REG,
    GRID_RESOLUTION,
    BandTables,
    MetricCurves,
    NumericalError,
    curvature_width,
    fit_coefficients,
)
from ccmabeam.wavefield import Direction, _check_frequency, steering_vector
from ccmabeam.weighting import (
    DesignParams, das_gains, mic_layout, normalized_filter, params_gains, ring_gains,
)

# the half-amplitude drop of the crossing-search width
ORACLE_DELTA_L_DB = 20.0 * math.log10(2.0)


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


def csv_reference(path, elevations, azimuths, grid_db) -> None:
    """The csv.writer export that export_beampattern_csv must match byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["elevation_deg\\azimuth_deg"] + [f"{math.degrees(a):.3f}" for a in azimuths])
        for i, el in enumerate(elevations):
            writer.writerow([f"{math.degrees(el):.3f}"] + [f"{v:.6f}" for v in grid_db[i]])


def beampattern(h: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """Array response h^H d per direction; ``steering`` is (n, mics) or (mics,)."""
    h = np.asarray(h)
    steering = np.asarray(steering)
    if steering.shape[-1] != h.shape[0]:
        raise ValueError(
            f"filter length {h.shape[0]} does not match steering width {steering.shape[-1]}"
        )
    return steering @ np.conj(h)


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


def beamwidth_parabola(x, cut_db, doa_index: int, sigma_window: float):
    """Mainlobe width from a mask-weighted quadratic fit to a dB cut.

    Fits cut_db[i] ~ a x_i^2 + b (see :func:`fit_coefficients`) and
    returns (2 * sqrt(DELTA_L_DB / |a|), True).  A non-concave fit
    (a >= 0) returns the sentinel (pi, False).
    """
    a = fit_coefficients(x, doa_index, sigma_window) @ np.asarray(cut_db, dtype=float)
    width, _, concave = curvature_width(a)
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


def assemble_filter(
    geometry: ArrayGeometry,
    frequency: float,
    doa: Direction,
    ring_weights,
    window_widths,
) -> np.ndarray:
    """Combine ring weights, window taps, and steering phases into the filter.

    Per microphone the coefficient is w_r * s_rm * d_rm(DoA); the result
    is scaled so the response toward the arrival direction is exactly 1.
    """
    w = np.asarray(ring_weights, dtype=float)
    s = np.asarray(window_widths, dtype=float)
    if len(w) != geometry.ring_count or len(s) != geometry.ring_count:
        raise ValueError(
            f"expected {geometry.ring_count} ring weights and widths, "
            f"got {len(w)} and {len(s)}"
        )
    _, gains = ring_gains(mic_layout(geometry, doa), w, s)
    return normalized_filter(gains, steering_vector(geometry, frequency, doa))


def das_filter(geometry: ArrayGeometry, frequency: float, doa: Direction) -> np.ndarray:
    """Delay-and-sum filter d(DoA) / M, distortionless by construction."""
    return steering_vector(geometry, frequency, doa) / geometry.total_mics


def evaluate_params(
    geometry: ArrayGeometry,
    doa: Direction,
    params: DesignParams,
    grid_resolution: float = GRID_RESOLUTION,
) -> MetricCurves:
    """Metric curves of a designed parameter set, scored by :class:`BandTables`."""
    gains = params_gains(geometry, doa, params)
    return BandTables(geometry, doa, params.frequencies, grid_resolution).curves(gains)


def evaluate_baseline(
    geometry: ArrayGeometry,
    doa: Direction,
    frequencies,
    grid_resolution: float = GRID_RESOLUTION,
) -> MetricCurves:
    """Metric curves of the delay-and-sum baseline, scored by :class:`BandTables`."""
    tables = BandTables(geometry, doa, frequencies, grid_resolution)
    return tables.curves(das_gains(geometry, tables.frequencies))


def loss_l1(theta, phi, df, cfg: LossConfig) -> float:
    """One band's L1 value: its overshooting width (the sum when both
    overshoot, so each keeps a descent direction), otherwise -log10 DF."""
    return total_loss([theta], [phi], [df], [1.0], cfg)[0]
