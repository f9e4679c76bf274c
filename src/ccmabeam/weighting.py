"""Ring weights, intra-ring Gaussian windows, and filter assembly.

The design variables are one weight and one window width per ring and
frequency band.  Weights live on the probability simplex and widths are
strictly positive; both are reached from unconstrained optimizer
variables through smooth maps (normalized exponentials and softplus) so
the whole pipeline stays differentiable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import ArrayGeometry
from .wavefield import Direction, steering_vector

__all__ = [
    "SIGMA_FLOOR",
    "DegenerateFilterError",
    "DesignParams",
    "ring_distances",
    "mic_layout",
    "gaussian_window",
    "ring_gains",
    "normalized_filter",
    "assemble_filter",
    "constrain_band",
    "softplus",
    "softplus_inverse",
]

SIGMA_FLOOR = 1e-3


class DegenerateFilterError(ValueError):
    """All combined weights vanished; the filter cannot be normalized."""


def ring_distances(geometry: ArrayGeometry, ring: int, doa: Direction) -> np.ndarray:
    """Normalized angular distances of one ring's mics from the arrival direction.

    The raw value is the chord between the mic's in-plane unit vector and
    the DoA unit vector.  Mics whose azimuth differs from the DoA azimuth
    by more than pi/2 are scored against the antipodal DoA vector and
    reflected (2*sqrt(2) minus that chord), which continues the front
    local behavior monotonically so rear microphones are always penalized.
    The result is range-normalized to [0, 1] per ring; a single-mic ring
    or a ring with no spread (zenith arrival) yields all zeros.
    """
    r = geometry.rings[ring]
    if r.mic_count == 1:
        return np.zeros(1)
    v_doa = doa.unit_vector()
    mics = np.column_stack(
        (np.cos(r.angles), np.sin(r.angles), np.zeros(r.mic_count))
    )
    front = np.linalg.norm(mics - v_doa[None, :], axis=1)
    rear = 2.0 * math.sqrt(2.0) - np.linalg.norm(mics + v_doa[None, :], axis=1)
    sep = np.abs((r.angles - doa.azimuth + math.pi) % (2.0 * math.pi) - math.pi)
    raw = np.where(sep <= math.pi / 2.0, front, rear)
    spread = raw.max() - raw.min()
    if spread < 1e-15:
        return np.zeros(r.mic_count)
    return (raw - raw.min()) / spread


def mic_layout(geometry: ArrayGeometry, doa: Direction) -> tuple[np.ndarray, np.ndarray]:
    """(ring index, :func:`ring_distances` value) of every mic, in mic order."""
    rings = range(geometry.ring_count)
    ring_of_mic = np.repeat(rings, [ring.mic_count for ring in geometry.rings])
    return ring_of_mic, np.concatenate([ring_distances(geometry, r, doa) for r in rings])


def gaussian_window(delta, sigma):
    """exp(-delta^2 / (2 sigma^2)) elementwise, for distances and widths sigma > 0."""
    if not np.all(np.asarray(sigma) > 0.0):
        raise ValueError("window width sigma must be positive")
    # for a tiny sigma (delta / sigma)^2 overflows to inf, and exp(-inf) = 0
    # is the exact limit; squaring sigma instead would underflow to 0 / 0
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * np.square(np.asarray(delta, dtype=float) / sigma))


def ring_gains(layout: tuple[np.ndarray, np.ndarray], ring_weights, window_widths):
    """(taps, gains) of every mic: tap = gaussian_window(distance, ring width), gain = ring
    weight * tap.  ``layout`` is :func:`mic_layout`; weights and widths run along the last
    axis, for one band (rings,) or a stack (bands, rings)."""
    ring_of_mic, delta = layout
    taps = gaussian_window(delta, window_widths[..., ring_of_mic])
    return taps, ring_weights[..., ring_of_mic] * taps


def softplus(v):
    """Numerically stable ln(1 + e^v), elementwise."""
    v = np.asarray(v, dtype=float)
    return np.maximum(v, 0.0) + np.log(1.0 + np.exp(-np.abs(v)))


def softplus_inverse(y: float) -> float:
    """Inverse of softplus for y > 0."""
    if y <= 0.0:
        raise ValueError("softplus_inverse requires a positive argument")
    if y > 30.0:
        return y  # e^-y below double resolution
    return math.log(math.expm1(y))


def constrain_band(u, v):
    """Map unconstrained (u, v) to simplex weights and positive widths.

    Works along the last axis, so ``u`` and ``v`` may hold one band
    (rings,) or a stack of bands (bands, rings).  Weights are normalized
    exponentials of ``u`` (stabilized with the maximum, which leaves the
    normalized result unchanged); widths are softplus of ``v`` plus
    SIGMA_FLOOR.
    """
    u = np.asarray(u, dtype=float)
    e = np.exp(u - u.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    widths = softplus(v) + SIGMA_FLOOR
    return weights, widths


@dataclass
class DesignParams:
    """Per-band ring weights and window widths, plus their unconstrained forms."""

    frequencies: tuple[float, ...]
    ring_weights: tuple[np.ndarray, ...]
    window_widths: tuple[np.ndarray, ...]
    unconstrained_weights: tuple[np.ndarray, ...] | None = None
    unconstrained_widths: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if not (
            len(self.frequencies) == len(self.ring_weights) == len(self.window_widths)
        ):
            raise ValueError("band counts of frequencies, weights, and widths differ")
        if len(set(self.frequencies)) != len(self.frequencies):
            # bands are looked up by frequency: a repeat would report another band
            raise ValueError(
                f"frequencies: each band needs its own frequency, got {self.frequencies}"
            )
        rings = {len(w) for w in self.ring_weights} | {len(s) for s in self.window_widths}
        if len(rings) != 1:
            raise ValueError("every band must carry one weight and one width per ring")
        for b, (w, s) in enumerate(zip(self.ring_weights, self.window_widths)):
            w = np.asarray(w, dtype=float)
            s = np.asarray(s, dtype=float)
            for name, values in (("ring_weights", w), ("window_widths", s)):
                if not np.all(np.isfinite(values)):
                    raise ValueError(f"band {b}: {name} must be finite, got {values.tolist()}")
            if np.any(w < 0.0) or np.any(w > 1.0):
                raise ValueError(f"band {b}: weights must lie in [0, 1]")
            if abs(w.sum() - 1.0) > 1e-12:
                raise ValueError(f"band {b}: weights must sum to 1, got {w.sum()!r}")
            if np.any(s <= 0.0):
                raise ValueError(f"band {b}: window widths must be positive")

    @property
    def band_count(self) -> int:
        return len(self.frequencies)

    @property
    def ring_count(self) -> int:
        return len(self.ring_weights[0])

    @classmethod
    def from_unconstrained(cls, frequencies, u_bands, v_bands) -> "DesignParams":
        u = np.asarray(u_bands, dtype=float)
        v = np.asarray(v_bands, dtype=float)
        weights, widths = constrain_band(u, v)
        return cls(
            frequencies=tuple(float(f) for f in frequencies),
            ring_weights=tuple(weights),
            window_widths=tuple(widths),
            unconstrained_weights=tuple(u),
            unconstrained_widths=tuple(v),
        )

    def select(self, frequencies) -> "DesignParams":
        """Weights and widths of the bands at ``frequencies``, in that order."""
        missing = [f for f in frequencies if f not in self.frequencies]
        if missing:
            raise ValueError(f"params: no saved band for frequencies {missing}")
        index = [self.frequencies.index(f) for f in frequencies]
        return DesignParams(
            frequencies=tuple(frequencies),
            ring_weights=tuple(self.ring_weights[b] for b in index),
            window_widths=tuple(self.window_widths[b] for b in index),
        )

    def save(self, path: str | Path) -> None:
        bands = []
        for b in range(self.band_count):
            entry = {
                "frequency_hz": self.frequencies[b],
                "ring_weights": [float(x) for x in self.ring_weights[b]],
                "window_widths": [float(x) for x in self.window_widths[b]],
            }
            if self.unconstrained_weights is not None:
                entry["u"] = [float(x) for x in self.unconstrained_weights[b]]
                entry["v"] = [float(x) for x in self.unconstrained_widths[b]]
            bands.append(entry)
        Path(path).write_text(json.dumps({"bands": bands}, indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "DesignParams":
        try:
            payload = json.loads(Path(path).read_text())
        except OSError as err:
            raise ValueError(f"parameter file {path}: {err.strerror}") from None
        except ValueError as err:  # not JSON, or not text
            raise ValueError(f"parameter file {path} is not valid JSON: {err}") from None
        try:
            bands = payload["bands"]
            freqs = tuple(float(b["frequency_hz"]) for b in bands)
            weights = tuple(np.asarray(b["ring_weights"], dtype=float) for b in bands)
            widths = tuple(np.asarray(b["window_widths"], dtype=float) for b in bands)
            u = v = None
            if bands and "u" in bands[0]:
                u = tuple(np.asarray(b["u"], dtype=float) for b in bands)
                v = tuple(np.asarray(b["v"], dtype=float) for b in bands)
        except (KeyError, TypeError) as err:
            raise ValueError(f"malformed parameter file {path}: {err}") from None
        return cls(freqs, weights, widths, u, v)


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


def normalized_filter(gains: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The filter gains * d, scaled so its response toward the steering
    phases ``d`` is exactly 1."""
    h = gains * d
    response = np.vdot(h, d)  # equals sum(gains), real for unit-modulus steering
    if abs(response) < 1e-300:
        raise DegenerateFilterError(
            "all ring weight x window products vanished; cannot normalize filter"
        )
    return h / response
