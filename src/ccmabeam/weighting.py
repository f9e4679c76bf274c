"""Ring weights, Gaussian windows, per-mic gains (designed or delay-and-sum), filters.

The design variables are one weight and one window width per ring and
frequency band.  Weights live on the probability simplex and widths are
strictly positive; both are reached from unconstrained optimizer
variables through smooth maps (normalized exponentials and softplus) so
the whole pipeline stays differentiable.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import ArrayGeometry
from .wavefield import Direction

SIGMA_FLOOR = 1e-3


def mic_layout(geometry: ArrayGeometry, doa: Direction) -> tuple[np.ndarray, np.ndarray]:
    """(ring index, normalized angular distance from the arrival direction) of
    every mic, in mic order.

    The raw distance is the chord between the mic's in-plane unit vector and
    the DoA unit vector.  Mics whose azimuth differs from the DoA azimuth
    by more than pi/2 are scored against the antipodal DoA vector and
    reflected (2*sqrt(2) minus that chord), which continues the front
    local behavior monotonically so rear microphones are always penalized.
    The result is range-normalized to [0, 1] per ring; a ring with no
    spread (a single mic, or a zenith arrival) yields all zeros.
    """
    angles = geometry.mic_angles
    v_doa = doa.unit_vector()
    mics = np.column_stack((np.cos(angles), np.sin(angles), np.zeros(geometry.total_mics)))
    front = np.linalg.norm(mics - v_doa[None, :], axis=1)
    rear = 2.0 * math.sqrt(2.0) - np.linalg.norm(mics + v_doa[None, :], axis=1)
    sep = np.abs((angles - doa.azimuth + math.pi) % (2.0 * math.pi) - math.pi)
    raw = np.where(sep <= math.pi / 2.0, front, rear)
    starts = [s.start for s in geometry.ring_slices]
    ring_of_mic = np.repeat(range(geometry.ring_count), [ring.mic_count for ring in geometry.rings])
    low = np.minimum.reduceat(raw, starts)[ring_of_mic]
    spread = np.maximum.reduceat(raw, starts)[ring_of_mic] - low
    return ring_of_mic, np.divide(raw - low, spread, out=np.zeros_like(raw), where=spread >= 1e-15)


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


def params_gains(geometry: ArrayGeometry, doa: Direction, params: DesignParams) -> np.ndarray:
    """Real per-mic gains (bands, mics) of a designed parameter set."""
    if params.ring_count != geometry.ring_count:
        raise ValueError(f"params: the parameters cover {params.ring_count} rings "
                         f"but the array has {geometry.ring_count}")
    _, gains = ring_gains(mic_layout(geometry, doa), params.ring_weights, params.window_widths)
    return gains


def das_gains(geometry: ArrayGeometry, frequencies) -> np.ndarray:
    """Real per-mic gains (bands, mics) of delay-and-sum: 1/M at every mic."""
    return np.full((len(frequencies), geometry.total_mics), 1.0 / geometry.total_mics)


def softplus(v):
    """Numerically stable ln(1 + e^v), elementwise."""
    v = np.asarray(v, dtype=float)
    return np.maximum(v, 0.0) + np.log(1.0 + np.exp(-np.abs(v)))


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


def _band_array(name: str, values, bands: int, rings: int | None = None) -> np.ndarray:
    """``values``, one flat list of numbers per band (``rings`` long, where
    given), as a float (bands, rings) array; any other shape, or a bool, is a
    ValueError naming the field and, where there is one, the band."""
    try:
        rows = list(values)
    except TypeError:  # a scalar
        rows = []
    if len(rows) != bands:
        raise ValueError(f"{name}: expected one list of ring values for each of the {bands} bands")
    for b, raw in enumerate(rows):
        try:
            row = np.asarray(raw)
        except ValueError:  # ragged within the band
            row = np.empty((0, 0))
        if row.ndim != 1:
            raise ValueError(
                f"band {b}: {name} must be a flat list of one number per ring, got {raw!r}"
            )
        # numpy reads a bool beside numbers as a number
        if row.dtype.kind not in "iuf" or any(np.asarray(v).dtype.kind == "b" for v in raw):
            raise ValueError(f"band {b}: {name} must hold numbers, got {raw!r}")
        rings = len(row) if rings is None else rings
        if len(row) != rings:
            raise ValueError(
                f"band {b}: {name} holds {len(row)} values, not one per ring ({rings})"
            )
    return np.array(rows, dtype=float)


@dataclass
class DesignParams:
    """Ring weights and window widths, plus their unconstrained forms, as
    float (bands, rings) arrays; any array-like of that shape is accepted."""

    frequencies: tuple[float, ...]
    ring_weights: np.ndarray
    window_widths: np.ndarray
    unconstrained_weights: np.ndarray | None = None
    unconstrained_widths: np.ndarray | None = None

    def __post_init__(self):
        bands = len(self.frequencies)
        if bands == 0:
            raise ValueError("bands: a parameter set needs at least one band")
        for b, f in enumerate(self.frequencies):
            number = isinstance(f, numbers.Real) and not isinstance(f, bool)
            # the float bound also rejects NaN, and integers float() cannot hold
            if not (number and abs(f) <= sys.float_info.max):
                raise ValueError(f"band {b}: frequency_hz must be a finite number, got {f!r}")
        self.frequencies = tuple(float(f) for f in self.frequencies)
        if len(set(self.frequencies)) != bands:
            # bands are looked up by frequency: a repeat would report another band
            raise ValueError(
                f"frequencies: each band needs its own frequency, got {self.frequencies}"
            )
        fields = ["ring_weights", "window_widths"]
        if self.unconstrained_weights is not None or self.unconstrained_widths is not None:
            fields += ["unconstrained_weights", "unconstrained_widths"]  # both, or neither
        rings = None  # as many as ring_weights holds
        for name in fields:
            values = _band_array(name, getattr(self, name), bands, rings)
            rings = values.shape[1]
            finite = np.isfinite(values).all(axis=1)
            if not finite.all():
                b = np.argmin(finite)
                raise ValueError(f"band {b}: {name} must be finite, got {values[b].tolist()}")
            setattr(self, name, values)
        w, s = self.ring_weights, self.window_widths
        # the first failing band of each check is reported
        outside = ((w < 0.0) | (w > 1.0)).any(axis=1)
        if outside.any():
            b = np.argmax(outside)
            raise ValueError(f"band {b}: ring_weights must lie in [0, 1], got {w[b].tolist()}")
        sums = w.sum(axis=1)
        off = np.abs(sums - 1.0) > 1e-12
        if off.any():
            b = np.argmax(off)
            raise ValueError(f"band {b}: ring_weights must sum to 1, got {float(sums[b])}")
        non_positive = (s <= 0.0).any(axis=1)
        if non_positive.any():
            b = np.argmax(non_positive)
            raise ValueError(f"band {b}: window_widths must be positive, got {s[b].tolist()}")

    @property
    def ring_count(self) -> int:
        return self.ring_weights.shape[1]

    @classmethod
    def from_unconstrained(cls, frequencies, u_bands, v_bands) -> "DesignParams":
        """The parameters :func:`constrain_band` maps (bands, rings) ``u`` and ``v`` to."""
        return cls(frequencies, *constrain_band(u_bands, v_bands), u_bands, v_bands)

    def select(self, frequencies) -> "DesignParams":
        """Weights and widths of the bands at ``frequencies``, in that order."""
        missing = [f for f in frequencies if f not in self.frequencies]
        if missing:
            raise ValueError(f"params: no saved band for frequencies {missing}")
        index = [self.frequencies.index(f) for f in frequencies]
        return DesignParams(frequencies, self.ring_weights[index], self.window_widths[index])

    def save(self, path: str | Path) -> None:
        bands = []
        for b, f in enumerate(self.frequencies):
            entry = {
                "frequency_hz": f,
                "ring_weights": self.ring_weights[b].tolist(),
                "window_widths": self.window_widths[b].tolist(),
            }
            if self.unconstrained_weights is not None:
                entry["u"] = self.unconstrained_weights[b].tolist()
                entry["v"] = self.unconstrained_widths[b].tolist()
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
        bands = payload.get("bands") if isinstance(payload, dict) else None
        if not isinstance(bands, list) or not all(isinstance(band, dict) for band in bands):
            raise ValueError(f"malformed parameter file {path}: bands: expected a list of objects")
        keys = ["frequency_hz", "ring_weights", "window_widths"]
        if any("u" in band or "v" in band for band in bands):
            keys += ["u", "v"]  # in every band, or in none
        for b, band in enumerate(bands):
            for key in keys:
                if key not in band:
                    raise ValueError(f"malformed parameter file {path}: band {b}: {key} is missing")
        return cls(*([band[key] for band in bands] for key in keys))


def normalized_filter(gains: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The filter gains * d, scaled so its response toward the steering
    phases ``d`` is exactly 1."""
    h = gains * d
    return h / np.vdot(h, d)  # sum(gains), real for unit-modulus steering
