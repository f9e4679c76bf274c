"""Concentric-ring microphone array construction.

Rings are populated with the minimum microphone count that keeps the
chord between adjacent elements at or above half of the shortest
operating wavelength, so spatial aliasing is avoided up to the Nyquist
frequency of the configured sample rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayConfig",
    "Ring",
    "ArrayGeometry",
    "mics_per_ring",
    "build_geometry",
]


@dataclass(frozen=True)
class ArrayConfig:
    """Ring radii in meters plus the sampling setup.

    ``ring_radii`` must be strictly increasing and non-negative; a single
    leading zero radius denotes a center microphone.
    """

    ring_radii: tuple[float, ...]
    sample_rate: float
    sound_speed: float = 343.0

    def __post_init__(self):
        radii = tuple(float(r) for r in self.ring_radii)
        object.__setattr__(self, "ring_radii", radii)
        object.__setattr__(self, "sample_rate", float(self.sample_rate))
        object.__setattr__(self, "sound_speed", float(self.sound_speed))
        if not radii:
            raise ValueError("ring_radii must list at least one ring")
        if any(not math.isfinite(r) or r < 0.0 for r in radii):
            raise ValueError("ring radii must be finite and non-negative")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("ring radii must be strictly increasing")
        if self.sample_rate <= 0.0 or not math.isfinite(self.sample_rate):
            raise ValueError("sample_rate must be positive")
        if self.sound_speed <= 0.0 or not math.isfinite(self.sound_speed):
            raise ValueError("sound_speed must be positive")

    @property
    def min_wavelength(self) -> float:
        """Wavelength at the Nyquist frequency, c / (f_s / 2)."""
        return self.sound_speed / (self.sample_rate / 2.0)


@dataclass(frozen=True)
class Ring:
    radius: float
    mic_count: int
    angles: np.ndarray  # radians, length mic_count


@dataclass(frozen=True)
class ArrayGeometry:
    """Immutable microphone layout with precomputed pairwise distances."""

    config: ArrayConfig
    rings: tuple[Ring, ...]
    positions: np.ndarray  # (total_mics, 3), planar with z = 0
    distances: np.ndarray  # (total_mics, total_mics)
    total_mics: int
    mic_radii: np.ndarray  # (total_mics,), flat per-mic ring radius
    mic_angles: np.ndarray  # (total_mics,), flat per-mic angular position
    ring_slices: tuple[slice, ...]

    @property
    def sound_speed(self) -> float:
        return self.config.sound_speed

    @property
    def sample_rate(self) -> float:
        return self.config.sample_rate

    @property
    def ring_count(self) -> int:
        return len(self.rings)

    def diameter(self) -> float:
        """Aperture diameter, twice the outermost ring radius."""
        return 2.0 * self.rings[-1].radius


def mics_per_ring(radius: float, min_wavelength: float) -> int:
    """Minimum microphone count keeping adjacent chords >= min_wavelength / 2.

    A zero radius is the center-microphone convention and returns 1.
    Raises ValueError when the ring is too small to hold two non-aliasing
    microphones.
    """
    if radius < 0.0:
        raise ValueError("radius must be non-negative")
    if min_wavelength <= 0.0:
        raise ValueError("min_wavelength must be positive")
    if radius == 0.0:
        return 1
    ratio = min_wavelength / (4.0 * radius)
    if ratio > 1.0:
        raise ValueError(
            f"ring radius {radius} m cannot hold two microphones a half-wavelength "
            f"({min_wavelength / 2.0} m) apart"
        )
    return int(math.floor(math.pi / math.asin(ratio)))


def build_geometry(config: ArrayConfig) -> ArrayGeometry:
    """Populate every ring with uniformly spaced microphones starting at angle 0."""
    lam = config.min_wavelength
    rings = []
    for radius in config.ring_radii:
        count = mics_per_ring(radius, lam)
        angles = 2.0 * math.pi * np.arange(count) / count
        rings.append(Ring(radius, count, angles))
    return _assemble(config, tuple(rings))


def _assemble(config: ArrayConfig, rings: tuple[Ring, ...]) -> ArrayGeometry:
    mic_radii = np.concatenate([np.full(r.mic_count, r.radius) for r in rings])
    mic_angles = np.concatenate([r.angles for r in rings])
    total = len(mic_radii)
    positions = np.column_stack(
        (mic_radii * np.cos(mic_angles), mic_radii * np.sin(mic_angles), np.zeros(total))
    )
    # the mics lie in the plane z = 0: the z term of |p_i - p_j|^2 is +0
    dx = np.subtract.outer(positions[:, 0], positions[:, 0])
    dy = np.subtract.outer(positions[:, 1], positions[:, 1])
    dx *= dx
    dy *= dy
    dx += dy
    distances = np.sqrt(dx, out=dx)
    slices = []
    start = 0
    for ring in rings:
        slices.append(slice(start, start + ring.mic_count))
        start += ring.mic_count
    for arr in (positions, distances, mic_radii, mic_angles, *(r.angles for r in rings)):
        arr.setflags(write=False)
    return ArrayGeometry(
        config=config,
        rings=rings,
        positions=positions,
        distances=distances,
        total_mics=total,
        mic_radii=mic_radii,
        mic_angles=mic_angles,
        ring_slices=tuple(slices),
    )
