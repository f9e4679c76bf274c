"""Resilient-propagation optimization of the ring-weight design.

The update rule is the sign-based variant without weight backtracking:
a gradient sign flip shrinks the per-coordinate step and skips that
coordinate for one iteration (its stored sign is reset), a repeated sign
grows the step, and parameters always move by the signed step.

The design pipeline evaluates every frequency band at once on stacked
arrays, since the across-band loss terms couple the bands, and returns
the gradient from a reverse pass over the same arrays written out by
hand (reverse-mode differentiation; Griewank & Walther, *Evaluating
Derivatives*, 2008).  The module also holds :func:`gradcheck`, the
central-difference check of that reverse pass, and :func:`seeded_uniform`,
the seeded draw of the start point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .geometry import ArrayGeometry
from .loss import BandLossTerms, LossConfig, total_loss
from .metrics import (
    GRID_RESOLUTION, METRIC_COLUMNS, BandTables, MetricCurves, NumericalError, metric_cells, write_csv,
)
from .wavefield import Direction
from .weighting import DesignParams, SIGMA_FLOOR, constrain_band, mic_layout, params_gains, ring_gains

__all__ = [
    "RPropState",
    "rprop_step",
    "RunRecord",
    "OptimizeResult",
    "DesignLoss",
    "DesignPipeline",
    "GradcheckResult",
    "gradcheck",
    "seeded_uniform",
    "optimize",
]

INITIAL_SIGMA = 0.5
# the width parameter v with softplus(v) + SIGMA_FLOOR = INITIAL_SIGMA
INITIAL_V = math.log(math.expm1(INITIAL_SIGMA - SIGMA_FLOOR))
INIT_NOISE = 1e-3

NO_IMPROVE_LIMIT = 200
IMPROVE_TOL = 1e-6

# Rprop step factors and bounds (Riedmiller & Braun, 1993; Igel & Huesken, 2000)
RPROP_INITIAL_STEP = 0.1
RPROP_GROW = 1.2
RPROP_SHRINK = 0.5
RPROP_STEP_MIN = 1e-6
RPROP_STEP_MAX = 50.0

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# numpy's SeedSequence hash constants and the PCG64 multiplier (O'Neill, 2014)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seeded_uniform(seed: int, low: float, high: float, n: int) -> np.ndarray:
    """``numpy.random.default_rng(seed).uniform(low, high, n)``, bit for bit.

    ``seed`` is a non-negative integer, a Python or numpy one of any size;
    a negative seed raises ValueError, and None or a float TypeError.  The
    seed's 32-bit words are mixed into a 4-word pool as numpy's
    SeedSequence does, the pool gives four 64-bit words that seed PCG64,
    and each XSL-RR output word w gives low + (high - low) * (w >> 11) / 2**53.
    Pure Python, so the draw does not depend on the numpy release.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_a = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * hash_a & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = _MIX_MULT_L * x - _MIX_MULT_R * y & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b, state_words = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * hash_b & _MASK32
        state_words.append(value ^ value >> 16)
    # four little-endian 64-bit words: initial state (high, low), then stream (high, low)
    w64 = [state_words[2 * i] | state_words[2 * i + 1] << 32 for i in range(4)]
    inc = (w64[2] << 64 | w64[3]) << 1 & _MASK128 | 1
    state = ((inc + (w64[0] << 64 | w64[1])) * _PCG_MULT + inc) & _MASK128
    span, draws = high - low, []
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _MASK128
        word = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        word = (word >> rot | word << (64 - rot)) & _MASK64
        draws.append(low + span * ((word >> 11) * 2.0**-53))
    return np.array(draws, dtype=float)


@dataclass
class RPropState:
    """Per-coordinate step sizes and the previous gradient (0 marks a reset)."""

    steps: np.ndarray
    prev_grad: np.ndarray

    @classmethod
    def create(cls, n: int) -> "RPropState":
        return cls(steps=np.full(n, RPROP_INITIAL_STEP), prev_grad=np.zeros(n))


def rprop_step(state: RPropState, gradient: np.ndarray, params: np.ndarray) -> np.ndarray:
    """One sign-based update; returns the new parameter vector."""
    g = np.array(gradient, dtype=float)
    if g.shape != state.steps.shape:
        raise ValueError("gradient length does not match the optimizer state")
    if not np.all(np.isfinite(g)):
        bad = np.flatnonzero(~np.isfinite(g))
        raise NumericalError(f"non-finite gradient in coordinates {bad.tolist()[:8]}")
    product = g * state.prev_grad
    grew = product > 0.0
    flipped = product < 0.0
    state.steps[grew] = np.minimum(state.steps[grew] * RPROP_GROW, RPROP_STEP_MAX)
    state.steps[flipped] = np.maximum(state.steps[flipped] * RPROP_SHRINK, RPROP_STEP_MIN)
    g[flipped] = 0.0  # skip flipped coordinates this iteration, reset their sign
    new_params = params - np.sign(g) * state.steps
    state.prev_grad = g
    return new_params


@dataclass
class RunRecord:
    """Loss and metric trace of one optimization run: ``loss`` has shape
    (iterations,), and ``theta``/``phi`` (radians) and ``df``/``wng`` (linear)
    have shape (iterations, bands)."""

    frequencies: tuple[float, ...]
    loss: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    df: np.ndarray
    wng: np.ndarray
    stopping_reason: str

    @property
    def iteration_count(self) -> int:
        return len(self.loss)

    def best_so_far(self) -> np.ndarray:
        return np.minimum.accumulate(self.loss)

    def to_csv(self, path: str | Path) -> None:
        order = (2, 3, 0, 1)  # per band: theta, phi, DF, WNG
        header = ["iteration", "loss"]
        header += [f"{METRIC_COLUMNS[c]}_{f:g}" for f in self.frequencies for c in order]
        rows = []
        for i, loss in enumerate(self.loss):
            rows.append([str(i + 1), f"{loss:.9e}"])
            for b in range(len(self.frequencies)):
                cells = metric_cells(self, (i, b))
                rows[-1] += [cells[c] for c in order]
        write_csv(path, header, rows)


class DesignLoss(float):
    """The design loss of one parameter vector.

    ``gradient()`` runs the reverse pass over the forward arrays that
    produced this value and returns dL/dx in the parameter layout.
    ``pullback`` runs the same pass from any per-band adjoints of the
    band metrics; ``gradient()`` is the pullback of the loss partials.
    """

    __slots__ = ("_backward", "_terms")

    def __new__(cls, value: float, backward: Callable[..., np.ndarray], terms: BandLossTerms):
        loss = super().__new__(cls, value)
        loss._backward = backward
        loss._terms = terms
        return loss

    def gradient(self) -> np.ndarray:
        t = self._terms
        return self.pullback(t.d_theta, t.d_phi, t.d_df, t.d_wng)

    def pullback(self, d_theta, d_phi, d_df, d_wng) -> np.ndarray:
        """d/dx of sum over bands of d_theta*theta + d_phi*phi + d_df*DF + d_wng*WNG."""
        seeds = [np.asarray(d, dtype=float) for d in (d_theta, d_phi, d_df, d_wng)]
        bands = len(self._terms.theta)
        if any(d.shape != (bands,) for d in seeds):
            raise ValueError(f"each metric adjoint must hold {bands} band values")
        return self._backward(*seeds)


class DesignPipeline:
    """Map from unconstrained parameters to the design loss and its gradient.

    Parameters map to real per-mic gains (:func:`ring_gains`); ``tables``,
    the :class:`BandTables` that score every reported filter, map the gains
    of all bands to DF, WNG and widths and the metrics' adjoints back; and
    :func:`total_loss` assembles the loss.
    """

    def __init__(
        self,
        geometry: ArrayGeometry,
        doa: Direction,
        frequencies: Sequence[float],
        loss_config: LossConfig,
        grid_resolution: float = GRID_RESOLUTION,
    ):
        if len(frequencies) == 0:
            raise ValueError("at least one frequency band is required")
        self.frequencies = tuple(float(f) for f in frequencies)
        for i in range(1, len(self.frequencies)):
            if not self.frequencies[i] > self.frequencies[i - 1]:
                raise ValueError(
                    f"frequencies must be strictly increasing: band {i} "
                    f"({self.frequencies[i]:g} Hz) follows {self.frequencies[i - 1]:g} Hz"
                )
        self.geometry = geometry
        self.loss_config = loss_config
        self._ring_starts = np.array([s.start for s in geometry.ring_slices])
        self._layout = mic_layout(geometry, doa)
        self.tables = BandTables(geometry, doa, self.frequencies, grid_resolution)

    @property
    def param_count(self) -> int:
        return 2 * self.geometry.ring_count * len(self.frequencies)

    def initial_params(self, seed: int) -> np.ndarray:
        """Near-uniform start: equal ring weights, sigma about INITIAL_SIGMA,
        plus a seeded +-INIT_NOISE jitter to break ring symmetry.

        ``seed`` is a non-negative integer of any size; the jitter is
        :func:`seeded_uniform`, equal to numpy's ``default_rng(seed)`` draw.
        """
        base = np.zeros((len(self.frequencies), 2, self.geometry.ring_count))
        base[:, 1] = INITIAL_V
        return base.reshape(-1) + seeded_uniform(seed, -INIT_NOISE, INIT_NOISE, self.param_count)

    def _bands_uv(self, x: Sequence[float]) -> np.ndarray:
        """A flat parameter vector as (bands, 2, rings): per band u, then v."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.param_count,):
            raise ValueError(f"expected {self.param_count} parameters, got {x.size}")
        return x.reshape(len(self.frequencies), 2, -1)

    def params_from_vector(self, x: Sequence[float]) -> DesignParams:
        uv = self._bands_uv(x)
        return DesignParams.from_unconstrained(self.frequencies, uv[:, 0], uv[:, 1])

    def build_loss(self, x: Sequence[float]) -> tuple[DesignLoss, BandLossTerms]:
        """Loss of a flat parameter vector, all bands at once.

        Returns (loss, BandLossTerms); ``loss.gradient()`` is the reverse
        pass of this evaluation.
        """
        uv = self._bands_uv(x)
        u, v = uv[:, 0], uv[:, 1]
        weights, sigmas = constrain_band(u, v)
        taps, gains = ring_gains(self._layout, weights, sigmas)
        df, wng, widths, _, pullback = self.tables.forward(gains)
        value, terms = total_loss(widths[:, 0], widths[:, 1], df, wng, self.loss_config)

        def backward(*metric_adjoints) -> np.ndarray:
            g_gains = pullback(*metric_adjoints)
            # gains = weight * exp(-delta^2 / (2 sigma^2))
            g_weights = np.add.reduceat(g_gains * taps, self._ring_starts, axis=1)
            g_sigmas = np.add.reduceat(
                g_gains * gains * self._layout[1] ** 2, self._ring_starts, axis=1
            ) / sigmas**3
            # softplus' = logistic sigmoid; softmax Jacobian-vector product
            e = np.exp(-np.abs(v))
            g_v = g_sigmas * np.where(v >= 0.0, 1.0, e) / (1.0 + e)
            g_u = weights * (g_weights - np.sum(weights * g_weights, axis=1, keepdims=True))
            return np.stack([g_u, g_v], axis=1).reshape(-1)

        return DesignLoss(value, backward, terms), terms


# step relative to max(1, |coordinate|), and the relative gap between the
# step-h and step-h/2 differences that marks a branch boundary
REL_STEP = 1e-4
BOUNDARY_RTOL = 1e-3


@dataclass(frozen=True)
class GradcheckResult:
    """Outcome of an analytic vs. central finite-difference comparison.

    ``excluded`` lists coordinates where the two finite-difference step
    sizes disagreed, which flags a piecewise branch boundary between the
    probe points; those coordinates are skipped in ``max_rel_error``.
    """

    max_rel_error: float
    rel_errors: np.ndarray
    excluded: tuple[int, ...]


def gradcheck(
    f: Callable[[np.ndarray], float],
    point: Sequence[float],
    gradient: Sequence[float],
) -> GradcheckResult:
    """Compare ``gradient`` (the analytic gradient of ``f`` at ``point``)
    against central finite differences.

    ``f`` takes a float array and returns a scalar.  The relative error
    per coordinate is |analytic - FD| / max(1, |FD|); a non-finite error
    in a compared coordinate makes ``max_rel_error`` NaN.
    """
    point = np.array(point, dtype=float)
    gradient = np.asarray(gradient, dtype=float)
    if gradient.shape != point.shape:
        raise ValueError(
            f"gradient shape {gradient.shape} does not match {len(point)} coordinates"
        )

    def fd(k: int, h: float) -> float:
        step = np.zeros_like(point)
        step[k] = h
        return (float(f(point + step)) - float(f(point - step))) / (2.0 * h)

    steps = REL_STEP * np.maximum(1.0, np.abs(point))
    fd_h = np.array([fd(k, h) for k, h in enumerate(steps)])
    fd_h2 = np.array([fd(k, h / 2.0) for k, h in enumerate(steps)])
    scale = np.maximum(1.0, np.maximum(np.abs(fd_h), np.abs(fd_h2)))
    boundary = np.abs(fd_h - fd_h2) > BOUNDARY_RTOL * scale
    errors = np.abs(gradient - fd_h2) / np.maximum(1.0, np.abs(fd_h2))
    errors[boundary] = math.nan
    return GradcheckResult(
        max_rel_error=float(np.max(errors[~boundary], initial=0.0)),
        rel_errors=errors,
        excluded=tuple(np.flatnonzero(boundary).tolist()),
    )


class OptimizeResult(NamedTuple):
    params: DesignParams
    curves: MetricCurves
    record: RunRecord


def optimize(
    geometry: ArrayGeometry,
    doa: Direction,
    frequencies: Sequence[float],
    loss_config: LossConfig,
    budget: int,
    seed: int = 0,
    grid_resolution: float = GRID_RESOLUTION,
) -> OptimizeResult:
    """Jointly optimize all bands; returns the best parameters seen.

    Deterministic for a fixed seed, a non-negative integer of any size
    (see :meth:`DesignPipeline.initial_params`).  Stops at the iteration
    budget or after NO_IMPROVE_LIMIT iterations without the best loss
    improving by more than IMPROVE_TOL.  A non-finite loss or gradient
    after the first iteration stops the run with the best parameters seen
    so far and stopping reason "numerical_failure"; at the first iteration
    it raises NumericalError.
    """
    if budget < 1:
        raise ValueError("iteration budget must be at least 1")
    pipeline = DesignPipeline(geometry, doa, frequencies, loss_config, grid_resolution)
    x = pipeline.initial_params(seed)
    state = RPropState.create(len(x))
    trace = []  # per iteration: loss, theta, phi, df, wng
    best_loss = math.inf
    best_x = x.copy()
    no_improve = 0
    reason = "budget_exhausted"
    for it in range(1, budget + 1):
        try:
            value, snap = pipeline.build_loss(x)
            current = float(value)
            if not math.isfinite(current):
                raise NumericalError(f"loss became non-finite at iteration {it}")
            # widths reported like BandTables.curves; the loss keeps the raw width
            theta, phi = np.minimum(snap.theta, math.pi), np.minimum(snap.phi, math.pi)
            trace.append((current, theta, phi, snap.df, snap.wng))
            if current < best_loss - IMPROVE_TOL:
                no_improve = 0
            else:
                no_improve += 1
            if current < best_loss:
                best_loss = current
                best_x = x.copy()
            if no_improve >= NO_IMPROVE_LIMIT:
                reason = "no_improvement"
                break
            if it == budget:
                break
            x = rprop_step(state, value.gradient(), x)
        except NumericalError:
            if it == 1:
                raise
            reason = "numerical_failure"
            break
    params = pipeline.params_from_vector(best_x)
    curves = pipeline.tables.curves(params_gains(geometry, doa, params))
    record = RunRecord(pipeline.frequencies, *map(np.array, zip(*trace)), reason)
    return OptimizeResult(params=params, curves=curves, record=record)
