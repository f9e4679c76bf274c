"""Resilient-propagation optimization of the ring-weight design.

The update rule is the sign-based variant without weight backtracking:
a gradient sign flip shrinks the per-coordinate step and skips that
coordinate for one iteration (its stored sign is reset), a repeated sign
grows the step, and parameters always move by the signed step.

The design pipeline evaluates every frequency band at once on stacked
arrays, since the across-band loss terms couple the bands, and returns
the gradient from a reverse pass over the same arrays written out by
hand (reverse-mode differentiation; Griewank & Walther, *Evaluating
Derivatives*, 2008).
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .geometry import ArrayGeometry
from .loss import BandLossTerms, LossConfig, total_loss
from .metrics import (
    DELTA_L_DB,
    GAMMA_DIAGONAL_REG,
    PATTERN_POWER_FLOOR,
    MetricCurves,
    NumericalError,
    build_fit_cuts,
    curvature_width,
    evaluate_params,
    fit_coefficients,
    gamma_matrix,
)
from .wavefield import Direction, steering_matrix, steering_vector
from .weighting import DesignParams, SIGMA_FLOOR, constrain_band, ring_distances, softplus_inverse

__all__ = [
    "RPropConfig",
    "RPropState",
    "rprop_step",
    "IterationRow",
    "RunRecord",
    "OptimizeResult",
    "DesignLoss",
    "DesignPipeline",
    "optimize",
]

INITIAL_SIGMA = 0.5
INIT_NOISE = 1e-3

_DB_PER_LN = 10.0 / math.log(10.0)  # d(10 log10 p)/dp = _DB_PER_LN / p


@dataclass(frozen=True)
class RPropConfig:
    initial_step: float = 0.1
    grow: float = 1.2
    shrink: float = 0.5
    step_min: float = 1e-6
    step_max: float = 50.0

    def __post_init__(self):
        if not (self.grow > 1.0 > self.shrink > 0.0):
            raise ValueError("rprop scale factors must satisfy grow > 1 > shrink > 0")
        if not (0.0 < self.step_min <= self.initial_step <= self.step_max):
            raise ValueError("rprop step bounds must satisfy min <= initial <= max")


@dataclass
class RPropState:
    """Per-coordinate step sizes and the previous gradient (0 marks a reset)."""

    steps: np.ndarray
    prev_grad: np.ndarray

    @classmethod
    def create(cls, n: int, config: RPropConfig = RPropConfig()) -> "RPropState":
        return cls(steps=np.full(n, config.initial_step), prev_grad=np.zeros(n))


def rprop_step(
    state: RPropState,
    gradient: np.ndarray,
    params: np.ndarray,
    config: RPropConfig = RPropConfig(),
) -> np.ndarray:
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
    state.steps[grew] = np.minimum(state.steps[grew] * config.grow, config.step_max)
    state.steps[flipped] = np.maximum(state.steps[flipped] * config.shrink, config.step_min)
    g[flipped] = 0.0  # skip flipped coordinates this iteration, reset their sign
    new_params = params - np.sign(g) * state.steps
    state.prev_grad = g
    return new_params


@dataclass(frozen=True)
class IterationRow:
    iteration: int
    loss: float
    theta: tuple[float, ...]
    phi: tuple[float, ...]
    df: tuple[float, ...]
    wng: tuple[float, ...]


@dataclass
class RunRecord:
    """Loss and metric trace of one optimization run."""

    frequencies: tuple[float, ...]
    rows: list[IterationRow]
    stopping_reason: str

    @property
    def iteration_count(self) -> int:
        return len(self.rows)

    def losses(self) -> np.ndarray:
        return np.array([row.loss for row in self.rows])

    def best_so_far(self) -> np.ndarray:
        return np.minimum.accumulate(self.losses())

    def to_csv(self, path: str | Path) -> None:
        header = ["iteration", "loss"]
        for f in self.frequencies:
            tag = f"{f:g}"
            header += [
                f"theta_deg_{tag}",
                f"phi_deg_{tag}",
                f"df_db_{tag}",
                f"wng_db_{tag}",
            ]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in self.rows:
                cells = [str(row.iteration), f"{row.loss:.9e}"]
                for b in range(len(self.frequencies)):
                    cells += [
                        f"{math.degrees(row.theta[b]):.6f}",
                        f"{math.degrees(row.phi[b]):.6f}",
                        f"{10.0 * math.log10(row.df[b]):.6f}",
                        f"{10.0 * math.log10(row.wng[b]):.6f}",
                    ]
                writer.writerow(cells)


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


class _Forward(NamedTuple):
    """Forward intermediates the reverse pass reads (bands on axis 0)."""

    v: np.ndarray  # (bands, rings) width parameters
    weights: np.ndarray  # (bands, rings)
    sigmas: np.ndarray  # (bands, rings)
    taps: np.ndarray  # (bands, mics)
    gains: np.ndarray  # (bands, mics)
    a_gains: np.ndarray  # (bands, mics) diffuse form times gains
    total: np.ndarray  # (bands,) sum of gains
    filter_power: np.ndarray
    floored: np.ndarray  # DF denominator held at its floor
    denom: np.ndarray
    df: np.ndarray
    wng: np.ndarray
    response: np.ndarray  # (bands, re/im, cut, samples)
    cut_power: np.ndarray  # (bands, cut, samples)
    slopes: np.ndarray  # (bands, cut) d width / d curvature


class DesignPipeline:
    """Map from unconstrained parameters to the design loss and its gradient.

    All geometry-dependent quantities (window distances, steering phases
    along the fit cuts, diffuse-coherence quadratic forms, parabola-fit
    coefficients) are constant per direction-of-arrival and are
    precomputed once, stacked over bands.  The cuts of all bands are
    zero-padded to a common length; a padded sample has a zero fit
    coefficient, so it does not reach the widths.
    """

    def __init__(
        self,
        geometry: ArrayGeometry,
        doa: Direction,
        frequencies: Sequence[float],
        loss_config: LossConfig,
        grid_resolution: float = math.radians(1.0),
        delta_l: float = DELTA_L_DB,
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
        if delta_l <= 0.0:
            raise ValueError("delta_l must be positive")
        self.geometry = geometry
        self.doa = doa
        self.loss_config = loss_config
        self.delta_l = delta_l

        rings = range(geometry.ring_count)
        self._ring_starts = np.array([geometry.ring_slice(r).start for r in rings])
        self._ring_of_mic = np.repeat(rings, [ring.mic_count for ring in geometry.rings])
        self._delta_sq = np.concatenate([ring_distances(geometry, r, doa) ** 2 for r in rings])

        bands = [self._band_data(f, grid_resolution) for f in self.frequencies]
        self._samples = max(len(c) for _, cuts, _ in bands for c in cuts)
        self._a_gamma = np.stack([a_gamma for a_gamma, _, _ in bands])
        # rows per band: real parts of both cuts, then imaginary parts
        self._cut_rows = np.stack(
            [
                np.concatenate([self._pad(part(c)) for part in (np.real, np.imag) for c in cuts])
                for _, cuts, _ in bands
            ]
        )
        self._fit = np.stack([[self._pad(c) for c in fits] for _, _, fits in bands])

    def _pad(self, rows: np.ndarray) -> np.ndarray:
        pad = [(0, self._samples - len(rows))] + [(0, 0)] * (rows.ndim - 1)
        return np.pad(rows, pad)

    def _band_data(self, frequency: float, grid_resolution: float):
        geometry = self.geometry
        d = steering_vector(geometry, frequency, self.doa)
        a_gamma = gamma_matrix(geometry, frequency) * np.real(np.outer(np.conj(d), d))
        cuts = build_fit_cuts(geometry, self.doa, frequency, grid_resolution)
        responses = [
            steering_matrix(geometry, frequency, c.elevations, c.azimuths) * np.conj(d)[None, :]
            for c in cuts
        ]
        fits = [fit_coefficients(c.x, c.doa_index, c.sigma) for c in cuts]
        return a_gamma, responses, fits

    def _ring_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-ring sums over the mic axis: (bands, mics) -> (bands, rings)."""
        return np.add.reduceat(values, self._ring_starts, axis=1)

    @property
    def param_count(self) -> int:
        return 2 * self.geometry.ring_count * len(self.frequencies)

    def initial_params(self, seed: int) -> np.ndarray:
        """Near-uniform start: equal ring weights, sigma about INITIAL_SIGMA,
        plus a seeded +-INIT_NOISE jitter to break ring symmetry."""
        rings = self.geometry.ring_count
        base = np.zeros(self.param_count)
        v0 = softplus_inverse(INITIAL_SIGMA - SIGMA_FLOOR)
        for b in range(len(self.frequencies)):
            base[(2 * b + 1) * rings : (2 * b + 2) * rings] = v0
        rng = np.random.default_rng(seed)
        return base + rng.uniform(-INIT_NOISE, INIT_NOISE, self.param_count)

    def split_vector(self, x: np.ndarray):
        rings = self.geometry.ring_count
        u_bands, v_bands = [], []
        for b in range(len(self.frequencies)):
            lo = 2 * b * rings
            u_bands.append(np.asarray(x[lo : lo + rings]))
            v_bands.append(np.asarray(x[lo + rings : lo + 2 * rings]))
        return u_bands, v_bands

    def params_from_vector(self, x: np.ndarray) -> DesignParams:
        u_bands, v_bands = self.split_vector(x)
        return DesignParams.from_unconstrained(self.frequencies, u_bands, v_bands)

    def build_loss(self, x: Sequence[float]) -> tuple[DesignLoss, BandLossTerms]:
        """Loss of a flat parameter vector, all bands at once.

        Layout per band: ring-weight parameters, then width parameters.
        Returns (loss, BandLossTerms); ``loss.gradient()`` is the reverse
        pass of this evaluation.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.param_count,):
            raise ValueError(f"expected {self.param_count} parameters, got {x.size}")
        bands = len(self.frequencies)
        uv = x.reshape(bands, 2, -1)
        weights, sigmas = constrain_band(uv[:, 0], uv[:, 1])
        mic_ring = self._ring_of_mic
        taps = np.exp(self._delta_sq * (-0.5 / (sigmas * sigmas))[:, mic_ring])
        gains = weights[:, mic_ring] * taps

        total = gains.sum(axis=1)
        power = total * total
        filter_power = np.einsum("bm,bm->b", gains, gains)
        a_gains = np.matmul(self._a_gamma, gains[:, :, None])[:, :, 0]
        diffuse = np.einsum("bm,bm->b", gains, a_gains)
        # floor matching directivity_factor: guards an indefinite form
        # without biasing the well-conditioned case
        floor = GAMMA_DIAGONAL_REG * filter_power
        floored = diffuse < floor
        denom = np.where(floored, floor, diffuse)
        df = power / denom
        wng = power / filter_power

        response = np.matmul(self._cut_rows, gains[:, :, None]).reshape(bands, 2, 2, -1)
        cut_power = response[:, 0] ** 2 + response[:, 1] ** 2 + PATTERN_POWER_FLOOR
        # the fit coefficients sum to zero, so the curvature ignores the dB
        # offset of normalizing the cuts to the look direction
        curvature = np.einsum("bcs,bcs->bc", self._fit, 10.0 * np.log10(cut_power))
        widths, slopes, _ = curvature_width(curvature, self.delta_l)

        value, terms = total_loss(
            widths[:, 0].tolist(), widths[:, 1].tolist(), df.tolist(), wng.tolist(),
            self.loss_config,
        )
        state = _Forward(
            uv[:, 1], weights, sigmas, taps, gains, a_gains, total, filter_power,
            floored, denom, df, wng, response, cut_power, slopes,
        )
        return DesignLoss(value, functools.partial(self._backward, state), terms), terms

    def _backward(
        self, fw: _Forward, g_theta: np.ndarray, g_phi: np.ndarray, g_df: np.ndarray, g_wng: np.ndarray
    ) -> np.ndarray:
        """Reverse pass of :meth:`build_loss`: adjoints flow from the band
        metrics back through each forward step in turn."""
        g_widths = np.column_stack([g_theta, g_phi])

        # widths -> curvatures -> dB cut samples -> cut responses
        g_db = (g_widths * fw.slopes)[:, :, None] * self._fit
        g_response = 2.0 * fw.response * (_DB_PER_LN * g_db / fw.cut_power)[:, None]
        bands = len(g_df)
        g_gains = np.matmul(g_response.reshape(bands, 1, -1), self._cut_rows)[:, 0]

        # DF = power / max(diffuse, floor), WNG = power / filter_power
        g_power = g_df / fw.denom + g_wng / fw.filter_power
        g_denom = -g_df * fw.df / fw.denom
        g_filter_power = -g_wng * fw.wng / fw.filter_power
        g_filter_power += np.where(fw.floored, GAMMA_DIAGONAL_REG * g_denom, 0.0)
        g_diffuse = np.where(fw.floored, 0.0, g_denom)
        g_gains += (
            (2.0 * fw.total * g_power)[:, None]
            + 2.0 * fw.gains * g_filter_power[:, None]
            + 2.0 * fw.a_gains * g_diffuse[:, None]  # the diffuse form is symmetric
        )

        # gains = weight * exp(delta^2 * scale), scale = -1 / (2 sigma^2)
        g_weights = self._ring_sum(g_gains * fw.taps)
        g_scale = self._ring_sum(g_gains * fw.gains * self._delta_sq)
        g_sigmas = g_scale / fw.sigmas**3
        # softplus' = logistic sigmoid; softmax Jacobian-vector product
        e = np.exp(-np.abs(fw.v))
        g_v = g_sigmas * np.where(fw.v >= 0.0, 1.0, e) / (1.0 + e)
        g_u = fw.weights * (g_weights - np.sum(fw.weights * g_weights, axis=1, keepdims=True))
        return np.stack([g_u, g_v], axis=1).reshape(-1)


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
    grid_resolution: float = math.radians(1.0),
    rprop_config: RPropConfig = RPropConfig(),
    no_improve_limit: int = 200,
    improve_tol: float = 1e-6,
    delta_l: float = DELTA_L_DB,
) -> OptimizeResult:
    """Jointly optimize all bands; returns the best parameters seen.

    Deterministic for a fixed seed.  Stops at the iteration budget or
    after ``no_improve_limit`` iterations without the best loss improving
    by more than ``improve_tol``.
    """
    if budget < 1:
        raise ValueError("iteration budget must be at least 1")
    pipeline = DesignPipeline(
        geometry, doa, frequencies, loss_config, grid_resolution, delta_l
    )
    x = pipeline.initial_params(seed)
    state = RPropState.create(len(x), rprop_config)
    rows: list[IterationRow] = []
    best_loss = math.inf
    best_x = x.copy()
    no_improve = 0
    reason = "budget_exhausted"
    for it in range(1, budget + 1):
        value, snap = pipeline.build_loss(x)
        current = float(value)
        if not math.isfinite(current):
            raise NumericalError(f"loss became non-finite at iteration {it}")
        rows.append(
            IterationRow(
                iteration=it,
                loss=current,
                theta=tuple(snap.theta),
                phi=tuple(snap.phi),
                df=tuple(snap.df),
                wng=tuple(snap.wng),
            )
        )
        if current < best_loss - improve_tol:
            no_improve = 0
        else:
            no_improve += 1
        if current < best_loss:
            best_loss = current
            best_x = x.copy()
        if no_improve >= no_improve_limit:
            reason = "no_improvement"
            break
        if it == budget:
            break
        x = rprop_step(state, value.gradient(), x, rprop_config)
    params = pipeline.params_from_vector(best_x)
    curves = evaluate_params(geometry, doa, params, grid_resolution, delta_l)
    record = RunRecord(pipeline.frequencies, rows, reason)
    return OptimizeResult(params=params, curves=curves, record=record)
