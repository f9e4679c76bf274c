"""Objective functions for the beamwidth-constrained design problem.

All three variants share the piecewise structure: a band whose
beamwidth overshoots its target is penalized by that beamwidth directly,
otherwise a performance term takes over.  Branch selection happens on
the values themselves, so the partial derivatives that :func:`total_loss`
reports follow only the active branch.  Beamwidths enter in radians;
conversion to degrees is an I/O concern.

The loss is assembled over all bands at once on arrays.  Its sums over
bands (the band total, the standard deviations, the opposing-pair term)
use the builtin ``sum`` over Python floats in band order, so L3 with
alpha 1 and zero lambdas equals the ``sum`` of the one-band L1 values
bit for bit on every Python version (``np.sum`` adds pairwise from 8
values on, which would break that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

VARIANTS = ("L1", "L2", "L3")

# slack below target before the broadening branch of L2 engages
L2_TOLERANCE = math.radians(1.0)

STD_EPS = 1e-12

_LN10 = math.log(10.0)

# branch name by (theta overshoots) + 2 * (phi overshoots)
_BRANCHES = np.array(["perf", "theta", "phi", "both"])


@dataclass(frozen=True)
class LossConfig:
    """Loss variant selection and its weighting knobs.

    ``alpha`` trades directivity against white noise gain inside the
    performance term; ``lambda1``/``lambda2`` weight the across-band
    standard deviations of DF and WNG; ``lambda3`` weights the mismatch
    between opposing bands.  Only L3 reads these four, so L1 and L2 take
    their neutral values (alpha 1, lambdas 0).  Targets are radians.
    """

    variant: str
    target_theta: float
    target_phi: float
    alpha: float = 1.0
    lambda1: float = 0.0
    lambda2: float = 0.0
    lambda3: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        for name in ("lambda1", "lambda2", "lambda3"):
            if not 0.0 <= getattr(self, name) < math.inf:  # NaN fails both
                raise ValueError(f"{name} must be finite and non-negative")
        neutral = {"alpha": 1.0, "lambda1": 0.0, "lambda2": 0.0, "lambda3": 0.0}
        for name, value in neutral.items():
            if self.variant != "L3" and getattr(self, name) != value:
                raise ValueError(f"{name} is an L3 setting; {self.variant} needs {value:g}")
        if not 0.0 < self.target_theta <= math.pi or not 0.0 < self.target_phi <= math.pi:
            raise ValueError("beamwidth targets must lie in (0, pi] radians")


@dataclass
class BandLossTerms:
    """Snapshot of the assembled loss and its per-band partial derivatives.

    Band values are arrays over bands.  ``d_theta``, ``d_phi``, ``d_df``
    and ``d_wng`` hold dL/d(theta), dL/d(phi), dL/d(DF) and dL/d(WNG) per
    band, regularizers included.  ``pullback(d_theta, d_phi, d_df, d_wng)``,
    None on terms that :func:`total_loss` returns on its own, is d/dx of the
    sum over bands of d_theta*theta + d_phi*phi + d_df*DF + d_wng*WNG.
    """

    theta: np.ndarray
    phi: np.ndarray
    df: np.ndarray
    wng: np.ndarray
    branches: list[str]
    i_term: float
    delta_term: float
    d_theta: np.ndarray
    d_phi: np.ndarray
    d_df: np.ndarray
    d_wng: np.ndarray
    pullback: Callable[..., np.ndarray] | None = None

    def gradient(self) -> np.ndarray:  # dL/dx
        return self.pullback(self.d_theta, self.d_phi, self.d_df, self.d_wng)


def _perf_term(df: np.ndarray, wng: np.ndarray, alpha: float):
    """-alpha log10 DF - (1 - alpha) log10 WNG, and its partials in DF and WNG."""
    return (
        -(alpha * np.log10(df)) - ((1.0 - alpha) * np.log10(wng)),
        -alpha / (df * _LN10),
        -(1.0 - alpha) / (wng * _LN10),
    )


def _std(values: np.ndarray) -> tuple[float, np.ndarray]:
    """Population standard deviation (with STD_EPS under the root) and its gradient."""
    n = len(values)
    dev = values - sum(values.tolist()) / n
    std = math.sqrt(sum((dev * dev).tolist()) / n + STD_EPS)
    return std, dev / (n * std)


def total_loss(thetas, phis, dfs, wngs, cfg: LossConfig):
    """Assemble the configured variant over all bands.

    Returns the scalar objective and a :class:`BandLossTerms` snapshot
    that also carries the per-band partial derivatives.  L3 adds the
    population standard deviations of DF and WNG (weights lambda1,
    lambda2) and |P_i - P_(F-i+1)| over opposing band pairs (1-based i
    from 2 to floor(F/2), weight lambda3).
    """
    thetas, phis, dfs, wngs = (np.asarray(a, dtype=float) for a in (thetas, phis, dfs, wngs))
    count = len(thetas)
    if cfg.variant == "L3" and count < 2:
        raise ValueError("the banded loss needs at least 2 frequency bands")
    if (dfs <= 0.0).any() or (wngs <= 0.0).any():  # np.log10 would only warn
        raise ValueError(f"math domain error: DF {dfs.tolist()} and WNG {wngs.tolist()}")

    over_t, over_p = thetas > cfg.target_theta, phis > cfg.target_phi
    over = over_t | over_p
    perf, perf_df, perf_wng = _perf_term(dfs, wngs, cfg.alpha)
    sign = 1.0
    if cfg.variant == "L2":  # a clearly undershooting band trades DF away instead
        flip = (thetas < cfg.target_theta - L2_TOLERANCE) & (phis < cfg.target_phi - L2_TOLERANCE)
        sign = np.where(flip, -1.0, 1.0)
    widths = np.where(over_t, thetas, 0.0) + np.where(over_p, phis, 0.0)
    total = sum(np.where(over, widths, sign * perf).tolist())
    d_df = np.where(over, 0.0, sign * perf_df)
    d_wng = np.where(over, 0.0, perf_wng)

    i_term = 0.0
    for weight, values, grad in ((cfg.lambda1, dfs, d_df), (cfg.lambda2, wngs, d_wng)):
        std, d_std = _std(values)
        i_term = i_term + weight * std
        grad += weight * d_std
    total = total + i_term

    lo = np.arange(1, count // 2)  # 0-based; the 1-based pairs are (i, F - i + 1)
    hi = count - 1 - lo
    gap = perf[lo] - perf[hi]
    delta_term = cfg.lambda3 * sum(np.abs(gap).tolist())
    total = total + delta_term
    pair = cfg.lambda3 * np.sign(gap)  # subgradient 0 at the kink
    d_df[lo] += pair * perf_df[lo]
    d_df[hi] -= pair * perf_df[hi]
    d_wng[lo] += pair * perf_wng[lo]
    d_wng[hi] -= pair * perf_wng[hi]

    snapshot = BandLossTerms(
        theta=thetas,
        phi=phis,
        df=dfs,
        wng=wngs,
        branches=_BRANCHES[over_t + 2 * over_p].tolist(),
        i_term=i_term,
        delta_term=delta_term,
        d_theta=over_t.astype(float),
        d_phi=over_p.astype(float),
        d_df=d_df,
        d_wng=d_wng,
    )
    return total, snapshot
