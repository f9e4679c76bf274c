"""Objective functions for the beamwidth-constrained design problem.

All three variants share the piecewise structure: a band whose
beamwidth overshoots its target is penalized by that beamwidth directly,
otherwise a performance term takes over.  Branch selection happens on
the values themselves, so the partial derivatives that :func:`total_loss`
reports follow only the active branch.  Beamwidths enter in radians;
conversion to degrees is an I/O concern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["LossConfig", "BandLossTerms", "loss_l1", "loss_l2", "loss_l3", "total_loss"]

VARIANTS = ("L1", "L2", "L3")

# slack below target before the broadening branch of L2 engages
L2_TOLERANCE = math.radians(1.0)

STD_EPS = 1e-12

_LN10 = math.log(10.0)


@dataclass(frozen=True)
class LossConfig:
    """Loss variant selection and its weighting knobs.

    ``alpha`` trades directivity against white noise gain inside the
    performance term; ``lambda1``/``lambda2`` weight the across-band
    standard deviations of DF and WNG; ``lambda3`` weights the mismatch
    between opposing bands.  Targets are radians.
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
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 < self.target_theta <= math.pi or not 0.0 < self.target_phi <= math.pi:
            raise ValueError("beamwidth targets must lie in (0, pi] radians")


@dataclass
class BandLossTerms:
    """Snapshot of the assembled loss and its per-band partial derivatives.

    ``d_theta``, ``d_phi``, ``d_df`` and ``d_wng`` hold dL/d(theta),
    dL/d(phi), dL/d(DF) and dL/d(WNG) per band, regularizers included.
    """

    theta: list[float]
    phi: list[float]
    df: list[float]
    wng: list[float]
    branches: list[str]
    band_values: list[float]
    p: list[float] | None = None
    i_term: float = 0.0
    delta_term: float = 0.0
    total: float = 0.0
    d_theta: list[float] = field(default_factory=list)
    d_phi: list[float] = field(default_factory=list)
    d_df: list[float] = field(default_factory=list)
    d_wng: list[float] = field(default_factory=list)


def _branch(theta: float, phi: float, cfg: LossConfig) -> str:
    over_t = theta > cfg.target_theta
    over_p = phi > cfg.target_phi
    if over_t and not over_p:
        return "theta"
    if over_p and not over_t:
        return "phi"
    if over_t and over_p:
        return "both"
    return "perf"


def _perf_term(df: float, wng: float, alpha: float) -> tuple[float, float, float]:
    """-alpha log10 DF - (1 - alpha) log10 WNG, and its partials in DF and WNG."""
    # exact shortcuts keep the alpha endpoints bit-compatible with L1/L2
    if alpha == 1.0:
        return -math.log10(df), -1.0 / (df * _LN10), 0.0
    if alpha == 0.0:
        return -math.log10(wng), 0.0, -1.0 / (wng * _LN10)
    return (
        -(alpha * math.log10(df)) - ((1.0 - alpha) * math.log10(wng)),
        -alpha / (df * _LN10),
        -(1.0 - alpha) / (wng * _LN10),
    )


def _l1_perf(theta, phi, df, wng, cfg: LossConfig):
    return _perf_term(df, wng, 1.0)


def _l2_perf(theta, phi, df, wng, cfg: LossConfig):
    value, d_df, d_wng = _perf_term(df, wng, 1.0)
    if theta < cfg.target_theta - L2_TOLERANCE and phi < cfg.target_phi - L2_TOLERANCE:
        return -value, -d_df, d_wng
    return value, d_df, d_wng


def _l3_perf(theta, phi, df, wng, cfg: LossConfig):
    return _perf_term(df, wng, cfg.alpha)


def _band_term(theta, phi, df, wng, cfg: LossConfig, perf):
    """Branch, value and partials (d/dtheta, d/dphi, d/dDF, d/dWNG) of one band."""
    branch = _branch(theta, phi, cfg)
    if branch == "theta":
        return branch, theta, [1.0, 0.0, 0.0, 0.0]
    if branch == "phi":
        return branch, phi, [0.0, 1.0, 0.0, 0.0]
    if branch == "both":
        return branch, theta + phi, [1.0, 1.0, 0.0, 0.0]
    value, d_df, d_wng = perf(theta, phi, df, wng, cfg)
    return branch, value, [0.0, 0.0, d_df, d_wng]


def loss_l1(theta, phi, df, cfg: LossConfig) -> float:
    """Beamwidth overshoot penalty, otherwise maximize directivity.

    When both widths overshoot, their sum is penalized so each keeps a
    descent direction.
    """
    return _band_term(theta, phi, df, 1.0, cfg, _l1_perf)[1]


def loss_l2(theta, phi, df, cfg: LossConfig) -> float:
    """Like L1, but a clearly undershooting band reduces directivity instead.

    When both widths sit more than a small tolerance below target the
    directivity term flips sign, trading DF away to broaden the mainlobe.
    """
    return _band_term(theta, phi, df, 1.0, cfg, _l2_perf)[1]


def _fold_sum(values):
    total = values[0]
    for v in values[1:]:
        total = total + v
    return total


def _std(values, eps: float = STD_EPS) -> tuple[float, list[float]]:
    """Population standard deviation (with eps under the root) and its gradient."""
    n = len(values)
    mean = _fold_sum(values) / n
    deviations = [(v - mean) * (v - mean) for v in values]
    std = math.sqrt(_fold_sum(deviations) / n + eps)
    return std, [(v - mean) / (n * std) for v in values]


def _assemble(thetas, phis, dfs, wngs, cfg: LossConfig, perf, regularized: bool):
    lambda1, lambda2, lambda3 = (
        (cfg.lambda1, cfg.lambda2, cfg.lambda3) if regularized else (0.0, 0.0, 0.0)
    )
    thetas, phis = [float(t) for t in thetas], [float(p) for p in phis]
    dfs, wngs = [float(d) for d in dfs], [float(w) for w in wngs]
    count = len(thetas)
    bands = [_band_term(*args, cfg, perf) for args in zip(thetas, phis, dfs, wngs)]
    terms = [value for _, value, _ in bands]
    grads = [partials for _, _, partials in bands]
    total = _fold_sum(terms)

    i_term = 0.0
    if lambda1 > 0.0:
        std, d_std = _std(dfs)
        i_term = i_term + lambda1 * std
        for b in range(count):
            grads[b][2] += lambda1 * d_std[b]
    if lambda2 > 0.0:
        std, d_std = _std(wngs)
        i_term = i_term + lambda2 * std
        for b in range(count):
            grads[b][3] += lambda2 * d_std[b]
    if lambda1 > 0.0 or lambda2 > 0.0:
        total = total + i_term

    delta_term = 0.0
    p_values = None
    if lambda3 > 0.0:
        perfs = [_perf_term(df, wng, cfg.alpha) for df, wng in zip(dfs, wngs)]
        p_values = [value for value, _, _ in perfs]
        diffs = []
        for i in range(2, count // 2 + 1):
            lo, hi = i - 1, count - i
            gap = p_values[lo] - p_values[hi]
            diffs.append(abs(gap))
            sign = lambda3 * ((gap > 0.0) - (gap < 0.0))  # subgradient 0 at the kink
            for b, s in ((lo, sign), (hi, -sign)):
                grads[b][2] += s * perfs[b][1]
                grads[b][3] += s * perfs[b][2]
        if diffs:
            delta_term = lambda3 * _fold_sum(diffs)
            total = total + delta_term

    snapshot = BandLossTerms(
        theta=thetas,
        phi=phis,
        df=dfs,
        wng=wngs,
        branches=[branch for branch, _, _ in bands],
        band_values=terms,
        p=p_values,
        i_term=i_term,
        delta_term=delta_term,
        total=total,
        d_theta=[g[0] for g in grads],
        d_phi=[g[1] for g in grads],
        d_df=[g[2] for g in grads],
        d_wng=[g[3] for g in grads],
    )
    return total, snapshot


def loss_l3(thetas, phis, dfs, wngs, cfg: LossConfig):
    """Banded piecewise loss plus across-band invariance regularizers.

    Per band the branch value is the L1 overshoot penalty or the
    alpha-weighted performance term.  The invariance term adds the
    population standard deviations of DF and WNG; the difference term
    adds |P_i - P_(F-i+1)| over opposing band pairs (1-based i from 2 to
    floor(F/2)).  Both global terms are skipped exactly when their
    weights are zero, which makes the (alpha=1, lambdas=0) configuration
    reduce bit-identically to the sum of per-band L1 values.
    """
    if len(thetas) < 2:
        raise ValueError("the banded loss needs at least 2 frequency bands")
    return _assemble(thetas, phis, dfs, wngs, cfg, _l3_perf, regularized=True)


def total_loss(thetas, phis, dfs, wngs, cfg: LossConfig):
    """Assemble the configured variant over all bands.

    Returns the scalar objective and a :class:`BandLossTerms` snapshot
    that also carries the per-band partial derivatives.
    """
    if cfg.variant == "L3":
        return loss_l3(thetas, phis, dfs, wngs, cfg)
    perf = _l1_perf if cfg.variant == "L1" else _l2_perf
    return _assemble(thetas, phis, dfs, wngs, cfg, perf, regularized=False)
