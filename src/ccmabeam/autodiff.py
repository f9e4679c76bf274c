"""Central-difference check of a hand-written gradient.

The design loss is differentiated by a reverse pass written out by hand
(see :class:`ccmabeam.optimizer.DesignPipeline`).  :func:`gradcheck` is
the oracle for such a pass: it evaluates the function on plain floats
and compares the analytic gradient it is handed with central finite
differences, coordinate by coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["GradcheckResult", "gradcheck"]

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
    f: Callable[[list[float]], float],
    point: Sequence[float],
    gradient: Sequence[float],
) -> GradcheckResult:
    """Compare ``gradient`` (the analytic gradient of ``f`` at ``point``)
    against central finite differences.

    ``f`` takes a list of floats and returns a scalar.  The relative error
    per coordinate is |analytic - FD| / max(1, |FD|).
    """
    point = [float(p) for p in point]
    gradient = np.asarray(gradient, dtype=float)
    if gradient.shape != (len(point),):
        raise ValueError(
            f"gradient shape {gradient.shape} does not match {len(point)} coordinates"
        )

    def fd(k: int, h: float) -> float:
        hi = list(point)
        lo = list(point)
        hi[k] += h
        lo[k] -= h
        return (float(f(hi)) - float(f(lo))) / (2.0 * h)

    errors = np.zeros(len(point))
    excluded: list[int] = []
    for k in range(len(point)):
        h = REL_STEP * max(1.0, abs(point[k]))
        fd_h = fd(k, h)
        fd_h2 = fd(k, h / 2.0)
        if abs(fd_h - fd_h2) > BOUNDARY_RTOL * max(1.0, abs(fd_h), abs(fd_h2)):
            errors[k] = math.nan
            excluded.append(k)
            continue
        errors[k] = abs(gradient[k] - fd_h2) / max(1.0, abs(fd_h2))
    included = [errors[k] for k in range(len(point)) if k not in excluded]
    return GradcheckResult(
        max_rel_error=max(included, default=0.0),
        rel_errors=errors,
        excluded=tuple(excluded),
    )
