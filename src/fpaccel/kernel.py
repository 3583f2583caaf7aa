"""Detection of maps the accelerated steps collapse in one application.

For the model family u(x) = x + alpha (x* - x)^beta (beta > 1) the first
Newton step is exactly affine, v(x) = (1 - 1/beta) x + x*/beta, and the
second step is exactly constant: w(x) = x* everywhere it is defined.
Membership can therefore be decided from samples alone, two ways:

* :func:`affinity_test` samples the first step around a point and fits a
  straight line; an affine fit to near machine precision certifies the
  collapse and reads the fixed point off the coefficients.
* :func:`kernel_family_fit` fits log|u(x) - x| against log|x - x*| at
  probe points; a tight linear fit recovers the exponent and leading
  coefficient directly.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Optional, Sequence

from .accelerators import STEP_ERRORS, first_newton_step
from .jets import Scalar, is_finite

AFFINE_RESIDUAL_TOL = 1e-9
FAMILY_RESIDUAL_TOL = 1e-6
_AFFINITY_SAMPLES = 9

__all__ = [
    "AFFINE_RESIDUAL_TOL",
    "FAMILY_RESIDUAL_TOL",
    "FitInconclusiveError",
    "KernelVerdict",
    "affinity_test",
    "kernel_family_fit",
]


class FitInconclusiveError(RuntimeError):
    """Not enough usable samples to decide membership either way."""


def _line_fit(xs: Sequence[Scalar], ys: Sequence[Scalar]) -> tuple[Scalar, Scalar, float]:
    """Least-squares line y = a x + b, real or complex: (a, b, max residual)."""
    n = len(xs)
    x_mean, y_mean = sum(xs) / n, sum(ys) / n
    dxs = [x - x_mean for x in xs]
    spread = sum(abs(d) ** 2 for d in dxs)
    if spread == 0.0:
        raise FitInconclusiveError("all samples sit at the same abscissa")
    a = sum(d.conjugate() * (y - y_mean) for d, y in zip(dxs, ys)) / spread
    b = y_mean - a * x_mean
    return a, b, max(abs(y - (a * x + b)) for x, y in zip(xs, ys))


class KernelVerdict(NamedTuple):
    """Outcome of a membership test.

    ``evidence`` names which test produced the verdict
    ("affine_first_step", "power_residual_fit" or "none").  For the
    residual fit, ``convention`` records which one-sided form the
    reported ``alpha`` multiplies: "(x - x_star)^beta" or
    "(x_star - x)^beta"; for even integer exponents the two coincide.
    """

    member: bool
    evidence: str
    residual: float
    x_star: Optional[Scalar] = None
    alpha: Optional[Scalar] = None
    beta: Optional[float] = None
    slope: Optional[Scalar] = None
    convention: Optional[str] = None


def affinity_test(u, center: Scalar, radius: float) -> KernelVerdict:
    """Decide membership by checking the first Newton step for straightness.

    Samples 9 points (evenly spaced on an interval for real centers, on a
    circle for complex ones), evaluates the first step at each, skipping
    one that raises one of ``STEP_ERRORS``, and least-squares fits
    v = a x + b.  The fit residual against
    ``AFFINE_RESIDUAL_TOL * (1 + |b|)`` decides membership; on success
    the fixed point is b/(1 - a) and the exponent 1/(1 - a).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    n = _AFFINITY_SAMPLES
    if isinstance(center, complex):
        pts = [center + radius * cmath.exp(2j * math.pi * k / n) for k in range(n)]
    else:
        pts = [center - radius + 2.0 * radius * k / (n - 1) for k in range(n)]
    xs, vs = [], []
    for p in pts:
        try:
            out = first_newton_step(p, u.at(p))
        except STEP_ERRORS:
            continue
        if out.ok:
            xs.append(p)
            vs.append(out.value)
    if len(xs) < 5:
        raise FitInconclusiveError(f"only {len(xs)} of {n} first-step samples usable")
    a_s, b_s, residual = _line_fit(xs, vs)
    member = residual <= AFFINE_RESIDUAL_TOL * (1.0 + abs(b_s))
    if not member:
        return KernelVerdict(False, "none", residual, slope=a_s)
    den = 1.0 - a_s
    if abs(den) <= 1e-9:
        raise FitInconclusiveError("affine first step with unit slope has no fixed point")
    x_star = b_s / den
    beta_val = 1.0 / den
    beta: Optional[float] = None
    if isinstance(beta_val, complex):
        if abs(beta_val.imag) <= 1e-6 * (1.0 + abs(beta_val.real)):
            beta = beta_val.real
    else:
        beta = float(beta_val)
    return KernelVerdict(
        True, "affine_first_step", residual, x_star=x_star, beta=beta, slope=a_s
    )


def kernel_family_fit(u, x_star: float, probes: Sequence[float]) -> KernelVerdict:
    """Decide membership by a power-law fit of the residual u(x) - x.

    Fits log|u(p) - p| = beta log|p - x_star| + log|alpha| over the
    probes; membership needs the worst log-space misfit at or below
    ``FAMILY_RESIDUAL_TOL`` and beta > 1 (a fit with beta <= 1 is
    reported with member False: the fixed point is not flat).  Probes at
    the fixed point, with vanishing residual or where the map raises one
    of ``STEP_ERRORS`` are skipped.
    """
    logr, logd, signs, sides = [], [], [], []
    for p in probes:
        if isinstance(p, complex):
            raise ValueError("probes must be real")
        gap = p - x_star
        if gap == 0.0:
            continue
        try:
            d = u.value(p) - p
        except STEP_ERRORS:
            continue
        if not is_finite(d) or d == 0.0:
            continue
        logr.append(math.log(abs(gap)))
        logd.append(math.log(abs(d)))
        d_re = d.real if isinstance(d, complex) else d
        signs.append(1.0 if d_re > 0 else -1.0)
        sides.append(1.0 if gap > 0 else -1.0)
    if len(logr) < 3:
        raise FitInconclusiveError(f"only {len(logr)} usable probes")
    beta, logc, residual = _line_fit(logr, logd)
    magnitude = math.exp(logc)
    alpha = signs[0] * magnitude
    convention = "(x - x_star)^beta" if sides[0] > 0 else "(x_star - x)^beta"
    # beta must clear 1 by more than fit noise; a slope-1 affine map
    # fits beta = 1 + O(eps) and its fixed point is not flat
    member = residual <= FAMILY_RESIDUAL_TOL and beta > 1.0 + 1e-9
    return KernelVerdict(
        member,
        "power_residual_fit" if member else "none",
        residual,
        x_star=x_star,
        alpha=alpha,
        beta=beta,
        convention=convention,
    )
