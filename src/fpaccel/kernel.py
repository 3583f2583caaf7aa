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
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .accelerators import _OK, DEFAULT_TOL, STEP_ERRORS, _first_newton, _record
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
    """Least-squares line y = a x + b, real or complex: (a, b, max residual).

    Each sum adds a list, which costs less than resuming a generator per
    term and adds the same terms in the same order.  ``abs(d) ** 2`` stays
    a power: ``d * d`` differs from it by an ulp on some inputs.  A real
    deviation is its own conjugate, so only complex ones are conjugated.
    """
    n = len(xs)
    x_mean, y_mean = sum(xs) / n, sum(ys) / n
    dxs = [x - x_mean for x in xs]
    spread = sum([abs(d) ** 2 for d in dxs])
    # equal abscissae need not give a zero spread: their mean can round off them
    if spread == 0.0 or xs.count(xs[0]) == n:
        raise FitInconclusiveError("all samples sit at the same abscissa")
    if isinstance(x_mean, complex):
        dxs = [d.conjugate() for d in dxs]
    a = sum(map(mul, dxs, [y - y_mean for y in ys])) / spread
    b = y_mean - a * x_mean
    return a, b, max([abs(y - (a * x + b)) for x, y in zip(xs, ys)])


class KernelVerdict(NamedTuple):
    """Outcome of a membership test.

    ``evidence`` names which test produced the verdict
    ("affine_first_step", "power_residual_fit" or "none").  For the
    residual fit, ``convention`` records which one-sided form the
    reported ``alpha`` multiplies: "(x - x_star)^beta" or
    "(x_star - x)^beta"; for even integer exponents the two coincide.
    :func:`affinity_test` and :func:`kernel_family_fit` build it through
    ``_record`` (``tuple.__new__``), which makes the same record as the
    class call without its Python frame, so they pass every field in order.
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
    the fixed point is b/(1 - a) and the exponent 1/(1 - a).  The center
    and the radius must be finite, and the radius real and positive.
    """
    if isinstance(radius, complex) or not 0 < radius < math.inf:
        raise ValueError(f"radius must be real, positive and finite, got {radius!r}")
    if not is_finite(center):
        raise ValueError(f"center must be finite, got {center!r}")
    n = _AFFINITY_SAMPLES
    if isinstance(center, complex):
        pts = [center + radius * cmath.exp(2j * math.pi * k / n) for k in range(n)]
    else:
        pts = [center - radius + 2.0 * radius * k / (n - 1) for k in range(n)]
    # the bare first pass, not first_newton_step: no record per sample
    xs, vs = [], []
    for p in pts:
        try:
            v, status, _ = _first_newton(p, u.at(p), DEFAULT_TOL)
        except STEP_ERRORS:
            continue
        if status is _OK:
            xs.append(p)
            vs.append(v)
    if len(xs) < 5:
        raise FitInconclusiveError(f"only {len(xs)} of {n} first-step samples usable")
    a_s, b_s, residual = _line_fit(xs, vs)
    member = residual <= AFFINE_RESIDUAL_TOL * (1.0 + abs(b_s))
    if not member:
        return _record(KernelVerdict, (False, "none", residual, None, None, None, a_s, None))
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
    return _record(
        KernelVerdict, (True, "affine_first_step", residual, x_star, None, beta, a_s, None)
    )


def kernel_family_fit(u, x_star: float, probes: Sequence[float]) -> KernelVerdict:
    """Decide membership by a power-law fit of the residual u(x) - x.

    Fits log|u(p) - p| = beta log|p - x_star| + log|alpha| over the
    probes; membership needs the worst log-space misfit at or below
    ``FAMILY_RESIDUAL_TOL`` and beta > 1 (a fit with beta <= 1 is
    reported with member False: the fixed point is not flat).  Probes at
    the fixed point, with a vanishing residual or where the map raises one
    of ``STEP_ERRORS`` are skipped, and so is a probe whose residual is
    not finite: an infinite or nan probe always is.  ``x_star`` and the
    probes must be real: the fit reads which side of ``x_star`` a probe
    lies on.  ``x_star`` must be finite too, or no distance to it is.
    """
    if isinstance(x_star, complex):
        raise ValueError("x_star must be real")
    if not math.isfinite(x_star):
        raise ValueError(f"x_star must be finite, got {x_star!r}")
    logr, logd = [], []
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
        if not logr:  # the first usable probe sets alpha's sign and the convention
            d_re = d.real if isinstance(d, complex) else d
            sign, above = (1.0 if d_re > 0 else -1.0), gap > 0
        logr.append(math.log(abs(gap)))
        logd.append(math.log(abs(d)))
    if len(logr) < 3:
        raise FitInconclusiveError(f"only {len(logr)} usable probes")
    beta, logc, residual = _line_fit(logr, logd)
    magnitude = math.exp(logc)
    alpha = sign * magnitude
    convention = "(x - x_star)^beta" if above else "(x_star - x)^beta"
    # beta must clear 1 by more than fit noise; a slope-1 affine map
    # fits beta = 1 + O(eps) and its fixed point is not flat
    member = residual <= FAMILY_RESIDUAL_TOL and beta > 1.0 + 1e-9
    evidence = "power_residual_fit" if member else "none"
    return _record(
        KernelVerdict, (member, evidence, residual, x_star, alpha, beta, None, convention)
    )
