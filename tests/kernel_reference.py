"""Reference membership tests that ``fpaccel.kernel`` must match bit for bit.

``reference_line_fit`` sums its generators one term at a time, and
``reference_affinity_test`` takes each sample through ``first_newton_step``
and builds its verdict with keywords, where the library sums through
``map``, runs the bare first pass and builds its records in C.  Both read
the library's own tolerances and sample count.  So the two agree on every
field of every verdict, and on the type of the first exception raised,
unless the library changes an operation or its order.
"""

import cmath
import math

from fpaccel.accelerators import STEP_ERRORS, first_newton_step
from fpaccel.kernel import (
    _AFFINITY_SAMPLES,
    AFFINE_RESIDUAL_TOL,
    FitInconclusiveError,
    KernelVerdict,
)


def reference_line_fit(xs, ys):
    """Least-squares line y = a x + b, as ``kernel._line_fit`` defines it."""
    n = len(xs)
    x_mean, y_mean = sum(xs) / n, sum(ys) / n
    dxs = [x - x_mean for x in xs]
    spread = sum(abs(d) ** 2 for d in dxs)
    if spread == 0.0 or xs.count(xs[0]) == n:
        raise FitInconclusiveError("all samples sit at the same abscissa")
    a = sum(d.conjugate() * (y - y_mean) for d, y in zip(dxs, ys)) / spread
    b = y_mean - a * x_mean
    return a, b, max(abs(y - (a * x + b)) for x, y in zip(xs, ys))


def reference_affinity_test(u, center, radius):
    """``kernel.affinity_test``'s verdict for a finite center and a valid radius."""
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
    a_s, b_s, residual = reference_line_fit(xs, vs)
    if not residual <= AFFINE_RESIDUAL_TOL * (1.0 + abs(b_s)):
        return KernelVerdict(False, "none", residual, slope=a_s)
    den = 1.0 - a_s
    if abs(den) <= 1e-9:
        raise FitInconclusiveError("affine first step with unit slope has no fixed point")
    beta_val = 1.0 / den
    beta = None
    if isinstance(beta_val, complex):
        if abs(beta_val.imag) <= 1e-6 * (1.0 + abs(beta_val.real)):
            beta = beta_val.real
    else:
        beta = float(beta_val)
    return KernelVerdict(
        True, "affine_first_step", residual, x_star=b_s / den, beta=beta, slope=a_s
    )
