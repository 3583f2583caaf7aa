"""Reference Gauss-Kronrod 7-15 rule that ``fpaccel.accelerators.adaptive_gauss_kronrod`` must match bit for bit.

It walks the node table in a loop, where the library writes each node pair
out as straight-line code, and it reads the library's own tables, budget
and bisection limit.  So the two agree on every result, every evaluation
point in order and the first exception raised, unless the straight-line
panel takes its nodes or adds its terms in another order.
"""

import math

from fpaccel.accelerators import (
    _WG,
    _WG_CENTRE,
    _WGK,
    _WGK_CENTRE,
    _XGK,
    QUAD_TOL,
    QuadratureError,
)


def reference_gauss_kronrod(f, a, b):
    """Integral of f over [a, b], as ``adaptive_gauss_kronrod`` defines it."""
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    return sign * _branch(f, a, b, None, 48)


def _branch(f, a, b, tol, depth):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    kronrod = _WGK_CENTRE * fc
    gauss = _WG_CENTRE * fc
    for k, x in enumerate(_XGK):
        dx = h * x
        pair = f(c - dx) + f(c + dx)
        kronrod += _WGK[k] * pair
        if k % 2:
            gauss += _WG[k // 2] * pair
    if tol is None:
        tol = max(QUAD_TOL, 1e-15 * abs(h * kronrod))
        if tol == math.inf:
            tol = QUAD_TOL
    if abs(kronrod - gauss) * h <= tol:
        return h * kronrod
    if depth <= 0:
        raise QuadratureError(f"tolerance not reached on [{a:g}, {b:g}]")
    return _branch(f, a, c, 0.5 * tol, depth - 1) + _branch(f, c, b, 0.5 * tol, depth - 1)
