"""Reference forms that ``fpaccel.accelerators`` must match bit for bit.

``reference_gauss_kronrod`` is the Gauss-Kronrod 7-15 rule of
``adaptive_gauss_kronrod``, and ``reference_integral_step`` is
``integral_step``'s value as first written.

The rule walks the node table in a loop, where the library writes each
node pair out as straight-line code, and it reads the library's own
tables, budget and bisection limit.  So the two agree on every result,
every evaluation point in order and the first exception raised, unless
the straight-line panel takes its nodes or adds its terms in another
order.
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
    adaptive_gauss_kronrod,
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


def reference_integral_step(x, g, depth):
    """``integral_step``'s value as first written, with ``** (depth - 1)`` and ``math.factorial``."""
    x = float(x)
    n = depth - 1
    fn = g.value if depth == 1 else lambda t: (x - t) ** n * g.value(t)
    return adaptive_gauss_kronrod(fn, 0.0, x) / math.factorial(n)
