"""Exact rational values of the two Newton passes, for the steps' tests to measure rounding against.

For a polynomial map with rational coefficients, u(x), u'(x) and u''(x) at
a float x are rationals, and so are both passes of the standard step:

    v  = x + (u - x) / (1 - u'),
    v' = u'' (u - x) / (1 - u')^2,
    w  = (v - x v') / (1 - v').

``exact_steps`` computes them with ``fractions.Fraction`` from the float x
itself, so the library's float step differs from them only by its own
rounding.  Where a pass divides by an exact 0 it raises
``ZeroDivisionError``.
"""

from fractions import Fraction
from typing import NamedTuple

# A corpus map with its polynomial u(x), coefficients from x^0 up.
POLYNOMIAL_MAPS = {
    # a x (1 - x) with a = 1
    "logistic a=1": (("logistic", {"a": 1.0}), (0, 1, -1)),
    # x + alpha (x* - x)^r with alpha = 1, r = 3, x* = 0
    "power_family alpha=1 r=3": (("power_family", {"alpha": 1.0, "r": 3.0}), (0, 1, 0, -1)),
    # x + a1 d^(r+1) + a2 d^(r+2) with d = x - x*, a1 = 1, a2 = 1/2, r = 1, x* = 0
    "s_family alphas=1,0.5 r=1": (("s_family", {"alphas": (1.0, 0.5), "r": 1.0}), (0, 1, 1, Fraction(1, 2))),
}


class ExactSteps(NamedTuple):
    u: Fraction
    du: Fraction
    d2u: Fraction
    v: Fraction  # the first pass
    dv: Fraction  # its slope v'
    w: Fraction  # the standard step


def _derivative(coeffs: tuple) -> tuple:
    return tuple(k * c for k, c in enumerate(coeffs))[1:]


def _horner(coeffs: tuple, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def exact_steps(coeffs: tuple, x: float) -> ExactSteps:
    """u, u', u'', v, v' and w at the float ``x`` for the polynomial ``coeffs``, exactly."""
    q = Fraction(x)
    du_coeffs = _derivative(coeffs)
    u, du, d2u = _horner(coeffs, q), _horner(du_coeffs, q), _horner(_derivative(du_coeffs), q)
    den = 1 - du
    v = q + (u - q) / den
    dv = d2u * (u - q) / (den * den)
    return ExactSteps(u, du, d2u, v, dv, (v - q * dv) / (1 - dv))
