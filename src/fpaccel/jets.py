"""Forward-mode jets carrying a value with its first two derivatives.

A :class:`Jet2` propagates ``(f(x), f'(x), f''(x))`` through arithmetic and
a small set of elementary functions.  Components are plain Python floats or
complexes; the flavour is set by the seed and flows through every
operation.  The accelerated fixed point steps elsewhere in this package
need exactly two derivative orders, so the truncation order is fixed at
two rather than generic.

Seed an evaluation point with :func:`lift` and constants with
:func:`const`:

>>> y = lift(2.0) * lift(2.0)
>>> (y.v0, y.v1, y.v2)
(4.0, 4.0, 2.0)

A bare float, complex or int operand of ``+``, ``-`` and ``*`` is not
promoted to a constant jet; the sums are written out with its zero
derivatives kept, so they round exactly as the promoted form would,
signed zeros included:

>>> (Jet2(1.0, -0.0, -0.0) + 1.0).as_tuple()
(2.0, 0.0, 0.0)

The elementary functions (:func:`sin`, :func:`cos`, :func:`sin_cos`,
:func:`exp` and :func:`pow_real`) also accept a bare float or complex.
On a scalar they return the value alone, after the same domain checks as
on a jet, so one function body serves both evaluations: run on
``lift(x)`` it gives the jet, run on ``x`` it gives exactly that jet's
``v0``.  Such a body raises a fractional power with :func:`pow_real`, not
``**``: on a bare negative float ``**`` returns a complex number where
:func:`pow_real` raises :class:`JetDomainError`.

>>> sin(0.5) == sin(lift(0.5)).v0
True

:func:`sin_cos` returns the pair ``(sin(a), cos(a))``, jets or values,
with the bits of the two calls but one math sine and cosine evaluation:

>>> sin_cos(lift(0.5)) == (sin(lift(0.5)), cos(lift(0.5)))
True

Real jets use :mod:`math`, complex jets use :mod:`cmath`.  On platforms
where ``cmath`` reduces real-axis arguments through the same kernels as
``math`` (this is the common case), a complex jet seeded on the real axis
keeps its real parts bitwise identical to the real computation.
"""

from __future__ import annotations

import cmath
import math
from typing import Union

Scalar = Union[float, complex]

__all__ = [
    "Jet2",
    "JetDomainError",
    "SingularJetError",
    "Scalar",
    "const",
    "cos",
    "exp",
    "is_finite",
    "lift",
    "pow_real",
    "sin",
    "sin_cos",
]


class JetDomainError(ValueError):
    """Elementary function evaluated outside its domain."""


class SingularJetError(ZeroDivisionError):
    """Division by a jet whose value component is exactly zero."""


# True when every component of a float or complex is finite (no inf, no nan)
is_finite = cmath.isfinite


class Recorder:
    """Base of a symbol that records the elementary functions applied to it.

    :mod:`fpaccel.tape` runs a map body on such a symbol to trace it.
    ``math`` rejects the symbol, and so does any comparison, with a
    ``TypeError``; each elementary function catches that and hands the
    call to the symbol's method of the same name, so the float, complex
    and :class:`Jet2` paths run no extra test.
    """

    __slots__ = ()


class Jet2:
    """Truncated Taylor triple ``(v0, v1, v2)``: value, slope, curvature.

    ``v2`` is the actual second derivative, not the halved Taylor
    coefficient.  Arithmetic follows the product, quotient and chain rules
    truncated at order two.
    """

    __slots__ = ("v0", "v1", "v2")

    def __init__(self, v0: Scalar, v1: Scalar = 0.0, v2: Scalar = 0.0):
        self.v0 = v0
        self.v1 = v1
        self.v2 = v2

    # ---------- construction helpers ----------

    def as_tuple(self) -> tuple[Scalar, Scalar, Scalar]:
        return (self.v0, self.v1, self.v2)

    def __repr__(self) -> str:
        return f"Jet2({self.v0!r}, {self.v1!r}, {self.v2!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Jet2):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __hash__(self):
        return hash(self.as_tuple())

    # ---------- arithmetic ----------

    # A bare float, complex or int operand is not promoted to a jet: each
    # scalar branch is the jet-jet formula with ``(c, 0.0, 0.0)`` written in,
    # zero terms kept, so -0.0 and inf*0 come out as with the promotion.
    # A float operand, the common case, skips the _scalar call.

    def __add__(self, other):
        if type(other) is Jet2:
            return Jet2(self.v0 + other.v0, self.v1 + other.v1, self.v2 + other.v2)
        c = other if type(other) is float else _scalar(other)
        if c is NotImplemented:
            return NotImplemented
        return Jet2(self.v0 + c, self.v1 + 0.0, self.v2 + 0.0)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Jet2:
            return Jet2(self.v0 - other.v0, self.v1 - other.v1, self.v2 - other.v2)
        c = other if type(other) is float else _scalar(other)
        if c is NotImplemented:
            return NotImplemented
        return Jet2(self.v0 - c, self.v1 - 0.0, self.v2 - 0.0)

    def __rsub__(self, other):
        c = other if type(other) is float else _scalar(other)
        if c is NotImplemented:
            return NotImplemented
        return Jet2(c - self.v0, 0.0 - self.v1, 0.0 - self.v2)

    def __mul__(self, other):
        a0, a1, a2 = self.v0, self.v1, self.v2
        if type(other) is Jet2:
            b0, b1, b2 = other.v0, other.v1, other.v2
            return Jet2(a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + 2.0 * (a1 * b1) + a2 * b0)
        c = other if type(other) is float else _scalar(other)
        if c is NotImplemented:
            return NotImplemented
        return Jet2(a0 * c, a0 * 0.0 + a1 * c, a0 * 0.0 + 2.0 * (a1 * 0.0) + a2 * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Jet2:
            return _div(self, other)
        c = other if type(other) is float else _scalar(other)
        if c is NotImplemented:
            return NotImplemented
        return _div(self, Jet2(c, 0.0, 0.0))

    def __rtruediv__(self, other):
        c = other if type(other) is float else _scalar(other)
        if c is NotImplemented:
            return NotImplemented
        return _div(Jet2(c, 0.0, 0.0), self)

    def __neg__(self):
        return Jet2(-self.v0, -self.v1, -self.v2)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if isinstance(exponent, (int, float)):
            return pow_real(self, exponent)
        return NotImplemented


def _scalar(x):
    """A bare float or complex as is, an int (not a bool) as a float, else NotImplemented."""
    if isinstance(x, (float, complex)):
        return x  # as is: ``x + 0.0`` turns -0.0 parts into +0.0
    if isinstance(x, int) and not isinstance(x, bool):
        return float(x)
    return NotImplemented


def _div(a: Jet2, b: Jet2) -> Jet2:
    if b.v0 == 0:
        raise SingularJetError("division by a jet with zero value")
    q0 = a.v0 / b.v0
    q1 = (a.v1 - q0 * b.v1) / b.v0
    q2 = (a.v2 - 2.0 * (q1 * b.v1) - q0 * b.v2) / b.v0
    return Jet2(q0, q1, q2)


def lift(x: Scalar) -> Jet2:
    """Seed the identity jet at ``x``: value x, slope 1, curvature 0."""
    return Jet2(x + 0.0, 1.0, 0.0)


def const(c: Scalar) -> Jet2:
    """Seed a constant jet: value c, slope 0, curvature 0."""
    return Jet2(float(c) if isinstance(c, int) else c, 0.0, 0.0)


# ---------- elementary functions ----------


def _chain(a: Jet2, f0: Scalar, f1: Scalar, f2: Scalar) -> Jet2:
    # chain rule through g(x) = f(a(x)), truncated at order two
    return Jet2(f0, f1 * a.v1, f2 * a.v1 * a.v1 + f1 * a.v2)


# sin, cos, sin_cos and exp catch the ValueError that math and cmath raise
# on an infinite argument (or part) and raise OverflowError instead: the
# argument had already overflowed, and a try costs nothing while nothing
# raises.  Each writes out _chain's products in _chain's order.


def sin(a: Jet2 | Scalar) -> Jet2 | Scalar:
    try:
        if not isinstance(a, Jet2):
            return cmath.sin(a) if isinstance(a, complex) else math.sin(a)
        z = a.v0
        if isinstance(z, complex):
            s, c = cmath.sin(z), cmath.cos(z)
        else:
            s, c = math.sin(z), math.cos(z)
    except ValueError:
        raise OverflowError("sin of an infinite argument") from None
    except TypeError:
        if isinstance(a, Recorder):
            return a.sin()
        raise
    a1 = a.v1
    return Jet2(s, c * a1, -s * a1 * a1 + c * a.v2)


def cos(a: Jet2 | Scalar) -> Jet2 | Scalar:
    try:
        if not isinstance(a, Jet2):
            return cmath.cos(a) if isinstance(a, complex) else math.cos(a)
        z = a.v0
        if isinstance(z, complex):
            s, c = cmath.sin(z), cmath.cos(z)
        else:
            s, c = math.sin(z), math.cos(z)
    except ValueError:
        raise OverflowError("cos of an infinite argument") from None
    except TypeError:
        if isinstance(a, Recorder):
            return a.cos()
        raise
    a1, ms = a.v1, -s
    return Jet2(c, ms * a1, -c * a1 * a1 + ms * a.v2)


def sin_cos(a: Jet2 | Scalar) -> tuple[Jet2, Jet2] | tuple[Scalar, Scalar]:
    """``(sin(a), cos(a))`` with the bits of the two calls, from one sin and one cos."""
    jet = isinstance(a, Jet2)
    z = a.v0 if jet else a
    try:
        if isinstance(z, complex):
            s, c = cmath.sin(z), cmath.cos(z)
        else:
            s, c = math.sin(z), math.cos(z)
    except ValueError:
        raise OverflowError("sin_cos of an infinite argument") from None
    except TypeError:
        if isinstance(a, Recorder):
            return a.sin_cos()
        raise
    if not jet:
        return s, c
    a1, a2, ms = a.v1, a.v2, -s
    return Jet2(s, c * a1, ms * a1 * a1 + c * a2), Jet2(c, ms * a1, -c * a1 * a1 + ms * a2)


def exp(a: Jet2 | Scalar) -> Jet2 | Scalar:
    try:
        if not isinstance(a, Jet2):
            return cmath.exp(a) if isinstance(a, complex) else math.exp(a)
        z = a.v0
        e = cmath.exp(z) if isinstance(z, complex) else math.exp(z)
    except ValueError:
        raise OverflowError("exp of an infinite argument") from None
    except TypeError:
        if isinstance(a, Recorder):
            return a.exp()
        raise
    a1 = a.v1
    return Jet2(e, e * a1, e * a1 * a1 + e * a.v2)


def _pow_factors(a: Jet2, f0: Scalar, d1: Scalar, d2: Scalar) -> Jet2:
    # chain rule with possibly infinite d1/d2; 0 * inf is forced to the
    # flavour-matching zero so a constant argument keeps a finite jet
    zero = a.v1 * 0
    t1 = d1 * a.v1 if a.v1 != 0 else zero
    t2 = d2 * a.v1 * a.v1 if a.v1 != 0 else zero
    t3 = d1 * a.v2 if a.v2 != 0 else zero
    return Jet2(f0, t1, t2 + t3)


def _zero_base_power(e: float) -> float:
    # 0**e for real e without raising: 0 for e>0, 1 at e=0, inf for e<0
    if e > 0.0:
        return 0.0
    if e == 0.0:
        return 1.0
    return math.inf


def pow_real(a: Jet2 | Scalar, exponent: float) -> Jet2 | Scalar:
    """Raise a jet or a scalar to a fixed real exponent.

    Negative real bases are allowed only for integer exponents; a zero
    base needs a non-negative exponent, and its derivative components
    become infinite when the exponent is below the derivative order.
    Complex bases use the principal branch.  Map bodies call this rather
    than ``**``: on a bare negative float, ``**`` with a fractional
    exponent returns a complex number instead of raising.
    """
    if isinstance(exponent, bool) or not isinstance(exponent, (int, float)):
        raise TypeError("exponent must be a real number")
    b = float(exponent)
    if not math.isfinite(b):
        raise JetDomainError("exponent must be finite")
    jet = isinstance(a, Jet2)
    z = a.v0 if jet else a
    c2 = b * (b - 1.0)
    # a positive real float base, the common case, goes straight to math.pow
    if type(z) is not float or not z > 0.0:
        cplx = isinstance(z, complex)
        integral = b == int(b)
        try:
            is_zero = z == 0
        except TypeError:
            if isinstance(a, Recorder):
                return a.pow_real(b)
            raise
        if is_zero:
            zero = complex(0.0) if cplx else 0.0
            if b == 0.0:
                one = zero + 1.0
                return Jet2(one, zero, zero) if jet else one
            if b < 0.0:
                raise JetDomainError("zero base with negative exponent")
            if cplx and not integral:
                raise JetDomainError("complex zero base with fractional exponent has no finite jet")
            if not jet:
                return zero
            d1 = b * _zero_base_power(b - 1.0)
            d2 = 0.0 if c2 == 0.0 else c2 * _zero_base_power(b - 2.0)
            return _pow_factors(a, zero, d1, d2)
        if cplx:
            f0 = z**b
            if not jet:
                return f0
            d1 = b * z ** (b - 1.0)
            d2 = c2 * z ** (b - 2.0)
            return _chain(a, f0, d1, d2)
        if z < 0.0 and not integral:
            raise JetDomainError(
                f"negative real base {z!r} with fractional exponent; lift to complex instead"
            )
    f0 = math.pow(z, b)
    if not jet:
        return f0
    d1 = b * math.pow(z, b - 1.0)
    d2 = 0.0 if c2 == 0.0 else c2 * math.pow(z, b - 2.0)
    return _chain(a, f0, d1, d2)
