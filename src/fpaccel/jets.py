"""Forward-mode jets carrying a value with its first two derivatives.

A :class:`Jet2` propagates ``(f(x), f'(x), f''(x))`` through arithmetic and
a small set of elementary functions.  Components are plain Python floats or
complexes; the flavour is set by the seed and flows through every
operation.  The accelerated fixed point steps elsewhere in this package
need exactly two derivative orders, so the truncation order is fixed at
two rather than generic.

Seed an evaluation point with :func:`lift`:

>>> y = lift(2.0) * lift(2.0)
>>> (y.v0, y.v1, y.v2)
(4.0, 4.0, 2.0)

A bare float, complex or int operand of ``+``, ``-``, ``*`` and ``/`` is
promoted to the constant jet ``Jet2(c, 0.0, 0.0)``, so each operation has
one formula, and the zero derivatives take part in it, signed zeros
included:

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

The elementary functions find :mod:`fpaccel.tape`'s traced value, a
:class:`Recorder`, by type, after their float, complex and :class:`Jet2`
tests, and let it record the call.

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
    "Scalar",
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


# True when every component of a float or complex is finite (no inf, no nan)
is_finite = cmath.isfinite


# The closure constants that a traced map body takes as parameters: values
# of exactly one of these types.  A subclass counts as any other constant.
_PARAMETER_TYPES = (float, complex)


class Recorder:
    """Base of a scalar that records the operations applied to it.

    :mod:`fpaccel.tape` traces a map body by running it on a :class:`Jet2`
    whose value is such a scalar, and the body's float and complex closure
    constants are such scalars too, its parameters; so :class:`Jet2`'s own
    arithmetic makes every recorded operation.  The scalar has no value
    to read, so this module never hands it to ``math``: ``_sin_cos``
    (behind :func:`sin`, :func:`cos` and :func:`sin_cos`) and :func:`exp`
    find it by type and take their ``math`` results from its
    ``calls(what, *functions)``; the jet then goes through ``_chain``, the
    one chain rule, as on a number.  A bare parameter operand of a jet's
    arithmetic is promoted to a constant jet, as a float is.
    :func:`pow_real` hands the jet and exponent to the ``pow_real`` of its
    base's value or of its exponent, which records the run-time branch to
    ``math.pow``.  Each ``isinstance(..., Recorder)`` test runs only after
    the float, complex and :class:`Jet2` tests have failed, so a number or
    a jet never meets one.
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

    # One formula per operation: a bare operand is first promoted to the
    # constant jet ``Jet2(c, 0.0, 0.0)`` (see _promote).  A reflected sum or
    # product keeps the jet on the left: ``c * a`` is ``a * k``, whose v2
    # has ``2.0 * (a.v1 * k.v1)`` where ``k * a`` has ``2.0 * (k.v1 * a.v1)``.

    def __add__(self, other):
        if type(other) is not Jet2:
            other = _promote(other)
            if other is NotImplemented:
                return NotImplemented
        return Jet2(self.v0 + other.v0, self.v1 + other.v1, self.v2 + other.v2)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Jet2:
            other = _promote(other)
            if other is NotImplemented:
                return NotImplemented
        return Jet2(self.v0 - other.v0, self.v1 - other.v1, self.v2 - other.v2)

    def __rsub__(self, other):
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not Jet2:
            other = _promote(other)
            if other is NotImplemented:
                return NotImplemented
        a0, a1, a2 = self.v0, self.v1, self.v2
        b0, b1, b2 = other.v0, other.v1, other.v2
        return Jet2(a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + 2.0 * (a1 * b1) + a2 * b0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Jet2:
            other = _promote(other)
            if other is NotImplemented:
                return NotImplemented
        # a zero value raises ZeroDivisionError, as it does on bare scalars
        b0, b1, b2 = other.v0, other.v1, other.v2
        q0 = self.v0 / b0
        q1 = (self.v1 - q0 * b1) / b0
        q2 = (self.v2 - 2.0 * (q1 * b1) - q0 * b2) / b0
        return Jet2(q0, q1, q2)

    def __rtruediv__(self, other):
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return Jet2(-self.v0, -self.v1, -self.v2)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if isinstance(exponent, (int, float)):
            return pow_real(self, exponent)
        return NotImplemented


def _promote(c):
    """A bare operand as the constant jet ``Jet2(c, 0.0, 0.0)``, or NotImplemented.

    A float or complex is kept as is (``c + 0.0`` would turn -0.0 into
    +0.0), an int (not a bool) becomes a float, and a :class:`Recorder`,
    a traced closure constant or a value read off a traced jet, is kept as
    a float would be.  Any other type gives NotImplemented.
    """
    if isinstance(c, (float, complex, Recorder)):
        return Jet2(c, 0.0, 0.0)
    if isinstance(c, int) and not isinstance(c, bool):
        return Jet2(float(c), 0.0, 0.0)
    return NotImplemented


def lift(x: Scalar) -> Jet2:
    """Seed the identity jet at ``x``: value x, slope 1, curvature 0."""
    return Jet2(x + 0.0, 1.0, 0.0)


# ---------- elementary functions ----------


def _chain(a: Jet2, f0: Scalar, f1: Scalar, f2: Scalar) -> Jet2:
    # chain rule through g(x) = f(a(x)), truncated at order two
    return Jet2(f0, f1 * a.v1, f2 * a.v1 * a.v1 + f1 * a.v2)


# sin, cos, sin_cos and exp raise OverflowError where math and cmath raise
# ValueError, on an infinite argument (or part): the argument had already
# overflowed, and a try costs nothing while nothing raises.  Every jet path
# ends in _chain.  sin, cos and exp test for a bare float first, what
# IterationMap.value passes on the real line (every quadrature node, every
# plain step), and hand it straight to math; ints, bools, float subclasses,
# complex numbers, jets and, last, a Recorder take the isinstance branches.


def _sin_cos(z: Scalar, what: str) -> tuple:
    # (sin z, cos z) for the jet paths of sin, cos and sin_cos and the
    # scalar path of sin_cos; a Recorder gives its recorded pair
    try:
        if isinstance(z, complex):
            return cmath.sin(z), cmath.cos(z)
        if type(z) is float or not isinstance(z, Recorder):
            return math.sin(z), math.cos(z)
    except ValueError:
        raise OverflowError(f"{what} of an infinite argument") from None
    return z.calls(what, "sin", "cos")


def sin(a: Jet2 | Scalar) -> Jet2 | Scalar:
    try:
        if type(a) is float:
            return math.sin(a)
        if not isinstance(a, Jet2):
            return cmath.sin(a) if isinstance(a, complex) else math.sin(a)
    except ValueError:
        raise OverflowError("sin of an infinite argument") from None
    s, c = _sin_cos(a.v0, "sin")
    return _chain(a, s, c, -s)


def cos(a: Jet2 | Scalar) -> Jet2 | Scalar:
    try:
        if type(a) is float:
            return math.cos(a)
        if not isinstance(a, Jet2):
            return cmath.cos(a) if isinstance(a, complex) else math.cos(a)
    except ValueError:
        raise OverflowError("cos of an infinite argument") from None
    s, c = _sin_cos(a.v0, "cos")
    return _chain(a, c, -s, -c)


def sin_cos(a: Jet2 | Scalar) -> tuple[Jet2, Jet2] | tuple[Scalar, Scalar]:
    """``(sin(a), cos(a))`` with the bits of the two calls, from one sin and one cos."""
    if not isinstance(a, Jet2):
        return _sin_cos(a, "sin_cos")
    s, c = _sin_cos(a.v0, "sin_cos")
    ms = -s
    return _chain(a, s, c, ms), _chain(a, c, ms, -c)


def exp(a: Jet2 | Scalar) -> Jet2 | Scalar:
    try:
        if type(a) is float:
            return math.exp(a)
        if not isinstance(a, Jet2):
            return cmath.exp(a) if isinstance(a, complex) else math.exp(a)
        z = a.v0
        if isinstance(z, complex):
            e = cmath.exp(z)
        elif type(z) is float or not isinstance(z, Recorder):
            e = math.exp(z)
        else:
            (e,) = z.calls("exp", "exp")
    except ValueError:
        raise OverflowError("exp of an infinite argument") from None
    return _chain(a, e, e, e)


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
        if isinstance(exponent, Recorder):
            return exponent.pow_real(a, exponent)
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
        if not (cplx or type(z) is float) and isinstance(z, Recorder):
            return z.pow_real(a, b)
        integral = b == int(b)
        if z == 0:
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
