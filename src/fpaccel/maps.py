"""Iteration maps and the bundled corpus of fixed point problems.

An :class:`IterationMap` is a named map body.  A :class:`ProblemSpec`
bundles a map with a start point and its fixed point when known.  The
reference cells the CLI suites check live with those suites, in
:mod:`fpaccel.cli`.
"""

from __future__ import annotations

import math
from types import FunctionType
from typing import Callable, NamedTuple, Optional

from . import jets
from .jets import Jet2, Scalar, is_finite, lift

__all__ = [
    "CorpusError",
    "IterationMap",
    "ProblemSpec",
    "corpus_lookup",
    "corpus_names",
    "kernel_family_map",
]


class CorpusError(ValueError):
    """Unknown problem name or invalid problem parameters."""


# Calls of IterationMap.at on one body before the body is traced into
# straight-line code: tracing, compiling and checking a corpus body take
# 0.15-0.6 ms, which 150 (kvb_complex) to 800 (sin) compiled calls save.
COMPILE_AFTER = 1000


class IterationMap(NamedTuple):
    """A named self-map u.

    ``fn`` is the map body.  :meth:`at` calls it on a :class:`Jet2` and
    :meth:`value` on a bare float or complex, so the body uses only
    arithmetic and the elementary functions of :mod:`fpaccel.jets`, and
    raises a fractional power with ``jets.pow_real`` rather than ``**``.

    The body must be a pure function of its argument.  After
    ``COMPILE_AFTER`` calls of :meth:`at` on one body (a plain function),
    :mod:`fpaccel.tape` traces it once into straight-line code that gives
    the same bits, and :meth:`at` runs that code from then on; constants
    the body reads from closures or globals are captured at that moment.
    A body that cannot be traced, or whose code fails the bitwise check
    against :class:`Jet2`, stays on :class:`Jet2`.  The state lives on
    the body, as its attribute ``_fpaccel_at``: the call count, then the
    compiled function or None.
    """

    name: str
    fn: Callable[[Jet2 | Scalar], Jet2 | Scalar]

    def at(self, x: Scalar) -> Jet2:
        """Evaluate the map and its first two derivatives at ``x``."""
        fn = self.fn
        compiled = getattr(fn, "_fpaccel_at", 0)
        if type(compiled) is int:
            if compiled < COMPILE_AFTER:
                # only a plain function counts: a bound method shares its
                # function's attributes, and other callables may hold none
                if type(fn) is FunctionType:
                    fn._fpaccel_at = compiled + 1
                return fn(lift(x))
            from . import tape  # here, so that import fpaccel does not load it

            compiled = fn._fpaccel_at = tape.compile_at(fn, x)
        if compiled is None:
            return fn(lift(x))
        return compiled(x)

    def value(self, x: Scalar) -> Scalar:
        """Evaluate the map alone at ``x``; equals ``at(x).v0``."""
        return self.fn(x + 0.0)


class ProblemSpec(NamedTuple):
    map: IterationMap
    x0: Scalar
    x_star: Optional[Scalar] = None


# ---------- map constructors ----------


def _logistic_fn(a: float) -> Callable[[Jet2 | Scalar], Jet2 | Scalar]:
    def u(x: Jet2 | Scalar) -> Jet2 | Scalar:
        return a * x * (1.0 - x)

    return u


def _fdil_fn(x: Jet2 | Scalar) -> Jet2 | Scalar:
    return x + jets.pow_real(x - 1.0, 1.5)


def _kvb_fn(z: Jet2 | Scalar) -> Jet2 | Scalar:
    # entire function with a double zero at 2; explicit products, no pow.
    # z**3 is zz * z, which is how z * z * z groups, so sharing zz (and one
    # sin_cos) keeps every bit
    zm2 = z - 2.0
    zz = z * z
    e = jets.exp(2.0 * z)
    s, c = jets.sin_cos(z)
    f = zz * zm2 * zm2 * (e * c + zz * z - 1.0 - s)
    return z - f


def kernel_family_map(alpha: Scalar, beta: float, x_star: Scalar) -> IterationMap:
    """Map ``u(x) = x + alpha*(x_star - x)**beta`` with a flat fixed point.

    For beta > 1 this is the model family on which the first two
    accelerated steps degenerate to an affine map and a constant; used by
    the kernel detection tests and demos.
    """
    if not 0 < beta < math.inf:
        raise CorpusError("beta must be positive and finite")
    if alpha == 0 or not is_finite(alpha):
        raise CorpusError(f"alpha must be finite and nonzero, got {alpha!r}")
    if not is_finite(x_star):
        raise CorpusError(f"x_star must be finite, got {x_star!r}")

    def u(x: Jet2 | Scalar) -> Jet2 | Scalar:
        return x + alpha * jets.pow_real(x_star - x, beta)

    return IterationMap(f"kernel_family(alpha={alpha}, beta={beta}, x_star={x_star})", u)


def _s_family(alphas: tuple, r: float, x_star: Scalar) -> IterationMap:
    if len(alphas) == 0:
        raise CorpusError("s_family needs at least one coefficient")
    if len(alphas) > 4:
        raise CorpusError("s_family truncated at four terms")
    if not 1 <= r < math.inf:
        raise CorpusError("r must be finite and at least 1")
    coeffs = tuple(float(a) if not isinstance(a, complex) else a for a in alphas)
    if not all(map(is_finite, coeffs)):
        raise CorpusError(f"s_family parameter alphas must be finite, got {alphas!r}")
    if not any(coeffs):
        raise CorpusError("all coefficients are zero")

    def u(x: Jet2 | Scalar) -> Jet2 | Scalar:
        d = x - x_star
        acc = x
        for i, a in enumerate(coeffs, start=1):
            if a != 0:
                acc = acc + a * jets.pow_real(d, r + i)
        return acc

    return IterationMap(f"s_family(alphas={alphas}, r={r}, x_star={x_star})", u)


# ---------- corpus ----------


def _build_sin(params: dict) -> ProblemSpec:
    _reject_params("sin", params)
    return ProblemSpec(IterationMap("sin", jets.sin), 3.0, 0.0)


def _build_logistic(params: dict) -> ProblemSpec:
    a = _pop_number(params, "logistic", "a", 1.0)
    _reject_params("logistic", params)
    if isinstance(a, complex):
        raise CorpusError("parameter a must be real")
    a = float(a)
    if a == 0.0:
        raise CorpusError("a=0 collapses the logistic map to a constant")
    return ProblemSpec(IterationMap(f"logistic(a={a:g})", _logistic_fn(a)), 0.5, (a - 1.0) / a)


def _build_fdil(params: dict) -> ProblemSpec:
    _reject_params("fdil", params)
    # real x >= 1; lift the start to complex elsewhere
    return ProblemSpec(IterationMap("fdil", _fdil_fn), 1.5, 1.0)


def _build_power_family(params: dict) -> ProblemSpec:
    alpha = _pop_number(params, "power_family", "alpha")
    r = _pop_number(params, "power_family", "r")
    x_star = _pop_number(params, "power_family", "x_star", 0.0)
    _reject_params("power_family", params)
    r = float(r)
    if not 1.0 < r < math.inf:
        raise CorpusError("power_family needs a finite r > 1")
    m = kernel_family_map(alpha, r, x_star)._replace(
        name=f"power_family(alpha={alpha}, r={r}, x_star={x_star})",
    )
    return ProblemSpec(m, x_star + 0.25, x_star)


def _build_s_family(params: dict) -> ProblemSpec:
    if "alphas" not in params:
        raise CorpusError("s_family needs parameter alphas")
    alphas = params.pop("alphas")
    r = _pop_number(params, "s_family", "r")
    x_star = _pop_number(params, "s_family", "x_star", 0.0)
    _reject_params("s_family", params)
    if not isinstance(alphas, (tuple, list)):
        alphas = (alphas,)
    m = _s_family(tuple(alphas), float(r), x_star)
    return ProblemSpec(m, x_star + 0.25, x_star)


def _build_kvb(params: dict) -> ProblemSpec:
    _reject_params("kvb_complex", params)
    m = IterationMap("kvb_complex", _kvb_fn)
    return ProblemSpec(m, complex(1.9, 0.1), complex(2.0, 0.0))


_REQUIRED = object()


def _pop_number(params: dict, problem: str, key: str, default=_REQUIRED):
    # the CLI parses "K=1,2" into a tuple, which only s_family's alphas takes
    value = params.pop(key, default)
    if value is _REQUIRED:
        raise CorpusError(f"{problem} needs parameter {key}")
    if isinstance(value, (tuple, list)):
        raise CorpusError(f"{problem} parameter {key} takes one number, got {value!r}")
    if not is_finite(value):
        raise CorpusError(f"{problem} parameter {key} must be finite, got {value!r}")
    return value


def _reject_params(name: str, leftover: dict) -> None:
    if leftover:
        raise CorpusError(f"{name} got unknown parameters {sorted(leftover)}")


_BUILDERS = {
    "sin": _build_sin,
    "logistic": _build_logistic,
    "fdil": _build_fdil,
    "power_family": _build_power_family,
    "s_family": _build_s_family,
    "kvb_complex": _build_kvb,
}


def corpus_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def corpus_lookup(name: str, **params) -> ProblemSpec:
    """Build a bundled problem by name.

    Raises :class:`CorpusError` for unknown names or bad parameters.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise CorpusError(
            f"unknown problem {name!r}; available: {', '.join(corpus_names())}"
        ) from None
    return builder(dict(params))
