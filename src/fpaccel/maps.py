"""Iteration maps and the bundled corpus of fixed point problems.

An :class:`IterationMap` is a named map body.  A :class:`ProblemSpec`
bundles a map with a start point, its fixed point when known, and the
golden values the CLI suites check.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from . import jets
from .jets import Jet2, Scalar, lift

__all__ = [
    "CorpusError",
    "GoldenValue",
    "IterationMap",
    "ProblemSpec",
    "corpus_lookup",
    "corpus_names",
    "kernel_family_map",
]


class CorpusError(ValueError):
    """Unknown problem name or invalid problem parameters."""


class IterationMap(NamedTuple):
    """A named self-map u.

    ``fn`` is the map body.  :meth:`at` calls it on a :class:`Jet2` and
    :meth:`value` on a bare float or complex, so the body uses only
    arithmetic and the elementary functions of :mod:`fpaccel.jets`, and
    raises a fractional power with ``jets.pow_real`` rather than ``**``.
    """

    name: str
    fn: Callable[[Jet2 | Scalar], Jet2 | Scalar]

    def at(self, x: Scalar) -> Jet2:
        """Evaluate the map and its first two derivatives at ``x``."""
        return self.fn(lift(x))

    def value(self, x: Scalar) -> Scalar:
        """Evaluate the map alone at ``x``; equals ``at(x).v0``."""
        return self.fn(x + 0.0)


class GoldenValue(NamedTuple):
    """One externally sourced reference cell for a method column.

    ``part`` selects the compared component of the iterate ("re" or "im");
    ``mode`` is "abs" (absolute tolerance), "rel" (relative) or
    "factor" (magnitudes within a multiplicative band, for cells pinned
    only up to arithmetic noise).
    """

    method: str
    index: int  # shadows tuple.index; the row of the column to check
    expected: float
    part: str = "re"
    mode: str = "abs"
    tol: float = 1e-6

    def check(self, got: Scalar) -> tuple[bool, str]:
        if self.part == "re":
            g = got.real if isinstance(got, complex) else got
        elif self.part == "im":
            g = got.imag if isinstance(got, complex) else 0.0
        else:
            raise ValueError(f"bad golden part {self.part!r}")
        if self.mode == "abs":
            ok = abs(g - self.expected) <= self.tol
            detail = f"{g!r} vs {self.expected!r} (abs tol {self.tol:g})"
        elif self.mode == "rel":
            ok = abs(g - self.expected) <= self.tol * abs(self.expected)
            detail = f"{g!r} vs {self.expected!r} (rel tol {self.tol:g})"
        elif self.mode == "factor":
            lo, hi = abs(self.expected) / self.tol, abs(self.expected) * self.tol
            ok = lo <= abs(g) <= hi
            detail = f"|{g!r}| vs {self.expected!r} (within factor {self.tol:g})"
        else:
            raise ValueError(f"bad golden mode {self.mode!r}")
        return ok, detail


class ProblemSpec(NamedTuple):
    map: IterationMap
    x0: Scalar
    x_star: Optional[Scalar] = None
    golden: tuple[GoldenValue, ...] = ()


# ---------- map constructors ----------


def _logistic_fn(a: float) -> Callable[[Jet2 | Scalar], Jet2 | Scalar]:
    def u(x: Jet2 | Scalar) -> Jet2 | Scalar:
        return a * x * (1.0 - x)

    return u


def _fdil_fn(x: Jet2 | Scalar) -> Jet2 | Scalar:
    return x + jets.pow_real(x - 1.0, 1.5)


def _kvb_fn(z: Jet2 | Scalar) -> Jet2 | Scalar:
    # entire function with a double zero at 2; explicit products, no pow
    zm2 = z - 2.0
    f = z * z * zm2 * zm2 * (jets.exp(2.0 * z) * jets.cos(z) + z * z * z - 1.0 - jets.sin(z))
    return z - f


def kernel_family_map(alpha: Scalar, beta: float, x_star: Scalar) -> IterationMap:
    """Map ``u(x) = x + alpha*(x_star - x)**beta`` with a flat fixed point.

    For beta > 1 this is the model family on which the first two
    accelerated steps degenerate to an affine map and a constant; used by
    the kernel detection tests and demos.
    """
    if not 0 < beta < math.inf:
        raise CorpusError("beta must be positive and finite")
    if alpha == 0:
        raise CorpusError("alpha must be nonzero")

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


# ---------- golden tables ----------

_SIN_GOLDEN = (
    GoldenValue("plain", 1, 0.14112, tol=1e-5),
    GoldenValue("plain", 2, 0.140652, tol=1e-6),
    GoldenValue("plain", 3, 0.140189, tol=1e-6),
    GoldenValue("plain", 4, 0.13973, tol=1e-5),
    GoldenValue("first_newton", 1, 1.56337, tol=1e-5),
    GoldenValue("first_newton", 2, 0.995758, tol=1e-6),
    GoldenValue("first_newton", 3, 0.652467, tol=1e-6),
    GoldenValue("first_newton", 4, 0.431844, tol=1e-6),
    GoldenValue("standard", 1, 1.40041, tol=1e-5),
    GoldenValue("standard", 2, 0.173163, tol=1e-6),
    GoldenValue("standard", 3, 0.000345858, tol=1e-9),
    GoldenValue("standard", 4, 7.30548e-13, mode="factor", tol=10.0),
    GoldenValue("aitken", 0, 0.140652, tol=1e-6),
    GoldenValue("aitken", 1, 0.0938926, tol=1e-7),
    GoldenValue("aitken", 2, 0.0935825, tol=1e-7),
    GoldenValue("theta2", 0, 0.141125, tol=1e-4),
    GoldenValue("theta2", 1, -0.000754788, tol=1e-7),
)

_LOGISTIC_GOLDEN = (
    GoldenValue("plain", 1, 0.25, tol=1e-12),
    GoldenValue("plain", 2, 0.1875, tol=1e-12),
    GoldenValue("plain", 3, 0.15234375, tol=1e-12),
    GoldenValue("phi", 1, -0.25, tol=1e-12),
    GoldenValue("phi", 2, -0.025, tol=1e-12),
    GoldenValue("phi", 3, -0.00030487804878048784, tol=1e-12),
)

_KVB_GOLDEN = (
    GoldenValue("plain", 1, 2.391422135261736, mode="rel", tol=1e-9),
    GoldenValue("plain", 1, -0.4699667, part="im", tol=2e-7),
    GoldenValue("plain", 2, -190.6272479365824, mode="rel", tol=1e-9),
    GoldenValue("plain", 2, 83.78040, part="im", tol=2e-5),
    GoldenValue("plain", 3, -1.078985533e45, mode="rel", tol=1e-9),
    GoldenValue("plain", 3, 2.057e45, part="im", mode="rel", tol=1e-3),
    GoldenValue("standard", 1, 2.033556020548597, mode="rel", tol=1e-9),
    GoldenValue("standard", 1, 0.0804529, part="im", tol=2e-7),
    GoldenValue("standard", 2, 2.010056510555553, mode="rel", tol=1e-9),
    GoldenValue("standard", 2, -0.01717596, part="im", tol=1e-7),
    GoldenValue("standard", 3, 2.000502552323976, mode="rel", tol=1e-9),
    GoldenValue("standard", 3, 0.0010266, part="im", tol=1e-6),
    GoldenValue("standard", 4, 2.000002378186929, mode="rel", tol=1e-9),
    GoldenValue("standard", 4, -3.083e-6, part="im", tol=1e-8),
    GoldenValue("standard", 5, 1.999999999946048, mode="rel", tol=1e-9),
    GoldenValue("standard", 5, 0.0, part="im", tol=1e-9),
)


# ---------- corpus ----------


def _build_sin(params: dict) -> ProblemSpec:
    _reject_params("sin", params)
    return ProblemSpec(IterationMap("sin", jets.sin), 3.0, 0.0, _SIN_GOLDEN)


def _build_logistic(params: dict) -> ProblemSpec:
    a = _pop_number(params, "logistic", "a", 1.0)
    _reject_params("logistic", params)
    if isinstance(a, complex):
        raise CorpusError("parameter a must be real")
    a = float(a)
    if a == 0.0:
        raise CorpusError("a=0 collapses the logistic map to a constant")
    fn = _logistic_fn(a)
    if a == 1.0:
        return ProblemSpec(IterationMap("logistic(a=1)", fn), 0.5, 0.0, _LOGISTIC_GOLDEN)
    return ProblemSpec(IterationMap(f"logistic(a={a:g})", fn), 0.5, (a - 1.0) / a)


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
    return ProblemSpec(m, complex(1.9, 0.1), complex(2.0, 0.0), _KVB_GOLDEN)


_REQUIRED = object()


def _pop_number(params: dict, problem: str, key: str, default=_REQUIRED):
    # the CLI parses "K=1,2" into a tuple, which only s_family's alphas takes
    value = params.pop(key, default)
    if value is _REQUIRED:
        raise CorpusError(f"{problem} needs parameter {key}")
    if isinstance(value, (tuple, list)):
        raise CorpusError(f"{problem} parameter {key} takes one number, got {value!r}")
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
