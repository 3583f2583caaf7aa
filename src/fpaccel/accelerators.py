"""Accelerated fixed point steps built from two chained Newton maps.

Let u be a self-map with fixed point x* where u'(x*) = 1 (a neutral
point; plain iteration crawls).  The Newton map of the residual x - u(x),

    v(x) = x + (u(x) - x) / (1 - u'(x)),

moves the slope at x* from 1 to 1 - 1/m when u(x) - x has a zero of
order m there, so v iterates converge linearly.  Applying the same
construction once more to v gives a step whose slope at x* vanishes:

    w(x) = (v(x) - x v'(x)) / (1 - v'(x)),

and w iterates converge superlinearly from the first application.  The
slope v'(x) has the closed form u''(x) (u(x) - x) / (1 - u'(x))^2, so a
second-order jet of u at x is all that is needed.

Each step function returns a :class:`StepOutcome` instead of raising:
the input already being a fixed point (within ``tol``), a vanishing
denominator and a non-finite evaluation are reported as a
:class:`Status`, the one vocabulary the steps, the iteration driver and
the sequence transforms share.  The steps that take ``tol`` test u(x)
for finiteness first; once it is finite, the converged check runs
before the derivatives are tested and before any denominator is formed.
At an exact fixed point the denominators are 0/0 and some maps have
non-finite second derivatives there, so that order is load-bearing.
``plain_step``, ``phi_step`` and ``integral_step`` have no converged
check.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple

from .jets import Jet2, JetDomainError, Scalar, is_finite

DEFAULT_TOL = 1e-13
SINGULAR_EPS = 1e-12
QUAD_TOL = 1e-12


def _check_tol(tol: float) -> None:
    # the steps take tol unchecked: a nan would turn their converged guard off
    if not (is_finite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")

__all__ = [
    "DEFAULT_TOL",
    "SINGULAR_EPS",
    "QUAD_TOL",
    "QuadratureError",
    "STEP_ERRORS",
    "Status",
    "StepOutcome",
    "adaptive_gauss_kronrod",
    "adaptive_simpson",
    "compose_step",
    "error_status",
    "first_newton_step",
    "integral_step",
    "phi_step",
    "plain_step",
    "standard_step",
    "steffensen_step",
]


class Status(str, Enum):
    """How a step, an iteration run or a sequence transform went.

    A step reports OK, CONVERGED (its input is already fixed), SINGULAR,
    NONFINITE or DOMAIN (the map left its real domain); a run can also end
    DIVERGED or MAX_ITER, and a transform END_OF_INPUT.  SINGULAR also
    covers a quadrature that cannot meet its budget.  Text output uses
    ``member.value``, since ``str(member)`` differs across Python versions.
    """

    OK = "ok"
    CONVERGED = "converged"
    DIVERGED = "diverged"
    MAX_ITER = "max_iter"
    SINGULAR = "singular"
    NONFINITE = "nonfinite"
    DOMAIN = "domain"
    END_OF_INPUT = "end_of_input"


# The members the steps, engine and transforms read, bound once: on Python
# 3.11 a read of ``Status.OK`` goes through ``EnumType.__getattr__``, ten times
# the cost of reading a module global.
_OK, _CONVERGED, _SINGULAR = Status.OK, Status.CONVERGED, Status.SINGULAR
_NONFINITE, _DOMAIN = Status.NONFINITE, Status.DOMAIN
_DIVERGED, _MAX_ITER = Status.DIVERGED, Status.MAX_ITER


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


# Exceptions a map or step may raise on a bad point; error_status names the stop.
STEP_ERRORS = (OverflowError, ZeroDivisionError, JetDomainError, QuadratureError)


def error_status(exc: BaseException) -> Status:
    """Status for one of :data:`STEP_ERRORS`: NONFINITE, DOMAIN or SINGULAR.

    SINGULAR also covers a quadrature that cannot meet its budget.
    """
    if isinstance(exc, OverflowError):
        return _NONFINITE
    return _DOMAIN if isinstance(exc, JetDomainError) else _SINGULAR


class StepOutcome(NamedTuple):
    """Value of one accelerated step plus how the evaluation went.

    ``value`` is the proposed next iterate for status ``OK``, the input
    point for ``CONVERGED`` and ``SINGULAR``, and a non-finite scalar for
    ``NONFINITE``.  It unpacks as ``value, status``.  The steps build it
    through ``tuple.__new__``, which makes the same record as
    ``StepOutcome(value, status)`` at less than half the cost.
    """

    value: Scalar
    status: Status

    @property
    def ok(self) -> bool:
        return self.status is _OK


StepFunction = Callable[[Scalar], StepOutcome]

# Builds a NamedTuple record in C: ``_record(StepOutcome, (value, status))``.
# The class call runs the generated ``__new__``, a Python function, which
# costs a third of a plain step inside iterate; the record is the same.
_record = tuple.__new__


def _nan_like(x: Scalar) -> Scalar:
    nan = float("nan")
    return complex(nan, nan) if isinstance(x, complex) else nan


def _converged(x: Scalar, ux: Scalar, tol: float) -> bool:
    return abs(ux - x) <= tol * (1.0 + abs(x))


def _singular(den: Scalar, x: Scalar) -> bool:
    return abs(den) <= SINGULAR_EPS * (1.0 + abs(x))


def _outcome(val: Scalar) -> StepOutcome:
    return _record(StepOutcome, (val, _OK if is_finite(val) else _NONFINITE))


# ---------- Newton-style steps ----------


def plain_step(x: Scalar, u) -> StepOutcome:
    """One application of the map, u(x): the crawl the other steps beat."""
    return _outcome(u.value(x))


def _first_newton(x: Scalar, u_jet: Jet2, tol: float) -> tuple:
    """The first pass as a bare ``(value, status, slope)``.

    The value is v(x) = x + (u(x) - x)/(1 - u'(x)) and the slope
    v'(x) = u''(x)(u(x) - x)/(1 - u'(x))^2.  Within ``tol`` of a fixed
    point the map is extended continuously: value x, slope 0.
    :func:`standard_step` runs the same guards on its own.
    """
    u0, u1, u2 = u_jet.v0, u_jet.v1, u_jet.v2
    # x * 0 is the zero slope in x's type; each non-OK return makes its own, so OK steps skip it
    if not is_finite(u0):
        return u0, _NONFINITE, x * 0
    scale = 1.0 + abs(x)
    diff = u0 - x
    if abs(diff) <= tol * scale:
        return x, _CONVERGED, x * 0
    if not (is_finite(u1) and is_finite(u2)):
        return _nan_like(x), _NONFINITE, x * 0
    den = 1.0 - u1
    if abs(den) <= SINGULAR_EPS * scale:
        return x, _SINGULAR, x * 0
    val = x + diff / den
    slope = u2 * diff / (den * den)
    if not (is_finite(val) and is_finite(slope)):
        return _nan_like(x), _NONFINITE, x * 0
    return val, _OK, slope


def first_newton_step(x: Scalar, u_jet: Jet2, tol: float = DEFAULT_TOL) -> StepOutcome:
    """One Newton step for the residual x - u(x): the linear step v(x).

    ``tol`` must be finite and non-negative; the steps do not check it,
    :func:`~fpaccel.engine.iterate` and :func:`~fpaccel.transforms.w_transform` do.
    """
    val, status, _ = _first_newton(x, u_jet, tol)
    return _record(StepOutcome, (val, status))


def standard_step(x: Scalar, u_jet: Jet2, tol: float = DEFAULT_TOL) -> StepOutcome:
    """Both Newton layers in one call: the superlinear step w(x).

    Statuses from the inner step propagate unchanged.  ``tol`` must be
    finite and non-negative, as for :func:`first_newton_step`.

    The hot step of every standard run, so it is one frame: the first
    pass is :func:`_first_newton`'s guards and arithmetic written out,
    the second the Newton step (v - x v') / (1 - v') for the residual
    x - v(x), with no finiteness test (the first pass already made v and
    v' finite).  The record is built through ``_record``
    (``tuple.__new__``), since the class call would run NamedTuple's
    generated ``__new__``, one more Python frame.  A
    property test holds this body to that composition bit for bit, so a
    change to the first pass must be made here and in
    :func:`_first_newton` alike.
    """
    u0, u1, u2 = u_jet.v0, u_jet.v1, u_jet.v2
    if not is_finite(u0):
        return _record(StepOutcome, (u0, _NONFINITE))
    scale = 1.0 + abs(x)
    diff = u0 - x
    # converged comes first: at an exact fixed point both passes are 0/0
    if abs(diff) <= tol * scale:
        return _record(StepOutcome, (x, _CONVERGED))
    if not (is_finite(u1) and is_finite(u2)):
        return _record(StepOutcome, (_nan_like(x), _NONFINITE))
    den = 1.0 - u1
    if abs(den) <= SINGULAR_EPS * scale:
        return _record(StepOutcome, (x, _SINGULAR))
    val = x + diff / den
    slope = u2 * diff / (den * den)
    if not (is_finite(val) and is_finite(slope)):
        return _record(StepOutcome, (_nan_like(x), _NONFINITE))
    den = 1.0 - slope
    if abs(den) <= SINGULAR_EPS * scale:
        return _record(StepOutcome, (x, _SINGULAR))
    w = (val - x * slope) / den
    return _record(StepOutcome, (w, _OK if is_finite(w) else _NONFINITE))


def phi_step(x: Scalar, u_jet: Jet2) -> StepOutcome:
    """Combined step through the slope-shifted map phi = u - u' + 1.

    The Newton step (phi - x phi') / (1 - phi') for the residual
    x - phi(x), with phi' = u' - u''.  Every neutral fixed point x* of u
    (u(x*) = x*, u'(x*) = 1) is a fixed point of phi, but phi has
    others: phi(x) = x wherever u(x) - x = u'(x) - 1, such as
    x = 2.41201... on ``sin``, where a run of this step stops converged
    though sin(x) - x is about -1.745.  The slope of phi at x* is
    u' - u'' = 1 - u''(x*): the step is fast where u''(x*) is not 0, but
    at contact order 3 or more phi is neutral again and the step only
    linear (it halves the error per step on ``power_family alpha=1 r=3``).
    """
    u0, u1, u2 = u_jet.v0, u_jet.v1, u_jet.v2
    phi0 = u0 - u1 + 1.0
    phi1 = u1 - u2
    if not (is_finite(phi0) and is_finite(phi1)):
        return _record(StepOutcome, (_nan_like(x), _NONFINITE))
    den = 1.0 - phi1
    if _singular(den, x):
        return _record(StepOutcome, (x, _SINGULAR))
    return _outcome((phi0 - x * phi1) / den)


def steffensen_step(x: Scalar, u, tol: float = DEFAULT_TOL) -> StepOutcome:
    """Derivative-free quadratic step from two map evaluations.

    x_next = x - (u(x) - x)^2 / (x - 2 u(x) + u(u(x))) for an
    IterationMap ``u``.  The converged branch fires before the denominator
    is formed; at an exact fixed point both vanish.  ``tol`` must be
    finite and non-negative, as for :func:`first_newton_step`.
    """
    u1 = u.value(x)
    if not is_finite(u1):
        return _record(StepOutcome, (u1, _NONFINITE))
    if _converged(x, u1, tol):
        return _record(StepOutcome, (x, _CONVERGED))
    u2 = u.value(u1)
    if not is_finite(u2):
        return _record(StepOutcome, (u2, _NONFINITE))
    den = x - 2.0 * u1 + u2
    if _singular(den, x):
        return _record(StepOutcome, (x, _SINGULAR))
    diff = u1 - x
    return _outcome(x - diff * diff / den)


def compose_step(x: Scalar, step: StepFunction, k: int) -> StepOutcome:
    """Apply a step function k times, short-circuiting on any non-ok status."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError("k must be a positive integer")
    current = x
    for _ in range(k):
        out = step(current)
        if not out.ok:
            return out
        current = out.value
    return out


# ---------- adaptive quadrature and the integral step ----------


def adaptive_simpson(f, a: float, b: float) -> float:
    """Integral of f over [a, b] by adaptive Simpson with Richardson correction.

    The reference rule the tests check :func:`adaptive_gauss_kronrod`
    against; :func:`integral_step` does not use it.  Interval halving stops
    when the two-panel refinement agrees with the parent panel to
    15*QUAD_TOL, halved per level; the accepted value keeps the err/15
    extrapolation term.  Raises :class:`QuadratureError` when 48 levels of
    bisection are not enough.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return sign * _simpson_branch(f, a, b, fa, fm, fb, whole, QUAD_TOL, 48)


def _simpson_branch(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth <= 0:
        raise QuadratureError(f"tolerance not reached on [{a:g}, {b:g}]")
    return _simpson_branch(
        f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1
    ) + _simpson_branch(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)


# QUADPACK qk15 (Piessens et al., 1983): the Kronrod abscissae on (0, 1)
# with their 15-point weights, the 7-point Gauss weights of the abscissae
# at odd indices (the Gauss nodes), and the weights of the centre node.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WGK_CENTRE = 0.209482141084727828012999174891714
_WG_CENTRE = 0.417959183673469387755102040816327
# The same tables unpacked once, for the straight-line panel below.
_X0, _X1, _X2, _X3, _X4, _X5, _X6 = _XGK
_K0, _K1, _K2, _K3, _K4, _K5, _K6 = _WGK
_G1, _G3, _G5 = _WG


def adaptive_gauss_kronrod(f, a: float, b: float) -> float:
    """Integral of f over [a, b] by adaptive Gauss-Kronrod 7-15.

    Each panel evaluates f at its centre and at 7 symmetric node pairs;
    the 15-point Kronrod sum is accepted when it differs from the embedded
    7-point Gauss sum by at most the budget, halved per level of
    bisection.  The budget is QUADPACK's ``max(epsabs, epsrel*|I|)``
    (Piessens et al., 1983) with epsabs = QUAD_TOL, epsrel = 1e-15 and I
    the first panel's estimate over the whole interval, or QUAD_TOL alone
    when that overflows.  ``b < a`` integrates over [b, a] and negates.
    Raises :class:`QuadratureError` when 48 levels of bisection are not
    enough.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    return sign * _gauss_kronrod_branch(f, a, b, None, 48)


def _gauss_kronrod_branch(f, a, b, tol, depth):
    # The seven node pairs as straight-line code, which saves the loop's
    # interpreter overhead.  Two orders are fixed.  Evaluation: f(c), then
    # f(c - d) and f(c + d) for each node from the outermost in.  Summation:
    # each sum adds its terms left to right from the centre term, the Gauss
    # sum over the odd pairs only.  They keep the panel bit for bit equal to
    # the node loop in tests/quadrature_reference.py, and make an integrand
    # that raises do so at the same node, after the same calls.
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    kronrod = _WGK_CENTRE * fc
    gauss = _WG_CENTRE * fc
    d = h * _X0
    kronrod += _K0 * (f(c - d) + f(c + d))
    d = h * _X1
    pair = f(c - d) + f(c + d)
    kronrod += _K1 * pair
    gauss += _G1 * pair
    d = h * _X2
    kronrod += _K2 * (f(c - d) + f(c + d))
    d = h * _X3
    pair = f(c - d) + f(c + d)
    kronrod += _K3 * pair
    gauss += _G3 * pair
    d = h * _X4
    kronrod += _K4 * (f(c - d) + f(c + d))
    d = h * _X5
    pair = f(c - d) + f(c + d)
    kronrod += _K5 * pair
    gauss += _G5 * pair
    d = h * _X6
    kronrod += _K6 * (f(c - d) + f(c + d))
    if tol is None:  # the whole interval: max(epsabs, epsrel*|I|), I from this panel
        tol = max(QUAD_TOL, 1e-15 * abs(h * kronrod))
        if tol == math.inf:
            tol = QUAD_TOL
    if abs(kronrod - gauss) * h <= tol:
        return h * kronrod
    if depth <= 0:
        raise QuadratureError(f"tolerance not reached on [{a:g}, {b:g}]")
    return _gauss_kronrod_branch(f, a, c, 0.5 * tol, depth - 1) + _gauss_kronrod_branch(
        f, c, b, 0.5 * tol, depth - 1
    )


def integral_step(x: Scalar, g, depth: int) -> StepOutcome:
    """Step through the depth-fold antiderivative of a map pinned at 0.

    With h_0 = g and h_j(x) = integral of h_{j-1} from 0 to x, returns
    h_depth(x).  Cauchy's formula for repeated integration folds the d
    nested integrals into one,

        h_d(x) = integral from 0 to x of (x - t)^(d-1) g(t) dt / (d-1)!,

    so each step is a single adaptive Gauss-Kronrod 7-15 quadrature
    (:func:`adaptive_gauss_kronrod`, a budget of QUAD_TOL or 1e-15 of the
    integral, whichever is larger).  The integrand is g(t) at depth 1,
    (x - t) * g(t) at depth 2 and (x - t) ** 2 * g(t) at depth 3, and the
    integral is divided by 1, 1 or 2.  Python's float ``** 1`` returns its
    base, so depth 2 leaves it out; depth 3 keeps ``** 2``, since C's
    ``pow`` need not round the square as ``(x - t) * (x - t)`` does.  For a
    map g with fixed point 0 the repeated averaging flattens the residual,
    one contact order per level.  Real arguments only; ``depth`` is 1, 2
    or 3.  Where the budget cannot be met, such as at 1e5 on ``sin`` at
    depth 3, it raises :class:`QuadratureError`, one of
    :data:`STEP_ERRORS`.
    """
    if isinstance(x, complex):
        raise ValueError("integral step handles real points only")
    if not isinstance(depth, int) or isinstance(depth, bool) or not 1 <= depth <= 3:
        raise ValueError("depth must be 1, 2 or 3")
    if x == 0.0:
        return _record(StepOutcome, (0.0, _OK))
    x = float(x)
    value_of = g.value
    if depth == 1:
        fn = value_of
    elif depth == 2:
        fn = lambda t: (x - t) * value_of(t)
    else:
        fn = lambda t: (x - t) ** 2 * value_of(t)
    # over (depth - 1)!; even / 1 stays, since complex / 1 turns an
    # infinite imaginary part into a nan real part
    val = adaptive_gauss_kronrod(fn, 0.0, x) / (2 if depth == 3 else 1)
    return _record(StepOutcome, (val, _OK if is_finite(val) else _NONFINITE))
