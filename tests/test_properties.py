"""Properties of the sequence transforms, the maps, the steps, the jets and the renderers over random inputs.

The examples are derandomized, so every run draws the same cases.
"""

import cmath
import math

import jets_reference
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from render_reference import reference_csv, reference_json, reference_markdown

from fpaccel import (
    IterationTrace,
    Status,
    aitken_delta2,
    corpus_lookup,
    is_finite,
    iterate,
    iterated_aitken,
    kernel_family_map,
    maps,
    tape,
    theta2,
    w_transform,
)
from fpaccel.accelerators import (
    DEFAULT_TOL,
    SINGULAR_EPS,
    STEP_ERRORS,
    StepOutcome,
    _first_newton,
    first_newton_step,
    integral_step,
    standard_step,
)
from fpaccel.cli import METHODS, Experiment, MethodColumn, render_csv, render_json, render_markdown
from fpaccel.jets import Jet2, cos, exp, lift, pow_real, sin, sin_cos

_SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)

_finite_lists = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8)
_huge_parts = st.floats(-1.7e308, 1.7e308)
_complex_lists = st.lists(st.builds(complex, _huge_parts, _huge_parts), max_size=8)


@_SETTINGS
@given(st.one_of(_finite_lists, _complex_lists), st.integers(0, 3))
def test_transforms_never_raise_or_emit_nonfinite(xs, depth):
    sin = corpus_lookup("sin").map
    for out in (aitken_delta2(xs), theta2(xs), iterated_aitken(xs, depth), w_transform(xs, sin)):
        assert type(out) is IterationTrace and type(out.stop_reason) is Status
        assert all(is_finite(v) for v in out.points)
        assert out.stop_reason in (Status.END_OF_INPUT, Status.SINGULAR, Status.NONFINITE)


def _signed(lo, hi):
    return st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(lo, hi)).map(lambda p: p[0] * p[1])


@_SETTINGS
@given(_signed(0.1, 10.0), _signed(0.1, 0.9), st.floats(-10.0, 10.0), st.integers(4, 8))
def test_aitken_and_theta2_exact_on_geometric_sequences(c, r, x_star, n):
    # s_n = c r^n + x*: both transforms return x* at every index, up to roundoff
    s = [c * r**k + x_star for k in range(n)]
    tol = 1e-8 * (1.0 + abs(x_star))
    for out, length in ((aitken_delta2(s), n - 2), (theta2(s), n - 3)):
        assert len(out.points) == length and out.stop_reason is Status.END_OF_INPUT
        assert all(abs(v - x_star) <= tol for v in out.points)


_CORPUS_MAPS = (
    corpus_lookup("sin").map,
    corpus_lookup("logistic", a=1.0).map,
    corpus_lookup("fdil").map,
    corpus_lookup("s_family", alphas=(1.0, 0.5), r=1.0).map,
    corpus_lookup("power_family", alpha=1.0, r=2.5).map,
    corpus_lookup("kvb_complex").map,
)


@pytest.mark.parametrize("u", _CORPUS_MAPS, ids=lambda u: u.name.split("(")[0])
@_SETTINGS
@given(z=st.builds(complex, _huge_parts, _huge_parts))
def test_corpus_maps_raise_only_step_errors(u, z):
    # a step maps these to a stop reason; anything else would end the whole run
    for evaluate in (u.value, u.at):
        try:
            evaluate(z)
        except STEP_ERRORS:
            pass


# plain, first_newton, standard, phi and steffensen
_STEPS = [name for name, m in METHODS.items() if not m.args and not m.transform]


@pytest.mark.parametrize("u", _CORPUS_MAPS, ids=lambda u: u.name.split("(")[0])
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(x=st.one_of(_huge_parts, st.builds(complex, _huge_parts, _huge_parts)))
def test_steps_keep_the_outcome_contract(u, x):
    # OK carries a finite value, CONVERGED and SINGULAR the input point,
    # NONFINITE a non-finite value; nothing else but STEP_ERRORS escapes
    for name in _STEPS:
        try:
            out = METHODS[name].make(u, DEFAULT_TOL)(x)
        except STEP_ERRORS:
            continue
        val, status = out
        assert type(out) is StepOutcome and val is out.value and status is out.status
        if status is Status.OK:
            assert is_finite(val), (name, x, out)
        elif status is Status.NONFINITE:
            assert not is_finite(val), (name, x, out)
        else:
            assert status in (Status.CONVERGED, Status.SINGULAR) and val == x, (name, x, out)


@pytest.mark.parametrize("u", _CORPUS_MAPS[:2] + _CORPUS_MAPS[-1:], ids=lambda u: u.name.split("(")[0])
@pytest.mark.parametrize("x", [0.7, 3.0])
def test_composite_steps_and_iterate_return_exact_record_types(u, x):
    # the records are built through tuple.__new__: the exact type, fields and equality must hold
    for spec in (("compose", "standard", "2"), ("integral", "2")):
        try:
            out = METHODS[spec[0]].make(u, DEFAULT_TOL, *spec[1:])(x)
        except STEP_ERRORS:
            continue
        assert type(out) is StepOutcome and out == (out.value, out.status), (spec, out)
    step = METHODS["standard"].make(u, DEFAULT_TOL)
    trace = iterate(step, x, 5)
    points, reason = trace
    assert type(trace) is IterationTrace and trace == (trace.points, trace.stop_reason)
    assert points is trace.points and reason is trace.stop_reason
    assert type(points) is tuple and type(reason) is Status


# the real maps that integral_step runs on
_INTEGRAND_MAPS = _CORPUS_MAPS[:5]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.floats(allow_nan=False), st.integers(1, 3), st.sampled_from(_INTEGRAND_MAPS))
def test_integral_step_raises_only_step_errors(x, depth, u):
    # a quadrature that cannot meet its budget is a bad point like any other
    try:
        out = integral_step(x, u, depth)
    except STEP_ERRORS:
        return
    assert type(out) is StepOutcome
    assert out.status in (Status.OK, Status.NONFINITE), (x, depth, u.name, out)
    if out.ok:
        assert is_finite(out.value), (x, depth, u.name, out)


_H = 1e-20
# the complex step's truncation error is about (h / distance)**2 next to a
# branch point of a fractional power, so draws keep this far from one
_AWAY = 1e-6


def _assert_complex_step_agrees(u, x):
    # Im u(x + ih) / h is u'(x) with no difference to cancel; applied to the
    # jet's v1 it gives u''(x).  The scale 1 + |.| allows for the rounding of
    # terms that cancel where a derivative crosses zero.
    jet = u.at(x)
    for got, step in (
        (jet.v1, u.value(complex(x, _H)).imag / _H),
        (jet.v2, u.at(complex(x, _H)).v1.imag / _H),
    ):
        assert abs(got - step) <= 1e-13 * (1.0 + abs(step)), (x, got, step)


_CORPUS_POINTS = st.one_of(
    st.tuples(st.just(corpus_lookup("sin").map), st.floats(-10.0, 10.0)),
    st.tuples(st.just(corpus_lookup("logistic", a=1.0).map), st.floats(-10.0, 10.0)),
    st.tuples(st.just(corpus_lookup("fdil").map), st.floats(1.0 + _AWAY, 10.0)),
    st.tuples(
        st.just(corpus_lookup("s_family", alphas=(1.0, 0.5), r=1.0).map), st.floats(-10.0, 10.0)
    ),
    st.tuples(
        st.just(corpus_lookup("power_family", alpha=1.0, r=2.5).map), st.floats(-10.0, -_AWAY)
    ),
)


@_SETTINGS
@given(_CORPUS_POINTS)
def test_jet_derivatives_match_complex_step(case):
    _assert_complex_step_agrees(*case)


@_SETTINGS
@given(_signed(0.1, 3.0), st.floats(1.1, 4.0), st.floats(-2.0, 2.0), st.floats(_AWAY, 4.0))
def test_kernel_family_derivatives_match_complex_step(alpha, beta, x_star, distance):
    _assert_complex_step_agrees(kernel_family_map(alpha, beta, x_star), x_star - distance)


@_SETTINGS
@given(_signed(0.25, 3.0), st.floats(1.1, 4.0), st.floats(-2.0, 2.0), st.floats(0.01, 0.3))
@example(-0.25, 4.0, -2.0, 0.01)  # the corner where a flat 1e-9 bound fails
def test_kernel_family_collapses_in_one_standard_step(alpha, beta, x_star, d):
    # u(x) = x + alpha*(x* - x)**beta: the first pass is affine with slope
    # 1 - 1/beta, so the second lands on x*.  Each pass divides the rounding
    # of u, about 2**-52 (1 + |x|), by its residual |alpha| d**beta.
    x = x_star - d
    u_jet = kernel_family_map(alpha, beta, x_star).at(x)
    c = 2.0**-52 * (1.0 + abs(x)) / (abs(alpha) * d**beta)
    v, status, slope = _first_newton(x, u_jet, DEFAULT_TOL)
    w = standard_step(x, u_jet)
    assert status is Status.OK and w.status is Status.OK
    assert abs(slope - (1.0 - 1.0 / beta)) <= 8.0 * c
    assert abs(v - ((1.0 - 1.0 / beta) * x + x_star / beta)) <= 8.0 * d * c
    assert abs(w.value - x_star) <= 8.0 * d * c


@_SETTINGS
@given(_signed(0.5, 3.0), st.floats(-3.0, 3.0), st.sampled_from((1, 2, 3)), st.floats(-2.0, 2.0), _signed(1e-3, 0.05))
@example(-0.5, -3.0, 1, -1.0, -0.05)  # the corner grid's worst v' ratio, 1.10
@example(-0.5, -3.0, 1, 1.0, -0.05)  # and its worst w ratio, 0.80
def test_two_term_s_family_steps_have_the_papers_slopes(a1, a2, r, x_star, d):
    # u = x + a1 d^(r+1) + a2 d^(r+2) with d = x - x* has contact order
    # m = r + 1: the first pass moves the slope at x* from 1 to 1 - 1/m, and
    # the second pass makes x* superattracting.  Both bounds scale with
    # k = 1 + |a2/a1|.  u' - 1 = d^r ((r+1) a1 + (r+2) a2 d) vanishes, and v'
    # has a pole, at d = -(r+1) a1 / ((r+2) a2), here at |d| >= 0.111: the
    # box stops at 0.05 to keep it out.  Worst ratios to k|d| and k d^2 on a
    # 1,800-point corner grid of this box: 1.10 and 0.80 (the examples), so
    # margins of 9x and 1.56x on the bounds 10 and 1.25; 0.86 and 0.70 over
    # 20,000 random draws.  With |d| up to 0.1 the first ratio reaches 23.6
    # (a1 = -0.5, a2 = 3, r = 1, d = 0.1).
    u = corpus_lookup("s_family", alphas=(a1, a2), r=float(r), x_star=x_star).map
    x = x_star + d
    u_jet = u.at(x)
    k = 1.0 + abs(a2 / a1)
    _, status, slope = _first_newton(x, u_jet, 0.0)
    w = standard_step(x, u_jet, 0.0)
    assert status is Status.OK and w.status is Status.OK
    assert abs(slope - (1.0 - 1.0 / (r + 1))) <= 10.0 * k * abs(d)
    assert abs(w.value - x_star) <= 1.25 * k * d * d


# kernel_family_map's traced code, one per kind of (alpha, x_star), traced
# from one closure and bound to every drawn one
_KERNEL_CODE: dict = {}


def _kernel_family_code(kinds):
    if kinds not in _KERNEL_CODE:
        traced_from = kernel_family_map(kinds[0](1.5), 2.5, kinds[1](0.25))
        _KERNEL_CODE[kinds] = tape.trace(traced_from.fn)
    return _KERNEL_CODE[kinds]


def _or_complex(real, imag):
    return st.one_of(real, st.builds(complex, real, imag))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(
    _or_complex(_signed(0.25, 3.0), st.floats(-3.0, 3.0)),
    st.one_of(st.floats(1.1, 4.0), st.sampled_from((2.0, 3.0))),
    _or_complex(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    st.floats(1e-3, 2.0),
    st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
)
def test_one_kernel_family_trace_serves_every_closure(alpha, beta, x_star, d, z):
    # the parameters reach the code at binding, never as literals of the
    # trace: each component matches the Jet2 path by (type, repr), or the
    # exception by type; above x_star a fractional beta leaves the domain
    u = kernel_family_map(alpha, beta, x_star)
    at = _kernel_family_code((type(alpha), type(x_star)))(*maps._signature(u.fn)[1])
    for x in (0.0, -0.0, x_star, x_star + d, x_star - d, math.inf, -math.inf, math.nan, z):
        assert tape._outcome(at, x) == tape._outcome(lambda p: u.fn(lift(p)), x), x


# every float, with +-inf, nan, -0.0 and subnormals, real or as complex parts
_any_float = st.one_of(
    st.sampled_from((float("inf"), -float("inf"), float("nan"), -0.0, 5e-324)), st.floats()
)
_names = st.text(st.one_of(st.sampled_from('"\\/\n\x00\x7fé∞\U0001d400'), st.characters()), max_size=6)
# ints and bools too: a plain column starts from the x0 it was given
_any_value = st.one_of(
    _any_float, st.builds(complex, _any_float, _any_float), st.integers(-(10**20), 10**20), st.booleans()
)
_columns = st.builds(
    MethodColumn,
    _names,
    st.integers(0, 3),
    st.lists(_any_value, max_size=6).map(tuple),
    st.one_of(st.sampled_from([s.value for s in Status]), _names),
    st.integers(0, 10),
)


@_SETTINGS
@given(_names, st.lists(_columns, max_size=3))
def test_renders_of_drawn_columns_match_reference_encoders(problem, columns):
    n_rows = max((max(c.offset + len(c.values), c.pad_to) for c in columns), default=0)
    exp = Experiment(problem, columns, n_rows)  # as run_experiment counts them
    assert render_markdown(exp) == reference_markdown(exp)
    assert render_json(exp) == reference_json(exp)
    assert render_csv(exp) == reference_csv(exp)


# ---------- jet arithmetic with a bare operand ----------

# every float as for the renders, plus the products that overflow to inf
_jet_float = st.one_of(st.sampled_from((1e308, -1e308)), _any_float)
_any_scalar = st.one_of(_jet_float, st.builds(complex, _jet_float, _jet_float))
_any_jets = st.builds(Jet2, _any_scalar, _any_scalar, _any_scalar)
# every kind of other operand: floats and complexes as above, ints (also
# past the float range, where the conversion overflows), bools, a str, None
# and another jet
_operands = st.one_of(
    _any_scalar,
    st.integers(-(2**60), 2**60),
    st.sampled_from((2**1030, -(2**1030), True, False, "1.0", None)),
    _any_jets,
)


def _bits(compute):
    # a result compared component by component on (type, repr), which tells
    # -0.0 from 0.0; a raised exception compares by its type, and a
    # NotImplemented by its repr
    try:
        out = compute()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    parts = out.as_tuple() if isinstance(out, Jet2) else (out,)
    return tuple((type(v), repr(v)) for v in parts)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_any_jets, _operands)
def test_bare_operands_match_the_written_out_reference(a, c):
    # each operator promotes a bare operand to Jet2(c, 0, 0) and runs its one
    # formula; the bits must be those of the parent's written-out branches
    for name, reference in jets_reference.OPERATORS.items():
        got = _bits(lambda: getattr(Jet2, name)(a, c))
        assert got == _bits(lambda: reference(a, c)), (name, a, c)


def _pow_real_positive_reference(a, exponent):
    # pow_real as it was before its positive-base branch, on a positive real
    # float base: past the zero, complex and negative checks to math.pow
    b = float(exponent)
    jet = isinstance(a, Jet2)
    z = a.v0 if jet else a
    c2 = b * (b - 1.0)
    f0 = math.pow(z, b)
    if not jet:
        return f0
    d1 = b * math.pow(z, b - 1.0)
    d2 = 0.0 if c2 == 0.0 else c2 * math.pow(z, b - 2.0)
    return Jet2(f0, d1 * a.v1, d2 * a.v1 * a.v1 + d1 * a.v2)


_positive = st.one_of(
    st.sampled_from((5e-324, 1e-300, 1.0, 1e300, float("inf"))), st.floats(0.0, exclude_min=True)
)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(
    _positive,
    _any_scalar,
    _any_scalar,
    st.one_of(st.sampled_from((0, 1, 2, -1, 0.5, 1.5, 2.5)), st.floats(-400.0, 400.0)),
)
def test_pow_real_positive_base_matches_the_reference(z, v1, v2, b):
    for a in (z, Jet2(z, v1, v2)):
        assert _bits(lambda: pow_real(a, b)) == _bits(lambda: _pow_real_positive_reference(a, b))


# ---------- sin, cos, exp and sin_cos against the chain-rule form ----------


def _chain(a, f0, f1, f2):
    # the chain rule written out here, apart from jets._chain, which sin,
    # cos, sin_cos and exp call
    return Jet2(f0, f1 * a.v1, f2 * a.v1 * a.v1 + f1 * a.v2)


def _elementary_reference(name, a):
    # sin, cos or exp in one function: a bare scalar straight to math or
    # cmath, a jet through _chain; an infinite argument raises OverflowError
    jet = isinstance(a, Jet2)
    z = a.v0 if jet else a
    lib = cmath if isinstance(z, complex) else math
    try:
        if not jet:
            return getattr(lib, name)(z)
        if name == "exp":
            e = lib.exp(z)
        else:
            s, c = lib.sin(z), lib.cos(z)
    except ValueError:
        raise OverflowError(f"{name} of an infinite argument") from None
    if name == "exp":
        return _chain(a, e, e, e)
    return _chain(a, s, c, -s) if name == "sin" else _chain(a, c, -s, -c)


_infinite = st.sampled_from(
    (math.inf, -math.inf, complex(math.inf, 0.0), complex(0.0, -math.inf), complex(0.0, math.inf))
)
# a constant jet's zero derivatives, whose signs the chain rule's products
# and sums must keep
_signed_zero = st.sampled_from((0.0, -0.0, 0j, complex(-0.0, 0.0), complex(0.0, -0.0), -0j))
_elementary_args = st.one_of(
    _any_jets,
    _any_scalar,
    _infinite,
    st.builds(Jet2, _infinite, _any_scalar, _any_scalar),
    st.builds(Jet2, _any_scalar, _signed_zero, _signed_zero),
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_elementary_args)
def test_sin_cos_exp_match_the_chain_rule_reference(a):
    for name, fn in (("sin", sin), ("cos", cos), ("exp", exp)):
        assert _bits(lambda: fn(a)) == _bits(lambda: _elementary_reference(name, a)), (name, a)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_elementary_args)
def test_sin_cos_gives_the_bits_of_sin_and_cos(a):
    # an infinite argument must raise OverflowError, as sin and cos do
    pair = (_bits(lambda: sin_cos(a)[0]), _bits(lambda: sin_cos(a)[1]))
    assert pair == (_bits(lambda: sin(a)), _bits(lambda: cos(a))), a


def _composed_standard_step(x, u_jet, tol):
    # the reference: the first pass, then the second pass, the Newton step
    # (v - x v') / (1 - v') for the residual x - v(x), with its own guards
    val, status, slope = _first_newton(x, u_jet, tol)
    if status is not Status.OK:
        return StepOutcome(val, status)
    if not (is_finite(val) and is_finite(slope)):
        nan = complex(math.nan, math.nan) if isinstance(x, complex) else math.nan
        return StepOutcome(nan, Status.NONFINITE)
    den = 1.0 - slope
    if abs(den) <= SINGULAR_EPS * (1.0 + abs(x)):
        return StepOutcome(x, Status.SINGULAR)
    w = (val - x * slope) / den
    return StepOutcome(w, Status.OK if is_finite(w) else Status.NONFINITE)


def _ulps_from(v, k):
    # the float k steps of one ulp away from v
    for _ in range(abs(k)):
        v = math.nextafter(v, math.copysign(math.inf, k))
    return v


_step_floats = st.one_of(
    st.floats(),
    st.floats(-4.0, 4.0),
    st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.7e308, -1.7e308)),
)
_step_scalars = st.one_of(_step_floats, st.builds(complex, _step_floats, _step_floats))
_near = st.one_of(st.none(), st.integers(-4, 4))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    _step_scalars,
    st.tuples(_step_scalars, _step_scalars, _step_scalars),
    _near,
    _near,
    st.sampled_from((0.0, DEFAULT_TOL, 1e-6)),
)
def test_standard_step_is_the_composition_of_its_passes(x, parts, u0_ulps, u1_ulps, tol):
    # standard_step writes the first pass out again: the two copies must give
    # the same bits, statuses and exception types, or one of them moved alone
    u0, u1, u2 = parts
    if u0_ulps is not None:  # u(x) a few ulps from x: the converged guard's edge
        u0 = _ulps_from(x, u0_ulps) if type(x) is float else complex(_ulps_from(x.real, u0_ulps), x.imag)
    if u1_ulps is not None:  # u'(x) a few ulps from 1: the singular guard's edge
        u1 = _ulps_from(1.0, u1_ulps)
    jet = Jet2(u0, u1, u2)
    # as plain tuples, so the repr shows the value and the status member
    want = _bits(lambda: tuple(_composed_standard_step(x, jet, tol)))
    assert _bits(lambda: tuple(standard_step(x, jet, tol))) == want, (x, jet, tol)
    first = _bits(lambda: _first_newton(x, jet, tol)[:2])
    assert _bits(lambda: tuple(first_newton_step(x, jet, tol))) == first, (x, jet, tol)
