import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from quadrature_reference import reference_gauss_kronrod

from fpaccel.accelerators import (
    _XGK,
    DEFAULT_TOL,
    QuadratureError,
    Status,
    StepOutcome,
    _first_newton,
    adaptive_gauss_kronrod,
    adaptive_simpson,
    compose_step,
    first_newton_step,
    integral_step,
    phi_step,
    plain_step,
    standard_step,
    steffensen_step,
)
from fpaccel.engine import iterate
from fpaccel.jets import Jet2, is_finite
from fpaccel.maps import IterationMap, corpus_lookup

SIN = corpus_lookup("sin").map
LOG1 = corpus_lookup("logistic", a=1.0).map
# u' = 1 while u(x) != x at the origin: forces the singular branch
BUMP = IterationMap("bump", lambda x: x + 1.0 + x * x)


def test_first_newton_matches_closed_form_at_start():
    out = first_newton_step(3.0, SIN.at(3.0))
    _, _, slope = _first_newton(3.0, SIN.at(3.0), DEFAULT_TOL)
    assert out.status is Status.OK
    expected = 3.0 + (math.sin(3.0) - 3.0) / (1.0 - math.cos(3.0))
    assert abs(out.value - expected) <= 1e-15 * abs(expected)
    exp_slope = -math.sin(3.0) * (math.sin(3.0) - 3.0) / (1.0 - math.cos(3.0)) ** 2
    assert abs(slope - exp_slope) <= 1e-15 * abs(exp_slope)


def test_first_newton_slope_matches_finite_difference():
    h = 1e-5
    for x in (3.0, 0.8, -1.2):

        def v(t):
            out = first_newton_step(t, SIN.at(t))
            assert out.ok
            return out.value

        _, _, slope = _first_newton(x, SIN.at(x), DEFAULT_TOL)
        fd = (v(x + h) - v(x - h)) / (2.0 * h)
        assert abs(slope - fd) <= 1e-5 * (1.0 + abs(fd))


def test_standard_step_closed_form():
    x = 3.0
    u0, u1, u2 = math.sin(x), math.cos(x), -math.sin(x)
    v = x + (u0 - x) / (1.0 - u1)
    vd = u2 * (u0 - x) / (1.0 - u1) ** 2
    expected = (v - x * vd) / (1.0 - vd)
    out = standard_step(x, SIN.at(x))
    assert out.ok
    assert abs(out.value - expected) <= 1e-15 * abs(expected)
    assert abs(out.value - 1.400407751113679) <= 1e-12


def test_converged_at_input_guard():
    out = first_newton_step(0.0, SIN.at(0.0))
    _, _, slope = _first_newton(0.0, SIN.at(0.0), DEFAULT_TOL)
    assert out.status is Status.CONVERGED
    assert out.value == 0.0
    assert slope == 0.0
    assert standard_step(0.0, SIN.at(0.0)).status is Status.CONVERGED


def test_converged_guard_shields_infinite_curvature():
    # fdil has u'' = inf at its fixed point; the converged branch must
    # fire before any derivative is touched
    fd = corpus_lookup("fdil").map
    j = fd.at(1.0)
    assert not is_finite(j.v2)
    out = first_newton_step(1.0, j)
    assert out.status is Status.CONVERGED
    assert out.value == 1.0


def test_singular_guard():
    out = first_newton_step(0.0, BUMP.at(0.0))
    assert out.status is Status.SINGULAR
    assert out.value == 0.0
    assert standard_step(0.0, BUMP.at(0.0)).status is Status.SINGULAR


def test_nonfinite_propagates_nonfinite_value():
    out = first_newton_step(1.0, Jet2(float("inf"), 1.0, 0.0))
    assert out.status is Status.NONFINITE
    assert not is_finite(out.value)
    out2 = first_newton_step(1.0, Jet2(5.0, float("nan"), 0.0))
    assert out2.status is Status.NONFINITE
    assert not is_finite(out2.value)


def test_step_outcome_unpacks_as_value_and_status():
    out = standard_step(3.0, SIN.at(3.0))
    val, status = out
    assert (val, status) == (out.value, out.status) and status is Status.OK
    assert out == (out.value, Status.OK)
    assert first_newton_step(0.0, SIN.at(0.0)) == StepOutcome(0.0, Status.CONVERGED)


def test_phi_step_second_pass_statuses():
    # u's jet (0, 0.5, 0.25) gives phi = 0.5 and phi' = 0.25, exactly
    out = phi_step(0.3, Jet2(0.0, 0.5, 0.25))
    assert out.ok
    assert abs(out.value - (0.5 - 0.3 * 0.25) / 0.75) < 1e-16
    # phi' = 0.5 - (-0.5) = 1: the second pass has no slope to divide by
    assert phi_step(0.3, Jet2(0.0, 0.5, -0.5)) == (0.3, Status.SINGULAR)
    bad = phi_step(0.3, Jet2(float("nan"), 0.5, 0.25))
    assert bad.status is Status.NONFINITE
    assert not is_finite(bad.value)


def test_phi_step_logistic_column():
    # iterating the phi step on the neutral logistic map from 0.5
    vals = [0.5]
    for _ in range(3):
        out = phi_step(vals[-1], LOG1.at(vals[-1]))
        assert out.ok
        vals.append(out.value)
    assert vals[1] == -0.25
    assert vals[2] == -0.025
    assert abs(vals[3] - -0.00030487804878048784) <= 1e-12


def test_phi_step_is_combined_step_of_shifted_map():
    x = 0.5
    j = SIN.at(x)
    phi0 = j.v0 - j.v1 + 1.0
    phi1 = j.v1 - j.v2
    expected = (phi0 - x * phi1) / (1.0 - phi1)
    assert phi_step(x, j).value == expected


def test_steffensen_quadratic_on_hyperbolic_map():
    log2 = corpus_lookup("logistic", a=2.0).map
    out = steffensen_step(0.4, log2)
    assert out.ok
    assert abs(out.value - (0.4 + 0.0064 / 0.0608)) <= 1e-15
    x = 0.4
    for _ in range(4):
        res = steffensen_step(x, log2)
        if res.status is Status.CONVERGED:
            break
        assert res.ok
        x = res.value
    assert abs(x - 0.5) < 1e-12


def test_steffensen_guards():
    log2 = corpus_lookup("logistic", a=2.0).map
    assert steffensen_step(0.5, log2).status is Status.CONVERGED
    # u(x) = x^2 at the golden-ratio conjugate: x - 2u + u(u) = 0 exactly
    square = IterationMap("square", lambda x: x * x)
    x = (math.sqrt(5.0) - 1.0) / 2.0
    out = steffensen_step(x, square)
    assert out.status is Status.SINGULAR
    assert out.value == x


def test_steffensen_constant_map_lands_in_one_step():
    out = steffensen_step(0.3, IterationMap("c", lambda x: x * 0 + 0.8))
    assert out.ok
    assert out.value == 0.8


def test_compose_step():
    step = lambda x: standard_step(x, SIN.at(x))
    out = compose_step(3.0, step, 2)
    assert out.ok
    assert abs(out.value - 0.17316252576391672) <= 1e-12
    with pytest.raises(ValueError):
        compose_step(3.0, step, 0)
    with pytest.raises(ValueError):
        compose_step(3.0, step, 1.5)
    with pytest.raises(ValueError):
        compose_step(3.0, step, True)


def test_plain_step():
    out = plain_step(3.0, SIN)
    assert out.status is Status.OK and out.value == math.sin(3.0)
    blowup = plain_step(1e200, IterationMap("square", lambda x: x * x))
    assert blowup.status is Status.NONFINITE and not is_finite(blowup.value)


def test_compose_short_circuits_on_bad_status():
    step = lambda x: standard_step(x, BUMP.at(x))
    out = compose_step(0.0, step, 3)
    assert out.status is Status.SINGULAR


# adaptive_simpson is the reference rule; integral_step uses adaptive_gauss_kronrod
QUADRATURE_RULES = pytest.mark.parametrize("rule", [adaptive_simpson, adaptive_gauss_kronrod])


@QUADRATURE_RULES
def test_adaptive_simpson_basics(rule):
    assert abs(rule(math.sin, 0.0, math.pi) - 2.0) <= 1e-12
    assert rule(math.sin, 1.0, 1.0) == 0.0
    fwd = rule(math.exp, 0.0, 1.0)
    assert rule(math.exp, 1.0, 0.0) == -fwd
    assert abs(fwd - (math.e - 1.0)) <= 1e-12


@QUADRATURE_RULES
def test_adaptive_simpson_reports_failure(rule):
    with pytest.raises(QuadratureError, match=r"tolerance not reached on \["):
        rule(lambda t: 1.0 / (t - 1.0 / 3.0) ** 2, 0.0, 1.0)


class _EvaluationCap(Exception):
    pass


def _logged_run(rule, f, a, b):
    # the rule's result (type, repr) or exception type, and every point it
    # evaluated f at, in order; repr keeps -0.0 apart from 0.0.  The cap
    # ends a run that would bisect towards 2**48 panels, as a rule whose
    # error estimate never shrinks does, in an outcome of its own.
    points = []

    def logged(t):
        if len(points) == 20_000:
            raise _EvaluationCap
        points.append(t)
        return f(t)

    try:
        got = rule(logged, a, b)
        outcome = (type(got), repr(got))
    except Exception as exc:
        outcome = type(exc)
    return outcome, [repr(t) for t in points]


def _node(a, b, level, k):
    # node k of the panel `level` bisections down the left edge, computed as
    # the rule computes it; k = 0 is the centre, -k the mirror of k
    lo, hi = min(a, b), max(a, b)
    for _ in range(level):
        hi = 0.5 * (lo + hi)
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return c if k == 0 else c + math.copysign(h * _XGK[abs(k) - 1], k)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    a=st.floats(-100.0, 100.0),
    span=st.one_of(st.just(0.0), st.floats(1e-300, 1e-6), st.floats(0.0, 1e3)),
    reverse=st.booleans(),
    integrand=st.sampled_from(["sin", "logistic", "depth3_sin", "pole_at_node"]),
    level=st.integers(0, 2),
    k=st.integers(-7, 7),
)
@example(a=0.0, span=1.0, reverse=False, integrand="double_pole", level=0, k=0)
def test_gauss_kronrod_matches_its_loop_reference(a, span, reverse, integrand, level, k):
    # the straight-line panel against the node loop it replaced: the same
    # bits, the same evaluation points in the same order, the same exception
    b = a + span
    if reverse:
        a, b = b, a
    pole = _node(a, b, level, k)
    f = {
        "sin": SIN.value,
        "logistic": LOG1.value,
        # integral_step's integrand at depth 3, with x = b
        "depth3_sin": lambda t: (b - t) ** 2 * SIN.value(t),
        # raises ZeroDivisionError at one node
        "pole_at_node": lambda t: 1.0 / (t - pole),
        "double_pole": lambda t: 1.0 / (t - 1.0 / 3.0) ** 2,
    }[integrand]
    got = _logged_run(adaptive_gauss_kronrod, f, a, b)
    assert got == _logged_run(reference_gauss_kronrod, f, a, b)


# antiderivative towers pinned at 0, depths 1, 2 and 3
INTEGRAL_TOWERS = {
    SIN: (
        lambda x: 1.0 - math.cos(x),
        lambda x: x - math.sin(x),
        lambda x: x * x / 2.0 + math.cos(x) - 1.0,
    ),
    # logistic a=1: u = x - x^2
    LOG1: (
        lambda x: x**2 / 2.0 - x**3 / 3.0,
        lambda x: x**3 / 6.0 - x**4 / 12.0,
        lambda x: x**4 / 24.0 - x**5 / 60.0,
    ),
}


def test_integral_step_closed_forms():
    for u, closed_forms in INTEGRAL_TOWERS.items():
        for depth, closed in enumerate(closed_forms, start=1):
            for x in (-2.5, -1.5, -0.5, 0.25, 1.0, 2.0, 2.5):
                out = integral_step(x, u, depth)
                assert out.ok
                assert abs(out.value - closed(x)) <= 1e-12, (u.name, depth, x)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    st.floats(-3.0, 3.0).filter(lambda x: x != 0.0),
    st.integers(1, 3),
    st.sampled_from(list(INTEGRAL_TOWERS)),
)
def test_integral_step_matches_closed_forms_at_drawn_points(x, depth, u):
    out = integral_step(x, u, depth)
    assert out.ok
    assert abs(out.value - INTEGRAL_TOWERS[u][depth - 1](x)) <= 1e-12


def test_integral_step_evaluation_count():
    # one bisection of a 15-point panel is 45 evaluations; the Simpson
    # reference rule needs up to about 1,900 on these inputs
    for u in INTEGRAL_TOWERS:
        calls = []

        def counted(t, value=u.value):
            calls.append(t)
            return value(t)

        counting = IterationMap(u.name, counted)
        for depth in (1, 2, 3):
            for k in range(-30, 31):
                if k:
                    calls.clear()
                    assert integral_step(k / 10, counting, depth).ok
                    assert len(calls) <= 45, (u.name, depth, k)


def test_integral_step_relative_accuracy_near_zero():
    # the second h_3 iterate of the integral-chain demo; the Simpson
    # reference rule is 1.5e-10 off here, which its absolute budget allows
    x = 0.040302305868139716
    series = sum((-1) ** j * x ** (2 * j + 4) / math.factorial(2 * j + 4) for j in range(6))
    out = integral_step(x, SIN, 3)
    assert out.ok
    assert abs(out.value - series) <= 1e-14 * series


@pytest.mark.parametrize("x, u, depth", [(55.0, SIN, 3), (100.0, SIN, 3), (1000.0, LOG1, 1)])
def test_integral_step_budget_scales_with_the_integral(x, u, depth):
    # h is in the thousands or more here, and its panel sums round above
    # QUAD_TOL; the budget is 1e-15 of the whole-interval estimate instead
    out = integral_step(x, u, depth)
    closed = INTEGRAL_TOWERS[u][depth - 1](x)
    assert out.ok
    assert abs(out.value - closed) <= 1e-14 * abs(closed)


def test_quadrature_failure_ends_the_run_singular():
    # at 1e5 the budget, halved per level, falls below the rounding of the
    # panel sums before 48 bisections meet it; at 1e300 the whole-interval
    # estimate overflows, so the budget stays QUAD_TOL, which is far beyond
    # what bisection can reach
    with pytest.raises(QuadratureError):
        integral_step(1e5, SIN, 3)
    with pytest.raises(QuadratureError):
        integral_step(1e300, SIN, 2)
    tr = iterate(lambda x: integral_step(x, SIN, 2), 1e300, 3)
    assert tr.stop_reason is Status.SINGULAR
    assert tr.points == (1e300,)


def test_integral_step_edges():
    out = integral_step(0.0, SIN, 2)
    assert out.ok
    assert out.value == 0.0
    with pytest.raises(ValueError):
        integral_step(1.0, SIN, 0)
    with pytest.raises(ValueError):
        integral_step(1.0, SIN, 4)
    with pytest.raises(ValueError):
        integral_step(1.0 + 0j, SIN, 1)
