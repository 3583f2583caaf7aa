import math

import numpy as np
import pytest

from fpaccel.accelerators import Status, plain_step
from fpaccel.cli import Experiment, MethodColumn, run_experiment
from fpaccel.engine import IterationTrace, iterate
from fpaccel.kernel import KernelVerdict, affinity_test
from fpaccel.maps import IterationMap, ProblemSpec, corpus_lookup
from fpaccel.transforms import aitken_delta2, iterated_aitken, theta2, w_transform

SIN = corpus_lookup("sin").map


def _sin_experiment():
    return run_experiment(corpus_lookup("sin"), ["plain"], None, 3)


def _sin_iterates(n):
    vals = [3.0]
    for _ in range(n):
        vals.append(math.sin(vals[-1]))
    return vals


def test_transform_input_is_cut_at_first_nonfinite():
    # depth 0 returns the input as a trace: a plain iterable ends END_OF_INPUT
    s = iterated_aitken([1.0, 2.0, float("inf"), 4.0], 0)
    assert s == IterationTrace((1.0, 2.0), Status.NONFINITE)
    t = iterated_aitken((1.0, 2.0, 3.0), 0)
    assert t == IterationTrace((1.0, 2.0, 3.0), Status.END_OF_INPUT)
    # a trace keeps its own reason, unless it holds a non-finite point
    tr = IterationTrace((1.0, 2.0, 3.0), Status.MAX_ITER)
    assert iterated_aitken(tr, 0) == tr
    bad = IterationTrace((1.0, float("nan")), Status.MAX_ITER)
    assert iterated_aitken(bad, 0) == IterationTrace((1.0,), Status.NONFINITE)


def test_aitken_sine_column():
    out = aitken_delta2(_sin_iterates(4))
    assert len(out.points) == 3
    assert abs(out.points[0] - 0.140652) <= 1e-6
    assert abs(out.points[1] - 0.0938926) <= 1e-7
    assert abs(out.points[2] - 0.0935825) <= 1e-7


def test_theta2_sine_column():
    out = theta2(_sin_iterates(4))
    assert len(out.points) == 2
    assert abs(out.points[0] - 0.141125) <= 1e-4
    assert abs(out.points[1] - -0.000754788) <= 1e-7
    # much tighter than the promised four digits in practice
    assert abs(out.points[0] - 0.1411247388553613) <= 1e-12


def test_aitken_exact_on_geometric_sequences():
    rng = np.random.default_rng(11)
    for _ in range(50):
        r = float(rng.uniform(-0.8, 0.8))
        if abs(r) < 0.05:
            continue
        c = float(rng.uniform(-2.0, 2.0)) or 1.0
        limit = float(rng.uniform(-2.0, 2.0))
        s = [limit + c * r**n for n in range(8)]
        out = aitken_delta2(s)
        assert len(out.points) == 6
        for v in out.points:
            assert abs(v - limit) <= 1e-12 * (1.0 + abs(limit))


def test_theta2_exact_on_geometric_sequences():
    rng = np.random.default_rng(12)
    for _ in range(50):
        r = float(rng.uniform(-0.8, 0.8))
        if abs(r) < 0.05:
            continue
        c = float(rng.uniform(-2.0, 2.0)) or 1.0
        limit = float(rng.uniform(-2.0, 2.0))
        s = [limit + c * r**n for n in range(8)]
        out = theta2(s)
        assert len(out.points) == 5
        for v in out.points:
            assert abs(v - limit) <= 1e-10 * (1.0 + abs(limit))


def test_constant_sequence_is_singular():
    out = aitken_delta2([0.5, 0.5, 0.5, 0.5])
    assert out.points == ()
    assert out.stop_reason is Status.SINGULAR
    out2 = theta2([0.5, 0.5, 0.5, 0.5])
    assert out2.points == ()
    assert out2.stop_reason is Status.SINGULAR


def test_length_validation():
    # input too short for one term gives no points and uses up the input
    for out in (
        aitken_delta2([1.0, 2.0]),
        theta2([1.0, 2.0, 3.0]),
        iterated_aitken([1.0, 2.0, 4.0], 2),
        iterated_aitken([], 3),
        iterated_aitken([1.0, 2.0, 4.0], 10**9),
    ):
        assert out.points == () and out.stop_reason is Status.END_OF_INPUT
    with pytest.raises(ValueError):
        iterated_aitken([1.0, 2.0, 3.0], -1)
    with pytest.raises(ValueError):
        iterated_aitken([1.0, 2.0, 3.0], 1.0)


def test_overflow_truncates_as_nonfinite():
    # the squared difference overflows; theta2's product does
    out = aitken_delta2([0.0, 1e200, -1e200])
    assert out.points == () and out.stop_reason is Status.NONFINITE
    out = theta2([-2e300, -1e300, 0.0, 1e-10])
    assert out.points == () and out.stop_reason is Status.NONFINITE
    # finite complex terms whose modulus overflows in the singular test
    big = complex(-8.5e307, -8.5e307)
    out = aitken_delta2([big, 0j, big, 1j])
    assert out.points == () and out.stop_reason is Status.NONFINITE
    out = theta2([0j, complex(1.5e308, 1.5e308), 0j, 1j, 2j])
    assert out.points == () and out.stop_reason is Status.NONFINITE


def test_iterated_aitken():
    vals = _sin_iterates(14)
    assert iterated_aitken(vals, 0).points == tuple(vals)
    once = iterated_aitken(vals, 1)
    assert once.points == aitken_delta2(vals).points
    twice = iterated_aitken(vals, 2)
    assert len(twice.points) == len(vals) - 4
    # each pass sharpens the final estimate of the limit 0
    assert abs(twice.points[-1]) < abs(once.points[-1]) < abs(vals[-1])


def test_stop_reason_passes_on_from_the_input_trace():
    vals = tuple(_sin_iterates(6))
    tr = IterationTrace(vals, Status.MAX_ITER)
    for out in (aitken_delta2(tr), theta2(tr), iterated_aitken(tr, 2), w_transform(tr, SIN)):
        assert out.points and out.stop_reason is Status.MAX_ITER
    # a transform that stops early keeps its own reason, through every pass
    flat = IterationTrace((0.5, 0.5, 0.5, 0.5, 0.5), Status.CONVERGED)
    assert aitken_delta2(flat).stop_reason is Status.SINGULAR
    assert iterated_aitken(flat, 2) == IterationTrace((), Status.SINGULAR)
    # the first pass is exact on 1 + 2^-n, so the second stops singular
    geometric = [2.0, 1.5, 1.25, 1.125, 1.0625]
    assert aitken_delta2(geometric) == IterationTrace((1.0, 1.0, 1.0), Status.END_OF_INPUT)
    assert iterated_aitken(geometric, 2) == IterationTrace((), Status.SINGULAR)


def test_w_transform_sine():
    out = w_transform(_sin_iterates(4), SIN)
    assert len(out.points) == 5
    assert abs(out.points[0] - 1.40040775) <= 1e-7
    assert abs(out.points[1] - 0.000187252411) <= 1e-11
    assert abs(out.points[4] - 0.000181775731) <= 1e-11


def test_w_transform_checks_tol():
    # the plain sin trace from 1e-9 is fixed to double precision; a nan tol
    # turned the steps' converged guard off and ended it singular, with no points
    tr = iterate(lambda x: plain_step(x, SIN), 1e-9)
    assert w_transform(tr, SIN) == IterationTrace((1e-9, 1e-9), Status.CONVERGED)
    for tol in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            w_transform(tr, SIN, tol)


def test_w_transform_collapses_power_family():
    fd = corpus_lookup("fdil").map
    out = w_transform([1.5, 4.0, 10.0], fd)
    assert len(out.points) == 3
    for v in out.points:
        assert abs(v - 1.0) <= 1e-12


def test_w_transform_truncates_on_singular():
    bump = IterationMap("bump", lambda x: x + 1.0 + x * x)
    out = w_transform([0.0, 1.0], bump)
    assert out.points == ()
    assert out.stop_reason is Status.SINGULAR


def test_w_transform_domain_error_truncates():
    # fdil's fractional power leaves the real domain left of 1: the jet
    # raises JetDomainError, which ends the output with DOMAIN
    out = w_transform([0.5], corpus_lookup("fdil").map)
    assert out.points == ()
    assert out.stop_reason is Status.DOMAIN


@pytest.mark.parametrize(
    "build, cls, field",
    [
        pytest.param(lambda: aitken_delta2(_sin_iterates(4)), IterationTrace, "points", id="trace"),
        pytest.param(_sin_experiment, Experiment, "columns", id="experiment"),
        pytest.param(lambda: _sin_experiment().columns[0], MethodColumn, "values", id="column"),
        pytest.param(lambda: affinity_test(SIN, 0.3, 0.2), KernelVerdict, "member", id="kernel_verdict"),
        pytest.param(lambda: corpus_lookup("sin"), ProblemSpec, "x0", id="problem_spec"),
    ],
)
def test_records_are_immutable(build, cls, field):
    record = build()
    assert isinstance(record, cls)
    with pytest.raises(AttributeError):
        setattr(record, field, ())
