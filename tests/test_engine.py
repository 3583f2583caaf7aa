import math

import pytest

from fpaccel.accelerators import (
    Status,
    first_newton_step,
    plain_step,
    standard_step,
)
from fpaccel.engine import empirical_order, iterate
from fpaccel.maps import IterationMap, corpus_lookup

SIN = corpus_lookup("sin").map
LOG1 = corpus_lookup("logistic", a=1.0).map
KVB = corpus_lookup("kvb_complex")


def _plain(u):
    return lambda x: plain_step(x, u)


def _newton(u):
    return lambda x: first_newton_step(x, u.at(x))


def _standard(u):
    return lambda x: standard_step(x, u.at(x))


def test_plain_sine_hits_max_iter():
    tr = iterate(_plain(SIN), 3.0, 20)
    assert tr.stop_reason is Status.MAX_ITER
    assert len(tr.points) == 21
    assert tr.points[0] == 3.0
    rep = empirical_order(tr, 0.0)
    assert rep.verdict == "logarithmic"


def test_newton_step_turns_sine_linear():
    tr = iterate(_newton(SIN), 3.0, 25)
    assert tr.stop_reason is Status.MAX_ITER
    rep = empirical_order(tr, 0.0)
    assert rep.verdict == "linear"
    # slope at the triple-contact fixed point is 1 - 1/3
    assert abs(rep.rate - (1.0 - 1.0 / 3.0)) < 0.02


def test_newton_step_rate_logistic():
    # stop before the 1e-13 residual guard appends a duplicate point,
    # whose unit error ratio would read as logarithmic
    tr = iterate(_newton(LOG1), 0.5, 18)
    assert tr.stop_reason is Status.MAX_ITER
    rep = empirical_order(tr, 0.0)
    assert rep.verdict == "linear"
    assert rep.rate == 0.5


def test_standard_step_superlinear_and_converges():
    tr = iterate(_standard(SIN), 3.0, 10)
    assert tr.stop_reason is Status.CONVERGED
    assert abs(tr.last()) < 1e-11
    rep = empirical_order(tr, 0.0)
    assert rep.verdict == "superlinear"


def test_converged_trace_ends_with_tight_pair():
    tr = iterate(_standard(SIN), 3.0, 10)
    a, b = tr.points[-2:]
    assert abs(b - a) <= 1e-13 * (1.0 + abs(b))


def test_divergence_default_bound():
    tr = iterate(_plain(KVB.map), KVB.x0, 5)
    assert tr.stop_reason is Status.DIVERGED
    assert len(tr.points) == 4
    assert abs(tr.last()) > 1e30


def test_divergence_bound_lifted_runs_to_overflow():
    tr = iterate(_plain(KVB.map), KVB.x0, 5, divergence_bound=float("inf"))
    assert tr.stop_reason is Status.NONFINITE
    assert len(tr.points) == 4
    assert all(abs(p) < float("inf") for p in tr.points)


def test_overflowing_modulus_stops_nonfinite():
    # u(z) = z(1 - z) is about -(1.08e308 + 1.44e308j): finite parts, but
    # its modulus is beyond the largest float, so abs() raises
    z0 = complex(1.2e154, 0.6e154)
    for bound in (1e30, float("inf")):
        tr = iterate(_plain(LOG1), z0, 5, divergence_bound=bound)
        assert tr.stop_reason is Status.NONFINITE
        assert tr.points == (z0,)


def test_singular_stop_keeps_previous_point():
    bump = IterationMap("bump", lambda x: x + 1.0 + x * x)
    tr = iterate(_standard(bump), 0.0, 5)
    assert tr.stop_reason is Status.SINGULAR
    assert len(tr.points) == 1
    assert tr.last() == 0.0


def test_nonfinite_ok_step_keeps_previous_point():
    # a step that reports OK with an infinite value ends the run nonfinite
    values = iter((0.5, math.inf, 0.25))
    tr = iterate(lambda x: (next(values), Status.OK), 1.0, 5)
    assert tr.stop_reason is Status.NONFINITE
    assert tr.points == (1.0, 0.5)


def test_domain_error_maps_to_domain():
    fd = corpus_lookup("fdil").map
    # real path of (x-1)^1.5 fails below 1
    tr = iterate(_plain(fd), 0.2, 5)
    assert tr.stop_reason is Status.DOMAIN
    assert len(tr.points) == 1


def test_zero_division_maps_to_singular():
    recip = IterationMap("recip", lambda x: 1.0 / x - 1.0)
    tr = iterate(_plain(recip), 1.0, 10)
    assert tr.stop_reason is Status.SINGULAR
    assert tr.last() == 0.0


def test_iterate_validation():
    with pytest.raises(ValueError):
        iterate(_plain(SIN), float("nan"), 5)
    with pytest.raises(ValueError):
        iterate(_plain(SIN), 3.0, -1)
    for tol in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="tol"):
            iterate(_plain(SIN), 3.0, 5, tol)
    # a nan bound never reports diverged, and a negative one flags every step
    for bound in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="divergence_bound"):
            iterate(_plain(SIN), 3.0, 5, divergence_bound=bound)
    tr = iterate(_plain(SIN), 3.0, 0)
    assert len(tr.points) == 1
    assert tr.stop_reason is Status.MAX_ITER


def test_converged_at_input_recorded_once():
    tr = iterate(_standard(SIN), 1e-20, 5)
    assert tr.stop_reason is Status.CONVERGED
    assert len(tr.points) == 2
    assert tr.points[1] == tr.points[0]


def test_empirical_order_synthetic():
    geo = [1.0 * 0.3**n for n in range(8)]
    rep = empirical_order(geo, 0.0)
    assert rep.verdict == "linear"
    assert abs(rep.rate - 0.3) < 1e-12
    slow = [1.0 * 0.999**n for n in range(8)]
    assert empirical_order(slow, 0.0).verdict == "logarithmic"
    fast = [0.1 ** (2**n) for n in range(1, 5)]
    assert empirical_order(fast, 0.0).verdict == "superlinear"
    hits = [0.6, 0.0, 0.0, 0.0]
    assert empirical_order(hits, 0.0).verdict == "exact"
    # only the last iterate lands: every ratio before it is kept
    lands = [1.0, 0.5, 0.25, 0.0]
    assert empirical_order(lands, 0.0) == ("exact", None, (0.5, 0.5, 0.0))
    wobble = [1.0, 0.5, 0.05, 0.04]
    assert empirical_order(wobble, 0.0).verdict == "inconclusive"
    with pytest.raises(ValueError):
        empirical_order([1.0, 0.5, 0.25], 0.0)


def test_empirical_order_names_an_overflowing_iterate():
    # finite parts, but a modulus beyond the largest float
    z = complex(1.5e308, 1.5e308)
    with pytest.raises(ValueError, match=r"iterate 0 \("):
        empirical_order([z, z / 2, z / 4, z / 8], 0.0)
    with pytest.raises(ValueError, match=r"iterate 2 \("):
        empirical_order([1.0, 0.5, z, 0.25], 0.0)


def test_empirical_order_names_a_nonfinite_iterate():
    # each once gave nonsense ratios: the nan read linear, the inf superlinear
    nan, inf = float("nan"), float("inf")
    for values, n in (([1.0, nan, 0.5, 0.25, 0.125], 1), ([1.0, 0.5, 0.25, inf, 0.125], 3)):
        with pytest.raises(ValueError, match=rf"iterate {n} \("):
            empirical_order(values, 0.0)
