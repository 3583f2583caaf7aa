import math

import numpy as np
import pytest

from fpaccel.accelerators import Status
from fpaccel.maps import IterationMap, corpus_lookup
from fpaccel.transforms import (
    SequenceView,
    aitken_delta2,
    iterated_aitken,
    sequence_view,
    theta2,
    w_transform,
)

SIN = corpus_lookup("sin").map


def _sin_iterates(n):
    vals = [3.0]
    for _ in range(n):
        vals.append(math.sin(vals[-1]))
    return vals


def test_sequence_view_wraps_and_truncates():
    s = sequence_view([1.0, 2.0, float("inf"), 4.0])
    assert s.items == (1.0, 2.0)
    assert s.stopped_by == "nonfinite"
    t = sequence_view((1.0, 2.0, 3.0))
    assert t.items == (1.0, 2.0, 3.0)
    assert t.stopped_by is None
    assert len(t) == 3 and t[1] == 2.0
    assert sequence_view(t) is t


def test_aitken_sine_column():
    out = aitken_delta2(_sin_iterates(4))
    assert len(out.items) == 3
    assert abs(out.items[0] - 0.140652) <= 1e-6
    assert abs(out.items[1] - 0.0938926) <= 1e-7
    assert abs(out.items[2] - 0.0935825) <= 1e-7


def test_theta2_sine_column():
    out = theta2(_sin_iterates(4))
    assert len(out.items) == 2
    assert abs(out.items[0] - 0.141125) <= 1e-4
    assert abs(out.items[1] - -0.000754788) <= 1e-7
    # much tighter than the promised four digits in practice
    assert abs(out.items[0] - 0.1411247388553613) <= 1e-12


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
        assert len(out.items) == 6
        for v in out.items:
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
        assert len(out.items) == 5
        for v in out.items:
            assert abs(v - limit) <= 1e-10 * (1.0 + abs(limit))


def test_constant_sequence_is_singular():
    out = aitken_delta2([0.5, 0.5, 0.5, 0.5])
    assert out.items == ()
    assert out.stopped_by is Status.SINGULAR
    out2 = theta2([0.5, 0.5, 0.5, 0.5])
    assert out2.items == ()
    assert out2.stopped_by is Status.SINGULAR


def test_length_validation():
    # input too short for one term gives an empty view that simply ended
    for out in (
        aitken_delta2([1.0, 2.0]),
        theta2([1.0, 2.0, 3.0]),
        iterated_aitken([1.0, 2.0, 4.0], 2),
        iterated_aitken([], 3),
        iterated_aitken([1.0, 2.0, 4.0], 10**9),
    ):
        assert out.items == () and out.stopped_by is None
    with pytest.raises(ValueError):
        iterated_aitken([1.0, 2.0, 3.0], -1)
    with pytest.raises(ValueError):
        iterated_aitken([1.0, 2.0, 3.0], 1.0)


def test_overflow_truncates_as_nonfinite():
    # the squared difference overflows; theta2's product does
    out = aitken_delta2([0.0, 1e200, -1e200])
    assert out.items == () and out.stopped_by is Status.NONFINITE
    out = theta2([-2e300, -1e300, 0.0, 1e-10])
    assert out.items == () and out.stopped_by is Status.NONFINITE
    # finite complex terms whose modulus overflows in the singular test
    big = complex(-8.5e307, -8.5e307)
    out = aitken_delta2([big, 0j, big, 1j])
    assert out.items == () and out.stopped_by is Status.NONFINITE
    out = theta2([0j, complex(1.5e308, 1.5e308), 0j, 1j, 2j])
    assert out.items == () and out.stopped_by is Status.NONFINITE


def test_iterated_aitken():
    vals = _sin_iterates(14)
    assert iterated_aitken(vals, 0).items == tuple(vals)
    once = iterated_aitken(vals, 1)
    assert once.items == aitken_delta2(vals).items
    twice = iterated_aitken(vals, 2)
    assert len(twice.items) == len(vals) - 4
    # each pass sharpens the final estimate of the limit 0
    assert abs(twice.items[-1]) < abs(once.items[-1]) < abs(vals[-1])


def test_w_transform_sine():
    out = w_transform(_sin_iterates(4), SIN)
    assert len(out.items) == 5
    assert abs(out.items[0] - 1.40040775) <= 1e-7
    assert abs(out.items[1] - 0.000187252411) <= 1e-11
    assert abs(out.items[4] - 0.000181775731) <= 1e-11


def test_w_transform_collapses_power_family():
    fd = corpus_lookup("fdil").map
    out = w_transform([1.5, 4.0, 10.0], fd)
    assert len(out.items) == 3
    for v in out.items:
        assert abs(v - 1.0) <= 1e-12


def test_w_transform_truncates_on_singular():
    bump = IterationMap("bump", lambda x: x + 1.0 + x * x)
    out = w_transform([0.0, 1.0], bump)
    assert out.items == ()
    assert out.stopped_by is Status.SINGULAR


def test_w_transform_domain_error_truncates():
    # fdil's fractional power leaves the real domain left of 1: the jet
    # raises JetDomainError, which ends the output like a singular step
    out = w_transform([0.5], corpus_lookup("fdil").map)
    assert out.items == ()
    assert out.stopped_by is Status.SINGULAR


def test_sequence_view_dataclass_is_frozen():
    s = SequenceView((1.0, 2.0))
    with pytest.raises(AttributeError):
        s.items = ()
