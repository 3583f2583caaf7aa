import cmath
import math
import random

import pytest

from fpaccel import jets
from fpaccel.jets import (
    Jet2,
    JetDomainError,
    is_finite,
    lift,
    pow_real,
)
from fpaccel.maps import IterationMap


def test_lift_and_const_shapes():
    x = lift(2)
    assert x.as_tuple() == (2.0, 1.0, 0.0)
    assert isinstance(x.v0, float)
    c = Jet2(3.0)  # a constant jet: zero slope and curvature by default
    assert c.as_tuple() == (3.0, 0.0, 0.0)
    z = lift(1 + 2j)
    assert z.v0 == 1 + 2j
    assert z.v1 == 1.0


def test_product_rule_square():
    y = lift(2.0) * lift(2.0)
    assert y.as_tuple() == (4.0, 4.0, 2.0)


def test_sum_with_constant():
    y = Jet2(3.0) + lift(1.0)
    assert y.as_tuple() == (4.0, 1.0, 0.0)


def test_curvature_cross_term_does_not_overflow_early():
    # 2 * v1 alone overflows; the product v1 * v1' is 0 and so is the term
    a = Jet2(1.0, 1e308, 0.0)
    expected = (0.5, 5e307, 0.0)
    assert (a * 0.5).as_tuple() == expected
    assert (0.5 * a).as_tuple() == expected
    assert (a * Jet2(0.5)).as_tuple() == expected
    assert (a / Jet2(1.0)).as_tuple() == (1.0, 1e308, 0.0)


def test_quotient_by_constant():
    y = lift(2.0) / Jet2(2.0)
    assert y.as_tuple() == (1.0, 0.5, 0.0)


def test_sin_at_zero():
    y = jets.sin(lift(0.0))
    assert y.as_tuple() == (0.0, 1.0, 0.0)


def test_exp_at_zero():
    y = jets.exp(lift(0.0))
    assert y.as_tuple() == (1.0, 1.0, 1.0)


def test_pow_at_one():
    y = pow_real(lift(1.0), 1.5)
    assert y.as_tuple() == (1.0, 1.5, 0.75)


def test_pow_operator_matches_function():
    a = lift(2.3)
    assert (a**1.5).as_tuple() == pow_real(a, 1.5).as_tuple()
    assert (a**3).as_tuple() == pow_real(a, 3).as_tuple()
    # any other exponent, a str or a jet, is not a power ** takes
    for exponent in ("2", lift(2.0)):
        with pytest.raises(TypeError):
            a**exponent


def test_scalar_mixing():
    y = 2.0 * lift(3.0) + 1 - lift(1.0) / 2
    assert y.v0 == 6.5
    assert y.v1 == 1.5
    assert y.v2 == 0.0


def test_rsub_and_rdiv():
    y = 1.0 - lift(0.25)
    assert y.as_tuple() == (0.75, -1.0, 0.0)
    z = 1.0 / lift(2.0)
    assert z.v0 == 0.5
    assert z.v1 == -0.25
    assert z.v2 == 0.25


def test_neg():
    y = -lift(1.5)
    assert y.as_tuple() == (-1.5, -1.0, 0.0)


def test_quotient_rule_tangent():
    # tan = sin/cos: slope sec^2, curvature 2 sec^2 tan
    x = 0.7
    t = jets.sin(lift(x)) / jets.cos(lift(x))
    sec2 = 1.0 / math.cos(x) ** 2
    assert abs(t.v0 - math.tan(x)) < 1e-15
    assert abs(t.v1 - sec2) < 1e-14
    assert abs(t.v2 - 2.0 * sec2 * math.tan(x)) < 1e-13


def test_division_by_zero_jet():
    # a jet with a zero value raises what the bare scalar raises, so a body
    # that divides by zero raises the same class from at and from value
    for quotient in (lambda: lift(1.0) / Jet2(0.0), lambda: 1.0 / lift(-0.0)):
        with pytest.raises(ZeroDivisionError) as raised:
            quotient()
        assert raised.type is ZeroDivisionError
    u = IterationMap("q", lambda x: x + 1.0 / x)
    for evaluate in (u.at, u.value):
        with pytest.raises(ZeroDivisionError) as raised:
            evaluate(0.0)
        assert raised.type is ZeroDivisionError


def test_pow_zero_base_edges():
    assert pow_real(lift(0.0), 2.0).as_tuple() == (0.0, 0.0, 2.0)
    assert pow_real(lift(0.0), 1.0).as_tuple() == (0.0, 1.0, 0.0)
    assert pow_real(lift(0.0), 0.0).as_tuple() == (1.0, 0.0, 0.0)
    j = pow_real(lift(0.0), 1.5)
    assert j.v0 == 0.0
    assert j.v1 == 0.0
    assert j.v2 == math.inf
    with pytest.raises(JetDomainError):
        pow_real(lift(0.0), -1.0)
    with pytest.raises(JetDomainError):
        pow_real(lift(-1.0), 0.5)
    with pytest.raises(TypeError):
        pow_real(lift(1.0), 1j)


_SCALAR_CASES = [
    ("sin", jets.sin, math.sin, cmath.sin),
    ("cos", jets.cos, math.cos, cmath.cos),
    ("exp", jets.exp, math.exp, cmath.exp),
    ("pow_2.5", lambda a: pow_real(a, 2.5), lambda t: math.pow(t, 2.5), lambda z: z**2.5),
    ("pow_3", lambda a: pow_real(a, 3), lambda t: math.pow(t, 3.0), lambda z: z**3.0),
]


@pytest.mark.parametrize(
    "name,fn,real_ref,complex_ref", _SCALAR_CASES, ids=[c[0] for c in _SCALAR_CASES]
)
def test_elementary_on_bare_scalars(name, fn, real_ref, complex_ref):
    rng = random.Random(17)
    for t in [rng.uniform(0.01, 4.0) for _ in range(50)]:
        got = fn(t)
        assert type(got) is float
        assert got == real_ref(t)
        z = complex(t - 2.0, rng.uniform(-2.0, 2.0))
        got = fn(z)
        assert type(got) is complex
        assert got == complex_ref(z)
    if name not in ("sin", "cos", "exp"):
        return
    # sin, cos and exp hand a bare float straight to math: the edges of the
    # float line, the sign of a zero included (repr tells -0.0 from 0.0)...
    for t in (0.0, -0.0, 5e-324, -5e-324, -1e308) + ((1e308,) if name != "exp" else ()):
        got = fn(t)
        assert type(got) is float
        assert repr(got) == repr(real_ref(t)), t
    # ...and an int, a bool and a float subclass take the branches after that test
    for t in (3, True, _Float(0.7)):
        got = fn(t)
        assert type(got) is float
        assert got == real_ref(t), t


class _Float(float):
    pass


def test_elementary_scalar_domain_errors():
    for call in (
        lambda: pow_real(-0.5, 1.5),
        lambda: pow_real(0.0, -1.0),
        lambda: pow_real(0j, 0.5),
    ):
        with pytest.raises(JetDomainError):
            call()
    assert pow_real(0.0, 0.0) == 1.0
    assert pow_real(0j, 2.0) == 0j and type(pow_real(0j, 2.0)) is complex


_INF = math.inf


@pytest.mark.parametrize(
    "fn, args",
    [
        (jets.sin, (_INF, -_INF, _Float(_INF), complex(_INF, 0.0), complex(_INF, _INF))),
        (jets.cos, (_INF, -_INF, _Float(-_INF), complex(_INF, 0.0), complex(_INF, _INF))),
        # math.exp raises OverflowError itself where the result overflows
        (jets.exp, (1e308, complex(0.0, _INF), complex(_INF, _INF))),
    ],
    ids=["sin", "cos", "exp"],
)
def test_infinite_argument_raises_overflow(fn, args):
    # math and cmath raise a bare ValueError here; the argument had overflowed
    for x in args:
        for arg in (x, lift(x)):
            with pytest.raises(OverflowError):
                fn(arg)
    assert math.isnan(fn(math.nan))


def test_pow_negative_base_integer_exponent():
    j = pow_real(lift(-2.0), 3)
    assert j.v0 == -8.0
    assert j.v1 == 12.0
    assert j.v2 == -12.0


def test_complex_elementary_closed_forms():
    z = 0.3 + 0.4j
    s = jets.sin(lift(z))
    assert s.v0 == cmath.sin(z)
    assert s.v1 == cmath.cos(z)
    assert s.v2 == -cmath.sin(z)
    e = jets.exp(lift(z))
    assert e.v0 == e.v1 == e.v2 == cmath.exp(z)
    p = pow_real(lift(z), 2.5)
    assert abs(p.v0 - z**2.5) < 1e-15
    assert abs(p.v1 - 2.5 * z**1.5) < 1e-15
    assert abs(p.v2 - 2.5 * 1.5 * z**0.5) < 1e-15


def test_real_axis_complex_agrees_bitwise():
    # complex jets seeded on the real axis reduce through the same
    # libm kernels here; keep real parts bit-identical for add/mul chains
    def expr(mod, a):
        return mod.sin(a) * mod.cos(a) - mod.exp(0.25 * a) + a * a

    rng = random.Random(7)
    for x in [rng.uniform(-2.5, 2.5) for _ in range(200)]:
        jr = expr(jets, lift(x))
        jc = expr(jets, lift(complex(x)))
        assert jc.v0.real == jr.v0
        assert jc.v1.real == jr.v1
        assert jc.v2.real == jr.v2
        assert jc.v0.imag == 0.0


_H1 = 1e-5
_H2 = 1e-4
_REL = 1e-6

_FD_CASES = [
    ("sin", lambda a: jets.sin(a), (-3.0, 3.0)),
    ("cos", lambda a: jets.cos(a), (-3.0, 3.0)),
    ("exp", lambda a: jets.exp(a), (-2.0, 2.0)),
    ("pow_1.7", lambda a: pow_real(a, 1.7), (0.5, 4.0)),
    (
        "composite",
        lambda a: jets.sin(a) * jets.exp(a) / (a + 2.0) - jets.cos(a * a),
        (-1.5, 1.5),
    ),
]


@pytest.mark.parametrize("name,fn,box", _FD_CASES, ids=[c[0] for c in _FD_CASES])
def test_derivatives_match_finite_differences(name, fn, box):
    # first derivative vs central difference at h=1e-5, second vs the
    # second difference at h=1e-4 (the 1e-5 second difference sits on a
    # 4*eps/h^2 ~ 4e-6 roundoff floor, above the tolerance being tested)
    rng = random.Random(101)
    lo, hi = box
    pts = [rng.uniform(lo + 2 * _H2, hi - 2 * _H2) for _ in range(100)]

    def f(t):
        return fn(lift(t)).v0

    for x in pts:
        j = fn(lift(x))
        d1 = (f(x + _H1) - f(x - _H1)) / (2.0 * _H1)
        d2 = (f(x + _H2) - 2.0 * f(x) + f(x - _H2)) / (_H2 * _H2)
        assert abs(j.v1 - d1) <= _REL * (1.0 + abs(d1))
        assert abs(j.v2 - d2) <= _REL * (1.0 + abs(d2))


def test_is_finite():
    assert is_finite(1.0)
    assert not is_finite(math.inf)
    assert not is_finite(math.nan)
    assert is_finite(1 + 1j)
    assert not is_finite(complex(math.inf, 0.0))
    assert not is_finite(complex(0.0, math.nan))


def test_repr_eq_hash():
    a = Jet2(1.0, 2.0, 3.0)
    assert eval(repr(a)) == a
    assert a != Jet2(1.0, 2.0, 4.0)
    assert hash(a) == hash(Jet2(1.0, 2.0, 3.0))
    assert (a == "not a jet") is False


def test_foreign_operand_rejected():
    with pytest.raises(TypeError):
        lift(1.0) + "x"
