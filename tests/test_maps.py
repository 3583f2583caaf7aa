import math
import random

import pytest

from fpaccel import jets, maps, tape
from fpaccel.jets import Jet2, is_finite, lift
from fpaccel.maps import (
    CorpusError,
    IterationMap,
    corpus_lookup,
    corpus_names,
    kernel_family_map,
)

_CORPUS = [
    ("sin", {}),
    ("logistic", {"a": 1.0}),
    ("logistic", {"a": 2.5}),
    ("fdil", {}),
    ("power_family", {"alpha": 2.0, "r": 3.0}),
    ("s_family", {"alphas": (1.0, -0.5), "r": 2.0}),
    ("kvb_complex", {}),
]


def test_corpus_names():
    assert set(corpus_names()) == {
        "fdil",
        "kvb_complex",
        "logistic",
        "power_family",
        "s_family",
        "sin",
    }


@pytest.mark.parametrize("name,params", _CORPUS, ids=[f"{n}{p}" for n, p in _CORPUS])
def test_fixed_point_residual(name, params):
    prob = corpus_lookup(name, **params)
    assert prob.x_star is not None
    val = prob.map.value(prob.x_star)
    assert abs(val - prob.x_star) <= 1e-12 * (1.0 + abs(prob.x_star))


@pytest.mark.parametrize("name,params", _CORPUS, ids=[f"{n}{p}" for n, p in _CORPUS])
def test_start_point_evaluates_finitely(name, params):
    prob = corpus_lookup(name, **params)
    assert is_finite(prob.map.value(prob.x0))


@pytest.mark.parametrize(
    "name,params",
    [(n, p) for n, p in _CORPUS if not (n == "logistic" and p.get("a") != 1.0)],
    ids=lambda v: str(v),
)
def test_neutral_maps_have_unit_slope(name, params):
    prob = corpus_lookup(name, **params)
    slope = prob.map.at(prob.x_star).v1
    assert abs(slope - 1.0) <= 1e-9


def test_sin_metadata():
    u = corpus_lookup("sin").map
    # second derivative vanishes at the fixed point, third does not
    assert u.at(0.0).v2 == 0.0
    h = 1e-3
    third = (u.at(h).v2 - u.at(-h).v2) / (2.0 * h)
    assert abs(third - (-1.0)) < 1e-5


def test_logistic_neutral_metadata():
    prob = corpus_lookup("logistic", a=1.0)
    assert prob.map.at(0.0).v1 == 1.0
    assert prob.map.at(0.0).v2 == -2.0
    assert prob.x_star == 0.0


def test_logistic_hyperbolic():
    prob = corpus_lookup("logistic", a=2.5)
    assert abs(prob.x_star - 0.6) < 1e-15
    assert abs(prob.map.at(prob.x_star).v1 - 1.0) > 0.1


def test_logistic_default_is_neutral_case():
    prob = corpus_lookup("logistic")
    assert prob.map.name == "logistic(a=1)"
    assert prob.map.at(prob.x_star).v1 == 1.0


def test_fdil_closed_form_value():
    u = corpus_lookup("fdil").map
    assert u.value(1.5) == 1.5 + 0.5**1.5
    j = u.at(4.0)
    assert abs(j.v1 - (1.0 + 1.5 * math.sqrt(3.0))) < 1e-14


def test_kvb_first_iterate():
    prob = corpus_lookup("kvb_complex")
    y1 = prob.map.value(prob.x0)
    assert abs(y1.real - 2.391422135261737) <= 1e-12 * abs(y1.real)
    assert abs(y1.imag - -0.46996670468943114) <= 1e-12


def _kvb_reference(z):
    # the kvb body as it was, with separate sin and cos calls and z * z * z
    zm2 = z - 2.0
    f = z * z * zm2 * zm2 * (jets.exp(2.0 * z) * jets.cos(z) + z * z * z - 1.0 - jets.sin(z))
    return z - f


def _outcome_bits(compute):
    # every component by (type, repr), so -0.0 is told from 0.0; or the exception type
    try:
        out = compute()
    except ArithmeticError as exc:
        return type(exc)
    return tuple((type(v), repr(v)) for v in (out.as_tuple() if isinstance(out, Jet2) else (out,)))


# a grid around the golden start 1.9+0.1j, points near and at the double
# zero 2, a far start whose products overflow to a non-finite value, and
# starts that raise OverflowError from sin, cos or exp
_KVB_GRID = [
    *(complex(re, im) for re in (1.5, 1.8, 1.9, 2.2) for im in (-0.3, 0.0, 0.1)),
    complex(2.0, 0.0),
    complex(2.0, -0.0),
    complex(2.0000001, 1e-8),
    complex(1.99999, -2e-6),
    complex(2.1, 0.3),
    complex(0.3, -0.1),
    complex(-1.5, 2.0),
    complex(-1e80, 1.0),
    complex(1e200, -1e200),
    complex(0.0, 800.0),
    complex(400.0, 1.0),
    complex(1e308, 1e308),
]


@pytest.mark.parametrize("z", _KVB_GRID, ids=repr)
def test_kvb_keeps_the_bits_of_its_reference_body(z):
    u = corpus_lookup("kvb_complex").map
    assert _outcome_bits(lambda: u.at(z)) == _outcome_bits(lambda: _kvb_reference(lift(z)))
    assert _outcome_bits(lambda: u.value(z)) == _outcome_bits(lambda: _kvb_reference(z + 0.0))


def test_power_family_metadata():
    # u = x + 2 (0 - x)^3: contact order 3, third derivative 2 * 3! * (-1)^3
    m = corpus_lookup("power_family", alpha=2.0, r=3.0).map
    assert m.name == "power_family(alpha=2.0, r=3.0, x_star=0.0)"
    assert m.at(0.0).v1 == 1.0 and m.at(0.0).v2 == 0.0
    h = 1e-3
    third = (m.at(h).v2 - m.at(-h).v2) / (2.0 * h)
    assert abs(third - 2.0 * 6.0 * (-1.0) ** 3) < 1e-9


def test_s_family_metadata():
    # u = x + (x - 0)^4: contact order 4, fourth derivative 4! = 24
    m = corpus_lookup("s_family", alphas=(0.0, 1.0), r=2.0).map
    assert m.at(0.0).v1 == 1.0 and m.at(0.0).v2 == 0.0
    h = 1e-2
    fourth = (m.at(h).v2 - 2.0 * m.at(0.0).v2 + m.at(-h).v2) / (h * h)
    assert abs(fourth - 24.0) < 1e-9
    val = m.value(0.3)
    assert abs(val - (0.3 + 0.3**4)) < 1e-15


def test_kernel_family_map_values():
    m = kernel_family_map(0.5, 2.0, 1.0)
    assert m.at(1.0).v1 == 1.0
    assert m.at(1.0).v2 == 1.0
    assert abs(m.value(0.8) - (0.8 + 0.5 * 0.2**2)) < 1e-15


def _outcome(f, x):
    try:
        return f(x)
    except (ArithmeticError, ValueError) as e:
        return type(e)


def _real_points(rng, lo, hi, n=400):
    return [rng.uniform(lo, hi) for _ in range(n)]


def _complex_points(rng, center, radius, n=400):
    return [
        complex(center + rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        for _ in range(n)
    ]


def _kernel_draws(rng, n=60):
    # fractional exponents; probes on both sides of x_star, so half leave
    # the real domain of (x_star - x)**beta
    out = []
    for _ in range(n):
        alpha = rng.choice((1.0, -1.0)) * rng.uniform(0.25, 3.0)
        beta = rng.uniform(1.1, 4.0)
        xs = rng.uniform(-2.0, 2.0)
        pts = [xs] + _real_points(rng, xs - 0.5, xs + 0.5, 20)
        out.append((kernel_family_map(alpha, beta, xs), pts))
    return out


def _every_operation(x):
    # division both ways, negation, unary plus, **, int and complex constants,
    # and each elementary function of a jet whose curvature is not zero
    y = 0.5 * x * x - x
    s, c = jets.sin_cos(y)
    q = (s * c - jets.cos(-y)) / (x * x + 1.0) + 2 / (3 - (+x)) + y**2
    return q - complex(0.5, -0.25) * c + jets.sin(y) * jets.exp(0.25 * y)


_VALUE_CASES = {
    "sin": lambda rng: [(corpus_lookup("sin").map, _real_points(rng, -4.0, 4.0))],
    "logistic_a1": lambda rng: [
        (corpus_lookup("logistic", a=1.0).map, _real_points(rng, -2.0, 3.0))
    ],
    "logistic_a2.5": lambda rng: [
        (corpus_lookup("logistic", a=2.5).map, _real_points(rng, -2.0, 3.0))
    ],
    "fdil": lambda rng: [
        (
            corpus_lookup("fdil").map,
            [1.0] + _real_points(rng, -1.0, 4.0) + _complex_points(rng, 1.0, 2.0),
        )
    ],
    "power_family": lambda rng: [
        (corpus_lookup("power_family", alpha=2.0, r=3.0).map, _real_points(rng, -2.0, 2.0))
    ],
    "power_family_fractional": lambda rng: [
        (
            corpus_lookup("power_family", alpha=1.0, r=2.5).map,
            [0.0] + _real_points(rng, -1.0, 1.0),
        )
    ],
    "s_family": lambda rng: [
        (
            corpus_lookup("s_family", alphas=(1.0, -0.5), r=2.0).map,
            _real_points(rng, -2.0, 2.0),
        )
    ],
    "s_family_fractional": lambda rng: [
        (
            corpus_lookup("s_family", alphas=(1.0, 0.5), r=1.5, x_star=0.3).map,
            [0.3] + _real_points(rng, -0.7, 1.3),
        )
    ],
    "kvb_complex": lambda rng: [
        (
            corpus_lookup("kvb_complex").map,
            _complex_points(rng, 2.0, 1.0) + _real_points(rng, 1.0, 3.0),
        )
    ],
    "kernel_family": _kernel_draws,
    "every_operation": lambda rng: [
        (
            IterationMap("every_operation", _every_operation),
            [0.0, -0.0] + _real_points(rng, -2.0, 2.0) + _complex_points(rng, 0.0, 2.0),
        )
    ],
    # a -0.0 imaginary part puts x_star on the branch cut of the power
    "kernel_family_branch_cut": lambda rng: [
        (kernel_family_map(1.0, 1.5, complex(-1.0, -0.0)), [0.5] + _real_points(rng, -3.0, 1.0))
    ],
}

_LEAVE_DOMAIN = {"fdil", "power_family_fractional", "s_family_fractional", "kernel_family"}

# 3.0 is the pole of every_operation's 2 / (3 - x)
_SPECIAL_POINTS = (0.0, -0.0, 1e300, -1e300, math.inf, -math.inf, math.nan, complex(2.0, 0.0), 3.0)


@pytest.mark.parametrize("case", sorted(_VALUE_CASES))
def test_value_path_matches_jet_value(case):
    # the map body run on a bare scalar must give exactly the v0 of its
    # jet evaluation, and the body's traced code (built directly, not after
    # the calls that compile it in IterationMap.at) every component of it,
    # or each must raise the same exception class; only the cases that
    # leave the domain may raise on their ordinary points
    rng = random.Random(f"value-path-{case}")
    raised = 0
    for u, pts in _VALUE_CASES[case](rng):
        compiled = tape.trace(u.fn)(*maps._signature(u.fn)[1])
        assert compiled is not None, u.name

        def on_jet(t):
            return u.fn(lift(t))

        for i, x in enumerate([*pts, *_SPECIAL_POINTS]):
            want = _outcome(lambda t: on_jet(t).v0, x)
            got = _outcome(u.value, x)
            assert type(got) is type(want), (u.name, x, got, want)
            assert repr(got) == repr(want), (u.name, x, got, want)
            bits = tape._outcome(compiled, x)
            assert bits == tape._outcome(on_jet, x), (u.name, x, bits)
            if i < len(pts):
                raised += isinstance(want, type)
    assert (raised > 0) == (case in _LEAVE_DOMAIN)


def test_corpus_errors():
    with pytest.raises(CorpusError):
        corpus_lookup("nope")
    with pytest.raises(CorpusError):
        corpus_lookup("logistic", a=0.0)
    with pytest.raises(CorpusError):
        corpus_lookup("sin", a=1.0)
    with pytest.raises(CorpusError):
        corpus_lookup("power_family", alpha=1.0, r=1.0)
    with pytest.raises(CorpusError):
        corpus_lookup("power_family", alpha=1.0)
    with pytest.raises(CorpusError):
        corpus_lookup("s_family", alphas=(1.0,) * 5, r=2.0)
    with pytest.raises(CorpusError):
        corpus_lookup("s_family", alphas=(0.0, 0.0), r=2.0)
    with pytest.raises(CorpusError, match="r must be finite and at least 1"):
        corpus_lookup("s_family", alphas=(1.0,), r=0.5)
    with pytest.raises(CorpusError, match="s_family needs parameter alphas"):
        corpus_lookup("s_family", r=2.0)
    with pytest.raises(CorpusError, match="parameter a must be real"):
        corpus_lookup("logistic", a=1j)
    for key in ("alpha", "r", "x_star"):
        params = {"alpha": 1.0, "r": 3.0, key: (1.0, 2.0)}
        with pytest.raises(CorpusError):
            corpus_lookup("power_family", **params)
    with pytest.raises(CorpusError):
        corpus_lookup("s_family", alphas=(1.0,), r=(2.0, 3.0))
    with pytest.raises(CorpusError):
        corpus_lookup("logistic", a=(1.0, 2.0))
    with pytest.raises(CorpusError):
        kernel_family_map(0.0, 2.0, 0.0)
    with pytest.raises(CorpusError):
        kernel_family_map(1.0, 0.0, 0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(CorpusError):
            kernel_family_map(1.0, bad, 0.0)
        with pytest.raises(CorpusError):
            corpus_lookup("power_family", alpha=1.0, r=bad)
        with pytest.raises(CorpusError):
            corpus_lookup("s_family", alphas=(1.0,), r=bad)
        with pytest.raises(CorpusError, match="alphas"):
            corpus_lookup("s_family", alphas=(1.0, bad), r=1.0)
        with pytest.raises(CorpusError, match="x_star"):
            corpus_lookup("s_family", alphas=(1.0,), r=1.0, x_star=bad)
        with pytest.raises(CorpusError, match="parameter a "):
            corpus_lookup("logistic", a=bad)
        for key in ("alpha", "x_star"):
            with pytest.raises(CorpusError, match=key):
                corpus_lookup("power_family", **{"alpha": 1.0, "r": 3.0, key: bad})
        with pytest.raises(CorpusError, match="alpha"):
            kernel_family_map(bad, 2.0, 0.0)
        with pytest.raises(CorpusError, match="alpha"):
            kernel_family_map(complex(1.0, bad), 2.0, 0.0)
        with pytest.raises(CorpusError, match="x_star"):
            kernel_family_map(1.0, 2.0, bad)
