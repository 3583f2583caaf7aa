import math
import random

import pytest

from fpaccel.jets import is_finite
from fpaccel.maps import (
    CorpusError,
    GoldenValue,
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
    # a -0.0 imaginary part puts x_star on the branch cut of the power
    "kernel_family_branch_cut": lambda rng: [
        (kernel_family_map(1.0, 1.5, complex(-1.0, -0.0)), [0.5] + _real_points(rng, -3.0, 1.0))
    ],
}

_LEAVE_DOMAIN = {"fdil", "power_family_fractional", "s_family_fractional", "kernel_family"}


@pytest.mark.parametrize("case", sorted(_VALUE_CASES))
def test_value_path_matches_jet_value(case):
    # the map body run on a bare scalar must give exactly the v0 of its
    # jet evaluation, or raise the same exception class
    rng = random.Random(f"value-path-{case}")
    raised = 0
    for u, pts in _VALUE_CASES[case](rng):
        for x in pts:
            want = _outcome(lambda t: u.at(t).v0, x)
            got = _outcome(u.value, x)
            assert type(got) is type(want), (u.name, x, got, want)
            assert repr(got) == repr(want), (u.name, x, got, want)
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


def test_golden_value_modes():
    ok, _ = GoldenValue("m", 0, 0.5, tol=1e-3).check(0.5004)
    assert ok
    ok, _ = GoldenValue("m", 0, 0.5, tol=1e-3).check(0.502)
    assert not ok
    ok, _ = GoldenValue("m", 0, 100.0, mode="rel", tol=1e-2).check(100.9)
    assert ok
    ok, _ = GoldenValue("m", 0, 1e-12, mode="factor", tol=10.0).check(5e-12)
    assert ok
    ok, _ = GoldenValue("m", 0, 1e-12, mode="factor", tol=10.0).check(5e-11)
    assert not ok
    ok, _ = GoldenValue("m", 0, 0.25, part="im", tol=1e-6).check(complex(9.0, 0.25))
    assert ok
    with pytest.raises(ValueError):
        GoldenValue("m", 0, 1.0, part="bogus").check(1.0)
    with pytest.raises(ValueError):
        GoldenValue("m", 0, 1.0, mode="bogus").check(1.0)


def test_golden_attached_to_table_problems():
    assert len(corpus_lookup("sin").golden) == 17
    assert len(corpus_lookup("logistic", a=1.0).golden) == 6
    assert len(corpus_lookup("logistic", a=3.2).golden) == 0
    assert len(corpus_lookup("kvb_complex").golden) == 16
