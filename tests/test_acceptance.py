"""End to end acceptance sweep.

Each test prints a single PASS/FAIL line (visible under pytest -s) and
asserts the same condition, so the file doubles as a human-readable
checklist of everything the package promises.
"""

import math
import random
import time

from fpaccel import jets
from fpaccel.accelerators import first_newton_step, integral_step, standard_step
from fpaccel.cli import _SUITES, run_experiment
from fpaccel.jets import lift, pow_real
from fpaccel.kernel import affinity_test, kernel_family_fit
from fpaccel.maps import corpus_lookup, kernel_family_map

_T0 = time.perf_counter()


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {label}{tail}")
    assert ok, f"{label}{tail}"


def _golden_failures(suite, columns, methods) -> list:
    """Misses among the CLI suite's reference cells in the given method columns."""
    by = {c.method: c for c in columns}
    bad = []
    for gv in _SUITES[suite].golden:
        if gv.method not in methods:
            continue
        ok, detail = gv.check(by[gv.method].values[gv.index])
        if not ok:
            bad.append(detail)
    return bad


def test_sine_step_columns():
    t0 = time.perf_counter()
    prob = corpus_lookup("sin")
    exp = run_experiment(prob, ["plain", "first_newton", "standard"], None, 4)
    elapsed = time.perf_counter() - t0
    bad = _golden_failures("table1", exp.columns, ("plain", "first_newton", "standard"))
    _verdict(
        "sine iterates and both accelerated step columns match the reference table",
        not bad and elapsed < 1.0,
        "; ".join(bad) or f"{elapsed * 1e3:.0f}ms",
    )


def test_sine_sequence_transforms():
    prob = corpus_lookup("sin")
    exp = run_experiment(prob, ["aitken", "theta2"], None, 4)
    bad = _golden_failures("table1", exp.columns, ("aitken", "theta2"))
    _verdict(
        "aitken and theta2 columns on the sine iterates match the reference table",
        not bad,
        "; ".join(bad),
    )


def test_tangency_shift_on_logistic():
    prob = corpus_lookup("logistic", a=1.0)
    exp = run_experiment(prob, ["plain", "phi"], None, 3)
    by = {c.method: c for c in exp.columns}
    plain, phi = by["plain"].values, by["phi"].values
    exact = (
        plain[1] == 0.25
        and plain[2] == 0.1875
        and plain[3] == 0.15234375
        and phi[1] == -0.25
        and phi[2] == -0.025
        and abs(phi[3] - -0.00030487804878048784) <= 1e-12
    )
    bad = _golden_failures("table2", exp.columns, ("plain", "phi"))
    _verdict(
        "shifted-map accelerator on the neutral logistic reproduces the exact column",
        exact and not bad,
        "; ".join(bad),
    )


def test_flat_fixed_point_collapses_in_one_step():
    prob = corpus_lookup("fdil")
    u = prob.map
    errs = []
    for p in (complex(0.2, 0.0), 1.5, 4.0, 10.0):
        out = standard_step(p, u.at(p))
        errs.append(abs(out.value - 1.0) if out.ok else math.inf)
    v = affinity_test(u, 3.0, 1.0)
    _verdict(
        "fractional-power map lands within 1e-12 of its fixed point in one step",
        max(errs) <= 1e-12 and v.member and abs(v.x_star - 1.0) <= 1e-9,
        f"worst step error {max(errs):.2e}",
    )


def test_complex_blowup_and_recovery():
    t0 = time.perf_counter()
    prob = corpus_lookup("kvb_complex")
    exp = run_experiment(prob, ["plain", "standard"], None, 5)
    elapsed = time.perf_counter() - t0
    by = {c.method: c for c in exp.columns}
    plain, std = by["plain"], by["standard"]
    blew_up = (
        plain.stop_reason == "nonfinite"
        and len(plain.values) == 4
        and abs(plain.values[3]) > 1e30
    )
    recovered = abs(std.values[5] - 2.0) <= 1e-9
    bad = _golden_failures("table3", exp.columns, ("plain", "standard"))
    _verdict(
        "complex iteration blows up plainly but the second step recovers the root",
        blew_up and recovered and not bad and elapsed < 1.0,
        f"|z5-2|={abs(std.values[5] - 2.0):.2e}, {elapsed * 1e3:.0f}ms",
    )


def test_step_slopes_at_flat_fixed_points():
    # alpha grows with the contact order so the residual stays above the
    # difference quotient's roundoff floor at h=1e-4
    alphas = {2: 1.0, 3: 1.0, 4: 100.0, 5: 1e6}
    h = 1e-4
    worst_v = worst_w = 0.0
    for m, alpha in alphas.items():
        u = corpus_lookup("power_family", alpha=alpha, r=float(m)).map

        def v_at(x):
            return first_newton_step(x, u.at(x), 0.0).value

        def w_at(x):
            return standard_step(x, u.at(x), 0.0).value

        v_slope = (v_at(h) - v_at(-h)) / (2.0 * h)
        w_slope = (w_at(h) - w_at(-h)) / (2.0 * h)
        worst_v = max(worst_v, abs(v_slope - (1.0 - 1.0 / m)))
        worst_w = max(worst_w, abs(w_slope))
    _verdict(
        "first step has slope 1-1/m and second step slope 0 at contact order m",
        worst_v <= 1e-3 and worst_w <= 1e-2,
        f"worst v dev {worst_v:.2e}, worst w dev {worst_w:.2e}",
    )


def test_model_family_detection_sweep():
    rng = random.Random(42)
    ok = True
    for _ in range(50):
        alpha = rng.uniform(0.25, 3.0) * rng.choice([-1.0, 1.0])
        beta = rng.uniform(1.1, 4.0)
        xs = rng.uniform(-2.0, 2.0)
        m = kernel_family_map(alpha, beta, xs)
        va = affinity_test(m, xs - 0.15, 0.1)
        vf = kernel_family_fit(m, xs, [xs - 0.05 * k for k in range(1, 7)])
        out = standard_step(xs - 0.21, m.at(xs - 0.21))
        ok = ok and va.member and abs(va.x_star - xs) <= 1e-8
        ok = ok and vf.member and abs(vf.beta - beta) <= 1e-6
        ok = ok and out.ok and abs(out.value - xs) <= 1e-8
    rejected = (
        not affinity_test(corpus_lookup("sin").map, 0.3, 0.2).member
        and not kernel_family_fit(
            corpus_lookup("logistic", a=2.0).map, 0.5, [0.55, 0.6, 0.65, 0.7, 0.75]
        ).member
        and not kernel_family_fit(
            corpus_lookup("s_family", alphas=(1.0, 0.5), r=1.5).map,
            0.0,
            [0.05, 0.1, 0.15, 0.2, 0.25, 0.3],
        ).member
    )
    _verdict(
        "50 random model-family members detected and collapsed, 3 outsiders rejected",
        ok and rejected,
    )


def test_nested_antiderivative_steps():
    u = corpus_lookup("sin").map
    closed = {
        1: lambda x: 1.0 - math.cos(x),
        2: lambda x: x - math.sin(x),
        3: lambda x: 0.5 * x * x + math.cos(x) - 1.0,
    }
    worst = 0.0
    for depth, ref in closed.items():
        for k in range(9):
            x = -2.0 + 0.5 * k
            out = integral_step(x, u, depth)
            worst = max(worst, abs(out.value - ref(x)))
    _verdict(
        "nested antiderivative steps match closed forms on [-2, 2]",
        worst <= 1e-9,
        f"worst {worst:.2e}",
    )


def test_jet_derivatives_against_differences():
    cases = [
        (lambda a: jets.sin(a), (-3.0, 3.0)),
        (lambda a: jets.cos(a), (-3.0, 3.0)),
        (lambda a: jets.exp(a), (-2.0, 2.0)),
        (lambda a: pow_real(a, 1.7), (0.5, 4.0)),
        (lambda a: jets.sin(a) * jets.exp(a) / (a + 2.0) - jets.cos(a * a), (-1.5, 1.5)),
    ]
    h1, h2, rel = 1e-5, 1e-4, 1e-6
    rng = random.Random(101)
    ok = True
    for fn, (lo, hi) in cases:
        f = lambda t: fn(lift(t)).v0
        for x in [rng.uniform(lo + 2 * h2, hi - 2 * h2) for _ in range(100)]:
            j = fn(lift(x))
            d1 = (f(x + h1) - f(x - h1)) / (2.0 * h1)
            d2 = (f(x + h2) - 2.0 * f(x) + f(x - h2)) / (h2 * h2)
            ok = ok and abs(j.v1 - d1) <= rel * (1.0 + abs(d1))
            ok = ok and abs(j.v2 - d2) <= rel * (1.0 + abs(d2))
    _verdict("jet derivatives agree with central differences, 100 points each", ok)


def test_second_step_outpaces_plain_iteration():
    # six decade-spaced samples: consecutive late ratios differ only by
    # roundoff on the ~8e-7 floor, so spacing is what shows the decay
    checkpoints = (1, 10, 100, 1000, 10000, 250000)
    u = corpus_lookup("sin").map
    pairs = {}
    x = 3.0
    for n in range(1, checkpoints[-1] + 1):
        nxt = math.sin(x)
        if n in checkpoints:
            pairs[n] = (x, nxt)
        x = nxt

    def ratio(n: int) -> float:
        prev, cur = pairs[n]
        return abs(standard_step(prev, u.at(prev)).value) / abs(cur)

    cps = [ratio(n) for n in checkpoints]
    ok = all(b < a for a, b in zip(cps, cps[1:])) and cps[-1] < 1e-6
    _verdict(
        "one accelerated step beats the tail of a quarter-million plain iterates",
        ok,
        f"final ratio {cps[-1]:.2e}",
    )


def test_runtime_budget():
    elapsed = time.perf_counter() - _T0
    _verdict("acceptance sweep fits the runtime budget", elapsed < 30.0, f"{elapsed:.1f}s")
