import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fpaccel
from fpaccel import jets
from fpaccel.accelerators import DEFAULT_TOL, _first_newton, standard_step
from fpaccel.kernel import (
    FitInconclusiveError,
    _line_fit,
    affinity_test,
    kernel_family_fit,
)
from fpaccel.maps import IterationMap, corpus_lookup, kernel_family_map

FDIL = corpus_lookup("fdil").map
LOG1 = corpus_lookup("logistic", a=1.0).map


def test_affinity_certifies_fdil():
    v = affinity_test(FDIL, 3.0, 1.0)
    assert v.member
    assert v.evidence == "affine_first_step"
    assert v.residual <= 1e-12
    assert abs(v.x_star - 1.0) <= 1e-9
    assert abs(v.slope - 1.0 / 3.0) <= 1e-12
    assert abs(v.beta - 1.5) <= 1e-9


def test_affinity_certifies_neutral_logistic():
    v = affinity_test(LOG1, 0.4, 0.2)
    assert v.member
    assert abs(v.slope - 0.5) <= 1e-12
    assert abs(v.x_star) <= 1e-12
    assert abs(v.beta - 2.0) <= 1e-9


def test_affinity_rejects_sine():
    v = affinity_test(corpus_lookup("sin").map, 0.3, 0.2)
    assert not v.member
    assert v.evidence == "none"
    assert v.residual > 1e-9


def test_affinity_rejects_mixed_power_map():
    sf = corpus_lookup("s_family", alphas=(1.0, 0.5), r=1.5).map
    v = affinity_test(sf, 0.15, 0.1)
    assert not v.member


def test_affinity_complex_circle_samples():
    m = kernel_family_map(0.5 + 0.0j, 2.0, complex(1.0, 0.0))
    v = affinity_test(m, complex(0.4, 0.1), 0.2)
    assert v.member
    assert abs(v.x_star - 1.0) <= 1e-8
    assert abs(v.beta - 2.0) <= 1e-6


def test_affinity_validation():
    with pytest.raises(ValueError):
        affinity_test(FDIL, 3.0, 0.0)


def test_affinity_inconclusive_when_samples_unusable():
    shifted = IterationMap("shift", lambda x: x + 5.0)
    with pytest.raises(FitInconclusiveError):
        affinity_test(shifted, 0.0, 1.0)


def test_affinity_inconclusive_on_unit_slope_affine_step():
    # u = x + exp(-x) makes the first Newton step exactly x + 1
    m = IterationMap("creep", lambda x: x + jets.exp(-x))
    with pytest.raises(FitInconclusiveError):
        affinity_test(m, 0.5, 0.3)


def test_family_fit_fdil():
    v = kernel_family_fit(FDIL, 1.0, [1.05, 1.1, 1.15, 1.2, 1.25, 1.3])
    assert v.member
    assert v.evidence == "power_residual_fit"
    assert abs(v.beta - 1.5) <= 1e-9
    assert abs(v.alpha - 1.0) <= 1e-9
    assert v.convention == "(x - x_star)^beta"


def test_family_fit_logistic():
    v = kernel_family_fit(LOG1, 0.0, [0.1, 0.2, 0.3, 0.4, 0.5])
    assert v.member
    assert abs(v.beta - 2.0) <= 1e-9
    assert abs(v.alpha - -1.0) <= 1e-9


def test_family_fit_side_convention():
    m = kernel_family_map(0.7, 1.5, 0.0)
    v = kernel_family_fit(m, 0.0, [-0.05, -0.1, -0.15, -0.2])
    assert v.member
    assert v.convention == "(x_star - x)^beta"
    assert abs(v.alpha - 0.7) <= 1e-8
    assert abs(v.beta - 1.5) <= 1e-8


def test_family_fit_rejects_sine():
    v = kernel_family_fit(
        corpus_lookup("sin").map, 0.0, [0.1, 0.17, 0.24, 0.31, 0.38, 0.45, 0.52]
    )
    assert not v.member
    assert v.residual > 1e-6


def test_family_fit_rejects_hyperbolic_logistic():
    log2 = corpus_lookup("logistic", a=2.0).map
    v = kernel_family_fit(log2, 0.5, [0.55, 0.6, 0.65, 0.7, 0.75])
    assert not v.member


def test_family_fit_rejects_two_term_map():
    sf = corpus_lookup("s_family", alphas=(1.0, 0.5), r=1.5).map
    v = kernel_family_fit(sf, 0.0, [0.05, 0.1, 0.15, 0.2, 0.25, 0.3])
    assert not v.member
    assert v.residual > 1e-6


def test_family_fit_flags_non_flat_exponent():
    affine = IterationMap("affine", lambda x: x + 0.5 * (1.0 - x))
    v = kernel_family_fit(affine, 1.0, [0.5, 0.6, 0.7, 0.8])
    assert not v.member
    assert v.evidence == "none"
    assert abs(v.beta - 1.0) <= 1e-9


def test_family_fit_inconclusive_on_identity():
    ident = IterationMap("identity", lambda x: x)
    with pytest.raises(FitInconclusiveError):
        kernel_family_fit(ident, 0.0, [0.1, 0.2, 0.3])


def test_family_fit_inconclusive_on_one_probe_distance():
    # every probe at |x - x*| = 0.1 leaves the exponent undetermined
    with pytest.raises(FitInconclusiveError):
        kernel_family_fit(LOG1, 0.0, [0.1, -0.1, 0.1])


def _exact_line_fit(xs, ys):
    """The least-squares line y = a x + b through the points, in exact arithmetic.

    Solves the normal equations a = sum(conj(dx) dy) / sum(|dx|^2) and
    b = mean(y) - a mean(x), with dx and dy the deviations from the means.
    Each number is held as a (real, imaginary) pair of Fractions, so only
    the returned a, b and worst |y - (a x + b)| are rounded, once each.
    """
    n = len(xs)
    xs = [(Fraction(x.real), Fraction(x.imag)) for x in xs]
    ys = [(Fraction(y.real), Fraction(y.imag)) for y in ys]
    x_re, x_im = sum(x[0] for x in xs) / n, sum(x[1] for x in xs) / n
    y_re, y_im = sum(y[0] for y in ys) / n, sum(y[1] for y in ys) / n
    num_re = num_im = spread = 0
    for (xr, xi), (yr, yi) in zip(xs, ys):
        dxr, dxi, dyr, dyi = xr - x_re, xi - x_im, yr - y_re, yi - y_im
        num_re += dxr * dyr + dxi * dyi
        num_im += dxr * dyi - dxi * dyr
        spread += dxr * dxr + dxi * dxi
    a_re, a_im = num_re / spread, num_im / spread
    b_re = y_re - (a_re * x_re - a_im * x_im)
    b_im = y_im - (a_re * x_im + a_im * x_re)
    res = max(
        abs(complex(yr - (a_re * xr - a_im * xi + b_re), yi - (a_re * xi + a_im * xr + b_im)))
        for (xr, xi), (yr, yi) in zip(xs, ys)
    )
    return complex(a_re, a_im), complex(b_re, b_im), res


def test_line_fit_matches_exact_normal_equations():
    rng = random.Random(3)

    def normals(n):
        return [rng.gauss(0.0, 1.0) for _ in range(n)]

    for complex_points in (False, True):
        for _ in range(200):
            n = rng.randrange(3, 12)
            gx, x_scale, x_shift = normals(n), rng.uniform(0.01, 10.0), rng.uniform(-5.0, 5.0)
            xs = [g * x_scale + x_shift for g in gx]
            gy, y_scale = normals(n), rng.uniform(0.01, 10.0)
            ys = [g * y_scale for g in gy]
            if complex_points:
                xs = [complex(x, g) for x, g in zip(xs, normals(n))]
                ys = [complex(y, g) for y, g in zip(ys, normals(n))]
            a_ref, b_ref, res_ref = _exact_line_fit(xs, ys)
            a, b, res = _line_fit(xs, ys)
            assert isinstance(a, complex) == complex_points
            assert abs(a - a_ref) <= 1e-12 * (1.0 + abs(a_ref))
            assert abs(b - b_ref) <= 1e-12 * (1.0 + abs(b_ref))
            assert abs(res - res_ref) <= 1e-12 * (1.0 + res_ref)


def _modules_added_by(statement: str, names: set) -> str:
    # only what the import itself adds counts, whatever site or a .pth loaded before it
    src = str(Path(fpaccel.__file__).resolve().parent.parent)
    code = f"import sys; before = set(sys.modules); {statement}; print(sorted({names!r} & (set(sys.modules) - before)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return out.stdout.strip()


def test_cli_import_leaves_numpy_dataclasses_and_inspect_out():
    assert _modules_added_by("import fpaccel.cli", {"numpy", "dataclasses", "inspect"}) == "[]"


def test_package_import_leaves_the_cli_out():
    # GoldenValue and the suites live in fpaccel.cli, which the package does not
    # import; fpaccel.tape loads only when IterationMap.at first compiles a body
    assert _modules_added_by("import fpaccel", {"fpaccel.cli", "argparse", "fpaccel.tape"}) == "[]"


def test_family_fit_skips_bad_probes():
    v = kernel_family_fit(FDIL, 1.0, [1.0, 0.5, 1.05, 1.1, 1.15, 1.2])
    assert v.member
    with pytest.raises(ValueError):
        kernel_family_fit(FDIL, 1.0, [1.05 + 0j, 1.1, 1.15])


def test_family_fit_rejects_complex_x_star():
    # a complex x_star, even one on the real axis, has no side to fit from
    cases = ((FDIL, complex(1.0, 0.0), [1.05, 1.1, 1.15]), (LOG1, complex(0.2, 0.0), [0.3]))
    for u, x_star, probes in cases:
        with pytest.raises(ValueError, match="x_star must be real"):
            kernel_family_fit(u, x_star, probes)


def test_family_fit_rejects_nonfinite_x_star():
    # nan or infinite distances fit a verdict whose residual, alpha and beta are nan
    for x_star in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="x_star must be finite"):
            kernel_family_fit(LOG1, x_star, [0.1, 0.2, 0.3])


def test_random_members_detected_and_collapsed():
    rng = random.Random(7)
    for _ in range(10):
        alpha = rng.uniform(0.25, 3.0) * rng.choice([-1.0, 1.0])
        beta = rng.uniform(1.1, 4.0)
        x_star = rng.uniform(-2.0, 2.0)
        m = kernel_family_map(alpha, beta, x_star)
        va = affinity_test(m, x_star - 0.15, 0.1)
        assert va.member
        assert abs(va.x_star - x_star) <= 1e-8
        vf = kernel_family_fit(m, x_star, [x_star - 0.05 * k for k in range(1, 7)])
        assert vf.member
        assert abs(vf.beta - beta) <= 1e-8
        assert abs(vf.alpha - alpha) <= 1e-8 * (1.0 + abs(alpha))
        start = x_star - 0.21
        # the paper's collapse claim: the first Newton step is affine,
        # v = (1 - 1/beta) x + x_star / beta, and w lands on x_star
        v, _, slope = _first_newton(start, m.at(start), DEFAULT_TOL)
        assert abs(v - ((1.0 - 1.0 / beta) * start + x_star / beta)) <= 1e-11
        assert abs(slope - (1.0 - 1.0 / beta)) <= 1e-9
        out = standard_step(start, m.at(start))
        assert out.ok
        assert abs(out.value - x_star) <= 1e-10
