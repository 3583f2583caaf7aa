"""Properties of the sequence transforms over random inputs.

The examples are derandomized, so every run draws the same cases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from fpaccel import Status, aitken_delta2, is_finite, iterated_aitken, theta2

_SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)

_finite_lists = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8)


@_SETTINGS
@given(_finite_lists, st.integers(0, 3))
def test_transforms_never_raise_or_emit_nonfinite(xs, depth):
    for out in (aitken_delta2(xs), theta2(xs), iterated_aitken(xs, depth)):
        assert all(is_finite(v) for v in out.items)
        assert out.stopped_by in (None, Status.SINGULAR, Status.NONFINITE)


def _signed(lo, hi):
    return st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(lo, hi)).map(lambda p: p[0] * p[1])


@_SETTINGS
@given(_signed(0.1, 10.0), _signed(0.1, 0.9), st.floats(-10.0, 10.0), st.integers(4, 8))
def test_aitken_and_theta2_exact_on_geometric_sequences(c, r, x_star, n):
    # s_n = c r^n + x*: both transforms return x* at every index, up to roundoff
    s = [c * r**k + x_star for k in range(n)]
    tol = 1e-8 * (1.0 + abs(x_star))
    for out, length in ((aitken_delta2(s), n - 2), (theta2(s), n - 3)):
        assert len(out) == length and out.stopped_by is None
        assert all(abs(v - x_star) <= tol for v in out.items)
