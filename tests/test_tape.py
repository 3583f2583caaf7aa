"""IterationMap.at's traced code: when it is used, when it is not, and how long it lives."""

import gc
import math
import weakref

import pytest

from fpaccel import jets, tape
from fpaccel.jets import Jet2, lift
from fpaccel.maps import COMPILE_AFTER, IterationMap, corpus_lookup

POINTS = (0.3, -1.25, 2.0, complex(0.5, -0.25), 0.0, math.inf)


def _branches_on_v0(x):
    return x * x if x.v0 > 0.0 else -x


def _compares(x):
    return x - 1.0 if x > 0.5 else x


def _tests_type(x):
    return x * 2.0 if isinstance(x, Jet2) else x + x + x


def _bad_exponent(x):
    return jets.pow_real(x, math.nan)


def _constant(x):
    return 2.0


class _Shifted:
    def __init__(self, c):
        self.c = c

    def u(self, x):
        return x * x + self.c


_FALLBACKS = {
    "branches_on_v0": _branches_on_v0,
    "compares": _compares,
    "tests_type": _tests_type,
    "bad_exponent": _bad_exponent,
    "constant": _constant,
    "bound_method": _Shifted(0.25).u,
}


@pytest.mark.parametrize("name", sorted(_FALLBACKS))
def test_untraceable_bodies_stay_on_jet2(name):
    fn = _FALLBACKS[name]
    if name != "bound_method":
        assert tape.compile_at(fn, 0.3) is None
    u = IterationMap(name, fn)
    for i in range(COMPILE_AFTER + 5):
        x = POINTS[i % len(POINTS)]
        assert tape._outcome(u.at, x) == tape._outcome(lambda p: fn(lift(p)), x), (i, x)
    # decided once: a plain function holds None, a bound method nothing
    if name == "bound_method":
        assert "_fpaccel_at" not in vars(fn.__func__)
    else:
        assert vars(fn)["_fpaccel_at"] is None


def test_tests_type_body_traces_but_fails_the_check():
    # the trace takes the non-Jet2 branch; only the bitwise check rejects it
    compiled = tape.trace(_tests_type)
    assert compiled is not None
    assert compiled(0.3).as_tuple() != _tests_type(lift(0.3)).as_tuple()


def test_a_map_used_ten_times_leaves_only_its_count():
    u = corpus_lookup("logistic", a=1.5).map
    for _ in range(10):
        u.at(0.3)
    assert vars(u.fn) == {"_fpaccel_at": 10}


def test_compiled_code_is_used_and_freed_with_its_body():
    u = corpus_lookup("s_family", alphas=(1.0, 0.5), r=1.0).map
    for _ in range(COMPILE_AFTER):
        u.at(0.2)
    assert u.fn._fpaccel_at == COMPILE_AFTER
    u.at(0.2)
    compiled = u.fn._fpaccel_at
    assert callable(compiled)
    for x in POINTS:
        assert tape._outcome(u.at, x) == tape._outcome(lambda p: u.fn(lift(p)), x), x
    ref = weakref.ref(compiled)
    del compiled, u
    gc.collect()
    assert ref() is None
