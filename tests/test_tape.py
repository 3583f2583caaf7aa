"""IterationMap.at's traced code: when it is used, when it is not, and how long it lives."""

import ast
import cmath
import gc
import linecache
import math
import operator
import traceback
import weakref
from types import FunctionType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpaccel import jets, maps, tape
from fpaccel.jets import Jet2, lift
from fpaccel.maps import COMPILE_AFTER, IterationMap, corpus_lookup, kernel_family_map

POINTS = (0.3, -1.25, 2.0, complex(0.5, -0.25), 0.0, math.inf)


@pytest.fixture(autouse=True)
def fresh_registry(monkeypatch):
    """An empty registry of traced code, so that no other test's calls count."""
    registry = {}
    monkeypatch.setattr(maps, "_TRACED", registry)
    return registry


@pytest.fixture
def traces(monkeypatch):
    """The bodies traced for IterationMap.at, in order."""
    traced = []
    trace = tape.trace

    def counting(fn):
        traced.append(fn)
        return trace(fn)

    monkeypatch.setattr(tape, "trace", counting)
    return traced


def _source(bind):
    """The source of traced code, as linecache holds it for tracebacks."""
    return "".join(linecache.getlines(bind.__code__.co_filename))


def _per_call(bind):
    """The ``bind`` and ``at`` definitions of traced code, as ast nodes."""
    (definition,) = ast.parse(_source(bind)).body
    (at,) = [node for node in definition.body if isinstance(node, ast.FunctionDef)]
    return definition, at


def _names(nodes, context) -> set:
    """The names that ``nodes`` read (``ast.Load``) or write (``ast.Store``)."""
    return {
        node.id
        for root in nodes
        for node in ast.walk(root)
        if isinstance(node, ast.Name) and isinstance(node.ctx, context)
    }


def _bound(fn):
    """``fn``'s traced code bound to its own parameters, as IterationMap.at binds it."""
    return tape.trace(fn)(*maps._signature(fn)[1])


def _branches_on_v0(x):
    return x * x if x.v0 > 0.0 else -x


def _compares(x):
    return x - 1.0 if x > 0.5 else x


def _tests_type(x):
    return x * 2.0 if isinstance(x, Jet2) else x + x + x


def _tests_value_type(x):
    return x * 2.0 if isinstance(x.v0, float) else x + x + x


def _bad_exponent(x):
    return jets.pow_real(x, math.nan)


def _constant(x):
    return 2.0


def _none_component(x):
    return Jet2(x.v0, None, 0.0)


class _Shifted:
    def __init__(self, c):
        self.c = c

    def u(self, x):
        return x * x + self.c


_FALLBACKS = {
    "branches_on_v0": _branches_on_v0,
    "compares": _compares,
    "bad_exponent": _bad_exponent,
    "constant": _constant,
    "none_component": _none_component,
    "bound_method": _Shifted(0.25).u,
}


@pytest.mark.parametrize("name", sorted(_FALLBACKS))
def test_untraceable_bodies_stay_on_jet2(name):
    fn = _FALLBACKS[name]
    if name != "bound_method":
        assert tape.trace(fn) is None
    u = IterationMap(name, fn)
    for i in range(COMPILE_AFTER + 5):
        x = POINTS[i % len(POINTS)]
        assert tape._outcome(u.at, x) == tape._outcome(lambda p: fn(lift(p)), x), (i, x)
    # decided once: a plain function holds None, a bound method nothing
    if name == "bound_method":
        assert "_fpaccel_at" not in vars(fn.__func__)
    else:
        assert vars(fn)["_fpaccel_at"] is None


def test_type_testing_body_compiles_on_its_jet2_branch():
    # the trace runs on a Jet2, so it takes the branch the Jet2 path takes
    u = IterationMap("tests_type", _tests_type)
    for i in range(COMPILE_AFTER + 5):
        x = POINTS[i % len(POINTS)]
        assert tape._outcome(u.at, x) == tape._outcome(lambda p: _tests_type(lift(p)), x), (i, x)
    assert callable(vars(_tests_type)["_fpaccel_at"])


def test_tests_type_body_traces_but_fails_the_check():
    # the traced value is no float, so the trace takes the other branch;
    # only the bitwise check rejects it
    compiled = _bound(_tests_value_type)
    assert compiled(0.3).as_tuple() != _tests_value_type(lift(0.3)).as_tuple()
    assert not tape.agrees(_tests_value_type, 0.3, compiled)


def _compares_in_a_try(x):
    try:
        return x * x if x.v0 < 10.0 else x
    except TypeError:
        return x * x


def _floors_in_a_try(x):
    try:
        return x * x if math.floor(x.v0) < 10 else x
    except TypeError:
        return x * x


# each body, the point of its first call, and a later point: from the first
# call alone, the type test's trace passes the check at four complex points,
# and the caught read's at 1, 2, 0 and -1, yet each gives other bits than
# Jet2 at the later point
_MISTRACED = {
    "tests_value_type": (_tests_value_type, complex(0.3, 0.0), 0.3),
    "compares_in_a_try": (_compares_in_a_try, 1.0, 20.0),
    "floors_in_a_try": (_floors_in_a_try, 1.0, 20.0),
}


@pytest.mark.parametrize("name", sorted(_MISTRACED))
def test_a_body_traced_off_its_jet2_branch_stays_on_jet2(monkeypatch, name):
    monkeypatch.setattr(maps, "COMPILE_AFTER", 0)
    fn, first, later = _MISTRACED[name]
    u = IterationMap(name, fn)
    for x in (first, later, *POINTS):
        assert tape._outcome(u.at, x) == tape._outcome(lambda p: fn(lift(p)), x), x
    assert vars(fn)["_fpaccel_at"] is None


# every way to read a traced value's number, and the operations of a float
# the tape does not write out; each raises TypeError
_READS = {
    "compare": lambda v: v < 10.0,
    "truth": bool,
    "hash": hash,
    "float": float,
    "complex": complex,
    "int": int,
    "index": operator.index,
    "math": math.sqrt,
    "cmath": cmath.sqrt,
    "abs": abs,
    "pos": operator.pos,
    "pow": lambda v: v**2,
    "rpow": lambda v: 2.0**v,
    "mod": lambda v: v % 1.0,
    "rmod": lambda v: 1.0 % v,
    "floordiv": lambda v: v // 1.0,
    "rfloordiv": lambda v: 1.0 // v,
    "divmod": lambda v: divmod(v, 1.0),
    "rdivmod": lambda v: divmod(1.0, v),
    "round": round,
    "trunc": math.trunc,
    "floor": math.floor,
    "ceil": math.ceil,
}


@pytest.mark.parametrize("read", sorted(_READS))
def test_a_caught_read_fails_the_trace(read):
    def body(x):
        try:
            _READS[read](x.v0)
        except TypeError:
            pass
        return x * x

    assert tape.trace(body) is None


def _catches_a_power_of(c):
    def u(x):
        try:
            return x * jets.pow_real(c, 1.5)
        except TypeError:
            return x

    return u


# sin, cos or exp of a bare closure constant, a parameter of the trace
_OF_A_CONSTANT = {
    "x + sin(c)": lambda c: lambda x: x + jets.sin(c),
    "x * cos(c)": lambda c: lambda x: x * jets.cos(c),
    "x + exp(c)": lambda c: lambda x: x + jets.exp(c),
    "x * exp(c)": lambda c: lambda x: x * jets.exp(c),
}


@pytest.mark.parametrize("c", [0.7, complex(0.7, -0.2), math.inf])
@pytest.mark.parametrize("name", sorted(_OF_A_CONSTANT))
def test_an_elementary_function_of_a_bare_parameter_compiles(fresh_registry, monkeypatch, name, c):
    body = _OF_A_CONSTANT[name](c)
    compiled = _bound(body)
    for x in POINTS:
        assert tape._outcome(compiled, x) == tape._outcome(lambda p: body(lift(p)), x), x
    monkeypatch.setattr(maps, "COMPILE_AFTER", 0)
    u = IterationMap(name, body)
    assert tape._outcome(u.at, 0.3) == tape._outcome(lambda p: body(lift(p)), 0.3)
    assert callable(vars(body)["_fpaccel_at"])


def test_a_caught_refusal_of_a_power_fails_the_trace(fresh_registry, monkeypatch):
    # the tape writes no power of a parameter; at c = 1.0 the caught
    # refusal's x would pass the check, and then serve c = 4.0 too
    monkeypatch.setattr(maps, "COMPILE_AFTER", 0)
    for c in (1.0, 4.0):
        fn = _catches_a_power_of(c)
        u = IterationMap("p", fn)
        for x in POINTS:
            assert tape._outcome(u.at, x) == tape._outcome(lambda p: fn(lift(p)), x), (c, x)
        assert vars(fn)["_fpaccel_at"] is None
    assert [entry[0] for entry in fresh_registry.values()] == [None]


def test_the_tape_has_no_formulas_of_its_own(monkeypatch):
    # a product rule without its cross term reaches the traced code as well
    def mul(a, b):
        if type(b) is not Jet2:
            return NotImplemented
        return Jet2(a.v0 * b.v0, a.v0 * b.v1 + a.v1 * b.v0, a.v0 * b.v2 + a.v2 * b.v0)

    def body(x):
        return jets.sin(x) * (x * x)

    product_rule = body(lift(0.3)).as_tuple()
    monkeypatch.setattr(Jet2, "__mul__", mul)
    monkeypatch.setattr(Jet2, "__rmul__", mul)
    compiled = _bound(body)
    for x in POINTS:
        assert tape._outcome(compiled, x) == tape._outcome(lambda p: body(lift(p)), x), x
    assert compiled(0.3).as_tuple() != product_rule


# The operations of the code traced from each neutral_solve body, counted
# with ast so that every Python version gives the same numbers:
# + - * / unary- calls.  How jets writes its formulas must not change them.
# The first count is the per-call code, the second the prologue, run once
# per closure: the work on float and complex closure constants alone.
_CORPUS_OPERATIONS = {
    "sin": ({}, (2, 0, 4, 0, 1, 7), (0, 0, 0, 0, 0, 0)),
    "logistic": ({"a": 1.0}, (7, 1, 9, 0, 2, 1), (0, 0, 2, 0, 0, 0)),
    "fdil": ({}, (5, 1, 6, 0, 1, 7), (0, 0, 0, 0, 0, 0)),
    "s_family": ({"alphas": (1.0, 0.5), "r": 1.0}, (15, 1, 24, 0, 0, 13), (2, 4, 2, 0, 0, 2)),
    "power_family": ({"alpha": 1.0, "r": 3.0}, (8, 1, 12, 0, 4, 7), (0, 2, 1, 0, 0, 1)),
    "kvb_complex": ({}, (26, 10, 47, 0, 2, 11), (0, 0, 0, 0, 0, 0)),
}
_COUNTED = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.USub, ast.Call)


def _operations(nodes) -> tuple:
    counts = dict.fromkeys(_COUNTED, 0)
    for node in (n for root in nodes for n in ast.walk(root)):
        kind = type(node) if isinstance(node, ast.Call) else type(getattr(node, "op", None))
        if kind in counts:
            counts[kind] += 1
    return tuple(counts.values())


@pytest.mark.parametrize("problem", sorted(_CORPUS_OPERATIONS))
def test_corpus_bodies_compile_to_pinned_operation_counts(problem):
    params, per_call, prologue = _CORPUS_OPERATIONS[problem]
    bind, at = _per_call(tape.trace(corpus_lookup(problem, **params).map.fn))
    assert _operations([at]) == per_call
    assert _operations([node for node in bind.body if node is not at]) == prologue


def test_non_finite_constants_compile():
    # inf and nan have no literal, so the emitted code binds them by name
    def body(x):
        return x * math.inf - math.nan

    compiled = _bound(body)
    for x in POINTS:
        assert tape._outcome(compiled, x) == tape._outcome(lambda p: body(lift(p)), x), x


_COEFFS = [1.0 + i / 7.0 for i in range(300)]


def _long_sum(x):
    # a series: inlined whole, each jet component would nest 300 parentheses deep
    return sum((x * c for c in _COEFFS), 0.0)


def test_a_long_sum_compiles_and_matches():
    u = IterationMap("long_sum", _long_sum)
    for i in range(COMPILE_AFTER + 5):
        x = POINTS[i % len(POINTS)]
        assert tape._outcome(u.at, x) == tape._outcome(lambda p: _long_sum(lift(p)), x), (i, x)
    assert callable(vars(_long_sum)["_fpaccel_at"])


def test_code_that_cannot_compile_falls_back(monkeypatch):
    # with no bound on inlining the sum passes CPython's parenthesis limit
    monkeypatch.setattr(tape, "_NESTING", 10_000)
    assert tape.trace(_long_sum) is None
    u = IterationMap("long_sum", lambda x: _long_sum(x))
    for i in range(COMPILE_AFTER + 5):
        x = POINTS[i % len(POINTS)]
        assert tape._outcome(u.at, x) == tape._outcome(lambda p: _long_sum(lift(p)), x), (i, x)
    assert vars(u.fn)["_fpaccel_at"] is None


def _raises_twice(x):
    # at each point both the division and the sine raise; the division comes first
    return 1.0 / (x * 0.0) + jets.sin(x * 1e308 * 10.0)


@pytest.mark.parametrize("x", [1.0, -2.0, complex(1.0, 0.5)])
def test_exception_order_survives_inlining(x):
    with pytest.raises(OverflowError):
        jets.sin(lift(x) * 1e308 * 10.0)
    compiled = _bound(_raises_twice)
    u = IterationMap("raises_twice", _raises_twice)
    for evaluate in (compiled, lambda p: _raises_twice(lift(p)), u.value):
        with pytest.raises(ZeroDivisionError) as raised:
            evaluate(x)
        assert raised.type is ZeroDivisionError


# ---------- an operation repeated in a body is written once ----------


def _divides_twice(x):
    # at 2.0 the first division raises, so the second, the same text, never runs
    return (1.0 / (x - 2.0)) * (1.0 / (x - 2.0))


def _divides_once(x):
    return 1.0 / (x - 2.0)


def _zero_times(y):
    # the slope 0.0 * y.v1: the text pow_real's fast path writes for the exponent 1.0
    return Jet2(0.0, 0.0, 0.0) * y


def _reuses_around_a_power(x):
    # made before the fast path, read inside it and asked for again after it
    y = x * x
    return _zero_times(y) + jets.pow_real(y, 1.0) + _zero_times(y)


def _reuses_after_a_power(x):
    # made first inside the fast path, where the branch did not run it is unbound
    y = x * x
    return jets.pow_real(y, 1.0) + _zero_times(y)


_REPEATS = (0.3, -1.25, 2.0, 0.0, -0.0, math.inf, math.nan, complex(0.5, -0.25), complex(2.0, 0.0))


@pytest.mark.parametrize("body", [_divides_twice, _reuses_around_a_power, _reuses_after_a_power])
def test_bodies_that_repeat_an_operation_match_jet2(body):
    compiled = _bound(body)
    for x in _REPEATS:
        assert tape._outcome(compiled, x) == tape._outcome(lambda p: body(lift(p)), x), x


def test_a_repeated_division_is_written_once():
    assert _source(tape.trace(_divides_twice)).count(" / ") == 3
    assert _source(tape.trace(_divides_once)).count(" / ") == 3


def test_an_operation_made_before_a_power_is_read_inside_it():
    _, at = _per_call(tape.trace(_reuses_around_a_power))
    (branch,) = [node for node in at.body if isinstance(node, ast.If)]
    made = {
        target.id: ast.unparse(node.value)
        for node in at.body[: at.body.index(branch)]
        for target in node.targets
    }
    read = _names(branch.body, ast.Load) & made.keys()
    assert any(made[name].startswith("0.0 * t") for name in read), made


def test_an_operation_made_inside_a_power_is_made_again_after_it():
    _, at = _per_call(tape.trace(_reuses_after_a_power))
    (branch,) = [node for node in at.body if isinstance(node, ast.If)]
    after = at.body[at.body.index(branch) + 1 :]

    def expressions(nodes):
        return {ast.unparse(node) for root in nodes for node in ast.walk(root) if isinstance(node, ast.BinOp)}

    assert any(e.startswith("0.0 * t") for e in expressions([branch]) & expressions(after))
    # after the branch only the temps both its paths assign are read
    assert _names(after, ast.Load) & _names(branch.body, ast.Store) <= _names(branch.orelse, ast.Store)


def test_a_map_used_ten_times_leaves_only_its_count(fresh_registry):
    u = corpus_lookup("logistic", a=1.5).map
    for _ in range(10):
        u.at(0.3)
    assert vars(u.fn) == {}
    key, params = maps._signature(u.fn)
    assert params == [1.5]
    assert list(fresh_registry) == [key] and fresh_registry[key][0] == 10
    # another closure of the body counts on the same key
    v = corpus_lookup("logistic", a=2.5).map
    for _ in range(5):
        v.at(0.3)
    assert vars(v.fn) == {} and fresh_registry[key][0] == 15


def test_compiled_code_is_used_and_freed_with_its_body(fresh_registry):
    u = corpus_lookup("s_family", alphas=(1.0, 0.5), r=1.0).map
    for _ in range(COMPILE_AFTER):
        u.at(0.2)
    assert "_fpaccel_at" not in vars(u.fn)
    assert [entry[0] for entry in fresh_registry.values()] == [COMPILE_AFTER]
    u.at(0.2)
    compiled = u.fn._fpaccel_at
    assert callable(compiled)
    for x in POINTS:
        assert tape._outcome(u.at, x) == tape._outcome(lambda p: u.fn(lift(p)), x), x
    ref = weakref.ref(compiled)
    del compiled, u
    gc.collect()
    assert ref() is None
    # the traced code stays with its key, and binds the next closure at once
    v = corpus_lookup("s_family", alphas=(1.0, 0.5), r=2.5, x_star=0.25).map
    v.at(0.7)
    assert callable(v.fn._fpaccel_at) and len(fresh_registry) == 1
    for x in POINTS:
        assert tape._outcome(v.at, x) == tape._outcome(lambda p: v.fn(lift(p)), x), x


def test_many_kernel_family_closures_share_one_trace(fresh_registry, traces):
    for i in range(2 * COMPILE_AFTER):
        alpha, beta, x_star = (-1.0) ** i * (0.25 + i / 800.0), 1.1 + i / 700.0, i / 500.0 - 2.0
        u = kernel_family_map(alpha, beta, x_star)
        x = x_star - 0.2
        got = u.at(x)
        assert got.as_tuple() == u.fn(lift(x)).as_tuple(), (alpha, beta, x_star)
        assert callable(vars(u.fn).get("_fpaccel_at")) == (i >= COMPILE_AFTER), i
    assert len(traces) == 1 and len(fresh_registry) == 1


def test_s_family_coefficients_are_part_of_the_key(fresh_registry, monkeypatch):
    monkeypatch.setattr(maps, "COMPILE_AFTER", 0)
    for alphas in ((1.0, 0.5), (1.0, -0.5), (1.0, 0.5)):
        u = corpus_lookup("s_family", alphas=alphas, r=1.5).map
        assert tape._outcome(u.at, 0.3) == tape._outcome(lambda p: u.fn(lift(p)), 0.3)
        assert callable(u.fn._fpaccel_at)
    assert len(fresh_registry) == 2


def test_the_registry_starts_again_when_full(fresh_registry, monkeypatch):
    monkeypatch.setattr(maps, "_MAX_KEYS", 3)
    monkeypatch.setattr(maps, "COMPILE_AFTER", 0)
    alphas = [(1.0, a) for a in (0.5, 0.25, 0.125, 2.0)]
    bodies = [corpus_lookup("s_family", alphas=a, r=1.0).map for a in alphas]
    for u in bodies:
        u.at(0.3)
    assert len(fresh_registry) == 1
    # code bound before the registry started again stays bound
    assert all(callable(u.fn._fpaccel_at) for u in bodies)
    for u in bodies:
        assert tape._outcome(u.at, 0.3) == tape._outcome(lambda p: u.fn(lift(p)), 0.3)


def test_traced_sources_leave_linecache_with_their_code(fresh_registry, monkeypatch):
    # fresh s_family coefficients make a new key, and so a new trace, for each map
    monkeypatch.setattr(maps, "_MAX_KEYS", 4)
    monkeypatch.setattr(maps, "COMPILE_AFTER", 0)

    def traced_files():
        gc.collect()
        return {name for name in linecache.cache if name.startswith("<traced ")}

    before = traced_files()
    for i in range(200):
        u = corpus_lookup("s_family", alphas=(1.0, 1.0 + i / 256.0), r=1.0).map
        u.at(0.3)
        assert u.fn._fpaccel_at.__code__.co_filename in linecache.cache
    del u
    # one source per key the registry still holds; the rest went with their code
    assert len(traced_files() - before) <= maps._MAX_KEYS


def test_a_traceback_from_traced_code_shows_its_line(monkeypatch):
    monkeypatch.setattr(maps, "COMPILE_AFTER", 0)
    u = IterationMap("sine", lambda x: jets.sin(x))
    u.at(0.5)
    assert callable(u.fn._fpaccel_at)
    with pytest.raises(OverflowError) as raised:
        u.at(math.inf)
    assert raised.traceback[-1].frame.code.raw.co_filename.startswith("<traced ")
    text = "".join(traceback.format_exception(raised.value))
    assert 'raise OverflowError("sin of an infinite argument") from None' in text


def _compares_its_constant(c):
    def u(x):
        return x * c if c > 0.0 else x - c

    return u


def _unhashable_cell(coeffs):
    def u(x):
        return x * coeffs[0] + coeffs[1]

    return u


# each maker, and the call from which its closures hold None: an unhashable
# cell is decided at once, a comparing body when its key fails to trace
_UNSHARED = {
    "compares": (_compares_its_constant, COMPILE_AFTER),
    "unhashable": (lambda c: _unhashable_cell([c, 0.5]), 0),
}


@pytest.mark.parametrize("name", sorted(_UNSHARED))
def test_closures_that_cannot_share_a_trace_stay_on_jet2(fresh_registry, name):
    make, decided = _UNSHARED[name]
    for i in range(COMPILE_AFTER + 5):
        fn = make(0.5 - (i % 3) * 0.5)
        x = POINTS[i % len(POINTS)]
        assert tape._outcome(IterationMap("u", fn).at, x) == tape._outcome(lambda p: fn(lift(p)), x)
        assert vars(fn) == ({"_fpaccel_at": None} if i >= decided else {}), i
    assert [entry[0] for entry in fresh_registry.values()] == ([None] if decided else [])


_SCALE = 2.0


def _scaled(x, k=3.0):
    return x * k * _SCALE


def test_a_code_object_with_other_globals_or_defaults_traces_apart(fresh_registry, monkeypatch):
    monkeypatch.setattr(maps, "COMPILE_AFTER", 0)
    code = _scaled.__code__
    bodies = [
        _scaled,
        FunctionType(code, {**globals(), "_SCALE": 5.0}, "_scaled", _scaled.__defaults__),
        FunctionType(code, globals(), "_scaled", (7.0,)),
    ]
    for fn in bodies:
        assert IterationMap("scaled", fn).at(0.5).as_tuple() == fn(lift(0.5)).as_tuple()
        assert callable(fn._fpaccel_at)
    assert len(fresh_registry) == 3


def _reciprocal(c):
    def u(x):
        return x + jets.pow_real(x * x, c) + 1.0 / c

    return u


def test_a_closure_whose_prologue_raises_stays_on_jet2(fresh_registry, monkeypatch):
    # 1 / 0 and an infinite exponent raise on every call of the Jet2 path,
    # so binding them to the key's traced code gives no code
    monkeypatch.setattr(maps, "COMPILE_AFTER", 0)
    for c, bound in ((2.0, True), (0.0, False), (math.inf, False), (-1.5, True)):
        fn = _reciprocal(c)
        u = IterationMap("r", fn)
        for x in POINTS:
            assert tape._outcome(u.at, x) == tape._outcome(lambda p: fn(lift(p)), x)
        assert callable(fn._fpaccel_at) is bound, c
    assert len(fresh_registry) == 1


def _plus_reciprocal(c):
    def u(x):
        return x + 1.0 / c

    return u


def _tests_value_type_of(c):
    def u(x):
        return x / c if isinstance(x.v0, float) else x + 1.0 / c

    return u


@pytest.mark.parametrize("order", [(0.0, 2.0, 3.0), (2.0, 0.0, 3.0)])
@pytest.mark.parametrize("make, kept", [(_plus_reciprocal, True), (_tests_value_type_of, False)])
def test_a_key_is_checked_with_the_first_closure_that_binds(
    fresh_registry, traces, monkeypatch, order, make, kept
):
    # 1 / 0 raises in c = 0.0's prologue, so that closure cannot check the
    # trace; whichever closure comes first, the key keeps its one trace, and
    # the first closure that binds decides it: _tests_value_type_of's trace
    # takes the other branch and fails the check
    monkeypatch.setattr(maps, "COMPILE_AFTER", 0)
    for c in order:
        fn = make(c)
        u = IterationMap("r", fn)
        for x in POINTS:
            assert tape._outcome(u.at, x) == tape._outcome(lambda p: fn(lift(p)), x)
        assert callable(fn._fpaccel_at) is (kept and c != 0.0), c
    assert len(traces) == 1 and len(fresh_registry) == 1
    [(state, _)] = fresh_registry.values()
    assert callable(state) if kept else state is None


def _power_of_a_parameter(c):
    def u(x):
        return x * jets.pow_real(c, 1.5)

    return u


def _parameter_exponent(c):
    def u(x):
        return jets.pow_real(x, c)

    return u


@pytest.mark.parametrize("make, c", [(_power_of_a_parameter, 2.0), (_parameter_exponent, 1.5j)])
def test_a_power_the_tape_cannot_write_stays_on_jet2(fresh_registry, traces, monkeypatch, make, c):
    # the tape writes out only a power whose base depends on the argument,
    # with a real exponent; a complex exponent raises TypeError on both paths
    monkeypatch.setattr(maps, "COMPILE_AFTER", 0)
    fn = make(c)
    u = IterationMap("p", fn)
    for x in POINTS:
        assert tape._outcome(u.at, x) == tape._outcome(lambda p: fn(lift(p)), x)
    assert vars(fn)["_fpaccel_at"] is None
    assert len(traces) == 1 and [entry[0] for entry in fresh_registry.values()] == [None]
    if type(c) is complex:
        for evaluate in (u.at, u.value):
            with pytest.raises(TypeError, match="exponent must be a real number"):
                evaluate(0.3)


def _double(x):
    return x + x


def _square(x):
    return x * x


def _applying(helper, n, name, shift):
    # an int, a str, None or a function in a cell counts by its value
    def u(x):
        y = getattr(jets, name)(helper(x)) * n
        return y if shift is None else y + shift

    return u


def test_cells_compared_by_value_share_a_trace_only_when_equal(fresh_registry, traces, monkeypatch):
    monkeypatch.setattr(maps, "COMPILE_AFTER", 0)
    bodies = [
        _applying(_double, 3, "sin", None),
        _applying(_double, 3, "sin", None),  # the same helper and constants: no new trace
        _applying(_square, 3, "sin", None),
        _applying(_double, 4, "sin", None),
        _applying(_double, 3, "exp", None),
        _applying(_double, 3, "sin", 0.5),
    ]
    for fn in bodies:
        u = IterationMap("applying", fn)
        for x in POINTS:
            assert tape._outcome(u.at, x) == tape._outcome(lambda p: fn(lift(p)), x)
        assert callable(fn._fpaccel_at)
    assert traces == [bodies[0], *bodies[2:]] and len(fresh_registry) == 5


# ---------- generated bodies against Jet2 ----------

# A body is a tree over the grammar the tape writes out: the argument, a
# constant, one of two closure parameters, + - * /, negation, sin, cos,
# either half of sin_cos, exp, and pow_real with a constant or a parameter
# exponent.  _evaluate runs it on a jet or on a traced value alike.
_SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1e308)
_floats = st.one_of(st.sampled_from(_SPECIAL), st.floats(-4.0, 4.0))
_numbers = st.one_of(_floats, st.builds(complex, _floats, _floats))
_constants = st.one_of(_numbers, st.integers(-3, 3)).map(lambda c: ("k", c))
_params = st.sampled_from((("p", 0), ("p", 1)))
_exponents = st.one_of(
    st.sampled_from((0, 1, 2, 3, -1, 0.5, 1.5, 2.5, -0.5, 0.0, math.inf)).map(lambda b: ("k", b)),
    _params,
)


def _grammar(children, operands):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, operands),
        st.tuples(st.sampled_from("+-*/"), operands, children),
        st.tuples(st.sampled_from(("neg", "sin", "cos", "exp")), children),
        st.tuples(st.just("sin_cos"), st.sampled_from((0, 1)), children),
        st.tuples(st.just("pow"), children, _exponents),
        # one subtree evaluated twice, so the second copy repeats the first's operations
        st.tuples(st.just("twice"), st.sampled_from("+-*/"), children),
    )


# an operand may hold the argument or not; a body always does
_operands = st.recursive(
    st.one_of(st.just(("x",)), _constants, _params), lambda c: _grammar(c, c), max_leaves=4
)
_bodies = st.recursive(st.just(("x",)), lambda c: _grammar(c, _operands), max_leaves=8)
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_POINTS = (*POINTS, -0.0, 1e300, math.nan, complex(-2.0, 0.0), complex(0.0, -0.0), complex(3.0, 1e-3))


def _evaluate(node, x, params):
    op, *args = node
    if op == "x":
        return x
    if op == "k":
        return args[0]
    if op == "p":
        return params[args[0]]
    if op in _ARITHMETIC:
        return _ARITHMETIC[op](_evaluate(args[0], x, params), _evaluate(args[1], x, params))
    if op == "neg":
        return -_evaluate(args[0], x, params)
    if op == "twice":
        return _ARITHMETIC[args[0]](_evaluate(args[1], x, params), _evaluate(args[1], x, params))
    if op == "sin_cos":
        return jets.sin_cos(_evaluate(args[1], x, params))[args[0]]
    if op == "pow":
        return jets.pow_real(_evaluate(args[0], x, params), _evaluate(args[1], x, params))
    return getattr(jets, op)(_evaluate(args[0], x, params))


def _generated(tree, p0, p1):
    def u(x):
        return _evaluate(tree, x, (p0, p1))

    return u


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(_bodies, _numbers, _numbers, _numbers)
def test_generated_bodies_match_jet2(tree, p0, p1, z):
    fn = _generated(tree, p0, p1)
    bind = tape.trace(fn)
    if bind is None:
        return  # no jet to return, or a read: the body stays on Jet2
    on_jet = [tape._outcome(lambda p: fn(lift(p)), x) for x in (z, *_POINTS)]
    at = bind(*maps._signature(fn)[1])
    if at is None:  # the prologue raised, so the Jet2 path raises at every point
        assert all(len(outcome) == 1 for outcome in on_jet)
    else:
        assert [tape._outcome(at, x) for x in (z, *_POINTS)] == on_jet
