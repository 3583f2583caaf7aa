"""Straight-line jet code traced from a map body.

:func:`trace` runs a map body once on an ordinary
:class:`~fpaccel.jets.Jet2` made by :func:`~fpaccel.jets.lift` from a
:class:`Value`, a scalar that records every operation applied to it; the
slope and curvature seeds are the plain floats 1.0 and 0.0.  So ``Jet2``'s
own arithmetic and chain rules make every operation that is recorded, and
an operation on two constants is done while tracing, as the ``Jet2`` path
does it.  This is taping, as in operator-overloading automatic
differentiation (Griewank and Walther, *Evaluating Derivatives*, 2nd ed.,
2008), with the tape compiled to source instead of replayed.

The body runs with each closure cell that holds exactly a float or a
complex replaced by a recorded parameter, so the code serves every closure
of the body that differs only in those constants.  The recorded operations
are split by what they read, as in the binding-time split of partial
evaluation (Jones, Gomard and Sestoft, *Partial Evaluation and Automatic
Program Generation*, 1993).  The code is one Python function of the
parameters: its prologue runs every operation that reads only parameters
and constants, once per closure, and it returns the per-call jet evaluator,
a function of the argument on local variables that builds one ``Jet2`` at
the end.  A prologue that raises (a division by a zero parameter, an
infinite or nan exponent) returns None, and that closure stays on the
``Jet2`` path, which raises the same error on every call.  Every other
constant the body reads, from other cells, defaults or globals, is
captured as it is when the body is traced.

An operation the per-call code repeats, the same text on the same
operands, such as the ``t * 0.0`` of several product rules, is written
once, and the repeat reads the first one's temp: local value numbering
(Aho, Lam, Sethi and Ullman, *Compilers*, 2nd ed., 2006).  This keeps
every bit, since the same IEEE operation on the same operands gives the
same bits, and a repeated division can raise only where its first
occurrence has already raised.  An operation made inside ``pow_real``'s
run-time branch is reused only inside that branch, which may not run.
:mod:`linecache` holds the emitted source for as long as the code lives,
so a traceback through the code shows its lines.

This module writes out only scalar operations:

- ``+ - * /`` and negation;
- the ``math``/``cmath`` calls of ``sin``, ``cos``, ``sin_cos`` and
  ``exp``, with their ``isinstance(z, complex)`` test and their
  ``ValueError`` to ``OverflowError`` mapping;
- ``pow_real``'s ``math.pow`` path, behind the run-time test that sends a
  base there (a positive float, or any nonzero float when the exponent is
  integral); any other base calls ``pow_real`` on a ``Jet2``.  The
  exponent is a constant or a real parameter.

A :class:`Value` has no number to read.  A comparison, a truth test, a
hash, ``float()``, ``complex()``, ``int()`` or ``operator.index()``
(which is how ``math`` and ``cmath`` read a number), or any other
operation of a float that is not written out above (``abs``, ``**``,
``//``, ``%``, ``round``, ...) raises ``TypeError`` and marks the trace
as failed, and so does a power this module cannot write out.  A marked
trace gives no code even when the body caught the error, so a body that
branches on its argument's value or on a parameter is not compiled;
neither is one that returns no jet, nor one whose code CPython cannot
compile.  A body can still branch without a read, on the
type of its argument's value, and then its trace follows the ``Jet2``
path for one type of number only.  So :meth:`IterationMap.at
<fpaccel.maps.IterationMap.at>` keeps the code only when, bound to the
parameters of the first closure whose prologue does not raise (in the
usual case the one that triggered the trace), it passes :func:`agrees`:
bit for bit the ``Jet2`` path at five points, four of the triggering
point's type and one of the other.  The check runs once per new trace,
never per call.

``import fpaccel`` does not load this module; :meth:`IterationMap.at
<fpaccel.maps.IterationMap.at>` imports it when a body first compiles.
"""

from __future__ import annotations

import cmath
import linecache
import math
import re
import weakref
from collections import Counter
from itertools import count
from types import CellType, FunctionType
from typing import Callable, NoReturn, Optional

from .jets import _PARAMETER_TYPES, Jet2, Recorder, Scalar, _chain, lift, pow_real

__all__ = ["Value", "agrees", "trace"]

# names the emitted code reads besides its captured constants
_GLOBALS = {"Jet2": Jet2, "cmath": cmath, "math": math, "pow_real": pow_real}

# the name of a temp of the per-call code (a prologue temp is q<n>, a parameter p<n>)
_TEMP = re.compile(r"\bt\d+\b")

# numbers each trace's file name, under which linecache holds its source
_TRACES = count(1)

# how many temps deep one inlined expression may nest: a long sum would
# otherwise pass CPython's limit on nested parentheses (200)
_NESTING = 20


class _Tape:
    """Source lines of the function being traced, and its constants.

    ``lines`` is the per-call body; ``prologue`` holds the operations that
    read only parameters and constants, run once when a closure is bound.
    """

    def __init__(self):
        self.lines: list = []
        self.prologue: list = []
        self.constants: dict = {}
        self.pure: set = set()  # temps made by + - * or negation, which never raise
        self.made: dict = {}  # the temp of each per-call expression emitted and still in scope
        self.temps = 0
        self.indent = ""
        self.refused = False  # a value was read, even if the body caught the error

    def refuse(self, message: str) -> NoReturn:
        """Mark the trace as failed and raise ``TypeError``."""
        self.refused = True
        raise TypeError(message)

    def text(self, v) -> Optional[str]:
        """An operand as source: a value's name, a constant, or None for anything else."""
        if type(v) is Value and v.tape is self:
            return v.name
        if not isinstance(v, (int, float, complex)):
            return None
        # a finite float is written as a literal, which repr round-trips;
        # anything else (an int, a complex, inf, nan, a float subclass) is bound by name
        if type(v) is float and math.isfinite(v):
            return repr(v)
        name = f"k{len(self.constants)}"
        self.constants[name] = v
        return name

    def temp(self, prefix: str = "t") -> str:
        self.temps += 1
        return f"{prefix}{self.temps}"

    def emit(self, *lines: str) -> None:
        self.lines.extend(self.indent + line for line in lines)

    def value(self, expression: str, pure: bool = False, kind: Optional[type] = None) -> Value:
        """A temp holding ``expression``; one of a ``kind`` goes in the prologue.

        A per-call expression already emitted in scope gives its temp again.
        """
        if kind is not None:
            name = self.temp("q")
            self.prologue.append(f"{name} = {expression}")
            return Value(self, name, kind)
        name = self.made.get(expression)
        if name is None:
            name = self.made[expression] = self.temp()
            self.emit(f"{name} = {expression}")
            if pure:
                self.pure.add(name)
        return Value(self, name)

    def binary(self, a, op: str, b):
        ta, tb = self.text(a), self.text(b)
        if ta is None or tb is None:
            return NotImplemented
        ka, kb = _kind(a), _kind(b)
        kind = None if ka is None or kb is None else complex if complex in (ka, kb) else float
        return self.value(f"{ta} {op} {tb}", pure=op != "/", kind=kind)


def _kind(v) -> Optional[type]:
    # a constant's type (an int counts as a float), a value's kind
    if type(v) is Value:
        return v.kind
    return complex if isinstance(v, complex) else float


class Value(Recorder):
    """A scalar in a traced body: the name of a variable of the emitted code.

    ``kind`` is None for a value that depends on the argument.  A parameter,
    or a value made only from parameters and constants, has the kind
    ``float`` or ``complex``, its type at run time, and lives in the
    prologue.
    """

    __slots__ = ("tape", "name", "kind")

    def __init__(self, tape: _Tape, name: str, kind: Optional[type] = None):
        self.tape, self.name, self.kind = tape, name, kind

    def __add__(self, other):
        return self.tape.binary(self, "+", other)

    def __radd__(self, other):
        return self.tape.binary(other, "+", self)

    def __sub__(self, other):
        return self.tape.binary(self, "-", other)

    def __rsub__(self, other):
        return self.tape.binary(other, "-", self)

    def __mul__(self, other):
        return self.tape.binary(self, "*", other)

    def __rmul__(self, other):
        return self.tape.binary(other, "*", self)

    def __truediv__(self, other):
        return self.tape.binary(self, "/", other)

    def __rtruediv__(self, other):
        return self.tape.binary(other, "/", self)

    def __neg__(self):
        return self.tape.value(f"-{self.name}", pure=True, kind=self.kind)

    # ---------- no value to read while tracing ----------

    def _no_value(self, *args):
        self.tape.refuse("a traced map body cannot read the value of its argument or parameters")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __bool__ = __hash__ = _no_value
    __float__ = __complex__ = __int__ = __index__ = _no_value  # how math and cmath read a number
    # the rest of a float's operations, which the tape does not write out
    # (math.floor and math.ceil fall back to __float__)
    __abs__ = __pos__ = __pow__ = __rpow__ = __mod__ = __rmod__ = __floordiv__ = __rfloordiv__ = _no_value
    __divmod__ = __rdivmod__ = __round__ = __trunc__ = _no_value

    # ---------- what the jets functions ask of a recorder ----------

    def calls(self, what: str, *functions: str) -> tuple:
        """The ``math`` (or ``cmath``) ``functions`` at this value, as ``jets.what`` calls them."""
        t, z = self.tape, self.name
        names = [t.temp() for _ in functions]
        m, c = (", ".join(f"{mod}.{f}({z})" for f in functions) for mod in ("math", "cmath"))
        t.emit(
            "try:",
            f"    if isinstance({z}, complex):",
            f"        {', '.join(names)} = {c}",
            "    else:",
            f"        {', '.join(names)} = {m}",
            "except ValueError:",
            f'    raise OverflowError("{what} of an infinite argument") from None',
        )
        return tuple(Value(t, name) for name in names)

    def pow_real(self, a: Jet2, b) -> Jet2:
        """``jets.pow_real(a, b)`` for a jet ``a`` whose value depends on the argument.

        ``b`` is the checked float exponent, or a real parameter (or a
        value made from parameters).  A float base takes ``pow_real``'s
        ``math.pow`` path when it is positive, and also when it is negative
        or nan and ``b`` is integral: that path is written out here, behind
        the same test, and ends in the jets chain rule.  Any other base
        calls ``pow_real`` on a ``Jet2`` at run time.  For a parameter
        exponent the prologue does the exponent work: the finiteness and
        integrality tests (``int`` raises on inf and nan, which leaves the
        closure on ``Jet2``, where ``pow_real`` raises), b - 1, b - 2 and
        b(b - 1); the zero test of b(b - 1) moves into the per-call code.
        """
        t = self.tape
        base = a.v0 if type(a) is Jet2 else None
        if type(base) is not Value or base.kind:
            t.refuse("a traced power needs a base that depends on the argument")
        z = base.name
        if type(b) is Value:
            if b.kind is not float:
                t.refuse("exponent must be a real number")
            integral = t.value(f"{b.name} == int({b.name})", kind=bool).name
            test = f"({z} > 0.0 or {integral} and {z} != 0.0)"
        else:
            test = f"{z} {'!=' if b == int(b) else '>'} 0.0"
        bm1 = b - 1.0
        c2 = b * bm1
        out, j = [t.temp() for _ in range(3)], t.temp()
        t.emit(f"if type({z}) is float and {test}:")
        t.indent, outside = "    ", t.made
        t.made = dict(outside)  # what the branch makes is not in scope after it
        f0 = t.value(f"math.pow({z}, {t.text(b)})")
        d1 = b * t.value(f"math.pow({z}, {t.text(bm1)})")
        pow2 = f"math.pow({z}, {t.text(b - 2.0)})"
        if type(c2) is Value:
            d2 = t.value(f"0.0 if {c2.name} == 0.0 else {c2.name} * {pow2}")
        else:
            d2 = 0.0 if c2 == 0.0 else c2 * t.value(pow2)
        fast = _chain(a, f0, d1, d2)
        t.emit(f"{', '.join(out)} = {', '.join(map(t.text, fast.as_tuple()))}")
        t.indent, t.made = "", outside
        t.emit(
            "else:",
            f"    {j} = pow_real(Jet2({z}, {t.text(a.v1)}, {t.text(a.v2)}), {t.text(b)})",
            f"    {', '.join(out)} = {j}.v0, {j}.v1, {j}.v2",
        )
        return Jet2(*(Value(t, name) for name in out))


def _inline(lines: list, pure: set) -> list:
    """``lines`` with each pure temp that is read once written into its reader.

    The temp's expression goes in parentheses, so the grouping and order of
    every operation are kept.  A pure operation never raises, so moving it
    later cannot change which exception is raised first; divisions and
    calls stay where they are.  An expression that would nest more than
    ``_NESTING`` temps deep stays a line of its own.
    """
    count = Counter(_TEMP.findall("\n".join(lines)))
    moved: dict = {}  # a moved temp's expression, in parentheses
    depth: dict = {}  # how many moved temps deep that expression nests
    out = []
    for line in lines:
        nesting = 1 + max((depth.get(t, 0) for t in _TEMP.findall(line)), default=0)
        line = _TEMP.sub(lambda m: moved.get(m[0], m[0]), line)
        name, _, expression = line.strip().partition(" = ")
        if name in pure and count[name] == 2 and nesting <= _NESTING:  # made once and read once
            moved[name], depth[name] = f"({expression})", nesting
        else:
            out.append(line)
    return out


def _outcome(evaluate: Callable, x) -> tuple:
    # every component by (type, repr), so -0.0 is told from 0.0; or the exception type
    try:
        out = evaluate(x)
    except Exception as exc:
        return (type(exc),)
    parts = out.as_tuple() if type(out) is Jet2 else (out,)
    return tuple((type(v), repr(v)) for v in parts)


def trace(fn: Callable) -> Optional[Callable]:
    """``fn``'s traced code, unbound, or None if ``fn`` cannot be traced.

    The code is a function of the parameters, the closure cells of ``fn``
    that hold exactly a float or a complex (``jets._PARAMETER_TYPES``), in
    cell order.  It runs the prologue and returns the per-call jet
    evaluator, or None when the prologue raises: then the ``Jet2`` path
    raises on every call.  The code is not checked here; see
    :func:`agrees`.
    """
    tape = _Tape()
    params, cells = [], []
    try:
        for cell in fn.__closure__ or ():
            v = cell.cell_contents
            if type(v) in _PARAMETER_TYPES:
                cell = CellType(Value(tape, f"p{len(params)}", type(v)))
                params.append(v)
            cells.append(cell)
        closure = fn.__closure__ and tuple(cells)
        body = FunctionType(fn.__code__, fn.__globals__, fn.__name__, fn.__defaults__, closure)
        body.__kwdefaults__ = fn.__kwdefaults__
        out = body(lift(Value(tape, "x")))
    except Exception:  # any failure leaves the body on the Jet2 path, which raises it itself
        return None
    if tape.refused or type(out) is not Jet2:
        return None  # a read the body caught, or a constant or another object: no jet to return
    parts = [tape.text(p) for p in out.as_tuple()]
    if None in parts:
        return None  # a component that is neither a number nor a value of this trace
    lines = _inline([*tape.lines, f"return Jet2({', '.join(parts)})"], tape.pure)
    prologue = ""
    if tape.prologue:
        prologue = (
            "    try:\n"
            + "".join(f"        {line}\n" for line in tape.prologue)
            + "    except (ArithmeticError, ValueError):\n        return None\n"
        )
    source = (
        f"def bind({', '.join(f'p{i}' for i in range(len(params)))}):\n{prologue}"
        + "    def at(x):\n"
        + "".join(f"        {line}\n" for line in lines)
        + "    return at\n"
    )
    namespace = {**_GLOBALS, **tape.constants}
    filename = f"<traced {fn.__qualname__} {next(_TRACES)}>"
    try:
        code = compile(source, filename, "exec")
    except (SyntaxError, RecursionError, MemoryError):  # code too large or deep for CPython
        return None
    exec(code, namespace)
    bind = namespace["bind"]
    # a traceback through the code shows its lines for as long as the code lives
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    weakref.finalize(bind, linecache.cache.pop, filename, None)
    return bind


def agrees(fn: Callable, x: Scalar, at: Callable[[Scalar], Jet2]) -> bool:
    """Whether the bound code ``at`` matches ``fn(lift(p))`` bit for bit.

    The check runs at ``x``, ``x + 1``, ``x - 1``, ``-x`` and ``x`` as the
    other type, ``complex(x)`` for a real ``x`` and ``x.real`` for a complex
    one; a raised exception must match by type.
    """

    def on_jet(p):
        return fn(lift(p))

    other = x.real if isinstance(x, complex) else complex(x)
    return all(_outcome(at, p) == _outcome(on_jet, p) for p in (x, x + 1.0, x - 1.0, -x, other))
