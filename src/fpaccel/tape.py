"""Straight-line jet code traced from a map body.

:func:`compile_at` runs a map body once on an ordinary
:class:`~fpaccel.jets.Jet2` made by :func:`~fpaccel.jets.lift` from a
:class:`Value`, a scalar that records every operation applied to it; the
slope and curvature seeds are the plain floats 1.0 and 0.0.  So ``Jet2``'s
own arithmetic and chain rules make every operation that is recorded, and
an operation on two constants is done while tracing, as the ``Jet2`` path
does it.  The recorded operations become one Python function on local
variables that builds one ``Jet2`` at the end.  This is taping, as in
operator-overloading automatic differentiation (Griewank and Walther,
*Evaluating Derivatives*, 2nd ed., 2008), with the tape compiled to source
instead of replayed.  This module writes out only scalar operations:

- ``+ - * /`` and negation;
- the ``math``/``cmath`` calls of ``sin``, ``cos``, ``sin_cos`` and
  ``exp``, with their ``isinstance(z, complex)`` test and their
  ``ValueError`` to ``OverflowError`` mapping;
- ``pow_real``'s ``math.pow`` path, behind the run-time test that sends a
  base there (a positive float, or any nonzero float when the exponent is
  integral); any other base calls ``pow_real`` on a ``Jet2``.

A body that compares or branches on its argument's value (``Value`` raises
``TypeError`` for a comparison or a truth test, and so does ``math`` on
it), or that returns no jet, is not compiled; neither is one whose code
CPython cannot compile.  A compiled function is kept only when it agrees
bit for bit with the ``Jet2`` path at four points, so a body whose trace
takes another branch than the ``Jet2`` path is rejected as well.
Constants the body reads from closures or globals are captured as they
are when it is traced.

``import fpaccel`` does not load this module; :meth:`IterationMap.at
<fpaccel.maps.IterationMap.at>` imports it when a body first compiles.
"""

from __future__ import annotations

import cmath
import math
import re
from collections import Counter
from typing import Callable, Optional

from .jets import Jet2, Recorder, Scalar, _chain, lift, pow_real

__all__ = ["Value", "compile_at", "trace"]

# names the emitted code reads besides its captured constants
_GLOBALS = {"Jet2": Jet2, "cmath": cmath, "math": math, "pow_real": pow_real}

# the name of a temp in the emitted code
_TEMP = re.compile(r"\bt\d+\b")

# how many temps deep one inlined expression may nest: a long sum would
# otherwise pass CPython's limit on nested parentheses (200)
_NESTING = 20


class _Tape:
    """Source lines of the function body being traced, and its constants."""

    def __init__(self):
        self.lines: list = []
        self.constants: dict = {}
        self.pure: set = set()  # temps made by + - * or negation, which never raise
        self.temps = 0
        self.indent = ""

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

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def emit(self, *lines: str) -> None:
        self.lines.extend(self.indent + line for line in lines)

    def value(self, expression: str, pure: bool = False) -> Value:
        """A new temp holding ``expression``."""
        name = self.temp()
        self.emit(f"{name} = {expression}")
        if pure:
            self.pure.add(name)
        return Value(self, name)

    def binary(self, a, op: str, b):
        ta, tb = self.text(a), self.text(b)
        if ta is None or tb is None:
            return NotImplemented
        return self.value(f"{ta} {op} {tb}", pure=op != "/")


class Value(Recorder):
    """A scalar in a traced body: the name of a local of the emitted function."""

    __slots__ = ("tape", "name")

    def __init__(self, tape: _Tape, name: str):
        self.tape, self.name = tape, name

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
        return self.tape.value(f"-{self.name}", pure=True)

    # ---------- no value to read while tracing ----------

    def _no_value(self, *args):
        raise TypeError("a traced map body cannot read the value of its argument")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __bool__ = _no_value
    __hash__ = None

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

    def pow_real(self, a: Jet2, b: float) -> Jet2:
        """``jets.pow_real(a, b)`` for the jet ``a`` whose value this is.

        ``b`` is the checked float exponent.  A float base takes
        ``pow_real``'s ``math.pow`` path when it is positive, and also when
        it is negative or nan and ``b`` is integral: that path is written
        out here, behind the same test, and ends in the jets chain rule.
        Any other base calls ``pow_real`` on a ``Jet2`` at run time.
        """
        t, z = self.tape, self.name
        out, j = [t.temp() for _ in range(3)], t.temp()
        t.emit(f"if type({z}) is float and {z} {'!=' if b == int(b) else '>'} 0.0:")
        t.indent = "    "
        f0 = t.value(f"math.pow({z}, {t.text(b)})")
        d1 = b * t.value(f"math.pow({z}, {t.text(b - 1.0)})")
        c2 = b * (b - 1.0)
        d2 = 0.0 if c2 == 0.0 else c2 * t.value(f"math.pow({z}, {t.text(b - 2.0)})")
        fast = _chain(a, f0, d1, d2)
        t.emit(f"{', '.join(out)} = {', '.join(map(t.text, fast.as_tuple()))}")
        t.indent = ""
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


def trace(fn: Callable) -> Optional[Callable[[Scalar], Jet2]]:
    """``fn``'s jet evaluator as straight-line code, or None if ``fn`` cannot be traced."""
    tape = _Tape()
    try:
        out = fn(lift(Value(tape, "x")))
    except Exception:  # any failure leaves the body on the Jet2 path, which raises it itself
        return None
    if type(out) is not Jet2:
        return None  # a constant or another object: no jet to return
    parts = [tape.text(p) for p in out.as_tuple()]
    if None in parts:
        return None  # a component that is neither a number nor a value of this trace
    lines = _inline([*tape.lines, f"return Jet2({', '.join(parts)})"], tape.pure)
    source = "def at(x):\n" + "".join(f"    {line}\n" for line in lines)
    namespace = {**_GLOBALS, **tape.constants}
    try:
        code = compile(source, f"<traced {getattr(fn, '__qualname__', 'map body')}>", "exec")
    except (SyntaxError, RecursionError, MemoryError):  # code too large or deep for CPython
        return None
    exec(code, namespace)
    return namespace["at"]


def compile_at(fn: Callable, x: Scalar) -> Optional[Callable[[Scalar], Jet2]]:
    """Trace ``fn`` and keep the result only if it matches ``fn(lift(p))`` bit for bit.

    The check points are ``x`` and three points made from it; a raised
    exception must match by type.  Returns None when the body cannot be
    traced or the check fails.
    """
    at = trace(fn)
    if at is None:
        return None

    def on_jet(p):
        return fn(lift(p))

    if all(_outcome(at, p) == _outcome(on_jet, p) for p in (x, x + 1.0, x - 1.0, -x)):
        return at
    return None
