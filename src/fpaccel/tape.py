"""Straight-line jet code traced from a map body.

:func:`compile_at` runs a map body once on a :class:`Symbol`, which records
every jet operation the body applies to it, and emits one Python function
that does the same float and complex operations as :class:`~fpaccel.jets.Jet2`,
in the same order, on local variables, and builds one ``Jet2`` at the end.
This is taping, as in operator-overloading automatic differentiation
(Griewank and Walther, *Evaluating Derivatives*, 2nd ed., 2008), with the
tape compiled to source instead of replayed.  ``Jet2`` stays the reference
semantics:

- every ``Jet2`` formula is written out as ``Jet2`` writes it, zero terms
  kept, with a bare constant operand standing for the jet ``(c, 0.0, 0.0)``
  exactly as ``Jet2``'s scalar branches do;
- ``sin``, ``cos``, ``sin_cos`` and ``exp`` are written inline with their
  ``isinstance(z, complex)`` test and their ``ValueError`` to
  ``OverflowError`` mapping;
- ``pow_real``'s ``math.pow`` path is written inline behind the test that
  sends a base there (a positive float, or any nonzero float when the
  exponent is integral); any other base calls ``pow_real`` on a ``Jet2``.

Anything else a body does with its argument (reading a component,
comparing, a truth test, a function outside :mod:`fpaccel.jets`) raises
while tracing, and the body is not compiled.  A compiled function is kept
only when it agrees bit for bit with the ``Jet2`` path at four points, so a
body that tests ``isinstance(x, Jet2)`` is rejected as well.  Constants the
body reads from closures or globals are captured as they are when it is
traced.

``import fpaccel`` does not load this module; :meth:`IterationMap.at
<fpaccel.maps.IterationMap.at>` imports it when a body first compiles.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Optional

from .jets import Jet2, Recorder, Scalar, SingularJetError, _scalar, lift, pow_real

__all__ = ["Symbol", "compile_at", "trace"]

# names the emitted code reads besides its captured constants
_GLOBALS = {
    "Jet2": Jet2,
    "SingularJetError": SingularJetError,
    "cmath": cmath,
    "math": math,
    "pow_real": pow_real,
}


class _Tape:
    """Source lines of the function body being traced, and its constants."""

    def __init__(self):
        self.lines: list = []
        self.constants: dict = {}
        self.temps = 0

    def constant(self, c) -> str:
        # a finite float is written as a literal, which repr round-trips;
        # anything else (complex, inf, nan, a float subclass) is bound by name
        if type(c) is float and math.isfinite(c):
            text = repr(c)
            return f"({text})" if text.startswith("-") else text
        name = f"k{len(self.constants)}"
        self.constants[name] = c
        return name

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def emit(self, *lines: str) -> None:
        self.lines.extend(lines)

    def jet(self, *parts: str) -> Symbol:
        """A symbol whose three components are the given expressions, each held in a local."""
        names = []
        for part in parts:
            if not part.isidentifier():
                name = self.temp()
                self.emit(f"{name} = {part}")
                part = name
            names.append(part)
        return Symbol(self, *names)

    def math_calls(self, z: str, names: str, calls: tuple, what: str) -> None:
        # the math/cmath call of an elementary function, as the jets module makes it
        m, c = (", ".join(f"{mod}.{f}({z})" for f in calls) for mod in ("math", "cmath"))
        self.emit(
            "try:",
            f"    if isinstance({z}, complex):",
            f"        {names} = {c}",
            "    else:",
            f"        {names} = {m}",
            "except ValueError:",
            f'    raise OverflowError("{what} of an infinite argument") from None',
        )


class Symbol(Recorder):
    """A jet in a traced body: three source expressions (names or literals)."""

    __slots__ = ("tape", "p0", "p1", "p2")

    def __init__(self, tape: _Tape, p0: str, p1: str, p2: str):
        self.tape, self.p0, self.p1, self.p2 = tape, p0, p1, p2

    def _parts(self, other) -> Optional[tuple]:
        if type(other) is Symbol and other.tape is self.tape:
            return other.p0, other.p1, other.p2
        c = _scalar(other)
        if c is NotImplemented:
            return None
        return self.tape.constant(c), "0.0", "0.0"

    # ---------- arithmetic, as Jet2 writes it ----------

    def __add__(self, other):
        b = self._parts(other)
        if b is None:
            return NotImplemented
        return self.tape.jet(f"{self.p0} + {b[0]}", f"{self.p1} + {b[1]}", f"{self.p2} + {b[2]}")

    __radd__ = __add__

    def __sub__(self, other):
        b = self._parts(other)
        if b is None:
            return NotImplemented
        return _sub(self.tape, (self.p0, self.p1, self.p2), b)

    def __rsub__(self, other):
        a = self._parts(other)
        if a is None:
            return NotImplemented
        return _sub(self.tape, a, (self.p0, self.p1, self.p2))

    def __mul__(self, other):
        b = self._parts(other)
        if b is None:
            return NotImplemented
        a0, a1, a2 = self.p0, self.p1, self.p2
        b0, b1, b2 = b
        return self.tape.jet(
            f"{a0} * {b0}",
            f"{a0} * {b1} + {a1} * {b0}",
            f"{a0} * {b2} + 2.0 * ({a1} * {b1}) + {a2} * {b0}",
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._parts(other)
        if b is None:
            return NotImplemented
        return _div(self.tape, (self.p0, self.p1, self.p2), b)

    def __rtruediv__(self, other):
        a = self._parts(other)
        if a is None:
            return NotImplemented
        return _div(self.tape, a, (self.p0, self.p1, self.p2))

    def __neg__(self):
        return self.tape.jet(f"-{self.p0}", f"-{self.p1}", f"-{self.p2}")

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if isinstance(exponent, (int, float)):
            return pow_real(self, exponent)
        return NotImplemented

    # ---------- no value to read while tracing ----------

    def _no_value(self, *args):
        raise TypeError("a traced map body cannot read the value of its argument")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __bool__ = _no_value
    __hash__ = None

    # ---------- elementary functions, as jets writes them ----------

    def sin(self) -> Symbol:
        t, z, a1, a2 = self.tape, self.p0, self.p1, self.p2
        s, c = t.temp(), t.temp()
        t.math_calls(z, f"{s}, {c}", ("sin", "cos"), "sin")
        return t.jet(s, f"{c} * {a1}", f"-{s} * {a1} * {a1} + {c} * {a2}")

    def cos(self) -> Symbol:
        t, z, a1, a2 = self.tape, self.p0, self.p1, self.p2
        s, c, ms = t.temp(), t.temp(), t.temp()
        t.math_calls(z, f"{s}, {c}", ("sin", "cos"), "cos")
        t.emit(f"{ms} = -{s}")
        return t.jet(c, f"{ms} * {a1}", f"-{c} * {a1} * {a1} + {ms} * {a2}")

    def sin_cos(self) -> tuple:
        t, z, a1, a2 = self.tape, self.p0, self.p1, self.p2
        s, c, ms = t.temp(), t.temp(), t.temp()
        t.math_calls(z, f"{s}, {c}", ("sin", "cos"), "sin_cos")
        t.emit(f"{ms} = -{s}")
        return (
            t.jet(s, f"{c} * {a1}", f"{ms} * {a1} * {a1} + {c} * {a2}"),
            t.jet(c, f"{ms} * {a1}", f"-{c} * {a1} * {a1} + {ms} * {a2}"),
        )

    def exp(self) -> Symbol:
        t, z, a1, a2 = self.tape, self.p0, self.p1, self.p2
        e = t.temp()
        t.math_calls(z, e, ("exp",), "exp")
        return t.jet(e, f"{e} * {a1}", f"{e} * {a1} * {a1} + {e} * {a2}")

    def pow_real(self, b: float) -> Symbol:
        # b is pow_real's checked float exponent.  A float base takes the
        # math.pow path of pow_real when it is positive, and also when it is
        # negative or nan and b is integral; that path is written out here
        t, z, a1, a2 = self.tape, self.p0, self.p1, self.p2
        bb = t.constant(b)
        r0, r1, r2, d1, d2, j = (t.temp() for _ in range(6))
        test = f"{z} != 0.0" if b == int(b) else f"{z} > 0.0"
        tail = "0.0" if b * (b - 1.0) == 0.0 else f"{bb} * ({bb} - 1.0) * math.pow({z}, {bb} - 2.0)"
        t.emit(
            f"if type({z}) is float and {test}:",
            f"    {r0} = math.pow({z}, {bb})",
            f"    {d1} = {bb} * math.pow({z}, {bb} - 1.0)",
            f"    {d2} = {tail}",
            f"    {r1} = {d1} * {a1}",
            f"    {r2} = {d2} * {a1} * {a1} + {d1} * {a2}",
            "else:",
            f"    {j} = pow_real(Jet2({z}, {a1}, {a2}), {bb})",
            f"    {r0}, {r1}, {r2} = {j}.v0, {j}.v1, {j}.v2",
        )
        return Symbol(t, r0, r1, r2)


def _sub(t: _Tape, a: tuple, b: tuple) -> Symbol:
    return t.jet(f"{a[0]} - {b[0]}", f"{a[1]} - {b[1]}", f"{a[2]} - {b[2]}")


def _div(t: _Tape, a: tuple, b: tuple) -> Symbol:
    (a0, a1, a2), (b0, b1, b2) = a, b
    q0, q1, q2 = t.temp(), t.temp(), t.temp()
    t.emit(
        f"if {b0} == 0:",
        '    raise SingularJetError("division by a jet with zero value")',
        f"{q0} = {a0} / {b0}",
        f"{q1} = ({a1} - {q0} * {b1}) / {b0}",
        f"{q2} = ({a2} - 2.0 * ({q1} * {b1}) - {q0} * {b2}) / {b0}",
    )
    return Symbol(t, q0, q1, q2)


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
        out = fn(Symbol(tape, "x0", "1.0", "0.0"))
    except Exception:  # any failure leaves the body on the Jet2 path, which raises it itself
        return None
    if type(out) is not Symbol or out.tape is not tape:
        return None  # a constant, a Jet2 or another object: nothing traced to return
    body = "".join(f"    {line}\n" for line in tape.lines)
    source = f"def at(x):\n    x0 = x + 0.0\n{body}    return Jet2({out.p0}, {out.p1}, {out.p2})\n"
    namespace = {**_GLOBALS, **tape.constants}
    exec(compile(source, f"<traced {getattr(fn, '__qualname__', 'map body')}>", "exec"), namespace)
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
