"""``Jet2``'s arithmetic as it was with one written-out formula per bare operand.

Before ``Jet2`` promoted a bare operand to the constant jet
``Jet2(c, 0.0, 0.0)``, each of ``+ - *`` wrote the jet-jet formula out
again with ``(c, 0.0, 0.0)`` put in and its zero terms kept, and ``/``
built the constant jet itself.  These are those operators, copied as they
were, as functions of the jet and the other operand; ``test_properties``
holds the promoting operators to them bit for bit.
"""

from fpaccel.jets import Jet2, Recorder


def _scalar(x):
    # a bare float or complex as is, an int (not a bool) as a float, else NotImplemented
    if isinstance(x, (float, complex)):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return float(x)
    if isinstance(x, Recorder):
        return x
    return NotImplemented


def _div(a, b):
    q0 = a.v0 / b.v0
    q1 = (a.v1 - q0 * b.v1) / b.v0
    q2 = (a.v2 - 2.0 * (q1 * b.v1) - q0 * b.v2) / b.v0
    return Jet2(q0, q1, q2)


def add(self, other):
    if type(other) is Jet2:
        return Jet2(self.v0 + other.v0, self.v1 + other.v1, self.v2 + other.v2)
    c = other if type(other) is float else _scalar(other)
    if c is NotImplemented:
        return NotImplemented
    return Jet2(self.v0 + c, self.v1 + 0.0, self.v2 + 0.0)


def sub(self, other):
    if type(other) is Jet2:
        return Jet2(self.v0 - other.v0, self.v1 - other.v1, self.v2 - other.v2)
    c = other if type(other) is float else _scalar(other)
    if c is NotImplemented:
        return NotImplemented
    return Jet2(self.v0 - c, self.v1 - 0.0, self.v2 - 0.0)


def rsub(self, other):
    c = other if type(other) is float else _scalar(other)
    if c is NotImplemented:
        return NotImplemented
    return Jet2(c - self.v0, 0.0 - self.v1, 0.0 - self.v2)


def mul(self, other):
    a0, a1, a2 = self.v0, self.v1, self.v2
    if type(other) is Jet2:
        b0, b1, b2 = other.v0, other.v1, other.v2
        return Jet2(a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + 2.0 * (a1 * b1) + a2 * b0)
    c = other if type(other) is float else _scalar(other)
    if c is NotImplemented:
        return NotImplemented
    return Jet2(a0 * c, a0 * 0.0 + a1 * c, a0 * 0.0 + 2.0 * (a1 * 0.0) + a2 * c)


def truediv(self, other):
    if type(other) is Jet2:
        return _div(self, other)
    c = other if type(other) is float else _scalar(other)
    if c is NotImplemented:
        return NotImplemented
    return _div(self, Jet2(c, 0.0, 0.0))


def rtruediv(self, other):
    c = other if type(other) is float else _scalar(other)
    if c is NotImplemented:
        return NotImplemented
    return _div(Jet2(c, 0.0, 0.0), self)


# each Jet2 operator by name, with its reference; __radd__ and __rmul__ were
# __add__ and __mul__, so a reflected sum or product keeps the jet on the left
OPERATORS = {
    "__add__": add,
    "__radd__": add,
    "__sub__": sub,
    "__rsub__": rsub,
    "__mul__": mul,
    "__rmul__": mul,
    "__truediv__": truediv,
    "__rtruediv__": rtruediv,
}
