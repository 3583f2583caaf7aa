"""Whole-sequence convergence transforms.

These operate on already computed iterate sequences, in contrast to the
step functions in :mod:`fpaccel.accelerators` which need the map itself.
Every transform takes an :class:`~fpaccel.engine.IterationTrace` or any
iterable of scalars and returns an :class:`~fpaccel.engine.IterationTrace`.
Input is cut before its first non-finite entry, with stop reason
``NONFINITE``.  A vanishing denominator, a non-finite result or a complex
term whose modulus overflows truncates the output there and records why in
``stop_reason``; output that uses up its input carries the input trace's
stop reason, ``END_OF_INPUT`` for a plain iterable.  Input too short for
even one term gives no points.
"""

from __future__ import annotations

from typing import Iterable

from .accelerators import (
    _NONFINITE,
    _SINGULAR,
    DEFAULT_TOL,
    STEP_ERRORS,
    Status,
    _check_tol,
    _singular,
    error_status,
    standard_step,
)
from .engine import IterationTrace
from .jets import Scalar, is_finite

__all__ = [
    "aitken_delta2",
    "iterated_aitken",
    "theta2",
    "w_transform",
]


def _trace(items: Iterable[Scalar], reason: Status) -> IterationTrace:
    """Trace of ``items`` ending ``reason``, cut before a non-finite entry."""
    items = tuple(items)
    # a finite sum proves every entry finite in one C-level pass; scan only if not
    if not is_finite(sum(items)):
        for n, x in enumerate(items):
            if not is_finite(x):
                return IterationTrace(items[:n], _NONFINITE)
    return IterationTrace(items, reason)


def _input(seq) -> IterationTrace:
    if isinstance(seq, IterationTrace):
        return _trace(seq.points, seq.stop_reason)
    return _trace(seq, Status.END_OF_INPUT)


def aitken_delta2(seq) -> IterationTrace:
    """Classic delta-squared extrapolation.

    out[n] = s[n] - (s[n+1] - s[n])^2 / (s[n+2] - 2 s[n+1] + s[n]),
    giving len(s) - 2 entries, none for fewer than three input terms.
    """
    tr = _input(seq)
    s = tr.points
    out = []
    stop = None
    try:  # abs() in _singular overflows on a finite complex term
        for s0, s1, s2 in zip(s, s[1:], s[2:]):
            d1 = s1 - s0
            d2 = s2 - 2.0 * s1 + s0
            if _singular(d2, s0):
                stop = _SINGULAR
                break
            out.append(s0 - d1 * d1 / d2)
    except STEP_ERRORS as exc:
        stop = error_status(exc)
    return _trace(out, stop or tr.stop_reason)


def theta2(seq) -> IterationTrace:
    """First even column of the theta algorithm.

    With t[n] = 1/(s[n+1] - s[n]),

        out[n] = s[n+1] + (s[n+2] - s[n+1]) (t[n+2] - t[n+1])
                          / (t[n+2] - 2 t[n+1] + t[n]),

    giving len(s) - 3 entries, none for fewer than four input terms.
    Exact on geometric sequences c r^n + x*.
    """
    tr = _input(seq)
    s = tr.points
    t = []
    stop = None
    try:  # abs() overflows on a finite complex term; each t kept is below 1e12
        for s0, s1 in zip(s, s[1:]):
            d = s1 - s0
            if _singular(d, s0):
                stop = _SINGULAR
                break
            t.append(1.0 / d)
    except STEP_ERRORS as exc:
        stop = error_status(exc)
    out = []
    for s1, s2, t0, t1, t2 in zip(s[1:], s[2:], t, t[1:], t[2:]):
        den = t2 - 2.0 * t1 + t0
        if _singular(den, t1):
            stop = _SINGULAR
            break
        out.append(s1 + (s2 - s1) * (t2 - t1) / den)
    return _trace(out, stop or tr.stop_reason)


def iterated_aitken(seq, depth: int) -> IterationTrace:
    """Apply delta-squared ``depth`` times; no points below 2*depth + 1 terms."""
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
        raise ValueError("depth must be a non-negative integer")
    tr = _input(seq)
    for _ in range(depth):
        if not tr.points:  # further passes stay empty; a huge depth must not spin
            break
        tr = aitken_delta2(tr)
    return tr


def w_transform(seq, u, tol: float = DEFAULT_TOL) -> IterationTrace:
    """Map each iterate through the superlinear standard step of ``u``.

    out[n] = w(s[n]); output keeps the input length unless a step comes
    back singular or non-finite, or raises one of ``STEP_ERRORS``, which
    truncates the output there with that status, as in ``iterate``.
    Raises :class:`ValueError` unless ``tol`` is finite and non-negative.
    """
    _check_tol(tol)
    tr = _input(seq)
    out = []
    stop = None
    for x in tr.points:
        try:
            val, status = standard_step(x, u.at(x), tol)
        except STEP_ERRORS as exc:
            stop = error_status(exc)
            break
        if status is _SINGULAR or status is _NONFINITE:
            stop = status
            break
        out.append(val)
    return _trace(out, stop or tr.stop_reason)
