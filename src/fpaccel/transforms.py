"""Whole-sequence convergence transforms.

These operate on already computed iterate sequences, in contrast to the
step functions in :mod:`fpaccel.accelerators` which need the map itself.
Every transform consumes and produces a :class:`SequenceView`; plain
iterables are accepted and wrapped.  A vanishing denominator, a
non-finite result or a complex term whose modulus overflows truncates
the output there and records why in ``stopped_by``; input too short for
even one term gives an empty view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .accelerators import (
    DEFAULT_TOL,
    STEP_ERRORS,
    Status,
    _singular,
    error_status,
    standard_step,
)
from .jets import Scalar, is_finite

__all__ = [
    "SequenceView",
    "aitken_delta2",
    "iterated_aitken",
    "sequence_view",
    "theta2",
    "w_transform",
]


@dataclass(frozen=True)
class SequenceView:
    """Immutable scalar sequence with an end marker.

    ``stopped_by`` is None when the sequence simply ended, otherwise the
    reason output stopped early (``Status.SINGULAR`` or ``Status.NONFINITE``).
    """

    items: tuple[Scalar, ...]
    stopped_by: Optional[Status] = None

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i):
        return self.items[i]


def sequence_view(items: Iterable[Scalar], stopped_by: Optional[Status] = None) -> SequenceView:
    """Wrap an iterable, truncating at the first non-finite entry."""
    if isinstance(items, SequenceView):
        return items
    items = tuple(items)
    # a finite sum proves every entry finite in one C-level pass; scan only if not
    if not is_finite(sum(items)):
        for n, x in enumerate(items):
            if not is_finite(x):
                return SequenceView(items[:n], Status.NONFINITE)
    return SequenceView(items, stopped_by)


def aitken_delta2(seq) -> SequenceView:
    """Classic delta-squared extrapolation.

    out[n] = s[n] - (s[n+1] - s[n])^2 / (s[n+2] - 2 s[n+1] + s[n]),
    giving len(s) - 2 entries, none for fewer than three input terms.
    """
    view = sequence_view(seq)
    s = view.items  # indexing the tuple skips SequenceView.__getitem__
    out = []
    stop = None
    try:  # abs() in _singular overflows on a finite complex term
        for n in range(len(s) - 2):
            d1 = s[n + 1] - s[n]
            d2 = s[n + 2] - 2.0 * s[n + 1] + s[n]
            if _singular(d2, s[n]):
                stop = Status.SINGULAR
                break
            out.append(s[n] - d1 * d1 / d2)
    except STEP_ERRORS as exc:
        stop = error_status(exc)
    return sequence_view(out, stop or view.stopped_by)


def theta2(seq) -> SequenceView:
    """First even column of the theta algorithm.

    With t[n] = 1/(s[n+1] - s[n]),

        out[n] = s[n+1] + (s[n+2] - s[n+1]) (t[n+2] - t[n+1])
                          / (t[n+2] - 2 t[n+1] + t[n]),

    giving len(s) - 3 entries, none for fewer than four input terms.
    Exact on geometric sequences c r^n + x*.
    """
    view = sequence_view(seq)
    s = view.items
    t = []
    stop = None
    try:  # abs() overflows on a finite complex term; each t kept is below 1e12
        for n in range(len(s) - 1):
            d = s[n + 1] - s[n]
            if _singular(d, s[n]):
                stop = Status.SINGULAR
                break
            t.append(1.0 / d)
    except STEP_ERRORS as exc:
        stop = error_status(exc)
    out = []
    for n in range(max(0, min(len(s) - 3, len(t) - 2))):
        den = t[n + 2] - 2.0 * t[n + 1] + t[n]
        if _singular(den, t[n + 1]):
            stop = Status.SINGULAR
            break
        out.append(s[n + 1] + (s[n + 2] - s[n + 1]) * (t[n + 2] - t[n + 1]) / den)
    return sequence_view(out, stop or view.stopped_by)


def iterated_aitken(seq, depth: int) -> SequenceView:
    """Apply delta-squared ``depth`` times; empty below 2*depth + 1 terms."""
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
        raise ValueError("depth must be a non-negative integer")
    s = sequence_view(seq)
    for _ in range(depth):
        if not s:  # further passes stay empty; a huge depth must not spin
            break
        s = aitken_delta2(s)
    return s


def w_transform(seq, u, tol: float = DEFAULT_TOL) -> SequenceView:
    """Map each iterate through the superlinear standard step of ``u``.

    out[n] = w(s[n]); output keeps the input length unless a step comes
    back singular or non-finite, or raises one of ``STEP_ERRORS``, which
    truncates the output there with that status, as in ``iterate``.
    """
    s = sequence_view(seq)
    out = []
    stop = None
    for x in s.items:
        try:
            res = standard_step(x, u.at(x), tol)
        except STEP_ERRORS as exc:
            stop = error_status(exc)
            break
        if res.status in (Status.SINGULAR, Status.NONFINITE):
            stop = res.status
            break
        out.append(res.value)
    return SequenceView(tuple(out), stop or s.stopped_by)
