"""Iteration driver and empirical convergence-order measurement.

:func:`iterate` runs any step function (plain map application or one of
the accelerated steps, wrapped in a closure) from a start point and
records a full trace.  Step evaluation never aborts the run: singular
and non-finite events end the trace with a stop reason instead of an
exception, so a divergent column can sit next to a convergent one in the
same experiment.  :func:`empirical_order` classifies a trace against a
known fixed point.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .accelerators import (
    DEFAULT_TOL,
    STEP_ERRORS,
    Status,
    StepOutcome,
    _check_tol,
    _record,
    error_status,
)
from .jets import Scalar, is_finite

# Status members bound once, as in accelerators: on Python 3.11 a read of
# ``Status.OK`` costs ten module-global reads, and iterate reads them per step
_OK, _CONVERGED, _DIVERGED = Status.OK, Status.CONVERGED, Status.DIVERGED
_MAX_ITER, _NONFINITE = Status.MAX_ITER, Status.NONFINITE

# empirical_order's verdict thresholds on the last error ratio
_LOG_BAND = (0.95, 1.05)
_SUPERLINEAR_CUT = 0.05
_STABILITY_RTOL = 0.1

__all__ = [
    "IterationTrace",
    "OrderReport",
    "empirical_order",
    "iterate",
]


class IterationTrace(NamedTuple):
    """A run of points plus why it ended.

    :func:`iterate` and every sequence transform return one.  Only finite
    points are recorded; a singular or non-finite step of a run leaves the
    previous point as the last entry.
    """

    points: tuple[Scalar, ...]
    stop_reason: Status

    def last(self) -> Scalar:
        return self.points[-1]


def iterate(
    step: Callable[[Scalar], StepOutcome],
    x0: Scalar,
    max_iter: int = 20,
    tol: float = DEFAULT_TOL,
    divergence_bound: float = 1e30,
) -> IterationTrace:
    """Drive a step function from ``x0`` until it stops moving.

    Stops on: a new iterate y with ``|y - x| <= tol*(1+|y|)``, x the one
    before it (converged), the step reporting its input already fixed
    (converged), an iterate beyond ``divergence_bound`` in magnitude
    (diverged); for these three the new point is recorded.  It also stops
    on a non-finite iterate or a complex one whose modulus overflows
    (nonfinite), or any other step status but ``OK``, such as
    ``SINGULAR``, which becomes the stop reason; for these the previous
    point stays last.  Otherwise it runs ``max_iter`` steps.  Exceptions
    the steps are known to raise on bad points
    (:data:`~fpaccel.accelerators.STEP_ERRORS`) are mapped to stop reasons
    by :func:`~fpaccel.accelerators.error_status`.
    ``divergence_bound`` must be non-negative; ``inf`` turns the
    divergence test off.
    """
    if not is_finite(x0):
        raise ValueError("x0 must be finite")
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    _check_tol(tol)
    if not divergence_bound >= 0.0:  # a nan bound would never report diverged
        raise ValueError(f"divergence_bound must be non-negative, got {divergence_bound!r}")
    points = [x0]
    x = x0
    reason = _MAX_ITER
    for _ in range(max_iter):
        try:  # abs() of a finite complex raises OverflowError too
            val, status = step(x)
            if status is not _OK and status is not _CONVERGED:
                reason = status
                break
            if not is_finite(val):
                reason = _NONFINITE
                break
            if status is _CONVERGED:
                reason = _CONVERGED
            elif (size := abs(val)) > divergence_bound:
                reason = _DIVERGED
            elif abs(val - x) <= tol * (1.0 + size):
                reason = _CONVERGED
            else:
                points.append(val)
                x = val
                continue
        except STEP_ERRORS as exc:
            reason = error_status(exc)
            break
        points.append(val)
        break
    return _record(IterationTrace, (tuple(points), reason))  # the record, built in C


class OrderReport(NamedTuple):
    """Classification of a trace's convergence behaviour.

    Verdicts: "exact" (an iterate hits the target to the last bit),
    "superlinear" (final error ratio below the cut), "linear" (ratio
    stabilised strictly inside (cut, lower log band edge)),
    "logarithmic" (ratio inside the band around 1), "inconclusive".
    ``rate`` carries the stabilised ratio for the linear verdict.
    """

    verdict: str
    rate: Optional[float]
    ratios: tuple[float, ...]


def empirical_order(
    trace_or_values: Union[IterationTrace, Sequence[Scalar], Iterable[Scalar]],
    x_star: Scalar,
) -> OrderReport:
    """Classify convergence from successive error ratios |e_{n+1}|/|e_n|.

    The errors e_n = |x_n - x_star| are computed here from the iterates.

    A trace whose step reported its input already fixed ends with that
    input recorded twice; the repeat is dropped, since its unit error
    ratio would read as logarithmic.
    """
    if isinstance(trace_or_values, IterationTrace):
        values = trace_or_values.points
        converged = trace_or_values.stop_reason is _CONVERGED
        if converged and len(values) >= 2 and values[-1] == values[-2]:
            values = values[:-1]
    else:
        values = tuple(trace_or_values)
    if len(values) < 4:
        raise ValueError("need at least 4 iterates to classify")
    errs = []
    for n, v in enumerate(values):
        try:  # abs() of a finite complex raises OverflowError past the largest float
            err = abs(v - x_star)
        except OverflowError:
            err = math.inf
        if not is_finite(err):  # a nan or infinite error makes every ratio after it nonsense
            raise ValueError(f"iterate {n} ({v!r}) has no finite distance to x_star")
        errs.append(err)
    ratios: list[float] = []
    for n in range(len(errs) - 1):
        if errs[n] == 0.0:
            return OrderReport("exact", None, tuple(ratios))
        ratios.append(errs[n + 1] / errs[n])
    if errs[-1] == 0.0:
        return OrderReport("exact", None, tuple(ratios))
    last, prev = ratios[-1], ratios[-2]
    if last < _SUPERLINEAR_CUT:
        return OrderReport("superlinear", None, tuple(ratios))
    if _LOG_BAND[0] <= last <= _LOG_BAND[1]:
        return OrderReport("logarithmic", None, tuple(ratios))
    if last < _LOG_BAND[0] and abs(last - prev) <= _STABILITY_RTOL * last:
        return OrderReport("linear", last, tuple(ratios))
    return OrderReport("inconclusive", None, tuple(ratios))
