"""Float arithmetic that answers the same on every supported Python.

From Python 3.12 on, ``sum()`` over floats uses compensated summation;
up to 3.11 it adds left to right. The two can differ in the last bit,
and so can a report that prints the total, so float totals that reach
a report go through ``fold_sum``.

``first_step_at`` is the one reading of a fixed-step time grid that the
power sol's load windows and the avionics check's night samples share.

``require_positive`` and ``require_nonnegative`` hold the sign rule
that the model dataclasses apply to their fields: a field refused by
``<= 0`` reads ``<name> must be positive, got <value>`` and one refused
by ``< 0`` reads ``<name> must be nonnegative, got <value>``. A NaN
passes both, as the comparisons are written.
"""

from __future__ import annotations

import math


def fold_sum(values):
    """Add ``values`` left to right from integer 0: ``sum()`` as it
    rounds up to Python 3.11, on every version."""
    total = 0
    for value in values:
        total += value
    return total


def first_step_at(time_s: float, step_s: float, n_steps: int) -> int:
    """The least i in [0, n_steps] with ``i * step_s >= time_s`` (n_steps
    if none is): the first step that starts at or after ``time_s``.
    ``ceil`` of the quotient is within a step of it; the comparisons
    settle the rest."""
    i = min(max(math.ceil(time_s / step_s), 0), n_steps)
    while i > 0 and (i - 1) * step_s >= time_s:
        i -= 1
    while i < n_steps and i * step_s < time_s:
        i += 1
    return i


def require_positive(owner, *names: str) -> None:
    """Raise ``ValueError`` at the first field of ``owner`` in ``names``
    that is ``<= 0``."""
    for name in names:
        value = getattr(owner, name)
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


def require_nonnegative(owner, *names: str) -> None:
    """Raise ``ValueError`` at the first field of ``owner`` in ``names``
    that is ``< 0``."""
    for name in names:
        value = getattr(owner, name)
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
