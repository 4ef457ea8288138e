"""Float sums that round the same on every supported Python.

From Python 3.12 on, ``sum()`` over floats uses compensated summation;
up to 3.11 it adds left to right. The two can differ in the last bit,
and so can a report that prints the total, so float totals that reach
a report go through ``fold_sum``.
"""

from __future__ import annotations


def fold_sum(values):
    """Add ``values`` left to right from integer 0: ``sum()`` as it
    rounds up to Python 3.11, on every version."""
    total = 0
    for value in values:
        total += value
    return total
