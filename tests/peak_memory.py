"""The peak traced heap of one call, for the tests that bound memory."""

import tracemalloc


def peak_bytes(call):
    """Call ``call`` once unmeasured, to warm imports and caches, then once
    more under ``tracemalloc``. Return the second call's result and the
    peak of the heap it traced, in bytes."""
    call()
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def settled_peaks(*calls):
    """Trace each of ``calls`` with ``peak_bytes`` in turn, round after
    round, until a round repeats the peaks of the one before, and return
    those peaks. In a fresh process the traced peak of a call falls by a
    few bytes a call for about a dozen calls, while caches that outlive a
    call fill, so one warm call is not enough to compare peaks exactly."""
    rounds, last = 40, None
    for _ in range(rounds):
        peaks = [peak_bytes(call)[1] for call in calls]
        if peaks == last:
            return peaks
        last = peaks
    raise AssertionError(f"traced peaks still move after {rounds} rounds: {peaks}")
