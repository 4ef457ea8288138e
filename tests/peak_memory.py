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
