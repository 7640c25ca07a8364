"""Test-side helper: the memory a call allocates on top of what is live.

tracemalloc counts the blocks that Python and numpy allocate (numpy
reports its array buffers to it), so the peak of a call is the most it
held at once beyond the memory live before it, outputs included.
"""

import tracemalloc


def _traced(call, args, kwargs):
    """``call``'s result, and the memory traced after it and at its peak, both above the memory traced before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call(*args, **kwargs)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, after - before, peak - before


def peak_above(call, *args, **kwargs):
    """(result, bytes): ``call``'s result and its tracemalloc peak above the memory traced before it."""
    result, _, peak = _traced(call, args, kwargs)
    return result, peak


def held_above(call, *args, **kwargs):
    """(result, bytes): ``call``'s result and the memory it leaves allocated, the result's included."""
    result, held, _ = _traced(call, args, kwargs)
    return result, held
