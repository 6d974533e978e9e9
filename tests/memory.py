"""Allocation peaks for the tests that bound a function's memory."""

import tracemalloc


def traced_peak(fn, *args) -> int:
    """The most bytes `tracemalloc` saw allocated at once while fn(*args)
    ran."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
