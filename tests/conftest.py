import tracemalloc

import pytest


def _traced_peak(fn, *args):
    """fn(*args) and the peak bytes tracemalloc saw allocated while it ran;
    numpy reports its buffers to tracemalloc, so arrays made before the call,
    such as its arguments, do not count."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The helper traced_peak(fn, *args) -> (result, peak bytes)."""
    return _traced_peak
