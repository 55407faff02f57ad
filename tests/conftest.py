import tracemalloc

import numpy as np
import pytest

import vcross as vc


@pytest.fixture(scope="session")
def grid64():
    return vc.Grid(64)


@pytest.fixture(scope="session")
def grid128():
    return vc.Grid(128)


@pytest.fixture(scope="session")
def grid256():
    return vc.Grid(256)


def mirror(values):
    """Grid image of z -> -z (index (i, j) -> (-i, -j) mod n)."""
    return np.roll(values[::-1, ::-1], (1, 1), (0, 1))


def evenness_error(values):
    return float(np.max(np.abs(values - mirror(values))))


def traced_peak_mb(fn, *args):
    """Peak of the memory traced while fn(*args) runs, in MB (1e6 bytes)."""
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6
