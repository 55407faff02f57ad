"""The pure-Python PCG64 stream, pinned against ``numpy.random.default_rng``."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcross.pcg64 import PCG64Stream

FINITE = st.floats(-1e300, 1e300)

# one draw: (low, high, size); the pairs cover equal, reversed and non-finite bounds
DRAWS = st.tuples(
    st.one_of(
        st.tuples(FINITE, FINITE),
        FINITE.map(lambda x: (x, x)),
        st.tuples(FINITE, FINITE).map(lambda p: (max(p), min(p))),
        st.tuples(st.floats(), st.floats()),
        st.just((0.0, -0.0)),
    ),
    st.none() | st.integers(0, 6) | st.tuples(st.integers(0, 3), st.integers(0, 3)),
)


def _outcome(rng, low, high, size):
    """The draw, or the type and text of its refusal."""
    try:
        return rng.uniform(low, high, size=size)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _assert_same(ours, theirs):
    """Equal refusals, or draws of one type, shape and bit pattern."""
    if isinstance(theirs, tuple):
        assert ours == theirs
    else:
        assert type(ours) is type(theirs) and np.shape(ours) == np.shape(theirs)
        assert np.asarray(ours).tobytes() == np.asarray(theirs).tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**130 - 1), draws=st.lists(DRAWS, max_size=12))
@example(seed=2**128 + 2**96 + 5, draws=[((1.0, 0.0), None), ((0.0, 1.0), 3)])
@example(seed=0, draws=[((0.0, math.inf), None), ((math.nan, 1.0), 2), ((2.0, 2.0), None)])
def test_draws_match_default_rng_bit_for_bit(seed, draws):
    ours, theirs = PCG64Stream(seed), np.random.default_rng(seed)
    for (low, high), size in draws:
        state = ours._state
        expected = _outcome(theirs, low, high, size)
        _assert_same(_outcome(ours, low, high, size), expected)
        if isinstance(expected, tuple):  # a refused draw leaves the stream where it was
            assert ours._state == state
    _assert_same(ours.uniform(0.0, 1.0, size=4), theirs.uniform(0.0, 1.0, size=4))


@pytest.mark.parametrize("seed", [*range(10), 25, 123456789012])
def test_every_seed_in_use_matches_default_rng(seed):
    # the draws of the package's callers: scalar ranges, then one size= draw
    ours, theirs = PCG64Stream(seed), np.random.default_rng(seed)
    for k in range(700):
        low, high = (0.0, 2.0 * np.pi) if k % 2 else (-3.5 + k, -3.5 + 2 * k)
        assert ours.uniform(low, high) == theirs.uniform(low, high)
    _assert_same(ours.uniform(0.0, 0.7, size=200), theirs.uniform(0.0, 0.7, size=200))
    assert ours.uniform(1e-9, 0.05) == theirs.uniform(1e-9, 0.05)


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_a_negative_seed_is_refused_as_by_numpy(seed):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng(seed)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        PCG64Stream(seed)


def test_a_negative_size_is_refused_before_any_draw():
    ours, theirs = PCG64Stream(3), np.random.default_rng(3)
    for rng in (ours, theirs):
        with pytest.raises(ValueError, match="negative dimensions"):
            rng.uniform(0.0, 1.0, size=(2, -1))
    assert ours.uniform(0.0, 1.0) == theirs.uniform(0.0, 1.0)
