"""The seeded stream against numpy's own default_rng, which is its oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadprimes._stream import Stream

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1

# rng = hi - 1 - lo: no draw, the 32-bit Lemire path up to its edge, the whole
# 32-bit word at 2^32 - 1, and the 64-bit path from 2^32 up to the whole int64 range
spans = (st.sampled_from([0, 1, 2**32 - 2, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1])
         | st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64 - 1))


@st.composite
def calls(draw):
    n = draw(st.integers(1, 9))
    if draw(st.booleans()):
        return ("random", n)
    rng = draw(spans)
    lo = draw(st.integers(INT64_MIN, INT64_MAX - rng))
    return ("integers", lo, lo + rng + 1, n)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64) | st.integers(2**128 - 8, 2**140)
       | st.sampled_from([0, 2**32 - 1, 2**32, 2**128]),
       st.lists(calls(), min_size=1, max_size=6))
# an odd count of 32-bit draws leaves a spare half, which waits through 64-bit
# words and doubles for the next 32-bit draw
@example(7, [("integers", 0, 1000, 3), ("integers", 0, 2**40, 2), ("random", 3),
             ("integers", -5, 2**32 - 6, 1), ("integers", 10, 11, 4),
             ("integers", 0, 2**32 - 1, 3)])
def test_stream_matches_default_rng(seed, stream_calls):
    ours, theirs = Stream(seed), np.random.default_rng(seed)
    for name, *args in stream_calls:
        if name == "random":
            assert ours.random(*args) == theirs.random(*args).tolist()
        else:
            lo, hi, n = args
            assert ours.integers(lo, hi, n) == theirs.integers(lo, hi, size=n).tolist()


@pytest.mark.parametrize("lo, hi", [(0, 2**63 + 1), (INT64_MIN - 1, 0), (5, 5), (6, 5)])
def test_stream_refuses_the_bounds_default_rng_refuses(lo, hi):
    with pytest.raises(ValueError):
        np.random.default_rng(0).integers(lo, hi, size=3)
    with pytest.raises(ValueError):
        Stream(0).integers(lo, hi, 3)


def test_stream_refuses_a_negative_seed_as_default_rng_does():
    for make in (np.random.default_rng, Stream):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            make(-1)
